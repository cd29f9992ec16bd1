//! The shared observable state behind the HTTP endpoints: run metadata, the
//! latest per-round sample, per-layer freeze ratios, and the time-series
//! store.
//!
//! Producers (the fedsim runner) call [`ObsState::configure_run`] once and
//! [`ObsState::record_round`] at each round boundary; the HTTP handlers only
//! read. All JSON is rendered here with `apf_trace::json`'s `write_str` /
//! `write_f64`; consumers round-trip it through the same module's parser in
//! the integration tests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use apf_trace::json::{write_f64, write_str};

use crate::store::SeriesStore;

/// Run metadata shown in `/snapshot`.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Experiment label, e.g. `"lenet5/apf"`.
    pub name: String,
    /// Model name, e.g. `"lenet5"`.
    pub model: String,
    /// Strategy label, e.g. `"apf"`.
    pub strategy: String,
    /// Configured total rounds.
    pub rounds_total: u64,
    /// `apf-par` pool parallelism serving the run.
    pub threads: u64,
    /// Host's available parallelism.
    pub host_parallelism: u64,
}

#[derive(Debug, Default)]
struct Latest {
    round: Option<u64>,
    fields: BTreeMap<String, f64>,
    layers: Vec<(String, f64)>,
    completed: bool,
}

/// Shared observable state; one per served run, behind an `Arc`.
#[derive(Debug, Default)]
pub struct ObsState {
    store: SeriesStore,
    info: Mutex<RunInfo>,
    latest: Mutex<Latest>,
}

impl ObsState {
    /// A fresh state with default store bounds.
    pub fn new() -> Arc<ObsState> {
        Arc::new(ObsState::default())
    }

    /// The underlying time-series store.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Sets the run metadata (once, at build time).
    pub fn configure_run(&self, info: RunInfo) {
        if let Ok(mut i) = self.info.lock() {
            *i = info;
        }
    }

    /// Records one round boundary: every `(name, value)` field updates the
    /// latest-sample view *and* appends to its ring-buffered series (x =
    /// `round`); `layers` replaces the per-layer frozen-ratio view.
    pub fn record_round(&self, round: u64, fields: &[(&str, f64)], layers: Vec<(String, f64)>) {
        for (name, value) in fields {
            self.store.record(name, round as f64, *value);
        }
        if let Ok(mut l) = self.latest.lock() {
            l.round = Some(round);
            for (name, value) in fields {
                l.fields.insert((*name).to_owned(), *value);
            }
            if !layers.is_empty() {
                l.layers = layers;
            }
        }
    }

    /// Marks the run finished (surfaced as `"completed": true`).
    pub fn mark_completed(&self) {
        if let Ok(mut l) = self.latest.lock() {
            l.completed = true;
        }
    }

    /// Renders the `/snapshot` JSON document.
    pub fn snapshot_json(&self) -> String {
        let info = self.info.lock().map(|i| i.clone()).unwrap_or_default();
        let (round, fields, layers, completed) = self
            .latest
            .lock()
            .map(|l| (l.round, l.fields.clone(), l.layers.clone(), l.completed))
            .unwrap_or_default();
        let mut out = String::with_capacity(512);
        out.push_str("{\"run\":{\"name\":");
        write_str(&mut out, &info.name);
        out.push_str(",\"model\":");
        write_str(&mut out, &info.model);
        out.push_str(",\"strategy\":");
        write_str(&mut out, &info.strategy);
        out.push_str(&format!(",\"rounds_total\":{}}}", info.rounds_total));
        out.push_str(&format!(
            ",\"pool\":{{\"threads\":{},\"host_parallelism\":{}}}",
            info.threads, info.host_parallelism
        ));
        match round {
            Some(r) => out.push_str(&format!(",\"round\":{r}")),
            None => out.push_str(",\"round\":null"),
        }
        out.push_str(&format!(
            ",\"completed\":{}",
            if completed { "true" } else { "false" }
        ));
        out.push_str(",\"latest\":{");
        for (i, (name, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, *value);
        }
        out.push_str("},\"layer_frozen_ratio\":{");
        for (i, (name, value)) in layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, *value);
        }
        out.push_str("}}");
        out
    }

    /// Renders the `/series?name=...` JSON document; `None` for an unknown
    /// series.
    pub fn series_json(&self, name: &str) -> Option<String> {
        let points = self.store.series(name)?;
        let mut out = String::with_capacity(32 + points.len() * 16);
        out.push_str("{\"name\":");
        write_str(&mut out, name);
        out.push_str(",\"points\":[");
        for (i, (x, v)) in points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_f64(&mut out, *x);
            out.push(',');
            write_f64(&mut out, *v);
            out.push(']');
        }
        out.push_str("]}");
        Some(out)
    }

    /// Renders the series index (`/series` without a name).
    pub fn series_index_json(&self) -> String {
        let names = self.store.names();
        let mut out = String::from("{\"series\":[");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, n);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_latest_round() {
        let s = ObsState::new();
        s.configure_run(RunInfo {
            name: "mlp/apf".to_owned(),
            model: "mlp".to_owned(),
            strategy: "apf".to_owned(),
            rounds_total: 10,
            threads: 2,
            host_parallelism: 4,
        });
        s.record_round(
            0,
            &[("fedsim.loss", 2.0), ("fedsim.frozen_ratio", 0.0)],
            vec![("fc1.w".to_owned(), 0.0)],
        );
        s.record_round(
            1,
            &[("fedsim.loss", 1.5), ("fedsim.frozen_ratio", 0.25)],
            vec![("fc1.w".to_owned(), 0.25)],
        );
        let json = s.snapshot_json();
        assert!(json.contains("\"round\":1"), "{json}");
        assert!(json.contains("\"fedsim.loss\":1.5"), "{json}");
        assert!(json.contains("\"fc1.w\":0.25"), "{json}");
        assert!(json.contains("\"completed\":false"), "{json}");
        s.mark_completed();
        assert!(s.snapshot_json().contains("\"completed\":true"));
        // Both rounds live in the series store.
        assert_eq!(
            s.series_json("fedsim.loss").unwrap(),
            "{\"name\":\"fedsim.loss\",\"points\":[[0,2],[1,1.5]]}"
        );
        assert!(s.series_json("nope").is_none());
        assert!(s.series_index_json().contains("fedsim.loss"));
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let s = ObsState::new();
        s.record_round(0, &[("x", f64::NAN)], Vec::new());
        assert!(s.snapshot_json().contains("\"x\":null"));
    }
}
