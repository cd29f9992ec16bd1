//! Per-round metric records and experiment logs (CSV/JSON export).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::json::{self, Value};

/// Metrics of one communication round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u64,
    /// Mean local training loss across clients this round.
    pub loss: f32,
    /// Test accuracy of the global model (recorded every `eval_every`
    /// rounds; `None` on skipped rounds).
    pub accuracy: Option<f32>,
    /// Best test accuracy observed so far (the paper plots best-ever, §3.1
    /// footnote 2).
    pub best_accuracy: f32,
    /// Fraction of scalars excluded from synchronization this round.
    pub frozen_ratio: f32,
    /// Bytes uploaded this round, summed over clients.
    pub bytes_up: u64,
    /// Bytes downloaded this round, summed over clients.
    pub bytes_down: u64,
    /// Cumulative bytes (both directions, all clients) including the initial
    /// model distribution.
    pub cum_bytes: u64,
    /// Wall-clock compute time of this round (slowest client), seconds.
    pub compute_secs: f64,
    /// Simulated transfer time of this round (slowest client), seconds.
    pub comm_secs: f64,
    /// Cumulative simulated round time, seconds.
    pub cum_secs: f64,
}

impl RoundRecord {
    fn to_value(self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("round".to_owned(), Value::from_u64(self.round));
        m.insert("loss".to_owned(), Value::from_f32(self.loss));
        m.insert(
            "accuracy".to_owned(),
            self.accuracy.map_or(Value::Null, Value::from_f32),
        );
        m.insert(
            "best_accuracy".to_owned(),
            Value::from_f32(self.best_accuracy),
        );
        m.insert(
            "frozen_ratio".to_owned(),
            Value::from_f32(self.frozen_ratio),
        );
        m.insert("bytes_up".to_owned(), Value::from_u64(self.bytes_up));
        m.insert("bytes_down".to_owned(), Value::from_u64(self.bytes_down));
        m.insert("cum_bytes".to_owned(), Value::from_u64(self.cum_bytes));
        m.insert(
            "compute_secs".to_owned(),
            Value::from_f64(self.compute_secs),
        );
        m.insert("comm_secs".to_owned(), Value::from_f64(self.comm_secs));
        m.insert("cum_secs".to_owned(), Value::from_f64(self.cum_secs));
        Value::Obj(m)
    }

    fn from_value(v: &Value) -> Option<RoundRecord> {
        // Tolerant: missing or null numeric fields default to zero, so logs
        // from older/newer schema revisions still load.
        let f32_of = |k: &str| v.get(k).and_then(Value::as_f32).unwrap_or(0.0);
        let f64_of = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let u64_of = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        match v {
            Value::Obj(_) => Some(RoundRecord {
                round: u64_of("round"),
                loss: f32_of("loss"),
                accuracy: v.get("accuracy").and_then(Value::as_f32),
                best_accuracy: f32_of("best_accuracy"),
                frozen_ratio: f32_of("frozen_ratio"),
                bytes_up: u64_of("bytes_up"),
                bytes_down: u64_of("bytes_down"),
                cum_bytes: u64_of("cum_bytes"),
                compute_secs: f64_of("compute_secs"),
                comm_secs: f64_of("comm_secs"),
                cum_secs: f64_of("cum_secs"),
            }),
            _ => None,
        }
    }
}

/// The full metric trace of one experiment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentLog {
    /// Experiment label, e.g. `"lenet5/apf"`.
    pub name: String,
    /// One record per round.
    pub records: Vec<RoundRecord>,
    /// The canonical [`crate::RunSpec`] string that reproduces the run
    /// (`None` for a runner assembled by hand).
    pub spec: Option<String>,
}

impl ExperimentLog {
    /// Creates an empty log with the given label.
    pub fn new(name: &str) -> Self {
        ExperimentLog {
            name: name.to_owned(),
            records: Vec::new(),
            spec: None,
        }
    }

    /// Appends a record.
    pub fn push(&mut self, r: RoundRecord) {
        self.records.push(r);
    }

    /// Best test accuracy over the whole run (0.0 if never evaluated).
    pub fn best_accuracy(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.best_accuracy)
    }

    /// Final cumulative transmission volume in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.last().map_or(0, |r| r.cum_bytes)
    }

    /// Mean per-round simulated time in seconds.
    pub fn mean_round_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.last().unwrap().cum_secs / self.records.len() as f64
    }

    /// Mean frozen ratio over all rounds.
    pub fn mean_frozen_ratio(&self) -> f32 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.frozen_ratio).sum::<f32>() / self.records.len() as f32
    }

    /// Serializes the log as a CSV table.
    fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,loss,accuracy,best_accuracy,frozen_ratio,bytes_up,bytes_down,cum_bytes,compute_secs,comm_secs,cum_secs\n",
        );
        for r in &self.records {
            let acc = r.accuracy.map_or(String::new(), |a| format!("{a:.4}"));
            out.push_str(&format!(
                "{},{:.4},{},{:.4},{:.4},{},{},{},{:.6},{:.6},{:.6}\n",
                r.round,
                r.loss,
                acc,
                r.best_accuracy,
                r.frozen_ratio,
                r.bytes_up,
                r.bytes_down,
                r.cum_bytes,
                r.compute_secs,
                r.comm_secs,
                r.cum_secs,
            ));
        }
        out
    }

    /// Writes the CSV form to `path`.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }

    /// Serializes the log as pretty-printed JSON.
    ///
    /// Non-finite floats serialize as `null`; the output never contains a
    /// `NaN` or `inf` token, so it is always standard JSON.
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("name".to_owned(), Value::Str(self.name.clone()));
        m.insert(
            "records".to_owned(),
            Value::Arr(self.records.iter().map(|r| r.to_value()).collect()),
        );
        if let Some(spec) = &self.spec {
            m.insert("spec".to_owned(), Value::Str(spec.clone()));
        }
        Value::Obj(m).pretty()
    }

    /// Parses a log previously produced by [`ExperimentLog::to_json`].
    ///
    /// The parse is tolerant: unknown fields are ignored and missing numeric
    /// fields default to zero.
    ///
    /// # Errors
    /// Returns a [`json::ParseError`] on malformed JSON or a non-log shape.
    pub fn from_json(input: &str) -> Result<ExperimentLog, json::ParseError> {
        let doc = json::parse(input)?;
        let shape_err = || json::ParseError {
            offset: 0,
            message: "document is not an ExperimentLog".to_owned(),
        };
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(shape_err)?;
        let records = doc
            .get("records")
            .and_then(Value::as_arr)
            .ok_or_else(shape_err)?
            .iter()
            .map(RoundRecord::from_value)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(shape_err)?;
        Ok(ExperimentLog {
            name: name.to_owned(),
            records,
            spec: doc.get("spec").and_then(Value::as_str).map(str::to_owned),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64, acc: Option<f32>, best: f32, bytes: u64) -> RoundRecord {
        RoundRecord {
            round,
            loss: 1.0,
            accuracy: acc,
            best_accuracy: best,
            frozen_ratio: 0.25,
            bytes_up: bytes,
            bytes_down: bytes,
            cum_bytes: bytes * (round + 1) * 2,
            compute_secs: 0.1,
            comm_secs: 0.2,
            cum_secs: 0.3 * (round + 1) as f64,
        }
    }

    #[test]
    fn aggregates() {
        let mut log = ExperimentLog::new("t");
        log.push(rec(0, Some(0.5), 0.5, 100));
        log.push(rec(1, None, 0.5, 100));
        log.push(rec(2, Some(0.7), 0.7, 100));
        assert_eq!(log.best_accuracy(), 0.7);
        assert_eq!(log.total_bytes(), 600);
        assert!((log.mean_round_secs() - 0.3).abs() < 1e-9);
        assert!((log.mean_frozen_ratio() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut log = ExperimentLog::new("t");
        log.push(rec(0, Some(0.5), 0.5, 10));
        let csv = log.to_csv();
        assert!(csv.starts_with("round,loss"));
        assert_eq!(csv.lines().count(), 2);
        // Skipped evaluations serialize as an empty field.
        let mut log2 = ExperimentLog::new("t2");
        log2.push(rec(0, None, 0.0, 10));
        assert!(log2.to_csv().lines().nth(1).unwrap().contains(",,"));
    }

    #[test]
    fn json_roundtrip() {
        let mut log = ExperimentLog::new("t");
        log.push(rec(0, Some(0.1), 0.1, 5));
        let back = ExperimentLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
        log.spec = Some("apf-spec-v1;seed=3".to_owned());
        let back = ExperimentLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn json_never_emits_nan_or_inf_tokens() {
        // A crashed run can leave NaN losses and infinite timings behind;
        // the serialized log must still be valid JSON (NaN/Infinity are not
        // JSON tokens) and must parse back with those fields nulled to 0.
        let mut log = ExperimentLog::new("diverged");
        let mut r = rec(0, Some(f32::NAN), f32::INFINITY, 7);
        r.loss = f32::NAN;
        r.compute_secs = f64::INFINITY;
        r.comm_secs = f64::NEG_INFINITY;
        log.push(r);
        let text = log.to_json();
        for token in ["NaN", "nan", "Infinity", "inf"] {
            assert!(!text.contains(token), "illegal token {token:?} in {text}");
        }
        let back = ExperimentLog::from_json(&text).unwrap();
        assert_eq!(back.records[0].loss, 0.0);
        assert_eq!(back.records[0].accuracy, None);
        assert_eq!(back.records[0].best_accuracy, 0.0);
        assert_eq!(back.records[0].compute_secs, 0.0);
        assert_eq!(back.records[0].comm_secs, 0.0);
        // Finite fields survive untouched.
        assert_eq!(back.records[0].bytes_up, 7);
    }

    #[test]
    fn empty_log_defaults() {
        let log = ExperimentLog::new("e");
        assert_eq!(log.best_accuracy(), 0.0);
        assert_eq!(log.total_bytes(), 0);
        assert_eq!(log.mean_round_secs(), 0.0);
    }
}
