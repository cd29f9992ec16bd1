//! The run ledger: an append-only JSONL history of experiment runs.
//!
//! Every ledgered run appends one compact-JSON line to a shared file
//! (conventionally `results/ledger.jsonl`), capturing what ran (model,
//! strategy, config digest), what it produced (per-round series, final
//! accuracy, total bytes), and what it cost (wall time, simulated time,
//! host parallelism). The `ledger-report` bin in `crates/bench` lists,
//! diffs, and regression-checks these records; the digest lets it match a
//! candidate run to its baseline without trusting labels.
//!
//! Writing is opt-in — a `ledger()` argument or the `APF_LEDGER_FILE`
//! environment variable, resolved by [`ledger_path`] — so `cargo test` never
//! touches the filesystem behind your back.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::metrics::ExperimentLog;

/// FNV-1a 64-bit over `bytes` — the ledger's configuration fingerprint.
/// Stable across platforms and re-runs; not cryptographic, and not meant
/// to be (it only pairs candidate records with baselines).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. Recorded
/// into [`LedgerRecord::metrics`] as `peak_resident_bytes` so
/// `ledger-report check` can flag memory regressions. Note the value is
/// monotonic over a process lifetime — comparable across runs, not across
/// phases within one process.
pub fn peak_resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The ledger a run appends to: `explicit` (a builder, `ledger()` or
/// `--ledger` argument) when given, else `APF_LEDGER_FILE`, else none. The
/// one place the variable is read.
pub fn ledger_path(explicit: Option<PathBuf>) -> Option<PathBuf> {
    explicit.or_else(|| {
        std::env::var("APF_LEDGER_FILE")
            .ok()
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
    })
}

/// One ledgered run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerRecord {
    /// Experiment label, e.g. `"lenet5/apf"`.
    pub name: String,
    /// Model name (`"kernels"` for the kernel micro-bench records).
    pub model: String,
    /// Strategy label (`"bench"` for micro-bench records).
    pub strategy: String,
    /// Hex FNV-1a digest of the run's canonical [`crate::RunSpec`] string;
    /// empty for a run with no spec, which pairs with no other record.
    pub config_digest: String,
    /// Rounds completed.
    pub rounds: u64,
    /// Final (best-ever) test accuracy, 0 when never evaluated.
    pub final_accuracy: f64,
    /// Total bytes moved (both directions, all clients).
    pub total_bytes: u64,
    /// Real wall-clock time of the run, seconds.
    pub wall_secs: f64,
    /// Simulated federated time (compute + link model), seconds.
    pub sim_secs: f64,
    /// `apf-par` pool threads the run used.
    pub threads: u64,
    /// Host's available parallelism when the record was written.
    pub host_parallelism: u64,
    /// Named scalar summary metrics (micro-bench throughputs etc.).
    pub metrics: BTreeMap<String, f64>,
    /// Named per-round series (loss, frozen ratio, cumulative bytes, ...).
    pub series: BTreeMap<String, Vec<f64>>,
}

impl LedgerRecord {
    /// Builds a record from a finished run's [`ExperimentLog`]; the digest
    /// is that of the log's spec.
    pub fn from_log(
        log: &ExperimentLog,
        model: &str,
        strategy: &str,
        wall_secs: f64,
    ) -> LedgerRecord {
        let mut series = BTreeMap::new();
        let col = |f: &dyn Fn(&crate::RoundRecord) -> f64| -> Vec<f64> {
            log.records.iter().map(f).collect()
        };
        series.insert("loss".to_owned(), col(&|r| f64::from(r.loss)));
        series.insert(
            "frozen_ratio".to_owned(),
            col(&|r| f64::from(r.frozen_ratio)),
        );
        series.insert("cum_bytes".to_owned(), col(&|r| r.cum_bytes as f64));
        series.insert(
            "accuracy".to_owned(),
            col(&|r| r.accuracy.map_or(f64::NAN, f64::from)),
        );
        LedgerRecord {
            name: log.name.clone(),
            model: model.to_owned(),
            strategy: strategy.to_owned(),
            config_digest: log
                .spec
                .as_deref()
                .map_or(String::new(), |s| format!("{:016x}", fnv1a64(s.as_bytes()))),
            rounds: log.records.len() as u64,
            final_accuracy: f64::from(log.best_accuracy()),
            total_bytes: log.total_bytes(),
            wall_secs,
            sim_secs: log.records.last().map_or(0.0, |r| r.cum_secs),
            threads: apf_par::threads() as u64,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            metrics: BTreeMap::new(),
            series,
        }
    }

    /// The record as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("name".to_owned(), Value::Str(self.name.clone()));
        m.insert("model".to_owned(), Value::Str(self.model.clone()));
        m.insert("strategy".to_owned(), Value::Str(self.strategy.clone()));
        m.insert(
            "config_digest".to_owned(),
            Value::Str(self.config_digest.clone()),
        );
        m.insert("rounds".to_owned(), Value::from_u64(self.rounds));
        m.insert(
            "final_accuracy".to_owned(),
            Value::from_f64(self.final_accuracy),
        );
        m.insert("total_bytes".to_owned(), Value::from_u64(self.total_bytes));
        m.insert("wall_secs".to_owned(), Value::from_f64(self.wall_secs));
        m.insert("sim_secs".to_owned(), Value::from_f64(self.sim_secs));
        m.insert("threads".to_owned(), Value::from_u64(self.threads));
        m.insert(
            "host_parallelism".to_owned(),
            Value::from_u64(self.host_parallelism),
        );
        m.insert(
            "metrics".to_owned(),
            Value::Obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from_f64(*v)))
                    .collect(),
            ),
        );
        m.insert(
            "series".to_owned(),
            Value::Obj(
                self.series
                    .iter()
                    .map(|(k, pts)| {
                        (
                            k.clone(),
                            Value::Arr(pts.iter().map(|&x| Value::from_f64(x)).collect()),
                        )
                    })
                    .collect(),
            ),
        );
        Value::Obj(m)
    }

    /// Parses a record back from a JSON value (tolerant: missing numerics
    /// default to zero, non-numeric series points to NaN-as-null → skipped).
    pub fn from_value(v: &Value) -> Option<LedgerRecord> {
        if !matches!(v, Value::Obj(_)) {
            return None;
        }
        let str_of = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
        let f64_of = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let u64_of = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let mut metrics = BTreeMap::new();
        if let Some(Value::Obj(m)) = v.get("metrics") {
            for (k, val) in m {
                metrics.insert(k.clone(), val.as_f64().unwrap_or(0.0));
            }
        }
        let mut series = BTreeMap::new();
        if let Some(Value::Obj(m)) = v.get("series") {
            for (k, val) in m {
                let pts = val
                    .as_arr()
                    .map(|a| {
                        a.iter()
                            .map(|p| p.as_f64().unwrap_or(f64::NAN))
                            .collect::<Vec<f64>>()
                    })
                    .unwrap_or_default();
                series.insert(k.clone(), pts);
            }
        }
        Some(LedgerRecord {
            name: str_of("name"),
            model: str_of("model"),
            strategy: str_of("strategy"),
            config_digest: str_of("config_digest"),
            rounds: u64_of("rounds"),
            final_accuracy: f64_of("final_accuracy"),
            total_bytes: u64_of("total_bytes"),
            wall_secs: f64_of("wall_secs"),
            sim_secs: f64_of("sim_secs"),
            threads: u64_of("threads"),
            host_parallelism: u64_of("host_parallelism"),
            metrics,
            series,
        })
    }

    /// Appends the record as one compact-JSON line to the ledger at `path`,
    /// creating the file and its parent directory as needed.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_value().compact())
    }
}

/// Loads every parseable record from a JSONL ledger, oldest first. Blank
/// lines are skipped; a malformed line is an error (a ledger is append-only
/// and machine-written — corruption should be loud).
///
/// # Errors
/// Returns I/O errors and parse failures with line numbers.
pub fn load_ledger(path: impl AsRef<Path>) -> Result<Vec<LedgerRecord>, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let record = LedgerRecord::from_value(&value)
            .ok_or_else(|| format!("line {}: not a ledger record", i + 1))?;
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LedgerRecord {
        let mut r = LedgerRecord {
            name: "mlp/apf".to_owned(),
            model: "mlp".to_owned(),
            strategy: "apf".to_owned(),
            config_digest: format!("{:016x}", fnv1a64(b"cfg")),
            rounds: 3,
            final_accuracy: 0.75,
            total_bytes: 123_456,
            wall_secs: 1.5,
            sim_secs: 9.25,
            threads: 2,
            host_parallelism: 8,
            ..LedgerRecord::default()
        };
        r.metrics.insert("matmul_gflops".to_owned(), 5.5);
        r.series.insert("loss".to_owned(), vec![2.0, 1.0, 0.5]);
        r
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_roundtrips_through_jsonl() {
        let r = sample();
        let line = r.to_value().compact();
        assert!(!line.contains('\n'));
        let back = LedgerRecord::from_value(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn append_and_load() {
        let path = std::env::temp_dir().join("apf_ledger_test_append.jsonl");
        let _ = std::fs::remove_file(&path);
        let r = sample();
        r.append_to(&path).unwrap();
        r.append_to(&path).unwrap();
        let loaded = load_ledger(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], r);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_corruption() {
        let path = std::env::temp_dir().join("apf_ledger_test_corrupt.jsonl");
        std::fs::write(&path, "{\"name\":\"ok\"}\nnot json\n").unwrap();
        let err = load_ledger(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nan_series_points_survive_as_null() {
        let mut r = sample();
        r.series.insert("accuracy".to_owned(), vec![f64::NAN, 0.5]);
        let line = r.to_value().compact();
        assert!(!line.contains("NaN"), "{line}");
        let back = LedgerRecord::from_value(&json::parse(&line).unwrap()).unwrap();
        let acc = &back.series["accuracy"];
        assert!(acc[0].is_nan());
        assert_eq!(acc[1], 0.5);
    }
}
