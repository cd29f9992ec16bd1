//! Reporting helpers: aligned console tables and CSV emission under
//! `results/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use apf_fedsim::{ExperimentLog, RunSpec};
use apf_trace::{event, Level};

/// Directory all experiment artifacts are written to: `results/` under the
/// working directory.
fn results_dir() -> PathBuf {
    let p = PathBuf::from("results");
    let _ = fs::create_dir_all(&p);
    p
}

/// Renders an aligned table as a string (one trailing newline).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&fmt_row(
        &headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let _ = std::io::stdout().write_all(render_table(title, headers, rows).as_bytes());
}

/// Writes a CSV file under `results/`.
///
/// # Panics
/// Panics on I/O errors (the harness treats them as fatal).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("cannot create results file");
    writeln!(f, "{}", headers.join(",")).expect("write failed");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write failed");
    }
    announce_written(&path.display().to_string(), rows.len() as u64);
    path
}

/// Saves an [`ExperimentLog`] as both CSV and JSON under `results/`.
pub fn save_log(log: &ExperimentLog, stem: &str) {
    let dir = results_dir();
    log.write_csv(dir.join(format!("{stem}.csv")))
        .expect("cannot write log csv");
    fs::write(dir.join(format!("{stem}.json")), log.to_json()).expect("cannot write log json");
    announce_written(
        &format!("{}/{stem}.{{csv,json}}", dir.display()),
        log.records.len() as u64,
    );
}

/// Reports an artifact write on stdout and as a structured trace event.
fn announce_written(path: &str, rows: u64) {
    let _ = writeln!(std::io::stdout(), "wrote {path}");
    event!(Level::Info, target: "bench.report", "wrote", path = path, rows = rows);
}

/// Loads the log saved as `stem` if it is a run of `spec`: its recorded
/// canonical spec string equals `spec`'s exactly. A log of any other run
/// (another scale, α, learning rate, …) is not returned, and the caller
/// reruns.
pub fn load_log(stem: &str, spec: &RunSpec) -> Option<ExperimentLog> {
    let path = results_dir().join(format!("{stem}.json"));
    let data = fs::read_to_string(path).ok()?;
    let log = ExperimentLog::from_json(&data).ok()?;
    (log.spec.as_deref() == Some(spec.canonical().as_str())).then_some(log)
}

/// Formats a byte count as MB with two decimals.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_mb_format() {
        assert_eq!(fmt_mb(2_500_000), "2.50 MB");
        assert_eq!(fmt_mb(0), "0.00 MB");
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "t",
            &["col", "x"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(s.contains("== t =="));
        assert!(s.contains("col     x"), "{s}");
        assert!(s.contains("longer  2"), "{s}");
        assert!(s.ends_with('\n'));
    }

    /// Serializes the tests that create and remove `results/` (under the
    /// test's working directory: this package's root, not the repository's).
    static RESULTS_DIR: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A one-record-per-round log of a run of `spec`.
    fn log_of(name: &str, spec: &RunSpec) -> ExperimentLog {
        let mut log = ExperimentLog::new(name);
        log.spec = Some(spec.canonical());
        for round in 0..spec.rounds as u64 {
            log.push(apf_fedsim::RoundRecord {
                round,
                loss: 1.0,
                accuracy: Some(0.5),
                best_accuracy: 0.5,
                frozen_ratio: 0.0,
                bytes_up: 1,
                bytes_down: 1,
                cum_bytes: 2,
                compute_secs: 0.0,
                comm_secs: 0.0,
                cum_secs: 0.0,
            });
        }
        log
    }

    /// Saves `log` as `stem`, runs `check`, then removes the files again.
    fn with_saved(log: &ExperimentLog, stem: &str, check: impl FnOnce()) {
        let _dir = RESULTS_DIR.lock().unwrap_or_else(|e| e.into_inner());
        save_log(log, stem);
        check();
        for ext in ["csv", "json"] {
            fs::remove_file(results_dir().join(format!("{stem}.{ext}"))).unwrap();
        }
        let _ = fs::remove_dir(results_dir());
    }

    #[test]
    fn save_and_load_log_roundtrip() {
        let spec = RunSpec::golden();
        let log = log_of("roundtrip-test", &spec);
        with_saved(&log, "roundtrip-test", || {
            let back = load_log("roundtrip-test", &spec).expect("log should load");
            assert_eq!(back, log);
        });
    }

    #[test]
    fn load_log_reruns_a_log_of_another_spec() {
        // A run saved under the stem a table asks for is printed only if it
        // is the run the table describes: same rounds (scale), same lr, same
        // APF settings, ... — any difference in the spec string reruns.
        let quick = RunSpec::golden();
        let saved = log_of("spec-test", &quick);
        with_saved(&saved, "spec-test", || {
            assert!(load_log("spec-test", &quick).is_some());
            for other in [
                RunSpec {
                    rounds: 25,
                    ..RunSpec::golden()
                },
                RunSpec {
                    lr: 0.01,
                    ..RunSpec::golden()
                },
                RunSpec {
                    strategy: apf_fedsim::SpecStrategy::Fedavg,
                    ..RunSpec::golden()
                },
            ] {
                assert!(load_log("spec-test", &other).is_none(), "{other:?}");
            }
        });
        // A log that records no spec is never reused.
        let mut unspecified = saved.clone();
        unspecified.spec = None;
        with_saved(&unspecified, "spec-test", || {
            assert!(load_log("spec-test", &quick).is_none());
        });
    }
}
