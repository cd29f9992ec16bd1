//! Reporting helpers: aligned console tables and CSV emission under
//! `results/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use apf_fedsim::ExperimentLog;
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

/// Loads a previously saved log of `rounds` rounds, if present.
///
/// A saved log of any other length was made at another scale, so it is not
/// returned and the caller reruns. This is a stopgap: the round count is
/// the only part of a run's configuration the saved JSON carries. Keying
/// each file by its run's canonical spec string replaces it.
pub fn load_log(stem: &str, rounds: usize) -> Option<ExperimentLog> {
    let path = results_dir().join(format!("{stem}.json"));
    let data = fs::read_to_string(path).ok()?;
    let log = ExperimentLog::from_json(&data).ok()?;
    (log.records.len() == rounds).then_some(log)
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

    /// A one-record-per-round log of `rounds` rounds.
    fn log_of(name: &str, rounds: u64) -> ExperimentLog {
        let mut log = ExperimentLog::new(name);
        for round in 0..rounds {
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
        let log = log_of("roundtrip-test", 1);
        with_saved(&log, "roundtrip-test", || {
            let back = load_log("roundtrip-test", 1).expect("log should load");
            assert_eq!(back, log);
        });
    }

    #[test]
    fn load_log_reruns_a_log_of_another_round_count() {
        // A quick-scale run saved under the stem a standard-scale table
        // asks for must not be printed as the standard run.
        let quick = log_of("scale-test", 4);
        with_saved(&quick, "scale-test", || {
            assert!(load_log("scale-test", 4).is_some());
            assert!(load_log("scale-test", 25).is_none());
            assert!(load_log("scale-test", 3).is_none());
        });
    }
}
