//! `ledger-report`: list, diff, and regression-check the run ledger.
//!
//! ```text
//! ledger-report list [--ledger PATH] [--json]
//! ledger-report diff <BASE_IDX> <CAND_IDX> [--ledger PATH]
//! ledger-report check [--ledger PATH] [--json]   # or: ledger-report --check
//! ```
//!
//! `check` takes the newest record as the candidate, finds its baseline
//! (the latest earlier record with the same config digest), and exits 1
//! when the candidate regresses beyond tolerance (accuracy −0.5 pt, bytes
//! +5%, wall time +20%, peak resident memory +25%; wall time and peak
//! memory are warn-only across differing hosts, while the deterministic
//! `steady_resident_bytes` accounting is enforced everywhere).
//! Exit codes: 0 = clean, 1 = regression, 2 = usage or I/O error.
//!
//! `--json` switches `list` and `check` to one machine-readable JSON
//! document on stdout (same exit codes), for CI scripts that want findings
//! without scraping tables.
//!
//! The default ledger path is `results/ledger.jsonl`.

use std::process::ExitCode;

use apf_bench::regress::{
    any_failure, check_records, find_baseline, Finding, Severity, Tolerances,
};
use apf_fedsim::json::Value;
use apf_fedsim::{load_ledger, LedgerRecord};

const DEFAULT_LEDGER: &str = "results/ledger.jsonl";

fn usage() -> ExitCode {
    println!(
        "usage:\n  ledger-report list [--ledger PATH] [--json]\n  \
         ledger-report diff <BASE_IDX> <CAND_IDX> [--ledger PATH]\n  \
         ledger-report check [--ledger PATH] [--json]"
    );
    ExitCode::from(2)
}

/// Builds a `Value::Obj` from string keys (the in-tree JSON object is a
/// `BTreeMap`, so keys render sorted).
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn record_json(r: &LedgerRecord) -> Value {
    obj(vec![
        ("name", Value::Str(r.name.clone())),
        ("model", Value::Str(r.model.clone())),
        ("strategy", Value::Str(r.strategy.clone())),
        ("config_digest", Value::Str(r.config_digest.clone())),
        ("rounds", Value::from_u64(r.rounds)),
        ("final_accuracy", Value::from_f64(r.final_accuracy)),
        ("total_bytes", Value::from_u64(r.total_bytes)),
        ("wall_secs", Value::from_f64(r.wall_secs)),
        ("sim_secs", Value::from_f64(r.sim_secs)),
        ("threads", Value::from_u64(r.threads)),
        ("host_parallelism", Value::from_u64(r.host_parallelism)),
        (
            "metrics",
            Value::Obj(
                r.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from_f64(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn findings_json(findings: &[Finding]) -> Value {
    Value::Arr(
        findings
            .iter()
            .map(|f| {
                obj(vec![
                    ("field", Value::Str(f.field.clone())),
                    ("baseline", Value::from_f64(f.baseline)),
                    ("candidate", Value::from_f64(f.candidate)),
                    ("limit", Value::Str(f.limit.clone())),
                    (
                        "severity",
                        Value::Str(
                            match f.severity {
                                Severity::Fail => "fail",
                                Severity::Warn => "warn",
                            }
                            .to_owned(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The overall verdict string matching the process exit code.
fn status_of(findings: &[Finding]) -> &'static str {
    if findings.is_empty() {
        "ok"
    } else if any_failure(findings) {
        "regression"
    } else {
        "warn"
    }
}

/// Extracts `--ledger PATH` from `args` (mutating them), defaulting to
/// [`DEFAULT_LEDGER`].
fn ledger_path(args: &mut Vec<String>) -> String {
    if let Some(i) = args.iter().position(|a| a == "--ledger") {
        if i + 1 < args.len() {
            let path = args.remove(i + 1);
            args.remove(i);
            return path;
        }
    }
    DEFAULT_LEDGER.to_owned()
}

fn load_or_exit(path: &str) -> Result<Vec<LedgerRecord>, ExitCode> {
    load_ledger(path).map_err(|e| {
        println!("ledger-report: cannot load {path}: {e}");
        ExitCode::from(2)
    })
}

fn list(records: &[LedgerRecord], json: bool) {
    if json {
        println!(
            "{}",
            obj(vec![(
                "records",
                Value::Arr(records.iter().map(record_json).collect())
            )])
            .pretty()
        );
        return;
    }
    println!(
        "{:>3}  {:<24} {:<10} {:<16} {:>6} {:>9} {:>12} {:>9} {:>4}",
        "#", "name", "strategy", "digest", "rounds", "accuracy", "bytes", "wall_s", "host"
    );
    for (i, r) in records.iter().enumerate() {
        println!(
            "{i:>3}  {:<24} {:<10} {:<16} {:>6} {:>9.4} {:>12} {:>9.2} {:>4}",
            r.name,
            r.strategy,
            r.config_digest,
            r.rounds,
            r.final_accuracy,
            r.total_bytes,
            r.wall_secs,
            r.host_parallelism
        );
    }
}

fn diff(base: &LedgerRecord, cand: &LedgerRecord) {
    println!(
        "baseline:  {} ({}, digest {})",
        base.name, base.strategy, base.config_digest
    );
    println!(
        "candidate: {} ({}, digest {})",
        cand.name, cand.strategy, cand.config_digest
    );
    if base.config_digest != cand.config_digest {
        println!("note: config digests differ — these runs are not like-for-like");
    }
    let rel = |b: f64, c: f64| {
        if b == 0.0 {
            "    n/a".to_owned()
        } else {
            format!("{:+7.2}%", (c - b) / b * 100.0)
        }
    };
    let rows = [
        ("final_accuracy", base.final_accuracy, cand.final_accuracy),
        (
            "total_bytes",
            base.total_bytes as f64,
            cand.total_bytes as f64,
        ),
        ("wall_secs", base.wall_secs, cand.wall_secs),
        ("sim_secs", base.sim_secs, cand.sim_secs),
        ("rounds", base.rounds as f64, cand.rounds as f64),
    ];
    println!(
        "{:<16} {:>14} {:>14} {:>9}",
        "field", "baseline", "candidate", "delta"
    );
    for (name, b, c) in rows {
        println!("{name:<16} {b:>14.4} {c:>14.4} {}", rel(b, c));
    }
    for (k, c) in &cand.metrics {
        if let Some(b) = base.metrics.get(k) {
            println!("{k:<16} {b:>14.4} {c:>14.4} {}", rel(*b, *c));
        }
    }
}

fn check(records: &[LedgerRecord], json: bool) -> ExitCode {
    if records.is_empty() {
        if json {
            println!(
                "{}",
                obj(vec![("status", Value::Str("ok".to_owned()))]).pretty()
            );
        } else {
            println!("ledger is empty; nothing to check");
        }
        return ExitCode::SUCCESS;
    }
    let cand_idx = records.len() - 1;
    let cand = &records[cand_idx];
    let Some(base_idx) = find_baseline(records, cand_idx) else {
        if json {
            println!(
                "{}",
                obj(vec![
                    ("status", Value::Str("ok".to_owned())),
                    ("candidate", record_json(cand)),
                    ("baseline", Value::Null),
                ])
                .pretty()
            );
        } else {
            println!(
                "no baseline with digest {} before record {cand_idx}; treating as first run (ok)",
                cand.config_digest
            );
        }
        return ExitCode::SUCCESS;
    };
    let base = &records[base_idx];
    let findings = check_records(base, cand, &Tolerances::default());
    if json {
        println!(
            "{}",
            obj(vec![
                ("status", Value::Str(status_of(&findings).to_owned())),
                ("candidate", record_json(cand)),
                ("baseline", record_json(base)),
                ("findings", findings_json(&findings)),
            ])
            .pretty()
        );
        return if any_failure(&findings) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    println!(
        "checking record {cand_idx} ({}) against baseline {base_idx} (digest {})",
        cand.name, cand.config_digest
    );
    if findings.is_empty() {
        println!("ok: within tolerance (accuracy -0.5pt, bytes +5%, wall +20%, peak memory +25%)");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    if any_failure(&findings) {
        println!("REGRESSION detected");
        ExitCode::FAILURE
    } else {
        println!("warnings only (timing not comparable on this host); ok");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let path = ledger_path(&mut args);
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.remove(i))
        .is_some();
    match args.first().map(String::as_str) {
        Some("list") | None => {
            let records = match load_or_exit(&path) {
                Ok(r) => r,
                Err(code) => return code,
            };
            list(&records, json);
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let (Some(b), Some(c)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (Ok(bi), Ok(ci)) = (b.parse::<usize>(), c.parse::<usize>()) else {
                return usage();
            };
            let records = match load_or_exit(&path) {
                Ok(r) => r,
                Err(code) => return code,
            };
            let (Some(base), Some(cand)) = (records.get(bi), records.get(ci)) else {
                println!(
                    "ledger-report: indices {bi}/{ci} out of range (ledger has {} records)",
                    records.len()
                );
                return ExitCode::from(2);
            };
            diff(base, cand);
            ExitCode::SUCCESS
        }
        Some("check") | Some("--check") => {
            let records = match load_or_exit(&path) {
                Ok(r) => r,
                Err(code) => return code,
            };
            check(&records, json)
        }
        _ => usage(),
    }
}
