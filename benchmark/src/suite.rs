//! `suite` and `aa`: drive single runs in fresh processes, print and store
//! what they measured, and compare two sets of runs of the same code.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use apf_fedsim::json::{self, Value};

use crate::metrics::{self, Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use crate::Args;

/// What one child run reported.
struct RunResult {
    /// The `workload metric value unit` lines, verbatim.
    lines: String,
    /// `metric -> (value, unit)`, operation counts included.
    values: BTreeMap<String, (f64, String)>,
    correct: bool,
}

/// Runs one workload once in a fresh process of this executable.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (lines, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e:?}"))?;
    let mut values = BTreeMap::new();
    for line in lines.lines() {
        if let [w, name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if w == workload {
                let v = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line:?}"))?;
                values.insert(name.to_owned(), (v, unit.to_owned()));
            }
        }
    }
    Ok(RunResult {
        lines: format!("{lines}\n"),
        values,
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true)
            && doc.get("failed").and_then(Value::as_u64) == Some(0),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_facts() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Obj(BTreeMap::from([
        ("nproc".to_owned(), Value::from_u64(nproc as u64)),
        ("cpu_model".to_owned(), Value::Str(cpu)),
        (
            "rustc".to_owned(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".to_owned(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]))
}

fn metrics_value(values: &BTreeMap<String, (f64, String)>) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(name, (v, unit))| {
                let entry = BTreeMap::from([
                    ("value".to_owned(), Value::from_f64(*v)),
                    ("unit".to_owned(), Value::Str(unit.clone())),
                ]);
                (name.clone(), Value::Obj(entry))
            })
            .collect(),
    )
}

/// Runs the four workloads, each in its own process, untraced then traced;
/// prints every metric line; writes `results.json`.
///
/// # Errors
/// Fails when a run fails, reports an incorrect output or a failed
/// operation.
pub fn suite(args: &Args) -> Result<(), String> {
    let mut workloads = BTreeMap::new();
    let mut incorrect = Vec::new();
    for w in &WORKLOADS {
        let mut entry = BTreeMap::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let r = child(args, w.name, args.seed, trace)?;
            print!("{}", r.lines);
            if !r.correct {
                incorrect.push(format!("{} ({key})", w.name));
            }
            entry.insert(key.to_owned(), metrics_value(&r.values));
        }
        workloads.insert(w.name.to_owned(), Value::Obj(entry));
    }
    let doc = Value::Obj(BTreeMap::from([
        ("host".to_owned(), host_facts()),
        ("seed".to_owned(), Value::from_u64(args.seed)),
        ("seconds".to_owned(), Value::from_f64(args.seconds)),
        ("smoke".to_owned(), Value::Bool(args.smoke)),
        ("workloads".to_owned(), Value::Obj(workloads)),
    ]));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(args.out_dir.join("results.json"), doc.pretty() + "\n"))
        .map_err(|e| format!("writing results.json: {e}"))?;
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed in: {}", incorrect.join(", ")))
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs()
}

/// Two sets of untraced runs of the same code, workloads interleaved within
/// each pass (W1 W2 W3 W4, W1 W2 W3 W4, ...), `--seeds` seeds per set
/// starting at `--seed`. For every end-to-end metric and workload: the two
/// medians, how much worse the second is, and — with four seeds or more —
/// the quartile spread across seeds, each against the metric's bound. This
/// is the procedure the benchmark contract accepts a benchmark by.
///
/// # Errors
/// Fails when a run fails or any metric leaves its bound.
pub fn aa(args: &Args) -> Result<(), String> {
    // values[set][workload][metric] over seeds
    let mut sets: [BTreeMap<&str, BTreeMap<&str, Vec<f64>>>; 2] = Default::default();
    for set in &mut sets {
        for seed in args.seed..args.seed + args.seeds.max(1) {
            for w in &WORKLOADS {
                let r = child(args, w.name, seed, false)?;
                if !r.correct {
                    return Err(format!("{} seed {seed}: output checks failed", w.name));
                }
                for m in END_TO_END {
                    let v = r
                        .values
                        .get(m.name)
                        .ok_or_else(|| format!("{} missing", m.name))?;
                    set.entry(w.name)
                        .or_default()
                        .entry(m.name)
                        .or_default()
                        .push(v.0);
                }
            }
        }
    }
    let with_spread = args.seeds >= 4;
    let mut md = String::from(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut out_of_bound = 0;
    let mut worst_round_ms: f64 = 0.0;
    for w in &WORKLOADS {
        for m in END_TO_END {
            let (a, b) = (&sets[0][w.name][m.name], &sets[1][w.name][m.name]);
            let (ma, mb) = (median(a), median(b));
            let worse = worsening(m.better, ma, mb);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let spreads = with_spread.then(|| (quartile_spread(a), quartile_spread(b)));
            // The contract exempts set-up time from the spread rule only.
            let spread_ok =
                m.name == "setup_s" || spreads.is_none_or(|(sa, sb)| sa <= bound && sb <= bound);
            let ok = worse <= bound && spread_ok;
            out_of_bound += usize::from(!ok);
            if m.name == "round_ms_p50" {
                worst_round_ms = worst_round_ms.max(worse.abs());
            }
            let pct = |x: f64| format!("{:+.2}%", 100.0 * x);
            let (sa, sb) = spreads.map_or(("-".to_owned(), "-".to_owned()), |(sa, sb)| {
                (pct(sa), pct(sb))
            });
            md.push_str(&format!(
                "| {} | {} | {ma} | {mb} | {} | {sa} | {sb} | {} | {} |\n",
                w.name,
                m.name,
                pct(worse),
                pct(bound),
                if ok { "ok" } else { "OUT OF BOUND" }
            ));
        }
    }
    md.push_str(&format!(
        "\n`round_ms_p50`: largest A/A difference {:.2}%; the rule max(5%, 2 x A/A difference) \
         gives a bound of {:.1}% (BENCHMARK.json holds {:.0}%).\n",
        100.0 * worst_round_ms,
        100.0 * (2.0 * worst_round_ms).max(0.05),
        100.0
            * metrics::find("round_ms_p50")
                .and_then(|m| m.bound)
                .unwrap_or(0.0),
    ));
    print!("{md}");
    if let Some(path) = &args.aa_md {
        let head = format!(
            "# A/A: two sets of runs of the same code\n\n\
             `benchmark/aa.sh --seeds {} --seed {} --seconds {}`, workloads interleaved \
             within each pass. Spreads are quartile distances over the seeds of a set, as a \
             share of the median.\n\n",
            args.seeds, args.seed, args.seconds
        );
        std::fs::write(path, head + &md).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if out_of_bound == 0 {
        Ok(())
    } else {
        Err(format!("{out_of_bound} metric/workload pairs out of bound"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 80.0, 76.0) - 0.05).abs() < 1e-12);
        assert!(worsening(Better::Higher, 80.0, 84.0) < 0.0);
    }
}
