//! `trace-report`: offline analyzer for `apf-trace` JSONL files.
//!
//! Single-file mode (the original views):
//!
//! ```text
//! APF_TRACE=debug APF_TRACE_FILE=trace.jsonl cargo run --bin experiments -- end2end
//! cargo run --bin trace-report -- trace.jsonl
//! ```
//!
//! Prints four views of a run:
//!
//! 1. **Top spans by self-time** — wall time spent in each `(target, name)`
//!    span kind, excluding time attributed to child spans.
//! 2. **Pool utilization** — span self-time per emitting thread (the
//!    `thread` ordinal on each record), showing how evenly work spread over
//!    the `apf-par` workers.
//! 3. **Per-layer freeze heatmap** — frozen fraction of every model layer
//!    over rounds, from the manager's `layer_freeze` events.
//! 4. **Bytes by phase** — uplink/downlink volume per transfer phase, from
//!    `fedsim.comm` events.
//!
//! Multi-file (distributed-run) modes, over traces produced with
//! `apf-server --trace-file` / `apf-client --trace-file`:
//!
//! ```text
//! trace-report timeline server.jsonl client*.jsonl [--min-coverage PCT]
//! trace-report reconcile server.jsonl client*.jsonl --ledger runs.jsonl
//! ```
//!
//! `timeline` merges the traces (clock-aligning every client to the server
//! via the Welcome handshake anchors), checks the cross-process span tree
//! for completeness, and attributes each client round's wall time to
//! compute / transfer / server-wait. It exits non-zero if the span tree is
//! incomplete or a round attributes more than its wall time, and, with
//! `--min-coverage`, if the median round-slice's attributed share falls
//! below the bound (the worst slice is printed, not gated: one descheduled
//! thread stretches a single slice).
//!
//! `reconcile` audits the byte flow: per-client traced transfers must sum
//! to the server's per-round accounting, the cumulative trace total must
//! match every `round_bytes` checkpoint, and the matching run-ledger record
//! (found by config digest) must agree — any mismatch exits non-zero.
//!
//! `flame` merges `apf-prof` folded profiles (written with `--prof-file`
//! or `APF_PROF`) from the processes of one run:
//!
//! ```text
//! trace-report flame server.folded client*.folded [--top N] [--out PATH]
//!              [--assert-contains FRAME]... [--json]
//! ```
//!
//! All inputs must carry the same run id; each process's stacks are
//! prefixed with its role (`server`, `client:N`) so the merged flamegraph
//! splits by process first. The merged folded document goes to stdout
//! (pipe it straight into `flamegraph.pl`) or `--out`; a top-N self-time
//! table goes to stderr. `--assert-contains FRAME` exits non-zero unless
//! some stack contains that frame — the verify harness uses it to prove a
//! profiled round actually sampled `local_train` and `aggregate`.
//!
//! Both the single-file report and `flame` take `--json` to emit the same
//! data as one machine-readable JSON document instead of tables.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use apf_bench::prof_merge::{self, ProfFile};
use apf_bench::report::{fmt_mb, render_table};
use apf_bench::trace_merge::{median_coverage, MergedTrace};
use apf_bench::trace_model::{group_processes, EventRec, SpanRec, TraceFile};
use apf_fedsim::json::Value;
use apf_fedsim::load_ledger;

/// Accumulated statistics for one `(target, name)` span kind.
#[derive(Default)]
struct SpanStat {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// Shade character for a ratio in `[0, 1]`.
fn shade(ratio: f64) -> char {
    const RAMP: [char; 10] = ['.', '1', '2', '3', '4', '5', '6', '7', '8', '#'];
    if ratio <= 0.0 {
        return RAMP[0];
    }
    let idx = (ratio * (RAMP.len() - 1) as f64).ceil() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} us")
    }
}

struct Report {
    spans: Vec<SpanRec>,
    /// `(layer name, round) -> frozen_ratio`, plus layer order of first sight.
    freeze: BTreeMap<(String, u64), f64>,
    layer_order: Vec<String>,
    /// `phase -> (bytes_up, bytes_down, transfers)`.
    phases: BTreeMap<String, (u64, u64, u64)>,
    lines: u64,
    skipped: u64,
}

impl Report {
    fn from_trace(file: TraceFile) -> Report {
        let mut report = Report {
            spans: file.spans,
            freeze: BTreeMap::new(),
            layer_order: Vec::new(),
            phases: BTreeMap::new(),
            lines: file.lines,
            skipped: file.skipped,
        };
        for e in &file.events {
            report.ingest_event(e);
        }
        report
    }

    fn ingest_event(&mut self, e: &EventRec) {
        if e.target == "apf.manager" && e.msg == "layer_freeze" {
            let (Some(layer), Some(round), Some(ratio)) = (
                e.str_field("layer"),
                e.u64_field("round"),
                e.f64_field("frozen_ratio"),
            ) else {
                return;
            };
            if !self.layer_order.iter().any(|l| l == layer) {
                self.layer_order.push(layer.to_owned());
            }
            self.freeze.insert((layer.to_owned(), round), ratio);
        } else if e.target == "fedsim.comm" && e.msg == "transfer" {
            let phase = e.str_field("phase").unwrap_or("unknown").to_owned();
            let entry = self.phases.entry(phase).or_insert((0, 0, 0));
            entry.0 += e.u64_field("bytes_up").unwrap_or(0);
            entry.1 += e.u64_field("bytes_down").unwrap_or(0);
            entry.2 += 1;
        }
    }

    /// Duration attributed to each span's direct children (`id -> us`).
    fn child_times(&self) -> BTreeMap<u64, u64> {
        let ids: BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 && ids.contains(&s.parent) {
                *child_us.entry(s.parent).or_insert(0) += s.dur_us;
            }
        }
        child_us
    }

    /// Self-time per `(target, name)`: each span's duration minus the summed
    /// durations of its direct children.
    fn span_stats(&self) -> Vec<(String, SpanStat)> {
        let child_us = self.child_times();
        let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
        for s in &self.spans {
            let key = format!("{}::{}", s.target, s.name);
            let children = child_us.get(&s.id).copied().unwrap_or(0);
            let stat = stats.entry(key).or_default();
            stat.count += 1;
            stat.total_us += s.dur_us;
            stat.self_us += s.dur_us.saturating_sub(children.min(s.dur_us));
        }
        let mut out: Vec<(String, SpanStat)> = stats.into_iter().collect();
        out.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_us));
        out
    }

    fn print_spans(&self) {
        let stats = self.span_stats();
        if stats.is_empty() {
            println!("\n== top spans by self-time ==\n(no span records; run with APF_TRACE=info or lower)");
            return;
        }
        let rows: Vec<Vec<String>> = stats
            .iter()
            .take(20)
            .map(|(key, s)| {
                vec![
                    key.clone(),
                    s.count.to_string(),
                    fmt_us(s.self_us),
                    fmt_us(s.total_us),
                    fmt_us(s.total_us / s.count.max(1)),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                "top spans by self-time",
                &["span", "count", "self", "total", "mean"],
                &rows,
            )
        );
    }

    /// Span self-time and count per emitting thread ordinal.
    fn thread_stats(&self) -> Vec<(u64, u64, u64)> {
        let child_us = self.child_times();
        let mut per: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let children = child_us.get(&s.id).copied().unwrap_or(0);
            let e = per.entry(s.thread).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us.saturating_sub(children.min(s.dur_us));
        }
        per.into_iter().map(|(t, (n, us))| (t, n, us)).collect()
    }

    fn print_threads(&self) {
        let stats = self.thread_stats();
        // A single thread (or a pre-`thread`-field trace, all ordinal 0)
        // carries no utilization signal worth a table.
        if stats.len() <= 1 {
            return;
        }
        let busiest = stats.iter().map(|&(_, _, us)| us).max().unwrap_or(0);
        let rows: Vec<Vec<String>> = stats
            .iter()
            .map(|&(t, n, us)| {
                let share = if busiest > 0 {
                    format!("{:.0}%", 100.0 * us as f64 / busiest as f64)
                } else {
                    "-".to_owned()
                };
                vec![t.to_string(), n.to_string(), fmt_us(us), share]
            })
            .collect();
        print!(
            "{}",
            render_table(
                "pool utilization (span self-time per thread)",
                &["thread", "spans", "busy", "vs busiest"],
                &rows,
            )
        );
    }

    fn print_heatmap(&self) {
        println!("\n== per-layer freeze heatmap ==");
        if self.freeze.is_empty() {
            println!("(no layer_freeze events; run with APF_TRACE=debug and the APF strategy)");
            return;
        }
        let mut rounds: Vec<u64> = self.freeze.keys().map(|(_, r)| *r).collect();
        rounds.sort_unstable();
        rounds.dedup();
        // Downsample columns so wide runs still fit a terminal.
        const MAX_COLS: usize = 64;
        let step = rounds.len().div_ceil(MAX_COLS);
        let cols: Vec<u64> = rounds.iter().copied().step_by(step.max(1)).collect();
        let name_w = self
            .layer_order
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(5)
            .max(5);
        println!(
            "frozen fraction per round (., 1-8 = deciles, # = fully frozen); rounds {}..{} step {}",
            rounds.first().unwrap(),
            rounds.last().unwrap(),
            step.max(1)
        );
        for layer in &self.layer_order {
            let cells: String = cols
                .iter()
                .map(|r| {
                    self.freeze
                        .get(&(layer.clone(), *r))
                        .map_or(' ', |ratio| shade(*ratio))
                })
                .collect();
            println!("  {layer:<name_w$} |{cells}|");
        }
    }

    /// The single-file report as one JSON document (`--json` mode): span
    /// stats, per-thread self-time, freeze ratios, and phase bytes.
    fn to_json(&self) -> Value {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        obj(vec![
            ("records", Value::from_u64(self.lines)),
            ("unparsable", Value::from_u64(self.skipped)),
            (
                "spans",
                Value::Arr(
                    self.span_stats()
                        .into_iter()
                        .map(|(key, s)| {
                            obj(vec![
                                ("span", Value::Str(key)),
                                ("count", Value::from_u64(s.count)),
                                ("self_us", Value::from_u64(s.self_us)),
                                ("total_us", Value::from_u64(s.total_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "threads",
                Value::Arr(
                    self.thread_stats()
                        .into_iter()
                        .map(|(t, n, us)| {
                            obj(vec![
                                ("thread", Value::from_u64(t)),
                                ("spans", Value::from_u64(n)),
                                ("self_us", Value::from_u64(us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "layer_freeze",
                Value::Arr(
                    self.freeze
                        .iter()
                        .map(|((layer, round), ratio)| {
                            obj(vec![
                                ("layer", Value::Str(layer.clone())),
                                ("round", Value::from_u64(*round)),
                                ("frozen_ratio", Value::from_f64(*ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "phases",
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|(phase, (up, down, n))| {
                            obj(vec![
                                ("phase", Value::Str(phase.clone())),
                                ("transfers", Value::from_u64(*n)),
                                ("bytes_up", Value::from_u64(*up)),
                                ("bytes_down", Value::from_u64(*down)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn print_phases(&self) {
        if self.phases.is_empty() {
            println!("\n== bytes by phase ==\n(no fedsim.comm transfer events; run with APF_TRACE=debug)");
            return;
        }
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|(phase, (up, down, n))| {
                vec![
                    phase.clone(),
                    n.to_string(),
                    fmt_mb(*up),
                    fmt_mb(*down),
                    fmt_mb(up + down),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                "bytes by phase",
                &["phase", "transfers", "up", "down", "total"],
                &rows,
            )
        );
    }
}

/// Loads and merges the given trace files into one distributed-run view.
fn merge_traces(paths: &[String]) -> Result<MergedTrace, String> {
    let mut files = Vec::new();
    for p in paths {
        files.push(TraceFile::load(p)?);
    }
    MergedTrace::build(group_processes(&files)?)
}

fn run_timeline(paths: &[String], min_coverage: Option<f64>) -> Result<(), String> {
    let merged = merge_traces(paths)?;
    println!(
        "run {}: server + {} client trace(s)",
        merged.run,
        merged.clients.len()
    );
    for (i, off) in merged.offsets_us.iter().enumerate() {
        println!("  client {i} clock offset to server: {off:+} us (Welcome anchor)");
    }
    let problems = merged.completeness_problems();
    for p in &problems {
        eprintln!("trace-report: incomplete span tree: {p}");
    }
    let slices = merged.timeline();
    if slices.is_empty() {
        return Err("no client round spans (trace clients at debug level)".to_owned());
    }
    let rows: Vec<Vec<String>> = slices
        .iter()
        .map(|s| {
            vec![
                s.round.to_string(),
                s.client.to_string(),
                format!("{:+}", s.start_us),
                fmt_us(s.wall_us),
                fmt_us(s.compute_us),
                fmt_us(s.transfer_us),
                fmt_us(s.server_wait_us),
                format!("{:.1}%", 100.0 * s.coverage()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "round critical path per client (server clock)",
            &["round", "client", "start", "wall", "compute", "transfer", "srv-wait", "coverage",],
            &rows,
        )
    );
    let worst = slices
        .iter()
        .map(|s| s.coverage())
        .fold(f64::INFINITY, f64::min);
    let median = median_coverage(&slices);
    println!(
        "round coverage over {} round-slices: median {:.1}%, worst {:.1}%",
        slices.len(),
        100.0 * median,
        100.0 * worst
    );
    if !problems.is_empty() {
        return Err(format!("{} span-tree problem(s)", problems.len()));
    }
    // Truncating each span to whole µs can over-attribute by a few µs; more
    // means a phase was counted twice.
    if let Some(s) = slices.iter().find(|s| s.attributed_us() > s.wall_us + 5) {
        return Err(format!(
            "round {} client {}: attributed {} us exceeds wall {} us",
            s.round,
            s.client,
            s.attributed_us(),
            s.wall_us
        ));
    }
    if let Some(bound) = min_coverage {
        if 100.0 * median < bound {
            return Err(format!(
                "median round coverage {:.1}% below required {bound}%",
                100.0 * median
            ));
        }
    }
    Ok(())
}

fn run_reconcile(paths: &[String], ledger_path: &str) -> Result<(), String> {
    let merged = merge_traces(paths)?;
    let ledger = load_ledger(ledger_path)?;
    let rep = merged.reconcile(&ledger);
    println!(
        "run {}: {} rounds, traced {} logical bytes, ledger {} bytes",
        merged.run, rep.rounds, rep.traced_total, rep.ledger_total
    );
    for p in &rep.problems {
        eprintln!("trace-report: reconcile: {p}");
    }
    if rep.problems.is_empty() {
        println!("traced transfers reconcile exactly with the run ledger");
        Ok(())
    } else {
        Err(format!(
            "{} byte-accounting mismatch(es)",
            rep.problems.len()
        ))
    }
}

fn usage() -> &'static str {
    "usage: trace-report <trace.jsonl> [--json]\n\
     \x20      trace-report timeline <server.jsonl> <client.jsonl>... [--min-coverage PCT]\n\
     \x20                   (PCT: least attributed share of the median round-slice)\n\
     \x20      trace-report reconcile <server.jsonl> <client.jsonl>... --ledger <runs.jsonl>\n\
     \x20      trace-report flame <profile.folded>... [--top N] [--out PATH]\n\
     \x20                   [--assert-contains FRAME]... [--json]\n\
     \x20 produce traces with APF_TRACE=debug APF_TRACE_FILE=... (or --trace-file on\n\
     \x20 apf-server/apf-client for distributed runs); produce profiles with\n\
     \x20 APF_PROF=1 APF_PROF_FILE=... (or --prof-file)"
}

fn run_flame(
    paths: &[String],
    top: usize,
    assert_contains: &[String],
    json: bool,
    out: Option<&str>,
) -> Result<(), String> {
    let mut files = Vec::new();
    for p in paths {
        files.push(ProfFile::load(p)?);
    }
    let merged = prof_merge::merge(&files)?;
    if json {
        println!("{}", merged.to_json().pretty());
    } else {
        let folded = merged.render_folded();
        match out {
            Some(path) => {
                std::fs::write(path, &folded).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote merged folded stacks to {path}");
            }
            None => print!("{folded}"),
        }
        let total = merged.total_samples();
        eprintln!(
            "run {:016x}: {} profile(s), {} passes, {} samples, {} distinct stacks",
            merged.run_id,
            merged.files,
            merged.passes,
            total,
            merged.stacks.len()
        );
        let rows: Vec<Vec<String>> = merged
            .self_time()
            .into_iter()
            .take(top)
            .map(|(frame, count)| {
                let share = if total > 0 {
                    format!("{:.1}%", 100.0 * count as f64 / total as f64)
                } else {
                    "-".to_owned()
                };
                vec![frame, count.to_string(), share]
            })
            .collect();
        eprint!(
            "{}",
            render_table(
                &format!("top {top} frames by self-time (samples)"),
                &["frame", "samples", "share"],
                &rows,
            )
        );
    }
    let missing: Vec<&String> = assert_contains
        .iter()
        .filter(|f| !merged.contains_frame(f))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "merged profile contains no {:?} frame(s) — {} total samples over {} stacks",
            missing,
            merged.total_samples(),
            merged.stacks.len()
        ));
    }
    Ok(())
}

fn run_single(path: &str, json: bool) -> Result<(), String> {
    let report = Report::from_trace(TraceFile::load(path)?);
    if json {
        println!("{}", report.to_json().pretty());
        return Ok(());
    }
    println!(
        "{path}: {} records ({} unparsable)",
        report.lines, report.skipped
    );
    report.print_spans();
    report.print_threads();
    report.print_heatmap();
    report.print_phases();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err(usage().to_owned()),
        Some((cmd, rest)) if cmd == "timeline" => {
            let mut paths = Vec::new();
            let mut min_coverage = None;
            let mut it = rest.iter();
            let mut parse = || -> Result<(), String> {
                while let Some(a) = it.next() {
                    if a == "--min-coverage" {
                        let v = it.next().ok_or("--min-coverage needs a value")?;
                        min_coverage =
                            Some(v.parse().map_err(|_| format!("bad --min-coverage {v}"))?);
                    } else {
                        paths.push(a.clone());
                    }
                }
                Ok(())
            };
            parse().and_then(|()| {
                if paths.len() < 2 {
                    Err(format!(
                        "timeline needs server + client traces\n{}",
                        usage()
                    ))
                } else {
                    run_timeline(&paths, min_coverage)
                }
            })
        }
        Some((cmd, rest)) if cmd == "reconcile" => {
            let mut paths = Vec::new();
            let mut ledger = None;
            let mut it = rest.iter();
            let mut parse = || -> Result<(), String> {
                while let Some(a) = it.next() {
                    if a == "--ledger" {
                        ledger = Some(it.next().ok_or("--ledger needs a value")?.clone());
                    } else {
                        paths.push(a.clone());
                    }
                }
                Ok(())
            };
            parse().and_then(|()| match (&ledger, paths.len()) {
                (None, _) => Err(format!("reconcile needs --ledger\n{}", usage())),
                (_, 0) => Err(format!("reconcile needs trace files\n{}", usage())),
                (Some(l), _) => run_reconcile(&paths, l),
            })
        }
        Some((cmd, rest)) if cmd == "flame" => {
            let mut paths = Vec::new();
            let mut top = 15usize;
            let mut assert_contains = Vec::new();
            let mut json = false;
            let mut out = None;
            let mut it = rest.iter();
            let mut parse = || -> Result<(), String> {
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--top" => {
                            let v = it.next().ok_or("--top needs a value")?;
                            top = v.parse().map_err(|_| format!("bad --top {v}"))?;
                        }
                        "--assert-contains" => {
                            let v = it.next().ok_or("--assert-contains needs a value")?;
                            assert_contains.push(v.clone());
                        }
                        "--json" => json = true,
                        "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
                        _ => paths.push(a.clone()),
                    }
                }
                Ok(())
            };
            parse().and_then(|()| {
                if paths.is_empty() {
                    Err(format!("flame needs profile files\n{}", usage()))
                } else {
                    run_flame(&paths, top, &assert_contains, json, out.as_deref())
                }
            })
        }
        Some((path, [])) => run_single(path, false),
        Some((path, [flag])) if flag == "--json" => run_single(path, true),
        Some(_) => Err(usage().to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace-report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shade_ramp_monotone() {
        assert_eq!(shade(0.0), '.');
        assert_eq!(shade(1.0), '#');
        assert_eq!(shade(2.0), '#');
    }

    fn report(lines: &[&str]) -> Report {
        Report::from_trace(TraceFile::parse("t", &lines.join("\n")))
    }

    #[test]
    fn self_time_subtracts_children() {
        let r = report(&[
            r#"{"t":"span","ts_us":1,"lvl":"info","target":"a","name":"child","id":2,"parent":1,"start_us":0,"dur_us":30}"#,
            r#"{"t":"span","ts_us":2,"lvl":"info","target":"a","name":"root","id":1,"parent":0,"start_us":0,"dur_us":100}"#,
        ]);
        let stats = r.span_stats();
        let root = stats.iter().find(|(k, _)| k == "a::root").unwrap();
        assert_eq!(root.1.self_us, 70);
        assert_eq!(root.1.total_us, 100);
        let child = stats.iter().find(|(k, _)| k == "a::child").unwrap();
        assert_eq!(child.1.self_us, 30);
    }

    #[test]
    fn thread_stats_attribute_self_time() {
        let r = report(&[
            r#"{"t":"span","ts_us":1,"lvl":"info","target":"a","name":"child","id":2,"parent":1,"start_us":0,"dur_us":30,"thread":2}"#,
            r#"{"t":"span","ts_us":2,"lvl":"info","target":"a","name":"root","id":1,"parent":0,"start_us":0,"dur_us":100,"thread":1}"#,
        ]);
        let stats = r.thread_stats();
        assert_eq!(stats, vec![(1, 1, 70), (2, 1, 30)]);
    }

    #[test]
    fn phases_accumulate() {
        let r = report(&[
            r#"{"t":"event","ts_us":1,"lvl":"debug","target":"fedsim.comm","msg":"transfer","span":0,"fields":{"round":0,"phase":"sync","bytes_up":10,"bytes_down":20}}"#,
            r#"{"t":"event","ts_us":2,"lvl":"debug","target":"fedsim.comm","msg":"transfer","span":0,"fields":{"round":1,"phase":"sync","bytes_up":1,"bytes_down":2}}"#,
        ]);
        assert_eq!(r.phases["sync"], (11, 22, 2));
    }

    #[test]
    fn heatmap_tracks_layer_rounds() {
        let r = report(&[
            r#"{"t":"event","ts_us":1,"lvl":"debug","target":"apf.manager","msg":"layer_freeze","span":0,"fields":{"round":3,"layer":"fc1-w","offset":0,"len":10,"frozen":5,"frozen_ratio":0.5}}"#,
        ]);
        assert_eq!(r.layer_order, vec!["fc1-w"]);
        assert_eq!(r.freeze[&("fc1-w".to_owned(), 3)], 0.5);
    }

    #[test]
    fn garbage_lines_are_counted_not_fatal() {
        let r = report(&["not json at all", ""]);
        assert_eq!(r.lines, 1);
        assert_eq!(r.skipped, 1);
    }
}
