//! `apf-benchmark`: the repository's benchmark harness.
//!
//! Everything is measured from outside, by timing calls into the program's
//! public functions. One invocation with `--workload` is one run of the
//! benchmark contract (`BENCHMARK.json`); `suite` and `aa` drive such runs
//! in fresh processes. See `benchmark/README.md`.

mod metrics;
mod net;
mod probes;
mod session;
mod spans;
mod staged;
mod stats;
mod suite;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  apf-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
  apf-benchmark suite [--seed N] [--seconds S] [--smoke] [--out-dir DIR]
  apf-benchmark aa [--seeds K] [--seed N] [--seconds S] [--out-dir DIR] [--aa-md FILE]
workloads:";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `suite`, `aa`, or none for a single run.
    pub command: Option<String>,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed` (default 7).
    pub seed: u64,
    /// `--seconds`: how long one run measures (default: `run_seconds` of
    /// `BENCHMARK.json`).
    pub seconds: f64,
    /// `--trace`: 0 for end-to-end metrics, 1 for per-layer metrics.
    pub trace: bool,
    /// `--smoke`: five rounds per workload, checks only.
    pub smoke: bool,
    /// `--out-dir`: where traces and `results.json` go.
    pub out_dir: PathBuf,
    /// `--seeds`: seeds per set in `aa`.
    pub seeds: u64,
    /// `--aa-md`: where `aa` records its two result sets.
    pub aa_md: Option<PathBuf>,
}

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        seeds: 1,
        aa_md: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--seeds" => args.seeds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--aa-md" => args.aa_md = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One run of the benchmark contract: every metric as a
/// `workload metric value unit` line, then the one-line JSON result.
fn single_run(args: &Args) -> Result<(), String> {
    // A variable such as APF_TRACE or APF_PAR_THREADS would change what is
    // measured without showing in the result.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("APF_"))
    {
        return Err(format!("refusing to run with {} set", k.to_string_lossy()));
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let w = if args.smoke { w.smoke() } else { *w };
    apf_par::set_threads(w.threads);
    let (report, table) = if args.trace {
        let r = traced::per_layer(&w, args.seed, args.smoke, &args.out_dir)?;
        (r, metrics::PER_LAYER)
    } else {
        let r = session::end_to_end(&w, args.seed, args.seconds, args.smoke)?;
        (r, metrics::END_TO_END)
    };
    for failure in &report.check_failures {
        eprintln!("{}: CHECK FAILED: {failure}", w.name);
    }
    print!("{}", report.lines(w.name));
    println!("{}", report.contract_json(table));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.command.as_deref() {
        None => single_run(&args),
        Some("suite") => suite::suite(&args),
        Some("aa") => suite::aa(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("apf-benchmark: {e}\n{USAGE}");
            for w in &workloads::WORKLOADS {
                eprintln!("  {}: {}", w.name, w.why);
            }
            ExitCode::FAILURE
        }
    }
}
