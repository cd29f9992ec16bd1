//! `apf-server`: the networked APF parameter server.
//!
//! ```text
//! apf-server [--addr HOST:PORT] [--addr-file PATH] [--spec CANONICAL]
//!            [--trajectory-out PATH] [--ledger PATH] [--trace-file PATH]
//!            [--prof-file PATH] [--join-timeout-secs N]
//!            [--io-timeout-secs N] [--sim]
//! ```
//!
//! Serves one federated run described by `--spec` (a `RunSpec` canonical
//! string; defaults to the golden fixture) and exits. With `--addr-file`
//! the actually-bound address is written there so scripts can bind port 0
//! and still point clients at the server. `--trajectory-out` writes the
//! bit-exact run trajectory; `--ledger` appends a run-ledger record with
//! the same config digest a simulator run of the spec gets, so
//! `ledger-report diff` pairs the two.
//!
//! `--sim` runs the spec through the in-process simulator instead of
//! serving — same outputs, no sockets — which is how the verify harness
//! produces the baseline a networked run must match byte for byte.
//!
//! `--trace-file` enables JSONL tracing to the given path (the CLI twin of
//! `APF_TRACE_FILE`; the level comes from `APF_TRACE`, defaulting to
//! `debug` when only the flag is given). The first record is a header
//! carrying role/pid/spec so `trace-report` can merge the file with the
//! clients' traces. With `APF_OBS_ADDR` set, a live `/metrics`+`/snapshot`
//! endpoint serves the run's counters and per-round samples (the same
//! `RoundBook` telemetry as a simulator run).
//!
//! `--prof-file` samples the run with `apf-prof` and writes folded
//! flamegraph stacks there on exit (the CLI twin of
//! `APF_PROF=1 APF_PROF_FILE=...`; `APF_PROF=alloc` additionally
//! attributes allocations to spans — this binary installs the attributing
//! allocator). `trace-report flame` merges the output with the clients'
//! profiles by run id.

use std::process::ExitCode;

/// Allocation-site attribution capability (inert one-load passthrough
/// unless `APF_PROF=alloc` turns attribution on).
#[global_allocator]
static ALLOC: apf_prof::alloc::ProfAlloc = apf_prof::alloc::ProfAlloc;
use std::time::Duration;

use apf_fedsim::{ExperimentLog, RunSpec, Trajectory};
use apf_net::{NetServer, ServerOpts};

struct Args {
    addr: String,
    addr_file: Option<String>,
    spec: RunSpec,
    trajectory_out: Option<String>,
    ledger: Option<String>,
    trace_file: Option<String>,
    prof_file: Option<String>,
    join_timeout: Duration,
    io_timeout: Duration,
    sim: bool,
}

fn usage() -> &'static str {
    "usage: apf-server [--addr HOST:PORT] [--addr-file PATH] [--spec CANONICAL] \
     [--trajectory-out PATH] [--ledger PATH] [--trace-file PATH] \
     [--prof-file PATH] [--join-timeout-secs N] [--io-timeout-secs N] [--sim]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_owned(),
        addr_file: None,
        spec: RunSpec::golden(),
        trajectory_out: None,
        ledger: None,
        trace_file: None,
        prof_file: None,
        join_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(10),
        sim: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value()?,
            "--addr-file" => args.addr_file = Some(value()?),
            "--spec" => {
                args.spec = RunSpec::parse(&value()?).map_err(|e| e.to_string())?;
            }
            "--trajectory-out" => args.trajectory_out = Some(value()?),
            "--ledger" => args.ledger = Some(value()?),
            "--trace-file" => args.trace_file = Some(value()?),
            "--prof-file" => args.prof_file = Some(value()?),
            "--join-timeout-secs" => {
                args.join_timeout =
                    Duration::from_secs(value()?.parse().map_err(|_| "bad --join-timeout-secs")?);
            }
            "--io-timeout-secs" => {
                args.io_timeout =
                    Duration::from_secs(value()?.parse().map_err(|_| "bad --io-timeout-secs")?);
            }
            "--sim" => args.sim = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Writes `--trajectory-out`. (`--ledger` is the run's own business: both
/// the simulator and the server append their record when they finish.)
fn write_trajectory(
    args: &Args,
    log: &ExperimentLog,
    wire_bytes: Option<u64>,
) -> Result<(), String> {
    if let Some(path) = &args.trajectory_out {
        let mut text = Trajectory::from_log(log).encode();
        if let Some(bytes) = wire_bytes {
            // Real framing bytes ride along as a comment: informative, but
            // invisible to the byte-for-byte trajectory comparison.
            text.push_str(&format!("# wire_bytes={bytes}\n"));
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match &args.trace_file {
        Some(path) => apf_trace::init_file(path).map_err(|e| format!("{path}: {e}"))?,
        None => apf_trace::init_from_env(),
    }
    let prof_owned = apf_prof::init_from_env(args.prof_file.clone());
    if args.sim {
        let mut runner = args.spec.build_runner();
        if let Some(path) = &args.ledger {
            runner.ledger(path);
        }
        runner.run();
        let log = runner.log().clone();
        if prof_owned {
            let _ = apf_prof::finish();
        }
        write_trajectory(&args, &log, None)?;
        eprintln!(
            "sim run complete: {} rounds, best accuracy {:.4}, {} bytes",
            log.records.len(),
            log.best_accuracy(),
            log.total_bytes()
        );
        return Ok(());
    }
    let mut server = NetServer::bind(ServerOpts {
        addr: args.addr.clone(),
        spec: args.spec.clone(),
        join_timeout: args.join_timeout,
        io_timeout: args.io_timeout,
    })
    .map_err(|e| e.to_string())?;
    if let Some(path) = &args.ledger {
        server.ledger(path);
    }
    let addr = server.addr();
    if let Some(path) = &args.addr_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("serving {} clients on {addr}", args.spec.clients);
    let outcome = server.serve().map_err(|e| e.to_string())?;
    if prof_owned {
        let _ = apf_prof::finish();
    }
    write_trajectory(&args, &outcome.log, Some(outcome.wire_bytes))?;
    apf_trace::flush();
    eprintln!(
        "run complete: {} rounds, best accuracy {:.4}, {} logical bytes, {} wire bytes, {} client(s) lost",
        outcome.log.records.len(),
        outcome.log.best_accuracy(),
        outcome.log.total_bytes(),
        outcome.wire_bytes,
        outcome.lost_clients.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("apf-server: {e}");
            ExitCode::FAILURE
        }
    }
}
