//! `apf-client`: one networked APF edge client.
//!
//! ```text
//! apf-client --id N (--server HOST:PORT | --addr-file PATH)
//!            [--connect-timeout-secs N] [--io-timeout-secs N]
//!            [--fail-before-push ROUND] [--trace-file PATH]
//!            [--prof-file PATH]
//! ```
//!
//! Joins the server, receives the run spec in the Welcome frame, and runs
//! local training + masked push/pull until the run completes. With
//! `--addr-file` the client polls for the file the server writes (so
//! scripts can launch both sides without knowing the ephemeral port).
//! `--fail-before-push` injects a mid-round crash for fault-path testing:
//! the process exits, dropping its connection, right before pushing that
//! round's update.
//!
//! `--trace-file` enables JSONL tracing to the given path (level from
//! `APF_TRACE`, defaulting to `debug`). The trace adopts the run id from
//! the server's Welcome frame, so `trace-report` can merge it with the
//! server's trace and the other clients'.
//!
//! `--prof-file` samples the client with `apf-prof` and writes folded
//! flamegraph stacks there on exit (the CLI twin of
//! `APF_PROF=1 APF_PROF_FILE=...`; `APF_PROF=alloc` additionally
//! attributes allocations to spans). The profile header carries the same
//! run id as the trace, so `trace-report flame` can merge it with the
//! server's profile.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

/// Allocation-site attribution capability (inert one-load passthrough
/// unless `APF_PROF=alloc` turns attribution on).
#[global_allocator]
static ALLOC: apf_prof::alloc::ProfAlloc = apf_prof::alloc::ProfAlloc;
use std::time::{Duration, Instant};

use apf_net::{run_client, ClientOpts};

fn usage() -> &'static str {
    "usage: apf-client --id N (--server HOST:PORT | --addr-file PATH) \
     [--connect-timeout-secs N] [--io-timeout-secs N] [--fail-before-push ROUND] \
     [--trace-file PATH] [--prof-file PATH]"
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no addresses"))
}

/// Polls for the server's addr file until it appears (bounded by the
/// connect budget) and parses the address inside.
fn addr_from_file(path: &str, budget: Duration) -> Result<SocketAddr, String> {
    let deadline = Instant::now() + budget;
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) if !text.trim().is_empty() => return resolve(text.trim()),
            _ if Instant::now() >= deadline => {
                return Err(format!("{path}: no server address within {budget:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn run() -> Result<(), String> {
    let mut id: Option<u32> = None;
    let mut server: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut connect_timeout = Duration::from_secs(10);
    let mut io_timeout = Duration::from_secs(30);
    let mut fail_before_push: Option<u64> = None;
    let mut trace_file: Option<String> = None;
    let mut prof_file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(value()?.parse().map_err(|_| "bad --id")?),
            "--server" => server = Some(value()?),
            "--addr-file" => addr_file = Some(value()?),
            "--connect-timeout-secs" => {
                connect_timeout = Duration::from_secs(
                    value()?.parse().map_err(|_| "bad --connect-timeout-secs")?,
                );
            }
            "--io-timeout-secs" => {
                io_timeout =
                    Duration::from_secs(value()?.parse().map_err(|_| "bad --io-timeout-secs")?);
            }
            "--fail-before-push" => {
                fail_before_push = Some(value()?.parse().map_err(|_| "bad --fail-before-push")?);
            }
            "--trace-file" => trace_file = Some(value()?),
            "--prof-file" => prof_file = Some(value()?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let id = id.ok_or_else(|| format!("--id is required\n{}", usage()))?;
    match &trace_file {
        Some(path) => apf_trace::init_file(path).map_err(|e| format!("{path}: {e}"))?,
        None => apf_trace::init_from_env(),
    }
    let prof_owned = apf_prof::init_from_env(prof_file);
    let addr = match (server, addr_file) {
        (Some(addr), None) => resolve(&addr)?,
        (None, Some(path)) => addr_from_file(&path, connect_timeout)?,
        _ => {
            return Err(format!(
                "need exactly one of --server/--addr-file\n{}",
                usage()
            ))
        }
    };
    let outcome = run_client(&ClientOpts {
        server: addr,
        id,
        connect_timeout,
        io_timeout,
        fail_before_push_round: fail_before_push,
    })
    .map_err(|e| e.to_string())?;
    if prof_owned {
        let _ = apf_prof::finish();
    }
    apf_trace::flush();
    eprintln!(
        "client {id}: {} rounds, {} wire bytes{}",
        outcome.rounds_done,
        outcome.wire_bytes,
        if outcome.injected_fault {
            " (injected fault)"
        } else {
            ""
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("apf-client: {e}");
            ExitCode::FAILURE
        }
    }
}
