//! `obs-smoke`: end-to-end smoke test of the live-telemetry path.
//!
//! Runs a tiny federated job with the HTTP server enabled, scrapes
//! `/healthz`, `/metrics`, `/snapshot`, and `/series` in-process, validates
//! the Prometheus exposition with the in-repo parser, and appends the run
//! to the ledger. Exits non-zero on any failed check — `scripts/verify.sh`
//! runs it twice and then `ledger-report check` to prove an identical
//! re-run passes the regression gate.
//!
//! ```text
//! obs-smoke [--rounds N]            # default 2
//! ```
//!
//! It serves on an ephemeral port of its own (`127.0.0.1:0`). Environment:
//! `APF_OBS_ADDR_FILE` (written with the bound address), `APF_LEDGER_FILE`
//! (default `results/ledger.jsonl`).

use std::process::ExitCode;

use apf_fedsim::{ledger_path, RunSpec, SpecStrategy};
use apf_obs::{http_get, prometheus};

fn fail(msg: &str) -> ExitCode {
    println!("obs-smoke: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds = match args.as_slice() {
        [] => 2usize,
        [flag, n] if flag == "--rounds" => match n.parse() {
            Ok(r) => r,
            Err(_) => return fail("--rounds takes a positive integer"),
        },
        _ => {
            println!("usage: obs-smoke [--rounds N]");
            return ExitCode::from(2);
        }
    };
    // A spec-built run, so the ledger records its digest and the second
    // identical run pairs with the first.
    let spec = RunSpec {
        rounds,
        local_iters: 4,
        batch_size: 10,
        eval_every: 1,
        eval_batch: 30,
        seed: 11,
        train_n: 120,
        test_n: 60,
        hidden: 24,
        lr: 0.1,
        momentum: 0.0,
        weight_decay: 0.0,
        strategy: SpecStrategy::Fedavg,
        ..RunSpec::golden()
    };
    // The smoke scrapes itself, so it always serves on an ephemeral port;
    // the ledger is APF_LEDGER_FILE's, or the git-ignored default.
    let ledger = ledger_path(None).unwrap_or_else(|| "results/ledger.jsonl".into());
    let mut runner = spec.build_runner();
    runner.serve("127.0.0.1:0");
    runner.ledger(ledger);
    let Some(addr) = runner.obs_addr() else {
        return fail("no telemetry server bound");
    };
    println!("obs-smoke: serving on {addr}");
    match http_get(addr, "/healthz") {
        Ok((200, _)) => println!("obs-smoke: /healthz ok"),
        Ok((status, _)) => return fail(&format!("/healthz returned {status}")),
        Err(e) => return fail(&format!("/healthz scrape failed: {e}")),
    }
    runner.run();
    // /metrics: must parse as Prometheus text exposition and carry the
    // round counter.
    let body = match http_get(addr, "/metrics") {
        Ok((200, body)) => body,
        Ok((status, _)) => return fail(&format!("/metrics returned {status}")),
        Err(e) => return fail(&format!("/metrics scrape failed: {e}")),
    };
    let samples = match prometheus::parse_text(&body) {
        Ok(s) => s,
        Err(e) => return fail(&format!("/metrics is not valid exposition: {e}")),
    };
    let Some(rounds_total) = samples.iter().find(|s| s.name == "fedsim_rounds_total") else {
        return fail("fedsim_rounds_total missing from /metrics");
    };
    if rounds_total.value < rounds as f64 {
        return fail(&format!(
            "fedsim_rounds_total = {} < {rounds}",
            rounds_total.value
        ));
    }
    println!(
        "obs-smoke: /metrics ok ({} samples, fedsim_rounds_total = {})",
        samples.len(),
        rounds_total.value
    );
    // /snapshot: JSON, completed, correct final round.
    let body = match http_get(addr, "/snapshot") {
        Ok((200, body)) => body,
        _ => return fail("/snapshot scrape failed"),
    };
    let doc = match apf_fedsim::json::parse(&body) {
        Ok(d) => d,
        Err(e) => return fail(&format!("/snapshot is not valid JSON: {e}")),
    };
    if doc.get("completed") != Some(&apf_fedsim::json::Value::Bool(true)) {
        return fail("/snapshot not marked completed");
    }
    if doc.get("round").and_then(apf_fedsim::json::Value::as_u64) != Some(rounds as u64 - 1) {
        return fail("/snapshot final round mismatch");
    }
    println!("obs-smoke: /snapshot ok");
    // /series: the loss history must cover every round.
    let body = match http_get(addr, "/series?name=fedsim.loss") {
        Ok((200, body)) => body,
        _ => return fail("/series scrape failed"),
    };
    let n_points = apf_fedsim::json::parse(&body)
        .ok()
        .and_then(|d| d.get("points").and_then(|p| p.as_arr().map(<[_]>::len)));
    if n_points != Some(rounds) {
        return fail(&format!("/series has {n_points:?} points, want {rounds}"));
    }
    println!("obs-smoke: /series ok ({rounds} points)");
    println!("obs-smoke: PASS");
    ExitCode::SUCCESS
}
