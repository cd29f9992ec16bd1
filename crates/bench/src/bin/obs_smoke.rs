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

use apf_data::Dataset;
use apf_fedsim::{ledger_path, FlConfig, FlRunner};
use apf_nn::models;
use apf_obs::{http_get, prometheus};

fn flat_images(n: usize, split: u64) -> Dataset {
    let ds = apf_data::synth_images_split(n, 1, split);
    Dataset::new(
        ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
        ds.labels().to_vec(),
        10,
    )
}

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
    let train = flat_images(120, 31);
    let test = flat_images(60, 32);
    let parts = apf_data::iid_partition(train.len(), 3, 7);
    let cfg = FlConfig {
        local_iters: 4,
        rounds,
        batch_size: 10,
        eval_every: 1,
        eval_batch: 30,
        seed: 11,
        parallel: true,
        ..FlConfig::default()
    };
    // The smoke scrapes itself, so it always serves on an ephemeral port;
    // the ledger is APF_LEDGER_FILE's, or the git-ignored default.
    let ledger = ledger_path(None).unwrap_or_else(|| "results/ledger.jsonl".into());
    let mut runner = FlRunner::builder(
        |seed| models::mlp("smoke-mlp", &[3 * 16 * 16, 24, 10], seed),
        cfg,
    )
    .clients_from_partition(&train, &parts)
    .test_set(test)
    .serve("127.0.0.1:0")
    .ledger(ledger)
    .build();
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
