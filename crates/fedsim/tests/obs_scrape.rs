//! Live-telemetry integration: scrape the HTTP endpoints *while* a
//! federated run is training, validate every `/metrics` exposition with the
//! in-repo Prometheus parser, check counter monotonicity across scrapes,
//! and round-trip `/snapshot` and `/series` through the in-tree JSON
//! parser.

use std::sync::mpsc;
use std::time::Duration;

use apf_data::Dataset;
use apf_fedsim::{json, FlConfig, FlRunner, RunSpec};
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

fn mlp_factory(seed: u64) -> apf_nn::Sequential {
    models::mlp("m", &[3 * 16 * 16, 24, 10], seed)
}

fn runner(rounds: usize, serve: bool, ledger: Option<&std::path::Path>) -> FlRunner {
    let train = flat_images(120, 21);
    let test = flat_images(60, 22);
    let parts = apf_data::iid_partition(train.len(), 3, 7);
    let cfg = FlConfig {
        local_iters: 4,
        rounds,
        batch_size: 10,
        eval_every: 2,
        eval_batch: 30,
        seed: 5,
        parallel: false,
        ..FlConfig::default()
    };
    let mut b = FlRunner::builder(mlp_factory, cfg)
        .clients_from_partition(&train, &parts)
        .test_set(test);
    if serve {
        b = b.serve("127.0.0.1:0");
    }
    if let Some(path) = ledger {
        b = b.ledger(path);
    }
    b.build()
}

#[test]
fn concurrent_scrapes_during_training_are_valid_and_monotone() {
    let mut r = runner(12, true, None);
    let addr = r.obs_addr().expect("server bound");
    assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);

    // Scrape continuously from another thread while the run trains.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let scraper = std::thread::spawn(move || {
        let mut last_rounds = f64::NEG_INFINITY;
        let mut last_bytes = f64::NEG_INFINITY;
        let mut scrapes = 0u32;
        loop {
            let (status, body) = http_get(addr, "/metrics").expect("scrape");
            assert_eq!(status, 200);
            let samples = prometheus::parse_text(&body)
                .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
            for (metric, last) in [
                ("fedsim_rounds_total", &mut last_rounds),
                ("fedsim_bytes_up_total", &mut last_bytes),
            ] {
                if let Some(s) = samples.iter().find(|s| s.name == metric) {
                    assert!(
                        s.value >= *last,
                        "{metric} went backwards: {} -> {}",
                        *last,
                        s.value
                    );
                    *last = s.value;
                }
            }
            scrapes += 1;
            if stop_rx.try_recv().is_ok() {
                return scrapes;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let log = r.run().clone();
    stop_tx.send(()).unwrap();
    let scrapes = scraper.join().expect("scraper panicked");
    assert!(scrapes > 0);
    assert_eq!(log.records.len(), 12);

    // Final /metrics agrees with the run's own accounting.
    let (_, body) = http_get(addr, "/metrics").unwrap();
    let samples = prometheus::parse_text(&body).unwrap();
    let rounds = samples
        .iter()
        .find(|s| s.name == "fedsim_rounds_total")
        .expect("fedsim_rounds_total exposed");
    assert!(rounds.value >= 12.0, "rounds counter {}", rounds.value);

    // /snapshot round-trips through the in-tree JSON parser.
    let (status, body) = http_get(addr, "/snapshot").unwrap();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap_or_else(|e| panic!("snapshot not JSON: {e}\n{body}"));
    assert_eq!(
        doc.get("run")
            .and_then(|r| r.get("model"))
            .and_then(json::Value::as_str),
        Some("m")
    );
    assert_eq!(doc.get("round").and_then(json::Value::as_u64), Some(11));
    assert_eq!(doc.get("completed"), Some(&json::Value::Bool(true)));
    let latest = doc.get("latest").expect("latest object");
    let loss = latest
        .get("fedsim.loss")
        .and_then(json::Value::as_f32)
        .expect("latest loss");
    assert!((loss - log.records[11].loss).abs() < 1e-6);

    // /series history matches the experiment log, point for point.
    let (status, body) = http_get(addr, "/series?name=fedsim.loss").unwrap();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    let points = doc.get("points").and_then(json::Value::as_arr).unwrap();
    assert_eq!(points.len(), 12);
    for (p, rec) in points.iter().zip(&log.records) {
        let xy = p.as_arr().unwrap();
        assert_eq!(xy[0].as_u64(), Some(rec.round));
        assert!((xy[1].as_f32().unwrap() - rec.loss).abs() < 1e-6);
    }
}

#[test]
fn population_runner_serves_the_same_round_samples() {
    // Telemetry sampling lives in the round tail every driver shares, so a
    // sampled-cohort population run is as observable as an `FlRunner` one.
    let spec = RunSpec {
        clients: 6,
        cohort: 3,
        rounds: 4,
        ..RunSpec::golden()
    };
    let mut pop = spec.build_population_runner();
    assert!(pop.obs_addr().is_none(), "no listener without opt-in");
    pop.serve("127.0.0.1:0");
    let addr = pop.obs_addr().expect("server bound");
    let log = pop.run().clone();
    assert_eq!(log.records.len(), 4);

    let (status, body) = http_get(addr, "/snapshot").unwrap();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap_or_else(|e| panic!("snapshot not JSON: {e}\n{body}"));
    let run = doc.get("run").expect("run object");
    assert_eq!(
        run.get("strategy").and_then(json::Value::as_str),
        Some("apf-pop")
    );
    assert_eq!(
        run.get("rounds_total").and_then(json::Value::as_u64),
        Some(4)
    );
    assert_eq!(doc.get("round").and_then(json::Value::as_u64), Some(3));
    assert_eq!(doc.get("completed"), Some(&json::Value::Bool(true)));

    for (series, of) in [
        (
            "fedsim.loss",
            (|r| f64::from(r.loss)) as fn(&apf_fedsim::RoundRecord) -> f64,
        ),
        ("fedsim.cum_bytes", |r| r.cum_bytes as f64),
        ("fedsim.frozen_ratio", |r| f64::from(r.frozen_ratio)),
    ] {
        let (status, body) = http_get(addr, &format!("/series?name={series}")).unwrap();
        assert_eq!(status, 200, "{series}");
        let doc = json::parse(&body).unwrap();
        let points = doc.get("points").and_then(json::Value::as_arr).unwrap();
        assert_eq!(points.len(), 4, "{series}");
        for (p, rec) in points.iter().zip(&log.records) {
            let xy = p.as_arr().unwrap();
            assert_eq!(xy[0].as_u64(), Some(rec.round));
            let want = of(rec);
            let got = xy[1].as_f64().unwrap();
            assert!((got - want).abs() <= 1e-6 * want.abs().max(1.0), "{series}");
        }
    }
}

#[test]
fn no_listener_without_opt_in() {
    let r = runner(1, false, None);
    assert!(r.obs_addr().is_none());
}

#[test]
fn ledger_records_identical_reruns_identically() {
    let path = std::env::temp_dir().join("apf_fedsim_test_ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    for _ in 0..2 {
        runner(4, false, Some(&path)).run();
    }
    let records = apf_fedsim::load_ledger(&path).unwrap();
    assert_eq!(records.len(), 2);
    let (a, b) = (&records[0], &records[1]);
    assert_eq!(a.config_digest, b.config_digest);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.total_bytes, b.total_bytes);
    // Bitwise series comparison: the accuracy series uses NaN for
    // unevaluated rounds, and NaN != NaN under f64 equality.
    for key in ["loss", "frozen_ratio", "cum_bytes", "accuracy"] {
        let (sa, sb) = (&a.series[key], &b.series[key]);
        assert_eq!(sa.len(), sb.len(), "{key}");
        for (x, y) in sa.iter().zip(sb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{key}");
        }
    }
    assert_eq!(a.rounds, 4);
    assert!(a.total_bytes > 0);
    assert!(a.wall_secs > 0.0);
    assert_eq!(a.model, "m");
    assert_eq!(a.strategy, "fedavg");
    let _ = std::fs::remove_file(&path);
}
