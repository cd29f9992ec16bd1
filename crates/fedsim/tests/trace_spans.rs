//! Integration test: a short federated run emits the documented span tree
//! and every JSONL line round-trips through the in-tree JSON parser; a
//! short sampled-cohort population run emits the same tree under the same
//! target `fedsim`, plus its own `sample`/`materialize` under `fedsim.pop`.
//!
//! This file is its own test binary, so the process-global trace state it
//! installs cannot leak into other tests.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use apf::ApfConfig;
use apf_data::{iid_partition, synth_images_split, Dataset};
use apf_fedsim::json::{self, Value};
use apf_fedsim::{
    ApfStrategy, FlConfig, FlRunner, OptimizerKind, PopulationConfig, PopulationData,
    PopulationRunner, RunSpec,
};
use apf_nn::models;
use apf_trace::{Level, MemorySink};

const ROUNDS: usize = 3;

fn flat_images(n: usize, split: u64) -> Dataset {
    let ds = synth_images_split(n, 1, split);
    Dataset::new(
        ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
        ds.labels().to_vec(),
        10,
    )
}

fn mlp(seed: u64) -> apf_nn::Sequential {
    models::mlp("m", &[3 * 16 * 16, 12, 10], seed)
}

/// Runs 3 APF rounds of `FlRunner`, then 3 of a sampled-cohort
/// `PopulationRunner`, then the golden spec through both, once per process
/// with an in-memory sink installed at Debug level, and returns each run's
/// captured JSONL lines in that order. Shared across the tests in this
/// binary because the trace sink and metrics registry are process-global.
fn traced_runs() -> &'static [Vec<String>; 4] {
    static LINES: OnceLock<[Vec<String>; 4]> = OnceLock::new();
    LINES.get_or_init(traced_runs_impl)
}

/// The `FlRunner` run's lines.
fn traced_run() -> &'static [String] {
    &traced_runs()[0]
}

/// 12 registered clients, 6 sampled per round into 4 shells: two cohort
/// blocks per round.
const POP_COHORT: usize = 6;
const POP_SHELLS: usize = 4;

fn traced_runs_impl() -> [Vec<String>; 4] {
    let sink = Arc::new(MemorySink::new());
    apf_trace::init(Level::Debug, sink.clone());
    // The lines each run added to the shared sink.
    let mut seen = 0;
    let mut take = || {
        let lines = sink.lines().split_off(seen);
        seen += lines.len();
        lines
    };

    let train = flat_images(96, 0);
    let test = flat_images(48, 1);
    let parts = iid_partition(train.len(), 3, 7);
    let strategy = ApfStrategy::new(ApfConfig {
        check_every_rounds: 1,
        stability_threshold: 0.1,
        ema_alpha: 0.9,
        seed: 7,
        ..ApfConfig::default()
    })
    .unwrap();
    let mut runner = FlRunner::builder(
        mlp,
        FlConfig {
            local_iters: 2,
            rounds: ROUNDS,
            batch_size: 16,
            eval_every: 1,
            seed: 7,
            parallel: false,
            ..FlConfig::default()
        },
    )
    .optimizer(OptimizerKind::Sgd {
        lr: 0.05,
        momentum: 0.0,
        weight_decay: 0.0,
    })
    .clients_from_partition(&train, &parts)
    .test_set(test)
    .strategy(Box::new(strategy))
    .build();
    runner.run();
    let fl_lines = take();

    let spec = RunSpec {
        clients: 12,
        rounds: ROUNDS,
        hidden: 64,
        local_iters: 4,
        ..RunSpec::golden()
    };
    let hidden = spec.hidden;
    let train = spec.train_set();
    let parts = spec.partition_indices(&train);
    let mut pop = PopulationRunner::new(
        PopulationConfig {
            fl: FlConfig {
                parallel: false,
                ..spec.fl_config()
            },
            registered: spec.clients,
            cohort: POP_COHORT,
            codec: apf_quant::EmaCodec::Dense,
            shells: POP_SHELLS,
            apf: spec.apf_config().expect("golden uses APF"),
            wire_f16: false,
            optimizer: OptimizerKind::Sgd {
                lr: spec.lr,
                momentum: spec.momentum,
                weight_decay: spec.weight_decay,
            },
            schedule: apf_nn::LrSchedule::Constant(spec.lr),
        },
        move |seed| models::mlp("m", &[3 * 16 * 16, hidden, 10], seed),
        PopulationData::Shared { train, parts },
        spec.test_set(),
    );
    pop.run();
    let pop_lines = take();

    RunSpec::golden().build_runner().run();
    let golden_fl_lines = take();
    RunSpec::golden().build_population_runner().run();
    let golden_pop_lines = take();

    apf_trace::shutdown();
    [fl_lines, pop_lines, golden_fl_lines, golden_pop_lines]
}

/// Every line must parse as a JSON object with the documented envelope.
fn parse_all(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| {
            let v = json::parse(l).unwrap_or_else(|e| panic!("unparsable JSONL line {l:?}: {e:?}"));
            let t = v.get("t").and_then(Value::as_str).expect("missing t");
            assert!(t == "event" || t == "span", "unknown record type {t}");
            for key in ["ts_us", "lvl", "target"] {
                assert!(v.get(key).is_some(), "line missing {key:?}: {l}");
            }
            if t == "span" {
                for key in ["name", "id", "parent", "start_us", "dur_us"] {
                    assert!(v.get(key).is_some(), "span missing {key:?}: {l}");
                }
            } else {
                for key in ["msg", "span"] {
                    assert!(v.get(key).is_some(), "event missing {key:?}: {l}");
                }
            }
            v
        })
        .collect()
}

fn spans<'a>(records: &'a [Value], target: &str, name: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| {
            v.get("t").and_then(Value::as_str) == Some("span")
                && v.get("target").and_then(Value::as_str) == Some(target)
                && v.get("name").and_then(Value::as_str) == Some(name)
        })
        .collect()
}

fn events<'a>(records: &'a [Value], target: &str, msg: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| {
            v.get("t").and_then(Value::as_str) == Some("event")
                && v.get("target").and_then(Value::as_str) == Some(target)
                && v.get("msg").and_then(Value::as_str) == Some(msg)
        })
        .collect()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get("fields")
        .and_then(|f| f.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {v:?}"))
}

#[test]
fn three_round_run_emits_expected_span_tree() {
    let lines = traced_run();
    assert!(!lines.is_empty(), "traced run produced no output");
    let records = parse_all(lines);

    // One round span per round, each with a distinct id and no parent.
    let rounds = spans(&records, "fedsim", "round");
    assert_eq!(rounds.len(), ROUNDS, "expected one round span per round");
    let round_ids: Vec<u64> = rounds
        .iter()
        .map(|v| v.get("id").and_then(Value::as_u64).unwrap())
        .collect();
    let mut id_to_round: BTreeMap<u64, u64> = BTreeMap::new();
    for v in &rounds {
        let id = v.get("id").and_then(Value::as_u64).unwrap();
        assert_eq!(
            v.get("parent").and_then(Value::as_u64),
            Some(0),
            "round spans are roots"
        );
        id_to_round.insert(id, u64_field(v, "round"));
    }

    // Each round span has exactly one local_train / aggregate / sync / eval
    // child (eval_every = 1, so eval runs every round).
    for phase in ["local_train", "aggregate", "sync", "eval"] {
        let phase_spans = spans(&records, "fedsim", phase);
        assert_eq!(
            phase_spans.len(),
            ROUNDS,
            "expected {ROUNDS} {phase} spans, got {}",
            phase_spans.len()
        );
        let mut parents: Vec<u64> = phase_spans
            .iter()
            .map(|v| v.get("parent").and_then(Value::as_u64).unwrap())
            .collect();
        parents.sort_unstable();
        let mut expected = round_ids.clone();
        expected.sort_unstable();
        assert_eq!(
            parents, expected,
            "every {phase} span must be a direct child of a round span"
        );
    }

    // A child's duration cannot exceed its parent round's duration.
    let round_durs: BTreeMap<u64, u64> = rounds
        .iter()
        .map(|v| {
            (
                v.get("id").and_then(Value::as_u64).unwrap(),
                v.get("dur_us").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    for v in spans(&records, "fedsim", "local_train") {
        let parent = v.get("parent").and_then(Value::as_u64).unwrap();
        let dur = v.get("dur_us").and_then(Value::as_u64).unwrap();
        assert!(dur <= round_durs[&parent], "child longer than parent round");
    }
}

#[test]
fn three_round_run_emits_expected_events() {
    let lines = traced_run();
    let records = parse_all(lines);

    assert_eq!(events(&records, "fedsim", "run_configured").len(), 1);
    let complete = events(&records, "fedsim", "round_complete");
    assert_eq!(complete.len(), ROUNDS);
    let seen: Vec<u64> = complete.iter().map(|v| u64_field(v, "round")).collect();
    assert_eq!(seen, vec![0, 1, 2], "round_complete rounds in order");

    // Manager telemetry: the fleet's one manager emits one round summary
    // per round (bytes are per-client), plus per-layer freeze breakdowns
    // covering every parameter of the MLP each round.
    let mgr_rounds = events(&records, "apf.manager", "round");
    assert_eq!(mgr_rounds.len(), ROUNDS);
    let per_layer = events(&records, "apf.manager", "layer_freeze");
    // mlp [in, 12, 10] = 2 Linear layers x (weight + bias) = 4 named params.
    assert_eq!(per_layer.len(), ROUNDS * 4);
    let mut names: Vec<&str> = per_layer
        .iter()
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("layer"))
                .and_then(Value::as_str)
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 4, "four distinct layer names: {names:?}");

    // Comm telemetry: the init broadcast at round 0 plus one sync per round.
    let transfers = events(&records, "fedsim.comm", "transfer");
    assert_eq!(transfers.len(), ROUNDS + 1);
    let phases: Vec<&str> = transfers
        .iter()
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("phase"))
                .and_then(Value::as_str)
        })
        .collect();
    assert_eq!(phases.iter().filter(|p| **p == "init_broadcast").count(), 1);
    assert_eq!(phases.iter().filter(|p| **p == "sync").count(), ROUNDS);
    // The sync transfers carry fleet totals (per-client bytes x 3 clients)
    // next to the per-client maximum, so `trace-report` byte views do not
    // depend on how many managers the strategy keeps.
    let syncs = transfers.iter().filter(|v| {
        v.get("fields")
            .and_then(|f| f.get("phase"))
            .and_then(Value::as_str)
            == Some("sync")
    });
    for (sync, mgr) in syncs.zip(&mgr_rounds) {
        assert_eq!(u64_field(sync, "round"), u64_field(mgr, "round"));
        for (fleet, max_client, per_client) in [
            ("bytes_up", "max_client_up", u64_field(mgr, "bytes_up")),
            (
                "bytes_down",
                "max_client_down",
                u64_field(mgr, "bytes_down"),
            ),
        ] {
            assert!(per_client > 0);
            assert_eq!(u64_field(sync, fleet), per_client * 3);
            assert_eq!(u64_field(sync, max_client), per_client);
        }
    }

    // Per-client events: 3 clients x 3 rounds at Debug.
    assert_eq!(
        events(&records, "fedsim.client", "local_round").len(),
        3 * ROUNDS
    );

    // Metrics summary emitted by run(): counters include the round count.
    let counters = events(&records, "metrics", "counter");
    let fed_rounds = counters
        .iter()
        .find(|v| {
            v.get("fields")
                .and_then(|f| f.get("name"))
                .and_then(Value::as_str)
                == Some("fedsim.rounds")
        })
        .expect("fedsim.rounds counter emitted");
    assert!(u64_field(fed_rounds, "value") >= ROUNDS as u64);
}

#[test]
fn population_round_spans_cover_the_round() {
    let records = parse_all(&traced_runs()[1]);
    let rounds = spans(&records, "fedsim", "round");
    assert_eq!(rounds.len(), ROUNDS, "one round span per round");

    // Phase spans are per cohort block, never per client: `sample`, `sync`
    // and `eval` (eval_every = 1) once a round, the block phases once per
    // block, all direct children of a round span.
    let blocks = POP_COHORT.div_ceil(POP_SHELLS);
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for (target, phase, per_round) in [
        ("fedsim.pop", "sample", 1),
        ("fedsim.pop", "materialize", blocks),
        ("fedsim", "local_train", blocks),
        ("fedsim", "aggregate", blocks),
        ("fedsim", "sync", 1),
        ("fedsim", "eval", 1),
    ] {
        let phase_spans = spans(&records, target, phase);
        assert_eq!(phase_spans.len(), ROUNDS * per_round, "{phase} span count");
        for v in phase_spans {
            let parent = v.get("parent").and_then(Value::as_u64).unwrap();
            *covered.entry(parent).or_default() += v.get("dur_us").and_then(Value::as_u64).unwrap();
        }
    }
    let clients: u64 = spans(&records, "fedsim", "local_train")
        .iter()
        .map(|v| u64_field(v, "clients"))
        .sum();
    assert_eq!(clients, (ROUNDS * POP_COHORT) as u64);

    // The children account for the round: what the runner does outside them
    // (byte accounting, gauges, the record) stays under 5 %.
    for round in rounds {
        let id = round.get("id").and_then(Value::as_u64).unwrap();
        let dur = round.get("dur_us").and_then(Value::as_u64).unwrap();
        let children = *covered
            .get(&id)
            .expect("phase spans are direct children of a round span");
        assert!(
            children <= dur,
            "children {children} us exceed round {dur} us"
        );
        assert!(
            children * 100 >= dur * 95,
            "phase spans cover {children} of {dur} us, below 95 %"
        );
    }
    assert_eq!(covered.len(), ROUNDS, "no phase span outside a round");
}

/// `(target, name)` of every span in `records`, with how often it occurs.
fn span_census(records: &[Value]) -> BTreeMap<(String, String), usize> {
    let mut census = BTreeMap::new();
    for v in records {
        if v.get("t").and_then(Value::as_str) == Some("span") {
            let field = |k| v.get(k).and_then(Value::as_str).unwrap().to_owned();
            *census.entry((field("target"), field("name"))).or_default() += 1;
        }
    }
    census
}

#[test]
fn both_runners_speak_one_span_vocabulary_on_the_golden_spec() {
    let rounds = RunSpec::golden().rounds;
    let fl = span_census(&parse_all(&traced_runs()[2]));
    let mut pop = span_census(&parse_all(&traced_runs()[3]));
    // The population runner adds only its own two phases (the golden fleet
    // fits one cohort block, so `materialize` too runs once a round)...
    for own in ["sample", "materialize"] {
        assert_eq!(
            pop.remove(&("fedsim.pop".to_owned(), own.to_owned())),
            Some(rounds),
            "{own}"
        );
    }
    // ...and one more mask build a round, when the manager comes back from
    // its dormant hop holding no mask...
    *pop.get_mut(&("apf.manager".to_owned(), "mask_build".to_owned()))
        .expect("the manager's spans are on at Debug") -= rounds;
    // ...and otherwise emits what `FlRunner` emits: the same names under
    // the same target, as often.
    assert_eq!(fl, pop);
    let shared: Vec<(&str, usize)> = fl
        .iter()
        .filter(|((target, _), _)| target == "fedsim")
        .map(|((_, name), &count)| (name.as_str(), count))
        .collect();
    let expected = ["aggregate", "eval", "local_train", "round", "sync"].map(|p| (p, rounds));
    assert_eq!(shared, expected, "the shared phases, once a round each");
}
