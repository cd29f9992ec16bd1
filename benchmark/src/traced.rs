//! The traced run: per-layer metrics from harness spans around the program's
//! public calls, a replay `ApfManager`, and the layer probes. It also holds
//! the bitwise output checks that need two executions side by side.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use apf::{Aimd, ApfManager, DormantApfState};
use apf_data::{Dataset, SynthImageGen};
use apf_fedsim::{Client, RoundRecord};
use apf_nn::{LrSchedule, Trainer};
use apf_tensor::{derive_seed, Tensor};
use apf_trace::{Level, MemorySink};

use crate::metrics::Report;
use crate::probes::{self, time_ms, ProbeInput};
use crate::session::{self, Session};
use crate::spans::{coverage_pct, Recorder};
use crate::staged::{self, CoreTimes, Paired};
use crate::stats::{median, quantile_sorted, sorted, tail_ten_beyond};
use crate::workloads::{
    pop_config, pop_model, pop_runner, pop_test_and_gen, sgd, Kind, SimDef, Workload, POP_COHORT,
    POP_PER_CLIENT,
};

/// Rounds of the simulator run that alternates `apf-trace` off and on.
const ALTERNATING_SIM: usize = 41;
/// The same for the population runner, whose rounds are four times longer.
const ALTERNATING_POP: usize = 21;

/// The traced run of `w`: per-layer metrics and the side-by-side checks.
///
/// # Errors
/// Returns the reason a session could not finish.
pub fn per_layer(w: &Workload, seed: u64, smoke: bool, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if smoke {
        probes::SMOKE_REPS
    } else {
        probes::REPS
    };
    let rec = match w.kind {
        Kind::SimLenet | Kind::SimMlp => traced_sim(w, seed, reps, &mut report),
        Kind::Pop => traced_pop(w, seed, reps, &mut report),
        Kind::Net => traced_net(w, seed, reps, &mut report)?,
    };
    let coverage = report.get("trace.coverage_pct").unwrap_or(0.0);
    report.check(coverage >= 95.0, || {
        format!("harness spans cover {coverage:.1}% of the round, below 95%")
    });
    let path = out_dir.join(format!("{}.trace.jsonl", w.name));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}

/// Tail and drift of the round driver's own round times.
fn record_round_tail(round_ms: &[f64], report: &mut Report) {
    report.check(!round_ms.is_empty(), || "no round was timed".to_owned());
    let chrono = if round_ms.is_empty() {
        &[0.0][..]
    } else {
        round_ms
    };
    let s = sorted(chrono);
    let q = (s.len() / 4).max(1);
    report.set("round_ms_p90", tail_ten_beyond(&s));
    report.set("round_ms_max", quantile_sorted(&s, 1.0));
    report.set("rounds_timed", round_ms.len() as f64);
    report.set("round_ms_first_q", median(&chrono[..q]));
    report.set("round_ms_last_q", median(&chrono[chrono.len() - q..]));
}

/// One client's `ApfManager` cost, Table 4 of the paper: manager time per
/// round over that client's compute time per round. `shared_by` clients
/// share one manager's `apply_aggregate` and `finish_round` (1 where every
/// client has its own, the cohort size in the population runner).
fn record_core(
    core: &CoreTimes,
    (local_iters, shared_by): (usize, usize),
    local_round_ms: f64,
    records: &[RoundRecord],
    replay: &ApfManager,
    report: &mut Report,
) {
    let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let (finish, apply) = (m(&core.finish_round), m(&core.apply_aggregate));
    let (rollback, select) = (m(&core.rollback), m(&core.select_unfrozen));
    report.set("core.finish_round_ms", finish);
    report.set("core.apply_aggregate_ms", apply);
    report.set("core.rollback_ms", rollback);
    report.set("core.select_unfrozen_ms", select);
    report.set("core.frozen_mask_packed_ms", m(&core.frozen_mask_packed));
    // Per round a client rolls back after every local iteration (inside
    // `local_round`) and once more before upload; then its manager applies
    // the aggregate and finishes the round.
    let at_sync = rollback + (apply + finish) / shared_by as f64;
    report.set(
        "core.overhead_pct",
        100.0 * (local_iters as f64 * rollback + at_sync) / (local_round_ms + at_sync),
    );
    let ratios: Vec<f64> = records.iter().map(|r| f64::from(r.frozen_ratio)).collect();
    report.set(
        "core.frozen_ratio_final_pct",
        100.0 * ratios.last().copied().unwrap_or(0.0),
    );
    report.set(
        "core.frozen_ratio_mean_pct",
        100.0 * ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
    report.set("core.checks_run", replay.checks_run() as f64);
    report.set("final_loss", session::final_loss(records));
    report.set("best_accuracy_pct", session::best_accuracy_pct(records));
}

/// Client and strategy layers from the staged rounds' spans.
fn record_staged(p: &Paired, warmup: usize, report: &mut Report) -> f64 {
    let from = warmup as u64;
    let total: f64 = p.rec.durations_ms(staged::ROUND, from).iter().sum();
    let local = p.rec.durations_ms(staged::LOCAL_ROUND, from);
    let sync: Vec<f64> = p.sync_ms.iter().map(|s| s.0).collect();
    let local_round_ms = median(&local);
    report.set("fedsim.client.local_round_ms", local_round_ms);
    report.set(
        "fedsim.client.local_share_pct",
        100.0 * local.iter().sum::<f64>() / total,
    );
    report.set(
        "fedsim.client.flat_params_ms",
        median(&p.rec.durations_ms(staged::FLAT_PARAMS, from)),
    );
    report.set(
        "fedsim.client.load_flat_ms",
        median(&p.rec.durations_ms(staged::LOAD_FLAT, from)),
    );
    report.set("fedsim.strategy.sync_round_ms", median(&sync));
    report.set(
        "fedsim.strategy.sync_share_pct",
        100.0 * sync.iter().sum::<f64>() / total,
    );
    for (name, keep) in [
        (
            "fedsim.strategy.sync_round_ms_lo_frozen",
            (|f| f < 0.10) as fn(f32) -> bool,
        ),
        ("fedsim.strategy.sync_round_ms_hi_frozen", |f| f > 0.50),
    ] {
        let v: Vec<f64> = p
            .sync_ms
            .iter()
            .filter(|s| keep(s.1))
            .map(|s| s.0)
            .collect();
        if !v.is_empty() {
            report.set(name, median(&v));
        }
    }
    local_round_ms
}

fn zero(report: &mut Report, names: &[&str]) {
    for name in names {
        report.set(name, 0.0);
    }
}

const POPULATION_ONLY: [&str; 3] = [
    "fedsim.population.registry_clients",
    "fedsim.population.registry_bytes",
    "fedsim.population.steady_resident_bytes",
];
const NET_ONLY: [&str; 4] = [
    "net.wire_bytes_total",
    "net.framing_overhead_pct",
    "net.lost_clients",
    "net.vs_sim_ratio",
];

/// Overhead (percent) of `apf-trace` at Info into a `MemorySink`, from
/// samples that alternate untraced (even index) and traced (odd index):
/// each traced sample against the mean of its two untraced neighbours, so
/// that a drifting round time cancels. A comparison in which `skip` holds
/// for any of the three samples is left out.
fn enabled_overhead_pct(samples: &[f64], skip: &dyn Fn(usize) -> bool) -> f64 {
    let ratios: Vec<f64> = (1..samples.len().saturating_sub(1))
        .step_by(2)
        .filter(|&i| !(skip(i - 1) || skip(i) || skip(i + 1)))
        .map(|i| samples[i] / ((samples[i - 1] + samples[i + 1]) / 2.0) - 1.0)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        100.0 * median(&ratios)
    }
}

/// Switches `apf-trace` for sample `i` of an alternating run.
fn alternate_tracing(i: usize, sink: &Arc<MemorySink>) {
    if i % 2 == 1 {
        apf_trace::init(Level::Info, sink.clone());
    } else {
        apf_trace::set_level(None);
    }
}

/// Times `run_round` over rounds `0..n` with `apf-trace` alternately off
/// and on. Rounds that evaluate the model (every `eval_every`) cost more
/// whatever the tracing does, so comparisons touching one are left out.
fn alternating_rounds(n: usize, eval_every: usize, run_round: &mut dyn FnMut(u64)) -> f64 {
    let sink = Arc::new(MemorySink::new());
    let samples: Vec<f64> = (0..n)
        .map(|r| {
            alternate_tracing(r, &sink);
            let t = Instant::now();
            run_round(r as u64);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    apf_trace::shutdown();
    enabled_overhead_pct(&samples, &|r| r.is_multiple_of(eval_every))
}

fn pool_metrics(scratch_misses: u64, slab_misses: u64, report: &mut Report) {
    report.set("tensor.scratch_misses_steady", scratch_misses as f64);
    report.set("tensor.slab_misses_steady", slab_misses as f64);
    report.set(
        "tensor.slab_resident_bytes",
        apf_tensor::slab::global_stats().3 as f64,
    );
}

/// Probes on the end-of-run state of a lock-step simulator run.
fn probe_paired(def: &SimDef, p: &Paired, stop: usize, reps: usize, report: &mut Report) {
    let cfg = def.config();
    let (trainer, optimizer) = def.trainer_and_optimizer();
    probes::run(
        ProbeInput {
            trainer,
            optimizer,
            shard: p.parts.clients[0].data(),
            batch_size: cfg.batch_size,
            test: (&p.parts.test, cfg.eval_batch),
            params: &p.global,
            manager: &p.replay,
            apf: p.parts.apf,
            next_round: stop as u64,
            wire_f16: matches!(def, SimDef::Spec(s) if s.wire_f16()),
            scope_tasks: p.parts.clients.len(),
            seed: cfg.seed,
            reps,
        },
        report,
    );
}

fn as_session(p: &Paired) -> Session {
    let clients = p.parts.clients.len() as u64;
    Session::in_process(
        0.0,
        p.runner_ms.clone(),
        p.records.clone(),
        p.global.clone(),
        clients,
        clients,
    )
}

fn traced_sim(w: &Workload, seed: u64, reps: usize, report: &mut Report) -> Recorder {
    let def = SimDef::new(w.kind, seed, w.rounds());
    let p = staged::run_paired(&def, w.warmup, w.rounds(), report);
    session::check(w, &as_session(&p), report);
    record_round_tail(&p.runner_ms, report);
    let local_round_ms = record_staged(&p, w.warmup, report);
    record_core(
        &p.core,
        (def.config().local_iters, 1),
        local_round_ms,
        &p.records,
        &p.replay,
        report,
    );
    pool_metrics(p.pool_misses.0, p.pool_misses.1, report);
    zero(report, &POPULATION_ONLY);
    zero(report, &NET_ONLY);
    report.set(
        "trace.coverage_pct",
        coverage_pct(p.rec.spans(), staged::ROUND),
    );
    report.set(
        "trace.harness_overhead_pct",
        100.0 * (median(&p.staged_ms) / median(&p.runner_ms) - 1.0),
    );
    let mut runner = def.runner();
    let cfg = def.config();
    report.set(
        "trace.enabled_overhead_pct",
        alternating_rounds(ALTERNATING_SIM.min(w.rounds()), cfg.eval_every, &mut |r| {
            runner.run_round(r);
        }),
    );
    probe_paired(&def, &p, w.rounds(), reps, report);
    p.rec
}

fn traced_net(
    w: &Workload,
    seed: u64,
    reps: usize,
    report: &mut Report,
) -> Result<Recorder, String> {
    // Session A, under harness spans: the three threads' calls.
    let mut rec = Recorder::new();
    let root = rec.enter("session", 0);
    let (a, raw) = session::run_net(w, seed, &mut |_| {})?;
    rec.exit(root);
    rec.add(
        "net.server.serve",
        raw.server_span.start,
        raw.server_span.end,
        Some(root),
        0,
    );
    for c in &raw.client_spans {
        rec.add("net.client.run_client", c.start, c.end, Some(root), 0);
    }
    session::check(w, &a, report);
    // Session B, plain: the driver's own round times.
    let b = session::run(w, seed)?;
    session::check(w, &b, report);
    report.check(session::same_outputs(&a, &b), || {
        "two net sessions of one seed differ".to_owned()
    });
    record_round_tail(&b.round_ms, report);
    report.set("trace.coverage_pct", coverage_pct(rec.spans(), "session"));
    report.set(
        "trace.harness_overhead_pct",
        100.0 * (median(&a.round_ms) / median(&b.round_ms) - 1.0),
    );
    // Session C: apf-trace off and on in alternating windows.
    let sink = Arc::new(MemorySink::new());
    let c = session::run_net(w, seed, &mut |i| alternate_tracing(i, &sink));
    apf_trace::shutdown();
    report.set(
        "trace.enabled_overhead_pct",
        enabled_overhead_pct(&c?.0.round_ms, &|_| false),
    );
    // The same spec in process, staged, over the first third of the rounds:
    // the net log must repeat it bit for bit.
    let def = SimDef::new(Kind::Net, seed, w.rounds());
    let prefix = (w.rounds() / 3).max(w.warmup + 3).min(w.rounds());
    let p = staged::run_paired(&def, w.warmup, prefix, report);
    let same = a.records.iter().zip(&p.records).all(|(n, s)| {
        (
            n.loss.to_bits(),
            n.frozen_ratio.to_bits(),
            n.bytes_up,
            n.bytes_down,
        ) == (
            s.loss.to_bits(),
            s.frozen_ratio.to_bits(),
            s.bytes_up,
            s.bytes_down,
        )
    });
    report.check(same && a.records.len() >= prefix, || {
        format!("net log differs from the staged simulator over rounds 0..{prefix}")
    });
    let local_round_ms = record_staged(&p, w.warmup, report);
    record_core(
        &p.core,
        (def.config().local_iters, 1),
        local_round_ms,
        &a.records,
        &p.replay,
        report,
    );
    pool_metrics(p.pool_misses.0, p.pool_misses.1, report);
    zero(report, &POPULATION_ONLY);
    let net = a.net.as_ref().expect("a net session has net facts");
    let wire = net.wire_bytes as f64;
    let ledger: u64 = a.records.iter().map(|r| r.bytes_up + r.bytes_down).sum();
    report.set("net.wire_bytes_total", wire);
    report.set(
        "net.framing_overhead_pct",
        100.0 * (wire / (a.init_bytes() + ledger) as f64 - 1.0),
    );
    report.set("net.lost_clients", net.lost_clients as f64);
    report.set(
        "net.vs_sim_ratio",
        median(&b.round_ms) / median(&p.staged_ms),
    );
    report.set("net.join_ms", net.join_ms);
    probe_paired(&def, &p, prefix, reps, report);
    Ok(rec)
}

/// One cohort client built from public pieces as `PopulationRunner` builds
/// its shells, for the client-layer probes the runner hides.
fn pop_probe_client(seed: u64) -> Client {
    let cfg = pop_config(seed, 1);
    let gen = SynthImageGen::new(seed);
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    gen.fill_split(POP_PER_CLIENT, 2, &mut data, &mut labels);
    let shard = Dataset::new(
        Tensor::from_vec(data, &[POP_PER_CLIENT, gen.sample_numel()]),
        labels,
        apf_data::NUM_CLASSES,
    );
    let trainer = Trainer::new(
        pop_model(derive_seed(seed, 0x30DE1)),
        sgd(0.05, 0.0, 0.0),
        LrSchedule::Constant(0.05),
    );
    Client::new(trainer, shard, cfg.fl.batch_size, derive_seed(seed, 0))
}

fn traced_pop(w: &Workload, seed: u64, reps: usize, report: &mut Report) -> Recorder {
    let cfg = pop_config(seed, w.rounds());
    // Session A, under harness spans, with a replay manager fed each
    // round's global model through the same dormant hop the runner makes.
    let mut rec = Recorder::new();
    let mut runner = pop_runner(seed, w.rounds());
    let init = runner.global().to_vec();
    let mut replay = ApfManager::new(&init, cfg.apf, Box::new(Aimd::default()))
        .expect("workload APF config is valid");
    let (mut params, mut tmp) = (init.clone(), init);
    let (mut core, mut warm_core) = (CoreTimes::default(), CoreTimes::default());
    let mut traced_ms = Vec::new();
    let mut replay_mismatches = 0usize;
    let mut misses_at_warm = (0, 0);
    for round in 0..w.rounds() as u64 {
        let timed = round >= w.warmup as u64;
        if round == w.warmup as u64 {
            misses_at_warm = staged::pool_misses();
        }
        let root = rec.enter(staged::ROUND, round);
        let s = rec.enter("fedsim.population.run_round", round);
        let record = runner.run_round(round);
        rec.exit(s);
        let ms = rec.exit(root);
        if timed {
            traced_ms.push(ms);
        }
        let times = if timed { &mut core } else { &mut warm_core };
        let rep = times.replay_round(&mut replay, &mut params, &mut tmp, runner.global(), round);
        if rep.frozen_ratio().to_bits() != record.frozen_ratio.to_bits()
            || rep.bytes_up * POP_COHORT as u64 != record.bytes_up
        {
            replay_mismatches += 1;
        }
        let dormant = DormantApfState::encode(&replay.snapshot(), cfg.codec);
        replay = ApfManager::restore(
            dormant.decode(cfg.apf).expect("self-encoded blob"),
            Box::new(Aimd::default()),
        );
    }
    report.check(replay_mismatches == 0, || {
        format!("replay manager disagrees with the runner's log in {replay_mismatches} rounds")
    });
    let (scratch, slab) = staged::pool_misses();
    let slab_misses = slab - misses_at_warm.1;
    report.check(slab_misses == 0, || {
        format!("{slab_misses} slab misses after warm-up")
    });
    pool_metrics(scratch - misses_at_warm.0, slab_misses, report);
    report.set(
        "fedsim.population.registry_clients",
        runner.registry().len() as f64,
    );
    report.set(
        "fedsim.population.registry_bytes",
        runner.registry().resident_bytes() as f64,
    );
    report.set(
        "fedsim.population.steady_resident_bytes",
        runner.steady_resident_bytes() as f64,
    );
    let a = Session::in_process(
        0.0,
        traced_ms,
        runner.log().records.clone(),
        runner.global().to_vec(),
        POP_COHORT as u64,
        runner.registry().len() as u64,
    );
    drop(runner);
    session::check(w, &a, report);
    // Session B, plain.
    let b = session::run_driven(w, seed, w.rounds());
    session::check(w, &b, report);
    report.check(session::same_outputs(&a, &b), || {
        "traced and untraced population sessions of one seed differ".to_owned()
    });
    record_round_tail(&b.round_ms, report);
    report.set(
        "trace.coverage_pct",
        coverage_pct(rec.spans(), staged::ROUND),
    );
    report.set(
        "trace.harness_overhead_pct",
        100.0 * (median(&a.round_ms) / median(&b.round_ms) - 1.0),
    );
    let mut runner = pop_runner(seed, w.rounds());
    report.set(
        "trace.enabled_overhead_pct",
        alternating_rounds(
            ALTERNATING_POP.min(w.rounds()),
            cfg.fl.eval_every,
            &mut |r| {
                runner.run_round(r);
            },
        ),
    );
    drop(runner);
    // The runner reports its own split of the round: `compute_secs` is the
    // cohort's local training, the rest is materializing, reducing,
    // applying, the dormant hop and evaluation.
    let timed = &a.records[w.warmup.min(a.records.len())..];
    let total: f64 = a.round_ms.iter().sum();
    let compute: f64 = timed.iter().map(|r| r.compute_secs * 1e3).sum();
    let rest: Vec<f64> = timed
        .iter()
        .zip(&a.round_ms)
        .map(|(r, ms)| ms - r.compute_secs * 1e3)
        .collect();
    report.set("fedsim.client.local_share_pct", 100.0 * compute / total);
    report.set("fedsim.strategy.sync_round_ms", median(&rest));
    report.set(
        "fedsim.strategy.sync_share_pct",
        100.0 * (1.0 - compute / total),
    );
    // The client layer, on one cohort client at the run's final mask.
    let next_round = w.rounds() as u64;
    let mut client = pop_probe_client(seed);
    client.load_flat(&a.global);
    let hook = |p: &mut [f32]| replay.rollback(p, next_round);
    let local_round_ms = time_ms(reps, || {
        client.local_round(cfg.fl.local_iters, &hook);
    });
    report.set("fedsim.client.local_round_ms", local_round_ms);
    report.set(
        "fedsim.client.flat_params_ms",
        time_ms(reps, || apf_tensor::scratch::give(client.flat_params())),
    );
    report.set(
        "fedsim.client.load_flat_ms",
        time_ms(reps, || client.load_flat(&a.global)),
    );
    record_core(
        &core,
        (cfg.fl.local_iters, POP_COHORT),
        local_round_ms,
        &a.records,
        &replay,
        report,
    );
    zero(report, &NET_ONLY);
    let (test, _) = pop_test_and_gen(seed);
    probes::run(
        ProbeInput {
            trainer: Trainer::new(
                pop_model(derive_seed(seed, 0x30DE1)),
                sgd(0.05, 0.0, 0.0),
                LrSchedule::Constant(0.05),
            ),
            optimizer: sgd(0.05, 0.0, 0.0),
            shard: client.data(),
            batch_size: cfg.fl.batch_size,
            test: (&test, cfg.fl.eval_batch),
            params: &a.global,
            manager: &replay,
            apf: cfg.apf,
            next_round,
            wire_f16: false,
            scope_tasks: cfg.shells,
            seed,
            reps,
        },
        report,
    );
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_overhead_compares_traced_samples_with_their_neighbours() {
        // Untraced rounds drift 10, 12, 14; traced rounds cost 10% more than
        // the mean of their neighbours.
        let samples = [10.0, 12.1, 12.0, 14.3, 14.0];
        assert!((enabled_overhead_pct(&samples, &|_| false) - 10.0).abs() < 1e-9);
        assert_eq!(enabled_overhead_pct(&[10.0, 11.0], &|_| false), 0.0);
        // Sample 4 evaluated the model: only the first comparison counts.
        let samples = [10.0, 11.0, 10.0, 30.0, 50.0];
        assert!((enabled_overhead_pct(&samples, &|i| i == 4) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn round_tail_reports_quartile_medians_in_time_order() {
        let mut r = Report::default();
        let ms: Vec<f64> = (1..=40).map(f64::from).collect();
        record_round_tail(&ms, &mut r);
        assert_eq!(r.get("rounds_timed"), Some(40.0));
        assert_eq!(r.get("round_ms_max"), Some(40.0));
        assert_eq!(r.get("round_ms_p90"), Some(30.0));
        assert_eq!(r.get("round_ms_first_q"), Some(5.5));
        assert_eq!(r.get("round_ms_last_q"), Some(35.5));
    }
}
