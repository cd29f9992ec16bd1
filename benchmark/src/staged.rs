//! The staged simulator round: `FlRunner::run_round` rebuilt by the harness
//! from the same public calls, each inside a harness span, and run in
//! lock-step with the program's own `FlRunner` so that the two can be
//! compared bit for bit and round for round.
//!
//! Stages: `Client::local_round` (with `SyncStrategy::post_local_iteration`
//! as its hook) → `Client::flat_params` → `SyncStrategy::sync_round` →
//! `Client::load_flat` → `apf_nn::evaluate`.

use std::time::Instant;

use apf::{Aimd, ApfManager};
use apf_fedsim::{FlConfig, RoundRecord, SyncStrategy};

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::workloads::{SimDef, SimParts};

/// Span name of one staged round.
pub const ROUND: &str = "round";
/// Span name of one client's local training.
pub const LOCAL_ROUND: &str = "fedsim.client.local_round";
/// Span name of gathering every client's flat model.
pub const FLAT_PARAMS: &str = "fedsim.client.flat_params";
/// Span name of the strategy's synchronization.
pub const SYNC_ROUND: &str = "fedsim.strategy.sync_round";
/// Span name of writing the synchronized models back.
pub const LOAD_FLAT: &str = "fedsim.client.load_flat";
/// Span name of evaluating the global model.
pub const EVALUATE: &str = "nn.evaluate";

/// Per-round wall times (ms) of one client's `ApfManager` calls, taken on a
/// replay manager that is fed the recorded global models and must evolve
/// exactly as the strategy's own managers do.
#[derive(Debug, Default)]
pub struct CoreTimes {
    /// `ApfManager::finish_round`.
    pub finish_round: Vec<f64>,
    /// `ApfManager::apply_aggregate_dense`.
    pub apply_aggregate: Vec<f64>,
    /// `ApfManager::rollback`.
    pub rollback: Vec<f64>,
    /// `ApfManager::select_unfrozen`.
    pub select_unfrozen: Vec<f64>,
    /// `ApfManager::frozen_mask_packed`.
    pub frozen_mask_packed: Vec<f64>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl CoreTimes {
    /// Advances `replay` through round `round`, whose synchronized result is
    /// `new_global`, timing each manager call. `params` holds the previous
    /// global model and is updated in place; `tmp` is scratch of the same
    /// length.
    pub fn replay_round(
        &mut self,
        replay: &mut ApfManager,
        params: &mut [f32],
        tmp: &mut [f32],
        new_global: &[f32],
        round: u64,
    ) -> apf::SyncReport {
        let t = Instant::now();
        let mask = replay.frozen_mask_packed(round);
        self.frozen_mask_packed.push(ms(t));
        drop(mask);
        tmp.copy_from_slice(new_global);
        let t = Instant::now();
        replay.rollback(tmp, round);
        self.rollback.push(ms(t));
        let t = Instant::now();
        let upload = replay.select_unfrozen(tmp, round);
        self.select_unfrozen.push(ms(t));
        drop(upload);
        let t = Instant::now();
        replay.apply_aggregate_dense(params, new_global, round);
        self.apply_aggregate.push(ms(t));
        let t = Instant::now();
        let report = replay.finish_round(params, round);
        self.finish_round.push(ms(t));
        report
    }
}

/// Everything the lock-step run measured.
pub struct Paired {
    /// The staged rounds' spans.
    pub rec: Recorder,
    /// Wall time (ms) of each timed staged round.
    pub staged_ms: Vec<f64>,
    /// Wall time (ms) of `FlRunner::run_round` on the same rounds.
    pub runner_ms: Vec<f64>,
    /// The program's log, warm-up included.
    pub records: Vec<RoundRecord>,
    /// `sync_round` wall time (ms) and the frozen ratio of its round, timed
    /// rounds only.
    pub sync_ms: Vec<(f64, f32)>,
    /// One client's manager calls, timed rounds only.
    pub core: CoreTimes,
    /// The staged pieces in their end-of-run state.
    pub parts: SimParts,
    /// The replay manager in its end-of-run state.
    pub replay: ApfManager,
    /// The final global model.
    pub global: Vec<f32>,
    /// `(scratch, slab)` pool misses over the timed rounds.
    pub pool_misses: (u64, u64),
}

/// `(scratch, slab)` pool misses of the process so far.
pub fn pool_misses() -> (u64, u64) {
    (
        apf_tensor::scratch::global_stats().1,
        apf_tensor::slab::global_stats().1,
    )
}

fn evaluates_at(cfg: &FlConfig, round: u64) -> bool {
    round.is_multiple_of(cfg.eval_every as u64) || round + 1 == cfg.rounds as u64
}

/// Runs rounds `0..stop` of `def` twice in lock-step — the staged round,
/// then `FlRunner::run_round` — and checks into `report` that they agree
/// bitwise on every round's loss, frozen ratio, bytes and accuracy, on the
/// final global model, and that the replay manager's masks equal the
/// strategy's every round.
pub fn run_paired(def: &SimDef, warmup: usize, stop: usize, report: &mut Report) -> Paired {
    let cfg = def.config();
    let mut parts = def.parts();
    let mut runner = def.runner();
    let mut replay = ApfManager::new(&parts.init, parts.apf, Box::new(Aimd::default()))
        .expect("workload APF config is valid");
    let n_clients = parts.clients.len();
    let weights = vec![1.0f32; n_clients];
    let mut global = parts.init.clone();
    let mut replay_params = parts.init.clone();
    let mut tmp = parts.init.clone();
    let mut rec = Recorder::new();
    let (mut staged_times, mut runner_times, mut sync_times) = (Vec::new(), Vec::new(), Vec::new());
    let (mut core, mut warm_core) = (CoreTimes::default(), CoreTimes::default());
    let mut mismatches = Vec::new();
    let mut mask_mismatches = 0usize;
    let mut best_accuracy = 0.0f32;
    let mut misses_at_warm = (0, 0);
    for round in 0..stop as u64 {
        let timed = round >= warmup as u64;
        if round == warmup as u64 {
            misses_at_warm = pool_misses();
        }
        // The staged round.
        let strategy = &parts.strategy;
        let round_span = rec.enter(ROUND, round);
        let mut losses = vec![0.0f32; n_clients];
        for (i, client) in parts.clients.iter_mut().enumerate() {
            let s = rec.enter(LOCAL_ROUND, round);
            let hook = move |p: &mut [f32]| strategy.post_local_iteration(round, i, p);
            losses[i] = client.local_round(cfg.local_iters, &hook);
            rec.exit(s);
        }
        let s = rec.enter(FLAT_PARAMS, round);
        let mut locals: Vec<Vec<f32>> = parts.clients.iter_mut().map(|c| c.flat_params()).collect();
        rec.exit(s);
        let s = rec.enter(SYNC_ROUND, round);
        let comm = parts
            .strategy
            .sync_round(round, &mut locals, &weights, &mut global);
        let sync_ms = rec.exit(s);
        let s = rec.enter(LOAD_FLAT, round);
        for (c, l) in parts.clients.iter_mut().zip(&locals) {
            c.load_flat(l);
        }
        rec.exit(s);
        let accuracy = evaluates_at(&cfg, round).then(|| {
            let s = rec.enter(EVALUATE, round);
            parts.eval_model.load_flat(&global);
            let acc = apf_nn::evaluate(
                &mut parts.eval_model,
                parts.test.inputs(),
                parts.test.labels(),
                cfg.eval_batch,
            );
            rec.exit(s);
            acc
        });
        let staged_ms = rec.exit(round_span);
        drop(locals);
        // One client's manager, replayed outside the staged round.
        let times = if timed { &mut core } else { &mut warm_core };
        times.replay_round(&mut replay, &mut replay_params, &mut tmp, &global, round);
        if replay.frozen_mask_packed(round + 1)
            != parts.strategy.managers()[0].frozen_mask_packed(round + 1)
        {
            mask_mismatches += 1;
        }
        // The program's own round.
        let t = Instant::now();
        let record = runner.run_round(round);
        let runner_ms = ms(t);
        if timed {
            staged_times.push(staged_ms);
            runner_times.push(runner_ms);
            sync_times.push((sync_ms, comm.frozen_ratio));
        }
        best_accuracy = accuracy.map_or(best_accuracy, |a| best_accuracy.max(a));
        let loss = losses.iter().sum::<f32>() / n_clients as f32;
        let same = loss.to_bits() == record.loss.to_bits()
            && comm.frozen_ratio.to_bits() == record.frozen_ratio.to_bits()
            && (comm.bytes_up, comm.bytes_down) == (record.bytes_up, record.bytes_down)
            && accuracy.map(f32::to_bits) == record.accuracy.map(f32::to_bits)
            && best_accuracy.to_bits() == record.best_accuracy.to_bits();
        if !same {
            mismatches.push(round);
        }
    }
    report.check(mismatches.is_empty(), || {
        format!("staged round differs from FlRunner::run_round in rounds {mismatches:?}")
    });
    let same_global = global.len() == runner.global().len()
        && global
            .iter()
            .zip(runner.global())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same_global, || {
        "staged final global differs from FlRunner's".to_owned()
    });
    report.check(mask_mismatches == 0, || {
        format!("replay manager's mask differs from the strategy's in {mask_mismatches} rounds")
    });
    let (scratch, slab) = pool_misses();
    Paired {
        rec,
        staged_ms: staged_times,
        runner_ms: runner_times,
        records: runner.log().records.clone(),
        sync_ms: sync_times,
        core,
        parts,
        replay,
        global,
        pool_misses: (scratch - misses_at_warm.0, slab - misses_at_warm.1),
    }
}
