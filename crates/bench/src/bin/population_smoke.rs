//! `population-smoke`: the CI gate for the event-driven population
//! simulator (verify.sh runs it).
//!
//! One configuration — 256 clients sampled per round from 100k registered,
//! and once more from 1M — checked four ways:
//!
//! 1. **Zero-alloc steady state**: after the warm-up round fills the slab
//!    size classes, further rounds must not miss in the slab store at all,
//!    no matter which clients the cohort samples, at either population.
//! 2. **Sampling determinism**: a rerun at a *different* thread count must
//!    produce a bitwise-identical global model and an identical encoded
//!    trajectory (cohorts are drawn from `(seed, round)`, never from
//!    wall-clock or thread state).
//! 3. **Dormant-state compactness**: the registry must hold only clients
//!    that actually participated, at a few dozen bytes each — never the
//!    registered population.
//! 4. **Registering is free**: the deterministic `steady_resident_bytes`
//!    accounting at 1M registered must stay within 10% of the 100k run —
//!    resident memory scales with the sampled cohort, and dormant clients
//!    that never participated hold no state.
//!
//! Exits 0 when all gates hold, 1 otherwise (with a message per failure).

use std::process::ExitCode;

use apf::ApfConfig;
use apf_data::{Dataset, SynthImageGen};
use apf_fedsim::{
    FlConfig, OptimizerKind, PopulationConfig, PopulationData, PopulationRunner, Trajectory,
};
use apf_nn::{models, LrSchedule};
use apf_quant::EmaCodec;
use apf_tensor::{slab, Tensor};

const REGISTERED: usize = 100_000;
/// The second population: ten times the registered clients, same cohort.
const REGISTERED_LARGE: usize = 1_000_000;
const COHORT: usize = 256;
const ROUNDS: u64 = 4;

fn build_runner(registered: usize) -> PopulationRunner {
    let gen = SynthImageGen::new(11);
    let row = gen.sample_numel();
    let mut test_data = Vec::new();
    let mut test_labels = Vec::new();
    gen.fill_split(128, 1, &mut test_data, &mut test_labels);
    let test = Dataset::new(
        Tensor::from_vec(test_data, &[128, row]),
        test_labels,
        apf_data::NUM_CLASSES,
    );
    let cfg = PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds: ROUNDS as usize,
            batch_size: 4,
            eval_every: 2,
            eval_batch: 64,
            seed: 11,
            prox_mu: None,
            drop_stragglers: false,
            participation: 1.0,
            parallel: true,
        },
        registered,
        cohort: COHORT,
        codec: EmaCodec::Dense,
        shells: 32,
        apf: ApfConfig::default(),
        wire_f16: false,
        // Momentum makes the optimizer export non-empty, so the dormant
        // blob codec round-trips real state, not just RNG + counters.
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    };
    PopulationRunner::new(
        cfg,
        move |seed| models::mlp("smoke-mlp", &[row, 16, 10], seed),
        PopulationData::Synth { gen, per_client: 8 },
        test,
    )
}

/// What one run leaves behind for the gates.
struct Outcome {
    trajectory: Trajectory,
    global: Vec<f32>,
    /// Slab misses incurred after the warm-up round.
    steady_misses: u64,
    registry_clients: usize,
    steady_resident_bytes: u64,
}

/// Runs all rounds over `registered` clients from an empty slab store.
fn run(registered: usize, threads: usize) -> Outcome {
    apf_par::set_threads(threads);
    slab::clear();
    let mut runner = build_runner(registered);
    runner.run_round(0);
    let (_, misses_warm, _, _) = slab::global_stats();
    for r in 1..ROUNDS {
        runner.run_round(r);
    }
    let (_, misses_after, _, _) = slab::global_stats();
    Outcome {
        trajectory: Trajectory::from_log(runner.log()),
        global: runner.global().to_vec(),
        steady_misses: misses_after - misses_warm,
        registry_clients: runner.registry().len(),
        steady_resident_bytes: runner.steady_resident_bytes(),
    }
}

fn main() -> ExitCode {
    println!(
        "population-smoke: {REGISTERED} and {REGISTERED_LARGE} registered, {COHORT} sampled, {ROUNDS} rounds"
    );
    let a = run(REGISTERED, 4);
    let b = run(REGISTERED, 2);
    let large = run(REGISTERED_LARGE, 4);
    let mut failures = 0u32;

    for (registered, misses) in [
        (REGISTERED, a.steady_misses),
        (REGISTERED_LARGE, large.steady_misses),
    ] {
        if misses != 0 {
            println!("FAIL: {misses} slab misses after the warm-up round at {registered} registered (want 0)");
            failures += 1;
        } else {
            println!("ok: zero steady-state slab misses at {registered} registered");
        }
    }

    let (small_bytes, large_bytes) = (a.steady_resident_bytes, large.steady_resident_bytes);
    if large_bytes.abs_diff(small_bytes) * 10 > small_bytes {
        println!(
            "FAIL: steady resident bytes {small_bytes} at {REGISTERED} registered, \
             {large_bytes} at {REGISTERED_LARGE} (want within 10%)"
        );
        failures += 1;
    } else {
        println!(
            "ok: steady resident bytes {small_bytes} at {REGISTERED} registered, \
             {large_bytes} at {REGISTERED_LARGE}"
        );
    }

    if let Some(divergence) = a.trajectory.diff(&b.trajectory) {
        println!("FAIL: rerun at a different thread count diverged: {divergence}");
        failures += 1;
    } else {
        println!("ok: trajectory identical across reruns and thread counts");
    }
    let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    if bits(&a.global) != bits(&b.global) {
        println!("FAIL: global model bits diverged between reruns");
        failures += 1;
    } else {
        println!("ok: global model bitwise identical across reruns");
    }

    // Every participant must be registered as dormant state, and dormant
    // state must stay tiny relative to the registered population.
    let max_participants = (ROUNDS as usize) * COHORT;
    let registry_a = a.registry_clients;
    if registry_a == 0 || registry_a > max_participants {
        println!("FAIL: registry holds {registry_a} clients (want 1..={max_participants})");
        failures += 1;
    } else {
        println!("ok: registry holds {registry_a} participants of {REGISTERED} registered");
    }

    println!("{}", a.trajectory.encode());
    if failures == 0 {
        println!("population-smoke: all gates passed");
        ExitCode::SUCCESS
    } else {
        println!("population-smoke: {failures} gate(s) FAILED");
        ExitCode::FAILURE
    }
}
