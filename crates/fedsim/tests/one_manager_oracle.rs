//! Differential test of the one-manager [`ApfStrategy`] against the
//! implementation it replaced: N independent [`ApfManager`] replicas, one
//! per client, each rebuilding the round's mask on every call. The replica
//! loop survives only here, as the oracle.
//!
//! Bitwise equality every round — locals, global, [`RoundComm`], next
//! round's mask — is what licenses sharing one manager; that the oracle's
//! own N masks equal one another is the §6.2 property underneath it.

use apf::{Aimd, ApfConfig, ApfManager, ApfVariant};
use apf_fedsim::{ApfStrategy, RoundComm, SyncStrategy};
use apf_quant::f16_roundtrip_in_place;
use apf_testkit::{prop_assert, property, u64s, usizes, TestCaseError};

/// The pre-sharing `ApfStrategy`: one manager per client.
struct ReplicaOracle {
    managers: Vec<ApfManager>,
    quantize_f16: bool,
}

impl ReplicaOracle {
    fn new(init: &[f32], cfg: ApfConfig, clients: usize, quantize_f16: bool) -> Self {
        let cfg = ApfConfig {
            bytes_per_scalar: if quantize_f16 { 2 } else { 4 },
            ..cfg
        };
        ReplicaOracle {
            managers: (0..clients)
                .map(|_| ApfManager::new(init, cfg, Box::new(Aimd::default())).unwrap())
                .collect(),
            quantize_f16,
        }
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut [f32],
    ) -> RoundComm {
        let n = global.len();
        let mask = self.managers[0].frozen_mask_packed(round);
        let words = mask.words();
        for (m, l) in self.managers.iter().zip(locals.iter_mut()) {
            m.rollback(l, round);
            if self.quantize_f16 {
                mask.for_each_unfrozen_run_in(0, n, |s, e| f16_roundtrip_in_place(&mut l[s..e]));
            }
        }
        let total: f32 = weights.iter().sum();
        let mut agg = vec![0.0f32; n];
        if total > 0.0 {
            for (l, &w) in locals.iter().zip(weights) {
                if w == 0.0 {
                    continue;
                }
                apf_tensor::masked_axpy(&mut agg, l, w, words);
            }
            apf_tensor::masked_div(&mut agg, total, words);
        } else {
            apf_tensor::mask_copy(&mut agg, &locals[0], words);
        }
        if self.quantize_f16 {
            mask.for_each_unfrozen_run_in(0, n, |s, e| f16_roundtrip_in_place(&mut agg[s..e]));
        }
        let mut comm = RoundComm::default();
        for (i, (m, l)) in self.managers.iter_mut().zip(locals.iter_mut()).enumerate() {
            m.apply_aggregate_dense(l, &agg, round);
            let rep = m.finish_round(l, round);
            comm.bytes_up += rep.bytes_up;
            comm.bytes_down += rep.bytes_down;
            comm.max_client_up = comm.max_client_up.max(rep.bytes_up);
            comm.max_client_down = comm.max_client_down.max(rep.bytes_down);
            if i == 0 {
                comm.frozen_ratio = rep.frozen_ratio();
            }
        }
        global.copy_from_slice(&locals[0]);
        comm
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn hash(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    apf_tensor::splitmix64(seed ^ apf_tensor::splitmix64(a * 7919 + b * 131 + c))
}

/// One local update of scalar `j` on client `i`: zero-mean noise (which the
/// stability check reads as stable) plus a drift on every third scalar.
fn local_update(seed: u64, step: u64, i: usize, j: usize) -> f32 {
    let h = hash(seed, step, i as u64, j as u64);
    let noise = ((h % 1000) as f32 / 1000.0 - 0.5) * 0.2;
    let drift = if j.is_multiple_of(3) {
        0.02 * (i + 1) as f32
    } else {
        0.0
    };
    drift + noise
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Weights {
    Unit,
    OneZero,
    Mixed,
    AllZero,
}

impl Weights {
    fn at(self, seed: u64, step: u64, clients: usize) -> Vec<f32> {
        (0..clients)
            .map(|i| {
                let h = hash(seed ^ 0xA11, step, i as u64, 0);
                match self {
                    Weights::Unit => 1.0,
                    Weights::OneZero => f32::from(u8::from(i as u64 != step % clients as u64)),
                    Weights::Mixed => [0.0, 0.5, 1.0, 2.5][(h % 4) as usize],
                    Weights::AllZero => 0.0,
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Combo {
    f16: bool,
    weights: Weights,
    sharp: bool,
    check_every: u32,
    threads: usize,
}

fn combos() -> Vec<Combo> {
    let mut out = Vec::new();
    for f16 in [false, true] {
        for weights in [
            Weights::Unit,
            Weights::OneZero,
            Weights::Mixed,
            Weights::AllZero,
        ] {
            for sharp in [false, true] {
                for check_every in [1, 3] {
                    for threads in [1, 2, 7] {
                        out.push(Combo {
                            f16,
                            weights,
                            sharp,
                            check_every,
                            threads,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Drives the strategy and the oracle through the same update stream and
/// returns whether anything froze. Round numbers mostly advance by one but
/// sometimes repeat or skip — neither may ever use a stale mask.
fn run_combo(
    c: Combo,
    n: usize,
    clients: usize,
    steps: u64,
    seed: u64,
) -> Result<bool, TestCaseError> {
    let cfg = ApfConfig {
        check_every_rounds: c.check_every,
        stability_threshold: 0.3,
        ema_alpha: 0.9,
        seed,
        variant: if c.sharp {
            ApfVariant::Sharp { prob: 0.3 }
        } else {
            ApfVariant::Standard
        },
        ..ApfConfig::default()
    };
    let init: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin()).collect();
    let mut strategy = ApfStrategy::new(cfg).unwrap();
    if c.f16 {
        strategy = strategy.with_f16();
    }
    let mut oracle = ReplicaOracle::new(&init, cfg, clients, c.f16);
    strategy.init(&init, clients);
    prop_assert!(
        strategy.managers().len() == 1,
        "{c:?}: one manager per fleet"
    );

    let mut locals = vec![init.clone(); clients];
    let mut ref_locals = locals.clone();
    let mut global = init.clone();
    let mut ref_global = init.clone();
    let mut round = 0u64;
    let mut saw_frozen = false;
    for step in 0..steps {
        // Local phase: the strategy's hooks run concurrently on the pool,
        // as under `FlConfig::parallel`; the oracle's serially.
        for (i, (l, rl)) in locals.iter_mut().zip(ref_locals.iter_mut()).enumerate() {
            for j in 0..n {
                let d = local_update(seed, step, i, j);
                l[j] += d;
                rl[j] += d;
            }
            let mut direct = l.clone();
            strategy.managers()[0].rollback(&mut direct, round);
            oracle.managers[i].rollback(rl, round);
            prop_assert!(
                bits(&direct) == bits(rl),
                "{c:?} step {step} round {round}: manager 0 rollback != replica {i}"
            );
        }
        apf_par::with_threads(c.threads, || {
            apf_par::scope(|s| {
                let strategy = &strategy;
                for (i, l) in locals.iter_mut().enumerate() {
                    s.spawn(move || strategy.post_local_iteration(round, i, l));
                }
            });
        });
        for (i, (l, rl)) in locals.iter().zip(&ref_locals).enumerate() {
            prop_assert!(
                bits(l) == bits(rl),
                "{c:?} step {step} round {round}: hook for client {i} != rollback"
            );
        }
        // A hook for a round the strategy holds no mask for must rebuild.
        for other in [round + 3, round.saturating_sub(1)] {
            let mut via_hook: Vec<f32> = locals[0].iter().map(|v| v + 1.0).collect();
            let mut direct = via_hook.clone();
            strategy.post_local_iteration(other, clients - 1, &mut via_hook);
            strategy.managers()[0].rollback(&mut direct, other);
            prop_assert!(
                bits(&via_hook) == bits(&direct),
                "{c:?} step {step}: hook for uncached round {other} used a stale mask"
            );
        }

        let weights = c.weights.at(seed, step, clients);
        let comm = strategy.sync_round(round, &mut locals, &weights, &mut global);
        let ref_comm = oracle.sync_round(round, &mut ref_locals, &weights, &mut ref_global);
        let at = format!("{c:?} step {step} round {round} weights {weights:?}");
        for (i, (l, rl)) in locals.iter().zip(&ref_locals).enumerate() {
            prop_assert!(bits(l) == bits(rl), "{at}: client {i} diverged");
        }
        prop_assert!(bits(&global) == bits(&ref_global), "{at}: global");
        prop_assert!(
            comm.frozen_ratio.to_bits() == ref_comm.frozen_ratio.to_bits()
                && (comm.bytes_up, comm.bytes_down) == (ref_comm.bytes_up, ref_comm.bytes_down)
                && (comm.max_client_up, comm.max_client_down)
                    == (ref_comm.max_client_up, ref_comm.max_client_down),
            "{at}: {comm:?} != {ref_comm:?}"
        );
        saw_frozen |= comm.frozen_ratio > 0.0;
        // §6.2: the replicas agree among themselves, and with the one manager.
        let next = strategy.managers()[0].frozen_mask_packed(round + 1);
        for (i, m) in oracle.managers.iter().enumerate() {
            prop_assert!(
                m.frozen_mask_packed(round + 1) == next,
                "{at}: replica {i}'s next mask differs"
            );
        }
        // Mostly advance; sometimes repeat the round number or skip one.
        round += match hash(seed ^ 0x5E9, step, 0, 0) % 8 {
            0 => 0,
            1 => 2,
            _ => 1,
        };
    }
    Ok(saw_frozen)
}

property! {
    [6]
    fn one_manager_matches_replica_oracle(
        n in usizes(1..200),
        clients in usizes(1..5),
        steps in u64s(10..20),
        seed in u64s(0..1000),
    ) {
        let mut froze = 0usize;
        let all = combos();
        for &c in &all {
            froze += usize::from(run_combo(c, n, clients, steps, seed)?);
        }
        // The comparison must not be vacuous: masks have to be in play.
        prop_assert!(froze * 2 > all.len(), "only {froze}/{} combos froze anything", all.len());
    }
}
