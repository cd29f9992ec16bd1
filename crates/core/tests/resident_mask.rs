//! Resident-mask coherence: the mask an [`ApfManager`] keeps for its round
//! must equal, at every round and after every public call, the mask derived
//! from scratch from its bookkeeping (`round < unfreeze_round[j]`) — across
//! the variants, both check cadences, threshold decay on and off, and a
//! snapshot → dormant blob → restore hop mid-run under both codecs.

use std::borrow::Cow;

use apf::{Aimd, ApfConfig, ApfManager, ApfVariant, DormantApfState, FreezeMask, ThresholdDecay};
use apf_quant::EmaCodec;
use apf_testkit::{prop_assert, property, u64s, TestCaseError};

const N: usize = 203;
const ROUNDS: u64 = 24;
const HOP_ROUNDS: [(u64, EmaCodec); 2] = [(11, EmaCodec::Dense), (16, EmaCodec::F16)];

/// The from-scratch oracle, bit by bit from the snapshot's `unfreeze_round`
/// (it does not go through `FreezeMask::from_fn`, which the manager builds
/// with).
fn oracle(unfreeze_round: &[u64], round: u64) -> FreezeMask {
    let mut mask = FreezeMask::all_unfrozen(unfreeze_round.len());
    for (j, &u) in unfreeze_round.iter().enumerate() {
        mask.set(j, round < u);
    }
    mask
}

/// The manager holds `round` (a borrow, not a rebuild) and what it holds is
/// the oracle's mask; a round it does not hold comes out right as well.
fn coherent(mgr: &ApfManager, round: u64, at: &str) -> Result<(), TestCaseError> {
    let unfreeze_round = mgr.snapshot().unfreeze_round;
    let expected = |round| oracle(&unfreeze_round, round);
    let held = mgr.mask(round);
    prop_assert!(
        matches!(held, Cow::Borrowed(_)),
        "{at}: round {round} is not resident"
    );
    prop_assert!(
        *held == expected(round),
        "{at}: resident mask of round {round} is stale"
    );
    for other in [round + 1, round + 5, round.saturating_sub(1)] {
        prop_assert!(
            other == round || mgr.frozen_mask_packed(other) == expected(other),
            "{at}: mask built for round {other} is wrong"
        );
    }
    prop_assert!(
        mgr.frozen_count(round) == held.frozen_count(),
        "{at}: frozen_count disagrees with the mask"
    );
    Ok(())
}

/// One manager through [`ROUNDS`] rounds of a seeded update stream (a third
/// of the scalars oscillate and stabilise, the rest drift), checking
/// coherence after every public call.
fn run(cfg: ApfConfig, seed: u64) -> Result<usize, TestCaseError> {
    let init = vec![0.0f32; N];
    let mut mgr = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
    let mut params = init;
    let mut max_frozen = 0;
    for round in 0..ROUNDS {
        let at = |call: &str| format!("{cfg:?} seed {seed} round {round} after {call}");
        if let Some(&(_, codec)) = HOP_ROUNDS.iter().find(|(r, _)| *r == round) {
            let blob = DormantApfState::encode(&mgr.snapshot(), codec);
            mgr = ApfManager::restore(blob.decode(cfg).unwrap(), Box::new(Aimd::default()));
            prop_assert!(
                matches!(mgr.mask(round), Cow::Owned(_)),
                "{}: a restored manager cannot know its round",
                at("restore")
            );
            mgr.hold_round(round);
            coherent(&mgr, round, &at("restore + hold_round"))?;
        }
        coherent(&mgr, round, &at("the previous round"))?;
        max_frozen = max_frozen.max(mgr.frozen_count(round));

        for (j, p) in params.iter_mut().enumerate() {
            let h = apf_tensor::splitmix64(seed ^ (round * 1009 + j as u64));
            let step = 0.05 + (h % 100) as f32 * 1e-3;
            *p += match (j % 3, round % 2) {
                (0, 0) => step,
                (0, _) => -step,
                _ => 0.1,
            };
        }
        mgr.rollback(&mut params, round);
        coherent(&mgr, round, &at("rollback"))?;
        let upload = mgr.select_unfrozen(&params, round);
        coherent(&mgr, round, &at("select_unfrozen"))?;
        if round % 2 == 0 {
            mgr.apply_aggregate(&mut params, &upload, round);
            coherent(&mgr, round, &at("apply_aggregate"))?;
        } else {
            let dense = params.clone();
            mgr.apply_aggregate_dense(&mut params, &dense, round);
            coherent(&mgr, round, &at("apply_aggregate_dense"))?;
        }
        mgr.finish_round(&params, round);
        coherent(&mgr, round + 1, &at("finish_round"))?;
    }
    Ok(max_frozen)
}

property! {
    fn resident_mask_equals_the_from_scratch_oracle(seed in u64s(0..1_000_000)) {
        let variants = [
            ApfVariant::Standard,
            ApfVariant::Sharp { prob: 0.3 },
            ApfVariant::PlusPlus { a1: 1.0 / 40.0, a2: 1.0 / 4.0 },
        ];
        let mut combos = 0;
        let mut froze = 0;
        for variant in variants {
            for check_every_rounds in [1, 3] {
                for threshold_decay in [None, Some(ThresholdDecay::default())] {
                    let cfg = ApfConfig {
                        stability_threshold: 0.3,
                        ema_alpha: 0.9,
                        check_every_rounds,
                        threshold_decay,
                        variant,
                        seed,
                        ..ApfConfig::default()
                    };
                    combos += 1;
                    froze += usize::from(run(cfg, seed)? > 0);
                }
            }
        }
        // Not vacuous: masks have to be in play.
        prop_assert!(froze * 2 > combos, "only {froze}/{combos} runs froze anything");
    }
}
