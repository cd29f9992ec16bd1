//! Golden-trajectory regression test for the APF controller.
//!
//! Drives an [`ApfManager`] with a fully scripted per-round update schedule
//! and pins the *exact* resulting trajectory: per-round effective
//! perturbations (EMA form, Eq. 17), freeze/unfreeze decisions, and the AIMD
//! freezing-period evolution. Any behavioral change to the stability check,
//! the EMA update, the AIMD controller, or the mask bookkeeping shows up as
//! a diff against these tables.
//!
//! All arithmetic is deterministic f32, so comparisons are bit-exact.

use apf::{Aimd, ApfConfig, ApfManager};

const ROUNDS: u64 = 24;
const N: usize = 4;

/// Scripted per-round parameter updates, chosen to exercise every regime:
/// - scalar 0 oscillates forever (stabilizes; AIMD period grows additively);
/// - scalar 1 drifts steadily (never freezes under Standard APF);
/// - scalar 2 oscillates for 12 rounds, then drifts hard (freezes, then the
///   AIMD period collapses multiplicatively);
/// - scalar 3 never moves (zero updates read as maximally stable).
fn update(r: u64, j: usize) -> f32 {
    match j {
        0 => {
            if r.is_multiple_of(2) {
                0.2
            } else {
                -0.2
            }
        }
        1 => 0.1,
        2 => {
            if r < 12 {
                if r.is_multiple_of(2) {
                    0.15
                } else {
                    -0.15
                }
            } else {
                0.5
            }
        }
        _ => 0.0,
    }
}

/// One row of the golden table, captured after `finish_round` of round `r`.
#[derive(Debug, PartialEq)]
struct Row {
    round: u64,
    /// Scalars frozen *during* this round.
    frozen: usize,
    /// Whether a stability check ran at the end of this round.
    checked: bool,
    /// Upload bytes this round: 1 bitmap byte + 4 per unfrozen scalar.
    bytes_up: u64,
    /// Effective perturbation (EMA) of each scalar after this round.
    perturbation: [f32; N],
    /// AIMD freezing period of each scalar after this round.
    period: [u32; N],
    /// The freezing mask the next round will see.
    next_mask: [bool; N],
}

fn drive() -> Vec<Row> {
    let cfg = ApfConfig {
        stability_threshold: 0.05,
        threshold_decay: None,
        check_every_rounds: 2,
        ema_alpha: 0.9,
        ..ApfConfig::default()
    };
    let mut params = vec![0.0f32; N];
    let mut mgr = ApfManager::new(&params, cfg, Box::new(Aimd::default())).unwrap();
    let mut rows = Vec::new();
    for r in 0..ROUNDS {
        for (j, p) in params.iter_mut().enumerate() {
            *p += update(r, j);
        }
        let rep = mgr.sync(&mut params, r, |up| up.to_vec());
        let pert = mgr.perturbations();
        let periods = mgr.freezing_periods();
        let mask = mgr.frozen_mask_packed(r + 1);
        rows.push(Row {
            round: r,
            frozen: rep.frozen,
            checked: rep.checked,
            bytes_up: rep.bytes_up,
            perturbation: [pert[0], pert[1], pert[2], pert[3]],
            period: [periods[0], periods[1], periods[2], periods[3]],
            next_mask: std::array::from_fn(|j| mask.is_frozen(j)),
        });
    }
    rows
}

/// The pinned trajectory. Regenerate with
/// `cargo test -p apf --test golden_trajectory -- --ignored --nocapture`
/// after an *intentional* semantic change, and review the diff line by line.
const GOLDEN: [Row; ROUNDS as usize] = [
    Row {
        round: 0,
        frozen: 0,
        checked: false,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 1.0, 1.0],
        period: [0, 0, 0, 0],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 1,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [0.0, 1.0, 0.0, 0.0],
        period: [1, 0, 1, 1],
        next_mask: [true, false, true, true],
    },
    Row {
        round: 2,
        frozen: 3,
        checked: false,
        bytes_up: 5,
        perturbation: [0.0, 1.0, 0.0, 0.0],
        period: [1, 0, 1, 1],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 3,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 2],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 4,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 2],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 5,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 2],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 6,
        frozen: 0,
        checked: false,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 2],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 7,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 3],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 8,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 3],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 9,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 3],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 10,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 3],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 11,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 12,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 1.0, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 13,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.8372668, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 14,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.8372668, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 15,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.91946703, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 16,
        frozen: 0,
        checked: false,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 0.91946703, 0.0],
        period: [0, 0, 0, 4],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 17,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 0.94841754, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 18,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.94841754, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 19,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.96314037, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 20,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.96314037, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 21,
        frozen: 1,
        checked: true,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.9720154, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, true],
    },
    Row {
        round: 22,
        frozen: 1,
        checked: false,
        bytes_up: 13,
        perturbation: [1.0, 1.0, 0.9720154, 0.0],
        period: [0, 0, 0, 5],
        next_mask: [false, false, false, false],
    },
    Row {
        round: 23,
        frozen: 0,
        checked: true,
        bytes_up: 17,
        perturbation: [1.0, 1.0, 0.97792196, 0.0],
        period: [0, 0, 0, 6],
        next_mask: [false, false, false, true],
    },
];

#[test]
fn trajectory_matches_golden_exactly() {
    let rows = drive();
    assert_eq!(rows.len(), GOLDEN.len());
    for (got, want) in rows.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            got, want,
            "round {} diverged from golden trajectory",
            want.round
        );
    }
}

/// Narrative checks on the same trajectory, so a golden-table regeneration
/// that silently broke the controller semantics cannot slip through review.
#[test]
fn trajectory_semantics_hold() {
    let rows = drive();
    // The steady drifter (scalar 1) must never freeze under Standard APF.
    assert!(rows.iter().all(|r| !r.next_mask[1]));
    assert!(rows.iter().all(|r| r.period[1] == 0));
    // The never-moving scalar (3) accumulates AIMD periods additively:
    // 1, 2, 3, ... one increment per stable check verdict.
    let p3: Vec<u32> = rows
        .iter()
        .filter(|r| r.checked)
        .map(|r| r.period[3])
        .collect();
    assert_eq!(p3, vec![1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6]);
    // The round-1 check freezes all three stable scalars, and the round-3
    // check halves their periods to zero after the post-thaw deltas read as
    // drift (1 / 2 = 0 — multiplicative decrease).
    assert_eq!(rows[1].period[0], 1);
    assert_eq!(rows[3].period[0], 0);
    assert_eq!(rows[3].period[2], 0);
    // Scalar 2's drift phase (round >= 12) pushes its effective perturbation
    // monotonically toward 1 as the EMA forgets the oscillation history.
    let drift: Vec<f32> = rows
        .iter()
        .filter(|r| r.checked && r.round >= 13)
        .map(|r| r.perturbation[2])
        .collect();
    assert!(drift.windows(2).all(|w| w[0] < w[1]), "{drift:?}");
    assert!(drift[0] > 0.5 && *drift.last().unwrap() < 1.0);
    // Byte accounting: the 1-byte freeze bitmap plus 4 bytes per unfrozen
    // scalar, every round (the real masked-frame encoding).
    for r in &rows {
        assert_eq!(r.bytes_up, 1 + 4 * (N - r.frozen) as u64);
    }
    // Check cadence 2: checks land on odd rounds only.
    for r in &rows {
        assert_eq!(r.checked, r.round % 2 == 1);
    }
}

#[test]
#[ignore = "generator: prints the golden table for regeneration"]
fn print_golden() {
    for row in drive() {
        println!(
            "Row {{ round: {}, frozen: {}, checked: {}, bytes_up: {}, perturbation: [{:?}, {:?}, {:?}, {:?}], period: {:?}, next_mask: {:?} }},",
            row.round,
            row.frozen,
            row.checked,
            row.bytes_up,
            row.perturbation[0],
            row.perturbation[1],
            row.perturbation[2],
            row.perturbation[3],
            row.period,
            row.next_mask,
        );
    }
}
