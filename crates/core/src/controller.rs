//! Freezing-period controllers.
//!
//! After a stability check, each (just-checked) scalar's freezing period is
//! updated from its previous period and the new stability verdict. The
//! paper's mechanism (Fig. 8) is TCP-style AIMD; §7.5 ablates it against
//! pure-additive, pure-multiplicative, and fixed-period controllers.

/// Updates one scalar's freezing period (in rounds) after a stability check.
pub trait FreezeController: Send + Sync {
    /// The next freezing period given the current one and whether the scalar
    /// was judged stable. A result of 0 means "do not freeze".
    fn next_len(&self, current: u32, stable: bool) -> u32;

    /// [`FreezeController::next_len`] for one mask word's checked scalars:
    /// `lens[b]` is updated for every set bit `b` of `active`, with bit `b`
    /// of `stable` as its verdict. One dynamic call per word instead of one
    /// per scalar; the default body is compiled per implementation, so the
    /// `next_len` inside it is a static call.
    ///
    /// # Panics
    /// Panics if `active` has a bit at or beyond `lens.len()`.
    fn step_word(&self, lens: &mut [u32], active: u64, stable: u64) {
        crate::mask::for_each_set_bit(active, |b| {
            lens[b] = self.next_len(lens[b], stable >> b & 1 == 1);
        });
    }

    /// Short name for logs.
    fn name(&self) -> &'static str;
}

/// The APF controller (Fig. 8): **a**dditively **i**ncrease on stability,
/// **m**ultiplicatively **d**ecrease (halve) on drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aimd {
    /// Rounds added per consecutive stable verdict (Alg. 1 adds `F_c`).
    pub increment: u32,
    /// Division factor on drift (Alg. 1 halves).
    pub decrease_factor: u32,
}

impl Default for Aimd {
    fn default() -> Self {
        Aimd {
            increment: 1,
            decrease_factor: 2,
        }
    }
}

impl FreezeController for Aimd {
    fn next_len(&self, current: u32, stable: bool) -> u32 {
        if stable {
            current + self.increment
        } else {
            current / self.decrease_factor.max(1)
        }
    }

    fn name(&self) -> &'static str {
        "aimd"
    }
}

/// §7.5 ablation: increase *and* decrease additively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PureAdditive {
    /// Step in rounds (the paper uses 1).
    pub step: u32,
}

impl Default for PureAdditive {
    fn default() -> Self {
        PureAdditive { step: 1 }
    }
}

impl FreezeController for PureAdditive {
    fn next_len(&self, current: u32, stable: bool) -> u32 {
        if stable {
            current + self.step
        } else {
            current.saturating_sub(self.step)
        }
    }

    fn name(&self) -> &'static str {
        "pure-additive"
    }
}

/// §7.5 ablation: increase *and* decrease multiplicatively (×2 / ÷2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PureMultiplicative {
    /// Multiplication/division factor (the paper uses 2).
    pub factor: u32,
}

impl Default for PureMultiplicative {
    fn default() -> Self {
        PureMultiplicative { factor: 2 }
    }
}

impl FreezeController for PureMultiplicative {
    fn next_len(&self, current: u32, stable: bool) -> u32 {
        let f = self.factor.max(2);
        if stable {
            if current == 0 {
                1
            } else {
                current.saturating_mul(f)
            }
        } else {
            current / f
        }
    }

    fn name(&self) -> &'static str {
        "pure-multiplicative"
    }
}

/// §7.5 ablation: freeze every stabilized scalar for a fixed period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPeriod {
    /// Freezing period in rounds (the paper uses 10 stability checks).
    pub len: u32,
}

impl FreezeController for FixedPeriod {
    fn next_len(&self, _current: u32, stable: bool) -> u32 {
        if stable {
            self.len
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_grows_linearly_and_halves() {
        let c = Aimd::default();
        let mut len = 0;
        for expect in 1..=5 {
            len = c.next_len(len, true);
            assert_eq!(len, expect);
        }
        len = c.next_len(len, false);
        assert_eq!(len, 2);
        len = c.next_len(len, false);
        assert_eq!(len, 1);
        len = c.next_len(len, false);
        assert_eq!(len, 0);
    }

    #[test]
    fn aimd_custom_increment() {
        let c = Aimd {
            increment: 5,
            decrease_factor: 5,
        };
        assert_eq!(c.next_len(0, true), 5);
        assert_eq!(c.next_len(10, true), 15);
        assert_eq!(c.next_len(15, false), 3);
    }

    #[test]
    fn pure_additive_symmetric() {
        let c = PureAdditive::default();
        assert_eq!(c.next_len(3, true), 4);
        assert_eq!(c.next_len(3, false), 2);
        assert_eq!(c.next_len(0, false), 0);
    }

    #[test]
    fn pure_multiplicative_doubles_from_zero() {
        let c = PureMultiplicative::default();
        assert_eq!(c.next_len(0, true), 1);
        assert_eq!(c.next_len(1, true), 2);
        assert_eq!(c.next_len(8, true), 16);
        assert_eq!(c.next_len(8, false), 4);
        assert_eq!(c.next_len(1, false), 0);
    }

    #[test]
    fn fixed_is_all_or_nothing() {
        let c = FixedPeriod { len: 10 };
        assert_eq!(c.next_len(0, true), 10);
        assert_eq!(c.next_len(10, true), 10);
        assert_eq!(c.next_len(10, false), 0);
    }

    #[test]
    fn step_word_is_next_len_on_exactly_the_active_lanes() {
        let controllers: [Box<dyn FreezeController>; 4] = [
            Box::new(Aimd::default()),
            Box::new(PureAdditive::default()),
            Box::new(PureMultiplicative::default()),
            Box::new(FixedPeriod { len: 7 }),
        ];
        let before: Vec<u32> = (0..64).map(|b| b % 9).collect();
        let words = [
            0u64,
            1,
            1 << 63,
            u64::MAX,
            0x5555_5555_5555_5555,
            0x0123_4567_89AB_CDEF,
        ];
        for c in &controllers {
            for active in words {
                for stable in words {
                    let mut lens = before.clone();
                    c.step_word(&mut lens, active, stable);
                    for b in 0..64 {
                        let want = match active >> b & 1 {
                            1 => c.next_len(before[b], stable >> b & 1 == 1),
                            _ => before[b],
                        };
                        assert_eq!(lens[b], want, "{} lane {b} of {active:#x}", c.name());
                    }
                }
            }
            // A ragged tail word: 5 lanes.
            let mut lens = vec![4u32; 5];
            c.step_word(&mut lens, 0b10110, 0b00100);
            let (up, down) = (c.next_len(4, true), c.next_len(4, false));
            assert_eq!(lens, [4, down, up, 4, down], "{}", c.name());
        }
    }

    #[test]
    fn aimd_recovers_faster_than_additive_after_long_freeze() {
        // The motivation for AIMD: after a long stable run, one drift event
        // should slash the period quickly.
        let aimd = Aimd::default();
        let add = PureAdditive::default();
        let long = 64;
        assert!(aimd.next_len(long, false) < add.next_len(long, false));
    }
}
