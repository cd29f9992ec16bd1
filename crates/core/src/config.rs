//! APF configuration: thresholds, check cadence, variants.

/// Which member of the APF family to run (§4–5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApfVariant {
    /// Standard APF: freeze only scalars judged stable.
    Standard,
    /// APF#: additionally freeze each *unstable, unfrozen* scalar for one
    /// round with fixed probability (Dropout-style; the paper uses 0.5).
    Sharp {
        /// Per-round random-freeze probability.
        prob: f64,
    },
    /// APF++: the freeze probability grows as `a1 * K` and the freeze length
    /// is drawn uniformly from `[1, 1 + a2 * K]`, `K` the round number (§5).
    PlusPlus {
        /// Probability growth coefficient (e.g. `1/4000` for LeNet-5).
        a1: f64,
        /// Length growth coefficient (e.g. `1/20`).
        a2: f64,
    },
}

impl ApfVariant {
    /// The random-freeze probability at round `k` (0.0 for standard APF),
    /// clamped to `[0, 1]`.
    pub fn freeze_prob(&self, round: u64) -> f64 {
        match *self {
            ApfVariant::Standard => 0.0,
            ApfVariant::Sharp { prob } => prob.clamp(0.0, 1.0),
            ApfVariant::PlusPlus { a1, .. } => (a1 * round as f64).clamp(0.0, 1.0),
        }
    }

    /// The maximum random-freeze length at round `k` (inclusive; ≥ 1 when
    /// random freezing is active).
    pub fn max_freeze_len(&self, round: u64) -> u32 {
        match *self {
            ApfVariant::Standard => 0,
            ApfVariant::Sharp { .. } => 1,
            ApfVariant::PlusPlus { a2, .. } => 1 + (a2 * round as f64).floor() as u32,
        }
    }
}

/// Stability-threshold decay (§6.1): each time the frozen fraction reaches
/// `trigger_fraction`, multiply the threshold by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdDecay {
    /// Frozen-fraction trigger (the paper uses 0.8).
    pub trigger_fraction: f32,
    /// Multiplier applied to the threshold (the paper halves: 0.5).
    pub factor: f32,
}

impl Default for ThresholdDecay {
    fn default() -> Self {
        ThresholdDecay {
            trigger_fraction: 0.8,
            factor: 0.5,
        }
    }
}

/// Full APF configuration.
///
/// Defaults follow §7.1: stability threshold 0.05, EMA α 0.99, threshold
/// decay at 80% frozen, stability check every 5 rounds (the paper's
/// `F_c = 50` iterations with `F_s = 10` iterations per round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApfConfig {
    /// Initial stability threshold `T_s` on effective perturbation.
    pub stability_threshold: f32,
    /// Optional runtime threshold decay.
    pub threshold_decay: Option<ThresholdDecay>,
    /// Stability-check cadence in *rounds* (`F_c / F_s`).
    pub check_every_rounds: u32,
    /// EMA smoothing factor α of Eq. 17.
    pub ema_alpha: f32,
    /// Which APF variant to run.
    pub variant: ApfVariant,
    /// Seed for the variant's randomized freezing; every client must use the
    /// same seed so masks stay identical without being transmitted (§6.2).
    pub seed: u64,
    /// Wire size of one scalar (4 for f32, 2 when stacked with fp16
    /// quantization, §7.7).
    pub bytes_per_scalar: u64,
}

impl Default for ApfConfig {
    fn default() -> Self {
        ApfConfig {
            stability_threshold: 0.05,
            threshold_decay: Some(ThresholdDecay::default()),
            check_every_rounds: 5,
            ema_alpha: 0.99,
            variant: ApfVariant::Standard,
            seed: 0,
            bytes_per_scalar: 4,
        }
    }
}

impl ApfConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.stability_threshold) {
            return Err(format!(
                "stability_threshold {} outside [0, 1]",
                self.stability_threshold
            ));
        }
        if self.check_every_rounds == 0 {
            return Err("check_every_rounds must be positive".to_owned());
        }
        if !(0.0..1.0).contains(&self.ema_alpha) {
            return Err(format!("ema_alpha {} outside [0, 1)", self.ema_alpha));
        }
        if let Some(d) = self.threshold_decay {
            if !(0.0..=1.0).contains(&d.trigger_fraction) || !(0.0..1.0).contains(&d.factor) {
                return Err("invalid threshold decay".to_owned());
            }
        }
        if let ApfVariant::Sharp { prob } = self.variant {
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("APF# probability {prob} outside [0, 1]"));
            }
        }
        if self.bytes_per_scalar == 0 {
            return Err("bytes_per_scalar must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ApfConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = ApfConfig {
            stability_threshold: 1.5,
            ..ApfConfig::default()
        };
        assert!(c.validate().is_err());
        c = ApfConfig {
            check_every_rounds: 0,
            ..ApfConfig::default()
        };
        assert!(c.validate().is_err());
        c = ApfConfig {
            ema_alpha: 1.0,
            ..ApfConfig::default()
        };
        assert!(c.validate().is_err());
        c = ApfConfig {
            variant: ApfVariant::Sharp { prob: 2.0 },
            ..ApfConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn variant_probabilities() {
        assert_eq!(ApfVariant::Standard.freeze_prob(100), 0.0);
        assert_eq!(ApfVariant::Sharp { prob: 0.5 }.freeze_prob(100), 0.5);
        let pp = ApfVariant::PlusPlus {
            a1: 1.0 / 4000.0,
            a2: 1.0 / 20.0,
        };
        assert!((pp.freeze_prob(2000) - 0.5).abs() < 1e-9);
        assert_eq!(pp.freeze_prob(1_000_000), 1.0);
    }

    #[test]
    fn variant_lengths_grow_for_plusplus() {
        let pp = ApfVariant::PlusPlus {
            a1: 0.0,
            a2: 1.0 / 20.0,
        };
        assert_eq!(pp.max_freeze_len(0), 1);
        assert_eq!(pp.max_freeze_len(20), 2);
        assert_eq!(pp.max_freeze_len(200), 11);
        assert_eq!(ApfVariant::Sharp { prob: 0.5 }.max_freeze_len(999), 1);
        assert_eq!(ApfVariant::Standard.max_freeze_len(999), 0);
    }
}
