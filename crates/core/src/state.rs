//! Checkpointing for [`ApfManager`](crate::ApfManager).
//!
//! Real FL deployments checkpoint client state across app restarts (§7.1,
//! footnote 5: clients leave and rejoin). [`ApfState`] is a plain-data
//! snapshot of everything the manager tracks *except* the controller (which
//! is code, not data); restoring requires supplying the same controller.
//! Its one byte encoding is [`DormantApfState`](crate::DormantApfState).

use crate::config::ApfConfig;

/// A plain-data snapshot of an [`ApfManager`](crate::ApfManager).
#[derive(Debug, Clone, PartialEq)]
pub struct ApfState {
    /// The configuration the manager was built with.
    pub cfg: ApfConfig,
    /// EMA numerator per scalar (`E` of Eq. 17).
    pub ema_e: Vec<f32>,
    /// EMA denominator per scalar (`A` of Eq. 17).
    pub ema_a: Vec<f32>,
    /// EMA update counter.
    pub ema_updates: u64,
    /// Freezing period per scalar (rounds).
    pub freeze_len: Vec<u32>,
    /// First round each scalar trains again.
    pub unfreeze_round: Vec<u64>,
    /// Last synchronized values (rollback targets).
    pub pinned: Vec<f32>,
    /// Values at the previous stability check.
    pub check_ref: Vec<f32>,
    /// Stability threshold currently in force.
    pub threshold: f32,
    /// Stability checks run so far.
    pub checks_run: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Aimd;
    use crate::manager::ApfManager;

    fn warmed() -> ApfManager {
        let init = vec![0.0f32; 16];
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut mgr = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
        let mut p = init;
        for r in 0..30u64 {
            for (j, v) in p.iter_mut().enumerate() {
                if !mgr.is_frozen(j, r) {
                    *v += if j % 2 == 0 {
                        if r % 2 == 0 {
                            0.1
                        } else {
                            -0.1
                        }
                    } else {
                        0.05
                    };
                }
            }
            mgr.sync(&mut p, r, |u| u.to_vec());
        }
        mgr
    }

    #[test]
    fn restored_manager_behaves_identically() {
        let mut a = warmed();
        let mut b = ApfManager::restore(a.snapshot(), Box::new(Aimd::default()));
        // Drive both forward identically; masks and reports must agree.
        let mut pa: Vec<f32> = a.snapshot().pinned;
        let mut pb = pa.clone();
        for r in 30..45u64 {
            for (j, v) in pa.iter_mut().enumerate() {
                if !a.is_frozen(j, r) {
                    *v += if j % 2 == 0 { 0.1 } else { -0.1 };
                }
            }
            for (j, v) in pb.iter_mut().enumerate() {
                if !b.is_frozen(j, r) {
                    *v += if j % 2 == 0 { 0.1 } else { -0.1 };
                }
            }
            let ra = a.sync(&mut pa, r, |u| u.to_vec());
            let rb = b.sync(&mut pb, r, |u| u.to_vec());
            assert_eq!(ra, rb, "round {r}");
            assert_eq!(pa, pb, "round {r}");
        }
    }
}
