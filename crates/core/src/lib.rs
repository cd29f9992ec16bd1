//! **Adaptive Parameter Freezing (APF)** — the core contribution of
//! *"Communication-Efficient Federated Learning with Adaptive Parameter
//! Freezing"* (ICDCS 2021 / TPDS 2023), reimplemented in Rust.
//!
//! APF reduces federated-learning communication by *not synchronizing
//! parameters that have stabilized*. Each scalar parameter's trajectory is
//! scored by its **effective perturbation** (how strongly consecutive updates
//! cancel); stable scalars are **frozen** — pinned to their last synchronized
//! value and excluded from both upload and download — for a per-scalar
//! **freezing period** controlled TCP-style: additively increased while the
//! scalar keeps re-proving stability, multiplicatively decreased (halved) the
//! moment it drifts.
//!
//! The crate provides:
//!
//! * [`WindowedPerturbation`] (Eq. 1–2) and [`EmaPerturbation`] (Eq. 17, the
//!   memory-efficient production form);
//! * freezing-period controllers: [`Aimd`] (the APF mechanism of Fig. 8) and
//!   the §7.5 ablations [`PureAdditive`], [`PureMultiplicative`],
//!   [`FixedPeriod`];
//! * the [`ApfManager`] implementing Algorithm 1: rollback-emulated scalar
//!   freezing, masked select/fill, client-side mask maintenance,
//!   stability-threshold decay (§6.1), and the aggressive variants APF# and
//!   APF++ (§5) via [`ApfVariant`];
//! * [`FreezeMask`], the bit-packed mask every signature in the workspace
//!   uses (`packed_bytes`/`from_packed` is its wire form), and
//!   [`DormantApfState`], the one byte encoding of a manager snapshot
//!   ([`ApfState`]).
//!
//! # Example
//!
//! ```
//! use apf::{Aimd, ApfConfig, ApfManager};
//!
//! let params = vec![0.0f32; 100];
//! let mut mgr = ApfManager::new(&params, ApfConfig::default(), Box::new(Aimd::default()))?;
//! // Single-client loop: the aggregate of one client is its own upload.
//! let mut p = params.clone();
//! let report = mgr.sync(&mut p, 0, |upload| upload.to_vec());
//! assert_eq!(report.total, 100);
//! # Ok::<(), apf::ApfError>(())
//! ```

mod config;
mod controller;
mod dormant;
mod error;
mod manager;
mod mask;
mod perturbation;
mod state;

pub use config::{ApfConfig, ApfVariant, ThresholdDecay};
pub use controller::{Aimd, FixedPeriod, FreezeController, PureAdditive, PureMultiplicative};
pub use dormant::DormantApfState;
pub use error::ApfError;
pub use manager::{ApfManager, SyncReport};
pub use mask::{mask_bytes, masked_transfer_bytes, FreezeMask, UnfrozenRuns};
pub use perturbation::{EmaPerturbation, WindowedPerturbation};
pub use state::ApfState;
