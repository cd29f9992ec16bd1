//! Instrumented single-node training for the §3 motivation experiments
//! (Figs. 1, 2, 3, 7, 9): tracks per-scalar values, windowed effective
//! perturbation, and first-stabilization epochs.

use apf::WindowedPerturbation;
use apf_data::Dataset;
use apf_nn::{LrSchedule, Trainer};
use apf_tensor::{derive_seed, seeded_rng, SliceRandom};

use crate::setups::ModelKind;

// Public because `train_local_traced` returns it.
/// The trace of one instrumented local-training run.
#[derive(Debug)]
pub struct LocalTrace {
    /// Flat-parameter layout: `(tensor name, offset, len)`.
    pub tensors: Vec<(String, usize, usize)>,
    /// Indices of the sampled scalars whose full value history is kept.
    pub sampled: Vec<usize>,
    /// `values[e][k]` = value of sampled scalar `k` after epoch `e`.
    pub values: Vec<Vec<f32>>,
    /// `stable[e][k]` = whether sampled scalar `k` was stable (windowed
    /// perturbation below `gamma`) at the end of epoch `e`.
    pub stable: Vec<Vec<bool>>,
    /// Mean windowed effective perturbation over all scalars, per epoch
    /// (the Fig. 2 curve).
    pub mean_perturbation: Vec<f32>,
    /// Best-ever test accuracy per epoch (the paper plots best-ever).
    pub best_accuracy: Vec<f32>,
    /// Per-scalar epoch at which the windowed perturbation first dropped
    /// below `gamma` (`None` = never stabilized).
    pub first_stable: Vec<Option<usize>>,
    /// The stability threshold used.
    pub gamma: f32,
}

impl LocalTrace {
    /// Epochs recorded.
    pub fn epochs(&self) -> usize {
        self.best_accuracy.len()
    }

    /// Sampled scalars that stabilized at some epoch and then became
    /// unstable again for at least `persist` consecutive epochs — the
    /// *temporarily stable* parameters of Fig. 7. Returns indices into
    /// `sampled`.
    pub fn temporarily_stable(&self, persist: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for k in 0..self.sampled.len() {
            let mut was_stable = false;
            let mut unstable_run = 0;
            let mut flagged = false;
            for e in 0..self.stable.len() {
                if self.stable[e][k] {
                    was_stable = true;
                    unstable_run = 0;
                } else if was_stable {
                    unstable_run += 1;
                    if unstable_run >= persist {
                        flagged = true;
                        break;
                    }
                }
            }
            if flagged {
                out.push(k);
            }
        }
        out
    }
}

/// Trains `model` for `epochs` epochs on `train`, evaluating on `test`, and
/// records the §3 stability diagnostics.
///
/// The windowed perturbation uses a window of one epoch of updates, as in
/// Fig. 2; `gamma` is the stability threshold (0.01 in Fig. 3).
///
/// # Panics
/// Panics if `epochs` or `sample_count` is zero.
#[allow(clippy::too_many_arguments)] // experiment knobs, mirrors the paper's Fig. 2/3 setup
pub fn train_local_traced(
    model: ModelKind,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    batch: usize,
    seed: u64,
    gamma: f32,
    sample_count: usize,
) -> LocalTrace {
    assert!(
        epochs > 0 && sample_count > 0,
        "epochs and sample_count must be positive"
    );
    let kind = model.optimizer();
    let mut trainer = Trainer::new(
        model.build(seed),
        kind.build(),
        LrSchedule::Constant(kind.base_lr()),
    );

    let spec = trainer.model().flat_spec();
    let tensors: Vec<(String, usize, usize)> = spec
        .params()
        .iter()
        .map(|p| (p.name.clone(), p.offset, p.len))
        .collect();
    let n = spec.total_len();
    let iters_per_epoch = train.len().div_ceil(batch);
    let mut window = WindowedPerturbation::new(n, iters_per_epoch.max(2));

    // Sample scalars (trainable only) to track in full.
    let mut candidates: Vec<usize> = spec.freeze_mask().iter_unfrozen_runs().flatten().collect();
    let mut rng = seeded_rng(derive_seed(seed, 0x7AACE));
    candidates.shuffle(&mut rng);
    let sampled: Vec<usize> = candidates.into_iter().take(sample_count.min(n)).collect();

    let mut data_rng = seeded_rng(derive_seed(seed, 0xDA7A));
    let mut prev = trainer.model_mut().flat_params();
    let mut values = Vec::with_capacity(epochs);
    let mut stable = Vec::with_capacity(epochs);
    let mut mean_p = Vec::with_capacity(epochs);
    let mut best_acc = Vec::with_capacity(epochs);
    let mut first_stable: Vec<Option<usize>> = vec![None; n];
    let mut best = 0.0f32;

    for e in 0..epochs {
        for (x, y) in train.batches(batch, &mut data_rng) {
            trainer.train_batch(&x, &y);
            let cur = trainer.model_mut().flat_params();
            let update: Vec<f32> = cur.iter().zip(&prev).map(|(a, b)| a - b).collect();
            window.push_update(&update);
            prev = cur;
        }
        let p = window.values();
        mean_p.push(p.iter().sum::<f32>() / n as f32);
        for (j, &pj) in p.iter().enumerate() {
            if first_stable[j].is_none() && pj < gamma {
                first_stable[j] = Some(e);
            }
        }
        values.push(sampled.iter().map(|&j| prev[j]).collect());
        stable.push(sampled.iter().map(|&j| p[j] < gamma).collect());
        let acc = trainer.evaluate(test.inputs(), test.labels(), 100);
        best = best.max(acc);
        best_acc.push(best);
    }

    LocalTrace {
        tensors,
        sampled,
        values,
        stable,
        mean_perturbation: mean_p,
        best_accuracy: best_acc,
        first_stable,
        gamma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups::{ModelKind, Scale};

    #[test]
    fn trace_records_everything() {
        let scale = Scale::Quick;
        let (train, test) = ModelKind::Lenet5.datasets(40, 20, 0);
        let trace = train_local_traced(
            ModelKind::Lenet5,
            &train,
            &test,
            3,
            scale.batch_size(),
            0,
            0.05,
            16,
        );
        assert_eq!(trace.epochs(), 3);
        assert_eq!(trace.values.len(), 3);
        assert_eq!(trace.values[0].len(), 16);
        assert_eq!(trace.mean_perturbation.len(), 3);
        assert_eq!(trace.tensors.len(), 10, "LeNet-5 has 10 tensors");
        // Perturbations live in [0, 1].
        for &p in &trace.mean_perturbation {
            assert!((0.0..=1.0).contains(&p));
        }
        // Best accuracy is monotone.
        for w in trace.best_accuracy.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn temporarily_stable_detector() {
        let mut trace = LocalTrace {
            tensors: vec![],
            sampled: vec![0, 1, 2],
            values: vec![],
            stable: vec![
                vec![false, true, true],
                vec![true, true, true],
                vec![true, false, true],
                vec![true, false, true],
            ],
            mean_perturbation: vec![],
            best_accuracy: vec![0.0; 4],
            first_stable: vec![],
            gamma: 0.01,
        };
        // Scalar 1 was stable, then unstable for 2 epochs -> temporarily stable.
        assert_eq!(trace.temporarily_stable(2), vec![1]);
        // Requiring a 3-epoch relapse finds nothing.
        assert_eq!(trace.temporarily_stable(3), Vec::<usize>::new());
        trace.stable.clear();
        assert!(trace.temporarily_stable(1).is_empty());
    }
}
