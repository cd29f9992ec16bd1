//! Standard experiment setups: the paper's three model/dataset pairs at
//! laptop scale, with the §7.1 optimizer assignments.

use apf_data::{synth_images_split, synth_kws_split, Dataset};
use apf_fedsim::{FlConfig, FlRunner, FlRunnerBuilder, OptimizerKind};
use apf_nn::{models, Sequential};

/// Which of the paper's three workloads an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// LeNet-5 on the synthetic CIFAR-10 stand-in (Adam, lr 0.001).
    Lenet5,
    /// The residual CNN on the synthetic CIFAR-10 stand-in (SGD, lr 0.1).
    Resnet,
    /// The 2-layer LSTM on the synthetic KWS stand-in (SGD, lr 0.01).
    Lstm,
}

impl ModelKind {
    /// Model name as used by `apf_nn::models::by_name`.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lenet5 => "lenet5",
            ModelKind::Resnet => "resnet",
            ModelKind::Lstm => "lstm",
        }
    }

    /// Builds the model.
    pub fn build(self, seed: u64) -> Sequential {
        models::by_name(self.name(), seed).expect("bundled model names are valid")
    }

    /// The §7.1 optimizer for this model (Adam/0.001 for LeNet-5, SGD/0.1
    /// for ResNet, SGD/0.01 for LSTM; weight decay 0.01 everywhere).
    pub fn optimizer(self) -> OptimizerKind {
        match self {
            ModelKind::Lenet5 => OptimizerKind::Adam {
                lr: 0.001,
                weight_decay: 0.01,
            },
            ModelKind::Resnet => OptimizerKind::Sgd {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.01,
            },
            ModelKind::Lstm => OptimizerKind::Sgd {
                lr: 0.05,
                momentum: 0.0,
                weight_decay: 0.01,
            },
        }
    }

    /// Generates the train/test pair for this model's task.
    ///
    /// The training split carries 20% label noise: like real datasets (and
    /// unlike a noiseless synthetic task, which a network would interpolate
    /// to zero loss), this keeps the asymptotic SGD gradient noise non-zero
    /// — the regime in which parameters *oscillate* around their optima,
    /// which is the §3 phenomenon APF exploits.
    pub fn datasets(self, train_n: usize, test_n: usize, seed: u64) -> (Dataset, Dataset) {
        let (train, test) = match self {
            ModelKind::Lenet5 | ModelKind::Resnet => (
                synth_images_split(train_n, seed, 0),
                synth_images_split(test_n, seed, 1),
            ),
            ModelKind::Lstm => (
                synth_kws_split(train_n, seed, 0),
                synth_kws_split(test_n, seed, 1),
            ),
        };
        (apf_data::with_label_noise(&train, 0.2, seed), test)
    }

    /// Default communication-round budget at the standard scale: the conv
    /// nets need more rounds than the LSTM to show their full stabilization
    /// arc, and the residual net is the most expensive per step.
    pub fn default_rounds(self, scale: Scale) -> usize {
        let base = match self {
            ModelKind::Lenet5 => 250,
            ModelKind::Resnet => 80,
            ModelKind::Lstm => 120,
        };
        (base as f64 * scale.round_factor()).max(4.0) as usize
    }
}

/// Experiment scale: `Quick` for smoke tests, `Standard` for the recorded
/// EXPERIMENTS.md numbers (single-core laptop budget), `Paper` for
/// closer-to-paper round counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke-test scale (seconds).
    Quick,
    /// The default single-core scale used for the recorded results.
    Standard,
    /// Longer runs for tighter curves.
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    fn round_factor(self) -> f64 {
        match self {
            Scale::Quick => 0.1,
            Scale::Standard => 1.0,
            Scale::Paper => 2.5,
        }
    }

    /// Per-client training samples.
    pub fn per_client_samples(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Standard | Scale::Paper => 400,
        }
    }

    /// Held-out test-set size.
    fn test_samples(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Standard | Scale::Paper => 300,
        }
    }

    /// Mini-batch size.
    pub fn batch_size(self) -> usize {
        16
    }

    /// Local iterations per round (`F_s`).
    pub fn local_iters(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Standard | Scale::Paper => 8,
        }
    }
}

/// The standard federated setup: `clients` clients over a partition of the
/// model's task, §7.1 optimizers, evaluation every 5 rounds.
///
/// Returns a builder so callers can attach a strategy/partition and tweak
/// further.
pub fn standard_builder(
    model: ModelKind,
    scale: Scale,
    clients: usize,
    rounds: usize,
    seed: u64,
) -> (FlRunnerBuilder, Dataset, Dataset) {
    let train_n = scale.per_client_samples() * clients;
    let (train, test) = model.datasets(train_n, scale.test_samples(), seed);
    let cfg = FlConfig {
        local_iters: scale.local_iters(),
        rounds,
        batch_size: scale.batch_size(),
        eval_every: 5,
        eval_batch: 100,
        seed,
        parallel: false, // the harness targets a single core
        ..FlConfig::default()
    };
    let builder = FlRunner::builder(move |s| model.build(s), cfg).optimizer(model.optimizer());
    (builder, train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_data::iid_partition;
    use apf_fedsim::FullSync;

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn default_rounds_per_scale_and_model() {
        // The fig11 / Table 1–3 horizons: the scale factor applies once.
        let models = [ModelKind::Lenet5, ModelKind::Resnet, ModelKind::Lstm];
        for (scale, want) in [
            (Scale::Quick, [25, 8, 12]),
            (Scale::Standard, [250, 80, 120]),
            (Scale::Paper, [625, 200, 300]),
        ] {
            assert_eq!(models.map(|m| m.default_rounds(scale)), want, "{scale:?}");
        }
    }

    #[test]
    fn model_kinds_build() {
        for m in [ModelKind::Lenet5, ModelKind::Resnet, ModelKind::Lstm] {
            let model = m.build(0);
            assert!(model.param_count() > 0);
            let (train, test) = m.datasets(20, 10, 0);
            assert_eq!(train.len(), 20);
            assert_eq!(test.len(), 10);
        }
    }

    #[test]
    fn standard_builder_runs_a_round() {
        let (builder, train, test) = standard_builder(ModelKind::Lenet5, Scale::Quick, 2, 1, 0);
        let parts = iid_partition(train.len(), 2, 0);
        let mut runner = builder
            .clients_from_partition(&train, &parts)
            .test_set(test)
            .strategy(Box::new(FullSync::new()))
            .build();
        let log = runner.run();
        assert_eq!(log.records.len(), 1);
    }
}
