//! Standard experiment setups: the paper's three model/dataset pairs at
//! laptop scale, with the §7.1 optimizer assignments, as run specs.

use apf_data::Dataset;
use apf_fedsim::{OptimizerKind, PartitionKind, RunSpec, SpecModel, SpecOptimizer, SpecStrategy};
use apf_nn::{models, Sequential};

/// Which of the paper's three workloads an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// LeNet-5 on the synthetic CIFAR-10 stand-in (Adam, lr 0.001).
    Lenet5,
    /// The residual CNN on the synthetic CIFAR-10 stand-in (SGD, lr 0.1).
    Resnet,
    /// The 2-layer LSTM on the synthetic KWS stand-in (SGD, lr 0.05).
    Lstm,
}

impl ModelKind {
    /// Model name as used by `apf_nn::models::by_name`.
    pub fn name(self) -> &'static str {
        self.spec_model().name()
    }

    fn spec_model(self) -> SpecModel {
        match self {
            ModelKind::Lenet5 => SpecModel::Lenet5,
            ModelKind::Resnet => SpecModel::Resnet,
            ModelKind::Lstm => SpecModel::Lstm,
        }
    }

    /// Builds the model.
    pub fn build(self, seed: u64) -> Sequential {
        models::by_name(self.name(), seed).expect("bundled model names are valid")
    }

    /// The §7.1 optimizer for this model (Adam/0.001 for LeNet-5, SGD/0.1
    /// for ResNet, SGD/0.05 for LSTM; weight decay 0.01 everywhere).
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

    /// Generates the train/test pair for this model's task: the splits
    /// [`ModelKind::spec`]'s runs train and evaluate on.
    ///
    /// The training split carries 20% label noise: like real datasets (and
    /// unlike a noiseless synthetic task, which a network would interpolate
    /// to zero loss), this keeps the asymptotic SGD gradient noise non-zero
    /// — the regime in which parameters *oscillate* around their optima,
    /// which is the §3 phenomenon APF exploits.
    pub fn datasets(self, train_n: usize, test_n: usize, seed: u64) -> (Dataset, Dataset) {
        let spec = RunSpec {
            train_n,
            test_n,
            ..self.spec(Scale::Quick, 1, 1, seed)
        };
        (spec.train_set(), spec.test_set())
    }

    /// Communication-round budget: the conv nets need more rounds than the
    /// LSTM to show their full stabilization arc, and the residual net is
    /// the most expensive per step.
    pub fn default_rounds(self, scale: Scale) -> usize {
        scale.rounds(match self {
            ModelKind::Lenet5 => 250,
            ModelKind::Resnet => 80,
            ModelKind::Lstm => 120,
        })
    }

    /// The standard federated arm of this workload: `clients` clients with
    /// `scale`'s samples each of the noisy task drawn from `seed`, a
    /// Dirichlet(1) partition (the §7.1 default), the §7.1 optimizer,
    /// evaluation every 5 rounds, on one core, under FedAvg. Arms override
    /// fields from here.
    pub fn spec(self, scale: Scale, clients: usize, rounds: usize, seed: u64) -> RunSpec {
        let (optimizer, lr, momentum, weight_decay) = match self.optimizer() {
            OptimizerKind::Sgd {
                lr,
                momentum,
                weight_decay,
            } => (SpecOptimizer::Sgd, lr, momentum, weight_decay),
            OptimizerKind::Adam { lr, weight_decay } => {
                (SpecOptimizer::Adam, lr, 0.0, weight_decay)
            }
        };
        RunSpec {
            clients,
            rounds,
            local_iters: scale.local_iters(),
            batch_size: scale.batch_size(),
            eval_every: 5,
            eval_batch: 100,
            seed,
            train_n: scale.per_client_samples() * clients,
            test_n: scale.test_samples(),
            lr,
            momentum,
            weight_decay,
            label_noise: 0.2,
            partition: PartitionKind::Dirichlet { alpha: 1.0, seed },
            strategy: SpecStrategy::Fedavg,
            model: self.spec_model(),
            data_seed: seed,
            optimizer,
            // The harness targets a single core.
            parallel: false,
            ..RunSpec::golden()
        }
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

    /// A standard-scale round budget at this scale: a tenth (at least 4)
    /// for `Quick`, two and a half times for `Paper`.
    pub fn rounds(self, standard: usize) -> usize {
        match self {
            Scale::Quick => (standard / 10).max(4),
            Scale::Standard => standard,
            Scale::Paper => standard * 5 / 2,
        }
    }

    /// Per-client training samples.
    fn per_client_samples(self) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Scale::Quick.rounds(30), 4);
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
    fn standard_spec_runs_a_round() {
        let spec = ModelKind::Lenet5.spec(Scale::Quick, 2, 1, 0);
        let canonical = spec.canonical();
        assert_eq!(RunSpec::parse(&canonical).unwrap().canonical(), canonical);
        let mut runner = spec.build_runner();
        let log = runner.run();
        assert_eq!(log.records.len(), 1);
    }
}
