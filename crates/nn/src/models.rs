//! Model zoo: the architectures of the paper's evaluation (§7.1, Fig. 9), at
//! laptop scale, plus a generic MLP for quick tests.
//!
//! | Paper model | Here | Input | Notes |
//! |---|---|---|---|
//! | LeNet-5 (CIFAR-10) | [`lenet5`] | `[N,3,16,16]` | classic conv-pool-fc stack |
//! | ResNet-18 (CIFAR-10) | [`resnet`] | `[N,3,16,16]` | residual CNN, deliberately over-parameterized for the synthetic task (reproduces the Fig. 9 random-walk behaviour) |
//! | 2-layer LSTM, hidden 64 (KWS) | [`lstm_classifier`] | `[N,20,10]` | same depth/width as the paper |

use apf_tensor::{seeded_rng, ConvSpec};

use crate::layers::{
    Activation, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, LastStep, Linear, LstmLayer,
    MaxPool2d, ResidualBlock,
};
use crate::sequential::Sequential;

/// Number of classes in all bundled tasks.
pub const NUM_CLASSES: usize = 10;
/// Image side for the synthetic CIFAR-10 stand-in.
pub const IMAGE_SIDE: usize = 16;
/// Image channels.
pub const IMAGE_CHANNELS: usize = 3;
/// Sequence length for the synthetic keyword-spotting stand-in.
pub const SEQ_LEN: usize = 20;
/// Feature dimension per sequence step.
pub const SEQ_FEATURES: usize = 10;

/// LeNet-5 for `[N, 3, 16, 16]` inputs.
///
/// The layer/tensor names (`conv1-w`, `fc2-b`, ...) follow Fig. 3 of the
/// paper so the per-tensor stability analysis prints familiar labels.
pub fn lenet5(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new("lenet5")
        .push(Conv2d::new(
            "conv1",
            ConvSpec {
                in_channels: IMAGE_CHANNELS,
                out_channels: 6,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            &mut rng,
        ))
        .push(Activation::relu())
        .push(MaxPool2d::new(2, 2)) // 16x16 -> 8x8
        .push(Conv2d::new(
            "conv2",
            ConvSpec {
                in_channels: 6,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 0,
            },
            &mut rng,
        ))
        .push(Activation::relu())
        .push(MaxPool2d::new(2, 2)) // 4x4 -> 2x2
        .push(Flatten::new())
        .push(Linear::new("fc1", 16 * 2 * 2, 120, &mut rng))
        .push(Activation::relu())
        .push(Linear::new("fc2", 120, 84, &mut rng))
        .push(Activation::relu())
        .push(Linear::new("fc3", 84, NUM_CLASSES, &mut rng))
}

/// A residual CNN standing in for ResNet-18 on `[N, 3, 16, 16]` inputs.
///
/// Three basic blocks over two widths (16, 32) after a stem convolution;
/// ~40k parameters — far more capacity than the synthetic task needs, which
/// is exactly the over-parameterized regime §5 of the paper targets with
/// APF++.
pub fn resnet(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new("resnet")
        .push(Conv2d::new(
            "stem",
            ConvSpec {
                in_channels: IMAGE_CHANNELS,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            &mut rng,
        ))
        .push(BatchNorm2d::new("stem-bn", 16))
        .push(Activation::relu())
        .push(ResidualBlock::new("rb1", 16, 16, 1, &mut rng))
        .push(ResidualBlock::new("rb2", 16, 32, 2, &mut rng)) // 16x16 -> 8x8
        .push(ResidualBlock::new("rb3", 32, 32, 1, &mut rng))
        .push(GlobalAvgPool::new())
        .push(Linear::new("fc", 32, NUM_CLASSES, &mut rng))
}

/// A 2-layer LSTM classifier (hidden size 64, as §7.1) for `[N, 20, 10]`
/// sequences.
pub fn lstm_classifier(seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new("lstm")
        .push(LstmLayer::new("lstm1", SEQ_FEATURES, 64, &mut rng))
        .push(LstmLayer::new("lstm2", 64, 64, &mut rng))
        .push(LastStep::new())
        .push(Linear::new("fc", 64, NUM_CLASSES, &mut rng))
}

/// A generic ReLU MLP: `dims = [in, hidden..., out]`.
///
/// # Panics
/// Panics if `dims` has fewer than two entries.
pub fn mlp(name: &str, dims: &[usize], seed: u64) -> Sequential {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut rng = seeded_rng(seed);
    let mut model = Sequential::new(name);
    for (i, win) in dims.windows(2).enumerate() {
        model = model.push(Linear::new(
            &format!("fc{}", i + 1),
            win[0],
            win[1],
            &mut rng,
        ));
        if i + 2 < dims.len() {
            model = model.push(Activation::relu());
        }
    }
    model
}

// Public because `by_name` returns it.
/// The error returned by [`by_name`] for an unrecognized model name.
///
/// `Display` lists the valid names so CLI callers can print it as usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown model {:?}; expected one of: {}",
            self.name,
            MODEL_NAMES.join(" | ")
        )
    }
}

impl std::error::Error for ModelError {}

/// The model names [`by_name`] accepts.
const MODEL_NAMES: [&str; 3] = ["lenet5", "resnet", "lstm"];

/// Builds one of the bundled models by name.
///
/// # Errors
/// Returns [`ModelError`] for a name outside `MODEL_NAMES`.
pub fn by_name(name: &str, seed: u64) -> Result<Sequential, ModelError> {
    match name {
        "lenet5" => Ok(lenet5(seed)),
        "resnet" => Ok(resnet(seed)),
        "lstm" => Ok(lstm_classifier(seed)),
        other => Err(ModelError {
            name: other.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use apf_tensor::Tensor;

    #[test]
    fn lenet_shapes_and_names() {
        let mut m = lenet5(0);
        let y = m.forward(Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 10]);
        let spec = m.flat_spec();
        let names: Vec<&str> = spec.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "conv1-w", "conv1-b", "conv2-w", "conv2-b", "fc1-w", "fc1-b", "fc2-w", "fc2-b",
                "fc3-w", "fc3-b"
            ]
        );
        // 10 tensors, like the paper's LeNet-5 (Fig. 3 caption).
        assert_eq!(spec.params().len(), 10);
    }

    #[test]
    fn lenet_param_count() {
        let m = lenet5(0);
        // conv1: 6*3*25+6, conv2: 16*6*25+16, fc1: 120*64+120,
        // fc2: 84*120+84, fc3: 10*84+10.
        let expected =
            (6 * 75 + 6) + (16 * 150 + 16) + (120 * 64 + 120) + (84 * 120 + 84) + (10 * 84 + 10);
        assert_eq!(m.param_count(), expected);
    }

    #[test]
    fn resnet_shapes_and_overparameterization() {
        let mut m = resnet(1);
        let y = m.forward(Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 10]);
        let lenet = lenet5(1);
        assert!(
            m.param_count() > lenet.param_count(),
            "resnet should be larger"
        );
    }

    #[test]
    fn lstm_shapes() {
        let mut m = lstm_classifier(2);
        let y = m.forward(Tensor::zeros(&[3, 20, 10]), Mode::Eval);
        assert_eq!(y.shape(), &[3, 10]);
        // 2 recurrent layers, hidden 64, like the paper.
        assert!(m.param_count() > 50_000);
    }

    #[test]
    fn by_name_dispatch() {
        assert_eq!(by_name("lenet5", 0).unwrap().name(), "lenet5");
        assert_eq!(by_name("resnet", 0).unwrap().name(), "resnet");
        assert_eq!(by_name("lstm", 0).unwrap().name(), "lstm");
    }

    #[test]
    fn by_name_rejects_unknown_with_usage() {
        let err = by_name("transformer", 0).unwrap_err();
        assert_eq!(err.name, "transformer");
        let msg = err.to_string();
        for name in MODEL_NAMES {
            assert!(msg.contains(name), "usage message missing {name}: {msg}");
        }
    }

    #[test]
    fn mlp_dims() {
        let mut m = mlp("m", &[4, 16, 8, 3], 0);
        let y = m.forward(Tensor::zeros(&[1, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(m.param_count(), 4 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3);
    }
}
