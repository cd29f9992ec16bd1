//! Residual block (the ResNet-18 building block, §7.1 of the paper).

use apf_tensor::Rng;
use apf_tensor::{avgpool2d_backward, avgpool2d_forward, ConvSpec, PoolSpec, Tensor};

use std::ops::Range;

use crate::layer::{Layer, Mode, Param};
use crate::layers::{Activation, BatchNorm2d, Conv2d};

/// A basic pre-activation-free residual block:
/// `y = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )`.
///
/// When `stride > 1` or channel counts change, the shortcut is a strided
/// 2x2 average-pool (if strided) followed by zero-padding of channels — the
/// parameter-free "option A" shortcut of the original ResNet paper, which
/// keeps the block's parameter inventory to its two convolutions and
/// batch-norms. The block's arena slice is theirs, concatenated in the
/// order `conv1, bn1, conv2, bn2`.
pub struct ResidualBlock {
    /// The children's initial parameters, until the model takes them.
    init: Vec<Param>,
    /// `conv1`'s, `bn1`'s, `conv2`'s and `bn2`'s ranges of the block's slice.
    ranges: [Range<usize>; 4],
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Activation,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
    cache: Option<ResidualCache>,
}

struct ResidualCache {
    input_shape: Vec<usize>,
    pre_relu: Tensor,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("in_channels", &self.in_channels)
            .field("out_channels", &self.out_channels)
            .field("stride", &self.stride)
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a residual block `in_channels -> out_channels` whose first
    /// convolution uses `stride`.
    ///
    /// # Panics
    /// Panics if `out_channels < in_channels` (this block only widens).
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            out_channels >= in_channels,
            "residual block cannot shrink channels"
        );
        let spec1 = ConvSpec {
            in_channels,
            out_channels,
            kernel: 3,
            stride,
            padding: 1,
        };
        let spec2 = ConvSpec {
            in_channels: out_channels,
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut conv1 = Conv2d::new(&format!("{name}-c1"), spec1, rng);
        let mut bn1 = BatchNorm2d::new(&format!("{name}-bn1"), out_channels);
        let mut conv2 = Conv2d::new(&format!("{name}-c2"), spec2, rng);
        let mut bn2 = BatchNorm2d::new(&format!("{name}-bn2"), out_channels);
        let (mut init, mut end) = (Vec::new(), 0);
        let children: [&mut dyn Layer; 4] = [&mut conv1, &mut bn1, &mut conv2, &mut bn2];
        let ranges = children.map(|child| {
            let start = end;
            for p in child.take_params() {
                end += p.value.numel();
                init.push(p);
            }
            start..end
        });
        ResidualBlock {
            init,
            ranges,
            conv1,
            bn1,
            relu1: Activation::relu(),
            conv2,
            bn2,
            in_channels,
            out_channels,
            stride,
            cache: None,
        }
    }

    /// Shortcut forward: identity, or strided avg-pool + channel zero-pad.
    fn shortcut(&self, x: &Tensor) -> Tensor {
        let pooled = if self.stride > 1 {
            avgpool2d_forward(
                x,
                &PoolSpec {
                    kernel: self.stride,
                    stride: self.stride,
                },
            )
        } else {
            x.clone()
        };
        if self.out_channels == self.in_channels {
            return pooled;
        }
        let s = pooled.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let mut out = Tensor::zeros(&[n, self.out_channels, h, w]);
        for ni in 0..n {
            for ci in 0..c {
                let src = &pooled.data()[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let dst_base = (ni * self.out_channels + ci) * h * w;
                out.data_mut()[dst_base..dst_base + h * w].copy_from_slice(src);
            }
        }
        out
    }

    /// Shortcut backward given `grad` of the shortcut output.
    fn shortcut_backward(&self, grad: &Tensor, input_shape: &[usize]) -> Tensor {
        // Undo channel padding: keep the first in_channels channels.
        let s = grad.shape();
        let (n, _, h, w) = (s[0], s[1], s[2], s[3]);
        let narrowed = if self.out_channels != self.in_channels {
            let mut out = Tensor::zeros(&[n, self.in_channels, h, w]);
            for ni in 0..n {
                for ci in 0..self.in_channels {
                    let src_base = (ni * self.out_channels + ci) * h * w;
                    let src = &grad.data()[src_base..src_base + h * w];
                    let dst_base = (ni * self.in_channels + ci) * h * w;
                    out.data_mut()[dst_base..dst_base + h * w].copy_from_slice(src);
                }
            }
            out
        } else {
            grad.clone()
        };
        if self.stride > 1 {
            avgpool2d_backward(
                &narrowed,
                &PoolSpec {
                    kernel: self.stride,
                    stride: self.stride,
                },
                input_shape,
            )
        } else {
            narrowed
        }
    }
}

impl Layer for ResidualBlock {
    fn take_params(&mut self) -> Vec<Param> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &mut [f32], x: Tensor, mode: Mode) -> Tensor {
        let input_shape = x.shape().to_vec();
        let shortcut = self.shortcut(&x);
        let [c1, b1, c2, b2] = self.ranges.clone();
        let mut y = self.conv1.forward(&mut params[c1], x, mode);
        y = self.bn1.forward(&mut params[b1], y, mode);
        y = self.relu1.forward(&mut [], y, mode);
        y = self.conv2.forward(&mut params[c2], y, mode);
        y = self.bn2.forward(&mut params[b2], y, mode);
        y.axpy(1.0, &shortcut);
        let pre_relu = y.clone();
        let out = y.map(|v| v.max(0.0));
        self.cache = Some(ResidualCache {
            input_shape,
            pre_relu,
        });
        out
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let cache = self.cache.take().expect("residual backward before forward");
        let [c1, b1, c2, b2] = self.ranges.clone();
        // Through the output ReLU.
        let g = grad.zip_map(&cache.pre_relu, |g, p| if p > 0.0 { g } else { 0.0 });
        // Branch 1: main path.
        let mut main = self
            .bn2
            .backward(&params[b2.clone()], &mut grads[b2], g.clone());
        main = self
            .conv2
            .backward(&params[c2.clone()], &mut grads[c2], main);
        main = self.relu1.backward(&[], &mut [], main);
        main = self.bn1.backward(&params[b1.clone()], &mut grads[b1], main);
        main = self
            .conv1
            .backward(&params[c1.clone()], &mut grads[c1], main);
        // Branch 2: shortcut.
        let short = self.shortcut_backward(&g, &cache.input_shape);
        main.axpy(1.0, &short);
        main
    }

    fn kind(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;
    use apf_tensor::{normal_init, seeded_rng};

    fn model(cin: usize, cout: usize, stride: usize, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("t").push(ResidualBlock::new("r", cin, cout, stride, &mut rng))
    }

    /// Zeroes both convolutions (weights and biases) in the block's arena.
    fn zero_convs(m: &mut Sequential) {
        let convs: Vec<Range<usize>> = m
            .flat_spec()
            .params()
            .iter()
            .filter(|p| p.name.contains("-c"))
            .map(|p| p.offset..p.offset + p.len)
            .collect();
        for r in convs {
            m.params_mut()[r].fill(0.0);
        }
    }

    #[test]
    fn identity_block_shapes() {
        let mut rng = seeded_rng(0);
        let mut block = model(8, 8, 1, 0);
        let x = normal_init(&[2, 8, 6, 6], 0.0, 1.0, &mut rng);
        let y = block.forward(x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 6, 6]);
        let g = block.backward(Tensor::ones(&[2, 8, 6, 6]));
        assert_eq!(g.shape(), &[2, 8, 6, 6]);
    }

    #[test]
    fn downsampling_block_shapes() {
        let mut rng = seeded_rng(1);
        let mut block = model(8, 16, 2, 1);
        let x = normal_init(&[2, 8, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(x, Mode::Train);
        assert_eq!(y.shape(), &[2, 16, 4, 4]);
        let g = block.backward(Tensor::ones(&[2, 16, 4, 4]));
        assert_eq!(g.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn arena_order_is_conv1_bn1_conv2_bn2() {
        let block = model(2, 2, 1, 5);
        let names: Vec<&str> = block
            .flat_spec()
            .params()
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "r-c1-w", "r-c1-b", "r-bn1-g", "r-bn1-b", "r-bn1-rm", "r-bn1-rv", "r-c2-w",
                "r-c2-b", "r-bn2-g", "r-bn2-b", "r-bn2-rm", "r-bn2-rv"
            ]
        );
    }

    #[test]
    fn zero_main_path_passes_shortcut() {
        let mut rng = seeded_rng(2);
        let mut block = model(4, 4, 1, 2);
        // Zero the convolutions; bn(0)=0, so output = relu(shortcut).
        zero_convs(&mut block);
        let x = normal_init(&[1, 4, 3, 3], 0.0, 1.0, &mut rng);
        let y = block.forward(x.clone(), Mode::Train);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b.max(0.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_flows_through_shortcut_even_with_dead_main_path() {
        let mut block = model(2, 2, 1, 3);
        zero_convs(&mut block);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = block.forward(x, Mode::Train);
        let g = block.backward(Tensor::ones(y.shape()));
        // Shortcut is identity; since x > 0 the ReLU is open everywhere.
        assert!(g.data().iter().all(|&v| v > 0.0), "{:?}", g);
    }

    #[test]
    fn finite_difference_through_block_input() {
        let mut rng = seeded_rng(4);
        let mut block = model(2, 2, 1, 4);
        let x = normal_init(&[1, 2, 3, 3], 0.5, 0.5, &mut rng);
        // Use eval mode so batch statistics don't change with the bump
        // (batch-norm in train mode has a nonlocal dependence on the batch).
        let y = block.forward(x.clone(), Mode::Eval);
        let gi = block.backward(Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in [0usize, 7, 13] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = block.forward(xp, Mode::Eval).sum();
            let ym = block.forward(xm, Mode::Eval).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 0.05 * (1.0 + fd.abs()),
                "x[{idx}]: fd={fd} analytic={}",
                gi.data()[idx]
            );
        }
    }
}
