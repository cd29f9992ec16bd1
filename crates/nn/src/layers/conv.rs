//! Convolutional layer wrapping the convolution entry points of `apf-tensor`
//! (direct kernels at stride 1, `im2col` + `matmul` otherwise).

use apf_tensor::Rng;
use apf_tensor::{
    axpy, conv2d_backward_fused, conv2d_backward_params_fused, conv2d_forward_fused,
    kaiming_uniform, ConvSpec, Tensor,
};

use crate::layer::{Layer, Mode, Param};

/// A 2-D convolution layer with square kernels.
///
/// Weight is stored pre-flattened as `[out_channels, in_channels*k*k]`,
/// followed by the `[out_channels]` bias; parameter names are `"<name>-w"` /
/// `"<name>-b"` (cf. `conv1-w` in Fig. 3 of the paper).
#[derive(Debug)]
pub struct Conv2d {
    spec: ConvSpec,
    /// The initial weight and bias, until the model takes them.
    init: Vec<Param>,
    // The forward input, kept for the backward pass (which takes it instead
    // of a cached, much larger `cols`).
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights.
    pub fn new(name: &str, spec: ConvSpec, rng: &mut Rng) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        Conv2d {
            spec,
            init: vec![
                Param::trainable(
                    format!("{name}-w"),
                    kaiming_uniform(&[spec.out_channels, fan_in], fan_in, rng),
                ),
                Param::trainable(format!("{name}-b"), Tensor::zeros(&[spec.out_channels])),
            ],
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The forward input, handed over for the backward pass.
    fn take_input(&mut self) -> Tensor {
        self.cached_input
            .take()
            .expect("conv2d backward before forward")
    }

    fn accumulate(&self, grads: &mut [f32], grad_weight: Tensor, grad_bias: Tensor) {
        let (gw, gb) = grads.split_at_mut(grads.len() - self.spec.out_channels);
        axpy(gw, 1.0, grad_weight.data());
        axpy(gb, 1.0, grad_bias.data());
        grad_weight.recycle();
        grad_bias.recycle();
    }
}

impl Layer for Conv2d {
    fn take_params(&mut self) -> Vec<Param> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 4, "conv2d expects [N,C,H,W]");
        let (weight, bias) = params.split_at(params.len() - self.spec.out_channels);
        let out = conv2d_forward_fused(&x, weight, bias, &self.spec);
        // Replace-and-recycle so eval-only loops return the stale cached
        // input to the scratch pool instead of dropping it every batch.
        if let Some(old) = self.cached_input.replace(x) {
            old.recycle();
        }
        out
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let x = self.take_input();
        let weight = &params[..params.len() - self.spec.out_channels];
        let g = conv2d_backward_fused(&grad, &x, weight, &self.spec);
        self.accumulate(grads, g.weight, g.bias);
        grad.recycle();
        x.recycle();
        g.input
    }

    fn backward_params(&mut self, _params: &[f32], grads: &mut [f32], grad: Tensor) {
        let x = self.take_input();
        let (grad_weight, grad_bias) = conv2d_backward_params_fused(&grad, &x, &self.spec);
        self.accumulate(grads, grad_weight, grad_bias);
        grad.recycle();
        x.recycle();
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;
    use apf_tensor::seeded_rng;

    fn model(spec: ConvSpec, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("t").push(Conv2d::new("c", spec, &mut rng))
    }

    #[test]
    fn forward_output_shape() {
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 6,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let mut m = model(spec, 0);
        let y = m.forward(Tensor::zeros(&[2, 3, 16, 16]), Mode::Train);
        assert_eq!(y.shape(), &[2, 6, 16, 16]);
    }

    #[test]
    fn backward_finite_difference_on_weight() {
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut m = model(spec, 1);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4).map(|i| (i as f32 * 0.7).sin()).collect(),
            &[2, 2, 4, 4],
        );
        let y = m.forward(x.clone(), Mode::Train);
        m.backward(Tensor::ones(y.shape()));
        let analytic = m.flat_grads();
        let w = m.flat_spec().get("c-w").unwrap().offset;
        let eps = 1e-2;
        for idx in [0usize, 7, 17, 35] {
            m.params_mut()[w + idx] += eps;
            let yp = m.forward(x.clone(), Mode::Train).sum();
            m.params_mut()[w + idx] -= 2.0 * eps;
            let ym = m.forward(x.clone(), Mode::Train).sum();
            m.params_mut()[w + idx] += eps;
            let fd = (yp - ym) / (2.0 * eps);
            let an = analytic[w + idx];
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "fd={fd} an={an}");
        }
    }

    #[test]
    fn backward_input_gradient_shape() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let mut m = model(spec, 2);
        let y = m.forward(Tensor::ones(&[3, 1, 8, 8]), Mode::Train);
        assert_eq!(y.shape(), &[3, 4, 4, 4]);
        let gi = m.backward(Tensor::ones(y.shape()));
        assert_eq!(gi.shape(), &[3, 1, 8, 8]);
    }
}
