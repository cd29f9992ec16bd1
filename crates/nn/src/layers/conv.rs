//! Convolutional layer wrapping the convolution entry points of `apf-tensor`
//! (direct kernels at stride 1, `im2col` + `matmul` otherwise).

use apf_tensor::Rng;
use apf_tensor::{
    conv2d_backward_fused, conv2d_backward_params_fused, conv2d_forward_fused, kaiming_uniform,
    ConvSpec, Tensor,
};

use crate::layer::{Layer, Mode};

/// A 2-D convolution layer with square kernels.
///
/// Weight is stored pre-flattened as `[out_channels, in_channels*k*k]`;
/// parameter names are `"<name>-w"` / `"<name>-b"` (cf. `conv1-w` in Fig. 3
/// of the paper).
#[derive(Debug)]
pub struct Conv2d {
    /// `-w`, `-b` names, built once: `visit_params` runs several times per
    /// training step.
    param_names: [String; 2],
    spec: ConvSpec,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    // The forward input, kept for the backward pass (which takes it instead
    // of a cached, much larger `cols`).
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights.
    pub fn new(name: &str, spec: ConvSpec, rng: &mut Rng) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        Conv2d {
            param_names: ["w", "b"].map(|suffix| format!("{name}-{suffix}")),
            spec,
            weight: kaiming_uniform(&[spec.out_channels, fan_in], fan_in, rng),
            bias: Tensor::zeros(&[spec.out_channels]),
            grad_weight: Tensor::zeros(&[spec.out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[spec.out_channels]),
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

    fn accumulate(&mut self, grad_weight: Tensor, grad_bias: Tensor) {
        self.grad_weight.axpy(1.0, &grad_weight);
        self.grad_bias.axpy(1.0, &grad_bias);
        grad_weight.recycle();
        grad_bias.recycle();
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        assert_eq!(x.shape().len(), 4, "conv2d expects [N,C,H,W]");
        let out = conv2d_forward_fused(&x, &self.weight, &self.bias, &self.spec);
        // Replace-and-recycle so eval-only loops return the stale cached
        // input to the scratch pool instead of dropping it every batch.
        if let Some(old) = self.cached_input.replace(x) {
            old.recycle();
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self.take_input();
        let grads = conv2d_backward_fused(&grad, &x, &self.weight, &self.spec);
        self.accumulate(grads.weight, grads.bias);
        grad.recycle();
        x.recycle();
        grads.input
    }

    fn backward_params(&mut self, grad: Tensor) {
        let x = self.take_input();
        let (grad_weight, grad_bias) = conv2d_backward_params_fused(&grad, &x, &self.spec);
        self.accumulate(grad_weight, grad_bias);
        grad.recycle();
        x.recycle();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        let [w, b] = &self.param_names;
        f(w, true, &mut self.weight, &mut self.grad_weight);
        f(b, true, &mut self.bias, &mut self.grad_bias);
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    #[test]
    fn forward_output_shape() {
        let mut rng = seeded_rng(0);
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 6,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let mut conv = Conv2d::new("conv1", spec, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = conv.forward(x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[2, 6, 16, 16]);
    }

    #[test]
    fn backward_finite_difference_on_weight() {
        let mut rng = seeded_rng(1);
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4).map(|i| (i as f32 * 0.7).sin()).collect(),
            &[2, 2, 4, 4],
        );
        let y = conv.forward(x.clone(), Mode::Train, &mut rng);
        conv.backward(Tensor::ones(y.shape()));
        let mut analytic = Tensor::default();
        conv.visit_params(&mut |n, _, _, g| {
            if n.ends_with("-w") {
                analytic = g.clone();
            }
        });
        let eps = 1e-2;
        for idx in [0usize, 7, 17, 35] {
            let bump = |d: f32, c: &mut Conv2d| {
                c.visit_params(&mut |n, _, v, _| {
                    if n.ends_with("-w") {
                        v.data_mut()[idx] += d;
                    }
                });
            };
            bump(eps, &mut conv);
            let yp = conv.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(-2.0 * eps, &mut conv);
            let ym = conv.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(eps, &mut conv);
            let fd = (yp - ym) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "fd={fd} an={an}");
        }
    }

    #[test]
    fn backward_input_gradient_shape() {
        let mut rng = seeded_rng(2);
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::ones(&[3, 1, 8, 8]);
        let y = conv.forward(x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[3, 4, 4, 4]);
        let gi = conv.backward(Tensor::ones(y.shape()));
        assert_eq!(gi.shape(), &[3, 1, 8, 8]);
    }
}
