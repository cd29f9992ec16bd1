//! Elementwise activation layers.

use apf_tensor::Tensor;

use crate::layer::{Layer, Mode};

/// Which elementwise nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A parameterless elementwise activation layer.
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    cached_output: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cached_output: None,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Activation::new(ActivationKind::Relu)
    }
}

pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Activation {
    fn forward(&mut self, _params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        let mut out = x;
        match self.kind {
            ActivationKind::Relu => out.map_in_place(|v| v.max(0.0)),
            ActivationKind::Tanh => out.map_in_place(f32::tanh),
            ActivationKind::Sigmoid => out.map_in_place(sigmoid),
        }
        // All three derivatives are expressible from the *output*, so caching
        // the output alone suffices; replace-and-recycle keeps eval-only
        // loops allocation-free.
        if let Some(old) = self.cached_output.replace(out.scratch_copy()) {
            old.recycle();
        }
        out
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("activation backward before forward");
        let mut g = grad;
        match self.kind {
            ActivationKind::Relu => g.zip_with(&y, |g, o| if o > 0.0 { g } else { 0.0 }),
            ActivationKind::Tanh => g.zip_with(&y, |g, o| g * (1.0 - o * o)),
            ActivationKind::Sigmoid => g.zip_with(&y, |g, o| g * o * (1.0 - o)),
        }
        y.recycle();
        g
    }

    fn kind(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(kind: ActivationKind) {
        let mut act = Activation::new(kind);
        // Avoid 0.0: ReLU is non-differentiable there and finite differences
        // straddle the kink.
        let xs = [-2.0f32, -0.5, 0.1, 0.3, 1.7];
        let x = Tensor::from_vec(xs.to_vec(), &[1, 5]);
        let _ = act.forward(&mut [], x.clone(), Mode::Train);
        let gi = act.backward(&[], &mut [], Tensor::ones(&[1, 5]));
        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for i in 0..5 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = act.forward(&mut [], xp, Mode::Train).sum();
            let _ = act.backward(&[], &mut [], Tensor::ones(&[1, 5]));
            let ym = act.forward(&mut [], xm, Mode::Train).sum();
            let _ = act.backward(&[], &mut [], Tensor::ones(&[1, 5]));
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gi.data()[i]).abs() < 1e-2,
                "{kind:?} x={} fd={fd} analytic={}",
                xs[i],
                gi.data()[i]
            );
        }
    }

    #[test]
    fn relu_gradient() {
        fd_check(ActivationKind::Relu);
    }

    #[test]
    fn tanh_gradient() {
        fd_check(ActivationKind::Tanh);
    }

    #[test]
    fn sigmoid_gradient() {
        fd_check(ActivationKind::Sigmoid);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut act = Activation::relu();
        let y = act.forward(&mut [], Tensor::from_vec(vec![-1.0, 2.0], &[2]), Mode::Eval);
        assert_eq!(y.data(), &[0.0, 2.0]);
    }

    #[test]
    fn sigmoid_range() {
        let mut act = Activation::new(ActivationKind::Sigmoid);
        let y = act.forward(
            &mut [],
            Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]),
            Mode::Eval,
        );
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }
}
