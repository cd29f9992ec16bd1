//! Shape adapter from `[N, C, H, W]` (or any rank ≥ 2) to `[N, features]`.

use apf_tensor::Tensor;

use crate::layer::{Layer, Mode};

/// Flattens every non-batch dimension into one feature axis.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, _params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        let shape = x.shape().to_vec();
        assert!(shape.len() >= 2, "flatten expects rank >= 2");
        let n = shape[0];
        let features: usize = shape[1..].iter().product();
        self.cached_shape = Some(shape);
        let mut out = x;
        out.reshape_in_place(&[n, features]);
        out
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("flatten backward before forward");
        let mut g = grad;
        g.reshape_in_place(&shape);
        g
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_shapes() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[3, 2, 4, 4]);
        let y = fl.forward(&mut [], x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 32]);
        let g = fl.backward(&[], &mut [], Tensor::ones(&[3, 32]));
        assert_eq!(g.shape(), &[3, 2, 4, 4]);
    }
}
