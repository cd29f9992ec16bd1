//! Inverted dropout.
//!
//! The paper motivates APF# by analogy to Dropout (§5); we also keep a real
//! Dropout layer in the substrate so models can use it as a regularizer.

use apf_tensor::Rng;
use apf_tensor::Tensor;

use crate::layer::{Layer, Mode};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; evaluation is the identity.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout { p, mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, _params: &mut [f32], x: Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        match mode {
            Mode::Eval => {
                self.mask = None;
                x
            }
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask = Tensor::from_vec(
                    (0..x.numel())
                        .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
                        .collect(),
                    x.shape(),
                );
                let out = x.zip_map(&mask, |a, m| a * m);
                self.mask = Some(mask);
                out
            }
        }
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        match self.mask.take() {
            None => grad,
            Some(mask) => grad.zip_map(&mask, |g, m| g * m),
        }
    }

    fn kind(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    #[test]
    fn eval_is_identity() {
        let mut rng = seeded_rng(0);
        let mut d = Dropout::new(0.5);
        let x = Tensor::ones(&[2, 8]);
        let y = d.forward(&mut [], x.clone(), Mode::Eval, &mut rng);
        assert_eq!(y, x);
        let g = d.backward(&[], &mut [], Tensor::ones(&[2, 8]));
        assert_eq!(g, Tensor::ones(&[2, 8]));
    }

    #[test]
    fn train_preserves_expectation() {
        let mut rng = seeded_rng(1);
        let mut d = Dropout::new(0.3);
        let x = Tensor::ones(&[1, 20000]);
        let y = d.forward(&mut [], x, Mode::Train, &mut rng);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = seeded_rng(2);
        let mut d = Dropout::new(0.5);
        let y = d.forward(&mut [], Tensor::ones(&[1, 64]), Mode::Train, &mut rng);
        let g = d.backward(&[], &mut [], Tensor::ones(&[1, 64]));
        // Zeroed positions in the output must be zeroed in the gradient too.
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0);
    }
}
