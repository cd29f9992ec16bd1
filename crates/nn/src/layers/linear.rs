//! Fully connected layer.

use apf_tensor::Rng;
use apf_tensor::{kaiming_uniform, Tensor};

use crate::layer::{Layer, Mode};

/// A fully connected (dense) layer: `y = x W^T + b`.
///
/// Weight has shape `[out, in]`, bias `[out]`. Parameter names are
/// `"<name>-w"` and `"<name>-b"`, matching the paper's tensor naming
/// convention (`fc2-b` etc. in Fig. 3).
#[derive(Debug)]
pub struct Linear {
    /// `-w`, `-b` names, built once: `visit_params` runs several times per
    /// training step.
    param_names: [String; 2],
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            param_names: ["w", "b"].map(|suffix| format!("{name}-{suffix}")),
            weight: kaiming_uniform(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Input feature count.
    fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Consumes the cached forward input into the parameter gradients:
    /// `dW += grad^T x`, `db +=` column sums of `grad`.
    fn accumulate_param_grads(&mut self, grad: &Tensor) {
        let x = self
            .cached_input
            .take()
            .expect("linear backward called before forward");
        let dw = grad.matmul_tn(&x);
        self.grad_weight.axpy(1.0, &dw);
        dw.recycle();
        let db = grad.sum_rows();
        self.grad_bias.axpy(1.0, &db);
        db.recycle();
        x.recycle();
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in]");
        assert_eq!(
            x.shape()[1],
            self.in_features(),
            "linear input width mismatch"
        );
        let mut out = x.matmul_nt(&self.weight);
        out.add_row_in_place(&self.bias);
        // Replace (not just overwrite) the cache so an eval-only loop, which
        // never runs backward, still returns the previous input's buffer to
        // the scratch pool instead of dropping it every batch.
        if let Some(old) = self.cached_input.replace(x) {
            old.recycle();
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        self.accumulate_param_grads(&grad);
        // dx = grad W.
        let dx = grad.matmul(&self.weight);
        grad.recycle();
        dx
    }

    fn backward_params(&mut self, grad: Tensor) {
        self.accumulate_param_grads(&grad);
        grad.recycle();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        let [w, b] = &self.param_names;
        f(w, true, &mut self.weight, &mut self.grad_weight);
        f(b, true, &mut self.bias, &mut self.grad_bias);
    }

    fn kind(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(0);
        let mut l = Linear::new("fc", 3, 2, &mut rng);
        l.visit_params(&mut |name, _, v, _| {
            if name.ends_with("-b") {
                v.fill(1.0);
            } else {
                v.fill(0.0);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = l.forward(x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[2, 2]);
        assert!(y.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new("fc", 4, 3, &mut rng);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.3 - 1.0).collect(), &[2, 4]);
        let y = l.forward(x.clone(), Mode::Train, &mut rng);
        let grad_in = l.backward(Tensor::ones(y.shape()));
        // Finite differences on the weight.
        let eps = 1e-3;
        let mut analytic = Tensor::zeros(&[3, 4]);
        l.visit_params(&mut |name, _, _, g| {
            if name.ends_with("-w") {
                analytic = g.clone();
            }
        });
        for idx in [0usize, 5, 11] {
            let bump = |delta: f32, l: &mut Linear| {
                l.visit_params(&mut |name, _, v, _| {
                    if name.ends_with("-w") {
                        v.data_mut()[idx] += delta;
                    }
                });
            };
            bump(eps, &mut l);
            let yp = l.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(-2.0 * eps, &mut l);
            let ym = l.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(eps, &mut l);
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[idx]).abs() < 1e-2,
                "w[{idx}]: fd={fd} analytic={}",
                analytic.data()[idx]
            );
        }
        // Input gradient: each input scalar's gradient is the column sum of W.
        let w_colsum = {
            let mut t = vec![0.0f32; 4];
            l.visit_params(&mut |name, _, v, _| {
                if name.ends_with("-w") {
                    for o in 0..3 {
                        for (i, ti) in t.iter_mut().enumerate() {
                            *ti += v.data()[o * 4 + i];
                        }
                    }
                }
            });
            t
        };
        for n in 0..2 {
            for (i, &want) in w_colsum.iter().enumerate() {
                assert!((grad_in.at2(n, i) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = seeded_rng(2);
        let mut l = Linear::new("fc", 2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let y = l.forward(x.clone(), Mode::Train, &mut rng);
            l.backward(Tensor::ones(y.shape()));
        }
        l.visit_params(&mut |name, _, _, g| {
            if name.ends_with("-b") {
                assert_eq!(g.data(), &[2.0, 2.0]);
            }
        });
    }

    #[test]
    fn param_names_follow_convention() {
        let mut rng = seeded_rng(3);
        let mut l = Linear::new("fc1", 2, 2, &mut rng);
        let mut names = Vec::new();
        l.visit_params(&mut |n, t, _, _| {
            names.push(n.to_owned());
            assert!(t);
        });
        assert_eq!(names, vec!["fc1-w", "fc1-b"]);
    }
}
