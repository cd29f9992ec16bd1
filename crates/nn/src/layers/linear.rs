//! Fully connected layer.

use apf_tensor::Rng;
use apf_tensor::{axpy, kaiming_uniform, matmul_nt_slices, matmul_slices, matmul_tn_add, Tensor};

use crate::layer::{Layer, Mode, Param};

/// A fully connected (dense) layer: `y = x W^T + b`.
///
/// Weight has shape `[out, in]`, bias `[out]`, in that order in the arena.
/// Parameter names are `"<name>-w"` and `"<name>-b"`, matching the paper's
/// tensor naming convention (`fc2-b` etc. in Fig. 3).
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// The initial weight and bias, until the model takes them.
    init: Vec<Param>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            in_features,
            out_features,
            init: vec![
                Param::trainable(
                    format!("{name}-w"),
                    kaiming_uniform(&[out_features, in_features], in_features, rng),
                ),
                Param::trainable(format!("{name}-b"), Tensor::zeros(&[out_features])),
            ],
            cached_input: None,
        }
    }

    /// Consumes the cached forward input into the parameter gradients:
    /// `dW += grad^T x`, `db +=` column sums of `grad`.
    fn accumulate_param_grads(&mut self, grads: &mut [f32], grad: &Tensor) {
        let x = self
            .cached_input
            .take()
            .expect("linear backward called before forward");
        let (grad_w, grad_b) = grads.split_at_mut(self.out_features * self.in_features);
        matmul_tn_add(
            grad_w,
            grad.data(),
            x.data(),
            self.out_features,
            grad.shape()[0],
            self.in_features,
        );
        let db = grad.sum_rows();
        axpy(grad_b, 1.0, db.data());
        db.recycle();
        x.recycle();
    }
}

impl Layer for Linear {
    fn take_params(&mut self) -> Vec<Param> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in]");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "linear input width mismatch"
        );
        let (weight, bias) = params.split_at(self.out_features * self.in_features);
        let mut out = matmul_nt_slices(
            x.data(),
            weight,
            x.shape()[0],
            self.in_features,
            self.out_features,
        );
        out.add_row_in_place(bias);
        // Replace (not just overwrite) the cache so an eval-only loop, which
        // never runs backward, still returns the previous input's buffer to
        // the scratch pool instead of dropping it every batch.
        if let Some(old) = self.cached_input.replace(x) {
            old.recycle();
        }
        out
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        self.accumulate_param_grads(grads, &grad);
        // dx = grad W.
        let weight = &params[..self.out_features * self.in_features];
        let dx = matmul_slices(
            grad.data(),
            weight,
            grad.shape()[0],
            self.out_features,
            self.in_features,
        );
        grad.recycle();
        dx
    }

    fn backward_params(&mut self, _params: &[f32], grads: &mut [f32], grad: Tensor) {
        self.accumulate_param_grads(grads, &grad);
        grad.recycle();
    }

    fn kind(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;
    use apf_tensor::seeded_rng;

    fn model(l: Linear) -> Sequential {
        Sequential::new("t").push(l)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(0);
        let mut m = model(Linear::new("fc", 3, 2, &mut rng));
        let b = m.flat_spec().get("fc-b").unwrap().offset;
        for (i, v) in m.params_mut().iter_mut().enumerate() {
            *v = if i >= b { 1.0 } else { 0.0 };
        }
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = m.forward(x, Mode::Train);
        assert_eq!(y.shape(), &[2, 2]);
        assert!(y.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(1);
        let mut m = model(Linear::new("fc", 4, 3, &mut rng));
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.3 - 1.0).collect(), &[2, 4]);
        let y = m.forward(x.clone(), Mode::Train);
        let grad_in = m.backward(Tensor::ones(y.shape()));
        // Finite differences on the weight (the arena's first 12 scalars).
        let eps = 1e-3;
        let analytic = m.flat_grads();
        for idx in [0usize, 5, 11] {
            m.params_mut()[idx] += eps;
            let yp = m.forward(x.clone(), Mode::Train).sum();
            m.params_mut()[idx] -= 2.0 * eps;
            let ym = m.forward(x.clone(), Mode::Train).sum();
            m.params_mut()[idx] += eps;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic[idx]).abs() < 1e-2,
                "w[{idx}]: fd={fd} analytic={}",
                analytic[idx]
            );
        }
        // Input gradient: each input scalar's gradient is the column sum of W.
        let w = m.flat_params();
        let mut w_colsum = [0.0f32; 4];
        for o in 0..3 {
            for (i, ti) in w_colsum.iter_mut().enumerate() {
                *ti += w[o * 4 + i];
            }
        }
        for n in 0..2 {
            for (i, &want) in w_colsum.iter().enumerate() {
                assert!((grad_in.at2(n, i) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = seeded_rng(2);
        let mut m = model(Linear::new("fc", 2, 2, &mut rng));
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let y = m.forward(x.clone(), Mode::Train);
            m.backward(Tensor::ones(y.shape()));
        }
        let b = m.flat_spec().get("fc-b").unwrap().offset;
        assert_eq!(&m.flat_grads()[b..], &[2.0, 2.0]);
    }

    #[test]
    fn param_names_follow_convention() {
        let mut rng = seeded_rng(3);
        let m = model(Linear::new("fc1", 2, 2, &mut rng));
        let names: Vec<&str> = m
            .flat_spec()
            .params()
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names, vec!["fc1-w", "fc1-b"]);
        assert!(m.flat_spec().params().iter().all(|p| p.trainable));
    }
}
