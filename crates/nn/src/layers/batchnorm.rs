//! 2-D batch normalization with running statistics.

use apf_tensor::Rng;
use apf_tensor::Tensor;

use crate::layer::{Layer, Mode};

const EPS: f32 = 1e-5;

/// Batch normalization over `[N, C, H, W]`, normalizing each channel across
/// the batch and spatial dimensions.
///
/// Trainable parameters are `"<name>-g"` (gamma) and `"<name>-b"` (beta).
/// The running mean/variance are exposed to the parameter traversal as
/// *non-trainable buffers* (`"<name>-rm"` / `"<name>-rv"`): they take part in
/// federated synchronization and in APF freezing, but optimizers never touch
/// them — this mirrors how FedAvg synchronizes BN state in practice.
#[derive(Debug)]
pub struct BatchNorm2d {
    /// `-g`, `-b`, `-rm`, `-rv` names, built once: `visit_params` runs
    /// several times per training step.
    param_names: [String; 4],
    channels: usize,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    // Zero-filled grad slots so buffers fit the uniform traversal signature.
    zero_grad_rm: Tensor,
    zero_grad_rv: Tensor,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>, // per channel
    x_minus_mu: Tensor,
    mode: Mode,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            param_names: ["g", "b", "rm", "rv"].map(|suffix| format!("{name}-{suffix}")),
            channels,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            zero_grad_rm: Tensor::zeros(&[channels]),
            zero_grad_rv: Tensor::zeros(&[channels]),
            cache: None,
        }
    }

    fn channel_stats(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let s = x.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = (n * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let data = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let plane = &data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                mean[ci] += plane.iter().sum::<f32>();
            }
        }
        for v in &mut mean {
            *v /= m;
        }
        for ni in 0..n {
            for ci in 0..c {
                let plane = &data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                var[ci] += plane
                    .iter()
                    .map(|&x| (x - mean[ci]) * (x - mean[ci]))
                    .sum::<f32>();
            }
        }
        for v in &mut var {
            *v /= m;
        }
        (mean, var)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: Tensor, mode: Mode, _rng: &mut Rng) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "batchnorm expects [N,C,H,W]");
        assert_eq!(s[1], self.channels, "channel count mismatch");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (mean, var) = match mode {
            Mode::Train => {
                let (mean, var) = self.channel_stats(&x);
                for ci in 0..c {
                    let rm = self.running_mean.data_mut();
                    rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
                    let rv = self.running_var.data_mut();
                    rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
                }
                (mean, var)
            }
            Mode::Eval => (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            ),
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut xhat = vec![0.0f32; x.numel()];
        let mut xmm = vec![0.0f32; x.numel()];
        let mut out = vec![0.0f32; x.numel()];
        let data = x.data();
        let g = self.gamma.data();
        let b = self.beta.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in 0..h * w {
                    let centered = data[base + i] - mean[ci];
                    let nh = centered * inv_std[ci];
                    xmm[base + i] = centered;
                    xhat[base + i] = nh;
                    out[base + i] = g[ci] * nh + b[ci];
                }
            }
        }
        self.cache = Some(BnCache {
            xhat: Tensor::from_vec(xhat, &s),
            inv_std,
            x_minus_mu: Tensor::from_vec(xmm, &s),
            mode,
        });
        Tensor::from_vec(out, &s)
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward before forward");
        let s = grad.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = (n * h * w) as f32;
        let gd = grad.data();
        let xhat = cache.xhat.data();
        let gamma = self.gamma.data().to_vec();

        // Parameter gradients (identical for train and eval mode).
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in 0..h * w {
                    dgamma[ci] += gd[base + i] * xhat[base + i];
                    dbeta[ci] += gd[base + i];
                }
            }
        }
        for ci in 0..c {
            self.grad_gamma.data_mut()[ci] += dgamma[ci];
            self.grad_beta.data_mut()[ci] += dbeta[ci];
        }

        let mut out = vec![0.0f32; grad.numel()];
        match cache.mode {
            Mode::Eval => {
                // Running stats are constants: dx = dy * gamma * inv_std.
                for ni in 0..n {
                    for (ci, (&g, &is)) in gamma.iter().zip(&cache.inv_std).enumerate() {
                        let base = (ni * c + ci) * h * w;
                        let k = g * is;
                        for i in 0..h * w {
                            out[base + i] = gd[base + i] * k;
                        }
                    }
                }
            }
            Mode::Train => {
                // Standard batch-norm backward:
                // dx = (gamma*inv_std/m) * (m*dy - sum(dy) - xhat * sum(dy*xhat))
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * h * w;
                        let k = gamma[ci] * cache.inv_std[ci] / m;
                        for i in 0..h * w {
                            out[base + i] =
                                k * (m * gd[base + i] - dbeta[ci] - xhat[base + i] * dgamma[ci]);
                        }
                    }
                }
            }
        }
        let _ = cache.x_minus_mu; // kept in cache for debuggability
        Tensor::from_vec(out, &s)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        let [g, b, rm, rv] = &self.param_names;
        f(g, true, &mut self.gamma, &mut self.grad_gamma);
        f(b, true, &mut self.beta, &mut self.grad_beta);
        f(rm, false, &mut self.running_mean, &mut self.zero_grad_rm);
        f(rv, false, &mut self.running_var, &mut self.zero_grad_rv);
    }

    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::{normal_init, seeded_rng};

    #[test]
    fn train_forward_normalizes() {
        let mut rng = seeded_rng(0);
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = normal_init(&[4, 2, 3, 3], 5.0, 3.0, &mut rng);
        let y = bn.forward(x, Mode::Train, &mut rng);
        // Per-channel output should be ~N(0,1) since gamma=1, beta=0.
        let s = y.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                vals.extend_from_slice(&y.data()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut rng = seeded_rng(1);
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = normal_init(&[8, 1, 4, 4], 2.0, 1.0, &mut rng);
        for _ in 0..200 {
            let _ = bn.forward(x.clone(), Mode::Train, &mut rng);
        }
        let rm = bn.running_mean.data()[0];
        assert!((rm - 2.0).abs() < 0.2, "running mean {rm}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = seeded_rng(2);
        let mut bn = BatchNorm2d::new("bn", 1);
        // With default running stats (mean 0, var 1) eval is ~identity.
        let x = normal_init(&[2, 1, 2, 2], 0.0, 1.0, &mut rng);
        let y = bn.forward(x.clone(), Mode::Eval, &mut rng);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = normal_init(&[2, 2, 2, 2], 1.0, 2.0, &mut rng);
        // Loss: weighted sum to get non-uniform gradients.
        let wvec: Vec<f32> = (0..x.numel()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let loss = |bn: &mut BatchNorm2d, x: &Tensor, rng: &mut Rng| -> f32 {
            let y = bn.forward(x.clone(), Mode::Train, rng);
            y.data().iter().zip(&wvec).map(|(a, b)| a * b).sum()
        };
        let _ = loss(&mut bn, &x, &mut rng);
        let grad = Tensor::from_vec(wvec.clone(), x.shape());
        let gi = bn.backward(grad);
        let eps = 1e-2;
        for idx in [0usize, 3, 9, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            // Fresh layers so running-stat updates don't pollute the check.
            let mut bn2 = BatchNorm2d::new("bn", 2);
            let yp = loss(&mut bn2, &xp, &mut rng);
            let mut bn3 = BatchNorm2d::new("bn", 2);
            let ym = loss(&mut bn3, &xm, &mut rng);
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 0.05 * (1.0 + fd.abs()),
                "idx {idx}: fd={fd} analytic={}",
                gi.data()[idx]
            );
        }
    }

    #[test]
    fn buffers_are_not_trainable() {
        let mut bn = BatchNorm2d::new("bn1", 3);
        let mut seen = Vec::new();
        bn.visit_params(&mut |n, t, _, _| seen.push((n.to_owned(), t)));
        assert_eq!(
            seen,
            vec![
                ("bn1-g".to_owned(), true),
                ("bn1-b".to_owned(), true),
                ("bn1-rm".to_owned(), false),
                ("bn1-rv".to_owned(), false),
            ]
        );
    }
}
