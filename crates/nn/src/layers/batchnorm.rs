//! 2-D batch normalization with running statistics.

use apf_tensor::Tensor;

use crate::layer::{Layer, Mode, Param};

const EPS: f32 = 1e-5;

/// Batch normalization over `[N, C, H, W]`, normalizing each channel across
/// the batch and spatial dimensions.
///
/// Trainable parameters are `"<name>-g"` (gamma) and `"<name>-b"` (beta).
/// The running mean/variance follow them in the arena as *non-trainable
/// buffers* (`"<name>-rm"` / `"<name>-rv"`): they take part in federated
/// synchronization and in APF freezing, but optimizers never touch them —
/// this mirrors how FedAvg synchronizes BN state in practice. Their
/// gradient slots stay zero.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    momentum: f32,
    /// The initial gamma, beta and running statistics, until the model
    /// takes them.
    init: Vec<Param>,
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
            channels,
            momentum: 0.1,
            init: vec![
                Param::trainable(format!("{name}-g"), Tensor::ones(&[channels])),
                Param::trainable(format!("{name}-b"), Tensor::zeros(&[channels])),
                Param::buffer(format!("{name}-rm"), Tensor::zeros(&[channels])),
                Param::buffer(format!("{name}-rv"), Tensor::ones(&[channels])),
            ],
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
    fn take_params(&mut self) -> Vec<Param> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &mut [f32], x: Tensor, mode: Mode) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "batchnorm expects [N,C,H,W]");
        assert_eq!(s[1], self.channels, "channel count mismatch");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (affine, running) = params.split_at_mut(2 * c);
        let (g, b) = affine.split_at(c);
        let (rm, rv) = running.split_at_mut(c);
        let (mean, var) = match mode {
            Mode::Train => {
                let (mean, var) = self.channel_stats(&x);
                for ci in 0..c {
                    rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
                    rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
                }
                (mean, var)
            }
            Mode::Eval => (rm.to_vec(), rv.to_vec()),
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut xhat = vec![0.0f32; x.numel()];
        let mut xmm = vec![0.0f32; x.numel()];
        let mut out = vec![0.0f32; x.numel()];
        let data = x.data();
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

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward before forward");
        let s = grad.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = (n * h * w) as f32;
        let gd = grad.data();
        let xhat = cache.xhat.data();
        let gamma = &params[..c];

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
        let (grad_gamma, grad_beta) = grads[..2 * c].split_at_mut(c);
        for ci in 0..c {
            grad_gamma[ci] += dgamma[ci];
            grad_beta[ci] += dbeta[ci];
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

    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;
    use apf_tensor::{normal_init, seeded_rng};

    fn model(name: &str, channels: usize) -> Sequential {
        Sequential::new("t").push(BatchNorm2d::new(name, channels))
    }

    #[test]
    fn train_forward_normalizes() {
        let mut rng = seeded_rng(0);
        let mut bn = model("bn", 2);
        let x = normal_init(&[4, 2, 3, 3], 5.0, 3.0, &mut rng);
        let y = bn.forward(x, Mode::Train);
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
        let mut bn = model("bn", 1);
        let x = normal_init(&[8, 1, 4, 4], 2.0, 1.0, &mut rng);
        for _ in 0..200 {
            let _ = bn.forward(x.clone(), Mode::Train);
        }
        let rm = bn.flat_params()[bn.flat_spec().get("bn-rm").unwrap().offset];
        assert!((rm - 2.0).abs() < 0.2, "running mean {rm}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = seeded_rng(2);
        let mut bn = model("bn", 1);
        // With default running stats (mean 0, var 1) eval is ~identity.
        let x = normal_init(&[2, 1, 2, 2], 0.0, 1.0, &mut rng);
        let y = bn.forward(x.clone(), Mode::Eval);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let mut bn = model("bn", 2);
        let x = normal_init(&[2, 2, 2, 2], 1.0, 2.0, &mut rng);
        // Loss: weighted sum to get non-uniform gradients.
        let wvec: Vec<f32> = (0..x.numel()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let loss = |bn: &mut Sequential, x: &Tensor| -> f32 {
            let y = bn.forward(x.clone(), Mode::Train);
            y.data().iter().zip(&wvec).map(|(a, b)| a * b).sum()
        };
        let _ = loss(&mut bn, &x);
        let grad = Tensor::from_vec(wvec.clone(), x.shape());
        let gi = bn.backward(grad);
        let eps = 1e-2;
        for idx in [0usize, 3, 9, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            // Fresh layers so running-stat updates don't pollute the check.
            let yp = loss(&mut model("bn", 2), &xp);
            let ym = loss(&mut model("bn", 2), &xm);
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
        let bn = model("bn1", 3);
        let seen: Vec<(&str, bool)> = bn
            .flat_spec()
            .params()
            .iter()
            .map(|p| (p.name.as_str(), p.trainable))
            .collect();
        assert_eq!(
            seen,
            vec![
                ("bn1-g", true),
                ("bn1-b", true),
                ("bn1-rm", false),
                ("bn1-rv", false),
            ]
        );
    }
}
