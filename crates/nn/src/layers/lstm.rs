//! LSTM layer with full backpropagation-through-time, plus the [`LastStep`]
//! adapter that feeds the final hidden state into a classification head.

use apf_tensor::Rng;
use apf_tensor::{xavier_uniform, Tensor};

use crate::layer::{Layer, Mode};
use crate::layers::activation::sigmoid;

/// A single LSTM layer processing a whole sequence.
///
/// Input is `[N, T, input_size]`, output is the hidden sequence
/// `[N, T, hidden]`. Gates are packed `i, f, g, o` along the `4H` axis.
/// Parameters: `"<name>-wih"` (`[4H, D]`), `"<name>-whh"` (`[4H, H]`),
/// `"<name>-b"` (`[4H]`).
pub struct LstmLayer {
    name: String,
    /// `-wih`, `-whh`, `-b` names, built once: `visit_params` runs several
    /// times per training step.
    param_names: [String; 3],
    input_size: usize,
    hidden: usize,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    grad_w_ih: Tensor,
    grad_w_hh: Tensor,
    grad_bias: Tensor,
    cache: Option<LstmCache>,
}

struct LstmCache {
    /// Per-timestep input `[N, D]`.
    xs: Vec<Tensor>,
    /// h_{t} for t = -1..T-1 (index 0 is the initial zero state) `[N, H]`.
    hs: Vec<Tensor>,
    /// c_{t} for t = -1..T-1, same convention.
    cs: Vec<Tensor>,
    /// Post-activation gates per timestep `[N, 4H]` packed i,f,g,o.
    gates: Vec<Tensor>,
    n: usize,
    t: usize,
}

impl std::fmt::Debug for LstmLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LstmLayer")
            .field("name", &self.name)
            .field("input_size", &self.input_size)
            .field("hidden", &self.hidden)
            .finish()
    }
}

impl LstmLayer {
    /// Creates an LSTM layer with Xavier-uniform weights.
    ///
    /// The forget-gate bias is initialized to 1.0 (standard trick easing
    /// gradient flow early in training).
    pub fn new(name: &str, input_size: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for i in hidden..2 * hidden {
            bias.data_mut()[i] = 1.0;
        }
        LstmLayer {
            name: name.to_owned(),
            param_names: ["wih", "whh", "b"].map(|suffix| format!("{name}-{suffix}")),
            input_size,
            hidden,
            w_ih: xavier_uniform(&[4 * hidden, input_size], input_size, hidden, rng),
            w_hh: xavier_uniform(&[4 * hidden, hidden], hidden, hidden, rng),
            bias,
            grad_w_ih: Tensor::zeros(&[4 * hidden, input_size]),
            grad_w_hh: Tensor::zeros(&[4 * hidden, hidden]),
            grad_bias: Tensor::zeros(&[4 * hidden]),
            cache: None,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

impl Layer for LstmLayer {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "lstm expects [N, T, D]");
        let (n, t, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_size, "lstm input width mismatch");
        let h = self.hidden;

        let mut xs = Vec::with_capacity(t);
        for ti in 0..t {
            // Gather x[:, ti, :] into [N, D].
            let mut step = vec![0.0f32; n * d];
            for ni in 0..n {
                let src = &x.data()[(ni * t + ti) * d..(ni * t + ti + 1) * d];
                step[ni * d..(ni + 1) * d].copy_from_slice(src);
            }
            xs.push(Tensor::from_vec(step, &[n, d]));
        }

        let mut hs = vec![Tensor::zeros(&[n, h])];
        let mut cs = vec![Tensor::zeros(&[n, h])];
        let mut gates = Vec::with_capacity(t);
        let mut out = vec![0.0f32; n * t * h];

        for ti in 0..t {
            // pre = x_t W_ih^T + h_{t-1} W_hh^T + b  -> [N, 4H]
            let mut pre = xs[ti].matmul_nt(&self.w_ih);
            pre.axpy(1.0, &hs[ti].matmul_nt(&self.w_hh));
            pre.add_row_in_place(&self.bias);

            let mut gate = vec![0.0f32; n * 4 * h];
            let mut c_t = vec![0.0f32; n * h];
            let mut h_t = vec![0.0f32; n * h];
            let c_prev = cs[ti].data();
            let pd = pre.data();
            for ni in 0..n {
                for hi in 0..h {
                    let base = ni * 4 * h;
                    let ig = sigmoid(pd[base + hi]);
                    let fg = sigmoid(pd[base + h + hi]);
                    let gg = pd[base + 2 * h + hi].tanh();
                    let og = sigmoid(pd[base + 3 * h + hi]);
                    let c = fg * c_prev[ni * h + hi] + ig * gg;
                    gate[base + hi] = ig;
                    gate[base + h + hi] = fg;
                    gate[base + 2 * h + hi] = gg;
                    gate[base + 3 * h + hi] = og;
                    c_t[ni * h + hi] = c;
                    let hv = og * c.tanh();
                    h_t[ni * h + hi] = hv;
                    out[(ni * t + ti) * h + hi] = hv;
                }
            }
            gates.push(Tensor::from_vec(gate, &[n, 4 * h]));
            cs.push(Tensor::from_vec(c_t, &[n, h]));
            hs.push(Tensor::from_vec(h_t, &[n, h]));
        }

        self.cache = Some(LstmCache {
            xs,
            hs,
            cs,
            gates,
            n,
            t,
        });
        Tensor::from_vec(out, &[n, t, h])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self.cache.take().expect("lstm backward before forward");
        let (n, t, h) = (cache.n, cache.t, self.hidden);
        assert_eq!(grad.shape(), &[n, t, h], "lstm grad shape mismatch");
        let d = self.input_size;

        let mut dh_next = Tensor::zeros(&[n, h]);
        let mut dc_next = Tensor::zeros(&[n, h]);
        let mut grad_x = vec![0.0f32; n * t * d];

        for ti in (0..t).rev() {
            // dh_t = grad from output sequence + carry from t+1.
            let mut dh = dh_next.clone();
            for ni in 0..n {
                for hi in 0..h {
                    dh.data_mut()[ni * h + hi] += grad.data()[(ni * t + ti) * h + hi];
                }
            }
            let gate = cache.gates[ti].data();
            let c_t = cache.cs[ti + 1].data();
            let c_prev = cache.cs[ti].data();

            let mut dpre = vec![0.0f32; n * 4 * h];
            let mut dc_prev = vec![0.0f32; n * h];
            for ni in 0..n {
                for hi in 0..h {
                    let base = ni * 4 * h;
                    let ig = gate[base + hi];
                    let fg = gate[base + h + hi];
                    let gg = gate[base + 2 * h + hi];
                    let og = gate[base + 3 * h + hi];
                    let tc = c_t[ni * h + hi].tanh();
                    let dhv = dh.data()[ni * h + hi];
                    let mut dc = dc_next.data()[ni * h + hi];
                    dc += dhv * og * (1.0 - tc * tc);
                    let do_ = dhv * tc;
                    let di = dc * gg;
                    let dg = dc * ig;
                    let df = dc * c_prev[ni * h + hi];
                    dc_prev[ni * h + hi] = dc * fg;
                    dpre[base + hi] = di * ig * (1.0 - ig);
                    dpre[base + h + hi] = df * fg * (1.0 - fg);
                    dpre[base + 2 * h + hi] = dg * (1.0 - gg * gg);
                    dpre[base + 3 * h + hi] = do_ * og * (1.0 - og);
                }
            }
            let dpre_t = Tensor::from_vec(dpre, &[n, 4 * h]);

            // Parameter gradients.
            self.grad_w_ih.axpy(1.0, &dpre_t.matmul_tn(&cache.xs[ti]));
            self.grad_w_hh.axpy(1.0, &dpre_t.matmul_tn(&cache.hs[ti]));
            self.grad_bias.axpy(1.0, &dpre_t.sum_rows());

            // Input and recurrent gradients.
            let dx_t = dpre_t.matmul(&self.w_ih); // [N, D]
            for ni in 0..n {
                let dst = &mut grad_x[(ni * t + ti) * d..(ni * t + ti + 1) * d];
                let src = &dx_t.data()[ni * d..(ni + 1) * d];
                dst.copy_from_slice(src);
            }
            dh_next = dpre_t.matmul(&self.w_hh); // [N, H]
            dc_next = Tensor::from_vec(dc_prev, &[n, h]);
        }

        Tensor::from_vec(grad_x, &[n, t, d])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        let [wih, whh, b] = &self.param_names;
        f(wih, true, &mut self.w_ih, &mut self.grad_w_ih);
        f(whh, true, &mut self.w_hh, &mut self.grad_w_hh);
        f(b, true, &mut self.bias, &mut self.grad_bias);
    }

    fn kind(&self) -> &'static str {
        "lstm"
    }
}

/// Extracts the final timestep of a `[N, T, H]` sequence as `[N, H]`.
///
/// Its backward pass scatters the gradient to the last step and zeros
/// everywhere else, so it composes with [`LstmLayer`] in a [`crate::Sequential`].
#[derive(Debug, Default)]
pub struct LastStep {
    cached_shape: Option<Vec<usize>>,
}

impl LastStep {
    /// Creates the adapter.
    pub fn new() -> Self {
        LastStep::default()
    }
}

impl Layer for LastStep {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 3, "last-step expects [N, T, H]");
        let (n, t, h) = (s[0], s[1], s[2]);
        let mut out = vec![0.0f32; n * h];
        for ni in 0..n {
            let src = &x.data()[(ni * t + t - 1) * h..(ni * t + t) * h];
            out[ni * h..(ni + 1) * h].copy_from_slice(src);
        }
        self.cached_shape = Some(s);
        Tensor::from_vec(out, &[n, h])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let s = self
            .cached_shape
            .take()
            .expect("last-step backward before forward");
        let (n, t, h) = (s[0], s[1], s[2]);
        let mut out = vec![0.0f32; n * t * h];
        for ni in 0..n {
            let dst = &mut out[(ni * t + t - 1) * h..(ni * t + t) * h];
            dst.copy_from_slice(&grad.data()[ni * h..(ni + 1) * h]);
        }
        Tensor::from_vec(out, &s)
    }

    fn kind(&self) -> &'static str {
        "last_step"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded_rng(0);
        let mut lstm = LstmLayer::new("l1", 5, 7, &mut rng);
        let x = Tensor::zeros(&[3, 4, 5]);
        let y = lstm.forward(x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[3, 4, 7]);
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_hidden() {
        let mut rng = seeded_rng(1);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        lstm.visit_params(&mut |_, _, v, _| v.fill(0.0));
        let y = lstm.forward(Tensor::zeros(&[1, 3, 2]), Mode::Train, &mut rng);
        // All gates 0.5/0, c stays 0, h = 0.5*tanh(0) = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference_weights() {
        let mut rng = seeded_rng(2);
        let mut lstm = LstmLayer::new("l", 3, 4, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 3 * 3)
                .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
                .collect(),
            &[2, 3, 3],
        );
        // Loss: sum of all hidden outputs.
        let y = lstm.forward(x.clone(), Mode::Train, &mut rng);
        lstm.backward(Tensor::ones(y.shape()));
        for (pick, idx) in [("-wih", 5usize), ("-whh", 9), ("-b", 2), ("-b", 6)] {
            let mut analytic = 0.0;
            lstm.visit_params(&mut |n, _, _, g| {
                if n.ends_with(pick) {
                    analytic = g.data()[idx];
                }
            });
            let eps = 1e-3;
            let bump = |d: f32, l: &mut LstmLayer| {
                l.visit_params(&mut |n, _, v, _| {
                    if n.ends_with(pick) {
                        v.data_mut()[idx] += d;
                    }
                });
            };
            bump(eps, &mut lstm);
            let yp = lstm.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(-2.0 * eps, &mut lstm);
            let ym = lstm.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(eps, &mut lstm);
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 0.02 * (1.0 + fd.abs()),
                "{pick}[{idx}]: fd={fd} analytic={analytic}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_input() {
        let mut rng = seeded_rng(3);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        let x = Tensor::from_vec(
            (0..4 * 2).map(|i| (i as f32 * 0.37).cos() * 0.5).collect(),
            &[1, 4, 2],
        );
        let y = lstm.forward(x.clone(), Mode::Train, &mut rng);
        let gi = lstm.backward(Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in [0usize, 3, 5, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = lstm.forward(xp, Mode::Train, &mut rng).sum();
            let ym = lstm.forward(xm, Mode::Train, &mut rng).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 0.02 * (1.0 + fd.abs()),
                "x[{idx}]: fd={fd} analytic={}",
                gi.data()[idx]
            );
        }
    }

    #[test]
    fn last_step_extracts_and_scatters() {
        let mut rng = seeded_rng(4);
        let mut ls = LastStep::new();
        let x = Tensor::from_vec((0..2 * 3 * 2).map(|i| i as f32).collect(), &[2, 3, 2]);
        let y = ls.forward(x, Mode::Eval, &mut rng);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 10.0, 11.0]);
        let g = ls.backward(Tensor::ones(&[2, 2]));
        assert_eq!(g.shape(), &[2, 3, 2]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data()[4], 1.0);
        assert_eq!(g.data()[0], 0.0);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = seeded_rng(5);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        lstm.visit_params(&mut |n, _, v, _| {
            if n.ends_with("-b") {
                assert_eq!(&v.data()[3..6], &[1.0, 1.0, 1.0]);
                assert_eq!(&v.data()[0..3], &[0.0, 0.0, 0.0]);
            }
        });
    }
}
