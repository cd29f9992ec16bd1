//! LSTM layer with full backpropagation-through-time, plus the [`LastStep`]
//! adapter that feeds the final hidden state into a classification head.

use apf_tensor::Rng;
use apf_tensor::{axpy, matmul_nt_slices, matmul_slices, matmul_tn_add, xavier_uniform, Tensor};

use crate::layer::{Layer, Mode, Param};
use crate::layers::activation::sigmoid;

/// A single LSTM layer processing a whole sequence.
///
/// Input is `[N, T, input_size]`, output is the hidden sequence
/// `[N, T, hidden]`. Gates are packed `i, f, g, o` along the `4H` axis.
/// Parameters, in arena order: `"<name>-wih"` (`[4H, D]`), `"<name>-whh"`
/// (`[4H, H]`), `"<name>-b"` (`[4H]`).
pub struct LstmLayer {
    name: String,
    input_size: usize,
    hidden: usize,
    /// The initial weights and bias, until the model takes them.
    init: Vec<Param>,
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
        let w_ih = xavier_uniform(&[4 * hidden, input_size], input_size, hidden, rng);
        let w_hh = xavier_uniform(&[4 * hidden, hidden], hidden, hidden, rng);
        LstmLayer {
            name: name.to_owned(),
            input_size,
            hidden,
            init: vec![
                Param::trainable(format!("{name}-wih"), w_ih),
                Param::trainable(format!("{name}-whh"), w_hh),
                Param::trainable(format!("{name}-b"), bias),
            ],
            cache: None,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Splits the layer's arena slice into `(w_ih, w_hh, bias)`.
    fn split<'a>(&self, slice: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32], &'a mut [f32]) {
        let four_h = 4 * self.hidden;
        let (w_ih, rest) = slice.split_at_mut(four_h * self.input_size);
        let (w_hh, bias) = rest.split_at_mut(four_h * self.hidden);
        (w_ih, w_hh, bias)
    }
}

impl Layer for LstmLayer {
    fn take_params(&mut self) -> Vec<Param> {
        std::mem::take(&mut self.init)
    }

    fn forward(&mut self, params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "lstm expects [N, T, D]");
        let (n, t, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_size, "lstm input width mismatch");
        let h = self.hidden;
        let (w_ih, w_hh, bias) = self.split(params);

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
            let mut pre = matmul_nt_slices(xs[ti].data(), w_ih, n, d, 4 * h);
            pre.axpy(1.0, &matmul_nt_slices(hs[ti].data(), w_hh, n, h, 4 * h));
            pre.add_row_in_place(bias);

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

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor {
        let cache = self.cache.take().expect("lstm backward before forward");
        let (n, t, h) = (cache.n, cache.t, self.hidden);
        assert_eq!(grad.shape(), &[n, t, h], "lstm grad shape mismatch");
        let d = self.input_size;
        let (w_ih, w_hh) = params.split_at(4 * h * d);
        let w_hh = &w_hh[..4 * h * h];
        let (grad_w_ih, grad_w_hh, grad_bias) = self.split(grads);

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
            matmul_tn_add(grad_w_ih, dpre_t.data(), cache.xs[ti].data(), 4 * h, n, d);
            matmul_tn_add(grad_w_hh, dpre_t.data(), cache.hs[ti].data(), 4 * h, n, h);
            axpy(grad_bias, 1.0, dpre_t.sum_rows().data());

            // Input and recurrent gradients.
            let dx_t = matmul_slices(dpre_t.data(), w_ih, n, 4 * h, d); // [N, D]
            for ni in 0..n {
                let dst = &mut grad_x[(ni * t + ti) * d..(ni * t + ti + 1) * d];
                let src = &dx_t.data()[ni * d..(ni + 1) * d];
                dst.copy_from_slice(src);
            }
            dh_next = matmul_slices(dpre_t.data(), w_hh, n, 4 * h, h); // [N, H]
            dc_next = Tensor::from_vec(dc_prev, &[n, h]);
        }

        Tensor::from_vec(grad_x, &[n, t, d])
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
    fn forward(&mut self, _params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
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

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
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
    use crate::Sequential;
    use apf_tensor::seeded_rng;

    fn model(d: usize, h: usize, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new("t").push(LstmLayer::new("l", d, h, &mut rng))
    }

    #[test]
    fn forward_shapes() {
        let mut lstm = model(5, 7, 0);
        let y = lstm.forward(Tensor::zeros(&[3, 4, 5]), Mode::Train);
        assert_eq!(y.shape(), &[3, 4, 7]);
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_hidden() {
        let mut lstm = model(2, 3, 1);
        lstm.params_mut().fill(0.0);
        let y = lstm.forward(Tensor::zeros(&[1, 3, 2]), Mode::Train);
        // All gates 0.5/0, c stays 0, h = 0.5*tanh(0) = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference_weights() {
        let mut lstm = model(3, 4, 2);
        let x = Tensor::from_vec(
            (0..2 * 3 * 3)
                .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
                .collect(),
            &[2, 3, 3],
        );
        // Loss: sum of all hidden outputs.
        let y = lstm.forward(x.clone(), Mode::Train);
        lstm.backward(Tensor::ones(y.shape()));
        let grads = lstm.flat_grads();
        for (pick, idx) in [("l-wih", 5usize), ("l-whh", 9), ("l-b", 2), ("l-b", 6)] {
            let at = lstm.flat_spec().get(pick).unwrap().offset + idx;
            let analytic = grads[at];
            let eps = 1e-3;
            lstm.params_mut()[at] += eps;
            let yp = lstm.forward(x.clone(), Mode::Train).sum();
            lstm.params_mut()[at] -= 2.0 * eps;
            let ym = lstm.forward(x.clone(), Mode::Train).sum();
            lstm.params_mut()[at] += eps;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 0.02 * (1.0 + fd.abs()),
                "{pick}[{idx}]: fd={fd} analytic={analytic}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_input() {
        let mut lstm = model(2, 3, 3);
        let x = Tensor::from_vec(
            (0..4 * 2).map(|i| (i as f32 * 0.37).cos() * 0.5).collect(),
            &[1, 4, 2],
        );
        let y = lstm.forward(x.clone(), Mode::Train);
        let gi = lstm.backward(Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in [0usize, 3, 5, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = lstm.forward(xp, Mode::Train).sum();
            let ym = lstm.forward(xm, Mode::Train).sum();
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
        let mut ls = LastStep::new();
        let x = Tensor::from_vec((0..2 * 3 * 2).map(|i| i as f32).collect(), &[2, 3, 2]);
        let y = ls.forward(&mut [], x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 10.0, 11.0]);
        let g = ls.backward(&[], &mut [], Tensor::ones(&[2, 2]));
        assert_eq!(g.shape(), &[2, 3, 2]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data()[4], 1.0);
        assert_eq!(g.data()[0], 0.0);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let lstm = model(2, 3, 5);
        let b = lstm.flat_spec().get("l-b").unwrap().offset;
        let params = lstm.flat_params();
        assert_eq!(&params[b + 3..b + 6], &[1.0, 1.0, 1.0]);
        assert_eq!(&params[b..b + 3], &[0.0, 0.0, 0.0]);
    }
}
