//! Pooling layers.

use apf_tensor::{maxpool2d_backward, maxpool2d_forward_into, PoolSpec, Tensor};

use crate::layer::{Layer, Mode};

/// 2-D max pooling.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: PoolSpec,
    // Both buffers are kept across steps. `input_shape` is empty until a
    // forward pass fills it and again once backward has consumed it.
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with a square window and equal stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec { kernel, stride },
            argmax: Vec::new(),
            input_shape: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, _params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        let out = maxpool2d_forward_into(&x, &self.spec, &mut self.argmax);
        self.input_shape.clear();
        self.input_shape.extend_from_slice(x.shape());
        x.recycle();
        out
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        assert!(
            !self.input_shape.is_empty(),
            "maxpool backward before forward"
        );
        let gi = maxpool2d_backward(&grad, &self.argmax, &self.input_shape);
        self.input_shape.clear();
        grad.recycle();
        gi
    }

    fn kind(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, _params: &mut [f32], x: Tensor, _mode: Mode) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "global avg pool expects [N,C,H,W]");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut out = Tensor::scratch(&[n, c]);
        for (o, plane) in out.data_mut().iter_mut().zip(x.data().chunks_exact(h * w)) {
            *o = plane.iter().sum::<f32>() * inv;
        }
        x.recycle();
        self.cached_shape = Some(s);
        out
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad: Tensor) -> Tensor {
        let s = self
            .cached_shape
            .take()
            .expect("global avg pool backward before forward");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut out = Tensor::scratch(&s);
        for nc in 0..n * c {
            let g = grad.data()[nc] * inv;
            out.data_mut()[nc * h * w..(nc + 1) * h * w].fill(g);
        }
        grad.recycle();
        out
    }

    fn kind(&self) -> &'static str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_mean_and_grad() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let y = gap.forward(&mut [], x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let g = gap.backward(&[], &mut [], Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_backward_roundtrip() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = pool.forward(&mut [], x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let g = pool.backward(&[], &mut [], Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data()[5], 1.0);
        assert_eq!(g.data()[15], 1.0);
    }
}
