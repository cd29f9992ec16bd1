//! Parameter initializers.

use crate::rng::Rng;
use crate::tensor::Tensor;

/// Kaiming (He) uniform initialization: `U(-b, b)` with
/// `b = sqrt(6 / fan_in)`, the standard choice ahead of ReLU layers.
///
/// # Panics
/// Panics if `fan_in` is zero.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform_init(shape, -bound, bound, rng)
}

/// Xavier (Glorot) uniform initialization: `U(-b, b)` with
/// `b = sqrt(6 / (fan_in + fan_out))`, suited to tanh/sigmoid layers (LSTM).
///
/// # Panics
/// Panics if `fan_in + fan_out` is zero.
pub fn xavier_uniform(shape: &[usize], fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    assert!(fan_in + fan_out > 0, "fan_in + fan_out must be positive");
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_init(shape, -bound, bound, rng)
}

/// Uniform initialization on `[lo, hi)`.
///
/// # Panics
/// Panics if `lo > hi`.
pub fn uniform_init(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Tensor {
    assert!(lo <= hi, "lo must not exceed hi");
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, shape)
}

/// Gaussian initialization with the given mean and standard deviation.
pub fn normal_init(shape: &[usize], mean: f32, std: f32, rng: &mut Rng) -> Tensor {
    let mut data = vec![0.0f32; shape.iter().product()];
    rng.fill_normal_f32(&mut data);
    for v in &mut data {
        *v = mean + std * *v;
    }
    Tensor::from_vec(data, shape)
}

/// Draws one standard-normal sample (Box-Muller).
///
/// # Example
/// ```
/// let mut rng = apf_tensor::seeded_rng(0);
/// let z = apf_tensor::sample_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
#[inline]
pub fn sample_normal(rng: &mut Rng) -> f32 {
    rng.normal_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = seeded_rng(1);
        let t = uniform_init(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn kaiming_bound_shrinks_with_fan_in() {
        let mut rng = seeded_rng(2);
        let small_fan = kaiming_uniform(&[2000], 4, &mut rng);
        let big_fan = kaiming_uniform(&[2000], 400, &mut rng);
        let max_small = small_fan.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let max_big = big_fan.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max_big < max_small);
        assert!(max_small <= (6.0f32 / 4.0).sqrt());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = seeded_rng(3);
        let t = normal_init(&[20000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = uniform_init(&[16], -1.0, 1.0, &mut seeded_rng(7));
        let b = uniform_init(&[16], -1.0, 1.0, &mut seeded_rng(7));
        assert_eq!(a, b);
    }
}
