//! Order statistics for timing samples.

/// A sorted copy of `v`.
///
/// # Panics
/// Panics on a NaN sample: a timing is never NaN.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing sample is NaN"));
    s
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two nearest order statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// The tail statistic reported as `round_ms_p90`: the 90th percentile when
/// at least ten samples lie beyond it (100 samples or more), otherwise the
/// highest order statistic that still has ten samples beyond it, and the
/// maximum when there are ten samples or fewer.
pub fn tail_ten_beyond(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        n if n >= 100 => quantile_sorted(&s, 0.9),
        n if n > 10 => s[n - 11],
        _ => *s.last().expect("tail of no samples"),
    }
}

/// The three quartile cut points of `v`, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the exclusive method), which is the
/// rule the benchmark contract states its spread in.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let m = s.len();
    assert!(m >= 2, "quartiles need at least two samples");
    let mut out = [0.0; 3];
    for (i, o) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *o = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: p90 interpolates to 90.1, ten samples above.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_ten_beyond(&v);
        assert!((p90 - 90.1).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        // 40 samples: p90 would leave only four beyond, so the statistic
        // falls back to the order statistic with exactly ten beyond it.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail_ten_beyond(&v);
        assert_eq!(t, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        // Ten or fewer: nothing can have ten beyond it; report the maximum.
        assert_eq!(tail_ten_beyond(&[3.0, 9.0, 1.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
