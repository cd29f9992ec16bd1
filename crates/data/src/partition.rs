//! Federated data partitioners.
//!
//! The paper's main setup (§7.1) draws each client's class mixture from a
//! Dirichlet distribution with concentration α = 1 (following Yurochkin et
//! al.); the extreme non-IID micro-benchmarks (§7.3) give each client a small
//! number of distinct classes.

use apf_tensor::{derive_seed, seeded_rng, Rng, SliceRandom};

/// Draws one sample from Gamma(shape, 1) via Marsaglia–Tsang (with the
/// standard α < 1 boost).
///
/// # Panics
/// Panics if `shape` is not positive.
pub fn sample_gamma(shape: f64, rng: &mut Rng) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal_f64();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Splits sample indices across `num_clients` by drawing, for every class, a
/// Dirichlet(α) mixture over clients (the §7.1 non-IID setup; α → ∞ is IID).
///
/// Every sample index is assigned to exactly one client.
///
/// # Panics
/// Panics if `num_clients` is zero or `alpha` is not positive.
pub fn dirichlet_partition(
    labels: &[usize],
    num_clients: usize,
    alpha: f64,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(num_clients > 0, "need at least one client");
    assert!(alpha > 0.0, "alpha must be positive");
    let mut rng = seeded_rng(derive_seed(seed, 0xD1A1));
    let num_classes = labels.iter().max().map_or(0, |&m| m + 1);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class in 0..num_classes {
        let mut idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        idx.shuffle(&mut rng);
        // Dirichlet draw: normalized Gamma(alpha) samples.
        let gammas: Vec<f64> = (0..num_clients)
            .map(|_| sample_gamma(alpha, &mut rng))
            .collect();
        let total: f64 = gammas.iter().sum();
        let mut cuts = Vec::with_capacity(num_clients);
        let mut acc = 0.0;
        for g in &gammas[..num_clients - 1] {
            acc += g / total;
            cuts.push(((acc * idx.len() as f64).round() as usize).min(idx.len()));
        }
        let mut start = 0;
        for (ci, part) in parts.iter_mut().enumerate() {
            let end = if ci + 1 == num_clients {
                idx.len()
            } else {
                cuts[ci].max(start)
            };
            part.extend_from_slice(&idx[start..end]);
            start = end;
        }
    }
    parts
}

/// Gives each client exactly `k` distinct classes (round-robin over the class
/// list) and splits every class's samples evenly among its owners — the
/// "each worker hosts 2 distinct classes" setup of §7.3.
///
/// Samples of classes owned by no client are dropped (cannot happen when
/// `num_clients * k >= num_classes`).
///
/// # Panics
/// Panics if `num_clients` or `k` is zero.
pub fn classes_per_client_partition(
    labels: &[usize],
    num_clients: usize,
    k: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(
        num_clients > 0 && k > 0,
        "need clients and classes per client"
    );
    let mut rng = seeded_rng(derive_seed(seed, 0xC1A5));
    let num_classes = labels.iter().max().map_or(0, |&m| m + 1);
    // Assign classes round-robin so coverage is as even as possible.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    let mut class_order: Vec<usize> = (0..num_classes).collect();
    class_order.shuffle(&mut rng);
    let mut cursor = 0usize;
    for client in 0..num_clients {
        for _ in 0..k {
            let class = class_order[cursor % num_classes];
            owners[class].push(client);
            cursor += 1;
        }
    }
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class in 0..num_classes {
        if owners[class].is_empty() {
            continue;
        }
        let mut idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        idx.shuffle(&mut rng);
        let n_owners = owners[class].len();
        for (j, &i) in idx.iter().enumerate() {
            parts[owners[class][j % n_owners]].push(i);
        }
    }
    parts
}

/// Shuffles all indices and chunks them evenly: the IID baseline.
///
/// # Panics
/// Panics if `num_clients` is zero.
pub fn iid_partition(n: usize, num_clients: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(num_clients > 0, "need at least one client");
    let mut rng = seeded_rng(derive_seed(seed, 0x11D));
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let mut parts = vec![Vec::new(); num_clients];
    for (j, i) in idx.into_iter().enumerate() {
        parts[j % num_clients].push(i);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for p in parts {
            for &i in p {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some index unassigned");
    }

    #[test]
    fn dirichlet_is_exact_cover() {
        let l = labels(500, 10);
        let parts = dirichlet_partition(&l, 7, 1.0, 42);
        assert_eq!(parts.len(), 7);
        assert_exact_cover(&parts, 500);
    }

    #[test]
    fn dirichlet_low_alpha_is_skewed_high_alpha_even() {
        let l = labels(2000, 10);
        let skewed = dirichlet_partition(&l, 5, 0.1, 1);
        let even = dirichlet_partition(&l, 5, 1000.0, 1);
        // Measure per-client class imbalance: max/min class count (+1 smoothing).
        let imbalance = |parts: &[Vec<usize>]| -> f64 {
            let mut worst: f64 = 0.0;
            for p in parts {
                let mut h = [0usize; 10];
                for &i in p {
                    h[l[i]] += 1;
                }
                let max = *h.iter().max().unwrap() as f64 + 1.0;
                let min = *h.iter().min().unwrap() as f64 + 1.0;
                worst = worst.max(max / min);
            }
            worst
        };
        assert!(
            imbalance(&skewed) > 2.0 * imbalance(&even),
            "skewed {} vs even {}",
            imbalance(&skewed),
            imbalance(&even)
        );
    }

    #[test]
    fn classes_per_client_limits_classes() {
        let l = labels(1000, 10);
        let parts = classes_per_client_partition(&l, 5, 2, 3);
        assert_exact_cover(&parts, 1000);
        for p in &parts {
            let mut classes: Vec<usize> = p.iter().map(|&i| l[i]).collect();
            classes.sort_unstable();
            classes.dedup();
            assert_eq!(classes.len(), 2, "client has classes {classes:?}");
        }
    }

    #[test]
    fn classes_per_client_two_clients_five_classes() {
        // The paper's Fig. 4 setup: 2 clients, 5 distinct classes each.
        let l = labels(600, 10);
        let parts = classes_per_client_partition(&l, 2, 5, 9);
        assert_exact_cover(&parts, 600);
        for p in &parts {
            let mut classes: Vec<usize> = p.iter().map(|&i| l[i]).collect();
            classes.sort_unstable();
            classes.dedup();
            assert_eq!(classes.len(), 5);
        }
    }

    #[test]
    fn iid_partition_balanced() {
        let parts = iid_partition(103, 4, 5);
        assert_exact_cover(&parts, 103);
        for p in &parts {
            assert!(p.len() == 25 || p.len() == 26);
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = apf_tensor::seeded_rng(0);
        for shape in [0.5f64, 1.0, 3.0] {
            let n = 20000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let l = labels(200, 10);
        assert_eq!(
            dirichlet_partition(&l, 3, 1.0, 7),
            dirichlet_partition(&l, 3, 1.0, 7)
        );
        assert_ne!(
            dirichlet_partition(&l, 3, 1.0, 7),
            dirichlet_partition(&l, 3, 1.0, 8)
        );
    }
}
