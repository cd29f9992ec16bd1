//! Synthetic stand-ins for CIFAR-10 and the keyword-spotting dataset.

use apf_tensor::{derive_seed, normal_init, sample_normal, seeded_rng, Tensor};

use crate::dataset::Dataset;

/// Classes in both synthetic tasks (matching CIFAR-10 / the 10-keyword KWS
/// subset of the paper).
pub const NUM_CLASSES: usize = 10;
/// Per-sample image shape `[C, H, W]`.
pub const IMAGE_SHAPE: [usize; 3] = [3, 16, 16];
/// Per-sample sequence shape `[T, D]`.
pub const KWS_SHAPE: [usize; 2] = [20, 10];

/// Applies one pass of a 3x3 box blur to a `[C, H, W]` volume, giving the
/// class prototypes spatial structure a convolution can exploit.
fn smooth(proto: &mut [f32], c: usize, h: usize, w: usize) {
    let src = proto.to_vec();
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                let mut cnt = 0.0f32;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if ny < 0 || nx < 0 || ny >= h as i32 || nx >= w as i32 {
                            continue;
                        }
                        acc += src[ci * h * w + ny as usize * w + nx as usize];
                        cnt += 1.0;
                    }
                }
                proto[ci * h * w + y * w + x] = acc / cnt;
            }
        }
    }
}

/// Generates the training split of the synthetic CIFAR-10 stand-in
/// (equivalent to [`synth_images_split`] with split 0).
pub fn synth_images(n: usize, seed: u64) -> Dataset {
    synth_images_split(n, seed, 0)
}

/// Generates `n` samples of the synthetic CIFAR-10 stand-in.
///
/// Each class has a fixed smoothed-Gaussian prototype image derived from
/// `seed` alone, while the per-sample noise stream is keyed on
/// `(seed, split)`: two datasets with the same seed but different splits
/// share the class structure (so one can be a held-out test set) yet have
/// disjoint samples. A sample is `prototype + noise + brightness jitter`;
/// the noise level is tuned so a small conv net must actually learn spatial
/// features — accuracy climbs over hundreds of SGD iterations rather than
/// instantly.
pub fn synth_images_split(n: usize, seed: u64, split: u64) -> Dataset {
    let [c, h, w] = IMAGE_SHAPE;
    let gen = SynthImageGen::new(seed);
    let mut data = Vec::new();
    let mut labels = Vec::new();
    gen.fill_split(n, split, &mut data, &mut labels);
    Dataset::new(Tensor::from_vec(data, &[n, c, h, w]), labels, NUM_CLASSES)
}

/// Reusable generator for the synthetic CIFAR-10 stand-in.
///
/// Precomputes the class prototypes once so that generating many small
/// per-client shards (one `split` per client, as the population simulator
/// does) costs only the per-sample noise stream and writes into
/// caller-provided buffers — no allocation when the buffers are recycled
/// through the slab store. Output is bitwise identical to
/// [`synth_images_split`] with the same `(n, seed, split)`.
#[derive(Debug, Clone)]
pub struct SynthImageGen {
    seed: u64,
    prototypes: Vec<Vec<f32>>,
}

impl SynthImageGen {
    /// Derives the class prototypes from `seed` (shared by every split).
    pub fn new(seed: u64) -> Self {
        let [c, h, w] = IMAGE_SHAPE;
        let sample_len = c * h * w;
        let mut proto_rng = seeded_rng(derive_seed(seed, 0x1A6E));
        let mut prototypes = Vec::with_capacity(NUM_CLASSES);
        for _ in 0..NUM_CLASSES {
            let mut p = normal_init(&[sample_len], 0.0, 1.6, &mut proto_rng).into_vec();
            smooth(&mut p, c, h, w);
            smooth(&mut p, c, h, w);
            prototypes.push(p);
        }
        SynthImageGen { seed, prototypes }
    }

    /// Scalar count of one sample.
    pub fn sample_numel(&self) -> usize {
        let [c, h, w] = IMAGE_SHAPE;
        c * h * w
    }

    /// Fills `data`/`labels` (cleared first) with `n` samples of `split`,
    /// exactly as [`synth_images_split`] would generate them.
    pub fn fill_split(&self, n: usize, split: u64, data: &mut Vec<f32>, labels: &mut Vec<usize>) {
        let mut rng = seeded_rng(derive_seed(derive_seed(self.seed, 0x5A3F), split));
        data.clear();
        data.resize(n * self.sample_numel(), 0.0);
        labels.clear();
        labels.reserve(n);
        for (i, row) in data.chunks_exact_mut(self.sample_numel()).enumerate() {
            let class = i % NUM_CLASSES;
            let brightness = 0.6 * sample_normal(&mut rng);
            rng.fill_normal_f32(row);
            for (v, &p) in row.iter_mut().zip(&self.prototypes[class]) {
                *v = p + 2.0 * *v + brightness;
            }
            labels.push(class);
        }
    }
}

/// Generates the training split of the synthetic keyword-spotting stand-in
/// (equivalent to [`synth_kws_split`] with split 0).
pub fn synth_kws(n: usize, seed: u64) -> Dataset {
    synth_kws_split(n, seed, 0)
}

/// Generates `n` samples of the synthetic keyword-spotting stand-in.
///
/// Class `k` is a bank of sinusoids: feature `d` at step `t` follows
/// `sin(2π f_{k,d} t / T + φ_{k,d})` with class-specific frequencies and
/// phases (keyed on `seed` alone), plus Gaussian noise keyed on
/// `(seed, split)` — a sequence task where the discriminative signal is
/// temporal, so the LSTM's recurrence genuinely matters.
pub fn synth_kws_split(n: usize, seed: u64, split: u64) -> Dataset {
    let [t_len, d_feat] = KWS_SHAPE;
    let mut class_rng = seeded_rng(derive_seed(seed, 0x4B57));
    // Per-class frequency and phase tables.
    let mut freqs = Vec::with_capacity(NUM_CLASSES);
    let mut phases = Vec::with_capacity(NUM_CLASSES);
    for _ in 0..NUM_CLASSES {
        let f: Vec<f32> = (0..d_feat)
            .map(|_| class_rng.gen_range(0.5f32..4.0))
            .collect();
        let p: Vec<f32> = (0..d_feat)
            .map(|_| class_rng.gen_range(0.0f32..std::f32::consts::TAU))
            .collect();
        freqs.push(f);
        phases.push(p);
    }
    let mut rng = seeded_rng(derive_seed(derive_seed(seed, 0x4B58), split));
    // The noise stream is the only consumer of `rng`, so one fill draws it
    // in the order the per-element loop below reads it.
    let mut data = vec![0.0f32; n * t_len * d_feat];
    rng.fill_normal_f32(&mut data);
    let mut labels = Vec::with_capacity(n);
    for (i, sample) in data.chunks_exact_mut(t_len * d_feat).enumerate() {
        let class = i % NUM_CLASSES;
        for (t, step) in sample.chunks_exact_mut(d_feat).enumerate() {
            for (d, v) in step.iter_mut().enumerate() {
                let angle = std::f32::consts::TAU * freqs[class][d] * t as f32 / t_len as f32
                    + phases[class][d];
                *v = angle.sin() + 1.2 * *v;
            }
        }
        labels.push(class);
    }
    Dataset::new(
        Tensor::from_vec(data, &[n, t_len, d_feat]),
        labels,
        NUM_CLASSES,
    )
}

/// Replaces a `frac` fraction of labels with uniformly random (different)
/// classes — irreducible label noise that keeps the asymptotic training loss
/// (and hence the SGD gradient noise that drives the paper's parameter
/// oscillation) bounded away from zero, as on real datasets.
///
/// # Panics
/// Panics unless `0.0 <= frac <= 1.0`.
pub fn with_label_noise(ds: &Dataset, frac: f32, seed: u64) -> Dataset {
    assert!(
        (0.0..=1.0).contains(&frac),
        "noise fraction must be in [0,1]"
    );
    let mut rng = seeded_rng(derive_seed(seed, 0x1ABE1));
    let k = ds.num_classes();
    let labels: Vec<usize> = ds
        .labels()
        .iter()
        .map(|&l| {
            if rng.gen::<f32>() < frac {
                let mut nl = rng.gen_range(0..k);
                if nl == l {
                    nl = (nl + 1) % k;
                }
                nl
            } else {
                l
            }
        })
        .collect();
    Dataset::new(ds.inputs().clone(), labels, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_shapes_and_balance() {
        let ds = synth_images(100, 0);
        assert_eq!(ds.inputs().shape(), &[100, 3, 16, 16]);
        assert_eq!(ds.class_histogram(), vec![10; 10]);
    }

    #[test]
    fn kws_shapes_and_balance() {
        let ds = synth_kws(50, 0);
        assert_eq!(ds.inputs().shape(), &[50, 20, 10]);
        let h = ds.class_histogram();
        assert_eq!(h.iter().sum::<usize>(), 50);
    }

    #[test]
    fn gen_matches_split_function_bitwise() {
        // Reusing dirty buffers must not change the output.
        let gen = SynthImageGen::new(7);
        let (mut data, mut labels) = (vec![42.0f32; 999], vec![3usize; 5]);
        for split in [0u64, 3, 91] {
            gen.fill_split(12, split, &mut data, &mut labels);
            let via_fn = synth_images_split(12, 7, split);
            assert_eq!(via_fn.inputs().data(), &data[..]);
            assert_eq!(via_fn.labels(), &labels[..]);
        }
    }

    #[test]
    fn same_seed_same_data_different_seed_differs() {
        let a = synth_images(20, 5);
        let b = synth_images(20, 5);
        assert_eq!(a, b);
        let c = synth_images(20, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn train_and_test_share_class_structure() {
        // Different n, same seed: a class-0 sample from each should be far
        // closer to each other than to a class-5 sample (shared prototypes).
        let train = synth_images(40, 9);
        let test = synth_images(400, 9);
        let row = train.sample_numel();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        // Average over several pairs to dodge noise.
        let mut same = 0.0;
        let mut diff = 0.0;
        for k in 0..4 {
            let tr0 = &train.inputs().data()[(k * 10) * row..(k * 10 + 1) * row];
            let te0 = &test.inputs().data()[(k * 10) * row..(k * 10 + 1) * row];
            let te5 = &test.inputs().data()[(k * 10 + 5) * row..(k * 10 + 6) * row];
            same += dist(tr0, te0);
            diff += dist(tr0, te5);
        }
        assert!(
            same < diff,
            "same-class {same} should be < cross-class {diff}"
        );
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity: a nearest-class-mean classifier on clean data does far
        // better than chance, i.e. the task is learnable.
        let ds = synth_images(400, 3);
        let row = ds.sample_numel();
        // Estimate class means from the first 200 samples.
        let mut means = vec![vec![0.0f32; row]; NUM_CLASSES];
        let mut counts = vec![0usize; NUM_CLASSES];
        for i in 0..200 {
            let l = ds.labels()[i];
            for (m, &v) in means[l]
                .iter_mut()
                .zip(&ds.inputs().data()[i * row..(i + 1) * row])
            {
                *m += v;
            }
            counts[l] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut correct = 0;
        for i in 200..400 {
            let x = &ds.inputs().data()[i * row..(i + 1) * row];
            let pred = (0..NUM_CLASSES)
                .min_by(|&a, &b| {
                    let da: f32 = x
                        .iter()
                        .zip(&means[a])
                        .map(|(p, q)| (p - q) * (p - q))
                        .sum();
                    let db: f32 = x
                        .iter()
                        .zip(&means[b])
                        .map(|(p, q)| (p - q) * (p - q))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if pred == ds.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / 200.0;
        assert!(acc > 0.5, "nearest-prototype accuracy {acc}");
    }
}
