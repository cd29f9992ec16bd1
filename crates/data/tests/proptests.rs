//! Property-based tests for partitioners and datasets (on `apf-testkit`).

use apf_data::{
    classes_per_client_partition, dirichlet_partition, iid_partition, synth_images,
    synth_kws_split, Dataset, SynthImageGen, IMAGE_SHAPE, NUM_CLASSES,
};
use apf_tensor::Tensor;
use apf_testkit::{
    f64s, prop_assert, prop_assert_eq, property, u64s, usizes, vecs, TestCaseResult,
};

fn assert_exact_cover(parts: &[Vec<usize>], n: usize) -> TestCaseResult {
    let mut seen = vec![false; n];
    for p in parts {
        for &i in p {
            prop_assert!(i < n);
            prop_assert!(!seen[i], "index {} assigned twice", i);
            seen[i] = true;
        }
    }
    prop_assert!(seen.iter().all(|&s| s), "some index unassigned");
    Ok(())
}

/// The 3x3 box blur `SynthImageGen` applies to its prototypes, restated.
fn box_blur(proto: &mut [f32], c: usize, h: usize, w: usize) {
    let src = proto.to_vec();
    for ci in 0..c {
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                let (mut acc, mut cnt) = (0.0f32, 0.0f32);
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let (ny, nx) = (y + dy, x + dx);
                        if ny >= 0 && nx >= 0 && ny < h as i32 && nx < w as i32 {
                            acc += src[ci * h * w + ny as usize * w + nx as usize];
                            cnt += 1.0;
                        }
                    }
                }
                proto[ci * h * w + y as usize * w + x as usize] = acc / cnt;
            }
        }
    }
}

/// Per-element oracle for `SynthImageGen::fill_split`: one `normal_f32()`
/// and one `push` per scalar, prototypes included — the generator as it was
/// before it drew its normals through `Rng::fill_normal_f32`.
fn naive_fill_split(seed: u64, n: usize, split: u64) -> (Vec<f32>, Vec<usize>) {
    use apf_tensor::{derive_seed, seeded_rng};
    let [c, h, w] = IMAGE_SHAPE;
    let mut proto_rng = seeded_rng(derive_seed(seed, 0x1A6E));
    let prototypes: Vec<Vec<f32>> = (0..NUM_CLASSES)
        .map(|_| {
            let mut p: Vec<f32> = (0..c * h * w)
                .map(|_| 0.0 + 1.6 * proto_rng.normal_f32())
                .collect();
            box_blur(&mut p, c, h, w);
            box_blur(&mut p, c, h, w);
            p
        })
        .collect();
    let mut rng = seeded_rng(derive_seed(derive_seed(seed, 0x5A3F), split));
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    for i in 0..n {
        let class = i % NUM_CLASSES;
        let brightness = 0.6 * rng.normal_f32();
        for &p in &prototypes[class] {
            data.push(p + 2.0 * rng.normal_f32() + brightness);
        }
        labels.push(class);
    }
    (data, labels)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn fnv1a64(xs: &[f32]) -> u64 {
    xs.iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Pins the bytes of one image shard and one keyword set (hashes taken
/// before the generators moved onto `Rng::fill_normal_f32`), so a libm or
/// codegen drift under Box–Muller fails here, at its source, rather than in
/// a fedsim golden.
#[test]
fn synth_bytes_are_pinned() {
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    SynthImageGen::new(7).fill_split(8, 2, &mut data, &mut labels);
    assert_eq!(fnv1a64(&data), 0x4d94_8662_9f59_de52, "images (7, 8, 2)");
    let kws = synth_kws_split(12, 7, 1);
    assert_eq!(
        fnv1a64(kws.inputs().data()),
        0x8c8b_b796_41dd_5923,
        "kws (12, 7, 1)"
    );
}

#[test]
fn fill_split_matches_naive_reference_bitwise() {
    for seed in [0u64, 7, 991] {
        let gen = SynthImageGen::new(seed);
        // A dirty, oversized buffer: the generator must overwrite, not append.
        let (mut data, mut labels) = (vec![42.0f32; 999], vec![9usize; 3]);
        for n in [1usize, 8, 12, 33] {
            for split in [0u64, 1, 2 + 999_999] {
                gen.fill_split(n, split, &mut data, &mut labels);
                let (want, want_labels) = naive_fill_split(seed, n, split);
                assert_eq!(bits(&data), bits(&want), "seed={seed} n={n} split={split}");
                assert_eq!(labels, want_labels);
            }
        }
    }
}

property! {
    fn dirichlet_always_exact_cover(
        n in usizes(1..300),
        clients in usizes(1..12),
        alpha in f64s(0.1..50.0),
        classes in usizes(1..11),
        seed in u64s(0..1000),
    ) {
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let parts = dirichlet_partition(&labels, clients, alpha, seed);
        prop_assert_eq!(parts.len(), clients);
        assert_exact_cover(&parts, n)?;
    }

    fn classes_per_client_cover_when_enough_owners(
        clients in usizes(1..10),
        k in usizes(1..5),
        seed in u64s(0..1000),
    ) {
        // With clients*k >= classes every class has at least one owner, so
        // the partition must be an exact cover.
        let classes = (clients * k).min(10);
        let n = classes * 20;
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let parts = classes_per_client_partition(&labels, clients, k, seed);
        assert_exact_cover(&parts, n)?;
        // No client may exceed k distinct classes.
        for p in &parts {
            let mut cs: Vec<usize> = p.iter().map(|&i| labels[i]).collect();
            cs.sort_unstable();
            cs.dedup();
            prop_assert!(cs.len() <= k);
        }
    }

    fn iid_parts_are_balanced(
        n in usizes(1..500),
        clients in usizes(1..16),
        seed in u64s(0..100),
    ) {
        let parts = iid_partition(n, clients, seed);
        assert_exact_cover(&parts, n)?;
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1, "sizes {:?}", sizes);
    }

    fn dataset_select_preserves_labels(idx in vecs(usizes(0..30), 1..20)) {
        let ds = synth_images(30, 0);
        let sub = ds.select(&idx);
        prop_assert_eq!(sub.len(), idx.len());
        for (j, &i) in idx.iter().enumerate() {
            prop_assert_eq!(sub.labels()[j], ds.labels()[i]);
        }
    }

    fn batches_partition_dataset(
        n in usizes(1..100),
        bs in usizes(1..32),
        seed in u64s(0..100),
    ) {
        let inputs = Tensor::zeros(&[n, 2]);
        let ds = Dataset::new(inputs, (0..n).map(|i| i % 3).collect(), 3);
        let mut rng = apf_tensor::seeded_rng(seed);
        let total: usize = ds.batches(bs, &mut rng).map(|(_, y)| y.len()).sum();
        prop_assert_eq!(total, n);
    }
}
