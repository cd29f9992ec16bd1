//! Property tests for the skip-frozen optimizer fast paths: a full
//! [`Sgd`] / [`Adam`] step over a random bit-packed [`FreezeMask`] must be
//! bitwise identical to a per-scalar reference that applies the textbook
//! update to unfrozen scalars and skips frozen ones entirely (parameters
//! *and* optimizer state untouched), and bitwise invariant across
//! `APF_PAR_THREADS` ∈ {1, 2, 7}.
//!
//! Masks are generated word-by-word from a class generator so every run
//! exercises all-frozen words (skipped with one compare), all-unfrozen
//! words (one whole-word run), and mixed words (bit-run decomposition),
//! plus a ragged tail word.

use apf::FreezeMask;
use apf_nn::{Adam, Optimizer, Sgd};
use apf_testkit::{prop_assert_eq, property, u64s, u8s, usizes, vecs};

/// Expands per-word classes into a frozen vector of
/// `(classes.len() - 1) * 64 + tail` scalars. Classes: 0 = all frozen,
/// 1 = all unfrozen, 2 = alternating bits, 3 = seeded pseudo-random.
fn mask_from_classes(classes: &[u8], tail: usize, seed: u64) -> Vec<bool> {
    let mut state = seed | 1;
    let mut frozen = Vec::with_capacity(classes.len() * 64);
    for (w, &class) in classes.iter().enumerate() {
        let nbits = if w + 1 == classes.len() { tail } else { 64 };
        for j in 0..nbits {
            frozen.push(match class {
                0 => true,
                1 => false,
                2 => j % 2 == 0,
                _ => {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state.wrapping_mul(0x2545_f491_4f6c_dd1d) & (1 << 63) != 0
                }
            });
        }
    }
    frozen
}

/// Deterministic well-formed f32 data in roughly [-2, 2).
fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 22) as f32) - 2.0
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Per-scalar SGD reference: frozen scalars are skipped entirely, so the
/// velocity of a frozen scalar does not advance.
fn sgd_reference(
    lr: f32,
    momentum: f32,
    wd: f32,
    p: &mut [f32],
    vel: &mut [f32],
    g: &[f32],
    frozen: &[bool],
) {
    for i in 0..p.len() {
        if frozen[i] {
            continue;
        }
        let grad = g[i] + wd * p[i];
        if momentum != 0.0 {
            let v = momentum * vel[i] + grad;
            vel[i] = v;
            p[i] -= lr * v;
        } else {
            p[i] -= lr * grad;
        }
    }
}

/// Per-scalar Adam reference with the step-count bias correction shared
/// across the whole vector (state `t` advances per step, not per scalar).
#[allow(clippy::too_many_arguments)]
fn adam_reference(
    lr: f32,
    wd: f32,
    t: u64,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    frozen: &[bool],
) {
    let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let b1t = 1.0 - beta1.powi(t as i32);
    let b2t = 1.0 - beta2.powi(t as i32);
    for i in 0..p.len() {
        if frozen[i] {
            continue;
        }
        let grad = g[i] + wd * p[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
        v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
        let mhat = m[i] / b1t;
        let vhat = v[i] / b2t;
        p[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

property! {
    // Three consecutive fast-path steps equal the per-scalar reference bit
    // for bit — multiple steps so stale optimizer state on a frozen scalar
    // (velocity, moments) would surface as divergence, not just a one-step
    // parameter mismatch.
    fn steps_match_per_scalar_reference(
        classes in vecs(u8s(0..4), 1..6),
        tail in usizes(1..65),
        seed in u64s(0..u64::MAX),
        lr_raw in u8s(1..100),
        wd_on in u8s(0..2)
    ) {
        let frozen = mask_from_classes(&classes, tail, seed);
        let mask = FreezeMask::from_fn(frozen.len(), |j| frozen[j]);
        let n = frozen.len();
        let lr = lr_raw as f32 / 500.0;
        let wd = if wd_on == 1 { 0.01 } else { 0.0 };
        let init = data(n, seed ^ 0xfeed);

        let mut sgd = Sgd::new(lr).with_momentum(0.9).with_weight_decay(wd);
        let mut plain = Sgd::new(lr).with_weight_decay(wd);
        let mut adam = Adam::new(lr).with_weight_decay(wd);
        let mut sgd_p = init.clone();
        let mut plain_p = init.clone();
        let mut adam_p = init.clone();
        let (mut ref_sgd_p, mut ref_vel) = (init.clone(), vec![0.0f32; n]);
        let mut ref_plain_p = init.clone();
        let (mut ref_adam_p, mut ref_m, mut ref_v) =
            (init.clone(), vec![0.0f32; n], vec![0.0f32; n]);

        for step in 1..=3u64 {
            let g = data(n, seed ^ (0x60 + step));
            sgd.step(&mut sgd_p, &g, &mask);
            plain.step(&mut plain_p, &g, &mask);
            adam.step(&mut adam_p, &g, &mask);
            sgd_reference(lr, 0.9, wd, &mut ref_sgd_p, &mut ref_vel, &g, &frozen);
            sgd_reference(lr, 0.0, wd, &mut ref_plain_p, &mut [], &g, &frozen);
            adam_reference(lr, wd, step, &mut ref_adam_p, &mut ref_m, &mut ref_v, &g, &frozen);
            prop_assert_eq!(bits(&sgd_p), bits(&ref_sgd_p), "sgd+momentum step {step}");
            prop_assert_eq!(bits(&plain_p), bits(&ref_plain_p), "plain sgd step {step}");
            prop_assert_eq!(bits(&adam_p), bits(&ref_adam_p), "adam step {step}");
            // Frozen parameters are exactly the initial values — never read,
            // never written, not even rewritten with an identical value via
            // a wasted arithmetic pass.
            for j in 0..n {
                if frozen[j] {
                    prop_assert_eq!(sgd_p[j].to_bits(), init[j].to_bits(), "frozen {j}");
                    prop_assert_eq!(adam_p[j].to_bits(), init[j].to_bits(), "frozen {j}");
                }
            }
        }
    }

    // Bitwise thread-count invariance on vectors large enough to cross the
    // optimizer's serial cutoff: the chunked pool path at APF_PAR_THREADS
    // ∈ {2, 7} must reproduce the single-thread result exactly, fresh
    // optimizer instances per thread count.
    fn steps_thread_invariant_above_parallel_cutoff(
        word_seed in u64s(0..u64::MAX),
        lr_raw in u8s(1..100)
    ) {
        // 1 << 15 is the optimizer PAR_STEP_MIN; +517 leaves a ragged tail.
        let n = (1usize << 15) + 517;
        let frozen = mask_from_classes(&vec![3u8; n.div_ceil(64)], n % 64, word_seed);
        let mask = FreezeMask::from_fn(frozen.len(), |j| frozen[j]);
        let lr = lr_raw as f32 / 500.0;
        let init = data(n, word_seed ^ 0xbeef);
        let g1 = data(n, word_seed ^ 0x51);
        let g2 = data(n, word_seed ^ 0x52);

        let run = |t: usize| {
            apf_par::with_threads(t, || {
                let mut sp = init.clone();
                let mut sgd = Sgd::new(lr).with_momentum(0.9).with_weight_decay(0.01);
                sgd.step(&mut sp, &g1, &mask);
                sgd.step(&mut sp, &g2, &mask);
                let mut ap = init.clone();
                let mut adam = Adam::new(lr).with_weight_decay(0.01);
                adam.step(&mut ap, &g1, &mask);
                adam.step(&mut ap, &g2, &mask);
                (sp, ap)
            })
        };
        let (sgd_1, adam_1) = run(1);
        for t in [2usize, 7] {
            let (sgd_t, adam_t) = run(t);
            prop_assert_eq!(bits(&sgd_1), bits(&sgd_t), "sgd threads={t}");
            prop_assert_eq!(bits(&adam_1), bits(&adam_t), "adam threads={t}");
        }
    }
}

#[test]
fn all_frozen_and_none_frozen_edge_masks() {
    // The two degenerate masks at lengths straddling word boundaries: an
    // all-frozen step is a no-op, a none-frozen step equals the dense
    // reference on every scalar.
    for n in [1usize, 64, 65, 130] {
        let init = data(n, 3);
        let g = data(n, 4);
        let all = vec![true; n];
        let none = vec![false; n];
        for (frozen, label) in [(&all, "all"), (&none, "none")] {
            let mask = FreezeMask::from_fn(n, |j| frozen[j]);
            let mut p = init.clone();
            let mut sgd = Sgd::new(0.1).with_momentum(0.9);
            sgd.step(&mut p, &g, &mask);
            let mut expect = init.clone();
            let mut vel = vec![0.0f32; n];
            sgd_reference(0.1, 0.9, 0.0, &mut expect, &mut vel, &g, frozen);
            assert_eq!(bits(&p), bits(&expect), "sgd n={n} {label}-frozen");
            if *frozen == all {
                assert_eq!(bits(&p), bits(&init), "all-frozen must be a no-op");
            }
            let mut ap = init.clone();
            let mut adam = Adam::new(0.05);
            adam.step(&mut ap, &g, &mask);
            let mut aexpect = init.clone();
            let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
            adam_reference(0.05, 0.0, 1, &mut aexpect, &mut m, &mut v, &g, frozen);
            assert_eq!(bits(&ap), bits(&aexpect), "adam n={n} {label}-frozen");
        }
    }
}

#[test]
fn mostly_frozen_steps_skip_the_frozen_work() {
    // The reason the masked fast paths exist, as a ratio on one host rather
    // than a committed baseline: with 99% of 2^20 scalars frozen in
    // 512-scalar blocks (real APF masks are clustered), a step does a
    // hundredth of the work and reads 50-58x faster than the unfrozen step.
    // Losing the word skip makes the two equal; 4x leaves room for any host.
    const N: usize = 1 << 20;
    let clustered = |pct: usize| {
        FreezeMask::from_fn(N, |j| {
            let b = j / 512;
            (b + 1) * pct / 100 > b * pct / 100
        })
    };
    let (none, most) = (clustered(0), clustered(99));
    assert_eq!(most.frozen_count(), N / 512 * 99 / 100 * 512);
    let g = data(N, 6);
    let mut p = data(N, 5);
    let mut check = |name: &str, opt: &mut dyn Optimizer| {
        let mut fastest = |mask: &FreezeMask| {
            let step = |_| {
                let t0 = std::time::Instant::now();
                opt.step(&mut p, &g, mask);
                t0.elapsed()
            };
            (0..5).map(step).min().unwrap()
        };
        let (dense, sparse) = (fastest(&none), fastest(&most));
        assert!(
            sparse * 4 <= dense,
            "{name}: 99%-frozen step {sparse:?} is not 4x faster than the unfrozen {dense:?}"
        );
    };
    apf_par::with_threads(1, || {
        check("sgd", &mut Sgd::new(0.01).with_momentum(0.9));
        check("adam", &mut Adam::new(0.001));
    });
}
