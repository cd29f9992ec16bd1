//! Property-based tests for the tensor substrate (on `apf-testkit`).

use apf_tensor::{col2im, im2col, l2_norm, percentile, ConvSpec, PoolSpec, Tensor};
use apf_testkit::{f32s, prop_assert, prop_assume, property, u64s, usizes, vecs};

/// A deterministic `[m, n]` matrix with entries in `[-10, 10)`.
fn matrix(m: usize, n: usize, seed: u64) -> Tensor {
    let mut rng = apf_tensor::seeded_rng(seed);
    Tensor::from_vec(
        (0..m * n).map(|_| rng.gen_range(-10.0f32..10.0)).collect(),
        &[m, n],
    )
}

/// Whether `got` is `want` bit for bit, a NaN standing wherever `want` has
/// one (its sign and payload are not pinned: LLVM may commute the operands
/// of a multiply).
fn same_bits(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Fused forward, backward and parameter-only backward against the unfused
/// reference, in full, at three pool sizes.
fn check_fused_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad_out: Option<&Tensor>,
    spec: &ConvSpec,
) -> apf_testkit::TestCaseResult {
    let (h, w) = (input.shape()[2], input.shape()[3]);
    let (want_out, cols) = apf_tensor::conv2d_forward(input, weight, bias, spec);
    let scaled;
    let grad_out = match grad_out {
        Some(grad_out) => grad_out,
        None => {
            scaled = want_out.map(|x| x * 0.25);
            &scaled
        }
    };
    let want = apf_tensor::conv2d_backward(grad_out, &cols, weight, spec, (h, w));
    for t in [1usize, 2, 7] {
        let (out, grads, params) = apf_par::with_threads(t, || {
            (
                apf_tensor::conv2d_forward_fused(input, weight, bias, spec),
                apf_tensor::conv2d_backward_fused(grad_out, input, weight, spec),
                apf_tensor::conv2d_backward_params_fused(grad_out, input, spec),
            )
        });
        for (what, got, want) in [
            ("forward", &out, &want_out),
            ("grad input", &grads.input, &want.input),
            ("grad weight", &grads.weight, &want.weight),
            ("grad bias", &grads.bias, &want.bias),
            ("params-only grad weight", &params.0, &want.weight),
            ("params-only grad bias", &params.1, &want.bias),
        ] {
            prop_assert!(same_bits(got, want), "fused {what} differs at threads={t}");
        }
    }
    Ok(())
}

/// [`check_fused_conv`] on a seeded weight and bias, the gradient a scaled
/// copy of the output.
fn check_fused_conv_seeded(
    input: &Tensor,
    spec: &ConvSpec,
    seed: u64,
) -> apf_testkit::TestCaseResult {
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    let weight = matrix(spec.out_channels, ckk, seed ^ 0x17);
    let bias = matrix(1, spec.out_channels, seed ^ 0x29).reshape(&[spec.out_channels]);
    check_fused_conv(input, &weight, &bias, None, spec)
}

/// The square input side that gives `ow` output columns, if there is one.
fn input_side(ow: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    ((ow - 1) * stride + kernel)
        .checked_sub(2 * padding)
        .filter(|&side| side > 0)
}

/// The two convolutions LeNet-5 actually runs, at the training batch size:
/// far past the size where debug builds cross-check the fused kernels
/// themselves.
#[test]
fn fused_conv_matches_unfused_on_the_lenet_shapes() {
    for (spec, shape) in [
        (
            ConvSpec {
                in_channels: 3,
                out_channels: 6,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            [16usize, 3, 16, 16],
        ),
        (
            ConvSpec {
                in_channels: 6,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 0,
            },
            [16, 6, 8, 8],
        ),
    ] {
        let input = matrix(shape[0], shape[1] * shape[2] * shape[3], 0x1E).reshape(&shape);
        check_fused_conv_seeded(&input, &spec, 0x5).unwrap_or_else(|e| panic!("{spec:?}: {e:?}"));
    }
}

/// Every pairing of output width and kernel side around the direct
/// kernels' shape rules (stride 1; an output row narrower than a vector, of
/// one, of two; a kernel row of at most one vector and more than half of
/// one; output channels that fill their vectors or leave lanes idle; one
/// input channel or several), and each width once at stride 2 — a strided
/// call is the oracle, so that draw is what catches a direct kernel being
/// handed `stride = 2`; channels, batch and padding cycle.
#[test]
fn fused_conv_matches_unfused_across_the_dispatch_edges() {
    let mut case = 0usize;
    for ow in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24] {
        for (kernel, stride) in [
            (1usize, 1usize),
            (3, 1),
            (4, 1),
            (5, 1),
            (7, 1),
            (8, 1),
            (9, 1),
            (5, 2),
        ] {
            case += 1;
            let padding = case % kernel;
            let Some(side) = input_side(ow, kernel, stride, padding) else {
                continue;
            };
            let mut spec = ConvSpec {
                in_channels: [1, 3, 6, 8, 9, 16][case % 6],
                out_channels: [1, 5, 6, 7, 8, 9, 13, 16, 17, 24][case / 3 % 10],
                kernel,
                stride,
                padding,
            };
            let mut n = [1, 2, 16][case / 2 % 3];
            // Debug builds run the kernels unoptimized: the largest layers
            // give up the batch, then the input channels.
            let ops = |n: usize, spec: &ConvSpec| {
                n * spec.out_channels * spec.in_channels * kernel * kernel * ow * ow
            };
            if ops(n, &spec) > 1 << 20 {
                n = 1;
            }
            if ops(n, &spec) > 1 << 20 {
                spec.in_channels = 2;
            }
            if ops(n, &spec) > 1 << 20 {
                spec.in_channels = 1;
            }
            let input = matrix(n, spec.in_channels * side * side, case as u64).reshape(&[
                n,
                spec.in_channels,
                side,
                side,
            ]);
            check_fused_conv_seeded(&input, &spec, case as u64)
                .unwrap_or_else(|e| panic!("{spec:?} ow={ow} n={n}: {e:?}"));
        }
    }
}

/// `inf`, `-inf` and NaN planted in the weight, the input and the gradient:
/// every finite result keeps its bits and every NaN its place, on the
/// row- and tap-lane kernels (conv1's shape), on the oracle path (stride 2)
/// and on the channel-lane kernels (conv2's shape, padded). A padding zero
/// times an `inf` weight is a NaN the direct forward must not skip, while
/// the input gradient must not carry an `inf` weight to the pixels whose
/// taps `col2im` skips.
#[test]
fn fused_conv_places_non_finite_values_like_unfused() {
    for (in_channels, out_channels, stride, padding, side) in [
        (3usize, 6usize, 1usize, 2usize, 16usize),
        (3, 6, 2, 2, 16),
        (6, 16, 1, 1, 8),
    ] {
        let spec = ConvSpec {
            in_channels,
            out_channels,
            kernel: 5,
            stride,
            padding,
        };
        let ckk = in_channels * 25;
        let plane = side * side;
        let plant = |t: &mut Tensor, at: &[usize]| {
            for (&i, v) in at.iter().zip([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]) {
                t.data_mut()[i] = v;
            }
        };
        let mut input = matrix(4, in_channels * plane, 0x51).reshape(&[4, in_channels, side, side]);
        plant(
            &mut input,
            &[5, plane + 40, 2 * in_channels * plane + plane - 1],
        );
        let mut weight = matrix(out_channels, ckk, 0x52);
        // A corner tap, a last tap and a first one: the corner tap of a
        // padded layer reads padding at the image's far edges.
        plant(&mut weight, &[12, ckk + 74, 4 * ckk]);
        let bias = matrix(1, out_channels, 0x53).reshape(&[out_channels]);
        let (out, cols) = apf_tensor::conv2d_forward(&input, &weight, &bias, &spec);
        cols.recycle();
        assert!(out.data().iter().any(|v| v.is_nan()) && out.data().iter().any(|v| v.is_finite()));
        let mut grad_out = matrix(1, out.numel(), 0x54).reshape(out.shape());
        let last = grad_out.numel() - 1;
        plant(&mut grad_out, &[3, last / 2, last]);
        check_fused_conv(&input, &weight, &bias, Some(&grad_out), &spec)
            .unwrap_or_else(|e| panic!("{spec:?}: {e:?}"));
    }
}

property! {
    fn matmul_identity_left(m in usizes(1..9), n in usizes(1..9), seed in u64s(0..1000)) {
        let a = matrix(m, n, seed);
        let i = Tensor::eye(a.shape()[0]);
        let out = i.matmul(&a);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    fn matmul_distributes_over_addition(
        m in usizes(1..7),
        k in usizes(1..7),
        seed in u64s(0..1000),
    ) {
        // (B + C) built from `a`'s shape; A x (B + C) == A x B + A x C.
        let a = matrix(m, k, seed);
        let n = 1 + (seed as usize % 5);
        let mk = |salt: u64| {
            let data: Vec<f32> = (0..k * n)
                .map(|i| ((apf_tensor::splitmix64(seed ^ salt ^ i as u64) % 1000) as f32 / 100.0) - 5.0)
                .collect();
            Tensor::from_vec(data, &[k, n])
        };
        let b = mk(0xB);
        let c = mk(0xC);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    fn transpose_variants_agree(
        m in usizes(1..8),
        k in usizes(1..8),
        rows in usizes(1..6),
        seed in u64s(0..1000),
    ) {
        // matmul_nt(a, b) equals a x b^T, and matmul_tn(a, c) equals a^T x c.
        let a = matrix(m, k, seed);
        let b = Tensor::from_vec(
            (0..rows * k)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 400) as f32 / 100.0) - 2.0)
                .collect(),
            &[rows, k],
        );
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose2());
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let c = Tensor::from_vec(
            (0..m * rows)
                .map(|i| ((apf_tensor::splitmix64(seed ^ (i as u64 + 999)) % 400) as f32 / 100.0) - 2.0)
                .collect(),
            &[m, rows],
        );
        let via_tn = a.matmul_tn(&c);
        let via_t2 = a.transpose2().matmul(&c);
        for (x, y) in via_tn.data().iter().zip(via_t2.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    fn im2col_col2im_adjoint(
        c in usizes(1..3),
        hw in usizes(3..7),
        k in usizes(1..4),
        pad in usizes(0..2),
        seed in u64s(0..100),
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let spec = ConvSpec { in_channels: c, out_channels: 1, kernel: k, stride: 1, padding: pad };
        let n = 2;
        let numel = n * c * hw * hw;
        let x = Tensor::from_vec(
            (0..numel).map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0).collect(),
            &[n, c, hw, hw],
        );
        let cols = im2col(&x, &spec);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| ((apf_tensor::splitmix64(seed ^ (i as u64 + 7777)) % 200) as f32 / 100.0) - 1.0).collect(),
            cols.shape(),
        );
        let lhs: f64 = cols.data().iter().zip(y.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let back = col2im(&y, &spec, n, hw, hw);
        let rhs: f64 = x.data().iter().zip(back.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    fn maxpool_output_bounded_by_input(
        hw in usizes(2..8),
        seed in u64s(0..100),
    ) {
        let n = 1;
        let c = 2;
        let numel = n * c * hw * hw;
        let x = Tensor::from_vec(
            (0..numel).map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 2000) as f32 / 100.0) - 10.0).collect(),
            &[n, c, hw, hw],
        );
        let spec = PoolSpec { kernel: 2.min(hw), stride: 2.min(hw) };
        let (out, arg) = apf_tensor::maxpool2d_forward(&x, &spec);
        let max_in = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &o in out.data() {
            prop_assert!(o <= max_in + 1e-6);
        }
        // argmax points at elements equal to the outputs.
        for (&idx, &o) in arg.iter().zip(out.data()) {
            prop_assert!((x.data()[idx] - o).abs() < 1e-6);
        }
    }

    fn percentile_monotone(
        xs in vecs(f32s(-100.0..100.0), 1..50),
        p1 in f32s(0.0..100.0),
        p2 in f32s(0.0..100.0),
    ) {
        let mut xs = xs;
        xs.iter_mut().for_each(|x| *x = x.round());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-6);
    }

    fn l2_norm_triangle_inequality(
        a in vecs(f32s(-10.0..10.0), 1..32),
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 - 1.0).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert!(l2_norm(&sum) <= l2_norm(&a) + l2_norm(&b) + 1e-4);
    }

    // -- Parallel determinism: pool results must be bitwise identical to
    // -- serial at any thread count, for random shapes.

    fn parallel_matmul_bitwise_matches_serial(
        m in usizes(1..80),
        k in usizes(1..40),
        n in usizes(1..80),
        seed in u64s(0..1000),
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xB);
        let bt = b.transpose2();
        let serial = apf_par::with_threads(1, || {
            (a.matmul(&b), a.matmul_nt(&bt), a.transpose2().matmul_tn(&b))
        });
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, || {
                (a.matmul(&b), a.matmul_nt(&bt), a.transpose2().matmul_tn(&b))
            });
            prop_assert!(serial.0 == par.0, "matmul differs at threads={t}");
            prop_assert!(serial.1 == par.1, "matmul_nt differs at threads={t}");
            prop_assert!(serial.2 == par.2, "matmul_tn differs at threads={t}");
        }
    }

    fn parallel_conv2d_bitwise_matches_serial(
        c in usizes(1..4),
        o in usizes(1..4),
        hw in usizes(3..10),
        seed in u64s(0..200),
    ) {
        let spec = ConvSpec { in_channels: c, out_channels: o, kernel: 3, stride: 1, padding: 1 };
        let n = 2;
        let input = Tensor::from_vec(
            (0..n * c * hw * hw)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0)
                .collect(),
            &[n, c, hw, hw],
        );
        let weight = matrix(o, c * 9, seed ^ 0x17);
        let bias = matrix(1, o, seed ^ 0x29).reshape(&[o]);
        let run = || {
            let (out, cols) = apf_tensor::conv2d_forward(&input, &weight, &bias, &spec);
            let grad_out = out.map(|x| x * 0.5);
            let grads = apf_tensor::conv2d_backward(&grad_out, &cols, &weight, &spec, (hw, hw));
            (out, grads.input, grads.weight, grads.bias)
        };
        let serial = apf_par::with_threads(1, run);
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, run);
            prop_assert!(serial.0 == par.0, "forward differs at threads={t}");
            prop_assert!(serial.1 == par.1, "grad input differs at threads={t}");
            prop_assert!(serial.2 == par.2, "grad weight differs at threads={t}");
            prop_assert!(serial.3 == par.3, "grad bias differs at threads={t}");
        }
    }

    // -- Packed GEMM vs the naive reference kernels: bitwise, on random
    // -- shapes (including K=0 and M=1 edges), at several thread counts.

    fn packed_gemm_bitwise_matches_reference(
        m in usizes(1..100),
        k in usizes(0..60),
        n in usizes(1..100),
        seed in u64s(0..1000),
    ) {
        // The drawn shape plus forced edge cases: M=1 and K=0.
        for (m, k, n) in [(m, k, n), (1, k.max(1), n), (m, 0, n)] {
            let a = matrix(m, k, seed);
            let b = matrix(k, n, seed ^ 0xB);
            let bt = b.transpose2();
            let at = a.transpose2();
            let want = (
                a.matmul_reference(&b),
                a.matmul_nt_reference(&bt),
                at.matmul_tn_reference(&b),
            );
            for t in [1usize, 2, 7] {
                let got = apf_par::with_threads(t, || {
                    (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b))
                });
                for (which, (g, w)) in [
                    ("matmul", (&got.0, &want.0)),
                    ("matmul_nt", (&got.1, &want.1)),
                    ("matmul_tn", (&got.2, &want.2)),
                ] {
                    for (gv, wv) in g.data().iter().zip(w.data()) {
                        prop_assert!(
                            gv.to_bits() == wv.to_bits(),
                            "{which} {m}x{k}x{n} threads={t}: {gv} vs {wv}"
                        );
                    }
                }
            }
        }
    }

    fn fused_conv_bitwise_matches_unfused(
        geometry in usizes(0..13 * 6 * 2 * 3 * 10 * 6),
        pad_pick in usizes(0..9),
        seed in u64s(0..200),
    ) {
        // One point of output width x kernel x stride x batch x channels,
        // straddling the direct kernels' shape rules on every side: output
        // rows narrower than a vector, one short of one, one vector, one
        // past it, two vectors and their neighbours; kernel rows of one
        // lane, half a vector, a whole one and one past it; output channels
        // around the 6-channel tile and the 8- and 16-channel vectors; one
        // input channel, a vector of them, one past. The stride-2 half pins
        // that a strided call is the oracle, never a direct kernel.
        let mut pick = geometry;
        let mut draw = |choices: &[usize]| {
            let v = choices[pick % choices.len()];
            pick /= choices.len();
            v
        };
        let ow = draw(&[1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24]);
        let kernel = draw(&[1, 3, 5, 7, 8, 9]);
        let (stride, n) = (draw(&[1, 2]), draw(&[1, 2, 16]));
        let o = draw(&[1, 5, 6, 7, 8, 9, 13, 16, 17, 24]);
        let c = draw(&[1, 3, 6, 8, 9, 16]);
        let padding = pad_pick % kernel;
        let side = input_side(ow, kernel, stride, padding);
        prop_assume!(side.is_some());
        // Debug builds run the kernels unoptimized: keep a case to ~1M
        // multiply-adds (the batch-16 draws survive on the smaller layers).
        prop_assume!(n * o * c * kernel * kernel * ow * ow <= 1 << 20);
        let side = side.expect("assumed above");
        let spec = ConvSpec { in_channels: c, out_channels: o, kernel, stride, padding };
        let input = Tensor::from_vec(
            (0..n * c * side * side)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0)
                .collect(),
            &[n, c, side, side],
        );
        check_fused_conv_seeded(&input, &spec, seed)?;
    }

    fn parallel_reduce_bitwise_matches_serial(
        len in usizes(1..100_000),
        seed in u64s(0..1000),
    ) {
        let x = matrix(1, len, seed).reshape(&[len]);
        let serial = apf_par::with_threads(1, || (x.sum().to_bits(), x.norm_sq().to_bits()));
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, || (x.sum().to_bits(), x.norm_sq().to_bits()));
            prop_assert!(serial == par, "reduction differs at threads={t}");
        }
    }

    fn fill_normal_matches_repeated_normal_f32_bitwise(seed in u64s(0..u64::MAX), burn in usizes(0..5)) {
        // Lengths straddle the generator's 256-element staging chunk.
        for len in [0usize, 1, 255, 256, 257, 768, 1000] {
            let mut one = apf_tensor::seeded_rng(seed);
            for _ in 0..burn {
                one.next_u64();
            }
            let mut staged = one.clone();
            let want: Vec<u32> = (0..len).map(|_| one.normal_f32().to_bits()).collect();
            let mut got = vec![f32::NAN; len];
            staged.fill_normal_f32(&mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert!(got == want, "fill_normal_f32 differs from normal_f32 at len={len}");
            prop_assert!(staged == one, "generator state differs after len={len}");
        }
    }
}
