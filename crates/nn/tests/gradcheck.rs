//! Property-based gradient checks: every differentiable layer's backward
//! pass must agree with central finite differences on random shapes and
//! inputs. This is the strongest guarantee we can give that the manual
//! backprop substrate (on which every APF experiment rests) is correct.

use apf_nn::{
    Activation, ActivationKind, BatchNorm2d, Flatten, LastStep, Layer, Linear, LstmLayer, Mode,
    Sequential,
};

/// A model of one layer: the arena a lone layer needs to run.
fn one(layer: impl Layer + 'static) -> Sequential {
    Sequential::new("one").push(layer)
}
use apf_tensor::{seeded_rng, Tensor};
use apf_testkit::{prop_assert, property, u64s, u8s, usizes, TestCaseResult};

/// Central finite-difference check of `d(sum(output))/d(input)` against the
/// layer's analytic backward, at a handful of positions.
fn check_input_grad(build: &dyn Fn() -> Sequential, input: Tensor, tol: f32) -> TestCaseResult {
    let mut layer = build();
    let y = layer.forward(input.clone(), Mode::Eval);
    let analytic = layer.backward(Tensor::ones(y.shape()));
    let eps = 1e-2;
    let stride = (input.numel() / 5).max(1);
    for idx in (0..input.numel()).step_by(stride) {
        let mut xp = input.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = input.clone();
        xm.data_mut()[idx] -= eps;
        let yp = build().forward(xp, Mode::Eval).sum();
        let ym = build().forward(xm, Mode::Eval).sum();
        let fd = (yp - ym) / (2.0 * eps);
        let an = analytic.data()[idx];
        prop_assert!(
            (fd - an).abs() <= tol * (1.0 + fd.abs()),
            "idx {}: fd={} analytic={}",
            idx,
            fd,
            an
        );
    }
    Ok(())
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| {
                let h = apf_tensor::splitmix64(seed ^ i as u64);
                let v = ((h % 2000) as f32 / 1000.0) - 1.0;
                // Keep every value at least 0.05 from 0 so finite differences
                // never straddle the ReLU kink (eps = 1e-2 below).
                if v >= 0.0 {
                    v + 0.05
                } else {
                    v - 0.05
                }
            })
            .collect(),
        shape,
    )
}

property! {
    [16]
    fn linear_grad_random_shapes(
        inf in usizes(1..8),
        outf in usizes(1..8),
        n in usizes(1..4),
        seed in u64s(0..1000),
    ) {
        let build = move || {
            let mut rng = seeded_rng(seed);
            one(Linear::new("l", inf, outf, &mut rng))
        };
        check_input_grad(&build, rand_tensor(&[n, inf], seed), 2e-2)?;
    }

    [16]
    fn activation_grads_random(
        n in usizes(1..6),
        d in usizes(1..8),
        seed in u64s(0..1000),
        kind in u8s(0..3),
    ) {
        let kind = match kind {
            0 => ActivationKind::Relu,
            1 => ActivationKind::Tanh,
            _ => ActivationKind::Sigmoid,
        };
        let build = move || one(Activation::new(kind));
        check_input_grad(&build, rand_tensor(&[n, d], seed), 2e-2)?;
    }

    [16]
    fn lstm_grad_random_shapes(
        d in usizes(1..4),
        h in usizes(1..4),
        t in usizes(1..4),
        seed in u64s(0..200),
    ) {
        let build = move || {
            let mut rng = seeded_rng(seed);
            one(LstmLayer::new("l", d, h, &mut rng))
        };
        check_input_grad(&build, rand_tensor(&[2, t, d], seed), 3e-2)?;
    }

    [16]
    fn batchnorm_eval_grad(
        c in usizes(1..4),
        hw in usizes(1..4),
        seed in u64s(0..200),
    ) {
        // Eval mode: running stats are constants, so the gradient is exact.
        let build = move || one(BatchNorm2d::new("bn", c));
        check_input_grad(&build, rand_tensor(&[2, c, hw, hw], seed), 2e-2)?;
    }

    [16]
    fn shape_adapters_grads(
        n in usizes(1..4),
        c in usizes(1..4),
        hw in usizes(1..4),
        t in usizes(1..4),
        seed in u64s(0..200),
    ) {
        let build_f = || one(Flatten::new());
        check_input_grad(&build_f, rand_tensor(&[n, c, hw, hw], seed), 1e-3)?;
        let build_l = || one(LastStep::new());
        check_input_grad(&build_l, rand_tensor(&[n, t, c], seed), 1e-3)?;
    }

    [16]
    fn sequential_composition_grad(
        seed in u64s(0..200),
        hidden in usizes(1..6),
    ) {
        // A whole stack: gradient through composition must also match FD.
        let build_model = move || {
            let mut rng = seeded_rng(seed);
            Sequential::new("s")
                .push(Linear::new("a", 3, hidden, &mut rng))
                .push(Activation::new(ActivationKind::Tanh))
                .push(Linear::new("b", hidden, 2, &mut rng))
        };
        let x = rand_tensor(&[2, 3], seed);
        let mut m = build_model();
        let y = m.forward(x.clone(), Mode::Eval);
        let analytic = m.backward(Tensor::ones(y.shape()));
        let eps = 1e-2;
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = build_model().forward(xp, Mode::Eval).sum();
            let ym = build_model().forward(xm, Mode::Eval).sum();
            let fd = (yp - ym) / (2.0 * eps);
            prop_assert!(
                (fd - analytic.data()[idx]).abs() <= 2e-2 * (1.0 + fd.abs()),
                "idx {}: fd={} analytic={}", idx, fd, analytic.data()[idx]
            );
        }
    }

    [16]
    fn parameter_grads_accumulate_linearly(seed in u64s(0..500)) {
        // Backward twice with the same upstream gradient must exactly double
        // every parameter gradient (accumulation contract of the Layer trait).
        let mut rng = seeded_rng(seed);
        let mut l = one(Linear::new("l", 4, 3, &mut rng));
        let x = rand_tensor(&[2, 4], seed);
        let y = l.forward(x.clone(), Mode::Eval);
        l.backward(Tensor::ones(y.shape()));
        let once = l.flat_grads();
        let y = l.forward(x, Mode::Eval);
        l.backward(Tensor::ones(y.shape()));
        let twice = l.flat_grads();
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((2.0 * a - b).abs() < 1e-4);
        }
    }
}

/// Bit patterns, so that a `-0.0` or a NaN cannot compare equal by accident.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `backward_params` is `backward` minus a value nobody reads: for every
/// model of the zoo it must leave bit-identical parameter gradients (and
/// buffers — batch-norm statistics move in the forward pass).
#[test]
fn backward_params_leaves_the_gradients_of_backward() {
    use apf_nn::models::{self, IMAGE_CHANNELS, IMAGE_SIDE, SEQ_FEATURES, SEQ_LEN};
    let image = [5, IMAGE_CHANNELS, IMAGE_SIDE, IMAGE_SIDE];
    type Build = fn(u64) -> Sequential;
    let zoo: [(&str, Build, &[usize]); 4] = [
        ("lenet5", models::lenet5, &image),
        ("resnet", models::resnet, &image),
        ("lstm", models::lstm_classifier, &[5, SEQ_LEN, SEQ_FEATURES]),
        (
            "mlp",
            |seed| models::mlp("mlp", &[12, 9, 10], seed),
            &[5, 12],
        ),
    ];
    for (name, build, shape) in zoo {
        let x = rand_tensor(shape, 0xA11CE);
        let run = |params_only: bool| {
            let mut model = build(3);
            let logits = model.forward(x.clone(), Mode::Train);
            let grad = rand_tensor(logits.shape(), 0xB0B);
            if params_only {
                model.backward_params(grad);
            } else {
                model.backward(grad);
            }
            (model.flat_grads(), model.flat_params())
        };
        let (want_grads, want_params) = run(false);
        let (got_grads, got_params) = run(true);
        assert!(
            want_grads.iter().any(|&g| g != 0.0),
            "{name}: backward left no gradient"
        );
        assert_eq!(bits(&got_grads), bits(&want_grads), "{name}: gradients");
        assert_eq!(bits(&got_params), bits(&want_params), "{name}: parameters");
    }
}

/// FNV-1a over the little-endian bytes of every parameter of `model` after
/// three steps of `opt` on one fixed batch of `input`'s shape (batch first,
/// labels `i % 10`).
fn training_trajectory_hash(
    mut model: Sequential,
    input: &[usize],
    mut opt: impl apf_nn::Optimizer,
) -> u64 {
    use apf::FreezeMask;
    use apf_nn::train_batch;
    let frozen = FreezeMask::all_unfrozen(model.param_count());
    let mut rng = seeded_rng(7);
    let x = apf_tensor::uniform_init(input, -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..input[0]).map(|i| i % 10).collect();
    for _ in 0..3 {
        train_batch(&mut model, &mut opt, &x, &labels, &frozen, None);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in model.flat_params().iter().flat_map(|v| v.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The image models' pinned input: a batch of 16 `[3, 16, 16]` images.
const IMAGE_BATCH: [usize; 4] = [16, 3, 16, 16];

/// `lenet5(3)` after three Adam steps, hashed at the commit before the
/// im2col packers and `backward_params` were introduced: the training step
/// computes the same numbers as it did then, at any pool size.
#[test]
fn lenet_training_trajectory_is_pinned() {
    for threads in [1usize, 2, 7] {
        let hash = apf_par::with_threads(threads, || {
            training_trajectory_hash(
                apf_nn::models::lenet5(3),
                &IMAGE_BATCH,
                apf_nn::Adam::new(0.001),
            )
        });
        assert_eq!(hash, 0x9b75_3218_db2d_c4b1, "threads={threads}");
    }
}

/// `resnet(3)` likewise, hashed at the commit before the fused im2col-GEMM
/// tier was deleted. `rb2-c1` is the model zoo's one strided convolution, so
/// this is the test that fails if a strided call ever changes bits.
#[test]
fn resnet_training_trajectory_is_pinned() {
    for threads in [1usize, 2, 7] {
        let hash = apf_par::with_threads(threads, || {
            training_trajectory_hash(
                apf_nn::models::resnet(3),
                &IMAGE_BATCH,
                apf_nn::Adam::new(0.001),
            )
        });
        assert_eq!(hash, 0x3b5d_9358_ab90_05fc, "threads={threads}");
    }
}

/// `sim-mlp-sync`'s model and optimizer — `mlp [768, 256, 10]` under SGD
/// with momentum 0.9 and weight decay 1e-4 — at batch 8, hashed at the
/// commit before the model's parameters moved into one arena.
#[test]
fn mlp_training_trajectory_is_pinned() {
    for threads in [1usize, 2, 7] {
        let hash = apf_par::with_threads(threads, || {
            training_trajectory_hash(
                apf_nn::models::mlp("mlp", &[768, 256, 10], 3),
                &[8, 768],
                apf_nn::Sgd::new(0.05)
                    .with_momentum(0.9)
                    .with_weight_decay(1e-4),
            )
        });
        assert_eq!(hash, 0x259a_971c_02d1_6ece, "threads={threads}");
    }
}

/// `lstm_classifier(3)` on a batch of 16 `[20, 10]` sequences after three
/// Adam steps, hashed at the same commit: the only pin through an LSTM.
#[test]
fn lstm_training_trajectory_is_pinned() {
    for threads in [1usize, 2, 7] {
        let hash = apf_par::with_threads(threads, || {
            training_trajectory_hash(
                apf_nn::models::lstm_classifier(3),
                &[16, 20, 10],
                apf_nn::Adam::new(0.001),
            )
        });
        assert_eq!(hash, 0xa03b_ee1b_d624_3261, "threads={threads}");
    }
}
