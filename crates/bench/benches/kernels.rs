//! Benchmarks for the numerical substrate: matmul, LeNet-5's two
//! convolutions through the fused entry points training calls, the linear
//! layers' forward and weight-gradient products at client batch sizes, the six
//! masked kernels on the Bernoulli masks per-scalar freezing produces, the
//! skip-frozen optimizer steps on the masks training hands them, the
//! manager's mask build, stability check and aggregate application on the
//! Bernoulli masks, and a full forward pass of each paper model (the compute
//! side of Table 3).
//!
//! Plain harness (`apf_bench::harness`); run with
//! `cargo bench -p apf-bench --bench kernels`. Nothing here is gated: the
//! rows are for steering kernel work, compared within one session on one
//! host (`BENCHMARK.json` is the performance contract).

use apf::{Aimd, ApfConfig, ApfManager, FreezeMask};
use apf_bench::harness::{black_box, BenchGroup};
use apf_nn::{models, Adam, Mode, Optimizer, Sequential, Sgd};
use apf_tensor::{
    conv2d_backward_fused, conv2d_backward_params_fused, conv2d_forward_fused, mask_copy,
    mask_fill, mask_scatter, mask_select, masked_axpy, masked_div, matmul_nt_slices, matmul_tn_add,
    normal_init, seeded_rng, splitmix64, ConvSpec, Tensor,
};

/// Training batch size of the LeNet-5 convolution rows.
const CONV_BATCH: usize = 16;
/// LeNet-5's first convolution and its input side.
const LENET_CONV1: (ConvSpec, usize) = (
    ConvSpec {
        in_channels: 3,
        out_channels: 6,
        kernel: 5,
        stride: 1,
        padding: 2,
    },
    16,
);
/// LeNet-5's second convolution (8x8 after the first pool).
const LENET_CONV2: (ConvSpec, usize) = (
    ConvSpec {
        in_channels: 6,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 0,
    },
    8,
);

fn forward_once(model: &mut Sequential, x: &Tensor) -> f32 {
    model.forward(x.clone(), Mode::Eval).sum()
}

/// Forward, parameter-gradient and (when `input_grad`) whole-backward rows of
/// one convolution at [`CONV_BATCH`], each followed by its GFLOP/s on the
/// fastest sample. The three products multiply the same extents, so the whole
/// backward pass counts two products' worth of FLOPs.
fn bench_conv(g: &mut BenchGroup, name: &str, (spec, side): (ConvSpec, usize), input_grad: bool) {
    let mut rng = seeded_rng(7);
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    let (oh, ow) = spec.out_size(side, side);
    let input = normal_init(
        &[CONV_BATCH, spec.in_channels, side, side],
        0.0,
        1.0,
        &mut rng,
    );
    let weight = normal_init(&[spec.out_channels, ckk], 0.0, 0.1, &mut rng);
    let bias = Tensor::zeros(&[spec.out_channels]);
    let grad_out = normal_init(&[CONV_BATCH, spec.out_channels, oh, ow], 0.0, 1.0, &mut rng);
    let flops = 2.0 * (CONV_BATCH * oh * ow * spec.out_channels * ckk) as f64;
    let gflops =
        |products: f64, secs: f64| println!("{:>64.1} GFLOP/s", products * flops / secs / 1e9);

    let m = g.bench(&format!("{name}_fwd"), || {
        black_box(conv2d_forward_fused(&input, &weight, &bias, &spec)).recycle();
    });
    gflops(1.0, m.min.as_secs_f64());
    let m = g.bench(&format!("{name}_wgrad"), || {
        let (gw, gb) = black_box(conv2d_backward_params_fused(&grad_out, &input, &spec));
        gw.recycle();
        gb.recycle();
    });
    gflops(1.0, m.min.as_secs_f64());
    if input_grad {
        let m = g.bench(&format!("{name}_bwd"), || {
            let grads = black_box(conv2d_backward_fused(&grad_out, &input, &weight, &spec));
            grads.input.recycle();
            grads.weight.recycle();
            grads.bias.recycle();
        });
        gflops(2.0, m.min.as_secs_f64());
    }
}

/// The forward `x·Wᵀ` and the weight gradient accumulated into an arena
/// of one `[n_in → n_out]` linear product per layer at `batch` rows (each
/// `(n_in, n_out)` pair one layer), then each row's GFLOP/s on the fastest
/// sample: the products client training runs at a client's batch size.
fn bench_batch_rows(g: &mut BenchGroup, name: &str, batch: usize, layers: &[(usize, usize)]) {
    let mut rng = seeded_rng(11);
    let operands: Vec<_> = layers
        .iter()
        .map(|&(k, n)| {
            let x = normal_init(&[batch, k], 0.0, 1.0, &mut rng);
            let w = normal_init(&[n, k], 0.0, 0.1, &mut rng);
            let grad = normal_init(&[batch, n], 0.0, 1.0, &mut rng);
            (x, w, grad, vec![0.0f32; n * k])
        })
        .collect();
    let flops = 2.0 * layers.iter().map(|&(k, n)| batch * k * n).sum::<usize>() as f64;
    let gflops = |secs: f64| println!("{:>64.1} GFLOP/s", flops / secs / 1e9);
    let m = g.bench(&format!("{name}_fwd"), || {
        for (x, w, _, _) in &operands {
            let (k, n) = (x.shape()[1], w.shape()[0]);
            black_box(matmul_nt_slices(x.data(), w.data(), batch, k, n)).recycle();
        }
    });
    gflops(m.min.as_secs_f64());
    let mut operands = operands;
    let m = g.bench(&format!("{name}_wgrad"), || {
        for (x, w, grad, arena) in &mut operands {
            let (k, n) = (x.shape()[1], w.shape()[0]);
            matmul_tn_add(black_box(arena), grad.data(), x.data(), n, batch, k);
        }
    });
    gflops(m.min.as_secs_f64());
}

/// Scalars of the benchmark's MLP (`sim-mlp-sync`, `net-loopback-f16`).
const MLP_N: usize = 199_434;

/// Whether scalar `j` is frozen in the `pct`% Bernoulli mask of the
/// `masked_bernoulli` and `core` rows.
fn bernoulli_frozen(j: usize, pct: usize) -> bool {
    splitmix64(j as u64) % 100 < pct as u64
}

/// The six masked kernels over [`MLP_N`] scalars with `pct`% frozen
/// independently per scalar: every word mixed, the traffic Alg. 1 produces.
fn bench_masked_bernoulli(g: &mut BenchGroup, pct: usize) {
    let mask = FreezeMask::from_fn(MLP_N, |j| bernoulli_frozen(j, pct));
    let words = mask.words();
    let mut rng = seeded_rng(13);
    let x = normal_init(&[MLP_N], 0.0, 1.0, &mut rng);
    let x = x.data();
    let mut y = vec![1.0f32; MLP_N];
    g.bench(&format!("fill_f{pct}"), || {
        mask_fill(black_box(&mut y), x, words);
    });
    g.bench(&format!("copy_f{pct}"), || {
        mask_copy(black_box(&mut y), x, words);
    });
    g.bench(&format!("axpy_f{pct}"), || {
        masked_axpy(black_box(&mut y), x, 1e-3, words);
    });
    g.bench(&format!("div_f{pct}"), || {
        masked_div(black_box(&mut y), 1.0001, words);
    });
    let mut compact = Vec::with_capacity(MLP_N);
    g.bench(&format!("select_f{pct}"), || {
        compact.clear();
        mask_select(black_box(x), words, &mut compact);
    });
    g.bench(&format!("scatter_f{pct}"), || {
        mask_scatter(black_box(&mut y), &compact, words);
    });
}

/// One skip-frozen SGD (momentum) and Adam step on `mask`, a mask the
/// program passes: `Trainer` hands `Optimizer::step` only
/// `FlatSpec::freeze_mask()` (buffer lanes frozen), never APF's Bernoulli
/// mask, which the rollback applies to the arena after the step.
fn bench_optim_steps(g: &mut BenchGroup, name: &str, mask: &FreezeMask) {
    let n = mask.len();
    let mut rng = seeded_rng(13);
    let mut y = normal_init(&[n], 0.0, 1.0, &mut rng).into_vec();
    let grads = normal_init(&[n], 0.0, 0.1, &mut rng);
    let mut sgd = Sgd::new(0.01).with_momentum(0.9);
    g.bench(&format!("sgd_step_{name}"), || {
        sgd.step(black_box(&mut y), grads.data(), mask);
    });
    let mut adam = Adam::new(0.001);
    g.bench(&format!("adam_step_{name}"), || {
        adam.step(black_box(&mut y), grads.data(), mask);
    });
}

/// A manager over [`MLP_N`] scalars whose mask is the `pct`% Bernoulli one
/// at every round: the frozen scalars never thaw, and the rest are checked
/// each round — half of them reading stable — under a controller that
/// leaves their period at zero, so every `finish_round` sweeps the same
/// words.
fn bernoulli_manager(pct: usize) -> ApfManager {
    let cfg = ApfConfig {
        check_every_rounds: 1,
        threshold_decay: None,
        ..ApfConfig::default()
    };
    let steady = || {
        Box::new(Aimd {
            increment: 0,
            decrease_factor: 2,
        })
    };
    let fresh = ApfManager::new(&vec![0.0; MLP_N], cfg, steady());
    let mut state = fresh.expect("valid config").snapshot();
    state.unfreeze_round = (0..MLP_N)
        .map(|j| u64::from(bernoulli_frozen(j, pct)) * u64::MAX)
        .collect();
    state.ema_a = vec![1.0; MLP_N];
    state.ema_e = (0..MLP_N).map(|j| (j % 2) as f32).collect();
    state.ema_updates = 1;
    let mut mgr = ApfManager::restore(state, steady());
    mgr.hold_round(0);
    mgr
}

/// `finish_round` with a stability check due, on the `pct`% Bernoulli mask.
fn bench_stability_check(g: &mut BenchGroup, pct: usize) {
    let mut mgr = bernoulli_manager(pct);
    let params = vec![0.0f32; MLP_N];
    let mut round = 0;
    g.bench(&format!("stability_check_f{pct}"), || {
        let report = mgr.finish_round(black_box(&params), round);
        assert!(report.checked);
        round += 1;
    });
    assert_eq!(
        mgr.frozen_count(round),
        (0..MLP_N).filter(|&j| bernoulli_frozen(j, pct)).count(),
        "the mask moved"
    );
}

/// Aggregate application on the `pct`% Bernoulli mask: the compact form the
/// wire delivers and the dense form the simulator's streaming reduce leaves.
fn bench_apply_aggregate(g: &mut BenchGroup, pct: usize) {
    let mut mgr = bernoulli_manager(pct);
    let mut params = vec![0.0f32; MLP_N];
    let dense = vec![0.5f32; MLP_N];
    let compact = mgr.select_unfrozen(&dense, 0);
    g.bench(&format!("apply_aggregate_f{pct}"), || {
        mgr.apply_aggregate(black_box(&mut params), &compact, 0);
    });
    g.bench(&format!("apply_aggregate_dense_f{pct}"), || {
        mgr.apply_aggregate_dense(black_box(&mut params), &dense, 0);
    });
}

/// `ApfManager`'s from-scratch mask build on the `pct`% Bernoulli mask: the
/// manager holds round 0, so every `frozen_mask_packed(1)` builds one.
fn bench_mask_build(g: &mut BenchGroup, pct: usize) {
    let mgr = bernoulli_manager(pct);
    g.bench(&format!("mask_build_f{pct}"), || {
        black_box(mgr.frozen_mask_packed(1));
    });
}

fn main() {
    let mut g = BenchGroup::new("matmul");
    for &n in &[32usize, 64, 128] {
        let mut rng = seeded_rng(0);
        let a = normal_init(&[n, n], 0.0, 1.0, &mut rng);
        let b = normal_init(&[n, n], 0.0, 1.0, &mut rng);
        g.bench(&n.to_string(), || {
            black_box(a.matmul(&b));
        });
    }

    // Thread sweep over the apf-par pool (results identical by contract;
    // only time should move, and only on multi-core hosts).
    let mut g = BenchGroup::new("matmul192_threads");
    let mut rng = seeded_rng(0);
    let a = normal_init(&[192, 192], 0.0, 1.0, &mut rng);
    let b = normal_init(&[192, 192], 0.0, 1.0, &mut rng);
    for t in [1usize, 2, 4] {
        apf_par::with_threads(t, || {
            g.bench(&format!("t{t}"), || {
                black_box(a.matmul(&b));
            });
        });
    }

    // One thread: the rows kernel work is steered by. Conv1 is the first
    // layer, so training never computes its input gradient.
    apf_par::with_threads(1, || {
        let mut g = BenchGroup::new("lenet_conv_batch16_t1");
        bench_conv(&mut g, "conv1", LENET_CONV1, false);
        bench_conv(&mut g, "conv2", LENET_CONV2, true);

        // The linear products at client batch sizes: the benchmark MLP's
        // first layer at batch 8, the population MLP's at batch 4, one step
        // of the LSTM's second layer (input and recurrent products) and
        // LeNet-5's three fully connected layers at batch 16.
        let mut g = BenchGroup::new("linear_batch_rows");
        bench_batch_rows(&mut g, "mlp256_b8", 8, &[(768, 256)]);
        bench_batch_rows(&mut g, "mlp16_b4", 4, &[(768, 16)]);
        bench_batch_rows(&mut g, "lstm_step_b16", 16, &[(64, 256), (64, 256)]);
        bench_batch_rows(
            &mut g,
            "lenet_fc_b16",
            16,
            &[(64, 120), (120, 84), (84, 10)],
        );

        let mut g = BenchGroup::new("masked_bernoulli");
        for pct in [1, 5, 35, 50, 90] {
            bench_masked_bernoulli(&mut g, pct);
        }

        // The MLP has no buffers, so its mask is all unfrozen; ResNet's
        // freezes its BatchNorm running statistics, in contiguous runs.
        let mut g = BenchGroup::new("optim_step");
        bench_optim_steps(&mut g, "mlp_unfrozen", &FreezeMask::all_unfrozen(MLP_N));
        let resnet = models::by_name("resnet", 0).unwrap();
        bench_optim_steps(&mut g, "resnet_buffers", &resnet.flat_spec().freeze_mask());

        // The manager's per-round work on scalar-frozen bits (the worst case
        // for a branchy builder or a run-driven sweep).
        let mut g = BenchGroup::new("core");
        for pct in [0, 35, 90] {
            bench_mask_build(&mut g, pct);
        }
        for pct in [0, 35, 90] {
            bench_stability_check(&mut g, pct);
        }
        bench_apply_aggregate(&mut g, 35);
    });

    let mut g = BenchGroup::new("model_forward_batch16");
    let mut rng = seeded_rng(0);
    let img = normal_init(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let seq = normal_init(&[16, 20, 10], 0.0, 1.0, &mut rng);
    for name in ["lenet5", "resnet", "lstm"] {
        let mut model = models::by_name(name, 0).unwrap();
        let x = if name == "lstm" {
            seq.clone()
        } else {
            img.clone()
        };
        g.bench(name, || {
            black_box(forward_once(&mut model, &x));
        });
    }
}
