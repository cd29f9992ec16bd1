//! Layer probes: each times one public call of one layer, on the workload's
//! own model, batch, shard and end-of-run freeze mask, and reports the
//! median of `reps` repetitions after two untimed ones.

use std::hint::black_box;
use std::time::Instant;

use apf::{ApfConfig, ApfManager, DormantApfState, FreezeMask};
use apf_data::{Dataset, SynthImageGen};
use apf_net::{read_frame, write_frame, Frame, MaskedPayload};
use apf_nn::{softmax_cross_entropy, Mode, Optimizer, Trainer};
use apf_quant::{f16_roundtrip_in_place, EmaCodec};
use apf_tensor::{conv2d_forward_fused, normal_init, seeded_rng, ConvSpec, Tensor};
use apf_trace::{Role, TraceContext};

use crate::metrics::Report;
use crate::stats::median;
use crate::workloads::POP_PER_CLIENT;

/// Repetitions per probe in a full run.
pub const REPS: usize = 30;
/// Repetitions per probe under `--smoke`.
pub const SMOKE_REPS: usize = 3;

/// Median wall time (ms) of `f` over `reps` calls, after two untimed calls.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// What the probes run on.
pub struct ProbeInput<'a> {
    /// A trainer built as the workload builds its clients' trainers.
    pub trainer: Trainer,
    /// A second optimizer of the same kind, stepped on its own.
    pub optimizer: Box<dyn Optimizer>,
    /// One client's shard.
    pub shard: &'a Dataset,
    /// The workload's mini-batch size.
    pub batch_size: usize,
    /// The held-out test set and its evaluation batch size.
    pub test: (&'a Dataset, usize),
    /// The run's final global model.
    pub params: &'a [f32],
    /// The replay manager in its end-of-run state.
    pub manager: &'a ApfManager,
    /// The manager's configuration (for decoding its dormant form).
    pub apf: ApfConfig,
    /// The round after the last one run: its mask is the run's final mask.
    pub next_round: u64,
    /// Whether the workload's wire carries binary16 values.
    pub wire_f16: bool,
    /// Tasks the workload spawns per `apf_par::scope`.
    pub scope_tasks: usize,
    /// Generator seed for the synthetic-shard probe.
    pub seed: u64,
    /// Repetitions per probe.
    pub reps: usize,
}

/// Runs every probe and records its metric.
pub fn run(mut p: ProbeInput<'_>, report: &mut Report) {
    let reps = p.reps;
    let mask = p.manager.frozen_mask_packed(p.next_round);
    nn(&mut p, report);
    tensor(&mask, p.params, reps, report);
    data(&p, report);
    quant(p.params, reps, report);
    wire(&mask, p.params, p.wire_f16, reps, report);
    dormant(p.manager, p.apf, reps, report);
    report.set("par.threads", apf_par::threads() as f64);
    // At the workload's single thread a scope runs its tasks inline, so the
    // pool's spawn-and-join cost is probed at two threads.
    let spawn_ms = apf_par::with_threads(2, || {
        time_ms(reps, || {
            apf_par::scope(|s| {
                for _ in 0..p.scope_tasks {
                    s.spawn(|| {
                        black_box(());
                    });
                }
            });
        })
    });
    report.set("par.scope_spawn_us", 1e3 * spawn_ms);
}

fn nn(p: &mut ProbeInput<'_>, report: &mut Report) {
    let reps = p.reps;
    let take: Vec<usize> = (0..p.batch_size.min(p.shard.len())).collect();
    let (x, labels) = p.shard.gather(&take);
    p.trainer.model_mut().load_flat(p.params);
    // Forward and backward share one pass: backward needs forward's caches.
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for i in 0..reps + 2 {
        let model = p.trainer.model_mut();
        model.zero_grads();
        let t = Instant::now();
        let logits = model.forward(x.scratch_copy(), Mode::Train);
        let f = t.elapsed().as_secs_f64() * 1e3;
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        logits.recycle();
        let t = Instant::now();
        model.backward(grad).recycle();
        let b = t.elapsed().as_secs_f64() * 1e3;
        if i >= 2 {
            fwd.push(f);
            bwd.push(b);
        }
    }
    report.set("nn.forward_ms", median(&fwd));
    report.set("nn.backward_ms", median(&bwd));
    let model = p.trainer.model_mut();
    let mut params = model.flat_params();
    let grads = model.flat_grads();
    let frozen = model.flat_spec().freeze_mask();
    report.set(
        "nn.optim_step_ms",
        time_ms(reps, || p.optimizer.step(&mut params, &grads, &frozen)),
    );
    report.set(
        "nn.flat_roundtrip_ms",
        time_ms(reps, || {
            let model = p.trainer.model_mut();
            let flat = model.flat_params();
            model.load_flat(&flat);
            apf_tensor::scratch::give(flat);
        }),
    );
    report.set(
        "nn.train_batch_ms",
        time_ms(reps, || {
            black_box(p.trainer.train_batch(&x, &labels));
        }),
    );
    let (test, eval_batch) = p.test;
    report.set(
        "nn.evaluate_ms",
        time_ms(reps, || {
            black_box(p.trainer.evaluate(test.inputs(), test.labels(), eval_batch));
        }),
    );
}

/// Square matmul side: the `BENCH_kernels.json` probe size.
const MATMUL_N: usize = 192;

fn tensor(mask: &FreezeMask, params: &[f32], reps: usize, report: &mut Report) {
    let mut rng = seeded_rng(7);
    let a = normal_init(&[MATMUL_N, MATMUL_N], 0.0, 1.0, &mut rng);
    let b = normal_init(&[MATMUL_N, MATMUL_N], 0.0, 1.0, &mut rng);
    let ms = time_ms(reps, || black_box(a.matmul(&b)).recycle());
    report.set(
        "tensor.matmul_gflops",
        2.0 * (MATMUL_N as f64).powi(3) / (ms * 1e-3) / 1e9,
    );
    // LeNet-5's second convolution at the workload's batch of 16.
    let spec = ConvSpec {
        in_channels: 6,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 0,
    };
    let (n, h, w) = (16usize, 8usize, 8usize);
    let k = spec.in_channels * spec.kernel * spec.kernel;
    let input = normal_init(&[n, spec.in_channels, h, w], 0.0, 1.0, &mut rng);
    let weight = normal_init(&[spec.out_channels, k], 0.0, 0.1, &mut rng);
    let bias = Tensor::zeros(&[spec.out_channels]);
    let ms = time_ms(reps, || {
        black_box(conv2d_forward_fused(&input, &weight, &bias, &spec)).recycle();
    });
    let (oh, ow) = spec.out_size(h, w);
    let flops = 2.0 * (n * oh * ow * spec.out_channels * k) as f64;
    report.set("tensor.conv2d_gflops", flops / (ms * 1e-3) / 1e9);
    // The aggregation accumulator at the run's final mask; bytes are the
    // computed traffic of the unfrozen scalars (read y, read x, write y).
    let mut y = vec![0.0f32; params.len()];
    let ms = time_ms(reps, || {
        apf_tensor::masked_axpy(&mut y, params, 0.5, mask.words());
    });
    report.set(
        "tensor.masked_axpy_gbps",
        12.0 * mask.unfrozen_count() as f64 / (ms * 1e-3) / 1e9,
    );
}

fn data(p: &ProbeInput<'_>, report: &mut Report) {
    let mut rng = seeded_rng(p.seed);
    report.set(
        "data.batches_pass_ms",
        time_ms(p.reps, || {
            black_box(p.shard.batches(p.batch_size, &mut rng).collect::<Vec<_>>());
        }),
    );
    let gen = SynthImageGen::new(p.seed);
    let (mut buf, mut labels) = (Vec::new(), Vec::new());
    let mut id = 0;
    report.set(
        "data.synth_shard_ms",
        time_ms(p.reps, || {
            id += 1;
            gen.fill_split(POP_PER_CLIENT, 2 + id, &mut buf, &mut labels);
        }),
    );
}

fn quant(params: &[f32], reps: usize, report: &mut Report) {
    let mut v = params.to_vec();
    let ms = time_ms(reps, || f16_roundtrip_in_place(&mut v));
    report.set(
        "quant.f16_roundtrip_gbps",
        8.0 * v.len() as f64 / (ms * 1e-3) / 1e9,
    );
    let mut blob = Vec::new();
    report.set(
        "quant.ema_encode_ms",
        time_ms(reps, || {
            blob.clear();
            EmaCodec::F16.encode_into(params, &mut blob);
        }),
    );
    let mut out = Vec::new();
    report.set(
        "quant.ema_decode_ms",
        time_ms(reps, || {
            out.clear();
            EmaCodec::F16
                .decode_into(&blob, &mut out)
                .expect("blob encoded above");
        }),
    );
}

/// One model-sized `Frame::Push` through `write_frame` into a `Vec` and
/// `read_frame` back from the slice: the wire layer without a socket.
fn wire(mask: &FreezeMask, params: &[f32], f16: bool, reps: usize, report: &mut Report) {
    let mut values = Vec::new();
    apf_tensor::mask_select(params, mask.words(), &mut values);
    let frame = Frame::Push {
        round: 1,
        client_id: 0,
        loss_bits: 0,
        payload: MaskedPayload::new(mask.clone(), values, f16).expect("one value per unfrozen"),
        ctx: TraceContext::new(1, Role::Client(0)),
    };
    let mut bytes = Vec::new();
    report.set(
        "net.wire.encode_ms",
        time_ms(reps, || {
            bytes.clear();
            write_frame(&mut bytes, &frame).expect("writing to a Vec cannot fail");
        }),
    );
    report.set(
        "net.wire.decode_ms",
        time_ms(reps, || {
            black_box(read_frame(&mut bytes.as_slice()).expect("frame encoded above"));
        }),
    );
}

fn dormant(manager: &ApfManager, apf: ApfConfig, reps: usize, report: &mut Report) {
    let mut blob = None;
    report.set(
        "core.dormant_encode_ms",
        time_ms(reps, || {
            blob = Some(DormantApfState::encode(&manager.snapshot(), EmaCodec::F16));
        }),
    );
    let blob = blob.expect("encoded at least once");
    report.set(
        "core.dormant_decode_ms",
        time_ms(reps, || {
            black_box(blob.decode(apf).expect("blob encoded above"));
        }),
    );
}
