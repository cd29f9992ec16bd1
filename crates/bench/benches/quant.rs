//! Benchmarks for the quantization codecs used by APF+Q (§7.7).
//!
//! Plain harness (`apf_bench::harness`); run with
//! `cargo bench -p apf-bench --bench quant`.

use apf_bench::harness::{black_box, BenchGroup};
use apf_quant::{f16_decode, f16_encode};

fn payload(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.37).sin() * 2.0).collect()
}

fn main() {
    let mut g = BenchGroup::new("f16_roundtrip");
    for &n in &[1_000usize, 20_000, 100_000] {
        let xs = payload(n);
        g.bench(&n.to_string(), || {
            black_box(f16_decode(&f16_encode(&xs)));
        });
    }
}
