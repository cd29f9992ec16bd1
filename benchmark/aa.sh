#!/usr/bin/env bash
# A/A: runs the untraced suite twice with the workloads interleaved (W1 W2 W3 W4, W1 W2 W3 W4),
# prints how far each end-to-end metric moved against its bound, and records both result sets in
# benchmark/AA.md.
#
#   benchmark/aa.sh                   one seed per set
#   benchmark/aa.sh --seeds 10        ten seeds per set, with the quartile spread across seeds: the
#                                     procedure the benchmark contract accepts a benchmark by
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/apf-benchmark" aa \
  --out-dir "$here/out" --aa-md "$here/AA.md" "$@"
