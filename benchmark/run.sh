#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh                  all four workloads, each in its own process, untraced then
#                                     traced; prints `workload metric value unit` lines, writes
#                                     benchmark/out/results.json, fails on any output check
#   benchmark/run.sh --smoke          the same with 5 rounds per workload: checks only
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run of the BENCHMARK.json contract; the last line of
#                                     standard output is its JSON result
#
# Builds the harness from source first (offline; into CARGO_TARGET_DIR when set, else
# benchmark/target). Run it from the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/apf-benchmark"
case " $* " in
  *" --workload "*) exec "$bin" --out-dir "$here/out" "$@" ;;
  *) exec "$bin" suite --out-dir "$here/out" "$@" ;;
esac
