#!/usr/bin/env bash
# Kernel-bench regression check against the committed baseline.
#
# Re-runs `bench-kernels` (quick mode) into a temporary file and compares
# it with BENCH_kernels.json at the repo root via `ledger-report
# bench-diff`: throughput may drop and round time may grow by at most 20%.
# When the current host's parallelism differs from the baseline's, findings
# are warnings only (absolute kernel numbers are not comparable across
# machines) and the script still exits 0.
#
# Ambient load on a shared host only ever slows a run down (the serial
# round row read 51.7-74.8 ms in seven back-to-back quick runs against a
# 54.7 ms baseline), while a real regression slows every run: the check
# passes if any of up to three attempts is within tolerance.
#
# Usage: scripts/bench_check.sh [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_kernels.json}"
if [ ! -f "$baseline" ]; then
  echo "bench_check: baseline $baseline not found" >&2
  exit 2
fi

candidate=$(mktemp /tmp/apf_bench_candidate.XXXXXX.json)
trap 'rm -f "$candidate"' EXIT

attempts=3
for attempt in $(seq 1 "$attempts"); do
  echo "== bench-kernels (quick) -> $candidate (attempt $attempt of $attempts) =="
  APF_BENCH_QUICK=1 cargo run -q --release --offline -p apf-bench \
    --bin bench-kernels -- --out "$candidate" --no-ledger

  echo "== ledger-report bench-diff $baseline $candidate =="
  if cargo run -q --release --offline -p apf-bench --bin ledger-report -- \
    bench-diff "$baseline" "$candidate"; then
    exit 0
  fi
done
echo "bench_check: regression in all $attempts attempts" >&2
exit 1
