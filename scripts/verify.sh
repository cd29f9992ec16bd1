#!/usr/bin/env bash
# Tier-1 verification gate for the APF reproduction workspace.
#
# The workspace is hermetic: it must build, test, and bench with zero
# registry dependencies, fully offline. This script is the check CI (and
# humans) run before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

# The three counting-allocator binaries swap the global allocator and count
# allocations process-wide, so a stray allocation on another thread is a
# flake, not a failure of the code under test. Their tests are serialised
# behind one mutex each; run every binary ten times so a flake that
# survives shows up here, not in one merge out of twenty.
alloc_gate() {
  local pkg=$1 bin=$2 i out
  for i in $(seq 1 10); do
    out=$(APF_PAR_THREADS=1 cargo test -q --offline -p "$pkg" --test "$bin" 2>&1) || {
      echo "$out" >&2
      echo "$pkg --test $bin failed on run $i of 10" >&2
      exit 1
    }
  done
  echo "OK: $pkg --test $bin passed 10 of 10 runs"
}

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo build --release --offline (workspace) =="
cargo build --release --offline --workspace

echo "== cargo test --offline (workspace, APF_PAR_THREADS=1) =="
APF_PAR_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test --offline (workspace, APF_PAR_THREADS=4) =="
APF_PAR_THREADS=4 cargo test -q --offline --workspace

echo "== cargo test --release --offline (apf-tensor + apf-nn: the optimised kernels) =="
# The benchmark, and any contraction or reassociation LLVM might do to the
# kernels' mul-then-add chains, live in --release; the steps above only ever
# run debug builds of the bitwise tests.
APF_PAR_THREADS=1 cargo test -q --release --offline -p apf-tensor -p apf-nn
APF_PAR_THREADS=4 cargo test -q --release --offline -p apf-tensor -p apf-nn

echo "== apf-par pool stress (nested scopes, panics, zero-work) =="
APF_PAR_THREADS=4 cargo test -q --offline -p apf-par --test stress

echo "== cargo clippy -D warnings (workspace) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== no println!/eprintln! in library code =="
# Library sources must report through apf-trace (or an injected writer), not
# ad-hoc prints. Binaries (src/bin/), benches, examples, tests, and comment
# lines are exempt; #[cfg(test)] modules inside lib files are caught by the
# grep but whitelisted here via the test-module paths below being none —
# keep test-only prints inside tests/ or benches/ instead.
offenders=$(grep -rn --include='*.rs' -E '\b(println!|eprintln!)\(' crates/*/src \
  | grep -v '/src/bin/' \
  | grep -vE ':[0-9]+:\s*(//|//!|///)' || true)
if [ -n "$offenders" ]; then
  echo "println!/eprintln! found in library code (use apf-trace events or an injected writer):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "OK: no stray prints in library code"

echo "== live telemetry smoke (obs server + ledger regression gate) =="
# Two identical 2-round runs with the HTTP server on an ephemeral port:
# obs-smoke scrapes /healthz, /metrics (validated by the in-repo Prometheus
# parser), /snapshot, and /series in-process, and appends each run to a
# throwaway ledger; the second run must then pass `ledger-report check`
# (identical re-runs are within tolerance by construction).
smoke_ledger=$(mktemp /tmp/apf_smoke_ledger.XXXXXX.jsonl)
rm -f "$smoke_ledger"
for i in 1 2; do
  APF_OBS_ADDR=127.0.0.1:0 APF_LEDGER_FILE="$smoke_ledger" \
    cargo run -q --release --offline -p apf-bench --bin obs-smoke
done
cargo run -q --release --offline -p apf-bench --bin ledger-report -- \
  check --ledger "$smoke_ledger"
rm -f "$smoke_ledger"
echo "OK: telemetry endpoints healthy, identical re-run passes the gate"

echo "== networked mode: multi-process bitwise parity vs simulator =="
# One apf-server process plus three apf-client processes over localhost TCP
# (ephemeral port handed off via --addr-file) must reproduce the in-process
# simulator's golden trajectory byte for byte — same loss, frozen-ratio,
# accuracy, and byte-count bit patterns every round. Everything runs under a
# hard timeout so a protocol hang fails the gate instead of wedging CI.
# (The in-process variant plus the wire-format property tests already ran
# above under both APF_PAR_THREADS=1 and =4 as part of the workspace suite.)
net_dir=$(mktemp -d /tmp/apf_net.XXXXXX)
trap 'rm -rf "$net_dir"' EXIT
server=target/release/apf-server
client=target/release/apf-client

timeout 120 "$server" --sim \
  --trajectory-out "$net_dir/sim.traj" --ledger "$net_dir/ledger.jsonl"

timeout 120 "$server" --addr 127.0.0.1:0 --addr-file "$net_dir/addr" \
  --trajectory-out "$net_dir/net.traj" --ledger "$net_dir/ledger.jsonl" &
net_pids=($!)
for id in 0 1 2; do
  timeout 120 "$client" --id "$id" --addr-file "$net_dir/addr" &
  net_pids+=($!)
done
for pid in "${net_pids[@]}"; do wait "$pid"; done

# The networked trajectory carries a `# wire_bytes=` comment the simulator
# baseline lacks; comments are exempt from the byte-for-byte comparison.
if ! diff <(grep -v '^#' "$net_dir/sim.traj") <(grep -v '^#' "$net_dir/net.traj"); then
  echo "networked run diverges from the simulator baseline" >&2
  exit 1
fi
echo "OK: networked trajectory is bitwise identical to the simulator"
cargo run -q --release --offline -p apf-bench --bin ledger-report -- \
  diff 0 1 --ledger "$net_dir/ledger.jsonl"

echo "== networked mode: distributed tracing (merge, timeline, reconcile) =="
# A third networked run, traced end to end: the server and all three
# clients each write a JSONL trace (--trace-file at debug level). The
# traced run must STILL match the simulator baseline byte for byte
# (tracing may not perturb the arithmetic or the wire accounting), the
# merged trace must render a per-round timeline attributing >=95% of each
# round's wall time to compute/transfer/server-wait, and the traced
# transfer bytes must reconcile exactly with the run-ledger record.
timeout 120 "$server" --addr 127.0.0.1:0 --addr-file "$net_dir/addr3" \
  --trajectory-out "$net_dir/traced.traj" --ledger "$net_dir/ledger.jsonl" \
  --trace-file "$net_dir/server.trace.jsonl" &
net_pids=($!)
for id in 0 1 2; do
  timeout 120 "$client" --id "$id" --addr-file "$net_dir/addr3" \
    --trace-file "$net_dir/client$id.trace.jsonl" &
  net_pids+=($!)
done
for pid in "${net_pids[@]}"; do wait "$pid"; done
if ! diff <(grep -v '^#' "$net_dir/sim.traj") <(grep -v '^#' "$net_dir/traced.traj"); then
  echo "traced networked run diverges from the simulator baseline" >&2
  exit 1
fi
cargo run -q --release --offline -p apf-bench --bin trace-report -- \
  timeline "$net_dir/server.trace.jsonl" "$net_dir"/client?.trace.jsonl \
  --min-coverage 95
cargo run -q --release --offline -p apf-bench --bin trace-report -- \
  reconcile "$net_dir/server.trace.jsonl" "$net_dir"/client?.trace.jsonl \
  --ledger "$net_dir/ledger.jsonl"
echo "OK: traced run stays bitwise clean; timeline and ledger reconcile"

echo "== networked mode: client killed mid-round degrades gracefully =="
# Client 2 crashes right before its round-2 push; the server must still
# finish every round with the survivors and write a complete trajectory.
timeout 120 "$server" --addr 127.0.0.1:0 --addr-file "$net_dir/addr2" \
  --trajectory-out "$net_dir/fault.traj" &
net_pids=($!)
for id in 0 1; do
  timeout 120 "$client" --id "$id" --addr-file "$net_dir/addr2" &
  net_pids+=($!)
done
timeout 120 "$client" --id 2 --addr-file "$net_dir/addr2" --fail-before-push 2 &
net_pids+=($!)
for pid in "${net_pids[@]}"; do wait "$pid"; done
sim_rounds=$(grep -cv '^#\|^apf-trajectory' "$net_dir/sim.traj")
fault_rounds=$(grep -cv '^#\|^apf-trajectory' "$net_dir/fault.traj")
if [ "$fault_rounds" -ne "$sim_rounds" ]; then
  echo "faulted run recorded $fault_rounds rounds, expected $sim_rounds" >&2
  exit 1
fi
echo "OK: server completed all $fault_rounds rounds despite a mid-round client loss"

echo "== masked fast paths vs dense reference (APF_MASKED_STEP) =="
# The skip-frozen optimizer steps and sparse aggregation are on by default
# (and therefore already covered by every stage above). Flip them OFF and
# re-check the two strongest end-to-end fixtures against the same goldens:
# the committed trajectories must be bitwise identical either way, proving
# the masked kernels change wall time only, never arithmetic.
APF_MASKED_STEP=0 APF_PAR_THREADS=1 cargo test -q --offline \
  -p apf --test golden_trajectory
APF_MASKED_STEP=0 APF_PAR_THREADS=1 cargo test -q --offline \
  -p apf-fedsim --test thread_determinism
APF_MASKED_STEP=0 timeout 120 "$server" --sim \
  --trajectory-out "$net_dir/dense.traj"
if ! diff <(grep -v '^#' "$net_dir/sim.traj") <(grep -v '^#' "$net_dir/dense.traj"); then
  echo "dense-reference run diverges from the masked fast-path baseline" >&2
  exit 1
fi
echo "OK: dense reference reproduces the masked-path trajectory bit for bit"

echo "== zero-alloc steady state (scratch pool, APF_PAR_THREADS=1) =="
# The GEMM/conv training hot path must be fully served by the scratch pool
# after warm-up: the alloc tests assert zero buffer allocations per step.
alloc_gate apf-nn alloc

echo "== zero-alloc disabled tracing on the net hot path =="
# With tracing off, every net-crate instrumentation site (spans, events,
# trace contexts, metric updates) must be a relaxed atomic load away from
# free: the counting allocator proves zero allocations.
alloc_gate apf-net alloc

echo "== profiling: sampled flamegraph of a 2-round sim run =="
# A short profiled simulator run (bigger hidden layer + 100us sampling so
# even the brief aggregate phase collects a solid sample count) must emit
# non-empty folded output, and `trace-report flame` must find both the
# training and the aggregation frames in it — proving the sampler sees
# the span stacks the federated loop opens.
prof_spec='apf-spec-v1;clients=4;rounds=2;local_iters=8;batch=32;train_n=512;test_n=128;hidden=512'
APF_PROF_INTERVAL_US=100 timeout 240 "$server" --sim --spec "$prof_spec" \
  --prof-file "$net_dir/sim.folded"
test -s "$net_dir/sim.folded"
cargo run -q --release --offline -p apf-bench --bin trace-report -- \
  flame "$net_dir/sim.folded" \
  --assert-contains local_train --assert-contains aggregate > /dev/null
echo "OK: sim profile contains local_train and aggregate frames"

echo "== profiling: per-process profiles of a networked run merge by run id =="
# One server + three clients, each writing its own folded profile. Every
# process stamps the profile header with the run id from the Welcome
# handshake, so `trace-report flame` must merge all four files into one
# role-prefixed flamegraph (it hard-fails on a run-id mismatch). The
# networked reduce path has no `aggregate` span; assert the client-side
# training frame and the server's always-open `serve` root instead.
prof_net_spec='apf-spec-v1;clients=3;rounds=2;local_iters=8;batch=32;train_n=512;test_n=128;hidden=512'
APF_PROF_INTERVAL_US=100 timeout 240 "$server" --addr 127.0.0.1:0 \
  --addr-file "$net_dir/addr4" --spec "$prof_net_spec" \
  --prof-file "$net_dir/server.folded" &
net_pids=($!)
for id in 0 1 2; do
  APF_PROF_INTERVAL_US=100 timeout 240 "$client" --id "$id" \
    --addr-file "$net_dir/addr4" --prof-file "$net_dir/client$id.folded" &
  net_pids+=($!)
done
for pid in "${net_pids[@]}"; do wait "$pid"; done
cargo run -q --release --offline -p apf-bench --bin trace-report -- \
  flame "$net_dir/server.folded" "$net_dir"/client?.folded \
  --assert-contains local_train --assert-contains serve \
  > "$net_dir/merged.folded"
test -s "$net_dir/merged.folded"
echo "OK: four per-process profiles merged into one flamegraph document"

echo "== zero-alloc disabled profiling on the hot path =="
# With profiling off, every instrumentation site the profiler adds (span
# stack pushes, the global allocator shim, sample_window gating) must be
# one relaxed atomic load away from free: the counting allocator proves
# zero allocations on the disabled path.
alloc_gate apf-prof disabled_alloc

echo "== population simulator: sampled-cohort smoke (100k registered) =="
# The event-driven population runner at 100k registered / 256 sampled:
# zero slab misses once the warm-up round has filled the size classes, a
# bitwise-identical trajectory and global model across reruns at different
# thread counts (cohorts derive from (seed, round), nothing else), and a
# registry that holds compact dormant state for participants only. The
# bitwise C=1.0 parity against FlRunner runs in the workspace suite above
# (apf-fedsim --test population_parity).
cargo run -q --release --offline -p apf-bench --bin population-smoke

echo "== kernel bench regression vs committed baseline =="
# Quick bench-kernels run diffed against BENCH_kernels.json: hard fail on
# >20% regression when host parallelism matches the baseline's, warn-only
# otherwise (absolute kernel numbers are not comparable across machines).
scripts/bench_check.sh

echo "== benchmark harness: output checks (smoke) and self-tests =="
# The BENCHMARK.json harness drives the program through the public API
# surface listed in benchmark/README.md and checks its outputs (staged round
# == FlRunner, replay manager's masks == the strategy's, net log == staged
# sim). Five rounds per workload, checks only — no timing is read here. A
# change that breaks one of those checks, or no longer compiles against the
# harness, fails here instead of in the pipeline. (The harness refuses to
# start with any APF_* variable set; this script exports none.)
bash benchmark/run.sh --smoke > /dev/null
(cd benchmark && cargo test -q --offline)
echo "OK: every workload's output checks pass; harness self-tests pass"

echo "== dependency hermeticity =="
# Every node in the dependency graph must live inside this repository.
external=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
  | grep -v '(/' | grep -v '^\s*$' || true)
if [ -n "$external" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$external" >&2
  exit 1
fi
echo "OK: dependency graph is workspace-local"

echo "verify: all checks passed"
