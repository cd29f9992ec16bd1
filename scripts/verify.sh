#!/usr/bin/env bash
# Tier-1 verification gate for the APF reproduction workspace.
#
# The workspace is hermetic: it must build, test, and bench with zero
# registry dependencies, fully offline. This script is the check CI (and
# humans) run before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d -t apf_verify.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
server=target/release/apf-server
client=target/release/apf-client

# bench_bin <name> <args…>: one of apf-bench's release binaries.
bench_bin() {
  cargo run -q --release --offline -p apf-bench --bin "$1" -- "${@:2}"
}

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

# fleet <secs> <addr-file> <server args…> -- <per-client args…> [-- <client 2 only…>]
# One apf-server on an ephemeral localhost port (handed off through the addr
# file) plus apf-clients 0, 1 and 2, waiting for all four. Each runs under a
# hard timeout of <secs> so a protocol hang fails the gate instead of
# wedging CI. "{id}" in a per-client argument is the client's id.
fleet() {
  local t=$1 addr_file=$2 id pid pids server_args=() client_args=() extra
  shift 2
  while [ $# -gt 0 ] && [ "$1" != -- ]; do server_args+=("$1"); shift; done
  shift || true
  while [ $# -gt 0 ] && [ "$1" != -- ]; do client_args+=("$1"); shift; done
  shift || true
  timeout "$t" "$server" --addr 127.0.0.1:0 --addr-file "$addr_file" "${server_args[@]}" &
  pids=($!)
  for id in 0 1 2; do
    if [ "$id" -lt 2 ]; then extra=(); else extra=("$@"); fi
    timeout "$t" "$client" --id "$id" --addr-file "$addr_file" \
      "${client_args[@]//\{id\}/$id}" "${extra[@]}" &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do wait "$pid"; done
}

# same_as_sim <trajectory> <what>: byte for byte the simulator baseline's
# rounds (`#` comments are exempt: a networked run carries `# wire_bytes=`).
same_as_sim() {
  diff <(grep -v '^#' "$tmp/sim.traj") <(grep -v '^#' "$1") && return
  echo "$2 diverges from the simulator baseline" >&2
  exit 1
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
# ad-hoc prints. Binaries (src/bin/), benches, examples, tests/ and comment
# lines are exempt; #[cfg(test)] modules inside lib files are not.
offenders=$(grep -rn --include='*.rs' -E '\b(println!|eprintln!)\(' crates/*/src \
  | grep -v '/src/bin/' \
  | grep -vE ':[0-9]+:\s*(//|//!|///)' || true)
if [ -n "$offenders" ]; then
  echo "println!/eprintln! found in library code (use apf-trace events or an injected writer):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "OK: no stray prints in library code"

echo "== one of each =="
# One mask type, one RNG, one JSON writer: no public signature takes or
# returns a bool-per-scalar mask (FreezeMask is the mask), and the SplitMix64
# step and the JSON string escaper are each defined in exactly one file.
offenders=$(grep -rnE 'pub fn .*(\[bool\]|Vec<bool>)' crates/*/src || true)
if [ -n "$offenders" ]; then
  echo "bool-per-scalar mask in a public signature (use apf::FreezeMask):" >&2
  echo "$offenders" >&2
  exit 1
fi
for def in 'fn splitmix64' 'fn (write_str|push_json_str|write_escaped)'; do
  files=$(grep -rlE "$def\(" crates/*/src || true)
  if [ "$(echo "$files" | grep -c .)" -ne 1 ]; then
    echo "'$def' must be defined in exactly one file under crates/*/src, found:" >&2
    echo "$files" >&2
    exit 1
  fi
done
# One freeze granularity: the mask is per scalar (§3.2.2). Filter-granular
# coarsening, its run-length byte charge, and the TopK / LayerFreeze / DP /
# VGG / Dropout extras that no figure, golden or workload ran stay deleted;
# a structured mask comes back with a workload that shows it winning.
offenders=$(grep -rnE 'FreezeGranularity|rle_transfer_bytes|unfrozen_run_count|fn coarsen|with_filter_granularity|struct Dropout|fn vgg|TopK|LayerFreeze|DpGaussian' crates || true)
if [ -n "$offenders" ]; then
  echo "a second freeze granularity or a deleted extra under crates/ (freeze per scalar):" >&2
  echo "$offenders" >&2
  exit 1
fi
# One copy of the round's mask: the manager's resident one. The simulator
# keeps no second cache, and the manager derives a mask from scratch in one
# private function only.
offenders=$(grep -rn round_mask crates/fedsim/src || true)
if [ -n "$offenders" ]; then
  echo "a second round-mask cache in apf-fedsim (borrow ApfManager::mask):" >&2
  echo "$offenders" >&2
  exit 1
fi
builders=$(grep -c 'FreezeMask::from_fn(self\.n' crates/core/src/manager.rs || true)
if [ "$builders" -ne 1 ] || ! grep -q '^    fn build_mask(&self' crates/core/src/manager.rs; then
  echo "crates/core/src/manager.rs must build masks in one private fn build_mask," >&2
  echo "found $builders 'FreezeMask::from_fn(self.n' call(s)" >&2
  exit 1
fi
# One mixed-word path in the masked kernels (active lanes, not bit runs), and
# one sweep in the stability check (no run walk over the mask).
offenders=$(grep -rn for_each_one_run crates/tensor/src || true)
if [ -n "$offenders" ]; then
  echo "a second mixed-word path in crates/tensor/src (a mixed word visits its active lanes):" >&2
  echo "$offenders" >&2
  exit 1
fi
walks=$(grep -c iter_unfrozen_runs crates/core/src/manager.rs || true)
if [ "$walks" -ne 0 ]; then
  echo "crates/core/src/manager.rs walks iter_unfrozen_runs $walks time(s): stability_check is one sweep per mask word" >&2
  exit 1
fi
# A convolution is a direct kernel or the im2col + matmul oracle: the fused
# im2col-GEMM tier that sat between them stays deleted.
offenders=$(grep -nE 'ColsGeom|pack_cols|gemm_packed' crates/tensor/src/conv.rs || true)
if [ -n "$offenders" ]; then
  echo "a third convolution path in crates/tensor/src/conv.rs (direct or oracle only):" >&2
  echo "$offenders" >&2
  exit 1
fi
# One weight-gradient entry point in the layers: a linear product's weight
# gradient is `matmul_tn_add` into the gradient arena, never a `matmul_tn`
# temporary followed by an `axpy`.
offenders=$(grep -nwE 'matmul_tn|matmul_tn_slices' crates/nn/src/layers/linear.rs crates/nn/src/layers/lstm.rs || true)
if [ -n "$offenders" ]; then
  echo "a weight gradient through a temporary in the layers (accumulate with apf_tensor::matmul_tn_add):" >&2
  echo "$offenders" >&2
  exit 1
fi
# One run description: RunSpec is the only struct that describes a run, and
# its canonical string is the only input of the ledger digest.
offenders=$(grep -rnE 'config_canonical|population_canonical' crates || true)
specs=$(grep -rnE 'struct RunSpec\b' crates || true)
if [ -n "$offenders" ] || [ "$(echo "$specs" | grep -c .)" -ne 1 ]; then
  echo "a second run description under crates/ (describe the run with apf_fedsim::RunSpec):" >&2
  echo "$offenders" >&2
  echo "$specs" >&2
  exit 1
fi
# Every binary has a named user: this script or a README recipe.
for path in crates/*/src/bin/*; do
  name=$(basename "$path" .rs | tr _ -)
  if ! grep -qE -- "(^|[^a-z-])$name([^a-z-]|\$)" scripts/verify.sh README.md; then
    echo "$path: binary '$name' is named by neither scripts/verify.sh nor README.md" >&2
    exit 1
  fi
done
# Every APF_* variable is read in one function of non-test code (parse it
# there; everyone else calls that function).
reads=$(for f in $(find crates/*/src -name '*.rs'); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    {
      line = $0
      while (match(line, /(env::var|var_os)\([ \t]*"APF_[A-Z_0-9]+"/)) {
        lit = substr(line, RSTART, RLENGTH)
        gsub(/^[^"]*"|"$/, "", lit)
        print lit, f "::" fn
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$f"
done | sort -u)
dupes=$(echo "$reads" | awk '{ n[$1]++; at[$1] = at[$1] " " $2 } END { for (v in n) if (n[v] > 1) print v ":" at[v] }')
if [ -n "$dupes" ]; then
  echo "an APF_* variable is read in more than one function:" >&2
  echo "$dupes" >&2
  exit 1
fi
# Every pub item of library code (before the file's #[cfg(test)], outside
# src/bin) has a caller: another file under crates/, src/, tests/, examples/
# or benchmark/src names it, or it is kept here with the reason it must be
# pub although nothing names it.
keep='
crates/bench/src/harness.rs Measurement BenchGroup::bench and results return it
crates/bench/src/motivation.rs LocalTrace train_local_traced returns it
crates/bench/src/prof_merge.rs MergedProfile merge returns it
crates/bench/src/trace_merge.rs ReconcileReport MergedTrace::reconcile returns it
crates/bench/src/trace_merge.rs RoundSlice MergedTrace::timeline returns it
crates/nn/src/models.rs ModelError by_name returns it
crates/prof/src/lib.rs AllocSite the element type of Profile::allocs
crates/prof/src/lib.rs Profile stop, finish and sample_window return it
crates/trace/src/lib.rs SpanGate the exported span! macro reaches it through $crate::
crates/trace/src/lib.rs span_gate the exported span! macro reaches it through $crate::
crates/trace/src/metrics.rs HistogramSnapshot the element type of Snapshot::histograms
crates/trace/src/stack.rs ThreadStack stacks returns it
'
pub_items=$(for f in $(find crates/*/src -name '*.rs' -not -path '*/src/bin/*'); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    match($0, /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/) {
      n = split(substr($0, RSTART, RLENGTH), w, " ")
      print f, w[n]
    }' "$f"
done)
unnamed=$( {
  echo "$keep" | awk 'NF { print "K", $1, $2 }'
  grep -rowE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src \
    | sort -u | awk -F: '{ print "W", $1, $2 }'
  echo "$pub_items" | awk '{ print "P", $1, $2 }'
} | awk '
  $1 == "K" { kept[$2, $3] = 1 }
  $1 == "W" { files[$3]++; has[$2, $3] = 1 }
  $1 == "P" && !(($2, $3) in kept) && files[$3] - has[$2, $3] == 0 { print $2 ": pub " $3 }')
if [ -n "$unnamed" ]; then
  echo "pub items no other file names (make them private, delete them, or keep them above with a reason):" >&2
  echo "$unnamed" >&2
  exit 1
fi
# One parameter arena per model: the training step, a client's local round
# and both runners' rounds (the absorb loop, the batch reduce) work on the
# model's arena in place or move it, with no model-sized copy; no layer keeps
# parameters of its own behind a traversal.
copies=$(
  {
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/nn/src/train.rs
    for fn_file in local_round:crates/fedsim/src/client.rs run_round:crates/fedsim/src/population.rs \
      run_round:crates/fedsim/src/runner.rs; do
      awk -v fn="${fn_file%%:*}" '
        $0 ~ "^    pub fn " fn "\\(" { on = 1 }
        on { print FILENAME ":" FNR ": " $0 }
        on && /^    }$/ { exit }' "${fn_file#*:}"
    done
  } | grep -wE 'flat_params|flat_grads|load_flat' || true
  grep -rn 'fn visit_params' crates src tests examples || true
)
if [ -n "$copies" ]; then
  echo "a model-sized copy in the training path, or a per-layer parameter traversal (work on Sequential's arena):" >&2
  echo "$copies" >&2
  exit 1
fi
echo "OK: one run description, one mask type, one freeze granularity, one splitmix64, one JSON string escaper, one mask builder,"
echo "    one mixed-word path, one stability sweep, two convolution paths, one weight-gradient entry point, one parameter arena per model, every binary named, $(echo "$reads" | grep -c .) APF_* variables read once each,"
echo "    $(echo "$pub_items" | grep -c .) pub items each named by another file or kept for a stated reason ($(echo "$keep" | grep -c .) kept)"

echo "== live telemetry smoke (obs server + ledger regression gate) =="
# Two identical 2-round runs with the HTTP server on an ephemeral port:
# obs-smoke scrapes /healthz, /metrics (validated by the in-repo Prometheus
# parser), /snapshot, and /series in-process, and appends each run to a
# throwaway ledger; the second run must then pass `ledger-report check`
# (identical re-runs are within tolerance by construction).
for i in 1 2; do
  APF_LEDGER_FILE="$tmp/smoke.jsonl" bench_bin obs-smoke
done
bench_bin ledger-report check --ledger "$tmp/smoke.jsonl"
echo "OK: telemetry endpoints healthy, identical re-run passes the gate"

echo "== networked mode: multi-process bitwise parity vs simulator =="
# One apf-server process plus three apf-client processes over localhost TCP
# must reproduce the in-process simulator's golden trajectory byte for byte —
# same loss, frozen-ratio, accuracy, and byte-count bit patterns every round.
# (The in-process variant plus the wire-format property tests already ran
# above under both APF_PAR_THREADS=1 and =4 as part of the workspace suite.)
timeout 120 "$server" --sim --trajectory-out "$tmp/sim.traj" --ledger "$tmp/ledger.jsonl"
fleet 120 "$tmp/addr" --trajectory-out "$tmp/net.traj" --ledger "$tmp/ledger.jsonl"
same_as_sim "$tmp/net.traj" "networked run"
echo "OK: networked trajectory is bitwise identical to the simulator"
bench_bin ledger-report diff 0 1 --ledger "$tmp/ledger.jsonl"

echo "== networked mode: distributed tracing (merge, timeline, reconcile) =="
# A second networked run, traced end to end: the server and all three clients
# each write a JSONL trace (--trace-file at debug level). The traced run must
# STILL match the simulator baseline byte for byte (tracing may not perturb the
# arithmetic or the wire accounting), the merged span tree must be complete,
# no round-slice may attribute more than its wall time, the median round-slice
# must attribute >=95% of its wall time to compute/transfer/server-wait (the
# worst is printed, not gated: one descheduled process stretches one slice),
# and the traced bytes must reconcile exactly with the run ledger.
fleet 120 "$tmp/addr3" --trajectory-out "$tmp/traced.traj" --ledger "$tmp/ledger.jsonl" \
  --trace-file "$tmp/server.trace.jsonl" -- --trace-file "$tmp/client{id}.trace.jsonl"
same_as_sim "$tmp/traced.traj" "traced networked run"
bench_bin trace-report timeline "$tmp/server.trace.jsonl" "$tmp"/client?.trace.jsonl \
  --min-coverage 95
bench_bin trace-report reconcile "$tmp/server.trace.jsonl" "$tmp"/client?.trace.jsonl \
  --ledger "$tmp/ledger.jsonl"
echo "OK: traced run stays bitwise clean; timeline and ledger reconcile"

echo "== networked mode: client killed mid-round degrades gracefully =="
# Client 2 crashes right before its round-2 push; the server must still
# finish every round with the survivors and write a complete trajectory.
fleet 120 "$tmp/addr2" --trajectory-out "$tmp/fault.traj" -- -- --fail-before-push 2
sim_rounds=$(grep -cv '^#\|^apf-trajectory' "$tmp/sim.traj")
fault_rounds=$(grep -cv '^#\|^apf-trajectory' "$tmp/fault.traj")
if [ "$fault_rounds" -ne "$sim_rounds" ]; then
  echo "faulted run recorded $fault_rounds rounds, expected $sim_rounds" >&2
  exit 1
fi
echo "OK: server completed all $fault_rounds rounds despite a mid-round client loss"

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
  --prof-file "$tmp/sim.folded"
test -s "$tmp/sim.folded"
bench_bin trace-report flame "$tmp/sim.folded" \
  --assert-contains local_train --assert-contains aggregate > /dev/null
echo "OK: sim profile contains local_train and aggregate frames"

echo "== profiling: per-process profiles of a networked run merge by run id =="
# One server + three clients, each writing its own folded profile. Every
# process stamps the profile header with the run id from the Welcome
# handshake, so `trace-report flame` must merge all four files into one
# role-prefixed flamegraph (it hard-fails on a run-id mismatch). The
# networked reduce path has no `aggregate` span; assert the client-side
# training frame and the server's always-open `serve` root instead.
APF_PROF_INTERVAL_US=100 fleet 240 "$tmp/addr4" \
  --spec "${prof_spec/clients=4/clients=3}" --prof-file "$tmp/server.folded" \
  -- --prof-file "$tmp/client{id}.folded"
bench_bin trace-report flame "$tmp/server.folded" "$tmp"/client?.folded \
  --assert-contains local_train --assert-contains serve > "$tmp/merged.folded"
test -s "$tmp/merged.folded"
echo "OK: four per-process profiles merged into one flamegraph document"

echo "== zero-alloc disabled profiling on the hot path =="
# With profiling off, every instrumentation site the profiler adds (span
# stack pushes, the global allocator shim, sample_window gating) must be
# one relaxed atomic load away from free: the counting allocator proves
# zero allocations on the disabled path.
alloc_gate apf-prof disabled_alloc

echo "== population simulator: sampled-cohort smoke (100k and 1M registered) =="
# The event-driven population runner at 256 sampled of 100k and of 1M
# registered: zero slab misses after the warm-up round, steady resident bytes
# that do not grow with the registered population, a bitwise-identical
# trajectory and global model across thread counts, a registry of participants
# only. The bitwise C=1.0 parity against FlRunner ran in the workspace suite
# above (apf-fedsim --test population_parity).
bench_bin population-smoke

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
