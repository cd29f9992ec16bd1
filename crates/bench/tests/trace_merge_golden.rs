//! Golden distributed-trace test: run the in-process parity harness (one
//! server + 3 client threads over real TCP) with debug tracing into a
//! shared `MemorySink`, then merge the records and demand the result is
//! complete — every client round span pairs with a server reduce span,
//! every wire-carried span link resolves, clocks align, the books balance.
//!
//! One `#[test]` only: the trace level and sink are process-global, so a
//! second traced scenario in this binary would interleave runs.

use std::sync::Arc;

use apf_bench::trace_merge::{median_coverage, MergedTrace};
use apf_bench::trace_model::{group_processes, TraceFile};
use apf_fedsim::{LedgerRecord, RunSpec};
use apf_net::{run_client, ClientOpts, NetServer, ServerOpts};
use apf_trace::sink::MemorySink;
use apf_trace::{Level, Role};

#[test]
fn golden_networked_run_merges_into_a_complete_trace() {
    let sink = Arc::new(MemorySink::new());
    apf_trace::init(Level::Debug, sink.clone());

    let spec = RunSpec::golden();
    let server = NetServer::bind(ServerOpts {
        spec: spec.clone(),
        ..ServerOpts::default()
    })
    .expect("bind");
    let addr = server.addr();
    let handles: Vec<_> = (0..spec.clients as u32)
        .map(|id| std::thread::spawn(move || run_client(&ClientOpts::new(addr, id))))
        .collect();
    let outcome = server.serve().expect("server run");
    for h in handles {
        h.join().unwrap().expect("client run");
    }
    assert!(outcome.lost_clients.is_empty());

    // All four roles traced into one stream; grouping is purely by the
    // per-record context stamps.
    let text = sink.lines().join("\n");
    let file = TraceFile::parse("memory", &text);
    assert_eq!(file.skipped, 0, "every traced record parses");
    assert_eq!(file.headers.len(), 1 + spec.clients, "one header per role");
    let procs = group_processes(&[file]).expect("grouping");
    assert_eq!(procs.len(), 1 + spec.clients);
    assert_eq!(procs[0].header.role, Role::Server);
    assert_eq!(procs[0].header.spec, spec.canonical());

    let merged = MergedTrace::build(procs).expect("merge");
    // Same process, same trace epoch: Welcome anchors must agree to well
    // under the io timeout (loopback delivery plus scheduling noise).
    for off in &merged.offsets_us {
        assert!(off.unsigned_abs() < 1_000_000, "implausible offset {off}");
    }

    // Tentpole guarantee: the merged span tree is complete — no orphan
    // contexts, no unmatched rounds.
    let problems = merged.completeness_problems();
    assert!(problems.is_empty(), "incomplete span tree: {problems:#?}");

    let slices = merged.timeline();
    assert_eq!(
        slices.len(),
        spec.rounds * spec.clients,
        "one slice per (round, client)"
    );
    for s in &slices {
        assert!(
            s.wall_us > 0,
            "round {} client {} has no wall time",
            s.round,
            s.client
        );
        assert!(
            s.attributed_us() <= s.wall_us + 5,
            "round {} client {}: attributed {} us exceeds wall {} us",
            s.round,
            s.client,
            s.attributed_us(),
            s.wall_us
        );
    }
    // In-process rounds are tiny, so per-span µs truncation bites harder
    // than it ever can in a real deployment; 80% is already a tight bound
    // here (verify.sh holds the real topology's median slice to 95%).
    let worst = slices
        .iter()
        .map(|s| s.coverage())
        .fold(f64::INFINITY, f64::min);
    let median = median_coverage(&slices);
    assert!(
        median > 0.80,
        "median round coverage {median:.3} (worst {worst:.3})"
    );

    // The traced byte flow reconciles exactly with a ledger record of the
    // very run we just traced, which carries the spec's digest.
    let ledger = [LedgerRecord::from_log(
        &outcome.log,
        "m",
        &spec.strategy_name(),
        0.0,
    )];
    assert_eq!(
        ledger[0].config_digest,
        format!("{:016x}", spec.config_digest())
    );
    let rep = merged.reconcile(&ledger);
    assert!(
        rep.problems.is_empty(),
        "byte accounting mismatches: {:#?}",
        rep.problems
    );
    assert_eq!(rep.rounds as usize, spec.rounds);
    assert_eq!(rep.traced_total, outcome.log.total_bytes());
    assert_eq!(rep.ledger_total, outcome.log.total_bytes());
}
