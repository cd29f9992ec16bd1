//! One session of a workload — set-up, warm-up rounds, timed rounds — run
//! through the program's own round driver, and the end-to-end metrics of a
//! run made of such sessions.

use std::time::Instant;

use apf_fedsim::{peak_resident_bytes, RoundRecord};

use crate::metrics::Report;
use crate::net;
use crate::stats::median;
use crate::workloads::{net_spec, pop_runner, Kind, SimDef, Workload, POP_COHORT};

/// What one session produced.
#[derive(Debug)]
pub struct Session {
    /// Session start to the end of the warm-up rounds.
    pub setup_s: f64,
    /// Wall time (ms) of each timed round; for the net workload, of each
    /// progress window divided by the rounds it spans.
    pub round_ms: Vec<f64>,
    /// The program's per-round log, warm-up included.
    pub records: Vec<RoundRecord>,
    /// The final global model.
    pub global: Vec<f32>,
    /// Clients taking part in each round.
    pub participants: u64,
    /// Clients that pulled the initial model, which the ledger charges on
    /// top of the per-round transfers.
    pub initial_pulls: u64,
    /// What only a session over sockets has.
    pub net: Option<NetFacts>,
    /// Output checks the session itself failed.
    pub failures: Vec<String>,
}

/// The socket side of a net session.
#[derive(Debug)]
pub struct NetFacts {
    /// Bytes the server counted on its sockets, framing included.
    pub wire_bytes: u64,
    /// Clients lost mid-run.
    pub lost_clients: u64,
    /// Set-up up to the server's first transmitted byte.
    pub join_ms: f64,
}

impl Session {
    /// A session that ran in this process, with no sockets.
    pub fn in_process(
        setup_s: f64,
        round_ms: Vec<f64>,
        records: Vec<RoundRecord>,
        global: Vec<f32>,
        participants: u64,
        initial_pulls: u64,
    ) -> Session {
        Session {
            setup_s,
            round_ms,
            records,
            global,
            participants,
            initial_pulls,
            net: None,
            failures: Vec::new(),
        }
    }

    /// Bytes of initial model distribution.
    pub fn init_bytes(&self) -> u64 {
        4 * self.global.len() as u64 * self.initial_pulls
    }

    fn lost_clients(&self) -> u64 {
        self.net.as_ref().map_or(0, |n| n.lost_clients)
    }
}

/// Runs one full session of `w` for `seed` through the program's driver.
///
/// # Errors
/// Returns the reason a session could not finish.
pub fn run(w: &Workload, seed: u64) -> Result<Session, String> {
    match w.kind {
        Kind::Net => run_net(w, seed, &mut |_| {}).map(|(s, _)| s),
        _ => Ok(run_driven(w, seed, w.rounds())),
    }
}

/// Builds `w` and runs only its warm-up rounds: one more sample of the
/// set-up time. Not available for the net workload, whose server runs every
/// round of its spec.
pub fn setup_only(w: &Workload, seed: u64) -> f64 {
    run_driven(w, seed, w.warmup).setup_s
}

/// A session of a workload whose rounds the harness drives one call at a
/// time: `FlRunner::run_round` or `PopulationRunner::run_round`. Runs
/// rounds `0..stop`.
pub fn run_driven(w: &Workload, seed: u64, stop: usize) -> Session {
    let start = Instant::now();
    let mut round_ms = Vec::new();
    let mut drive = |run_round: &mut dyn FnMut(u64)| {
        for r in 0..w.warmup.min(stop) as u64 {
            run_round(r);
        }
        let setup_s = start.elapsed().as_secs_f64();
        for r in w.warmup as u64..stop as u64 {
            let t = Instant::now();
            run_round(r);
            round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        setup_s
    };
    if w.kind == Kind::Pop {
        let mut runner = pop_runner(seed, w.rounds());
        let setup_s = drive(&mut |r| {
            runner.run_round(r);
        });
        Session::in_process(
            setup_s,
            round_ms,
            runner.log().records.clone(),
            runner.global().to_vec(),
            POP_COHORT as u64,
            // Every client pulls the initial model the first time it is
            // sampled.
            runner.registry().len() as u64,
        )
    } else {
        let mut runner = SimDef::new(w.kind, seed, w.rounds()).runner();
        let setup_s = drive(&mut |r| {
            runner.run_round(r);
        });
        let clients = runner.clients().len() as u64;
        Session::in_process(
            setup_s,
            round_ms,
            runner.log().records.clone(),
            runner.global().to_vec(),
            clients,
            clients,
        )
    }
}

/// A session of the net workload; also returns the raw session for the
/// traced run's spans.
///
/// # Errors
/// Returns the reason the session could not finish.
pub fn run_net(
    w: &Workload,
    seed: u64,
    on_window: &mut dyn FnMut(usize),
) -> Result<(Session, net::NetSession), String> {
    let spec = net_spec(seed, w.rounds());
    let mut raw = net::run_session(&spec, w.warmup, w.net_window, on_window)?;
    let mut failures = Vec::new();
    let client_wire: u64 = raw.clients.iter().map(|c| c.1).sum();
    if client_wire != raw.outcome.wire_bytes {
        failures.push(format!(
            "clients counted {client_wire} wire bytes, the server {}",
            raw.outcome.wire_bytes
        ));
    }
    if raw.clients.iter().any(|c| c.0 != spec.rounds as u64) {
        failures.push(format!("a client stopped early: {:?}", raw.clients));
    }
    let session = Session {
        net: Some(NetFacts {
            wire_bytes: raw.outcome.wire_bytes,
            lost_clients: raw.outcome.lost_clients.len() as u64,
            join_ms: raw.join_ms,
        }),
        failures,
        ..Session::in_process(
            raw.setup_s,
            raw.window_ms.clone(),
            raw.outcome.log.records.clone(),
            std::mem::take(&mut raw.outcome.global),
            spec.clients as u64,
            spec.clients as u64,
        )
    };
    Ok((session, raw))
}

fn ledger_bytes(records: &[RoundRecord]) -> u64 {
    records.iter().map(|r| r.bytes_up + r.bytes_down).sum()
}

/// Whether two sessions of the same seed produced the same bits.
pub fn same_outputs(a: &Session, b: &Session) -> bool {
    let bits = |r: &RoundRecord| {
        (
            r.loss.to_bits(),
            r.frozen_ratio.to_bits(),
            r.accuracy.map(f32::to_bits),
            r.bytes_up,
            r.bytes_down,
            r.cum_bytes,
        )
    };
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| bits(x) == bits(y))
        && a.global.len() == b.global.len()
        && a.global
            .iter()
            .zip(&b.global)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one session's outputs into `report` and counts its operations.
pub fn check(w: &Workload, s: &Session, report: &mut Report) {
    let rounds = w.rounds() as u64;
    report.attempted += rounds * s.participants;
    let finished = s.records.len() as u64;
    let bad_loss = s.records.iter().filter(|r| !r.loss.is_finite()).count() as u64;
    report.failed += (rounds.saturating_sub(finished) + bad_loss) * s.participants
        + s.lost_clients() * rounds.min(finished);
    report.check(finished == rounds, || {
        format!("{finished} of {rounds} rounds finished")
    });
    report.check(bad_loss == 0, || {
        format!("{bad_loss} rounds with a non-finite loss")
    });
    report.check(s.lost_clients() == 0, || {
        format!("{} clients lost", s.lost_clients())
    });
    let cum = s.records.last().map_or(0, |r| r.cum_bytes);
    let want = s.init_bytes() + ledger_bytes(&s.records);
    report.check(cum == want, || {
        format!("cum_bytes {cum} != initial broadcast + round bytes {want}")
    });
    // Loss and accuracy vary too much across seeds to be gated as metrics;
    // what every seed must show is that training made progress.
    let (first, last) = (
        s.records.first().map_or(0.0, |r| f64::from(r.loss)),
        final_loss(&s.records),
    );
    report.check(finished < 10 || last < 0.5 * first, || {
        format!(
            "training made no progress: loss {first} at round 0, {last} over the last 10 rounds"
        )
    });
    for f in &s.failures {
        report.check(false, || f.clone());
    }
}

/// Best test accuracy in a log, percent.
pub fn best_accuracy_pct(records: &[RoundRecord]) -> f64 {
    let best = records
        .iter()
        .filter_map(|r| r.accuracy)
        .fold(0.0f32, f32::max);
    100.0 * f64::from(best)
}

/// Mean training loss of the last 10 rounds of a log.
pub fn final_loss(records: &[RoundRecord]) -> f64 {
    let tail = &records[records.len().saturating_sub(10)..];
    tail.iter().map(|r| f64::from(r.loss)).sum::<f64>() / tail.len().max(1) as f64
}

/// The quality and byte metrics of one session (they repeat exactly in
/// every session of a seed).
fn record_outputs(s: &Session, report: &mut Report) {
    let rounds = s.records.len().max(1) as f64;
    let ledger = ledger_bytes(&s.records) as f64;
    let fedavg = rounds * s.participants as f64 * 2.0 * 4.0 * s.global.len() as f64;
    report.set(
        "wire_bytes_per_round",
        s.net.as_ref().map_or(ledger, |n| n.wire_bytes as f64) / rounds,
    );
    report.set("bytes_vs_fedavg_pct", 100.0 * ledger / fedavg);
}

/// The fastest execution of each timed round across the sessions of a run.
/// Every session executes the same rounds on the same inputs, and on a
/// shared host other tenants only ever slow an execution down, so the
/// fastest of a round's executions is the best estimate of what the code
/// itself costs there. (For the net workload the index is the progress
/// window; sessions may differ by a window at the end.)
fn fastest_per_index(sessions: &[Session]) -> Vec<f64> {
    let n = sessions.iter().map(|s| s.round_ms.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            sessions
                .iter()
                .filter_map(|s| s.round_ms.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Set-up samples wanted per run, so that `setup_s` is a median.
const SETUP_SAMPLES: usize = 5;
/// Sessions a run makes at least, however slow the host: the fastest of two
/// executions of a round is the least `round_ms_p50` can be made of.
const MIN_SESSIONS: usize = 2;
/// A net session cannot be cut to its set-up, so its set-up median needs
/// three whole sessions.
const MIN_NET_SESSIONS: usize = 3;

/// The untraced run: whole sessions until `seconds` are used up, then the
/// end-to-end metrics.
///
/// # Errors
/// Returns the reason a session could not finish.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Report, String> {
    let started = Instant::now();
    let mut report = Report::default();
    let mut sessions: Vec<Session> = Vec::new();
    let min_sessions = match w.kind {
        _ if smoke => 1,
        Kind::Net => MIN_NET_SESSIONS,
        _ => MIN_SESSIONS,
    };
    let mut peak_rss = None;
    loop {
        let t = Instant::now();
        let s = run(w, seed)?;
        let took = t.elapsed().as_secs_f64();
        check(w, &s, &mut report);
        if let Some(first) = sessions.first() {
            report.check(same_outputs(first, &s), || {
                format!(
                    "session {} differs from session 0 of the same seed",
                    sessions.len()
                )
            });
        }
        sessions.push(s);
        // Read after the first session: later sessions repeat its
        // allocations, and how many of them fit varies with the host.
        peak_rss = peak_rss.or_else(peak_resident_bytes);
        let fits = started.elapsed().as_secs_f64() + took <= seconds;
        if sessions.len() >= min_sessions && (smoke || !fits) {
            break;
        }
    }
    let mut setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    if w.kind != Kind::Net && !smoke {
        while setups.len() < SETUP_SAMPLES {
            setups.push(setup_only(w, seed));
        }
    }
    let rounds = fastest_per_index(&sessions);
    report.check(!rounds.is_empty(), || "no round was timed".to_owned());
    report.set("setup_s", median(&setups));
    report.set(
        "round_ms_p50",
        if rounds.is_empty() {
            0.0
        } else {
            median(&rounds)
        },
    );
    record_outputs(&sessions[0], &mut report);
    report.set("peak_rss_mb", peak_rss.map_or(0.0, |b| b as f64 / 1e6));
    Ok(report)
}
