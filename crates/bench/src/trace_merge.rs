//! Merging per-process traces of one distributed run: clock alignment,
//! round critical-path attribution, span-tree completeness, and byte
//! reconciliation against the run ledger.
//!
//! Clock model: each process's `ts_us` counts from its own trace epoch, so
//! raw timestamps are not comparable. The Welcome handshake gives one
//! anchor per client — the server's `welcome_sent` event and the client's
//! `welcome_recv` event bracket a single localhost frame delivery, so their
//! difference is (client epoch − server epoch) up to negligible transfer
//! time. Everything a client reports is shifted by that offset onto the
//! server's clock.
//!
//! Attribution model (per client, per round): the client's `round` span is
//! the wall time; its `local_train` + `apply` children are **compute**, the
//! `push` child plus the downlink share of `pull_wait` are **transfer**,
//! and the remainder of `pull_wait` is **server-wait** (the server is still
//! collecting other clients' pushes or reducing). The downlink share is the
//! server's matching `pull_write` span, clamped to the wait it landed in.

use apf_fedsim::{LedgerRecord, RunSpec};
use apf_trace::Role;

use crate::trace_model::{EventRec, ProcessTrace, SpanRec};

// Public because `MergedTrace::timeline` returns it.
/// How one client spent one round, on the server's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSlice {
    /// Round index.
    pub round: u64,
    /// Client slot.
    pub client: u32,
    /// Round start, µs on the server's clock.
    pub start_us: i64,
    /// Full round wall time (the client `round` span).
    pub wall_us: u64,
    /// Local training + applying the aggregate.
    pub compute_us: u64,
    /// Uplink push + downlink share of the pull.
    pub transfer_us: u64,
    /// Blocked on the server (other clients' pushes + reduce).
    pub server_wait_us: u64,
}

impl RoundSlice {
    /// Wall time the three phases explain, µs.
    pub fn attributed_us(&self) -> u64 {
        self.compute_us + self.transfer_us + self.server_wait_us
    }

    /// Fraction of the round's wall time the three phases explain.
    pub fn coverage(&self) -> f64 {
        self.attributed_us() as f64 / self.wall_us.max(1) as f64
    }
}

/// The lower median of the slices' coverages (0 for no slices). A coverage
/// gate reads this rather than the worst slice: one descheduled thread
/// stretches a single slice's wall time without the program doing anything
/// different.
pub fn median_coverage(slices: &[RoundSlice]) -> f64 {
    let mut cov: Vec<f64> = slices.iter().map(RoundSlice::coverage).collect();
    cov.sort_by(f64::total_cmp);
    cov.get(cov.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// One run's merged traces: the server plus every client, clock-aligned.
#[derive(Debug)]
pub struct MergedTrace {
    /// The shared run id (16 hex digits).
    pub run: String,
    /// The server's records.
    pub server: ProcessTrace,
    /// Client records, ascending slot order.
    pub clients: Vec<ProcessTrace>,
    /// Per-client clock offset: server epoch µs − client epoch µs, added to
    /// a client timestamp to land it on the server's clock.
    pub offsets_us: Vec<i64>,
}

fn find_event<'a>(
    p: &'a ProcessTrace,
    target: &str,
    msg: &str,
    pred: impl Fn(&EventRec) -> bool,
) -> Option<&'a EventRec> {
    p.events
        .iter()
        .find(|e| e.target == target && e.msg == msg && pred(e))
}

fn client_slot(p: &ProcessTrace) -> Option<u32> {
    match p.header.role {
        Role::Client(k) => Some(k),
        _ => None,
    }
}

impl MergedTrace {
    /// Builds the merged view from grouped per-process records (the output
    /// of [`crate::trace_model::group_processes`]).
    ///
    /// # Errors
    /// Describes a missing server/clients or missing Welcome anchors.
    pub fn build(procs: Vec<ProcessTrace>) -> Result<MergedTrace, String> {
        let mut server = None;
        let mut clients = Vec::new();
        for p in procs {
            match p.header.role {
                Role::Server if server.is_some() => return Err("two server traces".to_owned()),
                Role::Server => server = Some(p),
                Role::Client(_) => clients.push(p),
                Role::Unset => return Err("process with no role survived grouping".to_owned()),
            }
        }
        let server = server.ok_or("no server trace among the inputs")?;
        if clients.is_empty() {
            return Err("no client traces among the inputs".to_owned());
        }
        clients.sort_by_key(|p| client_slot(p).unwrap_or(u32::MAX));
        let mut offsets_us = Vec::with_capacity(clients.len());
        for c in &clients {
            let k = client_slot(c).expect("role checked above");
            let sent = find_event(&server, "net.server", "welcome_sent", |e| {
                e.u64_field("client") == Some(u64::from(k))
            })
            .ok_or_else(|| format!("server trace has no welcome_sent for client {k}"))?;
            let recv = find_event(c, "net.client", "welcome_recv", |_| true)
                .ok_or_else(|| format!("client {k} trace has no welcome_recv anchor"))?;
            offsets_us.push(sent.ts_us as i64 - recv.ts_us as i64);
        }
        let run = server.header.run.clone();
        Ok(MergedTrace {
            run,
            server,
            clients,
            offsets_us,
        })
    }

    fn server_span(&self, name: &str, round: u64, client: Option<u64>) -> Option<&SpanRec> {
        self.server.spans.iter().find(|s| {
            s.target == "net.server"
                && s.name == name
                && s.u64_field("round") == Some(round)
                && client.is_none_or(|c| s.u64_field("client") == Some(c))
        })
    }

    /// Per-client, per-round attribution, ordered by (round, client).
    ///
    /// Rounds are read from each client's `round` spans; a client missing a
    /// phase span (e.g. traced above debug level) contributes zeros there
    /// and its coverage shows it.
    pub fn timeline(&self) -> Vec<RoundSlice> {
        let mut out = Vec::new();
        for (ci, c) in self.clients.iter().enumerate() {
            let k = client_slot(c).expect("validated in build");
            for rs in c
                .spans
                .iter()
                .filter(|s| s.target == "net.client" && s.name == "round")
            {
                let Some(round) = rs.u64_field("round") else {
                    continue;
                };
                let child = |name: &str| -> u64 {
                    c.spans
                        .iter()
                        .find(|s| s.parent == rs.id && s.name == name && s.target == "net.client")
                        .map_or(0, |s| s.dur_us)
                };
                let pull_wait = child("pull_wait");
                let down = self
                    .server_span("pull_write", round, Some(u64::from(k)))
                    .map_or(0, |s| s.dur_us)
                    .min(pull_wait);
                out.push(RoundSlice {
                    round,
                    client: k,
                    start_us: rs.start_us as i64 + self.offsets_us[ci],
                    wall_us: rs.dur_us,
                    compute_us: child("local_train") + child("apply"),
                    transfer_us: child("push") + down,
                    server_wait_us: pull_wait - down,
                });
            }
        }
        out.sort_by_key(|s| (s.round, s.client));
        out
    }

    /// Structural integrity of the merged span tree. Empty = complete:
    /// every client round span has the matching server-side `reduce` span,
    /// every wire-carried span link resolves to the span that sent it, and
    /// no record references a foreign run.
    pub fn completeness_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for c in &self.clients {
            let k = client_slot(c).expect("validated in build");
            for rs in c
                .spans
                .iter()
                .filter(|s| s.target == "net.client" && s.name == "round")
            {
                let Some(round) = rs.u64_field("round") else {
                    problems.push(format!(
                        "client {k}: round span {} has no round field",
                        rs.id
                    ));
                    continue;
                };
                if self.server_span("reduce", round, None).is_none() {
                    problems.push(format!(
                        "client {k} round {round}: no matching server reduce span"
                    ));
                }
                // The Push frame carried this round span's id; the server
                // recorded it on its push_read span as `peer_span`.
                if let Some(pr) = self.server_span("push_read", round, Some(u64::from(k))) {
                    match pr.u64_field("peer_span") {
                        Some(peer) if peer == rs.id => {}
                        Some(peer) => problems.push(format!(
                            "round {round} client {k}: server push_read links span {peer}, \
                             client round span is {}",
                            rs.id
                        )),
                        None => problems.push(format!(
                            "round {round} client {k}: server push_read has no peer_span \
                             (orphan context)"
                        )),
                    }
                } else {
                    problems.push(format!(
                        "round {round} client {k}: no server push_read span"
                    ));
                }
                // The Pull frame carried the server round span's id; the
                // client recorded it on pull_wait.
                if let (Some(pw), Some(srv_round)) = (
                    c.spans
                        .iter()
                        .find(|s| s.parent == rs.id && s.name == "pull_wait"),
                    self.server_span("round", round, None),
                ) {
                    match pw.u64_field("peer_span") {
                        Some(peer) if peer == srv_round.id => {}
                        Some(peer) => problems.push(format!(
                            "round {round} client {k}: pull_wait links span {peer}, \
                             server round span is {}",
                            srv_round.id
                        )),
                        None => problems.push(format!(
                            "round {round} client {k}: pull_wait has no peer_span \
                             (orphan context)"
                        )),
                    }
                }
            }
        }
        problems
    }

    /// Checks the traced byte flow against itself and the run ledger.
    ///
    /// Three layers must agree exactly: the per-client `transfer` events
    /// (each carrying one masked payload's bitmap+packed size), the server's
    /// per-round `round_bytes` accounting events, and — when `ledger` holds
    /// a record whose config digest matches the traced spec — the ledger's
    /// cumulative totals.
    pub fn reconcile(&self, ledger: &[LedgerRecord]) -> ReconcileReport {
        let mut rep = ReconcileReport::default();
        let init = find_event(&self.server, "net.comm", "init_broadcast", |_| true)
            .and_then(|e| e.u64_field("bytes"))
            .unwrap_or(0);
        if init == 0 {
            rep.problems
                .push("no init_broadcast event (trace not at debug level?)".to_owned());
        }
        let mut cum = init;
        for rb in self
            .server
            .events
            .iter()
            .filter(|e| e.target == "net.server" && e.msg == "round_bytes")
        {
            let (Some(round), Some(up), Some(down), Some(claimed_cum)) = (
                rb.u64_field("round"),
                rb.u64_field("bytes_up"),
                rb.u64_field("bytes_down"),
                rb.u64_field("cum_bytes"),
            ) else {
                rep.problems.push("malformed round_bytes event".to_owned());
                continue;
            };
            let sum_dir = |dir: &str| -> u64 {
                self.server
                    .events
                    .iter()
                    .filter(|e| {
                        e.target == "net.comm"
                            && e.msg == "transfer"
                            && e.u64_field("round") == Some(round)
                            && e.str_field("dir") == Some(dir)
                    })
                    .filter_map(|e| e.u64_field("bytes"))
                    .sum()
            };
            let (tr_up, tr_down) = (sum_dir("up"), sum_dir("down"));
            if tr_up != up {
                rep.problems.push(format!(
                    "round {round}: per-client up transfers sum to {tr_up}, \
                     server accounts {up}"
                ));
            }
            if tr_down != down {
                rep.problems.push(format!(
                    "round {round}: per-client down transfers sum to {tr_down}, \
                     server accounts {down}"
                ));
            }
            cum += up + down;
            if cum != claimed_cum {
                rep.problems.push(format!(
                    "round {round}: cumulative trace bytes {cum} != accounted {claimed_cum}"
                ));
                cum = claimed_cum; // resync so one slip reports once
            }
            rep.rounds += 1;
            rep.per_round.push((round, up, down, claimed_cum));
        }
        rep.traced_total = cum;
        if rep.rounds == 0 {
            rep.problems
                .push("no round_bytes events (trace not at debug level?)".to_owned());
        }

        match RunSpec::parse(&self.server.header.spec) {
            Ok(spec) => {
                let digest = format!("{:016x}", spec.config_digest());
                match ledger.iter().rev().find(|r| r.config_digest == digest) {
                    Some(rec) => {
                        rep.ledger_total = rec.total_bytes;
                        if rec.total_bytes != rep.traced_total {
                            rep.problems.push(format!(
                                "ledger total_bytes {} != traced {}",
                                rec.total_bytes, rep.traced_total
                            ));
                        }
                        if rec.rounds != rep.rounds {
                            rep.problems.push(format!(
                                "ledger has {} rounds, trace has {}",
                                rec.rounds, rep.rounds
                            ));
                        }
                        if let Some(series) = rec.series.get("cum_bytes") {
                            for &(round, _, _, cum) in &rep.per_round {
                                let lv = series.get(round as usize).copied().unwrap_or(-1.0);
                                if lv != cum as f64 {
                                    rep.problems.push(format!(
                                        "round {round}: ledger cum_bytes {lv} != traced {cum}"
                                    ));
                                }
                            }
                        }
                    }
                    None => rep.problems.push(format!(
                        "no ledger record with config digest {digest} \
                         (run `apf-server --ledger` alongside the trace?)"
                    )),
                }
            }
            Err(e) => rep
                .problems
                .push(format!("trace header spec does not parse: {e}")),
        }
        rep
    }
}

// Public because `MergedTrace::reconcile` returns it.
/// The result of [`MergedTrace::reconcile`].
#[derive(Debug, Default)]
pub struct ReconcileReport {
    /// Rounds with accounting events in the trace.
    pub rounds: u64,
    /// Cumulative logical bytes per the trace (init broadcast + transfers).
    pub traced_total: u64,
    /// The matched ledger record's total (0 when unmatched).
    pub ledger_total: u64,
    /// Per-round `(round, bytes_up, bytes_down, cum_bytes)`.
    pub per_round: Vec<(u64, u64, u64, u64)>,
    /// Every disagreement found; empty = bytes reconcile exactly.
    pub problems: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{group_processes, TraceFile};
    use apf_testkit::{property, u64s};

    /// Renders a minimal but structurally faithful pair of traces: one
    /// server + `n` clients, one round, with every span/event the merger
    /// reads. Client `k`'s trace epoch starts at server time `skews[k]`
    /// (client timestamps are µs since its own epoch, so skews must keep
    /// every client timestamp non-negative: `skew <= 100`).
    fn synthetic_run(n: u32, skews: &[i64]) -> Vec<TraceFile> {
        let run = "00000000000000ab";
        let mut files = Vec::new();
        let mut server = String::new();
        server.push_str(&format!(
            "{{\"t\":\"header\",\"ts_us\":5,\"run\":\"{run}\",\"role\":\"server\",\"pid\":1,\"spec\":\"v1;x\"}}\n"
        ));
        let stamp =
            |role: &str, pid: u32| format!("\"run\":\"{run}\",\"role\":\"{role}\",\"pid\":{pid}");
        let s = stamp("server", 1);
        for k in 0..n {
            // welcome_sent at server time 100 + k.
            server.push_str(&format!(
                "{{\"t\":\"event\",\"ts_us\":{},\"lvl\":\"info\",\"target\":\"net.server\",\"msg\":\"welcome_sent\",\"span\":1,\"thread\":0,{s},\"fields\":{{\"client\":{k},\"bytes_wire\":10}}}}\n",
                100 + u64::from(k)
            ));
        }
        // Server round 0: round span id 10, reduce id 11, per-client
        // push_read (peer_span = client round span id 100+k) and pull_write.
        server.push_str(&format!(
            "{{\"t\":\"span\",\"ts_us\":900,\"lvl\":\"info\",\"target\":\"net.server\",\"name\":\"round\",\"id\":10,\"parent\":1,\"start_us\":200,\"dur_us\":700,\"thread\":0,{s},\"fields\":{{\"round\":0}}}}\n"
        ));
        server.push_str(&format!(
            "{{\"t\":\"span\",\"ts_us\":890,\"lvl\":\"debug\",\"target\":\"net.server\",\"name\":\"reduce\",\"id\":11,\"parent\":10,\"start_us\":600,\"dur_us\":50,\"thread\":0,{s},\"fields\":{{\"round\":0,\"alive\":{n}}}}}\n"
        ));
        for k in 0..n {
            server.push_str(&format!(
                "{{\"t\":\"span\",\"ts_us\":880,\"lvl\":\"debug\",\"target\":\"net.server\",\"name\":\"push_read\",\"id\":{},\"parent\":10,\"start_us\":210,\"dur_us\":100,\"thread\":0,{s},\"fields\":{{\"round\":0,\"client\":{k},\"peer_span\":{}}}}}\n",
                20 + k,
                100 + k
            ));
            server.push_str(&format!(
                "{{\"t\":\"span\",\"ts_us\":895,\"lvl\":\"debug\",\"target\":\"net.server\",\"name\":\"pull_write\",\"id\":{},\"parent\":10,\"start_us\":660,\"dur_us\":20,\"thread\":0,{s},\"fields\":{{\"round\":0,\"client\":{k}}}}}\n",
                40 + k
            ));
            server.push_str(&format!(
                "{{\"t\":\"event\",\"ts_us\":870,\"lvl\":\"debug\",\"target\":\"net.comm\",\"msg\":\"transfer\",\"span\":10,\"thread\":0,{s},\"fields\":{{\"round\":0,\"client\":{k},\"dir\":\"up\",\"bytes\":30}}}}\n"
            ));
            server.push_str(&format!(
                "{{\"t\":\"event\",\"ts_us\":896,\"lvl\":\"debug\",\"target\":\"net.comm\",\"msg\":\"transfer\",\"span\":10,\"thread\":0,{s},\"fields\":{{\"round\":0,\"client\":{k},\"dir\":\"down\",\"bytes\":30}}}}\n"
            ));
        }
        server.push_str(&format!(
            "{{\"t\":\"event\",\"ts_us\":898,\"lvl\":\"debug\",\"target\":\"net.comm\",\"msg\":\"init_broadcast\",\"span\":1,\"thread\":0,{s},\"fields\":{{\"bytes\":1000,\"clients\":{n}}}}}\n"
        ));
        server.push_str(&format!(
            "{{\"t\":\"event\",\"ts_us\":899,\"lvl\":\"debug\",\"target\":\"net.server\",\"msg\":\"round_bytes\",\"span\":10,\"thread\":0,{s},\"fields\":{{\"round\":0,\"bytes_up\":{up},\"bytes_down\":{down},\"cum_bytes\":{cum},\"alive\":{n}}}}}\n",
            up = 30 * u64::from(n),
            down = 30 * u64::from(n),
            cum = 1000 + 60 * u64::from(n),
        ));
        files.push(TraceFile::parse("server", &server));

        for k in 0..n {
            // Client clock = server clock - skew, so welcome_recv (server
            // time 100+k) lands at client time 100+k-skew.
            let skew = skews[k as usize];
            let at = |server_us: i64| server_us - skew;
            let c = stamp(&format!("client:{k}"), 100 + k);
            let mut text = String::new();
            text.push_str(&format!(
                "{{\"t\":\"header\",\"ts_us\":{},\"run\":\"{run}\",\"role\":\"client:{k}\",\"pid\":{},\"spec\":\"v1;x\"}}\n",
                at(100), 100 + k
            ));
            text.push_str(&format!(
                "{{\"t\":\"event\",\"ts_us\":{},\"lvl\":\"info\",\"target\":\"net.client\",\"msg\":\"welcome_recv\",\"span\":0,\"thread\":0,{c},\"fields\":{{\"client\":{k},\"bytes_wire\":10,\"peer_pid\":1,\"peer_span\":1}}}}\n",
                at(100 + i64::from(k))
            ));
            // Round span 100+k on [210, 700): local_train 200, push 90,
            // pull_wait 180 (of which pull_write overlaps 20), apply 10.
            text.push_str(&format!(
                "{{\"t\":\"span\",\"ts_us\":{},\"lvl\":\"info\",\"target\":\"net.client\",\"name\":\"round\",\"id\":{},\"parent\":1,\"start_us\":{},\"dur_us\":490,\"thread\":0,{c},\"fields\":{{\"round\":0,\"client\":{k}}}}}\n",
                at(700), 100 + k, at(210)
            ));
            for (name, start, dur, extra) in [
                ("local_train", 210, 200, String::new()),
                ("push", 412, 90, String::new()),
                ("pull_wait", 505, 180, ",\"peer_span\":10".to_owned()),
                ("apply", 688, 10, String::new()),
            ] {
                text.push_str(&format!(
                    "{{\"t\":\"span\",\"ts_us\":{},\"lvl\":\"debug\",\"target\":\"net.client\",\"name\":\"{name}\",\"id\":{},\"parent\":{},\"start_us\":{},\"dur_us\":{dur},\"thread\":0,{c},\"fields\":{{\"round\":0{extra}}}}}\n",
                    at(start + dur), 200 + k, 100 + k, at(start)
                ));
            }
            files.push(TraceFile::parse(&format!("client{k}"), &text));
        }
        files
    }

    fn merge(n: u32, skews: &[i64]) -> MergedTrace {
        let procs = group_processes(&synthetic_run(n, skews)).unwrap();
        MergedTrace::build(procs).unwrap()
    }

    #[test]
    fn offsets_recover_known_skew() {
        let m = merge(3, &[0, 100, -12_345]);
        assert_eq!(m.offsets_us, vec![0, 100, -12_345]);
    }

    #[test]
    fn timeline_attributes_the_full_round() {
        let m = merge(2, &[100, -1_000]);
        let tl = m.timeline();
        assert_eq!(tl.len(), 2);
        for s in &tl {
            assert_eq!(s.wall_us, 490);
            assert_eq!(s.compute_us, 210); // local_train + apply
            assert_eq!(s.transfer_us, 110); // push + pull_write overlap
            assert_eq!(s.server_wait_us, 160); // pull_wait - overlap
            assert!(s.coverage() > 0.95, "coverage {}", s.coverage());
            // Aligned onto the server clock, both rounds start at 210.
            assert_eq!(s.start_us, 210);
        }
    }

    #[test]
    fn median_coverage_ignores_one_stretched_slice() {
        let slice = |wall_us| RoundSlice {
            round: 0,
            client: 0,
            start_us: 0,
            wall_us,
            compute_us: 90,
            transfer_us: 0,
            server_wait_us: 0,
        };
        assert_eq!(median_coverage(&[]), 0.0);
        // 90/100 ×3 and one slice stretched to 900 µs by the scheduler.
        let mut slices = vec![slice(100), slice(900), slice(100), slice(100)];
        assert_eq!(median_coverage(&slices), 0.9);
        // Two of four stretched: the lower median is a stretched one.
        slices[0] = slice(900);
        assert_eq!(median_coverage(&slices), 0.1);
        assert_eq!(median_coverage(&slices[1..2]), 0.1);
    }

    #[test]
    fn complete_tree_has_no_problems() {
        let m = merge(3, &[0, 0, 0]);
        assert_eq!(m.completeness_problems(), Vec::<String>::new());
    }

    #[test]
    fn broken_span_link_is_reported() {
        let mut files = synthetic_run(1, &[0]);
        // Renumber the client's round span: the peer_span the server
        // recorded off the Push frame (span 100) now dangles.
        for s in &mut files[1].spans {
            if s.name == "round" {
                s.id = 999;
            }
            if s.parent == 100 {
                s.parent = 999;
            }
        }
        let m = MergedTrace::build(group_processes(&files).unwrap()).unwrap();
        let problems = m.completeness_problems();
        assert!(
            problems.iter().any(|p| p.contains("links span")),
            "{problems:?}"
        );
    }

    #[test]
    fn reconcile_balances_the_synthetic_books() {
        let m = merge(3, &[0, 0, 0]);
        let mut rec = LedgerRecord {
            config_digest: format!("{:016x}", 0u64),
            rounds: 1,
            total_bytes: 1000 + 180,
            ..LedgerRecord::default()
        };
        // The synthetic spec "v1;x" does not parse as a RunSpec, so ledger
        // matching reports that and nothing else breaks.
        rec.series.insert("cum_bytes".to_owned(), vec![1180.0]);
        let rep = m.reconcile(&[rec]);
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.traced_total, 1180);
        assert_eq!(
            rep.problems
                .iter()
                .filter(|p| !p.contains("does not parse"))
                .count(),
            0,
            "{:?}",
            rep.problems
        );
    }

    #[test]
    fn reconcile_flags_a_byte_slip() {
        let mut files = synthetic_run(1, &[0]);
        // Append a forged extra transfer event to unbalance round 0.
        let extra = r#"{"t":"event","ts_us":871,"lvl":"debug","target":"net.comm","msg":"transfer","span":10,"thread":0,"run":"00000000000000ab","role":"server","pid":1,"fields":{"round":0,"client":0,"dir":"up","bytes":7}}"#;
        let f = TraceFile::parse("server-extra", extra);
        files[0].events.extend(f.events);
        let m = MergedTrace::build(group_processes(&files).unwrap()).unwrap();
        let rep = m.reconcile(&[]);
        assert!(
            rep.problems.iter().any(|p| p.contains("transfers sum")),
            "{:?}",
            rep.problems
        );
    }

    property! {
        // Clock alignment is exact for arbitrary skews: the recovered
        // offset equals the injected one and the aligned round start is
        // skew-invariant. Skews span [-999_900, 100] — a client's epoch
        // may start long before the server's but at most 100 µs after
        // (its own timestamps must stay non-negative).
        fn clock_alignment_is_exact_under_skew(
            raw0 in u64s(0..1_000_000),
            raw1 in u64s(0..1_000_000)
        ) {
            let s0 = 100 - raw0 as i64;
            let s1 = 100 - raw1 as i64;
            let m = merge(2, &[s0, s1]);
            assert_eq!(m.offsets_us, vec![s0, s1]);
            for s in m.timeline() {
                assert_eq!(s.start_us, 210);
            }
        }
    }
}
