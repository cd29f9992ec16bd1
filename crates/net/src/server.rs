//! The APF parameter server: owns the global model and the per-scalar
//! freeze state, aggregates masked client deltas, and replays the exact
//! arithmetic of the in-process simulator so a networked run is bitwise
//! identical to `RunSpec::build_runner()` on the same spec.
//!
//! Determinism notes (each mirrors a line of `ApfStrategy::sync_round` /
//! `FlRunner::run_round`):
//! - Pushes are consumed in client-id order, so the weighted mean (the
//!   simulator's own `weighted_mean`) sums uploads in exactly the
//!   simulator's client-index order.
//! - Under f16, uploads arrive as binary16 bit patterns and are widened on
//!   decode, which equals the simulator's `f16_decode(f16_encode(..))`
//!   roundtrip; the aggregate is narrowed the same way before it is applied
//!   anywhere.
//! - The server keeps one [`ApfManager`] replica; because APF freezing
//!   decisions are pure functions of the synchronized parameters (§6.2),
//!   this replica stays in lockstep with every client's manager.
//!
//! The round tail (accounting, evaluation cadence, telemetry, ledger) is the
//! simulator's [`RoundBook`]; this file keeps sockets, frames and the compact
//! reduce. Its seconds are measured: `compute_secs` is round start to the
//! last accepted Push (client compute plus uplink as the server sees it),
//! `comm_secs` the reduce plus the Pull writes.
//!
//! Fault handling: a client that disconnects, times out, or violates the
//! protocol is dropped from the round (aggregation weight 0) and all later
//! rounds; the run continues with the survivors and only fails with
//! [`NetError::AllClientsLost`] when nobody is left.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use apf::ApfManager;
use apf_fedsim::{weighted_mean, ExperimentLog, RoundBook, RoundComm, RunSpec};
use apf_obs::Acceptor;
use apf_quant::f16_roundtrip_in_place;
use apf_trace::{event, span, Level, Role, TraceContext};

use crate::telemetry::{mint_run_id, NetMetrics};
use crate::wire::{read_frame, write_frame, Frame, MaskedPayload, WireError};

/// Parameter-server configuration.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The run to serve. Must be an APF spec (the wire protocol transfers
    /// masked deltas; FedAvg has no mask to speak of).
    pub spec: RunSpec,
    /// How long to wait for all clients to join before giving up.
    pub join_timeout: Duration,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            addr: "127.0.0.1:0".to_owned(),
            spec: RunSpec::golden(),
            join_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// What a completed (possibly degraded) networked run produced.
#[derive(Debug)]
pub struct ServerOutcome {
    /// The per-round metric log, same semantics as the simulator's.
    pub log: ExperimentLog,
    /// The final global flat model.
    pub global: Vec<f32>,
    /// Actual bytes moved on the wire, both directions, including framing.
    pub wire_bytes: u64,
    /// Clients dropped mid-run (id order).
    pub lost_clients: Vec<u32>,
}

/// A networked-runtime failure.
#[derive(Debug)]
pub enum NetError {
    /// Wire-level failure on a connection the run could not survive losing.
    Wire(WireError),
    /// Listener/transport failure.
    Io(std::io::Error),
    /// Not all clients joined within the join timeout.
    JoinTimeout {
        /// Clients that did join.
        joined: usize,
        /// Clients the spec requires.
        expected: usize,
    },
    /// Every client was lost before the run completed.
    AllClientsLost {
        /// The round during which the last client died.
        round: u64,
    },
    /// The spec cannot run over this protocol (e.g. FedAvg).
    Unsupported(String),
    /// A peer violated the protocol state machine.
    Protocol(String),
    /// The run spec failed to parse or validate.
    Spec(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::JoinTimeout { joined, expected } => {
                write!(f, "join timeout: {joined}/{expected} clients joined")
            }
            NetError::AllClientsLost { round } => {
                write!(f, "all clients lost by round {round}")
            }
            NetError::Unsupported(why) => write!(f, "unsupported spec: {why}"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::Spec(why) => write!(f, "bad spec: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// A bound, not-yet-serving parameter server. Two-phase so callers can learn
/// the ephemeral port (and e.g. write an addr file) before blocking in
/// [`NetServer::serve`].
pub struct NetServer {
    opts: ServerOpts,
    acceptor: Acceptor,
    ledger: Option<PathBuf>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.acceptor.addr())
            .finish()
    }
}

impl NetServer {
    /// Binds the listen address and validates the spec.
    ///
    /// # Errors
    /// [`NetError::Unsupported`] for a non-APF spec or one with
    /// FedProx or dropped stragglers, [`NetError::Io`] on
    /// bind failure.
    pub fn bind(opts: ServerOpts) -> Result<NetServer, NetError> {
        apf_trace::init_from_env();
        if opts.spec.apf_config().is_none() {
            return Err(NetError::Unsupported(
                "the wire protocol carries masked APF deltas; use an apf strategy".to_owned(),
            ));
        }
        if opts.spec.drop_stragglers || opts.spec.prox_mu.is_some() {
            return Err(NetError::Unsupported(
                "the server aggregates every upload and anchors no proximal term".to_owned(),
            ));
        }
        let acceptor = Acceptor::bind(opts.addr.as_str(), opts.io_timeout, 64)?;
        Ok(NetServer {
            opts,
            acceptor,
            ledger: None,
        })
    }

    /// Appends the run's ledger record to `path` when [`NetServer::serve`]
    /// completes (wins over `APF_LEDGER_FILE`), under the config digest a
    /// simulator run of the spec gets, so `ledger-report diff` pairs the two.
    pub fn ledger(&mut self, path: impl Into<PathBuf>) {
        self.ledger = Some(path.into());
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Runs the join phase and the full round loop to completion.
    ///
    /// # Errors
    /// [`NetError::JoinTimeout`] when the fleet never assembles,
    /// [`NetError::AllClientsLost`] when every client dies mid-run.
    pub fn serve(mut self) -> Result<ServerOutcome, NetError> {
        let t0 = Instant::now();
        let spec = self.opts.spec.clone();
        let n = spec.clients;
        let canonical = spec.canonical();
        let run_id = mint_run_id(&canonical);
        let server_ctx = TraceContext::new(run_id, Role::Server);
        // The context stamp is one TLS store and also tags `apf-prof`
        // profile headers, so it is set even with tracing off; only the
        // trace header record stays gated on the level.
        apf_trace::set_thread_context(server_ctx);
        if apf_trace::enabled(Level::Info) {
            apf_trace::emit_header(&canonical);
        }
        let metrics = NetMetrics::new(n);
        let mut book = RoundBook::new(
            &spec.run_name(),
            &spec.strategy_name(),
            Some(canonical.clone()),
            &spec.fl_config(),
            spec.eval_setup(),
        );
        // Live telemetry when APF_OBS_ADDR asks for it, as in the simulator.
        book.serve(None);
        if let Some(path) = self.ledger.take() {
            book.ledger(path);
        }
        let mut root = span!(Level::Info, target: "net.server", "serve",
            clients = n, rounds = spec.rounds);

        let mut wire_bytes = 0u64;
        let mut streams = self.join_phase(n, &mut wire_bytes, &metrics)?;

        let init = spec.init_params();
        let cfg = spec.apf_config().expect("validated at bind");
        let mut manager = ApfManager::new(&init, cfg, spec.controller.build())
            .map_err(|e| NetError::Spec(e.to_string()))?;
        let wire_f16 = spec.wire_f16();

        // Initial model distribution. The context's link is the serve span,
        // and the per-client `welcome_sent` events (paired with each
        // client's `welcome_recv`) are the clock-alignment anchor
        // trace-report uses to put all processes on the server's timeline.
        let welcome = Frame::Welcome {
            spec: canonical.clone(),
            init: init.clone(),
            ctx: server_ctx.with_link(root.id()),
        };
        let welcome_t0 = Instant::now();
        for (i, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot else { continue };
            match write_frame(stream, &welcome) {
                Ok(k) => {
                    wire_bytes += k;
                    metrics.wire_tx_bytes.add(k);
                    metrics.clients[i].wire_bytes.add(k);
                    event!(Level::Info, target: "net.server", "welcome_sent",
                        client = i, bytes_wire = k);
                }
                Err(_) => *slot = None,
            }
        }

        // Same accounting as the simulator: the initial broadcast is charged
        // for the whole fleet.
        book.join(n, Some(welcome_t0.elapsed().as_secs_f64()));
        event!(Level::Debug, target: "net.comm", "init_broadcast",
            bytes = init.len() as u64 * 4 * n as u64, clients = n);

        let mut g = init;
        let mut lost_clients: Vec<u32> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i as u32)
            .collect();

        for round in 0..spec.rounds as u64 {
            let round_t0 = Instant::now();
            let mut round_span = span!(Level::Info, target: "net.server", "round",
                round = round);
            let mask = manager.mask(round);
            let unfrozen = mask.unfrozen_count();

            // Collect pushes in client-id order (the aggregation order the
            // simulator uses). A client that fails here is dropped for good.
            let mut uploads: Vec<Vec<f32>> = vec![vec![0.0; unfrozen]; n];
            let mut weights = vec![0.0f32; n];
            let mut losses = vec![0.0f32; n];
            for i in 0..n {
                let Some(stream) = &mut streams[i] else {
                    continue;
                };
                let push_t0 = Instant::now();
                let mut sp = span!(Level::Debug, target: "net.server", "push_read",
                    round = round, client = i);
                match read_frame(stream) {
                    Ok((
                        Frame::Push {
                            round: r,
                            client_id,
                            loss_bits,
                            payload,
                            ctx,
                        },
                        k,
                    )) if r == round
                        && client_id as usize == i
                        && payload.f16 == wire_f16
                        && payload.mask == *mask =>
                    {
                        sp.record("bytes_wire", k);
                        if ctx.link_span != 0 {
                            sp.record("peer_span", ctx.link_span);
                        }
                        wire_bytes += k;
                        metrics.wire_rx_bytes.add(k);
                        metrics.clients[i].wire_bytes.add(k);
                        metrics
                            .push_wait_us
                            .record(push_t0.elapsed().as_micros() as f64);
                        metrics.clients[i]
                            .round_us
                            .record(round_t0.elapsed().as_micros() as f64);
                        // Logical masked-transfer bytes (the ledger formula),
                        // not framing: reconcile sums these against the run
                        // ledger.
                        event!(Level::Debug, target: "net.comm", "transfer",
                            round = round, client = i, dir = "up",
                            bytes = payload.encoded_len() - 5);
                        uploads[i] = payload.values;
                        weights[i] = 1.0;
                        losses[i] = f32::from_bits(loss_bits);
                    }
                    _ => {
                        sp.record("lost", true);
                        streams[i] = None;
                        lost_clients.push(i as u32);
                        event!(Level::Warn, target: "net.server", "client_lost",
                            round = round, client = i);
                    }
                }
            }
            let alive = weights.iter().filter(|&&w| w > 0.0).count();
            metrics.clients_alive.set(alive as f64);
            if alive == 0 {
                self.abort_all(&mut streams, "all peers lost");
                return Err(NetError::AllClientsLost { round });
            }
            let compute_secs = round_t0.elapsed().as_secs_f64();

            let agg = {
                let _sp = span!(Level::Debug, target: "net.server", "reduce",
                    round = round, alive = alive);
                let mut agg = weighted_mean(&uploads, &weights).expect("alive > 0");
                if wire_f16 {
                    // Matches the simulator's narrowing of the aggregate
                    // before it is applied or re-broadcast.
                    f16_roundtrip_in_place(&mut agg);
                }
                agg
            };

            // Broadcast the aggregate; send failures drop the client.
            let pull_payload = MaskedPayload::new(mask.into_owned(), agg.clone(), wire_f16)?;
            let down_logical = pull_payload.encoded_len() - 5;
            let pull = Frame::Pull {
                round,
                payload: pull_payload,
                ctx: server_ctx.with_link(round_span.id()),
            };
            for (i, slot) in streams.iter_mut().enumerate() {
                let Some(stream) = slot else {
                    continue;
                };
                let mut sp = span!(Level::Debug, target: "net.server", "pull_write",
                    round = round, client = i);
                match write_frame(stream, &pull) {
                    Ok(k) => {
                        sp.record("bytes_wire", k);
                        wire_bytes += k;
                        metrics.wire_tx_bytes.add(k);
                        metrics.clients[i].wire_bytes.add(k);
                        event!(Level::Debug, target: "net.comm", "transfer",
                            round = round, client = i, dir = "down",
                            bytes = down_logical);
                    }
                    Err(_) => {
                        sp.record("lost", true);
                        *slot = None;
                        lost_clients.push(i as u32);
                    }
                }
            }

            let comm_secs = round_t0.elapsed().as_secs_f64() - compute_secs;

            // Advance the server replica exactly as every client does.
            manager.apply_aggregate(&mut g, &agg, round);
            let rep = manager.finish_round(&g, round);

            // Logical (ledger) bytes: one masked transfer per surviving
            // client each way — identical to the simulator when nobody died.
            let comm = RoundComm {
                bytes_up: alive as u64 * rep.bytes_up,
                bytes_down: alive as u64 * rep.bytes_down,
                max_client_up: rep.bytes_up,
                max_client_down: rep.bytes_down,
                frozen_ratio: rep.frozen_ratio(),
            };
            let loss = losses.iter().sum::<f32>() / alive as f32;
            let record = book.close(round, loss, comm, compute_secs, Some(comm_secs), &g);
            // The per-round accounting record reconcile checks against the
            // per-client transfer events and the run ledger.
            event!(Level::Debug, target: "net.server", "round_bytes",
                round = round, bytes_up = record.bytes_up, bytes_down = record.bytes_down,
                cum_bytes = record.cum_bytes, alive = alive);
            metrics.rounds.inc();
            metrics
                .round_us
                .record(round_t0.elapsed().as_micros() as f64);
            round_span.record("alive", alive);
        }

        for stream in streams.iter_mut().flatten() {
            if let Ok(k) = write_frame(stream, &Frame::Done) {
                wire_bytes += k;
                metrics.wire_tx_bytes.add(k);
            }
            let _ = stream.flush();
        }
        self.acceptor.shutdown();
        lost_clients.sort_unstable();
        lost_clients.dedup();
        root.record("wire_bytes", wire_bytes);
        root.record("lost", lost_clients.len());
        book.finish(t0.elapsed().as_secs_f64(), &[]);
        Ok(ServerOutcome {
            log: book.log().clone(),
            global: g,
            wire_bytes,
            lost_clients,
        })
    }

    /// Accepts connections until every client slot has joined or the join
    /// timeout elapses. Connections that fail the handshake (bad frame,
    /// duplicate or out-of-range id) are rejected and do not consume a slot.
    fn join_phase(
        &mut self,
        n: usize,
        wire_bytes: &mut u64,
        metrics: &NetMetrics,
    ) -> Result<Vec<Option<TcpStream>>, NetError> {
        let _sp = span!(Level::Info, target: "net.server", "join_phase", expected = n);
        let deadline = Instant::now() + self.opts.join_timeout;
        let queue = self.acceptor.queue();
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut joined = 0usize;
        while joined < n {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let Some(mut stream) = queue.pop_timeout(left) else {
                break;
            };
            match read_frame(&mut stream) {
                Ok((Frame::Join { client_id, ctx }, k)) => {
                    *wire_bytes += k;
                    metrics.wire_rx_bytes.add(k);
                    let id = client_id as usize;
                    if id >= n || streams[id].is_some() {
                        let _ = write_frame(
                            &mut stream,
                            &Frame::Abort {
                                reason: format!("client id {client_id} invalid or taken"),
                            },
                        );
                        continue;
                    }
                    event!(Level::Info, target: "net.server", "join",
                        client = id, peer_pid = ctx.pid);
                    streams[id] = Some(stream);
                    joined += 1;
                }
                // Garbage or truncated handshake: drop the connection and
                // keep waiting for real clients.
                _ => drop(stream),
            }
        }
        if joined < n {
            self.abort_all(&mut streams, "join phase incomplete");
            return Err(NetError::JoinTimeout {
                joined,
                expected: n,
            });
        }
        Ok(streams)
    }

    fn abort_all(&mut self, streams: &mut [Option<TcpStream>], reason: &str) {
        for slot in streams.iter_mut() {
            if let Some(stream) = slot {
                let _ = write_frame(
                    stream,
                    &Frame::Abort {
                        reason: reason.to_owned(),
                    },
                );
            }
            *slot = None;
        }
        self.acceptor.shutdown();
    }
}
