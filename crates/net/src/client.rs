//! The APF edge client: joins a parameter server, trains locally from the
//! shared [`RunSpec`], and exchanges bitmap-compressed masked deltas.
//!
//! The client reconstructs everything deterministic — dataset shard, model
//! init, optimizer, its own [`ApfManager`] — from the spec string the
//! server's Welcome frame carries, so the only state on the wire is the
//! masked parameter traffic itself. Because freezing decisions are pure
//! functions of the synchronized model (§6.2), the client's manager and the
//! server's replica never disagree about which scalars a round transfers.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use apf::ApfManager;
use apf_fedsim::RunSpec;
use apf_trace::{event, span, Level, Role, TraceContext};

use crate::server::NetError;
use crate::wire::{read_frame, write_frame, Frame, MaskedPayload};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// The server to join.
    pub server: SocketAddr,
    /// This client's slot (must be `< spec.clients` and unique).
    pub id: u32,
    /// Total budget for the connect-retry loop.
    pub connect_timeout: Duration,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Fault injection for tests: exit (dropping the connection) right
    /// before pushing this round's update.
    pub fail_before_push_round: Option<u64>,
}

impl ClientOpts {
    /// Standard options for joining `server` as client `id`.
    pub fn new(server: SocketAddr, id: u32) -> ClientOpts {
        ClientOpts {
            server,
            id,
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            fail_before_push_round: None,
        }
    }
}

/// What a client run produced.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Rounds fully completed (push + pull applied).
    pub rounds_done: u64,
    /// Actual bytes moved on the wire, both directions, including framing.
    pub wire_bytes: u64,
    /// Set when the run ended early on purpose (injected fault).
    pub injected_fault: bool,
}

/// Connects with retries until `connect_timeout` elapses — the server may
/// still be binding (or its addr file may just have appeared) when the
/// client process starts.
fn connect_retry(addr: SocketAddr, budget: Duration) -> Result<TcpStream, NetError> {
    let deadline = Instant::now() + budget;
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| {
                NetError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("could not connect to {addr} within {budget:?}"),
                ))
            })?;
        let attempt = left.min(Duration::from_millis(500));
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(stream) => return Ok(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(25).min(left)),
        }
    }
}

/// Joins the server and runs the client side of the full round loop.
///
/// # Errors
/// Propagates connect/wire failures, a server [`Frame::Abort`] as
/// [`NetError::Protocol`], and a malformed Welcome spec as
/// [`NetError::Spec`].
pub fn run_client(opts: &ClientOpts) -> Result<ClientOutcome, NetError> {
    apf_trace::init_from_env();
    let mut stream = connect_retry(opts.server, opts.connect_timeout)?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    stream.set_nodelay(true)?;
    let mut wire_bytes = 0u64;

    // The Join context announces who we are; the run id is still unknown
    // (the server mints it and hands it back in the Welcome).
    wire_bytes += write_frame(
        &mut stream,
        &Frame::Join {
            client_id: opts.id,
            ctx: TraceContext::new(0, Role::Client(opts.id)),
        },
    )?;
    let (welcome, k) = read_frame(&mut stream)?;
    wire_bytes += k;
    let (spec_text, init, server_ctx) = match welcome {
        Frame::Welcome { spec, init, ctx } => (spec, init, ctx),
        Frame::Abort { reason } => return Err(NetError::Protocol(format!("rejected: {reason}"))),
        other => {
            return Err(NetError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
    };
    // Adopt the server's run id so every record this process emits merges
    // into the same logical trace; `welcome_recv` (paired with the server's
    // `welcome_sent`) anchors cross-process clock alignment.
    let client_ctx = TraceContext::new(server_ctx.run_id, Role::Client(opts.id));
    // Set even with tracing off: the stamp also tags `apf-prof` profile
    // headers, so `trace-report flame` can merge per-process profiles.
    apf_trace::set_thread_context(client_ctx);
    if apf_trace::enabled(Level::Info) {
        apf_trace::emit_header(&spec_text);
        event!(Level::Info, target: "net.client", "welcome_recv",
            client = opts.id, bytes_wire = k, peer_pid = server_ctx.pid,
            peer_span = server_ctx.link_span);
    }
    let spec = RunSpec::parse(&spec_text).map_err(|e| NetError::Spec(e.to_string()))?;
    if opts.id as usize >= spec.clients {
        return Err(NetError::Spec(format!(
            "client id {} out of range for {} clients",
            opts.id, spec.clients
        )));
    }
    let cfg = spec
        .apf_config()
        .ok_or_else(|| NetError::Unsupported("spec strategy has no masked wire form".to_owned()))?;
    if init.len() != spec.init_params().len() {
        return Err(NetError::Protocol(format!(
            "initial model has {} scalars, spec implies {}",
            init.len(),
            spec.init_params().len()
        )));
    }
    let mut client = spec.make_client(opts.id as usize);
    client.load_flat(&init);
    let mut manager = ApfManager::new(&init, cfg, spec.controller.build())
        .map_err(|e| NetError::Spec(e.to_string()))?;
    let wire_f16 = spec.wire_f16();

    let mut session = span!(Level::Info, target: "net.client", "session",
        client = opts.id, rounds = spec.rounds);
    for round in 0..spec.rounds as u64 {
        let round_span = span!(Level::Info, target: "net.client", "round",
            round = round, client = opts.id);
        // Local training with the per-iteration rollback hook (Alg. 1
        // line 2) — identical to the simulator's post_local_iteration.
        // The `local_train` span covers everything compute-side before the
        // push: training iterations, rollback, and update selection.
        let (loss, mut l, up) = {
            let _sp = span!(Level::Debug, target: "net.client", "local_train",
                round = round);
            let mgr = &manager;
            let hook = move |p: &mut [f32]| mgr.rollback(p, round);
            let loss = client.local_round(spec.local_iters, &hook);
            let mut l = client.flat_params();
            manager.rollback(&mut l, round);
            let up = manager.select_unfrozen(&l, round);
            (loss, l, up)
        };

        if opts.fail_before_push_round == Some(round) {
            // Injected fault: vanish mid-round, connection and all.
            return Ok(ClientOutcome {
                rounds_done: round,
                wire_bytes,
                injected_fault: true,
            });
        }
        {
            let mut sp = span!(Level::Debug, target: "net.client", "push",
                round = round);
            let k = write_frame(
                &mut stream,
                &Frame::Push {
                    round,
                    client_id: opts.id,
                    loss_bits: loss.to_bits(),
                    payload: MaskedPayload::new(manager.frozen_mask_packed(round), up, wire_f16)?,
                    ctx: client_ctx.with_link(round_span.id()),
                },
            )?;
            sp.record("bytes_wire", k);
            wire_bytes += k;
        }

        // `pull_wait` spans both waiting for the server (everyone else's
        // pushes plus the reduce) and the downlink transfer itself;
        // trace-report splits the two against the server's `pull_write`.
        let (frame, k) = {
            let mut sp = span!(Level::Debug, target: "net.client", "pull_wait",
                round = round);
            let (frame, k) = read_frame(&mut stream)?;
            sp.record("bytes_wire", k);
            if let Frame::Pull { ctx, .. } = &frame {
                if ctx.link_span != 0 {
                    sp.record("peer_span", ctx.link_span);
                }
            }
            (frame, k)
        };
        wire_bytes += k;
        let agg = match frame {
            Frame::Pull {
                round: r, payload, ..
            } if r == round && payload.mask == *manager.mask(round) => payload.values,
            Frame::Abort { reason } => {
                return Err(NetError::Protocol(format!("server aborted: {reason}")))
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Pull for round {round}, got {other:?}"
                )))
            }
        };
        {
            let _sp = span!(Level::Debug, target: "net.client", "apply",
                round = round);
            manager.apply_aggregate(&mut l, &agg, round);
            manager.finish_round(&l, round);
            client.load_flat(&l);
        }
    }

    // The server's Done is a courtesy; the round count already told us the
    // run is over, so a missing/failed Done is not an error.
    if let Ok((Frame::Done, k)) = read_frame(&mut stream) {
        wire_bytes += k;
    }
    session.record("wire_bytes", wire_bytes);
    drop(session);
    Ok(ClientOutcome {
        rounds_done: spec.rounds as u64,
        wire_bytes,
        injected_fault: false,
    })
}
