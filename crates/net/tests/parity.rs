//! Net-vs-sim parity and fault-path tests: an in-process server plus client
//! threads over real TCP must reproduce the simulator's golden run bit for
//! bit, and must degrade gracefully — never hang — when peers misbehave.
//! The multi-process variant of the parity check (separate OS processes via
//! the `apf-server`/`apf-client` binaries) lives in `scripts/verify.sh`.

use std::time::{Duration, Instant};

use apf_fedsim::{RunSpec, SpecStrategy, Trajectory};
use apf_net::{run_client, ClientOpts, NetError, NetServer, ServerOpts};
use apf_testkit::golden::run_recorded;

fn opts(spec: RunSpec) -> ServerOpts {
    ServerOpts {
        addr: "127.0.0.1:0".to_owned(),
        spec,
        join_timeout: Duration::from_secs(20),
        io_timeout: Duration::from_secs(20),
    }
}

/// Runs a full networked round-trip: one server, `spec.clients` client
/// threads, with per-client option tweaks applied through `tweak`.
fn run_networked(
    spec: &RunSpec,
    tweak: impl Fn(&mut ClientOpts),
) -> (
    apf_net::ServerOutcome,
    Vec<Result<apf_net::ClientOutcome, NetError>>,
) {
    let server = NetServer::bind(opts(spec.clone())).expect("bind");
    let addr = server.addr();
    let handles: Vec<_> = (0..spec.clients as u32)
        .map(|id| {
            let tweak = &tweak;
            let mut copts = ClientOpts::new(addr, id);
            tweak(&mut copts);
            std::thread::spawn(move || run_client(&copts))
        })
        .collect();
    let outcome = server.serve().expect("server run");
    let clients = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (outcome, clients)
}

#[test]
fn networked_golden_run_is_bitwise_identical_to_simulator() {
    let spec = RunSpec::golden();
    let (outcome, clients) = run_networked(&spec, |_| {});
    for c in &clients {
        assert!(c.is_ok(), "client failed: {:?}", c.as_ref().err());
    }
    assert!(outcome.lost_clients.is_empty());

    let golden = run_recorded(&spec);
    let net_traj = Trajectory::from_log(&outcome.log);
    if let Some(diff) = golden.trajectory().diff(&net_traj) {
        panic!("net and sim trajectories diverge: {diff}");
    }
    let net_global_bits: Vec<u32> = outcome.global.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        golden.global_bits(),
        net_global_bits,
        "final global models diverge"
    );
    // The real framing overhead must be accounted for and strictly exceed
    // the logical masked-transfer bytes it wraps.
    assert!(outcome.wire_bytes > outcome.log.total_bytes() / 2);
    // Seconds are not part of the trajectory, and the server measures its
    // own: every round waited for pushes, then reduced and wrote pulls.
    let mut cum_secs = 0.0;
    for r in &outcome.log.records {
        assert!(r.compute_secs > 0.0 && r.comm_secs > 0.0, "{r:?}");
        assert!(r.cum_secs > cum_secs, "cum_secs accumulates: {r:?}");
        cum_secs = r.cum_secs;
    }
}

#[test]
fn networked_f16_run_is_bitwise_identical_to_simulator() {
    let spec = RunSpec {
        rounds: 3,
        strategy: SpecStrategy::Apf {
            check_every: 1,
            threshold: 0.1,
            ema_alpha: 0.9,
            f16: true,
        },
        ..RunSpec::golden()
    };
    let (outcome, clients) = run_networked(&spec, |_| {});
    assert!(clients.iter().all(Result::is_ok));
    let golden = run_recorded(&spec);
    if let Some(diff) = golden
        .trajectory()
        .diff(&Trajectory::from_log(&outcome.log))
    {
        panic!("f16 net and sim trajectories diverge: {diff}");
    }
    let net_global_bits: Vec<u32> = outcome.global.iter().map(|v| v.to_bits()).collect();
    assert_eq!(golden.global_bits(), net_global_bits);
}

#[test]
fn client_killed_mid_round_degrades_gracefully() {
    let spec = RunSpec::golden();
    let (outcome, clients) = run_networked(&spec, |c| {
        if c.id == 2 {
            c.fail_before_push_round = Some(2);
        }
    });
    // The victim reports its injected fault; the others finish.
    assert!(clients[2].as_ref().unwrap().injected_fault);
    assert!(clients[0].as_ref().unwrap().rounds_done == spec.rounds as u64);
    assert!(clients[1].as_ref().unwrap().rounds_done == spec.rounds as u64);
    // The server completes every round with the survivors.
    assert_eq!(outcome.lost_clients, vec![2]);
    assert_eq!(outcome.log.records.len(), spec.rounds);
    assert!(outcome.log.records.iter().all(|r| r.loss.is_finite()));
    // Byte accounting reflects the shrunken fleet after the fault.
    let before = &outcome.log.records[1];
    let after = &outcome.log.records[2];
    assert_eq!(before.bytes_up % 3, 0);
    assert_eq!(after.bytes_up % 2, 0);
}

#[test]
fn garbage_handshake_is_tolerated_during_join() {
    let spec = RunSpec {
        clients: 1,
        rounds: 2,
        ..RunSpec::golden()
    };
    let server = NetServer::bind(opts(spec.clone())).expect("bind");
    let addr = server.addr();
    // A hostile/broken peer: wrong magic, then a truncated real header.
    let vandal = std::thread::spawn(move || {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
        drop(s);
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let _ = s.write_all(b"APFW"); // header cut short
        drop(s);
    });
    let real = std::thread::spawn(move || run_client(&ClientOpts::new(addr, 0)));
    let outcome = server.serve().expect("server survives garbage joiners");
    vandal.join().unwrap();
    assert!(real.join().unwrap().is_ok());
    assert_eq!(outcome.log.records.len(), 2);
    assert!(outcome.lost_clients.is_empty());
}

#[test]
fn join_timeout_returns_typed_error_without_hanging() {
    let spec = RunSpec::golden();
    let server = NetServer::bind(ServerOpts {
        join_timeout: Duration::from_millis(300),
        ..opts(spec)
    })
    .expect("bind");
    let t0 = Instant::now();
    match server.serve() {
        Err(NetError::JoinTimeout { joined, expected }) => {
            assert_eq!((joined, expected), (0, 3));
        }
        other => panic!("expected JoinTimeout, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10), "join phase hung");
}

#[test]
fn connect_timeout_errors_promptly() {
    // Bind-then-drop guarantees a port with nothing listening.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let t0 = Instant::now();
    let result = run_client(&ClientOpts {
        connect_timeout: Duration::from_millis(300),
        ..ClientOpts::new(dead_addr, 0)
    });
    assert!(matches!(result, Err(NetError::Io(_))), "{result:?}");
    assert!(t0.elapsed() < Duration::from_secs(10), "connect retry hung");
}

#[test]
fn fedavg_spec_is_rejected_as_unsupported() {
    let spec = RunSpec {
        strategy: SpecStrategy::Fedavg,
        ..RunSpec::golden()
    };
    match NetServer::bind(opts(spec)) {
        Err(NetError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
}
