//! The loopback-TCP session: one `NetServer::serve` thread, one `run_client`
//! thread per client, and the main thread sampling round progress from the
//! server's public `net.server.rounds` counter.

use std::time::{Duration, Instant};

use apf_fedsim::RunSpec;
use apf_net::{run_client, ClientOpts, NetServer, ServerOpts, ServerOutcome};
use apf_trace::metrics::counter;

/// A counter that does not move for this long means a hung round.
const STALL: Duration = Duration::from_secs(60);
/// Poll interval while waiting for the next counter increment.
const POLL: Duration = Duration::from_micros(50);

/// Blocks until `read()` exceeds `seen`; returns the new count and when it
/// was observed.
fn next_increment(
    read: &dyn Fn() -> u64,
    seen: u64,
    stall: Duration,
) -> Result<(u64, Instant), String> {
    let t0 = Instant::now();
    loop {
        let c = read();
        if c > seen {
            return Ok((c, Instant::now()));
        }
        if t0.elapsed() > stall {
            return Err(format!(
                "no round completed in {stall:?} (counter stuck at {seen})"
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Samples per-round wall time (ms) in windows of about `window`, until the
/// counter reaches `done_at`. Round boundaries are invisible from outside
/// `serve()`, so the caller's thread sleeps through each window and then
/// closes it on the next counter increment: every sample is the wall time
/// between two observed round completions divided by the rounds between
/// them. `on_window(i)` runs as window `i` opens. A window in which the run
/// ends while the sampler sleeps has no closing increment and is dropped.
///
/// # Errors
/// Zero progress for `stall` is a hard error.
pub fn sample_windows(
    read: &dyn Fn() -> u64,
    done_at: u64,
    window: Duration,
    stall: Duration,
    on_window: &mut dyn FnMut(usize),
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    // Align the first window to a round completion.
    let (mut count, mut opened) = next_increment(read, read(), stall)?;
    while count < done_at {
        on_window(samples.len());
        std::thread::sleep(window);
        let at_wake = read();
        if at_wake >= done_at {
            break;
        }
        let (c, t) = next_increment(read, at_wake, stall)?;
        samples.push(t.duration_since(opened).as_secs_f64() * 1e3 / (c - count) as f64);
        (count, opened) = (c, t);
    }
    Ok(samples)
}

/// When one of the session's threads ran.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSpan {
    /// Thread body entered.
    pub start: Instant,
    /// Thread body returned.
    pub end: Instant,
}

/// What one loopback session produced.
#[derive(Debug)]
pub struct NetSession {
    /// Session start to the end of the warm-up rounds: bind, join, Welcome,
    /// client construction, warm-up.
    pub setup_s: f64,
    /// Session start to the server's first transmitted byte (its Welcome).
    pub join_ms: f64,
    /// Per-window round wall time (ms), warm-up excluded.
    pub window_ms: Vec<f64>,
    /// The server's result.
    pub outcome: ServerOutcome,
    /// Per-client `(rounds_done, wire_bytes)`.
    pub clients: Vec<(u64, u64)>,
    /// The `serve()` call.
    pub server_span: ThreadSpan,
    /// The `run_client` calls.
    pub client_spans: Vec<ThreadSpan>,
}

/// Runs one session of `spec` over 127.0.0.1:0.
///
/// # Errors
/// Returns a description of the first server, client or progress failure.
pub fn run_session(
    spec: &RunSpec,
    warmup: usize,
    window: Duration,
    on_window: &mut dyn FnMut(usize),
) -> Result<NetSession, String> {
    let rounds = counter("net.server.rounds");
    let tx = counter("net.server.wire_tx_bytes");
    let (base, tx0) = (rounds.get(), tx.get());
    let total = spec.rounds as u64;
    let start = Instant::now();
    let server = NetServer::bind(ServerOpts {
        spec: spec.clone(),
        ..ServerOpts::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    std::thread::scope(|s| {
        let srv = s.spawn(move || {
            let start = Instant::now();
            let out = server.serve();
            (
                ThreadSpan {
                    start,
                    end: Instant::now(),
                },
                out,
            )
        });
        let clients: Vec<_> = (0..spec.clients as u32)
            .map(|id| {
                s.spawn(move || {
                    let start = Instant::now();
                    let out = run_client(&ClientOpts::new(addr, id));
                    (
                        ThreadSpan {
                            start,
                            end: Instant::now(),
                        },
                        out,
                    )
                })
            })
            .collect();
        let progress = (|| {
            let (_, welcomed) = next_increment(&|| tx.get(), tx0, STALL)?;
            let join_ms = welcomed.duration_since(start).as_secs_f64() * 1e3;
            let read = || rounds.get() - base;
            let mut done = 0;
            while done < warmup as u64 {
                done = next_increment(&read, done, STALL)?.0;
            }
            let setup_s = start.elapsed().as_secs_f64();
            let window_ms = sample_windows(&read, total, window, STALL, on_window)?;
            Ok::<_, String>((join_ms, setup_s, window_ms))
        })();
        // Join everything before reporting, whatever happened above.
        let (server_span, outcome) = srv.join().map_err(|_| "server thread panicked")?;
        let mut client_spans = Vec::new();
        let mut outcomes = Vec::new();
        for c in clients {
            let (span, out) = c.join().map_err(|_| "client thread panicked")?;
            client_spans.push(span);
            outcomes.push(out);
        }
        let outcome = outcome.map_err(|e| format!("serve: {e}"))?;
        let clients = outcomes
            .into_iter()
            .map(|o| o.map(|o| (o.rounds_done, o.wire_bytes)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("run_client: {e}"))?;
        let (join_ms, setup_s, window_ms) = progress?;
        Ok(NetSession {
            setup_s,
            join_ms,
            window_ms,
            outcome,
            clients,
            server_span,
            client_spans,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn windows_divide_wall_time_by_rounds_completed() {
        // A fake server completing one round per millisecond, 400 rounds.
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = Instant::now();
                for i in 1..=400u64 {
                    while t0.elapsed() < Duration::from_millis(i) {
                        std::hint::spin_loop();
                    }
                    counter.store(i, Ordering::SeqCst);
                }
            });
            let mut opened = Vec::new();
            let samples = sample_windows(
                &|| counter.load(Ordering::SeqCst),
                400,
                Duration::from_millis(40),
                Duration::from_secs(5),
                &mut |i| opened.push(i),
            )
            .unwrap();
            // 400 ms of progress in 40 ms windows: several samples, each
            // close to 1 ms per round (sleep overshoot lengthens a window
            // and the rounds it spans alike).
            assert!(samples.len() >= 4 && samples.len() <= 10, "{samples:?}");
            assert!(
                samples.iter().all(|&ms| (0.5..2.0).contains(&ms)),
                "{samples:?}"
            );
            assert_eq!(
                opened[..samples.len()],
                (0..samples.len()).collect::<Vec<_>>()[..]
            );
        });
    }

    #[test]
    fn a_stuck_counter_is_an_error() {
        let err = sample_windows(
            &|| 3,
            10,
            Duration::from_millis(5),
            Duration::from_millis(50),
            &mut |_| {},
        )
        .unwrap_err();
        assert!(err.contains("stuck at 3"), "{err}");
    }
}
