//! One mask per manager per round, counted: `apf.manager.mask_builds` is
//! bumped by the one function that derives a freeze mask from scratch, so an
//! R-round run must read exactly R + 1 per manager (round 0's at
//! construction, then one at the end of every `finish_round`) — in the
//! simulator, in the parameter server, and in every networked client. A
//! call site that goes back to rebuilding the round's mask shows up here as
//! a count that is off by a multiple of R.
//!
//! The counter is process-global, which is why this binary holds one test.

use std::time::Duration;

use apf_fedsim::RunSpec;
use apf_net::{run_client, ClientOpts, NetServer, ServerOpts};

fn builds() -> u64 {
    apf_trace::metrics::counter("apf.manager.mask_builds").get()
}

/// Builds counted while `f` runs.
fn builds_during(f: impl FnOnce()) -> u64 {
    let before = builds();
    f();
    builds() - before
}

#[test]
fn an_r_round_run_builds_r_plus_one_masks_per_manager() {
    let spec = RunSpec::golden();
    let rounds = spec.rounds as u64;
    assert!(rounds >= 3 && spec.apf_config().is_some());

    // FlRunner: one manager for the fleet, local rollback hooks included.
    let sim = builds_during(|| {
        spec.build_runner().run();
    });
    assert_eq!(sim, rounds + 1, "FlRunner");
    // The count repeats exactly.
    assert_eq!(
        builds_during(|| {
            spec.build_runner().run();
        }),
        sim
    );

    // Loopback: the server's replica plus one manager per client.
    let net = builds_during(|| {
        let server = NetServer::bind(ServerOpts {
            addr: "127.0.0.1:0".to_owned(),
            spec: spec.clone(),
            join_timeout: Duration::from_secs(20),
            io_timeout: Duration::from_secs(20),
        })
        .expect("bind");
        let addr = server.addr();
        let clients: Vec<_> = (0..spec.clients as u32)
            .map(|id| std::thread::spawn(move || run_client(&ClientOpts::new(addr, id))))
            .collect();
        let outcome = server.serve().expect("server run");
        assert!(outcome.lost_clients.is_empty());
        for c in clients {
            c.join().expect("client thread").expect("client run");
        }
    });
    assert_eq!(net, (spec.clients as u64 + 1) * (rounds + 1), "loopback");

    // PopulationRunner: the shared manager comes back from its dormant hop
    // every round holding no mask and rebuilds the next round's once — two
    // a round, not one per hook call.
    let pop = builds_during(|| {
        spec.build_population_runner().run();
    });
    assert_eq!(pop, 2 * rounds + 1, "PopulationRunner");
}
