//! Property-based invariants over all synchronization strategies: byte
//! accounting is non-negative and bounded by full-model traffic, the global
//! model matches strategy semantics, and APF's client lockstep holds under
//! random trajectories. (On `apf-testkit`.)

use apf::{ApfConfig, ApfVariant};
use apf_fedsim::{ApfStrategy, Cmfl, FullSync, Gaia, PartialSync, SyncStrategy};
use apf_testkit::{prop_assert, prop_assert_eq, property, u64s, usizes};

/// Drives a strategy with scripted pseudo-random local trajectories and
/// returns the per-round comm reports.
fn drive(
    strategy: &mut dyn SyncStrategy,
    n: usize,
    clients: usize,
    rounds: u64,
    seed: u64,
) -> Vec<apf_fedsim::RoundComm> {
    let init = vec![0.0f32; n];
    strategy.init(&init, clients);
    let mut locals = vec![init.clone(); clients];
    let mut global = init;
    let weights = vec![1.0f32; clients];
    let mut out = Vec::new();
    for r in 0..rounds {
        for (i, l) in locals.iter_mut().enumerate() {
            for (j, v) in l.iter_mut().enumerate() {
                let h = apf_tensor::splitmix64(seed ^ (r * 7919 + i as u64 * 131 + j as u64));
                let noise = ((h % 1000) as f32 / 1000.0 - 0.5) * 0.2;
                let drift = if j % 3 == 0 { 0.02 } else { 0.0 };
                *v += drift + noise;
            }
            strategy.post_local_iteration(r, i, l);
        }
        out.push(strategy.sync_round(r, &mut locals, &weights, &mut global));
    }
    out
}

fn all_strategies(n: usize, seed: u64) -> Vec<Box<dyn SyncStrategy>> {
    let cfg = ApfConfig {
        check_every_rounds: 1,
        stability_threshold: 0.1,
        ema_alpha: 0.9,
        seed,
        ..ApfConfig::default()
    };
    let _ = n;
    vec![
        Box::new(FullSync::new()),
        Box::new(PartialSync::new(0.1, 0.9, 1)),
        Box::new(ApfStrategy::new(cfg).unwrap()),
        Box::new(
            ApfStrategy::new(ApfConfig {
                variant: ApfVariant::Sharp { prob: 0.3 },
                ..cfg
            })
            .unwrap(),
        ),
        Box::new(Gaia::new(0.01)),
        Box::new(Cmfl::new(0.8, 0.99)),
    ]
}

property! {
    [12]
    fn bytes_bounded_by_full_model_traffic(
        n in usizes(4..64),
        clients in usizes(1..5),
        rounds in u64s(1..12),
        seed in u64s(0..500),
    ) {
        for mut s in all_strategies(n, seed) {
            let reports = drive(s.as_mut(), n, clients, rounds, seed);
            let full = (clients * n * 8) as u64; // f32 up + down per client
            for (r, c) in reports.iter().enumerate() {
                // Sparse formats pay 8 bytes/scalar, so the ceiling is 2x
                // the dense full-model bill.
                prop_assert!(
                    c.bytes_up + c.bytes_down <= 2 * full * 2,
                    "{} round {}: {} bytes", s.name(), r, c.bytes_up + c.bytes_down
                );
                prop_assert!(c.max_client_up <= c.bytes_up.max(1));
                prop_assert!((0.0..=1.0).contains(&c.frozen_ratio), "{}", c.frozen_ratio);
            }
        }
    }

    [12]
    fn full_sync_strategies_keep_clients_identical(
        n in usizes(4..48),
        clients in usizes(2..5),
        rounds in u64s(1..10),
        seed in u64s(0..500),
    ) {
        // Strategies that re-distribute a consistent model must leave every
        // client bit-identical after each round.
        let cfg = ApfConfig {
            check_every_rounds: 1,
            stability_threshold: 0.1,
            ema_alpha: 0.9,
            seed,
            ..ApfConfig::default()
        };
        let strategies: Vec<Box<dyn SyncStrategy>> = vec![
            Box::new(FullSync::new()),
            Box::new(ApfStrategy::new(cfg).unwrap()),
            Box::new(Cmfl::new(0.8, 0.99)),
        ];
        for mut s in strategies {
            let init = vec![0.0f32; n];
            s.init(&init, clients);
            let mut locals = vec![init.clone(); clients];
            let mut global = init;
            let weights = vec![1.0f32; clients];
            for r in 0..rounds {
                for (i, l) in locals.iter_mut().enumerate() {
                    for (j, v) in l.iter_mut().enumerate() {
                        let h = apf_tensor::splitmix64(seed ^ (r * 31 + i as u64 * 7 + j as u64));
                        *v += ((h % 100) as f32 / 100.0) - 0.5;
                    }
                    s.post_local_iteration(r, i, l);
                }
                s.sync_round(r, &mut locals, &weights, &mut global);
                for l in &locals[1..] {
                    prop_assert_eq!(&locals[0], l, "{} diverged at round {}", s.name(), r);
                }
                prop_assert_eq!(&global, &locals[0], "{} global != locals", s.name());
            }
        }
    }

    [12]
    fn gaia_never_loses_mass_silently(
        n in usizes(2..32),
        seed in u64s(0..500),
    ) {
        let _ = seed;
        // Single client: whatever the client learned must eventually reach
        // the global model (residual accumulation), so after enough rounds
        // of a constant drift the global tracks the local.
        let mut s = Gaia::new(0.05);
        let init = vec![1.0f32; n];
        s.init(&init, 1);
        let mut locals = vec![init.clone()];
        let mut global = init;
        for r in 0..30u64 {
            for v in locals[0].iter_mut() {
                *v += 0.05;
            }
            s.sync_round(r, &mut locals, &[1.0], &mut global);
        }
        // Local has drifted by 1.5 total; global must have followed to
        // within the not-yet-shipped residual of a couple rounds.
        for (j, (&g, &l)) in global.iter().zip(&locals[0]).enumerate() {
            prop_assert!(
                (l - g).abs() < 0.5,
                "scalar {} residual {} never shipped", j, l - g
            );
        }
    }
}
