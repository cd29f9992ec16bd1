//! Heterogeneous clients (§7.7): two stragglers complete only 25% / 50% of
//! each round. FedAvg drops their updates; FedProx keeps them with a
//! proximal term; stacking APF on FedProx keeps the accuracy while cutting
//! communication.
//!
//! ```text
//! cargo run --release --example fedprox_stragglers
//! ```

use apf::ApfConfig;
use apf_data::{classes_per_client_partition, synth_images_split, with_label_noise};
use apf_fedsim::{ApfStrategy, FlConfig, FlRunner, FullSync, SyncStrategy};
use apf_nn::models;

fn main() {
    let seed = 13;
    let clients = 5;
    let train = with_label_noise(&synth_images_split(clients * 150, seed, 0), 0.2, seed);
    let test = synth_images_split(200, seed, 1);
    let parts = classes_per_client_partition(train.labels(), clients, 2, seed);
    let cfg = FlConfig {
        local_iters: 8,
        rounds: 50,
        batch_size: 16,
        eval_every: 5,
        seed,
        parallel: false,
        ..FlConfig::default()
    };

    type RunSpec = (&'static str, Box<dyn SyncStrategy>, bool, Option<f32>);
    let runs: Vec<RunSpec> = vec![
        (
            "fedavg (drops stragglers)",
            Box::new(FullSync::new()),
            true,
            None,
        ),
        (
            "fedprox (mu=0.01)",
            Box::new(FullSync::new()),
            false,
            Some(0.01),
        ),
        (
            "fedprox + apf",
            Box::new(
                ApfStrategy::new(ApfConfig {
                    check_every_rounds: 2,
                    stability_threshold: 0.1,
                    ema_alpha: 0.9,
                    seed,
                    ..ApfConfig::default()
                })
                .unwrap(),
            ),
            false,
            Some(0.01),
        ),
    ];
    println!(
        "{:<28} {:>9} {:>12} {:>9}",
        "scheme", "best_acc", "transfer", "frozen"
    );
    for (name, strategy, drop, mu) in runs {
        let mut builder = FlRunner::builder(models::lenet5, cfg.clone())
            .optimizer(apf_fedsim::OptimizerKind::Adam {
                lr: 0.001,
                weight_decay: 0.01,
            })
            .clients_from_partition(&train, &parts)
            .straggler(0, 0.25)
            .straggler(1, 0.5)
            .test_set(test.clone())
            .strategy(strategy);
        if drop {
            builder = builder.config(|c| c.drop_stragglers = true);
        }
        if let Some(mu) = mu {
            builder = builder.config(|c| c.prox_mu = Some(mu));
        }
        let mut runner = builder.build();
        let log = runner.run();
        println!(
            "{:<28} {:>9.3} {:>9.2} MB {:>8.1}%",
            name,
            log.best_accuracy(),
            log.total_bytes() as f64 / 1e6,
            log.mean_frozen_ratio() * 100.0,
        );
    }
}
