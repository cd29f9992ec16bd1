//! Net-vs-sim parity beyond the MLP: a LeNet-5 spec with Adam, label noise,
//! a Dirichlet partition and a non-default controller, served by an
//! in-process server to client threads over real TCP, must reproduce
//! `RunSpec::build_runner()` bit for bit. This is what `make_client` and
//! `eval_setup` owe every model the spec can name.

use std::time::Duration;

use apf_fedsim::{
    Controller, PartitionKind, RunSpec, SpecModel, SpecOptimizer, SpecStrategy, Trajectory,
};
use apf_net::{run_client, ClientOpts, NetServer, ServerOpts};

fn lenet_spec() -> RunSpec {
    RunSpec {
        clients: 2,
        rounds: 2,
        local_iters: 2,
        batch_size: 8,
        train_n: 48,
        test_n: 24,
        eval_batch: 24,
        seed: 42,
        model: SpecModel::Lenet5,
        data_seed: 42,
        optimizer: SpecOptimizer::Adam,
        lr: 0.001,
        momentum: 0.0,
        weight_decay: 0.01,
        label_noise: 0.2,
        partition: PartitionKind::Dirichlet {
            alpha: 1.0,
            seed: 42,
        },
        strategy: SpecStrategy::Apf {
            check_every: 1,
            threshold: 0.1,
            ema_alpha: 0.95,
            f16: false,
        },
        controller: Controller::Aimd {
            increment: 2,
            decrease_factor: 2,
        },
        ..RunSpec::golden()
    }
}

#[test]
fn networked_lenet_run_is_bitwise_identical_to_simulator() {
    let spec = lenet_spec();
    assert_eq!(RunSpec::parse(&spec.canonical()).unwrap(), spec);
    let server = NetServer::bind(ServerOpts {
        addr: "127.0.0.1:0".to_owned(),
        spec: spec.clone(),
        join_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(30),
    })
    .expect("bind");
    let addr = server.addr();
    let clients: Vec<_> = (0..spec.clients as u32)
        .map(|id| std::thread::spawn(move || run_client(&ClientOpts::new(addr, id))))
        .collect();
    let outcome = server.serve().expect("server run");
    for c in clients {
        let c = c.join().unwrap();
        assert!(c.is_ok(), "client failed: {:?}", c.err());
    }
    assert!(outcome.lost_clients.is_empty());

    let mut runner = spec.build_runner();
    let sim = runner.run().clone();
    assert_eq!(sim.records.len(), 2);
    if let Some(diff) = Trajectory::from_log(&sim).diff(&Trajectory::from_log(&outcome.log)) {
        panic!("net and sim trajectories diverge: {diff}");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&outcome.global), bits(runner.global()));
    // Both runs record the same spec, so their ledger records pair.
    assert_eq!(outcome.log.spec, sim.spec);
    assert_eq!(sim.spec, Some(spec.canonical()));
}
