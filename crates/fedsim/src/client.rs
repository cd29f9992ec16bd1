//! A federated client: local trainer + private shard + straggler behaviour.

use apf_data::Dataset;
use apf_nn::Trainer;
use apf_tensor::Rng;
use apf_tensor::{derive_seed, seeded_rng};

/// One edge client in the simulation.
///
/// Owns a [`Trainer`] (model + optimizer + schedule), a private data shard,
/// and a workload fraction modelling stragglers (§7.7: clients that only
/// process 25% / 50% of the expected work each round).
pub struct Client {
    trainer: Trainer,
    data: Dataset,
    batch_size: usize,
    rng: Rng,
    workload: f32,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("samples", &self.data.len())
            .field("workload", &self.workload)
            .finish()
    }
}

impl Client {
    /// Creates a client.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero or `data` is empty.
    pub fn new(trainer: Trainer, data: Dataset, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(!data.is_empty(), "client has no data");
        Client {
            trainer,
            data,
            batch_size,
            rng: seeded_rng(derive_seed(seed, 0xC11E)),
            workload: 1.0,
        }
    }

    /// Sets the straggler workload fraction in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if the fraction is outside `(0, 1]`.
    pub fn set_workload(&mut self, fraction: f32) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "workload must be in (0, 1]"
        );
        self.workload = fraction;
    }

    /// The straggler workload fraction.
    pub fn workload(&self) -> f32 {
        self.workload
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable access to the wrapped trainer.
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// The client's data shard.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Swaps in a new data shard, returning the old one (so its backing
    /// buffers can be recycled). Used by the population runner when a
    /// materialized shell is re-bound to a different registered client.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn replace_data(&mut self, data: Dataset) -> Dataset {
        assert!(!data.is_empty(), "client has no data");
        std::mem::replace(&mut self.data, data)
    }

    /// The batch-shuffle RNG state (part of a client's dormant snapshot).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the batch-shuffle RNG captured by [`Client::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = Rng::from_state(state);
    }

    /// Runs one round of local training: `ceil(workload * local_iters)`
    /// mini-batch steps, invoking `post_iteration` on the model's parameter
    /// arena, in place, after every step (the APF rollback hook, Alg. 1
    /// line 2).
    ///
    /// Returns the mean batch loss.
    ///
    /// # Panics
    /// Panics if `local_iters` is zero.
    pub fn local_round(
        &mut self,
        local_iters: usize,
        post_iteration: &(dyn Fn(&mut [f32]) + Sync),
    ) -> f32 {
        assert!(local_iters > 0, "local_iters must be positive");
        let iters = ((self.workload * local_iters as f32).ceil() as usize).max(1);
        let mut total = 0.0f32;
        let mut done = 0usize;
        while done < iters {
            // One shuffled pass, gathered batch by batch as the round uses
            // them; re-shuffle if the round needs more batches.
            let pass = self.data.batches(self.batch_size, &mut self.rng);
            for (x, y) in pass.take(iters - done) {
                total += self.trainer.train_batch(&x, &y);
                post_iteration(self.trainer.model_mut().params_mut());
                done += 1;
            }
        }
        total / iters as f32
    }

    /// The client's current flat parameter vector.
    pub fn flat_params(&mut self) -> Vec<f32> {
        self.trainer.model_mut().flat_params()
    }

    /// Overwrites the client's parameters from a flat vector.
    pub fn load_flat(&mut self, flat: &[f32]) {
        self.trainer.model_mut().load_flat(flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use apf_nn::{models, LrSchedule, Sgd};

    fn client(seed: u64) -> Client {
        // MLP expects [N, features]: reshape the image dataset.
        let ds = apf_data::synth_images_split(40, 1, seed);
        let flat = ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]);
        let trainer = Trainer::new(
            models::mlp("m", &[3 * 16 * 16, 16, 10], seed),
            Box::new(Sgd::new(0.05)),
            LrSchedule::Constant(0.05),
        );
        Client::new(
            trainer,
            Dataset::new(flat, ds.labels().to_vec(), 10),
            8,
            seed,
        )
    }

    #[test]
    fn local_round_reduces_loss() {
        let mut c = client(0);
        let noop = |_: &mut [f32]| {};
        let first = c.local_round(5, &noop);
        for _ in 0..10 {
            c.local_round(5, &noop);
        }
        let last = c.local_round(5, &noop);
        assert!(last < first, "loss {last} should drop below {first}");
    }

    #[test]
    fn straggler_does_fewer_iterations() {
        let mut c = client(1);
        c.set_workload(0.25);
        let steps_before = c.trainer().step_count();
        let noop = |_: &mut [f32]| {};
        c.local_round(8, &noop);
        assert_eq!(c.trainer().step_count() - steps_before, 2);
    }

    #[test]
    fn post_iteration_hook_sees_every_step() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut c = client(2);
        let count = AtomicUsize::new(0);
        let hook = |_: &mut [f32]| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        c.local_round(7, &hook);
        assert_eq!(count.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn hook_can_modify_params() {
        let mut c = client(3);
        let zero_hook = |p: &mut [f32]| p.iter_mut().for_each(|v| *v = 0.0);
        c.local_round(1, &zero_hook);
        assert!(c.flat_params().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "workload")]
    fn invalid_workload_panics() {
        client(4).set_workload(0.0);
    }
}
