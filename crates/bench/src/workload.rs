//! Synthetic workload generators.
//!
//! The paper's framework "applies to any collective communication algorithm
//! (including custom ones) that can be expressed as a sequence of
//! matchings" (§3.3). These generators produce such custom sequences —
//! random permutation schedules with controllable volume skew — used by the
//! ablation harness and the property tests to exercise the scheduler beyond
//! the textbook collectives.

use aps_collectives::{CollectiveError, CollectiveKind, Schedule, Step};
use rand::prelude::*;

/// A random full permutation without fixed points (derangement) — the
/// single implementation lives with the streaming generators in
/// `aps-collectives` ([`aps_collectives::workload::generators`]).
pub use aps_collectives::workload::generators::random_derangement;

/// A custom collective: `steps` random derangements with volumes drawn
/// log-uniformly from `[min_bytes, max_bytes]`.
///
/// # Errors
///
/// Propagates schedule validation errors (none for valid inputs).
pub fn random_schedule(
    n: usize,
    steps: usize,
    min_bytes: f64,
    max_bytes: f64,
    seed: u64,
) -> Result<Schedule, CollectiveError> {
    assert!(
        min_bytes > 0.0 && max_bytes >= min_bytes,
        "bad volume range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let ratio = max_bytes / min_bytes;
    let steps = (0..steps)
        .map(|_| Step {
            matching: random_derangement(n, &mut rng),
            bytes_per_pair: min_bytes * ratio.powf(rng.random::<f64>()),
        })
        .collect();
    Schedule::new(n, CollectiveKind::Composite, "random", steps)
}

/// One simulated training iteration of a data+expert-parallel model: per
/// layer a gradient AllReduce (bandwidth-optimal) and, for MoE layers, an
/// All-to-All token shuffle — concatenated into one composite schedule
/// (§3.3: the framework "applies … even to a sequence of such collective
/// communication operations e.g., All-to-All after an AllReduce").
///
/// # Errors
///
/// Propagates collective construction errors.
pub fn training_iteration(
    n: usize,
    layers: usize,
    grad_bytes_per_layer: f64,
    moe_every: usize,
    moe_buffer_bytes: f64,
) -> Result<Schedule, CollectiveError> {
    let mut composite: Option<Schedule> = None;
    for layer in 0..layers {
        let ar = aps_collectives::allreduce::any_n::build(n, grad_bytes_per_layer)?;
        composite = Some(match composite {
            None => ar.schedule,
            Some(c) => c.then(ar.schedule)?,
        });
        if moe_every > 0 && layer % moe_every == 0 {
            let a2a = aps_collectives::alltoall::linear_shift(n, moe_buffer_bytes)?;
            composite = Some(composite.take().expect("set above").then(a2a.schedule)?);
        }
    }
    composite.ok_or(CollectiveError::TooFewNodes { n: 0, min: 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derangements_have_no_fixed_points() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2, 3, 5, 16, 64] {
            let m = random_derangement(n, &mut rng);
            assert!(m.is_full());
            assert!(m.pairs().all(|(s, d)| s != d));
        }
    }

    #[test]
    fn random_schedule_is_seed_deterministic() {
        let a = random_schedule(16, 10, 1e3, 1e6, 42).unwrap();
        let b = random_schedule(16, 10, 1e3, 1e6, 42).unwrap();
        let c = random_schedule(16, 10, 1e3, 1e6, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_steps(), 10);
        for s in a.steps() {
            assert!(s.bytes_per_pair >= 1e3 && s.bytes_per_pair <= 1e6);
        }
    }

    #[test]
    fn training_iteration_composes() {
        let s = training_iteration(16, 4, 1e6, 2, 2e6).unwrap();
        // 4 AllReduce (2·log₂16 = 8 steps each) + 2 All-to-All (15 steps).
        assert_eq!(s.num_steps(), 4 * 8 + 2 * 15);
        assert_eq!(s.kind(), aps_collectives::CollectiveKind::Composite);
        assert!(s.algorithm().contains("halving-doubling"));
        assert!(s.algorithm().contains("linear-shift"));
        // No MoE layers at all.
        let dense = training_iteration(16, 3, 1e6, 0, 0.0);
        assert!(dense.is_err() || dense.unwrap().num_steps() == 24);
    }
}
