//! Shipped lazy demand sources.
//!
//! Three generators cover the open-ended workload shapes the photonic
//! scale-up literature anticipates (cf. the training-loop workloads of
//! "Novel High-Scalability Architecture for Photonic Deep Learning"):
//!
//! | generator | shape |
//! |---|---|
//! | [`TrainingLoop`] | pipeline-parallel DNN epochs: fwd → bwd → gradient AllReduce |
//! | [`RandomPermutations`] | seeded random derangement per step (adversarial permutation traffic) |
//! | [`OnOffBursty`] | seeded on/off bursts of uniform shift traffic with idle gaps |
//!
//! All three are pure functions of their constructor arguments (including
//! the RNG seed): replaying after [`Workload::reset`] is bit-identical on
//! any machine and at any `APS_THREADS` setting.

use super::{Workload, WorkloadCtx};
use crate::allreduce;
use crate::error::CollectiveError;
use crate::schedule::Step;
use aps_matrix::Matching;
use rand::prelude::*;

/// Validates a node count and a per-step volume shared by the generators.
fn check(n: usize, bytes: f64) -> Result<(), CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    if !bytes.is_finite() || bytes < 0.0 {
        return Err(CollectiveError::BadMessageSize(bytes));
    }
    Ok(())
}

/// A uniformly random full permutation without fixed points
/// (derangement), via rejection sampling — the classic adversarial
/// pattern for ring-based fabrics.
pub fn random_derangement(n: usize, rng: &mut StdRng) -> Matching {
    assert!(n >= 2, "derangements need n >= 2");
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        perm.shuffle(rng);
        if perm.iter().enumerate().all(|(i, &p)| i != p) {
            break;
        }
    }
    let pairs: Vec<(usize, usize)> = perm.iter().enumerate().map(|(i, &p)| (i, p)).collect();
    Matching::from_pairs(n, &pairs).expect("derangement is a valid matching")
}

/// Phase of a [`TrainingLoop`] epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fwd,
    Bwd,
    AllReduce,
}

/// A pipeline-parallel DNN training loop: each epoch streams
/// `microbatches` forward activations down the pipeline (`shift(+1)`),
/// the same number of backward gradients up it (`shift(−1)`), then a
/// bandwidth-optimal gradient AllReduce — without ever materializing the
/// epoch sequence. `epochs: None` trains forever.
///
/// ```
/// use aps_collectives::workload::{generators::TrainingLoop, materialize, Workload};
///
/// let mut train = TrainingLoop::new(8, 4, 1e6, 32e6, Some(2)).unwrap();
/// // Per epoch: 4 fwd + 4 bwd + the 2·log₂(8) = 6 AllReduce steps.
/// assert_eq!(train.size_hint(), (28, Some(28)));
/// let epoch_pair = materialize(&mut train, 100).unwrap();
/// assert_eq!(epoch_pair.num_steps(), 28);
/// train.reset(); // replays bit-identically
/// assert_eq!(
///     materialize(&mut train, 100).unwrap().steps(),
///     epoch_pair.steps()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TrainingLoop {
    n: usize,
    microbatches: usize,
    /// The `shift(+1)` activation step, precomputed so steady-state pulls
    /// via [`Workload::next_step_into`] never build a matching.
    fwd_step: Step,
    /// The `shift(−1)` gradient step, precomputed like `fwd_step`.
    bwd_step: Step,
    /// One epoch's AllReduce steps, precomputed once (O(per-epoch), not
    /// O(total steps)).
    allreduce_steps: Vec<Step>,
    epochs: Option<usize>,
    epoch: usize,
    phase: Phase,
    idx: usize,
    name: String,
}

impl TrainingLoop {
    /// A training loop on an `n`-stage pipeline: `microbatches` activation
    /// transfers of `activation_bytes` each way per epoch, then an
    /// AllReduce of `grad_bytes` gradients; `epochs: None` streams
    /// forever.
    ///
    /// # Errors
    ///
    /// Rejects `n < 2`, bad volumes, and AllReduce construction failures.
    pub fn new(
        n: usize,
        microbatches: usize,
        activation_bytes: f64,
        grad_bytes: f64,
        epochs: Option<usize>,
    ) -> Result<Self, CollectiveError> {
        check(n, activation_bytes)?;
        let allreduce_steps = allreduce::any_n::build(n, grad_bytes)?
            .schedule
            .into_steps();
        let fwd_step = Step {
            matching: Matching::shift(n, 1).expect("n ≥ 2"),
            bytes_per_pair: activation_bytes,
        };
        let bwd_step = Step {
            matching: Matching::shift(n, n - 1).expect("n ≥ 2"),
            bytes_per_pair: activation_bytes,
        };
        Ok(Self {
            n,
            microbatches,
            fwd_step,
            bwd_step,
            allreduce_steps,
            epochs,
            epoch: 0,
            phase: Phase::Fwd,
            idx: 0,
            name: "training-loop".into(),
        })
    }

    /// Steps in one epoch.
    fn per_epoch(&self) -> usize {
        2 * self.microbatches + self.allreduce_steps.len()
    }

    /// Steps already emitted in the current epoch.
    fn emitted_in_epoch(&self) -> usize {
        match self.phase {
            Phase::Fwd => self.idx,
            Phase::Bwd => self.microbatches + self.idx,
            Phase::AllReduce => 2 * self.microbatches + self.idx,
        }
    }

    /// Advances the epoch state machine one emission and returns the step
    /// to emit (`None` when the configured epochs are exhausted). Both
    /// pull paths share this, so `next_step` and `next_step_into` cannot
    /// drift apart; the returned reference points at precomputed storage,
    /// which is what lets `next_step_into` copy without allocating.
    fn advance(&mut self) -> Option<&Step> {
        loop {
            if self.epochs.is_some_and(|k| self.epoch >= k) {
                return None;
            }
            match self.phase {
                Phase::Fwd if self.idx < self.microbatches => {
                    self.idx += 1;
                    return Some(&self.fwd_step);
                }
                Phase::Fwd => {
                    self.phase = Phase::Bwd;
                    self.idx = 0;
                }
                Phase::Bwd if self.idx < self.microbatches => {
                    self.idx += 1;
                    return Some(&self.bwd_step);
                }
                Phase::Bwd => {
                    self.phase = Phase::AllReduce;
                    self.idx = 0;
                }
                Phase::AllReduce if self.idx < self.allreduce_steps.len() => {
                    self.idx += 1;
                    return Some(&self.allreduce_steps[self.idx - 1]);
                }
                Phase::AllReduce => {
                    self.phase = Phase::Fwd;
                    self.idx = 0;
                    self.epoch += 1;
                }
            }
        }
    }
}

impl Workload for TrainingLoop {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step(&mut self, _ctx: &WorkloadCtx) -> Option<Step> {
        self.advance().cloned()
    }

    fn next_step_into(&mut self, _ctx: &WorkloadCtx, out: &mut Step) -> bool {
        match self.advance() {
            Some(step) => {
                out.clone_from(step);
                true
            }
            None => false,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.epochs {
            None => (0, None),
            Some(k) => {
                let left = (k.saturating_sub(self.epoch)) * self.per_epoch();
                let left = left.saturating_sub(self.emitted_in_epoch().min(left));
                (left, Some(left))
            }
        }
    }

    fn reset(&mut self) {
        self.epoch = 0;
        self.phase = Phase::Fwd;
        self.idx = 0;
    }
}

/// Seeded random-permutation traffic: every step is a fresh uniformly
/// random derangement of `bytes` per pair — the adversarial pattern for
/// any static base topology. `steps: None` streams forever; the stream
/// is a pure function of the seed.
///
/// ```
/// use aps_collectives::workload::{generators::RandomPermutations, materialize, Workload};
///
/// let mut a = RandomPermutations::new(16, 1e6, Some(32), 42).unwrap();
/// let mut b = RandomPermutations::new(16, 1e6, Some(32), 42).unwrap();
/// let (sa, sb) = (
///     materialize(&mut a, 100).unwrap(),
///     materialize(&mut b, 100).unwrap(),
/// );
/// assert_eq!(sa.steps(), sb.steps()); // same seed ⇒ same stream
/// assert!(sa.steps().iter().all(|s| s.matching.is_full()));
/// ```
#[derive(Debug, Clone)]
pub struct RandomPermutations {
    n: usize,
    bytes: f64,
    steps: Option<usize>,
    seed: u64,
    rng: StdRng,
    emitted: usize,
    name: String,
}

impl RandomPermutations {
    /// `steps` random derangements of `bytes` per pair on `n` nodes,
    /// reproducible from `seed`.
    ///
    /// # Errors
    ///
    /// Rejects `n < 2` and bad volumes.
    pub fn new(
        n: usize,
        bytes: f64,
        steps: Option<usize>,
        seed: u64,
    ) -> Result<Self, CollectiveError> {
        check(n, bytes)?;
        Ok(Self {
            n,
            bytes,
            steps,
            seed,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
            name: "random-permutations".into(),
        })
    }
}

impl Workload for RandomPermutations {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step(&mut self, _ctx: &WorkloadCtx) -> Option<Step> {
        if self.steps.is_some_and(|k| self.emitted >= k) {
            return None;
        }
        self.emitted += 1;
        Some(Step {
            matching: random_derangement(self.n, &mut self.rng),
            bytes_per_pair: self.bytes,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.steps {
            None => (0, None),
            Some(k) => {
                let left = k.saturating_sub(self.emitted);
                (left, Some(left))
            }
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.emitted = 0;
    }
}

/// On/off bursty uniform traffic: alternating bursts of random cyclic
/// `shift(k)` steps at `on_bytes` per pair and idle gaps (empty-matching
/// steps). Burst and gap lengths are drawn uniformly from
/// `1..=2·mean − 1`, so `mean_on`/`mean_off` are the expected phase
/// lengths; the whole stream is a pure function of the seed.
/// `steps: None` streams forever.
///
/// ```
/// use aps_collectives::workload::{generators::OnOffBursty, materialize, Workload};
///
/// let mut w = OnOffBursty::new(8, 2e6, 3, 2, Some(64), 7).unwrap();
/// let s = materialize(&mut w, 100).unwrap();
/// assert_eq!(s.num_steps(), 64);
/// // Bursts carry full shift matchings; gaps are idle steps.
/// assert!(s.steps().iter().any(|st| st.matching.is_full()));
/// assert!(s.steps().iter().any(|st| st.matching.is_empty()));
/// ```
#[derive(Debug, Clone)]
pub struct OnOffBursty {
    n: usize,
    on_bytes: f64,
    mean_on: usize,
    mean_off: usize,
    steps: Option<usize>,
    seed: u64,
    rng: StdRng,
    emitted: usize,
    /// Steps left in the current phase; `on` is the phase polarity.
    left: usize,
    on: bool,
    name: String,
}

impl OnOffBursty {
    /// Bursty traffic on `n` nodes: ON phases of ~`mean_on` random shift
    /// steps at `on_bytes`, OFF phases of ~`mean_off` idle steps.
    ///
    /// # Errors
    ///
    /// Rejects `n < 2`, zero phase means, and bad volumes.
    pub fn new(
        n: usize,
        on_bytes: f64,
        mean_on: usize,
        mean_off: usize,
        steps: Option<usize>,
        seed: u64,
    ) -> Result<Self, CollectiveError> {
        check(n, on_bytes)?;
        if mean_on == 0 || mean_off == 0 {
            return Err(CollectiveError::ConstructionInvariant(
                "on/off phase means must be positive",
            ));
        }
        let mut w = Self {
            n,
            on_bytes,
            mean_on,
            mean_off,
            steps,
            seed,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
            left: 0,
            on: false,
            name: "on-off-bursty".into(),
        };
        w.start_phase(true);
        Ok(w)
    }

    /// Enters the given phase with a freshly drawn length.
    fn start_phase(&mut self, on: bool) {
        let mean = if on { self.mean_on } else { self.mean_off };
        self.on = on;
        self.left = self.rng.random_range(1..=2 * mean - 1);
    }
}

impl Workload for OnOffBursty {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_step(&mut self, _ctx: &WorkloadCtx) -> Option<Step> {
        if self.steps.is_some_and(|k| self.emitted >= k) {
            return None;
        }
        if self.left == 0 {
            let next_on = !self.on;
            self.start_phase(next_on);
        }
        self.left -= 1;
        self.emitted += 1;
        Some(if self.on {
            let k = self.rng.random_range(1..self.n);
            Step {
                matching: Matching::shift(self.n, k).expect("0 < k < n"),
                bytes_per_pair: self.on_bytes,
            }
        } else {
            Step {
                matching: Matching::empty(self.n),
                bytes_per_pair: 0.0,
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.steps {
            None => (0, None),
            Some(k) => {
                let left = k.saturating_sub(self.emitted);
                (left, Some(left))
            }
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.emitted = 0;
        self.left = 0;
        self.on = false;
        self.start_phase(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::materialize;

    #[test]
    fn training_loop_phases_and_hints() {
        let mut w = TrainingLoop::new(8, 3, 1e5, 1e6, Some(2)).unwrap();
        let per_epoch = 2 * 3
            + allreduce::any_n::build(8, 1e6)
                .unwrap()
                .schedule
                .num_steps();
        assert_eq!(w.size_hint(), (2 * per_epoch, Some(2 * per_epoch)));
        let s = materialize(&mut w, 10_000).unwrap();
        assert_eq!(s.num_steps(), 2 * per_epoch);
        // Fwd steps are shift(+1), bwd steps shift(−1).
        assert_eq!(s.steps()[0].matching, Matching::shift(8, 1).unwrap());
        assert_eq!(s.steps()[3].matching, Matching::shift(8, 7).unwrap());
        // Epochs are identical.
        assert_eq!(s.steps()[..per_epoch], s.steps()[per_epoch..]);
        // Infinite training never exhausts.
        let mut inf = TrainingLoop::new(4, 1, 1e3, 1e4, None).unwrap();
        assert_eq!(inf.size_hint().1, None);
        for i in 0..100 {
            assert!(inf.next_step(&WorkloadCtx::at(i)).is_some());
        }
    }

    #[test]
    fn random_permutations_replay_from_seed() {
        let mut w = RandomPermutations::new(12, 1e5, Some(20), 9).unwrap();
        let a = materialize(&mut w, 100).unwrap();
        w.reset();
        let b = materialize(&mut w, 100).unwrap();
        assert_eq!(a.steps(), b.steps());
        let mut other = RandomPermutations::new(12, 1e5, Some(20), 10).unwrap();
        let c = materialize(&mut other, 100).unwrap();
        assert_ne!(a.steps(), c.steps());
        for s in a.steps() {
            assert!(s.matching.is_full());
            assert!(s.matching.pairs().all(|(x, y)| x != y));
        }
    }

    #[test]
    fn bursty_alternates_phases_deterministically() {
        let mut w = OnOffBursty::new(8, 1e6, 4, 2, Some(200), 3).unwrap();
        let a = materialize(&mut w, 1000).unwrap();
        w.reset();
        let b = materialize(&mut w, 1000).unwrap();
        assert_eq!(a.steps(), b.steps());
        // The stream opens in an ON phase and alternates contiguous runs.
        assert!(!a.steps()[0].matching.is_empty());
        let mut runs = 1;
        for pair in a.steps().windows(2) {
            if pair[0].matching.is_empty() != pair[1].matching.is_empty() {
                runs += 1;
            }
        }
        assert!(runs > 2, "expected several on/off phases, got {runs}");
        // Idle steps carry no volume.
        for s in a.steps() {
            if s.matching.is_empty() {
                assert_eq!(s.bytes_per_pair, 0.0);
            } else {
                assert_eq!(s.bytes_per_pair, 1e6);
            }
        }
        assert!(OnOffBursty::new(8, 1e6, 0, 2, None, 0).is_err());
    }
}
