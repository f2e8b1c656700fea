//! Property tests for the streaming workload sources: seed-replayable
//! determinism, exact size hints, and agreement between the two pull
//! paths.
//!
//! The PR 2 determinism guarantee extends to workloads: a stream is a
//! pure function of its construction arguments (including RNG seeds), so
//! replaying after `reset()` — or constructing an identical instance on
//! any other thread — yields bit-identical steps. The cross-thread half
//! of that guarantee is pinned at the workspace root
//! (`tests/workload_stream.rs`); this suite pins the single-thread half.

use aps_collectives::workload::generators::{OnOffBursty, RandomPermutations, TrainingLoop};
use aps_collectives::workload::{materialize, Workload};
use aps_collectives::{allreduce, alltoall, Schedule, Step, WorkloadCtx};
use aps_matrix::Matching;
use proptest::prelude::*;

fn drain(w: &mut dyn Workload) -> Schedule {
    materialize(w, 1_000_000).expect("bounded test workloads materialize")
}

/// Drains `w` through `next_step` (the planners' path), rewinds it, then
/// drains it through `next_step_into` into one reused `Step` (the
/// executors' path). Both drains must yield the same steps, and the call
/// that finds the stream exhausted must leave `out` untouched.
fn pull_paths_agree<W: Workload>(w: &mut W) {
    let mut by_value = Vec::new();
    while let Some(step) = w.next_step(&WorkloadCtx::at(by_value.len())) {
        by_value.push(step);
    }
    w.reset();
    let sentinel = Step {
        matching: Matching::empty(w.n()),
        bytes_per_pair: -1.0,
    };
    let mut out = sentinel.clone();
    let mut by_buffer = Vec::new();
    while w.next_step_into(&WorkloadCtx::at(by_buffer.len()), &mut out) {
        by_buffer.push(out.clone());
    }
    assert_eq!(by_value, by_buffer, "{}", w.name());
    assert_eq!(&out, by_value.last().unwrap_or(&sentinel), "{}", w.name());
}

/// [`pull_paths_agree`] on `w` itself and on `w` behind a
/// `Box<dyn Workload>`.
fn plain_and_boxed<W: Workload + Clone + 'static>(w: W) {
    pull_paths_agree(&mut w.clone());
    pull_paths_agree(&mut (Box::new(w) as Box<dyn Workload>));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_generators_replay_bit_identically(seed in any::<u64>(), exp in 1u32..5) {
        let n = (1usize << exp).max(4);
        let mut perms = RandomPermutations::new(n, 1e6, Some(24), seed).unwrap();
        let first = drain(&mut perms);
        perms.reset();
        prop_assert_eq!(first.steps(), drain(&mut perms).steps());
        // An independently constructed twin yields the same stream.
        let mut twin = RandomPermutations::new(n, 1e6, Some(24), seed).unwrap();
        prop_assert_eq!(first.steps(), drain(&mut twin).steps());

        let mut bursty = OnOffBursty::new(n, 1e6, 3, 2, Some(48), seed).unwrap();
        let first = drain(&mut bursty);
        bursty.reset();
        prop_assert_eq!(first.steps(), drain(&mut bursty).steps());
        let mut twin = OnOffBursty::new(n, 1e6, 3, 2, Some(48), seed).unwrap();
        prop_assert_eq!(first.steps(), drain(&mut twin).steps());
    }

    #[test]
    fn deterministic_generators_replay_after_partial_drain(micro in 1usize..5, pulls in 1usize..10) {
        let n = 8;
        let mut train = TrainingLoop::new(n, micro, 1e5, 1e6, Some(2)).unwrap();
        let full = drain(&mut train);
        train.reset();
        for i in 0..pulls.min(full.num_steps()) {
            // Partial drains never desynchronize the stream …
            let s = train.next_step(&WorkloadCtx::at(i)).unwrap();
            prop_assert_eq!(&s, &full.steps()[i]);
        }
        // … and reset always restarts from step 0.
        train.reset();
        prop_assert_eq!(drain(&mut train).steps(), full.steps());
    }

    #[test]
    fn size_hints_are_exact_for_bounded_streams(epochs in 1usize..5, steps in 1usize..40) {
        let n = 8;
        for w in [
            Box::new(RandomPermutations::new(n, 1e5, Some(steps), 7).unwrap()) as Box<dyn Workload>,
            Box::new(OnOffBursty::new(n, 1e5, 2, 2, Some(steps), 7).unwrap()),
            Box::new(TrainingLoop::new(n, 2, 1e5, 1e6, Some(epochs)).unwrap()),
        ] {
            let mut w = w;
            let (lo, hi) = w.size_hint();
            prop_assert_eq!(Some(lo), hi);
            let got = drain(&mut w);
            prop_assert_eq!(got.num_steps(), lo);
            prop_assert_eq!(w.size_hint(), (0, Some(0)));
        }
    }

    #[test]
    fn both_pull_paths_yield_the_same_steps(
        seed in any::<u64>(), exp in 1u32..5, micro in 0usize..4, len in 0usize..40,
    ) {
        let n = 1usize << exp;
        let schedule = allreduce::halving_doubling::build(n, 1e6)
            .unwrap()
            .schedule
            .then(alltoall::linear_shift(n, 5e5).unwrap().schedule)
            .unwrap();
        plain_and_boxed(schedule.into_workload());
        plain_and_boxed(TrainingLoop::new(n, micro, 1e5, 1e6, Some(len % 4)).unwrap());
        plain_and_boxed(RandomPermutations::new(n, 1e5, Some(len), seed).unwrap());
        plain_and_boxed(OnOffBursty::new(n, 1e5, 3, 2, Some(len), seed).unwrap());
    }
}
