//! Divergence-report precision: a corrupted record names exactly the
//! first diverging step and the right field class, and clean records
//! verify clean for every shipped controller × every shipped generator.

use adaptive_photonics::collectives::workload::generators::{
    OnOffBursty, RandomPermutations, TrainingLoop,
};
use adaptive_photonics::prelude::*;
use adaptive_photonics::replay::{Frame, ReplayRecord};

const N: usize = 8;

fn exp(workload: impl Workload + 'static) -> Experiment<adaptive_photonics::experiment::Streaming> {
    Experiment::domain(topology::builders::ring_unidirectional(N).unwrap())
        .reconfig(ReconfigModel::constant(10e-6).unwrap())
        .controller(Greedy)
        .workload(workload)
}

fn training() -> TrainingLoop {
    TrainingLoop::new(N, 2, 1e6, 8e6, Some(4)).unwrap()
}

fn recorded_training_record() -> ReplayRecord {
    let mut e = exp(training()).record();
    e.simulate_summary(usize::MAX).unwrap();
    e.take_record().unwrap()
}

/// Re-derives a frame's digest for one field class after perturbing the
/// underlying value is overkill for a hash record — flipping the stored
/// digest *is* the corruption, exactly what bit-rot or a diverging
/// re-execution produces.
fn corrupt(record: &ReplayRecord, frame: usize, f: impl FnOnce(&mut Frame)) -> ReplayRecord {
    let mut r = record.clone();
    f(&mut r.frames[frame]);
    r
}

#[test]
fn corrupted_decision_is_localized() {
    let record = recorded_training_record();
    assert!(record.frames.len() >= 8);
    let bad = corrupt(&record, 5, |f| f.decision ^= 1);
    let mut e = exp(training());
    let report = e.verify(&bad).unwrap();
    let d = report.first.expect("must diverge");
    assert_eq!(d.frame, 5);
    assert_eq!(d.step, record.frames[5].step);
    assert_eq!(d.class, FieldClass::Decision);
}

#[test]
fn corrupted_rate_is_localized() {
    let record = recorded_training_record();
    let bad = corrupt(&record, 3, |f| f.rates ^= 0xDEAD_BEEF);
    let report = exp(training()).verify(&bad).unwrap();
    let d = report.first.expect("must diverge");
    assert_eq!((d.frame, d.class), (3, FieldClass::Rates));
}

#[test]
fn corrupted_accounting_total_is_localized() {
    let record = recorded_training_record();
    let last = record.frames.len() - 1;
    let bad = corrupt(&record, last, |f| {
        f.accounting = f.accounting.wrapping_add(1)
    });
    let report = exp(training()).verify(&bad).unwrap();
    let d = report.first.expect("must diverge");
    assert_eq!((d.frame, d.class), (last, FieldClass::Accounting));
    // Every frame before the corrupted one still matched.
    assert!(report.to_string().contains("accounting class"), "{report}");
}

#[test]
fn corrupted_timing_and_trace_are_localized() {
    let record = recorded_training_record();
    let bad = corrupt(&record, 2, |f| f.timing ^= 1);
    let d = exp(training()).verify(&bad).unwrap().first.unwrap();
    assert_eq!((d.frame, d.class), (2, FieldClass::Timing));

    // Trace-event divergence (e.g. reordered events) classifies as timing.
    let bad = corrupt(&record, 4, |f| f.trace ^= 1);
    let d = exp(training()).verify(&bad).unwrap().first.unwrap();
    assert_eq!((d.frame, d.class), (4, FieldClass::Timing));
}

#[test]
fn earliest_of_several_corruptions_wins() {
    let record = recorded_training_record();
    let mut bad = corrupt(&record, 6, |f| f.rates ^= 1);
    bad.frames[1].timing ^= 1;
    let d = exp(training()).verify(&bad).unwrap().first.unwrap();
    assert_eq!((d.frame, d.class), (1, FieldClass::Timing));
}

#[test]
fn every_controller_and_generator_verifies_clean() {
    // No false positives: a faithful record of every shipped controller ×
    // every shipped generator re-executes to the identical hash chain.
    type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload>>;
    let workloads: Vec<(&str, WorkloadFactory)> = vec![
        ("training-loop", Box::new(|| Box::new(training()))),
        (
            "random-permutations",
            Box::new(|| Box::new(RandomPermutations::new(N, 4e6, Some(10), 7).unwrap())),
        ),
        (
            "on-off-bursty",
            Box::new(|| Box::new(OnOffBursty::new(N, 2e6, 3, 2, Some(12), 11).unwrap())),
        ),
    ];
    for controller in adaptive_photonics::core::controller::shipped() {
        for (name, make) in &workloads {
            let mut rec = Experiment::domain(topology::builders::ring_unidirectional(N).unwrap())
                .reconfig(ReconfigModel::constant(10e-6).unwrap())
                .controller(controller)
                .workload(make())
                .record();
            rec.simulate_summary(usize::MAX).unwrap();
            let record = rec.take_record().unwrap();
            assert!(!record.frames.is_empty(), "{name} recorded nothing");

            let mut fresh = Experiment::domain(topology::builders::ring_unidirectional(N).unwrap())
                .reconfig(ReconfigModel::constant(10e-6).unwrap())
                .controller(controller)
                .workload(make());
            let report = fresh.verify(&record).unwrap();
            assert!(
                report.is_clean(),
                "{} × {name}: {report}",
                controller.name()
            );
        }
    }
}

#[test]
fn records_from_the_full_report_path_also_verify_clean() {
    // `simulate()` (full per-step reports) and `verify` (totals path)
    // must hash identically — the synthesized Decision events make the
    // two faces bit-compatible.
    let mut e = exp(training()).record();
    e.simulate().unwrap();
    let record = e.take_record().unwrap();
    let report = exp(training()).verify(&record).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn wrong_controller_or_workload_diverges() {
    let record = recorded_training_record();

    // A different controller reads the same stream but decides
    // differently somewhere — verify must not report clean.
    let mut other = Experiment::domain(topology::builders::ring_unidirectional(N).unwrap())
        .reconfig(ReconfigModel::constant(10e-6).unwrap())
        .controller(AlwaysReconfigure)
        .workload(training());
    let report = other.verify(&record).unwrap();
    assert!(!report.is_clean());

    // A shorter workload re-executes fewer steps: length divergence.
    let mut shorter = exp(TrainingLoop::new(N, 2, 1e6, 8e6, Some(2)).unwrap());
    let report = shorter.verify(&record).unwrap();
    assert!(!report.is_clean());
    assert!(report.reexec_len < report.recorded_len);
}
