//! Snapshot/resume bit-parity: an endless training loop checkpointed
//! mid-run and resumed must walk the exact same hash chain as an
//! uninterrupted run — and the tenant executor's recording feed must be
//! just as reproducible.

use adaptive_photonics::collectives::workload::generators::TrainingLoop;
use adaptive_photonics::prelude::*;
use adaptive_photonics::replay::{diff_records, Recorder, ReplayRecord};
use adaptive_photonics::sim::execute_tenants;

const N: usize = 8;
const TOTAL: usize = 10_000;
const HALF: usize = 5_000;

fn endless() -> TrainingLoop {
    TrainingLoop::new(N, 2, 1e6, 8e6, None).unwrap()
}

fn exp(
    controller: impl Controller + 'static,
) -> Experiment<adaptive_photonics::experiment::Streaming> {
    Experiment::domain(topology::builders::ring_unidirectional(N).unwrap())
        .reconfig(ReconfigModel::constant(10e-6).unwrap())
        .controller(controller)
        .workload(endless())
}

#[test]
fn endless_run_snapshots_and_resumes_bit_identically() {
    // Uninterrupted: 10k steps of an endless stream, recorded.
    let mut whole = exp(Greedy).record();
    let whole_summary = whole.simulate_summary(TOTAL).unwrap();
    assert_eq!(whole_summary.steps, TOTAL);
    let whole_record = whole.take_record().unwrap();
    assert_eq!(whole_record.frames.len(), TOTAL);

    // Interrupted: snapshot at 5k, resume to 10k.
    let mut head = exp(Greedy).record();
    let head_summary = head.simulate_summary(HALF).unwrap();
    assert_eq!(head_summary.steps, HALF);
    let snapshot = head.take_snapshot().unwrap();
    assert_eq!(snapshot.steps_done(), HALF);
    let head_record = head.take_record().unwrap();

    let mut tail = exp(Greedy).resume_from(snapshot);
    let tail_summary = tail.simulate_summary(TOTAL).unwrap();
    let tail_record = tail.take_record().unwrap();

    // The resumed summary covers the whole stream and equals the
    // uninterrupted one field for field.
    assert_eq!(tail_summary, whole_summary);

    // Hash-chain bit-parity: head frames ++ tail frames == whole frames.
    assert_eq!(tail_record.final_state, whole_record.final_state);
    let stitched: Vec<_> = head_record
        .frames
        .iter()
        .chain(&tail_record.frames)
        .copied()
        .collect();
    assert_eq!(stitched, whole_record.frames);

    // And the stitched record verifies clean against a re-execution.
    let stitched_record = ReplayRecord {
        frames: stitched,
        final_state: tail_record.final_state,
        ..whole_record.clone()
    };
    let report = diff_records(&whole_record, &stitched_record);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn snapshot_timing_does_not_leak_into_the_chain() {
    // Snapshots at several cut points all converge to the same final
    // hash — checkpointing is invisible to the simulation.
    let mut whole = exp(DpPlanned).record();
    whole.simulate_summary(600).unwrap();
    let want = whole.take_record().unwrap().final_state;

    for cut in [1, 17, 299, 599] {
        let mut head = exp(DpPlanned).record();
        head.simulate_summary(cut).unwrap();
        let snapshot = head.take_snapshot().unwrap();
        let mut tail = exp(DpPlanned).resume_from(snapshot);
        tail.simulate_summary(600).unwrap();
        assert_eq!(
            tail.take_record().unwrap().final_state,
            want,
            "cut at {cut}"
        );
    }
}

fn record_tenant_run() -> (ReplayRecord, Vec<String>) {
    let scenario = scenarios::mixed_collectives(2.0 * 1024.0 * 1024.0);
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let mut fabric = scenario.fabric(reconfig).unwrap();
    let mut recorder = Recorder::new(scenario.n, "scheduled", &scenario.name);
    let reports = execute_tenants(
        &mut fabric,
        &scenario.tenants,
        &RunConfig::paper_defaults(),
        Some(&mut recorder),
    )
    .unwrap();
    let names = scenario.tenants.iter().map(|t| t.name.clone()).collect();
    for r in &reports {
        r.as_ref().unwrap();
    }
    (recorder.into_record(), names)
}

#[test]
fn tenant_executor_records_reproducibly() {
    let (a, names) = record_tenant_run();
    let (b, _) = record_tenant_run();
    assert_eq!(a, b);
    assert!(!a.frames.is_empty());

    // Frames interleave several tenants in global execution order and
    // carry their tenant tags.
    let tenants: std::collections::BTreeSet<u32> = a.frames.iter().map(|f| f.tenant).collect();
    assert!(tenants.len() > 1, "expected interleaved tenants");
    assert!(tenants.iter().all(|t| (*t as usize) < names.len()));

    // A flipped decision in one tenant's frame is localized with its
    // tenant tag intact.
    let mut bad = a.clone();
    bad.frames[7].decision ^= 1;
    let report = diff_records(&bad, &b);
    let d = report.first.expect("must diverge");
    assert_eq!(d.frame, 7);
    assert_eq!(d.class, FieldClass::Decision);
    assert_eq!(d.tenant, a.frames[7].tenant);
}
