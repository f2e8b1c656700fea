//! Property-test blitz over the record format, plus executor-level
//! recording pins: writer→reader round-trips for arbitrary frame
//! sequences, every truncation/corruption is a typed parse error, and
//! recorded hash chains are independent of `APS_THREADS`.

use aps_core::controller::Greedy;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_replay::{
    diff_records, Frame, Recorder, ReplayError, ReplayReader, ReplayRecord, StateHash, NO_TENANT,
};
use aps_sim::{run_workload, RunConfig, StreamPricing};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        0u64..3,
        0u64..2,
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        any::<u64>(),
    )
        .prop_map(
            |(step, tenant_sel, decision, (rates, timing, accounting, trace), state)| {
                Frame {
                    step,
                    // Mix single-stream and tenant-tagged frames.
                    tenant: if tenant_sel == 0 {
                        NO_TENANT
                    } else {
                        tenant_sel as u32
                    },
                    decision: decision as u8,
                    rates,
                    timing,
                    accounting,
                    trace,
                    state,
                }
            },
        )
}

fn arb_record() -> impl Strategy<Value = ReplayRecord> {
    (
        2u32..64,
        proptest::collection::vec(arb_frame(), 0..40),
        0usize..3,
        0usize..4,
    )
        .prop_map(|(n, frames, ctl, wl)| {
            let final_state = frames
                .last()
                .map_or(StateHash::new().chain().state, |f| f.state);
            ReplayRecord {
                n,
                controller: ["greedy", "threshold", "dp-planned"][ctl].to_owned(),
                workload: ["training-loop", "", "parameter-server", "π/λ-mixed"][wl].to_owned(),
                frames,
                final_state,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writer_reader_roundtrips(record in arb_record()) {
        let bytes = record.to_bytes();
        let parsed = ReplayReader::parse(&bytes).expect("well-formed record");
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn any_truncation_is_a_typed_error(record in arb_record(), cut_sel in any::<u64>()) {
        let bytes = record.to_bytes();
        let cut = (cut_sel % bytes.len() as u64) as usize;
        prop_assert!(matches!(
            ReplayReader::parse(&bytes[..cut]),
            Err(ReplayError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupted_magic_never_parses(record in arb_record(), byte in 0usize..4, flip in 1u32..=255) {
        let mut bytes = record.to_bytes();
        bytes[byte] ^= flip as u8;
        prop_assert!(matches!(
            ReplayReader::parse(&bytes),
            Err(ReplayError::BadMagic(_))
        ));
    }

    #[test]
    fn diff_of_a_record_with_itself_is_clean(record in arb_record()) {
        let report = diff_records(&record, &record.clone());
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.compared, record.frames.len());
    }
}

fn record_training_run(steps: usize) -> ReplayRecord {
    use aps_collectives::workload::generators::TrainingLoop;
    let n = 8;
    let base = aps_topology::builders::ring_unidirectional(n).unwrap();
    let base_config = Matching::shift(n, 1).unwrap();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let mut fabric = CircuitSwitch::new(base_config.clone(), reconfig);
    let mut workload = TrainingLoop::new(n, 2, 1e6, 8e6, None).unwrap();
    let pricing = StreamPricing::new(reconfig);
    let mut recorder = Recorder::new(n, "greedy", "training-loop");
    // Bound the endless loop through the segment API's absolute index.
    aps_sim::run_workload_segment(
        &mut fabric,
        &base,
        &mut workload,
        &Greedy,
        pricing,
        &RunConfig::paper_defaults(),
        None,
        steps,
        Some(&mut recorder),
    )
    .unwrap();
    recorder.into_record()
}

#[test]
fn recorded_hash_chain_is_stable_across_thread_counts() {
    // The record path must not consult the worker pool: a record taken
    // under APS_THREADS=1 and one taken under APS_THREADS=4 are
    // byte-identical.
    std::env::set_var("APS_THREADS", "1");
    let t1 = record_training_run(64);
    std::env::set_var("APS_THREADS", "4");
    let t4 = record_training_run(64);
    std::env::remove_var("APS_THREADS");
    assert_eq!(t1.frames.len(), 64);
    assert_eq!(t1, t4);
    assert_eq!(t1.to_bytes(), t4.to_bytes());
    let report = diff_records(&t1, &t4);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn full_report_and_totals_paths_record_identically() {
    // The totals executor synthesizes Decision trace events when a sink
    // is attached, so both faces produce bit-identical records.
    use aps_collectives::workload::generators::TrainingLoop;
    let n = 8;
    let base = aps_topology::builders::ring_unidirectional(n).unwrap();
    let base_config = Matching::shift(n, 1).unwrap();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let pricing = StreamPricing::new(reconfig);
    let cfg = RunConfig::paper_defaults();

    let mut full_rec = Recorder::new(n, "greedy", "training-loop");
    let mut fabric = CircuitSwitch::new(base_config.clone(), reconfig);
    let mut workload = TrainingLoop::new(n, 2, 1e6, 8e6, Some(4)).unwrap();
    run_workload(
        &mut fabric,
        &base,
        &mut workload,
        &Greedy,
        pricing,
        &cfg,
        Some(&mut full_rec),
    )
    .unwrap();

    let mut totals_rec = Recorder::new(n, "greedy", "training-loop");
    let mut fabric = CircuitSwitch::new(base_config, reconfig);
    let mut workload = TrainingLoop::new(n, 2, 1e6, 8e6, Some(4)).unwrap();
    aps_sim::run_workload_segment(
        &mut fabric,
        &base,
        &mut workload,
        &Greedy,
        pricing,
        &cfg,
        None,
        usize::MAX,
        Some(&mut totals_rec),
    )
    .unwrap();

    let (full, totals) = (full_rec.into_record(), totals_rec.into_record());
    assert!(!full.frames.is_empty());
    assert_eq!(full, totals);
}
