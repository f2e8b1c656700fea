//! Expected outputs, committed with the benchmark. A later change to the
//! program that alters any of them is a behaviour change, not a speed-up.

use aps_sim::stream::StreamSummary;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, so a claim made on the default seed can be
/// rechecked on one not used while writing it.
pub const HELD_OUT_SEED: u64 = 7919;

/// stream-train: one call of ten epochs (the stream has no seed).
pub const TRAIN: StreamSummary = StreamSummary {
    steps: 280,
    matched_steps: 240,
    reconfig_events: 209,
    total_ps: 3_822_902_400,
    barrier_ps: 0,
    alpha_ps: 28_000_000,
    reconfig_ps: 2_090_000_000,
    transfer_ps: 1_704_902_400,
    compute_ps: 0,
};

/// stream-perm: steps of the expected-output check.
pub const PERM_CHECK_STEPS: usize = 100;

/// stream-perm: the first [`PERM_CHECK_STEPS`] steps of `seed`, for the
/// seeds whose summary is recorded.
pub fn perm(seed: u64) -> Option<StreamSummary> {
    let base = StreamSummary {
        steps: PERM_CHECK_STEPS,
        matched_steps: 0,
        reconfig_events: 0,
        alpha_ps: 10_000_000,
        ..StreamSummary::default()
    };
    let transfer_ps = match seed {
        DEFAULT_SEED => 2_674_925_600,
        HELD_OUT_SEED => 2_674_543_680,
        _ => return None,
    };
    Some(StreamSummary {
        total_ps: base.alpha_ps + transfer_ps,
        transfer_ps,
        ..base
    })
}

/// plan-sweep: digest of every cell time and θ-cache counter of one call
/// (the sweep has no seed).
pub const SWEEP_DIGEST: u64 = 0x971d_493d_dca3_734e;

/// service-abi: digest of one batch at `seed`, for the seeds whose digest
/// is recorded.
pub fn service(seed: u64) -> Option<u64> {
    match seed {
        DEFAULT_SEED => Some(0xeff3_591f_f744_9309),
        HELD_OUT_SEED => Some(0x30e3_5a76_f10c_12a6),
        _ => None,
    }
}
