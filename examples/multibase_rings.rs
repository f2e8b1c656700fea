//! Co-prime ring base pools (§3.3 extension).
//!
//! The paper suggests extending the optimization from one base topology to
//! "a fixed pool of base topologies … e.g., using multiple co-prime rings".
//! This example shows the win on an All-to-All: with a single stride-1 ring,
//! far shifts are brutally congested; adding stride-15 and stride-31 rings
//! to the pool lets the scheduler hop between bases so most shifts find a
//! short path on *some* ring without paying a matched reconfiguration per
//! step.
//!
//! ```text
//! cargo run --release --example multibase_rings
//! ```

use adaptive_photonics::core::multibase::{build_multibase, MultiChoice};
use adaptive_photonics::prelude::*;
use aps_cost::units::{format_bytes, format_time, MIB};

fn main() {
    let n = 64;
    let buffer = 16.0 * MIB;
    let alpha_r = 50e-6;

    let ring1 = topology::builders::ring_unidirectional(n).expect("ring");
    let ring15 = topology::builders::coprime_rings(n, &[15]).expect("ring15");
    let ring31 = topology::builders::coprime_rings(n, &[31]).expect("ring31");
    let coll = collectives::alltoall::linear_shift(n, buffer).expect("collective");

    println!(
        "All-to-All over n = {n}, {} per GPU, α_r = {}\n",
        format_bytes(buffer),
        format_time(alpha_r)
    );

    // Single-base reference point via the Experiment front door: the
    // {1}-pool row below must match this (a one-ring pool *is* the plain
    // eq. (7) problem).
    let single = Experiment::domain(ring1.clone())
        .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
        .collective(&coll)
        .plan()
        .expect("plan");
    println!(
        "{:>18}: {}  (Experiment::plan on the stride-1 ring)",
        "single-base OPT",
        format_time(single.report.total_s())
    );

    for (label, pool) in [
        ("single ring {1}", vec![&ring1]),
        ("pool {1, 31}", vec![&ring1, &ring31]),
        ("pool {1, 15, 31}", vec![&ring1, &ring15, &ring31]),
    ] {
        let mb = build_multibase(
            &pool,
            &coll.schedule,
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).expect("α_r"),
            0,
        )
        .expect("multibase problem");
        let (choices, total) = mb.optimize().expect("optimize");
        let mut by_state = vec![0usize; pool.len() + 1];
        for c in &choices {
            match c {
                MultiChoice::Base(k) => by_state[*k] += 1,
                MultiChoice::Matched => by_state[pool.len()] += 1,
            }
        }
        println!(
            "{label:>18}: {}  | steps per state: bases {:?}, matched {}",
            format_time(total),
            &by_state[..pool.len()],
            by_state[pool.len()]
        );
    }

    println!(
        "\nLarger pools strictly dominate: each shift-k step picks the ring whose stride\n\
         divides the distance best, reserving α_r for the few steps no base serves well."
    );
}
