//! Halo exchange on a photonic scale-up domain.
//!
//! HPC stencil codes exchange boundary strips with four torus neighbors
//! every iteration. Flattened onto a 64-GPU ring domain, the east/west
//! shifts are ring-local but the north/south shifts jump `cols` positions —
//! a crisp demonstration of per-step adaptivity: the optimizer keeps the
//! row exchanges on the ring and reconfigures (only) the column exchanges,
//! once `α_r` is small enough relative to the strip size.
//!
//! ```text
//! cargo run --release --example stencil_halo
//! ```

use adaptive_photonics::prelude::*;
use aps_cost::units::{format_bytes, format_time, KIB, MIB};

fn main() {
    let (rows, cols) = (8, 8);
    let n = rows * cols;

    println!("2-D halo exchange, {rows}×{cols} ranks on a {n}-GPU ring domain\n");
    println!(
        "{:>10} {:>10} | {:>12} {:>12} | schedule (E W S N)",
        "strip", "α_r", "static", "OPT"
    );

    let base = topology::builders::ring_unidirectional(n).expect("ring");
    for strip in [16.0 * KIB, 1.0 * MIB, 16.0 * MIB] {
        for alpha_r_us in [1.0, 10.0, 100.0] {
            let alpha_r = alpha_r_us * 1e-6;
            let coll = collectives::stencil::halo_2d(rows, cols, strip).expect("halo");
            coll.check().expect("verified");
            let mut exp = Experiment::domain(base.clone())
                .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
                .collective(&coll);
            let cmp = exp.compare().expect("compare");
            let plan = exp.plan().expect("plan");
            println!(
                "{:>10} {:>10} | {:>12} {:>12} | {}",
                format_bytes(strip),
                format_time(alpha_r),
                format_time(cmp.t_static_s),
                format_time(cmp.t_opt_s),
                plan.switches.compact(),
            );
        }
    }

    println!(
        "\nReading: E(ast) stays on the ring (1-hop shifts); W(est) wraps n−1 hops and\n\
         S(outh)/N(orth) jump ±{cols}; those reconfigure first as strips grow or α_r drops."
    );
}
