//! Mixture-of-Experts All-to-All planning.
//!
//! Expert-parallel MoE layers issue an All-to-All per layer: every GPU
//! scatters token activations to every other GPU — the transpose workload
//! of the paper's Figure 1d/1h. The All-to-All is latency-critical (it sits
//! on the critical path of every forward/backward pass), and its per-step
//! patterns are shift permutations whose ring congestion grows with the
//! shift distance — making it the perfect showcase for selective
//! reconfiguration: OPT reconfigures the expensive far shifts and leaves
//! near shifts on the ring.
//!
//! ```text
//! cargo run --release --example moe_alltoall
//! ```

use adaptive_photonics::prelude::*;
use aps_cost::units::{format_bytes, format_time, MIB};

fn main() {
    let n = 64;
    // 8k tokens/GPU × 4 KiB activation slices ≈ 32 MiB send buffer/GPU.
    let buffer = 32.0 * MIB;

    println!(
        "MoE expert-parallel All-to-All, n = {n}, {} per GPU\n",
        format_bytes(buffer)
    );
    println!(
        "{:>10} | {:>12} {:>12} {:>12} | {:>14} {:>10}",
        "α_r", "static", "BvN", "OPT", "OPT schedule", "reconfigs"
    );

    let base = topology::builders::ring_unidirectional(n).expect("ring");
    let coll = collectives::alltoall::linear_shift(n, buffer).expect("collective");
    for alpha_r_us in [0.1, 1.0, 10.0, 100.0, 1000.0] {
        let alpha_r = alpha_r_us * 1e-6;
        let mut exp = Experiment::domain(base.clone())
            .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
            .collective(&coll);
        let cmp = exp.compare().expect("compare");
        let plan = exp.plan().expect("plan");
        // Summarize the schedule: how many of the 63 shifts reconfigure,
        // and which is the nearest shift that does.
        let first_matched = plan
            .switches
            .choices()
            .iter()
            .position(|c| *c == ConfigChoice::Matched)
            .map(|i| format!("shifts ≥ {}", i + 1))
            .unwrap_or_else(|| "none".into());
        println!(
            "{:>10} | {:>12} {:>12} {:>12} | {:>14} {:>10}",
            format_time(alpha_r),
            format_time(cmp.t_static_s),
            format_time(cmp.t_bvn_s),
            format_time(cmp.t_opt_s),
            first_matched,
            plan.switches.reconfig_events(),
        );
    }

    println!(
        "\nReading: at small α_r OPT matches every shift (BvN-like); at large α_r it stays on\n\
         the ring; in between it reconfigures only the far shifts whose ring congestion\n\
         outweighs α_r — the transitional regime of Figure 2."
    );
}
