//! Quickstart: plan one AllReduce on an adaptive photonic scale-up domain.
//!
//! Builds the paper's evaluation setup (§3.4) — 64 GPUs, 800 Gbps
//! transceivers, unidirectional ring base — as an [`Experiment`], then asks
//! the default controller (the eq. (7) DP optimum) when the fabric should
//! reconfigure for a bandwidth-optimal AllReduce, and prints the resulting
//! circuit-switch schedule with its cost breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adaptive_photonics::prelude::*;
use aps_cost::units::{format_bytes, format_time, MIB};

fn main() {
    let n = 64;
    let message = 16.0 * MIB;
    let alpha_r = 10e-6;

    let coll = collectives::allreduce::halving_doubling::build(n, message).expect("collective");
    coll.check().expect("collective semantics verified");

    let mut exp = Experiment::domain(topology::builders::ring_unidirectional(n).expect("ring"))
        .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
        .collective(&coll); // default controller: DpPlanned (eq. (7))

    println!(
        "AllReduce (halving-doubling), {} per GPU, n = {n}, α_r = {}, controller = {}\n",
        format_bytes(message),
        format_time(alpha_r),
        exp.controller_name(),
    );

    let plan = exp.plan().expect("plan");
    println!("optimal switch schedule : {}", plan.switches.compact());
    println!("  (G = stay on base ring, M = reconfigure to the step's matching)\n");
    println!(
        "completion time         : {}",
        format_time(plan.report.total_s())
    );
    println!(
        "  latency   (s·α)       : {}",
        format_time(plan.report.latency_s)
    );
    println!(
        "  propagation (δ·ℓ)     : {}",
        format_time(plan.report.propagation_s)
    );
    println!(
        "  transmission (β·m/θ)  : {}",
        format_time(plan.report.transmission_s)
    );
    println!(
        "  reconfiguration       : {} ({} events)\n",
        format_time(plan.report.reconfig_s),
        plan.report.reconfig_events
    );

    let cmp = exp.compare().expect("compare");
    println!("static ring             : {}", format_time(cmp.t_static_s));
    println!("per-step BvN            : {}", format_time(cmp.t_bvn_s));
    println!(
        "threshold heuristic     : {}",
        format_time(cmp.t_threshold_s)
    );
    println!("optimized               : {}", format_time(cmp.t_opt_s));
    println!(
        "\nspeedup vs static {:.2}x, vs BvN {:.2}x, vs best-of-both {:.2}x",
        cmp.speedup_vs_static(),
        cmp.speedup_vs_bvn(),
        cmp.speedup_vs_best_of_both()
    );

    // The same experiment also runs on the fluid simulator, with the
    // controller deciding online and tagging each decision in the trace.
    let run = exp.simulate().expect("simulate");
    println!(
        "\nfluid simulation        : {} (schedule {})",
        format_time(run.report.total_s()),
        run.switches.compact()
    );
}
