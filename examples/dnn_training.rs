//! Planning a whole DNN training iteration.
//!
//! A data+expert-parallel training step issues a *sequence* of collectives:
//! per layer a gradient AllReduce, plus an All-to-All token shuffle for MoE
//! layers. §3.3 notes the framework applies unchanged to such sequences —
//! the optimizer sees one long step list and places reconfigurations across
//! collective boundaries (e.g. staying matched from the tail of an
//! AllReduce into the following All-to-All). Composite schedules bind to
//! an [`Experiment`] through [`Experiment::schedule`].
//!
//! ```text
//! cargo run --release --example dnn_training
//! ```

use adaptive_photonics::prelude::*;
use aps_bench::workload::training_iteration;
use aps_core::explain;
use aps_cost::units::{format_time, MIB};

fn main() {
    let n = 64;
    let layers = 8;
    let grad = 24.0 * MIB; // gradient shard per layer
    let moe = 32.0 * MIB; // MoE token buffer
    let schedule = training_iteration(n, layers, grad, 2, moe).expect("workload construction");

    println!(
        "Training iteration on {n} GPUs: {layers} layers × AllReduce({}) + MoE All-to-All({}) every 2nd layer",
        aps_cost::units::format_bytes(grad),
        aps_cost::units::format_bytes(moe),
    );
    println!(
        "total steps in the composite schedule: {}\n",
        schedule.num_steps()
    );

    let base = topology::builders::ring_unidirectional(n).expect("ring");
    println!(
        "{:>10} | {:>12} {:>12} {:>12} {:>12} | {:>9}",
        "α_r", "static", "BvN", "threshold", "OPT", "reconfigs"
    );
    for alpha_r_us in [0.1, 1.0, 10.0, 100.0] {
        let alpha_r = alpha_r_us * 1e-6;
        let mut exp = Experiment::domain(base.clone())
            .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
            .schedule(&schedule);
        let cmp = exp.compare().expect("compare");
        let plan = exp.plan().expect("plan");
        println!(
            "{:>10} | {:>12} {:>12} {:>12} {:>12} | {:>9}",
            format_time(alpha_r),
            format_time(cmp.t_static_s),
            format_time(cmp.t_bvn_s),
            format_time(cmp.t_threshold_s),
            format_time(cmp.t_opt_s),
            plan.switches.reconfig_events(),
        );
    }

    // Zoom into the interesting regime and explain the first AllReduce +
    // All-to-All boundary step by step.
    let alpha_r = 10e-6;
    let mut exp = Experiment::domain(base)
        .reconfig(ReconfigModel::constant(alpha_r).expect("α_r"))
        .schedule(&schedule);
    let problem = exp.problem().expect("problem");
    let plan = exp.plan().expect("plan");
    let ex = explain::explain(
        &problem,
        &plan.switches,
        ReconfigAccounting::PaperConservative,
    )
    .expect("explain");
    println!(
        "\nFirst 16 decisions at α_r = {} (AllReduce tail → All-to-All head):",
        format_time(alpha_r)
    );
    let text = ex.to_string();
    for line in text.lines().take(17) {
        println!("  {line}");
    }
}
