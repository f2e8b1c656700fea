//! Hot-path microbenchmark: steady-state streaming step rate at scale.
//!
//! Drives the zero-allocation totals path ([`aps_sim::run_workload_totals`]
//! with the arena-backed [`aps_sim::CircuitScratch`] underneath) with an
//! endless `TrainingLoop` on domains from 64 to 4096 ports and reports
//! **ns/step** and **steps/sec** per port count — the per-step cost the
//! arena layer exists to keep flat and allocation-free.
//!
//! Usage:
//!
//! ```text
//! cargo run -p aps-bench --release --bin fig_hotpath [-- --bytes 4194304 --alpha-r 1e-5 --scale 1]
//! APS_THREADS=4 cargo run -p aps-bench --release --bin fig_hotpath
//! ```
//!
//! Prints the per-cell step rates and writes the machine-readable
//! `results/bench_hotpath.json`. Step rates are wall-clock quantities and
//! stay **out of the `data` section**: `data` carries only deterministic
//! KPIs (steps, matched steps, reconfigurations, total simulated time), so
//! `perfgate compare` accepts the report across `APS_THREADS` settings and
//! reruns, while the report's `wall_s` meta feeds `perfgate gate`'s
//! regression envelope.

use aps_bench::cli::{emit_bench_report, parse_flags};
use aps_bench::output::Json;
use aps_collectives::workload::generators::TrainingLoop;
use aps_core::controller::Greedy;
use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_par::Pool;
use aps_sim::{run_workload_totals, RunConfig, StreamPricing};
use aps_topology::builders;

/// `(ports, steady-state steps)` cells: the step budget shrinks as the
/// per-step flow count grows, keeping every cell at comparable wall time.
const CELLS: [(usize, usize); 4] = [(64, 8192), (256, 2048), (1024, 256), (4096, 32)];

fn main() {
    let flags = parse_flags(&["--bytes", "--alpha-r", "--scale"]);
    let bytes = flags.parsed_or("bytes", 4.0 * MIB);
    let alpha_r = flags.parsed_or("alpha-r", 10e-6);
    let scale = flags.parsed_or("scale", 1usize).max(1);

    let pool = Pool::from_env();
    println!(
        "Zero-allocation hot path — endless training loop under the greedy \
         controller, {}× step budget, {} worker thread(s)\n",
        scale,
        pool.threads()
    );

    let started = std::time::Instant::now();
    let mut cell_reports = Vec::new();
    for (n, base_steps) in CELLS {
        let steps = base_steps * scale;
        let base = builders::ring_unidirectional(n).expect("ring");
        let reconfig = ReconfigModel::constant(alpha_r).expect("valid delay");
        let mut fabric = CircuitSwitch::new(Matching::shift(n, 1).unwrap(), reconfig);
        let mut workload =
            TrainingLoop::new(n, 4, bytes / 4.0, bytes, None).expect("valid training loop");
        let cfg = RunConfig::paper_defaults();
        let cell_start = std::time::Instant::now();
        let summary = run_workload_totals(
            &mut fabric,
            &base,
            &mut workload,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            steps,
        )
        .expect("streaming run");
        let cell_wall = cell_start.elapsed().as_secs_f64();
        let ns_per_step = cell_wall * 1e9 / summary.steps as f64;
        let steps_per_sec = summary.steps as f64 / cell_wall;
        println!(
            "── {n:>5} ports  {:>6} steps  {ns_per_step:>10.0} ns/step  \
             {steps_per_sec:>10.0} steps/s  {} reconfigs",
            summary.steps, summary.reconfig_events,
        );
        cell_reports.push(Json::obj([
            ("ports", Json::UInt(n as u64)),
            ("steps", Json::UInt(summary.steps as u64)),
            ("matched_steps", Json::UInt(summary.matched_steps as u64)),
            (
                "reconfig_events",
                Json::UInt(summary.reconfig_events as u64),
            ),
            ("total_ps", Json::UInt(summary.total_ps)),
        ]));
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!();

    let data = Json::obj([
        ("figure", Json::Str("hotpath".into())),
        ("bytes", Json::Num(bytes)),
        ("alpha_r_s", Json::Num(alpha_r)),
        ("scale", Json::UInt(scale as u64)),
        ("cells", Json::Arr(cell_reports)),
    ]);
    emit_bench_report("hotpath", &pool, wall_s, data);
}
