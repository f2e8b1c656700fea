//! Streaming-workload benchmark: the shipped lazy demand generators of
//! `aps-collectives::workload` executed on a 16-port ring domain under
//! three switch policies — never-reconfigure (`static`), the eq. (7) DP
//! optimum planned over the materialized stream (`planned`), and the
//! online greedy rule deciding each *pulled* step from the streaming
//! executor's two-step observation window (`greedy`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p aps-bench --release --bin fig_workloads [-- --bytes 4194304 --alpha-r 1e-5]
//! APS_THREADS=4 cargo run -p aps-bench --release --bin fig_workloads
//! ```
//!
//! Prints a per-cell summary and writes the machine-readable
//! `results/bench_workloads.json` report. Every simulated quantity is an
//! exact function of the cell inputs (generators are seeded, executors
//! deterministic), so the report's `data` section is bit-identical at any
//! `APS_THREADS` setting and `perfgate compare`/`gate` accept it
//! alongside the figure reports.

use aps_bench::cli::{emit_bench_report, parse_flags};
use aps_bench::output::Json;
use aps_collectives::workload::generators::{OnOffBursty, RandomPermutations, TrainingLoop};
use aps_collectives::workload::materialize;
use aps_collectives::Workload;
use aps_core::controller::{Controller, DpPlanned, Greedy, Static};
use aps_core::{ReconfigAccounting, SwitchingProblem};
use aps_cost::units::{format_time, MIB};
use aps_cost::{CostParams, ReconfigModel};
use aps_fabric::CircuitSwitch;
use aps_flow::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_par::Pool;
use aps_sim::{run_scheduled, run_workload, RunConfig, SimReport, StreamPricing};
use aps_topology::builders;

const N: usize = 16;

/// Builds the three benchmark generators, fresh per cell (each run
/// consumes the stream).
fn generators(bytes: f64) -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        (
            "training-loop",
            Box::new(
                TrainingLoop::new(N, 4, bytes / 4.0, bytes, Some(2)).expect("valid training loop"),
            ) as Box<dyn Workload>,
        ),
        (
            "random-permutations",
            Box::new(RandomPermutations::new(N, bytes, Some(48), 42).expect("valid permutations")),
        ),
        (
            "on-off-bursty",
            Box::new(OnOffBursty::new(N, bytes, 4, 3, Some(64), 7).expect("valid bursty traffic")),
        ),
    ]
}

/// Runs one generator under one policy, returning the simulator report.
fn run_cell(policy: &str, workload: &mut dyn Workload, alpha_r: f64) -> SimReport {
    let base = builders::ring_unidirectional(N).expect("ring");
    let reconfig = ReconfigModel::constant(alpha_r).expect("valid delay");
    let cfg = RunConfig::paper_defaults();
    workload.reset();
    match policy {
        // Streaming adaptive runs: the controller decides each pulled step.
        "static" | "greedy" => {
            let mut fabric = CircuitSwitch::new(Matching::shift(N, 1).unwrap(), reconfig);
            let ctl: &dyn Controller = if policy == "static" { &Static } else { &Greedy };
            let (_, report) = run_workload(
                &mut fabric,
                &base,
                workload,
                ctl,
                StreamPricing::new(reconfig),
                &cfg,
                None,
            )
            .expect("streaming run");
            report
        }
        // DP optimum: plan over the materialized stream, then replay the
        // switch schedule against the (rewound, materialized) stream.
        "planned" => {
            let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
            let problem = SwitchingProblem::from_workload(
                &base,
                workload,
                usize::MAX,
                &mut cache,
                CostParams::paper_defaults(),
                reconfig,
            )
            .expect("problem");
            let switches = DpPlanned
                .plan(&problem, ReconfigAccounting::PaperConservative)
                .expect("plan");
            workload.reset();
            let schedule = materialize(workload, usize::MAX).expect("finite stream");
            let mut fabric = CircuitSwitch::new(Matching::shift(N, 1).unwrap(), reconfig);
            run_scheduled(
                &mut fabric,
                &Matching::shift(N, 1).unwrap(),
                &schedule,
                &switches,
                &cfg,
            )
            .expect("scheduled replay")
        }
        other => unreachable!("unknown policy {other}"),
    }
}

fn main() {
    let flags = parse_flags(&["--bytes", "--alpha-r"]);
    let bytes = flags.parsed_or("bytes", 4.0 * MIB);
    let alpha_r = flags.parsed_or("alpha-r", 10e-6);

    let pool = Pool::from_env();
    let policies = ["static", "planned", "greedy"];
    println!(
        "Streaming workload generators on a {N}-port ring — volume {:.0} KiB, α_r = {}, \
         static/planned/greedy policies, {} worker thread(s)\n",
        bytes / 1024.0,
        format_time(alpha_r),
        pool.threads()
    );

    let started = std::time::Instant::now();
    let mut cell_reports = Vec::new();
    for policy in policies {
        for (name, mut workload) in generators(bytes) {
            let report = run_cell(policy, &mut *workload, alpha_r);
            println!(
                "── {name:<20} {policy:<8} {:>4} steps  makespan {:>12}  {} reconfigs",
                report.steps.len(),
                format_time(report.total_s()),
                report.reconfig_events(),
            );
            cell_reports.push(Json::obj([
                ("workload", Json::Str(name.into())),
                ("policy", Json::Str(policy.into())),
                ("steps", Json::UInt(report.steps.len() as u64)),
                ("makespan_s", Json::Num(report.total_s())),
                (
                    "reconfig_events",
                    Json::UInt(report.reconfig_events() as u64),
                ),
                ("reconfig_s", Json::Num(report.reconfig_s())),
                ("transfer_s", Json::Num(report.transfer_s())),
            ]));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!();

    let data = Json::obj([
        ("figure", Json::Str("workloads".into())),
        ("n", Json::UInt(N as u64)),
        ("bytes", Json::Num(bytes)),
        ("alpha_r_s", Json::Num(alpha_r)),
        (
            "policies",
            Json::Arr(policies.iter().map(|p| Json::Str((*p).into())).collect()),
        ),
        ("cells", Json::Arr(cell_reports)),
    ]);
    emit_bench_report("workloads", &pool, wall_s, data);
}
