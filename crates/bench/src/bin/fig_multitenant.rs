//! Multi-tenant fabric benchmark: the named workload mixes of
//! `aps-sim::scenarios` across a ladder of reconfiguration delays, under
//! three switch-schedule policy families — the scenarios' built-in static
//! per-tenant policies, and two controller ablations where every tenant's
//! schedule is planned by a shipped `aps-core` controller (the eq. (7) DP
//! optimum and the online greedy rule).
//!
//! Usage:
//!
//! ```text
//! cargo run -p aps-bench --release --bin fig_multitenant [-- --bytes 4194304]
//! APS_THREADS=4 cargo run -p aps-bench --release --bin fig_multitenant
//! ```
//!
//! Prints a per-cell summary (per-tenant makespans, arbitration waits,
//! reconfiguration counts) and writes the machine-readable
//! `results/bench_multitenant.json` report. Cells are evaluated on an
//! `APS_THREADS`-sized worker pool; every simulated quantity is an exact
//! function of the cell inputs, so the report's `data` section is
//! bit-identical at any thread count and `perfgate compare`/`gate` accept
//! it alongside the figure reports.

use aps_bench::cli::{emit_bench_report, parse_flags};
use aps_bench::output::Json;
use aps_core::controller::{Controller, DpPlanned, Greedy};
use aps_cost::units::{format_time, MIB};
use aps_cost::{CostParams, ReconfigModel};
use aps_par::Pool;
use aps_sim::{scenarios, RunConfig, Scenario};

/// One benchmark cell: a scenario at one reconfiguration delay under one
/// switch-schedule policy family.
struct Cell {
    policy: &'static str,
    alpha_r_s: f64,
    reconfig: ReconfigModel,
    scenario: Scenario,
}

/// The controller-planned cell families: every tenant's switch schedule
/// is chosen by the named controller on its own partition. The scenarios'
/// built-in per-tenant policies form the third, `"static"`, family.
const CONTROLLER_FAMILIES: [(&str, &dyn Controller); 2] =
    [("planned", &DpPlanned), ("greedy", &Greedy)];

fn main() {
    let bytes = parse_flags(&["--bytes"]).parsed_or("bytes", 4.0 * MIB);

    let pool = Pool::from_env();
    let cfg = RunConfig::paper_defaults();
    let params = CostParams::paper_defaults();
    let delays = [1e-6, 10e-6, 100e-6];
    println!(
        "Multi-tenant fabric scenarios — base volume {:.0} KiB, α_r ∈ {{1, 10, 100}} µs, \
         static/planned/greedy policies, {} worker thread(s)\n",
        bytes / 1024.0,
        pool.threads()
    );

    let started = std::time::Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    for &alpha_r in &delays {
        let reconfig = ReconfigModel::constant(alpha_r).expect("valid delay");
        for scenario in scenarios::all(bytes) {
            cells.push(Cell {
                policy: "static",
                alpha_r_s: alpha_r,
                reconfig,
                scenario: scenario.clone(),
            });
            for (label, controller) in CONTROLLER_FAMILIES {
                let mut planned = scenario.clone();
                planned
                    .plan(&pool, controller, params, reconfig)
                    .unwrap_or_else(|e| panic!("tenant planning ({label}) failed: {e}"));
                cells.push(Cell {
                    policy: label,
                    alpha_r_s: alpha_r,
                    reconfig,
                    scenario: planned,
                });
            }
        }
    }

    let outcomes = pool
        .try_map(&cells, |_, cell| {
            let mut fabric = cell.scenario.fabric(cell.reconfig)?;
            cell.scenario.run_on(&mut fabric, &cfg)
        })
        .expect("scenario batch failed");
    let wall_s = started.elapsed().as_secs_f64();

    let mut cell_reports = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        println!(
            "── {} · α_r = {} · {} policy",
            cell.scenario.name,
            format_time(cell.alpha_r_s),
            cell.policy
        );
        let mut tenant_reports = Vec::with_capacity(outcome.len());
        for (spec, result) in cell.scenario.tenants.iter().zip(outcome) {
            let r = result
                .as_ref()
                .unwrap_or_else(|e| panic!("tenant '{}' failed: {e}", spec.name));
            println!(
                "   {:<16} {:>2} ports  makespan {:>12}  arbitration {:>12}  {} reconfigs",
                spec.name,
                spec.ports.len(),
                format_time(r.makespan_s()),
                format_time(r.report.arbitration_s()),
                r.report.reconfig_events(),
            );
            tenant_reports.push(Json::obj([
                ("name", Json::Str(spec.name.clone())),
                ("ports", Json::UInt(spec.ports.len() as u64)),
                ("steps", Json::UInt(r.report.steps.len() as u64)),
                (
                    "reconfig_events",
                    Json::UInt(r.report.reconfig_events() as u64),
                ),
                ("makespan_s", Json::Num(r.makespan_s())),
                ("arbitration_s", Json::Num(r.report.arbitration_s())),
                ("transfer_s", Json::Num(r.report.transfer_s())),
            ]));
        }
        cell_reports.push(Json::obj([
            ("scenario", Json::Str(cell.scenario.name.clone())),
            ("policy", Json::Str(cell.policy.into())),
            ("alpha_r_s", Json::Num(cell.alpha_r_s)),
            ("tenants", Json::Arr(tenant_reports)),
        ]));
    }
    println!();

    let mut policies = vec![Json::Str("static".into())];
    policies.extend(
        CONTROLLER_FAMILIES
            .iter()
            .map(|(label, _)| Json::Str((*label).to_string())),
    );
    let data = Json::obj([
        ("figure", Json::Str("multitenant".into())),
        ("bytes", Json::Num(bytes)),
        ("alpha_r_s", Json::nums(delays)),
        ("policies", Json::Arr(policies)),
        ("cells", Json::Arr(cell_reports)),
    ]);
    emit_bench_report("multitenant", &pool, wall_s, data);
}
