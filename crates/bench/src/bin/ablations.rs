//! Research-agenda ablations A1–A7 and A9, one panel each.
//!
//! ```text
//! cargo run -p aps-bench --release --bin ablations -- <which>
//! ```
//!
//! where `<which>` is one of `heuristic`, `multibase`, `theta-proxy`,
//! `vardelay`, `overlap`, `sim-validate`, `propagation`, `basetopo`, or `all`.
//!
//! Besides the per-panel console tables and `ablation_*.csv` dumps, every
//! run appends its headline metrics to the append-only ablation registry
//! (`results/ablation_registry.csv`, plan names like `a1-heuristic`) and
//! emits a versioned `results/bench_ablations.json` report — so the A-panel
//! numbers are visible to `perfgate compare`/`gate` instead of scrolling
//! away in the job log.

use aps_ablate::{append_rows, fnv1a_64, RegistryRow};
use aps_bench::cli::emit_bench_report;
use aps_bench::figures::{panel, run_panel, Panel};
use aps_bench::output::{write_result, Json};
use aps_collectives::{allreduce, alltoall, broadcast};
use aps_core::multibase::build_multibase;
use aps_core::objective::ReconfigAccounting;
use aps_core::policies::{evaluate_policy, Policy};
use aps_core::sweep::{SweepCell, SweepGrid};
use aps_core::{SwitchSchedule, SwitchingProblem};
use aps_cost::units::{format_bytes, format_time, MIB, NANOS};
use aps_cost::{CostParams, ReconfigModel};
use aps_fabric::CircuitSwitch;
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_par::Pool;
use aps_sim::{run_scheduled, ComputeModel, RunConfig};
use aps_topology::builders;

/// Headline metrics one panel contributes to the ablation registry and
/// the versioned bench report: `(factors, kpi, value)` rows under a
/// per-panel plan name (`a1-heuristic`, `a2-multibase`, …).
struct PanelSummary {
    plan: &'static str,
    rows: Vec<(String, String, f64)>,
}

impl PanelSummary {
    fn new(plan: &'static str) -> Self {
        PanelSummary {
            plan,
            rows: Vec::new(),
        }
    }

    /// Records one metric. Commas in factor values (e.g. the base-pool
    /// label `{1,31}`) are swapped for `+` so the row stays encodable in
    /// the unquoted registry CSV.
    fn push(&mut self, factors: &str, kpi: &str, value: f64) {
        self.rows
            .push((factors.replace(',', "+"), kpi.to_string(), value));
    }

    /// Design hash over the plan name and the `(factors, kpi)` keys —
    /// stable across value changes, new only when the panel's shape
    /// changes. Plays the role [`aps_ablate::AblationPlan::plan_hash`]
    /// plays for declarative plans.
    fn design_hash(&self) -> String {
        let mut desc = String::from(self.plan);
        for (factors, kpi, _) in &self.rows {
            desc.push('|');
            desc.push_str(factors);
            desc.push(';');
            desc.push_str(kpi);
        }
        format!("{:016x}", fnv1a_64(desc.as_bytes()))
    }

    /// Registry rows for this panel; rows sharing a factor assignment
    /// share a cell index, in order of first appearance.
    fn registry_rows(&self, commit: &str) -> Vec<RegistryRow> {
        let hash = self.design_hash();
        let mut cells: Vec<&str> = Vec::new();
        self.rows
            .iter()
            .map(|(factors, kpi, value)| {
                let cell = cells.iter().position(|f| f == factors).unwrap_or_else(|| {
                    cells.push(factors);
                    cells.len() - 1
                });
                RegistryRow {
                    commit: commit.to_string(),
                    plan: self.plan.to_string(),
                    plan_hash: hash.clone(),
                    cell,
                    factors: factors.clone(),
                    kpi: kpi.clone(),
                    value: *value,
                }
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("plan", Json::Str(self.plan.to_string())),
            ("plan_hash", Json::Str(self.design_hash())),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(factors, kpi, value)| {
                            Json::obj([
                                ("factors", Json::Str(factors.clone())),
                                ("kpi", Json::Str(kpi.clone())),
                                ("value", Json::Num(*value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Appends every panel's rows to the registry and writes the versioned
/// `bench_ablations.json` report (deterministic `data` at any
/// `APS_THREADS`, like every other bench report).
fn record_panels(which: &str, summaries: &[PanelSummary], wall_s: f64) {
    let commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".to_string());
    let rows: Vec<RegistryRow> = summaries
        .iter()
        .flat_map(|s| s.registry_rows(&commit))
        .collect();
    let registry =
        std::path::Path::new(aps_bench::output::RESULTS_DIR).join("ablation_registry.csv");
    std::fs::create_dir_all(aps_bench::output::RESULTS_DIR).expect("results dir");
    append_rows(&registry, &rows).expect("registry append");
    println!(
        "registry: appended {} rows to {} (commit {commit})",
        rows.len(),
        registry.display()
    );
    let data = Json::obj([
        ("which", Json::Str(which.to_string())),
        (
            "panels",
            Json::Arr(summaries.iter().map(PanelSummary::to_json).collect()),
        ),
    ]);
    emit_bench_report("ablations", &Pool::from_env(), wall_s, data);
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let started = std::time::Instant::now();
    let summaries = match which.as_str() {
        "heuristic" => vec![heuristic()],
        "multibase" => vec![multibase()],
        "theta-proxy" => vec![theta_proxy()],
        "vardelay" => vec![vardelay()],
        "overlap" => vec![overlap()],
        "sim-validate" => vec![sim_validate()],
        "propagation" => vec![propagation()],
        "basetopo" => vec![basetopo()],
        "all" => vec![
            heuristic(),
            multibase(),
            theta_proxy(),
            vardelay(),
            overlap(),
            sim_validate(),
            propagation(),
            basetopo(),
        ],
        other => {
            eprintln!(
                "unknown ablation '{other}' (expected heuristic | multibase | theta-proxy | \
                 vardelay | overlap | sim-validate | propagation | basetopo | all)"
            );
            std::process::exit(2);
        }
    };
    record_panels(&which, &summaries, started.elapsed().as_secs_f64());
    println!(
        "done in {:.3} s ({} worker thread(s))",
        started.elapsed().as_secs_f64(),
        Pool::from_env().threads()
    );
}

/// A1 — threshold heuristic vs exact DP across the Figure-1 grid.
fn heuristic() -> PanelSummary {
    println!("== A1: threshold heuristic optimality gap (n = 64, halving-doubling) ==");
    let result =
        run_panel(&panel(Panel::A), 64, &SweepGrid::paper_default()).expect("sweep failed");
    let gaps = result.map(SweepCell::threshold_gap);
    let flat: Vec<f64> = gaps.iter().flatten().copied().collect();
    let worst = flat.iter().cloned().fold(1.0, f64::max);
    let mean = flat.iter().sum::<f64>() / flat.len() as f64;
    let exact = flat.iter().filter(|&&g| g <= 1.0 + 1e-6).count();
    println!(
        "  cells: {}   heuristic exactly optimal: {}   mean gap: {:.4}x   worst gap: {:.4}x",
        flat.len(),
        exact,
        mean,
        worst
    );
    let csv = aps_core::analysis::to_csv(&result.grid, &gaps);
    if let Ok(p) = write_result("ablation_heuristic.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    let mut s = PanelSummary::new("a1-heuristic");
    let factors = "n=64;workload=hd-allreduce";
    s.push(factors, "cells", flat.len() as f64);
    s.push(
        factors,
        "exact_optimal_fraction",
        exact as f64 / flat.len() as f64,
    );
    s.push(factors, "mean_gap", mean);
    s.push(factors, "worst_gap", worst);
    s
}

/// A2 — co-prime ring pools vs a single ring base (All-to-All).
fn multibase() -> PanelSummary {
    println!("== A2: multi-base co-prime ring pools (n = 64, All-to-All, 16 MiB) ==");
    let n = 64;
    let m = 16.0 * MIB;
    let c = alltoall::linear_shift(n, m).expect("collective");
    let ring1 = builders::ring_unidirectional(n).unwrap();
    let r31 = builders::coprime_rings(n, &[31]).unwrap();
    let r15 = builders::coprime_rings(n, &[15]).unwrap();
    let mut csv = String::from("alpha_r_s,pool,completion_s\n");
    println!(
        "  {:>10} | {:>12} {:>12} {:>12}",
        "α_r", "{1}", "{1,31}", "{1,15,31}"
    );
    let alphas = [100.0 * NANOS, 1e-6, 1e-5, 1e-4, 1e-3];
    let base_pools = [
        ("{1}", vec![&ring1]),
        ("{1,31}", vec![&ring1, &r31]),
        ("{1,15,31}", vec![&ring1, &r15, &r31]),
    ];
    // Every α_r × base-pool cell is an independent optimization.
    let tasks: Vec<(f64, &str, &Vec<&aps_topology::Topology>)> = alphas
        .iter()
        .flat_map(|&a| {
            base_pools
                .iter()
                .map(move |(name, bases)| (a, *name, bases))
        })
        .collect();
    let times = Pool::from_env().map(&tasks, |_, &(alpha_r, _, bases)| {
        let mb = build_multibase(
            bases,
            &c.schedule,
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).expect("α_r"),
            0,
        )
        .expect("multibase");
        let (_, t) = mb.optimize().expect("opt");
        t
    });
    let mut s = PanelSummary::new("a2-multibase");
    for (ai, &alpha_r) in alphas.iter().enumerate() {
        let row = &times[ai * base_pools.len()..(ai + 1) * base_pools.len()];
        for ((name, _), t) in base_pools.iter().zip(row) {
            csv.push_str(&format!("{alpha_r},{name},{t}\n"));
            s.push(
                &format!("alpha_r_s={alpha_r};pool={name}"),
                "completion_s",
                *t,
            );
        }
        println!(
            "  {:>10} | {:>12.6} {:>12.6} {:>12.6}",
            format_time(alpha_r),
            row[0],
            row[1],
            row[2]
        );
    }
    if let Ok(p) = write_result("ablation_multibase.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A3 — degree-proxy θ vs exact θ: decision agreement and cost error.
fn theta_proxy() -> PanelSummary {
    println!("== A3: degree-proxy congestion factor vs exact θ (n = 64) ==");
    let n = 64;
    let base = builders::ring_unidirectional(n).unwrap();
    let grid = SweepGrid::paper_default();
    let mut csv = String::from("workload,agreement,worst_cost_penalty\n");
    let workloads = [
        ("halving-doubling", allreduce::Algorithm::HalvingDoubling),
        ("swing", allreduce::Algorithm::Swing),
    ];
    // One task per workload × message size. The step matchings repeat at
    // every message size, so price each unique matching once across the
    // pool and give every worker a clone of the warmed caches.
    let pool = Pool::from_env();
    let tasks: Vec<(usize, aps_collectives::Collective)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, (_, alg))| {
            grid.message_bytes
                .iter()
                .map(move |&m| (wi, alg.build(n, m).expect("collective")))
        })
        .collect();
    let all_matchings = || {
        tasks
            .iter()
            .flat_map(|(_, c)| c.schedule.steps().iter().map(|s| &s.matching))
    };
    let warm_exact = ThetaCache::warm(&pool, &base, ThroughputSolver::ForcedPath, all_matchings())
        .expect("θ pricing");
    let warm_proxy = ThetaCache::warm(&pool, &base, ThroughputSolver::DegreeProxy, all_matchings())
        .expect("θ pricing");
    let (per_task, _) = pool.map_with(
        &tasks,
        || (warm_exact.clone(), warm_proxy.clone()),
        |(exact_cache, proxy_cache), _, (wi, c)| {
            let wi = *wi;
            let mut agree = 0usize;
            let mut cells = 0usize;
            let mut worst_penalty = 1.0f64;
            for &alpha_r in &grid.reconf_delays_s {
                let reconfig = ReconfigModel::constant(alpha_r).unwrap();
                let exact = SwitchingProblem::build(
                    &base,
                    &c.schedule,
                    exact_cache,
                    CostParams::paper_defaults(),
                    reconfig,
                )
                .expect("problem");
                let proxy = SwitchingProblem::build(
                    &base,
                    &c.schedule,
                    proxy_cache,
                    CostParams::paper_defaults(),
                    reconfig,
                )
                .expect("problem");
                let acc = ReconfigAccounting::PaperConservative;
                let (sched_exact, cost_exact) = aps_core::dp::optimize(&exact, acc).unwrap();
                let (sched_proxy, _) = aps_core::dp::optimize(&proxy, acc).unwrap();
                cells += 1;
                if sched_exact == sched_proxy {
                    agree += 1;
                } else {
                    // Price the proxy's decisions with the exact θ.
                    let priced = aps_core::objective::evaluate(&exact, &sched_proxy, acc).unwrap();
                    worst_penalty = worst_penalty.max(priced.total_s() / cost_exact.total_s());
                }
            }
            (wi, agree, cells, worst_penalty)
        },
    );
    let mut s = PanelSummary::new("a3-theta-proxy");
    for (wi, (name, _)) in workloads.iter().enumerate() {
        let mut agree = 0usize;
        let mut cells = 0usize;
        let mut worst_penalty = 1.0f64;
        for &(twi, a, c, w) in per_task.iter().filter(|t| t.0 == wi) {
            debug_assert_eq!(twi, wi);
            agree += a;
            cells += c;
            worst_penalty = worst_penalty.max(w);
        }
        let pct = 100.0 * agree as f64 / cells as f64;
        println!(
            "  {name:>18}: decisions agree {pct:.1}% of cells; worst cost penalty {worst_penalty:.3}x"
        );
        csv.push_str(&format!("{name},{pct},{worst_penalty}\n"));
        let factors = format!("workload={name}");
        s.push(&factors, "agreement_pct", pct);
        s.push(&factors, "worst_cost_penalty", worst_penalty);
    }
    if let Ok(p) = write_result("ablation_theta_proxy.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A4 — per-port-affine reconfiguration delays vs a constant α_r.
fn vardelay() -> PanelSummary {
    println!("== A4: variable (per-port) reconfiguration delay (n = 64, broadcast) ==");
    let n = 64;
    let m = 64.0 * MIB;
    // Binomial broadcast: early steps move 1–2 ports, late steps half the
    // fabric — exactly where per-port pricing diverges from constant.
    let c = broadcast::binomial(n, 0, m).expect("collective");
    let base = builders::ring_unidirectional(n).unwrap();
    let fixed = 1e-6;
    let per_port = 200.0 * NANOS;
    let constant_equiv = fixed + per_port * n as f64;
    let mut csv = String::from("model,policy,completion_s\n");
    let mut s = PanelSummary::new("a4-vardelay");
    for (name, reconfig, acc) in [
        (
            "constant(worst-case)",
            ReconfigModel::constant(constant_equiv).unwrap(),
            ReconfigAccounting::PaperConservative,
        ),
        (
            "per-port affine",
            ReconfigModel::per_port(fixed, per_port).unwrap(),
            ReconfigAccounting::PhysicalDiff,
        ),
    ] {
        let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
        let p = SwitchingProblem::build(
            &base,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            reconfig,
        )
        .expect("problem");
        for policy in [Policy::StaticBase, Policy::AlwaysMatched, Policy::Optimal] {
            let r = evaluate_policy(&p, policy, acc).unwrap();
            println!("  {name:>22} | {:>9}: {:.6} s", policy.name(), r.total_s());
            csv.push_str(&format!("{name},{},{}\n", policy.name(), r.total_s()));
            s.push(
                &format!("model={name};policy={}", policy.name()),
                "completion_s",
                r.total_s(),
            );
        }
    }
    if let Ok(p) = write_result("ablation_vardelay.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A5 — overlapping reconfiguration with computation (simulator).
fn overlap() -> PanelSummary {
    println!("== A5: overlapping reconfiguration with compute (n = 16, halving-doubling) ==");
    let n = 16;
    let m = 64.0 * MIB;
    let c = allreduce::halving_doubling::build(n, m).expect("collective");
    let s = c.schedule.num_steps();
    let ring = Matching::shift(n, 1).unwrap();
    let mut csv = String::from("compute_ns_per_byte,serial_s,overlap_s,saved_s\n");
    println!(
        "  {:>16} | {:>12} {:>12} {:>10}",
        "compute/byte", "serial", "overlap", "saved"
    );
    let compute_models = [0.0, 0.1, 0.5, 2.0];
    // Serial/overlapped pairs as one batch on the pool, each run on a
    // fresh fabric.
    let configs: Vec<RunConfig> = compute_models
        .iter()
        .flat_map(|&per_byte_ns| {
            [false, true].map(|overlap_flag| RunConfig {
                compute: (per_byte_ns > 0.0).then_some(ComputeModel {
                    per_byte_s: per_byte_ns * 1e-9,
                }),
                overlap_reconfig_with_compute: overlap_flag,
                ..RunConfig::paper_defaults()
            })
        })
        .collect();
    let switches = SwitchSchedule::all_matched(s);
    let reports = Pool::from_env()
        .try_map(&configs, |_, cfg| {
            let mut fabric =
                CircuitSwitch::new(ring.clone(), ReconfigModel::constant(10e-6).unwrap());
            run_scheduled(&mut fabric, &ring, &c.schedule, &switches, cfg)
        })
        .expect("sim");
    let mut s = PanelSummary::new("a5-overlap");
    for (pi, &per_byte_ns) in compute_models.iter().enumerate() {
        let serial = reports[2 * pi].total_s();
        let overlapped = reports[2 * pi + 1].total_s();
        println!(
            "  {per_byte_ns:>13} ns | {serial:>12.6} {overlapped:>12.6} {:>10.6}",
            serial - overlapped
        );
        csv.push_str(&format!(
            "{per_byte_ns},{serial},{overlapped},{}\n",
            serial - overlapped
        ));
        let factors = format!("compute_ns_per_byte={per_byte_ns}");
        s.push(&factors, "serial_s", serial);
        s.push(&factors, "overlap_s", overlapped);
        s.push(&factors, "saved_s", serial - overlapped);
    }
    if let Ok(p) = write_result("ablation_overlap.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A6 — analytic model vs event simulator.
fn sim_validate() -> PanelSummary {
    println!("== A6: analytic model vs flow-level simulator (n = 16) ==");
    let n = 16;
    let base = builders::ring_unidirectional(n).unwrap();
    let ring = Matching::shift(n, 1).unwrap();
    let mut csv = String::from("workload,policy,model_s,sim_s,rel_diff\n");
    let pool = Pool::from_env();
    let workloads = [
        ("ring-allreduce", allreduce::ring::build(n, MIB).unwrap()),
        (
            "halving-doubling",
            allreduce::halving_doubling::build(n, MIB).unwrap(),
        ),
        ("swing", allreduce::swing::build(n, MIB).unwrap()),
        ("alltoall", alltoall::linear_shift(n, MIB).unwrap()),
    ];
    let policies = [Policy::StaticBase, Policy::AlwaysMatched, Policy::Optimal];
    // The simulator is physical: compare under PhysicalDiff.
    let acc = ReconfigAccounting::PhysicalDiff;
    // Phase 1 — analytic side, one task per workload (private θ cache):
    // the policy switch schedules and their model-predicted times.
    let analytic = pool.map(&workloads, |_, (_, c)| {
        let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
        let problem = SwitchingProblem::build(
            &base,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(5e-6).unwrap(),
        )
        .expect("problem");
        policies
            .map(|policy| {
                let schedule = aps_core::policies::schedule_for(&problem, policy, acc).unwrap();
                let model = aps_core::objective::evaluate(&problem, &schedule, acc)
                    .unwrap()
                    .total_s();
                (schedule, model)
            })
            .to_vec()
    });
    // Phase 2 — one simulator run per workload × policy, batched, each on
    // a fresh fabric.
    let runs: Vec<_> = workloads
        .iter()
        .zip(&analytic)
        .flat_map(|((_, c), per_policy)| {
            per_policy
                .iter()
                .map(move |(switches, _)| (&c.schedule, switches))
        })
        .collect();
    let reports = pool
        .try_map(&runs, |_, &(schedule, switches)| {
            let mut fabric =
                CircuitSwitch::new(ring.clone(), ReconfigModel::constant(5e-6).unwrap());
            run_scheduled(
                &mut fabric,
                &ring,
                schedule,
                switches,
                &RunConfig::paper_defaults(),
            )
        })
        .expect("sim");
    let mut s = PanelSummary::new("a6-sim-validate");
    for (wi, (name, _)) in workloads.iter().enumerate() {
        for (pi, policy) in policies.iter().enumerate() {
            let model = analytic[wi][pi].1;
            let sim = reports[wi * policies.len() + pi].total_s();
            let rel = (sim - model).abs() / model;
            println!(
                "  {name:>18} | {:>9}: model {model:.6e}  sim {sim:.6e}  Δ {:.3}%",
                policy.name(),
                rel * 100.0
            );
            csv.push_str(&format!("{name},{},{model},{sim},{rel}\n", policy.name()));
            let factors = format!("workload={name};policy={}", policy.name());
            s.push(&factors, "model_s", model);
            s.push(&factors, "sim_s", sim);
            s.push(&factors, "rel_diff", rel);
        }
    }
    if let Ok(p) = write_result("ablation_sim_validate.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A7 — propagation-delay regimes: which AllReduce wins on a static ring,
/// and how reconfiguration changes the answer (§4 "deeper understanding").
fn propagation() -> PanelSummary {
    println!("== A7: propagation-delay regimes (n = 64, 64 KiB AllReduce) ==");
    let n = 64;
    let m = 65536.0;
    let base = builders::ring_unidirectional(n).unwrap();
    let mut csv = String::from("delta_ns,algorithm,static_s,opt_s\n");
    println!(
        "  {:>8} | {:>18} {:>14} {:>14}",
        "δ", "algorithm", "static", "opt(α_r=1µs)"
    );
    let deltas = [10.0, 100.0, 1000.0];
    let tasks: Vec<(f64, allreduce::Algorithm)> = deltas
        .iter()
        .flat_map(|&d| allreduce::Algorithm::ALL.iter().map(move |&alg| (d, alg)))
        .collect();
    // θ is independent of δ, so a worker's cache serves its whole chunk.
    let (rows, _) = Pool::from_env().map_with(
        &tasks,
        || ThetaCache::new(&base, ThroughputSolver::ForcedPath),
        |cache, _, &(delta_ns, alg)| {
            let c = alg.build(n, m).expect("collective");
            let params = CostParams::new(100.0 * NANOS, 800.0, delta_ns * 1e-9).unwrap();
            let p = SwitchingProblem::build(
                &base,
                &c.schedule,
                cache,
                params,
                ReconfigModel::constant(1e-6).unwrap(),
            )
            .expect("problem");
            let acc = ReconfigAccounting::PaperConservative;
            let st = evaluate_policy(&p, Policy::StaticBase, acc)
                .unwrap()
                .total_s();
            let opt = evaluate_policy(&p, Policy::Optimal, acc).unwrap().total_s();
            (st, opt)
        },
    );
    let mut s = PanelSummary::new("a7-propagation");
    for (&(delta_ns, alg), &(st, opt)) in tasks.iter().zip(&rows) {
        println!(
            "  {:>8} | {:>18} {st:>14.6e} {opt:>14.6e}",
            format_time(delta_ns * 1e-9),
            alg.name()
        );
        csv.push_str(&format!("{delta_ns},{},{st},{opt}\n", alg.name()));
        let factors = format!("delta_ns={delta_ns};algorithm={}", alg.name());
        s.push(&factors, "static_s", st);
        s.push(&factors, "opt_s", opt);
    }
    println!("  ({} per node, {} GPUs)", format_bytes(m), n);
    if let Ok(p) = write_result("ablation_propagation.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}

/// A9 — base-topology choice: the halo-exchange workload on a ring base vs
/// a 2-D torus base (where every neighbor exchange is a single hop), with
/// forced-path vs splittable (Garg–Könemann) θ on the torus.
fn basetopo() -> PanelSummary {
    use aps_collectives::stencil;
    println!("== A9: base-topology choice for 8x8 halo exchange (1 MiB strips) ==");
    let (rows, cols) = (8, 8);
    let n = rows * cols;
    let c = stencil::halo_2d(rows, cols, MIB).expect("halo");
    let ring = builders::ring_unidirectional(n).unwrap();
    let torus = builders::torus_2d(rows, cols).unwrap();
    let mut csv = String::from("base,solver,alpha_r_s,static_s,opt_s\n");
    println!(
        "  {:>16} {:>12} {:>10} | {:>12} {:>12}",
        "base", "theta solver", "alpha_r", "static", "opt"
    );
    let configs = [
        ("uni-ring", &ring, ThroughputSolver::ForcedPath),
        ("torus 8x8", &torus, ThroughputSolver::ForcedPath),
        (
            "torus 8x8",
            &torus,
            ThroughputSolver::GargKonemann { epsilon: 0.08 },
        ),
    ];
    let alphas = [1e-6, 1e-4];
    let tasks: Vec<(usize, f64)> = (0..configs.len())
        .flat_map(|ci| alphas.iter().map(move |&a| (ci, a)))
        .collect();
    let rows = Pool::from_env().map(&tasks, |_, &(ci, alpha_r)| {
        let (_, base, solver) = configs[ci];
        let mut cache = ThetaCache::new(base, solver);
        let p = SwitchingProblem::build(
            base,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).unwrap(),
        )
        .expect("problem");
        let acc = ReconfigAccounting::PaperConservative;
        let st = evaluate_policy(&p, Policy::StaticBase, acc)
            .unwrap()
            .total_s();
        let opt = evaluate_policy(&p, Policy::Optimal, acc).unwrap().total_s();
        (st, opt)
    });
    let mut s = PanelSummary::new("a9-basetopo");
    for (&(ci, alpha_r), &(st, opt)) in tasks.iter().zip(&rows) {
        let (bname, _, solver) = configs[ci];
        let sname = match solver {
            ThroughputSolver::ForcedPath => "forced",
            ThroughputSolver::GargKonemann { .. } => "gk(0.08)",
            ThroughputSolver::DegreeProxy => "proxy",
        };
        println!(
            "  {bname:>16} {sname:>12} {:>10} | {st:>12.6e} {opt:>12.6e}",
            format_time(alpha_r)
        );
        csv.push_str(&format!("{bname},{sname},{alpha_r},{st},{opt}\n"));
        let factors = format!("base={bname};solver={sname};alpha_r_s={alpha_r}");
        s.push(&factors, "static_s", st);
        s.push(&factors, "opt_s", opt);
    }
    println!(
        "  (a torus base makes every halo step single-hop: static wins regardless of α_r,\n   while the ring base must reconfigure the column shifts)"
    );
    if let Ok(p) = write_result("ablation_basetopo.csv", &csv) {
        println!("  → {}\n", p.display());
    }
    s
}
