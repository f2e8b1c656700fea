//! `plan-sweep`: the paper's Figure 1/2 pipeline with no simulation —
//! `Experiment::domain(ring 512).collective_family(..).sweep(paper grid)`
//! for three collective families, 108 cells per call.
//!
//! The analytic path users run most. It never reaches `aps-sim`, so a
//! change to the fluid solve or the step engine should leave it unchanged.

use crate::expected;
use crate::report::{fnv, ns, timed, Report};
use crate::{Args, Bench, Metrics};
use adaptive_photonics::experiment::{collective_by_name, Experiment, Family};
use aps_collectives::{Collective, CollectiveError, Schedule};
use aps_core::policies::{evaluate_policy, Policy};
use aps_core::sweep::{SweepGrid, SweepResult};
use aps_core::{ReconfigAccounting, SwitchingProblem};
use aps_cost::steptable::step_cost_table;
use aps_cost::{CostParams, ReconfigModel};
use aps_flow::{ThetaCache, ThroughputSolver};
use aps_par::Pool;
use aps_topology::{builders, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ports of the swept domain.
pub const PORTS: usize = 512;

/// The swept collective families.
pub const FAMILIES: [&str; 3] = ["hd-allreduce", "ring-allreduce", "alltoall"];

/// The pool width: two workers, or fewer on a smaller machine.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Timing and capture around a family's build closure.
#[derive(Default)]
struct BuildProbe {
    calls: AtomicU64,
    ns: AtomicU64,
    schedules: Mutex<Vec<Schedule>>,
}

/// Everything built before the first timed call.
pub struct Inputs {
    ports: usize,
    base: Topology,
    pool: Pool,
    grid: SweepGrid,
    experiments: Vec<Experiment<Family>>,
}

fn build(family: &'static str, ports: usize, bytes: f64) -> Result<Collective, CollectiveError> {
    collective_by_name(family, ports, bytes).expect("the swept families are known by name")
}

fn experiment(base: &Topology, pool: Pool) -> Experiment<adaptive_photonics::experiment::Unbound> {
    Experiment::domain(base.clone()).pool(pool)
}

impl Inputs {
    /// Builds the domain of `ports`, the pool and one experiment per
    /// family.
    ///
    /// # Errors
    ///
    /// Reports a construction failure.
    pub fn new(pool: Pool, ports: usize) -> Result<Self, String> {
        let base = builders::ring_unidirectional(ports).map_err(|e| e.to_string())?;
        let experiments = FAMILIES
            .iter()
            .map(|&f| experiment(&base, pool).collective_family(move |m| build(f, ports, m)))
            .collect();
        Ok(Self {
            ports,
            base,
            pool,
            grid: SweepGrid::paper_default(),
            experiments,
        })
    }

    /// Checks a call's results and returns their digest: at the benchmark
    /// size the digest must be the recorded one.
    fn check(&self, results: &[SweepResult]) -> Result<u64, String> {
        let d = digest(results);
        if self.ports == PORTS && d != expected::SWEEP_DIGEST {
            return Err(format!(
                "sweep digest {d:#018x}, expected {:#018x}",
                expected::SWEEP_DIGEST
            ));
        }
        Ok(d)
    }

    /// One call whose build closures are timed and whose schedules are
    /// captured; the θ warm, cost table and policy layers are replayed on
    /// the same pool, phase by phase, from the captured schedules.
    fn traced(&self) -> Result<(Vec<SweepResult>, Metrics), String> {
        let probes: Vec<Arc<BuildProbe>> = FAMILIES
            .iter()
            .map(|_| Arc::new(BuildProbe::default()))
            .collect();
        let experiments: Vec<Experiment<Family>> = FAMILIES
            .iter()
            .zip(&probes)
            .map(|(&f, probe)| {
                let probe = Arc::clone(probe);
                let ports = self.ports;
                experiment(&self.base, self.pool).collective_family(move |m| {
                    let t0 = Instant::now();
                    let c = build(f, ports, m);
                    probe
                        .ns
                        .fetch_add(ns(t0.elapsed()) as u64, Ordering::Relaxed);
                    probe.calls.fetch_add(1, Ordering::Relaxed);
                    if let Ok(c) = &c {
                        probe
                            .schedules
                            .lock()
                            .expect("no build panicked while holding the capture")
                            .push(c.schedule.clone());
                    }
                    c
                })
            })
            .collect();
        let (results, wall) = timed(|| {
            experiments
                .iter()
                .map(|e| e.sweep(&self.grid).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        });
        let results = results?;
        let mut m = Metrics::new();
        let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_insert(0.0) += v;
        for ((probe, result), family) in probes.iter().zip(&results).zip(FAMILIES) {
            add(
                "collectives.build_calls",
                probe.calls.load(Ordering::Relaxed) as f64,
            );
            add(
                "collectives.build_ns",
                probe.ns.load(Ordering::Relaxed) as f64,
            );
            let schedules = probe
                .schedules
                .lock()
                .expect("no build panicked while holding the capture")
                .clone();
            let phases = self
                .replay(&schedules, result)
                .map_err(|e| format!("{family}: {e}"))?;
            for (k, v) in phases {
                add(k, v);
            }
            let st = result.theta_stats;
            add("flow.theta_lookups", st.lookups() as f64);
            add("flow.theta_hits", st.hits as f64);
            add("flow.theta_misses", st.misses as f64);
        }
        let lookups = m["flow.theta_lookups"].max(1.0);
        m.insert(
            "flow.theta_hit_ratio".into(),
            m["flow.theta_hits"] / lookups,
        );
        m.insert("trace.wall_ns".into(), ns(wall));
        Ok((results, m))
    }

    /// Replays one family's sweep phase by phase on the sweep's pool and
    /// checks the replayed cells against the sweep's.
    fn replay(
        &self,
        schedules: &[Schedule],
        result: &SweepResult,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let solver = ThroughputSolver::ForcedPath;
        let accounting = ReconfigAccounting::PaperConservative;
        let params = CostParams::paper_defaults();
        let (warm, warm_wall) = timed(|| {
            ThetaCache::warm(
                &self.pool,
                &self.base,
                solver,
                schedules
                    .iter()
                    .flat_map(|s| s.steps().iter().map(|st| &st.matching)),
            )
        });
        let warm = warm.map_err(|e| e.to_string())?;
        let (tables, table_wall) = timed(|| {
            self.pool.map_with(
                schedules,
                || warm.clone(),
                |cache, _, s| step_cost_table(&self.base, s, cache),
            )
        });
        let tables = tables
            .0
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let problems: Vec<SwitchingProblem> = tables
            .iter()
            .flat_map(|table| {
                self.grid.reconf_delays_s.iter().map(move |&alpha_r| {
                    Ok(SwitchingProblem {
                        n: self.base.n(),
                        params,
                        reconfig: ReconfigModel::constant(alpha_r).map_err(|e| e.to_string())?,
                        base_config: aps_core::problem::config_of_topology(&self.base),
                        steps: table.clone(),
                    })
                })
            })
            .collect::<Result<_, String>>()?;
        let eval = |policies: &'static [Policy]| {
            timed(|| {
                self.pool.try_map(&problems, |_, p| {
                    policies
                        .iter()
                        .map(|&pol| evaluate_policy(p, pol, accounting).map(|r| r.total_s()))
                        .collect::<Result<Vec<f64>, _>>()
                })
            })
        };
        let (heuristics, policy_wall) =
            eval(&[Policy::StaticBase, Policy::AlwaysMatched, Policy::Threshold]);
        let (optimal, dp_wall) = eval(&[Policy::Optimal]);
        let heuristics = heuristics.map_err(|e| e.to_string())?;
        let optimal = optimal.map_err(|e| e.to_string())?;
        let cells = result.cells.iter().flatten();
        for ((cell, h), o) in cells.zip(&heuristics).zip(&optimal) {
            let replayed = [h[0], h[1], o[0], h[2]];
            let swept = [
                cell.t_static_s,
                cell.t_bvn_s,
                cell.t_opt_s,
                cell.t_threshold_s,
            ];
            if replayed.map(f64::to_bits) != swept.map(f64::to_bits) {
                return Err(format!("replayed cell {replayed:?} differs from {swept:?}"));
            }
        }
        Ok(vec![
            ("flow.warm_ns", ns(warm_wall)),
            ("cost.table_ns", ns(table_wall)),
            ("core.policy_ns", ns(policy_wall)),
            ("core.dp_ns", ns(dp_wall)),
        ])
    }
}

/// Digest of a call's results: every cell time and the θ-cache counters.
pub fn digest(results: &[SweepResult]) -> u64 {
    fnv(results.iter().flat_map(|r| {
        let st = r.theta_stats;
        r.cells
            .iter()
            .flatten()
            .flat_map(|c| [c.t_static_s, c.t_bvn_s, c.t_opt_s, c.t_threshold_s].map(f64::to_bits))
            .chain([st.hits, st.misses, st.entries as u64])
            .collect::<Vec<u64>>()
    }))
}

impl Bench for Inputs {
    type Output = u64;
    const RATE: &'static str = "cells_per_s";

    fn units(&self) -> u64 {
        (FAMILIES.len() * self.grid.message_bytes.len() * self.grid.reconf_delays_s.len()) as u64
    }

    fn call(&self) -> (Result<u64, String>, Duration) {
        let (results, wall) = timed(|| {
            self.experiments
                .iter()
                .map(|e| e.sweep(&self.grid).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        });
        (results.and_then(|r| self.check(&r)), wall)
    }

    fn traced_call(&self) -> Result<(u64, Metrics), String> {
        let (results, m) = self.traced()?;
        Ok((self.check(&results)?, m))
    }
}

/// Runs plan-sweep: see [`crate::run_workload`] for the protocol. The
/// sweep has no seed.
pub fn run(args: &Args, report: &mut Report) {
    let width = pool_width();
    let build = || Inputs::new(Pool::new(width), PORTS);
    report.set("par.threads", width as f64);
    report.notes.push(format!(
        "pool width {width} (available parallelism capped at 2)"
    ));
    match build() {
        Ok(inputs) => crate::measure(&inputs, build, args, report),
        Err(e) => report.fail(1, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Inputs {
        Inputs::new(Pool::new(2), 16).expect("tiny inputs build")
    }

    #[test]
    fn decorators_are_transparent() {
        let inputs = tiny();
        let (plain, _) = inputs.call();
        let (traced, _) = inputs.traced_call().expect("traced call succeeds");
        assert_eq!(plain.expect("untraced call succeeds"), traced);
    }

    #[test]
    fn child_spans_fit_in_the_wall() {
        let inputs = tiny();
        let (_, m) = inputs.traced_call().expect("traced call succeeds");
        let wall = m["trace.wall_ns"];
        for span in [
            "collectives.build_ns",
            "flow.warm_ns",
            "cost.table_ns",
            "core.policy_ns",
            "core.dp_ns",
        ] {
            assert!(m[span] <= wall, "{span} {} ns > wall {wall} ns", m[span]);
        }
        let rows = (FAMILIES.len() * inputs.grid.message_bytes.len()) as f64;
        assert_eq!(m["collectives.build_calls"], rows);
    }
}
