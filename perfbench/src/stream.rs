//! `stream-train` and `stream-perm`: the closed streaming simulator
//! (`run_workload_totals`) on an optical circuit switch under `Greedy`.
//!
//! Both workloads exercise the same layers in opposite proportions. The
//! training loop repeats a dozen matchings, so θ pricing hits its cache
//! after the first epoch and the fluid solve over n disjoint one-hop
//! flows dominates. Random permutations miss the θ cache on every step
//! and route multi-hop around the ring, so forced-path θ dominates and
//! the fluid solve sees heavily shared links.

use crate::expected;
use crate::layers::{replay_fluid, replay_theta, TracedController, TracedFabric, TracedWorkload};
use crate::report::{median, ns, quantile, timed, Report};
use crate::{Args, Bench, Metrics};
use aps_collectives::workload::generators::{RandomPermutations, TrainingLoop};
use aps_collectives::{Step, Workload};
use aps_core::controller::{Controller, Greedy};
use aps_core::ConfigChoice;
use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_flow::ThroughputSolver;
use aps_matrix::Matching;
use aps_sim::stream::{run_workload_totals, StreamPricing, StreamSummary};
use aps_sim::{RunConfig, SimError};
use aps_topology::{builders, Topology};
use std::time::{Duration, Instant};

/// Which stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Endless pipeline-parallel training loop on 1024 ports.
    Train,
    /// Seeded random derangements on 256 ports.
    Perm,
}

impl Kind {
    /// Ports of the domain.
    pub fn ports(self) -> usize {
        match self {
            Kind::Train => 1024,
            Kind::Perm => 256,
        }
    }

    /// Reconfiguration delay α_r, seconds.
    fn alpha_r_s(self) -> f64 {
        match self {
            Kind::Train => 10e-6,
            Kind::Perm => 100e-6,
        }
    }

    /// Steps per measured call: ten training epochs of 28 steps, or 100
    /// permutations. Permutation calls are short (about 0.1 s) so that a
    /// run holds enough of them for its best call to fall in a stretch
    /// the host's co-tenants leave undisturbed.
    pub fn steps_per_rep(self) -> usize {
        match self {
            Kind::Train => 280,
            Kind::Perm => 100,
        }
    }
}

/// The demand source, cloned fresh for every call so each call replays
/// the same stream.
#[derive(Clone)]
enum Source {
    Train(TrainingLoop),
    Perm(RandomPermutations),
}

/// Everything built before the first timed call.
pub struct Inputs {
    kind: Kind,
    base: Topology,
    base_config: Matching,
    reconfig: ReconfigModel,
    cfg: RunConfig,
    source: Source,
    steps: usize,
}

impl Inputs {
    /// Builds the inputs of `kind` on `n` ports for `steps` steps per
    /// call; `seed` drives the permutation stream (the training loop has
    /// no randomness).
    ///
    /// # Errors
    ///
    /// Reports a construction failure of any input.
    pub fn new(kind: Kind, n: usize, seed: u64, steps: usize) -> Result<Self, String> {
        let base = builders::ring_unidirectional(n).map_err(|e| e.to_string())?;
        let base_config = Matching::shift(n, 1).map_err(|e| e.to_string())?;
        let reconfig = ReconfigModel::constant(kind.alpha_r_s()).map_err(|e| e.to_string())?;
        let source = match kind {
            Kind::Train => Source::Train(
                TrainingLoop::new(n, 4, MIB, 4.0 * MIB, None).map_err(|e| e.to_string())?,
            ),
            Kind::Perm => Source::Perm(
                RandomPermutations::new(n, 1024.0, None, seed).map_err(|e| e.to_string())?,
            ),
        };
        Ok(Self {
            kind,
            base,
            base_config,
            reconfig,
            cfg: RunConfig::paper_defaults(),
            source,
            steps,
        })
    }

    fn fabric(&self) -> CircuitSwitch {
        CircuitSwitch::new(self.base_config.clone(), self.reconfig)
    }

    fn workload(&self) -> Box<dyn Workload> {
        match self.source.clone() {
            Source::Train(w) => Box::new(w),
            Source::Perm(w) => Box::new(w),
        }
    }

    fn run(
        &self,
        fabric: &mut dyn aps_fabric::Fabric,
        workload: &mut dyn Workload,
        controller: &dyn Controller,
    ) -> Result<StreamSummary, SimError> {
        run_workload_totals(
            fabric,
            &self.base,
            workload,
            controller,
            StreamPricing::new(self.reconfig),
            &self.cfg,
            self.steps,
        )
    }

    /// One untraced call on a fresh fabric and stream; only the call is
    /// timed.
    fn untraced(&self) -> (Result<StreamSummary, SimError>, Duration) {
        let mut fabric = self.fabric();
        let mut workload = self.workload();
        timed(|| self.run(&mut fabric, workload.as_mut(), &Greedy))
    }

    /// One call with every layer object wrapped in a timing decorator.
    fn traced(&self) -> Result<Traced, SimError> {
        let mut fabric = self.fabric();
        let mut workload = self.workload();
        let mut tw = TracedWorkload::new(workload.as_mut());
        let mut tf = TracedFabric::new(&mut fabric);
        let tc = TracedController::new(&Greedy);
        let t0 = Instant::now();
        let summary = self.run(&mut tf, &mut tw, &tc)?;
        let end = Instant::now();
        let (decide_calls, decide_ns, choices) = tc.into_parts();
        Ok(Traced {
            summary,
            wall_ns: ns(end - t0),
            end,
            pull_calls: tw.pull_calls,
            pull_ns: tw.pull_ns,
            pulled_at: tw.pulled_at,
            steps: tw.steps,
            decide_calls,
            decide_ns,
            choices,
            request_calls: tf.calls,
            request_ns: tf.ns,
            ports_changed: tf.ports_changed,
        })
    }

    /// Per-layer metrics of one traced call, with the θ and fluid layers
    /// replayed from the captured steps.
    ///
    /// # Errors
    ///
    /// Reports a replay failure, or a fluid replay whose transfer time
    /// disagrees with the run's.
    fn layers(&self, t: &Traced) -> Result<Metrics, String> {
        let theta = replay_theta(&self.base, ThroughputSolver::ForcedPath, &t.steps)
            .map_err(|e| e.to_string())?;
        let fluid = replay_fluid(&self.base_config, &t.steps, &t.choices, &self.cfg)?;
        if fluid.transfer_ps != t.summary.transfer_ps {
            return Err(format!(
                "fluid replay transfers {} ps, the run {} ps",
                fluid.transfer_ps, t.summary.transfer_ps
            ));
        }
        // Per-step wall: from one pull to the next (the last step ends
        // with the call).
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        let mut all = Vec::new();
        for (i, &at) in t.pulled_at.iter().enumerate() {
            let next = t.pulled_at.get(i + 1).copied().unwrap_or(t.end);
            let us = (next - at).as_secs_f64() * 1e6;
            all.push(us);
            if theta.missed[i] {
                cold.push(us);
            } else {
                warm.push(us);
            }
        }
        let lookups = theta.hits + theta.misses;
        let matched = t
            .choices
            .iter()
            .filter(|&&c| c == ConfigChoice::Matched)
            .count();
        let children = t.pull_ns as f64
            + theta.ns as f64
            + t.decide_ns as f64
            + t.request_ns as f64
            + fluid.ns as f64;
        let mut m = Metrics::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        put("collectives.pull_calls", t.pull_calls as f64);
        put("collectives.pull_ns", t.pull_ns as f64);
        put("flow.theta_lookups", lookups as f64);
        put("flow.theta_hits", theta.hits as f64);
        put("flow.theta_misses", theta.misses as f64);
        put(
            "flow.theta_hit_ratio",
            theta.hits as f64 / lookups.max(1) as f64,
        );
        put("flow.theta_ns", theta.ns as f64);
        put("core.decide_calls", t.decide_calls as f64);
        put("core.decide_ns", t.decide_ns as f64);
        put(
            "core.matched_ratio",
            matched as f64 / t.choices.len().max(1) as f64,
        );
        put("fabric.request_calls", t.request_calls as f64);
        put("fabric.request_ns", t.request_ns as f64);
        put("fabric.ports_changed", t.ports_changed as f64);
        put("sim.fluid_calls", fluid.calls as f64);
        put("sim.fluid_flows", fluid.flows as f64);
        put(
            "sim.fluid_links_per_flow",
            fluid.links as f64 / fluid.flows.max(1) as f64,
        );
        put("sim.fluid_ns", fluid.ns as f64);
        put("sim.self_ns", t.wall_ns - children);
        put("sim.step_cold_us_p50", median(&cold));
        put("sim.step_warm_us_p50", median(&warm));
        put("sim.step_us_p99", quantile(&all, 0.99));
        put("trace.wall_ns", t.wall_ns);
        Ok(m)
    }

    /// Checks a call's summary: exact expected values for the training
    /// loop, and for any stream the identities a fault-free single
    /// collective satisfies.
    fn check(&self, s: &StreamSummary) -> Result<(), String> {
        if s.steps != self.steps {
            return Err(format!("{} steps run, {} asked", s.steps, self.steps));
        }
        let phases = s.barrier_ps + s.alpha_ps + s.reconfig_ps + s.transfer_ps + s.compute_ps;
        if phases != s.total_ps {
            return Err(format!(
                "phases sum to {phases} ps but the run took {} ps",
                s.total_ps
            ));
        }
        let full_size =
            self.steps == self.kind.steps_per_rep() && self.base.n() == self.kind.ports();
        match self.kind {
            Kind::Train if full_size && *s != expected::TRAIN => Err(format!(
                "training loop summary {s:?} is not the expected one"
            )),
            Kind::Perm if s.matched_steps != 0 || s.reconfig_events != 0 => Err(format!(
                "{} permutation steps left the base ring",
                s.matched_steps
            )),
            _ => Ok(()),
        }
    }
}

/// What one traced call captured.
struct Traced {
    summary: StreamSummary,
    wall_ns: f64,
    end: Instant,
    pull_calls: u64,
    pull_ns: u64,
    pulled_at: Vec<Instant>,
    steps: Vec<Step>,
    decide_calls: u64,
    decide_ns: u64,
    choices: Vec<ConfigChoice>,
    request_calls: u64,
    request_ns: u64,
    ports_changed: u64,
}

impl Bench for Inputs {
    type Output = StreamSummary;
    const RATE: &'static str = "steps_per_s";

    fn units(&self) -> u64 {
        self.steps as u64
    }

    fn call(&self) -> (Result<StreamSummary, String>, Duration) {
        let (res, wall) = self.untraced();
        let res = res
            .map_err(|e| e.to_string())
            .and_then(|s| self.check(&s).map(|()| s));
        (res, wall)
    }

    fn traced_call(&self) -> Result<(StreamSummary, Metrics), String> {
        let t = self.traced().map_err(|e| e.to_string())?;
        self.check(&t.summary)?;
        let m = self.layers(&t)?;
        Ok((t.summary, m))
    }
}

/// Checks the permutation stream of each recorded seed among the default
/// and the measured one against its expected summary (the training loop
/// has no seed and is checked on every call).
fn check_expected(kind: Kind, seed: u64, report: &mut Report) {
    if kind != Kind::Perm {
        return;
    }
    let steps = expected::PERM_CHECK_STEPS;
    let mut seeds = vec![expected::DEFAULT_SEED, seed];
    seeds.dedup();
    for seed in seeds {
        let Some(want) = expected::perm(seed) else {
            continue;
        };
        report.attempted += steps as u64;
        let got = Inputs::new(kind, kind.ports(), seed, steps)
            .and_then(|inp| inp.untraced().0.map_err(|e| e.to_string()));
        match got {
            Ok(s) if s == want => {}
            Ok(s) => report.fail(
                steps as u64,
                format!("seed {seed}: permutation summary {s:?} is not the expected one"),
            ),
            Err(e) => report.fail(steps as u64, e),
        }
    }
}

/// Runs a stream workload: see [`crate::run_workload`] for the protocol.
pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let steps = kind.steps_per_rep();
    let build = || Inputs::new(kind, kind.ports(), args.seed, steps);
    report.set("par.threads", 1.0);
    match build() {
        Ok(inputs) => {
            check_expected(kind, args.seed, report);
            crate::measure(&inputs, build, args, report);
        }
        Err(e) => report.fail(1, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few steps of each stream on a small ring.
    fn tiny() -> Vec<Inputs> {
        [(Kind::Train, 56), (Kind::Perm, 24)]
            .into_iter()
            .map(|(kind, steps)| Inputs::new(kind, 64, 3, steps).expect("tiny inputs build"))
            .collect()
    }

    #[test]
    fn decorators_are_transparent() {
        for inputs in tiny() {
            let (plain, _) = inputs.call();
            let (traced, _) = inputs.traced_call().expect("traced call succeeds");
            assert_eq!(plain.expect("untraced call succeeds"), traced);
        }
    }

    #[test]
    fn child_spans_fit_in_the_wall() {
        for inputs in tiny() {
            let (_, m) = inputs.traced_call().expect("traced call succeeds");
            let wall = m["trace.wall_ns"];
            let nested = m["collectives.pull_ns"] + m["core.decide_ns"] + m["fabric.request_ns"];
            assert!(nested <= wall, "nested spans {nested} ns > wall {wall} ns");
            for replayed in ["flow.theta_ns", "sim.fluid_ns"] {
                assert!(
                    m[replayed] <= wall,
                    "{replayed} {} ns > wall {wall} ns",
                    m[replayed]
                );
            }
            assert_eq!(m["collectives.pull_calls"], inputs.steps as f64);
            assert_eq!(m["core.decide_calls"], inputs.steps as f64);
            assert_eq!(m["flow.theta_lookups"], inputs.steps as f64);
        }
    }
}
