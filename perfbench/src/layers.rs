//! Timing decorators around the layer objects the benchmark hands to the
//! program, and replays of the two layers the step loop calls internally.
//!
//! The decorators forward every call unchanged, so a traced run produces
//! the same outputs as an untraced one (checked by the tests). Spans are
//! kept in memory and folded into metrics after the run.

use aps_collectives::workload::arrivals::ArrivalProcess;
use aps_collectives::{CollectiveKind, Step, Workload, WorkloadCtx};
use aps_core::controller::{Controller, StepObservation};
use aps_core::ConfigChoice;
use aps_cost::units::{secs_to_picos, Picos};
use aps_faas::JobDemand;
use aps_fabric::{Fabric, FabricError, FabricState, ReconfigOutcome};
use aps_flow::{FlowError, ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_sim::{simulate_flows_scratch, FluidScratch, RunConfig};
use aps_topology::Topology;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every pull of a [`Workload`] and captures the pulled steps and
/// the instant each pull started (the per-step wall is the gap between
/// successive pulls).
pub struct TracedWorkload<'a> {
    inner: &'a mut dyn Workload,
    /// Time spent inside the inner pulls.
    pub pull_ns: u64,
    /// Pull calls, including the final one that finds the stream empty.
    pub pull_calls: u64,
    /// Start instant of every successful pull.
    pub pulled_at: Vec<Instant>,
    /// Every step pulled, in order.
    pub steps: Vec<Step>,
}

impl<'a> TracedWorkload<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            pull_ns: 0,
            pull_calls: 0,
            pulled_at: Vec::new(),
            steps: Vec::new(),
        }
    }

    fn note(&mut self, t0: Instant, step: Option<&Step>) {
        self.pull_ns += elapsed_ns(t0);
        self.pull_calls += 1;
        if let Some(s) = step {
            self.pulled_at.push(t0);
            self.steps.push(s.clone());
        }
    }
}

impl Workload for TracedWorkload<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> CollectiveKind {
        self.inner.kind()
    }
    fn next_step(&mut self, ctx: &WorkloadCtx) -> Option<Step> {
        let t0 = Instant::now();
        let step = self.inner.next_step(ctx);
        self.note(t0, step.as_ref());
        step
    }
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.next_step_into(ctx, out);
        self.note(t0, ok.then_some(&*out));
        ok
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Times every decision of a [`Controller`] and records the choices.
pub struct TracedController<'a> {
    inner: &'a dyn Controller,
    calls: AtomicU64,
    ns: AtomicU64,
    choices: Mutex<Vec<ConfigChoice>>,
}

impl<'a> TracedController<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Controller) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            choices: Mutex::new(Vec::new()),
        }
    }

    /// `(calls, ns, choices)` recorded so far.
    pub fn into_parts(self) -> (u64, u64, Vec<ConfigChoice>) {
        (
            self.calls.into_inner(),
            self.ns.into_inner(),
            self.choices
                .into_inner()
                .expect("no decision panicked while holding the choice log"),
        )
    }
}

impl Controller for TracedController<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&self, obs: &StepObservation<'_>) -> ConfigChoice {
        let t0 = Instant::now();
        let choice = self.inner.decide(obs);
        // Counters publish no other data: relaxed ordering suffices.
        self.ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.choices
            .lock()
            .expect("no decision panicked while holding the choice log")
            .push(choice);
        choice
    }
    fn explain(&self, obs: &StepObservation<'_>, choice: ConfigChoice) -> String {
        self.inner.explain(obs, choice)
    }
}

/// Times every reconfiguration request a [`Fabric`] serves.
pub struct TracedFabric<'a> {
    inner: &'a mut dyn Fabric,
    /// Requests served.
    pub calls: u64,
    /// Time inside the requests.
    pub ns: u64,
    /// TX ports retargeted, summed over requests.
    pub ports_changed: u64,
}

impl<'a> TracedFabric<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Fabric) -> Self {
        Self {
            inner,
            calls: 0,
            ns: 0,
            ports_changed: 0,
        }
    }

    fn note(&mut self, t0: Instant, outcome: Option<&ReconfigOutcome>) {
        self.ns += elapsed_ns(t0);
        self.calls += 1;
        self.ports_changed += outcome.map_or(0, |o| o.ports_changed as u64);
    }
}

impl Fabric for TracedFabric<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn current(&self) -> &Matching {
        self.inner.current()
    }
    fn request(&mut self, target: &Matching, now: Picos) -> Result<ReconfigOutcome, FabricError> {
        let t0 = Instant::now();
        let out = self.inner.request(target, now);
        self.note(t0, out.as_ref().ok());
        out
    }
    fn busy_until(&self) -> Picos {
        self.inner.busy_until()
    }
    fn save_state(&self) -> FabricState {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &FabricState) -> Result<(), FabricError> {
        self.inner.load_state(state)
    }
    fn request_when_free(
        &mut self,
        target: &Matching,
        now: Picos,
    ) -> Result<(Picos, ReconfigOutcome), FabricError> {
        let t0 = Instant::now();
        let out = self.inner.request_when_free(target, now);
        self.note(t0, out.as_ref().ok().map(|(_, o)| o));
        out
    }
}

/// Shared nanosecond counter for decorators the program takes by `Box`
/// (arrival processes and job demand are neither `Send` nor returned).
pub type NsCell = Rc<Cell<u64>>;

/// Times every gap an [`ArrivalProcess`] draws.
pub struct TracedArrivals {
    inner: Box<dyn ArrivalProcess>,
    ns: NsCell,
}

impl TracedArrivals {
    /// Wraps `inner`, adding its time to `ns`.
    pub fn new(inner: Box<dyn ArrivalProcess>, ns: NsCell) -> Self {
        Self { inner, ns }
    }
}

impl ArrivalProcess for TracedArrivals {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_gap_ps(&mut self) -> Option<u64> {
        let t0 = Instant::now();
        let gap = self.inner.next_gap_ps();
        self.ns.set(self.ns.get() + elapsed_ns(t0));
        gap
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Times every job demand a [`JobDemand`] builds.
pub struct TracedDemand {
    inner: Box<dyn JobDemand>,
    ns: NsCell,
}

impl TracedDemand {
    /// Wraps `inner`, adding its time to `ns`.
    pub fn new(inner: Box<dyn JobDemand>, ns: NsCell) -> Self {
        Self { inner, ns }
    }
}

impl JobDemand for TracedDemand {
    fn build(&mut self, id: u64) -> Box<dyn Workload> {
        let t0 = Instant::now();
        let w = self.inner.build(id);
        self.ns.set(self.ns.get() + elapsed_ns(t0));
        w
    }
}

/// θ pricing of captured steps, replayed through a fresh [`ThetaCache`]
/// exactly as the stream loop prices them (one `get` per step, in order).
#[derive(Debug, Default)]
pub struct ThetaReplay {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that ran the solver.
    pub misses: u64,
    /// Time inside `get`.
    pub ns: u64,
    /// Per step: did its lookup miss?
    pub missed: Vec<bool>,
}

/// Replays θ pricing of `steps` on `base`.
///
/// # Errors
///
/// Propagates pricing errors.
pub fn replay_theta(
    base: &Topology,
    solver: ThroughputSolver,
    steps: &[Step],
) -> Result<ThetaReplay, FlowError> {
    let mut cache = ThetaCache::new(base, solver);
    let mut out = ThetaReplay::default();
    for s in steps {
        let before = cache.stats().misses;
        let t0 = Instant::now();
        cache.get(base, &s.matching)?;
        out.ns += elapsed_ns(t0);
        out.missed.push(cache.stats().misses > before);
    }
    let stats = cache.stats();
    out.hits = stats.hits;
    out.misses = stats.misses;
    Ok(out)
}

/// The max-min fluid solve of captured steps, replayed through
/// [`simulate_flows_scratch`] on each step's achieved configuration.
#[derive(Debug, Default)]
pub struct FluidReplay {
    /// Solves run (steps with at least one flow).
    pub calls: u64,
    /// Flows solved, summed over steps.
    pub flows: u64,
    /// Links on flow paths, summed over flows.
    pub links: u64,
    /// Time inside the solver.
    pub ns: u64,
    /// Summed per-step transfer time, which must equal the run's
    /// `StreamSummary::transfer_ps`.
    pub transfer_ps: Picos,
}

/// Replays the fluid solve of `steps`, step `i` running on its own
/// matching when `choices[i]` is matched and on `base_config` otherwise —
/// the configuration a fault-free fabric achieves. Pairs are routed along
/// the circuit successor chain with links numbered by ascending sender,
/// the simulator's convention.
///
/// # Errors
///
/// Reports a pair the configuration cannot route, or a length mismatch.
pub fn replay_fluid(
    base_config: &Matching,
    steps: &[Step],
    choices: &[ConfigChoice],
    cfg: &RunConfig,
) -> Result<FluidReplay, String> {
    if steps.len() != choices.len() {
        return Err(format!(
            "{} steps pulled but {} decisions taken",
            steps.len(),
            choices.len()
        ));
    }
    let bandwidth = cfg.params.bandwidth_bytes_per_sec();
    let mut scratch = FluidScratch::new();
    let mut caps: Vec<f64> = Vec::new();
    let mut link_of: Vec<Option<usize>> = Vec::new();
    let mut out = FluidReplay::default();
    for (i, (step, &choice)) in steps.iter().zip(choices).enumerate() {
        let config = if choice == ConfigChoice::Matched {
            &step.matching
        } else {
            base_config
        };
        let n = config.n();
        link_of.clear();
        link_of.resize(n, None);
        let mut num_links = 0usize;
        for (s, _) in config.pairs() {
            link_of[s] = Some(num_links);
            num_links += 1;
        }
        scratch.start();
        let mut flows = 0u64;
        for (src, dst) in step.matching.pairs() {
            let mut cur = src;
            let mut hops = 0usize;
            loop {
                let (Some(next), Some(link)) = (config.dst_of(cur), link_of[cur]) else {
                    return Err(format!("step {i}: pair {src}->{dst} is unroutable"));
                };
                scratch.push_link(link);
                hops += 1;
                cur = next;
                if cur == dst {
                    break;
                }
                if hops >= n {
                    return Err(format!("step {i}: pair {src}->{dst} is unreachable"));
                }
            }
            scratch.seal_flow(step.bytes_per_pair);
            flows += 1;
        }
        if flows == 0 {
            continue;
        }
        caps.clear();
        caps.resize(num_links, bandwidth);
        let t0 = Instant::now();
        simulate_flows_scratch(&caps, &mut scratch);
        out.ns += elapsed_ns(t0);
        out.calls += 1;
        out.flows += flows;
        let mut worst_s = 0.0f64;
        for f in 0..scratch.num_flows() {
            out.links += scratch.path_len(f) as u64;
            let total = scratch.finish_of(f) + cfg.params.delta_s * scratch.path_len(f) as f64;
            worst_s = worst_s.max(total);
        }
        out.transfer_ps += secs_to_picos(worst_s);
    }
    Ok(out)
}
