//! The service event loop: merged arrivals, admission, execution,
//! departure reclaim.
//!
//! [`run_service`] interleaves three deterministic event sources on one
//! simulated clock:
//!
//! 1. **Reclaims** — departed jobs release their partition (exactly
//!    once) and retry the ingress queue;
//! 2. **Arrivals** — the per-class [`ArrivalProcess`] streams, merged
//!    earliest-first (ties to the lowest class index);
//! 3. **Steps** — the earliest-request job executes its next step via
//!    [`ServiceExecutor`].
//!
//! Ties across sources resolve reclaim < arrival < step, so capacity
//! freed at instant *t* is visible to an arrival at *t*, and a job
//! admitted at *t* joins the scheduler before any step at *t* commits —
//! which is exactly what makes an all-arrive-at-t0 trace reproduce the
//! closed-system tenant run byte for byte.
//!
//! Everything folds into the O(1) [`ServiceSummary`]: per-class SLO
//! counters and histograms, the global [`StreamSummary`](aps_sim::StreamSummary) step
//! totals,
//! and the makespan. Per-job records are materialized only when
//! [`ServiceConfig::keep_job_reports`] asks for them.

use crate::admission::AdmissionPolicy;
use crate::error::FaasError;
use crate::partition::{PartitionAllocator, PartitionHandle};
use crate::slo::{RejectReason, ServiceSummary, TenantSlo};
use aps_collectives::workload::arrivals::ArrivalProcess;
use aps_collectives::Workload;
use aps_cost::units::Picos;
use aps_fabric::Fabric;
use aps_matrix::Matching;
use aps_sim::record::RecordSink;
use aps_sim::{JobOutcome, RunConfig, ServiceExecutor, ServiceJobSpec, ServiceSwitching};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Builds one job's demand stream. Implemented for any
/// `FnMut(u64) -> Box<dyn Workload>`; the job id (global admission
/// counter) is the only input, so demand is a pure function of it and
/// the run replays bit-identically.
pub trait JobDemand {
    /// The demand stream for job `id`.
    fn build(&mut self, id: u64) -> Box<dyn Workload>;
}

impl<F: FnMut(u64) -> Box<dyn Workload>> JobDemand for F {
    fn build(&mut self, id: u64) -> Box<dyn Workload> {
        self(id)
    }
}

/// One tenant class: an arrival process paired with a demand generator
/// and the fabric footprint every job of the class occupies.
pub struct TenantClass {
    /// Class name, for reports.
    pub name: String,
    /// Ports each job of this class needs (its partition size).
    pub ports: usize,
    /// Base circuits of each job, in local coordinates over `ports`.
    pub base_config: Matching,
    /// Per-step base/matched choices for each job.
    pub switching: ServiceSwitching,
    /// When jobs of this class arrive.
    pub arrivals: Box<dyn ArrivalProcess>,
    /// What each job transfers once admitted.
    pub demand: Box<dyn JobDemand>,
}

impl TenantClass {
    /// A class whose every job runs the same demand; convenience over
    /// hand-writing the [`JobDemand`] closure.
    pub fn new(
        name: impl Into<String>,
        ports: usize,
        base_config: Matching,
        switching: ServiceSwitching,
        arrivals: Box<dyn ArrivalProcess>,
        demand: Box<dyn JobDemand>,
    ) -> Self {
        Self {
            name: name.into(),
            ports,
            base_config,
            switching,
            arrivals,
            demand,
        }
    }
}

/// Knobs of a service run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Step-engine configuration (shared with every closed-system
    /// executor).
    pub run: RunConfig,
    /// What happens when an arrival does not fit.
    pub admission: AdmissionPolicy,
    /// Stop offering new arrivals after this many jobs (`None` =
    /// unbounded — the arrival processes themselves must then be
    /// finite, or the run never ends).
    pub max_jobs: Option<u64>,
    /// Keep each job's full [`JobOutcome`] (including its per-step
    /// report) in the [`ServiceReport`]. Off by default: the steady
    /// state then materializes nothing per job.
    pub keep_job_reports: bool,
}

impl ServiceConfig {
    /// Paper-default step engine, reject admission, no job cap, O(1)
    /// accounting only.
    pub fn paper_defaults() -> Self {
        Self {
            run: RunConfig::paper_defaults(),
            admission: AdmissionPolicy::Reject,
            max_jobs: None,
            keep_job_reports: false,
        }
    }
}

/// A per-job record, kept only under
/// [`ServiceConfig::keep_job_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceJobRecord {
    /// Class index in the engine input.
    pub class: usize,
    /// When the job was offered (arrival instant).
    pub offered_ps: Picos,
    /// The executor's final accounting for the job.
    pub outcome: JobOutcome,
}

/// What a service run returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// The O(1) fold: per-class SLO state, step totals, makespan.
    pub summary: ServiceSummary,
    /// Per-job outcomes in departure order; empty unless
    /// [`ServiceConfig::keep_job_reports`].
    pub jobs: Vec<ServiceJobRecord>,
}

/// A job offered but not yet admitted (queued or stalling its source).
struct PendingJob {
    id: u64,
    class: usize,
    offered_ps: Picos,
    workload: Box<dyn Workload>,
}

/// Arrival-side state of one class.
struct ClassState {
    /// Absolute time of the next arrival; `None` when exhausted or
    /// stalled.
    next_at: Option<Picos>,
    /// The job holding the class's source under backpressure.
    stalled: Option<PendingJob>,
}

/// Executor-slot-indexed bookkeeping the engine keeps per live job.
struct LiveJob {
    class: usize,
    handle: PartitionHandle,
    offered_ps: Picos,
}

/// The next event of the loop.
enum Event {
    /// A departed job's partition comes back.
    Reclaim,
    /// The class at this index offers a job.
    Arrival(usize),
    /// The earliest-request job executes its next step.
    Step,
}

/// The event loop's state, with one method per event and per admission
/// rule.
struct Engine<'a> {
    classes: &'a mut [TenantClass],
    cfg: ServiceConfig,
    queue_cap: usize,
    exec: ServiceExecutor<'static>,
    alloc: PartitionAllocator,
    /// The FIFO ingress queue.
    queue: VecDeque<PendingJob>,
    /// Departures awaiting reclaim, earliest first, ties in push order.
    reclaims: BinaryHeap<Reverse<(Picos, u64, usize)>>,
    reclaim_seq: u64,
    live: Vec<Option<LiveJob>>,
    slo: Vec<TenantSlo>,
    jobs: Vec<ServiceJobRecord>,
    makespan_ps: Picos,
    next_id: u64,
    class_states: Vec<ClassState>,
}

/// Runs an open-system service to completion: see the module docs for
/// the event-loop semantics. Arrival processes are
/// [`reset`](ArrivalProcess::reset) up front, so repeated runs of the
/// same classes are bit-identical.
///
/// # Errors
///
/// Structural problems only ([`FaasError::NoClasses`],
/// [`FaasError::BadClass`]). Per-job failures — stuck ports, unroutable
/// pairs, malformed demand — are isolated into the SLO accounting
/// (`failed` counts) exactly like the tenant run isolates tenant
/// errors.
pub fn run_service(
    fabric: &mut dyn Fabric,
    classes: &mut [TenantClass],
    cfg: &ServiceConfig,
) -> Result<ServiceReport, FaasError> {
    run_service_recorded(fabric, classes, cfg, None)
}

/// [`run_service`] with an optional [`RecordSink`] observing every
/// committed step in global execution order, each record tagged with the
/// executing job's slot — the hook deterministic replay attaches to.
///
/// # Errors
///
/// See [`run_service`].
pub fn run_service_recorded(
    fabric: &mut dyn Fabric,
    classes: &mut [TenantClass],
    cfg: &ServiceConfig,
    mut sink: Option<&mut dyn RecordSink>,
) -> Result<ServiceReport, FaasError> {
    if classes.is_empty() {
        return Err(FaasError::NoClasses);
    }
    if cfg.admission == (AdmissionPolicy::Backpressure { capacity: 0 }) {
        // A stalled job only drains through the queue, and a zero-capacity
        // queue never accepts it: the class would silently lose its whole
        // remaining arrival stream.
        return Err(FaasError::BadConfig {
            what: "backpressure needs a queue capacity of at least 1",
        });
    }
    for (c, class) in classes.iter_mut().enumerate() {
        if class.ports == 0 {
            return Err(FaasError::BadClass {
                class: c,
                what: "jobs need at least one port",
            });
        }
        if class.base_config.n() != class.ports {
            return Err(FaasError::BadClass {
                class: c,
                what: "base config spans a different rank count than `ports`",
            });
        }
        class.arrivals.reset();
    }

    let mut engine = Engine::new(fabric.n(), classes, cfg);
    while let Some((now, event)) = engine.next_event() {
        match event {
            Event::Reclaim => engine.reclaim(now),
            Event::Arrival(c) => engine.arrive(c, now),
            Event::Step => {
                // Reborrow through the blanket `impl RecordSink for &mut S`
                // so the sink isn't held across loop iterations.
                let s = sink.as_mut().map(|s| s as &mut dyn RecordSink);
                if let Some(dep) = engine.exec.execute_next(fabric, s) {
                    debug_assert!(
                        dep.finish_ps >= now,
                        "a departure cannot precede the step event that produced it"
                    );
                    engine.push_reclaim(dep.finish_ps, dep.slot);
                }
            }
        }
    }
    Ok(engine.finish())
}

impl<'a> Engine<'a> {
    fn new(n: usize, classes: &'a mut [TenantClass], cfg: &ServiceConfig) -> Self {
        let class_states = classes
            .iter_mut()
            .map(|class| ClassState {
                next_at: class.arrivals.next_gap_ps(),
                stalled: None,
            })
            .collect();
        Self {
            class_states,
            slo: classes.iter().map(|_| TenantSlo::default()).collect(),
            classes,
            cfg: *cfg,
            queue_cap: cfg.admission.queue_capacity(),
            exec: ServiceExecutor::new(n, cfg.run, cfg.keep_job_reports),
            alloc: PartitionAllocator::new(n),
            queue: VecDeque::new(),
            reclaims: BinaryHeap::new(),
            reclaim_seq: 0,
            live: Vec::new(),
            jobs: Vec::new(),
            makespan_ps: 0,
            next_id: 0,
        }
    }

    /// The earliest pending event; `None` once arrivals are exhausted, the
    /// queue is drained and every job is removed. `min_by_key` keeps the
    /// first of equal instants, so ties resolve reclaim < arrival (lowest
    /// class first) < step.
    fn next_event(&self) -> Option<(Picos, Event)> {
        let arrivals_open = self.cfg.max_jobs.is_none_or(|cap| self.next_id < cap);
        let reclaim = self
            .reclaims
            .peek()
            .map(|Reverse((t, _, _))| (*t, Event::Reclaim));
        let arrival = self
            .class_states
            .iter()
            .enumerate()
            .filter(|_| arrivals_open)
            .filter_map(|(c, cs)| Some((cs.next_at?, Event::Arrival(c))))
            .min_by_key(|&(t, _)| t);
        let step = self.exec.next_request_at().map(|(t, _)| (t, Event::Step));
        [reclaim, arrival, step]
            .into_iter()
            .flatten()
            .min_by_key(|&(t, _)| t)
    }

    /// Queues the reclaim of the job in `slot`, departing at `at`.
    fn push_reclaim(&mut self, at: Picos, slot: usize) {
        self.reclaims.push(Reverse((at, self.reclaim_seq, slot)));
        self.reclaim_seq += 1;
    }

    /// Re-arms class `c`'s source from `now`. A gap that overflows the
    /// clock (saturated huge gaps from near-zero rates) exhausts the
    /// source.
    fn rearm(&mut self, c: usize, now: Picos) {
        self.class_states[c].next_at = self.classes[c]
            .arrivals
            .next_gap_ps()
            .and_then(|g| now.checked_add(g));
    }

    /// The earliest departure: the job leaves the executor, releases its
    /// partition exactly once, and the freed ports go to waiting jobs.
    fn reclaim(&mut self, now: Picos) {
        let Reverse((t, _, slot)) = self.reclaims.pop().expect("peeked reclaim exists");
        debug_assert_eq!(t, now);
        let lj = self.live[slot].take().expect("reclaimed job is live");
        let out = self
            .exec
            .remove(slot)
            .expect("departed job occupies its slot");
        self.alloc
            .reclaim(lj.handle)
            .expect("departing job releases its partition exactly once");
        self.depart(lj.class, lj.offered_ps, out);
        self.retry_admissions(now);
    }

    /// Folds a departed job into its class's SLO counters, the makespan
    /// and, when kept, the per-job records.
    fn depart(&mut self, class: usize, offered_ps: Picos, outcome: JobOutcome) {
        let slo = &mut self.slo[class];
        if outcome.error.is_some() {
            slo.failed += 1;
        } else {
            slo.completed += 1;
            slo.completion.record(outcome.finish_ps - offered_ps);
        }
        self.makespan_ps = self.makespan_ps.max(outcome.finish_ps);
        if self.cfg.keep_job_reports {
            self.jobs.push(ServiceJobRecord {
                class,
                offered_ps,
                outcome,
            });
        }
    }

    /// Class `c` offers a job at `now`: it is rejected when larger than
    /// the fabric, admitted when it fits behind an empty queue, and
    /// parked otherwise. The source re-arms unless it stalled.
    fn arrive(&mut self, c: usize, now: Picos) {
        let id = self.next_id;
        self.next_id += 1;
        self.slo[c].offered += 1;
        let workload = self.classes[c].demand.build(id);
        let job = PendingJob {
            id,
            class: c,
            offered_ps: now,
            workload,
        };
        let want = self.classes[c].ports;
        let n = self.alloc.n();
        let stalled = if want > n {
            self.slo[c].reject(RejectReason::TooLarge {
                wanted: want,
                fabric: n,
            });
            false
        } else {
            // FIFO: a non-empty queue means this arrival waits behind it,
            // even if it would fit right now.
            let free = if self.queue.is_empty() {
                self.alloc.try_alloc(want)
            } else {
                None
            };
            match free {
                Some(handle) => {
                    self.admit(job, handle, now);
                    false
                }
                None => self.park(job, want),
            }
        };
        if stalled {
            self.class_states[c].next_at = None;
        } else {
            self.rearm(c, now);
        }
    }

    /// Records an admission onto `handle` into the executor: wait-time
    /// accounting plus the slot-side bookkeeping. A structurally failing
    /// admission (e.g. a demand stream whose rank count disagrees with
    /// the class's ports) reclaims the partition immediately and counts
    /// as a failed job.
    fn admit(&mut self, job: PendingJob, handle: PartitionHandle, now: Picos) {
        let c = job.class;
        let class = &self.classes[c];
        let ports = self
            .alloc
            .ports(handle)
            .expect("freshly allocated partition is live")
            .to_vec();
        let spec = ServiceJobSpec {
            name: class.name.clone(),
            ports,
            base_config: class.base_config.clone(),
            workload: job.workload,
            switching: class.switching.clone(),
        };
        self.slo[c].admitted += 1;
        self.slo[c].wait.record(now - job.offered_ps);
        match self.exec.admit(job.id, spec, now) {
            Ok(adm) => {
                if self.live.len() <= adm.slot {
                    self.live.resize_with(adm.slot + 1, || None);
                }
                self.live[adm.slot] = Some(LiveJob {
                    class: c,
                    handle,
                    offered_ps: job.offered_ps,
                });
                if !adm.has_work {
                    self.push_reclaim(now, adm.slot);
                }
            }
            Err(e) => {
                // Nothing took residence: release the partition now and
                // account the job as admitted-then-failed.
                self.alloc
                    .reclaim(handle)
                    .expect("failed admission reclaims its fresh partition once");
                let outcome = JobOutcome {
                    id: job.id,
                    name: self.classes[c].name.clone(),
                    start_ps: now,
                    finish_ps: now,
                    steps: 0,
                    error: Some(e),
                    report: None,
                };
                self.depart(c, job.offered_ps, outcome);
            }
        }
    }

    /// Drains the ingress queue head-first into freed capacity, then
    /// refills it from stalled (backpressured) classes in class order,
    /// looping until neither makes progress.
    fn retry_admissions(&mut self, now: Picos) {
        loop {
            let mut progress = false;
            while let Some(head) = self.queue.front() {
                let Some(handle) = self.alloc.try_alloc(self.classes[head.class].ports) else {
                    break;
                };
                let job = self.queue.pop_front().expect("peeked head exists");
                self.admit(job, handle, now);
                progress = true;
            }
            for c in 0..self.classes.len() {
                if self.queue.len() < self.queue_cap {
                    if let Some(job) = self.class_states[c].stalled.take() {
                        self.slo[c].queued += 1;
                        self.queue.push_back(job);
                        // The source resumes: its next interarrival gap is
                        // measured from the unstall instant.
                        self.rearm(c, now);
                        progress = true;
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Parks a job that cannot be placed: queue it, stall its source, or
    /// reject it, per policy — rejections fold through the typed
    /// [`RejectReason`] taxonomy. Returns `true` when the class's source
    /// stalls. `wanted` is the job's port demand, carried with the free
    /// ports into the reject reasons.
    fn park(&mut self, job: PendingJob, wanted: usize) -> bool {
        let c = job.class;
        // `Reject` grants no queue, so only the waiting policies get here.
        if self.queue.len() < self.queue_cap {
            self.slo[c].queued += 1;
            self.queue.push_back(job);
            return false;
        }
        let reason = match self.cfg.admission {
            AdmissionPolicy::Reject => RejectReason::PortsBusy {
                wanted,
                free: self.alloc.free_ports(),
            },
            AdmissionPolicy::Queue { .. } => RejectReason::QueueFull {
                capacity: self.queue_cap,
            },
            AdmissionPolicy::Backpressure { .. } => {
                self.slo[c].backpressured += 1;
                self.class_states[c].stalled = Some(job);
                return true;
            }
        };
        self.slo[c].reject(reason);
        false
    }

    /// The run's report once the loop is quiescent.
    fn finish(self) -> ServiceReport {
        debug_assert!(self.queue.is_empty(), "ingress queue drained at quiescence");
        debug_assert_eq!(
            self.exec.live_jobs(),
            0,
            "every job departed and was removed"
        );
        let summary = ServiceSummary {
            class_names: self.classes.iter().map(|c| c.name.clone()).collect(),
            tenants: self.slo,
            makespan_ps: self.makespan_ps,
            steps: self.exec.stream_summary(),
        };
        ServiceReport {
            summary,
            jobs: self.jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::workload::arrivals::{PoissonArrivals, TraceArrivals};
    use aps_collectives::{allreduce, ScheduleStream};
    use aps_core::ConfigChoice;
    use aps_cost::units::MIB;
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;

    fn fabric(n: usize) -> CircuitSwitch {
        CircuitSwitch::new(Matching::empty(n), ReconfigModel::constant(5e-6).unwrap())
    }

    fn class(name: &str, ports: usize, bytes: f64, gaps_ps: Vec<u64>) -> TenantClass {
        TenantClass::new(
            name,
            ports,
            Matching::shift(ports, 1).unwrap(),
            ServiceSwitching::Uniform(ConfigChoice::Matched),
            Box::new(TraceArrivals::new(gaps_ps)),
            Box::new(move |_id: u64| -> Box<dyn Workload> {
                Box::new(ScheduleStream::new(
                    allreduce::ring::build(ports, bytes).unwrap().schedule,
                ))
            }),
        )
    }

    #[test]
    fn no_classes_is_an_error() {
        let mut fab = fabric(4);
        let err = run_service(&mut fab, &mut [], &ServiceConfig::paper_defaults()).unwrap_err();
        assert_eq!(err, FaasError::NoClasses);
    }

    #[test]
    fn structurally_bad_classes_are_errors() {
        let mut fab = fabric(4);
        let mut zero = [class("z", 4, MIB, vec![0])];
        zero[0].ports = 0;
        assert!(matches!(
            run_service(&mut fab, &mut zero, &ServiceConfig::paper_defaults()),
            Err(FaasError::BadClass { class: 0, .. })
        ));
        let mut skew = [class("s", 4, MIB, vec![0])];
        skew[0].base_config = Matching::empty(2);
        assert!(matches!(
            run_service(&mut fab, &mut skew, &ServiceConfig::paper_defaults()),
            Err(FaasError::BadClass { class: 0, .. })
        ));
    }

    #[test]
    fn reject_policy_turns_away_what_does_not_fit() {
        // Three whole-fabric jobs at t = 0: the first occupies every
        // port, the other two find nothing free and are rejected.
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0, 0, 0])];
        let rep = run_service(&mut fab, &mut classes, &ServiceConfig::paper_defaults()).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.offered, 3);
        assert_eq!(t.admitted, 1);
        assert_eq!(t.completed, 1);
        assert_eq!(t.rejected_ports_busy, 2);
        assert_eq!(t.rejected(), 2);
        assert!(rep.summary.makespan_ps > 0);
        assert!((t.goodput() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_policy_completes_everything_in_order() {
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0, 0, 0])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 8 },
            keep_job_reports: true,
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.offered, 3);
        assert_eq!(t.admitted, 3);
        assert_eq!(t.completed, 3);
        assert_eq!(t.queued, 2);
        assert_eq!(t.rejected(), 0);
        assert!((t.goodput() - 1.0).abs() < 1e-12);
        // Whole-fabric jobs serialize: each starts where the previous
        // finished, in FIFO (arrival id) order.
        assert_eq!(rep.jobs.len(), 3);
        for w in rep.jobs.windows(2) {
            assert!(w[0].outcome.id < w[1].outcome.id, "FIFO departure order");
            assert_eq!(w[1].outcome.start_ps, w[0].outcome.finish_ps);
        }
        assert_eq!(
            rep.summary.makespan_ps,
            rep.jobs.last().unwrap().outcome.finish_ps
        );
        // The fold's wait histogram saw one zero-wait and two positive.
        assert_eq!(t.wait.count(), 3);
        assert_eq!(t.completion.count(), 3);
    }

    #[test]
    fn queue_overflow_rejects_with_typed_reason() {
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0, 0, 0])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 1 },
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.queued, 1);
        assert_eq!(t.rejected_queue_full, 1);
        assert_eq!(t.completed, 2);
    }

    #[test]
    fn backpressure_stalls_the_source_and_resumes_it() {
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0, 0, 0, 0])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Backpressure { capacity: 1 },
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let t = &rep.summary.tenants[0];
        // Job 0 runs, job 1 queues, job 2 stalls the source; each later
        // departure drains the stall and re-opens arrivals, so nothing
        // is ever lost.
        assert_eq!(t.offered, 4);
        assert_eq!(t.completed, 4);
        assert_eq!(t.rejected(), 0);
        assert!(t.backpressured >= 1, "the source stalled at least once");
    }

    #[test]
    fn failure_with_staggered_arrivals_keeps_the_clock_monotone() {
        // Job 0 is admitted at t = 0 onto a stuck fabric and fails at its
        // first step's *request instant* (barrier + α after t = 0). Job 1
        // arrives in that window (gap 1000 ps) and queues. The failure
        // departure must not reclaim in the past: job 1's admission wait
        // is `now - offered_ps` and would underflow if the clock ran
        // backwards to the victim's pre-failure `gpu_free`.
        let mut fab = fabric(4);
        fab.stick_port(0).unwrap();
        let mut classes = [class("storm", 4, MIB, vec![0, 1_000])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 4 },
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.offered, 2);
        assert_eq!(t.admitted, 2, "the failed job released its partition");
        assert_eq!(t.failed, 2);
        assert_eq!(t.wait.count(), 2);
        // Job 1 waited from its arrival to job 0's failure departure — a
        // small positive span, not a wrapped-around u64.
        assert!(t.wait.max_ps() > 0);
        assert!(
            t.wait.max_ps() < 1_000_000_000,
            "wait {} ps looks like an underflow",
            t.wait.max_ps()
        );
        assert!(rep.summary.makespan_ps >= 1_000);
    }

    #[test]
    fn backpressure_with_zero_capacity_is_a_config_error() {
        // capacity 0 can never drain a stalled job (the refill needs a
        // free queue slot), so the engine refuses it up front instead of
        // silently losing the class's arrival stream.
        let mut fab = fabric(4);
        let mut classes = [class("z", 4, MIB, vec![0, 0])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Backpressure { capacity: 0 },
            ..ServiceConfig::paper_defaults()
        };
        let err = run_service(&mut fab, &mut classes, &cfg).unwrap_err();
        assert!(matches!(err, FaasError::BadConfig { .. }), "{err}");
    }

    #[test]
    fn interarrival_gap_past_the_clock_end_exhausts_the_source() {
        // A gap that would overflow the u64 picosecond clock means "never
        // again": the source is exhausted rather than wrapping into the
        // past (saturated gaps come from near-zero Poisson rates).
        let mut fab = fabric(4);
        let mut classes = [class("slow", 4, MIB, vec![1_000, u64::MAX])];
        let rep = run_service(&mut fab, &mut classes, &ServiceConfig::paper_defaults()).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.offered, 1, "the overflowing second arrival never fires");
        assert_eq!(t.completed, 1);
    }

    #[test]
    fn oversized_jobs_are_rejected_up_front() {
        let mut fab = fabric(4);
        let mut classes = [class("huge", 8, MIB, vec![0, 7])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Backpressure { capacity: 4 },
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let t = &rep.summary.tenants[0];
        assert_eq!(t.offered, 2);
        assert_eq!(t.rejected_too_large, 2);
        assert_eq!(t.completed, 0);
        assert_eq!(rep.summary.makespan_ps, 0);
        assert_eq!(t.goodput(), 0.0);
    }

    #[test]
    fn queue_is_fifo_with_head_of_line_blocking() {
        // Class "big" wants 6 of 8 ports; class "small" wants 2. A
        // queued big job blocks the small one behind it even though two
        // ports sit free the whole time — strict FIFO admission.
        let mut fab = fabric(8);
        let mut classes = [
            class("big", 6, MIB, vec![0, 0]),
            class("small", 2, MIB / 4.0, vec![0]),
        ];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 4 },
            keep_job_reports: true,
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        assert_eq!(rep.summary.tenants[0].completed, 2);
        assert_eq!(rep.summary.tenants[1].completed, 1);
        let small = rep.jobs.iter().find(|j| j.class == 1).unwrap();
        let first_big = rep
            .jobs
            .iter()
            .filter(|j| j.class == 0)
            .map(|j| j.outcome.finish_ps)
            .min()
            .unwrap();
        assert_eq!(small.offered_ps, 0);
        assert_eq!(
            small.outcome.start_ps, first_big,
            "the small job waited behind the queued big one"
        );
    }

    #[test]
    fn max_jobs_caps_offered_arrivals() {
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0; 10])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 16 },
            max_jobs: Some(3),
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        assert_eq!(rep.summary.offered(), 3);
        assert_eq!(rep.summary.completed(), 3);
    }

    #[test]
    fn poisson_service_reruns_bit_identically() {
        let mk = || {
            [
                TenantClass::new(
                    "a",
                    4,
                    Matching::shift(4, 1).unwrap(),
                    ServiceSwitching::Uniform(ConfigChoice::Matched),
                    Box::new(PoissonArrivals::new(2.0e6, Some(12), 7).unwrap()),
                    Box::new(|_id: u64| -> Box<dyn Workload> {
                        Box::new(ScheduleStream::new(
                            allreduce::halving_doubling::build(4, MIB).unwrap().schedule,
                        ))
                    }) as Box<dyn JobDemand>,
                ),
                TenantClass::new(
                    "b",
                    2,
                    Matching::shift(2, 1).unwrap(),
                    ServiceSwitching::Uniform(ConfigChoice::Base),
                    Box::new(PoissonArrivals::new(4.0e6, Some(12), 11).unwrap()),
                    Box::new(|_id: u64| -> Box<dyn Workload> {
                        Box::new(ScheduleStream::new(
                            allreduce::halving_doubling::build(2, 2.0 * MIB)
                                .unwrap()
                                .schedule,
                        ))
                    }) as Box<dyn JobDemand>,
                ),
            ]
        };
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 8 },
            keep_job_reports: true,
            ..ServiceConfig::paper_defaults()
        };
        let mut fab1 = fabric(8);
        let rep1 = run_service(&mut fab1, &mut mk(), &cfg).unwrap();
        let mut fab2 = fabric(8);
        let rep2 = run_service(&mut fab2, &mut mk(), &cfg).unwrap();
        assert_eq!(rep1, rep2, "same classes, same seed, same everything");
        assert_eq!(rep1.summary.offered(), 24);
        // And the arrival processes reset on entry, so reusing the very
        // same class array replays too.
        let mut classes = mk();
        let mut fab3 = fabric(8);
        let rep3 = run_service(&mut fab3, &mut classes, &cfg).unwrap();
        let mut fab4 = fabric(8);
        let rep4 = run_service(&mut fab4, &mut classes, &cfg).unwrap();
        assert_eq!(rep3, rep4, "reset-on-entry makes reruns replayable");
        assert_eq!(rep1, rep3);
    }

    #[test]
    fn summary_steps_fold_matches_job_reports() {
        let mut fab = fabric(4);
        let mut classes = [class("full", 4, MIB, vec![0, 0])];
        let cfg = ServiceConfig {
            admission: AdmissionPolicy::Queue { capacity: 4 },
            keep_job_reports: true,
            ..ServiceConfig::paper_defaults()
        };
        let rep = run_service(&mut fab, &mut classes, &cfg).unwrap();
        let steps: usize = rep.jobs.iter().map(|j| j.outcome.steps).sum();
        assert_eq!(rep.summary.steps.steps, steps);
        assert!(steps > 0);
        let fv = rep.summary.fairness_vector();
        assert_eq!(fv, vec![1.0]);
    }
}
