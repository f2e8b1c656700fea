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
    let n = fabric.n();
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

    let mut exec = ServiceExecutor::new(n, cfg.run, cfg.keep_job_reports);
    let mut alloc = PartitionAllocator::new(n);
    let queue_cap = cfg.admission.queue_capacity();
    let mut queue: VecDeque<PendingJob> = VecDeque::new();
    let mut reclaims: BinaryHeap<Reverse<(Picos, u64, usize)>> = BinaryHeap::new();
    let mut reclaim_seq: u64 = 0;
    let mut live: Vec<Option<LiveJob>> = Vec::new();
    let mut slo: Vec<TenantSlo> = classes.iter().map(|_| TenantSlo::default()).collect();
    let mut jobs: Vec<ServiceJobRecord> = Vec::new();
    let mut makespan_ps: Picos = 0;
    let mut next_id: u64 = 0;

    let mut class_states: Vec<ClassState> = classes
        .iter_mut()
        .map(|class| ClassState {
            next_at: class.arrivals.next_gap_ps(),
            stalled: None,
        })
        .collect();

    // Records an admission into `exec`: wait-time accounting plus the
    // slot-side bookkeeping. A structurally failing admission (e.g. a
    // demand stream whose rank count disagrees with the class's ports)
    // reclaims the partition immediately and counts as a failed job.
    #[allow(clippy::too_many_arguments)]
    fn admit_job(
        exec: &mut ServiceExecutor,
        alloc: &mut PartitionAllocator,
        live: &mut Vec<Option<LiveJob>>,
        slo: &mut [TenantSlo],
        reclaims: &mut BinaryHeap<Reverse<(Picos, u64, usize)>>,
        reclaim_seq: &mut u64,
        classes: &[TenantClass],
        job: PendingJob,
        handle: PartitionHandle,
        now: Picos,
        makespan_ps: &mut Picos,
        jobs: &mut Vec<ServiceJobRecord>,
        keep: bool,
    ) {
        let c = job.class;
        let ports = alloc
            .ports(handle)
            .expect("freshly allocated partition is live")
            .to_vec();
        let spec = ServiceJobSpec {
            name: classes[c].name.clone(),
            ports,
            base_config: classes[c].base_config.clone(),
            workload: job.workload,
            switching: classes[c].switching.clone(),
        };
        slo[c].admitted += 1;
        slo[c].wait.record(now - job.offered_ps);
        match exec.admit(job.id, spec, now) {
            Ok(adm) => {
                if live.len() <= adm.slot {
                    live.resize_with(adm.slot + 1, || None);
                }
                live[adm.slot] = Some(LiveJob {
                    class: c,
                    handle,
                    offered_ps: job.offered_ps,
                });
                if !adm.has_work {
                    reclaims.push(Reverse((now, *reclaim_seq, adm.slot)));
                    *reclaim_seq += 1;
                }
            }
            Err(e) => {
                // Nothing took residence: release the partition now and
                // account the job as admitted-then-failed.
                alloc
                    .reclaim(handle)
                    .expect("failed admission reclaims its fresh partition once");
                slo[c].failed += 1;
                *makespan_ps = (*makespan_ps).max(now);
                if keep {
                    jobs.push(ServiceJobRecord {
                        class: c,
                        offered_ps: job.offered_ps,
                        outcome: JobOutcome {
                            id: job.id,
                            name: classes[c].name.clone(),
                            start_ps: now,
                            finish_ps: now,
                            steps: 0,
                            error: Some(e),
                            report: None,
                        },
                    });
                }
            }
        }
    }

    // Drains the ingress queue head-first into freed capacity, then
    // refills it from stalled (backpressured) classes in class order,
    // looping until neither makes progress.
    macro_rules! try_admissions {
        ($now:expr) => {{
            let now = $now;
            loop {
                let mut progress = false;
                while let Some(head) = queue.front() {
                    let want = classes[head.class].ports;
                    let Some(handle) = alloc.try_alloc(want) else {
                        break;
                    };
                    let job = queue.pop_front().expect("peeked head exists");
                    admit_job(
                        &mut exec,
                        &mut alloc,
                        &mut live,
                        &mut slo,
                        &mut reclaims,
                        &mut reclaim_seq,
                        classes,
                        job,
                        handle,
                        now,
                        &mut makespan_ps,
                        &mut jobs,
                        cfg.keep_job_reports,
                    );
                    progress = true;
                }
                for c in 0..classes.len() {
                    if queue.len() < queue_cap && class_states[c].stalled.is_some() {
                        let job = class_states[c].stalled.take().expect("checked");
                        slo[c].queued += 1;
                        queue.push_back(job);
                        // The source resumes: next interarrival gap is
                        // measured from the unstall instant. A gap that
                        // overflows the clock (saturated huge gaps from
                        // near-zero rates) exhausts the source.
                        class_states[c].next_at = classes[c]
                            .arrivals
                            .next_gap_ps()
                            .and_then(|g| now.checked_add(g));
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }};
    }

    loop {
        // Candidate events; priority reclaim < arrival < step on ties.
        let mut next: Option<(Picos, u8)> = reclaims.peek().map(|Reverse((t, _, _))| (*t, 0u8));
        let arrivals_open = cfg.max_jobs.is_none_or(|cap| next_id < cap);
        let mut arrival_class: Option<usize> = None;
        if arrivals_open {
            for (c, cs) in class_states.iter().enumerate() {
                let Some(t) = cs.next_at else { continue };
                if next.is_none_or(|(bt, _)| t < bt) {
                    next = Some((t, 1));
                    arrival_class = Some(c);
                }
            }
        }
        if let Some((t, _)) = exec.next_request_at() {
            if next.is_none_or(|(bt, _)| t < bt) {
                next = Some((t, 2));
            }
        }
        let Some((now, kind)) = next else {
            break; // arrivals exhausted, queue drained, every job removed
        };

        match kind {
            0 => {
                let Reverse((t, _, slot)) = reclaims.pop().expect("peeked reclaim exists");
                debug_assert_eq!(t, now);
                let lj = live[slot].take().expect("reclaimed job is live");
                let out = exec.remove(slot).expect("departed job occupies its slot");
                let c = lj.class;
                if out.error.is_some() {
                    slo[c].failed += 1;
                } else {
                    slo[c].completed += 1;
                    slo[c].completion.record(out.finish_ps - lj.offered_ps);
                }
                makespan_ps = makespan_ps.max(out.finish_ps);
                alloc
                    .reclaim(lj.handle)
                    .expect("departing job releases its partition exactly once");
                if cfg.keep_job_reports {
                    jobs.push(ServiceJobRecord {
                        class: c,
                        offered_ps: lj.offered_ps,
                        outcome: out,
                    });
                }
                try_admissions!(now);
            }
            1 => {
                let c = arrival_class.expect("arrival event names its class");
                let id = next_id;
                next_id += 1;
                slo[c].offered += 1;
                let workload = classes[c].demand.build(id);
                let job = PendingJob {
                    id,
                    class: c,
                    offered_ps: now,
                    workload,
                };
                let want = classes[c].ports;
                let mut stalled_source = false;
                if want > n {
                    slo[c].reject(RejectReason::TooLarge {
                        wanted: want,
                        fabric: n,
                    });
                } else if queue.is_empty() {
                    if let Some(handle) = alloc.try_alloc(want) {
                        admit_job(
                            &mut exec,
                            &mut alloc,
                            &mut live,
                            &mut slo,
                            &mut reclaims,
                            &mut reclaim_seq,
                            classes,
                            job,
                            handle,
                            now,
                            &mut makespan_ps,
                            &mut jobs,
                            cfg.keep_job_reports,
                        );
                    } else {
                        stalled_source = park(
                            job,
                            &cfg.admission,
                            queue_cap,
                            want,
                            alloc.free_ports(),
                            &mut queue,
                            &mut class_states[c],
                            &mut slo[c],
                        );
                    }
                } else {
                    // FIFO: a non-empty queue means this arrival waits
                    // behind it, even if it would fit right now.
                    stalled_source = park(
                        job,
                        &cfg.admission,
                        queue_cap,
                        want,
                        alloc.free_ports(),
                        &mut queue,
                        &mut class_states[c],
                        &mut slo[c],
                    );
                }
                if stalled_source {
                    class_states[c].next_at = None;
                } else {
                    // `checked_add`: a saturated gap (near-zero arrival
                    // rate) past the end of the u64 clock means the
                    // source never fires again.
                    class_states[c].next_at = classes[c]
                        .arrivals
                        .next_gap_ps()
                        .and_then(|g| now.checked_add(g));
                }
            }
            _ => {
                // Reborrow through the blanket `impl RecordSink for &mut S`
                // so the sink isn't held across loop iterations.
                let s = sink.as_mut().map(|s| s as &mut dyn RecordSink);
                if let Some(dep) = exec.execute_next(fabric, s) {
                    debug_assert!(
                        dep.finish_ps >= now,
                        "a departure cannot precede the step event that produced it"
                    );
                    reclaims.push(Reverse((dep.finish_ps, reclaim_seq, dep.slot)));
                    reclaim_seq += 1;
                }
            }
        }
    }

    debug_assert!(queue.is_empty(), "ingress queue drained at quiescence");
    debug_assert_eq!(exec.live_jobs(), 0, "every job departed and was removed");

    let summary = ServiceSummary {
        class_names: classes.iter().map(|c| c.name.clone()).collect(),
        tenants: slo,
        makespan_ps,
        steps: exec.stream_summary(),
    };
    Ok(ServiceReport { summary, jobs })
}

/// Parks a job that cannot be placed: queue it, stall its source, or
/// reject it, per policy — rejections fold through the typed
/// [`RejectReason`] taxonomy. Returns `true` when the class's source
/// stalls. `wanted`/`free` are the job's port demand and the free ports
/// at arrival, carried into the reject reasons.
#[allow(clippy::too_many_arguments)]
fn park(
    job: PendingJob,
    policy: &AdmissionPolicy,
    queue_cap: usize,
    wanted: usize,
    free: usize,
    queue: &mut VecDeque<PendingJob>,
    class_state: &mut ClassState,
    slo: &mut TenantSlo,
) -> bool {
    match policy {
        AdmissionPolicy::Reject => {
            slo.reject(RejectReason::PortsBusy { wanted, free });
            false
        }
        AdmissionPolicy::Queue { .. } => {
            if queue.len() < queue_cap {
                slo.queued += 1;
                queue.push_back(job);
            } else {
                slo.reject(RejectReason::QueueFull {
                    capacity: queue_cap,
                });
            }
            false
        }
        AdmissionPolicy::Backpressure { .. } => {
            if queue.len() < queue_cap {
                slo.queued += 1;
                queue.push_back(job);
                false
            } else {
                slo.backpressured += 1;
                class_state.stalled = Some(job);
                true
            }
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
