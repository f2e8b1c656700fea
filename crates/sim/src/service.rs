//! Open-system execution: jobs admitted, executed, and removed over
//! simulated time.
//!
//! [`crate::tenant::execute_tenants`] drains a *closed* job set — every
//! tenant is known up front and runs to completion. This module is its
//! open-system face: a [`ServiceExecutor`] holds a mutable population of
//! jobs over slot-indexed state, so a caller (the `aps-faas` engine) can
//! [`admit`](ServiceExecutor::admit) a job when it arrives, interleave
//! everyone's steps in deterministic earliest-request order, and
//! [`remove`](ServiceExecutor::remove) the job when its demand stream
//! runs dry — reclaiming its fabric ports for the next arrival.
//!
//! ## Lockstep parity
//!
//! The step engine is byte-for-byte the tenant executor's: the same
//! `execute_step` core, the same `natural_request_at` scheduler
//! instant, the same `tenant_target` overlay assembly, the same
//! per-job clock seeding. A service run whose jobs are all admitted at
//! t = 0 and never depart mid-run therefore reproduces
//! [`execute_tenants`](crate::tenant::execute_tenants) **bit-identically**
//! — per-step reports, traces, record frames, and finish times — which
//! the workspace's differential suite pins at `APS_THREADS` 1 and 4.
//!
//! ## Steady-state allocation behavior
//!
//! A steady-state step performs no heap allocation. The executor reuses
//! the PR 8 arenas: one [`StepScratch`] for the fluid solver, one recycled
//! scratch [`SimReport`] in totals mode (`keep_reports = false`), owned
//! `pairs` and global-target buffers, and demand pulled through
//! [`Workload::next_step_into`] into a per-job [`Step`] slot that is
//! overwritten in place. `crates/sim/tests/zero_alloc.rs` pins it.

use crate::arena::StepScratch;
use crate::error::SimError;
use crate::exec::{execute_step, natural_request_at, RunConfig, StepInput};
use crate::record::{RecordSink, StepRecord};
use crate::report::SimReport;
use crate::stream::{validate_step, StreamSummary};
use crate::tenant::{tenant_target, TargetScratch};
use aps_collectives::{Step, Workload, WorkloadCtx};
use aps_core::{ConfigChoice, SwitchSchedule};
use aps_cost::units::Picos;
use aps_fabric::Fabric;
use aps_matrix::Matching;

/// Per-step base/matched choices for a service job: either a precomputed
/// per-step schedule (must cover the job's whole stream) or one uniform
/// choice applied to every step (the natural fit for open-ended demand).
#[derive(Debug, Clone)]
pub enum ServiceSwitching {
    /// Replay a precomputed switch schedule, one choice per step.
    Schedule(SwitchSchedule),
    /// Apply the same choice to every step of the job.
    Uniform(ConfigChoice),
}

impl ServiceSwitching {
    /// The choice for step `i`; `None` when a schedule is exhausted.
    fn choice(&self, i: usize) -> Option<ConfigChoice> {
        match self {
            Self::Schedule(s) => (i < s.len()).then(|| s.choice(i)),
            Self::Uniform(c) => Some(*c),
        }
    }
}

/// One job offered to the service: a demand stream bound to a partition
/// of the fabric's ports — the open-system analogue of
/// [`crate::tenant::TenantSpec`].
pub struct ServiceJobSpec {
    /// Job name, for reports and error tagging.
    pub name: String,
    /// Global fabric ports the job will own; local rank `i` maps to
    /// `ports[i]`. Must be disjoint from every live job's ports.
    pub ports: Vec<usize>,
    /// The job's base circuits in *local* coordinates.
    pub base_config: Matching,
    /// Lazy demand over `ports.len()` local ranks.
    pub workload: Box<dyn Workload>,
    /// Per-step base/matched choices.
    pub switching: ServiceSwitching,
}

/// Receipt for an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The slot the job occupies until [`ServiceExecutor::remove`].
    pub slot: usize,
    /// `false` when the workload yielded no steps at all — the job
    /// departs immediately at its start time.
    pub has_work: bool,
}

/// A job that just ran out of work (or failed): the caller should
/// [`ServiceExecutor::remove`] it at `finish_ps` to reclaim its ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Slot of the departing job.
    pub slot: usize,
    /// When the job's last step (including compute) finished; for a
    /// failed job, the instant the failing step would have touched the
    /// fabric (its `natural_request_at`), so the departure is never
    /// earlier than the event that dispatched it — simulated clocks
    /// driven by departures stay monotone.
    pub finish_ps: Picos,
    /// `true` when the job stopped on a step error instead of finishing.
    pub failed: bool,
}

/// Final accounting for one removed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Caller-assigned job id (admission order in the faas engine).
    pub id: u64,
    /// Job name, from the spec.
    pub name: String,
    /// When the job was admitted (its clocks were seeded here).
    pub start_ps: Picos,
    /// When the job finished (equals `start_ps` for empty workloads).
    pub finish_ps: Picos,
    /// Steps executed.
    pub steps: usize,
    /// The step error that stopped the job, if any. Errors are isolated:
    /// other jobs sharing the fabric are unaffected.
    pub error: Option<SimError>,
    /// The job's full per-step report (global clock), kept only when the
    /// executor runs with `keep_reports` and the job did not fail.
    pub report: Option<SimReport>,
}

/// Slot-resident state of one live job.
struct JobState {
    id: u64,
    name: String,
    ports: Vec<usize>,
    base_config: Matching,
    workload: Box<dyn Workload>,
    switching: ServiceSwitching,
    /// The next step to execute, pulled in place via
    /// [`Workload::next_step_into`]; valid only when `has_pending`.
    pending: Step,
    has_pending: bool,
    executed: usize,
    start_ps: Picos,
    comm_end: Picos,
    gpu_free: Picos,
    report: SimReport,
    error: Option<SimError>,
}

/// The open-system step engine: a mutable population of jobs sharing one
/// fabric, executed in deterministic earliest-request order.
///
/// The executor owns *execution*; admission policy, port-partition
/// allocation, and SLO accounting live in `aps-faas` on top of this API.
pub struct ServiceExecutor {
    n: usize,
    cfg: RunConfig,
    keep_reports: bool,
    slots: Vec<Option<JobState>>,
    free_slots: Vec<usize>,
    /// `owner[p]` = slot currently owning global port `p`.
    owner: Vec<Option<usize>>,
    live: usize,
    scratch: StepScratch,
    pairs: Vec<(usize, usize)>,
    targets: TargetScratch,
    owned: Vec<bool>,
    /// Recycled per-step report for totals mode.
    fold: SimReport,
    summary: StreamSummary,
}

impl ServiceExecutor {
    /// An empty executor over an `n`-port fabric. With
    /// `keep_reports = false` (totals mode) per-step reports fold into
    /// the O(1) [`StreamSummary`] and are recycled — a million-job trace
    /// never materializes per-job state beyond the live population.
    pub fn new(n: usize, cfg: RunConfig, keep_reports: bool) -> Self {
        Self {
            n,
            cfg,
            keep_reports,
            slots: Vec::new(),
            free_slots: Vec::new(),
            owner: vec![None; n],
            live: 0,
            scratch: StepScratch::new(),
            pairs: Vec::new(),
            targets: TargetScratch::default(),
            owned: Vec::new(),
            fold: SimReport::default(),
            summary: StreamSummary::default(),
        }
    }

    /// Fabric port count the executor was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Jobs currently resident (admitted and not yet removed).
    pub fn live_jobs(&self) -> usize {
        self.live
    }

    /// The O(1) fold of every step executed so far, across all jobs.
    /// `total_ps` is the latest communication/compute clock seen.
    pub fn stream_summary(&self) -> StreamSummary {
        self.summary
    }

    /// Admits a job: validates its shape against the fabric and the live
    /// population, claims its ports, seeds its clocks at `start_ps`, and
    /// pulls its first pending step.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when workload or base config spans
    /// a different rank count than the port list,
    /// [`SimError::ScheduleLengthMismatch`] when a
    /// [`ServiceSwitching::Schedule`] disagrees with an exactly-sized
    /// workload, [`SimError::BadTenantPorts`] when a port is out of range
    /// or owned by a live job, and [`SimError::BadStepVolume`] when the
    /// first pulled step is malformed. On error nothing is claimed.
    pub fn admit(
        &mut self,
        id: u64,
        mut spec: ServiceJobSpec,
        start_ps: Picos,
    ) -> Result<Admission, SimError> {
        let slot = self.free_slots.last().copied().unwrap_or(self.slots.len());
        let n_j = spec.ports.len();
        if spec.workload.n() != n_j || spec.base_config.n() != n_j {
            return Err(SimError::DimensionMismatch {
                fabric: n_j,
                collective: spec.workload.n().max(spec.base_config.n()),
            });
        }
        if let ServiceSwitching::Schedule(sw) = &spec.switching {
            let (lo, hi) = spec.workload.size_hint();
            if hi == Some(lo) && sw.len() != lo {
                return Err(SimError::ScheduleLengthMismatch {
                    expected: lo,
                    got: sw.len(),
                });
            }
        }
        for &p in &spec.ports {
            if p >= self.n || self.owner[p].is_some() {
                return Err(SimError::BadTenantPorts {
                    tenant: slot,
                    port: p,
                });
            }
        }
        // Duplicate ports within the spec itself.
        self.owned.clear();
        self.owned.resize(self.n, false);
        for &p in &spec.ports {
            if self.owned[p] {
                return Err(SimError::BadTenantPorts {
                    tenant: slot,
                    port: p,
                });
            }
            self.owned[p] = true;
        }
        let mut pending = Step::empty();
        let has_pending = spec
            .workload
            .next_step_into(&WorkloadCtx::at(0), &mut pending);
        if has_pending {
            validate_step(0, n_j, &pending)?;
        }
        // All checks passed: claim ports and take residence.
        for &p in &spec.ports {
            self.owner[p] = Some(slot);
        }
        let state = JobState {
            id,
            name: spec.name,
            ports: spec.ports,
            base_config: spec.base_config,
            workload: spec.workload,
            switching: spec.switching,
            pending,
            has_pending,
            executed: 0,
            start_ps,
            comm_end: start_ps,
            gpu_free: start_ps,
            report: SimReport::default(),
            error: None,
        };
        if slot == self.slots.len() {
            self.slots.push(Some(state));
        } else {
            self.free_slots.pop();
            self.slots[slot] = Some(state);
        }
        self.live += 1;
        Ok(Admission {
            slot,
            has_work: has_pending,
        })
    }

    /// The earliest instant any live job will next touch the fabric, and
    /// that job's slot — the same `natural_request_at` instant the
    /// tenant scheduler uses, ties broken by lowest job id (admission
    /// order). `None` when no job has runnable work.
    pub fn next_request_at(&self) -> Option<(Picos, usize)> {
        let mut best: Option<(Picos, u64, usize)> = None;
        for (slot, st) in self.slots.iter().enumerate() {
            let Some(st) = st else { continue };
            if !st.has_pending || st.error.is_some() {
                continue;
            }
            let natural = natural_request_at(
                &self.cfg,
                st.ports.len(),
                st.executed == 0,
                st.comm_end,
                st.gpu_free,
            );
            if best.is_none_or(|(at, id, _)| natural < at || (natural == at && st.id < id)) {
                best = Some((natural, st.id, slot));
            }
        }
        best.map(|(at, _, slot)| (at, slot))
    }

    /// Executes the next step of the earliest-request job (the one
    /// [`next_request_at`](Self::next_request_at) names). Returns the
    /// job's [`Departure`] when this step exhausted its demand stream or
    /// failed it, `None` otherwise (including when no job has work).
    ///
    /// Step errors are isolated exactly like the tenant executor's: the
    /// failing job departs carrying the error in its [`JobOutcome`];
    /// other jobs keep running.
    pub fn execute_next(
        &mut self,
        fabric: &mut dyn Fabric,
        sink: Option<&mut dyn RecordSink>,
    ) -> Option<Departure> {
        let (request_at, slot) = self.next_request_at()?;
        let st = self.slots[slot].as_mut().expect("scheduled slot is live");
        let i = st.executed;
        // A failing step departs at its request instant: `gpu_free` alone
        // can predate the event that dispatched this step (the request
        // adds barrier + α), and a departure in the caller's past would
        // run its event clock backwards.
        let fail_ps = request_at.max(st.gpu_free);
        let Some(choice) = st.switching.choice(i) else {
            st.error = Some(SimError::ScheduleLengthMismatch {
                expected: i + 1,
                got: i,
            });
            st.has_pending = false;
            st.gpu_free = fail_ps;
            return Some(Departure {
                slot,
                finish_ps: fail_ps,
                failed: true,
            });
        };
        if let Err(e) = validate_step(i, st.ports.len(), &st.pending) {
            st.error = Some(e);
            st.has_pending = false;
            st.gpu_free = fail_ps;
            return Some(Departure {
                slot,
                finish_ps: fail_ps,
                failed: true,
            });
        }
        let matched = choice == ConfigChoice::Matched;
        let local_target = if matched {
            &st.pending.matching
        } else {
            &st.base_config
        };
        let target = tenant_target(
            fabric.current(),
            &st.ports,
            local_target,
            &self.owner,
            slot,
            &mut self.targets,
        );
        self.pairs.clear();
        self.pairs.extend(
            st.pending
                .matching
                .pairs()
                .map(|(s, d)| (st.ports[s], st.ports[d])),
        );
        let input = StepInput {
            step: i,
            matched,
            target,
            pairs: &self.pairs,
            bytes_per_pair: st.pending.bytes_per_pair,
            barrier_n: st.ports.len(),
            first: i == 0,
        };
        let dest: &mut SimReport = if self.keep_reports {
            &mut st.report
        } else {
            self.fold.steps.clear();
            self.fold.trace.clear();
            &mut self.fold
        };
        let step_idx = dest.steps.len();
        let trace_before = dest.trace.len();
        let (comm_end, gpu_free) = match execute_step(
            fabric,
            &input,
            &self.cfg,
            true,
            st.comm_end,
            st.gpu_free,
            dest,
            &mut self.scratch,
        ) {
            Ok(clocks) => clocks,
            Err(e) => {
                st.error = Some(e);
                st.has_pending = false;
                st.gpu_free = fail_ps;
                return Some(Departure {
                    slot,
                    finish_ps: fail_ps,
                    failed: true,
                });
            }
        };
        self.summary.absorb(&dest.steps[step_idx], matched);
        self.summary.total_ps = self.summary.total_ps.max(gpu_free).max(comm_end);
        if let Some(s) = sink {
            s.record_step(&StepRecord {
                step: i,
                tenant: Some(slot),
                matched,
                report: &dest.steps[step_idx],
                events: &dest.trace[trace_before..],
                config: fabric.current(),
                busy_until: fabric.busy_until(),
            });
        }
        st.comm_end = comm_end;
        st.gpu_free = gpu_free;
        st.executed += 1;
        st.has_pending = st
            .workload
            .next_step_into(&WorkloadCtx::at(st.executed), &mut st.pending);
        if st.has_pending {
            None
        } else {
            Some(Departure {
                slot,
                finish_ps: st.gpu_free,
                failed: false,
            })
        }
    }

    /// Evicts a departed job and releases its ports for the next arrival.
    /// Returns `None` when the slot is vacant (already removed). The job
    /// must have departed — removing a job with runnable work would
    /// corrupt the interleaving, so that is a debug-mode panic.
    pub fn remove(&mut self, slot: usize) -> Option<JobOutcome> {
        let mut st = self.slots.get_mut(slot)?.take()?;
        debug_assert!(
            !st.has_pending || st.error.is_some(),
            "removed a job that still has work"
        );
        for &p in &st.ports {
            self.owner[p] = None;
        }
        self.free_slots.push(slot);
        self.live -= 1;
        let report = if self.keep_reports && st.error.is_none() {
            st.report.total_ps = st.gpu_free;
            Some(st.report)
        } else {
            None
        };
        Some(JobOutcome {
            id: st.id,
            name: st.name,
            start_ps: st.start_ps,
            finish_ps: st.gpu_free,
            steps: st.executed,
            error: st.error,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{execute_tenants, TenantSpec};
    use aps_collectives::{allreduce, ScheduleStream};
    use aps_core::SwitchSchedule;
    use aps_cost::units::MIB;
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;

    fn tenant(name: &str, ports: Vec<usize>, bytes: f64, matched: bool) -> TenantSpec {
        let n = ports.len();
        let schedule = allreduce::halving_doubling::build(n, bytes)
            .unwrap()
            .schedule;
        let s = schedule.num_steps();
        TenantSpec {
            name: name.into(),
            ports,
            base_config: Matching::shift(n, 1).unwrap(),
            schedule,
            switch_schedule: if matched {
                SwitchSchedule::all_matched(s)
            } else {
                SwitchSchedule::all_base(s)
            },
            arrival_s: 0.0,
        }
    }

    fn spec_of(t: &TenantSpec) -> ServiceJobSpec {
        ServiceJobSpec {
            name: t.name.clone(),
            ports: t.ports.clone(),
            base_config: t.base_config.clone(),
            workload: Box::new(ScheduleStream::new(t.schedule.clone())),
            switching: ServiceSwitching::Schedule(t.switch_schedule.clone()),
        }
    }

    fn fabric_for(n: usize, tenants: &[TenantSpec]) -> CircuitSwitch {
        crate::scenarios::Scenario {
            name: "svc-test".into(),
            n,
            tenants: tenants.to_vec(),
        }
        .fabric(ReconfigModel::constant(5e-6).unwrap())
        .unwrap()
    }

    #[test]
    fn all_at_t0_matches_execute_tenants_bitwise() {
        // The lockstep differential: jobs admitted at t = 0 in tenant
        // order reproduce execute_tenants byte-for-byte.
        let tenants = vec![
            tenant("a", (0..8).collect(), MIB, true),
            tenant("b", (8..12).collect(), 4.0 * MIB, false),
            tenant("c", (12..16).collect(), 2.0 * MIB, true),
        ];
        let cfg = RunConfig::paper_defaults();
        let mut fab_t = fabric_for(16, &tenants);
        let want = execute_tenants(&mut fab_t, &tenants, &cfg).unwrap();

        let mut fab_s = fabric_for(16, &tenants);
        let mut exec = ServiceExecutor::new(16, cfg, true);
        for (i, t) in tenants.iter().enumerate() {
            exec.admit(i as u64, spec_of(t), 0).unwrap();
        }
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None, None, None];
        let mut guard = 0;
        while exec.next_request_at().is_some() {
            if let Some(dep) = exec.execute_next(&mut fab_s, None) {
                let out = exec.remove(dep.slot).unwrap();
                let id = out.id as usize;
                outcomes[id] = Some(out);
            }
            guard += 1;
            assert!(guard < 10_000, "service run did not terminate");
        }
        for (i, t) in tenants.iter().enumerate() {
            let got = outcomes[i].as_ref().unwrap();
            let want = want[i].as_ref().unwrap();
            assert_eq!(got.name, t.name);
            assert_eq!(got.start_ps, want.arrival_ps);
            assert_eq!(got.finish_ps, want.finish_ps, "job {i} finish");
            assert_eq!(got.report.as_ref().unwrap(), &want.report, "job {i} report");
        }
    }

    #[test]
    fn empty_workload_departs_at_start() {
        let t = tenant("solo", (0..4).collect(), MIB, false);
        let mut spec = spec_of(&t);
        let empty = aps_collectives::Schedule::new(
            4,
            aps_collectives::CollectiveKind::Barrier,
            "empty",
            Vec::new(),
        )
        .unwrap();
        spec.workload = Box::new(ScheduleStream::new(empty));
        spec.switching = ServiceSwitching::Uniform(ConfigChoice::Base);
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(4, cfg, false);
        let adm = exec.admit(0, spec, 123).unwrap();
        assert!(!adm.has_work, "an empty workload has no pending step");
        assert!(exec.next_request_at().is_none());
        let out = exec.remove(adm.slot).unwrap();
        assert_eq!(out.finish_ps, 123);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn port_conflicts_and_dimensions_are_rejected_without_claiming() {
        let t = tenant("a", (0..8).collect(), MIB, true);
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(8, cfg, false);
        // Out-of-range port.
        let mut bad = spec_of(&t);
        bad.ports = (4..12).collect();
        assert!(matches!(
            exec.admit(0, bad, 0),
            Err(SimError::BadTenantPorts { port: 8, .. })
        ));
        // Nothing was claimed: the valid spec still admits.
        exec.admit(1, spec_of(&t), 0).unwrap();
        // Overlap with the live job.
        assert!(matches!(
            exec.admit(2, spec_of(&t), 0),
            Err(SimError::BadTenantPorts { port: 0, .. })
        ));
        // Dimension mismatch: 8-rank workload on 4 ports.
        let mut wrong = spec_of(&t);
        wrong.ports = vec![];
        assert!(matches!(
            exec.admit(3, wrong, 0),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn removal_releases_ports_for_reuse() {
        let t = tenant("a", (0..4).collect(), MIB, false);
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(4, std::slice::from_ref(&t));
        let mut exec = ServiceExecutor::new(4, cfg, false);
        exec.admit(0, spec_of(&t), 0).unwrap();
        let dep = loop {
            if let Some(d) = exec.execute_next(&mut fab, None) {
                break d;
            }
        };
        assert!(!dep.failed);
        let out = exec.remove(dep.slot).unwrap();
        assert!(out.error.is_none());
        assert_eq!(out.steps, t.schedule.num_steps());
        assert!(exec.remove(dep.slot).is_none(), "second remove is vacant");
        assert_eq!(exec.live_jobs(), 0);
        // Ports are free again: the same spec admits into the same slot.
        let adm = exec.admit(1, spec_of(&t), out.finish_ps).unwrap();
        assert_eq!(adm.slot, dep.slot);
    }

    #[test]
    fn schedule_length_mismatch_is_caught_at_admission() {
        let t = tenant("a", (0..4).collect(), MIB, true);
        let mut spec = spec_of(&t);
        spec.switching = ServiceSwitching::Schedule(SwitchSchedule::all_matched(1));
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(4, cfg, false);
        assert!(matches!(
            exec.admit(0, spec, 0),
            Err(SimError::ScheduleLengthMismatch { .. })
        ));
    }
}
