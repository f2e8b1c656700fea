//! `service-abi`: seeded open-system service runs driven through the C ABI
//! (`aps_ffi::api`), the same symbols a C embedder links.
//!
//! Each run offers jobs of two Poisson classes to a 64-port optical fabric:
//! 32-port matched hd-allreduce at 4 MiB and 16-port base hd-allreduce at
//! 256 KiB. Runs alternate queue and backpressure admission, so admission
//! both holds and stalls jobs. This is the only workload where `aps-faas`,
//! the service executor and `aps-ffi` do work.

use crate::expected;
use crate::layers::{NsCell, TracedArrivals, TracedDemand, TracedFabric};
use crate::report::{fnv, median, mix, ns, quantile, timed, Report};
use crate::{Args, Bench, Metrics};
use adaptive_photonics::experiment::collective_by_name;
use aps_collectives::workload::arrivals::PoissonArrivals;
use aps_collectives::{ScheduleStream, Workload};
use aps_core::ConfigChoice;
use aps_cost::units::{KIB, MIB};
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{
    run_service, AdmissionPolicy, ServiceConfig, ServiceSummary, ServiceSwitching, TenantClass,
};
use aps_fabric::CircuitSwitch;
use aps_ffi::api::{
    aps_experiment_add_service_class, aps_experiment_destroy, aps_experiment_new,
    aps_experiment_run_service, aps_experiment_set_admission, aps_experiment_set_max_jobs,
    aps_service_class_slo, aps_service_destroy, aps_service_stats, ApsAdmissionPolicy, ApsClassSlo,
    ApsDomainConfig, ApsFabricKind, ApsServiceClass, ApsServiceStats,
};
use aps_ffi::ApsStatus;
use aps_matrix::Matching;
use aps_sim::RunConfig;
use std::collections::BTreeMap;
use std::ffi::CString;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Fabric ports.
const PORTS: u32 = 64;
/// Reconfiguration delay α_r, seconds.
const ALPHA_R_S: f64 = 10e-6;
/// The paper's line rate, Gbps.
const BANDWIDTH_GBPS: f64 = 800.0;
/// Jobs offered per run (the global cap) at the benchmark size.
pub const JOBS_PER_RUN: u64 = 1000;
/// Runs per measured batch: queue, backpressure, queue, backpressure.
pub const RUNS_PER_BATCH: u64 = 4;
/// Ingress queue bound of both admission policies.
const QUEUE_CAPACITY: u64 = 4;

/// One tenant class, as plain data.
struct ClassSpec {
    name: CString,
    ports: u32,
    bytes: f64,
    rate_hz: f64,
    matched: bool,
}

/// Everything built before the first timed call: the ABI config structs
/// and the C strings they point into.
pub struct Inputs {
    domain: ApsDomainConfig,
    family: CString,
    classes: [ClassSpec; 2],
    seed: u64,
    jobs_per_run: u64,
    params: CostParams,
}

/// The outputs of one run, read back through the ABI.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutput {
    /// Roll-up statistics.
    pub stats: ApsServiceStats,
    /// Per-class SLO accounting.
    pub slo: [ApsClassSlo; 2],
}

impl RunOutput {
    /// Every field as 64-bit words (floats by their bits), for exact
    /// comparison and digests.
    pub fn words(&self) -> Vec<u64> {
        let s = &self.stats;
        let mut w = vec![
            s.makespan_ps,
            s.makespan_s.to_bits(),
            s.offered,
            s.completed,
            s.steps,
            s.reconfig_events,
            s.classes,
        ];
        for c in &self.slo {
            w.extend([
                c.offered,
                c.admitted,
                c.queued,
                c.backpressured,
                c.rejected_too_large,
                c.rejected_ports_busy,
                c.rejected_queue_full,
                c.completed,
                c.failed,
                c.completion_p50_ps,
                c.completion_p99_ps,
                c.completion_max_ps,
                c.wait_p50_ps,
                c.wait_p99_ps,
                c.completion_mean_ps.to_bits(),
                c.goodput.to_bits(),
            ]);
        }
        w
    }

    /// The same output computed from a native summary, with the field
    /// conversions of the ABI's readers.
    pub fn from_summary(s: &ServiceSummary) -> Self {
        let mut slo = [ApsClassSlo::default(); 2];
        for (out, t) in slo.iter_mut().zip(&s.tenants) {
            *out = ApsClassSlo {
                struct_size: std::mem::size_of::<ApsClassSlo>(),
                offered: t.offered,
                admitted: t.admitted,
                queued: t.queued,
                backpressured: t.backpressured,
                rejected_too_large: t.rejected_too_large,
                rejected_ports_busy: t.rejected_ports_busy,
                rejected_queue_full: t.rejected_queue_full,
                completed: t.completed,
                failed: t.failed,
                completion_p50_ps: t.completion.p50_ps().unwrap_or(0),
                completion_p99_ps: t.completion.p99_ps().unwrap_or(0),
                completion_max_ps: t.completion.max_ps(),
                wait_p50_ps: t.wait.p50_ps().unwrap_or(0),
                wait_p99_ps: t.wait.p99_ps().unwrap_or(0),
                completion_mean_ps: t.completion.mean_ps(),
                goodput: t.goodput(),
            };
        }
        Self {
            stats: ApsServiceStats {
                struct_size: std::mem::size_of::<ApsServiceStats>(),
                makespan_ps: s.makespan_ps,
                makespan_s: s.makespan_s(),
                offered: s.offered(),
                completed: s.completed(),
                steps: s.steps.steps as u64,
                reconfig_events: s.steps.reconfig_events as u64,
                classes: s.tenants.len() as u64,
            },
            slo,
        }
    }
}

/// Per-entry-point call times of traced runs, microseconds.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Samples per entry point, in [`crate::report::FFI_ENTRIES`] order.
    pub us: BTreeMap<&'static str, Vec<f64>>,
    /// Calls made.
    pub calls: u64,
    /// Calls that did not return `APS_STATUS_OK`.
    pub failed: u64,
}

impl CallLog {
    fn note(&mut self, entry: &'static str, t0: Instant, status: ApsStatus) {
        self.us
            .entry(entry)
            .or_default()
            .push(t0.elapsed().as_secs_f64() * 1e6);
        self.calls += 1;
        self.failed += u64::from(status != ApsStatus::Ok);
    }
}

/// Issues one ABI call, logging its time and status when traced, and
/// turns a non-OK status into an error naming the entry point.
fn abi(
    log: &mut Option<&mut CallLog>,
    entry: &'static str,
    call: impl FnOnce() -> ApsStatus,
) -> Result<(), String> {
    let t0 = Instant::now();
    let status = call();
    if let Some(log) = log.as_deref_mut() {
        log.note(entry, t0, status);
    }
    if status == ApsStatus::Ok {
        Ok(())
    } else {
        Err(format!("aps_{entry} returned {status:?}"))
    }
}

/// The admission policy of run `k` of a batch.
fn admission(k: u64) -> AdmissionPolicy {
    let capacity = QUEUE_CAPACITY as usize;
    if k.is_multiple_of(2) {
        AdmissionPolicy::Queue { capacity }
    } else {
        AdmissionPolicy::Backpressure { capacity }
    }
}

impl Inputs {
    /// Builds the ABI inputs of a batch of runs of `jobs_per_run` jobs
    /// whose seeds derive from `seed`.
    pub fn new(seed: u64, jobs_per_run: u64) -> Self {
        let defaults = CostParams::paper_defaults();
        let params = CostParams::new(defaults.alpha_s, BANDWIDTH_GBPS, defaults.delta_s)
            .expect("paper defaults are valid cost parameters");
        let domain = ApsDomainConfig {
            struct_size: std::mem::size_of::<ApsDomainConfig>(),
            ports: PORTS,
            alpha_s: params.alpha_s,
            bandwidth_gbps: BANDWIDTH_GBPS,
            delta_s: params.delta_s,
            alpha_r_s: ALPHA_R_S,
            controller: std::ptr::null(),
            fabric: ApsFabricKind::Optical as i32,
            storm: 0,
            storm_seed: 0,
        };
        let class = |name: &str, ports, bytes, rate_hz, matched| ClassSpec {
            name: CString::new(name).expect("class names have no NUL"),
            ports,
            bytes,
            rate_hz,
            matched,
        };
        Self {
            domain,
            family: CString::new("hd-allreduce").expect("family name has no NUL"),
            classes: [
                class("training", 32, 4.0 * MIB, 8_000.0, true),
                class("inference", 16, 256.0 * KIB, 40_000.0, false),
            ],
            seed,
            jobs_per_run,
            params,
        }
    }

    /// The arrival seed of class `c` in run `k`.
    fn class_seed(&self, k: u64, c: usize) -> u64 {
        mix(self.seed, 2 * k + c as u64)
    }

    /// One service experiment through the ABI, start to destroy.
    ///
    /// # Errors
    ///
    /// Names the first call that did not return `APS_STATUS_OK`.
    pub fn run_abi(&self, k: u64, mut log: Option<&mut CallLog>) -> Result<RunOutput, String> {
        let mut exp = 0u64;
        abi(&mut log, "experiment_new", || {
            aps_experiment_new(&self.domain, &mut exp)
        })?;
        let out = self.run_bound(exp, k, &mut log);
        let destroyed = abi(&mut log, "experiment_destroy", || {
            aps_experiment_destroy(exp)
        });
        let out = out?;
        destroyed?;
        Ok(out)
    }

    fn run_bound(
        &self,
        exp: u64,
        k: u64,
        log: &mut Option<&mut CallLog>,
    ) -> Result<RunOutput, String> {
        for (c, spec) in self.classes.iter().enumerate() {
            let class = ApsServiceClass {
                struct_size: std::mem::size_of::<ApsServiceClass>(),
                name: spec.name.as_ptr(),
                ports: spec.ports,
                workload: self.family.as_ptr(),
                message_bytes: spec.bytes,
                arrival_rate_hz: spec.rate_hz,
                jobs: 0,
                seed: self.class_seed(k, c),
                matched: i32::from(spec.matched),
            };
            abi(log, "add_service_class", || {
                aps_experiment_add_service_class(exp, &class)
            })?;
        }
        let policy = match admission(k) {
            AdmissionPolicy::Backpressure { .. } => ApsAdmissionPolicy::Backpressure,
            _ => ApsAdmissionPolicy::Queue,
        };
        abi(log, "set_admission", || {
            aps_experiment_set_admission(exp, policy as i32, QUEUE_CAPACITY)
        })?;
        abi(log, "set_max_jobs", || {
            aps_experiment_set_max_jobs(exp, self.jobs_per_run)
        })?;
        let mut svc = 0u64;
        abi(log, "run_service", || {
            aps_experiment_run_service(exp, &mut svc)
        })?;
        let mut out = RunOutput::default();
        out.stats.struct_size = std::mem::size_of::<ApsServiceStats>();
        let mut read = abi(log, "service_stats", || {
            aps_service_stats(svc, &mut out.stats)
        });
        for (c, slo) in out.slo.iter_mut().enumerate() {
            slo.struct_size = std::mem::size_of::<ApsClassSlo>();
            read = read.and(abi(log, "class_slo", || aps_service_class_slo(svc, c, slo)));
        }
        let destroyed = abi(log, "service_destroy", || aps_service_destroy(svc));
        read?;
        destroyed?;
        Ok(out)
    }

    /// The same run through native `aps_faas::run_service`, with the
    /// arrival processes, job demand and fabric wrapped in timing
    /// decorators.
    ///
    /// # Errors
    ///
    /// Reports a construction or engine failure.
    pub fn run_native(&self, k: u64) -> Result<(RunOutput, NativeSpans), String> {
        let arrivals_ns: NsCell = Rc::default();
        let demand_ns: NsCell = Rc::default();
        let mut classes = Vec::with_capacity(self.classes.len());
        for (c, spec) in self.classes.iter().enumerate() {
            let ports = spec.ports as usize;
            let family = self.family.to_str().expect("family name is UTF-8");
            let schedule = collective_by_name(family, ports, spec.bytes)
                .ok_or("unknown family")?
                .map_err(|e| e.to_string())?
                .schedule;
            let arrivals = PoissonArrivals::new(spec.rate_hz, None, self.class_seed(k, c))
                .map_err(|e| e.to_string())?;
            let choice = if spec.matched {
                ConfigChoice::Matched
            } else {
                ConfigChoice::Base
            };
            let demand = move |_id: u64| -> Box<dyn Workload> {
                Box::new(ScheduleStream::new(schedule.clone()))
            };
            classes.push(TenantClass::new(
                spec.name.to_str().expect("class names are UTF-8"),
                ports,
                Matching::shift(ports, 1).map_err(|e| e.to_string())?,
                ServiceSwitching::Uniform(choice),
                Box::new(TracedArrivals::new(
                    Box::new(arrivals),
                    Rc::clone(&arrivals_ns),
                )),
                Box::new(TracedDemand::new(Box::new(demand), Rc::clone(&demand_ns))),
            ));
        }
        let reconfig = ReconfigModel::constant(ALPHA_R_S).map_err(|e| e.to_string())?;
        let mut switch = CircuitSwitch::new(
            Matching::shift(PORTS as usize, 1).map_err(|e| e.to_string())?,
            reconfig,
        );
        let mut fabric = TracedFabric::new(&mut switch);
        let cfg = ServiceConfig {
            run: RunConfig::with_params(self.params),
            admission: admission(k),
            max_jobs: Some(self.jobs_per_run),
            keep_job_reports: false,
        };
        let t0 = Instant::now();
        let report = run_service(&mut fabric, &mut classes, &cfg).map_err(|e| e.to_string())?;
        let wall = t0.elapsed();
        let spans = NativeSpans {
            wall,
            arrivals_ns: arrivals_ns.get(),
            demand_ns: demand_ns.get(),
            request_calls: fabric.calls,
            request_ns: fabric.ns,
            ports_changed: fabric.ports_changed,
        };
        Ok((RunOutput::from_summary(&report.summary), spans))
    }
}

/// Spans of one native replay run.
#[derive(Debug, Default)]
pub struct NativeSpans {
    wall: Duration,
    arrivals_ns: u64,
    demand_ns: u64,
    request_calls: u64,
    request_ns: u64,
    ports_changed: u64,
}

/// Checks one run's output: every job accounted, none failed.
fn check_run(out: &RunOutput, jobs: u64) -> Result<(), String> {
    let s = &out.stats;
    if s.offered != jobs || s.classes != 2 {
        return Err(format!(
            "run offered {} jobs in {} classes",
            s.offered, s.classes
        ));
    }
    for (c, slo) in out.slo.iter().enumerate() {
        let rejected = slo.rejected_too_large + slo.rejected_ports_busy + slo.rejected_queue_full;
        if slo.failed != 0
            || slo.admitted != slo.completed
            || slo.offered != slo.admitted + rejected
        {
            return Err(format!("class {c} accounting does not close: {slo:?}"));
        }
    }
    Ok(())
}

/// One batch through the ABI: the outputs of every run, checked.
///
/// # Errors
///
/// Reports the first failing call or check.
pub fn batch(inputs: &Inputs, mut log: Option<&mut CallLog>) -> Result<Vec<RunOutput>, String> {
    (0..RUNS_PER_BATCH)
        .map(|k| {
            let out = inputs.run_abi(k, log.as_deref_mut())?;
            check_run(&out, inputs.jobs_per_run)?;
            Ok(out)
        })
        .collect()
}

/// Digest of a batch's outputs.
pub fn digest(outs: &[RunOutput]) -> u64 {
    fnv(outs.iter().flat_map(RunOutput::words))
}

/// Replays a batch natively, checks it equals the ABI batch, and returns
/// the native per-layer spans.
fn native_layers(inputs: &Inputs, abi_outs: &[RunOutput]) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_insert(0.0) += v;
    for (k, want) in (0..RUNS_PER_BATCH).zip(abi_outs) {
        let (got, spans) = inputs.run_native(k)?;
        if got.words() != want.words() {
            return Err(format!("run {k}: native {got:?} differs from ABI {want:?}"));
        }
        let arrivals = spans.arrivals_ns as f64;
        let demand = spans.demand_ns as f64;
        let request = spans.request_ns as f64;
        add("faas.arrivals_ns", arrivals);
        add("faas.demand_ns", demand);
        add("faas.self_ns", ns(spans.wall) - arrivals - demand - request);
        add("fabric.request_calls", spans.request_calls as f64);
        add("fabric.request_ns", request);
        add("fabric.ports_changed", spans.ports_changed as f64);
        for slo in &got.slo {
            add("faas.offered", slo.offered as f64);
            add("faas.completed", slo.completed as f64);
            add("faas.queued", slo.queued as f64);
            add("faas.backpressured", slo.backpressured as f64);
            add(
                "faas.rejected",
                (slo.rejected_too_large + slo.rejected_ports_busy + slo.rejected_queue_full) as f64,
            );
        }
    }
    Ok(m)
}

/// One traced batch: the ABI batch with every call timed, then its
/// native replay.
fn traced_batch(inputs: &Inputs) -> Result<(Vec<RunOutput>, Metrics), String> {
    let mut log = CallLog::default();
    let t0 = Instant::now();
    let outs = batch(inputs, Some(&mut log));
    let wall = ns(t0.elapsed());
    let outs = outs?;
    let mut m = native_layers(inputs, &outs)?;
    let mut boundary = 0.0;
    for (entry, us) in &log.us {
        m.insert(format!("ffi.{entry}_us_p50"), median(us));
        m.insert(format!("ffi.{entry}_us_p99"), quantile(us, 0.99));
        if *entry != "run_service" {
            boundary += us.iter().sum::<f64>() * 1e3;
        }
    }
    m.insert("ffi.calls".into(), log.calls as f64);
    m.insert("ffi.failed".into(), log.failed as f64);
    m.insert("ffi.boundary_share".into(), boundary / wall);
    m.insert("trace.wall_ns".into(), wall);
    Ok((outs, m))
}

impl Bench for Inputs {
    type Output = u64;
    const RATE: &'static str = "jobs_per_s";

    fn units(&self) -> u64 {
        RUNS_PER_BATCH * self.jobs_per_run
    }

    fn call(&self) -> (Result<u64, String>, Duration) {
        let (outs, wall) = timed(|| batch(self, None));
        (outs.map(|o| digest(&o)), wall)
    }

    fn traced_call(&self) -> Result<(u64, Metrics), String> {
        let (outs, m) = traced_batch(self)?;
        Ok((digest(&outs), m))
    }
}

/// Checks the batch of each recorded seed among the default and the
/// measured one against its expected digest.
fn check_expected(seed: u64, report: &mut Report) {
    let mut seeds = vec![expected::DEFAULT_SEED, seed];
    seeds.dedup();
    for seed in seeds {
        let Some(want) = expected::service(seed) else {
            continue;
        };
        let inputs = Inputs::new(seed, JOBS_PER_RUN);
        report.attempted += inputs.units();
        match inputs.call().0 {
            Ok(d) if d == want => {}
            Ok(d) => report.fail(
                inputs.units(),
                format!("seed {seed}: service digest {d:#018x}, expected {want:#018x}"),
            ),
            Err(e) => report.fail(inputs.units(), e),
        }
    }
}

/// Runs service-abi: see [`crate::run_workload`] for the protocol.
pub fn run(args: &Args, report: &mut Report) {
    let build = || Inputs::new(args.seed, JOBS_PER_RUN);
    report.set("par.threads", 1.0);
    check_expected(args.seed, report);
    crate::measure(&build(), build, args, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FFI_ENTRIES;

    fn tiny() -> Inputs {
        Inputs::new(5, 40)
    }

    #[test]
    fn decorators_are_transparent() {
        let inputs = tiny();
        let (plain, _) = inputs.call();
        // The traced batch also replays every run natively and fails
        // unless the native summary equals the one read through the ABI.
        let (traced, _) = inputs.traced_call().expect("traced call succeeds");
        assert_eq!(plain.expect("untraced call succeeds"), traced);
    }

    #[test]
    fn child_spans_fit_in_the_wall() {
        let (_, m) = tiny().traced_call().expect("traced call succeeds");
        assert!(
            m["faas.self_ns"] >= 0.0,
            "native child spans exceed the run wall"
        );
        let share = m["ffi.boundary_share"];
        assert!((0.0..=1.0).contains(&share), "boundary share {share}");
        assert!(m["ffi.run_service_us_p50"] * 1e3 <= m["trace.wall_ns"]);
    }

    #[test]
    fn every_abi_call_returns_ok() {
        let inputs = tiny();
        let mut log = CallLog::default();
        let outs = batch(&inputs, Some(&mut log)).expect("every call returns APS_STATUS_OK");
        assert_eq!(outs.len() as u64, RUNS_PER_BATCH);
        assert_eq!(log.failed, 0);
        // Per run: new, two classes, admission, job cap, run, stats, two
        // class SLOs and two destroys.
        assert_eq!(log.calls, RUNS_PER_BATCH * 11);
        for entry in FFI_ENTRIES {
            assert!(log.us.contains_key(entry), "aps_{entry} was never called");
        }
    }
}
