//! Result assembly: the metric tables, order statistics, the time budget
//! of a run, and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (host time, tracing off). `throughput` counts the
/// workload's unit of work: simulated steps, sweep cells or service jobs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Names of the ABI entry points the service workload calls, in call
/// order; each gets a `ffi.<entry>_us_p50` / `_us_p99` pair.
pub const FFI_ENTRIES: &[&str] = &[
    "experiment_new",
    "add_service_class",
    "set_admission",
    "set_max_jobs",
    "run_service",
    "service_stats",
    "class_slo",
    "service_destroy",
    "experiment_destroy",
];

/// Per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload never reaches reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("par.threads", "count"),
        ("collectives.pull_calls", "count"),
        ("collectives.pull_ns", "ns"),
        ("collectives.build_calls", "count"),
        ("collectives.build_ns", "ns"),
        ("flow.theta_lookups", "count"),
        ("flow.theta_hits", "count"),
        ("flow.theta_misses", "count"),
        ("flow.theta_hit_ratio", "ratio"),
        ("flow.theta_ns", "ns"),
        ("flow.warm_ns", "ns"),
        ("cost.table_ns", "ns"),
        ("core.policy_ns", "ns"),
        ("core.dp_ns", "ns"),
        ("core.decide_calls", "count"),
        ("core.decide_ns", "ns"),
        ("core.matched_ratio", "ratio"),
        ("fabric.request_calls", "count"),
        ("fabric.request_ns", "ns"),
        ("fabric.ports_changed", "count"),
        ("sim.fluid_calls", "count"),
        ("sim.fluid_flows", "count"),
        ("sim.fluid_links_per_flow", "ratio"),
        ("sim.fluid_ns", "ns"),
        ("sim.self_ns", "ns"),
        ("sim.step_cold_us_p50", "us"),
        ("sim.step_warm_us_p50", "us"),
        ("sim.step_us_p99", "us"),
        ("faas.arrivals_ns", "ns"),
        ("faas.demand_ns", "ns"),
        ("faas.self_ns", "ns"),
        ("faas.offered", "count"),
        ("faas.completed", "count"),
        ("faas.queued", "count"),
        ("faas.backpressured", "count"),
        ("faas.rejected", "count"),
        ("ffi.calls", "count"),
        ("ffi.failed", "count"),
        ("ffi.boundary_share", "ratio"),
        ("trace.wall_ns", "ns"),
        ("trace.overhead_ratio", "ratio"),
    ];
    let mut names: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for entry in FFI_ENTRIES {
        names.push((format!("ffi.{entry}_us_p50"), "us"));
        names.push((format!("ffi.{entry}_us_p99"), "us"));
    }
    names
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (steps, cells or jobs).
    pub attempted: u64,
    /// Units of work in operations that errored or whose output did not
    /// match the expected or the cross-checked value.
    pub failed: u64,
    /// `false` once any output check failed.
    pub correct: bool,
    /// Metric values by name; units come from the tables above.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a failed check; `units` of work count as failed.
    pub fn fail(&mut self, units: u64, why: String) {
        self.correct = false;
        self.failed += units;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// The metric table this run reports: end-to-end without tracing,
    /// per-layer with it.
    pub fn table(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        let names: Vec<(String, &'static str)> = if trace {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }

    /// The last line of the benchmark's standard output.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .table(trace)
            .into_iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a bug
                // in the benchmark and reads as 0 so the line stays valid.
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Seconds of untimed calls before a measuring window opens. The first
/// calls of a fresh process run slower (cold page cache, allocator and
/// branch predictors); they are checked but not timed.
const WARM_UP_S: f64 = 1.0;

/// Minimum time one set-up sample spans.
const SETUP_SAMPLE_S: f64 = 0.002;

/// A measuring window: an untimed warm-up, then timed calls until it
/// closes.
pub struct Window {
    timed_from: Instant,
    until: Instant,
}

impl Window {
    /// A window of `WARM_UP_S` untimed seconds followed by `seconds` timed
    /// ones.
    pub fn open(seconds: f64) -> Self {
        let timed_from = Instant::now() + Duration::from_secs_f64(WARM_UP_S);
        Self {
            timed_from,
            until: timed_from + Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// Whether a call started at `at` counts: the warm-up is over. The
    /// first call never counts.
    pub fn counts(&self, at: Instant) -> bool {
        at >= self.timed_from
    }

    /// `true` while the window is open; at least `min_reps` counted calls
    /// are always granted, so a slow machine still yields a median.
    pub fn more(&self, counted: usize, min_reps: usize) -> bool {
        counted < min_reps || Instant::now() < self.until
    }
}

/// Times `f` once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// One set-up sample: the time of one build of a workload's inputs in
/// seconds, the build repeated for at least `SETUP_SAMPLE_S` and the time
/// divided, so a cheap build is not a handful of clock ticks.
pub fn setup_sample<T>(mut build: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    let mut builds = 0u32;
    while builds == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        std::hint::black_box(build());
        builds += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(builds)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64 — derives independent per-run seeds from the workload seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the digest the expected-output checks
/// compare.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_lists_every_metric_of_the_mode() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("throughput", 12.5);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let traced = r.json(true);
        for (name, _) in per_layer_names() {
            assert!(traced.contains(&format!("\"{name}\"")));
        }
        assert!(!traced.contains("\"throughput\""));
    }

    #[test]
    fn benchmark_manifest_lists_exactly_the_reported_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let per_layer = manifest
            .split("\"per_layer\"")
            .nth(1)
            .expect("manifest has a per_layer list");
        let e2e = manifest
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|s| s.split("\"per_layer\"").next())
            .expect("manifest has an end_to_end list");
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let names = per_layer_names();
        for (name, unit) in &names {
            assert!(
                per_layer.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), names.len());
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
    }
}
