//! The repository benchmark: four workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See `WORKLOADS.md`.
//!
//! ```text
//! perfbench --workload <stream-train|stream-perm|plan-sweep|service-abi|all>
//!           [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod expected;
mod layers;
mod report;
mod service;
mod stream;
mod sweep;

use report::{median, ns, peak_rss_mb, quantile, setup_sample, Report, Window};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["stream-train", "stream-perm", "plan-sweep", "service-abi"];

/// Timed calls a run makes even when the window closes first.
pub const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <stream-train|stream-perm|plan-sweep|service-abi|all> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

/// Runs one workload. Each follows the same protocol:
///
/// 1. build the inputs;
/// 2. check the program's output on the recorded seeds against the values
///    in `expected.rs`;
/// 3. [`measure`] the workload, sampling the input build with each call;
/// 4. `peak_rss_mb` is the process high-water mark; each workload runs in
///    a process of its own.
pub fn run_workload(args: &Args) -> Report {
    let mut report = Report::new();
    match args.workload.as_str() {
        "stream-train" => stream::run(stream::Kind::Train, args, &mut report),
        "stream-perm" => stream::run(stream::Kind::Perm, args, &mut report),
        "plan-sweep" => sweep::run(args, &mut report),
        "service-abi" => service::run(args, &mut report),
        other => unreachable!("workload '{other}' passed argument validation"),
    }
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// A workload as the measuring protocol drives it.
pub trait Bench {
    /// What one call returns; equal outputs mean equal behaviour.
    type Output: PartialEq + std::fmt::Debug;
    /// Name of the throughput unit in the human-readable output.
    const RATE: &'static str;
    /// Units of work (steps, cells or jobs) in one call.
    fn units(&self) -> u64;
    /// One untraced call with its output checked, and the time of the
    /// call into the program alone.
    fn call(&self) -> (Result<Self::Output, String>, Duration);
    /// One traced call: its checked output and per-layer metrics,
    /// including `trace.wall_ns`.
    fn traced_call(&self) -> Result<(Self::Output, Metrics), String>;
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Fails unless `out` equals the first output seen.
fn same<T: PartialEq + std::fmt::Debug>(first: &mut Option<T>, out: T) -> Result<(), String> {
    match first {
        Some(f) if *f != out => Err(format!("a call gave {out:?}, the first {f:?}")),
        Some(_) => Ok(()),
        None => {
            *first = Some(out);
            Ok(())
        }
    }
}

/// Calls the workload for its window and sets `throughput` to the best
/// rate over the counted calls. Calls during the warm-up are checked but
/// not counted. Ahead of each call the inputs are built again with
/// `rebuild` and thrown away: `setup_s` is the fastest of these samples,
/// which spread over the window like the calls do.
///
/// Best rather than median: every call does the same deterministic work,
/// and on a shared host a co-tenant can halve the CPU's speed for tens of
/// seconds, so interference only ever slows a call. The fastest calls are
/// the least disturbed measure of the program's own cost, and they stay
/// put as long as part of the window runs undisturbed. In a traced run each
/// counted call is followed by a traced one, whose output must equal the
/// untraced one; each per-layer metric is the median over the traced
/// calls, and `trace.overhead_ratio` the median ratio of a traced call's
/// wall to the untraced call's just before it.
pub fn measure<B: Bench, R>(
    bench: &B,
    mut rebuild: impl FnMut() -> R,
    args: &Args,
    report: &mut Report,
) {
    let units = bench.units();
    let mut first = None;
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut traced: Vec<Metrics> = Vec::new();
    let mut counted = 0;
    let window = Window::open(args.seconds);
    while window.more(counted, MIN_REPS) {
        let at = Instant::now();
        let setup = setup_sample(&mut rebuild);
        let (res, wall) = bench.call();
        report.attempted += units;
        let counts = window.counts(at);
        counted += usize::from(counts);
        if let Err(e) = res.and_then(|out| same(&mut first, out)) {
            report.fail(units, e);
            continue;
        }
        if !counts {
            continue;
        }
        rates.push(units as f64 / wall.as_secs_f64());        setups.push(setup);
        if args.trace {
            report.attempted += units;
            let res = bench.traced_call().and_then(|(out, mut m)| {
                same(&mut first, out)?;
                let ratio = m.get("trace.wall_ns").copied().unwrap_or(0.0) / ns(wall);
                m.insert("trace.overhead_ratio".into(), ratio);
                Ok(m)
            });
            match res {
                Ok(m) => traced.push(m),
                Err(e) => report.fail(units, e),
            }
        }
    }
    let best = quantile(&rates, 1.0);
    report.set("throughput", best);
    report.set("setup_s", quantile(&setups, 0.0));
    report.notes.push(format!(
        "{} = {best} 1/s (best of {} calls of {units}; quartiles {}, {} and {})",
        B::RATE,
        rates.len(),
        quantile(&rates, 0.25),
        median(&rates),
        quantile(&rates, 0.75)
    ));
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for m in &traced {
        for (k, &v) in m {
            samples.entry(k.as_str()).or_default().push(v);
        }
    }
    for (k, vs) in &samples {
        report.set(k, median(vs));
    }
}

/// The value text after `"key": ` in a result line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Runs every workload, each in a process of its own so that its memory
/// high-water mark is its own, and prints one combined result.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or_default();
        let parsed = (
            field(last, "correct"),
            field(last, "attempted").and_then(|v| v.parse::<u64>().ok()),
            field(last, "failed").and_then(|v| v.parse::<u64>().ok()),
            last.find("\"metrics\": "),
        );
        let (Some(c), Some(a), Some(f), Some(at)) = parsed else {
            return Err(format!("{w} printed no result ({})", out.status));
        };
        correct &= c == "true";
        attempted += a;
        failed += f;
        let object = &last[at + "\"metrics\": ".len()..last.len() - 1];
        metrics.push(format!("\"{w}\": {object}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = run_workload(&args);
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in report.table(args.trace) {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args(&[
            "--workload",
            "plan-sweep",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_fields_are_found_in_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(field(line, "correct"), Some("true"));
        assert_eq!(field(line, "attempted"), Some("12"));
        assert_eq!(field(line, "failed"), Some("0"));
    }
}
