//! `pdnbench`: the repository's benchmark.
//!
//! ```text
//! pdnbench --workload <sweep|explore|replay|serve_light|serve_heavy|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets the system up
//! several times (reporting the median as `setup_s`), measures for
//! `--seconds`, checks its own outputs and ledgers, and prints one JSON
//! result as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the workload with layer spans on, adds the
//! layer probes, and reports the per-layer metrics. Human-readable lines
//! go to stderr. `--workload all` runs every workload untraced, each in
//! its own process, and prints each workload's result line. See
//! `README.md`.

mod explore;
mod probe;
mod replay;
mod serve;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The seed held out while the benchmark was written; README reports
/// every end-to-end metric on it beside the default seed.
pub const HELD_OUT_SEED: u64 = 90_210;

const WORKLOADS: [&str; 5] = ["sweep", "explore", "replay", "serve_light", "serve_heavy"];

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("model_error_pct", "%"),
];

/// How far the traced run's top-level spans may be from covering exactly
/// the workload's timed program sections.
const COVERAGE_TOLERANCE_PCT: f64 = 5.0;

/// The per-layer metrics of the traced run, with their units. Counters a
/// workload does not exercise read 0; see README for which workload
/// exercises which layer.
const PER_LAYER: [(&str, &str); 54] = [
    // Share of the workload's timed program sections spent in each
    // layer's spans (self time), and how much the top-level spans cover.
    ("trace.coverage_pct", "%"),
    ("scenario.self_pct", "%"),
    ("batch.self_pct", "%"),
    ("validation.self_pct", "%"),
    ("sweep.self_pct", "%"),
    ("tracefile.self_pct", "%"),
    ("replay.self_pct", "%"),
    ("wire.self_pct", "%"),
    ("generator.self_pct", "%"),
    // Counters of the workload run.
    ("scenario.cache_hit_ratio", "ratio"),
    ("batch.busy_ratio", "ratio"),
    ("batch.stolen", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    ("delta.dirty_ratio", "ratio"),
    ("crossover.probes", "count"),
    ("predictor.evals_per_interval", "ratio"),
    ("predictor.accuracy", "ratio"),
    ("runtime.switches", "count"),
    ("protection.overrides", "count"),
    ("runtime.energy_vs_oracle", "ratio"),
    ("admission.coalesced", "count"),
    ("admission.shed", "count"),
    ("admission.deadline_expired", "count"),
    ("server.evictions", "count"),
    // Layer probes: the cost of one call into each layer, timed on
    // seeded inputs after the workload run.
    ("scenario.build_ns", "ns"),
    ("batch.eval_ns", "ns"),
    ("topo.ivr_ns", "ns"),
    ("topo.mbvr_ns", "ns"),
    ("topo.ldo_ns", "ns"),
    ("topo.iplus_ns", "ns"),
    ("topo.flexwatts_ns", "ns"),
    ("topo.point_ns", "ns"),
    ("validation.sample_ns", "ns"),
    ("reference.build_ms", "ms"),
    ("memo.miss_ns", "ns"),
    ("memo.hit_ns", "ns"),
    ("memo.hit_vs_row", "ratio"),
    ("delta.ns_per_point", "ns"),
    ("crossover.ms", "ms"),
    ("surface.sample_ns", "ns"),
    ("tracefile.encode_ns", "ns"),
    ("tracefile.decode_ns", "ns"),
    ("tracefile.bytes_per_interval", "B"),
    ("replay.feed_ns", "ns"),
    ("runtime.run_ns", "ns"),
    ("replay.checkpoint_ms", "ms"),
    ("replay.checkpoint_bytes", "B"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("engine.boot_s", "s"),
    ("engine.handle_us_p50", "us"),
    ("engine.handle_us_p99", "us"),
    ("transport.queue_us_p50", "us"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (design points, intervals, or requests).
    pub attempted: u64,
    /// Attempted operations that failed, were refused, timed out, or
    /// returned a wrong output.
    pub failed: u64,
    /// The subset of `failed` whose output differed from the reference.
    pub wrong: u64,
    /// Whether every ledger identity of the run held.
    pub ledgers_closed: bool,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub model_error_pct: f64,
    /// Wall time of the timed program sections, which the top-level spans
    /// of a traced run must cover.
    pub program_time: Duration,
    /// Run-derived per-layer counters.
    pub counters: Vec<(&'static str, f64)>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

/// Accumulates `evaluations == ok + failed`-style identities; closed
/// until the first one fails.
#[derive(Debug, Default)]
pub struct Ledger {
    first_violation: Option<String>,
}

impl Ledger {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds && self.first_violation.is_none() {
            self.first_violation = Some(what());
        }
    }

    pub fn closed(&self) -> bool {
        self.first_violation.is_none()
    }

    pub fn note(&self) -> String {
        match &self.first_violation {
            None => "ledgers closed".into(),
            Some(v) => format!("LEDGER VIOLATION: {v}"),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: pdnbench --workload <sweep|explore|replay|serve_light|serve_heavy|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    match name {
        "sweep" => sweep::run(seed, seconds),
        "explore" => explore::run(seed, seconds),
        "replay" => replay::run(seed, seconds),
        "serve_light" => serve::run(serve::Load::Light, seed, seconds),
        "serve_heavy" => serve::run(serve::Load::Heavy, seed, seconds),
        _ => unreachable!("workload names are validated"),
    }
}

/// Formats a metric value with every digit Rust's shortest round-trip
/// representation carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(report: &Report, metrics: &[(&str, &str, f64)], covered: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    let correct = report.ledgers_closed
        && covered
        && report.wrong == 0
        && metrics.iter().all(|(_, _, v)| v.is_finite())
        && report.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

fn end_to_end(report: &Report) -> Vec<(&'static str, &'static str, f64)> {
    let values = [
        report.setup_s,
        report.throughput_per_s,
        report.p50_ms,
        report.p99_ms,
        util::peak_rss_mb(),
        report.model_error_pct,
    ];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
}

fn per_layer(
    report: &Report,
    spans: &trace::Summary,
    probes: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let base = report.program_time.as_secs_f64();
    let pct = |d: Duration| if base > 0.0 { 100.0 * d.as_secs_f64() / base } else { 0.0 };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert("trace.coverage_pct".into(), pct(spans.top_level));
    for (layer, self_time) in &spans.layers {
        values.insert(format!("{layer}.self_pct"), pct(*self_time));
    }
    values.extend(report.counters.iter().map(|&(k, v)| (k.to_string(), v)));
    values.extend(probes.iter().map(|(k, v)| (k.to_string(), *v)));
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in &PER_LAYER {
        let v = match values.remove(name) {
            Some(v) => v,
            // Counters and span shares of layers this workload never calls
            // are zero; every timed probe must have run.
            None if matches!(unit, "%" | "ratio" | "count") => 0.0,
            None => return Err(format!("probe metric {name} was not measured")),
        };
        out.push((name, unit, v));
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!("metric {extra} is not in the per-layer list"));
    }
    Ok(out)
}

fn run_one(args: &Args) -> Result<(), String> {
    if args.trace {
        trace::enable();
    }
    let report = run_workload(&args.workload, args.seed, args.seconds)?;
    let spans = trace::finish();
    for note in &report.notes {
        eprintln!("[{}] {note}", args.workload);
    }
    let e2e = end_to_end(&report);
    eprintln!(
        "[{}] seed={} seconds={} trace={} attempted={} failed={} fail_ratio={:.6}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, unit, v) in &e2e {
        eprintln!("[{}] {name} = {v:.6} {unit}", args.workload);
    }
    let mut covered = true;
    let metrics = if args.trace {
        let probes = probe::run(args.seed)?;
        let layers = per_layer(&report, &spans, &probes)?;
        for (name, unit, v) in &layers {
            eprintln!("[{}] {name} = {v:.6} {unit}", args.workload);
        }
        // The top-level spans must account for the timed program sections.
        let coverage =
            layers.iter().find(|(name, ..)| *name == "trace.coverage_pct").map_or(0.0, |l| l.2);
        covered = (coverage - 100.0).abs() <= COVERAGE_TOLERANCE_PCT;
        eprintln!(
            "[{}] top-level spans cover {coverage:.2} % of the timed sections (tolerance \
             ±{COVERAGE_TOLERANCE_PCT} %){}",
            args.workload,
            if covered { "" } else { ": NOT COVERED" }
        );
        layers
    } else {
        e2e
    };
    println!("{}", result_line(&report, &metrics, covered));
    Ok(())
}

/// Runs every workload untraced, each in a child process of its own (so
/// `peak_rss_mb` is per workload), and prints each one's result line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        println!("{workload}: {last}");
        ok &= out.status.success() && last.starts_with("{\"correct\": true");
    }
    if ok {
        Ok(())
    } else {
        Err("a workload failed or reported incorrect output".into())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\n(default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" { run_all(&args) } else { run_one(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pdnbench: {e}");
            ExitCode::FAILURE
        }
    }
}
