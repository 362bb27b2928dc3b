//! The tracked performance baseline: machine-readable throughput and
//! allocation numbers for the three hot evaluation kernels.
//!
//! The paper's value proposition is that the analytical model is *fast*
//! enough to sweep thousands of (TDP, workload, AR, C-state) points per
//! PDN; this module turns that into a protected number. Seven kernels are
//! timed:
//!
//! * **batch_sweep** — the full design-space lattice sweep
//!   ([`pdnspot::batch::evaluate`]) over the four baseline
//!   PDN topologies;
//! * **validation** — the Fig. 4-style campaign: model evaluation plus
//!   reference-system reintegration through tabulated VR surfaces;
//! * **runtime_trace** — the FlexWatts runtime interval simulator over a
//!   deterministic synthetic trace;
//! * **memo_sweep** — two passes of the memoized lattice sweep through one
//!   shared [`pdnspot::memo::MemoCache`]; the warm pass must be served
//!   entirely from the cache;
//! * **crossover_scan** — repeated crossover-TDP searches (grid scan plus
//!   bisection probes) through one shared cache; the second round re-runs
//!   every pair fully cached;
//! * **delta_sweep** — the incremental dirty-slab re-sweep
//!   ([`pdnspot::sweep::surfaces_delta`]): one TDP axis value changes and
//!   only the dirtied slab is re-evaluated, patching the prior surfaces
//!   in place bit-identically to a full re-sweep;
//! * **par_map_dispatch** — the fixed cost of one
//!   [`pdnspot::batch::par_map`] fan-out: a two-item job on two workers
//!   whose items cost nothing, so the time is all worker-pool dispatch
//!   (reported per call).
//!
//! Each kernel reports wall time, points/sec, ns/point, heap allocations
//! per point (counted by the `perf` binary's instrumented global
//! allocator — see `src/bin/perf.rs`; library users see zeros), and a
//! *deterministic digest* of the numeric results. The digest is the
//! regression guard: an optimisation must change the timings, never the
//! digest.
//!
//! [`render_json`] emits the `BENCH_batch.json` schema documented in the
//! README; [`render_digest`] emits the deterministic text committed as
//! `results/perf.txt` and diffed by CI.

use pdn_proc::PackageCState;
use pdn_units::{ApplicationRatio, Seconds, Watts};
use pdn_workload::{Trace, TraceInterval, WorkloadType};
use pdnspot::batch::{evaluate, par_map, ClientSoc, SweepGrid, Workers};
use pdnspot::prelude::*;
use pdnspot::validation::{validate_with, ReferenceSystem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Heap-allocation counter. The `perf` binary installs a counting global
/// allocator that increments this on every `alloc`/`realloc`; the library
/// itself never writes it, so embedding callers that skip the allocator
/// simply read zeros.
pub static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// Measurement of one kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name (stable identifier used in the JSON schema).
    pub name: &'static str,
    /// Work items processed (evaluations, samples, or intervals).
    pub points: usize,
    /// Wall time of the timed run, in seconds.
    pub wall_s: f64,
    /// Heap allocations during the timed run (0 without the counting
    /// allocator).
    pub(crate) allocations: u64,
    /// Deterministic digest of the numeric results.
    pub(crate) digest: String,
}

impl KernelReport {
    /// Throughput in points per second.
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.points as f64 / self.wall_s
    }

    /// Mean cost per point in nanoseconds.
    pub fn ns_per_point(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.wall_s * 1e9 / self.points as f64
    }

    /// Mean heap allocations per point.
    pub fn allocs_per_point(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.allocations as f64 / self.points as f64
    }
}

/// Timed repetitions per kernel: the report carries the *minimum* wall
/// time. A single pass over a ~1 ms workload is at the mercy of scheduler
/// preemption and allocator state — back-to-back runs of an identical
/// binary spread by ±30%, which is exactly the flakiness a CI regression
/// gate cannot absorb. The minimum of a few runs is the run least
/// disturbed by noise and is stable to a few percent.
const PERF_REPEATS: usize = 5;

/// Times `f` over [`PERF_REPEATS`] runs, returning the last run's result
/// plus `(min_wall_s, allocations_of_one_run)`.
///
/// Every kernel closure is deterministic and self-contained (fresh memo
/// caches and same-seed reference units are built inside the closure), so
/// repeated runs return bit-identical results and the digest does not
/// depend on which run is reported.
fn measure<R>(mut f: impl FnMut() -> R) -> (R, f64, u64) {
    let mut best_wall = f64::INFINITY;
    let mut out = None;
    let mut allocs = 0;
    for _ in 0..PERF_REPEATS {
        let allocs_before = ALLOC_COUNT.load(Ordering::Relaxed);
        let start = Instant::now();
        let r = f();
        let wall = start.elapsed().as_secs_f64();
        allocs = ALLOC_COUNT.load(Ordering::Relaxed) - allocs_before;
        best_wall = best_wall.min(wall);
        out = Some(r);
    }
    (out.expect("PERF_REPEATS is nonzero"), best_wall, allocs)
}

/// Formats a digest float: enough digits to pin every bit of a double.
fn digest_f64(x: f64) -> String {
    format!("{x:.17e}")
}

/// The batch-sweep lattice (`quick` trims the axes for the CI smoke job).
fn sweep_grid(quick: bool) -> SweepGrid {
    let tdps: &[f64] =
        if quick { &[4.0, 18.0, 50.0] } else { &[4.0, 10.0, 18.0, 25.0, 36.0, 44.0, 50.0] };
    let ars: &[f64] = if quick {
        &[0.40, 0.60, 0.80]
    } else {
        &[0.40, 0.45, 0.50, 0.56, 0.60, 0.65, 0.70, 0.75, 0.80]
    };
    SweepGrid::builder()
        .tdps(tdps)
        .workload_types(&WorkloadType::ACTIVE_TYPES)
        .ars(ars)
        .idle_states(&PackageCState::ALL)
        .build()
        .expect("static lattice is valid")
}

/// Kernel 1: the design-space grid sweep over the four PDN topologies.
pub(crate) fn batch_kernel(quick: bool) -> KernelReport {
    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params.clone());
    let ldo = LdoPdn::new(params.clone());
    let iplus = IPlusMbvrPdn::new(params);
    let pdns: [&dyn Pdn; 4] = [&ivr, &mbvr, &ldo, &iplus];
    let grid = sweep_grid(quick);
    // Warm up (allocator pools, curve segment hints); the scenario cache
    // itself is per-call, so the timed run still pays every build.
    let cfg = EngineConfig::builder().workers(Workers::Serial).build().expect("valid config");
    let _ = evaluate(&pdns, &grid, &ClientSoc, &cfg, None);
    let (outcome, wall_s, allocations) = measure(|| evaluate(&pdns, &grid, &ClientSoc, &cfg, None));
    assert_eq!(outcome.stats.failed, 0, "sweep lattice must evaluate cleanly");
    let mut etee_sum = 0.0;
    let mut input_sum = 0.0;
    for eval in &outcome.evaluations {
        let e = eval.result.as_ref().expect("no failures");
        etee_sum += e.etee.get();
        input_sum += e.input_power.get();
    }
    KernelReport {
        name: "batch_sweep",
        points: outcome.stats.evaluations,
        wall_s,
        allocations,
        digest: format!(
            "evals={} etee_sum={} input_sum={}",
            outcome.stats.evaluations,
            digest_f64(etee_sum),
            digest_f64(input_sum)
        ),
    }
}

/// Kernel 2: the Fig. 4-style validation campaign (model evaluation plus
/// reference-system reintegration and noise).
pub(crate) fn validation_kernel(quick: bool) -> KernelReport {
    let params = ModelParams::paper_defaults();
    let pdn = MbvrPdn::new(params);
    let tdps: &[f64] = if quick { &[4.0, 18.0] } else { &[4.0, 18.0, 50.0] };
    let ars: &[f64] = if quick { &[0.4, 0.8] } else { &[0.4, 0.5, 0.6, 0.7, 0.8] };
    let mut scenarios = Vec::new();
    for &tdp in tdps {
        let soc = pdn_proc::client_soc(Watts::new(tdp));
        for wl in WorkloadType::ACTIVE_TYPES {
            for &ar in ars {
                let ar = ApplicationRatio::new(ar).expect("static ARs are valid");
                scenarios.push(
                    Scenario::active_fixed_tdp_frequency(&soc, wl, ar)
                        .expect("static lattice is valid"),
                );
            }
        }
    }
    // The noise stream is per-unit state, so warmup and every timed
    // repetition consume their own same-seed unit: each run replays the
    // identical stream, keeping the digest deterministic while the
    // (surface-compiling) unit construction stays outside the timing.
    let warm = ReferenceSystem::new(42);
    let _ = validate_with(&pdn, &warm, &scenarios, Workers::Serial);
    let mut units: Vec<ReferenceSystem> =
        (0..PERF_REPEATS).map(|_| ReferenceSystem::new(42)).collect();
    let (report, wall_s, allocations) = measure(|| {
        let reference = units.pop().expect("one reference unit per repetition");
        validate_with(&pdn, &reference, &scenarios, Workers::Serial)
    });
    let report = report.expect("validation campaign succeeds");
    KernelReport {
        name: "validation",
        points: report.samples.len(),
        wall_s,
        allocations,
        digest: format!(
            "samples={} mean_acc={}",
            report.samples.len(),
            digest_f64(report.mean_accuracy())
        ),
    }
}

/// The deterministic synthetic trace of the runtime kernel: a bursty
/// phase mix cycling through every workload type and two idle depths.
fn runtime_trace(quick: bool) -> Trace {
    let reps = if quick { 4 } else { 20 };
    let mut intervals = Vec::new();
    let ar = |v: f64| ApplicationRatio::new(v).expect("static AR is valid");
    for i in 0..reps {
        let t = Seconds::new(0.03);
        intervals.push(TraceInterval::active(t, WorkloadType::MultiThread, ar(0.7)));
        intervals.push(TraceInterval::active(t, WorkloadType::SingleThread, ar(0.45)));
        intervals.push(TraceInterval::idle(t, PackageCState::C6));
        intervals.push(TraceInterval::active(t, WorkloadType::Graphics, ar(0.6)));
        if i % 2 == 0 {
            intervals.push(TraceInterval::idle(t, PackageCState::C8));
        }
    }
    Trace::new("perf-kernel", intervals)
}

/// Kernel 3: the FlexWatts runtime interval simulator.
pub(crate) fn runtime_kernel(quick: bool) -> KernelReport {
    let predictor = flexwatts::ModePredictor::train(
        &ModelParams::paper_defaults(),
        &[4.0, 10.0, 18.0, 25.0, 50.0],
        &[0.4, 0.6, 0.8],
    )
    .expect("predictor training lattice is valid");
    let runtime = flexwatts::FlexWattsRuntime::new(
        pdn_proc::client_soc(Watts::new(18.0)),
        ModelParams::paper_defaults(),
        predictor,
        flexwatts::RuntimeConfig::default(),
    );
    let trace = runtime_trace(quick);
    let _ = runtime.run_with(&trace, Workers::Serial);
    let (report, wall_s, allocations) = measure(|| runtime.run_with(&trace, Workers::Serial));
    let report = report.expect("runtime trace simulates cleanly");
    KernelReport {
        name: "runtime_trace",
        points: trace.intervals().len(),
        wall_s,
        allocations,
        digest: format!(
            "intervals={} energy_j={} accuracy={}",
            trace.intervals().len(),
            digest_f64(report.energy_joules),
            digest_f64(report.prediction_accuracy)
        ),
    }
}

/// Kernel 4: two passes of the memoized lattice sweep through one shared
/// cache. The cold pass pays every evaluation (plus cache bookkeeping);
/// the warm pass must be answered entirely from memory, which the digest
/// pins as an exact hit rate.
pub(crate) fn memo_kernel(quick: bool) -> KernelReport {
    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params.clone());
    let ldo = LdoPdn::new(params.clone());
    let iplus = IPlusMbvrPdn::new(params);
    let pdns: [&dyn Pdn; 4] = [&ivr, &mbvr, &ldo, &iplus];
    let grid = sweep_grid(quick);
    let run = || {
        // The default capacity dwarfs the lattice (≤ 924 entries), so
        // no shard evicts and the warm hit rate is exactly 1. Sizing the
        // cache *at* the entry count would FIFO-thrash the shards the key
        // hash happens to overfill.
        let memo = MemoCache::new();
        let cfg = EngineConfig::builder().workers(Workers::Serial).build().expect("valid config");
        let cold = evaluate(&pdns, &grid, &ClientSoc, &cfg, Some(&memo));
        let warm = evaluate(&pdns, &grid, &ClientSoc, &cfg, Some(&memo));
        (cold, warm)
    };
    let _ = run();
    let ((cold, warm), wall_s, allocations) = measure(run);
    assert_eq!(cold.stats.failed, 0, "sweep lattice must evaluate cleanly");
    assert_eq!(warm.stats.failed, 0, "sweep lattice must evaluate cleanly");
    let warm_rate = warm.stats.memo_hit_rate();
    let mut etee_sum = 0.0;
    let mut input_sum = 0.0;
    for eval in &warm.evaluations {
        let e = eval.result.as_ref().expect("no failures");
        etee_sum += e.etee.get();
        input_sum += e.input_power.get();
    }
    KernelReport {
        name: "memo_sweep",
        points: cold.stats.evaluations + warm.stats.evaluations,
        wall_s,
        allocations,
        digest: format!(
            "evals={} etee_sum={} input_sum={} warm_hit_rate={}",
            cold.stats.evaluations + warm.stats.evaluations,
            digest_f64(etee_sum),
            digest_f64(input_sum),
            digest_f64(warm_rate)
        ),
    }
}

/// Kernel 5: repeated crossover-TDP searches through one shared cache.
/// Round 1 populates the cache (the scan grid plus every bisection
/// probe); round 2 re-runs the same searches and must find every
/// evaluation already cached.
pub(crate) fn crossover_kernel(quick: bool) -> KernelReport {
    use pdnspot::sweep::crossover;

    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params.clone());
    let ldo = LdoPdn::new(params.clone());
    let iplus = IPlusMbvrPdn::new(params);
    let pairs: [(&dyn Pdn, &dyn Pdn); 3] = [(&mbvr, &ivr), (&ldo, &ivr), (&iplus, &ivr)];
    let ars: &[f64] = if quick { &[0.6] } else { &[0.4, 0.6, 0.8] };
    let cfg = EngineConfig::builder().workers(Workers::Serial).build().expect("valid config");
    let run = || {
        let memo = MemoCache::new();
        let mut crossover_sum = 0.0;
        let mut searches = 0usize;
        let mut round1 = MemoStats::default();
        for round in 0..2 {
            for &(challenger, incumbent) in &pairs {
                for &ar in ars {
                    let ar = ApplicationRatio::new(ar).expect("static ARs are valid");
                    let c = crossover(
                        challenger,
                        incumbent,
                        WorkloadType::MultiThread,
                        ar,
                        (4.0, 50.0),
                        &ClientSoc,
                        &cfg,
                        Some(&memo),
                    )
                    .expect("crossover search succeeds");
                    crossover_sum += match c {
                        Crossover::At(tdp) => tdp.get(),
                        Crossover::AlwaysFirst => -1.0,
                        Crossover::AlwaysSecond => -2.0,
                    };
                    searches += 1;
                }
            }
            if round == 0 {
                round1 = memo.stats();
            }
        }
        (crossover_sum, searches, round1, memo.stats())
    };
    let _ = run();
    let ((crossover_sum, searches, round1, total), wall_s, allocations) = measure(run);
    let round2_lookups = total.lookups() - round1.lookups();
    let round2_hits = total.hits - round1.hits;
    let round2_rate =
        if round2_lookups == 0 { 0.0 } else { round2_hits as f64 / round2_lookups as f64 };
    KernelReport {
        name: "crossover_scan",
        points: total.lookups() as usize,
        wall_s,
        allocations,
        digest: format!(
            "searches={searches} crossover_sum={} round2_hit_rate={}",
            digest_f64(crossover_sum),
            digest_f64(round2_rate)
        ),
    }
}

/// Kernel 6: the incremental dirty-slab re-sweep. A prior surface
/// campaign over the active batch lattice is patched after one TDP axis
/// value changes: [`SweepGrid::diff`] computes the dirty slab and
/// [`pdnspot::sweep::surfaces_delta`] re-evaluates only that slab in
/// place. The timed run covers the whole patched campaign, so the
/// reported ns/point is directly comparable with `batch_sweep`'s — the
/// ratio is the dirty-slab speedup the CI gate protects. The digest pins
/// the dirty evaluation count and that the patched surfaces equal a
/// from-scratch re-sweep of the new grid bit for bit.
pub(crate) fn delta_kernel(quick: bool) -> KernelReport {
    use pdnspot::sweep::{surfaces, surfaces_delta};

    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params.clone());
    let ldo = LdoPdn::new(params.clone());
    let iplus = IPlusMbvrPdn::new(params);
    let pdns: [&dyn Pdn; 4] = [&ivr, &mbvr, &ldo, &iplus];
    // The active sub-lattice of the batch-sweep grid (surfaces are
    // defined on active lattices), with the middle TDP nudged: the delta
    // is one TDP slab out of the axis.
    let base = sweep_grid(quick);
    let old = SweepGrid::active(base.tdps(), base.workload_types(), base.ars())
        .expect("static lattice is valid");
    let mut tdps = old.tdps().to_vec();
    let mid = tdps.len() / 2;
    tdps[mid] += 1.0;
    let new =
        SweepGrid::active(&tdps, old.workload_types(), old.ars()).expect("static lattice is valid");
    let delta = new.diff(&old);
    let cfg = EngineConfig::builder().workers(Workers::Serial).build().expect("valid config");
    // Untimed setup: the prior campaign being patched, and the
    // from-scratch re-sweep the patch must reproduce.
    let (prior, _) =
        surfaces(&pdns, &old, &ClientSoc, &cfg, None).expect("prior campaign succeeds");
    let (full, _) = surfaces(&pdns, &new, &ClientSoc, &cfg, None).expect("full re-sweep succeeds");
    let run = || {
        let mut patched = prior.clone();
        let stats = surfaces_delta(&pdns, &new, &delta, &mut patched, &ClientSoc, &cfg, None)
            .expect("delta re-sweep succeeds");
        (patched, stats)
    };
    let _ = run();
    let ((patched, stats), wall_s, allocations) = measure(run);
    let full_points = pdns.len() * new.n_points();
    let etee_sum: f64 = patched.iter().flat_map(|s| s.values.iter()).sum();
    let matches_full = patched.len() == full.len()
        && patched.iter().zip(&full).all(|(p, f)| {
            p.tdps == f.tdps
                && p.ars == f.ars
                && p.values.len() == f.values.len()
                && p.values.iter().zip(&f.values).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    KernelReport {
        name: "delta_sweep",
        // The patched campaign covers the whole lattice; the timed work
        // is the dirty slab only. Counting full points makes ns/point the
        // effective cost of keeping the campaign fresh.
        points: full_points,
        wall_s,
        allocations,
        digest: format!(
            "dirty_evals={} full_points={full_points} etee_sum={} matches_full={}",
            stats.evaluations,
            digest_f64(etee_sum),
            u8::from(matches_full)
        ),
    }
}

/// Kernel 7: the fixed cost of a worker-pool fan-out. Each call is a
/// [`par_map`] of two trivial items on two workers — the shape of the
/// small fan-outs a sweep round issues — so the reported ns/point is the
/// per-call dispatch overhead (points are calls). The digest pins the
/// call count and the sum of every returned item.
pub(crate) fn dispatch_kernel(quick: bool) -> KernelReport {
    let calls = if quick { 200 } else { 2000 };
    let items = [1u64, 2];
    let run = || {
        (0..calls)
            .map(|_| {
                par_map(&items, Workers::Fixed(2), |i, &x| x * (i as u64 + 1)).iter().sum::<u64>()
            })
            .sum::<u64>()
    };
    let _ = run();
    let (sum, wall_s, allocations) = measure(run);
    KernelReport {
        name: "par_map_dispatch",
        points: calls,
        wall_s,
        allocations,
        digest: format!("calls={calls} items=2 sum={sum}"),
    }
}

/// Runs all seven kernels.
pub fn run_all(quick: bool) -> Vec<KernelReport> {
    vec![
        batch_kernel(quick),
        validation_kernel(quick),
        runtime_kernel(quick),
        memo_kernel(quick),
        crossover_kernel(quick),
        delta_kernel(quick),
        dispatch_kernel(quick),
    ]
}

/// Renders the deterministic digest text (committed as
/// `results/perf.txt`): numeric results only, no timings.
pub fn render_digest(kernels: &[KernelReport]) -> String {
    let mut out = String::from("Perf kernels — deterministic result digests\n");
    for k in kernels {
        out.push_str(&format!("[perf] kernel={} {}\n", k.name, k.digest));
    }
    out
}

/// Renders one kernel as a single JSON object **on one line** — the
/// baseline extractor ([`extract_baseline_ns`]) depends on this shape.
fn kernel_json(k: &KernelReport) -> String {
    format!(
        "{{\"name\": \"{}\", \"points\": {}, \"wall_s\": {:.6}, \"points_per_sec\": {:.1}, \
         \"ns_per_point\": {:.1}, \"allocations\": {}, \"allocations_per_point\": {:.2}, \
         \"digest\": \"{}\"}}",
        k.name,
        k.points,
        k.wall_s,
        k.points_per_sec(),
        k.ns_per_point(),
        k.allocations,
        k.allocs_per_point(),
        k.digest
    )
}

/// Pulls `(name, ns_per_point)` pairs out of a previously emitted
/// `BENCH_batch.json` (naive line scan over the stable one-kernel-per-line
/// format; no JSON parser is vendored).
pub(crate) fn extract_baseline_ns(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else { continue };
        let Some(ns) = field_f64(line, "\"ns_per_point\": ") else { continue };
        out.push((name, ns));
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders the full `BENCH_batch.json` document. `baseline` is the raw
/// text of a previous run's JSON; when present its kernel lines are
/// embedded under `"baseline"` and per-kernel speedups are computed.
pub fn render_json(kernels: &[KernelReport], quick: bool, baseline: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"pdnspot-bench/v1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let sep = if i + 1 < kernels.len() { "," } else { "" };
        out.push_str(&format!("    {}{sep}\n", kernel_json(k)));
    }
    out.push_str("  ]");
    if let Some(base) = baseline {
        let pairs = extract_baseline_ns(base);
        out.push_str(",\n  \"baseline\": [\n");
        let base_lines: Vec<&str> =
            base.lines().filter(|l| l.contains("\"ns_per_point\"")).collect();
        for (i, line) in base_lines.iter().enumerate() {
            let sep = if i + 1 < base_lines.len() { "," } else { "" };
            out.push_str(&format!("    {}{sep}\n", line.trim().trim_end_matches(',')));
        }
        out.push_str("  ],\n  \"speedup_vs_baseline\": {\n");
        let mut entries = Vec::new();
        for k in kernels {
            if let Some((_, base_ns)) = pairs.iter().find(|(n, _)| n == k.name) {
                if k.ns_per_point() > 0.0 {
                    entries.push(format!("    \"{}\": {:.2}", k.name, base_ns / k.ns_per_point()));
                }
            }
        }
        out.push_str(&entries.join(",\n"));
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_kernels_produce_nonzero_throughput_and_stable_digests() {
        let a = batch_kernel(true);
        assert!(a.points > 0);
        assert!(a.points_per_sec() > 0.0);
        assert!(a.ns_per_point() > 0.0);
        let b = batch_kernel(true);
        assert_eq!(a.digest, b.digest, "digest must be run-to-run deterministic");
    }

    #[test]
    fn memo_kernel_warm_pass_is_fully_cached() {
        let k = memo_kernel(true);
        assert!(k.digest.contains("warm_hit_rate=1.00000000000000000e0"), "{}", k.digest);
        let again = memo_kernel(true);
        assert_eq!(k.digest, again.digest, "digest must be run-to-run deterministic");
    }

    #[test]
    fn memo_kernel_result_sums_match_the_plain_sweep() {
        // Memoization must not change a single reported value: the warm
        // pass sums must equal the memo-free batch kernel's sums.
        let plain = batch_kernel(true);
        let memo = memo_kernel(true);
        let tail = |d: &str| {
            d.split("etee_sum=").nth(1).map(|s| s.split(" warm").next().unwrap_or(s).to_string())
        };
        assert_eq!(tail(&plain.digest), tail(&memo.digest), "{} vs {}", plain.digest, memo.digest);
    }

    #[test]
    fn crossover_kernel_second_round_is_fully_cached() {
        let k = crossover_kernel(true);
        assert!(k.digest.contains("round2_hit_rate=1.00000000000000000e0"), "{}", k.digest);
        assert!(k.points > 0);
        assert!(k.digest.contains("searches=6"), "{}", k.digest);
    }

    #[test]
    fn delta_kernel_patch_is_bit_identical_to_the_full_resweep() {
        let k = delta_kernel(true);
        assert!(k.digest.contains("matches_full=1"), "{}", k.digest);
        assert!(k.points > 0);
        let again = delta_kernel(true);
        assert_eq!(k.digest, again.digest, "digest must be run-to-run deterministic");
    }

    #[test]
    fn dispatch_kernel_digest_pins_every_result() {
        let k = dispatch_kernel(true);
        assert_eq!(k.digest, "calls=200 items=2 sum=1000");
        assert_eq!(k.points, 200);
        assert!(k.ns_per_point() > 0.0);
    }

    #[test]
    fn digest_render_is_timing_free() {
        let k = KernelReport {
            name: "batch_sweep",
            points: 10,
            wall_s: 1.0,
            allocations: 5,
            digest: "evals=10".into(),
        };
        let text = render_digest(&[k]);
        assert!(text.contains("kernel=batch_sweep evals=10"));
        assert!(!text.contains("wall"), "digests must not embed timings");
    }

    #[test]
    fn json_round_trips_baseline_speedup() {
        let before = KernelReport {
            name: "batch_sweep",
            points: 100,
            wall_s: 2.0,
            allocations: 0,
            digest: "x".into(),
        };
        let base_json = render_json(std::slice::from_ref(&before), true, None);
        let after = KernelReport { wall_s: 1.0, ..before };
        let merged = render_json(&[after], true, Some(&base_json));
        assert!(merged.contains("\"speedup_vs_baseline\""));
        assert!(merged.contains("\"batch_sweep\": 2.00"), "{merged}");
        let pairs = extract_baseline_ns(&base_json);
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].1 - 2e7).abs() < 1e3, "{}", pairs[0].1);
    }
}
