//! `replay`: streaming trace replay with durable checkpoints.
//!
//! Set-up trains the mode predictor, builds the FlexWatts runtime, and
//! generates and encodes a seeded `zoo_mix` trace to a `.pdnt` file. Each
//! pass then streams the file through `TraceReader::next_interval` into
//! `TraceReplayer::feed` in fixed batches, saving a `ReplayCheckpoint`
//! periodically. Decode, durable writes, and the *per-point* topology
//! path (the runtime evaluates both FlexWatts modes per interval) do the
//! work: the same `topology` layer as `sweep`, reached per point instead
//! of per row.

use crate::trace::span;
use crate::util::{self, Rng, Scratch, SetupTimes};
use crate::{Ledger, Report};
use flexwatts::{
    FlexWattsPdn, FlexWattsRuntime, ModePredictor, PdnMode, RuntimeConfig, RuntimeReport,
    TraceReplayer,
};
use pdn_proc::client_soc;
use pdn_units::Watts;
use pdn_workload::tracefile::{write_trace_chunked, DefectPolicy, TraceReader};
use pdn_workload::{zoo, Phase, Trace};
use pdnspot::validation::{validate_with, ReferenceSystem};
use pdnspot::{ModelParams, Scenario, Workers};
use std::path::Path;
use std::time::{Duration, Instant};

/// Intervals per zoo scenario (four scenarios per trace).
pub const PER_SCENARIO: usize = 2_500;
pub const CHUNK_CAPACITY: usize = 1_024;
/// Intervals per `feed` call; one batch is the unit of `p50_ms`/`p99_ms`.
pub const BATCH: usize = 256;
pub const CHECKPOINT_EVERY: u64 = 4_096;
/// Active trace phases validated against the reference for the model
/// error.
const MODEL_SAMPLES: usize = 300;

pub fn runtime() -> FlexWattsRuntime {
    let params = ModelParams::paper_defaults();
    let predictor = ModePredictor::train(&params, &[4.0, 10.0, 18.0, 25.0, 50.0], &[0.4, 0.6, 0.8])
        .expect("predictor training lattice is valid");
    FlexWattsRuntime::new(client_soc(Watts::new(18.0)), params, predictor, RuntimeConfig::default())
}

pub fn reports_bitwise_equal(a: &RuntimeReport, b: &RuntimeReport) -> bool {
    a.energy_joules.to_bits() == b.energy_joules.to_bits()
        && a.oracle_energy_joules.to_bits() == b.oracle_energy_joules.to_bits()
        && a.total_time.get().to_bits() == b.total_time.get().to_bits()
        && a.prediction_accuracy.to_bits() == b.prediction_accuracy.to_bits()
        && a.switches == b.switches
        && a.time_in_mode == b.time_in_mode
        && a.predictor_evaluations == b.predictor_evaluations
        && a.protection_overrides == b.protection_overrides
}

/// What one streamed pass produced.
struct Pass {
    report: RuntimeReport,
    replayed: u64,
    lost: u64,
}

/// Streams `path` through a fresh replayer, recording each batch's size
/// and latency (decode + feed + any checkpoint save).
fn stream_pass(
    rt: &FlexWattsRuntime,
    path: &Path,
    checkpoint: &Path,
    ops: &mut Vec<(f64, f64)>,
) -> Result<Pass, String> {
    let mut reader = span("tracefile", || TraceReader::open(path, DefectPolicy::Quarantine))
        .map_err(|e| format!("open trace: {e}"))?;
    let fingerprint = reader.fingerprint();
    let mut replayer = TraceReplayer::new(rt, Workers::Auto);
    let mut batch = Vec::with_capacity(BATCH);
    let mut last_checkpoint = 0;
    loop {
        let start = Instant::now();
        batch.clear();
        span("tracefile", || {
            while batch.len() < BATCH {
                match reader.next_interval() {
                    Ok(Some(interval)) => batch.push(interval),
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(format!("decode: {e}")),
                }
            }
            Ok(())
        })?;
        if batch.is_empty() {
            break;
        }
        span("replay", || replayer.feed(&batch)).map_err(|e| format!("feed: {e}"))?;
        if replayer.intervals_done() - last_checkpoint >= CHECKPOINT_EVERY {
            span("replay", || replayer.checkpoint(fingerprint).save(checkpoint))
                .map_err(|e| format!("checkpoint: {e}"))?;
            last_checkpoint = replayer.intervals_done();
        }
        ops.push((batch.len() as f64, util::ms(start.elapsed())));
    }
    let report = span("replay", || replayer.finish());
    Ok(Pass { report, replayed: reader.intervals_emitted(), lost: reader.intervals_lost() })
}

/// The trace's active phases as scenarios on the runtime's SoC.
fn phase_scenarios(trace: &Trace, seed: u64) -> Vec<Scenario> {
    let soc = client_soc(Watts::new(18.0));
    let active: Vec<_> = trace
        .intervals()
        .iter()
        .filter_map(|i| match i.phase {
            Phase::Active { workload_type, ar } => Some((workload_type, ar)),
            Phase::Idle(_) => None,
        })
        .collect();
    let mut rng = Rng::new(seed, 0x3A3E);
    (0..MODEL_SAMPLES.min(active.len()))
        .filter_map(|_| {
            let (wl, ar) = active[rng.below(active.len())];
            Scenario::active_fixed_tdp_frequency(&soc, wl, ar).ok()
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let scratch = Scratch::new("replay").map_err(|e| format!("scratch dir: {e}"))?;
    let path = scratch.path("zoo.pdnt");
    let checkpoint = scratch.path("replay.pdnc");
    // Set-up samples taken during the run encode to a file of their own,
    // so the trace being replayed is never rewritten.
    let build = |path: &Path| {
        let rt = runtime();
        let trace = zoo::zoo_mix(seed, PER_SCENARIO);
        let written = write_trace_chunked(path, &trace, CHUNK_CAPACITY);
        (rt, written.map(|()| trace))
    };
    let ((rt, trace), mut setup) = SetupTimes::start(seconds, || build(&path));
    let sample_path = scratch.path("setup.pdnt");
    let trace = trace.map_err(|e| format!("encode trace: {e}"))?;
    let encoded = trace.intervals().len() as u64;
    let reference =
        rt.run_with(&trace, Workers::Auto).map_err(|e| format!("in-memory run: {e}"))?;

    let mut ledger = Ledger::new();
    let mut report = Report::default();
    let mut ops = Vec::new();
    let (mut intervals, mut passes) = (0u64, 0u64);
    let mut last = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        setup.sample(|| build(&sample_path));
        let start = Instant::now();
        let pass = stream_pass(&rt, &path, &checkpoint, &mut ops)?;
        report.program_time += start.elapsed();
        // Ledger: every encoded interval is replayed or accounted lost.
        ledger.check(pass.replayed + pass.lost == encoded, || {
            format!("replay: {} replayed + {} lost != {encoded} encoded", pass.replayed, pass.lost)
        });
        report.attempted += encoded;
        report.failed += pass.lost;
        // Output check: the streamed report equals the in-memory run.
        if !reports_bitwise_equal(&pass.report, &reference) {
            report.failed += pass.replayed;
            report.wrong += pass.replayed;
        }
        intervals += pass.replayed;
        passes += 1;
        last = Some(pass.report);
    }
    let last = last.ok_or("no replay pass completed")?;

    let model = ReferenceSystem::new(util::REFERENCE_UNIT);
    let scenarios = phase_scenarios(&trace, seed);
    let (mut accuracy_sum, mut samples) = (0.0, 0usize);
    for mode in PdnMode::ALL {
        let pdn = FlexWattsPdn::new(ModelParams::paper_defaults(), mode);
        let campaign = validate_with(&pdn, &model, &scenarios, Workers::Auto)
            .map_err(|e| format!("model validation: {e}"))?;
        accuracy_sum += campaign.samples.iter().map(|s| s.accuracy()).sum::<f64>();
        samples += campaign.samples.len();
    }

    let wall = report.program_time.as_secs_f64();
    report.setup_s = setup.median();
    let p99_whole;
    (report.throughput_per_s, report.p50_ms, report.p99_ms, p99_whole) = util::summarize(&ops);
    report.model_error_pct = 100.0 * (1.0 - accuracy_sum / samples.max(1) as f64);
    report.ledgers_closed = ledger.closed();
    report.counters = vec![
        ("predictor.evals_per_interval", last.predictor_evaluations as f64 / encoded as f64),
        ("predictor.accuracy", last.prediction_accuracy),
        ("runtime.switches", last.switches.len() as f64),
        ("protection.overrides", last.protection_overrides as f64),
        ("runtime.energy_vs_oracle", last.energy_efficiency_vs_oracle()),
    ];
    report.notes = vec![
        format!("{passes} passes over {encoded} intervals, {intervals} replayed in {wall:.3} s"),
        format!("energy_vs_oracle = {:.6} (model)", last.energy_efficiency_vs_oracle()),
        format!(
            "p99_ms {:.4} is the median of per-window p99s; the whole-run p99 is {p99_whole:.4} ms",
            report.p99_ms
        ),
        ledger.note(),
    ];
    Ok(report)
}
