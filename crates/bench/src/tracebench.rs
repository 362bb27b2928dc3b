//! The streaming trace-ingestion benchmark (`BENCH_trace.json`).
//!
//! The trace-file format exists so real-scale traces (millions of
//! intervals) can stream through [`flexwatts::FlexWattsRuntime`] at
//! bounded memory; this module turns that into protected numbers. Four
//! legs run over one scenario-zoo trace file:
//!
//! * **encode** — scenario-zoo generation streamed through
//!   [`TraceFileWriter`](pdn_workload::TraceFileWriter) to disk;
//! * **cold_replay** — the full streaming replay
//!   ([`FlexWattsRuntime::run_streaming`]) of a pristine file;
//! * **resumed_replay** — the same file replayed after a simulated
//!   mid-flight crash: the first ~40 % runs with periodic checkpoints
//!   and is dropped, then the resume leg is timed. Its report must be
//!   **bitwise equal** to the cold replay's;
//! * **poisoned_replay** — the file with three chunk frames zeroed out
//!   (torn writes): the reader must quarantine exactly those chunks,
//!   account every lost interval, and finish.
//!
//! Each leg reports wall time and intervals/sec plus a deterministic
//! digest; like `perf`, the digest is the regression guard — timings
//! move, digests must not.

use flexwatts::{
    CheckpointPlan, FlexWattsRuntime, ModePredictor, ReplayFileOptions, RuntimeConfig,
    RuntimeReport, TraceReplayer,
};
use pdn_units::Watts;
use pdn_workload::tracefile::{
    frame_spans, write_trace_chunked, DefectPolicy, FrameKind, TraceReader,
};
use pdn_workload::zoo;
use pdnspot::{ModelParams, Workers};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Intervals per scenario in quick mode (4 scenarios → 10 k total).
const QUICK_PER_SCENARIO: usize = 2_500;
/// Intervals per scenario in full mode (4 scenarios → 100 k total).
const FULL_PER_SCENARIO: usize = 25_000;
/// Chunk capacity of the benchmark file.
const CHUNK_CAPACITY: usize = 1_024;
/// Zoo seed (fixed: the digest pins the resulting energy bits).
const SEED: u64 = 0xBEAC_0000;
/// Checkpoint cadence of the interrupted leg, in intervals.
const CHECKPOINT_EVERY: u64 = 1_000;

/// Measurement of one benchmark leg.
#[derive(Debug, Clone)]
pub struct TraceLeg {
    /// Leg name (stable identifier used in the JSON schema).
    pub name: &'static str,
    /// Intervals processed by the timed section.
    pub intervals: u64,
    /// Wall time of the timed section, in seconds.
    pub wall_s: f64,
    /// Deterministic digest of the leg's numeric results.
    pub digest: String,
}

impl TraceLeg {
    /// Throughput in intervals per second.
    pub fn intervals_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.intervals as f64 / self.wall_s
    }
}

/// The full benchmark outcome.
#[derive(Debug, Clone)]
pub struct TraceBenchReport {
    /// The four legs, in execution order.
    pub legs: Vec<TraceLeg>,
    /// Encoded file size in bytes.
    pub file_bytes: u64,
    /// Interval the resumed leg restarted from.
    pub resumed_from: u64,
    /// Chunks the poisoned leg quarantined.
    pub chunks_quarantined: u64,
    /// Intervals the poisoned leg lost (and accounted).
    pub intervals_lost: u64,
}

fn digest_f64(x: f64) -> String {
    format!("{x:.17e}")
}

fn runtime() -> FlexWattsRuntime {
    let predictor = ModePredictor::train(
        &ModelParams::paper_defaults(),
        &[4.0, 10.0, 18.0, 25.0, 50.0],
        &[0.4, 0.6, 0.8],
    )
    .expect("predictor training lattice is valid");
    FlexWattsRuntime::new(
        pdn_proc::client_soc(Watts::new(18.0)),
        ModelParams::paper_defaults(),
        predictor,
        RuntimeConfig::default(),
    )
}

fn reports_bitwise_equal(a: &RuntimeReport, b: &RuntimeReport) -> bool {
    a.energy_joules.to_bits() == b.energy_joules.to_bits()
        && a.oracle_energy_joules.to_bits() == b.oracle_energy_joules.to_bits()
        && a.total_time.get().to_bits() == b.total_time.get().to_bits()
        && a.prediction_accuracy.to_bits() == b.prediction_accuracy.to_bits()
        && a.switches == b.switches
        && a.time_in_mode == b.time_in_mode
        && a.predictor_evaluations == b.predictor_evaluations
        && a.protection_overrides == b.protection_overrides
}

/// A scratch directory owned by one benchmark run and removed when
/// dropped. Its name joins the process id, the clock, and a per-process
/// counter, and it is created fresh (never reused), so concurrent runs —
/// in one process or several — never touch each other's files.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "flexwatts-tracebench-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir(&dir).expect("fresh scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Leg 1: zoo generation + chunked encode to disk.
fn encode_leg(path: &Path, per_scenario: usize) -> (TraceLeg, u64) {
    let start = Instant::now();
    let trace = zoo::zoo_mix(SEED, per_scenario);
    write_trace_chunked(path, &trace, CHUNK_CAPACITY).expect("encode benchmark trace");
    let wall_s = start.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(path).expect("encoded file").len();
    let intervals = trace.intervals().len() as u64;
    let leg = TraceLeg {
        name: "encode",
        intervals,
        wall_s,
        digest: format!(
            "intervals={intervals} file_bytes={file_bytes} total_s={}",
            digest_f64(trace.total_duration().get())
        ),
    };
    (leg, file_bytes)
}

/// Leg 2: the cold streaming replay (bounded memory, default batches).
fn cold_leg(rt: &FlexWattsRuntime, path: &Path) -> (TraceLeg, RuntimeReport) {
    let start = Instant::now();
    let cold = rt
        .run_streaming(path, &ReplayFileOptions::default())
        .expect("cold replay of a pristine file");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(cold.defects.total(), 0, "pristine file must replay clean");
    let leg = TraceLeg {
        name: "cold_replay",
        intervals: cold.intervals_replayed,
        wall_s,
        digest: format!(
            "intervals={} energy_j={} accuracy={}",
            cold.intervals_replayed,
            digest_f64(cold.report.energy_joules),
            digest_f64(cold.report.prediction_accuracy)
        ),
    };
    (leg, cold.report)
}

/// Leg 3: crash after ~40 % (checkpointing every [`CHECKPOINT_EVERY`]),
/// then the timed resume. Panics if the resumed report diverges from the
/// cold one by a single bit.
fn resumed_leg(
    rt: &FlexWattsRuntime,
    path: &Path,
    cold: &RuntimeReport,
    total: u64,
) -> (TraceLeg, u64) {
    let cp_path = path.with_extension("pdnc");
    let kill_at = total * 2 / 5;
    {
        let mut reader = TraceReader::open(path, DefectPolicy::Quarantine).expect("reopen");
        let fp = reader.fingerprint();
        let mut replayer = TraceReplayer::new(rt, Workers::Auto);
        let mut batch = Vec::with_capacity(CHECKPOINT_EVERY as usize);
        'outer: loop {
            batch.clear();
            while (batch.len() as u64) < CHECKPOINT_EVERY {
                match reader.next_interval().expect("pristine file") {
                    Some(interval) => batch.push(interval),
                    None => break,
                }
            }
            replayer.feed(&batch).expect("replay");
            replayer.checkpoint(fp).save(&cp_path).expect("checkpoint save");
            if replayer.intervals_done() >= kill_at {
                break 'outer; // ...crash: no finish, no more checkpoints.
            }
        }
    }

    let start = Instant::now();
    let resumed = rt
        .run_streaming(
            path,
            &ReplayFileOptions {
                checkpoint: Some(CheckpointPlan {
                    path: cp_path.clone(),
                    every_intervals: CHECKPOINT_EVERY,
                    resume: true,
                }),
                ..Default::default()
            },
        )
        .expect("resumed replay");
    let wall_s = start.elapsed().as_secs_f64();
    let resumed_from = resumed.resumed_from.expect("a checkpoint must have landed");
    assert!(
        reports_bitwise_equal(cold, &resumed.report),
        "resumed replay diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&cp_path);
    let leg = TraceLeg {
        name: "resumed_replay",
        intervals: resumed.intervals_replayed - resumed_from,
        wall_s,
        digest: format!(
            "resumed_from={resumed_from} bitwise_equal=1 energy_j={}",
            digest_f64(resumed.report.energy_joules)
        ),
    };
    (leg, resumed_from)
}

/// Leg 4: a payload byte flipped in three chunks (bit rot) — the CRC
/// gate quarantines exactly those chunks, the index gaps account every
/// lost interval, and the replay finishes.
fn poisoned_leg(rt: &FlexWattsRuntime, path: &Path, total: u64) -> (TraceLeg, u64, u64) {
    let mut bytes = std::fs::read(path).expect("read benchmark file");
    let spans = frame_spans(&bytes).expect("pristine file maps cleanly");
    let chunks: Vec<_> = spans.iter().filter(|s| s.kind == FrameKind::Chunk).collect();
    assert!(chunks.len() > 6, "benchmark file must span many chunks");
    for pick in [1, chunks.len() / 2, chunks.len() - 2] {
        let span = chunks[pick];
        bytes[span.offset + span.len / 2] ^= 0xFF;
    }
    let poisoned_path = path.with_extension("poisoned.pdnt");
    std::fs::write(&poisoned_path, &bytes).expect("write poisoned file");

    let start = Instant::now();
    let report = rt
        .run_streaming(&poisoned_path, &ReplayFileOptions::default())
        .expect("quarantine replay never fails on chunk damage");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(report.chunks_quarantined, 3, "exactly the three torn chunks");
    assert_eq!(
        report.intervals_replayed + report.intervals_lost,
        total,
        "every interval must be replayed or accounted lost"
    );
    let _ = std::fs::remove_file(&poisoned_path);
    let mut defect_list: Vec<String> =
        report.defects.nonzero().map(|(kind, n)| format!("{}={n}", kind.name())).collect();
    defect_list.sort();
    let leg = TraceLeg {
        name: "poisoned_replay",
        intervals: report.intervals_replayed,
        wall_s,
        digest: format!(
            "replayed={} lost={} quarantined={} defects[{}] energy_j={}",
            report.intervals_replayed,
            report.intervals_lost,
            report.chunks_quarantined,
            defect_list.join(","),
            digest_f64(report.report.energy_joules)
        ),
    };
    (leg, report.chunks_quarantined, report.intervals_lost)
}

/// Runs all four legs over one freshly encoded zoo trace.
pub fn run(quick: bool) -> TraceBenchReport {
    let per_scenario = if quick { QUICK_PER_SCENARIO } else { FULL_PER_SCENARIO };
    let dir = ScratchDir::new();
    let path = dir.0.join("zoo.pdnt");
    let rt = runtime();

    let (encode, file_bytes) = encode_leg(&path, per_scenario);
    let total = encode.intervals;
    let (cold, cold_report) = cold_leg(&rt, &path);
    assert_eq!(cold.intervals, total);
    let (resumed, resumed_from) = resumed_leg(&rt, &path, &cold_report, total);
    let (poisoned, chunks_quarantined, intervals_lost) = poisoned_leg(&rt, &path, total);
    TraceBenchReport {
        legs: vec![encode, cold, resumed, poisoned],
        file_bytes,
        resumed_from,
        chunks_quarantined,
        intervals_lost,
    }
}

/// Renders the deterministic digest text (timings excluded).
pub fn render_digest(report: &TraceBenchReport) -> String {
    let mut out = String::from("Trace-ingestion kernels — deterministic result digests\n");
    for leg in &report.legs {
        out.push_str(&format!("[trace] leg={} {}\n", leg.name, leg.digest));
    }
    out
}

/// Renders the `BENCH_trace.json` document (schema `pdn-bench-trace/v1`).
pub fn render_json(report: &TraceBenchReport, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"pdn-bench-trace/v1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"file_bytes\": {},\n", report.file_bytes));
    out.push_str(&format!("  \"resumed_from\": {},\n", report.resumed_from));
    out.push_str(&format!("  \"chunks_quarantined\": {},\n", report.chunks_quarantined));
    out.push_str(&format!("  \"intervals_lost\": {},\n", report.intervals_lost));
    out.push_str("  \"legs\": [\n");
    for (i, leg) in report.legs.iter().enumerate() {
        let sep = if i + 1 < report.legs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"intervals\": {}, \"wall_s\": {:.6}, \
             \"intervals_per_sec\": {:.1}, \"digest\": \"{}\"}}{sep}\n",
            leg.name,
            leg.intervals,
            leg.wall_s,
            leg.intervals_per_sec(),
            leg.digest
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_nonzero_throughput_and_exact_accounting() {
        let report = run(true);
        assert_eq!(report.legs.len(), 4);
        for leg in &report.legs {
            assert!(leg.intervals > 0, "leg {} processed nothing", leg.name);
            assert!(leg.intervals_per_sec() > 0.0, "leg {} reports no throughput", leg.name);
        }
        assert_eq!(report.legs[0].intervals, 10_000);
        assert_eq!(report.chunks_quarantined, 3);
        assert_eq!(report.intervals_lost, 3 * CHUNK_CAPACITY as u64);
        assert!(report.resumed_from >= 4_000);
    }

    #[test]
    fn digests_are_run_to_run_deterministic() {
        let a = run(true);
        let b = run(true);
        assert_eq!(render_digest(&a), render_digest(&b));
    }

    #[test]
    fn json_shape_is_stable() {
        let report = run(true);
        let json = render_json(&report, true);
        assert!(json.contains("\"schema\": \"pdn-bench-trace/v1\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"name\": \"cold_replay\""));
        assert!(json.contains("\"intervals_per_sec\""));
    }
}
