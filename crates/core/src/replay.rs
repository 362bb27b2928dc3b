//! Streaming, checkpointed, crash-resumable trace replay.
//!
//! [`FlexWattsRuntime::run`] materialises a whole `Trace` in memory;
//! real-scale trace files (millions of intervals) stream instead: a
//! bounded-memory [`TraceReader`] feeds batches through the same serial
//! replay loop `run` uses, and a [`ReplayCheckpoint`] written crash-safely
//! with [`pdn_workload::codec::write_atomic`] captures the complete
//! replay state between intervals. A replay killed at any point resumes
//! from its last checkpoint and finishes with a
//! [`RuntimeReport`] **bitwise equal** to the uninterrupted run's: the
//! checkpoint stores every accumulator as raw `f64` bits, the sensor
//! bank's sample counter, and the mode/hysteresis state, so the resumed
//! run performs exactly the floating-point operations the cold run
//! would.
//!
//! Checkpoints are fingerprint-bound: an FNV-64 of the trace-file
//! header and one of the runtime configuration are stored inside, and a
//! checkpoint that does not match both is ignored (cold start) — a
//! stale or foreign checkpoint can never corrupt a replay. A damaged
//! checkpoint file likewise degrades to a cold start, never a panic.

use crate::runtime::{FlexWattsRuntime, ReplayState, RuntimeReport};
use crate::switchflow::SwitchTransition;
use crate::topology::PdnMode;
use pdn_pmu::{ActivitySensorBank, CStateDriver};
use pdn_units::Seconds;
use pdn_workload::codec::{
    crc32, split_crc, write_atomic, BodyReader, BodyWriter, DecodeError, Fnv1a,
};
use pdn_workload::tracefile::{DefectCounts, DefectPolicy, TraceFileError, TraceReader};
use pdn_workload::TraceInterval;
use pdnspot::batch::Workers;
use pdnspot::PdnError;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Checkpoint file magic: `"PDNC"`.
pub(crate) const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"PDNC");
/// Checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u16 = 1;

/// Fixed-size part of a checkpoint payload (everything before the
/// switch list).
const FIXED_LEN: usize = 8 /* magic+version+reserved */
    + 8 * 4  /* fingerprints, intervals_done, sensor_samples */
    + 1      /* mode */
    + 8 * 4  /* energy, oracle, total_time, since_eval */
    + 8 * 3  /* evaluations, correct, overrides */
    + 8 * 2  /* time_in_mode */
    + 8 * 2  /* driver transitions + transition time */
    + 4; /* switch count */
/// Encoded size of one switch record.
const SWITCH_LEN: usize = 2 + 8 * 3;

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be loaded or used. Every variant degrades
/// to a cold start — none is fatal to the replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointDefect {
    /// The file could not be read at all.
    Unreadable(io::ErrorKind),
    /// Fewer bytes than the declared structure.
    Truncated,
    /// The leading magic is not `PDNC`.
    BadMagic(u32),
    /// A version this build does not speak.
    UnsupportedVersion(u16),
    /// The CRC-32 trailer does not match the body.
    ChecksumMismatch {
        /// CRC the trailer declares.
        expected: u32,
        /// CRC computed over the body.
        found: u32,
    },
    /// Structurally inconsistent content.
    Malformed(&'static str),
    /// The checkpoint belongs to a different trace file or runtime
    /// configuration.
    Mismatch(&'static str),
}

impl fmt::Display for CheckpointDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointDefect::Unreadable(kind) => write!(f, "checkpoint unreadable: {kind:?}"),
            CheckpointDefect::Truncated => f.write_str("checkpoint truncated"),
            CheckpointDefect::BadMagic(m) => write!(f, "checkpoint bad magic {m:#010x}"),
            CheckpointDefect::UnsupportedVersion(v) => {
                write!(f, "checkpoint version {v} unsupported")
            }
            CheckpointDefect::ChecksumMismatch { expected, found } => {
                write!(f, "checkpoint checksum mismatch ({expected:#010x} vs {found:#010x})")
            }
            CheckpointDefect::Malformed(what) => write!(f, "checkpoint malformed: {what}"),
            CheckpointDefect::Mismatch(which) => {
                write!(f, "checkpoint belongs to a different {which}")
            }
        }
    }
}

impl std::error::Error for CheckpointDefect {}

/// The complete replay state between two intervals, ready to persist.
///
/// Floating-point accumulators are carried as exact values and encoded
/// as raw bits, so save → load → resume reproduces the uninterrupted
/// run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// FNV-64 of the trace file's header bytes.
    pub(crate) trace_fingerprint: u64,
    /// FNV-64 of the runtime configuration (seed, initial mode,
    /// protection, evaluation cadence, TDP).
    pub(crate) config_fingerprint: u64,
    /// Intervals fully replayed before this checkpoint.
    pub(crate) intervals_done: u64,
    /// Activity-sensor samples drawn so far (the jitter-stream cursor).
    pub(crate) sensor_samples: u64,
    /// Current PDN mode.
    pub(crate) mode: PdnMode,
    /// Energy ledger (joules).
    pub(crate) energy: f64,
    /// Oracle energy ledger (joules).
    pub(crate) oracle_energy: f64,
    /// Total simulated time.
    pub(crate) total_time: Seconds,
    /// Time since the last predictor evaluation.
    pub(crate) since_eval: Seconds,
    /// Predictor evaluations performed.
    pub(crate) evaluations: u64,
    /// Predictor decisions matching the oracle.
    pub(crate) correct_predictions: u64,
    /// Maximum-current protection overrides fired.
    pub(crate) protection_overrides: u64,
    /// Time in each mode, in [`PdnMode::ALL`] order.
    pub(crate) time_in_mode: [Seconds; 2],
    /// C-state driver transition count.
    pub(crate) driver_transitions: u64,
    /// C-state driver cumulative transition time.
    pub(crate) driver_transition_time: Seconds,
    /// Every executed mode switch so far.
    pub(crate) switches: Vec<SwitchTransition>,
}

fn mode_tag(mode: PdnMode) -> u8 {
    match mode {
        PdnMode::IvrMode => 0,
        PdnMode::LdoMode => 1,
    }
}

fn decode_mode(tag: u8) -> Option<PdnMode> {
    match tag {
        0 => Some(PdnMode::IvrMode),
        1 => Some(PdnMode::LdoMode),
        _ => None,
    }
}

impl From<DecodeError> for CheckpointDefect {
    fn from(_: DecodeError) -> Self {
        CheckpointDefect::Truncated
    }
}

impl ReplayCheckpoint {
    /// Serialises the checkpoint, CRC-32-trailed.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BodyWriter::with_capacity(FIXED_LEN + self.switches.len() * SWITCH_LEN + 4);
        w.u32(CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        w.u16(0); // reserved
        w.u64(self.trace_fingerprint);
        w.u64(self.config_fingerprint);
        w.u64(self.intervals_done);
        w.u64(self.sensor_samples);
        w.u8(mode_tag(self.mode));
        w.f64(self.energy);
        w.f64(self.oracle_energy);
        w.f64(self.total_time.get());
        w.f64(self.since_eval.get());
        w.u64(self.evaluations);
        w.u64(self.correct_predictions);
        w.u64(self.protection_overrides);
        for t in self.time_in_mode {
            w.f64(t.get());
        }
        w.u64(self.driver_transitions);
        w.f64(self.driver_transition_time.get());
        w.u32(self.switches.len() as u32);
        for s in &self.switches {
            w.u8(mode_tag(s.from));
            w.u8(mode_tag(s.to));
            w.f64(s.c6_entry.get());
            w.f64(s.vr_adjust.get());
            w.f64(s.c6_exit.get());
        }
        w.into_crc_trailed()
    }

    /// Decodes a checkpoint, verifying structure and CRC. Never panics
    /// on arbitrary bytes.
    ///
    /// # Errors
    ///
    /// A typed `CheckpointDefect` describing the first problem found.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointDefect> {
        if bytes.len() < FIXED_LEN + 4 {
            return Err(CheckpointDefect::Truncated);
        }
        let mut r = BodyReader::new(bytes);
        let magic = r.u32()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointDefect::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointDefect::UnsupportedVersion(version));
        }
        let (body, declared_crc) = split_crc(bytes)?;
        let actual_crc = crc32(body);
        if declared_crc != actual_crc {
            return Err(CheckpointDefect::ChecksumMismatch {
                expected: declared_crc,
                found: actual_crc,
            });
        }
        let mut r = BodyReader::new(body);
        r.take(8)?; // magic, version, reserved
        let seconds = |r: &mut BodyReader<'_>| r.f64().map(Seconds::new);
        let trace_fingerprint = r.u64()?;
        let config_fingerprint = r.u64()?;
        let intervals_done = r.u64()?;
        let sensor_samples = r.u64()?;
        let mode = decode_mode(r.u8()?).ok_or(CheckpointDefect::Malformed("mode tag"))?;
        let energy = r.f64()?;
        let oracle_energy = r.f64()?;
        let total_time = seconds(&mut r)?;
        let since_eval = seconds(&mut r)?;
        let evaluations = r.u64()?;
        let correct_predictions = r.u64()?;
        let protection_overrides = r.u64()?;
        let time_in_mode = [seconds(&mut r)?, seconds(&mut r)?];
        let driver_transitions = r.u64()?;
        let driver_transition_time = seconds(&mut r)?;
        let count = r.u32()? as usize;
        if r.remaining() != count * SWITCH_LEN {
            return Err(CheckpointDefect::Malformed("switch list length"));
        }
        let mut switches = Vec::with_capacity(count);
        for _ in 0..count {
            let from =
                decode_mode(r.u8()?).ok_or(CheckpointDefect::Malformed("switch from tag"))?;
            let to = decode_mode(r.u8()?).ok_or(CheckpointDefect::Malformed("switch to tag"))?;
            let c6_entry = seconds(&mut r)?;
            let vr_adjust = seconds(&mut r)?;
            let c6_exit = seconds(&mut r)?;
            switches.push(SwitchTransition { from, to, c6_entry, vr_adjust, c6_exit });
        }
        Ok(Self {
            trace_fingerprint,
            config_fingerprint,
            intervals_done,
            sensor_samples,
            mode,
            energy,
            oracle_energy,
            total_time,
            since_eval,
            evaluations,
            correct_predictions,
            protection_overrides,
            time_in_mode,
            driver_transitions,
            driver_transition_time,
            switches,
        })
    }

    /// Persists the checkpoint crash-safely with [`write_atomic`]: a
    /// crash mid-save leaves either the old checkpoint or the new one,
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// Any I/O failure along the way.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.encode())
    }

    /// Loads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// A typed `CheckpointDefect`; callers treat any of them as a
    /// cold start.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointDefect> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| CheckpointDefect::Unreadable(e.kind()))?;
        Self::decode(&bytes)
    }
}

/// FNV-64 fingerprint of everything that shapes a replay's arithmetic:
/// sensor seed, boot mode, protection flag, evaluation cadence, and the
/// SoC's TDP. Two runtimes with equal fingerprints replay a trace
/// identically, so a checkpoint from one resumes on the other.
pub(crate) fn runtime_fingerprint(rt: &FlexWattsRuntime) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(rt.config.sensor_seed);
    h.u8(mode_tag(rt.config.initial_mode));
    h.u8(u8::from(rt.config.max_current_protection));
    h.f64(rt.predictor.evaluation_interval().get());
    h.f64(rt.soc.tdp.get());
    h.finish()
}

// ---------------------------------------------------------------------------
// Replayer
// ---------------------------------------------------------------------------

/// Incremental trace replayer: feed interval batches, checkpoint
/// between them, seal into a [`RuntimeReport`].
///
/// Batches fan the pure per-interval preparation out on the batch
/// engine ([`Workers`]); the stateful pass replays serially in order,
/// so the report is bit-identical for any worker count — and, because
/// it owns a dedicated sensor bank whose cursor is checkpointed, a
/// resumed replayer continues the exact jitter stream of the original.
#[derive(Debug)]
pub struct TraceReplayer<'rt> {
    rt: &'rt FlexWattsRuntime,
    sensors: ActivitySensorBank,
    state: ReplayState,
    workers: Workers,
    intervals_done: u64,
}

impl<'rt> TraceReplayer<'rt> {
    /// A cold replayer at the runtime's boot state.
    pub fn new(rt: &'rt FlexWattsRuntime, workers: Workers) -> Self {
        Self {
            sensors: ActivitySensorBank::resume(rt.config.sensor_seed, 0),
            state: ReplayState::new(rt),
            workers,
            intervals_done: 0,
            rt,
        }
    }

    /// Restores a replayer from a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointDefect::Mismatch`] when the checkpoint was taken
    /// under a different runtime configuration.
    pub(crate) fn resume(
        rt: &'rt FlexWattsRuntime,
        workers: Workers,
        checkpoint: &ReplayCheckpoint,
    ) -> Result<Self, CheckpointDefect> {
        if checkpoint.config_fingerprint != runtime_fingerprint(rt) {
            return Err(CheckpointDefect::Mismatch("runtime configuration"));
        }
        let mut state = ReplayState::new(rt);
        state.mode = checkpoint.mode;
        state.energy = checkpoint.energy;
        state.oracle_energy = checkpoint.oracle_energy;
        state.total_time = checkpoint.total_time;
        state.since_eval = checkpoint.since_eval;
        state.evaluations = checkpoint.evaluations;
        state.correct_predictions = checkpoint.correct_predictions;
        state.protection_overrides = checkpoint.protection_overrides;
        for (mode, t) in PdnMode::ALL.into_iter().zip(checkpoint.time_in_mode) {
            state.time_in_mode.insert(mode, t);
        }
        state.driver =
            CStateDriver::resume(checkpoint.driver_transitions, checkpoint.driver_transition_time);
        state.switches = checkpoint.switches.clone();
        Ok(Self {
            sensors: ActivitySensorBank::resume(rt.config.sensor_seed, checkpoint.sensor_samples),
            state,
            workers,
            intervals_done: checkpoint.intervals_done,
            rt,
        })
    }

    /// Intervals fully replayed so far.
    pub fn intervals_done(&self) -> u64 {
        self.intervals_done
    }

    /// Replays a batch: the pure preparation runs row-batched on the
    /// worker pool (`FlexWattsRuntime::prepare_batch`), then the
    /// stateful pass runs serially in order.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors. A batch whose preparation
    /// fails replays none of its intervals.
    pub fn feed(&mut self, intervals: &[TraceInterval]) -> Result<(), PdnError> {
        let prepared = self.rt.prepare_batch(intervals, self.workers)?;
        for (interval, prep) in intervals.iter().zip(&prepared) {
            self.state.step(self.rt, &self.sensors, interval, prep)?;
            self.intervals_done += 1;
        }
        Ok(())
    }

    /// Snapshots the complete replay state, bound to a trace file's
    /// header fingerprint.
    pub fn checkpoint(&self, trace_fingerprint: u64) -> ReplayCheckpoint {
        ReplayCheckpoint {
            trace_fingerprint,
            config_fingerprint: runtime_fingerprint(self.rt),
            intervals_done: self.intervals_done,
            sensor_samples: self.sensors.samples_taken(),
            mode: self.state.mode,
            energy: self.state.energy,
            oracle_energy: self.state.oracle_energy,
            total_time: self.state.total_time,
            since_eval: self.state.since_eval,
            evaluations: self.state.evaluations,
            correct_predictions: self.state.correct_predictions,
            protection_overrides: self.state.protection_overrides,
            time_in_mode: [
                self.state.time_in_mode[&PdnMode::ALL[0]],
                self.state.time_in_mode[&PdnMode::ALL[1]],
            ],
            driver_transitions: self.state.driver.transitions(),
            driver_transition_time: self.state.driver.total_transition_time(),
            switches: self.state.switches.clone(),
        }
    }

    /// Seals the replay into a report.
    pub fn finish(self) -> RuntimeReport {
        self.state.finish()
    }
}

// ---------------------------------------------------------------------------
// File replay
// ---------------------------------------------------------------------------

/// Errors from a streaming file replay.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace file could not be read (I/O, damaged header, or a
    /// defect under the strict policy).
    Trace(TraceFileError),
    /// A PDN evaluation failed.
    Pdn(PdnError),
    /// A checkpoint could not be *saved* (loads never fail a replay —
    /// they degrade to a cold start).
    Checkpoint(io::Error),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "trace replay failed: {e}"),
            ReplayError::Pdn(e) => write!(f, "trace replay evaluation failed: {e}"),
            ReplayError::Checkpoint(e) => write!(f, "checkpoint save failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Pdn(e) => Some(e),
            ReplayError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<TraceFileError> for ReplayError {
    fn from(e: TraceFileError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<PdnError> for ReplayError {
    fn from(e: PdnError) -> Self {
        ReplayError::Pdn(e)
    }
}

/// Periodic checkpointing plan for [`replay_trace_file`].
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Where the checkpoint lives.
    pub path: PathBuf,
    /// Write a checkpoint after at least this many intervals since the
    /// last one (0 disables periodic writes).
    pub every_intervals: u64,
    /// Try to resume from an existing checkpoint at `path`. Any
    /// problem with it — damage, wrong trace, wrong configuration —
    /// silently degrades to a cold start.
    pub resume: bool,
}

/// Options for [`replay_trace_file`].
#[derive(Debug, Clone)]
pub struct ReplayFileOptions {
    /// Worker pool for the pure preparation fan-out (the report is
    /// bit-identical for any choice).
    pub workers: Workers,
    /// What to do about damaged chunks.
    pub policy: DefectPolicy,
    /// Intervals per prepare/replay batch (bounds memory).
    pub batch_intervals: usize,
    /// Optional periodic checkpointing.
    pub checkpoint: Option<CheckpointPlan>,
}

impl Default for ReplayFileOptions {
    fn default() -> Self {
        Self {
            workers: Workers::Auto,
            policy: DefectPolicy::Quarantine,
            batch_intervals: 4096,
            checkpoint: None,
        }
    }
}

/// The outcome of a streaming file replay: the runtime report plus the
/// reader's defect accounting and the checkpoint/resume bookkeeping.
#[derive(Debug, Clone)]
pub struct FileReplayReport {
    /// The runtime report (bitwise equal to an in-memory
    /// [`FlexWattsRuntime::run`] of the same intervals).
    pub report: RuntimeReport,
    /// Per-kind defect counts encountered by the reader.
    pub defects: DefectCounts,
    /// Intervals decoded and replayed.
    pub intervals_replayed: u64,
    /// Intervals known lost to quarantined frames.
    pub intervals_lost: u64,
    /// Chunks quarantined.
    pub chunks_quarantined: u64,
    /// `Some(n)` when the replay resumed from a checkpoint taken after
    /// `n` intervals.
    pub resumed_from: Option<u64>,
}

/// Streams a trace file through the runtime with bounded memory,
/// optionally checkpointing and resuming.
///
/// The resumed half of an interrupted replay re-reads the file from the
/// start (re-accounting defects exactly as a cold run would) but skips
/// the already-replayed intervals, so the final [`FileReplayReport`] —
/// report, defect counts, everything — is bitwise equal to an
/// uninterrupted replay.
///
/// # Errors
///
/// `ReplayError::Trace` on I/O or (strict policy) decode defects,
/// `ReplayError::Pdn` on evaluation failures, and
/// `ReplayError::Checkpoint` when a checkpoint cannot be saved.
pub fn replay_trace_file(
    rt: &FlexWattsRuntime,
    path: impl AsRef<Path>,
    options: &ReplayFileOptions,
) -> Result<FileReplayReport, ReplayError> {
    let path = path.as_ref();
    let mut reader = TraceReader::open(path, options.policy)?;
    let trace_fingerprint = reader.fingerprint();

    let mut replayer = TraceReplayer::new(rt, options.workers);
    let mut resumed_from = None;
    if let Some(plan) = &options.checkpoint {
        if plan.resume {
            if let Some((restored, skip)) =
                try_resume(rt, options.workers, &plan.path, trace_fingerprint)
            {
                // Skip what the checkpoint already replayed; if the file
                // got shorter than the checkpoint claims, fall back to a
                // cold start on a fresh reader.
                if reader.skip_intervals(skip)? == skip {
                    replayer = restored;
                    resumed_from = Some(skip);
                } else {
                    reader = TraceReader::open(path, options.policy)?;
                    replayer = TraceReplayer::new(rt, options.workers);
                }
            }
        }
    }

    let batch_size = options.batch_intervals.max(1);
    let mut batch = Vec::with_capacity(batch_size);
    let mut last_checkpoint = resumed_from.unwrap_or(0);
    loop {
        batch.clear();
        while batch.len() < batch_size {
            match reader.next_interval()? {
                Some(interval) => batch.push(interval),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        replayer.feed(&batch)?;
        if let Some(plan) = &options.checkpoint {
            if plan.every_intervals > 0
                && replayer.intervals_done() - last_checkpoint >= plan.every_intervals
            {
                replayer
                    .checkpoint(trace_fingerprint)
                    .save(&plan.path)
                    .map_err(ReplayError::Checkpoint)?;
                last_checkpoint = replayer.intervals_done();
            }
        }
    }

    let intervals_replayed = reader.intervals_emitted();
    Ok(FileReplayReport {
        report: replayer.finish(),
        defects: *reader.defects(),
        intervals_replayed,
        intervals_lost: reader.intervals_lost(),
        chunks_quarantined: reader.chunks_quarantined(),
        resumed_from,
    })
}

/// Loads and verifies a checkpoint for resuming; `None` = cold start.
fn try_resume<'rt>(
    rt: &'rt FlexWattsRuntime,
    workers: Workers,
    path: &Path,
    trace_fingerprint: u64,
) -> Option<(TraceReplayer<'rt>, u64)> {
    let checkpoint = ReplayCheckpoint::load(path).ok()?;
    if checkpoint.trace_fingerprint != trace_fingerprint {
        return None;
    }
    let skip = checkpoint.intervals_done;
    let replayer = TraceReplayer::resume(rt, workers, &checkpoint).ok()?;
    Some((replayer, skip))
}

impl FlexWattsRuntime {
    /// Streams a trace file through the runtime — the bounded-memory
    /// counterpart of [`FlexWattsRuntime::run`]. See
    /// [`replay_trace_file`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`replay_trace_file`].
    pub fn run_streaming(
        &self,
        path: impl AsRef<Path>,
        options: &ReplayFileOptions,
    ) -> Result<FileReplayReport, ReplayError> {
        replay_trace_file(self, path, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ModePredictor;
    use crate::runtime::RuntimeConfig;
    use pdn_proc::client_soc;
    use pdn_units::Watts;
    use pdn_workload::codec::ScratchDir;
    use pdn_workload::tracefile::write_trace_chunked;
    use pdn_workload::zoo;
    use pdnspot::ModelParams;

    fn runtime(tdp: f64) -> FlexWattsRuntime {
        let predictor = ModePredictor::train(
            &ModelParams::paper_defaults(),
            &[4.0, 10.0, 18.0, 25.0, 50.0],
            &[0.4, 0.6, 0.8],
        )
        .unwrap();
        FlexWattsRuntime::new(
            client_soc(Watts::new(tdp)),
            ModelParams::paper_defaults(),
            predictor,
            RuntimeConfig::default(),
        )
    }

    fn temp_dir(tag: &str) -> ScratchDir {
        ScratchDir::new(&format!("flexwatts-replay-{tag}")).expect("scratch dir")
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

    #[test]
    fn streaming_replay_matches_in_memory_run_bitwise() {
        let dir = temp_dir("stream");
        let trace = zoo::zoo_mix(5, 30);
        let path = dir.path().join("mix.pdnt");
        write_trace_chunked(&path, &trace, 32).unwrap();

        let rt = runtime(18.0);
        // run() consumes the runtime's shared sensor bank from sample 0;
        // the streaming replayer owns a fresh bank with the same seed,
        // so both see the identical jitter stream.
        let in_memory = rt.run(&trace).unwrap();
        let streamed = rt
            .run_streaming(&path, &ReplayFileOptions { batch_intervals: 17, ..Default::default() })
            .unwrap();
        assert!(reports_bitwise_equal(&in_memory, &streamed.report));
        assert_eq!(streamed.intervals_replayed, 120);
        assert_eq!(streamed.defects.total(), 0);
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let trace = zoo::zoo_mix(9, 20);
        let path = dir.path().join("mix.pdnt");
        write_trace_chunked(&path, &trace, 16).unwrap();
        let rt = runtime(18.0);

        let mut replayer = TraceReplayer::new(&rt, Workers::Serial);
        replayer.feed(&trace.intervals()[..50]).unwrap();
        let cp = replayer.checkpoint(0xDEAD_BEEF);
        let decoded = ReplayCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);

        let cp_path = dir.path().join("replay.pdnc");
        cp.save(&cp_path).unwrap();
        assert_eq!(ReplayCheckpoint::load(&cp_path).unwrap(), cp);
    }

    #[test]
    fn interrupted_replay_resumes_bit_identical() {
        let dir = temp_dir("resume");
        let trace = zoo::zoo_mix(3, 40);
        let path = dir.path().join("mix.pdnt");
        write_trace_chunked(&path, &trace, 32).unwrap();
        let rt = runtime(18.0);

        let cold = rt.run_streaming(&path, &ReplayFileOptions::default()).unwrap();

        // Simulate a crash: replay 70 intervals with a checkpoint every
        // 25, then drop the replayer on the floor.
        let cp_path = dir.path().join("replay.pdnc");
        {
            let mut reader = TraceReader::open(&path, DefectPolicy::Quarantine).unwrap();
            let fp = reader.fingerprint();
            let mut replayer = TraceReplayer::new(&rt, Workers::Fixed(3));
            let mut fed = Vec::new();
            for _ in 0..70 {
                fed.push(reader.next_interval().unwrap().unwrap());
                if fed.len() == 25 {
                    replayer.feed(&fed).unwrap();
                    fed.clear();
                    replayer.checkpoint(fp).save(&cp_path).unwrap();
                }
            }
            replayer.feed(&fed).unwrap();
            // ...crash: no finish, no final checkpoint.
        }

        let resumed = rt
            .run_streaming(
                &path,
                &ReplayFileOptions {
                    checkpoint: Some(CheckpointPlan {
                        path: cp_path.clone(),
                        every_intervals: 25,
                        resume: true,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(resumed.resumed_from, Some(50), "two checkpoints landed before the crash");
        assert!(
            reports_bitwise_equal(&cold.report, &resumed.report),
            "resumed replay must be bitwise equal to the uninterrupted one"
        );
        assert_eq!(resumed.intervals_replayed, cold.intervals_replayed);
    }

    #[test]
    fn damaged_or_foreign_checkpoints_degrade_to_cold_start() {
        let dir = temp_dir("degrade");
        let trace = zoo::zoo_mix(7, 15);
        let path = dir.path().join("mix.pdnt");
        write_trace_chunked(&path, &trace, 16).unwrap();
        let rt = runtime(18.0);
        let cp_path = dir.path().join("replay.pdnc");

        let options = ReplayFileOptions {
            checkpoint: Some(CheckpointPlan {
                path: cp_path.clone(),
                every_intervals: 0,
                resume: true,
            }),
            ..Default::default()
        };
        let cold = rt.run_streaming(&path, &options).unwrap();
        assert_eq!(cold.resumed_from, None, "no checkpoint file yet");

        // A checkpoint bound to a *different* trace fingerprint.
        let mut replayer = TraceReplayer::new(&rt, Workers::Serial);
        replayer.feed(&trace.intervals()[..10]).unwrap();
        replayer.checkpoint(0x1234).save(&cp_path).unwrap();
        let run = rt.run_streaming(&path, &options).unwrap();
        assert_eq!(run.resumed_from, None, "foreign checkpoint must be ignored");
        assert!(reports_bitwise_equal(&cold.report, &run.report));

        // Bit-flipped checkpoint bytes.
        let fp = TraceReader::open(&path, DefectPolicy::Quarantine).unwrap().fingerprint();
        let mut replayer = TraceReplayer::new(&rt, Workers::Serial);
        replayer.feed(&trace.intervals()[..10]).unwrap();
        let mut bytes = replayer.checkpoint(fp).encode();
        bytes[FIXED_LEN / 2] ^= 0x10;
        std::fs::write(&cp_path, &bytes).unwrap();
        let run = rt.run_streaming(&path, &options).unwrap();
        assert_eq!(run.resumed_from, None, "damaged checkpoint must be ignored");
        assert!(reports_bitwise_equal(&cold.report, &run.report));

        // Truncated / garbage files never panic.
        for garbage in [&b""[..], &b"PDNC"[..], &[0xFF; 64][..]] {
            std::fs::write(&cp_path, garbage).unwrap();
            let run = rt.run_streaming(&path, &options).unwrap();
            assert_eq!(run.resumed_from, None);
        }
    }

    #[test]
    fn checkpoint_decode_never_panics_on_mutations() {
        let rt = runtime(18.0);
        let trace = zoo::zoo_mix(2, 10);
        let mut replayer = TraceReplayer::new(&rt, Workers::Serial);
        replayer.feed(trace.intervals()).unwrap();
        let bytes = replayer.checkpoint(1).encode();
        for cut in 0..bytes.len() {
            let _ = ReplayCheckpoint::decode(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xA5;
            let _ = ReplayCheckpoint::decode(&mutated);
        }
    }

    #[test]
    fn quarantined_file_still_replays_with_accounting() {
        use pdn_workload::tracefile::{encode_trace, frame_spans, DefectKind, FrameKind};
        let dir = temp_dir("quarantine");
        let trace = zoo::zoo_mix(4, 32); // 128 intervals
        let mut bytes = encode_trace(&trace, 16).unwrap();
        let spans = frame_spans(&bytes).unwrap();
        let chunk = spans.iter().filter(|s| s.kind == FrameKind::Chunk).nth(2).unwrap();
        bytes[chunk.offset + 24] ^= 0x08;
        let path = dir.path().join("poisoned.pdnt");
        std::fs::write(&path, &bytes).unwrap();

        let rt = runtime(18.0);
        let report = rt.run_streaming(&path, &ReplayFileOptions::default()).unwrap();
        assert_eq!(report.chunks_quarantined, 1);
        assert_eq!(report.intervals_lost, 16);
        assert_eq!(report.intervals_replayed, 112);
        assert_eq!(report.defects.count(DefectKind::ChecksumMismatch), 1);
        assert!(report.report.energy_joules > 0.0);

        // Strict policy refuses the same file.
        let strict = rt.run_streaming(
            &path,
            &ReplayFileOptions { policy: DefectPolicy::Strict, ..Default::default() },
        );
        assert!(matches!(strict, Err(ReplayError::Trace(TraceFileError::Defect(_)))));
    }
}
