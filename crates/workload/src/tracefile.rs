//! Crash-tolerant chunked binary power-trace files.
//!
//! Real-scale power traces (§7 of the paper; PAPERS.md arXiv:2605.17182)
//! run to millions of intervals and are produced by flaky external
//! toolchains, so this format is built to be decoded defensively: a
//! trace file is a CRC-trailed header followed by fixed-capacity chunk
//! frames of SoA interval columns, each frame CRC-32-trailed and
//! independently decodable, closed by a footer that declares the total
//! interval count. A damaged chunk never takes down the file — the
//! [`TraceReader`] classifies every problem into a closed
//! [`ChunkDefect`] taxonomy and, under [`DefectPolicy::Quarantine`],
//! skips the damaged frame, resynchronises on the next frame magic, and
//! accounts the skipped intervals; under [`DefectPolicy::Strict`] the
//! first defect is fatal.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! header  := "PDNT" u16 version  u16 flags  u32 chunk_capacity
//!            u32 name_len  name_bytes  u32 crc32(header bytes so far)
//! chunk   := "CHNK" u32 payload_len  payload  u32 crc32(payload)
//! payload := u64 first_index  u32 count
//!            u64 duration_bits × count   (f64 bit patterns, SoA)
//!            u8  phase_tag     × count
//!            u64 ar_bits       × count   (f64 bit patterns)
//! footer  := "TEND" u32 payload_len(16)
//!            u64 total_intervals  u64 total_duration_bits  u32 crc32
//! ```
//!
//! Durations and application ratios are stored as raw `f64` bit
//! patterns, so encode → decode round-trips are bit-exact. Phase tags
//! pack the discriminant into one byte (`0x00..=0x05` = idle C-state in
//! [`PackageCState::ALL`] order, `0x10..=0x13` = active workload type).
//! Chunks carry their absolute first interval index so a reader that
//! quarantined a frame can tell exactly how many intervals went missing
//! ([`ChunkDefect::IndexGap`]).

use crate::codec::{crc32, fnv1a64, le_u64s, BodyReader, BodyWriter};
use crate::trace::{Phase, Trace, TraceInterval, WorkloadType};
use pdn_proc::PackageCState;
use pdn_units::{ApplicationRatio, Seconds, UnitsError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic: `"PDNT"` interpreted as a little-endian `u32`.
pub(crate) const FILE_MAGIC: u32 = u32::from_le_bytes(*b"PDNT");
/// Chunk-frame magic: `"CHNK"`.
pub(crate) const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"CHNK");
/// Footer magic: `"TEND"`.
pub(crate) const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"TEND");
/// Current format version.
pub(crate) const VERSION: u16 = 1;
/// Bytes per interval inside a chunk payload (u64 duration bits +
/// u8 phase tag + u64 AR bits).
pub const BYTES_PER_INTERVAL: usize = 17;
/// Hard upper bound on the per-chunk interval count; payloads that
/// declare more are [`ChunkDefect::Oversized`]. Bounds reader memory at
/// ~1.1 MiB regardless of what the file claims.
pub const MAX_CHUNK_INTERVALS: usize = 1 << 16;
/// Longest permitted trace name in the header.
pub(crate) const MAX_NAME: usize = 4096;

/// Fixed payload prefix: `first_index` (u64) + `count` (u32).
const CHUNK_PREFIX: usize = 12;
/// Largest payload length a well-formed chunk can declare.
const MAX_PAYLOAD: usize = CHUNK_PREFIX + MAX_CHUNK_INTERVALS * BYTES_PER_INTERVAL;
/// Frame prefix: magic (u32) + payload length (u32).
const FRAME_PREFIX: usize = 8;
/// Footer payload: total_intervals (u64) + total_duration_bits (u64).
const FOOTER_PAYLOAD: usize = 16;
/// Read granularity for the streaming reader.
const READ_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Defect taxonomy
// ---------------------------------------------------------------------------

/// Everything that can be wrong with a chunk frame (or the stream
/// structure around it). A closed taxonomy, like `FaultCampaignReport`:
/// every decode failure maps to exactly one variant, so a quarantining
/// replay can report exact per-kind counts.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkDefect {
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Byte offset where the incomplete frame starts.
        at: u64,
    },
    /// Four bytes where a frame magic should be are neither `CHNK` nor
    /// `TEND`.
    BadMagic {
        /// Byte offset of the bad magic.
        at: u64,
        /// The four bytes found, as a little-endian `u32`.
        found: u32,
    },
    /// A chunk declared a payload longer than [`MAX_CHUNK_INTERVALS`]
    /// intervals can occupy.
    Oversized {
        /// Byte offset of the frame.
        at: u64,
        /// The declared payload length.
        declared: u64,
    },
    /// The payload CRC-32 trailer does not match the payload.
    ChecksumMismatch {
        /// Byte offset of the frame.
        at: u64,
        /// CRC the trailer declares.
        expected: u32,
        /// CRC computed over the payload bytes.
        found: u32,
    },
    /// The payload passed its CRC but its internal structure is wrong
    /// (length/count mismatch, unknown phase tag, bad footer shape).
    Malformed {
        /// Byte offset of the frame.
        at: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// A decoded interval fails `TraceInterval::validate` — e.g. a NaN
    /// duration or an out-of-range application ratio smuggled in via raw
    /// bits.
    InvalidInterval {
        /// Byte offset of the frame containing the interval.
        at: u64,
        /// The violated invariant.
        source: UnitsError,
    },
    /// A good chunk's `first_index` is not the next expected interval —
    /// the quarantined frames in between lost `found - expected`
    /// intervals.
    IndexGap {
        /// The interval index the reader expected next.
        expected: u64,
        /// The index the chunk actually starts at.
        found: u64,
    },
    /// The stream ended at a clean frame boundary without a footer
    /// (e.g. the writer crashed before `finish`).
    MissingFooter,
    /// The footer's declared total does not match the intervals the
    /// reader emitted plus the intervals it knows it lost.
    FooterMismatch {
        /// Total intervals the footer declares.
        declared: u64,
        /// Intervals actually emitted by this reader.
        replayed: u64,
    },
}

impl ChunkDefect {
    /// The taxonomy bucket this defect belongs to.
    pub(crate) fn kind(&self) -> DefectKind {
        match self {
            ChunkDefect::Truncated { .. } => DefectKind::Truncated,
            ChunkDefect::BadMagic { .. } => DefectKind::BadMagic,
            ChunkDefect::Oversized { .. } => DefectKind::Oversized,
            ChunkDefect::ChecksumMismatch { .. } => DefectKind::ChecksumMismatch,
            ChunkDefect::Malformed { .. } => DefectKind::Malformed,
            ChunkDefect::InvalidInterval { .. } => DefectKind::InvalidInterval,
            ChunkDefect::IndexGap { .. } => DefectKind::IndexGap,
            ChunkDefect::MissingFooter => DefectKind::MissingFooter,
            ChunkDefect::FooterMismatch { .. } => DefectKind::FooterMismatch,
        }
    }
}

impl fmt::Display for ChunkDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkDefect::Truncated { at } => write!(f, "stream truncated mid-frame at byte {at}"),
            ChunkDefect::BadMagic { at, found } => {
                write!(f, "bad frame magic {found:#010x} at byte {at}")
            }
            ChunkDefect::Oversized { at, declared } => {
                write!(f, "chunk at byte {at} declares oversized payload of {declared} bytes")
            }
            ChunkDefect::ChecksumMismatch { at, expected, found } => write!(
                f,
                "chunk at byte {at} checksum mismatch (trailer {expected:#010x}, payload {found:#010x})"
            ),
            ChunkDefect::Malformed { at, what } => write!(f, "malformed frame at byte {at}: {what}"),
            ChunkDefect::InvalidInterval { at, source } => {
                write!(f, "invalid interval in chunk at byte {at}: {source}")
            }
            ChunkDefect::IndexGap { expected, found } => {
                write!(f, "interval index gap: expected {expected}, chunk starts at {found}")
            }
            ChunkDefect::MissingFooter => f.write_str("stream ended without a footer"),
            ChunkDefect::FooterMismatch { declared, replayed } => {
                write!(f, "footer declares {declared} intervals, replayed {replayed}")
            }
        }
    }
}

impl std::error::Error for ChunkDefect {}

/// The closed set of defect buckets — one per [`ChunkDefect`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DefectKind {
    /// Stream ended mid-frame.
    Truncated,
    /// Unknown frame magic.
    BadMagic,
    /// Payload length beyond the format bound.
    Oversized,
    /// CRC trailer mismatch.
    ChecksumMismatch,
    /// Structurally inconsistent payload.
    Malformed,
    /// Decoded interval violates trace invariants.
    InvalidInterval,
    /// Interval indices skipped by quarantined frames.
    IndexGap,
    /// No footer at end of stream.
    MissingFooter,
    /// Footer total disagrees with replayed intervals.
    FooterMismatch,
}

impl DefectKind {
    /// Every bucket, in declaration order.
    pub(crate) const ALL: [DefectKind; 9] = [
        DefectKind::Truncated,
        DefectKind::BadMagic,
        DefectKind::Oversized,
        DefectKind::ChecksumMismatch,
        DefectKind::Malformed,
        DefectKind::InvalidInterval,
        DefectKind::IndexGap,
        DefectKind::MissingFooter,
        DefectKind::FooterMismatch,
    ];

    /// Stable snake_case name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            DefectKind::Truncated => "truncated",
            DefectKind::BadMagic => "bad_magic",
            DefectKind::Oversized => "oversized",
            DefectKind::ChecksumMismatch => "checksum_mismatch",
            DefectKind::Malformed => "malformed",
            DefectKind::InvalidInterval => "invalid_interval",
            DefectKind::IndexGap => "index_gap",
            DefectKind::MissingFooter => "missing_footer",
            DefectKind::FooterMismatch => "footer_mismatch",
        }
    }

    fn index(self) -> usize {
        DefectKind::ALL.iter().position(|k| *k == self).unwrap_or(0)
    }
}

/// Per-kind defect counters accumulated by a quarantining reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefectCounts {
    counts: [u64; DefectKind::ALL.len()],
}

impl DefectCounts {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one defect.
    pub(crate) fn record(&mut self, defect: &ChunkDefect) {
        self.counts[defect.kind().index()] += 1;
    }

    /// The count for one bucket.
    pub fn count(&self, kind: DefectKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total defects across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind, count)` pairs for the non-zero buckets.
    pub fn nonzero(&self) -> impl Iterator<Item = (DefectKind, u64)> + '_ {
        DefectKind::ALL.into_iter().map(|k| (k, self.count(k))).filter(|(_, n)| *n > 0)
    }
}

impl fmt::Display for DefectCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total() == 0 {
            return f.write_str("clean");
        }
        let mut first = true;
        for (kind, n) in self.nonzero() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{}={n}", kind.name())?;
            first = false;
        }
        Ok(())
    }
}

/// What a reader does when it hits a [`ChunkDefect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefectPolicy {
    /// Any defect is fatal ([`TraceFileError::Defect`]).
    Strict,
    /// Skip the damaged frame, resynchronise on the next frame magic,
    /// account the defect, and keep streaming.
    #[default]
    Quarantine,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Fatal errors from reading or writing a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file header itself is damaged — always fatal, since nothing
    /// after an untrusted header can be interpreted.
    Header(ChunkDefect),
    /// A chunk defect under [`DefectPolicy::Strict`].
    Defect(ChunkDefect),
    /// An interval handed to the writer violates trace invariants.
    Invalid(UnitsError),
    /// The header declares a format version this reader does not speak.
    Unsupported {
        /// The declared version.
        version: u16,
    },
    /// A configuration value out of the format's bounds (e.g. a chunk
    /// capacity of zero).
    Config(&'static str),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::Header(d) => write!(f, "trace file header damaged: {d}"),
            TraceFileError::Defect(d) => write!(f, "trace file defect (strict policy): {d}"),
            TraceFileError::Invalid(e) => write!(f, "invalid interval for trace file: {e}"),
            TraceFileError::Unsupported { version } => {
                write!(f, "unsupported trace file version {version}")
            }
            TraceFileError::Config(what) => write!(f, "invalid trace file configuration: {what}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            TraceFileError::Header(d) | TraceFileError::Defect(d) => Some(d),
            TraceFileError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<UnitsError> for TraceFileError {
    fn from(e: UnitsError) -> Self {
        TraceFileError::Invalid(e)
    }
}

// ---------------------------------------------------------------------------
// Phase tag codec
// ---------------------------------------------------------------------------

const TAG_ACTIVE: u8 = 0x10;

fn cstate_tag(state: PackageCState) -> u8 {
    match state {
        PackageCState::C0Min => 0,
        PackageCState::C2 => 1,
        PackageCState::C3 => 2,
        PackageCState::C6 => 3,
        PackageCState::C7 => 4,
        PackageCState::C8 => 5,
    }
}

fn phase_tag(phase: Phase) -> u8 {
    match phase {
        Phase::Idle(state) => cstate_tag(state),
        Phase::Active { workload_type, .. } => TAG_ACTIVE | workload_type.tag(),
    }
}

fn decode_cstate(tag: u8) -> Option<PackageCState> {
    PackageCState::ALL.get(usize::from(tag)).copied()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming trace-file writer: buffers intervals into fixed-capacity
/// chunks, CRC-trails each chunk, and closes the stream with a footer.
///
/// Every pushed interval is validated (`TraceInterval::validate`), so
/// a file this writer produces never contains an interval the reader
/// would quarantine.
#[derive(Debug)]
pub struct TraceFileWriter<W: Write> {
    sink: W,
    chunk_capacity: usize,
    pending: Vec<TraceInterval>,
    next_index: u64,
    total_intervals: u64,
    total_duration: f64,
}

impl<W: Write> TraceFileWriter<W> {
    /// Starts a trace file on `sink`, writing the header immediately.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Config`] for a zero or over-bound chunk
    /// capacity or an over-long name; [`TraceFileError::Io`] if the
    /// header write fails.
    pub fn new(mut sink: W, name: &str, chunk_capacity: usize) -> Result<Self, TraceFileError> {
        if chunk_capacity == 0 {
            return Err(TraceFileError::Config("chunk capacity must be nonzero"));
        }
        if chunk_capacity > MAX_CHUNK_INTERVALS {
            return Err(TraceFileError::Config("chunk capacity exceeds MAX_CHUNK_INTERVALS"));
        }
        if name.len() > MAX_NAME {
            return Err(TraceFileError::Config("trace name exceeds MAX_NAME bytes"));
        }
        let header = encode_header(name, chunk_capacity as u32);
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            chunk_capacity,
            pending: Vec::with_capacity(chunk_capacity),
            next_index: 0,
            total_intervals: 0,
            total_duration: 0.0,
        })
    }

    /// Appends one interval, flushing a chunk frame when the pending
    /// buffer reaches the chunk capacity.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Invalid`] if the interval violates trace
    /// invariants; [`TraceFileError::Io`] on write failure.
    pub(crate) fn push(&mut self, interval: TraceInterval) -> Result<(), TraceFileError> {
        interval.validate()?;
        self.pending.push(interval);
        self.total_intervals += 1;
        self.total_duration += interval.duration.get();
        if self.pending.len() >= self.chunk_capacity {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every interval of `trace`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceFileWriter::push`].
    pub(crate) fn push_trace(&mut self, trace: &Trace) -> Result<(), TraceFileError> {
        for interval in trace.intervals() {
            self.push(*interval)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let frame = encode_chunk(self.next_index, &self.pending);
        self.sink.write_all(&frame)?;
        self.next_index += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the footer, and returns
    /// the underlying sink.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Io`] on write or flush failure.
    pub(crate) fn finish(mut self) -> Result<W, TraceFileError> {
        self.flush_chunk()?;
        let footer = encode_footer(self.total_intervals, self.total_duration);
        self.sink.write_all(&footer)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn encode_header(name: &str, chunk_capacity: u32) -> Vec<u8> {
    let mut w = BodyWriter::with_capacity(20 + name.len());
    w.u32(FILE_MAGIC);
    w.u16(VERSION);
    w.u16(0); // flags, reserved
    w.u32(chunk_capacity);
    w.str(name);
    w.into_crc_trailed()
}

fn encode_chunk(first_index: u64, intervals: &[TraceInterval]) -> Vec<u8> {
    let count = intervals.len();
    let mut payload = BodyWriter::with_capacity(CHUNK_PREFIX + count * BYTES_PER_INTERVAL);
    payload.u64(first_index);
    payload.u32(count as u32);
    for i in intervals {
        payload.f64(i.duration.get());
    }
    for i in intervals {
        payload.u8(phase_tag(i.phase));
    }
    for i in intervals {
        payload.f64(i.phase.ar().get());
    }
    encode_frame(CHUNK_MAGIC, &payload.into_bytes())
}

fn encode_footer(total_intervals: u64, total_duration: f64) -> Vec<u8> {
    let mut payload = BodyWriter::with_capacity(FOOTER_PAYLOAD);
    payload.u64(total_intervals);
    payload.f64(total_duration);
    encode_frame(FOOTER_MAGIC, &payload.into_bytes())
}

/// `magic | payload_len | payload | crc32(payload)`.
fn encode_frame(magic: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = BodyWriter::with_capacity(FRAME_PREFIX + payload.len() + 4);
    frame.u32(magic);
    frame.bytes(payload);
    frame.u32(crc32(payload));
    frame.into_bytes()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Parsed, CRC-verified file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceFileHeader {
    /// Format version.
    pub(crate) version: u16,
    /// Reserved flag bits (zero today).
    pub(crate) flags: u16,
    /// Chunk capacity the writer used.
    pub(crate) chunk_capacity: u32,
    /// Trace name.
    pub(crate) name: String,
    /// FNV-1a fingerprint of the raw header bytes — binds checkpoints
    /// to this file.
    pub(crate) fingerprint: u64,
}

/// Bounded-memory streaming reader over a chunked trace file.
///
/// Pulls bytes from any [`Read`] source through a rolling window whose
/// size is bounded by the largest legal frame (~1.1 MiB), decodes one
/// chunk at a time, and yields intervals via
/// [`TraceReader::next_interval`] — millions of intervals stream through
/// without ever materialising a `Vec<TraceInterval>` of the whole trace.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    policy: DefectPolicy,
    header: TraceFileHeader,
    /// Rolling byte window; `pos` is the consumed prefix.
    buf: Vec<u8>,
    pos: usize,
    /// File offset of `buf[0]`.
    base: u64,
    eof: bool,
    done: bool,
    footer_seen: bool,
    /// Decoded intervals from the current chunk, drained front-to-back.
    current: Vec<TraceInterval>,
    current_pos: usize,
    /// Next interval index a good chunk is expected to start at.
    expected_index: u64,
    intervals_emitted: u64,
    intervals_lost: u64,
    chunks_ok: u64,
    chunks_quarantined: u64,
    defects: DefectCounts,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Io`] if the file cannot be opened, plus the
    /// header conditions of [`TraceReader::new`].
    pub fn open(path: impl AsRef<Path>, policy: DefectPolicy) -> Result<Self, TraceFileError> {
        let file = File::open(path)?;
        TraceReader::new(BufReader::new(file), policy)
    }
}

impl<'a> TraceReader<&'a [u8]> {
    /// Builds a reader over an in-memory byte slice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceReader::new`].
    pub fn from_bytes(bytes: &'a [u8], policy: DefectPolicy) -> Result<Self, TraceFileError> {
        TraceReader::new(bytes, policy)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte source, reading and verifying the header eagerly.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Header`] for any header damage (truncation,
    /// bad magic, bad CRC, over-long name, non-UTF-8 name),
    /// [`TraceFileError::Unsupported`] for an unknown version, and
    /// [`TraceFileError::Io`] on read failure. Header damage is always
    /// fatal regardless of policy: nothing after an untrusted header
    /// can be interpreted.
    pub fn new(src: R, policy: DefectPolicy) -> Result<Self, TraceFileError> {
        let mut reader = Self {
            src,
            policy,
            header: TraceFileHeader {
                version: 0,
                flags: 0,
                chunk_capacity: 0,
                name: String::new(),
                fingerprint: 0,
            },
            buf: Vec::new(),
            pos: 0,
            base: 0,
            eof: false,
            done: false,
            footer_seen: false,
            current: Vec::new(),
            current_pos: 0,
            expected_index: 0,
            intervals_emitted: 0,
            intervals_lost: 0,
            chunks_ok: 0,
            chunks_quarantined: 0,
            defects: DefectCounts::new(),
        };
        reader.read_header()?;
        Ok(reader)
    }

    /// The verified header.
    pub(crate) fn header(&self) -> &TraceFileHeader {
        &self.header
    }

    /// FNV-1a fingerprint of the header bytes.
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// Defect counters accumulated so far.
    pub fn defects(&self) -> &DefectCounts {
        &self.defects
    }

    /// Chunks decoded and emitted intact so far.
    pub(crate) fn chunks_ok(&self) -> u64 {
        self.chunks_ok
    }

    /// Chunks skipped because of defects so far.
    pub fn chunks_quarantined(&self) -> u64 {
        self.chunks_quarantined
    }

    /// Intervals known to have been lost to quarantined frames.
    pub fn intervals_lost(&self) -> u64 {
        self.intervals_lost
    }

    /// Intervals emitted so far.
    pub fn intervals_emitted(&self) -> u64 {
        self.intervals_emitted
    }

    /// Whether a valid footer frame was seen.
    pub(crate) fn footer_seen(&self) -> bool {
        self.footer_seen
    }

    /// Yields the next interval, or `Ok(None)` at end of stream.
    ///
    /// Under [`DefectPolicy::Quarantine`] this never fails on damaged
    /// *content* — damaged frames are skipped and accounted — only on
    /// genuine I/O errors. Under [`DefectPolicy::Strict`] the first
    /// defect is returned as [`TraceFileError::Defect`].
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Io`] and (strict policy only)
    /// [`TraceFileError::Defect`].
    pub fn next_interval(&mut self) -> Result<Option<TraceInterval>, TraceFileError> {
        loop {
            if self.current_pos < self.current.len() {
                let interval = self.current[self.current_pos];
                self.current_pos += 1;
                self.intervals_emitted += 1;
                return Ok(Some(interval));
            }
            if self.done {
                return Ok(None);
            }
            self.read_next_chunk()?;
        }
    }

    /// Skips the next `n` emitted intervals (decoding and quarantining
    /// exactly as a full read would, so defect accounting is identical).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceReader::next_interval`].
    pub fn skip_intervals(&mut self, n: u64) -> Result<u64, TraceFileError> {
        let mut skipped = 0;
        while skipped < n {
            match self.next_interval()? {
                Some(_) => skipped += 1,
                None => break,
            }
        }
        Ok(skipped)
    }

    // -- internals ---------------------------------------------------------

    fn defect(&mut self, defect: ChunkDefect) -> Result<(), TraceFileError> {
        self.defects.record(&defect);
        match self.policy {
            DefectPolicy::Strict => {
                self.done = true;
                Err(TraceFileError::Defect(defect))
            }
            DefectPolicy::Quarantine => Ok(()),
        }
    }

    /// Ensures at least `want` unconsumed bytes are buffered, or EOF.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        while !self.eof && self.buf.len() - self.pos < want {
            let mut chunk = [0u8; READ_CHUNK];
            match self.src.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drops the consumed prefix so the window stays bounded.
    fn compact(&mut self) {
        if self.pos >= READ_CHUNK {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn read_header(&mut self) -> Result<(), TraceFileError> {
        let truncated = TraceFileError::Header(ChunkDefect::Truncated { at: 0 });
        // Fixed prefix: magic + version + flags + chunk_capacity + name_len.
        self.fill(16)?;
        let mut r = BodyReader::new(&self.buf[self.pos..]);
        let prefix = (r.u32(), r.u16(), r.u16(), r.u32(), r.u32());
        let (Ok(magic), Ok(version), Ok(flags), Ok(chunk_capacity), Ok(name_len)) = prefix else {
            return Err(truncated);
        };
        if magic != FILE_MAGIC {
            return Err(TraceFileError::Header(ChunkDefect::BadMagic { at: 0, found: magic }));
        }
        let name_len = name_len as usize;
        if name_len > MAX_NAME {
            return Err(TraceFileError::Header(ChunkDefect::Oversized {
                at: 0,
                declared: name_len as u64,
            }));
        }
        let total = 16 + name_len + 4;
        self.fill(total)?;
        let head = &self.buf[self.pos..];
        let mut r = BodyReader::new(head);
        let (Ok(body), Ok(declared_crc)) = (r.take(16 + name_len), r.u32()) else {
            return Err(truncated);
        };
        let actual_crc = crc32(body);
        if declared_crc != actual_crc {
            return Err(TraceFileError::Header(ChunkDefect::ChecksumMismatch {
                at: 0,
                expected: declared_crc,
                found: actual_crc,
            }));
        }
        if version != VERSION {
            return Err(TraceFileError::Unsupported { version });
        }
        let name = match std::str::from_utf8(&body[16..]) {
            Ok(s) => s.to_string(),
            Err(_) => {
                return Err(TraceFileError::Header(ChunkDefect::Malformed {
                    at: 0,
                    what: "header name is not UTF-8",
                }))
            }
        };
        let fingerprint = fnv1a64(&head[..total]);
        self.header = TraceFileHeader { version, flags, chunk_capacity, name, fingerprint };
        self.pos += total;
        Ok(())
    }

    /// Advances past damaged bytes to the next plausible frame magic.
    /// Consumes at least one byte so quarantine always makes progress.
    fn resync(&mut self) -> Result<(), TraceFileError> {
        self.pos += 1;
        loop {
            self.compact();
            self.fill(4)?;
            let window = &self.buf[self.pos..];
            if window.len() < 4 {
                // Let the main loop classify the tail.
                self.pos = self.buf.len();
                return Ok(());
            }
            if let Some(found) = window.windows(4).position(|w| w == b"CHNK" || w == b"TEND") {
                self.pos += found;
                return Ok(());
            }
            // Keep the last 3 bytes: a magic may straddle the boundary.
            self.pos = self.buf.len() - 3;
            if self.eof {
                self.pos = self.buf.len();
                return Ok(());
            }
        }
    }

    /// The stream ended inside the frame at `at`: account the torn frame
    /// (and the footer it took with it) and stop.
    fn torn_frame(&mut self, at: u64) -> Result<(), TraceFileError> {
        self.pos = self.buf.len();
        self.done = true;
        self.defect(ChunkDefect::Truncated { at })?;
        if !self.footer_seen {
            self.defect(ChunkDefect::MissingFooter)?;
        }
        Ok(())
    }

    /// Reads and decodes the next frame, refilling `self.current` on a
    /// good chunk. Sets `self.done` at end of stream.
    fn read_next_chunk(&mut self) -> Result<(), TraceFileError> {
        self.current.clear();
        self.current_pos = 0;
        loop {
            if self.done {
                return Ok(());
            }
            self.compact();
            self.fill(FRAME_PREFIX)?;
            if self.available() == 0 {
                self.done = true;
                if !self.footer_seen {
                    self.defect(ChunkDefect::MissingFooter)?;
                }
                return Ok(());
            }
            let at = self.offset();
            let mut r = BodyReader::new(&self.buf[self.pos..]);
            let (Ok(magic), Ok(declared_len)) = (r.u32(), r.u32()) else {
                return self.torn_frame(at);
            };
            let declared_len = declared_len as usize;
            if magic != CHUNK_MAGIC && magic != FOOTER_MAGIC {
                self.defect(ChunkDefect::BadMagic { at, found: magic })?;
                self.resync()?;
                continue;
            }
            let len_bound = if magic == FOOTER_MAGIC { FOOTER_PAYLOAD } else { MAX_PAYLOAD };
            if declared_len > len_bound {
                self.defect(ChunkDefect::Oversized { at, declared: declared_len as u64 })?;
                self.resync()?;
                continue;
            }
            let frame_len = FRAME_PREFIX + declared_len + 4;
            self.fill(frame_len)?;
            let mut r = BodyReader::new(&self.buf[self.pos..]);
            let frame = (r.take(FRAME_PREFIX), r.take(declared_len), r.u32());
            let (Ok(_), Ok(payload), Ok(declared_crc)) = frame else {
                return self.torn_frame(at);
            };
            let actual_crc = crc32(payload);
            if declared_crc != actual_crc {
                // The frame shape was plausible, so skip it wholesale —
                // resyncing into the middle of a damaged payload would
                // only manufacture bad-magic noise.
                self.pos += frame_len;
                self.chunks_quarantined += 1;
                self.defect(ChunkDefect::ChecksumMismatch {
                    at,
                    expected: declared_crc,
                    found: actual_crc,
                })?;
                continue;
            }
            if magic == FOOTER_MAGIC {
                let declared_total = footer_total(at, payload);
                self.pos += frame_len;
                match declared_total.and_then(|total| self.check_footer(total)) {
                    Ok(()) => {
                        self.footer_seen = true;
                        self.done = true;
                        return Ok(());
                    }
                    Err(defect) => {
                        self.defect(defect)?;
                        continue;
                    }
                }
            }
            match decode_chunk_payload(at, payload) {
                Ok((first_index, intervals)) => {
                    self.pos += frame_len;
                    if first_index != self.expected_index {
                        self.intervals_lost += first_index.saturating_sub(self.expected_index);
                        self.defect(ChunkDefect::IndexGap {
                            expected: self.expected_index,
                            found: first_index,
                        })?;
                    }
                    self.expected_index = first_index + intervals.len() as u64;
                    self.chunks_ok += 1;
                    self.current = intervals;
                    self.current_pos = 0;
                    return Ok(());
                }
                Err(defect) => {
                    self.pos += frame_len;
                    self.chunks_quarantined += 1;
                    self.defect(defect)?;
                    continue;
                }
            }
        }
    }

    fn check_footer(&mut self, declared_total: u64) -> Result<(), ChunkDefect> {
        let accounted = self.intervals_emitted
            + (self.current.len() - self.current_pos) as u64
            + self.intervals_lost;
        if declared_total != accounted {
            self.intervals_lost += declared_total.saturating_sub(accounted);
            return Err(ChunkDefect::FooterMismatch {
                declared: declared_total,
                replayed: accounted,
            });
        }
        Ok(())
    }
}

/// The interval total a CRC-verified footer payload declares.
fn footer_total(at: u64, payload: &[u8]) -> Result<u64, ChunkDefect> {
    let mut r = BodyReader::new(payload);
    match (r.u64(), r.u64(), r.finish()) {
        (Ok(total), Ok(_duration_bits), Ok(())) => Ok(total),
        _ => Err(ChunkDefect::Malformed { at, what: "footer payload length" }),
    }
}

fn decode_chunk_payload(at: u64, payload: &[u8]) -> Result<(u64, Vec<TraceInterval>), ChunkDefect> {
    let mut r = BodyReader::new(payload);
    let (Ok(first_index), Ok(count)) = (r.u64(), r.u32()) else {
        return Err(ChunkDefect::Malformed { at, what: "chunk payload shorter than prefix" });
    };
    let count = count as usize;
    if count > MAX_CHUNK_INTERVALS {
        return Err(ChunkDefect::Malformed { at, what: "chunk interval count over bound" });
    }
    // Each SoA column is taken once, bounded, so the interval loop below
    // walks slices of known length with no per-field bounds check.
    let columns = (r.take(count * 8), r.take(count), r.take(count * 8), r.remaining());
    let (Ok(durations), Ok(tags), Ok(ars), 0) = columns else {
        return Err(ChunkDefect::Malformed { at, what: "payload length != 12 + 17 * count" });
    };
    let mut intervals = Vec::with_capacity(count);
    for ((duration_bits, &tag), ar_bits) in le_u64s(durations).zip(tags).zip(le_u64s(ars)) {
        let duration = Seconds::new(f64::from_bits(duration_bits));
        let interval = if tag & TAG_ACTIVE != 0 {
            let wl = WorkloadType::from_tag(tag & !TAG_ACTIVE)
                .ok_or(ChunkDefect::Malformed { at, what: "unknown workload tag" })?;
            let ar = ApplicationRatio::new(f64::from_bits(ar_bits))
                .map_err(|source| ChunkDefect::InvalidInterval { at, source })?;
            TraceInterval::try_active(duration, wl, ar)
                .map_err(|source| ChunkDefect::InvalidInterval { at, source })?
        } else {
            let state = decode_cstate(tag)
                .ok_or(ChunkDefect::Malformed { at, what: "unknown c-state tag" })?;
            TraceInterval::try_idle(duration, state)
                .map_err(|source| ChunkDefect::InvalidInterval { at, source })?
        };
        intervals.push(interval);
    }
    Ok((first_index, intervals))
}

// ---------------------------------------------------------------------------
// Frame map (corruption tooling)
// ---------------------------------------------------------------------------

/// What a [`FrameSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The file header.
    Header,
    /// A chunk frame.
    Chunk,
    /// The footer frame.
    Footer,
}

/// One structural span of a well-formed trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Byte offset of the span.
    pub offset: usize,
    /// Span length in bytes.
    pub len: usize,
    /// What the span is.
    pub kind: FrameKind,
}

/// Maps the frames of a *well-formed* encoded trace file — the poke
/// points for corruption tests and chaos legs. Trusts the structure (it
/// is meant to run on bytes this module just encoded); returns `None`
/// as soon as the structure stops making sense.
pub fn frame_spans(bytes: &[u8]) -> Option<Vec<FrameSpan>> {
    let mut r = BodyReader::new(bytes);
    r.take(12).ok()?;
    let name_len = r.u32().ok()? as usize;
    r.take(name_len + 4).ok()?;
    let mut spans = vec![FrameSpan { offset: 0, len: r.position(), kind: FrameKind::Header }];
    while r.remaining() > 0 {
        let offset = r.position();
        let magic = r.u32().ok()?;
        let payload_len = r.u32().ok()? as usize;
        r.take(payload_len + 4).ok()?;
        let kind = match magic {
            CHUNK_MAGIC => FrameKind::Chunk,
            FOOTER_MAGIC => FrameKind::Footer,
            _ => return None,
        };
        spans.push(FrameSpan { offset, len: r.position() - offset, kind });
    }
    Some(spans)
}

// ---------------------------------------------------------------------------
// Convenience converters
// ---------------------------------------------------------------------------

/// Summary of a whole-file read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSummary {
    /// Defects encountered.
    pub defects: DefectCounts,
    /// Chunks decoded intact.
    pub chunks_ok: u64,
    /// Chunks quarantined.
    pub(crate) chunks_quarantined: u64,
    /// Intervals known lost to quarantined frames.
    pub intervals_lost: u64,
    /// Whether a valid footer closed the stream.
    pub footer_seen: bool,
}

/// Encodes a whole trace to bytes with the given chunk capacity.
///
/// # Errors
///
/// Same conditions as [`TraceFileWriter::new`] and
/// `TraceFileWriter::push`.
pub fn encode_trace(trace: &Trace, chunk_capacity: usize) -> Result<Vec<u8>, TraceFileError> {
    let mut writer = TraceFileWriter::new(Vec::new(), trace.name(), chunk_capacity)?;
    writer.push_trace(trace)?;
    writer.finish()
}

/// Writes a whole trace to `path` with an explicit chunk capacity.
///
/// # Errors
///
/// Same conditions as [`TraceFileWriter::new`] and
/// `TraceFileWriter::push`, plus file-creation I/O errors.
pub fn write_trace_chunked(
    path: impl AsRef<Path>,
    trace: &Trace,
    chunk_capacity: usize,
) -> Result<(), TraceFileError> {
    let file = File::create(path)?;
    let mut writer = TraceFileWriter::new(BufWriter::new(file), trace.name(), chunk_capacity)?;
    writer.push_trace(trace)?;
    writer.finish()?;
    Ok(())
}

/// Decodes a whole in-memory encoding (tests, tooling).
///
/// # Errors
///
/// Same conditions as [`TraceReader::from_bytes`] and
/// [`TraceReader::next_interval`].
pub fn decode_trace(
    bytes: &[u8],
    policy: DefectPolicy,
) -> Result<(Trace, ReadSummary), TraceFileError> {
    let mut reader = TraceReader::from_bytes(bytes, policy)?;
    collect_trace(&mut reader)
}

fn collect_trace<R: Read>(
    reader: &mut TraceReader<R>,
) -> Result<(Trace, ReadSummary), TraceFileError> {
    let mut intervals = Vec::new();
    while let Some(interval) = reader.next_interval()? {
        intervals.push(interval);
    }
    let summary = ReadSummary {
        defects: *reader.defects(),
        chunks_ok: reader.chunks_ok(),
        chunks_quarantined: reader.chunks_quarantined(),
        intervals_lost: reader.intervals_lost(),
        footer_seen: reader.footer_seen(),
    };
    let name = reader.header().name.clone();
    Ok((Trace::new(name, intervals), summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::TraceGenerator;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    fn sample_trace(n: usize) -> Trace {
        let mut intervals = Vec::with_capacity(n);
        for i in 0..n {
            let interval = match i % 4 {
                0 => TraceInterval::active(
                    Seconds::from_millis(1.0 + i as f64 * 0.01),
                    WorkloadType::SingleThread,
                    ar(0.3 + 0.6 * (i % 7) as f64 / 7.0),
                ),
                1 => TraceInterval::active(
                    Seconds::from_millis(2.5),
                    WorkloadType::Graphics,
                    ar(0.71),
                ),
                2 => TraceInterval::idle(Seconds::from_millis(5.0), PackageCState::C6),
                _ => TraceInterval::idle(Seconds::from_millis(0.5), PackageCState::C0Min),
            };
            intervals.push(interval);
        }
        Trace::new("sample", intervals)
    }

    #[test]
    fn crc_matches_wire_vector() {
        // A chunk frame's trailer is the CRC-32 of its payload, the same
        // known-answer vector the daemon's wire frames carry.
        let frame = encode_frame(CHUNK_MAGIC, b"123456789");
        let trailer = &frame[frame.len() - 4..];
        assert_eq!(u32::from_le_bytes(trailer.try_into().unwrap()), 0xCBF4_3926);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let trace = sample_trace(1000);
        let bytes = encode_trace(&trace, 64).unwrap();
        let (decoded, summary) = decode_trace(&bytes, DefectPolicy::Strict).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(summary.defects.total(), 0);
        assert!(summary.footer_seen);
        assert_eq!(summary.chunks_ok, 1000 / 64 + 1);
    }

    #[test]
    fn round_trip_generated_trace() {
        let trace = TraceGenerator::new(42).generate("gen", 500);
        let bytes = encode_trace(&trace, 4096).unwrap();
        let (decoded, _) = decode_trace(&bytes, DefectPolicy::Strict).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new("empty", vec![]);
        let bytes = encode_trace(&trace, 16).unwrap();
        let (decoded, summary) = decode_trace(&bytes, DefectPolicy::Strict).unwrap();
        assert_eq!(decoded, trace);
        assert!(summary.footer_seen);
    }

    #[test]
    fn streaming_reader_matches_collect() {
        let trace = sample_trace(257);
        let bytes = encode_trace(&trace, 32).unwrap();
        let mut reader = TraceReader::from_bytes(&bytes, DefectPolicy::Strict).unwrap();
        let mut streamed = Vec::new();
        while let Some(i) = reader.next_interval().unwrap() {
            streamed.push(i);
        }
        assert_eq!(streamed, trace.intervals());
        assert_eq!(reader.intervals_emitted(), 257);
    }

    #[test]
    fn writer_rejects_invalid_intervals_and_config() {
        let mut writer = TraceFileWriter::new(Vec::new(), "w", 8).unwrap();
        let bad = TraceInterval::idle(Seconds::new(f64::NAN), PackageCState::C6);
        assert!(matches!(writer.push(bad), Err(TraceFileError::Invalid(_))));
        assert!(matches!(TraceFileWriter::new(Vec::new(), "w", 0), Err(TraceFileError::Config(_))));
        assert!(matches!(
            TraceFileWriter::new(Vec::new(), "w", MAX_CHUNK_INTERVALS + 1),
            Err(TraceFileError::Config(_))
        ));
    }

    #[test]
    fn header_corruption_is_always_fatal() {
        let bytes = encode_trace(&sample_trace(8), 4).unwrap();
        let mut bad = bytes.clone();
        bad[1] ^= 0xFF; // magic
        assert!(matches!(
            TraceReader::from_bytes(&bad, DefectPolicy::Quarantine),
            Err(TraceFileError::Header(ChunkDefect::BadMagic { .. }))
        ));
        let mut bad = bytes.clone();
        bad[17] ^= 0x01; // name byte → header CRC breaks
        assert!(matches!(
            TraceReader::from_bytes(&bad, DefectPolicy::Quarantine),
            Err(TraceFileError::Header(ChunkDefect::ChecksumMismatch { .. }))
        ));
        assert!(matches!(
            TraceReader::from_bytes(&bytes[..10], DefectPolicy::Quarantine),
            Err(TraceFileError::Header(ChunkDefect::Truncated { .. }))
        ));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = encode_trace(&sample_trace(4), 4).unwrap();
        bytes[4] = 9; // version
                      // Re-seal the header CRC so only the version is wrong.
        let name_len = "sample".len();
        let crc = crc32(&bytes[..16 + name_len]);
        bytes[16 + name_len..16 + name_len + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            TraceReader::from_bytes(&bytes, DefectPolicy::Quarantine),
            Err(TraceFileError::Unsupported { version: 9 })
        ));
    }

    #[test]
    fn poisoned_chunk_is_quarantined_with_exact_accounting() {
        let trace = sample_trace(256);
        let bytes = encode_trace(&trace, 32).unwrap();
        let spans = frame_spans(&bytes).unwrap();
        let chunks: Vec<_> = spans.iter().filter(|s| s.kind == FrameKind::Chunk).collect();
        assert_eq!(chunks.len(), 8);
        // Poison the third chunk's payload.
        let mut bad = bytes.clone();
        bad[chunks[2].offset + FRAME_PREFIX + 20] ^= 0x40;
        let (decoded, summary) = decode_trace(&bad, DefectPolicy::Quarantine).unwrap();
        assert_eq!(decoded.intervals().len(), 256 - 32);
        assert_eq!(summary.chunks_quarantined, 1);
        assert_eq!(summary.intervals_lost, 32);
        assert_eq!(summary.defects.count(DefectKind::ChecksumMismatch), 1);
        assert_eq!(summary.defects.count(DefectKind::IndexGap), 1);
        // FooterMismatch is NOT raised: emitted + lost == declared.
        assert_eq!(summary.defects.count(DefectKind::FooterMismatch), 0);
        assert!(summary.footer_seen);
        // The surviving intervals are bit-exact.
        let expected: Vec<_> =
            trace.intervals()[..64].iter().chain(&trace.intervals()[96..]).copied().collect();
        assert_eq!(decoded.intervals(), expected.as_slice());
        // Strict policy refuses the same file.
        assert!(matches!(
            decode_trace(&bad, DefectPolicy::Strict),
            Err(TraceFileError::Defect(ChunkDefect::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn truncated_stream_is_accounted_not_panicked() {
        let trace = sample_trace(128);
        let bytes = encode_trace(&trace, 16).unwrap();
        for cut in [bytes.len() - 5, bytes.len() / 2, 30] {
            let (decoded, summary) = decode_trace(&bytes[..cut], DefectPolicy::Quarantine).unwrap();
            assert!(decoded.intervals().len() <= 128);
            assert!(!summary.footer_seen);
            assert!(
                summary.defects.count(DefectKind::Truncated) == 1
                    || summary.defects.count(DefectKind::MissingFooter) == 1,
                "cut {cut}: {}",
                summary.defects
            );
        }
    }

    #[test]
    fn garbage_between_frames_resyncs() {
        let trace = sample_trace(64);
        let bytes = encode_trace(&trace, 16).unwrap();
        let spans = frame_spans(&bytes).unwrap();
        let second_chunk = spans.iter().filter(|s| s.kind == FrameKind::Chunk).nth(1).unwrap();
        // Splice garbage bytes before the second chunk.
        let mut bad = Vec::new();
        bad.extend_from_slice(&bytes[..second_chunk.offset]);
        bad.extend_from_slice(&[0xAB; 37]);
        bad.extend_from_slice(&bytes[second_chunk.offset..]);
        let (decoded, summary) = decode_trace(&bad, DefectPolicy::Quarantine).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(summary.defects.count(DefectKind::BadMagic), 1);
        assert!(summary.footer_seen);
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let trace = sample_trace(32);
        let bytes = encode_trace(&trace, 16).unwrap();
        let spans = frame_spans(&bytes).unwrap();
        let first_chunk = spans.iter().find(|s| s.kind == FrameKind::Chunk).unwrap();
        let mut bad = bytes.clone();
        bad[first_chunk.offset + 4..first_chunk.offset + 8]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, summary) = decode_trace(&bad, DefectPolicy::Quarantine).unwrap();
        assert!(summary.defects.count(DefectKind::Oversized) >= 1);
    }

    #[test]
    fn fingerprint_tracks_header_identity() {
        let a = encode_trace(&Trace::new("alpha", vec![]), 16).unwrap();
        let b = encode_trace(&Trace::new("beta", vec![]), 16).unwrap();
        let c = encode_trace(&Trace::new("alpha", vec![]), 32).unwrap();
        let fp = |bytes: &[u8]| {
            TraceReader::from_bytes(bytes, DefectPolicy::Strict).unwrap().fingerprint()
        };
        assert_eq!(fp(&a), fp(&a));
        assert_ne!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn frame_spans_cover_the_file_exactly() {
        let bytes = encode_trace(&sample_trace(100), 16).unwrap();
        let spans = frame_spans(&bytes).unwrap();
        assert_eq!(spans.first().unwrap().kind, FrameKind::Header);
        assert_eq!(spans.last().unwrap().kind, FrameKind::Footer);
        let mut at = 0;
        for s in &spans {
            assert_eq!(s.offset, at);
            at += s.len;
        }
        assert_eq!(at, bytes.len());
    }

    #[test]
    fn skip_intervals_matches_full_reads() {
        let trace = sample_trace(200);
        let bytes = encode_trace(&trace, 32).unwrap();
        let mut reader = TraceReader::from_bytes(&bytes, DefectPolicy::Strict).unwrap();
        assert_eq!(reader.skip_intervals(150).unwrap(), 150);
        let next = reader.next_interval().unwrap().unwrap();
        assert_eq!(next, trace.intervals()[150]);
        // Skipping past the end reports the shortfall.
        assert_eq!(reader.skip_intervals(1000).unwrap(), 49);
    }
}
