//! Warm-state persistence: memo shards and trained predictor firmware
//! on disk, so a restarted daemon serves hot.
//!
//! File layout (all little-endian, CRC-32 trailer over everything
//! before it — the firmware-image idiom):
//!
//! ```text
//! magic    u32   "PDNW"
//! version  u16
//! reserved u16
//! ivr firmware    u32 len + bytes   (PMU firmware image)
//! ldo firmware    u32 len + bytes
//! tenant count    u32
//! per tenant:     id u32, entry count u32,
//!                 entries: pdn_token u64, scenario_fingerprint u64,
//!                          PdnEvaluation (protocol codec)
//! crc32    u32
//! ```
//!
//! Decoding untrusted bytes never panics; every defect is a typed
//! [`SnapshotError`]. Memo entries re-stripe deterministically on
//! import, so a snapshot taken under one shard count restores cleanly
//! under another.

use crate::protocol::{decode_evaluation, encode_evaluation};
use pdn_workload::codec::{crc32, split_crc, write_atomic, BodyReader, BodyWriter, DecodeError};
use pdnspot::memo::MemoEntry;
use std::ffi::OsString;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot magic: the ASCII bytes `PDNW` read as a little-endian `u32`.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"PDNW");

/// Snapshot format revision.
pub(crate) const VERSION: u16 = 1;

/// Upper bound on one firmware image inside a snapshot.
const MAX_FIRMWARE: usize = 1 << 20;

/// Upper bound on tenants and on memo entries per tenant.
const MAX_TENANTS: usize = 1 << 16;
const MAX_ENTRIES: usize = 1 << 22;

/// A daemon's persistable warm state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The predictor's IVR-mode firmware image.
    pub ivr_firmware: Vec<u8>,
    /// The predictor's LDO-mode firmware image.
    pub ldo_firmware: Vec<u8>,
    /// Per-tenant memo entries, tenant ids ascending.
    pub tenants: Vec<(u32, Vec<MemoEntry>)>,
}

impl Snapshot {
    /// Total memo entries across all tenants.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.tenants.iter().map(|(_, e)| e.len()).sum()
    }
}

/// Why a snapshot could not be read or decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The bytes are not a snapshot (wrong magic).
    BadMagic(u32),
    /// A format revision this build does not understand.
    BadVersion(u16),
    /// The CRC-32 trailer does not match the content.
    ChecksumMismatch {
        /// CRC carried by the trailer.
        expected: u32,
        /// CRC computed over the content.
        found: u32,
    },
    /// A malformed interior field.
    Decode(DecodeError),
    /// An I/O failure reading or writing the file.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: trailer {expected:#010x}, content {found:#010x}"
            ),
            SnapshotError::Decode(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Decode(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Serialises a snapshot, CRC trailer included.
#[must_use]
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u16(0);
    w.bytes(&snap.ivr_firmware);
    w.bytes(&snap.ldo_firmware);
    w.u32(u32::try_from(snap.tenants.len()).unwrap_or(u32::MAX));
    for (tenant, entries) in &snap.tenants {
        w.u32(*tenant);
        w.u32(u32::try_from(entries.len()).unwrap_or(u32::MAX));
        for entry in entries {
            w.u64(entry.pdn_token);
            w.u64(entry.scenario_fingerprint);
            encode_evaluation(&mut w, &entry.value);
        }
    }
    w.into_crc_trailed()
}

/// Decodes a snapshot from raw bytes. Never panics.
///
/// # Errors
///
/// Returns a [`SnapshotError`] describing the first defect found.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < 4 + 4 {
        return Err(SnapshotError::Decode(DecodeError::Truncated));
    }
    let (content, expected) = split_crc(bytes)?;
    let found = crc32(content);
    if expected != found {
        return Err(SnapshotError::ChecksumMismatch { expected, found });
    }
    let mut r = BodyReader::new(content);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let _reserved = r.u16()?;
    let ivr_firmware = r.bytes("ivr firmware", MAX_FIRMWARE)?;
    let ldo_firmware = r.bytes("ldo firmware", MAX_FIRMWARE)?;
    let n_tenants = r.list_len("tenants", MAX_TENANTS)?;
    let mut tenants = Vec::with_capacity(n_tenants);
    for _ in 0..n_tenants {
        let tenant = r.u32()?;
        let n_entries = r.list_len("memo entries", MAX_ENTRIES)?;
        let mut entries = Vec::with_capacity(n_entries.min(1 << 12));
        for _ in 0..n_entries {
            let pdn_token = r.u64()?;
            let scenario_fingerprint = r.u64()?;
            let value = decode_evaluation(&mut r)?;
            entries.push(MemoEntry { pdn_token, scenario_fingerprint, value });
        }
        tenants.push((tenant, entries));
    }
    r.finish()?;
    Ok(Snapshot { ivr_firmware, ldo_firmware, tenants })
}

/// How many rotated generations [`write_file_rotated`] keeps by
/// default (`path`, `path.1`, `path.2`).
pub const DEFAULT_KEEP: usize = 3;

/// The path of rotated generation `n` (`0` is `path` itself; `n ≥ 1`
/// appends `.n` to the file name).
#[must_use]
pub fn generation_path(path: &Path, n: usize) -> PathBuf {
    if n == 0 {
        return path.to_path_buf();
    }
    let mut name = path.file_name().map_or_else(OsString::new, OsString::from);
    name.push(format!(".{n}"));
    path.with_file_name(name)
}

/// Writes a snapshot file crash-safely with
/// [`write_atomic`], returning the byte count: a crash at any instant
/// leaves either the old snapshot or the new one — never a torn file.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on I/O failure (the temp file is
/// removed on every failure path).
pub(crate) fn write_file(path: &Path, snap: &Snapshot) -> Result<u64, SnapshotError> {
    let bytes = encode(snap);
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// `write_file` plus versioned rotation: before the new snapshot
/// lands on `path`, the existing generations shift down
/// (`path.{keep-2}` → `path.{keep-1}`, …, `path` → `path.1`), keeping
/// at most `keep` generations in total. A corrupt latest snapshot
/// therefore never costs the older good ones —
/// [`restore_latest`] walks the generations until one decodes.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on I/O failure writing the new
/// snapshot; rotation of old generations is best-effort.
pub fn write_file_rotated(path: &Path, snap: &Snapshot, keep: usize) -> Result<u64, SnapshotError> {
    let keep = keep.max(1);
    for n in (0..keep - 1).rev() {
        let from = generation_path(path, n);
        if from.exists() {
            let _ = std::fs::rename(&from, generation_path(path, n + 1));
        }
    }
    write_file(path, snap)
}

/// Reads and decodes a snapshot file.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on I/O failure or malformed content.
pub fn read_file(path: &Path) -> Result<Snapshot, SnapshotError> {
    decode(&std::fs::read(path)?)
}

/// Restores the newest decodable snapshot generation, never panicking:
/// tries `path`, then `path.1`, … up to `keep` generations, and
/// returns the first that decodes plus the defects found along the
/// way. `(None, defects)` means every generation was missing or
/// corrupt — the caller cold-starts.
#[must_use]
pub fn restore_latest(
    path: &Path,
    keep: usize,
) -> (Option<Snapshot>, Vec<(PathBuf, SnapshotError)>) {
    let mut defects = Vec::new();
    for n in 0..keep.max(1) {
        let candidate = generation_path(path, n);
        if !candidate.exists() {
            continue;
        }
        match read_file(&candidate) {
            Ok(snap) => return (Some(snap), defects),
            Err(e) => defects.push((candidate, e)),
        }
    }
    (None, defects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_workload::codec::ScratchDir;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            ivr_firmware: vec![1, 2, 3, 4],
            ldo_firmware: vec![5, 6],
            tenants: vec![(0, Vec::new()), (42, Vec::new())],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes).expect("decodes"), snap);
    }

    #[test]
    fn rotation_keeps_generations_and_restore_walks_them() {
        let dir = ScratchDir::new("pdn-serve-snapshot-rotate").expect("scratch dir");
        let path = dir.path().join("state.pdnw");
        let gen0 = Snapshot { ivr_firmware: vec![0], ..sample_snapshot() };
        let gen1 = Snapshot { ivr_firmware: vec![1], ..sample_snapshot() };
        let gen2 = Snapshot { ivr_firmware: vec![2], ..sample_snapshot() };
        for snap in [&gen0, &gen1, &gen2] {
            write_file_rotated(&path, snap, 3).expect("writes");
        }
        assert_eq!(read_file(&path).expect("latest").ivr_firmware, vec![2]);
        assert_eq!(read_file(&generation_path(&path, 1)).expect("previous").ivr_firmware, vec![1]);
        assert_eq!(read_file(&generation_path(&path, 2)).expect("oldest").ivr_firmware, vec![0]);

        // Corrupt the newest generation: restore falls back to .1.
        std::fs::write(&path, b"garbage").expect("corrupts");
        let (restored, defects) = restore_latest(&path, 3);
        assert_eq!(restored.expect("fallback generation").ivr_firmware, vec![1]);
        assert_eq!(defects.len(), 1, "the corrupt latest is reported");

        // Corrupt everything: cold start, never a panic.
        for n in 0..3 {
            std::fs::write(generation_path(&path, n), b"junk").expect("corrupts");
        }
        let (restored, defects) = restore_latest(&path, 3);
        assert!(restored.is_none(), "all generations corrupt → cold start");
        assert_eq!(defects.len(), 3);
    }

    #[test]
    fn restore_of_missing_files_is_a_clean_cold_start() {
        let dir = ScratchDir::new("pdn-serve-snapshot-missing").expect("scratch dir");
        let (restored, defects) = restore_latest(&dir.path().join("nothing.pdnw"), 3);
        assert!(restored.is_none());
        assert!(defects.is_empty(), "absent files are not defects");
    }

    #[test]
    fn corrupted_snapshots_are_typed_errors() {
        let bytes = encode(&sample_snapshot());
        for cut in 0..8.min(bytes.len()) {
            assert!(decode(&bytes[..cut]).is_err());
        }
        let mut flipped = bytes.clone();
        flipped[6] ^= 0x10;
        assert!(matches!(decode(&flipped), Err(SnapshotError::ChecksumMismatch { .. })));
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        // The CRC guards the magic too, so corruption surfaces either way.
        assert!(decode(&bad_magic).is_err());
    }
}
