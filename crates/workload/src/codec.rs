//! Durable bytes: the one checksum, hash, cursor and atomic write that
//! every binary format of the workspace shares.
//!
//! Five formats carry the system's state to disk and over the wire —
//! PMU firmware images, `.pdnt` trace files, replay checkpoints, daemon
//! snapshots and `pdn-serve` frames. Each keeps its own layout, error
//! enum and order of checks; this module owns the four decisions they
//! have in common:
//!
//! * [`crc32`] — CRC-32 (IEEE 802.3, reflected), the integrity trailer
//!   of every format;
//! * [`Fnv1a`] / `fnv1a64` — 64-bit FNV-1a, the deterministic
//!   fingerprint behind memo keys, quarantine keys and checkpoint
//!   bindings;
//! * [`BodyWriter`] / [`BodyReader`] — the little-endian cursor pair:
//!   writing is infallible, and every read is bounds-checked and fails
//!   with a typed [`DecodeError`] instead of panicking;
//! * [`write_atomic`] — tmp file + `fsync` + rename + directory `fsync`,
//!   so a crash leaves the old file or the new one, never a torn one.
//!
//! [`ScratchDir`] is the matching helper for code that needs a private
//! directory for such files (benchmarks, campaigns, tests).

use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Checksum and fingerprint
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected): the one checksum shared by wire
/// frames, snapshots, trace files, replay checkpoints and PMU firmware
/// images.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Streaming 64-bit FNV-1a hasher.
///
/// Deterministic across runs and platforms (unlike `std`'s randomly
/// seeded `DefaultHasher`), which keeps memo keys, quarantine keys and
/// checkpoint fingerprints — and every digest built on them —
/// reproducible. Multi-byte values are fed in little-endian order.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a new hash at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Feeds one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(Self::PRIME);
    }

    /// Feeds a `u64` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, data: &[u8]) {
        for &byte in data {
            self.u8(byte);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a over `data` in one call.
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(data);
    h.finish()
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// Why a byte body could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the field being read.
    Truncated,
    /// An enum discriminant outside the format's range.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeding the format's per-field bound.
    BadLength {
        /// Which field carried the length.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// A string field holding invalid UTF-8.
    Utf8,
    /// A value outside its domain (e.g. an efficiency beyond (0, 1]).
    Invalid(&'static str),
    /// Bytes left over after the message was fully decoded.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::BadLength { what, len } => write!(f, "{what} length {len} out of range"),
            DecodeError::Utf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Longest string [`BodyReader::str`] accepts (error messages, PDN
/// names).
pub(crate) const MAX_STR: usize = 4096;

/// Append-only little-endian writer. Infallible: bounds are enforced
/// on decode.
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    /// A fresh, empty body.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh body with room for `bytes` bytes.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes followed by their [`crc32`] as a little-endian
    /// trailer — the layout [`split_crc`] takes apart.
    #[must_use]
    pub fn into_crc_trailed(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked little-endian reader. Every accessor fails with a
/// typed [`DecodeError`] instead of panicking.
#[derive(Debug)]
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a body slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes as one slice — the bounded read behind
    /// every other accessor, checked before anything is allocated.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string (bounded by `MAX_STR`).
    pub fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.list_len(what, MAX_STR)?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::Utf8)
    }

    /// Reads length-prefixed raw bytes with an explicit bound.
    pub fn bytes(&mut self, what: &'static str, max: usize) -> Result<Vec<u8>, DecodeError> {
        let len = self.list_len(what, max)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a list length prefix, bounded by `max`.
    pub fn list_len(&mut self, what: &'static str, max: usize) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(len)
    }

    /// Asserts the body was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// Walks a column taken with [`BodyReader::take`] as little-endian
/// `u64`s. A trailing partial word is ignored; callers take exactly
/// `count * 8` bytes, so there is none.
#[inline]
pub fn le_u64s(column: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    column.as_chunks::<8>().0.iter().map(|word| u64::from_le_bytes(*word))
}

/// Splits a buffer built by [`BodyWriter::into_crc_trailed`] into its
/// content and the CRC its trailer declares. The caller compares that
/// CRC with [`crc32`] of the content and reports a mismatch in its own
/// error type.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer is shorter than the
/// trailer.
pub fn split_crc(buf: &[u8]) -> Result<(&[u8], u32), DecodeError> {
    let content_len = buf.len().checked_sub(4).ok_or(DecodeError::Truncated)?;
    let (content, trailer) = buf.split_at(content_len);
    Ok((content, BodyReader::new(trailer).u32()?))
}

// ---------------------------------------------------------------------------
// Atomic durable write
// ---------------------------------------------------------------------------

/// The temp file [`write_atomic`] stages `path` in: the full file name
/// plus `.tmp.<pid>.<counter>`, in the target's directory, so no two
/// writes — to any targets, from any threads or processes — share one.
fn tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map_or_else(OsString::new, OsString::from);
    name.push(format!(".tmp.{}.{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(name)
}

/// Writes `bytes` to `path` crash-safely: the bytes land in a uniquely
/// named temp file next to `path`, are `fsync`ed, and only then renamed
/// over `path`, followed by a best-effort `fsync` of the directory. A
/// crash at any instant leaves either the old file or the new one,
/// never a torn one.
///
/// # Errors
///
/// Any I/O failure along that sequence. The temp file is removed on
/// every failure path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let staged = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself. Directory fsync is platform-dependent;
    // failure here cannot un-rename, so it is best-effort.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A private directory under the system temp dir, created fresh and
/// removed (with its contents) on drop. Its name joins a tag, the
/// process id, the clock and a per-process counter, and it is never
/// reused, so concurrent users — in one process or several — never
/// touch each other's files.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory named after `tag`.
    ///
    /// # Errors
    ///
    /// The I/O error from creating it.
    pub fn new(tag: &str) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "{tag}-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir(&dir)?;
        Ok(Self(dir))
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_is_deterministic_and_order_sensitive() {
        let hash = |words: &[u64]| {
            let mut h = Fnv1a::new();
            for &w in words {
                h.u64(w);
            }
            h.finish()
        };
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        // Every typed feed is its little-endian bytes.
        let mut typed = Fnv1a::new();
        typed.u8(7);
        typed.u64(0x0102_0304_0506_0708);
        typed.f64(1.5);
        let mut raw = Vec::from([7u8]);
        raw.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        raw.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(typed.finish(), fnv1a64(&raw));
    }

    #[test]
    fn body_reader_bounds_every_access() {
        let mut w = BodyWriter::new();
        w.u8(7);
        w.f64(1.5);
        w.str("rail");
        let bytes = w.into_bytes();
        let mut r = BodyReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.str("name").unwrap(), "rail");
        r.finish().unwrap();

        let mut short = BodyReader::new(&bytes[..3]);
        short.u8().unwrap();
        assert_eq!(short.f64().unwrap_err(), DecodeError::Truncated);
    }

    /// Reads `bytes` with every accessor, driven by `ops`, until one
    /// fails; the point is that none panics.
    fn exercise(bytes: &[u8], ops: &[u8]) {
        let mut r = BodyReader::new(bytes);
        for &op in ops {
            let ok = match op % 10 {
                0 => r.u8().is_ok(),
                1 => r.u16().is_ok(),
                2 => r.u32().is_ok(),
                3 => r.u64().is_ok(),
                4 => r.f64().is_ok(),
                5 => r.str("s").is_ok(),
                6 => r.bytes("b", 64).is_ok(),
                7 => r.list_len("l", 64).is_ok(),
                8 => r.take(usize::from(op)).is_ok(),
                _ => r.take(usize::from(op) & 0x38).map(|column| le_u64s(column).count()).is_ok(),
            };
            if !ok {
                break;
            }
        }
        let _ = r.finish();
        let _ = split_crc(bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No accessor panics on arbitrary bytes, in any order.
        #[test]
        fn body_reader_never_panics_on_arbitrary_bytes(
            bytes in vec(any::<u8>(), 0..96),
            ops in vec(any::<u8>(), 0..32),
        ) {
            exercise(&bytes, &ops);
        }

        /// Every single-bit flip of a CRC-trailed buffer is detected.
        #[test]
        fn every_single_bit_flip_of_a_crc_trailed_buffer_is_detected(
            content in vec(any::<u8>(), 0..64),
        ) {
            let mut w = BodyWriter::new();
            w.bytes(&content);
            let sealed = w.into_crc_trailed();
            let (intact, crc) = split_crc(&sealed).unwrap();
            prop_assert_eq!(&intact[4..], &content[..]);
            prop_assert_eq!(crc, crc32(intact));
            for bit in 0..sealed.len() * 8 {
                let mut flipped = sealed.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let (body, declared) = split_crc(&flipped).unwrap();
                prop_assert_ne!(declared, crc32(body), "bit {} flipped undetected", bit);
            }
        }

        /// Cutting a buffer anywhere short of a read's end yields
        /// `Truncated`, for every accessor and the CRC split.
        #[test]
        fn every_truncation_yields_truncated(
            content in vec(any::<u8>(), 0..48),
            word in any::<u64>(),
        ) {
            let mut w = BodyWriter::new();
            w.u8(word as u8);
            w.u16(word as u16);
            w.u32(word as u32);
            w.u64(word);
            w.f64(f64::from_bits(word));
            w.bytes(&content);
            let full = w.into_crc_trailed();
            let read_all = |bytes: &[u8]| -> Result<(), DecodeError> {
                let (body, _) = split_crc(bytes)?;
                let mut r = BodyReader::new(body);
                r.u8()?;
                r.u16()?;
                r.u32()?;
                r.u64()?;
                r.f64()?;
                r.bytes("content", 64)?;
                r.finish()
            };
            prop_assert_eq!(read_all(&full), Ok(()));
            for cut in 0..full.len() {
                let mut r = BodyReader::new(&full[..cut]);
                prop_assert_eq!(r.take(cut + 1), Err(DecodeError::Truncated));
                prop_assert_eq!(read_all(&full[..cut]), Err(DecodeError::Truncated), "cut {}", cut);
            }
        }
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_tmp_file() {
        let dir = ScratchDir::new("pdn-codec-atomic").unwrap();
        let path = dir.path().join("run.a");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<_> =
            fs::read_dir(dir.path()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["run.a"]);
    }

    #[test]
    fn write_atomic_removes_its_tmp_file_when_the_rename_fails() {
        let dir = ScratchDir::new("pdn-codec-atomic").unwrap();
        // Renaming a file over a non-empty directory fails.
        let target = dir.path().join("run.a");
        fs::create_dir(&target).unwrap();
        fs::write(target.join("keep"), b"x").unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        let names: Vec<_> =
            fs::read_dir(dir.path()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["run.a"], "no tmp file left behind");
        assert_eq!(fs::read(target.join("keep")).unwrap(), b"x");
    }

    #[test]
    fn tmp_names_keep_the_full_file_name_and_never_repeat() {
        let dir = Path::new("/data");
        let (a, b) = (tmp_path(&dir.join("run.a")), tmp_path(&dir.join("run.b")));
        assert_ne!(a, b);
        assert_eq!(a.parent(), Some(dir));
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(&format!("run.a.tmp.{}.", std::process::id())), "{name}");
        assert_ne!(tmp_path(&dir.join("run.a")), tmp_path(&dir.join("run.a")));
    }

    #[test]
    fn scratch_dirs_are_fresh_and_removed_on_drop() {
        let a = ScratchDir::new("pdn-codec-scratch").unwrap();
        let b = ScratchDir::new("pdn-codec-scratch").unwrap();
        assert_ne!(a.path(), b.path());
        fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }
}
