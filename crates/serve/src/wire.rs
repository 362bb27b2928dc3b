//! The daemon's outer frame codec and byte-level primitives.
//!
//! Every message — request or response, TCP or stdio — travels inside
//! one frame:
//!
//! ```text
//! magic  u32 LE   "PDNS"
//! length u32 LE   body byte count (bounded by MAX_BODY)
//! body   [u8]     protocol payload (see `protocol`)
//! crc32  u32 LE   CRC-32 (IEEE) of the body
//! ```
//!
//! The codec mirrors the PMU firmware-image contract
//! (`pdn_pmu::firmware`): decoding arbitrary bytes **never panics** —
//! truncated, oversized, or bit-flipped input surfaces a typed
//! [`FrameError`] instead. Both formats use the same CRC-32 function,
//! [`crc32`].

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the ASCII bytes `PDNS` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PDNS");

/// Hard upper bound on one frame's body, protecting the daemon from a
/// hostile or corrupted length prefix. Large sweep responses fit with
/// room to spare.
pub const MAX_BODY: usize = 4 << 20;

/// Bytes of framing overhead around a body (magic + length + CRC).
pub const OVERHEAD: usize = 12;

/// CRC-32 (IEEE 802.3, reflected): the one checksum shared by wire
/// frames, snapshots, trace files and PMU firmware images.
pub use pdn_workload::tracefile::crc32;

/// Why a frame could not be read or decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or the declared body length.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic(u32),
    /// The declared body length exceeds [`MAX_BODY`].
    Oversized(usize),
    /// The body failed its CRC-32 check.
    ChecksumMismatch {
        /// CRC carried by the frame trailer.
        expected: u32,
        /// CRC computed over the received body.
        found: u32,
    },
    /// An I/O error from the underlying transport.
    Io(io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::Oversized(len) => {
                write!(f, "frame body of {len} bytes exceeds the {MAX_BODY}-byte bound")
            }
            FrameError::ChecksumMismatch { expected, found } => {
                write!(f, "frame checksum mismatch: header {expected:#010x}, body {found:#010x}")
            }
            FrameError::Io(kind) => write!(f, "frame transport error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// Wraps `body` in a complete frame.
#[must_use]
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + OVERHEAD);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(u32::try_from(body.len()).unwrap_or(u32::MAX)).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Decodes one frame from the front of `buf`, returning the body slice
/// and the total bytes consumed. Never panics on malformed input.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first defect found.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < 8 {
        return Err(FrameError::Truncated);
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Oversized(len));
    }
    let total = OVERHEAD + len;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let body = &buf[8..8 + len];
    let expected = u32::from_le_bytes([buf[8 + len], buf[9 + len], buf[10 + len], buf[11 + len]]);
    let found = crc32(body);
    if expected != found {
        return Err(FrameError::ChecksumMismatch { expected, found });
    }
    Ok((body, total))
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed between messages).
///
/// # Errors
///
/// Returns a [`FrameError`] on transport errors or malformed frames.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Oversized(len));
    }
    let mut rest = vec![0u8; len + 4];
    r.read_exact(&mut rest).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::from(e)
        }
    })?;
    let body = &rest[..len];
    let expected = u32::from_le_bytes([rest[len], rest[len + 1], rest[len + 2], rest[len + 3]]);
    let found = crc32(body);
    if expected != found {
        return Err(FrameError::ChecksumMismatch { expected, found });
    }
    Ok(Some(rest[..len].to_vec()))
}

/// Writes `body` as one complete frame and flushes.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(body))?;
    w.flush()?;
    Ok(())
}

/// Why a frame body could not be decoded into a protocol message.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the field being read.
    Truncated,
    /// An enum discriminant outside the protocol's range.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeding the protocol's per-field bound.
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

/// Longest string the protocol accepts (error messages, PDN names).
pub const MAX_STR: usize = 4096;

/// Longest list the protocol accepts (rails, surface values).
pub const MAX_LIST: usize = 8192;

/// Append-only body writer. Infallible: bounds are enforced on decode.
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

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked body reader. Every accessor fails with a typed
/// [`DecodeError`] instead of panicking.
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

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string (bounded by [`MAX_STR`]).
    pub fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return Err(DecodeError::BadLength { what, len });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Utf8)
    }

    /// Reads length-prefixed raw bytes with an explicit bound.
    pub fn bytes(&mut self, what: &'static str, max: usize) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(DecodeError::BadLength { what, len });
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips() {
        let body = b"hello pdn".to_vec();
        let frame = encode_frame(&body);
        let (decoded, used) = decode_frame(&frame).expect("valid frame");
        assert_eq!(decoded, &body[..]);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn truncated_and_corrupted_frames_are_typed_errors() {
        let frame = encode_frame(b"payload");
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]).unwrap_err(), FrameError::Truncated);
        }
        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad_magic), Err(FrameError::BadMagic(_))));
        let mut flipped = frame.clone();
        flipped[9] ^= 0x01;
        assert!(matches!(decode_frame(&flipped), Err(FrameError::ChecksumMismatch { .. })));
        let mut oversized = frame;
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&oversized), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn stream_reader_handles_eof_and_sequential_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"one"));
        stream.extend_from_slice(&encode_frame(b"two"));
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
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
}
