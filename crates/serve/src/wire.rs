//! The daemon's outer frame codec.
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
//! [`FrameError`] instead. Bodies are written and read with the shared
//! little-endian cursor of [`pdn_workload::codec`], which also supplies
//! the CRC-32 both formats use.

use pdn_workload::codec::{crc32, BodyReader, BodyWriter};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the ASCII bytes `PDNS` read as a little-endian `u32`.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"PDNS");

/// Hard upper bound on one frame's body, protecting the daemon from a
/// hostile or corrupted length prefix. Large sweep responses fit with
/// room to spare.
pub(crate) const MAX_BODY: usize = 4 << 20;

/// Bytes of framing overhead around a body (magic + length + CRC).
pub(crate) const OVERHEAD: usize = 12;

/// Longest list the protocol accepts (rails, surface values).
pub(crate) const MAX_LIST: usize = 8192;

/// Why a frame could not be read or decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or the declared body length.
    Truncated,
    /// The first four bytes are not `MAGIC`.
    BadMagic(u32),
    /// The declared body length exceeds `MAX_BODY`.
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
    let mut w = BodyWriter::with_capacity(body.len() + OVERHEAD);
    w.u32(MAGIC);
    w.bytes(body);
    w.u32(crc32(body));
    w.into_bytes()
}

/// Reads the frame header (magic + body length) and checks both.
fn read_header(r: &mut BodyReader<'_>) -> Result<usize, FrameError> {
    let (Ok(magic), Ok(len)) = (r.u32(), r.u32()) else {
        return Err(FrameError::Truncated);
    };
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = len as usize;
    if len > MAX_BODY {
        return Err(FrameError::Oversized(len));
    }
    Ok(len)
}

/// Reads a `len`-byte body and its CRC trailer, and checks the CRC.
fn read_body<'a>(r: &mut BodyReader<'a>, len: usize) -> Result<&'a [u8], FrameError> {
    let (Ok(body), Ok(expected)) = (r.take(len), r.u32()) else {
        return Err(FrameError::Truncated);
    };
    let found = crc32(body);
    if expected != found {
        return Err(FrameError::ChecksumMismatch { expected, found });
    }
    Ok(body)
}

/// Decodes one frame from the front of `buf`, returning the body slice
/// and the total bytes consumed. Never panics on malformed input.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first defect found.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let mut r = BodyReader::new(buf);
    let len = read_header(&mut r)?;
    let body = read_body(&mut r, len)?;
    Ok((body, r.position()))
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
    let len = read_header(&mut BodyReader::new(&header))?;
    let mut rest = vec![0u8; len + 4];
    r.read_exact(&mut rest).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::from(e)
        }
    })?;
    read_body(&mut BodyReader::new(&rest), len)?;
    rest.truncate(len);
    Ok(Some(rest))
}

/// Writes `body` as one complete frame and flushes.
///
/// # Errors
///
/// Propagates transport errors.
pub(crate) fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(body))?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The frame trailer is the CRC-32 (IEEE) of the body.
        let frame = encode_frame(b"123456789");
        let trailer = &frame[frame.len() - 4..];
        assert_eq!(u32::from_le_bytes(trailer.try_into().unwrap()), 0xCBF4_3926);
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
}
