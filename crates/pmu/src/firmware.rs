//! Firmware images for the predictor's ETEE curve sets.
//!
//! A real PMU stores its curves as tables in firmware flash (footnote 11
//! of the paper). This module serialises an [`EteeCurveSet`] into a
//! compact, versioned, checksummed binary image — the artefact a
//! production FlexWatts would ship inside its power-management firmware —
//! and parses it back with full validation. The image size is the honest
//! answer to "how much flash does the predictor cost?" (a few kilobytes
//! for the paper's table resolution).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  u32  = 0x50444E46 ("PDNF")
//! version u16 = 1
//! section count u16
//! per section:
//!   tag u8        (0 = active workload type, 1 = idle state)
//!   key u8        (WorkloadType / PackageCState discriminant)
//!   rows u16, cols u16
//!   row axis  [f64; rows]
//!   col axis  [f64; cols]
//!   values    [f64; rows*cols]
//! crc32 u32 over everything before it
//! ```

use crate::tables::EteeCurveSet;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pdn_proc::PackageCState;
use pdn_units::Grid2;
use pdn_workload::tracefile::crc32;
use pdn_workload::WorkloadType;
use std::collections::BTreeMap;
use std::fmt;

const MAGIC: u32 = 0x5044_4E46; // "PDNF"
const VERSION: u16 = 1;

/// Error produced when parsing a firmware image.
#[derive(Debug, Clone, PartialEq)]
pub enum FirmwareError {
    /// The image does not start with the PDNF magic.
    BadMagic(u32),
    /// The image version is not supported.
    UnsupportedVersion(u16),
    /// The image is shorter than its own headers claim.
    Truncated,
    /// The CRC32 over the payload does not match.
    ChecksumMismatch {
        /// CRC stored in the image.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A section carried an unknown tag or key.
    BadSection {
        /// The offending tag byte.
        tag: u8,
        /// The offending key byte.
        key: u8,
    },
    /// A section's grid failed validation.
    BadGrid(pdn_units::UnitsError),
    /// The image carries payload bytes after the last declared section —
    /// an oversized image whose extra content no parser field accounts
    /// for (a build bug, or smuggled data under a recomputed CRC).
    TrailingBytes {
        /// Number of unaccounted payload bytes before the CRC trailer.
        extra: usize,
    },
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::BadMagic(m) => write!(f, "bad firmware magic {m:#010x}"),
            FirmwareError::UnsupportedVersion(v) => write!(f, "unsupported firmware version {v}"),
            FirmwareError::Truncated => write!(f, "firmware image truncated"),
            FirmwareError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "firmware checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FirmwareError::BadSection { tag, key } => {
                write!(f, "unknown firmware section tag {tag}/key {key}")
            }
            FirmwareError::BadGrid(e) => write!(f, "invalid firmware grid: {e}"),
            FirmwareError::TrailingBytes { extra } => {
                write!(f, "firmware image carries {extra} unaccounted trailing bytes")
            }
        }
    }
}

impl std::error::Error for FirmwareError {}

/// A serialised predictor curve set.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareImage {
    bytes: Bytes,
}

impl FirmwareImage {
    /// Serialises a curve set into a firmware image.
    pub fn build(set: &EteeCurveSet) -> Self {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        let sections = set.active.len() + set.idle.len();
        buf.put_u16_le(sections as u16);
        for (wl, grid) in &set.active {
            put_section(&mut buf, 0, workload_key(*wl), grid);
        }
        for (state, grid) in &set.idle {
            put_section(&mut buf, 1, state_key(*state), grid);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        Self { bytes: buf.freeze() }
    }

    /// The raw image bytes (what would be flashed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The image size in bytes — the predictor's flash footprint.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (never true for a built image).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Parses and validates an image back into a curve set.
    ///
    /// # Errors
    ///
    /// Returns a [`FirmwareError`] for malformed, truncated, corrupted, or
    /// version-mismatched images.
    pub fn parse(data: &[u8]) -> Result<EteeCurveSet, FirmwareError> {
        if data.len() < 12 {
            return Err(FirmwareError::Truncated);
        }
        let (payload, crc_bytes) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(FirmwareError::ChecksumMismatch { stored, computed });
        }
        let mut buf = payload;
        let magic = buf.get_u32_le();
        if magic != MAGIC {
            return Err(FirmwareError::BadMagic(magic));
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(FirmwareError::UnsupportedVersion(version));
        }
        let sections = buf.get_u16_le() as usize;
        let mut active = BTreeMap::new();
        let mut idle = BTreeMap::new();
        for _ in 0..sections {
            if buf.remaining() < 6 {
                return Err(FirmwareError::Truncated);
            }
            let tag = buf.get_u8();
            let key = buf.get_u8();
            let rows = buf.get_u16_le() as usize;
            let cols = buf.get_u16_le() as usize;
            let need = 8 * (rows + cols + rows * cols);
            if buf.remaining() < need {
                return Err(FirmwareError::Truncated);
            }
            let mut read_f64s =
                |n: usize| -> Vec<f64> { (0..n).map(|_| buf.get_f64_le()).collect() };
            let row_axis = read_f64s(rows);
            let col_axis = read_f64s(cols);
            let values = read_f64s(rows * cols);
            let grid =
                Grid2::from_rows(row_axis, col_axis, values).map_err(FirmwareError::BadGrid)?;
            match tag {
                0 => {
                    let wl =
                        workload_from_key(key).ok_or(FirmwareError::BadSection { tag, key })?;
                    active.insert(wl, grid);
                }
                1 => {
                    let state =
                        state_from_key(key).ok_or(FirmwareError::BadSection { tag, key })?;
                    idle.insert(state, grid);
                }
                _ => return Err(FirmwareError::BadSection { tag, key }),
            }
        }
        if buf.remaining() > 0 {
            return Err(FirmwareError::TrailingBytes { extra: buf.remaining() });
        }
        Ok(EteeCurveSet { active, idle })
    }
}

fn put_section(buf: &mut BytesMut, tag: u8, key: u8, grid: &Grid2) {
    buf.put_u8(tag);
    buf.put_u8(key);
    let (rows, cols) = grid.shape();
    buf.put_u16_le(rows as u16);
    buf.put_u16_le(cols as u16);
    for &r in grid.row_axis() {
        buf.put_f64_le(r);
    }
    for &c in grid.col_axis() {
        buf.put_f64_le(c);
    }
    for r in 0..rows {
        for c in 0..cols {
            let row = grid.row_axis()[r];
            let col = grid.col_axis()[c];
            buf.put_f64_le(grid.eval(row, col));
        }
    }
}

fn workload_key(wl: WorkloadType) -> u8 {
    match wl {
        WorkloadType::SingleThread => 0,
        WorkloadType::MultiThread => 1,
        WorkloadType::Graphics => 2,
        WorkloadType::BatteryLife => 3,
    }
}

fn workload_from_key(key: u8) -> Option<WorkloadType> {
    Some(match key {
        0 => WorkloadType::SingleThread,
        1 => WorkloadType::MultiThread,
        2 => WorkloadType::Graphics,
        3 => WorkloadType::BatteryLife,
        _ => return None,
    })
}

fn state_key(state: PackageCState) -> u8 {
    match state {
        PackageCState::C0Min => 0,
        PackageCState::C2 => 2,
        PackageCState::C3 => 3,
        PackageCState::C6 => 6,
        PackageCState::C7 => 7,
        PackageCState::C8 => 8,
    }
}

fn state_from_key(key: u8) -> Option<PackageCState> {
    Some(match key {
        0 => PackageCState::C0Min,
        2 => PackageCState::C2,
        3 => PackageCState::C3,
        6 => PackageCState::C6,
        7 => PackageCState::C7,
        8 => PackageCState::C8,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;
    use pdn_units::{ApplicationRatio, Efficiency, Watts};
    use pdnspot::{IvrPdn, ModelParams};

    fn curve_set() -> EteeCurveSet {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        EteeCurveSet::tabulate(&pdn, &[4.0, 18.0, 50.0], &[0.4, 0.6, 0.8], client_soc).unwrap()
    }

    #[test]
    fn round_trip_preserves_every_lookup() {
        let original = curve_set();
        let image = FirmwareImage::build(&original);
        let parsed = FirmwareImage::parse(image.as_bytes()).unwrap();
        for wl in WorkloadType::ACTIVE_TYPES {
            for tdp in [4.0, 11.0, 18.0, 31.0, 50.0] {
                for ar in [0.4, 0.55, 0.8] {
                    let a: Efficiency = original
                        .lookup_active(wl, Watts::new(tdp), ApplicationRatio::new(ar).unwrap())
                        .unwrap();
                    let b = parsed
                        .lookup_active(wl, Watts::new(tdp), ApplicationRatio::new(ar).unwrap())
                        .unwrap();
                    assert!((a.get() - b.get()).abs() < 1e-12);
                }
            }
        }
        for state in PackageCState::ALL {
            let a = original.lookup_idle(state, Watts::new(25.0)).unwrap();
            let b = parsed.lookup_idle(state, Watts::new(25.0)).unwrap();
            assert!((a.get() - b.get()).abs() < 1e-12);
        }
    }

    #[test]
    fn image_size_is_a_few_kilobytes() {
        let image = FirmwareImage::build(&curve_set());
        assert!(!image.is_empty());
        // 3 types × 3×3 grid + 6 states × 2×2 grid, f64 payload + axes.
        assert!(image.len() > 300 && image.len() < 4096, "flash footprint = {} bytes", image.len());
    }

    #[test]
    fn corruption_is_detected() {
        let image = FirmwareImage::build(&curve_set());
        let mut corrupted = image.as_bytes().to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(
            FirmwareImage::parse(&corrupted),
            Err(FirmwareError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let image = FirmwareImage::build(&curve_set());
        assert_eq!(FirmwareImage::parse(&image.as_bytes()[..8]), Err(FirmwareError::Truncated));
        let mut bad = image.as_bytes().to_vec();
        bad[0] ^= 0xFF;
        // Flipping the magic also breaks the CRC; fix the CRC to isolate
        // the magic check.
        let len = bad.len();
        let crc = super::crc32(&bad[..len - 4]);
        bad[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(FirmwareImage::parse(&bad), Err(FirmwareError::BadMagic(_))));
    }

    #[test]
    fn oversized_images_are_rejected_even_with_a_valid_crc() {
        // Padding after the last section is invisible to the section
        // walk, so a hostile (or buggy) flasher could hide data there and
        // recompute the CRC. The parser must account for every byte.
        let image = FirmwareImage::build(&curve_set());
        let mut oversized = image.as_bytes()[..image.len() - 4].to_vec();
        oversized.extend_from_slice(&[0xAB; 7]);
        let crc = super::crc32(&oversized);
        oversized.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            FirmwareImage::parse(&oversized),
            Err(FirmwareError::TrailingBytes { extra: 7 })
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 of "123456789".
        assert_eq!(super::crc32(b"123456789"), 0xCBF4_3926);
    }
}
