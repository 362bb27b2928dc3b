//! Battery-life workload profiles (Fig. 8c of the paper).
//!
//! The four workloads commonly used to evaluate mobile battery life —
//! video playback, video conferencing, web browsing, and light gaming —
//! are dominated by package C-state residency. §7.1 gives their C0MIN
//! residencies (10 %, 20 %, 30 %, 40 % respectively); during the remaining
//! time the compute domains are idle while the system agent periodically
//! wakes for display refresh (C2) and otherwise sits in C8. §5's video
//! playback example fixes the C2 share at 5 %.

use crate::trace::{Trace, TraceInterval};
use pdn_proc::PackageCState;
use pdn_units::{Ratio, Seconds};
use std::fmt;

/// The four battery-life workloads of Fig. 8c.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatteryLifeWorkload {
    /// Video playback: 10 % C0MIN / 5 % C2 / 85 % C8 (§5 Observation 3).
    VideoPlayback,
    /// Video conferencing: 20 % C0MIN.
    VideoConferencing,
    /// Web browsing: 30 % C0MIN.
    WebBrowsing,
    /// Light gaming: 40 % C0MIN.
    LightGaming,
}

impl BatteryLifeWorkload {
    /// All four workloads in Fig. 8c order.
    pub const ALL: [BatteryLifeWorkload; 4] = [
        BatteryLifeWorkload::VideoPlayback,
        BatteryLifeWorkload::VideoConferencing,
        BatteryLifeWorkload::WebBrowsing,
        BatteryLifeWorkload::LightGaming,
    ];

    /// The power-state residency profile of the workload.
    pub fn residency(self) -> ResidencyProfile {
        let (c0min, c2, c8) = match self {
            BatteryLifeWorkload::VideoPlayback => (0.10, 0.05, 0.85),
            BatteryLifeWorkload::VideoConferencing => (0.20, 0.08, 0.72),
            BatteryLifeWorkload::WebBrowsing => (0.30, 0.10, 0.60),
            BatteryLifeWorkload::LightGaming => (0.40, 0.10, 0.50),
        };
        ResidencyProfile::new(c0min, c2, c8).expect("static residencies are valid")
    }

    /// Builds a per-frame trace: a 60 Hz frame (16.67 ms) split into the
    /// residency profile's phases, repeated `frames` times.
    pub fn as_trace(self, frames: usize) -> Trace {
        let frame_ms = 1000.0 / 60.0;
        let r = self.residency();
        // The active phase is the C0MIN state itself — "active at minimum
        // frequency" with the paper-calibrated state power (§5).
        let frame = Trace::new(
            self.to_string(),
            vec![
                TraceInterval::idle(
                    Seconds::from_millis(frame_ms * r.c0min.get()),
                    PackageCState::C0Min,
                ),
                TraceInterval::idle(Seconds::from_millis(frame_ms * r.c2.get()), PackageCState::C2),
                TraceInterval::idle(Seconds::from_millis(frame_ms * r.c8.get()), PackageCState::C8),
            ],
        );
        let mut out = Trace::new(self.to_string(), vec![]);
        for _ in 0..frames {
            out.extend(&frame);
        }
        out
    }
}

impl fmt::Display for BatteryLifeWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BatteryLifeWorkload::VideoPlayback => "video-playback",
            BatteryLifeWorkload::VideoConferencing => "video-conferencing",
            BatteryLifeWorkload::WebBrowsing => "web-browsing",
            BatteryLifeWorkload::LightGaming => "light-gaming",
        };
        f.write_str(s)
    }
}

/// Power-state residencies of a battery-life workload: the fractions of
/// time spent in C0MIN, C2, and C8 (they sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyProfile {
    /// Active (minimum-frequency) residency.
    pub(crate) c0min: Ratio,
    /// Display-refresh memory-access residency.
    pub(crate) c2: Ratio,
    /// Deep-idle residency.
    pub(crate) c8: Ratio,
}

impl ResidencyProfile {
    /// Creates a profile; the three residencies must sum to 1.
    ///
    /// # Errors
    ///
    /// Returns a [`pdn_units::UnitsError`] if any share is invalid or the
    /// shares do not sum to 1 (±1e-9).
    pub fn new(c0min: f64, c2: f64, c8: f64) -> Result<Self, pdn_units::UnitsError> {
        let sum = c0min + c2 + c8;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(pdn_units::UnitsError::OutOfRange {
                what: "residency sum",
                value: sum,
                range: "exactly 1",
            });
        }
        Ok(Self { c0min: Ratio::new(c0min)?, c2: Ratio::new(c2)?, c8: Ratio::new(c8)? })
    }

    /// Iterates `(state, residency)` pairs.
    pub fn entries(&self) -> [(PackageCState, Ratio); 3] {
        [
            (PackageCState::C0Min, self.c0min),
            (PackageCState::C2, self.c2),
            (PackageCState::C8, self.c8),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_playback_matches_section5_numbers() {
        let r = BatteryLifeWorkload::VideoPlayback.residency();
        assert!((r.c0min.get() - 0.10).abs() < 1e-12);
        assert!((r.c2.get() - 0.05).abs() < 1e-12);
        assert!((r.c8.get() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn c0min_residencies_match_section7() {
        let expected = [0.10, 0.20, 0.30, 0.40];
        for (wl, want) in BatteryLifeWorkload::ALL.iter().zip(expected) {
            assert!((wl.residency().c0min.get() - want).abs() < 1e-12, "{wl}");
        }
    }

    #[test]
    fn residencies_always_sum_to_one() {
        for wl in BatteryLifeWorkload::ALL {
            let r = wl.residency();
            let sum: f64 = r.entries().iter().map(|(_, share)| share.get()).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(ResidencyProfile::new(0.5, 0.2, 0.2).is_err());
    }

    #[test]
    fn trace_reproduces_residency() {
        let t = BatteryLifeWorkload::WebBrowsing.as_trace(10);
        // C0MIN counts as active residency (§5: RC0MIN).
        assert!((t.active_residency().get() - 0.30).abs() < 1e-9);
        assert_eq!(t.intervals().len(), 30);
        assert_eq!(t.dominant_type(), None, "battery traces carry no compute type");
    }
}
