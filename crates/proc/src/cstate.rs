//! Package C-states.
//!
//! Client processors reduce idle power through package C-states
//! (C2/C3/C6/C7/C8) and through an active state at minimum frequency
//! (C0MIN). Battery-life workloads spend most of their time deep in these
//! states (§5 Observation 3: video playback is 10 % C0MIN, 5 % C2, 85 % C8),
//! and FlexWatts reuses the package-C6 entry/exit flow to switch PDN modes
//! without voltage noise (§6).
//!
//! Per the paper's battery-life methodology (§7.1), the nominal power of
//! each state is the same at all TDPs, so the state powers here are fixed
//! paper-calibrated values rather than functions of the SoC design point.

use crate::domain::DomainKind;
use pdn_units::{Seconds, Watts};
use std::collections::BTreeMap;
use std::fmt;

/// Package-level power states, ordered from shallowest to deepest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PackageCState {
    /// Active state with cores and graphics at their minimum frequencies
    /// (the paper's "C0MIN").
    C0Min,
    /// Compute domains power-gated; the display controller fetches frame
    /// data from main memory.
    C2,
    /// Clocks stopped more aggressively; memory in self-refresh entry.
    C3,
    /// Compute contexts saved to an always-on SRAM; cores, LLC, and
    /// graphics fully off. FlexWatts performs its mode switch here.
    C6,
    /// LLC flushed; deeper uncore gating.
    C7,
    /// Deepest state: only the display controller and always-on logic are
    /// alive, reading frames from a local buffer.
    C8,
}

impl PackageCState {
    /// All modelled states, shallowest first (the Fig. 4j x-axis).
    pub const ALL: [PackageCState; 6] = [
        PackageCState::C0Min,
        PackageCState::C2,
        PackageCState::C3,
        PackageCState::C6,
        PackageCState::C7,
        PackageCState::C8,
    ];

    /// The state's number in C-state naming (0 for `C0Min`, then 2, 3,
    /// 6, 7, 8): the byte firmware images and `pdn-serve` frames store it
    /// as.
    pub fn number(self) -> u8 {
        match self {
            PackageCState::C0Min => 0,
            PackageCState::C2 => 2,
            PackageCState::C3 => 3,
            PackageCState::C6 => 6,
            PackageCState::C7 => 7,
            PackageCState::C8 => 8,
        }
    }

    /// The state a [`PackageCState::number`] byte stands for.
    pub fn from_number(number: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.number() == number)
    }

    /// Whether the compute domains (cores, LLC, graphics) are powered.
    pub fn compute_powered(self) -> bool {
        matches!(self, PackageCState::C0Min)
    }

    /// Whether this state counts as active residency (C0).
    pub fn is_active(self) -> bool {
        matches!(self, PackageCState::C0Min)
    }

    /// Paper-calibrated per-domain nominal power in this state.
    ///
    /// Totals match §5 Observation 3: C0MIN = 2.5 W, C2 = 1.2 W,
    /// C8 = 0.13 W, with intermediate states interpolated.
    pub fn nominal_domain_powers(self) -> BTreeMap<DomainKind, Watts> {
        use DomainKind::*;
        let entries: &[(DomainKind, f64)] = match self {
            PackageCState::C0Min => {
                &[(Core0, 0.35), (Core1, 0.35), (Llc, 0.35), (Gfx, 0.55), (Sa, 0.60), (Io, 0.30)]
            }
            PackageCState::C2 => &[(Llc, 0.10), (Sa, 0.75), (Io, 0.35)],
            PackageCState::C3 => &[(Llc, 0.08), (Sa, 0.55), (Io, 0.27)],
            PackageCState::C6 => &[(Sa, 0.32), (Io, 0.13)],
            PackageCState::C7 => &[(Sa, 0.19), (Io, 0.06)],
            PackageCState::C8 => &[(Sa, 0.10), (Io, 0.03)],
        };
        entries.iter().map(|&(d, w)| (d, Watts::new(w))).collect()
    }

    /// Total nominal power of the state.
    pub fn nominal_power(self) -> Watts {
        self.nominal_domain_powers().values().copied().sum()
    }

    /// Entry/exit latencies of the state transition flow. The C6 numbers
    /// are the ones FlexWatts's mode switch is built on (§6: 45 µs entry,
    /// 30 µs exit).
    pub fn latency(self) -> CStateLatency {
        let (entry_us, exit_us) = match self {
            PackageCState::C0Min => (0.0, 0.0),
            PackageCState::C2 => (2.0, 2.0),
            PackageCState::C3 => (10.0, 10.0),
            PackageCState::C6 => (45.0, 30.0),
            PackageCState::C7 => (60.0, 40.0),
            PackageCState::C8 => (100.0, 80.0),
        };
        CStateLatency { entry: Seconds::from_micros(entry_us), exit: Seconds::from_micros(exit_us) }
    }
}

impl fmt::Display for PackageCState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PackageCState::C0Min => "C0MIN",
            PackageCState::C2 => "C2",
            PackageCState::C3 => "C3",
            PackageCState::C6 => "C6",
            PackageCState::C7 => "C7",
            PackageCState::C8 => "C8",
        };
        f.write_str(s)
    }
}

/// Entry and exit latency of a package C-state transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStateLatency {
    /// Time to enter the state (context save, clock/voltage ramp-down).
    pub entry: Seconds,
    /// Time to exit the state (voltage ramp-up, context restore).
    pub exit: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_powers_match_paper_totals() {
        assert!((PackageCState::C0Min.nominal_power().get() - 2.5).abs() < 1e-9);
        assert!((PackageCState::C2.nominal_power().get() - 1.2).abs() < 1e-9);
        assert!((PackageCState::C8.nominal_power().get() - 0.13).abs() < 1e-9);
    }

    #[test]
    fn power_decreases_with_depth() {
        let mut prev = Watts::new(f64::INFINITY);
        for st in PackageCState::ALL {
            let p = st.nominal_power();
            assert!(p < prev, "{st} power {p} should be below previous {prev}");
            prev = p;
        }
    }

    #[test]
    fn only_c0min_powers_compute() {
        for st in PackageCState::ALL {
            let powers = st.nominal_domain_powers();
            let has_cores = powers.contains_key(&DomainKind::Core0);
            assert_eq!(has_cores, st.compute_powered(), "{st}");
            // SA (display path) stays powered in every modelled state.
            assert!(powers.contains_key(&DomainKind::Sa), "{st} must keep SA alive");
        }
    }

    #[test]
    fn c6_latency_matches_paper() {
        let lat = PackageCState::C6.latency();
        assert!((lat.entry.micros() - 45.0).abs() < 1e-9);
        assert!((lat.exit.micros() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn latency_grows_with_depth() {
        let mut prev = -1.0;
        for st in PackageCState::ALL {
            let lat = st.latency();
            let rt = (lat.entry + lat.exit).micros();
            assert!(rt >= prev, "{st}");
            prev = rt;
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(PackageCState::C0Min.to_string(), "C0MIN");
        assert_eq!(PackageCState::C8.to_string(), "C8");
    }
}
