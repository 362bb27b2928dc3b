//! FlexWatts overhead accounting (§6 of the paper).
//!
//! The LDO personality reuses the baseline IVR's high-side NMOS power
//! switch, so the only additional die area is the LDO control circuitry:
//! ≈ 0.041 mm² per hybrid VR at 14 nm (Luria et al.), which is 0.04 % of
//! an Intel dual-core client die and 0.03 % of a quad-core die. The mode
//! switch costs ≈ 94 µs of enforced idleness, well inside the ≈ 500 µs a
//! DVFS P-state transition may take.

use pdn_units::{Seconds, SquareMillimeters};

/// Additional die area of the LDO-mode circuitry per hybrid VR at 14 nm
/// (§6: 0.041 mm²).
pub(crate) const LDO_MODE_AREA: SquareMillimeters = SquareMillimeters::new(0.041);

/// Intel dual-core client die area at 14 nm (≈ 101 mm², WikiChip).
pub(crate) const DUAL_CORE_DIE: SquareMillimeters = SquareMillimeters::new(101.0);

/// Intel quad-core client die area at 14 nm (≈ 122 mm², WikiChip).
pub(crate) const QUAD_CORE_DIE: SquareMillimeters = SquareMillimeters::new(122.0);

/// The §6 overhead summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadSummary {
    /// Extra die area for the LDO mode.
    pub die_area: SquareMillimeters,
    /// Die-area overhead as a fraction of the dual-core die.
    pub dual_core_fraction: f64,
    /// Die-area overhead as a fraction of the quad-core die.
    pub quad_core_fraction: f64,
    /// Total mode-switch latency.
    pub(crate) switch_latency: Seconds,
}

/// Computes the paper's §6 overhead summary.
pub fn summary() -> OverheadSummary {
    let switch = crate::switchflow::ModeSwitchFlow::new().reference_transition();
    OverheadSummary {
        die_area: LDO_MODE_AREA,
        dual_core_fraction: LDO_MODE_AREA.get() / DUAL_CORE_DIE.get(),
        quad_core_fraction: LDO_MODE_AREA.get() / QUAD_CORE_DIE.get(),
        switch_latency: switch.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_fractions_match_section6() {
        let s = summary();
        // §6: "0.04 % and 0.03 % of the dual and quad core die sizes".
        assert!((s.dual_core_fraction * 100.0 - 0.04).abs() < 0.005);
        assert!((s.quad_core_fraction * 100.0 - 0.03).abs() < 0.005);
    }

    #[test]
    fn switch_latency_matches_section6() {
        let s = summary();
        assert!((s.switch_latency.micros() - 94.0).abs() < 1.0);
    }
}
