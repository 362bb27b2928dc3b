//! PDNspot model parameters (Table 2 of the paper).
//!
//! Every quantity that Table 2 lists as a model input is collected here
//! with the paper's values as defaults: per-PDN load-line impedances,
//! VR tolerance bands, power-gate impedance, the leakage exponent, and the
//! platform supply voltage. Topologies copy the parameter set at
//! construction, so experiments can sweep individual parameters without
//! global state.

use pdn_proc::power::LEAKAGE_VOLTAGE_EXPONENT;
use pdn_units::{Ohms, Volts};
use pdn_vr::{ToleranceBand, VrPowerState};
use pdn_workload::codec::Fnv1a;

/// Load-line impedances of one PDN topology (Table 2, "Load-line
/// Impedance" row; milliohm values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLines {
    /// Shared chip-input rail (V_IN), where present.
    pub vin: Ohms,
    /// Dedicated compute rails (MBVR V_Cores / V_GFX).
    pub compute: Ohms,
    /// Dedicated SA rail.
    pub sa: Ohms,
    /// Dedicated IO rail.
    pub io: Ohms,
}

/// The complete PDNspot parameter set.
///
/// # Examples
///
/// ```
/// use pdnspot::params::ModelParams;
///
/// let p = ModelParams::paper_defaults();
/// assert!((p.mbvr_loadlines.compute.milliohms() - 2.5).abs() < 1e-9);
/// assert!((p.leakage_exponent - 2.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Platform supply (battery/PSU) voltage presented to board VRs
    /// (7.2–20 V; default 7.2 V, the Fig. 3 sweep value).
    pub supply_voltage: Volts,
    /// IVR PDN load lines (Table 2: V_IN = 1 mΩ).
    pub ivr_loadlines: LoadLines,
    /// MBVR PDN load lines (Table 2: cores/GFX/SA/IO = 2.5/2.5/7/4 mΩ).
    pub mbvr_loadlines: LoadLines,
    /// LDO PDN load lines (Table 2: V_IN/SA/IO = 1.25/7/4 mΩ).
    pub ldo_loadlines: LoadLines,
    /// FlexWatts hybrid load lines: the shared-resource penalty makes them
    /// slightly higher than the pure PDN each mode mimics (§6/§7: "<1 %
    /// performance loss due to FlexWatts's higher load-line").
    pub flexwatts_loadlines: LoadLines,
    /// IVR PDN tolerance band (Table 2: 18–22 mV; default mid-range).
    pub ivr_tob: ToleranceBand,
    /// MBVR PDN tolerance band (Table 2: 18–20 mV).
    pub mbvr_tob: ToleranceBand,
    /// LDO PDN tolerance band (Table 2: 16–18 mV).
    pub ldo_tob: ToleranceBand,
    /// First-stage VR output voltage in IVR-style PDNs (e.g. 1.8 V).
    pub vin_level: Volts,
    /// Leakage-vs-voltage guardband exponent (δ = 2.8, §3.1).
    pub leakage_exponent: f64,
    /// Deepest light-load state an *on-die* IVR may use. Real FIVRs have
    /// limited light-load machinery compared to board VRs, which is the
    /// root of Observation 3; the default caps them at PS1.
    pub(crate) ivr_lightload_cap: VrPowerState,
    /// Deepest light-load state a board VR may use.
    pub board_lightload_cap: VrPowerState,
}

impl ModelParams {
    /// A 64-bit fingerprint over every parameter (exact `f64` bit
    /// patterns, no rounding): two parameter sets share a fingerprint only
    /// when they are numerically indistinguishable to the power models.
    /// Used as the parameter half of [`crate::topology::pdn_memo_token`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.supply_voltage.get().to_bits());
        for ll in [
            &self.ivr_loadlines,
            &self.mbvr_loadlines,
            &self.ldo_loadlines,
            &self.flexwatts_loadlines,
        ] {
            h.u64(ll.vin.get().to_bits());
            h.u64(ll.compute.get().to_bits());
            h.u64(ll.sa.get().to_bits());
            h.u64(ll.io.get().to_bits());
        }
        for tob in [&self.ivr_tob, &self.mbvr_tob, &self.ldo_tob] {
            h.u64(tob.controller.get().to_bits());
            h.u64(tob.current_sense.get().to_bits());
            h.u64(tob.ripple.get().to_bits());
        }
        h.u64(self.vin_level.get().to_bits());
        h.u64(self.leakage_exponent.to_bits());
        h.u64(self.ivr_lightload_cap as u64);
        h.u64(self.board_lightload_cap as u64);
        h.finish()
    }

    /// The paper's Table 2 parameter values.
    pub fn paper_defaults() -> Self {
        Self {
            supply_voltage: Volts::new(7.2),
            ivr_loadlines: LoadLines {
                vin: Ohms::from_milliohms(1.0),
                compute: Ohms::from_milliohms(1.0),
                sa: Ohms::from_milliohms(1.0),
                io: Ohms::from_milliohms(1.0),
            },
            mbvr_loadlines: LoadLines {
                vin: Ohms::from_milliohms(2.5),
                compute: Ohms::from_milliohms(2.5),
                sa: Ohms::from_milliohms(7.0),
                io: Ohms::from_milliohms(4.0),
            },
            ldo_loadlines: LoadLines {
                vin: Ohms::from_milliohms(1.25),
                compute: Ohms::from_milliohms(1.25),
                sa: Ohms::from_milliohms(7.0),
                io: Ohms::from_milliohms(4.0),
            },
            flexwatts_loadlines: LoadLines {
                vin: Ohms::from_milliohms(1.4),
                compute: Ohms::from_milliohms(1.4),
                sa: Ohms::from_milliohms(7.0),
                io: Ohms::from_milliohms(4.0),
            },
            ivr_tob: ToleranceBand::from_total_millivolts(20.0),
            mbvr_tob: ToleranceBand::from_total_millivolts(18.0),
            ldo_tob: ToleranceBand::from_total_millivolts(18.0),
            vin_level: Volts::new(1.8),
            leakage_exponent: LEAKAGE_VOLTAGE_EXPONENT,
            ivr_lightload_cap: VrPowerState::Ps1,
            board_lightload_cap: VrPowerState::Ps4,
        }
    }
}

impl Default for ModelParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = ModelParams::paper_defaults();
        assert!((p.ivr_loadlines.vin.milliohms() - 1.0).abs() < 1e-9);
        assert!((p.ldo_loadlines.vin.milliohms() - 1.25).abs() < 1e-9);
        assert!((p.mbvr_loadlines.sa.milliohms() - 7.0).abs() < 1e-9);
        assert!((p.mbvr_loadlines.io.milliohms() - 4.0).abs() < 1e-9);
        let tob = p.ivr_tob.total().millivolts();
        assert!((18.0..=22.0).contains(&tob));
        let tob = p.ldo_tob.total().millivolts();
        assert!((16.0..=18.0).contains(&tob));
        assert_eq!(p.vin_level, Volts::new(1.8));
    }

    #[test]
    fn flexwatts_loadline_is_slightly_worse_than_both_pure_modes() {
        let p = ModelParams::paper_defaults();
        assert!(p.flexwatts_loadlines.vin > p.ivr_loadlines.vin);
        assert!(p.flexwatts_loadlines.vin > p.ldo_loadlines.vin);
        // ...but far below the dedicated MBVR compute rails.
        assert!(p.flexwatts_loadlines.vin < p.mbvr_loadlines.compute);
    }

    #[test]
    fn default_trait_matches_paper_defaults() {
        assert_eq!(ModelParams::default(), ModelParams::paper_defaults());
    }

    #[test]
    fn fingerprint_separates_parameter_sets() {
        let base = ModelParams::paper_defaults();
        assert_eq!(base.fingerprint(), ModelParams::paper_defaults().fingerprint());
        let mut tweaked = ModelParams::paper_defaults();
        tweaked.leakage_exponent += 1e-9;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let mut capped = ModelParams::paper_defaults();
        capped.ivr_lightload_cap = VrPowerState::Ps0;
        assert_ne!(base.fingerprint(), capped.fingerprint());
    }
}
