//! The hybrid voltage regulator: one on-die device, two personalities.
//!
//! FlexWatts extends each baseline IVR with an LDO implemented from the
//! IVR's *existing* high-side (HS) NMOS power switch, following Luria et
//! al.'s dual-mode regulator/power-gate (§6). Both modes share the HS
//! switch, the package and die decoupling capacitors, and the routing from
//! the off-chip `V_IN` — which is what keeps FlexWatts's cost and area at
//! IVR levels (Fig. 8d,e), at the price of a slightly higher load line.

use crate::topology::PdnMode;
use pdn_units::{Amps, Efficiency, Volts};
use pdn_vr::{
    presets, BuckConverter, LdoRegulator, OperatingPoint, Placement, VoltageRegulator, VrError,
};

/// A hybrid IVR/LDO regulator for one wide-power-range domain.
#[derive(Debug, Clone)]
pub(crate) struct HybridVr {
    name: String,
    mode: PdnMode,
    ivr: BuckConverter,
    ldo: LdoRegulator,
}

impl HybridVr {
    /// Creates a hybrid VR in IVR-Mode.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Self { ivr: presets::ivr(&name), ldo: presets::ldo(&name), mode: PdnMode::IvrMode, name }
    }

    /// Switches the device personality. In a real part this happens only
    /// inside the package-C6 switch flow; the runtime enforces that.
    pub(crate) fn set_mode(&mut self, mode: PdnMode) {
        self.mode = mode;
    }
}

impl VoltageRegulator for HybridVr {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> Placement {
        Placement::Die
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        match self.mode {
            PdnMode::IvrMode => self.ivr.efficiency(op),
            PdnMode::LdoMode => self.ldo.efficiency(op),
        }
    }

    fn iccmax(&self) -> Amps {
        // The shared HS switch limits both personalities identically.
        self.ivr.iccmax().min(self.ldo.iccmax())
    }

    fn supports_conversion(&self, vin: Volts, vout: Volts) -> bool {
        match self.mode {
            PdnMode::IvrMode => self.ivr.supports_conversion(vin, vout),
            PdnMode::LdoMode => self.ldo.supports_conversion(vin, vout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_switch_changes_conversion_envelope() {
        let mut vr = HybridVr::new("HVR");
        // IVR-Mode needs 0.6 V headroom; LDO-Mode only needs Vout ≤ Vin.
        assert!(!vr.supports_conversion(Volts::new(0.9), Volts::new(0.85)));
        vr.set_mode(PdnMode::LdoMode);
        assert!(vr.supports_conversion(Volts::new(0.9), Volts::new(0.85)));
    }

    #[test]
    fn ldo_mode_deep_regulation_is_inefficient() {
        let mut vr = HybridVr::new("HVR");
        vr.set_mode(PdnMode::LdoMode);
        let op = OperatingPoint::new(Volts::new(0.9), Volts::new(0.5), Amps::new(2.0));
        let eta = vr.efficiency(op).unwrap();
        assert!(eta.get() < 0.58);
    }

    #[test]
    fn ldo_mode_bypass_beats_buck_when_voltages_align() -> Result<(), VrError> {
        let mut vr = HybridVr::new("HVR_Core0");
        // IVR-Mode: fed at 1.8 V.
        let op = OperatingPoint::new(Volts::new(1.8), Volts::new(0.7), Amps::new(4.0));
        let eta_ivr = vr.efficiency(op)?;
        // LDO-Mode: fed at (near) the domain voltage.
        vr.set_mode(PdnMode::LdoMode);
        let op = OperatingPoint::new(Volts::new(0.72), Volts::new(0.7), Amps::new(4.0));
        let eta_ldo = vr.efficiency(op)?;
        assert!(eta_ldo.get() > eta_ivr.get(), "bypass beats buck when voltages align");
        Ok(())
    }

    #[test]
    fn shared_switch_limits_both_modes() {
        let vr = HybridVr::new("HVR");
        assert!(vr.iccmax().get() <= 40.0);
    }
}
