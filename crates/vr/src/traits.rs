//! The [`VoltageRegulator`] trait and its supporting vocabulary types.

use pdn_units::{Amps, Efficiency, Volts, Watts};
use std::fmt;

/// Where a regulator physically lives in the platform.
///
/// Placement drives the board-area/BOM model (§3.2): only off-chip
/// regulators consume board area, while on-chip regulators consume die area
/// and add design complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// On the motherboard (e.g. an MBVR first-stage VR).
    Motherboard,
    /// On the processor package (e.g. IVR air-core inductors).
    Package,
    /// On the processor die (e.g. IVR bridges, LDO VRs, power gates).
    Die,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Placement::Motherboard => "motherboard",
            Placement::Package => "package",
            Placement::Die => "die",
        };
        f.write_str(s)
    }
}

/// Voltage-regulator power states.
///
/// Board VRs expose light-load states that trade maximum current capability
/// for lower fixed losses (the paper's V_IN VR supports PS0, PS1, PS3, and
/// PS4). The deeper the state, the lower the quiescent loss and the lower
/// the current the VR can serve without exiting the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VrPowerState {
    /// Full-performance state: all phases available.
    Ps0,
    /// Light-load state: reduced phase count, lower fixed loss.
    Ps1,
    /// Deeper light-load state (diode-emulation / pulse-skipping).
    Ps2,
    /// Very light load; single phase in burst mode.
    Ps3,
    /// Near-off state used in deep package C-states.
    Ps4,
}

impl VrPowerState {
    /// All power states, in increasing depth.
    pub const ALL: [VrPowerState; 5] = [
        VrPowerState::Ps0,
        VrPowerState::Ps1,
        VrPowerState::Ps2,
        VrPowerState::Ps3,
        VrPowerState::Ps4,
    ];

    /// The fraction of the PS0 fixed (quiescent) loss that remains in this
    /// state. Deeper states shed controller and gate-drive overheads.
    pub(crate) fn fixed_loss_factor(self) -> f64 {
        match self {
            VrPowerState::Ps0 => 1.0,
            VrPowerState::Ps1 => 0.22,
            VrPowerState::Ps2 => 0.10,
            VrPowerState::Ps3 => 0.045,
            VrPowerState::Ps4 => 0.012,
        }
    }

    /// The fraction of the PS0 maximum current the VR can deliver while
    /// remaining in this state.
    pub fn current_capability_factor(self) -> f64 {
        match self {
            VrPowerState::Ps0 => 1.0,
            VrPowerState::Ps1 => 0.25,
            VrPowerState::Ps2 => 0.10,
            VrPowerState::Ps3 => 0.03,
            VrPowerState::Ps4 => 0.005,
        }
    }
}

impl fmt::Display for VrPowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VrPowerState::Ps0 => "PS0",
            VrPowerState::Ps1 => "PS1",
            VrPowerState::Ps2 => "PS2",
            VrPowerState::Ps3 => "PS3",
            VrPowerState::Ps4 => "PS4",
        };
        f.write_str(s)
    }
}

/// A regulator operating point: input/output voltage, load current, and VR
/// power state.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Volts};
/// use pdn_vr::{OperatingPoint, VrPowerState};
///
/// let op = OperatingPoint::new(Volts::new(1.8), Volts::new(0.9), Amps::new(3.0))
///     .with_power_state(VrPowerState::Ps1);
/// assert_eq!(op.output_power(), pdn_units::Watts::new(2.7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Input voltage to the regulator.
    pub(crate) vin: Volts,
    /// Regulated output voltage.
    pub(crate) vout: Volts,
    /// Load (output) current.
    pub(crate) iout: Amps,
    /// VR power state.
    pub(crate) power_state: VrPowerState,
}

impl OperatingPoint {
    /// Creates an operating point in PS0.
    pub fn new(vin: Volts, vout: Volts, iout: Amps) -> Self {
        Self { vin, vout, iout, power_state: VrPowerState::Ps0 }
    }

    /// Sets the VR power state.
    pub fn with_power_state(mut self, ps: VrPowerState) -> Self {
        self.power_state = ps;
        self
    }

    /// Output power delivered at this point.
    pub fn output_power(&self) -> Watts {
        self.vout * self.iout
    }
}

/// Error produced by regulator models.
#[derive(Debug, Clone, PartialEq)]
pub enum VrError {
    /// The requested operating point violates a device constraint.
    UnsupportedOperatingPoint {
        /// Regulator name.
        regulator: String,
        /// Why the point is unsupported.
        reason: String,
    },
    /// A device parameter was invalid at construction time.
    InvalidParameter {
        /// Parameter name.
        parameter: &'static str,
        /// The offending value.
        value: f64,
        /// Description of the permitted range.
        range: &'static str,
    },
    /// An underlying curve/quantity failed validation.
    Units(pdn_units::UnitsError),
}

impl fmt::Display for VrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VrError::UnsupportedOperatingPoint { regulator, reason } => {
                write!(f, "{regulator}: unsupported operating point: {reason}")
            }
            VrError::InvalidParameter { parameter, value, range } => {
                write!(f, "invalid parameter {parameter} = {value} (expected {range})")
            }
            VrError::Units(e) => write!(f, "units error: {e}"),
        }
    }
}

impl std::error::Error for VrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VrError::Units(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pdn_units::UnitsError> for VrError {
    fn from(e: pdn_units::UnitsError) -> Self {
        VrError::Units(e)
    }
}

/// A DC–DC conversion stage that a PDN model can query.
///
/// Implementors are the buck converter (motherboard SVR and on-die IVR),
/// the LDO regulator, tabulated efficiency surfaces, and FlexWatts's hybrid
/// regulator. The trait is object-safe so PDN topologies can hold
/// heterogeneous rails as `Box<dyn VoltageRegulator>`.
pub trait VoltageRegulator: fmt::Debug + Send + Sync {
    /// A short human-readable name (e.g. `"V_IN"`, `"IVR_Core0"`).
    fn name(&self) -> &str;

    /// Physical placement of the regulator.
    fn placement(&self) -> Placement;

    /// Power-conversion efficiency at an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::UnsupportedOperatingPoint`] when the point
    /// violates a device constraint (dropout, headroom, current limit, or a
    /// power state that cannot carry the requested current).
    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError>;

    /// The maximum current the regulator is electrically designed to
    /// support (exceeding Iccmax risks irreversible damage; §3.2).
    fn iccmax(&self) -> Amps;

    /// Whether the regulator can regulate `vin` down to `vout` at all
    /// (ignoring current limits).
    fn supports_conversion(&self, vin: Volts, vout: Volts) -> bool;

    /// Input power drawn to deliver the operating point's output power.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VoltageRegulator::efficiency`].
    fn input_power(&self, op: OperatingPoint) -> Result<Watts, VrError> {
        Ok(op.output_power() / self.efficiency(op)?)
    }

    /// Power dissipated in the regulator at the operating point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VoltageRegulator::efficiency`].
    fn loss(&self, op: OperatingPoint) -> Result<Watts, VrError> {
        Ok(self.input_power(op)? - op.output_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_state_factors_decrease_with_depth() {
        let mut prev_fixed = f64::INFINITY;
        let mut prev_cap = f64::INFINITY;
        for ps in VrPowerState::ALL {
            assert!(ps.fixed_loss_factor() < prev_fixed);
            assert!(ps.current_capability_factor() < prev_cap);
            prev_fixed = ps.fixed_loss_factor();
            prev_cap = ps.current_capability_factor();
        }
    }

    #[test]
    fn operating_point_output_power() {
        let op = OperatingPoint::new(Volts::new(1.8), Volts::new(0.5), Amps::new(2.0));
        assert_eq!(op.output_power(), Watts::new(1.0));
        assert_eq!(op.power_state, VrPowerState::Ps0);
        let op1 = op.with_power_state(VrPowerState::Ps3);
        assert_eq!(op1.power_state, VrPowerState::Ps3);
    }

    #[test]
    fn error_display_mentions_cause() {
        let e = VrError::UnsupportedOperatingPoint {
            regulator: "V_IN".into(),
            reason: "dropout".into(),
        };
        assert!(e.to_string().contains("V_IN"));
        let e = VrError::InvalidParameter { parameter: "r_on", value: -1.0, range: "> 0" };
        assert!(e.to_string().contains("r_on"));
    }

    #[test]
    fn placements_display() {
        assert_eq!(Placement::Motherboard.to_string(), "motherboard");
        assert_eq!(Placement::Die.to_string(), "die");
        assert_eq!(VrPowerState::Ps1.to_string(), "PS1");
    }
}
