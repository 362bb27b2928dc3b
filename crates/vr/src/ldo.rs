//! Low-dropout (LDO) linear regulator model.
//!
//! The LDO PDN (AMD Zen [Singh et al., ISSCC 2017/JSSC 2018]) and
//! FlexWatts's LDO-Mode use on-die LDO VRs built from power-gate switches
//! (Luria et al., JSSC 2016). An LDO's efficiency is the voltage ratio times
//! its current efficiency: `η_LDO = (Vout / Vin) · Ie` (Eq. 10 of the
//! paper), with `Ie ≈ 99.1 %` measured in Table 2.
//!
//! The model exposes the three operation modes described in §2.3:
//!
//! * [`LdoMode::Regulation`] — linear regulation from `Vin` down to `Vout`;
//! * [`LdoMode::Bypass`] — the input is connected straight to the output
//!   (used when a domain needs the shared rail voltage unchanged); the only
//!   loss is the `I²·R` drop across the pass switch;
//! * [`LdoMode::PowerGate`] — the domain is disconnected (idle domains).

use crate::traits::{OperatingPoint, Placement, VoltageRegulator, VrError};
use pdn_units::{Amps, Efficiency, Ohms, Volts};

/// Operating mode of an LDO regulator (§2.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LdoMode {
    /// Linear regulation: `Vout < Vin`, `η ≈ (Vout/Vin)·Ie`.
    Regulation,
    /// Pass-through: output tied to input through the pass switch.
    Bypass,
    /// The pass device is off; the domain is power-gated.
    PowerGate,
}

impl std::fmt::Display for LdoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LdoMode::Regulation => "regulation",
            LdoMode::Bypass => "bypass",
            LdoMode::PowerGate => "power-gate",
        };
        f.write_str(s)
    }
}

/// An on-die low-dropout linear regulator.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Volts};
/// use pdn_vr::{LdoRegulator, OperatingPoint, VoltageRegulator};
///
/// let ldo = LdoRegulator::paper_default("LDO_Core0");
/// // Regulating 0.9 V down to 0.5 V is inefficient: η ≈ 0.5/0.9 · 0.991.
/// let op = OperatingPoint::new(Volts::new(0.9), Volts::new(0.5), Amps::new(2.0));
/// let eta = ldo.efficiency(op)?;
/// assert!((eta.get() - 0.5 / 0.9 * 0.991).abs() < 1e-6);
/// # Ok::<(), pdn_vr::VrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LdoRegulator {
    name: String,
    /// Current efficiency `Ie = Iout / Iin` (quiescent current overhead).
    current_efficiency: Efficiency,
    /// Minimum dropout voltage required in regulation mode.
    dropout: Volts,
    /// Pass-switch series resistance (relevant in bypass mode).
    switch_resistance: Ohms,
    /// Maximum supported current.
    iccmax: Amps,
}

impl LdoRegulator {
    /// Creates an LDO regulator.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] for non-positive dropout,
    /// resistance, or current limit.
    pub fn new(
        name: impl Into<String>,
        current_efficiency: Efficiency,
        dropout: Volts,
        switch_resistance: Ohms,
        iccmax: Amps,
    ) -> Result<Self, VrError> {
        if dropout.get() < 0.0 {
            return Err(VrError::InvalidParameter {
                parameter: "dropout",
                value: dropout.get(),
                range: "≥ 0",
            });
        }
        if switch_resistance.get() <= 0.0 {
            return Err(VrError::InvalidParameter {
                parameter: "switch_resistance",
                value: switch_resistance.get(),
                range: "> 0",
            });
        }
        if iccmax.get() <= 0.0 {
            return Err(VrError::InvalidParameter {
                parameter: "iccmax",
                value: iccmax.get(),
                range: "> 0",
            });
        }
        Ok(Self { name: name.into(), current_efficiency, dropout, switch_resistance, iccmax })
    }

    /// The paper-default LDO: 99.1 % current efficiency (Table 2), 20 mV
    /// dropout, 3.2 mΩ pass switch (a power-gate array reused as an LDO,
    /// Luria et al.), 40 A Iccmax.
    pub fn paper_default(name: impl Into<String>) -> Self {
        Self::new(
            name,
            Efficiency::new(0.991).expect("0.991 is a valid efficiency"),
            Volts::from_millivolts(20.0),
            Ohms::from_milliohms(3.2),
            Amps::new(40.0),
        )
        .expect("paper defaults are valid")
    }

    /// The LDO current efficiency `Ie`.
    pub fn current_efficiency(&self) -> Efficiency {
        self.current_efficiency
    }

    /// Determines the mode implied by an operating point: bypass when the
    /// voltages are equal (within the dropout resolution), regulation when
    /// `Vout < Vin`.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::UnsupportedOperatingPoint`] when `Vout > Vin`
    /// (an LDO cannot boost).
    pub(crate) fn mode_for(&self, op: OperatingPoint) -> Result<LdoMode, VrError> {
        if op.vout > op.vin {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: format!("cannot boost {} to {}", op.vin, op.vout),
            });
        }
        if op.vin - op.vout < self.dropout {
            Ok(LdoMode::Bypass)
        } else {
            Ok(LdoMode::Regulation)
        }
    }

    /// Efficiency in bypass mode at a given current: the only loss is the
    /// resistive drop across the pass switch.
    fn bypass_efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        let drop = op.iout * self.switch_resistance;
        let eta = op.vout.get() / (op.vout + drop).get();
        Ok(Efficiency::new(eta * self.current_efficiency.get())?)
    }

    fn check_current(&self, op: &OperatingPoint) -> Result<(), VrError> {
        if op.iout.get() < 0.0 || op.iout > self.iccmax {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: format!("current {} outside [0, {}]", op.iout, self.iccmax),
            });
        }
        Ok(())
    }
}

impl VoltageRegulator for LdoRegulator {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> Placement {
        Placement::Die
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        self.check_current(&op)?;
        if op.iout.get() <= 0.0 {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: "efficiency is undefined at zero load".into(),
            });
        }
        match self.mode_for(op)? {
            LdoMode::Bypass => self.bypass_efficiency(op),
            LdoMode::Regulation | LdoMode::PowerGate => {
                // Eq. 10: η_LDO = (Vout / Vin) · Ie.
                let eta = (op.vout.get() / op.vin.get()) * self.current_efficiency.get();
                Ok(Efficiency::new(eta)?)
            }
        }
    }

    fn iccmax(&self) -> Amps {
        self.iccmax
    }

    fn supports_conversion(&self, vin: Volts, vout: Volts) -> bool {
        vout <= vin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(vin: f64, vout: f64, iout: f64) -> OperatingPoint {
        OperatingPoint::new(Volts::new(vin), Volts::new(vout), Amps::new(iout))
    }

    #[test]
    fn regulation_efficiency_is_voltage_ratio_times_ie() {
        let ldo = LdoRegulator::paper_default("LDO");
        let eta = ldo.efficiency(op(1.0, 0.9, 5.0)).unwrap();
        assert!((eta.get() - 0.9 * 0.991).abs() < 1e-9);
    }

    #[test]
    fn deep_regulation_is_very_inefficient() {
        // §5 Observation 2: graphics at 0.9 V with cores at 0.5 V yields
        // core-rail efficiency near 0.5/0.9 ≈ 55 %.
        let ldo = LdoRegulator::paper_default("LDO_Core");
        let eta = ldo.efficiency(op(0.9, 0.5, 3.0)).unwrap();
        assert!((eta.get() - (0.5 / 0.9) * 0.991).abs() < 1e-9);
        assert!(eta.get() < 0.56);
    }

    #[test]
    fn bypass_mode_nearly_lossless_at_light_load() {
        let ldo = LdoRegulator::paper_default("LDO");
        // Vin == Vout → bypass.
        assert_eq!(ldo.mode_for(op(0.9, 0.9, 1.0)).unwrap(), LdoMode::Bypass);
        let eta = ldo.efficiency(op(0.9, 0.9, 1.0)).unwrap();
        assert!(eta.get() > 0.985);
    }

    #[test]
    fn bypass_loss_grows_with_current() {
        let ldo = LdoRegulator::paper_default("LDO");
        let light = ldo.efficiency(op(0.9, 0.9, 1.0)).unwrap();
        let heavy = ldo.efficiency(op(0.9, 0.9, 30.0)).unwrap();
        assert!(heavy.get() < light.get());
    }

    #[test]
    fn cannot_boost() {
        let ldo = LdoRegulator::paper_default("LDO");
        assert!(ldo.efficiency(op(0.5, 0.9, 1.0)).is_err());
        assert!(!ldo.supports_conversion(Volts::new(0.5), Volts::new(0.9)));
        assert!(ldo.supports_conversion(Volts::new(0.9), Volts::new(0.5)));
    }

    #[test]
    fn current_limit_enforced() {
        let ldo = LdoRegulator::paper_default("LDO");
        assert!(ldo.efficiency(op(1.0, 0.8, 41.0)).is_err());
        assert!(ldo.efficiency(op(1.0, 0.8, -1.0)).is_err());
        assert!(ldo.efficiency(op(1.0, 0.8, 0.0)).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let ie = Efficiency::new(0.99).unwrap();
        assert!(
            LdoRegulator::new("x", ie, Volts::new(-0.1), Ohms::new(1e-3), Amps::new(1.0)).is_err()
        );
        assert!(
            LdoRegulator::new("x", ie, Volts::new(0.02), Ohms::new(0.0), Amps::new(1.0)).is_err()
        );
        assert!(
            LdoRegulator::new("x", ie, Volts::new(0.02), Ohms::new(1e-3), Amps::new(0.0)).is_err()
        );
    }

    #[test]
    fn ldo_beats_buck_when_voltages_are_close() {
        // §2.2: an LDO can have higher efficiency than an SVR when
        // Vin ≈ Vout (e.g. 1.0 V → 0.9 V).
        let ldo = LdoRegulator::paper_default("LDO");
        let eta = ldo.efficiency(op(1.0, 0.9, 5.0)).unwrap();
        assert!(eta.get() > 0.88, "LDO at 1.0→0.9 V should beat a typical IVR: {eta}");
    }
}
