//! On-die power-gate model.
//!
//! Power gates disconnect idle domains and, when conducting, insert a small
//! series impedance `R_PG` (1–2 mΩ in Table 2) between the rail and the
//! domain. The voltage drop `V_PG = R_PG · I` must be compensated by raising
//! the supply, which costs guardband power (§3.1 of the paper).

use crate::traits::{OperatingPoint, Placement, VoltageRegulator, VrError};
use pdn_units::{Amps, Efficiency, Ohms, Volts, Watts};

/// An on-die power gate with a series impedance.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Ohms};
/// use pdn_vr::PowerGate;
///
/// let pg = PowerGate::new("PG_Core0", Ohms::from_milliohms(1.5), Amps::new(40.0))?;
/// let drop = pg.voltage_drop(Amps::new(10.0));
/// assert!((drop.millivolts() - 15.0).abs() < 1e-9);
/// # Ok::<(), pdn_vr::VrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerGate {
    name: String,
    resistance: Ohms,
    iccmax: Amps,
}

impl PowerGate {
    /// Creates a power gate.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] for non-positive resistance or
    /// current limit.
    pub fn new(name: impl Into<String>, resistance: Ohms, iccmax: Amps) -> Result<Self, VrError> {
        if resistance.get() <= 0.0 {
            return Err(VrError::InvalidParameter {
                parameter: "resistance",
                value: resistance.get(),
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
        Ok(Self { name: name.into(), resistance, iccmax })
    }

    /// The series impedance of the conducting gate.
    pub fn resistance(&self) -> Ohms {
        self.resistance
    }

    /// Voltage drop across the conducting gate at `current`.
    pub fn voltage_drop(&self, current: Amps) -> Volts {
        current * self.resistance
    }

    /// Conduction loss dissipated in the gate at `current`.
    pub fn conduction_loss(&self, current: Amps) -> Watts {
        current.squared_times(self.resistance)
    }
}

impl VoltageRegulator for PowerGate {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> Placement {
        Placement::Die
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        if op.iout.get() <= 0.0 || op.iout > self.iccmax {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: format!("current {} outside (0, {}]", op.iout, self.iccmax),
            });
        }
        let drop = self.voltage_drop(op.iout);
        let eta = op.vout.get() / (op.vout + drop).get();
        Ok(Efficiency::new(eta)?)
    }

    fn iccmax(&self) -> Amps {
        self.iccmax
    }

    fn supports_conversion(&self, vin: Volts, vout: Volts) -> bool {
        // A power gate passes the rail voltage through (minus its IR drop).
        vin >= vout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_and_loss_scale_with_current() {
        let pg = PowerGate::new("PG", Ohms::from_milliohms(2.0), Amps::new(40.0)).unwrap();
        assert!((pg.voltage_drop(Amps::new(5.0)).millivolts() - 10.0).abs() < 1e-9);
        assert!((pg.conduction_loss(Amps::new(5.0)).milliwatts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_near_one_for_small_drop() {
        let pg = PowerGate::new("PG", Ohms::from_milliohms(1.0), Amps::new(40.0)).unwrap();
        let op = OperatingPoint::new(Volts::new(1.0), Volts::new(1.0), Amps::new(10.0));
        let eta = pg.efficiency(op).unwrap();
        assert!(eta.get() > 0.98 && eta.get() < 1.0);
    }

    #[test]
    fn rejects_invalid_construction_and_points() {
        assert!(PowerGate::new("PG", Ohms::new(0.0), Amps::new(1.0)).is_err());
        assert!(PowerGate::new("PG", Ohms::new(1e-3), Amps::new(0.0)).is_err());
        let pg = PowerGate::new("PG", Ohms::new(1e-3), Amps::new(10.0)).unwrap();
        let op = OperatingPoint::new(Volts::new(1.0), Volts::new(1.0), Amps::new(20.0));
        assert!(pg.efficiency(op).is_err());
    }
}
