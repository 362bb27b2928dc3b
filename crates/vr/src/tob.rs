//! Voltage-regulator tolerance band (TOB) model.
//!
//! The TOB is the maximum voltage variation of a VR across temperature,
//! manufacturing variation, and aging (§2.4 of the paper). The supply is
//! kept *above* the nominal voltage by the TOB to guarantee correctness,
//! and that excess voltage is pure guardband waste. The standard TOB splits
//! into controller tolerance, current-sense variation, and voltage ripple.

use pdn_units::Volts;

/// A VR tolerance band decomposed into its three standard components.
///
/// # Examples
///
/// ```
/// use pdn_vr::ToleranceBand;
///
/// let tob = ToleranceBand::from_total_millivolts(20.0);
/// assert!((tob.total().millivolts() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceBand {
    /// Controller set-point tolerance.
    pub controller: Volts,
    /// Current-sense variation.
    pub current_sense: Volts,
    /// Output voltage ripple.
    pub ripple: Volts,
}

impl ToleranceBand {
    /// Creates a TOB from its three components.
    pub fn new(controller: Volts, current_sense: Volts, ripple: Volts) -> Self {
        Self { controller, current_sense, ripple }
    }

    /// Creates a TOB from a total budget, split using the typical
    /// 50 % / 30 % / 20 % allocation between controller tolerance,
    /// current-sense variation, and ripple.
    pub fn from_total_millivolts(total_mv: f64) -> Self {
        Self {
            controller: Volts::from_millivolts(total_mv * 0.5),
            current_sense: Volts::from_millivolts(total_mv * 0.3),
            ripple: Volts::from_millivolts(total_mv * 0.2),
        }
    }

    /// The total tolerance band (the voltage guardband the supply must
    /// carry above nominal).
    pub fn total(&self) -> Volts {
        self.controller + self.current_sense + self.ripple
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_total() {
        let tob = ToleranceBand::from_total_millivolts(25.0);
        assert!((tob.total().millivolts() - 25.0).abs() < 1e-9);
        assert!((tob.controller.millivolts() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn explicit_components() {
        let tob = ToleranceBand::new(
            Volts::from_millivolts(10.0),
            Volts::from_millivolts(5.0),
            Volts::from_millivolts(3.0),
        );
        assert!((tob.total().millivolts() - 18.0).abs() < 1e-9);
    }
}
