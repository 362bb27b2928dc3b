//! Validated dimensionless quantities: generic ratios, power-conversion
//! efficiencies, and workload application ratios.

use crate::error::UnitsError;
use std::fmt;
use std::ops::{Div, Mul};

/// A non-negative, finite dimensionless ratio.
///
/// Used for leakage fractions, power-state residencies, normalisation
/// factors, and anywhere a plain `f64` would invite unit confusion.
///
/// # Examples
///
/// ```
/// use pdn_units::Ratio;
///
/// let residency = Ratio::new(0.85)?;
/// assert_eq!(residency.get(), 0.85);
/// assert_eq!(format!("{residency}"), "85.0%");
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Ratio = Ratio(0.0);
    /// The unit ratio.
    pub const ONE: Ratio = Ratio(1.0);

    /// Creates a ratio.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] for NaN/infinite input and
    /// [`UnitsError::OutOfRange`] for negative input.
    pub fn new(value: f64) -> Result<Self, UnitsError> {
        if !value.is_finite() {
            return Err(UnitsError::NotFinite { what: "ratio" });
        }
        if value < 0.0 {
            return Err(UnitsError::OutOfRange { what: "ratio", value, range: "[0, ∞)" });
        }
        Ok(Self(value))
    }

    /// Returns the raw value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the value expressed as a percentage.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(1);
        write!(f, "{:.*}%", prec, self.percent())
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Self) -> Ratio {
        Ratio(self.0 * rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

/// A power-conversion efficiency, validated to lie in `(0, 1]`.
///
/// Every voltage-regulator model and the end-to-end ETEE computation produce
/// values of this type, making the `Pout / Pin ≤ 1` invariant structural.
///
/// # Examples
///
/// ```
/// use pdn_units::{Efficiency, Watts};
///
/// let eta = Efficiency::new(0.85)?;
/// let input = eta.input_for_output(Watts::new(1.7));
/// assert_eq!(input, Watts::new(2.0));
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Efficiency(f64);

impl Efficiency {
    /// Creates an efficiency.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] for NaN/infinite input and
    /// [`UnitsError::OutOfRange`] unless `0 < value ≤ 1`.
    pub fn new(value: f64) -> Result<Self, UnitsError> {
        if !value.is_finite() {
            return Err(UnitsError::NotFinite { what: "efficiency" });
        }
        if value <= 0.0 || value > 1.0 {
            return Err(UnitsError::OutOfRange { what: "efficiency", value, range: "(0, 1]" });
        }
        Ok(Self(value))
    }

    /// Returns the raw value in `(0, 1]`.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the value expressed as a percentage.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Input power required to deliver `output` through this conversion
    /// stage (`Pin = Pout / η`, Eq. 1 of the paper rearranged).
    #[inline]
    pub fn input_for_output(self, output: crate::Watts) -> crate::Watts {
        crate::Watts::new(output.get() / self.0)
    }

    /// Output power delivered from `input` through this conversion stage.
    #[inline]
    pub fn output_for_input(self, input: crate::Watts) -> crate::Watts {
        crate::Watts::new(input.get() * self.0)
    }

    /// Power lost in the stage when delivering `output`.
    #[inline]
    pub fn loss_for_output(self, output: crate::Watts) -> crate::Watts {
        self.input_for_output(output) - output
    }

    /// Composes two conversion stages in series.
    #[inline]
    pub fn chain(self, next: Efficiency) -> Efficiency {
        // The product of two values in (0, 1] stays in (0, 1].
        Efficiency(self.0 * next.0)
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(1);
        write!(f, "{:.*}%", prec, self.percent())
    }
}

impl Mul for Efficiency {
    type Output = Efficiency;
    fn mul(self, rhs: Self) -> Efficiency {
        self.chain(rhs)
    }
}

impl Div<Efficiency> for crate::Watts {
    type Output = crate::Watts;
    /// `P / η` — the input power drawing `P` through a stage of efficiency η.
    fn div(self, rhs: Efficiency) -> crate::Watts {
        rhs.input_for_output(self)
    }
}

/// A workload application ratio (AR), validated to lie in `(0, 1]`.
///
/// AR quantifies the computational intensity of a workload as the switching
/// rate relative to the most intensive possible workload (the power virus,
/// AR = 1); see §2.4 of the paper. The load-line guardband is sized for the
/// power virus, so `Ppeak = P / AR`.
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
///
/// let ar = ApplicationRatio::new(0.5)?;
/// let peak = ar.peak_power(Watts::new(5.0));
/// assert_eq!(peak, Watts::new(10.0));
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ApplicationRatio(f64);

impl ApplicationRatio {
    /// The power-virus application ratio (the most computationally intensive
    /// workload possible; AR = 1).
    pub const POWER_VIRUS: ApplicationRatio = ApplicationRatio(1.0);

    /// Creates an application ratio.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] for NaN/infinite input and
    /// [`UnitsError::OutOfRange`] unless `0 < value ≤ 1`.
    pub fn new(value: f64) -> Result<Self, UnitsError> {
        if !value.is_finite() {
            return Err(UnitsError::NotFinite { what: "application ratio" });
        }
        if value <= 0.0 || value > 1.0 {
            return Err(UnitsError::OutOfRange {
                what: "application ratio",
                value,
                range: "(0, 1]",
            });
        }
        Ok(Self(value))
    }

    /// Creates an application ratio from a percentage (e.g. 56.0 → 0.56).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApplicationRatio::new`].
    pub fn from_percent(pct: f64) -> Result<Self, UnitsError> {
        Self::new(pct / 100.0)
    }

    /// Returns the raw value in `(0, 1]`.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the value expressed as a percentage.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Peak (power-virus) power corresponding to an average power `p` at
    /// this application ratio: `Ppeak = P / AR` (§3.1 of the paper).
    #[inline]
    pub fn peak_power(self, p: crate::Watts) -> crate::Watts {
        crate::Watts::new(p.get() / self.0)
    }
}

impl fmt::Display for ApplicationRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(0);
        write!(f, "{:.*}%", prec, self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Watts;

    #[test]
    fn efficiency_rejects_out_of_range() {
        assert!(Efficiency::new(0.0).is_err());
        assert!(Efficiency::new(-0.1).is_err());
        assert!(Efficiency::new(1.0001).is_err());
        assert!(Efficiency::new(f64::NAN).is_err());
        assert!(Efficiency::new(f64::INFINITY).is_err());
        assert!(Efficiency::new(1.0).is_ok());
        assert!(Efficiency::new(1e-9).is_ok());
    }

    #[test]
    fn efficiency_power_accounting_is_consistent() {
        let eta = Efficiency::new(0.8).unwrap();
        let out = Watts::new(4.0);
        let input = eta.input_for_output(out);
        assert_eq!(input, Watts::new(5.0));
        assert_eq!(eta.output_for_input(input), out);
        assert_eq!(eta.loss_for_output(out), Watts::new(1.0));
        // `/` operator sugar matches the method.
        assert_eq!(out / eta, input);
    }

    #[test]
    fn chained_stages_multiply() {
        let first = Efficiency::new(0.9).unwrap();
        let second = Efficiency::new(0.8).unwrap();
        let etee = first.chain(second);
        assert!((etee.get() - 0.72).abs() < 1e-12);
        assert_eq!(first * second, etee);
    }

    #[test]
    fn ar_peak_power_scales_inverse() {
        let ar = ApplicationRatio::from_percent(40.0).unwrap();
        assert_eq!(ar.peak_power(Watts::new(2.0)), Watts::new(5.0));
        assert_eq!(ApplicationRatio::POWER_VIRUS.peak_power(Watts::new(2.0)), Watts::new(2.0));
    }

    #[test]
    fn ar_rejects_zero_and_above_one() {
        assert!(ApplicationRatio::new(0.0).is_err());
        assert!(ApplicationRatio::new(1.01).is_err());
        assert!(ApplicationRatio::new(f64::NAN).is_err());
    }

    #[test]
    fn ratio_rejects_negative() {
        assert!(Ratio::new(-0.01).is_err());
        assert!(Ratio::new(f64::INFINITY).is_err());
    }

    #[test]
    fn display_formats_as_percent() {
        assert_eq!(format!("{}", Efficiency::new(0.881).unwrap()), "88.1%");
        assert_eq!(format!("{:.0}", Ratio::new(0.25).unwrap()), "25%");
        assert_eq!(format!("{}", ApplicationRatio::new(0.56).unwrap()), "56%");
    }
}
