//! Zero-cost newtypes for the physical quantities used by PDN models.
//!
//! Each quantity wraps an `f64` in base SI units and implements only the
//! arithmetic that is physically meaningful. Cross-type products and
//! quotients (Ohm's law, power law) are provided where they eliminate a
//! class of unit-confusion bugs in the ETEE power-flow computations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $ctor_doc:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            #[doc = $ctor_doc]
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base SI units.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` when the value is finite (neither NaN nor
            /// infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electrical potential in volts.
    Volts, "V", "Creates a potential from a value in volts."
);
quantity!(
    /// Electrical current in amperes.
    Amps, "A", "Creates a current from a value in amperes."
);
quantity!(
    /// Power in watts.
    Watts, "W", "Creates a power from a value in watts."
);
quantity!(
    /// Electrical resistance in ohms.
    Ohms, "Ω", "Creates a resistance from a value in ohms."
);
quantity!(
    /// Frequency in hertz.
    Hertz, "Hz", "Creates a frequency from a value in hertz."
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius, "°C", "Creates a temperature from a value in degrees Celsius."
);
quantity!(
    /// Time in seconds.
    Seconds, "s", "Creates a duration from a value in seconds."
);
quantity!(
    /// Area in square millimetres (board or die area).
    SquareMillimeters, "mm²", "Creates an area from a value in square millimetres."
);
quantity!(
    /// Cost in United States dollars (bill-of-materials accounting).
    Usd, "$", "Creates a cost from a value in US dollars."
);

impl Volts {
    /// Creates a potential from a value in millivolts.
    ///
    /// Tolerance bands and power-gate drops are quoted in millivolts in the
    /// paper (e.g. a 25 mV TOB), so this constructor avoids sprinkling
    /// `* 1e-3` through the model code.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Self::new(mv * 1e-3)
    }

    /// Returns the value in millivolts.
    #[inline]
    pub fn millivolts(self) -> f64 {
        self.get() * 1e3
    }
}

impl Ohms {
    /// Creates a resistance from a value in milliohms.
    ///
    /// Load-line and power-gate impedances are quoted in milliohms
    /// (Table 2 of the paper: 1–7 mΩ).
    #[inline]
    pub fn from_milliohms(mohm: f64) -> Self {
        Self::new(mohm * 1e-3)
    }

    /// Returns the value in milliohms.
    #[inline]
    pub fn milliohms(self) -> f64 {
        self.get() * 1e3
    }
}

impl Watts {
    /// Creates a power from a value in milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Returns the value in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        self.get() * 1e3
    }
}

impl Hertz {
    /// Creates a frequency from a value in megahertz.
    #[inline]
    pub fn from_megahertz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }

    /// Creates a frequency from a value in gigahertz.
    #[inline]
    pub fn from_gigahertz(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// Returns the value in gigahertz.
    #[inline]
    pub fn gigahertz(self) -> f64 {
        self.get() * 1e-9
    }
}

impl Seconds {
    /// Creates a duration from a value in microseconds.
    ///
    /// Mode-switch and C-state latencies are quoted in microseconds
    /// (§6 of the paper: the full FlexWatts switch flow takes ≈ 94 µs).
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration from a value in milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Returns the value in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.get() * 1e6
    }

    /// Returns the value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.get() * 1e3
    }
}

impl Amps {
    /// Returns the conduction loss `I²·R` dissipated by this current across
    /// a resistance — the dominant loss term of high-TDP MBVR/LDO PDNs
    /// (Fig. 5 of the paper).
    #[inline]
    pub fn squared_times(self, r: Ohms) -> Watts {
        Watts::new(self.get() * self.get() * r.get())
    }
}

// Physically meaningful cross-type arithmetic.

impl Mul<Amps> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts::new(self.get() * rhs.get())
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Div<Volts> for Watts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps::new(self.get() / rhs.get())
    }
}

impl Div<Amps> for Watts {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Amps) -> Volts {
        Volts::new(self.get() / rhs.get())
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms::new(self.get() / rhs.get())
    }
}

impl Mul<Ohms> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts::new(self.get() * rhs.get())
    }
}

impl Mul<Amps> for Ohms {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Amps) -> Volts {
        rhs * self
    }
}

impl Mul<Seconds> for Watts {
    /// Energy in joules, represented as a plain `f64` since no model derives
    /// further quantities from it.
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.get() * rhs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trips() {
        let v = Volts::new(1.0);
        let i = Amps::new(2.0);
        let r: Ohms = v / i;
        assert_eq!(r, Ohms::new(0.5));
        assert_eq!(i * r, v);
    }

    #[test]
    fn power_law_round_trips() {
        let p = Watts::new(10.0);
        let v = Volts::new(2.0);
        assert_eq!(p / v, Amps::new(5.0));
        assert_eq!(p / Amps::new(5.0), v);
        assert_eq!(v * Amps::new(5.0), p);
    }

    #[test]
    fn conduction_loss_matches_manual_computation() {
        let i = Amps::new(10.0);
        let r = Ohms::from_milliohms(2.5);
        assert!((i.squared_times(r).get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unit_conversions() {
        assert!((Volts::from_millivolts(18.0).get() - 0.018).abs() < 1e-12);
        assert!((Ohms::from_milliohms(7.0).milliohms() - 7.0).abs() < 1e-12);
        assert!((Seconds::from_micros(94.0).millis() - 0.094).abs() < 1e-12);
        assert!((Watts::from_milliwatts(9.0).get() - 0.009).abs() < 1e-12);
    }

    #[test]
    fn sum_of_domain_powers() {
        let total: Watts = [Watts::new(0.6), Watts::new(0.5), Watts::new(0.58)].into_iter().sum();
        assert!((total.get() - 1.68).abs() < 1e-12);
    }

    #[test]
    fn like_division_is_dimensionless() {
        let ratio: f64 = Watts::new(3.0) / Watts::new(4.0);
        assert_eq!(ratio, 0.75);
    }

    #[test]
    fn display_includes_unit_symbol() {
        assert_eq!(format!("{:.1}", Watts::new(4.0)), "4.0 W");
        assert_eq!(format!("{:.2}", Volts::new(1.8)), "1.80 V");
        assert_eq!(format!("{}", Ohms::new(0.001)), "0.001 Ω");
    }

    #[test]
    fn energy_is_power_times_time() {
        let joules = Watts::new(2.0) * Seconds::from_millis(500.0);
        assert!((joules - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_minmax() {
        let v = Volts::new(1.5);
        assert_eq!(v.clamp(Volts::new(0.5), Volts::new(1.1)), Volts::new(1.1));
        assert_eq!(v.max(Volts::new(2.0)), Volts::new(2.0));
        assert_eq!(v.min(Volts::new(1.0)), Volts::new(1.0));
        assert_eq!((-v).abs(), v);
    }
}
