//! Voltage/frequency curves.
//!
//! A domain's minimum stable voltage rises with clock frequency. The PMU
//! stores this relationship as a firmware table (footnote 11 of the paper);
//! we model it as a piecewise-linear curve over frequency.

use pdn_units::{Curve1, Hertz, UnitsError, Volts};

/// A voltage/frequency curve for one domain.
///
/// # Examples
///
/// ```
/// use pdn_proc::VfCurve;
/// use pdn_units::Hertz;
///
/// let vf = VfCurve::client_core();
/// let v_low = vf.voltage_at(Hertz::from_gigahertz(0.9));
/// let v_high = vf.voltage_at(Hertz::from_gigahertz(4.0));
/// assert!(v_low < v_high);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    curve: Curve1,
}

impl VfCurve {
    /// Builds a V/f curve from `(frequency, voltage)` knots.
    ///
    /// # Errors
    ///
    /// Returns an error if the knots do not form a valid strictly
    /// increasing-frequency curve.
    pub fn from_points<I>(points: I) -> Result<Self, UnitsError>
    where
        I: IntoIterator<Item = (Hertz, Volts)>,
    {
        let curve = Curve1::from_points(points.into_iter().map(|(f, v)| (f.get(), v.get())))?;
        Ok(Self { curve })
    }

    /// Minimum stable voltage at `frequency` (clamped to the curve domain).
    pub fn voltage_at(&self, frequency: Hertz) -> Volts {
        Volts::new(self.curve.eval(frequency.get()))
    }

    /// Iterates over the `(frequency, voltage)` knots of the curve, in
    /// ascending frequency order. Exposes the exact table a PMU would
    /// store, e.g. for content-addressed caching of solver results.
    pub fn points(&self) -> impl Iterator<Item = (Hertz, Volts)> + '_ {
        self.curve.points().map(|(f, v)| (Hertz::new(f), Volts::new(v)))
    }

    /// The voltage range covered by the curve.
    pub fn voltage_range(&self) -> (Volts, Volts) {
        (Volts::new(self.curve.y_min()), Volts::new(self.curve.y_max()))
    }

    /// The client CPU-core curve: a Vmin plateau (0.40 V) up to 2.2 GHz,
    /// then rising to 0.85 V at 4 GHz with the characteristic super-linear
    /// knee. The plateau is what makes low-TDP frequency increases cheap
    /// (Fig. 2a: ≈ 9 mW per 1 % at 4 W). The levels are load-side voltages
    /// (after load-line droop), matching the §2.1 "typically 0.5–1.1 V"
    /// range once guardbands are added.
    pub fn client_core() -> Self {
        Self::from_points([
            (Hertz::from_gigahertz(0.8), Volts::new(0.400)),
            (Hertz::from_gigahertz(2.2), Volts::new(0.410)),
            (Hertz::from_gigahertz(2.8), Volts::new(0.52)),
            (Hertz::from_gigahertz(3.4), Volts::new(0.68)),
            (Hertz::from_gigahertz(4.0), Volts::new(0.85)),
        ])
        .expect("static curve is valid")
    }

    /// The client graphics curve: 0.1 GHz at 0.40 V up to 1.2 GHz at 0.82 V
    /// (Table 1's GFX frequency range). §5 Observation 2's point stands:
    /// graphics runs near the top of its range while cores sit near 0.5 V
    /// during graphics workloads.
    pub(crate) fn client_gfx() -> Self {
        Self::from_points([
            (Hertz::from_gigahertz(0.1), Volts::new(0.400)),
            (Hertz::from_gigahertz(0.45), Volts::new(0.405)),
            (Hertz::from_gigahertz(0.7), Volts::new(0.52)),
            (Hertz::from_gigahertz(0.95), Volts::new(0.66)),
            (Hertz::from_gigahertz(1.2), Volts::new(0.82)),
        ])
        .expect("static curve is valid")
    }

    /// The LLC curve. The LLC voltage design point matches the core voltage
    /// domain (§7.1, Rotem et al.); the curve is the core curve over the
    /// core frequency range.
    pub(crate) fn client_llc() -> Self {
        Self::client_core()
    }

    /// Fixed-frequency SA/IO rail: flat voltage across its (nominal)
    /// operating range.
    pub(crate) fn fixed(voltage: Volts) -> Self {
        Self::from_points([
            (Hertz::from_gigahertz(0.05), voltage),
            (Hertz::from_gigahertz(2.0), voltage),
        ])
        .expect("static curve is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_curve_is_monotone() {
        let vf = VfCurve::client_core();
        let mut prev = Volts::ZERO;
        for ghz in [0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            let v = vf.voltage_at(Hertz::from_gigahertz(ghz));
            assert!(v >= prev, "V/f must be non-decreasing");
            prev = v;
        }
    }

    #[test]
    fn core_curve_matches_table1_range() {
        let vf = VfCurve::client_core();
        let (flo, _) = vf.points().next().unwrap();
        let (fhi, _) = vf.points().last().unwrap();
        assert!((flo.gigahertz() - 0.8).abs() < 1e-9);
        assert!((fhi.gigahertz() - 4.0).abs() < 1e-9);
        let (vlo, vhi) = vf.voltage_range();
        assert!(vlo.get() >= 0.4 && vhi.get() <= 1.2);
    }

    #[test]
    fn gfx_curve_matches_table1_range() {
        let vf = VfCurve::client_gfx();
        let (flo, _) = vf.points().next().unwrap();
        let (fhi, _) = vf.points().last().unwrap();
        assert!((flo.gigahertz() - 0.1).abs() < 1e-9);
        assert!((fhi.gigahertz() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn clamping_outside_range() {
        let vf = VfCurve::client_core();
        assert_eq!(vf.voltage_at(Hertz::from_gigahertz(0.1)), Volts::new(0.40));
        assert_eq!(vf.voltage_at(Hertz::from_gigahertz(9.0)), Volts::new(0.85));
    }

    #[test]
    fn fixed_rail_is_flat() {
        let vf = VfCurve::fixed(Volts::new(0.85));
        assert_eq!(vf.voltage_at(Hertz::from_megahertz(100.0)), Volts::new(0.85));
        assert_eq!(vf.voltage_at(Hertz::from_gigahertz(1.5)), Volts::new(0.85));
    }
}
