//! Domain power model: dynamic + leakage power and the Eq. 2 voltage
//! guardband.
//!
//! Dynamic power follows the classic `AR · Ceff · f · V²` switching model.
//! Leakage scales polynomially with voltage (exponent δ ≈ 2.8, fitted on an
//! Intel Core i7-6600U in §3.1 of the paper) and exponentially with
//! temperature (the post-silicon thermal-conditioning technique of §4.2
//! exploits exactly this dependence to extract the leakage fraction).

use crate::domain::DomainKind;
use pdn_units::{ApplicationRatio, Celsius, Hertz, Ratio, Volts, Watts};

/// The paper's fitted leakage-vs-voltage exponent (δ ≈ 2.8, §3.1).
pub const LEAKAGE_VOLTAGE_EXPONENT: f64 = 2.8;

/// Guardband power scaling, Eq. 2 of the paper:
///
/// `P_GB = P_NOM · [ FL·((V_NOM+V_GB)/V_NOM)^δ + (1−FL)·((V_NOM+V_GB)/V_NOM)² ]`
///
/// The dynamic share scales with voltage squared while the leakage share
/// scales with voltage to the power δ.
///
/// # Examples
///
/// ```
/// use pdn_proc::guardband_power;
/// use pdn_units::{Ratio, Volts, Watts};
///
/// // A 20 mV tolerance band on a 0.8 V rail costs ≈ 5–6 % extra power.
/// let pgb = guardband_power(
///     Watts::new(1.0),
///     Ratio::new(0.22)?,
///     Volts::new(0.8),
///     Volts::from_millivolts(20.0),
///     2.8,
/// );
/// assert!(pgb.get() > 1.04 && pgb.get() < 1.08);
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
pub fn guardband_power(
    p_nom: Watts,
    leakage_fraction: Ratio,
    v_nom: Volts,
    v_gb: Volts,
    delta: f64,
) -> Watts {
    p_nom * guardband_factor(leakage_fraction, v_nom, v_gb, delta)
}

/// The power-independent multiplier of Eq. 2:
/// `guardband_power(P, …) == P · guardband_factor(…)` exactly (the same
/// operations in the same order). Row-at-a-time evaluation hoists this
/// factor — the only `powf` of the guardband stage — out of per-point
/// loops, because along a lattice row only the nominal power varies while
/// `(FL, V_NOM, V_GB, δ)` stay fixed.
pub fn guardband_factor(leakage_fraction: Ratio, v_nom: Volts, v_gb: Volts, delta: f64) -> f64 {
    debug_assert!(v_nom.get() > 0.0, "nominal voltage must be positive");
    let scale = (v_nom + v_gb).get() / v_nom.get();
    let fl = leakage_fraction.get();
    fl * scale.powf(delta) + (1.0 - fl) * scale * scale
}

/// Fraction of a domain's dynamic power that switches regardless of
/// workload activity (clock tree, sequencing logic). Activity sensors see
/// the data-path share only, so measured power scales as
/// `cf + (1 − cf)·AR` with AR.
pub const DEFAULT_CLOCK_FRACTION: f64 = 0.35;

/// Power model for a single processor domain.
///
/// # Examples
///
/// ```
/// use pdn_proc::{client_soc, DomainKind};
/// use pdn_units::{ApplicationRatio, Celsius, Hertz, Watts};
///
/// let soc = client_soc(Watts::new(50.0));
/// let cores = &soc.domain(DomainKind::Core0).power;
/// let f = Hertz::from_gigahertz(4.0);
/// let v = soc.domain(DomainKind::Core0).vf.voltage_at(f);
/// let p = cores.nominal_power(f, v, ApplicationRatio::POWER_VIRUS, Celsius::new(100.0));
/// assert!(p.get() > 5.0, "a core at 4 GHz draws many watts: {p}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DomainPowerModel {
    /// Which domain this model describes.
    pub kind: DomainKind,
    /// Effective switched capacitance (farads) at AR = 1.
    pub ceff: f64,
    /// Leakage power at the reference voltage and temperature.
    pub leak_ref: Watts,
    /// Reference voltage for `leak_ref`.
    pub vref: Volts,
    /// Reference junction temperature for `leak_ref`.
    pub tref: Celsius,
    /// Leakage-vs-voltage polynomial exponent (δ, paper value 2.8).
    pub leak_voltage_exp: f64,
    /// Exponential leakage-vs-temperature coefficient (1/°C).
    pub leak_temp_coeff: f64,
    /// Leakage fraction used in the Eq. 2 guardband (Table 2: 45 % for
    /// graphics, 22 % for other domains).
    pub guardband_leakage_fraction: Ratio,
    /// Activity-independent share of dynamic power (clock distribution).
    pub clock_fraction: f64,
}

impl DomainPowerModel {
    /// Dynamic switching power `(cf + (1 − cf)·AR) · Ceff · f · V²`: the
    /// clock tree switches at full rate regardless of the workload's
    /// activity, so only the data-path share scales with AR.
    pub fn dynamic_power(
        &self,
        frequency: Hertz,
        voltage: Volts,
        activity: ApplicationRatio,
    ) -> Watts {
        let effective = self.clock_fraction + (1.0 - self.clock_fraction) * activity.get();
        Watts::new(effective * self.ceff * frequency.get() * voltage.get() * voltage.get())
    }

    /// Leakage power at `(voltage, temperature)`:
    /// `leak_ref · (V/Vref)^δ · e^(k·(T−Tref))`.
    pub fn leakage_power(&self, voltage: Volts, temperature: Celsius) -> Watts {
        let v_scale = (voltage.get() / self.vref.get()).powf(self.leak_voltage_exp);
        let t_scale = (self.leak_temp_coeff * (temperature - self.tref).get()).exp();
        self.leak_ref * (v_scale * t_scale)
    }

    /// Total nominal power of the powered domain at an operating point.
    pub fn nominal_power(
        &self,
        frequency: Hertz,
        voltage: Volts,
        activity: ApplicationRatio,
        temperature: Celsius,
    ) -> Watts {
        self.dynamic_power(frequency, voltage, activity) + self.leakage_power(voltage, temperature)
    }

    /// The leakage fraction realised at an operating point (as opposed to
    /// the design-time guardband fraction).
    pub fn leakage_fraction_at(
        &self,
        frequency: Hertz,
        voltage: Volts,
        activity: ApplicationRatio,
        temperature: Celsius,
    ) -> Ratio {
        let total = self.nominal_power(frequency, voltage, activity, temperature);
        if total.get() <= 0.0 {
            return Ratio::ZERO;
        }
        let leak = self.leakage_power(voltage, temperature);
        Ratio::new(leak.get() / total.get()).expect("fraction of positive powers is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DomainPowerModel {
        DomainPowerModel {
            kind: DomainKind::Core0,
            ceff: 2.4e-9,
            leak_ref: Watts::new(3.3),
            vref: Volts::new(1.15),
            tref: Celsius::new(100.0),
            leak_voltage_exp: LEAKAGE_VOLTAGE_EXPONENT,
            leak_temp_coeff: 0.02,
            guardband_leakage_fraction: Ratio::new(0.22).unwrap(),
            clock_fraction: DEFAULT_CLOCK_FRACTION,
        }
    }

    #[test]
    fn guardband_zero_is_identity() {
        let p = guardband_power(
            Watts::new(2.0),
            Ratio::new(0.22).unwrap(),
            Volts::new(0.8),
            Volts::ZERO,
            2.8,
        );
        assert!((p.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn guardband_grows_with_band_and_leakage_fraction() {
        let vnom = Volts::new(0.8);
        let small = guardband_power(
            Watts::new(1.0),
            Ratio::new(0.22).unwrap(),
            vnom,
            Volts::from_millivolts(10.0),
            2.8,
        );
        let large = guardband_power(
            Watts::new(1.0),
            Ratio::new(0.22).unwrap(),
            vnom,
            Volts::from_millivolts(30.0),
            2.8,
        );
        assert!(large > small);
        let leaky = guardband_power(
            Watts::new(1.0),
            Ratio::new(0.45).unwrap(),
            vnom,
            Volts::from_millivolts(30.0),
            2.8,
        );
        assert!(leaky > large, "δ > 2 means leakier domains pay more guardband");
    }

    #[test]
    fn guardband_matches_closed_form() {
        // Hand-computed: scale = 1.025; 0.22·1.025^2.8 + 0.78·1.025².
        let p = guardband_power(
            Watts::new(1.0),
            Ratio::new(0.22).unwrap(),
            Volts::new(0.8),
            Volts::from_millivolts(20.0),
            2.8,
        );
        let scale: f64 = 1.025;
        let expected = 0.22 * scale.powf(2.8) + 0.78 * scale * scale;
        assert!((p.get() - expected).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_scales_with_f_and_v_squared() {
        let m = model();
        let ar = ApplicationRatio::POWER_VIRUS;
        let base = m.dynamic_power(Hertz::from_gigahertz(1.0), Volts::new(0.6), ar);
        let double_f = m.dynamic_power(Hertz::from_gigahertz(2.0), Volts::new(0.6), ar);
        assert!((double_f.get() / base.get() - 2.0).abs() < 1e-9);
        let double_v = m.dynamic_power(Hertz::from_gigahertz(1.0), Volts::new(1.2), ar);
        assert!((double_v.get() / base.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn clock_tree_power_is_activity_independent() {
        let m = model();
        let f = Hertz::from_gigahertz(2.0);
        let v = Volts::new(0.7);
        let idle_ar = m.dynamic_power(f, v, ApplicationRatio::new(1e-6).unwrap());
        let virus = m.dynamic_power(f, v, ApplicationRatio::POWER_VIRUS);
        let floor = idle_ar.get() / virus.get();
        assert!((floor - m.clock_fraction).abs() < 1e-3, "clock floor {floor}");
    }

    #[test]
    fn leakage_scales_with_voltage_exponent() {
        let m = model();
        let t = Celsius::new(100.0);
        let at_half_v = m.leakage_power(Volts::new(0.575), t);
        let at_full_v = m.leakage_power(Volts::new(1.15), t);
        let ratio = at_full_v.get() / at_half_v.get();
        assert!((ratio - 2.0_f64.powf(2.8)).abs() < 1e-6);
    }

    #[test]
    fn leakage_scales_exponentially_with_temperature() {
        let m = model();
        let v = Volts::new(1.0);
        let cold = m.leakage_power(v, Celsius::new(50.0));
        let hot = m.leakage_power(v, Celsius::new(100.0));
        assert!((hot.get() / cold.get() - (0.02_f64 * 50.0).exp()).abs() < 1e-9);
    }

    #[test]
    fn leakage_fraction_rises_at_low_activity() {
        let m = model();
        let f = Hertz::from_gigahertz(1.0);
        let v = Volts::new(0.6);
        let t = Celsius::new(80.0);
        let busy = m.leakage_fraction_at(f, v, ApplicationRatio::new(0.9).unwrap(), t);
        let light = m.leakage_fraction_at(f, v, ApplicationRatio::new(0.2).unwrap(), t);
        assert!(light > busy);
    }

    #[test]
    fn nominal_power_is_dynamic_plus_leakage() {
        let m = model();
        let f = Hertz::from_gigahertz(2.0);
        let v = Volts::new(0.8);
        let ar = ApplicationRatio::new(0.5).unwrap();
        let t = Celsius::new(80.0);
        let total = m.nominal_power(f, v, ar, t);
        let parts = m.dynamic_power(f, v, ar) + m.leakage_power(v, t);
        assert!((total.get() - parts.get()).abs() < 1e-12);
    }
}
