//! Parametric step-down switching voltage regulator (buck converter) model.
//!
//! Modern client platforms use buck converters both on the motherboard
//! (MBVR first-stage VRs, the V_IN VR) and integrated on the die/package
//! (IVR, Intel's FIVR [Burton et al., APEC 2014]). The loss model used here
//! decomposes regulator loss into the three classic components:
//!
//! * **fixed loss** — controller, sensing, and gate-drive quiescent power;
//!   scaled down in light-load power states (PS1–PS4) and proportional to
//!   the number of active phases;
//! * **switching loss** — bridge switching, modelled as an effective
//!   voltage drop per ampere that grows with input voltage;
//! * **conduction loss** — `I²·R` in the bridges and inductors, where the
//!   effective resistance falls as `R_phase / n` with `n` active phases.
//!
//! The model performs *phase shedding*: it activates the phase count that
//! minimises total loss at the requested load, mirroring the post-silicon
//! phase-shedding management the paper describes (§4).

use crate::traits::{OperatingPoint, Placement, VoltageRegulator, VrError, VrPowerState};
use pdn_units::{Amps, Efficiency, Ohms, Volts, Watts};

/// Multi-phase configuration of a buck converter.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseConfig {
    /// Maximum number of phases available.
    pub max_phases: u32,
    /// Conduction resistance of a single phase (bridge + inductor DCR).
    pub per_phase_resistance: Ohms,
    /// Fixed (gate-drive) loss of one active phase at PS0.
    pub per_phase_fixed: Watts,
}

impl PhaseConfig {}

/// Construction parameters for a [`BuckConverter`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuckParams {
    /// Regulator name (e.g. `"V_IN"`).
    pub(crate) name: String,
    /// Physical placement.
    pub(crate) placement: Placement,
    /// Supported input voltage range.
    pub(crate) vin_range: (Volts, Volts),
    /// Supported output voltage range.
    pub(crate) vout_range: (Volts, Volts),
    /// Minimum required `Vin − Vout` headroom. Buck converters need a
    /// substantial input/output difference (§2.2: ≥ 0.6 V at Vin = 1.8 V).
    pub(crate) min_headroom: Volts,
    /// Maximum electrically supported current.
    pub(crate) iccmax: Amps,
    /// Controller + sensing quiescent loss at PS0 (phase-independent part).
    pub base_fixed_loss: Watts,
    /// Effective switching-loss voltage drop per ampere at `vin_ref`.
    pub switch_drop: Volts,
    /// Reference input voltage for the switching-loss scaling.
    pub vin_ref: Volts,
    /// Phase configuration.
    pub phases: PhaseConfig,
}

impl BuckParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] when a field is non-positive
    /// or a range is inverted.
    pub(crate) fn validate(&self) -> Result<(), VrError> {
        let checks: [(&'static str, f64, bool); 7] = [
            ("iccmax", self.iccmax.get(), self.iccmax.get() > 0.0),
            ("base_fixed_loss", self.base_fixed_loss.get(), self.base_fixed_loss.get() > 0.0),
            ("switch_drop", self.switch_drop.get(), self.switch_drop.get() > 0.0),
            ("vin_ref", self.vin_ref.get(), self.vin_ref.get() > 0.0),
            ("max_phases", self.phases.max_phases as f64, self.phases.max_phases >= 1),
            (
                "per_phase_resistance",
                self.phases.per_phase_resistance.get(),
                self.phases.per_phase_resistance.get() > 0.0,
            ),
            (
                "per_phase_fixed",
                self.phases.per_phase_fixed.get(),
                self.phases.per_phase_fixed.get() > 0.0,
            ),
        ];
        for (parameter, value, ok) in checks {
            if !ok {
                return Err(VrError::InvalidParameter { parameter, value, range: "> 0" });
            }
        }
        if self.vin_range.0 > self.vin_range.1 {
            return Err(VrError::InvalidParameter {
                parameter: "vin_range",
                value: self.vin_range.0.get(),
                range: "min ≤ max",
            });
        }
        if self.vout_range.0 > self.vout_range.1 {
            return Err(VrError::InvalidParameter {
                parameter: "vout_range",
                value: self.vout_range.0.get(),
                range: "min ≤ max",
            });
        }
        Ok(())
    }
}

/// A parametric multi-phase step-down switching regulator.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Volts};
/// use pdn_vr::{presets, OperatingPoint, VoltageRegulator};
///
/// let ivr = presets::ivr("IVR_Core0");
/// let op = OperatingPoint::new(Volts::new(1.8), Volts::new(0.75), Amps::new(4.0));
/// let eta = ivr.efficiency(op)?;
/// assert!(eta.get() > 0.80 && eta.get() < 0.92);
/// # Ok::<(), pdn_vr::VrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BuckConverter {
    params: BuckParams,
}

impl BuckConverter {
    /// Creates a buck converter from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] if `params` fails validation.
    pub fn new(params: BuckParams) -> Result<Self, VrError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// Returns the construction parameters.
    pub fn params(&self) -> &BuckParams {
        &self.params
    }

    /// Validates an operating point against the device constraints.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::UnsupportedOperatingPoint`] when voltage ranges,
    /// headroom, or current limits are violated.
    pub fn check_point(&self, op: OperatingPoint) -> Result<(), VrError> {
        let p = &self.params;
        let unsupported = |reason: String| VrError::UnsupportedOperatingPoint {
            regulator: p.name.clone(),
            reason,
        };
        if op.vin < p.vin_range.0 || op.vin > p.vin_range.1 {
            return Err(unsupported(format!(
                "input voltage {} outside [{}, {}]",
                op.vin, p.vin_range.0, p.vin_range.1
            )));
        }
        if op.vout < p.vout_range.0 || op.vout > p.vout_range.1 {
            return Err(unsupported(format!(
                "output voltage {} outside [{}, {}]",
                op.vout, p.vout_range.0, p.vout_range.1
            )));
        }
        if op.vin - op.vout < p.min_headroom {
            return Err(unsupported(format!(
                "headroom {} below required {}",
                op.vin - op.vout,
                p.min_headroom
            )));
        }
        if op.iout.get() < 0.0 {
            return Err(unsupported("negative load current".into()));
        }
        if op.iout > p.iccmax {
            return Err(unsupported(format!("load current {} above Iccmax {}", op.iout, p.iccmax)));
        }
        let capability = p.iccmax * op.power_state.current_capability_factor();
        if op.iout > capability {
            return Err(unsupported(format!(
                "load current {} exceeds {} capability {}",
                op.iout, op.power_state, capability
            )));
        }
        Ok(())
    }

    /// Number of active phases that minimises loss at the operating point.
    pub fn active_phases(&self, op: OperatingPoint) -> u32 {
        let p = &self.params;
        let i = op.iout.get();
        if i <= 0.0 {
            return 1;
        }
        let psf = op.power_state.fixed_loss_factor();
        let r = p.phases.per_phase_resistance.get();
        let fixed = (p.phases.per_phase_fixed.get() * psf).max(1e-9);
        // d/dn [ n·fixed + r·i²/n ] = 0  →  n* = i·sqrt(r / fixed)
        let ideal = i * (r / fixed).sqrt();
        let lo = (ideal.floor() as u32).clamp(1, p.phases.max_phases);
        let hi = (ideal.ceil() as u32).clamp(1, p.phases.max_phases);
        let loss = |n: u32| n as f64 * fixed + r * i * i / n as f64;
        if loss(lo) <= loss(hi) {
            lo
        } else {
            hi
        }
    }

    /// Total regulator loss at the operating point (valid for zero current,
    /// where only the quiescent loss remains).
    ///
    /// # Errors
    ///
    /// Returns [`VrError::UnsupportedOperatingPoint`] when
    /// [`BuckConverter::check_point`] fails.
    pub(crate) fn loss_at(&self, op: OperatingPoint) -> Result<Watts, VrError> {
        self.check_point(op)?;
        let p = &self.params;
        let psf = op.power_state.fixed_loss_factor();
        let n = self.active_phases(op);
        let fixed = (p.base_fixed_loss + p.phases.per_phase_fixed * n as f64) * psf;
        // Switching loss grows with input voltage: the bridges swing the
        // full Vin each cycle.
        let vin_scale = 0.5 + 0.5 * (op.vin.get() / p.vin_ref.get());
        let switching = Watts::new(p.switch_drop.get() * vin_scale * op.iout.get());
        let r_eff = Ohms::new(p.phases.per_phase_resistance.get() / n as f64);
        let conduction = op.iout.squared_times(r_eff);
        Ok(fixed + switching + conduction)
    }

    /// Battery-side input power and efficiency from one loss evaluation.
    ///
    /// Bit-identical to calling [`VoltageRegulator::input_power`] and
    /// [`VoltageRegulator::efficiency`] separately — the same operations in
    /// the same order on a single `BuckConverter::loss_at` result — but
    /// the loss model (operating-point check, phase optimisation, loss
    /// terms) runs once instead of twice. The hot per-rail path of a sweep
    /// wants both numbers, so the pairing is worth a dedicated entry point.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::UnsupportedOperatingPoint`] when
    /// [`BuckConverter::check_point`] fails.
    pub fn conversion(&self, op: OperatingPoint) -> Result<(Watts, Option<Efficiency>), VrError> {
        let loss = self.loss_at(op)?;
        let pout = op.output_power();
        let pin = pout + loss;
        let efficiency =
            if op.iout.get() <= 0.0 { None } else { Efficiency::new(pout.get() / pin.get()).ok() };
        Ok((pin, efficiency))
    }

    /// Deepest power state able to carry `iout`, used by PDN models to let
    /// a rail follow its load into light-load states.
    pub fn best_power_state(&self, iout: Amps) -> VrPowerState {
        let mut best = VrPowerState::Ps0;
        for ps in VrPowerState::ALL {
            let capability = self.params.iccmax * ps.current_capability_factor();
            if iout <= capability {
                best = ps;
            } else {
                break;
            }
        }
        best
    }
}

impl VoltageRegulator for BuckConverter {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn placement(&self) -> Placement {
        self.params.placement
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        if op.iout.get() <= 0.0 {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.params.name.clone(),
                reason: "efficiency is undefined at zero load; use input_power".into(),
            });
        }
        let loss = self.loss_at(op)?;
        let pout = op.output_power();
        let eta = pout.get() / (pout + loss).get();
        Ok(Efficiency::new(eta)?)
    }

    fn iccmax(&self) -> Amps {
        self.params.iccmax
    }

    fn supports_conversion(&self, vin: Volts, vout: Volts) -> bool {
        vin >= self.params.vin_range.0
            && vin <= self.params.vin_range.1
            && vout >= self.params.vout_range.0
            && vout <= self.params.vout_range.1
            && vin - vout >= self.params.min_headroom
    }

    fn input_power(&self, op: OperatingPoint) -> Result<Watts, VrError> {
        // Handles zero load: the regulator still burns its quiescent loss.
        Ok(op.output_power() + self.loss_at(op)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn op(vin: f64, vout: f64, iout: f64) -> OperatingPoint {
        OperatingPoint::new(Volts::new(vin), Volts::new(vout), Amps::new(iout))
    }

    #[test]
    fn efficiency_has_a_light_load_cliff() {
        let vr = presets::vin_board_vr();
        let light = vr.efficiency(op(7.2, 1.8, 0.1)).unwrap();
        let heavy = vr.efficiency(op(7.2, 1.8, 10.0)).unwrap();
        assert!(light.get() < heavy.get(), "light {light} should be below heavy {heavy}");
        assert!(light.get() < 0.80);
        assert!(heavy.get() > 0.88);
    }

    #[test]
    fn light_load_power_state_recovers_efficiency() {
        let vr = presets::vin_board_vr();
        let ps0 = vr.efficiency(op(7.2, 1.8, 0.1)).unwrap();
        let ps1 = vr.efficiency(op(7.2, 1.8, 0.1).with_power_state(VrPowerState::Ps1)).unwrap();
        assert!(ps1.get() > ps0.get() + 0.05, "PS1 {ps1} should beat PS0 {ps0} at light load");
    }

    #[test]
    fn higher_output_voltage_is_more_efficient() {
        let vr = presets::vin_board_vr();
        let lo = vr.efficiency(op(7.2, 0.6, 2.0)).unwrap();
        let hi = vr.efficiency(op(7.2, 1.8, 2.0)).unwrap();
        assert!(hi.get() > lo.get());
    }

    #[test]
    fn higher_input_voltage_costs_switching_loss() {
        let vr = presets::vin_board_vr();
        let at_7 = vr.efficiency(op(7.2, 1.8, 5.0)).unwrap();
        let at_12 = vr.efficiency(op(12.0, 1.8, 5.0)).unwrap();
        assert!(at_7.get() > at_12.get());
    }

    #[test]
    fn rejects_out_of_range_points() {
        let vr = presets::vin_board_vr();
        assert!(vr.efficiency(op(30.0, 1.8, 1.0)).is_err()); // vin too high
        assert!(vr.efficiency(op(7.2, 3.0, 1.0)).is_err()); // vout too high
        assert!(vr.efficiency(op(7.2, 1.8, 500.0)).is_err()); // above iccmax
        assert!(vr.efficiency(op(7.2, 1.8, -1.0)).is_err()); // negative current
    }

    #[test]
    fn rejects_current_beyond_power_state_capability() {
        let vr = presets::vin_board_vr();
        let heavy_in_ps3 = op(7.2, 1.8, 10.0).with_power_state(VrPowerState::Ps3);
        assert!(vr.efficiency(heavy_in_ps3).is_err());
    }

    #[test]
    fn ivr_requires_headroom() {
        let ivr = presets::ivr("IVR_Core0");
        // 1.8 − 1.3 = 0.5 V < 0.6 V headroom.
        assert!(!ivr.supports_conversion(Volts::new(1.8), Volts::new(1.3)));
        assert!(ivr.supports_conversion(Volts::new(1.8), Volts::new(1.1)));
    }

    #[test]
    fn ivr_efficiency_in_table2_range_at_typical_loads() {
        let ivr = presets::ivr("IVR_Core0");
        for (vout, iout) in [(0.7, 2.0), (0.8, 6.0), (0.9, 12.0), (1.0, 20.0), (1.05, 28.0)] {
            let eta = ivr.efficiency(op(1.8, vout, iout)).unwrap();
            assert!(
                (0.80..=0.89).contains(&eta.get()),
                "IVR η at {vout} V/{iout} A = {eta} outside Table 2 range"
            );
        }
    }

    #[test]
    fn zero_load_input_power_is_quiescent_loss() {
        let vr = presets::vin_board_vr();
        let quiescent = vr.input_power(op(7.2, 1.8, 0.0)).unwrap();
        assert!(quiescent.get() > 0.0);
        assert!(quiescent.get() < 0.5);
        assert!(vr.efficiency(op(7.2, 1.8, 0.0)).is_err());
    }

    #[test]
    fn phase_shedding_monotone_in_current() {
        let vr = presets::vin_board_vr();
        let mut prev = 0;
        for i in [0.1, 0.5, 2.0, 5.0, 10.0, 20.0, 30.0] {
            let n = vr.active_phases(op(7.2, 1.8, i));
            assert!(n >= prev, "phases must not decrease as current rises");
            prev = n;
        }
        assert!(prev > 1, "heavy load should engage multiple phases");
    }

    #[test]
    fn best_power_state_follows_load() {
        let vr = presets::vin_board_vr();
        assert_eq!(vr.best_power_state(Amps::new(30.0)), VrPowerState::Ps0);
        let deep = vr.best_power_state(Amps::new(0.05));
        assert!(deep >= VrPowerState::Ps2);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = presets::vin_board_vr().params().clone();
        p.iccmax = Amps::new(0.0);
        assert!(BuckConverter::new(p).is_err());
        let mut p = presets::vin_board_vr().params().clone();
        p.phases.max_phases = 0;
        assert!(BuckConverter::new(p).is_err());
        let mut p = presets::vin_board_vr().params().clone();
        p.vin_range = (Volts::new(12.0), Volts::new(7.0));
        assert!(BuckConverter::new(p).is_err());
    }

    #[test]
    fn loss_decomposition_is_positive_and_additive() {
        let vr = presets::vin_board_vr();
        let point = op(7.2, 1.8, 5.0);
        let loss = vr.loss(point).unwrap();
        let pin = vr.input_power(point).unwrap();
        let pout = point.output_power();
        assert!((pin.get() - pout.get() - loss.get()).abs() < 1e-12);
        assert!(loss.get() > 0.0);
    }
}
