//! PDNspot validation against a reference "measured" system (§4 of the
//! paper).
//!
//! The paper validates its three power models against power measurements
//! on real Intel Broadwell (IVR), Skylake (MBVR), and Skylake-with-
//! emulated-LDO systems, reporting ≈ 99 % average ETEE accuracy over 200
//! traces. Real hardware and a Keysight power analyzer are not available
//! here, so [`ReferenceSystem`] substitutes the closest synthetic
//! equivalent (see DESIGN.md): an independent *measurement path* that
//!
//! 1. re-integrates every rail's input power from **tabulated efficiency
//!    surfaces** (sampled like a lab sweep, with interpolation error)
//!    rather than the parametric device models the analytical path uses;
//! 2. applies seeded per-unit manufacturing variation to those surfaces
//!    (VR efficiency spread, leakage bin) — every physical unit differs
//!    from the datasheet;
//! 3. adds per-measurement instrument noise at the accuracy of the
//!    paper's Keysight N6781A SMU (±0.025 %).
//!
//! Validation then compares model-predicted ETEE against the reference
//! measurement, exactly as §4.3 does.

use crate::batch::{par_map, Workers};
use crate::error::PdnError;
use crate::etee::PdnEvaluation;
use crate::scenario::Scenario;
use crate::topology::Pdn;
use pdn_units::{Efficiency, Volts, Watts};
use pdn_vr::{
    CompiledSurface, EfficiencySurface, OperatingPoint, Placement, VoltageRegulator, VrPowerState,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A reference system standing in for a lab unit on the bench.
///
/// The instrument-noise generator sits behind a [`Mutex`] so a reference
/// unit can be shared across batch workers; measurement noise is still
/// drawn strictly in measurement order (see [`validate_with`]), keeping
/// campaigns reproducible for a fixed seed.
#[derive(Debug)]
pub struct ReferenceSystem {
    /// Per-rail tabulated efficiency surfaces with unit variation baked
    /// in, compiled to the flattened query form — reintegration runs once
    /// per rail per measurement, so lookups sit on the campaign hot path.
    surfaces: BTreeMap<String, CompiledSurface>,
    /// Per-unit systematic bias that the surfaces do not capture (board
    /// parasitics, sensor calibration): a single multiplicative factor.
    unit_bias: f64,
    /// Standard deviation of per-measurement instrument noise.
    noise_sd: f64,
    rng: Mutex<StdRng>,
}

impl ReferenceSystem {
    /// "Puts a unit on the bench": samples every board-VR preset into a
    /// tabulated surface, perturbed by seeded manufacturing variation.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut surfaces = BTreeMap::new();
        let vins = [Volts::new(7.2)];
        let vouts: Vec<Volts> = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5, 1.8, 1.95]
            .iter()
            .map(|&v| Volts::new(v))
            .collect();
        let states = [
            VrPowerState::Ps0,
            VrPowerState::Ps1,
            VrPowerState::Ps2,
            VrPowerState::Ps3,
            VrPowerState::Ps4,
        ];
        let devices: Vec<pdn_vr::BuckConverter> = vec![
            pdn_vr::presets::vin_board_vr(),
            pdn_vr::presets::compute_board_vr("V_Cores"),
            pdn_vr::presets::compute_board_vr("V_GFX"),
            pdn_vr::presets::compute_board_vr("V_IN_LDO"),
            pdn_vr::presets::sa_board_vr(),
            pdn_vr::presets::io_board_vr(),
        ];
        for device in &devices {
            let surface = EfficiencySurface::sample(
                device,
                &vins,
                &vouts,
                &states,
                (0.02, device.iccmax().get() * 0.98),
                40,
            )
            .expect("preset devices produce valid surfaces");
            // Per-unit VR efficiency spread: ±0.8 % multiplicative.
            let spread = 1.0 + rng.random_range(-0.008..0.008);
            let perturbed = perturb_surface(&surface, spread);
            // The LDO PDN names its (low-voltage, compute-class) rail
            // "V_IN" too; keep it under a separate key and disambiguate by
            // rail voltage at measurement time.
            surfaces.entry(device.name().to_string()).or_insert_with(|| perturbed.compile());
        }
        let unit_bias = 1.0 + rng.random_range(-0.006..0.006);
        Self {
            surfaces,
            unit_bias,
            noise_sd: 0.00025, // Keysight N6781A: 99.975 % accuracy
            rng: Mutex::new(StdRng::seed_from_u64(seed.wrapping_add(0x5EED))),
        }
    }

    /// The deterministic half of a measurement: re-integrates each rail
    /// of a model evaluation `eval` — whose rail structure the bench unit
    /// shares — through the unit's tabulated surfaces fed from `supply`,
    /// with the per-unit bias applied. Everything except the
    /// per-measurement instrument noise. Pure: safe to fan out across
    /// batch workers in any order.
    pub(crate) fn reintegrate(&self, eval: &PdnEvaluation, supply: Volts) -> Watts {
        let mut measured = Watts::ZERO;
        for rail in &eval.rails {
            if rail.input_power.get() <= 0.0 {
                continue;
            }
            let rail_output = rail.voltage * rail.current;
            // Disambiguate the two V_IN flavours: the IVR-style first
            // stage outputs ≈ 1.8 V, the LDO-style one a compute voltage.
            let key = if rail.name == "V_IN" && rail.voltage.get() < 1.5 {
                "V_IN_LDO"
            } else {
                rail.name.as_str()
            };
            let remeasured = match self.surfaces.get(key) {
                Some(surface) => {
                    let op = OperatingPoint::new(supply, rail.voltage, rail.current);
                    // The bench unit's VR picks its own power state by
                    // load, exactly as the model's device does: the
                    // deepest state whose current capability covers the
                    // load.
                    let mut ps = VrPowerState::Ps0;
                    for candidate in VrPowerState::ALL {
                        let capability = surface.iccmax() * candidate.current_capability_factor();
                        if rail.current <= capability {
                            ps = candidate;
                        } else {
                            break;
                        }
                    }
                    match surface.efficiency(op.with_power_state(ps)) {
                        Ok(eta) => rail_output / eta,
                        Err(_) => rail.input_power,
                    }
                }
                None => rail.input_power,
            };
            measured += remeasured;
        }
        measured * self.unit_bias
    }

    /// Draws one multiplicative instrument-noise factor. Stateful: the
    /// draw order defines the measurement sequence, so callers must
    /// apply noise serially in a stable order.
    fn noise_factor(&self) -> f64 {
        let mut rng = self.rng.lock().expect("noise rng poisoned");
        1.0 + rng.random_range(-self.noise_sd..self.noise_sd)
    }
}

fn perturb_surface(surface: &EfficiencySurface, spread: f64) -> EfficiencySurface {
    let entries = surface
        .entries()
        .iter()
        .map(|e| pdn_vr::table::SurfaceEntry {
            vin: e.vin,
            vout: e.vout,
            power_state: e.power_state,
            curve: e
                .curve
                .map_y(|y| (y * spread).clamp(1e-4, 0.999))
                .expect("perturbation preserves curve validity"),
        })
        .collect();
    EfficiencySurface::new(
        format!("{}_unit", surface.name()),
        Placement::Motherboard,
        surface.iccmax(),
        entries,
    )
    .expect("perturbed surface is valid")
}

/// One validation sample: predicted vs measured ETEE for one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationSample {
    /// ETEE predicted by the analytical model.
    pub predicted: Efficiency,
    /// ETEE derived from the reference-system measurement.
    pub measured: Efficiency,
}

impl ValidationSample {
    /// Accuracy of this sample: `1 − |pred − meas| / meas` (§4.3).
    pub fn accuracy(&self) -> f64 {
        1.0 - (self.predicted.get() - self.measured.get()).abs() / self.measured.get()
    }
}

/// The outcome of a validation campaign (the §4.3 accuracy statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// All samples, in evaluation order.
    pub samples: Vec<ValidationSample>,
}

impl ValidationReport {
    /// Mean accuracy across samples.
    pub fn mean_accuracy(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(ValidationSample::accuracy).sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum accuracy across samples.
    pub fn min_accuracy(&self) -> f64 {
        self.samples.iter().map(ValidationSample::accuracy).fold(f64::INFINITY, f64::min)
    }

    /// Maximum accuracy across samples.
    pub fn max_accuracy(&self) -> f64 {
        self.samples.iter().map(ValidationSample::accuracy).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs a validation campaign with an automatically sized worker pool
/// (see [`validate_with`]).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn validate(
    pdn: &dyn Pdn,
    reference: &ReferenceSystem,
    scenarios: &[Scenario],
) -> Result<ValidationReport, PdnError> {
    validate_with(pdn, reference, scenarios, Workers::Auto)
}

/// Runs a validation campaign: evaluates `pdn` on every scenario both
/// analytically and on the reference system, collecting predicted vs
/// measured ETEE pairs.
///
/// The deterministic work — model evaluation and surface reintegration —
/// fans out over the batch worker pool; the per-measurement instrument
/// noise is then drawn serially in scenario order, so the report is
/// identical (same floating-point bits) for every [`Workers`] choice and
/// matches the historical serial campaign exactly.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn validate_with(
    pdn: &dyn Pdn,
    reference: &ReferenceSystem,
    scenarios: &[Scenario],
    workers: Workers,
) -> Result<ValidationReport, PdnError> {
    let measured = par_map(scenarios, workers, |_, scenario| {
        let eval = pdn.evaluate(scenario)?;
        let reintegrated = reference.reintegrate(&eval, pdn.params().supply_voltage);
        Ok::<_, PdnError>((eval, reintegrated))
    });
    let mut samples = Vec::with_capacity(scenarios.len());
    for result in measured {
        let (eval, reintegrated) = result?;
        let measured_input = reintegrated * reference.noise_factor();
        let measured =
            Efficiency::new((eval.nominal_power.get() / measured_input.get()).clamp(1e-6, 1.0))?;
        samples.push(ValidationSample { predicted: eval.etee, measured });
    }
    Ok(ValidationReport { samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::topology::{IvrPdn, LdoPdn, MbvrPdn};
    use pdn_proc::client_soc;
    use pdn_units::ApplicationRatio;
    use pdn_workload::WorkloadType;

    fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for tdp in [4.0, 18.0, 50.0] {
            let soc = client_soc(Watts::new(tdp));
            for wl in WorkloadType::ACTIVE_TYPES {
                for ar_pct in [40.0, 60.0, 80.0] {
                    let ar = ApplicationRatio::from_percent(ar_pct).unwrap();
                    out.push(Scenario::active_fixed_tdp_frequency(&soc, wl, ar).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn all_three_models_validate_above_98_percent() {
        // §4.3: IVR/MBVR/LDO models validate at 99.1/99.4/99.2 % average
        // accuracy; our substitute reference must land in the same band.
        let params = ModelParams::paper_defaults();
        let reference = ReferenceSystem::new(42);
        let scenarios = scenarios();
        for pdn in [
            Box::new(IvrPdn::new(params.clone())) as Box<dyn Pdn>,
            Box::new(MbvrPdn::new(params.clone())),
            Box::new(LdoPdn::new(params.clone())),
        ] {
            let report = validate(pdn.as_ref(), &reference, &scenarios).unwrap();
            let mean = report.mean_accuracy();
            assert!(
                mean > 0.98,
                "{} mean accuracy {mean:.4} below the validation band",
                pdn.kind()
            );
            assert!(report.min_accuracy() > 0.95, "{}", pdn.kind());
            assert!(report.max_accuracy() <= 1.0 + 1e-12);
        }
    }

    /// One bench measurement: a model evaluation, its re-integration on
    /// the unit, and one noise draw.
    fn measure(unit: &ReferenceSystem, pdn: &dyn Pdn, s: &Scenario) -> Watts {
        let eval = pdn.evaluate(s).unwrap();
        unit.reintegrate(&eval, pdn.params().supply_voltage) * unit.noise_factor()
    }

    #[test]
    fn different_units_measure_differently() {
        let params = ModelParams::paper_defaults();
        let pdn = MbvrPdn::new(params);
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active_fixed_tdp_frequency(
            &soc,
            WorkloadType::MultiThread,
            ApplicationRatio::new(0.6).unwrap(),
        )
        .unwrap();
        let a = measure(&ReferenceSystem::new(1), &pdn, &s);
        let b = measure(&ReferenceSystem::new(2), &pdn, &s);
        assert!((a.get() - b.get()).abs() > 1e-6, "unit variation must show up");
        // ...but both stay close to the model.
        let model = pdn.evaluate(&s).unwrap().input_power;
        for m in [a, b] {
            assert!((m.get() - model.get()).abs() / model.get() < 0.05);
        }
    }

    #[test]
    fn same_unit_is_reproducible_between_campaigns() {
        let params = ModelParams::paper_defaults();
        let pdn = IvrPdn::new(params);
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::idle(&soc, pdn_proc::PackageCState::C2);
        let a = measure(&ReferenceSystem::new(7), &pdn, &s);
        let b = measure(&ReferenceSystem::new(7), &pdn, &s);
        // Same seed, same first measurement.
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_validation_matches_serial_bitwise() {
        // The noise stream is consumed per reference unit, so compare two
        // same-seed units: one driven serially, one on four workers.
        let params = ModelParams::paper_defaults();
        let pdn = MbvrPdn::new(params);
        let scenarios = scenarios();
        let serial =
            validate_with(&pdn, &ReferenceSystem::new(11), &scenarios, Workers::Serial).unwrap();
        let parallel =
            validate_with(&pdn, &ReferenceSystem::new(11), &scenarios, Workers::Fixed(4)).unwrap();
        assert_eq!(serial, parallel, "worker count must not change the report");
    }

    #[test]
    fn validation_covers_idle_states_too() {
        let params = ModelParams::paper_defaults();
        let pdn = MbvrPdn::new(params);
        let reference = ReferenceSystem::new(9);
        let soc = client_soc(Watts::new(18.0));
        let scenarios: Vec<Scenario> =
            pdn_proc::PackageCState::ALL.iter().map(|&st| Scenario::idle(&soc, st)).collect();
        let report = validate(&pdn, &reference, &scenarios).unwrap();
        assert_eq!(report.samples.len(), 6);
        assert!(report.mean_accuracy() > 0.95, "{:.4}", report.mean_accuracy());
    }
}
