//! The FlexWatts mode-prediction algorithm (Algorithm 1 of the paper).
//!
//! The PMU firmware stores two ETEE curve sets — one per PDN mode — each a
//! multidimensional table over (TDP, workload type, AR) plus one curve for
//! the package power states. Every evaluation interval (e.g. 10 ms) the
//! PMU estimates the four inputs at runtime (§6) and selects the mode with
//! the higher predicted ETEE. A small hysteresis margin suppresses mode
//! thrashing near the crossover.

use crate::topology::{FlexWattsPdn, PdnMode};
use pdn_pmu::firmware::{FirmwareError, FirmwareImage};
use pdn_pmu::EteeCurveSet;
use pdn_proc::{client_soc, PackageCState};
use pdn_units::{ApplicationRatio, Efficiency, Seconds, Watts};
use pdn_workload::WorkloadType;
use pdnspot::{MemoCache, ModelParams, PdnError};

/// The runtime-estimated inputs of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorInputs {
    /// The configured TDP (cTDP-aware; available to PMU firmware).
    pub tdp: Watts,
    /// The activity-sensor AR estimate.
    pub ar: ApplicationRatio,
    /// The workload type classified from domain power states.
    pub workload_type: WorkloadType,
    /// The current package power state (`None` = active C0).
    pub power_state: Option<PackageCState>,
}

/// The trained mode predictor.
///
/// # Examples
///
/// ```no_run
/// use flexwatts::{ModePredictor, PdnMode, PredictorInputs};
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::ModelParams;
///
/// let predictor = ModePredictor::train(
///     &ModelParams::paper_defaults(),
///     &[4.0, 10.0, 18.0, 25.0, 50.0],
///     &[0.4, 0.6, 0.8],
/// )?;
/// let mode = predictor.predict(PredictorInputs {
///     tdp: Watts::new(4.0),
///     ar: ApplicationRatio::new(0.6)?,
///     workload_type: WorkloadType::SingleThread,
///     power_state: None,
/// });
/// assert_eq!(mode, PdnMode::LdoMode);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModePredictor {
    ivr_tables: EteeCurveSet,
    ldo_tables: EteeCurveSet,
    /// Minimum predicted ETEE advantage before leaving the current mode.
    hysteresis: f64,
    /// How often the runtime re-evaluates the prediction (§6: e.g. 10 ms).
    evaluation_interval: Seconds,
}

impl ModePredictor {
    /// The paper's evaluation interval.
    pub(crate) const DEFAULT_INTERVAL: Seconds = Seconds::new(0.010);

    /// Trains the predictor by tabulating both FlexWatts modes with
    /// PDNspot over the given (TDP, AR) lattice — the §6 "two sets of ETEE
    /// curves inside the PMU firmware".
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn train(
        params: &ModelParams,
        tdp_axis: &[f64],
        ar_axis: &[f64],
    ) -> Result<Self, PdnError> {
        Self::train_with(params, tdp_axis, ar_axis, None)
    }

    /// [`ModePredictor::train`] with an optional shared [`MemoCache`].
    /// With `Some`, both mode tabulations run through the cache (each mode
    /// keys its own entries via its [`pdnspot::Pdn::memo_token`]), so a
    /// caller retraining over overlapping lattices — a daemon booting
    /// from a warm snapshot — reuses every previously evaluated point.
    /// `None` evaluates every point directly: one training never
    /// evaluates a scenario twice for the same mode, so a cache private
    /// to one call could not hit. The trained tables are bit-identical
    /// with or without the cache.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn train_with(
        params: &ModelParams,
        tdp_axis: &[f64],
        ar_axis: &[f64],
        memo: Option<&MemoCache>,
    ) -> Result<Self, PdnError> {
        let ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        Ok(Self {
            ivr_tables: EteeCurveSet::tabulate_with(&ivr, tdp_axis, ar_axis, client_soc, memo)?,
            ldo_tables: EteeCurveSet::tabulate_with(&ldo, tdp_axis, ar_axis, client_soc, memo)?,
            hysteresis: 0.004,
            evaluation_interval: Self::DEFAULT_INTERVAL,
        })
    }

    /// Sets the hysteresis margin (predicted-ETEE advantage required to
    /// switch away from the current mode).
    pub fn with_hysteresis(mut self, margin: f64) -> Self {
        self.hysteresis = margin.max(0.0);
        self
    }

    /// Sets the evaluation interval.
    #[cfg(test)]
    pub(crate) fn with_evaluation_interval(mut self, interval: Seconds) -> Self {
        self.evaluation_interval = interval;
        self
    }

    /// The evaluation interval.
    pub(crate) fn evaluation_interval(&self) -> Seconds {
        self.evaluation_interval
    }

    /// Total firmware table entries across both curve sets (the ablation
    /// metric for table resolution).
    pub fn table_entries(&self) -> usize {
        self.ivr_tables.table_entries() + self.ldo_tables.table_entries()
    }

    /// Serialises both curve sets into flashable firmware images
    /// (IVR-Mode tables first) — the §6 "two sets of ETEE curves inside
    /// the PMU firmware" as actual bytes.
    pub fn firmware_images(&self) -> [FirmwareImage; 2] {
        [FirmwareImage::build(&self.ivr_tables), FirmwareImage::build(&self.ldo_tables)]
    }

    /// Reconstructs a predictor from flashed firmware images (the boot
    /// path of a production PMU).
    ///
    /// # Errors
    ///
    /// Returns a [`FirmwareError`] if either image is malformed.
    pub fn from_firmware(ivr_image: &[u8], ldo_image: &[u8]) -> Result<Self, FirmwareError> {
        Ok(Self {
            ivr_tables: FirmwareImage::parse(ivr_image)?,
            ldo_tables: FirmwareImage::parse(ldo_image)?,
            hysteresis: 0.004,
            evaluation_interval: Self::DEFAULT_INTERVAL,
        })
    }

    /// Predicted ETEE of one mode for the given inputs.
    pub(crate) fn predicted_etee(&self, mode: PdnMode, inputs: PredictorInputs) -> Efficiency {
        let tables = match mode {
            PdnMode::IvrMode => &self.ivr_tables,
            PdnMode::LdoMode => &self.ldo_tables,
        };
        let lookup = match inputs.power_state {
            Some(state) => tables.lookup_idle(state, inputs.tdp),
            None => tables.lookup_active(inputs.workload_type, inputs.tdp, inputs.ar),
        };
        lookup.expect("tabulated ETEE values are valid efficiencies")
    }

    /// Algorithm 1: returns the mode with the higher predicted ETEE.
    pub fn predict(&self, inputs: PredictorInputs) -> PdnMode {
        let ivr = self.predicted_etee(PdnMode::IvrMode, inputs);
        let ldo = self.predicted_etee(PdnMode::LdoMode, inputs);
        if ivr >= ldo {
            PdnMode::IvrMode
        } else {
            PdnMode::LdoMode
        }
    }

    /// Algorithm 1 with hysteresis: only leaves `current` when the other
    /// mode's predicted advantage exceeds the margin (mode switches cost
    /// ≈ 94 µs of idleness, §6).
    pub(crate) fn predict_with_hysteresis(
        &self,
        inputs: PredictorInputs,
        current: PdnMode,
    ) -> PdnMode {
        let ivr = self.predicted_etee(PdnMode::IvrMode, inputs).get();
        let ldo = self.predicted_etee(PdnMode::LdoMode, inputs).get();
        let (current_etee, other, other_etee) = match current {
            PdnMode::IvrMode => (ivr, PdnMode::LdoMode, ldo),
            PdnMode::LdoMode => (ldo, PdnMode::IvrMode, ivr),
        };
        if other_etee > current_etee + self.hysteresis {
            other
        } else {
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnspot::{Pdn, Scenario};

    fn trained() -> ModePredictor {
        ModePredictor::train(
            &ModelParams::paper_defaults(),
            &[4.0, 10.0, 18.0, 25.0, 36.0, 50.0],
            &[0.4, 0.5, 0.6, 0.7, 0.8],
        )
        .unwrap()
    }

    fn inputs(tdp: f64, ar: f64, wl: WorkloadType) -> PredictorInputs {
        PredictorInputs {
            tdp: Watts::new(tdp),
            ar: ApplicationRatio::new(ar).unwrap(),
            workload_type: wl,
            power_state: None,
        }
    }

    #[test]
    fn low_tdp_selects_ldo_mode_high_tdp_ivr_mode() {
        let p = trained();
        assert_eq!(p.predict(inputs(4.0, 0.6, WorkloadType::SingleThread)), PdnMode::LdoMode);
        assert_eq!(p.predict(inputs(50.0, 0.6, WorkloadType::MultiThread)), PdnMode::IvrMode);
    }

    #[test]
    fn idle_states_select_ldo_mode() {
        let p = trained();
        for state in [PackageCState::C2, PackageCState::C8] {
            let mut i = inputs(25.0, 0.6, WorkloadType::BatteryLife);
            i.power_state = Some(state);
            assert_eq!(p.predict(i), PdnMode::LdoMode, "{state}");
        }
    }

    #[test]
    fn predictions_match_the_oracle_between_knots() {
        // The predictor interpolates its tables; off-knot predictions must
        // agree with brute-force PDNspot evaluation almost everywhere.
        let p = trained();
        let params = ModelParams::paper_defaults();
        let ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ldo = FlexWattsPdn::new(params, PdnMode::LdoMode);
        let mut agree = 0;
        let mut total = 0;
        for tdp in [6.0, 14.0, 21.0, 30.0, 45.0] {
            let soc = client_soc(Watts::new(tdp));
            for wl in WorkloadType::ACTIVE_TYPES {
                for ar_v in [0.45, 0.65] {
                    let ar = ApplicationRatio::new(ar_v).unwrap();
                    let s = Scenario::active_fixed_tdp_frequency(&soc, wl, ar).unwrap();
                    let oracle = if ivr.evaluate(&s).unwrap().etee >= ldo.evaluate(&s).unwrap().etee
                    {
                        PdnMode::IvrMode
                    } else {
                        PdnMode::LdoMode
                    };
                    let predicted = p.predict(inputs(tdp, ar_v, wl));
                    total += 1;
                    if predicted == oracle {
                        agree += 1;
                    }
                }
            }
        }
        assert!(
            agree as f64 / total as f64 >= 0.85,
            "predictor agreed with the oracle on only {agree}/{total} points"
        );
    }

    #[test]
    fn hysteresis_holds_the_current_mode_near_the_crossover() {
        let p = trained().with_hysteresis(0.05);
        // A near-crossover point: 18 W multi-thread.
        let i = inputs(18.0, 0.6, WorkloadType::MultiThread);
        let sticky_ivr = p.predict_with_hysteresis(i, PdnMode::IvrMode);
        let sticky_ldo = p.predict_with_hysteresis(i, PdnMode::LdoMode);
        // With a 5 % margin, both current modes persist at the crossover.
        assert_eq!(sticky_ivr, PdnMode::IvrMode);
        assert_eq!(sticky_ldo, PdnMode::LdoMode);
        // With no margin, both collapse to the same argmax decision.
        let p0 = trained().with_hysteresis(0.0);
        assert_eq!(
            p0.predict_with_hysteresis(i, PdnMode::IvrMode),
            p0.predict_with_hysteresis(i, PdnMode::LdoMode)
        );
    }

    #[test]
    fn retraining_through_a_shared_cache_is_bit_identical_and_fully_cached() {
        let params = ModelParams::paper_defaults();
        let axes: (&[f64], &[f64]) = (&[4.0, 18.0, 50.0], &[0.4, 0.6, 0.8]);
        let plain = ModePredictor::train(&params, axes.0, axes.1).unwrap();
        let memo = MemoCache::new();
        let cold = ModePredictor::train_with(&params, axes.0, axes.1, Some(&memo)).unwrap();
        let cold_stats = memo.stats();
        assert_eq!(cold_stats.hits, 0, "nothing to reuse on the first training");
        let warm = ModePredictor::train_with(&params, axes.0, axes.1, Some(&memo)).unwrap();
        let warm_stats = memo.stats();
        assert_eq!(
            warm_stats.misses, cold_stats.misses,
            "retraining must not evaluate anything new"
        );
        assert!(warm_stats.hits > 0, "retraining must be served from cache");
        for predictor in [&cold, &warm] {
            assert_eq!(predictor.ivr_tables, plain.ivr_tables);
            assert_eq!(predictor.ldo_tables, plain.ldo_tables);
        }
    }

    #[test]
    fn firmware_flash_round_trip_preserves_decisions() {
        let p = trained();
        let [ivr_img, ldo_img] = p.firmware_images();
        let rebooted =
            ModePredictor::from_firmware(ivr_img.as_bytes(), ldo_img.as_bytes()).unwrap();
        for tdp in [5.0, 17.0, 42.0] {
            for wl in WorkloadType::ACTIVE_TYPES {
                let i = inputs(tdp, 0.62, wl);
                assert_eq!(p.predict(i), rebooted.predict(i), "{tdp} W {wl}");
            }
        }
        let flash_bytes = ivr_img.len() + ldo_img.len();
        assert!(flash_bytes < 16 * 1024, "predictor flash cost {flash_bytes} B");
    }

    #[test]
    fn table_footprint_scales_with_resolution() {
        let coarse =
            ModePredictor::train(&ModelParams::paper_defaults(), &[4.0, 50.0], &[0.4, 0.8])
                .unwrap();
        let fine = trained();
        assert!(fine.table_entries() > coarse.table_entries());
        assert_eq!(fine.evaluation_interval(), ModePredictor::DEFAULT_INTERVAL);
    }
}
