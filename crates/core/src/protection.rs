//! System maximum-current protection for the hybrid PDN.
//!
//! FlexWatts's shared `V_IN` VR is electrically sized for IVR-Mode
//! currents (§7: IVR-Mode carries roughly half the current of LDO-Mode at
//! the same power, so the shared VR is designed "with a maximum-current
//! level similar to that of IVR"). That sizing is only safe because the
//! PMU's maximum-current protection (§6 cites the Skylake mechanism)
//! *forces* IVR-Mode whenever running in LDO-Mode would push the `V_IN`
//! current past its design limit — efficiency preferences never override
//! electrical safety.
//!
//! [`MaxCurrentProtection`] implements that override. The runtime consults
//! it after every predictor decision.

use crate::topology::{FlexWattsPdn, PdnMode};
use pdn_units::Amps;
use pdnspot::PdnError;

/// The PMU's maximum-current protection for the shared `V_IN` rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxCurrentProtection {
    /// The `V_IN` rail's electrical design current.
    pub(crate) vin_iccmax: Amps,
    /// Protection threshold as a fraction of Iccmax: the PMU acts before
    /// the limit is reached (sensing latency, load transients).
    pub(crate) threshold: f64,
}

impl MaxCurrentProtection {
    /// Creates a protection with explicit limits, validating them: a
    /// non-finite or non-positive `vin_iccmax`, or a threshold outside
    /// `(0, 1]`, would yield a protection that can never trip (or trips
    /// above the rail's electrical limit), silently disabling the safety
    /// net the `V_IN` sizing depends on.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Degraded`] describing the rejected value.
    pub fn new(vin_iccmax: Amps, threshold: f64) -> Result<Self, PdnError> {
        if !vin_iccmax.is_finite() || vin_iccmax.get() <= 0.0 {
            return Err(PdnError::Degraded {
                component: "MaxCurrentProtection".into(),
                reason: format!(
                    "vin_iccmax must be finite and positive, got {} A",
                    vin_iccmax.get()
                ),
            });
        }
        if !threshold.is_finite() || threshold <= 0.0 || threshold > 1.0 {
            return Err(PdnError::Degraded {
                component: "MaxCurrentProtection".into(),
                reason: format!("threshold must be finite and in (0, 1], got {threshold}"),
            });
        }
        Ok(Self { vin_iccmax, threshold })
    }

    /// Builds the protection from the FlexWatts rail sizing of a SoC: the
    /// `V_IN` rail's LDO-Mode output-current capability (the IVR-Mode
    /// rating times the duty-cycle headroom at the low output voltage,
    /// capped at the mode-crossover power — see
    /// [`FlexWattsPdn::vin_protection_limit`]), with a 5 % electrical
    /// margin on top so steady crossover-level operation does not trip it.
    ///
    /// # Errors
    ///
    /// Propagates rail-sizing errors and rejects degenerate sizings
    /// (non-finite or non-positive limits) that would produce a
    /// protection that can never trip.
    pub(crate) fn from_rail_sizing(
        pdn: &FlexWattsPdn,
        soc: &pdn_proc::SocSpec,
    ) -> Result<Self, PdnError> {
        let vin = pdn.vin_protection_limit(soc)? * 1.05;
        Self::new(vin, 0.95)
    }

    /// The current the protection allows before intervening.
    pub(crate) fn trip_current(&self) -> Amps {
        self.vin_iccmax * self.threshold
    }

    /// Whether a `V_IN` current would trip the protection.
    pub(crate) fn would_trip(&self, vin_current: Amps) -> bool {
        vin_current > self.trip_current()
    }

    /// Applies the protection to a mode decision: if running the interval
    /// in the decided mode would exceed the trip current on `V_IN` — its
    /// LDO-Mode `V_IN` current is `ldo_vin_current` — the decision is
    /// overridden to IVR-Mode (whose higher rail voltage halves the
    /// current).
    ///
    /// Returns the (possibly overridden) mode and whether an override
    /// fired.
    pub(crate) fn enforce(&self, decided: PdnMode, ldo_vin_current: Amps) -> (PdnMode, bool) {
        if decided == PdnMode::LdoMode && self.would_trip(ldo_vin_current) {
            (PdnMode::IvrMode, true)
        } else {
            (decided, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;
    use pdn_units::{ApplicationRatio, Watts};
    use pdn_workload::WorkloadType;
    use pdnspot::{ModelParams, Pdn, Scenario};

    /// The LDO-Mode `V_IN` rail current of a scenario.
    fn ldo_vin_current(ldo: &FlexWattsPdn, scenario: &Scenario) -> Amps {
        let eval = ldo.evaluate(scenario).unwrap();
        eval.rails.iter().find(|r| r.name == "V_IN").map_or(Amps::ZERO, |r| r.current)
    }

    fn protection(tdp: f64) -> (MaxCurrentProtection, FlexWattsPdn, pdn_proc::SocSpec) {
        let params = ModelParams::paper_defaults();
        let soc = client_soc(Watts::new(tdp));
        let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let ivr = FlexWattsPdn::new(params, PdnMode::IvrMode);
        let prot = MaxCurrentProtection::from_rail_sizing(&ivr, &soc).unwrap();
        (prot, ldo, soc)
    }

    #[test]
    fn ivr_mode_decisions_pass_through() {
        let (prot, ldo, soc) = protection(18.0);
        let s = Scenario::active_fixed_tdp_frequency(
            &soc,
            WorkloadType::MultiThread,
            ApplicationRatio::new(0.6).unwrap(),
        )
        .unwrap();
        let (mode, fired) = prot.enforce(PdnMode::IvrMode, ldo_vin_current(&ldo, &s));
        assert_eq!(mode, PdnMode::IvrMode);
        assert!(!fired);
    }

    #[test]
    fn light_ldo_mode_loads_are_allowed() {
        let (prot, ldo, soc) = protection(18.0);
        let s = Scenario::idle(&soc, pdn_proc::PackageCState::C0Min);
        let (mode, fired) = prot.enforce(PdnMode::LdoMode, ldo_vin_current(&ldo, &s));
        assert_eq!(mode, PdnMode::LdoMode);
        assert!(!fired, "C0MIN currents are far below the trip point");
    }

    #[test]
    fn heavy_ldo_mode_loads_force_ivr_mode() {
        // The rail is sized at the IVR-Mode virus current; the LDO-Mode
        // virus at low rail voltage roughly doubles the current, so the
        // protection must fire.
        let (prot, ldo, soc) = protection(50.0);
        let virus = Scenario::power_virus_at_tdp(&soc, WorkloadType::MultiThread).unwrap();
        let (mode, fired) = prot.enforce(PdnMode::LdoMode, ldo_vin_current(&ldo, &virus));
        assert_eq!(mode, PdnMode::IvrMode);
        assert!(fired, "the power virus in LDO-Mode must trip the protection");
    }

    #[test]
    fn trip_current_sits_below_iccmax() {
        let (prot, _, _) = protection(25.0);
        assert!(prot.trip_current() < prot.vin_iccmax);
        assert!(prot.trip_current().get() > 0.0);
    }

    #[test]
    fn degenerate_limits_are_rejected_with_a_descriptive_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0] {
            let err = MaxCurrentProtection::new(Amps::new(bad), 0.95).unwrap_err();
            assert!(
                matches!(&err, PdnError::Degraded { component, .. }
                    if component == "MaxCurrentProtection"),
                "{err}"
            );
            assert!(err.to_string().contains("vin_iccmax"), "{err}");
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.5, 1.5] {
            let err = MaxCurrentProtection::new(Amps::new(30.0), bad).unwrap_err();
            assert!(err.to_string().contains("threshold"), "{err}");
        }
        // A valid configuration still constructs and can trip.
        let ok = MaxCurrentProtection::new(Amps::new(30.0), 0.95).unwrap();
        assert!(ok.would_trip(Amps::new(29.0)));
        assert!(!ok.would_trip(Amps::new(28.0)));
    }

    #[test]
    fn ldo_mode_virus_current_is_roughly_double_ivr_mode() {
        // §7's quantitative claim: "FlexWatts has reduced current (by
        // nearly 50%) in IVR-Mode compared to LDO".
        let params = ModelParams::paper_defaults();
        let soc = client_soc(Watts::new(25.0));
        let virus = Scenario::power_virus_at_tdp(&soc, WorkloadType::MultiThread).unwrap();
        let vin_current = |mode: PdnMode| -> f64 {
            FlexWattsPdn::new(params.clone(), mode)
                .evaluate(&virus)
                .unwrap()
                .rails
                .iter()
                .find(|r| r.name == "V_IN")
                .unwrap()
                .current
                .get()
        };
        let ratio = vin_current(PdnMode::LdoMode) / vin_current(PdnMode::IvrMode);
        assert!(
            (1.5..=3.0).contains(&ratio),
            "LDO-Mode current should be ≈ 2× IVR-Mode: {ratio:.2}×"
        );
    }
}
