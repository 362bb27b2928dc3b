//! The IVR PDN (Fig. 1a; Eqs. 6–9): one board `V_IN` VR at 1.8 V feeding
//! six on-die integrated voltage regulators.

use super::{ivr_domain_stage, pdn_memo_token, Pdn, PdnKind};
use crate::error::PdnError;
use crate::etee::{
    board_vr_stage, load_line_stage, DirectStager, LossBreakdown, PdnEvaluation, RowStage, Stager,
};
use crate::params::ModelParams;
use crate::scenario::Scenario;
use pdn_proc::{DomainKind, DomainTable};
use pdn_units::Watts;
use pdn_vr::{presets, BuckConverter};

/// The integrated-voltage-regulator PDN — the state of the art the paper
/// compares against (Intel 4th/5th/10th-generation Core).
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::{IvrPdn, ModelParams, Pdn, Scenario};
///
/// let params = ModelParams::paper_defaults();
/// let soc = pdn_proc::client_soc(Watts::new(50.0));
/// let s = Scenario::active_budget(
///     &soc,
///     WorkloadType::MultiThread,
///     ApplicationRatio::new(0.6)?,
///     &params,
/// )?;
/// let eval = IvrPdn::new(params).evaluate(&s)?;
/// assert!(eval.etee.get() > 0.70);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IvrPdn {
    params: ModelParams,
    /// [`Pdn::memo_token`], fixed at construction (`params` never changes).
    token: u64,
    vin_vr: BuckConverter,
    ivrs: DomainTable<BuckConverter>,
}

impl IvrPdn {
    /// Builds the IVR PDN with its six per-domain IVRs and `V_IN` board VR.
    pub fn new(params: ModelParams) -> Self {
        let ivrs = DomainTable::from_fn(|k| presets::ivr(&format!("IVR_{}", k.rail_name())));
        let token = pdn_memo_token(PdnKind::Ivr, 0, &params);
        Self { params, token, vin_vr: presets::vin_board_vr(), ivrs }
    }

    /// [`Pdn::evaluate`] with the PDN-independent stages routed through a
    /// [`Stager`]; returns the same bits for any stager implementation.
    pub(crate) fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let mut breakdown = LossBreakdown::default();
        let mut p_in = Watts::ZERO;
        let mut p_in_compute = Watts::ZERO;

        for kind in DomainKind::ALL {
            let stage = ivr_domain_stage(scenario, kind, p, self.ivrs.get(kind), stager)?;
            p_in += stage.input_power;
            breakdown.other += stage.overhead;
            breakdown.vr_loss += stage.vr_loss;
            if kind.is_wide_range() {
                p_in_compute += stage.input_power;
            }
        }

        // Eq. 7/8: load line on the shared V_IN rail, with the conduction
        // cost attributed proportionally to the compute and SA/IO shares.
        let step = load_line_stage(p_in, p.vin_level, scenario.ar, p.ivr_loadlines.vin);
        if p_in.get() > 0.0 {
            let compute_share = p_in_compute.get() / p_in.get();
            breakdown.conduction_compute += step.extra * compute_share;
            breakdown.conduction_sa_io += step.extra * (1.0 - compute_share);
        }

        // Eq. 9: the first-stage board VR.
        let (p_batt, rail) = board_vr_stage(
            &self.vin_vr,
            p.supply_voltage,
            step.v_ll,
            step.p_ll,
            p.board_lightload_cap,
        )?;
        breakdown.vr_loss += p_batt - step.p_ll;

        let chip_input_current =
            if p_in.get() > 0.0 { p_in / p.vin_level } else { pdn_units::Amps::ZERO };
        PdnEvaluation::assemble(
            scenario.total_nominal_power(),
            p_batt,
            breakdown,
            chip_input_current,
            vec![rail],
        )
    }
}

impl Pdn for IvrPdn {
    fn kind(&self) -> PdnKind {
        PdnKind::Ivr
    }

    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<PdnEvaluation, PdnError> {
        self.evaluate_with(scenario, &DirectStager)
    }

    fn evaluate_row(
        &self,
        scenarios: &[Scenario],
        row: &RowStage,
    ) -> Vec<Result<PdnEvaluation, PdnError>> {
        scenarios.iter().map(|s| self.evaluate_with(s, row)).collect()
    }

    fn memo_token(&self) -> Option<u64> {
        Some(self.token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::ApplicationRatio;
    use pdn_workload::WorkloadType;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn single_offchip_rail() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let rails = pdn.offchip_rails(&soc).unwrap();
        assert_eq!(rails.len(), 1, "IVR PDN uses one off-chip VR");
        assert_eq!(rails[0].name, "V_IN");
    }

    #[test]
    fn power_is_conserved() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), pdn.params())
            .unwrap();
        let e = pdn.evaluate(&s).unwrap();
        let accounted = e.nominal_power + e.breakdown.total();
        assert!(
            (accounted.get() - e.input_power.get()).abs() < 1e-6,
            "nominal + losses must equal input: {accounted} vs {}",
            e.input_power
        );
    }

    #[test]
    fn etee_improves_from_low_tdp() {
        // Observation 1: two-stage conversion hurts most at low power, so
        // the 4 W point is the IVR PDN's worst across the TDP range.
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let at = |tdp: f64| {
            let soc = client_soc(Watts::new(tdp));
            let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), pdn.params())
                .unwrap();
            pdn.evaluate(&s).unwrap().etee.get()
        };
        let low = at(4.0);
        assert!(at(18.0) > low, "18 W should beat 4 W");
        assert!(at(50.0) > low, "50 W should beat 4 W");
    }

    #[test]
    fn idle_states_are_inefficient() {
        // Observation 3: deep C-states pay the two-stage overhead.
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let c6 = pdn.evaluate(&Scenario::idle(&soc, PackageCState::C6)).unwrap();
        let c8 = pdn.evaluate(&Scenario::idle(&soc, PackageCState::C8)).unwrap();
        assert!(c8.etee.get() < c6.etee.get(), "C8's tiny currents hurt the two-stage IVR");
        assert!(c8.etee.get() < 0.76, "IVR C8 ETEE should be poor: {}", c8.etee);
    }

    #[test]
    fn chip_input_current_uses_the_high_vin() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(50.0));
        let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), pdn.params())
            .unwrap();
        let e = pdn.evaluate(&s).unwrap();
        // ~40 W at 1.8 V is ≈ 25 A, far below what a 1 V rail would carry.
        assert!(e.chip_input_current.get() < 40.0);
        assert!(e.chip_input_current.get() > 10.0);
    }
}
