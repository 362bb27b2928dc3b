//! The I+MBVR hybrid PDN (§7, Intel Skylake-X): IVRs for the compute
//! domains, dedicated board VRs for SA and IO.

use super::{
    dedicated_rail_finish, dedicated_rail_lane, ivr_domain_stage, pdn_memo_token, Pdn, PdnKind,
};
use crate::error::PdnError;
use crate::etee::{
    board_vr_stage, load_line_domain_stages, load_line_stage, DirectStager, LossBreakdown,
    PdnEvaluation, RailReport, RowStage, Stager,
};
use crate::params::ModelParams;
use crate::scenario::Scenario;
use pdn_proc::{DomainKind, DomainTable};
use pdn_units::{Amps, Watts};
use pdn_vr::{presets, BuckConverter};

/// The IVR+MBVR hybrid: like the IVR PDN it regulates the wide-range
/// domains in two stages through `V_IN`, but like the LDO PDN it removes
/// the second stage for SA/IO, giving those narrow-range domains one-stage
/// efficiency.
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::{IPlusMbvrPdn, IvrPdn, ModelParams, Pdn, Scenario};
///
/// let params = ModelParams::paper_defaults();
/// let soc = pdn_proc::client_soc(Watts::new(18.0));
/// let s = Scenario::active_budget(
///     &soc,
///     WorkloadType::MultiThread,
///     ApplicationRatio::new(0.6)?,
///     &params,
/// )?;
/// let iplus = IPlusMbvrPdn::new(params.clone()).evaluate(&s)?;
/// let ivr = IvrPdn::new(params).evaluate(&s)?;
/// assert!(iplus.etee.get() > ivr.etee.get(), "I+MBVR beats IVR (§7.1)");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IPlusMbvrPdn {
    params: ModelParams,
    /// [`Pdn::memo_token`], fixed at construction (`params` never changes).
    token: u64,
    vin_vr: BuckConverter,
    sa_vr: BuckConverter,
    io_vr: BuckConverter,
    ivrs: DomainTable<Option<BuckConverter>>,
}

impl IPlusMbvrPdn {
    /// Builds the I+MBVR PDN: four compute IVRs plus `V_IN`, `V_SA`,
    /// `V_IO` board rails.
    pub fn new(params: ModelParams) -> Self {
        let ivrs = DomainTable::from_fn(|k| {
            k.is_wide_range().then(|| presets::ivr(&format!("IVR_{}", k.rail_name())))
        });
        Self {
            token: pdn_memo_token(PdnKind::IPlusMbvr, 0, &params),
            params,
            vin_vr: presets::vin_board_vr(),
            sa_vr: presets::sa_board_vr(),
            io_vr: presets::io_board_vr(),
            ivrs,
        }
    }

    /// [`Pdn::evaluate`] with the PDN-independent stages routed through a
    /// [`Stager`]; returns the same bits for any stager implementation.
    pub fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let mut breakdown = LossBreakdown::default();
        let mut rails: Vec<RailReport> = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        // Compute domains: the IVR flow (Eqs. 6–9) restricted to the
        // wide-range group.
        let mut p_in = Watts::ZERO;
        for &kind in &DomainKind::WIDE_RANGE {
            let ivr = self.ivrs.get(kind).as_ref().expect("wide-range domains carry an IVR");
            let stage = ivr_domain_stage(scenario, kind, p, ivr, stager)?;
            p_in += stage.input_power;
            breakdown.other += stage.overhead;
            breakdown.vr_loss += stage.vr_loss;
        }
        if p_in.get() > 0.0 {
            let step = load_line_stage(p_in, p.vin_level, scenario.ar, p.ivr_loadlines.vin);
            breakdown.conduction_compute += step.extra;
            chip_current += p_in / p.vin_level;
            let (pin, rail) = board_vr_stage(
                &self.vin_vr,
                p.supply_voltage,
                step.v_ll,
                step.p_ll,
                p.board_lightload_cap,
            )?;
            breakdown.vr_loss += pin - step.p_ll;
            p_batt += pin;
            rails.push(rail);
        }

        // SA/IO: dedicated one-stage board rails (the MBVR flow), their
        // load-line fixed points advanced in lockstep. Per rail this is
        // `dedicated_rail_flow` with the same operations in the same
        // order, so the bits are unchanged.
        let tob = p.ivr_tob.total();
        let r_pg = super::power_gate_impedance();
        let (sa_lane, sa_overhead) = dedicated_rail_lane(
            scenario,
            DomainKind::Sa,
            tob,
            r_pg,
            p.mbvr_loadlines.sa,
            p,
            stager,
        );
        let (io_lane, io_overhead) = dedicated_rail_lane(
            scenario,
            DomainKind::Io,
            tob,
            r_pg,
            p.mbvr_loadlines.io,
            p,
            stager,
        );
        let steps = load_line_domain_stages(&[sa_lane, io_lane], p.leakage_exponent);
        for (l, (overhead, vr)) in
            [(sa_overhead, &self.sa_vr), (io_overhead, &self.io_vr)].into_iter().enumerate()
        {
            let (pin, overhead, conduction, vr_loss, rail) =
                dedicated_rail_finish(steps[l], vr, p, overhead)?;
            if pin.get() > 0.0 {
                breakdown.other += overhead;
                breakdown.conduction_sa_io += conduction;
                breakdown.vr_loss += vr_loss;
                chip_current += rail.current;
                p_batt += pin;
                rails.push(rail);
            }
        }

        PdnEvaluation::assemble(
            scenario.total_nominal_power(),
            p_batt,
            breakdown,
            chip_current,
            rails,
        )
    }
}

impl Pdn for IPlusMbvrPdn {
    fn kind(&self) -> PdnKind {
        PdnKind::IPlusMbvr
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
    use crate::topology::IvrPdn;
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::ApplicationRatio;
    use pdn_workload::WorkloadType;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn three_offchip_rails() {
        let pdn = IPlusMbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let rails = pdn.offchip_rails(&soc).unwrap();
        assert_eq!(rails.len(), 3, "I+MBVR uses V_IN, V_SA, V_IO");
    }

    #[test]
    fn beats_ivr_at_every_tdp() {
        let params = ModelParams::paper_defaults();
        let iplus = IPlusMbvrPdn::new(params.clone());
        let ivr = IvrPdn::new(params);
        for tdp in [4.0, 18.0, 50.0] {
            let soc = client_soc(Watts::new(tdp));
            let s =
                Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), iplus.params())
                    .unwrap();
            let e_iplus = iplus.evaluate(&s).unwrap().etee.get();
            let e_ivr = ivr.evaluate(&s).unwrap().etee.get();
            assert!(e_iplus > e_ivr, "I+MBVR must beat IVR at {tdp} W: {e_iplus:.3} vs {e_ivr:.3}");
        }
    }

    #[test]
    fn power_is_conserved() {
        let pdn = IPlusMbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(25.0));
        let s =
            Scenario::active_budget(&soc, WorkloadType::Graphics, ar(0.7), pdn.params()).unwrap();
        let e = pdn.evaluate(&s).unwrap();
        let accounted = e.nominal_power + e.breakdown.total();
        assert!((accounted.get() - e.input_power.get()).abs() < 1e-6);
    }

    #[test]
    fn idle_states_better_than_ivr() {
        let params = ModelParams::paper_defaults();
        let iplus = IPlusMbvrPdn::new(params.clone());
        let ivr = IvrPdn::new(params);
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::idle(&soc, PackageCState::C8);
        assert!(iplus.evaluate(&s).unwrap().etee.get() > ivr.evaluate(&s).unwrap().etee.get());
    }
}
