//! The MBVR PDN (Fig. 1b; Eqs. 2–5): one-stage motherboard VRs per domain
//! group, with on-die power gates.

use super::{gated_domain_stage, pdn_memo_token, power_gate_impedance, Pdn, PdnKind};
use crate::error::PdnError;
use crate::etee::{
    board_vr_stage, load_line_domain_stages, DirectStager, LossBreakdown, PdnEvaluation,
    RailLoadLine, RailReport, RowStage, Stager, MAX_RAIL_LANES,
};
use crate::params::ModelParams;
use crate::scenario::Scenario;
use pdn_proc::DomainKind;
use pdn_units::{Amps, Ohms, Volts, Watts};
use pdn_vr::{presets, BuckConverter};

/// One board rail and the domains it serves.
#[derive(Debug)]
struct RailGroup {
    vr: BuckConverter,
    domains: Vec<DomainKind>,
    compute: bool,
}

/// The motherboard-voltage-regulator PDN (Intel 2nd/3rd/6th–9th-generation
/// Core): `V_Cores` feeds both cores and the LLC, `V_GFX` the graphics,
/// `V_SA`/`V_IO` the narrow-range domains.
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::{MbvrPdn, ModelParams, Pdn, Scenario};
///
/// let params = ModelParams::paper_defaults();
/// let soc = pdn_proc::client_soc(Watts::new(4.0));
/// let s = Scenario::active_budget(
///     &soc,
///     WorkloadType::SingleThread,
///     ApplicationRatio::new(0.6)?,
///     &params,
/// )?;
/// let eval = MbvrPdn::new(params).evaluate(&s)?;
/// assert!(eval.etee.get() > 0.72, "MBVR is efficient at low TDP");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MbvrPdn {
    params: ModelParams,
    /// [`Pdn::memo_token`], fixed at construction (`params` never changes).
    token: u64,
    groups: Vec<RailGroup>,
}

impl MbvrPdn {
    /// Builds the MBVR PDN with its four board rails.
    pub fn new(params: ModelParams) -> Self {
        let groups = vec![
            RailGroup {
                vr: presets::compute_board_vr("V_Cores"),
                domains: vec![DomainKind::Core0, DomainKind::Core1, DomainKind::Llc],
                compute: true,
            },
            RailGroup {
                vr: presets::compute_board_vr("V_GFX"),
                domains: vec![DomainKind::Gfx],
                compute: true,
            },
            RailGroup { vr: presets::sa_board_vr(), domains: vec![DomainKind::Sa], compute: false },
            RailGroup { vr: presets::io_board_vr(), domains: vec![DomainKind::Io], compute: false },
        ];
        Self { token: pdn_memo_token(PdnKind::Mbvr, 0, &params), params, groups }
    }

    fn group_loadline(&self, group: &RailGroup) -> Ohms {
        if group.compute {
            self.params.mbvr_loadlines.compute
        } else if group.domains.contains(&DomainKind::Sa) {
            self.params.mbvr_loadlines.sa
        } else {
            self.params.mbvr_loadlines.io
        }
    }

    /// [`Pdn::evaluate`] with the PDN-independent stages routed through a
    /// [`Stager`]; returns the same bits for any stager implementation.
    pub(crate) fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let tob = p.mbvr_tob.total();
        let r_pg = power_gate_impedance();
        let mut breakdown = LossBreakdown::default();
        let mut rails: Vec<RailReport> = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        // Phase 1 — Eq. 2 + power gate for each domain, collecting each
        // powered group's rail-level load. The per-accumulator addition
        // order matches the single-loop walk (group order), so the split
        // into phases changes no bits.
        let mut lanes: [RailLoadLine; MAX_RAIL_LANES] = [RailLoadLine {
            power: Watts::ZERO,
            voltage: Volts::ZERO,
            p_peak: Watts::ZERO,
            r_ll: Ohms::new(0.0),
            leakage_fraction: pdn_units::Ratio::ZERO,
        }; MAX_RAIL_LANES];
        let mut active: [Option<&RailGroup>; MAX_RAIL_LANES] = [None; MAX_RAIL_LANES];
        let mut n_lanes = 0;
        for group in &self.groups {
            let mut p_d = Watts::ZERO;
            let mut v_d = Volts::ZERO;
            let mut fl_weighted = 0.0;
            for &kind in &group.domains {
                let (pwr, v, overhead) =
                    gated_domain_stage(scenario, kind, tob, r_pg, p.leakage_exponent, stager);
                p_d += pwr;
                breakdown.other += overhead;
                fl_weighted += scenario.load(kind).leakage_fraction.get() * pwr.get();
                // The shared rail supplies the highest voltage any member
                // requires.
                if pwr.get() > 0.0 {
                    v_d = v_d.max(v);
                }
            }
            if p_d.get() <= 0.0 {
                continue; // the whole group is gated; its rail is off
            }
            let group_fl = pdn_units::Ratio::new(fl_weighted / p_d.get())
                .expect("weighted mean of valid fractions");
            lanes[n_lanes] = RailLoadLine {
                power: p_d,
                voltage: v_d,
                p_peak: stager.rail_virus_power(scenario, &group.domains, p_d),
                r_ll: self.group_loadline(group),
                leakage_fraction: group_fl,
            };
            active[n_lanes] = Some(group);
            n_lanes += 1;
            chip_current += p_d / v_d;
        }

        // Phase 2 — Eqs. 3–4: the powered groups' load lines, advanced in
        // lockstep so their fixed-point chains overlap.
        let steps = load_line_domain_stages(&lanes[..n_lanes], p.leakage_exponent);

        // Phase 3 — Eq. 5 term: each group's board VR, in group order.
        for l in 0..n_lanes {
            let group = active[l].expect("lane count matches active groups");
            let step = steps[l];
            if group.compute {
                breakdown.conduction_compute += step.extra;
            } else {
                breakdown.conduction_sa_io += step.extra;
            }
            let (pin, rail) = board_vr_stage(
                &group.vr,
                p.supply_voltage,
                step.v_ll,
                step.p_ll,
                p.board_lightload_cap,
            )?;
            breakdown.vr_loss += pin - step.p_ll;
            p_batt += pin;
            rails.push(rail);
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

impl Pdn for MbvrPdn {
    fn kind(&self) -> PdnKind {
        PdnKind::Mbvr
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
    fn four_offchip_rails_when_everything_runs() {
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let rails = pdn.offchip_rails(&soc).unwrap();
        assert_eq!(rails.len(), 4, "MBVR uses V_Cores, V_GFX, V_SA, V_IO");
        let names: Vec<&str> = rails.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"V_Cores") && names.contains(&"V_GFX"));
    }

    #[test]
    fn gated_gfx_rail_is_off_in_cpu_workloads() {
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active_budget(&soc, WorkloadType::SingleThread, ar(0.6), pdn.params())
            .unwrap();
        let e = pdn.evaluate(&s).unwrap();
        assert!(
            !e.rails.iter().any(|r| r.name == "V_GFX"),
            "single-thread gates GFX, so its rail should be off"
        );
    }

    #[test]
    fn power_is_conserved() {
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(50.0));
        let s =
            Scenario::active_budget(&soc, WorkloadType::Graphics, ar(0.7), pdn.params()).unwrap();
        let e = pdn.evaluate(&s).unwrap();
        let accounted = e.nominal_power + e.breakdown.total();
        assert!((accounted.get() - e.input_power.get()).abs() < 1e-6);
    }

    #[test]
    fn etee_nearly_flat_in_ar() {
        // Observation 2 (reproduction note, see EXPERIMENTS.md): the paper
        // measures a mildly *rising* MBVR ETEE with AR; our parametric
        // board-VR substitute yields a flat-to-slightly-falling trend. The
        // load-line amortisation mechanism is present (the conduction
        // share falls with AR), but board-VR conduction growth offsets it.
        // This test pins the reproduced behaviour: ETEE varies by < 2 %
        // absolute over the full AR sweep, and the conduction share falls.
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(50.0));
        let eval = |a: f64| {
            let s = Scenario::active_fixed_tdp_frequency(&soc, WorkloadType::MultiThread, ar(a))
                .unwrap();
            pdn.evaluate(&s).unwrap()
        };
        let lo = eval(0.4);
        let hi = eval(0.8);
        let delta = (hi.etee.get() - lo.etee.get()).abs();
        assert!(delta < 0.02, "MBVR ETEE should be nearly flat in AR: Δ = {delta:.4}");
        let cc_lo = lo.breakdown.conduction_compute.get() / lo.input_power.get();
        let cc_hi = hi.breakdown.conduction_compute.get() / hi.input_power.get();
        assert!(
            cc_hi < cc_lo,
            "the load-line share must amortise with AR: {cc_lo:.3} → {cc_hi:.3}"
        );
    }

    #[test]
    fn idle_states_remain_efficient() {
        // Observation 3: one-stage regulation keeps C-state ETEE high.
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let c8 = pdn.evaluate(&Scenario::idle(&soc, PackageCState::C8)).unwrap();
        assert!(c8.etee.get() > 0.60, "MBVR C8 ETEE should stay decent: {}", c8.etee);
    }

    #[test]
    fn chip_input_current_is_high_at_low_voltage() {
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let ivr = crate::topology::IvrPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(50.0));
        let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.56), pdn.params())
            .unwrap();
        let i_mbvr = pdn.evaluate(&s).unwrap().chip_input_current;
        let i_ivr = ivr.evaluate(&s).unwrap().chip_input_current;
        let ratio = i_mbvr.get() / i_ivr.get();
        assert!(
            ratio > 1.3 && ratio < 3.0,
            "Fig. 5: MBVR chip input current well above IVR's, got {ratio:.2}×"
        );
    }
}
