//! The LDO PDN (Fig. 1c; Eqs. 10–12): a board `V_IN` VR at the maximum
//! compute voltage feeding on-die LDO VRs, with SA/IO on dedicated board
//! VRs (AMD Zen style).

use super::{dedicated_rail_finish, dedicated_rail_lane, pdn_memo_token, Pdn, PdnKind};
use crate::error::PdnError;
use crate::etee::{
    board_vr_stage, load_line_domain_stages, DirectStager, LossBreakdown, PdnEvaluation,
    RailLoadLine, RailReport, RowStage, Stager,
};
use crate::params::ModelParams;
use crate::scenario::Scenario;
use pdn_proc::{DomainKind, DomainTable};
use pdn_units::{Amps, Watts};
use pdn_vr::{presets, BuckConverter, LdoRegulator, OperatingPoint, VoltageRegulator};

/// The low-dropout-regulator PDN. The power-management unit sets `V_IN` to
/// the maximum voltage required across the compute domains; domains needing
/// exactly that voltage run their LDO in bypass mode, lower-voltage domains
/// regulate (at `η = Vout/Vin · Ie`), and idle domains use the LDO as a
/// power gate (§2.3).
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::{LdoPdn, ModelParams, Pdn, Scenario};
///
/// let params = ModelParams::paper_defaults();
/// let soc = pdn_proc::client_soc(Watts::new(4.0));
/// let s = Scenario::active_budget(
///     &soc,
///     WorkloadType::SingleThread,
///     ApplicationRatio::new(0.6)?,
///     &params,
/// )?;
/// let eval = LdoPdn::new(params).evaluate(&s)?;
/// assert!(eval.etee.get() > 0.72, "LDO is efficient at low TDP");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LdoPdn {
    params: ModelParams,
    /// [`Pdn::memo_token`], fixed at construction (`params` never changes).
    token: u64,
    vin_vr: BuckConverter,
    sa_vr: BuckConverter,
    io_vr: BuckConverter,
    ldos: DomainTable<Option<LdoRegulator>>,
}

impl LdoPdn {
    /// Builds the LDO PDN: four on-die LDOs (cores, LLC, graphics), a board
    /// `V_IN`, and dedicated `V_SA`/`V_IO` board rails.
    pub fn new(params: ModelParams) -> Self {
        let ldos = DomainTable::from_fn(|k| {
            k.is_wide_range().then(|| presets::ldo(&format!("LDO_{}", k.rail_name())))
        });
        Self {
            token: pdn_memo_token(PdnKind::Ldo, 0, &params),
            params,
            vin_vr: presets::compute_board_vr("V_IN"),
            sa_vr: presets::sa_board_vr(),
            io_vr: presets::io_board_vr(),
            ldos,
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
        let tob = p.ldo_tob.total();
        let mut breakdown = LossBreakdown::default();
        let mut rails: Vec<RailReport> = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        // The PMU raises V_IN to the highest guardbanded compute voltage.
        let vin_rail = scenario.max_voltage_among(&DomainKind::WIDE_RANGE).map(|v| v + tob);

        let mut p_in = Watts::ZERO;
        let mut fl_weighted = 0.0;
        let mut vin_lane: Option<RailLoadLine> = None;
        if let Some(vin_rail) = vin_rail {
            for &kind in &DomainKind::WIDE_RANGE {
                let load = scenario.load(kind);
                if !load.powered || load.nominal_power.get() <= 0.0 {
                    continue; // the LDO acts as a power gate
                }
                // Eq. 2 guardband, then Eq. 10/11 LDO conversion.
                let gb = stager.guardband(kind, load, tob, p.leakage_exponent);
                breakdown.other += gb.power - load.nominal_power;
                let iout = gb.power / gb.voltage;
                let op = OperatingPoint::new(vin_rail, gb.voltage, iout);
                let ldo = self.ldos.get(kind).as_ref().expect("wide-range domains carry an LDO");
                let eta = ldo.efficiency(op)?;
                let pin_d = gb.power / eta;
                breakdown.vr_loss += pin_d - gb.power;
                fl_weighted += load.leakage_fraction.get() * pin_d.get();
                p_in += pin_d;
            }

            vin_lane = (p_in.get() > 0.0).then(|| {
                // Eqs. 7–8 applied to the LDO V_IN rail. Bypassed domains
                // see the rail directly, so the physical domain-load
                // variant applies (excess voltage burns Eq. 2 power).
                let fl = pdn_units::Ratio::new(fl_weighted / p_in.get())
                    .expect("weighted mean of valid fractions");
                RailLoadLine {
                    power: p_in,
                    voltage: vin_rail,
                    p_peak: stager.rail_virus_power(scenario, &DomainKind::WIDE_RANGE, p_in),
                    r_ll: p.ldo_loadlines.vin,
                    leakage_fraction: fl,
                }
            });
        }

        // All three board rails' load-line fixed points in lockstep, then
        // their VRs in the original V_IN → SA → IO order (each rail sees
        // the same operations in the same order as the rail-at-a-time
        // walk, so the bits are unchanged).
        let r_pg = super::power_gate_impedance();
        let (sa_lane, sa_overhead) =
            dedicated_rail_lane(scenario, DomainKind::Sa, tob, r_pg, p.ldo_loadlines.sa, p, stager);
        let (io_lane, io_overhead) =
            dedicated_rail_lane(scenario, DomainKind::Io, tob, r_pg, p.ldo_loadlines.io, p, stager);
        let mut lanes = [sa_lane, io_lane, io_lane];
        let n_lanes = if let Some(vin) = vin_lane {
            lanes = [vin, sa_lane, io_lane];
            3
        } else {
            2
        };
        let steps = load_line_domain_stages(&lanes[..n_lanes], p.leakage_exponent);
        let mut next = 0;
        if let Some(vin) = vin_lane {
            let step = steps[next];
            next += 1;
            breakdown.conduction_compute += step.extra;
            chip_current += vin.power / vin.voltage;
            // Eq. 12 first term: the V_IN board VR.
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

        // Eq. 12 second term: dedicated SA/IO rails (MBVR-style flow).
        for (overhead, vr) in [(sa_overhead, &self.sa_vr), (io_overhead, &self.io_vr)] {
            let (pin, overhead, conduction, vr_loss, rail) =
                dedicated_rail_finish(steps[next], vr, p, overhead)?;
            next += 1;
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

impl Pdn for LdoPdn {
    fn kind(&self) -> PdnKind {
        PdnKind::Ldo
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
    use crate::topology::MbvrPdn;
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::ApplicationRatio;
    use pdn_workload::WorkloadType;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn three_offchip_rails() {
        let pdn = LdoPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let rails = pdn.offchip_rails(&soc).unwrap();
        assert_eq!(rails.len(), 3, "LDO uses V_IN, V_SA, V_IO");
    }

    #[test]
    fn power_is_conserved() {
        let pdn = LdoPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        for wl in [WorkloadType::SingleThread, WorkloadType::Graphics] {
            let s = Scenario::active_budget(&soc, wl, ar(0.6), pdn.params()).unwrap();
            let e = pdn.evaluate(&s).unwrap();
            let accounted = e.nominal_power + e.breakdown.total();
            assert!((accounted.get() - e.input_power.get()).abs() < 1e-6, "{wl}");
        }
    }

    #[test]
    fn graphics_workloads_hurt_the_ldo_pdn() {
        // Observation 2: the voltage gap between GFX (high) and cores (low)
        // forces the core LDOs into deep, inefficient regulation.
        let params = ModelParams::paper_defaults();
        let ldo = LdoPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let soc = client_soc(Watts::new(18.0));
        let cpu = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), ldo.params())
            .unwrap();
        let gfx =
            Scenario::active_budget(&soc, WorkloadType::Graphics, ar(0.6), ldo.params()).unwrap();
        let gap_cpu =
            ldo.evaluate(&cpu).unwrap().etee.get() - mbvr.evaluate(&cpu).unwrap().etee.get();
        let gap_gfx =
            ldo.evaluate(&gfx).unwrap().etee.get() - mbvr.evaluate(&gfx).unwrap().etee.get();
        assert!(
            gap_gfx < gap_cpu,
            "LDO should lose more ground to MBVR on graphics: CPU gap {gap_cpu:.3}, GFX gap {gap_gfx:.3}"
        );
    }

    #[test]
    fn bypass_mode_on_the_hottest_domain() {
        // The domain defining V_IN runs in bypass; its LDO loss is tiny.
        let pdn = LdoPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), pdn.params())
            .unwrap();
        let e = pdn.evaluate(&s).unwrap();
        // All compute domains share one voltage here, so every LDO is in
        // bypass and the on-chip VR loss is a small share of input power.
        let vr_frac = e.breakdown.vr_loss.get() / e.input_power.get();
        assert!(vr_frac < 0.25, "bypass should keep VR loss modest: {vr_frac:.3}");
    }

    #[test]
    fn idle_states_remain_efficient() {
        let pdn = LdoPdn::new(ModelParams::paper_defaults());
        let soc = client_soc(Watts::new(18.0));
        let c8 = pdn.evaluate(&Scenario::idle(&soc, PackageCState::C8)).unwrap();
        assert!(c8.etee.get() > 0.60, "LDO C8 ETEE should stay decent: {}", c8.etee);
    }
}
