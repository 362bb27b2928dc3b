//! The FlexWatts PDN topology (Fig. 6 of the paper).
//!
//! FlexWatts modifies the baseline IVR PDN in two ways (§6): the SA and IO
//! domains move from on-die IVRs to dedicated off-chip VRs (they have low,
//! narrow power ranges, so one conversion stage is strictly better), and
//! the remaining four IVRs become [`crate::hybrid::HybridVr`]s that can
//! operate the whole compute group in either **IVR-Mode** or **LDO-Mode**.
//! Both modes share the same off-chip `V_IN` VR and the same routing, so
//! the load-line impedance is slightly higher than either pure PDN
//! (Table 2 extension: 1.4 mΩ vs 1.0/1.25 mΩ), which is why FlexWatts
//! trails the best static PDN by < 1 % at each end of the TDP range.

use crate::hybrid::HybridVr;
use pdn_proc::{DomainKind, DomainTable};
use pdn_units::{Amps, Volts, Watts};
use pdn_vr::{presets, BuckConverter, OperatingPoint, VoltageRegulator};
use pdnspot::etee::{
    board_vr_stage, load_line_domain_stage, load_line_stage, LossBreakdown, RowStage, Stager,
};
use pdnspot::topology::{dedicated_rail_flow, pdn_memo_token, power_gate_impedance, OffchipRail};
use pdnspot::{DirectStager, ModelParams, Pdn, PdnError, PdnEvaluation, PdnKind, Scenario};
use std::fmt;

/// The two operating modes of the FlexWatts hybrid PDN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PdnMode {
    /// Two-stage conversion through the on-die buck personality
    /// (`V_IN` ≈ 1.8 V). Best at high power.
    IvrMode,
    /// Single-stage conversion: `V_IN` at the maximum compute voltage, the
    /// hybrid VRs in LDO/bypass personality. Best at low power.
    LdoMode,
}

impl PdnMode {
    /// Both modes.
    pub const ALL: [PdnMode; 2] = [PdnMode::IvrMode, PdnMode::LdoMode];
}

impl fmt::Display for PdnMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PdnMode::IvrMode => "IVR-Mode",
            PdnMode::LdoMode => "LDO-Mode",
        })
    }
}

/// The FlexWatts hybrid PDN, evaluated in one fixed mode.
///
/// The runtime ([`crate::runtime::FlexWattsRuntime`]) holds one instance
/// per mode and lets the predictor choose between them; a fixed-mode
/// instance is also exactly what the Fig. 7/8 comparisons need.
///
/// # Examples
///
/// ```
/// use flexwatts::{FlexWattsPdn, PdnMode};
/// use pdnspot::{ModelParams, Pdn};
///
/// let pdn = FlexWattsPdn::new(ModelParams::paper_defaults(), PdnMode::LdoMode);
/// assert_eq!(pdn.kind(), pdnspot::PdnKind::FlexWatts);
/// assert_eq!(pdn.mode(), PdnMode::LdoMode);
/// ```
#[derive(Debug)]
pub struct FlexWattsPdn {
    params: ModelParams,
    mode: PdnMode,
    /// [`Pdn::memo_token`], fixed at construction (`params` and `mode`
    /// never change).
    token: u64,
    vin_vr: BuckConverter,
    sa_vr: BuckConverter,
    io_vr: BuckConverter,
    hybrids: DomainTable<Option<HybridVr>>,
}

impl FlexWattsPdn {
    /// Builds the FlexWatts PDN in the given mode.
    pub fn new(params: ModelParams, mode: PdnMode) -> Self {
        let hybrids = DomainTable::from_fn(|k| {
            k.is_wide_range().then(|| {
                let mut vr = HybridVr::new(format!("HVR_{}", k.rail_name()));
                vr.set_mode(mode);
                vr
            })
        });
        Self {
            // Flavor 0 is IVR-Mode, 1 LDO-Mode (the enum's declaration order).
            token: pdn_memo_token(PdnKind::FlexWatts, mode as u64, &params),
            params,
            mode,
            vin_vr: presets::flexwatts_vin_vr(),
            sa_vr: presets::sa_board_vr(),
            io_vr: presets::io_board_vr(),
            hybrids,
        }
    }

    /// The mode this instance evaluates.
    pub fn mode(&self) -> PdnMode {
        self.mode
    }

    /// The tolerance band of the active mode. The hybrid circuits inherit
    /// the IVR's TOB in IVR-Mode and the LDO's in LDO-Mode.
    fn tob(&self) -> Volts {
        match self.mode {
            PdnMode::IvrMode => self.params.ivr_tob.total(),
            PdnMode::LdoMode => self.params.ldo_tob.total(),
        }
    }

    /// [`Pdn::evaluate`] with the PDN-independent stages (guardband, gate,
    /// virus headroom) routed through a [`Stager`], so batch sweeps share
    /// them with every other PDN evaluated at the same lattice point.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the active mode's flow.
    pub fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        match self.mode {
            PdnMode::IvrMode => self.evaluate_ivr_mode(scenario, stager),
            PdnMode::LdoMode => self.evaluate_ldo_mode(scenario, stager),
        }
    }

    fn evaluate_ivr_mode(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let tob = self.tob();
        let mut breakdown = LossBreakdown::default();
        let mut rails = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        // Compute domains: hybrid VRs in buck personality fed at 1.8 V.
        let mut p_in = Watts::ZERO;
        for &kind in &DomainKind::WIDE_RANGE {
            let load = scenario.load(kind);
            if !load.powered || load.nominal_power.get() <= 0.0 {
                continue;
            }
            let gb = stager.guardband(kind, load, tob, p.leakage_exponent);
            breakdown.other += gb.power - load.nominal_power;
            let iout = gb.power / gb.voltage;
            let op = OperatingPoint::new(p.vin_level, gb.voltage, iout);
            let hvr = self.hybrids.get(kind).as_ref().expect("wide-range domains carry a HVR");
            let eta = hvr.efficiency(op)?;
            let pin_d = gb.power / eta;
            breakdown.vr_loss += pin_d - gb.power;
            p_in += pin_d;
        }
        if p_in.get() > 0.0 {
            // The shared-resource load line (1.4 mΩ > the IVR PDN's 1.0).
            let step = load_line_stage(p_in, p.vin_level, scenario.ar, p.flexwatts_loadlines.vin);
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

        self.add_sa_io(
            scenario,
            stager,
            &mut breakdown,
            &mut rails,
            &mut p_batt,
            &mut chip_current,
        )?;
        PdnEvaluation::assemble(
            scenario.total_nominal_power(),
            p_batt,
            breakdown,
            chip_current,
            rails,
        )
    }

    fn evaluate_ldo_mode(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let tob = self.tob();
        let mut breakdown = LossBreakdown::default();
        let mut rails = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        let vin_rail = scenario.max_voltage_among(&DomainKind::WIDE_RANGE).map(|v| v + tob);
        let mut p_in = Watts::ZERO;
        let mut fl_weighted = 0.0;
        if let Some(vin_rail) = vin_rail {
            for &kind in &DomainKind::WIDE_RANGE {
                let load = scenario.load(kind);
                if !load.powered || load.nominal_power.get() <= 0.0 {
                    continue;
                }
                let gb = stager.guardband(kind, load, tob, p.leakage_exponent);
                breakdown.other += gb.power - load.nominal_power;
                let iout = gb.power / gb.voltage;
                let op = OperatingPoint::new(vin_rail, gb.voltage, iout);
                let hvr = self.hybrids.get(kind).as_ref().expect("wide-range domains carry a HVR");
                let eta = hvr.efficiency(op)?;
                let pin_d = gb.power / eta;
                breakdown.vr_loss += pin_d - gb.power;
                fl_weighted += load.leakage_fraction.get() * pin_d.get();
                p_in += pin_d;
            }
            if p_in.get() > 0.0 {
                let fl = pdn_units::Ratio::new(fl_weighted / p_in.get())
                    .expect("weighted mean of valid fractions");
                let step = load_line_domain_stage(
                    p_in,
                    vin_rail,
                    stager.rail_virus_power(scenario, &DomainKind::WIDE_RANGE, p_in),
                    p.flexwatts_loadlines.vin,
                    fl,
                    p.leakage_exponent,
                );
                breakdown.conduction_compute += step.extra;
                chip_current += p_in / vin_rail;
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
        }

        self.add_sa_io(
            scenario,
            stager,
            &mut breakdown,
            &mut rails,
            &mut p_batt,
            &mut chip_current,
        )?;
        PdnEvaluation::assemble(
            scenario.total_nominal_power(),
            p_batt,
            breakdown,
            chip_current,
            rails,
        )
    }

    /// The dedicated SA/IO board rails FlexWatts keeps in both modes.
    fn add_sa_io(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
        breakdown: &mut LossBreakdown,
        rails: &mut Vec<pdnspot::RailReport>,
        p_batt: &mut Watts,
        chip_current: &mut Amps,
    ) -> Result<(), PdnError> {
        let p = &self.params;
        for (kind, r_ll, vr) in [
            (DomainKind::Sa, p.flexwatts_loadlines.sa, &self.sa_vr),
            (DomainKind::Io, p.flexwatts_loadlines.io, &self.io_vr),
        ] {
            let (pin, overhead, conduction, vr_loss, rail) = dedicated_rail_flow(
                scenario,
                kind,
                self.tob(),
                power_gate_impedance(),
                r_ll,
                vr,
                p,
                stager,
            )?;
            if pin.get() > 0.0 {
                breakdown.other += overhead;
                breakdown.conduction_sa_io += conduction;
                breakdown.vr_loss += vr_loss;
                *chip_current += rail.current;
                *p_batt += pin;
                rails.push(rail);
            }
        }
        Ok(())
    }
}

impl Pdn for FlexWattsPdn {
    fn kind(&self) -> PdnKind {
        PdnKind::FlexWatts
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

    /// FlexWatts's off-chip rails carry the **IVR-Mode rating** (§7: "the
    /// shared VR is designed with a maximum-current level similar to that
    /// of IVR"), which is what the §3.2 BOM/area model prices. In LDO-Mode
    /// the same physical rail delivers more *output* amps at its much
    /// lower output voltage — the buck's duty-cycle headroom means the
    /// switch/input-side rating is unchanged — up to the limit returned by
    /// [`FlexWattsPdn::vin_protection_limit`], beyond which the PMU's
    /// maximum-current protection forces IVR-Mode.
    fn offchip_rails(&self, soc: &pdn_proc::SocSpec) -> Result<Vec<OffchipRail>, PdnError> {
        let mut merged: std::collections::BTreeMap<String, OffchipRail> =
            std::collections::BTreeMap::new();
        let pdn = FlexWattsPdn::new(self.params.clone(), PdnMode::IvrMode);
        for wl in [pdn_workload::WorkloadType::MultiThread, pdn_workload::WorkloadType::Graphics] {
            let virus = Scenario::power_virus_at_tdp(soc, wl)?;
            let eval = pdn.evaluate(&virus)?;
            for rail in eval.rails {
                let entry = merged.entry(rail.name.clone()).or_insert_with(|| OffchipRail {
                    name: rail.name.clone(),
                    iccmax: Amps::ZERO,
                    voltage: rail.voltage,
                });
                if rail.current > entry.iccmax {
                    entry.iccmax = rail.current;
                    entry.voltage = rail.voltage;
                }
            }
        }
        const DESIGN_MARGIN: f64 = 1.1;
        Ok(merged
            .into_values()
            .map(|mut r| {
                r.iccmax = r.iccmax * DESIGN_MARGIN;
                r
            })
            .collect())
    }
}

impl FlexWattsPdn {
    /// The maximum *output* current the shared `V_IN` rail can deliver in
    /// LDO-Mode: the LDO-Mode power-virus current at this TDP, capped at
    /// the mode-crossover power (above the crossover the predictor — and,
    /// as a backstop, the maximum-current protection — runs IVR-Mode, so
    /// the rail never has to deliver the full high-TDP virus at a low
    /// output voltage).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the sizing scenarios.
    pub fn vin_protection_limit(&self, soc: &pdn_proc::SocSpec) -> Result<Amps, PdnError> {
        let sizing_soc;
        let soc_ref = if soc.tdp.get() > MODE_CROSSOVER_TDP {
            sizing_soc = pdn_proc::client_soc(Watts::new(MODE_CROSSOVER_TDP));
            &sizing_soc
        } else {
            soc
        };
        let ldo = FlexWattsPdn::new(self.params.clone(), PdnMode::LdoMode);
        let mut worst = Amps::ZERO;
        for wl in [pdn_workload::WorkloadType::MultiThread, pdn_workload::WorkloadType::Graphics] {
            let virus = Scenario::power_virus_at_tdp(soc_ref, wl)?;
            let eval = ldo.evaluate(&virus)?;
            if let Some(rail) = eval.rails.iter().find(|r| r.name == "V_IN") {
                worst = worst.max(rail.current);
            }
        }
        const DESIGN_MARGIN: f64 = 1.1;
        Ok(worst * DESIGN_MARGIN)
    }
}

/// The TDP around which the predictor's preferred mode flips for SPEC-like
/// workloads (§7.1: below 18 W FlexWatts mainly runs LDO-Mode, above it
/// IVR-Mode).
pub const MODE_CROSSOVER_TDP: f64 = 18.0;

/// FlexWatts with the steady-state mode choice applied: every evaluation
/// runs both modes and reports the better one — the behaviour a converged
/// predictor exhibits on a steady workload, and the configuration the
/// Fig. 7/8 comparisons plot.
#[derive(Debug)]
pub struct FlexWattsAuto {
    ivr: FlexWattsPdn,
    ldo: FlexWattsPdn,
    /// [`Pdn::memo_token`], fixed at construction. Flavor 255 keeps the
    /// better-of-both-modes result distinct from either fixed mode's
    /// cache entries.
    token: u64,
}

impl FlexWattsAuto {
    /// Builds the auto-mode FlexWatts PDN.
    pub fn new(params: ModelParams) -> Self {
        Self {
            token: pdn_memo_token(PdnKind::FlexWatts, 255, &params),
            ivr: FlexWattsPdn::new(params.clone(), PdnMode::IvrMode),
            ldo: FlexWattsPdn::new(params, PdnMode::LdoMode),
        }
    }

    /// The mode the steady-state predictor would choose for a scenario.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from either mode.
    pub fn best_mode(&self, scenario: &Scenario) -> Result<PdnMode, PdnError> {
        let ivr = self.ivr.evaluate(scenario)?;
        let ldo = self.ldo.evaluate(scenario)?;
        Ok(if ivr.etee >= ldo.etee { PdnMode::IvrMode } else { PdnMode::LdoMode })
    }
}

impl Pdn for FlexWattsAuto {
    fn kind(&self) -> PdnKind {
        PdnKind::FlexWatts
    }

    fn params(&self) -> &ModelParams {
        self.ivr.params()
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<PdnEvaluation, PdnError> {
        let ivr = self.ivr.evaluate(scenario)?;
        let ldo = self.ldo.evaluate(scenario)?;
        Ok(if ivr.etee >= ldo.etee { ivr } else { ldo })
    }

    fn memo_token(&self) -> Option<u64> {
        Some(self.token)
    }

    fn offchip_rails(&self, soc: &pdn_proc::SocSpec) -> Result<Vec<OffchipRail>, PdnError> {
        // The fixed-mode implementation already merges both modes.
        self.ivr.offchip_rails(soc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::ApplicationRatio;
    use pdn_workload::WorkloadType;
    use pdnspot::{IvrPdn, LdoPdn, MbvrPdn};

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    fn scenario(tdp: f64, wl: WorkloadType, a: f64) -> Scenario {
        let soc = client_soc(Watts::new(tdp));
        Scenario::active_fixed_tdp_frequency(&soc, wl, ar(a)).unwrap()
    }

    #[test]
    fn ldo_mode_wins_at_low_tdp_ivr_mode_at_high_tdp() {
        let params = ModelParams::paper_defaults();
        let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let ivr = FlexWattsPdn::new(params, PdnMode::IvrMode);
        let low = scenario(4.0, WorkloadType::MultiThread, 0.6);
        let high = scenario(50.0, WorkloadType::MultiThread, 0.6);
        assert!(
            ldo.evaluate(&low).unwrap().etee.get() > ivr.evaluate(&low).unwrap().etee.get(),
            "LDO-Mode must win at 4 W"
        );
        assert!(
            ivr.evaluate(&high).unwrap().etee.get() > ldo.evaluate(&high).unwrap().etee.get(),
            "IVR-Mode must win at 50 W"
        );
    }

    #[test]
    fn flexwatts_trails_the_best_static_pdn_by_under_one_point() {
        // §7.1: < 1 % worse than MBVR/LDO at low TDP (higher load line),
        // < 1 % worse than IVR at high TDP.
        let params = ModelParams::paper_defaults();
        let fw_ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let fw_ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let pure_ldo = LdoPdn::new(params.clone());
        let pure_ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);

        let low = scenario(4.0, WorkloadType::SingleThread, 0.6);
        let best_low = pure_ldo
            .evaluate(&low)
            .unwrap()
            .etee
            .get()
            .max(mbvr.evaluate(&low).unwrap().etee.get());
        let fw_low = fw_ldo.evaluate(&low).unwrap().etee.get();
        assert!(fw_low > best_low - 0.012, "4 W: FlexWatts {fw_low:.3} vs best {best_low:.3}");
        assert!(fw_low <= best_low + 1e-9, "sharing cannot beat the dedicated design");

        let high = scenario(50.0, WorkloadType::MultiThread, 0.6);
        let best_high = pure_ivr.evaluate(&high).unwrap().etee.get();
        let fw_high = fw_ivr.evaluate(&high).unwrap().etee.get();
        assert!(fw_high > best_high - 0.012, "50 W: FlexWatts {fw_high:.3} vs IVR {best_high:.3}");
    }

    #[test]
    fn flexwatts_beats_ivr_substantially_at_4w() {
        // The headline: ≈ +8 % ETEE over IVR at 4 W, which the §3.3
        // performance model turns into the +22 % SPEC gain.
        let params = ModelParams::paper_defaults();
        let fw = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let ivr = IvrPdn::new(params);
        let s = scenario(4.0, WorkloadType::SingleThread, 0.6);
        let gap = fw.evaluate(&s).unwrap().etee.get() - ivr.evaluate(&s).unwrap().etee.get();
        assert!(gap > 0.05, "4 W ETEE gap over IVR = {gap:.3}");
    }

    #[test]
    fn battery_life_states_prefer_ldo_mode() {
        let params = ModelParams::paper_defaults();
        let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let ivr = FlexWattsPdn::new(params, PdnMode::IvrMode);
        let soc = client_soc(Watts::new(18.0));
        for state in [PackageCState::C0Min, PackageCState::C2, PackageCState::C8] {
            let s = Scenario::idle(&soc, state);
            assert!(
                ldo.evaluate(&s).unwrap().etee.get() >= ivr.evaluate(&s).unwrap().etee.get(),
                "{state}: LDO-Mode must not lose in idle"
            );
        }
    }

    #[test]
    fn three_offchip_rails_sized_like_ivr() {
        let params = ModelParams::paper_defaults();
        let fw = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ivr = IvrPdn::new(params);
        let soc = client_soc(Watts::new(50.0));
        let fw_rails = fw.offchip_rails(&soc).unwrap();
        assert_eq!(fw_rails.len(), 3, "V_IN + V_SA + V_IO");
        let fw_vin = fw_rails.iter().find(|r| r.name == "V_IN").unwrap();
        let ivr_vin = &ivr.offchip_rails(&soc).unwrap()[0];
        let ratio = fw_vin.iccmax.get() / ivr_vin.iccmax.get();
        assert!(
            ratio < 1.5,
            "§7: the shared V_IN is sized near the IVR PDN's level, got {ratio:.2}×"
        );
    }

    #[test]
    fn power_is_conserved_in_both_modes() {
        let params = ModelParams::paper_defaults();
        for mode in PdnMode::ALL {
            let pdn = FlexWattsPdn::new(params.clone(), mode);
            let s = scenario(18.0, WorkloadType::Graphics, 0.7);
            let e = pdn.evaluate(&s).unwrap();
            let accounted = e.nominal_power + e.breakdown.total();
            assert!((accounted.get() - e.input_power.get()).abs() < 1e-6, "{mode}");
        }
    }

    #[test]
    fn memo_tokens_separate_modes_params_and_auto() {
        let params = ModelParams::paper_defaults();
        let ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let auto = FlexWattsAuto::new(params.clone());
        let tokens =
            [ivr.memo_token().unwrap(), ldo.memo_token().unwrap(), auto.memo_token().unwrap()];
        for (i, a) in tokens.iter().enumerate() {
            for b in &tokens[i + 1..] {
                assert_ne!(a, b, "modes must never share cache entries");
            }
        }
        let mut other = params;
        other.leakage_exponent += 0.25;
        let perturbed = FlexWattsPdn::new(other, PdnMode::IvrMode);
        assert_ne!(perturbed.memo_token(), ivr.memo_token(), "params are part of the identity");
    }

    #[test]
    fn mode_display_and_kind() {
        assert_eq!(PdnMode::IvrMode.to_string(), "IVR-Mode");
        assert_eq!(PdnMode::LdoMode.to_string(), "LDO-Mode");
        let pdn = FlexWattsPdn::new(ModelParams::paper_defaults(), PdnMode::IvrMode);
        assert_eq!(pdn.kind(), PdnKind::FlexWatts);
        assert_eq!(pdn.kind().to_string(), "FlexWatts");
    }
}
