//! The FlexWatts PDN topology (Fig. 6 of the paper).
//!
//! FlexWatts modifies the baseline IVR PDN in two ways (§6): the SA and IO
//! domains move from on-die IVRs to dedicated off-chip VRs (they have low,
//! narrow power ranges, so one conversion stage is strictly better), and
//! the remaining four IVRs become hybrid regulators that can
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
    board_vr_stage, load_line_domain_stages, load_line_stage, LossBreakdown, RailLoadLine,
    RowStage, Stager,
};
use pdnspot::topology::{
    dedicated_rail_finish, dedicated_rail_lane, pdn_memo_token, power_gate_impedance, OffchipRail,
};
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
    pub(crate) fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let p = &self.params;
        let ll = &p.flexwatts_loadlines;
        let tob = self.tob();
        let mut breakdown = LossBreakdown::default();
        let mut rails = Vec::new();
        let mut p_batt = Watts::ZERO;
        let mut chip_current = Amps::ZERO;

        // IVR-Mode feeds the hybrids' buck personality at 1.8 V; LDO-Mode
        // raises V_IN to the highest guardbanded compute voltage (none
        // when every compute domain is off).
        let vin = match self.mode {
            PdnMode::IvrMode => Some(p.vin_level),
            PdnMode::LdoMode => {
                scenario.max_voltage_among(&DomainKind::WIDE_RANGE).map(|v| v + tob)
            }
        };
        let mut p_in = Watts::ZERO;
        let mut fl_weighted = 0.0;
        if let Some(vin) = vin {
            for &kind in &DomainKind::WIDE_RANGE {
                let load = scenario.load(kind);
                if !load.powered || load.nominal_power.get() <= 0.0 {
                    continue;
                }
                let gb = stager.guardband(kind, load, tob, p.leakage_exponent);
                breakdown.other += gb.power - load.nominal_power;
                let iout = gb.power / gb.voltage;
                let op = OperatingPoint::new(vin, gb.voltage, iout);
                let hvr = self.hybrids.get(kind).as_ref().expect("wide-range domains carry a HVR");
                let eta = hvr.efficiency(op)?;
                let pin_d = gb.power / eta;
                breakdown.vr_loss += pin_d - gb.power;
                fl_weighted += load.leakage_fraction.get() * pin_d.get();
                p_in += pin_d;
            }
        }
        let vin = vin.filter(|_| p_in.get() > 0.0);

        // LDO-Mode's V_IN reaches the bypassed domains directly, so it
        // takes the domain-load load line and advances in lockstep with
        // the dedicated SA/IO rails; each lane performs the scalar
        // operations in the scalar order, so the bits are the
        // rail-at-a-time walk's.
        let vin_lane = vin.filter(|_| self.mode == PdnMode::LdoMode).map(|vin| {
            let fl = pdn_units::Ratio::new(fl_weighted / p_in.get())
                .expect("weighted mean of valid fractions");
            RailLoadLine {
                power: p_in,
                voltage: vin,
                p_peak: stager.rail_virus_power(scenario, &DomainKind::WIDE_RANGE, p_in),
                r_ll: ll.vin,
                leakage_fraction: fl,
            }
        });
        let r_pg = power_gate_impedance();
        let (sa_lane, sa_overhead) =
            dedicated_rail_lane(scenario, DomainKind::Sa, tob, r_pg, ll.sa, p, stager);
        let (io_lane, io_overhead) =
            dedicated_rail_lane(scenario, DomainKind::Io, tob, r_pg, ll.io, p, stager);
        let lanes = [sa_lane, io_lane, vin_lane.unwrap_or(io_lane)];
        let n_lanes = 2 + usize::from(vin_lane.is_some());
        let steps = load_line_domain_stages(&lanes[..n_lanes], p.leakage_exponent);

        // The board VRs in V_IN → SA → IO order. IVR-Mode's V_IN feeds
        // buck converters: the constant-current load line of the shared
        // routing (1.4 mΩ > the IVR PDN's 1.0).
        if let Some(vin) = vin {
            let step = match self.mode {
                PdnMode::IvrMode => load_line_stage(p_in, vin, scenario.ar, ll.vin),
                PdnMode::LdoMode => steps[2],
            };
            breakdown.conduction_compute += step.extra;
            chip_current += p_in / vin;
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
        for (step, overhead, vr) in
            [(steps[0], sa_overhead, &self.sa_vr), (steps[1], io_overhead, &self.io_vr)]
        {
            let (pin, overhead, conduction, vr_loss, rail) =
                dedicated_rail_finish(step, vr, p, overhead)?;
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
    /// `FlexWattsPdn::vin_protection_limit`, beyond which the PMU's
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
    pub(crate) fn vin_protection_limit(&self, soc: &pdn_proc::SocSpec) -> Result<Amps, PdnError> {
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
pub(crate) const MODE_CROSSOVER_TDP: f64 = 18.0;

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

    /// The better of both modes (IVR-Mode on an ETEE tie), with the
    /// PDN-independent stages routed through a [`Stager`].
    fn evaluate_with(
        &self,
        scenario: &Scenario,
        stager: &impl Stager,
    ) -> Result<PdnEvaluation, PdnError> {
        let ivr = self.ivr.evaluate_with(scenario, stager)?;
        let ldo = self.ldo.evaluate_with(scenario, stager)?;
        Ok(if ivr.etee >= ldo.etee { ivr } else { ldo })
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
        self.evaluate_with(scenario, &DirectStager)
    }

    /// Both modes through the caller's [`RowStage`], so a batch sweep
    /// shares the row's guardbands and virus headrooms across them.
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

    /// `FlexWattsPdn` results recorded from the rail-at-a-time load-line
    /// walk the lockstep one replaced, as exact bits: `[input_power,
    /// chip_input_current, each rail's current…]` for ST, MT and Graphics
    /// at AR 0.6, then C0MIN and C8, per mode and TDP.
    #[rustfmt::skip]
    const PINNED: [(PdnMode, f64, [&[u64]; 5]); 6] = [
        (PdnMode::IvrMode, 4.0, [
            &[0x40111321f3895f12, 0x4007ed11a9bfcb27, 0x3ff805fa383d6d78, 0x3ff2d2292666d225, 0x3fd407ffd36d5ac5],
            &[0x4011a9984605b2f2, 0x40088ea5a3a5bc4d, 0x3ff949222c094fc4, 0x3ff2d2292666d225, 0x3fd407ffd36d5ac5],
            &[0x40125288c28b29dc, 0x400943fc5dbe823b, 0x3ffab3cfa03adba0, 0x3ff2d2292666d225, 0x3fd407ffd36d5ac5],
            &[0x400d182b9ec63828, 0x4003644453e80b5e, 0x3ff6a368a21093dc, 0x3fe75ef293c20950, 0x3fd1d69aef79f8dc],
            &[0x3fc2b3855d34e809, 0x3fc33c083feb6dc3, 0x3fbf53bd1ab25ab9, 0x3f9c914d94920333],
        ]),
        (PdnMode::IvrMode, 18.0, [
            &[0x4031d38a1696aaaa, 0x40248f447f5359dd, 0x4020fa9560f33c8f, 0x3ff695d81c09f5c3, 0x3fd83e835bdbd2bf],
            &[0x403283e2d8f726ff, 0x402546c23a003e54, 0x4021b2131ba02106, 0x3ff695d81c09f5c3, 0x3fd83e835bdbd2bf],
            &[0x40344d6c1dc315eb, 0x402721749de3a603, 0x40238cc57f8388b4, 0x3ff695d81c09f5c3, 0x3fd83e835bdbd2bf],
            &[0x400d1e8985c644f0, 0x400367ff01ff7328, 0x3ff6a368a21093dc, 0x3fe76d2cfc4eedb2, 0x3fd1d7fb8f1b6e6d],
            &[0x3fc2c41277143836, 0x3fc345dcf490c157, 0x3fbf66d945415b7c, 0x3f9c93828f809cc6],
        ]),
        (PdnMode::IvrMode, 50.0, [
            &[0x40336057ae0ad1e5, 0x40267a8dc4f1cd1b, 0x40223da001e69128, 0x3ffac7d9ad957a02, 0x3fdc7e51ab11965c],
            &[0x404096a98dd90a25, 0x403232d299a26278, 0x4030145bb81cc47f, 0x3ffac7d9ad957a02, 0x3fdc7e51ab11965c],
            &[0x40439cc51eb2d6f6, 0x40353923691edc9a, 0x40331aac87993ea1, 0x3ffac7d9ad957a02, 0x3fdc7e51ab11965c],
            &[0x400d26924881a56f, 0x40036cb253642a4a, 0x3ff6a368a21093dc, 0x3fe77f2d1f2a5fc7, 0x3fd1d995d48a434e],
            &[0x3fc2d8fefcad5b09, 0x3fc35245c41a19b0, 0x3fbf7f068e47f669, 0x3f9c9613e7b0f3d8],
        ]),
        (PdnMode::LdoMode, 4.0, [
            &[0x400ef62b022952c1, 0x40186f0e5f32f20c, 0x4012a63bca13ccc0, 0x3ff2c580b5c6f751, 0x3fd3fd4107175614],
            &[0x400f66c9bf13d305, 0x4019a69514f21df9, 0x4013e3a48d022180, 0x3ff2c580b5c6f751, 0x3fd3fd4107175614],
            &[0x4010545a1dcc8a72, 0x401adcc03a18e9a2, 0x40151a244c27b364, 0x3ff2c580b5c6f751, 0x3fd3fd4107175614],
            &[0x4008b50b525e088b, 0x40153935f4de9858, 0x40113281d10bc6b9, 0x3fe74f1d7a4b2ec9, 0x3fd1cd074896bc52],
            &[0x3fc29dc6c1c12c16, 0x3fc32f7ed8f2a322, 0x3fbf3e7ffffc75d4, 0x3f9c81f6c7a341bd],
        ]),
        (PdnMode::LdoMode, 18.0, [
            &[0x4031d2368c76bdcb, 0x403201692fd7a8fa, 0x40307b363d0880c7, 0x3ff686bd4b8e5bf7, 0x3fd831845b8a2b08],
            &[0x4032c5f8eec5d15f, 0x4035c4967c87c157, 0x40347466d90f4a5a, 0x3ff686bd4b8e5bf7, 0x3fd831845b8a2b08],
            &[0x4035f0812983f714, 0x403941bb2d4132cb, 0x4037d9f31acb96da, 0x3ff686bd4b8e5bf7, 0x3fd831845b8a2b08],
            &[0x4008bb68bd68bfb2, 0x40153b1432f9b6c1, 0x40113281d10bc6b9, 0x3fe75d5ed8decb4d, 0x3fd1ce686d2169d2],
            &[0x3fc2ae529a825b2a, 0x3fc339585327fc72, 0x3fbf51a5807299a8, 0x3f9c842c97757ced],
        ]),
        (PdnMode::LdoMode, 50.0, [
            &[0x403492dc98e112ee, 0x403326f4877790a4, 0x4031f35a6c22f3cf, 0x3ffab610c4159225, 0x3fdc6f0eb995db96],
            &[0x404153c453c21db2, 0x4040231814fb3861, 0x403f053a28e6a8c9, 0x3ffab610c4159225, 0x3fdc6f0eb995db96],
            &[0x404685e2a0d5c187, 0x4045409e00be504b, 0x40449618b553bfee, 0x3ffab610c4159225, 0x3fdc6f0eb995db96],
            &[0x4008c370e9f216ac, 0x40153d6eff914715, 0x40113281d10bc6b9, 0x3fe76f67cd8e6c87, 0x3fd1d0034d3b2c9a],
            &[0x3fc2c33d9abb2f57, 0x3fc345c72bb2735e, 0x3fbf69de9d8c37c9, 0x3f9c86bee762bbd0],
        ]),
    ];

    #[test]
    fn evaluations_keep_their_pinned_bits() {
        let params = ModelParams::paper_defaults();
        for (mode, tdp, want) in PINNED {
            let pdn = FlexWattsPdn::new(params.clone(), mode);
            let soc = client_soc(Watts::new(tdp));
            let active =
                [WorkloadType::SingleThread, WorkloadType::MultiThread, WorkloadType::Graphics]
                    .map(|wl| Scenario::active_fixed_tdp_frequency(&soc, wl, ar(0.6)).unwrap());
            let idle = [PackageCState::C0Min, PackageCState::C8].map(|s| Scenario::idle(&soc, s));
            for (scenario, want) in active.iter().chain(&idle).zip(want) {
                let e = pdn.evaluate(scenario).unwrap();
                let got: Vec<u64> = [e.input_power.get(), e.chip_input_current.get()]
                    .into_iter()
                    .chain(e.rails.iter().map(|r| r.current.get()))
                    .map(f64::to_bits)
                    .collect();
                assert_eq!(got, want, "{mode} {tdp} W {}", scenario.name);
            }
        }
    }
}
