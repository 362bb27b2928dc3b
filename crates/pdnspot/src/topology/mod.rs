//! PDN topologies: the power-flow models of Fig. 1.
//!
//! Each topology composes the shared [`crate::etee`] stages into the
//! paper's per-PDN equations:
//!
//! * [`IvrPdn`] — two-stage: board `V_IN` at 1.8 V feeding six on-die IVRs
//!   (Eqs. 6–9, Fig. 1a);
//! * [`MbvrPdn`] — one-stage board VRs per domain group plus on-die power
//!   gates (Eqs. 2–5, Fig. 1b);
//! * [`LdoPdn`] — board `V_IN` at the maximum compute voltage feeding
//!   on-die LDOs, with SA/IO on dedicated board VRs (Eqs. 10–12, Fig. 1c);
//! * [`IPlusMbvrPdn`] — the Skylake-X hybrid (§7): IVR for compute
//!   domains, dedicated board VRs for SA/IO.
//!
//! The FlexWatts hybrid implements the same [`Pdn`] trait in the
//! `flexwatts` crate.

mod iplus;
mod ivr;
mod ldo;
mod mbvr;

pub use iplus::IPlusMbvrPdn;
pub use ivr::IvrPdn;
pub use ldo::LdoPdn;
pub use mbvr::MbvrPdn;

use crate::error::PdnError;
use crate::etee::{
    board_vr_stage, load_line_domain_stage, LoadLineStep, PdnEvaluation, RailLoadLine, RailReport,
    RowStage, Stager,
};
use crate::memo::Fnv1a;
use crate::params::ModelParams;
use crate::scenario::Scenario;
use pdn_proc::{DomainKind, SocSpec};
use pdn_units::{Amps, Ohms, Volts, Watts};
use pdn_vr::{BuckConverter, OperatingPoint, VoltageRegulator};
use pdn_workload::WorkloadType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The PDN architectures compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PdnKind {
    /// Integrated voltage regulators (state of the art; Fig. 1a).
    Ivr,
    /// Motherboard voltage regulators (Fig. 1b).
    Mbvr,
    /// Low-dropout regulators (Fig. 1c).
    Ldo,
    /// Skylake-X hybrid: IVR compute + board SA/IO.
    IPlusMbvr,
    /// The paper's contribution: hybrid adaptive IVR/LDO.
    FlexWatts,
}

impl fmt::Display for PdnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PdnKind::Ivr => "IVR",
            PdnKind::Mbvr => "MBVR",
            PdnKind::Ldo => "LDO",
            PdnKind::IPlusMbvr => "I+MBVR",
            PdnKind::FlexWatts => "FlexWatts",
        };
        f.write_str(s)
    }
}

/// An off-chip voltage regulator with its design current, the input to the
/// §3.2 board-area/BOM model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffchipRail {
    /// Rail name.
    pub name: String,
    /// Maximum current the rail must be electrically designed for.
    pub iccmax: Amps,
    /// Rail output voltage at the design point.
    pub voltage: Volts,
}

/// A power delivery network that PDNspot can evaluate.
pub trait Pdn: fmt::Debug + Send + Sync {
    /// Which architecture this is.
    fn kind(&self) -> PdnKind;

    /// The parameter set the topology was built with.
    fn params(&self) -> &ModelParams;

    /// Evaluates the end-to-end power flow for a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when a regulator cannot serve its operating
    /// point or the scenario is inconsistent.
    fn evaluate(&self, scenario: &Scenario) -> Result<PdnEvaluation, PdnError>;

    /// Evaluates one lattice **row** — scenarios that share every sweep
    /// coordinate except one — in a single call, routing the
    /// PDN-independent stages through a shared [`RowStage`].
    ///
    /// Guardband factors and virus headrooms are computed once per stager
    /// instead of once per point. The batch engine gives each (PDN, row)
    /// task its own stager; a caller may share one across PDNs that
    /// evaluate the same row (the FlexWatts runtime shares one across its
    /// two modes). The returned vector is index-aligned with `scenarios`
    /// and must contain exactly the bits a per-point [`Pdn::evaluate`]
    /// loop would produce. The default does that loop directly (ignoring
    /// the stager), which keeps external [`Pdn`] implementations correct
    /// by construction.
    fn evaluate_row(
        &self,
        scenarios: &[Scenario],
        row: &RowStage,
    ) -> Vec<Result<PdnEvaluation, PdnError>> {
        let _ = row;
        scenarios.iter().map(|s| self.evaluate(s)).collect()
    }

    /// A 64-bit identity token for result memoization: two PDNs may share
    /// a token only if they evaluate every scenario to identical bits
    /// (same topology, same full parameter set). `None` — the default —
    /// opts out of caching entirely ([`crate::memo::MemoCache`] bypasses
    /// PDNs without a token rather than risking a stale identity).
    fn memo_token(&self) -> Option<u64> {
        None
    }

    /// The off-chip rails the topology needs for a SoC, sized at the
    /// TDP-limited power virus with a 10 % electrical design margin (§3.2).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the sizing scenarios.
    fn offchip_rails(&self, soc: &SocSpec) -> Result<Vec<OffchipRail>, PdnError> {
        let mut merged: BTreeMap<String, OffchipRail> = BTreeMap::new();
        for wl in [WorkloadType::MultiThread, WorkloadType::Graphics] {
            let virus = Scenario::power_virus_at_tdp(soc, wl)?;
            let eval = self.evaluate(&virus)?;
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

/// Outcome of pushing one domain through an on-chip conversion stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainStage {
    /// Power demanded from the shared input rail.
    pub input_power: Watts,
    /// Guardband/power-gate overhead incurred (the "other" bucket).
    pub overhead: Watts,
    /// On-chip VR conversion loss incurred.
    pub vr_loss: Watts,
}

/// Pushes one powered domain through tolerance band + on-die IVR
/// conversion (the per-domain part of Eqs. 2 and 6), with the guardband
/// routed through a [`Stager`].
pub fn ivr_domain_stage(
    scenario: &Scenario,
    kind: DomainKind,
    params: &ModelParams,
    ivr: &BuckConverter,
    stager: &impl Stager,
) -> Result<DomainStage, PdnError> {
    let load = scenario.load(kind);
    if !load.powered || load.nominal_power.get() <= 0.0 {
        return Ok(DomainStage {
            input_power: Watts::ZERO,
            overhead: Watts::ZERO,
            vr_loss: Watts::ZERO,
        });
    }
    let gb = stager.guardband(kind, load, params.ivr_tob.total(), params.leakage_exponent);
    let iout = gb.power / gb.voltage;
    let ps = ivr.best_power_state(iout).min(params.ivr_lightload_cap);
    let op = OperatingPoint::new(params.vin_level, gb.voltage, iout).with_power_state(ps);
    let pin = ivr.input_power(op)?;
    Ok(DomainStage {
        input_power: pin,
        overhead: gb.power - load.nominal_power,
        vr_loss: pin - gb.power,
    })
}

/// Pushes one powered domain through tolerance band + power gate, yielding
/// the power it demands from a dedicated board rail (MBVR-style flow), with
/// both stages routed through a [`Stager`].
pub fn gated_domain_stage(
    scenario: &Scenario,
    kind: DomainKind,
    tob: Volts,
    r_pg: Ohms,
    delta: f64,
    stager: &impl Stager,
) -> (Watts, Volts, Watts) {
    let load = scenario.load(kind);
    if !load.powered || load.nominal_power.get() <= 0.0 {
        return (Watts::ZERO, load.voltage, Watts::ZERO);
    }
    let pg = stager.gated(kind, load, tob, r_pg, delta);
    (pg.power, pg.voltage, pg.power - load.nominal_power)
}

/// A dedicated board rail serving one narrow-range domain (SA or IO):
/// guardband + gate + load line + board VR (the MBVR flow of Eqs. 2–5
/// applied to a single domain), with the PDN-independent stages routed
/// through a [`Stager`].
#[allow(clippy::too_many_arguments)]
pub fn dedicated_rail_flow(
    scenario: &Scenario,
    kind: DomainKind,
    tob: Volts,
    r_pg: Ohms,
    r_ll: Ohms,
    vr: &BuckConverter,
    params: &ModelParams,
    stager: &impl Stager,
) -> Result<(Watts, Watts, Watts, Watts, RailReport), PdnError> {
    let (lane, overhead) = dedicated_rail_lane(scenario, kind, tob, r_pg, r_ll, params, stager);
    let step = load_line_domain_stage(
        lane.power,
        lane.voltage,
        lane.p_peak,
        lane.r_ll,
        lane.leakage_fraction,
        params.leakage_exponent,
    );
    dedicated_rail_finish(step, vr, params, overhead)
}

/// Front half of [`dedicated_rail_flow`] — guardband + power gate —
/// yielding the rail's load-line lane and the Eq. 2 overhead, so callers
/// with several dedicated rails can advance the load-line fixed points in
/// lockstep ([`crate::etee::load_line_domain_stages`]) instead of paying
/// each chain's latency back-to-back.
pub(crate) fn dedicated_rail_lane(
    scenario: &Scenario,
    kind: DomainKind,
    tob: Volts,
    r_pg: Ohms,
    r_ll: Ohms,
    params: &ModelParams,
    stager: &impl Stager,
) -> (RailLoadLine, Watts) {
    let (p_d, v_d, overhead) =
        gated_domain_stage(scenario, kind, tob, r_pg, params.leakage_exponent, stager);
    let lane = RailLoadLine {
        power: p_d,
        voltage: v_d,
        p_peak: stager.rail_virus_power(scenario, &[kind], p_d),
        r_ll,
        leakage_fraction: scenario.load(kind).leakage_fraction,
    };
    (lane, overhead)
}

/// Back half of [`dedicated_rail_flow`]: the board VR behind an
/// already-advanced load-line step.
pub(crate) fn dedicated_rail_finish(
    step: LoadLineStep,
    vr: &BuckConverter,
    params: &ModelParams,
    overhead: Watts,
) -> Result<(Watts, Watts, Watts, Watts, RailReport), PdnError> {
    let (pin, rail) = board_vr_stage(
        vr,
        params.supply_voltage,
        step.v_ll,
        step.p_ll,
        params.board_lightload_cap,
    )?;
    let vr_loss = pin - step.p_ll;
    Ok((pin, overhead, step.extra, vr_loss, rail))
}

/// Builds a [`Pdn::memo_token`] from a topology kind, a topology-private
/// `flavor` discriminating sub-configurations (e.g. FlexWatts modes), and
/// the full parameter fingerprint. Two tokens collide only when all three
/// inputs match, which is exactly the "identical evaluations" contract.
pub fn pdn_memo_token(kind: PdnKind, flavor: u64, params: &ModelParams) -> u64 {
    let mut h = Fnv1a::new();
    h.write(kind as u64);
    h.write(flavor);
    h.write(params.fingerprint());
    h.finish()
}

/// The on-die power-gate impedance used by all topologies. Table 2 quotes
/// 1–2 mΩ for the small domains; the wide cores/LLC gate arrays are nearer
/// 0.5 mΩ, which reproduces the paper's "e.g. 10 mV" gate drop (§3.1) at
/// core currents.
pub fn power_gate_impedance() -> Ohms {
    Ohms::from_milliohms(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdn_kind_displays_paper_names() {
        assert_eq!(PdnKind::Ivr.to_string(), "IVR");
        assert_eq!(PdnKind::IPlusMbvr.to_string(), "I+MBVR");
        assert_eq!(PdnKind::FlexWatts.to_string(), "FlexWatts");
    }

    #[test]
    fn pdn_trait_is_object_safe() {
        fn _takes_dyn(_: &dyn Pdn) {}
    }
}
