//! End-to-end power-conversion-efficiency (ETEE) building blocks.
//!
//! The paper's three power models (§3.1, Eqs. 1–12) share four stages,
//! implemented here once and composed by each topology:
//!
//! 1. **guardband** (Eq. 2) — the VR tolerance band forces the rail above
//!    nominal voltage; dynamic power pays `(V/Vnom)²`, leakage `(V/Vnom)^δ`;
//! 2. **power gate** — domains behind power gates pay the same equation a
//!    second time for the `R_PG·I` gate drop;
//! 3. **load line** (Eqs. 3–4, 7–8) — the rail is raised to survive the
//!    power-virus current through the load-line impedance, costing
//!    `ΔP = (Ppeak/V)·R_LL·(P/V)` with `Ppeak = P/AR`;
//! 4. **regulator conversion** — dividing by the stage's efficiency.
//!
//! Evaluations report the Fig. 5 loss decomposition: VR inefficiencies,
//! compute-rail conduction (I²R + load line), SA/IO conduction, and other
//! (guardband + gate) losses.

use crate::error::PdnError;
use crate::scenario::{DomainLoad, Scenario};
use pdn_proc::{guardband_power, DomainKind};
use pdn_units::{Amps, ApplicationRatio, Efficiency, Ohms, Volts, Watts};
use pdn_vr::{BuckConverter, OperatingPoint, VoltageRegulator, VrPowerState};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A load after a voltage-raising stage: new power demand and rail voltage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagedLoad {
    /// Power demanded from the next stage.
    pub power: Watts,
    /// Rail voltage at this point.
    pub voltage: Volts,
}

/// Applies the Eq. 2 tolerance-band guardband to a domain load.
pub fn guardband_stage(load: &DomainLoad, tob: Volts, delta: f64) -> StagedLoad {
    let power =
        guardband_power(load.nominal_power, load.leakage_fraction, load.voltage, tob, delta);
    StagedLoad { power, voltage: load.voltage + tob }
}

/// Applies the power-gate drop: the gate's `R_PG·I` drop is compensated by
/// raising the rail, costing Eq. 2 a second time (§3.1, MBVR model).
pub fn power_gate_stage(
    staged: StagedLoad,
    load: &DomainLoad,
    r_pg: Ohms,
    delta: f64,
) -> StagedLoad {
    if staged.power.get() <= 0.0 {
        return staged;
    }
    let current = staged.power / staged.voltage;
    let v_pg = current * r_pg;
    let power = guardband_power(staged.power, load.leakage_fraction, staged.voltage, v_pg, delta);
    StagedLoad { power, voltage: staged.voltage + v_pg }
}

/// Result of a load-line compensation step (Eqs. 3–4 / 7–8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadLineStep {
    /// Raised rail voltage `V_LL`.
    pub v_ll: Volts,
    /// Power drawn from the regulator output `P_LL`.
    pub p_ll: Watts,
    /// The conduction/guardband cost `P_LL − P`.
    pub extra: Watts,
}

/// Raises a rail to compensate the worst-case (power-virus) drop across a
/// load-line impedance: `V_LL = V + (Ppeak/V)·R_LL`, `Ppeak = P/AR`
/// (the paper's Eqs. 3–4 / 7–8, a constant-current load model). Used for
/// the `V_IN` rails whose load is downstream converters.
pub fn load_line_stage(
    power: Watts,
    voltage: Volts,
    ar: ApplicationRatio,
    r_ll: Ohms,
) -> LoadLineStep {
    if power.get() <= 0.0 {
        return LoadLineStep { v_ll: voltage, p_ll: power, extra: Watts::ZERO };
    }
    let p_peak = ar.peak_power(power);
    let i_peak = p_peak / voltage;
    let v_ll = voltage + i_peak * r_ll;
    let p_ll = Watts::new(v_ll.get() * (power / voltage).get());
    LoadLineStep { v_ll, p_ll, extra: p_ll - power }
}

/// Load-line compensation for a rail that feeds a *domain* directly (MBVR
/// groups, dedicated SA/IO rails).
///
/// The VR set point is sized for the rail's power virus `p_peak`
/// (`V_LL = V + Ipeak·R_LL`, §2.4: the guardband must survive the maximum
/// possible current), but at the actual current `I < Ipeak` the load sees
/// the excess voltage `(Ipeak − I)·R_LL` and — per Eq. 2 — burns more
/// dynamic and leakage power for it, on top of the genuine `I²·R_LL` wire
/// dissipation. This is the §5 Observation 2 mechanism: a *higher* AR
/// means the running current is closer to the virus current, so the
/// excess voltage at the load shrinks and ETEE rises.
pub fn load_line_domain_stage(
    power: Watts,
    voltage: Volts,
    p_peak: Watts,
    r_ll: Ohms,
    leakage_fraction: pdn_units::Ratio,
    delta: f64,
) -> LoadLineStep {
    if power.get() <= 0.0 {
        return LoadLineStep { v_ll: voltage, p_ll: power, extra: Watts::ZERO };
    }
    let i_peak = p_peak.max(power) / voltage;
    let v_ll = voltage + i_peak * r_ll;
    // Fixed point: the load at the (excess) delivered voltage draws more
    // power, which raises the current, which lowers the delivered voltage.
    let mut current = power / voltage;
    let mut p_load = power;
    for _ in 0..4 {
        let v_load = (v_ll - current * r_ll).max(voltage);
        p_load = guardband_power(power, leakage_fraction, voltage, v_load - voltage, delta);
        current = p_load / v_load;
    }
    let wire = current.squared_times(r_ll);
    let p_ll = p_load + wire;
    LoadLineStep { v_ll, p_ll, extra: p_ll - power }
}

/// One rail's inputs to [`load_line_domain_stages`].
#[derive(Debug, Clone, Copy)]
pub struct RailLoadLine {
    /// Power the rail's domains demand after guardband/gating.
    pub power: Watts,
    /// Nominal rail voltage (highest member domain's).
    pub voltage: Volts,
    /// The rail's power-virus sizing power.
    pub p_peak: Watts,
    /// Load-line impedance of the rail.
    pub r_ll: Ohms,
    /// Power-weighted leakage fraction of the rail's domains.
    pub leakage_fraction: pdn_units::Ratio,
}

/// Maximum number of rails [`load_line_domain_stages`] advances at once
/// (the widest topology, MBVR, has four board rails).
pub const MAX_RAIL_LANES: usize = 4;

/// [`load_line_domain_stage`] for up to [`MAX_RAIL_LANES`] independent
/// rails, advancing their fixed-point iterations in lockstep.
///
/// Each lane performs exactly the operations of the scalar function in the
/// same order, and lanes never interact, so every returned step is
/// bit-identical to a scalar call on the same lane. The point of the
/// lockstep is latency: the scalar fixed point is a serial
/// `powf → divide → subtract` dependency chain, so four back-to-back
/// scalar calls cost four chain latencies, while interleaving lets the
/// out-of-order core overlap the lanes' chains (measured ~2× on the
/// four-rail MBVR group walk).
///
/// # Panics
///
/// Panics if more than [`MAX_RAIL_LANES`] lanes are passed.
pub fn load_line_domain_stages(lanes: &[RailLoadLine], delta: f64) -> [LoadLineStep; 4] {
    let n = lanes.len();
    assert!(n <= MAX_RAIL_LANES, "at most {MAX_RAIL_LANES} rail lanes, got {n}");
    let mut out = [LoadLineStep { v_ll: Volts::ZERO, p_ll: Watts::ZERO, extra: Watts::ZERO }; 4];
    let mut v_ll = [Volts::ZERO; 4];
    let mut current = [Amps::ZERO; 4];
    let mut p_load = [Watts::ZERO; 4];
    // `live` masks zero-power lanes, which take the scalar early return.
    let mut live = [false; 4];
    for (l, lane) in lanes.iter().enumerate() {
        if lane.power.get() <= 0.0 {
            out[l] = LoadLineStep { v_ll: lane.voltage, p_ll: lane.power, extra: Watts::ZERO };
            continue;
        }
        live[l] = true;
        let i_peak = lane.p_peak.max(lane.power) / lane.voltage;
        v_ll[l] = lane.voltage + i_peak * lane.r_ll;
        current[l] = lane.power / lane.voltage;
        p_load[l] = lane.power;
    }
    for _ in 0..4 {
        let mut v_load = [Volts::ZERO; 4];
        for l in 0..n {
            if live[l] {
                v_load[l] = (v_ll[l] - current[l] * lanes[l].r_ll).max(lanes[l].voltage);
            }
        }
        for l in 0..n {
            if live[l] {
                p_load[l] = guardband_power(
                    lanes[l].power,
                    lanes[l].leakage_fraction,
                    lanes[l].voltage,
                    v_load[l] - lanes[l].voltage,
                    delta,
                );
                current[l] = p_load[l] / v_load[l];
            }
        }
    }
    for l in 0..n {
        if live[l] {
            let wire = current[l].squared_times(lanes[l].r_ll);
            let p_ll = p_load[l] + wire;
            out[l] = LoadLineStep { v_ll: v_ll[l], p_ll, extra: p_ll - lanes[l].power };
        }
    }
    out
}

/// Draws `pout` at `vout` from a board VR fed by `supply`, letting the VR
/// follow the load into its deepest allowed light-load power state.
///
/// Returns the battery-side input power and a rail report. A zero load
/// turns the rail off (no quiescent loss): platform firmware disables
/// unloaded rails.
///
/// # Errors
///
/// Returns [`PdnError::Vr`] if even PS0 cannot carry the requested current.
pub fn board_vr_stage(
    vr: &BuckConverter,
    supply: Volts,
    vout: Volts,
    pout: Watts,
    lightload_cap: VrPowerState,
) -> Result<(Watts, RailReport), PdnError> {
    if pout.get() <= 0.0 {
        return Ok((
            Watts::ZERO,
            RailReport {
                name: vr.name().to_string(),
                voltage: vout,
                current: Amps::ZERO,
                input_power: Watts::ZERO,
                efficiency: None,
            },
        ));
    }
    let iout = pout / vout;
    // `min` picks the shallower of (deepest feasible, deepest allowed).
    let ps = vr.best_power_state(iout).min(lightload_cap);
    let op = OperatingPoint::new(supply, vout, iout).with_power_state(ps);
    // One loss evaluation for both numbers (bit-identical to the separate
    // `input_power` + `efficiency` calls; see `BuckConverter::conversion`).
    let (pin, efficiency) = vr.conversion(op)?;
    Ok((
        pin,
        RailReport {
            name: vr.name().to_string(),
            voltage: vout,
            current: iout,
            input_power: pin,
            efficiency,
        },
    ))
}

/// A provider of the PDN-independent half of an evaluation.
///
/// The guardband, power-gate, and virus-headroom stages depend only on the
/// scenario and a handful of electrical parameters — not on which topology
/// is asking. Topologies route those stages through a `Stager` so a row
/// evaluation can compute each partial once per row ([`RowStage`]) instead
/// of once per point.
///
/// Every method's default computes directly via the pure stage functions,
/// so [`DirectStager`] is a zero-cost pass-through and any caching
/// implementation returning the same bits is observationally identical.
///
/// The trait is deliberately **not** `Sync`: the per-row stager of the
/// batch kernel ([`RowStage`]) is owned by the single worker that claimed
/// the row and stays lock-free.
pub trait Stager {
    /// The power-independent Eq. 2 multiplier for one domain's load
    /// ([`pdn_proc::guardband_factor`]).
    ///
    /// Split out from [`Stager::guardband`] because the factor — the only
    /// `powf` of the stage — depends on everything *except* the nominal
    /// power, so a row-scoped stager can reuse it across the points of a
    /// lattice row while the power varies underneath.
    fn guardband_factor(&self, kind: DomainKind, load: &DomainLoad, tob: Volts, delta: f64) -> f64 {
        let _ = kind;
        pdn_proc::guardband_factor(load.leakage_fraction, load.voltage, tob, delta)
    }

    /// [`guardband_stage`] for one domain's load.
    ///
    /// The default composes `P_NOM · factor` exactly as [`guardband_power`]
    /// does (`guardband_power(P, …) == P · guardband_factor(…)`, same ops,
    /// same order), so routing the factor through the stager preserves the
    /// bits while letting implementations cache the factor alone.
    fn guardband(&self, kind: DomainKind, load: &DomainLoad, tob: Volts, delta: f64) -> StagedLoad {
        StagedLoad {
            power: load.nominal_power * self.guardband_factor(kind, load, tob, delta),
            voltage: load.voltage + tob,
        }
    }

    /// [`guardband_stage`] followed by [`power_gate_stage`] for one
    /// domain's load (the MBVR-style gated flow).
    fn gated(
        &self,
        kind: DomainKind,
        load: &DomainLoad,
        tob: Volts,
        r_pg: Ohms,
        delta: f64,
    ) -> StagedLoad {
        power_gate_stage(self.guardband(kind, load, tob, delta), load, r_pg, delta)
    }

    /// The load-independent virus headroom of a rail serving `domains`
    /// ([`Scenario::rail_virus_headroom`]).
    fn virus_headroom(&self, scenario: &Scenario, domains: &[DomainKind]) -> Watts {
        scenario.rail_virus_headroom(domains)
    }

    /// [`Scenario::rail_virus_power`]: the virus headroom clamped to never
    /// fall below the rail's running power.
    fn rail_virus_power(
        &self,
        scenario: &Scenario,
        domains: &[DomainKind],
        running: Watts,
    ) -> Watts {
        self.virus_headroom(scenario, domains).max(running)
    }
}

/// The trivial [`Stager`]: every stage is computed on the spot. Used by
/// single-scenario evaluation paths where there is nothing to share.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectStager;

impl Stager for DirectStager {}

/// Packs an ordered domain list into an exact small-integer key (4 bits
/// per domain, ≤ 6 domains). Order-preserving, because the f64 summation
/// order inside [`Scenario::rail_virus_headroom`] follows the slice order.
fn domain_seq_key(domains: &[DomainKind]) -> u64 {
    domains.iter().fold(0u64, |key, &k| (key << 4) | (k as u64 + 1))
}

/// Packs the powered flags of a scenario's six domains into a bitmask, in
/// canonical domain order. The only load field [`Scenario::rail_virus_headroom`]
/// reads is `powered`, so the mask (plus the domain sequence) keys a
/// headroom cache exactly across the scenarios of one lattice row.
fn powered_mask(scenario: &Scenario) -> u64 {
    scenario.loads().fold(0u64, |mask, (_, load)| (mask << 1) | u64::from(load.powered))
}

/// Memoized PDN-independent stage results for **one** lattice row — a run
/// of scenarios that share every sweep coordinate except one (application
/// ratio along an active row, package C-state along an idle row).
///
/// A row stager is shared across the scenarios of its row, so each cache
/// keys on the exact bit patterns of *every* input the staged computation
/// reads:
///
/// - guardband factors key on `(V_NOM, FL, TOB, δ)` — along a row the
///   voltages and leakage fractions are sweep-invariant, so the whole row
///   pays one `powf` per distinct combination (and domains or PDNs whose
///   inputs collide bit-for-bit legitimately share the entry);
/// - virus headrooms key on `(domain sequence, powered mask)` — the virus
///   tables, margin, and workload type are fixed within a row by
///   construction, and the powered flags (which *do* vary along an idle
///   row) are part of the key.
///
/// The caller must create one `RowStage` per row and never reuse it across
/// rows: row-invariant scenario fields are deliberately not in the keys.
/// Interior mutability is a plain `RefCell` — a row stager belongs to the
/// single worker that claimed the row task, so it is `!Sync` and lock-free
/// (this is the batch kernel's hot path).
#[derive(Debug, Default)]
pub struct RowStage {
    factors: RefCell<Vec<(FactorKey, f64)>>,
    headrooms: RefCell<Vec<((u64, u64), Watts)>>,
}

/// Guardband-factor staging key: the raw bits of `(V_NOM, FL, TOB, δ)`.
type FactorKey = (u64, u64, u64, u64);

impl RowStage {
    /// An empty staging cache for one lattice row.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Stager for RowStage {
    fn guardband_factor(&self, kind: DomainKind, load: &DomainLoad, tob: Volts, delta: f64) -> f64 {
        let _ = kind;
        let key = (
            load.voltage.get().to_bits(),
            load.leakage_fraction.get().to_bits(),
            tob.get().to_bits(),
            delta.to_bits(),
        );
        let mut cache = self.factors.borrow_mut();
        if let Some((_, hit)) = cache.iter().find(|(k, _)| *k == key) {
            return *hit;
        }
        let value = pdn_proc::guardband_factor(load.leakage_fraction, load.voltage, tob, delta);
        cache.push((key, value));
        value
    }

    fn virus_headroom(&self, scenario: &Scenario, domains: &[DomainKind]) -> Watts {
        let key = (domain_seq_key(domains), powered_mask(scenario));
        let mut cache = self.headrooms.borrow_mut();
        if let Some((_, hit)) = cache.iter().find(|(k, _)| *k == key) {
            return *hit;
        }
        let value = scenario.rail_virus_headroom(domains);
        cache.push((key, value));
        value
    }
}

/// The Fig. 5 loss decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LossBreakdown {
    /// On-chip and off-chip VR conversion inefficiencies.
    pub vr_loss: Watts,
    /// Conduction (I²R + load-line guardband) on core/GFX/V_IN paths.
    pub conduction_compute: Watts,
    /// Conduction (I²R + load-line guardband) on SA/IO paths.
    pub conduction_sa_io: Watts,
    /// Everything else: tolerance-band guardband and power-gate drops.
    pub other: Watts,
}

impl LossBreakdown {
    /// Total PDN loss.
    pub fn total(&self) -> Watts {
        self.vr_loss + self.conduction_compute + self.conduction_sa_io + self.other
    }

    /// Each category as a fraction of `input_power` (the Fig. 5 y-axis).
    pub fn fractions_of(&self, input_power: Watts) -> [f64; 4] {
        let d = input_power.get().max(1e-12);
        [
            self.vr_loss.get() / d,
            self.conduction_compute.get() / d,
            self.conduction_sa_io.get() / d,
            self.other.get() / d,
        ]
    }
}

/// Per-rail accounting of an evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RailReport {
    /// Rail name (matches Fig. 1 labels).
    pub name: String,
    /// Output voltage of the rail.
    pub voltage: Volts,
    /// Output current of the rail.
    pub current: Amps,
    /// Battery-side input power attributed to the rail.
    pub input_power: Watts,
    /// Conversion efficiency of the rail's off-chip VR (None for unloaded
    /// rails).
    pub efficiency: Option<Efficiency>,
}

/// The result of evaluating a PDN on a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdnEvaluation {
    /// Total nominal load power (`Σ P_NOM`, the ETEE numerator).
    pub nominal_power: Watts,
    /// Power drawn from the battery/PSU.
    pub input_power: Watts,
    /// End-to-end power-conversion efficiency (Eq. 1).
    pub etee: Efficiency,
    /// Loss decomposition (Fig. 5).
    pub breakdown: LossBreakdown,
    /// Total current entering the processor package from off-chip VRs
    /// (the Fig. 5 "chip input current" line).
    pub chip_input_current: Amps,
    /// Per-rail reports.
    pub rails: Vec<RailReport>,
}

impl PdnEvaluation {
    /// Assembles an evaluation, deriving the ETEE from the power totals.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if the accounting is inconsistent
    /// (input below nominal, or non-positive powers).
    pub fn assemble(
        nominal_power: Watts,
        input_power: Watts,
        breakdown: LossBreakdown,
        chip_input_current: Amps,
        rails: Vec<RailReport>,
    ) -> Result<Self, PdnError> {
        if nominal_power.get() <= 0.0 {
            return Err(PdnError::Scenario("scenario has no nominal load power".into()));
        }
        if input_power.get() < nominal_power.get() - 1e-9 {
            return Err(PdnError::Scenario(format!(
                "input power {input_power} below nominal {nominal_power}: a PDN cannot create energy"
            )));
        }
        let etee = Efficiency::new((nominal_power.get() / input_power.get()).min(1.0))?;
        Ok(Self { nominal_power, input_power, etee, breakdown, chip_input_current, rails })
    }

    /// Total PDN loss (input − nominal).
    pub fn total_loss(&self) -> Watts {
        self.input_power - self.nominal_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_units::Ratio;

    fn load(p: f64, v: f64, fl: f64) -> DomainLoad {
        DomainLoad {
            nominal_power: Watts::new(p),
            voltage: Volts::new(v),
            leakage_fraction: Ratio::new(fl).unwrap(),
            powered: true,
        }
    }

    #[test]
    fn guardband_stage_raises_power_and_voltage() {
        let l = load(2.0, 0.8, 0.22);
        let s = guardband_stage(&l, Volts::from_millivolts(20.0), 2.8);
        assert!(s.power > l.nominal_power);
        assert!((s.voltage.get() - 0.82).abs() < 1e-12);
    }

    #[test]
    fn power_gate_stage_cost_is_small_but_positive() {
        let l = load(2.0, 0.8, 0.22);
        let gb = guardband_stage(&l, Volts::from_millivolts(20.0), 2.8);
        let pg = power_gate_stage(gb, &l, Ohms::from_milliohms(1.5), 2.8);
        assert!(pg.power > gb.power);
        let overhead = pg.power.get() / gb.power.get() - 1.0;
        assert!(overhead < 0.03, "gate overhead should be a couple of percent: {overhead}");
    }

    #[test]
    fn power_gate_stage_passes_zero_load() {
        let l = load(0.0, 0.8, 0.22);
        let gb = StagedLoad { power: Watts::ZERO, voltage: Volts::new(0.8) };
        let pg = power_gate_stage(gb, &l, Ohms::from_milliohms(2.0), 2.8);
        assert_eq!(pg.power, Watts::ZERO);
    }

    #[test]
    fn load_line_cost_grows_as_ar_falls() {
        let p = Watts::new(10.0);
        let v = Volts::new(1.0);
        let r = Ohms::from_milliohms(2.5);
        let high_ar = load_line_stage(p, v, ApplicationRatio::new(0.8).unwrap(), r);
        let low_ar = load_line_stage(p, v, ApplicationRatio::new(0.4).unwrap(), r);
        assert!(low_ar.extra > high_ar.extra, "Observation 2: lower AR needs more virus headroom");
        // Closed form at AR = 0.4: Ppeak = 25 W → Ipeak = 25 A → ΔV = 62.5 mV.
        assert!((low_ar.v_ll.millivolts() - 1062.5).abs() < 1e-6);
        assert!((low_ar.p_ll.get() - 10.625).abs() < 1e-9);
    }

    #[test]
    fn domain_load_line_excess_shrinks_as_load_approaches_virus() {
        let v = Volts::new(0.9);
        let r = Ohms::from_milliohms(2.5);
        let virus = Watts::new(30.0);
        let fl = Ratio::new(0.22).unwrap();
        let light = load_line_domain_stage(Watts::new(10.0), v, virus, r, fl, 2.8);
        let heavy = load_line_domain_stage(Watts::new(25.0), v, virus, r, fl, 2.8);
        // Relative overhead falls as the running power nears the virus.
        let light_frac = light.extra.get() / 10.0;
        let heavy_frac = heavy.extra.get() / 25.0;
        assert!(
            light_frac > heavy_frac,
            "Observation 2: light {light_frac:.4} vs heavy {heavy_frac:.4}"
        );
        // Both VR set points are identical (sized for the same virus).
        assert!((light.v_ll.get() - heavy.v_ll.get()).abs() < 1e-12);
    }

    #[test]
    fn domain_load_line_clamps_virus_below_running_power() {
        let v = Volts::new(0.9);
        let r = Ohms::from_milliohms(2.5);
        let fl = Ratio::new(0.22).unwrap();
        let s = load_line_domain_stage(Watts::new(20.0), v, Watts::new(5.0), r, fl, 2.8);
        // Virus below running power degenerates to pure wire loss.
        assert!(s.extra.get() > 0.0);
        assert!(s.p_ll > Watts::new(20.0));
    }

    #[test]
    fn load_line_zero_power_is_free() {
        let s = load_line_stage(
            Watts::ZERO,
            Volts::new(1.0),
            ApplicationRatio::new(0.5).unwrap(),
            Ohms::from_milliohms(2.5),
        );
        assert_eq!(s.extra, Watts::ZERO);
        assert_eq!(s.p_ll, Watts::ZERO);
    }

    #[test]
    fn board_stage_turns_off_unloaded_rails() {
        let vr = pdn_vr::presets::sa_board_vr();
        let (pin, rail) =
            board_vr_stage(&vr, Volts::new(7.2), Volts::new(0.85), Watts::ZERO, VrPowerState::Ps4)
                .unwrap();
        assert_eq!(pin, Watts::ZERO);
        assert!(rail.efficiency.is_none());
    }

    #[test]
    fn board_stage_uses_light_load_states() {
        let vr = pdn_vr::presets::sa_board_vr();
        let light = board_vr_stage(
            &vr,
            Volts::new(7.2),
            Volts::new(0.85),
            Watts::from_milliwatts(100.0),
            VrPowerState::Ps4,
        )
        .unwrap()
        .0;
        let capped = board_vr_stage(
            &vr,
            Volts::new(7.2),
            Volts::new(0.85),
            Watts::from_milliwatts(100.0),
            VrPowerState::Ps0,
        )
        .unwrap()
        .0;
        assert!(light < capped, "PS-capped rail must burn more: {light} vs {capped}");
    }

    #[test]
    fn row_stage_matches_direct_stager_across_a_row() {
        // A RowStage shared across the scenarios of one row (and several
        // stage-parameter sets, standing in for several PDNs) must return
        // exactly the bits DirectStager computes fresh at every point.
        let soc = pdn_proc::client_soc(Watts::new(18.0));
        let scenarios: Vec<Scenario> = [0.2, 0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|&ar| {
                Scenario::active_fixed_tdp_frequency(
                    &soc,
                    pdn_workload::WorkloadType::MultiThread,
                    ApplicationRatio::new(ar).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let row = RowStage::new();
        let direct = DirectStager;
        let r_pg = Ohms::from_milliohms(0.5);
        for s in &scenarios {
            for tob in [Volts::from_millivolts(18.0), Volts::from_millivolts(25.0)] {
                for kind in DomainKind::ALL {
                    let l = s.load(kind);
                    let fa = row.guardband_factor(kind, l, tob, 2.8);
                    let fb = direct.guardband_factor(kind, l, tob, 2.8);
                    assert_eq!(fa.to_bits(), fb.to_bits());
                    let a = row.guardband(kind, l, tob, 2.8);
                    let b = direct.guardband(kind, l, tob, 2.8);
                    assert_eq!(a.power.get().to_bits(), b.power.get().to_bits());
                    assert_eq!(a.voltage.get().to_bits(), b.voltage.get().to_bits());
                    let ga = row.gated(kind, l, tob, r_pg, 2.8);
                    let gb = direct.gated(kind, l, tob, r_pg, 2.8);
                    assert_eq!(ga.power.get().to_bits(), gb.power.get().to_bits());
                }
            }
            for domains in
                [&[DomainKind::Core0, DomainKind::Core1, DomainKind::Llc][..], &[DomainKind::Sa]]
            {
                let a = row.rail_virus_power(s, domains, Watts::new(1.0));
                let b = direct.rail_virus_power(s, domains, Watts::new(1.0));
                assert_eq!(a.get().to_bits(), b.get().to_bits());
            }
        }
    }

    #[test]
    fn row_stage_guardband_equals_legacy_stage_function() {
        // The factor-form default must reproduce guardband_stage (and so
        // guardband_power) bit-for-bit: Eq. 2's P·factor split is exact.
        let soc = pdn_proc::client_soc(Watts::new(4.0));
        let s = Scenario::active_fixed_tdp_frequency(
            &soc,
            pdn_workload::WorkloadType::Graphics,
            ApplicationRatio::new(0.35).unwrap(),
        )
        .unwrap();
        let row = RowStage::new();
        for kind in DomainKind::ALL {
            let l = s.load(kind);
            let a = row.guardband(kind, l, Volts::from_millivolts(18.0), 2.8);
            let b = guardband_stage(l, Volts::from_millivolts(18.0), 2.8);
            assert_eq!(a.power.get().to_bits(), b.power.get().to_bits());
            assert_eq!(a.voltage.get().to_bits(), b.voltage.get().to_bits());
        }
    }

    #[test]
    fn row_stage_distinguishes_points_with_different_inputs() {
        // Across the points of an *idle* row the powered flags change, so
        // headrooms must not collide; and factor entries must key on the
        // load voltage so distinct domains never share by accident.
        let soc = pdn_proc::client_soc(Watts::new(18.0));
        let row = RowStage::new();
        let active = Scenario::active_fixed_tdp_frequency(
            &soc,
            pdn_workload::WorkloadType::MultiThread,
            ApplicationRatio::new(0.6).unwrap(),
        )
        .unwrap();
        let core = active.load(DomainKind::Core0);
        let sa = active.load(DomainKind::Sa);
        assert_ne!(core.voltage, sa.voltage, "test premise: distinct rail voltages");
        let fc = row.guardband_factor(DomainKind::Core0, core, Volts::from_millivolts(18.0), 2.8);
        let fs = row.guardband_factor(DomainKind::Sa, sa, Volts::from_millivolts(18.0), 2.8);
        assert_ne!(fc.to_bits(), fs.to_bits(), "different voltages must miss the factor cache");

        let deep = Scenario::idle(&soc, pdn_proc::PackageCState::C6);
        let shallow = Scenario::idle(&soc, pdn_proc::PackageCState::C0Min);
        let domains = [DomainKind::Core0, DomainKind::Core1, DomainKind::Llc];
        let direct = DirectStager;
        let a = row.virus_headroom(&shallow, &domains);
        let b = row.virus_headroom(&deep, &domains);
        assert_eq!(a.get().to_bits(), direct.virus_headroom(&shallow, &domains).get().to_bits());
        assert_eq!(b.get().to_bits(), direct.virus_headroom(&deep, &domains).get().to_bits());
        assert_ne!(a, b, "powered mask must separate idle states sharing a row stager");
    }

    #[test]
    fn row_stage_keys_on_stage_parameters_and_domain_order() {
        let soc = pdn_proc::client_soc(Watts::new(18.0));
        let s = Scenario::active_fixed_tdp_frequency(
            &soc,
            pdn_workload::WorkloadType::MultiThread,
            ApplicationRatio::new(0.6).unwrap(),
        )
        .unwrap();
        let row = RowStage::new();
        let l = s.load(DomainKind::Core0);
        let at_18 = row.guardband(DomainKind::Core0, l, Volts::from_millivolts(18.0), 2.8);
        let at_20 = row.guardband(DomainKind::Core0, l, Volts::from_millivolts(20.0), 2.8);
        assert_ne!(at_18.power, at_20.power, "different TOBs must not share a cache entry");
        // Ordered sequence keys: distinct rails never collide, and the same
        // domains in another order (another f64 summation order) never do.
        assert_ne!(
            super::domain_seq_key(&[DomainKind::Sa]),
            super::domain_seq_key(&[DomainKind::Io])
        );
        assert_ne!(
            super::domain_seq_key(&[DomainKind::Core0, DomainKind::Core1]),
            super::domain_seq_key(&[DomainKind::Core1, DomainKind::Core0])
        );
    }

    #[test]
    fn assemble_rejects_energy_creation() {
        let bd = LossBreakdown::default();
        assert!(PdnEvaluation::assemble(Watts::new(2.0), Watts::new(1.9), bd, Amps::ZERO, vec![])
            .is_err());
        assert!(
            PdnEvaluation::assemble(Watts::ZERO, Watts::new(1.0), bd, Amps::ZERO, vec![]).is_err()
        );
    }

    #[test]
    fn assemble_computes_etee_and_loss() {
        let bd = LossBreakdown {
            vr_loss: Watts::new(0.6),
            conduction_compute: Watts::new(0.25),
            conduction_sa_io: Watts::new(0.05),
            other: Watts::new(0.1),
        };
        let e =
            PdnEvaluation::assemble(Watts::new(3.0), Watts::new(4.0), bd, Amps::new(2.0), vec![])
                .unwrap();
        assert!((e.etee.get() - 0.75).abs() < 1e-12);
        assert!((e.total_loss().get() - 1.0).abs() < 1e-12);
        assert!((bd.total().get() - 1.0).abs() < 1e-12);
        let fr = bd.fractions_of(e.input_power);
        assert!((fr.iter().sum::<f64>() - 0.25).abs() < 1e-12);
    }
}
