//! Scenarios: the per-domain operating conditions a PDN is evaluated at.
//!
//! A [`Scenario`] fixes everything the power-flow models need: which
//! domains are powered, their nominal power, rail voltage, the package-
//! level application ratio (AR), and the power state. Scenarios are built
//! from a SoC specification plus a workload description, so the same
//! scenario can be fed to every PDN topology for an apples-to-apples ETEE
//! comparison (Figs. 4 and 5 of the paper).

use crate::error::PdnError;
use crate::params::ModelParams;
use pdn_proc::{DomainKind, DomainState, DomainTable, HoistedDomainPower, PackageCState, SocSpec};
use pdn_units::{ApplicationRatio, Celsius, Hertz, Ratio, Volts, Watts};
use pdn_workload::codec::Fnv1a;
use pdn_workload::WorkloadType;

/// The fraction of TDP assumed to reach the loads when constructing
/// budget-limited scenarios (a representative ETEE; the per-PDN frequency
/// optimisation for the performance figures lives in [`crate::perf`]).
pub const NOMINAL_BUDGET_FRACTION: f64 = 0.78;

/// Rail guardbands are sized for the Turbo Boost virus, which briefly
/// exceeds TDP (§1); this is the headroom factor applied to the TDP virus.
pub const TURBO_VIRUS_MARGIN: f64 = 1.3;

/// Operating conditions of one domain within a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainLoad {
    /// Nominal power consumed by the domain (`P_NOM` in Fig. 1).
    pub nominal_power: Watts,
    /// Nominal rail voltage required by the domain (`V_NOM`).
    pub voltage: Volts,
    /// Leakage fraction used by the Eq. 2 guardband.
    pub leakage_fraction: Ratio,
    /// Whether the domain is powered at all.
    pub powered: bool,
}

impl DomainLoad {
    /// An unpowered (gated) domain.
    pub fn gated() -> Self {
        Self {
            nominal_power: Watts::ZERO,
            voltage: Volts::new(0.45),
            leakage_fraction: Ratio::ZERO,
            powered: false,
        }
    }
}

/// A complete evaluation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label.
    pub name: String,
    /// Workload type (predictor input `WL_TYPE`).
    pub workload_type: WorkloadType,
    /// Package application ratio (guardbands are sized for `P/AR`).
    pub ar: ApplicationRatio,
    /// `Some` when the package resides in an idle/C0MIN state.
    pub power_state: Option<PackageCState>,
    /// Junction temperature.
    pub tj: Celsius,
    /// TDP of the SoC the scenario was built for.
    pub tdp: Watts,
    loads: DomainTable<DomainLoad>,
    /// Power-virus load sets (one per virus workload type) at the
    /// TDP-limited frequency, used to size shared-rail load-line
    /// guardbands (§2.4: the guardband must survive the maximum possible
    /// current of the rail).
    virus: [DomainTable<DomainLoad>; 2],
    /// Extra headroom applied on top of the virus sums (Turbo Boost can
    /// briefly exceed TDP, and rails must survive it; §1).
    virus_margin: f64,
}

impl Scenario {
    /// Builds an active scenario at explicit compute frequencies.
    ///
    /// Domain roles follow the workload type (§7.1): single-thread gates
    /// core 1 and graphics; multi-thread gates only graphics; graphics
    /// workloads run the LLC at a higher frequency/voltage than the cores.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered.
    pub fn active(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        f_cores: Hertz,
        f_gfx: Hertz,
    ) -> Result<Self, PdnError> {
        let virus = staging::for_soc(soc).tdp_virus(soc);
        Self::active_with_virus(soc, workload_type, ar, f_cores, f_gfx, virus)
    }

    /// [`Scenario::active`] with the TDP virus load sets supplied by the
    /// caller. The virus sets depend only on the SoC, so batch sweeps
    /// compute them once per TDP and pass the cached tables here; the
    /// construction is otherwise identical to [`Scenario::active`].
    fn active_with_virus(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        f_cores: Hertz,
        f_gfx: Hertz,
        virus: [DomainTable<DomainLoad>; 2],
    ) -> Result<Self, PdnError> {
        let loads = Self::domain_loads_at(soc, workload_type, ar, f_cores, f_gfx);
        if loads.values().all(|l| !l.powered) {
            return Err(PdnError::Scenario("no powered domain in scenario".into()));
        }
        Ok(Self {
            name: format!("{}-{}W-ar{:.0}", workload_type, soc.tdp.get(), ar.percent()),
            workload_type,
            ar,
            power_state: None,
            tj: soc.tj_active,
            tdp: soc.tdp,
            loads,
            virus,
            virus_margin: TURBO_VIRUS_MARGIN,
        })
    }

    /// Computes the per-domain loads of an active operating point.
    fn domain_loads_at(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        f_cores: Hertz,
        f_gfx: Hertz,
    ) -> DomainTable<DomainLoad> {
        let tj = soc.tj_active;
        DomainTable::from_fn(|kind| {
            let cfg = soc.domain(kind);
            if !workload_type.domain_powered(kind) {
                return DomainLoad::gated();
            }
            let frequency = Self::domain_frequency(soc, workload_type, kind, f_cores, f_gfx);
            let activity = Self::domain_activity(workload_type, kind, ar);
            let state = DomainState::active(frequency, activity);
            DomainLoad {
                nominal_power: cfg.nominal_power(&state, tj),
                voltage: cfg.voltage_for(&state),
                leakage_fraction: cfg.power.guardband_leakage_fraction,
                powered: true,
            }
        })
    }

    /// The operating frequency of one powered domain at an active point.
    /// Shared by [`Scenario::domain_loads_at`] and the row constructor so
    /// both paths make the identical choice.
    fn domain_frequency(
        soc: &SocSpec,
        workload_type: WorkloadType,
        kind: DomainKind,
        f_cores: Hertz,
        f_gfx: Hertz,
    ) -> Hertz {
        let cfg = soc.domain(kind);
        match kind {
            DomainKind::Core0 | DomainKind::Core1 => f_cores,
            DomainKind::Gfx => f_gfx,
            DomainKind::Llc => {
                if workload_type == WorkloadType::Graphics {
                    // §7.1: graphics demand pushes the LLC above the
                    // core clock; scale the GFX clock position into the
                    // LLC range.
                    let gfx_cfg = soc.domain(DomainKind::Gfx);
                    let t = (f_gfx.get() - gfx_cfg.fmin.get())
                        / (gfx_cfg.fmax.get() - gfx_cfg.fmin.get()).max(1.0);
                    let llc_from_gfx =
                        Hertz::new(cfg.fmin.get() + 0.8 * t * (cfg.fmax.get() - cfg.fmin.get()));
                    f_cores.max(llc_from_gfx)
                } else {
                    f_cores
                }
            }
            DomainKind::Sa | DomainKind::Io => cfg.fmax,
        }
    }

    /// The activity of one powered domain given the package AR. SA/IO
    /// activity tracks the workload but stays moderate; in graphics
    /// workloads the cores mostly wait on the GPU (§7.1 gives them only
    /// 10–20 % of the budget); the other compute domains carry the package
    /// AR. Shared by [`Scenario::domain_loads_at`] and the row constructor.
    fn domain_activity(
        workload_type: WorkloadType,
        kind: DomainKind,
        ar: ApplicationRatio,
    ) -> ApplicationRatio {
        match kind {
            DomainKind::Sa | DomainKind::Io => {
                ApplicationRatio::new((ar.get() * 0.8).clamp(0.05, 1.0))
                    .expect("scaled AR is valid")
            }
            DomainKind::Core0 | DomainKind::Core1 if workload_type == WorkloadType::Graphics => {
                ApplicationRatio::new((ar.get() * 0.25).clamp(0.05, 1.0))
                    .expect("scaled AR is valid")
            }
            _ => ar,
        }
    }

    /// The worst-case (power-virus) power a rail serving `domains` must be
    /// guardbanded for: the largest *simultaneous* virus total across the
    /// virus workload types (a rail need not survive the multi-thread and
    /// graphics viruses at once — the TDP forbids it).
    ///
    /// A domain counts towards the guardband when it is powered, or when
    /// the scheduler could wake it without a PMU reconfiguration: an idle
    /// sibling core can receive a thread at any instant, so the shared
    /// cores rail keeps its virus headroom even in single-thread phases;
    /// a parked graphics engine, by contrast, only comes up through a
    /// driver flow during which the PMU re-setpoints the rails.
    ///
    /// Never less than the rail's running power.
    pub fn rail_virus_power(&self, domains: &[DomainKind], running: Watts) -> Watts {
        self.rail_virus_headroom(domains).max(running)
    }

    /// The load-independent part of [`Scenario::rail_virus_power`]: the
    /// margined virus total for a rail serving `domains`. Depends only on
    /// the scenario, so batch sweeps cache it per (point, rail) and clamp
    /// against the running power afterwards.
    pub fn rail_virus_headroom(&self, domains: &[DomainKind]) -> Watts {
        // In graphics configurations the second core is parked by the
        // configuration itself (the driver/scheduler keeps it off), so
        // the sibling-wake rule does not apply there.
        let siblings_wakeable = self.workload_type != WorkloadType::Graphics
            && (self.load(DomainKind::Core0).powered || self.load(DomainKind::Core1).powered);
        let counts = |k: DomainKind| -> bool {
            if self.load(k).powered {
                return true;
            }
            matches!(k, DomainKind::Core0 | DomainKind::Core1) && siblings_wakeable
        };
        let virus = self
            .virus
            .iter()
            .map(|set| {
                domains
                    .iter()
                    .filter(|k| counts(**k))
                    .map(|&k| set.get(k).nominal_power)
                    .sum::<Watts>()
            })
            .fold(Watts::ZERO, Watts::max);
        virus * self.virus_margin
    }

    /// Builds an active scenario whose compute frequency is chosen so that
    /// the total nominal power fills [`NOMINAL_BUDGET_FRACTION`] of the TDP
    /// — the PDN-independent operating point used for the ETEE comparisons
    /// of Figs. 4 and 5.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if the budget cannot be bracketed.
    pub fn active_budget(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        _params: &ModelParams,
    ) -> Result<Self, PdnError> {
        let budget = Watts::new(soc.tdp.get() * NOMINAL_BUDGET_FRACTION);
        Self::active_with_budget(soc, workload_type, ar, budget)
    }

    /// Builds an active scenario whose compute frequency is chosen so that
    /// the total nominal power fills an explicit `budget` (clamping at the
    /// architectural frequency limits when the budget cannot be reached).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered.
    pub fn active_with_budget(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        budget: Watts,
    ) -> Result<Self, PdnError> {
        let t = Self::solve_t_for_budget(soc, workload_type, ar, budget)?;
        let (f_cores, f_gfx) = Self::frequency_point(soc, workload_type, t);
        Scenario::active(soc, workload_type, ar, f_cores, f_gfx)
    }

    /// Builds the Fig. 4-style scenario: the compute frequency is the one a
    /// TDP-limited part ships with (the AR = 1 power virus fills the TDP),
    /// and the workload then runs at that *fixed* frequency with its own
    /// AR. Varying AR along this constructor sweeps the Fig. 4 x-axis.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered.
    pub fn active_fixed_tdp_frequency(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
    ) -> Result<Self, PdnError> {
        // One staging lookup serves both the frequency solve and the
        // virus tables.
        let slot = staging::for_soc(soc);
        let t = slot.solved_t(soc, workload_type)?;
        let (f_cores, f_gfx) = Self::frequency_point(soc, workload_type, t);
        Self::active_with_virus(soc, workload_type, ar, f_cores, f_gfx, slot.tdp_virus(soc))
    }

    /// The formatted AR suffix of a scenario name — the exact `{:.0}`
    /// rendering of [`ApplicationRatio::percent`] the per-point
    /// constructor embeds, split out so a sweep can format each distinct
    /// AR once instead of once per lattice point.
    pub(crate) fn ar_suffix(ar: ApplicationRatio) -> String {
        format!("{:.0}", ar.percent())
    }

    /// Builds every [`Scenario::active_fixed_tdp_frequency`] scenario of
    /// one AR row (fixed SoC and workload type; AR varying) in a single
    /// call, bit-identical to the per-point constructor at each AR.
    ///
    /// The fixed-TDP frequency solve and the virus tables come from one
    /// lookup of the process-wide staging cache for the row; see
    /// `active_fixed_tdp_row_staged` for what the row hoists per point.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if the frequency solve fails or no
    /// domain ends up powered — the errors the per-point constructor
    /// returns, in the same order (both are AR-independent, so the whole
    /// row fails identically).
    pub fn active_fixed_tdp_row(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ars: &[ApplicationRatio],
    ) -> Result<Vec<Self>, PdnError> {
        let slot = staging::for_soc(soc);
        let t = slot.solved_t(soc, workload_type)?;
        let suffixes: Vec<String> = ars.iter().map(|&ar| Self::ar_suffix(ar)).collect();
        Self::active_fixed_tdp_row_staged(
            soc,
            workload_type,
            ars,
            &suffixes,
            t,
            &slot.tdp_virus(soc),
        )
    }

    /// [`Scenario::active_fixed_tdp_row`] with the frequency scalar and
    /// virus tables supplied by the caller:
    /// builds every scenario of one AR row (fixed SoC, workload type and
    /// frequency scalar; AR varying) in a single call. The per-domain
    /// frequency choice, V/f interpolation, leakage `powf`/`exp`
    /// ([`DomainConfig::hoist_active`](pdn_proc::DomainConfig::hoist_active))
    /// and the name prefix are computed once for the row; the per-point
    /// work reduces to one multiply-add chain per powered domain — in the
    /// exact operation order of [`Scenario::domain_loads_at`] — plus two
    /// string copies for the name, so every returned scenario is
    /// bit-identical to the per-point constructor's.
    ///
    /// `ar_suffixes` must hold [`Scenario::ar_suffix`] of each entry of
    /// `ars` (the batch cache formats them once per sweep: float `Display`
    /// with a fixed precision costs more than the rest of a point's name).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered (the
    /// powered set is AR-independent, so the whole row fails identically).
    pub(crate) fn active_fixed_tdp_row_staged(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ars: &[ApplicationRatio],
        ar_suffixes: &[String],
        t: f64,
        virus: &[DomainTable<DomainLoad>; 2],
    ) -> Result<Vec<Self>, PdnError> {
        assert_eq!(ars.len(), ar_suffixes.len(), "one formatted suffix per application ratio");
        let (f_cores, f_gfx) = Self::frequency_point(soc, workload_type, t);
        let tj = soc.tj_active;
        let hoisted: DomainTable<Option<HoistedDomainPower>> = DomainTable::from_fn(|kind| {
            if !workload_type.domain_powered(kind) {
                return None;
            }
            let frequency = Self::domain_frequency(soc, workload_type, kind, f_cores, f_gfx);
            Some(soc.domain(kind).hoist_active(frequency, tj))
        });
        if hoisted.values().all(Option::is_none) {
            return Err(PdnError::Scenario("no powered domain in scenario".into()));
        }
        let prefix = format!("{}-{}W-ar", workload_type, soc.tdp.get());
        Ok(ars
            .iter()
            .zip(ar_suffixes)
            .map(|(&ar, suffix)| {
                let loads = DomainTable::from_fn(|kind| match hoisted.get(kind) {
                    None => DomainLoad::gated(),
                    Some(h) => DomainLoad {
                        nominal_power: h.nominal_at(Self::domain_activity(workload_type, kind, ar)),
                        voltage: h.voltage(),
                        leakage_fraction: h.leakage_fraction(),
                        powered: true,
                    },
                });
                let mut name = String::with_capacity(prefix.len() + suffix.len());
                name.push_str(&prefix);
                name.push_str(suffix);
                Self {
                    name,
                    workload_type,
                    ar,
                    power_state: None,
                    tj,
                    tdp: soc.tdp,
                    loads,
                    virus: *virus,
                    virus_margin: TURBO_VIRUS_MARGIN,
                }
            })
            .collect())
    }

    /// Bisects the frequency scalar `t` so that the scenario's nominal
    /// power meets `budget` (clamping at the range ends).
    fn solve_t_for_budget(
        soc: &SocSpec,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
        budget: Watts,
    ) -> Result<f64, PdnError> {
        // Each probe needs only the per-domain loads — not the name or the
        // virus load sets a full `Scenario::active` would also construct.
        // The powered check and the canonical-order sum match
        // `Scenario::active` + `total_nominal_power` exactly, so the
        // bracketing decisions — and therefore the solved `t` — are
        // bit-identical.
        let nominal_at = |t: f64| -> Result<Watts, PdnError> {
            let (f_cores, f_gfx) = Self::frequency_point(soc, workload_type, t);
            let loads = Self::domain_loads_at(soc, workload_type, ar, f_cores, f_gfx);
            if loads.values().all(|l| !l.powered) {
                return Err(PdnError::Scenario("no powered domain in scenario".into()));
            }
            Ok(loads.values().filter(|l| l.powered).map(|l| l.nominal_power).sum())
        };
        // The nominal power is monotone in t; bisect t ∈ [0, 1].
        if nominal_at(1.0)? <= budget {
            return Ok(1.0);
        }
        if nominal_at(0.0)? >= budget {
            return Ok(0.0);
        }
        let mut lo = 0.0;
        let mut hi = 1.0;
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if nominal_at(mid)? > budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(lo)
    }

    /// Maps a scalar `t ∈ [0, 1]` to compute frequencies consistent with
    /// the workload type's budget split (§7.1: graphics workloads keep the
    /// cores at the bottom third of their range).
    pub fn frequency_point(soc: &SocSpec, workload_type: WorkloadType, t: f64) -> (Hertz, Hertz) {
        let t = t.clamp(0.0, 1.0);
        let cores = soc.domain(DomainKind::Core0);
        let gfx = soc.domain(DomainKind::Gfx);
        let lerp = |lo: Hertz, hi: Hertz, x: f64| Hertz::new(lo.get() + x * (hi.get() - lo.get()));
        match workload_type {
            WorkloadType::Graphics => {
                (lerp(cores.fmin, cores.fmax, t * 0.18), lerp(gfx.fmin, gfx.fmax, t))
            }
            WorkloadType::BatteryLife => (cores.fmin, gfx.fmin),
            _ => (lerp(cores.fmin, cores.fmax, t), gfx.fmin),
        }
    }

    /// Builds an idle-state scenario (Fig. 4j and the battery-life model).
    ///
    /// Domain powers come from the paper-calibrated
    /// [`PackageCState::nominal_domain_powers`]; voltages are the fixed
    /// SA/IO rail levels and the minimum compute voltage for C0MIN.
    pub fn idle(soc: &SocSpec, state: PackageCState) -> Self {
        Self::idle_staged(soc, state, Self::fmin_virus_loads(soc))
    }

    /// [`Scenario::idle`] with the fmin virus tables precomputed by the
    /// caller (they depend only on the SoC, so the staging cache's copy
    /// yields a bit-identical scenario).
    pub(crate) fn idle_staged(
        soc: &SocSpec,
        state: PackageCState,
        virus: [DomainTable<DomainLoad>; 2],
    ) -> Self {
        let powers = state.nominal_domain_powers();
        let loads = DomainTable::from_fn(|kind| {
            let cfg = soc.domain(kind);
            match powers.get(&kind) {
                Some(&p) => DomainLoad {
                    nominal_power: p,
                    voltage: cfg.vf.voltage_at(cfg.fmin),
                    leakage_fraction: cfg.power.guardband_leakage_fraction,
                    powered: true,
                },
                None => DomainLoad::gated(),
            }
        });
        Self {
            name: format!("{state}-{}W", soc.tdp.get()),
            workload_type: WorkloadType::BatteryLife,
            // Idle currents are steady: no power-virus headroom needed.
            ar: ApplicationRatio::POWER_VIRUS,
            power_state: Some(state),
            tj: pdn_proc::soc::TJ_BATTERY_LIFE,
            tdp: soc.tdp,
            loads,
            // The PMU re-setpoints the rails for the low-frequency idle
            // configuration, so the guardband covers the virus at the
            // *minimum* frequency, not the TDP design point, and turbo is
            // not reachable without first leaving the idle state.
            virus,
            virus_margin: 1.0,
        }
    }

    /// Row-at-a-time counterpart of [`Scenario::idle`]: builds the
    /// scenarios of one idle row (fixed SoC; package C-state varying). The
    /// fmin virus tables, the fmin V/f interpolation — state-independent,
    /// since every idle state runs its powered rails at the minimum
    /// setpoint — and the name suffix are hoisted out of the per-state
    /// loop; every returned scenario is bit-identical to
    /// [`Scenario::idle`]'s.
    pub fn idle_row(soc: &SocSpec, states: &[PackageCState]) -> Vec<Self> {
        Self::idle_row_staged(soc, states, Self::fmin_virus_loads(soc))
    }

    /// [`Scenario::idle_row`] with the fmin virus tables supplied by the
    /// caller (the batch cache takes them from the SoC's staging slot).
    pub(crate) fn idle_row_staged(
        soc: &SocSpec,
        states: &[PackageCState],
        virus: [DomainTable<DomainLoad>; 2],
    ) -> Vec<Self> {
        let fmin_voltage = DomainTable::from_fn(|kind| {
            let cfg = soc.domain(kind);
            cfg.vf.voltage_at(cfg.fmin)
        });
        let suffix = format!("-{}W", soc.tdp.get());
        states
            .iter()
            .map(|&state| {
                let powers = state.nominal_domain_powers();
                let loads = DomainTable::from_fn(|kind| match powers.get(&kind) {
                    Some(&p) => DomainLoad {
                        nominal_power: p,
                        voltage: *fmin_voltage.get(kind),
                        leakage_fraction: soc.domain(kind).power.guardband_leakage_fraction,
                        powered: true,
                    },
                    None => DomainLoad::gated(),
                });
                Self {
                    name: format!("{state}{suffix}"),
                    workload_type: WorkloadType::BatteryLife,
                    ar: ApplicationRatio::POWER_VIRUS,
                    power_state: Some(state),
                    tj: pdn_proc::soc::TJ_BATTERY_LIFE,
                    tdp: soc.tdp,
                    loads,
                    virus,
                    virus_margin: 1.0,
                }
            })
            .collect()
    }

    /// Per-domain power-virus loads at the minimum operating frequencies —
    /// the rail guardband basis for C0MIN/idle configurations, where DVFS
    /// has already lowered every setpoint. Served from the process-wide
    /// [`staging`] cache (same transparency contract as the TDP virus
    /// tables).
    pub(crate) fn fmin_virus_loads(soc: &SocSpec) -> [DomainTable<DomainLoad>; 2] {
        staging::for_soc(soc).fmin_virus(soc)
    }

    /// Uncached [`Scenario::fmin_virus_loads`] (no bisection — fmin is
    /// fixed). Called once per SoC by the staging cache.
    fn fmin_virus_loads_uncached(soc: &SocSpec) -> [DomainTable<DomainLoad>; 2] {
        [WorkloadType::MultiThread, WorkloadType::Graphics].map(|wl| {
            let cores = soc.domain(DomainKind::Core0);
            let gfx = soc.domain(DomainKind::Gfx);
            Self::domain_loads_at(soc, wl, ApplicationRatio::POWER_VIRUS, cores.fmin, gfx.fmin)
        })
    }

    /// Builds the power-virus scenario used to size Iccmax (§3.2): every
    /// role-appropriate domain at maximum frequency with AR = 1.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered.
    pub fn power_virus(soc: &SocSpec, workload_type: WorkloadType) -> Result<Self, PdnError> {
        let cores = soc.domain(DomainKind::Core0);
        let gfx = soc.domain(DomainKind::Gfx);
        Scenario::active(soc, workload_type, ApplicationRatio::POWER_VIRUS, cores.fmax, gfx.fmax)
    }

    /// Builds the TDP-limited power-virus scenario used to size off-chip
    /// VRs: AR = 1 at the highest frequency the TDP (plus a turbo margin)
    /// sustains. Platforms size their VRs for the part's own power class,
    /// not the architectural maximum.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if no domain ends up powered.
    pub fn power_virus_at_tdp(
        soc: &SocSpec,
        workload_type: WorkloadType,
    ) -> Result<Self, PdnError> {
        const TURBO_MARGIN: f64 = 1.25;
        Scenario::active_with_budget(
            soc,
            workload_type,
            ApplicationRatio::POWER_VIRUS,
            Watts::new(soc.tdp.get() * TURBO_MARGIN),
        )
    }

    /// The load of one domain.
    pub fn load(&self, kind: DomainKind) -> &DomainLoad {
        self.loads.get(kind)
    }

    /// Iterates `(kind, load)` pairs in canonical domain order.
    pub fn loads(&self) -> impl Iterator<Item = (DomainKind, &DomainLoad)> {
        self.loads.iter()
    }

    /// Total nominal power of all powered domains (the ETEE numerator).
    pub fn total_nominal_power(&self) -> Watts {
        self.loads.values().filter(|l| l.powered).map(|l| l.nominal_power).sum()
    }

    /// Whether this scenario is an idle/C-state scenario.
    pub fn is_idle(&self) -> bool {
        self.power_state.is_some_and(|s| !s.compute_powered())
    }

    /// A 64-bit fingerprint of every field the power-flow models read,
    /// hashing exact `f64` bit patterns (no rounding): two scenarios share
    /// a fingerprint only if they are numerically indistinguishable to
    /// every PDN. The derived `name` label is excluded. Used as the
    /// scenario half of the [`crate::memo`] cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.workload_type as u64);
        h.u64(self.ar.get().to_bits());
        h.u64(match self.power_state {
            None => u64::MAX,
            Some(s) => s as u64,
        });
        h.u64(self.tj.get().to_bits());
        h.u64(self.tdp.get().to_bits());
        let mut write_load = |l: &DomainLoad| {
            h.u64(l.nominal_power.get().to_bits());
            h.u64(l.voltage.get().to_bits());
            h.u64(l.leakage_fraction.get().to_bits());
            h.u64(u64::from(l.powered));
        };
        for l in self.loads.values() {
            write_load(l);
        }
        for set in &self.virus {
            for l in set.values() {
                write_load(l);
            }
        }
        h.u64(self.virus_margin.to_bits());
        h.finish()
    }

    /// The highest rail voltage among a set of powered domains — the level
    /// a shared rail must supply (LDO-mode V_IN, §2.3).
    pub fn max_voltage_among(&self, domains: &[DomainKind]) -> Option<Volts> {
        domains
            .iter()
            .filter_map(|k| {
                let l = self.load(*k);
                l.powered.then_some(l.voltage)
            })
            .max_by(|a, b| a.get().total_cmp(&b.get()))
    }
}

/// Process-wide cache of the expensive SoC-pure staging computations: the
/// fixed-TDP frequency solve (48-step bisection per workload type) and the
/// two virus load-set families. Callers hash the SoC once per use
/// ([`staging::for_soc`]) and read every value they need from the
/// returned slot. Every cached value is a pure function of
/// the SoC specification, keyed by an exact-bits fingerprint of every
/// field the constructors read, so a hit returns precisely the bits a
/// fresh computation would produce — the same transparency model the
/// [`crate::memo`] cache uses for evaluations. Without this cache a batch
/// sweep pays ≈ 300 µs of re-bisection per `evaluate` call and every
/// [`Scenario::active`] pays ≈ 28 µs of virus sizing.
pub(crate) mod staging {
    use super::{DomainLoad, PdnError, Scenario};
    use pdn_proc::{DomainTable, SocSpec};
    use pdn_units::ApplicationRatio;
    use pdn_workload::codec::Fnv1a;
    use pdn_workload::WorkloadType;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    /// Cached solver results for one SoC. Fields populate lazily on first
    /// use; only successful solves are stored (errors always recompute, so
    /// they propagate fresh).
    #[derive(Debug, Default)]
    pub(crate) struct SocStaging {
        /// Fixed-TDP frequency scalar, indexed by workload-type discriminant.
        solved_t: Mutex<[Option<f64>; 4]>,
        tdp_virus: OnceLock<[DomainTable<DomainLoad>; 2]>,
        fmin_virus: OnceLock<[DomainTable<DomainLoad>; 2]>,
    }

    impl SocStaging {
        /// The frequency scalar of the
        /// [`Scenario::active_fixed_tdp_frequency`] design point: the AR = 1
        /// power virus fills the TDP. AR-independent, so one bisection
        /// serves every AR of the (SoC, workload type) pair.
        pub(crate) fn solved_t(
            &self,
            soc: &SocSpec,
            workload_type: WorkloadType,
        ) -> Result<f64, PdnError> {
            let idx = workload_type as usize;
            if let Some(t) = self.solved_t.lock().expect("staging mutex poisoned")[idx] {
                return Ok(t);
            }
            let t = Scenario::solve_t_for_budget(
                soc,
                workload_type,
                ApplicationRatio::POWER_VIRUS,
                soc.tdp,
            )?;
            self.solved_t.lock().expect("staging mutex poisoned")[idx] = Some(t);
            Ok(t)
        }

        /// The TDP virus tables. Their MultiThread and Graphics scalars are
        /// [`SocStaging::solved_t`]'s: the same bisection, budget and
        /// clamps, so the two solves are shared rather than repeated.
        pub(crate) fn tdp_virus(&self, soc: &SocSpec) -> [DomainTable<DomainLoad>; 2] {
            *self.tdp_virus.get_or_init(|| {
                [WorkloadType::MultiThread, WorkloadType::Graphics].map(|wl| {
                    let t = self.solved_t(soc, wl).expect("virus workload types power a domain");
                    let (f_cores, f_gfx) = Scenario::frequency_point(soc, wl, t);
                    Scenario::domain_loads_at(
                        soc,
                        wl,
                        ApplicationRatio::POWER_VIRUS,
                        f_cores,
                        f_gfx,
                    )
                })
            })
        }

        pub(crate) fn fmin_virus(&self, soc: &SocSpec) -> [DomainTable<DomainLoad>; 2] {
            *self.fmin_virus.get_or_init(|| Scenario::fmin_virus_loads_uncached(soc))
        }
    }

    /// Bound on distinct SoCs tracked at once; past it the registry is
    /// cleared wholesale (every entry is recomputable, so eviction only
    /// costs time, never correctness).
    const CAP: usize = 512;

    fn registry() -> &'static Mutex<HashMap<u64, Arc<SocStaging>>> {
        static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<SocStaging>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// The staging slot for `soc`, creating it on first sight.
    pub(crate) fn for_soc(soc: &SocSpec) -> Arc<SocStaging> {
        let key = soc_fingerprint(soc);
        let mut map = registry().lock().expect("staging registry poisoned");
        if map.len() >= CAP && !map.contains_key(&key) {
            map.clear();
        }
        map.entry(key).or_default().clone()
    }

    /// Exact-bits fingerprint of every SoC field the scenario constructors
    /// read (TDP, active junction temperature, and per domain: frequency
    /// limits, the full power model, and the V/f knot table). The derived
    /// `name` and the reporting-only process node are excluded — no solver
    /// reads them.
    fn soc_fingerprint(soc: &SocSpec) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(soc.tdp.get().to_bits());
        h.u64(soc.tj_active.get().to_bits());
        for (kind, cfg) in soc.domains() {
            h.u64(kind as u64);
            h.u64(cfg.fmin.get().to_bits());
            h.u64(cfg.fmax.get().to_bits());
            let p = &cfg.power;
            h.u64(p.ceff.to_bits());
            h.u64(p.leak_ref.get().to_bits());
            h.u64(p.vref.get().to_bits());
            h.u64(p.tref.get().to_bits());
            h.u64(p.leak_voltage_exp.to_bits());
            h.u64(p.leak_temp_coeff.to_bits());
            h.u64(p.guardband_leakage_fraction.get().to_bits());
            h.u64(p.clock_fraction.to_bits());
            for (f, v) in cfg.vf.points() {
                h.u64(f.get().to_bits());
                h.u64(v.get().to_bits());
            }
            // Knot-list terminator: keeps differently shaped curves from
            // aliasing under concatenation.
            h.u64(u64::MAX);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn single_thread_gates_core1_and_gfx() {
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active(
            &soc,
            WorkloadType::SingleThread,
            ar(0.6),
            Hertz::from_gigahertz(2.0),
            Hertz::from_gigahertz(0.1),
        )
        .unwrap();
        assert!(s.load(DomainKind::Core0).powered);
        assert!(!s.load(DomainKind::Core1).powered);
        assert!(!s.load(DomainKind::Gfx).powered);
        assert!(s.load(DomainKind::Sa).powered);
        assert_eq!(s.load(DomainKind::Core1).nominal_power, Watts::ZERO);
    }

    #[test]
    fn graphics_runs_llc_hotter_than_cores() {
        let soc = client_soc(Watts::new(25.0));
        let s = Scenario::active(
            &soc,
            WorkloadType::Graphics,
            ar(0.7),
            Hertz::from_gigahertz(1.0),
            Hertz::from_gigahertz(1.1),
        )
        .unwrap();
        let v_core = s.load(DomainKind::Core0).voltage;
        let v_llc = s.load(DomainKind::Llc).voltage;
        let v_gfx = s.load(DomainKind::Gfx).voltage;
        assert!(v_llc > v_core, "LLC {v_llc} should exceed cores {v_core}");
        assert!(v_gfx > v_core, "GFX {v_gfx} should exceed cores {v_core}");
    }

    #[test]
    fn budget_scenario_fills_the_nominal_budget() {
        let soc = client_soc(Watts::new(18.0));
        let p = ModelParams::paper_defaults();
        let s = Scenario::active_budget(&soc, WorkloadType::MultiThread, ar(0.6), &p).unwrap();
        let total = s.total_nominal_power().get();
        let budget = 18.0 * NOMINAL_BUDGET_FRACTION;
        assert!(
            (total - budget).abs() / budget < 0.01,
            "nominal {total} should track budget {budget}"
        );
    }

    #[test]
    fn low_tdp_budget_scenario_saturates_at_a_low_frequency() {
        let soc = client_soc(Watts::new(4.0));
        let p = ModelParams::paper_defaults();
        let s = Scenario::active_budget(&soc, WorkloadType::SingleThread, ar(0.6), &p).unwrap();
        // At 4 W the cores cannot be anywhere near fmax: their load voltage
        // must be near the bottom of the V/f curve.
        assert!(s.load(DomainKind::Core0).voltage.get() < 0.72);
    }

    #[test]
    fn idle_scenario_reproduces_cstate_powers() {
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::idle(&soc, PackageCState::C8);
        assert!(s.is_idle());
        assert!((s.total_nominal_power().get() - 0.13).abs() < 1e-9);
        assert!(!s.load(DomainKind::Core0).powered);
        assert!(s.load(DomainKind::Sa).powered);
    }

    #[test]
    fn c0min_scenario_keeps_compute_powered() {
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::idle(&soc, PackageCState::C0Min);
        assert!(!s.is_idle(), "C0MIN counts as active residency");
        assert!(s.load(DomainKind::Core0).powered);
        assert!((s.total_nominal_power().get() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn power_virus_has_ar_one_and_max_power() {
        let soc = client_soc(Watts::new(50.0));
        let pv = Scenario::power_virus(&soc, WorkloadType::MultiThread).unwrap();
        assert_eq!(pv.ar, ApplicationRatio::POWER_VIRUS);
        let budget = Scenario::active_budget(
            &soc,
            WorkloadType::MultiThread,
            ar(0.6),
            &ModelParams::paper_defaults(),
        )
        .unwrap();
        assert!(pv.total_nominal_power() > budget.total_nominal_power());
    }

    #[test]
    fn max_voltage_among_skips_gated_domains() {
        let soc = client_soc(Watts::new(18.0));
        let s = Scenario::active(
            &soc,
            WorkloadType::SingleThread,
            ar(0.5),
            Hertz::from_gigahertz(3.0),
            Hertz::from_gigahertz(1.2),
        )
        .unwrap();
        let vmax = s.max_voltage_among(&[DomainKind::Core0, DomainKind::Gfx]).unwrap();
        // GFX is gated in single-thread, so the max is the core voltage.
        assert_eq!(vmax, s.load(DomainKind::Core0).voltage);
        assert!(s.max_voltage_among(&[DomainKind::Gfx]).is_none());
    }

    #[test]
    fn battery_life_frequency_point_is_minimum() {
        let soc = client_soc(Watts::new(18.0));
        let (fc, fg) = Scenario::frequency_point(&soc, WorkloadType::BatteryLife, 0.9);
        assert_eq!(fc, soc.domain(DomainKind::Core0).fmin);
        assert_eq!(fg, soc.domain(DomainKind::Gfx).fmin);
    }

    #[test]
    fn active_row_matches_per_point_constructor_bit_for_bit() {
        let types = [WorkloadType::SingleThread, WorkloadType::MultiThread, WorkloadType::Graphics];
        for tdp in [4.0, 18.0, 50.0] {
            let soc = client_soc(Watts::new(tdp));
            for wl in types {
                let slot = staging::for_soc(&soc);
                let (t, virus) = (slot.solved_t(&soc, wl).unwrap(), slot.tdp_virus(&soc));
                let ars: Vec<_> = (1..=9).map(|i| ar(f64::from(i) * 0.1)).collect();
                let suffixes: Vec<_> = ars.iter().map(|&a| Scenario::ar_suffix(a)).collect();
                let row =
                    Scenario::active_fixed_tdp_row_staged(&soc, wl, &ars, &suffixes, t, &virus)
                        .unwrap();
                assert_eq!(row.len(), ars.len());
                assert_eq!(row, Scenario::active_fixed_tdp_row(&soc, wl, &ars).unwrap());
                for (got, &a) in row.iter().zip(&ars) {
                    let point = Scenario::active_fixed_tdp_frequency(&soc, wl, a).unwrap();
                    assert_eq!(*got, point, "{wl} tdp={tdp} ar={a}");
                    assert_eq!(got.fingerprint(), point.fingerprint());
                }
            }
        }
    }

    #[test]
    fn idle_row_matches_per_point_constructor_bit_for_bit() {
        let soc = client_soc(Watts::new(25.0));
        let virus = Scenario::fmin_virus_loads(&soc);
        let row = Scenario::idle_row(&soc, &PackageCState::ALL);
        assert_eq!(row.len(), PackageCState::ALL.len());
        for (got, &state) in row.iter().zip(PackageCState::ALL.iter()) {
            assert_eq!(*got, Scenario::idle_staged(&soc, state, virus));
            assert_eq!(*got, Scenario::idle(&soc, state));
            assert_eq!(got.fingerprint(), Scenario::idle(&soc, state).fingerprint());
        }
    }

    /// Exact bits of a pair of virus tables.
    fn virus_bits(virus: &[DomainTable<DomainLoad>; 2]) -> Vec<u64> {
        let load = |l: &DomainLoad| {
            let powered = f64::from(u8::from(l.powered));
            [l.nominal_power.get(), l.voltage.get(), l.leakage_fraction.get(), powered]
                .map(f64::to_bits)
        };
        virus.iter().flat_map(|set| set.values().flat_map(load)).collect()
    }

    /// The TDP virus scalars and tables from first principles: the AR = 1
    /// bisection at the TDP, then the loads at that frequency point.
    fn tdp_virus_oracle(soc: &SocSpec) -> ([f64; 2], [DomainTable<DomainLoad>; 2]) {
        let wls = [WorkloadType::MultiThread, WorkloadType::Graphics];
        let virus = ApplicationRatio::POWER_VIRUS;
        let ts = wls.map(|wl| Scenario::solve_t_for_budget(soc, wl, virus, soc.tdp).unwrap());
        let tables = [0, 1].map(|i| {
            let (f_cores, f_gfx) = Scenario::frequency_point(soc, wls[i], ts[i]);
            Scenario::domain_loads_at(soc, wls[i], virus, f_cores, f_gfx)
        });
        (ts, tables)
    }

    #[test]
    fn staging_cache_is_bit_transparent() {
        use pdn_proc::ClientSocBuilder;
        // 2 W clamps both virus solves to t = 0, 3 W only the MultiThread
        // one, and 50 W both to t = 1; the leakage-binned part moves the
        // bisected scalar itself.
        let mut socs: Vec<SocSpec> =
            [2.0, 3.0, 4.0, 18.0, 50.0].map(|tdp| client_soc(Watts::new(tdp))).into();
        socs.push(ClientSocBuilder::new(Watts::new(15.0)).leakage_scale(1.07).build());
        let mut clamps = (false, false);
        for soc in &socs {
            let (ts, oracle) = tdp_virus_oracle(soc);
            clamps = (clamps.0 || ts.contains(&0.0), clamps.1 || ts.contains(&1.0));
            // Cold or warm, the slot serves the oracle's exact bits.
            let slot = staging::for_soc(soc);
            assert_eq!(virus_bits(&slot.tdp_virus(soc)), virus_bits(&oracle), "{}", soc.tdp);
            for (wl, t) in [WorkloadType::MultiThread, WorkloadType::Graphics].into_iter().zip(ts) {
                assert_eq!(slot.solved_t(soc, wl).unwrap().to_bits(), t.to_bits(), "{wl}");
            }
            assert_eq!(
                virus_bits(&Scenario::fmin_virus_loads(soc)),
                virus_bits(&Scenario::fmin_virus_loads_uncached(soc))
            );
        }
        assert_eq!(clamps, (true, true), "both range-end clamps must be exercised");
    }

    #[test]
    fn staging_cache_distinguishes_socs() {
        use pdn_proc::ClientSocBuilder;
        // Same TDP, different leakage bin: the exact-bits fingerprint must
        // keep their cached virus tables apart.
        let base = client_soc(Watts::new(15.0));
        let binned = ClientSocBuilder::new(Watts::new(15.0)).leakage_scale(1.07).build();
        let cached = |soc: &SocSpec| virus_bits(&staging::for_soc(soc).tdp_virus(soc));
        assert_ne!(cached(&base), cached(&binned));
        for soc in [&base, &binned] {
            assert_eq!(cached(soc), virus_bits(&tdp_virus_oracle(soc).1));
        }
    }
}
