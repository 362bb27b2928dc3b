//! The §3.3 performance model.
//!
//! A client processor operates at the highest compute frequency whose
//! *total platform power* — nominal load power divided by the PDN's ETEE —
//! fits inside the TDP. A PDN with a higher ETEE therefore frees budget
//! that the power manager reallocates into clock frequency, and a
//! workload's performance gain is its performance scalability times the
//! relative frequency gain (§3.3, footnote 5).
//!
//! This module provides:
//!
//! * `solve_operating_point` — the TDP-constrained frequency solver;
//! * [`relative_performance`] — a workload's performance under one PDN
//!   normalised to a baseline PDN (the Fig. 7/8 y-axis);
//! * [`frequency_sensitivity`] — the extra budget needed for a 1 % clock
//!   increase (Fig. 2a);
//! * [`budget_breakdown`] — the share of the TDP going to SA+IO, CPU, LLC
//!   and PDN loss (Fig. 2b);
//! * [`battery_life_average_power`] — residency-weighted average power of
//!   a battery-life workload (Fig. 8c).

use crate::error::PdnError;
use crate::etee::PdnEvaluation;
use crate::scenario::Scenario;
use crate::topology::Pdn;
use pdn_proc::{DomainKind, SocSpec};
use pdn_units::{ApplicationRatio, Hertz, Ratio, Watts};
use pdn_workload::{BatteryLifeWorkload, WorkloadType};

/// A solved TDP-constrained operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The frequency scalar `t ∈ [0, 1]` along the workload's frequency
    /// trajectory.
    pub(crate) t: f64,
    /// Core clock frequency.
    pub(crate) f_cores: Hertz,
    /// Graphics clock frequency.
    pub(crate) f_gfx: Hertz,
    /// The scenario at the operating point.
    pub(crate) scenario: Scenario,
    /// The PDN evaluation at the operating point.
    pub(crate) evaluation: PdnEvaluation,
}

impl OperatingPoint {
    /// The frequency that matters for the workload's performance: graphics
    /// clock for graphics workloads, core clock otherwise.
    pub(crate) fn performance_frequency(&self, workload_type: WorkloadType) -> Hertz {
        match workload_type {
            WorkloadType::Graphics => self.f_gfx,
            _ => self.f_cores,
        }
    }
}

/// Finds the highest compute frequency at which the platform input power
/// (through `pdn`) fits within the SoC's TDP, for a workload of the given
/// type and AR.
///
/// # Errors
///
/// Returns [`PdnError`] if the PDN cannot evaluate the scenario even at
/// minimum frequency.
pub(crate) fn solve_operating_point(
    soc: &SocSpec,
    pdn: &dyn Pdn,
    workload_type: WorkloadType,
    ar: ApplicationRatio,
) -> Result<OperatingPoint, PdnError> {
    let build = |t: f64| -> Result<(Scenario, PdnEvaluation), PdnError> {
        let (f_cores, f_gfx) = Scenario::frequency_point(soc, workload_type, t);
        let scenario = Scenario::active(soc, workload_type, ar, f_cores, f_gfx)?;
        let eval = pdn.evaluate(&scenario)?;
        Ok((scenario, eval))
    };
    let fits = |t: f64| -> Result<bool, PdnError> { Ok(build(t)?.1.input_power <= soc.tdp) };

    let t = if fits(1.0)? {
        1.0
    } else if !fits(0.0)? {
        0.0 // thermally over-subscribed even at fmin; run at the floor
    } else {
        let (mut lo, mut hi) = (0.0, 1.0);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if fits(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let (f_cores, f_gfx) = Scenario::frequency_point(soc, workload_type, t);
    let (scenario, evaluation) = build(t)?;
    Ok(OperatingPoint { t, f_cores, f_gfx, scenario, evaluation })
}

/// Performance of a workload under `pdn` relative to the same workload
/// under `baseline`, as plotted in Figs. 7 and 8 (baseline = IVR = 1.0).
///
/// This follows the paper's §3.3 methodology exactly: solve the baseline
/// PDN's TDP-limited operating point, evaluate *the same scenario* through
/// the candidate PDN, and reallocate the spared PDN loss into clock
/// frequency at the baseline point's marginal cost (the Fig. 2a curve):
/// "the additional 250 mW saved by using PDN2 could be allocated to
/// increasing the CPU cores' clock frequency by 28 %". The frequency gain
/// is clamped at the architectural maximum, and the result is
/// `1 + scalability · Δf/f`.
///
/// # Errors
///
/// Propagates solver errors from either PDN.
pub fn relative_performance(
    soc: &SocSpec,
    pdn: &dyn Pdn,
    baseline: &dyn Pdn,
    workload_type: WorkloadType,
    ar: ApplicationRatio,
    perf_scalability: Ratio,
) -> Result<f64, PdnError> {
    let base = solve_operating_point(soc, baseline, workload_type, ar)?;
    let ours = pdn.evaluate(&base.scenario)?;
    // Budget spared (or owed) by the candidate PDN at the same load.
    let saved = base.evaluation.input_power - ours.input_power;
    // Marginal cost of +1 % clock at the baseline operating point.
    let per_percent = frequency_sensitivity(soc, baseline, workload_type, ar)?;
    if per_percent.get() <= 0.0 {
        return Ok(1.0);
    }
    let mut delta_pct = saved.get() / per_percent.get();
    // The clock cannot exceed the architectural maximum.
    let f_base = base.performance_frequency(workload_type);
    let f_max = match workload_type {
        WorkloadType::Graphics => soc.domain(DomainKind::Gfx).fmax,
        _ => soc.domain(DomainKind::Core0).fmax,
    };
    let headroom_pct = ((f_max.get() / f_base.get()) - 1.0) * 100.0;
    delta_pct = delta_pct.clamp(-50.0, headroom_pct.max(0.0));
    Ok(1.0 + perf_scalability.get() * delta_pct / 100.0)
}

/// The additional power budget required to raise the performance-relevant
/// clock by 1 % from the solved operating point (Fig. 2a's y-axis).
///
/// # Errors
///
/// Propagates solver/evaluation errors.
pub fn frequency_sensitivity(
    soc: &SocSpec,
    pdn: &dyn Pdn,
    workload_type: WorkloadType,
    ar: ApplicationRatio,
) -> Result<Watts, PdnError> {
    let op = solve_operating_point(soc, pdn, workload_type, ar)?;
    // Step the performance clock by 1 %. A part already at its maximum
    // frequency is probed downward instead (the derivative is the same to
    // first order and the architectural clamp would otherwise hide it).
    let step = if op.t >= 1.0 { 1.0 / 1.01 } else { 1.01 };
    let (f_cores, f_gfx) = match workload_type {
        WorkloadType::Graphics => (op.f_cores, op.f_gfx * step),
        _ => (op.f_cores * step, op.f_gfx),
    };
    let bumped = Scenario::active(soc, workload_type, ar, f_cores, f_gfx)?;
    let bumped_eval = pdn.evaluate(&bumped)?;
    Ok((bumped_eval.input_power - op.evaluation.input_power).abs())
}

/// One row of the Fig. 2b power-budget breakdown: shares of the platform
/// input power at the TDP-limited operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetBreakdown {
    /// Share going to the SA and IO domains.
    pub sa_io: Ratio,
    /// Share going to the CPU cores.
    pub cpu: Ratio,
    /// Share going to the LLC (plus graphics when powered).
    pub llc_gfx: Ratio,
    /// Share lost in the PDN.
    pub pdn_loss: Ratio,
}

/// Computes the Fig. 2b budget breakdown for a CPU-intensive workload at
/// the TDP operating point of `pdn`.
///
/// # Errors
///
/// Propagates solver errors.
pub fn budget_breakdown(
    soc: &SocSpec,
    pdn: &dyn Pdn,
    ar: ApplicationRatio,
) -> Result<BudgetBreakdown, PdnError> {
    let op = solve_operating_point(soc, pdn, WorkloadType::MultiThread, ar)?;
    let input = op.evaluation.input_power.get();
    let share = |w: Watts| Ratio::new((w.get() / input).clamp(0.0, 1.0)).expect("share in [0,1]");
    let load = |k: DomainKind| op.scenario.load(k).nominal_power;
    let cpu = load(DomainKind::Core0) + load(DomainKind::Core1);
    let llc_gfx = load(DomainKind::Llc) + load(DomainKind::Gfx);
    let sa_io = load(DomainKind::Sa) + load(DomainKind::Io);
    Ok(BudgetBreakdown {
        sa_io: share(sa_io),
        cpu: share(cpu),
        llc_gfx: share(llc_gfx),
        pdn_loss: share(op.evaluation.total_loss()),
    })
}

/// Residency-weighted average platform power of a battery-life workload
/// (the §5 video-playback formula:
/// `Σ P_state · R_state / η_state`), used for Fig. 8c.
///
/// # Errors
///
/// Propagates evaluation errors from the idle-state scenarios.
pub fn battery_life_average_power(
    soc: &SocSpec,
    pdn: &dyn Pdn,
    workload: BatteryLifeWorkload,
) -> Result<Watts, PdnError> {
    let mut total = Watts::ZERO;
    for (state, residency) in workload.residency().entries() {
        if residency.get() <= 0.0 {
            continue;
        }
        let scenario = Scenario::idle(soc, state);
        let eval = pdn.evaluate(&scenario)?;
        total += eval.input_power * residency.get();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::topology::{IvrPdn, LdoPdn, MbvrPdn};
    use pdn_proc::client_soc;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn operating_point_respects_tdp() {
        let soc = client_soc(Watts::new(10.0));
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let op = solve_operating_point(&soc, &pdn, WorkloadType::MultiThread, ar(0.7)).unwrap();
        assert!(
            op.evaluation.input_power.get() <= 10.0 + 1e-6,
            "input {} must fit the TDP",
            op.evaluation.input_power
        );
        // The solver should leave almost no budget unused (unless clamped).
        if op.t < 1.0 {
            assert!(op.evaluation.input_power.get() > 9.9);
        }
    }

    #[test]
    fn better_pdn_buys_higher_frequency_at_4w() {
        let soc = client_soc(Watts::new(4.0));
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params.clone());
        let op_ivr =
            solve_operating_point(&soc, &ivr, WorkloadType::SingleThread, ar(0.6)).unwrap();
        let op_mbvr =
            solve_operating_point(&soc, &mbvr, WorkloadType::SingleThread, ar(0.6)).unwrap();
        assert!(
            op_mbvr.f_cores > op_ivr.f_cores,
            "MBVR's higher ETEE must buy clock: {} vs {}",
            op_mbvr.f_cores.gigahertz(),
            op_ivr.f_cores.gigahertz()
        );
    }

    #[test]
    fn relative_performance_gain_matches_fig7_scale_at_4w() {
        // Fig. 7 / §7.1: MBVR and LDO average > 22 % over IVR at 4 W for
        // highly scalable benchmarks.
        let soc = client_soc(Watts::new(4.0));
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let ldo = LdoPdn::new(params.clone());
        let perf = relative_performance(
            &soc,
            &ldo,
            &ivr,
            WorkloadType::SingleThread,
            ar(0.7),
            Ratio::new(1.0).unwrap(),
        )
        .unwrap();
        assert!(
            perf > 1.10 && perf < 1.45,
            "LDO at 4 W should gain ≈ 20–30 % over IVR for a fully scalable workload: {perf:.3}"
        );
    }

    #[test]
    fn scalability_damps_the_gain() {
        let soc = client_soc(Watts::new(4.0));
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params.clone());
        let strong = relative_performance(
            &soc,
            &mbvr,
            &ivr,
            WorkloadType::SingleThread,
            ar(0.6),
            Ratio::new(1.0).unwrap(),
        )
        .unwrap();
        let weak = relative_performance(
            &soc,
            &mbvr,
            &ivr,
            WorkloadType::SingleThread,
            ar(0.6),
            Ratio::new(0.4).unwrap(),
        )
        .unwrap();
        assert!(strong > weak, "{strong:.3} vs {weak:.3}");
        assert!(weak > 1.0);
        // Exactly proportional damping of the gain.
        assert!(((strong - 1.0) * 0.4 - (weak - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn frequency_sensitivity_grows_with_tdp() {
        // Fig. 2a: a 4 W part needs ≈ 10 mW per 1 % clock; a 50 W part
        // needs hundreds of mW (log scale from 1 to 1000 mW).
        let params = ModelParams::paper_defaults();
        let pdn = IvrPdn::new(params);
        let small = frequency_sensitivity(
            &client_soc(Watts::new(4.0)),
            &pdn,
            WorkloadType::MultiThread,
            ar(0.7),
        )
        .unwrap();
        let large = frequency_sensitivity(
            &client_soc(Watts::new(50.0)),
            &pdn,
            WorkloadType::MultiThread,
            ar(0.7),
        )
        .unwrap();
        assert!(small.milliwatts() > 1.0 && small.milliwatts() < 60.0, "4 W sensitivity = {small}");
        assert!(
            large.milliwatts() > 100.0 && large.milliwatts() < 1500.0,
            "50 W sensitivity = {large}"
        );
        assert!(large.get() > 5.0 * small.get());
    }

    #[test]
    fn budget_breakdown_matches_fig2b_shape() {
        let params = ModelParams::paper_defaults();
        // Fig. 2b uses the worst-loss PDN per TDP: IVR at 4 W.
        let ivr = IvrPdn::new(params.clone());
        let low = budget_breakdown(&client_soc(Watts::new(4.0)), &ivr, ar(0.7)).unwrap();
        let mbvr = MbvrPdn::new(params);
        let high = budget_breakdown(&client_soc(Watts::new(50.0)), &mbvr, ar(0.7)).unwrap();
        // At 4 W a small share goes to the CPU; at 50 W about half.
        assert!(low.cpu.get() < 0.35, "4 W CPU share {:.2}", low.cpu.get());
        assert!(high.cpu.get() > 0.38, "50 W CPU share {:.2}", high.cpu.get());
        assert!(high.cpu > low.cpu);
        // SA+IO share shrinks as TDP grows (nearly constant absolute power).
        assert!(low.sa_io > high.sa_io);
        // PDN loss is a noticeable chunk everywhere (≥ 15 %).
        assert!(low.pdn_loss.get() > 0.15 && high.pdn_loss.get() > 0.15);
        let sum =
            |b: &BudgetBreakdown| b.sa_io.get() + b.cpu.get() + b.llc_gfx.get() + b.pdn_loss.get();
        assert!((sum(&low) - 1.0).abs() < 0.02);
        assert!((sum(&high) - 1.0).abs() < 0.02);
    }

    #[test]
    fn battery_life_power_is_tdp_insensitive_and_pdn_sensitive() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let wl = BatteryLifeWorkload::VideoPlayback;
        let at_18 = battery_life_average_power(&client_soc(Watts::new(18.0)), &ivr, wl).unwrap();
        let at_50 = battery_life_average_power(&client_soc(Watts::new(50.0)), &ivr, wl).unwrap();
        // §7.1: nearly the same average power regardless of TDP.
        assert!((at_18.get() - at_50.get()).abs() / at_18.get() < 0.05);
        // §5 Observation 3: MBVR ≈ 12 % below IVR for video playback.
        let m = battery_life_average_power(&client_soc(Watts::new(18.0)), &mbvr, wl).unwrap();
        let gap = 1.0 - m.get() / at_18.get();
        assert!((0.08..=0.17).contains(&gap), "video playback gap {gap:.3}");
    }
}
