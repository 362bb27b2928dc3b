//! The fault-campaign artefact: a fixed-seed sweep of the
//! [`flexwatts::faults`] harness across fault mixes, rendered as the
//! robustness evidence the paper's §6 safety claims rest on — the
//! maximum-current protection keeps every interval below the trip
//! current, and the degradation contract (retry, fallback, watchdog)
//! absorbs what the guards detect.
//!
//! Everything is seeded, so the output is byte-identical across runs and
//! machines: CI regenerates it and diffs against `results/faults.txt`.

use crate::render::TextTable;
use flexwatts::{
    DegradationPolicy, FaultClass, FaultMix, FaultPlan, FlexWattsRuntime, ModePredictor,
    RuntimeConfig,
};
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Seconds, Watts};
use pdn_workload::{Trace, TraceInterval, WorkloadType};
use pdnspot::{ModelParams, PdnError};

/// The artefact's fixed campaign seed (CI's smoke job depends on it).
pub(crate) const CAMPAIGN_SEED: u64 = 0xF1E2;

/// The fault mixes the campaign sweeps, in render order.
pub(crate) fn campaign_mixes() -> Vec<(&'static str, FaultMix)> {
    vec![
        ("none", FaultMix::none()),
        ("sensors", FaultMix::sensors()),
        ("electrical", FaultMix::electrical()),
        ("switch-flow", FaultMix::switch_flow()),
        ("firmware", FaultMix::firmware()),
        ("chaos", FaultMix::chaos()),
    ]
}

fn campaign_runtime() -> Result<FlexWattsRuntime, PdnError> {
    let predictor = ModePredictor::train(
        &ModelParams::paper_defaults(),
        &[4.0, 10.0, 18.0, 25.0, 50.0],
        &[0.4, 0.6, 0.8],
    )?;
    Ok(FlexWattsRuntime::new(
        client_soc(Watts::new(36.0)),
        ModelParams::paper_defaults(),
        predictor,
        RuntimeConfig::default(),
    ))
}

/// A 36 W burst/idle trace whose bursts prefer IVR-Mode and whose idle
/// phases prefer LDO-Mode, so every fault class meets live state.
fn campaign_trace() -> Trace {
    let mut intervals = Vec::new();
    for _ in 0..6 {
        intervals.push(TraceInterval::active(
            Seconds::from_millis(30.0),
            WorkloadType::MultiThread,
            ApplicationRatio::new(0.8).expect("static AR"),
        ));
        intervals
            .push(TraceInterval::idle(Seconds::from_millis(30.0), pdn_proc::PackageCState::C0Min));
    }
    Trace::new("fault-campaign", intervals)
}

/// Runs the fixed-seed campaign across every mix and renders the
/// accounting plus the invariant verdicts.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn campaign_report() -> Result<String, PdnError> {
    let rt = campaign_runtime()?;
    let trace = campaign_trace();
    let policy = DegradationPolicy::default();

    let mut accounting = TextTable::new(
        format!("Fault campaign — seed {CAMPAIGN_SEED:#x}, 36 W burst/idle trace"),
        &[
            "mix",
            "armed",
            "injected",
            "detected",
            "recovered",
            "degraded",
            "silent",
            "dormant",
            "overrides",
            "sw fail/retry",
            "eff vs oracle",
        ],
    );
    let mut invariants = TextTable::new(
        "Safety invariants (checked every execution chunk)",
        &["mix", "over-trip chunks", "max LDO V_IN", "trip", "energy err", "time err", "verdict"],
    );
    let mut by_class = TextTable::new(
        "Injected events by class",
        &["mix", "sensor", "telemetry", "vin-droop", "switch-flow", "firmware", "watchdog"],
    );

    for (name, mix) in campaign_mixes() {
        let plan = FaultPlan::generate(CAMPAIGN_SEED, trace.intervals().len(), &mix);
        let report = rt.run_faulted(&trace, &plan, &policy)?;
        let c = report.counts;
        accounting.row(vec![
            name.to_string(),
            c.armed.to_string(),
            c.injected.to_string(),
            c.detected.to_string(),
            c.recovered.to_string(),
            c.degraded.to_string(),
            c.silent.to_string(),
            c.dormant.to_string(),
            report.runtime.protection_overrides.to_string(),
            format!("{}/{}", report.runtime.switch_failures, report.runtime.switch_retries),
            format!("{:.4}", report.runtime.energy_efficiency_vs_oracle()),
        ]);
        let inv = report.invariants;
        invariants.row(vec![
            name.to_string(),
            inv.over_trip_chunks.to_string(),
            format!("{:.2} A", inv.max_ldo_vin_current.get()),
            format!("{:.2} A", inv.trip_current.get()),
            format!("{:.1e}", inv.energy_ledger_error),
            format!("{:.1e} s", inv.time_ledger_error),
            if inv.holds() && c.consistent() { "OK".into() } else { "VIOLATED".into() },
        ]);
        let mut row = vec![name.to_string()];
        for class in FaultClass::ALL {
            row.push(report.injected_by_class.get(&class).copied().unwrap_or(0).to_string());
        }
        row.push(if report.watchdog_latched { "latched".into() } else { "-".into() });
        by_class.row(row);
    }

    Ok(format!("{}\n{}\n{}", accounting.render(), invariants.render(), by_class.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_report_is_deterministic_and_clean() {
        let a = campaign_report().unwrap();
        let b = campaign_report().unwrap();
        assert_eq!(a, b, "fixed seed must render identically");
        assert!(!a.contains("VIOLATED"), "no invariant may be violated:\n{a}");
        assert!(a.contains("chaos"));
    }
}
