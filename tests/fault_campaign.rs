//! Integration sweep of the fault-injection harness: seeds × fault mixes
//! over a mode-toggling trace, asserting the safety invariants the
//! FlexWatts degradation contract promises — no interval above the trip
//! current, conserved energy/time ledgers, internally consistent fault
//! accounting — and bit-identical reports for the same seed and plan.

use flexwatts::{FaultCounts, FaultMix, FaultPlan, FlexWattsRuntime, ModePredictor, RuntimeConfig};
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Seconds, Watts};
use pdn_workload::{Trace, TraceInterval, WorkloadType};
use pdnspot::batch::Workers;
use pdnspot::ModelParams;

fn runtime(tdp: f64) -> FlexWattsRuntime {
    let predictor = ModePredictor::train(
        &ModelParams::paper_defaults(),
        &[4.0, 10.0, 18.0, 25.0, 50.0],
        &[0.4, 0.6, 0.8],
    )
    .unwrap();
    FlexWattsRuntime::new(
        client_soc(Watts::new(tdp)),
        ModelParams::paper_defaults(),
        predictor,
        RuntimeConfig::default(),
    )
}

/// A 36 W burst/idle trace: the bursts prefer IVR-Mode and the idle
/// phases prefer LDO-Mode, so every fault class (including switch-flow
/// faults) meets live state.
fn toggling_trace() -> Trace {
    let mut intervals = Vec::new();
    for _ in 0..4 {
        intervals.push(TraceInterval::active(
            Seconds::from_millis(30.0),
            WorkloadType::MultiThread,
            ApplicationRatio::new(0.8).unwrap(),
        ));
        intervals
            .push(TraceInterval::idle(Seconds::from_millis(30.0), pdn_proc::PackageCState::C0Min));
    }
    Trace::new("toggling", intervals)
}

fn mixes() -> Vec<(&'static str, FaultMix)> {
    vec![
        ("none", FaultMix::none()),
        ("sensors", FaultMix::sensors()),
        ("electrical", FaultMix::electrical()),
        ("switch-flow", FaultMix::switch_flow()),
        ("firmware", FaultMix::firmware()),
        ("chaos", FaultMix::chaos()),
    ]
}

#[test]
fn seeds_by_mixes_sweep_holds_every_invariant() {
    let trace = toggling_trace();
    let rt = runtime(36.0);
    let mut total_injected = 0u64;
    for seed in [0xF1E2u64, 1, 2] {
        for (name, mix) in mixes() {
            let plan = FaultPlan::generate(seed, trace.intervals().len(), &mix);
            let report = rt
                .run_faulted(&trace, &plan)
                .unwrap_or_else(|e| panic!("seed {seed} mix {name}: {e}"));
            assert!(
                report.invariants.holds(),
                "seed {seed} mix {name} violated an invariant: {}",
                report.invariants
            );
            assert!(
                report.counts.consistent(),
                "seed {seed} mix {name} fault ledger inconsistent: {:?}",
                report.counts
            );
            assert!(
                report.runtime.energy_efficiency_vs_oracle() <= 1.0 + 1e-12,
                "seed {seed} mix {name}: oracle must lower-bound energy"
            );
            assert!(
                report.runtime.total_time >= trace.total_duration(),
                "seed {seed} mix {name}: faults only ever add time"
            );
            if name == "none" {
                assert_eq!(report.counts, FaultCounts::default(), "empty mix must stay clean");
            }
            total_injected += report.counts.injected;
        }
    }
    assert!(total_injected > 0, "the sweep must actually exercise faults");
}

#[test]
fn same_seed_and_plan_reports_are_bit_identical() {
    let trace = toggling_trace();
    let plan = FaultPlan::generate(7, trace.intervals().len(), &FaultMix::chaos());
    let a = runtime(36.0).run_faulted(&trace, &plan).unwrap();
    let b = runtime(36.0).run_faulted(&trace, &plan).unwrap();
    assert_eq!(a, b, "identical seed + plan must reproduce bitwise");
    assert_eq!(a.runtime.energy_joules.to_bits(), b.runtime.energy_joules.to_bits());
    // The worker pool only fans out pure work; injection replays
    // serially, so the report is worker-count independent too.
    let serial = runtime(36.0).run_faulted_with(&trace, &plan, Workers::Serial).unwrap();
    let pooled = runtime(36.0).run_faulted_with(&trace, &plan, Workers::Fixed(3)).unwrap();
    assert_eq!(serial, pooled);
    assert_eq!(a, serial);
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let trace = toggling_trace();
    let rt = runtime(36.0);
    let a = rt
        .run_faulted(&trace, &FaultPlan::generate(1, trace.intervals().len(), &FaultMix::chaos()))
        .unwrap();
    let b = rt
        .run_faulted(&trace, &FaultPlan::generate(2, trace.intervals().len(), &FaultMix::chaos()))
        .unwrap();
    assert_ne!(a, b, "different seeds must drive different campaigns");
}
