//! Property tests for the batch engine's determinism contract: the
//! work-stealing scheduler must produce bit-identical results for every
//! worker count, on the grids the figure binaries actually sweep.

use flexwatts::{FlexWattsAuto, FlexWattsPdn, PdnMode};
use pdn_bench::fig4::PANEL_TDPS;
use pdn_bench::suite::{five_pdns, ARS, TDPS};
use pdn_proc::PackageCState;
use pdn_units::ApplicationRatio;
use pdn_workload::WorkloadType;
use pdnspot::batch::{evaluate, evaluate_delta, BatchOutcome, ClientSoc};
use pdnspot::{
    EngineConfig, ModelParams, Pdn, PdnError, PdnEvaluation, Scenario, SweepGrid, Workers,
};
use proptest::prelude::*;

fn cfg(workers: Workers) -> EngineConfig {
    EngineConfig::builder().workers(workers).build().expect("worker-only config is valid")
}

fn fig4_grid() -> SweepGrid {
    SweepGrid::builder()
        .tdps(&PANEL_TDPS)
        .workload_types(&WorkloadType::ACTIVE_TYPES)
        .ars(&ARS)
        .idle_states(&PackageCState::ALL)
        .build()
        .unwrap()
}

fn fig8_grid() -> SweepGrid {
    SweepGrid::builder()
        .tdps(&TDPS)
        .workload_types(&[WorkloadType::MultiThread])
        .ars(&[0.56])
        .build()
        .unwrap()
}

/// Asserts every evaluation of `run` is bit-identical to `baseline`.
fn assert_bit_identical(baseline: &BatchOutcome, run: &BatchOutcome, label: &str) {
    assert_eq!(baseline.evaluations.len(), run.evaluations.len(), "{label}: length");
    for (a, b) in baseline.evaluations.iter().zip(&run.evaluations) {
        assert_eq!(a.pdn_idx, b.pdn_idx, "{label}: pdn order");
        assert_eq!(a.point, b.point, "{label}: lattice order");
        match (&a.result, &b.result) {
            (Ok(ea), Ok(eb)) => {
                assert_eq!(
                    ea.input_power.get().to_bits(),
                    eb.input_power.get().to_bits(),
                    "{label}: input power bits at {:?}",
                    a.point
                );
                assert_eq!(
                    ea.etee.get().to_bits(),
                    eb.etee.get().to_bits(),
                    "{label}: EtEE bits at {:?}",
                    a.point
                );
            }
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "{label}: errors"),
            _ => panic!("{label}: Ok/Err mismatch at {:?}", a.point),
        }
    }
}

/// The fixed worker counts the issue calls out: serial, small, odd, and
/// the machine's own pool.
#[test]
fn named_worker_counts_are_bit_identical_on_figure_grids() {
    let params = ModelParams::paper_defaults();
    let pdns_boxed = five_pdns(&params);
    let pdns: Vec<&dyn Pdn> = pdns_boxed.iter().map(Box::as_ref).collect();
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (grid, label) in [(fig4_grid(), "fig4"), (fig8_grid(), "fig8")] {
        let serial = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), None);
        assert_eq!(serial.stats.failed, 0, "{label}: clean baseline");
        for w in [1, 2, 7, ncpu] {
            let run = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Fixed(w)), None);
            assert_bit_identical(&serial, &run, &format!("{label} w={w}"));
        }
    }
}

/// Every number of an evaluation as raw bits, so equality means bit
/// identity.
fn evaluation_bits(e: &PdnEvaluation) -> Vec<u64> {
    let b = &e.breakdown;
    let mut bits: Vec<u64> = [
        e.nominal_power.get(),
        e.input_power.get(),
        e.etee.get(),
        b.vr_loss.get(),
        b.conduction_compute.get(),
        b.conduction_sa_io.get(),
        b.other.get(),
        e.chip_input_current.get(),
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect();
    for rail in &e.rails {
        bits.extend(
            [rail.voltage.get(), rail.current.get(), rail.input_power.get()].map(f64::to_bits),
        );
        bits.push(rail.efficiency.map_or(u64::MAX, |eff| eff.get().to_bits()));
    }
    bits
}

/// The per-point error under the batch engine's lattice-coordinate wrapper.
fn lattice_cause(e: PdnError) -> PdnError {
    match e {
        PdnError::Lattice { source, .. } => *source,
        other => other,
    }
}

/// A random sub-grid of the paper's axes: any non-empty TDP subset, any
/// workload-type subset, any AR subset, any idle-state subset — as long
/// as the grid has at least one point.
fn grid_strategy() -> impl Strategy<Value = SweepGrid> {
    let tdps = prop::sample::subsequence(TDPS.to_vec(), 1..=3);
    let wls = prop::sample::subsequence(WorkloadType::ACTIVE_TYPES.to_vec(), 0..=2);
    let ars = prop::sample::subsequence(ARS.to_vec(), 0..=3);
    let idles = prop::sample::subsequence(PackageCState::ALL.to_vec(), 0..=2);
    (tdps, wls, ars, idles).prop_filter_map("grid needs at least one point", |(t, w, a, s)| {
        SweepGrid::builder().tdps(&t).workload_types(&w).ars(&a).idle_states(&s).build().ok()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any worker count in 1..=16 reproduces the serial fig4 sweep
    /// bit-for-bit (two PDNs keep the case cheap enough to repeat).
    #[test]
    fn arbitrary_worker_counts_are_bit_identical(w in 1usize..17) {
        let params = ModelParams::paper_defaults();
        let ivr = pdnspot::IvrPdn::new(params.clone());
        let mbvr = pdnspot::MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = fig4_grid();
        let serial = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), None);
        let run = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Fixed(w)), None);
        assert_bit_identical(&serial, &run, &format!("fig4 w={w}"));
        prop_assert_eq!(run.stats.workers, w.min(serial.stats.evaluations));
    }

    /// The row-kernel batch path equals the scalar per-point path bit for
    /// bit on any grid shape (random row lengths along both the AR and
    /// idle-state axes) and any worker count, for every topology that
    /// overrides `Pdn::evaluate_row`: every result matches `Pdn::evaluate`
    /// on a scenario built by the unstaged per-point constructor, down to
    /// the error when there is one.
    #[test]
    fn row_kernels_match_scalar_per_point_on_random_grids(
        grid in grid_strategy(),
        w in 1usize..9,
    ) {
        let params = ModelParams::paper_defaults();
        let ivr = pdnspot::IvrPdn::new(params.clone());
        let mbvr = pdnspot::MbvrPdn::new(params.clone());
        let ldo = pdnspot::LdoPdn::new(params.clone());
        let iplus = pdnspot::IPlusMbvrPdn::new(params.clone());
        let fw_ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let fw_ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
        let fw_auto = FlexWattsAuto::new(params);
        let pdns: [&dyn Pdn; 7] = [&ivr, &mbvr, &ldo, &iplus, &fw_ivr, &fw_ldo, &fw_auto];
        let run = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Fixed(w)), None);
        prop_assert_eq!(run.stats.failed, 0);
        for eval in &run.evaluations {
            let soc = pdn_proc::client_soc(pdn_units::Watts::new(
                grid.tdps()[eval.point.tdp_idx()],
            ));
            let scenario = match eval.point {
                pdnspot::batch::LatticePoint::Active { wl_idx, ar_idx, .. } => {
                    Scenario::active_fixed_tdp_frequency(
                        &soc,
                        grid.workload_types()[wl_idx],
                        ApplicationRatio::new(grid.ars()[ar_idx]).unwrap(),
                    )
                    .unwrap()
                }
                pdnspot::batch::LatticePoint::Idle { state_idx, .. } => {
                    Scenario::idle(&soc, grid.idle_states()[state_idx])
                }
            };
            let scalar = pdns[eval.pdn_idx].evaluate(&scenario);
            let row = eval.result.clone().map_err(lattice_cause);
            prop_assert_eq!(
                row.map(|e| evaluation_bits(&e)),
                scalar.map(|e| evaluation_bits(&e)),
                "{} at {:?}",
                pdns[eval.pdn_idx].kind(),
                eval.point
            );
        }
    }

    /// `evaluate_delta` equals the full re-sweep bit for bit for random
    /// axis perturbations: every dirty point's fresh evaluation matches
    /// the full run's, and the dirty set covers exactly the points whose
    /// prior evaluations went stale (patching the old outcome with the
    /// delta reproduces the new one everywhere).
    #[test]
    fn delta_resweep_matches_full_resweep_for_random_perturbations(
        grid in grid_strategy(),
        tdp_pick in any::<prop::sample::Index>(),
        ar_pick in any::<prop::sample::Index>(),
        perturb_tdp in any::<bool>(),
        perturb_ar in any::<bool>(),
        w in 1usize..9,
    ) {
        let params = ModelParams::paper_defaults();
        let ivr = pdnspot::IvrPdn::new(params.clone());
        let mbvr = pdnspot::MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        // Perturb up to one TDP and one AR of the old grid.
        let mut tdps = grid.tdps().to_vec();
        if perturb_tdp {
            let i = tdp_pick.index(tdps.len());
            tdps[i] += 0.75;
        }
        let mut ars = grid.ars().to_vec();
        if perturb_ar && !ars.is_empty() {
            let i = ar_pick.index(ars.len());
            ars[i] *= 0.95;
        }
        let new = SweepGrid::builder()
            .tdps(&tdps)
            .workload_types(grid.workload_types())
            .ars(&ars)
            .idle_states(grid.idle_states())
            .build()
            .unwrap();
        let delta = new.diff(&grid);
        let old_run = evaluate(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), None);
        let full = evaluate(&pdns, &new, &ClientSoc, &cfg(Workers::Serial), None);
        let partial =
            evaluate_delta(&pdns, &new, &delta, &ClientSoc, &cfg(Workers::Fixed(w)), None);
        prop_assert_eq!(partial.stats.failed, 0);
        prop_assert_eq!(partial.evaluations.len(), pdns.len() * delta.n_dirty_points(&new));
        // Patch the old campaign with the delta; the result must equal
        // the full re-sweep at every point, dirty and clean alike.
        let mut patched = old_run.evaluations;
        for eval in partial.evaluations {
            prop_assert!(delta.contains(eval.point), "only dirty points re-evaluate");
            let slot = eval.pdn_idx * new.n_points() + new.point_index(eval.point);
            patched[slot] = eval;
        }
        for (p, f) in patched.iter().zip(&full.evaluations) {
            prop_assert_eq!(p.pdn_idx, f.pdn_idx);
            prop_assert_eq!(p.point, f.point);
            let (a, b) = (p.result.as_ref().unwrap(), f.result.as_ref().unwrap());
            prop_assert_eq!(
                a.etee.get().to_bits(),
                b.etee.get().to_bits(),
                "EtEE bits at {:?}",
                p.point
            );
            prop_assert_eq!(
                a.input_power.get().to_bits(),
                b.input_power.get().to_bits(),
                "input power bits at {:?}",
                p.point
            );
        }
    }
}
