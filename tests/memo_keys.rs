//! The memo key values are persisted: every exported [`MemoEntry`] — and
//! so every `pdn-serve` snapshot — stores a PDN token and a scenario
//! fingerprint. These tests pin those values, so a snapshot written by an
//! earlier build still warm-restarts, and check that the batch engine's
//! row path keys entries exactly as per-point lookups do.

use flexwatts::{FlexWattsAuto, FlexWattsPdn, PdnMode};
use pdn_proc::PackageCState;
use pdnspot::batch::{evaluate, LatticePoint};
use pdnspot::prelude::*;
use pdnspot::topology::pdn_memo_token;
use pdnspot::{IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, MemoCache, MemoEntry, PdnKind};
use std::collections::BTreeSet;

#[test]
fn tokens_equal_the_token_function_and_the_persisted_values() {
    let p = ModelParams::paper_defaults();
    let cases: [(Box<dyn Pdn>, PdnKind, u64, u64); 7] = [
        (Box::new(IvrPdn::new(p.clone())), PdnKind::Ivr, 0, 0xa2b8_84b6_bc18_5b69),
        (Box::new(MbvrPdn::new(p.clone())), PdnKind::Mbvr, 0, 0x1048_f9b6_fade_e98c),
        (Box::new(LdoPdn::new(p.clone())), PdnKind::Ldo, 0, 0x570b_d072_3274_96d7),
        (Box::new(IPlusMbvrPdn::new(p.clone())), PdnKind::IPlusMbvr, 0, 0x506c_78a7_500e_ba52),
        (
            Box::new(FlexWattsPdn::new(p.clone(), PdnMode::IvrMode)),
            PdnKind::FlexWatts,
            0,
            0xc026_3465_0686_f2fd,
        ),
        (
            Box::new(FlexWattsPdn::new(p.clone(), PdnMode::LdoMode)),
            PdnKind::FlexWatts,
            1,
            0xd879_8688_e8b6_e6b0,
        ),
        (Box::new(FlexWattsAuto::new(p.clone())), PdnKind::FlexWatts, 255, 0xc559_23e5_5218_f08a),
    ];
    for (pdn, kind, flavor, persisted) in &cases {
        let token = pdn.memo_token().expect("every topology is cacheable");
        assert_eq!(token, pdn_memo_token(*kind, *flavor, &p), "{kind} flavor {flavor}");
        assert_eq!(token, *persisted, "{kind} flavor {flavor}: snapshot keys moved");
    }
    assert_eq!(p.fingerprint(), 0xad32_d2a3_5a6f_205d);
}

#[test]
fn scenario_fingerprints_equal_the_persisted_values() {
    let soc = pdn_proc::client_soc(Watts::new(18.0));
    let ar = |v| ApplicationRatio::new(v).unwrap();
    let mt =
        Scenario::active_fixed_tdp_frequency(&soc, WorkloadType::MultiThread, ar(0.6)).unwrap();
    let gfx = Scenario::active_fixed_tdp_frequency(&soc, WorkloadType::Graphics, ar(0.7)).unwrap();
    let idle = Scenario::idle(&soc, PackageCState::C8);
    assert_eq!(mt.fingerprint(), 0x6f48_c389_696a_ea38);
    assert_eq!(gfx.fingerprint(), 0xdcc6_6c26_7ebb_c15e);
    assert_eq!(idle.fingerprint(), 0x7555_568d_f18a_e77e);
}

fn key_set(entries: &[MemoEntry]) -> BTreeSet<(u64, u64)> {
    entries.iter().map(|e| (e.pdn_token, e.scenario_fingerprint)).collect()
}

#[test]
fn batch_rows_and_per_point_lookups_store_the_same_keys() {
    let p = ModelParams::paper_defaults();
    let (ivr, mbvr, ldo) =
        (IvrPdn::new(p.clone()), MbvrPdn::new(p.clone()), LdoPdn::new(p.clone()));
    let (iplus, auto) = (IPlusMbvrPdn::new(p.clone()), FlexWattsAuto::new(p));
    let pdns: [&dyn Pdn; 5] = [&ivr, &mbvr, &ldo, &iplus, &auto];
    let grid = SweepGrid::builder()
        .tdps(&[3.0, 12.0, 50.0])
        .workload_types(&[WorkloadType::SingleThread, WorkloadType::Graphics])
        .ars(&[0.4, 0.75])
        .idle_states(&[PackageCState::C0Min, PackageCState::C8])
        .build()
        .unwrap();

    let batch = MemoCache::new();
    let config = EngineConfig::builder().workers(Workers::Fixed(2)).build().unwrap();
    let outcome = evaluate(&pdns, &grid, &ClientSoc, &config, Some(&batch));
    assert!(outcome.first_error().is_none());

    let per_point = MemoCache::new();
    for pdn in pdns {
        for point in grid.points() {
            let soc = ClientSoc.soc_for(Watts::new(grid.tdps()[point.tdp_idx()]));
            let scenario = match point {
                LatticePoint::Active { wl_idx, ar_idx, .. } => {
                    Scenario::active_fixed_tdp_frequency(
                        &soc,
                        grid.workload_types()[wl_idx],
                        ApplicationRatio::new(grid.ars()[ar_idx]).unwrap(),
                    )
                    .unwrap()
                }
                LatticePoint::Idle { state_idx, .. } => {
                    Scenario::idle(&soc, grid.idle_states()[state_idx])
                }
            };
            per_point.evaluate(pdn, &scenario).unwrap();
        }
    }

    let (rows, points) = (batch.export(), per_point.export());
    assert_eq!(rows.len(), pdns.len() * grid.n_points());
    assert_eq!(key_set(&rows), key_set(&points));
}
