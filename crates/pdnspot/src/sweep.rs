//! Design-space exploration utilities.
//!
//! PDNspot's stated purpose is "multi-dimensional architecture-space
//! exploration of modern processor PDNs" (§3). This module provides the
//! sweep machinery the paper's figures are built from: ETEE surfaces over
//! (TDP × AR) per workload type, series extraction, and a crossover
//! finder that locates the TDP at which one PDN overtakes another
//! (§5 Observation 1: "the ETEE crossover point ... exists at some TDP
//! between 4 W and 50 W").
//!
//! Surfaces are produced by the [`crate::batch`] engine: one
//! [`SweepGrid`] evaluation shared across all requested PDNs, scenarios
//! built once and reused, workers fanned out over the lattice.

use crate::batch::{SocProvider, SweepGrid};
use crate::config::EngineConfig;
use crate::error::PdnError;
use crate::memo::MemoCache;
use crate::scenario::Scenario;
use crate::topology::Pdn;
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;

/// An ETEE surface: one value per (TDP, AR) lattice point for one PDN and
/// workload type.
#[derive(Debug, Clone, PartialEq)]
pub struct EteeSurface {
    /// The PDN's display name.
    pub pdn: String,
    /// The workload type swept.
    pub workload_type: WorkloadType,
    /// TDP axis (watts).
    pub tdps: Vec<f64>,
    /// AR axis (fractions).
    pub ars: Vec<f64>,
    /// Row-major ETEE values (`values[t * ars.len() + a]`).
    pub values: Vec<f64>,
}

impl EteeSurface {
    /// The ETEE at a lattice point, or `None` when either index is out
    /// of range.
    pub fn get(&self, tdp_idx: usize, ar_idx: usize) -> Option<f64> {
        if tdp_idx >= self.tdps.len() || ar_idx >= self.ars.len() {
            return None;
        }
        self.values.get(tdp_idx * self.ars.len() + ar_idx).copied()
    }

    /// The ETEE at an arbitrary `(tdp, ar)` query, bilinearly
    /// interpolated between the surface's knots
    /// ([`pdn_units::bilinear`]).
    ///
    /// Returns `None` when the query lies outside the axis hull (no
    /// extrapolation) or is not finite. A query landing exactly on a
    /// lattice knot returns the stored value bit-for-bit — identical to
    /// [`EteeSurface::get`] on the corresponding indices.
    pub fn sample(&self, tdp: f64, ar: f64) -> Option<f64> {
        pdn_units::bilinear(&self.tdps, &self.ars, &self.values, tdp, ar)
    }

    /// [`EteeSurface::sample`] over a batch of `(tdp, ar)` queries,
    /// returned in query order.
    pub fn sample_many(&self, queries: &[(f64, f64)]) -> Vec<Option<f64>> {
        queries.iter().map(|&(tdp, ar)| self.sample(tdp, ar)).collect()
    }
}

/// Sweeps every PDN's ETEE over the active lattice of `grid` at the
/// fixed-TDP-frequency operating points (the Fig. 4 methodology) — the
/// unified surface entry point.
///
/// Returns one surface per `(pdn, workload type)` pair, PDN-major, plus
/// the run's [`crate::batch::BatchStats`]. The grid must be active-only
/// (no idle states): an idle point has no (AR, TDP) surface position.
/// When `memo` is `Some`, evaluations route through the cache via
/// [`crate::batch::evaluate`]; memoization never changes a surface
/// value, a warm cache only skips re-evaluations.
///
/// # Errors
///
/// Returns the first captured per-point error (with lattice
/// coordinates), or [`PdnError::Scenario`] if the grid has idle states.
pub fn surfaces(
    pdns: &[&dyn Pdn],
    grid: &SweepGrid,
    provider: &(impl SocProvider + ?Sized),
    config: &EngineConfig,
    memo: Option<&MemoCache>,
) -> Result<(Vec<EteeSurface>, crate::batch::BatchStats), PdnError> {
    if !grid.idle_states().is_empty() {
        return Err(PdnError::Scenario(
            "ETEE surfaces are defined on active lattices only; build the grid without \
             idle states"
                .into(),
        ));
    }
    let outcome = crate::batch::evaluate(pdns, grid, provider, config, memo);
    let (n_wl, n_ars) = (grid.workload_types().len(), grid.ars().len());
    let mut surfaces = Vec::with_capacity(pdns.len() * n_wl);
    for (pdn_idx, pdn) in pdns.iter().enumerate() {
        let block = outcome.for_pdn(pdn_idx);
        for (wl_idx, &workload_type) in grid.workload_types().iter().enumerate() {
            let mut values = Vec::with_capacity(grid.tdps().len() * n_ars);
            for tdp_idx in 0..grid.tdps().len() {
                for ar_idx in 0..n_ars {
                    // Active lattice order is TDP-major: (t, w, a).
                    let point_idx = (tdp_idx * n_wl + wl_idx) * n_ars + ar_idx;
                    match &block[point_idx].result {
                        Ok(eval) => values.push(eval.etee.get()),
                        Err(e) => return Err(e.clone()),
                    }
                }
            }
            surfaces.push(EteeSurface {
                pdn: pdn.kind().to_string(),
                workload_type,
                tdps: grid.tdps().to_vec(),
                ars: grid.ars().to_vec(),
                values,
            });
        }
    }
    Ok((surfaces, outcome.stats))
}

/// Patches a prior [`surfaces`] campaign in place after an axis change —
/// the incremental re-sweep entry point.
///
/// `grid` is the *new* grid and `delta` the output of
/// [`SweepGrid::diff`] against the grid `surfaces` was computed on. Only
/// the dirtied slab is re-evaluated (through
/// [`crate::batch::evaluate_delta`]); each dirty `(TDP, AR)` cell of the
/// matching surface is overwritten with its fresh value and every
/// surface's axes are refreshed to the new grid's. Because a dirty
/// point's delta evaluation is bit-identical to the full re-sweep's and
/// clean cells are untouched by the axis change, the patched surfaces
/// equal a from-scratch [`surfaces`] call on the new grid bit for bit.
///
/// `surfaces` must be the PDN-major slice a prior [`surfaces`] call
/// returned for the same `pdns` (one surface per `(pdn, workload type)`
/// pair, axes sized like `grid`'s).
///
/// # Errors
///
/// Returns [`PdnError::Scenario`] when the grid has idle states or the
/// surface slice does not line up with `pdns` × `grid`, and propagates
/// the first captured per-point evaluation error.
pub fn surfaces_delta(
    pdns: &[&dyn Pdn],
    grid: &SweepGrid,
    delta: &crate::batch::GridDelta,
    surfaces: &mut [EteeSurface],
    provider: &(impl SocProvider + ?Sized),
    config: &EngineConfig,
    memo: Option<&MemoCache>,
) -> Result<crate::batch::BatchStats, PdnError> {
    if !grid.idle_states().is_empty() {
        return Err(PdnError::Scenario(
            "ETEE surfaces are defined on active lattices only; build the grid without \
             idle states"
                .into(),
        ));
    }
    let n_wl = grid.workload_types().len();
    if surfaces.len() != pdns.len() * n_wl {
        return Err(PdnError::Scenario(format!(
            "surface slice has {} entries; {} PDNs x {} workload types need {}",
            surfaces.len(),
            pdns.len(),
            n_wl,
            pdns.len() * n_wl
        )));
    }
    for (i, surface) in surfaces.iter().enumerate() {
        let (pdn, wl) = (pdns[i / n_wl], grid.workload_types()[i % n_wl]);
        if surface.pdn != pdn.kind().to_string()
            || surface.workload_type != wl
            || surface.tdps.len() != grid.tdps().len()
            || surface.ars.len() != grid.ars().len()
            || surface.values.len() != grid.tdps().len() * grid.ars().len()
        {
            return Err(PdnError::Scenario(format!(
                "surface {i} ({} / {}, {}x{}) does not match PDN {} / {} on a {}x{} grid",
                surface.pdn,
                surface.workload_type,
                surface.tdps.len(),
                surface.ars.len(),
                pdn.kind(),
                wl,
                grid.tdps().len(),
                grid.ars().len()
            )));
        }
    }
    let outcome = crate::batch::evaluate_delta(pdns, grid, delta, provider, config, memo);
    let n_ars = grid.ars().len();
    for eval in &outcome.evaluations {
        let crate::batch::LatticePoint::Active { tdp_idx, wl_idx, ar_idx } = eval.point else {
            unreachable!("active-only grids produce active points");
        };
        match &eval.result {
            Ok(e) => {
                surfaces[eval.pdn_idx * n_wl + wl_idx].values[tdp_idx * n_ars + ar_idx] =
                    e.etee.get();
            }
            Err(e) => return Err(e.clone()),
        }
    }
    for surface in surfaces.iter_mut() {
        surface.tdps.clear();
        surface.tdps.extend_from_slice(grid.tdps());
        surface.ars.clear();
        surface.ars.extend_from_slice(grid.ars());
    }
    Ok(outcome.stats)
}

/// The result of a crossover search between two PDNs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crossover {
    /// `a` is at least as efficient as `b` over the whole range.
    AlwaysFirst,
    /// `b` is at least as efficient as `a` over the whole range.
    AlwaysSecond,
    /// The ETEE orders swap near this TDP.
    At(Watts),
}

/// How many TDP samples the parallel bracketing scan of
/// [`crossover`] evaluates before bisecting.
const CROSSOVER_SCAN_POINTS: usize = 9;

/// Finds the TDP at which `a` overtakes `b` (or vice versa) for a
/// workload type and AR over `[lo, hi]` watts — the unified crossover
/// entry point.
///
/// The comparison uses the Fig. 4 fixed-TDP-frequency operating points.
/// A coarse `CROSSOVER_SCAN_POINTS`-sample scan runs on the batch
/// engine (both PDNs share each scan scenario through the cache); the
/// sign change it brackets is then polished by serial bisection. The
/// search assumes a single crossover in the range, which holds for the
/// paper's PDN pairs (the ETEE difference is monotone in TDP).
///
/// Both the bracketing scan and the bisection probes route their
/// evaluations through `memo` when it is `Some`, so repeated searches
/// over the same PDN pair (or searches sharing scan scenarios with other
/// campaigns) skip re-evaluation. Memoization never changes the result:
/// a cached search returns exactly what the uncached one would.
///
/// # Errors
///
/// Propagates evaluation errors (with lattice coordinates for scan
/// failures).
#[allow(clippy::too_many_arguments)]
pub fn crossover(
    a: &dyn Pdn,
    b: &dyn Pdn,
    workload_type: WorkloadType,
    ar: ApplicationRatio,
    range: (f64, f64),
    provider: &(impl SocProvider + ?Sized),
    config: &EngineConfig,
    memo: Option<&MemoCache>,
) -> Result<Crossover, PdnError> {
    let (lo, hi) = range;
    let scan_tdps: Vec<f64> = (0..CROSSOVER_SCAN_POINTS)
        .map(|i| lo + (hi - lo) * i as f64 / (CROSSOVER_SCAN_POINTS - 1) as f64)
        .collect();
    let grid = SweepGrid::active(&scan_tdps, &[workload_type], &[ar.get()])?;
    let pdns: [&dyn Pdn; 2] = [a, b];
    let outcome = crate::batch::evaluate(&pdns, &grid, provider, config, memo);
    let advantage_at = |idx: usize| -> Result<f64, PdnError> {
        let etee = |pdn_idx: usize| -> Result<f64, PdnError> {
            match &outcome.for_pdn(pdn_idx)[idx].result {
                Ok(eval) => Ok(eval.etee.get()),
                Err(e) => Err(e.clone()),
            }
        };
        Ok(etee(0)? - etee(1)?)
    };

    // Dominance is judged at the endpoints, as the bisection always did.
    let at_lo = advantage_at(0)?;
    let at_hi = advantage_at(CROSSOVER_SCAN_POINTS - 1)?;
    if at_lo >= 0.0 && at_hi >= 0.0 {
        return Ok(Crossover::AlwaysFirst);
    }
    if at_lo <= 0.0 && at_hi <= 0.0 {
        return Ok(Crossover::AlwaysSecond);
    }

    // The scan brackets the sign change; bisection polishes it.
    let mut bracket = (0, CROSSOVER_SCAN_POINTS - 1);
    let mut prev = at_lo;
    for i in 1..CROSSOVER_SCAN_POINTS {
        let here = advantage_at(i)?;
        if (prev > 0.0) != (here > 0.0) {
            bracket = (i - 1, i);
            break;
        }
        prev = here;
    }
    let advantage = |tdp: f64| -> Result<f64, PdnError> {
        let soc = provider.soc_for(Watts::new(tdp));
        let s = Scenario::active_fixed_tdp_frequency(&soc, workload_type, ar)?;
        let (ea, eb) = match memo {
            // One fingerprint keys the probe for both PDNs.
            Some(m) => {
                let fp = s.fingerprint();
                (m.evaluate_fingerprinted(a, &s, fp)?, m.evaluate_fingerprinted(b, &s, fp)?)
            }
            None => (a.evaluate(&s)?, b.evaluate(&s)?),
        };
        Ok(ea.etee.get() - eb.etee.get())
    };
    let (mut blo, mut bhi) = (scan_tdps[bracket.0], scan_tdps[bracket.1]);
    let rising = advantage_at(bracket.1)? > advantage_at(bracket.0)?;
    for _ in 0..32 {
        let mid = 0.5 * (blo + bhi);
        let v = advantage(mid)?;
        if (v > 0.0) == rising {
            bhi = mid;
        } else {
            blo = mid;
        }
    }
    Ok(Crossover::At(Watts::new(0.5 * (blo + bhi))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{config_for, ClientSoc, Workers};
    use crate::params::ModelParams;
    use crate::topology::{IvrPdn, MbvrPdn};

    fn cfg(workers: Workers) -> EngineConfig {
        config_for(workers)
    }

    #[test]
    fn surface_series_extraction() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let grid = SweepGrid::active(&[4.0, 18.0, 50.0], &[WorkloadType::MultiThread], &[0.4, 0.8])
            .unwrap();
        let (surfaces, stats) =
            surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Auto), None).unwrap();
        assert_eq!(surfaces.len(), 1);
        let surface = &surfaces[0];
        assert_eq!(surface.values.len(), 6);
        assert_eq!(stats.scenario_builds, 6);
        assert_eq!(
            (surface.tdps.as_slice(), surface.ars.as_slice()),
            (&[4.0, 18.0, 50.0][..], &[0.4, 0.8][..])
        );
        assert!(surface.values.iter().all(|e| (0.0..=1.0).contains(e)));
    }

    #[test]
    fn get_is_checked_and_at_panics_out_of_range() {
        let surface = EteeSurface {
            pdn: "IVR".into(),
            workload_type: WorkloadType::MultiThread,
            tdps: vec![4.0, 18.0],
            ars: vec![0.4],
            values: vec![0.6, 0.7],
        };
        assert_eq!(surface.get(1, 0), Some(0.7));
        assert_eq!(surface.get(2, 0), None);
        assert_eq!(surface.get(0, 1), None);
    }

    #[test]
    fn surfaces_cover_pdn_and_workload_axes_pdn_major() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = SweepGrid::active(
            &[4.0, 18.0],
            &[WorkloadType::MultiThread, WorkloadType::Graphics],
            &[0.56],
        )
        .unwrap();
        let (surfaces, stats) =
            surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Auto), None).unwrap();
        assert_eq!(surfaces.len(), 4);
        assert_eq!(surfaces[0].pdn, "IVR");
        assert_eq!(surfaces[0].workload_type, WorkloadType::MultiThread);
        assert_eq!(surfaces[1].workload_type, WorkloadType::Graphics);
        assert_eq!(surfaces[2].pdn, "MBVR");
        // 2 PDNs × 4 points share 4 scenario builds.
        assert_eq!(stats.scenario_builds, 4);
        assert_eq!(stats.scenario_lookups, 8);
    }

    #[test]
    fn surfaces_reject_idle_grids() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let grid = SweepGrid::builder()
            .tdps(&[18.0])
            .workload_types(&[WorkloadType::MultiThread])
            .ars(&[0.5])
            .idle_states(&[pdn_proc::PackageCState::C8])
            .build()
            .unwrap();
        assert!(surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Auto), None).is_err());
    }

    #[test]
    fn sample_matches_at_on_every_knot_bit_for_bit() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let grid =
            SweepGrid::active(&[4.0, 18.0, 50.0], &[WorkloadType::MultiThread], &[0.4, 0.56, 0.8])
                .unwrap();
        let (surfaces, _) = surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Auto), None).unwrap();
        let surface = &surfaces[0];
        for (i, &tdp) in surface.tdps.iter().enumerate() {
            for (j, &ar) in surface.ars.iter().enumerate() {
                let sampled = surface.sample(tdp, ar).unwrap();
                assert_eq!(
                    sampled.to_bits(),
                    surface.get(i, j).unwrap().to_bits(),
                    "on-knot sample must equal get({i}, {j}) exactly"
                );
            }
        }
        // Interior queries interpolate within the bracketing knots.
        let mid = surface.sample(11.0, 0.48).unwrap();
        let corners = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(i, j)| surface.get(i, j).unwrap());
        let (lo, hi) = corners
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!((lo..=hi).contains(&mid), "{mid} outside [{lo}, {hi}]");
        // Outside the hull: no extrapolation.
        assert_eq!(surface.sample(3.9, 0.5), None);
        assert_eq!(surface.sample(50.1, 0.5), None);
        assert_eq!(surface.sample(18.0, 0.39), None);
        // Batched queries match the scalar path.
        let queries = [(4.0, 0.4), (11.0, 0.48), (60.0, 0.5)];
        assert_eq!(
            surface.sample_many(&queries),
            queries.iter().map(|&(t, a)| surface.sample(t, a)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memoized_crossover_matches_uncached_and_hits_when_warm() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let ar = ApplicationRatio::new(0.56).unwrap();
        let plain = crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Serial),
            None,
        )
        .unwrap();
        let memo = crate::memo::MemoCache::new();
        let cold = crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Serial),
            Some(&memo),
        )
        .unwrap();
        let after_cold = memo.stats();
        let warm = crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Serial),
            Some(&memo),
        )
        .unwrap();
        assert_eq!(plain, cold, "memoization must not change the crossover");
        assert_eq!(plain, warm);
        assert_eq!(after_cold.hits, 0, "cold cache cannot hit");
        let after_warm = memo.stats();
        let warm_lookups = after_warm.lookups() - after_cold.lookups();
        let warm_hits = after_warm.hits - after_cold.hits;
        assert_eq!(warm_hits, warm_lookups, "a repeated search is fully cached");
        assert!(warm_lookups > 0);
    }

    #[test]
    fn memoized_surfaces_match_uncached() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid =
            SweepGrid::active(&[4.0, 18.0], &[WorkloadType::MultiThread], &[0.4, 0.8]).unwrap();
        let (plain, _) = surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), None).unwrap();
        let memo = crate::memo::MemoCache::new();
        let (cold, _) =
            surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), Some(&memo)).unwrap();
        let (warm, warm_stats) =
            surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), Some(&memo)).unwrap();
        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        assert_eq!(warm_stats.memo_hits, 8, "2 PDNs x 4 points all hit on the second pass");
    }

    #[test]
    fn surfaces_delta_patches_to_the_full_resweep_bit_for_bit() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let old = SweepGrid::active(
            &[4.0, 18.0, 50.0],
            &[WorkloadType::MultiThread, WorkloadType::Graphics],
            &[0.4, 0.56, 0.8],
        )
        .unwrap();
        let (mut patched, _) =
            surfaces(&pdns, &old, &ClientSoc, &cfg(Workers::Serial), None).unwrap();
        // Perturb one TDP and one AR: the dirty slab is their union.
        let new = SweepGrid::active(
            &[4.0, 20.0, 50.0],
            &[WorkloadType::MultiThread, WorkloadType::Graphics],
            &[0.4, 0.56, 0.75],
        )
        .unwrap();
        let delta = new.diff(&old);
        let stats = surfaces_delta(
            &pdns,
            &new,
            &delta,
            &mut patched,
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap();
        // 1 dirty TDP x 2 wl x 3 ars + 2 clean TDPs x 2 wl x 1 dirty ar,
        // for each of the two PDNs.
        assert_eq!(stats.evaluations, 2 * (6 + 4));
        let (full, _) = surfaces(&pdns, &new, &ClientSoc, &cfg(Workers::Serial), None).unwrap();
        assert_eq!(patched.len(), full.len());
        for (p, f) in patched.iter().zip(&full) {
            assert_eq!(p.pdn, f.pdn);
            assert_eq!(p.workload_type, f.workload_type);
            assert_eq!(p.tdps, f.tdps);
            assert_eq!(p.ars, f.ars);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.values), bits(&f.values), "{} / {}", p.pdn, p.workload_type);
        }
    }

    #[test]
    fn surfaces_delta_rejects_mismatched_slices_and_idle_grids() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let grid =
            SweepGrid::active(&[4.0, 18.0], &[WorkloadType::MultiThread], &[0.4, 0.8]).unwrap();
        let (mut surfs, _) =
            surfaces(&pdns, &grid, &ClientSoc, &cfg(Workers::Serial), None).unwrap();
        let delta = grid.diff(&grid);
        // Wrong slice length.
        assert!(surfaces_delta(
            &pdns,
            &grid,
            &delta,
            &mut surfs[..0],
            &ClientSoc,
            &cfg(Workers::Serial),
            None
        )
        .is_err());
        // Wrong PDN identity.
        let mbvr = MbvrPdn::new(ModelParams::paper_defaults());
        let wrong: [&dyn Pdn; 1] = [&mbvr];
        assert!(surfaces_delta(
            &wrong,
            &grid,
            &delta,
            &mut surfs,
            &ClientSoc,
            &cfg(Workers::Serial),
            None
        )
        .is_err());
        // Idle grids are rejected like `surfaces`.
        let idle = SweepGrid::builder()
            .tdps(&[18.0])
            .idle_states(&[pdn_proc::PackageCState::C8])
            .build()
            .unwrap();
        assert!(surfaces_delta(
            &pdns,
            &idle,
            &idle.diff(&idle),
            &mut surfs,
            &ClientSoc,
            &cfg(Workers::Serial),
            None
        )
        .is_err());
        // The aligned call still succeeds (empty delta patches nothing).
        let stats = surfaces_delta(
            &pdns,
            &grid,
            &delta,
            &mut surfs,
            &ClientSoc,
            &cfg(Workers::Serial),
            None,
        )
        .unwrap();
        assert_eq!(stats.evaluations, 0);
    }

    #[test]
    fn spec_crossover_lands_near_18w() {
        // §5 Observation 1 / §7.1: the SPEC-class crossover between IVR
        // and MBVR sits near 18 W.
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let ar = ApplicationRatio::new(0.56).unwrap();
        match crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap()
        {
            Crossover::At(tdp) => {
                assert!(
                    (10.0..=26.0).contains(&tdp.get()),
                    "SPEC crossover at {tdp} (paper: ≈ 18 W)"
                );
            }
            other => panic!("expected a crossover, got {other:?}"),
        }
    }

    #[test]
    fn graphics_crossover_sits_above_the_spec_one() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let ar = ApplicationRatio::new(0.56).unwrap();
        let spec = crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap();
        let gfx = crossover(
            &ivr,
            &mbvr,
            WorkloadType::Graphics,
            ar,
            (4.0, 50.0),
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap();
        let (Crossover::At(spec), Crossover::At(gfx)) = (spec, gfx) else {
            panic!("both pairs must cross in range");
        };
        assert!(
            gfx.get() > spec.get() - 2.0,
            "graphics crossover {gfx} should not sit far below SPEC's {spec}"
        );
    }

    #[test]
    fn degenerate_ranges_report_dominance() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let ar = ApplicationRatio::new(0.56).unwrap();
        // Restricted to low TDPs, MBVR dominates outright.
        let c = crossover(
            &mbvr,
            &ivr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 10.0),
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap();
        assert_eq!(c, Crossover::AlwaysFirst);
        let c = crossover(
            &ivr,
            &mbvr,
            WorkloadType::MultiThread,
            ar,
            (4.0, 10.0),
            &ClientSoc,
            &cfg(Workers::Auto),
            None,
        )
        .unwrap();
        assert_eq!(c, Crossover::AlwaysSecond);
    }
}
