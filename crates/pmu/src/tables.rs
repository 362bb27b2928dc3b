//! Firmware ETEE curve tables.
//!
//! A modern PMU stores model curves as firmware tables (footnote 11 of the
//! paper). The FlexWatts predictor stores one ETEE curve set per PDN mode:
//! a (TDP × AR) grid per workload type for active operation, plus one ETEE
//! value per package power state for idle operation (§6, Algorithm 1).

use pdn_proc::{PackageCState, SocSpec};
use pdn_units::{ApplicationRatio, Efficiency, Grid2, UnitsError, Watts};
use pdn_workload::WorkloadType;
use pdnspot::{MemoCache, Pdn, PdnError, Scenario};
use std::collections::BTreeMap;

/// A complete ETEE curve set for one PDN (mode): the firmware payload of
/// Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EteeCurveSet {
    /// (TDP, AR) → ETEE grids, one per active workload type.
    pub(crate) active: BTreeMap<WorkloadType, Grid2>,
    /// Package-power-state ETEE values (the Fig. 4j curve), per state,
    /// interpolated over TDP.
    pub(crate) idle: BTreeMap<PackageCState, Grid2>,
}

impl EteeCurveSet {
    /// Tabulates the curve set by running PDNspot over the (TDP × AR)
    /// lattice for every workload type, plus all package power states —
    /// exactly how the paper proposes filling the PMU tables (§6).
    ///
    /// `soc_for` builds the SoC at each TDP knot (normally
    /// `pdn_proc::client_soc`).
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors and grid-construction errors.
    pub fn tabulate(
        pdn: &dyn Pdn,
        tdp_axis: &[f64],
        ar_axis: &[f64],
        soc_for: impl Fn(Watts) -> SocSpec,
    ) -> Result<Self, PdnError> {
        Self::tabulate_with(pdn, tdp_axis, ar_axis, soc_for, None)
    }

    /// [`EteeCurveSet::tabulate`] with an optional shared [`MemoCache`]:
    /// retraining over overlapping lattices (mode-predictor ablations,
    /// fault campaigns) reuses previously evaluated `(PDN, scenario)`
    /// results instead of re-running the full PDNspot flow. Cache hits
    /// return bit-identical values, so the tables are the same either way.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors and grid-construction errors.
    pub fn tabulate_with(
        pdn: &dyn Pdn,
        tdp_axis: &[f64],
        ar_axis: &[f64],
        soc_for: impl Fn(Watts) -> SocSpec,
        memo: Option<&MemoCache>,
    ) -> Result<Self, PdnError> {
        let evaluate = |scenario: &Scenario| match memo {
            Some(m) => m.evaluate(pdn, scenario),
            None => pdn.evaluate(scenario),
        };
        let mut active = BTreeMap::new();
        for wl in WorkloadType::ACTIVE_TYPES {
            let mut values = Vec::with_capacity(tdp_axis.len() * ar_axis.len());
            for &tdp in tdp_axis {
                let soc = soc_for(Watts::new(tdp));
                for &ar in ar_axis {
                    let ar = ApplicationRatio::new(ar).map_err(PdnError::Units)?;
                    let scenario = Scenario::active_fixed_tdp_frequency(&soc, wl, ar)?;
                    values.push(evaluate(&scenario)?.etee.get());
                }
            }
            let grid = Grid2::from_rows(tdp_axis.to_vec(), ar_axis.to_vec(), values)
                .map_err(PdnError::Units)?;
            active.insert(wl, grid);
        }

        let mut idle = BTreeMap::new();
        // Idle ETEE varies little with TDP; a two-knot axis suffices.
        let idle_tdps = [tdp_axis[0], tdp_axis[tdp_axis.len() - 1]];
        for state in PackageCState::ALL {
            let mut values = Vec::new();
            for &tdp in &idle_tdps {
                let soc = soc_for(Watts::new(tdp));
                let scenario = Scenario::idle(&soc, state);
                let etee = evaluate(&scenario)?.etee.get();
                // Store the same value on both AR knots (idle has no AR).
                values.push(etee);
                values.push(etee);
            }
            let grid = Grid2::from_rows(idle_tdps.to_vec(), vec![0.0, 1.0], values)
                .map_err(PdnError::Units)?;
            idle.insert(state, grid);
        }
        Ok(Self { active, idle })
    }

    /// Algorithm 1's `estimate_*_ETEE` for active operation: bilinear
    /// lookup over (TDP, AR) in the workload type's grid.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError`] only if the stored value is somehow invalid;
    /// battery-life lookups fall back to the single-thread grid.
    pub fn lookup_active(
        &self,
        workload_type: WorkloadType,
        tdp: Watts,
        ar: ApplicationRatio,
    ) -> Result<Efficiency, UnitsError> {
        let grid = self
            .active
            .get(&workload_type)
            .or_else(|| self.active.get(&WorkloadType::SingleThread))
            .expect("tabulation fills all active types");
        Efficiency::new(grid.eval(tdp.get(), ar.get()).clamp(1e-6, 1.0))
    }

    /// Algorithm 1's ETEE estimate for a package power state.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError`] only if the stored value is somehow invalid.
    pub fn lookup_idle(&self, state: PackageCState, tdp: Watts) -> Result<Efficiency, UnitsError> {
        let grid = self.idle.get(&state).expect("tabulation fills all states");
        Efficiency::new(grid.eval(tdp.get(), 0.5).clamp(1e-6, 1.0))
    }

    /// Total number of stored table entries — the firmware memory
    /// footprint, reported by the predictor-resolution ablation.
    pub fn table_entries(&self) -> usize {
        self.active.values().map(Grid2::table_entries).sum::<usize>()
            + self.idle.values().map(Grid2::table_entries).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;
    use pdnspot::{IvrPdn, MbvrPdn, ModelParams};

    fn small_set(pdn: &dyn Pdn) -> EteeCurveSet {
        EteeCurveSet::tabulate(pdn, &[4.0, 18.0, 50.0], &[0.4, 0.6, 0.8], client_soc).unwrap()
    }

    #[test]
    fn lookup_matches_direct_evaluation_at_knots() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let set = small_set(&pdn);
        let soc = client_soc(Watts::new(18.0));
        let ar = ApplicationRatio::new(0.6).unwrap();
        let direct = pdn
            .evaluate(
                &Scenario::active_fixed_tdp_frequency(&soc, WorkloadType::MultiThread, ar).unwrap(),
            )
            .unwrap()
            .etee;
        let table = set.lookup_active(WorkloadType::MultiThread, soc.tdp, ar).unwrap();
        assert!((direct.get() - table.get()).abs() < 1e-9);
    }

    #[test]
    fn interpolation_between_knots_is_sane() {
        let pdn = MbvrPdn::new(ModelParams::paper_defaults());
        let set = small_set(&pdn);
        let ar = ApplicationRatio::new(0.5).unwrap();
        let at_10 =
            set.lookup_active(WorkloadType::SingleThread, Watts::new(10.0), ar).unwrap().get();
        let at_4 =
            set.lookup_active(WorkloadType::SingleThread, Watts::new(4.0), ar).unwrap().get();
        let at_18 =
            set.lookup_active(WorkloadType::SingleThread, Watts::new(18.0), ar).unwrap().get();
        assert!(at_10 <= at_4.max(at_18) && at_10 >= at_4.min(at_18));
    }

    #[test]
    fn idle_lookup_reproduces_fig4j_gap() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let set_ivr = small_set(&ivr);
        let set_mbvr = small_set(&mbvr);
        let tdp = Watts::new(18.0);
        let i = set_ivr.lookup_idle(PackageCState::C8, tdp).unwrap();
        let m = set_mbvr.lookup_idle(PackageCState::C8, tdp).unwrap();
        assert!(m.get() > i.get() + 0.08, "MBVR C8 {m} must dominate IVR {i}");
    }

    #[test]
    fn table_entries_counts_footprint() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let set = small_set(&pdn);
        // 3 workload types × 3×3 grid + 6 states × 2×2 grid.
        assert_eq!(set.table_entries(), 3 * 9 + 6 * 4);
    }

    #[test]
    fn memoized_tabulation_matches_plain_and_hits_on_retrain() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let plain = small_set(&pdn);
        let memo = MemoCache::new();
        let cold = EteeCurveSet::tabulate_with(
            &pdn,
            &[4.0, 18.0, 50.0],
            &[0.4, 0.6, 0.8],
            client_soc,
            Some(&memo),
        )
        .unwrap();
        assert_eq!(plain, cold, "memoization must not change a single table entry");
        assert_eq!(memo.stats().hits, 0, "first tabulation sees a cold cache");
        let warm = EteeCurveSet::tabulate_with(
            &pdn,
            &[4.0, 18.0, 50.0],
            &[0.4, 0.6, 0.8],
            client_soc,
            Some(&memo),
        )
        .unwrap();
        assert_eq!(plain, warm);
        let stats = memo.stats();
        assert_eq!(stats.misses as usize, memo.len(), "every distinct scenario cached once");
        assert!(stats.hit_rate() > 0.45, "retraining must be served from cache: {stats:?}");
    }

    #[test]
    fn battery_life_lookup_falls_back_to_single_thread() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let set = small_set(&pdn);
        let ar = ApplicationRatio::new(0.5).unwrap();
        let bl = set.lookup_active(WorkloadType::BatteryLife, Watts::new(10.0), ar).unwrap();
        let st = set.lookup_active(WorkloadType::SingleThread, Watts::new(10.0), ar).unwrap();
        assert_eq!(bl, st);
    }
}
