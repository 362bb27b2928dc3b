//! Deterministic parallel evaluation of PDN design-space lattices.
//!
//! Every figure in the paper is a fan-out: the same scenario lattice
//! (TDP × workload type × AR, plus idle power states) evaluated across
//! several PDN topologies. Building one scenario is expensive — the
//! Fig. 4 fixed-TDP-frequency operating point runs a 48-step bisection
//! whose every probe constructs a full [`Scenario`] — while each PDN
//! evaluation of a finished scenario is cheap. This module exploits both
//! facts:
//!
//! * a shared scenario cache guarantees each lattice
//!   **row** — one varying innermost axis, every other coordinate fixed —
//!   is built **exactly once** no matter how many PDNs or threads consume
//!   it, with the row-invariant front half (bisection solve, virus
//!   tables, per-domain hoists) computed once per row;
//! * a persistent worker pool fans the `pdn × row` task lattice out —
//!   each task runs the row kernel ([`Pdn::evaluate_row`]) with a
//!   task-local lock-free [`RowStage`] — and merges per-point results
//!   back into **stable lattice order**, so parallel and serial runs
//!   return bit-identical values. The calling thread is worker 0; the
//!   other worker ids go to process-wide helper threads that park between
//!   calls, so a fan-out pays no thread spawn in steady state, and
//!   [`Workers::Auto`] reads [`std::thread::available_parallelism`] once
//!   per process;
//! * failures are captured **per point** — a scenario the solver cannot
//!   bracket or a regulator that rejects an operating point records its
//!   lattice coordinates ([`PdnError::Lattice`]) instead of aborting the
//!   campaign;
//! * [`BatchStats`] reports points evaluated, scenario-cache hit rate,
//!   and per-worker wall time, and is printed by the figure binaries.
//!
//! # Determinism contract
//!
//! For a fixed grid, PDN set, and provider, [`evaluate`] returns the
//! same [`BatchOutcome::evaluations`] (same order, same floating-point
//! bits) for every [`Workers`] choice in the [`EngineConfig`].
//! Scheduling only changes *which thread* computes a
//! task, never the arithmetic: tasks share no mutable state besides the
//! write-once scenario cache, and results are merged by task index.
//! Only [`BatchStats`] (timings, worker count) varies between runs.

use crate::config::EngineConfig;
use crate::error::PdnError;
use crate::etee::{PdnEvaluation, RowStage};
use crate::memo::MemoCache;
use crate::scenario::staging::{self, SocStaging};
use crate::scenario::Scenario;
use crate::topology::Pdn;
use pdn_proc::{PackageCState, SocSpec};
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

mod pool;

/// A source of SoC specifications, one per TDP design point.
///
/// The sweep and batch APIs previously took ad-hoc
/// `impl Fn(Watts) -> SocSpec` closures; this trait names that contract
/// once. A blanket impl covers plain closures and functions (so
/// `pdn_proc::client_soc` still works verbatim), and [`ClientSoc`] is
/// the named provider for the paper's client SoC family.
///
/// Providers must be [`Sync`]: the batch engine shares one provider
/// across its worker threads.
pub trait SocProvider: Sync {
    /// Builds the SoC specification of the `tdp` design point.
    fn soc_for(&self, tdp: Watts) -> SocSpec;
}

impl<F: Fn(Watts) -> SocSpec + Sync> SocProvider for F {
    fn soc_for(&self, tdp: Watts) -> SocSpec {
        self(tdp)
    }
}

/// The paper's client SoC family ([`pdn_proc::client_soc`]) as a named
/// provider.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientSoc;

impl SocProvider for ClientSoc {
    fn soc_for(&self, tdp: Watts) -> SocSpec {
        pdn_proc::client_soc(tdp)
    }
}

/// A design-space lattice: the cartesian axes every batch campaign
/// sweeps.
///
/// Active points span TDP × workload type × AR at the Fig. 4
/// fixed-TDP-frequency operating points; idle points span TDP × package
/// C-state. Build one with [`SweepGrid::active`] or
/// [`SweepGrid::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    tdps: Vec<f64>,
    workload_types: Vec<WorkloadType>,
    ars: Vec<f64>,
    idle_states: Vec<PackageCState>,
}

/// Incremental constructor for [`SweepGrid`] (see
/// [`SweepGrid::builder`]).
#[derive(Debug, Clone, Default)]
pub struct SweepGridBuilder {
    tdps: Vec<f64>,
    workload_types: Vec<WorkloadType>,
    ars: Vec<f64>,
    idle_states: Vec<PackageCState>,
}

impl SweepGridBuilder {
    /// Sets the TDP axis (watts).
    #[must_use]
    pub fn tdps(mut self, tdps: &[f64]) -> Self {
        self.tdps = tdps.to_vec();
        self
    }

    /// Sets the workload-type axis of the active sub-lattice.
    #[must_use]
    pub fn workload_types(mut self, types: &[WorkloadType]) -> Self {
        self.workload_types = types.to_vec();
        self
    }

    /// Sets the AR axis of the active sub-lattice (fractions).
    #[must_use]
    pub fn ars(mut self, ars: &[f64]) -> Self {
        self.ars = ars.to_vec();
        self
    }

    /// Sets the package power-state axis of the idle sub-lattice.
    #[must_use]
    pub fn idle_states(mut self, states: &[PackageCState]) -> Self {
        self.idle_states = states.to_vec();
        self
    }

    /// Validates the axes and builds the grid.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] if the TDP axis is empty or
    /// non-positive/non-finite, an AR is invalid, or the grid contains
    /// no point at all (no workload × AR pair and no idle state).
    pub fn build(self) -> Result<SweepGrid, PdnError> {
        if self.tdps.is_empty() {
            return Err(PdnError::Scenario("sweep grid needs at least one TDP".into()));
        }
        for &tdp in &self.tdps {
            if !tdp.is_finite() || tdp <= 0.0 {
                return Err(PdnError::Scenario(format!("invalid TDP {tdp} in sweep grid")));
            }
        }
        for &ar in &self.ars {
            ApplicationRatio::new(ar).map_err(PdnError::Units)?;
        }
        let has_active = !self.workload_types.is_empty() && !self.ars.is_empty();
        if !has_active && self.idle_states.is_empty() {
            return Err(PdnError::Scenario(
                "sweep grid is empty: provide workload types and ARs, or idle states".into(),
            ));
        }
        Ok(SweepGrid {
            tdps: self.tdps,
            workload_types: self.workload_types,
            ars: self.ars,
            idle_states: self.idle_states,
        })
    }
}

impl SweepGrid {
    /// Starts an empty builder.
    pub fn builder() -> SweepGridBuilder {
        SweepGridBuilder::default()
    }

    /// An active-only grid over TDP × workload type × AR.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] on empty or invalid axes.
    pub fn active(
        tdps: &[f64],
        workload_types: &[WorkloadType],
        ars: &[f64],
    ) -> Result<Self, PdnError> {
        Self::builder().tdps(tdps).workload_types(workload_types).ars(ars).build()
    }

    /// The TDP axis (watts).
    pub fn tdps(&self) -> &[f64] {
        &self.tdps
    }

    /// The workload-type axis.
    pub fn workload_types(&self) -> &[WorkloadType] {
        &self.workload_types
    }

    /// The AR axis (fractions).
    pub fn ars(&self) -> &[f64] {
        &self.ars
    }

    /// The idle power-state axis.
    pub fn idle_states(&self) -> &[PackageCState] {
        &self.idle_states
    }

    /// Number of points in the active sub-lattice.
    pub(crate) fn n_active(&self) -> usize {
        self.tdps.len() * self.workload_types.len() * self.ars.len()
    }

    /// Total number of lattice points.
    pub fn n_points(&self) -> usize {
        self.n_active() + self.tdps.len() * self.idle_states.len()
    }

    /// Enumerates the lattice in its canonical order: active points
    /// TDP-major (TDP, then workload type, then AR), followed by idle
    /// points (TDP, then power state). Batch results follow this order.
    pub fn points(&self) -> Vec<LatticePoint> {
        (0..self.n_points()).map(|idx| self.point_at(idx)).collect()
    }

    /// The lattice point at position `idx` of the [`SweepGrid::points`]
    /// order, recovered by index arithmetic. The batch engine walks the
    /// lattice through this accessor, so a campaign never materialises
    /// the point list (let alone the `pdn × point` task list).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.n_points()`.
    pub(crate) fn point_at(&self, idx: usize) -> LatticePoint {
        assert!(idx < self.n_points(), "lattice index {idx} out of range");
        let n_active = self.n_active();
        if idx < n_active {
            let per_tdp = self.workload_types.len() * self.ars.len();
            let rem = idx % per_tdp;
            LatticePoint::Active {
                tdp_idx: idx / per_tdp,
                wl_idx: rem / self.ars.len(),
                ar_idx: rem % self.ars.len(),
            }
        } else {
            let rem = idx - n_active;
            LatticePoint::Idle {
                tdp_idx: rem / self.idle_states.len(),
                state_idx: rem % self.idle_states.len(),
            }
        }
    }

    /// Human-readable coordinates of a point (used in
    /// [`PdnError::Lattice`]).
    pub(crate) fn describe(&self, point: LatticePoint) -> String {
        match point {
            LatticePoint::Active { tdp_idx, wl_idx, ar_idx } => format!(
                "tdp={}W wl={} ar={:.2}",
                self.tdps[tdp_idx], self.workload_types[wl_idx], self.ars[ar_idx]
            ),
            LatticePoint::Idle { tdp_idx, state_idx } => {
                format!("tdp={}W state={}", self.tdps[tdp_idx], self.idle_states[state_idx])
            }
        }
    }

    /// Number of active rows (TDP × workload type, each spanning the AR
    /// axis). Zero when the active sub-lattice is empty.
    pub(crate) fn n_active_rows(&self) -> usize {
        if self.n_active() == 0 {
            0
        } else {
            self.tdps.len() * self.workload_types.len()
        }
    }

    /// Number of idle rows (one per TDP, each spanning the power-state
    /// axis). Zero when the idle sub-lattice is empty.
    pub(crate) fn n_idle_rows(&self) -> usize {
        if self.idle_states.is_empty() {
            0
        } else {
            self.tdps.len()
        }
    }

    /// Total number of lattice rows. Every point belongs to exactly one
    /// row, and walking the rows in index order visits the points in
    /// their canonical [`SweepGrid::points`] order.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_active_rows() + self.n_idle_rows()
    }

    /// The row at position `idx`: active rows first (TDP-major, then
    /// workload type), then one idle row per TDP.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.n_rows()`.
    pub(crate) fn row_at(&self, idx: usize) -> LatticeRow {
        assert!(idx < self.n_rows(), "lattice row index {idx} out of range");
        let n_active_rows = self.n_active_rows();
        if idx < n_active_rows {
            LatticeRow::Active {
                tdp_idx: idx / self.workload_types.len(),
                wl_idx: idx % self.workload_types.len(),
            }
        } else {
            LatticeRow::Idle { tdp_idx: idx - n_active_rows }
        }
    }

    /// The contiguous range of [`SweepGrid::points`] indices a row
    /// covers: active rows span the AR axis, idle rows the power-state
    /// axis.
    pub(crate) fn row_span(&self, row: LatticeRow) -> std::ops::Range<usize> {
        match row {
            LatticeRow::Active { tdp_idx, wl_idx } => {
                let start = (tdp_idx * self.workload_types.len() + wl_idx) * self.ars.len();
                start..start + self.ars.len()
            }
            LatticeRow::Idle { tdp_idx } => {
                let start = self.n_active() + tdp_idx * self.idle_states.len();
                start..start + self.idle_states.len()
            }
        }
    }

    /// Human-readable coordinates of a row (the varying axis shown as
    /// `*`), used in [`PdnError::Lattice`] for row-level build failures.
    pub(crate) fn describe_row(&self, row: LatticeRow) -> String {
        match row {
            LatticeRow::Active { tdp_idx, wl_idx } => {
                format!("tdp={}W wl={} ar=*", self.tdps[tdp_idx], self.workload_types[wl_idx])
            }
            LatticeRow::Idle { tdp_idx } => format!("tdp={}W state=*", self.tdps[tdp_idx]),
        }
    }

    /// The position of `point` in the [`SweepGrid::points`] order — the
    /// inverse of `SweepGrid::point_at`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate of `point` is out of range for this
    /// grid's axes.
    pub fn point_index(&self, point: LatticePoint) -> usize {
        match point {
            LatticePoint::Active { tdp_idx, wl_idx, ar_idx } => {
                assert!(
                    tdp_idx < self.tdps.len()
                        && wl_idx < self.workload_types.len()
                        && ar_idx < self.ars.len(),
                    "active point {point:?} out of range"
                );
                (tdp_idx * self.workload_types.len() + wl_idx) * self.ars.len() + ar_idx
            }
            LatticePoint::Idle { tdp_idx, state_idx } => {
                assert!(
                    tdp_idx < self.tdps.len() && state_idx < self.idle_states.len(),
                    "idle point {point:?} out of range"
                );
                self.n_active() + tdp_idx * self.idle_states.len() + state_idx
            }
        }
    }

    /// Computes the dirtied sub-lattice between this grid and `old`: the
    /// per-axis indices at which the two grids disagree. `self` is the
    /// *new* grid (the one a delta re-sweep evaluates); `old` is the grid
    /// a prior campaign ran on.
    ///
    /// Axes are compared pointwise and exactly (`f64` values by their
    /// bits), so any change an evaluation could observe marks the index
    /// dirty. An axis whose *length* changed cannot be aligned pointwise
    /// and is marked fully dirty — every index of the new axis — which
    /// makes every point touching it dirty and leaves nothing stale to
    /// reuse.
    pub fn diff(&self, old: &SweepGrid) -> GridDelta {
        fn dirty_by<T>(new: &[T], old: &[T], same: impl Fn(&T, &T) -> bool) -> Vec<usize> {
            if new.len() != old.len() {
                return (0..new.len()).collect();
            }
            new.iter()
                .zip(old)
                .enumerate()
                .filter_map(|(i, (n, o))| (!same(n, o)).then_some(i))
                .collect()
        }
        GridDelta {
            tdps: dirty_by(&self.tdps, &old.tdps, |a, b| a.to_bits() == b.to_bits()),
            workload_types: dirty_by(&self.workload_types, &old.workload_types, |a, b| a == b),
            ars: dirty_by(&self.ars, &old.ars, |a, b| a.to_bits() == b.to_bits()),
            idle_states: dirty_by(&self.idle_states, &old.idle_states, |a, b| a == b),
        }
    }
}

/// The dirtied slab between two [`SweepGrid`]s, as computed by
/// [`SweepGrid::diff`]: the per-axis indices whose values changed.
///
/// A lattice point is **dirty** — its prior evaluation is stale — when
/// any of its coordinates lands on a dirty axis index. The dirty set is
/// therefore a union of axis-aligned slabs (one per dirty index), which
/// [`evaluate_delta`] re-evaluates without touching the clean remainder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GridDelta {
    /// Dirty indices into the new grid's TDP axis (sorted).
    tdps: Vec<usize>,
    /// Dirty indices into the new grid's workload-type axis (sorted).
    workload_types: Vec<usize>,
    /// Dirty indices into the new grid's AR axis (sorted).
    ars: Vec<usize>,
    /// Dirty indices into the new grid's idle-state axis (sorted).
    idle_states: Vec<usize>,
}

impl GridDelta {
    /// Whether `point` is dirty under this delta.
    pub fn contains(&self, point: LatticePoint) -> bool {
        match point {
            LatticePoint::Active { tdp_idx, wl_idx, ar_idx } => {
                self.tdps.contains(&tdp_idx)
                    || self.workload_types.contains(&wl_idx)
                    || self.ars.contains(&ar_idx)
            }
            LatticePoint::Idle { tdp_idx, state_idx } => {
                self.tdps.contains(&tdp_idx) || self.idle_states.contains(&state_idx)
            }
        }
    }

    /// Number of dirty points of `grid` (per PDN).
    pub fn n_dirty_points(&self, grid: &SweepGrid) -> usize {
        let clean_t = grid.tdps.len() - self.tdps.len();
        let clean_active = if grid.n_active() == 0 {
            0
        } else {
            clean_t
                * (grid.workload_types.len() - self.workload_types.len())
                * (grid.ars.len() - self.ars.len())
        };
        let clean_idle = clean_t * (grid.idle_states.len() - self.idle_states.len());
        grid.n_points() - clean_active - clean_idle
    }
}

/// Coordinates of one point in a [`SweepGrid`] lattice (indices into the
/// grid's axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatticePoint {
    /// An active operating point.
    Active {
        /// Index into [`SweepGrid::tdps`].
        tdp_idx: usize,
        /// Index into [`SweepGrid::workload_types`].
        wl_idx: usize,
        /// Index into [`SweepGrid::ars`].
        ar_idx: usize,
    },
    /// An idle (package C-state) point.
    Idle {
        /// Index into [`SweepGrid::tdps`].
        tdp_idx: usize,
        /// Index into [`SweepGrid::idle_states`].
        state_idx: usize,
    },
}

impl LatticePoint {
    /// The TDP-axis index of the point.
    pub fn tdp_idx(self) -> usize {
        match self {
            LatticePoint::Active { tdp_idx, .. } | LatticePoint::Idle { tdp_idx, .. } => tdp_idx,
        }
    }
}

/// Coordinates of one row in a [`SweepGrid`] lattice: every axis fixed
/// except the innermost one (AR for active rows, power state for idle
/// rows), which the row kernel sweeps in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LatticeRow {
    /// An active row: one (TDP, workload type) pair across the AR axis.
    Active {
        /// Index into [`SweepGrid::tdps`].
        tdp_idx: usize,
        /// Index into [`SweepGrid::workload_types`].
        wl_idx: usize,
    },
    /// An idle row: one TDP across the power-state axis.
    Idle {
        /// Index into [`SweepGrid::tdps`].
        tdp_idx: usize,
    },
}

impl LatticeRow {
    /// The TDP-axis index of the row.
    pub(crate) fn tdp_idx(self) -> usize {
        match self {
            LatticeRow::Active { tdp_idx, .. } | LatticeRow::Idle { tdp_idx } => tdp_idx,
        }
    }
}

/// Worker-pool sizing for batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workers {
    /// One worker per available hardware thread (capped at the task
    /// count). The thread count is read from
    /// [`std::thread::available_parallelism`] once per process and
    /// cached: the query re-reads cgroup and affinity state, which costs
    /// as much as a small fan-out.
    #[default]
    Auto,
    /// Single-threaded execution on the calling thread (the reference
    /// path of the determinism contract).
    Serial,
    /// Exactly this many workers (clamped to at least 1, at most the
    /// task count).
    Fixed(usize),
}

impl Workers {
    /// Resolves the worker count for `tasks` work items.
    pub fn count(self, tasks: usize) -> usize {
        let want = match self {
            Workers::Serial => 1,
            Workers::Fixed(n) => n.max(1),
            Workers::Auto => {
                static AUTO: OnceLock<usize> = OnceLock::new();
                *AUTO.get_or_init(|| {
                    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
                })
            }
        };
        want.min(tasks.max(1))
    }
}

/// Applies `f` to every item of `items` on the batch worker pool,
/// returning results in item order.
///
/// This is the engine's scheduling primitive, exposed for other fan-outs
/// (the figure kernels and the runtime interval simulator use it
/// directly). The calling thread runs worker 0; the other workers are
/// persistent pool helpers, parked between calls. A helper that has not
/// picked the call up by the time the caller's own pass ends never
/// joins, and the workers that ran steal its share. A `par_map` nested
/// inside an `f` runs on its caller alone. A panic in `f` is re-raised
/// on the caller once every worker of the call has stopped.
///
/// Each worker owns a contiguous range of the items and pulls
/// chunks from it through an atomic claim cursor; a worker that drains
/// its range steals chunks from the other ranges, so uneven item costs
/// balance automatically while the common case — every worker busy on
/// its own range — needs no cross-worker traffic. Each worker collects
/// `(index, result)` pairs locally and the pairs are merged and sorted at
/// the end, which restores deterministic ordering regardless of
/// scheduling. `f` runs exactly once per item.
pub fn par_map<T, R, F>(items: &[T], workers: Workers, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_timed(items, workers, f).results
}

/// [`par_map`] plus a [`BatchStats`] record of the run — the
/// instrumented primitive for fan-outs with no scenario lattice (the
/// figure kernels and benches). Scenario-cache counters stay zero.
pub fn par_map_stats<T, R, F>(items: &[T], workers: Workers, f: F) -> (Vec<R>, BatchStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    let run = par_map_timed(items, workers, f);
    let stats = BatchStats {
        points: items.len(),
        evaluations: items.len(),
        failed: 0,
        scenario_builds: 0,
        scenario_lookups: 0,
        memo_hits: 0,
        memo_misses: 0,
        memo_evictions: 0,
        workers: run.worker_wall.len(),
        worker_stolen: run.worker_stolen,
        worker_idle_probes: run.worker_idle_probes,
        worker_wall: run.worker_wall,
        wall: start.elapsed(),
    };
    (run.results, stats)
}

/// One worker's pass of [`par_map_run_indexed`]: its `(index, result)`
/// pairs and scheduling telemetry. A worker id that never ran keeps the
/// all-zero default.
struct WorkerRun<R> {
    local: Vec<(usize, R)>,
    stolen: usize,
    idle_probes: usize,
    wall: Duration,
}

impl<R> Default for WorkerRun<R> {
    fn default() -> Self {
        Self { local: Vec::new(), stolen: 0, idle_probes: 0, wall: Duration::ZERO }
    }
}

/// The outcome of [`par_map_timed`]: ordered results plus scheduling
/// telemetry.
struct ParMapRun<R> {
    results: Vec<R>,
    worker_wall: Vec<Duration>,
    worker_stolen: Vec<usize>,
    worker_idle_probes: Vec<usize>,
}

/// [`par_map`] plus per-worker scheduling telemetry (the engine's
/// instrumented path). Thin slice adapter over [`par_map_run_indexed`].
fn par_map_timed<T, R, F>(items: &[T], workers: Workers, f: F) -> ParMapRun<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_run_indexed(items.len(), workers, |i| f(i, &items[i]))
}

/// The index-driven scheduling core: applies `f` to every index in
/// `0..n` on the batch worker pool and returns the results in index
/// order. Fan-outs whose work items are pure index arithmetic (the
/// `pdn × point` lattice of [`evaluate`]) drive this directly
/// and never allocate a task list.
///
/// Scheduling: the indices are split into one contiguous range per
/// worker, each guarded by an atomic claim cursor. A worker claims
/// fixed-size chunks from its own range first (one relaxed `fetch_add`
/// per chunk, no sharing in the common case), then sweeps the other
/// ranges in ring order stealing whatever chunks remain. Cursors only
/// advance, so one sweep is exhaustive and every index is claimed
/// exactly once — even when some worker ids never run, because no
/// helper picked them up in time (see [`pool`]). Which worker computes an
/// index never affects the index's arithmetic, and the final index-keyed
/// merge restores lattice order — results are bit-identical for every
/// worker count. Telemetry keeps one slot per worker id; an id that
/// never ran reports zero.
fn par_map_run_indexed<R, F>(n: usize, workers: Workers, f: F) -> ParMapRun<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // A fan-out inside another one's pass runs serially on its caller:
    // the outer job already occupies the workers it asked for.
    let n_workers = if pool::in_job() { 1 } else { workers.count(n) };
    if n_workers <= 1 {
        let start = Instant::now();
        let results = (0..n).map(&f).collect();
        return ParMapRun {
            results,
            worker_wall: vec![start.elapsed()],
            worker_stolen: vec![0],
            worker_idle_probes: vec![0],
        };
    }

    let base = n / n_workers;
    let extra = n % n_workers;
    let mut ranges: Vec<(AtomicUsize, usize)> = Vec::with_capacity(n_workers);
    let mut next_start = 0;
    for w in 0..n_workers {
        let len = base + usize::from(w < extra);
        ranges.push((AtomicUsize::new(next_start), next_start + len));
        next_start += len;
    }
    // Chunked claiming amortises the atomic over several items while
    // keeping the range tails small enough to steal. Chunk size affects
    // only claim granularity, never values (the determinism contract).
    let chunk = (base / 8).clamp(1, 16);

    let slots: Vec<Mutex<Option<WorkerRun<R>>>> =
        (0..n_workers).map(|_| Mutex::new(None)).collect();
    pool::POOL.run(n_workers, &|w| {
        let start = Instant::now();
        let mut local = Vec::new();
        let mut stolen = 0usize;
        let mut idle_probes = 0usize;
        for probe in 0..n_workers {
            let victim = (w + probe) % n_workers;
            let (cursor, end) = &ranges[victim];
            let mut claimed_any = false;
            loop {
                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                if lo >= *end {
                    break;
                }
                let hi = (lo + chunk).min(*end);
                claimed_any = true;
                if probe > 0 {
                    stolen += hi - lo;
                }
                for i in lo..hi {
                    local.push((i, f(i)));
                }
            }
            if probe > 0 && !claimed_any {
                idle_probes += 1;
            }
        }
        let run = WorkerRun { local, stolen, idle_probes, wall: start.elapsed() };
        *slots[w].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
    });
    let mut pairs = Vec::with_capacity(n);
    let mut worker_wall = Vec::with_capacity(n_workers);
    let mut worker_stolen = Vec::with_capacity(n_workers);
    let mut worker_idle_probes = Vec::with_capacity(n_workers);
    for slot in slots {
        let run = slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_default();
        pairs.extend(run.local);
        worker_wall.push(run.wall);
        worker_stolen.push(run.stolen);
        worker_idle_probes.push(run.idle_probes);
    }
    pairs.sort_unstable_by_key(|&(i, _)| i);
    ParMapRun {
        results: pairs.into_iter().map(|(_, r)| r).collect(),
        worker_wall,
        worker_stolen,
        worker_idle_probes,
    }
}

/// The write-once scenario store shared by all workers of a batch run.
///
/// Indexed by lattice-row position (not floating-point keys), with a
/// per-TDP SoC sub-cache. [`OnceLock`] gives build-exactly-once
/// semantics: the first worker to need a row builds all of its
/// scenarios in one call through the row constructors (which hoist the
/// bisection solve, virus tables, and per-domain power terms out of the
/// per-point loop); concurrent requesters block until the row is ready,
/// and every later lookup is a hit. When the run has a memo, the row
/// also carries its scenarios' fingerprints, computed once and shared by
/// every PDN task of the row.
struct ScenarioCache<'g, P: ?Sized> {
    grid: &'g SweepGrid,
    provider: &'g P,
    /// Per-TDP SoC and its process-wide staging slot (the fixed-TDP
    /// frequency solves and virus tables), looked up once per SoC.
    socs: Vec<OnceLock<(SocSpec, Arc<SocStaging>)>>,
    /// Whether rows carry scenario fingerprints (only a memo reads them).
    fingerprint: bool,
    /// Validated AR axis plus each AR's formatted name suffix, built once
    /// per sweep: the fixed-precision float `Display` in a scenario name
    /// costs more than the rest of the point's construction, and the
    /// suffix set is shared by every active row.
    #[allow(clippy::type_complexity)]
    ar_axis: OnceLock<Result<(Vec<ApplicationRatio>, Vec<String>), PdnError>>,
    rows: Vec<OnceLock<Result<CachedRow, PdnError>>>,
    lookups: AtomicUsize,
    builds: AtomicUsize,
}

/// One built lattice row: its scenarios and, when the run has a memo,
/// their [`Scenario::fingerprint`]s (index-aligned; empty otherwise).
struct CachedRow {
    scenarios: Vec<Scenario>,
    fingerprints: Vec<u64>,
}

impl<'g, P: SocProvider + ?Sized> ScenarioCache<'g, P> {
    fn new(grid: &'g SweepGrid, provider: &'g P, fingerprint: bool) -> Self {
        Self {
            grid,
            provider,
            socs: (0..grid.tdps.len()).map(|_| OnceLock::new()).collect(),
            fingerprint,
            ar_axis: OnceLock::new(),
            rows: (0..grid.n_rows()).map(|_| OnceLock::new()).collect(),
            lookups: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
        }
    }

    fn soc(&self, tdp_idx: usize) -> &(SocSpec, Arc<SocStaging>) {
        self.socs[tdp_idx].get_or_init(|| {
            let soc = self.provider.soc_for(Watts::new(self.grid.tdps[tdp_idx]));
            let slot = staging::for_soc(&soc);
            (soc, slot)
        })
    }

    fn ar_axis(&self) -> &Result<(Vec<ApplicationRatio>, Vec<String>), PdnError> {
        self.ar_axis.get_or_init(|| {
            let ars: Vec<ApplicationRatio> = self
                .grid
                .ars
                .iter()
                .map(|&ar| ApplicationRatio::new(ar).map_err(PdnError::Units))
                .collect::<Result<_, _>>()?;
            let suffixes = ars.iter().map(|&ar| Scenario::ar_suffix(ar)).collect();
            Ok((ars, suffixes))
        })
    }

    /// Builds one row's scenarios through the row constructors.
    /// Bit-identical to the unstaged per-point [`Scenario`] constructors:
    /// the hoisted values are exactly what those constructors would
    /// recompute at every point of the row.
    fn build_row(&self, row: LatticeRow) -> Result<Vec<Scenario>, PdnError> {
        let (soc, slot) = self.soc(row.tdp_idx());
        match row {
            LatticeRow::Active { wl_idx, .. } => {
                let (ars, suffixes) = match self.ar_axis() {
                    Ok(axis) => axis,
                    Err(e) => return Err(e.clone()),
                };
                let wl = self.grid.workload_types[wl_idx];
                let t = slot.solved_t(soc, wl)?;
                Scenario::active_fixed_tdp_row_staged(
                    soc,
                    wl,
                    ars,
                    suffixes,
                    t,
                    &slot.tdp_virus(soc),
                )
            }
            LatticeRow::Idle { .. } => {
                Ok(Scenario::idle_row_staged(soc, &self.grid.idle_states, slot.fmin_virus(soc)))
            }
        }
    }

    fn row(&self, row_idx: usize, row: LatticeRow) -> &Result<CachedRow, PdnError> {
        // Counters advance per *point* so hit rates stay comparable with
        // the historical per-point cache: one row request counts one
        // lookup per point it covers, and a build counts every point it
        // constructs.
        let len = self.grid.row_span(row).len();
        self.lookups.fetch_add(len, Ordering::Relaxed);
        self.rows[row_idx].get_or_init(|| {
            self.builds.fetch_add(len, Ordering::Relaxed);
            // Failures are stored pre-shared: every PDN consuming the
            // row clones the error, and a clone of a shared error is a
            // refcount bump instead of a deep copy.
            let scenarios = self.build_row(row).map_err(|e| {
                PdnError::Lattice {
                    pdn: None,
                    point: self.grid.describe_row(row),
                    source: Box::new(e),
                }
                .into_shared()
            })?;
            let keyed = if self.fingerprint { &scenarios[..] } else { &[] };
            let fingerprints = keyed.iter().map(Scenario::fingerprint).collect();
            Ok(CachedRow { scenarios, fingerprints })
        })
    }

    /// Consumes the cache, yielding the rows in lattice order (unvisited
    /// rows stay unbuilt and come back as `None`).
    fn into_rows(self) -> Vec<Option<Result<CachedRow, PdnError>>> {
        self.rows.into_iter().map(OnceLock::into_inner).collect()
    }
}

/// Instrumentation of one batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStats {
    /// Lattice points in the grid.
    pub(crate) points: usize,
    /// `pdn × point` evaluations performed.
    pub evaluations: usize,
    /// Evaluations that ended in a captured per-point error.
    pub failed: usize,
    /// Scenarios built (cache misses).
    pub scenario_builds: usize,
    /// Scenario-cache lookups.
    pub scenario_lookups: usize,
    /// ETEE memo-cache hits recorded during the run (all three memo
    /// counters stay zero when the run had no [`MemoCache`]).
    pub memo_hits: usize,
    /// ETEE memo-cache misses recorded during the run.
    pub memo_misses: usize,
    /// ETEE memo-cache entries evicted during the run.
    pub memo_evictions: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Items each worker claimed from another worker's range (work
    /// stealing; all zero on serial runs and balanced workloads).
    pub(crate) worker_stolen: Vec<usize>,
    /// Steal sweeps in which a worker found every other range already
    /// drained (it went idle instead of stealing).
    pub(crate) worker_idle_probes: Vec<usize>,
    /// Wall time each worker spent inside the run.
    pub worker_wall: Vec<Duration>,
    /// End-to-end wall time of the run.
    pub wall: Duration,
}

impl BatchStats {
    /// Fraction of scenario lookups served from the cache.
    pub(crate) fn cache_hit_rate(&self) -> f64 {
        if self.scenario_lookups == 0 {
            return 0.0;
        }
        (self.scenario_lookups - self.scenario_builds) as f64 / self.scenario_lookups as f64
    }

    /// Fraction of ETEE memo-cache lookups served from the cache (zero
    /// when the run performed no memo lookups).
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_misses;
        if lookups == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / lookups as f64
    }

    /// The busiest worker's wall time.
    pub(crate) fn max_worker_wall(&self) -> Duration {
        self.worker_wall.iter().copied().max().unwrap_or_default()
    }

    /// Total items claimed across worker-range boundaries.
    pub fn total_stolen(&self) -> usize {
        self.worker_stolen.iter().sum()
    }

    /// The machine-independent slice of the [`Display`](fmt::Display)
    /// footer: grid and scenario-cache counts, no wall-clock,
    /// worker-pool, or steal figures — and no memo counters, whose
    /// hit/miss split depends on how concurrent workers interleave on
    /// the shared cache. Figure artefacts embed this form so
    /// re-rendering on any machine diffs clean against the committed
    /// file.
    pub fn deterministic_footer(&self) -> String {
        format!(
            "[batch] {} evaluations over {} points ({} failed); scenario cache {:.1}% hits \
             ({} builds / {} lookups)",
            self.evaluations,
            self.points,
            self.failed,
            100.0 * self.cache_hit_rate(),
            self.scenario_builds,
            self.scenario_lookups,
        )
    }

    /// Folds another run's counters into this one — used by figure
    /// binaries that combine several batch calls under a single printed
    /// footer. Wall times add (the runs happened one after the other);
    /// the worker count keeps the larger pool.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.points += other.points;
        self.evaluations += other.evaluations;
        self.failed += other.failed;
        self.scenario_builds += other.scenario_builds;
        self.scenario_lookups += other.scenario_lookups;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
        self.workers = self.workers.max(other.workers);
        self.worker_stolen.extend(other.worker_stolen.iter().copied());
        self.worker_idle_probes.extend(other.worker_idle_probes.iter().copied());
        self.worker_wall.extend(other.worker_wall.iter().copied());
        self.wall += other.wall;
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[batch] {} evaluations over {} points ({} failed); scenario cache {:.1}% hits \
             ({} builds / {} lookups); {} workers, wall {:.1} ms (busiest worker {:.1} ms)",
            self.evaluations,
            self.points,
            self.failed,
            100.0 * self.cache_hit_rate(),
            self.scenario_builds,
            self.scenario_lookups,
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.max_worker_wall().as_secs_f64() * 1e3,
        )?;
        let stolen = self.total_stolen();
        if stolen > 0 {
            write!(f, "; {stolen} stolen")?;
        }
        let memo_lookups = self.memo_hits + self.memo_misses;
        if memo_lookups > 0 {
            write!(
                f,
                "; memo {:.1}% hits ({} hits / {} lookups, {} evicted)",
                100.0 * self.memo_hit_rate(),
                self.memo_hits,
                memo_lookups,
                self.memo_evictions,
            )?;
        }
        Ok(())
    }
}

/// One `pdn × point` evaluation of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEvaluation {
    /// Index into the PDN set the run was given.
    pub pdn_idx: usize,
    /// The lattice point evaluated.
    pub point: LatticePoint,
    /// The evaluation, or the captured per-point failure.
    pub result: Result<PdnEvaluation, PdnError>,
}

/// The result of [`evaluate`]: ordered evaluations plus run
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Evaluations in stable order: PDN-major, each PDN's block in
    /// [`SweepGrid::points`] order.
    pub evaluations: Vec<PointEvaluation>,
    /// Run instrumentation.
    pub stats: BatchStats,
    n_points: usize,
}

impl BatchOutcome {
    /// The evaluations of one PDN, in lattice order.
    pub fn for_pdn(&self, pdn_idx: usize) -> &[PointEvaluation] {
        &self.evaluations[pdn_idx * self.n_points..(pdn_idx + 1) * self.n_points]
    }

    /// The first captured error, if any point failed.
    pub fn first_error(&self) -> Option<&PdnError> {
        self.evaluations.iter().find_map(|e| e.result.as_ref().err())
    }
}

/// An all-defaults config with only the worker choice overridden.
#[cfg(test)]
pub(crate) fn config_for(workers: Workers) -> EngineConfig {
    EngineConfig::builder().workers(workers).build().expect("worker-only config is valid")
}

/// Evaluates every PDN over every lattice point of `grid` — the unified
/// batch entry point.
///
/// Scenario rows are built at most once each through the shared cache
/// and reused across PDNs and workers. Workers claim whole `pdn × row`
/// tasks: each task runs the row kernel ([`Pdn::evaluate_row`]) over the
/// row's scenarios with a task-local [`RowStage`], so the
/// PDN-independent staged front half (guardband factors, virus
/// headrooms) is computed once per row with zero locking and zero
/// per-point dispatch. Per-point failures are captured in the
/// corresponding [`PointEvaluation::result`] with their lattice
/// coordinates; the rest of the campaign always completes. The
/// evaluations come back PDN-major in [`SweepGrid::points`] order — the
/// same values and order for every [`EngineConfig::workers`] choice (see
/// the module-level determinism contract).
///
/// When `memo` is `Some`, every row goes through
/// `MemoCache::evaluate_row`: a row whose every
/// `(PDN fingerprint, scenario fingerprint)` pair is cached — within
/// this run or across earlier calls sharing the cache — returns the
/// stored results without touching the kernel. Memoization never changes
/// a returned value (a hit is a clone of a bit-identical prior result),
/// so this function upholds the determinism contract with or without a
/// cache; the run's hit/miss/eviction deltas are reported in the
/// [`BatchStats`] memo counters. Pass `Some(&config.memo_cache())` for a
/// run-local cache, or share one cache across calls to amortise warm
/// entries.
pub fn evaluate(
    pdns: &[&dyn Pdn],
    grid: &SweepGrid,
    provider: &(impl SocProvider + ?Sized),
    config: &EngineConfig,
    memo: Option<&MemoCache>,
) -> BatchOutcome {
    let start = Instant::now();
    let n_points = grid.n_points();
    let n_rows = grid.n_rows();
    let n_tasks = pdns.len() * n_rows;
    let cache = ScenarioCache::new(grid, provider, memo.is_some());
    let memo_before = memo.map(MemoCache::stats);

    let run = par_map_run_indexed(n_tasks, config.workers(), |task_idx| {
        let pdn_idx = task_idx / n_rows;
        let row_idx = task_idx % n_rows;
        let row = grid.row_at(row_idx);
        let span = grid.row_span(row);
        match cache.row(row_idx, row) {
            Ok(row) => {
                let pdn = pdns[pdn_idx];
                // The stage is task-local: one worker owns it for the
                // row's lifetime, so its caches need no locks, and no
                // state leaks between rows.
                let stage = RowStage::new();
                let results = match memo {
                    Some(m) => m.evaluate_row(pdn, &row.scenarios, &row.fingerprints, &stage),
                    None => pdn.evaluate_row(&row.scenarios, &stage),
                };
                results
                    .into_iter()
                    .enumerate()
                    .map(|(i, result)| {
                        result.map_err(|e| PdnError::Lattice {
                            pdn: Some(pdn.kind().to_string()),
                            point: grid.describe(grid.point_at(span.start + i)),
                            source: Box::new(e),
                        })
                    })
                    .collect::<Vec<_>>()
            }
            Err(e) => vec![Err(e.clone()); span.len()],
        }
    });

    // Flattening the per-row result vectors in task order yields the
    // PDN-major canonical point order: rows tile the lattice
    // contiguously and in order (see `SweepGrid::row_span`).
    let mut evaluations: Vec<PointEvaluation> = Vec::with_capacity(pdns.len() * n_points);
    for (task_idx, row_results) in run.results.into_iter().enumerate() {
        let pdn_idx = task_idx / n_rows;
        let span = grid.row_span(grid.row_at(task_idx % n_rows));
        for (i, result) in row_results.into_iter().enumerate() {
            evaluations.push(PointEvaluation {
                pdn_idx,
                point: grid.point_at(span.start + i),
                result,
            });
        }
    }
    let failed = evaluations.iter().filter(|e| e.result.is_err()).count();
    let (memo_hits, memo_misses, memo_evictions) = match (memo_before, memo.map(MemoCache::stats)) {
        (Some(before), Some(after)) => (
            (after.hits - before.hits) as usize,
            (after.misses - before.misses) as usize,
            (after.evictions - before.evictions) as usize,
        ),
        _ => (0, 0, 0),
    };
    let stats = BatchStats {
        points: n_points,
        evaluations: evaluations.len(),
        failed,
        scenario_builds: cache.builds.load(Ordering::Relaxed),
        scenario_lookups: cache.lookups.load(Ordering::Relaxed),
        memo_hits,
        memo_misses,
        memo_evictions,
        workers: run.worker_wall.len(),
        worker_stolen: run.worker_stolen,
        worker_idle_probes: run.worker_idle_probes,
        worker_wall: run.worker_wall,
        wall: start.elapsed(),
    };
    BatchOutcome { evaluations, stats, n_points }
}

/// The result of [`evaluate_delta`]: the dirty-point evaluations plus
/// run statistics.
///
/// Evaluations are sorted PDN-major, then by the point's position in the
/// *full* grid's [`SweepGrid::points`] order — each [`PointEvaluation`]
/// carries full-grid axis indices, ready to scatter into a prior
/// campaign's results (see [`crate::sweep::surfaces_delta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// Dirty-point evaluations in (PDN, full-grid point index) order.
    pub evaluations: Vec<PointEvaluation>,
    /// Run instrumentation (points counts the dirty points only).
    pub stats: BatchStats,
    n_dirty: usize,
}

impl DeltaOutcome {
    /// The dirty evaluations of one PDN, in full-grid lattice order.
    pub fn for_pdn(&self, pdn_idx: usize) -> &[PointEvaluation] {
        &self.evaluations[pdn_idx * self.n_dirty..(pdn_idx + 1) * self.n_dirty]
    }

    /// The first captured error, if any dirty point failed.
    pub fn first_error(&self) -> Option<&PdnError> {
        self.evaluations.iter().find_map(|e| e.result.as_ref().err())
    }
}

/// Re-evaluates only the dirtied slab of `grid` — the incremental
/// counterpart of [`evaluate`].
///
/// `delta` is the output of [`SweepGrid::diff`] between `grid` (new) and
/// the grid a prior campaign ran on. The dirty set — every point with at
/// least one coordinate on a dirty axis index — is a union of
/// axis-aligned slabs, which this function decomposes into at most four
/// *disjoint* cartesian sub-grids, each handed to [`evaluate`] whole:
///
/// 1. dirty TDPs × every workload type × every AR, plus every idle
///    state (the dirty-TDP slab);
/// 2. clean TDPs × dirty workload types × every AR;
/// 3. clean TDPs × clean workload types × dirty ARs;
/// 4. clean TDPs × dirty idle states.
///
/// Each sub-grid reuses the full row-kernel machinery — shared scenario
/// cache, row tasks, worker pool, optional memoization — and every
/// scenario it builds is bit-identical to the one the full-grid sweep
/// would build at the same coordinates (the per-row hoists depend only
/// on the point's own axis values). A dirty point's evaluation therefore
/// equals the full re-sweep's bit for bit, and the clean points, by
/// construction untouched by the axis change, keep their prior values:
/// patching a prior campaign with this outcome reproduces
/// [`evaluate`] on the new grid exactly.
pub fn evaluate_delta(
    pdns: &[&dyn Pdn],
    grid: &SweepGrid,
    delta: &GridDelta,
    provider: &(impl SocProvider + ?Sized),
    config: &EngineConfig,
    memo: Option<&MemoCache>,
) -> DeltaOutcome {
    let start = Instant::now();
    // Partition an axis into its dirty and clean values, each with a map
    // back to full-axis indices.
    fn split<T: Copy>(axis: &[T], dirty: &[usize]) -> (Vec<T>, Vec<usize>, Vec<T>, Vec<usize>) {
        let (mut dv, mut di, mut cv, mut ci) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &v) in axis.iter().enumerate() {
            if dirty.contains(&i) {
                dv.push(v);
                di.push(i);
            } else {
                cv.push(v);
                ci.push(i);
            }
        }
        (dv, di, cv, ci)
    }
    let (dirty_t, dirty_t_map, clean_t, clean_t_map) = split(&grid.tdps, &delta.tdps);
    let (dirty_w, dirty_w_map, clean_w, clean_w_map) =
        split(&grid.workload_types, &delta.workload_types);
    let (dirty_a, dirty_a_map, _, _) = split(&grid.ars, &delta.ars);
    let (dirty_s, dirty_s_map, _, _) = split(&grid.idle_states, &delta.idle_states);

    let mut evaluations: Vec<PointEvaluation> = Vec::new();
    let mut stats: Option<BatchStats> = None;
    let mut sweep =
        |sub: SweepGrid, t_map: &[usize], w_map: &[usize], a_map: &[usize], s_map: &[usize]| {
            let outcome = evaluate(pdns, &sub, provider, config, memo);
            for eval in outcome.evaluations {
                let point = match eval.point {
                    LatticePoint::Active { tdp_idx, wl_idx, ar_idx } => LatticePoint::Active {
                        tdp_idx: t_map[tdp_idx],
                        wl_idx: w_map[wl_idx],
                        ar_idx: a_map[ar_idx],
                    },
                    LatticePoint::Idle { tdp_idx, state_idx } => {
                        LatticePoint::Idle { tdp_idx: t_map[tdp_idx], state_idx: s_map[state_idx] }
                    }
                };
                evaluations.push(PointEvaluation { point, ..eval });
            }
            match &mut stats {
                Some(s) => s.absorb(&outcome.stats),
                None => stats = Some(outcome.stats),
            }
        };

    let all_w_map: Vec<usize> = (0..grid.workload_types.len()).collect();
    let all_a_map: Vec<usize> = (0..grid.ars.len()).collect();
    let all_s_map: Vec<usize> = (0..grid.idle_states.len()).collect();
    // Slab 1: everything touching a dirty TDP (active and idle alike).
    if !dirty_t.is_empty() {
        let sub = SweepGrid::builder()
            .tdps(&dirty_t)
            .workload_types(&grid.workload_types)
            .ars(&grid.ars)
            .idle_states(&grid.idle_states)
            .build()
            .expect("sub-axes of a valid grid are valid");
        sweep(sub, &dirty_t_map, &all_w_map, &all_a_map, &all_s_map);
    }
    // Slab 2: dirty workload types at clean TDPs.
    if !clean_t.is_empty() && !dirty_w.is_empty() && !grid.ars.is_empty() {
        let sub = SweepGrid::active(&clean_t, &dirty_w, &grid.ars)
            .expect("sub-axes of a valid grid are valid");
        sweep(sub, &clean_t_map, &dirty_w_map, &all_a_map, &[]);
    }
    // Slab 3: dirty ARs at clean (TDP, workload type) pairs.
    if !clean_t.is_empty() && !clean_w.is_empty() && !dirty_a.is_empty() {
        let sub = SweepGrid::active(&clean_t, &clean_w, &dirty_a)
            .expect("sub-axes of a valid grid are valid");
        sweep(sub, &clean_t_map, &clean_w_map, &dirty_a_map, &[]);
    }
    // Slab 4: dirty idle states at clean TDPs.
    if !clean_t.is_empty() && !dirty_s.is_empty() {
        let sub = SweepGrid::builder()
            .tdps(&clean_t)
            .idle_states(&dirty_s)
            .build()
            .expect("sub-axes of a valid grid are valid");
        sweep(sub, &clean_t_map, &[], &[], &dirty_s_map);
    }

    // The slabs are disjoint and cover the dirty set exactly; sorting by
    // (PDN, full-grid point index) restores one canonical order.
    evaluations.sort_by_key(|e| (e.pdn_idx, grid.point_index(e.point)));
    let n_dirty = delta.n_dirty_points(grid);
    debug_assert_eq!(evaluations.len(), n_dirty * pdns.len());
    let mut stats = stats.unwrap_or(BatchStats {
        points: 0,
        evaluations: 0,
        failed: 0,
        scenario_builds: 0,
        scenario_lookups: 0,
        memo_hits: 0,
        memo_misses: 0,
        memo_evictions: 0,
        workers: 0,
        worker_stolen: Vec::new(),
        worker_idle_probes: Vec::new(),
        worker_wall: Vec::new(),
        wall: Duration::ZERO,
    });
    stats.wall = start.elapsed();
    DeltaOutcome { evaluations, stats, n_dirty }
}

/// Builds every scenario of `grid` in parallel (no PDN evaluation) —
/// the campaign front half, used when the scenarios themselves are the
/// product (e.g. the Fig. 4 validation traces).
///
/// Returns the scenarios in [`SweepGrid::points`] order, each a
/// `Result` carrying lattice coordinates on failure, plus run
/// statistics.
pub fn build_scenarios(
    grid: &SweepGrid,
    provider: &(impl SocProvider + ?Sized),
    workers: Workers,
) -> (Vec<Result<Scenario, PdnError>>, BatchStats) {
    let start = Instant::now();
    let n_points = grid.n_points();
    let n_rows = grid.n_rows();
    let cache = ScenarioCache::new(grid, provider, false);
    let run = par_map_run_indexed(n_rows, workers, |row_idx| {
        cache.row(row_idx, grid.row_at(row_idx)).is_ok()
    });
    let builds = cache.builds.load(Ordering::Relaxed);
    let lookups = cache.lookups.load(Ordering::Relaxed);
    let mut scenarios: Vec<Result<Scenario, PdnError>> = Vec::with_capacity(n_points);
    for (row_idx, slot) in cache.into_rows().into_iter().enumerate() {
        let len = grid.row_span(grid.row_at(row_idx)).len();
        match slot.expect("every row was visited") {
            Ok(row) => scenarios.extend(row.scenarios.into_iter().map(Ok)),
            Err(e) => scenarios.extend((0..len).map(|_| Err(e.clone()))),
        }
    }
    let failed = scenarios.iter().filter(|s| s.is_err()).count();
    let stats = BatchStats {
        points: n_points,
        evaluations: n_points,
        failed,
        scenario_builds: builds,
        scenario_lookups: lookups,
        memo_hits: 0,
        memo_misses: 0,
        memo_evictions: 0,
        workers: run.worker_wall.len(),
        worker_stolen: run.worker_stolen,
        worker_idle_probes: run.worker_idle_probes,
        worker_wall: run.worker_wall,
        wall: start.elapsed(),
    };
    (scenarios, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::topology::{IvrPdn, MbvrPdn, PdnKind};
    use pdn_proc::client_soc;

    fn small_grid() -> SweepGrid {
        SweepGrid::builder()
            .tdps(&[4.0, 18.0])
            .workload_types(&[WorkloadType::MultiThread, WorkloadType::SingleThread])
            .ars(&[0.4, 0.8])
            .idle_states(&[PackageCState::C2, PackageCState::C8])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_bad_axes() {
        assert!(SweepGrid::builder().build().is_err(), "no TDPs");
        assert!(SweepGrid::builder().tdps(&[18.0]).build().is_err(), "no points");
        assert!(SweepGrid::builder().tdps(&[-1.0]).build().is_err(), "negative TDP");
        assert!(
            SweepGrid::active(&[18.0], &[WorkloadType::MultiThread], &[1.7]).is_err(),
            "AR above 1"
        );
        assert!(SweepGrid::builder()
            .tdps(&[18.0])
            .idle_states(&[PackageCState::C8])
            .build()
            .is_ok());
    }

    #[test]
    fn lattice_order_is_tdp_major_then_idle() {
        let grid = small_grid();
        assert_eq!(grid.n_active(), 8);
        assert_eq!(grid.n_points(), 12);
        let points = grid.points();
        assert_eq!(points[0], LatticePoint::Active { tdp_idx: 0, wl_idx: 0, ar_idx: 0 });
        assert_eq!(points[1], LatticePoint::Active { tdp_idx: 0, wl_idx: 0, ar_idx: 1 });
        assert_eq!(points[2], LatticePoint::Active { tdp_idx: 0, wl_idx: 1, ar_idx: 0 });
        assert_eq!(points[4], LatticePoint::Active { tdp_idx: 1, wl_idx: 0, ar_idx: 0 });
        assert_eq!(points[8], LatticePoint::Idle { tdp_idx: 0, state_idx: 0 });
        assert_eq!(points[11], LatticePoint::Idle { tdp_idx: 1, state_idx: 1 });
    }

    #[test]
    fn point_at_matches_the_materialised_enumeration() {
        let grid = small_grid();
        let mut expected = Vec::new();
        for t in 0..2 {
            for w in 0..2 {
                for a in 0..2 {
                    expected.push(LatticePoint::Active { tdp_idx: t, wl_idx: w, ar_idx: a });
                }
            }
        }
        for t in 0..2 {
            for s in 0..2 {
                expected.push(LatticePoint::Idle { tdp_idx: t, state_idx: s });
            }
        }
        assert_eq!(grid.points(), expected);
        for (i, &p) in expected.iter().enumerate() {
            assert_eq!(grid.point_at(i), p, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_at_rejects_out_of_range_indices() {
        small_grid().point_at(12);
    }

    #[test]
    fn rows_tile_the_lattice_in_canonical_order() {
        let grid = small_grid();
        assert_eq!(grid.n_active_rows(), 4);
        assert_eq!(grid.n_idle_rows(), 2);
        assert_eq!(grid.n_rows(), 6);
        // Walking the rows in index order must visit every point index
        // exactly once, in canonical order.
        let covered: Vec<usize> =
            (0..grid.n_rows()).flat_map(|r| grid.row_span(grid.row_at(r))).collect();
        assert_eq!(covered, (0..grid.n_points()).collect::<Vec<_>>());
        // Every point in a row's span shares the row's fixed coordinates.
        for r in 0..grid.n_rows() {
            let row = grid.row_at(r);
            for idx in grid.row_span(row) {
                match (row, grid.point_at(idx)) {
                    (
                        LatticeRow::Active { tdp_idx, wl_idx },
                        LatticePoint::Active { tdp_idx: t, wl_idx: w, .. },
                    ) => assert_eq!((tdp_idx, wl_idx), (t, w)),
                    (LatticeRow::Idle { tdp_idx }, LatticePoint::Idle { tdp_idx: t, .. }) => {
                        assert_eq!(tdp_idx, t);
                    }
                    (row, point) => panic!("row {row:?} spans foreign point {point:?}"),
                }
            }
        }
        assert_eq!(grid.describe_row(grid.row_at(0)), "tdp=4W wl=multi-thread ar=*");
        assert_eq!(grid.describe_row(grid.row_at(4)), "tdp=4W state=*");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_at_rejects_out_of_range_indices() {
        small_grid().row_at(6);
    }

    #[test]
    fn staged_scenarios_match_direct_construction() {
        // The per-TDP staging cache (solved frequency scalar + virus
        // tables) must be invisible: every scenario equals the one the
        // unstaged constructors build.
        let grid = small_grid();
        let (scenarios, _) = build_scenarios(&grid, &ClientSoc, Workers::Serial);
        for (idx, got) in scenarios.iter().enumerate() {
            let point = grid.point_at(idx);
            let soc = client_soc(Watts::new(grid.tdps()[point.tdp_idx()]));
            let direct = match point {
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
            assert_eq!(*got.as_ref().unwrap(), direct, "{}", grid.describe(point));
        }
    }

    #[test]
    fn memoized_batch_is_bit_identical_and_hits_on_the_second_pass() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = small_grid();
        let plain = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Serial), None);
        let memo = MemoCache::new();
        let first = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Serial), Some(&memo));
        let second =
            evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Fixed(3)), Some(&memo));
        assert_eq!(plain.evaluations, first.evaluations);
        assert_eq!(plain.evaluations, second.evaluations);
        assert_eq!(first.stats.memo_misses, 24, "cold cache misses every task");
        assert_eq!(first.stats.memo_hits, 0);
        assert_eq!(second.stats.memo_hits, 24, "warm cache hits every task");
        assert_eq!(second.stats.memo_misses, 0);
        assert!(second.stats.memo_hit_rate() > 0.8);
        let footer = second.stats.to_string();
        assert!(footer.contains("memo 100.0% hits"), "{footer}");
        assert!(!plain.stats.to_string().contains("memo"), "{}", plain.stats);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = small_grid();
        let serial = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Serial), None);
        let parallel = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Fixed(4)), None);
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(serial.stats.workers, 1);
        assert_eq!(parallel.stats.workers, 4.min(serial.stats.evaluations));
    }

    #[test]
    fn scenarios_build_once_across_pdns() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = small_grid();
        let outcome = evaluate(&pdns, &grid, &ClientSoc, &EngineConfig::default(), None);
        let stats = &outcome.stats;
        assert_eq!(stats.points, 12);
        assert_eq!(stats.evaluations, 24);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.scenario_builds, 12, "one build per point");
        assert_eq!(stats.scenario_lookups, 24, "one lookup per evaluation");
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        let footer = stats.to_string();
        assert!(footer.contains("24 evaluations over 12 points"), "{footer}");
        assert!(footer.contains("50.0% hits"), "{footer}");
    }

    #[test]
    fn for_pdn_slices_the_lattice_blocks() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = small_grid();
        let outcome = evaluate(&pdns, &grid, &ClientSoc, &EngineConfig::default(), None);
        let block = outcome.for_pdn(1);
        assert_eq!(block.len(), 12);
        assert!(block.iter().all(|e| e.pdn_idx == 1));
        assert_eq!(block[0].point, LatticePoint::Active { tdp_idx: 0, wl_idx: 0, ar_idx: 0 });
        assert!(outcome.first_error().is_none());
    }

    /// A PDN that fails above a TDP threshold — exercises per-point
    /// error capture.
    #[derive(Debug)]
    struct FailsAbove {
        inner: IvrPdn,
        threshold: f64,
    }

    impl Pdn for FailsAbove {
        fn kind(&self) -> PdnKind {
            self.inner.kind()
        }

        fn params(&self) -> &ModelParams {
            self.inner.params()
        }

        fn evaluate(&self, scenario: &Scenario) -> Result<PdnEvaluation, PdnError> {
            if scenario.tdp.get() > self.threshold {
                return Err(PdnError::Scenario("synthetic failure".into()));
            }
            self.inner.evaluate(scenario)
        }
    }

    #[test]
    fn failing_point_is_reported_with_coordinates_and_rest_completes() {
        let flaky =
            FailsAbove { inner: IvrPdn::new(ModelParams::paper_defaults()), threshold: 10.0 };
        let pdns: [&dyn Pdn; 1] = [&flaky];
        let grid = SweepGrid::active(&[4.0, 18.0], &[WorkloadType::MultiThread], &[0.56]).unwrap();
        let outcome = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Fixed(2)), None);
        assert_eq!(outcome.stats.failed, 1);
        assert!(outcome.evaluations[0].result.is_ok(), "4 W point completes");
        let err = outcome.evaluations[1].result.as_ref().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tdp=18W"), "coordinates in {msg}");
        assert!(msg.contains("wl=multi-thread"), "workload in {msg}");
        assert!(msg.contains("synthetic failure"), "source in {msg}");
        assert!(std::error::Error::source(err).is_some());
    }

    #[test]
    fn build_scenarios_returns_lattice_order() {
        let grid = small_grid();
        let (scenarios, stats) = build_scenarios(&grid, &ClientSoc, Workers::Auto);
        assert_eq!(scenarios.len(), 12);
        assert_eq!(stats.scenario_builds, 12);
        assert_eq!(stats.failed, 0);
        // Spot-check against a direct construction.
        let soc = client_soc(Watts::new(4.0));
        let direct = Scenario::active_fixed_tdp_frequency(
            &soc,
            WorkloadType::MultiThread,
            ApplicationRatio::new(0.4).unwrap(),
        )
        .unwrap();
        assert_eq!(*scenarios[0].as_ref().unwrap(), direct);
        assert!(scenarios[8].as_ref().unwrap().power_state.is_some());
    }

    #[test]
    fn diff_marks_exactly_the_changed_indices() {
        let old = small_grid();
        let mut new = old.clone();
        assert_eq!(
            new.diff(&old).n_dirty_points(&new),
            0,
            "identical grids produce an empty delta"
        );
        new.tdps[1] = 19.0;
        new.ars[0] = 0.41;
        let delta = new.diff(&old);
        assert_eq!(delta.tdps, vec![1]);
        assert_eq!(delta.ars, vec![0]);
        assert!(delta.workload_types.is_empty());
        assert!(delta.idle_states.is_empty());
        // Dirty: tdp slab (wl 2 × ar 2 active + 2 idle = 6) plus the
        // ar-0 column of the clean tdp (2 wl × 1 ar = 2).
        assert_eq!(delta.n_dirty_points(&new), 8);
        assert!(delta.contains(LatticePoint::Active { tdp_idx: 1, wl_idx: 0, ar_idx: 1 }));
        assert!(delta.contains(LatticePoint::Active { tdp_idx: 0, wl_idx: 1, ar_idx: 0 }));
        assert!(!delta.contains(LatticePoint::Active { tdp_idx: 0, wl_idx: 1, ar_idx: 1 }));
        assert!(delta.contains(LatticePoint::Idle { tdp_idx: 1, state_idx: 0 }));
        assert!(!delta.contains(LatticePoint::Idle { tdp_idx: 0, state_idx: 1 }));
    }

    #[test]
    fn diff_of_resized_axis_is_fully_dirty() {
        let old = small_grid();
        let mut new = old.clone();
        new.ars.push(0.9);
        let delta = new.diff(&old);
        assert_eq!(delta.ars, vec![0, 1, 2]);
        // Every active point is dirty; idle points stay clean.
        assert_eq!(delta.n_dirty_points(&new), new.n_active());
    }

    #[test]
    fn point_index_inverts_point_at() {
        let grid = small_grid();
        for idx in 0..grid.n_points() {
            assert_eq!(grid.point_index(grid.point_at(idx)), idx);
        }
    }

    #[test]
    fn delta_matches_the_full_resweep_bit_for_bit() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let old = small_grid();
        let mut new = old.clone();
        new.tdps[0] = 6.0; // dirties one TDP slab (active + idle)
        new.idle_states[1] = PackageCState::C6; // and one idle column
        let delta = new.diff(&old);
        let full = evaluate(&pdns, &new, &ClientSoc, &config_for(Workers::Serial), None);
        let partial =
            evaluate_delta(&pdns, &new, &delta, &ClientSoc, &config_for(Workers::Fixed(3)), None);
        assert_eq!(partial.stats.failed, 0);
        assert_eq!(partial.for_pdn(1).len(), delta.n_dirty_points(&new));
        assert_eq!(partial.evaluations.len(), 2 * delta.n_dirty_points(&new));
        for eval in &partial.evaluations {
            assert!(delta.contains(eval.point), "only dirty points re-evaluate");
            let full_eval = &full.for_pdn(eval.pdn_idx)[new.point_index(eval.point)];
            assert_eq!(full_eval.point, eval.point);
            let (a, b) = (eval.result.as_ref().unwrap(), full_eval.result.as_ref().unwrap());
            assert_eq!(a.etee.get().to_bits(), b.etee.get().to_bits());
            assert_eq!(a.input_power.get().to_bits(), b.input_power.get().to_bits());
        }
        // Patching the old campaign with the delta reproduces the full
        // re-sweep everywhere (clean points were never invalidated).
        let mut patched = evaluate(&pdns, &old, &ClientSoc, &config_for(Workers::Serial), None);
        for eval in &partial.evaluations {
            let idx = eval.pdn_idx * new.n_points() + new.point_index(eval.point);
            patched.evaluations[idx] = PointEvaluation {
                pdn_idx: eval.pdn_idx,
                point: eval.point,
                result: eval.result.clone(),
            };
        }
        assert_eq!(patched.evaluations, full.evaluations);
    }

    #[test]
    fn empty_delta_evaluates_nothing() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let grid = small_grid();
        let delta = grid.diff(&grid);
        let outcome =
            evaluate_delta(&pdns, &grid, &delta, &ClientSoc, &config_for(Workers::Serial), None);
        assert!(outcome.evaluations.is_empty());
        assert!(outcome.for_pdn(0).is_empty());
        assert_eq!(outcome.stats.evaluations, 0);
        assert!(outcome.first_error().is_none());
    }

    #[test]
    fn deterministic_footer_carries_counts_and_drops_timings() {
        let ivr = IvrPdn::new(ModelParams::paper_defaults());
        let pdns: [&dyn Pdn; 1] = [&ivr];
        let outcome =
            evaluate(&pdns, &small_grid(), &ClientSoc, &config_for(Workers::Fixed(3)), None);
        let footer = outcome.stats.deterministic_footer();
        assert!(footer.starts_with("[batch] "), "{footer}");
        assert!(footer.contains("evaluations over"), "{footer}");
        assert!(footer.contains("scenario cache"), "{footer}");
        for unstable in ["workers", "wall", "ms", "stolen", "memo"] {
            assert!(!footer.contains(unstable), "{unstable} leaked into {footer}");
        }
        // Same counts regardless of pool shape or wall clock.
        let serial = evaluate(&pdns, &small_grid(), &ClientSoc, &config_for(Workers::Serial), None);
        assert_eq!(serial.stats.deterministic_footer(), footer);
    }

    #[test]
    fn par_map_preserves_order_and_visits_once() {
        let items: Vec<usize> = (0..97).collect();
        let visits = AtomicUsize::new(0);
        let out = par_map(&items, Workers::Fixed(5), |i, &x| {
            visits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(visits.load(Ordering::Relaxed), 97);
    }

    #[test]
    fn idle_workers_steal_from_a_stalled_range() {
        // Worker 0 owns items 0..10 and its first item blocks until every
        // other item has finished, so items 1..9 can only complete via
        // stealing. The order of the output must still be lattice order.
        let items: Vec<usize> = (0..30).collect();
        let done = AtomicUsize::new(0);
        let (out, stats) = par_map_stats(&items, Workers::Fixed(3), |i, &x| {
            if i == 0 {
                while done.load(Ordering::Relaxed) < 29 {
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::Relaxed);
            }
            x * 7
        });
        assert_eq!(out, (0..30).map(|x| x * 7).collect::<Vec<_>>());
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.worker_stolen.len(), 3);
        assert_eq!(stats.worker_idle_probes.len(), 3);
        assert!(stats.total_stolen() >= 9, "items 1..9 must be stolen: {stats:?}");
        let footer = stats.to_string();
        assert!(footer.contains("stolen"), "{footer}");
    }

    #[test]
    fn helper_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        // Worker 0 (the caller) owns item 0 and holds it until a helper
        // has run item 1, which then panics — so the panic is a helper's.
        let caller = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        let items = [0usize, 1];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, Workers::Fixed(2), |i, &x| {
                if i == 0 {
                    while !helper_ran.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    assert_ne!(std::thread::current().id(), caller, "item 1 ran on the caller");
                    helper_ran.store(true, Ordering::Release);
                    panic!("helper boom");
                }
                x
            })
        }));
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
        // The pool still serves jobs that need a helper to make progress.
        let done = AtomicUsize::new(0);
        let out = par_map(&items, Workers::Fixed(2), |i, &x| {
            if i == 0 {
                while done.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            } else {
                done.store(1, Ordering::Release);
            }
            x * 5
        });
        assert_eq!(out, vec![0, 5]);
    }

    #[test]
    fn nested_par_map_completes_bit_identically_to_serial() {
        let outer: Vec<f64> = (0..6).map(|i| 1.0 + f64::from(i) * 0.37).collect();
        let inner: Vec<f64> = (0..40).map(|i| f64::from(i).sqrt()).collect();
        let run = |workers: Workers| {
            par_map(&outer, workers, |_, &a| {
                par_map(&inner, workers, |j, &b| (a * b).sin() + j as f64 / a)
                    .iter()
                    .fold(0.0, |acc, v| acc + v)
            })
        };
        let serial = run(Workers::Serial);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [Workers::Fixed(2), Workers::Fixed(3), Workers::Auto] {
            assert_eq!(bits(&run(workers)), bits(&serial), "{workers:?}");
        }
    }

    #[test]
    fn concurrent_callers_each_match_serial() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
        let grid = small_grid();
        let serial = evaluate(&pdns, &grid, &ClientSoc, &config_for(Workers::Serial), None);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for caller in 0..4 {
                let (pdns, grid, serial, start) = (&pdns, &grid, &serial, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..25 {
                        let workers = Workers::Fixed(2 + (caller + round) % 3);
                        let got = evaluate(pdns, grid, &ClientSoc, &config_for(workers), None);
                        assert_eq!(got.evaluations, serial.evaluations, "{workers:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn serial_run_reports_zero_steal_telemetry() {
        let items: Vec<usize> = (0..5).collect();
        let (_, stats) = par_map_stats(&items, Workers::Serial, |_, &x| x);
        assert_eq!(stats.worker_stolen, vec![0]);
        assert_eq!(stats.worker_idle_probes, vec![0]);
        assert!(!stats.to_string().contains("stolen"));
    }

    #[test]
    fn workers_resolution() {
        assert_eq!(Workers::Serial.count(100), 1);
        assert_eq!(Workers::Fixed(4).count(100), 4);
        assert_eq!(Workers::Fixed(0).count(100), 1);
        assert_eq!(Workers::Fixed(8).count(3), 3, "never more workers than tasks");
        assert!(Workers::Auto.count(1000) >= 1);
    }

    #[test]
    fn client_soc_provider_matches_the_free_function() {
        let a = ClientSoc.soc_for(Watts::new(18.0));
        let b = client_soc(Watts::new(18.0));
        assert_eq!(a.tdp, b.tdp);
        // The closure blanket impl accepts the free function directly.
        fn takes_provider(p: &impl SocProvider) -> SocSpec {
            p.soc_for(Watts::new(4.0))
        }
        assert_eq!(takes_provider(&client_soc).tdp, Watts::new(4.0));
    }
}
