//! `explore`: warm, iterative design-space exploration through one shared
//! `MemoCache` that starts empty.
//!
//! A seeded session draws lattices from a fixed pool of axis values, so
//! successive campaigns overlap, and mixes four operations:
//!
//! * **re-sweep** — `surfaces` over a fresh pool lattice;
//! * **edit** — one axis value of the current lattice changes and
//!   `surfaces_delta` patches the current surfaces in place;
//! * **crossover** — `crossover` between a topology pair at a pool AR;
//! * **sample** — `EteeSurface::sample_many` queries on the current
//!   surfaces.
//!
//! The memo, delta, and crossover layers do most of the work here and the
//! row kernels little: a memo change shows on this workload and should
//! not move `sweep`.

use crate::sweep::Topologies;
use crate::trace::span;
use crate::util::{self, Rng, SetupTimes};
use crate::{Ledger, Report};
use pdn_units::ApplicationRatio;
use pdn_workload::WorkloadType;
use pdnspot::batch::build_scenarios;
use pdnspot::sweep::{crossover, surfaces, surfaces_delta, Crossover, EteeSurface};
use pdnspot::validation::{validate_with, ReferenceSystem};
use pdnspot::{BatchStats, ClientSoc, EngineConfig, Pdn, Scenario, SweepGrid, Workers};
use std::time::{Duration, Instant};

/// The session's axis-value pools; every lattice draws from these.
const TDP_POOL: [f64; 15] =
    [4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0, 21.0, 25.0, 28.0, 32.0, 36.0, 40.0, 45.0, 50.0];
const AR_POOL: [f64; 9] = [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80];
const LATTICE_TDPS: usize = 6;
const LATTICE_ARS: usize = 6;
const SAMPLE_QUERIES: usize = 256;
/// One in this many operations is re-run without the memo (or, for an
/// edit, as a full re-sweep) and compared bit for bit.
const CHECK_ONE_IN: usize = 4;

fn pool_grid(rng: &mut Rng) -> SweepGrid {
    let tdps = rng.subset(&TDP_POOL, LATTICE_TDPS);
    let ars = rng.subset(&AR_POOL, LATTICE_ARS);
    SweepGrid::active(&tdps, &WorkloadType::ACTIVE_TYPES, &ars).expect("pool axes are valid")
}

/// Replaces one TDP or AR of `grid` with an unused pool value that keeps
/// the axis sorted. `None` when the drawn axis has no such value.
fn edited(grid: &SweepGrid, rng: &mut Rng) -> Option<SweepGrid> {
    let edit_tdp = rng.below(2) == 0;
    let (axis, pool): (&[f64], &[f64]) =
        if edit_tdp { (grid.tdps(), &TDP_POOL) } else { (grid.ars(), &AR_POOL) };
    let i = rng.below(axis.len());
    let lo = if i == 0 { f64::NEG_INFINITY } else { axis[i - 1] };
    let hi = axis.get(i + 1).copied().unwrap_or(f64::INFINITY);
    let options: Vec<f64> =
        pool.iter().copied().filter(|&v| v > lo && v < hi && v != axis[i]).collect();
    if options.is_empty() {
        return None;
    }
    let mut new_axis = axis.to_vec();
    new_axis[i] = options[rng.below(options.len())];
    let (tdps, ars) =
        if edit_tdp { (&new_axis[..], grid.ars()) } else { (grid.tdps(), &new_axis[..]) };
    Some(SweepGrid::active(tdps, grid.workload_types(), ars).expect("edited pool axes are valid"))
}

fn surfaces_bit_equal(a: &[EteeSurface], b: &[EteeSurface]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.pdn == y.pdn
                && x.workload_type == y.workload_type
                && bits(&x.tdps) == bits(&y.tdps)
                && bits(&x.ars) == bits(&y.ars)
                && bits(&x.values) == bits(&y.values)
        })
}

fn crossover_bits(c: &Crossover) -> (u8, u64) {
    match c {
        Crossover::AlwaysFirst => (0, 0),
        Crossover::AlwaysSecond => (1, 0),
        Crossover::At(tdp) => (2, tdp.get().to_bits()),
    }
}

/// Counters accumulated over one session.
#[derive(Default)]
struct Session {
    points: u64,
    ops: [u64; 4],
    batch_lookups: usize,
    batch_builds: usize,
    stolen: usize,
    worker_busy: Duration,
    worker_capacity: Duration,
    dirty_evals: usize,
    edit_full_evals: usize,
    crossover_probes: u64,
}

impl Session {
    fn absorb(&mut self, stats: &BatchStats) {
        self.batch_lookups += stats.scenario_lookups;
        self.batch_builds += stats.scenario_builds;
        self.stolen += stats.total_stolen();
        self.worker_busy += stats.worker_wall.iter().sum::<Duration>();
        self.worker_capacity += stats.wall * stats.workers as u32;
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let cfg = EngineConfig::builder()
        .workers(Workers::Auto)
        .build()
        .map_err(|e| format!("engine config: {e}"))?;
    let build =
        || (Topologies::new(), cfg.memo_cache(), ReferenceSystem::new(util::REFERENCE_UNIT));
    let ((topos, memo, reference), mut setup) = SetupTimes::start(seconds, build);
    let pdns = topos.all();
    let pairs: [(&dyn Pdn, &dyn Pdn); 4] =
        [(pdns[1], pdns[0]), (pdns[2], pdns[0]), (pdns[3], pdns[0]), (pdns[4], pdns[1])];
    let mut rng = Rng::new(seed, 0xE291);
    let mut ledger = Ledger::new();
    let mut report = Report::default();
    let mut session = Session::default();
    let mut ops = Vec::new();

    let fail = |report: &mut Report, n: u64, wrong: bool| {
        report.failed += n;
        if wrong {
            report.wrong += n;
        }
    };

    let mut grid = pool_grid(&mut rng);
    let mut current: Option<Vec<EteeSurface>> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        setup.sample(build);
        let points_before = session.points;
        let draw = rng.f64();
        let check = rng.below(CHECK_ONE_IN) == 0;
        // The first operation, and any edit without an editable axis value,
        // is a re-sweep.
        let next = match (&current, draw) {
            (Some(_), d) if d < 0.35 => edited(&grid, &mut rng).map(|g| (1, g)),
            (Some(_), d) if d < 0.60 => Some((2, grid.clone())),
            (Some(_), d) if d < 0.80 => Some((3, grid.clone())),
            _ => None,
        };
        let (op, target) = next.unwrap_or_else(|| (0, pool_grid(&mut rng)));
        let expected_evals = pdns.len() * target.n_points();
        let start;
        let elapsed;
        match op {
            0 | 1 => {
                start = Instant::now();
                let result = if op == 0 {
                    span("sweep", || surfaces(&pdns, &target, &ClientSoc, &cfg, Some(&memo)))
                } else {
                    let mut patched = current.clone().expect("an edit follows a sweep");
                    let delta = target.diff(&grid);
                    span("sweep", || {
                        surfaces_delta(
                            &pdns,
                            &target,
                            &delta,
                            &mut patched,
                            &ClientSoc,
                            &cfg,
                            Some(&memo),
                        )
                    })
                    .map(|stats| (patched, stats))
                };
                elapsed = start.elapsed();
                match result {
                    Ok((surfs, stats)) => {
                        // Ledger: every evaluation of the call is accounted.
                        let expected = if op == 0 {
                            expected_evals
                        } else {
                            pdns.len() * target.diff(&grid).n_dirty_points(&target)
                        };
                        ledger.check(stats.evaluations == expected + stats.failed, || {
                            format!(
                                "explore op {op}: {} evaluations != {expected} ok + {} failed",
                                stats.evaluations, stats.failed
                            )
                        });
                        if op == 1 {
                            session.dirty_evals += stats.evaluations;
                            session.edit_full_evals += expected_evals;
                        }
                        session.absorb(&stats);
                        if check {
                            // The patched (or memo-served) surfaces must equal
                            // a memo-free full re-sweep bit for bit.
                            let full = surfaces(&pdns, &target, &ClientSoc, &cfg, None)
                                .map_err(|e| format!("reference re-sweep: {e}"))?;
                            if !surfaces_bit_equal(&surfs, &full.0) {
                                fail(&mut report, expected_evals as u64, true);
                            }
                        }
                        current = Some(surfs);
                        grid = target;
                    }
                    Err(_) => fail(&mut report, expected_evals as u64, false),
                }
                report.attempted += expected_evals as u64;
                session.points += expected_evals as u64;
            }
            2 => {
                let (a, b) = pairs[rng.below(pairs.len())];
                let wl = WorkloadType::ACTIVE_TYPES[rng.below(3)];
                let ar = ApplicationRatio::new(AR_POOL[rng.below(AR_POOL.len())])
                    .expect("pool ARs are valid");
                let before = memo.stats().lookups();
                start = Instant::now();
                let found = span("sweep", || {
                    crossover(a, b, wl, ar, (4.0, 50.0), &ClientSoc, &cfg, Some(&memo))
                });
                elapsed = start.elapsed();
                let probes = memo.stats().lookups() - before;
                session.crossover_probes += probes;
                session.points += probes;
                report.attempted += probes;
                match found {
                    Ok(found) if check => {
                        let direct = crossover(a, b, wl, ar, (4.0, 50.0), &ClientSoc, &cfg, None)
                            .map_err(|e| format!("reference crossover: {e}"))?;
                        if crossover_bits(&found) != crossover_bits(&direct) {
                            fail(&mut report, probes, true);
                        }
                    }
                    Ok(_) => {}
                    Err(_) => fail(&mut report, probes, false),
                }
            }
            _ => {
                let surfs = current.as_ref().expect("a sample follows a sweep");
                let surface = &surfs[rng.below(surfs.len())];
                let (t, a) = (grid.tdps(), grid.ars());
                let queries: Vec<(f64, f64)> = (0..SAMPLE_QUERIES)
                    .map(|_| (rng.range(t[0], t[t.len() - 1]), rng.range(a[0], a[a.len() - 1])))
                    .collect();
                start = Instant::now();
                let values = span("sweep", || surface.sample_many(&queries));
                elapsed = start.elapsed();
                let missing = values.iter().filter(|v| v.is_none()).count() as u64;
                fail(&mut report, missing, false);
                report.attempted += queries.len() as u64;
                session.points += queries.len() as u64;
            }
        }
        session.ops[op] += 1;
        report.program_time += elapsed;
        ops.push(((session.points - points_before) as f64, util::ms(elapsed)));
    }

    // Model error of the session's universe: the whole pool lattice.
    let pool = SweepGrid::active(&TDP_POOL, &WorkloadType::ACTIVE_TYPES, &AR_POOL)
        .expect("pool axes are valid");
    let (scenarios, _) = build_scenarios(&pool, &ClientSoc, Workers::Auto);
    let scenarios: Vec<Scenario> = scenarios.into_iter().filter_map(Result::ok).collect();
    let (mut accuracy_sum, mut samples) = (0.0, 0usize);
    for pdn in topos.validated() {
        let campaign = validate_with(pdn, &reference, &scenarios, Workers::Auto)
            .map_err(|e| format!("model validation: {e}"))?;
        accuracy_sum += campaign.samples.iter().map(|s| s.accuracy()).sum::<f64>();
        samples += campaign.samples.len();
    }

    let memo_stats = memo.stats();
    let wall = report.program_time.as_secs_f64();
    report.setup_s = setup.median();
    let p99_whole;
    (report.throughput_per_s, report.p50_ms, report.p99_ms, p99_whole) = util::summarize(&ops);
    report.model_error_pct = 100.0 * (1.0 - accuracy_sum / samples.max(1) as f64);
    report.ledgers_closed = ledger.closed();
    report.counters = vec![
        (
            "scenario.cache_hit_ratio",
            (session.batch_lookups - session.batch_builds) as f64
                / session.batch_lookups.max(1) as f64,
        ),
        (
            "batch.busy_ratio",
            session.worker_busy.as_secs_f64() / session.worker_capacity.as_secs_f64().max(1e-12),
        ),
        ("batch.stolen", session.stolen as f64),
        ("memo.hit_ratio", memo_stats.hit_rate()),
        ("memo.evictions", memo_stats.evictions as f64),
        ("delta.dirty_ratio", session.dirty_evals as f64 / session.edit_full_evals.max(1) as f64),
        ("crossover.probes", session.crossover_probes as f64),
    ];
    report.notes = vec![
        format!(
            "{} ops (re-sweep {}, edit {}, crossover {}, sample {}), {} design points in {wall:.3} s",
            ops.len(),
            session.ops[0],
            session.ops[1],
            session.ops[2],
            session.ops[3],
            session.points
        ),
        format!(
            "memo: {} hits / {} lookups, {} evictions, {} entries",
            memo_stats.hits,
            memo_stats.lookups(),
            memo_stats.evictions,
            memo.len()
        ),
        format!(
            "p99_ms {:.4} is the median of per-window p99s; the whole-run p99 is {p99_whole:.4} ms",
            report.p99_ms
        ),
        ledger.note(),
    ];
    Ok(report)
}
