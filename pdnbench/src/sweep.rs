//! `sweep`: cold design-space exploration.
//!
//! Each round draws a fresh lattice (TDP and AR values uniform in the
//! paper's ranges, every active workload type, every package C-state),
//! evaluates it over all five topologies through `batch::evaluate` with
//! the memo off, and runs the Fig. 4 `validate_with` campaign (IVR, MBVR,
//! LDO) on its active points against one `ReferenceSystem` unit. The row
//! kernels, the scenario/TDP solve, and the worker pool do nearly all the
//! work; memo, trace-file, and transport code do none.

use crate::trace::span;
use crate::util::{self, Rng, SetupTimes};
use crate::{Ledger, Report};
use flexwatts::FlexWattsAuto;
use pdn_proc::{client_soc, PackageCState};
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;
use pdnspot::batch::{build_scenarios, evaluate, LatticePoint};
use pdnspot::validation::{validate_with, ReferenceSystem};
use pdnspot::{
    ClientSoc, EngineConfig, IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, ModelParams, Pdn, Scenario,
    SweepGrid, Workers,
};
use std::time::{Duration, Instant};

const TDPS_PER_ROUND: usize = 5;
const ARS_PER_ROUND: usize = 6;
/// Row-path results re-checked against per-point `Pdn::evaluate` per round.
const CHECKS_PER_ROUND: usize = 4;

/// The five topologies every workload sweeps, in `PdnId` order.
pub struct Topologies {
    pub ivr: IvrPdn,
    pub mbvr: MbvrPdn,
    pub ldo: LdoPdn,
    pub iplus: IPlusMbvrPdn,
    pub flexwatts: FlexWattsAuto,
}

impl Topologies {
    pub fn new() -> Self {
        let params = ModelParams::paper_defaults();
        Self {
            ivr: IvrPdn::new(params.clone()),
            mbvr: MbvrPdn::new(params.clone()),
            ldo: LdoPdn::new(params.clone()),
            iplus: IPlusMbvrPdn::new(params.clone()),
            flexwatts: FlexWattsAuto::new(params),
        }
    }

    pub fn all(&self) -> [&dyn Pdn; 5] {
        [&self.ivr, &self.mbvr, &self.ldo, &self.iplus, &self.flexwatts]
    }

    /// The three topologies of the paper's Fig. 4 validation.
    pub fn validated(&self) -> [&dyn Pdn; 3] {
        [&self.ivr, &self.mbvr, &self.ldo]
    }
}

/// One round's lattice: seeded TDP and AR values over every active
/// workload type and every package C-state.
pub fn round_grid(rng: &mut Rng) -> SweepGrid {
    let tdps = rng.sorted_values(TDPS_PER_ROUND, 4.0, 50.0);
    let ars = rng.sorted_values(ARS_PER_ROUND, 0.40, 0.80);
    SweepGrid::builder()
        .tdps(&tdps)
        .workload_types(&WorkloadType::ACTIVE_TYPES)
        .ars(&ars)
        .idle_states(&PackageCState::ALL)
        .build()
        .expect("seeded axes are sorted, distinct, and in range")
}

/// The scenario a lattice point names, built through the per-point
/// constructors (the reference the row path must match).
pub fn point_scenario(grid: &SweepGrid, point: LatticePoint) -> Scenario {
    match point {
        LatticePoint::Active { tdp_idx, wl_idx, ar_idx } => {
            let soc = client_soc(Watts::new(grid.tdps()[tdp_idx]));
            let ar = ApplicationRatio::new(grid.ars()[ar_idx]).expect("lattice ARs are valid");
            Scenario::active_fixed_tdp_frequency(&soc, grid.workload_types()[wl_idx], ar)
                .expect("lattice points are feasible")
        }
        LatticePoint::Idle { tdp_idx, state_idx } => Scenario::idle(
            &client_soc(Watts::new(grid.tdps()[tdp_idx])),
            grid.idle_states()[state_idx],
        ),
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let build = || (Topologies::new(), ReferenceSystem::new(util::REFERENCE_UNIT));
    let ((topos, reference), mut setup) = SetupTimes::start(seconds, build);
    let pdns = topos.all();
    let cfg = EngineConfig::builder()
        .workers(Workers::Auto)
        .build()
        .map_err(|e| format!("engine config: {e}"))?;
    let mut rng = Rng::new(seed, 0x5EE9);
    let mut ledger = Ledger::new();
    let mut report = Report::default();
    let (mut points, mut accuracy_sum, mut samples) = (0u64, 0.0, 0u64);
    let (mut lookups, mut builds, mut stolen) = (0usize, 0usize, 0usize);
    let (mut worker_busy, mut worker_capacity) = (Duration::ZERO, Duration::ZERO);
    let mut ops = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        setup.sample(build);
        let grid = round_grid(&mut rng);
        let active = SweepGrid::active(grid.tdps(), grid.workload_types(), grid.ars())
            .map_err(|e| format!("active grid: {e}"))?;

        let start = Instant::now();
        let outcome = span("batch", || evaluate(&pdns, &grid, &ClientSoc, &cfg, None));
        let (scenarios, scenario_stats) =
            span("scenario", || build_scenarios(&active, &ClientSoc, Workers::Auto));
        let scenarios: Vec<Scenario> = scenarios.into_iter().filter_map(Result::ok).collect();
        let mut round_samples = Vec::with_capacity(3);
        for pdn in topos.validated() {
            round_samples.push(span("validation", || {
                validate_with(pdn, &reference, &scenarios, Workers::Auto)
            }));
        }
        let elapsed = start.elapsed();

        // Ledger: every evaluation lands in exactly one outcome column.
        let stats = &outcome.stats;
        let ok = outcome.evaluations.iter().filter(|e| e.result.is_ok()).count();
        let err = outcome.evaluations.len() - ok;
        ledger.check(stats.evaluations == ok + err && stats.failed == err, || {
            format!("batch: {} evaluations != {ok} ok + {err} failed", stats.evaluations)
        });
        ledger.check(stats.evaluations == pdns.len() * grid.n_points(), || {
            format!(
                "batch: {} evaluations for a {}-point lattice",
                stats.evaluations,
                grid.n_points()
            )
        });
        ledger.check(scenarios.len() + scenario_stats.failed == active.n_points(), || {
            format!("scenarios: {} built + {} failed", scenarios.len(), scenario_stats.failed)
        });
        report.attempted += (stats.evaluations + active.n_points() * round_samples.len()) as u64;
        report.failed += (err + scenario_stats.failed * round_samples.len()) as u64;
        let mut round_points = stats.evaluations as u64;
        for campaign in round_samples {
            match campaign {
                Ok(campaign) => {
                    accuracy_sum += campaign.samples.iter().map(|s| s.accuracy()).sum::<f64>();
                    samples += campaign.samples.len() as u64;
                    round_points += campaign.samples.len() as u64;
                }
                Err(_) => report.failed += scenarios.len() as u64,
            }
        }

        // Output check: the row path equals per-point evaluation bit for bit.
        for _ in 0..CHECKS_PER_ROUND {
            let eval = &outcome.evaluations[rng.below(outcome.evaluations.len())];
            let direct = pdns[eval.pdn_idx].evaluate(&point_scenario(&grid, eval.point));
            let equal = match (&eval.result, &direct) {
                (Ok(a), Ok(b)) => util::evaluations_bit_equal(a, b),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !equal {
                report.wrong += 1;
                report.failed += 1;
            }
        }

        lookups += stats.scenario_lookups;
        builds += stats.scenario_builds;
        stolen += stats.total_stolen();
        worker_busy += stats.worker_wall.iter().sum::<Duration>();
        worker_capacity += stats.wall * stats.workers as u32;
        report.program_time += elapsed;
        points += round_points;
        ops.push((round_points as f64, util::ms(elapsed)));
    }

    let wall = report.program_time.as_secs_f64();
    report.setup_s = setup.median();
    let p99_whole;
    (report.throughput_per_s, report.p50_ms, report.p99_ms, p99_whole) = util::summarize(&ops);
    report.model_error_pct = 100.0 * (1.0 - accuracy_sum / samples.max(1) as f64);
    report.ledgers_closed = ledger.closed();
    report.counters = vec![
        ("scenario.cache_hit_ratio", (lookups - builds) as f64 / lookups.max(1) as f64),
        ("batch.busy_ratio", worker_busy.as_secs_f64() / worker_capacity.as_secs_f64().max(1e-12)),
        ("batch.stolen", stolen as f64),
    ];
    report.notes = vec![
        format!(
            "{} rounds, {points} design points ({samples} validation samples) in {wall:.3} s",
            ops.len()
        ),
        format!(
            "p99_ms {:.4} is the median of per-window p99s; the whole-run p99 is {p99_whole:.4} ms",
            report.p99_ms
        ),
        ledger.note(),
    ];
    Ok(report)
}
