//! The FlexWatts runtime: the closed loop of sensors → predictor → mode
//! switch → power delivery, simulated over workload traces.
//!
//! Every evaluation interval (default 10 ms, §6) the runtime gathers the
//! PMU's estimates (activity-sensor AR, workload type from domain states,
//! package power state, configured TDP), asks the predictor for the best
//! mode, and — when the answer changes — executes the package-C6 switch
//! flow, paying its ≈ 94 µs of enforced idleness. Platform energy is
//! integrated through PDNspot in whichever mode is active.

use crate::faults::Campaign;
use crate::predictor::{ModePredictor, PredictorInputs};
use crate::protection::MaxCurrentProtection;
use crate::switchflow::{ModeSwitchFlow, SwitchTransition};
use crate::topology::{FlexWattsPdn, PdnMode};
use pdn_pmu::{classify_workload, ActivitySensorBank, CStateDriver};
use pdn_proc::{DomainKind, DomainTable, PackageCState, SocSpec};
use pdn_units::{Amps, ApplicationRatio, Seconds, Volts, Watts};
use pdn_workload::{Phase, Trace, TraceInterval, WorkloadType};
use pdnspot::batch::{par_map, Workers};
use pdnspot::{ModelParams, Pdn, PdnError, PdnEvaluation, RowStage, Scenario};
use std::collections::BTreeMap;

/// Configuration of a runtime simulation.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Seed for the activity-sensor calibration.
    pub sensor_seed: u64,
    /// The mode the platform boots in.
    pub initial_mode: PdnMode,
    /// Whether the §6 maximum-current protection may override LDO-Mode
    /// decisions (on by default; the shared V_IN rail is sized assuming
    /// it).
    pub max_current_protection: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            sensor_seed: 0x0F1E_2D3C,
            initial_mode: PdnMode::IvrMode,
            max_current_protection: true,
        }
    }
}

/// The outcome of simulating a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Total simulated time (including switch idleness).
    pub total_time: Seconds,
    /// Total energy drawn from the battery/PSU, in joules.
    pub energy_joules: f64,
    /// Energy an oracle that always runs the better mode (with free
    /// switches) would have drawn — the predictor-quality baseline.
    pub oracle_energy_joules: f64,
    /// Every executed mode switch.
    pub switches: Vec<SwitchTransition>,
    /// Time spent in each mode.
    pub time_in_mode: BTreeMap<PdnMode, Seconds>,
    /// Number of predictor evaluations performed.
    pub predictor_evaluations: u64,
    /// Fraction of predictor decisions that matched the oracle's mode.
    pub prediction_accuracy: f64,
    /// Number of times the maximum-current protection overrode an
    /// LDO-Mode decision.
    pub protection_overrides: u64,
    /// Mode-switch attempts that failed (always 0 on a clean run; faulted
    /// runs populate it so [`energy_efficiency_vs_oracle`] can be
    /// compared between clean and faulted campaigns).
    ///
    /// [`energy_efficiency_vs_oracle`]: Self::energy_efficiency_vs_oracle
    pub switch_failures: u64,
    /// Retry attempts spent recovering failed mode switches (0 on a clean
    /// run).
    pub switch_retries: u64,
}

impl RuntimeReport {
    /// Average platform power over the trace.
    pub fn average_power(&self) -> Watts {
        if self.total_time.get() <= 0.0 {
            return Watts::ZERO;
        }
        Watts::new(self.energy_joules / self.total_time.get())
    }

    /// Total time lost to mode-switch flows.
    pub fn switch_overhead(&self) -> Seconds {
        self.switches.iter().map(SwitchTransition::total).sum()
    }

    /// How close the runtime's energy came to the oracle's
    /// (1.0 = perfect; the switch overhead and mispredictions cost the
    /// difference).
    pub fn energy_efficiency_vs_oracle(&self) -> f64 {
        if self.energy_joules <= 0.0 {
            return 1.0;
        }
        self.oracle_energy_joules / self.energy_joules
    }
}

/// The pure (order-insensitive) part of one trace interval: both modes'
/// input powers, the LDO-Mode `V_IN` rail current (what the
/// maximum-current protection watches), the LDO-Mode `V_IN` level (the
/// highest powered wide-range domain voltage, what a switch slews to),
/// and the PMU's domain-state workload classification. Everything the
/// serial pass reads, and nothing it does not: no scenario survives the
/// prepare.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedInterval {
    pub(crate) power_ivr: Watts,
    pub(crate) power_ldo: Watts,
    pub(crate) vin_ldo: Amps,
    pub(crate) ldo_vin_level: Volts,
    pub(crate) estimated_type: WorkloadType,
}

impl PreparedInterval {
    /// The record of a scenario evaluated in both modes.
    fn new(
        scenario: &Scenario,
        ivr: &PdnEvaluation,
        ldo: &PdnEvaluation,
        estimated_type: WorkloadType,
    ) -> Self {
        Self {
            power_ivr: ivr.input_power,
            power_ldo: ldo.input_power,
            vin_ldo: ldo.rails.iter().find(|r| r.name == "V_IN").map_or(Amps::ZERO, |r| r.current),
            ldo_vin_level: scenario
                .max_voltage_among(&DomainKind::WIDE_RANGE)
                .unwrap_or(Volts::new(0.85)),
            estimated_type,
        }
    }

    /// The interval's input power in `mode`.
    pub(crate) fn power(&self, mode: PdnMode) -> Watts {
        match mode {
            PdnMode::IvrMode => self.power_ivr,
            PdnMode::LdoMode => self.power_ldo,
        }
    }
}

/// Most intervals in one prepare tile: the unit
/// [`FlexWattsRuntime::prepare_batch`] hands the worker pool, and the
/// span within which the active intervals of one workload type share a
/// row build and a [`RowStage`].
const PREPARE_TILE: usize = 256;

/// The FlexWatts runtime simulator.
#[derive(Debug)]
pub struct FlexWattsRuntime {
    pub(crate) soc: SocSpec,
    pub(crate) ivr_mode: FlexWattsPdn,
    pub(crate) ldo_mode: FlexWattsPdn,
    pub(crate) predictor: ModePredictor,
    pub(crate) switch_flow: ModeSwitchFlow,
    pub(crate) protection: MaxCurrentProtection,
    pub(crate) config: RuntimeConfig,
    /// Each mode's input power with the package in C6 — what a mode
    /// switch burns while its flow runs — indexed by [`PdnMode`].
    c6_power: [Result<Watts, PdnError>; 2],
    /// The prepared record of an idle interval in each package C-state,
    /// indexed by [`PackageCState`]: an idle scenario depends only on the
    /// SoC and the state, so every idle interval copies its entry.
    idle: [Result<PreparedInterval, PdnError>; PackageCState::ALL.len()],
}

impl FlexWattsRuntime {
    /// Creates a runtime for one SoC.
    pub fn new(
        soc: SocSpec,
        params: ModelParams,
        predictor: ModePredictor,
        config: RuntimeConfig,
    ) -> Self {
        let ivr_mode = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ldo_mode = FlexWattsPdn::new(params, PdnMode::LdoMode);
        let protection = MaxCurrentProtection::from_rail_sizing(&ivr_mode, &soc)
            .expect("rail sizing of the client SoC is always feasible");
        let idle_evals = PackageCState::ALL.map(|state| {
            let scenario = Scenario::idle(&soc, state);
            let evals = [&ivr_mode, &ldo_mode].map(|pdn| pdn.evaluate(&scenario));
            (scenario, evals)
        });
        let c6_power = idle_evals[PackageCState::C6 as usize]
            .1
            .each_ref()
            .map(|eval| eval.as_ref().map(|e| e.input_power).map_err(Clone::clone));
        let idle = idle_evals.map(|(scenario, [ivr, ldo])| {
            Ok(PreparedInterval::new(&scenario, &ivr?, &ldo?, WorkloadType::BatteryLife))
        });
        Self {
            ldo_mode,
            c6_power,
            idle,
            switch_flow: ModeSwitchFlow::new(),
            ivr_mode,
            protection,
            predictor,
            soc,
            config,
        }
    }

    /// The input power of `mode` with the package in C6 (computed once
    /// at construction; evaluation errors surface at the first switch,
    /// as they would evaluating on the spot).
    pub(crate) fn c6_power(&self, mode: PdnMode) -> Result<Watts, PdnError> {
        self.c6_power[mode as usize].clone()
    }

    /// The `V_IN` level of a mode (used for switch slew accounting).
    pub(crate) fn vin_level(&self, mode: PdnMode, prep: &PreparedInterval) -> Volts {
        match mode {
            PdnMode::IvrMode => self.ivr_mode.params().vin_level,
            PdnMode::LdoMode => prep.ldo_vin_level,
        }
    }

    /// Prepares a batch of intervals: the pure per-interval state (both
    /// modes' evaluations, the expensive part of an interval, reused
    /// across its evaluation chunks), index-aligned with `intervals`.
    ///
    /// The batch splits into equal tiles of at most [`PREPARE_TILE`]
    /// intervals, at least one per worker, fanned out over the worker
    /// pool. Inside a tile the active intervals group into one row per
    /// workload type; each row builds its scenarios with one
    /// [`Scenario::active_fixed_tdp_row`] call and evaluates both
    /// FlexWatts modes through [`Pdn::evaluate_row`] with one shared
    /// [`RowStage`]. Within a row every scenario shares the SoC, workload
    /// type, virus tables and virus margin — the row-invariant fields a
    /// `RowStage` leaves out of its keys — so every value is bit-identical
    /// to building and evaluating each interval on its own, for any
    /// tiling. An idle interval copies its C-state's entry, prepared once
    /// per runtime by [`FlexWattsRuntime::new`].
    ///
    /// # Errors
    ///
    /// The first error in trace order: the error a per-interval loop
    /// would have stopped at.
    pub(crate) fn prepare_batch(
        &self,
        intervals: &[TraceInterval],
        workers: Workers,
    ) -> Result<Vec<PreparedInterval>, PdnError> {
        let n_workers = workers.count(intervals.len());
        let tile_len = intervals.len().div_ceil(n_workers).clamp(1, PREPARE_TILE);
        let tiles: Vec<&[TraceInterval]> = intervals.chunks(tile_len).collect();
        let mut prepared = Vec::with_capacity(intervals.len());
        for tile in par_map(&tiles, Workers::Fixed(n_workers), |_, tile| self.prepare_tile(tile)) {
            prepared.extend(tile?);
        }
        Ok(prepared)
    }

    /// One tile of [`prepare_batch`](Self::prepare_batch).
    fn prepare_tile(&self, tile: &[TraceInterval]) -> Result<Vec<PreparedInterval>, PdnError> {
        let mut prepared: Vec<Option<PreparedInterval>> = vec![None; tile.len()];
        // The tile's earliest failing interval and its error.
        let mut first_error: Option<(usize, PdnError)> = None;
        let mut fail = |at: usize, e: PdnError| {
            if first_error.as_ref().is_none_or(|(first, _)| at < *first) {
                first_error = Some((at, e));
            }
        };
        let mut rows: [Vec<usize>; WorkloadType::ALL.len()] = Default::default();
        for (i, interval) in tile.iter().enumerate() {
            match interval.phase {
                Phase::Active { workload_type, .. } => rows[workload_type as usize].push(i),
                Phase::Idle(state) => match &self.idle[state as usize] {
                    Ok(idle) => prepared[i] = Some(*idle),
                    Err(e) => fail(i, e.clone()),
                },
            }
        }
        for (members, &workload_type) in rows.iter().zip(&WorkloadType::ALL) {
            if members.is_empty() {
                continue;
            }
            let ars: Vec<ApplicationRatio> = members.iter().map(|&i| tile[i].phase.ar()).collect();
            let scenarios = match Scenario::active_fixed_tdp_row(&self.soc, workload_type, &ars) {
                Ok(scenarios) => scenarios,
                Err(e) => {
                    fail(members[0], e);
                    continue;
                }
            };
            let stage = RowStage::new();
            let ivr = self.ivr_mode.evaluate_row(&scenarios, &stage);
            let ldo = self.ldo_mode.evaluate_row(&scenarios, &stage);
            for (((&i, scenario), ivr), ldo) in members.iter().zip(&scenarios).zip(ivr).zip(ldo) {
                match (ivr, ldo) {
                    (Ok(ivr), Ok(ldo)) => {
                        let powered = DomainTable::from_fn(|k| scenario.load(k).powered);
                        let estimated_type = classify_workload(&powered, None);
                        prepared[i] =
                            Some(PreparedInterval::new(scenario, &ivr, &ldo, estimated_type));
                    }
                    (Err(e), _) | (Ok(_), Err(e)) => fail(i, e),
                }
            }
        }
        match first_error {
            Some((_, e)) => Err(e),
            None => Ok(prepared
                .into_iter()
                .map(|p| p.expect("every interval is prepared or failed"))
                .collect()),
        }
    }

    /// Simulates a trace, returning the energy/switch report.
    ///
    /// Equivalent to [`run_with`](Self::run_with) on the full worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn run(&self, trace: &Trace) -> Result<RuntimeReport, PdnError> {
        self.run_with(trace, Workers::Auto)
    }

    /// Simulates a trace, batching the pure per-interval work on the
    /// batch engine's worker pool.
    ///
    /// Scenario construction and the two per-interval mode evaluations
    /// are pure, so they run row-batched in parallel tiles
    /// (`prepare_batch`); the stateful pass —
    /// activity-sensor estimates (an ordered jitter stream), predictor
    /// hysteresis, and mode-switch accounting — then replays serially
    /// in trace order, which keeps the report bit-identical for any
    /// [`Workers`] choice. Every run draws from a freshly calibrated
    /// sensor bank, so repeated runs of one trace are bit-identical
    /// too.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn run_with(&self, trace: &Trace, workers: Workers) -> Result<RuntimeReport, PdnError> {
        let prepared = self.prepare_batch(trace.intervals(), workers)?;
        let sensors = ActivitySensorBank::new(self.config.sensor_seed);
        let mut state = ReplayState::new(self);
        for (interval, prep) in trace.intervals().iter().zip(&prepared) {
            state.step(self, &sensors, interval, prep, None)?;
        }
        Ok(state.finish())
    }
}

/// The serial, stateful half of a trace replay: sensor draws, predictor
/// hysteresis, protection overrides, mode switches, and energy/time
/// accounting. One implementation serves [`FlexWattsRuntime::run_with`],
/// the streaming checkpointed replay ([`crate::replay`]) and fault
/// campaigns ([`crate::faults`]) — sharing the loop is what makes a
/// resumed streaming replay bitwise equal to an in-memory run, and an
/// empty-plan campaign equal to a clean one.
///
/// Every field is a plain accumulator (or restorable counter), so a
/// checkpoint that snapshots them between intervals captures the entire
/// replay state: stepping interval `k+1` after a restore performs
/// exactly the floating-point additions the uninterrupted run would.
#[derive(Debug)]
pub(crate) struct ReplayState {
    pub(crate) mode: PdnMode,
    pub(crate) energy: f64,
    pub(crate) oracle_energy: f64,
    pub(crate) switches: Vec<SwitchTransition>,
    pub(crate) time_in_mode: BTreeMap<PdnMode, Seconds>,
    pub(crate) driver: CStateDriver,
    pub(crate) evaluations: u64,
    pub(crate) correct_predictions: u64,
    pub(crate) protection_overrides: u64,
    pub(crate) total_time: Seconds,
    pub(crate) eval_interval: Seconds,
    pub(crate) since_eval: Seconds,
}

impl ReplayState {
    /// Boot state for a runtime: initial mode, zeroed ledgers, and an
    /// evaluation due at the first interval.
    pub(crate) fn new(rt: &FlexWattsRuntime) -> Self {
        let eval_interval = rt.predictor.evaluation_interval();
        Self {
            mode: rt.config.initial_mode,
            energy: 0.0,
            oracle_energy: 0.0,
            switches: Vec::new(),
            time_in_mode: PdnMode::ALL.iter().map(|&m| (m, Seconds::ZERO)).collect(),
            driver: CStateDriver::new(),
            evaluations: 0,
            correct_predictions: 0,
            protection_overrides: 0,
            total_time: Seconds::ZERO,
            eval_interval,
            since_eval: eval_interval, // evaluate at trace start
        }
    }

    /// Replays one interval: draws the PMU inputs (the sensor estimate
    /// is an ordered stream, so it happens here, not in the prepare
    /// fan-out), walks the evaluation-cadence chunks, and accumulates
    /// energy and time. Evaluates no PDN: the protection reads the
    /// prepared `V_IN` current and a switch the runtime's C6 powers.
    ///
    /// The same pass serves fault campaigns: with a [`Campaign`] the
    /// sensor reading goes through its plausibility filter, a `V_IN`
    /// droop raises the current the protection sees, a latched watchdog
    /// pins IVR-Mode, and mode changes retry the plan's flow failures;
    /// the campaign's ledgers record every charge beside these
    /// accumulators.
    pub(crate) fn step(
        &mut self,
        rt: &FlexWattsRuntime,
        sensors: &ActivitySensorBank,
        interval: &TraceInterval,
        prep: &PreparedInterval,
        mut campaign: Option<&mut Campaign>,
    ) -> Result<(), PdnError> {
        let pmu_inputs = match interval.phase {
            Phase::Active { ar, .. } => {
                let reading = sensors.estimate(DomainKind::Core0, ar);
                PredictorInputs {
                    tdp: rt.soc.tdp,
                    ar: match campaign.as_deref_mut() {
                        Some(c) => c.sense(reading),
                        None => reading,
                    },
                    workload_type: prep.estimated_type,
                    power_state: None,
                }
            }
            Phase::Idle(state) => {
                if let Some(c) = campaign.as_deref_mut() {
                    c.sensor_idle();
                }
                PredictorInputs {
                    tdp: rt.soc.tdp,
                    ar: interval.phase.ar(),
                    workload_type: WorkloadType::BatteryLife,
                    power_state: Some(state),
                }
            }
        };
        // The LDO-Mode V_IN current the protection watches.
        let vin = campaign.as_deref().map_or(prep.vin_ldo, |c| c.effective_vin(prep.vin_ldo));
        let protected = rt.config.max_current_protection;

        let oracle_power = prep.power_ivr.min(prep.power_ldo);
        let oracle_mode =
            if prep.power_ivr <= prep.power_ldo { PdnMode::IvrMode } else { PdnMode::LdoMode };

        let mut remaining = interval.duration;
        while remaining.get() > 0.0 {
            if self.since_eval >= self.eval_interval {
                self.since_eval = Seconds::ZERO;
                self.evaluations += 1;
                let preferred = if campaign.as_deref().is_some_and(Campaign::latched) {
                    PdnMode::IvrMode
                } else {
                    rt.predictor.predict_with_hysteresis(pmu_inputs, self.mode)
                };
                let (decided, forced) = if protected {
                    rt.protection.enforce(preferred, vin)
                } else {
                    (preferred, false)
                };
                if forced {
                    self.protection_overrides += 1;
                }
                if decided == oracle_mode {
                    self.correct_predictions += 1;
                }
                if decided != self.mode {
                    match campaign.as_deref_mut() {
                        Some(c) => c.change_mode(self, rt, decided, forced, prep)?,
                        None => self.switch(rt, decided, prep, None)?,
                    }
                }
            }
            // The hardware protection loop is far faster than the
            // predictor's: LDO-Mode never executes a chunk with V_IN over
            // the trip point, even one that starts between evaluations.
            if protected && self.mode == PdnMode::LdoMode && rt.protection.would_trip(vin) {
                self.protection_overrides += 1;
                self.switch(rt, PdnMode::IvrMode, prep, campaign.as_deref_mut())?;
            }
            let chunk = remaining.min(self.eval_interval - self.since_eval);
            let power = prep.power(self.mode);
            if let Some(c) = campaign.as_deref_mut() {
                c.record_chunk(rt, self.mode, power * chunk, vin);
            }
            self.energy += power * chunk;
            self.oracle_energy += oracle_power * chunk;
            *self.time_in_mode.get_mut(&self.mode).expect("all modes present") += chunk;
            self.total_time += chunk;
            self.since_eval += chunk;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Executes the package-C6 switch flow into `to`, charging its
    /// ≈ 94 µs of C6 idleness at the new mode's C6 power (to a
    /// campaign's flow ledger too).
    pub(crate) fn switch(
        &mut self,
        rt: &FlexWattsRuntime,
        to: PdnMode,
        prep: &PreparedInterval,
        campaign: Option<&mut Campaign>,
    ) -> Result<(), PdnError> {
        let v_from = rt.vin_level(self.mode, prep);
        let v_to = rt.vin_level(to, prep);
        let transition = rt.switch_flow.execute(self.mode, to, v_from, v_to, &mut self.driver);
        let switch_time = transition.total();
        let c6_power = rt.c6_power(to)?;
        self.energy += c6_power * switch_time;
        self.oracle_energy += c6_power * switch_time;
        self.total_time += switch_time;
        if let Some(c) = campaign {
            c.record_flow(c6_power * switch_time, switch_time);
        }
        self.switches.push(transition);
        self.mode = to;
        Ok(())
    }

    /// Seals the accumulators into a [`RuntimeReport`].
    pub(crate) fn finish(self) -> RuntimeReport {
        RuntimeReport {
            total_time: self.total_time,
            energy_joules: self.energy,
            oracle_energy_joules: self.oracle_energy,
            switches: self.switches,
            time_in_mode: self.time_in_mode,
            predictor_evaluations: self.evaluations,
            prediction_accuracy: if self.evaluations == 0 {
                1.0
            } else {
                self.correct_predictions as f64 / self.evaluations as f64
            },
            protection_overrides: self.protection_overrides,
            switch_failures: 0,
            switch_retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;
    use pdn_workload::BatteryLifeWorkload;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn predictor() -> ModePredictor {
        ModePredictor::train(
            &ModelParams::paper_defaults(),
            &[4.0, 10.0, 18.0, 25.0, 50.0],
            &[0.4, 0.6, 0.8],
        )
        .unwrap()
    }

    fn runtime(tdp: f64) -> FlexWattsRuntime {
        FlexWattsRuntime::new(
            client_soc(Watts::new(tdp)),
            ModelParams::paper_defaults(),
            predictor(),
            RuntimeConfig::default(),
        )
    }

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn predictor_cadence_chunks_intervals_exactly() {
        let pred = predictor().with_evaluation_interval(Seconds::from_millis(10.0));
        let rt = FlexWattsRuntime::new(
            client_soc(Watts::new(4.0)),
            ModelParams::paper_defaults(),
            pred,
            RuntimeConfig::default(),
        );
        // A single 25 ms interval splits into 10 + 10 + 5 ms chunks with
        // an evaluation at the head of each.
        let trace = Trace::new(
            "cadence",
            vec![TraceInterval::active(
                Seconds::from_millis(25.0),
                WorkloadType::SingleThread,
                ar(0.6),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert_eq!(report.predictor_evaluations, 3);
        let mut expected = Seconds::from_millis(25.0);
        for t in &report.switches {
            expected += t.total();
        }
        assert_eq!(report.total_time, expected, "chunks cover the trace exactly");

        // Short intervals accumulate toward the cadence: 5 + 5 ms spans
        // one interval boundary without re-evaluating, and the next
        // interval starts exactly on the cadence.
        let trace = Trace::new(
            "accumulate",
            vec![
                TraceInterval::active(
                    Seconds::from_millis(5.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
                TraceInterval::active(
                    Seconds::from_millis(5.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
                TraceInterval::active(
                    Seconds::from_millis(1.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
            ],
        );
        let report = rt.run(&trace).unwrap();
        assert_eq!(report.predictor_evaluations, 2, "trace start + the 10 ms mark");
    }

    #[test]
    fn low_tdp_workload_settles_into_ldo_mode() {
        let rt = runtime(4.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(100.0),
                WorkloadType::SingleThread,
                ar(0.6),
            )],
        );
        let report = rt.run(&trace).unwrap();
        // Booting in IVR-Mode, the first evaluation must switch to LDO.
        assert_eq!(report.switches.len(), 1);
        assert_eq!(report.switches[0].to, PdnMode::LdoMode);
        let ldo_time = report.time_in_mode[&PdnMode::LdoMode];
        assert!(ldo_time.get() > 0.95 * report.total_time.get());
        assert!(report.prediction_accuracy > 0.9);
    }

    #[test]
    fn high_tdp_workload_stays_in_ivr_mode() {
        let rt = runtime(50.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(100.0),
                WorkloadType::MultiThread,
                ar(0.7),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.switches.is_empty(), "no reason to leave IVR-Mode at 50 W");
        assert_eq!(report.time_in_mode[&PdnMode::IvrMode], report.total_time);
    }

    #[test]
    fn bursty_trace_switches_modes_and_pays_the_latency() {
        // At 36 W: heavy bursts prefer IVR-Mode; the low-frequency active
        // state (C0MIN, e.g. between video frames) prefers LDO-Mode.
        let rt = runtime(36.0);
        let mut intervals = Vec::new();
        for _ in 0..5 {
            intervals.push(TraceInterval::active(
                Seconds::from_millis(40.0),
                WorkloadType::MultiThread,
                ar(0.8),
            ));
            intervals.push(TraceInterval::idle(
                Seconds::from_millis(40.0),
                pdn_proc::PackageCState::C0Min,
            ));
        }
        let report = rt.run(&Trace::new("bursty", intervals)).unwrap();
        assert!(report.switches.len() >= 6, "bursts must toggle the mode");
        let overhead = report.switch_overhead();
        assert!(
            (overhead.micros() - 94.0 * report.switches.len() as f64).abs()
                < 40.0 * report.switches.len() as f64,
            "each switch costs ≈ 94 µs"
        );
        // Switch overhead is a tiny fraction of a 400 ms trace.
        assert!(overhead.get() / report.total_time.get() < 0.01);
    }

    #[test]
    fn deep_idle_is_mode_neutral_so_no_thrashing() {
        // In C2–C8 the compute rails are off and SA/IO sit on dedicated
        // board rails in *both* modes, so the predictor sees (nearly)
        // equal ETEE and the hysteresis keeps the current mode — no
        // pointless switch storm while a video idles in C8.
        let rt = runtime(36.0);
        let trace = Trace::new(
            "deep-idle",
            vec![TraceInterval::idle(Seconds::from_millis(200.0), pdn_proc::PackageCState::C8)],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.switches.len() <= 1, "C8 must not toggle modes");
    }

    #[test]
    fn video_playback_runs_close_to_the_oracle() {
        let rt = runtime(18.0);
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(30);
        let report = rt.run(&trace).unwrap();
        assert!(
            report.energy_efficiency_vs_oracle() > 0.97,
            "runtime must track the oracle: {:.4}",
            report.energy_efficiency_vs_oracle()
        );
        assert!(report.average_power().get() > 0.1 && report.average_power().get() < 2.0);
    }

    #[test]
    fn protection_override_forces_ivr_mode_out_of_a_greedy_ldo_runtime() {
        // Boot a 50 W platform in LDO-Mode with a predictor whose
        // hysteresis is so large it would never leave it voluntarily,
        // then run a multi-thread power virus. The virus current on the
        // shared V_IN rail exceeds the trip point in LDO-Mode, so the
        // maximum-current protection — not the efficiency preference —
        // must override the decision and land the platform in IVR-Mode.
        let rt = FlexWattsRuntime::new(
            client_soc(Watts::new(50.0)),
            ModelParams::paper_defaults(),
            predictor().with_hysteresis(10.0),
            RuntimeConfig { initial_mode: PdnMode::LdoMode, ..RuntimeConfig::default() },
        );
        let trace = Trace::new(
            "virus",
            vec![TraceInterval::active(
                Seconds::from_millis(50.0),
                WorkloadType::MultiThread,
                ar(1.0),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.protection_overrides >= 1, "the override must fire");
        assert_eq!(report.switches.first().map(|s| s.to), Some(PdnMode::IvrMode));
        let ivr_time = report.time_in_mode[&PdnMode::IvrMode];
        assert!(
            ivr_time.get() > 0.99 * (report.total_time - report.switch_overhead()).get(),
            "after the override the trace must execute in IVR-Mode"
        );
        // Sanity: without the protection the same runtime stays in
        // LDO-Mode (the hysteresis pins it) — the switch above really is
        // the protection's doing.
        let unprotected = FlexWattsRuntime::new(
            client_soc(Watts::new(50.0)),
            ModelParams::paper_defaults(),
            predictor().with_hysteresis(10.0),
            RuntimeConfig {
                initial_mode: PdnMode::LdoMode,
                max_current_protection: false,
                ..RuntimeConfig::default()
            },
        );
        let report = unprotected.run(&trace).unwrap();
        assert!(report.switches.is_empty());
        assert_eq!(report.protection_overrides, 0);
    }

    #[test]
    fn parallel_run_matches_serial_bitwise() {
        // One runtime: every run draws a fresh sensor-jitter stream.
        let rt = runtime(18.0);
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(10);
        let serial = rt.run_with(&trace, Workers::Serial).unwrap();
        let parallel = rt.run_with(&trace, Workers::Fixed(4)).unwrap();
        assert_eq!(serial.energy_joules.to_bits(), parallel.energy_joules.to_bits());
        assert_eq!(serial.oracle_energy_joules.to_bits(), parallel.oracle_energy_joules.to_bits());
        assert_eq!(serial.switches.len(), parallel.switches.len());
        assert_eq!(serial.predictor_evaluations, parallel.predictor_evaluations);
        assert_eq!(serial.prediction_accuracy, parallel.prediction_accuracy);
        assert_eq!(
            rt.run_with(&trace, Workers::Serial).unwrap(),
            serial,
            "a rerun repeats the first run"
        );
    }

    #[test]
    fn report_accounting_is_consistent() {
        let rt = runtime(10.0);
        let trace = Trace::new(
            "mixed",
            vec![
                TraceInterval::active(Seconds::from_millis(25.0), WorkloadType::Graphics, ar(0.7)),
                TraceInterval::idle(Seconds::from_millis(25.0), pdn_proc::PackageCState::C6),
            ],
        );
        let report = rt.run(&trace).unwrap();
        let mode_time: Seconds = report.time_in_mode.values().copied().sum();
        assert!(
            (mode_time + report.switch_overhead() - report.total_time).abs().get() < 1e-9,
            "time must be fully attributed"
        );
        assert!(report.oracle_energy_joules <= report.energy_joules + 1e-12);
        assert!(report.predictor_evaluations >= 5);
    }

    /// The per-interval preparation [`FlexWattsRuntime::prepare_batch`]
    /// replaced, kept as its oracle: each interval builds its scenario
    /// with the per-point constructor and evaluates both modes on its
    /// own.
    fn oracle_prepare(rt: &FlexWattsRuntime, phase: Phase) -> Result<PreparedInterval, PdnError> {
        let (scenario, estimated_type) = match phase {
            Phase::Active { workload_type, ar } => {
                let scenario = Scenario::active_fixed_tdp_frequency(&rt.soc, workload_type, ar)?;
                let powered = DomainTable::from_fn(|k| scenario.load(k).powered);
                (scenario, classify_workload(&powered, None))
            }
            Phase::Idle(state) => (Scenario::idle(&rt.soc, state), WorkloadType::BatteryLife),
        };
        let power_ivr = rt.ivr_mode.evaluate(&scenario)?.input_power;
        let ldo = rt.ldo_mode.evaluate(&scenario)?;
        Ok(PreparedInterval {
            power_ivr,
            power_ldo: ldo.input_power,
            vin_ldo: ldo.rails.iter().find(|r| r.name == "V_IN").map_or(Amps::ZERO, |r| r.current),
            ldo_vin_level: scenario
                .max_voltage_among(&DomainKind::WIDE_RANGE)
                .unwrap_or(Volts::new(0.85)),
            estimated_type,
        })
    }

    /// The oracle over a batch: stops at the first error in trace order.
    fn oracle_batch(
        rt: &FlexWattsRuntime,
        intervals: &[TraceInterval],
    ) -> Result<Vec<PreparedInterval>, PdnError> {
        intervals.iter().map(|interval| oracle_prepare(rt, interval.phase)).collect()
    }

    /// A prepared interval as exact bits.
    fn bits(p: &PreparedInterval) -> ([u64; 4], WorkloadType) {
        let values = [p.power_ivr.get(), p.power_ldo.get(), p.vin_ldo.get(), p.ldo_vin_level.get()];
        (values.map(f64::to_bits), p.estimated_type)
    }

    fn same_bits(
        got: &Result<Vec<PreparedInterval>, PdnError>,
        want: &Result<Vec<PreparedInterval>, PdnError>,
    ) -> bool {
        match (got, want) {
            (Ok(got), Ok(want)) => got.iter().map(bits).eq(want.iter().map(bits)),
            (Err(got), Err(want)) => got == want,
            _ => false,
        }
    }

    /// One runtime per TDP of the property test, sharing one predictor.
    fn runtimes() -> &'static [FlexWattsRuntime] {
        static RTS: OnceLock<Vec<FlexWattsRuntime>> = OnceLock::new();
        RTS.get_or_init(|| {
            let predictor = predictor();
            [4.0, 18.0, 50.0]
                .map(|tdp| {
                    FlexWattsRuntime::new(
                        client_soc(Watts::new(tdp)),
                        ModelParams::paper_defaults(),
                        predictor.clone(),
                        RuntimeConfig::default(),
                    )
                })
                .into()
        })
    }

    /// A drawn interval: `kind` picks one of the three active workload
    /// types or one of the package C-states; `ar_pick` lands on the AR
    /// extremes (1e-6 only when the trace may fail) or on `ar`.
    fn interval(
        (kind, ar_pick, ar, millis): (usize, usize, f64, f64),
        may_fail: bool,
    ) -> TraceInterval {
        const ACTIVE: [WorkloadType; 3] =
            [WorkloadType::SingleThread, WorkloadType::MultiThread, WorkloadType::Graphics];
        let duration = Seconds::from_millis(millis);
        match ACTIVE.get(kind) {
            Some(&workload_type) => {
                let ar = match ar_pick {
                    0 if may_fail => 1e-6,
                    0 | 1 => 1.0,
                    _ => ar,
                };
                TraceInterval::active(duration, workload_type, ApplicationRatio::new(ar).unwrap())
            }
            None => TraceInterval::idle(duration, PackageCState::ALL[kind - ACTIVE.len()]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tiled, row-batched prepare reproduces the per-interval
        /// oracle bit for bit — or fails with the oracle's first error in
        /// trace order — on mixed traces whose lengths cross tile
        /// boundaries, for every worker count.
        #[test]
        fn prepare_batch_matches_the_per_interval_oracle(
            tdp_pick in 0usize..3,
            may_fail in 0usize..4,
            draws in vec((0usize..3 + PackageCState::ALL.len(), 0usize..12, 0.25f64..1.0, 1.0f64..30.0), 0..600),
        ) {
            let rt = &runtimes()[tdp_pick];
            let intervals: Vec<TraceInterval> =
                draws.into_iter().map(|d| interval(d, may_fail == 0)).collect();
            let want = oracle_batch(rt, &intervals);
            for workers in [Workers::Serial, Workers::Fixed(2), Workers::Fixed(3)] {
                let got = rt.prepare_batch(&intervals, workers);
                prop_assert!(
                    same_bits(&got, &want),
                    "{} intervals at {} W on {:?}: {:?} != oracle {:?}",
                    intervals.len(),
                    rt.soc.tdp.get(),
                    workers,
                    got.as_ref().err(),
                    want.as_ref().err()
                );
            }
        }
    }

    #[test]
    fn idle_table_matches_the_per_interval_oracle() {
        for rt in runtimes() {
            for state in PackageCState::ALL {
                let stored = rt.idle[state as usize].clone().map(|p| vec![p]);
                let want = oracle_prepare(rt, Phase::Idle(state)).map(|p| vec![p]);
                assert!(same_bits(&stored, &want), "{state} at {} W", rt.soc.tdp.get());
            }
            let c6 = oracle_prepare(rt, Phase::Idle(PackageCState::C6)).unwrap();
            assert_eq!(
                rt.c6_power(PdnMode::IvrMode).unwrap().get().to_bits(),
                c6.power_ivr.get().to_bits()
            );
            assert_eq!(
                rt.c6_power(PdnMode::LdoMode).unwrap().get().to_bits(),
                c6.power_ldo.get().to_bits()
            );
        }
    }

    #[test]
    fn prepare_batch_reports_the_first_error_in_trace_order() {
        let rt = runtime(18.0);
        let light = TraceInterval::idle(Seconds::from_millis(5.0), PackageCState::C2);
        let failing = |wl| TraceInterval::active(Seconds::from_millis(5.0), wl, ar(1e-6));
        // Three failures share a tile. The earliest in the trace sits in
        // the row evaluated second, between an earlier and a later row.
        let mut intervals = vec![light; 300];
        intervals[140] = failing(WorkloadType::MultiThread);
        intervals[150] = failing(WorkloadType::SingleThread);
        intervals[160] = failing(WorkloadType::Graphics);
        let [multi, single, graphics] =
            [140, 150, 160].map(|i| oracle_prepare(&rt, intervals[i].phase).unwrap_err());
        assert!(multi != single && multi != graphics, "the failures must be told apart");
        for workers in [Workers::Serial, Workers::Fixed(2), Workers::Fixed(3)] {
            assert_eq!(rt.prepare_batch(&intervals, workers).unwrap_err(), multi);
        }
        // A failing feed replays none of its batch.
        let mut replayer = crate::TraceReplayer::new(&rt, Workers::Serial);
        replayer.feed(&intervals[..100]).unwrap();
        assert_eq!(replayer.feed(&intervals[100..]).unwrap_err(), multi);
        assert_eq!(replayer.intervals_done(), 100);
    }

    #[test]
    fn max_current_protection_fires_and_matches_the_re_evaluating_runtime() {
        // A predictor trained only on low-TDP points always prefers
        // LDO-Mode, so at 36 W every heavy phase trips the protection
        // and every light phase switches back.
        let predictor =
            ModePredictor::train(&ModelParams::paper_defaults(), &[4.0, 6.0], &[0.4, 0.6]).unwrap();
        let rt = FlexWattsRuntime::new(
            client_soc(Watts::new(36.0)),
            ModelParams::paper_defaults(),
            predictor,
            RuntimeConfig::default(),
        );
        let mut intervals = Vec::new();
        for _ in 0..3 {
            intervals.push(TraceInterval::idle(Seconds::from_millis(20.0), PackageCState::C0Min));
            intervals.push(TraceInterval::active(
                Seconds::from_millis(20.0),
                WorkloadType::MultiThread,
                ar(0.9),
            ));
            intervals.push(TraceInterval::active(
                Seconds::from_millis(15.0),
                WorkloadType::Graphics,
                ar(1.0),
            ));
            intervals.push(TraceInterval::active(
                Seconds::from_millis(25.0),
                WorkloadType::SingleThread,
                ar(0.5),
            ));
        }
        let trace = Trace::new("protection", intervals);
        // The report of the runtime whose protection re-evaluated the
        // LDO-Mode scenario at every decision and whose switches
        // evaluated C6 on the spot, pinned bit for bit.
        for workers in [Workers::Serial, Workers::Fixed(3)] {
            let report = rt.run_with(&trace, workers).unwrap();
            assert_eq!(report.protection_overrides, 12);
            assert_eq!(report.switches.len(), 7);
            assert_eq!(report.predictor_evaluations, 24);
            assert_eq!(report.energy_joules.to_bits(), 0x4018_218d_b426_5c73);
            assert_eq!(report.oracle_energy_joules.to_bits(), 0x4017_e088_35b5_751b);
            assert_eq!(report.total_time.get().to_bits(), 0x3fce_ce2d_1f1c_fbbd);
            assert_eq!(report.prediction_accuracy.to_bits(), 0x3fe8_0000_0000_0000);
        }
    }
}
