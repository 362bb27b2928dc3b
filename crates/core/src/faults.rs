//! Deterministic fault injection and graceful degradation for the
//! FlexWatts runtime.
//!
//! The paper's safety argument (§6) is that mode switching is
//! voltage-noise-free and that the PMU's maximum-current protection —
//! never the efficiency preference — has the last word on the shared
//! `V_IN` rail. The clean-path simulator in `crate::runtime` exercises
//! neither claim under adversity, so this module adds a seeded fault
//! layer and the recovery contract that keeps the closed loop safe while
//! faults land:
//!
//! * a [`FaultPlan`] schedules faults per trace interval — stuck-at or
//!   noisy activity sensors, dropped PMU telemetry, transient `V_IN`
//!   droops that must trip the maximum-current protection, mode-switch
//!   flow failures, and bit-flipped firmware images;
//! * a [`DegradationPolicy`] defines how the runtime degrades: bounded
//!   retry-with-backoff on switch failures, fallback to last-good sensor
//!   readings, and a watchdog that latches the safe IVR-Mode after N
//!   consecutive failed switch sequences instead of oscillating;
//! * [`FlexWattsRuntime::run_faulted`] executes a campaign and returns a
//!   [`FaultCampaignReport`] with injected/detected/recovered/degraded
//!   counts and the safety invariants checked every interval.
//!
//! Everything is deterministic under the plan's seed (the same splitmix
//! discipline as the activity sensors and the batch engine): the same
//! seed and plan yield a bit-identical report, so fault campaigns are
//! reproducible evidence, not flaky chaos tests.

use crate::runtime::{FlexWattsRuntime, PreparedInterval, RuntimeReport};
use crate::topology::PdnMode;
use pdn_pmu::{CStateDriver, FirmwareImage};
use pdn_proc::DomainKind;
use pdn_units::{Amps, ApplicationRatio, Seconds};
use pdn_workload::{Phase, Trace, WorkloadType};
use pdnspot::batch::Workers;
use pdnspot::PdnError;
use std::collections::BTreeMap;
use std::fmt;

/// The sensor quantisation floor (the smallest representable estimate).
const AR_FLOOR: f64 = 1.0 / 64.0;

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The activity sensor reports a fixed value regardless of the truth.
    SensorStuck {
        /// The stuck reading (clamped into the sensor's range).
        ar: f64,
    },
    /// The activity sensor reading carries additional deterministic noise.
    SensorNoise {
        /// Peak amplitude of the injected noise (AR units).
        amplitude: f64,
    },
    /// The PMU telemetry sample for the interval is lost entirely.
    TelemetryDrop,
    /// A transient droop on the shared `V_IN` rail: the rail voltage sags
    /// to `factor`× nominal, so delivering the same power pulls
    /// `1/factor`× the current — which must trip the maximum-current
    /// protection if the margin is gone.
    VinDroop {
        /// Voltage retention factor in `(0, 1)`; 0.8 = a 20 % droop.
        factor: f64,
    },
    /// The next `attempts` mode-switch flow executions in this interval
    /// time out (the off-chip VR never acknowledges the set point).
    SwitchFailure {
        /// Consecutive attempts that fail before the flow would succeed.
        attempts: u32,
    },
    /// A bit flip in a stored predictor firmware image, discovered when
    /// the PMU re-validates its flash.
    FirmwareBitFlip {
        /// Byte offset (reduced modulo the image length on injection).
        offset: usize,
        /// XOR mask applied to the byte (forced non-zero on injection).
        mask: u8,
    },
}

impl FaultKind {
    /// The class used for scheduling and per-class accounting.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::SensorStuck { .. } | FaultKind::SensorNoise { .. } => FaultClass::Sensor,
            FaultKind::TelemetryDrop => FaultClass::Telemetry,
            FaultKind::VinDroop { .. } => FaultClass::VinDroop,
            FaultKind::SwitchFailure { .. } => FaultClass::SwitchFlow,
            FaultKind::FirmwareBitFlip { .. } => FaultClass::Firmware,
        }
    }
}

/// Fault classes (one scheduling rate per class in a [`FaultMix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Stuck-at / noisy activity sensors.
    Sensor,
    /// Dropped PMU telemetry samples.
    Telemetry,
    /// Transient `V_IN` droops.
    VinDroop,
    /// Mode-switch flow failures.
    SwitchFlow,
    /// Corrupted firmware images.
    Firmware,
}

impl FaultClass {
    /// Every class, in accounting order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Sensor,
        FaultClass::Telemetry,
        FaultClass::VinDroop,
        FaultClass::SwitchFlow,
        FaultClass::Firmware,
    ];
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultClass::Sensor => "sensor",
            FaultClass::Telemetry => "telemetry",
            FaultClass::VinDroop => "vin-droop",
            FaultClass::SwitchFlow => "switch-flow",
            FaultClass::Firmware => "firmware",
        };
        f.write_str(name)
    }
}

/// A fault scheduled at a specific trace interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Index of the trace interval the fault is active in.
    pub interval: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Per-class scheduling rates (probability that a class fires in a given
/// interval) for [`FaultPlan::generate`]. Rates are clamped into
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Stuck-at / noisy sensor rate.
    pub(crate) sensor: f64,
    /// Telemetry-drop rate.
    pub(crate) telemetry: f64,
    /// `V_IN` droop rate.
    pub(crate) vin_droop: f64,
    /// Switch-flow failure rate.
    pub(crate) switch_flow: f64,
    /// Firmware bit-flip rate.
    pub(crate) firmware: f64,
}

impl FaultMix {
    /// No faults at all (the control arm of a campaign).
    pub fn none() -> Self {
        Self { sensor: 0.0, telemetry: 0.0, vin_droop: 0.0, switch_flow: 0.0, firmware: 0.0 }
    }

    /// Sensor-path faults only (stuck/noisy sensors + dropped telemetry).
    pub fn sensors() -> Self {
        Self { sensor: 0.25, telemetry: 0.10, ..Self::none() }
    }

    /// Electrical faults only (`V_IN` droops).
    pub fn electrical() -> Self {
        Self { vin_droop: 0.20, ..Self::none() }
    }

    /// Mode-switch flow failures only.
    pub fn switch_flow() -> Self {
        Self { switch_flow: 0.30, ..Self::none() }
    }

    /// Firmware corruption only.
    pub fn firmware() -> Self {
        Self { firmware: 0.08, ..Self::none() }
    }

    /// Everything at once, at moderate rates.
    pub fn chaos() -> Self {
        Self { sensor: 0.15, telemetry: 0.08, vin_droop: 0.12, switch_flow: 0.15, firmware: 0.05 }
    }

    fn rate(&self, class: FaultClass) -> f64 {
        let r = match class {
            FaultClass::Sensor => self.sensor,
            FaultClass::Telemetry => self.telemetry,
            FaultClass::VinDroop => self.vin_droop,
            FaultClass::SwitchFlow => self.switch_flow,
            FaultClass::Firmware => self.firmware,
        };
        r.clamp(0.0, 1.0)
    }
}

/// A deterministic fault schedule over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    by_interval: BTreeMap<usize, Vec<FaultKind>>,
    events: usize,
}

impl FaultPlan {
    /// An empty plan (no faults) under a seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, by_interval: BTreeMap::new(), events: 0 }
    }

    /// Adds one fault at one interval (builder style).
    pub(crate) fn with_event(mut self, interval: usize, kind: FaultKind) -> Self {
        self.by_interval.entry(interval).or_default().push(kind);
        self.events += 1;
        self
    }

    /// Generates a plan for `intervals` trace intervals from a seed and a
    /// mix: for every (interval, class) pair a splitmix draw decides
    /// whether the class fires, and further draws pick the fault
    /// parameters. The same `(seed, intervals, mix)` always produces the
    /// same plan.
    pub fn generate(seed: u64, intervals: usize, mix: &FaultMix) -> Self {
        let mut plan = Self::new(seed);
        for i in 0..intervals {
            for (c, class) in FaultClass::ALL.into_iter().enumerate() {
                let gate = hash3(seed, c as u64 + 1, i as u64);
                if to_unit(gate) >= mix.rate(class) {
                    continue;
                }
                let p1 = hash3(seed ^ 0xA5A5_A5A5, c as u64 + 1, i as u64);
                let p2 = hash3(seed ^ 0x5A5A_5A5A, c as u64 + 1, i as u64);
                let kind = match class {
                    FaultClass::Sensor => {
                        if p1 & 1 == 0 {
                            FaultKind::SensorStuck { ar: to_unit(p2) }
                        } else {
                            FaultKind::SensorNoise { amplitude: 0.05 + 0.35 * to_unit(p2) }
                        }
                    }
                    FaultClass::Telemetry => FaultKind::TelemetryDrop,
                    FaultClass::VinDroop => {
                        FaultKind::VinDroop { factor: 0.55 + 0.35 * to_unit(p2) }
                    }
                    FaultClass::SwitchFlow => {
                        FaultKind::SwitchFailure { attempts: 1 + (p2 % 6) as u32 }
                    }
                    FaultClass::Firmware => FaultKind::FirmwareBitFlip {
                        offset: p1 as usize,
                        mask: ((p2 % 255) + 1) as u8,
                    },
                };
                plan = plan.with_event(i, kind);
            }
        }
        plan
    }

    /// Total number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Iterates over every scheduled event in interval order.
    pub fn events(&self) -> impl Iterator<Item = FaultEvent> + '_ {
        self.by_interval.iter().flat_map(|(&interval, kinds)| {
            kinds.iter().map(move |kind| FaultEvent { interval, kind: kind.clone() })
        })
    }

    fn at(&self, interval: usize) -> &[FaultKind] {
        self.by_interval.get(&interval).map(Vec::as_slice).unwrap_or(&[])
    }
}

// ---------------------------------------------------------------------------
// Degradation policy
// ---------------------------------------------------------------------------

/// The recovery contract the runtime follows when faults land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Retries granted to a failed mode-switch flow (beyond the first
    /// attempt) before the decision is abandoned.
    pub(crate) max_switch_retries: u32,
    /// Linear backoff added before each retry (`attempt × backoff` of
    /// normal execution in the current mode).
    pub(crate) retry_backoff: Seconds,
    /// Consecutive abandoned switch sequences after which the watchdog
    /// latches the safe IVR-Mode instead of oscillating.
    pub(crate) watchdog_threshold: u32,
    /// Whether implausible/missing sensor readings fall back to the
    /// last-good sample (the graceful path). When disabled, drops assume
    /// the conservative full-activity reading and corrupt samples are
    /// consumed raw.
    pub(crate) sensor_fallback: bool,
    /// A sensor reading jumping more than this from the last-good sample
    /// is treated as implausible. Two consecutive consistent outliers are
    /// accepted as a genuine workload change.
    pub(crate) sensor_jump_threshold: f64,
    /// Strict mode: instead of degrading gracefully, an abandoned switch
    /// sequence aborts the campaign with [`PdnError::Degraded`].
    pub(crate) strict: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            max_switch_retries: 2,
            retry_backoff: Seconds::from_micros(50.0),
            watchdog_threshold: 3,
            sensor_fallback: true,
            sensor_jump_threshold: 0.35,
            strict: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign report
// ---------------------------------------------------------------------------

/// Fault accounting over one campaign.
///
/// Every scheduled event lands in exactly one of `injected` (exercised
/// against live state) or `dormant` (scheduled, but the faulted facility
/// was not consulted — e.g. a sensor fault during an idle interval).
/// Every injected event is either `detected` (a guard saw it) or
/// `silent` (in-range corruption that only costs efficiency, never
/// safety). Detected events split into `recovered` (a fallback restored
/// full function) and `degraded` (the contract was reduced: a switch
/// decision abandoned, or a drop consumed without fallback).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounts {
    /// Events scheduled inside the trace.
    pub armed: u64,
    /// Events that actually perturbed execution.
    pub injected: u64,
    /// Injected events observed by a runtime guard.
    pub detected: u64,
    /// Detected events fully absorbed by a fallback.
    pub recovered: u64,
    /// Detected events that reduced the service contract.
    pub degraded: u64,
    /// Injected events no guard could see.
    pub silent: u64,
    /// Scheduled events that never met live state.
    pub dormant: u64,
    /// Guard activations with no fault injected (plausibility filter
    /// tripped by a genuine workload change).
    pub(crate) false_positives: u64,
}

impl FaultCounts {
    /// The internal consistency of the ledger:
    /// `armed = injected + dormant` and
    /// `injected = detected + silent` and
    /// `detected = recovered + degraded`.
    pub fn consistent(&self) -> bool {
        self.armed == self.injected + self.dormant
            && self.injected == self.detected + self.silent
            && self.detected == self.recovered + self.degraded
    }
}

/// The safety invariants checked continuously during a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantReport {
    /// Execution chunks that ran in LDO-Mode with the effective `V_IN`
    /// current above the protection trip point. Must be zero: the
    /// maximum-current protection has the last word.
    pub over_trip_chunks: u64,
    /// Worst effective `V_IN` current observed while executing LDO-Mode.
    pub max_ldo_vin_current: Amps,
    /// The protection trip current the campaign was checked against.
    pub trip_current: Amps,
    /// Relative error between the energy accumulator and the independent
    /// per-bucket ledger (per-mode chunks + switch flows + backoff).
    pub energy_ledger_error: f64,
    /// Absolute error (seconds) between total time and the per-bucket
    /// time ledger.
    pub time_ledger_error: f64,
    /// Whether the oracle's energy stayed ≤ the runtime's (the oracle
    /// runs the cheaper mode under the same wall clock, so a violation
    /// means the accounting double-charged or dropped energy).
    pub(crate) oracle_bounded: bool,
}

impl InvariantReport {
    /// Whether every invariant held.
    pub fn holds(&self) -> bool {
        self.over_trip_chunks == 0
            && self.energy_ledger_error < 1e-9
            && self.time_ledger_error < 1e-9
            && self.oracle_bounded
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "over-trip chunks {} (max {:.3} A vs trip {:.3} A), energy ledger err {:.2e}, \
             time ledger err {:.2e} s, oracle bounded: {}",
            self.over_trip_chunks,
            self.max_ldo_vin_current.get(),
            self.trip_current.get(),
            self.energy_ledger_error,
            self.time_ledger_error,
            self.oracle_bounded,
        )
    }
}

/// The outcome of one fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignReport {
    /// The plan's seed (for reproduction).
    pub(crate) seed: u64,
    /// The usual energy/switch report of the (faulted) run.
    pub runtime: RuntimeReport,
    /// Fault accounting totals.
    pub counts: FaultCounts,
    /// Injected (exercised) events per fault class.
    pub injected_by_class: BTreeMap<FaultClass, u64>,
    /// Whether the watchdog latched the safe IVR-Mode.
    pub watchdog_latched: bool,
    /// The safety invariants, checked every chunk.
    pub invariants: InvariantReport,
}

// ---------------------------------------------------------------------------
// Campaign execution
// ---------------------------------------------------------------------------

/// Faults active during one trace interval, folded from the plan.
struct ActiveFaults {
    stuck: Option<f64>,
    noise: Option<f64>,
    drop: bool,
    droop: f64,
    switch_attempts: u32,
    firmware: Vec<(usize, u8)>,
    sensor_events: u64,
    telemetry_events: u64,
    droop_events: u64,
    switch_events: u64,
}

impl ActiveFaults {
    fn fold(kinds: &[FaultKind]) -> Self {
        let mut f = Self {
            stuck: None,
            noise: None,
            drop: false,
            droop: 1.0,
            switch_attempts: 0,
            firmware: Vec::new(),
            sensor_events: 0,
            telemetry_events: 0,
            droop_events: 0,
            switch_events: 0,
        };
        for kind in kinds {
            match kind {
                FaultKind::SensorStuck { ar } => {
                    f.stuck = Some(ar.clamp(AR_FLOOR, 1.0));
                    f.sensor_events += 1;
                }
                FaultKind::SensorNoise { amplitude } => {
                    f.noise = Some(f.noise.unwrap_or(0.0) + amplitude.abs());
                    f.sensor_events += 1;
                }
                FaultKind::TelemetryDrop => {
                    f.drop = true;
                    f.telemetry_events += 1;
                }
                FaultKind::VinDroop { factor } => {
                    f.droop = f.droop.min(factor.clamp(0.05, 1.0));
                    f.droop_events += 1;
                }
                FaultKind::SwitchFailure { attempts } => {
                    f.switch_attempts += attempts;
                    f.switch_events += 1;
                }
                FaultKind::FirmwareBitFlip { offset, mask } => {
                    f.firmware.push((*offset, if *mask == 0 { 1 } else { *mask }));
                }
            }
        }
        f
    }

    fn sensor_faulted(&self) -> bool {
        self.stuck.is_some() || self.noise.is_some()
    }
}

impl FlexWattsRuntime {
    /// Simulates a trace with the plan's faults injected and the policy's
    /// recovery contract applied, checking the safety invariants on every
    /// execution chunk.
    ///
    /// Equivalent to [`run_faulted_with`](Self::run_faulted_with) on the
    /// full worker pool: the pure per-interval preparation fans out in
    /// parallel, while injection, detection, and recovery replay serially
    /// in trace order, so the report is bit-identical for any worker
    /// choice and for repeated runs of the same `(plan, policy)`.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors; under a strict policy, also
    /// returns
    /// [`PdnError::Degraded`] when a switch sequence exhausts its
    /// retries.
    pub fn run_faulted(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
        policy: &DegradationPolicy,
    ) -> Result<FaultCampaignReport, PdnError> {
        self.run_faulted_with(trace, plan, policy, Workers::Auto)
    }

    /// [`run_faulted`](Self::run_faulted) with an explicit worker choice.
    ///
    /// # Errors
    ///
    /// See [`run_faulted`](Self::run_faulted).
    pub fn run_faulted_with(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
        policy: &DegradationPolicy,
        workers: Workers,
    ) -> Result<FaultCampaignReport, PdnError> {
        let prepared = self.prepare_batch(trace.intervals(), workers)?;
        let sensors = self.fresh_sensor_bank();
        let n_intervals = trace.intervals().len();

        // Campaign state.
        let mut mode = self.config.initial_mode;
        let mut energy = 0.0;
        let mut oracle_energy = 0.0;
        let mut switches = Vec::new();
        let mut time_in_mode: BTreeMap<PdnMode, Seconds> =
            PdnMode::ALL.iter().map(|&m| (m, Seconds::ZERO)).collect();
        let mut driver = CStateDriver::new();
        let mut evaluations = 0u64;
        let mut correct_predictions = 0u64;
        let mut protection_overrides = 0u64;
        let mut total_time = Seconds::ZERO;
        let eval_interval = self.predictor.evaluation_interval();
        let mut since_eval = eval_interval; // evaluate at trace start

        // Degradation state.
        let mut last_good: Option<ApplicationRatio> = None;
        let mut last_rejected: Option<f64> = None;
        let mut consecutive_failed_sequences = 0u32;
        let mut latched = false;
        let mut switch_failures = 0u64;
        let mut switch_retries = 0u64;

        // Fault accounting.
        let mut counts = FaultCounts::default();
        let mut injected_by_class: BTreeMap<FaultClass, u64> =
            FaultClass::ALL.iter().map(|&c| (c, 0)).collect();
        counts.armed = plan.events().filter(|e| e.interval < n_intervals).count() as u64;

        // Invariant ledgers (independent of the primary accumulators).
        let mut mode_energy: BTreeMap<PdnMode, f64> =
            PdnMode::ALL.iter().map(|&m| (m, 0.0)).collect();
        let mut flow_energy = 0.0; // C6 power during switches/aborts
        let mut backoff_energy = 0.0;
        let mut flow_time = Seconds::ZERO;
        let mut backoff_time = Seconds::ZERO;
        let mut over_trip_chunks = 0u64;
        let mut max_ldo_vin = Amps::ZERO;
        let trip = self.protection.trip_current();

        for (i, (interval, prep)) in trace.intervals().iter().zip(&prepared).enumerate() {
            let PreparedInterval { power_ivr, power_ldo, vin_ldo, estimated_type, .. } = *prep;
            let faults = ActiveFaults::fold(plan.at(i));

            // --- Firmware faults: the PMU re-validates its flash copy.
            for &(offset, mask) in &faults.firmware {
                counts.injected += 1;
                *injected_by_class.get_mut(&FaultClass::Firmware).expect("class present") += 1;
                let [ivr_img, ldo_img] = self.predictor.firmware_images();
                let target = if offset & 1 == 0 { &ivr_img } else { &ldo_img };
                let mut bytes = target.as_bytes().to_vec();
                let at = offset % bytes.len();
                bytes[at] ^= mask;
                if FirmwareImage::parse(&bytes).is_err() {
                    // CRC caught the flip; the runtime keeps its RAM
                    // tables (last-good) and execution continues at full
                    // function.
                    counts.detected += 1;
                    counts.recovered += 1;
                } else {
                    counts.silent += 1;
                }
            }

            // --- Sensor path: draw, corrupt, guard.
            let pmu_inputs = match interval.phase {
                Phase::Active { ar, .. } => {
                    let clean = sensors.estimate(DomainKind::Core0, ar);
                    let mut reading: Option<f64> = Some(clean.get());
                    if let Some(stuck) = faults.stuck {
                        reading = Some(stuck);
                    }
                    if let Some(amplitude) = faults.noise {
                        let h = hash3(plan.seed ^ 0xBEEF, 7, i as u64);
                        let noise = (to_unit(h) - 0.5) * 2.0 * amplitude;
                        reading = reading.map(|r| r + noise);
                    }
                    if faults.drop {
                        reading = None;
                    }
                    counts.injected += faults.sensor_events + faults.telemetry_events;
                    *injected_by_class.get_mut(&FaultClass::Sensor).expect("class present") +=
                        faults.sensor_events;
                    *injected_by_class.get_mut(&FaultClass::Telemetry).expect("class present") +=
                        faults.telemetry_events;

                    let accepted = match reading {
                        None => {
                            // A missing sample is always detected.
                            counts.detected += faults.telemetry_events;
                            if policy.sensor_fallback {
                                counts.recovered += faults.telemetry_events;
                                // Sensor faults stacked under the drop
                                // never reached the PMU.
                                counts.silent += faults.sensor_events;
                                last_good.unwrap_or(ApplicationRatio::POWER_VIRUS)
                            } else {
                                counts.degraded += faults.telemetry_events;
                                counts.silent += faults.sensor_events;
                                ApplicationRatio::POWER_VIRUS
                            }
                        }
                        Some(raw) => {
                            let clamped = raw.clamp(AR_FLOOR, 1.0);
                            let candidate =
                                ApplicationRatio::new(clamped).expect("clamped AR is valid");
                            let implausible = policy.sensor_fallback
                                && last_good.is_some_and(|good| {
                                    (clamped - good.get()).abs() > policy.sensor_jump_threshold
                                });
                            let consistent_outlier = implausible
                                && last_rejected.is_some_and(|prev| {
                                    (clamped - prev).abs() <= policy.sensor_jump_threshold / 2.0
                                });
                            if implausible && !consistent_outlier {
                                // Guard tripped: fall back to last-good.
                                last_rejected = Some(clamped);
                                if faults.sensor_faulted() {
                                    counts.detected += faults.sensor_events;
                                    counts.recovered += faults.sensor_events;
                                } else {
                                    counts.false_positives += 1;
                                }
                                last_good.expect("implausible requires last_good")
                            } else {
                                // Accepted (possibly a consistent outlier
                                // = genuine workload change, possibly
                                // silent in-range corruption).
                                last_rejected = None;
                                last_good = Some(candidate);
                                counts.silent +=
                                    if faults.sensor_faulted() { faults.sensor_events } else { 0 };
                                candidate
                            }
                        }
                    };
                    crate::predictor::PredictorInputs {
                        tdp: self.soc.tdp,
                        ar: accepted,
                        workload_type: estimated_type,
                        power_state: None,
                    }
                }
                Phase::Idle(state) => {
                    // The sensor path is not consulted while idle:
                    // scheduled sensor/telemetry faults stay dormant.
                    counts.dormant += faults.sensor_events + faults.telemetry_events;
                    crate::predictor::PredictorInputs {
                        tdp: self.soc.tdp,
                        ar: interval.phase.ar(),
                        workload_type: WorkloadType::BatteryLife,
                        power_state: Some(state),
                    }
                }
            };

            // --- V_IN droop: always an electrical event, always seen by
            // the rail telemetry; force a prompt re-evaluation so the
            // protection can act inside this interval.
            let droop = faults.droop;
            if faults.droop_events > 0 {
                counts.injected += faults.droop_events;
                counts.detected += faults.droop_events;
                *injected_by_class.get_mut(&FaultClass::VinDroop).expect("class present") +=
                    faults.droop_events;
                since_eval = eval_interval;
            }
            let effective_vin = vin_ldo / droop;
            let over_trip_before = over_trip_chunks;

            let oracle_power = power_ivr.min(power_ldo);
            let oracle_mode =
                if power_ivr <= power_ldo { PdnMode::IvrMode } else { PdnMode::LdoMode };

            // Switch-flow faults arm once per interval; the counter
            // depletes as attempts fail.
            let mut pending_switch_failures = faults.switch_attempts;
            let mut switch_fault_exercised = false;

            let mut remaining = interval.duration;
            while remaining.get() > 0.0 {
                if since_eval >= eval_interval {
                    since_eval = Seconds::ZERO;
                    evaluations += 1;
                    let mut decided = if latched {
                        PdnMode::IvrMode
                    } else {
                        self.predictor.predict_with_hysteresis(pmu_inputs, mode)
                    };
                    let mut forced_by_protection = false;
                    if self.config.max_current_protection
                        && decided == PdnMode::LdoMode
                        && self.protection.would_trip(effective_vin)
                    {
                        decided = PdnMode::IvrMode;
                        forced_by_protection = true;
                        protection_overrides += 1;
                    }
                    if decided == oracle_mode {
                        correct_predictions += 1;
                    }
                    if decided != mode {
                        let v_from = self.vin_level(mode, prep);
                        let v_to = self.vin_level(decided, prep);
                        let c6_power = self.c6_power(mode)?;
                        // Protection-mandated switches run the hardened
                        // ROM flow: electrical safety has the last word,
                        // injected flow faults cannot block it.
                        let budget = 1 + policy.max_switch_retries;
                        let mut attempt = 0u32;
                        let mut succeeded = false;
                        while attempt < budget {
                            attempt += 1;
                            if pending_switch_failures > 0 && !forced_by_protection {
                                pending_switch_failures -= 1;
                                switch_fault_exercised = true;
                                switch_failures += 1;
                                if attempt > 1 {
                                    switch_retries += 1;
                                }
                                // The aborted flow parks the package in
                                // C6 for its whole duration.
                                let lost =
                                    self.switch_flow.execute_aborted(v_from, v_to, &mut driver);
                                energy += c6_power * lost;
                                oracle_energy += c6_power * lost;
                                flow_energy += c6_power * lost;
                                flow_time += lost;
                                total_time += lost;
                                // Linear backoff before the next attempt,
                                // executing normally in the old mode.
                                if attempt < budget {
                                    let wait = policy.retry_backoff * attempt as f64;
                                    let run_power = match mode {
                                        PdnMode::IvrMode => power_ivr,
                                        PdnMode::LdoMode => power_ldo,
                                    };
                                    energy += run_power * wait;
                                    oracle_energy += oracle_power * wait;
                                    backoff_energy += run_power * wait;
                                    backoff_time += wait;
                                    total_time += wait;
                                }
                                continue;
                            }
                            if attempt > 1 {
                                switch_retries += 1;
                            }
                            let transition =
                                self.switch_flow.execute(mode, decided, v_from, v_to, &mut driver);
                            let switch_time = transition.total();
                            let c6_power_new = self.c6_power(decided)?;
                            energy += c6_power_new * switch_time;
                            oracle_energy += c6_power_new * switch_time;
                            flow_energy += c6_power_new * switch_time;
                            flow_time += switch_time;
                            total_time += switch_time;
                            switches.push(transition);
                            mode = decided;
                            succeeded = true;
                            break;
                        }
                        if succeeded {
                            consecutive_failed_sequences = 0;
                            if attempt > 1 && switch_fault_exercised {
                                // A retry absorbed the fault.
                                counts.recovered += 1;
                                counts.detected += 1;
                                counts.injected += 1;
                                *injected_by_class
                                    .get_mut(&FaultClass::SwitchFlow)
                                    .expect("class present") += 1;
                                switch_fault_exercised = false;
                            }
                        } else {
                            // Retries exhausted: the decision is
                            // abandoned.
                            counts.injected += 1;
                            counts.detected += 1;
                            counts.degraded += 1;
                            *injected_by_class
                                .get_mut(&FaultClass::SwitchFlow)
                                .expect("class present") += 1;
                            switch_fault_exercised = false;
                            consecutive_failed_sequences += 1;
                            if policy.strict {
                                return Err(PdnError::Degraded {
                                    component: "FlexWattsRuntime".into(),
                                    reason: format!(
                                        "mode switch {mode} -> {decided} abandoned after {} \
                                         attempts at interval {i}",
                                        budget
                                    ),
                                });
                            }
                            if consecutive_failed_sequences >= policy.watchdog_threshold && !latched
                            {
                                // Watchdog: latch the safe IVR-Mode via
                                // the hardened flow instead of
                                // oscillating through further failures.
                                latched = true;
                                if mode != PdnMode::IvrMode {
                                    let v_to_safe = self.vin_level(PdnMode::IvrMode, prep);
                                    let transition = self.switch_flow.execute(
                                        mode,
                                        PdnMode::IvrMode,
                                        v_from,
                                        v_to_safe,
                                        &mut driver,
                                    );
                                    let switch_time = transition.total();
                                    let c6_power_safe = self.c6_power(PdnMode::IvrMode)?;
                                    energy += c6_power_safe * switch_time;
                                    oracle_energy += c6_power_safe * switch_time;
                                    flow_energy += c6_power_safe * switch_time;
                                    flow_time += switch_time;
                                    total_time += switch_time;
                                    switches.push(transition);
                                    mode = PdnMode::IvrMode;
                                }
                            }
                        }
                    }
                }

                // --- Chunk-level electrical guard: the hardware
                // protection loop is far faster than the 10 ms predictor
                // loop; if the droop pushed the executing LDO-Mode over
                // the trip point between evaluations, it re-routes to
                // IVR-Mode immediately through the hardened flow.
                if self.config.max_current_protection
                    && mode == PdnMode::LdoMode
                    && self.protection.would_trip(effective_vin)
                {
                    protection_overrides += 1;
                    let v_from = self.vin_level(mode, prep);
                    let v_to = self.vin_level(PdnMode::IvrMode, prep);
                    let c6_power_safe = self.c6_power(PdnMode::IvrMode)?;
                    let transition =
                        self.switch_flow.execute(mode, PdnMode::IvrMode, v_from, v_to, &mut driver);
                    let switch_time = transition.total();
                    energy += c6_power_safe * switch_time;
                    oracle_energy += c6_power_safe * switch_time;
                    flow_energy += c6_power_safe * switch_time;
                    flow_time += switch_time;
                    total_time += switch_time;
                    switches.push(transition);
                    mode = PdnMode::IvrMode;
                }

                let chunk = remaining.min(eval_interval - since_eval).min(remaining);
                let power = match mode {
                    PdnMode::IvrMode => power_ivr,
                    PdnMode::LdoMode => power_ldo,
                };
                if mode == PdnMode::LdoMode {
                    max_ldo_vin = max_ldo_vin.max(effective_vin);
                    if self.protection.would_trip(effective_vin) {
                        over_trip_chunks += 1;
                    }
                }
                energy += power * chunk;
                oracle_energy += oracle_power * chunk;
                *mode_energy.get_mut(&mode).expect("all modes present") += power * chunk;
                *time_in_mode.get_mut(&mode).expect("all modes present") += chunk;
                total_time += chunk;
                since_eval += chunk;
                remaining -= chunk;
            }

            // Droop accounting: recovered iff the protection kept every
            // chunk of this interval below the trip point.
            if faults.droop_events > 0 {
                if over_trip_chunks == over_trip_before {
                    counts.recovered += faults.droop_events;
                } else {
                    counts.degraded += faults.droop_events;
                }
            }
            // A switch-flow fault that armed but never saw a switch
            // attempt stays dormant. (Partially consumed arms collapse
            // into the sequences already counted above.)
            if faults.switch_events > 0 && faults.switch_attempts == pending_switch_failures {
                counts.dormant += faults.switch_events;
            }
        }

        // Reconcile armed vs injected/dormant for multi-event intervals
        // (e.g. a switch event that fired alongside its sibling): any
        // armed event not yet classified was dormant.
        let classified = counts.injected + counts.dormant;
        if counts.armed > classified {
            counts.dormant += counts.armed - classified;
        } else {
            counts.armed = classified;
        }

        let ledger_energy: f64 = mode_energy.values().sum::<f64>() + flow_energy + backoff_energy;
        let energy_ledger_error = if energy.abs() > 0.0 {
            ((energy - ledger_energy) / energy).abs()
        } else {
            ledger_energy.abs()
        };
        let ledger_time: Seconds =
            time_in_mode.values().copied().sum::<Seconds>() + flow_time + backoff_time;
        let time_ledger_error = (total_time - ledger_time).abs().get();

        let invariants = InvariantReport {
            over_trip_chunks,
            max_ldo_vin_current: max_ldo_vin,
            trip_current: trip,
            energy_ledger_error,
            time_ledger_error,
            oracle_bounded: oracle_energy <= energy + 1e-12,
        };

        Ok(FaultCampaignReport {
            seed: plan.seed,
            runtime: RuntimeReport {
                total_time,
                energy_joules: energy,
                oracle_energy_joules: oracle_energy,
                switches,
                time_in_mode,
                predictor_evaluations: evaluations,
                prediction_accuracy: if evaluations == 0 {
                    1.0
                } else {
                    correct_predictions as f64 / evaluations as f64
                },
                protection_overrides,
                switch_failures,
                switch_retries,
            },
            counts,
            injected_by_class,
            watchdog_latched: latched,
            invariants,
        })
    }
}

// ---------------------------------------------------------------------------
// Deterministic hashing (the PR-1 seeding discipline)
// ---------------------------------------------------------------------------

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(seed ^ splitmix(a.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ splitmix(b)))
}

fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ModePredictor;
    use crate::runtime::RuntimeConfig;
    use pdn_proc::client_soc;
    use pdn_units::Watts;
    use pdn_workload::{BatteryLifeWorkload, TraceInterval};
    use pdnspot::ModelParams;

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

    fn bursty_trace() -> Trace {
        let mut intervals = Vec::new();
        for _ in 0..5 {
            intervals.push(TraceInterval::active(
                Seconds::from_millis(40.0),
                WorkloadType::MultiThread,
                ApplicationRatio::new(0.8).unwrap(),
            ));
            intervals.push(TraceInterval::idle(
                Seconds::from_millis(40.0),
                pdn_proc::PackageCState::C0Min,
            ));
        }
        Trace::new("bursty", intervals)
    }

    #[test]
    fn plan_generation_is_deterministic_and_seed_sensitive() {
        let mix = FaultMix::chaos();
        let a = FaultPlan::generate(42, 64, &mix);
        let b = FaultPlan::generate(42, 64, &mix);
        let c = FaultPlan::generate(43, 64, &mix);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different schedules");
        assert!(!a.is_empty(), "chaos mix over 64 intervals must schedule something");
        assert!(a.events().all(|e| e.interval < 64));
    }

    #[test]
    fn empty_plan_matches_the_clean_run_bitwise() {
        let trace = bursty_trace();
        let clean = runtime(36.0).run(&trace).unwrap();
        let report = runtime(36.0)
            .run_faulted(&trace, &FaultPlan::new(1), &DegradationPolicy::default())
            .unwrap();
        assert_eq!(
            clean.energy_joules.to_bits(),
            report.runtime.energy_joules.to_bits(),
            "no faults => identical energy"
        );
        assert_eq!(clean.switches.len(), report.runtime.switches.len());
        assert_eq!(report.counts, FaultCounts::default());
        assert!(report.invariants.holds(), "{}", report.invariants);
    }

    #[test]
    fn campaigns_are_bit_reproducible() {
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(10);
        let plan = FaultPlan::generate(7, trace.intervals().len(), &FaultMix::chaos());
        let policy = DegradationPolicy::default();
        let a = runtime(18.0).run_faulted(&trace, &plan, &policy).unwrap();
        let b = runtime(18.0).run_faulted(&trace, &plan, &policy).unwrap();
        assert_eq!(a, b, "same seed + plan must be bit-identical");
        // And independent of the worker pool.
        let c = runtime(18.0).run_faulted_with(&trace, &plan, &policy, Workers::Fixed(4)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn vin_droop_trips_the_protection_not_the_invariant() {
        // 25 W multi-thread at high AR runs close to the LDO trip margin;
        // a 40 % droop must force IVR-Mode, not an over-trip chunk.
        let rt = runtime(25.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(100.0),
                WorkloadType::MultiThread,
                ApplicationRatio::new(0.8).unwrap(),
            )],
        );
        let plan = FaultPlan::new(3).with_event(0, FaultKind::VinDroop { factor: 0.6 });
        let report = rt.run_faulted(&trace, &plan, &DegradationPolicy::default()).unwrap();
        assert_eq!(report.invariants.over_trip_chunks, 0, "{}", report.invariants);
        assert!(report.invariants.holds());
        assert_eq!(report.counts.injected, 1);
        assert_eq!(report.counts.detected, 1);
    }

    #[test]
    fn switch_failures_retry_and_recover() {
        // One failing attempt with a 2-retry budget: the switch must
        // eventually land and count as recovered.
        let rt = runtime(4.0); // boots IVR, immediately wants LDO
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(60.0),
                WorkloadType::SingleThread,
                ApplicationRatio::new(0.6).unwrap(),
            )],
        );
        let plan = FaultPlan::new(9).with_event(0, FaultKind::SwitchFailure { attempts: 1 });
        let report = rt.run_faulted(&trace, &plan, &DegradationPolicy::default()).unwrap();
        assert_eq!(report.runtime.switch_failures, 1);
        assert_eq!(report.runtime.switch_retries, 1);
        assert_eq!(report.counts.recovered, 1);
        assert_eq!(report.counts.degraded, 0);
        assert!(!report.watchdog_latched);
        assert!(report.runtime.switches.iter().any(|s| s.to == PdnMode::LdoMode));
        assert!(report.invariants.holds(), "{}", report.invariants);
    }

    #[test]
    fn persistent_switch_failures_latch_the_watchdog_into_ivr_mode() {
        // Every interval's switch flow fails outright: after the
        // watchdog threshold the runtime must latch IVR-Mode and stop
        // oscillating.
        let rt = runtime(4.0); // predictor permanently wants LDO-Mode
        let mut plan = FaultPlan::new(11);
        let mut intervals = Vec::new();
        for i in 0..8 {
            intervals.push(TraceInterval::active(
                Seconds::from_millis(30.0),
                WorkloadType::SingleThread,
                ApplicationRatio::new(0.6).unwrap(),
            ));
            plan = plan.with_event(i, FaultKind::SwitchFailure { attempts: 100 });
        }
        let trace = Trace::new("doomed", intervals);
        let policy = DegradationPolicy::default();
        let report = rt.run_faulted(&trace, &plan, &policy).unwrap();
        assert!(report.watchdog_latched, "watchdog must latch: {:?}", report.counts);
        assert!(report.counts.degraded >= policy.watchdog_threshold as u64);
        // Latched safe mode: the trace ends executing IVR-Mode and no
        // further switch sequences are attempted after the latch.
        assert!(report.runtime.time_in_mode[&PdnMode::IvrMode].get() > 0.0);
        assert!(report.invariants.holds(), "{}", report.invariants);
    }

    #[test]
    fn strict_policy_turns_degradation_into_an_error() {
        let rt = runtime(4.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(60.0),
                WorkloadType::SingleThread,
                ApplicationRatio::new(0.6).unwrap(),
            )],
        );
        let plan = FaultPlan::new(5).with_event(0, FaultKind::SwitchFailure { attempts: 100 });
        let err = rt
            .run_faulted(
                &trace,
                &plan,
                &DegradationPolicy { strict: true, ..DegradationPolicy::default() },
            )
            .unwrap_err();
        assert!(
            matches!(&err, PdnError::Degraded { component, .. }
                if component == "FlexWattsRuntime"),
            "{err}"
        );
    }

    #[test]
    fn sensor_faults_fall_back_to_last_good_readings() {
        let rt = runtime(18.0);
        let mut intervals = Vec::new();
        for _ in 0..6 {
            intervals.push(TraceInterval::active(
                Seconds::from_millis(20.0),
                WorkloadType::MultiThread,
                ApplicationRatio::new(0.6).unwrap(),
            ));
        }
        let trace = Trace::new("steady", intervals);
        // Interval 2: stuck at full scale (a 0.4 jump from ~0.6 truth —
        // implausible); interval 4: telemetry drop.
        let plan = FaultPlan::new(21)
            .with_event(2, FaultKind::SensorStuck { ar: 0.05 })
            .with_event(4, FaultKind::TelemetryDrop);
        let report = rt.run_faulted(&trace, &plan, &DegradationPolicy::default()).unwrap();
        assert_eq!(report.counts.injected, 2);
        assert_eq!(report.counts.detected, 2, "{:?}", report.counts);
        assert_eq!(report.counts.recovered, 2);
        assert!(report.counts.consistent(), "{:?}", report.counts);
        assert!(report.invariants.holds(), "{}", report.invariants);
    }

    #[test]
    fn firmware_bit_flips_are_detected_by_the_crc_and_recovered() {
        let rt = runtime(18.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(40.0),
                WorkloadType::MultiThread,
                ApplicationRatio::new(0.6).unwrap(),
            )],
        );
        let plan = FaultPlan::new(33)
            .with_event(0, FaultKind::FirmwareBitFlip { offset: 1234, mask: 0x10 });
        let report = rt.run_faulted(&trace, &plan, &DegradationPolicy::default()).unwrap();
        assert_eq!(report.injected_by_class[&FaultClass::Firmware], 1);
        assert_eq!(report.counts.detected, 1);
        assert_eq!(report.counts.recovered, 1);
        assert_eq!(report.counts.silent, 0);
    }

    #[test]
    fn counts_stay_consistent_under_chaos() {
        let trace = bursty_trace();
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::generate(seed, trace.intervals().len(), &FaultMix::chaos());
            let report =
                runtime(36.0).run_faulted(&trace, &plan, &DegradationPolicy::default()).unwrap();
            assert!(report.counts.consistent(), "seed {seed}: {:?}", report.counts);
            assert!(report.invariants.holds(), "seed {seed}: {}", report.invariants);
            assert!(report.runtime.energy_efficiency_vs_oracle() <= 1.0 + 1e-12);
        }
    }
}
