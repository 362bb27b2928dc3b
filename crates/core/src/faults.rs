//! Deterministic fault injection and graceful degradation for the
//! FlexWatts runtime.
//!
//! The paper's safety argument (§6) is that mode switching is
//! voltage-noise-free and that the PMU's maximum-current protection —
//! never the efficiency preference — has the last word on the shared
//! `V_IN` rail. A clean run exercises neither claim under adversity, so
//! this module adds a seeded fault layer and the recovery contract that
//! keeps the closed loop safe while faults land:
//!
//! * a [`FaultPlan`] schedules faults per trace interval — stuck-at or
//!   noisy activity sensors, dropped PMU telemetry, transient `V_IN`
//!   droops that must trip the maximum-current protection, mode-switch
//!   flow failures, and bit-flipped firmware images;
//! * a fixed degradation contract: bounded retry-with-backoff on switch
//!   failures (2 retries, 50 µs linear backoff), fallback to last-good
//!   sensor readings behind a plausibility filter, and a watchdog that
//!   latches the safe IVR-Mode after 3 consecutive failed switch
//!   sequences instead of oscillating;
//! * [`FlexWattsRuntime::run_faulted`] executes a campaign and returns a
//!   [`FaultCampaignReport`] with injected/detected/recovered/degraded
//!   counts and the safety invariants checked every chunk.
//!
//! A campaign runs the clean runtime's serial pass, the same
//! `ReplayState::step` behind [`FlexWattsRuntime::run`] and
//! [`crate::TraceReplayer`], with its fault state threaded through. The
//! per-chunk protection guard is part of that shared pass, so clean runs
//! obey it too, and an empty plan reproduces the clean report bit for
//! bit.
//!
//! Everything is deterministic under the plan's seed (the same splitmix
//! discipline as the activity sensors and the batch engine): the same
//! seed and plan yield a bit-identical report, so fault campaigns are
//! reproducible evidence, not flaky chaos tests.

use crate::runtime::{FlexWattsRuntime, PreparedInterval, ReplayState, RuntimeReport};
use crate::topology::PdnMode;
use pdn_pmu::{ActivitySensorBank, FirmwareImage};
use pdn_units::{Amps, ApplicationRatio, Seconds};
use pdn_workload::Trace;
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
// Degradation contract
// ---------------------------------------------------------------------------

/// Retries granted to a failed mode-switch flow (beyond the first
/// attempt) before the decision is abandoned.
const SWITCH_RETRIES: u32 = 2;

/// Linear backoff before each retry, in µs: `attempt ×` this of normal
/// execution in the current mode.
const RETRY_BACKOFF_MICROS: f64 = 50.0;

/// Consecutive abandoned switch sequences after which the watchdog
/// latches the safe IVR-Mode instead of oscillating.
const WATCHDOG_THRESHOLD: u32 = 3;

/// A sensor reading jumping more than this from the last-good sample is
/// treated as implausible. Two consecutive consistent outliers are
/// accepted as a genuine workload change.
const SENSOR_JUMP_THRESHOLD: f64 = 0.35;

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

/// A fault campaign's state beside the shared serial pass
/// ([`ReplayState::step`]): the current interval's faults, the
/// degradation contract's memory, the fault accounting, and the
/// invariant ledgers. The ledgers are kept apart from the replay
/// accumulators, so comparing the two checks the accumulators.
pub(crate) struct Campaign {
    seed: u64,
    interval: usize,
    faults: ActiveFaults,
    /// Switch-flow faults arm once per interval; the counter depletes as
    /// attempts fail.
    pending_switch_failures: u32,
    last_good: Option<ApplicationRatio>,
    last_rejected: Option<f64>,
    consecutive_failed_sequences: u32,
    latched: bool,
    switch_failures: u64,
    switch_retries: u64,
    counts: FaultCounts,
    injected_by_class: BTreeMap<FaultClass, u64>,
    /// Chunk energy per mode, indexed by [`PdnMode`].
    mode_energy: [f64; 2],
    /// C6 energy and time of switch flows and aborted attempts.
    flow_energy: f64,
    flow_time: Seconds,
    backoff_energy: f64,
    backoff_time: Seconds,
    over_trip_chunks: u64,
    over_trip_before: u64,
    max_ldo_vin: Amps,
}

impl Campaign {
    fn new(plan: &FaultPlan, n_intervals: usize) -> Self {
        Self {
            seed: plan.seed,
            interval: 0,
            faults: ActiveFaults::fold(&[]),
            pending_switch_failures: 0,
            last_good: None,
            last_rejected: None,
            consecutive_failed_sequences: 0,
            latched: false,
            switch_failures: 0,
            switch_retries: 0,
            counts: FaultCounts {
                armed: plan.events().filter(|e| e.interval < n_intervals).count() as u64,
                ..FaultCounts::default()
            },
            injected_by_class: FaultClass::ALL.iter().map(|&c| (c, 0)).collect(),
            mode_energy: [0.0; 2],
            flow_energy: 0.0,
            flow_time: Seconds::ZERO,
            backoff_energy: 0.0,
            backoff_time: Seconds::ZERO,
            over_trip_chunks: 0,
            over_trip_before: 0,
            max_ldo_vin: Amps::ZERO,
        }
    }

    /// Counts `n` injected events of one class.
    fn inject(&mut self, class: FaultClass, n: u64) {
        self.counts.injected += n;
        *self.injected_by_class.get_mut(&class).expect("class present") += n;
    }

    /// Arms interval `i`'s faults. Firmware faults land at once: the PMU
    /// re-validates its flash copy. A `V_IN` droop is always an
    /// electrical event seen by the rail telemetry.
    fn arm(&mut self, rt: &FlexWattsRuntime, plan: &FaultPlan, i: usize) {
        self.interval = i;
        self.faults = ActiveFaults::fold(plan.at(i));
        self.pending_switch_failures = self.faults.switch_attempts;
        self.over_trip_before = self.over_trip_chunks;
        for (offset, mask) in std::mem::take(&mut self.faults.firmware) {
            self.inject(FaultClass::Firmware, 1);
            let [ivr_img, ldo_img] = rt.predictor.firmware_images();
            let target = if offset & 1 == 0 { &ivr_img } else { &ldo_img };
            let mut bytes = target.as_bytes().to_vec();
            let at = offset % bytes.len();
            bytes[at] ^= mask;
            if FirmwareImage::parse(&bytes).is_err() {
                // CRC caught the flip; the runtime keeps its RAM tables
                // (last-good) and execution continues at full function.
                self.counts.detected += 1;
                self.counts.recovered += 1;
            } else {
                self.counts.silent += 1;
            }
        }
        let droops = self.faults.droop_events;
        self.inject(FaultClass::VinDroop, droops);
        self.counts.detected += droops;
    }

    /// Closes interval accounting after its chunks ran.
    fn settle(&mut self) {
        // Droop: recovered iff the protection kept every chunk of this
        // interval below the trip point.
        if self.over_trip_chunks == self.over_trip_before {
            self.counts.recovered += self.faults.droop_events;
        } else {
            self.counts.degraded += self.faults.droop_events;
        }
        // A switch-flow fault that armed but never saw a switch attempt
        // stays dormant. (Partially consumed arms collapse into the
        // sequences already counted.)
        if self.faults.switch_attempts == self.pending_switch_failures {
            self.counts.dormant += self.faults.switch_events;
        }
    }

    /// The PMU's accepted activity reading for an active interval: the
    /// clean estimate corrupted by the interval's sensor faults, then
    /// guarded. A dropped sample falls back to the last-good reading; a
    /// reading that jumps implausibly is replaced by it, unless it
    /// repeats (a genuine workload change).
    pub(crate) fn sense(&mut self, clean: ApplicationRatio) -> ApplicationRatio {
        let f = &self.faults;
        let (sensor_events, telemetry_events) = (f.sensor_events, f.telemetry_events);
        let mut reading = Some(f.stuck.unwrap_or(clean.get()));
        if let Some(amplitude) = f.noise {
            let h = hash3(self.seed ^ 0xBEEF, 7, self.interval as u64);
            let noise = (to_unit(h) - 0.5) * 2.0 * amplitude;
            reading = reading.map(|r| r + noise);
        }
        if f.drop {
            reading = None;
        }
        let sensor_faulted = f.sensor_faulted();
        self.inject(FaultClass::Sensor, sensor_events);
        self.inject(FaultClass::Telemetry, telemetry_events);

        let Some(raw) = reading else {
            // A missing sample is always detected; sensor faults stacked
            // under the drop never reached the PMU.
            self.counts.detected += telemetry_events;
            self.counts.recovered += telemetry_events;
            self.counts.silent += sensor_events;
            return self.last_good.unwrap_or(ApplicationRatio::POWER_VIRUS);
        };
        let clamped = raw.clamp(AR_FLOOR, 1.0);
        let implausible =
            self.last_good.is_some_and(|good| (clamped - good.get()).abs() > SENSOR_JUMP_THRESHOLD);
        let consistent_outlier = implausible
            && self
                .last_rejected
                .is_some_and(|prev| (clamped - prev).abs() <= SENSOR_JUMP_THRESHOLD / 2.0);
        if implausible && !consistent_outlier {
            // Guard tripped: fall back to last-good.
            self.last_rejected = Some(clamped);
            if sensor_faulted {
                self.counts.detected += sensor_events;
                self.counts.recovered += sensor_events;
            } else {
                self.counts.false_positives += 1;
            }
            return self.last_good.expect("implausible requires last_good");
        }
        // Accepted (possibly a consistent outlier = genuine workload
        // change, possibly silent in-range corruption).
        let accepted = ApplicationRatio::new(clamped).expect("clamped AR is valid");
        self.last_rejected = None;
        self.last_good = Some(accepted);
        self.counts.silent += sensor_events;
        accepted
    }

    /// An idle interval does not consult the sensor path: its scheduled
    /// sensor and telemetry faults stay dormant.
    pub(crate) fn sensor_idle(&mut self) {
        self.counts.dormant += self.faults.sensor_events + self.faults.telemetry_events;
    }

    /// The `V_IN` current under the interval's droop: delivering the
    /// same power at `factor`× the voltage pulls `1/factor`× the current.
    pub(crate) fn effective_vin(&self, vin_ldo: Amps) -> Amps {
        vin_ldo / self.faults.droop
    }

    /// Whether the watchdog latched the safe IVR-Mode.
    pub(crate) fn latched(&self) -> bool {
        self.latched
    }

    /// Moves `state` into `to`, retrying the interval's injected flow
    /// failures with linear backoff. A protection-mandated switch runs
    /// the hardened ROM flow, which injected flow faults cannot block.
    /// After [`WATCHDOG_THRESHOLD`] consecutive abandoned sequences the
    /// watchdog latches the safe IVR-Mode.
    pub(crate) fn change_mode(
        &mut self,
        state: &mut ReplayState,
        rt: &FlexWattsRuntime,
        to: PdnMode,
        hardened: bool,
        prep: &PreparedInterval,
    ) -> Result<(), PdnError> {
        let mut attempt = 1;
        while self.pending_switch_failures > 0 && !hardened {
            self.pending_switch_failures -= 1;
            self.switch_failures += 1;
            if attempt > 1 {
                self.switch_retries += 1;
            }
            // The aborted flow parks the package in C6 for its whole
            // duration, at the old mode's C6 power.
            let c6_power = rt.c6_power(state.mode)?;
            let v_from = rt.vin_level(state.mode, prep);
            let v_to = rt.vin_level(to, prep);
            let lost = rt.switch_flow.execute_aborted(v_from, v_to, &mut state.driver);
            state.energy += c6_power * lost;
            state.oracle_energy += c6_power * lost;
            state.total_time += lost;
            self.record_flow(c6_power * lost, lost);
            if attempt == 1 + SWITCH_RETRIES {
                return self.abandon(state, rt, prep);
            }
            // Linear backoff before the next attempt, executing normally
            // in the old mode.
            let wait = Seconds::from_micros(RETRY_BACKOFF_MICROS) * attempt as f64;
            let run_power = prep.power(state.mode);
            state.energy += run_power * wait;
            state.oracle_energy += prep.power_ivr.min(prep.power_ldo) * wait;
            state.total_time += wait;
            self.backoff_energy += run_power * wait;
            self.backoff_time += wait;
            attempt += 1;
        }
        if attempt > 1 {
            // A retry absorbed the fault.
            self.switch_retries += 1;
            self.inject(FaultClass::SwitchFlow, 1);
            self.counts.detected += 1;
            self.counts.recovered += 1;
        }
        self.consecutive_failed_sequences = 0;
        state.switch(rt, to, prep, Some(self))
    }

    /// Retries exhausted: the decision is abandoned, and the watchdog
    /// may latch the safe IVR-Mode through the hardened flow.
    fn abandon(
        &mut self,
        state: &mut ReplayState,
        rt: &FlexWattsRuntime,
        prep: &PreparedInterval,
    ) -> Result<(), PdnError> {
        self.inject(FaultClass::SwitchFlow, 1);
        self.counts.detected += 1;
        self.counts.degraded += 1;
        self.consecutive_failed_sequences += 1;
        if self.consecutive_failed_sequences >= WATCHDOG_THRESHOLD && !self.latched {
            self.latched = true;
            if state.mode != PdnMode::IvrMode {
                state.switch(rt, PdnMode::IvrMode, prep, Some(self))?;
            }
        }
        Ok(())
    }

    /// Records a switch flow's (or aborted attempt's) C6 charge.
    pub(crate) fn record_flow(&mut self, energy: f64, time: Seconds) {
        self.flow_energy += energy;
        self.flow_time += time;
    }

    /// Records one execution chunk, checking the electrical invariant.
    pub(crate) fn record_chunk(
        &mut self,
        rt: &FlexWattsRuntime,
        mode: PdnMode,
        energy: f64,
        vin: Amps,
    ) {
        self.mode_energy[mode as usize] += energy;
        if mode == PdnMode::LdoMode {
            self.max_ldo_vin = self.max_ldo_vin.max(vin);
            if rt.protection.would_trip(vin) {
                self.over_trip_chunks += 1;
            }
        }
    }

    /// Reconciles the fault ledger and checks the accumulators in
    /// `runtime` against the independent per-bucket ledgers.
    fn report(mut self, mut runtime: RuntimeReport, trip: Amps) -> FaultCampaignReport {
        // Reconcile armed vs injected/dormant for multi-event intervals
        // (e.g. a switch event that fired alongside its sibling): any
        // armed event not yet classified was dormant.
        let classified = self.counts.injected + self.counts.dormant;
        if self.counts.armed > classified {
            self.counts.dormant += self.counts.armed - classified;
        } else {
            self.counts.armed = classified;
        }

        let energy = runtime.energy_joules;
        let ledger_energy: f64 =
            self.mode_energy.iter().sum::<f64>() + self.flow_energy + self.backoff_energy;
        let energy_ledger_error = if energy.abs() > 0.0 {
            ((energy - ledger_energy) / energy).abs()
        } else {
            ledger_energy.abs()
        };
        let ledger_time: Seconds = runtime.time_in_mode.values().copied().sum::<Seconds>()
            + self.flow_time
            + self.backoff_time;
        let time_ledger_error = (runtime.total_time - ledger_time).abs().get();

        let invariants = InvariantReport {
            over_trip_chunks: self.over_trip_chunks,
            max_ldo_vin_current: self.max_ldo_vin,
            trip_current: trip,
            energy_ledger_error,
            time_ledger_error,
            oracle_bounded: runtime.oracle_energy_joules <= energy + 1e-12,
        };
        runtime.switch_failures = self.switch_failures;
        runtime.switch_retries = self.switch_retries;
        FaultCampaignReport {
            seed: self.seed,
            runtime,
            counts: self.counts,
            injected_by_class: self.injected_by_class,
            watchdog_latched: self.latched,
            invariants,
        }
    }
}

impl FlexWattsRuntime {
    /// Simulates a trace with the plan's faults injected and the
    /// degradation contract applied, checking the safety invariants on
    /// every execution chunk.
    ///
    /// Equivalent to [`run_faulted_with`](Self::run_faulted_with) on the
    /// full worker pool: the pure per-interval preparation fans out in
    /// parallel, while injection, detection, and recovery replay serially
    /// in trace order, so the report is bit-identical for any worker
    /// choice and for repeated runs of the same plan.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn run_faulted(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
    ) -> Result<FaultCampaignReport, PdnError> {
        self.run_faulted_with(trace, plan, Workers::Auto)
    }

    /// [`run_faulted`](Self::run_faulted) with an explicit worker choice.
    ///
    /// The serial pass is the clean runtime's ([`FlexWattsRuntime::run`]),
    /// so an empty plan reproduces the clean report bit for bit.
    ///
    /// # Errors
    ///
    /// See [`run_faulted`](Self::run_faulted).
    pub fn run_faulted_with(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
        workers: Workers,
    ) -> Result<FaultCampaignReport, PdnError> {
        let prepared = self.prepare_batch(trace.intervals(), workers)?;
        let sensors = ActivitySensorBank::new(self.config.sensor_seed);
        let mut state = ReplayState::new(self);
        let mut campaign = Campaign::new(plan, trace.intervals().len());
        for (i, (interval, prep)) in trace.intervals().iter().zip(&prepared).enumerate() {
            campaign.arm(self, plan, i);
            if campaign.faults.droop_events > 0 {
                // Force a prompt re-evaluation so the protection can act
                // inside this interval.
                state.since_eval = state.eval_interval;
            }
            state.step(self, &sensors, interval, prep, Some(&mut campaign))?;
            campaign.settle();
        }
        Ok(campaign.report(state.finish(), self.protection.trip_current()))
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
    use pdn_workload::{BatteryLifeWorkload, TraceInterval, WorkloadType};
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
        // Zoo traces interleave intervals shorter than the 10 ms
        // evaluation interval, so at 36 and 50 W an interval whose LDO-Mode
        // V_IN current is over the trip point starts between evaluations:
        // only the per-chunk guard keeps it out of LDO-Mode.
        let bursty = bursty_trace();
        let zoo = pdn_workload::zoo_mix(1, 100);
        // (TDP, trace, whether the guard must fire on it)
        let cases = [
            (36.0, &bursty, false),
            (4.0, &zoo, false),
            (18.0, &zoo, false),
            (36.0, &zoo, true),
            (50.0, &zoo, false),
        ];
        for (tdp, trace, guard_fires) in cases {
            let rt = runtime(tdp);
            let clean = rt.run(trace).unwrap();
            let report = rt.run_faulted(trace, &FaultPlan::new(1)).unwrap();
            let case = format!("{} at {tdp} W", trace.name());
            assert_eq!(clean, report.runtime, "{case}: no faults => the clean report");
            // Without faults nothing is armed or injected. The zoo's
            // genuine workload changes still trip the sensor
            // plausibility filter (false positives); the bursty trace's
            // steady bursts never do.
            let counts = if trace.name() == "bursty" {
                report.counts
            } else {
                FaultCounts { false_positives: 0, ..report.counts }
            };
            assert_eq!(counts, FaultCounts::default(), "{case}");
            assert!(report.invariants.holds(), "{case}: {}", report.invariants);
            if guard_fires {
                assert_eq!(report.invariants.over_trip_chunks, 0, "{case}");
                assert!(clean.protection_overrides > 0, "{case}: the guard must fire");
            }
        }
    }

    #[test]
    fn campaigns_are_bit_reproducible() {
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(10);
        let plan = FaultPlan::generate(7, trace.intervals().len(), &FaultMix::chaos());
        let a = runtime(18.0).run_faulted(&trace, &plan).unwrap();
        let b = runtime(18.0).run_faulted(&trace, &plan).unwrap();
        assert_eq!(a, b, "same seed + plan must be bit-identical");
        // And independent of the worker pool.
        let c = runtime(18.0).run_faulted_with(&trace, &plan, Workers::Fixed(4)).unwrap();
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
        let report = rt.run_faulted(&trace, &plan).unwrap();
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
        let report = rt.run_faulted(&trace, &plan).unwrap();
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
        let report = rt.run_faulted(&trace, &plan).unwrap();
        assert!(report.watchdog_latched, "watchdog must latch: {:?}", report.counts);
        assert!(report.counts.degraded >= WATCHDOG_THRESHOLD as u64);
        // Latched safe mode: the trace ends executing IVR-Mode and no
        // further switch sequences are attempted after the latch.
        assert!(report.runtime.time_in_mode[&PdnMode::IvrMode].get() > 0.0);
        assert!(report.invariants.holds(), "{}", report.invariants);
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
        let report = rt.run_faulted(&trace, &plan).unwrap();
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
        let report = rt.run_faulted(&trace, &plan).unwrap();
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
            let report = runtime(36.0).run_faulted(&trace, &plan).unwrap();
            assert!(report.counts.consistent(), "seed {seed}: {:?}", report.counts);
            assert!(report.invariants.holds(), "seed {seed}: {}", report.invariants);
            assert!(report.runtime.energy_efficiency_vs_oracle() <= 1.0 + 1e-12);
        }
    }
}
