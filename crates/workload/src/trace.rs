//! Interval traces: the representation of workload behaviour over time.
//!
//! A trace is a sequence of intervals, each either *active* (compute
//! domains running with a workload type and application ratio) or *idle*
//! (the package resides in a C-state). PDNspot's steady-state models
//! consume one interval at a time; the FlexWatts runtime simulator walks
//! whole traces.

use pdn_proc::{DomainKind, PackageCState};
use pdn_units::{ApplicationRatio, Ratio, Seconds, UnitsError};
use std::fmt;

/// The workload types distinguished by the paper's models and by the
/// FlexWatts mode predictor (Algorithm 1 input `WL_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadType {
    /// One CPU core active, graphics idle.
    SingleThread,
    /// Both CPU cores active (multi-threaded or multi-programmed),
    /// graphics idle.
    MultiThread,
    /// Graphics engines active; cores lightly loaded (§7.1: 10–20 % of the
    /// budget goes to the cores in graphics workloads).
    Graphics,
    /// Battery-life workload: mostly idle with short active bursts.
    BatteryLife,
}

impl WorkloadType {
    /// The workload types with meaningful active-interval ETEE curves
    /// (Fig. 4a–i rows).
    pub const ACTIVE_TYPES: [WorkloadType; 3] =
        [WorkloadType::SingleThread, WorkloadType::MultiThread, WorkloadType::Graphics];

    /// Every workload type, in the order of its [`WorkloadType::tag`].
    pub const ALL: [WorkloadType; 4] = [
        WorkloadType::SingleThread,
        WorkloadType::MultiThread,
        WorkloadType::Graphics,
        WorkloadType::BatteryLife,
    ];

    /// The byte every binary format stores this type as (`.pdnt` phase
    /// tags, firmware sections, `pdn-serve` frames).
    pub fn tag(self) -> u8 {
        match self {
            WorkloadType::SingleThread => 0,
            WorkloadType::MultiThread => 1,
            WorkloadType::Graphics => 2,
            WorkloadType::BatteryLife => 3,
        }
    }

    /// The type a [`WorkloadType::tag`] byte stands for.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    /// Whether a domain is powered during an active interval of this type.
    pub fn domain_powered(self, domain: DomainKind) -> bool {
        match domain {
            DomainKind::Core0 | DomainKind::Llc | DomainKind::Sa | DomainKind::Io => true,
            // Graphics workloads park the second core: the GPU does the
            // heavy lifting and the cores get only 10-20 % of the budget
            // (§7.1), which one core at low frequency already consumes.
            DomainKind::Core1 => matches!(self, WorkloadType::MultiThread),
            DomainKind::Gfx => matches!(self, WorkloadType::Graphics),
        }
    }
}

impl fmt::Display for WorkloadType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadType::SingleThread => "single-thread",
            WorkloadType::MultiThread => "multi-thread",
            WorkloadType::Graphics => "graphics",
            WorkloadType::BatteryLife => "battery-life",
        };
        f.write_str(s)
    }
}

/// What the processor is doing during one trace interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Compute domains are executing.
    Active {
        /// The workload type of the interval.
        workload_type: WorkloadType,
        /// Package-level application ratio (AR) of the interval.
        ar: ApplicationRatio,
    },
    /// The package resides in an idle state (or C0MIN).
    Idle(PackageCState),
}

impl Phase {
    /// The AR of the phase; idle phases report the power-virus AR since
    /// their guardband question does not arise.
    pub fn ar(&self) -> ApplicationRatio {
        match self {
            Phase::Active { ar, .. } => *ar,
            Phase::Idle(_) => ApplicationRatio::POWER_VIRUS,
        }
    }

    /// Whether this phase counts as active (C0) residency. The C0MIN
    /// state — active at minimum frequency — counts (§5: R_C0MIN is an
    /// active residency).
    pub(crate) fn is_active(&self) -> bool {
        match self {
            Phase::Active { .. } => true,
            Phase::Idle(state) => state.is_active(),
        }
    }
}

/// One interval of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceInterval {
    /// Interval length.
    pub duration: Seconds,
    /// What the processor does in the interval.
    pub phase: Phase,
}

impl TraceInterval {
    /// An active interval.
    ///
    /// The duration is trusted: it is not validated here (trace files are
    /// validated when they are written and read).
    pub fn active(duration: Seconds, workload_type: WorkloadType, ar: ApplicationRatio) -> Self {
        Self { duration, phase: Phase::Active { workload_type, ar } }
    }

    /// An idle interval in `state`.
    ///
    /// The duration is trusted: it is not validated here (trace files are
    /// validated when they are written and read).
    pub fn idle(duration: Seconds, state: PackageCState) -> Self {
        Self { duration, phase: Phase::Idle(state) }
    }

    /// A validated active interval: rejects non-finite or negative
    /// durations with a typed error (the AR is validated by
    /// [`ApplicationRatio`]'s own constructor). This is the entry point
    /// for durations produced by external toolchains — mirroring the
    /// `MaxCurrentProtection::new` input hardening, invalid inputs are
    /// errors, never panics or silent NaN propagation.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] or [`UnitsError::OutOfRange`]
    /// when the duration is NaN, infinite, or negative.
    pub(crate) fn try_active(
        duration: Seconds,
        workload_type: WorkloadType,
        ar: ApplicationRatio,
    ) -> Result<Self, UnitsError> {
        let interval = Self::active(duration, workload_type, ar);
        interval.validate()?;
        Ok(interval)
    }

    /// A validated idle interval: rejects non-finite or negative
    /// durations with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] or [`UnitsError::OutOfRange`]
    /// when the duration is NaN, infinite, or negative.
    pub(crate) fn try_idle(duration: Seconds, state: PackageCState) -> Result<Self, UnitsError> {
        let interval = Self::idle(duration, state);
        interval.validate()?;
        Ok(interval)
    }

    /// Checks the interval's invariants: a finite, non-negative duration
    /// and (for active phases) a finite AR inside `(0, 1]`. The AR bound
    /// is enforced by [`ApplicationRatio`] at construction, but decoded
    /// representations (trace files, wire formats) rebuild intervals from
    /// raw bits and must re-establish it.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a typed [`UnitsError`].
    pub(crate) fn validate(&self) -> Result<(), UnitsError> {
        let d = self.duration.get();
        if !d.is_finite() {
            return Err(UnitsError::NotFinite { what: "trace interval duration" });
        }
        if d < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "trace interval duration",
                value: d,
                range: "[0, +inf)",
            });
        }
        if let Phase::Active { ar, .. } = self.phase {
            // Re-validate through the canonical constructor so the trace
            // layer can never hold an AR the rest of the stack rejects.
            ApplicationRatio::new(ar.get())?;
        }
        Ok(())
    }
}

/// A named sequence of intervals.
///
/// # Examples
///
/// ```
/// use pdn_proc::PackageCState;
/// use pdn_units::{ApplicationRatio, Seconds};
/// use pdn_workload::{Trace, TraceInterval, WorkloadType};
///
/// let trace = Trace::new(
///     "burst",
///     vec![
///         TraceInterval::active(
///             Seconds::from_millis(10.0),
///             WorkloadType::SingleThread,
///             ApplicationRatio::new(0.6)?,
///         ),
///         TraceInterval::idle(Seconds::from_millis(90.0), PackageCState::C8),
///     ],
/// );
/// assert!((trace.total_duration().millis() - 100.0).abs() < 1e-9);
/// assert!((trace.active_residency().get() - 0.1).abs() < 1e-9);
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    intervals: Vec<TraceInterval>,
}

impl Trace {
    /// Creates a trace.
    ///
    /// Intervals are trusted: they are not validated here (trace files
    /// are validated when they are written and read).
    pub fn new(name: impl Into<String>, intervals: Vec<TraceInterval>) -> Self {
        Self { name: name.into(), intervals }
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The intervals, in order.
    pub fn intervals(&self) -> &[TraceInterval] {
        &self.intervals
    }

    /// Total trace duration.
    pub fn total_duration(&self) -> Seconds {
        self.intervals.iter().map(|i| i.duration).sum()
    }

    /// The fraction of trace time spent in active phases.
    pub fn active_residency(&self) -> Ratio {
        let total = self.total_duration();
        if total.get() <= 0.0 {
            return Ratio::ZERO;
        }
        let active: Seconds =
            self.intervals.iter().filter(|i| i.phase.is_active()).map(|i| i.duration).sum();
        Ratio::new(active.get() / total.get()).expect("residency of positive durations")
    }

    /// Duration-weighted mean AR over the active intervals, if any.
    pub fn mean_active_ar(&self) -> Option<ApplicationRatio> {
        let mut weighted = 0.0;
        let mut time = 0.0;
        for i in &self.intervals {
            if let Phase::Active { ar, .. } = i.phase {
                weighted += ar.get() * i.duration.get();
                time += i.duration.get();
            }
        }
        if time <= 0.0 {
            None
        } else {
            Some(ApplicationRatio::new(weighted / time).expect("mean of valid ARs is valid"))
        }
    }

    /// The dominant workload type by active time, if the trace has any
    /// active interval.
    #[cfg(test)]
    pub(crate) fn dominant_type(&self) -> Option<WorkloadType> {
        use std::collections::BTreeMap;
        let mut time: BTreeMap<WorkloadType, f64> = BTreeMap::new();
        for i in &self.intervals {
            if let Phase::Active { workload_type, .. } = i.phase {
                *time.entry(workload_type).or_insert(0.0) += i.duration.get();
            }
        }
        time.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(t, _)| t)
    }

    /// Appends another trace's intervals (sequential composition).
    pub(crate) fn extend(&mut self, other: &Trace) {
        self.intervals.extend_from_slice(&other.intervals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn workload_type_domain_roles() {
        use DomainKind::*;
        assert!(WorkloadType::SingleThread.domain_powered(Core0));
        assert!(!WorkloadType::SingleThread.domain_powered(Core1));
        assert!(!WorkloadType::SingleThread.domain_powered(Gfx));
        assert!(WorkloadType::MultiThread.domain_powered(Core1));
        assert!(WorkloadType::Graphics.domain_powered(Gfx));
        for t in WorkloadType::ACTIVE_TYPES {
            assert!(t.domain_powered(Sa) && t.domain_powered(Io) && t.domain_powered(Llc));
        }
    }

    #[test]
    fn trace_statistics() {
        let t = Trace::new(
            "t",
            vec![
                TraceInterval::active(Seconds::new(1.0), WorkloadType::SingleThread, ar(0.4)),
                TraceInterval::active(Seconds::new(3.0), WorkloadType::MultiThread, ar(0.8)),
                TraceInterval::idle(Seconds::new(4.0), PackageCState::C6),
            ],
        );
        assert_eq!(t.total_duration(), Seconds::new(8.0));
        assert!((t.active_residency().get() - 0.5).abs() < 1e-12);
        let mean = t.mean_active_ar().unwrap();
        assert!((mean.get() - 0.7).abs() < 1e-12);
        assert_eq!(t.dominant_type(), Some(WorkloadType::MultiThread));
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace::new("empty", vec![]);
        assert_eq!(t.total_duration(), Seconds::ZERO);
        assert_eq!(t.active_residency(), Ratio::ZERO);
        assert!(t.mean_active_ar().is_none());
        assert!(t.dominant_type().is_none());
    }

    #[test]
    fn invalid_durations_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-12] {
            let d = Seconds::new(bad);
            assert!(
                TraceInterval::try_active(d, WorkloadType::SingleThread, ar(0.5)).is_err(),
                "duration {bad} must be rejected"
            );
            assert!(TraceInterval::try_idle(d, PackageCState::C6).is_err());
        }
        // Zero and positive durations are fine.
        assert!(TraceInterval::try_idle(Seconds::ZERO, PackageCState::C6).is_ok());
        assert!(
            TraceInterval::try_active(Seconds::new(0.01), WorkloadType::Graphics, ar(0.7)).is_ok()
        );
    }

    #[test]
    fn validate_rejects_smuggled_out_of_range_ar() {
        // An AR rebuilt from raw bits (a decoded trace file) can carry a
        // value the constructor would refuse; validate() must catch it.
        let smuggled: ApplicationRatio = unsafe { std::mem::transmute(1.5f64) };
        let interval =
            TraceInterval::active(Seconds::new(1.0), WorkloadType::SingleThread, smuggled);
        assert!(interval.validate().is_err());
    }

    #[test]
    fn idle_phase_reports_power_virus_ar() {
        let p = Phase::Idle(PackageCState::C8);
        assert_eq!(p.ar(), ApplicationRatio::POWER_VIRUS);
        assert!(!p.is_active());
    }
}
