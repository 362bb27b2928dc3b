//! Synthetic trace generation: power-virus traces and seeded random
//! workload mixes.
//!
//! The paper's trace library includes synthetic power-virus traces for each
//! domain, generated with tools like McPAT/SYMPO/Blizzard (§4.1). Here a
//! power virus is simply an AR = 1 trace. The random generator produces
//! phase-structured workloads (bursts of activity separated by idle
//! periods) used by the FlexWatts runtime simulator and by the validation
//! campaign; it is fully deterministic under a seed.

use crate::trace::{Trace, TraceInterval, WorkloadType};
use pdn_proc::PackageCState;
use pdn_units::{ApplicationRatio, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random generator of phase-structured workloads.
///
/// # Examples
///
/// ```
/// use pdn_units::Seconds;
/// use pdn_workload::TraceGenerator;
///
/// let trace = TraceGenerator::new(42).generate("mix", 100);
/// assert_eq!(trace.intervals().len(), 100);
/// // Deterministic under the seed:
/// assert_eq!(trace, TraceGenerator::new(42).generate("mix", 100));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
    /// Probability that an interval is active (vs idle).
    pub(crate) active_probability: f64,
    /// AR range for active intervals.
    pub(crate) ar_range: (f64, f64),
    /// Interval duration range in milliseconds.
    pub(crate) duration_range_ms: (f64, f64),
    /// Workload types to draw from for active intervals.
    pub(crate) types: Vec<WorkloadType>,
    /// Idle states to draw from for idle intervals.
    pub(crate) idle_states: Vec<PackageCState>,
}

impl TraceGenerator {
    /// Creates a generator with the default mixed-workload configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            active_probability: 0.6,
            ar_range: (0.40, 0.80),
            duration_range_ms: (5.0, 50.0),
            types: vec![
                WorkloadType::SingleThread,
                WorkloadType::MultiThread,
                WorkloadType::Graphics,
            ],
            idle_states: vec![PackageCState::C2, PackageCState::C6, PackageCState::C8],
        }
    }

    /// Restricts the generator to one workload type.
    pub fn with_type(mut self, t: WorkloadType) -> Self {
        self.types = vec![t];
        self
    }

    /// Sets the probability that an interval is active.
    pub fn with_active_probability(mut self, p: f64) -> Self {
        self.active_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Generates a trace of `intervals` intervals.
    ///
    /// # Panics
    ///
    /// Panics if the generator was configured with empty type or idle-state
    /// lists, or an invalid AR range.
    pub fn generate(&self, name: &str, intervals: usize) -> Trace {
        assert!(!self.types.is_empty(), "need at least one workload type");
        assert!(!self.idle_states.is_empty(), "need at least one idle state");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(intervals);
        for _ in 0..intervals {
            let ms = rng.random_range(self.duration_range_ms.0..=self.duration_range_ms.1);
            let duration = Seconds::from_millis(ms);
            if rng.random_bool(self.active_probability) {
                let t = self.types[rng.random_range(0..self.types.len())];
                let ar_val = rng.random_range(self.ar_range.0..=self.ar_range.1);
                let ar = ApplicationRatio::new(ar_val).expect("configured AR range is valid");
                out.push(TraceInterval::active(duration, t, ar));
            } else {
                let s = self.idle_states[rng.random_range(0..self.idle_states.len())];
                out.push(TraceInterval::idle(duration, s));
            }
        }
        Trace::new(name, out)
    }

    /// Generates a family of `count` traces with distinct derived seeds —
    /// the shape of the paper's 200-trace validation subset (§4.3).
    pub fn generate_family(&self, prefix: &str, count: usize, intervals: usize) -> Vec<Trace> {
        (0..count)
            .map(|i| {
                let mut g = self.clone();
                g.seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                g.generate(&format!("{prefix}-{i:03}"), intervals)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = TraceGenerator::new(7).generate("a", 50);
        let b = TraceGenerator::new(7).generate("b", 50);
        assert_eq!(a.intervals(), b.intervals());
        let c = TraceGenerator::new(8).generate("c", 50);
        assert_ne!(a.intervals(), c.intervals());
    }

    #[test]
    fn generator_respects_configuration() {
        let t = TraceGenerator::new(1)
            .with_type(WorkloadType::Graphics)
            .with_active_probability(1.0)
            .generate("gfx", 40);
        assert!((t.active_residency().get() - 1.0).abs() < 1e-12);
        assert_eq!(t.dominant_type(), Some(WorkloadType::Graphics));
        let ar = t.mean_active_ar().unwrap().get();
        assert!((0.4..=0.8).contains(&ar));
    }

    #[test]
    fn family_members_differ() {
        let family = TraceGenerator::new(3).generate_family("val", 5, 20);
        assert_eq!(family.len(), 5);
        assert_ne!(family[0].intervals(), family[1].intervals());
        assert_eq!(family[0].name(), "val-000");
    }
}
