//! A zoo of realistic trace scenarios for trace-file tooling and
//! benchmarks.
//!
//! The synthetic generators in `crate::synthetic` draw i.i.d. random
//! intervals; real power traces have structure — bursts, frame locks,
//! thermal sawtooths (§7 of the paper; PAPERS.md arXiv:2605.17182).
//! Each [`ZooScenario`] synthesises one such structure deterministically
//! from a seed, so the trace-file converters, the streaming-replay
//! bench, and the chaos campaign all exercise realistically-shaped
//! inputs without shipping proprietary traces.

use crate::trace::{Trace, TraceInterval, WorkloadType};
use pdn_proc::PackageCState;
use pdn_units::{ApplicationRatio, Seconds};

/// SplitMix64 — the same tiny deterministic generator the fault plans
/// and chaos scripts use; good enough statistical quality for workload
/// shaping and completely reproducible.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

fn ar(v: f64) -> ApplicationRatio {
    // The zoo generators keep their draws inside (0, 1]; clamp guards
    // the boundary against floating-point dust.
    ApplicationRatio::new(v.clamp(1e-6, 1.0)).expect("clamped AR is valid")
}

/// The trace-shape scenarios shipped with the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ZooScenario {
    /// Server-style alternation of multi-thread bursts and deep-idle
    /// valleys (request batches against C6/C8 quiet periods).
    ServerBurstIdle,
    /// Gaming at a locked frame cadence: a graphics slice of most of
    /// each 16.7 ms frame, the remainder in shallow idle.
    GamingFrameLocked,
    /// ML inference serving: long steady multi-thread compute at high
    /// AR with short C2 gaps between batches.
    MlInference,
    /// Thermally-throttled mobile: an AR sawtooth decaying from 0.9 to
    /// 0.45 as the device heats, then a C8 cool-off, repeating.
    MobileThrottled,
}

impl ZooScenario {
    /// Every scenario, in declaration order.
    pub(crate) const ALL: [ZooScenario; 4] = [
        ZooScenario::ServerBurstIdle,
        ZooScenario::GamingFrameLocked,
        ZooScenario::MlInference,
        ZooScenario::MobileThrottled,
    ];

    /// Stable snake_case scenario name.
    pub fn name(self) -> &'static str {
        match self {
            ZooScenario::ServerBurstIdle => "server_burst_idle",
            ZooScenario::GamingFrameLocked => "gaming_frame_locked",
            ZooScenario::MlInference => "ml_inference",
            ZooScenario::MobileThrottled => "mobile_throttled",
        }
    }

    /// Generates `intervals` intervals of this scenario from `seed`.
    /// Deterministic: the same `(seed, intervals)` always yields the
    /// same trace, bit for bit.
    pub fn generate(self, seed: u64, intervals: usize) -> Trace {
        // Offset the stream per scenario so a mix built from one seed
        // does not reuse draws across scenarios.
        let mut rng = SplitMix::new(seed ^ (0x5EED_0000 + self as u64));
        let mut out = Vec::with_capacity(intervals);
        match self {
            ZooScenario::ServerBurstIdle => {
                while out.len() < intervals {
                    // A burst of request-batch intervals...
                    let burst = 2 + (rng.next_u64() % 6) as usize;
                    for _ in 0..burst.min(intervals - out.len()) {
                        out.push(TraceInterval::active(
                            Seconds::from_millis(rng.range(0.5, 4.0)),
                            WorkloadType::MultiThread,
                            ar(rng.range(0.70, 0.95)),
                        ));
                    }
                    if out.len() >= intervals {
                        break;
                    }
                    // ...then a deep-idle valley.
                    let state =
                        if rng.next_f64() < 0.5 { PackageCState::C6 } else { PackageCState::C8 };
                    out.push(TraceInterval::idle(
                        Seconds::from_millis(rng.range(2.0, 20.0)),
                        state,
                    ));
                }
            }
            ZooScenario::GamingFrameLocked => {
                const FRAME_MS: f64 = 16.7;
                while out.len() < intervals {
                    let render_ms = rng.range(8.0, 14.0);
                    out.push(TraceInterval::active(
                        Seconds::from_millis(render_ms),
                        WorkloadType::Graphics,
                        ar(rng.range(0.65, 0.90)),
                    ));
                    if out.len() >= intervals {
                        break;
                    }
                    let state =
                        if rng.next_f64() < 0.3 { PackageCState::C0Min } else { PackageCState::C2 };
                    out.push(TraceInterval::idle(
                        Seconds::from_millis(FRAME_MS - render_ms),
                        state,
                    ));
                }
            }
            ZooScenario::MlInference => {
                while out.len() < intervals {
                    // A serving batch: steady high-AR compute.
                    let batch = 4 + (rng.next_u64() % 8) as usize;
                    for _ in 0..batch.min(intervals - out.len()) {
                        out.push(TraceInterval::active(
                            Seconds::from_millis(rng.range(2.0, 6.0)),
                            WorkloadType::MultiThread,
                            ar(rng.range(0.80, 0.95)),
                        ));
                    }
                    if out.len() >= intervals {
                        break;
                    }
                    // Short shallow gap while the next batch queues.
                    out.push(TraceInterval::idle(
                        Seconds::from_millis(rng.range(0.3, 1.5)),
                        PackageCState::C2,
                    ));
                }
            }
            ZooScenario::MobileThrottled => {
                while out.len() < intervals {
                    // Thermal sawtooth: AR decays as the device heats.
                    let steps = 6 + (rng.next_u64() % 6) as usize;
                    for step in 0..steps.min(intervals - out.len()) {
                        let progress = step as f64 / steps as f64;
                        let peak = 0.90 - 0.45 * progress;
                        out.push(TraceInterval::active(
                            Seconds::from_millis(rng.range(3.0, 8.0)),
                            WorkloadType::SingleThread,
                            ar(peak - rng.range(0.0, 0.05)),
                        ));
                    }
                    if out.len() >= intervals {
                        break;
                    }
                    // Cool-off in deep idle before the next ramp.
                    out.push(TraceInterval::idle(
                        Seconds::from_millis(rng.range(10.0, 40.0)),
                        PackageCState::C8,
                    ));
                }
            }
        }
        out.truncate(intervals);
        Trace::new(self.name(), out)
    }
}

/// Concatenates every zoo scenario (in `ZooScenario::ALL` order) into
/// one mixed trace of `4 * intervals_per_scenario` intervals — the
/// standard input for the trace-file bench and the CI trace-smoke job.
pub fn zoo_mix(seed: u64, intervals_per_scenario: usize) -> Trace {
    let mut mix = Trace::new("zoo_mix", Vec::new());
    for scenario in ZooScenario::ALL {
        mix.extend(&scenario.generate(seed, intervals_per_scenario));
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    #[test]
    fn scenarios_are_deterministic() {
        for s in ZooScenario::ALL {
            let a = s.generate(7, 300);
            let b = s.generate(7, 300);
            assert_eq!(a, b, "{} must be deterministic", s.name());
            let c = s.generate(8, 300);
            assert_ne!(a, c, "{} must vary with the seed", s.name());
        }
    }

    #[test]
    fn scenarios_hit_the_requested_length_and_validate() {
        for s in ZooScenario::ALL {
            for n in [0, 1, 17, 256] {
                let t = s.generate(3, n);
                assert_eq!(t.intervals().len(), n, "{}", s.name());
                for i in t.intervals() {
                    i.validate().expect("zoo intervals are always valid");
                }
            }
        }
    }

    #[test]
    fn scenarios_have_their_signature_shapes() {
        let server = ZooScenario::ServerBurstIdle.generate(1, 400);
        assert_eq!(server.dominant_type(), Some(WorkloadType::MultiThread));
        assert!(server.intervals().iter().any(|i| i.phase == Phase::Idle(PackageCState::C8)
            || i.phase == Phase::Idle(PackageCState::C6)));

        let gaming = ZooScenario::GamingFrameLocked.generate(1, 400);
        assert_eq!(gaming.dominant_type(), Some(WorkloadType::Graphics));

        let ml = ZooScenario::MlInference.generate(1, 400);
        assert!(ml.mean_active_ar().unwrap().get() > 0.8, "inference runs hot");
        assert!(ml.active_residency().get() > 0.8, "inference is mostly active");

        let mobile = ZooScenario::MobileThrottled.generate(1, 400);
        let mean = mobile.mean_active_ar().unwrap().get();
        assert!(mean > 0.5 && mean < 0.9, "throttling pulls the mean AR down: {mean}");
    }

    #[test]
    fn zoo_mix_concatenates_all_scenarios() {
        let mix = zoo_mix(11, 50);
        assert_eq!(mix.intervals().len(), 200);
        assert_eq!(mix.name(), "zoo_mix");
        // Both active and idle phases appear.
        assert!(mix.intervals().iter().any(|i| i.phase.is_active()));
        assert!(mix.intervals().iter().any(|i| !i.phase.is_active()));
    }
}
