//! SPEC CPU2006 benchmark profiles (Fig. 7 of the paper).
//!
//! The paper evaluates 29 SPEC CPU2006 benchmarks, sorted by their average
//! *performance scalability* — the relative performance gain per unit of
//! relative CPU-frequency gain (§3.3, footnote 5). We cannot run the
//! proprietary suite here, so each benchmark is represented by a synthetic
//! profile carrying the quantities the models consume: its scalability
//! (ascending in Fig. 7's order, from the memory-bound `433.milc` to the
//! compute-bound `416.gamess`) and an application ratio correlated with
//! computational intensity.

use crate::trace::{Trace, TraceInterval, WorkloadType};
use pdn_units::{ApplicationRatio, Ratio, Seconds};

/// A SPEC CPU2006 benchmark profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecBenchmark {
    /// Benchmark name (e.g. `"416.gamess"`).
    pub name: &'static str,
    /// Performance scalability with CPU frequency (0–1; Fig. 7 right axis).
    pub perf_scalability: Ratio,
    /// Application ratio of the benchmark's dominant phase.
    pub ar: ApplicationRatio,
}

impl SpecBenchmark {
    /// Produces a steady-state single-thread trace of the benchmark
    /// (`duration` of continuous execution).
    pub fn as_trace(&self, duration: Seconds) -> Trace {
        Trace::new(
            self.name,
            vec![TraceInterval::active(duration, WorkloadType::SingleThread, self.ar)],
        )
    }

    /// A crude memory-intensity proxy: the complement of scalability
    /// (memory-bound benchmarks gain little from frequency).
    pub fn memory_intensity(&self) -> Ratio {
        self.perf_scalability.complement()
    }
}

/// `(name, performance scalability, application ratio)` in Fig. 7's
/// ascending-scalability order.
const SPEC_TABLE: [(&str, f64, f64); 29] = [
    ("433.milc", 0.37, 0.52),
    ("410.bwaves", 0.40, 0.55),
    ("459.GemsFDTD", 0.43, 0.57),
    ("450.soplex", 0.46, 0.51),
    ("434.zeusmp", 0.49, 0.58),
    ("437.leslie3d", 0.52, 0.60),
    ("471.omnetpp", 0.55, 0.48),
    ("429.mcf", 0.57, 0.45),
    ("481.wrf", 0.60, 0.62),
    ("403.gcc", 0.62, 0.55),
    ("470.lbm", 0.64, 0.66),
    ("436.cactusADM", 0.67, 0.64),
    ("482.sphinx3", 0.70, 0.63),
    ("462.libquantum", 0.72, 0.60),
    ("447.dealII", 0.75, 0.67),
    ("483.xalancbmk", 0.77, 0.59),
    ("454.calculix", 0.80, 0.70),
    ("473.astar", 0.82, 0.61),
    ("435.gromacs", 0.84, 0.72),
    ("401.bzip2", 0.86, 0.65),
    ("465.tonto", 0.88, 0.73),
    ("444.namd", 0.90, 0.75),
    ("458.sjeng", 0.92, 0.68),
    ("464.h264ref", 0.94, 0.78),
    ("445.gobmk", 0.95, 0.69),
    ("453.povray", 0.97, 0.74),
    ("400.perlbench", 0.98, 0.71),
    ("456.hmmer", 0.99, 0.77),
    ("416.gamess", 1.00, 0.80),
];

/// The 29 SPEC CPU2006 benchmarks in Fig. 7's ascending-scalability order.
///
/// # Examples
///
/// ```
/// use pdn_workload::spec::spec_cpu2006;
///
/// let suite = spec_cpu2006();
/// assert_eq!(suite[0].name, "433.milc");
/// assert!(suite[0].perf_scalability < suite[28].perf_scalability);
/// ```
pub fn spec_cpu2006() -> Vec<SpecBenchmark> {
    SPEC_TABLE
        .iter()
        .map(|&(name, scal, ar)| SpecBenchmark {
            name,
            perf_scalability: Ratio::new(scal).expect("static scalability is valid"),
            ar: ApplicationRatio::new(ar).expect("static AR is valid"),
        })
        .collect()
}

/// Multi-programmed pairs: two single-thread benchmarks run together, one
/// per core (the paper's ~1200 multi-programmed traces). The pair's AR is
/// the mean of the members' and its scalability the minimum (the slower-
/// scaling member gates throughput).
pub fn multiprogrammed_pairs() -> Vec<(String, SpecBenchmark, SpecBenchmark)> {
    let suite = spec_cpu2006();
    let mut pairs = Vec::new();
    // Pair i with (28 − i): mixes memory-bound with compute-bound.
    for i in 0..suite.len() / 2 {
        let a = suite[i].clone();
        let b = suite[suite.len() - 1 - i].clone();
        pairs.push((format!("{}+{}", a.name, b.name), a, b));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_29_unique_benchmarks() {
        let suite = spec_cpu2006();
        assert_eq!(suite.len(), 29);
        let mut names: Vec<&str> = suite.iter().map(|b| b.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 29);
    }

    #[test]
    fn scalability_is_strictly_ascending() {
        let suite = spec_cpu2006();
        for w in suite.windows(2) {
            assert!(
                w[0].perf_scalability < w[1].perf_scalability,
                "{} must scale worse than {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn ars_lie_in_the_validated_band() {
        // Fig. 4 validates over AR 40–80 %; the profiles stay inside it.
        for b in spec_cpu2006() {
            let ar = b.ar.get();
            assert!((0.40..=0.80).contains(&ar), "{} AR {ar}", b.name);
        }
    }

    #[test]
    fn gamess_is_the_performance_model_anchor() {
        // §3.3 builds the performance model on 416.gamess, the suite's
        // most scalable benchmark (it sorts last).
        let gamess = spec_cpu2006().last().cloned().unwrap();
        assert_eq!(gamess.name, "416.gamess");
        assert_eq!(gamess.perf_scalability, Ratio::ONE);
    }

    #[test]
    fn memory_intensity_is_scalability_complement() {
        let milc = &spec_cpu2006()[0];
        assert!((milc.memory_intensity().get() - 0.63).abs() < 1e-12);
    }

    #[test]
    fn trace_conversion_is_single_threaded() {
        let b = &spec_cpu2006()[5];
        let t = b.as_trace(Seconds::new(1.0));
        assert_eq!(t.dominant_type(), Some(WorkloadType::SingleThread));
        assert_eq!(t.mean_active_ar(), Some(b.ar));
    }

    #[test]
    fn multiprogrammed_pairs_mix_scalabilities() {
        let pairs = multiprogrammed_pairs();
        assert_eq!(pairs.len(), 14);
        let (name, a, b) = &pairs[0];
        assert_eq!(name, "433.milc+416.gamess");
        assert!(a.perf_scalability < b.perf_scalability);
    }
}
