//! Graphics benchmark profiles (3DMark06, Fig. 8b of the paper).
//!
//! During graphics workloads, 10–20 % of the processor budget goes to the
//! CPU cores and the rest to the graphics engines; the LLC runs at a higher
//! frequency/voltage than the cores because of the memory-bandwidth demand
//! (§7.1). These profiles carry the per-benchmark application ratio and
//! graphics-frequency scalability.

use pdn_units::{ApplicationRatio, Ratio};

/// A graphics benchmark profile.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphicsBenchmark {
    /// Benchmark name (3DMark06 sub-test or game workload).
    pub(crate) name: &'static str,
    /// Performance scalability with graphics frequency.
    pub perf_scalability: Ratio,
    /// Application ratio of the graphics engines.
    pub ar: ApplicationRatio,
}

const GRAPHICS_TABLE: [(&str, f64, f64); 6] = [
    ("3dmark06.gt1_return_to_proxycon", 0.88, 0.68),
    ("3dmark06.gt2_firefly_forest", 0.90, 0.72),
    ("3dmark06.hdr1_canyon_flight", 0.85, 0.65),
    ("3dmark06.hdr2_deep_freeze", 0.92, 0.75),
    ("crysis.benchmark_gpu", 0.86, 0.70),
    ("3dmark06.batch_combined", 0.89, 0.71),
];

/// The 3DMark06-style graphics suite (plus a Crysis GPU workload, §4.1).
///
/// # Examples
///
/// ```
/// use pdn_workload::graphics::threedmark06;
///
/// let suite = threedmark06();
/// assert!(suite.len() >= 4);
/// assert!(suite.iter().all(|b| b.ar.get() >= 0.6));
/// ```
pub fn threedmark06() -> Vec<GraphicsBenchmark> {
    GRAPHICS_TABLE
        .iter()
        .map(|&(name, scal, ar)| GraphicsBenchmark {
            name,
            perf_scalability: Ratio::new(scal).expect("static scalability is valid"),
            ar: ApplicationRatio::new(ar).expect("static AR is valid"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_nonempty_and_graphics_typed() {
        let suite = threedmark06();
        assert_eq!(suite.len(), 6);
    }

    #[test]
    fn graphics_workloads_scale_well_with_gfx_frequency() {
        for b in threedmark06() {
            assert!(b.perf_scalability.get() > 0.8, "{}", b.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = threedmark06().iter().map(|b| b.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
