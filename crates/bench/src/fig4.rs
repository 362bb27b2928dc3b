//! Fig. 4: PDNspot validation — measured vs predicted ETEE for the three
//! baseline PDNs across TDPs, workload types, ARs (panels a–i), and
//! package power states (panel j).

use crate::render::TextTable;
use crate::suite::{three_baselines, ARS};
use pdn_proc::PackageCState;
use pdn_workload::WorkloadType;
use pdnspot::batch::{build_scenarios, ClientSoc, SweepGrid, Workers};
use pdnspot::validation::{validate_with, ReferenceSystem, ValidationReport};
use pdnspot::{BatchStats, ModelParams, PdnError, Scenario};

/// The TDP panels of Fig. 4 (a–i use 4, 18, 50 W).
pub const PANEL_TDPS: [f64; 3] = [4.0, 18.0, 50.0];

/// One validation point: predicted and measured ETEE.
#[derive(Debug, Clone)]
pub struct ValidationPoint {
    /// PDN name.
    pub pdn: String,
    /// Scenario label (e.g. `"multi-thread-18W-ar60"`).
    pub scenario: String,
    /// Model-predicted ETEE.
    pub predicted: f64,
    /// Reference-system ("measured") ETEE.
    pub measured: f64,
}

/// What [`campaign`] produces: per-PDN validation reports, the
/// flattened points, and the batch statistics of the run.
pub type CampaignOutput = (Vec<(String, ValidationReport)>, Vec<ValidationPoint>, BatchStats);

/// Runs the full Fig. 4 campaign: panels a–i plus the C-state panel j.
///
/// The scenario lattice is built on the batch engine (shared cache, one
/// build per point) and each PDN's validation fan-out runs on the same
/// worker pool; instrument noise stays serial in lattice order, so the
/// campaign is reproducible for a fixed seed.
///
/// Returns per-PDN validation reports, the flattened points, and the
/// batch statistics of the run.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn campaign(seed: u64) -> Result<CampaignOutput, PdnError> {
    let params = ModelParams::paper_defaults();
    let reference = ReferenceSystem::new(seed);
    // Panels a-i: the active lattice, in the same TDP-major order the
    // serial campaign used.
    let active = SweepGrid::active(&PANEL_TDPS, &WorkloadType::ACTIVE_TYPES, &ARS)?;
    let (active_scenarios, mut stats) = build_scenarios(&active, &ClientSoc, Workers::Auto);
    // Panel j: power states (TDP-insensitive; evaluated at 18 W).
    let idle = SweepGrid::builder().tdps(&[18.0]).idle_states(&PackageCState::ALL).build()?;
    let (idle_scenarios, idle_stats) = build_scenarios(&idle, &ClientSoc, Workers::Auto);
    stats.absorb(&idle_stats);
    let scenarios: Vec<Scenario> =
        active_scenarios.into_iter().chain(idle_scenarios).collect::<Result<_, _>>()?;

    let mut reports = Vec::new();
    let mut points = Vec::new();
    for pdn in three_baselines(&params) {
        let report = validate_with(pdn.as_ref(), &reference, &scenarios, Workers::Auto)?;
        stats.evaluations += scenarios.len();
        for (scenario, sample) in scenarios.iter().zip(&report.samples) {
            points.push(ValidationPoint {
                pdn: pdn.kind().to_string(),
                scenario: scenario.name.clone(),
                predicted: sample.predicted.get(),
                measured: sample.measured.get(),
            });
        }
        reports.push((pdn.kind().to_string(), report));
    }
    Ok((reports, points, stats))
}

/// Renders the campaign: accuracy summary plus the panel-j rows.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn render() -> Result<String, PdnError> {
    let (reports, points, stats) = campaign(42)?;
    let mut summary = TextTable::new(
        "Fig. 4 — PDNspot validation accuracy (paper: 99.1/99.4/99.2 % avg)",
        &["PDN", "mean", "min", "max", "samples"],
    );
    for (name, report) in &reports {
        summary.row(vec![
            name.clone(),
            format!("{:.2}%", report.mean_accuracy() * 100.0),
            format!("{:.2}%", report.min_accuracy() * 100.0),
            format!("{:.2}%", report.max_accuracy() * 100.0),
            report.samples.len().to_string(),
        ]);
    }
    let mut panel_j = TextTable::new(
        "Fig. 4j — ETEE in battery-life power states (measured vs predicted)",
        &["PDN", "scenario", "predicted", "measured"],
    );
    for p in points.iter().filter(|p| p.scenario.starts_with('C')) {
        panel_j.row(vec![
            p.pdn.clone(),
            p.scenario.clone(),
            format!("{:.1}%", p.predicted * 100.0),
            format!("{:.1}%", p.measured * 100.0),
        ]);
    }
    Ok(format!("{}\n{}\n{}\n", summary.render(), panel_j.render(), stats.deterministic_footer()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_covers_all_panels() {
        let (reports, points, stats) = campaign(7).unwrap();
        assert_eq!(reports.len(), 3);
        // 3 TDPs × 3 types × 5 ARs + 6 C-states = 51 scenarios per PDN.
        assert_eq!(points.len(), 3 * 51);
        // One scenario build per lattice point, shared across the PDNs.
        assert_eq!(stats.scenario_builds, 51);
        // Validation evaluates each (PDN, scenario) pair exactly once.
        assert_eq!(stats.evaluations, 51 + 3 * 51);
        for (name, report) in &reports {
            assert!(report.mean_accuracy() > 0.98, "{name} accuracy {:.4}", report.mean_accuracy());
        }
    }

    #[test]
    fn renders_summary_and_panel_j() {
        let s = render().unwrap();
        assert!(s.contains("validation accuracy"));
        assert!(s.contains("C0MIN"));
        assert!(s.contains("MBVR"));
    }
}
