//! Predictor table-resolution ablation: how dense the firmware ETEE grid
//! (TDP × AR knots) must be before the mode predictor agrees with a
//! brute-force oracle.
//!
//! DESIGN.md calls this design choice out: the PMU stores ETEE grids whose
//! density trades firmware bytes against prediction accuracy near the
//! crossover. Each row trains a predictor on one grid and scores it on
//! off-knot probe points against whichever FlexWatts mode actually has the
//! higher ETEE there.

use crate::render::TextTable;
use flexwatts::{FlexWattsPdn, ModePredictor, PdnMode, PredictorInputs};
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;
use pdnspot::{ModelParams, Pdn, Scenario};

/// The (TDP knots, AR knots) grids the ablation trains.
const GRIDS: [(usize, usize); 3] = [(2, 2), (3, 3), (5, 4)];

/// Off-knot probe TDPs (W) and application ratios.
const PROBE_TDPS: [f64; 5] = [6.0, 13.0, 21.0, 31.0, 44.0];
const PROBE_ARS: [f64; 3] = [0.47, 0.63, 0.77];

fn grid(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64).collect()
}

/// Every probe point with the mode a brute-force evaluation of both
/// FlexWatts modes picks there.
fn oracle_probes(params: &ModelParams) -> Vec<(PredictorInputs, PdnMode)> {
    let ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
    let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode);
    let mut probes = Vec::new();
    for tdp in PROBE_TDPS {
        let soc = client_soc(Watts::new(tdp));
        for workload_type in WorkloadType::ACTIVE_TYPES {
            for ar in PROBE_ARS {
                let ar = ApplicationRatio::new(ar).expect("probe AR is in range");
                let s = Scenario::active_fixed_tdp_frequency(&soc, workload_type, ar)
                    .expect("probe point is a valid scenario");
                let etee = |pdn: &FlexWattsPdn| pdn.evaluate(&s).expect("probe evaluates").etee;
                let oracle =
                    if etee(&ivr) >= etee(&ldo) { PdnMode::IvrMode } else { PdnMode::LdoMode };
                let inputs =
                    PredictorInputs { tdp: Watts::new(tdp), ar, workload_type, power_state: None };
                probes.push((inputs, oracle));
            }
        }
    }
    probes
}

/// Renders the ablation table: per grid, the firmware table entries and
/// the oracle agreement over the probe points.
pub fn render() -> String {
    let params = ModelParams::paper_defaults();
    let probes = oracle_probes(&params);
    let mut table = TextTable::new(
        format!(
            "Predictor table resolution vs oracle agreement ({} off-knot probes)",
            probes.len()
        ),
        &["TDP x AR grid", "table entries", "oracle agreement"],
    );
    for (tdp_knots, ar_knots) in GRIDS {
        let predictor =
            ModePredictor::train(&params, &grid(tdp_knots, 4.0, 50.0), &grid(ar_knots, 0.4, 0.8))
                .expect("ablation grids train");
        let agree = probes.iter().filter(|(inputs, oracle)| predictor.predict(*inputs) == *oracle);
        table.row(vec![
            format!("{tdp_knots}x{ar_knots}"),
            predictor.table_entries().to_string(),
            format!("{:.1}%", agree.count() as f64 * 100.0 / probes.len() as f64),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_matches_committed_artefact() {
        assert_eq!(super::render(), include_str!("../../../results/ablation_predictor.txt"));
    }
}
