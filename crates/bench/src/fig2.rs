//! Fig. 2: the §3.3 performance model's two panels.
//!
//! (a) the extra power budget needed to raise the CPU/graphics clock by
//! 1 % at each TDP; (b) the breakdown of the TDP power budget into
//! SA+IO / CPU / LLC(+GFX) / PDN loss, using the worst-loss PDN per TDP.

use crate::render::{pct, TextTable};
use crate::suite::TDPS;
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;
use pdnspot::perf::{budget_breakdown, frequency_sensitivity, BudgetBreakdown};
use pdnspot::{IvrPdn, MbvrPdn, ModelParams, PdnError};

/// One row of Fig. 2a.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SensitivityRow {
    /// TDP of the row.
    pub(crate) tdp: f64,
    /// mW per 1 % CPU-clock increase.
    pub(crate) cpu_mw: f64,
    /// mW per 1 % graphics-clock increase.
    pub(crate) gfx_mw: f64,
}

/// Computes Fig. 2a: frequency sensitivity per TDP.
///
/// # Errors
///
/// Propagates solver errors.
pub(crate) fn frequency_sensitivity_rows() -> Result<Vec<SensitivityRow>, PdnError> {
    let params = ModelParams::paper_defaults();
    let pdn = IvrPdn::new(params);
    let ar = ApplicationRatio::new(0.7).expect("static AR");
    TDPS.iter()
        .map(|&tdp| {
            let soc = client_soc(Watts::new(tdp));
            let cpu = frequency_sensitivity(&soc, &pdn, WorkloadType::MultiThread, ar)?;
            let gfx = frequency_sensitivity(&soc, &pdn, WorkloadType::Graphics, ar)?;
            Ok(SensitivityRow { tdp, cpu_mw: cpu.milliwatts(), gfx_mw: gfx.milliwatts() })
        })
        .collect()
}

/// Computes Fig. 2b: per-TDP budget breakdown with the worst-loss PDN
/// (IVR at low TDPs, MBVR at high TDPs — §3.3).
///
/// # Errors
///
/// Propagates solver errors.
pub(crate) fn budget_breakdown_rows() -> Result<Vec<(f64, BudgetBreakdown)>, PdnError> {
    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params);
    let ar = ApplicationRatio::new(0.7).expect("static AR");
    TDPS.iter()
        .map(|&tdp| {
            let soc = client_soc(Watts::new(tdp));
            // Pick the worse (higher-loss) PDN at this TDP.
            let b_ivr = budget_breakdown(&soc, &ivr, ar)?;
            let b_mbvr = budget_breakdown(&soc, &mbvr, ar)?;
            let worst = if b_ivr.pdn_loss >= b_mbvr.pdn_loss { b_ivr } else { b_mbvr };
            Ok((tdp, worst))
        })
        .collect()
}

/// Renders both panels.
///
/// # Errors
///
/// Propagates solver errors.
pub fn render() -> Result<String, PdnError> {
    let mut a = TextTable::new(
        "Fig. 2a — power-budget increase for 1% frequency increase (mW)",
        &["TDP", "CPU", "GFX"],
    );
    for r in frequency_sensitivity_rows()? {
        a.row(vec![format!("{}W", r.tdp), format!("{:.1}", r.cpu_mw), format!("{:.1}", r.gfx_mw)]);
    }
    let mut b = TextTable::new(
        "Fig. 2b — power-budget breakdown (worst-loss PDN per TDP)",
        &["TDP", "SA+IO", "CPU", "LLC+GFX", "PDN loss"],
    );
    for (tdp, bd) in budget_breakdown_rows()? {
        b.row(vec![
            format!("{tdp}W"),
            pct(bd.sa_io.get()),
            pct(bd.cpu.get()),
            pct(bd.llc_gfx.get()),
            pct(bd.pdn_loss.get()),
        ]);
    }
    Ok(format!("{}\n{}", a.render(), b.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_rises_monotonically_with_tdp() {
        let rows = frequency_sensitivity_rows().unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows[0].cpu_mw < 60.0, "4 W CPU sensitivity {}", rows[0].cpu_mw);
        assert!(rows[6].cpu_mw > 100.0, "50 W CPU sensitivity {}", rows[6].cpu_mw);
        // The trend spans more than a decade (the Fig. 2a log axis); the
        // knee of the V/f curve makes it non-monotone pointwise.
        assert!(rows[6].cpu_mw > 5.0 * rows[0].cpu_mw);
        assert!(rows[6].gfx_mw > 5.0 * rows[0].gfx_mw);
    }

    #[test]
    fn breakdown_cpu_share_grows_with_tdp() {
        let rows = budget_breakdown_rows().unwrap();
        let first = rows.first().unwrap().1;
        let last = rows.last().unwrap().1;
        assert!(last.cpu > first.cpu, "Fig. 2b: CPU share grows with TDP");
        assert!(first.sa_io > last.sa_io);
    }

    #[test]
    fn renders_both_panels() {
        let s = render().unwrap();
        assert!(s.contains("Fig. 2a"));
        assert!(s.contains("Fig. 2b"));
        assert!(s.contains("50W"));
    }
}
