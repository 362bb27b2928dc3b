//! Fig. 5: breakdown of the PDN power-conversion losses of IVR, MBVR, and
//! LDO at 4/18/50 W (CPU-intensive workload, AR = 56 %), plus the
//! normalized chip input current and load-line impedance.

use crate::render::{pct, times, TextTable};
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::WorkloadType;
use pdnspot::{ModelParams, PdnError, PdnKind, Scenario};

/// The workload point of Fig. 5.
pub(crate) const FIG5_AR: f64 = 0.56;

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub(crate) struct LossBar {
    /// PDN name.
    pub(crate) pdn: PdnKind,
    /// TDP of the bar.
    pub(crate) tdp: f64,
    /// VR-inefficiency share of input power.
    pub(crate) vr: f64,
    /// Core/GFX conduction share.
    pub(crate) conduction_compute: f64,
    /// SA/IO conduction share.
    pub(crate) conduction_sa_io: f64,
    /// Other (guardband, gates) share.
    pub(crate) other: f64,
    /// Chip input current in amperes.
    pub(crate) chip_current: f64,
    /// Effective compute load-line in milliohms.
    pub(crate) r_ll_mohm: f64,
}

impl LossBar {
    /// Total loss share.
    pub(crate) fn total(&self) -> f64 {
        self.vr + self.conduction_compute + self.conduction_sa_io + self.other
    }
}

/// Computes the nine bars (3 PDNs × 3 TDPs).
///
/// # Errors
///
/// Propagates evaluation errors.
pub(crate) fn bars() -> Result<Vec<LossBar>, PdnError> {
    let params = ModelParams::paper_defaults();
    let ar = ApplicationRatio::new(FIG5_AR).expect("static AR");
    let mut out = Vec::new();
    for pdn in crate::suite::three_baselines(&params) {
        for tdp in [4.0, 18.0, 50.0] {
            let soc = client_soc(Watts::new(tdp));
            let s = Scenario::active_fixed_tdp_frequency(&soc, WorkloadType::MultiThread, ar)?;
            let e = pdn.evaluate(&s)?;
            let f = e.breakdown.fractions_of(e.input_power);
            let r_ll = match pdn.kind() {
                PdnKind::Ivr => params.ivr_loadlines.vin,
                PdnKind::Mbvr => params.mbvr_loadlines.compute,
                PdnKind::Ldo => params.ldo_loadlines.vin,
                PdnKind::IPlusMbvr => params.ivr_loadlines.vin,
                PdnKind::FlexWatts => params.flexwatts_loadlines.vin,
            };
            out.push(LossBar {
                pdn: pdn.kind(),
                tdp,
                vr: f[0],
                conduction_compute: f[1],
                conduction_sa_io: f[2],
                other: f[3],
                chip_current: e.chip_input_current.get(),
                r_ll_mohm: r_ll.milliohms(),
            });
        }
    }
    Ok(out)
}

/// Renders the figure: loss shares plus current/R_LL normalised to IVR.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn render() -> Result<String, PdnError> {
    let bars = bars()?;
    let mut t = TextTable::new(
        format!("Fig. 5 — PDN loss breakdown (CPU-intensive, AR = {:.0}%)", FIG5_AR * 100.0),
        &[
            "PDN",
            "TDP",
            "VR ineff.",
            "I2R core&gfx",
            "I2R SA&IO",
            "other",
            "total",
            "I(norm)",
            "RLL(norm)",
        ],
    );
    for b in &bars {
        let ivr_ref =
            bars.iter().find(|x| x.pdn == PdnKind::Ivr && x.tdp == b.tdp).expect("IVR bar exists");
        t.row(vec![
            b.pdn.to_string(),
            format!("{}W", b.tdp),
            pct(b.vr),
            pct(b.conduction_compute),
            pct(b.conduction_sa_io),
            pct(b.other),
            pct(b.total()),
            times(b.chip_current / ivr_ref.chip_current),
            times(b.r_ll_mohm / ivr_ref.r_ll_mohm),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_bars_with_paper_shapes() {
        let bars = bars().unwrap();
        assert_eq!(bars.len(), 9);
        let find = |k: PdnKind, tdp: f64| bars.iter().find(|b| b.pdn == k && b.tdp == tdp).unwrap();
        // VR inefficiency dominates IVR and stays roughly flat in TDP.
        let ivr4 = find(PdnKind::Ivr, 4.0);
        let ivr50 = find(PdnKind::Ivr, 50.0);
        assert!(ivr4.vr > 0.12 && ivr50.vr > 0.10);
        assert!(ivr50.conduction_compute < 0.05, "IVR conduction stays small");
        // MBVR/LDO conduction scales steeply with TDP (the paper's arrow).
        let mbvr4 = find(PdnKind::Mbvr, 4.0);
        let mbvr50 = find(PdnKind::Mbvr, 50.0);
        assert!(mbvr50.conduction_compute > 3.0 * mbvr4.conduction_compute);
        assert!(mbvr50.conduction_compute > 0.10);
        // ~2× chip input current and 2.5×/1.25× R_LL vs IVR.
        assert!(mbvr50.chip_current / ivr50.chip_current > 1.3);
        assert!((mbvr50.r_ll_mohm / ivr50.r_ll_mohm - 2.5).abs() < 1e-9);
        let ldo50 = find(PdnKind::Ldo, 50.0);
        assert!((ldo50.r_ll_mohm / ivr50.r_ll_mohm - 1.25).abs() < 1e-9);
    }

    #[test]
    fn renders_nine_rows() {
        let s = render().unwrap();
        assert!(s.matches("W  ").count() >= 1);
        assert!(s.contains("I2R core&gfx"));
    }
}
