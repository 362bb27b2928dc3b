//! Board area and bill-of-materials (BOM) model (§3.2 of the paper).
//!
//! The board area and cost of an off-chip VR are functions mainly of the
//! maximum current (Iccmax) it must be electrically designed for. VR
//! sharing (the LDO and FlexWatts PDNs share one `V_IN` for the compute
//! domains) reduces the summed Iccmax and therefore area and BOM. Below
//! 18 W TDP, platforms consolidate rails into a power-management IC
//! (PMIC); above that, discrete voltage-regulator modules (VRMs) are used.
//!
//! The Iccmax→(area, cost) mapping substitutes for the Texas Instruments
//! catalogue data the paper obtained from the vendor; it is calibrated so
//! the Fig. 8(d,e) factors hold (MBVR 2.1–4.2× the IVR BOM, LDO 1.6–3.1×,
//! FlexWatts/I+MBVR comparable to IVR).

use crate::error::PdnError;
use crate::topology::{OffchipRail, Pdn};
use pdn_proc::SocSpec;
use pdn_units::{SquareMillimeters, Usd, Watts};

/// TDP at or below which the platform uses a PMIC instead of discrete
/// VRMs (§3.2).
pub(crate) const PMIC_TDP_LIMIT: Watts = Watts::new(18.0);

/// The Iccmax→(area, cost) catalogue, standing in for the TI vendor data.
#[derive(Debug, Clone, PartialEq)]
pub struct VrCatalog {
    /// Fixed board area per discrete rail (controller, layout keep-out).
    pub(crate) area_base_mm2: f64,
    /// Area scaling coefficient (mm² per A^`area_exp`).
    pub(crate) area_coeff: f64,
    /// Area superlinearity: high-current rails need disproportionately
    /// large inductors and capacitor banks.
    pub(crate) area_exp: f64,
    /// Fixed cost per discrete rail.
    pub(crate) cost_base_usd: f64,
    /// Cost scaling coefficient ($ per A^`cost_exp`).
    pub(crate) cost_coeff: f64,
    /// Cost superlinearity.
    pub(crate) cost_exp: f64,
    /// Area factor a PMIC applies to the summed discrete equivalents.
    pub(crate) pmic_area_factor: f64,
    /// Fixed PMIC area (package + passives).
    pub(crate) pmic_area_base_mm2: f64,
    /// Cost factor a PMIC applies to the summed discrete equivalents.
    pub(crate) pmic_cost_factor: f64,
    /// Fixed PMIC cost.
    pub(crate) pmic_cost_base_usd: f64,
}

impl VrCatalog {
    /// The calibrated TI-style catalogue used throughout the reproduction.
    pub fn paper_calibrated() -> Self {
        Self {
            area_base_mm2: 14.0,
            area_coeff: 4.6,
            area_exp: 1.12,
            cost_base_usd: 0.20,
            cost_coeff: 0.085,
            cost_exp: 1.10,
            pmic_area_factor: 0.62,
            pmic_area_base_mm2: 16.0,
            pmic_cost_factor: 0.58,
            pmic_cost_base_usd: 0.30,
        }
    }

    /// Board area of one discrete rail sized for `rail.iccmax`.
    pub(crate) fn rail_area(&self, rail: &OffchipRail) -> SquareMillimeters {
        SquareMillimeters::new(
            self.area_base_mm2 + self.area_coeff * rail.iccmax.get().powf(self.area_exp),
        )
    }

    /// Cost of one discrete rail sized for `rail.iccmax`.
    pub(crate) fn rail_cost(&self, rail: &OffchipRail) -> Usd {
        Usd::new(self.cost_base_usd + self.cost_coeff * rail.iccmax.get().powf(self.cost_exp))
    }
}

/// The board footprint of a PDN for one SoC design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Total board area of the off-chip VR solution.
    pub area: SquareMillimeters,
    /// Total BOM cost of the off-chip VR solution.
    pub cost: Usd,
    /// Whether the rails were consolidated into a PMIC.
    pub pmic: bool,
    /// The rails the solution was sized for.
    pub rails: Vec<OffchipRail>,
}

/// Computes the §3.2 board-area/BOM footprint of a PDN on a SoC.
///
/// # Errors
///
/// Propagates rail-sizing errors from the topology.
pub fn pdn_footprint(
    pdn: &dyn Pdn,
    soc: &SocSpec,
    catalog: &VrCatalog,
) -> Result<Footprint, PdnError> {
    let rails = pdn.offchip_rails(soc)?;
    let pmic = soc.tdp <= PMIC_TDP_LIMIT;
    let (area, cost) = if pmic {
        // A PMIC integrates the controllers of all rails into one package,
        // so only the current-dependent parts (inductors, bulk capacitors)
        // are summed, at the consolidation factor.
        let area_sum: f64 =
            rails.iter().map(|r| catalog.rail_area(r).get() - catalog.area_base_mm2).sum();
        let cost_sum: f64 =
            rails.iter().map(|r| catalog.rail_cost(r).get() - catalog.cost_base_usd).sum();
        (
            catalog.pmic_area_base_mm2 + catalog.pmic_area_factor * area_sum,
            catalog.pmic_cost_base_usd + catalog.pmic_cost_factor * cost_sum,
        )
    } else {
        let area_sum: f64 = rails.iter().map(|r| catalog.rail_area(r).get()).sum();
        let cost_sum: f64 = rails.iter().map(|r| catalog.rail_cost(r).get()).sum();
        (area_sum, cost_sum)
    };
    Ok(Footprint { area: SquareMillimeters::new(area), cost: Usd::new(cost), pmic, rails })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::topology::{IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn};
    use pdn_proc::client_soc;

    fn footprints(tdp: f64) -> [Footprint; 4] {
        let soc = client_soc(Watts::new(tdp));
        let catalog = VrCatalog::paper_calibrated();
        let params = ModelParams::paper_defaults();
        [
            pdn_footprint(&IvrPdn::new(params.clone()), &soc, &catalog).unwrap(),
            pdn_footprint(&MbvrPdn::new(params.clone()), &soc, &catalog).unwrap(),
            pdn_footprint(&LdoPdn::new(params.clone()), &soc, &catalog).unwrap(),
            pdn_footprint(&IPlusMbvrPdn::new(params), &soc, &catalog).unwrap(),
        ]
    }

    #[test]
    fn pmic_used_only_at_low_tdp() {
        let low = footprints(10.0);
        let high = footprints(25.0);
        assert!(low.iter().all(|f| f.pmic));
        assert!(high.iter().all(|f| !f.pmic));
    }

    #[test]
    fn fig8d_bom_ordering_holds_across_tdps() {
        for tdp in [4.0, 18.0, 50.0] {
            let [ivr, mbvr, ldo, iplus] = footprints(tdp);
            let norm = |f: &Footprint| f.cost.get() / ivr.cost.get();
            let m = norm(&mbvr);
            let l = norm(&ldo);
            let i = norm(&iplus);
            assert!(
                (1.5..=4.5).contains(&m),
                "MBVR BOM at {tdp} W should be 2.1–4.2× IVR-ish: {m:.2}"
            );
            assert!((1.2..=3.4).contains(&l), "LDO BOM at {tdp} W: {l:.2}");
            assert!(m > l, "MBVR must cost more than LDO at {tdp} W");
            assert!(i < 1.45, "I+MBVR must be comparable to IVR at {tdp} W: {i:.2}");
        }
    }

    #[test]
    fn fig8e_area_ordering_holds_across_tdps() {
        for tdp in [4.0, 18.0, 50.0] {
            let [ivr, mbvr, ldo, iplus] = footprints(tdp);
            let norm = |f: &Footprint| f.area.get() / ivr.area.get();
            let m = norm(&mbvr);
            let l = norm(&ldo);
            let i = norm(&iplus);
            assert!((1.4..=4.8).contains(&m), "MBVR area at {tdp} W: {m:.2}");
            assert!((1.1..=3.5).contains(&l), "LDO area at {tdp} W: {l:.2}");
            assert!(m > l, "MBVR must take more board than LDO at {tdp} W");
            assert!(i < 1.5, "I+MBVR area comparable to IVR at {tdp} W: {i:.2}");
        }
    }

    #[test]
    fn footprint_grows_with_tdp() {
        let catalog = VrCatalog::paper_calibrated();
        let params = ModelParams::paper_defaults();
        let pdn = MbvrPdn::new(params);
        let small = pdn_footprint(&pdn, &client_soc(Watts::new(25.0)), &catalog).unwrap();
        let large = pdn_footprint(&pdn, &client_soc(Watts::new(50.0)), &catalog).unwrap();
        assert!(large.area > small.area);
        assert!(large.cost > small.cost);
    }

    #[test]
    fn rail_sharing_reduces_summed_iccmax() {
        // §7: FlexWatts/LDO share one VR between cores, LLC, and graphics,
        // reducing the summed design current versus MBVR's dedicated rails.
        let soc = client_soc(Watts::new(50.0));
        let params = ModelParams::paper_defaults();
        let sum = |pdn: &dyn Pdn| -> f64 {
            pdn.offchip_rails(&soc).unwrap().iter().map(|r| r.iccmax.get()).sum()
        };
        let mbvr = sum(&MbvrPdn::new(params.clone()));
        let ldo = sum(&LdoPdn::new(params.clone()));
        let ivr = sum(&IvrPdn::new(params));
        assert!(ldo < mbvr, "shared V_IN must cut current: LDO {ldo:.0} A vs MBVR {mbvr:.0} A");
        assert!(ivr < ldo, "the 1.8 V V_IN carries the least current: {ivr:.0} A");
    }
}
