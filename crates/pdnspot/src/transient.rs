//! Transient (di/dt) voltage-noise model.
//!
//! A PDN must "provide transient current required by a processor domain
//! and filter out the noise currents injected by a domain" (§2.1). The
//! decoupling capacitors on board, package, and die act as charge
//! reservoirs against instantaneous current steps; the first voltage
//! droop after a step of magnitude `ΔI` is governed by the characteristic
//! impedance of the loop feeding the load:
//!
//! `ΔV ≈ ΔI · sqrt(L_loop / C_eff)`
//!
//! The three PDNs carry very different decoupling budgets (§2.3): the
//! MBVR PDN's long board-VR-to-die path leaves room for large board and
//! package capacitor banks, while the IVR PDN relies on the limited
//! die/package capacitance next to its integrated regulators — which is
//! exactly why the paper lists "higher sensitivity to di/dt noise than the
//! MBVR PDN" among IVR's disadvantages.
//!
//! FlexWatts's mode switch changes `V_IN` by more than a volt; §6's
//! "voltage noise-free mode-switching" claim is that doing so inside the
//! package-C6 flow (compute current ≈ 0) injects no observable droop.
//! [`TransientModel::switch_droop`] quantifies that claim, and the
//! `flexwatts` crate's tests assert it.

use crate::topology::PdnKind;
use pdn_units::{Amps, Volts};

/// Decoupling capacitance available to one PDN, by placement (§2.1 lists
/// board, package, and die reservoirs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecouplingBudget {
    /// Bulk capacitance on the motherboard (farads).
    pub(crate) board_f: f64,
    /// Mid-frequency capacitance on the package (farads).
    pub(crate) package_f: f64,
    /// High-frequency MIM/die capacitance (farads).
    pub(crate) die_f: f64,
}

impl DecouplingBudget {
    /// The effective capacitance protecting against a fast load step: the
    /// die capacitance responds first, the package bank shortly after;
    /// board bulk is too far away for the first droop.
    pub(crate) fn fast_effective(&self) -> f64 {
        self.die_f + 0.35 * self.package_f
    }
}

/// The transient model of one PDN topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientModel {
    /// Which PDN this budget describes.
    pub(crate) pdn: PdnKind,
    /// Loop inductance from the last regulation stage to the load (henry).
    pub(crate) loop_inductance_h: f64,
    /// The decoupling budget.
    pub(crate) decoupling: DecouplingBudget,
}

impl TransientModel {
    /// Paper-calibrated budgets (§2.3's qualitative comparison made
    /// quantitative): MBVR's long path allows plentiful board/package
    /// decap; IVR integrates regulation but can only afford limited
    /// die/package capacitance; the LDO PDN sits between; FlexWatts shares
    /// the IVR's capacitor banks in both modes (§6, Fig. 6).
    pub fn paper_calibrated(pdn: PdnKind) -> Self {
        let (loop_nh, board_uf, package_uf, die_nf) = match pdn {
            // Long loop but by far the biggest banks: lowest L/C.
            PdnKind::Mbvr => (0.50, 900.0, 100.0, 300.0),
            // LDO regulates on die from a nearby board rail.
            PdnKind::Ldo => (0.45, 600.0, 45.0, 300.0),
            // IVR: short loop but thin reservoirs next to the FIVR
            // bridges: highest L/C.
            PdnKind::Ivr => (0.22, 300.0, 18.0, 220.0),
            // Hybrids share the IVR's on-die banks plus the dedicated
            // SA/IO board rails' bulk.
            PdnKind::IPlusMbvr | PdnKind::FlexWatts => (0.25, 450.0, 20.0, 220.0),
        };
        Self {
            pdn,
            loop_inductance_h: loop_nh * 1e-9,
            decoupling: DecouplingBudget {
                board_f: board_uf * 1e-6,
                package_f: package_uf * 1e-6,
                die_f: die_nf * 1e-9,
            },
        }
    }

    /// First-droop magnitude for an instantaneous load step `ΔI`:
    /// `ΔV ≈ ΔI · sqrt(L / C_fast)`.
    pub(crate) fn first_droop(&self, delta_i: Amps) -> Volts {
        let c = self.decoupling.fast_effective();
        Volts::new(delta_i.get() * (self.loop_inductance_h / c).sqrt())
    }

    /// The droop injected by reconfiguring the hybrid PDN while the
    /// compute domains carry `compute_current`. In the package-C6 flow the
    /// compute current is (near) zero — the §6 noise-free guarantee; a
    /// hypothetical hot switch interrupts the full load current for the
    /// reconfiguration instant.
    pub fn switch_droop(&self, compute_current: Amps) -> Volts {
        self.first_droop(compute_current)
    }

    /// Whether a droop stays inside a noise budget, conventionally a
    /// fraction of the minimum operating voltage (the margin the
    /// tolerance band and load line do not already spend).
    pub fn within_noise_budget(&self, droop: Volts, rail: Volts) -> bool {
        droop.get() <= NOISE_BUDGET_FRACTION * rail.get()
    }
}

/// Droop budget as a fraction of the rail voltage (a typical client
/// processor allocates ~5 % of the rail to unmitigated fast droop).
pub(crate) const NOISE_BUDGET_FRACTION: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivr_is_most_droop_sensitive() {
        // §2.3: IVR's limited decoupling makes it the most sensitive to
        // di/dt noise; MBVR the least.
        let step = Amps::new(10.0);
        let ivr = TransientModel::paper_calibrated(PdnKind::Ivr).first_droop(step);
        let mbvr = TransientModel::paper_calibrated(PdnKind::Mbvr).first_droop(step);
        let ldo = TransientModel::paper_calibrated(PdnKind::Ldo).first_droop(step);
        assert!(ivr > ldo, "IVR {ivr} vs LDO {ldo}");
        assert!(ldo > mbvr, "LDO {ldo} vs MBVR {mbvr}");
    }

    #[test]
    fn typical_steps_stay_inside_the_budget() {
        // Ordinary workload steps (a few amperes of instantaneous di/dt
        // at the package) must not violate the noise budget on any PDN —
        // the §3.4 assumption that existing decap handles emergencies.
        let rail = Volts::new(0.85);
        for kind in [PdnKind::Ivr, PdnKind::Mbvr, PdnKind::Ldo, PdnKind::FlexWatts] {
            let m = TransientModel::paper_calibrated(kind);
            let droop = m.first_droop(Amps::new(6.0));
            assert!(m.within_noise_budget(droop, rail), "{kind}: droop {droop} exceeds the budget");
        }
    }

    #[test]
    fn droop_scales_linearly_with_step() {
        let m = TransientModel::paper_calibrated(PdnKind::FlexWatts);
        let one = m.first_droop(Amps::new(1.0));
        let ten = m.first_droop(Amps::new(10.0));
        assert!((ten.get() - 10.0 * one.get()).abs() < 1e-12);
    }

    #[test]
    fn idle_switching_injects_no_droop() {
        // The §6 guarantee: with compute gated (C6), the reconfiguration
        // step current is zero and so is the droop.
        let m = TransientModel::paper_calibrated(PdnKind::FlexWatts);
        assert_eq!(m.switch_droop(Amps::ZERO), Volts::ZERO);
    }

    #[test]
    fn hot_switching_would_violate_the_budget() {
        // The counterfactual that motivates the C6 flow: interrupting a
        // 30 A compute load mid-switch blows far past the noise budget.
        let m = TransientModel::paper_calibrated(PdnKind::FlexWatts);
        let droop = m.switch_droop(Amps::new(30.0));
        assert!(
            !m.within_noise_budget(droop, Volts::new(0.85)),
            "a hot switch at 30 A must violate the budget: droop {droop}"
        );
    }
}
