//! The voltage-noise-free mode-switching flow (§6 of the paper).
//!
//! Switching the hybrid PDN between IVR-Mode and LDO-Mode changes the
//! off-chip `V_IN` level drastically (1.8 V ↔ 0.4–1.1 V), so doing it
//! while compute domains draw current would inject voltage noise. The
//! FlexWatts flow therefore reuses the package-C6 power-management flow:
//!
//! 1. the PMU enters package C6 — compute contexts are saved to always-on
//!    SRAM and the compute domains are clock/power-gated (≈ 45 µs);
//! 2. the PMU reconfigures the hybrid VRs and slews the on-chip (≤ 2 µs)
//!    and off-chip (50 mV/µs) regulators to the new mode's levels
//!    (≈ 19 µs for the 1.8 V ↔ ≈ 0.85 V transition);
//! 3. the PMU exits C6 and resumes execution in the new mode (≈ 30 µs).
//!
//! The total ≈ 94 µs is well within the up-to-500 µs latency of a DVFS
//! P-state transition on the same class of processors.

use crate::topology::PdnMode;
use pdn_pmu::CStateDriver;
use pdn_proc::PackageCState;
use pdn_units::{Seconds, Volts};

/// The breakdown of one executed mode switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchTransition {
    /// The mode left behind.
    pub from: PdnMode,
    /// The mode entered.
    pub to: PdnMode,
    /// C6 entry latency (context save, gating).
    pub c6_entry: Seconds,
    /// VR reconfiguration latency (on-chip mode flip + off-chip slew).
    pub vr_adjust: Seconds,
    /// C6 exit latency (ungating, context restore).
    pub c6_exit: Seconds,
}

impl SwitchTransition {
    /// Total switch latency (the paper's ≈ 94 µs).
    pub fn total(&self) -> Seconds {
        self.c6_entry + self.vr_adjust + self.c6_exit
    }
}

/// Executes mode switches through the package-C6 flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSwitchFlow {
    /// Off-chip VR slew rate (§6 cites 50 mV/µs).
    pub(crate) offchip_slew_v_per_us: f64,
    /// On-chip hybrid-VR reconfiguration latency (§6: ≤ 2 µs).
    pub(crate) onchip_latency: Seconds,
}

impl Default for ModeSwitchFlow {
    fn default() -> Self {
        Self { offchip_slew_v_per_us: 0.050, onchip_latency: Seconds::from_micros(2.0) }
    }
}

impl ModeSwitchFlow {
    /// Creates the paper-default flow.
    pub fn new() -> Self {
        Self::default()
    }

    /// The VR adjustment latency for a `V_IN` change from `v_from` to
    /// `v_to`: the off-chip slew dominates, with the on-chip flip hidden
    /// underneath it.
    pub(crate) fn vr_adjust_latency(&self, v_from: Volts, v_to: Volts) -> Seconds {
        let slew_us = (v_to - v_from).abs().get() / self.offchip_slew_v_per_us;
        Seconds::from_micros(slew_us).max(self.onchip_latency)
    }

    /// Executes a mode switch: enters C6 through `driver`, adjusts the
    /// VRs, and exits. The compute domains are guaranteed idle for the
    /// entire VR reconfiguration — the §6 voltage-noise-free property —
    /// because the driver is in C6 between the entry and exit steps.
    ///
    /// Returns the transition breakdown; `driver` ends in the active
    /// state.
    pub(crate) fn execute(
        &self,
        from: PdnMode,
        to: PdnMode,
        v_from: Volts,
        v_to: Volts,
        driver: &mut CStateDriver,
    ) -> SwitchTransition {
        // Step 1: park the compute domains.
        let c6_entry = driver.enter(PackageCState::C6);
        debug_assert_eq!(driver.current(), Some(PackageCState::C6));
        // Step 2: reconfigure while provably idle.
        let vr_adjust = self.vr_adjust_latency(v_from, v_to);
        // Step 3: resume in the new mode.
        let c6_exit = driver.exit();
        SwitchTransition { from, to, c6_entry, vr_adjust, c6_exit }
    }

    /// The watchdog budget the PMU grants one VR-reconfiguration step
    /// before declaring the attempt failed: twice the planned slew time
    /// (the slew-rate spec plus an equal margin for settling).
    pub(crate) fn attempt_timeout(&self, v_from: Volts, v_to: Volts) -> Seconds {
        self.vr_adjust_latency(v_from, v_to) * 2.0
    }

    /// Executes a mode-switch attempt that *fails* (e.g. the off-chip VR
    /// never acknowledges the new set point — an injected fault): the
    /// package enters C6, the PMU waits out the VR watchdog, slews the
    /// rail back to the old mode's level, and exits C6 with the mode
    /// unchanged. Returns the total time lost to the aborted flow.
    ///
    /// The voltage-noise-free property survives the failure: the compute
    /// domains stay parked in C6 for the whole abort path, so neither the
    /// failed slew nor the roll-back injects noise.
    pub(crate) fn execute_aborted(
        &self,
        v_from: Volts,
        v_to: Volts,
        driver: &mut CStateDriver,
    ) -> Seconds {
        let c6_entry = driver.enter(PackageCState::C6);
        debug_assert_eq!(driver.current(), Some(PackageCState::C6));
        // Wait out the watchdog, then roll the rail back.
        let wasted = self.attempt_timeout(v_from, v_to) + self.vr_adjust_latency(v_to, v_from);
        let c6_exit = driver.exit();
        c6_entry + wasted + c6_exit
    }

    /// The paper's reference transition: IVR-Mode (1.8 V) to LDO-Mode at a
    /// mid compute voltage, ≈ 94 µs in total.
    pub fn reference_transition(&self) -> SwitchTransition {
        let mut driver = CStateDriver::new();
        self.execute(
            PdnMode::IvrMode,
            PdnMode::LdoMode,
            Volts::new(1.8),
            Volts::new(0.85),
            &mut driver,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_transition_is_about_94_us() {
        let flow = ModeSwitchFlow::new();
        let t = flow.reference_transition();
        assert!((t.c6_entry.micros() - 45.0).abs() < 1e-9);
        assert!((t.c6_exit.micros() - 30.0).abs() < 1e-9);
        assert!((t.vr_adjust.micros() - 19.0).abs() < 1e-9);
        assert!((t.total().micros() - 94.0).abs() < 1e-9, "total {}", t.total().micros());
    }

    #[test]
    fn small_voltage_deltas_hide_under_the_onchip_flip() {
        let flow = ModeSwitchFlow::new();
        let lat = flow.vr_adjust_latency(Volts::new(0.85), Volts::new(0.90));
        assert_eq!(lat, Seconds::from_micros(2.0), "1 µs slew hides under 2 µs on-chip");
    }

    #[test]
    fn switch_is_within_dvfs_latency_budget() {
        // §6: DVFS transitions take up to 500 µs; the mode switch must be
        // comfortably inside that envelope.
        let t = ModeSwitchFlow::new().reference_transition();
        assert!(t.total().micros() < 500.0);
    }

    #[test]
    fn c6_switching_is_quantitatively_noise_free() {
        use pdn_units::Amps;
        use pdnspot::transient::TransientModel;
        use pdnspot::PdnKind;
        // The §6 guarantee, quantified with the §2.3 transient model: in
        // the C6 flow the compute current during VR reconfiguration is
        // zero, so the injected droop is zero — while a hypothetical hot
        // switch at a 20 A load would blow the noise budget.
        let transient = TransientModel::paper_calibrated(PdnKind::FlexWatts);
        let idle_droop = transient.switch_droop(Amps::ZERO);
        assert_eq!(idle_droop, Volts::ZERO);
        assert!(transient.within_noise_budget(idle_droop, Volts::new(0.85)));
        let hot_droop = transient.switch_droop(Amps::new(20.0));
        assert!(!transient.within_noise_budget(hot_droop, Volts::new(0.85)));
    }

    #[test]
    fn aborted_attempt_costs_more_than_a_clean_switch_and_restores_c0() {
        let flow = ModeSwitchFlow::new();
        let mut driver = CStateDriver::new();
        let lost = flow.execute_aborted(Volts::new(1.8), Volts::new(0.85), &mut driver);
        assert!(driver.current().is_none(), "abort path must end in C0");
        let clean = flow.reference_transition().total();
        assert!(lost > clean, "abort ({lost}) must cost more than a clean switch ({clean})");
        // entry 45 + 2×19 watchdog + 19 roll-back + exit 30 = 132 µs.
        assert!((lost.micros() - 132.0).abs() < 1e-9, "{}", lost.micros());
    }

    #[test]
    fn driver_returns_to_active_and_counts_transitions() {
        let flow = ModeSwitchFlow::new();
        let mut driver = CStateDriver::new();
        let t = flow.execute(
            PdnMode::LdoMode,
            PdnMode::IvrMode,
            Volts::new(0.6),
            Volts::new(1.8),
            &mut driver,
        );
        assert!(driver.current().is_none(), "flow must end in C0");
        assert_eq!(driver.transitions(), 2);
        assert_eq!(t.from, PdnMode::LdoMode);
        assert_eq!(t.to, PdnMode::IvrMode);
        // 1.2 V at 50 mV/µs = 24 µs of slew.
        assert!((t.vr_adjust.micros() - 24.0).abs() < 1e-9);
    }
}
