//! Power-budget management.
//!
//! The PMU allocates a share of the TDP to the SA and IO domains (whose
//! power is nearly constant), and the remainder to the compute domains,
//! split between cores and graphics according to the workload type
//! (§3.4/§7.1 of the paper). It also tracks a running average of platform
//! power (the RAPL mechanism) to decide whether the budget allows a
//! frequency increase.

use pdn_units::{Ratio, Seconds, Watts};
use pdn_workload::WorkloadType;

/// The PMU's power-budget manager.
///
/// # Examples
///
/// ```
/// use pdn_pmu::PowerBudgetManager;
/// use pdn_units::Watts;
/// use pdn_workload::WorkloadType;
///
/// let mut pbm = PowerBudgetManager::new(Watts::new(18.0), Watts::new(2.0));
/// let split = pbm.compute_budget(WorkloadType::Graphics);
/// assert!(split.gfx > split.cores, "graphics workloads feed the GPU");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBudgetManager {
    tdp: Watts,
    sa_io_reserve: Watts,
    /// Exponentially weighted moving average of platform power.
    average_power: Watts,
    /// EWMA time constant.
    time_constant: Seconds,
}

/// A compute-budget split between cores and graphics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    /// Budget allocated to the CPU cores (and LLC).
    pub cores: Watts,
    /// Budget allocated to the graphics engines.
    pub gfx: Watts,
}

impl PowerBudgetManager {
    /// Creates a budget manager for a TDP with a fixed SA+IO reserve.
    pub fn new(tdp: Watts, sa_io_reserve: Watts) -> Self {
        Self {
            tdp,
            sa_io_reserve,
            average_power: Watts::ZERO,
            time_constant: Seconds::from_millis(28.0),
        }
    }

    /// The compute budget (TDP minus the SA/IO reserve), split by workload
    /// type: CPU workloads give graphics nothing; graphics workloads keep
    /// 10–20 % for the cores (§7.1).
    pub fn compute_budget(&self, workload_type: WorkloadType) -> BudgetSplit {
        let compute = (self.tdp - self.sa_io_reserve).max(Watts::ZERO);
        let core_share: Ratio = workload_type.core_budget_share();
        BudgetSplit {
            cores: compute * core_share.get(),
            gfx: compute * core_share.complement().get(),
        }
    }

    /// Feeds one platform power sample into the running average.
    pub fn observe(&mut self, power: Watts, dt: Seconds) {
        let alpha = (dt.get() / self.time_constant.get()).clamp(0.0, 1.0);
        self.average_power = self.average_power * (1.0 - alpha) + power * alpha;
    }

    /// The current running-average platform power.
    pub fn average_power(&self) -> Watts {
        self.average_power
    }

    /// Whether the running average leaves headroom under the TDP.
    pub fn has_headroom(&self) -> bool {
        self.average_power < self.tdp
    }

    /// The configured TDP (runtime-configurable via cTDP, §6).
    pub fn tdp(&self) -> Watts {
        self.tdp
    }

    /// Reconfigures the TDP (the cTDP flow).
    pub fn set_tdp(&mut self, tdp: Watts) {
        self.tdp = tdp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_workloads_get_the_whole_compute_budget() {
        let pbm = PowerBudgetManager::new(Watts::new(18.0), Watts::new(2.0));
        let split = pbm.compute_budget(WorkloadType::MultiThread);
        assert!((split.cores.get() - 16.0).abs() < 1e-9);
        assert_eq!(split.gfx, Watts::ZERO);
    }

    #[test]
    fn graphics_split_matches_section7() {
        let pbm = PowerBudgetManager::new(Watts::new(18.0), Watts::new(2.0));
        let split = pbm.compute_budget(WorkloadType::Graphics);
        let core_frac = split.cores.get() / 16.0;
        assert!((0.10..=0.20).contains(&core_frac), "core share {core_frac}");
        assert!((split.cores + split.gfx - Watts::new(16.0)).abs().get() < 1e-9);
    }

    #[test]
    fn ewma_converges_to_steady_power() {
        let mut pbm = PowerBudgetManager::new(Watts::new(10.0), Watts::new(1.5));
        for _ in 0..300 {
            pbm.observe(Watts::new(8.0), Seconds::from_millis(1.0));
        }
        assert!((pbm.average_power().get() - 8.0).abs() < 0.05);
        assert!(pbm.has_headroom());
        for _ in 0..300 {
            pbm.observe(Watts::new(12.0), Seconds::from_millis(1.0));
        }
        assert!(!pbm.has_headroom());
    }

    #[test]
    fn ctdp_reconfiguration() {
        let mut pbm = PowerBudgetManager::new(Watts::new(10.0), Watts::new(1.5));
        pbm.set_tdp(Watts::new(25.0));
        assert_eq!(pbm.tdp(), Watts::new(25.0));
        let split = pbm.compute_budget(WorkloadType::SingleThread);
        assert!((split.cores.get() - 23.5).abs() < 1e-9);
    }

    #[test]
    fn reserve_larger_than_tdp_saturates_at_zero() {
        let pbm = PowerBudgetManager::new(Watts::new(1.0), Watts::new(2.0));
        let split = pbm.compute_budget(WorkloadType::MultiThread);
        assert_eq!(split.cores, Watts::ZERO);
        assert_eq!(split.gfx, Watts::ZERO);
    }
}
