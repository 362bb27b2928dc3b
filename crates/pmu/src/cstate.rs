//! The package C-state driver.
//!
//! The PMU carries out package C-state transitions (context save, clock
//! and voltage ramp, context restore) and therefore always knows the
//! current package power state (§6). FlexWatts reuses the C6 entry/exit
//! flow to reconfigure the hybrid PDN while the compute domains are
//! guaranteed idle.

use pdn_proc::PackageCState;
use pdn_units::Seconds;

/// Tracks the package power state and accounts transition latencies.
///
/// # Examples
///
/// ```
/// use pdn_pmu::CStateDriver;
/// use pdn_proc::PackageCState;
///
/// let mut driver = CStateDriver::new();
/// let entry = driver.enter(PackageCState::C6);
/// assert!((entry.micros() - 45.0).abs() < 1e-9);
/// let exit = driver.exit();
/// assert!((exit.micros() - 30.0).abs() < 1e-9);
/// assert!(driver.current().is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CStateDriver {
    current: Option<PackageCState>,
    transitions: u64,
    total_transition_time: Seconds,
}

impl CStateDriver {
    /// Creates a driver in the active (C0) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a driver in the active state with its transition
    /// counters restored — the checkpoint-resume primitive: a trace
    /// replay checkpoints only between intervals, where the driver is
    /// always active, so the counters are its entire state.
    pub fn resume(transitions: u64, total_transition_time: Seconds) -> Self {
        Self { current: None, transitions, total_transition_time }
    }

    /// The current package C-state (`None` = active C0).
    pub fn current(&self) -> Option<PackageCState> {
        self.current
    }

    /// Enters a package C-state, returning the entry latency. Entering the
    /// state the package is already in is free.
    pub fn enter(&mut self, state: PackageCState) -> Seconds {
        if self.current == Some(state) {
            return Seconds::ZERO;
        }
        // A state change between two C-states goes through C0.
        let mut latency = Seconds::ZERO;
        if self.current.is_some() {
            latency += self.exit();
        }
        latency += state.latency().entry;
        self.current = Some(state);
        self.transitions += 1;
        self.total_transition_time += latency;
        latency
    }

    /// Exits to the active state, returning the exit latency.
    pub fn exit(&mut self) -> Seconds {
        match self.current.take() {
            Some(state) => {
                let latency = state.latency().exit;
                self.transitions += 1;
                self.total_transition_time += latency;
                latency
            }
            None => Seconds::ZERO,
        }
    }

    /// Number of state transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total time spent in transition flows.
    pub fn total_transition_time(&self) -> Seconds {
        self.total_transition_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reentry_is_free() {
        let mut d = CStateDriver::new();
        d.enter(PackageCState::C8);
        assert_eq!(d.enter(PackageCState::C8), Seconds::ZERO);
        assert_eq!(d.transitions(), 1);
    }

    #[test]
    fn state_change_routes_through_c0() {
        let mut d = CStateDriver::new();
        d.enter(PackageCState::C2);
        let latency = d.enter(PackageCState::C8);
        // C2 exit (2 µs) + C8 entry (100 µs).
        assert!((latency.micros() - 102.0).abs() < 1e-9);
        assert_eq!(d.current(), Some(PackageCState::C8));
    }

    #[test]
    fn accounting_accumulates() {
        let mut d = CStateDriver::new();
        d.enter(PackageCState::C6);
        d.exit();
        assert_eq!(d.transitions(), 2);
        assert!((d.total_transition_time().micros() - 75.0).abs() < 1e-9);
        assert_eq!(d.exit(), Seconds::ZERO, "exiting C0 is a no-op");
    }
}
