//! Thermal design power (TDP) and configurable TDP (cTDP).
//!
//! A client processor family spans a wide TDP range with one die design
//! (§1: Skylake scales from ~3 W tablets to 91 W desktops), and system
//! manufacturers can reconfigure a part's TDP at integration time or at
//! runtime (cTDP). This is one of the two reasons a single PDN must serve
//! every TDP — and therefore one of the motivations for FlexWatts.

use pdn_units::Watts;
use std::fmt;

/// The TDP design points evaluated throughout the paper (Figs. 2 and 8).
pub const PAPER_TDPS: [f64; 7] = [4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0];

/// Error raised when selecting an unsupported cTDP level.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupportedTdpError {
    /// The requested TDP.
    pub(crate) requested: Watts,
}

impl fmt::Display for UnsupportedTdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "requested TDP {} is not a configured cTDP level", self.requested)
    }
}

impl std::error::Error for UnsupportedTdpError {}

/// A configurable-TDP (cTDP) setting: the supported levels and the
/// currently selected one.
///
/// # Examples
///
/// ```
/// use pdn_proc::ConfigurableTdp;
/// use pdn_units::Watts;
///
/// let mut ctdp = ConfigurableTdp::new(vec![
///     Watts::new(10.0),
///     Watts::new(18.0),
///     Watts::new(25.0),
/// ], 1)?;
/// assert_eq!(ctdp.current(), Watts::new(18.0));
/// ctdp.configure(Watts::new(25.0))?;
/// assert_eq!(ctdp.current(), Watts::new(25.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurableTdp {
    levels: Vec<Watts>,
    current: usize,
}

impl ConfigurableTdp {
    /// Creates a cTDP configuration from sorted supported levels and the
    /// index of the initially selected level.
    ///
    /// # Errors
    ///
    /// Returns an error if `levels` is empty, unsorted, or `initial` is out
    /// of bounds.
    pub fn new(levels: Vec<Watts>, initial: usize) -> Result<Self, UnsupportedTdpError> {
        if levels.is_empty() || initial >= levels.len() || levels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(UnsupportedTdpError {
                requested: levels.get(initial).copied().unwrap_or(Watts::ZERO),
            });
        }
        Ok(Self { levels, current: initial })
    }

    /// The currently configured TDP.
    pub fn current(&self) -> Watts {
        self.levels[self.current]
    }

    /// Selects a supported level (cTDP-up / cTDP-down).
    ///
    /// # Errors
    ///
    /// Returns `UnsupportedTdpError` if `tdp` is not a configured level.
    pub fn configure(&mut self, tdp: Watts) -> Result<(), UnsupportedTdpError> {
        match self.levels.iter().position(|&l| (l.get() - tdp.get()).abs() < 1e-9) {
            Some(i) => {
                self.current = i;
                Ok(())
            }
            None => Err(UnsupportedTdpError { requested: tdp }),
        }
    }

    /// Steps to the next-higher level if one exists (cTDP-up); returns the
    /// new current TDP.
    pub fn step_up(&mut self) -> Watts {
        if self.current + 1 < self.levels.len() {
            self.current += 1;
        }
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<Watts> {
        PAPER_TDPS.iter().map(|&w| Watts::new(w)).collect()
    }

    #[test]
    fn paper_tdps_are_sorted_and_span_4_to_50() {
        assert_eq!(PAPER_TDPS[0], 4.0);
        assert_eq!(PAPER_TDPS[PAPER_TDPS.len() - 1], 50.0);
        assert!(PAPER_TDPS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn configure_and_step() {
        let mut c = ConfigurableTdp::new(levels(), 0).unwrap();
        assert_eq!(c.current(), Watts::new(4.0));
        assert_eq!(c.step_up(), Watts::new(8.0));
        c.configure(Watts::new(36.0)).unwrap();
        assert_eq!(c.current(), Watts::new(36.0));
        assert!(c.configure(Watts::new(12.0)).is_err());
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(ConfigurableTdp::new(vec![], 0).is_err());
        assert!(ConfigurableTdp::new(levels(), 99).is_err());
        assert!(ConfigurableTdp::new(vec![Watts::new(10.0), Watts::new(10.0)], 0).is_err());
    }
}
