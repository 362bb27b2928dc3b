//! Client-processor substrate for the FlexWatts/PDNspot framework.
//!
//! Models the processor side of the power-delivery problem (§2.1, Table 1
//! of the FlexWatts paper): the six power domains of a modern client SoC
//! (two CPU cores, last-level cache, graphics, system agent, IO), their
//! voltage/frequency curves, their dynamic + leakage power (including the
//! Eq. 2 voltage-guardband scaling with the paper's δ = 2.8 leakage
//! exponent), the package C-states used by battery-life workloads and by
//! FlexWatts's mode-switching flow, and TDP/cTDP configuration.
//!
//! # Examples
//!
//! ```
//! use pdn_proc::{client_soc, DomainKind};
//! use pdn_units::Watts;
//!
//! let soc = client_soc(Watts::new(4.0));
//! let cores = soc.domain(DomainKind::Core0);
//! assert!(cores.fmax.gigahertz() <= 4.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub(crate) mod cstate;
pub mod domain;
pub mod power;
pub mod soc;
pub(crate) mod tdp;
pub(crate) mod vf;

pub use cstate::PackageCState;
pub use domain::{DomainKind, DomainState, DomainTable};
pub use power::{guardband_factor, guardband_power};
pub use soc::{
    broadwell_ult, client_soc, skylake_ult, ClientSocBuilder, DomainConfig, HoistedDomainPower,
    SocSpec,
};
pub use tdp::{ConfigurableTdp, PAPER_TDPS};
pub use vf::VfCurve;
