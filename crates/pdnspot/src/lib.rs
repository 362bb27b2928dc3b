//! PDNspot: a validated architectural power-delivery-network model.
//!
//! PDNspot is the framework contribution of the FlexWatts paper (§3): it
//! models the three commonly-used client-processor PDNs — integrated
//! voltage regulators ([`topology::IvrPdn`]), motherboard voltage
//! regulators ([`topology::MbvrPdn`]), low-dropout regulators
//! ([`topology::LdoPdn`]) — plus the Skylake-X-style hybrid
//! ([`topology::IPlusMbvrPdn`]), and evaluates, for any processor TDP and
//! workload:
//!
//! * **end-to-end power-conversion efficiency** (ETEE, Eq. 1) with a full
//!   loss breakdown (Fig. 5): VR inefficiencies, I²R/load-line conduction,
//!   guardband and power-gate overheads;
//! * **performance** via the §3.3 power-budget model ([`perf`]);
//! * **board area and bill of materials** via the Iccmax-driven §3.2 model
//!   ([`areabom`]);
//! * **validation** against an independent component-level reference
//!   simulator standing in for the paper's lab measurements
//!   ([`validation`]).
//!
//! The FlexWatts hybrid PDN itself lives in the `flexwatts` crate and
//! implements this crate's [`topology::Pdn`] trait.
//!
//! # Examples
//!
//! ```
//! use pdn_units::{ApplicationRatio, Watts};
//! use pdn_workload::WorkloadType;
//! use pdnspot::params::ModelParams;
//! use pdnspot::scenario::Scenario;
//! use pdnspot::topology::{IvrPdn, MbvrPdn, Pdn};
//!
//! let params = ModelParams::paper_defaults();
//! let soc = pdn_proc::client_soc(Watts::new(4.0));
//! let scenario = Scenario::active_budget(
//!     &soc,
//!     WorkloadType::SingleThread,
//!     ApplicationRatio::new(0.6)?,
//!     &params,
//! )?;
//! let ivr = IvrPdn::new(params.clone());
//! let mbvr = MbvrPdn::new(params.clone());
//! // §5 Observation 1: at 4 W TDP, MBVR beats IVR.
//! let e_ivr = ivr.evaluate(&scenario)?;
//! let e_mbvr = mbvr.evaluate(&scenario)?;
//! assert!(e_mbvr.etee.get() > e_ivr.etee.get());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod areabom;
pub mod batch;
pub(crate) mod config;
pub(crate) mod error;
pub mod etee;
pub mod memo;
pub mod params;
pub mod perf;
pub mod prelude;
pub mod scenario;
pub mod sweep;
pub mod topology;
pub mod transient;
pub mod validation;

pub use batch::{BatchStats, ClientSoc, SweepGrid, Workers};
pub use config::EngineConfig;
pub use error::{ErrorCode, PdnError};
pub use etee::{DirectStager, LossBreakdown, PdnEvaluation, RailReport, RowStage, Stager};
pub use memo::{MemoCache, MemoEntry, MemoStats};
pub use params::ModelParams;
pub use scenario::Scenario;
pub use topology::{IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, Pdn, PdnKind};
