//! FlexWatts: a power- and workload-aware hybrid adaptive power delivery
//! network for energy-efficient client processors.
//!
//! This crate implements the paper's primary contribution (§6): a hybrid
//! PDN that combines on-die IVRs and LDOs over *shared* on-chip and
//! off-chip resources, switching between two modes at runtime:
//!
//! * **IVR-Mode** — the board `V_IN` VR outputs ≈ 1.8 V and the on-die
//!   hybrid regulators buck-convert it per domain (efficient at high
//!   power: low chip input current, low I²R);
//! * **LDO-Mode** — `V_IN` outputs the maximum compute voltage and the
//!   hybrid regulators act as LDOs/bypass switches (efficient at low
//!   power: one conversion stage).
//!
//! Components:
//!
//! * the hybrid regulator — the dual-personality regulator sharing the
//!   high-side NMOS power switch and decoupling between both modes;
//! * [`topology::FlexWattsPdn`] — the PDN model, implementing PDNspot's
//!   [`pdnspot::Pdn`] trait for either mode (SA/IO stay on dedicated
//!   board rails, like the LDO PDN);
//! * [`predictor::ModePredictor`] — Algorithm 1: firmware ETEE tables for
//!   both modes, indexed by (TDP, AR, workload type, power state);
//! * [`switchflow::ModeSwitchFlow`] — the voltage-noise-free mode switch
//!   built on the package-C6 flow (≈ 94 µs end to end);
//! * [`runtime::FlexWattsRuntime`] — the interval simulator tying PMU
//!   sensors, predictor, switch flow, and PDNspot energy accounting
//!   together over workload traces;
//! * [`faults`] — a seeded, deterministic fault-injection harness with a
//!   graceful-degradation contract (retry/backoff, last-good sensor
//!   fallback, safe-mode watchdog) layered over the runtime;
//! * [`overhead`] — the §6 area/latency overhead accounting.
//!
//! # Examples
//!
//! ```
//! use flexwatts::{FlexWattsPdn, PdnMode};
//! use pdn_units::{ApplicationRatio, Watts};
//! use pdn_workload::WorkloadType;
//! use pdnspot::{ModelParams, Pdn, Scenario};
//!
//! let params = ModelParams::paper_defaults();
//! let soc = pdn_proc::client_soc(Watts::new(4.0));
//! let s = Scenario::active_fixed_tdp_frequency(
//!     &soc,
//!     WorkloadType::SingleThread,
//!     ApplicationRatio::new(0.6)?,
//! )?;
//! // At 4 W, LDO-Mode clearly beats IVR-Mode (§7.1).
//! let ldo = FlexWattsPdn::new(params.clone(), PdnMode::LdoMode).evaluate(&s)?;
//! let ivr = FlexWattsPdn::new(params, PdnMode::IvrMode).evaluate(&s)?;
//! assert!(ldo.etee.get() > ivr.etee.get() + 0.04);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod faults;
pub(crate) mod hybrid;
pub mod overhead;
pub(crate) mod predictor;
pub(crate) mod protection;
pub(crate) mod replay;
pub(crate) mod runtime;
pub(crate) mod switchflow;
pub mod topology;

pub use faults::{FaultCampaignReport, FaultClass, FaultCounts, FaultMix, FaultPlan};
pub use predictor::{ModePredictor, PredictorInputs};
pub use protection::MaxCurrentProtection;
pub use replay::{
    replay_trace_file, CheckpointPlan, FileReplayReport, ReplayCheckpoint, ReplayFileOptions,
    TraceReplayer,
};
pub use runtime::{FlexWattsRuntime, RuntimeConfig, RuntimeReport};
pub use switchflow::ModeSwitchFlow;
pub use topology::{FlexWattsAuto, FlexWattsPdn, PdnMode};
