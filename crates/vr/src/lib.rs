//! Voltage-regulator device models for the FlexWatts/PDNspot framework.
//!
//! This crate models the regulator components that client-processor power
//! delivery networks are built from (§2.2 of the FlexWatts paper):
//!
//! * [`buck::BuckConverter`] — a parametric step-down switching voltage
//!   regulator (SVR) loss model with light-load power states and phase
//!   shedding; used for both motherboard VRs and on-die IVRs.
//! * [`ldo::LdoRegulator`] — a low-dropout linear regulator with regulation,
//!   bypass, and power-gate modes (`η_LDO ≈ (Vout/Vin) · Ie`).
//! * [`powergate::PowerGate`] — an on-die power switch with a small series
//!   impedance.
//! * [`tob::ToleranceBand`] — the VR tolerance-band (TOB) voltage-guardband
//!   model.
//! * [`table::EfficiencySurface`] — tabulated η(Vin, Vout, Iout, power-state)
//!   surfaces, the format in which measured curves (Fig. 3) are consumed by
//!   PDNspot.
//!
//! The parametric models substitute for the paper's lab measurements; they
//! are calibrated so that their efficiency ranges match Table 2 (off-chip
//! 72–93 %, IVR 81–88 %, LDO current efficiency 99.1 %) and their shapes
//! match Fig. 3.
//!
//! # Examples
//!
//! ```
//! use pdn_units::{Amps, Volts};
//! use pdn_vr::{presets, OperatingPoint, VoltageRegulator, VrPowerState};
//!
//! let vin_vr = presets::vin_board_vr();
//! let op = OperatingPoint::new(Volts::new(7.2), Volts::new(1.8), Amps::new(4.0))
//!     .with_power_state(VrPowerState::Ps0);
//! let eta = vin_vr.efficiency(op)?;
//! assert!(eta.get() > 0.85);
//! # Ok::<(), pdn_vr::VrError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub(crate) mod buck;
pub mod ldo;
pub(crate) mod powergate;
pub mod presets;
pub mod table;
pub(crate) mod tob;
mod traits;

pub use buck::BuckConverter;
pub use ldo::{LdoMode, LdoRegulator};
pub use powergate::PowerGate;
pub use table::{CompiledSurface, EfficiencySurface};
pub use tob::ToleranceBand;
pub use traits::{OperatingPoint, Placement, VoltageRegulator, VrError, VrPowerState};
