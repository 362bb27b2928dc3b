//! Power-management-unit (PMU) simulation substrate.
//!
//! FlexWatts's mode predictor runs inside the PMU firmware of a client
//! processor and consumes inputs the PMU already tracks for its other
//! algorithms (§6 of the paper): the configured TDP, the application ratio
//! estimated by per-domain activity sensors, the workload type derived
//! from domain power states, and the current package power state. This
//! crate models those PMU facilities:
//!
//! * [`sensors`] — weighted-event activity sensors with calibration error
//!   and quantisation, the runtime AR proxy;
//! * [`classify_workload`] — workload-type classification from domain
//!   activity;
//! * [`CStateDriver`] — the package C-state driver whose C6 flow
//!   FlexWatts reuses for voltage-noise-free mode switching;
//! * [`EteeCurveSet`] — firmware curve tables (the storage format of the
//!   predictor's ETEE curve sets, footnote 11).
//!
//! # Examples
//!
//! ```
//! use pdn_pmu::sensors::ActivitySensorBank;
//! use pdn_units::ApplicationRatio;
//!
//! let bank = ActivitySensorBank::new(7);
//! let truth = ApplicationRatio::new(0.62)?;
//! let estimate = bank.estimate(pdn_proc::DomainKind::Core0, truth);
//! assert!((estimate.get() - truth.get()).abs() < 0.06);
//! # Ok::<(), pdn_units::UnitsError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub(crate) mod cstate;
pub mod firmware;
pub mod sensors;
pub(crate) mod tables;
pub(crate) mod wltype;

pub use cstate::CStateDriver;
pub use firmware::{FirmwareError, FirmwareImage};
pub use sensors::ActivitySensorBank;
pub use tables::EteeCurveSet;
pub use wltype::classify_workload;
