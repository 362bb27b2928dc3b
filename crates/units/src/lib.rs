//! Typed physical quantities and numerical curve tools for the
//! FlexWatts/PDNspot power-delivery models.
//!
//! Power-delivery modelling mixes many scalar quantities — volts, amps,
//! watts, ohms, hertz, degrees Celsius — whose accidental confusion produces
//! silently wrong results. This crate provides zero-cost newtypes with the
//! physically meaningful arithmetic between them (`Volts * Amps = Watts`,
//! `Watts / Volts = Amps`, …), validated ratio types ([`Efficiency`],
//! [`Ratio`]), and the interpolation toolbox ([`Curve1`], [`Grid2`]) used to
//! represent measured voltage-regulator efficiency surfaces and the ETEE
//! tables stored in PMU firmware.
//!
//! # Examples
//!
//! ```
//! use pdn_units::{Amps, Ohms, Volts, Watts};
//!
//! let rail = Volts::new(1.8);
//! let load = Amps::new(2.0);
//! let power: Watts = rail * load;
//! assert_eq!(power, Watts::new(3.6));
//!
//! // I²R conduction loss on a 1 mΩ load line.
//! let loss: Watts = load.squared_times(Ohms::from_milliohms(1.0));
//! assert!((loss.get() - 0.004).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub(crate) mod curve;
pub(crate) mod error;
pub(crate) mod interp;
pub(crate) mod quantity;
pub(crate) mod ratio;

pub use curve::{Curve1, Grid2};
pub use error::UnitsError;
pub use interp::bilinear;
pub use quantity::{Amps, Celsius, Hertz, Ohms, Seconds, SquareMillimeters, Usd, Volts, Watts};
pub use ratio::{ApplicationRatio, Efficiency, Ratio};
