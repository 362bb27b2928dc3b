//! `pdn-serve`: a multi-tenant PDN-evaluation daemon.
//!
//! The workspace's analytical engine answers one caller at a time;
//! this crate puts a service boundary around it. A daemon boots the
//! five topologies, trains (or restores) the FlexWatts mode predictor,
//! tabulates resident ETEE surfaces, and then answers framed requests
//! over TCP or stdio:
//!
//! * **point evaluation** — any topology at any active or idle
//!   operating point, through the requesting tenant's memo cache;
//! * **surface samples** — bilinear [`EteeSurface::sample`] queries
//!   against the daemon's resident surfaces;
//! * **grid sweeps** and **crossover-TDP searches** — the library's
//!   batch entry points, parallelised on the work-stealing pool;
//! * **stats**, **snapshot**, and graceful **shutdown**.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — length-prefixed, CRC-32-checked frames; decoding
//!   arbitrary bytes never panics.
//! * [`protocol`] — typed requests/responses and the lossless
//!   [`ServeError`] ↔ [`pdnspot::PdnError`] conversion.
//! * [`engine`] — the multi-tenant evaluation core; every served value
//!   is bit-identical to the corresponding direct library call.
//! * [`admission`] — the bounded queue and coalescing dispatcher.
//! * [`snapshot`] — warm memo shards + predictor firmware on disk.
//! * [`server`] — TCP/stdio transports and the framed [`Client`].
//! * [`chaos`] — the seeded chaos campaign behind `pdn-serve chaos`
//!   and `BENCH_chaos.json`.
//!
//! [`EteeSurface::sample`]: pdnspot::sweep::EteeSurface::sample

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// The daemon must never panic on untrusted input or IO: failures are
// typed `ServeError`s on the wire. Keep bare `.unwrap()` out of
// non-test code (poison-tolerant locks use
// `unwrap_or_else(PoisonError::into_inner)` instead).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod chaos;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use admission::{AdmissionQueue, Job, Rejection, ReplyHandle};
pub use chaos::CampaignConfig;
pub use engine::{ServeEngine, SERVE_ARS, SERVE_TDPS};
pub use pdn_workload::codec::DecodeError;
pub use protocol::{
    PdnId, PointSpec, Request, RequestBody, Response, ResponseBody, ServeError, PROTOCOL_VERSION,
};
pub use server::{Client, ServerHandle};
pub use snapshot::Snapshot;
pub use wire::FrameError;
