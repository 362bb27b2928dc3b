//! Synthetic client-workload traces for the FlexWatts/PDNspot framework.
//!
//! The paper evaluates PDNs on ~5000 traces measured on real hardware:
//! SPEC CPU2006 and other CPU-intensive workloads, 3DMark06 graphics
//! workloads, and battery-life workloads (video playback, video
//! conferencing, web browsing, light gaming). Those traces are proprietary,
//! so this crate synthesises the closest equivalents (see DESIGN.md):
//! each profile carries exactly the quantities the PDN models consume —
//! workload type, application ratio (AR), per-benchmark performance
//! scalability, and power-state residencies.
//!
//! * [`spec`] — the 29 SPEC CPU2006 benchmarks of Fig. 7, with the figure's
//!   ascending performance-scalability ordering.
//! * [`graphics`] — 3DMark06-style graphics workloads (Fig. 8b).
//! * [`batterylife`] — the four battery-life workloads of Fig. 8c with the
//!   §5/§7 residency profiles.
//! * [`trace`] — the interval-trace representation consumed by the runtime
//!   simulator.
//! * [`synthetic`] — seeded random trace generation and power-virus traces.
//! * [`zoo`] — deterministic realistic trace scenarios (server bursts,
//!   frame-locked gaming, ML inference, thermally-throttled mobile).
//! * [`tracefile`] — the crash-tolerant chunked binary trace-file format
//!   and its bounded-memory streaming reader.
//! * [`codec`] — the durable-bytes layer every binary format of the
//!   workspace shares: CRC-32, FNV-1a, the little-endian cursor, and the
//!   atomic file write.
//!
//! # Examples
//!
//! ```
//! use pdn_workload::spec;
//!
//! let suite = spec::spec_cpu2006();
//! assert_eq!(suite.len(), 29);
//! // Fig. 7 sorts by performance scalability; 416.gamess scales best.
//! assert_eq!(suite.last().unwrap().name, "416.gamess");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batterylife;
pub mod codec;
pub mod graphics;
pub mod spec;
pub mod synthetic;
pub mod trace;
pub mod tracefile;
pub mod zoo;

pub use batterylife::{BatteryLifeWorkload, ResidencyProfile};
pub use graphics::GraphicsBenchmark;
pub use spec::SpecBenchmark;
pub use synthetic::TraceGenerator;
pub use trace::{Phase, Trace, TraceInterval, WorkloadType};
pub use tracefile::{
    ChunkDefect, DefectCounts, DefectKind, DefectPolicy, TraceFileError, TraceFileWriter,
    TraceReader,
};
pub use zoo::{zoo_mix, ZooScenario};
