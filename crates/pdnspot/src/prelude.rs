//! The one-line import for PDNspot campaigns.
//!
//! ```
//! use pdnspot::prelude::*;
//!
//! let params = ModelParams::paper_defaults();
//! let ivr = IvrPdn::new(params.clone());
//! let mbvr = MbvrPdn::new(params);
//! let pdns: [&dyn Pdn; 2] = [&ivr, &mbvr];
//! let grid = SweepGrid::active(&[4.0, 18.0], &[WorkloadType::MultiThread], &[0.56])?;
//! let cfg = EngineConfig::default();
//! let outcome = evaluate(&pdns, &grid, &ClientSoc, &cfg, None);
//! assert_eq!(outcome.stats.failed, 0);
//! # Ok::<(), pdnspot::PdnError>(())
//! ```

pub use crate::batch::{
    build_scenarios, evaluate, evaluate_delta, par_map, par_map_stats, BatchOutcome, BatchStats,
    ClientSoc, LatticePoint, SocProvider, SweepGrid, Workers,
};
pub use crate::config::EngineConfig;
pub use crate::error::{ErrorCode, PdnError};
pub use crate::etee::{LossBreakdown, PdnEvaluation, RailReport};
pub use crate::memo::{MemoCache, MemoEntry, MemoStats};
pub use crate::params::ModelParams;
pub use crate::scenario::Scenario;
pub use crate::sweep::{crossover, surfaces, surfaces_delta, Crossover, EteeSurface};
pub use crate::topology::{IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, Pdn, PdnKind};
pub use crate::validation::{validate, validate_with, ReferenceSystem, ValidationReport};
pub use pdn_units::{ApplicationRatio, Watts};
pub use pdn_workload::WorkloadType;
