//! The experiment harness: regenerates every table and figure of the
//! FlexWatts paper from the workspace's models.
//!
//! Each `fig*`/`tables`/`observations` module computes one paper artefact
//! and renders it as aligned text rows (the series a plot would show).
//! One binary per artefact lives in `src/bin/`.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (architecture) | [`tables`] | `table1` |
//! | Table 2 (model parameters) | [`tables`] | `table2` |
//! | Table 3 (validation systems) | [`tables`] | `table3` |
//! | Fig. 2a/2b (perf model) | [`fig2`] | `fig2` |
//! | Fig. 3 (VR efficiency curves) | [`fig3`] | `fig3` |
//! | Fig. 4 (validation) | [`fig4`] | `fig4` |
//! | Fig. 5 (loss breakdown) | [`fig5`] | `fig5` |
//! | Fig. 7 (SPEC per-benchmark at 4 W) | [`fig7`] | `fig7` |
//! | Fig. 8a–e (perf/battery/BOM/area) | [`fig8`] | `fig8` |
//! | §6 overheads | [`overheads`] | `overhead` |
//! | §5 observations / crossovers | [`observations`] | `observations` |
//! | Predictor table-resolution ablation | [`ablation`] | `ablation_predictor` |
//! | Fault campaign (robustness) | [`faults`] | `faults` |
//! | Perf baseline (`BENCH_batch.json`) | [`perf`] | `perf` |
//! | Trace ingestion (`BENCH_trace.json`) | [`tracebench`] | `trace` |

#![warn(missing_docs)]

pub mod ablation;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod observations;
pub mod overheads;
pub mod perf;
pub mod render;
pub mod suite;
pub mod tables;
pub mod tracebench;
