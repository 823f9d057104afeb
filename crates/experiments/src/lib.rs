//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each module reproduces one artifact of the evaluation section:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`tables`] | Table 1 (benchmarks) and Table 2 (configuration) |
//! | [`example433`] | the §4.3.3 benefit table and final latencies |
//! | [`fig4`] | Figure 4 — memory-access classification (IPBC) |
//! | [`fig5`] | Figure 5 — stall-factor classification (IBC vs IPBC) |
//! | [`fig6`] | Figure 6 — stall time ± Attraction Buffers |
//! | [`fig7`] | Figure 7 — workload balance |
//! | [`fig8`] | Figure 8 — cycle counts across architectures |
//! | [`hints_exp`] | §5.2 — attractable hints on the epicdec overflow loop |
//! | [`chains_exp`] | §5.4 — chain-breaking study |
//! | [`interleave_study`] | §5.1 — 2-byte vs 4-byte interleaving for gsm |
//! | [`optgap`] | heuristic II vs the exact branch-and-bound pipeliner |
//!
//! All drivers run the same pipeline ([`run_benchmark_memo`] over
//! [`prepare_loop`]): synthesize the benchmark models, profile each loop
//! on the *profile* input, unroll (per-configuration mode), schedule, then
//! simulate on the *execution* input. [`ExperimentContext::full`] is the
//! paper-scale run; [`ExperimentContext::quick`] is a four-benchmark smoke
//! configuration used by tests.
//!
//! # Example
//!
//! ```no_run
//! use vliw_experiments::{fig8, ExperimentContext};
//!
//! let ctx = ExperimentContext::full();
//! let result = fig8::fig8(&ctx);
//! println!("{result}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod batch;
pub mod chains_exp;
mod context;
pub mod example433;
mod faults;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
mod grid;
pub mod hints_exp;
pub mod interleave_study;
pub mod optgap;
mod report;
mod schedcache;
pub mod tables;
mod trace_exp;

pub use batch::{run_batch, BatchReport, BatchRequest, Containment};
pub use context::{
    prepare_loop, run_benchmark_memo, ArchVariant, BenchRun, ExperimentContext, LoopRun,
    PreparedLoop, ProfileSource, RunConfig, UnrollMode,
};
pub use faults::{run_faults, FaultOptions, FaultPlan, FaultReport};
pub use grid::{GridResult, RunGrid};
pub use optgap::{OptGapResult, OptGapRow};
pub use report::{backend_quality_table, mshr_table, Table};
pub use schedcache::{CacheKey, PrepareFn, SalvageReport, SchedCache, ScheduleStore, StoreEntry};
pub use trace_exp::{run_trace, TraceRun};
