//! Facade crate for the interleaved-cache clustered VLIW reproduction.
//!
//! Re-exports every sub-crate of the workspace under one roof so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`ir`] — loop IR, dependence graphs, kernel builder, unroller.
//! * [`machine`] — machine descriptions (clusters, caches, buses, latencies).
//! * [`sched`] — the paper's contribution: the modulo-scheduling techniques.
//! * [`mem`] — memory-hierarchy timing models.
//! * [`sim`] — the cycle-level execution engine.
//! * [`workloads`] — the Mediabench-equivalent synthetic suite + profiling.
//! * [`profile`] — measured profiles: per-load latency histograms and
//!   class mixes collected from the timing simulator, persisted in a
//!   deterministic store, feeding the feedback-directed scheduler.
//! * [`experiments`] — drivers regenerating every table and figure.
//! * [`trace`] — zero-overhead-when-off tracing & metrics (spans on a
//!   logical clock, Chrome-trace export).
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use vliw_experiments as experiments;
pub use vliw_ir as ir;
pub use vliw_machine as machine;
pub use vliw_mem as mem;
pub use vliw_profile as profile;
pub use vliw_sched as sched;
pub use vliw_sim as sim;
pub use vliw_trace as trace;
pub use vliw_workloads as workloads;
