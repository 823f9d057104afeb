//! The measured-profile subsystem: closing the feedback-directed
//! scheduling loop.
//!
//! The paper's latency-assignment scheme (§4.3.1/§4.3.3) is
//! profile-driven: per-load local-access ratios and hit rates come from a
//! profiling run of the program. The reproduction historically fed the
//! scheduler *synthetic* profiles (the timeless functional-cache pass in
//! `vliw-workloads`); this crate replaces invention with measurement:
//!
//! 1. **Collect** ([`Collector`], [`measure_kernel`]): run a kernel
//!    through the *timing* simulator against an
//!    [`ObservedCache`](vliw_mem::ObservedCache) and record, per memory
//!    operation, the access-class counts (local/remote × hit/miss), the
//!    home-cluster histogram, combining/Attraction-Buffer activity, and
//!    the full observed-latency histogram — contention included. The
//!    bootstrap schedule for the measurement run comes from the paper's
//!    own pipeline, so the loop is genuinely closed: schedule → measure →
//!    re-schedule against the measurements.
//! 2. **Persist** ([`ProfileStore`]): measurements live in a versioned,
//!    deterministic plain-text store (`results/profiles/` by convention)
//!    made of integers only, so a fresh collection and a reloaded store
//!    are bit-identical and CI can diff them.
//! 3. **Feed back** ([`attach_measurements`]): measurements are derived
//!    into [`MemProfile`](vliw_ir::MemProfile)s (hit rate, preferred
//!    clusters, plus the measured [`LatencyProfile`](vliw_ir::LatencyProfile))
//!    and attached to the kernel, where `engine::prepare` (IPBC's and the
//!    ablation's cluster pins, the latency assignment) and the
//!    `DelayTracking` backend consume them exactly as they would a
//!    synthetic profile — only truer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
mod store;

pub use collect::{
    measure_kernel, measure_kernel_on_input, measure_kernel_stream, measure_kernel_stream_on_input,
    AccessSample, Collector, MeasureOptions, StreamProfile,
};
pub use store::{attach_measurements, kernel_fingerprint, LoopProfile, OpProfile, ProfileStore};
