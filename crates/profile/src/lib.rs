//! The measured-profile subsystem: closing the feedback-directed
//! scheduling loop.
//!
//! The paper's latency-assignment scheme (§4.3.1/§4.3.3) is
//! profile-driven: per-load local-access ratios and hit rates come from a
//! profiling run of the program. The reproduction historically fed the
//! scheduler *synthetic* profiles (the timeless functional-cache pass in
//! `vliw-workloads`); this crate replaces invention with measurement:
//!
//! 1. **Collect** ([`measure_kernel`]): run a kernel through the
//!    *timing* simulator against an
//!    [`ObservedCache`](vliw_mem::ObservedCache) and record, per memory
//!    operation and measured iteration, one [`AccessSample`]: access
//!    class (local/remote × hit/miss), home cluster,
//!    combining/Attraction-Buffer activity and the observed latency —
//!    contention included. The sample stream ([`StreamProfile`]) is the
//!    measurement; [`StreamProfile::derive_unrolled`] aggregates it into
//!    per-op [`OpProfile`]s — at factor 1 for the measured kernel itself,
//!    at factor `U` for its unrolled variants, without another run. The
//!    bootstrap schedule for the measurement run comes from the paper's
//!    own pipeline, so the loop is genuinely closed: schedule → measure →
//!    re-schedule against the measurements.
//! 2. **Persist** ([`ProfileStore`]): measurements are written to a
//!    versioned, deterministic plain-text store (`results/profiles/` by
//!    convention) made of integers only, so a fresh collection is
//!    byte-identical to the committed one and CI can diff them. The store
//!    is an output: nothing reads it back.
//! 3. **Feed back** ([`attach_measurements`]): measurements are derived
//!    into [`MemProfile`](vliw_ir::MemProfile)s (hit rate, preferred
//!    clusters, plus the measured [`LatencyProfile`](vliw_ir::LatencyProfile))
//!    and attached to the kernel, where `engine::prepare` (IPBC's and the
//!    ablation's cluster pins, the latency assignment) consumes them
//!    exactly as it would a synthetic profile — only truer. The latency
//!    distribution rides along for reports: the profile-fidelity study's
//!    divergence table reads its expectation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod collect;
mod store;

pub use collect::{measure_kernel, AccessSample, MeasureOptions, StreamProfile};
pub use store::{attach_measurements, LoopProfile, OpProfile, ProfileStore};
