//! Cycle-level execution of modulo-scheduled loops.
//!
//! The engine replays a [`Schedule`](vliw_sched::Schedule) for a configured
//! number of iterations against one of the cache timing models of
//! `vliw-mem`, under the **stall-on-use** semantics the paper assumes: the
//! scheduler promises each load a latency; the lock-step VLIW core stalls
//! at a *consumer* when the promise is broken (a load scheduled with the
//! local-hit latency that actually missed, a remote access scheduled as
//! local, a combined access still in flight…). Stall cycles are attributed
//! to the access class of the late producer — the raw material of
//! Figures 5, 6 and 8.
//!
//! Cycle counts split into *compute time* — `(iterations + SC − 1) × II`,
//! fully determined by the schedule — and *stall time*, accumulated by the
//! engine, matching the shaded/unshaded split of the paper's Figure 8.
//!
//! Loops with large trip counts are simulated for a capped number of
//! iterations and the cycle counts scaled ([`SimOptions::iteration_cap`]);
//! caches stay warm across invocations, as in the paper's
//! whole-program simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;

pub use engine::{simulate_loop, simulate_loop_traced, LoopSimResult, SimOptions, StallBreakdown};
