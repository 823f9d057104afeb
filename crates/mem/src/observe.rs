//! The per-access observation hook: every request/outcome pair of a
//! wrapped cache model is reported to an [`AccessObserver`].
//!
//! This is the measurement seam the feedback-directed scheduling loop
//! stands on: the profiling subsystem (`vliw-profile`) wraps the cache a
//! simulation runs against in an [`ObservedCache`] and receives, for
//! every access, the issuing cluster, the request tag (the simulator tags
//! requests with the dense operation index), the address, the access
//! class, and the *observed* latency `ready_at − now` — contention,
//! combining and MSHR back-pressure included. Synthetic models never see
//! any of this; the hook is pure observation and cannot change timing.

use crate::{AccessOutcome, AccessRequest, DataCache, MemStats};

/// A sink for per-access observations of an [`ObservedCache`].
pub trait AccessObserver {
    /// Called after every access with the request (tag included) and its
    /// outcome. The observed latency is `out.ready_at - req.now`.
    fn observe(&mut self, req: &AccessRequest, out: &AccessOutcome);

    /// Called whenever the wrapped cache is told a pipelined loop
    /// finished ([`DataCache::flush_loop_boundary`]). Collectors use this
    /// to separate warm-up accesses from the measured pass.
    fn loop_boundary(&mut self) {}
}

/// A [`DataCache`] wrapper that forwards every call to the wrapped model
/// and reports each access to its observer. Timing is untouched: the
/// observer runs strictly after the inner model has answered.
#[derive(Debug)]
pub struct ObservedCache<C, O> {
    inner: C,
    observer: O,
}

impl<C: DataCache, O: AccessObserver> ObservedCache<C, O> {
    /// Wraps `inner`, reporting every access to `observer`.
    pub fn new(inner: C, observer: O) -> Self {
        ObservedCache { inner, observer }
    }

    /// The observer (to read collected measurements back out).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Unwraps into the inner cache and the observer.
    pub fn into_parts(self) -> (C, O) {
        (self.inner, self.observer)
    }
}

impl<C: DataCache, O: AccessObserver> DataCache for ObservedCache<C, O> {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let out = self.inner.access(req);
        self.observer.observe(&req, &out);
        out
    }

    fn flush_loop_boundary(&mut self) {
        self.inner.flush_loop_boundary();
        self.observer.loop_boundary();
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cache;
    use vliw_machine::MachineConfig;

    #[derive(Default)]
    struct Recorder {
        events: Vec<(u32, usize, u64, u64)>,
        boundaries: usize,
    }

    impl AccessObserver for Recorder {
        fn observe(&mut self, req: &AccessRequest, out: &AccessOutcome) {
            self.events
                .push((req.tag, req.cluster, req.addr, out.ready_at - req.now));
        }

        fn loop_boundary(&mut self) {
            self.boundaries += 1;
        }
    }

    #[test]
    fn every_access_is_observed_with_identical_timing() {
        let m = MachineConfig::word_interleaved_4();
        let mut plain = build_cache(&m);
        let mut observed = ObservedCache::new(build_cache(&m), Recorder::default());
        let reqs = [
            AccessRequest::load(0, 0, 4, 0).tagged(7),
            AccessRequest::load(0, 0, 4, 20).tagged(7),
            AccessRequest::store(1, 64, 4, 40).tagged(9),
        ];
        for r in reqs {
            let a = plain.access(r);
            let b = observed.access(r);
            assert_eq!(a, b, "observation must not perturb timing");
        }
        let rec = observed.observer();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0], (7, 0, 0, 10)); // local miss
        assert_eq!(rec.events[1], (7, 0, 0, 1)); // local hit
        assert_eq!(rec.events[2].0, 9);
        assert_eq!(observed.stats().total(), 3);
    }

    #[test]
    fn loop_boundaries_reach_the_observer() {
        let m = MachineConfig::word_interleaved_4();
        let mut observed = ObservedCache::new(build_cache(&m), Recorder::default());
        observed.flush_loop_boundary();
        observed.flush_loop_boundary();
        assert_eq!(observed.observer().boundaries, 2);
    }
}
