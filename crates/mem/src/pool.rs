//! Deterministic queueing for contended resources (buses, ports).

/// A pool of `k` identical servers with per-request service times.
///
/// `acquire(earliest, service)` picks the server that can start soonest
/// (but not before `earliest`), books it for `service` cycles and returns
/// the start time. This models bus arbitration and port contention without
/// event-driven simulation; with requests arriving in non-decreasing time
/// order it yields the same schedules a cycle-stepped arbiter would.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    next_free: Vec<u64>,
}

impl ResourcePool {
    /// A pool with `servers` servers, all free at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a resource pool needs at least one server");
        ResourcePool {
            next_free: vec![0; servers],
        }
    }

    /// Books the earliest-available server at or after `earliest` for
    /// `service` cycles; returns the start time.
    pub fn acquire(&mut self, earliest: u64, service: u64) -> u64 {
        let (idx, _) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t.max(earliest), i))
            .expect("nonempty pool");
        let start = self.next_free[idx].max(earliest);
        self.next_free[idx] = start + service;
        start
    }

    /// The earliest start a request arriving at `earliest` would get,
    /// without booking.
    pub fn peek(&self, earliest: u64) -> u64 {
        self.next_free
            .iter()
            .map(|&t| t.max(earliest))
            .min()
            .expect("nonempty pool")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_requests_start_immediately() {
        let mut p = ResourcePool::new(2);
        assert_eq!(p.acquire(5, 2), 5);
        assert_eq!(p.acquire(5, 2), 5); // second server
    }

    #[test]
    fn contention_queues_fifo() {
        let mut p = ResourcePool::new(1);
        assert_eq!(p.acquire(0, 2), 0);
        assert_eq!(p.acquire(0, 2), 2);
        assert_eq!(p.acquire(1, 2), 4);
        // a late request after the queue drains starts on time
        assert_eq!(p.acquire(100, 2), 100);
    }

    #[test]
    fn four_buses_at_half_frequency() {
        // 4 buses, 2-cycle transfers: 5 simultaneous requests -> the fifth
        // waits for the first bus to free
        let mut p = ResourcePool::new(4);
        for _ in 0..4 {
            assert_eq!(p.acquire(0, 2), 0);
        }
        assert_eq!(p.acquire(0, 2), 2);
    }

    #[test]
    fn peek_does_not_book() {
        let mut p = ResourcePool::new(1);
        assert_eq!(p.peek(3), 3);
        p.acquire(0, 10);
        assert_eq!(p.peek(3), 10);
        assert_eq!(p.peek(12), 12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ResourcePool::new(0);
    }
}
