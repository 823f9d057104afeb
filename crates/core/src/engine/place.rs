//! The placement mechanics both placement backends run: the swing pass
//! (first fit, no backtracking) and the exact search (every cell, with
//! backtracking) place ops through this one module, so the problem the
//! exact search proves optimal is by construction the problem the
//! heuristic solves.
//!
//! * [`Neighbors`] collects the already-placed dependence neighbors of
//!   the op being placed.
//! * [`Window`] is the anchored window of `(estart, lstart)` cycles those
//!   neighbors leave open in one cluster, walked over the reservation
//!   table's free-mask.
//! * [`CopyTable`] routes every cross-cluster register value as a copy on
//!   the earliest free bus slot before the consumer needs it.
//! * [`PartialSchedule`] ties them together: [`PartialSchedule::try_place`]
//!   reserves an op's unit and copies under one [`Mrt`] savepoint or
//!   leaves the table untouched, [`PartialSchedule::unplace`] backtracks,
//!   and [`PartialSchedule::finish`] normalises a complete placement.

use std::collections::HashMap;

use vliw_ir::{Ddg, DepEdge, DepKind, FuKind, OpId};
use vliw_machine::MachineConfig;

use crate::latency::LatencyAssignment;
use crate::mrt::{Mrt, MrtSavepoint};
use crate::schedule::{ScheduledCopy, ScheduledOp};

/// Where a placed op sits: its cluster and raw (pre-normalisation) cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct Placement {
    pub(super) cluster: usize,
    pub(super) cycle: i64,
}

/// An already-placed dependence neighbor of the op being placed, with the
/// timing fields the window and copy routing read.
pub(super) struct Nbr {
    pub(super) other: OpId,
    pub(super) other_cluster: usize,
    pub(super) other_cycle: i64,
    /// The edge's latency (flow edges out of the op carry its latency).
    pub(super) lat: i64,
    pub(super) dist: i64,
    pub(super) regflow: bool,
}

/// The placed predecessors and successors of one op. Buffers are
/// cleared, never shrunk, so a reused value allocates nothing.
#[derive(Default)]
pub(super) struct Neighbors {
    pub(super) preds: Vec<Nbr>,
    pub(super) succs: Vec<Nbr>,
}

impl Neighbors {
    /// Collects the placed neighbors of `op`: incoming edges first, then
    /// outgoing ones, in edge order. Self-edges constrain nothing within
    /// an II and are skipped.
    pub(super) fn gather(
        &mut self,
        ddg: &Ddg<'_>,
        latencies: &LatencyAssignment,
        placed: &[Option<Placement>],
        op: OpId,
    ) {
        let nbr = |e: &DepEdge, other: OpId| {
            placed[other.index()].map(|p| Nbr {
                other,
                other_cluster: p.cluster,
                other_cycle: p.cycle,
                lat: latencies.edge_latency(e) as i64,
                dist: e.distance as i64,
                regflow: e.kind == DepKind::RegFlow,
            })
        };
        self.preds.clear();
        self.succs.clear();
        for e in ddg.pred_edges(op).filter(|e| e.from != op) {
            self.preds.extend(nbr(e, e.from));
        }
        for e in ddg.succ_edges(op).filter(|e| e.to != op) {
            self.succs.extend(nbr(e, e.to));
        }
    }

    /// The window these neighbors leave open in `cluster` at `ii`, or
    /// `None` when the earliest start lies past the latest one. A value
    /// crossing clusters on a register flow edge pays `transfer` cycles.
    pub(super) fn window(&self, cluster: usize, ii: i64, transfer: i64) -> Option<Window> {
        let extra = |n: &Nbr| {
            if n.regflow && n.other_cluster != cluster {
                transfer
            } else {
                0
            }
        };
        let estart = self
            .preds
            .iter()
            .map(|p| p.other_cycle + p.lat + extra(p) - ii * p.dist)
            .max();
        // s.lat already accounts for the edge kind (flow edges carry this
        // op's latency, since this op is the producer)
        let lstart = self
            .succs
            .iter()
            .map(|s| s.other_cycle - s.lat - extra(s) + ii * s.dist)
            .min();
        let (lo, hi, descending) = match (estart, lstart) {
            // Both sides constrained: place as close to the consumers as
            // possible (descending). The window can be II-wide when the
            // pred side connects through a loop-carried edge; placing at
            // its bottom would stretch the value's lifetime by up to a
            // whole II and starve the (pred-side) ops ordered after this
            // one of their windows.
            (Some(e), Some(l)) if e <= l => (e, l.min(e + ii - 1), true),
            (Some(_), Some(_)) => return None,
            (Some(e), None) => (e, e + ii - 1, false),
            (None, Some(l)) => (l - ii + 1, l, true),
            (None, None) => (0, ii - 1, false),
        };
        let (cursor, limit) = if descending { (hi, lo) } else { (lo, hi) };
        Some(Window {
            cursor,
            limit,
            descending,
        })
    }
}

/// An op's candidate cycles in one cluster, iterated lazily from one end
/// of the window towards the other.
pub(super) struct Window {
    cursor: i64,
    limit: i64,
    descending: bool,
}

impl Window {
    /// The next cycle whose `kind` unit in `cluster` is free. The walk
    /// runs over the row's free-mask, so occupied stretches are skipped
    /// a word at a time and only free cells surface.
    pub(super) fn next_free(&mut self, mrt: &Mrt, cluster: usize, kind: FuKind) -> Option<i64> {
        let cycle =
            mrt.next_free_fu_cycle(cluster, kind, self.cursor, self.limit, self.descending)?;
        self.cursor = if self.descending {
            cycle - 1
        } else {
            cycle + 1
        };
        Some(cycle)
    }
}

/// An inter-cluster copy booked on a register bus, at its raw
/// (pre-normalisation) cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct RoutedCopy {
    pub(super) producer: OpId,
    pub(super) from: usize,
    pub(super) to: usize,
    pub(super) bus: usize,
    pub(super) cycle: i64,
}

/// The copies of a partial schedule. At most one copy of a producer
/// reaches each destination cluster; the copies the op being placed
/// needs stay staged until the whole op fits.
#[derive(Default)]
pub(super) struct CopyTable {
    routed: Vec<RoutedCopy>,
    /// `(producer, destination)` → index into `routed`.
    index: HashMap<(OpId, usize), usize>,
    staged: Vec<RoutedCopy>,
    // per-route scratch
    seen_pred: Vec<OpId>,
    dest_bounds: Vec<(usize, i64)>,
}

impl CopyTable {
    fn clear(&mut self) {
        self.routed.clear();
        self.index.clear();
        self.staged.clear();
    }

    /// Whether a copy of `producer` already reaches `cluster`.
    pub(super) fn has(&self, producer: OpId, cluster: usize) -> bool {
        self.index.contains_key(&(producer, cluster))
    }

    /// The committed copies, in routing order.
    pub(super) fn routed(&self) -> &[RoutedCopy] {
        &self.routed
    }

    /// Stages every copy placing `op` (latency `lat`) at `at` needs and
    /// books their bus slots in `mrt`. Returns false as soon as one
    /// cannot arrive in time; the caller unwinds `mrt`.
    ///
    /// A cross-cluster flow predecessor needs one copy into `at.cluster`,
    /// due by the tightest bound over all of its edges into `op`; an
    /// existing copy is reused if it arrives by then and rejects the
    /// placement if it does not. `op` itself needs one copy per
    /// destination cluster of its cross-cluster flow successors, due by
    /// the tightest bound per destination. Each new copy takes the
    /// earliest free bus slot between the value's completion and its
    /// bound.
    fn route(
        &mut self,
        mrt: &mut Mrt,
        nbrs: &Neighbors,
        op: OpId,
        lat: i64,
        at: Placement,
        transfer: i64,
    ) -> bool {
        let ii = i64::from(mrt.ii());
        self.staged.clear();
        self.seen_pred.clear();
        for p in &nbrs.preds {
            if !(p.regflow && p.other_cluster != at.cluster) || self.seen_pred.contains(&p.other) {
                continue;
            }
            self.seen_pred.push(p.other);
            let bound = nbrs
                .preds
                .iter()
                .filter(|q| q.regflow && q.other == p.other)
                .map(|q| at.cycle + ii * q.dist - transfer)
                .min()
                .expect("at least p itself");
            if let Some(&idx) = self.index.get(&(p.other, at.cluster)) {
                if self.routed[idx].cycle <= bound {
                    continue; // reuse the existing copy
                }
                return false; // the existing copy arrives too late
            }
            let ready = p.other_cycle + p.lat; // producer completion
            if !self.book(mrt, p.other, p.other_cluster, at.cluster, ready, bound) {
                return false;
            }
        }

        self.dest_bounds.clear();
        for s in nbrs
            .succs
            .iter()
            .filter(|s| s.regflow && s.other_cluster != at.cluster)
        {
            let b = s.other_cycle + ii * s.dist - transfer;
            match self
                .dest_bounds
                .iter_mut()
                .find(|(c, _)| *c == s.other_cluster)
            {
                Some((_, bound)) => *bound = (*bound).min(b),
                None => self.dest_bounds.push((s.other_cluster, b)),
            }
        }
        for di in 0..self.dest_bounds.len() {
            let (dest, bound) = self.dest_bounds[di];
            if !self.book(mrt, op, at.cluster, dest, at.cycle + lat, bound) {
                return false;
            }
        }
        true
    }

    /// Books the earliest free bus slot in `[ready, bound]` for a copy of
    /// `producer` from `from` to `to` and stages it.
    fn book(
        &mut self,
        mrt: &mut Mrt,
        producer: OpId,
        from: usize,
        to: usize,
        ready: i64,
        bound: i64,
    ) -> bool {
        let mut cycle = ready;
        let bus = loop {
            if cycle > bound {
                return false;
            }
            if let Some(bus) = mrt.bus_find(cycle) {
                break bus;
            }
            cycle += 1;
        };
        mrt.bus_reserve(bus, cycle);
        self.staged.push(RoutedCopy {
            producer,
            from,
            to,
            bus,
            cycle,
        });
        true
    }

    /// Moves the staged copies into the table.
    fn commit(&mut self) {
        for c in self.staged.drain(..) {
            self.index.insert((c.producer, c.to), self.routed.len());
            self.routed.push(c);
        }
    }

    /// Drops every copy committed after the first `mark`. Each
    /// `(producer, destination)` key is unique, because a copy is only
    /// routed where none exists.
    fn truncate(&mut self, mark: usize) {
        for c in self.routed.drain(mark..) {
            self.index.remove(&(c.producer, c.to));
        }
    }
}

/// What [`PartialSchedule::unplace`] needs to take a placement back.
#[derive(Debug, Clone, Copy)]
pub(super) struct Undo {
    savepoint: MrtSavepoint,
    copies: usize,
}

/// A partial modulo schedule at one II: the reservation table, each op's
/// placement, the ops per cluster and the copies.
pub(super) struct PartialSchedule {
    pub(super) mrt: Mrt,
    pub(super) placed: Vec<Option<Placement>>,
    /// Ops placed per cluster.
    pub(super) per_cluster: Vec<usize>,
    pub(super) copies: CopyTable,
    transfer: i64,
}

impl PartialSchedule {
    pub(super) fn new(machine: &MachineConfig) -> Self {
        PartialSchedule {
            mrt: Mrt::new(1, machine),
            placed: Vec::new(),
            per_cluster: Vec::new(),
            copies: CopyTable::default(),
            transfer: machine.buses.transfer_cycles as i64,
        }
    }

    /// Empties the schedule for `n_ops` ops at `ii`, keeping every
    /// allocation.
    pub(super) fn reset(&mut self, ii: u32, n_ops: usize, machine: &MachineConfig) {
        self.mrt.reset(ii, machine);
        self.placed.clear();
        self.placed.resize(n_ops, None);
        self.per_cluster.clear();
        self.per_cluster.resize(machine.clusters.n_clusters, 0);
        self.copies.clear();
        self.transfer = machine.buses.transfer_cycles as i64;
    }

    /// The cross-cluster transfer time, in cycles.
    pub(super) fn transfer(&self) -> i64 {
        self.transfer
    }

    /// Places `op` (unit `kind`, latency `lat`, placed neighbors `nbrs`)
    /// at `at` if its unit and every copy it needs fit; otherwise leaves
    /// the schedule as it was and returns `None`.
    pub(super) fn try_place(
        &mut self,
        nbrs: &Neighbors,
        op: OpId,
        kind: FuKind,
        lat: i64,
        at: Placement,
    ) -> Option<Undo> {
        let undo = Undo {
            savepoint: self.mrt.savepoint(),
            copies: self.copies.routed.len(),
        };
        self.mrt.fu_reserve(at.cluster, kind, at.cycle);
        if !self
            .copies
            .route(&mut self.mrt, nbrs, op, lat, at, self.transfer)
        {
            self.mrt.rollback_to(undo.savepoint);
            return None;
        }
        self.copies.commit();
        self.placed[op.index()] = Some(at);
        self.per_cluster[at.cluster] += 1;
        Some(undo)
    }

    /// Takes back the placement of `op` that returned `undo`, which must
    /// be the latest one still standing.
    pub(super) fn unplace(&mut self, op: OpId, undo: Undo) {
        let at = self.placed[op.index()].take().expect("op is placed");
        self.per_cluster[at.cluster] -= 1;
        self.copies.truncate(undo.copies);
        self.mrt.rollback_to(undo.savepoint);
    }

    /// The complete placement, shifted so the earliest op or copy sits at
    /// cycle 0, as the schedule's op and copy lists.
    ///
    /// # Panics
    ///
    /// Panics if some op is unplaced.
    pub(super) fn finish(
        &self,
        latencies: &LatencyAssignment,
    ) -> (Vec<ScheduledOp>, Vec<ScheduledCopy>) {
        let at = |p: &Option<Placement>| p.expect("all ops placed");
        let min_cycle = self
            .placed
            .iter()
            .map(|p| at(p).cycle)
            .chain(self.copies.routed.iter().map(|c| c.cycle))
            .min()
            .unwrap_or(0);
        let ops = self
            .placed
            .iter()
            .enumerate()
            .map(|(i, p)| ScheduledOp {
                cluster: at(p).cluster,
                cycle: (at(p).cycle - min_cycle) as u32,
                assumed_latency: latencies.latency_of(OpId::new(i)),
            })
            .collect();
        let copies = self
            .copies
            .routed
            .iter()
            .map(|c| ScheduledCopy {
                producer: c.producer,
                from: c.from,
                to: c.to,
                cycle: (c.cycle - min_cycle) as u32,
                bus: c.bus,
            })
            .collect();
        (ops, copies)
    }
}
