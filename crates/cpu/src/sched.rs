//! Event-driven wakeup/select scheduling structures.
//!
//! The classic way to pick issue candidates is a broadcast scan: every
//! cycle, walk the whole reorder buffer and re-check every waiting
//! instruction's operands. That is O(window) per cycle whether or not
//! anything changed, and it is what the paper's large-window
//! configurations spend most of their host time doing.
//!
//! This module holds the bookkeeping that replaces the scan:
//!
//! * a **candidate set** — the sequence numbers of instructions whose
//!   operands (address operand, for memory ops) are ready, kept in age
//!   order so select examines exactly what the broadcast scan would have
//!   examined, in the same order, and counting its additions so the
//!   cycle skipper can tell whether anything joined it since a cycle's
//!   walk began;
//! * a **completion event queue** — each issued instruction schedules one
//!   wakeup at its `ready_at` cycle, at which point its waiters (recorded
//!   in the producer's slot of the seq-indexed reorder buffer) are
//!   re-evaluated;
//! * an **in-flight store queue** — every dispatched, uncommitted store
//!   as `(seq, byte range)` in age order, so
//!   load/store disambiguation is a short backwards scan of at most
//!   `store_queue` entries instead of a walk over the whole window. A
//!   fixed array of 64 counters, one per 8-byte chunk modulo 64, counts
//!   the in-flight stores touching each chunk; a load whose chunks all
//!   read zero overlaps no store and skips the scan.
//!
//! The invariant throughout: the candidate set *over-approximates* the
//! instructions the broadcast scan would have acted on, and every entry
//! whose examination has an architecturally visible side effect (a stat,
//! a cache access, an issue) is present. Examining an entry that turns
//! out not to be ready replays the scan's silent `continue`, so
//! over-approximation is free; missing an entry would change behaviour.
//! The simulated machine is bit-identical to the broadcast version —
//! only the host work changes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cpe_mem::Cycle;

use crate::lsq::ranges_overlap;

/// One dispatched, not yet committed store.
#[derive(Debug, Clone, Copy)]
struct InFlightStore {
    seq: u64,
    /// The (oracle) byte range the store writes.
    range: (u64, u64),
}

/// The scheduler state riding alongside the reorder buffer.
///
/// The candidate set is a ring bitmap in sequence-number space: bit
/// `seq & mask` stands for instruction `seq`. The window holds at most
/// `rob_entries` consecutive live sequence numbers and the bitmap is at
/// least that large, so no two live instructions share a bit, and
/// scanning positions upward from any live sequence number visits live
/// candidates in age order. For the paper's 128-entry window the whole
/// set is two machine words — select's walk is a couple of
/// trailing-zero counts instead of a tree traversal per step.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// Issue-candidate ring bitmap, one bit per in-flight seq.
    cand_words: Vec<u64>,
    /// Bitmap capacity minus one (capacity is a power of two).
    cand_mask: u64,
    /// Number of set bits, so emptiness checks are O(1).
    cand_count: u32,
    /// Calls to [`Scheduler::add_candidate`] so far; the cycle skipper
    /// compares two readings to learn whether anything joined the set.
    cand_adds: u64,
    /// Pending completion wakeups as `(ready_at, producer seq)`.
    events: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// In-flight stores, oldest first. Stores enter at dispatch and leave
    /// at commit, both in program order, so this is a FIFO no longer than
    /// the store queue.
    stores: VecDeque<InFlightStore>,
    /// In-flight stores touching each 8-byte chunk, indexed by
    /// `(addr >> 3) & 63`. A prefilter only: zero on every chunk of a
    /// load proves no store overlaps it, anything else means scan
    /// `stores`, which stays the source of truth.
    store_chunks: [u32; 64],
}

impl Scheduler {
    /// Build a scheduler for a window of `rob_entries` instructions.
    pub(crate) fn new(rob_entries: usize) -> Scheduler {
        let capacity = (rob_entries as u64).next_power_of_two().max(64);
        Scheduler {
            cand_words: vec![0; (capacity / 64) as usize],
            cand_mask: capacity - 1,
            cand_count: 0,
            cand_adds: 0,
            events: BinaryHeap::new(),
            stores: VecDeque::new(),
            store_chunks: [0; 64],
        }
    }

    // --- candidate set ----------------------------------------------------

    pub(crate) fn add_candidate(&mut self, seq: u64) {
        let pos = seq & self.cand_mask;
        let word = &mut self.cand_words[(pos >> 6) as usize];
        let bit = 1u64 << (pos & 63);
        self.cand_count += u32::from(*word & bit == 0);
        *word |= bit;
        self.cand_adds += 1;
    }

    pub(crate) fn remove_candidate(&mut self, seq: u64) {
        let pos = seq & self.cand_mask;
        let word = &mut self.cand_words[(pos >> 6) as usize];
        let bit = 1u64 << (pos & 63);
        self.cand_count -= u32::from(*word & bit != 0);
        *word &= !bit;
    }

    pub(crate) fn has_candidates(&self) -> bool {
        self.cand_count != 0
    }

    /// How many candidate additions have happened so far. Two equal
    /// readings mean no instruction joined the set in between.
    pub(crate) fn candidate_adds(&self) -> u64 {
        self.cand_adds
    }

    /// The oldest candidate in `start..end` (sequence numbers), letting
    /// select walk the set in age order while it mutates it. `end - start`
    /// must not exceed the window (callers pass live ROB bounds), so the
    /// position scan visits each bit at most once and in age order.
    pub(crate) fn next_candidate_in(&self, start: u64, end: u64) -> Option<u64> {
        if self.cand_count == 0 {
            return None;
        }
        let mut seq = start;
        while seq < end {
            let pos = seq & self.cand_mask;
            // Bits at or above `pos` in this word are the candidates in
            // `seq .. next word boundary`, in order.
            let pending = self.cand_words[(pos >> 6) as usize] >> (pos & 63);
            if pending != 0 {
                let found = seq + u64::from(pending.trailing_zeros());
                return (found < end).then_some(found);
            }
            seq = (seq | 63) + 1;
        }
        None
    }

    // --- completion events ------------------------------------------------

    pub(crate) fn push_event(&mut self, ready_at: Cycle, seq: u64) {
        self.events.push(Reverse((ready_at, seq)));
    }

    /// The cycle of the earliest pending wakeup, if any.
    pub(crate) fn next_event_at(&self) -> Option<Cycle> {
        self.events.peek().map(|&Reverse((t, _))| t)
    }

    /// Pop the next producer whose result is available by `now`.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<u64> {
        match self.events.peek() {
            Some(&Reverse((t, _))) if t <= now => {
                let Reverse((_, seq)) = self.events.pop().expect("peeked above");
                Some(seq)
            }
            _ => None,
        }
    }

    /// Outstanding wakeups (the quantity `sched_events_peak` tracks).
    pub(crate) fn pending_events(&self) -> usize {
        self.events.len()
    }

    // --- in-flight store queue ----------------------------------------------

    /// Track a dispatched store (the youngest in flight) and its (oracle)
    /// byte range.
    pub(crate) fn add_store(&mut self, seq: u64, range: (u64, u64)) {
        debug_assert!(range.1 > range.0, "memory accesses cover at least a byte");
        debug_assert!(self.stores.back().is_none_or(|s| s.seq < seq));
        for chunk in chunks(range) {
            self.store_chunks[chunk] += 1;
        }
        self.stores.push_back(InFlightStore { seq, range });
    }

    /// Remove a committing store. Stores commit in order, so it is the
    /// oldest entry.
    pub(crate) fn retire_store(&mut self, seq: u64) {
        let oldest = self.stores.pop_front().expect("a store is in flight");
        debug_assert_eq!(oldest.seq, seq, "stores commit in order");
        for chunk in chunks(oldest.range) {
            self.store_chunks[chunk] -= 1;
        }
    }

    /// In-flight stores tracked (never more than the store queue holds).
    pub(crate) fn stores_in_flight(&self) -> usize {
        self.stores.len()
    }

    /// The youngest store older than `load_seq` whose byte range overlaps
    /// `load_range` — the store a backwards window walk would find first.
    /// Skips the scan when no in-flight store touches any of the load's
    /// chunks.
    pub(crate) fn youngest_overlapping_store_before(
        &self,
        load_seq: u64,
        load_range: (u64, u64),
    ) -> Option<u64> {
        if chunks(load_range).all(|chunk| self.store_chunks[chunk] == 0) {
            return None;
        }
        self.stores
            .iter()
            .rev()
            .skip_while(|s| s.seq >= load_seq)
            .find(|s| ranges_overlap(s.range, load_range))
            .map(|s| s.seq)
    }

    /// Drop any bookkeeping for a committed instruction. The event-driven
    /// path never needs this (issue removed the candidate and the
    /// completion event has fired); it bounds growth when the broadcast
    /// oracle drives issue without consuming the queues, so it only
    /// exists alongside the oracle.
    #[cfg(test)]
    pub(crate) fn retire(&mut self, seq: u64) {
        self.remove_candidate(seq);
    }
}

/// The store-filter counters for the 8-byte chunks `range` touches.
fn chunks((start, end): (u64, u64)) -> impl Iterator<Item = usize> {
    ((start >> 3)..=((end - 1) >> 3)).map(|chunk| (chunk & 63) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_walk_in_age_order_under_mutation() {
        let mut s = Scheduler::new(16);
        for seq in [9, 3, 7, 1] {
            s.add_candidate(seq);
        }
        assert_eq!(s.next_candidate_in(0, 12), Some(1));
        s.remove_candidate(1);
        assert_eq!(s.next_candidate_in(2, 12), Some(3));
        // An insertion ahead of the cursor is visited later in the same
        // walk — the zero-latency wakeup case.
        s.add_candidate(5);
        assert_eq!(s.next_candidate_in(4, 12), Some(5));
        assert_eq!(s.next_candidate_in(6, 12), Some(7));
        assert_eq!(s.next_candidate_in(10, 12), None);
        // The walk respects the live-window bound.
        assert_eq!(s.next_candidate_in(8, 9), None);
    }

    #[test]
    fn candidates_survive_sequence_wraparound_of_the_ring() {
        let mut s = Scheduler::new(64);
        // A window whose sequence numbers straddle a multiple of the
        // bitmap capacity: positions wrap but age order must not.
        s.add_candidate(60);
        s.add_candidate(65);
        s.add_candidate(70);
        assert_eq!(s.next_candidate_in(58, 100), Some(60));
        assert_eq!(s.next_candidate_in(61, 100), Some(65));
        assert_eq!(s.next_candidate_in(66, 100), Some(70));
        // A lingering older candidate (seq 60, bit at a high position)
        // must not alias into a younger scan range after the wrap.
        s.remove_candidate(65);
        s.remove_candidate(70);
        assert_eq!(s.next_candidate_in(66, 110), None);
        assert_eq!(s.next_candidate_in(58, 100), Some(60));
    }

    #[test]
    fn events_pop_in_time_order_and_only_when_due() {
        let mut s = Scheduler::new(8);
        s.push_event(12, 2);
        s.push_event(10, 1);
        s.push_event(12, 0);
        assert_eq!(s.next_event_at(), Some(10));
        assert_eq!(s.pending_events(), 3);
        assert_eq!(s.pop_due(9), None);
        assert_eq!(s.pop_due(10), Some(1));
        assert_eq!(s.pop_due(11), None);
        // Same-cycle ties break by age.
        assert_eq!(s.pop_due(12), Some(0));
        assert_eq!(s.pop_due(12), Some(2));
        assert_eq!(s.pop_due(12), None);
    }

    #[test]
    fn store_index_finds_the_youngest_older_overlap() {
        let mut s = Scheduler::new(8);
        s.add_store(1, (0x100, 0x108));
        s.add_store(3, (0x104, 0x106));
        s.add_store(5, (0x200, 0x208));
        // Both older stores overlap; the youngest wins.
        assert_eq!(
            s.youngest_overlapping_store_before(4, (0x104, 0x108)),
            Some(3)
        );
        // Only stores older than the load count.
        assert_eq!(
            s.youngest_overlapping_store_before(2, (0x104, 0x108)),
            Some(1)
        );
        // Neighbouring but disjoint bytes: store 3 does not count.
        assert_eq!(
            s.youngest_overlapping_store_before(4, (0x106, 0x108)),
            Some(1)
        );
        assert_eq!(s.youngest_overlapping_store_before(6, (0x300, 0x308)), None);
        s.retire_store(1);
        assert_eq!(s.youngest_overlapping_store_before(2, (0x104, 0x108)), None);
    }

    #[test]
    fn unaligned_ranges_index_across_chunk_boundaries() {
        let mut s = Scheduler::new(8);
        // Bytes [0x106, 0x10a) straddle an 8-byte boundary.
        s.add_store(1, (0x106, 0x10a));
        assert_eq!(
            s.youngest_overlapping_store_before(9, (0x108, 0x110)),
            Some(1)
        );
        assert_eq!(
            s.youngest_overlapping_store_before(9, (0x100, 0x107)),
            Some(1)
        );
        s.retire_store(1);
        assert_eq!(s.youngest_overlapping_store_before(9, (0x108, 0x110)), None);
    }

    #[test]
    fn store_queue_stays_bounded_by_the_stores_in_flight() {
        // A long random stream of dispatches and in-order commits, checked against a plain list of the stores in
        // flight: the queue answers every query the same way a scan of the
        // whole list with no filter in front does, the filter's counters
        // equal a recount, and the queue never holds more entries than
        // there are stores in flight. Stores and loads cover 1–8 bytes at
        // any offset (so ranges straddle 8-byte chunks) in two clusters far
        // apart; each cluster is the first 128 bytes of two windows 512
        // bytes apart, so different chunks share a counter.
        let mut s = Scheduler::new(64);
        let mut model: Vec<(u64, (u64, u64))> = Vec::new();
        let mut next_seq = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let range = |r: u64| {
            let base = [0x1000, 0x7fff_f000_0000][(r & 1) as usize];
            let start = base + (r >> 1) % 2 * 512 + (r >> 2) % 128;
            (start, start + 1 + (r >> 12) % 8)
        };
        // Loads that skip the scan, scan and find nothing, and find a store.
        let (mut skipped, mut aliased, mut found) = (0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            let r = rand();
            match r % 4 {
                0 | 1 if model.len() < 8 => {
                    let store = range(rand());
                    next_seq += 1 + (r >> 32) % 3;
                    s.add_store(next_seq, store);
                    model.push((next_seq, store));
                }
                // Address generation: nothing for the queue to track.
                2 => {}
                _ if !model.is_empty() => {
                    s.retire_store(model.remove(0).0);
                }
                _ => {}
            }
            assert_eq!(s.stores_in_flight(), model.len());
            let mut recount = [0u32; 64];
            for &(_, store) in &model {
                for chunk in (store.0 >> 3)..=((store.1 - 1) >> 3) {
                    recount[(chunk & 63) as usize] += 1;
                }
            }
            assert_eq!(s.store_chunks, recount);
            let load_seq = model.first().map_or(0, |m| m.0) + (r >> 40) % 24;
            let load = range(rand());
            let expected = model
                .iter()
                .rev()
                .find(|m| m.0 < load_seq && ranges_overlap(m.1, load))
                .map(|m| m.0);
            assert_eq!(
                s.youngest_overlapping_store_before(load_seq, load),
                expected
            );
            if chunks(load).all(|chunk| s.store_chunks[chunk] == 0) {
                skipped += 1;
            } else if expected.is_none() {
                aliased += 1;
            } else {
                found += 1;
            }
        }
        // The model reaches every path.
        assert!(
            skipped > 1000 && aliased > 1000 && found > 1000,
            "{skipped} {aliased} {found}"
        );
    }
}
