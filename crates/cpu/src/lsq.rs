//! Load/store-queue ordering helpers.
//!
//! The byte-range predicates here decide when a load may leave for the
//! cache and when it can take its data from an older, still-uncommitted
//! store (store-to-load forwarding inside the LSQ — distinct from the
//! *post-commit* store-buffer forwarding modelled in `cpe-mem`).

/// `true` when byte ranges `[a_start, a_end)` and `[b_start, b_end)` share
/// any byte.
#[inline]
pub(crate) fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// `true` when range `outer` covers every byte of `inner`.
#[inline]
pub(crate) fn range_covers(outer: (u64, u64), inner: (u64, u64)) -> bool {
    outer.0 <= inner.0 && inner.1 <= outer.1
}

/// The verdict for a load consulting the older stores in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadGate {
    /// No ordering hazard: the load may access the cache.
    Go,
    /// An older store fully covers the load and its data is ready: forward
    /// within the LSQ.
    Forward,
    /// The load must wait (an overlapping older store whose address is
    /// not yet known, a partial overlap, or data not yet ready).
    Wait,
}

/// Occupancy tracking for the split load/store queues.
///
/// Entries are claimed at dispatch and released at commit; the core
/// samples [`LsqTracker::total`] once per cycle into the
/// `lsq_occupancy` histogram.
#[derive(Debug, Clone)]
pub(crate) struct LsqTracker {
    loads: usize,
    stores: usize,
    load_capacity: usize,
    store_capacity: usize,
}

impl LsqTracker {
    /// Empty queues with the given per-queue capacities.
    pub(crate) fn new(load_capacity: usize, store_capacity: usize) -> LsqTracker {
        LsqTracker {
            loads: 0,
            stores: 0,
            load_capacity,
            store_capacity,
        }
    }

    /// `true` when a load can be dispatched this cycle.
    pub(crate) fn can_accept_load(&self) -> bool {
        self.loads < self.load_capacity
    }

    /// `true` when a store can be dispatched this cycle.
    pub(crate) fn can_accept_store(&self) -> bool {
        self.stores < self.store_capacity
    }

    /// Claim a load-queue entry at dispatch.
    pub(crate) fn add_load(&mut self) {
        debug_assert!(self.can_accept_load(), "dispatch past load-queue capacity");
        self.loads += 1;
    }

    /// Claim a store-queue entry at dispatch.
    pub(crate) fn add_store(&mut self) {
        debug_assert!(
            self.can_accept_store(),
            "dispatch past store-queue capacity"
        );
        self.stores += 1;
    }

    /// Release a load-queue entry at commit.
    pub(crate) fn retire_load(&mut self) {
        debug_assert!(self.loads > 0, "retiring a load that was never dispatched");
        self.loads -= 1;
    }

    /// Release a store-queue entry at commit.
    pub(crate) fn retire_store(&mut self) {
        debug_assert!(
            self.stores > 0,
            "retiring a store that was never dispatched"
        );
        self.stores -= 1;
    }

    /// Loads currently in flight.
    pub(crate) fn loads(&self) -> usize {
        self.loads
    }

    /// Stores currently in flight.
    pub(crate) fn stores(&self) -> usize {
        self.stores
    }

    /// Combined occupancy across both queues.
    pub(crate) fn total(&self) -> usize {
        self.loads + self.stores
    }

    /// Combined capacity across both queues.
    pub(crate) fn capacity(&self) -> usize {
        self.load_capacity + self.store_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_cases() {
        assert!(ranges_overlap((0, 8), (4, 12)));
        assert!(ranges_overlap((4, 12), (0, 8)));
        assert!(ranges_overlap((0, 8), (0, 8)));
        assert!(ranges_overlap((0, 8), (7, 8)));
        assert!(!ranges_overlap((0, 8), (8, 16)));
        assert!(!ranges_overlap((8, 16), (0, 8)));
        assert!(
            !ranges_overlap((0, 0), (0, 8)),
            "empty range touches nothing"
        );
    }

    #[test]
    fn coverage_cases() {
        assert!(range_covers((0, 8), (0, 8)));
        assert!(range_covers((0, 8), (2, 6)));
        assert!(!range_covers((0, 8), (2, 10)));
        assert!(!range_covers((2, 6), (0, 8)));
    }

    #[test]
    fn tracker_enforces_split_capacities() {
        let mut lsq = LsqTracker::new(2, 1);
        assert_eq!(lsq.capacity(), 3);
        lsq.add_load();
        lsq.add_load();
        assert!(!lsq.can_accept_load(), "load queue is full");
        assert!(lsq.can_accept_store(), "store queue is independent");
        lsq.add_store();
        assert!(!lsq.can_accept_store());
        assert_eq!((lsq.loads(), lsq.stores(), lsq.total()), (2, 1, 3));
        lsq.retire_load();
        assert!(lsq.can_accept_load());
        lsq.retire_load();
        lsq.retire_store();
        assert_eq!(lsq.total(), 0);
    }
}
