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
}
