//! Line buffers — the paper's "load-all" technique.
//!
//! Every port access already reads a full port-width chunk out of the data
//! array; a line buffer captures that chunk in a small fully associative
//! file next to the load/store unit. Loads that hit a line buffer are
//! satisfied **without consuming a cache port**, which is precisely how the
//! technique stretches one port across several references. Buffers are
//! invalidated when a store writes overlapping bytes or when the underlying
//! cache line leaves the cache.

use crate::replacement::LruTable;
use crate::{Addr, Cycle};

/// A fully associative file of recently read chunks, LRU-replaced.
///
/// ```
/// use cpe_mem::{LineBufferFile, Addr};
///
/// let mut lb = LineBufferFile::new(2, 16);
/// lb.insert(Addr::new(0x100), 5);
/// assert_eq!(lb.lookup(Addr::new(0x108), 8), Some(5));  // same 16B chunk
/// assert_eq!(lb.lookup(Addr::new(0x110), 8), None);     // next chunk
/// lb.invalidate_overlapping(Addr::new(0x104), 4);       // a store hits it
/// assert_eq!(lb.lookup(Addr::new(0x108), 8), None);
/// ```
#[derive(Debug, Clone)]
pub struct LineBufferFile {
    /// Each buffer's chunk address, and when its data is available (a
    /// buffer can be allocated by a miss whose fill is still in flight).
    buffers: LruTable<Cycle>,
    width_bytes: u64,
}

impl LineBufferFile {
    /// A file of `entries` buffers each capturing `width_bytes` (a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics when `width_bytes` is not a power of two.
    pub fn new(entries: usize, width_bytes: u64) -> LineBufferFile {
        assert!(
            width_bytes.is_power_of_two(),
            "line-buffer width must be a power of two"
        );
        LineBufferFile {
            buffers: LruTable::new(entries),
            width_bytes,
        }
    }

    /// The chunk size captured per buffer.
    pub fn width_bytes(&self) -> u64 {
        self.width_bytes
    }

    /// Look for a buffer whose chunk fully covers the `bytes`-wide access
    /// at `addr`. On a hit, returns when the data is (or was) available and
    /// refreshes recency.
    pub fn lookup(&mut self, addr: Addr, bytes: u64) -> Option<Cycle> {
        if !addr.fits_in_block(bytes, self.width_bytes) {
            return None;
        }
        let chunk = addr.align_down(self.width_bytes).get();
        self.buffers.touch(chunk).copied()
    }

    /// Capture the chunk at `chunk_addr` (already aligned by the caller),
    /// whose data is available at `data_ready`. Replaces the LRU buffer; a
    /// buffer already holding the chunk is refreshed instead.
    ///
    /// Does nothing when the file has zero buffers.
    pub fn insert(&mut self, chunk_addr: Addr, data_ready: Cycle) {
        if self.buffers.is_empty() {
            return;
        }
        debug_assert_eq!(
            chunk_addr.offset_in(self.width_bytes),
            0,
            "caller aligns chunks"
        );
        let chunk = chunk_addr.get();
        if let Some(ready) = self.buffers.touch(chunk) {
            *ready = (*ready).min(data_ready);
        } else {
            self.buffers.insert(chunk, data_ready);
        }
    }

    /// Invalidate every buffer overlapping the `bytes`-wide range at
    /// `addr` (a store wrote it, or its cache line was evicted). Returns
    /// how many buffers were dropped.
    pub fn invalidate_overlapping(&mut self, addr: Addr, bytes: u64) -> usize {
        let start = addr.get();
        let end = start.saturating_add(bytes);
        let width = self.width_bytes;
        self.buffers
            .remove_where(|chunk| chunk < end && start < chunk + width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_requires_full_coverage() {
        let mut lb = LineBufferFile::new(1, 16);
        lb.insert(Addr::new(0x100), 0);
        assert!(lb.lookup(Addr::new(0x100), 16).is_some());
        assert!(lb.lookup(Addr::new(0x10f), 1).is_some());
        // 8-byte access straddling the chunk boundary cannot hit.
        assert!(lb.lookup(Addr::new(0x10c), 8).is_none());
        assert!(lb.lookup(Addr::new(0x0f8), 8).is_none());
    }

    #[test]
    fn lru_replacement_among_buffers() {
        let mut lb = LineBufferFile::new(2, 16);
        lb.insert(Addr::new(0x100), 0);
        lb.insert(Addr::new(0x200), 0);
        lb.lookup(Addr::new(0x100), 8); // refresh 0x100 → 0x200 is LRU
        lb.insert(Addr::new(0x300), 0);
        assert!(lb.lookup(Addr::new(0x100), 8).is_some());
        assert!(lb.lookup(Addr::new(0x200), 8).is_none());
        assert!(lb.lookup(Addr::new(0x300), 8).is_some());
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut lb = LineBufferFile::new(0, 16);
        lb.insert(Addr::new(0x100), 0);
        assert_eq!(lb.lookup(Addr::new(0x100), 8), None);
    }

    #[test]
    fn invalidation_overlap_cases() {
        let mut lb = LineBufferFile::new(4, 16);
        lb.insert(Addr::new(0x100), 0);
        lb.insert(Addr::new(0x110), 0);
        lb.insert(Addr::new(0x120), 0);
        // A 32-byte invalidation (an evicted line) covering two chunks.
        assert_eq!(lb.invalidate_overlapping(Addr::new(0x100), 32), 2);
        assert!(lb.lookup(Addr::new(0x100), 8).is_none());
        assert!(lb.lookup(Addr::new(0x110), 8).is_none());
        assert!(lb.lookup(Addr::new(0x120), 8).is_some());
        // A 1-byte store inside the surviving chunk kills it.
        assert_eq!(lb.invalidate_overlapping(Addr::new(0x127), 1), 1);
        assert!(lb.lookup(Addr::new(0x120), 8).is_none());
    }

    #[test]
    fn reinsert_refreshes_and_keeps_earliest_ready() {
        let mut lb = LineBufferFile::new(2, 16);
        lb.insert(Addr::new(0x100), 50);
        lb.insert(Addr::new(0x100), 10);
        assert_eq!(lb.lookup(Addr::new(0x100), 8), Some(10));
        assert_eq!(
            lb.invalidate_overlapping(Addr::new(0x100), 16),
            1,
            "refreshed in place, not held twice"
        );
    }

    proptest! {
        /// After any interleaving of inserts and invalidations, a lookup
        /// never reports a chunk whose bytes were invalidated after its
        /// last insert.
        #[test]
        fn no_stale_hits(ops in prop::collection::vec((0u64..0x40, any::<bool>()), 1..200)) {
            let width = 16u64;
            let mut lb = LineBufferFile::new(4, width);
            let mut live: std::collections::HashSet<u64> = Default::default();
            for &(slot, is_insert) in &ops {
                let addr = Addr::new(slot * width);
                if is_insert {
                    lb.insert(addr, 0);
                    live.insert(addr.get());
                } else {
                    lb.invalidate_overlapping(addr, width);
                    live.remove(&addr.get());
                }
                // Hits must be a subset of live chunks (capacity may have
                // dropped live ones, so the converse need not hold).
                if lb.lookup(addr, 8).is_some() {
                    prop_assert!(live.contains(&addr.get()));
                }
            }
        }
    }
}
