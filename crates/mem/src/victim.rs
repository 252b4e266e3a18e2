//! A victim cache (Jouppi-style).
//!
//! A small fully associative buffer holding the last few lines evicted
//! from the L1. A miss that hits the victim cache swaps the line back in
//! for one extra cycle instead of paying the full L2/DRAM round trip —
//! the era's standard remedy for conflict misses in low-associativity
//! caches, and a useful companion to the port techniques (it reduces the
//! misses the ports would otherwise idle on). Disabled by default.

use crate::replacement::LruTable;
use crate::{Addr, Cycle};

/// The victim buffer: fully associative, LRU-replaced. Lines leave by
/// `take` or by displacement, so the least recently inserted goes first.
#[derive(Debug, Clone)]
pub struct VictimCache {
    /// Each buffered line's address and dirtiness.
    lines: LruTable<bool>,
}

impl VictimCache {
    /// A buffer holding up to `entries` evicted lines (0 disables).
    pub fn new(entries: usize) -> VictimCache {
        VictimCache {
            lines: LruTable::new(entries),
        }
    }

    /// Remove and return the line containing `addr`, if buffered. The
    /// returned flag is the line's dirtiness.
    pub fn take(&mut self, line: Addr) -> Option<bool> {
        self.lines.remove(line.get())
    }

    /// Buffer an evicted line. Returns a displaced `(line_addr, dirty)`
    /// pair the caller must write back when dirty.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Option<(u64, bool)> {
        if self.lines.is_empty() {
            // No victim cache: the line passes straight through.
            return Some((line.get(), dirty));
        }
        // Re-inserting a resident line refreshes it, merging dirtiness.
        if let Some(held) = self.lines.touch(line.get()) {
            *held |= dirty;
            return None;
        }
        self.lines.insert(line.get(), dirty)
    }

    /// Cycles a victim-cache swap adds over an ordinary L1 hit.
    pub const SWAP_LATENCY: Cycle = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_removes_and_reports_dirtiness() {
        let mut v = VictimCache::new(2);
        assert_eq!(v.insert(Addr::new(0x100), true), None);
        assert_eq!(v.take(Addr::new(0x100)), Some(true));
        assert_eq!(v.take(Addr::new(0x100)), None, "taken lines leave");
    }

    #[test]
    fn displacement_is_fifo_and_returns_the_old_line() {
        let mut v = VictimCache::new(2);
        v.insert(Addr::new(0x100), false);
        v.insert(Addr::new(0x200), true);
        let displaced = v.insert(Addr::new(0x300), false);
        assert_eq!(displaced, Some((0x100, false)));
        assert!(v.take(Addr::new(0x200)).is_some());
        assert!(v.take(Addr::new(0x300)).is_some());
    }

    #[test]
    fn zero_entry_buffer_passes_lines_through() {
        let mut v = VictimCache::new(0);
        assert_eq!(v.insert(Addr::new(0x100), true), Some((0x100, true)));
        assert_eq!(v.take(Addr::new(0x100)), None);
    }

    #[test]
    fn reinsert_refreshes_and_merges_dirtiness() {
        let mut v = VictimCache::new(2);
        v.insert(Addr::new(0x100), false);
        assert_eq!(v.insert(Addr::new(0x100), true), None);
        assert_eq!(v.take(Addr::new(0x100)), Some(true));
        assert_eq!(v.take(Addr::new(0x100)), None, "held once, not twice");
    }
}
