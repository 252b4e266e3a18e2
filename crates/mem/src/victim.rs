//! A victim cache (Jouppi-style).
//!
//! A small fully associative buffer holding the last few lines evicted
//! from the L1. A miss that hits the victim cache swaps the line back in
//! for one extra cycle instead of paying the full L2/DRAM round trip —
//! the era's standard remedy for conflict misses in low-associativity
//! caches, and a useful companion to the port techniques (it reduces the
//! misses the ports would otherwise idle on). Disabled by default.

use crate::replacement::Replacement;
use crate::{Addr, Cycle};

#[derive(Debug, Clone, Copy)]
struct Slot {
    line_addr: u64,
    dirty: bool,
    valid: bool,
}

/// The victim buffer: fully associative, FIFO-by-insertion.
#[derive(Debug, Clone)]
pub struct VictimCache {
    slots: Vec<Slot>,
    lru: Replacement,
    hits: u64,
}

impl VictimCache {
    /// A buffer holding up to `entries` evicted lines (0 disables).
    pub fn new(entries: usize) -> VictimCache {
        VictimCache {
            slots: vec![
                Slot {
                    line_addr: 0,
                    dirty: false,
                    valid: false
                };
                entries
            ],
            lru: Replacement::new(1, entries),
            hits: 0,
        }
    }

    /// Remove and return the line containing `addr`, if buffered. The
    /// returned flag is the line's dirtiness.
    pub fn take(&mut self, line: Addr) -> Option<bool> {
        let way = self.position(line)?;
        self.slots[way].valid = false;
        self.lru.forget(0, way);
        self.hits += 1;
        Some(self.slots[way].dirty)
    }

    /// The valid slot holding `line`, if any.
    fn position(&self, line: Addr) -> Option<usize> {
        self.slots
            .iter()
            .position(|slot| slot.valid && slot.line_addr == line.get())
    }

    /// Buffer an evicted line. Returns a displaced `(line_addr, dirty)`
    /// pair the caller must write back when dirty.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Option<(u64, bool)> {
        if self.slots.is_empty() {
            // No victim cache: the line passes straight through.
            return Some((line.get(), dirty));
        }
        // Re-inserting a resident line just refreshes it.
        if let Some(way) = self.position(line) {
            self.slots[way].dirty |= dirty;
            self.lru.touch(0, way);
            return None;
        }
        let way = self.lru.victim(0);
        let slot = &mut self.slots[way];
        let displaced = slot.valid.then_some((slot.line_addr, slot.dirty));
        *slot = Slot {
            line_addr: line.get(),
            dirty,
            valid: true,
        };
        self.lru.touch(0, way);
        displaced
    }

    /// Lines currently buffered.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|slot| slot.valid).count()
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
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
        assert_eq!(v.occupancy(), 0);
        assert_eq!(v.hits(), 1);
    }

    #[test]
    fn displacement_is_fifo_and_returns_the_old_line() {
        let mut v = VictimCache::new(2);
        v.insert(Addr::new(0x100), false);
        v.insert(Addr::new(0x200), true);
        let displaced = v.insert(Addr::new(0x300), false);
        assert_eq!(displaced, Some((0x100, false)));
        assert_eq!(v.occupancy(), 2);
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
        assert_eq!(v.occupancy(), 1);
        assert_eq!(v.take(Addr::new(0x100)), Some(true));
    }
}
