//! Miss-status holding registers (lockup-free cache support).

use crate::Cycle;

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrResult {
    /// A miss to this line is already outstanding; the new reference merged
    /// into it and will complete at the given cycle.
    Merged(Cycle),
    /// A new entry was allocated, completing at the given cycle.
    Allocated(Cycle),
    /// No entry free — the reference must retry.
    Full,
}

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line_addr: u64,
    /// Cycle the entry was allocated — retirement reports it so the
    /// caller can account the miss's full residency.
    allocated_at: Cycle,
    ready_at: Cycle,
    /// Fill installs dirty (a store missed and its data is parked here).
    dirty: bool,
}

/// The file of outstanding misses for one cache.
///
/// Entries are allocated when a miss leaves for the next level, merged when
/// further references touch the same line, and retired by
/// [`MshrFile::take_completed`] once their fill has arrived.
///
/// ```
/// use cpe_mem::{MshrFile, MshrResult};
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.request(0, 0x100, 20, false), MshrResult::Allocated(20));
/// assert_eq!(mshrs.request(5, 0x100, 25, true), MshrResult::Merged(20));
/// assert_eq!(mshrs.request(2, 0x200, 22, false), MshrResult::Allocated(22));
/// assert_eq!(mshrs.request(3, 0x300, 23, false), MshrResult::Full);
/// let done = mshrs.take_completed(20);
/// assert_eq!(done, vec![(0x100, true, 0)]); // dirty: the merged store's data
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    merges: u64,
}

impl MshrFile {
    /// An empty file with room for `capacity` outstanding lines.
    pub fn new(capacity: usize) -> MshrFile {
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merges: 0,
        }
    }

    /// Track a miss to `line_addr`, requested at cycle `now`, whose fill
    /// would arrive at `fill_at`.
    ///
    /// When the line is already outstanding the reference merges (the
    /// earlier fill time and allocation cycle stand, and `write` marks
    /// the eventual fill dirty). `fill_at` is ignored on a merge —
    /// callers get the authoritative completion cycle in the result.
    pub fn request(
        &mut self,
        now: Cycle,
        line_addr: u64,
        fill_at: Cycle,
        write: bool,
    ) -> MshrResult {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.line_addr == line_addr) {
            entry.dirty |= write;
            self.merges += 1;
            return MshrResult::Merged(entry.ready_at);
        }
        if self.entries.len() >= self.capacity {
            return MshrResult::Full;
        }
        self.entries.push(MshrEntry {
            line_addr,
            allocated_at: now,
            ready_at: fill_at,
            dirty: write,
        });
        MshrResult::Allocated(fill_at)
    }

    /// The completion cycle of an outstanding miss to `line_addr`, if any.
    pub fn lookup(&self, line_addr: u64) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|e| e.line_addr == line_addr)
            .map(|e| e.ready_at)
    }

    /// Retire every entry whose fill has arrived by `now`, returning
    /// `(line_addr, dirty, allocated_at)` triples for the caller to
    /// install (and account residency from the allocation cycle).
    pub fn take_completed(&mut self, now: Cycle) -> Vec<(u64, bool, Cycle)> {
        // Most stepped cycles install nothing: skip the retain and sort.
        if !self.entries.iter().any(|e| e.ready_at <= now) {
            return Vec::new();
        }
        let mut done = Vec::new();
        self.entries.retain(|e| {
            if e.ready_at <= now {
                done.push((e.line_addr, e.dirty, e.allocated_at));
                false
            } else {
                true
            }
        });
        // Install in arrival order for deterministic victim selection.
        done.sort_by_key(|&(line, _, _)| line);
        done
    }

    /// Earliest cycle at which any outstanding fill arrives, if one is
    /// outstanding. The CPU's cycle-skipping scheduler uses this to bound
    /// a skip: a fill must be installed by `begin_cycle` on exactly the
    /// cycle it becomes ready, so residency accounting and victim
    /// selection are unchanged by skipping.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.ready_at).min()
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no further line can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Total number of merged (secondary) references.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_retire_cycle() {
        let mut m = MshrFile::new(4);
        assert!(m.is_empty());
        assert_eq!(m.request(3, 0x40, 10, false), MshrResult::Allocated(10));
        assert_eq!(m.lookup(0x40), Some(10));
        assert_eq!(m.request(4, 0x40, 99, false), MshrResult::Merged(10));
        assert_eq!(m.merges(), 1);
        assert!(m.take_completed(9).is_empty());
        assert_eq!(m.take_completed(10), vec![(0x40, false, 3)]);
        assert!(m.is_empty());
        assert_eq!(m.lookup(0x40), None);
    }

    #[test]
    fn full_rejects_new_lines_but_still_merges() {
        let mut m = MshrFile::new(1);
        m.request(0, 0x40, 10, false);
        assert!(m.is_full());
        assert_eq!(m.request(0, 0x80, 10, false), MshrResult::Full);
        assert_eq!(m.request(1, 0x40, 50, true), MshrResult::Merged(10));
    }

    #[test]
    fn write_merges_dirty_the_fill() {
        let mut m = MshrFile::new(2);
        m.request(0, 0x40, 10, false);
        m.request(2, 0x40, 12, true);
        m.request(1, 0x80, 11, true);
        let done = m.take_completed(20);
        assert_eq!(done, vec![(0x40, true, 0), (0x80, true, 1)]);
    }

    #[test]
    fn retirement_is_selective() {
        let mut m = MshrFile::new(4);
        m.request(5, 0x40, 10, false);
        m.request(6, 0x80, 20, false);
        assert_eq!(m.take_completed(15), vec![(0x40, false, 5)]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(0x80), Some(20));
    }

    #[test]
    fn next_ready_at_tracks_the_earliest_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_ready_at(), None);
        m.request(0, 0x40, 30, false);
        m.request(0, 0x80, 10, false);
        assert_eq!(m.next_ready_at(), Some(10));
        m.take_completed(10);
        assert_eq!(m.next_ready_at(), Some(30));
        m.take_completed(30);
        assert_eq!(m.next_ready_at(), None);
    }
}
