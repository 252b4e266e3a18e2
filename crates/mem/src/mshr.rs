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
/// further references touch the same line, and retired one by one by
/// [`MshrFile::pop_completed`] once their fill has arrived.
///
/// ```
/// use cpe_mem::{MshrFile, MshrResult};
///
/// let mut mshrs = MshrFile::new(2);
/// // The fill time is asked for only when an entry is allocated.
/// assert_eq!(mshrs.request(0, 0x100, false, || 20), MshrResult::Allocated(20));
/// assert_eq!(mshrs.request(5, 0x100, true, || unreachable!()), MshrResult::Merged(20));
/// assert_eq!(mshrs.request(2, 0x200, false, || 22), MshrResult::Allocated(22));
/// assert_eq!(mshrs.request(3, 0x300, false, || unreachable!()), MshrResult::Full);
/// assert_eq!(mshrs.pop_completed(19), None);
/// assert_eq!(mshrs.pop_completed(20), Some((0x100, true, 0))); // the merged store's data
/// assert_eq!(mshrs.pop_completed(20), None);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    /// Fills a cycle's first [`MshrFile::pop_completed`] retired from
    /// `entries`, as `(line_addr, dirty, allocated_at)`, highest line
    /// first so each pop is a `Vec::pop`. Drained within the cycle; the
    /// allocation (one slot per entry) persists.
    arrived: Vec<(u64, bool, Cycle)>,
    capacity: usize,
    /// The earliest `ready_at` among `entries` (`Cycle::MAX` when
    /// empty), so the skip bound and the per-cycle "anything arrived?"
    /// check are O(1).
    next_ready: Cycle,
}

impl MshrFile {
    /// An empty file with room for `capacity` outstanding lines.
    pub fn new(capacity: usize) -> MshrFile {
        MshrFile {
            entries: Vec::with_capacity(capacity),
            arrived: Vec::with_capacity(capacity),
            capacity,
            next_ready: Cycle::MAX,
        }
    }

    /// Track a miss to `line_addr`, requested at cycle `now`, in one scan
    /// of the file.
    ///
    /// When the line is already outstanding the reference merges (the
    /// earlier fill time and allocation cycle stand, and `write` marks
    /// the eventual fill dirty). Otherwise, when an entry is free, one is
    /// allocated whose fill arrives at the cycle `fetch` returns; `fetch`
    /// runs only then, so a merge or a full file sends nothing to the
    /// next level.
    pub fn request(
        &mut self,
        now: Cycle,
        line_addr: u64,
        write: bool,
        fetch: impl FnOnce() -> Cycle,
    ) -> MshrResult {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.line_addr == line_addr) {
            entry.dirty |= write;
            return MshrResult::Merged(entry.ready_at);
        }
        if self.entries.len() >= self.capacity {
            return MshrResult::Full;
        }
        let fill_at = fetch();
        self.entries.push(MshrEntry {
            line_addr,
            allocated_at: now,
            ready_at: fill_at,
            dirty: write,
        });
        self.next_ready = self.next_ready.min(fill_at);
        MshrResult::Allocated(fill_at)
    }

    /// Retire the entry with the lowest line address among those whose
    /// fill has arrived by `now`, returning `(line_addr, dirty,
    /// allocated_at)` for the caller to install (and account residency
    /// from the allocation cycle); `None` once none has arrived. Callers
    /// pop until `None` each cycle, installing the cycle's fills in
    /// address order, which keeps victim selection deterministic.
    #[inline]
    pub fn pop_completed(&mut self, now: Cycle) -> Option<(u64, bool, Cycle)> {
        if self.arrived.is_empty() {
            if self.next_ready > now {
                return None;
            }
            self.retire_arrived(now);
        }
        self.arrived.pop()
    }

    /// Move every fill that has arrived by `now` into `arrived`, in one
    /// pass that also finds the remaining entries' earliest fill.
    fn retire_arrived(&mut self, now: Cycle) {
        let mut next_ready = Cycle::MAX;
        let arrived = &mut self.arrived;
        self.entries.retain(|e| {
            if e.ready_at <= now {
                arrived.push((e.line_addr, e.dirty, e.allocated_at));
                false
            } else {
                next_ready = next_ready.min(e.ready_at);
                true
            }
        });
        self.next_ready = next_ready;
        // Line addresses are unique, so the order is total.
        arrived.sort_unstable_by_key(|&(line, _, _)| std::cmp::Reverse(line));
    }

    /// Earliest cycle at which any outstanding fill arrives, if one is
    /// outstanding. The CPU's cycle-skipping scheduler uses this to bound
    /// a skip: a fill must be installed by `begin_cycle` on exactly the
    /// cycle it becomes ready, so residency accounting and victim
    /// selection are unchanged by skipping.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        (self.next_ready != Cycle::MAX).then_some(self.next_ready)
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_retire_cycle() {
        let mut m = MshrFile::new(4);
        assert!(m.is_empty());
        assert_eq!(m.request(3, 0x40, false, || 10), MshrResult::Allocated(10));
        assert_eq!(m.next_ready_at(), Some(10));
        assert_eq!(m.request(4, 0x40, false, || 99), MshrResult::Merged(10));
        assert_eq!(m.pop_completed(9), None);
        assert_eq!(m.pop_completed(10), Some((0x40, false, 3)));
        assert_eq!(m.pop_completed(10), None);
        assert!(m.is_empty());
        // Retired, the line misses afresh.
        assert_eq!(m.request(11, 0x40, false, || 30), MshrResult::Allocated(30));
    }

    #[test]
    fn full_rejects_new_lines_but_still_merges() {
        let mut m = MshrFile::new(1);
        m.request(0, 0x40, false, || 10);
        assert_eq!(m.request(0, 0x80, false, || 10), MshrResult::Full);
        assert_eq!(m.request(1, 0x40, true, || 50), MshrResult::Merged(10));
    }

    #[test]
    fn write_merges_dirty_the_fill() {
        let mut m = MshrFile::new(2);
        m.request(0, 0x40, false, || 10);
        m.request(2, 0x40, true, || 12);
        m.request(1, 0x80, true, || 11);
        assert_eq!(drain(&mut m, 20), vec![(0x40, true, 0), (0x80, true, 1)]);
    }

    #[test]
    fn retirement_is_selective() {
        let mut m = MshrFile::new(4);
        m.request(5, 0x40, false, || 10);
        m.request(6, 0x80, false, || 20);
        assert_eq!(drain(&mut m, 15), vec![(0x40, false, 5)]);
        assert_eq!(m.len(), 1);
        // A clean merge reads the fill cycle and changes nothing.
        assert_eq!(
            m.request(15, 0x80, false, || unreachable!()),
            MshrResult::Merged(20)
        );
    }

    #[test]
    fn next_ready_at_tracks_the_earliest_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_ready_at(), None);
        m.request(0, 0x40, false, || 30);
        m.request(0, 0x80, false, || 10);
        assert_eq!(m.next_ready_at(), Some(10));
        drain(&mut m, 10);
        assert_eq!(m.next_ready_at(), Some(30));
        drain(&mut m, 30);
        assert_eq!(m.next_ready_at(), None);
    }

    #[test]
    fn arrived_fills_pop_in_address_order_whatever_their_arrival() {
        let mut m = MshrFile::new(4);
        m.request(0, 0x300, false, || 12);
        m.request(1, 0x100, true, || 14);
        m.request(2, 0x200, false, || 11);
        m.request(3, 0x400, false, || 20);
        assert_eq!(m.next_ready_at(), Some(11));
        assert_eq!(
            drain(&mut m, 14),
            vec![(0x100, true, 1), (0x200, false, 2), (0x300, false, 0)]
        );
        assert_eq!(m.next_ready_at(), Some(20));
        // A line allocated after a drain lowers the bound again.
        m.request(15, 0x500, false, || 16);
        assert_eq!(m.next_ready_at(), Some(16));
        assert_eq!(
            m.request(15, 0x400, false, || unreachable!()),
            MshrResult::Merged(20)
        );
    }

    #[test]
    fn only_an_allocation_asks_for_a_fill() {
        let mut m = MshrFile::new(1);
        let fetches = &std::cell::Cell::new(0);
        let fetch = |fill_at| {
            move || {
                fetches.set(fetches.get() + 1);
                fill_at
            }
        };
        assert_eq!(
            m.request(0, 0x40, false, fetch(10)),
            MshrResult::Allocated(10)
        );
        assert_eq!(m.request(1, 0x40, true, fetch(11)), MshrResult::Merged(10));
        assert_eq!(m.request(2, 0x80, false, fetch(12)), MshrResult::Full);
        assert_eq!(fetches.get(), 1);
    }

    /// Everything that has arrived by `now`, in pop order.
    fn drain(m: &mut MshrFile, now: Cycle) -> Vec<(u64, bool, Cycle)> {
        std::iter::from_fn(|| m.pop_completed(now)).collect()
    }
}
