//! LRU replacement, shared by the caches (one set per index) and the
//! fully associative TLB, line-buffer file and victim cache (one set).

/// LRU state for a whole structure: one recency stamp per way, in one
/// flat `sets × ways` array indexed like the structure's entries, plus
/// the clock that issues the stamps. Stamp 0 means never touched (or
/// forgotten): such a way is chosen before any touched way.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    ways: usize,
    /// Monotone stamps; smaller = used longer ago. One clock serves
    /// every set: only the order of stamps within a set matters.
    stamps: Vec<u64>,
    clock: u64,
}

impl Replacement {
    pub(crate) fn new(sets: usize, ways: usize) -> Replacement {
        Replacement {
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    /// Record an allocation into, or a hit on, `way` of `set`.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// Mark `way` of `set` invalid, so it reads as never touched.
    pub(crate) fn forget(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    /// Forget every way of every set.
    pub(crate) fn forget_all(&mut self) {
        self.stamps.fill(0);
    }

    /// Choose a victim way in `set`: the least recently touched (a
    /// forgotten way first), the first way on ties.
    pub(crate) fn victim(&self, set: usize) -> usize {
        self.stamps[set * self.ways..(set + 1) * self.ways]
            .iter()
            .enumerate()
            .min_by_key(|&(_, stamp)| *stamp)
            .map(|(way, _)| way)
            .expect("sets have at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut r = Replacement::new(2, 4);
        for way in 0..4 {
            r.touch(1, way);
        }
        r.touch(1, 0); // way 0 becomes most recent; way 1 is now oldest
        assert_eq!(r.victim(1), 1);
        r.touch(1, 1);
        assert_eq!(r.victim(1), 2);
        // Set 0 is untouched by set 1's traffic: all stamps tie at 0 and
        // the first way wins.
        assert_eq!(r.victim(0), 0);
        // A forgotten way goes first; the first of several wins.
        r.forget(1, 3);
        r.forget(1, 2);
        assert_eq!(r.victim(1), 2);
        r.forget_all();
        assert_eq!(r.victim(1), 0);
    }
}
