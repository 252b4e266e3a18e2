//! LRU replacement: [`Replacement`] for the set-associative caches (one
//! set per index), and [`LruTable`], the one fully associative table
//! behind the line-buffer file, the victim cache and the TLBs.

/// LRU state for a whole structure: one recency stamp per way, in one
/// flat `sets × ways` array indexed like the structure's entries, plus
/// the clock that issues the stamps. Stamp 0 means never touched: such a
/// way is chosen before any touched way.
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

    /// Choose a victim way in `set`: the least recently touched (an
    /// untouched way first), the first way on ties.
    pub(crate) fn victim(&self, set: usize) -> usize {
        self.stamps[set * self.ways..(set + 1) * self.ways]
            .iter()
            .enumerate()
            .min_by_key(|&(_, stamp)| *stamp)
            .map(|(way, _)| way)
            .expect("sets have at least one way")
    }
}

/// One way of an [`LruTable`].
#[derive(Debug, Clone, Copy)]
struct Way<V> {
    key: u64,
    value: V,
    /// When the way was last touched; 0 while it holds nothing.
    stamp: u64,
}

/// A small fully associative table, LRU-replaced: each way holds a key, a
/// value and the stamp of its last use. A new key displaces the first
/// empty way, else the least recently used one.
#[derive(Debug, Clone)]
pub(crate) struct LruTable<V> {
    ways: Vec<Way<V>>,
    /// Issues the stamps; only their order matters.
    clock: u64,
}

impl<V: Copy + Default> LruTable<V> {
    /// An empty table of `ways` ways (0 makes an inert table its users
    /// guard with [`LruTable::is_empty`]).
    pub(crate) fn new(ways: usize) -> LruTable<V> {
        let (key, value, stamp) = (0, V::default(), 0);
        LruTable {
            ways: vec![Way { key, value, stamp }; ways],
            clock: 0,
        }
    }

    /// `true` when the table has no ways at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.ways.is_empty()
    }

    /// The way holding `key`, if any.
    fn holding(ways: &mut [Way<V>], key: u64) -> Option<&mut Way<V>> {
        ways.iter_mut().find(|way| way.key == key && way.stamp != 0)
    }

    /// The value held under `key`, if any, made the most recently used.
    pub(crate) fn touch(&mut self, key: u64) -> Option<&mut V> {
        let way = Self::holding(&mut self.ways, key)?;
        self.clock += 1;
        way.stamp = self.clock;
        Some(&mut way.value)
    }

    /// Hold `value` under `key`, which the table must not hold already,
    /// in the first empty way, else the least recently used one; returns
    /// the entry that way held.
    ///
    /// # Panics
    ///
    /// Panics when the table has no ways.
    pub(crate) fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        let way = self
            .ways
            .iter_mut()
            .min_by_key(|way| way.stamp)
            .expect("a table with ways");
        let displaced = (way.stamp != 0).then_some((way.key, way.value));
        self.clock += 1;
        let stamp = self.clock;
        *way = Way { key, value, stamp };
        displaced
    }

    /// Remove and return the value held under `key`, if any.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let way = Self::holding(&mut self.ways, key)?;
        way.stamp = 0;
        Some(way.value)
    }

    /// Remove every entry whose key satisfies `doomed`; returns how many.
    pub(crate) fn remove_where(&mut self, mut doomed: impl FnMut(u64) -> bool) -> usize {
        let mut removed = 0;
        for way in self.ways.iter_mut().filter(|way| way.stamp != 0) {
            if doomed(way.key) {
                way.stamp = 0;
                removed += 1;
            }
        }
        removed
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
    }

    #[test]
    fn a_table_fills_empty_ways_first_then_the_least_recent() {
        let mut t = LruTable::<u32>::new(3);
        assert_eq!(t.insert(0x10, 1), None);
        assert_eq!(t.insert(0x20, 2), None);
        assert_eq!(t.insert(0x30, 3), None);
        *t.touch(0x10).expect("held") += 10; // 0x20 is now least recent
        assert_eq!(t.insert(0x40, 4), Some((0x20, 2)));
        assert_eq!(t.touch(0x20), None);
        // A removed way is empty, so it fills before any held one.
        assert_eq!(t.remove(0x30), Some(3));
        assert_eq!(t.remove(0x30), None);
        assert_eq!(t.insert(0x50, 5), None);
        assert_eq!(t.insert(0x60, 6), Some((0x10, 11)));
        assert_eq!(t.remove_where(|key| key >= 0x50), 2);
        assert_eq!(t.touch(0x40).copied(), Some(4));
        assert!(!t.is_empty());
        assert!(LruTable::<()>::new(0).is_empty());
    }
}
