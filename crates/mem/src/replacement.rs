//! Within-set replacement policies.

use std::fmt;

/// Which line a set evicts when it needs room.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way.
    #[default]
    Lru,
    /// Evict ways in allocation order, ignoring use.
    Fifo,
    /// Evict a pseudo-random way (deterministic xorshift stream, so runs
    /// are reproducible).
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
        })
    }
}

/// Replacement state for a whole cache: one priority stamp per way, in
/// one flat `sets × ways` array indexed like the cache's tag array, plus
/// the policy's clock and (for [`ReplacementPolicy::Random`]) one
/// xorshift state per set.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    policy: ReplacementPolicy,
    ways: usize,
    /// Monotone stamps; smaller = evict earlier (for LRU/FIFO). One clock
    /// serves every set: only the order of stamps within a set matters.
    stamps: Vec<u64>,
    clock: u64,
    /// Per-set xorshift states; empty unless the policy is Random.
    rng: Vec<u64>,
}

impl Replacement {
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Replacement {
        let rng = if policy == ReplacementPolicy::Random {
            (0..sets as u64)
                // Distinct deterministic seed per set; xorshift state
                // must be nonzero.
                .map(|set| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(set + 1) | 1)
                .collect()
        } else {
            Vec::new()
        };
        Replacement {
            policy,
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
            rng,
        }
    }

    /// Record an allocation into `way` of `set`.
    pub(crate) fn on_fill(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// Record a hit on `way` of `set`.
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.on_fill(set, way);
        }
    }

    /// Choose a victim way in `set` (all ways full).
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.stamps
                [set * self.ways..(set + 1) * self.ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, stamp)| *stamp)
                .map(|(way, _)| way)
                .expect("sets have at least one way"),
            ReplacementPolicy::Random => {
                // xorshift64
                let rng = &mut self.rng[set];
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                (*rng % self.ways as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut r = Replacement::new(ReplacementPolicy::Lru, 2, 4);
        for way in 0..4 {
            r.on_fill(1, way);
        }
        r.on_hit(1, 0); // way 0 becomes most recent; way 1 is now oldest
        assert_eq!(r.victim(1), 1);
        r.on_hit(1, 1);
        assert_eq!(r.victim(1), 2);
        // Set 0 is untouched by set 1's traffic: all stamps tie at 0 and
        // the first way wins.
        assert_eq!(r.victim(0), 0);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = Replacement::new(ReplacementPolicy::Fifo, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        r.on_hit(0, 0);
        r.on_hit(0, 0);
        assert_eq!(
            r.victim(0),
            0,
            "FIFO must evict the oldest fill despite hits"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = Replacement::new(ReplacementPolicy::Random, 8, 4);
        let mut b = Replacement::new(ReplacementPolicy::Random, 8, 4);
        for round in 0..100 {
            let set = round % 8;
            let (va, vb) = (a.victim(set), b.victim(set));
            assert_eq!(va, vb);
            assert!(va < 4);
        }
        // Each set draws from its own seed.
        let streams: Vec<Vec<usize>> = (0..2)
            .map(|set| {
                let mut r = Replacement::new(ReplacementPolicy::Random, 2, 4);
                (0..16).map(|_| r.victim(set)).collect()
            })
            .collect();
        assert_ne!(streams[0], streams[1]);
    }

    #[test]
    fn random_eventually_covers_all_ways() {
        let mut r = Replacement::new(ReplacementPolicy::Random, 4, 4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.victim(3)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all ways should be chosen eventually"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
    }
}
