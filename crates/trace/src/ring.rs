//! The fixed-size event ring.

use crate::event::TraceEvent;

/// Occupancy and loss accounting for a [`Tracer`] ring — the numbers the
/// self-profiling line reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Events emitted over the run (kept or not).
    pub emitted: u64,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// Highest occupancy the ring reached.
    pub peak: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Events currently held.
    pub len: usize,
}

/// A bounded ring of [`TraceEvent`]s: emission is O(1) and never
/// allocates after construction; when full, the oldest event is
/// overwritten and counted as dropped. The tail of a run is always
/// retained — for attribution work the *latest* window is the
/// interesting one.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    wrapped: bool,
    emitted: u64,
    dropped: u64,
    peak: usize,
}

impl Tracer {
    /// A ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// When `capacity` is 0 — a run that keeps no events attaches no ring
    /// ([`TraceHandle::attached`](crate::TraceHandle::attached)).
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "a trace ring needs room for one event");
        Tracer {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            wrapped: false,
            emitted: 0,
            dropped: 0,
            peak: 0,
        }
    }

    /// Record one event.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        self.emitted += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(event);
            self.peak = self.peak.max(self.ring.len());
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if !self.wrapped {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Occupancy and loss accounting.
    pub fn stats(&self) -> RingStats {
        RingStats {
            emitted: self.emitted,
            dropped: self.dropped,
            peak: self.peak,
            capacity: self.capacity,
            len: self.ring.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::new(cycle, EventKind::Commit, 0x1000 + cycle, 0)
    }

    #[test]
    fn retains_everything_under_capacity() {
        let mut t = Tracer::new(8);
        for c in 0..5 {
            t.emit(ev(c));
        }
        let events: Vec<u64> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(events, vec![0, 1, 2, 3, 4]);
        let s = t.stats();
        assert_eq!((s.emitted, s.dropped, s.peak, s.len), (5, 0, 5, 5));
    }

    #[test]
    fn wraps_keeping_the_newest_tail() {
        let mut t = Tracer::new(4);
        for c in 0..10 {
            t.emit(ev(c));
        }
        let events: Vec<u64> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(events, vec![6, 7, 8, 9], "oldest overwritten first");
        let s = t.stats();
        assert_eq!((s.emitted, s.dropped, s.peak), (10, 6, 4));
    }
}
