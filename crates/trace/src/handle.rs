//! The handle the simulator threads through its hot paths.
//!
//! The cpu and mem crates store a [`TraceHandle`] and call
//! [`TraceHandle::emit`] unconditionally — no `cfg` noise at the
//! emission sites. The cost model:
//!
//! * feature `capture` off — the handle is a zero-sized unit and `emit`
//!   is an empty inline function: the whole mechanism compiles away and
//!   simulation output is bit-identical to a build that never heard of
//!   tracing;
//! * feature `capture` on, handle detached ([`TraceHandle::off`], the
//!   default) — `emit` is one branch on a `None`;
//! * feature `capture` on, handle attached — `emit` appends to the ring.
//!
//! Tracing never alters simulated timing in any mode; it only observes.

use crate::event::{EventKind, TraceEvent};
use crate::ring::RingStats;
#[cfg(feature = "capture")]
use crate::ring::Tracer;

#[cfg(feature = "capture")]
use std::cell::RefCell;
#[cfg(feature = "capture")]
use std::rc::Rc;

/// A cheap, clonable reference to a shared [`Tracer`](crate::Tracer) ring — or an inert
/// stand-in, depending on build mode and construction. Clones share the
/// same ring, which is how the cpu and mem sides interleave into one
/// chronological stream.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    #[cfg(feature = "capture")]
    tracer: Option<Rc<RefCell<Tracer>>>,
}

impl TraceHandle {
    /// `true` when this build can capture events (feature `capture`).
    pub const CAPTURE: bool = cfg!(feature = "capture");

    /// A detached handle: every `emit` is a no-op.
    pub fn off() -> TraceHandle {
        TraceHandle::default()
    }

    /// A handle backed by a fresh ring of `capacity` events; a capacity
    /// of 0 attaches no ring and is [`TraceHandle::off`]. Without the
    /// `capture` feature this is always indistinguishable from
    /// [`TraceHandle::off`].
    #[cfg(feature = "capture")]
    pub fn attached(capacity: usize) -> TraceHandle {
        TraceHandle {
            tracer: (capacity > 0).then(|| Rc::new(RefCell::new(Tracer::new(capacity)))),
        }
    }

    /// A handle backed by a fresh ring of `capacity` events; a capacity
    /// of 0 attaches no ring and is [`TraceHandle::off`]. Without the
    /// `capture` feature this is always indistinguishable from
    /// [`TraceHandle::off`].
    #[cfg(not(feature = "capture"))]
    pub fn attached(_capacity: usize) -> TraceHandle {
        TraceHandle::default()
    }

    /// `true` when emissions actually land in a ring.
    #[cfg(feature = "capture")]
    pub fn is_active(&self) -> bool {
        self.tracer.is_some()
    }

    /// `true` when emissions actually land in a ring.
    #[cfg(not(feature = "capture"))]
    pub fn is_active(&self) -> bool {
        false
    }

    /// Record one event. Inlined to nothing when capture is compiled out.
    /// With capture compiled in, a detached handle costs only the inlined
    /// `None` check; the ring write stays out of line.
    #[cfg(feature = "capture")]
    #[inline(always)]
    pub fn emit(&self, cycle: u64, kind: EventKind, addr: u64, arg: u32) {
        if let Some(tracer) = &self.tracer {
            Self::record(tracer, TraceEvent::new(cycle, kind, addr, arg));
        }
    }

    #[cfg(feature = "capture")]
    #[cold]
    #[inline(never)]
    fn record(tracer: &RefCell<Tracer>, event: TraceEvent) {
        tracer.borrow_mut().emit(event);
    }

    /// Record one event. Inlined to nothing when capture is compiled out.
    #[cfg(not(feature = "capture"))]
    #[inline(always)]
    pub fn emit(&self, _cycle: u64, _kind: EventKind, _addr: u64, _arg: u32) {}

    /// The retained events, oldest first — `None` for a detached handle
    /// (or any handle in a capture-less build).
    #[cfg(feature = "capture")]
    pub fn snapshot(&self) -> Option<Vec<TraceEvent>> {
        self.tracer.as_ref().map(|t| t.borrow().events())
    }

    /// The retained events, oldest first — `None` for a detached handle
    /// (or any handle in a capture-less build).
    #[cfg(not(feature = "capture"))]
    pub fn snapshot(&self) -> Option<Vec<TraceEvent>> {
        None
    }

    /// Ring occupancy/loss accounting — `None` when detached.
    #[cfg(feature = "capture")]
    pub fn ring_stats(&self) -> Option<RingStats> {
        self.tracer.as_ref().map(|t| t.borrow().stats())
    }

    /// Ring occupancy/loss accounting — `None` when detached.
    #[cfg(not(feature = "capture"))]
    pub fn ring_stats(&self) -> Option<RingStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handles_swallow_events() {
        let h = TraceHandle::off();
        h.emit(1, EventKind::Fetch, 0x40, 0);
        assert!(!h.is_active());
        assert!(h.snapshot().is_none());
        assert!(h.ring_stats().is_none());
    }

    #[test]
    fn zero_capacity_attaches_no_ring() {
        let h = TraceHandle::attached(0);
        h.emit(1, EventKind::Fetch, 0x40, 0);
        assert!(!h.is_active());
        assert!(h.snapshot().is_none());
        assert!(h.ring_stats().is_none());
    }

    #[cfg(feature = "capture")]
    #[test]
    fn clones_share_one_ring() {
        let a = TraceHandle::attached(16);
        let b = a.clone();
        a.emit(1, EventKind::Fetch, 0x40, 0);
        b.emit(2, EventKind::Commit, 0x44, 0);
        let events = a.snapshot().expect("attached");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Fetch);
        assert_eq!(events[1].kind, EventKind::Commit);
        assert!(a.is_active() && TraceHandle::CAPTURE);
    }

    #[cfg(not(feature = "capture"))]
    #[test]
    fn captureless_builds_have_inert_attached_handles() {
        let h = TraceHandle::attached(16);
        h.emit(1, EventKind::Fetch, 0x40, 0);
        assert!(!h.is_active());
        assert!(h.snapshot().is_none());
        assert!(!TraceHandle::CAPTURE);
    }
}
