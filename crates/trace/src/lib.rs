//! `cpe-trace` — the observability substrate of the cache-port
//! efficiency suite.
//!
//! The simulator's headline claims are *attribution* claims: every
//! data-cache port slot either serves a reference, is saved by a
//! buffering/combining technique, or is wasted. This crate records that
//! attribution cycle by cycle as a stream of compact [`TraceEvent`]s:
//!
//! * the cpu/mem crates hold a [`TraceHandle`] and emit events from
//!   their pipeline stages and port-arbitration paths;
//! * events land in a fixed-size [`Tracer`] ring (oldest overwritten,
//!   loss counted — see [`RingStats`]);
//! * the retained window renders as Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]) for visual timelines and scripting, or as
//!   per-instruction Konata lifecycles ([`konata_text`]) for a pipeline
//!   viewer.
//!
//! Capture is feature-gated: without the `capture` feature the handle is
//! a zero-sized no-op and the simulator's emission sites compile away
//! entirely, so a tracing-disabled build is bit-identical in timing *and*
//! in generated code to one that predates this crate. See
//! `docs/OBSERVABILITY.md` for the event taxonomy and overhead notes.

mod event;
mod handle;
mod pipeview;
mod ring;
mod sink;

pub use event::{
    EventKind, TraceEvent, PORT_GRANT_L1_HIT, PORT_GRANT_MISS, PORT_GRANT_MISS_MERGED,
    PORT_GRANT_VICTIM_HIT,
};
pub use handle::TraceHandle;
pub use pipeview::{
    build_records, konata_text, validate_konata, InstRecord, KonataSummary, KONATA_HEADER,
};
pub use ring::{RingStats, Tracer};
pub use sink::chrome_trace_json;
