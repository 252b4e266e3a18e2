//! `cpe-mem` — the memory-hierarchy timing model for the cache-port
//! efficiency simulation suite.
//!
//! This crate is the subject of the reproduced paper (Wilson, Olukotun,
//! Rosenblum, ISCA '96): a level-one data cache whose **port** is the scarce
//! resource, together with the structures the paper proposes for making a
//! single port behave like two:
//!
//! * true multi-porting ([`PortConfig::count`]) — the expensive baseline;
//! * **wide ports** ([`PortConfig::width_bytes`]) with **load combining**
//!   (two loads to one aligned chunk share an access);
//! * **line buffers** ([`LineBufferConfig`]) — "load-all": a port access
//!   deposits its whole chunk in a small buffer file next to the load/store
//!   unit, and later loads that hit a buffer consume no port at all;
//! * a **store buffer** ([`StoreBufferConfig`]) that holds committed stores
//!   and drains them through port slots left idle by loads, optionally
//!   **write-combining** stores to the same chunk.
//!
//! Around that sit the supporting levels: a single-ported instruction cache,
//! a unified L2, a fill bus with finite bandwidth, and a fixed-latency DRAM.
//! Caches model tags, state and timing only — architectural data values live
//! in the functional emulator (`cpe-cpu`), which is the usual split for
//! trace-driven timing simulation.
//!
//! # Cycle protocol
//!
//! The CPU drives [`MemSystem`] in three phases each cycle:
//!
//! 1. [`MemSystem::begin_cycle`] — completed misses install their lines and
//!    port slots reset;
//! 2. any number of [`MemSystem::try_load`] / [`MemSystem::commit_store`] /
//!    [`MemSystem::fetch`] calls — loads have absolute priority for slots;
//! 3. [`MemSystem::end_cycle`] — the store buffer drains into whatever
//!    slots the loads left idle.
//!
//! # Example
//!
//! ```
//! use cpe_mem::{MemConfig, MemSystem, Addr, LoadOutcome};
//!
//! let mut mem = MemSystem::new(MemConfig::default());
//! mem.begin_cycle(0);
//! match mem.try_load(0, Addr::new(0x1000), 8) {
//!     LoadOutcome::Ready { at, .. } => assert!(at > 0), // cold miss: data later
//!     other => panic!("unexpected {other:?}"),
//! }
//! mem.end_cycle(0);
//! ```

mod addr;
mod cache;
mod config;
mod dcache;
mod icache;
mod l2;
mod line_buffer;
mod mshr;
mod replacement;
mod stats;
mod store_buffer;
mod system;
mod tlb;
mod victim;

pub use addr::Addr;
pub use cache::{Cache, ProbeResult};
pub use config::{
    CacheGeometry, Latencies, LineBufferConfig, MemConfig, PortConfig, StoreBufferConfig,
    WritePolicy,
};
pub use dcache::{DCache, LoadOutcome, LoadSource, StoreOutcome};
pub use icache::{FetchOutcome, ICache};
pub use l2::Backside;
pub use line_buffer::LineBufferFile;
pub use mshr::{MshrFile, MshrResult};
pub use stats::MemStats;
pub use store_buffer::{ForwardResult, StoreBuffer, StoreEntry};
pub use system::{MemDiagnostics, MemSystem};
pub use tlb::{Tlb, TlbConfig};
pub use victim::VictimCache;

/// Simulation time, in processor clock cycles.
pub type Cycle = u64;
