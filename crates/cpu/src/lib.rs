//! `cpe-cpu` — the dynamic superscalar processor model.
//!
//! This crate supplies the two halves of a trace-driven simulation of an
//! MXS-class out-of-order machine (the processor model of the reproduced
//! ISCA '96 paper):
//!
//! * [`Emulator`] — a **functional** interpreter of `cpe-isa` programs that
//!   produces the committed execution path as a stream of
//!   [`cpe_isa::DynInst`] records (effective addresses, branch outcomes,
//!   privilege mode);
//! * [`Core`] — a **cycle-level timing model** that consumes such a stream:
//!   fetch with branch prediction (bimodal/gshare + BTB + return-address
//!   stack) and instruction-cache timing, register renaming into a reorder
//!   buffer, an issue window with per-class functional units, a load/store
//!   queue with store-to-load forwarding and oracle memory
//!   disambiguation, and in-order commit that retires stores into the
//!   memory system's store buffer.
//!
//! The memory side lives in `cpe-mem`; the [`Core`] owns a
//! [`cpe_mem::MemSystem`] and drives its per-cycle port protocol, which is
//! where the paper's single-port techniques earn their keep.
//!
//! # Example
//!
//! ```
//! use cpe_cpu::{Core, CpuConfig, Emulator};
//! use cpe_isa::asm::assemble;
//! use cpe_mem::{MemConfig, MemSystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "main: li a0, 100\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n halt\n",
//! )?;
//! let trace = Emulator::new(program);
//! let core = Core::new(CpuConfig::default(), MemSystem::new(MemConfig::default()), trace);
//! let result = core.try_run(None)?;
//! assert!(result.committed > 300);
//! assert!(result.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

pub mod bpred;
mod config;
mod core;
mod cpi;
mod fu;
mod lsq;
mod rob;
mod sched;
mod stats;
mod watchdog;

pub use config::{CpuConfig, DirPredictorKind, FuConfig, FuSpec};
pub use core::{Core, SimResult};
pub use cpi::{CpiStack, StallCause};
// The functional emulator lives with the ISA semantics in `cpe-isa`;
// re-exported here because it is one half of every simulation.
pub use cpe_isa::{EmuError, Emulator, SparseMem};
pub use fu::FuPool;
pub use rob::WaitKind;
pub use stats::CpuStats;
pub use watchdog::WatchdogReport;
