//! `cpe-isa` — the miniature RISC instruction set used by the cache-port
//! efficiency simulation suite.
//!
//! The ISCA '96 paper this workspace reproduces ("Increasing Cache Port
//! Efficiency for Dynamic Superscalar Microprocessors", Wilson, Olukotun and
//! Rosenblum) evaluates its techniques on *real applications*, not synthetic
//! traces. To preserve that property without a MIPS toolchain, this crate
//! defines a small 64-bit load/store architecture together with a two-pass
//! assembler, so workloads can be written as genuine programs with real
//! dataflow, loops and branches.
//!
//! # Overview
//!
//! * [`Reg`] — a unified register name space: 32 integer registers
//!   (`x0`..`x31`, with `x0` hard-wired to zero) and 32 floating-point
//!   registers (`f0`..`f31`).
//! * [`Op`] — every opcode the machine understands, queryable for its
//!   [`OpClass`] (ALU, load, store, branch, ...).
//! * [`Inst`] — one decoded instruction: opcode, registers and immediate.
//! * [`encode`]/[`decode`] — a fixed 64-bit binary encoding with lossless
//!   round-tripping, exercised by property tests.
//! * [`asm`] — the assembler: text in, [`Program`] out.
//! * [`Program`] — assembled text, initialised data and the symbol table.
//! * [`replay`] — the compact record-once / replay-many trace format
//!   behind the replay execution backend.
//!
//! # Example
//!
//! ```
//! use cpe_isa::asm::assemble;
//!
//! # fn main() -> Result<(), cpe_isa::asm::AsmError> {
//! let program = assemble(
//!     r#"
//!     .text
//!     main:
//!         li   a0, 10
//!         li   a1, 0
//!     loop:
//!         add  a1, a1, a0
//!         addi a0, a0, -1
//!         bne  a0, zero, loop
//!         halt
//!     "#,
//! )?;
//! assert_eq!(program.text.len(), 6);
//! # Ok(())
//! # }
//! ```

pub mod asm;
mod emu;
mod encode;
mod inst;
mod op;
mod program;
mod reg;
pub mod replay;
mod trace;

pub use emu::{syscalls, EmuError, Emulator, SparseMem};
pub use encode::{decode, encode, DecodeError};
pub use inst::Inst;
pub use op::{MemWidth, Op, OpClass};
pub use program::{
    Program, DATA_BASE, INST_BYTES, KERNEL_DATA_BASE, KERNEL_TEXT_BASE, STACK_TOP, TEXT_BASE,
};
pub use reg::Reg;
pub use trace::{DynInst, Mode};
