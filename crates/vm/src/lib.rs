//! # terra-vm
//!
//! The execution backend for Terra code: a bytecode compiler over the typed
//! IR from `terra-ir`, and a register-machine interpreter with linear memory,
//! 8-byte register slots (a 256-bit SIMD-style vector register is four of
//! them), and a simulated libc.
//!
//! The paper JIT-compiles Terra through LLVM; this crate plays that role in a
//! dependency-free way. What matters for the reproduction is preserved:
//! compiled functions run **separately from the meta-language** (no Lua state
//! is reachable from [`Program`]), function ids are allocated at declaration
//! and defined exactly once (supporting the paper's lazy linking of mutually
//! recursive functions), vector instructions perform multiple lanes of work
//! per dispatch (so vectorization pays off like SIMD does), and `prefetch`
//! issues real cache hints against the VM's memory.
//!
//! The crate is split down the middle between **immutable compiled
//! artifacts** — [`Program`], shared via `Arc` — and **mutable run state** —
//! [`ExecutionContext`], which is `Send` and owns the registers, call
//! stack, [`Memory`], and profile counters. `parallelfor` (the
//! [`parallel`] module) exploits the split by giving each worker thread its
//! own context over the shared program.

#![warn(missing_docs)]

mod bytecode;
mod cache;
mod compile;
mod exec;
mod machine;
mod memory;
mod observer;
pub mod parallel;
mod printf;
mod program;

pub use bytecode::{
    decode_func_ptr, encode_func_ptr, slots_of, Addr, BytecodeError, CompiledFunction, Instr,
    IntWidth, Reg, MAX_SLOTS, MNEMONICS, NO_REG, VECTOR_SLOTS,
};
pub use compile::{compile, try_compile};
pub use exec::ExecutionContext;
pub use machine::{decode_value, encode_arg, ExecResult, RegImage, Trap, TrapKind, Vm};
pub use memory::{MemError, MemKind, MemResult, Memory};
pub use printf::format_printf;
pub use program::{OutputSink, Program, Value};
pub use terra_trace as trace;
