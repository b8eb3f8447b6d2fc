//! # terra-eval
//!
//! The staged-evaluation engine of terra-rs: a Lua interpreter whose
//! evaluation *is* the staging of Terra code, exactly as in *Terra: A
//! Multi-Stage Language for High-Performance Computing* (PLDI 2013).
//!
//! - Evaluating a `terra` definition **eagerly specializes** it in the
//!   shared lexical environment ([`spec`]): escapes run, Lua values splice
//!   in as constants, and Terra variables are hygienically renamed.
//! - Calling a Terra function from Lua **lazily typechecks, links, and
//!   compiles** it and its connected component ([`typecheck`]) to `terra-vm`
//!   bytecode, then crosses the FFI boundary.
//! - Terra types are Lua values with a reflection API (`t:ispointer()`,
//!   struct `entries`/`methods`/`metamethods`), so class systems and data
//!   layouts are user libraries.
//!
//! ```
//! use terra_eval::Interp;
//! # fn main() -> Result<(), terra_eval::LuaError> {
//! let mut terra = Interp::new();
//! terra.exec("terra add1(x : int) : int return x + 1 end")?;
//! let out = terra.exec("return add1(41)")?;
//! assert!(matches!(out[0], terra_eval::LuaValue::Number(n) if n == 42.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod context;
mod env;
mod error;
mod interp;
mod reflect;
pub mod spec;
mod stdlib;
pub mod typecheck;
mod value;

pub use context::{Context, FuncMeta, GlobalMeta, StructMeta};
pub use env::Env;
pub use error::{EvalResult, LuaError, LuaErrorData, Phase};
pub use interp::{Flow, Interp};
pub use value::{Intrinsic, LuaValue, SymbolData, SymbolRef, Table, TableRef};
