//! # terra-ir
//!
//! The Terra type system and typed intermediate representation.
//!
//! Terra (DeVito et al., PLDI 2013) is a statically-typed, C-like language
//! staged from Lua. This crate holds the pieces of it that are independent of
//! staging: machine types with C layout rules ([`Ty`], [`TypeRegistry`]), the
//! typed IR that the typechecker lowers specialized Terra functions into
//! ([`IrFunction`]), and the mid-end optimization pipeline ([`passes`]) —
//! constant folding, algebraic simplification, copy propagation, unrolling,
//! address reassociation, LICM, inlining, dead-code elimination and check
//! elision, orchestrated by a pass manager
//! ([`optimize`]) selected by [`OptLevel`].
//!
//! The `terra-vm` crate compiles [`IrFunction`]s to bytecode; the
//! `terra-eval` crate produces them from source. The [`analysis`] module
//! verifies and lints IR between those stages.

#![warn(missing_docs)]

pub mod analysis;
mod display;
mod ir;
pub mod passes;
mod types;

pub use analysis::{
    analyze_function, analyze_function_with, summarize, verify_function, Diagnostic, EnvEntry,
    ModuleEnv, NoEnv, Severity, Summaries,
};
pub use display::dump_function;
pub use ir::{
    BinKind, Builtin, BuiltinInfo, CTy, Callee, CmpKind, Effect, ExprKind, FuncId, GlobalCell,
    GlobalId, IrExpr, IrFunction, IrStmt, Lib, LocalId, LocalSlot, StmtKind, UnKind,
};
pub use passes::fold::fold_expr;
pub use passes::util::direct_calls;
pub use passes::{
    optimize, optimized, InlineEnv, NoInline, OptLevel, PassConfig, PassRun, PassStats, Remark,
    RemarkKind, MAX_CALLEE_NODES, MAX_CALLER_GROWTH, MAX_UNROLL_GROWTH,
};
pub use types::{Field, FuncTy, ScalarTy, StructId, StructLayout, Ty, TyDisplay, TypeRegistry};
