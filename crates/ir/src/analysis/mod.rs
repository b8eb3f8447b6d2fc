//! Static analysis over the typed IR: a type-consistency verifier, dataflow
//! lints, and a forward abstract interpreter.
//!
//! The staging pipeline (typecheck → fold → compile) trusts each stage's
//! output; this module makes that trust checkable. The verifier re-derives
//! the type of every expression from operand rules and rejects IR whose
//! annotations disagree, the dataflow passes warn about suspicious-but-legal
//! programs (use before initialization, dead stores, unreachable code), and
//! the abstract interpreter (`absint`) catches memory and arithmetic errors
//! that are certain at stage time before they reach the VM — and proves the
//! optimizer's check elisions with the same walk.
//!
//! Analyses are pure: they never mutate the function. Context they can't
//! derive from the function itself comes from two optional sources — a
//! [`TypeRegistry`] for struct layouts and sizes, and a [`ModuleEnv`] for
//! the signatures behind `FuncId`/`GlobalId` references. Passing `None` /
//! [`NoEnv`] skips exactly the checks that need them, so the verifier can
//! run in contexts (like the constant folder's self-check) that don't have
//! the whole program at hand.

pub(crate) mod absint;
mod dataflow;
pub mod range;
mod verify;

use crate::ir::{FuncId, GlobalId, IrFunction};
use crate::types::{FuncTy, Ty, TypeRegistry};
use std::sync::Arc;
use terra_syntax::{Provenance, Span};

pub use absint::{summarize, Summaries};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The IR is inconsistent and must not be compiled.
    Error,
    /// The IR is valid but the program is probably wrong.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// One analysis finding, anchored to a statement span and a function.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `"type-mismatch"`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Source location of the offending statement (synthetic when the
    /// statement was compiler-generated).
    pub span: Span,
    /// Name of the function the finding is in.
    pub function: Arc<str>,
    /// Staging chain of the offending statement, when it was produced by a
    /// `quote` splice or macro (`None` for code written inline). Rendering
    /// without a chain is byte-identical to the pre-provenance format.
    pub prov: Option<Provenance>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {} (in '{}'",
            self.severity, self.code, self.message, self.function
        )?;
        if self.span.line > 0 {
            write!(f, ", line {}", self.span.line)?;
        }
        if let Some(p) = &self.prov {
            write!(f, ", generated {}", p.describe())?;
        }
        f.write_str(")")
    }
}

/// What a [`ModuleEnv`] knows about a referenced id.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvEntry<T> {
    /// The id is valid and has this signature/type.
    Known(T),
    /// The id may be valid but its signature isn't available; checks that
    /// need it are skipped.
    Opaque,
    /// The id does not exist — referencing it is an IR error.
    Invalid,
}

/// Module-level context for verification: what function and global ids
/// resolve to. Implemented by the evaluator (full signatures) and the VM
/// compiler (whatever the program table knows).
pub trait ModuleEnv {
    /// Signature of function `id`.
    fn function_sig(&self, id: FuncId) -> EnvEntry<FuncTy> {
        let _ = id;
        EnvEntry::Opaque
    }

    /// Value type of global `id`.
    fn global_ty(&self, id: GlobalId) -> EnvEntry<Ty> {
        let _ = id;
        EnvEntry::Opaque
    }

    /// The [`index_range`](IrFunction::index_range) function `id` claims, if
    /// its IR is at hand and it is a `parallelfor` kernel that claims one.
    fn kernel_index_range(&self, id: FuncId) -> Option<(i64, i64)> {
        let _ = id;
        None
    }
}

/// Environment that knows nothing; every id-dependent check is skipped.
pub struct NoEnv;

impl ModuleEnv for NoEnv {}

/// Checks type consistency of `f`, returning the first error found.
///
/// This is the cheap gate run throughout the pipeline: after lowering,
/// after folding, and (in debug builds) before bytecode compilation.
pub fn verify_function(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
) -> Result<(), Diagnostic> {
    let mut diags = Vec::new();
    verify::run(f, types, env, &mut diags);
    match diags.into_iter().next() {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

/// Runs every analysis over `f`: the verifier, the dataflow passes
/// (use-before-init, dead stores, unreachable code, missing return), and the
/// abstract interpreter's definite-bug lints (object sizes need a registry).
///
/// Findings come back ordered errors-first.
pub fn analyze_function(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
) -> Vec<Diagnostic> {
    analyze_function_with(f, types, env, None)
}

/// [`analyze_function`] plus interprocedural context: when `sums` is
/// available the abstract interpreter refines call returns through it and
/// checks call sites against callee access demands.
pub fn analyze_function_with(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
    sums: Option<&Summaries>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    verify::run(f, types, env, &mut diags);
    if diags.is_empty() {
        // Dataflow and lints assume type-consistent IR.
        dataflow::run(f, &mut diags);
        absint::lint(f, types, env, sums, &mut diags);
    }
    diags.sort_by_key(|d| match d.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
    });
    diags
}

pub(crate) fn diag(
    f: &IrFunction,
    severity: Severity,
    code: &'static str,
    span: Span,
    message: String,
) -> Diagnostic {
    Diagnostic {
        severity,
        code,
        message,
        span,
        function: f.name.clone(),
        prov: None,
    }
}
