//! The immutable compiled program: a function table shared by contexts.
//!
//! The function table realizes the formal semantics' Terra function store
//! `F`: ids are allocated at *declaration* time (so mutually recursive
//! functions can reference each other) and filled in by *definition*.
//! Definition is write-once — the paper's monotonicity guarantee.
//!
//! A `Program` holds **no run state**: no memory, no output, no counters.
//! It is the read-only half of the VM's split — one `Arc<Program>` can be
//! shared by any number of [`ExecutionContext`](crate::ExecutionContext)s,
//! including `parallelfor` workers on other threads. Everything mutable
//! (registers, call stack, heap, profile counters, trap state) lives in the
//! context. Staging mutates the program through `Arc::make_mut`, which is
//! cheap while the meta-program is the sole owner and impossible to race:
//! parallel regions hold their own clones of the `Arc` for their whole
//! lifetime, so a concurrent definition would copy-on-write rather than
//! mutate shared storage.

use crate::bytecode::{encode_func_ptr, CompiledFunction};
use crate::machine::{Raised, TrapKind};
use std::sync::Arc;
use terra_ir::FuncId;

/// A scalar value crossing the Lua↔Terra FFI boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// No value (unit return).
    Unit,
    /// Any integer type (canonically extended).
    Int(i64),
    /// `float` or `double`.
    Float(f64),
    /// `bool`.
    Bool(bool),
    /// A pointer into program memory.
    Ptr(u64),
    /// A Terra function pointer.
    Func(FuncId),
}

impl Value {
    /// Raw register bit pattern for this value.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Unit => 0,
            Value::Int(v) => v as u64,
            Value::Float(v) => v.to_bits(),
            Value::Bool(b) => b as u64,
            Value::Ptr(p) => p,
            Value::Func(f) => encode_func_ptr(f),
        }
    }

    /// The value as an `f64`, if it is numeric.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            Value::Bool(b) => Some(b as i64 as f64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is numeric.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Float(v) => Some(v as i64),
            Value::Bool(b) => Some(b as i64),
            _ => None,
        }
    }
}

/// Where `printf` output goes.
#[derive(Debug, Default)]
pub enum OutputSink {
    /// Forward to the process stdout.
    #[default]
    Stdout,
    /// Capture into a buffer (used by tests, the REPL, and `parallelfor`
    /// workers, whose captures are re-emitted in chunk order).
    Capture(String),
}

/// The immutable half of the VM: declared names and compiled bodies.
///
/// Cloning is shallow — function bodies are behind `Arc`s — which is what
/// makes `Arc::make_mut` staging updates cheap.
#[derive(Debug, Clone, Default)]
pub struct Program {
    funcs: Vec<Option<Arc<CompiledFunction>>>,
    names: Vec<Arc<str>>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Reserves a function id (the semantics' `tdecl`).
    pub fn declare(&mut self, name: impl Into<Arc<str>>) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        self.names.push(name.into());
        id
    }

    /// Fills in a declared function (the semantics' `ter e(x:T):T { e }`).
    ///
    /// # Panics
    ///
    /// Panics if the id is already defined — Terra functions can be defined
    /// but never *re*defined.
    pub fn define(&mut self, id: FuncId, f: CompiledFunction) {
        let slot = &mut self.funcs[id.0 as usize];
        assert!(
            slot.is_none(),
            "function '{}' is already defined",
            self.names[id.0 as usize]
        );
        *slot = Some(Arc::new(f));
    }

    /// Looks up a defined function.
    #[inline]
    pub fn function(&self, id: FuncId) -> Option<&Arc<CompiledFunction>> {
        self.funcs.get(id.0 as usize).and_then(|f| f.as_ref())
    }

    /// The compiled body of `id`, or the trap for calling a function that
    /// was declared but never defined. Always inlined: every call asks, and
    /// only the trap is worth a call.
    #[inline(always)]
    pub(crate) fn defined(&self, id: FuncId) -> Raised<&Arc<CompiledFunction>> {
        self.function(id).ok_or_else(|| self.undefined(id))
    }

    #[cold]
    fn undefined(&self, id: FuncId) -> TrapKind {
        TrapKind::Undefined(self.name(id).to_string())
    }

    /// Whether the id has been defined (not just declared).
    pub fn is_defined(&self, id: FuncId) -> bool {
        self.function(id).is_some()
    }

    /// The declared name of a function id.
    pub fn name(&self, id: FuncId) -> &str {
        self.names
            .get(id.0 as usize)
            .map(|n| &**n)
            .unwrap_or("<unknown>")
    }

    /// Number of declared functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether no functions have been declared.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terra_ir::{FuncTy, Ty};

    fn dummy(name: &str) -> CompiledFunction {
        let ty = FuncTy {
            params: vec![],
            ret: Ty::Unit,
        };
        let ret = crate::bytecode::Instr::Ret {
            s: crate::bytecode::NO_REG,
            w: 0,
        };
        crate::bytecode::compiled(name, ty, 0, vec![ret])
    }

    #[test]
    fn declare_then_define() {
        let mut p = Program::new();
        let id = p.declare("f");
        assert!(!p.is_defined(id));
        p.define(id, dummy("f"));
        assert!(p.is_defined(id));
        assert_eq!(p.name(id), "f");
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn redefinition_panics() {
        let mut p = Program::new();
        let id = p.declare("f");
        p.define(id, dummy("f"));
        p.define(id, dummy("f"));
    }

    #[test]
    fn clone_is_shallow() {
        let mut p = Program::new();
        let id = p.declare("f");
        p.define(id, dummy("f"));
        let q = p.clone();
        assert!(Arc::ptr_eq(
            p.function(id).unwrap(),
            q.function(id).unwrap()
        ));
    }

    #[test]
    fn value_bit_conversions() {
        assert_eq!(Value::Int(-1).to_bits(), u64::MAX);
        assert_eq!(Value::Float(1.5).to_bits(), 1.5f64.to_bits());
        assert_eq!(Value::Bool(true).to_bits(), 1);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_i64(), Some(2));
        assert_eq!(Value::Ptr(7).as_f64(), None);
    }
}
