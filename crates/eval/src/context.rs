//! The staging context: everything shared between Lua evaluation, Terra
//! specialization, typechecking, and execution.
//!
//! This is the concrete realization of the stores in the paper's Terra Core:
//! the function store `F` (here [`terra_vm::Program`]'s function table plus
//! per-function staging metadata), the type registry, globals, and the
//! symbol generator that implements hygiene.

use crate::error::LuaError;
use crate::spec::SpecFunc;
use crate::value::{SymbolData, SymbolRef, Table, TableRef};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use terra_ir::{FuncId, FuncTy, GlobalId, StructId, Ty, TypeRegistry};
use terra_syntax::Name;
use terra_vm::ExecutionContext;

/// Staging metadata for one Terra function.
#[derive(Debug)]
pub struct FuncMeta {
    /// Function name (diagnostics).
    pub name: Rc<str>,
    /// The eagerly-specialized body; `None` while only declared.
    pub spec: Option<Rc<SpecFunc>>,
    /// Signature, cached by the first (lazy) typecheck.
    pub sig: Option<FuncTy>,
    /// Marker for in-progress signature inference (recursion detection).
    pub checking: bool,
    /// Lowered IR, cached between inference and compilation.
    pub ir: Option<terra_ir::IrFunction>,
    /// Terra functions this function references (the connected component
    /// edge set used for lazy linking, paper Fig. 4).
    pub deps: Vec<FuncId>,
}

/// A Terra global variable.
#[derive(Debug, Clone)]
pub struct GlobalMeta {
    /// Value type.
    pub ty: Ty,
    /// Absolute address of the cell in program memory.
    pub addr: u64,
    /// Name (diagnostics).
    pub name: Rc<str>,
}

/// Reflection tables attached to a struct type (paper §4.1 "Mechanisms for
/// type reflection"): `entries` describes the layout and may be mutated
/// until first use; `methods` maps names to Terra functions; `metamethods`
/// holds `__cast`, `__finalizelayout`, etc.
#[derive(Debug, Clone)]
pub struct StructMeta {
    /// Layout entries: a list of `{field=…, type=…}` tables.
    pub entries: TableRef,
    /// Method table.
    pub methods: TableRef,
    /// Metamethod table.
    pub metamethods: TableRef,
}

/// Shared state of a Lua-Terra session.
#[derive(Debug)]
pub struct Context {
    /// Struct layouts.
    pub types: TypeRegistry,
    /// The execution context: compiled code (shared, immutable
    /// [`terra_vm::Program`]) plus all mutable run state — linear memory,
    /// registers, call stack, and profile counters.
    pub exec: ExecutionContext,
    /// Per-function staging metadata, indexed by [`FuncId`].
    pub funcs: Vec<FuncMeta>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<GlobalMeta>,
    /// Reflection tables, indexed by [`StructId`].
    pub structs: Vec<StructMeta>,
    next_symbol: u64,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Context {
            types: TypeRegistry::new(),
            exec: ExecutionContext::new(),
            funcs: Vec::new(),
            globals: Vec::new(),
            structs: Vec::new(),
            next_symbol: 0,
        }
    }

    /// Generates a fresh symbol (hygienic rename or user `symbol()`).
    pub fn fresh_symbol(&mut self, name: impl Into<Name>, ty: Option<Ty>) -> SymbolRef {
        self.next_symbol += 1;
        Rc::new(SymbolData {
            id: self.next_symbol,
            name: name.into(),
            ty: RefCell::new(ty),
            addr_taken: Cell::new(false),
        })
    }

    /// Declares a Terra function (`tdecl`): allocates its id.
    pub fn declare_func(&mut self, name: impl Into<Rc<str>>) -> FuncId {
        let name = name.into();
        let id = self.exec.declare(&*name);
        self.funcs.push(FuncMeta {
            name,
            spec: None,
            sig: None,
            checking: false,
            ir: None,
            deps: Vec::new(),
        });
        id
    }

    /// Attaches a specialized body to a declared function. Returns `false`
    /// if the function already has a definition (definitions are
    /// write-once).
    pub fn define_func(&mut self, id: FuncId, spec: Rc<SpecFunc>) -> bool {
        let meta = &mut self.funcs[id.0 as usize];
        if meta.spec.is_some() {
            return false;
        }
        meta.spec = Some(spec);
        true
    }

    /// Declares a new struct type with empty reflection tables.
    pub fn new_struct(&mut self, name: impl Into<Rc<str>>) -> StructId {
        let id = self.types.declare_struct(&*name.into());
        self.structs.push(StructMeta {
            entries: Rc::new(RefCell::new(Table::new())),
            methods: Rc::new(RefCell::new(Table::new())),
            metamethods: Rc::new(RefCell::new(Table::new())),
        });
        id
    }

    /// Creates a global variable cell of the given type.
    ///
    /// # Errors
    ///
    /// Fails when Terra memory cannot hold a value of the type.
    pub fn new_global(
        &mut self,
        name: impl Into<Rc<str>>,
        ty: Ty,
        init: Option<&[u8]>,
    ) -> Result<GlobalId, LuaError> {
        let size = ty.size(&self.types);
        let Some(addr) = self.exec.alloc_global(size, init) else {
            return Err(LuaError::msg(format!(
                "global: cannot allocate {size} bytes of Terra memory"
            )));
        };
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(GlobalMeta {
            ty,
            addr,
            name: name.into(),
        });
        Ok(id)
    }

    /// Absolute addresses of all globals (what the bytecode compiler needs).
    pub fn global_addrs(&self) -> Vec<u64> {
        self.globals.iter().map(|g| g.addr).collect()
    }

    /// The reflection metadata of a struct.
    pub fn struct_meta(&self, id: StructId) -> &StructMeta {
        &self.structs[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_unique() {
        let mut ctx = Context::new();
        let a = ctx.fresh_symbol("x", None);
        let b = ctx.fresh_symbol("x", None);
        assert_ne!(a.id, b.id);
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn function_definition_is_write_once() {
        let mut ctx = Context::new();
        let id = ctx.declare_func("f");
        let spec = Rc::new(SpecFunc {
            name: "f".into(),
            params: vec![],
            ret: Some(Ty::Unit),
            body: Rc::new([]),
            span: terra_syntax::Span::synthetic(),
        });
        assert!(ctx.define_func(id, spec.clone()));
        assert!(!ctx.define_func(id, spec));
    }

    #[test]
    fn struct_reflection_tables_exist() {
        let mut ctx = Context::new();
        let id = ctx.new_struct("Complex");
        let meta = ctx.struct_meta(id);
        assert!(meta.entries.borrow().is_empty());
        assert!(meta.methods.borrow().is_empty());
    }

    #[test]
    fn globals_allocate_memory() {
        let mut ctx = Context::new();
        let g = ctx
            .new_global("gv", Ty::F64, Some(&2.5f64.to_le_bytes()))
            .unwrap();
        let addr = ctx.globals[g.0 as usize].addr;
        assert_eq!(ctx.exec.memory.load_f64(addr).unwrap(), 2.5);
        assert_eq!(ctx.global_addrs(), vec![addr]);
    }
}
