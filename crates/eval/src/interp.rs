//! The Lua interpreter (the `→L` judgment of Terra Core).
//!
//! A tree-walking evaluator for the Lua dialect, extended with the Terra
//! staging constructs: evaluating a `terra` definition eagerly specializes
//! it (LTDEFN), evaluating a `quote` specializes a quotation (LTQUOTE), and
//! calling a Terra function from Lua triggers lazy typechecking +
//! compilation and crosses the FFI boundary (LTAPP).

use crate::context::Context;
use crate::env::Env;
use crate::error::{EvalResult, LuaError, Phase};
use crate::reflect;
use crate::spec::{lua_to_spec, SpecExpr, SpecExprKind, SpecFunc, SpecQuote, Specializer};
use crate::value::{LuaClosure, LuaValue, Table, TableRef};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use terra_ir::{FuncId, FuncTy, ScalarTy, StructId, Ty};
use terra_syntax::{
    BinOp, Block, LuaExpr, LuaStmt, Name, Slot, Span, StructEntry, TableItem, TerraFuncDef, UnOp,
};
use terra_vm::{OutputSink, Value};

/// Control flow escaping a Lua block.
pub enum Flow {
    /// Fell through.
    Normal,
    /// `break`
    Break,
    /// `return v1, v2, …`
    Return(Vec<LuaValue>),
}

/// Host stack that nested Lua calls may take, counted from the outermost
/// one: half of a 2 MiB thread (Rust's default for a spawned thread), which
/// leaves the other half to what runs above that call and below the
/// innermost (the typechecker, the VM). A call past it is a "lua stack
/// overflow" error. The depth this allows is the budget over the host stack
/// one Lua call takes, whatever the build profile makes that: 3.5 KB in
/// release and 18.7 KB in debug, so 297 and 56 calls (EXPERIMENTS.md A18).
const LUA_STACK_BUDGET: usize = 1 << 20;

/// An evaluated assignment target: what is left to do is the store.
enum Place<'a> {
    Var(&'a Name, Slot),
    Index(LuaValue, LuaValue, Span),
}

/// The combined Lua-Terra interpreter and staging engine.
pub struct Interp {
    /// Shared staging state (types, program, VM, function metadata).
    pub ctx: Context,
    /// The global table: every name no enclosing scope declares.
    pub globals: HashMap<Name, LuaValue>,
    /// Lua calls in progress, and where the host stack was at the outermost.
    depth: usize,
    stack_base: usize,
    /// Registered modules for `require`.
    pub modules: HashMap<String, LuaValue>,
    /// Sources registered for `require` but not yet loaded.
    pub module_sources: HashMap<String, String>,
    /// When set, every function compiled from here on is also run through
    /// the full IR analysis suite (dataflow + bounds lints) and the
    /// resulting warnings accumulate in [`Interp::diagnostics`].
    pub lint: bool,
    /// Warnings collected by lint mode; drain with [`Interp::take_diagnostics`].
    pub diagnostics: Vec<terra_ir::Diagnostic>,
    /// Mid-end optimization level applied when functions are compiled.
    /// Changing it affects functions compiled after the change; already-
    /// compiled functions keep their code.
    pub opt: terra_ir::OptLevel,
    /// Whether the `-O2` pipeline may elide the checks the abstract
    /// interpreter proves redundant — bounds checks, narrow-integer wraps
    /// (`--no-checkelim` clears it). Functions compiled while the sanitizer
    /// is on are compiled without, and the VM ignores elided bounds checks
    /// at runtime under it.
    pub elide_checks: bool,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Creates an interpreter with the standard library installed.
    pub fn new() -> Self {
        let mut interp = Interp {
            ctx: Context::new(),
            globals: HashMap::new(),
            depth: 0,
            stack_base: 0,
            modules: HashMap::new(),
            module_sources: HashMap::new(),
            lint: false,
            diagnostics: Vec::new(),
            opt: terra_ir::OptLevel::default(),
            elide_checks: true,
        };
        crate::stdlib::install(&mut interp);
        interp
    }

    /// Takes the warnings accumulated by lint mode (see [`Interp::lint`]).
    pub fn take_diagnostics(&mut self) -> Vec<terra_ir::Diagnostic> {
        std::mem::take(&mut self.diagnostics)
    }

    /// Captures Terra/Lua `print`/`printf` output instead of writing stdout.
    pub fn capture_output(&mut self) {
        self.ctx.exec.output = OutputSink::Capture(String::new());
    }

    /// Takes captured output.
    pub fn take_output(&mut self) -> String {
        self.ctx.exec.take_output()
    }

    /// Parses and evaluates a combined Lua-Terra chunk. Returns the chunk's
    /// return values (empty if it does not return).
    ///
    /// # Errors
    ///
    /// Propagates syntax errors, Lua runtime errors, and staging errors.
    pub fn exec(&mut self, src: &str) -> EvalResult<Vec<LuaValue>> {
        let t0 = self.ctx.exec.trace.now_us();
        let block = terra_syntax::parse(src)?;
        self.ctx
            .exec
            .trace
            .record(terra_trace::Stage::Parse, "chunk", t0);
        match self.eval_block(&block, &Env::new())? {
            Flow::Return(vs) => Ok(vs),
            _ => Ok(Vec::new()),
        }
    }

    /// Looks up a global variable.
    pub fn global(&self, name: &str) -> LuaValue {
        self.globals.get(name).cloned().unwrap_or(LuaValue::Nil)
    }

    /// Sets a global variable.
    pub fn set_global(&mut self, name: &str, v: LuaValue) {
        self.globals.insert(Rc::from(name), v);
    }

    // -----------------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------------

    /// Evaluates a block. If the block declares variables, its scope opens
    /// just before the first declaring statement; a block that declares
    /// nothing runs in `env` itself.
    pub fn eval_block(&mut self, block: &Block, env: &Env) -> EvalResult<Flow> {
        Ok(self.eval_block_in(block, env)?.0)
    }

    /// [`Interp::eval_block`], also returning the scope the block opened
    /// (`repeat … until` evaluates its condition there).
    fn eval_block_in(&mut self, block: &Block, env: &Env) -> EvalResult<(Flow, Option<Env>)> {
        if block.nslots == 0 {
            return Ok((self.eval_stmts(&block.stmts, env)?, None));
        }
        let (head, tail) = block.stmts.split_at(block.scope_at as usize);
        match self.eval_stmts(head, env)? {
            Flow::Normal => {}
            flow => return Ok((flow, None)),
        }
        let scope = env.child(block.nslots.into());
        let flow = self.eval_stmts(tail, &scope)?;
        Ok((flow, Some(scope)))
    }

    fn eval_stmts(&mut self, stmts: &[LuaStmt], env: &Env) -> EvalResult<Flow> {
        for stmt in stmts {
            match self.eval_stmt(stmt, env)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn eval_stmt(&mut self, stmt: &LuaStmt, env: &Env) -> EvalResult<Flow> {
        match stmt {
            LuaStmt::Local {
                names,
                exprs,
                span: _,
            } => {
                if let ([_], [e]) = (names.as_slice(), exprs.as_slice()) {
                    let v = self.eval_expr(e, env)?;
                    env.declare(v);
                } else {
                    for v in self.eval_exprlist(exprs, env, names.len())? {
                        env.declare(v);
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::Assign { targets, exprs, .. } => {
                if let ([t], [e]) = (targets.as_slice(), exprs.as_slice()) {
                    let v = self.eval_expr(e, env)?;
                    let place = self.eval_place(t, env)?;
                    self.store(place, v, env)?;
                } else {
                    let values = self.eval_exprlist(exprs, env, targets.len())?;
                    // Every target's table and key are evaluated before the
                    // first store: `i, t[i] = i + 1, 20` writes `t[old i]`.
                    let places = targets
                        .iter()
                        .map(|t| self.eval_place(t, env))
                        .collect::<EvalResult<Vec<_>>>()?;
                    for (place, v) in places.into_iter().zip(values) {
                        self.store(place, v, env)?;
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::Expr(e) => {
                self.eval_expr_multi(e, env)?;
                Ok(Flow::Normal)
            }
            LuaStmt::Do(b) => self.eval_block(b, env),
            LuaStmt::While { cond, body } => {
                while self.eval_expr(cond, env)?.truthy() {
                    match self.eval_block(body, env)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::Repeat { body, cond } => {
                loop {
                    let (flow, scope) = self.eval_block_in(body, env)?;
                    match flow {
                        Flow::Normal => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if self
                        .eval_expr(cond, scope.as_ref().unwrap_or(env))?
                        .truthy()
                    {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::If { arms, else_body } => {
                for (cond, body) in arms {
                    if self.eval_expr(cond, env)?.truthy() {
                        return self.eval_block(body, env);
                    }
                }
                if let Some(body) = else_body {
                    return self.eval_block(body, env);
                }
                Ok(Flow::Normal)
            }
            LuaStmt::NumericFor {
                var: _,
                start,
                stop,
                step,
                body,
            } => {
                let start = self.expect_number(start, env)?;
                let stop = self.expect_number(stop, env)?;
                let step = match step {
                    Some(e) => self.expect_number(e, env)?,
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(LuaError::msg("'for' step is zero"));
                }
                // Each iteration gets a fresh scope — the loop variable, then
                // the body's locals — because closures capture per-iteration
                // variables; the allocation is reused when nothing did.
                let mut scope = env.child(body.nslots.into());
                let mut i = start;
                while (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                    scope.declare(LuaValue::Number(i));
                    match self.eval_stmts(&body.stmts, &scope)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    i += step;
                    if !scope.recycle() {
                        scope = env.child(body.nslots.into());
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::GenericFor { vars, exprs, body } => {
                let mut vals = self.eval_exprlist(exprs, env, 3)?;
                let ctrl0 = vals.pop().unwrap_or(LuaValue::Nil);
                let state = vals.pop().unwrap_or(LuaValue::Nil);
                let func = vals.pop().unwrap_or(LuaValue::Nil);
                let mut control = ctrl0;
                loop {
                    let mut rets = self.call_value(
                        func.clone(),
                        vec![state.clone(), control.clone()],
                        Span::synthetic(),
                    )?;
                    let first = rets.first().cloned().unwrap_or(LuaValue::Nil);
                    if matches!(first, LuaValue::Nil) {
                        break;
                    }
                    control = first;
                    // The iterator's results become the iteration scope's
                    // first slots: the loop variables.
                    rets.resize(vars.len(), LuaValue::Nil);
                    rets.reserve(usize::from(body.nslots).saturating_sub(vars.len()));
                    let scope = env.child_with(rets);
                    match self.eval_stmts(&body.stmts, &scope)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            LuaStmt::FunctionDecl {
                path,
                base,
                method,
                body,
                span,
            } => {
                let (name, full): (String, Vec<Name>) = match method {
                    Some(m) => (
                        format!("{}:{}", path.join("."), m),
                        path.iter().cloned().chain([m.clone()]).collect(),
                    ),
                    None => (path.join("."), path.to_vec()),
                };
                let closure = LuaValue::Function(Rc::new(LuaClosure {
                    body: body.clone(),
                    env: env.clone(),
                    name: RefCell::new(Rc::from(name.as_str())),
                }));
                self.assign_path(&full, *base, closure, env, *span)?;
                Ok(Flow::Normal)
            }
            LuaStmt::LocalFunction { name, body } => {
                // The closure captures the scope its own slot is about to
                // join, so the body can recurse.
                env.declare(LuaValue::Function(Rc::new(LuaClosure {
                    body: body.clone(),
                    env: env.clone(),
                    name: RefCell::new(name.clone()),
                })));
                Ok(Flow::Normal)
            }
            LuaStmt::Return { exprs, .. } => {
                let vs = self.eval_exprlist_exact(exprs, env)?;
                Ok(Flow::Return(vs))
            }
            LuaStmt::Break(_) => Ok(Flow::Break),
            LuaStmt::TerraDef {
                path,
                base,
                method,
                def,
                is_local,
                span,
            } => {
                self.eval_terra_def(path, *base, method.as_ref(), def, *is_local, env, *span)?;
                Ok(Flow::Normal)
            }
            LuaStmt::StructDef {
                path,
                base,
                entries,
                is_local,
                span,
            } => {
                let name: Rc<str> = Rc::from(path.join(".").as_str());
                let ty = self.eval_struct_def(&name, entries, env)?;
                if *is_local && path.len() == 1 {
                    env.declare(LuaValue::Type(ty));
                } else {
                    self.assign_path(path, *base, LuaValue::Type(ty), env, *span)?;
                }
                Ok(Flow::Normal)
            }
        }
    }

    /// Reads a variable; `None` only for a global that was never assigned.
    pub(crate) fn lookup(&self, name: &Name, slot: Slot, env: &Env) -> Option<LuaValue> {
        match slot {
            Slot::Local { hops, index } => Some(env.get(hops, index)),
            Slot::Global => self.globals.get(name).cloned(),
        }
    }

    fn set_var(&mut self, name: &Name, slot: Slot, v: LuaValue, env: &Env) {
        match slot {
            Slot::Local { hops, index } => env.set(hops, index, v),
            Slot::Global => {
                self.globals.insert(name.clone(), v);
            }
        }
    }

    fn eval_place<'a>(&mut self, target: &'a LuaExpr, env: &Env) -> EvalResult<Place<'a>> {
        match target {
            LuaExpr::Var(n, slot, _) => Ok(Place::Var(n, *slot)),
            LuaExpr::Index { obj, index, span } => {
                let o = self.eval_expr(obj, env)?;
                let k = self.eval_expr(index, env)?;
                Ok(Place::Index(o, k, *span))
            }
            other => Err(LuaError::at(
                "cannot assign to this expression",
                other.span(),
            )),
        }
    }

    fn store(&mut self, place: Place, v: LuaValue, env: &Env) -> EvalResult<()> {
        match place {
            Place::Var(n, slot) => {
                self.set_var(n, slot, v, env);
                Ok(())
            }
            Place::Index(o, k, span) => self.setindex_value(&o, k, v, span),
        }
    }

    /// Assigns to `a.b.c`; `base` is where `a` lives.
    fn assign_path(
        &mut self,
        path: &[Name],
        base: Slot,
        v: LuaValue,
        env: &Env,
        span: Span,
    ) -> EvalResult<()> {
        if let [name] = path {
            self.set_var(name, base, v, env);
            return Ok(());
        }
        let mut obj = self
            .lookup(&path[0], base, env)
            .ok_or_else(|| LuaError::at(format!("undefined variable '{}'", path[0]), span))?;
        for part in &path[1..path.len() - 1] {
            obj = self.index_value(&obj, &LuaValue::Str(part.clone()), span)?;
        }
        self.setindex_value(&obj, LuaValue::Str(path[path.len() - 1].clone()), v, span)
    }

    // -----------------------------------------------------------------------
    // Terra definitions (LTDECL / LTDEFN / struct declarations)
    // -----------------------------------------------------------------------

    /// Declares-and/or-defines a named `terra` function or method.
    #[allow(clippy::too_many_arguments)]
    fn eval_terra_def(
        &mut self,
        path: &[Name],
        base: Slot,
        method: Option<&Name>,
        def: &Rc<TerraFuncDef>,
        is_local: bool,
        env: &Env,
        span: Span,
    ) -> EvalResult<()> {
        if let Some(mname) = method {
            // `terra Type:method(...)` — sugar for Type.methods.method with
            // implicit `self : &Type`.
            let mut obj = self
                .lookup(&path[0], base, env)
                .ok_or_else(|| LuaError::at(format!("undefined variable '{}'", path[0]), span))?;
            for part in &path[1..] {
                obj = self.index_value(&obj, &LuaValue::Str(part.clone()), span)?;
            }
            let LuaValue::Type(Ty::Struct(sid)) = obj else {
                return Err(LuaError::at(
                    "method definitions require a struct type",
                    span,
                ));
            };
            let fname: Rc<str> = Rc::from(format!("{}:{}", path.join("."), mname).as_str());
            let id = self.ctx.declare_func(fname.clone());
            let self_ty = Ty::Struct(sid).ptr_to();
            let spec = self.specialize_function(def, env, fname, Some(self_ty))?;
            self.finish_define(id, spec, span)?;
            self.ctx.structs[sid.0 as usize]
                .methods
                .borrow_mut()
                .set_str(mname, LuaValue::TerraFunc(id));
            return Ok(());
        }

        let fname: Rc<str> = Rc::from(path.join(".").as_str());
        // If the name is already bound to a declared-but-undefined Terra
        // function, this definition fills it in (mutual recursion support).
        let existing = match self.lookup(&path[0], base, env) {
            Some(mut o) => {
                for part in &path[1..] {
                    o = self.index_value(&o, &LuaValue::Str(part.clone()), span)?;
                }
                Some(o)
            }
            None => None,
        };
        let forward = match existing {
            Some(LuaValue::TerraFunc(id)) if self.ctx.funcs[id.0 as usize].spec.is_none() => {
                Some(id)
            }
            _ => None,
        };
        let id = forward.unwrap_or_else(|| self.ctx.declare_func(fname.clone()));
        if is_local && path.len() == 1 {
            // `local terra f` always declares its slot, also when it fills in
            // a forward declaration.
            env.declare(LuaValue::TerraFunc(id));
        } else if forward.is_none() {
            self.assign_path(path, base, LuaValue::TerraFunc(id), env, span)?;
        }
        // Bind before specializing so the body can refer to itself.
        let spec = self.specialize_function(def, env, fname, None)?;
        self.finish_define(id, spec, span)
    }

    fn finish_define(&mut self, id: FuncId, spec: SpecFunc, span: Span) -> EvalResult<()> {
        if !self.ctx.define_func(id, Rc::new(spec)) {
            return Err(LuaError::at(
                format!(
                    "terra function '{}' is already defined (definitions are write-once)",
                    self.ctx.funcs[id.0 as usize].name
                ),
                span,
            )
            .phase(Phase::Specialize));
        }
        Ok(())
    }

    fn specialize_function(
        &mut self,
        def: &TerraFuncDef,
        env: &Env,
        name: Rc<str>,
        implicit_self: Option<Ty>,
    ) -> EvalResult<SpecFunc> {
        let t0 = self.ctx.exec.trace.now_us();
        let spec = if let Some(self_ty) = implicit_self {
            // Prepend `self` by specializing in an env where `self` is bound
            // to a fresh symbol, and adding it to the parameter list.
            let menv = env.child(1);
            let sym = self.ctx.fresh_symbol("self", Some(self_ty.clone()));
            menv.declare(LuaValue::Symbol(sym.clone()));
            let mut spec = Specializer::new(self, menv).function(def, name)?;
            spec.params.insert(0, (sym, self_ty));
            spec
        } else {
            Specializer::new(self, env.clone()).function(def, name)?
        };
        self.ctx
            .exec
            .trace
            .record(terra_trace::Stage::Specialize, &spec.name, t0);
        Ok(spec)
    }

    /// Defines an anonymous `terra` function value (used for expressions and
    /// by the specializer for nested literals).
    pub fn define_terra_function(
        &mut self,
        def: &TerraFuncDef,
        env: &Env,
        name: Rc<str>,
    ) -> EvalResult<FuncId> {
        let id = self.ctx.declare_func(name.clone());
        let spec = self.specialize_function(def, env, name, None)?;
        self.finish_define(id, spec, def.span)?;
        Ok(id)
    }

    /// Creates a struct type from declared entries, recording them in the
    /// reflection `entries` table (layout is finalized lazily, on first use).
    fn eval_struct_def(
        &mut self,
        name: &Rc<str>,
        entries: &[StructEntry],
        env: &Env,
    ) -> EvalResult<Ty> {
        let sid = self.new_struct(name.clone());
        for e in entries {
            let v = self.eval_expr(&e.ty, env)?;
            let ty = self.value_to_type(v, e.span)?;
            let entry = Table::new();
            let entry_ref: TableRef = Rc::new(RefCell::new(entry));
            entry_ref
                .borrow_mut()
                .set_str("field", LuaValue::Str(e.name.clone()));
            entry_ref.borrow_mut().set_str("type", LuaValue::Type(ty));
            self.ctx.structs[sid.0 as usize]
                .entries
                .borrow_mut()
                .push(LuaValue::Table(entry_ref));
        }
        Ok(Ty::Struct(sid))
    }

    /// Creates a struct type whose reflection tables have the list metatable
    /// attached (so `S.entries:insert{…}` works).
    pub fn new_struct(&mut self, name: impl Into<Rc<str>>) -> StructId {
        let sid = self.ctx.new_struct(name);
        let entries = self.ctx.structs[sid.0 as usize].entries.clone();
        crate::stdlib::attach_list_meta(self, &entries);
        sid
    }

    /// Lazily computes a struct's layout from its (possibly user-mutated)
    /// `entries` table, running the `__finalizelayout` metamethod first if
    /// present. Idempotent.
    pub fn finalize_struct(&mut self, sid: StructId, span: Span) -> EvalResult<()> {
        if self.ctx.types.is_finalized(sid) {
            return Ok(());
        }
        let mm = self.ctx.structs[sid.0 as usize]
            .metamethods
            .borrow()
            .get_str("__finalizelayout");
        if mm.truthy() {
            self.call_value(mm, vec![LuaValue::Type(Ty::Struct(sid))], span)?;
        }
        if self.ctx.types.is_finalized(sid) {
            return Ok(());
        }
        let entries: Vec<LuaValue> = self.ctx.structs[sid.0 as usize]
            .entries
            .borrow()
            .iter_array()
            .cloned()
            .collect();
        for e in entries {
            let LuaValue::Table(t) = e else {
                return Err(
                    LuaError::at("struct entries must be {field=…, type=…} tables", span)
                        .phase(Phase::Typecheck),
                );
            };
            let (fname, fty) = {
                let t = t.borrow();
                (t.get_str("field"), t.get_str("type"))
            };
            let LuaValue::Str(fname) = fname else {
                return Err(
                    LuaError::at("struct entry is missing 'field'", span).phase(Phase::Typecheck)
                );
            };
            let ty = self.value_to_type(fty, span)?;
            // Nested struct types must go through the reflection-aware
            // finalization path before layout is computed.
            let mut nested = Vec::new();
            collect_struct_ids(&ty, &mut nested);
            for inner in nested {
                if inner != sid {
                    self.finalize_struct(inner, span)?;
                }
            }
            self.ctx.types.add_field(sid, &*fname, ty);
        }
        self.ctx.types.finalize(sid).ok_or_else(|| {
            LuaError::at(
                format!(
                    "struct {}: its size does not fit in 64 bits",
                    self.ctx.types.name(sid)
                ),
                span,
            )
            .phase(Phase::Typecheck)
        })
    }

    // -----------------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------------

    fn expect_number(&mut self, e: &LuaExpr, env: &Env) -> EvalResult<f64> {
        let v = self.eval_expr(e, env)?;
        v.as_number().ok_or_else(|| {
            LuaError::at(format!("expected number, got {}", v.type_name()), e.span())
        })
    }

    /// Evaluates an expression list with Lua's adjustment rules: the last
    /// expression expands to multiple values, earlier ones are truncated to
    /// one; the result is padded with `nil`/truncated to `want`.
    fn eval_exprlist(
        &mut self,
        exprs: &[LuaExpr],
        env: &Env,
        want: usize,
    ) -> EvalResult<Vec<LuaValue>> {
        let mut out = self.eval_exprlist_exact(exprs, env)?;
        out.resize(want, LuaValue::Nil);
        Ok(out)
    }

    /// Evaluates an expression list, expanding the final multi-value
    /// expression.
    pub fn eval_exprlist_exact(
        &mut self,
        exprs: &[LuaExpr],
        env: &Env,
    ) -> EvalResult<Vec<LuaValue>> {
        self.eval_exprlist_onto(Vec::with_capacity(exprs.len()), exprs, env)
    }

    /// [`Interp::eval_exprlist_exact`], appending to `out` (a call's
    /// argument vector, sized by the caller for what it will become).
    fn eval_exprlist_onto(
        &mut self,
        mut out: Vec<LuaValue>,
        exprs: &[LuaExpr],
        env: &Env,
    ) -> EvalResult<Vec<LuaValue>> {
        for (i, e) in exprs.iter().enumerate() {
            if i + 1 == exprs.len() && is_multi(e) {
                out.extend(self.eval_expr_multi(e, env)?);
            } else {
                out.push(self.eval_expr(e, env)?);
            }
        }
        Ok(out)
    }

    /// Evaluates to exactly one value. Only calls and `...` can produce
    /// several; they go through [`Interp::eval_expr_multi`] and are
    /// truncated, everything else is evaluated directly.
    pub fn eval_expr(&mut self, e: &LuaExpr, env: &Env) -> EvalResult<LuaValue> {
        Ok(match e {
            LuaExpr::Nil(_) => LuaValue::Nil,
            LuaExpr::True(_) => LuaValue::Bool(true),
            LuaExpr::False(_) => LuaValue::Bool(false),
            LuaExpr::Number(n, _) => LuaValue::Number(*n),
            LuaExpr::Str(s, _) => LuaValue::Str(s.clone()),
            LuaExpr::Var(n, slot, _) => self.lookup(n, *slot, env).unwrap_or(LuaValue::Nil),
            LuaExpr::Index { obj, index, span } => {
                let o = self.eval_expr(obj, env)?;
                let k = self.eval_expr(index, env)?;
                self.index_value(&o, &k, *span)?
            }
            LuaExpr::BinOp { op, lhs, rhs, span } => self.eval_binop(*op, lhs, rhs, env, *span)?,
            LuaExpr::UnOp { op, expr, span } => {
                let v = self.eval_expr(expr, env)?;
                self.eval_unop(*op, v, *span)?
            }
            LuaExpr::Paren(inner) => self.eval_expr(inner, env)?,
            LuaExpr::Call { .. } | LuaExpr::MethodCall { .. } | LuaExpr::Vararg(..) => self
                .eval_expr_multi(e, env)?
                .into_iter()
                .next()
                .unwrap_or(LuaValue::Nil),
            LuaExpr::Function(body) => LuaValue::Function(Rc::new(LuaClosure {
                body: body.clone(),
                env: env.clone(),
                name: RefCell::new(Rc::from("anonymous")),
            })),
            LuaExpr::Table { items, span: _ } => self.eval_table(items, env)?,
            LuaExpr::TerraFunction(def) => {
                let name: Rc<str> = def
                    .name_hint
                    .clone()
                    .unwrap_or_else(|| Rc::from("anonymous"));
                LuaValue::TerraFunc(self.define_terra_function(def, env, name)?)
            }
            LuaExpr::Quote(q) => {
                let spec = Specializer::new(self, env.clone()).quote(q)?;
                LuaValue::Quote(Rc::new(spec))
            }
            LuaExpr::AnonStruct { entries, span: _ } => {
                LuaValue::Type(self.eval_struct_def(&Rc::from("anon"), entries, env)?)
            }
            LuaExpr::PtrType(inner, span) => {
                let v = self.eval_expr(inner, env)?;
                LuaValue::Type(self.value_to_type(v, *span)?.ptr_to())
            }
            LuaExpr::TupleType(items, span) => {
                LuaValue::Type(self.eval_tuple_type(items, *span, env)?)
            }
            LuaExpr::FuncType {
                params,
                returns,
                span,
            } => LuaValue::Type(self.eval_func_type(params, returns, *span, env)?),
        })
    }

    /// Evaluates, preserving multiple results for calls and `...`.
    pub fn eval_expr_multi(&mut self, e: &LuaExpr, env: &Env) -> EvalResult<Vec<LuaValue>> {
        match e {
            // The packed arguments sit in the slot the parser named `...`;
            // outside a vararg function nothing declares that name.
            LuaExpr::Vararg(Slot::Local { hops, index }, _) => match env.get(*hops, *index) {
                LuaValue::Table(t) => Ok(t.borrow().iter_array().cloned().collect()),
                other => unreachable!("the '...' slot holds a {}", other.type_name()),
            },
            LuaExpr::Vararg(Slot::Global, span) => Err(LuaError::at(
                "cannot use '...' outside a vararg function",
                *span,
            )),
            LuaExpr::Call { func, args, span } => {
                let f = self.eval_expr(func, env)?;
                // A Lua callee turns this vector into its scope; give it the
                // room now.
                let room = match &f {
                    LuaValue::Function(c) => usize::from(c.body.body.nslots),
                    _ => 0,
                };
                let argv =
                    self.eval_exprlist_onto(Vec::with_capacity(room.max(args.len())), args, env)?;
                self.call_value(f, argv, *span)
            }
            LuaExpr::MethodCall {
                obj,
                name,
                args,
                span,
            } => {
                let o = self.eval_expr(obj, env)?;
                if !matches!(o, LuaValue::Table(_) | LuaValue::Str(_)) {
                    let argv = self.eval_exprlist_exact(args, env)?;
                    return Ok(vec![reflect::method_call_terra_value(
                        self, o, name, argv, *span,
                    )?]);
                }
                let mut full = Vec::with_capacity(args.len() + 1);
                full.push(o);
                let full = self.eval_exprlist_onto(full, args, env)?;
                let m = self.find_method(&full[0], name, *span)?;
                self.call_value(m, full, *span)
            }
            _ => Ok(vec![self.eval_expr(e, env)?]),
        }
    }

    fn eval_table(&mut self, items: &[TableItem], env: &Env) -> EvalResult<LuaValue> {
        let mut t = Table::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                TableItem::Positional(e) => {
                    if i + 1 == items.len() && is_multi(e) {
                        for v in self.eval_expr_multi(e, env)? {
                            t.push(v);
                        }
                    } else {
                        t.push(self.eval_expr(e, env)?);
                    }
                }
                TableItem::Named(n, e) => {
                    let v = self.eval_expr(e, env)?;
                    t.set(LuaValue::Str(n.clone()), v);
                }
                TableItem::Keyed(k, e) => {
                    let key = self.eval_expr(k, env)?;
                    if let Some(msg) = key.key_error() {
                        return Err(LuaError::at(msg, k.span()));
                    }
                    let v = self.eval_expr(e, env)?;
                    t.set(key, v);
                }
            }
        }
        Ok(LuaValue::Table(Rc::new(RefCell::new(t))))
    }

    /// The Terra type operator `{T}` in annotation position.
    fn eval_tuple_type(&mut self, items: &[LuaExpr], span: Span, env: &Env) -> EvalResult<Ty> {
        let mut tys = Vec::with_capacity(items.len());
        for it in items {
            let v = self.eval_expr(it, env)?;
            tys.push(self.value_to_type(v, span)?);
        }
        match tys.len() {
            0 => Ok(Ty::Unit),
            1 => Ok(tys.pop().expect("len checked")),
            _ => Err(LuaError::at(
                "tuple types with more than one element are not supported",
                span,
            )),
        }
    }

    /// The Terra type operator `params -> returns`.
    fn eval_func_type(
        &mut self,
        params: &[LuaExpr],
        returns: &[LuaExpr],
        span: Span,
        env: &Env,
    ) -> EvalResult<Ty> {
        let mut ptys = Vec::with_capacity(params.len());
        for p in params {
            let v = self.eval_expr(p, env)?;
            ptys.push(self.value_to_type(v, span)?);
        }
        let ret = match returns {
            [] => Ty::Unit,
            [r] => {
                let v = self.eval_expr(r, env)?;
                self.value_to_type(v, span)?
            }
            _ => {
                return Err(LuaError::at(
                    "multiple return types are not supported",
                    span,
                ))
            }
        };
        Ok(Ty::Func(std::sync::Arc::new(FuncTy { params: ptys, ret })))
    }

    fn eval_binop(
        &mut self,
        op: BinOp,
        lhs: &LuaExpr,
        rhs: &LuaExpr,
        env: &Env,
        span: Span,
    ) -> EvalResult<LuaValue> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let l = self.eval_expr(lhs, env)?;
                if !l.truthy() {
                    return Ok(l);
                }
                return self.eval_expr(rhs, env);
            }
            BinOp::Or => {
                let l = self.eval_expr(lhs, env)?;
                if l.truthy() {
                    return Ok(l);
                }
                return self.eval_expr(rhs, env);
            }
            _ => {}
        }
        let l = self.eval_expr(lhs, env)?;
        let r = self.eval_expr(rhs, env)?;
        self.binop_values(op, l, r, span)
    }

    /// Applies a binary operator to two values (with metamethods).
    pub fn binop_values(
        &mut self,
        op: BinOp,
        l: LuaValue,
        r: LuaValue,
        span: Span,
    ) -> EvalResult<LuaValue> {
        use BinOp::*;
        match op {
            Eq | Ne => {
                let mut eq = l.raw_eq(&r);
                if !eq {
                    if let (LuaValue::Table(a), LuaValue::Table(b)) = (&l, &r) {
                        if let Some(mm) = self
                            .meta_of_table(a, "__eq")
                            .or_else(|| self.meta_of_table(b, "__eq"))
                        {
                            eq = self
                                .call_value(mm, vec![l.clone(), r.clone()], span)?
                                .first()
                                .map(|v| v.truthy())
                                .unwrap_or(false);
                        }
                    }
                }
                Ok(LuaValue::Bool(if op == Eq { eq } else { !eq }))
            }
            Lt | Le | Gt | Ge => {
                // Normalize Gt/Ge by swapping.
                let (op, l, r) = match op {
                    Gt => (Lt, r, l),
                    Ge => (Le, r, l),
                    o => (o, l, r),
                };
                match (&l, &r) {
                    (LuaValue::Number(a), LuaValue::Number(b)) => {
                        Ok(LuaValue::Bool(if op == Lt { a < b } else { a <= b }))
                    }
                    (LuaValue::Str(a), LuaValue::Str(b)) => {
                        Ok(LuaValue::Bool(if op == Lt { a < b } else { a <= b }))
                    }
                    _ => {
                        let name = if op == Lt { "__lt" } else { "__le" };
                        if let Some(mm) =
                            self.meta_for(&l, name).or_else(|| self.meta_for(&r, name))
                        {
                            let v = self.call_value(mm, vec![l, r], span)?;
                            return Ok(LuaValue::Bool(
                                v.first().map(|x| x.truthy()).unwrap_or(false),
                            ));
                        }
                        // Without `__le`, Lua 5.1 takes `a <= b` as `not (b < a)`.
                        let lt = self
                            .meta_for(&r, "__lt")
                            .or_else(|| self.meta_for(&l, "__lt"));
                        if let (Le, Some(mm)) = (op, lt) {
                            let v = self.call_value(mm, vec![r, l], span)?;
                            return Ok(LuaValue::Bool(!v.first().is_some_and(|x| x.truthy())));
                        }
                        Err(LuaError::at(
                            format!(
                                "attempt to compare {} with {}",
                                l.type_name(),
                                r.type_name()
                            ),
                            span,
                        ))
                    }
                }
            }
            Concat => match (&l, &r) {
                (
                    LuaValue::Str(_) | LuaValue::Number(_),
                    LuaValue::Str(_) | LuaValue::Number(_),
                ) => Ok(LuaValue::str(format!(
                    "{}{}",
                    self.tostring_value(&l, span)?,
                    self.tostring_value(&r, span)?
                ))),
                _ => {
                    if let Some(mm) = self
                        .meta_for(&l, "__concat")
                        .or_else(|| self.meta_for(&r, "__concat"))
                    {
                        let v = self.call_value(mm, vec![l, r], span)?;
                        return Ok(v.into_iter().next().unwrap_or(LuaValue::Nil));
                    }
                    Err(LuaError::at(
                        format!("attempt to concatenate a {} value", l.type_name()),
                        span,
                    ))
                }
            },
            Add | Sub | Mul | Div | Mod | Pow => {
                // Operator overloading on staged values: arithmetic between
                // quotes/symbols (and numbers) builds a new quotation, as in
                // the real system.
                if is_staged(&l) || is_staged(&r) {
                    let kind = SpecExprKind::Bin(op, lua_to_spec(l, span)?, lua_to_spec(r, span)?);
                    let e = SpecExpr::new(kind, span);
                    return Ok(LuaValue::Quote(SpecQuote::of_expr(e, span)));
                }
                if let (Some(a), Some(b)) = (l.as_number(), r.as_number()) {
                    let v = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => a / b,
                        Mod => a - (a / b).floor() * b,
                        Pow => a.powf(b),
                        _ => unreachable!(),
                    };
                    return Ok(LuaValue::Number(v));
                }
                let name = match op {
                    Add => "__add",
                    Sub => "__sub",
                    Mul => "__mul",
                    Div => "__div",
                    Mod => "__mod",
                    Pow => "__pow",
                    _ => unreachable!(),
                };
                if let Some(mm) = self.meta_for(&l, name).or_else(|| self.meta_for(&r, name)) {
                    let v = self.call_value(mm, vec![l, r], span)?;
                    return Ok(v.into_iter().next().unwrap_or(LuaValue::Nil));
                }
                Err(LuaError::at(
                    format!(
                        "attempt to perform arithmetic on a {} value",
                        if l.as_number().is_none() {
                            l.type_name()
                        } else {
                            r.type_name()
                        }
                    ),
                    span,
                ))
            }
            Shl | Shr => {
                let (Some(a), Some(b)) = (l.as_number(), r.as_number()) else {
                    return Err(LuaError::at("bitwise shift requires numbers", span));
                };
                let v = if op == Shl {
                    ((a as i64) << (b as i64 & 63)) as f64
                } else {
                    ((a as i64) >> (b as i64 & 63)) as f64
                };
                Ok(LuaValue::Number(v))
            }
            And | Or => unreachable!("handled before value evaluation"),
        }
    }

    fn eval_unop(&mut self, op: UnOp, v: LuaValue, span: Span) -> EvalResult<LuaValue> {
        match op {
            UnOp::Not => Ok(LuaValue::Bool(!v.truthy())),
            UnOp::Neg => {
                if is_staged(&v) {
                    let kind = SpecExprKind::Un(UnOp::Neg, lua_to_spec(v, span)?);
                    let e = SpecExpr::new(kind, span);
                    return Ok(LuaValue::Quote(SpecQuote::of_expr(e, span)));
                }
                if let Some(n) = v.as_number() {
                    Ok(LuaValue::Number(-n))
                } else if let Some(mm) = self.meta_for(&v, "__unm") {
                    let r = self.call_value(mm, vec![v], span)?;
                    Ok(r.into_iter().next().unwrap_or(LuaValue::Nil))
                } else {
                    Err(LuaError::at(
                        format!("attempt to negate a {} value", v.type_name()),
                        span,
                    ))
                }
            }
            UnOp::Len => match &v {
                LuaValue::Str(s) => Ok(LuaValue::Number(s.len() as f64)),
                LuaValue::Table(t) => Ok(LuaValue::Number(t.borrow().len() as f64)),
                _ => Err(LuaError::at(
                    format!("attempt to get length of a {} value", v.type_name()),
                    span,
                )),
            },
        }
    }

    // -----------------------------------------------------------------------
    // Indexing, calling, metamethods
    // -----------------------------------------------------------------------

    fn meta_of_table(&self, t: &TableRef, name: &str) -> Option<LuaValue> {
        let t = t.borrow();
        let v = t.meta.as_ref()?.borrow().get_str(name);
        v.truthy().then_some(v)
    }

    fn meta_for(&self, v: &LuaValue, name: &str) -> Option<LuaValue> {
        match v {
            LuaValue::Table(t) => self.meta_of_table(t, name),
            _ => None,
        }
    }

    /// Indexes any value (tables with `__index`, plus the reflection API on
    /// Terra entities).
    pub fn index_value(
        &mut self,
        obj: &LuaValue,
        key: &LuaValue,
        span: Span,
    ) -> EvalResult<LuaValue> {
        match obj {
            LuaValue::Table(t) => {
                let raw = t.borrow().get(key);
                if raw.truthy() || !matches!(raw, LuaValue::Nil) {
                    return Ok(raw);
                }
                if let Some(mm) = self.meta_of_table(t, "__index") {
                    return match mm {
                        LuaValue::Function(_) | LuaValue::Native(_) => {
                            let r = self.call_value(mm, vec![obj.clone(), key.clone()], span)?;
                            Ok(r.into_iter().next().unwrap_or(LuaValue::Nil))
                        }
                        other => self.index_value(&other, key, span),
                    };
                }
                Ok(LuaValue::Nil)
            }
            LuaValue::Str(s) => {
                // Minimal string indexing: the string library as methods.
                let lib = self.global("string");
                if let LuaValue::Table(_) = lib {
                    let m = self.index_value(&lib, key, span)?;
                    if m.truthy() {
                        return Ok(m);
                    }
                }
                Err(LuaError::at(
                    format!("cannot index string '{s}' with this key"),
                    span,
                ))
            }
            LuaValue::Type(_)
            | LuaValue::TerraFunc(_)
            | LuaValue::Quote(_)
            | LuaValue::Symbol(_)
            | LuaValue::Global(_) => reflect::index_terra_value(self, obj, key, span),
            other => Err(LuaError::at(
                format!("attempt to index a {} value", other.type_name()),
                span,
            )),
        }
    }

    /// Sets `obj[key] = value` (with `__newindex` and reflection hooks).
    pub fn setindex_value(
        &mut self,
        obj: &LuaValue,
        key: LuaValue,
        value: LuaValue,
        span: Span,
    ) -> EvalResult<()> {
        match obj {
            LuaValue::Table(t) => {
                if let Some(msg) = key.key_error() {
                    return Err(LuaError::at(msg, span));
                }
                let exists = !matches!(t.borrow().get(&key), LuaValue::Nil);
                if !exists {
                    if let Some(mm) = self.meta_of_table(t, "__newindex") {
                        return match mm {
                            LuaValue::Function(_) | LuaValue::Native(_) => {
                                self.call_value(mm, vec![obj.clone(), key, value], span)?;
                                Ok(())
                            }
                            other => self.setindex_value(&other, key, value, span),
                        };
                    }
                }
                t.borrow_mut().set(key, value);
                Ok(())
            }
            LuaValue::Type(_) => reflect::setindex_terra_value(self, obj, key, value, span),
            other => Err(LuaError::at(
                format!("attempt to index a {} value", other.type_name()),
                span,
            )),
        }
    }

    /// Calls any callable value with the given arguments.
    pub fn call_value(
        &mut self,
        f: LuaValue,
        args: Vec<LuaValue>,
        span: Span,
    ) -> EvalResult<Vec<LuaValue>> {
        // The address of a local is where the host stack is.
        let marker = 0u8;
        let here = std::hint::black_box(&marker) as *const u8 as usize;
        if self.depth == 0 {
            self.stack_base = here;
        } else if self.stack_base.abs_diff(here) > LUA_STACK_BUDGET {
            return Err(LuaError::at("lua stack overflow", span));
        }
        self.depth += 1;
        let result = self.call_value_inner(f, args, span);
        self.depth -= 1;
        result
    }

    fn call_value_inner(
        &mut self,
        f: LuaValue,
        args: Vec<LuaValue>,
        span: Span,
    ) -> EvalResult<Vec<LuaValue>> {
        match f {
            LuaValue::Function(closure) => {
                let body = &closure.body;
                let nparams = body.params.len();
                let flow = if nparams == 0 && !body.is_vararg {
                    // Nothing to bind: the body opens a scope if and when it
                    // declares a local.
                    self.eval_block(&body.body, &closure.env)
                } else {
                    // The argument vector becomes the call's scope:
                    // parameters, then the packed varargs, then room for the
                    // body's locals.
                    let mut slots = args;
                    let rest = body.is_vararg.then(|| {
                        let mut rest = Table::new();
                        for v in slots.drain(nparams.min(slots.len())..) {
                            rest.push(v);
                        }
                        LuaValue::Table(Rc::new(RefCell::new(rest)))
                    });
                    slots.resize(nparams, LuaValue::Nil);
                    slots.extend(rest);
                    slots.reserve(usize::from(body.body.nslots).saturating_sub(slots.len()));
                    let scope = closure.env.child_with(slots);
                    self.eval_stmts(&body.body.stmts, &scope)
                };
                match flow.map_err(|e| e.traced(format!("function '{}'", closure.name.borrow())))? {
                    Flow::Return(vs) => Ok(vs),
                    _ => Ok(Vec::new()),
                }
            }
            LuaValue::Native(b) => (b.f)(self, args),
            LuaValue::TerraFunc(id) => self.call_terra(id, args, span),
            LuaValue::Table(ref t) => {
                if let Some(mm) = self.meta_of_table(t, "__call") {
                    let mut full = vec![f.clone()];
                    full.extend(args);
                    return self.call_value(mm, full, span);
                }
                Err(LuaError::at("attempt to call a table value", span))
            }
            LuaValue::Intrinsic(i) => crate::stdlib::call_intrinsic_from_lua(self, i, args, span),
            other => Err(LuaError::at(
                format!("attempt to call a {} value", other.type_name()),
                span,
            )),
        }
    }

    /// `obj[name]` for a method call on a table or string.
    fn find_method(&mut self, obj: &LuaValue, name: &Name, span: Span) -> EvalResult<LuaValue> {
        let m = self.index_value(obj, &LuaValue::Str(name.clone()), span)?;
        if matches!(m, LuaValue::Nil) {
            return Err(LuaError::at(format!("method '{name}' not found"), span));
        }
        Ok(m)
    }

    /// Calls a value's method (used by the specializer and reflection).
    pub fn method_call_value(
        &mut self,
        obj: LuaValue,
        name: &Name,
        args: Vec<LuaValue>,
        span: Span,
    ) -> EvalResult<LuaValue> {
        if !matches!(obj, LuaValue::Table(_) | LuaValue::Str(_)) {
            return reflect::method_call_terra_value(self, obj, name, args, span);
        }
        let m = self.find_method(&obj, name, span)?;
        let mut full = vec![obj];
        full.extend(args);
        Ok(self
            .call_value(m, full, span)?
            .into_iter()
            .next()
            .unwrap_or(LuaValue::Nil))
    }

    // -----------------------------------------------------------------------
    // Lua ⇄ Terra FFI (rule LTAPP)
    // -----------------------------------------------------------------------

    /// Calls a Terra function from Lua: lazily typechecks/links/compiles it,
    /// converts arguments by the signature, runs it on the VM, and converts
    /// the result back.
    pub fn call_terra(
        &mut self,
        id: FuncId,
        args: Vec<LuaValue>,
        span: Span,
    ) -> EvalResult<Vec<LuaValue>> {
        crate::typecheck::ensure_compiled(self, id, span)?;
        let sig = self.ctx.funcs[id.0 as usize]
            .sig
            .clone()
            .expect("compiled function has a signature");
        if args.len() != sig.params.len() {
            return Err(LuaError::at(
                format!(
                    "terra function '{}' expects {} argument(s), got {}",
                    self.ctx.funcs[id.0 as usize].name,
                    sig.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut ffi_args = Vec::with_capacity(args.len());
        for (v, ty) in args.into_iter().zip(&sig.params) {
            ffi_args.push(self.lua_to_ffi(v, ty, span)?);
        }
        let result = self
            .ctx
            .exec
            .call(id, &ffi_args)
            .map_err(|t| LuaError::at(t.to_string(), span).phase(Phase::Execution))?;
        Ok(vec![self.ffi_to_lua(result, &sig.ret)])
    }

    /// Converts a Lua value to an FFI value of the given Terra type.
    pub fn lua_to_ffi(&mut self, v: LuaValue, ty: &Ty, span: Span) -> EvalResult<Value> {
        Ok(match (&v, ty) {
            // `f64 as i64` saturates at 2^63 - 1: the upper half of `uint64`
            // goes through `u64` (negative numbers keep wrapping, as in C).
            (LuaValue::Number(n), Ty::Scalar(ScalarTy::U64)) if *n >= 0.0 => {
                Value::Int(*n as u64 as i64)
            }
            (LuaValue::Number(n), Ty::Scalar(s)) if s.is_integer() => Value::Int(*n as i64),
            (LuaValue::Number(n), Ty::Scalar(ScalarTy::F32)) => Value::Float(*n as f32 as f64),
            (LuaValue::Number(n), Ty::Scalar(ScalarTy::F64)) => Value::Float(*n),
            (LuaValue::Number(n), Ty::Scalar(ScalarTy::Bool)) => Value::Bool(*n != 0.0),
            (LuaValue::Bool(b), Ty::Scalar(ScalarTy::Bool)) => Value::Bool(*b),
            (LuaValue::Bool(b), Ty::Scalar(s)) if s.is_integer() => Value::Int(*b as i64),
            (LuaValue::Str(s), Ty::Ptr(_)) => Value::Ptr(self.ctx.exec.intern_string(s)),
            (LuaValue::Number(n), Ty::Ptr(_)) => Value::Ptr(*n as u64),
            (LuaValue::Nil, Ty::Ptr(_)) => Value::Ptr(0),
            (LuaValue::TerraFunc(f), Ty::Func(_)) => {
                let f = *f;
                crate::typecheck::ensure_compiled(self, f, span)?;
                Value::Func(f)
            }
            (LuaValue::Global(g), Ty::Ptr(_)) => Value::Ptr(self.ctx.globals[g.0 as usize].addr),
            _ => {
                return Err(LuaError::at(
                    format!(
                        "cannot convert Lua {} to Terra type {}",
                        v.type_name(),
                        ty.display(&self.ctx.types)
                    ),
                    span,
                ))
            }
        })
    }

    /// Converts an FFI value of Terra type `ty` back to a Lua value.
    pub fn ffi_to_lua(&self, v: Value, ty: &Ty) -> LuaValue {
        match v {
            Value::Unit => LuaValue::Nil,
            Value::Int(i) if *ty == Ty::U64 => LuaValue::Number(i as u64 as f64),
            Value::Int(i) => LuaValue::Number(i as f64),
            Value::Float(f) => LuaValue::Number(f),
            Value::Bool(b) => LuaValue::Bool(b),
            Value::Ptr(p) => LuaValue::Number(p as f64),
            Value::Func(f) => LuaValue::TerraFunc(f),
        }
    }

    // -----------------------------------------------------------------------
    // Conversions / printing
    // -----------------------------------------------------------------------

    /// Converts a Lua value to a Terra type (annotation evaluation).
    pub fn value_to_type(&mut self, v: LuaValue, span: Span) -> EvalResult<Ty> {
        match v {
            LuaValue::Type(t) => Ok(t),
            LuaValue::Table(t) => {
                // `{}` or `{T}` tuple annotations.
                let items: Vec<LuaValue> = t.borrow().iter_array().cloned().collect();
                match items.len() {
                    0 => Ok(Ty::Unit),
                    1 => self.value_to_type(items.into_iter().next().expect("len checked"), span),
                    _ => Err(LuaError::at(
                        "functions returning multiple values are not supported; return a struct",
                        span,
                    )),
                }
            }
            other => Err(LuaError::at(
                format!("expected a terra type, got {}", other.type_name()),
                span,
            )),
        }
    }

    /// `tostring` with metamethod support.
    pub fn tostring_value(&mut self, v: &LuaValue, span: Span) -> EvalResult<String> {
        if let Some(mm) = self.meta_for(v, "__tostring") {
            let r = self.call_value(mm, vec![v.clone()], span)?;
            return match r.into_iter().next() {
                Some(LuaValue::Str(s)) => Ok(s.to_string()),
                Some(other) => self.tostring_value(&other, span),
                None => Ok(String::new()),
            };
        }
        Ok(match v {
            LuaValue::Nil => "nil".to_string(),
            LuaValue::Bool(b) => b.to_string(),
            LuaValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            LuaValue::Str(s) => s.to_string(),
            LuaValue::Table(t) => format!("table: {:p}", Rc::as_ptr(t)),
            LuaValue::Function(f) => format!("function: {:p}", Rc::as_ptr(f)),
            LuaValue::Native(b) => format!("builtin: {}", b.name),
            LuaValue::TerraFunc(id) => {
                format!("terra function: {}", self.ctx.funcs[id.0 as usize].name)
            }
            LuaValue::Type(t) => format!("{}", t.display(&self.ctx.types)),
            LuaValue::Quote(_) => "quote".to_string(),
            LuaValue::Symbol(s) => format!("${}_{}", s.name, s.id),
            LuaValue::Global(g) => {
                format!("global: {}", self.ctx.globals[g.0 as usize].name)
            }
            LuaValue::Macro(_) => "macro".to_string(),
            LuaValue::Intrinsic(i) => format!("terra intrinsic: {i:?}"),
        })
    }

    /// Writes text to the configured output sink (used by `print`).
    pub fn write_output(&mut self, text: &str) {
        match &mut self.ctx.exec.output {
            OutputSink::Stdout => print!("{text}"),
            OutputSink::Capture(buf) => buf.push_str(text),
        }
    }
}

/// Whether an expression can produce other than exactly one value.
fn is_multi(e: &LuaExpr) -> bool {
    matches!(
        e,
        LuaExpr::Call { .. } | LuaExpr::MethodCall { .. } | LuaExpr::Vararg(..)
    )
}

/// Whether a Lua value denotes staged Terra code that supports operator
/// overloading (building larger quotations).
fn is_staged(v: &LuaValue) -> bool {
    matches!(
        v,
        LuaValue::Quote(_) | LuaValue::Symbol(_) | LuaValue::Global(_)
    )
}

/// Collects the struct ids mentioned in a type (through arrays, not through
/// pointers — pointees do not affect layout).
pub(crate) fn collect_struct_ids(ty: &Ty, out: &mut Vec<StructId>) {
    match ty {
        Ty::Struct(sid) => out.push(*sid),
        Ty::Array(inner, _) => collect_struct_ids(inner, out),
        _ => {}
    }
}
