//! Lazy typechecking, linking, and lowering to IR (rules LTAPP/TYFUN).
//!
//! Terra typechecks a function the first time it is called (or referenced by
//! a function being called); see §4.1 "eager specialization with lazy
//! typechecking". Typechecking is monotonic: struct layouts are finalized on
//! first use and can only have grown until then, and function definitions
//! are write-once, so a function that typechecks once never stops
//! typechecking.
//!
//! The checker simultaneously lowers to `terra-ir`: l-values become address
//! computations, method calls are desugared through the receiver's `methods`
//! table, user-defined `__cast` metamethods drive conversions involving
//! structs, and `defer` statements are expanded at scope exits.

use crate::error::{EvalResult, LuaError, Phase};
use crate::interp::Interp;
use crate::spec::{SpecExpr, SpecExprKind, SpecQuote, SpecStmt};
use crate::value::{Intrinsic, LuaValue};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use terra_ir::{
    direct_calls, BinKind, Builtin, Callee, CmpKind, ExprKind, FuncId, FuncTy, IrExpr, IrFunction,
    IrStmt, LocalId, ScalarTy, StmtKind, Ty, UnKind,
};
use terra_syntax::{BinOp, IntSuffix, ProvKind, Provenance, Span, UnOp};

fn terr(msg: impl Into<String>, span: Span) -> LuaError {
    LuaError::at(msg, span).phase(Phase::Typecheck)
}

/// Computes (and caches) the signature of a Terra function, without
/// necessarily compiling it. Return types may be inferred from the body.
///
/// # Errors
///
/// Fails on undefined functions (a *link* error, per the paper), on
/// unannotated recursive return types, and on any type error hit during
/// inference.
pub fn ensure_signature(interp: &mut Interp, id: FuncId, span: Span) -> EvalResult<FuncTy> {
    if let Some(sig) = &interp.ctx.funcs[id.0 as usize].sig {
        return Ok(sig.clone());
    }
    let meta = &interp.ctx.funcs[id.0 as usize];
    let name = meta.name.clone();
    let Some(spec) = meta.spec.clone() else {
        return Err(LuaError::at(
            format!("function '{name}' is declared but not defined"),
            span,
        )
        .phase(Phase::Link));
    };
    let params: Vec<Ty> = spec.params.iter().map(|(_, t)| t.clone()).collect();
    for p in &params {
        if matches!(p, Ty::Struct(_) | Ty::Array(..)) {
            return Err(terr(
                format!("function '{name}': aggregate parameters must be passed by pointer"),
                spec.span,
            ));
        }
    }
    if let Some(ret) = &spec.ret {
        if matches!(ret, Ty::Struct(_) | Ty::Array(..)) {
            return Err(terr(
                format!("function '{name}': aggregate returns must use an out-pointer"),
                spec.span,
            ));
        }
        let sig = FuncTy {
            params,
            ret: ret.clone(),
        };
        interp.ctx.funcs[id.0 as usize].sig = Some(sig.clone());
        return Ok(sig);
    }
    // Infer the return type by typechecking the body.
    if interp.ctx.funcs[id.0 as usize].checking {
        return Err(terr(
            format!("recursive function '{name}' requires an explicit return type"),
            spec.span,
        ));
    }
    interp.ctx.funcs[id.0 as usize].checking = true;
    let result = ensure_ir(interp, id);
    let meta = &mut interp.ctx.funcs[id.0 as usize];
    meta.checking = false;
    result.map_err(|e| e.traced(format!("terra function '{name}'")))?;
    let sig = meta.ir.as_ref().expect("just checked").ty.clone();
    meta.sig = Some(sig.clone());
    Ok(sig)
}

/// Typechecks `id` unless its lowering is already cached, and caches it with
/// its direct dependencies. What is cached is the *unoptimized* IR, so that
/// functions compiled later can inline this one; everything downstream
/// borrows it from the cache.
fn ensure_ir(interp: &mut Interp, id: FuncId) -> EvalResult<()> {
    if interp.ctx.funcs[id.0 as usize].ir.is_none() {
        let (ir, deps) = check_function(interp, id)?;
        let meta = &mut interp.ctx.funcs[id.0 as usize];
        (meta.ir, meta.deps) = (Some(ir), deps);
    }
    Ok(())
}

/// The evaluator's view of the module for IR verification: function
/// signatures from staging metadata, global types from the global table.
struct CtxEnv<'a> {
    ctx: &'a crate::context::Context,
}

impl terra_ir::InlineEnv for CtxEnv<'_> {
    fn callee_ir(&self, id: FuncId) -> Option<IrFunction> {
        self.callee_ref(id).map(Cow::into_owned)
    }

    // The cached IR is the *unoptimized* lowering (stored before the
    // caller's pipeline runs), so inlined bodies are optimized in the
    // caller's context.
    fn callee_ref(&self, id: FuncId) -> Option<Cow<'_, IrFunction>> {
        Some(Cow::Borrowed(
            self.ctx.funcs.get(id.0 as usize)?.ir.as_ref()?,
        ))
    }
}

impl terra_ir::ModuleEnv for CtxEnv<'_> {
    fn function_sig(&self, id: FuncId) -> terra_ir::EnvEntry<FuncTy> {
        match self.ctx.funcs.get(id.0 as usize) {
            // Signatures are computed lazily; a not-yet-checked callee is
            // opaque, not wrong.
            Some(meta) => match &meta.sig {
                Some(sig) => terra_ir::EnvEntry::Known(sig.clone()),
                None => terra_ir::EnvEntry::Opaque,
            },
            None => terra_ir::EnvEntry::Invalid,
        }
    }

    fn global_ty(&self, id: terra_ir::GlobalId) -> terra_ir::EnvEntry<Ty> {
        match self.ctx.globals.get(id.0 as usize) {
            Some(g) => terra_ir::EnvEntry::Known(g.ty.clone()),
            None => terra_ir::EnvEntry::Invalid,
        }
    }

    fn kernel_index_range(&self, id: FuncId) -> Option<(i64, i64)> {
        self.ctx.funcs.get(id.0 as usize)?.ir.as_ref()?.index_range
    }
}

/// Typechecks, compiles, and links `id` and its whole connected component of
/// referenced functions (paper Fig. 4). Idempotent.
pub fn ensure_compiled(interp: &mut Interp, id: FuncId, span: Span) -> EvalResult<()> {
    if interp.ctx.exec.is_defined(id) {
        return Ok(());
    }
    ensure_linkable(interp, id, span)?;
    // The inliner may look through any function the component reaches, so
    // its IR is materialized before the first of them is optimized: once, in
    // link order, errors ignored (linking reports them exactly as before).
    let mut order = vec![id];
    materialize(interp, id, &mut BTreeSet::from([id]), &mut order);
    order
        .into_iter()
        .try_for_each(|f| compile_one(interp, f, span))
}

/// Appends what `id` reaches and is not compiled yet to `order`, depth first,
/// checking each one's dependencies before descending (linking's old order).
fn materialize(
    interp: &mut Interp,
    id: FuncId,
    seen: &mut BTreeSet<FuncId>,
    order: &mut Vec<FuncId>,
) {
    let deps = interp.ctx.funcs[id.0 as usize].deps.clone();
    for dep in &deps {
        let dmeta = &interp.ctx.funcs[dep.0 as usize];
        if dmeta.spec.is_some() && !dmeta.checking {
            let _ = ensure_ir(interp, *dep);
        }
    }
    for dep in deps {
        if seen.insert(dep) && !interp.ctx.exec.is_defined(dep) {
            order.push(dep);
            materialize(interp, dep, seen, order);
        }
    }
}

/// `id`'s signature and IR, or the error that keeps it from linking.
fn ensure_linkable(interp: &mut Interp, id: FuncId, span: Span) -> EvalResult<()> {
    ensure_signature(interp, id, span)?;
    let name = interp.ctx.funcs[id.0 as usize].name.clone();
    ensure_ir(interp, id).map_err(|e| e.traced(format!("terra function '{name}'")))
}

/// Verifies, optimizes, compiles and defines one function of a materialized component.
fn compile_one(interp: &mut Interp, id: FuncId, span: Span) -> EvalResult<()> {
    if interp.ctx.exec.is_defined(id) {
        return Ok(());
    }
    ensure_linkable(interp, id, span)?;
    let meta = &interp.ctx.funcs[id.0 as usize];
    let (name, ir) = (meta.name.clone(), meta.ir.as_ref().expect("linkable"));
    // Interprocedural summaries over this function plus every dependency
    // whose IR is materialized: the abstract interpreter uses them to refine
    // call returns and check call sites against callee access demands, both
    // in lint mode and in the check-elision pass.
    let mut unit: Vec<(FuncId, &IrFunction)> = vec![(id, ir)];
    for d in meta.deps.iter().filter(|d| **d != id) {
        unit.extend(
            interp.ctx.funcs[d.0 as usize]
                .ir
                .as_ref()
                .map(|dir| (*d, dir)),
        );
    }
    let sums = terra_ir::summarize(&unit, Some(&interp.ctx.types), &CtxEnv { ctx: &interp.ctx });
    // Every function passes the IR verifier between lowering and
    // compilation: a failure here means the typechecker produced
    // inconsistent IR, and is reported instead of miscompiled. Lint mode
    // additionally runs the dataflow and bounds analyses, accumulating
    // warnings on the interpreter; diagnostics are computed on a fold-only
    // copy so they are identical at every -O level.
    let t0 = interp.ctx.exec.trace.open();
    let mut diags = {
        let env = CtxEnv { ctx: &interp.ctx };
        if interp.lint {
            let mut lint_ir = ir.clone();
            terra_ir::passes::fold::run(&mut lint_ir, &mut Vec::new());
            terra_ir::analyze_function_with(&lint_ir, Some(&interp.ctx.types), &env, Some(&sums))
        } else {
            match terra_ir::verify_function(ir, Some(&interp.ctx.types), &env) {
                Ok(()) => Vec::new(),
                Err(d) => vec![d],
            }
        }
    };
    interp
        .ctx
        .exec
        .trace
        .record(terra_trace::Stage::Analyze, &name, t0);
    if let Some(err) = diags
        .iter()
        .find(|d| d.severity == terra_ir::Severity::Error)
    {
        return Err(terr(
            format!("IR verification failed: {err}"),
            if err.span.line == 0 { span } else { err.span },
        ));
    }
    interp.diagnostics.append(&mut diags);
    // Mid-end optimization pipeline; per-pass spans land on the staging
    // timeline after the fact (the pass manager times each pass itself).
    let opt_t0 = interp.ctx.exec.trace.now_us();
    let (ir, stats) = {
        let env = CtxEnv { ctx: &interp.ctx };
        let cfg = terra_ir::PassConfig {
            level: interp.opt,
            types: Some(&interp.ctx.types),
            env: &env,
            inline: &env,
            summaries: Some(&sums),
            // The sanitizer is the oracle proofs are checked against: under
            // it none is made, so every check and every `trunc` runs.
            elide_checks: interp.elide_checks && !interp.ctx.exec.memory.sanitize_enabled(),
        };
        terra_ir::optimized(ir, &cfg)
    };
    let mut cursor = opt_t0;
    for run in &stats.runs {
        interp.ctx.exec.trace.record_span(
            terra_trace::Stage::Optimize,
            &format!("{name}:{}", run.pass),
            cursor,
            run.dur_us,
        );
        cursor += run.dur_us;
    }
    // Remarks flow to the tracer unconditionally (not gated on profiling):
    // they are part of the deterministic surface and must be identical with
    // and without --profile.
    for r in stats.remarks {
        interp.ctx.exec.trace.add_remark(terra_trace::Remark {
            pass: r.pass,
            kind: r.kind.label(),
            site: terra_trace::Site {
                func: r.function,
                line: r.line,
                chain: r.prov.map(|p| p.describe().into()),
            },
            message: r.message,
        });
    }
    let globals = interp.ctx.global_addrs();
    let t0 = interp.ctx.exec.trace.open();
    let compiled = terra_vm::try_compile(&ir, &interp.ctx.types, &mut interp.ctx.exec, &globals)
        .map_err(|e| terr(e.to_string(), span))?;
    interp
        .ctx
        .exec
        .trace
        .record(terra_trace::Stage::Compile, &name, t0);
    interp.ctx.exec.define(id, compiled);
    Ok(())
}

/// Typechecks a function body, producing IR and its direct dependencies.
fn check_function(interp: &mut Interp, id: FuncId) -> EvalResult<(IrFunction, Vec<FuncId>)> {
    let t0 = interp.ctx.exec.trace.open();
    let result = check_function_inner(interp, id);
    if let Ok((ir, _)) = &result {
        let name = ir.name.clone();
        interp
            .ctx
            .exec
            .trace
            .record(terra_trace::Stage::Typecheck, &name, t0);
    }
    result
}

fn check_function_inner(interp: &mut Interp, id: FuncId) -> EvalResult<(IrFunction, Vec<FuncId>)> {
    let spec = interp.ctx.funcs[id.0 as usize]
        .spec
        .clone()
        .expect("caller verified definition");
    let mut func = IrFunction {
        name: spec.name.as_ref().into(),
        ty: FuncTy {
            params: spec.params.iter().map(|(_, t)| t.clone()).collect(),
            ret: spec.ret.clone().unwrap_or(Ty::Unit),
        },
        locals: Vec::new(),
        body: Vec::new(),
        index_range: None,
    };
    let mut syms = HashMap::new();
    for (sym, ty) in &spec.params {
        let in_memory = is_aggregate(ty) || sym.addr_taken.get();
        let lid = func.add_local(&*sym.name, ty.clone(), in_memory);
        syms.insert(sym.id, lid);
    }
    let mut checker = Checker {
        interp,
        func,
        syms,
        ret_ty: spec.ret.clone(),
        deps: BTreeSet::new(),
        prelude: Vec::new(),
        defers: vec![Vec::new()],
        loop_defer_depth: Vec::new(),
        prov: Vec::new(),
    };
    let mut body = Vec::new();
    checker.stmts(&spec.body, &mut body)?;
    // Run root-scope defers on fall-through.
    checker.emit_defers_from(0, &mut body);
    let mut func = checker.func;
    let deps: Vec<FuncId> = checker.deps.into_iter().collect();
    func.body = body;
    func.ty.ret = checker.ret_ty.unwrap_or(Ty::Unit);
    Ok((func, deps))
}

fn is_aggregate(ty: &Ty) -> bool {
    matches!(ty, Ty::Struct(_) | Ty::Array(..))
}

/// The struct a method call or `__cast` on `ty` dispatches through: `ty`
/// itself or its pointee.
fn struct_of(ty: &Ty) -> Option<terra_ir::StructId> {
    match ty {
        Ty::Struct(s) => Some(*s),
        Ty::Ptr(p) => match &**p {
            Ty::Struct(s) => Some(*s),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// parallelfor kernel extraction
// ---------------------------------------------------------------------------

/// What a `parallelfor` body needs from the frame around it, whose locals
/// are those below `base`: the enclosing locals it mentions (its captures)
/// and the enclosing register locals it assigns (an error).
fn scan_kernel(stmts: &[IrStmt], base: u32) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let (mut used, mut assigned) = (BTreeSet::new(), BTreeSet::new());
    IrStmt::walk(stmts, &mut |s| match &s.kind {
        StmtKind::Assign { dst, .. } if dst.0 < base => {
            assigned.insert(dst.0);
        }
        _ => {}
    });
    IrStmt::walk_exprs(stmts, &mut |e| match &e.kind {
        ExprKind::Local(l) | ExprKind::LocalAddr(l) if l.0 < base => {
            used.insert(l.0);
        }
        _ => {}
    });
    (used, assigned)
}

// ---------------------------------------------------------------------------
// typed expressions
// ---------------------------------------------------------------------------

/// A typed, lowered expression.
#[derive(Debug, Clone)]
struct TExp {
    ty: Ty,
    val: TVal,
}

#[derive(Debug, Clone)]
enum TVal {
    /// Register-class rvalue.
    R(IrExpr),
    /// L-value living in a register local.
    PlaceReg(LocalId),
    /// L-value (or aggregate rvalue) at the given address.
    PlaceMem(IrExpr),
}

impl TExp {
    /// A register-class value; its type is its node's.
    fn rvalue(ir: IrExpr) -> TExp {
        TExp {
            ty: ir.ty.clone(),
            val: TVal::R(ir),
        }
    }

    /// The place at `addr`; its type is what `addr` points to. Every place
    /// in memory is built here, so `addr.ty` is always `ty.ptr_to()`.
    fn place(addr: IrExpr) -> TExp {
        let Ty::Ptr(ty) = &addr.ty else {
            unreachable!("a place's address is a pointer")
        };
        TExp {
            ty: (**ty).clone(),
            val: TVal::PlaceMem(addr),
        }
    }
}

struct Checker<'a> {
    interp: &'a mut Interp,
    func: IrFunction,
    syms: HashMap<u64, LocalId>,
    ret_ty: Option<Ty>,
    deps: BTreeSet<FuncId>,
    /// Statements hoisted out of expression lowering (spliced statement
    /// quotes, struct-literal initialization).
    prelude: Vec<IrStmt>,
    /// Active `defer` calls, one list per open scope.
    defers: Vec<Vec<IrExpr>>,
    /// Defer-scope depth at each enclosing loop entry.
    loop_defer_depth: Vec<usize>,
    /// Active splice provenance chains, top = the chain for statements being
    /// lowered right now (empty when lowering code written in place).
    prov: Vec<Provenance>,
}

impl Checker<'_> {
    // -- helpers -------------------------------------------------------------

    /// Reads a register-class value out of a TExp.
    fn read(&mut self, t: TExp, span: Span) -> EvalResult<IrExpr> {
        match t.val {
            TVal::R(e) => Ok(e),
            TVal::PlaceReg(l) => Ok(IrExpr::local(l, t.ty)),
            TVal::PlaceMem(addr) => {
                if t.ty.is_register() {
                    Ok(IrExpr::load(t.ty, addr))
                } else if matches!(t.ty, Ty::Array(..)) {
                    // Arrays decay to a pointer to their first element.
                    let Ty::Array(elem, _) = &t.ty else {
                        unreachable!()
                    };
                    Ok(IrExpr::new((**elem).clone().ptr_to(), addr.kind))
                } else {
                    Err(terr(
                        format!(
                            "value of aggregate type {} cannot be used here",
                            t.ty.display(&self.interp.ctx.types)
                        ),
                        span,
                    ))
                }
            }
        }
    }

    /// The address of an l-value (or aggregate).
    fn addr(&mut self, t: TExp, span: Span) -> EvalResult<IrExpr> {
        match t.val {
            TVal::PlaceMem(addr) => Ok(addr),
            TVal::PlaceReg(l) => Err(terr(
                format!(
                    "internal: address of register local l{} not precomputed",
                    l.0
                ),
                span,
            )),
            TVal::R(_) => Err(terr("cannot take the address of an rvalue", span)),
        }
    }

    fn local_ty(&self, l: LocalId) -> Ty {
        self.func.locals[l.0 as usize].ty.clone()
    }

    fn add_temp(&mut self, ty: Ty, in_memory: bool) -> LocalId {
        self.func.add_local("tmp", ty, in_memory)
    }

    fn scale_index(&mut self, idx: IrExpr, size: u64) -> IrExpr {
        let idx64 = if idx.ty == Ty::I64 {
            idx
        } else {
            IrExpr::cast(Ty::I64, idx)
        };
        if size == 1 {
            return idx64;
        }
        IrExpr::binary(BinKind::Mul, idx64, IrExpr::int64(size as i64))
    }

    fn ptr_offset(&mut self, base: IrExpr, idx: IrExpr, elem_size: u64) -> IrExpr {
        let scaled = self.scale_index(idx, elem_size);
        IrExpr::binary(BinKind::Add, base, scaled)
    }

    fn const_offset(&mut self, base: IrExpr, off: u64) -> IrExpr {
        if off == 0 {
            return base;
        }
        IrExpr::binary(BinKind::Add, base, IrExpr::int64(off as i64))
    }

    fn emit_defers_from(&mut self, depth: usize, out: &mut Vec<IrStmt>) {
        let calls: Vec<IrExpr> = self.defers[depth..]
            .iter()
            .rev()
            .flat_map(|scope| scope.iter().rev().cloned())
            .collect();
        for c in calls {
            out.push(IrStmt::synthesized(Span::synthetic(), StmtKind::Expr(c)));
        }
    }

    // -- statements ----------------------------------------------------------

    fn stmts(&mut self, stmts: &[SpecStmt], out: &mut Vec<IrStmt>) -> EvalResult<()> {
        for s in stmts {
            self.stmt(s, out)?;
        }
        Ok(())
    }

    /// A loop bound (or step) as a value of the loop variable's type.
    fn bound(&mut self, e: &Rc<SpecExpr>, var_ty: &Ty) -> EvalResult<IrExpr> {
        let t = self.expr(e, Some(var_ty))?;
        let t = self.convert(t, var_ty, e.span, Some(e))?;
        self.read(t, e.span)
    }

    /// The variable type of a counted loop (`what` names it in the
    /// diagnostic) and its two bounds: what `for` and `parallelfor` share.
    fn loop_bounds(
        &mut self,
        what: &str,
        ty: &Option<Ty>,
        start: &Rc<SpecExpr>,
        stop: &Rc<SpecExpr>,
        step: Option<&Rc<SpecExpr>>,
        span: Span,
    ) -> EvalResult<(Ty, IrExpr, IrExpr)> {
        let mut var_ty = ty.clone();
        // Unannotated: the meet of the bounds' and step's integer types, as
        // Terra's `fornum` takes it (`int` for spliced Lua numbers alone).
        let bounds = [Some(start), Some(stop), step].map(|e| e.filter(|_| ty.is_none()));
        for e in bounds.into_iter().flatten() {
            let t = self.expr(e, None)?.ty;
            let rank = |t: &Ty| t.element_scalar().map(ScalarTy::conversion_rank);
            if t.is_integer() && var_ty.as_ref().is_none_or(|v| rank(v) < rank(&t)) {
                var_ty = Some(t);
            }
        }
        let var_ty = var_ty.unwrap_or(Ty::INT);
        if !var_ty.is_integer() {
            let msg = format!("{what} variable must have integer type");
            return Err(terr(msg, span));
        }
        let (start_e, stop_e) = (self.bound(start, &var_ty)?, self.bound(stop, &var_ty)?);
        Ok((var_ty, start_e, stop_e))
    }

    fn flush_prelude(&mut self, out: &mut Vec<IrStmt>) {
        out.append(&mut self.prelude);
    }

    fn scoped(&mut self, stmts: &[SpecStmt], out: &mut Vec<IrStmt>) -> EvalResult<()> {
        self.defers.push(Vec::new());
        self.stmts(stmts, out)?;
        let scope = self.defers.pop().expect("pushed above");
        for c in scope.into_iter().rev() {
            out.push(IrStmt::synthesized(Span::synthetic(), StmtKind::Expr(c)));
        }
        Ok(())
    }

    fn stmt(&mut self, s: &SpecStmt, out: &mut Vec<IrStmt>) -> EvalResult<()> {
        match s {
            SpecStmt::Var { decls, inits, span } => {
                // Typecheck initializers first (they see the outer bindings).
                let mut init_texps: Vec<Option<(TExp, &Rc<SpecExpr>)>> = Vec::new();
                for (i, (_, ann)) in decls.iter().enumerate() {
                    match inits.get(i) {
                        Some(e) => {
                            let t = self.expr(e, ann.as_ref())?;
                            init_texps.push(Some((t, e)));
                        }
                        None => init_texps.push(None),
                    }
                }
                self.flush_prelude(out);
                for ((sym, ann), init) in decls.iter().zip(init_texps) {
                    let ty = match (ann, &init) {
                        (Some(t), _) => t.clone(),
                        (None, Some((i, _))) => i.ty.clone(),
                        (None, None) => {
                            return Err(terr(
                                format!("variable '{}' needs a type or initializer", sym.name),
                                *span,
                            ))
                        }
                    };
                    let in_memory = is_aggregate(&ty) || sym.addr_taken.get();
                    let lid = self.func.add_local(&*sym.name, ty.clone(), in_memory);
                    self.syms.insert(sym.id, lid);
                    *sym.ty.borrow_mut() = Some(ty.clone());
                    match init {
                        Some((texp, origin)) => {
                            let texp = self.convert(texp, &ty, origin.span, Some(origin))?;
                            self.store_into_local(lid, texp, *span, out)?;
                        }
                        None => self.zero_local(lid, *span, out),
                    }
                    self.flush_prelude(out);
                }
            }
            SpecStmt::Assign {
                targets,
                exprs,
                span,
            } => {
                if targets.len() != exprs.len() {
                    return Err(terr(
                        format!(
                            "assignment mismatch: {} target(s) but {} value(s)",
                            targets.len(),
                            exprs.len()
                        ),
                        *span,
                    ));
                }
                // Places first, then all values into temps (so swaps work),
                // then the stores.
                let places: Vec<TExp> = targets
                    .iter()
                    .map(|t| self.expr(t, None))
                    .collect::<EvalResult<_>>()?;
                let mut staged: Vec<(TExp, TExp)> = Vec::new();
                for (place, e) in places.into_iter().zip(exprs) {
                    let v = self.expr(e, Some(&place.ty.clone()))?;
                    let v = self.convert(v, &place.ty.clone(), e.span, Some(e))?;
                    // Stage scalar values into temps.
                    let v = if targets.len() > 1 && v.ty.is_register() {
                        let read = self.read(v.clone(), e.span)?;
                        let tmp = self.add_temp(v.ty.clone(), false);
                        self.prelude.push(IrStmt::at(
                            e.span,
                            StmtKind::Assign {
                                dst: tmp,
                                value: read,
                            },
                        ));
                        TExp {
                            ty: v.ty,
                            val: TVal::PlaceReg(tmp),
                        }
                    } else {
                        v
                    };
                    staged.push((place, v));
                }
                self.flush_prelude(out);
                for (place, v) in staged {
                    self.store_into_place(place, v, *span, out)?;
                }
            }
            SpecStmt::If {
                arms,
                else_body,
                span,
            } => {
                // Lower else-if chains from the back.
                let mut else_ir = Vec::new();
                if let Some(body) = else_body {
                    self.scoped(body, &mut else_ir)?;
                }
                for (cond, body) in arms.iter().rev() {
                    let c = self.cond(cond)?;
                    self.flush_prelude(out);
                    let mut then_ir = Vec::new();
                    self.scoped(body, &mut then_ir)?;
                    else_ir = vec![IrStmt::at(
                        *span,
                        StmtKind::If {
                            cond: c,
                            then_body: then_ir,
                            else_body: else_ir,
                        },
                    )];
                }
                out.extend(else_ir);
            }
            SpecStmt::While { cond, body, span } => {
                let c = self.cond(cond)?;
                let cond_prelude: Vec<IrStmt> = self.prelude.drain(..).collect();
                self.loop_defer_depth.push(self.defers.len());
                let mut body_ir = Vec::new();
                self.scoped(body, &mut body_ir)?;
                self.loop_defer_depth.pop();
                if cond_prelude.is_empty() {
                    out.push(IrStmt::at(
                        *span,
                        StmtKind::While {
                            cond: c,
                            body: body_ir,
                        },
                    ));
                } else {
                    // while(true) { prelude; if !c break; body }
                    let mut inner = cond_prelude;
                    inner.push(IrStmt::at(
                        *span,
                        StmtKind::If {
                            cond: IrExpr::unary(UnKind::Not, c),
                            then_body: vec![IrStmt::synthesized(*span, StmtKind::Break)],
                            else_body: vec![],
                        },
                    ));
                    inner.extend(body_ir);
                    out.push(IrStmt::at(
                        *span,
                        StmtKind::While {
                            cond: IrExpr::boolean(true),
                            body: inner,
                        },
                    ));
                }
            }
            SpecStmt::Repeat { body, cond, span } => {
                self.loop_defer_depth.push(self.defers.len());
                let mut inner = Vec::new();
                self.defers.push(Vec::new());
                self.stmts(body, &mut inner)?;
                let c = self.cond(cond)?;
                self.flush_prelude(&mut inner);
                let scope = self.defers.pop().expect("pushed above");
                for d in scope.into_iter().rev() {
                    inner.push(IrStmt::synthesized(*span, StmtKind::Expr(d)));
                }
                self.loop_defer_depth.pop();
                inner.push(IrStmt::at(
                    *span,
                    StmtKind::If {
                        cond: c,
                        then_body: vec![IrStmt::synthesized(*span, StmtKind::Break)],
                        else_body: vec![],
                    },
                ));
                out.push(IrStmt::at(
                    *span,
                    StmtKind::While {
                        cond: IrExpr::boolean(true),
                        body: inner,
                    },
                ));
            }
            SpecStmt::For {
                parallel: false,
                sym,
                ty,
                start,
                stop,
                step,
                body,
                span,
            } => {
                let (var_ty, start_e, stop_e) =
                    self.loop_bounds("for-loop", ty, start, stop, step.as_ref(), *span)?;
                let step_e = match step {
                    Some(e) => {
                        let mut ir = self.bound(e, &var_ty)?;
                        // Terra loops ascend; catch constant non-positive
                        // steps at compile time (fold first so `-2` is seen
                        // as a constant).
                        terra_ir::fold_expr(&mut ir);
                        if matches!(ir.kind, ExprKind::ConstInt(v) if v <= 0) {
                            return Err(terr("for-loop step must be positive", e.span));
                        }
                        ir
                    }
                    None => IrExpr::new(var_ty.clone(), ExprKind::ConstInt(1)),
                };
                self.flush_prelude(out);
                let lid = self.func.add_local(&*sym.name, var_ty.clone(), false);
                self.syms.insert(sym.id, lid);
                *sym.ty.borrow_mut() = Some(var_ty);
                self.loop_defer_depth.push(self.defers.len());
                let mut body_ir = Vec::new();
                self.scoped(body, &mut body_ir)?;
                self.loop_defer_depth.pop();
                out.push(IrStmt::at(
                    *span,
                    StmtKind::For {
                        var: lid,
                        start: start_e,
                        stop: stop_e,
                        step: step_e,
                        body: body_ir,
                    },
                ));
            }
            // A `parallelfor` (which has no step).
            SpecStmt::For {
                parallel: true,
                sym,
                ty,
                start,
                stop,
                body,
                span,
                ..
            } => {
                let (var_ty, start_e, stop_e) =
                    self.loop_bounds("parallelfor", ty, start, stop, None, *span)?;
                self.flush_prelude(out);
                // The loop body is outlined into a *kernel function* whose
                // param 0 is the index; everything below `base` stays in the
                // enclosing frame and is captured explicitly.
                let base = self.func.locals.len() as u32;
                let lid = self.func.add_local(&*sym.name, var_ty.clone(), false);
                self.syms.insert(sym.id, lid);
                *sym.ty.borrow_mut() = Some(var_ty.clone());
                let mut body_ir = Vec::new();
                self.scoped(body, &mut body_ir)?;
                if IrStmt::any(&body_ir, &mut |s| matches!(s.kind, StmtKind::Return(_))) {
                    return Err(terr("return is not allowed inside parallelfor", *span));
                }
                if terra_ir::passes::util::has_toplevel_break(&body_ir) {
                    return Err(terr(
                        "break is not allowed inside parallelfor (iterations are independent)",
                        *span,
                    ));
                }
                let (used, assigned) = scan_kernel(&body_ir, base);
                if let Some(&l) = assigned.first() {
                    return Err(terr(
                        format!(
                            "cannot assign to '{}' inside parallelfor: register captures \
                             are read-only (store through a memory location instead)",
                            self.func.locals[l as usize].name
                        ),
                        *span,
                    ));
                }
                // In-memory captures travel by frame address (workers share
                // guest memory), register captures by value.
                let mut cap_map = BTreeMap::new();
                let mut cap_params: Vec<(Arc<str>, Ty)> = Vec::new();
                let mut args: Vec<IrExpr> = Vec::new();
                for (i, &l) in used.iter().enumerate() {
                    let slot = &self.func.locals[l as usize];
                    cap_map.insert(l, (i + 1) as u32);
                    if slot.in_memory {
                        let pty = slot.ty.clone().ptr_to();
                        cap_params.push((format!("&{}", slot.name).into(), pty.clone()));
                        args.push(IrExpr::new(pty, ExprKind::LocalAddr(LocalId(l))));
                    } else {
                        cap_params.push((slot.name.clone(), slot.ty.clone()));
                        args.push(IrExpr::local(LocalId(l), slot.ty.clone()));
                    }
                }
                // Renumber into the kernel's frame: the loop variable
                // (`base`) becomes param 0, captures become the params after
                // it — an in-memory capture's `LocalAddr` is the pointer
                // param itself, the node's type already the pointer type —
                // and the body's own locals shift down past them.
                let ncap = used.len() as u32;
                IrStmt::walk_exprs_mut(&mut body_ir, &mut |e| match e.kind {
                    ExprKind::LocalAddr(l) if l.0 < base => e.kind = ExprKind::Local(l),
                    _ => {}
                });
                terra_ir::passes::util::renumber_locals(&mut body_ir, &|l| {
                    LocalId(match l.0.checked_sub(base) {
                        None => cap_map[&l.0],
                        Some(0) => 0,
                        Some(own) => own + ncap,
                    })
                });
                let kname: Arc<str> =
                    format!("{}$par{}", self.func.name, self.interp.ctx.funcs.len()).into();
                let mut kernel = IrFunction {
                    name: kname.clone(),
                    ty: FuncTy {
                        params: std::iter::once(var_ty.clone())
                            .chain(cap_params.iter().map(|(_, t)| t.clone()))
                            .collect(),
                        ret: Ty::Unit,
                    },
                    locals: Vec::new(),
                    body: Vec::new(),
                    // Stage-time-constant bounds bound the index for the
                    // kernel's own range proofs.
                    index_range: start_e.int_value().zip(stop_e.int_value()),
                };
                kernel.add_local(&*sym.name, var_ty, false);
                for (n, t) in &cap_params {
                    kernel.add_local(n.clone(), t.clone(), false);
                }
                for slot in &self.func.locals[(base + 1) as usize..] {
                    kernel.add_local(slot.name.clone(), slot.ty.clone(), slot.in_memory);
                }
                kernel.body = body_ir;
                self.func.locals.truncate(base as usize);
                let kid = self.interp.ctx.declare_func(&*kname);
                let meta = &mut self.interp.ctx.funcs[kid.0 as usize];
                meta.sig = Some(kernel.ty.clone());
                meta.deps = direct_calls(&kernel.body).into_iter().collect();
                meta.ir = Some(kernel);
                self.deps.insert(kid);
                out.push(IrStmt::at(
                    *span,
                    StmtKind::ParallelFor {
                        kernel: kid,
                        start: start_e,
                        stop: stop_e,
                        args,
                    },
                ));
            }
            SpecStmt::Return(exprs, span) => {
                match exprs.len() {
                    0 => {
                        match &self.ret_ty {
                            None => self.ret_ty = Some(Ty::Unit),
                            Some(Ty::Unit) => {}
                            Some(other) => {
                                return Err(terr(
                                    format!(
                                        "return without value in function returning {}",
                                        other.display(&self.interp.ctx.types)
                                    ),
                                    *span,
                                ))
                            }
                        }
                        self.emit_defers_from(0, out);
                        out.push(IrStmt::at(*span, StmtKind::Return(None)));
                    }
                    1 => {
                        let e = &exprs[0];
                        let hint = self.ret_ty.clone();
                        let t = self.expr(e, hint.as_ref())?;
                        let t = match &hint {
                            Some(rt) => self.convert(t, &rt.clone(), e.span, Some(e))?,
                            None => {
                                let ty = t.ty.clone();
                                let t2 = self.convert(t, &ty, e.span, Some(e))?;
                                if is_aggregate(&ty) {
                                    return Err(terr(
                                        "returning aggregates by value is not supported; \
                                         use an out-pointer",
                                        *span,
                                    ));
                                }
                                self.ret_ty = Some(ty);
                                t2
                            }
                        };
                        let v = self.read(t, e.span)?;
                        self.flush_prelude(out);
                        let has_defers = self.defers.iter().any(|d| !d.is_empty());
                        if has_defers {
                            // The return value must be computed *before* the
                            // deferred calls run.
                            let tmp = self.add_temp(v.ty.clone(), false);
                            let ty = v.ty.clone();
                            out.push(IrStmt::at(*span, StmtKind::Assign { dst: tmp, value: v }));
                            self.emit_defers_from(0, out);
                            out.push(IrStmt::at(
                                *span,
                                StmtKind::Return(Some(IrExpr::local(tmp, ty))),
                            ));
                        } else {
                            self.emit_defers_from(0, out);
                            out.push(IrStmt::at(*span, StmtKind::Return(Some(v))));
                        }
                    }
                    _ => {
                        return Err(terr(
                            "returning multiple values is not supported; return a struct",
                            *span,
                        ))
                    }
                }
            }
            SpecStmt::Break(span) => {
                let depth = *self
                    .loop_defer_depth
                    .last()
                    .ok_or_else(|| terr("'break' outside of a loop", *span))?;
                self.emit_defers_from(depth, out);
                out.push(IrStmt::at(*span, StmtKind::Break));
            }
            SpecStmt::Block(body, _) => {
                self.scoped(body, out)?;
            }
            SpecStmt::Expr(e) => self.expr_stmt(e, out)?,
            SpecStmt::Defer(e, span) => {
                let t = self.expr(e, None)?;
                self.flush_prelude(out);
                let TVal::R(ir) = t.val else {
                    return Err(terr("defer expects a call", *span));
                };
                if !matches!(ir.kind, ExprKind::Call { .. }) {
                    return Err(terr("defer expects a call", *span));
                }
                self.defers
                    .last_mut()
                    .expect("root scope always open")
                    .push(ir);
            }
            SpecStmt::Spliced { quote, line, .. } => {
                self.splice(quote, *line, &quote.exprs, out)?
            }
        }
        Ok(())
    }

    /// An expression in statement position.
    fn expr_stmt(&mut self, e: &SpecExpr, out: &mut Vec<IrStmt>) -> EvalResult<()> {
        let t = self.expr(e, None)?;
        self.flush_prelude(out);
        if let TVal::R(ir) = t.val {
            if matches!(ir.kind, ExprKind::Call { .. }) || t.ty == Ty::Unit {
                out.push(IrStmt::at(e.span, StmtKind::Expr(ir)));
            }
            // Non-call expression statements have no effect; drop.
        }
        Ok(())
    }

    /// Lowers the statements of a quote spliced at `line`, then `tail` (those
    /// of its `in` expressions that are statements here), under a fresh
    /// provenance frame — a quote frame nested inside whatever splice is
    /// already being lowered — and stamps what was emitted with it.
    fn splice(
        &mut self,
        quote: &SpecQuote,
        line: u32,
        tail: &[Rc<SpecExpr>],
        out: &mut Vec<IrStmt>,
    ) -> EvalResult<()> {
        self.prov.push(match self.prov.last() {
            Some(outer) => outer.with_inner(ProvKind::Quote, line),
            None => Provenance::quote(line),
        });
        let start = out.len();
        let result = self
            .stmts(&quote.stmts, out)
            .and_then(|()| tail.iter().try_for_each(|e| self.expr_stmt(e, out)));
        let chain = self.prov.pop().expect("pushed above");
        result?;
        // Statements from a nested splice stamped their deeper chain first
        // and win.
        IrStmt::walk_mut(&mut out[start..], &mut |s| {
            s.prov.get_or_insert_with(|| chain.clone());
        });
        Ok(())
    }

    fn zero_local(&mut self, lid: LocalId, span: Span, out: &mut Vec<IrStmt>) {
        let ty = self.local_ty(lid);
        if is_aggregate(&ty) {
            let size = ty.size(&self.interp.ctx.types);
            let addr = IrExpr::new(ty.clone().ptr_to(), ExprKind::LocalAddr(lid));
            out.push(IrStmt::synthesized(
                span,
                StmtKind::Expr(memset(addr, size)),
            ));
            return;
        }
        let zero = zero_of(&ty);
        if self.func.locals[lid.0 as usize].in_memory {
            out.push(IrStmt::synthesized(
                span,
                StmtKind::Store {
                    addr: IrExpr::new(ty.clone().ptr_to(), ExprKind::LocalAddr(lid)),
                    value: zero,
                },
            ));
        } else {
            out.push(IrStmt::synthesized(
                span,
                StmtKind::Assign {
                    dst: lid,
                    value: zero,
                },
            ));
        }
    }

    fn store_into_local(
        &mut self,
        lid: LocalId,
        v: TExp,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> EvalResult<()> {
        let ty = self.local_ty(lid);
        let slot_mem = self.func.locals[lid.0 as usize].in_memory;
        if is_aggregate(&ty) {
            let src = self.addr(v, span)?;
            let dst = IrExpr::new(ty.clone().ptr_to(), ExprKind::LocalAddr(lid));
            self.flush_prelude(out);
            out.push(IrStmt::at(
                span,
                StmtKind::CopyMem {
                    dst,
                    src,
                    size: ty.size(&self.interp.ctx.types),
                },
            ));
        } else {
            let value = self.read(v, span)?;
            self.flush_prelude(out);
            if slot_mem {
                out.push(IrStmt::at(
                    span,
                    StmtKind::Store {
                        addr: IrExpr::new(ty.clone().ptr_to(), ExprKind::LocalAddr(lid)),
                        value,
                    },
                ));
            } else {
                out.push(IrStmt::at(span, StmtKind::Assign { dst: lid, value }));
            }
        }
        Ok(())
    }

    fn store_into_place(
        &mut self,
        place: TExp,
        v: TExp,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> EvalResult<()> {
        match place.val {
            TVal::PlaceReg(lid) => self.store_into_local(lid, v, span, out),
            TVal::PlaceMem(addr) => {
                if is_aggregate(&place.ty) {
                    let src = self.addr(v, span)?;
                    self.flush_prelude(out);
                    out.push(IrStmt::at(
                        span,
                        StmtKind::CopyMem {
                            dst: addr,
                            src,
                            size: place.ty.size(&self.interp.ctx.types),
                        },
                    ));
                } else {
                    let value = self.read(v, span)?;
                    self.flush_prelude(out);
                    out.push(IrStmt::at(span, StmtKind::Store { addr, value }));
                }
                Ok(())
            }
            TVal::R(_) => Err(terr("cannot assign to this expression", span)),
        }
    }

    fn cond(&mut self, e: &SpecExpr) -> EvalResult<IrExpr> {
        let t = self.expr(e, Some(&Ty::BOOL))?;
        if t.ty != Ty::BOOL {
            return Err(terr(
                format!(
                    "condition must be bool, got {}",
                    t.ty.display(&self.interp.ctx.types)
                ),
                e.span,
            ));
        }
        self.read(t, e.span)
    }

    // -- expressions -----------------------------------------------------------

    fn expr(&mut self, e: &SpecExpr, hint: Option<&Ty>) -> EvalResult<TExp> {
        let span = e.span;
        match &e.kind {
            SpecExprKind::Int(v, suffix) => {
                let ty = match suffix {
                    IntSuffix::None => match hint {
                        Some(t) if t.is_arithmetic() => t.clone(),
                        Some(Ty::Vector(s, _)) => Ty::Scalar(*s),
                        _ => {
                            if i32::try_from(*v).is_ok() {
                                Ty::INT
                            } else {
                                Ty::I64
                            }
                        }
                    },
                    IntSuffix::U => Ty::Scalar(ScalarTy::U32),
                    IntSuffix::LL => Ty::I64,
                    IntSuffix::ULL => Ty::U64,
                };
                Ok(const_num(ty, *v as f64, *v))
            }
            SpecExprKind::Float(v, is_f32) => {
                let ty = if *is_f32 { Ty::F32 } else { Ty::F64 };
                let ty = match hint {
                    Some(t @ Ty::Scalar(s)) if s.is_float() => t.clone(),
                    _ => ty,
                };
                Ok(TExp::rvalue(IrExpr::float(ty, *v)))
            }
            SpecExprKind::LuaNum(n) => {
                let ty = match hint {
                    Some(t) if t.is_arithmetic() => t.clone(),
                    Some(Ty::Vector(s, _)) => Ty::Scalar(*s),
                    _ => {
                        if n.fract() == 0.0 && *n >= i32::MIN as f64 && *n <= i32::MAX as f64 {
                            Ty::INT
                        } else {
                            Ty::F64
                        }
                    }
                };
                Ok(const_num(ty, *n, *n as i64))
            }
            SpecExprKind::Bool(b) => Ok(TExp::rvalue(IrExpr::boolean(*b))),
            SpecExprKind::Null => {
                let ty = match hint {
                    Some(t @ Ty::Ptr(_)) => t.clone(),
                    _ => Ty::U8.ptr_to(),
                };
                Ok(TExp::rvalue(IrExpr::new(ty, ExprKind::ConstNull)))
            }
            SpecExprKind::Str(s) => Ok(TExp::rvalue(IrExpr::new(
                Ty::rawstring(),
                ExprKind::ConstStr(s.as_ref().into()),
            ))),
            SpecExprKind::Sym(sym) => {
                let lid = *self.syms.get(&sym.id).ok_or_else(|| {
                    terr(
                        format!(
                            "variable '{}' is not in scope in this function (symbols cannot \
                             cross function boundaries)",
                            sym.name
                        ),
                        span,
                    )
                })?;
                let ty = self.local_ty(lid);
                if self.func.locals[lid.0 as usize].in_memory {
                    Ok(TExp::place(IrExpr::new(
                        ty.ptr_to(),
                        ExprKind::LocalAddr(lid),
                    )))
                } else {
                    Ok(TExp {
                        ty,
                        val: TVal::PlaceReg(lid),
                    })
                }
            }
            SpecExprKind::Func(id) => {
                let sig = ensure_signature(self.interp, *id, span)?;
                self.deps.insert(*id);
                let ty = Ty::Func(std::sync::Arc::new(sig));
                Ok(TExp::rvalue(IrExpr::new(ty, ExprKind::ConstFunc(*id))))
            }
            SpecExprKind::GlobalRef(g) => {
                let ty = self.interp.ctx.globals[g.0 as usize].ty.clone();
                Ok(TExp::place(IrExpr::new(
                    ty.ptr_to(),
                    ExprKind::GlobalAddr(*g),
                )))
            }
            SpecExprKind::TypeLit(_) => Err(terr(
                "a type is not a value here (types may be called as casts: T(e))",
                span,
            )),
            SpecExprKind::Intrinsic(_) => Err(terr(
                "this C function must be called, not used as a value",
                span,
            )),
            SpecExprKind::Field(obj, name) => self.field(obj, name, span),
            SpecExprKind::Index(obj, idx) => self.index(obj, idx, span),
            SpecExprKind::Call(callee, args) => self.call(callee, args, hint, span),
            SpecExprKind::MethodCall(obj, name, args) => self.method_call(obj, name, args, span),
            SpecExprKind::StructInit(ty, args) => self.struct_init(ty, args, span),
            SpecExprKind::Bin(op, l, r) => self.binop(*op, l, r, hint, span),
            SpecExprKind::Un(op, x) => self.unop(*op, x, hint, span),
            SpecExprKind::Deref(p) => {
                let t = self.expr(p, None)?;
                if !t.ty.is_pointer() {
                    return Err(terr(
                        format!(
                            "cannot dereference non-pointer type {}",
                            t.ty.display(&self.interp.ctx.types)
                        ),
                        span,
                    ));
                }
                Ok(TExp::place(self.read(t, span)?))
            }
            SpecExprKind::AddrOf(x) => {
                let t = self.expr(x, None)?;
                let addr = self.addr(t, span).map_err(|_| {
                    terr(
                        "'&' requires an addressable value (a variable, field, or index)",
                        span,
                    )
                })?;
                Ok(TExp::rvalue(addr))
            }
            SpecExprKind::LetIn(quote, line) => {
                // The value belongs to the statement that consumes it, so
                // the `in` expression is lowered outside the splice's frame.
                let mut hoisted = Vec::new();
                self.splice(quote, *line, &[], &mut hoisted)?;
                self.prelude.append(&mut hoisted);
                self.expr(&quote.exprs[0], hint)
            }
        }
    }

    fn field(&mut self, obj: &SpecExpr, name: &str, span: Span) -> EvalResult<TExp> {
        let t = self.expr(obj, None)?;
        let (sid, base_addr) = match t.ty.clone() {
            Ty::Struct(sid) => {
                let addr = self.addr(t, span)?;
                (sid, addr)
            }
            Ty::Ptr(inner) => match &*inner {
                Ty::Struct(sid) => {
                    let sid = *sid;
                    (sid, self.read(t, span)?)
                }
                _ => {
                    return Err(terr(
                        format!(
                            "cannot select field '{name}' from {}",
                            Ty::Ptr(inner.clone()).display(&self.interp.ctx.types)
                        ),
                        span,
                    ))
                }
            },
            other => {
                return Err(terr(
                    format!(
                        "cannot select field '{name}' from {}",
                        other.display(&self.interp.ctx.types)
                    ),
                    span,
                ))
            }
        };
        self.interp.finalize_struct(sid, span)?;
        let Some((offset, fty)) = self.interp.ctx.types.field(sid, name) else {
            return Err(terr(
                format!(
                    "struct {} has no field '{name}'",
                    self.interp.ctx.types.name(sid)
                ),
                span,
            ));
        };
        let addr = self.const_offset(base_addr, offset);
        Ok(TExp::place(IrExpr::new(fty.ptr_to(), addr.kind)))
    }

    fn index(&mut self, obj: &SpecExpr, idx: &SpecExpr, span: Span) -> EvalResult<TExp> {
        let t = self.expr(obj, None)?;
        let it = self.expr(idx, Some(&Ty::I64))?;
        if !it.ty.is_integer() {
            return Err(terr("index must have integer type", idx.span));
        }
        let iv = self.read(it, idx.span)?;
        match t.ty.clone() {
            Ty::Ptr(elem) => {
                let size = elem.size(&self.interp.ctx.types);
                let base = self.read(t, span)?;
                Ok(TExp::place(self.ptr_offset(base, iv, size)))
            }
            Ty::Array(elem, _) => {
                let size = elem.size(&self.interp.ctx.types);
                let base = self.addr(t, span)?;
                let base = IrExpr::new((*elem).clone().ptr_to(), base.kind);
                Ok(TExp::place(self.ptr_offset(base, iv, size)))
            }
            other => Err(terr(
                format!("cannot index {}", other.display(&self.interp.ctx.types)),
                span,
            )),
        }
    }

    fn call(
        &mut self,
        callee: &SpecExpr,
        args: &[Rc<SpecExpr>],
        hint: Option<&Ty>,
        span: Span,
    ) -> EvalResult<TExp> {
        match &callee.kind {
            SpecExprKind::TypeLit(ty) => {
                // Functional cast T(e).
                if args.len() != 1 {
                    return Err(terr("cast takes exactly one argument", span));
                }
                let t = self.expr(&args[0], Some(ty))?;
                self.explicit_cast(t, ty, args[0].span, Some(&args[0]))
            }
            SpecExprKind::Func(id) => {
                let sig = ensure_signature(self.interp, *id, span)?;
                self.deps.insert(*id);
                let fname = self.interp.ctx.funcs[id.0 as usize].name.to_string();
                let irargs = self.check_args(&sig, args, span, &fname)?;
                Ok(TExp::rvalue(IrExpr::call(
                    sig.ret.clone(),
                    Callee::Direct(*id),
                    irargs,
                )))
            }
            SpecExprKind::Intrinsic(i) => self.intrinsic_call(*i, args, hint, span),
            _ => {
                let f = self.expr(callee, None)?;
                let Ty::Func(sig) = f.ty.clone() else {
                    return Err(terr(
                        format!(
                            "cannot call value of type {}",
                            f.ty.display(&self.interp.ctx.types)
                        ),
                        span,
                    ));
                };
                let fv = self.read(f, span)?;
                let irargs = self.check_args(&sig, args, span, "function pointer")?;
                Ok(TExp::rvalue(IrExpr::call(
                    sig.ret.clone(),
                    Callee::Indirect(Box::new(fv)),
                    irargs,
                )))
            }
        }
    }

    fn check_args(
        &mut self,
        sig: &FuncTy,
        args: &[Rc<SpecExpr>],
        span: Span,
        name: &str,
    ) -> EvalResult<Vec<IrExpr>> {
        if args.len() != sig.params.len() {
            return Err(terr(
                format!(
                    "{name} expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut out = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(&sig.params) {
            let t = self.expr(a, Some(pty))?;
            let t = self.convert(t, &pty.clone(), a.span, Some(a))?;
            out.push(self.read(t, a.span)?);
        }
        Ok(out)
    }

    fn intrinsic_call(
        &mut self,
        i: Intrinsic,
        args: &[Rc<SpecExpr>],
        _hint: Option<&Ty>,
        span: Span,
    ) -> EvalResult<TExp> {
        // A call checked against the builtin's row of the `builtins!` table.
        let fixed = |c: &mut Self, b: Builtin| -> EvalResult<TExp> {
            let info = b.info();
            if args.len() != info.params.len() {
                return Err(terr(
                    format!(
                        "'{}' expects {} argument(s), got {}",
                        b.name(),
                        info.params.len(),
                        args.len()
                    ),
                    span,
                ));
            }
            let mut irargs = Vec::new();
            for (a, p) in args.iter().zip(info.params) {
                let pty = p.ty();
                let t = c.expr(a, Some(&pty))?;
                let t = c.convert(t, &pty, a.span, Some(a))?;
                irargs.push(c.read(t, a.span)?);
            }
            let call = IrExpr::call(info.ret.ty(), Callee::Builtin(b), irargs);
            Ok(TExp::rvalue(call))
        };
        match i {
            Intrinsic::Min | Intrinsic::Max => {
                if args.len() != 2 {
                    return Err(terr("min/max expect two arguments", span));
                }
                let lt = self.expr(&args[0], _hint)?;
                let rt = self.expr(&args[1], Some(&lt.ty.clone()))?;
                let (a, b) = self.unify_arith(lt, rt, &args[0], &args[1], span, true)?;
                let kind = if matches!(i, Intrinsic::Min) {
                    BinKind::Min
                } else {
                    BinKind::Max
                };
                Ok(TExp::rvalue(IrExpr::binary(kind, a, b)))
            }
            Intrinsic::Select => {
                if args.len() != 3 {
                    return Err(terr("select expects (cond, a, b)", span));
                }
                let c = self.cond(&args[0])?;
                let a = self.expr(&args[1], None)?;
                let ty = a.ty.clone();
                let a = self.convert(a, &ty, args[1].span, Some(&args[1]))?;
                let b = self.expr(&args[2], Some(&ty))?;
                let b = self.convert(b, &ty, args[2].span, Some(&args[2]))?;
                let av = self.read(a, args[1].span)?;
                let bv = self.read(b, args[2].span)?;
                Ok(TExp::rvalue(IrExpr::select(c, av, bv)))
            }
            Intrinsic::C(b) => match b {
                Builtin::Prefetch => {
                    if args.is_empty() {
                        return Err(terr("prefetch expects an address", span));
                    }
                    let t = self.expr(&args[0], None)?;
                    if !t.ty.is_pointer() {
                        return Err(terr("prefetch expects a pointer", args[0].span));
                    }
                    let addr = self.read(t, args[0].span)?;
                    // Remaining C arguments (rw/locality/cachetype hints) are
                    // typechecked and discarded.
                    for a in &args[1..] {
                        let t = self.expr(a, Some(&Ty::INT))?;
                        let _ = self.read(t, a.span)?;
                    }
                    let call =
                        IrExpr::call(Ty::Unit, Callee::Builtin(Builtin::Prefetch), vec![addr]);
                    Ok(TExp::rvalue(call))
                }
                Builtin::Printf => {
                    if args.is_empty() {
                        return Err(terr("printf expects a format string", span));
                    }
                    let fmt = self.expr(&args[0], Some(&Ty::rawstring()))?;
                    let fmt = self.convert(fmt, &Ty::rawstring(), args[0].span, Some(&args[0]))?;
                    let mut irargs = vec![self.read(fmt, args[0].span)?];
                    for a in &args[1..] {
                        let t = self.expr(a, None)?;
                        // C default argument promotions.
                        let promoted = match &t.ty {
                            Ty::Scalar(ScalarTy::F32) => {
                                self.convert(t, &Ty::F64, a.span, Some(a))?
                            }
                            Ty::Scalar(s) if s.is_integer() && s.size() < 4 => {
                                self.convert(t, &Ty::INT, a.span, Some(a))?
                            }
                            Ty::Scalar(ScalarTy::Bool) => {
                                self.convert(t, &Ty::INT, a.span, Some(a))?
                            }
                            _ => t,
                        };
                        irargs.push(self.read(promoted, a.span)?);
                    }
                    let call = IrExpr::call(Ty::INT, Callee::Builtin(Builtin::Printf), irargs);
                    Ok(TExp::rvalue(call))
                }
                _ => fixed(self, b),
            },
        }
    }

    fn method_call(
        &mut self,
        obj: &SpecExpr,
        name: &str,
        args: &[Rc<SpecExpr>],
        span: Span,
    ) -> EvalResult<TExp> {
        let t = self.expr(obj, None)?;
        let Some(sid) = struct_of(&t.ty) else {
            return Err(terr(
                format!(
                    "method call on non-struct type {}",
                    t.ty.display(&self.interp.ctx.types)
                ),
                span,
            ));
        };
        self.interp.finalize_struct(sid, span)?;
        let method = self
            .interp
            .ctx
            .struct_meta(sid)
            .methods
            .borrow()
            .get_str(name);
        let LuaValue::TerraFunc(mid) = method else {
            return Err(terr(
                format!(
                    "struct {} has no method '{name}'",
                    self.interp.ctx.types.name(sid)
                ),
                span,
            ));
        };
        let sig = ensure_signature(self.interp, mid, span)?;
        self.deps.insert(mid);
        if sig.params.is_empty() {
            return Err(terr(
                format!("method '{name}' takes no self parameter"),
                span,
            ));
        }
        // Self-argument adjustment: auto-& on l-values, pass-through for
        // pointers.
        let self_arg: IrExpr = match (&sig.params[0], &t.ty) {
            (Ty::Ptr(want), Ty::Struct(_)) if matches!(&**want, Ty::Struct(s) if *s == sid) => {
                self.addr(t, span)?
            }
            (Ty::Ptr(want), Ty::Ptr(_)) if matches!(&**want, Ty::Struct(s) if *s == sid) => {
                self.read(t, span)?
            }
            (other, _) => {
                return Err(terr(
                    format!(
                        "method '{name}' has self type {}, which is not supported \
                         (methods must take &{})",
                        other.display(&self.interp.ctx.types),
                        self.interp.ctx.types.name(sid)
                    ),
                    span,
                ))
            }
        };
        if args.len() + 1 != sig.params.len() {
            return Err(terr(
                format!(
                    "method '{name}' expects {} argument(s), got {}",
                    sig.params.len() - 1,
                    args.len()
                ),
                span,
            ));
        }
        let mut irargs = vec![self_arg];
        for (a, pty) in args.iter().zip(&sig.params[1..]) {
            let ta = self.expr(a, Some(pty))?;
            let ta = self.convert(ta, &pty.clone(), a.span, Some(a))?;
            irargs.push(self.read(ta, a.span)?);
        }
        Ok(TExp::rvalue(IrExpr::call(
            sig.ret.clone(),
            Callee::Direct(mid),
            irargs,
        )))
    }

    fn struct_init(
        &mut self,
        ty: &Ty,
        args: &[(Option<terra_syntax::Name>, Rc<SpecExpr>)],
        span: Span,
    ) -> EvalResult<TExp> {
        let Ty::Struct(sid) = ty else {
            return Err(terr("struct literal requires a struct type", span));
        };
        self.interp.finalize_struct(*sid, span)?;
        let fields: Vec<(std::sync::Arc<str>, u64, Ty)> = {
            let layout = self.interp.ctx.types.layout(*sid);
            layout
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.offset, f.ty.clone()))
                .collect()
        };
        let tmp = self.add_temp(ty.clone(), true);
        let addr = |ty: Ty| IrExpr::new(ty, ExprKind::LocalAddr(tmp));
        let base = |fty: &Ty, off: u64| {
            let at = addr(fty.clone().ptr_to());
            match off {
                0 => at,
                _ => IrExpr::binary(BinKind::Add, at, IrExpr::int64(off as i64)),
            }
        };
        // Zero first when partially initialized.
        if args.len() < fields.len() {
            let size = ty.size(&self.interp.ctx.types);
            let zero = memset(addr(Ty::U8.ptr_to()), size);
            self.prelude
                .push(IrStmt::synthesized(span, StmtKind::Expr(zero)));
        }
        for (i, (fname, fe)) in args.iter().enumerate() {
            let (_, offset, fty) = match fname {
                Some(n) => {
                    let f = fields
                        .iter()
                        .find(|(fn_, _, _)| **fn_ == **n)
                        .ok_or_else(|| {
                            terr(
                                format!(
                                    "struct {} has no field '{n}'",
                                    self.interp.ctx.types.name(*sid)
                                ),
                                fe.span,
                            )
                        })?;
                    f.clone()
                }
                None => fields
                    .get(i)
                    .cloned()
                    .ok_or_else(|| terr("too many initializers for struct", fe.span))?,
            };
            let t = self.expr(fe, Some(&fty))?;
            let t = self.convert(t, &fty, fe.span, Some(fe))?;
            if is_aggregate(&fty) {
                let src = self.addr(t, fe.span)?;
                let dst = base(&fty, offset);
                let size = fty.size(&self.interp.ctx.types);
                self.prelude
                    .push(IrStmt::at(fe.span, StmtKind::CopyMem { dst, src, size }));
            } else {
                let v = self.read(t, fe.span)?;
                let addr = base(&fty, offset);
                self.prelude
                    .push(IrStmt::at(fe.span, StmtKind::Store { addr, value: v }));
            }
        }
        Ok(TExp::place(addr(ty.clone().ptr_to())))
    }

    fn binop(
        &mut self,
        op: BinOp,
        l: &Rc<SpecExpr>,
        r: &Rc<SpecExpr>,
        hint: Option<&Ty>,
        span: Span,
    ) -> EvalResult<TExp> {
        use BinOp::*;
        match op {
            And | Or => {
                let lt = self.expr(l, hint)?;
                if lt.ty == Ty::BOOL {
                    // Short-circuit via lazy Select.
                    let c = self.read(lt, l.span)?;
                    let rt = self.expr(r, Some(&Ty::BOOL))?;
                    if rt.ty != Ty::BOOL {
                        return Err(terr("logical operator requires bool operands", r.span));
                    }
                    let rv = self.read(rt, r.span)?;
                    let (tv, fv) = if op == And {
                        (rv, IrExpr::boolean(false))
                    } else {
                        (IrExpr::boolean(true), rv)
                    };
                    return Ok(TExp::rvalue(IrExpr::select(c, tv, fv)));
                }
                // Integer bitwise and/or.
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                let (a, b) = self.unify_arith(lt, rt, l, r, span, false)?;
                if !a.ty.is_integer() {
                    return Err(terr("bitwise and/or requires integer operands", span));
                }
                let kind = if op == And { BinKind::And } else { BinKind::Or };
                Ok(TExp::rvalue(IrExpr::binary(kind, a, b)))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let lt = self.expr(l, None)?;
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                let ck = match op {
                    Eq => CmpKind::Eq,
                    Ne => CmpKind::Ne,
                    Lt => CmpKind::Lt,
                    Le => CmpKind::Le,
                    Gt => CmpKind::Gt,
                    Ge => CmpKind::Ge,
                    _ => unreachable!(),
                };
                // Pointer comparisons.
                if lt.ty.is_pointer() || rt.ty.is_pointer() {
                    let target = if lt.ty.is_pointer() { &lt.ty } else { &rt.ty }.clone();
                    let a0 = self.convert(lt, &target, l.span, Some(l))?;
                    let b0 = self.convert(rt, &target, r.span, Some(r))?;
                    let a = self.read(a0, l.span)?;
                    let b = self.read(b0, r.span)?;
                    return Ok(TExp::rvalue(IrExpr::cmp(ck, a, b)));
                }
                if lt.ty == Ty::BOOL && rt.ty == Ty::BOOL && matches!(op, Eq | Ne) {
                    let a = self.read(lt, l.span)?;
                    let b = self.read(rt, r.span)?;
                    return Ok(TExp::rvalue(IrExpr::cmp(ck, a, b)));
                }
                let (a, b) = self.unify_arith(lt, rt, l, r, span, false)?;
                Ok(TExp::rvalue(IrExpr::cmp(ck, a, b)))
            }
            Add | Sub => {
                let lt = self.expr(l, hint)?;
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                // Pointer arithmetic.
                if let Ty::Ptr(elem) = lt.ty.clone() {
                    let size = elem.size(&self.interp.ctx.types);
                    if rt.ty.is_integer() {
                        let base = self.read(lt, l.span)?;
                        let idx = self.read(rt, r.span)?;
                        let idx = if op == Sub {
                            IrExpr::unary(UnKind::Neg, idx)
                        } else {
                            idx
                        };
                        return Ok(TExp::rvalue(self.ptr_offset(base, idx, size)));
                    }
                    if rt.ty.is_pointer() && op == Sub {
                        let a = self.read(lt, l.span)?;
                        let b = self.read(rt, r.span)?;
                        // The two addresses, re-typed as `int64`s.
                        let (a, b) = (IrExpr::new(Ty::I64, a.kind), IrExpr::new(Ty::I64, b.kind));
                        let diff = IrExpr::binary(BinKind::Sub, a, b);
                        let result =
                            IrExpr::binary(BinKind::Div, diff, IrExpr::int64(size.max(1) as i64));
                        return Ok(TExp::rvalue(result));
                    }
                    return Err(terr("invalid pointer arithmetic", span));
                }
                let kind = match op {
                    Add => BinKind::Add,
                    _ => BinKind::Sub,
                };
                self.arith(kind, lt, rt, l, r, span)
            }
            Mul | Div | Mod => {
                let lt = self.expr(l, hint)?;
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                let kind = match op {
                    Mul => BinKind::Mul,
                    Div => BinKind::Div,
                    _ => BinKind::Rem,
                };
                self.arith(kind, lt, rt, l, r, span)
            }
            Pow => {
                let lt = self.expr(l, hint)?;
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                if lt.ty.is_integer() && rt.ty.is_integer() {
                    return self.arith(BinKind::Xor, lt, rt, l, r, span);
                }
                // Floating pow via the C library.
                let a0 = self.convert(lt, &Ty::F64, l.span, Some(l))?;
                let b0 = self.convert(rt, &Ty::F64, r.span, Some(r))?;
                let a = self.read(a0, l.span)?;
                let b = self.read(b0, r.span)?;
                let call = IrExpr::call(Ty::F64, Callee::Builtin(Builtin::Pow), vec![a, b]);
                Ok(TExp::rvalue(call))
            }
            Shl | Shr => {
                let lt = self.expr(l, hint)?;
                let rt = self.expr(r, Some(&lt.ty.clone()))?;
                if !lt.ty.is_integer() || !rt.ty.is_integer() {
                    return Err(terr("shift requires integer operands", span));
                }
                let kind = match op {
                    Shl => BinKind::Shl,
                    _ => BinKind::Shr,
                };
                let a = self.read(lt, l.span)?;
                let b = self.read(rt, r.span)?;
                Ok(TExp::rvalue(IrExpr::binary(kind, a, b)))
            }
            Concat => Err(terr("'..' is not a Terra operator", span)),
        }
    }

    fn arith(
        &mut self,
        kind: BinKind,
        lt: TExp,
        rt: TExp,
        l: &Rc<SpecExpr>,
        r: &Rc<SpecExpr>,
        span: Span,
    ) -> EvalResult<TExp> {
        let (a, b) = self.unify_arith(lt, rt, l, r, span, kind != BinKind::Rem)?;
        Ok(TExp::rvalue(IrExpr::binary(kind, a, b)))
    }

    /// Unifies two arithmetic operands, inserting conversions; vector ones
    /// only where `vectors` (the VM has no vector `%` or comparison).
    fn unify_arith(
        &mut self,
        lt: TExp,
        rt: TExp,
        l: &Rc<SpecExpr>,
        r: &Rc<SpecExpr>,
        span: Span,
        vectors: bool,
    ) -> EvalResult<(IrExpr, IrExpr)> {
        let target: Ty = match (&lt.ty, &rt.ty) {
            (Ty::Vector(..), _) | (_, Ty::Vector(..)) if !vectors => {
                return Err(terr("operator is not defined on vectors", span))
            }
            (Ty::Vector(s1, n1), Ty::Vector(s2, n2)) => {
                if s1 != s2 || n1 != n2 {
                    return Err(terr("vector operands must have identical types", span));
                }
                lt.ty.clone()
            }
            (Ty::Vector(..), t2) if t2.is_arithmetic() => lt.ty.clone(),
            (t1, Ty::Vector(..)) if t1.is_arithmetic() => rt.ty.clone(),
            (Ty::Scalar(s1), Ty::Scalar(s2))
                if (s1.is_integer() || s1.is_float()) && (s2.is_integer() || s2.is_float()) =>
            {
                if s1.conversion_rank() >= s2.conversion_rank() {
                    lt.ty.clone()
                } else {
                    rt.ty.clone()
                }
            }
            (t1, t2) => {
                return Err(terr(
                    format!(
                        "invalid operand types {} and {}",
                        t1.display(&self.interp.ctx.types),
                        t2.display(&self.interp.ctx.types)
                    ),
                    span,
                ))
            }
        };
        let lt = self.convert(lt, &target, l.span, Some(l))?;
        let rt = self.convert(rt, &target, r.span, Some(r))?;
        let a = self.read(lt, l.span)?;
        let b = self.read(rt, r.span)?;
        Ok((a, b))
    }

    fn unop(&mut self, op: UnOp, x: &SpecExpr, hint: Option<&Ty>, span: Span) -> EvalResult<TExp> {
        let t = self.expr(x, hint)?;
        match op {
            UnOp::Neg => {
                let ty = t.ty.clone();
                if !(ty.is_arithmetic() || matches!(ty, Ty::Vector(..))) {
                    return Err(terr(
                        format!("cannot negate {}", ty.display(&self.interp.ctx.types)),
                        span,
                    ));
                }
                let v = self.read(t, span)?;
                Ok(TExp::rvalue(IrExpr::unary(UnKind::Neg, v)))
            }
            UnOp::Not => {
                let ty = t.ty.clone();
                if ty != Ty::BOOL && !ty.is_integer() {
                    return Err(terr("'not' requires a bool or integer operand", span));
                }
                let v = self.read(t, span)?;
                Ok(TExp::rvalue(IrExpr::unary(UnKind::Not, v)))
            }
            UnOp::Len => Err(terr("'#' is not a Terra operator", span)),
        }
    }

    // -- conversions ---------------------------------------------------------

    /// Implicit conversion with user-`__cast` fallback.
    fn convert(
        &mut self,
        t: TExp,
        target: &Ty,
        span: Span,
        origin: Option<&Rc<SpecExpr>>,
    ) -> EvalResult<TExp> {
        if &t.ty == target {
            return Ok(t);
        }
        if let Some(res) = self.try_implicit(&t, target, span)? {
            return Ok(res);
        }
        // User-defined conversions when structs are involved.
        if let Some(origin) = origin {
            if let Some(res) = self.try_user_cast(&t.ty.clone(), target, origin, span)? {
                return Ok(res);
            }
        }
        Err(terr(
            format!(
                "cannot convert {} to {}",
                t.ty.display(&self.interp.ctx.types),
                target.display(&self.interp.ctx.types)
            ),
            span,
        ))
    }

    fn try_implicit(&mut self, t: &TExp, target: &Ty, span: Span) -> EvalResult<Option<TExp>> {
        // Arithmetic conversions.
        if t.ty.is_arithmetic() && target.is_arithmetic() {
            let v = self.read(t.clone(), span)?;
            return Ok(Some(TExp::rvalue(IrExpr::cast(target.clone(), v))));
        }
        if t.ty == Ty::BOOL && target.is_arithmetic() {
            let v = self.read(t.clone(), span)?;
            return Ok(Some(TExp::rvalue(IrExpr::cast(target.clone(), v))));
        }
        // Scalar → vector broadcast.
        if let Ty::Vector(s, _) = target {
            if t.ty.is_arithmetic() || t.ty == Ty::BOOL {
                let scalar = Ty::Scalar(*s);
                let v0 = self.convert(t.clone(), &scalar, span, None)?;
                let v = self.read(v0, span)?;
                return Ok(Some(TExp::rvalue(IrExpr::cast(target.clone(), v))));
            }
        }
        // Null to any pointer.
        if matches!(&t.val, TVal::R(e) if e.kind == ExprKind::ConstNull) && target.is_pointer() {
            return Ok(Some(TExp::rvalue(IrExpr::new(
                target.clone(),
                ExprKind::ConstNull,
            ))));
        }
        // void* (modeled as &uint8) to/from any pointer.
        let voidish = |ty: &Ty| matches!(ty, Ty::Ptr(p) if **p == Ty::U8);
        if t.ty.is_pointer() && target.is_pointer() && (voidish(&t.ty) || voidish(target)) {
            let v = self.read(t.clone(), span)?;
            return Ok(Some(TExp::rvalue(IrExpr::cast(target.clone(), v))));
        }
        // Array decay.
        if let (Ty::Array(elem, _), Ty::Ptr(want)) = (&t.ty, target) {
            if elem == want {
                let addr = self.addr(t.clone(), span)?;
                return Ok(Some(TExp::rvalue(IrExpr::new(target.clone(), addr.kind))));
            }
        }
        Ok(None)
    }

    fn try_user_cast(
        &mut self,
        from: &Ty,
        target: &Ty,
        origin: &Rc<SpecExpr>,
        span: Span,
    ) -> EvalResult<Option<TExp>> {
        let candidates: Vec<terra_ir::StructId> = [struct_of(from), struct_of(target)]
            .into_iter()
            .flatten()
            .collect();
        for sid in candidates {
            let mm = self
                .interp
                .ctx
                .struct_meta(sid)
                .metamethods
                .borrow()
                .get_str("__cast");
            if !mm.truthy() {
                continue;
            }
            let quote = LuaValue::Quote(SpecQuote::of_expr(Rc::clone(origin), span));
            let result = self.interp.call_value(
                mm,
                vec![
                    LuaValue::Type(from.clone()),
                    LuaValue::Type(target.clone()),
                    quote,
                ],
                span,
            );
            match result {
                Ok(values) => {
                    let v = values.into_iter().next().unwrap_or(LuaValue::Nil);
                    let spec = crate::spec::lua_to_spec(v, span)?;
                    let t = self.expr(&spec, Some(target))?;
                    if &t.ty == target {
                        return Ok(Some(t));
                    }
                    if let Some(conv) = self.try_implicit(&t, target, span)? {
                        return Ok(Some(conv));
                    }
                    return Err(terr(
                        format!(
                            "__cast produced {} instead of {}",
                            t.ty.display(&self.interp.ctx.types),
                            target.display(&self.interp.ctx.types)
                        ),
                        span,
                    ));
                }
                Err(_) => continue, // this type's __cast rejected; try the other
            }
        }
        Ok(None)
    }

    /// Explicit cast `T(e)`: everything implicit, plus pointer↔pointer,
    /// pointer↔integer, and float→int conversions.
    fn explicit_cast(
        &mut self,
        t: TExp,
        target: &Ty,
        span: Span,
        origin: Option<&Rc<SpecExpr>>,
    ) -> EvalResult<TExp> {
        if &t.ty == target {
            return Ok(t);
        }
        if let Some(res) = self.try_implicit(&t, target, span)? {
            return Ok(res);
        }
        let ok = matches!(
            (&t.ty, target),
            (Ty::Ptr(_), Ty::Ptr(_))
                | (Ty::Ptr(_), Ty::Func(_))
                | (Ty::Func(_), Ty::Ptr(_))
                | (Ty::Func(_), Ty::Func(_))
        ) || (t.ty.is_pointer() && target.is_integer())
            || (t.ty.is_integer() && target.is_pointer())
            || matches!((&t.ty, target), (Ty::Array(..), Ty::Ptr(_)));
        if ok {
            let v = match (&t.ty, &t.val) {
                (Ty::Array(..), _) => self.addr(t.clone(), span)?,
                _ => self.read(t, span)?,
            };
            return Ok(TExp::rvalue(IrExpr::cast(target.clone(), v)));
        }
        if let Some(origin) = origin {
            if let Some(res) = self.try_user_cast(&t.ty.clone(), target, origin, span)? {
                return Ok(res);
            }
        }
        Err(terr(
            format!(
                "invalid cast from {} to {}",
                t.ty.display(&self.interp.ctx.types),
                target.display(&self.interp.ctx.types)
            ),
            span,
        ))
    }
}

/// Zero value of a register-class type.
fn zero_of(ty: &Ty) -> IrExpr {
    let kind = match ty {
        Ty::Scalar(s) if s.is_float() => ExprKind::ConstFloat(0.0),
        Ty::Scalar(ScalarTy::Bool) => ExprKind::ConstBool(false),
        Ty::Ptr(_) | Ty::Func(_) => ExprKind::ConstNull,
        // A vector zero is a splat of its element's zero; a bare integer
        // constant with vector type would be ill-typed IR.
        Ty::Vector(s, _) => ExprKind::Cast(Box::new(zero_of(&Ty::Scalar(*s)))),
        _ => ExprKind::ConstInt(0),
    };
    IrExpr::new(ty.clone(), kind)
}

/// `memset(addr, 0, size)`, the zeroing of an aggregate.
fn memset(addr: IrExpr, size: u64) -> IrExpr {
    let args = vec![
        addr,
        IrExpr::int32(0),
        IrExpr::new(Ty::U64, ExprKind::ConstInt(size as i64)),
    ];
    IrExpr::call(Ty::U8.ptr_to(), Callee::Builtin(Builtin::Memset), args)
}

/// A constant of type `ty`: `n` for a float or a `bool`, `int` for an
/// integer (exact past 2⁵³, where `n` is not).
fn const_num(ty: Ty, n: f64, int: i64) -> TExp {
    TExp::rvalue(match ty {
        Ty::Scalar(s) if s.is_float() => IrExpr::float(ty, n),
        Ty::Scalar(ScalarTy::Bool) => IrExpr::new(ty, ExprKind::ConstBool(n != 0.0)),
        _ => IrExpr::new(ty, ExprKind::ConstInt(int)),
    })
}
