//! Eager specialization of Terra code (the `→S` judgment of Terra Core).
//!
//! Specialization runs when a `terra` definition or `quote` is *evaluated*
//! by Lua. It walks the parsed Terra AST and:
//!
//! - evaluates every escape `[e]` and type annotation in the current (shared)
//!   lexical environment, splicing the resulting Lua values in;
//! - hygienically renames every Terra-introduced variable to a fresh
//!   [`SymbolRef`], binding the name to the symbol in the shared environment
//!   so escaped Lua code can refer to it (rules SLET/SVAR/LTDEFN) — the
//!   scopes opened and the order names are bound in are the ones the parser
//!   assumed when it resolved every identifier to a slot;
//! - resolves free identifiers through the shared environment, converting
//!   Lua values to Terra terms (numbers to constants, Terra functions to
//!   function references, types to type literals, quotes by splicing).
//!
//! The result is a [`SpecFunc`] / [`SpecQuote`]: closed Terra code that no
//! longer mentions the Lua environment — mutating a Lua variable after
//! definition cannot change the function (§4.1 "eager specialization").

use crate::error::{EvalResult, LuaError, Phase};
use crate::interp::Interp;
use crate::value::{LuaValue, SymbolRef};
use std::rc::Rc;
use terra_ir::{FuncId, GlobalId, Ty};
use terra_syntax::{
    BinOp, DeclName, IntSuffix, LuaExpr, Name, Span, TerraExpr, TerraFuncDef, TerraQuote,
    TerraStmt, UnOp,
};

/// A specialized Terra expression. The tree is immutable once built and
/// shared by reference: a splice points at the quote it splices, so neither
/// this type nor [`SpecStmt`] nor [`SpecQuote`] is `Clone`.
#[derive(Debug)]
pub struct SpecExpr {
    /// Node kind.
    pub kind: SpecExprKind,
    /// Source location.
    pub span: Span,
}

/// Specialized expression kinds.
#[derive(Debug)]
pub enum SpecExprKind {
    /// Integer literal.
    Int(i64, IntSuffix),
    /// Float literal (`is_f32` for `f`-suffixed).
    Float(f64, bool),
    /// Boolean literal.
    Bool(bool),
    /// `nil` — the null pointer.
    Null,
    /// String literal.
    Str(Name),
    /// A numeric constant spliced from Lua; adapts to integer or floating
    /// type during typechecking.
    LuaNum(f64),
    /// A (hygienically renamed) variable.
    Sym(SymbolRef),
    /// Reference to a Terra function.
    Func(FuncId),
    /// Reference to a Terra global.
    GlobalRef(GlobalId),
    /// A type used as a value (cast callee / struct-literal head).
    TypeLit(Ty),
    /// A Terra intrinsic used as a callee (simulated C function, `select`).
    Intrinsic(crate::value::Intrinsic),
    /// Field selection on a struct value or pointer.
    Field(Rc<SpecExpr>, Name),
    /// Pointer/array indexing.
    Index(Rc<SpecExpr>, Rc<SpecExpr>),
    /// Call (direct, indirect, cast — resolved by the typechecker from the
    /// callee's kind/type).
    Call(Rc<SpecExpr>, Vec<Rc<SpecExpr>>),
    /// Method call, desugared by the typechecker via the receiver's static
    /// type (paper: `obj:m(a)` ⇒ `[T.methods.m](obj, a)`). A struct-valued
    /// receiver is in memory as an aggregate; a pointer one needs no address.
    MethodCall(Rc<SpecExpr>, Name, Vec<Rc<SpecExpr>>),
    /// Struct literal `T { … }`.
    StructInit(Ty, Vec<(Option<Name>, Rc<SpecExpr>)>),
    /// Binary operator.
    Bin(BinOp, Rc<SpecExpr>, Rc<SpecExpr>),
    /// Unary operator.
    Un(UnOp, Rc<SpecExpr>),
    /// `@e`
    Deref(Rc<SpecExpr>),
    /// `&e`. Built only by [`SpecExpr::addr_of`].
    AddrOf(Rc<SpecExpr>),
    /// A statement-carrying quote (`quote s… in e end`, exactly one `in`
    /// expression) spliced in expression position, and the 1-based source
    /// line of the splice site (it feeds provenance chains).
    LetIn(Rc<SpecQuote>, u32),
}

impl SpecExpr {
    /// Builds a node.
    pub fn new(kind: SpecExprKind, span: Span) -> Rc<SpecExpr> {
        Rc::new(SpecExpr { kind, span })
    }

    /// `&x`. When `x` is a variable, the variable has to live in memory:
    /// that is recorded on its symbol here, where the fact is created.
    pub fn addr_of(x: Rc<SpecExpr>, span: Span) -> Rc<SpecExpr> {
        if let SpecExprKind::Sym(s) = &x.kind {
            s.addr_taken.set(true);
        }
        SpecExpr::new(SpecExprKind::AddrOf(x), span)
    }
}

/// A specialized Terra statement.
#[derive(Debug)]
pub enum SpecStmt {
    /// Variable declaration.
    Var {
        /// Declared symbols with optional annotated types.
        decls: Vec<(SymbolRef, Option<Ty>)>,
        /// Initializers.
        inits: Vec<Rc<SpecExpr>>,
        /// Location.
        span: Span,
    },
    /// Assignment.
    Assign {
        /// L-value targets.
        targets: Vec<Rc<SpecExpr>>,
        /// Right-hand sides.
        exprs: Vec<Rc<SpecExpr>>,
        /// Location.
        span: Span,
    },
    /// Conditional.
    If {
        /// `(cond, body)` arms.
        arms: Vec<(Rc<SpecExpr>, Rc<[SpecStmt]>)>,
        /// Else body.
        else_body: Option<Rc<[SpecStmt]>>,
        /// Location.
        span: Span,
    },
    /// While loop.
    While {
        /// Condition.
        cond: Rc<SpecExpr>,
        /// Body.
        body: Rc<[SpecStmt]>,
        /// Location.
        span: Span,
    },
    /// Repeat-until loop.
    Repeat {
        /// Body.
        body: Rc<[SpecStmt]>,
        /// Exit condition.
        cond: Rc<SpecExpr>,
        /// Location.
        span: Span,
    },
    /// Numeric for (half-open). When `parallel`, iterations may run
    /// concurrently (step 1), so the typechecker extracts the body into a
    /// kernel function.
    For {
        /// `parallelfor` rather than `for`.
        parallel: bool,
        /// Loop symbol.
        sym: SymbolRef,
        /// Optional annotated type.
        ty: Option<Ty>,
        /// Start.
        start: Rc<SpecExpr>,
        /// Exclusive stop.
        stop: Rc<SpecExpr>,
        /// Optional step.
        step: Option<Rc<SpecExpr>>,
        /// Body.
        body: Rc<[SpecStmt]>,
        /// Location.
        span: Span,
    },
    /// Return.
    Return(Vec<Rc<SpecExpr>>, Span),
    /// Break.
    Break(Span),
    /// Scoped block.
    Block(Rc<[SpecStmt]>, Span),
    /// Expression statement.
    Expr(Rc<SpecExpr>),
    /// Deferred call (runs at scope exit).
    Defer(Rc<SpecExpr>, Span),
    /// A `quote` spliced at a statement-position escape. The typechecker
    /// lowers its statements, then its `in` expressions as expression
    /// statements, and stamps the resulting IR with a provenance frame for
    /// the splice.
    Spliced {
        /// The quote, shared with the Lua value it came from.
        quote: Rc<SpecQuote>,
        /// 1-based source line of the splice site.
        line: u32,
        /// Location of the splice.
        span: Span,
    },
}

/// A specialized quotation: the value of `quote … end` / `` `e ``.
#[derive(Debug)]
pub struct SpecQuote {
    /// Quoted statements.
    pub stmts: Rc<[SpecStmt]>,
    /// Trailing `in` expressions (or the single backtick expression).
    pub exprs: Vec<Rc<SpecExpr>>,
    /// Location.
    pub span: Span,
}

impl SpecQuote {
    /// The statement-free quote of one expression: what a macro argument, an
    /// operator on staged values and a `__cast` origin are.
    pub fn of_expr(e: Rc<SpecExpr>, span: Span) -> Rc<SpecQuote> {
        Rc::new(SpecQuote {
            stmts: Rc::new([]),
            exprs: vec![e],
            span,
        })
    }
}

/// A fully specialized Terra function awaiting (lazy) typechecking.
#[derive(Debug)]
pub struct SpecFunc {
    /// Name for diagnostics.
    pub name: Rc<str>,
    /// Parameters: symbol + resolved Terra type.
    pub params: Vec<(SymbolRef, Ty)>,
    /// Annotated return type (`None` = infer).
    pub ret: Option<Ty>,
    /// Body.
    pub body: Rc<[SpecStmt]>,
    /// Definition site.
    pub span: Span,
}

/// Either a Terra term or a Lua value, produced while specializing an
/// expression. Lua values stay symbolic as long as possible so that nested
/// table sugar (`std.malloc`) and compile-time calls (`sizeof(T)`) work
/// without explicit escapes.
pub enum SpecVal {
    /// A Terra term.
    Terra(Rc<SpecExpr>),
    /// A Lua value not yet converted.
    Lua(LuaValue, Span),
}

impl SpecVal {
    /// Forces conversion to a Terra term.
    pub fn into_terra(self) -> EvalResult<Rc<SpecExpr>> {
        match self {
            SpecVal::Terra(e) => Ok(e),
            SpecVal::Lua(v, span) => lua_to_spec(v, span),
        }
    }
}

fn err(msg: impl Into<String>, span: Span) -> LuaError {
    LuaError::at(msg, span).phase(Phase::Specialize)
}

/// Converts a Lua value to a Terra term (rules SVAR/SESC: only a subset of
/// Lua values are Terra terms).
pub fn lua_to_spec(v: LuaValue, span: Span) -> EvalResult<Rc<SpecExpr>> {
    let kind = match v {
        LuaValue::Number(n) => SpecExprKind::LuaNum(n),
        LuaValue::Bool(b) => SpecExprKind::Bool(b),
        LuaValue::Str(s) => SpecExprKind::Str(s),
        LuaValue::Nil => SpecExprKind::Null,
        LuaValue::TerraFunc(id) => SpecExprKind::Func(id),
        LuaValue::Type(t) => SpecExprKind::TypeLit(t),
        LuaValue::Symbol(s) => SpecExprKind::Sym(s),
        LuaValue::Global(g) => SpecExprKind::GlobalRef(g),
        LuaValue::Intrinsic(i) => SpecExprKind::Intrinsic(i),
        LuaValue::Quote(q) => return splice_quote_expr(q, span),
        LuaValue::Table(_) => {
            return Err(err(
                "a Lua table is not a Terra value (did you mean to index it, or use a quote?)",
                span,
            ))
        }
        LuaValue::Function(_) | LuaValue::Native(_) => {
            return Err(err(
                "a Lua function is not a Terra value; wrap it with terralib.macro or define a terra function",
                span,
            ))
        }
        LuaValue::Macro(_) => {
            return Err(err("a macro must be called, not used as a value", span))
        }
    };
    Ok(SpecExpr::new(kind, span))
}

/// Splices a quote into expression position: a statement-free quote *is* the
/// expression it quotes (so lvalues, type heads and `&[q]` see through it).
fn splice_quote_expr(q: Rc<SpecQuote>, span: Span) -> EvalResult<Rc<SpecExpr>> {
    match (&q.exprs[..], q.stmts.is_empty()) {
        ([e], true) => Ok(Rc::clone(e)),
        ([_], false) => Ok(SpecExpr::new(SpecExprKind::LetIn(q, span.line), span)),
        ([], _) => Err(err(
            "quote contains only statements and cannot be used as an expression",
            span,
        )),
        _ => Err(err(
            "quote yields multiple expressions; only one can be spliced here",
            span,
        )),
    }
}

/// The specializer. Borrows the interpreter to evaluate escapes and type
/// annotations in the shared lexical environment.
pub struct Specializer<'a> {
    interp: &'a mut Interp,
    env: crate::env::Env,
}

impl<'a> Specializer<'a> {
    /// Creates a specializer rooted at `env` (the definition site's scope).
    pub fn new(interp: &'a mut Interp, env: crate::env::Env) -> Self {
        Specializer { interp, env }
    }

    /// Specializes a `terra` function definition (rule LTDEFN).
    pub fn function(&mut self, def: &TerraFuncDef, name: Rc<str>) -> EvalResult<SpecFunc> {
        // Parameters and body live in a child of the definition environment.
        let saved = self.enter_child();
        let mut params: Vec<(SymbolRef, Ty)> = Vec::new();
        for p in &def.params {
            match &p.name {
                DeclName::Ident(n, span) => {
                    let ty_expr = p
                        .ty
                        .as_ref()
                        .ok_or_else(|| err(format!("parameter '{n}' requires a type"), *span))?;
                    let ty = self.eval_type(ty_expr)?;
                    let sym = self.interp.ctx.fresh_symbol(n.clone(), Some(ty.clone()));
                    self.env.declare(LuaValue::Symbol(sym.clone()));
                    params.push((sym, ty));
                }
                DeclName::Escape(e, span) => {
                    let v = self.interp.eval_expr(e, &self.env)?;
                    let syms = collect_symbols(v, *span)?;
                    let annotated = match &p.ty {
                        Some(t) => Some(self.eval_type(t)?),
                        None => None,
                    };
                    for sym in syms {
                        let ty = match (&annotated, sym.ty.borrow().clone()) {
                            (Some(t), _) => t.clone(),
                            (None, Some(t)) => t,
                            (None, None) => {
                                return Err(err(
                                    format!("escaped parameter symbol '{}' has no type", sym.name),
                                    *span,
                                ))
                            }
                        };
                        *sym.ty.borrow_mut() = Some(ty.clone());
                        params.push((sym, ty));
                    }
                }
            }
        }
        let ret = match &def.ret {
            Some(e) => Some(self.eval_type(e)?),
            None => None,
        };
        let body = self.block(&def.body)?;
        self.leave(saved);
        Ok(SpecFunc {
            name,
            params,
            ret,
            body,
            span: def.span,
        })
    }

    /// Specializes a quotation (rule LTQUOTE + SLET hygiene).
    pub fn quote(&mut self, q: &TerraQuote) -> EvalResult<SpecQuote> {
        let saved = self.enter_child();
        let stmts = self.block_no_scope(&q.stmts)?;
        let exprs = self.exprs_terra(&q.exprs)?;
        self.leave(saved);
        Ok(SpecQuote {
            stmts,
            exprs,
            span: q.span,
        })
    }

    fn enter_child(&mut self) -> crate::env::Env {
        let saved = self.env.clone();
        self.env = self.env.child(0);
        saved
    }

    fn leave(&mut self, saved: crate::env::Env) {
        self.env = saved;
    }

    /// Evaluates a type annotation (a Lua expression) to a Terra type.
    fn eval_type(&mut self, e: &LuaExpr) -> EvalResult<Ty> {
        let v = self.interp.eval_expr(e, &self.env)?;
        self.interp.value_to_type(v, e.span())
    }

    fn block(&mut self, stmts: &[TerraStmt]) -> EvalResult<Rc<[SpecStmt]>> {
        let saved = self.enter_child();
        let out = self.block_no_scope(stmts);
        self.leave(saved);
        out
    }

    fn block_no_scope(&mut self, stmts: &[TerraStmt]) -> EvalResult<Rc<[SpecStmt]>> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out.into())
    }

    fn decl_symbol(&mut self, name: &DeclName, ty: Option<Ty>) -> EvalResult<SymbolRef> {
        match name {
            DeclName::Ident(n, _) => {
                let sym = self.interp.ctx.fresh_symbol(n.clone(), ty);
                // Bind *after* initializers are specialized; callers arrange
                // ordering. Binding is done by `bind_symbol`.
                Ok(sym)
            }
            DeclName::Escape(e, span) => {
                let v = self.interp.eval_expr(e, &self.env)?;
                match v {
                    LuaValue::Symbol(s) => {
                        if let Some(t) = ty {
                            *s.ty.borrow_mut() = Some(t);
                        }
                        Ok(s)
                    }
                    other => Err(err(
                        format!(
                            "expected a symbol in declaration but got {}",
                            other.type_name()
                        ),
                        *span,
                    )),
                }
            }
        }
    }

    fn bind_symbol(&mut self, name: &DeclName, sym: &SymbolRef) {
        if let DeclName::Ident(..) = name {
            self.env.declare(LuaValue::Symbol(sym.clone()));
        }
    }

    fn stmt(&mut self, s: &TerraStmt, out: &mut Vec<SpecStmt>) -> EvalResult<()> {
        match s {
            TerraStmt::Var { decls, inits, span } => {
                // Initializers are specialized in the *outer* scope…
                let inits = self.exprs_terra(inits)?;
                // …then the names are bound (hygienic let).
                let mut sdecls = Vec::with_capacity(decls.len());
                for (name, ty_expr) in decls {
                    let ty = match ty_expr {
                        Some(t) => Some(self.eval_type(t)?),
                        None => None,
                    };
                    let sym = self.decl_symbol(name, ty.clone())?;
                    self.bind_symbol(name, &sym);
                    sdecls.push((sym, ty));
                }
                out.push(SpecStmt::Var {
                    decls: sdecls,
                    inits,
                    span: *span,
                });
            }
            TerraStmt::Assign {
                targets,
                exprs,
                span,
            } => {
                let targets = self.exprs_terra(targets)?;
                let exprs = self.exprs_terra(exprs)?;
                out.push(SpecStmt::Assign {
                    targets,
                    exprs,
                    span: *span,
                });
            }
            TerraStmt::If {
                arms,
                else_body,
                span,
            } => {
                let mut sarms = Vec::with_capacity(arms.len());
                for (c, body) in arms {
                    let c = self.expr_terra(c)?;
                    sarms.push((c, self.block(body)?));
                }
                let else_body = match else_body {
                    Some(b) => Some(self.block(b)?),
                    None => None,
                };
                out.push(SpecStmt::If {
                    arms: sarms,
                    else_body,
                    span: *span,
                });
            }
            TerraStmt::While { cond, body, span } => {
                let cond = self.expr_terra(cond)?;
                let body = self.block(body)?;
                out.push(SpecStmt::While {
                    cond,
                    body,
                    span: *span,
                });
            }
            TerraStmt::Repeat { body, cond, span } => {
                // The condition sees the body's scope in Lua; mirror that.
                let saved = self.enter_child();
                let body = self.block_no_scope(body)?;
                let cond = self.expr_terra(cond)?;
                self.leave(saved);
                out.push(SpecStmt::Repeat {
                    body,
                    cond,
                    span: *span,
                });
            }
            TerraStmt::For {
                parallel,
                var,
                ty,
                start,
                stop,
                step,
                body,
                span,
            } => {
                let start = self.expr_terra(start)?;
                let stop = self.expr_terra(stop)?;
                let step = match step {
                    Some(e) => Some(self.expr_terra(e)?),
                    None => None,
                };
                let ty = match ty {
                    Some(t) => Some(self.eval_type(t)?),
                    None => None,
                };
                // An escaped loop variable is evaluated outside the loop's
                // scope, where it is written.
                let sym = self.decl_symbol(var, ty.clone())?;
                let saved = self.enter_child();
                self.bind_symbol(var, &sym);
                let body = self.block_no_scope(body)?;
                self.leave(saved);
                out.push(SpecStmt::For {
                    parallel: *parallel,
                    sym,
                    ty,
                    start,
                    stop,
                    step,
                    body,
                    span: *span,
                });
            }
            TerraStmt::Return { exprs, span } => {
                out.push(SpecStmt::Return(self.exprs_terra(exprs)?, *span));
            }
            TerraStmt::Break(span) => out.push(SpecStmt::Break(*span)),
            TerraStmt::Block(body, span) => {
                let body = self.block(body)?;
                out.push(SpecStmt::Block(body, *span));
            }
            TerraStmt::Expr(e) => {
                let e = self.expr_terra(e)?;
                out.push(SpecStmt::Expr(e));
            }
            TerraStmt::Escape(e, span) => {
                let v = self.interp.eval_expr(e, &self.env)?;
                self.splice_stmt_value(v, *span, out)?;
            }
            TerraStmt::Defer(e, span) => {
                let e = self.expr_terra(e)?;
                out.push(SpecStmt::Defer(e, *span));
            }
        }
        Ok(())
    }

    /// Splices a Lua value in statement position: quotes contribute their
    /// statements, lists splice each element, other values become
    /// expression statements.
    fn splice_stmt_value(
        &mut self,
        v: LuaValue,
        span: Span,
        out: &mut Vec<SpecStmt>,
    ) -> EvalResult<()> {
        match v {
            LuaValue::Nil => Ok(()),
            LuaValue::Quote(quote) => {
                out.push(SpecStmt::Spliced {
                    quote,
                    line: span.line,
                    span,
                });
                Ok(())
            }
            LuaValue::Table(t) => {
                let items: Vec<LuaValue> = t.borrow().iter_array().cloned().collect();
                for item in items {
                    self.splice_stmt_value(item, span, out)?;
                }
                Ok(())
            }
            other => {
                out.push(SpecStmt::Expr(lua_to_spec(other, span)?));
                Ok(())
            }
        }
    }

    fn expr_terra(&mut self, e: &TerraExpr) -> EvalResult<Rc<SpecExpr>> {
        self.expr(e)?.into_terra()
    }

    fn exprs_terra(&mut self, es: &[TerraExpr]) -> EvalResult<Vec<Rc<SpecExpr>>> {
        es.iter().map(|e| self.expr_terra(e)).collect()
    }

    /// Specializes a call argument list. An escape that evaluates to a Lua
    /// list splices as multiple arguments (the paper's `f(self, [params])`
    /// stub pattern).
    fn spec_args(&mut self, args: &[TerraExpr]) -> EvalResult<Vec<Rc<SpecExpr>>> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            if let TerraExpr::EscapeExpr(le, span) = a {
                let v = self.interp.eval_expr(le, &self.env)?;
                if let LuaValue::Table(t) = &v {
                    let items: Vec<LuaValue> = t.borrow().iter_array().cloned().collect();
                    for item in items {
                        out.push(lua_to_spec(item, *span)?);
                    }
                    continue;
                }
                out.push(lua_to_spec(v, *span)?);
                continue;
            }
            out.push(self.expr_terra(a)?);
        }
        Ok(out)
    }

    fn expr(&mut self, e: &TerraExpr) -> EvalResult<SpecVal> {
        let span = e.span();
        Ok(match e {
            TerraExpr::Int {
                value,
                suffix,
                span,
            } => SpecVal::Terra(SpecExpr::new(SpecExprKind::Int(*value, *suffix), *span)),
            TerraExpr::Float {
                value,
                is_f32,
                span,
            } => SpecVal::Terra(SpecExpr::new(SpecExprKind::Float(*value, *is_f32), *span)),
            TerraExpr::Bool(b, span) => {
                SpecVal::Terra(SpecExpr::new(SpecExprKind::Bool(*b), *span))
            }
            TerraExpr::Nil(span) => SpecVal::Terra(SpecExpr::new(SpecExprKind::Null, *span)),
            TerraExpr::Str(s, span) => {
                SpecVal::Terra(SpecExpr::new(SpecExprKind::Str(s.clone()), *span))
            }
            TerraExpr::Ident(n, slot, span) => match self.interp.lookup(n, *slot, &self.env) {
                Some(LuaValue::Symbol(s)) => {
                    SpecVal::Terra(SpecExpr::new(SpecExprKind::Sym(s), *span))
                }
                Some(v) => SpecVal::Lua(v, *span),
                None => return Err(err(format!("undefined variable '{n}'"), *span)),
            },
            TerraExpr::EscapeExpr(le, span) => {
                let v = self.interp.eval_expr(le, &self.env)?;
                SpecVal::Lua(v, *span)
            }
            TerraExpr::Field { obj, name, span } => {
                let obj = self.expr(obj)?;
                match obj {
                    // Nested-table sugar: treat `tbl.name` as escaped. Staged
                    // values (globals, quotes, symbols) fall through to a
                    // Terra field access instead.
                    SpecVal::Lua(
                        v @ (LuaValue::Table(_) | LuaValue::Type(_) | LuaValue::Str(_)),
                        _,
                    ) => {
                        let r = self
                            .interp
                            .index_value(&v, &LuaValue::Str(name.clone()), *span)?;
                        SpecVal::Lua(r, *span)
                    }
                    other => {
                        let o = other.into_terra()?;
                        SpecVal::Terra(SpecExpr::new(SpecExprKind::Field(o, name.clone()), *span))
                    }
                }
            }
            TerraExpr::DynField { obj, name, span } => {
                let obj = self.expr(obj)?;
                let key = self.interp.eval_expr(name, &self.env)?;
                match obj {
                    SpecVal::Lua(
                        v @ (LuaValue::Table(_) | LuaValue::Type(_) | LuaValue::Str(_)),
                        _,
                    ) => {
                        let r = self.interp.index_value(&v, &key, *span)?;
                        SpecVal::Lua(r, *span)
                    }
                    other => {
                        let o = other.into_terra()?;
                        let field = match key {
                            LuaValue::Str(s) => s,
                            LuaValue::Symbol(s) => s.name.clone(),
                            bad => {
                                return Err(err(
                                    format!(
                                        "computed field name must be a string, got {}",
                                        bad.type_name()
                                    ),
                                    *span,
                                ))
                            }
                        };
                        SpecVal::Terra(SpecExpr::new(SpecExprKind::Field(o, field), *span))
                    }
                }
            }
            TerraExpr::Index { obj, index, span } => {
                let obj = self.expr(obj)?;
                match obj {
                    SpecVal::Lua(LuaValue::Type(t), _) => {
                        // `T[n]` — array type construction.
                        let n = self.expr_terra(index)?;
                        let len = const_number(&n)
                            .ok_or_else(|| err("array length must be a constant integer", *span))?;
                        let ty = crate::reflect::array_type(&t, len, &self.interp.ctx.types);
                        SpecVal::Lua(LuaValue::Type(ty.map_err(|e| err(e, *span))?), *span)
                    }
                    SpecVal::Lua(v, _) => {
                        return Err(err(
                            format!(
                                "cannot index a Lua {} inside Terra code; use an escape",
                                v.type_name()
                            ),
                            *span,
                        ))
                    }
                    SpecVal::Terra(o) => {
                        let i = self.expr_terra(index)?;
                        SpecVal::Terra(SpecExpr::new(SpecExprKind::Index(o, i), *span))
                    }
                }
            }
            TerraExpr::Call { func, args, span } => {
                let callee = self.expr(func)?;
                match callee {
                    SpecVal::Lua(LuaValue::Macro(m), _) => {
                        // Macro: arguments become quotes; the result splices.
                        let mut qargs = Vec::with_capacity(args.len());
                        for a in args {
                            let e = self.expr_terra(a)?;
                            qargs.push(LuaValue::Quote(SpecQuote::of_expr(e, *span)));
                        }
                        let result = self.interp.call_value(m.func.clone(), qargs, *span)?;
                        let first = result.into_iter().next().unwrap_or(LuaValue::Nil);
                        SpecVal::Lua(first, *span)
                    }
                    SpecVal::Lua(v @ (LuaValue::Function(_) | LuaValue::Native(_)), _) => {
                        // A plain Lua function can be called from Terra code
                        // only when every argument is a compile-time value;
                        // the call then happens during specialization
                        // (`sizeof(T)` and friends).
                        let mut largs = Vec::with_capacity(args.len());
                        for a in args {
                            match self.expr(a)? {
                                SpecVal::Lua(lv, _) => largs.push(lv),
                                SpecVal::Terra(t) => {
                                    if let SpecExprKind::TypeLit(ty) = &t.kind {
                                        largs.push(LuaValue::Type(ty.clone()));
                                    } else {
                                        return Err(err(
                                            "cannot call a Lua function with runtime Terra \
                                             arguments; use terralib.macro or a terra function",
                                            *span,
                                        ));
                                    }
                                }
                            }
                        }
                        let result = self.interp.call_value(v, largs, *span)?;
                        let first = result.into_iter().next().unwrap_or(LuaValue::Nil);
                        SpecVal::Lua(first, *span)
                    }
                    other => {
                        let c = other.into_terra()?;
                        let args = self.spec_args(args)?;
                        SpecVal::Terra(SpecExpr::new(SpecExprKind::Call(c, args), *span))
                    }
                }
            }
            TerraExpr::MethodCall {
                obj,
                name,
                args,
                span,
            } => {
                let o = match self.expr(obj)? {
                    SpecVal::Lua(v, _)
                        if !matches!(
                            v,
                            LuaValue::Global(_) | LuaValue::Quote(_) | LuaValue::Symbol(_)
                        ) =>
                    {
                        // Compile-time method call (e.g. reflection API used
                        // inside an annotation-like position).
                        let args = args
                            .iter()
                            .map(|a| match self.expr(a) {
                                Ok(SpecVal::Lua(lv, _)) => Ok(lv),
                                Ok(SpecVal::Terra(_)) => Err(err(
                                    "cannot pass runtime Terra values to a Lua method call",
                                    *span,
                                )),
                                Err(e) => Err(e),
                            })
                            .collect::<EvalResult<Vec<_>>>()?;
                        let r = self.interp.method_call_value(v, name, args, *span)?;
                        return Ok(SpecVal::Lua(r, *span));
                    }
                    // Method call on a staged value is a Terra method call
                    // on the spliced term.
                    term => term.into_terra()?,
                };
                let args = self.spec_args(args)?;
                SpecVal::Terra(SpecExpr::new(
                    SpecExprKind::MethodCall(o, name.clone(), args),
                    *span,
                ))
            }
            TerraExpr::DynMethodCall {
                obj,
                name,
                args,
                span,
            } => {
                let o = self.expr_terra(obj)?;
                let key = self.interp.eval_expr(name, &self.env)?;
                let mname = match key {
                    LuaValue::Str(s) => s,
                    other => {
                        return Err(err(
                            format!(
                                "computed method name must be a string, got {}",
                                other.type_name()
                            ),
                            *span,
                        ))
                    }
                };
                let args = self.spec_args(args)?;
                SpecVal::Terra(SpecExpr::new(
                    SpecExprKind::MethodCall(o, mname, args),
                    *span,
                ))
            }
            TerraExpr::StructInit { ty, args, span } => {
                let t = match self.expr(ty)? {
                    SpecVal::Lua(LuaValue::Type(t), _) => Some(t),
                    SpecVal::Terra(e) => match &e.kind {
                        SpecExprKind::TypeLit(t) => Some(t.clone()),
                        _ => None,
                    },
                    SpecVal::Lua(..) => None,
                }
                .ok_or_else(|| {
                    err(
                        "struct literal requires a Terra struct type before '{'",
                        *span,
                    )
                })?;
                let args = args
                    .iter()
                    .map(|(n, a)| Ok((n.clone(), self.expr_terra(a)?)))
                    .collect::<EvalResult<Vec<_>>>()?;
                SpecVal::Terra(SpecExpr::new(SpecExprKind::StructInit(t, args), *span))
            }
            TerraExpr::BinOp { op, lhs, rhs, span } => {
                let l = self.expr_terra(lhs)?;
                let r = self.expr_terra(rhs)?;
                SpecVal::Terra(SpecExpr::new(SpecExprKind::Bin(*op, l, r), *span))
            }
            TerraExpr::UnOp { op, expr, span } => {
                let x = self.expr_terra(expr)?;
                SpecVal::Terra(SpecExpr::new(SpecExprKind::Un(*op, x), *span))
            }
            TerraExpr::Deref(inner, span) => {
                let x = self.expr_terra(inner)?;
                SpecVal::Terra(SpecExpr::new(SpecExprKind::Deref(x), *span))
            }
            TerraExpr::AddrOf(inner, span) => {
                let x = self.expr(inner)?;
                match x {
                    // `&T` where T is a type: pointer type (parity with the
                    // Lua-context type operator).
                    SpecVal::Lua(LuaValue::Type(t), _) => {
                        SpecVal::Lua(LuaValue::Type(t.ptr_to()), *span)
                    }
                    other => SpecVal::Terra(SpecExpr::addr_of(other.into_terra()?, *span)),
                }
            }
            TerraExpr::TerraFunction(def) => {
                // Nested anonymous terra function: declare + define now.
                let name: Rc<str> = def
                    .name_hint
                    .clone()
                    .unwrap_or_else(|| Rc::from("anonymous"));
                let id = self.interp.define_terra_function(def, &self.env, name)?;
                let _ = span;
                SpecVal::Lua(LuaValue::TerraFunc(id), def.span)
            }
        })
    }
}

fn const_number(e: &SpecExpr) -> Option<f64> {
    match &e.kind {
        SpecExprKind::Int(v, _) => Some(*v as f64),
        SpecExprKind::LuaNum(n) => Some(*n),
        _ => None,
    }
}

/// Collects one symbol or a list of symbols from an escaped declaration.
pub fn collect_symbols(v: LuaValue, span: Span) -> EvalResult<Vec<SymbolRef>> {
    match v {
        LuaValue::Symbol(s) => Ok(vec![s]),
        LuaValue::Table(t) => {
            let mut out = Vec::new();
            for item in t.borrow().iter_array() {
                match item {
                    LuaValue::Symbol(s) => out.push(s.clone()),
                    other => {
                        return Err(err(
                            format!("expected symbols in list, got {}", other.type_name()),
                            span,
                        ))
                    }
                }
            }
            Ok(out)
        }
        other => Err(err(
            format!(
                "expected a symbol or list of symbols, got {}",
                other.type_name()
            ),
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails to compile when `$t: Clone`: the method then resolves through
    /// both blanket impls and the `_` cannot be inferred.
    macro_rules! assert_not_clone {
        ($($t:ty),*) => {$(
            const _: fn() = || {
                trait AmbiguousIfClone<A> {
                    fn check() {}
                }
                impl<T: ?Sized> AmbiguousIfClone<()> for T {}
                impl<T: ?Sized + Clone> AmbiguousIfClone<u8> for T {}
                let _ = <$t as AmbiguousIfClone<_>>::check;
            };
        )*};
    }
    // A deep copy of specialized code is a compile error, not a review
    // comment: re-deriving `Clone` on any of these breaks the build here.
    assert_not_clone!(SpecExpr, SpecStmt, SpecQuote);

    fn quote_of(interp: &Interp, name: &str) -> Rc<SpecQuote> {
        match interp.global(name) {
            LuaValue::Quote(q) => q,
            other => panic!("{name} is {other:?}"),
        }
    }

    fn body_of(interp: &Interp, name: &str) -> Rc<SpecFunc> {
        let LuaValue::TerraFunc(id) = interp.global(name) else {
            panic!("{name} is not a terra function");
        };
        interp.ctx.funcs[id.0 as usize].spec.clone().unwrap()
    }

    #[test]
    fn a_splice_points_at_the_quote_it_splices() {
        let mut interp = Interp::new();
        interp
            .exec(
                "x = symbol(int, 'x')
                 stmts = quote var [x] = 1 end
                 both = quote var y = 2 in y end
                 expr = `[x] + 1
                 terra f() : int [stmts]; var a = [both]; return [expr] end",
            )
            .unwrap();
        let f = body_of(&interp, "f");
        let [SpecStmt::Spliced { quote, .. }, SpecStmt::Var { inits, .. }, SpecStmt::Return(ret, _)] =
            &f.body[..]
        else {
            panic!("{:?}", f.body);
        };
        assert!(Rc::ptr_eq(quote, &quote_of(&interp, "stmts")));
        let SpecExprKind::LetIn(q, _) = &inits[0].kind else {
            panic!("{:?}", inits[0]);
        };
        assert!(Rc::ptr_eq(q, &quote_of(&interp, "both")));
        // A statement-free quote is the quoted expression itself.
        assert!(Rc::ptr_eq(&ret[0], &quote_of(&interp, "expr").exprs[0]));
    }

    #[test]
    fn address_of_is_recorded_on_the_symbol_where_it_is_built() {
        let mut interp = Interp::new();
        interp
            .exec(
                "struct S { v : int }
                 terra S:get() : int return self.v end
                 a, b, c, d = symbol(int, 'a'), symbol(int, 'b'), symbol(S, 'c'), symbol(int, 'd')
                 e = symbol(&S, 'e')
                 qb = `[b]
                 q = quote
                     var p = &[a]; var r = &[qb]; var n = [c]:get() + [e]:get(); var m = [d] + 1
                 end",
            )
            .unwrap();
        let taken = |name: &str| match interp.global(name) {
            LuaValue::Symbol(s) => s.addr_taken.get(),
            other => panic!("{name} is {other:?}"),
        };
        assert!(taken("a"), "&[a]");
        assert!(taken("b"), "&[q] with q = `b sees through the quote");
        // A method call does not: a struct receiver is in memory as an
        // aggregate, and a pointer receiver is passed as it is.
        assert!(!taken("c") && !taken("e"), "[c]:get(), [e]:get()");
        assert!(!taken("d"), "reading a variable does not");
    }
}
