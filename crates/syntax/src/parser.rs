//! Recursive-descent parser for the combined Lua-Terra grammar.
//!
//! The parser mirrors the architecture described in §5 of the paper: a single
//! front end parses Lua source in which Terra functions, quotations, and
//! struct declarations are embedded. Terra type annotations are parsed as Lua
//! expressions (types are Lua values, evaluated during specialization), with
//! the Terra type operators `&T`, `{T,…} -> {T,…}` accepted in expression
//! position.
//!
//! The parser also resolves variables. It keeps the stack of scopes that will
//! exist at run time — Lua blocks, loop and function bodies, and the scopes
//! the specializer opens for Terra functions, blocks and quotes — and stamps
//! every use of a name with the [`Slot`] it denotes. A name is visible from
//! the statement after its declaration, as in Lua, so one pass suffices. The
//! scope discipline here and in `terra-eval`'s `interp.rs`/`spec.rs` must
//! agree exactly; each `push_scope` below names its counterpart.

use crate::ast::*;
use crate::error::{Result, SyntaxError};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Tok, Token};
use std::rc::Rc;

/// Parses a complete combined Lua-Terra chunk.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), terra_syntax::SyntaxError> {
/// let chunk = terra_syntax::parse(
///     "terra add(a : int, b : int) : int return a + b end",
/// )?;
/// assert_eq!(chunk.stmts.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Block> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        scopes: Vec::new(),
        levels: 0,
    };
    let block = p.block()?;
    p.expect(Tok::Eof)?;
    Ok(block)
}

/// Syntax levels a chunk may nest — a statement inside a statement, an
/// operand inside an operator — as Lua's `LUAI_MAXCCALLS`: the parser and
/// every later phase recurse once per level, and the host stack is finite.
/// The deepest source the repository has or generates, a random staging
/// program of the property tests, nests 19; the Lua libraries (`gemm.lua`,
/// `orion.lua`, `javalike.lua`) nest 15.
const MAX_LEVELS: u32 = 200;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// The scopes enclosing the current position, outermost first.
    scopes: Vec<Scope>,
    /// Syntax levels entered and not yet left (see [`MAX_LEVELS`]).
    levels: u32,
}

/// One run-time scope as the parser sees it: the names declared so far, in
/// slot order.
struct Scope {
    names: Vec<Name>,
    /// Whether the scope exists yet at this point of the program. A Lua
    /// block's scope opens at its first declaring statement; every other
    /// scope opens when it is pushed.
    open: bool,
    /// Index, in the owning Lua block, of the statement being parsed.
    stmt: u32,
    /// `stmt` when the scope opened.
    opened_at: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<Token> {
        if self.peek() == &t {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {} but found {}", t, self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> SyntaxError {
        SyntaxError::new(msg, self.span())
    }

    /// Enters one syntax level, as Lua's `enterlevel` does; the caller
    /// leaves it on success. A failed parse stops at its error, so an error
    /// path need not leave.
    fn enter(&mut self) -> Result<()> {
        self.levels += 1;
        if self.levels > MAX_LEVELS {
            return Err(self.err("chunk has too many syntax levels"));
        }
        Ok(())
    }

    fn name(&mut self) -> Result<Name> {
        match self.peek().clone() {
            Tok::Name(n) => {
                self.bump();
                Ok(n)
            }
            other => Err(self.err(format!("expected identifier but found {other}"))),
        }
    }

    // -----------------------------------------------------------------------
    // Scopes and name resolution
    // -----------------------------------------------------------------------

    fn push_scope(&mut self, open: bool) {
        self.scopes.push(Scope {
            names: Vec::new(),
            open,
            stmt: 0,
            opened_at: 0,
        });
    }

    fn pop_scope(&mut self) -> Scope {
        self.scopes.pop().expect("scope pushed by the caller")
    }

    fn scope(&mut self) -> &mut Scope {
        self.scopes.last_mut().expect("inside the chunk's scope")
    }

    /// Opens the innermost scope if it is a Lua block's that has not
    /// declared anything yet. Called at the start of a declaring statement,
    /// so the whole statement is resolved — and later evaluated — inside it.
    fn open_scope(&mut self) {
        let scope = self.scope();
        if !scope.open {
            scope.open = true;
            scope.opened_at = scope.stmt;
        }
    }

    /// Declares `name` as the next slot of the innermost (open) scope.
    fn declare(&mut self, name: Name) -> Result<()> {
        if self.scope().names.len() >= usize::from(u16::MAX) {
            return Err(self.err("too many local variables in one scope"));
        }
        self.scope().names.push(name);
        Ok(())
    }

    /// The slot `name` denotes here: the latest declaration in the nearest
    /// open scope that has one, else the global table.
    fn resolve(&self, name: &str) -> Result<Slot> {
        let open = self.scopes.iter().rev().filter(|s| s.open);
        for (hops, scope) in open.enumerate() {
            if let Some(index) = scope.names.iter().rposition(|n| &**n == name) {
                let hops = u16::try_from(hops).map_err(|_| self.err("scopes nested too deeply"))?;
                return Ok(Slot::Local {
                    hops,
                    index: index as u16,
                });
            }
        }
        Ok(Slot::Global)
    }

    fn var(&mut self, name: Name, span: Span) -> Result<LuaExpr> {
        let slot = self.resolve(&name)?;
        Ok(LuaExpr::Var(name, slot, span))
    }

    // -----------------------------------------------------------------------
    // Lua blocks and statements
    // -----------------------------------------------------------------------

    fn block_ends(&self) -> bool {
        matches!(
            self.peek(),
            Tok::End | Tok::Else | Tok::Elseif | Tok::Until | Tok::Eof
        )
    }

    /// A block with a scope of its own (`Interp::eval_block`).
    fn block(&mut self) -> Result<Block> {
        self.push_scope(false);
        self.block_in_scope()
    }

    /// A block whose scope the caller pushed — possibly already open and
    /// holding loop variables or parameters.
    fn block_in_scope(&mut self) -> Result<Block> {
        let stmts = self.stmts()?;
        Ok(self.close_block(stmts))
    }

    /// Parses statements into the innermost scope.
    fn stmts(&mut self) -> Result<Vec<LuaStmt>> {
        let mut stmts = Vec::new();
        loop {
            while self.check(&Tok::Semi) {}
            if self.block_ends() {
                break;
            }
            self.scope().stmt = stmts.len() as u32;
            self.enter()?;
            let stmt = self.statement()?;
            self.levels -= 1;
            let is_return = matches!(stmt, LuaStmt::Return { .. });
            stmts.push(stmt);
            if is_return {
                while self.check(&Tok::Semi) {}
                break;
            }
        }
        Ok(stmts)
    }

    /// Pops the innermost scope into the block that owns it.
    fn close_block(&mut self, stmts: Vec<LuaStmt>) -> Block {
        let scope = self.pop_scope();
        Block {
            stmts,
            scope_at: scope.opened_at,
            nslots: scope.names.len() as u16,
        }
    }

    fn statement(&mut self) -> Result<LuaStmt> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Local => {
                self.bump();
                self.open_scope();
                match self.peek().clone() {
                    Tok::Function => {
                        self.bump();
                        let name = self.name()?;
                        // Declared first so the body can recurse.
                        self.declare(name.clone())?;
                        let body = self.lua_function_body(span, false)?;
                        Ok(LuaStmt::LocalFunction {
                            name,
                            body: Rc::new(body),
                        })
                    }
                    Tok::Terra => {
                        self.bump();
                        self.terra_named_def(span, true)
                    }
                    Tok::Struct => {
                        self.bump();
                        self.struct_named_def(span, true)
                    }
                    _ => {
                        let mut names = vec![self.name()?];
                        while self.check(&Tok::Comma) {
                            names.push(self.name()?);
                        }
                        let exprs = if self.check(&Tok::Assign) {
                            self.exprlist()?
                        } else {
                            Vec::new()
                        };
                        // The initializers do not see the new names.
                        for n in &names {
                            self.declare(n.clone())?;
                        }
                        Ok(LuaStmt::Local { names, exprs, span })
                    }
                }
            }
            Tok::If => {
                self.bump();
                let mut arms = Vec::new();
                let cond = self.expr()?;
                self.expect(Tok::Then)?;
                let body = self.block()?;
                arms.push((cond, body));
                let mut else_body = None;
                loop {
                    match self.peek() {
                        Tok::Elseif => {
                            self.bump();
                            let c = self.expr()?;
                            self.expect(Tok::Then)?;
                            let b = self.block()?;
                            arms.push((c, b));
                        }
                        Tok::Else => {
                            self.bump();
                            else_body = Some(self.block()?);
                            self.expect(Tok::End)?;
                            break;
                        }
                        Tok::End => {
                            self.bump();
                            break;
                        }
                        other => {
                            return Err(self.err(format!(
                                "expected 'elseif', 'else' or 'end' but found {other}"
                            )))
                        }
                    }
                }
                Ok(LuaStmt::If { arms, else_body })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Do)?;
                let body = self.block()?;
                self.expect(Tok::End)?;
                Ok(LuaStmt::While { cond, body })
            }
            Tok::Repeat => {
                self.bump();
                // The condition is evaluated in the body's scope.
                self.push_scope(false);
                let stmts = self.stmts()?;
                self.expect(Tok::Until)?;
                let cond = self.expr()?;
                let body = self.close_block(stmts);
                Ok(LuaStmt::Repeat { body, cond })
            }
            Tok::Do => {
                self.bump();
                let body = self.block()?;
                self.expect(Tok::End)?;
                Ok(LuaStmt::Do(body))
            }
            Tok::For => {
                self.bump();
                let first = self.name()?;
                if self.check(&Tok::Assign) {
                    let start = self.expr()?;
                    self.expect(Tok::Comma)?;
                    let stop = self.expr()?;
                    let step = if self.check(&Tok::Comma) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(Tok::Do)?;
                    let body = self.loop_body(std::slice::from_ref(&first))?;
                    self.expect(Tok::End)?;
                    Ok(LuaStmt::NumericFor {
                        var: first,
                        start,
                        stop,
                        step,
                        body,
                    })
                } else {
                    let mut vars = vec![first];
                    while self.check(&Tok::Comma) {
                        vars.push(self.name()?);
                    }
                    self.expect(Tok::In)?;
                    let exprs = self.exprlist()?;
                    self.expect(Tok::Do)?;
                    let body = self.loop_body(&vars)?;
                    self.expect(Tok::End)?;
                    Ok(LuaStmt::GenericFor { vars, exprs, body })
                }
            }
            Tok::Function => {
                self.bump();
                let mut path = vec![self.name()?];
                while self.check(&Tok::Dot) {
                    path.push(self.name()?);
                }
                let method = if self.check(&Tok::Colon) {
                    Some(self.name()?)
                } else {
                    None
                };
                let base = self.resolve(&path[0])?;
                let body = self.lua_function_body(span, method.is_some())?;
                Ok(LuaStmt::FunctionDecl {
                    path,
                    base,
                    method,
                    body: Rc::new(body),
                    span,
                })
            }
            Tok::Return => {
                self.bump();
                let exprs = if self.block_ends() || self.peek() == &Tok::Semi {
                    Vec::new()
                } else {
                    self.exprlist()?
                };
                Ok(LuaStmt::Return { exprs, span })
            }
            Tok::Break => {
                self.bump();
                Ok(LuaStmt::Break(span))
            }
            Tok::Terra if matches!(self.peek2(), Tok::Name(_)) => {
                self.bump();
                self.terra_named_def(span, false)
            }
            Tok::Struct if matches!(self.peek2(), Tok::Name(_)) => {
                self.bump();
                self.struct_named_def(span, false)
            }
            _ => {
                // Expression statement or assignment.
                let first = self.suffixed_expr()?;
                if self.peek() == &Tok::Assign || self.peek() == &Tok::Comma {
                    let mut targets = vec![first];
                    while self.check(&Tok::Comma) {
                        targets.push(self.suffixed_expr()?);
                    }
                    for t in &targets {
                        if !matches!(t, LuaExpr::Var(..) | LuaExpr::Index { .. }) {
                            return Err(SyntaxError::new(
                                "cannot assign to this expression",
                                t.span(),
                            ));
                        }
                    }
                    self.expect(Tok::Assign)?;
                    let exprs = self.exprlist()?;
                    Ok(LuaStmt::Assign {
                        targets,
                        exprs,
                        span,
                    })
                } else {
                    match &first {
                        LuaExpr::Call { .. } | LuaExpr::MethodCall { .. } => {
                            Ok(LuaStmt::Expr(first))
                        }
                        _ => Err(SyntaxError::new(
                            "syntax error: expression is not a statement",
                            first.span(),
                        )),
                    }
                }
            }
        }
    }

    /// Parses `terra` definitions in statement position, after the `terra`
    /// keyword has been consumed: `terra path.to.f(params) : ret body end` or
    /// `terra Type:method(params) … end`.
    fn terra_named_def(&mut self, span: Span, is_local: bool) -> Result<LuaStmt> {
        let mut path = vec![self.name()?];
        while self.check(&Tok::Dot) {
            path.push(self.name()?);
        }
        let method = if self.check(&Tok::Colon) {
            Some(self.name()?)
        } else {
            None
        };
        let base = self.resolve(&path[0])?;
        if is_local && path.len() == 1 && method.is_none() {
            // Bound before the body so the function can refer to itself.
            self.declare(path[0].clone())?;
        }
        let mut def = if method.is_some() {
            // `Interp::specialize_function`: a scope holding `self`.
            self.push_scope(true);
            self.declare(Rc::from("self"))?;
            let def = self.terra_function_tail(span)?;
            self.pop_scope();
            def
        } else {
            self.terra_function_tail(span)?
        };
        def.name_hint = Some(match &method {
            Some(m) => Rc::from(format!("{}:{}", path.join("."), m).as_str()),
            None => Rc::from(path.join(".").as_str()),
        });
        Ok(LuaStmt::TerraDef {
            path,
            base,
            method,
            def: Rc::new(def),
            is_local,
            span,
        })
    }

    fn struct_named_def(&mut self, span: Span, is_local: bool) -> Result<LuaStmt> {
        let mut path = vec![self.name()?];
        while self.check(&Tok::Dot) {
            path.push(self.name()?);
        }
        let base = self.resolve(&path[0])?;
        let entries = self.struct_body()?;
        if is_local && path.len() == 1 {
            // The entries do not see the new name.
            self.declare(path[0].clone())?;
        }
        Ok(LuaStmt::StructDef {
            path,
            base,
            entries,
            is_local,
            span,
        })
    }

    fn struct_body(&mut self) -> Result<Vec<StructEntry>> {
        self.expect(Tok::LBrace)?;
        let mut entries = Vec::new();
        while self.peek() != &Tok::RBrace {
            let span = self.span();
            let name = self.name()?;
            self.expect(Tok::Colon)?;
            let ty = self.expr()?;
            entries.push(StructEntry { name, ty, span });
            if !(self.check(&Tok::Comma) || self.check(&Tok::Semi)) {
                break;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(entries)
    }

    /// A loop body: one scope per iteration, holding the loop variables and
    /// then the body's locals.
    fn loop_body(&mut self, vars: &[Name]) -> Result<Block> {
        self.push_scope(true);
        for v in vars {
            self.declare(v.clone())?;
        }
        self.block_in_scope()
    }

    /// Parses `(params) body end`. The call's scope holds the parameters
    /// (after an implicit `self` for method declarations), the packed
    /// varargs under the name `...`, and the body's locals; a function with
    /// no parameters opens it at its first `local`, like any block.
    fn lua_function_body(&mut self, span: Span, method: bool) -> Result<LuaFunctionBody> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if method {
            params.push(Rc::from("self"));
        }
        let mut is_vararg = false;
        if self.peek() != &Tok::RParen {
            loop {
                match self.peek().clone() {
                    Tok::Ellipsis => {
                        self.bump();
                        is_vararg = true;
                        break;
                    }
                    Tok::Name(n) => {
                        self.bump();
                        params.push(n);
                    }
                    other => {
                        return Err(self.err(format!("expected parameter name but found {other}")))
                    }
                }
                if !self.check(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.push_scope(!params.is_empty() || is_vararg);
        for p in &params {
            self.declare(p.clone())?;
        }
        if is_vararg {
            self.declare(Rc::from("..."))?;
        }
        let body = self.block_in_scope()?;
        self.expect(Tok::End)?;
        Ok(LuaFunctionBody {
            params,
            is_vararg,
            body,
            span,
        })
    }

    fn exprlist(&mut self) -> Result<Vec<LuaExpr>> {
        let mut v = vec![self.expr()?];
        while self.check(&Tok::Comma) {
            v.push(self.expr()?);
        }
        Ok(v)
    }

    // -----------------------------------------------------------------------
    // Lua expressions (Pratt parser)
    // -----------------------------------------------------------------------

    fn expr(&mut self) -> Result<LuaExpr> {
        let e = self.binary_expr(0)?;
        // Terra function-type operator: `params -> returns`, right-assoc.
        if self.peek() == &Tok::Arrow {
            let span = self.span();
            self.bump();
            let rhs = self.expr()?;
            let params = flatten_type_list(e);
            let returns = flatten_type_list(rhs);
            return Ok(LuaExpr::FuncType {
                params,
                returns,
                span,
            });
        }
        Ok(e)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<LuaExpr> {
        self.enter()?;
        let mut lhs = self.unary_expr()?;
        while let Some((op, lprec, rprec)) = binary_op(self.peek()) {
            if lprec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.binary_expr(rprec)?;
            lhs = LuaExpr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.levels -= 1;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<LuaExpr> {
        let span = self.span();
        let op = unary_op(self.peek());
        if op.is_none() && self.peek() != &Tok::Amp {
            return self.suffixed_expr();
        }
        self.bump();
        let expr = Box::new(self.binary_expr(15)?);
        Ok(match op {
            Some(op) => LuaExpr::UnOp { op, expr, span },
            // Terra type operator: pointer type.
            None => LuaExpr::PtrType(expr, span),
        })
    }

    /// A primary expression and its suffixes: an index, a field, a method
    /// call or a call. Only a prefix expression (Lua 5.1 §8: a name or a
    /// parenthesised expression) takes them, so a literal ends the
    /// expression: `7[0]` is not an index.
    fn suffixed_expr(&mut self) -> Result<LuaExpr> {
        let prefix = matches!(self.peek(), Tok::Name(_) | Tok::LParen);
        let mut e = self.primary_expr()?;
        if !prefix {
            return Ok(e);
        }
        loop {
            let span = self.span();
            match self.peek().clone() {
                Tok::Dot => {
                    self.bump();
                    let n = self.name()?;
                    e = LuaExpr::Index {
                        obj: Box::new(e),
                        index: Box::new(LuaExpr::Str(n, span)),
                        span,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = LuaExpr::Index {
                        obj: Box::new(e),
                        index: Box::new(idx),
                        span,
                    };
                }
                Tok::Colon => {
                    // method call: obj:name(args)
                    if !matches!(self.peek2(), Tok::Name(_)) {
                        break;
                    }
                    self.bump();
                    let n = self.name()?;
                    let args = self.call_args()?;
                    e = LuaExpr::MethodCall {
                        obj: Box::new(e),
                        name: n,
                        args,
                        span,
                    };
                }
                Tok::LParen | Tok::Str(_) | Tok::LBrace => {
                    let args = self.call_args()?;
                    e = LuaExpr::Call {
                        func: Box::new(e),
                        args,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<LuaExpr>> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let args = if self.peek() == &Tok::RParen {
                    Vec::new()
                } else {
                    self.exprlist()?
                };
                self.expect(Tok::RParen)?;
                Ok(args)
            }
            Tok::Str(s) => {
                let span = self.span();
                self.bump();
                Ok(vec![LuaExpr::Str(s, span)])
            }
            Tok::LBrace => Ok(vec![self.table_constructor()?]),
            other => Err(self.err(format!("expected call arguments but found {other}"))),
        }
    }

    fn table_constructor(&mut self) -> Result<LuaExpr> {
        let span = self.span();
        self.expect(Tok::LBrace)?;
        let mut items = Vec::new();
        while self.peek() != &Tok::RBrace {
            match self.peek().clone() {
                Tok::Name(n) if self.peek2() == &Tok::Assign => {
                    self.bump();
                    self.bump();
                    let v = self.expr()?;
                    items.push(TableItem::Named(n, v));
                }
                Tok::LBracket => {
                    self.bump();
                    let k = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.expect(Tok::Assign)?;
                    let v = self.expr()?;
                    items.push(TableItem::Keyed(k, v));
                }
                _ => {
                    items.push(TableItem::Positional(self.expr()?));
                }
            }
            if !(self.check(&Tok::Comma) || self.check(&Tok::Semi)) {
                break;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(LuaExpr::Table { items, span })
    }

    fn primary_expr(&mut self) -> Result<LuaExpr> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Nil => {
                self.bump();
                Ok(LuaExpr::Nil(span))
            }
            Tok::True => {
                self.bump();
                Ok(LuaExpr::True(span))
            }
            Tok::False => {
                self.bump();
                Ok(LuaExpr::False(span))
            }
            Tok::Int(v, _) => {
                self.bump();
                Ok(LuaExpr::Number(v as f64, span))
            }
            Tok::Float(v, _) => {
                self.bump();
                Ok(LuaExpr::Number(v, span))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(LuaExpr::Str(s, span))
            }
            Tok::Ellipsis => {
                self.bump();
                Ok(LuaExpr::Vararg(self.resolve("...")?, span))
            }
            Tok::Name(n) => {
                self.bump();
                self.var(n, span)
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                // Parentheses matter only around a multi-valued expression.
                Ok(match e {
                    LuaExpr::Call { .. } | LuaExpr::MethodCall { .. } | LuaExpr::Vararg(..) => {
                        LuaExpr::Paren(Box::new(e))
                    }
                    e => e,
                })
            }
            Tok::LBrace => self.table_constructor(),
            Tok::Function => {
                self.bump();
                let body = self.lua_function_body(span, false)?;
                Ok(LuaExpr::Function(Rc::new(body)))
            }
            Tok::Terra => {
                self.bump();
                let def = self.terra_function_tail(span)?;
                Ok(LuaExpr::TerraFunction(Rc::new(def)))
            }
            Tok::Struct => {
                self.bump();
                let entries = self.struct_body()?;
                Ok(LuaExpr::AnonStruct { entries, span })
            }
            Tok::Quote => {
                self.bump();
                let q = self.quote_body(span)?;
                Ok(LuaExpr::Quote(Rc::new(q)))
            }
            Tok::Backtick => {
                self.bump();
                self.push_scope(true);
                let e = self.terra_expr()?;
                self.pop_scope();
                Ok(LuaExpr::Quote(Rc::new(TerraQuote {
                    stmts: Vec::new(),
                    exprs: vec![e],
                    span,
                })))
            }
            other => Err(self.err(format!("unexpected {other} in expression"))),
        }
    }

    // -----------------------------------------------------------------------
    // Terra functions, quotes, statements
    // -----------------------------------------------------------------------

    /// Parses `(params) : ret body end` after the `terra` keyword (and any
    /// name) has been consumed.
    ///
    /// Scopes as in `Specializer::function`: one for the parameters — each
    /// visible to the annotations after it and to the return type — and a
    /// block scope inside it for the body.
    fn terra_function_tail(&mut self, span: Span) -> Result<TerraFuncDef> {
        self.push_scope(true);
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let pspan = self.span();
                let name = match self.peek().clone() {
                    Tok::LBracket => {
                        self.bump();
                        let e = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        DeclName::Escape(e, pspan)
                    }
                    Tok::Name(n) => {
                        self.bump();
                        DeclName::Ident(n, pspan)
                    }
                    other => {
                        return Err(self.err(format!("expected parameter name but found {other}")))
                    }
                };
                let ty = if self.check(&Tok::Colon) {
                    Some(self.expr()?)
                } else {
                    None
                };
                if ty.is_none() {
                    if let DeclName::Ident(n, _) = &name {
                        return Err(SyntaxError::new(
                            format!("parameter '{n}' requires a type annotation"),
                            pspan,
                        ));
                    }
                }
                self.declare_decl(&name)?;
                params.push(TerraParam { name, ty });
                if !self.check(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if self.check(&Tok::Colon) {
            Some(self.return_type_expr()?)
        } else {
            None
        };
        let body = self.terra_scoped_block()?;
        self.pop_scope();
        self.expect(Tok::End)?;
        Ok(TerraFuncDef {
            params,
            ret,
            body,
            span,
            name_hint: None,
        })
    }

    /// Parses a return-type annotation. Like a Lua expression, but without
    /// the `[…]` / `{…}` / string call-sugar suffixes that would swallow the
    /// first body statement.
    fn return_type_expr(&mut self) -> Result<LuaExpr> {
        let span = self.span();
        match self.peek().clone() {
            Tok::LBrace => {
                // `{}` or `{T, T}` tuple annotation.
                self.bump();
                let mut items = Vec::new();
                while self.peek() != &Tok::RBrace {
                    items.push(TableItem::Positional(self.expr()?));
                    if !self.check(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(LuaExpr::Table { items, span })
            }
            Tok::Amp => {
                self.bump();
                let inner = self.return_type_expr()?;
                Ok(LuaExpr::PtrType(Box::new(inner), span))
            }
            Tok::LBracket => {
                // Escaped return type `[luaexpr]`.
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RBracket)?;
                Ok(e)
            }
            _ => {
                let name = self.name()?;
                let mut e = self.var(name, span)?;
                loop {
                    let sp = self.span();
                    match self.peek().clone() {
                        Tok::Dot => {
                            self.bump();
                            let n = self.name()?;
                            e = LuaExpr::Index {
                                obj: Box::new(e),
                                index: Box::new(LuaExpr::Str(n, sp)),
                                span: sp,
                            };
                        }
                        Tok::LParen => {
                            self.bump();
                            let args = if self.peek() == &Tok::RParen {
                                Vec::new()
                            } else {
                                self.exprlist()?
                            };
                            self.expect(Tok::RParen)?;
                            e = LuaExpr::Call {
                                func: Box::new(e),
                                args,
                                span: sp,
                            };
                        }
                        _ => break,
                    }
                }
                Ok(e)
            }
        }
    }

    fn quote_body(&mut self, span: Span) -> Result<TerraQuote> {
        // `Specializer::quote`: statements and `in` expressions share one
        // scope.
        self.push_scope(true);
        let stmts = self.terra_block()?;
        let exprs = if self.check(&Tok::In) {
            let mut v = vec![self.terra_expr()?];
            while self.check(&Tok::Comma) {
                v.push(self.terra_expr()?);
            }
            v
        } else {
            Vec::new()
        };
        self.pop_scope();
        self.expect(Tok::End)?;
        Ok(TerraQuote { stmts, exprs, span })
    }

    fn terra_block_ends(&self) -> bool {
        matches!(
            self.peek(),
            Tok::End | Tok::Else | Tok::Elseif | Tok::Until | Tok::In | Tok::Eof
        )
    }

    fn terra_block(&mut self) -> Result<Vec<TerraStmt>> {
        let mut stmts = Vec::new();
        loop {
            while self.check(&Tok::Semi) {}
            if self.terra_block_ends() {
                break;
            }
            self.enter()?;
            stmts.push(self.terra_stmt()?);
            self.levels -= 1;
        }
        Ok(stmts)
    }

    /// A Terra block in a scope of its own (`Specializer::block`).
    fn terra_scoped_block(&mut self) -> Result<Vec<TerraStmt>> {
        self.push_scope(true);
        let stmts = self.terra_block();
        self.pop_scope();
        stmts
    }

    /// A Terra loop body: the loop variable and the body share one scope.
    fn terra_loop_body(&mut self, var: &DeclName) -> Result<Vec<TerraStmt>> {
        self.push_scope(true);
        self.declare_decl(var)?;
        let stmts = self.terra_block();
        self.pop_scope();
        stmts
    }

    /// Binds a declared identifier (`Specializer::bind_symbol`); escaped
    /// declarations bind no name.
    fn declare_decl(&mut self, name: &DeclName) -> Result<()> {
        match name {
            DeclName::Ident(n, _) => self.declare(n.clone()),
            DeclName::Escape(..) => Ok(()),
        }
    }

    fn decl_name(&mut self) -> Result<DeclName> {
        let span = self.span();
        match self.peek().clone() {
            Tok::LBracket => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RBracket)?;
                Ok(DeclName::Escape(e, span))
            }
            Tok::Name(n) => {
                self.bump();
                Ok(DeclName::Ident(n, span))
            }
            other => Err(self.err(format!("expected name but found {other}"))),
        }
    }

    fn terra_stmt(&mut self) -> Result<TerraStmt> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Var => {
                self.bump();
                let mut decls = Vec::new();
                // Each name is bound once its own annotation is evaluated, so
                // later annotations see it; the initializers see none of them.
                let before = self.scope().names.len();
                loop {
                    let name = self.decl_name()?;
                    let ty = if self.check(&Tok::Colon) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.declare_decl(&name)?;
                    decls.push((name, ty));
                    if !self.check(&Tok::Comma) {
                        break;
                    }
                }
                let inits = if self.check(&Tok::Assign) {
                    let declared = self.scope().names.split_off(before);
                    let inits = self.terra_exprlist()?;
                    self.scope().names.extend(declared);
                    inits
                } else {
                    Vec::new()
                };
                Ok(TerraStmt::Var { decls, inits, span })
            }
            Tok::If => {
                self.bump();
                let mut arms = Vec::new();
                let cond = self.terra_expr()?;
                self.expect(Tok::Then)?;
                let body = self.terra_scoped_block()?;
                arms.push((cond, body));
                let mut else_body = None;
                loop {
                    match self.peek() {
                        Tok::Elseif => {
                            self.bump();
                            let c = self.terra_expr()?;
                            self.expect(Tok::Then)?;
                            arms.push((c, self.terra_scoped_block()?));
                        }
                        Tok::Else => {
                            self.bump();
                            else_body = Some(self.terra_scoped_block()?);
                            self.expect(Tok::End)?;
                            break;
                        }
                        Tok::End => {
                            self.bump();
                            break;
                        }
                        other => {
                            return Err(self.err(format!(
                                "expected 'elseif', 'else' or 'end' but found {other}"
                            )))
                        }
                    }
                }
                Ok(TerraStmt::If {
                    arms,
                    else_body,
                    span,
                })
            }
            Tok::While => {
                self.bump();
                let cond = self.terra_expr()?;
                self.expect(Tok::Do)?;
                let body = self.terra_scoped_block()?;
                self.expect(Tok::End)?;
                Ok(TerraStmt::While { cond, body, span })
            }
            Tok::Repeat => {
                self.bump();
                // The condition sees the body's scope.
                self.push_scope(true);
                let body = self.terra_block()?;
                self.expect(Tok::Until)?;
                let cond = self.terra_expr()?;
                self.pop_scope();
                Ok(TerraStmt::Repeat { body, cond, span })
            }
            Tok::For | Tok::Parallelfor => {
                let parallel = self.bump().tok == Tok::Parallelfor;
                let var = self.decl_name()?;
                let ty = if self.check(&Tok::Colon) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Assign)?;
                let start = self.terra_expr()?;
                self.expect(Tok::Comma)?;
                let stop = self.terra_expr()?;
                // A `parallelfor` has no step: its `,` is left for `do` to reject.
                let step = if !parallel && self.check(&Tok::Comma) {
                    Some(self.terra_expr()?)
                } else {
                    None
                };
                self.expect(Tok::Do)?;
                let body = self.terra_loop_body(&var)?;
                self.expect(Tok::End)?;
                Ok(TerraStmt::For {
                    parallel,
                    var,
                    ty,
                    start,
                    stop,
                    step,
                    body,
                    span,
                })
            }
            Tok::Do => {
                self.bump();
                let body = self.terra_scoped_block()?;
                self.expect(Tok::End)?;
                Ok(TerraStmt::Block(body, span))
            }
            Tok::Return => {
                self.bump();
                let exprs = if self.terra_block_ends() || self.peek() == &Tok::Semi {
                    Vec::new()
                } else {
                    self.terra_exprlist()?
                };
                Ok(TerraStmt::Return { exprs, span })
            }
            Tok::Break => {
                self.bump();
                Ok(TerraStmt::Break(span))
            }
            Tok::Defer => {
                self.bump();
                let e = self.terra_expr()?;
                Ok(TerraStmt::Defer(e, span))
            }
            _ => {
                let first = if self.peek() == &Tok::At {
                    // `@ptr = value` — a store through a pointer.
                    self.bump();
                    let inner = self.terra_suffixed_expr()?;
                    TerraExpr::Deref(Box::new(inner), span)
                } else {
                    self.terra_suffixed_expr()?
                };
                if self.peek() == &Tok::Assign || self.peek() == &Tok::Comma {
                    let mut targets = vec![first];
                    while self.check(&Tok::Comma) {
                        let tspan = self.span();
                        if self.check(&Tok::At) {
                            let inner = self.terra_suffixed_expr()?;
                            targets.push(TerraExpr::Deref(Box::new(inner), tspan));
                        } else {
                            targets.push(self.terra_suffixed_expr()?);
                        }
                    }
                    self.expect(Tok::Assign)?;
                    let exprs = self.terra_exprlist()?;
                    Ok(TerraStmt::Assign {
                        targets,
                        exprs,
                        span,
                    })
                } else {
                    match first {
                        TerraExpr::EscapeExpr(e, s) => Ok(TerraStmt::Escape(*e, s)),
                        e @ (TerraExpr::Call { .. }
                        | TerraExpr::MethodCall { .. }
                        | TerraExpr::DynMethodCall { .. }) => Ok(TerraStmt::Expr(e)),
                        e => Err(SyntaxError::new(
                            "syntax error: Terra expression is not a statement",
                            e.span(),
                        )),
                    }
                }
            }
        }
    }

    fn terra_exprlist(&mut self) -> Result<Vec<TerraExpr>> {
        let mut v = vec![self.terra_expr()?];
        while self.check(&Tok::Comma) {
            v.push(self.terra_expr()?);
        }
        Ok(v)
    }

    fn terra_expr(&mut self) -> Result<TerraExpr> {
        self.terra_binary_expr(0)
    }

    fn terra_binary_expr(&mut self, min_prec: u8) -> Result<TerraExpr> {
        self.enter()?;
        let mut lhs = self.terra_unary_expr()?;
        while let Some((op, lprec, rprec)) = binary_op(self.peek()) {
            // Terra has no `..`.
            if lprec < min_prec || op == BinOp::Concat {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.terra_binary_expr(rprec)?;
            lhs = TerraExpr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.levels -= 1;
        Ok(lhs)
    }

    fn terra_unary_expr(&mut self) -> Result<TerraExpr> {
        let span = self.span();
        let prefix = self.peek().clone();
        // Terra has `@` and `&` where Lua has `#`.
        let op = unary_op(&prefix).filter(|op| *op != UnOp::Len);
        if op.is_none() && !matches!(prefix, Tok::At | Tok::Amp) {
            return self.terra_suffixed_expr();
        }
        self.bump();
        let expr = Box::new(self.terra_binary_expr(15)?);
        Ok(match (op, prefix) {
            (Some(op), _) => TerraExpr::UnOp { op, expr, span },
            (None, Tok::At) => TerraExpr::Deref(expr, span),
            (None, _) => TerraExpr::AddrOf(expr, span),
        })
    }

    /// [`suffixed_expr`](Self::suffixed_expr) in Terra, where an escape
    /// `[e]` is a prefix expression too: after a literal, a `[` on the next
    /// line starts a statement escape.
    fn terra_suffixed_expr(&mut self) -> Result<TerraExpr> {
        let prefix = matches!(self.peek(), Tok::Name(_) | Tok::LParen | Tok::LBracket);
        let mut e = self.terra_primary_expr()?;
        if !prefix {
            return Ok(e);
        }
        loop {
            let span = self.span();
            match self.peek().clone() {
                Tok::Dot => {
                    self.bump();
                    if self.check(&Tok::LBracket) {
                        let name = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        e = TerraExpr::DynField {
                            obj: Box::new(e),
                            name,
                            span,
                        };
                    } else {
                        let n = self.name()?;
                        e = TerraExpr::Field {
                            obj: Box::new(e),
                            name: n,
                            span,
                        };
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.terra_expr()?;
                    self.expect(Tok::RBracket)?;
                    e = TerraExpr::Index {
                        obj: Box::new(e),
                        index: Box::new(idx),
                        span,
                    };
                }
                Tok::Colon => match self.peek2().clone() {
                    Tok::Name(n) => {
                        self.bump();
                        self.bump();
                        let args = self.terra_call_args()?;
                        e = TerraExpr::MethodCall {
                            obj: Box::new(e),
                            name: n,
                            args,
                            span,
                        };
                    }
                    Tok::LBracket => {
                        self.bump();
                        self.bump();
                        let name = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        let args = self.terra_call_args()?;
                        e = TerraExpr::DynMethodCall {
                            obj: Box::new(e),
                            name,
                            args,
                            span,
                        };
                    }
                    _ => break,
                },
                Tok::LParen => {
                    self.bump();
                    let args = if self.peek() == &Tok::RParen {
                        Vec::new()
                    } else {
                        self.terra_exprlist()?
                    };
                    self.expect(Tok::RParen)?;
                    e = TerraExpr::Call {
                        func: Box::new(e),
                        args,
                        span,
                    };
                }
                Tok::LBrace => {
                    // Struct literal `Type { a, b }` / `Type { x = a }`.
                    self.bump();
                    let mut args = Vec::new();
                    while self.peek() != &Tok::RBrace {
                        match self.peek().clone() {
                            Tok::Name(n) if self.peek2() == &Tok::Assign => {
                                self.bump();
                                self.bump();
                                let v = self.terra_expr()?;
                                args.push((Some(n), v));
                            }
                            _ => {
                                args.push((None, self.terra_expr()?));
                            }
                        }
                        if !(self.check(&Tok::Comma) || self.check(&Tok::Semi)) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                    e = TerraExpr::StructInit {
                        ty: Box::new(e),
                        args,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn terra_call_args(&mut self) -> Result<Vec<TerraExpr>> {
        self.expect(Tok::LParen)?;
        let args = if self.peek() == &Tok::RParen {
            Vec::new()
        } else {
            self.terra_exprlist()?
        };
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn terra_primary_expr(&mut self) -> Result<TerraExpr> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(v, suffix) => {
                self.bump();
                Ok(TerraExpr::Int {
                    value: v,
                    suffix,
                    span,
                })
            }
            Tok::Float(v, is_f32) => {
                self.bump();
                Ok(TerraExpr::Float {
                    value: v,
                    is_f32,
                    span,
                })
            }
            Tok::True => {
                self.bump();
                Ok(TerraExpr::Bool(true, span))
            }
            Tok::False => {
                self.bump();
                Ok(TerraExpr::Bool(false, span))
            }
            Tok::Nil => {
                self.bump();
                Ok(TerraExpr::Nil(span))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(TerraExpr::Str(s, span))
            }
            Tok::Name(n) => {
                self.bump();
                let slot = self.resolve(&n)?;
                Ok(TerraExpr::Ident(n, slot, span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.terra_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RBracket)?;
                Ok(TerraExpr::EscapeExpr(Box::new(e), span))
            }
            Tok::Terra => {
                self.bump();
                let def = self.terra_function_tail(span)?;
                Ok(TerraExpr::TerraFunction(Rc::new(def)))
            }
            other => Err(self.err(format!("unexpected {other} in Terra expression"))),
        }
    }
}

/// The binary operator `tok` spells, with its left and right binding powers
/// (right-associative operators bind tighter on the left). One table for
/// both languages: they share every operator but `..`.
fn binary_op(tok: &Tok) -> Option<(BinOp, u8, u8)> {
    Some(match tok {
        Tok::Or => (BinOp::Or, 1, 2),
        Tok::And => (BinOp::And, 3, 4),
        Tok::Lt => (BinOp::Lt, 5, 6),
        Tok::Gt => (BinOp::Gt, 5, 6),
        Tok::Le => (BinOp::Le, 5, 6),
        Tok::Ge => (BinOp::Ge, 5, 6),
        Tok::Ne => (BinOp::Ne, 5, 6),
        Tok::Eq => (BinOp::Eq, 5, 6),
        Tok::Shl => (BinOp::Shl, 7, 8),
        Tok::Shr => (BinOp::Shr, 7, 8),
        Tok::DotDot => (BinOp::Concat, 10, 9), // right associative
        Tok::Plus => (BinOp::Add, 11, 12),
        Tok::Minus => (BinOp::Sub, 11, 12),
        Tok::Star => (BinOp::Mul, 13, 14),
        Tok::Slash => (BinOp::Div, 13, 14),
        Tok::Percent => (BinOp::Mod, 13, 14),
        Tok::Caret => (BinOp::Pow, 18, 17), // right assoc, above unary
        _ => return None,
    })
}

/// The prefix operator `tok` spells, in either language.
fn unary_op(tok: &Tok) -> Option<UnOp> {
    match tok {
        Tok::Not => Some(UnOp::Not),
        Tok::Minus => Some(UnOp::Neg),
        Tok::Hash => Some(UnOp::Len),
        _ => None,
    }
}

/// Converts the left/right side of a `->` type operator into a list of type
/// expressions: `{A, B}` becomes `[A, B]`, a single expression becomes a
/// one-element list, and `{}` becomes the empty list.
fn flatten_type_list(e: LuaExpr) -> Vec<LuaExpr> {
    match e {
        LuaExpr::Table { items, .. } => items
            .into_iter()
            .filter_map(|it| match it {
                TableItem::Positional(e) => Some(e),
                _ => None,
            })
            .collect(),
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Block {
        match parse(src) {
            Ok(b) => b,
            Err(e) => panic!("parse failed for {src:?}: {e}"),
        }
    }

    #[test]
    fn parses_locals_and_calls() {
        let b = parse_ok("local x, y = 1, 2\nprint(x + y)");
        assert_eq!(b.stmts.len(), 2);
        assert!(matches!(b.stmts[0], LuaStmt::Local { .. }));
        assert!(matches!(b.stmts[1], LuaStmt::Expr(LuaExpr::Call { .. })));
    }

    #[test]
    fn parses_control_flow() {
        parse_ok("if a then b() elseif c then d() else e() end");
        parse_ok("while x < 10 do x = x + 1 end");
        parse_ok("repeat f() until done");
        parse_ok("for i = 1, 10, 2 do print(i) end");
        parse_ok("for k, v in pairs(t) do print(k, v) end");
        parse_ok("do local x = 1 end");
    }

    #[test]
    fn parses_functions_and_methods() {
        let b = parse_ok("function a.b.c:m(x, ...) return x end");
        match &b.stmts[0] {
            LuaStmt::FunctionDecl {
                path, method, body, ..
            } => {
                assert_eq!(path.len(), 3);
                assert_eq!(method.as_deref(), Some("m"));
                assert!(body.is_vararg);
            }
            other => panic!("unexpected {other:?}"),
        }
        parse_ok("local function fact(n) if n == 0 then return 1 end return n * fact(n-1) end");
    }

    #[test]
    fn parses_terra_definition() {
        let b = parse_ok(
            "terra min(a: int, b: int) : int if a < b then return a else return b end end",
        );
        match &b.stmts[0] {
            LuaStmt::TerraDef {
                path, method, def, ..
            } => {
                assert_eq!(path[0].as_ref(), "min");
                assert!(method.is_none());
                assert_eq!(def.params.len(), 2);
                assert!(def.ret.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_terra_method_definition() {
        let b = parse_ok("terra Image:get(x: int) : float return self.data[x] end");
        match &b.stmts[0] {
            LuaStmt::TerraDef { path, method, .. } => {
                assert_eq!(path[0].as_ref(), "Image");
                assert_eq!(method.as_deref(), Some("get"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_struct() {
        let b = parse_ok("struct Image { data : &float; N : int }");
        match &b.stmts[0] {
            LuaStmt::StructDef { entries, .. } => {
                assert_eq!(entries.len(), 2);
                assert!(matches!(entries[0].ty, LuaExpr::PtrType(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
        parse_ok("struct Empty {}");
    }

    #[test]
    fn parses_quote_and_escape() {
        let b = parse_ok("local q = quote var x = 1 in x end");
        match &b.stmts[0] {
            LuaStmt::Local { exprs, .. } => {
                let LuaExpr::Quote(q) = &exprs[0] else {
                    panic!("expected quote")
                };
                assert_eq!(q.stmts.len(), 1);
                assert_eq!(q.exprs.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        parse_ok("local e = `x + 1");
        parse_ok("terra f() : int return [compute()] end");
    }

    #[test]
    fn parses_statement_escape_and_symbol_decl() {
        let src = r#"
            terra f(a : int) : int
                var [s] = a;
                [body];
                return [s]
            end
        "#;
        let b = parse_ok(src);
        match &b.stmts[0] {
            LuaStmt::TerraDef { def, .. } => {
                assert!(matches!(
                    def.body[0],
                    TerraStmt::Var { ref decls, .. } if matches!(decls[0].0, DeclName::Escape(..))
                ));
                assert!(matches!(def.body[1], TerraStmt::Escape(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_escaped_params() {
        let src = "local k = terra([A] : &double, [B] : &double, n : int) : int return n end";
        parse_ok(src);
        // Whole-parameter-list escape (class system stub pattern).
        parse_ok("local s = terra([params]) : int return 0 end");
    }

    #[test]
    fn parses_terra_for_and_prefetch_like_calls() {
        let src = r#"
            terra k(A : &double, N : int)
                for i = 0, N, 4 do
                    prefetch(A + 4, 0, 3, 1)
                    A[i] = A[i] * 2.0
                end
            end
        "#;
        parse_ok(src);
    }

    #[test]
    fn parses_struct_literal_and_cast() {
        parse_ok("terra f() : {} var i = GreyscaleImage {} end");
        parse_ok("local q = `Complex { exp, 0.f }");
        parse_ok("terra g(x : double) self.data = [&float](std.malloc(8)) end");
    }

    #[test]
    fn parses_deref_and_addrof() {
        let src = "terra f(p : &double) : double return @p + @(p + 1) end";
        parse_ok(src);
        parse_ok("terra g() laplace(&i, &o) end");
    }

    #[test]
    fn parses_vector_store_pattern() {
        // From the genkernel figure: assignment through a casted vector pointer.
        let src = r#"
            terra f()
                @vector_pointer([caddr]) = [c]
                var [v] = alpha * @vector_pointer([caddr])
            end
        "#;
        parse_ok(src);
    }

    #[test]
    fn parses_method_sugar_in_terra() {
        parse_ok("terra f(img : &Image) : float return img:get(1, 2) + img.N end");
        parse_ok("terra f(self : &C) return self.__vtable.[methodname]([params]) end");
        parse_ok("terra f(o : &O) return o:[mname](1) end");
    }

    #[test]
    fn parses_function_type_annotations() {
        let b = parse_ok("local Drawable = J.interface { draw = {} -> {} }");
        // Just shape-check: the table contains a Named item whose value is a FuncType.
        match &b.stmts[0] {
            LuaStmt::Local { exprs, .. } => {
                let LuaExpr::Call { args, .. } = &exprs[0] else {
                    panic!("expected call")
                };
                let LuaExpr::Table { items, .. } = &args[0] else {
                    panic!("expected table")
                };
                let TableItem::Named(n, v) = &items[0] else {
                    panic!("expected named")
                };
                assert_eq!(n.as_ref(), "draw");
                assert!(matches!(v, LuaExpr::FuncType { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        parse_ok("local t = {int, double} -> bool");
    }

    #[test]
    fn parses_nested_staging_example() {
        // The blockedloop generator from §2 of the paper (abridged).
        let src = r#"
            function blockedloop(N, blocksizes, bodyfn)
                local function generatelevel(n, ii, jj, bb)
                    if n > #blocksizes then
                        return bodyfn(ii, jj)
                    end
                    local blocksize = blocksizes[n]
                    return quote
                        for i = ii, min(ii + bb, N), blocksize do
                            for j = jj, min(jj + bb, N), blocksize do
                                [generatelevel(n + 1, i, j, blocksize)]
                            end
                        end
                    end
                end
                return generatelevel(1, 0, 0, N)
            end
        "#;
        parse_ok(src);
    }

    #[test]
    fn parses_table_and_call_sugar() {
        parse_ok(r#"local t = { field = "real", type = float }"#);
        parse_ok(r#"Complex.entries:insert { field = "imag", type = float }"#);
        parse_ok(r#"local s = require "lib""#);
    }

    #[test]
    fn parses_operator_precedence() {
        let b = parse_ok("return 1 + 2 * 3");
        match &b.stmts[0] {
            LuaStmt::Return { exprs, .. } => match &exprs[0] {
                LuaExpr::BinOp {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, LuaExpr::BinOp { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // Concat is right-associative.
        let b = parse_ok(r#"return "a" .. "b" .. "c""#);
        match &b.stmts[0] {
            LuaStmt::Return { exprs, .. } => match &exprs[0] {
                LuaExpr::BinOp {
                    op: BinOp::Concat,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        **rhs,
                        LuaExpr::BinOp {
                            op: BinOp::Concat,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse("local = 3").is_err());
        assert!(parse("terra f(x) end").is_err()); // missing type annotation
        assert!(parse("if x then").is_err());
        assert!(parse("x +").is_err());
        assert!(parse("1 + 2").is_err()); // expression is not a statement
    }

    #[test]
    fn parses_defer() {
        parse_ok("terra f() defer free(p) end");
    }

    #[test]
    fn parses_anonymous_terra_and_struct_exprs() {
        parse_ok("ImageImpl.methods.init = terra(self : &ImageImpl, N : int) : {} end");
        parse_ok("local S = struct { x : int }");
    }

    #[test]
    fn parses_multiline_paper_example() {
        let src = r#"
            function Image(PixelType)
                struct ImageImpl {
                    data : &PixelType,
                    N : int
                }
                terra ImageImpl:init(N : int) : {}
                    self.data = [&PixelType](std.malloc(N * N * sizeof(PixelType)))
                    self.N = N
                end
                terra ImageImpl:get(x : int, y : int) : PixelType
                    return self.data[x * self.N + y]
                end
                return ImageImpl
            end
            GreyscaleImage = Image(float)
        "#;
        parse_ok(src);
    }
    // -- name resolution ------------------------------------------------------

    fn at(hops: u16, index: u16) -> Slot {
        Slot::Local { hops, index }
    }

    /// The slots of the variables (and `...`) a `return` statement lists.
    fn returned(stmt: &LuaStmt) -> Vec<Slot> {
        let LuaStmt::Return { exprs, .. } = stmt else {
            panic!("not a return: {stmt:?}")
        };
        exprs
            .iter()
            .map(|e| match e {
                LuaExpr::Var(_, slot, _) | LuaExpr::Vararg(slot, _) => *slot,
                other => panic!("not a variable: {other:?}"),
            })
            .collect()
    }

    fn ident(e: &TerraExpr) -> Slot {
        match e {
            TerraExpr::Ident(_, slot, _) => *slot,
            other => panic!("not an identifier: {other:?}"),
        }
    }

    #[test]
    fn a_local_is_visible_from_the_next_statement() {
        let b = parse_ok("print(x) local x = x local x = x return x");
        assert_eq!((b.scope_at, b.nslots), (1, 2));
        let LuaStmt::Local { exprs, .. } = &b.stmts[1] else {
            panic!()
        };
        assert!(matches!(exprs[0], LuaExpr::Var(_, Slot::Global, _)));
        let LuaStmt::Local { exprs, .. } = &b.stmts[2] else {
            panic!()
        };
        assert!(matches!(&exprs[0], LuaExpr::Var(_, slot, _) if *slot == at(0, 0)));
        assert_eq!(returned(&b.stmts[3]), [at(0, 1)]);
    }

    #[test]
    fn a_block_that_declares_nothing_adds_no_hop() {
        let b = parse_ok(
            "local a = 1
             if c then return a end
             do local b = 2 if c then return a, b end end",
        );
        let LuaStmt::If { arms, .. } = &b.stmts[1] else {
            panic!()
        };
        assert_eq!(arms[0].1.nslots, 0);
        assert_eq!(returned(&arms[0].1.stmts[0]), [at(0, 0)]);
        let LuaStmt::Do(inner) = &b.stmts[2] else {
            panic!()
        };
        assert_eq!((inner.scope_at, inner.nslots), (0, 1));
        let LuaStmt::If { arms, .. } = &inner.stmts[1] else {
            panic!()
        };
        assert_eq!(returned(&arms[0].1.stmts[0]), [at(1, 0), at(0, 0)]);
    }

    #[test]
    fn a_call_scope_holds_parameters_varargs_then_locals() {
        let b = parse_ok("local function f(x, ...) local y = x return f, x, y, ... end");
        let LuaStmt::LocalFunction { body, .. } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!((body.body.scope_at, body.body.nslots), (0, 3));
        assert_eq!(
            returned(&body.body.stmts[1]),
            [at(1, 0), at(0, 0), at(0, 2), at(0, 1)]
        );
        // Without parameters the scope opens at the first `local`; `...`
        // outside a vararg function is nobody's.
        let b = parse_ok("function g() print(1) local z = 1 return z, ... end");
        let LuaStmt::FunctionDecl { body, base, .. } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(*base, Slot::Global);
        assert_eq!((body.body.scope_at, body.body.nslots), (1, 1));
        assert_eq!(returned(&body.body.stmts[2]), [at(0, 0), Slot::Global]);
        // A method's `self` is its first parameter.
        let b = parse_ok("local t = {} function t:m(a) return self, a, t end");
        let LuaStmt::FunctionDecl { body, base, .. } = &b.stmts[1] else {
            panic!()
        };
        assert_eq!(*base, at(0, 0));
        assert_eq!(body.params.len(), 2);
        assert_eq!(
            returned(&body.body.stmts[0]),
            [at(0, 0), at(0, 1), at(1, 0)]
        );
    }

    #[test]
    fn loop_variables_share_the_iteration_scope_with_the_bodys_locals() {
        let b = parse_ok("for i = 1, 2 do local k = i return i, k end");
        let LuaStmt::NumericFor { body, .. } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!((body.scope_at, body.nslots), (0, 2));
        assert_eq!(returned(&body.stmts[1]), [at(0, 0), at(0, 1)]);
        let b = parse_ok("for k, v in pairs(t) do return v, k end");
        let LuaStmt::GenericFor { body, .. } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(returned(&body.stmts[0]), [at(0, 1), at(0, 0)]);
        // `until` sees the body's locals.
        let b = parse_ok("repeat local done = true until done");
        let LuaStmt::Repeat { body, cond } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(body.nslots, 1);
        assert!(matches!(cond, LuaExpr::Var(_, slot, _) if *slot == at(0, 0)));
    }

    #[test]
    fn terra_scopes_follow_the_specializer() {
        // chunk scope ← parameter scope ← body scope.
        let b = parse_ok(
            "local n = 1
             terra f(a : int) : int var b = a + n; return b end",
        );
        let LuaStmt::TerraDef { def, base, .. } = &b.stmts[1] else {
            panic!()
        };
        assert_eq!(*base, Slot::Global);
        let TerraStmt::Var { inits, .. } = &def.body[0] else {
            panic!()
        };
        let TerraExpr::BinOp { lhs, rhs, .. } = &inits[0] else {
            panic!()
        };
        assert_eq!((ident(lhs), ident(rhs)), (at(1, 0), at(2, 0)));
        let TerraStmt::Return { exprs, .. } = &def.body[1] else {
            panic!()
        };
        assert_eq!(ident(&exprs[0]), at(0, 0));

        // An initializer does not see the name it initializes; `local terra`
        // binds its own name before the body.
        let b = parse_ok(
            "local x = 1
             local terra g() : int var x = x; return x + g() end",
        );
        let LuaStmt::TerraDef { def, .. } = &b.stmts[1] else {
            panic!()
        };
        let TerraStmt::Var { inits, .. } = &def.body[0] else {
            panic!()
        };
        assert_eq!(ident(&inits[0]), at(2, 0));
        let TerraStmt::Return { exprs, .. } = &def.body[1] else {
            panic!()
        };
        let TerraExpr::BinOp { lhs, rhs, .. } = &exprs[0] else {
            panic!()
        };
        let TerraExpr::Call { func, .. } = &**rhs else {
            panic!()
        };
        assert_eq!((ident(lhs), ident(func)), (at(0, 0), at(2, 1)));

        // A method body sits inside one more scope, holding `self`.
        let b = parse_ok("terra S:m() : int return self end");
        let LuaStmt::TerraDef { def, .. } = &b.stmts[0] else {
            panic!()
        };
        let TerraStmt::Return { exprs, .. } = &def.body[0] else {
            panic!()
        };
        assert_eq!(ident(&exprs[0]), at(2, 0));
    }

    #[test]
    fn quotes_and_escapes_resolve_in_the_shared_scope_stack() {
        let b = parse_ok(
            "local v = 1
             local q = quote var t = v; for i = 0, [v] do t = t + i end in t end",
        );
        let LuaStmt::Local { exprs, .. } = &b.stmts[1] else {
            panic!()
        };
        let LuaExpr::Quote(q) = &exprs[0] else {
            panic!()
        };
        let TerraStmt::Var { inits, .. } = &q.stmts[0] else {
            panic!()
        };
        assert_eq!(ident(&inits[0]), at(1, 0));
        let TerraStmt::For { stop, body, .. } = &q.stmts[1] else {
            panic!()
        };
        // The bound is evaluated outside the loop's scope…
        let TerraExpr::EscapeExpr(e, _) = stop else {
            panic!()
        };
        assert!(matches!(&**e, LuaExpr::Var(_, slot, _) if *slot == at(1, 0)));
        // …and the body inside it: `t` one scope out, `i` in the loop's.
        let TerraStmt::Assign { exprs, .. } = &body[0] else {
            panic!()
        };
        let TerraExpr::BinOp { lhs, rhs, .. } = &exprs[0] else {
            panic!()
        };
        assert_eq!((ident(lhs), ident(rhs)), (at(1, 0), at(0, 0)));
        assert_eq!(ident(&q.exprs[0]), at(0, 0));
    }

    #[test]
    fn parentheses_are_kept_only_around_multi_valued_expressions() {
        let b = parse_ok("return (f()), (o:m()), (...), (x), (1 + 2)");
        let LuaStmt::Return { exprs, .. } = &b.stmts[0] else {
            panic!()
        };
        assert!(exprs[..3].iter().all(|e| matches!(e, LuaExpr::Paren(_))));
        assert!(matches!(exprs[3], LuaExpr::Var(..)));
        assert!(matches!(exprs[4], LuaExpr::BinOp { .. }));
        assert!(parse("(f())").is_err(), "not a statement in Lua either");
    }
}
