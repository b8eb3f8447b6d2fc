//! Abstract syntax trees for the combined Lua-Terra language.
//!
//! The file-level program is a Lua block. Terra fragments (`terra`
//! definitions, `struct` declarations, `quote … end`, backtick quotations)
//! appear *inside* Lua expressions and statements, mirroring the paper's
//! design where Terra entities are first-class Lua values.
//!
//! Type annotations inside Terra code (`x : int`, `: {}`) are **Lua
//! expressions** evaluated during specialization — types are Lua values. The
//! parser additionally accepts the Terra type operators `&T` (pointer),
//! `{T, …}` (tuple) and `P -> R` (function type) inside annotation position
//! and inside escapes; these surface as dedicated [`LuaExpr`] variants.

use crate::span::Span;
use std::rc::Rc;

/// An interned-ish name (shared string).
pub type Name = Rc<str>;

/// Where a variable lives at run time. The parser fixes this once per
/// use site by walking its own stack of scopes, so the evaluator never looks
/// a name up by its spelling in a local scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The `index`-th variable of the scope `hops` levels out from the
    /// innermost one that exists at this point of the program.
    Local {
        /// Scopes to walk outwards.
        hops: u16,
        /// Position within that scope, in declaration order.
        index: u16,
    },
    /// Not bound by any enclosing scope: the global table, by name.
    Global,
}

/// A block of Lua statements.
///
/// A block that declares variables owns a scope. The scope opens just before
/// the first declaring statement (`scope_at`) — statements before it run in
/// the enclosing scope — and holds `nslots` variables in declaration order.
/// Loop and function bodies open theirs on entry: the loop variables or
/// parameters come first, then the body's own locals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<LuaStmt>,
    /// Index of the statement before which the block's scope opens.
    pub scope_at: u32,
    /// Variables the block's scope holds; 0 means it has none and runs in
    /// the enclosing scope.
    pub nslots: u16,
}

/// Binary operators shared by Lua and Terra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^` (exponentiation in Lua; bitwise xor in Terra)
    Pow,
    /// `..` string concatenation (Lua only)
    Concat,
    /// `==`
    Eq,
    /// `~=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// `<<` (Terra only)
    Shl,
    /// `>>` (Terra only)
    Shr,
}

/// Unary operators shared by Lua and Terra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `not`
    Not,
    /// `#` length (Lua only)
    Len,
}

// ---------------------------------------------------------------------------
// Lua
// ---------------------------------------------------------------------------

/// A Lua statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LuaStmt {
    /// `local a, b = e1, e2`
    Local {
        /// Declared names.
        names: Vec<Name>,
        /// Initializers (may be shorter or longer than `names`).
        exprs: Vec<LuaExpr>,
        /// Statement location.
        span: Span,
    },
    /// `a, b.c[d] = e1, e2`
    Assign {
        /// Assignment targets (`Var`, `Index`).
        targets: Vec<LuaExpr>,
        /// Right-hand sides.
        exprs: Vec<LuaExpr>,
        /// Statement location.
        span: Span,
    },
    /// An expression statement (function or method call).
    Expr(LuaExpr),
    /// `do … end`
    Do(Block),
    /// `while cond do body end`
    While {
        /// Loop condition.
        cond: LuaExpr,
        /// Loop body.
        body: Block,
    },
    /// `repeat body until cond`
    Repeat {
        /// Loop body.
        body: Block,
        /// Exit condition (checked after the body, in the body's scope).
        cond: LuaExpr,
    },
    /// `if … then … elseif … else … end`
    If {
        /// `(condition, body)` pairs for `if`/`elseif`.
        arms: Vec<(LuaExpr, Block)>,
        /// The `else` body, if present.
        else_body: Option<Block>,
    },
    /// `for v = start, stop [, step] do body end`
    NumericFor {
        /// Loop variable.
        var: Name,
        /// Start expression.
        start: LuaExpr,
        /// Inclusive stop expression.
        stop: LuaExpr,
        /// Optional step expression (defaults to 1).
        step: Option<LuaExpr>,
        /// Loop body.
        body: Block,
    },
    /// `for a, b in e do body end`
    GenericFor {
        /// Loop variables.
        vars: Vec<Name>,
        /// Iterator expressions.
        exprs: Vec<LuaExpr>,
        /// Loop body.
        body: Block,
    },
    /// `function a.b.c[:m](…) … end`
    FunctionDecl {
        /// Dotted path of the target (`a`, `b`, `c`).
        path: Vec<Name>,
        /// Where `path[0]` lives.
        base: Slot,
        /// Method name if declared with `:`; `body.params` then starts
        /// with the implicit `self`.
        method: Option<Name>,
        /// The function itself.
        body: Rc<LuaFunctionBody>,
        /// Statement location.
        span: Span,
    },
    /// `local function f(…) … end`
    LocalFunction {
        /// Declared local name (in scope inside the body, for recursion).
        name: Name,
        /// The function.
        body: Rc<LuaFunctionBody>,
    },
    /// `return e1, e2`
    Return {
        /// Returned expressions.
        exprs: Vec<LuaExpr>,
        /// Statement location.
        span: Span,
    },
    /// `break`
    Break(Span),
    /// `terra f(…) : R … end` or `terra Obj:method(…) … end` as a statement;
    /// also covers bare declarations `terra f :: type`? (not supported) and
    /// assigns the created Terra function to the named path.
    TerraDef {
        /// Dotted path being assigned (e.g. `ImageImpl`, `methods`, `init`).
        path: Vec<Name>,
        /// Where `path[0]` lived before this statement (a `local terra f`
        /// additionally declares a new `f`).
        base: Slot,
        /// Method name if declared with `:` — sugar for
        /// `path.methods.<name>` with implicit `self : &Path`.
        method: Option<Name>,
        /// The Terra function literal.
        def: Rc<TerraFuncDef>,
        /// Whether the statement was prefixed with `local`.
        is_local: bool,
        /// Statement location.
        span: Span,
    },
    /// `struct Name { field : T, … }` as a statement; assigns a new struct
    /// type to `path`.
    StructDef {
        /// Dotted path being assigned.
        path: Vec<Name>,
        /// Where `path[0]` lives (unused by a `local struct S`, which
        /// declares a new `S`).
        base: Slot,
        /// Declared entries.
        entries: Vec<StructEntry>,
        /// Whether the statement was prefixed with `local`.
        is_local: bool,
        /// Statement location.
        span: Span,
    },
}

/// One `name : type` entry of a struct declaration. The type is a Lua
/// expression evaluated at declaration time.
#[derive(Debug, Clone, PartialEq)]
pub struct StructEntry {
    /// Field name.
    pub name: Name,
    /// Field type annotation (a Lua expression producing a Terra type).
    pub ty: LuaExpr,
    /// Source location.
    pub span: Span,
}

/// The body of a Lua `function` literal.
#[derive(Debug, Clone, PartialEq)]
pub struct LuaFunctionBody {
    /// Parameter names (including the implicit `self`, which the parser adds
    /// for method declarations).
    pub params: Vec<Name>,
    /// Whether the parameter list ends with `...`.
    pub is_vararg: bool,
    /// Function body. Its scope holds the parameters, then the packed
    /// varargs if `is_vararg`, then the body's locals.
    pub body: Block,
    /// Definition location.
    pub span: Span,
}

/// A Lua expression.
#[derive(Debug, Clone, PartialEq)]
pub enum LuaExpr {
    /// `nil`
    Nil(Span),
    /// `true`
    True(Span),
    /// `false`
    False(Span),
    /// Number literal (Lua numbers are doubles).
    Number(f64, Span),
    /// String literal.
    Str(Name, Span),
    /// `...` (the slot of the enclosing vararg function's packed arguments).
    Vararg(Slot, Span),
    /// Variable reference.
    Var(Name, Slot, Span),
    /// `(e)` around a call, method call or `...`: truncates to one value.
    Paren(Box<LuaExpr>),
    /// `e[i]` or `e.name` (the latter with a string index).
    Index {
        /// Indexed object.
        obj: Box<LuaExpr>,
        /// Index expression.
        index: Box<LuaExpr>,
        /// Location.
        span: Span,
    },
    /// `f(args…)`, `f "str"`, `f {table}`
    Call {
        /// Callee.
        func: Box<LuaExpr>,
        /// Arguments.
        args: Vec<LuaExpr>,
        /// Location.
        span: Span,
    },
    /// `obj:name(args…)`
    MethodCall {
        /// Receiver.
        obj: Box<LuaExpr>,
        /// Method name.
        name: Name,
        /// Arguments.
        args: Vec<LuaExpr>,
        /// Location.
        span: Span,
    },
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<LuaExpr>,
        /// Right operand.
        rhs: Box<LuaExpr>,
        /// Location.
        span: Span,
    },
    /// Unary operation.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<LuaExpr>,
        /// Location.
        span: Span,
    },
    /// `function (…) … end`
    Function(Rc<LuaFunctionBody>),
    /// `{ a, b; k = v, [e] = v }`
    Table {
        /// Items in source order.
        items: Vec<TableItem>,
        /// Location.
        span: Span,
    },
    /// An anonymous `terra (…) … end` literal.
    TerraFunction(Rc<TerraFuncDef>),
    /// `quote … end` or `` `expr ``.
    Quote(Rc<TerraQuote>),
    /// An anonymous `struct { … }` literal.
    AnonStruct {
        /// Declared entries.
        entries: Vec<StructEntry>,
        /// Location.
        span: Span,
    },
    /// Terra type operator `&T` — pointer to `T`.
    PtrType(Box<LuaExpr>, Span),
    /// Terra type operator `{T1, T2, …}` in annotation position — tuple type.
    TupleType(Vec<LuaExpr>, Span),
    /// Terra type operator `params -> returns` — function pointer type.
    FuncType {
        /// Parameter types.
        params: Vec<LuaExpr>,
        /// Return types.
        returns: Vec<LuaExpr>,
        /// Location.
        span: Span,
    },
}

/// One item of a Lua table constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum TableItem {
    /// Positional item (appended to the array part).
    Positional(LuaExpr),
    /// `name = value`
    Named(Name, LuaExpr),
    /// `[key] = value`
    Keyed(LuaExpr, LuaExpr),
}

impl LuaExpr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            LuaExpr::Nil(s)
            | LuaExpr::True(s)
            | LuaExpr::False(s)
            | LuaExpr::Number(_, s)
            | LuaExpr::Str(_, s)
            | LuaExpr::Vararg(_, s)
            | LuaExpr::Var(_, _, s)
            | LuaExpr::PtrType(_, s)
            | LuaExpr::TupleType(_, s) => *s,
            LuaExpr::Index { span, .. }
            | LuaExpr::Call { span, .. }
            | LuaExpr::MethodCall { span, .. }
            | LuaExpr::BinOp { span, .. }
            | LuaExpr::UnOp { span, .. }
            | LuaExpr::Table { span, .. }
            | LuaExpr::AnonStruct { span, .. }
            | LuaExpr::FuncType { span, .. } => *span,
            LuaExpr::Paren(e) => e.span(),
            LuaExpr::Function(b) => b.span,
            LuaExpr::TerraFunction(d) => d.span,
            LuaExpr::Quote(q) => q.span,
        }
    }
}

// ---------------------------------------------------------------------------
// Terra
// ---------------------------------------------------------------------------

/// A declared name in Terra code: either a plain identifier or an escape
/// `[e]` that must evaluate to a symbol (paper: `symbol()` / `symmat`).
#[derive(Debug, Clone, PartialEq)]
pub enum DeclName {
    /// Plain identifier, hygienically renamed at specialization.
    Ident(Name, Span),
    /// `[lua-expr]` evaluating to a symbol (or list of symbols in parameter
    /// position).
    Escape(LuaExpr, Span),
}

impl DeclName {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            DeclName::Ident(_, s) | DeclName::Escape(_, s) => *s,
        }
    }
}

/// One Terra function parameter: `name : type`.
#[derive(Debug, Clone, PartialEq)]
pub struct TerraParam {
    /// Parameter name (identifier or symbol escape).
    pub name: DeclName,
    /// Type annotation, a Lua expression; `None` only for escape parameters
    /// whose symbols carry their own types.
    pub ty: Option<LuaExpr>,
}

/// A Terra function literal: `terra (params) : ret body end`.
#[derive(Debug, Clone, PartialEq)]
pub struct TerraFuncDef {
    /// Declared parameters.
    pub params: Vec<TerraParam>,
    /// Optional return type annotation (Lua expression; `{}` means void).
    pub ret: Option<LuaExpr>,
    /// Body statements.
    pub body: Vec<TerraStmt>,
    /// Definition location.
    pub span: Span,
    /// Name hint for diagnostics (filled for named definitions).
    pub name_hint: Option<Name>,
}

/// A `quote … end` (statement quote, with optional `in` expressions) or a
/// backtick single-expression quote.
#[derive(Debug, Clone, PartialEq)]
pub struct TerraQuote {
    /// Quoted statements (empty for backtick quotes).
    pub stmts: Vec<TerraStmt>,
    /// Trailing expressions after `in` (or the single backtick expression).
    pub exprs: Vec<TerraExpr>,
    /// Location.
    pub span: Span,
}

/// A Terra statement.
///
/// Statement vectors own their elements directly; the size skew from the
/// `For` variant is acceptable for an AST that is built once per chunk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum TerraStmt {
    /// `var a : T, b = e1, e2`
    Var {
        /// Declared names with optional type annotations.
        decls: Vec<(DeclName, Option<LuaExpr>)>,
        /// Initializers (may be empty for default initialization).
        inits: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `lhs1, lhs2 = r1, r2`
    Assign {
        /// L-value expressions.
        targets: Vec<TerraExpr>,
        /// Right-hand sides.
        exprs: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `if … then … elseif … else … end`
    If {
        /// `(cond, body)` pairs.
        arms: Vec<(TerraExpr, Vec<TerraStmt>)>,
        /// Optional `else` body.
        else_body: Option<Vec<TerraStmt>>,
        /// Location.
        span: Span,
    },
    /// `while cond do body end`
    While {
        /// Condition.
        cond: TerraExpr,
        /// Body.
        body: Vec<TerraStmt>,
        /// Location.
        span: Span,
    },
    /// `repeat body until cond`
    Repeat {
        /// Body.
        body: Vec<TerraStmt>,
        /// Condition.
        cond: TerraExpr,
        /// Location.
        span: Span,
    },
    /// `for v = start, stop [, step] do body end` (half-open, like Terra),
    /// or `parallelfor v = start, stop do body end` — a data-parallel numeric
    /// loop: iterations may execute concurrently across worker threads (no
    /// step; the body is extracted into a kernel function at typechecking).
    For {
        /// `parallelfor` rather than `for`.
        parallel: bool,
        /// Loop variable.
        var: DeclName,
        /// Optional loop-variable type annotation.
        ty: Option<LuaExpr>,
        /// Start expression.
        start: TerraExpr,
        /// Exclusive stop expression.
        stop: TerraExpr,
        /// Optional step.
        step: Option<TerraExpr>,
        /// Body.
        body: Vec<TerraStmt>,
        /// Location.
        span: Span,
    },
    /// `return e1, e2`
    Return {
        /// Returned expressions.
        exprs: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `break`
    Break(Span),
    /// `do … end`
    Block(Vec<TerraStmt>, Span),
    /// An expression statement (call).
    Expr(TerraExpr),
    /// A statement-position escape `[e]`: splices a quote, a list of quotes,
    /// or statements produced by Lua code.
    Escape(LuaExpr, Span),
    /// `defer f(args)` — run the call when the scope exits.
    Defer(TerraExpr, Span),
}

impl TerraStmt {
    /// The source span of this statement.
    pub fn span(&self) -> Span {
        match self {
            TerraStmt::Var { span, .. }
            | TerraStmt::Assign { span, .. }
            | TerraStmt::If { span, .. }
            | TerraStmt::While { span, .. }
            | TerraStmt::Repeat { span, .. }
            | TerraStmt::For { span, .. }
            | TerraStmt::Return { span, .. }
            | TerraStmt::Block(_, span)
            | TerraStmt::Escape(_, span)
            | TerraStmt::Defer(_, span)
            | TerraStmt::Break(span) => *span,
            TerraStmt::Expr(e) => e.span(),
        }
    }
}

/// A Terra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TerraExpr {
    /// Integer literal with suffix-derived width.
    Int {
        /// Value (bit pattern for unsigned).
        value: i64,
        /// Literal suffix.
        suffix: crate::token::IntSuffix,
        /// Location.
        span: Span,
    },
    /// Floating literal; `is_f32` for `f`-suffixed literals.
    Float {
        /// Value.
        value: f64,
        /// Whether the literal is a `float` (f32) rather than `double`.
        is_f32: bool,
        /// Location.
        span: Span,
    },
    /// `true` / `false`
    Bool(bool, Span),
    /// `nil` — the null pointer.
    Nil(Span),
    /// String literal (becomes `rawstring`).
    Str(Name, Span),
    /// Identifier; what it denotes (Terra local vs. Lua value) is decided
    /// during specialization by what its slot holds.
    Ident(Name, Slot, Span),
    /// `e.name` — struct field access or Lua table select.
    Field {
        /// Object.
        obj: Box<TerraExpr>,
        /// Field name.
        name: Name,
        /// Location.
        span: Span,
    },
    /// `e.[lua-expr]` — computed field access (paper: `self.__vtable.[methodname]`).
    DynField {
        /// Object.
        obj: Box<TerraExpr>,
        /// Lua expression producing the field name or symbol.
        name: LuaExpr,
        /// Location.
        span: Span,
    },
    /// `e[i]`
    Index {
        /// Indexed pointer or array.
        obj: Box<TerraExpr>,
        /// Index expression.
        index: Box<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `f(args)` — also covers casts `T(e)` and struct constructors when the
    /// callee specializes to a type.
    Call {
        /// Callee.
        func: Box<TerraExpr>,
        /// Arguments.
        args: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `obj:name(args)`
    MethodCall {
        /// Receiver.
        obj: Box<TerraExpr>,
        /// Method name.
        name: Name,
        /// Arguments.
        args: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `obj:[lua-expr](args)` — computed method call.
    DynMethodCall {
        /// Receiver.
        obj: Box<TerraExpr>,
        /// Lua expression producing the method name.
        name: LuaExpr,
        /// Arguments.
        args: Vec<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `TypeExpr { a, b, … }` / `TypeExpr { x = a }` — struct literal. The
    /// callee must specialize to a struct type.
    StructInit {
        /// Type expression.
        ty: Box<TerraExpr>,
        /// Positional initializers.
        args: Vec<(Option<Name>, TerraExpr)>,
        /// Location.
        span: Span,
    },
    /// Anonymous tuple/array literal `{a, b}` in expression position? Not in
    /// core Terra; retained as `arrayof`-style literal via builtins instead.
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<TerraExpr>,
        /// Right operand.
        rhs: Box<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// Unary operation.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<TerraExpr>,
        /// Location.
        span: Span,
    },
    /// `@e` — pointer dereference.
    Deref(Box<TerraExpr>, Span),
    /// `&e` — address of an l-value.
    AddrOf(Box<TerraExpr>, Span),
    /// `[lua-expr]` — expression escape; the Lua value is spliced in.
    EscapeExpr(Box<LuaExpr>, Span),
    /// `e and e2` / `e or e2` use `BinOp`; `select(cond, a, b)` via builtin.
    /// An inline anonymous terra function used as a value.
    TerraFunction(Rc<TerraFuncDef>),
}

impl TerraExpr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            TerraExpr::Int { span, .. }
            | TerraExpr::Float { span, .. }
            | TerraExpr::Bool(_, span)
            | TerraExpr::Nil(span)
            | TerraExpr::Str(_, span)
            | TerraExpr::Ident(_, _, span)
            | TerraExpr::Field { span, .. }
            | TerraExpr::DynField { span, .. }
            | TerraExpr::Index { span, .. }
            | TerraExpr::Call { span, .. }
            | TerraExpr::MethodCall { span, .. }
            | TerraExpr::DynMethodCall { span, .. }
            | TerraExpr::StructInit { span, .. }
            | TerraExpr::BinOp { span, .. }
            | TerraExpr::UnOp { span, .. }
            | TerraExpr::Deref(_, span)
            | TerraExpr::AddrOf(_, span)
            | TerraExpr::EscapeExpr(_, span) => *span,
            TerraExpr::TerraFunction(d) => d.span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accessible() {
        let e = LuaExpr::Number(1.0, Span::new(0, 1, 1));
        assert_eq!(e.span().line, 1);
        let t = TerraExpr::Bool(true, Span::new(0, 4, 2));
        assert_eq!(t.span().line, 2);
        let s = TerraStmt::Break(Span::new(0, 5, 3));
        assert_eq!(s.span().line, 3);
    }
}
