//! The typed intermediate representation produced by the Terra typechecker.
//!
//! The IR is a tree of statements over explicit, numbered locals. Scalar and
//! pointer locals live in VM registers; aggregate locals (structs, arrays)
//! and address-taken scalars are marked `in_memory` and get frame slots in
//! the VM's linear memory. All l-value sugar (field access, indexing,
//! dereference) has been lowered to explicit address arithmetic + `Load` /
//! `Store` by the time IR exists.

use crate::types::{FuncTy, ScalarTy, Ty};
use std::sync::Arc;
use terra_syntax::{Provenance, Span};

/// Handle to a Terra function in a program's function table. This is the
/// formal semantics' *function address* `l`: it is allocated at declaration
/// time and filled in by definition, enabling mutual recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Handle to a global variable cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Index of a local slot within an [`IrFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

/// A parameter or result type in a builtin's C signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CTy {
    /// A pointer to the scalar: `&uint8` stands for C's `void*`, `&int8` is
    /// a C string.
    Ptr(ScalarTy),
    /// A scalar.
    Scalar(ScalarTy),
    /// `void`.
    Void,
}

impl CTy {
    /// The Terra type a call is checked against.
    pub fn ty(self) -> Ty {
        match self {
            CTy::Ptr(s) => Ty::Scalar(s).ptr_to(),
            CTy::Scalar(s) => Ty::Scalar(s),
            CTy::Void => Ty::Unit,
        }
    }
}

const PTR: CTy = CTy::Ptr(ScalarTy::U8);
const STR: CTy = CTy::Ptr(ScalarTy::I8);
const U64: CTy = CTy::Scalar(ScalarTy::U64);
const U32: CTy = CTy::Scalar(ScalarTy::U32);
const INT: CTy = CTy::Scalar(ScalarTy::I32);
const F64: CTy = CTy::Scalar(ScalarTy::F64);
const VOID: CTy = CTy::Void;

/// Where Lua code finds a builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lib {
    /// In the table `terralib.includec` returns.
    C,
    /// As a global: a Terra intrinsic, not a C function.
    Terra,
}

/// What a builtin does besides returning a value — the class the layers
/// behind the IR decide by.
#[derive(Debug, Clone, Copy)]
pub enum Effect {
    /// Nothing: the result is this function of the `double` arguments (the
    /// second is 0 for a unary builtin). Lua and the VM both call it, so
    /// the two agree bit for bit.
    Pure(fn(f64, f64) -> f64),
    /// Reads or writes the memory its pointer arguments address.
    Memory,
    /// Changes the allocator's state; forbidden in `parallelfor` kernels.
    Allocates,
    /// Reads or changes state outside the program's data (clock, random
    /// seed); forbidden in `parallelfor` kernels.
    Nondeterministic,
    /// Writes to the output sink.
    Output,
    /// Ends the run.
    Traps,
}

/// One row of the `builtins!` table.
#[derive(Debug)]
pub struct BuiltinInfo {
    /// Where Lua finds it.
    pub lib: Lib,
    /// Its names there; the first is the one diagnostics use.
    pub names: &'static [&'static str],
    /// Types of the fixed parameters.
    pub params: &'static [CTy],
    /// Whether more arguments may follow the fixed ones.
    pub variadic: bool,
    /// Result type.
    pub ret: CTy,
    /// Effect class.
    pub effect: Effect,
}

/// Declares the VM runtime's builtins, one row each:
///
/// ```text
/// /// doc
/// Variant = Lib["name", "alias", ..] (param types) variadic? -> result, Effect;
/// ```
///
/// The rows are [`Builtin`] and [`Builtin::info`]; the name list `includec`
/// exports, the signatures the typechecker and the verifier check calls
/// against, the kernel-safety rule of `parallelfor` and the arithmetic of
/// the pure functions are all read from here. What a builtin's *effect* does
/// (allocating, printing, trapping) is the one thing written elsewhere, in
/// the VM's `call_builtin`.
macro_rules! builtins {
    (@variadic) => { false };
    (@variadic variadic) => { true };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $lib:ident[$($name:literal),+] ($($param:expr),*) $($variadic:ident)? -> $ret:expr, $effect:expr;
    )*) => {
        /// Built-in functions provided by the VM runtime — the simulated libc
        /// and math library that `terralib.includec` exposes, plus Terra
        /// intrinsics.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Builtin { $($(#[$doc])* $variant),* }

        impl Builtin {
            /// Every builtin, in declaration order.
            pub const ALL: &'static [Builtin] = &[$(Builtin::$variant),*];

            /// The builtin's row of the table.
            pub fn info(self) -> &'static BuiltinInfo {
                use Effect::*;
                static TABLE: &[BuiltinInfo] = &[$(BuiltinInfo {
                    lib: Lib::$lib,
                    names: &[$($name),+],
                    params: &[$($param),*],
                    variadic: builtins!(@variadic $($variadic)?),
                    ret: $ret,
                    effect: $effect,
                }),*];
                &TABLE[self as usize]
            }
        }
    };
}

builtins! {
    /// `malloc(size) -> &opaque`
    Malloc = C["malloc"] (U64) -> PTR, Allocates;
    /// `free(ptr)`
    Free = C["free"] (PTR) -> VOID, Allocates;
    /// `realloc(ptr, size) -> &opaque`
    Realloc = C["realloc"] (PTR, U64) -> PTR, Allocates;
    /// `memcpy(dst, src, n)`
    Memcpy = C["memcpy"] (PTR, PTR, U64) -> PTR, Memory;
    /// `memset(dst, byte, n)`
    Memset = C["memset"] (PTR, INT, U64) -> PTR, Memory;
    /// `sqrt(double) -> double`
    Sqrt = C["sqrt", "sqrtf"] (F64) -> F64, Pure(|x, _| x.sqrt());
    /// `fabs`
    Fabs = C["fabs", "fabsf"] (F64) -> F64, Pure(|x, _| x.abs());
    /// `sin`
    Sin = C["sin"] (F64) -> F64, Pure(|x, _| x.sin());
    /// `cos`
    Cos = C["cos"] (F64) -> F64, Pure(|x, _| x.cos());
    /// `exp`
    Exp = C["exp"] (F64) -> F64, Pure(|x, _| x.exp());
    /// `log`
    Log = C["log"] (F64) -> F64, Pure(|x, _| x.ln());
    /// `pow(double, double)`
    Pow = C["pow", "powf"] (F64, F64) -> F64, Pure(f64::powf);
    /// `floor`
    Floor = C["floor"] (F64) -> F64, Pure(|x, _| x.floor());
    /// `ceil`
    Ceil = C["ceil"] (F64) -> F64, Pure(|x, _| x.ceil());
    /// `fmod`
    Fmod = C["fmod", "fmodf"] (F64, F64) -> F64, Pure(|x, y| x % y);
    /// `clock() -> double` — seconds of CPU time, for in-language timing.
    Clock = C["clock"] () -> F64, Nondeterministic;
    /// `printf(fmt, …)` — a C-printf subset (`%d %f %g %s %u %lld %p %%`).
    Printf = C["printf"] (STR) variadic -> INT, Output;
    /// `prefetch(addr, rw, locality, cachetype)` — issues a real prefetch
    /// hint for the addressed VM memory. The typechecker checks the three
    /// hint arguments and drops them, so the IR call has the address alone.
    Prefetch = Terra["prefetch"] (PTR) -> VOID, Memory;
    /// `rand() -> int` — deterministic LCG, seeded by `srand`.
    Rand = C["rand"] () -> INT, Nondeterministic;
    /// `srand(seed)`
    Srand = C["srand"] (U32) -> VOID, Nondeterministic;
    /// `abort()` — traps.
    Abort = C["abort"] () -> VOID, Traps;
}

impl Builtin {
    /// The builtin's C-level name.
    pub fn name(self) -> &'static str {
        self.info().names[0]
    }
}

/// Arithmetic/bitwise binary operators. The operand and result types are
/// carried by the surrounding [`IrExpr`]; an op is valid on matching scalar
/// or vector types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>` (arithmetic for signed, logical for unsigned)
    Shr,
    /// Bitwise/boolean and.
    And,
    /// Bitwise/boolean or.
    Or,
    /// Bitwise xor.
    Xor,
    /// IEEE min (used by vectorized stencils).
    Min,
    /// IEEE max.
    Max,
}

impl BinKind {
    /// Whether the 64-bit result of this operator on canonical operands of
    /// narrow integer type `s` can leave `s` and must be wrapped back into
    /// it: sums, differences, products and left shifts can; a signed
    /// quotient does at `MIN / -1`; unsigned quotients, remainders, right
    /// shifts, bitwise operators, `min` and `max` cannot.
    pub fn can_leave(self, s: ScalarTy) -> bool {
        match self {
            BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Shl => true,
            BinKind::Div => s.is_signed(),
            _ => false,
        }
    }
}

/// Comparison predicates; result type is `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
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
}

impl CmpKind {
    /// The predicate that holds exactly when `self` does not (on integers
    /// and pointers; a float comparison with a NaN fails both).
    pub fn negated(self) -> CmpKind {
        match self {
            CmpKind::Eq => CmpKind::Ne,
            CmpKind::Ne => CmpKind::Eq,
            CmpKind::Lt => CmpKind::Ge,
            CmpKind::Le => CmpKind::Gt,
            CmpKind::Gt => CmpKind::Le,
            CmpKind::Ge => CmpKind::Lt,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Arithmetic negation.
    Neg,
    /// Boolean/bitwise not.
    Not,
}

/// What a call targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A Terra function by id (may still be undefined at IR-build time;
    /// linking resolves it lazily, per the paper).
    Direct(FuncId),
    /// A VM builtin.
    Builtin(Builtin),
    /// An indirect call through a function-pointer value (vtables).
    Indirect(Box<IrExpr>),
}

/// A typed IR expression.
#[derive(Debug, Clone, PartialEq)]
pub struct IrExpr {
    /// Result type.
    pub ty: Ty,
    /// Node kind.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer constant (bit pattern; `ty` gives signedness/width).
    ConstInt(i64),
    /// Floating constant; one of type `float` holds an `f32` value (see
    /// [`IrExpr::float`]).
    ConstFloat(f64),
    /// Boolean constant.
    ConstBool(bool),
    /// Null pointer.
    ConstNull,
    /// Function pointer constant.
    ConstFunc(FuncId),
    /// String constant (interned into VM memory; type `rawstring`).
    ConstStr(Arc<str>),
    /// Read a register local.
    Local(LocalId),
    /// Address of an in-memory local.
    LocalAddr(LocalId),
    /// Address of a global cell.
    GlobalAddr(GlobalId),
    /// Load `ty` from the address computed by the operand.
    Load(Box<IrExpr>),
    /// Binary arithmetic on matching scalar/vector operands.
    Binary {
        /// Operator.
        op: BinKind,
        /// Left operand.
        lhs: Box<IrExpr>,
        /// Right operand.
        rhs: Box<IrExpr>,
    },
    /// Comparison producing `bool`.
    Cmp {
        /// Predicate.
        op: CmpKind,
        /// Left operand.
        lhs: Box<IrExpr>,
        /// Right operand.
        rhs: Box<IrExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnKind,
        /// Operand.
        expr: Box<IrExpr>,
    },
    /// Conversion from `expr.ty` to `self.ty`: scalar↔scalar, ptr↔ptr,
    /// ptr↔integer, scalar→vector broadcast.
    Cast(Box<IrExpr>),
    /// Function call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<IrExpr>,
    },
    /// `select(cond, a, b)` — branch-free conditional.
    Select {
        /// Condition (`bool`).
        cond: Box<IrExpr>,
        /// Value when true.
        then_value: Box<IrExpr>,
        /// Value when false.
        else_value: Box<IrExpr>,
    },
}

/// A typed IR statement: a [`StmtKind`] plus source metadata.
///
/// The span and `implicit` flag are diagnostic metadata: equality compares
/// only the `kind`, so structural tests are unaffected by where a statement
/// was lowered from.
#[derive(Debug, Clone)]
pub struct IrStmt {
    /// Source location this statement was lowered from; synthetic when the
    /// statement has no direct source counterpart.
    pub span: Span,
    /// `true` for compiler-synthesized statements (implicit
    /// zero-initialization, defer expansion). Dataflow lints don't treat
    /// these as deliberate user writes.
    pub implicit: bool,
    /// Staging history, when this statement was produced by a `quote`
    /// splice, a macro, or the inliner (`None` for code written inline in
    /// its function). Metadata like `span`: equality ignores it.
    pub prov: Option<Provenance>,
    /// Operand nodes of this statement whose runtime check the `checkelim`
    /// pass proved redundant, as ascending [`operand_nodes`](Self::operand_nodes)
    /// indices: for the address of a memory access the bounds check, for
    /// narrow-integer arithmetic and casts the re-canonicalizing `trunc`.
    /// Index 0 is the statement's own arithmetic (a `for`'s increment).
    /// Metadata like `span`: equality ignores it. A position holds for the
    /// statement's shape when the proof was made: the `-O2` pipeline's
    /// last pass populates it, and every run of the pipeline starts by
    /// dropping what its input carried.
    pub proven: Vec<u32>,
    /// The operation itself.
    pub kind: StmtKind,
}

impl IrStmt {
    /// Statement with a synthetic span.
    pub fn new(kind: StmtKind) -> Self {
        IrStmt {
            span: Span::synthetic(),
            implicit: false,
            prov: None,
            proven: Vec::new(),
            kind,
        }
    }

    /// Statement lowered from source at `span`.
    pub fn at(span: Span, kind: StmtKind) -> Self {
        IrStmt {
            span,
            implicit: false,
            prov: None,
            proven: Vec::new(),
            kind,
        }
    }

    /// Compiler-synthesized statement attributed to `span`.
    pub fn synthesized(span: Span, kind: StmtKind) -> Self {
        IrStmt {
            span,
            implicit: true,
            prov: None,
            proven: Vec::new(),
            kind,
        }
    }
}

/// The shape of the tree, stated once: which fields of a node are the
/// expressions it evaluates and which are nested statement blocks. Invoked
/// twice, for shared and for mutable access; every traversal in the mid-end,
/// the lints, the `parallelfor` outliner and the bytecode compiler is built
/// from these three accessors, so a new node kind is described here (and in
/// the code that gives it meaning: verifier, abstract interpreter, printer,
/// code generator) and nowhere else.
macro_rules! shape {
    ($children:ident, $roots:ident, $blocks:ident $(, $m:tt)?) => {
        impl IrExpr {
            /// Calls `visit` on each direct child expression, in evaluation
            /// order.
            pub fn $children<'e>(&'e $($m)? self, visit: &mut dyn FnMut(&'e $($m)? IrExpr)) {
                match &$($m)? self.kind {
                    ExprKind::Load(e) | ExprKind::Unary { expr: e, .. } | ExprKind::Cast(e) => {
                        visit(e)
                    }
                    ExprKind::Binary { lhs, rhs, .. } | ExprKind::Cmp { lhs, rhs, .. } => {
                        visit(lhs);
                        visit(rhs);
                    }
                    ExprKind::Call { callee, args } => {
                        if let Callee::Indirect(p) = callee {
                            visit(p);
                        }
                        for a in args {
                            visit(a);
                        }
                    }
                    ExprKind::Select {
                        cond,
                        then_value,
                        else_value,
                    } => {
                        visit(cond);
                        visit(then_value);
                        visit(else_value);
                    }
                    _ => {}
                }
            }
        }

        impl IrStmt {
            /// Calls `visit` on each expression the statement evaluates
            /// itself (not those of nested statement bodies), in field order.
            pub fn $roots<'s>(&'s $($m)? self, visit: &mut dyn FnMut(&'s $($m)? IrExpr)) {
                match &$($m)? self.kind {
                    StmtKind::Assign { value: e, .. }
                    | StmtKind::Expr(e)
                    | StmtKind::If { cond: e, .. }
                    | StmtKind::While { cond: e, .. }
                    | StmtKind::Return(Some(e)) => visit(e),
                    StmtKind::Store { addr: a, value: b }
                    | StmtKind::CopyMem { dst: a, src: b, .. } => {
                        visit(a);
                        visit(b);
                    }
                    StmtKind::For {
                        start, stop, step, ..
                    } => {
                        visit(start);
                        visit(stop);
                        visit(step);
                    }
                    StmtKind::ParallelFor {
                        start, stop, args, ..
                    } => {
                        visit(start);
                        visit(stop);
                        for a in args {
                            visit(a);
                        }
                    }
                    StmtKind::Return(None) | StmtKind::Break => {}
                }
            }

            /// The statement's nested blocks, in source order: the arms of
            /// an `if`, the body of a loop.
            pub fn $blocks(&$($m)? self) -> impl Iterator<Item = &$($m)? Vec<IrStmt>> {
                match &$($m)? self.kind {
                    StmtKind::If {
                        then_body,
                        else_body,
                        ..
                    } => [Some(then_body), Some(else_body)],
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => [Some(body), None],
                    _ => [None, None],
                }
                .into_iter()
                .flatten()
            }
        }
    };
}

shape!(children, operand_roots, blocks);
shape!(children_mut, operand_roots_mut, blocks_mut, mut);

impl IrExpr {
    /// Calls `visit` on every node of the tree, in preorder.
    pub fn walk<'e>(&'e self, visit: &mut impl FnMut(&'e IrExpr)) {
        visit(self);
        self.children(&mut |c| c.walk(visit));
    }

    /// [`walk`](Self::walk) with mutable access. A node `visit` replaces is
    /// descended into as replaced.
    pub fn walk_mut(&mut self, visit: &mut impl FnMut(&mut IrExpr)) {
        visit(self);
        self.children_mut(&mut |c| c.walk_mut(visit));
    }

    /// Whether `pred` holds for any node of the tree; nothing below or after
    /// the first match is descended into.
    pub fn any(&self, pred: &mut impl FnMut(&IrExpr) -> bool) -> bool {
        let mut found = pred(self);
        self.children(&mut |c| found = found || c.any(pred));
        found
    }
}

impl IrStmt {
    /// Calls `visit(index, node)` for every node of the statement's
    /// [operands](Self::operand_roots), in preorder, numbered from 1. The
    /// numbering is what [`proven`](Self::proven) refers to; it survives
    /// cloning the statement.
    pub fn operand_nodes(&self, visit: &mut dyn FnMut(u32, &IrExpr)) {
        let mut next = 0;
        self.operand_roots(&mut |root| {
            root.walk(&mut |e| {
                next += 1;
                visit(next, e);
            })
        });
    }

    /// Appends the nodes [`proven`](Self::proven) names, as identities
    /// (never to be read through), in ascending order: what a consumer of
    /// the proofs looks a node up in while it walks the statement.
    pub fn proven_nodes(&self, out: &mut Vec<*const IrExpr>) {
        if self.proven.is_empty() {
            return;
        }
        let first = out.len();
        self.operand_nodes(&mut |i, e| {
            if self.proven.binary_search(&i).is_ok() {
                out.push(e);
            }
        });
        out[first..].sort_unstable();
    }

    /// Calls `visit` on every statement of `stmts` and of the blocks nested
    /// in them, in preorder (a statement before its blocks).
    pub fn walk<'s>(stmts: &'s [IrStmt], visit: &mut impl FnMut(&'s IrStmt)) {
        for s in stmts {
            visit(s);
            s.blocks().for_each(|b| IrStmt::walk(b, visit));
        }
    }

    /// [`walk`](Self::walk) with mutable access.
    pub fn walk_mut(stmts: &mut [IrStmt], visit: &mut impl FnMut(&mut IrStmt)) {
        for s in stmts {
            visit(s);
            s.blocks_mut().for_each(|b| IrStmt::walk_mut(b, visit));
        }
    }

    /// Calls `visit` on every expression node of every statement
    /// [`walk`](Self::walk) reaches: each statement's operands in
    /// [`operand_nodes`](Self::operand_nodes) order.
    pub fn walk_exprs<'s>(stmts: &'s [IrStmt], visit: &mut impl FnMut(&'s IrExpr)) {
        IrStmt::walk(stmts, &mut |s| {
            s.operand_roots(&mut |root| root.walk(visit))
        });
    }

    /// [`walk_exprs`](Self::walk_exprs) with mutable access.
    pub fn walk_exprs_mut(stmts: &mut [IrStmt], visit: &mut impl FnMut(&mut IrExpr)) {
        IrStmt::walk_mut(stmts, &mut |s| {
            s.operand_roots_mut(&mut |root| root.walk_mut(visit))
        });
    }

    /// Whether `pred` holds for any statement [`walk`](Self::walk) would
    /// reach; stops at the first.
    pub fn any(stmts: &[IrStmt], pred: &mut impl FnMut(&IrStmt) -> bool) -> bool {
        stmts
            .iter()
            .any(|s| pred(s) || s.blocks().any(|b| IrStmt::any(b, pred)))
    }

    /// Calls `visit` on every block of the tree rooted at `stmts`, innermost
    /// first and `stmts` itself last — the order for rewrites that delete or
    /// splice statements of the block they are handed.
    pub fn each_block_mut(stmts: &mut Vec<IrStmt>, visit: &mut impl FnMut(&mut Vec<IrStmt>)) {
        for s in stmts.iter_mut() {
            s.blocks_mut()
                .for_each(|b| IrStmt::each_block_mut(b, visit));
        }
        visit(stmts);
    }
}

impl From<StmtKind> for IrStmt {
    fn from(kind: StmtKind) -> Self {
        IrStmt::new(kind)
    }
}

impl PartialEq for IrStmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// A typed IR statement operation.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `local := value` (register locals only).
    Assign {
        /// Destination register local.
        dst: LocalId,
        /// Value.
        value: IrExpr,
    },
    /// Store `value` (register-sized) to `addr`.
    Store {
        /// Destination address.
        addr: IrExpr,
        /// Stored value.
        value: IrExpr,
    },
    /// `memcpy`-style aggregate copy of `size` bytes.
    CopyMem {
        /// Destination address.
        dst: IrExpr,
        /// Source address.
        src: IrExpr,
        /// Bytes to copy.
        size: u64,
    },
    /// Evaluate for side effects (calls).
    Expr(IrExpr),
    /// Two-armed conditional.
    If {
        /// Condition.
        cond: IrExpr,
        /// Then branch.
        then_body: Vec<IrStmt>,
        /// Else branch.
        else_body: Vec<IrStmt>,
    },
    /// `while cond do body end`
    While {
        /// Condition.
        cond: IrExpr,
        /// Body.
        body: Vec<IrStmt>,
    },
    /// Terra's half-open numeric loop `for v = start, stop, step`.
    For {
        /// Loop variable (register local, integer type).
        var: LocalId,
        /// Initial value.
        start: IrExpr,
        /// Exclusive bound.
        stop: IrExpr,
        /// Step (positive).
        step: IrExpr,
        /// Body.
        body: Vec<IrStmt>,
    },
    /// Data-parallel loop `parallelfor i = start, stop`: invokes `kernel(i,
    /// args...)` for every `i` in the half-open range, potentially across
    /// worker threads. The body lives in the (separately compiled) kernel
    /// function; `args` are the captured values from the enclosing frame.
    /// Optimization passes treat this as an opaque call — the kernel is
    /// optimized on its own when it is compiled.
    ParallelFor {
        /// The kernel function (first parameter is the loop index).
        kernel: FuncId,
        /// Initial index.
        start: IrExpr,
        /// Exclusive bound.
        stop: IrExpr,
        /// Captured arguments (kernel parameters after the index).
        args: Vec<IrExpr>,
    },
    /// Return, with an optional value.
    Return(Option<IrExpr>),
    /// Break out of the innermost loop.
    Break,
}

/// A local slot.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSlot {
    /// Slot type.
    pub ty: Ty,
    /// `true` if the local needs memory (aggregate or address-taken).
    pub in_memory: bool,
    /// Debug name.
    pub name: Arc<str>,
}

/// A function in typed IR form, ready for bytecode compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Name for diagnostics and disassembly.
    pub name: Arc<str>,
    /// Signature.
    pub ty: FuncTy,
    /// All locals; the first `ty.params.len()` slots are the parameters.
    pub locals: Vec<LocalSlot>,
    /// Function body.
    pub body: Vec<IrStmt>,
    /// For a `parallelfor` kernel whose one site has stage-time-constant
    /// bounds: the half-open range `[start, stop)` its first parameter (the
    /// loop index) is drawn from. The verifier holds the site to it, and the
    /// abstract interpreter starts the parameter there instead of at its
    /// whole type. `None` for every other function.
    pub index_range: Option<(i64, i64)>,
}

impl IrFunction {
    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.ty.params.len()
    }

    /// Adds a local slot, returning its id.
    pub fn add_local(&mut self, name: impl Into<Arc<str>>, ty: Ty, in_memory: bool) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(LocalSlot {
            ty,
            in_memory,
            name: name.into(),
        });
        id
    }
}

/// A global variable cell: a typed chunk of VM memory with optional constant
/// initialization (created by the language-level `global(...)`).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalCell {
    /// Value type.
    pub ty: Ty,
    /// Initial bytes (zero-filled when `None`).
    pub init: Option<Vec<u8>>,
    /// Debug name.
    pub name: Arc<str>,
}

// Constructors: the one place a node's shape and result type are stated.
// The lowering and the passes build their nodes through these.
impl IrExpr {
    /// A node of type `ty`: the general form, for leaves and for re-typing
    /// an existing node's kind.
    pub fn new(ty: Ty, kind: ExprKind) -> IrExpr {
        IrExpr { ty, kind }
    }

    /// An `int` constant.
    pub fn int32(v: i32) -> IrExpr {
        IrExpr::new(Ty::INT, ExprKind::ConstInt(v as i64))
    }

    /// An `int64` constant.
    pub fn int64(v: i64) -> IrExpr {
        IrExpr::new(Ty::I64, ExprKind::ConstInt(v))
    }

    /// A `double` constant.
    pub fn f64(v: f64) -> IrExpr {
        IrExpr::new(Ty::F64, ExprKind::ConstFloat(v))
    }

    /// A constant of float type `ty`. A `float` constant holds an `f32`
    /// value, as an integer constant holds its type's canonical bits: `v` is
    /// rounded to the nearest one here, so the folder computes with what the
    /// VM's `float` register would hold.
    pub fn float(ty: Ty, v: f64) -> IrExpr {
        let v = if ty == Ty::F32 { v as f32 as f64 } else { v };
        IrExpr::new(ty, ExprKind::ConstFloat(v))
    }

    /// A `bool` constant.
    pub fn boolean(v: bool) -> IrExpr {
        IrExpr::new(Ty::BOOL, ExprKind::ConstBool(v))
    }

    /// Reads local `id` of type `ty`.
    pub fn local(id: LocalId, ty: Ty) -> IrExpr {
        IrExpr::new(ty, ExprKind::Local(id))
    }

    /// Builds `lhs op rhs` with the result typed like `lhs`.
    pub fn binary(op: BinKind, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        IrExpr::new(lhs.ty.clone(), ExprKind::Binary { op, lhs, rhs })
    }

    /// Builds a comparison producing `bool`.
    pub fn cmp(op: CmpKind, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        IrExpr::new(Ty::BOOL, ExprKind::Cmp { op, lhs, rhs })
    }

    /// Builds `op expr` with the result typed like `expr`.
    pub fn unary(op: UnKind, expr: IrExpr) -> IrExpr {
        IrExpr::new(
            expr.ty.clone(),
            ExprKind::Unary {
                op,
                expr: Box::new(expr),
            },
        )
    }

    /// Builds `select(cond, then_value, else_value)`, typed like `then_value`.
    pub fn select(cond: IrExpr, then_value: IrExpr, else_value: IrExpr) -> IrExpr {
        IrExpr::new(
            then_value.ty.clone(),
            ExprKind::Select {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            },
        )
    }

    /// Converts `expr` to `ty`.
    pub fn cast(ty: Ty, expr: IrExpr) -> IrExpr {
        IrExpr::new(ty, ExprKind::Cast(Box::new(expr)))
    }

    /// Loads a `ty` from `addr`.
    pub fn load(ty: Ty, addr: IrExpr) -> IrExpr {
        IrExpr::new(ty, ExprKind::Load(Box::new(addr)))
    }

    /// Calls `callee` with `args`, returning a `ty`.
    pub fn call(ty: Ty, callee: Callee, args: Vec<IrExpr>) -> IrExpr {
        IrExpr::new(ty, ExprKind::Call { callee, args })
    }

    /// The value of an integer constant node (its bit pattern; `ty` gives
    /// signedness and width).
    pub fn int_const(&self) -> Option<i64> {
        match self.kind {
            ExprKind::ConstInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value an integer constant node denotes: its bit pattern in its
    /// type's canonical form.
    pub fn int_value(&self) -> Option<i64> {
        match (&self.kind, &self.ty) {
            (ExprKind::ConstInt(v), Ty::Scalar(s)) if s.is_integer() => Some(s.canonical(*v)),
            _ => None,
        }
    }

    /// Whether the expression is a compile-time constant.
    pub fn is_const(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::ConstInt(_)
                | ExprKind::ConstFloat(_)
                | ExprKind::ConstBool(_)
                | ExprKind::ConstNull
                | ExprKind::ConstFunc(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_local_assigns_sequential_ids() {
        let mut f = IrFunction {
            name: "t".into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::Unit,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let a = f.add_local("a", Ty::INT, false);
        let b = f.add_local("b", Ty::F64, true);
        assert_eq!(a, LocalId(0));
        assert_eq!(b, LocalId(1));
        assert!(f.locals[1].in_memory);
    }

    #[test]
    fn const_detection() {
        assert!(IrExpr::int32(3).is_const());
        assert!(!IrExpr::local(LocalId(0), Ty::INT).is_const());
    }

    #[test]
    fn builtin_names() {
        assert_eq!(Builtin::Malloc.name(), "malloc");
        assert_eq!(Builtin::Prefetch.name(), "prefetch");
    }
}
