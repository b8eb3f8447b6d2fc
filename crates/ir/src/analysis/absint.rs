//! Forward abstract interpretation over the typed IR: per-local integer
//! intervals (wrapping-aware), pointer nullness, and allocation-size facts.
//!
//! One walker serves three consumers:
//!
//! * **Lints** (`--lint`): definite out-of-bounds (`definite-oob` — the one
//!   bounds oracle: a constant index is an offset interval of one point, so
//!   there is no separate constant-offset lint), misaligned vector access,
//!   definite null dereference, definite division by zero, and guaranteed
//!   integer overflow — all *definite-only*: a finding means the bad
//!   operation executes on every path that reaches it, so clean programs
//!   stay clean. Findings carry the staging provenance of the offending
//!   statement.
//! * **Check elision** (`checkelim` pass at `-O2`): accesses whose address
//!   is proven inside its allocation, and narrow-integer results proven to
//!   fit their type, are stamped into [`IrStmt::proven`]; the VM compiles
//!   those without runtime bounds checks and without the `trunc` that wraps
//!   a result back into its type.
//! * **Summaries**: a bounded interprocedural fixpoint computes, per
//!   function, the return-value fact and a per-pointer-parameter *demand*
//!   (bytes the callee unconditionally accesses), consumed at call sites
//!   for extra precision and caller-side lints.
//!
//! ## Soundness of elision
//!
//! The VM's runtime check (`memory.rs::check`) rejects accesses below the
//! null guard or past the end of linear memory, plus — only under
//! `--sanitize` — accesses overlapping freed blocks. Frame objects, globals,
//! and malloc'd blocks all live inside linear memory, and linear memory
//! never shrinks, so an access proven within `[0, size)` of such an object
//! can never fail the non-sanitize check — even after `free`. Elision is
//! therefore invisible without the sanitizer; *with* the sanitizer the VM
//! ignores the elision flag entirely (the fast-path accessors fall back to
//! the checked path), so the use-after-free oracle is untouched.
//!
//! Pointer parameters are never assumed valid (functions are callable from
//! the host with arbitrary pointers), so intraprocedural proofs only ever
//! rest on objects the function itself can see: its frame, globals, string
//! constants, and `malloc` calls with stage-time-constant sizes.
//!
//! ## Soundness of the no-wrap proof
//!
//! Every register holds its value in *canonical* form: sign- or
//! zero-extended from its type's width to 64 bits (DESIGN.md §6j says who
//! establishes that). The VM computes narrow arithmetic in 64 bits and then
//! re-canonicalizes with `trunc`. An interval here over-approximates the
//! canonical values a node can take, so the un-wrapped interval `raw` of
//! `a op b` contains the exact mathematical result; when `raw` fits the
//! node's type the 64-bit computation cannot have overflowed either (narrow
//! operands are below 2^32 in magnitude), the register already holds the
//! canonical form, and the `trunc` is the identity. The same holds for a
//! narrowing cast whose operand's interval fits the target, and for a
//! `for`'s increment: with a positive pinned step and a body that does not
//! write the variable, `var < stop` holds whenever `var + step` runs, so
//! `stop.hi - 1 + step.hi` bounds it.

use super::{diag, Diagnostic, EnvEntry, ModuleEnv, Severity};
use crate::analysis::range::{Interval, Nullness};
use crate::ir::{
    BinKind, Builtin, Callee, CmpKind, ExprKind, FuncId, GlobalId, IrExpr, IrFunction, IrStmt,
    LocalId, LocalSlot, StmtKind, UnKind,
};
use crate::passes::util::{collect_assigned, direct_calls, has_toplevel_break, LocalSet};
use crate::passes::Remark;
use crate::types::{ScalarTy, Ty, TypeRegistry};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use terra_syntax::{Provenance, Span};

/// Abstract value of one register local.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AbsVal {
    /// Integer (or boolean, as `[0,1]`) in the given interval.
    Int(Interval),
    /// Pointer with base object, byte-offset interval, and nullness.
    Ptr(PtrVal),
    /// Anything (floats, vectors, unknown).
    Any,
}

impl AbsVal {
    /// The integer interval, if this is one.
    fn interval(&self) -> Option<Interval> {
        match self {
            AbsVal::Int(iv) => Some(*iv),
            _ => None,
        }
    }
}

/// Abstract pointer: which object it points into and where.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PtrVal {
    base: PtrBase,
    /// Byte offset from the base object's start.
    off: Interval,
    null: Nullness,
}

/// The object an abstract pointer points into.
#[derive(Debug, Clone, PartialEq)]
enum PtrBase {
    /// Frame slot of an `in_memory` local.
    Local(LocalId),
    /// A global cell.
    Global(GlobalId),
    /// A heap allocation of stage-time-known payload size (malloc with a
    /// constant argument, or an interned string constant).
    Alloc {
        /// Payload size in bytes.
        size: u64,
    },
    /// The `i`-th function parameter's pointee — caller-owned memory of
    /// unknown size. Tracked separately so summaries can report demand.
    Param(usize),
    /// No idea.
    Unknown,
}

impl PtrVal {
    fn unknown() -> PtrVal {
        PtrVal {
            base: PtrBase::Unknown,
            off: Interval::top(),
            null: Nullness::Maybe,
        }
    }
}

/// Per-function interprocedural summary.
#[derive(Debug, Clone, PartialEq, Default)]
struct FnSummary {
    /// Join of all returned values (bases sanitized to caller-meaningful
    /// ones), `None` when the function never returns a value.
    ret: Option<AbsVal>,
    /// Per-parameter demand: `Some(end)` means the callee unconditionally
    /// accesses bytes up to (exclusive) `end` of that pointer argument.
    demand: Vec<Option<u64>>,
}

/// Function summaries from the bounded interprocedural fixpoint, keyed by
/// [`FuncId`]. Opaque to callers; built by [`summarize`] and consumed by
/// the analyses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summaries {
    map: HashMap<FuncId, FnSummary>,
}

impl Summaries {
    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no function has been summarized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Computes summaries for a set of functions with a bounded fixpoint (three
/// rounds): round one sees unknown callees (sound), later rounds refine
/// through call chains. Order-insensitive by construction.
///
/// A function's summary reads only the summaries of the functions it calls,
/// so after round one a member is walked again only when one of them changed
/// in the round before; otherwise it keeps its summary, which the walk would
/// reproduce. The result is the same three-round Jacobi iterate.
pub fn summarize<F: Borrow<IrFunction>>(
    fns: &[(FuncId, F)],
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
) -> Summaries {
    let calls: Vec<_> = fns
        .iter()
        .map(|(_, f)| direct_calls(&f.borrow().body))
        .collect();
    let mut sums = Summaries::default();
    let mut changed = BTreeSet::new();
    for _ in 0..3 {
        let mut next = Summaries::default();
        for ((id, f), calls) in fns.iter().zip(&calls) {
            let sum = match sums.map.get(id) {
                Some(sum) if calls.is_disjoint(&changed) => sum.clone(),
                _ => summarize_one(f.borrow(), types, env, &sums),
            };
            next.map.insert(*id, sum);
        }
        changed = (next.map.iter())
            .filter(|&(id, sum)| sums.map.get(id) != Some(sum))
            .map(|(id, _)| *id)
            .collect();
        sums = next;
        if changed.is_empty() {
            break;
        }
    }
    sums
}

fn summarize_one(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
    sums: &Summaries,
) -> FnSummary {
    let mut interp = Interp::new(f, types, env, Some(sums), Mode::Summary);
    interp.block(&f.body);
    let ret = interp.ret.take().map(sanitize_ret);
    FnSummary {
        ret,
        demand: interp.demand,
    }
}

/// Returned facts must make sense in the caller: pointers into the callee's
/// frame or parameters are demoted to unknown-base (keeping nullness).
fn sanitize_ret(v: AbsVal) -> AbsVal {
    match v {
        AbsVal::Ptr(p) => match p.base {
            PtrBase::Local(_) | PtrBase::Param(_) => AbsVal::Ptr(PtrVal {
                base: PtrBase::Unknown,
                off: Interval::top(),
                null: p.null,
            }),
            _ => AbsVal::Ptr(p),
        },
        other => other,
    }
}

/// Runs the definite-bug lints over `f`, appending findings to `diags`.
pub(super) fn lint(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
    sums: Option<&Summaries>,
    diags: &mut Vec<Diagnostic>,
) {
    Interp::new(f, types, env, sums, Mode::Lint(diags)).block(&f.body);
}

/// Stamps proven-redundant checks (bounds checks of in-bounds accesses,
/// wrap checks of results that fit) into each statement's
/// [`proven`](IrStmt::proven) list and, given somewhere to put them, emits
/// `checkelim` remarks; returns whether it stamped any. Called with the
/// function body taken out of `f`: by the `checkelim` pass, and without
/// remarks by `affine`, which reads the proofs and drops them again.
///
/// The walk itself never mutates (summaries and lints run it over borrowed
/// IR): it notes which statement each proof belongs to, and the proofs are
/// attached afterwards.
pub(crate) fn annotate(
    f: &IrFunction,
    body: &mut [IrStmt],
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
    sums: Option<&Summaries>,
    mut remarks: Option<&mut Vec<Remark>>,
) -> bool {
    let mut interp = Interp::new(f, types, env, sums, Mode::Elide(remarks.as_deref_mut()));
    interp.block(body);
    let (stamps, wraps) = (interp.stamps, interp.wraps);
    // Wrap checks are reported per source line, not per node: a line of
    // index arithmetic has several. Line 0 is code the optimizer made.
    if let Some(remarks) = remarks {
        for (line, w) in wraps {
            let at = match line {
                0 => "in generated code".to_string(),
                _ => format!("on line {line}"),
            };
            if w.elided > 0 {
                let msg = format!("{} wrap check(s) elided {at}", w.elided);
                remarks.push(Remark::applied("checkelim", line, w.prov.clone(), msg));
            }
            if let Some(why) = w.kept {
                let msg = format!("wrap check kept {at}: {why}");
                remarks.push(Remark::missed("checkelim", line, w.prov, msg));
            }
        }
    }
    let stamped = !stamps.is_empty();
    let mut stamps = stamps.into_iter().peekable();
    attach_stamps(body, &mut stamps);
    debug_assert!(stamps.next().is_none(), "a proof outlived its statement");
    stamped
}

/// A statement the walk proved checks of redundant (by identity; never
/// read through) and the [`IrStmt::proven`] indices of those checks.
type Stamp = (*const IrStmt, Vec<u32>);

/// The wrap checks of one source line, for its remarks.
#[derive(Default)]
struct WrapLine {
    prov: Option<Provenance>,
    /// Narrow-integer results proven to fit their type.
    elided: u32,
    /// Why the first check kept inside a loop could not be proven.
    kept: Option<String>,
}

/// Attaches each stamp to its statement and leaves every other statement
/// without proofs. The walk visits statements in program order, at most
/// once each, so one pass in the same order finds them all.
fn attach_stamps(
    stmts: &mut [IrStmt],
    stamps: &mut std::iter::Peekable<std::vec::IntoIter<Stamp>>,
) {
    IrStmt::walk_mut(stmts, &mut |s| {
        let stamp = stamps.next_if(|(at, _)| std::ptr::eq(*at, s));
        s.proven = stamp.map(|(_, proven)| proven).unwrap_or_default();
    });
}

/// Forgets every proof in `stmts`. A proof names a node of its statement by
/// position, so it is void once anything may rewrite the statement.
pub(crate) fn clear_proofs(stmts: &mut [IrStmt]) {
    attach_stamps(stmts, &mut Vec::new().into_iter().peekable());
}

/// State-free proof for LICM: whether an access of `size` bytes through
/// `addr` — a constant-offset chain off an in-memory local — is within that
/// local's object. Needs no flow facts, so it is usable from passes that
/// don't run the full interpreter.
pub(crate) fn proven_const_access(
    addr: &IrExpr,
    locals: &[LocalSlot],
    types: &TypeRegistry,
    size: u64,
) -> bool {
    fn peel(e: &IrExpr) -> Option<(LocalId, i64)> {
        match &e.kind {
            ExprKind::LocalAddr(l) => Some((*l, 0)),
            ExprKind::Binary {
                op: BinKind::Add,
                lhs,
                rhs,
            } if e.ty.is_pointer() => {
                let (base, off) = peel(lhs)?;
                match rhs.kind {
                    ExprKind::ConstInt(k) => Some((base, off.checked_add(k)?)),
                    _ => None,
                }
            }
            ExprKind::Cast(inner) if e.ty.is_pointer() => peel(inner),
            _ => None,
        }
    }
    let Some((l, off)) = peel(addr) else {
        return false;
    };
    let Some(slot) = locals.get(l.0 as usize) else {
        return false;
    };
    if !slot.in_memory {
        return false;
    }
    let Some(obj) = size_of_ty(&slot.ty, Some(types)) else {
        return false;
    };
    off >= 0 && (off as u64).saturating_add(size) <= obj
}

/// Size of `t` if every struct it references is finalized (a cautious
/// [`Ty::size`]).
fn size_of_ty(t: &Ty, types: Option<&TypeRegistry>) -> Option<u64> {
    let reg = types?;
    match t {
        Ty::Struct(id) => {
            if (id.0 as usize) < reg.len() && reg.is_finalized(*id) {
                Some(reg.layout(*id).size)
            } else {
                None
            }
        }
        Ty::Array(inner, n) => size_of_ty(inner, types).map(|s| s * n),
        other => Some(other.size(reg)),
    }
}

/// Bit-pattern constant `v` interpreted at type `s`.
fn const_int_value(v: i64, s: ScalarTy) -> i128 {
    match s {
        ScalarTy::Bool => (v != 0) as i128,
        ScalarTy::I8 => (v as i8) as i128,
        ScalarTy::I16 => (v as i16) as i128,
        ScalarTy::I32 => (v as i32) as i128,
        ScalarTy::I64 => v as i128,
        ScalarTy::U8 => (v as u8) as i128,
        ScalarTy::U16 => (v as u16) as i128,
        ScalarTy::U32 => (v as u32) as i128,
        ScalarTy::U64 => (v as u64) as i128,
        ScalarTy::F32 | ScalarTy::F64 => v as i128,
    }
}

fn join_absval(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Int(x), AbsVal::Int(y)) => AbsVal::Int(x.join(*y)),
        (AbsVal::Ptr(x), AbsVal::Ptr(y)) => {
            if x.base == y.base {
                AbsVal::Ptr(PtrVal {
                    base: x.base.clone(),
                    off: x.off.join(y.off),
                    null: x.null.join(y.null),
                })
            } else {
                AbsVal::Ptr(PtrVal {
                    base: PtrBase::Unknown,
                    off: Interval::top(),
                    null: x.null.join(y.null),
                })
            }
        }
        _ => AbsVal::Any,
    }
}

enum Mode<'m> {
    /// Emit definite-bug diagnostics.
    Lint(&'m mut Vec<Diagnostic>),
    /// Stamp proven accesses and, into the list if there is one, emit
    /// checkelim remarks.
    Elide(Option<&'m mut Vec<Remark>>),
    /// Collect return/demand facts only.
    Summary,
}

enum Flow {
    FallThrough,
    Terminated,
}

enum Verdict {
    Proven,
    DefiniteNull,
    DefiniteOob { detail: String },
    Unknown { reason: String },
}

struct Interp<'a> {
    f: &'a IrFunction,
    types: Option<&'a TypeRegistry>,
    env: &'a dyn ModuleEnv,
    sums: Option<&'a Summaries>,
    mode: Mode<'a>,
    state: Vec<AbsVal>,
    /// Join of returned values (summary mode).
    ret: Option<AbsVal>,
    /// Per-parameter unconditional access demand (summary mode).
    demand: Vec<Option<u64>>,
    /// Branch/loop nesting depth; 0 means unconditionally reached.
    depth: u32,
    /// Loop nesting depth (missed-elision remarks only fire inside loops,
    /// where a kept check actually costs per iteration).
    loop_depth: u32,
    /// Operand nodes of the statement being walked whose check is proven
    /// redundant (by identity; never read through).
    pending: Vec<*const IrExpr>,
    /// Whether the statement's own arithmetic (a `for`'s increment) is.
    pending_stmt: bool,
    /// Proofs per statement, in walk order (elide mode).
    stamps: Vec<Stamp>,
    /// Wrap checks of the statement being walked, on their way to its line.
    stmt_wraps: WrapLine,
    /// Wrap checks by source line (elide mode).
    wraps: std::collections::BTreeMap<u32, WrapLine>,
    cur_span: Span,
    cur_prov: Option<Provenance>,
}

impl<'a> Interp<'a> {
    fn new(
        f: &'a IrFunction,
        types: Option<&'a TypeRegistry>,
        env: &'a dyn ModuleEnv,
        sums: Option<&'a Summaries>,
        mode: Mode<'a>,
    ) -> Self {
        let state = f
            .locals
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                if i < f.param_count() {
                    match &slot.ty {
                        Ty::Ptr(_) => AbsVal::Ptr(PtrVal {
                            base: PtrBase::Param(i),
                            off: Interval::singleton(0),
                            null: Nullness::Maybe,
                        }),
                        Ty::Scalar(s) if s.is_integer() => {
                            // A `parallelfor` kernel's index comes from its
                            // one site's constant range, if it has one.
                            let range = f.index_range.filter(|(lo, hi)| i == 0 && lo < hi);
                            AbsVal::Int(range.map_or(Interval::full_for(*s), |(lo, hi)| {
                                Interval::new(lo as i128, hi as i128 - 1)
                            }))
                        }
                        _ => AbsVal::Any,
                    }
                } else {
                    // Every `var` is zero-initialized by the VM before any
                    // explicit write.
                    match &slot.ty {
                        _ if slot.in_memory => AbsVal::Any,
                        Ty::Scalar(s) if s.is_integer() => AbsVal::Int(Interval::singleton(0)),
                        Ty::Ptr(_) => AbsVal::Ptr(PtrVal {
                            base: PtrBase::Unknown,
                            off: Interval::singleton(0),
                            null: Nullness::Null,
                        }),
                        _ => AbsVal::Any,
                    }
                }
            })
            .collect();
        Interp {
            f,
            types,
            env,
            sums,
            mode,
            state,
            ret: None,
            demand: vec![None; f.param_count()],
            depth: 0,
            loop_depth: 0,
            pending: Vec::new(),
            pending_stmt: false,
            stamps: Vec::new(),
            stmt_wraps: WrapLine::default(),
            wraps: Default::default(),
            cur_span: Span::synthetic(),
            cur_prov: None,
        }
    }

    fn size_of(&self, t: &Ty) -> Option<u64> {
        size_of_ty(t, self.types)
    }

    fn set(&mut self, l: LocalId, v: AbsVal) {
        if let Some(slot) = self.state.get_mut(l.0 as usize) {
            *slot = v;
        }
    }

    fn get(&self, l: LocalId) -> AbsVal {
        self.state.get(l.0 as usize).cloned().unwrap_or(AbsVal::Any)
    }

    fn widen(&mut self, writes: &LocalSet) {
        for (i, slot) in self.f.locals.iter().enumerate() {
            if writes.contains(LocalId(i as u32)) {
                self.state[i] = match &slot.ty {
                    Ty::Scalar(s) if s.is_integer() => AbsVal::Int(Interval::full_for(*s)),
                    Ty::Ptr(_) => AbsVal::Ptr(PtrVal::unknown()),
                    _ => AbsVal::Any,
                };
            }
        }
    }

    fn warn(&mut self, code: &'static str, message: String) {
        if let Mode::Lint(diags) = &mut self.mode {
            let mut d = diag(self.f, Severity::Warning, code, self.cur_span, message);
            d.prov = self.cur_prov.clone();
            diags.push(d);
        }
    }

    // -----------------------------------------------------------------
    // Statement walk.
    // -----------------------------------------------------------------

    fn block(&mut self, stmts: &[IrStmt]) -> Flow {
        for s in stmts {
            if let Flow::Terminated = self.stmt(s) {
                // Anything after a terminator is unreachable; the dataflow
                // pass reports it, we just don't analyze it.
                return Flow::Terminated;
            }
        }
        Flow::FallThrough
    }

    /// Moves the proofs gathered while evaluating `s`'s own operands onto
    /// `s`, before any nested statement is walked: the proven nodes become
    /// their [`IrStmt::operand_nodes`] indices.
    fn stamp(&mut self, s: &IrStmt) {
        let own = std::mem::take(&mut self.stmt_wraps);
        if own.elided > 0 || own.kept.is_some() {
            let line = self.wraps.entry(self.cur_span.line).or_default();
            line.prov = line.prov.take().or_else(|| self.cur_prov.clone());
            line.elided += own.elided;
            line.kept = line.kept.take().or(own.kept);
        }
        if self.pending.is_empty() && !self.pending_stmt {
            return;
        }
        let own = usize::from(std::mem::take(&mut self.pending_stmt));
        let mut proven = Vec::with_capacity(own + self.pending.len());
        proven.resize(own, 0);
        self.pending.sort_unstable();
        s.operand_nodes(&mut |i, e| {
            if self.pending.binary_search(&(e as *const IrExpr)).is_ok() {
                proven.push(i);
            }
        });
        debug_assert_eq!(
            proven.len(),
            own + self.pending.len(),
            "stray proof in {s:?}"
        );
        self.pending.clear();
        self.stamps.push((s, proven));
    }

    /// Notes whether narrow-integer node `e` of type `s` can leave its type:
    /// `raw` is its result before wrapping (`None` when unknown). When it
    /// fits, the compiler's `trunc` after `e` is the identity. `operands`
    /// are looked through for one to blame otherwise.
    fn wrap_check(
        &mut self,
        e: &IrExpr,
        s: ScalarTy,
        raw: Option<Interval>,
        operands: &[(&IrExpr, &AbsVal)],
    ) {
        let fits = raw.is_some_and(|r| r.fits(s));
        if self.note_wrap(s, fits, raw, operands) && fits {
            self.pending.push(e);
        }
    }

    /// Counts one wrap check of a result of type `s` towards its source
    /// line's remarks; returns whether there is a check at all (the pass is
    /// eliding, and `s` is narrower than a register).
    fn note_wrap(
        &mut self,
        s: ScalarTy,
        fits: bool,
        raw: Option<Interval>,
        operands: &[(&IrExpr, &AbsVal)],
    ) -> bool {
        let Mode::Elide(remarks) = &self.mode else {
            return false;
        };
        if s.size() == 8 {
            return false;
        }
        // A kept check is only worth a remark where it costs per iteration.
        if fits {
            self.stmt_wraps.elided += 1;
        } else if remarks.is_some() && self.loop_depth > 0 && self.stmt_wraps.kept.is_none() {
            self.stmt_wraps.kept = Some(self.blame(s, raw, operands));
        }
        true
    }

    /// Why a result may not fit `s`: the first operand whose range is its
    /// whole type, else the range of the result.
    fn blame(&self, s: ScalarTy, raw: Option<Interval>, operands: &[(&IrExpr, &AbsVal)]) -> String {
        let unbounded = |(e, v): &(&IrExpr, &AbsVal)| match (v, e.ty.element_scalar()) {
            (AbsVal::Int(iv), Some(t)) if t.is_integer() => *iv == Interval::full_for(t),
            _ => true,
        };
        match (operands.iter().find(|o| unbounded(o)), raw) {
            (Some((e, _)), _) => {
                let what = match &e.kind {
                    ExprKind::Local(l) => format!("'{}'", self.f.locals[l.0 as usize].name),
                    ExprKind::Load(_) => "a loaded value".into(),
                    ExprKind::Call { .. } => "a call result".into(),
                    _ => "an intermediate value".into(),
                };
                format!("{what} is unbounded")
            }
            (None, Some(r)) => format!("the result range [{}, {}] exceeds {s}", r.lo, r.hi),
            (None, None) => format!("the result is not known to fit {s}"),
        }
    }

    fn stmt(&mut self, s: &IrStmt) -> Flow {
        self.cur_span = s.span;
        self.cur_prov = s.prov.clone();
        match &s.kind {
            StmtKind::Assign { dst, value } => {
                let dst = *dst;
                let v = self.eval(value);
                self.stamp(s);
                self.set(dst, v);
                Flow::FallThrough
            }
            StmtKind::Store { addr, value } => {
                let size = self.size_of(&value.ty);
                self.eval(value);
                let av = self.eval(addr);
                self.access(addr, &av, size, "store");
                self.vector_alignment(&av, &value.ty, "store");
                self.stamp(s);
                Flow::FallThrough
            }
            StmtKind::CopyMem { dst, src, size } => {
                let size = *size;
                let dv = self.eval(dst);
                let sv = self.eval(src);
                // The VM's CopyMem is one instruction over two addresses;
                // both must be proven for the check to go away, which falls
                // out naturally: the compiler only drops the check when
                // every address of the instruction is stamped.
                self.access(dst, &dv, Some(size), "copy destination");
                self.access(src, &sv, Some(size), "copy source");
                self.stamp(s);
                Flow::FallThrough
            }
            StmtKind::Expr(e) => {
                self.eval(e);
                self.stamp(s);
                Flow::FallThrough
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond);
                self.stamp(s);
                self.walk_if(&c, cond, then_body, else_body)
            }
            StmtKind::While { cond, body } => {
                // Widen everything the body can write, then evaluate the
                // condition over the widened state (it re-runs every
                // iteration).
                let mut writes = LocalSet::new(self.f.locals.len());
                collect_assigned(body, &mut writes);
                self.widen(&writes);
                let c = self.eval(cond);
                self.stamp(s);
                if !self.definitely_false(&c) {
                    let saved = self.state.clone();
                    let feasible = self.refine(cond, true);
                    if feasible {
                        self.depth += 1;
                        self.loop_depth += 1;
                        let _ = self.block(body);
                        self.depth -= 1;
                        self.loop_depth -= 1;
                    }
                    self.state = saved;
                    if !has_toplevel_break(body) {
                        // Normal exit: the condition just failed.
                        let _ = self.refine(cond, false);
                    }
                }
                Flow::FallThrough
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let var = *var;
                let sv = self.eval(start);
                let ev = self.eval(stop);
                let stv = self.eval(step);
                self.walk_for(s, var, &sv, (stop, &ev), (step, &stv), body);
                Flow::FallThrough
            }
            StmtKind::ParallelFor {
                start, stop, args, ..
            } => {
                // Opaque call boundary: the kernel body is analyzed when its
                // own function is; only the operand expressions run here.
                self.eval(start);
                self.eval(stop);
                for a in args {
                    self.eval(a);
                }
                self.stamp(s);
                Flow::FallThrough
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(e);
                    self.stamp(s);
                    self.ret = Some(match self.ret.take() {
                        Some(prev) => join_absval(&prev, &v),
                        None => v,
                    });
                }
                Flow::Terminated
            }
            StmtKind::Break => Flow::Terminated,
        }
    }

    fn walk_if(
        &mut self,
        c: &AbsVal,
        cond: &IrExpr,
        then_body: &[IrStmt],
        else_body: &[IrStmt],
    ) -> Flow {
        if self.definitely_true(c) {
            return self.block(then_body);
        }
        if self.definitely_false(c) {
            return self.block(else_body);
        }
        let entry = self.state.clone();
        self.depth += 1;
        let t_live = self.refine(cond, true);
        let t_flow = if t_live {
            self.block(then_body)
        } else {
            Flow::Terminated
        };
        let t_state = std::mem::replace(&mut self.state, entry);
        let f_live = self.refine(cond, false);
        let f_flow = if f_live {
            self.block(else_body)
        } else {
            Flow::Terminated
        };
        self.depth -= 1;
        let t_falls = t_live && matches!(t_flow, Flow::FallThrough);
        let f_falls = f_live && matches!(f_flow, Flow::FallThrough);
        match (t_falls, f_falls) {
            (true, true) => {
                self.state = t_state
                    .iter()
                    .zip(&self.state)
                    .map(|(t, f)| join_absval(t, f))
                    .collect();
                Flow::FallThrough
            }
            (true, false) => {
                self.state = t_state;
                Flow::FallThrough
            }
            (false, true) => Flow::FallThrough,
            (false, false) => Flow::Terminated,
        }
    }

    /// Walks a `for` whose operands evaluated to `start`, `stop` and `step`
    /// (the last two with their expressions), stamping `s` before its body
    /// is entered.
    fn walk_for(
        &mut self,
        s: &IrStmt,
        var: LocalId,
        start: &AbsVal,
        stop: (&IrExpr, &AbsVal),
        step: (&IrExpr, &AbsVal),
        body: &[IrStmt],
    ) {
        let mut writes = LocalSet::new(self.f.locals.len());
        collect_assigned(body, &mut writes);
        // With a positive step and a body that leaves the variable alone, the
        // variable stays within [start, stop-1] and `var + step` within
        // [start+1, stop-1+step] — provided the latter cannot wrap.
        let facts = match (start, stop.1, step.1) {
            (AbsVal::Int(s), AbsVal::Int(e), AbsVal::Int(st))
                if st.lo >= 1 && !writes.contains(var) =>
            {
                let next = Interval::new(s.lo + 1, (e.hi - 1).saturating_add(st.hi));
                Some((Interval::new(s.lo, e.hi - 1), next))
            }
            _ => None,
        };
        let range = self.f.locals[var.0 as usize]
            .ty
            .element_scalar()
            .and_then(|ty| {
                let fits = facts.is_some_and(|(_, next)| next.fits(ty));
                // The increment runs once per iteration: a loop of its own.
                self.loop_depth += 1;
                self.pending_stmt =
                    self.note_wrap(ty, fits, facts.map(|f| f.1), &[stop, step]) && fits;
                self.loop_depth -= 1;
                facts.filter(|_| fits).map(|f| f.0)
            });
        self.stamp(s);
        // The loop definitely runs zero times when start >= stop everywhere.
        if let (AbsVal::Int(s), AbsVal::Int(e)) = (start, stop.1) {
            if s.lo >= e.hi {
                return;
            }
        }
        writes.insert(var);
        self.widen(&writes);
        if let Some(range) = range {
            self.set(var, AbsVal::Int(range));
        }
        let saved_outside = self.state.clone();
        self.depth += 1;
        self.loop_depth += 1;
        let _ = self.block(body);
        self.depth -= 1;
        self.loop_depth -= 1;
        self.state = saved_outside;
        // After the loop the variable has run past the bound; drop its fact.
        self.widen(&{
            let mut only_var = LocalSet::new(self.f.locals.len());
            only_var.insert(var);
            only_var
        });
    }

    // -----------------------------------------------------------------
    // Condition handling.
    // -----------------------------------------------------------------

    fn definitely_true(&self, v: &AbsVal) -> bool {
        matches!(v, AbsVal::Int(iv) if iv.lo >= 1)
    }

    fn definitely_false(&self, v: &AbsVal) -> bool {
        matches!(v, AbsVal::Int(iv) if iv.hi <= 0)
    }

    /// Side-effect-free evaluation of simple condition operands.
    fn peek(&self, e: &IrExpr) -> Option<AbsVal> {
        match &e.kind {
            ExprKind::Local(l) => Some(self.get(*l)),
            ExprKind::ConstInt(v) => {
                let s = e.ty.element_scalar()?;
                Some(AbsVal::Int(Interval::singleton(const_int_value(*v, s))))
            }
            ExprKind::ConstBool(b) => Some(AbsVal::Int(Interval::singleton(*b as i128))),
            ExprKind::ConstNull => Some(AbsVal::Ptr(PtrVal {
                base: PtrBase::Unknown,
                off: Interval::singleton(0),
                null: Nullness::Null,
            })),
            _ => None,
        }
    }

    /// Narrows the state assuming `cond == truth`; returns `false` when the
    /// assumption is unsatisfiable (the guarded code is unreachable).
    fn refine(&mut self, cond: &IrExpr, truth: bool) -> bool {
        match &cond.kind {
            ExprKind::ConstBool(b) => *b == truth,
            ExprKind::Unary {
                op: UnKind::Not,
                expr,
            } => self.refine(expr, !truth),
            ExprKind::Local(l) if cond.ty == Ty::BOOL => {
                let want = Interval::singleton(truth as i128);
                match self.get(*l) {
                    AbsVal::Int(iv) => match iv.meet(want) {
                        Some(m) => {
                            self.set(*l, AbsVal::Int(m));
                            true
                        }
                        None => false,
                    },
                    _ => true,
                }
            }
            ExprKind::Cmp { op, lhs, rhs } => {
                let op = if truth { *op } else { op.negated() };
                let a = self.refine_side(op, lhs, rhs);
                let b = self.refine_side(mirror_cmp(op), rhs, lhs);
                a && b
            }
            _ => true,
        }
    }

    /// Applies `lhs OP rhs` to narrow `lhs` when it is a local.
    fn refine_side(&mut self, op: CmpKind, lhs: &IrExpr, rhs: &IrExpr) -> bool {
        let ExprKind::Local(l) = lhs.kind else {
            return true;
        };
        let Some(rv) = self.peek(rhs) else {
            return true;
        };
        match (self.get(l), rv) {
            (AbsVal::Int(x), AbsVal::Int(k)) => {
                let narrowed = match op {
                    CmpKind::Eq => x.meet(k),
                    CmpKind::Ne => match k.as_singleton() {
                        // Only endpoint trims are expressible in intervals.
                        Some(v) if x.lo == v && x.lo == x.hi => None,
                        Some(v) if x.lo == v => Some(Interval::new(x.lo + 1, x.hi)),
                        Some(v) if x.hi == v => Some(Interval::new(x.lo, x.hi - 1)),
                        _ => Some(x),
                    },
                    CmpKind::Lt => x.assume_cmp(true, true, k),
                    CmpKind::Le => x.assume_cmp(true, false, k),
                    CmpKind::Gt => x.assume_cmp(false, true, k),
                    CmpKind::Ge => x.assume_cmp(false, false, k),
                };
                match narrowed {
                    Some(n) => {
                        self.set(l, AbsVal::Int(n));
                        true
                    }
                    None => false,
                }
            }
            (AbsVal::Ptr(p), AbsVal::Ptr(q)) if q.null == Nullness::Null => {
                // `p == nil` / `p ~= nil` refine nullness.
                match op {
                    CmpKind::Eq => {
                        if p.null == Nullness::NonNull {
                            return false;
                        }
                        self.set(
                            l,
                            AbsVal::Ptr(PtrVal {
                                base: PtrBase::Unknown,
                                off: Interval::singleton(0),
                                null: Nullness::Null,
                            }),
                        );
                        true
                    }
                    CmpKind::Ne => {
                        if p.null == Nullness::Null {
                            return false;
                        }
                        self.set(
                            l,
                            AbsVal::Ptr(PtrVal {
                                null: Nullness::NonNull,
                                ..p
                            }),
                        );
                        true
                    }
                    _ => true,
                }
            }
            _ => true,
        }
    }

    // -----------------------------------------------------------------
    // Expression evaluation.
    // -----------------------------------------------------------------

    fn eval(&mut self, e: &IrExpr) -> AbsVal {
        match &e.kind {
            ExprKind::ConstInt(v) => match e.ty.element_scalar() {
                Some(s) if s.is_integer() || s == ScalarTy::Bool => {
                    AbsVal::Int(Interval::singleton(const_int_value(*v, s)))
                }
                _ => AbsVal::Any,
            },
            ExprKind::ConstFloat(_) => AbsVal::Any,
            ExprKind::ConstBool(b) => AbsVal::Int(Interval::singleton(*b as i128)),
            ExprKind::ConstNull => AbsVal::Ptr(PtrVal {
                base: PtrBase::Unknown,
                off: Interval::singleton(0),
                null: Nullness::Null,
            }),
            ExprKind::ConstFunc(_) => AbsVal::Any,
            // Interned strings are NUL-terminated allocations; every byte
            // up to and including the terminator is readable.
            ExprKind::ConstStr(s) => AbsVal::Ptr(PtrVal {
                base: PtrBase::Alloc {
                    size: s.len() as u64 + 1,
                },
                off: Interval::singleton(0),
                null: Nullness::NonNull,
            }),
            ExprKind::Local(l) => self.get(*l),
            ExprKind::LocalAddr(l) => AbsVal::Ptr(PtrVal {
                base: PtrBase::Local(*l),
                off: Interval::singleton(0),
                null: Nullness::NonNull,
            }),
            ExprKind::GlobalAddr(g) => AbsVal::Ptr(PtrVal {
                base: PtrBase::Global(*g),
                off: Interval::singleton(0),
                null: Nullness::NonNull,
            }),
            ExprKind::Load(addr) => {
                let size = self.size_of(&e.ty);
                let av = self.eval(addr);
                self.access(addr, &av, size, "load");
                self.vector_alignment(&av, &e.ty, "load");
                AbsVal::Any
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(e, *op, lhs, rhs),
            ExprKind::Cmp { op, lhs, rhs } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                self.eval_cmp(*op, &a, &b)
            }
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr);
                match (op, &v, &e.ty) {
                    (UnKind::Neg, _, Ty::Scalar(s)) if s.is_integer() => {
                        let raw = v.interval().map(|iv| -iv);
                        self.wrap_check(e, *s, raw, &[(expr, &v)]);
                        raw.map_or(AbsVal::Any, |raw| AbsVal::Int(raw.wrap_to(*s)))
                    }
                    (UnKind::Not, AbsVal::Int(iv), _) if e.ty == Ty::BOOL => {
                        AbsVal::Int(Interval::new(1 - iv.hi.clamp(0, 1), 1 - iv.lo.clamp(0, 1)))
                    }
                    _ => AbsVal::Any,
                }
            }
            ExprKind::Cast(inner) => {
                let v = self.eval(inner);
                // A conversion the compiler wraps into its narrow integer
                // target: anything but a widening of a canonical integer.
                if let (Ty::Scalar(to), Ty::Scalar(from)) = (&e.ty, &inner.ty) {
                    if to.is_integer() && (from.is_float() || !from.widens_to(*to)) {
                        self.wrap_check(e, *to, v.interval(), &[(inner, &v)]);
                    }
                }
                self.eval_cast(&e.ty, &inner.ty, v)
            }
            ExprKind::Call { callee, args } => self.eval_call(callee, args),
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.eval(cond);
                let t = self.eval(then_value);
                let f = self.eval(else_value);
                if self.definitely_true(&c) {
                    t
                } else if self.definitely_false(&c) {
                    f
                } else {
                    join_absval(&t, &f)
                }
            }
        }
    }

    fn eval_binary(&mut self, e: &IrExpr, op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> AbsVal {
        let a = self.eval(lhs);
        let b = self.eval(rhs);
        // Pointer arithmetic: offsets are in bytes at IR level.
        if e.ty.is_pointer() {
            if let (AbsVal::Ptr(p), AbsVal::Int(k)) = (&a, &b) {
                let off = match op {
                    BinKind::Add => p.off + *k,
                    BinKind::Sub => p.off - *k,
                    _ => Interval::top(),
                };
                return AbsVal::Ptr(PtrVal {
                    base: p.base.clone(),
                    off,
                    null: p.null,
                });
            }
            return AbsVal::Ptr(PtrVal::unknown());
        }
        let Some(s) = e.ty.element_scalar() else {
            return AbsVal::Any;
        };
        if e.ty == Ty::BOOL {
            return match (op, &a, &b) {
                (BinKind::And, AbsVal::Int(x), AbsVal::Int(y)) => {
                    AbsVal::Int(Interval::new(x.lo.min(y.lo).clamp(0, 1), x.hi.min(y.hi)))
                }
                (BinKind::Or, AbsVal::Int(x), AbsVal::Int(y)) => {
                    AbsVal::Int(Interval::new(x.lo.max(y.lo), x.hi.max(y.hi).clamp(0, 1)))
                }
                _ => AbsVal::Int(Interval::new(0, 1)),
            };
        }
        if !s.is_integer() || !matches!(e.ty, Ty::Scalar(_)) {
            return AbsVal::Any;
        }
        // The result before wrapping, where interval arithmetic has one.
        let ints = a.interval().zip(b.interval());
        let raw = ints.and_then(|(x, y)| match op {
            BinKind::Add => Some(x + y),
            BinKind::Sub => Some(x - y),
            BinKind::Mul => Some(x * y),
            BinKind::Div => Some(x / y),
            BinKind::Rem => Some(x % y),
            // Left shift by a known amount is a multiply, of a negative
            // value too (the VM shifts the sign-extended register) —
            // `fold` strength-reduces `i * 2^k` into this, so address math
            // depends on it.
            BinKind::Shl => {
                let m = 1i128 << y.as_singleton().filter(|k| (0..64).contains(k))?;
                Some(Interval::new(x.lo.checked_mul(m)?, x.hi.checked_mul(m)?))
            }
            _ => None,
        });
        if op.can_leave(s) {
            self.wrap_check(e, s, raw, &[(lhs, &a), (rhs, &b)]);
        }
        let Some((x, y)) = ints else {
            return AbsVal::Int(Interval::full_for(s));
        };
        match (op, raw) {
            (BinKind::Add | BinKind::Sub | BinKind::Mul, Some(raw)) => {
                if s.is_signed() && raw.always_overflows(s) {
                    let sym = match op {
                        BinKind::Add => "+",
                        BinKind::Sub => "-",
                        _ => "*",
                    };
                    let full = Interval::full_for(s);
                    self.warn(
                        "guaranteed-overflow",
                        format!(
                            "'{sym}' on {} overflows on every execution: result in \
                             [{}, {}] but the representable range is [{}, {}]",
                            e.ty, raw.lo, raw.hi, full.lo, full.hi
                        ),
                    );
                }
                AbsVal::Int(raw.wrap_to(s))
            }
            (BinKind::Div | BinKind::Rem, Some(raw)) => {
                if y.lo == 0 && y.hi == 0 {
                    let sym = if op == BinKind::Div { "/" } else { "%" };
                    self.warn(
                        "div-by-zero",
                        format!("right operand of '{sym}' is zero on every execution"),
                    );
                }
                AbsVal::Int(raw.wrap_to(s))
            }
            (BinKind::Shl, Some(raw)) => AbsVal::Int(raw.wrap_to(s)),
            (BinKind::Min, _) => AbsVal::Int(Interval::new(x.lo.min(y.lo), x.hi.min(y.hi))),
            (BinKind::Max, _) => AbsVal::Int(Interval::new(x.lo.max(y.lo), x.hi.max(y.hi))),
            (BinKind::And, _) if x.lo >= 0 && y.lo >= 0 => {
                AbsVal::Int(Interval::new(0, x.hi.min(y.hi)))
            }
            (BinKind::Shr, _) if x.lo >= 0 => match y.as_singleton() {
                Some(k) if (0..64).contains(&k) => AbsVal::Int(Interval::new(x.lo >> k, x.hi >> k)),
                _ => AbsVal::Int(Interval::new(0, x.hi)),
            },
            _ => AbsVal::Int(Interval::full_for(s)),
        }
    }

    fn eval_cmp(&self, op: CmpKind, a: &AbsVal, b: &AbsVal) -> AbsVal {
        let bool_iv = |lo: i128, hi: i128| AbsVal::Int(Interval::new(lo, hi));
        if let (AbsVal::Int(x), AbsVal::Int(y)) = (a, b) {
            let (t, f) = match op {
                CmpKind::Eq => (x.as_singleton().is_some() && *x == *y, x.meet(*y).is_none()),
                CmpKind::Ne => (x.meet(*y).is_none(), x.as_singleton().is_some() && *x == *y),
                CmpKind::Lt => (x.hi < y.lo, x.lo >= y.hi),
                CmpKind::Le => (x.hi <= y.lo, x.lo > y.hi),
                CmpKind::Gt => (x.lo > y.hi, x.hi <= y.lo),
                CmpKind::Ge => (x.lo >= y.hi, x.hi < y.lo),
            };
            if t {
                return bool_iv(1, 1);
            }
            if f {
                return bool_iv(0, 0);
            }
        }
        // Pointer-vs-null comparisons with definite nullness.
        if let (AbsVal::Ptr(p), AbsVal::Ptr(q)) = (a, b) {
            let decided = match (p.null, q.null) {
                (Nullness::Null, Nullness::Null) => Some(true),
                (Nullness::Null, Nullness::NonNull) | (Nullness::NonNull, Nullness::Null) => {
                    Some(false)
                }
                _ => None,
            };
            if let Some(eq) = decided {
                let v = match op {
                    CmpKind::Eq => eq,
                    CmpKind::Ne => !eq,
                    _ => return bool_iv(0, 1),
                };
                return bool_iv(v as i128, v as i128);
            }
        }
        bool_iv(0, 1)
    }

    fn eval_cast(&self, to: &Ty, from: &Ty, v: AbsVal) -> AbsVal {
        match (to, from, v) {
            // Pointer-to-pointer casts preserve the object fact.
            (Ty::Ptr(_), Ty::Ptr(_), v @ AbsVal::Ptr(_)) => v,
            // Integer-to-pointer: 0 is null, a provably nonzero value is a
            // non-null pointer to who-knows-what.
            (Ty::Ptr(_), _, AbsVal::Int(iv)) => {
                let null = if iv.lo == 0 && iv.hi == 0 {
                    Nullness::Null
                } else if !iv.contains(0) {
                    Nullness::NonNull
                } else {
                    Nullness::Maybe
                };
                AbsVal::Ptr(PtrVal {
                    base: PtrBase::Unknown,
                    off: Interval::top(),
                    null,
                })
            }
            (Ty::Scalar(s), _, AbsVal::Int(iv)) if s.is_integer() => AbsVal::Int(iv.wrap_to(*s)),
            (Ty::Scalar(ScalarTy::Bool), _, AbsVal::Int(iv)) => {
                if iv.lo == 0 && iv.hi == 0 {
                    AbsVal::Int(Interval::singleton(0))
                } else if !iv.contains(0) {
                    AbsVal::Int(Interval::singleton(1))
                } else {
                    AbsVal::Int(Interval::new(0, 1))
                }
            }
            _ => AbsVal::Any,
        }
    }

    fn eval_call(&mut self, callee: &Callee, args: &[IrExpr]) -> AbsVal {
        let argv: Vec<AbsVal> = args.iter().map(|a| self.eval(a)).collect();
        match callee {
            Callee::Builtin(b) => match b {
                Builtin::Malloc => {
                    let size = match argv.first() {
                        Some(AbsVal::Int(iv)) => iv.as_singleton().filter(|k| *k >= 0),
                        _ => None,
                    };
                    // The VM's malloc grows linear memory as needed and
                    // always returns a non-null payload pointer.
                    AbsVal::Ptr(match size {
                        Some(k) => PtrVal {
                            base: PtrBase::Alloc { size: k as u64 },
                            off: Interval::singleton(0),
                            null: Nullness::NonNull,
                        },
                        None => PtrVal {
                            base: PtrBase::Unknown,
                            off: Interval::singleton(0),
                            null: Nullness::NonNull,
                        },
                    })
                }
                Builtin::Realloc => AbsVal::Ptr(PtrVal {
                    base: PtrBase::Unknown,
                    off: Interval::singleton(0),
                    null: Nullness::NonNull,
                }),
                Builtin::Rand => AbsVal::Int(Interval::full_for(ScalarTy::I32)),
                _ => AbsVal::Any,
            },
            Callee::Direct(id) => {
                let sum = self.sums.and_then(|s| s.map.get(id)).cloned();
                if let Some(sum) = &sum {
                    self.check_call_demand(sum, &argv);
                }
                sum.and_then(|s| s.ret).unwrap_or(AbsVal::Any)
            }
            Callee::Indirect(p) => {
                self.eval(p);
                AbsVal::Any
            }
        }
    }

    /// Caller-side lint: the callee unconditionally accesses bytes of a
    /// pointer argument beyond what the passed object has, or the argument
    /// is provably null.
    fn check_call_demand(&mut self, sum: &FnSummary, argv: &[AbsVal]) {
        for (i, need) in sum.demand.iter().enumerate() {
            let Some(need) = need else { continue };
            let Some(AbsVal::Ptr(p)) = argv.get(i) else {
                continue;
            };
            if p.null == Nullness::Null {
                self.warn(
                    "null-deref",
                    format!(
                        "argument {} is null on every execution, but the callee \
                         always dereferences it",
                        i + 1
                    ),
                );
                continue;
            }
            if let (Some(obj), Some(k)) = (self.base_size(&p.base), p.off.as_singleton()) {
                if k >= 0 && (k as u64).saturating_add(*need) > obj {
                    self.warn(
                        "definite-oob",
                        format!(
                            "callee always accesses {} byte(s) of argument {}, \
                             which only has {} byte(s)",
                            need,
                            i + 1,
                            obj.saturating_sub(k as u64)
                        ),
                    );
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Access classification.
    // -----------------------------------------------------------------

    fn base_size(&self, base: &PtrBase) -> Option<u64> {
        match base {
            PtrBase::Local(l) => {
                let slot = self.f.locals.get(l.0 as usize)?;
                if !slot.in_memory {
                    return None;
                }
                self.size_of(&slot.ty)
            }
            PtrBase::Global(g) => match self.env.global_ty(*g) {
                EnvEntry::Known(ty) => self.size_of(&ty),
                _ => None,
            },
            PtrBase::Alloc { size } => Some(*size),
            PtrBase::Param(_) | PtrBase::Unknown => None,
        }
    }

    fn base_desc(&self, base: &PtrBase) -> String {
        match base {
            PtrBase::Local(l) => format!("'{}'", self.f.locals[l.0 as usize].name),
            PtrBase::Global(g) => format!("global#{}", g.0),
            PtrBase::Alloc { size } => format!("a {size}-byte heap allocation"),
            PtrBase::Param(i) => format!("parameter {}", i + 1),
            PtrBase::Unknown => "an unknown object".into(),
        }
    }

    fn classify(&self, av: &AbsVal, size: u64) -> Verdict {
        let AbsVal::Ptr(p) = av else {
            return Verdict::Unknown {
                reason: "address value unknown at stage time".into(),
            };
        };
        if p.null == Nullness::Null {
            return Verdict::DefiniteNull;
        }
        match self.base_size(&p.base) {
            Some(obj) => {
                let size = size as i128;
                let obj_i = obj as i128;
                if p.off.lo >= 0 && p.off.hi + size <= obj_i {
                    Verdict::Proven
                } else if p.off.hi < 0 || p.off.lo > obj_i - size {
                    let off = if p.off.lo == p.off.hi {
                        format!("{}", p.off.lo)
                    } else {
                        format!("{}..={}", p.off.lo, p.off.hi)
                    };
                    Verdict::DefiniteOob {
                        detail: format!(
                            "at offset {off} of {}, which is {obj} byte(s)",
                            self.base_desc(&p.base)
                        ),
                    }
                } else {
                    Verdict::Unknown {
                        reason: format!(
                            "offset range [{}, {}] not provably within the {obj}-byte \
                             object",
                            p.off.lo, p.off.hi
                        ),
                    }
                }
            }
            None => Verdict::Unknown {
                reason: match p.base {
                    PtrBase::Param(_) => "points into caller-owned memory of unknown size".into(),
                    _ => "target allocation unknown at stage time".into(),
                },
            },
        }
    }

    /// Lint: a vector load or store at a known byte offset of an object this
    /// function can see (whose start is aligned) that is not a multiple of
    /// the vector's element size.
    fn vector_alignment(&mut self, av: &AbsVal, value_ty: &Ty, what: &str) {
        let (Ty::Vector(s, _), AbsVal::Ptr(p)) = (value_ty, av) else {
            return;
        };
        if matches!(p.base, PtrBase::Param(_) | PtrBase::Unknown) {
            return;
        }
        let elem = s.size() as i128;
        if let Some(off) = p.off.as_singleton().filter(|off| off % elem != 0) {
            self.warn(
                "misaligned-vector",
                format!(
                    "{what} of {value_ty} at byte offset {off}, which is not a multiple \
                     of the {elem}-byte element size"
                ),
            );
        }
    }

    fn access(&mut self, addr: &IrExpr, av: &AbsVal, size: Option<u64>, what: &'static str) {
        // Summary demand: unconditional constant-offset accesses through a
        // pointer parameter.
        if let (Mode::Summary, AbsVal::Ptr(p), Some(size)) = (&self.mode, av, size) {
            if let (PtrBase::Param(i), Some(k), 0) = (&p.base, p.off.as_singleton(), self.depth) {
                if k >= 0 {
                    let end = (k as u64).saturating_add(size);
                    let slot = &mut self.demand[*i];
                    *slot = Some(slot.unwrap_or(0).max(end));
                }
            }
        }
        let Some(size) = size else { return };
        match self.classify(av, size) {
            Verdict::Proven => {
                if let Mode::Elide(_) = self.mode {
                    self.pending.push(addr);
                    let (line, prov) = (self.cur_span.line, self.cur_prov.clone());
                    if let Mode::Elide(Some(remarks)) = &mut self.mode {
                        let msg = match av {
                            AbsVal::Ptr(p) => format!(
                                "bounds check elided: {what} of {size} byte(s) proven \
                                 within {}",
                                match &p.base {
                                    PtrBase::Local(l) =>
                                        format!("'{}'", self.f.locals[l.0 as usize].name),
                                    PtrBase::Global(g) => format!("global#{}", g.0),
                                    PtrBase::Alloc { size } =>
                                        format!("a {size}-byte heap allocation"),
                                    _ => "its object".into(),
                                }
                            ),
                            _ => format!("bounds check elided: {what} of {size} byte(s)"),
                        };
                        remarks.push(Remark::applied("checkelim", line, prov, msg));
                    }
                }
            }
            Verdict::DefiniteNull => {
                self.warn(
                    "null-deref",
                    format!("{what} through a pointer that is null on every execution"),
                );
            }
            Verdict::DefiniteOob { detail } => {
                self.warn(
                    "definite-oob",
                    format!(
                        "{what} of {size} byte(s) {detail} — out of bounds on every \
                             execution that reaches it"
                    ),
                );
            }
            Verdict::Unknown { reason } => {
                if self.loop_depth > 0 {
                    let (line, prov) = (self.cur_span.line, self.cur_prov.clone());
                    if let Mode::Elide(Some(remarks)) = &mut self.mode {
                        remarks.push(Remark::missed(
                            "checkelim",
                            line,
                            prov,
                            format!("{what} kept checked: {reason}"),
                        ));
                    }
                }
            }
        }
    }
}

fn mirror_cmp(op: CmpKind) -> CmpKind {
    match op {
        CmpKind::Eq => CmpKind::Eq,
        CmpKind::Ne => CmpKind::Ne,
        CmpKind::Lt => CmpKind::Gt,
        CmpKind::Le => CmpKind::Ge,
        CmpKind::Gt => CmpKind::Lt,
        CmpKind::Ge => CmpKind::Le,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_function, EnvEntry, ModuleEnv, NoEnv};
    use super::{summarize, summarize_one, Summaries};
    use crate::ir::{
        BinKind, Callee, CmpKind, ExprKind, FuncId, GlobalId, IrExpr, IrFunction, IrStmt, LocalId,
        StmtKind,
    };
    use crate::types::{FuncTy, ScalarTy, Ty, TypeRegistry};
    use std::sync::Arc;

    fn array_fn(elem: Ty, n: u64) -> (IrFunction, crate::ir::LocalId) {
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
        let a = f.add_local("a", Ty::Array(Arc::new(elem), n), true);
        (f, a)
    }

    /// Loads an `elem` from `byte_off` bytes past the object `base` names
    /// (a `LocalAddr` or a `GlobalAddr`).
    fn load_at(base: ExprKind, elem: Ty, byte_off: i64) -> IrExpr {
        let base = IrExpr::new(elem.clone().ptr_to(), base);
        IrExpr::load(
            elem,
            IrExpr::binary(BinKind::Add, base, IrExpr::int64(byte_off)),
        )
    }

    fn codes(f: &IrFunction, reg: &TypeRegistry) -> Vec<&'static str> {
        analyze_function(f, Some(reg), &NoEnv)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn flags_constant_oob_index() {
        let reg = TypeRegistry::new();
        let (mut f, a) = array_fn(Ty::INT, 4);
        // a[5] → byte offset 20 of a 16-byte array.
        f.body = vec![
            StmtKind::Store {
                addr: IrExpr {
                    ty: Ty::INT.ptr_to(),
                    kind: ExprKind::LocalAddr(a),
                },
                value: IrExpr::int32(1),
            }
            .into(),
            StmtKind::Expr(load_at(ExprKind::LocalAddr(a), Ty::INT, 20)).into(),
            StmtKind::Return(None).into(),
        ];
        // One oracle, one finding.
        assert_eq!(codes(&f, &reg), ["definite-oob"]);
    }

    #[test]
    fn in_bounds_access_is_clean() {
        let reg = TypeRegistry::new();
        let (mut f, a) = array_fn(Ty::INT, 4);
        f.body = vec![
            StmtKind::Store {
                addr: IrExpr {
                    ty: Ty::INT.ptr_to(),
                    kind: ExprKind::LocalAddr(a),
                },
                value: IrExpr::int32(1),
            }
            .into(),
            StmtKind::Expr(load_at(ExprKind::LocalAddr(a), Ty::INT, 12)).into(),
            StmtKind::Return(None).into(),
        ];
        assert!(codes(&f, &reg).is_empty(), "{:?}", codes(&f, &reg));
    }

    /// Env that knows one global: id 0 is an `int[4]`.
    struct OneGlobal;

    impl ModuleEnv for OneGlobal {
        fn global_ty(&self, id: GlobalId) -> EnvEntry<Ty> {
            if id.0 == 0 {
                EnvEntry::Known(Ty::Array(Arc::new(Ty::INT), 4))
            } else {
                EnvEntry::Invalid
            }
        }
    }

    fn global_load_at(elem: Ty, byte_off: i64) -> IrExpr {
        load_at(ExprKind::GlobalAddr(GlobalId(0)), elem, byte_off)
    }

    #[test]
    fn flags_constant_oob_global_access() {
        let reg = TypeRegistry::new();
        let (mut f, _) = array_fn(Ty::INT, 4);
        // global[5] → byte offset 20 of a 16-byte global array.
        f.body = vec![
            StmtKind::Expr(global_load_at(Ty::INT, 20)).into(),
            StmtKind::Return(None).into(),
        ];
        let codes: Vec<_> = analyze_function(&f, Some(&reg), &OneGlobal)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, ["definite-oob"]);
    }

    #[test]
    fn in_bounds_global_access_is_clean() {
        let reg = TypeRegistry::new();
        let (mut f, _) = array_fn(Ty::INT, 4);
        f.body = vec![
            StmtKind::Expr(global_load_at(Ty::INT, 12)).into(),
            StmtKind::Return(None).into(),
        ];
        let diags = analyze_function(&f, Some(&reg), &OneGlobal);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_global_type_stays_silent() {
        // With NoEnv the same OOB access cannot be checked statically.
        let reg = TypeRegistry::new();
        let (mut f, _) = array_fn(Ty::INT, 4);
        f.body = vec![
            StmtKind::Expr(global_load_at(Ty::INT, 20)).into(),
            StmtKind::Return(None).into(),
        ];
        let diags = analyze_function(&f, Some(&reg), &NoEnv);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The plain three-round Jacobi loop, every member walked every round:
    /// the reference `summarize` must equal.
    fn reference_summarize(fns: &[(FuncId, IrFunction)]) -> Summaries {
        let mut sums = Summaries::default();
        for _ in 0..3 {
            let mut next = Summaries::default();
            for (id, f) in fns {
                next.map.insert(*id, summarize_one(f, None, &NoEnv, &sums));
            }
            let done = next == sums;
            sums = next;
            if done {
                break;
            }
        }
        sums
    }

    /// One step of a random member body over `a : int`, `p : &int` and a
    /// register `x : int`. `Call`'s target is `d` members on from the caller
    /// (0 calls itself, 1 the next, wrapping: chains and cycles), or a
    /// function outside the unit when `d` is the unit's size.
    #[derive(Debug, Clone)]
    enum Step {
        /// `x = p[c]`: a demand on `p`.
        Load(i64),
        /// `x = x + k`.
        Add(i32),
        /// `x = f(arg, p)`, `arg` being `a` (0), `x` (1) or the constant.
        Call(usize, u8, i32),
        /// `if v < k then return k end`, `v` being `x` (true) or `a`: a call
        /// result decides which returns are reachable.
        Guard(bool, i32),
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (0i64..4).prop_map(Step::Load),
            (-3i32..40).prop_map(Step::Add),
            (0usize..9, 0u8..3, -3i32..40).prop_map(|(d, arg, k)| Step::Call(d, arg, k)),
            (any::<bool>(), -3i32..40).prop_map(|(on_x, k)| Step::Guard(on_x, k)),
        ]
    }

    /// The unit: member `m` is `FuncId(3m + 1)`, its body `steps`, then
    /// `return x + k`, or `return k` when `k` is odd.
    fn unit(bodies: &[(Vec<Step>, i32)]) -> Vec<(FuncId, IrFunction)> {
        let n = bodies.len();
        let id = |m: usize| FuncId(3 * m as u32 + 1);
        let (a, p, x) = (
            || IrExpr::local(LocalId(0), Ty::INT),
            || IrExpr::local(LocalId(1), Ty::INT.ptr_to()),
            || IrExpr::local(LocalId(2), Ty::INT),
        );
        let plus = |e: IrExpr, k: i32| IrExpr::binary(BinKind::Add, e, IrExpr::int32(k));
        let set_x = |e: IrExpr| {
            IrStmt::from(StmtKind::Assign {
                dst: LocalId(2),
                value: e,
            })
        };
        let ret = |e: IrExpr| IrStmt::from(StmtKind::Return(Some(e)));
        let members = bodies.iter().enumerate().map(|(m, (steps, k))| {
            let mut f = IrFunction {
                name: format!("m{m}").into(),
                ty: FuncTy {
                    params: vec![Ty::INT, Ty::INT.ptr_to()],
                    ret: Ty::INT,
                },
                locals: vec![],
                body: vec![set_x(IrExpr::int32(0))],
                index_range: None,
            };
            f.add_local("a", Ty::INT, false);
            f.add_local("p", Ty::INT.ptr_to(), false);
            f.add_local("x", Ty::INT, false);
            f.body.extend(steps.iter().map(|s| {
                match *s {
                    Step::Load(c) => set_x(IrExpr::load(
                        Ty::INT,
                        IrExpr::binary(BinKind::Add, p(), IrExpr::int64(4 * c)),
                    )),
                    Step::Add(k) => set_x(plus(x(), k)),
                    Step::Call(d, arg, k) => {
                        let callee = match d % (n + 1) {
                            d if d == n => FuncId(999),
                            d => id((m + d) % n),
                        };
                        let arg = match arg {
                            0 => a(),
                            1 => x(),
                            _ => IrExpr::int32(k),
                        };
                        set_x(IrExpr::call(
                            Ty::INT,
                            Callee::Direct(callee),
                            vec![arg, p()],
                        ))
                    }
                    Step::Guard(on_x, k) => StmtKind::If {
                        cond: IrExpr::cmp(
                            CmpKind::Lt,
                            if on_x { x() } else { a() },
                            IrExpr::int32(k),
                        ),
                        then_body: vec![ret(IrExpr::int32(k))],
                        else_body: vec![],
                    }
                    .into(),
                }
            }));
            f.body.push(ret(match k % 2 {
                0 => plus(x(), *k),
                _ => IrExpr::int32(*k),
            }));
            (id(m), f)
        });
        members.collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Skipping members whose callees did not change computes the same
        /// three-round iterate, converged or not.
        #[test]
        fn summarize_equals_the_three_round_reference(
            bodies in proptest::collection::vec(
                (proptest::collection::vec(step(), 0..5), -3i32..40),
                1..9,
            ),
        ) {
            let fns = unit(&bodies);
            proptest::prop_assert_eq!(summarize(&fns, None, &NoEnv), reference_summarize(&fns));
        }
    }

    #[test]
    fn flags_misaligned_vector_load() {
        let reg = TypeRegistry::new();
        let vec4 = Ty::Vector(ScalarTy::F32, 4);
        let (mut f, a) = array_fn(Ty::F32, 16);
        f.body = vec![
            StmtKind::Store {
                addr: IrExpr {
                    ty: Ty::F32.ptr_to(),
                    kind: ExprKind::LocalAddr(a),
                },
                value: IrExpr {
                    ty: Ty::F32,
                    kind: ExprKind::ConstFloat(0.0),
                },
            }
            .into(),
            // 6 is not a multiple of the 4-byte element size.
            StmtKind::Expr(load_at(ExprKind::LocalAddr(a), vec4, 6)).into(),
            StmtKind::Return(None).into(),
        ];
        assert_eq!(codes(&f, &reg), ["misaligned-vector"]);
    }
}
