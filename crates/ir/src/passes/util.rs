//! The facts the optimization passes and the `--lint` dataflow analyses both
//! read, each stated once: local-id sets, purity/effect classification, uses
//! and write sets, calls, block termination, and backward liveness. (The
//! *shape* of the tree — children, operands, nested blocks — is in `ir.rs`.)
//!
//! The effect tests here define what every transform pass is allowed to
//! delete, duplicate, or reorder. They are deliberately conservative: a
//! `Load` counts as an effect (it can trap on out-of-bounds or poisoned
//! memory), and an integer division counts as an effect unless its divisor
//! is a non-zero constant (it can trap on zero). Optimized code must trap
//! exactly when unoptimized code would.

use crate::ir::{
    BinKind, Callee, ExprKind, FuncId, IrExpr, IrFunction, IrStmt, LocalId, LocalSlot, StmtKind,
};
use std::collections::BTreeSet;

/// Dense bitset over [`LocalId`]s that grows on insert (passes may add
/// locals while a set is alive).
#[derive(Debug, Clone, Default)]
pub struct LocalSet {
    words: Vec<u64>,
}

impl LocalSet {
    /// An empty set sized for `n` locals.
    pub fn new(n: usize) -> Self {
        LocalSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A set containing every one of `n` locals.
    pub fn full(n: usize) -> Self {
        let mut s = Self::new(n);
        for i in 0..n {
            s.insert(LocalId(i as u32));
        }
        s
    }

    /// Adds `l`, growing the backing store if needed.
    pub fn insert(&mut self, l: LocalId) {
        let i = l.0 as usize;
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `l`.
    pub fn remove(&mut self, l: LocalId) {
        let i = l.0 as usize;
        if i / 64 < self.words.len() {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, l: LocalId) -> bool {
        let i = l.0 as usize;
        i / 64 < self.words.len() && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// In-place union.
    pub fn union(&mut self, other: &LocalSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

impl PartialEq for LocalSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

/// Whether the node `e` alone, its children aside, is free of observable
/// effects: no call, no memory read (a load can trap), no string interning,
/// and no integer `Div`/`Rem` whose divisor is not a known non-zero constant
/// (float division never traps). Given `locals`, a read of an `in_memory`
/// local, whose frame slot can change through stores, fails it too.
pub(crate) fn node_is_stable(e: &IrExpr, locals: Option<&[LocalSlot]>) -> bool {
    match &e.kind {
        ExprKind::Call { .. } | ExprKind::Load(_) | ExprKind::ConstStr(_) => false,
        ExprKind::Local(l) => locals.is_none_or(|ls| !ls[l.0 as usize].in_memory),
        ExprKind::Binary { op, rhs, .. }
            if matches!(op, BinKind::Div | BinKind::Rem) && !e.ty.is_float() =>
        {
            matches!(rhs.kind, ExprKind::ConstInt(v) if v != 0)
        }
        _ => true,
    }
}

/// Whether evaluating `e` is free of observable effects: every node passes
/// [`node_is_stable`] without `locals`. Pure expressions may be deleted,
/// duplicated, or hoisted.
pub fn expr_is_pure(e: &IrExpr) -> bool {
    !e.any(&mut |n| !node_is_stable(n, None))
}

/// Whether `e` denotes a *stable value*: pure, and independent of mutable
/// memory (every node passes [`node_is_stable`] against `locals`). Stable
/// values can be cached in a register and reused.
pub fn expr_is_stable(e: &IrExpr, locals: &[LocalSlot]) -> bool {
    !e.any(&mut |n| !node_is_stable(n, Some(locals)))
}

/// Whether `e` is a compound register computation: the only kinds `licm`
/// hoists (a bare constant, local or address is as cheap
/// as the register read that would replace it).
pub(crate) fn is_compound(e: &IrExpr) -> bool {
    matches!(
        e.kind,
        ExprKind::Binary { .. }
            | ExprKind::Unary { .. }
            | ExprKind::Cast(_)
            | ExprKind::Cmp { .. }
            | ExprKind::Select { .. }
    )
}

/// Adds every local `e` mentions (reads and address-takes) to `out`.
pub fn add_uses(e: &IrExpr, out: &mut LocalSet) {
    e.walk(&mut |n| {
        if let ExprKind::Local(l) | ExprKind::LocalAddr(l) = n.kind {
            out.insert(l);
        }
    });
}

/// Whether `e` mentions local `l` (as a read or address-take).
pub fn expr_uses(e: &IrExpr, l: LocalId) -> bool {
    e.any(&mut |n| matches!(n.kind, ExprKind::Local(x) | ExprKind::LocalAddr(x) if x == l))
}

/// Whether evaluating `e` makes a call: direct, indirect or to a VM builtin.
pub(crate) fn expr_has_call(e: &IrExpr) -> bool {
    e.any(&mut |n| matches!(n.kind, ExprKind::Call { .. }))
}

/// [`expr_has_call`] over every expression of `stmts` and the blocks nested
/// in them; a `parallelfor` is a call to its kernel.
pub(crate) fn block_has_call(stmts: &[IrStmt]) -> bool {
    IrStmt::any(stmts, &mut |s| {
        let mut found = matches!(s.kind, StmtKind::ParallelFor { .. });
        s.operand_roots(&mut |e| found = found || expr_has_call(e));
        found
    })
}

/// The functions `stmts` call directly, and the kernels their `parallelfor`s
/// run: each once, in id order.
pub fn direct_calls(stmts: &[IrStmt]) -> BTreeSet<FuncId> {
    let mut calls = BTreeSet::new();
    IrStmt::walk(stmts, &mut |s| {
        if let StmtKind::ParallelFor { kernel, .. } = s.kind {
            calls.insert(kernel);
        }
    });
    IrStmt::walk_exprs(stmts, &mut |e| {
        if let ExprKind::Call {
            callee: Callee::Direct(id),
            ..
        } = e.kind
        {
            calls.insert(id);
        }
    });
    calls
}

/// Records every register local that statements in `stmts` (recursively)
/// assign: `Assign` destinations and `for` loop variables. Writes to memory
/// (stores, copies) don't change register locals and are not collected.
pub fn collect_assigned(stmts: &[IrStmt], out: &mut LocalSet) {
    IrStmt::walk(stmts, &mut |s| {
        if let StmtKind::Assign { dst: l, .. } | StmtKind::For { var: l, .. } = &s.kind {
            out.insert(*l);
        }
    });
}

/// Adds `by` to `counts[l]` for every read of local `l` in `stmts` (taking
/// its address is one) and once more for each `for` over it, whose header
/// reads it; `counts` grows to fit. A local all of whose reads lie in one
/// region is dead outside it.
pub fn count_reads(stmts: &[IrStmt], counts: &mut Vec<i32>, by: i32) {
    let mut bump = |l: LocalId| {
        let i = l.0 as usize;
        if i >= counts.len() {
            counts.resize(i + 1, 0);
        }
        counts[i] += by;
    };
    IrStmt::walk(stmts, &mut |s| {
        if let StmtKind::For { var, .. } = s.kind {
            bump(var);
        }
        s.operand_roots(&mut |root| {
            root.walk(&mut |e| {
                if let ExprKind::Local(l) | ExprKind::LocalAddr(l) = e.kind {
                    bump(l);
                }
            })
        });
    });
}

/// Rewrites every local id in `stmts` — reads, address-takes, assignment
/// destinations, loop variables — through `map`.
pub fn renumber_locals(stmts: &mut [IrStmt], map: &dyn Fn(LocalId) -> LocalId) {
    IrStmt::walk_mut(stmts, &mut |s| {
        if let StmtKind::Assign { dst: l, .. } | StmtKind::For { var: l, .. } = &mut s.kind {
            *l = map(*l);
        }
        s.operand_roots_mut(&mut |root| {
            root.walk_mut(&mut |e| {
                if let ExprKind::Local(l) | ExprKind::LocalAddr(l) = &mut e.kind {
                    *l = map(*l);
                }
            })
        });
    });
}

/// Whether `stmts` contains a `break` targeting the enclosing loop (not one
/// inside a nested loop).
pub fn has_toplevel_break(stmts: &[IrStmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        StmtKind::Break => true,
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => has_toplevel_break(then_body) || has_toplevel_break(else_body),
        _ => false,
    })
}

/// Whether control cannot continue past `s`.
pub fn stmt_terminates(s: &IrStmt) -> bool {
    match &s.kind {
        StmtKind::Return(_) | StmtKind::Break => true,
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => block_terminates(then_body) && block_terminates(else_body),
        StmtKind::While { cond, body } => {
            matches!(cond.kind, ExprKind::ConstBool(true)) && !has_toplevel_break(body)
        }
        _ => false,
    }
}

/// Whether control cannot fall through the end of `stmts`.
pub fn block_terminates(stmts: &[IrStmt]) -> bool {
    stmts.iter().any(stmt_terminates)
}

/// Backward liveness over the structured statement tree: the locals live on
/// entry to `stmts`, given those `live` after them. Memory is not tracked
/// (stores and copies only generate uses), a loop body is iterated to a
/// union fixpoint over its back edge, and a `break` — whose target this
/// structured walk does not thread through — makes every local live.
///
/// The `--lint` dead-store warning and the dead-store elimination of `dce`
/// are both this walk; they differ in what an assignment to a dead local
/// does to the liveness of its operands, so that is the parameter.
/// `dead_assign(stmt, dst, value, settled)` is asked about every such
/// assignment and answers whether it goes away: an assignment that stays
/// keeps its operands live, one that goes generates no uses, which is what
/// lets a chain of dead stores fall in one sweep. `settled` is false on the
/// walks that only iterate a loop to its fixpoint and true on the one walk
/// made over each statement with the final sets — the one to act on.
pub(crate) fn live_in(
    stmts: &[IrStmt],
    mut live: LocalSet,
    nlocals: usize,
    settled: bool,
    dead_assign: &mut dyn FnMut(&IrStmt, LocalId, &IrExpr, bool) -> bool,
) -> LocalSet {
    for s in stmts.iter().rev() {
        match &s.kind {
            StmtKind::Assign { dst, value } => {
                if live.contains(*dst) || !dead_assign(s, *dst, value, settled) {
                    live.remove(*dst);
                    add_uses(value, &mut live);
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = live_in(then_body, live.clone(), nlocals, settled, dead_assign);
                live = live_in(else_body, live, nlocals, settled, dead_assign);
                live.union(&t);
                add_uses(cond, &mut live);
            }
            StmtKind::While { cond, body } => {
                add_uses(cond, &mut live);
                live = loop_boundary(body, live, nlocals, settled, dead_assign);
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                // The header reads the variable and the bounds on every
                // iteration.
                live.insert(*var);
                add_uses(stop, &mut live);
                add_uses(step, &mut live);
                live = loop_boundary(body, live, nlocals, settled, dead_assign);
                live.remove(*var);
                for e in [start, stop, step] {
                    add_uses(e, &mut live);
                }
            }
            StmtKind::Return(_) => {
                live = LocalSet::new(nlocals);
                s.operand_roots(&mut |e| add_uses(e, &mut live));
            }
            StmtKind::Break => live = LocalSet::full(nlocals),
            // Everything else only reads: stores, copies, calls, `parallelfor`.
            _ => s.operand_roots(&mut |e| add_uses(e, &mut live)),
        }
    }
    live
}

/// The set live at a loop's back edge, from the set live around the loop:
/// the fixpoint of [`live_in`] over `body`, then the settled walk of it.
fn loop_boundary(
    body: &[IrStmt],
    mut boundary: LocalSet,
    nlocals: usize,
    settled: bool,
    dead_assign: &mut dyn FnMut(&IrStmt, LocalId, &IrExpr, bool) -> bool,
) -> LocalSet {
    loop {
        let mut next = live_in(body, boundary.clone(), nlocals, false, dead_assign);
        next.union(&boundary);
        if next == boundary {
            break;
        }
        boundary = next;
    }
    if settled {
        live_in(body, boundary.clone(), nlocals, true, dead_assign);
    }
    boundary
}

/// IR size of a function: statements plus expression nodes. Used for the
/// inliner's budget.
pub fn count_nodes(f: &IrFunction) -> usize {
    block_nodes(&f.body)
}

/// [`count_nodes`] of a block: the unroller's measure of a loop body.
pub fn block_nodes(stmts: &[IrStmt]) -> usize {
    let mut n = 0;
    IrStmt::walk(stmts, &mut |s| {
        n += 1;
        s.operand_roots(&mut |root| root.walk(&mut |_| n += 1));
    });
    n
}
