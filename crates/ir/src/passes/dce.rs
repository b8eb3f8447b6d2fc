//! Dead-code and dead-store elimination.
//!
//! This promotes the diagnostic dataflow analyses (`crates/ir/src/analysis/
//! dataflow.rs`) from lint to transform. Three sub-passes iterate to a
//! fixpoint:
//!
//! 1. **Unreachable statements** — anything after a statement control cannot
//!    continue past (`return`, `break`, an `if` whose arms both terminate, a
//!    `while true` without a top-level `break`) is removed.
//! 2. **Effect-free statements** — a bare `Expr` whose expression is pure,
//!    and self-assignments `x = x`, are removed.
//! 3. **Dead stores** — a backward liveness walk (union fixpoint over loop
//!    back edges, mirroring the lint's structure) removes assignments to
//!    register locals whose value is never read, when the right-hand side is
//!    pure.
//!
//! "Pure" is the strict [`expr_is_pure`] notion: loads and possibly-trapping
//! divisions are effects, so eliminating a dead store can never eliminate a
//! trap the program would have hit. Assignments to `in_memory` locals are
//! never removed (their slots are readable through pointers).

use super::util::{add_uses, expr_is_pure, stmt_terminates, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrFunction, IrStmt, LocalSlot, StmtKind};

/// Removes code that cannot execute or whose results are never observed;
/// returns whether it removed anything.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    // Each round can expose more dead code (a dead store's operands die with
    // it); iterate until nothing changes.
    let (mut unreachable, mut effect_free, mut dead_stores) = (0usize, 0usize, 0usize);
    loop {
        let a = prune_unreachable(&mut f.body);
        let b = drop_effect_free(&mut f.body);
        let c = sweep_dead_stores(f);
        unreachable += a;
        effect_free += b;
        dead_stores += c;
        if a + b + c == 0 {
            break;
        }
    }
    // One aggregate remark per category keeps the stream proportional to
    // what happened, not to function size.
    for (count, what) in [
        (unreachable, "unreachable"),
        (effect_free, "effect-free"),
        (dead_stores, "dead-store"),
    ] {
        if count > 0 {
            remarks.push(Remark::applied(
                "dce",
                0,
                None,
                format!("removed {count} {what} statement(s)"),
            ));
        }
    }
    unreachable + effect_free + dead_stores > 0
}

/// Truncates every block after its first terminating statement, returning
/// the number of statements removed.
fn prune_unreachable(stmts: &mut Vec<IrStmt>) -> usize {
    let mut removed = 0;
    for s in stmts.iter_mut() {
        match &mut s.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                removed += prune_unreachable(then_body);
                removed += prune_unreachable(else_body);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                removed += prune_unreachable(body);
            }
            _ => {}
        }
    }
    if let Some(end) = stmts.iter().position(stmt_terminates) {
        if end + 1 < stmts.len() {
            removed += stmts.len() - (end + 1);
            stmts.truncate(end + 1);
        }
    }
    removed
}

/// Removes statements that compute nothing observable, returning how many.
fn drop_effect_free(stmts: &mut Vec<IrStmt>) -> usize {
    let mut removed = 0;
    for s in stmts.iter_mut() {
        match &mut s.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                removed += drop_effect_free(then_body);
                removed += drop_effect_free(else_body);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                removed += drop_effect_free(body);
            }
            _ => {}
        }
    }
    let before = stmts.len();
    stmts.retain(|s| match &s.kind {
        StmtKind::Expr(e) => !expr_is_pure(e),
        StmtKind::Assign { dst, value } => value.kind != ExprKind::Local(*dst),
        _ => true,
    });
    removed + (before - stmts.len())
}

struct Sweep<'a> {
    locals: &'a [LocalSlot],
    removed: usize,
}

fn sweep_dead_stores(f: &mut IrFunction) -> usize {
    let n = f.locals.len();
    let mut sweep = Sweep {
        locals: &f.locals,
        removed: 0,
    };
    let exit = LocalSet::new(n);
    let _ = sweep.block(&mut f.body, exit, true);
    sweep.removed
}

impl Sweep<'_> {
    /// Computes live-in of `stmts` given live-out `live`. Deletions happen
    /// only when `act` is set, so loop fixpoint iterations stay read-only.
    fn block(&mut self, stmts: &mut Vec<IrStmt>, mut live: LocalSet, act: bool) -> LocalSet {
        let mut dead: Vec<usize> = Vec::new();
        for (i, s) in stmts.iter_mut().enumerate().rev() {
            live = self.stmt(s, live, act, i, &mut dead);
        }
        for i in dead {
            // Indices were collected back-to-front, so each removal leaves
            // earlier indices valid.
            stmts.remove(i);
            self.removed += 1;
        }
        live
    }

    fn stmt(
        &mut self,
        s: &mut IrStmt,
        mut live: LocalSet,
        act: bool,
        index: usize,
        dead: &mut Vec<usize>,
    ) -> LocalSet {
        match &mut s.kind {
            StmtKind::Assign { dst, value } => {
                let d = *dst;
                if !live.contains(d) && !self.locals[d.0 as usize].in_memory && expr_is_pure(value)
                {
                    if act {
                        dead.push(index);
                    }
                    // The statement disappears: its uses generate nothing.
                    return live;
                }
                live.remove(d);
                add_uses(value, &mut live);
                live
            }
            StmtKind::Store { addr, value } => {
                // Memory isn't tracked; stores are always live.
                add_uses(addr, &mut live);
                add_uses(value, &mut live);
                live
            }
            StmtKind::CopyMem { dst, src, .. } => {
                add_uses(dst, &mut live);
                add_uses(src, &mut live);
                live
            }
            StmtKind::Expr(e) => {
                add_uses(e, &mut live);
                live
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = self.block(then_body, live.clone(), act);
                let mut l = self.block(else_body, live, act);
                l.union(&t);
                add_uses(cond, &mut l);
                l
            }
            StmtKind::While { cond, body } => {
                let mut boundary = live;
                add_uses(cond, &mut boundary);
                loop {
                    let li = self.block(body, boundary.clone(), false);
                    let mut next = boundary.clone();
                    next.union(&li);
                    if next == boundary {
                        break;
                    }
                    boundary = next;
                }
                if act {
                    let _ = self.block(body, boundary.clone(), true);
                }
                boundary
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let v = *var;
                let mut boundary = live;
                // Loop variable and bounds are read by the header every
                // iteration.
                boundary.insert(v);
                add_uses(stop, &mut boundary);
                add_uses(step, &mut boundary);
                loop {
                    let li = self.block(body, boundary.clone(), false);
                    let mut next = boundary.clone();
                    next.union(&li);
                    if next == boundary {
                        break;
                    }
                    boundary = next;
                }
                if act {
                    let _ = self.block(body, boundary.clone(), true);
                }
                let mut live_in = boundary;
                live_in.remove(v);
                add_uses(start, &mut live_in);
                add_uses(stop, &mut live_in);
                add_uses(step, &mut live_in);
                live_in
            }
            StmtKind::ParallelFor {
                start, stop, args, ..
            } => {
                add_uses(start, &mut live);
                add_uses(stop, &mut live);
                for a in args.iter() {
                    add_uses(a, &mut live);
                }
                live
            }
            StmtKind::Return(v) => {
                let mut live = LocalSet::new(self.locals.len());
                if let Some(e) = v {
                    add_uses(e, &mut live);
                }
                live
            }
            // `break` jumps to the loop exit, whose liveness this structured
            // walk doesn't thread through; stay conservative.
            StmtKind::Break => LocalSet::full(self.locals.len()),
        }
    }
}
