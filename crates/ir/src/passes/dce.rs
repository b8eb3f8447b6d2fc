//! Dead-code and dead-store elimination.
//!
//! The transform side of the diagnostic dataflow analyses
//! (`analysis/dataflow.rs`), reading the same facts from the same place
//! (`util`). Three sub-passes iterate to a fixpoint:
//!
//! 1. **Unreachable statements** — anything after a statement control cannot
//!    continue past (`return`, `break`, an `if` whose arms both terminate, a
//!    `while true` without a top-level `break`) is removed.
//! 2. **Self-assignments** — `x = x` is removed.
//! 3. **Dead stores** — the backward liveness walk the `dead-store` lint
//!    runs ([`live_in`]) removes assignments to register locals whose value
//!    is never read, when the right-hand side is pure.
//!
//! "Pure" is the strict [`expr_is_pure`] notion: loads and possibly-trapping
//! divisions are effects, so eliminating a dead store can never eliminate a
//! trap the program would have hit. Assignments to `in_memory` locals are
//! never removed (their slots are readable through pointers).

use super::util::{expr_is_pure, live_in, stmt_terminates, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrFunction, IrStmt, StmtKind};

/// Removes code that cannot execute or whose results are never observed;
/// returns whether it removed anything.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    // Each round can expose more dead code (a dead store's operands die with
    // it); iterate until nothing changes.
    let (mut unreachable, mut self_assigns, mut dead_stores) = (0usize, 0usize, 0usize);
    loop {
        let a = prune_unreachable(&mut f.body);
        let b = drop_self_assignments(&mut f.body);
        let c = sweep_dead_stores(f);
        unreachable += a;
        self_assigns += b;
        dead_stores += c;
        if a + b + c == 0 {
            break;
        }
    }
    // One aggregate remark per category keeps the stream proportional to
    // what happened, not to function size.
    for (count, what) in [
        (unreachable, "unreachable"),
        (self_assigns, "self-assignment"),
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
    unreachable + self_assigns + dead_stores > 0
}

/// Truncates every block after its first terminating statement, returning
/// the number of statements removed.
fn prune_unreachable(stmts: &mut Vec<IrStmt>) -> usize {
    let mut removed = 0;
    IrStmt::each_block_mut(stmts, &mut |block| {
        if let Some(end) = block.iter().position(stmt_terminates) {
            removed += block.len() - (end + 1);
            block.truncate(end + 1);
        }
    });
    removed
}

/// Removes every `x = x`, returning how many.
fn drop_self_assignments(stmts: &mut Vec<IrStmt>) -> usize {
    let mut removed = 0;
    IrStmt::each_block_mut(stmts, &mut |block| {
        let before = block.len();
        block.retain(|s| {
            !matches!(&s.kind, StmtKind::Assign { dst, value } if value.kind == ExprKind::Local(*dst))
        });
        removed += before - block.len();
    });
    removed
}

/// Removes assignments whose value is never read — the shared liveness walk
/// ([`live_in`]) with dead assignments going away, so a store that only fed
/// a dead store falls in the same sweep. Returns how many it removed.
fn sweep_dead_stores(f: &mut IrFunction) -> usize {
    let (n, locals) = (f.locals.len(), &f.locals);
    // The walk is read-only; what it finds is remembered by identity (never
    // read through) and deleted afterwards.
    let mut dead: Vec<*const IrStmt> = Vec::new();
    live_in(
        &f.body,
        LocalSet::new(n),
        n,
        true,
        &mut |s, dst, value, settled| {
            let goes = !locals[dst.0 as usize].in_memory && expr_is_pure(value);
            if goes && settled {
                dead.push(s);
            }
            goes
        },
    );
    if !dead.is_empty() {
        dead.sort_unstable();
        IrStmt::each_block_mut(&mut f.body, &mut |block| {
            // Positions first, removals after: removing moves statements.
            let doomed: Vec<usize> = (0..block.len())
                .filter(|&i| dead.binary_search(&(&block[i] as *const IrStmt)).is_ok())
                .collect();
            for i in doomed.into_iter().rev() {
                block.remove(i);
            }
        });
    }
    dead.len()
}
