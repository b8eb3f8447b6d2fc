//! Copy propagation: after `a = b`, uses of `a` read `b` directly until
//! either local is reassigned.
//!
//! The pass runs a forward walk over the structured statement tree carrying
//! a `copy-of` map. Copies are only tracked between register locals of
//! identical type — `in_memory` locals live in frame slots whose contents
//! can change through stores, so reads of them are never forwarded. Maps are
//! kept canonical (the source of a copy is itself resolved through the map
//! at insertion), branch arms propagate independently and merge by
//! intersection, and loop bodies start from a map purged of everything the
//! body reassigns, which makes the single forward walk sound in the presence
//! of back edges.
//!
//! Propagated-over copies whose destination is no longer read are removed
//! later by dead-code elimination, not here.
//!
//! Before that walk the pass does the backward half, coalescing: `t = e; …;
//! x = t` becomes `x = e; …` when the copy is the only read of `t` anywhere
//! in the function (so `t` is dead after it) and the statements in between
//! are straight-line ones of the same block that neither read nor write `x`.
//! `e` is evaluated where it was and only the write to `x` moves up, past
//! statements that cannot tell. It is what turns the temporaries the
//! typechecker stages every multiple assignment through (`B, A = B + ldb,
//! A + 1` is `t1 = B + ldb; t2 = A + 1; B = t1; A = t2`, so that a swap reads
//! both sides first) back into `B = B + ldb; A = A + 1` wherever no target
//! is read by a later right-hand side; in a swap one temporary stays.

use super::util::{collect_assigned, count_reads, expr_uses, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, LocalSlot, StmtKind};

type CopyMap = Vec<Option<LocalId>>;

/// Coalesces single-use temporaries into the local they are copied to, then
/// propagates register-to-register copies through the function body; returns
/// whether either rewrote anything.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let IrFunction { locals, body, .. } = f;
    let coalesced = coalesce(locals, body, remarks);
    let mut map: CopyMap = vec![None; locals.len()];
    let mut forwarded = 0usize;
    block(locals, body, &mut map, &mut forwarded);
    if forwarded > 0 {
        remarks.push(Remark::applied(
            "copyprop",
            0,
            None,
            format!("forwarded {forwarded} copied value read(s)"),
        ));
    }
    coalesced || forwarded > 0
}

/// The backward half (see the module comment); one `applied` remark per
/// temporary coalesced, one `missed` per copy that only a read or write of
/// its destination in between keeps apart from its definition (said once
/// per line and message).
fn coalesce(locals: &[LocalSlot], body: &mut Vec<IrStmt>, remarks: &mut Vec<Remark>) -> bool {
    let mut reads = vec![0; locals.len()];
    count_reads(body, &mut reads, 1);
    let mut coalesced = false;
    IrStmt::each_block_mut(body, &mut |block| {
        // Indices of the copies coalesced away, ascending.
        let mut gone: Vec<usize> = Vec::new();
        for j in 0..block.len() {
            let StmtKind::Assign { dst: x, value } = &block[j].kind else {
                continue;
            };
            let (ExprKind::Local(t), x) = (&value.kind, *x) else {
                continue;
            };
            let (t, tmp, dst) = (*t, &locals[t.0 as usize], &locals[x.0 as usize]);
            if t == x
                || reads[t.0 as usize] != 1
                || tmp.in_memory
                || dst.in_memory
                || tmp.ty != dst.ty
            {
                continue;
            }
            let Some((i, blocker)) = definition(block, &gone, j, t, x) else {
                continue;
            };
            let (line, prov) = (block[j].span.line, block[j].prov.clone());
            let what = format!("temporary '{}' into '{}'", tmp.name, dst.name);
            if let Some((at, how)) = blocker {
                let x = &dst.name;
                let why = format!("'{x}' is {how} at line {at}, between the two");
                let remark = Remark::missed(
                    "copyprop",
                    line,
                    prov,
                    format!("cannot coalesce {what}: {why}"),
                );
                let said = |r: &Remark| r.line == line && r.message == remark.message;
                if !remarks.iter().any(said) {
                    remarks.push(remark);
                }
                continue;
            }
            let message = format!("coalesced {what}");
            remarks.push(Remark::applied("copyprop", line, prov, message));
            let StmtKind::Assign { dst, .. } = &mut block[i].kind else {
                unreachable!("a definition is an assignment");
            };
            *dst = x;
            reads[t.0 as usize] = 0;
            gone.push(j);
            coalesced = true;
        }
        let mut index = 0;
        block.retain(|_| {
            index += 1;
            gone.binary_search(&(index - 1)).is_err()
        });
    });
    coalesced
}

/// Walks back from the copy `x = t` at `block[j]` to the assignment that
/// defines `t`, over straight-line statements only (a branch, a loop or an
/// exit may leave before the copy, so the write to `x` may not move above
/// one); `gone` are the statements already coalesced away. Returns the
/// definition's index and, if a statement in between mentions `x`, the line
/// of the nearest one and what it does to `x`.
fn definition(
    block: &[IrStmt],
    gone: &[usize],
    j: usize,
    t: LocalId,
    x: LocalId,
) -> Option<(usize, Option<(u32, &'static str)>)> {
    let mut blocker = None;
    for k in (0..j).rev().filter(|k| gone.binary_search(k).is_err()) {
        let s = &block[k];
        match &s.kind {
            StmtKind::Assign { dst, .. } if *dst == t => return Some((k, blocker)),
            StmtKind::Assign { dst, .. } if *dst == x => {
                blocker.get_or_insert((s.span.line, "written"));
            }
            StmtKind::Assign { .. }
            | StmtKind::Store { .. }
            | StmtKind::CopyMem { .. }
            | StmtKind::Expr(_)
            | StmtKind::ParallelFor { .. } => {}
            _ => return None,
        }
        let mut reads_x = false;
        s.operand_roots(&mut |e| reads_x |= expr_uses(e, x));
        if reads_x {
            blocker.get_or_insert((s.span.line, "read"));
        }
    }
    None
}

/// Forgets every fact involving `w`: its own mapping and any copy sourced
/// from it (whose cached value goes stale when `w` changes).
fn kill(map: &mut CopyMap, w: LocalId) {
    map[w.0 as usize] = None;
    for m in map.iter_mut() {
        if *m == Some(w) {
            *m = None;
        }
    }
}

fn kill_set(map: &mut CopyMap, writes: &LocalSet) {
    for (i, m) in map.iter_mut().enumerate() {
        let clobbered = writes.contains(LocalId(i as u32))
            || m.map(|src| writes.contains(src)).unwrap_or(false);
        if clobbered {
            *m = None;
        }
    }
}

/// Rewrites every `Local(l)` read in `e` through the map, counting rewrites.
fn replace_uses(e: &mut IrExpr, map: &CopyMap, forwarded: &mut usize) {
    if let ExprKind::Local(l) = e.kind {
        if let Some(src) = map[l.0 as usize] {
            e.kind = ExprKind::Local(src);
            *forwarded += 1;
        }
    }
    e.children_mut(&mut |c| replace_uses(c, map, forwarded));
}

fn intersect(a: CopyMap, b: &CopyMap) -> CopyMap {
    a.into_iter()
        .zip(b)
        .map(|(x, y)| if x == *y { x } else { None })
        .collect()
}

fn block(locals: &[LocalSlot], stmts: &mut [IrStmt], map: &mut CopyMap, forwarded: &mut usize) {
    for s in stmts {
        match &mut s.kind {
            StmtKind::Assign { dst, value } => {
                replace_uses(value, map, forwarded);
                let dst = *dst;
                kill(map, dst);
                if let ExprKind::Local(src) = value.kind {
                    let (d, s) = (&locals[dst.0 as usize], &locals[src.0 as usize]);
                    if src != dst && !d.in_memory && !s.in_memory && d.ty == s.ty {
                        map[dst.0 as usize] = Some(src);
                    }
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                replace_uses(cond, map, forwarded);
                let mut tmap = map.clone();
                block(locals, then_body, &mut tmap, forwarded);
                block(locals, else_body, map, forwarded);
                *map = intersect(tmap, map);
            }
            StmtKind::While { cond, body } => {
                let mut writes = LocalSet::new(locals.len());
                collect_assigned(body, &mut writes);
                kill_set(map, &writes);
                // The condition re-evaluates each iteration, so only facts
                // the body preserves may flow into it.
                replace_uses(cond, map, forwarded);
                let mut bmap = map.clone();
                block(locals, body, &mut bmap, forwarded);
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                // Bounds evaluate once on entry, before the loop clobbers
                // anything.
                replace_uses(start, map, forwarded);
                replace_uses(stop, map, forwarded);
                replace_uses(step, map, forwarded);
                let mut writes = LocalSet::new(locals.len());
                collect_assigned(body, &mut writes);
                writes.insert(*var);
                kill_set(map, &writes);
                let mut bmap = map.clone();
                block(locals, body, &mut bmap, forwarded);
            }
            // Everything else only reads its operands.
            _ => s.operand_roots_mut(&mut |e| replace_uses(e, map, forwarded)),
        }
    }
}
