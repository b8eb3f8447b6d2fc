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

use super::util::{collect_assigned, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, LocalSlot, StmtKind};

type CopyMap = Vec<Option<LocalId>>;

/// Propagates register-to-register copies through the function body;
/// returns whether any read was forwarded.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let IrFunction { locals, body, .. } = f;
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
    forwarded > 0
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
