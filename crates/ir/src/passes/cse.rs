//! Common-subexpression elimination over stable values.
//!
//! A forward walk carries a table of *available expressions*: pairs of a
//! previously computed expression and the register local that still holds
//! its value. Any structurally identical subexpression seen later is
//! replaced by a read of that local.
//!
//! Only [stable](super::util::expr_is_stable) expressions participate — no
//! loads, calls, possible traps, or reads of `in_memory` locals — so an
//! entry's value can't change behind the table's back through memory; it
//! only dies when a local it mentions (or the holding local) is reassigned.
//! Branch arms extend private copies of the table; after the branch,
//! entries clobbered by either arm are dropped. Loop bodies start from a
//! table purged of everything the body reassigns.

use super::util::{collect_assigned, expr_is_stable, expr_uses, is_compound, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, LocalSlot, StmtKind};
use terra_syntax::Provenance;

type Avail = Vec<(IrExpr, LocalId)>;

/// Eliminates recomputation of stable expressions within the function;
/// returns whether any was replaced (each replacement leaves a remark).
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let IrFunction { locals, body, .. } = f;
    let mut avail: Avail = Vec::new();
    let before = remarks.len();
    block(locals, body, &mut avail, remarks);
    remarks.len() > before
}

/// Where replacements currently land, for remark attribution: the enclosing
/// statement's source line and staging chain.
struct Site {
    line: u32,
    prov: Option<Provenance>,
}

/// Whether `e` is worth tracking: a stable compound computation.
fn eligible(e: &IrExpr, locals: &[LocalSlot]) -> bool {
    is_compound(e) && expr_is_stable(e, locals)
}

/// Replaces available subexpressions in `e`, outermost match first.
fn replace(
    e: &mut IrExpr,
    avail: &Avail,
    locals: &[LocalSlot],
    site: &Site,
    remarks: &mut Vec<Remark>,
) {
    if eligible(e, locals) {
        if let Some((_, holder)) = avail.iter().find(|(known, _)| known == e) {
            remarks.push(Remark::applied(
                "cse",
                site.line,
                site.prov.clone(),
                format!(
                    "reused previously computed value held in '{}'",
                    locals[holder.0 as usize].name
                ),
            ));
            e.kind = ExprKind::Local(*holder);
            return;
        }
    }
    e.children_mut(&mut |c| replace(c, avail, locals, site, remarks));
}

/// Whether `e` mentions any local in `writes`.
fn mentions(e: &IrExpr, writes: &LocalSet) -> bool {
    e.any(&mut |n| match n.kind {
        ExprKind::Local(l) | ExprKind::LocalAddr(l) => writes.contains(l),
        _ => false,
    })
}

/// Drops entries held by or mentioning `w`.
fn kill(avail: &mut Avail, w: LocalId) {
    avail.retain(|(e, holder)| *holder != w && !expr_uses(e, w));
}

fn kill_set(avail: &mut Avail, writes: &LocalSet) {
    avail.retain(|(e, holder)| !writes.contains(*holder) && !mentions(e, writes));
}

fn block(locals: &[LocalSlot], stmts: &mut [IrStmt], avail: &mut Avail, remarks: &mut Vec<Remark>) {
    for s in stmts {
        let site = Site {
            line: s.span.line,
            prov: s.prov.clone(),
        };
        match &mut s.kind {
            StmtKind::Assign { dst, value } => {
                replace(value, avail, locals, &site, remarks);
                let dst = *dst;
                kill(avail, dst);
                // `value` read the *pre-assignment* dst, so a self-referential
                // assign (`x = x + 1`) must not advertise `x + 1` as held by
                // the post-assignment x.
                if eligible(value, locals)
                    && !expr_uses(value, dst)
                    && !locals[dst.0 as usize].in_memory
                    && locals[dst.0 as usize].ty == value.ty
                {
                    avail.push((value.clone(), dst));
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                replace(cond, avail, locals, &site, remarks);
                let mut writes = LocalSet::new(locals.len());
                collect_assigned(then_body, &mut writes);
                collect_assigned(else_body, &mut writes);
                let mut tavail = avail.clone();
                block(locals, then_body, &mut tavail, remarks);
                let mut eavail = avail.clone();
                block(locals, else_body, &mut eavail, remarks);
                kill_set(avail, &writes);
            }
            StmtKind::While { cond, body } => {
                let mut writes = LocalSet::new(locals.len());
                collect_assigned(body, &mut writes);
                kill_set(avail, &writes);
                replace(cond, avail, locals, &site, remarks);
                let mut bavail = avail.clone();
                block(locals, body, &mut bavail, remarks);
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                replace(start, avail, locals, &site, remarks);
                replace(stop, avail, locals, &site, remarks);
                replace(step, avail, locals, &site, remarks);
                let mut writes = LocalSet::new(locals.len());
                collect_assigned(body, &mut writes);
                writes.insert(*var);
                kill_set(avail, &writes);
                let mut bavail = avail.clone();
                block(locals, body, &mut bavail, remarks);
            }
            // Everything else only reads its operands. Stores among them
            // invalidate nothing: table entries never depend on memory.
            _ => s.operand_roots_mut(&mut |e| replace(e, avail, locals, &site, remarks)),
        }
    }
}
