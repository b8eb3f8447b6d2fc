//! Full unrolling of `for` loops whose bounds are stage-time constants.
//!
//! A generator that splices its constants into loop bounds — a 3×3
//! stencil's `for dy = -1, 2` — leaves a loop whose trip count was known at
//! stage 0, yet each trip pays the counter's update, compare and branch.
//! This pass replaces such a loop by one copy of its body per iterate, the
//! variable replaced by its value and the copy folded, so later passes see
//! straight-line code with constant offsets (`affine` makes them load
//! displacements). The copies are the body's own statements, lines and
//! staging chains, in iteration order: every effect and trap happens in the
//! same order and at the same `Site` as in the loop.
//!
//! A loop is unrolled when its start, stop and step are integer constants,
//! the step positive; the value that ends it fits the variable's type (and
//! for `uint64` stays below 2⁶³, where the unsigned compare and the signed
//! reading of the bits agree: a range across 2⁶³ stays a loop); its body
//! does not assign the variable and holds no `break` of its own and no
//! `parallelfor` (a parallel site is keyed by its position); and
//! `(trips − 1) × body nodes` ≤ [`MAX_UNROLL_GROWTH`]. Blocks are visited
//! innermost first, so a nest whose inner loops fit is then measured, and
//! unrolled, as a whole. A loop left rolled gets a `missed` remark naming
//! the rule that kept it.

use super::fold::fold_stmts;
use super::util::{
    block_nodes, collect_assigned, count_reads, has_toplevel_break, live_in, renumber_locals,
    LocalSet,
};
use super::Remark;
use crate::analysis::range::Interval;
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, LocalSlot, StmtKind};
use crate::types::{ScalarTy, Ty};

/// Upper bound on the IR nodes unrolling one loop may add to its function.
pub const MAX_UNROLL_GROWTH: usize = 256;

/// Unrolls every admissible loop; returns whether it rewrote anything.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let IrFunction { locals, body, .. } = f;
    let mut changed = false;
    // How often the function reads each local, kept exact as loops go.
    let mut reads = Vec::new();
    count_reads(body, &mut reads, 1);
    IrStmt::each_block_mut(body, &mut |block| {
        if !block.iter().any(|s| matches!(s.kind, StmtKind::For { .. })) {
            return;
        }
        // The block is rebuilt once, whatever number of loops it unrolls.
        let mut out = Vec::with_capacity(block.len());
        for s in std::mem::take(block) {
            let StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } = &s.kind
            else {
                out.push(s);
                continue;
            };
            let plan = match admit(locals, *var, [start, stop, step], body) {
                Ok(plan) => plan,
                Err(why) => {
                    let message = format!("loop not unrolled: {why}");
                    remarks.push(Remark::missed(
                        "unroll",
                        s.span.line,
                        s.prov.clone(),
                        message,
                    ));
                    out.push(s);
                    continue;
                }
            };
            // Only a second copy renumbers, so a loop of ≤ 1 trip needs no
            // private locals.
            let private = match plan.trips {
                ..=1 => Vec::new(),
                _ => private_locals(locals, &reads, body),
            };
            count_reads(std::slice::from_ref(&s), &mut reads, -1);
            let StmtKind::For { body, .. } = s.kind else {
                unreachable!("matched above")
            };
            let mut unrolled = copies(locals, &private, body, &plan);
            fold_stmts(&mut unrolled, &mut 0, remarks);
            count_reads(&unrolled, &mut reads, 1);
            let message = match plan.trips {
                0 => "deleted a loop of 0 trips".to_string(),
                1 => "replaced a loop of 1 trip by its body".to_string(),
                n => format!("unrolled {n} trips (+{} IR nodes)", plan.growth),
            };
            remarks.push(Remark::applied("unroll", s.span.line, s.prov, message));
            out.extend(unrolled);
            changed = true;
        }
        *block = out;
    });
    changed
}

/// How an admitted loop over `var` unrolls: `trips` iterates `first +
/// k·step`, adding `growth` IR nodes.
struct Plan {
    var: LocalId,
    first: i128,
    step: i128,
    trips: i128,
    growth: i128,
}

/// The locals of a loop `body` that hold nothing from one iteration to the
/// next or after the last: those only the body reads, and no iteration
/// before writing them. `reads` counts the whole function's reads.
fn private_locals(locals: &[LocalSlot], reads: &[i32], body: &[IrStmt]) -> Vec<LocalId> {
    let n = locals.len();
    let entry = live_in(body, LocalSet::new(n), n, false, &mut |_, _, _, _| false);
    let mut own = Vec::new();
    count_reads(body, &mut own, 1);
    (0..own.len())
        .map(|i| LocalId(i as u32))
        .filter(|&l| {
            let i = l.0 as usize;
            own[i] > 0 && reads[i] == own[i] && !locals[i].in_memory && !entry.contains(l)
        })
        .collect()
}

/// The copies of the `body` of a loop `p` admits, its variable replaced in
/// each by its iterate; the last copy is `body` itself. After the first,
/// each copy gets a slot of its own for every `private` local, so a
/// temporary stays single-use (what `copyprop` coalesces).
fn copies(
    locals: &mut Vec<LocalSlot>,
    private: &[LocalId],
    body: Vec<IrStmt>,
    p: &Plan,
) -> Vec<IrStmt> {
    let (mut out, mut last) = (Vec::new(), body);
    for k in 0..p.trips {
        let value = IrExpr::new(
            locals[p.var.0 as usize].ty.clone(),
            ExprKind::ConstInt((p.first + k * p.step) as i64),
        );
        let mut copy = if k + 1 < p.trips {
            last.clone()
        } else {
            std::mem::take(&mut last)
        };
        IrStmt::walk_exprs_mut(&mut copy, &mut |e| {
            if matches!(e.kind, ExprKind::Local(l) if l == p.var) {
                *e = value.clone();
            }
        });
        if k > 0 {
            let base = locals.len() as u32;
            for l in private {
                locals.push(locals[l.0 as usize].clone());
            }
            renumber_locals(&mut copy, &|l| match private.iter().position(|&p| p == l) {
                Some(j) => LocalId(base + j as u32),
                None => l,
            });
        }
        out.extend(copy);
    }
    out
}

/// How the loop over `var` with `bounds` (start, stop, step) and `body`
/// unrolls, or why it stays a loop.
fn admit(
    locals: &[LocalSlot],
    var: LocalId,
    bounds: [&IrExpr; 3],
    body: &[IrStmt],
) -> Result<Plan, String> {
    let ty = &locals[var.0 as usize].ty;
    let Ty::Scalar(s) = *ty else {
        return Err("the loop variable is not an integer".to_string());
    };
    let value = |e: &IrExpr| {
        e.int_value().map(|v| match s {
            ScalarTy::U64 => v as u64 as i128,
            _ => v as i128,
        })
    };
    let [Some(first), Some(stop), Some(step)] = bounds.map(value) else {
        return Err("its bounds are not stage-time constants".to_string());
    };
    if step <= 0 {
        return Err(format!("its step {step} is not positive"));
    }
    let mut assigned = LocalSet::default();
    collect_assigned(body, &mut assigned);
    if assigned.contains(var) {
        return Err("its body assigns the loop variable".to_string());
    }
    if has_toplevel_break(body) {
        return Err("its body breaks out of it".to_string());
    }
    if IrStmt::any(body, &mut |s| {
        matches!(s.kind, StmtKind::ParallelFor { .. })
    }) {
        return Err("its body contains a parallelfor".to_string());
    }
    let trips = ((stop - first + step - 1) / step).max(0);
    let exit = first + trips * step;
    if trips > 0 && exit > Interval::full_for(s).hi.min(i64::MAX as i128) {
        return Err(format!("its counter would reach {exit}, outside `{ty}`"));
    }
    let nodes = block_nodes(body) as i128;
    let growth = (trips - 1).max(0).saturating_mul(nodes);
    if growth > MAX_UNROLL_GROWTH as i128 {
        return Err(format!(
            "{trips} trips of {nodes} IR nodes would add {growth} > {MAX_UNROLL_GROWTH}"
        ));
    }
    Ok(Plan {
        var,
        first,
        step,
        trips,
        growth,
    })
}
