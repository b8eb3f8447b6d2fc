//! Loop-invariant code motion for address arithmetic and other pure
//! computation.
//!
//! Staged kernels are dense with per-iteration address math whose inputs
//! never change inside the loop — `i * lda * 8` style products of spliced
//! constants and loop-invariant strides. This pass walks loops innermost
//! first; for each loop it computes the set of register locals the body (or
//! loop header) reassigns and then hoists every *maximal* invariant compound
//! subexpression into a fresh temporary assigned immediately before the
//! loop. Equal subtrees share one temporary.
//!
//! Hoistable expressions are [stable](super::util::expr_is_stable) — no
//! loads, calls, possible traps, or `in_memory` reads — so executing one
//! even when the loop would run zero times is unobservable. Hoisting out of
//! a conditional inside the loop is safe for the same reason. Temporaries
//! cascade: an inner loop's hoisted assignment is itself a candidate when
//! the enclosing loop is processed, so deeply nested address math migrates
//! all the way out in a single pass.

use super::util::{collect_assigned, is_compound, node_is_stable, LocalSet};
use super::Remark;
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, StmtKind};
use terra_syntax::{Provenance, Span};

/// The source line and staging chain of a statement, where a remark about
/// code hoisted out of it anchors.
type Site = (u32, Option<Provenance>);

/// A hoisted computation, the temporary that holds it, and the site of the
/// first statement it was hoisted out of.
type Hoist = (IrExpr, LocalId, Site);

/// Hoists loop-invariant computation out of every loop in the function;
/// returns whether anything was hoisted.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let mut body = std::mem::take(&mut f.body);
    let mut licm = Licm {
        f,
        counter: 0,
        remarks,
    };
    licm.block(&mut body);
    let hoisted = licm.counter > 0;
    f.body = body;
    hoisted
}

struct Licm<'a> {
    f: &'a mut IrFunction,
    counter: usize,
    remarks: &'a mut Vec<Remark>,
}

impl Licm<'_> {
    fn block(&mut self, stmts: &mut Vec<IrStmt>) {
        let mut i = 0;
        while i < stmts.len() {
            for nested in stmts[i].blocks_mut() {
                self.block(nested);
            }
            if matches!(stmts[i].kind, StmtKind::While { .. } | StmtKind::For { .. }) {
                let hoists = self.hoist_loop(&mut stmts[i]);
                let n = hoists.len();
                for (k, h) in hoists.into_iter().enumerate() {
                    stmts.insert(i + k, h);
                }
                i += n;
            }
            i += 1;
        }
    }

    /// Hoists from one loop statement, returning the prelude assignments to
    /// insert before it.
    fn hoist_loop(&mut self, s: &mut IrStmt) -> Vec<IrStmt> {
        let mut writes = LocalSet::new(self.f.locals.len());
        match &s.kind {
            StmtKind::While { body, .. } => collect_assigned(body, &mut writes),
            StmtKind::For { var, body, .. } => {
                writes.insert(*var);
                collect_assigned(body, &mut writes);
            }
            _ => unreachable!("hoist_loop called on a non-loop"),
        }
        let mut hoisted: Vec<Hoist> = Vec::new();
        let at_loop: Site = (s.span.line, s.prov.clone());
        match &mut s.kind {
            StmtKind::While { cond, body } => {
                // The condition re-evaluates every iteration: its invariant
                // parts are worth hoisting too.
                self.scan_expr(cond, &writes, &at_loop, &mut hoisted);
                self.scan_block(body, &writes, &at_loop, &mut hoisted);
            }
            StmtKind::For { body, .. } => {
                // start/stop/step evaluate once already; only the body pays
                // per iteration.
                self.scan_block(body, &writes, &at_loop, &mut hoisted);
            }
            _ => unreachable!(),
        }
        hoisted
            .into_iter()
            .map(|(value, dst, (line, prov))| {
                let name = &self.f.locals[dst.0 as usize].name;
                self.remarks.push(Remark::applied(
                    "licm",
                    line,
                    prov,
                    format!("hoisted loop-invariant expression into '{name}'"),
                ));
                let mut prelude =
                    IrStmt::synthesized(Span::synthetic(), StmtKind::Assign { dst, value });
                // The hoisted computation came out of this loop; it keeps
                // the loop statement's staging chain.
                prelude.prov = s.prov.clone();
                prelude
            })
            .collect()
    }

    /// Scans every statement of `stmts`; a statement the compiler made (a
    /// nested loop's hoisted assignment, on line 0) is attributed to the
    /// loop, `at_loop`.
    fn scan_block(
        &mut self,
        stmts: &mut [IrStmt],
        writes: &LocalSet,
        at_loop: &Site,
        out: &mut Vec<Hoist>,
    ) {
        // `writes` covers the whole outer body, nested loops included, so
        // invariance is still sound inside them.
        IrStmt::walk_mut(stmts, &mut |s| {
            let site = match s.span.line {
                0 => at_loop.clone(),
                line => (line, s.prov.clone()),
            };
            s.operand_roots_mut(&mut |e| self.scan_expr(e, writes, &site, out))
        });
    }

    /// Replaces maximal invariant compound subtrees of `e`, an operand of
    /// the statement at `site`, with temporary reads, recording the hoisted
    /// computations in `out`.
    fn scan_expr(&mut self, e: &mut IrExpr, writes: &LocalSet, site: &Site, out: &mut Vec<Hoist>) {
        if self.hoistable(e, writes) {
            let dst = match out.iter().find(|(known, ..)| known == e) {
                Some((_, l, _)) => *l,
                None => {
                    let name = format!("$licm{}", self.counter);
                    self.counter += 1;
                    let l = self.f.add_local(name, e.ty.clone(), false);
                    out.push((e.clone(), l, site.clone()));
                    l
                }
            };
            e.kind = ExprKind::Local(dst);
            return;
        }
        e.children_mut(&mut |c| self.scan_expr(c, writes, site, out));
    }

    /// A hoist candidate is a compound register-valued expression every node
    /// of which is stable and reads no local the loop writes.
    fn hoistable(&self, e: &IrExpr, writes: &LocalSet) -> bool {
        is_compound(e)
            && e.ty.is_register()
            && !e.any(&mut |n| {
                !node_is_stable(n, Some(&self.f.locals))
                    || matches!(n.kind, ExprKind::Local(l) if writes.contains(l))
            })
    }
}
