//! Affine address splitting: puts the address of every load, store and
//! memory copy into a normal form that loop-invariant code motion can hoist
//! from.
//!
//! An address such as `A + (int64(i*N + k) << 3)` is one opaque sum to
//! `licm`: it varies with `k`, so all of it is recomputed in the `k` loop.
//! This pass flattens the sum into `base + Σ cᵢ·tᵢ + d` — a pointer, atoms
//! with constant 64-bit coefficients, a constant — and rebuilds it
//! left-nested, atoms ordered by the depth of the innermost enclosing loop
//! that assigns one of their locals, outermost first, constant last:
//!
//! ```text
//! ((A + (int64(i) << 10)) + (int64(k) << 3))
//! ```
//!
//! Every prefix is then invariant in each loop deeper than its last atom, so
//! `licm`'s maximal-invariant-subexpression rule lifts `A + (int64(i) << 10)`
//! out of the `j` and `k` loops without knowing anything about addresses,
//! and the bytecode compiler folds what is left — one index, one scale, one
//! displacement — into the memory instruction's operand.
//!
//! ## Why this is exact
//!
//! The address is computed in wrapping 64-bit arithmetic, a commutative
//! ring: sums may be reassociated and reordered, and a constant factor
//! distributed over them, without changing one bit of the result — so the
//! access traps exactly when it did and names the same address when it does.
//! Three kinds of node are looked through on the way down, each because the
//! register it leaves is a ring expression of its operands' registers:
//! 64-bit `add`, `sub`, `mul`/`shl` by a constant; an integer cast that
//! changes no bit of the canonical register ([`ScalarTy::widens_to`]); and
//! the same arithmetic on a *narrow* integer type, but only where `absint`
//! proves the result cannot leave the type — then the `trunc` that would
//! wrap it is the identity (the fact `checkelim` elides it on), and the
//! narrow node's register is the 64-bit sum of its operands' too. Anything
//! else is an atom, copied as it stands. `absint` is asked once, before the
//! rewrite, through [`absint::annotate`]; its proofs are positions in the
//! statements as they were, so they are read, used and dropped here. With
//! `elide_checks` off (`--no-checkelim`, `--sanitize`) it is not asked, and
//! only the 64-bit nodes are looked through.
//!
//! Atoms keep their order of evaluation where it can be observed: the base
//! comes first, as it did; atoms that are [stable](util::expr_is_stable)
//! (no load, call or possible trap) may move, the others stay behind them in
//! their original order. An address whose base is not stable is left alone —
//! no prefix of it could be hoisted — as is one the rewrite would not change.
//!
//! ## Where it runs
//!
//! After `fold` and `unroll`, so that the copies' constant offsets are
//! folded into the addresses they feed; before `licm`, which does the
//! hoisting; `-O2` only. `copyprop` runs after `licm`: a second slot before
//! `affine` saved one instruction of one benchmark workload.

use super::util::{collect_assigned, expr_is_stable, LocalSet};
use super::{PassConfig, Remark};
use crate::analysis::absint;
use crate::ir::{BinKind, ExprKind, IrExpr, IrFunction, IrStmt, LocalSlot, StmtKind};
use crate::types::{ScalarTy, Ty};

pub(crate) fn run(f: &mut IrFunction, cfg: &PassConfig, remarks: &mut Vec<Remark>) -> bool {
    let mut body = std::mem::take(&mut f.body);
    let proofs = cfg.elide_checks
        && wants_proofs(&body)
        && absint::annotate(f, &mut body, cfg.types, cfg.env, cfg.summaries, None);
    let mut pass = Affine {
        locals: &f.locals,
        loops: Vec::new(),
        proven: Vec::new(),
        rewritten: 0,
        remarks,
    };
    pass.block(&mut body);
    let changed = pass.rewritten > 0;
    if proofs {
        absint::clear_proofs(&mut body);
    }
    f.body = body;
    changed
}

/// Whether some address computes with narrow integers, the one thing the
/// abstract interpreter has to be asked about.
fn wants_proofs(stmts: &[IrStmt]) -> bool {
    use BinKind::{Add, Mul, Shl, Sub};
    let narrow_arithmetic = |e: &IrExpr| {
        matches!(&e.kind, ExprKind::Binary { op, .. } if matches!(op, Add | Sub | Mul | Shl))
            && matches!(e.ty, Ty::Scalar(s) if s.is_integer() && s.size() < 8)
    };
    let mut found = false;
    let mut address = |a: &IrExpr| found = found || a.any(&mut |e| narrow_arithmetic(e));
    IrStmt::walk(stmts, &mut |s| match &s.kind {
        StmtKind::Store { addr, .. } => address(addr),
        StmtKind::CopyMem { dst, src, .. } => {
            address(dst);
            address(src);
        }
        _ => {}
    });
    IrStmt::walk_exprs(stmts, &mut |e| {
        if let ExprKind::Load(addr) = &e.kind {
            address(addr);
        }
    });
    found
}

/// An address as `base + Σ coef·atom + disp`, all in wrapping 64-bit
/// arithmetic; an atom stands for its canonical register value.
struct Sum<'e> {
    base: &'e IrExpr,
    terms: Vec<(i64, &'e IrExpr)>,
    disp: i64,
}

struct Affine<'a> {
    locals: &'a [LocalSlot],
    /// What each enclosing loop assigns, outermost first.
    loops: Vec<LocalSet>,
    /// Nodes of the statement being rewritten whose wrap check `absint`
    /// proved redundant (by identity, sorted; never read through).
    proven: Vec<*const IrExpr>,
    rewritten: usize,
    remarks: &'a mut Vec<Remark>,
}

impl Affine<'_> {
    fn block(&mut self, stmts: &mut [IrStmt]) {
        for s in stmts {
            let writes =
                matches!(s.kind, StmtKind::While { .. } | StmtKind::For { .. }).then(|| {
                    let mut writes = LocalSet::new(self.locals.len());
                    collect_assigned(std::slice::from_ref(s), &mut writes);
                    writes
                });
            // A `while` evaluates its condition on every iteration, a `for`
            // its bounds once, in front of the loop.
            let inside = matches!(s.kind, StmtKind::While { .. });
            if !inside {
                self.operands(s);
            }
            let looped = writes.is_some();
            self.loops.extend(writes);
            if inside {
                self.operands(s);
            }
            for nested in s.blocks_mut() {
                self.block(nested);
            }
            if looped {
                self.loops.pop();
            }
        }
    }

    /// Rewrites the addresses among `s`'s own operands, innermost first: a
    /// node is looked at (and its proof looked up) before anything moves it.
    fn operands(&mut self, s: &mut IrStmt) {
        self.proven.clear();
        s.proven_nodes(&mut self.proven);
        let before = self.rewritten;
        s.operand_roots_mut(&mut |root| self.loads_in(root));
        match &mut s.kind {
            StmtKind::Store { addr, .. } => self.address(addr),
            StmtKind::CopyMem { dst, src, .. } => {
                self.address(dst);
                self.address(src);
            }
            _ => {}
        }
        if self.rewritten > before {
            let n = self.rewritten - before;
            let msg = format!("split {n} address(es) into base, loop-ordered terms and constant");
            let (line, prov) = (s.span.line, s.prov.clone());
            self.remarks
                .push(Remark::applied("affine", line, prov, msg));
        }
    }

    fn loads_in(&mut self, e: &mut IrExpr) {
        e.children_mut(&mut |c| self.loads_in(c));
        if let ExprKind::Load(addr) = &mut e.kind {
            self.address(addr);
        }
    }

    fn address(&mut self, addr: &mut IrExpr) {
        let Some(mut sum) = self.flatten(addr) else {
            return;
        };
        // Stable atoms by the loop that last changes them; the rest behind,
        // in the order they were evaluated in. (A handful of terms: a stable
        // insertion sort, where `sort_by_key` would instantiate 19 KB of
        // merge sort for this one call.)
        let mut keyed: Vec<_> = sum.terms.iter().map(|&t| (self.depth(t.1), t)).collect();
        for i in 1..keyed.len() {
            let mut j = i;
            while j > 0 && keyed[j - 1].0 > keyed[j].0 {
                keyed.swap(j - 1, j);
                j -= 1;
            }
        }
        sum.terms = keyed.into_iter().map(|(_, term)| term).collect();
        let rebuilt = rebuild(&sum, &addr.ty);
        if rebuilt != *addr {
            *addr = rebuilt;
            self.rewritten += 1;
        }
    }

    fn flatten<'e>(&self, addr: &'e IrExpr) -> Option<Sum<'e>> {
        let mut sum = Sum {
            base: addr,
            terms: Vec::new(),
            disp: 0,
        };
        self.pointer(addr, &mut sum);
        let affine = !std::ptr::eq(sum.base, addr)
            && expr_is_stable(sum.base, self.locals)
            && sum.terms.iter().all(|(coef, _)| *coef != 0);
        affine.then_some(sum)
    }

    /// The pointer side of a pointer-typed `+` is a pointer again, down to
    /// the base; what is added to it on the way up are the offsets.
    fn pointer<'e>(&self, e: &'e IrExpr, sum: &mut Sum<'e>) {
        match &e.kind {
            ExprKind::Binary {
                op: BinKind::Add,
                lhs,
                rhs,
            } if e.ty.is_pointer() => {
                self.pointer(lhs, sum);
                self.offset(rhs, 1, sum);
            }
            _ => sum.base = e,
        }
    }

    /// Adds `coef · e` to `sum`, where `e` is any integer-valued node.
    fn offset<'e>(&self, e: &'e IrExpr, coef: i64, sum: &mut Sum<'e>) {
        let Ty::Scalar(ty) = e.ty else {
            return sum.terms.push((coef, e));
        };
        if let Some(v) = e.int_value() {
            sum.disp = sum.disp.wrapping_add(coef.wrapping_mul(v));
            return;
        }
        match &e.kind {
            // A cast that changes no bit of the register.
            ExprKind::Cast(inner)
                if ty.is_integer()
                    && matches!(inner.ty, Ty::Scalar(from)
                        if from.is_integer() && from.widens_to(ty)) =>
            {
                self.offset(inner, coef, sum)
            }
            ExprKind::Binary { op, lhs, rhs } if ty.is_integer() && self.exact(e, ty) => {
                match (op, lhs.int_value(), rhs.int_value()) {
                    (BinKind::Add, ..) => {
                        self.offset(lhs, coef, sum);
                        self.offset(rhs, coef, sum);
                    }
                    (BinKind::Sub, ..) => {
                        self.offset(lhs, coef, sum);
                        self.offset(rhs, coef.wrapping_neg(), sum);
                    }
                    (BinKind::Mul, _, Some(c)) => self.offset(lhs, coef.wrapping_mul(c), sum),
                    (BinKind::Mul, Some(c), _) => self.offset(rhs, coef.wrapping_mul(c), sum),
                    (BinKind::Shl, _, Some(k)) if (0..64).contains(&k) => {
                        self.offset(lhs, coef.wrapping_mul(1i64.wrapping_shl(k as u32)), sum)
                    }
                    _ => sum.terms.push((coef, e)),
                }
            }
            _ => sum.terms.push((coef, e)),
        }
    }

    /// Whether the register `e` leaves is the 64-bit result of its operator
    /// on its operands' registers: a 64-bit node, or a narrow one proven not
    /// to leave its type.
    fn exact(&self, e: &IrExpr, ty: ScalarTy) -> bool {
        ty.size() == 8 || self.proven.binary_search(&(e as *const IrExpr)).is_ok()
    }

    /// The depth of the innermost enclosing loop that assigns a local of
    /// stable `atom` (0: none does); `usize::MAX` for an atom that must
    /// stay where it is.
    fn depth(&self, atom: &IrExpr) -> usize {
        if !expr_is_stable(atom, self.locals) {
            return usize::MAX;
        }
        let mut depth = 0;
        atom.walk(&mut |e| {
            if let ExprKind::Local(l) = e.kind {
                let assigned_in = self.loops.iter().rposition(|w| w.contains(l));
                depth = depth.max(assigned_in.map_or(0, |i| i + 1));
            }
        });
        depth
    }
}

/// `((base + t₁) + t₂ …) + disp`, each sum typed like the address. A term is
/// its atom as an `int64`, shifted for a power-of-two coefficient (the
/// spelling `fold` leaves) and multiplied for any other.
fn rebuild(sum: &Sum, ty: &Ty) -> IrExpr {
    // The sum takes the address's type, not its base's.
    let add = |lhs, rhs| {
        let kind = ExprKind::Binary {
            op: BinKind::Add,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        IrExpr::new(ty.clone(), kind)
    };
    let mut addr = sum.base.clone();
    for &(coef, atom) in &sum.terms {
        let wide = match atom.ty {
            Ty::Scalar(ScalarTy::I64) => atom.clone(),
            _ => IrExpr::cast(Ty::I64, atom.clone()),
        };
        let term = match coef {
            1 => wide,
            c if c > 1 && c.count_ones() == 1 => {
                IrExpr::binary(BinKind::Shl, wide, IrExpr::int64(c.trailing_zeros().into()))
            }
            c => IrExpr::binary(BinKind::Mul, wide, IrExpr::int64(c)),
        };
        addr = add(addr, term);
    }
    if sum.disp != 0 {
        addr = add(addr, IrExpr::int64(sum.disp));
    }
    addr
}
