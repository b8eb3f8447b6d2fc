//! Dataflow analyses over the structured statement tree.
//!
//! Three passes, all warning-only. They read the facts the optimizer reads —
//! local sets, uses, termination, liveness — where it keeps them
//! (`passes::util`); only the possible-init rules are this module's own.
//!
//! * **Use before initialization** — a forward *possible-init* walk. A local
//!   counts as initialized once any explicit write to it exists on *some*
//!   path (assignments, stores through its address, or its address escaping
//!   into a call). Compiler-synthesized zero-initialization (`implicit`
//!   statements) deliberately does not count: the VM zeroes every `var`, so
//!   reading one the programmer never wrote is well-defined but almost
//!   certainly a bug. Using possible- rather than definite-init keeps the
//!   pass free of false positives on loop-carried patterns (`for i ... a[i]
//!   = f(i)` then reading `a` after the loop).
//! * **Dead stores** — the backward liveness walk `dce` deletes dead stores
//!   with ([`live_in`]), here only looking: an explicit assignment whose
//!   value is never read afterwards and makes no call is flagged, and stays
//!   a reader of its operands.
//! * **Reachability** — statements after a `return`/`break`, after an `if`
//!   whose branches both terminate, or after a `while true` with no `break`
//!   are unreachable; a non-unit function whose body can fall through the
//!   end is missing a return.

use super::{diag, Diagnostic, Severity};
use crate::ir::{ExprKind, IrExpr, IrFunction, IrStmt, LocalId, StmtKind};
use crate::passes::util::{collect_assigned, expr_has_call, live_in, stmt_terminates, LocalSet};
use crate::types::Ty;
use terra_syntax::Span;

pub(super) fn run(f: &IrFunction, diags: &mut Vec<Diagnostic>) {
    init_pass(f, diags);
    liveness_pass(f, diags);
}

// ---------------------------------------------------------------------------
// Forward pass: possible-init + reachability.
// ---------------------------------------------------------------------------

struct InitWalk<'a> {
    f: &'a IrFunction,
    diags: &'a mut Vec<Diagnostic>,
    init: LocalSet,
    /// Locals already warned about (one finding per local).
    reported: LocalSet,
    span: Span,
}

fn init_pass(f: &IrFunction, diags: &mut Vec<Diagnostic>) {
    let n = f.locals.len();
    let mut init = LocalSet::new(n);
    for i in 0..f.param_count() {
        init.insert(LocalId(i as u32));
    }
    let mut w = InitWalk {
        f,
        diags,
        init,
        reported: LocalSet::new(n),
        span: Span::synthetic(),
    };
    let falls_through = w.block(&f.body);
    if falls_through && f.ty.ret != Ty::Unit {
        let span = f
            .body
            .last()
            .map(|s| s.span)
            .unwrap_or_else(Span::synthetic);
        w.diags.push(diag(
            f,
            Severity::Warning,
            "missing-return",
            span,
            format!(
                "function returns {} but control can reach the end of its body",
                f.ty.ret
            ),
        ));
    }
}

impl InitWalk<'_> {
    /// Walks a block, applying init effects and reporting reads of
    /// never-written locals. Returns whether control can fall through the
    /// end of the block.
    fn block(&mut self, stmts: &[IrStmt]) -> bool {
        let mut reachable = true;
        let mut warned_unreachable = false;
        for s in stmts {
            if !reachable && !s.implicit && !warned_unreachable {
                self.diags.push(diag(
                    self.f,
                    Severity::Warning,
                    "unreachable-code",
                    s.span,
                    "unreachable code".to_string(),
                ));
                warned_unreachable = true;
            }
            if self.stmt(s) == Flow::Stops {
                reachable = false;
            }
        }
        reachable
    }

    fn stmt(&mut self, s: &IrStmt) -> Flow {
        self.span = s.span;
        if s.implicit {
            // Synthesized zero-init and defer expansion: no user-visible
            // reads or writes.
            return Flow::Continues;
        }
        match &s.kind {
            StmtKind::Assign { dst, value } => {
                self.value(value);
                self.init.insert(*dst);
            }
            StmtKind::Store { addr, value } => {
                self.value(value);
                self.addr(addr, false);
            }
            StmtKind::CopyMem { dst, src, .. } => {
                self.addr(src, true);
                self.addr(dst, false);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.value(cond);
                let entry = self.init.clone();
                let t = self.block(then_body);
                let then_exit = std::mem::replace(&mut self.init, entry);
                let e = self.block(else_body);
                // Possible-init: a write on either path counts.
                self.init.union(&then_exit);
                if !t && !e {
                    return Flow::Stops;
                }
            }
            StmtKind::While { cond, body } => {
                self.back_edge(body);
                self.value(cond);
                self.block(body);
                if stmt_terminates(s) {
                    return Flow::Stops;
                }
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                self.value(start);
                self.value(stop);
                self.value(step);
                self.init.insert(*var);
                self.back_edge(body);
                self.block(body);
            }
            StmtKind::Return(_) | StmtKind::Break => {
                s.operand_roots(&mut |e| self.value(e));
                return Flow::Stops;
            }
            // A `parallelfor`'s body is a separate function; only its
            // operands are evaluated in this frame, and captured addresses
            // escape via `value`'s LocalAddr rule.
            StmtKind::Expr(_) | StmtKind::ParallelFor { .. } => {
                s.operand_roots(&mut |e| self.value(e))
            }
        }
        Flow::Continues
    }

    /// Simulates a loop's back edge for possible-init: anything `body` could
    /// write anywhere — register assignments, and locals whose address it
    /// takes (a store or copy through it, or an escape into a call) — may
    /// be initialized by the time any statement in it executes again.
    fn back_edge(&mut self, body: &[IrStmt]) {
        collect_assigned(body, &mut self.init);
        IrStmt::walk_exprs(body, &mut |e| {
            if let ExprKind::LocalAddr(l) = e.kind {
                self.init.insert(l);
            }
        });
    }

    /// Visits an expression evaluated for its value.
    fn value(&mut self, e: &IrExpr) {
        match &e.kind {
            ExprKind::Local(l) => self.read(*l),
            // A bare address flowing into a value position (usually a call
            // argument) escapes: assume the callee initializes it.
            ExprKind::LocalAddr(l) => self.init.insert(*l),
            ExprKind::Load(a) => self.addr(a, true),
            _ => e.children(&mut |c| self.value(c)),
        }
    }

    /// Visits an address expression: peels constant/variable offsets down to
    /// a `LocalAddr` base, treating the access as a read or write of that
    /// local. Offset subexpressions are ordinary value reads.
    fn addr(&mut self, a: &IrExpr, is_read: bool) {
        match &a.kind {
            ExprKind::LocalAddr(l) => {
                if is_read {
                    self.read(*l);
                } else {
                    self.init.insert(*l);
                }
            }
            ExprKind::Binary { lhs, rhs, .. } if a.ty.is_pointer() => {
                self.addr(lhs, is_read);
                self.value(rhs);
            }
            ExprKind::Cast(inner) => self.addr(inner, is_read),
            _ => self.value(a),
        }
    }

    fn read(&mut self, l: LocalId) {
        if !self.init.contains(l) && !self.reported.contains(l) {
            self.reported.insert(l);
            let name = &self.f.locals[l.0 as usize].name;
            self.diags.push(diag(
                self.f,
                Severity::Warning,
                "use-before-init",
                self.span,
                format!("variable '{name}' is read but never initialized before this point"),
            ));
        }
    }
}

#[derive(PartialEq)]
enum Flow {
    Continues,
    Stops,
}

// ---------------------------------------------------------------------------
// Backward pass: liveness + dead stores.
// ---------------------------------------------------------------------------

fn liveness_pass(f: &IrFunction, diags: &mut Vec<Diagnostic>) {
    let n = f.locals.len();
    live_in(
        &f.body,
        LocalSet::new(n),
        n,
        true,
        &mut |s, dst, value, settled| {
            // Silent while a loop is iterated to its fixpoint; compiler-made
            // writes are nobody's mistake, and a call is worth its effects.
            if settled && !s.implicit && !expr_has_call(value) {
                let name = &f.locals[dst.0 as usize].name;
                diags.push(diag(
                    f,
                    Severity::Warning,
                    "dead-store",
                    s.span,
                    format!("value assigned to '{name}' is never read"),
                ));
            }
            // A lint deletes nothing: the assignment stays, and reads.
            false
        },
    );
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_function, NoEnv};
    use crate::ir::{CmpKind, IrExpr, IrFunction, IrStmt, StmtKind};
    use crate::types::{FuncTy, Ty};

    fn int_fn(name: &str) -> IrFunction {
        IrFunction {
            name: name.into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        }
    }

    fn codes(f: &IrFunction) -> Vec<&'static str> {
        analyze_function(f, None, &NoEnv)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn flags_use_before_init() {
        let mut f = int_fn("ubi");
        let x = f.add_local("x", Ty::INT, false);
        // var x : int  (implicit zero-init)  ;  return x
        f.body = vec![
            IrStmt::synthesized(
                terra_syntax::Span::synthetic(),
                StmtKind::Assign {
                    dst: x,
                    value: IrExpr::int32(0),
                },
            ),
            StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into(),
        ];
        assert!(codes(&f).contains(&"use-before-init"), "{:?}", codes(&f));
    }

    #[test]
    fn initialized_variable_is_clean() {
        let mut f = int_fn("ok");
        let x = f.add_local("x", Ty::INT, false);
        f.body = vec![
            StmtKind::Assign {
                dst: x,
                value: IrExpr::int32(7),
            }
            .into(),
            StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into(),
        ];
        assert!(codes(&f).is_empty(), "{:?}", codes(&f));
    }

    #[test]
    fn loop_body_writes_count_as_init() {
        let mut f = int_fn("loop_init");
        let x = f.add_local("x", Ty::INT, false);
        let i = f.add_local("i", Ty::INT, false);
        f.body = vec![
            StmtKind::For {
                var: i,
                start: IrExpr::int32(0),
                stop: IrExpr::int32(4),
                step: IrExpr::int32(1),
                body: vec![StmtKind::Assign {
                    dst: x,
                    value: IrExpr::local(i, Ty::INT),
                }
                .into()],
            }
            .into(),
            StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into(),
        ];
        assert!(!codes(&f).contains(&"use-before-init"), "{:?}", codes(&f));
    }

    #[test]
    fn flags_dead_store() {
        let mut f = int_fn("ds");
        let x = f.add_local("x", Ty::INT, false);
        f.body = vec![
            StmtKind::Assign {
                dst: x,
                value: IrExpr::int32(1),
            }
            .into(),
            StmtKind::Assign {
                dst: x,
                value: IrExpr::int32(2),
            }
            .into(),
            StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into(),
        ];
        assert_eq!(codes(&f), vec!["dead-store"]);
    }

    #[test]
    fn flags_unreachable_code() {
        let mut f = int_fn("unreach");
        f.body = vec![
            StmtKind::Return(Some(IrExpr::int32(1))).into(),
            StmtKind::Return(Some(IrExpr::int32(2))).into(),
        ];
        assert_eq!(codes(&f), vec!["unreachable-code"]);
    }

    #[test]
    fn flags_missing_return() {
        let mut f = int_fn("noreturn");
        let x = f.add_local("x", Ty::INT, false);
        f.body = vec![StmtKind::If {
            cond: IrExpr::cmp(CmpKind::Gt, IrExpr::int32(1), IrExpr::int32(0)),
            then_body: vec![StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into()],
            else_body: vec![],
        }
        .into()];
        // x is also read before init in the then-arm.
        let c = codes(&f);
        assert!(c.contains(&"missing-return"), "{c:?}");
    }

    #[test]
    fn infinite_loop_satisfies_return() {
        let mut f = int_fn("spin");
        f.body = vec![StmtKind::While {
            cond: IrExpr::boolean(true),
            body: vec![],
        }
        .into()];
        assert!(!codes(&f).contains(&"missing-return"), "{:?}", codes(&f));
    }

    // -- The local-id bitset both walks stand on ----------------------------

    use crate::ir::LocalId;
    use crate::passes::util::LocalSet;

    #[test]
    fn bitset_insert_remove_round_trip_at_word_boundaries() {
        // 63/64/65 exercise the last-bit-of-a-word, exact-multiple, and
        // one-past-a-word-boundary layouts.
        for n in [1usize, 63, 64, 65, 130] {
            let mut s = LocalSet::new(n);
            for i in 0..n {
                assert!(!s.contains(LocalId(i as u32)), "n={n} fresh bit {i} set");
                s.insert(LocalId(i as u32));
                assert!(s.contains(LocalId(i as u32)), "n={n} bit {i} lost");
            }
            for i in 0..n {
                s.remove(LocalId(i as u32));
                assert!(!s.contains(LocalId(i as u32)), "n={n} bit {i} survived");
            }
        }
    }

    #[test]
    fn bitset_full_holds_exactly_the_first_n_ids() {
        for n in [0usize, 63, 64, 65] {
            let s = LocalSet::full(n);
            for i in 0..n {
                assert!(s.contains(LocalId(i as u32)), "n={n} missing {i}");
            }
            assert!(!s.contains(LocalId(n as u32)), "n={n} contains {n}");
        }
    }

    #[test]
    fn bitset_grows_on_insert_and_ignores_out_of_range_removes() {
        // Passes add locals while a set is alive, so an insert past the
        // sized range grows the set; removing or probing there does not.
        let mut s = LocalSet::new(64);
        s.remove(LocalId(1000)); // must not panic
        assert!(!s.contains(LocalId(1000)));
        assert_eq!(s, LocalSet::new(0), "a probe or a remove grew the set");
        s.insert(LocalId(64));
        s.insert(LocalId(1000));
        assert!(s.contains(LocalId(64)) && s.contains(LocalId(1000)));
        assert!(!s.contains(LocalId(999)));
        // Equality is about members, not about how far a set has grown.
        let mut t = LocalSet::new(2000);
        t.insert(LocalId(1000));
        t.insert(LocalId(64));
        assert_eq!(s, t);
    }

    #[test]
    fn bitset_union_is_bitwise_or() {
        let mut a = LocalSet::new(100);
        let mut b = LocalSet::new(100);
        a.insert(LocalId(3));
        a.insert(LocalId(64));
        b.insert(LocalId(64));
        b.insert(LocalId(99));
        a.union(&b);
        for (i, want) in [(3u32, true), (64, true), (99, true), (0, false)] {
            assert_eq!(a.contains(LocalId(i)), want, "bit {i}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Model check against a HashSet: any interleaving of inserts and
        /// removes, inside the sized range or past it, leaves exactly the
        /// model's members set.
        #[test]
        fn bitset_matches_hashset_model(
            n in 1usize..=130,
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u32..130), 0..64),
        ) {
            let mut s = LocalSet::new(n);
            let mut model = std::collections::HashSet::new();
            for (is_insert, id) in ops {
                if is_insert {
                    s.insert(LocalId(id));
                    model.insert(id);
                } else {
                    s.remove(LocalId(id));
                    model.remove(&id);
                }
                for probe in 0..130u32 {
                    let want = model.contains(&probe);
                    proptest::prop_assert_eq!(s.contains(LocalId(probe)), want);
                }
            }
        }

        /// Union agrees with the set-theoretic union of two models, also
        /// when the sets have grown to different lengths.
        #[test]
        fn bitset_union_matches_model(
            n in 1usize..=130,
            m in 1usize..=130,
            xs in proptest::collection::vec(0u32..130, 0..32),
            ys in proptest::collection::vec(0u32..130, 0..32),
        ) {
            let mut a = LocalSet::new(n);
            let mut b = LocalSet::new(m);
            for &x in &xs {
                a.insert(LocalId(x));
            }
            for &y in &ys {
                b.insert(LocalId(y));
            }
            a.union(&b);
            for probe in 0..130u32 {
                let want = xs.contains(&probe) || ys.contains(&probe);
                proptest::prop_assert_eq!(a.contains(LocalId(probe)), want);
            }
        }
    }
}
