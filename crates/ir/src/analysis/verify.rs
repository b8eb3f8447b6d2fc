//! Type-consistency verifier.
//!
//! Re-derives the type of every expression from its operands and checks the
//! derivation against the annotated `ty`, plus structural rules: local and
//! global ids in range, callee arities matching signatures, `LocalAddr` only
//! on in-memory slots, `Break` only inside loops.
//!
//! The checker is deliberately a little looser than plain type equality.
//! Lowering retypes address expressions freely — an array local's address is
//! typed as a pointer to its element (decay), a struct address is retyped as
//! a pointer to its first field, pointer subtraction reuses the operand node
//! with an `int64` annotation, and `memset` views aggregates through `&uint8`.
//! Those are all address-class types with identical 8-byte representation,
//! so the verifier groups `&T`, function pointers, `int64`, and `uint64`
//! into one *address class* and accepts retypes within it where lowering
//! performs them. Everything outside that class is checked exactly.

use super::{diag, Diagnostic, EnvEntry, ModuleEnv, Severity};
use crate::ir::{
    BinKind, Builtin, CTy, Callee, ExprKind, IrExpr, IrFunction, IrStmt, LocalId, StmtKind, UnKind,
};
use crate::types::{Ty, TypeRegistry};
use terra_syntax::Span;

pub(super) fn run(
    f: &IrFunction,
    types: Option<&TypeRegistry>,
    env: &dyn ModuleEnv,
    diags: &mut Vec<Diagnostic>,
) {
    let mut v = Verifier {
        f,
        types,
        env,
        diags,
        loop_depth: 0,
        span: Span::synthetic(),
    };
    v.function();
}

struct Verifier<'a> {
    f: &'a IrFunction,
    types: Option<&'a TypeRegistry>,
    env: &'a dyn ModuleEnv,
    diags: &'a mut Vec<Diagnostic>,
    loop_depth: u32,
    /// Span of the statement currently being checked; expression-level
    /// findings are attributed to it.
    span: Span,
}

/// Types that share the VM's 8-byte address/integer representation and that
/// lowering is allowed to retype between: pointers, function pointers, and
/// the 64-bit integers produced by pointer arithmetic.
fn is_addr_class(t: &Ty) -> bool {
    matches!(t, Ty::Ptr(_) | Ty::Func(_)) || *t == Ty::I64 || *t == Ty::U64
}

/// Compatibility: exact equality, or both sides in the address class.
fn compat(a: &Ty, b: &Ty) -> bool {
    a == b || (is_addr_class(a) && is_addr_class(b))
}

impl Verifier<'_> {
    fn error(&mut self, code: &'static str, message: String) {
        self.diags
            .push(diag(self.f, Severity::Error, code, self.span, message));
    }

    fn function(&mut self) {
        let nparams = self.f.ty.params.len();
        if nparams > self.f.locals.len() {
            self.error(
                "bad-signature",
                format!(
                    "function has {} parameters but only {} locals",
                    nparams,
                    self.f.locals.len()
                ),
            );
            return;
        }
        for (i, pty) in self.f.ty.params.iter().enumerate() {
            if self.f.locals[i].ty != *pty {
                self.error(
                    "bad-signature",
                    format!(
                        "parameter {} declared {} but local slot has type {}",
                        i, pty, self.f.locals[i].ty
                    ),
                );
            }
        }
        if let Some(reg) = self.types {
            for (i, slot) in self.f.locals.iter().enumerate() {
                self.check_ty_wf(&slot.ty, reg, &format!("local l{i} ('{}')", slot.name));
            }
        }
        self.stmts(&self.f.body);
    }

    /// Checks that every struct mentioned by `t` exists and is finalized, so
    /// later `size()` queries can't panic.
    fn check_ty_wf(&mut self, t: &Ty, reg: &TypeRegistry, what: &str) {
        match t {
            Ty::Struct(id) => {
                if id.0 as usize >= reg.len() {
                    self.error(
                        "bad-struct-ref",
                        format!("{what} references struct #{} out of range", id.0),
                    );
                } else if !reg.is_finalized(*id) {
                    self.error(
                        "bad-struct-ref",
                        format!(
                            "{what} references struct '{}' whose layout was never finalized",
                            reg.name(*id)
                        ),
                    );
                }
            }
            Ty::Ptr(inner) => {
                // Pointees may legitimately be forward-declared structs; only
                // range-check them.
                if let Ty::Struct(id) = &**inner {
                    if id.0 as usize >= reg.len() {
                        self.error(
                            "bad-struct-ref",
                            format!("{what} references struct #{} out of range", id.0),
                        );
                    }
                }
            }
            Ty::Array(inner, _) => self.check_ty_wf(inner, reg, what),
            _ => {}
        }
    }

    fn slot(&mut self, l: LocalId) -> Option<&crate::ir::LocalSlot> {
        if (l.0 as usize) < self.f.locals.len() {
            Some(&self.f.locals[l.0 as usize])
        } else {
            self.error(
                "bad-local-ref",
                format!(
                    "local l{} out of range (function has {} locals)",
                    l.0,
                    self.f.locals.len()
                ),
            );
            None
        }
    }

    fn stmts(&mut self, body: &[IrStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &IrStmt) {
        self.span = s.span;
        match &s.kind {
            StmtKind::Assign { dst, value } => {
                self.expr(value);
                if let Some(slot) = self.slot(*dst) {
                    let slot_ty = slot.ty.clone();
                    if !compat(&slot_ty, &value.ty) {
                        self.error(
                            "type-mismatch",
                            format!(
                                "assignment to l{} of type {} from value of type {}",
                                dst.0, slot_ty, value.ty
                            ),
                        );
                    }
                }
            }
            StmtKind::Store { addr, value } => {
                self.expr(addr);
                self.expr(value);
                match &addr.ty {
                    Ty::Ptr(p) => {
                        if !compat(p, &value.ty) {
                            self.error(
                                "type-mismatch",
                                format!("store of {} through pointer to {}", value.ty, p),
                            );
                        }
                    }
                    other => self.error(
                        "type-mismatch",
                        format!("store address has non-pointer type {other}"),
                    ),
                }
                if !value.ty.is_register() {
                    self.error(
                        "type-mismatch",
                        format!("store of non-register value of type {}", value.ty),
                    );
                }
            }
            StmtKind::CopyMem { dst, src, .. } => {
                self.expr(dst);
                self.expr(src);
                for (what, e) in [("destination", dst), ("source", src)] {
                    if !e.ty.is_pointer() {
                        self.error(
                            "type-mismatch",
                            format!("copy {what} has non-pointer type {}", e.ty),
                        );
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.cond(cond);
                self.stmts(then_body);
                self.stmts(else_body);
            }
            StmtKind::While { cond, body } => {
                self.cond(cond);
                self.loop_depth += 1;
                self.stmts(body);
                self.loop_depth -= 1;
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                self.expr(start);
                self.expr(stop);
                self.expr(step);
                if let Some(slot) = self.slot(*var) {
                    let var_ty = slot.ty.clone();
                    let in_memory = slot.in_memory;
                    if !var_ty.is_integer() {
                        self.error(
                            "type-mismatch",
                            format!("loop variable l{} has non-integer type {}", var.0, var_ty),
                        );
                    }
                    if in_memory {
                        self.error(
                            "bad-local-ref",
                            format!("loop variable l{} must be a register local", var.0),
                        );
                    }
                    for (what, e) in [("start", start), ("stop", stop), ("step", step)] {
                        if e.ty != var_ty {
                            self.error(
                                "type-mismatch",
                                format!(
                                    "loop {} has type {} but loop variable is {}",
                                    what, e.ty, var_ty
                                ),
                            );
                        }
                    }
                }
                self.loop_depth += 1;
                self.stmts(body);
                self.loop_depth -= 1;
            }
            StmtKind::ParallelFor {
                kernel,
                start,
                stop,
                args,
            } => {
                self.expr(start);
                self.expr(stop);
                for a in args {
                    self.expr(a);
                }
                for (what, e) in [("start", start), ("stop", stop)] {
                    if !e.ty.is_integer() {
                        self.error(
                            "type-mismatch",
                            format!("parallelfor {} has non-integer type {}", what, e.ty),
                        );
                    }
                }
                // A kernel whose range proofs assume constant bounds may
                // only be run over exactly those.
                if let Some((lo, hi)) = self.env.kernel_index_range(*kernel) {
                    if (start.int_value(), stop.int_value()) != (Some(lo), Some(hi)) {
                        self.error(
                            "bad-kernel-range",
                            format!(
                                "parallelfor kernel fn{} was checked for the index range \
                                 [{lo}, {hi}) but this loop's bounds are not those constants",
                                kernel.0
                            ),
                        );
                    }
                }
                match self.env.function_sig(*kernel) {
                    EnvEntry::Known(sig) => {
                        if sig.ret != Ty::Unit {
                            self.error(
                                "type-mismatch",
                                format!("parallelfor kernel fn{} returns {}", kernel.0, sig.ret),
                            );
                        }
                        if sig.params.len() != args.len() + 1 {
                            self.error(
                                "bad-arity",
                                format!(
                                    "parallelfor kernel fn{} takes {} parameters but loop \
                                     passes {} (index + captures)",
                                    kernel.0,
                                    sig.params.len(),
                                    args.len() + 1
                                ),
                            );
                        } else {
                            for (i, (a, p)) in args.iter().zip(&sig.params[1..]).enumerate() {
                                if !compat(&a.ty, p) {
                                    self.error(
                                        "type-mismatch",
                                        format!(
                                            "parallelfor capture {} has type {} (kernel \
                                             expects {})",
                                            i, a.ty, p
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    EnvEntry::Opaque => {}
                    EnvEntry::Invalid => self.error(
                        "bad-func-ref",
                        format!("parallelfor kernel fn{} does not exist", kernel.0),
                    ),
                }
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    self.expr(e);
                }
                let ret = &self.f.ty.ret;
                match v {
                    Some(e) => {
                        // `return f()` where `f` returns unit lowers to
                        // `Return(Some(call))` with a unit-typed expression.
                        let unit_call = e.ty == Ty::Unit && *ret == Ty::Unit;
                        if !(compat(ret, &e.ty) || unit_call) {
                            self.error(
                                "type-mismatch",
                                format!("return of {} from function returning {}", e.ty, ret),
                            );
                        }
                    }
                    None => {
                        if *ret != Ty::Unit {
                            self.error(
                                "type-mismatch",
                                format!("bare return in function returning {ret}"),
                            );
                        }
                    }
                }
            }
            StmtKind::Break => {
                if self.loop_depth == 0 {
                    self.error("bad-break", "break outside of any loop".to_string());
                }
            }
        }
    }

    fn cond(&mut self, cond: &IrExpr) {
        self.expr(cond);
        if cond.ty != Ty::BOOL {
            self.error(
                "type-mismatch",
                format!("condition has type {} (expected bool)", cond.ty),
            );
        }
    }

    /// Checks one expression tree; errors are attributed to the enclosing
    /// statement's span.
    fn expr(&mut self, e: &IrExpr) {
        let t = &e.ty;
        match &e.kind {
            ExprKind::ConstInt(_) => {
                if !t.is_integer() {
                    self.error(
                        "type-mismatch",
                        format!("integer constant annotated with non-integer type {t}"),
                    );
                }
            }
            ExprKind::ConstFloat(v) => {
                if !t.is_float() {
                    self.error(
                        "type-mismatch",
                        format!("float constant annotated with non-float type {t}"),
                    );
                } else if IrExpr::float(t.clone(), *v).kind != e.kind && !v.is_nan() {
                    self.error(
                        "type-mismatch",
                        format!("{t} constant {v:?} is not a value of its type"),
                    );
                }
            }
            ExprKind::ConstBool(_) => {
                if *t != Ty::BOOL {
                    self.error(
                        "type-mismatch",
                        format!("bool constant annotated with type {t}"),
                    );
                }
            }
            ExprKind::ConstNull => {
                if !matches!(t, Ty::Ptr(_) | Ty::Func(_)) {
                    self.error(
                        "type-mismatch",
                        format!("null constant annotated with non-pointer type {t}"),
                    );
                }
            }
            ExprKind::ConstFunc(id) => {
                match t {
                    Ty::Func(ft) => {
                        if let EnvEntry::Known(sig) = self.env.function_sig(*id) {
                            if **ft != sig {
                                self.error(
                                    "bad-func-ref",
                                    format!(
                                        "function constant @fn{} annotated {} but its signature is {}",
                                        id.0,
                                        t,
                                        Ty::Func(sig.into())
                                    ),
                                );
                            }
                        }
                    }
                    other => self.error(
                        "type-mismatch",
                        format!("function constant annotated with non-function type {other}"),
                    ),
                }
                if matches!(self.env.function_sig(*id), EnvEntry::Invalid) {
                    self.error(
                        "bad-func-ref",
                        format!("reference to nonexistent function @fn{}", id.0),
                    );
                }
            }
            ExprKind::ConstStr(_) => {
                if *t != Ty::rawstring() {
                    self.error(
                        "type-mismatch",
                        format!("string constant annotated with type {t} (expected &int8)"),
                    );
                }
            }
            ExprKind::Local(l) => {
                if let Some(slot) = self.slot(*l) {
                    let slot_ty = slot.ty.clone();
                    if !compat(t, &slot_ty) {
                        self.error(
                            "type-mismatch",
                            format!(
                                "read of l{} annotated {} but slot has type {}",
                                l.0, t, slot_ty
                            ),
                        );
                    }
                }
            }
            ExprKind::LocalAddr(l) => {
                if let Some(slot) = self.slot(*l) {
                    if !slot.in_memory {
                        self.error(
                            "bad-local-ref",
                            format!("address taken of register local l{}", l.0),
                        );
                    }
                }
                // Lowering retypes local addresses (array decay, first-field
                // access, byte views), so any pointer annotation is fine.
                if !t.is_pointer() {
                    self.error(
                        "type-mismatch",
                        format!("address-of annotated with non-pointer type {t}"),
                    );
                }
            }
            ExprKind::GlobalAddr(g) => {
                if matches!(self.env.global_ty(*g), EnvEntry::Invalid) {
                    self.error(
                        "bad-global-ref",
                        format!("reference to nonexistent global g{}", g.0),
                    );
                }
                if !t.is_pointer() {
                    self.error(
                        "type-mismatch",
                        format!("global address annotated with non-pointer type {t}"),
                    );
                }
            }
            ExprKind::Load(a) => {
                self.expr(a);
                match &a.ty {
                    Ty::Ptr(p) => {
                        if !compat(t, p) {
                            self.error(
                                "type-mismatch",
                                format!("load of {} through pointer to {}", t, p),
                            );
                        }
                    }
                    other => self.error(
                        "type-mismatch",
                        format!("load address has non-pointer type {other}"),
                    ),
                }
                if !t.is_register() {
                    self.error("type-mismatch", format!("load of non-register type {t}"));
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                self.binary(t, *op, lhs, rhs);
            }
            ExprKind::Cmp { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                if *t != Ty::BOOL {
                    self.error(
                        "type-mismatch",
                        format!("comparison annotated with type {t} (expected bool)"),
                    );
                }
                if !compat(&lhs.ty, &rhs.ty) {
                    self.error(
                        "type-mismatch",
                        format!("comparison of {} against {}", lhs.ty, rhs.ty),
                    );
                }
                if !matches!(lhs.ty, Ty::Scalar(_) | Ty::Ptr(_) | Ty::Func(_)) {
                    self.error(
                        "type-mismatch",
                        format!("comparison of non-scalar type {}", lhs.ty),
                    );
                }
            }
            ExprKind::Unary { op, expr: x } => {
                self.expr(x);
                if !compat(t, &x.ty) {
                    self.error(
                        "type-mismatch",
                        format!("unary {op:?} annotated {} on operand of type {}", t, x.ty),
                    );
                }
                let elem_ok = match op {
                    UnKind::Neg => {
                        t.is_arithmetic() || matches!(t, Ty::Vector(s, _) if s.is_float())
                    }
                    UnKind::Not => *t == Ty::BOOL || t.is_integer(),
                };
                if !elem_ok {
                    self.error(
                        "type-mismatch",
                        format!("unary {op:?} on non-arithmetic type {t}"),
                    );
                }
            }
            ExprKind::Cast(x) => {
                self.expr(x);
                self.cast(t, &x.ty);
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.expr(a);
                }
                self.call(t, callee, args);
            }
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                self.expr(cond);
                self.expr(then_value);
                self.expr(else_value);
                if cond.ty != Ty::BOOL {
                    self.error(
                        "type-mismatch",
                        format!("select condition has type {} (expected bool)", cond.ty),
                    );
                }
                if !compat(t, &then_value.ty) || !compat(&then_value.ty, &else_value.ty) {
                    self.error(
                        "type-mismatch",
                        format!(
                            "select arms have types {} / {} but result is annotated {}",
                            then_value.ty, else_value.ty, t
                        ),
                    );
                }
            }
        }
    }

    fn binary(&mut self, t: &Ty, op: BinKind, lhs: &IrExpr, rhs: &IrExpr) {
        match t {
            // Pointer offset: `base + byte_or_element_offset`. Lowering
            // always scales the index to int64.
            Ty::Ptr(_) => {
                if op != BinKind::Add {
                    self.error(
                        "type-mismatch",
                        format!("pointer-typed binary {op:?} (only Add is pointer arithmetic)"),
                    );
                }
                if !lhs.ty.is_pointer() {
                    self.error(
                        "type-mismatch",
                        format!("pointer offset base has type {}", lhs.ty),
                    );
                }
                if !rhs.ty.is_integer() {
                    self.error(
                        "type-mismatch",
                        format!("pointer offset amount has type {}", rhs.ty),
                    );
                }
            }
            Ty::Vector(s, _) => {
                // The VM's vector rows are float and double arithmetic only.
                let arith = matches!(
                    op,
                    BinKind::Add
                        | BinKind::Sub
                        | BinKind::Mul
                        | BinKind::Div
                        | BinKind::Min
                        | BinKind::Max
                );
                if !(s.is_float() && arith) {
                    self.error(
                        "type-mismatch",
                        format!("vector binary {op:?} on element type {s}"),
                    );
                }
                for side in [lhs, rhs] {
                    if side.ty != *t {
                        self.error(
                            "type-mismatch",
                            format!("vector binary operand has type {} (expected {t})", side.ty),
                        );
                    }
                }
            }
            Ty::Scalar(s) if s.is_integer() => {
                // Shifts take any integer width on the right; everything else
                // requires matching operands (modulo pointer-difference
                // retyping, which compat absorbs).
                if !compat(t, &lhs.ty) {
                    self.error(
                        "type-mismatch",
                        format!(
                            "binary {op:?} annotated {} but left operand is {}",
                            t, lhs.ty
                        ),
                    );
                }
                if matches!(op, BinKind::Shl | BinKind::Shr) {
                    if !rhs.ty.is_integer() {
                        self.error(
                            "type-mismatch",
                            format!("shift amount has non-integer type {}", rhs.ty),
                        );
                    }
                } else if !compat(&lhs.ty, &rhs.ty) {
                    self.error(
                        "type-mismatch",
                        format!(
                            "binary {op:?} on mismatched types {} and {}",
                            lhs.ty, rhs.ty
                        ),
                    );
                }
            }
            Ty::Scalar(s) if s.is_float() => {
                let op_ok = matches!(
                    op,
                    BinKind::Add
                        | BinKind::Sub
                        | BinKind::Mul
                        | BinKind::Div
                        | BinKind::Rem
                        | BinKind::Min
                        | BinKind::Max
                );
                if !op_ok {
                    self.error(
                        "type-mismatch",
                        format!("binary {op:?} on floating type {t}"),
                    );
                }
                for side in [lhs, rhs] {
                    if side.ty != *t {
                        self.error(
                            "type-mismatch",
                            format!("binary operand has type {} (expected {t})", side.ty),
                        );
                    }
                }
            }
            Ty::Scalar(_) => {
                // bool: short-circuit forms lower to If/Select, but allow
                // direct And/Or/Xor over bools.
                if !matches!(op, BinKind::And | BinKind::Or | BinKind::Xor) {
                    self.error("type-mismatch", format!("binary {op:?} on type {t}"));
                }
                for side in [lhs, rhs] {
                    if side.ty != *t {
                        self.error(
                            "type-mismatch",
                            format!("binary operand has type {} (expected {t})", side.ty),
                        );
                    }
                }
            }
            other => self.error(
                "type-mismatch",
                format!("binary expression annotated with non-value type {other}"),
            ),
        }
    }

    fn cast(&mut self, to: &Ty, from: &Ty) {
        let ok = match (to, from) {
            // Scalar conversions, including bool sources/targets.
            (Ty::Scalar(_), Ty::Scalar(_)) => true,
            // Splat a scalar into a vector.
            (Ty::Vector(..), Ty::Scalar(_)) => true,
            // Vector element conversion of equal lane count.
            (Ty::Vector(_, n), Ty::Vector(_, m)) => n == m,
            // Address class: ptr↔ptr, ptr↔func, ptr↔int.
            (a, b) if is_addr_class(a) && is_addr_class(b) => true,
            (a, b) if is_addr_class(a) && b.is_integer() => true,
            (a, b) if a.is_integer() && is_addr_class(b) => true,
            _ => false,
        };
        if !ok {
            self.error("type-mismatch", format!("invalid cast from {from} to {to}"));
        }
    }

    fn call(&mut self, t: &Ty, callee: &Callee, args: &[IrExpr]) {
        match callee {
            Callee::Direct(id) => match self.env.function_sig(*id) {
                EnvEntry::Known(sig) => self.check_sig(t, &sig, args, &format!("fn{}", id.0)),
                EnvEntry::Opaque => {}
                EnvEntry::Invalid => self.error(
                    "bad-func-ref",
                    format!("call to nonexistent function fn{}", id.0),
                ),
            },
            Callee::Indirect(p) => {
                self.expr(p);
                match &p.ty {
                    Ty::Func(ft) => {
                        let ft = (**ft).clone();
                        self.check_sig(t, &ft, args, "indirect callee");
                    }
                    other => self.error(
                        "type-mismatch",
                        format!("indirect call through non-function value of type {other}"),
                    ),
                }
            }
            Callee::Builtin(b) => self.builtin_call(t, *b, args),
        }
    }

    fn check_sig(&mut self, t: &Ty, sig: &crate::types::FuncTy, args: &[IrExpr], who: &str) {
        if args.len() != sig.params.len() {
            self.error(
                "bad-arity",
                format!(
                    "call to {who} passes {} arguments but signature takes {}",
                    args.len(),
                    sig.params.len()
                ),
            );
            return;
        }
        for (i, (a, p)) in args.iter().zip(&sig.params).enumerate() {
            if !compat(&a.ty, p) {
                self.error(
                    "type-mismatch",
                    format!("argument {} to {who} has type {} (expected {})", i, a.ty, p),
                );
            }
        }
        if !compat(t, &sig.ret) {
            self.error(
                "type-mismatch",
                format!("call to {who} annotated {} but returns {}", t, sig.ret),
            );
        }
    }

    fn builtin_call(&mut self, t: &Ty, b: Builtin, args: &[IrExpr]) {
        let info = b.info();
        let (params, variadic, ret) = (info.params, info.variadic, info.ret);
        if args.len() < params.len() || (!variadic && args.len() != params.len()) {
            self.error(
                "bad-arity",
                format!(
                    "call to builtin {} passes {} arguments but it takes {}{}",
                    b.name(),
                    args.len(),
                    params.len(),
                    if variadic { " or more" } else { "" }
                ),
            );
            return;
        }
        for (i, (a, p)) in args.iter().zip(params).enumerate() {
            let (ok, expected) = class(*p, &a.ty);
            if !ok {
                self.error(
                    "type-mismatch",
                    format!(
                        "argument {} to builtin {} has type {} (expected {})",
                        i,
                        b.name(),
                        a.ty,
                        expected
                    ),
                );
            }
        }
        if variadic {
            for a in &args[params.len()..] {
                if !a.ty.is_register() {
                    self.error(
                        "type-mismatch",
                        format!(
                            "variadic argument to builtin {} has non-register type {}",
                            b.name(),
                            a.ty
                        ),
                    );
                }
            }
        }
        let (ok, expected) = class(ret, t);
        if !ok {
            self.error(
                "type-mismatch",
                format!(
                    "call to builtin {} annotated {} (expected {})",
                    b.name(),
                    t,
                    expected
                ),
            );
        }
    }
}

/// The class of types that may stand where a builtin's signature says `c`
/// — any address-class value for a pointer (lowering passes aggregate
/// pointers to memset/memcpy), any integer for an integer, any float for a
/// float: whether `t` is in it, and its name for messages.
fn class(c: CTy, t: &Ty) -> (bool, &'static str) {
    match c {
        CTy::Ptr(_) => (is_addr_class(t), "a pointer"),
        CTy::Scalar(s) if s.is_float() => (t.is_float(), "a float"),
        CTy::Scalar(_) => (t.is_integer(), "an integer"),
        CTy::Void => (*t == Ty::Unit, "no value"),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_function, verify_function, NoEnv};
    use crate::ir::{ExprKind, IrExpr, IrFunction, StmtKind};
    use crate::types::{FuncTy, Ty};

    fn unit_fn(name: &str) -> IrFunction {
        IrFunction {
            name: name.into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::Unit,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        }
    }

    #[test]
    fn accepts_trivial_function() {
        let mut f = unit_fn("ok");
        f.body = vec![StmtKind::Return(None).into()];
        assert!(verify_function(&f, None, &NoEnv).is_ok());
    }

    #[test]
    fn rejects_type_corrupted_assignment() {
        let mut f = unit_fn("bad");
        let l = f.add_local("x", Ty::INT, false);
        f.body = vec![StmtKind::Assign {
            dst: l,
            value: IrExpr {
                ty: Ty::F64,
                kind: ExprKind::ConstFloat(1.5),
            },
        }
        .into()];
        let err = verify_function(&f, None, &NoEnv).unwrap_err();
        assert_eq!(err.code, "type-mismatch");
        assert!(err.message.contains("int"), "{err}");
    }

    #[test]
    fn rejects_a_float_constant_that_is_not_an_f32() {
        let mut f = unit_fn("unrounded");
        let l = f.add_local("x", Ty::F32, false);
        let value = IrExpr::new(Ty::F32, ExprKind::ConstFloat(0.1));
        f.body = vec![StmtKind::Assign { dst: l, value }.into()];
        let err = verify_function(&f, None, &NoEnv).unwrap_err();
        assert_eq!(err.code, "type-mismatch");
        assert!(err.message.contains("not a value of its type"), "{err}");
        f.body = vec![StmtKind::Assign {
            dst: l,
            value: IrExpr::float(Ty::F32, 0.1),
        }
        .into()];
        assert!(verify_function(&f, None, &NoEnv).is_ok());
    }

    #[test]
    fn rejects_out_of_range_local() {
        let mut f = unit_fn("oob_local");
        f.body = vec![StmtKind::Expr(IrExpr::local(crate::ir::LocalId(7), Ty::INT)).into()];
        let err = verify_function(&f, None, &NoEnv).unwrap_err();
        assert_eq!(err.code, "bad-local-ref");
    }

    #[test]
    fn rejects_break_outside_loop() {
        let mut f = unit_fn("stray_break");
        f.body = vec![StmtKind::Break.into()];
        let err = verify_function(&f, None, &NoEnv).unwrap_err();
        assert_eq!(err.code, "bad-break");
    }

    #[test]
    fn accepts_pointer_offset_arithmetic() {
        // let p: &int in-memory array base + 4 (an int element offset, as
        // produced by index lowering).
        let mut f = unit_fn("ptr_math");
        let arr = f.add_local("a", Ty::Array(std::sync::Arc::new(Ty::INT), 8), true);
        let base = IrExpr::new(Ty::INT.ptr_to(), ExprKind::LocalAddr(arr));
        let addr = IrExpr::binary(crate::ir::BinKind::Add, base, IrExpr::int64(4));
        let load = IrExpr::load(Ty::INT, addr);
        f.body = vec![StmtKind::Expr(load).into(), StmtKind::Return(None).into()];
        assert!(verify_function(&f, None, &NoEnv).is_ok());
    }

    /// A kernel that was range-checked for `[1, 31)` may be run over
    /// exactly those constants and nothing else.
    #[test]
    fn holds_a_parallelfor_to_the_range_its_kernel_claims() {
        struct Claims;
        impl super::super::ModuleEnv for Claims {
            fn kernel_index_range(&self, _: crate::ir::FuncId) -> Option<(i64, i64)> {
                Some((1, 31))
            }
        }
        let site = |start: IrExpr, stop: IrExpr| {
            let mut f = unit_fn("site");
            f.add_local("n", Ty::INT, false);
            f.body = vec![StmtKind::ParallelFor {
                kernel: crate::ir::FuncId(0),
                start,
                stop,
                args: vec![],
            }
            .into()];
            f
        };
        let ok = site(IrExpr::int32(1), IrExpr::int32(31));
        assert!(verify_function(&ok, None, &Claims).is_ok());
        assert!(verify_function(&site(IrExpr::int32(0), IrExpr::int32(31)), None, &NoEnv).is_ok());
        let n = IrExpr::local(crate::ir::LocalId(0), Ty::INT);
        for bad in [
            site(IrExpr::int32(0), IrExpr::int32(31)),
            site(IrExpr::int32(1), n),
        ] {
            let err = verify_function(&bad, None, &Claims).unwrap_err();
            assert_eq!(err.code, "bad-kernel-range", "{err}");
        }
    }

    #[test]
    fn analyze_reports_errors_before_warnings() {
        let mut f = unit_fn("mixed");
        f.body = vec![StmtKind::Break.into()];
        let diags = analyze_function(&f, None, &NoEnv);
        assert!(!diags.is_empty());
        assert_eq!(diags[0].severity, super::super::Severity::Error);
    }
}
