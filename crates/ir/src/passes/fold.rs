//! Constant folding and algebraic simplification over the typed IR.
//!
//! Staged Terra code is full of constants spliced from Lua (block sizes,
//! unroll factors, field offsets), so expressions like `0 * ldc + 3 * 8`
//! are common in generated kernels. This pass folds them before bytecode
//! compilation. Integer identities (`x*0`, `x*1`, `x+0`, `x<<0`) are applied
//! — the one that drops its operand, `x*0`, only over a [pure](expr_is_pure)
//! `x`, the rule `simplify` states for every such rewrite; floating-point
//! identities are restricted to the NaN-safe `x*1.0` and the constant-only
//! cases.

use super::util::expr_is_pure;
use super::Remark;
use crate::ir::{BinKind, CmpKind, ExprKind, IrExpr, IrFunction, IrStmt, StmtKind, UnKind};
use crate::types::{ScalarTy, Ty};

/// Folds constants in-place throughout a function body.
///
/// In debug builds, a function that verified cleanly before folding is
/// re-verified afterwards; a fold pass that breaks type consistency is a
/// compiler bug and panics immediately rather than miscompiling.
pub fn fold_function(f: &mut IrFunction) {
    #[cfg(debug_assertions)]
    let was_consistent = crate::analysis::verify_function(f, None, &crate::analysis::NoEnv).is_ok();

    let mut folded = 0usize;
    fold_stmts(&mut f.body, &mut folded, &mut Vec::new());

    #[cfg(debug_assertions)]
    if was_consistent {
        if let Err(d) = crate::analysis::verify_function(f, None, &crate::analysis::NoEnv) {
            panic!(
                "constant folding broke IR consistency in '{}': {}",
                f.name, d
            );
        }
    }
}

/// Pass-manager entry point: fold without the standalone verify wrapper
/// (the pass manager verifies the pipeline's result itself). Returns whether
/// anything was folded or collapsed; both leave a remark.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let before = remarks.len();
    let mut folded = 0usize;
    fold_stmts(&mut f.body, &mut folded, remarks);
    if folded > 0 {
        remarks.push(Remark::applied(
            "fold",
            0,
            None,
            format!("folded {folded} constant expression(s)"),
        ));
    }
    remarks.len() > before
}

/// Folds every expression of `stmts` and collapses the `if`s that become
/// statically decided; `unroll` runs it over each copy of a loop body.
pub(super) fn fold_stmts(stmts: &mut Vec<IrStmt>, folded: &mut usize, remarks: &mut Vec<Remark>) {
    IrStmt::walk_mut(stmts, &mut |s| {
        s.operand_roots_mut(&mut |e| fold_expr_counted(e, folded))
    });
    // Statically-decided `if`s collapse to one arm.
    IrStmt::each_block_mut(stmts, &mut |block| {
        let const_if = |s: &IrStmt| match &s.kind {
            StmtKind::If { cond, .. } => matches!(cond.kind, ExprKind::ConstBool(_)),
            _ => false,
        };
        if !block.iter().any(const_if) {
            return;
        }
        for s in std::mem::take(block) {
            match s.kind {
                StmtKind::If {
                    cond:
                        IrExpr {
                            kind: ExprKind::ConstBool(b),
                            ..
                        },
                    then_body,
                    else_body,
                } => {
                    remarks.push(Remark::applied(
                        "fold",
                        s.span.line,
                        s.prov,
                        "collapsed statically-decided branch".to_string(),
                    ));
                    block.extend(if b { then_body } else { else_body });
                }
                _ => block.push(s),
            }
        }
    });
}

/// Folds one expression tree in-place.
pub fn fold_expr(e: &mut IrExpr) {
    let mut n = 0usize;
    fold_expr_counted(e, &mut n);
}

/// [`fold_expr`] with a rewrite counter, for the pass manager's remarks.
fn fold_expr_counted(e: &mut IrExpr, folded: &mut usize) {
    // Fold children first.
    e.children_mut(&mut |c| fold_expr_counted(c, folded));

    let new_kind: Option<ExprKind> = match (&e.ty, &e.kind) {
        (Ty::Scalar(st), ExprKind::Binary { op, lhs, rhs }) if st.is_integer() => {
            fold_int_binary(*st, *op, lhs, rhs)
        }
        (Ty::Scalar(st), ExprKind::Binary { op, lhs, rhs }) if st.is_float() => {
            fold_float_binary(*op, lhs, rhs)
        }
        (_, ExprKind::Cmp { op, lhs, rhs }) => fold_cmp(*op, lhs, rhs),
        (Ty::Scalar(st), ExprKind::Unary { op, expr }) => fold_unary(*st, *op, expr),
        (Ty::Scalar(to), ExprKind::Cast(inner)) => fold_cast(*to, inner),
        (
            _,
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            },
        ) => match cond.kind {
            ExprKind::ConstBool(true) => Some(then_value.kind.clone()),
            ExprKind::ConstBool(false) => Some(else_value.kind.clone()),
            _ => None,
        },
        _ => None,
    };
    if let Some(kind) = new_kind {
        e.kind = match kind {
            ExprKind::ConstFloat(v) => IrExpr::float(e.ty.clone(), v).kind,
            kind => kind,
        };
        *folded += 1;
    }
}

fn float_const(e: &IrExpr) -> Option<f64> {
    match e.kind {
        ExprKind::ConstFloat(v) => Some(v),
        _ => None,
    }
}

fn fold_int_binary(st: ScalarTy, op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    if let (Some(a), Some(b)) = (lhs.int_const(), rhs.int_const()) {
        let v = match op {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::Div => {
                if b == 0 {
                    return None; // keep the runtime trap
                } else if st.is_signed() {
                    a.wrapping_div(b)
                } else {
                    ((a as u64) / (b as u64)) as i64
                }
            }
            BinKind::Rem => {
                if b == 0 {
                    return None;
                } else if st.is_signed() {
                    a.wrapping_rem(b)
                } else {
                    ((a as u64) % (b as u64)) as i64
                }
            }
            BinKind::Shl => a.wrapping_shl(b as u32 & 63),
            BinKind::Shr => {
                if st.is_signed() {
                    a.wrapping_shr(b as u32 & 63)
                } else {
                    ((a as u64).wrapping_shr(b as u32 & 63)) as i64
                }
            }
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
            BinKind::Min if st.is_signed() => a.min(b),
            BinKind::Max if st.is_signed() => a.max(b),
            BinKind::Min => (a as u64).min(b as u64) as i64,
            BinKind::Max => (a as u64).max(b as u64) as i64,
        };
        return Some(ExprKind::ConstInt(st.canonical(v)));
    }
    // Algebraic identities (exact on integers).
    match (op, lhs.int_const(), rhs.int_const()) {
        (BinKind::Add, Some(0), _) | (BinKind::Mul, Some(1), _) => Some(rhs.kind.clone()),
        (BinKind::Add, _, Some(0))
        | (BinKind::Sub, _, Some(0))
        | (BinKind::Mul, _, Some(1))
        | (BinKind::Shl, _, Some(0))
        | (BinKind::Shr, _, Some(0)) => Some(lhs.kind.clone()),
        // The product drops the other operand, which therefore must be pure:
        // `(k / i) * 0` still has to trap at `i = 0`.
        (BinKind::Mul, Some(0), _) if expr_is_pure(rhs) => Some(ExprKind::ConstInt(0)),
        (BinKind::Mul, _, Some(0)) if expr_is_pure(lhs) => Some(ExprKind::ConstInt(0)),
        _ => None,
    }
}

fn fold_float_binary(op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    if let (Some(a), Some(b)) = (float_const(lhs), float_const(rhs)) {
        let v = match op {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
            BinKind::Rem => a % b,
            BinKind::Min => a.min(b),
            BinKind::Max => a.max(b),
            _ => return None,
        };
        return Some(ExprKind::ConstFloat(v));
    }
    // NaN-safe identities only.
    let (lc, rc) = (float_const(lhs), float_const(rhs));
    if op == BinKind::Mul && lc == Some(1.0) {
        Some(rhs.kind.clone())
    } else if matches!(op, BinKind::Mul | BinKind::Div) && rc == Some(1.0) {
        Some(lhs.kind.clone())
    } else {
        None
    }
}

fn fold_cmp(op: CmpKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    let holds = match (lhs.int_const(), rhs.int_const()) {
        (Some(a), Some(b)) if matches!(&lhs.ty, Ty::Scalar(s) if s.is_signed()) => {
            compare(op, a, b)
        }
        (Some(a), Some(b)) => compare(op, a as u64, b as u64),
        _ => compare(op, float_const(lhs)?, float_const(rhs)?),
    };
    Some(ExprKind::ConstBool(holds))
}

fn compare<T: PartialOrd>(op: CmpKind, a: T, b: T) -> bool {
    match op {
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
    }
}

fn fold_unary(st: ScalarTy, op: UnKind, expr: &IrExpr) -> Option<ExprKind> {
    match (op, &expr.kind) {
        (UnKind::Neg, ExprKind::ConstInt(v)) => {
            Some(ExprKind::ConstInt(st.canonical(v.wrapping_neg())))
        }
        (UnKind::Neg, ExprKind::ConstFloat(v)) => Some(ExprKind::ConstFloat(-v)),
        (UnKind::Not, ExprKind::ConstBool(b)) => Some(ExprKind::ConstBool(!b)),
        (UnKind::Not, ExprKind::ConstInt(v)) => Some(ExprKind::ConstInt(st.canonical(!v))),
        _ => None,
    }
}

fn fold_cast(to: ScalarTy, inner: &IrExpr) -> Option<ExprKind> {
    match (&inner.ty, &inner.kind) {
        (Ty::Scalar(from), ExprKind::ConstInt(v)) => {
            if to.is_float() {
                // Converted straight to the target width, as the VM does: an
                // integer rounded to f64 first can round again to f32.
                let v = from.canonical(*v);
                Some(ExprKind::ConstFloat(match (from.is_signed(), to) {
                    (true, ScalarTy::F32) => v as f32 as f64,
                    (true, _) => v as f64,
                    (false, ScalarTy::F32) => v as u64 as f32 as f64,
                    (false, _) => v as u64 as f64,
                }))
            } else if to == ScalarTy::Bool {
                Some(ExprKind::ConstBool(*v != 0))
            } else {
                Some(ExprKind::ConstInt(to.canonical(*v)))
            }
        }
        (Ty::Scalar(_), ExprKind::ConstFloat(v)) => {
            if to.is_float() {
                Some(ExprKind::ConstFloat(*v))
            } else if to == ScalarTy::Bool {
                Some(ExprKind::ConstBool(*v != 0.0))
            } else if to.is_signed() {
                Some(ExprKind::ConstInt(to.canonical(*v as i64)))
            } else {
                Some(ExprKind::ConstInt(to.canonical(*v as u64 as i64)))
            }
        }
        (Ty::Scalar(_), ExprKind::ConstBool(b)) => {
            if to.is_float() {
                Some(ExprKind::ConstFloat(if *b { 1.0 } else { 0.0 }))
            } else {
                Some(ExprKind::ConstInt(i64::from(*b)))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LocalId;

    fn fold(mut e: IrExpr) -> IrExpr {
        fold_expr(&mut e);
        e
    }

    #[test]
    fn folds_int_arithmetic() {
        let e = fold(IrExpr::binary(
            BinKind::Add,
            IrExpr::int32(2),
            IrExpr::binary(BinKind::Mul, IrExpr::int32(3), IrExpr::int32(4)),
        ));
        assert_eq!(e.kind, ExprKind::ConstInt(14));
    }

    #[test]
    fn folds_identities_with_variables() {
        let x = IrExpr::local(LocalId(0), Ty::INT);
        let e = fold(IrExpr::binary(BinKind::Mul, x.clone(), IrExpr::int32(0)));
        assert_eq!(e.kind, ExprKind::ConstInt(0));
        let e = fold(IrExpr::binary(BinKind::Add, x.clone(), IrExpr::int32(0)));
        assert_eq!(e.kind, ExprKind::Local(LocalId(0)));
        let e = fold(IrExpr::binary(BinKind::Mul, IrExpr::int32(1), x.clone()));
        assert_eq!(e.kind, ExprKind::Local(LocalId(0)));
    }

    #[test]
    fn no_unsafe_float_identities() {
        let x = IrExpr::local(LocalId(0), Ty::F64);
        // x * 0.0 must NOT fold (NaN/−0 semantics).
        let e = fold(IrExpr::binary(BinKind::Mul, x.clone(), IrExpr::f64(0.0)));
        assert!(matches!(e.kind, ExprKind::Binary { .. }));
        // x * 1.0 is exact.
        let e = fold(IrExpr::binary(BinKind::Mul, x, IrExpr::f64(1.0)));
        assert_eq!(e.kind, ExprKind::Local(LocalId(0)));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let e = fold(IrExpr::binary(
            BinKind::Div,
            IrExpr::int32(1),
            IrExpr::int32(0),
        ));
        assert!(matches!(e.kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn wrapping_respects_width() {
        let big = IrExpr::int32(i32::MAX);
        let e = fold(IrExpr::binary(BinKind::Add, big, IrExpr::int32(1)));
        assert_eq!(e.kind, ExprKind::ConstInt(i32::MIN as i64));
    }

    #[test]
    fn folds_comparisons_and_selects() {
        let c = fold(IrExpr::cmp(CmpKind::Lt, IrExpr::int32(1), IrExpr::int32(2)));
        assert_eq!(c.kind, ExprKind::ConstBool(true));
        let sel = fold(IrExpr::select(
            IrExpr::boolean(false),
            IrExpr::int32(1),
            IrExpr::int32(2),
        ));
        assert_eq!(sel.kind, ExprKind::ConstInt(2));
    }

    #[test]
    fn folds_casts() {
        let e = fold(IrExpr::cast(Ty::F64, IrExpr::int32(7)));
        assert_eq!(e.kind, ExprKind::ConstFloat(7.0));
        let e = fold(IrExpr::cast(Ty::U8, IrExpr::int32(300)));
        assert_eq!(e.kind, ExprKind::ConstInt(44));
    }

    #[test]
    fn collapses_constant_ifs() {
        let mut f = IrFunction {
            name: "t".into(),
            ty: crate::types::FuncTy {
                params: vec![],
                ret: Ty::Unit,
            },
            locals: vec![],
            body: vec![IrStmt::new(StmtKind::If {
                cond: IrExpr::cmp(CmpKind::Gt, IrExpr::int32(3), IrExpr::int32(2)),
                then_body: vec![StmtKind::Return(None).into()],
                else_body: vec![StmtKind::Break.into()],
            })],
            index_range: None,
        };
        fold_function(&mut f);
        assert_eq!(f.body, vec![StmtKind::Return(None).into()]);
    }

    #[test]
    fn unsigned_comparison_semantics() {
        let a = IrExpr::new(Ty::U64, ExprKind::ConstInt(-1)); // bit pattern of u64::MAX
        let e = fold(IrExpr::cmp(
            CmpKind::Gt,
            a,
            IrExpr::new(Ty::U64, ExprKind::ConstInt(1)),
        ));
        assert_eq!(e.kind, ExprKind::ConstBool(true));
    }
}
