//! Constant folding and algebraic simplification over the typed IR.
//!
//! Staged Terra code is full of constants spliced from Lua (block sizes,
//! unroll factors, field offsets), so expressions like `0 * ldc + 3 * 8`
//! are common in generated kernels. This pass rewrites every expression
//! once, bottom-up: each node first evaluates its constant operands, then
//! applies the algebraic rules of its kind to what is left.
//!
//! - Integer arithmetic: the identities `x+0`, `x-0`, `x*1`, `x/1`, `x<<0`,
//!   `x>>0`, `x*0`; `x*2^k → x<<k`; `x-x → 0`. Two's-complement wrapping
//!   makes `x*2^k` and `x<<k` the same bits, and the bytecode compiler's
//!   address fusion reads a `<<` by a constant as a scale, so a reduced
//!   address still fuses into `lea`.
//! - A pointer offset by 0; `--x`; a cast to the type its operand already
//!   has; a `select` on a constant condition.
//! - Floating point: constants, and only the NaN-safe `x*1.0`, `x/1.0`.
//!
//! A rule that *drops* an operand requires that operand to be
//! [pure](expr_is_pure) — `(k / i) * 0` still has to trap at `i = 0`.
//!
//! Only rules some program reaches are here: a decision known at stage 0
//! is made in Lua, so the rest never fire (EXPERIMENTS.md A27 has the
//! census that removed them).

use super::util::expr_is_pure;
use super::Remark;
use crate::ir::{BinKind, CmpKind, ExprKind, IrExpr, IrFunction, IrStmt, StmtKind, UnKind};
use crate::types::{ScalarTy, Ty};

/// Rewrites every expression of the function and collapses the `if`s that
/// become statically decided; returns whether anything changed. One remark
/// counts the rewritten expressions, and each collapsed branch has its own.
pub fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let before = remarks.len();
    let mut rewrites = 0usize;
    fold_stmts(&mut f.body, &mut rewrites, remarks);
    if rewrites > 0 {
        remarks.push(Remark::applied(
            "fold",
            0,
            None,
            format!("rewrote {rewrites} expression(s) (constants, algebraic identities)"),
        ));
    }
    remarks.len() > before
}

/// Rewrites every expression of `stmts` and collapses the `if`s that become
/// statically decided; `unroll` runs it over each copy of a loop body.
pub(super) fn fold_stmts(stmts: &mut Vec<IrStmt>, rewrites: &mut usize, remarks: &mut Vec<Remark>) {
    IrStmt::walk_mut(stmts, &mut |s| {
        s.operand_roots_mut(&mut |e| rewrite(e, rewrites))
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

/// Rewrites one expression tree in-place.
pub fn fold_expr(e: &mut IrExpr) {
    rewrite(e, &mut 0);
}

/// The bottom-up rewrite of `e`, counting the nodes it rewrote.
fn rewrite(e: &mut IrExpr, rewrites: &mut usize) {
    e.children_mut(&mut |c| rewrite(c, rewrites));
    let new_kind: Option<ExprKind> = match (&e.ty, &e.kind) {
        (Ty::Scalar(st), ExprKind::Binary { op, lhs, rhs }) if st.is_integer() => {
            int_binary(*st, *op, lhs, rhs)
        }
        (Ty::Scalar(st), ExprKind::Binary { op, lhs, rhs }) if st.is_float() => {
            float_binary(*op, lhs, rhs)
        }
        (
            Ty::Ptr(_),
            ExprKind::Binary {
                op: BinKind::Add,
                lhs,
                rhs,
            },
        ) if rhs.int_const() == Some(0) => Some(lhs.kind.clone()),
        (_, ExprKind::Cmp { op, lhs, rhs }) => cmp(*op, lhs, rhs),
        (ty, ExprKind::Unary { op, expr }) => unary(ty, *op, expr),
        (ty, ExprKind::Cast(inner)) => cast(ty, inner),
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
        *rewrites += 1;
    }
}

fn float_const(e: &IrExpr) -> Option<f64> {
    match e.kind {
        ExprKind::ConstFloat(v) => Some(v),
        _ => None,
    }
}

/// `Some(k)` when `c == 2^k` with `k >= 1` (interpreting `c` as the
/// unsigned bit pattern of width `st`).
fn power_of_two(st: ScalarTy, c: i64) -> Option<u32> {
    let width_mask: u64 = match st {
        ScalarTy::I8 | ScalarTy::U8 => 0xff,
        ScalarTy::I16 | ScalarTy::U16 => 0xffff,
        ScalarTy::I32 | ScalarTy::U32 => 0xffff_ffff,
        _ => u64::MAX,
    };
    let u = c as u64 & width_mask;
    (u > 1 && u.is_power_of_two()).then(|| u.trailing_zeros())
}

fn int_binary(st: ScalarTy, op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    let (lc, rc) = (lhs.int_const(), rhs.int_const());
    if let (Some(a), Some(b)) = (lc, rc) {
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
    // Identities with one constant operand.
    let identity = match (op, lc, rc) {
        (BinKind::Add, Some(0), _) | (BinKind::Mul, Some(1), _) => Some(rhs.kind.clone()),
        (BinKind::Add | BinKind::Sub | BinKind::Shl | BinKind::Shr, _, Some(0))
        | (BinKind::Mul | BinKind::Div, _, Some(1)) => Some(lhs.kind.clone()),
        // The product drops the other operand, which therefore must be pure:
        // `(k / i) * 0` still has to trap at `i = 0`.
        (BinKind::Mul, Some(0), _) if expr_is_pure(rhs) => Some(ExprKind::ConstInt(0)),
        (BinKind::Mul, _, Some(0)) if expr_is_pure(lhs) => Some(ExprKind::ConstInt(0)),
        _ => None,
    };
    if identity.is_some() {
        return identity;
    }
    // x * 2^k → x << k: the same bits under two's-complement wrapping.
    let shl = |x: &IrExpr, k: u32| ExprKind::Binary {
        op: BinKind::Shl,
        lhs: Box::new(x.clone()),
        rhs: Box::new(IrExpr::new(x.ty.clone(), ExprKind::ConstInt(k as i64))),
    };
    let pow2 = |c: Option<i64>| power_of_two(st, c?);
    match (op, pow2(lc), pow2(rc)) {
        (BinKind::Mul, _, Some(k)) => Some(shl(lhs, k)),
        (BinKind::Mul, Some(k), _) => Some(shl(rhs, k)),
        (BinKind::Sub, ..) if lhs == rhs && expr_is_pure(lhs) => Some(ExprKind::ConstInt(0)),
        _ => None,
    }
}

fn float_binary(op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    let (lc, rc) = (float_const(lhs), float_const(rhs));
    if let (Some(a), Some(b)) = (lc, rc) {
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
    (matches!(op, BinKind::Mul | BinKind::Div) && rc == Some(1.0)).then(|| lhs.kind.clone())
}

fn cmp(op: CmpKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
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

fn unary(ty: &Ty, op: UnKind, expr: &IrExpr) -> Option<ExprKind> {
    match (ty, op, &expr.kind) {
        (Ty::Scalar(st), UnKind::Neg, ExprKind::ConstInt(v)) => {
            Some(ExprKind::ConstInt(st.canonical(v.wrapping_neg())))
        }
        (Ty::Scalar(_), UnKind::Neg, ExprKind::ConstFloat(v)) => Some(ExprKind::ConstFloat(-v)),
        // --x → x: negation is an involution.
        (
            _,
            UnKind::Neg,
            ExprKind::Unary {
                op: UnKind::Neg,
                expr,
            },
        ) => Some(expr.kind.clone()),
        _ => None,
    }
}

fn cast(ty: &Ty, inner: &IrExpr) -> Option<ExprKind> {
    let Ty::Scalar(to) = *ty else {
        return (inner.ty == *ty).then(|| inner.kind.clone());
    };
    match (&inner.ty, &inner.kind) {
        (Ty::Scalar(from), ExprKind::ConstInt(v)) if to.is_float() => {
            // Converted straight to the target width, as the VM does: an
            // integer rounded to f64 first can round again to f32.
            let v = from.canonical(*v);
            Some(ExprKind::ConstFloat(match (from.is_signed(), to) {
                (true, ScalarTy::F32) => v as f32 as f64,
                (true, _) => v as f64,
                (false, ScalarTy::F32) => v as u64 as f32 as f64,
                (false, _) => v as u64 as f64,
            }))
        }
        (Ty::Scalar(_), ExprKind::ConstInt(v)) if to.is_integer() => {
            Some(ExprKind::ConstInt(to.canonical(*v)))
        }
        (Ty::Scalar(_), ExprKind::ConstFloat(v)) if to.is_float() => Some(ExprKind::ConstFloat(*v)),
        (from, _) if *from == *ty => Some(inner.kind.clone()),
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
        run(&mut f, &mut Vec::new());
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
