//! Algebraic simplification and strength reduction.
//!
//! Runs after constant folding and catches the non-constant shapes the
//! folder leaves behind: multiplications by powers of two become shifts,
//! unsigned division/remainder by powers of two become shifts/masks,
//! self-cancelling integer operations (`x - x`, `x ^ x`) become constants,
//! double negations and identity casts disappear.
//!
//! Every rewrite is exact on the bit patterns the VM computes (two's
//! complement wrapping makes `x * 2^k` and `x << k` identical), and any
//! rewrite that *drops* an operand requires that operand to be pure, so
//! traps and side effects are preserved. Floating point is left entirely to
//! the folder's NaN-safe rules. The bytecode compiler's address-fusion
//! peephole recognizes `<<` by a constant as a scale, so reducing a
//! multiplication inside an address computation never defeats `lea` fusion.

use super::util::{expr_is_pure, expr_is_stable};
use super::Remark;
use crate::ir::{BinKind, CmpKind, ExprKind, IrExpr, IrFunction, IrStmt, LocalSlot};
use crate::types::{ScalarTy, Ty};

/// Simplifies every expression in the function, bottom-up; returns whether
/// any was rewritten.
pub(crate) fn run(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
    let IrFunction { locals, body, .. } = f;
    let mut rewrites = 0usize;
    IrStmt::walk_mut(body, &mut |s| {
        s.operand_roots_mut(&mut |e| simplify(locals, e, &mut rewrites))
    });
    if rewrites > 0 {
        remarks.push(Remark::applied(
            "simplify",
            0,
            None,
            format!("rewrote {rewrites} expression(s) (algebraic / strength reduction)"),
        ));
    }
    rewrites > 0
}

/// `Some(k)` when `c == 2^k` with `k >= 1` (interpreting `c` as the
/// unsigned bit pattern of width `st`, which the folder has normalized).
fn power_of_two(st: ScalarTy, c: i64) -> Option<u32> {
    let width_mask: u64 = match st {
        ScalarTy::I8 | ScalarTy::U8 => 0xff,
        ScalarTy::I16 | ScalarTy::U16 => 0xffff,
        ScalarTy::I32 | ScalarTy::U32 => 0xffff_ffff,
        _ => u64::MAX,
    };
    let u = c as u64 & width_mask;
    if u > 1 && u.is_power_of_two() {
        Some(u.trailing_zeros())
    } else {
        None
    }
}

fn simplify(locals: &[LocalSlot], e: &mut IrExpr, rewrites: &mut usize) {
    e.children_mut(&mut |c| simplify(locals, c, rewrites));

    let new_kind: Option<ExprKind> = match (&e.ty, &e.kind) {
        (Ty::Scalar(st), ExprKind::Binary { op, lhs, rhs }) if st.is_integer() => {
            int_binary(locals, *st, *op, lhs, rhs)
        }
        (Ty::Scalar(ScalarTy::Bool), ExprKind::Binary { op, lhs, rhs }) => {
            bool_binary(*op, lhs, rhs)
        }
        // Pointer offset by zero.
        (ty, ExprKind::Binary { op, lhs, rhs })
            if ty.is_pointer()
                && matches!(op, BinKind::Add | BinKind::Sub)
                && rhs.int_const() == Some(0) =>
        {
            Some(lhs.kind.clone())
        }
        (_, ExprKind::Cmp { op, lhs, rhs })
            if !lhs.ty.is_float() && lhs == rhs && expr_is_pure(lhs) =>
        {
            // Exact on integers/pointers/bools; floats excluded (NaN != NaN).
            Some(ExprKind::ConstBool(matches!(
                op,
                CmpKind::Eq | CmpKind::Le | CmpKind::Ge
            )))
        }
        // --x → x and (not (not x)) → x: both operators are involutions.
        (_, ExprKind::Unary { op, expr }) => match &expr.kind {
            ExprKind::Unary {
                op: inner_op,
                expr: inner,
            } if inner_op == op => Some(inner.kind.clone()),
            _ => None,
        },
        (ty, ExprKind::Cast(inner)) if inner.ty == *ty => Some(inner.kind.clone()),
        (
            _,
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            },
        ) if then_value == else_value
            && expr_is_pure(cond)
            && expr_is_stable(then_value, locals) =>
        {
            Some(then_value.kind.clone())
        }
        _ => None,
    };
    if let Some(kind) = new_kind {
        e.kind = kind;
        *rewrites += 1;
    }
}

fn int_binary(
    locals: &[LocalSlot],
    st: ScalarTy,
    op: BinKind,
    lhs: &IrExpr,
    rhs: &IrExpr,
) -> Option<ExprKind> {
    let shift = |x: &IrExpr, dir: BinKind, k: u32| {
        Some(ExprKind::Binary {
            op: dir,
            lhs: Box::new(x.clone()),
            rhs: Box::new(IrExpr::new(x.ty.clone(), ExprKind::ConstInt(k as i64))),
        })
    };
    match op {
        // x * 2^k → x << k (exact under two's-complement wrapping).
        BinKind::Mul => {
            if let Some(c) = rhs.int_const() {
                if let Some(k) = power_of_two(st, c) {
                    return shift(lhs, BinKind::Shl, k);
                }
            }
            if let Some(c) = lhs.int_const() {
                if let Some(k) = power_of_two(st, c) {
                    return shift(rhs, BinKind::Shl, k);
                }
            }
            None
        }
        // Unsigned x / 2^k → logical shift; x / 1 is exact for any sign.
        BinKind::Div => match rhs.int_const() {
            Some(1) => Some(lhs.kind.clone()),
            Some(c) if !st.is_signed() => {
                power_of_two(st, c).and_then(|k| shift(lhs, BinKind::Shr, k))
            }
            _ => None,
        },
        // x % 1 → 0; unsigned x % 2^k → x & (2^k - 1).
        BinKind::Rem => match rhs.int_const() {
            Some(1) if expr_is_pure(lhs) => Some(ExprKind::ConstInt(0)),
            Some(c) if !st.is_signed() => power_of_two(st, c).map(|_| ExprKind::Binary {
                op: BinKind::And,
                lhs: Box::new(lhs.clone()),
                rhs: Box::new(IrExpr::new(lhs.ty.clone(), ExprKind::ConstInt(c - 1))),
            }),
            _ => None,
        },
        // Self-cancelling / self-absorbing forms on a repeated pure operand.
        BinKind::Sub | BinKind::Xor if lhs == rhs && expr_is_pure(lhs) => {
            Some(ExprKind::ConstInt(0))
        }
        BinKind::And | BinKind::Or | BinKind::Min | BinKind::Max
            if lhs == rhs && expr_is_stable(lhs, locals) =>
        {
            Some(lhs.kind.clone())
        }
        _ => None,
    }
}

fn bool_binary(op: BinKind, lhs: &IrExpr, rhs: &IrExpr) -> Option<ExprKind> {
    let as_bool = |e: &IrExpr| match e.kind {
        ExprKind::ConstBool(b) => Some(b),
        _ => None,
    };
    match (op, as_bool(lhs), as_bool(rhs)) {
        (BinKind::And, Some(true), _) => Some(rhs.kind.clone()),
        (BinKind::And, _, Some(true)) => Some(lhs.kind.clone()),
        (BinKind::And, Some(false), _) if expr_is_pure(rhs) => Some(ExprKind::ConstBool(false)),
        (BinKind::And, _, Some(false)) if expr_is_pure(lhs) => Some(ExprKind::ConstBool(false)),
        (BinKind::Or, Some(false), _) => Some(rhs.kind.clone()),
        (BinKind::Or, _, Some(false)) => Some(lhs.kind.clone()),
        (BinKind::Or, Some(true), _) if expr_is_pure(rhs) => Some(ExprKind::ConstBool(true)),
        (BinKind::Or, _, Some(true)) if expr_is_pure(lhs) => Some(ExprKind::ConstBool(true)),
        _ => None,
    }
}
