//! Golden tests for constant-folder edge cases: wrapping integer overflow,
//! division/modulo by zero (left unfolded for the VM to trap), and float
//! NaN propagation.

use terra_ir::{
    fold_expr, BinKind, Callee, CmpKind, ExprKind, FuncId, IrExpr, LocalId, ScalarTy, Ty, UnKind,
};

fn int_const(ty: Ty, v: i64) -> IrExpr {
    IrExpr {
        ty,
        kind: ExprKind::ConstInt(v),
    }
}

fn folded_int(e: &IrExpr) -> Option<i64> {
    match e.kind {
        ExprKind::ConstInt(v) => Some(v),
        _ => None,
    }
}

fn folded_float(e: &IrExpr) -> Option<f64> {
    match e.kind {
        ExprKind::ConstFloat(v) => Some(v),
        _ => None,
    }
}

fn bin(op: BinKind, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
    IrExpr::binary(op, lhs, rhs)
}

// ---------------------------------------------------------------- wrapping

#[test]
fn i32_add_wraps_like_two_complement() {
    let mut e = bin(BinKind::Add, IrExpr::int32(i32::MAX), IrExpr::int32(1));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(i32::MIN as i64));
}

#[test]
fn i32_mul_wraps() {
    let mut e = bin(BinKind::Mul, IrExpr::int32(0x4000_0000), IrExpr::int32(4));
    fold_expr(&mut e);
    // 2^30 * 4 = 2^32 ≡ 0 (mod 2^32)
    assert_eq!(folded_int(&e), Some(0));
}

#[test]
fn i32_sub_wraps_at_min() {
    let mut e = bin(BinKind::Sub, IrExpr::int32(i32::MIN), IrExpr::int32(1));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(i32::MAX as i64));
}

#[test]
fn i64_add_wraps() {
    let mut e = bin(BinKind::Add, IrExpr::int64(i64::MAX), IrExpr::int64(1));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(i64::MIN));
}

#[test]
fn u8_add_wraps_to_width() {
    let mut e = bin(BinKind::Add, int_const(Ty::U8, 250), int_const(Ty::U8, 10));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some((250 + 10) % 256));
}

#[test]
fn u8_mul_stays_in_width() {
    let mut e = bin(BinKind::Mul, int_const(Ty::U8, 16), int_const(Ty::U8, 16));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(0));
}

#[test]
fn i32_shl_wraps_into_sign_bit() {
    let mut e = bin(BinKind::Shl, IrExpr::int32(1), IrExpr::int32(31));
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(i32::MIN as i64));
}

#[test]
fn neg_of_int_min_wraps_to_itself() {
    let mut e = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Unary {
            op: UnKind::Neg,
            expr: Box::new(IrExpr::int32(i32::MIN)),
        },
    };
    fold_expr(&mut e);
    assert_eq!(folded_int(&e), Some(i32::MIN as i64));
}

// ----------------------------------------------------- division by zero

#[test]
fn signed_div_by_zero_not_folded() {
    let mut e = bin(BinKind::Div, IrExpr::int32(7), IrExpr::int32(0));
    fold_expr(&mut e);
    // Must survive to runtime so the VM traps, exactly like unoptimized code.
    assert!(matches!(
        e.kind,
        ExprKind::Binary {
            op: BinKind::Div,
            ..
        }
    ));
}

#[test]
fn signed_rem_by_zero_not_folded() {
    let mut e = bin(BinKind::Rem, IrExpr::int32(7), IrExpr::int32(0));
    fold_expr(&mut e);
    assert!(matches!(
        e.kind,
        ExprKind::Binary {
            op: BinKind::Rem,
            ..
        }
    ));
}

#[test]
fn unsigned_div_by_zero_not_folded() {
    let mut e = bin(BinKind::Div, int_const(Ty::U64, 7), int_const(Ty::U64, 0));
    fold_expr(&mut e);
    assert!(matches!(
        e.kind,
        ExprKind::Binary {
            op: BinKind::Div,
            ..
        }
    ));
}

/// `x * 0` and `0 * x` drop `x`, so they fold only over a pure `x`: a
/// division whose divisor may be zero, a load and a call all stay.
#[test]
fn zero_product_keeps_an_operand_that_can_trap() {
    let k = || IrExpr::local(LocalId(0), Ty::INT);
    let i = || IrExpr::local(LocalId(1), Ty::INT);
    let load = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Load(Box::new(IrExpr::local(LocalId(2), Ty::INT.ptr_to()))),
    };
    let call = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Call {
            callee: Callee::Direct(FuncId(0)),
            args: vec![],
        },
    };
    for effectful in [
        bin(BinKind::Div, k(), i()),
        bin(BinKind::Rem, k(), i()),
        load,
        call,
    ] {
        for zero_first in [false, true] {
            let mut e = if zero_first {
                bin(BinKind::Mul, IrExpr::int32(0), effectful.clone())
            } else {
                bin(BinKind::Mul, effectful.clone(), IrExpr::int32(0))
            };
            let before = e.clone();
            fold_expr(&mut e);
            assert_eq!(e, before, "dropped {effectful:?}");
        }
    }
}

#[test]
fn zero_product_folds_over_a_pure_operand() {
    let k = || IrExpr::local(LocalId(0), Ty::INT);
    // A division by a non-zero constant cannot trap.
    for pure in [
        k(),
        bin(BinKind::Add, k(), IrExpr::int32(3)),
        bin(BinKind::Div, k(), IrExpr::int32(2)),
    ] {
        for zero_first in [false, true] {
            let mut e = if zero_first {
                bin(BinKind::Mul, IrExpr::int32(0), pure.clone())
            } else {
                bin(BinKind::Mul, pure.clone(), IrExpr::int32(0))
            };
            fold_expr(&mut e);
            assert_eq!(folded_int(&e), Some(0), "kept {pure:?}");
        }
    }
}

#[test]
fn div_overflow_int_min_by_minus_one_wraps() {
    // i32::MIN / -1 overflows in hardware; the folder either wraps it or
    // leaves it alone — it must not panic. Wrapping semantics give MIN back.
    let mut e = bin(BinKind::Div, IrExpr::int32(i32::MIN), IrExpr::int32(-1));
    fold_expr(&mut e);
    if let Some(v) = folded_int(&e) {
        assert_eq!(v, i32::MIN as i64);
    }
}

#[test]
fn float_div_by_zero_folds_to_infinity() {
    // IEEE semantics: no trap, fold freely.
    let mut e = bin(BinKind::Div, IrExpr::f64(1.0), IrExpr::f64(0.0));
    fold_expr(&mut e);
    assert_eq!(folded_float(&e), Some(f64::INFINITY));
}

#[test]
fn float_zero_div_zero_folds_to_nan() {
    let mut e = bin(BinKind::Div, IrExpr::f64(0.0), IrExpr::f64(0.0));
    fold_expr(&mut e);
    assert!(folded_float(&e).unwrap().is_nan());
}

// ------------------------------------------------------- NaN propagation

#[test]
fn nan_propagates_through_arithmetic() {
    for op in [BinKind::Add, BinKind::Sub, BinKind::Mul, BinKind::Div] {
        let mut e = bin(op, IrExpr::f64(f64::NAN), IrExpr::f64(2.0));
        fold_expr(&mut e);
        assert!(
            folded_float(&e).unwrap().is_nan(),
            "{op:?} must propagate NaN"
        );
    }
}

#[test]
fn mul_by_one_identity_preserves_nan_operand() {
    // x * 1.0 → x is NaN-safe (returns the NaN unchanged); the fold must
    // produce the NaN itself when x is constant.
    let mut e = bin(BinKind::Mul, IrExpr::f64(f64::NAN), IrExpr::f64(1.0));
    fold_expr(&mut e);
    assert!(folded_float(&e).unwrap().is_nan());
}

#[test]
fn add_zero_is_not_an_identity_for_floats() {
    use terra_ir::LocalId;
    // -0.0 + 0.0 == +0.0, so x + 0.0 must NOT fold to x for a non-constant
    // x. (Constant arguments fold to the correct IEEE result instead.)
    let x = IrExpr::local(LocalId(0), Ty::F64);
    let mut e = bin(BinKind::Add, x, IrExpr::f64(0.0));
    fold_expr(&mut e);
    assert!(matches!(
        e.kind,
        ExprKind::Binary {
            op: BinKind::Add,
            ..
        }
    ));
}

#[test]
fn nan_comparisons_fold_ieee_false() {
    // All ordered comparisons with NaN are false; != is true.
    let cases = [
        (CmpKind::Eq, false),
        (CmpKind::Lt, false),
        (CmpKind::Le, false),
        (CmpKind::Gt, false),
        (CmpKind::Ge, false),
        (CmpKind::Ne, true),
    ];
    for (op, want) in cases {
        let mut e = IrExpr::cmp(op, IrExpr::f64(f64::NAN), IrExpr::f64(f64::NAN));
        fold_expr(&mut e);
        assert_eq!(
            e.kind,
            ExprKind::ConstBool(want),
            "NaN {op:?} NaN must fold to {want}"
        );
    }
}

#[test]
fn float_min_max_with_nan_folds_consistently() {
    // Whatever the folder picks must match the VM's runtime IEEE-style
    // behavior; at minimum it must produce *a* constant and not panic.
    let mut e = bin(BinKind::Min, IrExpr::f64(f64::NAN), IrExpr::f64(2.0));
    fold_expr(&mut e);
    if let ExprKind::Binary { .. } = e.kind {
        // Left unfolded is also acceptable — runtime decides.
    }
}

#[test]
fn unsigned_compare_uses_unsigned_ordering() {
    // 0xFFFF_FFFF as u32 is 4294967295, not -1: it must compare greater
    // than 1 under unsigned ordering.
    let u32ty = Ty::Scalar(ScalarTy::U32);
    let mut e = IrExpr::cmp(
        CmpKind::Gt,
        int_const(u32ty.clone(), 0xFFFF_FFFF),
        int_const(u32ty, 1),
    );
    fold_expr(&mut e);
    assert_eq!(e.kind, ExprKind::ConstBool(true));
}

#[test]
fn u64_min_max_use_unsigned_ordering() {
    // 2^64 - 1 and 2^63 are large unsigned values, not negative ones.
    let big = int_const(Ty::U64, -1);
    let top = int_const(Ty::U64, i64::MIN);
    for (op, a, b, want) in [
        (BinKind::Min, big.clone(), int_const(Ty::U64, 1), 1),
        (BinKind::Max, big, int_const(Ty::U64, 1), -1),
        (BinKind::Min, top.clone(), int_const(Ty::U64, 5), 5),
        (BinKind::Max, int_const(Ty::U64, 5), top, i64::MIN),
    ] {
        let mut e = bin(op, a, b);
        fold_expr(&mut e);
        assert_eq!(folded_int(&e), Some(want), "{op:?}");
    }
}

// ------------------------------------------------------------ float constants
//
// A `float` constant holds an f32 value, so the folder computes what the
// VM's f32 registers compute (`-O0`), not the f64 arithmetic of the
// unrounded values.

fn f32_const(v: f64) -> IrExpr {
    IrExpr::float(Ty::F32, v)
}

#[test]
fn f32_constant_holds_an_f32_value() {
    assert_eq!(folded_float(&f32_const(0.1)), Some(0.1f32 as f64));
    assert_eq!(folded_float(&IrExpr::float(Ty::F64, 0.1)), Some(0.1));
}

#[test]
fn f32_sum_rounds_each_step() {
    // [float](16777216) + [float](1) + [float](1): 2^24 + 1 rounds back to 2^24.
    let sum = bin(BinKind::Add, f32_const(16777216.0), f32_const(1.0));
    let mut e = bin(BinKind::Add, sum, f32_const(1.0));
    fold_expr(&mut e);
    assert_eq!(folded_float(&e), Some(16777216.0));
}

#[test]
fn f32_product_is_the_f32_product() {
    let mut e = bin(BinKind::Mul, f32_const(0.1), f32_const(0.1));
    fold_expr(&mut e);
    assert_eq!(folded_float(&e), Some((0.1f32 * 0.1f32) as f64));
    assert_eq!(folded_float(&e), Some(0.010000000707805157));
}

#[test]
fn f32_widened_to_double_keeps_its_f32_value() {
    let mut e = IrExpr::cast(Ty::F64, f32_const(0.1));
    fold_expr(&mut e);
    assert_eq!(folded_float(&e), Some(0.10000000149011612));
}

#[test]
fn f32_equality_compares_the_rounded_values() {
    // 16777217 is not an f32: [float](16777217) is 16777216.
    let mut e = IrExpr::cmp(CmpKind::Eq, f32_const(16777217.0), f32_const(16777216.0));
    fold_expr(&mut e);
    assert_eq!(e.kind, ExprKind::ConstBool(true));
}

#[test]
fn int64_to_float_rounds_once() {
    // Through f64 first, 2^60 + 2^36 + 1 becomes 2^60 + 2^36, a tie that
    // rounds to even (2^60); straight to f32 it rounds up, as the VM's
    // `cvt.s.f32` does.
    let v = 0x1000_0010_0000_0001i64;
    let mut e = IrExpr::cast(Ty::F32, IrExpr::int64(v));
    fold_expr(&mut e);
    assert_eq!(folded_float(&e), Some(v as f32 as f64));
    assert_ne!(folded_float(&e), Some(v as f64 as f32 as f64));
}
