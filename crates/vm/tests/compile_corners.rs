//! Adversarial tests for the bytecode compiler: the Lea address-fusion
//! peephole, narrow-integer normalization, and calling-convention corners,
//! verified by executing compiled IR.

use terra_ir::{
    BinKind, Builtin, Callee, CmpKind, ExprKind, FuncTy, IrExpr, IrFunction, StmtKind, Ty,
    TypeRegistry,
};
use terra_vm::{compile, ExecutionContext, Value};

fn run(f: IrFunction, args: &[Value]) -> Value {
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let id = ctx.declare(f.name.clone());
    let compiled = compile(&f, &types, &mut ctx, &[]);
    ctx.define(id, compiled);
    ctx.call(id, args).unwrap()
}

fn i64e(v: i64) -> IrExpr {
    IrExpr::int64(v)
}

#[test]
fn lea_base_plus_constant() {
    // f(x: i64) = x + 12345 — fuses to Lea with displacement.
    let mut f = IrFunction {
        name: "lea1".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let x = f.add_local("x", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        IrExpr::local(x, Ty::I64),
        i64e(12345),
    )))
    .into()];
    assert_eq!(run(f, &[Value::Int(7)]), Value::Int(12352));
}

#[test]
fn lea_constant_plus_base() {
    // Constant on the LEFT.
    let mut f = IrFunction {
        name: "lea2".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let x = f.add_local("x", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        i64e(-50),
        IrExpr::local(x, Ty::I64),
    )))
    .into()];
    assert_eq!(run(f, &[Value::Int(7)]), Value::Int(-43));
}

#[test]
fn lea_scaled_index_both_orders() {
    // f(x, i) = x + i*8  and  x + 8*i.
    for const_left in [false, true] {
        let mut f = IrFunction {
            name: "lea3".into(),
            ty: FuncTy {
                params: vec![Ty::I64, Ty::I64],
                ret: Ty::I64,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let x = f.add_local("x", Ty::I64, false);
        let i = f.add_local("i", Ty::I64, false);
        let mul = if const_left {
            IrExpr::binary(BinKind::Mul, i64e(8), IrExpr::local(i, Ty::I64))
        } else {
            IrExpr::binary(BinKind::Mul, IrExpr::local(i, Ty::I64), i64e(8))
        };
        f.body = vec![StmtKind::Return(Some(IrExpr::binary(
            BinKind::Add,
            IrExpr::local(x, Ty::I64),
            mul,
        )))
        .into()];
        assert_eq!(run(f, &[Value::Int(100), Value::Int(-3)]), Value::Int(76));
    }
}

#[test]
fn lea_negative_index_scaling() {
    // Negative index with positive scale must subtract.
    let mut f = IrFunction {
        name: "lea4".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let i = f.add_local("i", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        i64e(1000),
        IrExpr::binary(BinKind::Mul, IrExpr::local(i, Ty::I64), i64e(4)),
    )))
    .into()];
    assert_eq!(run(f, &[Value::Int(-250)]), Value::Int(0));
}

#[test]
fn no_lea_on_narrow_ints_wraps_correctly() {
    // i32 add must NOT skip the truncation: i32::MAX + 1 wraps.
    let mut f = IrFunction {
        name: "wrap32".into(),
        ty: FuncTy {
            params: vec![Ty::INT],
            ret: Ty::INT,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let x = f.add_local("x", Ty::INT, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        IrExpr::local(x, Ty::INT),
        IrExpr::int32(1),
    )))
    .into()];
    assert_eq!(
        run(f, &[Value::Int(i32::MAX as i64)]),
        Value::Int(i32::MIN as i64)
    );
}

#[test]
fn huge_scale_falls_back_to_mul() {
    // Scale too big for i32: must not fuse incorrectly.
    let big = (i32::MAX as i64) + 10;
    let mut f = IrFunction {
        name: "bigscale".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let i = f.add_local("i", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        i64e(1),
        IrExpr::binary(BinKind::Mul, IrExpr::local(i, Ty::I64), i64e(big)),
    )))
    .into()];
    assert_eq!(run(f, &[Value::Int(3)]), Value::Int(1 + 3 * big));
}

#[test]
fn select_evaluates_only_taken_side() {
    // select(i == 0, 1, 100/i): the false side divides by i — must not trap
    // when i == 0 because Select is compiled lazily.
    let mut f = IrFunction {
        name: "sel".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let i = f.add_local("i", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr {
        ty: Ty::I64,
        kind: ExprKind::Select {
            cond: Box::new(IrExpr::cmp(CmpKind::Eq, IrExpr::local(i, Ty::I64), i64e(0))),
            then_value: Box::new(i64e(1)),
            else_value: Box::new(IrExpr::binary(
                BinKind::Div,
                i64e(100),
                IrExpr::local(i, Ty::I64),
            )),
        },
    }))
    .into()];
    assert_eq!(run(f.clone(), &[Value::Int(0)]), Value::Int(1));
    assert_eq!(run(f, &[Value::Int(4)]), Value::Int(25));
}

#[test]
fn builtin_memset_and_memcpy_compose() {
    // malloc, memset to 0x7, copy to second half, read a byte back.
    let mut f = IrFunction {
        name: "mem".into(),
        ty: FuncTy {
            params: vec![],
            ret: Ty::INT,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let p = f.add_local("p", Ty::U8.ptr_to(), false);
    let call = |b: Builtin, args: Vec<IrExpr>, ty: Ty| IrExpr {
        ty,
        kind: ExprKind::Call {
            callee: Callee::Builtin(b),
            args,
        },
    };
    let pread = IrExpr::local(p, Ty::U8.ptr_to());
    f.body = vec![
        StmtKind::Assign {
            dst: p,
            value: call(
                Builtin::Malloc,
                vec![IrExpr {
                    ty: Ty::U64,
                    kind: ExprKind::ConstInt(64),
                }],
                Ty::U8.ptr_to(),
            ),
        }
        .into(),
        StmtKind::Expr(call(
            Builtin::Memset,
            vec![
                pread.clone(),
                IrExpr::int32(7),
                IrExpr {
                    ty: Ty::U64,
                    kind: ExprKind::ConstInt(32),
                },
            ],
            Ty::U8.ptr_to(),
        ))
        .into(),
        StmtKind::Expr(call(
            Builtin::Memcpy,
            vec![
                IrExpr::binary(BinKind::Add, pread.clone(), i64e(32)),
                pread.clone(),
                IrExpr {
                    ty: Ty::U64,
                    kind: ExprKind::ConstInt(32),
                },
            ],
            Ty::U8.ptr_to(),
        ))
        .into(),
        StmtKind::Return(Some(IrExpr {
            ty: Ty::INT,
            kind: ExprKind::Cast(Box::new(IrExpr {
                ty: Ty::U8,
                kind: ExprKind::Load(Box::new(IrExpr::binary(BinKind::Add, pread, i64e(63)))),
            })),
        }))
        .into(),
    ];
    assert_eq!(run(f, &[]), Value::Int(7));
}

#[test]
fn many_arguments_calling_convention() {
    // 10 params summed — exercises the contiguous-argument convention.
    let n = 10;
    let mut callee = IrFunction {
        name: "sum10".into(),
        ty: FuncTy {
            params: vec![Ty::I64; n],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let params: Vec<_> = (0..n)
        .map(|i| callee.add_local(format!("p{i}"), Ty::I64, false))
        .collect();
    let mut acc = IrExpr::local(params[0], Ty::I64);
    for p in &params[1..] {
        acc = IrExpr::binary(BinKind::Add, acc, IrExpr::local(*p, Ty::I64));
    }
    callee.body = vec![StmtKind::Return(Some(acc)).into()];
    let args: Vec<Value> = (1..=n as i64).map(Value::Int).collect();
    assert_eq!(run(callee, &args), Value::Int(55));
}

#[test]
fn no_trailing_ret_when_all_paths_return() {
    // f(x) = if x > 0 then return 1 else return 2 — both arms return, so
    // the compiler must not append an unreachable `Ret` at the end.
    let mut f = IrFunction {
        name: "allret".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let x = f.add_local("x", Ty::I64, false);
    f.body = vec![StmtKind::If {
        cond: IrExpr::cmp(CmpKind::Gt, IrExpr::local(x, Ty::I64), i64e(0)),
        then_body: vec![StmtKind::Return(Some(i64e(1))).into()],
        else_body: vec![StmtKind::Return(Some(i64e(2))).into()],
    }
    .into()];
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let id = ctx.declare(f.name.clone());
    let compiled = compile(&f, &types, &mut ctx, &[]);
    let rets = compiled
        .code
        .iter()
        .filter(|i| matches!(i, terra_vm::Instr::Ret { .. }))
        .count();
    assert_eq!(rets, 2, "exactly one Ret per arm: {:?}", compiled.code);
    // The then arm returns, so no Jmp over the else arm is needed either.
    let jmps = compiled
        .code
        .iter()
        .filter(|i| matches!(i, terra_vm::Instr::Jmp { .. }))
        .count();
    assert_eq!(jmps, 0, "no jump over the else arm: {:?}", compiled.code);
    ctx.define(id, compiled);
    assert_eq!(ctx.call(id, &[Value::Int(5)]).unwrap(), Value::Int(1));
    assert_eq!(ctx.call(id, &[Value::Int(-5)]).unwrap(), Value::Int(2));
}

#[test]
fn trailing_ret_kept_for_fallthrough() {
    // Unit function that falls off the end still gets its implicit return.
    let mut f = IrFunction {
        name: "fall".into(),
        ty: FuncTy {
            params: vec![Ty::I64],
            ret: Ty::Unit,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let x = f.add_local("x", Ty::I64, false);
    f.body = vec![StmtKind::If {
        cond: IrExpr::cmp(CmpKind::Gt, IrExpr::local(x, Ty::I64), i64e(0)),
        then_body: vec![StmtKind::Return(None).into()],
        else_body: vec![],
    }
    .into()];
    assert_eq!(run(f, &[Value::Int(-1)]), Value::Unit);
}

#[test]
fn lea_fuses_shifted_index() {
    // f(p, i) = p + (i << 3) — the strength-reduced spelling of p + i*8
    // must still fuse into a single Lea.
    let mut f = IrFunction {
        name: "leashift".into(),
        ty: FuncTy {
            params: vec![Ty::I64, Ty::I64],
            ret: Ty::I64,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    let p = f.add_local("p", Ty::I64, false);
    let i = f.add_local("i", Ty::I64, false);
    f.body = vec![StmtKind::Return(Some(IrExpr::binary(
        BinKind::Add,
        IrExpr::local(p, Ty::I64),
        IrExpr::binary(BinKind::Shl, IrExpr::local(i, Ty::I64), i64e(3)),
    )))
    .into()];
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let id = ctx.declare(f.name.clone());
    let compiled = compile(&f, &types, &mut ctx, &[]);
    assert!(
        compiled
            .code
            .iter()
            .any(|i| matches!(i, terra_vm::Instr::Lea { m, .. } if m.scale == 8)),
        "i << 3 must fuse as scale 8: {:?}",
        compiled.code
    );
    ctx.define(id, compiled);
    assert_eq!(
        ctx.call(id, &[Value::Int(1000), Value::Int(5)]).unwrap(),
        Value::Int(1040)
    );
}

// ---------------------------------------------------------------------------
// Loops test at the bottom with one fused compare-and-branch, operand
// constants are pinned per loop nest, and proven nodes lose their `trunc`.
// ---------------------------------------------------------------------------

use terra_ir::{IrStmt, LocalId, ScalarTy};
use terra_vm::Instr;

const I8: Ty = Ty::Scalar(ScalarTy::I8);
const I16: Ty = Ty::Scalar(ScalarTy::I16);
const U16: Ty = Ty::Scalar(ScalarTy::U16);
const U32: Ty = Ty::Scalar(ScalarTy::U32);

fn func(name: &str, params: Vec<Ty>, ret: Ty) -> IrFunction {
    let mut f = IrFunction {
        name: name.into(),
        ty: FuncTy {
            params: params.clone(),
            ret,
        },
        locals: vec![],
        body: vec![],
        index_range: None,
    };
    for (i, ty) in params.into_iter().enumerate() {
        f.add_local(format!("p{i}"), ty, false);
    }
    f
}

fn int(l: LocalId) -> IrExpr {
    IrExpr::local(l, Ty::INT)
}

fn set(dst: LocalId, value: IrExpr) -> IrStmt {
    StmtKind::Assign { dst, value }.into()
}

fn bump(l: LocalId, by: i32) -> IrStmt {
    set(l, IrExpr::binary(BinKind::Add, int(l), IrExpr::int32(by)))
}

fn for_loop(var: LocalId, start: IrExpr, stop: IrExpr, body: Vec<IrStmt>) -> IrStmt {
    StmtKind::For {
        var,
        start,
        stop,
        step: IrExpr::int32(1),
        body,
    }
    .into()
}

fn ret(e: IrExpr) -> IrStmt {
    StmtKind::Return(Some(e)).into()
}

fn code_of(f: &IrFunction) -> Vec<Instr> {
    compile(f, &TypeRegistry::new(), &mut ExecutionContext::new(), &[]).code
}

#[test]
fn loops_run_zero_one_and_many_trips() {
    // f(n) = count of `for i = 0, n`; g(n) = i after `while i < n do i += 1`.
    let mut f = func("trips", vec![Ty::INT], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", Ty::INT, false),
    );
    f.body = vec![
        for_loop(i, IrExpr::int32(0), int(LocalId(0)), vec![bump(acc, 1)]),
        ret(int(acc)),
    ];
    let mut g = func("wtrips", vec![Ty::INT], Ty::INT);
    let i = g.add_local("i", Ty::INT, false);
    g.body = vec![
        StmtKind::While {
            cond: IrExpr::cmp(CmpKind::Lt, int(i), int(LocalId(0))),
            body: vec![bump(i, 1)],
        }
        .into(),
        ret(int(i)),
    ];
    for (n, trips) in [(0, 0), (1, 1), (-5, 0), (7, 7)] {
        assert_eq!(
            run(f.clone(), &[Value::Int(n)]),
            Value::Int(trips),
            "for {n}"
        );
        assert_eq!(
            run(g.clone(), &[Value::Int(n)]),
            Value::Int(trips),
            "while {n}"
        );
    }
    // One branch per iteration: the back edge is the only control transfer
    // between the top of the body and the end of the loop.
    for f in [&f, &g] {
        let code = code_of(f);
        let back = code
            .iter()
            .rposition(|i| matches!(i, Instr::BrLtS { .. }))
            .unwrap_or_else(|| panic!("a fused back edge: {code:?}"));
        let Instr::BrLtS { target, .. } = code[back] else {
            unreachable!()
        };
        assert!(
            code[target as usize..back].iter().all(|i| !matches!(
                i,
                Instr::Jmp { .. } | Instr::BrFalse { .. } | Instr::CmpLtS { .. }
            )),
            "{code:?}"
        );
    }
}

#[test]
fn break_leaves_only_the_innermost_rotated_loop() {
    // for i = 0, 4 { for j = 0, 10 { if j >= 2 break; c += 1 }
    //                while true { if k >= 3 break; k += 1 }; c += 100 }
    let mut f = func("brk2", vec![], Ty::INT);
    let [c, i, j, k] = ["c", "i", "j", "k"].map(|n| f.add_local(n, Ty::INT, false));
    let leave_if = |cond: IrExpr| -> IrStmt {
        StmtKind::If {
            cond,
            then_body: vec![StmtKind::Break.into()],
            else_body: vec![],
        }
        .into()
    };
    let inner_for = for_loop(
        j,
        IrExpr::int32(0),
        IrExpr::int32(10),
        vec![
            leave_if(IrExpr::cmp(CmpKind::Ge, int(j), IrExpr::int32(2))),
            bump(c, 1),
        ],
    );
    let inner_while = StmtKind::While {
        cond: IrExpr::boolean(true),
        body: vec![
            leave_if(IrExpr::cmp(CmpKind::Ge, int(k), IrExpr::int32(3))),
            bump(k, 1),
        ],
    }
    .into();
    f.body = vec![
        for_loop(
            i,
            IrExpr::int32(0),
            IrExpr::int32(4),
            vec![inner_for, inner_while, bump(c, 100)],
        ),
        ret(IrExpr::binary(BinKind::Add, int(c), int(k))),
    ];
    assert_eq!(run(f, &[]), Value::Int(4 * 102 + 3));
}

#[test]
fn the_loop_variable_is_live_and_the_stop_operand_is_read_once() {
    // Writing the variable in the body steers the loop: 0, 2, 4, 6, 8.
    let mut f = func("steer", vec![], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", Ty::INT, false),
    );
    f.body = vec![
        for_loop(
            i,
            IrExpr::int32(0),
            IrExpr::int32(10),
            vec![bump(acc, 1), bump(i, 1)],
        ),
        ret(int(acc)),
    ];
    assert_eq!(run(f, &[]), Value::Int(5));
    // `stop` names a local the body zeroes; the bound was pinned on entry.
    let mut g = func("pinned_stop", vec![Ty::INT], Ty::INT);
    let (acc, i) = (
        g.add_local("acc", Ty::INT, false),
        g.add_local("i", Ty::INT, false),
    );
    g.body = vec![
        for_loop(
            i,
            IrExpr::int32(0),
            int(LocalId(0)),
            vec![set(LocalId(0), IrExpr::int32(0)), bump(acc, 1)],
        ),
        ret(int(acc)),
    ];
    assert_eq!(run(g, &[Value::Int(4)]), Value::Int(4));
}

#[test]
fn a_while_condition_runs_once_per_test() {
    // tick(p, i, n) counts its calls in *p and answers i < n; the loop
    // `while tick(&calls, i, n) do i += 1 end` must call it n + 1 times.
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let mut tick = func("tick", vec![Ty::INT.ptr_to(), Ty::INT, Ty::INT], Ty::BOOL);
    let p = IrExpr::local(LocalId(0), Ty::INT.ptr_to());
    let load = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Load(Box::new(p.clone())),
    };
    tick.body = vec![
        StmtKind::Store {
            addr: p,
            value: IrExpr::binary(BinKind::Add, load, IrExpr::int32(1)),
        }
        .into(),
        ret(IrExpr::cmp(CmpKind::Lt, int(LocalId(1)), int(LocalId(2)))),
    ];
    let tick_id = ctx.declare("tick");
    let compiled = compile(&tick, &types, &mut ctx, &[]);
    ctx.define(tick_id, compiled);

    let mut f = func("count_tests", vec![Ty::INT], Ty::INT);
    let calls = f.add_local("calls", Ty::INT, true);
    let i = f.add_local("i", Ty::INT, false);
    let calls_addr = IrExpr {
        ty: Ty::INT.ptr_to(),
        kind: ExprKind::LocalAddr(calls),
    };
    f.body = vec![
        set(calls, IrExpr::int32(0)),
        StmtKind::While {
            cond: IrExpr {
                ty: Ty::BOOL,
                kind: ExprKind::Call {
                    callee: Callee::Direct(tick_id),
                    args: vec![calls_addr, int(i), int(LocalId(0))],
                },
            },
            body: vec![bump(i, 1)],
        }
        .into(),
        ret(int(calls)),
    ];
    let id = ctx.declare("count_tests");
    let compiled = compile(&f, &types, &mut ctx, &[]);
    ctx.define(id, compiled);
    for n in [0, 1, 6] {
        assert_eq!(ctx.call(id, &[Value::Int(n)]).unwrap(), Value::Int(n + 1));
    }
}

#[test]
fn fused_branches_agree_with_compares_at_the_extremes() {
    // For every predicate, signedness and polarity: `if a OP b` (branches
    // when false), `while a OP b` (branches when true) and the unfused
    // `[int](a OP b)` against the host's own comparison.
    let extremes = |ty: &Ty| -> Vec<i64> {
        match ty {
            t if *t == I8 => vec![i8::MIN as i64, -1, 0, i8::MAX as i64],
            t if *t == Ty::INT => vec![i32::MIN as i64, -1, 0, i32::MAX as i64],
            t if *t == Ty::I64 => vec![i64::MIN, -1, 0, i64::MAX],
            t if *t == Ty::U8 => vec![0, 1, 0x7f, 0x80, 0xff],
            t if *t == U32 => vec![0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff],
            // As bits: 2^63 and 2^64 - 1 are negative `i64`s.
            _ => vec![0, 1, i64::MAX, i64::MIN, -1],
        }
    };
    for ty in [I8, Ty::INT, Ty::I64, Ty::U8, U32, Ty::U64] {
        let signed = [I8, Ty::INT, Ty::I64].contains(&ty);
        for op in [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
        ] {
            let cmp = || {
                IrExpr::cmp(
                    op,
                    IrExpr::local(LocalId(0), ty.clone()),
                    IrExpr::local(LocalId(1), ty.clone()),
                )
            };
            let mut by_if = func("by_if", vec![ty.clone(), ty.clone()], Ty::INT);
            by_if.body = vec![StmtKind::If {
                cond: cmp(),
                then_body: vec![ret(IrExpr::int32(1))],
                else_body: vec![ret(IrExpr::int32(0))],
            }
            .into()];
            let mut by_while = func("by_while", vec![ty.clone(), ty.clone()], Ty::INT);
            by_while.body = vec![
                StmtKind::While {
                    cond: cmp(),
                    body: vec![ret(IrExpr::int32(1))],
                }
                .into(),
                ret(IrExpr::int32(0)),
            ];
            let mut by_value = func("by_value", vec![ty.clone(), ty.clone()], Ty::INT);
            by_value.body = vec![ret(IrExpr {
                ty: Ty::INT,
                kind: ExprKind::Cast(Box::new(cmp())),
            })];
            for f in [&by_if, &by_while] {
                let code = code_of(f);
                assert!(
                    code.iter().any(|i| matches!(
                        i,
                        Instr::BrEqI { .. }
                            | Instr::BrNeI { .. }
                            | Instr::BrLtS { .. }
                            | Instr::BrLeS { .. }
                            | Instr::BrLtU { .. }
                            | Instr::BrLeU { .. }
                    )) && !code
                        .iter()
                        .any(|i| matches!(i, Instr::BrFalse { .. } | Instr::BrTrue { .. })),
                    "{op:?} on {ty} must fuse: {code:?}"
                );
            }
            for &a in &extremes(&ty) {
                for &b in &extremes(&ty) {
                    let holds = match (op, signed) {
                        (CmpKind::Eq, _) => a == b,
                        (CmpKind::Ne, _) => a != b,
                        (CmpKind::Lt, true) => a < b,
                        (CmpKind::Le, true) => a <= b,
                        (CmpKind::Gt, true) => a > b,
                        (CmpKind::Ge, true) => a >= b,
                        (CmpKind::Lt, false) => (a as u64) < b as u64,
                        (CmpKind::Le, false) => a as u64 <= b as u64,
                        (CmpKind::Gt, false) => a as u64 > b as u64,
                        (CmpKind::Ge, false) => a as u64 >= b as u64,
                    };
                    for f in [&by_if, &by_while, &by_value] {
                        assert_eq!(
                            run(f.clone(), &[Value::Int(a), Value::Int(b)]),
                            Value::Int(holds as i64),
                            "{} {a} {op:?} {b} on {ty}",
                            f.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn float_compares_are_not_fused() {
    // NaN fails `<` and `>=` alike, so `if not (x < y)` cannot become
    // `if x >= y`: the compare keeps its own instruction.
    let mut f = func("fcmp", vec![Ty::F64, Ty::F64], Ty::INT);
    f.body = vec![StmtKind::If {
        cond: IrExpr::cmp(
            CmpKind::Lt,
            IrExpr::local(LocalId(0), Ty::F64),
            IrExpr::local(LocalId(1), Ty::F64),
        ),
        then_body: vec![ret(IrExpr::int32(1))],
        else_body: vec![ret(IrExpr::int32(0))],
    }
    .into()];
    assert!(code_of(&f)
        .iter()
        .any(|i| matches!(i, Instr::CmpLtF64 { .. })));
    for (x, y, lt) in [
        (1.0, 2.0, 1),
        (2.0, 1.0, 0),
        (f64::NAN, 1.0, 0),
        (1.0, f64::NAN, 0),
    ] {
        assert_eq!(
            run(f.clone(), &[Value::Float(x), Value::Float(y)]),
            Value::Int(lt)
        );
    }
}

/// `acc = acc + i * c` for each `c` of `consts`, ten times over.
fn weighted_sum(consts: &[i32]) -> IrFunction {
    let mut f = func("weighted", vec![], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", Ty::INT, false),
    );
    let body = consts
        .iter()
        .map(|&c| {
            let term = IrExpr::binary(BinKind::Mul, int(i), IrExpr::int32(c));
            set(acc, IrExpr::binary(BinKind::Add, int(acc), term))
        })
        .collect();
    f.body = vec![
        for_loop(i, IrExpr::int32(0), IrExpr::int32(10), body),
        ret(int(acc)),
    ];
    f
}

#[test]
fn operand_constants_are_pinned_in_front_of_the_nest_up_to_a_cap() {
    let in_loop = |code: &[Instr]| {
        let guard = code
            .iter()
            .position(|i| matches!(i, Instr::BrLeS { .. }))
            .expect("the loop's guard");
        code[guard..]
            .iter()
            .filter(|i| matches!(i, Instr::ConstI { .. }))
            .count()
    };
    // A handful: the loop body materializes nothing.
    let few = weighted_sum(&[3, 5, 7]);
    assert_eq!(in_loop(&code_of(&few)), 0, "{:?}", code_of(&few));
    assert_eq!(run(few, &[]), Value::Int(45 * 15));
    // `acc = 9` is a `const` into `acc` wherever it stands: 9 is no operand
    // and takes no pinned register.
    let mut reset = weighted_sum(&[3]);
    let StmtKind::For { body, .. } = &mut reset.body[0].kind else {
        panic!("weighted_sum is one loop");
    };
    body.insert(0, set(LocalId(0), IrExpr::int32(9)));
    let code = code_of(&reset);
    let nines = |code: &[Instr]| {
        code.iter()
            .filter(|i| matches!(i, Instr::ConstI { v: 9, .. }))
            .count()
    };
    assert_eq!((nines(&code), in_loop(&code)), (1, 1), "{code:?}");
    assert_eq!(run(reset, &[]), Value::Int(9 + 9 * 3));
    // More distinct constants than the cap: the overflow is materialized
    // where it is used, and the sum does not care which were which.
    let many: Vec<i32> = (101..131).collect();
    let f = weighted_sum(&many);
    let spilled = in_loop(&code_of(&f));
    assert!(
        (1..many.len()).contains(&spilled),
        "{spilled} of {}",
        many.len()
    );
    assert_eq!(
        run(f, &[]),
        Value::Int(45 * many.iter().sum::<i32>() as i64)
    );
}

#[test]
fn a_pinned_constant_survives_a_call() {
    // The callee runs its own loop nest with its own pinned constants and
    // scribbles over a frame's worth of temporaries; the caller's pinned 7
    // sits in the caller's frame.
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let mut callee = weighted_sum(&[11, 13, 17, 19, 23]);
    callee.name = "busy".into();
    let busy = ctx.declare("busy");
    let compiled = compile(&callee, &types, &mut ctx, &[]);
    ctx.define(busy, compiled);
    let mut f = func("caller", vec![], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", Ty::INT, false),
    );
    let call = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Call {
            callee: Callee::Direct(busy),
            args: vec![],
        },
    };
    let term = IrExpr::binary(
        BinKind::Add,
        IrExpr::binary(BinKind::Mul, int(i), IrExpr::int32(7)),
        IrExpr::binary(BinKind::Mul, call, IrExpr::int32(7)),
    );
    f.body = vec![
        for_loop(
            i,
            IrExpr::int32(0),
            IrExpr::int32(3),
            vec![set(acc, IrExpr::binary(BinKind::Add, int(acc), term))],
        ),
        ret(int(acc)),
    ];
    let id = ctx.declare("caller");
    let compiled = compile(&f, &types, &mut ctx, &[]);
    ctx.define(id, compiled);
    let busy_value = 45 * (11 + 13 + 17 + 19 + 23);
    assert_eq!(
        ctx.call(id, &[]).unwrap(),
        Value::Int(7 * (1 + 2) + 3 * 7 * busy_value)
    );
}

#[test]
fn arguments_are_built_in_their_slots_without_touching_their_neighbours() {
    // digits(a, b, c, d) = ((a * 10 + b) * 10 + c) * 10 + d
    let mut ctx = ExecutionContext::new();
    let types = TypeRegistry::new();
    let mut callee = func("digits", vec![Ty::INT, Ty::INT, Ty::BOOL, Ty::INT], Ty::INT);
    let digit = |i: u32| match i {
        2 => IrExpr {
            ty: Ty::INT,
            kind: ExprKind::Cast(Box::new(IrExpr::local(LocalId(2), Ty::BOOL))),
        },
        _ => int(LocalId(i)),
    };
    let shift = |acc| IrExpr::binary(BinKind::Mul, acc, IrExpr::int32(10));
    let sum = (1..4).fold(digit(0), |acc, i| {
        IrExpr::binary(BinKind::Add, shift(acc), digit(i))
    });
    callee.body = vec![ret(sum)];
    let digits = ctx.declare("digits");
    let compiled = compile(&callee, &types, &mut ctx, &[]);
    ctx.define(digits, compiled);
    // caller(x, y) = digits(x, x < y ? x + 1 : y + 1, [bool](x - y), x * y - x):
    // a selected value, an int-to-bool cast (it needs a zero to compare
    // with) and arithmetic over the same locals, none of them first.
    let mut f = func("caller", vec![Ty::INT, Ty::INT], Ty::INT);
    let (x, y) = (LocalId(0), LocalId(1));
    let plus_one = |l| IrExpr::binary(BinKind::Add, int(l), IrExpr::int32(1));
    let selected = IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Select {
            cond: Box::new(IrExpr::cmp(CmpKind::Lt, int(x), int(y))),
            then_value: Box::new(plus_one(x)),
            else_value: Box::new(plus_one(y)),
        },
    };
    let differ = IrExpr {
        ty: Ty::BOOL,
        kind: ExprKind::Cast(Box::new(IrExpr::binary(BinKind::Sub, int(x), int(y)))),
    };
    let last = IrExpr::binary(
        BinKind::Sub,
        IrExpr::binary(BinKind::Mul, int(x), int(y)),
        int(x),
    );
    f.body = vec![ret(IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Call {
            callee: Callee::Direct(digits),
            args: vec![int(x), selected, differ, last],
        },
    })];
    let id = ctx.declare("caller");
    let compiled = compile(&f, &types, &mut ctx, &[]);
    let movs = |code: &[Instr]| {
        code.iter()
            .filter(|i| matches!(i, Instr::Mov { .. }))
            .count()
    };
    assert_eq!(
        movs(&compiled.code),
        1,
        "only the local is copied into its slot: {:?}",
        compiled.code
    );
    ctx.define(id, compiled);
    for (x, y, want) in [(2, 3, 2314), (3, 2, 3313), (2, 2, 2302)] {
        let got = ctx.call(id, &[Value::Int(x), Value::Int(y)]).unwrap();
        assert_eq!(got, Value::Int(want), "caller({x}, {y})");
    }
}

/// Whether `i` wraps a result into a narrow type: a `trunc`, or an
/// arithmetic row that wraps to `int32` itself.
fn wraps(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Trunc { .. }
            | Instr::AddI32 { .. }
            | Instr::SubI32 { .. }
            | Instr::MulI32 { .. }
            | Instr::ShlI32 { .. }
    )
}

#[test]
fn a_proven_node_loses_its_trunc_and_only_it() {
    // return (a * b) + c on int32: node 1 is the add, node 2 the multiply.
    let build = |proven: Vec<u32>| {
        let mut f = func("proofs", vec![Ty::INT, Ty::INT, Ty::INT], Ty::INT);
        let mul = IrExpr::binary(BinKind::Mul, int(LocalId(0)), int(LocalId(1)));
        let mut s = ret(IrExpr::binary(BinKind::Add, mul, int(LocalId(2))));
        s.proven = proven;
        f.body = vec![s];
        f
    };
    let truncs = |f: &IrFunction| code_of(f).iter().filter(|i| wraps(i)).count();
    assert_eq!(truncs(&build(vec![])), 2);
    assert_eq!(truncs(&build(vec![2])), 1);
    assert_eq!(truncs(&build(vec![1, 2])), 0);
    // The surviving wrap is the add's: the product may leave int32, the
    // sum wraps it back.
    let args = [Value::Int(1 << 20), Value::Int(1 << 12), Value::Int(5)];
    assert_eq!(run(build(vec![]), &args), Value::Int(5));
    // A `for`'s own proof (index 0) is its increment.
    let counted = |proven: Vec<u32>| {
        let mut f = func("counted", vec![Ty::INT], Ty::INT);
        let i = f.add_local("i", Ty::INT, false);
        let mut s = for_loop(i, IrExpr::int32(0), int(LocalId(0)), vec![]);
        s.proven = proven;
        f.body = vec![s, ret(int(i))];
        f
    };
    assert_eq!(truncs(&counted(vec![])), 1);
    assert_eq!(truncs(&counted(vec![0])), 0);
    assert_eq!(run(counted(vec![0]), &[Value::Int(9)]), Value::Int(9));
}

#[test]
fn casts_that_change_no_bit_emit_nothing() {
    let cast = |from: Ty, to: Ty| {
        let mut f = func("cast", vec![from.clone()], to.clone());
        f.body = vec![ret(IrExpr {
            ty: to,
            kind: ExprKind::Cast(Box::new(IrExpr::local(LocalId(0), from))),
        })];
        f
    };
    let ptr = Ty::F64.ptr_to();
    for (from, to) in [
        (Ty::INT, Ty::I64),
        (Ty::INT, Ty::U64),
        (U32, Ty::I64),
        (Ty::U8, I16),
        (Ty::U8, U32),
        (I8, Ty::INT),
        (Ty::BOOL, Ty::U8),
        (Ty::I64, ptr.clone()),
        (ptr.clone(), Ty::U64),
        (ptr.clone(), Ty::U8.ptr_to()),
    ] {
        let code = code_of(&cast(from.clone(), to.clone()));
        assert_eq!(code.len(), 1, "{from} -> {to}: {code:?}");
    }
    // Narrowing and sign-changing casts are one `trunc` from source to
    // destination, and compute what they did.
    for (from, to, arg, want) in [
        (Ty::I64, Ty::INT, (1i64 << 32) + 5, 5),
        (Ty::INT, U32, -1, 0xffff_ffff),
        (I8, U16, -1, 0xffff),
        (U32, Ty::INT, 0xffff_ffff, -1),
        (Ty::INT, I8, 200, -56),
        (ptr, Ty::U8, 0x1234, 0x34),
    ] {
        let f = cast(from.clone(), to.clone());
        let code = code_of(&f);
        assert!(
            matches!(code[..], [Instr::Trunc { .. }, Instr::Ret { .. }]),
            "{from} -> {to}: {code:?}"
        );
        let arg = if from.is_pointer() {
            Value::Ptr(arg as u64)
        } else {
            Value::Int(arg)
        };
        assert_eq!(run(f, &[arg]), Value::Int(want), "{from} -> {to}");
    }
}

#[test]
fn bitwise_results_of_canonical_operands_stay_canonical() {
    // `and`, `or` and `xor` of sign- (zero-) extended operands are sign-
    // (zero-) extended: no `trunc`, and widening the result shows its value.
    for (ty, values) in [
        (I8, [i8::MIN as i64, -1, 0x55, i8::MAX as i64]),
        (Ty::U8, [0, 0x80, 0xaa, 0xff]),
    ] {
        for op in [BinKind::And, BinKind::Or, BinKind::Xor] {
            let mut f = func("bits", vec![ty.clone(), ty.clone()], Ty::I64);
            let operand = |i| IrExpr::local(LocalId(i), ty.clone());
            f.body = vec![ret(IrExpr {
                ty: Ty::I64,
                kind: ExprKind::Cast(Box::new(IrExpr::binary(op, operand(0), operand(1)))),
            })];
            assert_eq!(code_of(&f).len(), 2, "{op:?} on {ty}: {:?}", code_of(&f));
            for a in values {
                for b in values {
                    let bits = match op {
                        BinKind::And => a & b,
                        BinKind::Or => a | b,
                        _ => a ^ b,
                    };
                    assert_eq!(
                        run(f.clone(), &[Value::Int(a), Value::Int(b)]),
                        Value::Int(bits),
                        "{a} {op:?} {b} on {ty}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The instruction set is a table (`opcodes!`); every row of it must be an
// instruction some program actually runs.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Every memory instruction addresses `[a + b*scale + disp]` itself, and a
// counted loop's back edge is one instruction.
// ---------------------------------------------------------------------------

use terra_vm::NO_REG;

fn int_ptr(kind: ExprKind) -> IrExpr {
    let ty = Ty::INT.ptr_to();
    IrExpr { ty, kind }
}

fn offset(base: IrExpr, by: IrExpr) -> IrExpr {
    int_ptr(ExprKind::Binary {
        op: BinKind::Add,
        lhs: Box::new(base),
        rhs: Box::new(by),
    })
}

fn load(addr: IrExpr) -> IrExpr {
    let (ty, kind) = (Ty::INT, ExprKind::Load(Box::new(addr)));
    IrExpr { ty, kind }
}

/// A function of `params` over a frame array `a : int[8]` holding 10 … 17
/// that returns the element at `address(&a)`.
fn element_at(params: Vec<Ty>, address: impl Fn(IrExpr) -> IrExpr) -> IrFunction {
    let mut f = func("element", params, Ty::INT);
    let a = f.add_local("a", Ty::Array(std::sync::Arc::new(Ty::INT), 8), true);
    let base = || int_ptr(ExprKind::LocalAddr(a));
    for t in 0..8 {
        let addr = offset(base(), i64e(4 * t));
        let value = IrExpr::int32(10 + t as i32);
        f.body.push(StmtKind::Store { addr, value }.into());
    }
    f.body.push(ret(load(address(base()))));
    f
}

/// The one load of `f`'s last statement.
fn the_load(f: &IrFunction) -> (terra_vm::Addr, bool) {
    let code = code_of(f);
    let mut loads = code.iter().filter_map(|i| match i {
        Instr::LoadI32 { m, chk, .. } => Some((*m, *chk)),
        _ => None,
    });
    loads
        .next_back()
        .unwrap_or_else(|| panic!("a load: {code:?}"))
}

fn scaled(index: IrExpr, by: i64) -> IrExpr {
    IrExpr::binary(BinKind::Mul, index, i64e(by))
}

#[test]
fn a_negative_displacement_is_part_of_the_operand() {
    // a[i - 1] as the mid-end leaves it: (&a + i*4) + -4.
    let f = element_at(vec![Ty::I64], |a| {
        let i = IrExpr::local(LocalId(0), Ty::I64);
        offset(offset(a, scaled(i, 4)), i64e(-4))
    });
    let (m, _) = the_load(&f);
    assert!(m.b != NO_REG && m.scale == 4 && m.disp == -4, "{m}");
    let code = code_of(&f);
    let arithmetic = |i: &Instr| matches!(i, Instr::Lea { .. } | Instr::AddI { .. });
    assert!(!code.iter().any(arithmetic), "{code:?}");
    for (i, want) in [(1, 10), (4, 13), (8, 17)] {
        assert_eq!(run(f.clone(), &[Value::Int(i)]), Value::Int(want));
    }
}

#[test]
fn a_scale_that_does_not_fit_its_field_is_computed_as_the_index() {
    // &a + i * 2^33: the product is arithmetic, the operand takes it at
    // scale 1, and the access is the same one. (A displacement is 64 bits
    // wide, like the constants it comes from: it always fits.)
    let f = element_at(vec![Ty::I64], |a| {
        let i = IrExpr::local(LocalId(0), Ty::I64);
        offset(offset(a, scaled(i, 1 << 33)), i64e(12))
    });
    let (m, _) = the_load(&f);
    assert!(m.b != NO_REG && m.scale == 1 && m.disp == 12, "{m}");
    let code = code_of(&f);
    assert!(code.iter().any(|i| matches!(i, Instr::MulI { .. })));
    assert_eq!(run(f, &[Value::Int(0)]), Value::Int(13));
    // As a value: the same sum through `mul.i` and a `lea`.
    let mut g = func("wide", vec![Ty::I64, Ty::I64], Ty::I64);
    let [p, i] = [0, 1].map(|l| IrExpr::local(LocalId(l), Ty::I64));
    g.body = vec![ret(IrExpr::binary(BinKind::Add, p, scaled(i, 1 << 33)))];
    let args = [Value::Int(5), Value::Int(-3)];
    assert_eq!(run(g, &args), Value::Int(5 - (3 << 33)));
}

#[test]
fn a_narrow_index_that_wraps_addresses_the_wrapped_element() {
    // a[x + y] over uint8: 250 + 10 is 4, whatever the operand absorbs.
    let f = element_at(vec![Ty::U8, Ty::U8], |a| {
        let [x, y] = [0, 1].map(|l| IrExpr::local(LocalId(l), Ty::U8));
        let sum = IrExpr::binary(BinKind::Add, x, y);
        offset(a, scaled(cast(&Ty::I64, sum), 4))
    });
    let code = code_of(&f);
    assert!(code.iter().any(|i| matches!(i, Instr::Trunc { .. })));
    assert_eq!(the_load(&f).0.scale, 4);
    let args = [Value::Int(250), Value::Int(10)];
    assert_eq!(run(f.clone(), &args), Value::Int(14));
    assert_eq!(run(f, &[Value::Int(2), Value::Int(3)]), Value::Int(15));
}

#[test]
fn a_proven_access_stays_check_free_whatever_its_operand_absorbs() {
    // return load(&a + i*4 + 8): node 1 is the load, node 2 its address.
    let build = |proven: Vec<u32>| {
        let mut f = element_at(vec![Ty::I64], |a| {
            let i = IrExpr::local(LocalId(0), Ty::I64);
            offset(offset(a, scaled(i, 4)), i64e(8))
        });
        f.body.last_mut().unwrap().proven = proven;
        f
    };
    let (m, chk) = the_load(&build(vec![]));
    assert!(chk && m.b != NO_REG && m.disp == 8, "{m}");
    let (m, chk) = the_load(&build(vec![2]));
    assert!(!chk && m.b != NO_REG && m.disp == 8, "{m}");
    // A proof of something else in the statement is not a proof of this.
    assert!(the_load(&build(vec![3])).1);
    assert_eq!(run(build(vec![2]), &[Value::Int(1)]), Value::Int(13));
}

/// `f(n)`: how often the body of `for i : ty = 0, n` runs; with `proven`
/// the loop carries the proof that its increment cannot wrap.
fn counted(ty: Ty, proven: bool, body: impl Fn(LocalId, LocalId) -> Vec<IrStmt>) -> IrFunction {
    let mut f = func("counted", vec![ty.clone()], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", ty.clone(), false),
    );
    let mut s: IrStmt = StmtKind::For {
        var: i,
        start: constant(&ty, 0),
        stop: IrExpr::local(LocalId(0), ty.clone()),
        step: constant(&ty, 1),
        body: body(acc, i),
    }
    .into();
    s.proven = if proven { vec![0] } else { vec![] };
    f.body = vec![s, ret(int(acc))];
    f
}

#[test]
fn a_counted_loop_is_one_instruction_per_iteration_when_its_increment_is_exact() {
    let count = |acc, _| vec![bump(acc, 1)];
    for (ty, proven, fused) in [
        (Ty::INT, true, true),
        (Ty::INT, false, false),
        (I8, true, true),
        (Ty::I64, false, true),
    ] {
        let f = counted(ty.clone(), proven, count);
        let code = code_of(&f);
        // What follows the body's `add.i32` (an `int` add and its wrap),
        // up to the `ret`.
        let edge: Vec<&str> = code[code.len() - 4..code.len() - 1]
            .iter()
            .map(Instr::mnemonic)
            .collect();
        if fused {
            assert_eq!(edge[1..], ["add.i32", "loop.lt.s"], "{ty} {code:?}");
        } else {
            assert_eq!(edge, ["add.i32", "add.i32", "br.lt.s"], "{ty} {code:?}");
        }
        for (n, trips) in [(0, 0), (1, 1), (-5, 0), (7, 7)] {
            let got = run(f.clone(), &[Value::Int(n)]);
            assert_eq!(got, Value::Int(trips), "{ty} proven={proven} n={n}");
        }
    }
    // `break` leaves a counted loop like any other.
    let leave_at_3 = |acc, i| {
        let cond = IrExpr::cmp(CmpKind::Ge, int(i), IrExpr::int32(3));
        let leave = StmtKind::If {
            cond,
            then_body: vec![StmtKind::Break.into()],
            else_body: vec![],
        };
        vec![leave.into(), bump(acc, 1)]
    };
    let f = counted(Ty::INT, true, leave_at_3);
    assert!(code_of(&f)
        .iter()
        .any(|i| matches!(i, Instr::LoopLtS { .. })));
    for (n, trips) in [(0, 0), (2, 2), (9, 3)] {
        assert_eq!(run(f.clone(), &[Value::Int(n)]), Value::Int(trips));
    }
}

#[test]
fn a_loop_that_assigns_its_own_variable_fuses_only_what_stays_exact() {
    // The body bumps the variable too: 0, 2, 4, 6, 8. No proof is made for
    // such a loop (`absint` requires the body to leave the variable alone),
    // so a narrow variable keeps its wrapping increment; a 64-bit one has
    // nothing to wrap and fuses all the same.
    let steer = |acc, i| vec![bump(acc, 1), bump(i, 1)];
    let narrow = counted(Ty::INT, false, steer);
    let code = code_of(&narrow);
    assert!(!code.iter().any(|i| matches!(i, Instr::LoopLtS { .. })));
    assert!(code.iter().any(|i| matches!(i, Instr::AddI32 { .. })));
    assert_eq!(run(narrow, &[Value::Int(10)]), Value::Int(5));
    let steer64 = |acc, i: LocalId| {
        let next = IrExpr::binary(BinKind::Add, IrExpr::local(i, Ty::I64), i64e(1));
        vec![bump(acc, 1), set(i, next)]
    };
    let wide = counted(Ty::I64, false, steer64);
    assert!(code_of(&wide)
        .iter()
        .any(|i| matches!(i, Instr::LoopLtS { .. })));
    assert_eq!(run(wide, &[Value::Int(10)]), Value::Int(5));
}

#[test]
fn a_uint64_loop_compares_unsigned() {
    // for i : uint64 = 2^63 - 2, 2^63 + 2: four trips across the sign bit.
    let u64t = Ty::Scalar(ScalarTy::U64);
    let mut f = func("across", vec![], Ty::INT);
    let (acc, i) = (
        f.add_local("acc", Ty::INT, false),
        f.add_local("i", u64t.clone(), false),
    );
    let at = |v: i64| {
        let (ty, kind) = (u64t.clone(), ExprKind::ConstInt(v));
        IrExpr { ty, kind }
    };
    f.body = vec![
        StmtKind::For {
            var: i,
            start: at(i64::MAX - 1),
            stop: at(i64::MIN + 2),
            step: at(1),
            body: vec![bump(acc, 1)],
        }
        .into(),
        ret(int(acc)),
    ];
    let code = code_of(&f);
    assert!(
        code.iter().any(|i| matches!(i, Instr::BrLeU { .. })),
        "{code:?}"
    );
    assert!(
        code.iter().any(|i| matches!(i, Instr::BrLtU { .. })),
        "{code:?}"
    );
    assert!(!code.iter().any(|i| matches!(i, Instr::LoopLtS { .. })));
    assert_eq!(run(f, &[]), Value::Int(4));
}

fn constant(ty: &Ty, v: i32) -> IrExpr {
    let kind = if ty.is_float() {
        ExprKind::ConstFloat(v.into())
    } else {
        ExprKind::ConstInt(v.into())
    };
    let ty = ty.clone();
    IrExpr { ty, kind }
}

fn eval(e: IrExpr) -> IrStmt {
    StmtKind::Expr(e).into()
}

fn cast(to: &Ty, e: IrExpr) -> IrExpr {
    let (ty, kind) = (to.clone(), ExprKind::Cast(Box::new(e)));
    IrExpr { ty, kind }
}

fn unary(op: terra_ir::UnKind, e: IrExpr) -> IrExpr {
    let ty = e.ty.clone();
    let expr = Box::new(e);
    let kind = ExprKind::Unary { op, expr };
    IrExpr { ty, kind }
}

fn call(callee: Callee, args: Vec<IrExpr>, ty: Ty) -> IrExpr {
    let kind = ExprKind::Call { callee, args };
    IrExpr { ty, kind }
}

const BIN_KINDS: [BinKind; 12] = [
    BinKind::Add,
    BinKind::Sub,
    BinKind::Mul,
    BinKind::Div,
    BinKind::Rem,
    BinKind::Shl,
    BinKind::Shr,
    BinKind::And,
    BinKind::Or,
    BinKind::Xor,
    BinKind::Min,
    BinKind::Max,
];
const FLOAT_KINDS: [BinKind; 6] = [
    BinKind::Add,
    BinKind::Sub,
    BinKind::Mul,
    BinKind::Div,
    BinKind::Min,
    BinKind::Max,
];
const CMP_KINDS: [CmpKind; 6] = [
    CmpKind::Eq,
    CmpKind::Ne,
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
];

/// Every arithmetic, comparison and conversion on every kind of scalar, as
/// values and (for integers) as fused branches.
fn scalar_program() -> IrFunction {
    use terra_ir::UnKind::{Neg, Not};
    let mut f = func("scalars", vec![], Ty::Unit);
    let (ints, floats) = ([Ty::I64, Ty::U64, Ty::INT, I8], [Ty::F64, Ty::F32]);
    for ty in &ints {
        for op in BIN_KINDS {
            let e = IrExpr::binary(op, constant(ty, 7), constant(ty, 2));
            f.body.push(eval(e));
        }
        f.body.push(eval(unary(Neg, constant(ty, 7))));
        f.body.push(eval(unary(Not, constant(ty, 7))));
    }
    f.body.push(eval(unary(Not, IrExpr::boolean(true))));
    for ty in &floats {
        for op in FLOAT_KINDS {
            let e = IrExpr::binary(op, constant(ty, 7), constant(ty, 2));
            f.body.push(eval(e));
        }
        f.body.push(eval(unary(Neg, constant(ty, 7))));
    }
    for ty in ints.iter().chain(&floats) {
        for op in CMP_KINDS {
            let test = || IrExpr::cmp(op, constant(ty, 7), constant(ty, 2));
            f.body.push(eval(test()));
            f.body.push(
                StmtKind::If {
                    cond: test(),
                    then_body: vec![],
                    else_body: vec![],
                }
                .into(),
            );
        }
        for to in ints.iter().chain(&floats) {
            f.body.push(eval(cast(to, constant(ty, 7))));
        }
    }
    let kind = ExprKind::Select {
        cond: Box::new(IrExpr::boolean(true)),
        then_value: Box::new(i64e(1)),
        else_value: Box::new(i64e(2)),
    };
    f.body.push(eval(IrExpr { ty: Ty::I64, kind }));
    f
}

/// A load and a store of every width, vectors, frame addresses, copies and
/// prefetches, all on the function's own frame.
fn memory_program() -> IrFunction {
    let mut f = func("memory", vec![], Ty::Unit);
    let scalars = [
        I8,
        Ty::U8,
        I16,
        U16,
        Ty::INT,
        U32,
        Ty::I64,
        Ty::F32,
        Ty::F64,
    ];
    let mut last = None;
    for ty in scalars {
        let m = f.add_local("m", ty.clone(), true);
        f.body.push(set(m, constant(&ty, 7)));
        f.body.push(eval(IrExpr::local(m, ty)));
        last = Some(m);
    }
    let addr = |l| IrExpr {
        ty: Ty::F64.ptr_to(),
        kind: ExprKind::LocalAddr(l),
    };
    let (dst, src) = (last.unwrap(), f.add_local("src", Ty::F64, true));
    f.body.push(
        StmtKind::CopyMem {
            dst: addr(dst),
            src: addr(src),
            size: 8,
        }
        .into(),
    );
    let hint = call(
        Callee::Builtin(Builtin::Prefetch),
        vec![addr(src)],
        Ty::Unit,
    );
    f.body.push(eval(hint));
    for scalar in [ScalarTy::F32, ScalarTy::F64] {
        let vty = Ty::Vector(scalar, (32 / scalar.size()) as u8);
        let (m, v) = (
            f.add_local("vm", vty.clone(), true),
            f.add_local("v", vty.clone(), false),
        );
        let vector = |l| IrExpr::local(l, vty.clone());
        f.body
            .push(set(m, cast(&vty, constant(&Ty::Scalar(scalar), 3))));
        f.body.push(set(v, vector(m)));
        for op in FLOAT_KINDS {
            f.body.push(eval(IrExpr::binary(op, vector(v), vector(v))));
        }
        // The fused multiply-add spelling: `v = v + v * v`.
        let product = IrExpr::binary(BinKind::Mul, vector(v), vector(v));
        f.body
            .push(set(v, IrExpr::binary(BinKind::Add, vector(v), product)));
        // A broadcast straight from memory (of the vector's first lane).
        let lane = IrExpr {
            ty: Ty::Scalar(scalar).ptr_to(),
            kind: ExprKind::LocalAddr(m),
        };
        let loaded = IrExpr {
            ty: Ty::Scalar(scalar),
            kind: ExprKind::Load(Box::new(lane)),
        };
        f.body.push(eval(cast(&vty, loaded)));
    }
    f
}

/// Loops (a narrow `for`, a 64-bit one, a `while` on a flag), a register move, and every
/// kind of call; `callee` is `fn(int64) -> int64`, `kernel` a `parallelfor`
/// kernel without captures.
fn control_program(callee: terra_ir::FuncId, kernel: terra_ir::FuncId) -> IrFunction {
    let mut f = func("control", vec![], Ty::Unit);
    let i = f.add_local("i", Ty::INT, false);
    let flag = f.add_local("flag", Ty::BOOL, false);
    let copy = f.add_local("copy", Ty::BOOL, false);
    f.body
        .push(for_loop(i, IrExpr::int32(0), IrExpr::int32(2), vec![]));
    // A 64-bit counter has nothing to wrap: its back edge is `loop.lt.s`.
    let wide = f.add_local("wide", Ty::I64, false);
    f.body.push(
        StmtKind::For {
            var: wide,
            start: i64e(0),
            stop: i64e(2),
            step: i64e(1),
            body: vec![],
        }
        .into(),
    );
    f.body.push(set(flag, IrExpr::boolean(true)));
    f.body.push(
        StmtKind::While {
            cond: IrExpr::local(flag, Ty::BOOL),
            body: vec![set(flag, IrExpr::boolean(false))],
        }
        .into(),
    );
    f.body.push(set(copy, IrExpr::local(flag, Ty::BOOL)));
    let sig = FuncTy {
        params: vec![Ty::I64],
        ret: Ty::I64,
    };
    let pointer = IrExpr {
        ty: Ty::Func(sig.into()),
        kind: ExprKind::ConstFunc(callee),
    };
    for target in [Callee::Direct(callee), Callee::Indirect(Box::new(pointer))] {
        f.body.push(eval(call(target, vec![i64e(3)], Ty::I64)));
    }
    let sqrt = Callee::Builtin(Builtin::Sqrt);
    f.body
        .push(eval(call(sqrt, vec![IrExpr::f64(4.0)], Ty::F64)));
    f.body.push(
        StmtKind::ParallelFor {
            kernel,
            start: i64e(0),
            stop: i64e(4),
            args: vec![],
        }
        .into(),
    );
    f
}

#[test]
fn every_opcode_is_retired_by_some_program() {
    let mut ctx = ExecutionContext::new();
    ctx.set_profile(true);
    let types = TypeRegistry::new();
    let mut define = |f: IrFunction| {
        let id = ctx.declare(f.name.clone());
        let compiled = compile(&f, &types, &mut ctx, &[]);
        ctx.define(id, compiled);
        id
    };
    let mut callee = func("callee", vec![Ty::I64], Ty::I64);
    callee.body.push(ret(IrExpr::local(LocalId(0), Ty::I64)));
    let callee = define(callee);
    let kernel = define(func("kernel", vec![Ty::I64], Ty::Unit));
    let programs = [
        define(scalar_program()),
        define(memory_program()),
        define(control_program(callee, kernel)),
    ];
    for id in programs {
        assert_eq!(ctx.call(id, &[]), Ok(Value::Unit));
    }
    // The compiler emits `trap` only where it has shown control cannot
    // arrive, so no compiled program retires one: assemble it.
    let unit = FuncTy {
        params: vec![],
        ret: Ty::Unit,
    };
    let trap = terra_vm::CompiledFunction::new("trap", unit, 0, 0, vec![Instr::Trap]).unwrap();
    let id = ctx.declare("trap");
    ctx.define(id, trap);
    assert!(ctx.call(id, &[]).is_err());

    // `chk` is the profiler's pseudo-op row for executed bounds checks.
    let profile = ctx.profile();
    let rows = profile.ops.iter().map(|(op, _)| op.as_str());
    let retired: Vec<&str> = rows.filter(|op| *op != "chk").collect();
    let mut all = terra_vm::MNEMONICS.to_vec();
    all.sort_unstable();
    let missing: Vec<_> = all.iter().filter(|op| !retired.contains(op)).collect();
    assert!(missing.is_empty(), "no program retires {missing:?}");
    assert_eq!(retired, all, "the profile names an opcode the table lacks");
}

// ---------------------------------------------------------------------------
// What a staged kernel writes is what is selected: an address through a
// pointer cast is still an operand, a broadcast of a loaded scalar is one
// load, a prefetch addresses like a load, and a call for its effects leaves
// no value behind.
// ---------------------------------------------------------------------------

/// `f(i)`: lane 1 of `value(&a)`, a `vector(scalar, lanes)`, where the frame
/// array `a : scalar[16]` holds 1 … 16. The vector goes through a second
/// frame array, `out`; `value` is the last statement but one.
fn lane_one_of(scalar: ScalarTy, value: impl Fn(IrExpr) -> IrExpr) -> IrFunction {
    let elem = Ty::Scalar(scalar);
    let vty = Ty::Vector(scalar, (32 / scalar.size()) as u8);
    let array = Ty::Array(std::sync::Arc::new(elem.clone()), 16);
    let mut f = func("lane", vec![Ty::I64], elem.clone());
    let a = f.add_local("a", array.clone(), true);
    let out = f.add_local("out", array, true);
    let base = |l| IrExpr {
        ty: elem.clone().ptr_to(),
        kind: ExprKind::LocalAddr(l),
    };
    let at = |l, t: u64| IrExpr::binary(BinKind::Add, base(l), i64e((t * scalar.size()) as i64));
    for t in 0..16 {
        let (addr, value) = (at(a, t), constant(&elem, t as i32 + 1));
        f.body.push(StmtKind::Store { addr, value }.into());
    }
    let addr = cast(&vty.clone().ptr_to(), base(out));
    let value = value(base(a));
    f.body.push(StmtKind::Store { addr, value }.into());
    let kind = ExprKind::Load(Box::new(at(out, 1)));
    f.body.push(ret(IrExpr { ty: elem, kind }));
    f
}

/// `f` with the address of the vector statement's one load proven in bounds.
fn with_the_load_proven(mut f: IrFunction) -> IrFunction {
    let stmt = &mut f.body[16];
    let mut address = 0;
    stmt.operand_nodes(&mut |i, e| {
        if matches!(e.kind, ExprKind::Load(_)) {
            address = i + 1;
        }
    });
    stmt.proven = vec![address];
    f
}

#[test]
fn an_address_cast_to_another_pointer_type_is_still_an_operand() {
    // @[&vector(double,4)](&a[i] + 32), as `@vector_pointer(&B[n*V])` lowers.
    let vty = Ty::Vector(ScalarTy::F64, 4);
    let f = lane_one_of(ScalarTy::F64, |a| {
        let i = IrExpr::local(LocalId(0), Ty::I64);
        let sum = IrExpr::binary(BinKind::Add, a, scaled(i, 8));
        let addr = cast(
            &vty.clone().ptr_to(),
            IrExpr::binary(BinKind::Add, sum, i64e(32)),
        );
        let (ty, kind) = (vty.clone(), ExprKind::Load(Box::new(addr)));
        IrExpr { ty, kind }
    });
    let the_access = |f: &IrFunction| {
        let code = code_of(f);
        let found = code.iter().find_map(|i| match i {
            Instr::LoadV { m, chk, .. } => Some((*m, *chk)),
            _ => None,
        });
        assert!(
            !code.iter().any(|i| matches!(i, Instr::Lea { .. })),
            "{code:?}"
        );
        found.unwrap_or_else(|| panic!("a vector load: {code:?}"))
    };
    let (m, chk) = the_access(&f);
    assert!(chk && m.b != NO_REG && m.scale == 8 && m.disp == 32, "{m}");
    // The proof is of the cast node, the operand what lies beneath it.
    let (m, chk) = the_access(&with_the_load_proven(f.clone()));
    assert!(!chk && m.scale == 8 && m.disp == 32, "{m}");
    // Lane 1 of a[i + 4 ..]: a[i + 5], which holds i + 6.
    assert_eq!(run(f.clone(), &[Value::Int(0)]), Value::Float(6.0));
    assert_eq!(run(f, &[Value::Int(3)]), Value::Float(9.0));
}

#[test]
fn a_broadcast_of_a_loaded_scalar_is_one_load() {
    for scalar in [ScalarTy::F64, ScalarTy::F32] {
        let elem = Ty::Scalar(scalar);
        let vty = Ty::Vector(scalar, (32 / scalar.size()) as u8);
        // vector_type(a[i]), as `vector_type(A[m * lda])` lowers.
        let f = lane_one_of(scalar, |a| {
            let i = IrExpr::local(LocalId(0), Ty::I64);
            let addr = IrExpr::binary(BinKind::Add, a, scaled(i, scalar.size() as i64));
            let (ty, kind) = (elem.clone(), ExprKind::Load(Box::new(addr)));
            cast(&vty, IrExpr { ty, kind })
        });
        let the_access = |f: &IrFunction| {
            let code = code_of(f);
            let found = code.iter().find_map(|i| match i {
                Instr::LoadSplatF64 { m, chk, .. } if scalar == ScalarTy::F64 => Some((*m, *chk)),
                Instr::LoadSplatF32 { m, chk, .. } if scalar == ScalarTy::F32 => Some((*m, *chk)),
                _ => None,
            });
            let two_steps = |i: &Instr| {
                use Instr::*;
                matches!(
                    i,
                    SplatF64 { .. } | SplatF32 { .. } | LoadF64 { .. } | LoadF32 { .. }
                )
            };
            // (The function's own last load, of the lane it returns, aside.)
            let steps = code.iter().filter(|i| two_steps(i)).count();
            assert_eq!(steps, 1, "{code:?}");
            found.unwrap_or_else(|| panic!("a broadcast load: {code:?}"))
        };
        let (m, chk) = the_access(&f);
        assert!(
            chk && m.b != NO_REG && m.scale as u64 == scalar.size(),
            "{m}"
        );
        assert!(!the_access(&with_the_load_proven(f.clone())).1);
        assert_eq!(run(f.clone(), &[Value::Int(0)]), Value::Float(1.0));
        assert_eq!(run(f, &[Value::Int(11)]), Value::Float(12.0));
    }
    // A broadcast of anything else is computed, then splat.
    let vty = Ty::Vector(ScalarTy::F64, 4);
    let f = lane_one_of(ScalarTy::F64, |_| {
        let i = cast(&Ty::F64, IrExpr::local(LocalId(0), Ty::I64));
        cast(&vty, i)
    });
    let code = code_of(&f);
    assert!(code.iter().any(|i| matches!(i, Instr::SplatF64 { .. })));
    assert!(!code.iter().any(|i| matches!(i, Instr::LoadSplatF64 { .. })));
    assert_eq!(run(f, &[Value::Int(5)]), Value::Float(5.0));
}

#[test]
fn a_prefetch_addresses_like_a_load_and_a_call_for_effect_leaves_no_value() {
    // prefetch(&a[i]); free(malloc(16)); return 7
    let mut f = func("hint", vec![Ty::I64], Ty::INT);
    let a = f.add_local("a", Ty::Array(std::sync::Arc::new(Ty::F64), 4), true);
    let byte_ptr = Ty::U8.ptr_to();
    let base = IrExpr {
        ty: byte_ptr.clone(),
        kind: ExprKind::LocalAddr(a),
    };
    let i = IrExpr::local(LocalId(0), Ty::I64);
    let hinted = IrExpr::binary(BinKind::Add, base, scaled(i, 8));
    let prefetch = Callee::Builtin(Builtin::Prefetch);
    f.body.push(eval(call(prefetch, vec![hinted], Ty::Unit)));
    let size = IrExpr {
        ty: Ty::U64,
        kind: ExprKind::ConstInt(16),
    };
    let block = call(Callee::Builtin(Builtin::Malloc), vec![size], byte_ptr);
    let free = Callee::Builtin(Builtin::Free);
    f.body.push(eval(call(free, vec![block], Ty::Unit)));
    f.body.push(ret(IrExpr::int32(7)));
    let code = code_of(&f);
    let hint = code.iter().find_map(|i| match i {
        Instr::Prefetch { m } => Some(*m),
        _ => None,
    });
    let m = hint.unwrap_or_else(|| panic!("a prefetch: {code:?}"));
    assert!(m.b != NO_REG && m.scale == 8 && m.disp == 0, "{m}");
    // Neither call is followed by the zero a unit value would be.
    let zero = |i: &Instr| matches!(i, Instr::ConstI { v: 0, .. });
    assert!(!code.iter().any(zero), "{code:?}");
    // A hint never traps, however far out it points.
    for i in [0, 3, 1 << 40, -(1 << 40)] {
        assert_eq!(run(f.clone(), &[Value::Int(i)]), Value::Int(7));
    }
}

// ---------------------------------------------------------------------------
// An `int` add, subtract, multiply or left shift wraps inside its own
// instruction; every other width keeps its `trunc`, and a result proven to
// stay in its type is wrapped by nothing.
// ---------------------------------------------------------------------------

/// `f(a, b) = a op b` on `ty`; with `proven` the statement carries the proof
/// that the result stays in `ty` (node 1 is the operation).
fn binop(op: BinKind, ty: &Ty, proven: bool) -> IrFunction {
    let mut f = func("binop", vec![ty.clone(), ty.clone()], ty.clone());
    let [a, b] = [0, 1].map(|l| IrExpr::local(LocalId(l), ty.clone()));
    let mut s = ret(IrExpr::binary(op, a, b));
    s.proven = if proven { vec![1] } else { vec![] };
    f.body = vec![s];
    f
}

#[test]
fn an_int_result_wraps_inside_its_instruction() {
    let selected = |op, ty: &Ty, proven| -> Vec<&'static str> {
        let code = code_of(&binop(op, ty, proven));
        code.iter().map(Instr::mnemonic).collect()
    };
    for (op, fused) in [
        (BinKind::Add, "add.i32"),
        (BinKind::Sub, "sub.i32"),
        (BinKind::Mul, "mul.i32"),
        (BinKind::Shl, "shl.i32"),
    ] {
        assert_eq!(selected(op, &Ty::INT, false), [fused, "ret"], "{op:?}");
    }
    assert_eq!(selected(BinKind::Add, &Ty::I64, false), ["add.i", "ret"]);
    assert_eq!(
        selected(BinKind::Add, &Ty::U8, false),
        ["add.i", "trunc", "ret"]
    );
    let code = code_of(&binop(BinKind::Add, &Ty::U8, false));
    assert_eq!(code[1].to_string(), "trunc r2, r2, w=U8");
    assert_eq!(selected(BinKind::Add, &Ty::INT, true), ["add.i", "ret"]);
    // A remainder cannot leave its operands' type: nothing wraps it.
    assert_eq!(selected(BinKind::Rem, &Ty::INT, false), ["rem.s", "ret"]);

    // The boundary, against Rust's own wrapping arithmetic.
    let (max, min) = (i32::MAX as i64, i32::MIN as i64);
    for (op, a, b, want) in [
        (BinKind::Add, max, 1, i32::MAX.wrapping_add(1)),
        (BinKind::Add, min, -1, i32::MIN.wrapping_add(-1)),
        (BinKind::Sub, min, 1, i32::MIN.wrapping_sub(1)),
        (BinKind::Sub, max, -1, i32::MAX.wrapping_sub(-1)),
        (BinKind::Mul, 65536, 65536, 65536i32.wrapping_mul(65536)),
        (BinKind::Mul, 46341, 46341, 46341i32.wrapping_mul(46341)),
        (BinKind::Mul, max, max, i32::MAX.wrapping_mul(i32::MAX)),
        (BinKind::Shl, 1, 31, 1i32 << 31),
        (BinKind::Shl, 3, 31, 3i32 << 31),
        (BinKind::Shl, -1, 31, -1i32 << 31),
        (BinKind::Shl, 0x1234_5678, 4, 0x1234_5678i32 << 4),
    ] {
        let got = run(binop(op, &Ty::INT, false), &[Value::Int(a), Value::Int(b)]);
        assert_eq!(got, Value::Int(want.into()), "{a} {op:?} {b}");
    }
}
