//! Per-pass behavioral tests for the mid-end pipeline, driven through the
//! public [`terra_ir::optimize`] entry point. These run in debug builds, so
//! any pass that breaks the verifier invariant panics inside `optimize`.

use terra_ir::{
    optimize, verify_function, BinKind, Builtin, Callee, CmpKind, ExprKind, FuncId, FuncTy,
    InlineEnv, IrExpr, IrFunction, IrStmt, LocalId, NoEnv, NoInline, OptLevel, PassConfig,
    PassStats, RemarkKind, StmtKind, Ty, TypeRegistry, UnKind, MAX_CALLER_GROWTH,
    MAX_UNROLL_GROWTH,
};

fn func(params: Vec<Ty>, ret: Ty) -> IrFunction {
    let mut f = IrFunction {
        name: "test".into(),
        ty: FuncTy {
            params: params.clone(),
            ret,
        },
        locals: Vec::new(),
        body: Vec::new(),
        index_range: None,
    };
    for (i, p) in params.into_iter().enumerate() {
        f.add_local(format!("p{i}"), p, false);
    }
    f
}

fn cfg(level: OptLevel, inline: &dyn InlineEnv) -> PassConfig<'_> {
    PassConfig {
        level,
        types: None,
        env: &NoEnv,
        inline,
        summaries: None,
        elide_checks: true,
    }
}

fn run_opt(f: &mut IrFunction, level: OptLevel) -> PassStats {
    let stats = optimize(f, &cfg(level, &NoInline));
    assert!(
        stats.runs.iter().all(|r| !r.reverted),
        "no pass should be reverted: {stats:?}"
    );
    stats
}

/// The names of the passes that reported rewriting something.
fn changed_by(stats: &PassStats) -> Vec<&'static str> {
    let mut names: Vec<_> = stats
        .runs
        .iter()
        .filter(|r| r.changed)
        .map(|r| r.pass)
        .collect();
    names.dedup();
    names
}

/// Counts expression nodes matching `pred` anywhere in the body. Written out
/// variant by variant on purpose: it is the reference the IR's own
/// traversals (`IrStmt::walk`, `IrExpr::walk`) are checked against below.
fn count_exprs(f: &IrFunction, pred: &dyn Fn(&ExprKind) -> bool) -> usize {
    fn expr(e: &IrExpr, pred: &dyn Fn(&ExprKind) -> bool, n: &mut usize) {
        if pred(&e.kind) {
            *n += 1;
        }
        match &e.kind {
            ExprKind::Load(a) | ExprKind::Cast(a) => expr(a, pred, n),
            ExprKind::Unary { expr: a, .. } => expr(a, pred, n),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Cmp { lhs, rhs, .. } => {
                expr(lhs, pred, n);
                expr(rhs, pred, n);
            }
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                expr(cond, pred, n);
                expr(then_value, pred, n);
                expr(else_value, pred, n);
            }
            ExprKind::Call { callee, args } => {
                if let Callee::Indirect(p) = callee {
                    expr(p, pred, n);
                }
                args.iter().for_each(|a| expr(a, pred, n));
            }
            _ => {}
        }
    }
    fn block(stmts: &[IrStmt], pred: &dyn Fn(&ExprKind) -> bool, n: &mut usize) {
        for s in stmts {
            match &s.kind {
                StmtKind::Assign { value, .. } => expr(value, pred, n),
                StmtKind::Store { addr, value } => {
                    expr(addr, pred, n);
                    expr(value, pred, n);
                }
                StmtKind::CopyMem { dst, src, .. } => {
                    expr(dst, pred, n);
                    expr(src, pred, n);
                }
                StmtKind::Expr(e) => expr(e, pred, n),
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    expr(cond, pred, n);
                    block(then_body, pred, n);
                    block(else_body, pred, n);
                }
                StmtKind::While { cond, body } => {
                    expr(cond, pred, n);
                    block(body, pred, n);
                }
                StmtKind::For {
                    start,
                    stop,
                    step,
                    body,
                    ..
                } => {
                    expr(start, pred, n);
                    expr(stop, pred, n);
                    expr(step, pred, n);
                    block(body, pred, n);
                }
                StmtKind::ParallelFor {
                    start, stop, args, ..
                } => {
                    expr(start, pred, n);
                    expr(stop, pred, n);
                    args.iter().for_each(|a| expr(a, pred, n));
                }
                StmtKind::Return(Some(e)) => expr(e, pred, n),
                StmtKind::Return(None) | StmtKind::Break => {}
            }
        }
    }
    let mut n = 0;
    block(&f.body, pred, &mut n);
    n
}

fn assign(dst: LocalId, value: IrExpr) -> IrStmt {
    IrStmt::new(StmtKind::Assign { dst, value })
}

fn ret(e: IrExpr) -> IrStmt {
    IrStmt::new(StmtKind::Return(Some(e)))
}

#[test]
fn o0_is_identity() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let p = LocalId(0);
    let t = f.add_local("t", Ty::INT, false);
    f.body = vec![
        assign(
            t,
            IrExpr::binary(BinKind::Mul, IrExpr::local(p, Ty::INT), IrExpr::int32(8)),
        ),
        ret(IrExpr::local(t, Ty::INT)),
    ];
    let before = f.clone();
    let stats = optimize(&mut f, &cfg(OptLevel::O0, &NoInline));
    assert_eq!(f, before);
    assert!(stats.runs.is_empty());
}

#[test]
fn fold_strength_reduces_mul_by_power_of_two() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let p = LocalId(0);
    f.body = vec![ret(IrExpr::binary(
        BinKind::Mul,
        IrExpr::local(p, Ty::INT),
        IrExpr::int32(8),
    ))];
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(changed_by(&stats), ["fold"]);
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Mul,
                ..
            }
        )),
        0,
        "x*8 should become a shift: {f:?}"
    );
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Shl,
                ..
            }
        )),
        1
    );
}

#[test]
fn o2_recomputes_an_expression_after_a_clobber() {
    // a = p0*p1; p0 = 7; b = p0*p1 — the second product reads the new p0.
    let mut f = func(vec![Ty::INT, Ty::INT], Ty::INT);
    let (p0, p1) = (LocalId(0), LocalId(1));
    let a = f.add_local("a", Ty::INT, false);
    let b = f.add_local("b", Ty::INT, false);
    let prod = || {
        IrExpr::binary(
            BinKind::Mul,
            IrExpr::local(p0, Ty::INT),
            IrExpr::local(p1, Ty::INT),
        )
    };
    f.body = vec![
        assign(a, prod()),
        assign(p0, IrExpr::int32(7)),
        assign(b, prod()),
        ret(IrExpr::binary(
            BinKind::Add,
            IrExpr::local(a, Ty::INT),
            IrExpr::local(b, Ty::INT),
        )),
    ];
    run_opt(&mut f, OptLevel::O2);
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Mul,
                ..
            }
        )),
        2,
        "clobbered expression must be recomputed: {f:?}"
    );
}

#[test]
fn o2_recomputes_an_expression_after_a_self_referential_assign() {
    // x = x + 1; y = x + 1; return y — the second `x + 1` reads the new x,
    // so it must stay an Add and not collapse into a plain read of x.
    let mut f = func(vec![Ty::INT], Ty::INT);
    let x = LocalId(0);
    let y = f.add_local("y", Ty::INT, false);
    let x_plus_1 = || IrExpr::binary(BinKind::Add, IrExpr::local(x, Ty::INT), IrExpr::int32(1));
    f.body = vec![
        assign(x, x_plus_1()),
        assign(y, x_plus_1()),
        ret(IrExpr::local(y, Ty::INT)),
    ];
    run_opt(&mut f, OptLevel::O2);
    let second_is_copy_of_x = f.body.iter().any(|s| match &s.kind {
        StmtKind::Return(Some(e)) => e.kind == ExprKind::Local(x),
        StmtKind::Assign { dst, value } => *dst == y && value.kind == ExprKind::Local(x),
        _ => false,
    });
    assert!(
        !second_is_copy_of_x,
        "y = x+1 after x = x+1 became a read of x: {f:?}"
    );
}

#[test]
fn copyprop_forwards_through_copies() {
    // y = x; z = y; return z  →  return x
    let mut f = func(vec![Ty::INT], Ty::INT);
    let x = LocalId(0);
    let y = f.add_local("y", Ty::INT, false);
    let z = f.add_local("z", Ty::INT, false);
    f.body = vec![
        assign(y, IrExpr::local(x, Ty::INT)),
        assign(z, IrExpr::local(y, Ty::INT)),
        ret(IrExpr::local(z, Ty::INT)),
    ];
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(changed_by(&stats), ["copyprop", "dce"]);
    assert_eq!(
        f.body.len(),
        1,
        "copies should be propagated and DCE'd: {f:?}"
    );
    assert!(matches!(
        &f.body[0].kind,
        StmtKind::Return(Some(e)) if e.kind == ExprKind::Local(x)
    ));
}

#[test]
fn dce_removes_dead_assign_keeps_observable_effects() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let p = LocalId(0);
    let dead = f.add_local("dead", Ty::INT, false);
    let risky = f.add_local("risky", Ty::INT, false);
    f.body = vec![
        // Dead: pure value, never read.
        assign(
            dead,
            IrExpr::binary(BinKind::Add, IrExpr::local(p, Ty::INT), IrExpr::int32(1)),
        ),
        // Not removable even though unread: division may trap at runtime.
        assign(
            risky,
            IrExpr::binary(BinKind::Div, IrExpr::int32(1), IrExpr::local(p, Ty::INT)),
        ),
        ret(IrExpr::local(p, Ty::INT)),
    ];
    let stats = run_opt(&mut f, OptLevel::O2);
    assert!(changed_by(&stats).contains(&"dce"));
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Add,
                ..
            }
        )),
        0,
        "dead pure assign must go: {f:?}"
    );
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Div,
                ..
            }
        )),
        1,
        "possibly-trapping division must stay: {f:?}"
    );
}

#[test]
fn dce_prunes_code_after_return() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let p = LocalId(0);
    let t = f.add_local("t", Ty::INT, false);
    f.body = vec![
        ret(IrExpr::local(p, Ty::INT)),
        assign(t, IrExpr::int32(1)),
        ret(IrExpr::local(t, Ty::INT)),
    ];
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(changed_by(&stats), ["dce"]);
    assert_eq!(f.body.len(), 1, "unreachable tail must be pruned: {f:?}");
}

#[test]
fn licm_hoists_invariant_multiply_out_of_loop() {
    // for i = 0, n: acc = acc + a*b  — a*b moves out; i*1 stays (writes i).
    let mut f = func(vec![Ty::INT, Ty::INT, Ty::INT], Ty::INT);
    let (a, b, n) = (LocalId(0), LocalId(1), LocalId(2));
    let acc = f.add_local("acc", Ty::INT, false);
    let i = f.add_local("i", Ty::INT, false);
    let invariant = IrExpr::binary(
        BinKind::Mul,
        IrExpr::local(a, Ty::INT),
        IrExpr::local(b, Ty::INT),
    );
    f.body = vec![
        assign(acc, IrExpr::int32(0)),
        IrStmt::new(StmtKind::For {
            var: i,
            start: IrExpr::int32(0),
            stop: IrExpr::local(n, Ty::INT),
            step: IrExpr::int32(1),
            body: vec![assign(
                acc,
                IrExpr::binary(BinKind::Add, IrExpr::local(acc, Ty::INT), invariant),
            )],
        }),
        ret(IrExpr::local(acc, Ty::INT)),
    ];
    let stats = run_opt(&mut f, OptLevel::O2);
    assert!(changed_by(&stats).contains(&"licm"));
    // The multiply must not be inside the loop body anymore.
    let in_loop = f
        .body
        .iter()
        .find_map(|s| match &s.kind {
            StmtKind::For { body, .. } => Some(body),
            _ => None,
        })
        .expect("loop survives");
    let mut probe = func(vec![], Ty::Unit);
    probe.body = in_loop.clone();
    assert_eq!(
        count_exprs(&probe, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Mul,
                ..
            }
        )),
        0,
        "invariant multiply must be hoisted: {f:?}"
    );
    assert_eq!(
        count_exprs(&f, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Mul,
                ..
            }
        )),
        1,
        "hoisted multiply executes once, before the loop: {f:?}"
    );
}

#[test]
fn inline_replaces_small_leaf_call() {
    // callee: add1(x) = x + 1
    let mut callee = func(vec![Ty::INT], Ty::INT);
    callee.name = "add1".into();
    callee.body = vec![ret(IrExpr::binary(
        BinKind::Add,
        IrExpr::local(LocalId(0), Ty::INT),
        IrExpr::int32(1),
    ))];
    // caller: r = add1(p); return r
    let mut caller = func(vec![Ty::INT], Ty::INT);
    let p = LocalId(0);
    let r = caller.add_local("r", Ty::INT, false);
    caller.body = vec![
        assign(
            r,
            IrExpr {
                ty: Ty::INT,
                kind: ExprKind::Call {
                    callee: Callee::Direct(FuncId(0)),
                    args: vec![IrExpr::local(p, Ty::INT)],
                },
            },
        ),
        ret(IrExpr::local(r, Ty::INT)),
    ];
    let env = Callees(vec![callee]);
    let stats = optimize(&mut caller, &cfg(OptLevel::O2, &env));
    assert!(stats.runs.iter().any(|r| r.pass == "inline" && r.changed));
    assert_eq!(
        count_exprs(&caller, &|k| matches!(k, ExprKind::Call { .. })),
        0,
        "call must be inlined away: {caller:?}"
    );
    assert_eq!(
        count_exprs(&caller, &|k| matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Add,
                ..
            }
        )),
        1
    );
}

/// Callee `i` is `FuncId(i)`.
struct Callees(Vec<IrFunction>);

impl InlineEnv for Callees {
    fn callee_ir(&self, id: FuncId) -> Option<IrFunction> {
        self.0.get(id.0 as usize).cloned()
    }
}

/// A direct call of `FuncId(id)`.
fn call(id: u32, args: Vec<IrExpr>, ty: Ty) -> IrExpr {
    IrExpr::call(ty, Callee::Direct(FuncId(id)), args)
}

/// `name(x : int) : int` whose body is `body(x)`.
fn unary(name: &str, body: impl FnOnce(IrExpr) -> Vec<IrStmt>) -> IrFunction {
    let mut f = func(vec![Ty::INT], Ty::INT);
    f.name = name.into();
    f.body = body(IrExpr::local(LocalId(0), Ty::INT));
    f
}

/// `name(x) = return callee(x)`, the return at `line`.
fn forwarder(name: &str, callee: u32, line: u32) -> IrFunction {
    unary(name, |x| {
        vec![IrStmt::at(
            span(line),
            StmtKind::Return(Some(call(callee, vec![x], Ty::INT))),
        )]
    })
}

fn span(line: u32) -> terra_syntax::Span {
    terra_syntax::Span {
        start: 0,
        end: 0,
        line,
    }
}

/// `r = callee(p0); return r`, the call at line 10, optimized at `-O2`
/// against `env`; returns the caller and the inliner's remarks as
/// `(applied, line, message, chain)`.
fn inline_into_caller(
    callee: u32,
    env: &dyn InlineEnv,
) -> (IrFunction, Vec<(bool, u32, String, String)>) {
    let mut caller = func(vec![Ty::INT], Ty::INT);
    let r = caller.add_local("r", Ty::INT, false);
    caller.body = vec![
        IrStmt::at(
            span(10),
            StmtKind::Assign {
                dst: r,
                value: call(callee, vec![IrExpr::local(LocalId(0), Ty::INT)], Ty::INT),
            },
        ),
        ret(IrExpr::local(r, Ty::INT)),
    ];
    let stats = optimize(&mut caller, &cfg(OptLevel::O2, env));
    let remarks = stats
        .remarks
        .iter()
        .filter(|r| r.pass == "inline")
        .map(|r| {
            (
                r.kind == RemarkKind::Applied,
                r.line,
                r.message.clone(),
                r.prov.as_ref().map_or(String::new(), |p| p.describe()),
            )
        })
        .collect();
    (caller, remarks)
}

fn calls_in(f: &IrFunction) -> usize {
    count_exprs(f, &|k| matches!(k, ExprKind::Call { .. }))
}

/// `w2(x) = return w1(x)`, `w1(x) = return add1(x)`: one run inlines all
/// three, outer splice first, and each nested remark names the sites it
/// was copied through.
#[test]
fn a_wrapper_of_a_wrapper_is_inlined_in_one_run() {
    let add1 = unary("add1", |x| {
        vec![IrStmt::at(
            span(30),
            StmtKind::Return(Some(IrExpr::binary(BinKind::Add, x, IrExpr::int32(1)))),
        )]
    });
    let env = Callees(vec![add1, forwarder("w1", 0, 20), forwarder("w2", 1, 40)]);
    let (caller, remarks) = inline_into_caller(2, &env);
    assert_eq!(calls_in(&caller), 0, "{caller:?}");
    let applied: Vec<_> = remarks
        .iter()
        .map(|(a, line, m, chain)| (*a, *line, m.as_str(), chain.as_str()))
        .collect();
    assert_eq!(
        applied,
        [
            (true, 10, "inlined 'w2' (3 IR nodes)", ""),
            (true, 40, "inlined 'w1' (3 IR nodes)", "inlined at line 10"),
            (
                true,
                20,
                "inlined 'add1' (4 IR nodes)",
                "inlined at line 40, inlined at line 10"
            ),
        ]
    );
}

/// What the inliner said about the one call site of [`inline_into_caller`].
fn refusal_of(callee: u32, env: &dyn InlineEnv) -> String {
    let (caller, remarks) = inline_into_caller(callee, env);
    assert_eq!(calls_in(&caller), 1, "the call stays: {caller:?}");
    match &remarks[..] {
        [(false, 10, m, _)] => m.clone(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn inline_skips_recursive_callee() {
    // f(x) = f(x): its frames are the recursion depth, at every level.
    let env = Callees(vec![forwarder("f", 0, 1)]);
    assert_eq!(
        refusal_of(0, &env),
        "call to 'f' not inlined: callee is recursive (reaches itself through direct calls)"
    );
    // even(x) = odd(x), odd(x) = even(x): the same through two functions —
    // and through the caller, were it `odd`: a callee that reaches the
    // function calling it reaches itself.
    let env = Callees(vec![forwarder("even", 1, 1), forwarder("odd", 0, 2)]);
    assert_eq!(
        refusal_of(0, &env),
        "call to 'even' not inlined: callee is recursive (reaches itself through direct calls)"
    );
    // A callee that calls something whose body is unknown might reach
    // anything, the caller included.
    let env = Callees(vec![forwarder("f", 7, 1)]);
    assert_eq!(
        refusal_of(0, &env),
        "call to 'f' not inlined: callee reaches a function whose body is not available"
    );
}

/// A `parallelfor` site is keyed by the function that encloses it, so a
/// function containing one keeps its frame.
#[test]
fn a_callee_with_a_parallelfor_is_refused() {
    let par = unary("par", |x| {
        vec![
            IrStmt::new(StmtKind::ParallelFor {
                kernel: FuncId(1),
                start: IrExpr::int32(0),
                stop: x.clone(),
                args: Vec::new(),
            }),
            ret(x),
        ]
    });
    let kernel = func(vec![Ty::INT], Ty::Unit);
    let env = Callees(vec![par, kernel]);
    assert_eq!(
        refusal_of(0, &env),
        "call to 'par' not inlined: callee contains a parallelfor"
    );
}

/// A caller gains at most `MAX_CALLER_GROWTH` nodes: the splice that would
/// cross it is refused, with the arithmetic in the remark, and so is every
/// later one.
#[test]
fn the_growth_budget_stops_inlining_with_a_remark() {
    // add(x) = x + 1 + 1 + …: 40 nodes.
    let add = unary("add", |x| {
        let mut e = x;
        while count_nodes_of(&e) < 38 {
            e = IrExpr::binary(BinKind::Add, e, IrExpr::int32(1));
        }
        vec![ret(e)]
    });
    let nodes = terra_ir::passes::util::count_nodes(&add);
    let fit = MAX_CALLER_GROWTH / nodes;
    let mut caller = func(vec![Ty::INT], Ty::INT);
    let p = IrExpr::local(LocalId(0), Ty::INT);
    caller.body = (0..fit + 2)
        .map(|_| IrStmt::new(StmtKind::Expr(call(0, vec![p.clone()], Ty::INT))))
        .chain([ret(p.clone())])
        .collect();
    let stats = optimize(&mut caller, &cfg(OptLevel::O2, &Callees(vec![add])));
    let inline: Vec<_> = stats
        .remarks
        .iter()
        .filter(|r| r.pass == "inline")
        .collect();
    assert_eq!(inline.len(), fit + 2);
    assert!(inline[..fit].iter().all(|r| r.kind == RemarkKind::Applied));
    assert_eq!(
        inline[fit].message,
        format!(
            "call to 'add' not inlined: caller growth budget spent ({} + {nodes} > {MAX_CALLER_GROWTH})",
            fit * nodes
        )
    );
    assert_eq!(inline[fit + 1].kind, RemarkKind::Missed);
    assert_eq!(calls_in(&caller), 2);
}

fn count_nodes_of(e: &IrExpr) -> usize {
    let mut n = 0;
    e.walk(&mut |_| n += 1);
    n
}

/// A dispatch stub — `stub(fp, x) = return fp(x)` — goes in; its call stays
/// one indirect call, through the caller's own operands.
#[test]
fn a_callee_with_an_indirect_call_is_inlined_and_keeps_its_operands() {
    let fn_ty = Ty::Func(std::sync::Arc::new(FuncTy {
        params: vec![Ty::INT],
        ret: Ty::INT,
    }));
    let mut stub = func(vec![fn_ty.clone(), Ty::INT], Ty::INT);
    stub.name = "stub".into();
    stub.body = vec![ret(IrExpr {
        ty: Ty::INT,
        kind: ExprKind::Call {
            callee: Callee::Indirect(Box::new(IrExpr::local(LocalId(0), fn_ty.clone()))),
            args: vec![IrExpr::local(LocalId(1), Ty::INT)],
        },
    })];
    let mut caller = func(vec![fn_ty.clone(), Ty::INT], Ty::INT);
    caller.body = vec![ret(call(
        0,
        vec![
            IrExpr::local(LocalId(0), fn_ty.clone()),
            IrExpr::local(LocalId(1), Ty::INT),
        ],
        Ty::INT,
    ))];
    let stats = optimize(&mut caller, &cfg(OptLevel::O2, &Callees(vec![stub])));
    assert!(stats
        .remarks
        .iter()
        .any(|r| r.message == "inlined 'stub' (4 IR nodes)"));
    assert_eq!(
        caller.body.last().map(|s| &s.kind),
        Some(&StmtKind::Return(Some(IrExpr {
            ty: Ty::INT,
            kind: ExprKind::Call {
                callee: Callee::Indirect(Box::new(IrExpr::local(LocalId(0), fn_ty))),
                args: vec![IrExpr::local(LocalId(1), Ty::INT)],
            },
        }))),
        "{caller:?}"
    );
    assert_eq!(calls_in(&caller), 1);
}

#[test]
fn pipeline_reports_per_pass_timing() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    f.body = vec![ret(IrExpr::binary(
        BinKind::Mul,
        IrExpr::local(LocalId(0), Ty::INT),
        IrExpr::int32(4),
    ))];
    let stats = optimize(&mut f, &cfg(OptLevel::O2, &NoInline));
    let names: Vec<_> = stats.runs.iter().map(|r| r.pass).collect();
    assert_eq!(
        names,
        [
            "inline",
            "fold",
            "unroll",
            "affine",
            "licm",
            "copyprop",
            "dce",
            "checkelim"
        ]
    );
    assert!(stats.runs.iter().any(|r| r.changed), "fold should fire");
}

#[test]
fn fold_reports_what_it_folded() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    f.body = vec![ret(IrExpr::binary(
        BinKind::Add,
        IrExpr::local(LocalId(0), Ty::INT),
        IrExpr::binary(BinKind::Add, IrExpr::int32(2), IrExpr::int32(3)),
    ))];
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(changed_by(&stats), ["fold"]);
}

#[test]
fn checkelim_reports_what_it_stamped() {
    // var slot : int (in memory); slot = 5 through its address; return p0.
    let mut f = func(vec![Ty::INT], Ty::INT);
    let slot = f.add_local("slot", Ty::INT, true);
    f.body = vec![
        IrStmt::new(StmtKind::Store {
            addr: IrExpr {
                ty: Ty::INT.ptr_to(),
                kind: ExprKind::LocalAddr(slot),
            },
            value: IrExpr::int32(5),
        }),
        ret(IrExpr::local(LocalId(0), Ty::INT)),
    ];
    let types = TypeRegistry::new();
    let config = PassConfig {
        types: Some(&types),
        ..cfg(OptLevel::O2, &NoInline)
    };
    let stats = optimize(&mut f, &config);
    assert_eq!(changed_by(&stats), ["checkelim"]);
    assert_eq!(
        f.body[0].proven,
        [1],
        "the store's address is proven: {f:?}"
    );

    // With elision off the pass runs but stamps nothing, and the proof the
    // input carried does not survive the run.
    let mut g = f.clone();
    let stats = optimize(
        &mut g,
        &PassConfig {
            elide_checks: false,
            ..config
        },
    );
    assert!(changed_by(&stats).is_empty());
    assert!(g.body[0].proven.is_empty());
}

/// A proof names a node by position, so it holds for one shape of its
/// statement and one configuration: every run of the pipeline starts from
/// none, whatever its input carried, and ends with its own.
#[test]
fn reoptimizing_stamped_ir_keeps_no_stale_proof() {
    // `slot[1] = 5` with `slot : int[4]`: the address (node 1) is proven.
    let mut f = func(vec![Ty::INT], Ty::INT);
    let slot = f.add_local("slot", Ty::Array(Ty::INT.into(), 4), true);
    let int64 = |kind| IrExpr { ty: Ty::I64, kind };
    let elem = IrExpr {
        ty: Ty::INT.ptr_to(),
        kind: ExprKind::Binary {
            op: BinKind::Add,
            lhs: Box::new(IrExpr {
                ty: Ty::INT.ptr_to(),
                kind: ExprKind::LocalAddr(slot),
            }),
            rhs: Box::new(int64(ExprKind::ConstInt(4))),
        },
    };
    f.body = vec![
        IrStmt::new(StmtKind::Store {
            addr: elem,
            value: IrExpr::int32(5),
        }),
        ret(IrExpr::local(LocalId(0), Ty::INT)),
    ];
    let types = TypeRegistry::new();
    let config = PassConfig {
        types: Some(&types),
        ..cfg(OptLevel::O2, &NoInline)
    };
    optimize(&mut f, &config);
    let stamped = f.body[0].proven.clone();
    assert_eq!(stamped, [1], "the store's address is proven: {f:?}");

    // The same run again finds the same proofs, not the old ones on top.
    let mut again = f.clone();
    optimize(&mut again, &config);
    assert_eq!(again.body[0].proven, stamped);

    // Rewritten since — the store now goes to `slot + p0 * 4`, which
    // nothing bounds, at the position the proven address had — and re-run
    // with and without the pass that could tell: no run vouches for it.
    let StmtKind::Store { addr, .. } = &mut f.body[0].kind else {
        panic!("the store survives: {f:?}");
    };
    let ExprKind::Binary { rhs, .. } = &mut addr.kind else {
        panic!("the address is still an add: {addr:?}");
    };
    let p0 = int64(ExprKind::Cast(Box::new(IrExpr::local(LocalId(0), Ty::INT))));
    **rhs = IrExpr::binary(BinKind::Mul, p0, int64(ExprKind::ConstInt(4)));
    for (level, elide_checks) in [
        (OptLevel::O2, true),
        (OptLevel::O2, false),
        (OptLevel::O1, true),
        (OptLevel::O0, true),
    ] {
        let mut g = f.clone();
        let stats = optimize(
            &mut g,
            &PassConfig {
                level,
                elide_checks,
                types: Some(&types),
                ..cfg(level, &NoInline)
            },
        );
        assert!(
            g.body[0].proven.is_empty(),
            "{level:?}, elision {elide_checks}: {g:?} after {:?}",
            stats.runs
        );
    }
}

/// `for i = start, stop, step do x = i * k + p0 end`, optimized; returns the
/// proofs of the loop and of the assignment in it, and the remark messages.
/// The loops below run more trips than `unroll` takes, so they stay loops.
fn wrap_proofs(start: i32, stop: IrExpr, step: i32, k: i32) -> (Vec<u32>, Vec<u32>, Vec<String>) {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let x = f.add_local("x", Ty::INT, false);
    let i = f.add_local("i", Ty::INT, false);
    // Node 1 is the add, node 2 the multiply.
    let value = IrExpr::binary(
        BinKind::Add,
        IrExpr::binary(BinKind::Mul, IrExpr::local(i, Ty::INT), IrExpr::int32(k)),
        IrExpr::local(LocalId(0), Ty::INT),
    );
    f.body = vec![
        IrStmt::new(StmtKind::For {
            var: i,
            start: IrExpr::int32(start),
            stop,
            step: IrExpr::int32(step),
            body: vec![IrStmt::new(StmtKind::Assign { dst: x, value })],
        }),
        ret(IrExpr::local(x, Ty::INT)),
    ];
    let stats = optimize(&mut f, &cfg(OptLevel::O2, &NoInline));
    let StmtKind::For { body, .. } = &f.body[0].kind else {
        panic!("the loop survives: {f:?}");
    };
    let messages = stats.remarks.iter().map(|r| r.message.clone()).collect();
    (f.body[0].proven.clone(), body[0].proven.clone(), messages)
}

#[test]
fn checkelim_proves_a_wrap_away_only_where_the_range_says_so() {
    // i in [0, 99]: `i * 3` fits, the increment fits; `... + p0` does not
    // (p0 is any int), and the remark names it.
    let (on_loop, on_assign, remarks) = wrap_proofs(0, IrExpr::int32(100), 1, 3);
    assert_eq!((on_loop, on_assign), (vec![0], vec![2]), "{remarks:?}");
    assert!(
        remarks.iter().any(|m| m.contains("wrap check(s) elided")),
        "{remarks:?}"
    );
    assert!(
        remarks
            .iter()
            .any(|m| m.contains("wrap check kept") && m.contains("'p0' is unbounded")),
        "{remarks:?}"
    );
    // i * 2^26 fits for i in [-32, 31] and reaches 2^31 at i = 32: one past
    // what fits.
    let (_, on_assign, _) = wrap_proofs(-32, IrExpr::int32(33), 1, 1 << 26);
    assert!(on_assign.is_empty());
    let (_, on_assign, _) = wrap_proofs(-32, IrExpr::int32(32), 1, 1 << 26);
    assert_eq!(on_assign, [2]);
    // A runtime bound: `i < p0 <= MAX`, so `i + 1` cannot wrap, but `i * 3`
    // can.
    let (on_loop, on_assign, _) = wrap_proofs(0, IrExpr::local(LocalId(0), Ty::INT), 1, 3);
    assert_eq!((on_loop, on_assign), (vec![0], vec![]));
    // With a step of 2 it can: `MAX - 1 + 2`.
    let (on_loop, _, remarks) = wrap_proofs(0, IrExpr::local(LocalId(0), Ty::INT), 2, 3);
    assert!(on_loop.is_empty(), "{remarks:?}");
}

/// A `parallelfor` kernel's index is bounded by the constant range of its
/// one site, where the typechecker recorded one; a shift of a negative range
/// is the multiplication it stands for.
#[test]
fn a_kernel_index_starts_from_its_sites_range() {
    let stamped = |index_range, scale: IrExpr, op| {
        let mut f = func(vec![Ty::INT], Ty::Unit);
        f.index_range = index_range;
        let x = f.add_local("x", Ty::INT, false);
        // Node 1 is the product; the store keeps it alive.
        let product = IrExpr::binary(op, IrExpr::local(LocalId(0), Ty::INT), scale);
        let slot = f.add_local("slot", Ty::INT, true);
        f.body = vec![
            assign(x, product),
            IrStmt::new(StmtKind::Store {
                addr: IrExpr {
                    ty: Ty::INT.ptr_to(),
                    kind: ExprKind::LocalAddr(slot),
                },
                value: IrExpr::local(x, Ty::INT),
            }),
        ];
        optimize_with_layouts(&mut f, true);
        let mut proven = Vec::new();
        IrStmt::walk(&f.body, &mut |s| {
            let product = |e: &IrExpr| matches!(e.kind, ExprKind::Binary { .. });
            let mut at = Vec::new();
            s.operand_nodes(&mut |i, e| {
                if product(e) {
                    at.push(i);
                }
            });
            proven.extend(at.iter().map(|i| s.proven.contains(i)));
        });
        proven
    };
    let big = IrExpr::int32(1 << 20);
    assert_eq!(stamped(None, big.clone(), BinKind::Mul), [false]);
    assert_eq!(stamped(Some((1, 255)), big.clone(), BinKind::Mul), [true]);
    assert_eq!(
        stamped(Some((-255, 255)), IrExpr::int32(20), BinKind::Shl),
        [true]
    );
    // 2^11 * 2^20 leaves `int`; an empty range claims nothing.
    assert_eq!(stamped(Some((1, 2049)), big.clone(), BinKind::Mul), [false]);
    assert_eq!(stamped(Some((5, 5)), big, BinKind::Mul), [false]);
}

// ------------------------------------------------ affine address splitting

/// `for i = 0, rows do for k = 0, 32 do acc = acc + a[index(i, k, &t)] end
/// end` over frame arrays `a : double[512]` and `t : int[32]`; `rows` is the
/// constant 16 or, when `staged` is off, the parameter. Both loops run more
/// trips than `unroll` takes, so they stay loops.
fn matrix_walk(staged: bool, index: impl Fn(IrExpr, IrExpr, IrExpr) -> IrExpr) -> IrFunction {
    let mut f = func(vec![Ty::INT], Ty::F64);
    let a = f.add_local("a", Ty::Array(std::sync::Arc::new(Ty::F64), 512), true);
    let t = f.add_local("t", Ty::Array(std::sync::Arc::new(Ty::INT), 32), true);
    let acc = f.add_local("acc", Ty::F64, false);
    let (i, k) = (
        f.add_local("i", Ty::INT, false),
        f.add_local("k", Ty::INT, false),
    );
    let local = |l| IrExpr::local(l, Ty::INT);
    let ptr = |kind| IrExpr {
        ty: Ty::F64.ptr_to(),
        kind,
    };
    let addr = ptr(ExprKind::Binary {
        op: BinKind::Add,
        lhs: Box::new(ptr(ExprKind::LocalAddr(a))),
        rhs: Box::new(index(
            local(i),
            local(k),
            IrExpr {
                ty: Ty::INT.ptr_to(),
                kind: ExprKind::LocalAddr(t),
            },
        )),
    });
    let element = IrExpr::load(Ty::F64, addr);
    let sum = IrExpr::binary(BinKind::Add, IrExpr::local(acc, Ty::F64), element);
    let nest = |var, stop, body| {
        IrStmt::new(StmtKind::For {
            var,
            start: IrExpr::int32(0),
            stop,
            step: IrExpr::int32(1),
            body,
        })
    };
    let rows = if staged {
        IrExpr::int32(16)
    } else {
        local(LocalId(0))
    };
    let inner = nest(k, IrExpr::int32(32), vec![assign(acc, sum)]);
    f.body = vec![nest(i, rows, vec![inner]), ret(IrExpr::local(acc, Ty::F64))];
    f
}

/// `int64(i * 32 + k) * 8`: the byte offset of `a[i][k]`, computed in `int`.
fn row_major(i: IrExpr, k: IrExpr, _: IrExpr) -> IrExpr {
    let flat = IrExpr::binary(
        BinKind::Add,
        IrExpr::binary(BinKind::Mul, i, IrExpr::int32(32)),
        k,
    );
    let wide = IrExpr {
        ty: Ty::I64,
        kind: ExprKind::Cast(Box::new(flat)),
    };
    IrExpr::binary(BinKind::Mul, wide, IrExpr::int64(8))
}

/// The load addresses left in `f`, and what was hoisted into `$licm` locals.
fn addresses_and_hoists(f: &IrFunction) -> (Vec<IrExpr>, Vec<IrExpr>) {
    let (mut addrs, mut hoists) = (Vec::new(), Vec::new());
    IrStmt::walk_exprs(&f.body, &mut |e| {
        if let ExprKind::Load(a) = &e.kind {
            addrs.push((**a).clone());
        }
    });
    IrStmt::walk(&f.body, &mut |s| {
        if let StmtKind::Assign { dst, value } = &s.kind {
            if f.locals[dst.0 as usize].name.starts_with("$licm") {
                hoists.push(value.clone());
            }
        }
    });
    (addrs, hoists)
}

fn optimize_with_layouts(f: &mut IrFunction, elide_checks: bool) -> PassStats {
    let types = TypeRegistry::new();
    let config = PassConfig {
        types: Some(&types),
        elide_checks,
        ..cfg(OptLevel::O2, &NoInline)
    };
    optimize(f, &config)
}

#[test]
fn affine_splits_a_proven_address_so_that_licm_hoists_the_row() {
    let mut f = matrix_walk(true, row_major);
    let stats = optimize_with_layouts(&mut f, true);
    assert!(changed_by(&stats).contains(&"affine"), "{stats:?}");
    assert!(
        stats.remarks.iter().any(|r| r.pass == "affine"),
        "{:?}",
        stats.remarks
    );
    // What is left in the `k` loop is `row + (int64(k) << 3)`; the row is
    // `&a + (int64(i) << 8)`, computed once per `i`.
    let (addrs, hoists) = addresses_and_hoists(&f);
    let dump = terra_ir::dump_function(&f);
    let [addr] = &addrs[..] else {
        panic!("one load: {dump}");
    };
    let ExprKind::Binary { lhs, rhs, .. } = &addr.kind else {
        panic!("a sum: {dump}");
    };
    assert!(matches!(lhs.kind, ExprKind::Local(_)), "{dump}");
    assert!(
        matches!(&rhs.kind, ExprKind::Binary { op: BinKind::Shl, rhs: by, .. }
            if by.int_const() == Some(3)),
        "{dump}"
    );
    let [row] = &hoists[..] else {
        panic!("one hoisted row pointer: {dump}");
    };
    assert!(row.ty.is_pointer(), "{dump}");
    assert!(row.any(&mut |e| matches!(e.kind, ExprKind::LocalAddr(_))));
    // No narrow arithmetic is left to wrap, and the access keeps its proof
    // through the hoisted pointer.
    let narrow = |k: &ExprKind| {
        matches!(
            k,
            ExprKind::Binary {
                op: BinKind::Mul,
                ..
            }
        )
    };
    assert_eq!(count_exprs(&f, &narrow), 0, "{dump}");
    let mut proven_loads = 0;
    IrStmt::walk(&f.body, &mut |s| {
        if matches!(&s.kind, StmtKind::Assign { value, .. }
            if value.any(&mut |e| matches!(e.kind, ExprKind::Load(_))))
        {
            proven_loads += s.proven.len();
        }
    });
    assert_eq!(
        proven_loads, 1,
        "the load is still proven in bounds: {dump}"
    );

    // Idempotent: its own output is already in normal form (only the
    // proofs, dropped on the way in, are made again).
    let before = f.clone();
    let stats = optimize_with_layouts(&mut f, true);
    assert_eq!(changed_by(&stats), ["checkelim"], "{stats:?}");
    assert_eq!(f, before);
}

#[test]
fn affine_leaves_an_address_it_cannot_prove_exactly_as_it_is() {
    // The row count is a parameter: nothing bounds `i * 16 + k`, the `int`
    // arithmetic may wrap, and reassociating through it would move the
    // access. The same with the proofs switched off.
    for (staged, elide_checks) in [(false, true), (true, false)] {
        let mut f = matrix_walk(staged, row_major);
        let stats = optimize_with_layouts(&mut f, elide_checks);
        assert!(
            !changed_by(&stats).contains(&"affine"),
            "staged={staged} elide={elide_checks}: {stats:?}"
        );
        assert!(stats.remarks.iter().all(|r| r.pass != "affine"));
        // The address is what the other passes make of it on their own:
        // `&a + (int64($licm + k) << 3)`.
        let (addrs, hoists) = addresses_and_hoists(&f);
        let dump = terra_ir::dump_function(&f);
        let [addr] = &addrs[..] else {
            panic!("one load: {dump}");
        };
        let ExprKind::Binary { lhs, rhs, .. } = &addr.kind else {
            panic!("a sum: {dump}");
        };
        assert!(matches!(lhs.kind, ExprKind::LocalAddr(_)), "{dump}");
        assert!(
            rhs.any(&mut |e| matches!(e.kind, ExprKind::Cast(_))),
            "{dump}"
        );
        assert!(hoists.iter().all(|h| h.ty == Ty::INT), "{dump}");
    }
}

#[test]
fn affine_never_moves_a_load_or_a_possible_trap_out_of_its_place() {
    // a[i][t[k] / p0]: 64-bit arithmetic throughout, so the sum is split
    // without any proof — `int64(i) * 256` may move in front and out of the
    // `k` loop, the atom that loads and may divide by zero may not.
    let mut f = matrix_walk(true, |i, k, table| {
        let wide = |e: IrExpr| IrExpr {
            ty: Ty::I64,
            kind: ExprKind::Cast(Box::new(e)),
        };
        let entry = IrExpr {
            ty: Ty::INT,
            kind: ExprKind::Load(Box::new(IrExpr {
                ty: Ty::INT.ptr_to(),
                kind: ExprKind::Binary {
                    op: BinKind::Add,
                    lhs: Box::new(table),
                    rhs: Box::new(IrExpr::binary(BinKind::Mul, wide(k), IrExpr::int64(4))),
                },
            })),
        };
        let column = IrExpr::binary(BinKind::Div, entry, IrExpr::local(LocalId(0), Ty::INT));
        IrExpr::binary(
            BinKind::Add,
            IrExpr::binary(BinKind::Mul, wide(column), IrExpr::int64(8)),
            IrExpr::binary(BinKind::Mul, wide(i), IrExpr::int64(256)),
        )
    });
    let loads = |f: &IrFunction| count_exprs(f, &|k| matches!(k, ExprKind::Load(_)));
    let divisions = |f: &IrFunction| {
        count_exprs(f, &|k| {
            matches!(
                k,
                ExprKind::Binary {
                    op: BinKind::Div,
                    ..
                }
            )
        })
    };
    let before = (loads(&f), divisions(&f));
    let stats = optimize_with_layouts(&mut f, true);
    assert!(changed_by(&stats).contains(&"affine"), "{stats:?}");
    let dump = terra_ir::dump_function(&f);
    assert_eq!((loads(&f), divisions(&f)), before, "{dump}");
    let (addrs, hoists) = addresses_and_hoists(&f);
    assert!(!hoists.is_empty(), "the row pointer is hoisted: {dump}");
    for h in &hoists {
        assert!(
            terra_ir::passes::util::expr_is_stable(h, &f.locals),
            "{dump}"
        );
    }
    // The outer access still ends in the atom that was last evaluated.
    let outer = addrs
        .iter()
        .find(|a| a.ty == Ty::F64.ptr_to())
        .expect("the element load");
    let ExprKind::Binary { lhs, rhs, .. } = &outer.kind else {
        panic!("a sum: {dump}");
    };
    assert!(matches!(lhs.kind, ExprKind::Local(_)), "{dump}");
    assert!(
        rhs.any(&mut |e| matches!(e.kind, ExprKind::Load(_))),
        "{dump}"
    );
}

#[test]
fn no_pass_reports_a_change_it_did_not_make() {
    // `return p0` cannot be improved by anything.
    let mut f = func(vec![Ty::INT], Ty::INT);
    f.body = vec![ret(IrExpr::local(LocalId(0), Ty::INT))];
    let before = f.clone();
    let types = TypeRegistry::new();
    let stats = optimize(
        &mut f,
        &PassConfig {
            types: Some(&types),
            ..cfg(OptLevel::O2, &NoInline)
        },
    );
    assert_eq!(stats.runs.len(), 8);
    assert!(changed_by(&stats).is_empty(), "{stats:?}");
    assert_eq!(f, before);
}

// ------------------------------------------------ the one traversal

/// Every statement kind and every expression kind with children, nested.
fn kitchen_sink() -> IrFunction {
    let mut f = func(vec![Ty::INT, Ty::INT.ptr_to()], Ty::INT);
    let (n, p) = (LocalId(0), LocalId(1));
    let i = f.add_local("i", Ty::INT, false);
    let acc = f.add_local("acc", Ty::INT, false);
    let arr = f.add_local("arr", Ty::Array(std::sync::Arc::new(Ty::INT), 4), true);
    let int = |l| IrExpr::local(l, Ty::INT);
    let ptr = |kind| IrExpr {
        ty: Ty::INT.ptr_to(),
        kind,
    };
    let at = |base: IrExpr, off: IrExpr| IrExpr::binary(BinKind::Add, base, off);
    let load = |addr: IrExpr| IrExpr::load(Ty::INT, addr);
    let call = |callee, args| IrExpr::call(Ty::INT, callee, args);
    let fn_ptr = IrExpr {
        ty: Ty::Func(std::sync::Arc::new(FuncTy {
            params: vec![Ty::INT],
            ret: Ty::INT,
        })),
        kind: ExprKind::ConstFunc(FuncId(7)),
    };
    f.body = vec![
        assign(acc, IrExpr::int32(0)),
        IrStmt::new(StmtKind::Store {
            addr: at(ptr(ExprKind::LocalAddr(arr)), IrExpr::int64(4)),
            value: IrExpr::binary(BinKind::Mul, int(n), IrExpr::int32(3)),
        }),
        IrStmt::new(StmtKind::CopyMem {
            dst: ptr(ExprKind::LocalAddr(arr)),
            src: ptr(ExprKind::Local(p)),
            size: 16,
        }),
        IrStmt::new(StmtKind::For {
            var: i,
            start: IrExpr::int32(0),
            stop: int(n),
            step: IrExpr::int32(1),
            body: vec![
                IrStmt::new(StmtKind::If {
                    cond: IrExpr::cmp(terra_ir::CmpKind::Lt, int(i), IrExpr::int32(2)),
                    then_body: vec![assign(
                        acc,
                        IrExpr::binary(
                            BinKind::Add,
                            int(acc),
                            load(at(ptr(ExprKind::Local(p)), IrExpr::int64(8))),
                        ),
                    )],
                    else_body: vec![
                        IrStmt::new(StmtKind::Expr(call(
                            Callee::Indirect(Box::new(fn_ptr)),
                            vec![IrExpr {
                                ty: Ty::INT,
                                kind: ExprKind::Unary {
                                    op: terra_ir::UnKind::Neg,
                                    expr: Box::new(int(i)),
                                },
                            }],
                        ))),
                        IrStmt::new(StmtKind::Break),
                    ],
                }),
                IrStmt::new(StmtKind::While {
                    cond: IrExpr::cmp(terra_ir::CmpKind::Gt, int(acc), IrExpr::int32(100)),
                    body: vec![assign(
                        acc,
                        IrExpr {
                            ty: Ty::INT,
                            kind: ExprKind::Select {
                                cond: Box::new(IrExpr::boolean(true)),
                                then_value: Box::new(IrExpr::binary(
                                    BinKind::Sub,
                                    int(acc),
                                    int(n),
                                )),
                                else_value: Box::new(IrExpr {
                                    ty: Ty::INT,
                                    kind: ExprKind::Cast(Box::new(IrExpr::int64(1))),
                                }),
                            },
                        },
                    )],
                }),
            ],
        }),
        IrStmt::new(StmtKind::ParallelFor {
            kernel: FuncId(3),
            start: IrExpr::int32(0),
            stop: IrExpr::binary(BinKind::Add, int(n), IrExpr::int32(1)),
            args: vec![ptr(ExprKind::LocalAddr(arr)), int(acc)],
        }),
        IrStmt::new(StmtKind::Expr(call(
            Callee::Direct(FuncId(2)),
            vec![int(acc), int(n)],
        ))),
        ret(int(acc)),
    ];
    f
}

/// Statements of the body in preorder, by explicit recursion (the reference
/// for `IrStmt::walk`).
fn stmts_in_preorder<'a>(stmts: &'a [IrStmt], out: &mut Vec<&'a IrStmt>) {
    for s in stmts {
        out.push(s);
        match &s.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                stmts_in_preorder(then_body, out);
                stmts_in_preorder(else_body, out);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                stmts_in_preorder(body, out)
            }
            _ => {}
        }
    }
}

#[test]
fn the_walks_reach_every_node_once_and_in_one_order() {
    let mut optimized = kitchen_sink();
    terra_ir::verify_function(&optimized, None, &NoEnv).expect("a consistent fixture");
    run_opt(&mut optimized, OptLevel::O2);
    for mut f in [kitchen_sink(), optimized] {
        // Every statement exactly once, in preorder.
        let mut reference: Vec<&IrStmt> = Vec::new();
        stmts_in_preorder(&f.body, &mut reference);
        let mut walked = Vec::new();
        IrStmt::walk(&f.body, &mut |s| walked.push(s));
        assert!(reference.len() >= 8, "the fixture lost its shape: {f:?}");
        assert_eq!(walked.len(), reference.len());
        assert!(walked
            .iter()
            .zip(&reference)
            .all(|(a, b)| std::ptr::eq(*a, *b)));
        assert!(IrStmt::any(&f.body, &mut |s| std::ptr::eq(
            s,
            *reference.last().unwrap()
        )));

        // Every expression node exactly once: as many as the hand-written
        // recursion finds, and `count_nodes` is those plus the statements.
        let mut shared: Vec<*const IrExpr> = Vec::new();
        IrStmt::walk_exprs(&f.body, &mut |e| shared.push(e));
        assert_eq!(shared.len(), count_exprs(&f, &|_| true));
        let (n_stmts, n_blocks) = (
            reference.len(),
            reference.iter().map(|s| s.blocks().count()).sum::<usize>(),
        );
        assert_eq!(
            terra_ir::passes::util::count_nodes(&f),
            n_stmts + shared.len()
        );
        let mut distinct = shared.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), shared.len(), "a node was visited twice");

        // `proven` names nodes by their position in this order.
        let mut numbered = Vec::new();
        IrStmt::walk(&f.body, &mut |s| {
            let mut expect = 0;
            s.operand_nodes(&mut |i, e| {
                expect += 1;
                assert_eq!(i, expect);
                numbered.push(e as *const IrExpr);
            })
        });
        assert_eq!(numbered, shared);

        // The mutable walks visit the same nodes in the same order.
        let mut through_mut: Vec<*const IrExpr> = Vec::new();
        IrStmt::walk_exprs_mut(&mut f.body, &mut |e| through_mut.push(e));
        assert_eq!(through_mut, shared);

        // Blocks innermost first, each once, the body last.
        let mut blocks: Vec<*const Vec<IrStmt>> = Vec::new();
        IrStmt::each_block_mut(&mut f.body, &mut |b| blocks.push(b));
        assert_eq!(blocks.len(), n_blocks + 1);
        assert!(std::ptr::eq(*blocks.last().unwrap(), &f.body));
    }
}

// ------------------------------------- one liveness walk, two clients

/// `a = 1; b = a + a; return p0` with `b` unread. The lint and `dce` run
/// the same backward walk and differ in one thing: the lint's dead store
/// stays and keeps reading `a`, so only `b` is flagged; `dce`'s goes away,
/// `a` dies with it, and both fall in one sweep. (`b = a` would do for the
/// lint, but `copyprop` coalesces that into `b = 1` before `dce` sees it.)
#[test]
fn a_dead_store_cascades_for_dce_but_not_for_the_lint() {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let a = f.add_local("a", Ty::INT, false);
    let b = f.add_local("b", Ty::INT, false);
    let read_a = || IrExpr::local(a, Ty::INT);
    f.body = vec![
        assign(a, IrExpr::int32(1)),
        assign(b, IrExpr::binary(BinKind::Add, read_a(), read_a())),
        ret(IrExpr::local(LocalId(0), Ty::INT)),
    ];
    let flagged: Vec<String> = terra_ir::analyze_function(&f, None, &NoEnv)
        .into_iter()
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    assert_eq!(flagged, ["dead-store: value assigned to 'b' is never read"]);

    // `dce` alone: nothing else touches either assignment first.
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(f.body, vec![ret(IrExpr::local(LocalId(0), Ty::INT))]);
    let dce: Vec<_> = stats.remarks.iter().filter(|r| r.pass == "dce").collect();
    assert_eq!(dce.len(), 1, "{dce:?}");
    assert_eq!(dce[0].message, "removed 2 dead-store statement(s)");
}

// ------------------------------- copyprop's backward half: coalescing

/// `f(y : int) : int` over locals `t` and `x`; `body(y, t, x)` is what it
/// runs before `return x`.
fn staged(
    body: impl Fn(IrExpr, LocalId, LocalId) -> Vec<IrStmt>,
) -> (IrFunction, LocalId, LocalId) {
    let mut f = func(vec![Ty::INT], Ty::INT);
    let t = f.add_local("t", Ty::INT, false);
    let x = f.add_local("x", Ty::INT, false);
    f.body = body(IrExpr::local(LocalId(0), Ty::INT), t, x);
    f.body.push(ret(IrExpr::local(x, Ty::INT)));
    (f, t, x)
}

fn plus(e: IrExpr, c: i32) -> IrExpr {
    IrExpr::binary(BinKind::Add, e, IrExpr::int32(c))
}

/// The `copyprop` remarks about coalescing: how many temporaries went, and
/// the messages of the refusals it explained.
fn coalescing(stats: &PassStats) -> (usize, Vec<&str>) {
    let of = |kind| {
        let ours = move |r: &&terra_ir::Remark| r.pass == "copyprop" && r.kind == kind;
        stats.remarks.iter().filter(ours).map(|r| &*r.message)
    };
    let applied = of(terra_ir::RemarkKind::Applied).filter(|m| m.starts_with("coalesced"));
    (applied.count(), of(terra_ir::RemarkKind::Missed).collect())
}

fn assigns(f: &IrFunction, l: LocalId) -> bool {
    IrStmt::any(
        &f.body,
        &mut |s| matches!(s.kind, StmtKind::Assign { dst, .. } if dst == l),
    )
}

#[test]
fn coalescing_builds_a_staged_value_in_its_destination() {
    // t = x + 1; x = t  →  x = x + 1 (the value may read its destination).
    let (mut f, t, x) = staged(|_, t, x| {
        vec![
            assign(t, plus(IrExpr::local(x, Ty::INT), 1)),
            assign(x, IrExpr::local(t, Ty::INT)),
        ]
    });
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(coalescing(&stats), (1, vec![]));
    assert_eq!(f.body[0], assign(x, plus(IrExpr::local(x, Ty::INT), 1)));
    assert!(!assigns(&f, t) && f.body.len() == 2, "{f:?}");

    // B, A = B + 1, A + 2 as the typechecker stages it: both temporaries go,
    // past an assignment to an unrelated local.
    let mut f = func(vec![Ty::INT, Ty::INT], Ty::INT);
    let (a, b) = (LocalId(0), LocalId(1));
    let (t1, t2) = (
        f.add_local("t1", Ty::INT, false),
        f.add_local("t2", Ty::INT, false),
    );
    let int = |l| IrExpr::local(l, Ty::INT);
    f.body = vec![
        assign(t1, plus(int(b), 1)),
        assign(t2, plus(int(a), 2)),
        assign(b, int(t1)),
        assign(a, int(t2)),
        ret(IrExpr::binary(BinKind::Sub, int(a), int(b))),
    ];
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(coalescing(&stats), (2, vec![]));
    assert_eq!(
        f.body[..2],
        [assign(b, plus(int(b), 1)), assign(a, plus(int(a), 2))]
    );
    assert_eq!(f.body.len(), 3, "{f:?}");
}

#[test]
fn coalescing_refuses_when_the_destination_is_read_in_between() {
    // A swap: t1 = b; t2 = a; a = t1; b = t2. `a = t1` would clobber the `a`
    // that `t2 = a` still reads; `b = t2` can go.
    let mut f = func(vec![Ty::INT, Ty::INT], Ty::INT);
    let (a, b) = (LocalId(0), LocalId(1));
    let (t1, t2) = (
        f.add_local("t1", Ty::INT, false),
        f.add_local("t2", Ty::INT, false),
    );
    let int = |l| IrExpr::local(l, Ty::INT);
    f.body = vec![
        assign(t1, int(b)),
        assign(t2, int(a)),
        assign(a, int(t1)),
        assign(b, int(t2)),
        ret(IrExpr::binary(BinKind::Sub, int(a), int(b))),
    ];
    f.body[1].span.line = 7;
    let stats = run_opt(&mut f, OptLevel::O1);
    let (applied, missed) = coalescing(&stats);
    assert_eq!(applied, 1);
    let why = "cannot coalesce temporary 't1' into 'p0': 'p0' is read at line 7, between the two";
    assert_eq!(missed, [why]);
    // One temporary stays; the copy out of it is forwarded into the result.
    let swapped = ret(IrExpr::binary(BinKind::Sub, int(t1), int(b)));
    assert_eq!(f.body, [assign(t1, int(b)), assign(b, int(a)), swapped]);
}

#[test]
fn coalescing_refuses_when_the_destination_is_written_in_between() {
    // t = y + 1; x = y; x = t: moving the last write up would let `x = y`
    // win.
    let (mut f, t, _) = staged(|y, t, x| {
        let mut between = assign(x, y.clone());
        between.span.line = 3;
        vec![
            assign(t, plus(y, 1)),
            between,
            assign(x, IrExpr::local(t, Ty::INT)),
        ]
    });
    let stats = run_opt(&mut f, OptLevel::O1);
    let (applied, missed) = coalescing(&stats);
    assert_eq!(applied, 0);
    let why = "cannot coalesce temporary 't' into 'x': 'x' is written at line 3, between the two";
    assert_eq!(missed, [why]);
    assert!(assigns(&f, t), "{f:?}");
}

#[test]
fn coalescing_refuses_locals_that_live_in_memory() {
    // A frame slot can be read and written through its address; neither
    // side of the copy may be one.
    for (t_in_memory, x_in_memory) in [(true, false), (false, true)] {
        let (mut f, t, _) =
            staged(|y, t, x| vec![assign(t, plus(y, 1)), assign(x, IrExpr::local(t, Ty::INT))]);
        f.locals[t.0 as usize].in_memory = t_in_memory;
        f.locals[t.0 as usize + 1].in_memory = x_in_memory;
        let stats = run_opt(&mut f, OptLevel::O1);
        assert_eq!(coalescing(&stats), (0, vec![]));
        assert!(assigns(&f, t), "{f:?}");
    }
}

#[test]
fn coalescing_refuses_a_temporary_that_is_read_again() {
    // t = y + 1; x = t; return x + t: `t` is live after the copy.
    let (mut f, t, x) =
        staged(|y, t, x| vec![assign(t, plus(y, 1)), assign(x, IrExpr::local(t, Ty::INT))]);
    let int = |l| IrExpr::local(l, Ty::INT);
    *f.body.last_mut().unwrap() = ret(IrExpr::binary(BinKind::Add, int(x), int(t)));
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(coalescing(&stats), (0, vec![]));
    assert!(assigns(&f, t), "{f:?}");
    // Likewise a loop variable, which its loop's header reads.
    let (mut f, t, x) = staged(|y, t, x| {
        let body = vec![
            assign(t, plus(y.clone(), 1)),
            assign(x, IrExpr::local(t, Ty::INT)),
        ];
        vec![IrStmt::new(StmtKind::For {
            var: t,
            start: IrExpr::int32(0),
            stop: y,
            step: IrExpr::int32(1),
            body,
        })]
    });
    f.body.insert(0, assign(x, IrExpr::int32(0)));
    let stats = run_opt(&mut f, OptLevel::O1);
    assert_eq!(coalescing(&stats), (0, vec![]));
    assert!(assigns(&f, t), "{f:?}");
}

#[test]
fn coalescing_refuses_across_a_branch_or_loop_boundary() {
    let flag = |y: &IrExpr| IrExpr::cmp(terra_ir::CmpKind::Lt, y.clone(), IrExpr::int32(0));
    // A branch between the two: it may leave before the copy. A loop between
    // them, and a copy inside a loop whose temporary is set outside it.
    type Shape = fn(IrExpr, IrStmt, IrStmt) -> Vec<IrStmt>;
    let shapes: [Shape; 3] = [
        |cond, def, copy| {
            let leave = IrStmt::new(StmtKind::Return(Some(IrExpr::int32(0))));
            let branch = StmtKind::If {
                cond,
                then_body: vec![leave],
                else_body: vec![],
            };
            vec![def, IrStmt::new(branch), copy]
        },
        |cond, def, copy| {
            let body = vec![IrStmt::new(StmtKind::Break)];
            vec![def, IrStmt::new(StmtKind::While { cond, body }), copy]
        },
        |cond, def, copy| {
            let body = vec![copy, IrStmt::new(StmtKind::Break)];
            vec![def, IrStmt::new(StmtKind::While { cond, body })]
        },
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        let (mut f, t, x) = staged(|y, t, x| {
            let def = assign(t, plus(y.clone(), 1));
            shape(flag(&y), def, assign(x, IrExpr::local(t, Ty::INT)))
        });
        f.body.insert(0, assign(x, IrExpr::int32(9)));
        let stats = run_opt(&mut f, OptLevel::O1);
        assert_eq!(coalescing(&stats), (0, vec![]), "shape {i}");
        assert!(assigns(&f, t), "shape {i}: {f:?}");
    }
}

// ------------------------------------------------ unrolling constant-trip loops

/// `f(p0 : &int, p1 : int)` whose body is `for i : ty = start, stop, step do
/// body(i) end`, the loop at line 2; `i` is `LocalId(2)`.
fn counted(
    ty: Ty,
    start: i64,
    stop: IrExpr,
    step: i64,
    body: impl FnOnce(IrExpr) -> Vec<IrStmt>,
) -> IrFunction {
    let mut f = func(vec![Ty::INT.ptr_to(), Ty::INT], Ty::Unit);
    let i = f.add_local("i", ty.clone(), false);
    let konst = |v| IrExpr {
        ty: ty.clone(),
        kind: ExprKind::ConstInt(v),
    };
    let loop_ = StmtKind::For {
        var: i,
        start: konst(start),
        stop,
        step: konst(step),
        body: body(IrExpr::local(i, ty.clone())),
    };
    f.body = vec![IrStmt::at(span(2), loop_)];
    f
}

/// `p0[v] = v`, both through casts from `v`'s type (`p0 : &int`).
fn poke(v: IrExpr) -> IrStmt {
    let cast = |ty: Ty, e: &IrExpr| IrExpr {
        ty,
        kind: ExprKind::Cast(Box::new(e.clone())),
    };
    let offset = IrExpr::binary(BinKind::Mul, cast(Ty::I64, &v), IrExpr::int64(4));
    let addr = IrExpr {
        ty: Ty::INT.ptr_to(),
        kind: ExprKind::Binary {
            op: BinKind::Add,
            lhs: Box::new(IrExpr::local(LocalId(0), Ty::INT.ptr_to())),
            rhs: Box::new(offset),
        },
    };
    IrStmt::new(StmtKind::Store {
        addr,
        value: cast(Ty::INT, &v),
    })
}

/// The IR nodes of `stmts` once `fold` has rewritten them: what `unroll`
/// measures, for it runs after `fold`.
fn folded_nodes(mut stmts: Vec<IrStmt>) -> usize {
    IrStmt::walk_mut(&mut stmts, &mut |s| {
        s.operand_roots_mut(&mut |e| terra_ir::fold_expr(e))
    });
    terra_ir::passes::util::block_nodes(&stmts)
}

/// The values `f` stores, in order (`None` for one that is not a constant).
fn stored(f: &IrFunction) -> Vec<Option<i64>> {
    let mut values = Vec::new();
    IrStmt::walk(&f.body, &mut |s| {
        if let StmtKind::Store { value, .. } = &s.kind {
            values.push(value.int_const());
        }
    });
    values
}

fn loops_in(f: &IrFunction) -> usize {
    let mut n = 0;
    IrStmt::walk(&f.body, &mut |s| {
        n += usize::from(matches!(s.kind, StmtKind::For { .. }))
    });
    n
}

/// `f` optimized at `-O2`, with what `unroll` said as `(applied, line,
/// message)`.
fn unrolled(mut f: IrFunction) -> (IrFunction, Vec<(bool, u32, String)>) {
    let stats = run_opt(&mut f, OptLevel::O2);
    let remarks = stats
        .remarks
        .iter()
        .filter(|r| r.pass == "unroll")
        .map(|r| (r.kind == RemarkKind::Applied, r.line, r.message.clone()))
        .collect();
    (f, remarks)
}

/// A loop of no trips goes, a loop of one trip is its body with the
/// variable's value in it, and a loop of three is three copies in iteration
/// order, its step not dividing the range.
#[test]
fn unroll_replaces_a_constant_trip_loop_by_its_copies() {
    let nodes = folded_nodes(vec![poke(IrExpr::local(LocalId(2), Ty::INT))]);
    for (stop, values, message) in [
        (3, vec![], "deleted a loop of 0 trips".to_string()),
        (1, vec![], "deleted a loop of 0 trips".to_string()),
        (
            4,
            vec![Some(3)],
            "replaced a loop of 1 trip by its body".to_string(),
        ),
        (
            8,
            vec![Some(3), Some(5), Some(7)],
            format!("unrolled 3 trips (+{} IR nodes)", 2 * nodes),
        ),
    ] {
        let step = if stop == 8 { 2 } else { 1 };
        let (f, remarks) = unrolled(counted(Ty::INT, 3, IrExpr::int32(stop), step, |i| {
            vec![poke(i)]
        }));
        assert_eq!(loops_in(&f), 0, "stop {stop}: {f:?}");
        assert_eq!(stored(&f), values, "stop {stop}: {f:?}");
        assert_eq!(remarks, [(true, 2, message)], "stop {stop}");
    }
}

/// `for dy = -1, 2 do for dx = -1, 2 do p0[3*dy + dx] = 3*dy + dx end end`:
/// the inner loop goes first, then the outer one, copies and all, so the
/// nest is nine stores of constants in the order the loops ran them.
#[test]
fn a_3x3_nest_unrolls_innermost_first() {
    let mut f = func(vec![Ty::INT.ptr_to(), Ty::INT], Ty::Unit);
    let (dy, dx) = (
        f.add_local("dy", Ty::INT, false),
        f.add_local("dx", Ty::INT, false),
    );
    let tap = IrExpr::binary(
        BinKind::Add,
        IrExpr::binary(BinKind::Mul, IrExpr::int32(3), IrExpr::local(dy, Ty::INT)),
        IrExpr::local(dx, Ty::INT),
    );
    let taps = |var, line, body| {
        IrStmt::at(
            span(line),
            StmtKind::For {
                var,
                start: IrExpr::int32(-1),
                stop: IrExpr::int32(2),
                step: IrExpr::int32(1),
                body,
            },
        )
    };
    let tap_nodes = folded_nodes(vec![poke(tap.clone())]);
    f.body = vec![taps(dy, 2, vec![taps(dx, 3, vec![poke(tap)])])];
    let (f, remarks) = unrolled(f);
    assert_eq!(loops_in(&f), 0, "{f:?}");
    assert_eq!(stored(&f), (-4..=4).map(Some).collect::<Vec<_>>(), "{f:?}");
    // The outer body is the inner loop's three copies, folded: the `3 * dy`
    // of each is a constant by then.
    let [(true, 3, inner), (true, 2, outer)] = &remarks[..] else {
        panic!("{remarks:?}");
    };
    assert_eq!(
        inner,
        &format!("unrolled 3 trips (+{} IR nodes)", 2 * tap_nodes)
    );
    assert!(outer.starts_with("unrolled 3 trips (+"), "{outer}");
}

/// What `unroll` said about the one loop of `f`, which stays a loop at `-O2`.
fn refusal(f: IrFunction) -> String {
    let (f, remarks) = unrolled(f);
    assert_eq!(loops_in(&f), 1, "the loop stays: {f:?}");
    match &remarks[..] {
        [(false, 2, m)] => m
            .strip_prefix("loop not unrolled: ")
            .expect("the remark's form")
            .to_string(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unroll_refuses_each_rule_with_its_own_reason() {
    let int = IrExpr::int32;
    let p1 = || IrExpr::local(LocalId(1), Ty::INT);
    let counted_int =
        |stop, body: Box<dyn FnOnce(IrExpr) -> Vec<IrStmt>>| counted(Ty::INT, 0, stop, 1, body);
    // A bound that arrives at run time: the trip count is not known.
    assert_eq!(
        refusal(counted_int(p1(), Box::new(|i| vec![poke(i)]))),
        "its bounds are not stage-time constants"
    );
    // A body that moves the counter itself.
    let bump = |i: IrExpr| {
        vec![
            poke(i.clone()),
            assign(LocalId(2), IrExpr::binary(BinKind::Add, i, int(1))),
        ]
    };
    assert_eq!(
        refusal(counted_int(int(4), Box::new(bump))),
        "its body assigns the loop variable"
    );
    // A body that may leave early.
    let leave = |i: IrExpr| {
        vec![
            IrStmt::new(StmtKind::If {
                cond: IrExpr::cmp(terra_ir::CmpKind::Gt, p1(), int(0)),
                then_body: vec![StmtKind::Break.into()],
                else_body: vec![],
            }),
            poke(i),
        ]
    };
    assert_eq!(
        refusal(counted_int(int(4), Box::new(leave))),
        "its body breaks out of it"
    );
    // A parallel site, which is keyed by its position.
    let parallel = |i: IrExpr| {
        vec![IrStmt::new(StmtKind::ParallelFor {
            kernel: FuncId(0),
            start: int(0),
            stop: i,
            args: Vec::new(),
        })]
    };
    assert_eq!(
        refusal(counted_int(int(4), Box::new(parallel))),
        "its body contains a parallelfor"
    );
    // 120 and 125 fit `int8`; the step after them does not, and at run time
    // the counter wraps to -126 and carries on.
    let narrow = counted(
        Ty::Scalar(terra_ir::ScalarTy::I8),
        120,
        IrExpr {
            ty: Ty::Scalar(terra_ir::ScalarTy::I8),
            kind: ExprKind::ConstInt(127),
        },
        5,
        |i| vec![poke(i)],
    );
    assert_eq!(
        refusal(narrow),
        "its counter would reach 130, outside `int8`"
    );
    // A `uint64` range across 2^63.
    let wide = counted(
        Ty::U64,
        i64::MAX - 1,
        IrExpr {
            ty: Ty::U64,
            kind: ExprKind::ConstInt(i64::MIN + 1),
        },
        1,
        |i| vec![poke(i)],
    );
    assert_eq!(
        refusal(wide),
        "its counter would reach 9223372036854775809, outside `uint64`"
    );
}

/// A loop is unrolled while `(trips - 1) * body nodes` fits
/// `MAX_UNROLL_GROWTH`, one trip more is refused with the arithmetic.
#[test]
fn unroll_takes_a_loop_up_to_its_growth_budget() {
    let nodes = folded_nodes(vec![poke(IrExpr::local(LocalId(2), Ty::INT))]);
    let fit = MAX_UNROLL_GROWTH / nodes + 1;
    let at = |trips: usize| {
        counted(Ty::INT, 0, IrExpr::int32(trips as i32), 1, |i| {
            vec![poke(i)]
        })
    };
    let (f, remarks) = unrolled(at(fit));
    assert_eq!((loops_in(&f), stored(&f).len()), (0, fit));
    assert_eq!(
        remarks,
        [(
            true,
            2,
            format!("unrolled {fit} trips (+{} IR nodes)", (fit - 1) * nodes)
        )]
    );
    assert_eq!(
        refusal(at(fit + 1)),
        format!(
            "{} trips of {nodes} IR nodes would add {} > {MAX_UNROLL_GROWTH}",
            fit + 1,
            fit * nodes
        )
    );
}

/// Which expressions `licm` hoists, one row per kind of node: it asks
/// whether the node is compound and every node under it stable, and takes a
/// load only when it can prove it safe to run on a zero-trip loop.
#[test]
fn what_licm_hoists() {
    let int = |l: u32| IrExpr::local(LocalId(l), Ty::INT);
    let load = |addr: IrExpr| IrExpr::load(Ty::INT, addr);
    let plus = |e: IrExpr| IrExpr::binary(BinKind::Add, e, int(1));
    // p0, p1 : int; p2 : &int; `cell` an int whose address is taken;
    // `arr` an int[4] in the frame.
    let base = || {
        let mut f = func(vec![Ty::INT, Ty::INT, Ty::INT.ptr_to()], Ty::INT);
        f.add_local("cell", Ty::INT, true);
        f.add_local("arr", Ty::Array(std::sync::Arc::new(Ty::INT), 4), true);
        f
    };
    let (cell, arr) = (LocalId(3), LocalId(4));
    let in_arr = IrExpr {
        ty: Ty::INT.ptr_to(),
        kind: ExprKind::LocalAddr(arr),
    };
    let p2 = IrExpr::local(LocalId(2), Ty::INT.ptr_to());
    let rows = [
        (
            "stable compound",
            IrExpr::binary(BinKind::Mul, int(0), int(1)),
            true,
        ),
        (
            "reads an in_memory local",
            plus(IrExpr::local(cell, Ty::INT)),
            false,
        ),
        ("loads", plus(load(p2)), false),
        ("calls", plus(call(0, vec![int(0)], Ty::INT)), false),
        (
            "divides by a variable",
            IrExpr::binary(BinKind::Div, int(0), int(1)),
            false,
        ),
        (
            "divides by the constant 0",
            IrExpr::binary(BinKind::Div, int(0), IrExpr::int32(0)),
            false,
        ),
        (
            "invariant in-bounds load, memory-pure loop",
            load(IrExpr::binary(BinKind::Add, in_arr, IrExpr::int64(8))),
            true,
        ),
    ];
    let applied = |stats: &PassStats, pass: &str| {
        stats
            .remarks
            .iter()
            .any(|r| r.pass == pass && r.kind == RemarkKind::Applied)
    };
    let types = TypeRegistry::new();
    let config = PassConfig {
        types: Some(&types),
        ..cfg(OptLevel::O2, &NoInline)
    };
    for (what, e, hoisted) in rows {
        // for i = 0, p1 do acc = acc + e end; return acc
        let mut f = base();
        let (acc, i) = (
            f.add_local("acc", Ty::INT, false),
            f.add_local("i", Ty::INT, false),
        );
        f.body = vec![
            assign(acc, IrExpr::int32(0)),
            IrStmt::new(StmtKind::For {
                var: i,
                start: IrExpr::int32(0),
                stop: int(1),
                step: IrExpr::int32(1),
                body: vec![assign(
                    acc,
                    IrExpr::binary(BinKind::Add, IrExpr::local(acc, Ty::INT), e),
                )],
            }),
            ret(IrExpr::local(acc, Ty::INT)),
        ];
        let stats = optimize(&mut f, &config);
        assert_eq!(applied(&stats, "licm"), hoisted, "licm, {what}: {f:?}");
    }
}

/// Each constructor types its node by the rule `ir.rs` states for it:
/// `unary` by its operand, `select` by its `then` arm, `cast`, `load`, `call`
/// and `new` by the type they are given.
#[test]
fn constructors_type_their_nodes() {
    let x = || IrExpr::local(LocalId(0), Ty::F64);
    let p = || IrExpr::local(LocalId(1), Ty::INT.ptr_to());
    let yes = || IrExpr::boolean(true);
    let rows = [
        ("unary -x", IrExpr::unary(UnKind::Neg, x()), Ty::F64),
        ("unary not", IrExpr::unary(UnKind::Not, yes()), Ty::BOOL),
        (
            "select",
            IrExpr::select(yes(), IrExpr::int64(1), IrExpr::int32(2)),
            Ty::I64,
        ),
        ("cast", IrExpr::cast(Ty::F64, IrExpr::int32(1)), Ty::F64),
        ("load", IrExpr::load(Ty::INT, p()), Ty::INT),
        (
            "call",
            IrExpr::call(Ty::F64, Callee::Direct(FuncId(0)), vec![IrExpr::int32(1)]),
            Ty::F64,
        ),
        ("new", IrExpr::new(Ty::U64, ExprKind::ConstInt(3)), Ty::U64),
    ];
    for (row, node, ty) in rows {
        assert_eq!(node.ty, ty, "{row}");
    }
}

/// A function built from constructors alone passes the verifier:
/// `f(x : double, p : &int, b : bool) : double` returns
/// `select(not b == false, -x, sqrt(double(p[1])))`.
#[test]
fn a_function_built_from_constructors_verifies() {
    let mut f = func(vec![Ty::F64, Ty::INT.ptr_to(), Ty::BOOL], Ty::F64);
    let x = IrExpr::local(LocalId(0), Ty::F64);
    let p = IrExpr::local(LocalId(1), Ty::INT.ptr_to());
    let b = IrExpr::local(LocalId(2), Ty::BOOL);
    let elem = IrExpr::load(Ty::INT, IrExpr::binary(BinKind::Add, p, IrExpr::int64(4)));
    let root = IrExpr::call(
        Ty::F64,
        Callee::Builtin(Builtin::Sqrt),
        vec![IrExpr::cast(Ty::F64, elem)],
    );
    let cond = IrExpr::cmp(
        CmpKind::Eq,
        IrExpr::unary(UnKind::Not, b),
        IrExpr::boolean(false),
    );
    let value = IrExpr::select(cond, IrExpr::unary(UnKind::Neg, x), root);
    f.body = vec![ret(value)];
    assert_eq!(verify_function(&f, None, &NoEnv), Ok(()));
}
