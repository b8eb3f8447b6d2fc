//! Differential tests for the optimization pipeline: the same random
//! straight-line Terra program, run at `-O0` and at `-O2`, must produce the
//! identical return value, identical VM memory state (a heap buffer the
//! program writes), and identical trap behavior (integer division by zero
//! must trap at every level or at none).

use proptest::prelude::*;
use terra_eval::{Interp, LuaValue};
use terra_ir::OptLevel;

mod common;
use common::{
    calls_strategy, nest_strategy, program_txt, run_nest, shuffle_strategy, stmt_strategy,
    taps_strategy, Calls, Nest, OpStmt, RecConfig, Shuffle, Src, Taps,
};

/// Runs the program at the given level; returns the buffer contents on
/// success or, on failure, what the trap was (levels are compared).
fn run_at(
    level: OptLevel,
    src: &str,
    nslots: usize,
    args: (i32, i32, i32),
) -> Result<Vec<f64>, String> {
    let mut t = Interp::new();
    t.opt = level;
    t.exec(src).map_err(common::trap_kind)?;
    let call = format!("return prog({}, {}, {})", args.0, args.1, args.2);
    let out = t.exec(&call).map_err(common::trap_kind)?;
    let LuaValue::Number(addr) = out[0] else {
        panic!("prog must return a pointer, got {out:?}");
    };
    let mem = &mut t.ctx.exec.memory;
    Ok((0..nslots)
        .map(|i| {
            mem.load_f64(addr as u64 + 8 * i as u64)
                .expect("buffer read in bounds")
        })
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `-O0` and `-O2` agree on every temporary's value (read back from VM
    /// heap memory) and on whether the program traps.
    #[test]
    fn o0_and_o2_agree(
        stmts in proptest::collection::vec(stmt_strategy(), 1..12),
        a in -100i32..100,
        b in -100i32..100,
        c in any::<i32>(),
    ) {
        let src = program_txt(&stmts);
        let n = stmts.len();
        let r0 = run_at(OptLevel::O0, &src, n, (a, b, c));
        let r2 = run_at(OptLevel::O2, &src, n, (a, b, c));
        match (&r0, &r2) {
            (Ok(m0), Ok(m2)) => {
                // Bitwise equality: integer-valued doubles, no tolerance.
                let eq = m0.len() == m2.len()
                    && m0.iter().zip(m2).all(|(x, y)| x.to_bits() == y.to_bits());
                // On failure, the flight recorder pinpoints the first
                // divergent effect instead of just "memory diverged".
                let bisect = if eq {
                    String::new()
                } else {
                    let call = format!("return prog({a}, {b}, {c})");
                    common::divergence_report(
                        &src,
                        &call,
                        RecConfig::at(OptLevel::O0),
                        RecConfig::at(OptLevel::O2),
                    )
                };
                prop_assert!(
                    eq,
                    "memory diverged\n-O0: {m0:?}\n-O2: {m2:?}\nprogram:\n{src}\n{bisect}"
                );
            }
            (Err(e0), Err(e2)) => {
                prop_assert_eq!(e0, e2, "different traps for:\n{}", src);
            }
            _ => {
                prop_assert!(
                    false,
                    "trap behavior diverged\n-O0: {r0:?}\n-O2: {r2:?}\nprogram:\n{src}"
                );
            }
        }
    }

    /// `-O1` sits between the two: it must agree with `-O0` as well.
    #[test]
    fn o1_agrees_with_o0(
        stmts in proptest::collection::vec(stmt_strategy(), 1..8),
        a in -50i32..50,
        b in any::<i32>(),
    ) {
        let src = program_txt(&stmts);
        let n = stmts.len();
        let r0 = run_at(OptLevel::O0, &src, n, (a, b, 7));
        let r1 = run_at(OptLevel::O1, &src, n, (a, b, 7));
        match (&r0, &r1) {
            (Ok(m0), Ok(m1)) => {
                let eq = m0.iter().zip(m1).all(|(x, y)| x.to_bits() == y.to_bits());
                let bisect = if eq {
                    String::new()
                } else {
                    let call = format!("return prog({a}, {b}, 7)");
                    common::divergence_report(
                        &src,
                        &call,
                        RecConfig::at(OptLevel::O0),
                        RecConfig::at(OptLevel::O1),
                    )
                };
                prop_assert!(eq, "-O0 {m0:?} vs -O1 {m1:?} for:\n{src}\n{bisect}");
            }
            (Err(e0), Err(e1)) => prop_assert_eq!(e0, e1),
            _ => prop_assert!(false, "-O0 {r0:?} vs -O1 {r1:?} for:\n{src}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Affine indexing through narrow arithmetic at the wrap boundary reads
    /// and writes the same elements, or traps the same way, at every level:
    /// `-O2` may only reassociate an address through operations that do not
    /// wrap.
    #[test]
    fn affine_nests_agree_at_every_level(nest in nest_strategy()) {
        let src = nest.src(false);
        let base = run_nest(&src, nest.rows(), &RecConfig::at(OptLevel::O0));
        for level in [OptLevel::O1, OptLevel::O2] {
            let got = run_nest(&src, nest.rows(), &RecConfig::at(level));
            let bisect = if got == base {
                String::new()
            } else {
                let call = format!("return nest({})", nest.rows());
                common::divergence_report(
                    &src,
                    &call,
                    RecConfig::at(OptLevel::O0),
                    RecConfig::at(level),
                )
            };
            prop_assert_eq!(&got, &base, "{:?} vs -O0 for:\n{}\n{}", level, src, bisect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multiple assignments (the shared generator: swaps, rotates, pointer
    /// bumps, memory and vector targets) mean what the language says — every
    /// right-hand side is read before any target is written — at every
    /// level, whichever of their temporaries `copyprop` coalesces away.
    #[test]
    fn multiple_assignments_agree_at_every_level(shuffle in shuffle_strategy()) {
        let (src, n) = (shuffle.src(false), shuffle.rows());
        let expected = Ok(shuffle.expected(n).to_bits());
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let got = run_nest(&src, n, &RecConfig::at(level));
            prop_assert_eq!(&got, &expected, "{:?} for:\n{}", level, src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Small call graphs (the shared generator: wrappers, methods on values
    /// and on pointers, a table of function pointers, a callee that traps, a
    /// recursive one) compute what the model says, or divide by zero, at
    /// every level, whatever the inliner takes.
    #[test]
    fn call_graphs_agree_at_every_level(calls in calls_strategy()) {
        let (src, n) = (calls.src(false), calls.rows());
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let got = run_nest(&src, n, &RecConfig::at(level));
            prop_assert!(
                calls.agrees(n, &got),
                "{:?}: {:?}, model {:?}, for:\n{}", level, got, calls.expected(n), src
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Loops with stage-time bounds (the shared generator: 0, 1 and 3 trips
    /// and the growth budget's edge, steps that do not divide the range,
    /// narrow counters at the ends of their types, body locals, the counter
    /// in an address and a value) compute what the model says, or divide by
    /// zero, at every level, whichever `unroll` takes.
    #[test]
    fn constant_trip_loops_agree_at_every_level(taps in taps_strategy()) {
        let (src, n) = (taps.src(false), taps.rows());
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let got = run_nest(&src, n, &RecConfig::at(level));
            prop_assert!(
                taps.agrees(n, &got),
                "{:?}: {:?}, model {:?}, for:\n{}", level, got, taps.expected(n), src
            );
        }
    }
}

/// The tap generator is not vacuous: for every counter type the budget's
/// trip count is unrolled and one trip more is not, serial and under
/// `parallelfor`; the result is the model's; and a trap at the second trip
/// is one at every level.
#[test]
fn constant_trip_loops_are_not_vacuous() {
    let unroll_remarks = |src: &str| {
        let mut t = Interp::new();
        t.exec(src).unwrap();
        t.exec("nest:compile()").unwrap();
        let remarks = t.ctx.exec.trace.remarks();
        let of_taps = |r: &&terra_trace::Remark| r.pass == "unroll" && r.site.line == 11;
        let rows: Vec<(String, String)> = remarks
            .iter()
            .filter(of_taps)
            .map(|r| (r.kind.to_string(), r.message.clone()))
            .collect();
        rows
    };
    for ty in 0..3 {
        for parallel in [false, true] {
            let taps = |trips, trap| Taps {
                ty,
                trips,
                step: 2,
                slack: 5,
                top: ty != 1,
                rows: 0,
                trap,
            };
            let b = taps(4, false).budget_trips();
            let at_budget = taps(4, false);
            assert_eq!(at_budget.trips(), b);
            let rows = unroll_remarks(&at_budget.src(parallel));
            let [(kind, message)] = &rows[..] else {
                panic!("type {ty}: one remark for the tap loop: {rows:?}");
            };
            assert_eq!(kind, "applied", "type {ty}: {message}");
            assert!(
                message.starts_with(&format!("unrolled {b} trips")),
                "{message}"
            );
            let past = taps(5, false);
            let rows = unroll_remarks(&past.src(parallel));
            let [(kind, message)] = &rows[..] else {
                panic!("type {ty}: one remark for the tap loop: {rows:?}");
            };
            assert_eq!(kind, "missed", "type {ty}: {message}");
            assert!(
                message.contains(&format!("{} trips of", b + 1)),
                "{message}"
            );
            for (level, taps) in [(OptLevel::O0, &at_budget), (OptLevel::O2, &past)] {
                let (src, n) = (taps.src(parallel), taps.rows());
                let got = run_nest(&src, n, &RecConfig::at(level));
                assert!(taps.expected(n).is_some());
                assert!(taps.agrees(n, &got), "{level:?}: {got:?}\n{src}");
            }
            let trapping = taps(2, true);
            assert_eq!(trapping.expected(trapping.rows()), None);
            for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
                let got = run_nest(
                    &trapping.src(parallel),
                    trapping.rows(),
                    &RecConfig::at(level),
                );
                assert!(trapping.agrees(trapping.rows(), &got), "{level:?}: {got:?}");
            }
        }
    }
}

/// Every form of the call generator at once: the program runs, at `-O2` the
/// wrappers and the stub go in while the recursive callee stays a call, and
/// with a zero divisor on a row it traps at every level.
#[test]
fn call_graphs_are_not_vacuous() {
    let all = |trap_row| Calls {
        steps: (0..8).collect(),
        rows: 1,
        trap_row,
    };
    let fine = all(4);
    let src = fine.src(false);
    for level in [OptLevel::O0, OptLevel::O2] {
        let got = run_nest(&src, fine.rows(), &RecConfig::at(level));
        assert!(fine.expected(fine.rows()).is_some());
        assert!(fine.agrees(fine.rows(), &got), "{level:?}: {got:?}\n{src}");
    }
    let mut t = Interp::new();
    t.exec(&src).unwrap();
    t.exec("nest:compile()").unwrap();
    let inline: Vec<String> = t
        .ctx
        .exec
        .trace
        .remarks()
        .iter()
        .filter(|r| r.pass == "inline" && &*r.site.func == "nest")
        .map(|r| r.message.clone())
        .collect();
    for callee in [
        "wrap2", "wrap1", "twice", "call", "divide", "both", "Acc:add",
    ] {
        assert!(
            inline
                .iter()
                .any(|m| m.starts_with(&format!("inlined '{callee}'"))),
            "{callee}: {inline:#?}"
        );
    }
    assert!(
        inline.contains(&"call to 'recur' not inlined: callee is recursive (reaches itself through direct calls)".to_string()),
        "{inline:#?}"
    );
    let trapping = all(1);
    assert_eq!(trapping.expected(trapping.rows()), None);
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let got = run_nest(&trapping.src(false), trapping.rows(), &RecConfig::at(level));
        assert!(trapping.agrees(trapping.rows(), &got), "{level:?}: {got:?}");
    }
}

/// Every form of the shared generator at once: the program runs, and some
/// of its temporaries are coalesced while the swaps keep one.
#[test]
fn multiple_assignments_are_not_vacuous() {
    let all = Shuffle {
        steps: (0..8).collect(),
        rows: 1,
    };
    let src = all.src(false);
    let got = run_nest(&src, all.rows(), &RecConfig::at(OptLevel::O2));
    assert_eq!(got, Ok(all.expected(all.rows()).to_bits()), "{src}");
    let mut t = Interp::new();
    t.exec(&src).unwrap();
    t.exec("nest:compile()").unwrap();
    let remarks = t.ctx.exec.trace.remarks();
    let count = |kind: &str| {
        let of_kind = |r: &&terra_trace::Remark| r.pass == "copyprop" && r.kind == kind;
        remarks.iter().filter(of_kind).count()
    };
    // One temporary per right-hand side, 18 over the eight forms; a form
    // keeps one for each target a later right-hand side reads.
    assert!(count("applied") >= 10, "{remarks:?}");
    assert!(count("missed") >= 6, "{remarks:?}");
}

/// The nests above do run, do wrap where they are built to, and are what
/// the `affine` pass rewrites when they are not.
#[test]
fn affine_nests_are_not_vacuous() {
    let nest = |ty, shape, edge, staged| Nest {
        ty,
        shape,
        rows: 1,
        cols: 1,
        stride: 1,
        edge,
        staged,
    };
    for ty in 0..3 {
        for shape in 0..3 {
            let inside = nest(ty, shape, 0, true);
            let src = inside.src(false);
            let o0 = run_nest(&src, inside.rows(), &RecConfig::at(OptLevel::O0));
            let o2 = run_nest(&src, inside.rows(), &RecConfig::at(OptLevel::O2));
            assert!(o0.is_ok(), "type {ty} shape {shape}: {o0:?}\n{src}");
            assert_eq!(o0, o2, "type {ty} shape {shape}\n{src}");
            // One step further the extreme index wraps (a signed `- k`
            // excepted: it only goes negative), which moves an access.
            let beyond = nest(ty, shape, 1, true);
            let wrapped = run_nest(
                &beyond.src(false),
                beyond.rows(),
                &RecConfig::at(OptLevel::O0),
            );
            assert_ne!(wrapped, o0, "type {ty} shape {shape}");
            // Staged bounds are what lets `-O2` split the address.
            let mut t = Interp::new();
            t.exec(&src).unwrap();
            t.exec("nest:compile()").unwrap();
            let split = |t: &Interp| {
                t.ctx
                    .exec
                    .trace
                    .remarks()
                    .iter()
                    .any(|r| r.pass == "affine" && &*r.site.func == "nest")
            };
            assert!(split(&t), "type {ty} shape {shape}\n{src}");
        }
    }
}

/// Guards the proptest against vacuous Err==Err agreement: a known-good
/// program must actually run and produce the expected buffer at every level.
#[test]
fn harness_is_not_vacuous() {
    let stmts = vec![
        OpStmt::Add(Src::Param(0), Src::Param(1)), // x0 = a + b
        OpStmt::Mul(Src::Var(0), Src::Konst(8)),   // x1 = x0 * 8
        OpStmt::Div(Src::Var(1), Src::Param(2)),   // x2 = x1 / c
        OpStmt::Shl(Src::Var(0), 2),               // x3 = x0 << 2
    ];
    let src = program_txt(&stmts);
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let m = run_at(level, &src, stmts.len(), (2, 3, 5)).expect("must run");
        assert_eq!(m, vec![5.0, 40.0, 8.0, 20.0], "at {level:?}");
    }
}

/// Division by zero must trap identically at every level — the optimizer
/// may not fold it away or hoist it into execution.
#[test]
fn div_by_zero_traps_at_every_level() {
    let stmts = vec![
        OpStmt::Add(Src::Param(0), Src::Param(1)),
        OpStmt::Div(Src::Konst(7), Src::Param(2)), // x1 = 7 / c, c == 0
    ];
    let src = program_txt(&stmts);
    let errs: Vec<String> = [OptLevel::O0, OptLevel::O1, OptLevel::O2]
        .into_iter()
        .map(|l| run_at(l, &src, stmts.len(), (1, 2, 0)).expect_err("must trap"))
        .collect();
    assert_eq!(errs[0], errs[1]);
    assert_eq!(errs[0], errs[2]);
    assert!(errs[0].contains("zero"), "{}", errs[0]);
}

/// `x * 0` is `0` only where `x` is defined and silent: the product may not
/// drop an operand that traps or prints. Each program must produce the same
/// value or trap, and the same output, at every level (at PR 17 `fold`
/// rewrote all three to `0`: no trap, nothing printed).
#[test]
fn zero_product_keeps_an_operand_that_traps_or_prints() {
    let outcome = |level: OptLevel, src: &str| {
        let mut t = Interp::new();
        t.opt = level;
        t.capture_output();
        let result = match t.exec(src) {
            Ok(vals) => Ok(vals.first().and_then(|v| v.as_number())),
            Err(e) => Err(e.to_string()),
        };
        (result, t.take_output())
    };
    let programs = [
        (
            "terra f(k : int, i : int) : int return (k / i) * 0 end return f(5, 0)",
            Err("integer division by zero"),
            "",
        ),
        (
            "terra f(k : int, i : int) : int return 0 * (k % i) end return f(5, 0)",
            Err("integer division by zero"),
            "",
        ),
        (
            "terra f(k : int, i : int) : int return (k / i) * 0 end return f(5, 2)",
            Ok(0.0),
            "",
        ),
        (
            r#"local C = terralib.includec("stdio.h")
            terra g() : int C.printf("g ran\n") return 7 end
            terra f() : int return g() * 0 end
            return f()"#,
            Ok(0.0),
            "g ran\n",
        ),
    ];
    for (src, want, printed) in programs {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let (got, out) = outcome(level, src);
            match (&got, want) {
                (Ok(v), Ok(w)) => assert_eq!(*v, Some(w), "at {level:?}: {src}"),
                (Err(e), Err(w)) => assert!(e.contains(w), "at {level:?}: {e}"),
                _ => panic!("at {level:?}: got {got:?}, want {want:?}: {src}"),
            }
            assert_eq!(out, printed, "at {level:?}: {src}");
        }
    }
}

/// A `float` constant holds an f32 value, so folding at `-O1`/`-O2` gives
/// what `-O0`'s f32 arithmetic gives. Folded in f64 on unrounded constants,
/// each of these differs from `-O0`.
#[test]
fn float_constants_fold_like_f32_arithmetic_at_every_level() {
    let programs = [
        (
            "terra f() : float return [float](16777216) + [float](1) + [float](1) end return f()",
            16777216.0,
        ),
        (
            "terra f() : float return [float](0.1) * [float](0.1) end return f()",
            0.010000000707805157,
        ),
        (
            "terra f() : double return [double]([float](0.1)) end return f()",
            0.10000000149011612,
        ),
        (
            "terra f() : int return terralib.select([float](16777217) == [float](16777216), 1, 0) end return f()",
            1.0,
        ),
    ];
    for (src, want) in programs {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let mut t = Interp::new();
            t.opt = level;
            let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(out[0].as_number(), Some(want), "{level:?}: {src}");
        }
    }
}
