//! Differential tests for check elision (bounds checks and narrow-integer
//! wraps): the same random kernel, compiled with elision on and off, must
//! produce bit-identical results, identical heap state, and identical trap
//! behavior at every optimization level — and the sanitizer must still
//! catch seeded use-after-free and out-of-bounds accesses when elision is
//! enabled. The narrow-integer statements sit at their types' limits, on
//! both sides of where the no-wrap proof holds.

use proptest::prelude::*;
use terra_eval::{Interp, LuaValue};
use terra_ir::OptLevel;

mod common;
use common::{calls_strategy, nest_strategy, run_nest, shuffle_strategy, taps_strategy, RecConfig};

/// One access into the 8-slot stack array `a` (indices ≥ 8 trap).
#[derive(Debug, Clone)]
enum Access {
    /// `a[idx] = val` with a compile-time constant index (provable: the
    /// checkelim pass elides it when `idx < 8`, flags it when not).
    StoreConst { idx: u8, val: i8 },
    /// `for i = lo, hi do a[i + off] = i end` — provable from the loop
    /// bounds; traps when `hi - 1 + off >= 8`.
    StoreLoop { lo: u8, hi: u8, off: u8 },
    /// `a[(n + k) % 8] = k` — the index flows through `%`, which the
    /// analysis bounds to `[0, 7]`.
    StoreRem { k: u8 },
    /// `a[n] = val` — a runtime index the analysis cannot prove; stays
    /// checked and must behave identically either way.
    StoreParam { val: i8 },
    /// `s = s + a[idx]` accumulated into the checksum.
    LoadConst { idx: u8 },
    /// `for i : T = MAX - below, MAX do s = s + i % 7 end` — a narrow
    /// counter ending at its type's maximum: `i + 1 <= MAX`, so the
    /// increment provably never wraps.
    CountToMax { ty: u8, below: u8 },
    /// `for i : uint8 = 250, [uint8](n + 245), step` — the bound is unknown
    /// at stage time, so with `step >= 2` the no-wrap proof must fail
    /// (the counter stops at 253 at most and never actually wraps).
    CountToParam { step: u8 },
    /// `for i = 0, 33 do s = s + (i * c) % 1000 end` with `c = 2^26 + d`:
    /// `32 * c` reaches `2^31` exactly when `d >= 0`.
    ScaledIndex { d: i8 },
    /// `for i = 0, hi do s = s + [T](i * k) end` — a narrowing cast of a
    /// bounded value, which fits `T` or not as `hi * k` decides.
    CastBounded { ty: u8, hi: u8, k: u8 },
    /// `s = s + [T](n * k + s)` — a narrowing cast of a value nothing bounds.
    CastUnbounded { ty: u8, k: u8 },
    /// `var c : T = MAX - n; c = c + add; s = s + c` — narrow arithmetic
    /// that wraps at run time whenever `add > n`.
    WrapAtMax { ty: u8, add: u8 },
}

/// The narrow integer types, with their largest values.
const NARROW: [(&str, i64); 4] = [
    ("uint8", u8::MAX as i64),
    ("int8", i8::MAX as i64),
    ("int16", i16::MAX as i64),
    ("int32", i32::MAX as i64),
];

fn access_txt(acc: &Access) -> String {
    match acc {
        Access::StoreConst { idx, val } => format!("a[{}] = {}", idx % 12, val),
        Access::StoreLoop { lo, hi, off } => {
            let (lo, hi, off) = (lo % 9, hi % 10, off % 3);
            format!("for i = {lo}, {hi} do a[i + {off}] = i end")
        }
        Access::StoreRem { k } => format!("a[(n + {k}) % 8] = {k}"),
        Access::StoreParam { val } => format!("a[n] = {val}"),
        Access::LoadConst { idx } => format!("s = s + a[{}]", idx % 12),
        Access::CountToMax { ty, below } => {
            let (ty, max) = NARROW[*ty as usize % 4];
            let from = max - i64::from(below % 7);
            format!("for i : {ty} = {from}, {max} do s = s + i % 7 end")
        }
        Access::CountToParam { step } => {
            let step = 1 + step % 3;
            format!("for i : uint8 = 250, [uint8](n + 245), {step} do s = s + i end")
        }
        Access::ScaledIndex { d } => {
            let c = (1i64 << 26) + i64::from(d % 3);
            format!("for i = 0, 33 do s = s + (i * {c}) % 1000 end")
        }
        Access::CastBounded { ty, hi, k } => {
            let (ty, _) = NARROW[*ty as usize % 3];
            let (hi, k) = (1 + hi % 40, 1 + k % 9);
            format!("for i = 0, {hi} do s = s + [{ty}](i * {k}) end")
        }
        Access::CastUnbounded { ty, k } => {
            let (ty, _) = NARROW[*ty as usize % 3];
            format!("s = s + [{ty}](n * {} + s)", 1 + k % 100)
        }
        Access::WrapAtMax { ty, add } => {
            let (ty, max) = NARROW[*ty as usize % 4];
            let add = add % 8;
            format!("do var c : {ty} = {max} - n  c = c + {add}  s = s + c end")
        }
    }
}

fn program_txt(accs: &[Access]) -> String {
    let mut body = String::new();
    for acc in accs {
        body.push_str(&format!("    {}\n", access_txt(acc)));
    }
    format!(
        "local std = terralib.includec(\"stdlib.h\")\n\
         terra prog(n : int) : &double\n\
         \u{20}   var buf = [&double](std.malloc(16))\n\
         \u{20}   var a : int[8]\n\
         \u{20}   for i = 0, 8 do a[i] = 0 end\n\
         \u{20}   var s : int = 0\n\
         {body}\
         \u{20}   for i = 0, 8 do s = s + a[i] end\n\
         \u{20}   buf[0] = [double](s)\n\
         \u{20}   return buf\n\
         end\n\
         return prog"
    )
}

fn access_strategy() -> impl Strategy<Value = Access> {
    prop_oneof![
        (any::<u8>(), any::<i8>()).prop_map(|(idx, val)| Access::StoreConst { idx, val }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(lo, hi, off)| Access::StoreLoop {
            lo,
            hi,
            off
        }),
        any::<u8>().prop_map(|k| Access::StoreRem { k: k % 16 }),
        any::<i8>().prop_map(|val| Access::StoreParam { val }),
        any::<u8>().prop_map(|idx| Access::LoadConst { idx }),
        (any::<u8>(), any::<u8>()).prop_map(|(ty, below)| Access::CountToMax { ty, below }),
        any::<u8>().prop_map(|step| Access::CountToParam { step }),
        any::<i8>().prop_map(|d| Access::ScaledIndex { d }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(ty, hi, k)| Access::CastBounded {
            ty,
            hi,
            k
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(ty, k)| Access::CastUnbounded { ty, k }),
        (any::<u8>(), any::<u8>()).prop_map(|(ty, add)| Access::WrapAtMax { ty, add }),
    ]
}

/// Runs the kernel; returns the checksum read back from VM heap memory on
/// success or, on failure, what the trap was (configurations are compared).
fn run_at(level: OptLevel, elide: bool, src: &str, n: i32) -> Result<u64, String> {
    let mut t = Interp::new();
    t.opt = level;
    t.elide_checks = elide;
    t.exec(src).map_err(common::trap_kind)?;
    let out = t
        .exec(&format!("return prog({n})"))
        .map_err(common::trap_kind)?;
    let LuaValue::Number(addr) = out[0] else {
        panic!("prog must return a pointer, got {out:?}");
    };
    // The read itself is part of the differential: a kernel that stomps the
    // frame slot holding `buf` may return a bad pointer, and both runs must
    // then fail the same way.
    match t.ctx.exec.memory.load_f64(addr as u64) {
        Ok(v) => Ok(v.to_bits()),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Elision on and off agree — same checksum bits, same trap message —
    /// at every optimization level. (`-O0`/`-O1` never run checkelim, so
    /// those levels also pin that the flag is inert there.)
    #[test]
    fn elision_preserves_semantics_at_every_level(
        accs in proptest::collection::vec(access_strategy(), 1..8),
        n in 0i32..8,
    ) {
        let src = program_txt(&accs);
        let call = format!("return prog({n})");
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let on = run_at(level, true, &src, n);
            let off = run_at(level, false, &src, n);
            // On failure, the flight recorder bisects to the first
            // divergent heap effect rather than just "checksums differ".
            let bisect = if on == off {
                String::new()
            } else {
                let mut unchecked = RecConfig::at(level);
                unchecked.elide_checks = false;
                common::divergence_report(&src, &call, RecConfig::at(level), unchecked)
            };
            prop_assert_eq!(
                &on, &off,
                "elision changed behavior at {:?}\nprogram:\n{}\n{}", level, src, bisect
            );
        }
        // And the elided -O2 run agrees with the fully-checked -O0 run.
        let fast = run_at(OptLevel::O2, true, &src, n);
        let slow = run_at(OptLevel::O0, false, &src, n);
        let bisect = if fast == slow {
            String::new()
        } else {
            let mut checked0 = RecConfig::at(OptLevel::O0);
            checked0.elide_checks = false;
            common::divergence_report(&src, &call, RecConfig::at(OptLevel::O2), checked0)
        };
        prop_assert_eq!(&fast, &slow, "pipeline diverged for:\n{}\n{}", src, bisect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Affine indexing in narrow arithmetic at the wrap boundary (the shared
    /// nest generator): the proofs that let `-O2` reassociate an address and
    /// drop its check change nothing — elision on, off, and under the
    /// sanitizer, which takes no proof, agree with fully-checked `-O0`.
    #[test]
    fn affine_nests_agree_with_and_without_proofs(nest in nest_strategy()) {
        let src = nest.src(false);
        let mut slow = RecConfig::at(OptLevel::O0);
        slow.elide_checks = false;
        let base = run_nest(&src, nest.rows(), &slow);
        for (elide_checks, sanitize) in [(true, false), (false, false), (true, true)] {
            let cfg = RecConfig {
                elide_checks,
                sanitize,
                ..RecConfig::at(OptLevel::O2)
            };
            let got = run_nest(&src, nest.rows(), &cfg);
            prop_assert_eq!(&got, &base, "{:?} vs checked -O0 for:\n{}", cfg, src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multiple assignments (the shared generator), whose coalesced pointer
    /// bumps feed checked loads: elision on, off and under the sanitizer
    /// compute what the language says.
    #[test]
    fn multiple_assignments_agree_with_and_without_proofs(shuffle in shuffle_strategy()) {
        let (src, n) = (shuffle.src(false), shuffle.rows());
        let expected = Ok(shuffle.expected(n).to_bits());
        for (elide_checks, sanitize) in [(true, false), (false, false), (true, true)] {
            let cfg = RecConfig {
                elide_checks,
                sanitize,
                ..RecConfig::at(OptLevel::O2)
            };
            prop_assert_eq!(&run_nest(&src, n, &cfg), &expected, "{:?} for:\n{}", cfg, src);
        }
    }

    /// Calls the inliner takes bring their callers' objects along — a
    /// struct value, a heap struct, a table of function pointers — and their
    /// accesses with them: proofs on, off and under the sanitizer compute
    /// what the model says, or divide by zero.
    #[test]
    fn call_graphs_agree_with_and_without_proofs(calls in calls_strategy()) {
        let (src, n) = (calls.src(false), calls.rows());
        for (elide_checks, sanitize) in [(true, false), (false, false), (true, true)] {
            let cfg = RecConfig {
                elide_checks,
                sanitize,
                ..RecConfig::at(OptLevel::O2)
            };
            let got = run_nest(&src, n, &cfg);
            prop_assert!(calls.agrees(n, &got), "{:?}: {:?} for:\n{}", cfg, got, src);
        }
    }

    /// Loops `unroll` takes or refuses (the shared generator), whose copies'
    /// accesses are proven or checked at constant offsets: proofs on, off and
    /// under the sanitizer compute what the model says, or divide by zero.
    #[test]
    fn constant_trip_loops_agree_with_and_without_proofs(taps in taps_strategy()) {
        let (src, n) = (taps.src(false), taps.rows());
        for (elide_checks, sanitize) in [(true, false), (false, false), (true, true)] {
            let cfg = RecConfig {
                elide_checks,
                sanitize,
                ..RecConfig::at(OptLevel::O2)
            };
            let got = run_nest(&src, n, &cfg);
            prop_assert!(taps.agrees(n, &got), "{:?}: {:?} for:\n{}", cfg, got, src);
        }
    }
}

/// Guards against vacuous agreement: a known kernel must actually produce
/// its checksum, and a seeded constant OOB must trap, at every combination.
#[test]
fn harness_is_not_vacuous() {
    let good = program_txt(&[
        Access::StoreConst { idx: 3, val: 7 },
        Access::StoreLoop {
            lo: 0,
            hi: 4,
            off: 1,
        },
        Access::LoadConst { idx: 3 },
    ]);
    // A null store must trap identically everywhere — unlike a small
    // constant OOB, which lands inside the frame and cannot fault the VM's
    // whole-segment check.
    let bad =
        "terra prog(n : int) : int\n  var p : &int = nil\n  @p = 1\n  return 0\nend\nreturn prog";
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        for elide in [false, true] {
            let sum = run_at(level, elide, &good, 2).expect("good kernel must run");
            // a = [0,0,1,2,3,0,0,0]: the 7 in a[3] is overwritten by the
            // loop; LoadConst then adds a[3]=2, the final sweep adds 6.
            assert_eq!(f64::from_bits(sum), 8.0, "at {level:?} elide={elide}");
            let err = run_at(level, elide, bad, 0).expect_err("null store must trap");
            assert!(err.contains("invalid memory access"), "{err}");
        }
    }
}

/// The narrow-integer statements typecheck and compute what the host's own
/// wrapping arithmetic computes, at every level, elided or not — so their
/// agreement above is agreement on values, not on an error message.
#[test]
fn narrow_statements_compute_what_the_host_computes() {
    let src = program_txt(&[
        Access::CountToMax { ty: 0, below: 3 },
        Access::CountToMax { ty: 3, below: 6 },
        Access::CountToParam { step: 1 },
        Access::ScaledIndex { d: 0 },
        Access::CastBounded {
            ty: 1,
            hi: 39,
            k: 8,
        },
        Access::CastUnbounded { ty: 0, k: 36 },
        Access::WrapAtMax { ty: 1, add: 5 },
    ]);
    let host = |n: i32| {
        let mut s = 0i32;
        for i in 252..255 {
            s += i % 7;
        }
        for i in i32::MAX - 6..i32::MAX {
            s += i % 7;
        }
        let (mut i, stop) = (250u8, (n + 245) as u8);
        while i < stop {
            s += i32::from(i);
            i = i.wrapping_add(2);
        }
        for i in 0..33i32 {
            s += i.wrapping_mul(1 << 26) % 1000;
        }
        for i in 0..40 {
            s += i32::from((i * 9) as i8);
        }
        s += i32::from((n * 37 + s) as u8);
        s + i32::from(((127 - n) as i8).wrapping_add(5))
    };
    for n in [0, 3, 7] {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for elide in [false, true] {
                let sum = run_at(level, elide, &src, n).expect("narrow kernel must run");
                let want = f64::from(host(n));
                assert_eq!(
                    f64::from_bits(sum),
                    want,
                    "n={n} at {level:?} elide={elide}"
                );
            }
        }
    }
}

/// The sanitizer catches a use-after-free even with elision enabled at
/// `-O2`: elision decisions never apply to sanitized runs.
#[test]
fn sanitizer_still_traps_uaf_with_elision_enabled() {
    let src = r#"
local std = terralib.includec("stdlib.h")
terra uaf() : double
  var a = [&double](std.malloc(64))
  a[2] = 7.0
  std.free([&int8](a))
  return a[2]
end
return uaf()
"#;
    let mut t = Interp::new();
    t.opt = OptLevel::O2;
    t.elide_checks = true;
    t.ctx.exec.memory.set_sanitize(true);
    let err = t.exec(src).expect_err("use-after-free must trap");
    assert!(err.to_string().contains("use-after-free"), "{err}");
}

/// The sanitizer also still catches a plain out-of-bounds heap access with
/// elision enabled (the access is unprovable, so it stays checked).
#[test]
fn sanitizer_still_traps_oob_with_elision_enabled() {
    let src = r#"
local std = terralib.includec("stdlib.h")
terra oob(i : int) : double
  var a = [&double](std.malloc(32))
  var v = a[i]
  std.free([&int8](a))
  return v
end
return oob(1000000000)
"#;
    let mut t = Interp::new();
    t.opt = OptLevel::O2;
    t.elide_checks = true;
    t.ctx.exec.memory.set_sanitize(true);
    let err = t.exec(src).expect_err("OOB must trap");
    assert!(err.to_string().contains("invalid memory access"), "{err}");
}

/// On the staged-constant GEMM the abstract interpreter proves *every*
/// access in-bounds at `-O2` — and elision must pay: the elided run retires
/// strictly fewer instructions than the `elide_checks = false` run, for the
/// same result.
#[test]
fn staged_constant_gemm_is_fully_proven_and_retires_fewer_instructions() {
    let src = common::gemm_static_src(24) + "return gemm_static()";
    // (retired instructions, runtime bounds checks, result) of one -O2 run.
    let run = |elide: bool| {
        let mut t = Interp::new();
        t.opt = OptLevel::O2;
        t.elide_checks = elide;
        t.ctx.exec.set_profile(true);
        let out = t.exec(&src).expect("GEMM must run");
        let LuaValue::Number(r) = out[0] else {
            panic!("gemm_static must return a number, got {out:?}");
        };
        let p = t.ctx.exec.profile();
        (p.total_instructions(), p.op_count("chk"), r)
    };
    let (checked_instrs, checked_chks, checked_r) = run(false);
    let (elided_instrs, elided_chks, elided_r) = run(true);
    assert_eq!((checked_r, elided_r), (48.0, 48.0));
    assert!(checked_chks > 0, "the checked run must execute checks");
    assert_eq!(elided_chks, 0, "every access must be proven check-free");
    assert!(
        elided_instrs < checked_instrs,
        "elision must retire fewer instructions ({elided_instrs} vs {checked_instrs})"
    );
}
