//! Vector values on every path that moves registers.
//!
//! A scalar is one 8-byte frame slot and a `vector(T, n)` value four
//! consecutive ones, so every place the VM copies "a register" has to know
//! which it is holding: `mov`, call argument blocks, return values,
//! indirect calls, `parallelfor` captures, argument slots values are built
//! in, temporaries that take over slots a scalar just used, and frames
//! pushed after the register file regrew.
//! Each path here carries a `vector(double, 4)` and a `vector(float, 8)`
//! and is compared lane for lane with the same arithmetic done natively,
//! at `-O0` and `-O2`.

use terra_eval::{Interp, LuaValue};
use terra_ir::OptLevel;

/// The program under test, over element type `T` and lane count `N`.
/// Every entry point returns a malloc'd buffer of result lanes.
const PROGRAM: &str = r#"
    local std = terralib.includec("stdlib.h")
    local vec = vector(T, N)

    -- Lane i of test vector `seed` is seed * 16 + i.
    terra mk(seed : int) : vec
        var p = [&T](std.malloc(N * sizeof(T)))
        for i = 0, N do p[i] = seed * 16 + i end
        var v = @[&vec](p)
        std.free([&int8](p))
        return v
    end

    terra out(v : vec) : &T
        var p = [&T](std.malloc(N * sizeof(T)))
        @[&vec](p) = v
        return p
    end

    -- `mov`: one vector local assigned from another, then both used.
    terra moved() : &T
        var a = mk(1)
        var b = a
        b = b + a
        a = b * a
        return out(a - b)
    end

    -- Second of three arguments, and the return value.
    terra mid(x : int, v : vec, y : T) : vec
        return v * [vec](y) + [vec]([T](x))
    end
    terra direct() : &T
        return out(mid(3, mk(2), 5))
    end

    -- The same call through a function pointer.
    terra indirect() : &T
        var f : {int, vec, T} -> vec = mid
        return out(f(7, mk(3), 2))
    end

    -- A capture of a `parallelfor` body: row i is v * i.
    terra captured(n : int) : &T
        var rows = [&T](std.malloc(n * N * sizeof(T)))
        var v = mk(4)
        parallelfor i = 0, n do
            @[&vec](rows + i * N) = v * [vec]([T](i))
        end
        return rows
    end

    -- Vector temporaries take over the slots scalar temporaries just left:
    -- whatever the scalars wrote there must not show through.
    terra reused(x : int) : &T
        var s = (x * 3 + 1) * (x - 2) + (x * x - 5)
        var v = (mk(5) + mk(6)) * ([vec]([T](s)) - mk(7))
        var t = (s * 7 - x) * (s + x)
        return out(v + [vec]([T](t)))
    end

    -- Arguments are built in their slots, none of these the first: a negated
    -- vector local, a selected value, a comparison.
    terra pick(x : int, v : vec, s : int, b : bool) : vec
        if b then return v + [vec]([T](s + x)) end
        return v
    end
    terra in_place(x : int) : &T
        var v = mk(9)
        return out(pick(x, -v, terralib.select(x > 3, x, -x), x ~= 0))
    end

    -- A vector local live across a call, at every depth of a recursion deep
    -- enough that the register file is regrown under the live frames.
    terra rec(d : int, v : vec) : vec
        if d == 0 then return v end
        var mine = v + [vec]([T](d))
        return rec(d - 1, mine) + mine
    end
    terra recursive(d : int) : &T
        return out(rec(d, mk(8)))
    end
"#;

const OPTS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

/// Runs `call` over `vector(ty, width)` at `opt` on `threads` threads and
/// reads back `n` result lanes as raw bits.
fn lanes(ty: &str, width: usize, opt: OptLevel, threads: usize, call: &str, n: usize) -> Vec<u64> {
    let bytes = if ty == "float" { 4 } else { 8 };
    let mut t = Interp::new();
    t.opt = opt;
    t.ctx.exec.set_threads(threads);
    let setup = format!("local T, N = {ty}, {width}\n{PROGRAM}");
    t.exec(&setup)
        .unwrap_or_else(|e| panic!("{ty}x{width}: {e}"));
    let result = t
        .exec(&format!("return {call}"))
        .unwrap_or_else(|e| panic!("{call} at {opt:?}: {e}"));
    let [LuaValue::Number(addr)] = result[..] else {
        panic!("{call} returns a pointer, got {result:?}");
    };
    let mem = &mut t.ctx.exec.memory;
    (0..n as u64)
        .map(|i| {
            let at = addr as u64 + i * bytes;
            match bytes {
                4 => mem.load_u32(at).map(u64::from),
                _ => mem.load_u64(at),
            }
            .expect("result lanes are readable")
        })
        .collect()
}

/// Instantiates the tests for one element type: `$T` natively, `$ty` in
/// Terra, `$N` lanes.
macro_rules! vector_paths {
    ($module:ident, $T:ty, $ty:literal, $N:literal) => {
        mod $module {
            use super::*;

            type V = [$T; $N];

            fn mk(seed: i32) -> V {
                std::array::from_fn(|i| (seed * 16 + i as i32) as $T)
            }
            fn splat(x: $T) -> V {
                [x; $N]
            }
            fn zip(a: V, b: V, f: impl Fn($T, $T) -> $T) -> V {
                std::array::from_fn(|i| f(a[i], b[i]))
            }
            fn add(a: V, b: V) -> V {
                zip(a, b, |x, y| x + y)
            }
            fn sub(a: V, b: V) -> V {
                zip(a, b, |x, y| x - y)
            }
            fn mul(a: V, b: V) -> V {
                zip(a, b, |x, y| x * y)
            }
            fn mid(x: i32, v: V, y: $T) -> V {
                add(mul(v, splat(y)), splat(x as $T))
            }
            fn bits(v: &[$T]) -> Vec<u64> {
                v.iter().map(|x| u64::from(x.to_bits())).collect()
            }

            fn check(call: &str, threads: usize, expect: &[$T]) {
                for opt in OPTS {
                    let got = lanes($ty, $N, opt, threads, call, expect.len());
                    assert_eq!(
                        got,
                        bits(expect),
                        "{call} over {}x{} at {opt:?}, {threads} thread(s): expected {expect:?}",
                        $ty,
                        $N
                    );
                }
            }

            #[test]
            fn through_mov() {
                let a = mk(1);
                let b = add(a, a);
                let a = mul(b, a);
                check("moved()", 1, &sub(a, b));
            }

            #[test]
            fn as_middle_argument_and_return_value() {
                check("direct()", 1, &mid(3, mk(2), 5.0));
            }

            #[test]
            fn through_an_indirect_call() {
                check("indirect()", 1, &mid(7, mk(3), 2.0));
            }

            #[test]
            fn as_a_parallelfor_capture() {
                let n = 70;
                let rows: Vec<$T> = (0..n).flat_map(|i| mul(mk(4), splat(i as $T))).collect();
                for threads in [1, 4] {
                    check(&format!("captured({n})"), threads, &rows);
                }
            }

            #[test]
            fn in_slots_a_scalar_just_used() {
                let x = 9i32;
                let s = (x * 3 + 1) * (x - 2) + (x * x - 5);
                let v = mul(add(mk(5), mk(6)), sub(splat(s as $T), mk(7)));
                let t = (s * 7 - x) * (s + x);
                check("reused(9)", 1, &add(v, splat(t as $T)));
            }

            #[test]
            fn built_in_an_argument_slot() {
                let neg = sub(splat(0.0), mk(9));
                check("in_place(5)", 1, &add(neg, splat(10.0)));
                check("in_place(-2)", 1, &neg);
                check("in_place(0)", 1, &neg);
            }

            #[test]
            fn live_across_deep_recursion() {
                fn rec(d: i32, v: V) -> V {
                    if d == 0 {
                        return v;
                    }
                    let mine = add(v, splat(d as $T));
                    add(rec(d - 1, mine), mine)
                }
                check("recursive(600)", 1, &rec(600, mk(8)));
            }
        }
    };
}

vector_paths!(double4, f64, "double", 4);
vector_paths!(float8, f32, "float", 8);
