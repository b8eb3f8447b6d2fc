//! Edge-case and failure-injection tests for the staged language: things
//! users get wrong, and behaviours at the corners of the semantics.

use terra_eval::{Interp, LuaValue, Phase};

fn eval_num(src: &str) -> f64 {
    let mut t = Interp::new();
    let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    match out.first() {
        Some(LuaValue::Number(n)) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn eval_err(src: &str) -> terra_eval::LuaError {
    let mut t = Interp::new();
    match t.exec(src) {
        Ok(_) => panic!("expected error for {src}"),
        Err(e) => e,
    }
}

// ---------------------------------------------------------------------------
// error phases (§4.1: where each class of error can occur)
// ---------------------------------------------------------------------------

#[test]
fn specialization_errors_happen_at_definition() {
    let e = eval_err("terra f() : int return not_a_thing end");
    assert_eq!(e.phase, Phase::Specialize);
    // A table is not a Terra value.
    let e = eval_err("local t = {} terra f() : int return t end");
    assert_eq!(e.phase, Phase::Specialize);
}

#[test]
fn type_errors_happen_at_first_call_not_definition() {
    let mut t = Interp::new();
    // Defining is fine…
    t.exec("terra bad() : int return 1.5 + nil end").unwrap();
    // …calling reports a typecheck-phase error.
    let e = t.exec("return bad()").unwrap_err();
    assert_eq!(e.phase, Phase::Typecheck);
}

#[test]
fn execution_errors_carry_execution_phase() {
    let e = eval_err(
        "terra crash(p : &int) : int return p[0] end\n\
         return crash(nil)",
    );
    assert_eq!(e.phase, Phase::Execution);
    let e = eval_err("terra d(x : int) : int return 1 / x end return d(0)");
    assert_eq!(e.phase, Phase::Execution);
    assert!(e.to_string().contains("division"), "{e}");
}

#[test]
fn lua_can_catch_terra_errors_with_pcall() {
    let src = r#"
        terra d(x : int) : int return 100 / x end
        local ok, msg = pcall(function() return d(0) end)
        if ok then return 0 end
        return 1
    "#;
    assert_eq!(eval_num(src), 1.0);
}

// ---------------------------------------------------------------------------
// staging corners
// ---------------------------------------------------------------------------

#[test]
fn quote_reuse_in_multiple_functions() {
    // One quote spliced into two different functions works (specialized
    // terms are immutable values).
    let src = r#"
        local q = `21
        terra a() : int return [q] + 1 end
        terra b() : int return [q] * 2 end
        return a() + b()
    "#;
    assert_eq!(eval_num(src), 64.0);
}

#[test]
fn nested_escapes_and_quotes() {
    let src = r#"
        local function wrap(e)
            return `[e] + [e]
        end
        terra f(x : int) : int
            return [wrap(wrap(`x))]
        end
        return f(3)
    "#;
    assert_eq!(eval_num(src), 12.0);
}

#[test]
fn symbols_shared_across_quote_boundaries() {
    let src = r#"
        local s = symbol(int, "shared")
        local decl = quote var [s] = 5 end
        local use = `[s] * [s]
        terra f() : int
            [decl];
            return [use]
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 25.0);
}

#[test]
fn stale_symbol_in_wrong_function_is_an_error() {
    // A symbol bound in one function cannot be referenced from another.
    let src = r#"
        local s = symbol(int, "leaky")
        terra a() : int var [s] = 1 return [s] end
        terra b() : int return [s] end
        a()
        return b()
    "#;
    let e = eval_err(src);
    assert!(
        e.to_string().contains("not in scope"),
        "unexpected message: {e}"
    );
}

#[test]
fn macros_receive_quotes_not_values() {
    let src = r#"
        local seen = nil
        local probe = terralib.macro(function(q)
            seen = type(q)
            return q
        end)
        terra f(x : int) : int return probe(x + 1) end
        local r = f(9)
        if seen == "quote" then return r end
        return -1
    "#;
    assert_eq!(eval_num(src), 10.0);
}

#[test]
fn statement_macro_splice() {
    let src = r#"
        local log = terralib.macro(function(e)
            return quote var tmp = [e] in tmp * 2 end
        end)
        terra f(x : int) : int
            return log(x + 1)
        end
        return f(20)
    "#;
    assert_eq!(eval_num(src), 42.0);
}

// ---------------------------------------------------------------------------
// terra control flow corners
// ---------------------------------------------------------------------------

#[test]
fn repeat_until_in_terra() {
    let src = r#"
        terra f(n : int) : int
            var c = 0
            repeat
                c = c + 1
                n = n / 2
            until n == 0
            return c
        end
        return f(17)
    "#;
    assert_eq!(eval_num(src), 5.0);
}

#[test]
fn nested_loops_break_innermost() {
    let src = r#"
        terra f() : int
            var hits = 0
            for i = 0, 4 do
                for j = 0, 10 do
                    if j > i then break end
                    hits = hits + 1
                end
            end
            return hits
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 1.0 + 2.0 + 3.0 + 4.0);
}

#[test]
fn defer_runs_before_return_value_is_delivered() {
    let src = r#"
        local g = global(int, 0)
        terra touch() : {} g = g + 1 end
        terra f() : int
            defer touch()
            return g * 100
        end
        local first = f()
        return first * 10 + g:get()
    "#;
    // f computes 0*100 = 0 before the deferred touch bumps g to 1.
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn defer_inside_loop_scope_runs_per_iteration() {
    let src = r#"
        local g = global(int, 0)
        terra bump() : {} g = g + 1 end
        terra f() : {}
            for i = 0, 3 do
                do
                    defer bump()
                end
            end
        end
        f()
        return g:get()
    "#;
    assert_eq!(eval_num(src), 3.0);
}

#[test]
fn nonpositive_for_step_is_a_type_error() {
    let e = eval_err("terra f() : int for i = 0, 10, 0 do end return 1 end return f()");
    assert!(e.to_string().contains("positive"), "{e}");
    let e = eval_err("terra f() : int for i = 0, 10, -2 do end return 1 end return f()");
    assert!(e.to_string().contains("positive"), "{e}");
}

#[test]
fn while_with_compound_condition() {
    let src = r#"
        terra f(n : int) : int
            var i = 0
            while i < n and i * i < 50 do
                i = i + 1
            end
            return i
        end
        return f(100)
    "#;
    assert_eq!(eval_num(src), 8.0);
}

#[test]
fn short_circuit_prevents_null_deref() {
    let src = r#"
        terra safe(p : &int) : int
            if p ~= nil and p[0] > 0 then
                return p[0]
            end
            return -1
        end
        return safe(nil)
    "#;
    assert_eq!(eval_num(src), -1.0);
}

// ---------------------------------------------------------------------------
// types and conversions
// ---------------------------------------------------------------------------

#[test]
fn integer_conversion_ranks() {
    let src = r#"
        terra f(a : int8, b : int64) : int64
            return a + b   -- promotes to int64
        end
        return f(-1, 1000)
    "#;
    assert_eq!(eval_num(src), 999.0);
}

#[test]
fn float_int_mixing_promotes_to_float() {
    assert_eq!(
        eval_num("terra f(x : int) : double return x / 4 + 0.5 end return f(10)"),
        // int division first (both ints), then float add.
        2.0 + 0.5
    );
    assert_eq!(
        eval_num("terra f(x : int) : double return x / 4.0 + 0.5 end return f(10)"),
        3.0
    );
}

#[test]
fn unsigned_comparison_behaviour() {
    let src = r#"
        terra f() : bool
            var big : uint64 = 0xFFFFFFFFFFFFFFFFULL
            return big > 1
        end
        if f() then return 1 else return 0 end
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn pointer_difference_and_indexing_agree() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra f() : int64
            var p = [&double](std.malloc(80))
            var q = &p[7]
            return q - p
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 7.0);
}

#[test]
fn array_decay_to_pointer_param() {
    let src = r#"
        terra sum(p : &int, n : int) : int
            var s = 0
            for i = 0, n do s = s + p[i] end
            return s
        end
        terra f() : int
            var a : int[5]
            for i = 0, 5 do a[i] = i + 1 end
            return sum(a, 5)
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 15.0);
}

#[test]
fn struct_copy_semantics() {
    let src = r#"
        struct P { x : int, y : int }
        terra f() : int
            var a = P { 1, 2 }
            var b = a            -- copy
            b.x = 100
            return a.x * 10 + b.x / 100
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 11.0);
}

#[test]
fn aggregate_return_is_a_clear_error() {
    let e = eval_err(
        "struct P { x : int }\n\
         terra f() : P var p : P return p end\n\
         return f()",
    );
    assert!(e.to_string().contains("aggregate"), "{e}");
}

#[test]
fn vector_width_mismatch_is_an_error() {
    let e = eval_err(
        "local v4 = vector(float, 4)\n\
         local v8 = vector(float, 8)\n\
         terra f(a : v4, b : v8) : v4 return a + b end\n\
         f(nil, nil)",
    );
    assert!(e.to_string().contains("vector"), "{e}");
}

/// A vector has `float` or `double` lanes, the only lanes the VM has vector
/// instructions for (DESIGN.md §2), and `%` and comparisons are not vector
/// operators. Each row is refused with a message at `-O0` and `-O2`. An
/// integer-lane vector used to reach the back end and abort the host
/// (`unsupported cast`), and `v < w` compared one register slot.
#[test]
fn vectors_have_float_lanes_only() {
    let lanes = "vector: element type must be float or double";
    let rows = [
        (
            "terra f() : int var v : vector(int, 4) return 1 end return f()",
            lanes,
        ),
        ("local V = vector(int64, 4)", lanes),
        ("local V = vector(bool, 4)", lanes),
        (
            "terra f() : int var v : vector(float, 4) = 3 var w = v % v return 1 end\n\
             return f()",
            "type error: operator is not defined on vectors",
        ),
        (
            "terra f() : bool var v : vector(float, 4) = 3 return v < v end return f()",
            "type error: operator is not defined on vectors",
        ),
    ];
    for level in [terra_ir::OptLevel::O0, terra_ir::OptLevel::O2] {
        for (src, msg) in rows {
            let mut t = Interp::new();
            t.opt = level;
            let e = t.exec(src).expect_err(src).to_string();
            assert!(e.contains(msg), "{level:?} {src}: {e}");
        }
    }
    // The float-lane forms of the same code: an uninitialized vector is zero
    // and a scalar stored through a vector pointer is broadcast.
    let src = "local V = vector(double, 4)\n\
               terra f() : double\n\
                   var v : V\n\
                   var w : V = 1\n\
                   var p = &w\n\
                   @p = 2.5\n\
                   var a, b = [&double](&v), [&double](&w)\n\
                   return a[0] + b[3]\n\
               end\n\
               return f()";
    assert_eq!(eval_at_every_level(src), 2.5);
}

// ---------------------------------------------------------------------------
// reflection / globals corners
// ---------------------------------------------------------------------------

#[test]
fn global_struct_fields_reachable_from_terra() {
    let src = r#"
        struct Pair { a : int, b : int }
        local g = global(Pair)
        terra setup() : {} g.a = 6 g.b = 7 end
        terra mul() : int return g.a * g.b end
        setup()
        return mul()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn methods_added_between_uses_are_visible_until_finalized() {
    let src = r#"
        struct S { v : int }
        terra S:one() : int return self.v + 1 end
        -- Add a second method before any use.
        terra S:two() : int return self:one() * 2 end
        terra f() : int
            var s = S { 20 }
            return s:two()
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn offsetof_matches_layout() {
    let src = r#"
        struct S { a : int8, b : double, c : int }
        return terralib.offsetof(S, "b") * 100 + terralib.offsetof(S, "c")
    "#;
    assert_eq!(eval_num(src), 8.0 * 100.0 + 16.0);
}

#[test]
fn sizeof_in_lua_and_terra_agree() {
    let src = r#"
        struct S { a : int, b : double }
        terra f() : int return sizeof(S) end
        if f() == sizeof(S) then return sizeof(S) end
        return -1
    "#;
    assert_eq!(eval_num(src), 16.0);
}

#[test]
fn function_type_reflection_roundtrip() {
    let src = r#"
        terra f(a : int, b : double) : bool return a > b end
        local ft = f:gettype()
        local g = terralib.funcpointer(ft.parameters, ft.returns)
        if tostring(g) == tostring(ft) then return 1 end
        return 0
    "#;
    assert_eq!(eval_num(src), 1.0);
}

// ---------------------------------------------------------------------------
// output / printf formats
// ---------------------------------------------------------------------------

#[test]
fn printf_many_formats() {
    let mut t = Interp::new();
    t.capture_output();
    t.exec(
        r#"
        local C = terralib.includec("stdio.h")
        terra f() : {}
            C.printf("%d|%u|%x|%c|%5d|%.3f|%s|%%\n", -3, 7, 255, 65, 42, 1.5, "end")
        end
        f()
        "#,
    )
    .unwrap();
    assert_eq!(t.take_output(), "-3|7|ff|A|   42|1.500|end|%\n");
}

/// `printf` and `string.format` are one formatter with C's rules: `-` and `0`
/// are honoured, `%e` and `%g` are C's, literal text is copied as written.
#[test]
fn printf_and_string_format_render_as_c_does() {
    let mut t = Interp::new();
    t.capture_output();
    t.exec(
        r#"
        local C = terralib.includec("stdio.h")
        terra f() : {}
            C.printf("[%-5d] [%05d] [%e] [%g] naïve\n", 42, 42, 1.5, 1.0 / 3.0)
        end
        f()
        print(string.format("[%-5d] [%05d] [%e] [%g] naïve", 42, 42, 1.5, 1 / 3))
        "#,
    )
    .unwrap();
    let want = "[42   ] [00042] [1.500000e+00] [0.333333] naïve\n";
    assert_eq!(t.take_output(), format!("{want}{want}"));
}

#[test]
fn clock_is_monotonic_within_terra() {
    let src = r#"
        local C = terralib.includec("time.h")
        terra f() : bool
            var t0 = C.clock()
            var s = 0.0
            for i = 0, 100000 do s = s + 1.0 end
            var t1 = C.clock()
            return t1 >= t0
        end
        if f() then return 1 end
        return 0
    "#;
    assert_eq!(eval_num(src), 1.0);
}

// ---------------------------------------------------------------------------
// limits of the backend that must be diagnostics, not host panics
// ---------------------------------------------------------------------------

/// A frame has at most 65 534 register slots. A staged function that needs
/// more — here through its locals at `-O0`, and through vector parameters
/// (four slots each) at `-O2` — is an ordinary compile error that names
/// the function, at its first call.
#[test]
fn too_many_register_slots_is_a_compile_error() {
    let locals = r#"
        local stmts = terralib.newlist()
        for i = 1, 70000 do
            stmts:insert(quote var [symbol(int, "v" .. i)] = i end)
        end
        terra crowded() : int
            [stmts]
            return 1
        end
    "#;
    let params = r#"
        local params = terralib.newlist()
        for i = 1, 16400 do
            params:insert(symbol(vector(double, 4), "p" .. i))
        end
        terra crowded([params]) : int
            return 1
        end
    "#;
    for (opt, setup, call) in [
        (terra_ir::OptLevel::O0, locals, "return crowded()"),
        (terra_ir::OptLevel::O2, params, "return crowded:compile()"),
    ] {
        let mut t = Interp::new();
        t.opt = opt;
        t.exec(setup)
            .unwrap_or_else(|e| panic!("staging is fine: {e}"));
        let e = t.exec(call).unwrap_err();
        assert_eq!(e.phase, Phase::Typecheck, "{e}");
        let msg = e.to_string();
        assert!(
            msg.contains("'crowded' needs more than 65534 register slots"),
            "{msg}"
        );
        // The session survives: a function that fits still compiles and runs.
        let ok = t.exec("terra small() : int return 7 end return small()");
        assert!(matches!(ok.as_deref(), Ok([LuaValue::Number(n)]) if *n == 7.0));
    }
}

/// `realloc` of a pointer `malloc` never returned traps like `free` does,
/// naming the pointer it was given — with and without the sanitizer.
#[test]
fn realloc_of_a_non_heap_pointer_traps_like_free() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra below_the_heap() : &int8
            return [&int8](std.realloc([&int8](3), 4096))
        end
        terra inside_a_block() : &int8
            var p = [&int8](std.malloc(64))
            return [&int8](std.realloc(p + 24, 4096))
        end
    "#;
    for sanitize in [false, true] {
        let mut t = Interp::new();
        t.ctx.exec.memory.set_sanitize(sanitize);
        t.exec(src).unwrap();
        let e = t.exec("return below_the_heap()").unwrap_err();
        assert_eq!(e.phase, Phase::Execution);
        let msg = e.to_string();
        assert!(msg.contains("free of non-heap address 0x3"), "{msg}");
        assert!(msg.contains("'below_the_heap'"), "{msg}");
        let e = t.exec("return inside_a_block()").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("free of non-heap address"), "{msg}");
        assert!(msg.contains("'inside_a_block'"), "{msg}");
    }
}

/// `malloc` and `realloc` of a size no block can hold return null, as C's
/// do, and `realloc` leaves the old block as it was: `-1` once wrapped to
/// a 16-byte block, and `realloc(q, -1)` once returned `q` unchanged.
#[test]
fn sizes_that_cannot_be_met_are_null_at_every_level() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra huge() : int
            var q = [&int8](std.malloc(16))
            q[0] = 42
            var score = 0
            if std.malloc(-1) == nil then score = score + 1 end
            if std.malloc(1LL << 47) == nil then score = score + 10 end
            if std.realloc(q, -1) == nil then score = score + 100 end
            if q[0] == 42 then score = score + 1000 end
            std.free(q)
            return score
        end
        return huge()"#;
    assert_eq!(eval_at_every_level(src), 1111.0);
}

/// A global too large for Terra memory is a Lua error naming its size, not
/// an abort of the host.
#[test]
fn a_global_too_large_for_memory_is_an_error() {
    let e = eval_err("local g = global(int8[140737488355328])");
    assert!(
        e.to_string()
            .contains("global: cannot allocate 140737488355328 bytes"),
        "{e}"
    );
}

/// An array type whose size does not fit in 64 bits, or whose length is not
/// an integer a `u64` holds, is a Lua error naming the type, not a size that
/// wrapped (`double[2^61]` was 0 bytes, `int[2^70]` saturated its length,
/// and a struct holding such an array was 8 bytes).
#[test]
fn array_sizes_that_do_not_fit_are_errors_naming_the_type() {
    let rows = [
        (
            "return terralib.sizeof(double[2^61])",
            "double[2305843009213694000]: its size does not fit in 64 bits",
        ),
        (
            "local g = global(double[2^61])",
            "double[2305843009213694000]: its size does not fit in 64 bits",
        ),
        (
            "return terralib.sizeof(int[2^70])",
            "int[1180591620717411300000]: an array length is an integer from 0 to 2^64 - 1",
        ),
        (
            "struct S { a : double[2^61], b : int } return terralib.sizeof(S)",
            "double[2305843009213694000]: its size does not fit in 64 bits",
        ),
        (
            "struct S { a : double[2^60], b : double[2^60], c : int } return terralib.sizeof(S)",
            "struct S: its size does not fit in 64 bits",
        ),
        (
            "terra f() var a : int[-1] end f()",
            "int[-1]: an array length is an integer from 0 to 2^64 - 1",
        ),
    ];
    for (src, want) in rows {
        let e = eval_err(src);
        assert!(e.message.contains(want), "{src}: {e}");
    }
    // The largest sizes that fit are still sizes.
    assert_eq!(
        eval_num("return terralib.sizeof(double[2^60])"),
        2f64.powi(63)
    );
}

/// `saveobj` writes its symbols in the export table's insertion order, so
/// two sessions write the same file.
#[test]
fn saveobj_writes_the_same_file_twice() {
    let write = |n: u32| {
        let path = std::env::temp_dir().join(format!(
            "terra_rs_saveobj_order_{}_{n}.o",
            std::process::id()
        ));
        let src = format!(
            "terra c() : int return 3 end terra a() : int return 1 end \
             terra e() : int return 5 end terra b() : int return 2 end \
             terra d() : int return 4 end \
             terralib.saveobj({:?}, {{ c = c, a = a, e = e, b = b, d = d }})",
            path.to_string_lossy()
        );
        Interp::new().exec(&src).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        contents
    };
    let first = write(1);
    assert_eq!(write(2), first);
    let symbols: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("symbol ")?.split(' ').next())
        .collect();
    assert_eq!(symbols, ["c", "a", "e", "b", "d"], "{first}");
}

// ---------------------------------------------------------------------------
// the canonical-register invariant (DESIGN.md §6j) at its entry points
// ---------------------------------------------------------------------------

/// Runs `src` (which returns a number) at `-O0`, `-O2` and `-O2` without
/// check elision; all three must agree, and that is the result.
fn eval_at_every_level(src: &str) -> f64 {
    let run = |level, elide| {
        let mut t = Interp::new();
        t.opt = level;
        t.elide_checks = elide;
        match t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"))[..] {
            [LuaValue::Number(n)] => n,
            ref other => panic!("expected a number, got {other:?}"),
        }
    };
    let o0 = run(terra_ir::OptLevel::O0, true);
    assert_eq!(run(terra_ir::OptLevel::O2, true), o0, "-O2: {src}");
    assert_eq!(run(terra_ir::OptLevel::O2, false), o0, "unelided: {src}");
    o0
}

/// An integer passed in from the host is wrapped into its parameter's type,
/// as a cast in Terra code would: range proofs start from
/// `Interval::full_for(ty)` for a parameter.
#[test]
fn host_passed_integers_are_wrapped_to_the_parameter_type() {
    let widen8 = "terra f(x : uint8) : int64 return x end return f(100000)";
    assert_eq!(eval_at_every_level(widen8), 160.0);
    let widen32 = "terra g(x : int32) : int64 return x end return g(2^40 + 5)";
    assert_eq!(eval_at_every_level(widen32), 5.0);
    assert_eq!(
        eval_at_every_level("terra s(x : int8) : int64 return x end return s(255)"),
        -1.0
    );
    assert_eq!(
        eval_at_every_level("terra b(x : bool) : int return [int](x) end return b(true)"),
        1.0
    );
    // The index is provably below 256, so the load is unchecked at -O2: it
    // had better be below 256.
    let index = r#"
        terra h(x : uint8) : int32
            var a : int32[256]
            for i = 0, 256 do a[i] = i end
            return a[x]
        end
        return h(100000)"#;
    assert_eq!(eval_at_every_level(index), 160.0);
}

/// Every scalar type crosses the Lua↔Terra boundary as its own value, by
/// every door — a global's initializer, `g:set()`/`g:get()`, a call argument
/// and a call result, with Terra code reading the same global agreeing — at
/// zero and at both ends of its range. One past the top wraps for the narrow
/// integers; the 64-bit ones saturate, as a Lua number (an `f64`) cannot name
/// their last values exactly: the rows use the nearest it can.
#[test]
fn every_scalar_type_crosses_the_ffi_as_its_own_value() {
    const P31: f64 = 2147483648.0;
    const P63: f64 = 9223372036854775808.0;
    const FMAX: f64 = f32::MAX as f64;
    // (type, [(passed in, read back)]): 0, max, min, max + 1.
    let rows: &[(&str, [(f64, f64); 4])] = &[
        (
            "int8",
            [
                (0.0, 0.0),
                (127.0, 127.0),
                (-128.0, -128.0),
                (128.0, -128.0),
            ],
        ),
        (
            "uint8",
            [(0.0, 0.0), (255.0, 255.0), (0.0, 0.0), (256.0, 0.0)],
        ),
        (
            "int16",
            [
                (0.0, 0.0),
                (32767.0, 32767.0),
                (-32768.0, -32768.0),
                (32768.0, -32768.0),
            ],
        ),
        (
            "uint16",
            [(0.0, 0.0), (65535.0, 65535.0), (0.0, 0.0), (65536.0, 0.0)],
        ),
        (
            "int32",
            [
                (0.0, 0.0),
                (P31 - 1.0, P31 - 1.0),
                (-P31, -P31),
                (P31, -P31),
            ],
        ),
        (
            "uint32",
            [
                (0.0, 0.0),
                (2.0 * P31 - 1.0, 2.0 * P31 - 1.0),
                (0.0, 0.0),
                (2.0 * P31, 0.0),
            ],
        ),
        (
            "int64",
            [
                (0.0, 0.0),
                (P63 - 1024.0, P63 - 1024.0),
                (-P63, -P63),
                (P63, P63),
            ],
        ),
        (
            "uint64",
            [
                (0.0, 0.0),
                (2.0 * P63 - 2048.0, 2.0 * P63 - 2048.0),
                (P63, P63),
                (2.0 * P63, 2.0 * P63),
            ],
        ),
        (
            "float",
            [
                (0.0, 0.0),
                (FMAX, FMAX),
                (-FMAX, -FMAX),
                (16777217.0, 16777216.0),
            ],
        ),
        (
            "double",
            [
                (0.0, 0.0),
                (f64::MAX, f64::MAX),
                (f64::MIN, f64::MIN),
                (0.1, 0.1),
            ],
        ),
        ("bool", [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 1.0)]),
    ];
    for (ty, cases) in rows {
        let mut t = Interp::new();
        // Lua sees a `bool` as a boolean; the table holds it as 0/1.
        let num = if *ty == "bool" {
            "function(b) return b and 1 or 0 end"
        } else {
            "function(n) return n end"
        };
        t.exec(&format!(
            "local g, num = global({ty}), {num}
             local terra id(x : {ty}) : {ty} return x end
             local terra rd() : {ty} return g end
             function doors(v)
                 g:set(v)
                 return num(global({ty}, v):get()), num(g:get()), num(rd()), num(id(v))
             end"
        ))
        .unwrap();
        for (input, expected) in cases {
            let out = t.exec(&format!("return doors({input:e})")).unwrap();
            let got: Vec<f64> = out.iter().map(|v| v.as_number().unwrap()).collect();
            assert_eq!(
                got, [*expected; 4],
                "{ty}: {input:e} by initializer, set/get, Terra read, call"
            );
        }
    }
}

/// A literal converted to a narrow type is that type's value, not the
/// literal's bits.
#[test]
fn narrow_constants_are_wrapped_to_their_type() {
    let src = "terra c() : int64 var x : uint8 = 300 return x end return c()";
    assert_eq!(eval_at_every_level(src), 44.0);
}

/// A `for` over `uint64` compares unsigned: a range that straddles 2^63 runs
/// its four iterations (it ran none while every loop compared signed).
/// Narrower unsigned counters are zero-extended in their registers, so a
/// signed compare is right for them up to their maxima.
#[test]
fn unsigned_loop_counters_count_up_to_their_types_maxima() {
    let across = r#"
        terra f() : int
            var c = 0
            var lo : uint64 = 0x7FFFFFFFFFFFFFFEULL
            for i : uint64 = lo, lo + 4 do c = c + 1 end
            return c
        end
        return f()"#;
    assert_eq!(eval_at_every_level(across), 4.0);
    // The bounds as run-time values, the counter read in the body.
    let high = r#"
        terra g(lo : uint64) : int64
            var s : uint64 = 0
            for i : uint64 = lo, lo + 3 do s = s + (i - lo) end
            return s
        end
        return g(2^63)"#;
    assert_eq!(eval_at_every_level(high), 3.0);
    let top = r#"
        terra h() : int
            var c = 0
            for i : uint64 = 0xFFFFFFFFFFFFFFF0ULL, 0xFFFFFFFFFFFFFFFFULL do c = c + 1 end
            return c
        end
        return h()"#;
    assert_eq!(eval_at_every_level(top), 15.0);
    for (ty, lo, hi, trips) in [
        ("uint8", "250", "255", 5.0),
        ("uint16", "65530", "65535", 5.0),
        ("uint32", "4294967290U", "4294967295U", 5.0),
    ] {
        let src = format!(
            "terra n() : int var c = 0 for i : {ty} = {lo}, {hi} do c = c + 1 end \
             return c end return n()"
        );
        assert_eq!(eval_at_every_level(&src), trips, "{ty}");
    }
}

/// `p[a + b]` over `uint8` indexes with the wrapped sum: 250 + 10 is 4,
/// whether the address is compiled as written, has its check elided, or is
/// offered to the pass that reassociates addresses (which may not look
/// through a sum that can wrap).
#[test]
fn a_narrow_index_that_wraps_reads_the_wrapped_element() {
    let src = r#"
        terra f(a : uint8, b : uint8) : int
            var p : int[256]
            for i = 0, 256 do p[i] = i * 3 end
            var s = 0
            for k : uint8 = 0, 2 do s = s + p[a + b + k] end
            return s
        end
        return f(250, 10)"#;
    assert_eq!(eval_at_every_level(src), (4.0 + 5.0) * 3.0);
    // With constants the sum is folded — to the wrapped value.
    let folded = r#"
        terra g() : int
            var p : int[256]
            for i = 0, 256 do p[i] = i end
            var a : uint8 = 250
            var b : uint8 = 10
            return p[a + b]
        end
        return g()"#;
    assert_eq!(eval_at_every_level(folded), 4.0);
}

/// `MIN / -1` is the one quotient that leaves a signed type; it wraps to
/// `MIN` like every other overflow, at every width and level, and when the
/// constant folder computes it.
#[test]
fn narrow_signed_division_wraps_at_min_over_minus_one() {
    for (ty, min) in [
        ("int8", -128.0),
        ("int16", -32768.0),
        ("int32", -2147483648.0),
    ] {
        let runtime = format!(
            "terra d(a : {ty}, b : {ty}) : int64 return [int64](a / b) end return d({min}, -1)"
        );
        assert_eq!(eval_at_every_level(&runtime), min, "{ty}");
        let folded = format!(
            "terra d() : int64 var a : {ty} = {min} var b : {ty} = -1 \
             return [int64](a / b) end return d()"
        );
        assert_eq!(eval_at_every_level(&folded), min, "{ty} folded");
        // Where the range excludes `MIN / -1` nothing changes.
        let plain = format!("terra d(a : {ty}) : int64 return [int64](a / 3) end return d({min})");
        assert_eq!(
            eval_at_every_level(&plain),
            (min / 3.0_f64).trunc(),
            "{ty} / 3"
        );
    }
}

// ---------------------------------------------------------------------------
// the C library is one table (`builtins!` in terra-ir); every layer that
// reads it must agree with every row
// ---------------------------------------------------------------------------

use terra_ir::{Builtin, CTy, Effect, Lib};

/// A call of C function `name` with one sample argument per parameter in
/// `params`, written for a function whose `p` is a `&uint8`.
fn c_call(name: &str, params: &[CTy]) -> String {
    let sample = |c: &CTy| match c {
        CTy::Ptr(terra_ir::ScalarTy::I8) => "\"x\"",
        CTy::Ptr(_) => "p",
        CTy::Scalar(s) if s.is_float() => "2.5",
        CTy::Scalar(_) => "3",
        CTy::Void => unreachable!("void is no parameter type"),
    };
    let args: Vec<&str> = params.iter().map(sample).collect();
    format!("C.{name}({})", args.join(", "))
}

/// `body` as the guarded body of a Terra function that is typechecked (by
/// calling it) but whose body never runs.
fn typecheck_only(body: &str) -> String {
    format!(
        "local C = terralib.includec('stdlib.h')\n\
         terra f(run : bool, p : &uint8) if run then {body} end end\n\
         f(false, nil)"
    )
}

#[test]
fn every_c_name_typechecks_against_its_table_row() {
    let libc = Builtin::ALL.iter().filter(|b| b.info().lib == Lib::C);
    for info in libc.map(|b| b.info()) {
        for name in info.names {
            let src = typecheck_only(&c_call(name, info.params));
            Interp::new()
                .exec(&src)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            if info.variadic {
                continue;
            }
            let mut wrong = info.params.to_vec();
            wrong.push(CTy::Scalar(terra_ir::ScalarTy::I32));
            let e = eval_err(&typecheck_only(&c_call(name, &wrong)));
            assert_eq!(e.phase, Phase::Typecheck, "{name}: {e}");
            let (canonical, n) = (info.names[0], info.params.len());
            let expected = format!("'{canonical}' expects {n} argument(s), got {}", n + 1);
            assert!(e.to_string().contains(&expected), "{name}: {e}");
        }
    }
}

#[test]
fn pure_builtins_agree_bit_for_bit_between_lua_and_terra() {
    let mut pure = 0;
    for b in Builtin::ALL {
        let info = b.info();
        if !matches!(info.effect, Effect::Pure(_)) {
            continue;
        }
        pure += 1;
        for name in info.names {
            let (params, args) = match info.params.len() {
                1 => ("x : double", "2.5"),
                _ => ("x : double, y : double", "2.5, 3"),
            };
            let lua = eval_num(&format!(
                "local C = terralib.includec('math.h') return C.{name}({args})"
            ));
            let terra = eval_num(&format!(
                "local C = terralib.includec('math.h')\n\
                 terra t({params}) : double return C.{name}({}) end\n\
                 return t({args})",
                if info.params.len() == 1 { "x" } else { "x, y" }
            ));
            assert!(lua.is_finite(), "{name}({args}) = {lua}");
            assert_eq!(lua.to_bits(), terra.to_bits(), "{name}({args})");
        }
    }
    assert_eq!(pure, 10, "sqrt fabs sin cos exp log pow floor ceil fmod");
}

#[test]
fn allocating_and_nondeterministic_builtins_are_rejected_in_kernels() {
    let mut rejected = Vec::new();
    for b in Builtin::ALL {
        let info = b.info();
        if !matches!(info.effect, Effect::Allocates | Effect::Nondeterministic) {
            continue;
        }
        let name = info.names[0];
        rejected.push(name);
        let src = format!(
            "local C = terralib.includec('stdlib.h')\n\
             terra bad(n : int, p : &uint8) : int\n\
                 parallelfor i = 0, n do {} end\n\
                 return 0\n\
             end\n\
             return bad(4, nil)",
            c_call(name, info.params)
        );
        let e = eval_err(&src).to_string();
        let expected = format!("calls '{name}', which is not allowed inside a parallel loop");
        assert!(e.contains(&expected), "{name}: {e}");
    }
    assert_eq!(
        rejected,
        ["malloc", "free", "realloc", "clock", "rand", "srand"]
    );
}

// ---------------------------------------------------------------------------
// the Terra `for` as a table
// ---------------------------------------------------------------------------

/// Terra's `for i = a, b, c` is C's `for (i = a; i < b; i += c)` on a
/// counter of `i`'s type: half-open, ascending, the bounds evaluated once,
/// and `i += c` wrapping as it does in that type. Each row is a header, the
/// value summed per trip, and the trips and sum it gives at `-O0`, `-O2`
/// and `-O2` without check elision. Every header has stage-time bounds, so
/// these are the loops `-O2` unrolls (the short ones) or keeps (the long
/// ones, and those whose counter leaves its type).
#[test]
fn for_loops_count_like_c_at_every_level() {
    // 120, 123, 126, then 129 wraps to -127: the loop goes on until the
    // counter lands on 127 exactly.
    let (mut wraps, mut wrapped_sum, mut i) = (0i64, 0i64, 120i8);
    while i < 127 {
        wraps += 1;
        wrapped_sum += i64::from(i);
        i = i.wrapping_add(3);
    }
    let rows: &[(&str, &str, i64, i64)] = &[
        ("i = 0, 3", "i", 3, 3),
        ("i = 3, 3", "i", 0, 0),
        ("i = 5, 2", "i", 0, 0),
        ("i = 0, 10, 3", "i", 4, 18),
        ("i = -7, 0, 2", "i", 4, -16),
        ("i : uint8 = 250, 255", "i", 5, 1260),
        ("i : uint8 = 0, 255", "i", 255, 32385),
        ("i : int8 = -128, -125", "i", 3, -381),
        ("i : int32 = 2147483645, 2147483647", "i", 2, 4294967291),
        ("i : int8 = 120, 127, 3", "i", wraps, wrapped_sum),
        // Unannotated, the counter has the meet of the bounds' and step's
        // types, as Terra's `fornum` gives it: nothing is narrowed to the
        // start's type (the stops would read 2147483650 - 2^32 and 44, and
        // a `uint8` counter stepping by 3 wraps past 255 to 0 and goes on).
        ("i = 2147483647, 2147483650LL", "i", 3, 6442450944),
        ("i = [uint8](0), 300", "i", 300, 44850),
        ("i = [uint8](250), [uint8](255), [int16](3)", "i", 2, 503),
        // Across 2^63, where `unroll` keeps the loop.
        (
            "i : uint64 = 9223372036854775806ULL, 9223372036854775807ULL + 2ULL",
            "i - 9223372036854775806ULL",
            3,
            3,
        ),
    ];
    for (header, value, trips, sum) in rows {
        let src = format!(
            "terra f() : int64\n\
                 var n : int64 = 0\n\
                 var s : int64 = 0\n\
                 for {header} do n = n + 1 s = s + [int64]({value}) end\n\
                 return n * 1000000 + s\n\
             end\n\
             return f()"
        );
        let got = eval_at_every_level(&src);
        assert_eq!(got, (trips * 1_000_000 + sum) as f64, "for {header}");
    }
}

/// A decimal integer literal past 2^53 is its own value, not the nearest
/// double's (`9223372036854775806ULL` read as 2^63 - 1 while literals went
/// through `f64`).
#[test]
fn large_integer_literals_are_exact() {
    let src = "terra f() : int64 return 9223372036854775806LL - 9223372036854775000LL end \
               return f()";
    assert_eq!(eval_at_every_level(src), 806.0);
}

// ---------------------------------------------------------------------------
// unsigned min/max
// ---------------------------------------------------------------------------

/// `terralib.min`/`max` order `uint64` values unsigned at every level, on
/// constants (folded from `-O1` on) and on arguments (the VM's lowering).
/// Compared signed, `min(2^64 - 1, 1)` would be 2^64 - 1.
#[test]
fn uint64_min_max_order_unsigned_at_every_level() {
    let prelude = "terra mn(x : uint64, y : uint64) : uint64 return terralib.min(x, y) end\n\
                   terra mx(x : uint64, y : uint64) : uint64 return terralib.max(x, y) end\n";
    let rows = [
        ("terralib.min([uint64](0) - 1, [uint64](1))", 1.0),
        (
            "terralib.max([uint64](0) - 1, [uint64](1))",
            u64::MAX as f64,
        ),
        ("terralib.min([uint64](1) << 63, [uint64](5))", 5.0),
        ("mn([uint64](0) - 1, 1)", 1.0),
        ("mx([uint64](0) - 1, 1)", u64::MAX as f64),
        ("mn([uint64](1) << 63, 5)", 5.0),
        ("mn(5, [uint64](1) << 63)", 5.0),
        ("mx(5, [uint64](1) << 63)", (1u64 << 63) as f64),
        ("mn(3, 3) + mx(4, 4)", 7.0),
    ];
    for (e, want) in rows {
        for level in [
            terra_ir::OptLevel::O0,
            terra_ir::OptLevel::O1,
            terra_ir::OptLevel::O2,
        ] {
            let mut t = Interp::new();
            t.opt = level;
            let src = format!("{prelude}terra f() : uint64 return {e} end return f()");
            let out = t.exec(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(out[0].as_number(), Some(want), "{level:?}: {e}");
        }
    }
}

/// An index clamped by an unsigned `min` is in bounds, as the bounds-check
/// prover assumes when it elides the check, at every level. Clamped in
/// signed order, `x = 2^63 + 2^40` would stay `x`, and the elided load would
/// read 2^42 bytes past `buf`.
#[test]
fn uint64_min_clamped_index_reads_its_element_at_every_level() {
    let src = "terra at(x : uint64) : int\n\
                 var buf : int[8]\n\
                 for i = 0, 8 do buf[i] = i * 10 end\n\
                 return buf[terralib.min(x, [uint64](5))]\n\
               end\n\
               terra f() : int return at(([uint64](1) << 63) + ([uint64](1) << 40)) * 100 + at(2) end\n\
               return f()";
    for level in [
        terra_ir::OptLevel::O0,
        terra_ir::OptLevel::O1,
        terra_ir::OptLevel::O2,
    ] {
        for elide in [true, false] {
            let mut t = Interp::new();
            t.opt = level;
            t.elide_checks = elide;
            let out = t.exec(src).unwrap_or_else(|e| panic!("{level:?}: {e}"));
            assert_eq!(out[0].as_number(), Some(5020.0), "{level:?} elide={elide}");
        }
    }
}
