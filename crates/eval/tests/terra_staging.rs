//! End-to-end tests of the staging pipeline: `terra` definitions, quotes,
//! escapes, hygiene, eager specialization, lazy typechecking, structs,
//! methods, and the FFI — the paper's §2–§4 behaviours.
//!
//! The claims §4.1 makes of Terra Core — eager specialization, hygiene,
//! separate evaluation, monotonic lazy typechecking — are tested here on the
//! interpreter, specializer and typechecker that run them, at `-O0` and at
//! `-O2`; EXPERIMENTS.md A1 maps each claim to its test.

mod staging;

use staging::*;
use terra_eval::{Interp, LuaValue, Phase};

#[test]
fn simple_terra_function() {
    assert_eq!(
        eval_num("terra add(a : int, b : int) : int return a + b end return add(2, 40)"),
        42.0
    );
}

#[test]
fn paper_min_example() {
    let src = r#"
        terra min(a : int, b : int) : int
            if a < b then return a else return b end
        end
        return min(7, 3) + min(1, 9)
    "#;
    assert_eq!(eval_num(src), 4.0);
}

#[test]
fn return_type_inference() {
    assert_eq!(
        eval_num("terra f(x : double) return x * 2.0 end return f(1.25)"),
        2.5
    );
}

#[test]
fn terra_control_flow() {
    let src = r#"
        terra collatz_steps(n0 : int64) : int
            var n = n0
            var steps = 0
            while n ~= 1 do
                if n % 2 == 0 then
                    n = n / 2
                else
                    n = 3 * n + 1
                end
                steps = steps + 1
            end
            return steps
        end
        return collatz_steps(27)
    "#;
    assert_eq!(eval_num(src), 111.0);
}

#[test]
fn terra_for_loop_is_half_open() {
    let src = r#"
        terra sum(n : int) : int
            var s = 0
            for i = 0, n do s = s + i end
            return s
        end
        return sum(10)
    "#;
    assert_eq!(eval_num(src), 45.0); // 0..9 inclusive-exclusive
}

#[test]
fn terra_for_with_step_and_break() {
    let src = r#"
        terra f() : int
            var s = 0
            for i = 0, 100, 10 do
                if i >= 50 then break end
                s = s + i
            end
            return s
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 100.0);
}

#[test]
fn eager_specialization_captures_lua_values() {
    // §4.1: mutating x after the definition does NOT change the function.
    let src = r#"
        local x = 0
        terra y(a : int) : int return x end
        x = 1
        return y(0)
    "#;
    assert_eq!(eval_num(src), 0.0);
}

#[test]
fn separate_evaluation_from_lua_store() {
    // §4.1 "separate evaluation": the compiled code holds the constant 1.
    let src = r#"
        local x1 = 1
        terra y(x2 : int) : int return x1 end
        x1 = 2
        return y(0)
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn lazy_typechecking_allows_forward_definition() {
    // g is referenced before it is defined; only calling forces the link.
    let src = r#"
        local g = terralib.declare("g")
        terra f(x : int) : int return g(x) + 1 end
        terra g(x : int) : int return x * 2 end
        return f(20)
    "#;
    assert_eq!(eval_num(src), 41.0);
}

#[test]
fn calling_undefined_function_is_link_error() {
    let src = r#"
        local g = terralib.declare("g")
        terra f(x : int) : int return g(x) end
        return f(1)
    "#;
    let msg = eval_err(src);
    assert!(msg.contains("declared but not defined"), "{msg}");
}

#[test]
fn mutual_recursion_through_declarations() {
    let src = r#"
        local isodd = terralib.declare("isodd")
        terra iseven(n : int) : bool
            if n == 0 then return true end
            return isodd(n - 1)
        end
        terra isodd(n : int) : bool
            if n == 0 then return false end
            return iseven(n - 1)
        end
        if iseven(10) then return 1 else return 0 end
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn recursion_requires_annotation() {
    let msg = eval_err(
        "terra fact(n : int) if n <= 1 then return 1 end return n * fact(n - 1) end \
         return fact(5)",
    );
    assert!(msg.contains("explicit return type"), "{msg}");
    // With the annotation it works.
    assert_eq!(
        eval_num(
            "terra fact(n : int) : int if n <= 1 then return 1 end \
             return n * fact(n - 1) end return fact(10)"
        ),
        3628800.0
    );
}

#[test]
fn quote_and_escape_splice_expressions() {
    let src = r#"
        local e = `10 + 32
        terra f() : int return [e] end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn statement_quotes_splice() {
    let src = r#"
        function body(acc, n)
            return quote
                for i = 0, n do
                    [acc] = [acc] + i
                end
            end
        end
        terra f() : int
            var s = 0;
            [body(s, 5)];
            [body(s, 3)];
            return s
        end
        return f()
    "#;
    // 0+1+2+3+4 + 0+1+2 = 13
    assert_eq!(eval_num(src), 13.0);
}

#[test]
fn hygiene_no_accidental_capture() {
    // The `i` inside the quote must not capture the function's `i`.
    let src = r#"
        local q = quote var i = 100 in i end
        terra f(i : int) : int
            return [q] + i
        end
        return f(1)
    "#;
    assert_eq!(eval_num(src), 101.0);
}

#[test]
fn symbols_violate_hygiene_deliberately() {
    // §6.1: symbol() is gensym; using it to define and reference variables.
    let src = r#"
        local s = symbol(int, "acc")
        terra f() : int
            var [s] = 40;
            [quote [s] = [s] + 2 end];
            return [s]
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn escaped_parameters_via_symbols() {
    let src = r#"
        local a = symbol("a")
        local b = symbol("b")
        terra f([a] : int, [b] : int) : int
            return [a] * 10 + [b]
        end
        return f(4, 2)
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn whole_parameter_list_from_symbol_list() {
    // The class-system stub pattern: parameters from a list of typed symbols.
    let src = r#"
        local params = terralib.newlist()
        params:insert(symbol(int, "x"))
        params:insert(symbol(int, "y"))
        terra f([params]) : int
            return [params[1]] - [params[2]]
        end
        return f(50, 8)
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn staged_loop_unrolling() {
    // Lua loop generates straight-line Terra code.
    let src = r#"
        function unrolled(x, n)
            local stmts = terralib.newlist()
            for i = 1, n do
                stmts:insert(quote [x] = [x] + i end)
            end
            return stmts
        end
        terra f() : int
            var x = 0;
            [unrolled(x, 4)];
            return x
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 10.0);
}

#[test]
fn parametric_function_generation() {
    // Types are Lua values; a Lua function generates a Terra identity
    // function for any type (Terra Core example from §4.1).
    let src = r#"
        function id(T)
            return terra(x : T) : T return x end
        end
        local idint = id(int)
        local iddouble = id(double)
        return idint(41) + iddouble(1.5)
    "#;
    assert_eq!(eval_num(src), 42.5);
}

#[test]
fn blockedloop_from_paper_section2() {
    let src = r#"
        terra min(a : int, b : int) : int
            if a < b then return a else return b end
        end
        function blockedloop(N, blocksizes, bodyfn)
            local function generatelevel(n, ii, jj, bb)
                if n > #blocksizes then
                    return bodyfn(ii, jj)
                end
                local blocksize = blocksizes[n]
                return quote
                    for i = ii, min(ii + bb, N), blocksize do
                        for j = jj, min(jj + bb, N), blocksize do
                            [generatelevel(n + 1, i, j, blocksize)]
                        end
                    end
                end
            end
            return generatelevel(1, 0, 0, N)
        end
        local counter = symbol(int, "counter")
        terra f() : int
            var [counter] = 0;
            [blockedloop(8, {4, 1}, function(i, j)
                return quote [counter] = [counter] + 1 end
            end)];
            return [counter]
        end
        return f()
    "#;
    // Full 8x8 iteration space visited exactly once.
    assert_eq!(eval_num(src), 64.0);
}

#[test]
fn pointers_and_malloc() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra f() : double
            var p = [&double](std.malloc(8 * 10))
            for i = 0, 10 do
                p[i] = i * 1.5
            end
            var s = 0.0
            for i = 0, 10 do
                s = s + p[i]
            end
            std.free(p)
            return s
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 67.5);
}

#[test]
fn structs_and_methods_image_example() {
    // The §2 Image pattern, compressed.
    let src = r#"
        local std = terralib.includec("stdlib.h")
        function Image(PixelType)
            struct ImageImpl {
                data : &PixelType,
                N : int
            }
            terra ImageImpl:init(N : int) : {}
                self.data = [&PixelType](std.malloc(N * N * sizeof(PixelType)))
                self.N = N
            end
            terra ImageImpl:get(x : int, y : int) : PixelType
                return self.data[x * self.N + y]
            end
            terra ImageImpl:set(x : int, y : int, v : PixelType) : {}
                self.data[x * self.N + y] = v
            end
            terra ImageImpl:free() : {}
                std.free(self.data)
            end
            return ImageImpl
        end
        GreyscaleImage = Image(float)
        terra f() : float
            var img : GreyscaleImage
            img:init(4)
            img:set(1, 2, 5.5f)
            img:set(3, 3, 2.0f)
            var v = img:get(1, 2) + img:get(3, 3)
            img:free()
            return v
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 7.5);
}

#[test]
fn struct_literals_and_field_access() {
    let src = r#"
        struct Complex { real : float, imag : float }
        terra f() : float
            var c = Complex { 3.0f, 4.0f }
            var zero = Complex {}
            return c.real * c.real + c.imag * c.imag + zero.real
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 25.0);
}

#[test]
fn named_struct_literal_fields() {
    let src = r#"
        struct P { x : int, y : int }
        terra f() : int
            var p = P { y = 3, x = 40 }
            return p.x + p.y - 1
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn nested_structs_and_pointers() {
    let src = r#"
        struct Inner { v : double }
        struct Outer { a : Inner, b : Inner }
        terra f() : double
            var o : Outer
            o.a.v = 1.5
            o.b.v = 2.5
            var p = &o.b
            p.v = p.v + 10.0
            return o.a.v + o.b.v
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 14.0);
}

#[test]
fn programmatic_struct_creation() {
    // §4.1: building a struct via the entries table.
    let src = r#"
        struct Complex {}
        Complex.entries:insert { field = "real", type = float }
        Complex.entries:insert { field = "imag", type = float }
        terra f() : float
            var c : Complex
            c.real = 1.5f
            c.imag = 2.5f
            return c.real + c.imag
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 4.0);
}

#[test]
fn monotonic_typechecking_entries_freeze_on_use() {
    // After a struct's layout is examined, adding entries is an error.
    let src = r#"
        struct S {}
        S.entries:insert { field = "x", type = int }
        terra f() : int var s : S return s.x end
        f()
        S.entries:insert { field = "y", type = int }
        terra g() : int var s : S return s.y end
        return g()
    "#;
    let msg = eval_err(src);
    assert!(msg.contains("no field 'y'"), "{msg}");
}

#[test]
fn cast_metamethod_user_conversion() {
    // The paper's float -> Complex __cast example.
    let src = r#"
        struct Complex { real : float, imag : float }
        Complex.metamethods.__cast = function(fromtype, totype, exp)
            if fromtype == float then
                return `Complex { exp, 0.f }
            end
            error("invalid conversion")
        end
        terra f() : float
            var c : Complex = 3.0f
            return c.real * 10.0f + c.imag
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 30.0);
}

#[test]
fn finalizelayout_metamethod_runs_before_first_use() {
    let src = r#"
        struct S {}
        S.metamethods.__finalizelayout = function(T)
            T.entries:insert { field = "x", type = int }
        end
        terra f() : int
            var s : S
            s.x = 42
            return s.x
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn terra_function_as_value_and_indirect_call() {
    let src = r#"
        terra double(x : int) : int return x * 2 end
        terra apply(f : {int} -> int, x : int) : int
            return f(x)
        end
        return apply(double, 21)
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn function_pointers_in_structs() {
    let src = r#"
        struct Ops { fn : {int} -> int }
        terra inc(x : int) : int return x + 1 end
        terra f() : int
            var o = Ops { inc }
            return o.fn(41)
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn arrays() {
    let src = r#"
        terra f() : int
            var a : int[8]
            for i = 0, 8 do a[i] = i * i end
            var s = 0
            for i = 0, 8 do s = s + a[i] end
            return s
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 140.0);
}

#[test]
fn vectors_in_terra_code() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        local vec = vector(double, 4)
        terra f() : double
            var p = [&double](std.malloc(8 * 8))
            for i = 0, 8 do p[i] = i * 1.0 end
            var vp = [&vec](p)
            var sum = @vp + @(vp + 1)    -- {0+4, 1+5, 2+6, 3+7}
            @vp = sum
            return p[0] + p[1] + p[2] + p[3]
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 28.0);
}

#[test]
fn vector_broadcast_of_scalars() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        local vec = vector(float, 8)
        terra f() : float
            var p = [&float](std.malloc(4 * 8))
            for i = 0, 8 do p[i] = 1.0f end
            var vp = [&vec](p)
            @vp = @vp * 3.0f + vec(2.0f)
            return p[0] + p[7]
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 10.0);
}

#[test]
fn globals_shared_between_calls() {
    let src = r#"
        local counter = global(int, 10)
        terra bump() : int
            counter = counter + 1
            return counter
        end
        bump()
        bump()
        return bump() + counter:get()
    "#;
    assert_eq!(eval_num(src), 26.0);
}

#[test]
fn printf_works() {
    let mut t = Interp::new();
    t.capture_output();
    t.exec(
        r#"
        local C = terralib.includec("stdio.h")
        terra hello(x : int) : {}
            C.printf("value=%d float=%.1f str=%s\n", x, 2.5, "ok")
        end
        hello(7)
    "#,
    )
    .unwrap();
    assert_eq!(t.take_output(), "value=7 float=2.5 str=ok\n");
}

#[test]
fn macros_splice_at_specialization() {
    let src = r#"
        local twice = terralib.macro(function(e)
            return `[e] + [e]
        end)
        terra f(x : int) : int
            return twice(x * 2)
        end
        return f(5)
    "#;
    assert_eq!(eval_num(src), 20.0);
}

#[test]
fn terra_select_intrinsic() {
    let src = r#"
        terra maxi(a : int, b : int) : int
            return terralib.select(a > b, a, b)
        end
        return maxi(3, 9) + maxi(7, 2)
    "#;
    assert_eq!(eval_num(src), 16.0);
}

#[test]
fn defer_runs_at_scope_exit() {
    let src = r#"
        local order = global(int, 0)
        terra mark(x : int) : {}
            order = order * 10 + x
        end
        terra f() : {}
            defer mark(3)
            mark(1)
            do
                defer mark(2)
                mark(9)
            end
        end
        f()
        return order:get()
    "#;
    assert_eq!(eval_num(src), 1923.0);
}

#[test]
fn method_call_through_pointer() {
    let src = r#"
        struct Counter { n : int }
        terra Counter:bump() : {} self.n = self.n + 1 end
        terra f() : int
            var c = Counter { 0 }
            var p = &c
            p:bump()
            c:bump()
            return c.n
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 2.0);
}

#[test]
fn string_constants_are_rawstrings() {
    let src = r#"
        terra first_byte(s : rawstring) : int
            return s[0]
        end
        return first_byte("A")
    "#;
    assert_eq!(eval_num(src), 65.0);
}

#[test]
fn type_errors_are_reported_at_call_time() {
    // The function defines fine (lazy typechecking)…
    let src = r#"
        terra bad(x : int) : int
            return x + "hello"
        end
        return 1
    "#;
    assert_eq!(eval_num(src), 1.0);
    // …but calling it reports a type error.
    let msg = eval_err(
        r#"
        terra bad(x : int) : int
            return x + "hello"
        end
        return bad(1)
    "#,
    );
    assert!(msg.contains("type error"), "{msg}");
}

#[test]
fn redefining_a_name_creates_a_new_function() {
    // The Terra *store* is write-once (LTDEFN fills a declaration exactly
    // once), but re-evaluating a `terra f(...)` statement creates a fresh
    // function object and rebinds the Lua variable, as in the real system.
    let src = r#"
        terra f(x : int) : int return 1 end
        local first = f
        terra f(x : int) : int return 2 end
        return first(0) * 10 + f(0)
    "#;
    assert_eq!(eval_num(src), 12.0);
}

#[test]
fn ffi_conversions() {
    let mut t = Interp::new();
    t.exec("terra addf(a : float, b : double) : double return a + b end")
        .unwrap();
    let out = t.exec("return addf(1.5, 2.25)").unwrap();
    assert!(matches!(out[0], LuaValue::Number(n) if n == 3.75));
    // Booleans.
    t.exec("terra flip(b : bool) : bool return not b end")
        .unwrap();
    let out = t.exec("return flip(true)").unwrap();
    assert!(matches!(out[0], LuaValue::Bool(false)));
}

#[test]
fn reflection_api() {
    let src = r#"
        struct S { x : int }
        assert(S:isstruct())
        assert((&S):ispointer())
        assert((&S).type == S)
        assert(int:isarithmetic())
        assert(not int:ispointer())
        terra f(a : int, b : double) : bool return true end
        local ft = f:gettype()
        assert(ft.parameters[1] == int)
        assert(ft.parameters[2] == double)
        assert(ft.returns == bool)
        return sizeof(S)
    "#;
    assert_eq!(eval_num(src), 4.0);
}

#[test]
fn saveobj_writes_manifest() {
    let dir = std::env::temp_dir().join("terra_rs_saveobj_test.o");
    let path = dir.to_string_lossy().to_string();
    let mut t = Interp::new();
    t.exec(&format!(
        r#"
        terra runme(x : int) : int return x end
        terra scale(a : int, b : int, c : double) : double
            var s = a * b
            return s * c + 1.0
        end
        local vec = vector(double, 4)
        terra twice(v : vec) : vec return v + v end
        terralib.saveobj("{path}", {{ runme = runme, scale = scale, twice = twice }})
    "#
    ))
    .unwrap();
    let contents = std::fs::read_to_string(&path).unwrap();
    assert!(contents.contains("symbol runme"), "{contents}");
    // A scalar is one register slot, so a scalar function's count is its
    // locals plus its deepest temporaries; a vector takes four. `a * b`
    // wraps to `int` inside its `mul.i32`.
    let scale = "symbol scale : {int,int,double} -> double (6 instructions, 8 registers)";
    assert!(contents.contains(scale), "{contents}");
    assert!(
        contents.contains("(2 instructions, 8 registers)"),
        "{contents}"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// a quote is built once and shared by every splice: sharing must not alias
// ---------------------------------------------------------------------------

/// The lowered locals of the Terra function bound to the global `name`.
fn locals_of(t: &Interp, name: &str) -> Vec<(String, bool)> {
    let LuaValue::TerraFunc(id) = t.global(name) else {
        panic!("{name} is not a terra function");
    };
    let ir = t.ctx.funcs[id.0 as usize].ir.as_ref().expect("compiled");
    let local = |l: &terra_ir::LocalSlot| (l.name.to_string(), l.in_memory);
    ir.locals.iter().map(local).collect()
}

#[test]
fn one_quote_spliced_three_times_declares_three_locals() {
    let mut t = Interp::new();
    let out = t
        .exec(
            r#"
            local v = symbol(int, "v")
            local q = quote var [v] = 1; [v] = [v] + 1 end
            local e = quote var w = 10 in w end
            terra f() : int
                [q]
                var first = [v];
                [q];
                [v] = [v] + 10
                var a, b = [e], [e]
                a = a + 1
                return first * 10000 + [v] * 100 + a + b
            end
            terra g() : int [q] return [v] + [e] end
            F, G = f, g
            return f(), g()
            "#,
        )
        .unwrap();
    assert!(
        matches!(out[..], [LuaValue::Number(a), LuaValue::Number(b)] if a == 21221.0 && b == 12.0)
    );
    let count = |f: &str, n: &str| locals_of(&t, f).iter().filter(|(l, _)| l == n).count();
    assert_eq!((count("F", "v"), count("F", "w")), (2, 2));
    assert_eq!((count("G", "v"), count("G", "w")), (1, 1));
}

#[test]
fn a_type_error_in_a_shared_quote_is_reported_at_the_quote_from_every_splice() {
    let mut t = Interp::new();
    t.exec("q = quote\n var ok = 1\n var bad : int = ok + nil\n end\nx = `1 + nil")
        .unwrap();
    t.exec("terra f1() [q] end\nterra f2()\n\n [q]\n end")
        .unwrap();
    t.exec("terra g1() : int return [x] end\nterra g2() : int\n\n return [x]\n end")
        .unwrap();
    let report = |t: &mut Interp, f: &str| {
        let e = t.exec(&format!("{f}()")).unwrap_err();
        (e.message.clone(), e.span.map(|s| s.line))
    };
    let stmt = ("invalid operand types int and &uint8".to_string(), Some(3));
    assert_eq!(report(&mut t, "f1"), stmt);
    assert_eq!(report(&mut t, "f2"), stmt);
    let expr = (stmt.0, Some(5));
    assert_eq!(report(&mut t, "g1"), expr);
    assert_eq!(report(&mut t, "g2"), expr);
}

#[test]
fn address_of_a_quoted_variable_puts_the_variable_in_memory() {
    let mut t = Interp::new();
    let src = r#"
        local x = symbol(int, "x")
        local q = `[x]
        terra f() : int
            var [x] = 1
            var p = &[q]
            @p = 5
            return [x]
        end
        F = f
        return f()
    "#;
    assert!(matches!(t.exec(src).unwrap()[..], [LuaValue::Number(n)] if n == 5.0));
    assert!(locals_of(&t, "F").contains(&("x".to_string(), true)));
}

/// `&x` is recorded when the `&` is specialized, whether or not the quote
/// around it is ever spliced: such a quote moves `x` into its frame and
/// changes nothing the program can see.
#[test]
fn a_quote_that_is_never_spliced_changes_no_output() {
    let run = |stray: &str| {
        let mut t = Interp::new();
        t.capture_output();
        let src = format!(
            r#"
            local C = terralib.includec("stdio.h")
            local x = symbol(int, "x")
            {stray}
            terra f(n : int) : int
                var [x] = n * 2
                for i = 0, n do [x] = [x] + i end
                C.printf("x = %d\n", [x])
                return [x]
            end
            F = f
            return f(5)
            "#
        );
        let out = t.exec(&src).unwrap();
        let in_memory = locals_of(&t, "F").contains(&("x".to_string(), true));
        (format!("{out:?}"), t.take_output(), in_memory)
    };
    let (plain, stray) = (run(""), run("local stray = `&[x]"));
    assert_eq!((&plain.0, &plain.1), (&stray.0, &stray.1));
    assert_eq!(plain.1, "x = 20\n");
    assert_eq!((plain.2, stray.2), (false, true));
}

// ---------------------------------------------------------------------------
// Terra Core (§3, Figs. 1–4): the claims of §4.1 on the real pipeline
// ---------------------------------------------------------------------------

/// A rejected splice names its phase: a Lua function is not a Terra term,
/// so escaping one fails while the function or quote is specialized — at
/// definition, before anything could typecheck or link it.
#[test]
fn escaping_a_lua_function_fails_at_specialization() {
    let lua_fn = "local fn = function(x) return x end ";
    for splice in ["terra f() : int return [fn] end", "local q = `[fn]"] {
        let e = eval_error(&format!("{lua_fn}{splice}"));
        assert_eq!(e.phase, Phase::Specialize, "{splice}: {e}");
    }
    // The two later phases name themselves as such.
    let ill_typed = r#"terra f(x : int) : int return x + "a" end return f(1)"#;
    assert_eq!(eval_error(ill_typed).phase, Phase::Typecheck);
    let undefined = r#"local g = terralib.declare("g")
        terra f(x : int) : int return g(x) end return f(1)"#;
    assert_eq!(eval_error(undefined).phase, Phase::Link);
}

/// Typechecking is monotonic: a call that fails to link while its callee is
/// only declared succeeds, unchanged, once the callee is defined.
#[test]
fn a_link_error_becomes_success_once_the_callee_is_defined() {
    for level in LEVELS {
        let mut t = interp_at(level);
        t.exec(r#"g = terralib.declare("g") terra f(x : int) : int return g(x) end"#)
            .unwrap();
        let e = t.exec("return f(1)").unwrap_err();
        assert_eq!(e.phase, Phase::Link, "{e}");
        assert_eq!(e.message, "function 'g' is declared but not defined");
        t.exec("terra g(x : int) : int return 42 end").unwrap();
        assert_eq!(exec_num(&mut t, "return f(1)"), 42.0);
    }
}

/// §4.1, type reflection: `let x3 = fun(x1){ ter tdecl(x2 : x1) : x1 { x2 } }
/// in x3(B)(1)` — a Lua function of a type builds a Terra function of it.
#[test]
fn a_lua_function_of_a_type_builds_a_terra_identity() {
    let src = "local id = function(T) return terra(x : T) : T return x end end
               return id(int)(1)";
    assert_eq!(eval_num(src), 1.0);
}

/// §4.1, shared environment: `let x1 = 0 in 'tlet y1 : B = 1 in [x1]`
/// specializes to `tlet ŷ : B = 1 in 0` — the escape reads the Lua value
/// where the quote is built, and a later assignment does not reach it.
#[test]
fn a_quote_escape_reads_the_environment_it_was_built_in() {
    let src = "local x1 = 0
               local q = quote var y1 : int = 1 in [x1] end
               x1 = 5
               terra f() : int return [q] end
               return f()";
    assert_eq!(eval_num(src), 0.0);
}

/// Fig. 4: a function and the functions it calls typecheck as one
/// component; `h(x) = f(f(x))` with `f` the identity returns its argument.
#[test]
fn nested_calls_typecheck_as_one_component() {
    let src = "terra f(x : int) : int return x end
               terra h(x : int) : int return f(f(x)) end
               return h(7)";
    assert_eq!(eval_num(src), 7.0);
}

/// `let f = ter tdecl(x : B) : B { x } in f(41)` is 41.
#[test]
fn identity_function_roundtrip() {
    assert_eq!(
        eval_num("terra f(x : int) : int return x end return f(41)"),
        41.0
    );
}

/// `let x = 1 in (x := 2; x)` is 2: assignment updates the Lua store.
#[test]
fn lua_let_and_assignment() {
    assert_eq!(eval_num("local x = 1 x = 2 return x"), 2.0);
}

/// §4.1, eager specialization, with the escape written out:
/// `let x1 = 0 in let y = ter tdecl(x2 : B) : B { [x1] } in (x1 := 1; y(0))`
/// is 0.
#[test]
fn eager_specialization_paper_example() {
    let src = "local x1 = 0
               terra y(x2 : int) : int return [x1] end
               x1 = 1
               return y(0)";
    assert_eq!(eval_num(src), 0.0);
}

/// §4.1, separate evaluation, with the escape written out: the same program
/// with `x1` first 1, then 2, is 1.
#[test]
fn separate_evaluation_paper_example() {
    let src = "local x1 = 1
               terra y(x2 : int) : int return [x1] end
               x1 = 2
               return y(0)";
    assert_eq!(eval_num(src), 1.0);
}

/// §4.1, hygiene: `let x1 = fun(x2){ 'tlet y : B = 0 in [x2] } in let x3 =
/// ter tdecl(y : B) : B { [x1(y)] } in x3(42)` is 42. The quote's `y` does
/// not capture the parameter `y`; capture would give 0.
#[test]
fn hygiene_no_capture_paper_example() {
    let src = "local x1 = function(x2) return quote var y : int = 0 in [x2] end end
               terra x3(y : int) : int return [x1(y)] end
               return x3(42)";
    assert_eq!(eval_num(src), 42.0);
}

/// `let x = tdecl in x(0)`: Lua calling a bare declaration fails at link.
#[test]
fn calling_a_bare_declaration_is_link_error() {
    let e = eval_error(r#"local x = terralib.declare("x") return x(0)"#);
    assert_eq!(e.phase, Phase::Link, "{e}");
    assert_eq!(e.message, "function 'x' is declared but not defined");
}

/// §4.1: `x1` calls the declared `x2`, then `x2` is defined to call `x1`.
/// Calling either would never return; both typecheck as one component.
#[test]
fn mutual_recursion_via_declarations() {
    let src = r#"local x2 = terralib.declare("x2")
                 terra x1(y : int) : int return x2(y) end
                 terra x2(y : int) : int return x1(y) end
                 x1:compile() x2:compile()
                 return 1"#;
    assert_eq!(eval_num(src), 1.0);
}

/// A declaration is filled once. Defining the name a second time makes a
/// new function and rebinds the name (DESIGN.md §2 records this against
/// Terra Core, where the second definition is stuck); the filled one keeps
/// its body.
#[test]
fn a_filled_declaration_is_never_refilled() {
    let src = r#"local x = terralib.declare("x")
                 terra x(y : int) : int return y end
                 local first = x
                 terra x(y : int) : int return y + 1 end
                 return first(3) * 10 + x(3)"#;
    assert_eq!(eval_num(src), 34.0);
}

/// `let q = '1 in let f = ter tdecl(x : B) : B { [q] } in f(0)` is 1, and a
/// quote that splices `q` composes with it.
#[test]
fn nested_quotes_compose() {
    let src = "local q = `1
               local q2 = `[q] + [q] * 2
               terra f(x : int) : int return [q] end
               terra g(x : int) : int return [q2] end
               return f(0) * 10 + g(0)";
    assert_eq!(eval_num(src), 13.0);
}

/// Fig. 4: the identity typechecks without being called.
#[test]
fn well_typed_identity_checks() {
    let src = "terra f(x : int) : int return x end f:compile() return 1";
    assert_eq!(eval_num(src), 1.0);
}

/// Fig. 4: `ter f(x : B) : B { x(x) }` applies a base value; checking it,
/// without a call, fails at typecheck.
#[test]
fn ill_typed_body_rejected() {
    let e = eval_error("terra f(x : int) : int return x(x) end f:compile()");
    assert_eq!(e.phase, Phase::Typecheck, "{e}");
}

/// Defining the ill-typed `ter f(x : B) : B { x(0) }` succeeds; only calling
/// it fails, at typecheck.
#[test]
fn typechecking_is_lazy_definition_succeeds_anyway() {
    let define = "terra f(x : int) : int return x(0) end";
    assert_eq!(eval_num(&format!("{define} return 1")), 1.0);
    let e = eval_error(&format!("{define} return f(1)"));
    assert_eq!(e.phase, Phase::Typecheck, "{e}");
}

/// `let g = tdecl in let f = ter tdecl(x : B) : B { g(x) } in f`: checking
/// `f`, without a call, reaches the undefined `g` and fails at link.
#[test]
fn reference_to_undefined_function_is_link_error() {
    let e = eval_error(
        r#"local g = terralib.declare("g")
           terra f(x : int) : int return g(x) end
           f:compile()"#,
    );
    assert_eq!(e.phase, Phase::Link, "{e}");
}
