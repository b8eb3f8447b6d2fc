//! Conformance of the meta-language evaluator's scoping: which binding a
//! name denotes, when a scope is fresh, and how the specializer shares the
//! environment with Lua (the paper's Γ). The parser resolves every name to a
//! slot once; these cases are the ones where getting the scope discipline
//! wrong on either side would pick the wrong slot. Each asserts printed
//! output against what reference Lua (or, for the Terra cases, the paper's
//! semantics) prints.

use terra_eval::Interp;

fn output_of(src: &str) -> String {
    let mut t = Interp::new();
    t.capture_output();
    t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    t.take_output()
}

// -- closures and per-iteration scopes ----------------------------------------

#[test]
fn numeric_for_captures_each_iterations_variable() {
    let src = r#"
        local fs = {}
        for i = 1, 3 do fs[i] = function() return i end end
        print(fs[1](), fs[2](), fs[3]())
    "#;
    assert_eq!(output_of(src), "1\t2\t3\n");
}

#[test]
fn numeric_for_captures_each_iterations_locals() {
    // The body's locals live in the iteration's scope too; an iteration
    // nobody captured may hand its scope to the next one, a captured one
    // may not.
    let src = r#"
        local fs = {}
        for i = 1, 4 do
            local sq = i * i
            if i % 2 == 0 then fs[#fs + 1] = function() sq = sq + 1; return sq end end
        end
        print(fs[1](), fs[1](), fs[2]())
    "#;
    assert_eq!(output_of(src), "5\t6\t17\n");
}

#[test]
fn generic_for_captures_each_iterations_variables() {
    let src = r#"
        local fs = {}
        for i, v in ipairs({ "a", "b", "c" }) do fs[i] = function() return i .. v end end
        print(fs[1](), fs[2](), fs[3]())
    "#;
    assert_eq!(output_of(src), "1a\t2b\t3c\n");
}

#[test]
fn while_body_locals_are_fresh_each_iteration() {
    let src = r#"
        local fs, n = {}, 0
        while n < 3 do
            n = n + 1
            local k = n * 10
            fs[n] = function() return k end
        end
        print(fs[1](), fs[2](), fs[3]())
    "#;
    assert_eq!(output_of(src), "10\t20\t30\n");
}

#[test]
fn an_upvalue_mutated_after_capture_is_seen_through_both_closures() {
    let src = r#"
        local function counter()
            local n = 0
            return function() n = n + 1; return n end, function() return n end
        end
        local bump, peek = counter()
        bump(); bump()
        print(peek())
        local bump2, peek2 = counter()
        bump2()
        print(peek(), peek2())
    "#;
    assert_eq!(output_of(src), "2\n2\t1\n");
}

#[test]
fn one_function_body_runs_under_two_closure_environments() {
    let src = r#"
        local function adder(k) return function(x) return x + k end end
        local add1, add10 = adder(1), adder(10)
        print(add1(5), add10(5), add1(add10(0)))
    "#;
    assert_eq!(output_of(src), "6\t15\t11\n");
}

#[test]
fn local_function_recursion() {
    let src = r#"
        local function fib(n) if n < 2 then return n end return fib(n - 1) + fib(n - 2) end
        print(fib(15))
        -- `local f = function` does not see itself: the inner `g` is global.
        g = function() return "global g" end
        local g = function(n) if n == 0 then return "local g" end return g(0) end
        print(g(1))
    "#;
    assert_eq!(output_of(src), "610\nglobal g\n");
}

#[test]
fn repeat_until_sees_the_bodys_locals() {
    let src = r#"
        local n = 0
        repeat
            n = n + 1
            local done = n >= 3
        until done
        print(n)
        -- …also when the body declares nothing.
        local m = 0
        repeat m = m + 1 until m == 2
        print(m)
    "#;
    assert_eq!(output_of(src), "3\n2\n");
}

// -- shadowing and redeclaration ------------------------------------------------

#[test]
fn a_redeclared_local_does_not_rebind_earlier_closures() {
    let src = r#"
        local x = 1
        local function f() return x end
        local x = 2
        print(f(), x)
    "#;
    assert_eq!(output_of(src), "1\t2\n");
}

#[test]
fn a_local_is_not_visible_before_its_declaration() {
    let src = r#"
        y = "global"
        local function f() return y end
        local y = "local"
        print(f(), y)
        local z = z
        print(z)
    "#;
    assert_eq!(output_of(src), "global\tlocal\nnil\n");
}

#[test]
fn shadowing_in_nested_blocks_and_across_a_block_that_declares_nothing() {
    let src = r#"
        local x = "outer"
        do
            print(x)
            local x = "inner"
            if true then
                -- declares nothing: runs in the `do` block's scope
                x = x .. "!"
                do
                    local x = "innermost"
                    print(x)
                end
            end
            print(x)
        end
        print(x)
    "#;
    assert_eq!(output_of(src), "outer\ninnermost\ninner!\nouter\n");
}

#[test]
fn statements_before_a_blocks_first_local_run_in_the_enclosing_scope() {
    // The closure made before `local v` captures the outer `v`; the one made
    // after captures the block's.
    let src = r#"
        local v = "outer"
        local before, after
        if true then
            before = function() return v end
            local v = "block"
            after = function() return v end
        end
        v = "outer2"
        print(before(), after())
    "#;
    assert_eq!(output_of(src), "outer2\tblock\n");
}

#[test]
fn a_read_at_depth_four_finds_the_outermost_local() {
    let src = r#"
        local a = 1
        local function f()
            local b = 2
            return function()
                local c = 3
                for i = 1, 1 do
                    local d = 4
                    print(a + b + c + d + i)
                end
            end
        end
        f()()
    "#;
    assert_eq!(output_of(src), "11\n");
}

// -- multiple values ------------------------------------------------------------

#[test]
fn varargs_select_and_truncation_in_the_middle() {
    let src = r#"
        local function mr() return 1, 2, 3 end
        local function count(...) return select('#', ...) end
        print(count(), count(nil), count(mr()), count(mr(), mr()), count(mr(), 10))
        local function pass(...) return ... end
        print(pass(mr()))
        print((pass(mr())))
        local t = { mr(), mr() }
        print(#t)
        local function inner(...)
            local function nested() return 7 end
            return nested(), ...
        end
        print(inner("a", "b"))
    "#;
    assert_eq!(output_of(src), "0\t1\t3\t4\t2\n1\t2\t3\n1\n4\n7\ta\tb\n");
}

#[test]
fn a_parenthesised_call_is_one_value() {
    let src = r#"
        local function mr() return 1, 2, 3 end
        local function count(...) return select('#', ...) end
        print((mr()))
        print(#{ (mr()) }, count((mr())))
        local function va(...) return (...) end
        print(va(4, 5, 6))
        local obj = { m = function(self) return "a", "b" end }
        print((obj:m()))
        -- Parentheses around anything else change nothing.
        print((1 + 2) * 3, ("x"):rep(2))
    "#;
    assert_eq!(output_of(src), "1\n1\t1\n4\na\n9\txx\n");
}

#[test]
fn multiple_assignment_evaluates_targets_before_storing() {
    // The reference manual's own example, in both orders.
    let src = r#"
        local t, i = {}, 1
        i, t[i] = i + 1, 20
        print(i, t[1], t[2])
        local u, j = {}, 1
        u[j], j = 20, j + 1
        print(j, u[1], u[2])
        local a, b = 1, 2
        a, b = b, a
        print(a, b)
    "#;
    assert_eq!(output_of(src), "2\t20\tnil\n2\t20\tnil\n2\t1\n");
}

// -- chunks ---------------------------------------------------------------------

#[test]
fn a_required_module_keeps_its_own_locals() {
    let mut t = Interp::new();
    t.capture_output();
    t.module_sources.insert(
        "counter".to_string(),
        r#"
            local n = 100
            local M = {}
            function M.bump() n = n + 1; return n end
            return M
        "#
        .to_string(),
    );
    t.exec(
        r#"
            local n = 1
            local c = require "counter"
            print(c.bump(), c.bump(), n)
            print(require("counter") == c)
        "#,
    )
    .unwrap();
    assert_eq!(t.take_output(), "101\t102\t1\ntrue\n");
}

#[test]
fn a_second_chunk_reads_the_firsts_globals_but_not_its_locals() {
    let mut t = Interp::new();
    t.capture_output();
    t.exec("shared = 41; local hidden = 1; function bump() shared = shared + hidden end")
        .unwrap();
    t.exec("bump(); print(shared, hidden)").unwrap();
    t.exec("local shared = 'mine'; bump(); print(shared)")
        .unwrap();
    t.exec("print(shared)").unwrap();
    assert_eq!(t.take_output(), "42\tnil\nmine\n43\n");
}

// -- the shared environment Γ -----------------------------------------------------

#[test]
fn terra_variables_are_symbols_to_escaped_lua() {
    let src = r#"
        local seen = {}
        local function note(what, v) seen[#seen + 1] = what .. "=" .. type(v); return v end
        terra f(p : int) : int
            var v = [note("param", p)] + 1
            for i = 0, 2 do
                v = v + [note("for", i)]
                var w = [note("var", v)]
                v = w
            end
            return v
        end
        print(f(10))
        print(table.concat(seen, " "))
    "#;
    assert_eq!(output_of(src), "12\nparam=symbol for=symbol var=symbol\n");
}

#[test]
fn a_terra_var_shadows_a_lua_local_inside_a_quote_only() {
    let src = r#"
        local x = 5
        local q = quote
            var before = [x]      -- the Lua local: the constant 5
            var x = before + 1    -- from here on `x` is the Terra variable
        in
            x * 10
        end
        local after = x           -- …and out here it is the Lua local again
        terra f() : int return q + after end
        print(f())
        -- An initializer does not see the variable it initializes.
        terra g() : int
            var x = x + 1
            return x
        end
        print(g())
    "#;
    assert_eq!(output_of(src), "65\n6\n");
}

#[test]
fn a_quote_built_in_a_loop_captures_that_iterations_value() {
    let src = r#"
        local terms = {}
        for i = 1, 4 do
            local w = i * i
            terms[i] = `w + i
        end
        terra sum() : int
            return [terms[1]] + [terms[2]] + [terms[3]] + [terms[4]]
        end
        print(sum())
    "#;
    assert_eq!(output_of(src), "40\n");
}

#[test]
fn nested_terra_definitions_in_a_lua_function_called_twice() {
    let src = r#"
        local function make(k)
            local scale = k * 2
            local terra inner(a : int) : int return a * scale end
            terra outer(a : int) : int
                var r = inner(a)
                return r + k
            end
            return outer
        end
        local f, g = make(1), make(10)
        print(f(3), g(3), f(3))
    "#;
    assert_eq!(output_of(src), "7\t70\t7\n");
}

#[test]
fn terra_methods_see_self_and_the_definition_sites_locals() {
    let src = r#"
        local bonus = 100
        struct Acc { total : int }
        terra Acc:add(n : int) : int
            self.total = self.total + n + bonus
            return self.total
        end
        terra run() : int
            var a = Acc { 1 }
            a:add(1)
            return a:add(2)
        end
        print(run())
    "#;
    assert_eq!(output_of(src), "204\n");
}

#[test]
fn escaped_declarations_bind_no_name() {
    // `[s]` declares the symbol's variable, not a variable called `s`: the
    // identifier `s` inside the Terra code still means the Lua local.
    let src = r#"
        local s = symbol(int, "s")
        local k = symbol(int, "k")
        terra f() : int
            var [s] = 3
            var total = 0
            for [k] = 0, 4 do
                total = total + [k] * s
            end
            return total
        end
        print(f())
    "#;
    assert_eq!(output_of(src), "18\n");
}

#[test]
fn a_forward_declared_local_terra_function_is_filled_in() {
    let src = r#"
        local isodd = terralib.declare("isodd")
        local terra iseven(n : int) : bool
            if n == 0 then return true end
            return isodd(n - 1)
        end
        local terra isodd(n : int) : bool
            if n == 0 then return false end
            return iseven(n - 1)
        end
        print(iseven(10), isodd(7), iseven(7))
    "#;
    assert_eq!(output_of(src), "true\ttrue\tfalse\n");
}
