//! Tests of the pure-Lua side of the interpreter: values, control flow,
//! closures, metatables, and the standard library.

use terra_eval::{Interp, LuaValue};

fn eval_num(src: &str) -> f64 {
    let mut t = Interp::new();
    let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    match out.first() {
        Some(LuaValue::Number(n)) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn eval_str(src: &str) -> String {
    let mut t = Interp::new();
    let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    match out.first() {
        Some(LuaValue::Str(s)) => s.to_string(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn output_of(src: &str) -> String {
    let mut t = Interp::new();
    t.capture_output();
    t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    t.take_output()
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(eval_num("return 1 + 2 * 3"), 7.0);
    assert_eq!(eval_num("return (1 + 2) * 3"), 9.0);
    assert_eq!(eval_num("return 2 ^ 3 ^ 2"), 512.0); // right assoc
    assert_eq!(eval_num("return -2 ^ 2"), -4.0); // ^ binds tighter than unary
    assert_eq!(eval_num("return 7 % 3"), 1.0);
    assert_eq!(eval_num("return 10 / 4"), 2.5);
}

#[test]
fn string_ops() {
    assert_eq!(eval_str(r#"return "a" .. "b" .. 1"#), "ab1");
    assert_eq!(eval_num(r#"return #"hello""#), 5.0);
    assert_eq!(
        eval_str(r#"return string.format("%d-%s-%.2f", 3, "x", 1.5)"#),
        "3-x-1.50"
    );
    assert_eq!(eval_str(r#"return string.sub("hello", 2, 4)"#), "ell");
    assert_eq!(eval_str(r#"return string.sub("hello", -3)"#), "llo");
    assert_eq!(eval_str(r#"return string.rep("ab", 3)"#), "ababab");
}

#[test]
fn locals_scoping_and_shadowing() {
    let src = r#"
        local x = 1
        do
            local x = 2
        end
        return x
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn while_repeat_for() {
    assert_eq!(
        eval_num("local s = 0 local i = 1 while i <= 10 do s = s + i i = i + 1 end return s"),
        55.0
    );
    assert_eq!(
        eval_num("local s = 0 repeat s = s + 1 until s >= 5 return s"),
        5.0
    );
    assert_eq!(
        eval_num("local s = 0 for i = 1, 10 do s = s + i end return s"),
        55.0
    );
    assert_eq!(
        eval_num("local s = 0 for i = 10, 1, -2 do s = s + i end return s"),
        30.0
    );
    assert_eq!(
        eval_num("local s = 0 for i = 1, 10 do if i > 3 then break end s = s + i end return s"),
        6.0
    );
}

#[test]
fn closures_capture_environment() {
    let src = r#"
        local function counter()
            local n = 0
            return function()
                n = n + 1
                return n
            end
        end
        local c = counter()
        c(); c()
        return c()
    "#;
    assert_eq!(eval_num(src), 3.0);
}

#[test]
fn recursion_and_mutual_recursion() {
    assert_eq!(
        eval_num(
            "local function fact(n) if n == 0 then return 1 end return n * fact(n - 1) end \
             return fact(10)"
        ),
        3628800.0
    );
    let src = r#"
        local isodd
        local function iseven(n) if n == 0 then return true end return isodd(n - 1) end
        isodd = function(n) if n == 0 then return false end return iseven(n - 1) end
        if iseven(10) then return 1 else return 0 end
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn multiple_returns_and_varargs() {
    assert_eq!(
        eval_num("local function mr() return 1, 2, 3 end local a, b, c = mr() return a + b + c"),
        6.0
    );
    assert_eq!(
        eval_num(
            "local function sum(...) local t = {...} local s = 0 \
             for i = 1, #t do s = s + t[i] end return s end return sum(1, 2, 3, 4)"
        ),
        10.0
    );
    // Truncation in the middle of a list.
    assert_eq!(
        eval_num("local function mr() return 1, 2 end local a, b = mr(), 10 return a + b"),
        11.0
    );
    assert_eq!(eval_num("return select('#', 1, 2, 3)"), 3.0);
}

#[test]
fn tables_and_length() {
    assert_eq!(eval_num("local t = {1, 2, 3} return #t"), 3.0);
    assert_eq!(
        eval_num("local t = {} t[1] = 5 t.x = 7 return t[1] + t.x"),
        12.0
    );
    assert_eq!(
        eval_num("local t = {a = 1, b = 2, 10, 20} return t[2] + t.b"),
        22.0
    );
    assert_eq!(
        eval_num("local t = {} table.insert(t, 4) table.insert(t, 1, 3) return t[1] * 10 + t[2]"),
        34.0
    );
    assert_eq!(
        eval_num("local t = {3, 1, 2} table.sort(t) return t[1] * 100 + t[2] * 10 + t[3]"),
        123.0
    );
    assert_eq!(eval_str("return table.concat({'a','b','c'}, '-')"), "a-b-c");
}

#[test]
fn pairs_and_ipairs() {
    assert_eq!(
        eval_num("local s = 0 for i, v in ipairs({5, 6, 7}) do s = s + i * v end return s"),
        5.0 + 12.0 + 21.0
    );
    let src = r#"
        local t = {x = 1, y = 2, z = 3}
        local s = 0
        for k, v in pairs(t) do s = s + v end
        return s
    "#;
    assert_eq!(eval_num(src), 6.0);
}

#[test]
fn metatables_index_and_call() {
    let src = r#"
        local base = {greet = function(self) return self.name end}
        local obj = setmetatable({name = "terra"}, {__index = base})
        return obj:greet()
    "#;
    assert_eq!(eval_str(src), "terra");
    let src = r#"
        local callable = setmetatable({}, {__call = function(self, x) return x * 2 end})
        return callable(21)
    "#;
    assert_eq!(eval_num(src), 42.0);
}

#[test]
fn metatables_arithmetic() {
    let src = r#"
        local mt = {}
        mt.__add = function(a, b) return setmetatable({v = a.v + b.v}, mt) end
        mt.__mul = function(a, b) return setmetatable({v = a.v * b.v}, mt) end
        mt.__unm = function(a) return setmetatable({v = -a.v}, mt) end
        local a = setmetatable({v = 3}, mt)
        local b = setmetatable({v = 4}, mt)
        return (-(a + b) * a).v
    "#;
    assert_eq!(eval_num(src), -21.0);
}

#[test]
fn pcall_and_error() {
    let src = r#"
        local ok, msg = pcall(function() error("boom") end)
        if ok then return "no" end
        return msg
    "#;
    assert!(eval_str(src).contains("boom"));
    assert_eq!(
        eval_num("local ok, v = pcall(function() return 9 end) return v"),
        9.0
    );
}

#[test]
fn print_and_tostring() {
    assert_eq!(output_of("print('hi', 1, true, nil)"), "hi\t1\ttrue\tnil\n");
    assert_eq!(eval_str("return tostring(42)"), "42");
    assert_eq!(eval_str("return tostring(1.5)"), "1.5");
    assert_eq!(eval_num("return tonumber('  12 ')"), 12.0);
}

#[test]
fn logical_operators_return_operands() {
    assert_eq!(eval_num("return false or 5"), 5.0);
    assert_eq!(eval_num("return nil and 3 or 7"), 7.0);
    assert_eq!(eval_num("return 2 and 3"), 3.0);
    // Short-circuit: rhs must not run.
    assert_eq!(
        eval_num("local hit = 0 local _ = true or (function() hit = 1 end)() return hit"),
        0.0
    );
}

#[test]
fn math_library() {
    assert_eq!(eval_num("return math.floor(3.7)"), 3.0);
    assert_eq!(eval_num("return math.max(1, 9, 4)"), 9.0);
    assert_eq!(eval_num("return math.min(3, -2, 8)"), -2.0);
    assert_eq!(eval_num("return math.sqrt(81)"), 9.0);
    assert!(eval_num("math.randomseed(7) return math.random()") < 1.0);
    let n = eval_num("math.randomseed(7) return math.random(10)");
    assert!((1.0..=10.0).contains(&n));
}

#[test]
fn assignment_to_undeclared_is_global() {
    let src = r#"
        local function set() G = 11 end
        set()
        return G
    "#;
    assert_eq!(eval_num(src), 11.0);
}

#[test]
fn generic_for_with_custom_iterator() {
    let src = r#"
        local function range(n)
            local i = 0
            return function()
                i = i + 1
                if i <= n then return i end
            end
        end
        local s = 0
        for v in range(4) do s = s + v end
        return s
    "#;
    assert_eq!(eval_num(src), 10.0);
}

#[test]
fn require_loads_registered_modules() {
    let mut t = Interp::new();
    t.module_sources
        .insert("answer".into(), "return { value = 42 }".into());
    let out = t.exec("local m = require 'answer' return m.value").unwrap();
    assert!(matches!(out[0], LuaValue::Number(n) if n == 42.0));
    // Cached: same table on second require.
    let out = t
        .exec("return require('answer') == require('answer')")
        .unwrap();
    assert!(matches!(out[0], LuaValue::Bool(true)));
}

#[test]
fn terralib_newlist() {
    let src = r#"
        local l = terralib.newlist()
        l:insert(1)
        l:insert(2)
        local doubled = l:map(function(x) return x * 2 end)
        local l2 = terralib.newlist({10})
        l2:insertall(doubled)
        return l2[1] + l2[2] + l2[3]
    "#;
    assert_eq!(eval_num(src), 16.0);
}
