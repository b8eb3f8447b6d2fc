//! Coverage for the remaining Lua standard-library surface and metamethod
//! corners used by DSL authors.

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

#[test]
fn newindex_intercepts_missing_keys_only() {
    let src = r#"
        local log = {}
        local t = setmetatable({present = 1}, {
            __newindex = function(tbl, k, v) rawset(log, k, v) end,
        })
        t.present = 2      -- direct (key exists)
        t.missing = 3      -- intercepted by __newindex
        return t.present * 100 + (log.missing or 0) + (t.missing == nil and 10 or 0)
    "#;
    assert_eq!(eval_num(src), 213.0);
}

#[test]
fn tostring_metamethod() {
    let src = r#"
        local v = setmetatable({x = 3}, {
            __tostring = function(s) return "vec(" .. s.x .. ")" end,
        })
        return tostring(v)
    "#;
    assert_eq!(eval_str(src), "vec(3)");
}

#[test]
fn comparison_metamethods() {
    let src = r#"
        local mt = {
            __lt = function(a, b) return a.v < b.v end,
            __le = function(a, b) return a.v <= b.v end,
        }
        local function mk(v) return setmetatable({v = v}, mt) end
        local a, b = mk(1), mk(2)
        local score = 0
        if a < b then score = score + 1 end
        if a <= b then score = score + 10 end
        if b > a then score = score + 100 end
        if not (b <= a) then score = score + 1000 end
        return score
    "#;
    assert_eq!(eval_num(src), 1111.0);
}

#[test]
fn eq_metamethod_on_distinct_tables() {
    let src = r#"
        local mt = {__eq = function(a, b) return a.id == b.id end}
        local a = setmetatable({id = 9}, mt)
        local b = setmetatable({id = 9}, mt)
        local c = setmetatable({id = 8}, mt)
        local n = 0
        if a == b then n = n + 1 end
        if a ~= c then n = n + 10 end
        return n
    "#;
    assert_eq!(eval_num(src), 11.0);
}

#[test]
fn concat_metamethod() {
    let src = r#"
        local mt = {__concat = function(a, b)
            local av = type(a) == "table" and a.v or a
            local bv = type(b) == "table" and b.v or b
            return av .. "/" .. bv
        end}
        local x = setmetatable({v = "mid"}, mt)
        -- '..' is right-associative: x .. "post" uses __concat ("mid/post");
        -- the outer concat then joins two plain strings.
        return "pre" .. x .. "post"
    "#;
    assert_eq!(eval_str(src), "premid/post");
}

#[test]
fn string_library_details() {
    assert_eq!(
        eval_num("local s, e = string.find('hello world', 'wor') return s * 100 + e"),
        709.0
    );
    assert_eq!(
        eval_str("return string.upper('MiXeD') .. string.lower('MiXeD')"),
        "MIXEDmixed"
    );
    assert_eq!(eval_num("return string.byte('A')"), 65.0);
    assert_eq!(eval_str("return string.char(104, 105)"), "hi");
    assert_eq!(eval_str("return ('xyz'):upper()"), "XYZ"); // method sugar on strings
}

#[test]
fn select_and_unpack() {
    assert_eq!(
        eval_num("return select(2, 'a', 'b', 'c') == 'b' and 1 or 0"),
        1.0
    );
    assert_eq!(
        eval_num("local a, b = unpack({7, 8}) return a * 10 + b"),
        78.0
    );
}

#[test]
fn rawget_bypasses_index_metamethod() {
    let src = r#"
        local t = setmetatable({}, {__index = function() return 99 end})
        local viameta = t.anything
        local raw = rawget(t, "anything")
        return viameta + (raw == nil and 1 or 0)
    "#;
    assert_eq!(eval_num(src), 100.0);
}

#[test]
fn getmetatable_and_clearing() {
    let src = r#"
        local mt = {__index = function() return 5 end}
        local t = setmetatable({}, mt)
        local had = getmetatable(t) == mt
        setmetatable(t, nil)
        local cleared = getmetatable(t) == nil and t.x == nil
        return (had and 1 or 0) + (cleared and 10 or 0)
    "#;
    assert_eq!(eval_num(src), 11.0);
}

#[test]
fn numeric_for_fractional_step() {
    assert_eq!(
        eval_num("local n = 0 for x = 0, 1, 0.25 do n = n + 1 end return n"),
        5.0
    );
}

#[test]
fn os_clock_advances() {
    let src = r#"
        local t0 = os.clock()
        local s = 0
        for i = 1, 20000 do s = s + i end
        local t1 = os.clock()
        return (t1 >= t0) and 1 or 0
    "#;
    assert_eq!(eval_num(src), 1.0);
}

#[test]
fn io_write_no_newline() {
    let mut t = Interp::new();
    t.capture_output();
    t.exec("io.write('a', 1, 'b') io.write('!')").unwrap();
    assert_eq!(t.take_output(), "a1b!");
}

#[test]
fn nested_table_writes_through_paths() {
    let src = r#"
        local cfg = { tuning = { blocks = {} } }
        cfg.tuning.blocks.outer = 128
        cfg.tuning.blocks.inner = 64
        return cfg.tuning.blocks.outer / cfg.tuning.blocks.inner
    "#;
    assert_eq!(eval_num(src), 2.0);
}

#[test]
fn varargs_forwarding() {
    let src = r##"
        local function inner(...) return select("#", ...) end
        local function outer(...) return inner(0, ...) end
        return outer(1, 2, 3)
    "##;
    assert_eq!(eval_num(src), 4.0);
}

#[test]
fn string_format_padding() {
    assert_eq!(eval_str("return string.format('[%5d]', 42)"), "[   42]");
    assert_eq!(eval_str("return string.format('%x', 255)"), "ff");
    assert_eq!(
        eval_str("return string.format('%q', 'he\"y')"),
        "\"he\\\"y\""
    );
}

#[test]
fn deeply_nested_closures_keep_upvalues() {
    let src = r#"
        local function make()
            local hidden = 5
            return function()
                return function()
                    hidden = hidden + 1
                    return hidden
                end
            end
        end
        local f = make()()
        f()
        return f()
    "#;
    assert_eq!(eval_num(src), 7.0);
}

#[test]
fn lua_stack_overflow_is_caught() {
    let mut t = Interp::new();
    let e = t
        .exec("local function boom() return boom() end return boom()")
        .unwrap_err();
    assert!(e.to_string().contains("stack overflow"), "{e}");
}

/// Unbounded recursion on a 2 MiB thread — a spawned thread's default —
/// ends in a Lua error with its phase and a traceback, not in a host stack
/// overflow, whatever the build profile.
#[test]
fn unbounded_recursion_on_a_2_mib_thread_is_a_lua_error() {
    let run = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut t = Interp::new();
            let src = "local function down(n) return down(n + 1) + 1 end return down(0)";
            let e = t.exec(src).unwrap_err();
            (e.message.clone(), e.phase, e.trace.len())
        })
        .expect("spawn");
    let (message, phase, frames) = run.join().expect("the thread returned");
    assert_eq!(
        (message.as_str(), phase),
        ("lua stack overflow", terra_eval::Phase::Lua)
    );
    assert!(frames >= 48, "a traceback of {frames} frames");
}

/// `table.sort` is O(n log n) in comparator calls — pinned by the count, not
/// a clock (an insertion sort makes about n²/4 = 4·10⁶ here) — stable, and
/// hands a comparator's error to its caller.
#[test]
fn table_sort_calls_its_comparator_n_log_n_times() {
    let src = r#"
        local n, x, t = 4096, 12345, {}
        for i = 1, n do
            x = (x * 1103515245 + 12345) % 2147483648
            t[i] = { key = x % 64, seq = i }
        end
        local calls = 0
        table.sort(t, function(a, b) calls = calls + 1 return a.key < b.key end)
        for i = 2, n do
            local a, b = t[i - 1], t[i]
            assert(a.key < b.key or (a.key == b.key and a.seq < b.seq), "unsorted or unstable")
        end
        return calls
    "#;
    let calls = eval_num(src);
    assert!(calls <= 2.0 * 4096.0 * 12.0, "{calls} comparator calls");
    let failing = "return select(2, pcall(table.sort, {3, 2, 1}, function() error('boom') end))";
    assert!(eval_str(failing).contains("boom"));
    // The table is untouched when the comparator failed.
    let src = "local t = {3, 2, 1} pcall(table.sort, t, function() error('x') end) return t[1]";
    assert_eq!(eval_num(src), 3.0);
}

/// A string too large to allocate is `not enough memory`, which `pcall`
/// catches; the host does not abort.
#[test]
fn string_rep_past_memory_is_a_lua_error() {
    let src = "return select(2, pcall(string.rep, 'x', 2^40))";
    assert_eq!(eval_str(src), "not enough memory");
    let src = "return select(2, pcall(string.rep, 'xy', 2^63))";
    assert_eq!(eval_str(src), "not enough memory");
    assert_eq!(eval_str("return string.rep('ab', 3)"), "ababab");
    assert_eq!(eval_num("return #string.rep('', 2^40)"), 0.0);
}

/// Strings are UTF-8 text: a `string.sub` that would cut a character is an
/// error that names the limit, not a host panic.
#[test]
fn string_sub_inside_a_character_is_an_error() {
    let e = eval_str("return select(2, pcall(string.sub, 'é', 1, 1))");
    assert!(e.contains("multi-byte character"), "{e}");
    assert_eq!(eval_str("return string.sub('aéb', 2, 3)"), "é");
}

/// A list's `:insert` is `table.insert`.
#[test]
fn list_insert_is_table_insert() {
    let src = "local l = terralib.newlist() l:insert(2) l:insert(1, 1) table.insert(l, 3)
               return l[1] * 100 + l[2] * 10 + l[3]";
    assert_eq!(eval_num(src), 123.0);
    let e = eval_str("return select(2, pcall(terralib.newlist().insert, 1))");
    assert!(e.contains("table.insert: table expected"), "{e}");
}
