//! Lua conformance as a table: each row is a program, and the string it
//! returns as written from the Lua 5.1 reference manual, not from running
//! this interpreter (there is no reference `lua` here to run).
//!
//! The first rows are the numeric `for` of §2.4.5, which the manual gives
//! as the loop
//!
//! ```lua
//! do
//!   local var, limit, step = tonumber(e1), tonumber(e2), tonumber(e3)
//!   if not (var and limit and step) then error() end
//!   while (step > 0 and var <= limit) or (step <= 0 and var >= limit) do
//!     local v = var
//!     block
//!     var = var + step
//!   end
//! end
//! ```
//!
//! so: the limit is inclusive, the three expressions are evaluated once, a
//! float step accumulates, `v` is a fresh local of each iteration (assigning
//! it changes nothing about the count, and nothing outside sees it), and a
//! bound that is not a number is an error.
//!
//! The rows after them, `CORNERS`, are corners of the base library and of
//! string coercion: `select`'s index, `<=` on tables with only `__lt`, and
//! hexadecimal strings; then the arithmetic and call metamethods an image
//! algebra like Orion's relies on (§2.8): a number on either side of an
//! operator, the operands' order, `__call`'s arguments, and the handler's
//! own error; then table keys (§2.5.7, §5.1 `next`, `rawset`): a key is
//! raw-equal only to itself, `next` reaches every entry and lets a
//! traversal clear the fields it visits, and nil and NaN are not keys;
//! then `unpack`'s range (§5.1): `i` and `j`, nils past the border, and the
//! C stack's limit; then `string.find`'s `init` and `plain`, `string.byte`'s
//! range and `string.char`'s bytes (§5.4), and `tonumber`'s bases (§5.1);
//! last, the library's argument checks (`luaL_typerror`'s words, and a
//! number where a string is expected, as `luaL_checklstring` takes it).

use terra_eval::{Interp, LuaValue};

/// What `src` returns, as `tostring` renders it; an error as `error`.
fn returns(src: &str) -> String {
    let mut t = Interp::new();
    match t.exec(src) {
        Ok(out) => match out.first() {
            Some(LuaValue::Str(s)) => s.to_string(),
            Some(LuaValue::Number(n)) => format!("{n}"),
            Some(LuaValue::Bool(b)) => b.to_string(),
            other => panic!("{src}: returned {other:?}"),
        },
        Err(_) => "error".to_string(),
    }
}

/// `body` run with a list `t` to collect into; returns `t` joined by spaces.
fn collected(body: &str) -> String {
    returns(&format!(
        "local t = {{}}\n{body}\nlocal s = {{}}\n\
         for k = 1, #t do s[k] = tostring(t[k]) end\n\
         return table.concat(s, ' ')"
    ))
}

const NUMERIC_FOR: &[(&str, &str, &str)] = &[
    (
        "the limit is inclusive",
        "for i = 1, 3 do t[#t + 1] = i end",
        "1 2 3",
    ),
    (
        "a start equal to the limit is one trip",
        "for i = 5, 5 do t[#t + 1] = i end",
        "5",
    ),
    (
        "a start past the limit is zero trips",
        "for i = 3, 1 do t[#t + 1] = i end",
        "",
    ),
    (
        "a negative step counts down",
        "for i = 3, 1, -1 do t[#t + 1] = i end",
        "3 2 1",
    ),
    (
        "a negative step stops before passing the limit",
        "for i = 10, 1, -4 do t[#t + 1] = i end",
        "10 6 2",
    ),
    (
        "a negative step from below the limit is zero trips",
        "for i = 1, 3, -1 do t[#t + 1] = i end",
        "",
    ),
    (
        "a float step reaches an inclusive limit",
        "for x = 0, 1, 0.25 do t[#t + 1] = x end",
        "0 0.25 0.5 0.75 1",
    ),
    (
        "a float step that does not divide the range",
        "for x = 0, 1, 0.4 do t[#t + 1] = x end",
        "0 0.4 0.8",
    ),
    (
        "a float start with the default step",
        "for x = 0.5, 3 do t[#t + 1] = x end",
        "0.5 1.5 2.5",
    ),
    (
        "a negative float step",
        "for x = 1, 0, -0.5 do t[#t + 1] = x end",
        "1 0.5 0",
    ),
    (
        "assigning the control variable does not change the iterations",
        "for i = 1, 3 do t[#t + 1] = i i = 10 end",
        "1 2 3",
    ),
    (
        "the limit is evaluated once",
        "local n = 3 for i = 1, n do n = 0 t[#t + 1] = i end",
        "1 2 3",
    ),
    (
        "the step is evaluated once",
        "local d = 1 for i = 1, 4, d do d = 2 t[#t + 1] = i end",
        "1 2 3 4",
    ),
    (
        "each iteration has a variable of its own",
        "local f = {} for i = 1, 3 do f[i] = function() return i end end \
         for k = 1, 3 do t[k] = f[k]() end",
        "1 2 3",
    ),
    (
        "numeric strings are bounds",
        "for i = '1', '3' do t[#t + 1] = i end",
        "1 2 3",
    ),
    (
        "break leaves the loop",
        "for i = 1, 10 do if i > 3 then break end t[#t + 1] = i end",
        "1 2 3",
    ),
];

#[test]
fn numeric_for_follows_the_manual() {
    let mut wrong = Vec::new();
    for (row, body, expected) in NUMERIC_FOR {
        let got = collected(body);
        if got != *expected {
            wrong.push(format!(
                "{row}: `{body}` gave {got:?}, the manual says {expected:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The control variable is local to the loop: a global or an outer local of
/// the same name is what the name means after it.
#[test]
fn the_control_variable_is_not_visible_after_the_loop() {
    assert_eq!(returns("i = 'g' for i = 1, 2 do end return i"), "g");
    assert_eq!(returns("local i = 7 for i = 1, 2 do end return i"), "7");
    assert_eq!(
        returns("for i = 1, 2 do end return i == nil"),
        "true",
        "no global springs into being"
    );
}

/// "They must all result in numbers": a bound or step that is not is an
/// error, raised before the first trip.
#[test]
fn a_bound_that_is_not_a_number_is_an_error() {
    for header in ["i = 1, {}", "i = {}, 3", "i = 1, 3, 'x'", "i = nil, 3"] {
        let src = format!("local n = 0 for {header} do n = n + 1 end return n");
        assert_eq!(returns(&src), "error", "{header}");
    }
}

/// Corners of the base library and of coercion, each as §5.1 and §2.2.1 of
/// the manual state them: a program, and what it returns.
const CORNERS: &[(&str, &str, &str)] = &[
    (
        "select with a negative index counts from the end",
        "return select(-1, 'a', 'b', 'c')",
        "c",
    ),
    (
        "select with -n returns all n values",
        "return table.concat({select(-3, 'a', 'b', 'c')}, ' ')",
        "a b c",
    ),
    (
        "select past the last value returns nothing",
        "return select('#', select(5, 'a'))",
        "0",
    ),
    (
        "select with index 0 is an error",
        "return select(0, 'a')",
        "error",
    ),
    (
        "select with an index before the first value is an error",
        "return select(-4, 'a', 'b', 'c')",
        "error",
    ),
    (
        "the error names the argument",
        "local ok, e = pcall(select, 0, 'a') return e",
        "bad argument #1 to 'select' (index out of range)",
    ),
    (
        "`<=` without `__le` is `not (b < a)` through `__lt`",
        "local mt = {__lt = function(a, b) return a.v < b.v end} \
         local x, y = setmetatable({v = 1}, mt), setmetatable({v = 2}, mt) \
         return tostring(x <= y) .. ' ' .. tostring(y <= x) .. ' ' .. tostring(y >= x) \
         .. ' ' .. tostring(x <= x)",
        "true false true true",
    ),
    (
        "`__le` is called when there is one",
        "local mt = {__lt = function() return true end, __le = function() return false end} \
         local x, y = setmetatable({}, mt), setmetatable({}, mt) \
         return tostring(x <= y) .. ' ' .. tostring(x < y)",
        "false true",
    ),
    (
        "tonumber reads a hexadecimal integer",
        "return tostring(tonumber('0x10'))",
        "16",
    ),
    (
        "a hexadecimal string is coerced in arithmetic",
        "return '0x10' + 1",
        "17",
    ),
    (
        "the 0X prefix and the digits are caseless, spaces are skipped",
        "return tostring(tonumber(' 0XfF '))",
        "255",
    ),
    (
        "a prefix without digits is not a number",
        "return tostring(tonumber('0x')) .. ' ' .. tostring(tonumber('0x1g'))",
        "nil nil",
    ),
    (
        "a number on the left of `-` reaches the table's `__sub`",
        "local function v(a) return type(a) == 'number' and a or a.v end \
         local x = setmetatable({v = 4}, {__sub = function(a, b) return v(a) - v(b) end}) \
         return 1 - x",
        "-3",
    ),
    (
        "a number on the left of `*` reaches the table's `__mul`",
        "local function v(a) return type(a) == 'number' and a or a.v end \
         local x = setmetatable({v = 4}, {__mul = function(a, b) return v(a) * v(b) end}) \
         return 2 * x",
        "8",
    ),
    (
        "a number on the left of `/` reaches the table's `__div`",
        "local function v(a) return type(a) == 'number' and a or a.v end \
         local x = setmetatable({v = 4}, {__div = function(a, b) return v(a) / v(b) end}) \
         return 6 / x",
        "1.5",
    ),
    (
        "`__sub` and `__div` get the operands in the order written",
        "local function f(a, b) return type(a) .. ' ' .. type(b) end \
         local x = setmetatable({}, {__sub = f, __div = f}) \
         return (1 - x) .. ', ' .. (x - 1) .. ', ' .. (6 / x) .. ', ' .. (x / 2)",
        "number table, table number, number table, table number",
    ),
    (
        "`__call` gets the table, then both arguments",
        "local x = setmetatable({v = 4}, {__call = function(t, dx, dy) \
             return t.v .. ' ' .. dx .. ' ' .. dy end}) \
         return x(-1, 2)",
        "4 -1 2",
    ),
    (
        "`table + {}` fails with the handler's own error",
        "local mt = {} \
         mt.__add = function(a, b) \
             if getmetatable(b) ~= mt then error('not an image', 0) end return a end \
         local x = setmetatable({}, mt) \
         local ok, e = pcall(function() return x + {} end) \
         return tostring(ok) .. ' ' .. e",
        "false not an image",
    ),
    (
        "a table key is only itself: a fresh table finds nothing, and every entry is walked",
        "local t = {} for i = 1, 50 do t[{}] = i end \
         local hits, n = 0, 0 \
         for j = 1, 200 do if t[{}] ~= nil then hits = hits + 1 end end \
         for k in pairs(t) do n = n + 1 end \
         return hits .. ' ' .. n",
        "0 50",
    ),
    (
        "next visits table- and function-keyed entries",
        "local f = function() end \
         local t = {[{}] = 1, [f] = 2} \
         local sum = 0 for k, v in pairs(t) do sum = sum + v end \
         return select(2, next({[{}] = 3})) + sum",
        "6",
    ),
    (
        "a macro is equal to itself and keys its entry",
        "local m = terralib.macro(function() end) \
         local t = {[m] = 1} \
         return tostring(m == m) .. ' ' .. t[m]",
        "true 1",
    ),
    (
        "a nil key is an error to assign, by index or rawset, and nil to read",
        "local ok, e = pcall(function() local t = {} t[nil] = 1 end) \
         return tostring(ok) .. ' ' .. tostring(string.find(e, 'table index is nil', 1, true) ~= nil) \
         .. ' ' .. select(2, pcall(rawset, {}, nil, 1)) .. ' ' .. tostring(({})[nil])",
        "false true table index is nil nil",
    ),
    (
        "a NaN key is an error to assign, by index or rawset, and nil to read",
        "local ok, e = pcall(function() local t = {} t[0/0] = 1 end) \
         return tostring(ok) .. ' ' .. tostring(string.find(e, 'table index is NaN', 1, true) ~= nil) \
         .. ' ' .. select(2, pcall(rawset, {}, 0/0, 1)) .. ' ' .. tostring(({})[0/0])",
        "false true table index is NaN nil",
    ),
    (
        "clearing each field as pairs visits it visits every field once",
        "local t = {1, 2, 3, x = 1, y = 2} \
         local n = 0 for k in pairs(t) do t[k] = nil n = n + 1 end \
         return n .. ' ' .. tostring(next(t))",
        "5 nil",
    ),
    (
        "next with a key the table does not hold is an error",
        "return select(2, pcall(next, {a = 1}, 'b'))",
        "invalid key to 'next'",
    ),
    (
        "unpack starts at i",
        "return table.concat({unpack({1, 2, 3}, 2)}, ' ')",
        "2 3",
    ),
    (
        "unpack stops at j",
        "return table.concat({unpack({1, 2, 3}, 1, 2)}, ' ')",
        "1 2",
    ),
    (
        "unpack past the border returns nils",
        "local a, b, c = unpack({}, 1, 3) \
         return select('#', unpack({}, 1, 3)) .. ' ' .. tostring(a) .. tostring(b) .. tostring(c)",
        "3 nilnilnil",
    ),
    (
        "unpack with i past j returns nothing",
        "return select('#', unpack({1, 2}, 3, 2))",
        "0",
    ),
    (
        "unpack returns up to the C stack's 8 000 values",
        "return select('#', unpack({}, 1, 8000))",
        "8000",
    ),
    (
        "unpack past the C stack is an error",
        "return select(2, pcall(unpack, {}, 1, 2^40))",
        "too many results to unpack",
    ),
    (
        "string.find starts its search at init",
        "return table.concat({string.find('abab', 'b', 3)}, ' ')",
        "4 4",
    ),
    (
        "string.find with a negative init counts from the end",
        "return table.concat({string.find('abab', 'a', -2)}, ' ')",
        "3 3",
    ),
    (
        "string.find with plain true finds magic characters as text",
        "return table.concat({string.find('a.b', '.', 1, true)}, ' ')",
        "2 2",
    ),
    (
        "string.find with a pattern is an error here, not a miss",
        "local ok, e = pcall(string.find, 'abc', 'b.') \
         return tostring(ok) .. ' ' .. tostring(string.find(e, 'patterns are not supported', 1, true) ~= nil)",
        "false true",
    ),
    (
        "string.byte returns one value per byte of i..j",
        "return table.concat({string.byte('abc', 1, -1)}, ' ')",
        "97 98 99",
    ),
    (
        "string.byte with an empty range returns nothing",
        "return select('#', string.byte('abc', 0)) .. ' ' .. select('#', string.byte('abc', 3, 2))",
        "0 0",
    ),
    (
        "string.char of a value that is not a byte is an error",
        "return select(2, pcall(string.char, 256))",
        "bad argument #1 to 'char' (invalid value)",
    ),
    (
        "tonumber reads a numeral in base 16",
        "return tostring(tonumber('ff', 16)) .. ' ' .. tostring(tonumber('Z', 36))",
        "255 35",
    ),
    (
        "tonumber rejects a digit its base does not have",
        "return tostring(tonumber('8', 8)) .. ' ' .. tostring(tonumber('10', 2))",
        "nil 2",
    ),
    (
        "tonumber in a base other than 10 accepts only unsigned integers",
        "return tostring(tonumber('-1', 16)) .. ' ' .. tostring(tonumber('1.5', 8))",
        "nil nil",
    ),
    (
        "tonumber with a base outside 2..36 is an error",
        "return select(2, pcall(tonumber, '1', 37))",
        "bad argument #2 to 'tonumber' (base out of range)",
    ),
    (
        "table.concat joins only t[i..j]",
        "return table.concat({1, 2, 3, 4}, ',', 2, 3)",
        "2,3",
    ),
    (
        "table.concat takes a number as its separator",
        "return table.concat({1, 2, 3}, 0)",
        "10203",
    ),
    (
        "table.concat refuses a value that is neither a string nor a number",
        "return select(2, pcall(table.concat, {1, true, 3}))",
        "invalid value (at index 2) in table for 'concat'",
    ),
    (
        "a number argument of the wrong type is named as luaL_typerror names it",
        "return select(2, pcall(table.concat, {1, 2}, ',', 'x'))",
        "bad argument #3 to 'concat' (number expected, got string)",
    ),
    (
        "a string argument of the wrong type is named as luaL_typerror names it",
        "return select(2, pcall(string.len, true))",
        "bad argument #1 to 'len' (string expected, got boolean)",
    ),
    (
        "string.len takes a number as its string",
        "return string.len(123)",
        "3",
    ),
    (
        "string.rep takes a number as its string",
        "return string.rep(5, 2)",
        "55",
    ),
    (
        "string.upper takes a number as its string",
        "return string.upper(1.5)",
        "1.5",
    ),
];

#[test]
fn library_corners_follow_the_manual() {
    let mut wrong = Vec::new();
    for (row, src, expected) in CORNERS {
        let got = returns(src);
        if got != *expected {
            wrong.push(format!(
                "{row}: `{src}` gave {got:?}, the manual says {expected:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
