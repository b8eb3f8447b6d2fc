//! Shared pieces of the differential proptest harnesses: the random
//! program generators, and flight-recorder glue.
//!
//! When a differential test fails, "outputs differ" is a weak signal. The
//! helper here records both sides of the differential with the execution
//! flight recorder, aligns the recordings, re-records the first divergent
//! checkpoint window at full fidelity, and renders the first divergent
//! effect — function, source line, staging provenance — so the proptest
//! failure message says *where* the executions split, not just that they
//! did.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use terra_eval::Interp;
use terra_ir::OptLevel;
use terra_trace::{replay, RecMeta, Recording};

// -- generators ---------------------------------------------------------------

/// An operand in the generated program: a parameter, an earlier temporary,
/// or a literal.
#[derive(Debug, Clone)]
pub enum Src {
    Param(u8),
    Var(u8),
    Konst(i32),
}

/// One straight-line statement: `var xN = lhs op rhs`.
#[derive(Debug, Clone)]
pub enum OpStmt {
    Add(Src, Src),
    Sub(Src, Src),
    Mul(Src, Src),
    Div(Src, Src),
    Rem(Src, Src),
    /// Shift by a small constant — the form strength reduction produces.
    Shl(Src, u8),
}

fn src_txt(s: &Src, defined: usize) -> String {
    match s {
        Src::Param(i) => ["a", "b", "c"][*i as usize % 3].to_string(),
        Src::Var(i) if defined > 0 => format!("x{}", *i as usize % defined),
        // No temporaries defined yet: fall back to a parameter.
        Src::Var(i) => ["a", "b", "c"][*i as usize % 3].to_string(),
        Src::Konst(v) => {
            if *v < 0 {
                format!("({v})")
            } else {
                format!("{v}")
            }
        }
    }
}

fn stmt_txt(s: &OpStmt, n: usize) -> String {
    let bin =
        |op: &str, l: &Src, r: &Src| format!("var x{n} = {} {op} {}", src_txt(l, n), src_txt(r, n));
    match s {
        OpStmt::Add(l, r) => bin("+", l, r),
        OpStmt::Sub(l, r) => bin("-", l, r),
        OpStmt::Mul(l, r) => bin("*", l, r),
        OpStmt::Div(l, r) => bin("/", l, r),
        OpStmt::Rem(l, r) => bin("%", l, r),
        OpStmt::Shl(l, k) => format!("var x{n} = {} << {}", src_txt(l, n), k % 8),
    }
}

/// Renders the program: every temporary is also stored into a malloc'd
/// buffer so the differential compares memory state, not just the return.
pub fn program_txt(stmts: &[OpStmt]) -> String {
    let n = stmts.len();
    let mut body = String::new();
    for (i, s) in stmts.iter().enumerate() {
        body.push_str(&format!("    {}\n", stmt_txt(s, i)));
        body.push_str(&format!("    buf[{i}] = [double](x{i})\n"));
    }
    format!(
        "local std = terralib.includec(\"stdlib.h\")\n\
         terra prog(a : int, b : int, c : int) : &double\n\
         \u{20}   var buf = [&double](std.malloc({n} * 8))\n\
         {body}\
         \u{20}   return buf\n\
         end\n\
         return prog"
    )
}

fn src_strategy() -> impl Strategy<Value = Src> {
    prop_oneof![
        any::<u8>().prop_map(Src::Param),
        any::<u8>().prop_map(Src::Var),
        // Small constants hit the identity/strength-reduction rewrites
        // (0, 1, powers of two) much more often than uniform i32s would.
        prop_oneof![(-4i32..=16).boxed(), any::<i32>().boxed()].prop_map(Src::Konst),
    ]
}

pub fn stmt_strategy() -> impl Strategy<Value = OpStmt> {
    let s = src_strategy;
    prop_oneof![
        (s(), s()).prop_map(|(l, r)| OpStmt::Add(l, r)),
        (s(), s()).prop_map(|(l, r)| OpStmt::Sub(l, r)),
        (s(), s()).prop_map(|(l, r)| OpStmt::Mul(l, r)),
        (s(), s()).prop_map(|(l, r)| OpStmt::Div(l, r)),
        (s(), s()).prop_map(|(l, r)| OpStmt::Rem(l, r)),
        (s(), any::<u8>()).prop_map(|(l, k)| OpStmt::Shl(l, k)),
    ]
}

/// A random integer expression over the loop index `i` and a captured
/// scalar `k`. `Div` can trap (division by zero at specific indices), which
/// exercises the first-trap-by-chunk-index reporting path.
#[derive(Debug, Clone)]
pub enum E {
    I,
    K,
    C(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
}

impl E {
    pub fn src(&self) -> String {
        match self {
            E::I => "i".to_string(),
            E::K => "k".to_string(),
            E::C(v) => {
                if *v < 0 {
                    format!("({})", v)
                } else {
                    v.to_string()
                }
            }
            E::Add(l, r) => format!("({} + {})", l.src(), r.src()),
            E::Sub(l, r) => format!("({} - {})", l.src(), r.src()),
            E::Mul(l, r) => format!("({} * {})", l.src(), r.src()),
            E::Div(l, r) => format!("({} / {})", l.src(), r.src()),
        }
    }
}

pub fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::I), Just(E::K), (-9i8..10).prop_map(E::C),];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Div(Box::new(l), Box::new(r))),
            // An identity that drops its operand, over an operand that can
            // trap: `(l / r) * 0` is 0 only where `l / r` is defined.
            (inner.clone(), inner, any::<bool>()).prop_map(|(l, r, zero_first)| {
                let div = Box::new(E::Div(Box::new(l), Box::new(r)));
                if zero_first {
                    E::Mul(Box::new(E::C(0)), div)
                } else {
                    E::Mul(div, Box::new(E::C(0)))
                }
            }),
        ]
    })
}

/// Nested `for`s that index a buffer through affine arithmetic in a narrow
/// integer type — `p[(i*c + j) + k]`, `p[(i*c + j) - k]`, the field of an
/// array element — with `k` chosen so that the extreme index lands `edge`
/// past the limit of the type: inside it (`edge <= 0`: no operation wraps,
/// and with staged bounds the mid-end can prove so and reassociate the
/// address) or beyond it (the index wraps, and an address rebuilt as if it
/// had not would read another element or trap somewhere else).
#[derive(Debug, Clone)]
pub struct Nest {
    /// Index type: `int8`, `uint8` or `int32`.
    pub ty: u8,
    /// 0: `(i*c + j) + k` at the top of the type; 1: `(i*c + j) - k` at zero
    /// (where only an unsigned type wraps; a signed one gets a negative
    /// displacement); 2: shape 0 into an array of structs, reading a field.
    pub shape: u8,
    pub rows: u8,
    pub cols: u8,
    pub stride: u8,
    pub edge: i8,
    /// Whether the row count is spliced in as a constant (so the index has
    /// a range) or arrives as the function's parameter.
    pub staged: bool,
}

impl Nest {
    /// Rows the loop nest runs; what to pass `nest` as `n`.
    pub fn rows(&self) -> i64 {
        i64::from(self.rows % 3) + 2
    }

    /// Defines `nest(n : int) : double`: the nest (its outer loop a
    /// `parallelfor` on request) copies the indexed elements into a dense
    /// buffer and, when serial, also stores through the same address; the
    /// result weighs every element of both buffers, so a misplaced access
    /// shows.
    pub fn src(&self, parallel: bool) -> String {
        let (ty, max) =
            [("int8", 127i64), ("uint8", 255), ("int32", i32::MAX as i64)][self.ty as usize % 3];
        let shape = self.shape % 3;
        let (rows, cols) = (self.rows(), i64::from(self.cols % 3) + 2);
        let stride = i64::from(self.stride % 5) + cols + 2;
        let edge = i64::from(self.edge.clamp(-2, 2));
        let j0 = if shape == 1 { 2 } else { 0 };
        let hi = (rows - 1) * stride + j0 + cols - 1;
        let sum = format!("(i * [{ty}]({stride}) + j)");
        let index = if shape == 1 {
            format!("{sum} - [{ty}]({})", j0 + edge)
        } else {
            format!("{sum} + [{ty}]({})", max + edge - hi)
        };
        // An `int32` at its top cannot index memory; bring it back down in
        // 64 bits, where nothing wraps.
        let index = if max > 255 && shape != 1 {
            format!("([int64]({index})) - {}LL", max - 200)
        } else {
            index
        };
        let elem = if shape == 2 {
            format!("q[{index}].val")
        } else {
            format!("q[{index}]")
        };
        let (cell, init) = if shape == 2 {
            ("Cell", "p[t].tag = t  p[t].val = t")
        } else {
            ("double", "p[t] = t")
        };
        let total = if shape == 2 {
            "p[t].val + p[t].tag"
        } else {
            "p[t]"
        };
        let bound = if self.staged {
            rows.to_string()
        } else {
            format!("[{ty}](n)")
        };
        let outer = if parallel { "parallelfor" } else { "for" };
        let store = if parallel {
            String::new()
        } else {
            format!("{elem} = {elem} + 1")
        };
        format!(
            r#"local std = terralib.includec("stdlib.h")
struct Cell {{ tag : int32; val : double }}
terra nest(n : int) : double
    var p = [&{cell}](std.malloc(512 * [sizeof({cell})]))
    var out = [&double](std.malloc({rows} * {cols} * 8))
    for t = 0, 512 do {init} end
    var q = p + 128
    {outer} i : {ty} = 0, {bound} do
        for j : {ty} = {j0}, {j0} + {cols} do
            out[([int](i)) * {cols} + [int](j) - {j0}] = {elem}
            {store}
        end
    end
    var total = 0.0
    for t = 0, {rows} * {cols} do total = total + out[t] * ((t % 5) + 1) end
    for t = 0, 512 do total = total + ({total}) * ((t % 7) + 1) end
    std.free(p)
    std.free(out)
    return total
end
"#
        )
    }
}

pub fn nest_strategy() -> impl Strategy<Value = Nest> {
    (
        (any::<u8>(), any::<u8>(), any::<u8>()),
        (any::<u8>(), any::<u8>(), -2i8..=2, any::<bool>()),
    )
        .prop_map(|((ty, shape, rows), (cols, stride, edge, staged))| Nest {
            ty,
            shape,
            rows,
            cols,
            stride,
            edge,
            staged,
        })
}

/// A loop whose body is a run of multiple assignments over integers,
/// pointers, a frame array and vectors — the forms the typechecker stages
/// through temporaries and `copyprop` coalesces back where no target is read
/// by a later right-hand side: a swap, a three-way rotate, `a, b = b, a + b`,
/// pointer bumps, an in-memory target, a target a later right-hand side
/// reads, and two vector swaps.
#[derive(Debug, Clone)]
pub struct Shuffle {
    /// The assignments, in order (each `% 8` picks a form of [`Shuffle::FORMS`]).
    pub steps: Vec<u8>,
    pub rows: u8,
}

impl Shuffle {
    pub const FORMS: [&str; 8] = [
        "a, b = b, a",
        "a, b, c = b, c, a",
        "a, b = b, a + b",
        "p, q = p + 1, q + 2",
        "m[1], a = a, m[1]",
        "a, b = c + 1, a",
        "u, v = v, u",
        "u, v = v, u + v",
    ];

    /// Rows the loop runs; what to pass `nest` as `n`.
    pub fn rows(&self) -> i64 {
        i64::from(self.rows % 3) + 2
    }

    /// Defines `nest(n : int) : double` (the name [`run_nest`] calls): row
    /// `i` starts from values derived from `i`, runs the assignments, and
    /// writes every variable to its row of `out`; the result weighs all of
    /// `out`.
    pub fn src(&self, parallel: bool) -> String {
        let outer = if parallel { "parallelfor" } else { "for" };
        let steps: String = self
            .steps
            .iter()
            .map(|s| format!("        {}\n", Self::FORMS[*s as usize % 8]))
            .collect();
        format!(
            r#"local std = terralib.includec("stdlib.h")
local vec = vector(double, 4)
terra nest(n : int) : double
    var src = [&double](std.malloc(64 * 8))
    var out = [&double](std.malloc(n * 16 * 8))
    for t = 0, 64 do src[t] = t * 0.5 + 1 end
    {outer} i = 0, n do
        var a : int64, b : int64, c : int64 = i + 1, 2 * i + 3, 5 - i
        var p, q = src + i, src + 2 * i + 1
        var m : int64[2]
        m[0], m[1] = 7 * i, i - 9
        var u, v = @[&vec](src + i), @[&vec](src + 8 + i)
{steps}        var row = out + i * 16
        row[0], row[1], row[2], row[3], row[4] = a, b, c, @p, @q
        row[5], row[6], row[7] = m[1], m[0], 0
        @[&vec](row + 8), @[&vec](row + 12) = u, v
    end
    var total = 0.0
    for t = 0, n * 16 do total = total + out[t] * ((t % 7) + 1) end
    std.free(src)
    std.free(out)
    return total
end
"#
        )
    }

    /// What `nest(n)` returns, computed here.
    pub fn expected(&self, n: i64) -> f64 {
        let src = |t: i64| t as f64 * 0.5 + 1.0;
        let mut total = 0.0;
        for i in 0..n {
            let (mut a, mut b, mut c) = (i + 1, 2 * i + 3, 5 - i);
            let (mut p, mut q) = (i, 2 * i + 1);
            let mut m = [7 * i, i - 9];
            let lanes = |at: i64| [0, 1, 2, 3].map(|l| src(at + l));
            let (mut u, mut v) = (lanes(i), lanes(8 + i));
            for s in &self.steps {
                match s % 8 {
                    0 => (a, b) = (b, a),
                    1 => (a, b, c) = (b, c, a),
                    2 => (a, b) = (b, a + b),
                    3 => (p, q) = (p + 1, q + 2),
                    4 => (m[1], a) = (a, m[1]),
                    5 => (a, b) = (c + 1, a),
                    6 => (u, v) = (v, u),
                    _ => (u, v) = (v, [0, 1, 2, 3].map(|l| u[l] + v[l])),
                }
            }
            let ints = [a, b, c].map(|x| x as f64);
            let row = [
                &ints[..],
                &[src(p), src(q), m[1] as f64, m[0] as f64, 0.0],
                &u,
                &v,
            ]
            .concat();
            for (t, x) in row.iter().enumerate() {
                total += x * (((i * 16 + t as i64) % 7) + 1) as f64;
            }
        }
        total
    }
}

pub fn shuffle_strategy() -> impl Strategy<Value = Shuffle> {
    (proptest::collection::vec(any::<u8>(), 1..8), any::<u8>())
        .prop_map(|(steps, rows)| Shuffle { steps, rows })
}

/// A loop whose body is a run of small calls — the shapes the inliner takes
/// or refuses: a wrapper of a wrapper, a method on a struct value that
/// mutates it and one on a pointer, a dispatch stub through a table of
/// function pointers, a wrapper around a method call, a callee that divides
/// by zero on one row, and a small recursive callee.
#[derive(Debug, Clone)]
pub struct Calls {
    /// The calls, in order (each `% 8` picks a form of [`Calls::FORMS`]).
    pub steps: Vec<u8>,
    pub rows: u8,
    /// The row on which `divide` divides by zero (none when past the last).
    pub trap_row: u8,
}

impl Calls {
    /// `{T}` is the trap row. Form 3 is the stub through the table; a
    /// `parallelfor` kernel may not call indirectly, so there it is `pick`,
    /// the same choice made by branches.
    pub const FORMS: [&str; 8] = [
        "x = wrap2(x)",
        "x = acc:add(x)",
        "x = p:add(x % 97)",
        "x = call(&table[0], (x % 3 + 3) % 3, x)",
        "do var d = divide(x, i - {T}) x = x + d end",
        "do var r = recur(x % 4) x = x + r end",
        "do var g = acc:get() x = (x + g % 7) % 100003 end",
        "x = both(p, x)",
    ];

    /// Rows the loop runs; what to pass `nest` as `n`.
    pub fn rows(&self) -> i64 {
        i64::from(self.rows % 3) + 2
    }

    fn trap_at(&self) -> i64 {
        i64::from(self.trap_row % 5)
    }

    /// Defines `nest(n : int) : double` (the name [`run_nest`] calls): row
    /// `i` starts `x`, a struct value `acc` and the heap struct `p` from `i`,
    /// runs the calls, and writes all three to its row of `out`; the result
    /// weighs all of `out`.
    pub fn src(&self, parallel: bool) -> String {
        let outer = if parallel { "parallelfor" } else { "for" };
        let steps: String = self
            .steps
            .iter()
            .map(|s| match s % 8 {
                3 if parallel => "x = pick((x % 3 + 3) % 3, x)".to_string(),
                s => Self::FORMS[s as usize].replace("{T}", &self.trap_at().to_string()),
            })
            .map(|s| format!("        {s}\n"))
            .collect();
        format!(
            r#"local std = terralib.includec("stdlib.h")
local Fn = {{int64}} -> int64
struct Acc {{ v : int64, k : int64 }}
terra Acc:add(x : int64) : int64
    self.v = (self.v + x) % 100003
    return self.v
end
terra Acc:get() : int64
    return self.v * 3 + self.k
end
terra twice(x : int64) : int64
    return (x * 2 + 1) % 100003
end
terra neg(x : int64) : int64
    return -x
end
terra sq(x : int64) : int64
    return (x % 1000) * (x % 1000)
end
terra wrap1(x : int64) : int64
    return twice(x)
end
terra wrap2(x : int64) : int64
    var y = wrap1(x)
    return y - 3
end
terra divide(x : int64, d : int64) : int64
    return x / d
end
terra recur(n : int64) : int64
    var r : int64 = 1
    if n > 0 then
        r = recur(n - 1) * 2
    end
    return r
end
terra call(t : &Fn, j : int64, x : int64) : int64
    return t[j](x)
end
terra pick(j : int64, x : int64) : int64
    var r : int64
    if j == 0 then r = twice(x) elseif j == 1 then r = neg(x) else r = sq(x) end
    return r
end
terra both(q : &Acc, x : int64) : int64
    var y = q:add(x % 89)
    return wrap1(y)
end
terra nest(n : int) : double
    var accs = [&Acc](std.malloc(n * sizeof(Acc)))
    var out = [&int64](std.malloc(n * 3 * 8))
    var table : Fn[3]
    table[0], table[1], table[2] = twice, neg, sq
    {outer} i = 0, n do
        var x : int64 = i + 1
        var acc : Acc
        acc.v, acc.k = i * 7, i - 2
        var p = accs + i
        p.v, p.k = 5 - i, 3 * i
{steps}        out[i * 3], out[i * 3 + 1], out[i * 3 + 2] = x, acc.v, p.v
    end
    var total = 0.0
    for t = 0, n * 3 do total = total + out[t] * ((t % 7) + 1) end
    std.free(accs)
    std.free(out)
    return total
end
"#
        )
    }

    /// What `nest(n)` returns, computed here; `None` when it divides by
    /// zero.
    pub fn expected(&self, n: i64) -> Option<f64> {
        let twice = |x: i64| (x * 2 + 1) % 100003;
        let table = |j: i64, x: i64| match j {
            0 => twice(x),
            1 => -x,
            _ => (x % 1000) * (x % 1000),
        };
        let add = |v: &mut i64, x: i64| {
            *v = (*v + x) % 100003;
            *v
        };
        let mut total = 0.0;
        for i in 0..n {
            let mut x = i + 1;
            let (mut acc_v, acc_k) = (i * 7, i - 2);
            let mut p_v = 5 - i;
            for s in &self.steps {
                match s % 8 {
                    0 => x = twice(x) - 3,
                    1 => x = add(&mut acc_v, x),
                    2 => x = add(&mut p_v, x % 97),
                    3 => x = table((x % 3 + 3) % 3, x),
                    4 => x += x.checked_div(i - self.trap_at())?,
                    5 => x += 1 << (x % 4).max(0),
                    6 => x = (x + (acc_v * 3 + acc_k) % 7) % 100003,
                    _ => x = twice(add(&mut p_v, x % 89)),
                }
            }
            for (t, v) in [x, acc_v, p_v].into_iter().enumerate() {
                total += v as f64 * (((i * 3 + t as i64) % 7) + 1) as f64;
            }
        }
        Some(total)
    }

    /// `run_nest`'s result for this program at `n`, as the model says: the
    /// bits, or a trap that reads as a division by zero.
    pub fn agrees(&self, n: i64, got: &Result<u64, String>) -> bool {
        match (self.expected(n), got) {
            (Some(v), Ok(bits)) => v.to_bits() == *bits,
            (None, Err(e)) => trap_kind(e).ends_with("integer division by zero"),
            _ => false,
        }
    }
}

pub fn calls_strategy() -> impl Strategy<Value = Calls> {
    (
        proptest::collection::vec(any::<u8>(), 1..8),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(steps, rows, trap_row)| Calls {
            steps,
            rows,
            trap_row,
        })
}

/// A row loop whose body runs a `for` with stage-time-constant bounds — the
/// loops `unroll` takes or refuses: 0, 1 or 3 trips, or one less than, as
/// many as or one more than the most the growth budget takes for this body;
/// a step of 1 to 4 that need not divide the range; an `int8`, `uint8` or
/// `int32` counter placed at the top of its type (the value that ends the
/// loop at most its maximum) or at the bottom (negative starts); locals
/// declared in the body; the counter in an address and in a value; and, on
/// request, a division by zero at the second trip.
#[derive(Debug, Clone)]
pub struct Taps {
    /// Counter type: `int8`, `uint8` or `int32`.
    pub ty: u8,
    /// `% 6` picks 0, 1, 3, or the budget's trip count − 1, + 0 or + 1.
    pub trips: u8,
    pub step: u8,
    /// How far the range sits from its end of the type, and how far the stop
    /// falls short of a whole number of steps.
    pub slack: u8,
    pub top: bool,
    pub rows: u8,
    pub trap: bool,
}

impl Taps {
    /// Rows the loop runs; what to pass `nest` as `n`.
    pub fn rows(&self) -> i64 {
        i64::from(self.rows % 3) + 2
    }

    /// The counter's type name and range.
    fn ty(&self) -> (&'static str, i64, i64) {
        [
            ("int8", -128, 127),
            ("uint8", 0, 255),
            ("int32", i64::from(i32::MIN), i64::from(i32::MAX)),
        ][self.ty as usize % 3]
    }

    fn step(&self) -> i64 {
        i64::from(self.step % 4) + 1
    }

    /// The tap loop's trip count.
    pub fn trips(&self) -> i64 {
        match self.trips % 6 {
            0 => 0,
            1 => 1,
            2 => 3,
            k => self.budget_trips() + i64::from(k) - 4,
        }
    }

    /// `(start, stop)` for `trips` trips.
    fn range(&self, trips: i64) -> (i64, i64) {
        let (_, min, max) = self.ty();
        let step = self.step();
        let (off, short) = (i64::from(self.slack % 4), i64::from(self.slack / 4) % step);
        let start = if self.top {
            max - trips * step - off
        } else {
            min + off
        };
        match trips {
            0 => (start, start),
            _ => (start, start + (trips - 1) * step + 1 + short),
        }
    }

    /// Defines `nest(n : int) : double` (the name [`run_nest`] calls): row
    /// `i` runs the tap loop, which adds into `acc` and stores into its row
    /// of `out`; the result weighs `out` and every row's `acc`.
    pub fn src(&self, parallel: bool) -> String {
        self.program(self.trips(), parallel)
    }

    fn program(&self, trips: i64, parallel: bool) -> String {
        let outer = if parallel { "parallelfor" } else { "for" };
        let (ty, _, max) = self.ty();
        let (start, stop) = self.range(trips);
        let step = self.step();
        // No constant of the body is an identity `fold` would drop (`x + 0`,
        // `x * 1`), so its size, and the budget's trip count, does not depend
        // on where the range sits. `off` is odd, so never 0: the element of
        // `t` is `2 * (t - start) + 1`.
        let off = 1 - 2 * start;
        let trap = if self.trap {
            // `t0 - t` is 0 at the second trip; `t0` on the left is no
            // identity whatever its value.
            let t0 = (start + step).min(max);
            format!("var q = 1000 / (({t0}) - [int](t))\n            acc = acc + q")
        } else {
            String::new()
        };
        format!(
            r#"local std = terralib.includec("stdlib.h")
terra nest(n : int) : double
    var src = [&double](std.malloc(512 * 8))
    var out = [&double](std.malloc(n * 256 * 8))
    var res = [&double](std.malloc(n * 8))
    for k = 0, 512 do src[k] = k * 0.5 + 1 end
    for k = 0, n * 256 do out[k] = 0 end
    {outer} i = 0, n do
        var acc = 0.0
        var row = out + i * 256
        for t : {ty} = ({start}), ({stop}), {step} do
            var w = [int](t) * 3 + i
            {trap}
            var v = src[i + [int64](t) * 2 + [int64]({off})]
            acc = acc + v * w + [int](t)
            row[ [int64](t) * 2 + [int64]({off})] = w
        end
        res[i] = acc
    end
    var total = 0.0
    for k = 0, n * 256 do total = total + out[k] * ((k % 7) + 1) end
    for k = 0, n do total = total + res[k] * ((k % 5) + 1) end
    std.free(src)
    std.free(out)
    std.free(res)
    return total
end
"#
        )
    }

    /// The most trips `unroll` takes for this body: `MAX_UNROLL_GROWTH /
    /// nodes + 1`, with the body's node count read off the refusal of a
    /// 40-trip loop over it (a counter type and a trap make the body
    /// differ; nothing else does).
    pub fn budget_trips(&self) -> i64 {
        thread_local! {
            static KNOWN: std::cell::RefCell<Vec<((u8, bool), i64)>> = Default::default();
        }
        let key = (self.ty % 3, self.trap);
        let known = KNOWN.with(|k| k.borrow().iter().find(|(k, _)| *k == key).copied());
        if let Some((_, b)) = known {
            return b;
        }
        let probe = Taps {
            trips: 0,
            step: 0,
            slack: 0,
            top: false,
            ..self.clone()
        };
        let mut t = Interp::new();
        t.exec(&probe.program(40, false)).unwrap();
        t.exec("nest:compile()").unwrap();
        let nodes: i64 = t
            .ctx
            .exec
            .trace
            .remarks()
            .iter()
            .find_map(|r| {
                let rest = r.message.strip_prefix("loop not unrolled: 40 trips of ")?;
                rest.split(' ').next()?.parse().ok()
            })
            .expect("the 40-trip tap loop is refused for its growth");
        let b = terra_ir::MAX_UNROLL_GROWTH as i64 / nodes + 1;
        KNOWN.with(|k| k.borrow_mut().push((key, b)));
        b
    }

    /// What `nest(n)` returns, computed here; `None` when it divides by
    /// zero.
    pub fn expected(&self, n: i64) -> Option<f64> {
        let trips = self.trips();
        let (start, _) = self.range(trips);
        let step = self.step();
        let mut out = vec![0.0f64; n as usize * 256];
        let mut res = vec![0.0f64; n as usize];
        for i in 0..n {
            let mut acc = 0.0f64;
            for k in 0..trips {
                let t = start + k * step;
                let w = (t as i32).wrapping_mul(3).wrapping_add(i as i32);
                if self.trap {
                    let d = (start + step - t) as i32;
                    acc += f64::from(1000i32.checked_div(d)?);
                }
                let at = 2 * (t - start) + 1;
                let v = (i + at) as f64 * 0.5 + 1.0;
                acc = acc + v * f64::from(w) + t as f64;
                out[(i * 256 + at) as usize] = f64::from(w);
            }
            res[i as usize] = acc;
        }
        let mut total = 0.0;
        for (k, x) in out.iter().enumerate() {
            total += x * ((k % 7) + 1) as f64;
        }
        for (k, x) in res.iter().enumerate() {
            total += x * ((k % 5) + 1) as f64;
        }
        Some(total)
    }

    /// `run_nest`'s result for this program at `n`, as the model says.
    pub fn agrees(&self, n: i64, got: &Result<u64, String>) -> bool {
        match (self.expected(n), got) {
            (Some(v), Ok(bits)) => v.to_bits() == *bits,
            (None, Err(e)) => trap_kind(e).ends_with("integer division by zero"),
            _ => false,
        }
    }
}

pub fn taps_strategy() -> impl Strategy<Value = Taps> {
    (
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        (any::<bool>(), any::<u8>(), any::<bool>()),
    )
        .prop_map(|((ty, trips, step, slack), (top, rows, trap))| Taps {
            ty,
            trips,
            step,
            slack,
            top,
            rows,
            trap,
        })
}

/// A GEMM whose size is a *staged constant*: `n` is spliced from Lua into
/// the loop bounds and `malloc` sizes, so at `-O2` every access is provably
/// in-bounds. Defines `gemm_static() : double`, which returns `C[0] = 2n`.
pub fn gemm_static_src(n: usize) -> String {
    format!(
        r#"local std = terralib.includec("stdlib.h")
local N = {n}
terra gemm_static() : double
  var A = [&double](std.malloc([N * N * 8]))
  var B = [&double](std.malloc([N * N * 8]))
  var C = [&double](std.malloc([N * N * 8]))
  for i = 0, [N * N] do
    A[i] = 1.0
    B[i] = 2.0
  end
  for i = 0, [N] do
    for j = 0, [N] do
      var sum = 0.0
      for k = 0, [N] do
        sum = sum + A[i * [N] + k] * B[k * [N] + j]
      end
      C[i * [N] + j] = sum
    end
  end
  var r = C[0]
  std.free([&int8](A))
  std.free([&int8](B))
  std.free([&int8](C))
  return r
end
"#
    )
}

// -- flight-recorder glue -----------------------------------------------------

/// One side of a differential: the configuration a program runs under.
#[derive(Debug, Clone, Copy)]
pub struct RecConfig {
    pub opt: OptLevel,
    pub elide_checks: bool,
    pub threads: usize,
    pub sanitize: bool,
}

impl RecConfig {
    /// A default configuration at the given opt level (checks elided,
    /// one thread, no sanitizer) — the common differential axis.
    pub fn at(opt: OptLevel) -> Self {
        RecConfig {
            opt,
            elide_checks: true,
            threads: 1,
            sanitize: false,
        }
    }

    fn opt_num(&self) -> u8 {
        match self.opt {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }

    pub fn meta(&self, window: Option<(u64, u64)>) -> RecMeta {
        RecMeta {
            // These runs re-execute from in-memory source, not a file.
            script: "<generated>".to_string(),
            opt: self.opt_num(),
            checkelim: self.elide_checks,
            sanitize: self.sanitize,
            // Tight cadence: generated programs are small, and small
            // windows keep the full-fidelity re-record cheap.
            cadence: 64,
            window,
        }
    }
}

/// What went wrong without where: a rendered trap up to its site. This is
/// the part that is comparable *across* configurations — the inliner moves
/// a faulting instruction into its caller, so the site's function and chain
/// depend on `-O`; runs of one configuration compare the full text.
pub fn trap_kind(e: impl ToString) -> String {
    let rendered = e.to_string();
    match rendered.split_once(" (in terra function '") {
        Some((kind, _site)) => kind.to_string(),
        None => rendered,
    }
}

/// Runs `return nest(n)` after the definitions in `src` under `cfg`: the
/// result's bits, or the rendered trap.
pub fn run_nest(src: &str, n: i64, cfg: &RecConfig) -> Result<u64, String> {
    let mut t = Interp::new();
    t.opt = cfg.opt;
    t.elide_checks = cfg.elide_checks;
    t.ctx.exec.set_threads(cfg.threads);
    t.ctx.exec.memory.set_sanitize(cfg.sanitize);
    t.exec(src).map_err(|e| e.to_string())?;
    match t.exec(&format!("return nest({n})")) {
        Ok(out) => match out.first() {
            Some(terra_eval::LuaValue::Number(v)) => Ok(v.to_bits()),
            other => Err(format!("non-number result: {other:?}")),
        },
        Err(e) => Err(format!("trap: {e}")),
    }
}

/// Executes `setup` (definitions) then records `call` under `cfg`. A trap
/// during `call` still yields a usable partial recording.
pub fn record_at(
    setup: &str,
    call: &str,
    cfg: &RecConfig,
    window: Option<(u64, u64)>,
) -> Result<Recording, String> {
    let mut t = Interp::new();
    t.opt = cfg.opt;
    t.elide_checks = cfg.elide_checks;
    t.ctx.exec.set_threads(cfg.threads);
    if cfg.sanitize {
        t.ctx.exec.memory.set_sanitize(true);
    }
    t.capture_output();
    t.exec(setup).map_err(|e| e.to_string())?;
    t.ctx.exec.set_record(cfg.meta(window));
    let _ = t.exec(call);
    t.ctx
        .exec
        .take_recording()
        .ok_or_else(|| "recorder was not running".to_string())
}

/// Records `setup` + `call` under both configurations, diffs the
/// recordings, and renders the first divergence. Returns a rendered report
/// either way (clean differentials render as "0 divergences" — useful when
/// the outputs differed through a channel the recorder does not cover).
pub fn divergence_report(setup: &str, call: &str, a: RecConfig, b: RecConfig) -> String {
    divergence_report_sides((setup, a), (setup, b), call)
}

/// [`divergence_report`] with a setup per side, for differentials whose two
/// sides are different *programs* (the configurations must still differ, so
/// the re-record callback can tell the sides apart by their metadata).
pub fn divergence_report_sides(a: (&str, RecConfig), b: (&str, RecConfig), call: &str) -> String {
    let ra = match record_at(a.0, call, &a.1, None) {
        Ok(r) => r,
        Err(e) => return format!("(flight recorder unavailable on side A: {e})"),
    };
    let rb = match record_at(b.0, call, &b.1, None) {
        Ok(r) => r,
        Err(e) => return format!("(flight recorder unavailable on side B: {e})"),
    };
    match replay::diff(&ra, &rb, |meta, window| {
        // The meta names the side to re-record (recordings are
        // thread-count invariant, so identical metas mean either side's
        // config reproduces the same effect stream).
        let (setup, cfg) = if *meta == a.1.meta(Some(window)) {
            &a
        } else {
            &b
        };
        record_at(setup, call, cfg, Some(window))
    }) {
        Ok(report) => report.render(),
        Err(e) => format!("(replay-diff failed: {e})"),
    }
}
