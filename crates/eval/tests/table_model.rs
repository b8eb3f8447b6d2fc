//! A Lua table against a model of what Lua 5.1 says it is: a list of
//! `(key, value)` entries in which a key is found by raw equality.
//!
//! Random sequences of sets, deletions, reads and `pairs` walks (some of
//! which clear keys as they visit them) run as a Lua program on one table.
//! The keys mix integers at the array border (so `t[#t+1]` moves keys out of
//! the hash part), `0` and `-0` (one key), strings, booleans, a table made
//! and dropped by the statement that uses it, a table kept in a local, a
//! Terra type (by value: `int[3]` made anew each time is the same key), a
//! symbol, a quote and a macro. Every read must match the model, every walk must
//! visit each live key exactly once, and two fresh interpreters running the
//! same program must walk in the same order.

use proptest::prelude::*;
use terra_eval::{Interp, LuaValue};

/// A key, as the program writes it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Key {
    /// An integer from 1 to 6: the array part and its border.
    Int(u8),
    /// `0`.
    Zero,
    /// `-0`, the same key as `0`.
    NegZero,
    /// `1.5`.
    Half,
    /// A one-letter string.
    Str(char),
    /// A boolean.
    Bool(bool),
    /// `{}`: a table no one else holds, so a key no later statement names.
    Fresh,
    /// The table `K`, kept in a local.
    Reused,
    /// The Terra type `int`.
    Type,
    /// The Terra type `int[3]`, built anew each time it is written.
    ArrayType,
    /// The symbol `S`.
    Symbol,
    /// The quote `Q`.
    Quote,
    /// The macro `M`.
    Macro,
}

impl Key {
    fn lua(self) -> String {
        match self {
            Key::Int(i) => i.to_string(),
            Key::Zero => "0".into(),
            Key::NegZero => "-0".into(),
            Key::Half => "1.5".into(),
            Key::Str(c) => format!("'{c}'"),
            Key::Bool(b) => b.to_string(),
            Key::Fresh => "{}".into(),
            Key::Reused => "K".into(),
            Key::Type => "int".into(),
            Key::ArrayType => "int[3]".into(),
            Key::Symbol => "S".into(),
            Key::Quote => "Q".into(),
            Key::Macro => "M".into(),
        }
    }

    /// What the program's `name(k)` prints for the key.
    fn name(self) -> String {
        match self {
            Key::Zero | Key::NegZero => "0".into(),
            Key::Str(c) => format!("\"{c}\""),
            Key::Fresh => "fresh".into(),
            Key::Reused => "K".into(),
            Key::Symbol => "sym".into(),
            Key::Quote => "quote".into(),
            Key::Macro => "macro".into(),
            other => other.lua(),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Set(Key),
    SetNil(Key),
    Get(Key),
    /// A `pairs` walk; with `true`, it clears each key whose value is even
    /// as it visits it.
    Walk(bool),
}

/// Every key; the array border's integers are listed twice, so they come up
/// most.
const KEYS: &[Key] = &[
    Key::Int(1),
    Key::Int(2),
    Key::Int(3),
    Key::Int(4),
    Key::Int(5),
    Key::Int(6),
    Key::Int(1),
    Key::Int(2),
    Key::Int(3),
    Key::Int(4),
    Key::Zero,
    Key::NegZero,
    Key::Half,
    Key::Str('a'),
    Key::Str('b'),
    Key::Str('c'),
    Key::Bool(true),
    Key::Bool(false),
    Key::Fresh,
    Key::Fresh,
    Key::Reused,
    Key::Type,
    Key::ArrayType,
    Key::Symbol,
    Key::Quote,
    Key::Macro,
];

/// Sets are most frequent, then reads, deletions and walks.
fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0..KEYS.len()).prop_map(|(kind, k)| match kind {
        0..=5 => Op::Set(KEYS[k]),
        6..=7 => Op::SetNil(KEYS[k]),
        8..=10 => Op::Get(KEYS[k]),
        _ => Op::Walk(k % 2 == 0),
    })
}

/// The program: one output line per read (`tostring` of the value) and per
/// walk (`walk` and the visited `name=value` pairs in visit order). The
/// value a set stores is the set's position in the sequence.
fn program(ops: &[Op]) -> String {
    let mut src = String::from(
        "local K, S, Q, M = {}, symbol(int), `1, terralib.macro(function() end)\n\
         local function name(k)\n\
           if type(k) == 'string' then return '\"' .. k .. '\"' end\n\
           if k == K then return 'K' end\n\
           if k == S then return 'sym' end\n\
           if k == Q then return 'quote' end\n\
           if k == M then return 'macro' end\n\
           if type(k) == 'table' then return 'fresh' end\n\
           return tostring(k)\n\
         end\n\
         local t, out = {}, {}\n",
    );
    for (i, op) in ops.iter().enumerate() {
        src += &match op {
            Op::Set(k) => format!("t[{}] = {}\n", k.lua(), i + 1),
            Op::SetNil(k) => format!("t[{}] = nil\n", k.lua()),
            Op::Get(k) => format!("out[#out + 1] = tostring(t[{}])\n", k.lua()),
            Op::Walk(clear) => format!(
                "do local w = {{'walk'}}\n\
                 for k, v in pairs(t) do\n\
                   w[#w + 1] = name(k) .. '=' .. v\n\
                   if {clear} and v % 2 == 0 then t[k] = nil end\n\
                 end\n\
                 out[#out + 1] = table.concat(w, ' ') end\n"
            ),
        };
    }
    src + "return table.concat(out, '\\n')\n"
}

/// What the model says each output line holds: a read's value, and a walk's
/// visits sorted (the model has no order to offer).
fn model(ops: &[Op]) -> Vec<String> {
    let same = |a: Key, b: Key| match (a, b) {
        (Key::Fresh, _) | (_, Key::Fresh) => false,
        (Key::Zero | Key::NegZero, Key::Zero | Key::NegZero) => true,
        _ => a == b,
    };
    let mut entries: Vec<(Key, usize)> = Vec::new();
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Set(k) => match entries.iter_mut().find(|(e, _)| same(*e, k)) {
                Some(entry) => entry.1 = i + 1,
                None => entries.push((k, i + 1)),
            },
            Op::SetNil(k) => entries.retain(|(e, _)| !same(*e, k)),
            Op::Get(k) => out.push(match entries.iter().find(|(e, _)| same(*e, k)) {
                Some((_, v)) => v.to_string(),
                None => "nil".into(),
            }),
            Op::Walk(clear) => {
                let mut visits: Vec<String> = entries
                    .iter()
                    .map(|(k, v)| format!("{}={v}", k.name()))
                    .collect();
                visits.sort();
                out.push(visits.join(" "));
                if clear {
                    entries.retain(|(_, v)| v % 2 == 1);
                }
            }
        }
    }
    out
}

fn run(src: &str) -> String {
    match Interp::new().exec(src) {
        Ok(out) => match out.first() {
            Some(LuaValue::Str(s)) => s.to_string(),
            other => panic!("{src}\nreturned {other:?}"),
        },
        Err(e) => panic!("{src}\nfailed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_table_behaves_as_its_model(ops in proptest::collection::vec(op(), 1..40)) {
        let src = program(&ops);
        let got = run(&src);
        prop_assert_eq!(&run(&src), &got, "two runs walked differently:\n{}", src);
        // A walk's visits sorted, as the model lists them.
        let got: Vec<String> = got
            .lines()
            .map(|line| match line.strip_prefix("walk") {
                Some(visits) => {
                    let mut visits: Vec<&str> = visits.split_whitespace().collect();
                    visits.sort_unstable();
                    visits.join(" ")
                }
                None => line.to_string(),
            })
            .collect();
        let want = model(&ops);
        prop_assert_eq!(&got, &want, "got {:?}, the model says {:?}:\n{}", got, want, src);
    }
}
