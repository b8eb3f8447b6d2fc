//! The Lua standard library subset plus `terralib`.
//!
//! Installs base functions (`print`, `pairs`, `pcall`, …), the `math` /
//! `string` / `table` / `os` / `io` libraries, the Terra primitive types as
//! globals (`int`, `float`, `&T` comes from syntax), `symbol` / `sizeof` /
//! `vector` / `global`, and `terralib` with `includec` (the simulated C
//! standard library), `newlist`, `macro`, `select`, `saveobj`, and
//! `currenttimeinseconds`.

use crate::error::{EvalResult, LuaError, Phase};
use crate::interp::Interp;
use crate::reflect::size_of;
use crate::value::{Builtin as NativeBuiltin, Intrinsic, LuaValue, MacroData, Table, TableRef};
use std::cell::RefCell;
use std::rc::Rc;
use terra_ir::{Builtin, Effect, Lib, ScalarTy, Ty};
use terra_syntax::Span;

fn native(name: &'static str, f: crate::value::NativeFn) -> LuaValue {
    LuaValue::Native(Rc::new(NativeBuiltin { name, f }))
}

fn new_table() -> TableRef {
    Rc::new(RefCell::new(Table::new()))
}

fn arg(args: &[LuaValue], i: usize) -> LuaValue {
    args.get(i).cloned().unwrap_or(LuaValue::Nil)
}

fn num_arg(args: &[LuaValue], i: usize, who: &str) -> EvalResult<f64> {
    arg(args, i).as_number().ok_or_else(|| {
        LuaError::msg(format!(
            "bad argument #{} to '{}': number expected",
            i + 1,
            who
        ))
    })
}

fn str_arg(args: &[LuaValue], i: usize, who: &str) -> EvalResult<Rc<str>> {
    match arg(args, i) {
        LuaValue::Str(s) => Ok(s),
        other => Err(LuaError::msg(format!(
            "bad argument #{} to '{}': string expected, got {}",
            i + 1,
            who,
            other.type_name()
        ))),
    }
}

/// `text` as an unsigned integer numeral in `base` (2 to 36), as `strtoul`
/// reads it for Lua 5.1's `tonumber(e, base)`: spaces around it, letters
/// caseless from 10 up, an optional `0x` in base 16; `None` for anything
/// else, a sign included (§5.1: "only unsigned integers are accepted").
fn unsigned_in_base(text: &str, base: u32) -> Option<f64> {
    let digits = text.trim();
    let digits = match base {
        16 => digits
            .strip_prefix("0x")
            .or_else(|| digits.strip_prefix("0X"))
            .unwrap_or(digits),
        _ => digits,
    };
    if digits.is_empty() {
        return None;
    }
    digits.chars().try_fold(0.0, |n, c| {
        Some(n * f64::from(base) + f64::from(c.to_digit(base)?))
    })
}

/// The byte offset a Lua string position `pos` (1-based, negative from the
/// end) denotes in a string of `len` bytes, clamped below at 0 (Lua 5.1's
/// `posrelat`).
fn relative_pos(pos: i64, len: usize) -> i64 {
    if pos < 0 {
        (pos + len as i64 + 1).max(0)
    } else {
        pos
    }
}

/// Installs the full standard environment into `interp`'s globals.
pub fn install(interp: &mut Interp) {
    install_base(interp);
    install_types(interp);
    install_math(interp);
    install_string(interp);
    install_table_lib(interp);
    install_os_io(interp);
    install_terralib(interp);
    install_perf(interp);
}

// ---------------------------------------------------------------------------
// base
// ---------------------------------------------------------------------------

fn install_base(interp: &mut Interp) {
    interp.set_global(
        "print",
        native("print", |it, args| {
            let mut line = String::new();
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    line.push('\t');
                }
                line.push_str(&it.tostring_value(a, Span::synthetic())?);
            }
            line.push('\n');
            it.write_output(&line);
            Ok(vec![])
        }),
    );
    interp.set_global(
        "type",
        native("type", |_, args| {
            Ok(vec![LuaValue::str(arg(&args, 0).type_name())])
        }),
    );
    interp.set_global(
        "tostring",
        native("tostring", |it, args| {
            let s = it.tostring_value(&arg(&args, 0), Span::synthetic())?;
            Ok(vec![LuaValue::str(s)])
        }),
    );
    interp.set_global(
        "tonumber",
        native("tonumber", |it, args| {
            let e = arg(&args, 0);
            let n = match arg(&args, 1) {
                LuaValue::Nil => e.as_number(),
                _ => match num_arg(&args, 1, "tonumber")? as i64 {
                    10 => e.as_number(),
                    base @ 2..=36 => {
                        let text = match e {
                            LuaValue::Str(s) => s,
                            LuaValue::Number(_) => it.tostring_value(&e, Span::synthetic())?.into(),
                            _ => str_arg(&args, 0, "tonumber")?,
                        };
                        unsigned_in_base(&text, base as u32)
                    }
                    _ => {
                        return Err(LuaError::msg(
                            "bad argument #2 to 'tonumber' (base out of range)",
                        ))
                    }
                },
            };
            Ok(vec![n.map_or(LuaValue::Nil, LuaValue::Number)])
        }),
    );
    interp.set_global(
        "error",
        native("error", |it, args| {
            let msg = it.tostring_value(&arg(&args, 0), Span::synthetic())?;
            Err(LuaError::msg(msg))
        }),
    );
    interp.set_global(
        "assert",
        native("assert", |it, args| {
            if arg(&args, 0).truthy() {
                Ok(args)
            } else {
                let msg = match arg(&args, 1) {
                    LuaValue::Nil => "assertion failed!".to_string(),
                    other => it.tostring_value(&other, Span::synthetic())?,
                };
                Err(LuaError::msg(msg))
            }
        }),
    );
    interp.set_global(
        "pcall",
        native("pcall", |it, mut args| {
            if args.is_empty() {
                return Err(LuaError::msg("bad argument #1 to 'pcall'"));
            }
            let f = args.remove(0);
            match it.call_value(f, args, Span::synthetic()) {
                Ok(mut rets) => {
                    let mut out = vec![LuaValue::Bool(true)];
                    out.append(&mut rets);
                    Ok(out)
                }
                Err(e) => Ok(vec![LuaValue::Bool(false), LuaValue::str(&e.message)]),
            }
        }),
    );
    interp.set_global(
        "select",
        native("select", |_, args| {
            let n = args.len() as i64;
            match arg(&args, 0) {
                LuaValue::Str(s) if &*s == "#" => Ok(vec![LuaValue::Number((n - 1) as f64)]),
                // As Lua 5.1's `luaB_select`: a negative index counts back
                // from the last value, and one before the first is an error.
                LuaValue::Number(i) => {
                    let first = match i as i64 {
                        i if i < 0 => n + i,
                        i => i,
                    };
                    if first < 1 {
                        return Err(LuaError::msg(
                            "bad argument #1 to 'select' (index out of range)",
                        ));
                    }
                    Ok(args.into_iter().skip(first as usize).collect())
                }
                _ => Err(LuaError::msg("bad argument #1 to 'select'")),
            }
        }),
    );
    interp.set_global(
        "rawget",
        native("rawget", |_, args| match arg(&args, 0) {
            LuaValue::Table(t) => Ok(vec![t.borrow().get(&arg(&args, 1))]),
            _ => Err(LuaError::msg("rawget: table expected")),
        }),
    );
    interp.set_global(
        "rawset",
        native("rawset", |_, args| match arg(&args, 0) {
            LuaValue::Table(t) => {
                let key = arg(&args, 1);
                if let Some(e) = key.key_error() {
                    return Err(LuaError::msg(e));
                }
                t.borrow_mut().set(key, arg(&args, 2));
                Ok(vec![arg(&args, 0)])
            }
            _ => Err(LuaError::msg("rawset: table expected")),
        }),
    );
    interp.set_global(
        "setmetatable",
        native("setmetatable", |_, args| {
            match (arg(&args, 0), arg(&args, 1)) {
                (LuaValue::Table(t), LuaValue::Table(m)) => {
                    t.borrow_mut().meta = Some(m);
                    Ok(vec![arg(&args, 0)])
                }
                (LuaValue::Table(t), LuaValue::Nil) => {
                    t.borrow_mut().meta = None;
                    Ok(vec![arg(&args, 0)])
                }
                _ => Err(LuaError::msg("setmetatable: table expected")),
            }
        }),
    );
    interp.set_global(
        "getmetatable",
        native("getmetatable", |_, args| match arg(&args, 0) {
            LuaValue::Table(t) => Ok(vec![t
                .borrow()
                .meta
                .clone()
                .map(LuaValue::Table)
                .unwrap_or(LuaValue::Nil)]),
            _ => Ok(vec![LuaValue::Nil]),
        }),
    );
    interp.set_global("next", native("next", lua_next));
    interp.set_global(
        "pairs",
        native("pairs", |it, args| {
            Ok(vec![it.global("next"), arg(&args, 0), LuaValue::Nil])
        }),
    );
    interp.set_global(
        "ipairs",
        native("ipairs", |_, args| {
            Ok(vec![
                native("inext", |_, args| {
                    let LuaValue::Table(t) = arg(&args, 0) else {
                        return Err(LuaError::msg("ipairs iterator: table expected"));
                    };
                    let i = arg(&args, 1).as_number().unwrap_or(0.0) + 1.0;
                    let v = t.borrow().get(&LuaValue::Number(i));
                    if matches!(v, LuaValue::Nil) {
                        Ok(vec![LuaValue::Nil])
                    } else {
                        Ok(vec![LuaValue::Number(i), v])
                    }
                }),
                arg(&args, 0),
                LuaValue::Number(0.0),
            ])
        }),
    );
    interp.set_global(
        "unpack",
        native("unpack", |_, args| {
            let LuaValue::Table(t) = arg(&args, 0) else {
                return Err(LuaError::msg("unpack: table expected"));
            };
            let t = t.borrow();
            let bound = |k: usize, default: usize| match arg(&args, k) {
                LuaValue::Nil => Ok(default as i64),
                _ => num_arg(&args, k, "unpack").map(|v| v as i64),
            };
            let (i, j) = (bound(1, 1)?, bound(2, t.len())?);
            if i > j {
                return Ok(Vec::new());
            }
            // Lua 5.1 returns at most as many values as its C stack holds
            // (`LUAI_MAXCSTACK`).
            if j as i128 - i as i128 >= 8000 {
                return Err(LuaError::msg("too many results to unpack"));
            }
            Ok((i..=j)
                .map(|k| t.get(&LuaValue::Number(k as f64)))
                .collect())
        }),
    );
    interp.set_global(
        "require",
        native("require", |it, args| {
            let name = str_arg(&args, 0, "require")?;
            if let Some(m) = it.modules.get(&*name) {
                return Ok(vec![m.clone()]);
            }
            if let Some(src) = it.module_sources.get(&*name).cloned() {
                let rets = it
                    .exec(&src)
                    .map_err(|e| e.traced(format!("module '{name}'")))?;
                let m = rets.into_iter().next().unwrap_or(LuaValue::Bool(true));
                it.modules.insert(name.to_string(), m.clone());
                return Ok(vec![m]);
            }
            Err(LuaError::msg(format!("module '{name}' not found")))
        }),
    );
}

fn lua_next(_: &mut Interp, args: Vec<LuaValue>) -> EvalResult<Vec<LuaValue>> {
    let LuaValue::Table(t) = arg(&args, 0) else {
        return Err(LuaError::msg("next: table expected"));
    };
    let entry = t.borrow().next(&arg(&args, 1))?;
    Ok(entry.map_or(vec![LuaValue::Nil], |(k, v)| vec![k, v]))
}

// ---------------------------------------------------------------------------
// primitive types / staging globals
// ---------------------------------------------------------------------------

fn install_types(interp: &mut Interp) {
    let prims: &[(&str, Ty)] = &[
        ("bool", Ty::BOOL),
        ("int", Ty::INT),
        ("int8", Ty::Scalar(ScalarTy::I8)),
        ("int16", Ty::Scalar(ScalarTy::I16)),
        ("int32", Ty::INT),
        ("int64", Ty::I64),
        ("uint", Ty::Scalar(ScalarTy::U32)),
        ("uint8", Ty::U8),
        ("uint16", Ty::Scalar(ScalarTy::U16)),
        ("uint32", Ty::Scalar(ScalarTy::U32)),
        ("uint64", Ty::U64),
        ("size_t", Ty::U64),
        ("intptr", Ty::I64),
        ("float", Ty::F32),
        ("double", Ty::F64),
        ("rawstring", Ty::rawstring()),
        ("opaque", Ty::U8),
    ];
    for (name, ty) in prims {
        interp.set_global(name, LuaValue::Type(ty.clone()));
    }

    interp.set_global(
        "symbol",
        native("symbol", |it, args| {
            let (mut ty, mut name) = (None, None);
            for a in args {
                match a {
                    LuaValue::Type(t) => ty = Some(t),
                    LuaValue::Str(s) => name = Some(s),
                    LuaValue::Nil => {}
                    other => {
                        return Err(LuaError::msg(format!(
                            "symbol: expected type or string, got {}",
                            other.type_name()
                        )))
                    }
                }
            }
            let sym = it
                .ctx
                .fresh_symbol(name.unwrap_or_else(|| Rc::from("sym")), ty);
            Ok(vec![LuaValue::Symbol(sym)])
        }),
    );
    interp.set_global(
        "sizeof",
        native("sizeof", |it, args| {
            let LuaValue::Type(t) = arg(&args, 0) else {
                return Err(LuaError::msg("sizeof: terra type expected"));
            };
            let size = size_of(it, &t, Span::synthetic())?;
            Ok(vec![LuaValue::Number(size as f64)])
        }),
    );
    interp.set_global(
        "vector",
        native("vector", |_, args| {
            let LuaValue::Type(t) = arg(&args, 0) else {
                return Err(LuaError::msg("vector: terra type expected"));
            };
            let n = num_arg(&args, 1, "vector")? as u64;
            let Ty::Scalar(s @ (ScalarTy::F32 | ScalarTy::F64)) = t else {
                return Err(LuaError::msg(
                    "vector: element type must be float or double",
                ));
            };
            if !(1..=16).contains(&n) || s.size() * n > 32 {
                return Err(LuaError::msg(
                    "vector: unsupported width (vectors are at most 32 bytes)",
                ));
            }
            Ok(vec![LuaValue::Type(Ty::Vector(s, n as u8))])
        }),
    );
    interp.set_global(
        "global",
        native("global", |it, args| {
            let LuaValue::Type(ty) = arg(&args, 0) else {
                return Err(LuaError::msg("global: terra type expected"));
            };
            // Finalizes the structs the type holds, and refuses one too large.
            size_of(it, &ty, Span::synthetic())?;
            let init_bytes: Option<Vec<u8>> = match arg(&args, 1) {
                LuaValue::Nil => None,
                // The initializer is stored as `g:set(v)` would store it.
                v @ (LuaValue::Number(_) | LuaValue::Bool(_)) => {
                    let Ty::Scalar(s) = &ty else {
                        return Err(LuaError::msg("global: cannot initialize this type"));
                    };
                    let v = it.lua_to_ffi(v, &ty, Span::synthetic())?;
                    let bits = terra_vm::encode_arg(v, &ty);
                    Some(bits.to_le_bytes()[..s.size() as usize].to_vec())
                }
                _ => return Err(LuaError::msg("global: unsupported initializer")),
            };
            let id = it.ctx.new_global("global", ty, init_bytes.as_deref())?;
            Ok(vec![LuaValue::Global(id)])
        }),
    );
    for &b in Builtin::ALL.iter().filter(|b| b.info().lib == Lib::Terra) {
        interp.set_global(b.name(), LuaValue::Intrinsic(Intrinsic::C(b)));
    }
}

// ---------------------------------------------------------------------------
// math / string / table / os / io
// ---------------------------------------------------------------------------

fn install_math(interp: &mut Interp) {
    let m = new_table();
    macro_rules! unary {
        ($name:literal, $f:expr) => {{
            let f: fn(f64) -> f64 = $f;
            let _ = f;
            m.borrow_mut().set_str(
                $name,
                native($name, |_, args| {
                    let f: fn(f64) -> f64 = $f;
                    Ok(vec![LuaValue::Number(f(num_arg(&args, 0, $name)?))])
                }),
            );
        }};
    }
    unary!("floor", |x| x.floor());
    unary!("ceil", |x| x.ceil());
    unary!("abs", |x| x.abs());
    unary!("sqrt", |x| x.sqrt());
    unary!("sin", |x| x.sin());
    unary!("cos", |x| x.cos());
    unary!("exp", |x| x.exp());
    unary!("log", |x| x.ln());
    {
        let mut mb = m.borrow_mut();
        mb.set_str("pi", LuaValue::Number(std::f64::consts::PI));
        mb.set_str("huge", LuaValue::Number(f64::INFINITY));
        mb.set_str(
            "pow",
            native("pow", |_, args| {
                Ok(vec![LuaValue::Number(
                    num_arg(&args, 0, "pow")?.powf(num_arg(&args, 1, "pow")?),
                )])
            }),
        );
        mb.set_str(
            "fmod",
            native("fmod", |_, args| {
                Ok(vec![LuaValue::Number(
                    num_arg(&args, 0, "fmod")? % num_arg(&args, 1, "fmod")?,
                )])
            }),
        );
        mb.set_str(
            "max",
            native("max", |_, args| {
                let mut best = f64::NEG_INFINITY;
                for (i, _) in args.iter().enumerate() {
                    best = best.max(num_arg(&args, i, "max")?);
                }
                Ok(vec![LuaValue::Number(best)])
            }),
        );
        mb.set_str(
            "min",
            native("min", |_, args| {
                let mut best = f64::INFINITY;
                for (i, _) in args.iter().enumerate() {
                    best = best.min(num_arg(&args, i, "min")?);
                }
                Ok(vec![LuaValue::Number(best)])
            }),
        );
        mb.set_str(
            "random",
            native("random", |it, args| {
                // xorshift over the program's deterministic RNG state.
                let s = &mut it.ctx.exec.rng_state;
                *s ^= *s << 13;
                *s ^= *s >> 7;
                *s ^= *s << 17;
                let unit = (*s >> 11) as f64 / (1u64 << 53) as f64;
                Ok(vec![match (arg(&args, 0), arg(&args, 1)) {
                    (LuaValue::Nil, _) => LuaValue::Number(unit),
                    (LuaValue::Number(m), LuaValue::Nil) => {
                        LuaValue::Number((unit * m).floor() + 1.0)
                    }
                    (LuaValue::Number(lo), LuaValue::Number(hi)) => {
                        LuaValue::Number(lo + (unit * (hi - lo + 1.0)).floor())
                    }
                    _ => return Err(LuaError::msg("math.random: bad arguments")),
                }])
            }),
        );
        mb.set_str(
            "randomseed",
            native("randomseed", |it, args| {
                it.ctx.exec.rng_state = (num_arg(&args, 0, "randomseed")? as u64) | 0x9E37_79B9;
                Ok(vec![])
            }),
        );
    }
    interp.set_global("math", LuaValue::Table(m));
}

fn install_string(interp: &mut Interp) {
    let s = new_table();
    {
        let mut sb = s.borrow_mut();
        sb.set_str(
            "format",
            native("format", |it, args| {
                // C's directives, rendered by the VM's `printf`; the
                // arguments are Lua values: numbers, and for `%s`/`%q`
                // anything, through `tostring`.
                let fmt = str_arg(&args, 0, "format")?;
                let mut next = 0;
                let out = terra_vm::format_printf(
                    &fmt,
                    &mut |conv, text| {
                        next += 1;
                        match conv {
                            b's' | b'q' => {
                                let v = arg(&args, next);
                                text.push_str(&it.tostring_value(&v, Span::synthetic())?);
                                Ok(0)
                            }
                            b'f' | b'e' | b'g' => Ok(num_arg(&args, next, "format")?.to_bits()),
                            b'u' => Ok(num_arg(&args, next, "format")? as u64),
                            _ => Ok(num_arg(&args, next, "format")? as i64 as u64),
                        }
                    },
                    &|what| LuaError::msg(format!("string.format: {what}")),
                )?;
                Ok(vec![LuaValue::str(out)])
            }),
        );
        sb.set_str(
            "rep",
            native("rep", |_, args| {
                let s = str_arg(&args, 0, "rep")?;
                let n = num_arg(&args, 1, "rep")? as usize;
                let n = if s.is_empty() { 0 } else { n };
                // The size is the program's to pick: a failed allocation is
                // a Lua error, as in Lua, not a host abort.
                let mut out = String::new();
                s.len()
                    .checked_mul(n)
                    .filter(|&len| out.try_reserve_exact(len).is_ok())
                    .ok_or_else(|| LuaError::msg("not enough memory"))?;
                out.extend(std::iter::repeat_n(&*s, n));
                Ok(vec![LuaValue::str(out)])
            }),
        );
        sb.set_str(
            "sub",
            native("sub", |_, args| {
                let s = str_arg(&args, 0, "sub")?;
                let len = s.len() as i64;
                let norm = |v: i64| -> i64 {
                    if v < 0 {
                        (len + v + 1).max(1)
                    } else {
                        v.max(1)
                    }
                };
                let i = norm(num_arg(&args, 1, "sub")? as i64);
                let j = match arg(&args, 2) {
                    LuaValue::Nil => len,
                    v => {
                        let raw = v.as_number().unwrap_or(-1.0) as i64;
                        if raw < 0 {
                            len + raw + 1
                        } else {
                            raw.min(len)
                        }
                    }
                };
                if i > j {
                    return Ok(vec![LuaValue::str("")]);
                }
                // Strings are UTF-8 text (DESIGN.md §2): a cut inside a
                // character has no string to return.
                match s.get((i - 1) as usize..j as usize) {
                    Some(sub) => Ok(vec![LuaValue::str(sub)]),
                    None => Err(LuaError::msg(format!(
                        "string.sub: bytes {i}..{j} cut a multi-byte character \
                         (strings are UTF-8 text)"
                    ))),
                }
            }),
        );
        sb.set_str(
            "len",
            native("len", |_, args| {
                Ok(vec![LuaValue::Number(
                    str_arg(&args, 0, "len")?.len() as f64
                )])
            }),
        );
        sb.set_str(
            "upper",
            native("upper", |_, args| {
                Ok(vec![LuaValue::str(
                    str_arg(&args, 0, "upper")?.to_uppercase(),
                )])
            }),
        );
        sb.set_str(
            "lower",
            native("lower", |_, args| {
                Ok(vec![LuaValue::str(
                    str_arg(&args, 0, "lower")?.to_lowercase(),
                )])
            }),
        );
        sb.set_str(
            "find",
            native("find", |_, args| {
                // Lua 5.1 §5.4: the search starts at `init` (negative counts
                // from the end); a pattern without any of the magic
                // characters `^$*+?.([%-`, or any pattern when `plain` is
                // true, is found as plain text. Pattern matching proper is
                // not implemented, and says so rather than finding nothing.
                let s = str_arg(&args, 0, "find")?;
                let pat = str_arg(&args, 1, "find")?;
                let init = match arg(&args, 2) {
                    LuaValue::Nil => 1,
                    _ => num_arg(&args, 2, "find")? as i64,
                };
                let init = (relative_pos(init, s.len()) - 1).clamp(0, s.len() as i64) as usize;
                let magic = |c: char| "^$*+?.([%-".contains(c);
                if !arg(&args, 3).truthy() && pat.contains(magic) {
                    return Err(LuaError::msg(format!(
                        "string.find: patterns are not supported ('{pat}'); \
                         pass plain = true to find it as text"
                    )));
                }
                let (hay, needle) = (&s.as_bytes()[init..], pat.as_bytes());
                let at = match needle.len() {
                    0 => Some(0),
                    n => hay.windows(n).position(|w| w == needle),
                };
                Ok(match at {
                    Some(pos) => vec![
                        LuaValue::Number((init + pos + 1) as f64),
                        LuaValue::Number((init + pos + needle.len()) as f64),
                    ],
                    None => vec![LuaValue::Nil],
                })
            }),
        );
        sb.set_str(
            "byte",
            native("byte", |_, args| {
                // One value per byte of `s[i..j]`, `j` defaulting to `i`.
                let s = str_arg(&args, 0, "byte")?;
                let pos = |k: usize, default: i64| -> EvalResult<i64> {
                    match arg(&args, k) {
                        LuaValue::Nil => Ok(default),
                        _ => Ok(relative_pos(num_arg(&args, k, "byte")? as i64, s.len())),
                    }
                };
                let i = pos(1, 1)?;
                let j = pos(2, i)?.min(s.len() as i64);
                let i = i.max(1);
                if i > j {
                    return Ok(vec![]);
                }
                Ok(s.as_bytes()[(i - 1) as usize..j as usize]
                    .iter()
                    .map(|&b| LuaValue::Number(f64::from(b)))
                    .collect())
            }),
        );
        sb.set_str(
            "char",
            native("char", |_, args| {
                let mut out = String::new();
                for i in 0..args.len() {
                    let c = num_arg(&args, i, "char")? as i64;
                    let byte = u8::try_from(c).map_err(|_| {
                        LuaError::msg(format!("bad argument #{} to 'char' (invalid value)", i + 1))
                    })?;
                    out.push(char::from(byte));
                }
                Ok(vec![LuaValue::str(out)])
            }),
        );
    }
    interp.set_global("string", LuaValue::Table(s));
}

/// `table.insert(t, [pos,] v)`, which is also a list's `:insert`.
fn table_insert(_: &mut Interp, args: Vec<LuaValue>) -> EvalResult<Vec<LuaValue>> {
    let LuaValue::Table(t) = arg(&args, 0) else {
        return Err(LuaError::msg("table.insert: table expected"));
    };
    if args.len() >= 3 {
        let pos = num_arg(&args, 1, "insert")? as usize;
        t.borrow_mut().insert_at(pos, arg(&args, 2));
    } else {
        t.borrow_mut().push(arg(&args, 1));
    }
    Ok(vec![])
}

/// Stable bottom-up merge sort under a comparator that may fail (it can be a
/// Lua function): at most n·⌈log₂ n⌉ calls of `less`, the first error ends it.
fn merge_sort(
    items: &mut Vec<LuaValue>,
    less: &mut dyn FnMut(&LuaValue, &LuaValue) -> EvalResult<bool>,
) -> EvalResult<()> {
    let n = items.len();
    let mut merged = Vec::with_capacity(n);
    let mut width = 1;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let (mid, hi) = ((lo + width).min(n), (lo + 2 * width).min(n));
            let (mut i, mut j) = (lo, mid);
            while i < mid && j < hi {
                // The right run's element goes first only when strictly less.
                if less(&items[j], &items[i])? {
                    merged.push(items[j].clone());
                    j += 1;
                } else {
                    merged.push(items[i].clone());
                    i += 1;
                }
            }
            merged.extend_from_slice(&items[i..mid]);
            merged.extend_from_slice(&items[j..hi]);
        }
        std::mem::swap(items, &mut merged);
        merged.clear();
        width *= 2;
    }
    Ok(())
}

fn install_table_lib(interp: &mut Interp) {
    let t = new_table();
    {
        let mut tb = t.borrow_mut();
        tb.set_str("insert", native("insert", table_insert));
        tb.set_str(
            "remove",
            native("remove", |_, args| {
                let LuaValue::Table(t) = arg(&args, 0) else {
                    return Err(LuaError::msg("table.remove: table expected"));
                };
                let len = t.borrow().len();
                let pos = match arg(&args, 1) {
                    LuaValue::Nil => len,
                    v => v.as_number().unwrap_or(0.0) as usize,
                };
                let removed = t.borrow_mut().remove_at(pos);
                Ok(vec![removed])
            }),
        );
        tb.set_str(
            "concat",
            native("concat", |it, args| {
                let LuaValue::Table(t) = arg(&args, 0) else {
                    return Err(LuaError::msg("table.concat: table expected"));
                };
                // Lua 5.1 §5.5: the strings and numbers `t[i..=j]` with
                // `sep` (a string or a number) between them; `i` is 1 and
                // `j` is `#t` unless given.
                let text = |it: &mut Interp, v: &LuaValue| match v {
                    LuaValue::Str(_) | LuaValue::Number(_) => {
                        it.tostring_value(v, Span::synthetic()).map(Some)
                    }
                    _ => Ok(None),
                };
                let sep = match arg(&args, 1) {
                    LuaValue::Nil => String::new(),
                    v => text(it, &v)?.ok_or_else(|| {
                        LuaError::msg(format!(
                            "bad argument #2 to 'concat' (string expected, got {})",
                            v.type_name()
                        ))
                    })?,
                };
                let len = t.borrow().len() as f64;
                let bound = |k: usize, default: f64| match arg(&args, k) {
                    LuaValue::Nil => Ok(default as i64),
                    _ => num_arg(&args, k, "concat").map(|n| n as i64),
                };
                let (first, last) = (bound(2, 1.0)?, bound(3, len)?);
                let mut parts = Vec::new();
                for i in first..=last {
                    let v = t.borrow().get(&LuaValue::Number(i as f64));
                    parts.push(text(it, &v)?.ok_or_else(|| {
                        LuaError::msg(format!(
                            "invalid value (at index {i}) in table for 'concat'"
                        ))
                    })?);
                }
                // The sizes are the program's to pick (ROADMAP 1(b)).
                let mut out = String::new();
                parts
                    .iter()
                    .try_fold(0usize, |n, p| n.checked_add(p.len()))
                    .zip(sep.len().checked_mul(parts.len().saturating_sub(1)))
                    .and_then(|(a, b)| a.checked_add(b))
                    .filter(|&n| out.try_reserve_exact(n).is_ok())
                    .ok_or_else(|| LuaError::msg("not enough memory"))?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&sep);
                    }
                    out.push_str(p);
                }
                Ok(vec![LuaValue::str(out)])
            }),
        );
        tb.set_str(
            "sort",
            native("sort", |it, args| {
                let LuaValue::Table(t) = arg(&args, 0) else {
                    return Err(LuaError::msg("table.sort: table expected"));
                };
                let cmp = arg(&args, 1);
                let mut items: Vec<LuaValue> = t.borrow().iter_array().cloned().collect();
                merge_sort(&mut items, &mut |a, b| {
                    Ok(match &cmp {
                        LuaValue::Nil => match (a, b) {
                            (LuaValue::Number(a), LuaValue::Number(b)) => a < b,
                            (LuaValue::Str(a), LuaValue::Str(b)) => a < b,
                            _ => false,
                        },
                        f => it
                            .call_value(f.clone(), vec![a.clone(), b.clone()], Span::synthetic())?
                            .first()
                            .is_some_and(LuaValue::truthy),
                    })
                })?;
                let mut tb = t.borrow_mut();
                for (i, v) in items.into_iter().enumerate() {
                    tb.set(LuaValue::Number((i + 1) as f64), v);
                }
                Ok(vec![])
            }),
        );
    }
    interp.set_global("table", LuaValue::Table(t));
}

fn install_os_io(interp: &mut Interp) {
    let os = new_table();
    os.borrow_mut().set_str(
        "clock",
        native("clock", |it, _| {
            Ok(vec![LuaValue::Number(
                it.ctx.exec.epoch.elapsed().as_secs_f64(),
            )])
        }),
    );
    os.borrow_mut().set_str(
        "time",
        native("time", |_, _| {
            Ok(vec![LuaValue::Number(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(0.0),
            )])
        }),
    );
    interp.set_global("os", LuaValue::Table(os));

    let io = new_table();
    io.borrow_mut().set_str(
        "write",
        native("write", |it, args| {
            let mut out = String::new();
            for a in &args {
                out.push_str(&it.tostring_value(a, Span::synthetic())?);
            }
            it.write_output(&out);
            Ok(vec![])
        }),
    );
    interp.set_global("io", LuaValue::Table(io));
}

// ---------------------------------------------------------------------------
// terralib
// ---------------------------------------------------------------------------

/// Attaches the list metatable (`:insert`, `:map`, `:insertall`) to a table,
/// making it a `terralib.newlist` list.
pub fn attach_list_meta(interp: &mut Interp, t: &TableRef) {
    if let LuaValue::Table(meta) = interp.global("__terra_list_meta") {
        t.borrow_mut().meta = Some(meta);
    }
}

fn install_list_meta(interp: &mut Interp) {
    let methods = new_table();
    {
        let mut mb = methods.borrow_mut();
        mb.set_str("insert", native("insert", table_insert));
        mb.set_str(
            "insertall",
            native("insertall", |_, args| {
                let (LuaValue::Table(t), LuaValue::Table(other)) = (arg(&args, 0), arg(&args, 1))
                else {
                    return Err(LuaError::msg("list:insertall: two lists expected"));
                };
                let items: Vec<LuaValue> = other.borrow().iter_array().cloned().collect();
                for v in items {
                    t.borrow_mut().push(v);
                }
                Ok(vec![])
            }),
        );
        mb.set_str(
            "map",
            native("map", |it, args| {
                let LuaValue::Table(t) = arg(&args, 0) else {
                    return Err(LuaError::msg("list:map: list expected"));
                };
                let f = arg(&args, 1);
                let items: Vec<LuaValue> = t.borrow().iter_array().cloned().collect();
                let out = new_table();
                for v in items {
                    let r = it.call_value(f.clone(), vec![v], Span::synthetic())?;
                    out.borrow_mut()
                        .push(r.into_iter().next().unwrap_or(LuaValue::Nil));
                }
                attach_list_meta(it, &out);
                Ok(vec![LuaValue::Table(out)])
            }),
        );
    }
    let meta = new_table();
    meta.borrow_mut()
        .set_str("__index", LuaValue::Table(methods));
    interp.set_global("__terra_list_meta", LuaValue::Table(meta));
}

/// Calls a Terra intrinsic directly from Lua (`std.malloc(16)` at the Lua
/// level) — a convenience the real system gets from LuaJIT's FFI.
pub fn call_intrinsic_from_lua(
    interp: &mut Interp,
    i: Intrinsic,
    args: Vec<LuaValue>,
    span: Span,
) -> EvalResult<Vec<LuaValue>> {
    let num = |k: usize| -> EvalResult<f64> {
        args.get(k)
            .and_then(|v| v.as_number())
            .ok_or_else(|| LuaError::at("intrinsic: number expected", span))
    };
    let one = |v: f64| Ok(vec![LuaValue::Number(v)]);
    match i {
        Intrinsic::Select => {
            let c = args.first().map(|v| v.truthy()).unwrap_or(false);
            Ok(vec![arg(&args, if c { 1 } else { 2 })])
        }
        Intrinsic::Min => {
            let (a, b) = (num(0)?, num(1)?);
            one(a.min(b))
        }
        Intrinsic::Max => {
            let (a, b) = (num(0)?, num(1)?);
            one(a.max(b))
        }
        Intrinsic::C(b) => match (b, b.info().effect) {
            (_, Effect::Pure(f)) => {
                let x = num(0)?;
                let binary = b.info().params.len() > 1;
                one(f(x, if binary { num(1)? } else { 0.0 }))
            }
            (Builtin::Malloc, _) => {
                let n = num(0)? as u64;
                one(interp.ctx.exec.malloc(n) as f64)
            }
            (Builtin::Free, _) => {
                interp
                    .ctx
                    .exec
                    .free(num(0)? as u64)
                    .map_err(|e| LuaError::at(e.to_string(), span))?;
                Ok(vec![])
            }
            (Builtin::Clock, _) => one(interp.ctx.exec.epoch.elapsed().as_secs_f64()),
            _ => Err(LuaError::at(
                format!(
                    "C function '{}' can only be called from Terra code",
                    b.name()
                ),
                span,
            )),
        },
    }
}

fn install_terralib(interp: &mut Interp) {
    install_list_meta(interp);
    let t = new_table();
    {
        let mut tb = t.borrow_mut();
        tb.set_str(
            "includec",
            native("includec", |_, args| {
                let _header = str_arg(&args, 0, "includec")?;
                // The simulated C library: one merged namespace regardless of
                // header, mirroring what Clang+includec would produce for the
                // functions this reproduction needs.
                let out = new_table();
                for &b in Builtin::ALL {
                    if b.info().lib == Lib::C {
                        for name in b.info().names {
                            out.borrow_mut()
                                .set_str(name, LuaValue::Intrinsic(Intrinsic::C(b)));
                        }
                    }
                }
                out.borrow_mut()
                    .set_str("CLOCKS_PER_SEC", LuaValue::Number(1.0));
                Ok(vec![LuaValue::Table(out)])
            }),
        );
        tb.set_str(
            "newlist",
            native("newlist", |it, args| {
                let out = new_table();
                if let LuaValue::Table(src) = arg(&args, 0) {
                    for v in src.borrow().iter_array() {
                        out.borrow_mut().push(v.clone());
                    }
                }
                attach_list_meta(it, &out);
                Ok(vec![LuaValue::Table(out)])
            }),
        );
        tb.set_str(
            "macro",
            native("macro", |_, args| {
                let f = arg(&args, 0);
                if !matches!(f, LuaValue::Function(_) | LuaValue::Native(_)) {
                    return Err(LuaError::msg("terralib.macro: function expected"));
                }
                Ok(vec![LuaValue::Macro(Rc::new(MacroData { func: f }))])
            }),
        );
        tb.set_str(
            "funcpointer",
            native("funcpointer", |it, args| {
                // terralib.funcpointer({T1, T2, ...}, Tret) -> function type
                let LuaValue::Table(params) = arg(&args, 0) else {
                    return Err(LuaError::msg(
                        "terralib.funcpointer: parameter list expected",
                    ));
                };
                let mut ptys = Vec::new();
                let items: Vec<LuaValue> = params.borrow().iter_array().cloned().collect();
                for p in items {
                    ptys.push(it.value_to_type(p, Span::synthetic())?);
                }
                let ret = match arg(&args, 1) {
                    LuaValue::Nil => Ty::Unit,
                    v => it.value_to_type(v, Span::synthetic())?,
                };
                Ok(vec![LuaValue::Type(Ty::Func(std::sync::Arc::new(
                    terra_ir::FuncTy { params: ptys, ret },
                )))])
            }),
        );
        tb.set_str("select", LuaValue::Intrinsic(Intrinsic::Select));
        tb.set_str("min", LuaValue::Intrinsic(Intrinsic::Min));
        tb.set_str("max", LuaValue::Intrinsic(Intrinsic::Max));
        tb.set_str(
            "sizeof",
            native("sizeof", |it, args| {
                let LuaValue::Type(t) = arg(&args, 0) else {
                    return Err(LuaError::msg("terralib.sizeof: terra type expected"));
                };
                let size = size_of(it, &t, Span::synthetic())?;
                Ok(vec![LuaValue::Number(size as f64)])
            }),
        );
        tb.set_str(
            "offsetof",
            native("offsetof", |it, args| {
                let LuaValue::Type(Ty::Struct(sid)) = arg(&args, 0) else {
                    return Err(LuaError::msg("terralib.offsetof: struct type expected"));
                };
                let field = str_arg(&args, 1, "offsetof")?;
                it.finalize_struct(sid, Span::synthetic())?;
                match it.ctx.types.field(sid, &field) {
                    Some((off, _)) => Ok(vec![LuaValue::Number(off as f64)]),
                    None => Err(LuaError::msg(format!("no field '{field}'"))),
                }
            }),
        );
        tb.set_str(
            "typeof",
            native("typeof", |it, args| match arg(&args, 0) {
                LuaValue::TerraFunc(id) => {
                    let sig = crate::typecheck::ensure_signature(it, id, Span::synthetic())?;
                    Ok(vec![LuaValue::Type(Ty::Func(std::sync::Arc::new(sig)))])
                }
                LuaValue::Global(g) => Ok(vec![LuaValue::Type(
                    it.ctx.globals[g.0 as usize].ty.clone(),
                )]),
                other => Err(LuaError::msg(format!(
                    "terralib.typeof: cannot type a {}",
                    other.type_name()
                ))),
            }),
        );
        tb.set_str(
            "declare",
            native("declare", |it, args| {
                let name = match arg(&args, 0) {
                    LuaValue::Str(s) => s,
                    _ => Rc::from("declared"),
                };
                let id = it.ctx.declare_func(&*name);
                Ok(vec![LuaValue::TerraFunc(id)])
            }),
        );
        // `terralib.isfunction(v)` and its kin: whether `v` is one kind of
        // Terra entity.
        macro_rules! is {
            ($name:literal, $kind:pat) => {
                let f: crate::value::NativeFn =
                    |_, args| Ok(vec![LuaValue::Bool(matches!(arg(&args, 0), $kind))]);
                tb.set_str($name, native($name, f));
            };
        }
        is!("isfunction", LuaValue::TerraFunc(_));
        is!("istype", LuaValue::Type(_));
        is!("isquote", LuaValue::Quote(_));
        is!("issymbol", LuaValue::Symbol(_));
        tb.set_str(
            "currenttimeinseconds",
            native("currenttimeinseconds", |it, _| {
                Ok(vec![LuaValue::Number(
                    it.ctx.exec.epoch.elapsed().as_secs_f64(),
                )])
            }),
        );
        tb.set_str(
            "require",
            native("trequire", |it, args| {
                let f = it.global("require");
                it.call_value(f, args, Span::synthetic())
            }),
        );
        tb.set_str(
            "saveobj",
            native("saveobj", |it, args| {
                let path = str_arg(&args, 0, "saveobj")?;
                let LuaValue::Table(exports) = arg(&args, 1) else {
                    return Err(LuaError::msg("terralib.saveobj: export table expected"));
                };
                // Serialize an object manifest: compiled function signatures
                // and bytecode listings (a stand-in for an ELF .o file).
                let mut out = String::from("terra-rs object file v1\n");
                let mut entry = exports.borrow().next(&LuaValue::Nil)?;
                while let Some((k, v)) = entry {
                    entry = exports.borrow().next(&k)?;
                    let (LuaValue::Str(name), LuaValue::TerraFunc(id)) = (k, v) else {
                        continue;
                    };
                    crate::typecheck::ensure_compiled(it, id, Span::synthetic())
                        .map_err(|e| e.phase(Phase::Link))?;
                    let f = it.ctx.exec.function(id).expect("just compiled").clone();
                    out.push_str(&format!(
                        "symbol {name} : {} ({} instructions, {} registers)\n",
                        Ty::Func(std::sync::Arc::new(f.ty.clone())),
                        f.code.len(),
                        f.nslots()
                    ));
                }
                std::fs::write(&*path, out).map_err(|e| LuaError::msg(format!("saveobj: {e}")))?;
                Ok(vec![])
            }),
        );
    }
    interp.set_global("terralib", LuaValue::Table(t));
}

// ---------------------------------------------------------------------------
// perf
// ---------------------------------------------------------------------------

/// The error `what` (a `perf` function that reads counters) raises while
/// nothing is being counted.
fn profiling(it: &Interp, what: &str) -> EvalResult<()> {
    if it.ctx.exec.trace.enabled() {
        return Ok(());
    }
    Err(LuaError::msg(format!(
        "{what}: profiling not enabled (call perf.enable() or run with --profile)"
    )))
}

/// A `perf` row: one telemetry record's fields under its JSONL keys, with
/// the values the JSONL holds (a ratio to its four decimals).
struct Row<'a>(&'a mut Table);

impl terra_vm::trace::Fields for Row<'_> {
    fn int(&mut self, key: &str, value: i64) {
        self.0.set_str(key, LuaValue::Number(value as f64));
    }

    fn ratio(&mut self, key: &str, value: f64) {
        let fixed = format!("{value:.4}").parse().unwrap_or(value);
        self.0.set_str(key, LuaValue::Number(fixed));
    }

    fn str(&mut self, key: &str, value: &str) {
        self.0.set_str(key, LuaValue::str(value));
    }

    fn ints(&mut self, key: &str, values: &[u64]) {
        let list = new_table();
        for v in values {
            list.borrow_mut().push(LuaValue::Number(*v as f64));
        }
        self.0.set_str(key, LuaValue::Table(list));
    }
}

/// The record `fields` writes, as a `perf` row.
fn row(fields: &dyn Fn(&mut dyn terra_vm::trace::Fields)) -> TableRef {
    let t = new_table();
    fields(&mut Row(&mut t.borrow_mut()));
    t
}

/// The `perf` table: a Lua-visible view of the VM's deterministic
/// instruction and memory counters, so scripts (notably autotuners) can rank
/// kernel variants without relying on wall-clock noise.
fn install_perf(interp: &mut Interp) {
    let natives: [(&'static str, crate::value::NativeFn); 7] = [
        ("perf.enable", |it, _args| {
            it.ctx.exec.set_profile(true);
            Ok(vec![])
        }),
        ("perf.disable", |it, _args| {
            it.ctx.exec.set_profile(false);
            Ok(vec![])
        }),
        ("perf.enabled", |it, _args| {
            Ok(vec![LuaValue::Bool(it.ctx.exec.trace.enabled())])
        }),
        ("perf.reset", |it, _args| {
            it.ctx.exec.reset_profile();
            Ok(vec![])
        }),
        ("perf.counters", |it, _args| {
            profiling(it, "perf.counters")?;
            // One array of rows per record type, in emission order.
            let out = new_table();
            it.ctx.exec.profile().records(|ty, fields| {
                let mut ob = out.borrow_mut();
                let rows = match ob.get_str(ty) {
                    LuaValue::Table(rows) => rows,
                    _ => {
                        let rows = new_table();
                        ob.set_str(ty, LuaValue::Table(rows.clone()));
                        rows
                    }
                };
                rows.borrow_mut().push(LuaValue::Table(row(fields)));
            });
            Ok(vec![LuaValue::Table(out)])
        }),
        ("perf.report", |it, _args| {
            profiling(it, "perf.report")?;
            Ok(vec![LuaValue::str(it.ctx.exec.profile().render_counters())])
        }),
        ("perf.remarks", |it, args| {
            // Optional filter: perf.remarks("inline"). Remarks are collected
            // unconditionally, so this works without perf.enable().
            let filter = str_arg(&args, 0, "perf.remarks").ok();
            let remarks = it.ctx.exec.trace.remarks().iter();
            let remarks = remarks.filter(|r| filter.as_deref().is_none_or(|p| p == r.pass));
            let profile = terra_vm::trace::Profile {
                remarks: remarks.cloned().collect(),
                ..Default::default()
            };
            let out = new_table();
            profile.records(|ty, fields| {
                if ty == "remark" {
                    out.borrow_mut().push(LuaValue::Table(row(fields)));
                }
            });
            Ok(vec![LuaValue::Table(out)])
        }),
    ];
    let t = new_table();
    for (name, f) in natives {
        t.borrow_mut()
            .set_str(&name["perf.".len()..], native(name, f));
    }
    interp.set_global("perf", LuaValue::Table(t));
}
