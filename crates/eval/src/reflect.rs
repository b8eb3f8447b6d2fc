//! Type reflection: the Lua-visible API of Terra entities.
//!
//! Terra types are Lua values, and the paper's §4.1 "Mechanisms for type
//! reflection" gives them an introspection API (`t:ispointer()`,
//! `t:isstruct()`, struct `entries`/`methods`/`metamethods` tables, pointer
//! `.type`, function `.parameters`/`.returns`). This module implements that
//! API, which the class-system and data-layout libraries are built on.

use crate::error::{EvalResult, LuaError};
use crate::interp::Interp;
use crate::value::{LuaValue, Table};
use std::cell::RefCell;
use std::rc::Rc;
use terra_ir::{ScalarTy, Ty, TypeRegistry};
use terra_syntax::{Name, Span};
use terra_vm::{decode_value, encode_arg, Value};

/// The array type `elem[n]`, or why there is none: the length must be an
/// integer from 0 to 2^64 - 1 and the size must fit in 64 bits (a struct not
/// yet finalized is checked when it is).
pub fn array_type(elem: &Ty, n: f64, reg: &TypeRegistry) -> Result<Ty, String> {
    let name = format!("{}[{n}]", elem.display(reg));
    if n.fract() != 0.0 || !(0.0..18446744073709551616.0).contains(&n) {
        return Err(format!(
            "{name}: an array length is an integer from 0 to 2^64 - 1"
        ));
    }
    let ty = Ty::Array(std::sync::Arc::new(elem.clone()), n as u64);
    match ty.checked_size(reg) {
        Some(_) => Ok(ty),
        None => Err(format!("{name}: its size does not fit in 64 bits")),
    }
}

/// The size of `ty` in bytes, once every struct its layout depends on is
/// finalized; an error naming the type when it does not fit in 64 bits.
pub fn size_of(interp: &mut Interp, ty: &Ty, span: Span) -> EvalResult<u64> {
    let mut structs = Vec::new();
    crate::interp::collect_struct_ids(ty, &mut structs);
    for sid in structs {
        interp.finalize_struct(sid, span)?;
    }
    let reg = &interp.ctx.types;
    ty.checked_size(reg).ok_or_else(|| {
        let name = ty.display(reg);
        LuaError::at(format!("{name}: its size does not fit in 64 bits"), span)
    })
}

/// Indexes a Terra entity with a key (`T.entries`, `fn.name`, `g.type` …).
pub fn index_terra_value(
    interp: &mut Interp,
    obj: &LuaValue,
    key: &LuaValue,
    span: Span,
) -> EvalResult<LuaValue> {
    // `T[n]` — array type construction (types are Lua values).
    if let (LuaValue::Type(t), LuaValue::Number(n)) = (obj, key) {
        let ty = array_type(t, *n, &interp.ctx.types);
        return ty.map(LuaValue::Type).map_err(|e| LuaError::at(e, span));
    }
    let LuaValue::Str(k) = key else {
        return Err(LuaError::at(
            format!("cannot index a {} with a non-string key", obj.type_name()),
            span,
        ));
    };
    match obj {
        LuaValue::Type(t) => index_type(interp, t, k, span),
        LuaValue::TerraFunc(id) => match &**k {
            "name" => Ok(LuaValue::Str(interp.ctx.funcs[id.0 as usize].name.clone())),
            _ => Ok(LuaValue::Nil),
        },
        LuaValue::Symbol(s) => match &**k {
            "displayname" => Ok(LuaValue::Str(s.name.clone())),
            "type" => Ok(s
                .ty
                .borrow()
                .clone()
                .map(LuaValue::Type)
                .unwrap_or(LuaValue::Nil)),
            _ => Ok(LuaValue::Nil),
        },
        LuaValue::Global(g) => match &**k {
            "type" => Ok(LuaValue::Type(interp.ctx.globals[g.0 as usize].ty.clone())),
            _ => Ok(LuaValue::Nil),
        },
        LuaValue::Quote(_) => Ok(LuaValue::Nil),
        _ => Err(LuaError::at(
            format!("attempt to index a {} value", obj.type_name()),
            span,
        )),
    }
}

fn index_type(interp: &mut Interp, t: &Ty, key: &str, span: Span) -> EvalResult<LuaValue> {
    match (t, key) {
        (Ty::Struct(sid), "entries") => Ok(LuaValue::Table(
            interp.ctx.struct_meta(*sid).entries.clone(),
        )),
        (Ty::Struct(sid), "methods") => Ok(LuaValue::Table(
            interp.ctx.struct_meta(*sid).methods.clone(),
        )),
        (Ty::Struct(sid), "metamethods") => Ok(LuaValue::Table(
            interp.ctx.struct_meta(*sid).metamethods.clone(),
        )),
        (Ty::Struct(sid), "name") => Ok(LuaValue::str(interp.ctx.types.name(*sid))),
        (Ty::Ptr(inner) | Ty::Array(inner, _), "type") => Ok(LuaValue::Type((**inner).clone())),
        (Ty::Array(_, n), "N") => Ok(LuaValue::Number(*n as f64)),
        (Ty::Vector(s, _), "type") => Ok(LuaValue::Type(Ty::Scalar(*s))),
        (Ty::Vector(_, n), "N") => Ok(LuaValue::Number(*n as f64)),
        (Ty::Func(ft), "parameters") => {
            let t = Rc::new(RefCell::new(Table::new()));
            for p in &ft.params {
                t.borrow_mut().push(LuaValue::Type(p.clone()));
            }
            crate::stdlib::attach_list_meta(interp, &t);
            Ok(LuaValue::Table(t))
        }
        (Ty::Func(ft), "returns") => Ok(LuaValue::Type(ft.ret.clone())),
        (_, "name") => Ok(LuaValue::str(format!("{}", t.display(&interp.ctx.types)))),
        _ => {
            let _ = span;
            Ok(LuaValue::Nil)
        }
    }
}

/// Assigns into a Terra type (replacing a struct's reflection tables
/// wholesale, e.g. `S.entries = newlist`).
pub fn setindex_terra_value(
    interp: &mut Interp,
    obj: &LuaValue,
    key: LuaValue,
    value: LuaValue,
    span: Span,
) -> EvalResult<()> {
    let (LuaValue::Type(Ty::Struct(sid)), LuaValue::Str(k)) = (obj, &key) else {
        return Err(LuaError::at(
            format!("cannot assign into a {} value", obj.type_name()),
            span,
        ));
    };
    let LuaValue::Table(t) = value else {
        return Err(LuaError::at("expected a table value", span));
    };
    let meta = &mut interp.ctx.structs[sid.0 as usize];
    match &**k {
        "entries" => meta.entries = t,
        "methods" => meta.methods = t,
        "metamethods" => meta.metamethods = t,
        other => {
            return Err(LuaError::at(
                format!("cannot assign field '{other}' of a struct type"),
                span,
            ))
        }
    }
    Ok(())
}

/// Calls a method on a Terra entity (`t:ispointer()`, `fn:gettype()`,
/// `g:get()` …).
pub fn method_call_terra_value(
    interp: &mut Interp,
    obj: LuaValue,
    name: &Name,
    args: Vec<LuaValue>,
    span: Span,
) -> EvalResult<LuaValue> {
    match (&obj, &**name) {
        (LuaValue::Type(t), m) => type_method(interp, t, m, args, span),
        (LuaValue::TerraFunc(id), "gettype") => {
            let sig = crate::typecheck::ensure_signature(interp, *id, span)?;
            Ok(LuaValue::Type(Ty::Func(std::sync::Arc::new(sig))))
        }
        (LuaValue::TerraFunc(id), "compile") => {
            crate::typecheck::ensure_compiled(interp, *id, span)?;
            Ok(LuaValue::Nil)
        }
        (LuaValue::TerraFunc(id), "getname") => {
            Ok(LuaValue::Str(interp.ctx.funcs[id.0 as usize].name.clone()))
        }
        (LuaValue::TerraFunc(id), "disas") => {
            crate::typecheck::ensure_compiled(interp, *id, span)?;
            // One instruction per line: its index, its source line (blank
            // when unknown), the instruction as `Instr`'s `Display` spells it.
            let listing = |f: &terra_vm::CompiledFunction| {
                let lines = f.code.iter().enumerate().map(|(pc, instr)| {
                    let line = match f.line_at(pc) {
                        0 => String::new(),
                        line => line.to_string(),
                    };
                    format!("{pc:4} {line:>5}  {instr}\n")
                });
                lines.collect::<String>()
            };
            let exec = &interp.ctx.exec;
            let f = exec.function(*id).expect("just compiled");
            let mut text = listing(f);
            // The kernel each `par.for` runs follows, under its name: the
            // loop's body is there, not in `f`.
            for instr in &f.code {
                if let terra_vm::Instr::ParFor { f: kernel, .. } = instr {
                    if let Some(k) = exec.function(*kernel) {
                        text += &format!("kernel '{}':\n{}", k.name, listing(k));
                    }
                }
            }
            Ok(LuaValue::str(text))
        }
        (LuaValue::Global(g), "get") => {
            let meta = interp.ctx.globals[g.0 as usize].clone();
            let v = read_global(interp, &meta)?;
            Ok(interp.ffi_to_lua(v, &meta.ty))
        }
        (LuaValue::Global(g), "set") => {
            let meta = interp.ctx.globals[g.0 as usize].clone();
            let v = args.into_iter().next().unwrap_or(LuaValue::Nil);
            write_global(interp, &meta, v, span)?;
            Ok(LuaValue::Nil)
        }
        (LuaValue::Global(g), "getaddress") => Ok(LuaValue::Number(
            interp.ctx.globals[g.0 as usize].addr as f64,
        )),
        (LuaValue::Symbol(s), "istype") => Ok(LuaValue::Bool(s.ty.borrow().is_some())),
        _ => Err(LuaError::at(
            format!("no method '{name}' on {} value", obj.type_name()),
            span,
        )),
    }
}

fn type_method(
    interp: &mut Interp,
    t: &Ty,
    m: &str,
    args: Vec<LuaValue>,
    span: Span,
) -> EvalResult<LuaValue> {
    let b = |v: bool| Ok(LuaValue::Bool(v));
    match m {
        "ispointer" => b(t.is_pointer()),
        "isstruct" => b(matches!(t, Ty::Struct(_))),
        "isarray" => b(matches!(t, Ty::Array(..))),
        "isvector" => b(matches!(t, Ty::Vector(..))),
        "isfunction" => b(matches!(t, Ty::Func(_))),
        "isarithmetic" => b(t.is_arithmetic()),
        "isintegral" | "isinteger" => b(t.is_integer()),
        "isfloat" => b(t.is_float()),
        "islogical" => b(matches!(t, Ty::Scalar(ScalarTy::Bool))),
        "isunit" => b(*t == Ty::Unit),
        "isprimitive" => b(matches!(t, Ty::Scalar(_))),
        "ispointertostruct" => b(matches!(t, Ty::Ptr(p) if matches!(**p, Ty::Struct(_)))),
        "ispointertofunction" => {
            b(matches!(t, Ty::Ptr(p) if matches!(**p, Ty::Func(_))) || matches!(t, Ty::Func(_)))
        }
        "sizeof" => Ok(LuaValue::Number(size_of(interp, t, span)? as f64)),
        "isstructorptrtostruct" => b(
            matches!(t, Ty::Struct(_)) || matches!(t, Ty::Ptr(p) if matches!(**p, Ty::Struct(_)))
        ),
        "getmethod" => {
            let LuaValue::Str(name) = args.into_iter().next().unwrap_or(LuaValue::Nil) else {
                return Err(LuaError::at("getmethod expects a string", span));
            };
            match t {
                Ty::Struct(sid) => Ok(interp.ctx.struct_meta(*sid).methods.borrow().get_str(&name)),
                _ => Ok(LuaValue::Nil),
            }
        }
        other => Err(LuaError::at(
            format!("no method '{other}' on terra type"),
            span,
        )),
    }
}

/// The size of a global Lua can read and write: one that holds a scalar or
/// a pointer. Memory has the value's low bytes, a register its canonical
/// (sign- or zero-extended) form, and the VM's `encode_arg`/`decode_value`
/// own the conversion between a register and a [`Value`].
fn scalar_size(interp: &Interp, ty: &Ty) -> Option<u64> {
    matches!(ty, Ty::Scalar(_) | Ty::Ptr(_)).then(|| ty.size(&interp.ctx.types))
}

fn read_global(interp: &mut Interp, meta: &crate::context::GlobalMeta) -> EvalResult<Value> {
    let Some(size) = scalar_size(interp, &meta.ty) else {
        return Err(LuaError::msg("cannot read aggregate global from Lua"));
    };
    let mem = &interp.ctx.exec.memory;
    let raw = match size {
        1 => mem.load_u8(meta.addr).map(u64::from),
        2 => mem.load_u16(meta.addr).map(u64::from),
        4 => mem.load_u32(meta.addr).map(u64::from),
        _ => mem.load_u64(meta.addr),
    }
    .map_err(to_lua_err)?;
    let bits = match &meta.ty {
        Ty::Scalar(s) => s.canonical(raw as i64) as u64,
        _ => raw,
    };
    Ok(decode_value(&meta.ty, [bits, 0, 0, 0]))
}

fn write_global(
    interp: &mut Interp,
    meta: &crate::context::GlobalMeta,
    v: LuaValue,
    span: Span,
) -> EvalResult<()> {
    let Some(size) = scalar_size(interp, &meta.ty) else {
        return Err(LuaError::at("unsupported global assignment", span));
    };
    let bits = encode_arg(interp.lua_to_ffi(v, &meta.ty, span)?, &meta.ty);
    let mem = &mut interp.ctx.exec.memory;
    match size {
        1 => mem.store_u8(meta.addr, bits as u8),
        2 => mem.store_u16(meta.addr, bits as u16),
        4 => mem.store_u32(meta.addr, bits as u32),
        _ => mem.store_u64(meta.addr, bits),
    }
    .map_err(to_lua_err)
}

fn to_lua_err(e: terra_vm::MemError) -> LuaError {
    LuaError::msg(e.to_string())
}
