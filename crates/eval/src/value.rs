//! Lua values, including the Terra entities that are first-class in the
//! meta-language.
//!
//! The paper's central design point is that Terra functions, types, quotes,
//! symbols, and globals are ordinary Lua values ([`LuaValue`]); staging is
//! just Lua evaluation producing these values and splicing them into Terra
//! code.

use crate::spec::SpecQuote;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use terra_ir::{FuncId, GlobalId, Ty};
use terra_syntax::{LuaFunctionBody, Name};

/// Shared handle to a mutable Lua table.
pub type TableRef = Rc<RefCell<Table>>;

/// A unique Terra symbol (the formal semantics' renamed variable `x̂`;
/// user-created via `symbol()`, the paper's gensym).
#[derive(Debug)]
pub struct SymbolData {
    /// Globally unique id.
    pub id: u64,
    /// Display name (the original identifier, for diagnostics).
    pub name: Name,
    /// Optional type carried by user-created symbols (`symbol(ty, name)`),
    /// used when a symbol declares a variable or parameter.
    pub ty: RefCell<Option<Ty>>,
    /// Whether some specialized code applies `&` to this symbol: every
    /// variable it declares then lives in memory. Set where the `&` node is
    /// built (`SpecExpr::addr_of`), which is before any function that could
    /// contain it is typechecked.
    pub addr_taken: Cell<bool>,
}

/// Shared handle to a symbol.
pub type SymbolRef = Rc<SymbolData>;

/// A Lua closure: function body plus captured environment.
pub struct LuaClosure {
    /// The parsed function.
    pub body: Rc<LuaFunctionBody>,
    /// Captured lexical environment.
    pub env: crate::env::Env,
    /// Name hint for diagnostics.
    pub name: RefCell<Name>,
}

impl fmt::Debug for LuaClosure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LuaClosure({})", self.name.borrow())
    }
}

/// Signature of a native (Rust-implemented) Lua function.
pub type NativeFn =
    fn(&mut crate::interp::Interp, Vec<LuaValue>) -> Result<Vec<LuaValue>, crate::error::LuaError>;

/// A named native function.
#[derive(Clone)]
pub struct Builtin {
    /// Name shown by `tostring` and error messages.
    pub name: &'static str,
    /// Implementation.
    pub f: NativeFn,
}

impl fmt::Debug for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "builtin: {}", self.name)
    }
}

/// A macro: a Lua function run during specialization with its Terra
/// arguments passed as quotes; it must return a quote to splice
/// (`terralib.macro` in the real system).
#[derive(Debug)]
pub struct MacroData {
    /// The Lua function to invoke.
    pub func: LuaValue,
}

/// A Terra-level intrinsic: callable from Terra code with runtime arguments,
/// typed specially by the typechecker. This is how the simulated libc
/// (`terralib.includec`) exposes C functions, including variadic `printf`
/// and the `prefetch` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// A simulated C library function / VM builtin.
    C(terra_ir::Builtin),
    /// `terralib.select(cond, a, b)` — branch-free conditional.
    Select,
    /// `terralib.min(a, b)` — works on scalars and vectors (lane-wise).
    Min,
    /// `terralib.max(a, b)` — works on scalars and vectors (lane-wise).
    Max,
}

/// A Lua value.
#[derive(Clone, Debug)]
pub enum LuaValue {
    /// `nil`
    Nil,
    /// Booleans.
    Bool(bool),
    /// All Lua numbers are doubles.
    Number(f64),
    /// Immutable interned-ish strings.
    Str(Name),
    /// Mutable shared tables.
    Table(TableRef),
    /// Lua closures.
    Function(Rc<LuaClosure>),
    /// Native functions.
    Native(Rc<Builtin>),
    /// A Terra function (possibly still only declared).
    TerraFunc(FuncId),
    /// A Terra type.
    Type(Ty),
    /// A specialized quotation.
    Quote(Rc<SpecQuote>),
    /// A Terra symbol.
    Symbol(SymbolRef),
    /// A Terra global variable.
    Global(GlobalId),
    /// A staging macro.
    Macro(Rc<MacroData>),
    /// A Terra intrinsic (simulated C function).
    Intrinsic(Intrinsic),
}

impl LuaValue {
    /// Lua truthiness: everything except `nil` and `false` is true.
    pub fn truthy(&self) -> bool {
        !matches!(self, LuaValue::Nil | LuaValue::Bool(false))
    }

    /// The `type()` of the value. Terra entities report the names the real
    /// system uses (`terrafunction`, `terratype`, `quote`, `symbol`).
    pub fn type_name(&self) -> &'static str {
        match self {
            LuaValue::Nil => "nil",
            LuaValue::Bool(_) => "boolean",
            LuaValue::Number(_) => "number",
            LuaValue::Str(_) => "string",
            LuaValue::Table(_) => "table",
            LuaValue::Function(_) | LuaValue::Native(_) => "function",
            LuaValue::TerraFunc(_) => "terrafunction",
            LuaValue::Type(_) => "terratype",
            LuaValue::Quote(_) => "quote",
            LuaValue::Symbol(_) => "symbol",
            LuaValue::Global(_) => "terraglobal",
            LuaValue::Macro(_) => "terramacro",
            LuaValue::Intrinsic(_) => "terrafunction",
        }
    }

    /// Raw equality (Lua `==` without metamethods).
    pub fn raw_eq(&self, other: &LuaValue) -> bool {
        match (self, other) {
            (LuaValue::Nil, LuaValue::Nil) => true,
            (LuaValue::Bool(a), LuaValue::Bool(b)) => a == b,
            (LuaValue::Number(a), LuaValue::Number(b)) => a == b,
            (LuaValue::Str(a), LuaValue::Str(b)) => a == b,
            (LuaValue::Table(a), LuaValue::Table(b)) => Rc::ptr_eq(a, b),
            (LuaValue::Function(a), LuaValue::Function(b)) => Rc::ptr_eq(a, b),
            (LuaValue::Native(a), LuaValue::Native(b)) => Rc::ptr_eq(a, b),
            (LuaValue::TerraFunc(a), LuaValue::TerraFunc(b)) => a == b,
            (LuaValue::Type(a), LuaValue::Type(b)) => a == b,
            (LuaValue::Quote(a), LuaValue::Quote(b)) => Rc::ptr_eq(a, b),
            (LuaValue::Symbol(a), LuaValue::Symbol(b)) => Rc::ptr_eq(a, b),
            (LuaValue::Global(a), LuaValue::Global(b)) => a == b,
            (LuaValue::Intrinsic(a), LuaValue::Intrinsic(b)) => a == b,
            _ => false,
        }
    }

    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> LuaValue {
        LuaValue::Str(Rc::from(s.as_ref()))
    }

    /// Creates a fresh empty table value.
    pub fn table() -> LuaValue {
        LuaValue::Table(Rc::new(RefCell::new(Table::new())))
    }

    /// The number inside, if this is a number or numeric string. A string
    /// converts as Lua 5.1's `luaO_str2d` reads it: a decimal number, or an
    /// integer in hexadecimal after `0x` or `0X`, either with an optional
    /// sign and surrounding spaces.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            LuaValue::Number(n) => Some(*n),
            LuaValue::Str(s) => {
                let s = s.trim();
                let (neg, unsigned) = match s.strip_prefix('-') {
                    Some(rest) => (true, rest),
                    None => (false, s.strip_prefix('+').unwrap_or(s)),
                };
                let Some(hex) = unsigned
                    .strip_prefix("0x")
                    .or_else(|| unsigned.strip_prefix("0X"))
                else {
                    return s.parse().ok();
                };
                let n = hex
                    .chars()
                    .try_fold(0.0, |n, c| Some(n * 16.0 + f64::from(c.to_digit(16)?)));
                n.filter(|_| !hex.is_empty())
                    .map(|n| if neg { -n } else { n })
            }
            _ => None,
        }
    }
}

/// A non-string key in a Lua table's hash part (string keys have a map of
/// their own). `NaN` keys are rejected at insert.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LuaKey {
    /// Number key (stored as bits; normalized so `-0.0 == 0.0`).
    Num(u64),
    /// Boolean key.
    Bool(bool),
    /// Identity key for reference values (tables, functions, symbols…).
    Ref(usize),
}

impl LuaKey {
    /// Converts a value to a key, if the value can be a key.
    pub fn from_value(v: &LuaValue) -> Option<LuaKey> {
        Some(match v {
            LuaValue::Number(n) => {
                if n.is_nan() {
                    return None;
                }
                LuaKey::Num((if *n == 0.0 { 0.0 } else { *n }).to_bits())
            }
            LuaValue::Bool(b) => LuaKey::Bool(*b),
            LuaValue::Table(t) => LuaKey::Ref(Rc::as_ptr(t) as usize),
            LuaValue::Function(f) => LuaKey::Ref(Rc::as_ptr(f) as usize),
            LuaValue::Native(f) => LuaKey::Ref(Rc::as_ptr(f) as usize),
            LuaValue::Symbol(s) => LuaKey::Ref(Rc::as_ptr(s) as usize),
            LuaValue::Quote(q) => LuaKey::Ref(Rc::as_ptr(q) as usize),
            LuaValue::TerraFunc(id) => LuaKey::Ref(0x1000_0000 + id.0 as usize),
            LuaValue::Global(id) => LuaKey::Ref(0x2000_0000 + id.0 as usize),
            LuaValue::Str(_)
            | LuaValue::Type(_)
            | LuaValue::Macro(_)
            | LuaValue::Intrinsic(_)
            | LuaValue::Nil => return None,
        })
    }
}

/// A Lua table: array part (1-based) + hash part + optional metatable.
#[derive(Debug, Default)]
pub struct Table {
    arr: Vec<LuaValue>,
    /// String keys — field names, method names, metamethods — looked up by
    /// `&str` without building a key.
    strs: HashMap<Name, LuaValue>,
    map: HashMap<LuaKey, LuaValue>,
    /// Keys that cannot live in `map` (currently Terra types) as association
    /// pairs.
    assoc: Vec<(LuaValue, LuaValue)>,
    /// The metatable, if set.
    pub meta: Option<TableRef>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Raw get (no metamethods).
    pub fn get(&self, key: &LuaValue) -> LuaValue {
        if let LuaValue::Number(n) = key {
            let i = *n as i64;
            if i as f64 == *n && i >= 1 && (i as usize) <= self.arr.len() {
                return self.arr[i as usize - 1].clone();
            }
        }
        if let LuaValue::Str(s) = key {
            return self.get_str(s);
        }
        if let Some(k) = LuaKey::from_value(key) {
            if let Some(v) = self.map.get(&k) {
                return v.clone();
            }
        }
        for (k, v) in &self.assoc {
            if k.raw_eq(key) {
                return v.clone();
            }
        }
        LuaValue::Nil
    }

    /// Convenience string-keyed get.
    pub fn get_str(&self, key: &str) -> LuaValue {
        self.strs.get(key).cloned().unwrap_or(LuaValue::Nil)
    }

    /// Raw set (no metamethods).
    pub fn set(&mut self, key: LuaValue, value: LuaValue) {
        if let LuaValue::Number(n) = key {
            let i = n as i64;
            if i as f64 == n && i >= 1 {
                let idx = i as usize;
                if idx <= self.arr.len() {
                    if matches!(value, LuaValue::Nil) && idx == self.arr.len() {
                        self.arr.pop();
                        // Trim trailing nils.
                        while matches!(self.arr.last(), Some(LuaValue::Nil)) {
                            self.arr.pop();
                        }
                    } else {
                        self.arr[idx - 1] = value;
                    }
                    return;
                }
                if idx == self.arr.len() + 1 {
                    if !matches!(value, LuaValue::Nil) {
                        self.arr.push(value);
                        // Absorb any following keys from the hash part.
                        loop {
                            let next = LuaKey::Num(((self.arr.len() + 1) as f64).to_bits());
                            match self.map.remove(&next) {
                                Some(v) => self.arr.push(v),
                                None => break,
                            }
                        }
                    }
                    return;
                }
            }
        }
        let key = match key {
            LuaValue::Str(s) => {
                if matches!(value, LuaValue::Nil) {
                    self.strs.remove(&s);
                } else {
                    self.strs.insert(s, value);
                }
                return;
            }
            other => other,
        };
        match LuaKey::from_value(&key) {
            Some(k) => {
                if matches!(value, LuaValue::Nil) {
                    self.map.remove(&k);
                } else {
                    self.map.insert(k, value);
                }
            }
            None => {
                if let Some(slot) = self.assoc.iter_mut().find(|(k, _)| k.raw_eq(&key)) {
                    slot.1 = value;
                } else if !matches!(value, LuaValue::Nil) {
                    self.assoc.push((key, value));
                }
            }
        }
    }

    /// Convenience string-keyed set.
    pub fn set_str(&mut self, key: &str, value: LuaValue) {
        self.set(LuaValue::str(key), value);
    }

    /// The border `#t` (length of the array part).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether both parts are empty.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty() && self.strs.is_empty() && self.map.is_empty() && self.assoc.is_empty()
    }

    /// Iterates the array part.
    pub fn iter_array(&self) -> impl Iterator<Item = &LuaValue> {
        self.arr.iter()
    }

    /// Appends to the array part.
    pub fn push(&mut self, v: LuaValue) {
        self.arr.push(v);
    }

    /// Inserts at a 1-based position, shifting later elements.
    pub fn insert_at(&mut self, pos: usize, v: LuaValue) {
        let idx = pos.saturating_sub(1).min(self.arr.len());
        self.arr.insert(idx, v);
    }

    /// Removes and returns the element at a 1-based position.
    pub fn remove_at(&mut self, pos: usize) -> LuaValue {
        if pos >= 1 && pos <= self.arr.len() {
            self.arr.remove(pos - 1)
        } else {
            LuaValue::Nil
        }
    }

    /// Snapshot of all key/value pairs (for `pairs`).
    pub fn entries(&self) -> Vec<(LuaValue, LuaValue)> {
        let mut out = Vec::with_capacity(self.arr.len() + self.strs.len() + self.map.len());
        for (i, v) in self.arr.iter().enumerate() {
            out.push((LuaValue::Number((i + 1) as f64), v.clone()));
        }
        for (k, v) in &self.strs {
            out.push((LuaValue::Str(k.clone()), v.clone()));
        }
        for (k, v) in &self.map {
            let key = match k {
                LuaKey::Num(bits) => LuaValue::Number(f64::from_bits(*bits)),
                LuaKey::Bool(b) => LuaValue::Bool(*b),
                LuaKey::Ref(_) => continue, // reference keys unreported in pairs snapshot
            };
            out.push((key, v.clone()));
        }
        for (k, v) in &self.assoc {
            out.push((k.clone(), v.clone()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!LuaValue::Nil.truthy());
        assert!(!LuaValue::Bool(false).truthy());
        assert!(LuaValue::Number(0.0).truthy());
        assert!(LuaValue::str("").truthy());
    }

    #[test]
    fn table_array_part() {
        let mut t = Table::new();
        t.set(LuaValue::Number(1.0), LuaValue::Number(10.0));
        t.set(LuaValue::Number(2.0), LuaValue::Number(20.0));
        assert_eq!(t.len(), 2);
        assert!(matches!(t.get(&LuaValue::Number(2.0)), LuaValue::Number(n) if n == 20.0));
        // Setting 4 before 3 goes to hash part, then is absorbed.
        t.set(LuaValue::Number(4.0), LuaValue::Number(40.0));
        assert_eq!(t.len(), 2);
        t.set(LuaValue::Number(3.0), LuaValue::Number(30.0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn table_hash_part_and_nil_removal() {
        let mut t = Table::new();
        t.set_str("x", LuaValue::Number(1.0));
        assert!(matches!(t.get_str("x"), LuaValue::Number(_)));
        t.set_str("x", LuaValue::Nil);
        assert!(matches!(t.get_str("x"), LuaValue::Nil));
    }

    #[test]
    fn type_values_as_keys() {
        // Terra types can be table keys via the assoc list (used by DSLs to
        // memoize parametric types).
        let mut t = Table::new();
        t.set(LuaValue::Type(Ty::INT), LuaValue::Number(1.0));
        t.set(LuaValue::Type(Ty::F64), LuaValue::Number(2.0));
        assert!(matches!(t.get(&LuaValue::Type(Ty::INT)), LuaValue::Number(n) if n == 1.0));
        t.set(LuaValue::Type(Ty::INT), LuaValue::Number(3.0));
        assert!(matches!(t.get(&LuaValue::Type(Ty::INT)), LuaValue::Number(n) if n == 3.0));
    }

    #[test]
    fn raw_equality() {
        let t1 = LuaValue::table();
        let t2 = t1.clone();
        let t3 = LuaValue::table();
        assert!(t1.raw_eq(&t2));
        assert!(!t1.raw_eq(&t3));
        assert!(LuaValue::Type(Ty::INT).raw_eq(&LuaValue::Type(Ty::INT)));
        assert!(!LuaValue::Number(1.0).raw_eq(&LuaValue::str("1")));
    }

    #[test]
    fn list_helpers() {
        let mut t = Table::new();
        t.push(LuaValue::Number(1.0));
        t.push(LuaValue::Number(3.0));
        t.insert_at(2, LuaValue::Number(2.0));
        assert_eq!(t.len(), 3);
        assert!(matches!(t.remove_at(1), LuaValue::Number(n) if n == 1.0));
        assert_eq!(t.len(), 2);
    }
}
