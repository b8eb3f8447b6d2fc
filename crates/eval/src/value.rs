//! Lua values, including the Terra entities that are first-class in the
//! meta-language.
//!
//! The paper's central design point is that Terra functions, types, quotes,
//! symbols, and globals are ordinary Lua values ([`LuaValue`]); staging is
//! just Lua evaluation producing these values and splicing them into Terra
//! code.

use crate::error::LuaError;
use crate::spec::SpecQuote;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Clone, Debug, Default)]
pub enum LuaValue {
    /// `nil`
    #[default]
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

    /// Raw equality (Lua `==` without metamethods): the one statement of
    /// when two values are the same table key. A reference is equal only to
    /// itself, a Terra function or global to the same id, a type or
    /// intrinsic to an equal one; `0 == -0`, and NaN equals nothing.
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
            (LuaValue::Macro(a), LuaValue::Macro(b)) => Rc::ptr_eq(a, b),
            (LuaValue::Intrinsic(a), LuaValue::Intrinsic(b)) => a == b,
            _ => false,
        }
    }

    /// Why the value cannot be a table key, if it cannot (Lua 5.1's
    /// `luaH_set`). Reading such a key is allowed and finds nil.
    pub fn key_error(&self) -> Option<&'static str> {
        match self {
            LuaValue::Nil => Some("table index is nil"),
            LuaValue::Number(n) if n.is_nan() => Some("table index is NaN"),
            _ => None,
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

/// `==` is [`LuaValue::raw_eq`], so a table's key index uses Lua's identity.
/// It is an equivalence on every value but NaN, which is never a key.
impl PartialEq for LuaValue {
    fn eq(&self, other: &LuaValue) -> bool {
        self.raw_eq(other)
    }
}

impl Eq for LuaValue {}

/// Hashes what [`LuaValue::raw_eq`] compares: a reference by its pointer,
/// anything else by value (`-0` as `0`) or id.
impl Hash for LuaValue {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            LuaValue::Nil => {}
            LuaValue::Bool(b) => b.hash(h),
            LuaValue::Number(n) => (if *n == 0.0 { 0.0 } else { *n }).to_bits().hash(h),
            LuaValue::Str(s) => s.hash(h),
            LuaValue::Table(t) => Rc::as_ptr(t).hash(h),
            LuaValue::Function(f) => Rc::as_ptr(f).hash(h),
            LuaValue::Native(f) => Rc::as_ptr(f).hash(h),
            LuaValue::TerraFunc(FuncId(id)) | LuaValue::Global(GlobalId(id)) => id.hash(h),
            LuaValue::Type(t) => t.hash(h),
            LuaValue::Quote(q) => Rc::as_ptr(q).hash(h),
            LuaValue::Symbol(s) => Rc::as_ptr(s).hash(h),
            LuaValue::Macro(m) => Rc::as_ptr(m).hash(h),
            LuaValue::Intrinsic(i) => i.hash(h),
        }
    }
}

/// A Lua table: an array part (keys `1..=#t`), a hash part, and an optional
/// metatable. The hash part lists `(key, value)` entries in insertion order,
/// and an entry keeps its key alive. Assigning nil leaves a tombstone, so
/// `next` can continue from a cleared key; tombstones go when a new key
/// finds the list full and they are half of it (DESIGN.md §6i).
#[derive(Debug, Default)]
pub struct Table {
    arr: Vec<LuaValue>,
    hash: Vec<(LuaValue, LuaValue)>,
    /// Position in `hash` of each string key, looked up by `&str` without
    /// building a key.
    strs: HashMap<Name, usize>,
    /// Position in `hash` of every other key.
    others: HashMap<LuaValue, usize>,
    /// The metatable, if set.
    pub meta: Option<TableRef>,
}

/// The array index `key` names, if it is an integer `>= 1`.
fn array_slot(key: &LuaValue) -> Option<usize> {
    let LuaValue::Number(n) = *key else {
        return None;
    };
    let i = n as usize;
    (i >= 1 && i as f64 == n).then_some(i)
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Position of `key` in the hash part, tombstones included.
    fn find(&self, key: &LuaValue) -> Option<usize> {
        match key {
            LuaValue::Str(s) => self.strs.get(&**s),
            _ => self.others.get(key),
        }
        .copied()
    }

    /// Raw get (no metamethods).
    pub fn get(&self, key: &LuaValue) -> LuaValue {
        match array_slot(key) {
            Some(i) if i <= self.arr.len() => self.arr[i - 1].clone(),
            _ => self
                .find(key)
                .map_or(LuaValue::Nil, |p| self.hash[p].1.clone()),
        }
    }

    /// Convenience string-keyed get.
    pub fn get_str(&self, key: &str) -> LuaValue {
        self.strs
            .get(key)
            .map_or(LuaValue::Nil, |&p| self.hash[p].1.clone())
    }

    /// Raw set (no metamethods). A key with a [`LuaValue::key_error`] is
    /// the caller's to refuse; it is ignored here.
    pub fn set(&mut self, key: LuaValue, value: LuaValue) {
        let nil = matches!(value, LuaValue::Nil);
        if let Some(i) = array_slot(&key) {
            if i <= self.arr.len() {
                if nil && i == self.arr.len() {
                    self.arr.pop();
                    // Trim trailing nils.
                    while matches!(self.arr.last(), Some(LuaValue::Nil)) {
                        self.arr.pop();
                    }
                } else {
                    self.arr[i - 1] = value;
                }
                return;
            }
            if i == self.arr.len() + 1 && !nil {
                self.push(value);
                return;
            }
        }
        match self.find(&key) {
            Some(p) => self.hash[p].1 = value,
            None if nil || key.key_error().is_some() => {}
            None => {
                // A full list drops its tombstones when they are half of it,
                // and is indexed anew.
                let full = self.hash.len() == self.hash.capacity();
                let dead = self.hash.iter().filter(|e| matches!(e.1, LuaValue::Nil));
                if full && dead.count() * 2 >= self.hash.len() {
                    self.hash.retain(|(_, v)| !matches!(v, LuaValue::Nil));
                    self.strs.clear();
                    self.others.clear();
                    (0..self.hash.len()).for_each(|p| self.index(p));
                }
                self.hash.push((key, value));
                self.index(self.hash.len() - 1);
            }
        }
    }

    /// Indexes the key of the hash part's entry `p`.
    fn index(&mut self, p: usize) {
        match &self.hash[p].0 {
            LuaValue::Str(s) => self.strs.insert(s.clone(), p),
            k => self.others.insert(k.clone(), p),
        };
    }

    /// Runs when the array part has grown to `#t`: the hash part gives up
    /// the key `#t` (a tombstone, if it holds it: it never holds `#t+1`
    /// live), then moves `#t+1, #t+2, …` across while it holds them. So
    /// every integer key the hash part indexes is above `#t`.
    fn absorb(&mut self) {
        while !self.others.is_empty() {
            self.others.remove(&LuaValue::Number(self.arr.len() as f64));
            let next = LuaValue::Number((self.arr.len() + 1) as f64);
            match self.others.get(&next).map(|&p| &mut self.hash[p].1) {
                Some(v) if !matches!(v, LuaValue::Nil) => self.arr.push(std::mem::take(v)),
                _ => return,
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
        self.arr.is_empty() && self.hash.iter().all(|(_, v)| matches!(v, LuaValue::Nil))
    }

    /// Iterates the array part.
    pub fn iter_array(&self) -> impl Iterator<Item = &LuaValue> {
        self.arr.iter()
    }

    /// Appends to the array part.
    pub fn push(&mut self, v: LuaValue) {
        self.arr.push(v);
        self.absorb();
    }

    /// Inserts at a 1-based position, shifting later elements.
    pub fn insert_at(&mut self, pos: usize, v: LuaValue) {
        let idx = pos.saturating_sub(1).min(self.arr.len());
        self.arr.insert(idx, v);
        self.absorb();
    }

    /// Removes and returns the element at a 1-based position.
    pub fn remove_at(&mut self, pos: usize) -> LuaValue {
        if pos >= 1 && pos <= self.arr.len() {
            self.arr.remove(pos - 1)
        } else {
            LuaValue::Nil
        }
    }

    /// Lua's `next`: the entry after `key` (the first for nil), walking the
    /// array part, then the hash part in insertion order; `None` after the
    /// last. Keys cleared during the walk stay valid to continue from.
    pub fn next(&self, key: &LuaValue) -> Result<Option<(LuaValue, LuaValue)>, LuaError> {
        let n = self.arr.len();
        // Where the walk resumes: `i < n` is `arr[i]`, the rest `hash[i - n]`.
        let start = match (key, array_slot(key)) {
            (LuaValue::Nil, _) => 0,
            (_, Some(i)) if i <= n => i,
            (_, slot) => match self.find(key) {
                Some(p) => n + p + 1,
                // A key of the array part, which has shrunk past it since.
                None if slot.is_some() => n,
                None => return Err(LuaError::msg("invalid key to 'next'")),
            },
        };
        let live = |v: &LuaValue| !matches!(v, LuaValue::Nil);
        let mut arr = self.arr.iter().enumerate().skip(start);
        if let Some((i, v)) = arr.find(|(_, v)| live(v)) {
            return Ok(Some((LuaValue::Number((i + 1) as f64), v.clone())));
        }
        let rest = &self.hash[start.saturating_sub(n)..];
        Ok(rest.iter().find(|(_, v)| live(v)).cloned())
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
        // Terra types are table keys by value (DSLs memoize parametric
        // types by them).
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
