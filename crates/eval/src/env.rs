//! The shared lexical environment.
//!
//! One environment chain serves both Lua evaluation and Terra
//! specialization — the paper's *shared lexical environment* (`Γ` in Terra
//! Core). During specialization, Terra-introduced variables are bound here
//! as [`LuaValue::Symbol`]s, so escaped Lua code sees them, and Lua
//! variables are visible to Terra code without explicit escapes.
//!
//! A scope is a vector of values in declaration order; names are gone by
//! the time code runs. The parser decided, per use site, which scope
//! (`hops` levels out) and which position (`index`) a name denotes
//! ([`terra_syntax::Slot`]), by keeping the same stack of scopes the
//! evaluator and specializer build here. Declaring is pushing: the n-th
//! declaration executed in a scope fills slot n. Globals are not in the
//! chain; they live in a map on the interpreter.

use crate::value::LuaValue;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct Scope {
    slots: RefCell<Vec<LuaValue>>,
    parent: Option<Env>,
}

/// A lexical scope; cheap to clone (shared).
#[derive(Debug, Clone)]
pub struct Env(Rc<Scope>);

impl Default for Env {
    fn default() -> Self {
        Self::new()
    }
}

impl Env {
    /// Creates the empty scope a chunk starts in.
    pub fn new() -> Env {
        Env(Rc::new(Scope {
            slots: RefCell::new(Vec::new()),
            parent: None,
        }))
    }

    /// Creates a child scope with room for `nslots` declarations.
    pub fn child(&self, nslots: usize) -> Env {
        self.child_with(Vec::with_capacity(nslots))
    }

    /// Creates a child scope whose first slots are already filled (a call's
    /// arguments, a generic `for`'s iteration values).
    pub fn child_with(&self, slots: Vec<LuaValue>) -> Env {
        Env(Rc::new(Scope {
            slots: RefCell::new(slots),
            parent: Some(self.clone()),
        }))
    }

    fn scope(&self, hops: u16) -> &Scope {
        let mut scope = &*self.0;
        for _ in 0..hops {
            scope = &scope
                .parent
                .as_ref()
                .expect("the parser counted this many enclosing scopes")
                .0;
        }
        scope
    }

    /// Declares the next variable of *this* scope (Lua `local`, a Terra
    /// `var` or parameter).
    pub fn declare(&self, value: LuaValue) {
        self.0.slots.borrow_mut().push(value);
    }

    /// Reads slot `index` of the scope `hops` levels out.
    pub fn get(&self, hops: u16, index: u16) -> LuaValue {
        self.scope(hops).slots.borrow()[usize::from(index)].clone()
    }

    /// Writes slot `index` of the scope `hops` levels out.
    pub fn set(&self, hops: u16, index: u16, value: LuaValue) {
        self.scope(hops).slots.borrow_mut()[usize::from(index)] = value;
    }

    /// Empties this scope for the next loop iteration if nothing else holds
    /// it — no closure captured it, so nobody can tell it from a fresh one.
    /// Returns `false` (leaving it untouched) when it is shared.
    pub fn recycle(&self) -> bool {
        let unique = Rc::strong_count(&self.0) == 1;
        if unique {
            self.0.slots.borrow_mut().clear();
        }
        unique
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: LuaValue) -> f64 {
        match v {
            LuaValue::Number(n) => n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn slots_are_found_by_hops_and_index() {
        let root = Env::new();
        let outer = root.child(2);
        outer.declare(LuaValue::Number(1.0));
        outer.declare(LuaValue::Number(2.0));
        let inner = outer.child(1);
        inner.declare(LuaValue::Number(3.0));
        assert_eq!(num(inner.get(0, 0)), 3.0);
        assert_eq!(num(inner.get(1, 0)), 1.0);
        assert_eq!(num(inner.get(1, 1)), 2.0);
    }

    #[test]
    fn assignment_reaches_the_shared_scope() {
        let outer = Env::new().child(1);
        outer.declare(LuaValue::Number(1.0));
        let a = outer.child(0);
        let b = outer.child(0);
        a.set(1, 0, LuaValue::Number(5.0));
        assert_eq!(num(b.get(1, 0)), 5.0);
    }

    #[test]
    fn a_redeclared_name_is_a_new_slot() {
        let scope = Env::new().child(2);
        scope.declare(LuaValue::Number(1.0));
        scope.declare(LuaValue::Number(2.0));
        assert_eq!(num(scope.get(0, 0)), 1.0);
        assert_eq!(num(scope.get(0, 1)), 2.0);
    }

    #[test]
    fn only_an_unshared_scope_is_recycled() {
        let scope = Env::new().child_with(vec![LuaValue::Number(1.0)]);
        assert!(scope.recycle());
        scope.declare(LuaValue::Number(2.0));
        assert_eq!(num(scope.get(0, 0)), 2.0);
        let captured = scope.clone();
        assert!(!scope.recycle());
        assert_eq!(num(captured.get(0, 0)), 2.0);
    }
}
