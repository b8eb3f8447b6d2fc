//! # terra-classes
//!
//! The class-system experiment of §6.3.1: a single-inheritance class system
//! with multiple interfaces — "much of the functionality of Java's class
//! system" — implemented as a ~250-line *library* over Terra's type
//! reflection ([`JAVALIKE_SCRIPT`]). Nothing in the language knows about
//! classes: vtables are computed in a `__finalizelayout` metamethod, method
//! stubs are staged from reflected function types, and subtyping is a
//! user-defined `__cast`.
//!
//! The library ships with `terra-core` as `lib/javalike`: any session loads
//! it with `local J = terralib.require("lib/javalike")`
//! (`examples/class_shapes.t`). The paper measures dispatch overhead with a
//! micro-benchmark and reports virtual invocation within 1% of comparable
//! C++; [`DispatchBench`] reproduces that comparison on this backend
//! (virtual vs direct calls).

#![warn(missing_docs)]

use std::time::Instant;
use terra_core::{LuaError, Terra, TerraFn, Value};

/// The class-system library, written in the staged language: the source of
/// `lib/javalike` in [`terra_core::LIBRARIES`].
pub const JAVALIKE_SCRIPT: &str = terra_core::LIBRARIES[1].1;

/// The §6.3.1 dispatch micro-benchmark: a class with one virtual method,
/// called in a tight loop through (a) the vtable, (b) an interface, and (c)
/// directly.
pub struct DispatchBench {
    terra: Terra,
    virtual_loop: TerraFn,
    interface_loop: TerraFn,
    direct_loop: TerraFn,
    obj: u64,
}

/// One measurement: nanoseconds per call for each dispatch flavor.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCost {
    /// Through the class vtable.
    pub virtual_ns: f64,
    /// Through an interface (fat-pointer subobject).
    pub interface_ns: f64,
    /// A direct (non-virtual) call to the same implementation.
    pub direct_ns: f64,
}

impl DispatchBench {
    /// Builds the benchmark classes and loops.
    ///
    /// # Errors
    ///
    /// Propagates staging errors.
    pub fn new() -> Result<DispatchBench, LuaError> {
        let mut terra = Terra::new();
        // The benchmark isolates *dispatch* overhead: at -O2 the mid-end
        // inlines the tiny direct callee into its loop, which removes the
        // baseline call entirely and turns the ratio into a measurement of
        // the inliner instead. -O1 keeps all three loops paying a real call.
        terra.set_opt_level(terra_core::OptLevel::O1);
        terra.exec(
            r#"
            local J = terralib.require("lib/javalike")
            local std = terralib.includec("stdlib.h")
            Incr = J.interface { inc = {int} -> int }

            struct Counter { bias : int }
            J.implements(Counter, Incr)
            terra Counter:inc(x : int) : int
                return x + self.bias
            end

            terra makecounter(bias : int) : &Counter
                var c = [&Counter](std.malloc(sizeof(Counter)))
                c:initclass()
                c.bias = bias
                return c
            end

            terra virtual_loop(c : &Counter, n : int) : int
                var acc = 0
                for i = 0, n do
                    acc = c:inc(acc)
                end
                return acc
            end

            terra interface_loop(c : &Counter, n : int) : int
                var ii : &Incr = c
                var acc = 0
                for i = 0, n do
                    acc = ii:inc(acc)
                end
                return acc
            end

            terra direct_loop(c : &Counter, n : int) : int
                var acc = 0
                for i = 0, n do
                    acc = c:inc_direct(acc)
                end
                return acc
            end
            "#,
        )?;
        let obj = terra.call_f64("makecounter", &[1.0])? as u64;
        let virtual_loop = terra.function("virtual_loop")?;
        let interface_loop = terra.function("interface_loop")?;
        let direct_loop = terra.function("direct_loop")?;
        Ok(DispatchBench {
            terra,
            virtual_loop,
            interface_loop,
            direct_loop,
            obj,
        })
    }

    fn run_loop(&mut self, f: &TerraFn, n: i64) -> i64 {
        match self
            .terra
            .invoke(f, &[Value::Ptr(self.obj), Value::Int(n)])
            .expect("dispatch loop trapped")
        {
            Value::Int(v) => v,
            other => panic!("unexpected result {other:?}"),
        }
    }

    /// Checks all three flavors compute the same thing.
    ///
    /// # Panics
    ///
    /// Panics on disagreement (a vtable bug).
    pub fn verify(&mut self) {
        let f1 = self.virtual_loop.clone();
        let f2 = self.interface_loop.clone();
        let f3 = self.direct_loop.clone();
        let a = self.run_loop(&f1, 1000);
        let b = self.run_loop(&f2, 1000);
        let c = self.run_loop(&f3, 1000);
        assert_eq!(a, 1000);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    fn time(&mut self, f: TerraFn, n: i64) -> f64 {
        self.run_loop(&f, n); // warm
        let start = Instant::now();
        self.run_loop(&f, n);
        start.elapsed().as_secs_f64() / n as f64 * 1e9
    }

    /// Measures per-call cost over `n` calls.
    pub fn measure(&mut self, n: i64) -> DispatchCost {
        let virtual_ns = self.time(self.virtual_loop.clone(), n);
        let interface_ns = self.time(self.interface_loop.clone(), n);
        let direct_ns = self.time(self.direct_loop.clone(), n);
        DispatchCost {
            virtual_ns,
            interface_ns,
            direct_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain session with the class library as the global `J`.
    fn session() -> Terra {
        let mut t = Terra::new();
        t.exec("J = terralib.require(\"lib/javalike\")").unwrap();
        t
    }

    #[test]
    fn interface_and_virtual_dispatch() {
        let mut b = DispatchBench::new().unwrap();
        b.verify();
    }

    #[test]
    fn single_inheritance_with_override() {
        let mut s = session();
        s.exec(
            r#"
            local std = terralib.includec("stdlib.h")
            struct Shape { id : int }
            struct Square { side : int }
            J.extends(Square, Shape)
            terra Shape:area() : int return 0 end
            terra Shape:tag() : int return 100 + self.id end
            terra Square:area() : int return self.side * self.side end

            terra makesquare(side : int) : &Square
                var s = [&Square](std.malloc(sizeof(Square)))
                s:initclass()
                s.id = 7
                s.side = side
                return s
            end
            -- Virtual dispatch through the *parent* type must reach the
            -- child's override.
            terra area_via_parent(p : &Shape) : int
                return p:area()
            end
            terra run() : int
                var sq = makesquare(5)
                -- inherited method works on the child...
                var t = sq:tag()
                -- ...and the child, viewed as its parent, stays a square.
                return area_via_parent(sq) * 1000 + t
            end
            "#,
        )
        .unwrap();
        let r = s.call_f64("run", &[]).unwrap();
        assert_eq!(r as i64, 25 * 1000 + 107);
    }

    #[test]
    fn interface_conversion_and_dispatch() {
        let mut s = session();
        s.exec(
            r#"
            local std = terralib.includec("stdlib.h")
            Drawable = J.interface { draw = {} -> int }
            Sizable = J.interface { size = {} -> int }
            struct Box { w : int, h : int }
            J.implements(Box, Drawable)
            J.implements(Box, Sizable)
            terra Box:draw() : int return 11 end
            terra Box:size() : int return self.w * self.h end
            terra makebox(w : int, h : int) : &Box
                var b = [&Box](std.malloc(sizeof(Box)))
                b:initclass()
                b.w = w
                b.h = h
                return b
            end
            terra drawit(d : &Drawable) : int return d:draw() end
            terra sizeit(z : &Sizable) : int return z:size() end
            terra run() : int
                var b = makebox(3, 4)
                return drawit(b) * 100 + sizeit(b)
            end
            "#,
        )
        .unwrap();
        let r = s.call_f64("run", &[]).unwrap();
        assert_eq!(r as i64, 11 * 100 + 12);
    }

    #[test]
    fn non_subtype_cast_is_rejected() {
        let mut s = session();
        let err = s
            .exec(
                r#"
            struct A { x : int }
            struct B { y : int }
            J.class(A)
            J.class(B)
            terra A:foo() : int return 1 end
            terra B:bar() : int return 2 end
            terra bad(a : &A) : int
                var b : &B = a
                return b:bar()
            end
            bad(nil)
            "#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("cannot convert"), "{err}");
    }

    #[test]
    fn dispatch_overhead_is_small_constant() {
        let mut b = DispatchBench::new().unwrap();
        // The fastest of three per flavor: a busy host only ever adds time.
        let runs: Vec<DispatchCost> = (0..3).map(|_| b.measure(200_000)).collect();
        let best = |ns: fn(&DispatchCost) -> f64| runs.iter().map(ns).fold(f64::INFINITY, f64::min);
        let cost = DispatchCost {
            virtual_ns: best(|c| c.virtual_ns),
            interface_ns: best(|c| c.interface_ns),
            direct_ns: best(|c| c.direct_ns),
        };
        // Dynamic dispatch must cost a small constant over a direct call.
        // The paper reports within 1% for native code, where the stub is
        // inlined away; this bench runs at -O1 (no inlining) so all three
        // loops pay a real call, and a virtual call is one extra frame
        // (stub) and an interface call two (stub + thunk).
        // The *shape* assertion is that overhead is a bounded constant
        // factor, not data-dependent.
        assert!(
            cost.virtual_ns < cost.direct_ns * 3.0,
            "virtual {:.1}ns vs direct {:.1}ns",
            cost.virtual_ns,
            cost.direct_ns
        );
        assert!(
            cost.interface_ns < cost.direct_ns * 4.5,
            "interface {:.1}ns vs direct {:.1}ns",
            cost.interface_ns,
            cost.direct_ns
        );
    }
}
