//! Allocation budget of the meta-language evaluator, as a deterministic
//! gate: heap allocations per iteration of a Lua loop, counted by a wrapping
//! global allocator. Counts, not times — they are the explanation for the
//! `staging-heavy` clock, gated here because the clock is too noisy to gate.
//!
//! The budget per iteration:
//!
//! | loop body                      | allocations                         |
//! |--------------------------------|-------------------------------------|
//! | `s = s + i % 7`                | ≤ 1 (the iteration's scope)         |
//! | `if … then s = s + 1 end`      | nothing on top of `s = s + 1`       |
//! | `id(i)`                        | ≤ 3 (arguments, scope, results)     |
//! | `s = s + a`, `a` four scopes out | nothing on top of `s = s + 1`     |
//!
//! And of the specializer, per splice: a splice points at the quote it
//! splices, so its cost does not depend on the size of the quote, and a chain
//! of *d* quotes each splicing the one before costs O(*d*), not O(*d*²).
//!
//! And of the VM: a `parallelfor` region nothing observes builds nothing a
//! profiler would need, so its bytes do not depend on the simulated cache.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use terra_eval::Interp;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of their
    /// own, so a test sees only its own evaluator's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is bumping thread-local
// `Cell<u64>`s that are const-initialized and have no destructor, so
// touching them never allocates and is valid for the whole life of the
// thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made while executing `template` with `$N` replaced by `n`.
fn allocations(interp: &mut Interp, template: &str, n: u32) -> u64 {
    let src = template.replace("$N", &n.to_string());
    let before = ALLOCATIONS.with(Cell::get);
    interp.exec(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per loop iteration: the difference between a 20 000- and a
/// 10 000-iteration run of the same chunk (so parsing and set-up cancel),
/// after a warm-up run.
fn per_iteration(template: &str) -> f64 {
    let mut interp = Interp::new();
    allocations(&mut interp, template, 1_000);
    let short = allocations(&mut interp, template, 10_000);
    let long = allocations(&mut interp, template, 20_000);
    (long - short) as f64 / 10_000.0
}

const ADD_ONE: &str = "local s = 0 for i = 1, $N do s = s + 1 end";

#[test]
fn arithmetic_on_locals_costs_at_most_the_iterations_scope() {
    let n = per_iteration("local s = 0 for i = 1, $N do s = s + i % 7 end");
    println!("s = s + i % 7: {n} allocations/iteration");
    assert!(n <= 1.0, "{n}");
}

#[test]
fn a_block_that_declares_nothing_is_free() {
    let plain = per_iteration(ADD_ONE);
    let guarded = per_iteration("local s = 0 for i = 1, $N do if i > 0 then s = s + 1 end end");
    println!("s = s + 1: {plain}; under an `if`: {guarded} allocations/iteration");
    assert_eq!(guarded, plain);
}

#[test]
fn a_call_costs_its_arguments_its_scope_and_its_results() {
    let n = per_iteration("local id = function(x) return x end for i = 1, $N do id(i) end");
    println!("id(i): {n} allocations/iteration");
    assert!(n <= 3.0, "{n}");
}

#[test]
fn reading_a_variable_four_scopes_out_is_free() {
    let plain = per_iteration(ADD_ONE);
    let deep = per_iteration(
        "local a = 1
         local function f1() local x1 = 1
           local function f2() local x2 = 2
             local function f3() local x3 = 3
               local s = 0
               for i = 1, $N do s = s + a end
               return s + x1 + x2 + x3
             end
             return f3()
           end
           return f2()
         end
         f1()",
    );
    println!("s = s + 1: {plain}; s = s + a, four scopes out: {deep} allocations/iteration");
    assert_eq!(deep, plain);
}

/// A quote of `n` statements bound to the global `name`.
fn define_quote(interp: &mut Interp, name: &str, n: usize) {
    let body = "var a = 1\n".repeat(n);
    interp
        .exec(&format!("{name} = quote {body} end"))
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn a_splice_costs_the_same_whatever_the_size_of_the_quote() {
    let mut interp = Interp::new();
    define_quote(&mut interp, "qs", 10);
    define_quote(&mut interp, "ql", 1_000);
    allocations(&mut interp, "terra warm() [qs] end", 0);
    let small = allocations(&mut interp, "terra fs() [qs] end", 0);
    let large = allocations(&mut interp, "terra fl() [ql] end", 0);
    println!("splicing 10 statements: {small} allocations; 1 000 statements: {large}");
    assert!(small.abs_diff(large) <= 2, "{small} vs {large}");
}

#[test]
fn a_chain_of_splices_allocates_linearly_in_its_depth() {
    let chain = "local x = symbol(int, 'x') local q = `x for i = 1, $N do q = `[q] + x end";
    let mut interp = Interp::new();
    allocations(&mut interp, chain, 10);
    let short = allocations(&mut interp, chain, 200);
    let long = allocations(&mut interp, chain, 400);
    println!("200 links: {short} allocations; 400 links: {long}");
    assert!((long as f64) < 2.2 * short as f64, "{short} -> {long}");
}

/// Bytes allocated by one call of a 32-chunk `parallelfor` region with
/// nothing observing it, under the simulated cache geometry `cache`.
fn unobserved_region_bytes(interp: &mut Interp, cache: &str) -> u64 {
    let cfg = terra_trace::CacheConfig::parse(cache).expect("a cache spec");
    interp.ctx.exec.set_cache_config(cfg);
    let before = BYTES.with(Cell::get);
    interp.exec("fill(buf)").unwrap_or_else(|e| panic!("{e}"));
    BYTES.with(Cell::get) - before
}

#[test]
fn an_unobserved_region_builds_no_cache_simulator() {
    let mut interp = Interp::new();
    interp
        .exec(
            "local C = terralib.includec('stdlib.h')
             terra fill(p : &int) parallelfor i = 0, 32 do p[i] = i end end
             buf = C.malloc(32 * 4)
             fill(buf)",
        )
        .unwrap_or_else(|e| panic!("{e}"));
    let default = unobserved_region_bytes(&mut interp, "l1=32k,64,8:l2=256k,64,8");
    let large = unobserved_region_bytes(&mut interp, "l1=32k,64,8:l2=4m,64,8");
    println!("one 32-chunk region: {default} bytes; with a 4 MiB simulated L2: {large}");
    assert_eq!(default, large);
}
