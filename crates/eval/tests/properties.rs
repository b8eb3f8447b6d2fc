//! The properties §4.1 states of Terra Core — eager specialization, hygiene,
//! separate evaluation, monotonic lazy typechecking — checked on generated
//! Lua-Terra source through the interpreter, specializer and typechecker
//! that run it, at `-O0` and at `-O2`; EXPERIMENTS.md A1 maps each property
//! to its test.

mod staging;

use proptest::prelude::*;
use staging::*;
use terra_eval::{Interp, Phase};
use terra_ir::OptLevel;

/// A Lua expression whose value is known by construction, built from the
/// shapes of Terra Core's Lua half: `local` chains, closures applied to
/// arguments, shadowing (by a nested block and by a second `local`),
/// assignment, and quotes spliced through escapes into a Terra function.
fn known_value(depth: u32) -> impl Strategy<Value = (String, i64)> {
    let leaf = any::<i8>().prop_map(|v| (format!("({v})"), v as i64));
    leaf.prop_recursive(depth, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), any::<u8>()).prop_map(|((e, v), n)| {
                let x = format!("v{}", n % 8);
                (format!("(function() local {x} = {e} return {x} end)()"), v)
            }),
            inner
                .clone()
                .prop_map(|(e, v)| (format!("(function(x) return x end)({e})"), v)),
            (inner.clone(), any::<i8>()).prop_map(|((e, v), dead)| {
                let e =
                    format!("(function() local x = {e} do local x = ({dead}) end return x end)()");
                (e, v)
            }),
            (inner.clone(), any::<i8>()).prop_map(|((e, v), dead)| {
                let e =
                    format!("(function() local x = ({dead}) local x = x x = {e} return x end)()");
                (e, v)
            }),
            inner.prop_map(|(e, v)| (format!("(terra() : int return [`[{e}]] end)()"), v)),
        ]
    })
}

/// A session at `level` that has defined `terra f(x : int) : int return x
/// end` and nothing else.
fn with_identity(level: OptLevel) -> Interp {
    let mut t = interp_at(level);
    t.exec("terra f(x : int) : int return x end").unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lua evaluation is deterministic and respects lexical scoping.
    #[test]
    fn lua_scoping_respects_shadowing((e, v) in known_value(4)) {
        prop_assert_eq!(eval_num(&format!("return {e}")), v as f64);
    }

    /// A known value spliced into a Terra function comes back unchanged.
    #[test]
    fn staging_roundtrip((e, v) in known_value(3)) {
        let src = format!(
            "local input = {e}
             terra f(y : int) : int return [input] end
             return f(0)"
        );
        prop_assert_eq!(eval_num(&src), v as f64);
    }

    /// Eager specialization: assigning the captured variable after the
    /// definition never changes the function's result.
    #[test]
    fn eager_specialization_is_mutation_proof((e, v) in known_value(3), overwrite in any::<i8>()) {
        let src = format!(
            "local cell = {e}
             terra f(y : int) : int return cell end
             cell = {overwrite}
             return f(0)"
        );
        prop_assert_eq!(eval_num(&src), v as f64);
    }

    /// Hygiene: a quote that binds `x` never captures the parameter `x`
    /// spliced into it, whatever values flow through either.
    #[test]
    fn hygiene_holds_for_all_values(arg in any::<i8>(), bound in any::<i8>()) {
        let src = format!(
            "local q = function(p) return quote var x : int = ({bound}) in [p] end end
             terra f(x : int) : int return [q(x)] end
             return f({arg})"
        );
        prop_assert_eq!(eval_num(&src), arg as f64);
    }

    /// Monotonic typechecking: once a function has checked and run, defining
    /// and running more functions leaves it checking and running the same.
    #[test]
    fn definitions_never_invalidate_checked_functions(v in any::<i8>()) {
        for level in LEVELS {
            let mut t = with_identity(level);
            let call = format!("return f({v})");
            prop_assert_eq!(exec_num(&mut t, &call), v as f64);
            let other = format!("terra g(y : int) : int return {v} end return g(0)");
            prop_assert_eq!(exec_num(&mut t, &other), v as f64);
            prop_assert_eq!(exec_num(&mut t, &call), v as f64);
        }
    }

    /// Separate evaluation: a Terra function's result depends on its argument
    /// alone, whatever Lua runs between two calls.
    #[test]
    fn terra_results_are_reproducible(a in any::<i8>(), junk in any::<i8>()) {
        for level in LEVELS {
            let mut t = with_identity(level);
            let call = format!("return f({a})");
            let first = exec_num(&mut t, &call);
            t.exec(&format!("local z = {junk} x = z * 2 + #tostring(z)")).unwrap();
            prop_assert_eq!(exec_num(&mut t, &call), first);
            prop_assert_eq!(first, a as f64);
        }
    }
}

/// A Lua value that is not a Terra term, escaped into a function body, is
/// rejected at specialization, and the function is left undefined: calling
/// it is a link error, never a run of some code made from the value.
#[test]
fn escapes_of_non_terms_are_rejected_not_miscompiled() {
    for non_term in ["function(x) return x end", "{}", "{ 1, 2 }"] {
        for level in LEVELS {
            let mut t = interp_at(level);
            let define = format!("local v = {non_term} terra f(y : int) : int return [v] end");
            let e = t.exec(&define).unwrap_err();
            assert_eq!(e.phase, Phase::Specialize, "{non_term}: {e}");
            let e = t.exec("return f(1)").unwrap_err();
            assert_eq!(e.phase, Phase::Link, "{non_term}: {e}");
        }
    }
}
