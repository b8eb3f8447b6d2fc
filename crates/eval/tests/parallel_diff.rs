//! Differential property tests for `parallelfor`: random kernel bodies must
//! produce bit-identical results — or the identical trap — whether the loop
//! runs sequentially (`threads = 1`) or on the chunked thread schedule
//! (`threads = 4`), at every optimization level. The chunk schedule is a
//! function of the iteration count alone, so nothing about the outcome may
//! depend on the thread count.

use proptest::prelude::*;
use terra_eval::{Interp, LuaValue};
use terra_ir::OptLevel;

mod common;
use common::{
    calls_strategy, expr_strategy, nest_strategy, run_nest, shuffle_strategy, taps_strategy,
    RecConfig,
};

/// Runs the program at a given (threads, opt level); returns the result
/// bits or the rendered trap.
fn run_at(src: &str, threads: usize, level: OptLevel) -> Result<u64, String> {
    let mut t = Interp::new();
    t.opt = level;
    t.ctx.exec.set_threads(threads);
    match t.exec(src) {
        Ok(out) => match out.first() {
            Some(LuaValue::Number(n)) => Ok(n.to_bits()),
            other => Err(format!("non-number result: {other:?}")),
        },
        Err(e) => Err(format!("trap: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential and 4-thread runs agree exactly — same bits or same trap
    /// message — at -O0, -O1, and -O2.
    #[test]
    fn parallelfor_is_thread_count_invariant(
        e in expr_strategy(),
        n in 1i32..200,
        k in -4i32..5,
    ) {
        let body = e.src();
        let setup = format!(
            r#"
            local std = terralib.includec("stdlib.h")
            terra f(n : int, k : int) : double
                var buf = [&int64](std.malloc(n * 8))
                parallelfor i = 0, n do
                    buf[i] = [int64]({body})
                end
                var total : int64 = 0
                for i = 0, n do total = total + buf[i] end
                std.free(buf)
                return [double](total)
            end
            "#,
        );
        let call = format!("return f({n}, {k})");
        let src = format!("{setup}\n{call}");
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let seq = run_at(&src, 1, level);
            let par = run_at(&src, 4, level);
            // On failure, the flight recorder bisects the two thread
            // schedules to their first divergent heap effect. Recordings
            // are keyed by chunk order, so a clean report here means the
            // divergence arrived through a channel outside the heap.
            let bisect = if seq == par {
                String::new()
            } else {
                let mut par_cfg = RecConfig::at(level);
                par_cfg.threads = 4;
                common::divergence_report(&setup, &call, RecConfig::at(level), par_cfg)
            };
            prop_assert_eq!(
                &seq, &par,
                "threads=1 vs threads=4 diverged at {:?}\n{}", level, bisect
            );
        }
        // And across levels: the parallel schedule must not perturb the
        // optimization-level invariance the repo already guarantees.
        let o0 = run_at(&src, 4, OptLevel::O0);
        let o2 = run_at(&src, 4, OptLevel::O2);
        let bisect = if o0 == o2 {
            String::new()
        } else {
            let mut a = RecConfig::at(OptLevel::O0);
            a.threads = 4;
            let mut b = RecConfig::at(OptLevel::O2);
            b.threads = 4;
            common::divergence_report(&setup, &call, a, b)
        };
        prop_assert_eq!(&o0, &o2, "-O0 vs -O2 diverged under threads=4\n{}", bisect);
    }

    /// The shared affine nest with its outer loop a `parallelfor`: the
    /// kernel's index has the range of the (staged) bounds and its addresses
    /// are split on the strength of it, or neither; the same elements are
    /// read, or the same trap reported, at every thread count and level, and
    /// the serial loop agrees.
    #[test]
    fn affine_nests_are_thread_count_invariant(nest in nest_strategy()) {
        let (src, n) = (nest.src(true), nest.rows());
        let base = run_nest(&src, n, &RecConfig::at(OptLevel::O0));
        for level in [OptLevel::O0, OptLevel::O2] {
            for threads in [1, 2, 4] {
                let cfg = RecConfig { threads, ..RecConfig::at(level) };
                let got = run_nest(&src, n, &cfg);
                prop_assert_eq!(&got, &base, "{:?} for:\n{}", cfg, src);
            }
        }
        // Serial and parallel differ in the stores the serial nest makes
        // through the indexed address, so compare what they share: whether
        // the program traps.
        let serial = run_nest(&nest.src(false), n, &RecConfig::at(OptLevel::O2));
        prop_assert_eq!(serial.is_ok(), base.is_ok(), "{:?} vs {:?}", serial, base);
    }

    /// The shared multiple assignments as the body of a `parallelfor`: the
    /// kernel's coalesced temporaries, its frame array and its vector
    /// registers give what the language says at every thread count and level.
    #[test]
    fn multiple_assignments_are_thread_count_invariant(shuffle in shuffle_strategy()) {
        let (src, n) = (shuffle.src(true), shuffle.rows());
        let expected = Ok(shuffle.expected(n).to_bits());
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for threads in [1, 2, 4] {
                let cfg = RecConfig { threads, ..RecConfig::at(level) };
                prop_assert_eq!(&run_nest(&src, n, &cfg), &expected, "{:?} for:\n{}", cfg, src);
            }
        }
    }

    /// A kernel's calls — wrappers, methods on a row's struct value and on
    /// its heap struct, a callee that divides by zero on one row — are
    /// inlined into the kernel or called from it alike at every thread
    /// count: the same bits, or the same trap word for word.
    #[test]
    fn call_graphs_are_thread_count_invariant(calls in calls_strategy()) {
        let (src, n) = (calls.src(true), calls.rows());
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let serial = run_nest(&src, n, &RecConfig::at(level));
            prop_assert!(calls.agrees(n, &serial), "{:?}: {:?} for:\n{}", level, serial, src);
            for threads in [2, 4] {
                let cfg = RecConfig { threads, ..RecConfig::at(level) };
                prop_assert_eq!(&run_nest(&src, n, &cfg), &serial, "{:?} for:\n{}", cfg, src);
            }
        }
    }

    /// A kernel whose body runs a loop with stage-time bounds — unrolled in
    /// the kernel or not, trapping at its second trip or not — gives what the
    /// model says at every thread count and level, the trap word for word.
    #[test]
    fn constant_trip_loops_are_thread_count_invariant(taps in taps_strategy()) {
        let (src, n) = (taps.src(true), taps.rows());
        for level in [OptLevel::O0, OptLevel::O2] {
            let serial = run_nest(&src, n, &RecConfig::at(level));
            prop_assert!(taps.agrees(n, &serial), "{:?}: {:?} for:\n{}", level, serial, src);
            for threads in [2, 4] {
                let cfg = RecConfig { threads, ..RecConfig::at(level) };
                prop_assert_eq!(&run_nest(&src, n, &cfg), &serial, "{:?} for:\n{}", cfg, src);
            }
        }
    }

    /// Writes through an in-memory capture land in the parent frame
    /// identically at every thread count (disjoint indices, no races).
    #[test]
    fn stack_array_writes_are_thread_count_invariant(
        n in 1i32..64,
        mul in -3i32..4,
    ) {
        let src = format!(
            r#"
            terra f(n : int, m : int) : double
                var buf : int[64]
                for i = 0, 64 do buf[i] = 0 end
                parallelfor i = 0, n do
                    buf[i] = i * m
                end
                var total = 0
                for i = 0, 64 do total = total + buf[i] end
                return [double](total)
            end
            return f({n}, {mul})
            "#,
        );
        let seq = run_at(&src, 1, OptLevel::O2);
        let par = run_at(&src, 4, OptLevel::O2);
        prop_assert_eq!(&seq, &par);
        let host: i64 = (0..n as i64).map(|i| i * mul as i64).sum();
        prop_assert_eq!(seq, Ok((host as f64).to_bits()));
    }
}
