//! Differential tests for the VM's observer seam: telemetry must never
//! change what a program does, and one collector must never change what
//! another collects.
//!
//! Each random program runs under all 8 subsets of {`--profile`,
//! `--sample=64`, `--record`} — the unobserved dispatch loop and seven
//! configurations of the observed one — and must produce the identical
//! result, heap image, captured output and trap message. Beyond that, the
//! exact counters must not depend on whether the sampler or the recorder
//! is also on, and the recording's bytes must not depend on whether the
//! profiler or the sampler is. `parallelfor` programs additionally run at
//! 1 and 4 threads, where everything above must also agree.

use proptest::prelude::*;
use terra_eval::Interp;
use terra_ir::OptLevel;
use terra_trace::SampleStats;

mod common;
use common::{
    calls_strategy, expr_strategy, nest_strategy, program_txt, shuffle_strategy, stmt_strategy,
    taps_strategy, OpStmt, RecConfig, Src,
};

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Rendered return values, or the trap message.
    result: Result<String, String>,
    /// FNV digest of the whole heap after the run.
    heap: u64,
    /// Captured `printf` output.
    output: String,
}

/// What the collectors saw, when they were on.
#[derive(Debug)]
struct Collected {
    /// Deterministic counter report with the sample section left out.
    counters: Option<String>,
    /// Collected samples.
    samples: Option<SampleStats>,
    /// The serialized recording.
    rec: Option<String>,
}

/// Runs `setup` then `call` with the given gates on.
fn run(
    setup: &str,
    call: &str,
    threads: usize,
    (profile, sample, record): (bool, bool, bool),
) -> (Outcome, Collected) {
    let cfg = RecConfig {
        threads,
        ..RecConfig::at(OptLevel::O2)
    };
    let mut t = Interp::new();
    t.ctx.exec.set_threads(threads);
    t.capture_output();
    t.exec(setup).expect("generated setup must stage");
    // Gates go on after staging, so every configuration observes exactly
    // the call.
    t.ctx.exec.set_profile(profile);
    t.ctx.exec.set_sample_interval(if sample { 64 } else { 0 });
    if record {
        t.ctx.exec.set_record(cfg.meta(None));
    }
    let result = t
        .exec(call)
        .map(|vals| format!("{vals:?}"))
        .map_err(|e| e.to_string());
    let mut p = t.ctx.exec.profile();
    let samples = sample.then(|| std::mem::take(&mut p.samples));
    let collected = Collected {
        counters: profile.then(|| p.render_counters()),
        samples,
        rec: t.ctx.exec.take_recording().map(|r| r.to_text()),
    };
    let outcome = Outcome {
        result,
        heap: t.ctx.exec.memory.heap_hash(),
        output: t.ctx.exec.take_output(),
    };
    (outcome, collected)
}

/// Runs the program under every gate subset (at each thread count) and
/// checks the contract in the module docs.
fn check_all_subsets(
    setup: &str,
    call: &str,
    thread_counts: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let (base, _) = run(setup, call, 1, (false, false, false));
    let mut counters: Option<String> = None;
    let mut samples: Option<SampleStats> = None;
    let mut rec: Option<String> = None;
    for &threads in thread_counts {
        for bits in 0..8u8 {
            let gates = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let (outcome, got) = run(setup, call, threads, gates);
            prop_assert_eq!(
                &outcome,
                &base,
                "telemetry {:?} at {} thread(s) changed the run:\n{}\n{}",
                gates,
                threads,
                setup,
                call
            );
            for (what, seen, first) in [
                ("counters", got.counters, &mut counters),
                ("recording", got.rec, &mut rec),
            ] {
                if let Some(seen) = seen {
                    let first = first.get_or_insert_with(|| seen.clone());
                    prop_assert_eq!(
                        &seen,
                        first,
                        "{} under {:?} at {} thread(s) differ from the first collected:\n{}\n{}",
                        what,
                        gates,
                        threads,
                        setup,
                        call
                    );
                }
            }
            if let Some(seen) = got.samples {
                let first = samples.get_or_insert_with(|| seen.clone());
                prop_assert_eq!(
                    &seen,
                    first,
                    "samples under {:?} at {} thread(s)",
                    gates,
                    threads
                );
            }
        }
    }
    prop_assert!(counters.is_some() && samples.is_some() && rec.is_some());
    Ok(())
}

/// The straight-line `prog` of `opt_diff`, wrapped in a caller that prints
/// two of its results: arithmetic, heap stores, a division that may trap,
/// `malloc`, a call/return pair, a `printf` effect, and a vector local (a
/// four-slot register) stored to the heap.
fn straight_line_setup(stmts: &[OpStmt]) -> String {
    let prog = program_txt(stmts);
    let prog = prog.strip_suffix("return prog").expect("generator trailer");
    let last = stmts.len() - 1;
    format!(
        "{prog}\n\
         local io = terralib.includec(\"stdio.h\")\n\
         local vec = vector(double, 4)\n\
         terra show(a : int, b : int, c : int) : &double\n\
         \u{20}   var buf = prog(a, b, c)\n\
         \u{20}   var v = [vec](buf[0]) * [vec]([double](a)) + [vec](buf[{last}])\n\
         \u{20}   @[&vec](std.malloc(32)) = v\n\
         \u{20}   io.printf(\"%g %g\\n\", buf[0], buf[{last}])\n\
         \u{20}   return buf\n\
         end\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn telemetry_never_changes_a_straight_line_program(
        stmts in proptest::collection::vec(stmt_strategy(), 1..12),
        a in -100i32..100,
        b in -100i32..100,
        c in -3i32..4,
    ) {
        let setup = straight_line_setup(&stmts);
        check_all_subsets(&setup, &format!("return show({a}, {b}, {c})"), &[1])?;
    }

    #[test]
    fn telemetry_never_changes_a_parallelfor(
        e in expr_strategy(),
        n in 1i32..120,
        k in -4i32..5,
    ) {
        let body = e.src();
        let setup = format!(
            r#"
            local std = terralib.includec("stdlib.h")
            local io = terralib.includec("stdio.h")
            local vec = vector(double, 4)
            terra f(n : int, k : int) : double
                var buf = [&int64](std.malloc(n * 8))
                var rows = [&vec](std.malloc(n * 32))
                var v = [vec]([double](k)) + [vec](0.5)
                parallelfor i = 0, n do
                    buf[i] = [int64]({body})
                    rows[i] = v * [vec]([double](i))
                    if i % 16 == 0 then io.printf("%d;", i) end
                end
                var total : int64 = 0
                for i = 0, n do total = total + buf[i] end
                return [double](total)
            end
            "#,
        );
        check_all_subsets(&setup, &format!("return f({n}, {k})"), &[1, 4])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shared affine nest, serial and under `parallelfor`: indexed
    /// memory operands and counted-loop back edges are what the observers
    /// see most of, and an address is reported as the access computed it.
    #[test]
    fn telemetry_never_changes_an_affine_nest(nest in nest_strategy(), parallel in any::<bool>()) {
        let threads: &[usize] = if parallel { &[1, 4] } else { &[1] };
        let call = format!("return nest({})", nest.rows());
        check_all_subsets(&nest.src(parallel), &call, threads)?;
    }

    /// The shared multiple assignments, serial and under `parallelfor`:
    /// broadcast and cast-through vector loads, coalesced pointer bumps and
    /// the stores of every target look the same to every observer.
    #[test]
    fn telemetry_never_changes_a_multiple_assignment(
        shuffle in shuffle_strategy(),
        parallel in any::<bool>(),
    ) {
        let threads: &[usize] = if parallel { &[1, 4] } else { &[1] };
        let call = format!("return nest({})", shuffle.rows());
        check_all_subsets(&shuffle.src(parallel), &call, threads)?;
    }

    /// Inlined and out-of-line calls — wrappers, methods, the stub through a
    /// table, a trapping and a recursive callee — look the same to every
    /// observer, trap included.
    #[test]
    fn telemetry_never_changes_a_call_graph(
        calls in calls_strategy(),
        parallel in any::<bool>(),
    ) {
        let threads: &[usize] = if parallel { &[1, 4] } else { &[1] };
        let call = format!("return nest({})", calls.rows());
        check_all_subsets(&calls.src(parallel), &call, threads)?;
    }

    /// Unrolled copies of a loop with stage-time bounds — their accesses at
    /// constant offsets, their trap at the second trip — look the same to
    /// every observer as the loop they replace.
    #[test]
    fn telemetry_never_changes_a_constant_trip_loop(
        taps in taps_strategy(),
        parallel in any::<bool>(),
    ) {
        let threads: &[usize] = if parallel { &[1, 4] } else { &[1] };
        let call = format!("return nest({})", taps.rows());
        check_all_subsets(&taps.src(parallel), &call, threads)?;
    }
}

/// Guards the proptests against vacuous agreement: a known program runs,
/// prints, and its collectors see what they should, in every subset.
#[test]
fn harness_is_not_vacuous() {
    let stmts = vec![
        OpStmt::Add(Src::Param(0), Src::Param(1)), // x0 = a + b
        OpStmt::Div(Src::Var(0), Src::Param(2)),   // x1 = x0 / c
    ];
    let setup = straight_line_setup(&stmts);
    let (outcome, got) = run(&setup, "return show(2, 4, 3)", 1, (true, true, true));
    assert_eq!(outcome.output, "6 2\n");
    assert!(outcome.result.is_ok(), "{:?}", outcome.result);
    let counters = got.counters.unwrap();
    assert!(counters.contains("  show"), "{counters}");
    assert!(counters.contains("div.s"), "{counters}");
    assert!(got.rec.unwrap().starts_with("#terra-rec v1"));
    // The same program trapping: every subset reports the same trap.
    check_all_subsets(&setup, "return show(2, 4, 0)", &[1]).unwrap();
    let (trapped, _) = run(&setup, "return show(2, 4, 0)", 1, (true, false, true));
    assert!(trapped.result.unwrap_err().contains("zero"));
}
