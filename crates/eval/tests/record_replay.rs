//! Flight-recorder determinism: recording the same program twice under the
//! same configuration must verify clean with `replay::verify` at every
//! optimization level, and a cross-level `replay::diff` of a correct
//! pipeline must report zero divergences. A pinned golden test guards the
//! checksum definitions themselves — if the FNV feed order or the heap hash
//! range changes, the golden values move and the change must be deliberate.

use proptest::prelude::*;
use terra_ir::OptLevel;
use terra_trace::replay;

mod common;
use common::RecConfig;

/// One step in a straight-line accumulator chain: `x = x <op> c`. Division
/// is excluded so random programs never trap and every recording runs to
/// completion.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add(i32),
    Sub(i32),
    Mul(i32),
    Shl(u8),
}

fn step_txt(s: Step) -> String {
    match s {
        Step::Add(c) => format!("x = x + {c}"),
        Step::Sub(c) => format!("x = x - {c}"),
        Step::Mul(c) => format!("x = x * {c}"),
        Step::Shl(k) => format!("x = x << {}", k % 4),
    }
}

/// Renders a program whose recording exercises every effect kind the
/// recorder captures: malloc/free, heap stores, and printf output.
fn program_txt(steps: &[Step]) -> String {
    let n = steps.len();
    let mut body = String::new();
    for (i, s) in steps.iter().enumerate() {
        body.push_str(&format!("    {}\n", step_txt(*s)));
        body.push_str(&format!("    buf[{i}] = x\n"));
    }
    format!(
        "local std = terralib.includec(\"stdlib.h\")\n\
         local io = terralib.includec(\"stdio.h\")\n\
         terra prog(a : int, b : int) : double\n\
         \u{20}   var buf = [&int64](std.malloc({n} * 8))\n\
         \u{20}   var x : int64 = a * 3 + b\n\
         {body}\
         \u{20}   var s : int64 = 0\n\
         \u{20}   for i = 0, {n} do s = s + buf[i] end\n\
         \u{20}   io.printf(\"s=%lld\\n\", s)\n\
         \u{20}   std.free(buf)\n\
         \u{20}   return [double](s)\n\
         end\n\
         return prog"
    )
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-16i32..=16).prop_map(Step::Add),
        (-16i32..=16).prop_map(Step::Sub),
        (-4i32..=4).prop_map(Step::Mul),
        any::<u8>().prop_map(Step::Shl),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record-then-replay of a random program verifies clean — every
    /// checkpoint hash, every effect, and the final counters match — at
    /// `-O0`, `-O1`, and `-O2`.
    #[test]
    fn record_then_replay_verifies_clean_at_every_level(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        a in -50i32..50,
        b in -50i32..50,
    ) {
        let src = program_txt(&steps);
        let call = format!("return prog({a}, {b})");
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let cfg = RecConfig::at(level);
            let recorded = common::record_at(&src, &call, &cfg, None)
                .map_err(proptest::TestCaseError::new)?;
            let live = common::record_at(&src, &call, &cfg, None)
                .map_err(proptest::TestCaseError::new)?;
            let summary = replay::verify(&recorded, &live);
            prop_assert!(
                summary.is_ok(),
                "replay diverged at {:?}: {}\nprogram:\n{}",
                level, summary.unwrap_err(), src
            );
        }
    }

    /// A correct pipeline leaves no divergences for `replay::diff` to find:
    /// the `-O0` and `-O2` recordings of the same random program align at
    /// every checkpoint.
    #[test]
    fn cross_level_diff_is_clean(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        a in -50i32..50,
        b in -50i32..50,
    ) {
        let src = program_txt(&steps);
        let call = format!("return prog({a}, {b})");
        let (ca, cb) = (RecConfig::at(OptLevel::O0), RecConfig::at(OptLevel::O2));
        let ra = common::record_at(&src, &call, &ca, None)
            .map_err(proptest::TestCaseError::new)?;
        let rb = common::record_at(&src, &call, &cb, None)
            .map_err(proptest::TestCaseError::new)?;
        let report = replay::diff(&ra, &rb, |meta, window| {
            let cfg = if meta.opt == 0 { &ca } else { &cb };
            common::record_at(&src, &call, cfg, Some(window))
        }).map_err(proptest::TestCaseError::new)?;
        prop_assert!(
            report.is_clean(),
            "-O0 vs -O2 recordings diverged:\n{}\nprogram:\n{}",
            report.render(), src
        );
    }
}

/// Pins the state checksums for a fixed program. These goldens move only
/// when the hash definitions (FNV-1a feed order, heap hash range, output
/// hash) or the program's effect stream change — both deliberate events.
#[test]
fn golden_state_hashes_for_fixed_program() {
    let steps = [Step::Add(5), Step::Mul(3), Step::Sub(7), Step::Shl(2)];
    let src = program_txt(&steps);
    let rec = common::record_at(
        &src,
        "return prog(2, 4)",
        &RecConfig::at(OptLevel::O0),
        None,
    )
    .expect("fixed program must record");
    let last = rec
        .checkpoints
        .last()
        .expect("at least the final checkpoint");
    assert_eq!(rec.total_effects, 7, "malloc + 4 stores + printf + free");
    assert_eq!(
        (last.heap, last.out),
        (0x3b1eb9021e1e7665, 0x75a81bc51f887c86),
        "golden heap/output hashes moved: heap={:#018x} out={:#018x} — \
         if the checksum definition changed deliberately, repin",
        last.heap,
        last.out
    );
    // Recording the identical run again reproduces the identical text.
    let again = common::record_at(
        &src,
        "return prog(2, 4)",
        &RecConfig::at(OptLevel::O0),
        None,
    )
    .expect("fixed program must record");
    assert_eq!(
        rec.to_text(),
        again.to_text(),
        "recording must be byte-stable"
    );
}

/// The point of checkpoint sampling: a coarse recording stays tiny however
/// long the run. A GEMM retiring over a million instructions (and thousands
/// of heap effects) must serialize to at most 256 KiB, opening with the
/// exact format-version header that consumers key their parsers off.
#[test]
fn million_instruction_run_records_coarsely_in_a_few_bytes() {
    let rec = common::record_at(
        &common::gemm_static_src(48),
        "return gemm_static()",
        &RecConfig::at(OptLevel::O0),
        None,
    )
    .expect("GEMM must record");
    assert!(rec.total_retired >= 1_000_000, "{}", rec.total_retired);
    let text = rec.to_text();
    assert!(text.starts_with("#terra-rec v1\n"), "header: {text:.40}");
    assert!(text.len() <= 256 * 1024, "grew to {} bytes", text.len());
}
