//! End-to-end bisection of a divergence. Two programs differ in one staged
//! constant (`6 * 7` on one side, `6 * 7 + 1` on the other — what a
//! miscompiling constant folder would produce), and the flight recorder must
//! walk the differential down to the first wrong store — naming the
//! function, the source line, and the staging provenance of the quote that
//! generated the store.

use terra_ir::OptLevel;

mod common;
use common::RecConfig;

/// The store is staged by a Lua `quote` and spliced into the loop, so the
/// divergence report must carry the "via quote at line N" provenance chain
/// in addition to the splice site's own line. `VALUE` is the constant the
/// two sides disagree on.
const SETUP: &str = r#"local std = terralib.includec("stdlib.h")

local function fill(buf, i)
  return quote
    buf[i] = VALUE
  end
end

terra prog(n : int) : double
  var buf = [&int32](std.malloc(n * 4))
  for i = 0, n do
    [fill(buf, i)]
  end
  var s = 0
  for i = 0, n do
    s = s + buf[i]
  end
  std.free(buf)
  return [double](s)
end
"#;

#[test]
fn divergent_constant_bisects_to_the_generated_store() {
    let report = common::divergence_report_sides(
        (
            &SETUP.replace("VALUE", "6 * 7"),
            RecConfig::at(OptLevel::O0),
        ),
        (
            &SETUP.replace("VALUE", "6 * 7 + 1"),
            RecConfig::at(OptLevel::O2),
        ),
        "return prog(10)",
    );

    // The sides store different constants, so they must diverge…
    assert!(
        report.contains("first divergent effect"),
        "expected a divergence, got:\n{report}"
    );
    // …on a store, attributed to the function and its source line…
    assert!(report.contains("store"), "no store in:\n{report}");
    assert!(report.contains(" at prog:"), "no line info in:\n{report}");
    // …with the staging provenance of the quote that generated it.
    assert!(
        report.contains(", generated via quote at line"),
        "no provenance in:\n{report}"
    );
    // Both sides are labeled by their optimization level.
    assert!(report.contains("-O0:"), "missing -O0 label in:\n{report}");
    assert!(report.contains("-O2:"), "missing -O2 label in:\n{report}");
    // The stored constant is 42 on one side, 43 on the other.
    assert!(report.contains("0x2a"), "expected 0x2a in:\n{report}");
    assert!(report.contains("0x2b"), "expected 0x2b in:\n{report}");
}
