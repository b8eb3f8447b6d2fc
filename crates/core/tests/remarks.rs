//! End-to-end tests for optimization remarks and staging provenance: the
//! remark stream must be deterministic (byte-identical run to run, and
//! unaffected by whether profiling is enabled), and runtime trap messages
//! must carry the staging chain when the faulting instruction was spliced
//! in from a quote.

use terra_core::Terra;

/// A staged program whose optimizer remarks carry a provenance chain: the
/// Collatz update is generated by a Lua quote over the caller's variables,
/// and the helper call inside it is small enough for the -O2 inliner.
const STAGED_SCRIPT: &str = r#"
terra collatz_steps(seed : int) : int
    var x = seed
    var steps = 0
    while x ~= 1 do
        if x % 2 == 0 then
            x = x / 2
        else
            x = 3 * x + 1
        end
        steps = steps + 1
    end
    return steps
end

local function update_best(seed, best)
    return quote
        var s = collatz_steps(seed)
        if s > best then
            best = s
        end
    end
end

terra longest(limit : int) : int
    var best = 0
    for seed = 1, limit do
        [update_best(seed, best)]
    end
    return best
end

result = longest(100)
"#;

fn run(profile: bool) -> (String, String) {
    let mut t = Terra::new();
    t.set_profile(profile);
    t.exec(STAGED_SCRIPT).unwrap();
    let p = t.profile();
    let jsonl = p.to_jsonl();
    let remarks = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"remark\""));
    (
        p.render_remarks(None),
        remarks.collect::<Vec<_>>().join("\n"),
    )
}

#[test]
fn staged_remarks_carry_a_provenance_chain() {
    let mut t = Terra::new();
    t.exec(STAGED_SCRIPT).unwrap();
    let remarks = t.remarks();
    assert!(!remarks.is_empty(), "expected -O2 remarks");
    let inlined = remarks
        .iter()
        .find(|r| r.pass == "inline" && r.kind == "applied")
        .expect("the spliced collatz_steps call should inline");
    assert_eq!(&*inlined.site.func, "longest");
    assert!(
        inlined.site.fields().2.contains("via quote at line"),
        "inline remark lost its staging chain: {inlined:?}"
    );
}

#[test]
fn remarks_are_byte_identical_across_runs() {
    let (text_a, json_a) = run(false);
    let (text_b, json_b) = run(false);
    assert!(!json_a.is_empty());
    assert_eq!(text_a, text_b);
    assert_eq!(json_a, json_b);
}

#[test]
fn remarks_do_not_depend_on_profiling() {
    // Remarks are collected unconditionally, so turning the profiler on must
    // not add, drop, or reorder anything.
    let (text_off, json_off) = run(false);
    let (text_on, json_on) = run(true);
    assert_eq!(text_off, text_on);
    assert_eq!(json_off, json_on);
}

#[test]
fn trap_messages_carry_the_staging_chain() {
    // The faulting store is written inside a quote (line 4 of the chunk) and
    // spliced into `boom` (line 9); the trap must attribute it to both.
    let mut t = Terra::new();
    let err = t
        .exec(
            r#"
local function poke(p)
    return quote
        p[123456789] = 1.0
    end
end
terra boom() : int
    var p = [&double](0);
    [poke(p)]
    return 0
end
boom()
"#,
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("in terra function 'boom'"), "got: {msg}");
    assert!(msg.contains("at line 4"), "got: {msg}");
    assert!(msg.contains("generated via quote at line 9"), "got: {msg}");
}

#[test]
fn unstaged_trap_messages_are_unchanged() {
    // No staging chain → the pre-provenance message format, byte for byte.
    let mut t = Terra::new();
    let err = t
        .exec(
            r#"
terra stray() : double
    var p = [&double](0)
    return p[123456789]
end
stray()
"#,
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("(in terra function 'stray' at line 4)"),
        "got: {msg}"
    );
    assert!(!msg.contains("generated"), "got: {msg}");
}

// Every trap raised while Terra code runs ends in the same parenthetical a
// memory trap has: function, line, and the staging chain if the faulting
// instruction was spliced in. (`Undefined` cannot be reached from source —
// calling a declared-but-undefined function is a link error — so its case is
// `terra_vm`'s `a_call_to_an_undefined_function_is_located_in_its_caller`.)

/// Runs `src` at `-O0` and `-O2` and returns the trap it ends in, which must
/// read the same at both.
fn trap_text(src: &str) -> String {
    let texts = [terra_core::OptLevel::O0, terra_core::OptLevel::O2].map(|level| {
        let mut t = Terra::new();
        t.set_opt_level(level);
        t.exec(src).unwrap_err().message.clone()
    });
    assert_eq!(texts[0], texts[1], "-O0 vs -O2");
    texts[0].clone()
}

#[test]
fn division_by_zero_in_a_spliced_quote_names_the_splice() {
    let msg = trap_text(
        r#"
local function ratio(a, b)
    return quote
        var q = a / b
    in q end
end
terra div(a : int, b : int) : int
    var r = [ratio(a, b)]
    return r
end
div(1, 0)
"#,
    );
    assert_eq!(
        msg,
        "integer division by zero (in terra function 'div' at line 4, generated via quote at line 8)"
    );
}

#[test]
fn runaway_recursion_ends_in_a_located_stack_overflow() {
    // ROADMAP 1(b): the frame that could not be pushed is not on the stack,
    // so the site is the call that asked for it.
    let msg = trap_text(
        r#"
terra f(n : int) : int
    return f(n + 1) + 1
end
f(0)
"#,
    );
    assert_eq!(
        msg,
        "terra stack overflow (in terra function 'f' at line 3)"
    );
}

/// Runs `src` at `level`; returns the trap it ends in and the value of its
/// global `depth` then.
fn trap_and_depth(src: &str, level: terra_core::OptLevel) -> (String, f64) {
    let mut t = Terra::new();
    t.set_opt_level(level);
    let trap = t.exec(src).unwrap_err().message.clone();
    match t.exec("return depth:get()").unwrap()[..] {
        [terra_core::LuaValue::Number(d)] => (trap, d),
        ref other => panic!("{other:?}"),
    }
}

/// Direct recursion — of one function, and of two through a one-line
/// wrapper the inliner would otherwise take — keeps one frame per level at
/// every level: a callee that reaches itself is not inlined, so the stack
/// overflows at the same depth and the same site.
#[test]
fn direct_recursion_overflows_at_the_same_depth_at_every_level() {
    let selfcall = r#"
depth = global(int, 0)
terra f(n : int) : int
    depth = n
    return f(n + 1) + 1
end
f(0)
"#;
    let mutual = r#"
depth = global(int, 0)
local h = terralib.declare("h")
terra g(n : int) : int
    return h(n)
end
terra h(n : int) : int
    depth = n
    var r = g(n + 1)
    return r + 1
end
g(0)
"#;
    for (src, at, frames) in [
        (selfcall, "'f' at line 5", 4095.0),
        (mutual, "'h' at line 9", 2047.0),
    ] {
        let o0 = trap_and_depth(src, terra_core::OptLevel::O0);
        assert_eq!(
            o0,
            trap_and_depth(src, terra_core::OptLevel::O2),
            "-O0 vs -O2"
        );
        assert_eq!(
            o0,
            (
                format!("terra stack overflow (in terra function {at})"),
                frames
            )
        );
    }
}

/// A dispatch stub `Obj:get` — `return self.vt.f(self, x)`, the class
/// system's shape — and an implementation that recurses through it.
const THROUGH_A_VTABLE: &str = r#"
depth = global(int, 0)
struct VT { f : {&opaque, int} -> int }
struct Obj { vt : &VT, v : int }
terra Obj:get(x : int) : int
    return self.vt.f([&opaque](self), x)
end
terra impl(p : &opaque, x : int) : int
    depth = x
    var r = [&Obj](p):get(x + 1)
    return r + 1
end
terra use(o : &Obj) : int
    return o:get(1)
end
vt = global(VT)
terra run() : int
    vt.f = impl
    var o : Obj
    o.vt = &vt
    return o:get(0)
end
"#;

/// Through a null receiver the stub's first load faults, with the same
/// words at every level. At `-O2` the stub is part of its caller: the fault
/// is the caller's, at the stub's line, and the chain names the call.
#[test]
fn a_null_receiver_traps_alike_at_every_level() {
    let src = format!("{THROUGH_A_VTABLE}use(nil)");
    let kind = "invalid memory access of 8 byte(s) at address 0x0";
    let (o0, _) = trap_and_depth(&src, terra_core::OptLevel::O0);
    assert_eq!(
        o0,
        format!("{kind} (in terra function 'Obj:get' at line 6)")
    );
    let (o2, _) = trap_and_depth(&src, terra_core::OptLevel::O2);
    assert_eq!(
        o2,
        format!("{kind} (in terra function 'use' at line 6, generated inlined at line 14)")
    );
}

/// Recursion through a function pointer is the one place `-O2` may use
/// fewer frames than `-O0` (DESIGN.md §6d): the inliner takes the stub into
/// `impl` — the stub reaches nothing through direct calls — so a level is
/// one frame instead of two. Both still end in a located stack overflow.
#[test]
fn recursion_through_a_vtable_overflows_at_every_level() {
    let src = format!("{THROUGH_A_VTABLE}run()");
    let (o0, d0) = trap_and_depth(&src, terra_core::OptLevel::O0);
    let (o2, d2) = trap_and_depth(&src, terra_core::OptLevel::O2);
    assert_eq!(
        o0,
        "terra stack overflow (in terra function 'Obj:get' at line 6)"
    );
    assert_eq!(
        o2,
        "terra stack overflow (in terra function 'impl' at line 6, generated inlined at line 10)"
    );
    assert_eq!((d0, d2), (2046.0, 4094.0));
}

/// Whether `-O2` unrolled a loop of `src` (which traps) in `func`.
fn unrolls(src: &str, func: &str) -> bool {
    let mut t = Terra::new();
    t.exec(src).unwrap_err();
    let unrolled =
        |r: &terra_core::Remark| r.pass == "unroll" && r.kind == "applied" && &*r.site.func == func;
    t.remarks().iter().any(unrolled)
}

/// A loop with stage-time bounds is straight-line code at `-O2`: its trips
/// are copies of its body. A trap in the second trip is the loop's trap —
/// the same words at the same line — at every level.
#[test]
fn a_trap_in_an_unrolled_trip_is_the_loops_trap() {
    let src = r#"
terra taps(k : int) : int
    var s = 0
    for t = 0, 3 do
        s = s + 100 / (k - t)
    end
    return s
end
taps(1)
"#;
    assert!(unrolls(src, "taps"));
    let msg = trap_text(src);
    assert_eq!(
        msg,
        "integer division by zero (in terra function 'taps' at line 5)"
    );
}

/// The same for a store past the end of memory, written in a quote spliced
/// into the loop: the copy keeps the quote's line and the splice's chain.
#[test]
fn a_store_past_memory_in_an_unrolled_trip_keeps_its_staging_chain() {
    let src = r#"
local C = terralib.includec("stdlib.h")
local function poke(p, t)
    return quote
        p[t * 137438953472LL] = 1.0
    end
end
terra spill() : int
    var p = [&double](C.malloc(64))
    for t = 0, 3 do
        [poke(p, t)]
    end
    return 0
end
spill()
"#;
    assert!(unrolls(src, "spill"));
    let msg = trap_text(src);
    assert!(
        msg.starts_with("invalid memory access of 8 byte(s) at address 0x"),
        "{msg}"
    );
    assert!(
        msg.ends_with("(in terra function 'spill' at line 5, generated via quote at line 11)"),
        "{msg}"
    );
}

#[test]
fn abort_names_its_call_site() {
    let msg = trap_text(
        r#"
local C = terralib.includec("stdlib.h")
terra stop() : int
    C.abort()
    return 0
end
stop()
"#,
    );
    assert_eq!(msg, "program aborted (in terra function 'stop' at line 4)");
}

#[test]
fn an_indirect_call_through_a_non_function_is_located() {
    let msg = trap_text(
        r#"
terra through(p : &opaque) : int
    var fp = [{int} -> {int}](p)
    return fp(1)
end
through(1234)
"#,
    );
    assert_eq!(
        msg,
        "indirect call through non-function value 0x4d2 (in terra function 'through' at line 4)"
    );
}

#[test]
fn a_bad_printf_format_is_located() {
    let msg = trap_text(
        r#"
local C = terralib.includec("stdio.h")
terra fmt() : int
    C.printf("%d %d\n", 1)
    return 0
end
fmt()
"#,
    );
    assert_eq!(
        msg,
        "printf: too few arguments (in terra function 'fmt' at line 4)"
    );
}

#[test]
fn faults_raised_outside_terra_code_have_no_site() {
    use terra_core::TrapKind;
    let mut t = Terra::new();
    t.exec("terra id(x : int) : int return x end").unwrap();
    // The arity check at the FFI boundary…
    let id = t.function("id").unwrap();
    let arity = t.invoke(&id, &[]).unwrap_err();
    let (expected, got) = (1, 0);
    assert_eq!(arity.kind, TrapKind::ArityMismatch { expected, got });
    assert_eq!(arity.to_string(), "expected 1 argument(s) but got 0");
    // … a host-side free of an address the heap never handed out…
    let free = t.free(12).unwrap_err();
    assert!(matches!(free.kind, TrapKind::Memory(_)) && free.site.is_none());
    assert_eq!(free.to_string(), "free of non-heap address 0xc");
    // … and the static check of a `parallelfor` kernel, which runs before
    // any code of the region does.
    let kernel = t
        .exec(
            r#"
local C = terralib.includec("stdlib.h")
terra grow(n : int)
    parallelfor i = 0, n do
        C.free(C.malloc(8))
    end
end
grow(4)
"#,
        )
        .unwrap_err()
        .to_string();
    assert!(kernel.contains("parallelfor: kernel function"), "{kernel}");
    assert!(!kernel.contains("in terra function"), "{kernel}");
}

/// The kernel's two selections on a caller-passed buffer: a broadcast of a
/// loaded scalar (`load.splat`) and a vector load whose address goes through
/// a pointer cast (`load.v [p + i*8]`), both written in a quote; and the
/// prefetch that addresses like them.
const SELECTED_LOADS: &str = r#"
local vec = vector(double, 4)
local function lanes(p, i, wide)
    if wide then
        return quote
            var v = @[&vec](&p[i])
        in v end
    end
    return quote
        var v = [vec](p[i])
    in v end
end
local function kernel(wide)
    return terra(p : &double, i : int64, out : &double)
        var v = [lanes(p, i, wide)]
        @[&vec](out) = v
    end
end
bcast, vload = kernel(false), kernel(true)
terra hint(p : &double, i : int64)
    prefetch(p + i, 0, 3, 1)
end
"#;

#[test]
fn selected_loads_trap_like_the_loads_they_replace() {
    use terra_core::{OptLevel, Value};
    // Far enough past the 64 elements to leave the VM's memory.
    let past = Value::Int(1 << 40);
    let mut texts = Vec::new();
    for (level, elide) in [
        (OptLevel::O0, true),
        (OptLevel::O2, true),
        (OptLevel::O2, false),
    ] {
        let mut t = Terra::new();
        t.set_opt_level(level);
        t.set_check_elim(elide);
        t.exec(SELECTED_LOADS).unwrap();
        let (buf, out) = (Value::Ptr(t.malloc(64 * 8)), Value::Ptr(t.malloc(32)));
        let mut traps = Vec::new();
        for name in ["bcast", "vload"] {
            let f = t.function(name).unwrap();
            // In bounds it runs…
            let inside = [buf, Value::Int(8), out];
            t.invoke(&f, &inside).unwrap();
            let outside = [buf, past, out];
            traps.push(t.invoke(&f, &outside).unwrap_err().to_string());
        }
        // … and a hint past the end is not an access.
        let hint = t.function("hint").unwrap();
        t.invoke(&hint, &[buf, past]).unwrap();
        texts.push(traps);
    }
    let [bcast, vload] = &texts[0][..] else {
        panic!("two traps: {texts:?}");
    };
    assert!(
        bcast.starts_with("invalid memory access of 8 byte(s) at address 0x"),
        "{bcast}"
    );
    assert!(
        bcast.ends_with(
            "(in terra function 'anonymous' at line 10, generated via quote at line 15)"
        ),
        "{bcast}"
    );
    assert!(
        vload.starts_with("invalid memory access of 32 byte(s) at address 0x"),
        "{vload}"
    );
    assert!(
        vload
            .ends_with("(in terra function 'anonymous' at line 6, generated via quote at line 15)"),
        "{vload}"
    );
    assert_eq!(texts[1], texts[0], "-O2 against -O0");
    assert_eq!(texts[2], texts[0], "-O2 without check elision against -O0");
}

/// `--remarks=copyprop`: one `applied` remark per temporary coalesced, one
/// `missed` naming the read that keeps a swap's other temporary, each at its
/// line and with its staging chain. The loop's bound is a run-time value, so
/// the loop is not unrolled and each temporary is there once.
#[test]
fn copyprop_remarks_explain_coalescing() {
    let mut t = Terra::new();
    t.exec(
        r#"
local function bump(p, q, n)
    return quote
        p, q = p + n, q + 1
    end
end
terra walk(p : &double, q : &double, n : int64) : double
    var x, y = 1.0, 2.0
    for i = 0, n do
        [bump(p, q, n)]
        x, y = y, x
    end
    return @p + @q + x - y
end
walk:compile()
"#,
    )
    .unwrap();
    let ours: Vec<_> = t
        .remarks()
        .iter()
        .filter(|r| r.pass == "copyprop" && r.message.contains("coalesce"))
        .map(|r| (r.kind, r.site.line, r.site.fields().2, r.message.as_str()))
        .collect();
    let spliced = "via quote at line 10";
    assert_eq!(
        ours,
        [
            ("applied", 4, spliced, "coalesced temporary 'tmp' into 'p'"),
            ("applied", 4, spliced, "coalesced temporary 'tmp' into 'q'"),
            (
                "missed",
                11,
                "",
                "cannot coalesce temporary 'tmp' into 'x': 'x' is read at line 11, between the two"
            ),
            ("applied", 11, "", "coalesced temporary 'tmp' into 'y'"),
        ],
        "{:#?}",
        t.remarks()
    );
}

#[test]
fn checkelim_remarks_explain_proven_and_unproven_sites() {
    // One loop whose accesses are provably in-bounds (elided, with the
    // object named) and one whose index range the analysis cannot bound
    // tightly enough (kept checked, with the reason).
    let mut t = Terra::new();
    t.exec(
        r#"
terra mix(n : int) : int
    var a : int[4]
    var s = 0
    for i = 0, 4 do
        a[i] = i
    end
    for i = 0, n do
        s = s + a[i % 7]
    end
    return s
end
result = mix(3)
"#,
    )
    .unwrap();
    let remarks = t.remarks();
    assert!(
        remarks.iter().any(|r| r.pass == "checkelim"
            && r.kind == "applied"
            && r.message.contains("bounds check elided")
            && r.message.contains("proven within 'a'")),
        "expected an elided-store remark, got: {remarks:#?}"
    );
    assert!(
        remarks.iter().any(|r| r.pass == "checkelim"
            && r.kind == "missed"
            && r.message.contains("kept checked")
            && r.message.contains("not provably within the 16-byte object")),
        "expected a kept-checked remark with a reason, got: {remarks:#?}"
    );
}

/// The CLI surface over `examples/sieve.t`: `--remarks` prints the section
/// at `-O2` (an applied row with its staging chain) and no rows at `-O0`;
/// `--trace-out x.jsonl` writes them as byte-stable six-key `remark` records.
#[test]
fn cli_remarks_flag_and_json_export() {
    let terra = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_terra"))
            .args(args)
            .arg("../../examples/sieve.t")
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    // Remark rows read `  <pass> applied|missed <site> <message>`.
    let applied_by = |report: &str, passes: &[&str]| {
        report.lines().filter(|l| l.starts_with("  ")).any(|l| {
            let mut words = l.split_whitespace();
            words.next().is_some_and(|p| passes.contains(&p)) && words.next() == Some("applied")
        })
    };
    let o2 = terra(&["--remarks", "-O2"]);
    assert!(o2.contains("== remarks =="), "got: {o2}");
    assert!(applied_by(&o2, &["inline", "licm"]), "got: {o2}");
    assert!(o2.contains("via quote at line"), "got: {o2}");
    let o0 = terra(&["--remarks", "-O0"]);
    assert!(
        !o0.contains(" applied ") && !o0.contains(" missed "),
        "-O0 must produce no remarks: {o0}"
    );

    let export = |name: &str| {
        let path = std::env::temp_dir().join(format!("terra-{}-{name}", std::process::id()));
        terra(&["--trace-out", path.to_str().unwrap(), "-O2"]);
        let jsonl = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let remarks = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"remark\""));
        remarks.collect::<Vec<_>>().join("\n")
    };
    let json = export("remarks-a.jsonl");
    let first = json.lines().next().expect("remark records");
    for key in ["pass", "kind", "func", "line", "provenance", "message"] {
        assert!(first.contains(&format!("\"{key}\":")), "missing key {key}");
    }
    assert_eq!(
        json,
        export("remarks-b.jsonl"),
        "remark records are not stable"
    );
}

// The call protocol by its corners. A callee's frame starts at its caller's
// argument block (DESIGN.md §6g), so a call copies nothing in and a return
// copies one result out; these are the programs where that could show.
// Each row is what the program prints at `-O0` and at `-O2`.

/// A pointer cast to a type with fewer parameters: the missing one reads 0.
const FEWER_PARAMETERS: &str = "\
terra two(a : int, b : int) : int return a * 10 + b end
terra f() : int
    var p = [{int} -> int](two)
    return p(7)
end
print(f())
";

/// A vector argument and a vector result, each four slots, through a
/// function pointer the host passes.
const VECTORS_THROUGH_A_POINTER: &str = "\
local std = terralib.includec(\"stdlib.h\")
local vec = vector(double, 4)
terra twice(v : vec, k : double) : vec return v + v + vec(k) end
terra g(fp : {vec, double} -> vec) : double
    var p = [&double](std.malloc(8 * 8))
    for i = 0, 8 do p[i] = i * 1.0 end
    var vp = [&vec](p)
    @(vp + 1) = fp(@vp, 0.5)
    var s = 0.0
    for i = 0, 8 do s = s + p[i] * (i + 1) end
    std.free(p)
    return s
end
print(g(twice))
";

/// Results whose destination is an argument of the same call, directly and
/// through a pointer, once per variable and crossed.
const RESULT_OVER_ITS_ARGUMENTS: &str = "\
terra inc(x : int) : int return x * 3 + 1 end
terra h(fp : {int} -> int, n : int) : int
    var x = n
    x = fp(x)
    x = inc(x)
    var a, b = 1, 2
    a, b = fp(b), fp(a)
    a, b = inc(b), inc(a)
    return x * 10000 + a * 100 + b
end
print(h(inc, 5))
";

/// A fault in the third frame, inside a spliced quote.
const THREE_FRAMES_DEEP: &str = "\
local function deref(p) return quote var q = @p in q end end
terra c(p : &int) : int return [deref(p)] + 3 end
terra b(p : &int) : int return c(p) * 2 end
terra a() : int return b(nil) + 1 end
print(pcall(a))
";

/// The same fault reached through a function pointer.
const THREE_FRAMES_THROUGH_A_POINTER: &str = "\
terra c(p : &int) : int return @p + 3 end
terra b(fp : {&int} -> int, p : &int) : int return fp(p) * 2 end
terra a(fp : {&int} -> int) : int return b(fp, nil) + 1 end
print(pcall(a, c))
";

/// A `parallelfor` kernel that calls a helper (not inlined at `-O0`).
const A_KERNEL_THAT_CALLS: &str = "\
terra sq(x : int) : int return x * x - 1 end
terra k(out : &int, n : int)
    parallelfor i = 0, n do out[i] = sq(i) + i end
end
terra run() : int
    var buf : int[16]
    k(&buf[0], 16)
    var s = 0
    for i = 0, 16 do s = s + buf[i] * (i + 1) end
    return s
end
print(run())
";

/// Unbounded recursion through a pointer: where it stops, and how deep.
const RECURSION_THROUGH_A_POINTER: &str = "\
depth = global(int, 0)
terra r(fp : {&opaque, int} -> int, self : &opaque, n : int) : int
    depth = n
    return fp(self, n + 1) + 1
end
terra step(self : &opaque, n : int) : int
    return r(step, self, n)
end
print(pcall(r, step, nil, 0)) print(depth:get())
";

#[test]
fn the_call_protocol_keeps_every_corner() {
    let null = "invalid memory access of 4 byte(s) at address 0x0 (in terra function 'c' at line 1";
    let overflow = "false\tterra stack overflow (in terra function 'step' at line";
    let rows: [(&str, [String; 2]); 7] = [
        (FEWER_PARAMETERS, ["70\n".into(), "70\n".into()]),
        (VECTORS_THROUGH_A_POINTER, ["121\n".into(), "121\n".into()]),
        (
            RESULT_OVER_ITS_ARGUMENTS,
            ["491322\n".into(), "491322\n".into()],
        ),
        (THREE_FRAMES_DEEP, {
            let text = format!("false\t{null}, generated via quote at line 2)\n");
            [text.clone(), text]
        }),
        (THREE_FRAMES_THROUGH_A_POINTER, {
            let text = format!("false\t{null})\n");
            [text.clone(), text]
        }),
        (A_KERNEL_THAT_CALLS, ["16864\n".into(), "16864\n".into()]),
        // At `-O2` the inliner takes `r` into `step`: a level is one frame,
        // not two (DESIGN.md §6d).
        (
            RECURSION_THROUGH_A_POINTER,
            [
                format!("{overflow} 7)\n2047\n"),
                format!("{overflow} 4, generated inlined at line 7)\n4095\n"),
            ],
        ),
    ];
    for (src, want) in rows {
        let levels = [terra_core::OptLevel::O0, terra_core::OptLevel::O2];
        for (level, want) in levels.into_iter().zip(want) {
            for threads in [1, 2] {
                let mut t = Terra::new();
                t.set_opt_level(level);
                t.set_threads(threads);
                t.capture_output();
                t.exec(src).unwrap();
                assert_eq!(
                    t.take_output(),
                    want,
                    "{level:?} --threads={threads}:\n{src}"
                );
            }
        }
    }
}
