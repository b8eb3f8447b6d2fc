//! Acceptance tests for the mid-end optimization pipeline: the autotuned
//! GEMM kernel and the Orion area filter must retire strictly fewer VM
//! instructions at `-O2` than at `-O0`, while producing bit-identical
//! results. Instruction counts come from the deterministic VM profile, so
//! these assertions are reproducible run-to-run.

use terra_autotune::{GemmConfig, GemmSession, Precision};
use terra_core::{OptLevel, Terra};
use terra_orion::{area_filter, ImageBuf, Schedule, Strategy};

/// Runs the generated 32×32 DGEMM at `level`; returns (total instructions,
/// inner-kernel exclusive instructions, the C matrix).
fn gemm_at(level: OptLevel) -> (u64, u64, Vec<u64>) {
    let mut s = GemmSession::with_opt_level(level).expect("gemm session");
    let cfg = GemmConfig {
        nb: 16,
        rm: 2,
        rn: 2,
        v: 4,
    };
    let f = s.generated(32, cfg, Precision::F64).expect("staging");
    let ws = s.workspace(32, Precision::F64);
    s.terra().set_profile(true);
    s.terra().reset_profile();
    s.run(&f, &ws);
    let profile = s.terra().profile();
    let total = profile.total_instructions();
    // The register-blocked inner kernel is staged as an anonymous Terra
    // function; its exclusive count isolates the hot loop.
    let inner = profile
        .func("anonymous")
        .expect("inner kernel profiled")
        .counters
        .exclusive;
    s.terra().set_profile(false);
    ws.verify(&s);
    let c = s
        .terra()
        .read_f64s(ws.c, 32 * 32)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    (total, inner, c)
}

#[test]
fn gemm_kernel_retires_fewer_instructions_at_o2() {
    let (total0, inner0, c0) = gemm_at(OptLevel::O0);
    let (total2, inner2, c2) = gemm_at(OptLevel::O2);
    // The bytecode compiler's own savings (free casts, bottom-tested loops,
    // pinned constants) apply at every level; what -O2 adds on top — hoisted
    // and shared index arithmetic, proven wraps — is worth another quarter.
    assert!(
        4 * total2 <= 3 * total0,
        "-O2 must retire at most 3/4 of -O0's instructions: O0={total0} O2={total2}"
    );
    assert!(
        4 * inner2 <= 3 * inner0,
        "inner kernel must shrink by a quarter: O0={inner0} O2={inner2}"
    );
    // 71 206 before loops were rotated and wraps proven away, 56 648 before
    // memory instructions took address operands and loops their own edge.
    assert!(total2 <= 52_500, "the -O2 stream grew back: {total2}");
    assert_eq!(c0, c2, "optimized GEMM must produce bit-identical C");
}

/// Runs the §6.2 area filter at `level`; returns (total instructions, the
/// output image).
fn orion_at(level: OptLevel, schedule: Schedule) -> (u64, Vec<u32>) {
    let (w, h) = (32, 24);
    let mut t = Terra::new();
    t.set_opt_level(level);
    let p = area_filter();
    let stencil = p.compile(&mut t, w, h, schedule).expect("staging");
    let input = ImageBuf::alloc(&mut t, &stencil);
    let data: Vec<f32> = (0..w * h)
        .map(|i| ((i % 11) as f32 - 5.0) * 0.125)
        .collect();
    input.write(&mut t, &data);
    let out = ImageBuf::alloc(&mut t, &stencil);
    t.set_profile(true);
    t.reset_profile();
    stencil.run(&mut t, &[&input], &out);
    let total = t.profile().total_instructions();
    t.set_profile(false);
    let img = out.read(&t).into_iter().map(f32::to_bits).collect();
    (total, img)
}

#[test]
fn orion_area_filter_retires_fewer_instructions_at_o2() {
    for (label, schedule) in [
        (
            "inline",
            Schedule {
                strategy: Strategy::Inline,
                vectorize: false,
            },
        ),
        (
            "materialize",
            Schedule {
                strategy: Strategy::Materialize,
                vectorize: false,
            },
        ),
    ] {
        let (i0, img0) = orion_at(OptLevel::O0, schedule);
        let (i2, img2) = orion_at(OptLevel::O2, schedule);
        assert!(
            i2 < i0,
            "area filter ({label}) must retire fewer instructions at -O2: O0={i0} O2={i2}"
        );
        assert_eq!(img0, img2, "({label}) output must be bit-identical");
    }
}

#[test]
fn opt_levels_are_session_scoped() {
    // The knob affects functions compiled after it is set, per session.
    let mut t = Terra::new();
    assert_eq!(t.opt_level(), OptLevel::O2);
    t.set_opt_level(OptLevel::O0);
    assert_eq!(t.opt_level(), OptLevel::O0);
    t.exec("terra f(x : int) : int return x * 8 + x * 8 end")
        .unwrap();
    assert_eq!(t.call_i64("f", &[3.0]).unwrap(), 48);
}

/// Fig. 6's naive DGEMM over `n`×`n` matrices as a `gemm(n)` that returns
/// the last element of the product. `staged` splices `n` into the kernel as
/// a constant, as the paper's generator does; otherwise it arrives as a
/// runtime `int32`.
fn naive_gemm_src(n: u64, staged: bool) -> String {
    let size = if staged { "[N]" } else { "n" };
    format!(
        r#"
local std = terralib.includec("stdlib.h")
local N = {n}
terra gemm(n : int32) : double
    var A = [&double](std.malloc([N * N * 8]))
    var B = [&double](std.malloc([N * N * 8]))
    var C = [&double](std.malloc([N * N * 8]))
    for i = 0, [N * N] do
        A[i] = i % 7
        B[i] = i % 5
    end
    for i = 0, {size} do
        for j = 0, {size} do
            var sum = 0.0
            for k = 0, {size} do
                sum = sum + A[i * {size} + k] * B[k * {size} + j]
            end
            C[i * {size} + j] = sum
        end
    end
    var r = C[{last}]
    std.free([&int8](A))
    std.free([&int8](B))
    std.free([&int8](C))
    return r
end
"#,
        last = n * n - 1
    )
}

/// Retired-instruction counts by opcode of one `gemm(n)`.
fn naive_gemm_ops(n: u64, staged: bool) -> terra_core::Profile {
    let mut t = Terra::new();
    t.exec(&naive_gemm_src(n, staged)).unwrap();
    t.set_profile(true);
    t.reset_profile();
    let expected: u64 = (0..n)
        .map(|k| (((n - 1) * n + k) % 7) * ((k * n + n - 1) % 5))
        .sum();
    assert_eq!(t.call_f64("gemm", &[n as f64]).unwrap(), expected as f64);
    t.profile()
}

/// The claim of the back end (DESIGN.md §6d "affine", §6j), in counters: with
/// the sizes known at stage 0, an iteration of `sum = sum + A[i*N+k] *
/// B[k*N+j]` is the four instructions of the program — two loads, a
/// multiply, an add — and one for the loop; the addresses are operands of
/// the loads, their invariant parts computed outside. An opcode that retires
/// fewer times than there are inner iterations between two sizes retires
/// zero times per iteration.
#[test]
fn staged_naive_gemm_retires_no_bookkeeping_in_its_inner_loop() {
    let (small, large) = (16u64, 32u64);
    let inner = large.pow(3) - small.pow(3);
    let (a, b) = (naive_gemm_ops(small, true), naive_gemm_ops(large, true));
    let per_iteration = (b.total_instructions() - a.total_instructions()) as f64 / inner as f64;
    assert!(per_iteration <= 6.0, "{per_iteration} instructions");
    let bookkeeping = [
        "lea", "shl", "add.i", "mul.i", "trunc", "mov", "jmp", "const.i", "cmp.lt.s", "br.false",
        "br.lt.s", "add.i32", "sub.i32", "mul.i32", "shl.i32",
    ];
    for op in bookkeeping {
        let grew = b.op_count(op) - a.op_count(op);
        assert!(grew < inner, "{op}: {grew} more over {inner} iterations");
    }
    assert_eq!(wraps(&b), 0, "every wrap is proven away");
    assert_eq!(b.op_count("chk"), 0, "every access is proven in bounds");
    assert_eq!(b.op_count("loop.lt.s") - a.op_count("loop.lt.s"), {
        // One back edge per iteration of each of the three loops.
        let edges = |n: u64| n.pow(3) + n.pow(2) + n + n.pow(2);
        edges(large) - edges(small)
    });

    // With `n` a runtime value nothing bounds `i * n + k`: the proof must
    // not fire, the index arithmetic keeps wrapping, and the address is not
    // taken apart.
    let (a, b) = (naive_gemm_ops(small, false), naive_gemm_ops(large, false));
    let grew = wraps(&b) - wraps(&a);
    assert!(
        grew >= 2 * inner,
        "wraps: only {grew} more over {inner} iterations"
    );
}

/// Retired instructions that wrap a result into a narrow type: `trunc`, and
/// the `int32` arithmetic rows that wrap inside the instruction.
fn wraps(p: &terra_core::Profile) -> u64 {
    ["trunc", "add.i32", "sub.i32", "mul.i32", "shl.i32"]
        .iter()
        .map(|op| p.op_count(op))
        .sum()
}

/// The instruction of a line of `f:disas()`, its register numbers (the
/// allocator's business) masked.
fn masked(line: &str) -> String {
    let mut out = String::new();
    let mut chars = line[12..].chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == 'r' && chars.peek().is_some_and(char::is_ascii_digit) {
            out.push('#');
            while chars.next_if(char::is_ascii_digit).is_some() {}
        }
    }
    out
}

/// The same claim as text: `gemm:disas()` is one line per instruction —
/// index, source line, instruction — and the Fig. 6 loop is five of them.
/// Register numbers are the allocator's; the shape is the contract.
#[test]
fn the_fig6_inner_loop_is_five_instructions_of_disassembly() {
    let mut t = Terra::new();
    t.exec(&naive_gemm_src(32, true)).unwrap();
    let out = t.exec("return gemm:disas()").unwrap();
    let terra_core::LuaValue::Str(text) = &out[0] else {
        panic!("disas returns a string: {out:?}");
    };
    let lines: Vec<&str> = text.lines().collect();
    // Every line is `pc line instruction`, numbered from 0.
    for (pc, line) in lines.iter().enumerate() {
        assert_eq!(line[..4].trim().parse(), Ok(pc), "{line:?}");
    }
    let source_line = |l: &str| l[4..10].trim().parse::<u32>().ok();
    // The `k` loop is the statement on source line 15, its body line 16; the
    // back edge jumps to the first load.
    let top = lines
        .iter()
        .position(|l| source_line(l) == Some(16))
        .expect("the loop body");
    let the_loop: Vec<String> = lines[top..top + 5].iter().map(|l| masked(l)).collect();
    assert_eq!(
        the_loop,
        [
            "load.f64 r#, [r# + r#*8]".to_string(),
            "load.f64 r#, [r# + r#*256]".to_string(),
            "mul.f64 r#, r#, r#".to_string(),
            "add.f64 r#, r#, r#".to_string(),
            format!("loop.lt.s r#, r#, r# -> {top}"),
        ],
        "{text}"
    );
    assert_eq!(source_line(lines[top + 4]), Some(15), "{text}");
    assert_eq!(source_line(lines[top + 5]), Some(18), "{text}");
}

/// The claim of §6.1 (Fig. 5), where the paper states it: the k-loop the VM
/// retires is the one `genkernel` wrote — RN vector loads of B, RM broadcast
/// loads of A, RM·RN multiply-adds, a prefetch, two pointer bumps and the
/// loop's own edge — for every register blocking, as counters and as text.
#[test]
fn the_fig5_k_loop_is_what_the_generator_wrote() {
    let (nb, v) = (128u64, 4u64);
    for (rm, rn) in [(4u64, 4u64), (2, 4), (1, 1)] {
        let mut s = GemmSession::new().expect("gemm session");
        s.terra()
            .exec(&format!(
                "kernel = genkernel({nb}, {rm}, {rn}, {v}, 1, double)"
            ))
            .unwrap();
        let kernel = s.terra().function("kernel").unwrap();
        let ws = s.workspace(nb as usize, Precision::F64);
        let [a, b, c] = [ws.a, ws.b, ws.c].map(terra_core::Value::Ptr);
        let ld = terra_core::Value::Int(nb as i64);
        let args = [a, b, c, ld, ld, ld];
        s.terra().set_profile(true);
        s.terra().reset_profile();
        s.terra().invoke(&kernel, &args).expect("the kernel runs");
        let p = s.terra().profile();
        s.terra().set_profile(false);

        // Iterations of the three loops, innermost first.
        let nn = nb / rm * (nb / (rn * v));
        let k = nn * nb;
        let written = rn + rm + rm * rn + 4;
        assert_eq!(p.op_count("prefetch"), k, "RM={rm} RN={rn}");
        assert_eq!(p.op_count("vfma.f64"), rm * rn * k, "RM={rm} RN={rn}");
        assert_eq!(p.op_count("load.splat.f64"), rm * k, "RM={rm} RN={rn}");
        assert_eq!(
            p.op_count("load.v"),
            rn * k + rm * rn * nn,
            "RM={rm} RN={rn}"
        );
        assert_eq!(p.op_count("loop.lt.s"), k + nn + nb / rm, "RM={rm} RN={rn}");
        // Everything outside the k-loop together retires less often than
        // the loop iterates (NB is large enough), so the quotient is the
        // loop's length.
        let retired = p.total_instructions() - p.op_count("chk");
        assert_eq!(retired / k, written, "RM={rm} RN={rn}: {retired} over {k}");

        let out = s.terra().exec("return kernel:disas()").unwrap();
        let terra_core::LuaValue::Str(text) = &out[0] else {
            panic!("disas returns a string: {out:?}");
        };
        let lines: Vec<String> = text.lines().map(masked).collect();
        let top = lines
            .iter()
            .position(|l| l.starts_with("prefetch"))
            .expect("the loop starts with its prefetch");
        let disp = |bytes: u64| match bytes {
            0 => String::new(),
            d => format!(" + {d}"),
        };
        let mut expected = vec!["prefetch [r# + r#*1]".to_string()];
        expected.extend((0..rn).map(|n| format!("load.v! r#, [r#{}], bytes=32", disp(32 * n))));
        expected.extend((0..rm).map(|m| match m {
            0 => "load.splat.f64! r#, [r#]".to_string(),
            _ => "load.splat.f64! r#, [r# + r#*1]".to_string(),
        }));
        expected.extend((0..rm * rn).map(|_| "vfma.f64 r#, r#, r#".to_string()));
        expected.push("add.i r#, r#, r#".to_string());
        expected.push("lea r#, [r# + 8]".to_string());
        expected.push(format!("loop.lt.s r#, r#, r# -> {top}"));
        assert_eq!(expected.len() as u64, written);
        assert_eq!(
            lines[top..top + expected.len()],
            expected[..],
            "RM={rm} RN={rn}:\n{text}"
        );
    }
}

/// §6.3.1's class hierarchy as `dispatch-calls` builds it, with its two
/// dispatching loops and constructors the host can call.
const DISPATCH: &str = r#"
local std = terralib.includec("stdlib.h")
Scorer = J.interface { score = {int} -> int }
struct Base { bias : int }
struct Derived { mul : int }
struct Other { k : int }
J.extends(Derived, Base)
J.implements(Base, Scorer)
J.implements(Other, Scorer)
terra Base:score(x : int) : int return (x + self.bias) % 1000003 end
base_score = Base.methods.score
terra Derived:score(x : int) : int return (x * self.mul + self.bias) % 1000003 end
terra Other:score(x : int) : int return (x * 5 + self.k) % 1000003 end
terra newbase(bias : int) : &Base
    var o = [&Base](std.malloc(sizeof(Base)))
    o:initclass()
    o.bias = bias
    return o
end
terra newderived(bias : int, mul : int) : &Derived
    var o = [&Derived](std.malloc(sizeof(Derived)))
    o:initclass()
    o.bias = bias
    o.mul = mul
    return o
end
terra newother(k : int) : &Other
    var o = [&Other](std.malloc(sizeof(Other)))
    o:initclass()
    o.k = k
    return o
end
terra asbase(d : &Derived) : &Base return d end
terra scorer(b : &Base) : &Scorer return b end
terra oscorer(o : &Other) : &Scorer return o end
terra virtual_loop(a : &Base, b : &Base, n : int) : int
    var acc = 1
    for i = 0, n do
        acc = a:score(acc)
        acc = b:score(acc)
    end
    return acc
end
terra interface_loop(a : &Scorer, b : &Scorer, n : int) : int
    var acc = 1
    for i = 0, n do
        acc = a:score(acc)
        acc = b:score(acc)
    end
    return acc
end
"#;

/// The claim of §6.3.1 that the paper owes to LLVM inlining the dispatch
/// stub: at `-O2` a virtual or interface call is the stub's two loads (the
/// object's table, the slot), the moves into the argument block and one
/// `call.indirect` — no `call` of the stub, no `frame.addr` spilling a
/// pointer receiver — as counters and as `disas()` text.
#[test]
fn a_virtual_call_is_one_indirect_call() {
    let mut s = terra_classes::ClassSession::new().expect("class library");
    s.exec(DISPATCH).unwrap();
    let mut ptr = |call: &str| match s.terra().exec(&format!("return {call}")).unwrap()[..] {
        [terra_core::LuaValue::Number(p)] => terra_core::Value::Ptr(p as u64),
        ref other => panic!("{call}: {other:?}"),
    };
    let (base, derived) = (ptr("newbase(7)"), ptr("asbase(newderived(3, 11))"));
    let (ibase, iother) = (ptr("scorer(newbase(7))"), ptr("oscorer(newother(5))"));
    for (name, a, b) in [
        ("virtual_loop", base, derived),
        ("interface_loop", ibase, iother),
    ] {
        let f = s.terra().function(name).unwrap();
        let mut ops = |n: i64| {
            let t = s.terra();
            t.set_profile(true);
            t.reset_profile();
            t.invoke(&f, &[a, b, terra_core::Value::Int(n)])
                .expect("the loop runs");
            let p = t.profile();
            t.set_profile(false);
            p
        };
        let (small, large) = (ops(1000), ops(3000));
        let calls = 2 * (3000 - 1000);
        let grew = |op: &str| large.op_count(op) - small.op_count(op);
        assert_eq!(large.op_count("call"), 0, "{name}: the stub is inlined");
        assert_eq!(
            large.op_count("frame.addr"),
            0,
            "{name}: receivers stay in registers"
        );
        assert_eq!(grew("call.indirect"), calls, "{name}");
        assert_eq!(grew("load.64"), 2 * calls, "{name}: the table and the slot");
        assert_eq!(
            grew("mov"),
            2 * calls,
            "{name}: the receiver and the argument"
        );
        assert_eq!(
            grew("ret"),
            calls,
            "{name}: one frame per call, the callee's"
        );

        let out = s.terra().exec(&format!("return {name}:disas()")).unwrap();
        let terra_core::LuaValue::Str(text) = &out[0] else {
            panic!("disas returns a string: {out:?}");
        };
        let lines: Vec<String> = text.lines().map(masked).collect();
        let top = lines
            .iter()
            .position(|l| l.starts_with("load.64"))
            .expect("the loop starts with the first stub's load");
        let one_call = [
            "load.64! r#, [r#]",
            "load.64! r#, [r#]",
            "mov r#, r#, w=1",
            "mov r#, r#, w=1",
            "call.indirect r#, r#, r#, w=1, nargs=2",
        ];
        let mut expected: Vec<String> = one_call
            .iter()
            .chain(&one_call)
            .map(|l| l.to_string())
            .collect();
        expected.push(format!("loop.lt.s r#, r#, r# -> {top}"));
        assert_eq!(
            lines[top..top + expected.len()],
            expected[..],
            "{name}:\n{text}"
        );
    }

    // The body the call reaches: the field, an `int` add that wraps
    // inside its own instruction, the modulus and the return.
    let out = s.terra().exec("return base_score:disas()").unwrap();
    let terra_core::LuaValue::Str(text) = &out[0] else {
        panic!("disas returns a string: {out:?}");
    };
    let lines: Vec<String> = text.lines().map(masked).collect();
    assert_eq!(
        lines,
        [
            "load.i32! r#, [r# + 8]",
            "add.i32 r#, r#, r#",
            "const.i r#, v=1000003",
            "rem.s r#, r#, r#",
            "ret r#, w=1",
        ],
        "Base:score:\n{text}"
    );
}

/// `stencil-par`'s blur at its width (the `benchmark/` workload's `W`),
/// over fewer rows: a 3×3 box sum under `parallelfor`, its taps two loops
/// with stage-time bounds.
const BLUR: &str = r#"
local W, H = 256, 8
terra blur(src : &float, dst : &float)
    parallelfor y = 1, [H - 1] do
        for x = 1, [W - 1] do
            var s : float = 0.0f
            for dy = -1, 2 do
                for dx = -1, 2 do
                    s = s + src[(y + dy) * W + (x + dx)]
                end
            end
            dst[y * W + x] = s
        end
    end
end
"#;

/// The claim of the `unroll` pass (DESIGN.md §6d), in counters and as text:
/// the taps' loops are gone from the kernel, so a pixel is the nine loads
/// the program asks for — each `[row + x*4 ± d]`, its tap a displacement —
/// nine adds, the store, the zero the sum starts from and the `x` loop's
/// edge: 21 instructions, not 45.
#[test]
fn a_constant_tap_loop_is_straight_line() {
    let (w, h) = (256u64, 8u64);
    let pixels = (w - 2) * (h - 2);
    let mut t = Terra::new();
    t.exec(BLUR).unwrap();
    let blur = t.function("blur").unwrap();
    let (src, dst) = (t.malloc(w * h * 4), t.malloc(w * h * 4));
    t.set_profile(true);
    t.reset_profile();
    let args = [terra_core::Value::Ptr(src), terra_core::Value::Ptr(dst)];
    t.invoke(&blur, &args).expect("the blur runs");
    let p = t.profile();
    t.set_profile(false);
    assert_eq!(p.op_count("load.f32"), 9 * pixels);
    assert_eq!(p.op_count("add.f32"), 9 * pixels);
    assert_eq!(p.op_count("store.f32"), pixels);
    assert_eq!(p.op_count("loop.lt.s"), pixels, "one back edge per pixel");
    // What each row adds besides its pixels retires less often than a row
    // has pixels, so the quotient is a pixel's length.
    let retired = p.total_instructions() - p.op_count("chk");
    assert_eq!(retired / pixels, 21, "{retired} over {pixels} pixels");

    let out = t.exec("return blur:disas()").unwrap();
    let terra_core::LuaValue::Str(text) = &out[0] else {
        panic!("disas returns a string: {out:?}");
    };
    let (_, kernel) = text
        .split_once("kernel 'blur$par")
        .expect("disas lists the kernel the parallelfor runs");
    let lines: Vec<String> = kernel.lines().skip(1).map(masked).collect();
    let top = lines
        .iter()
        .position(|l| l.starts_with("const.f32"))
        .expect("the pixel starts with its zero");
    let row = w as i64 * 4;
    let mut expected = vec!["const.f32 r#, v=0.0".to_string()];
    for d in [-row - 4, -row, -row + 4, -4, 0, 4, row - 4, row, row + 4] {
        let disp = match d {
            0 => String::new(),
            d if d < 0 => format!(" - {}", -d),
            d => format!(" + {d}"),
        };
        expected.push(format!("load.f32! r#, [r# + r#*4{disp}]"));
        expected.push("add.f32 r#, r#, r#".to_string());
    }
    expected.push("store.f32! r#, [r# + r#*4]".to_string());
    expected.push(format!("loop.lt.s r#, r#, r# -> {top}"));
    assert_eq!(expected.len(), 21);
    assert_eq!(lines[top..top + expected.len()], expected[..], "{text}");
}

/// Two loops with constant bounds, the same body each: `t` is private to
/// an iteration (only the body reads it, and writes it first).
const SHORT_LOOPS: &str = r#"
terra one(p : &int) : int
    var s = 1
    for i = 0, 1 do
        var t = p[i] * 3
        s = s + t * t
    end
    return s
end
terra two(p : &int) : int
    var s = 1
    for i = 0, 2 do
        var t = p[i] * 3
        s = s + t * t
    end
    return s
end
"#;

/// `name`'s result on `p = {2, 5}`, its `disas()` text and the message of
/// its one `unroll` remark.
fn short_loop(name: &str) -> (i64, String, String) {
    let mut t = Terra::new();
    t.exec(SHORT_LOOPS).unwrap();
    let p = t.malloc(8);
    // The bits of the `int`s 2 and 5.
    t.write_f32s(p, &[f32::from_bits(2), f32::from_bits(5)]);
    let f = t.function(name).unwrap();
    let got = match t.invoke(&f, &[terra_core::Value::Ptr(p)]).unwrap() {
        terra_core::Value::Int(v) => v,
        other => panic!("{name} returns an int: {other:?}"),
    };
    let out = t.exec(&format!("return {name}:disas()")).unwrap();
    let terra_core::LuaValue::Str(text) = &out[0] else {
        panic!("disas returns a string: {out:?}");
    };
    let remarks: Vec<_> = t.remarks().iter().filter(|r| r.pass == "unroll").collect();
    assert_eq!(remarks.len(), 1, "{remarks:?}");
    (got, text.to_string(), remarks[0].message.clone())
}

/// A loop of one trip is replaced by its body, the counter by 0: the code
/// is the body's, without a compare or a branch.
#[test]
fn a_one_trip_loop_is_its_body() {
    let (got, text, remark) = short_loop("one");
    assert_eq!(got, 1 + 6 * 6);
    assert_eq!(remark, "replaced a loop of 1 trip by its body");
    assert_eq!(
        text,
        "   0     3  const.i r1, v=1\n\
         \x20  1     5  load.i32! r4, [r0]\n\
         \x20  2     5  const.i r5, v=3\n\
         \x20  3     5  mul.i32 r3, r4, r5\n\
         \x20  4     6  mul.i32 r4, r3, r3\n\
         \x20  5     6  add.i32 r1, r1, r4\n\
         \x20  6     8  ret r1, w=1\n"
    );
}

/// A loop of two trips is two copies in order, the counter 0 then 1 (a
/// displacement of 4), and the second copy's `t` is a local of its own:
/// `r3` in the first copy, `r4` in the second.
#[test]
fn a_two_trip_loop_gives_each_copy_its_own_temporaries() {
    let (got, text, remark) = short_loop("two");
    assert_eq!(got, 1 + 6 * 6 + 15 * 15);
    assert_eq!(remark, "unrolled 2 trips (+16 IR nodes)");
    assert_eq!(
        text,
        "   0    11  const.i r1, v=1\n\
         \x20  1    13  load.i32! r5, [r0]\n\
         \x20  2    13  const.i r6, v=3\n\
         \x20  3    13  mul.i32 r3, r5, r6\n\
         \x20  4    14  mul.i32 r5, r3, r3\n\
         \x20  5    14  add.i32 r1, r1, r5\n\
         \x20  6    13  load.i32! r5, [r0 + 4]\n\
         \x20  7    13  const.i r6, v=3\n\
         \x20  8    13  mul.i32 r4, r5, r6\n\
         \x20  9    14  mul.i32 r5, r4, r4\n\
         \x20 10    14  add.i32 r1, r1, r5\n\
         \x20 11    16  ret r1, w=1\n"
    );
}

/// `(x - x) * y` retires no multiply: the difference becomes the constant 0
/// and, in the same bottom-up walk, the product over it (`y` is pure) is 0
/// too. Rewriting the difference in a later pass than the product left
/// `0 * y` for the VM to compute.
#[test]
fn a_cancelled_operand_takes_its_product_with_it() {
    let mut t = Terra::new();
    t.exec("terra cancel(x : int, y : int) : int return (x - x) * y end")
        .unwrap();
    let f = t.function("cancel").unwrap();
    t.set_profile(true);
    t.reset_profile();
    let args = [terra_core::Value::Int(3), terra_core::Value::Int(5)];
    let got = t.invoke(&f, &args).unwrap();
    let p = t.profile();
    t.set_profile(false);
    assert!(matches!(got, terra_core::Value::Int(0)), "{got:?}");
    assert_eq!(p.op_count("mul.i") + p.op_count("mul.i32"), 0);
    assert_eq!(p.total_instructions(), 2, "the constant and the return");
}

/// `w[0]` addresses `w + 0`, a pointer offset by zero, which `fold` drops
/// before `unroll` measures the loop around it. The body is then 13 IR
/// nodes and its 20 trips add 19 × 13 = 247 of `MAX_UNROLL_GROWTH`'s 256;
/// measured with the `+ 0` (two nodes more) they would add 285, and the
/// loop would stay one.
#[test]
fn a_loop_is_measured_after_its_zero_offsets_are_gone() {
    let mut t = Terra::new();
    t.exec(
        "terra dot(w : &int, x : &int) : int
             var acc = 0
             for k = 0, 20 do
                 acc = acc + w[0] * x[k]
             end
             return acc
         end
         terra run() : int
             var a : int[20]
             for i = 0, 20 do a[i] = i + 1 end
             return dot(&a[0], &a[0])
         end",
    )
    .unwrap();
    let run = t.function("run").unwrap();
    assert!(matches!(
        t.invoke(&run, &[]).unwrap(),
        terra_core::Value::Int(210)
    ));
    let dot: Vec<_> = t
        .remarks()
        .iter()
        .filter(|r| r.pass == "unroll" && &*r.site.func == "dot")
        .map(|r| r.message.clone())
        .collect();
    assert_eq!(dot, ["unrolled 20 trips (+247 IR nodes)"]);
    let out = t.exec("return dot:disas()").unwrap();
    let terra_core::LuaValue::Str(text) = &out[0] else {
        panic!("disas returns a string: {out:?}");
    };
    assert!(!text.contains("loop."), "{text}");
}
