//! The six workloads: for each, a seeded generator of the `.t` program the
//! `terra` CLI is given, and an independent native implementation that
//! computes the stdout the program must print.
//!
//! The seed is the only source of randomness. It reaches the program as
//! constants inside the generated source: the initial state of a generator
//! the program runs itself. Sizes never depend on the seed, so every seed
//! does the same amount of work on different data.

use terra_core::{RecMeta, Terra, DEFAULT_CADENCE};

/// Full size for measurement, or a small size for smoke tests (`--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The telemetry and threading a workload runs under: as CLI flags for the
/// end-to-end runs and as session settings for the in-process traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub threads: usize,
    /// `--profile --sample=4096 --record=…`, the "leave telemetry on" mode.
    pub observed: bool,
}

/// Sampling interval of an observed run.
pub const SAMPLE_INTERVAL: u64 = 4096;

impl Config {
    /// Leading CLI flags; an observed run records into `rec_path`.
    pub fn cli_flags(&self, rec_path: &str) -> Vec<String> {
        let mut flags = Vec::new();
        if self.threads != 1 {
            flags.push(format!("--threads={}", self.threads));
        }
        if self.observed {
            flags.push("--profile".to_string());
            flags.push(format!("--sample={SAMPLE_INTERVAL}"));
            flags.push(format!("--record={rec_path}"));
        }
        flags
    }

    /// Applies the same settings to a session.
    pub fn apply(&self, t: &mut Terra, script: &str) {
        t.set_threads(self.threads);
        if self.observed {
            t.set_profile(true);
            t.set_sample_interval(SAMPLE_INTERVAL);
            t.set_record(rec_meta(script));
        }
    }
}

/// Recording metadata as the CLI fills it in for `--record` at `-O2`.
pub fn rec_meta(script: &str) -> RecMeta {
    RecMeta {
        script: script.to_string(),
        opt: 2,
        checkelim: true,
        sanitize: false,
        cadence: DEFAULT_CADENCE,
        window: None,
    }
}

/// One generated input with its expected output.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// The program up to, but not including, the final `main()` call: the
    /// traced run stages this part and then compiles and invokes `main`
    /// through separate layer calls.
    pub defs: String,
    /// What the program must print.
    pub reference: String,
    /// Floating-point operations `main` performs (0 for integer workloads).
    pub flops: f64,
}

/// The statement that runs a generated program.
pub const RUN: &str = "main()\n";

impl Generated {
    /// The complete `.t` file.
    pub fn script(&self) -> String {
        format!("{}{RUN}", self.defs)
    }
}

pub struct Workload {
    pub name: &'static str,
    generator: fn(u64, Scale) -> Generated,
    /// The configuration on a host with at least two cores.
    base: Config,
}

impl Workload {
    pub fn generate(&self, seed: u64, scale: Scale) -> Generated {
        // Each workload draws from its own stream, so two workloads never
        // see the same constants for one seed.
        let mix = self
            .name
            .bytes()
            .fold(seed, |h, b| splitmix(h ^ u64::from(b)));
        (self.generator)(mix, scale)
    }

    /// The configuration on a host with `cores` cores: `parallelfor` falls
    /// back to one thread when there is no second core to measure.
    pub fn config(&self, cores: usize) -> Config {
        Config {
            threads: self.base.threads.min(cores.max(1)),
            ..self.base
        }
    }
}

const PLAIN: Config = Config {
    threads: 1,
    observed: false,
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "gemm-naive",
        generator: gemm_naive,
        base: PLAIN,
    },
    Workload {
        name: "gemm-tuned",
        generator: gemm_tuned,
        base: PLAIN,
    },
    Workload {
        name: "stencil-par",
        generator: stencil_par,
        base: Config {
            threads: 2,
            observed: false,
        },
    },
    Workload {
        name: "dispatch-calls",
        generator: dispatch_calls,
        base: PLAIN,
    },
    Workload {
        name: "staging-heavy",
        generator: staging_heavy,
        base: PLAIN,
    },
    Workload {
        name: "gemm-observed",
        generator: gemm_observed,
        base: Config {
            threads: 1,
            observed: true,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------------
// Random streams. Each has a twin written in the generated program, so both
// sides must use arithmetic that is exact there: the LCG stays below 2^62 in
// Terra's int64, MINSTD stays below 2^53 in Lua's doubles.

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator Terra code runs: `s = (s * 1103515245 + 12345) % 2^31`,
/// yielding `s >> 16`.
struct Lcg(i64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg((splitmix(seed) % (1 << 31)) as i64)
    }

    fn next(&mut self) -> i64 {
        self.0 = (self.0 * 1_103_515_245 + 12_345) % (1 << 31);
        self.0 >> 16
    }
}

/// The same step as Terra source over an `int64` variable `s`.
const LCG_STEP: &str = "s = (s * 1103515245LL + 12345LL) % 2147483648LL";

/// The generator Lua code runs at staging time: MINSTD.
struct Minstd(u64);

const MINSTD_M: u64 = 2_147_483_647;

impl Minstd {
    fn new(seed: u64) -> Minstd {
        Minstd(1 + splitmix(seed) % (MINSTD_M - 1))
    }

    /// A draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0 * 48_271 % MINSTD_M;
        self.0 % n
    }
}

/// The same generator as a Lua function `name(n)`, starting from `state`.
fn minstd_lua(name: &str, state: u64) -> String {
    format!(
        "local {name}_state = {state}\n\
         local function {name}(n)\n    \
             {name}_state = ({name}_state * 48271) % 2147483647\n    \
             return {name}_state % n\n\
         end\n"
    )
}

const PRELUDE: &str = "local std = terralib.includec(\"stdlib.h\")\n\
                       local io = terralib.includec(\"stdio.h\")\n";

/// Position-weighted checksum: a plain sum of these outputs cancels to
/// almost nothing and would hide a misplaced element.
fn weight(i: usize) -> i64 {
    (i % 13) as i64 + 1
}

/// Formats like C's `%.1f` for the integer-valued doubles used here.
fn fmt_f1(v: f64) -> String {
    format!("{v:.1}")
}

// ---------------------------------------------------------------------------
// gemm-naive, gemm-tuned, gemm-observed

/// Integer-valued inputs in [-3, 3] and [-2, 2]: every product and partial
/// sum is exact in a double, so the reference needs no tolerance.
fn gemm_inputs(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut lcg = Lcg::new(seed);
    let mut a = Vec::with_capacity(n * n);
    let mut b = Vec::with_capacity(n * n);
    for _ in 0..n * n {
        a.push((lcg.next() % 7 - 3) as f64);
        b.push((lcg.next() % 5 - 2) as f64);
    }
    (a, b)
}

fn gemm_checksum(seed: u64, n: usize) -> f64 {
    let (a, b) = gemm_inputs(seed, n);
    gemm_kernel(&a, &b, n)
}

/// The weighted checksum of the `n` x `n` product `a * b`.
fn gemm_kernel(a: &[f64], b: &[f64], n: usize) -> f64 {
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c.iter()
        .enumerate()
        .map(|(i, v)| v * weight(i) as f64)
        .sum()
}

/// The Terra statements that fill `A` and `B` (both `&double`, `count`
/// elements) from the seed, mirroring [`gemm_inputs`].
fn gemm_fill(seed: u64, count: &str) -> String {
    format!(
        "    var s : int64 = {}\n    \
             for i = 0, {count} do\n        \
                 {LCG_STEP}\n        \
                 A[i] = (s >> 16) % 7 - 3\n        \
                 {LCG_STEP}\n        \
                 B[i] = (s >> 16) % 5 - 2\n    \
             end\n",
        Lcg::new(seed).0
    )
}

/// Figure 6 "naive": the triple loop over buffers the kernel allocates
/// itself with staged-constant sizes, the form in which `checkelim` can prove
/// every access in bounds at `-O2`.
fn gemm_static_program(label: &str, seed: u64, n: usize) -> Generated {
    let defs = format!(
        "{PRELUDE}local N = {n}\n\
         terra main()\n    \
             var A = [&double](std.malloc([N * N * 8]))\n    \
             var B = [&double](std.malloc([N * N * 8]))\n    \
             var D = [&double](std.malloc([N * N * 8]))\n\
         {fill}    \
             for i = 0, [N] do\n        \
                 for j = 0, [N] do\n            \
                     var sum = 0.0\n            \
                     for k = 0, [N] do\n                \
                         sum = sum + A[i * [N] + k] * B[k * [N] + j]\n            \
                     end\n            \
                     D[i * [N] + j] = sum\n        \
                 end\n    \
             end\n    \
             var r = 0.0\n    \
             for i = 0, [N * N] do\n        \
                 r = r + D[i] * ((i % 13) + 1)\n    \
             end\n    \
             io.printf(\"{label} n=%d checksum=%.1f\\n\", [N], r)\n    \
             std.free([&int8](A))\n    \
             std.free([&int8](B))\n    \
             std.free([&int8](D))\n\
         end\n",
        fill = gemm_fill(seed, "[N * N]"),
    );
    Generated {
        defs,
        reference: format!(
            "{label} n={n} checksum={}\n",
            fmt_f1(gemm_checksum(seed, n))
        ),
        flops: 2.0 * (n as f64).powi(3),
    }
}

fn gemm_naive(seed: u64, scale: Scale) -> Generated {
    gemm_static_program("gemm-naive", seed, scale.pick(128, 32))
}

/// The naive program again, smaller, because it runs with every telemetry
/// gate on.
fn gemm_observed(seed: u64, scale: Scale) -> Generated {
    gemm_static_program("gemm-observed", seed, scale.pick(48, 16))
}

/// Figure 6 "terra(tuned)": the staged, register-blocked, vectorised,
/// prefetching kernel of `terra_autotune`, on pointers its caller passes.
fn gemm_tuned(seed: u64, scale: Scale) -> Generated {
    let n = scale.pick(320, 64);
    let defs = format!(
        "{generator}\n{PRELUDE}local N = {n}\n\
         local matmul = genmatmul(N, 64, 4, 4, 4, double)\n\
         terra main()\n    \
             var A = [&double](std.malloc(N * N * 8))\n    \
             var B = [&double](std.malloc(N * N * 8))\n    \
             var C = [&double](std.malloc(N * N * 8))\n\
         {fill}    \
             matmul(A, B, C)\n    \
             var r = 0.0\n    \
             for i = 0, N * N do\n        \
                 r = r + C[i] * ((i % 13) + 1)\n    \
             end\n    \
             io.printf(\"gemm-tuned n=%d checksum=%.1f\\n\", N, r)\n    \
             std.free([&int8](A))\n    \
             std.free([&int8](B))\n    \
             std.free([&int8](C))\n\
         end\n",
        generator = terra_autotune::GEMM_SCRIPT,
        fill = gemm_fill(seed, "N * N"),
    );
    Generated {
        defs,
        reference: format!(
            "gemm-tuned n={n} checksum={}\n",
            fmt_f1(gemm_checksum(seed, n))
        ),
        flops: 2.0 * (n as f64).powi(3),
    }
}

// ---------------------------------------------------------------------------
// stencil-par

/// 3x3 box sums over rows under `parallelfor`, with a serial pass between
/// iterations that folds pixels back into 0..16 (so they stay exact small
/// integers in a float) and threads a carry from pixel to pixel, which no
/// schedule can split.
fn stencil_par(seed: u64, scale: Scale) -> Generated {
    let (w, h, iters) = scale.pick((256, 256, 3), (32, 32, 2));
    let start = Lcg::new(seed).0;
    let defs = format!(
        "{PRELUDE}local W, H, ITERS = {w}, {h}, {iters}\n\
         terra blur(src : &float, dst : &float)\n    \
             parallelfor y = 1, [H - 1] do\n        \
                 for x = 1, [W - 1] do\n            \
                     var s : float = 0.0f\n            \
                     for dy = -1, 2 do\n                \
                         for dx = -1, 2 do\n                    \
                             s = s + src[(y + dy) * W + (x + dx)]\n                \
                         end\n            \
                     end\n            \
                     dst[y * W + x] = s\n        \
                 end\n    \
             end\n\
         end\n\
         terra renorm(dst : &float, src : &float) : int\n    \
             var carry = 0\n    \
             for i = 0, [W * H] do\n        \
                 var v = ([int](dst[i]) + carry) % 17\n        \
                 src[i] = v\n        \
                 dst[i] = v\n        \
                 carry = (carry + v) % 5\n    \
             end\n    \
             return carry\n\
         end\n\
         terra main()\n    \
             var src = [&float](std.malloc(W * H * 4))\n    \
             var dst = [&float](std.malloc(W * H * 4))\n    \
             var s : int64 = {start}\n    \
             for i = 0, [W * H] do\n        \
                 {LCG_STEP}\n        \
                 src[i] = (s >> 16) % 17\n        \
                 dst[i] = src[i]\n    \
             end\n    \
             var carry = 0\n    \
             for it = 0, ITERS do\n        \
                 blur(src, dst)\n        \
                 carry = carry + renorm(dst, src)\n    \
             end\n    \
             var r = 0.0\n    \
             for i = 0, [W * H] do\n        \
                 r = r + src[i] * ((i % 13) + 1)\n    \
             end\n    \
             io.printf(\"stencil-par w=%d h=%d iters=%d carry=%d checksum=%.1f\\n\", \
                       W, H, ITERS, carry, r)\n    \
             std.free([&int8](src))\n    \
             std.free([&int8](dst))\n\
         end\n"
    );
    let (carry, checksum) = stencil_reference(seed, w, h, iters);
    Generated {
        defs,
        reference: format!(
            "stencil-par w={w} h={h} iters={iters} carry={carry} checksum={}\n",
            fmt_f1(checksum)
        ),
        flops: 9.0 * ((w - 2) * (h - 2) * iters) as f64,
    }
}

fn stencil_reference(seed: u64, w: usize, h: usize, iters: usize) -> (i32, f64) {
    let mut lcg = Lcg::new(seed);
    let src = (0..w * h).map(|_| (lcg.next() % 17) as f32).collect();
    stencil_kernel(src, w, h, iters)
}

/// Returns the summed carries and the weighted checksum of the final image.
fn stencil_kernel(mut src: Vec<f32>, w: usize, h: usize, iters: usize) -> (i32, f64) {
    let mut dst = src.clone();
    let mut carry_sum = 0i32;
    for _ in 0..iters {
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let mut s = 0.0f32;
                for dy in 0..3 {
                    for dx in 0..3 {
                        s += src[(y + dy - 1) * w + (x + dx - 1)];
                    }
                }
                dst[y * w + x] = s;
            }
        }
        let mut carry = 0i32;
        for i in 0..w * h {
            let v = (dst[i] as i32 + carry) % 17;
            src[i] = v as f32;
            dst[i] = v as f32;
            carry = (carry + v) % 5;
        }
        carry_sum += carry;
    }
    let checksum = src
        .iter()
        .enumerate()
        .map(|(i, v)| f64::from(*v) * weight(i) as f64)
        .sum();
    (carry_sum, checksum)
}

// ---------------------------------------------------------------------------
// dispatch-calls

/// Modulus that keeps every dispatch and sieve intermediate inside an int.
const P: i64 = 1_000_003;

/// The class library of `terra_classes`, loaded the way a script without a
/// module path can: as the result of an immediately-called function.
fn javalike_prelude() -> String {
    format!(
        "local J = (function()\n{}\nend)()\n",
        terra_classes::JAVALIKE_SCRIPT
    )
}

struct DispatchParams {
    base_bias: i64,
    derived_bias: i64,
    derived_mul: i64,
    other_k: i64,
    sieve_weight: i64,
}

/// §6.3.1: direct, virtual and interface calls on a small hierarchy, then a
/// sieve over a byte array the caller passes in. Integer ALU, branches,
/// call/ret and checked narrow accesses; no floating point, no vectors.
fn dispatch_calls(seed: u64, scale: Scale) -> Generated {
    let (calls, sieve) = scale.pick((150_000, 120_000), (3_000, 2_000));
    let mut lcg = Lcg::new(seed);
    let p = DispatchParams {
        base_bias: lcg.next() % 1000 + 1,
        derived_bias: lcg.next() % 1000 + 1,
        derived_mul: lcg.next() % 50 + 2,
        other_k: lcg.next() % 1000 + 1,
        sieve_weight: lcg.next() % 90 + 7,
    };
    let defs = format!(
        "{javalike}{PRELUDE}local P = {P}\n\
         Scorer = J.interface {{ score = {{int}} -> int }}\n\
         struct Base {{ bias : int }}\n\
         struct Derived {{ mul : int }}\n\
         struct Other {{ k : int }}\n\
         J.extends(Derived, Base)\n\
         J.implements(Base, Scorer)\n\
         J.implements(Other, Scorer)\n\
         terra Base:score(x : int) : int\n    return (x + self.bias) % P\nend\n\
         terra Derived:score(x : int) : int\n    return (x * self.mul + self.bias) % P\nend\n\
         terra Other:score(x : int) : int\n    return (x * 5 + self.k) % P\nend\n\
         terra newbase(bias : int) : &Base\n    \
             var o = [&Base](std.malloc(sizeof(Base)))\n    \
             o:initclass()\n    \
             o.bias = bias\n    \
             return o\n\
         end\n\
         terra newderived(bias : int, mul : int) : &Derived\n    \
             var o = [&Derived](std.malloc(sizeof(Derived)))\n    \
             o:initclass()\n    \
             o.bias = bias\n    \
             o.mul = mul\n    \
             return o\n\
         end\n\
         terra newother(k : int) : &Other\n    \
             var o = [&Other](std.malloc(sizeof(Other)))\n    \
             o:initclass()\n    \
             o.k = k\n    \
             return o\n\
         end\n\
         terra direct_loop(b : &Base, n : int) : int\n    \
             var acc = 1\n    \
             for i = 0, n do\n        \
                 acc = b:score_direct(acc)\n    \
             end\n    \
             return acc\n\
         end\n\
         terra virtual_loop(a : &Base, b : &Base, n : int) : int\n    \
             var acc = 1\n    \
             for i = 0, n do\n        \
                 acc = a:score(acc)\n        \
                 acc = b:score(acc)\n    \
             end\n    \
             return acc\n\
         end\n\
         terra interface_loop(a : &Scorer, b : &Scorer, n : int) : int\n    \
             var acc = 1\n    \
             for i = 0, n do\n        \
                 acc = a:score(acc)\n        \
                 acc = b:score(acc)\n    \
             end\n    \
             return acc\n\
         end\n\
         terra sieve(flags : &uint8, n : int, weight : int) : int\n    \
             for i = 0, n do\n        \
                 flags[i] = 1\n    \
             end\n    \
             var sum = 0\n    \
             var i = 2\n    \
             while i < n do\n        \
                 if flags[i] == 1 then\n            \
                     sum = (sum + i * weight) % P\n            \
                     var j = i * 2\n            \
                     while j < n do\n                \
                         flags[j] = 0\n                \
                         j = j + i\n            \
                     end\n        \
                 end\n        \
                 i = i + 1\n    \
             end\n    \
             return sum\n\
         end\n\
         terra main()\n    \
             var b = newbase({base_bias})\n    \
             var d = newderived({derived_bias}, {derived_mul})\n    \
             var o = newother({other_k})\n    \
             var r1 = direct_loop(b, {calls})\n    \
             var r2 = virtual_loop(b, d, {half})\n    \
             var r3 = interface_loop(b, o, {half})\n    \
             var flags = [&uint8](std.malloc({sieve}))\n    \
             var r4 = sieve(flags, {sieve}, {sieve_weight})\n    \
             io.printf(\"dispatch-calls direct=%d virtual=%d interface=%d sieve=%d\\n\", \
                       r1, r2, r3, r4)\n    \
             std.free([&int8](flags))\n    \
             std.free([&int8](b))\n    \
             std.free([&int8](d))\n    \
             std.free([&int8](o))\n\
         end\n",
        javalike = javalike_prelude(),
        base_bias = p.base_bias,
        derived_bias = p.derived_bias,
        derived_mul = p.derived_mul,
        other_k = p.other_k,
        sieve_weight = p.sieve_weight,
        half = calls / 2,
    );
    Generated {
        defs,
        reference: dispatch_reference(&p, calls, sieve),
        flops: 0.0,
    }
}

fn dispatch_reference(p: &DispatchParams, calls: i64, sieve: usize) -> String {
    let base = |x: i64| (x + p.base_bias) % P;
    let derived = |x: i64| (x * p.derived_mul + p.derived_bias) % P;
    let other = |x: i64| (x * 5 + p.other_k) % P;
    let direct = (0..calls).fold(1, |acc, _| base(acc));
    let virt = (0..calls / 2).fold(1, |acc, _| derived(base(acc)));
    let iface = (0..calls / 2).fold(1, |acc, _| other(base(acc)));
    let mut flags = vec![true; sieve];
    let mut sum = 0i64;
    for i in 2..sieve {
        if flags[i] {
            sum = (sum + i as i64 * p.sieve_weight) % P;
            for j in (i * 2..sieve).step_by(i) {
                flags[j] = false;
            }
        }
    }
    format!("dispatch-calls direct={direct} virtual={virt} interface={iface} sieve={sum}\n")
}

// ---------------------------------------------------------------------------
// staging-heavy

/// Depth of the generated expression trees.
const TREE_DEPTH: u32 = 5;
/// Tree functions called from one group function.
const GROUP: usize = 50;
/// Block size of the register-blocked kernels.
const KERNEL_NB: usize = 8;

/// A generated expression over one `int64` variable, mirroring the quotes
/// the Lua meta-program splices together.
enum Tree {
    X,
    Const(i64),
    Add(Box<Tree>, Box<Tree>),
    Sub(Box<Tree>, Box<Tree>),
    Mul(Box<Tree>, Box<Tree>),
    /// `var t = a in t * t + b`
    Let(Box<Tree>, Box<Tree>),
}

impl Tree {
    /// Draws in exactly the order the Lua `gen` does: the structure from
    /// `shape`, the constants from `rng`.
    fn gen(shape: &mut Minstd, rng: &mut Minstd, depth: u32) -> Tree {
        if depth == 0 {
            if shape.below(3) == 0 {
                return Tree::X;
            }
            return Tree::Const(rng.below(97) as i64 + 1);
        }
        let op = shape.below(4);
        let a = Box::new(Tree::gen(shape, rng, depth - 1));
        let b = Box::new(Tree::gen(shape, rng, depth - 1));
        match op {
            0 => Tree::Add(a, b),
            1 => Tree::Sub(a, b),
            2 => Tree::Mul(a, b),
            _ => Tree::Let(a, b),
        }
    }

    fn eval(&self, x: i64) -> i64 {
        match self {
            Tree::X => x,
            Tree::Const(k) => *k,
            Tree::Add(a, b) => a.eval(x).wrapping_add(b.eval(x)),
            Tree::Sub(a, b) => a.eval(x).wrapping_sub(b.eval(x)),
            Tree::Mul(a, b) => a.eval(x).wrapping_mul(b.eval(x)),
            Tree::Let(a, b) => {
                let t = a.eval(x);
                t.wrapping_mul(t).wrapping_add(b.eval(x))
            }
        }
    }
}

/// Start state of the stream that decides the *structure* of what
/// `staging-heavy` generates (tree shapes, which classes override). It is
/// the same for every seed, so every seed compiles the same amount of code;
/// the seed picks the constants inside it.
const SHAPE_STATE: u64 = 20_130_616;

/// Compile-dominated: a Lua meta-program builds hundreds of Terra functions
/// from recursively spliced quotes over fresh symbols, a set of
/// register-blocked `genkernel` kernels covering the autotuner's search
/// space, and a lattice of classes, and calls each once.
fn staging_heavy(seed: u64, scale: Scale) -> Generated {
    let (trees, kernels, classes) = scale.pick((300, 24, 50), (50, 4, 6));
    let rng = Minstd::new(seed);
    let defs = format!(
        "{javalike}{generator}\n{PRELUDE}{shape}{minstd}\
         local NFUNCS, NKERNELS, NCLASSES = {trees}, {kernels}, {classes}\n\
         local DEPTH, GROUP, NB, P = {TREE_DEPTH}, {GROUP}, {KERNEL_NB}, {P}\n\
         {STAGING_BODY}",
        javalike = javalike_prelude(),
        generator = terra_autotune::GEMM_SCRIPT,
        shape = minstd_lua("shape", SHAPE_STATE),
        minstd = minstd_lua("rnd", rng.0),
    );
    Generated {
        defs,
        reference: staging_reference(rng, trees, kernels, classes),
        flops: 0.0,
    }
}

/// The meta-program, after its two generators and its sizes.
/// [`staging_reference`] draws from both in the same order.
const STAGING_BODY: &str = r#"
-- A random expression tree over `x`, built from recursively spliced quotes;
-- one node in four binds a fresh symbol. `shape` decides the structure, the
-- same for every seed; `rnd` draws the constants.
local function gen(x, depth)
    if depth == 0 then
        if shape(3) == 0 then
            return `x
        end
        local k = rnd(97) + 1
        return `[int64](k)
    end
    local op = shape(4)
    local a = gen(x, depth - 1)
    local b = gen(x, depth - 1)
    if op == 0 then
        return `a + b
    elseif op == 1 then
        return `a - b
    elseif op == 2 then
        return `a * b
    end
    local t = symbol(int64, "t")
    return quote
        var [t] = a
    in
        [t] * [t] + b
    end
end
local function genfn()
    local x = symbol(int64, "x")
    local body = gen(x, DEPTH)
    local n = shape(2) + 1
    return terra([x]) : int64
        var acc : int64 = 0
        for j = 0, n do
            acc = acc * 31 + [body] + j
        end
        return acc
    end
end
local groups = terralib.newlist()
local made = 0
while made < NFUNCS do
    local s = symbol(int64, "s")
    local stmts = terralib.newlist()
    for i = 1, GROUP do
        local f = genfn()
        local argv = rnd(17)
        stmts:insert(quote [s] = [s] * 31 + f(argv) end)
        made = made + 1
    end
    groups:insert(terra() : int64
        var [s] : int64 = 7;
        [stmts]
        return [s]
    end)
end
local tsum = symbol(int64, "tsum")
local tcalls = terralib.newlist()
for i, g in ipairs(groups) do
    tcalls:insert(quote [tsum] = [tsum] * 1000003 + g() end)
end

-- Register-blocked kernels cycling through the part of the autotuner's
-- search space (RM x RN x V) that tiles an NB x NB block, each run once on
-- the same inputs.
local sizes = { 1, 2, 4 }
local widths = { { 1, 2 }, { 2, 2 }, { 1, 4 }, { 2, 4 }, { 4, 2 } }
local A, B, C = symbol(&double, "A"), symbol(&double, "B"), symbol(&double, "C")
local ksum = symbol(int64, "ksum")
local kcalls = terralib.newlist()
for i = 1, NKERNELS do
    local rm = sizes[(i - 1) % 3 + 1]
    local rn, v = unpack(widths[math.floor((i - 1) / 3) % 5 + 1])
    local alpha = i % 2
    local salt = rnd(3)
    local kern = genkernel(NB, rm, rn, v, alpha, double)
    local run = terra(A : &double, B : &double, C : &double) : int64
        for i = 0, NB * NB do
            C[i] = (i + salt) % 3
        end
        kern(A, B, C, NB, NB, NB)
        var r : int64 = 0
        for i = 0, NB * NB do
            r = r + [int64](C[i]) * ((i % 13) + 1)
        end
        return r
    end
    kcalls:insert(quote [ksum] = [ksum] * 31 + run([A], [B], [C]) end)
end
local kstart = rnd(1000000) + 1
terra kernels() : int64
    var a = [&double](std.malloc(NB * NB * 8))
    var b = [&double](std.malloc(NB * NB * 8))
    var c = [&double](std.malloc(NB * NB * 8))
    var s : int64 = kstart
    for i = 0, NB * NB do
        s = (s * 1103515245LL + 12345LL) % 2147483648LL
        a[i] = (s >> 16) % 7 - 3
        s = (s * 1103515245LL + 12345LL) % 2147483648LL
        b[i] = (s >> 16) % 5 - 2
    end
    var [A] = a
    var [B] = b
    var [C] = c
    var [ksum] : int64 = 0;
    [kcalls]
    std.free([&int8](a))
    std.free([&int8](b))
    std.free([&int8](c))
    return [ksum]
end

-- A class lattice: every class extends an earlier one and overrides `val`
-- or inherits it; one object of each is called through the root type.
struct Root { k0 : int }
J.class(Root)
terra Root:val(x : int) : int
    return (x + 1) % P
end
terra callroot(o : &Root, x : int) : int
    return o:val(x)
end
local classes = { [0] = Root }
local chains = { [0] = terralib.newlist() }
local csum = symbol(int64, "csum")
local ccalls = terralib.newlist()
for i = 1, NCLASSES do
    local p = shape(i)
    struct S {}
    S.entries:insert { field = "k" .. i, type = int }
    J.extends(S, classes[p])
    if shape(2) == 0 then
        local m = rnd(50) + 2
        local c = rnd(1000)
        terra S:val(x : int) : int
            return (x * m + c + self.["k" .. i]) % P
        end
    end
    classes[i] = S
    chains[i] = terralib.newlist()
    chains[i]:insertall(chains[p])
    chains[i]:insert(i)
    local o = symbol(&S, "o")
    local inits = terralib.newlist()
    for _, j in ipairs(chains[i]) do
        inits:insert(quote [o].["k" .. j] = j end)
    end
    local make = terra() : int
        var [o] = [&S](std.malloc(sizeof(S)))
        var obj = [o]
        obj:initclass();
        [inits]
        var r = callroot(obj, i)
        std.free([&int8](obj))
        return r
    end
    ccalls:insert(quote [csum] = [csum] * 31 + make() end)
end

terra main()
    var [tsum] : int64 = 0;
    [tcalls]
    var [csum] : int64 = 0;
    [ccalls]
    io.printf("staging-heavy trees=%lld kernels=%lld classes=%lld\n", [tsum], kernels(), [csum])
end
"#;

fn staging_reference(mut rng: Minstd, trees: usize, kernels: usize, classes: usize) -> String {
    let mut shape = Minstd(SHAPE_STATE);
    let mut tsum = 0i64;
    let mut made = 0;
    while made < trees {
        let mut s = 7i64;
        for _ in 0..GROUP {
            let body = Tree::gen(&mut shape, &mut rng, TREE_DEPTH);
            let n = shape.below(2) as i64 + 1;
            let x = rng.below(17) as i64;
            let f = (0..n).fold(0i64, |acc, j| {
                acc.wrapping_mul(31)
                    .wrapping_add(body.eval(x))
                    .wrapping_add(j)
            });
            s = s.wrapping_mul(31).wrapping_add(f);
            made += 1;
        }
        tsum = tsum.wrapping_mul(1_000_003).wrapping_add(s);
    }

    // rm, rn and v shape the generated code, not the result; alpha and the
    // salt of C's initial contents do.
    let configs: Vec<(f64, usize)> = (1..=kernels)
        .map(|i| ((i % 2) as f64, rng.below(3) as usize))
        .collect();
    let mut lcg = Lcg(rng.below(1_000_000) as i64 + 1);
    let nb = KERNEL_NB;
    let mut a = vec![0.0f64; nb * nb];
    let mut b = vec![0.0f64; nb * nb];
    for i in 0..nb * nb {
        a[i] = (lcg.next() % 7 - 3) as f64;
        b[i] = (lcg.next() % 5 - 2) as f64;
    }
    let mut ksum = 0i64;
    for (alpha, salt) in configs {
        let mut r = 0i64;
        for m in 0..nb {
            for n in 0..nb {
                let i = m * nb + n;
                let dot: f64 = (0..nb).map(|k| a[m * nb + k] * b[k * nb + n]).sum();
                let c = alpha * ((i + salt) % 3) as f64 + dot;
                r += c as i64 * weight(i);
            }
        }
        ksum = ksum.wrapping_mul(31).wrapping_add(r);
    }

    // For each class: its parent and, if it overrides `val`, (m, c).
    let mut lattice: Vec<(usize, Option<(i64, i64)>)> = vec![(0, None)];
    let mut csum = 0i64;
    for i in 1..=classes {
        let parent = shape.below(i as u64) as usize;
        let over = (shape.below(2) == 0).then(|| {
            let m = rng.below(50) as i64 + 2;
            (m, rng.below(1000) as i64)
        });
        lattice.push((parent, over));
        // Virtual dispatch: the nearest override up the parent chain.
        let x = i as i64;
        let mut at = i;
        let r = loop {
            match lattice[at] {
                (_, Some((m, c))) => break (x * m + c + at as i64) % P,
                (_, None) if at == 0 => break (x + 1) % P,
                (parent, None) => at = parent,
            }
        };
        csum = csum.wrapping_mul(31).wrapping_add(r);
    }
    format!("staging-heavy trees={tsum} kernels={ksum} classes={csum}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        for w in &WORKLOADS {
            let a = w.generate(7, Scale::Quick);
            assert_eq!(a, w.generate(7, Scale::Quick), "{}", w.name);
            let b = w.generate(8, Scale::Quick);
            assert_ne!(a.defs, b.defs, "{}: seed must change the input", w.name);
            assert_ne!(
                a.reference, b.reference,
                "{}: seed must change the reference",
                w.name
            );
            assert!(a.script().ends_with(RUN));
        }
    }

    #[test]
    fn workloads_draw_from_distinct_streams() {
        let naive = find("gemm-naive").unwrap().generate(1, Scale::Quick);
        let observed = find("gemm-observed").unwrap().generate(1, Scale::Quick);
        let start = |g: &Generated| {
            g.defs
                .lines()
                .find(|l| l.contains("var s : int64"))
                .unwrap()
                .to_string()
        };
        assert_ne!(start(&naive), start(&observed));
    }

    #[test]
    fn lcg_matches_hand_computed_steps() {
        let mut lcg = Lcg(1);
        // (1 * 1103515245 + 12345) % 2^31 = 1103527590; >> 16 = 16838
        assert_eq!(lcg.next(), 16838);
        assert_eq!(lcg.0, 1_103_527_590);
        let mut m = Minstd(1);
        assert_eq!(m.below(100), 48_271 % 100);
        // 48271^2 mod (2^31 - 1)
        assert_eq!(m.below(MINSTD_M), 182_605_794);
    }

    #[test]
    fn weighted_checksum_of_tiny_gemm() {
        // With A = [[1, 2], [3, 4]] and B = [[5, 6], [7, 8]] the product is
        // [[19, 22], [43, 50]] and the weights are 1, 2, 3, 4.
        let sum = gemm_kernel(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2);
        assert_eq!(sum, 19.0 + 44.0 + 129.0 + 200.0);
        assert_eq!(fmt_f1(sum), "392.0");
        assert_eq!(fmt_f1(-6.0), "-6.0");
    }

    #[test]
    fn stencil_kernel_on_a_hand_computed_image() {
        // A 3x3 image of ones has one interior pixel, which becomes 9. The
        // serial pass then yields 1 2 4 3 9 5 5 5 5 (carry 1 3 2 0 4 4 4 4 4),
        // and the weights are 1..9.
        let (carry, checksum) = stencil_kernel(vec![1.0; 9], 3, 3, 1);
        assert_eq!(carry, 4);
        assert_eq!(
            checksum,
            (1 + 2 * 2 + 4 * 3 + 3 * 4 + 9 * 5 + 5 * 6 + 5 * 7 + 5 * 8 + 5 * 9) as f64
        );
    }

    #[test]
    fn tree_evaluation_wraps_like_int64() {
        let t = Tree::Let(
            Box::new(Tree::Mul(Box::new(Tree::X), Box::new(Tree::Const(3)))),
            Box::new(Tree::Sub(Box::new(Tree::Const(10)), Box::new(Tree::X))),
        );
        // t = 3x; t*t + (10 - x) at x = 4: 144 + 6
        assert_eq!(t.eval(4), 150);
        let big = Tree::Mul(Box::new(Tree::Const(i64::MAX)), Box::new(Tree::Const(2)));
        assert_eq!(big.eval(0), -2);
    }

    #[test]
    fn dispatch_reference_on_small_counts() {
        let p = DispatchParams {
            base_bias: 17,
            derived_bias: 29,
            derived_mul: 3,
            other_k: 41,
            sieve_weight: 7,
        };
        // direct: 1 + 4 * 17; virtual: ((1 + 17) * 3 + 29 + 17) * 3 + 29;
        // interface: ((1 + 17) * 5 + 41 + 17) * 5 + 41; primes below 12
        // are 2, 3, 5, 7, 11 (sum 28).
        assert_eq!(
            dispatch_reference(&p, 4, 12),
            format!(
                "dispatch-calls direct=69 virtual={} interface={} sieve={}\n",
                ((18 * 3 + 29) + 17) * 3 + 29,
                ((18 * 5 + 41) + 17) * 5 + 41,
                28 * 7
            )
        );
    }

    #[test]
    fn config_maps_to_cli_flags() {
        let stencil = find("stencil-par").unwrap();
        assert_eq!(stencil.config(2).cli_flags("x.rec"), ["--threads=2"]);
        assert!(stencil.config(1).cli_flags("x.rec").is_empty());
        assert_eq!(
            find("gemm-observed").unwrap().config(2).cli_flags("x.rec"),
            ["--profile", "--sample=4096", "--record=x.rec"]
        );
        assert!(find("nope").is_none());
    }
}
