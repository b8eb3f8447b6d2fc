//! # terra-autotune
//!
//! The §6.1 experiment of the Terra paper: an ATLAS-style auto-tuner for
//! matrix multiply, implemented entirely with the staged language.
//!
//! The generator lives in [`GEMM_SCRIPT`], a combined Lua-Terra program that
//! is a faithful transcription of the paper's Figure 5: `genkernel` stages
//! an L1-resident kernel with register blocking (`RM`×`RN` vector
//! accumulators), SIMD vector loads/stores of width `V`, prefetching of the
//! streamed `B` panel, and an `alpha` constant baked in; `genmatmul`
//! composes two such kernels into a full two-level blocked multiply. The
//! script also holds the validity rule (`gemmfault`), the search space
//! (`gemmconfigs`) and the search itself (`gemmtune`), the paper's Lua
//! auto-tuner; [`GemmSession::autotune`] calls it. The Rust side allocates
//! the matrices, times single kernels ([`GemmSession::measure_gflops`]) and
//! verifies results ([`Workspace::verify`]).
//!
//! Baselines mirror Figure 6's series: `gennaive` (the unblocked loop) and
//! `genblocked` (cache blocking only), plus [`vendor_config`], an
//! expert-chosen configuration standing in for ATLAS/MKL (see DESIGN.md's
//! substitution table).

#![warn(missing_docs)]

use std::time::Instant;
use terra_core::{LuaError, LuaValue, Terra, TerraFn, Value};

/// The combined Lua-Terra GEMM generator (paper Figure 5 + driver).
pub const GEMM_SCRIPT: &str = include_str!("gemm.lua");

/// Element precision for the GEMM experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `float` — Figure 6b (SGEMM), vector width 8.
    F32,
    /// `double` — Figure 6a (DGEMM), vector width 4.
    F64,
}

impl Precision {
    /// The Terra type name.
    pub fn type_name(self) -> &'static str {
        match self {
            Precision::F32 => "float",
            Precision::F64 => "double",
        }
    }

    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

/// A kernel configuration: the tuning parameters of `genkernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// L1 block size (the matrix is processed in `nb`×`nb` tiles).
    pub nb: usize,
    /// Register-block rows.
    pub rm: usize,
    /// Register-block columns (in vectors).
    pub rn: usize,
    /// Vector width.
    pub v: usize,
}

impl std::fmt::Display for GemmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NB={} RM={} RN={} V={}",
            self.nb, self.rm, self.rn, self.v
        )
    }
}

/// An expert-chosen configuration that stands in for the vendor library
/// (ATLAS / MKL) in Figure 6: what a shipped, pre-tuned BLAS would use on
/// this backend.
pub fn vendor_config(prec: Precision) -> GemmConfig {
    match prec {
        Precision::F64 => GemmConfig {
            nb: 64,
            rm: 4,
            rn: 4,
            v: 4,
        },
        Precision::F32 => GemmConfig {
            nb: 64,
            rm: 4,
            rn: 4,
            v: 8,
        },
    }
}

/// A Terra session with the GEMM generator loaded.
pub struct GemmSession {
    terra: Terra,
    counter: usize,
}

impl GemmSession {
    /// Creates a session and loads [`GEMM_SCRIPT`].
    ///
    /// # Errors
    ///
    /// Fails only if the embedded script fails to stage.
    pub fn new() -> Result<Self, LuaError> {
        Self::with_opt_level(terra_core::OptLevel::default())
    }

    /// Like [`GemmSession::new`], but with an explicit mid-end optimization
    /// level — useful for measuring what the optimizer buys on the staged
    /// kernels.
    ///
    /// # Errors
    ///
    /// Propagates staging errors from the generator script.
    pub fn with_opt_level(level: terra_core::OptLevel) -> Result<Self, LuaError> {
        let mut terra = Terra::new();
        terra.set_opt_level(level);
        terra.exec(GEMM_SCRIPT)?;
        Ok(GemmSession { terra, counter: 0 })
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("__{prefix}_{}", self.counter)
    }

    /// Stages and compiles the naive triple-loop multiply for size `n`.
    ///
    /// # Errors
    ///
    /// Propagates staging errors.
    pub fn naive(&mut self, n: usize, prec: Precision) -> Result<TerraFn, LuaError> {
        let name = self.fresh_name("naive");
        self.terra
            .exec(&format!("{name} = gennaive({n}, {})", prec.type_name()))?;
        self.terra.function(&name)
    }

    /// Stages and compiles the blocked (but scalar) multiply.
    ///
    /// # Errors
    ///
    /// Propagates staging errors, and the generator's error when `nb` does
    /// not divide `n`.
    pub fn blocked(&mut self, n: usize, nb: usize, prec: Precision) -> Result<TerraFn, LuaError> {
        let name = self.fresh_name("blocked");
        self.terra.exec(&format!(
            "{name} = genblocked({n}, {nb}, {})",
            prec.type_name()
        ))?;
        self.terra.function(&name)
    }

    /// Stages and compiles a register-blocked, vectorized, prefetching
    /// multiply at the given configuration (the paper's tuned kernel).
    ///
    /// # Errors
    ///
    /// Propagates staging errors, and the generator's error naming why a
    /// configuration cannot tile `n`.
    pub fn generated(
        &mut self,
        n: usize,
        cfg: GemmConfig,
        prec: Precision,
    ) -> Result<TerraFn, LuaError> {
        let name = self.fresh_name("gemm");
        self.terra.exec(&format!(
            "{name} = genmatmul({n}, {}, {}, {}, {}, {})",
            cfg.nb,
            cfg.rm,
            cfg.rn,
            cfg.v,
            prec.type_name()
        ))?;
        self.terra.function(&name)
    }

    /// Auto-tunes with the script's `gemmtune`: stages every configuration
    /// of the search space at size `n`, times `reps` runs of each after one
    /// warm-up on a fresh workspace, and returns the fastest with its GFLOPS.
    ///
    /// # Errors
    ///
    /// Propagates staging errors, and the script's error when no
    /// configuration tiles `n`.
    pub fn autotune(
        &mut self,
        n: usize,
        prec: Precision,
        reps: usize,
    ) -> Result<(GemmConfig, f64), LuaError> {
        let ws = self.workspace(n, prec);
        let out = self.terra.exec(&format!(
            "local c, gflops = gemmtune({n}, {}, {}, {}, {}, {})\n\
             return c.NB, c.RM, c.RN, c.V, gflops",
            prec.type_name(),
            ws.a,
            ws.b,
            ws.c,
            reps.max(1)
        ))?;
        use LuaValue::Number as N;
        let [N(nb), N(rm), N(rn), N(v), N(gflops)] = out[..] else {
            return Err(LuaError::msg("gemmtune: expected NB, RM, RN, V and GFLOPS"));
        };
        let (nb, rm, rn, v) = (nb as usize, rm as usize, rn as usize, v as usize);
        Ok((GemmConfig { nb, rm, rn, v }, gflops))
    }

    /// Allocates an `n`×`n` workspace (A, B, C) with deterministic contents.
    pub fn workspace(&mut self, n: usize, prec: Precision) -> Workspace {
        let bytes = (n * n * prec.size()) as u64;
        let a = self.terra.malloc(bytes);
        let b = self.terra.malloc(bytes);
        let c = self.terra.malloc(bytes);
        // Small deterministic pseudo-random contents.
        let data_a: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37 + 11) % 64) as f64 / 16.0 - 2.0)
            .collect();
        let data_b: Vec<f64> = (0..n * n)
            .map(|i| ((i * 53 + 7) % 64) as f64 / 16.0 - 2.0)
            .collect();
        match prec {
            Precision::F64 => {
                self.terra.write_f64s(a, &data_a);
                self.terra.write_f64s(b, &data_b);
            }
            Precision::F32 => {
                let fa: Vec<f32> = data_a.iter().map(|v| *v as f32).collect();
                let fb: Vec<f32> = data_b.iter().map(|v| *v as f32).collect();
                self.terra.write_f32s(a, &fa);
                self.terra.write_f32s(b, &fb);
            }
        }
        Workspace {
            a,
            b,
            c,
            n,
            prec,
            host_a: data_a,
            host_b: data_b,
        }
    }

    /// Runs a staged multiply once on the workspace.
    ///
    /// # Panics
    ///
    /// Panics on a VM trap (a bug in the generated kernel).
    pub fn run(&mut self, f: &TerraFn, ws: &Workspace) {
        self.terra
            .invoke(f, &[Value::Ptr(ws.a), Value::Ptr(ws.b), Value::Ptr(ws.c)])
            .expect("staged kernel trapped");
    }

    /// Times a multiply, returning GFLOPS (`2·n³ / seconds / 1e9`).
    pub fn measure_gflops(&mut self, f: &TerraFn, ws: &Workspace, reps: usize) -> f64 {
        // One warmup to fault in memory.
        self.run(f, ws);
        let start = Instant::now();
        for _ in 0..reps.max(1) {
            self.run(f, ws);
        }
        let dt = start.elapsed().as_secs_f64() / reps.max(1) as f64;
        2.0 * (ws.n as f64).powi(3) / dt / 1e9
    }

    /// Measures a kernel's deterministic cost with the VM's profile
    /// counters: one run with profiling on, isolated by a counter reset.
    /// Unlike [`GemmSession::measure_gflops`] this is free of wall-clock
    /// noise, so variant rankings are reproducible run-to-run; profiling is
    /// restored to off afterwards.
    pub fn measure_cost(&mut self, f: &TerraFn, ws: &Workspace) -> KernelCost {
        self.terra.set_profile(true);
        self.terra.reset_profile();
        self.run(f, ws);
        let profile = self.terra.profile();
        self.terra.set_profile(false);
        KernelCost {
            instructions: profile.total_instructions(),
            loads: profile.mem.total_loads(),
            stores: profile.mem.total_stores(),
            vector_ops: profile
                .ops
                .iter()
                .filter(|(m, _)| m.starts_with('v') || m.ends_with(".v") || m.contains("splat"))
                .map(|(_, c)| *c)
                .sum(),
            l1_misses: profile.cache.l1.misses,
            l2_misses: profile.cache.l2.misses,
        }
    }

    /// Direct access to the underlying session.
    pub fn terra(&mut self) -> &mut Terra {
        &mut self.terra
    }
}

/// Deterministic cost counters for one kernel invocation, from the VM
/// profiler (see [`GemmSession::measure_cost`]). Lower `instructions` means
/// less interpreted work; fewer `loads` at equal instruction counts means
/// better register/vector reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Total VM instructions executed.
    pub instructions: u64,
    /// Scalar + vector memory loads.
    pub loads: u64,
    /// Scalar + vector memory stores.
    pub stores: u64,
    /// Vector-unit operations (SIMD arithmetic, loads/stores, splats).
    pub vector_ops: u64,
    /// Simulated L1d misses (see the VM's cache model).
    pub l1_misses: u64,
    /// Simulated L2 misses.
    pub l2_misses: u64,
}

/// An allocated matrix workspace plus host-side copies for verification.
pub struct Workspace {
    /// Address of A.
    pub a: u64,
    /// Address of B.
    pub b: u64,
    /// Address of C.
    pub c: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Element precision.
    pub prec: Precision,
    host_a: Vec<f64>,
    host_b: Vec<f64>,
}

impl Workspace {
    /// Verifies C against a host-side reference multiply.
    ///
    /// # Panics
    ///
    /// Panics (with context) if any element deviates beyond tolerance.
    pub fn verify(&self, session: &GemmSession) {
        let n = self.n;
        let c: Vec<f64> = match self.prec {
            Precision::F64 => session.terra.read_f64s(self.c, n * n),
            Precision::F32 => session
                .terra
                .read_f32s(self.c, n * n)
                .into_iter()
                .map(|v| v as f64)
                .collect(),
        };
        let tol = match self.prec {
            Precision::F64 => 1e-9,
            Precision::F32 => 1e-2,
        };
        for i in 0..n {
            for j in 0..n {
                let mut expect = 0.0;
                for k in 0..n {
                    expect += self.host_a[i * n + k] * self.host_b[k * n + j];
                }
                let got = c[i * n + j];
                assert!(
                    (got - expect).abs() <= tol * expect.abs().max(1.0),
                    "C[{i}][{j}] = {got}, expected {expect} (N={n})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_matmul_is_correct() {
        let mut s = GemmSession::new().unwrap();
        let ws = s.workspace(16, Precision::F64);
        let f = s.naive(16, Precision::F64).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
    }

    #[test]
    fn blocked_matmul_is_correct() {
        let mut s = GemmSession::new().unwrap();
        let ws = s.workspace(32, Precision::F64);
        let f = s.blocked(32, 8, Precision::F64).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
    }

    #[test]
    fn generated_kernel_is_correct_f64() {
        let mut s = GemmSession::new().unwrap();
        let ws = s.workspace(32, Precision::F64);
        let cfg = GemmConfig {
            nb: 16,
            rm: 2,
            rn: 2,
            v: 4,
        };
        let f = s.generated(32, cfg, Precision::F64).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
    }

    #[test]
    fn generated_kernel_is_correct_f32() {
        let mut s = GemmSession::new().unwrap();
        let ws = s.workspace(32, Precision::F32);
        let cfg = GemmConfig {
            nb: 16,
            rm: 2,
            rn: 1,
            v: 8,
        };
        let f = s.generated(32, cfg, Precision::F32).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
    }

    /// The search space `gemmconfigs` returns, flattened by Lua into
    /// NB, RM, RN, V quadruples.
    fn lua_candidates(s: &mut GemmSession, n: usize, prec: Precision) -> Vec<GemmConfig> {
        let out = s
            .terra()
            .exec(&format!(
                "local flat = {{}}\n\
                 for _, c in ipairs(gemmconfigs({n}, {})) do\n\
                   for _, x in ipairs({{ c.NB, c.RM, c.RN, c.V }}) do flat[#flat + 1] = x end\n\
                 end\n\
                 return unpack(flat)",
                prec.type_name()
            ))
            .unwrap();
        let num = |v: &LuaValue| match v {
            LuaValue::Number(x) => *x as usize,
            other => panic!("gemmconfigs returned {other:?}"),
        };
        out.chunks(4)
            .map(|c| GemmConfig {
                nb: num(&c[0]),
                rm: num(&c[1]),
                rn: num(&c[2]),
                v: num(&c[3]),
            })
            .collect()
    }

    /// The search space and its order as the Rust tuner enumerated it
    /// before the search moved into `gemm.lua`.
    fn rust_era_candidates(n: usize, max_vector: usize) -> Vec<GemmConfig> {
        let mut out = Vec::new();
        for nb in [16, 32, 64] {
            for rm in [1, 2, 4] {
                for rn in [1, 2, 4] {
                    for v in [2, 4, 8] {
                        if v <= max_vector
                            && n.is_multiple_of(nb)
                            && nb.is_multiple_of(rm)
                            && nb.is_multiple_of(rn * v)
                        {
                            out.push(GemmConfig { nb, rm, rn, v });
                        }
                    }
                }
            }
        }
        out
    }

    /// `gemmconfigs` at N = 64 is the space the Rust tuner searched, in its
    /// order: 54 DGEMM and 78 SGEMM configurations.
    #[test]
    fn lua_search_space_is_the_rust_one() {
        let mut s = GemmSession::new().unwrap();
        for (prec, max_vector, count) in [(Precision::F64, 4, 54), (Precision::F32, 8, 78)] {
            let got = lua_candidates(&mut s, 64, prec);
            assert_eq!(got.len(), count, "{prec:?}");
            assert_eq!(got, rust_era_candidates(64, max_vector), "{prec:?}");
        }
    }

    /// Every configuration of the search space at N = 64 stages and
    /// computes the right product.
    #[test]
    fn every_candidate_stages_and_verifies() {
        let mut s = GemmSession::new().unwrap();
        for prec in [Precision::F64, Precision::F32] {
            let ws = s.workspace(64, prec);
            for cfg in lua_candidates(&mut s, 64, prec) {
                let f = s.generated(64, cfg, prec).unwrap();
                s.run(&f, &ws);
                ws.verify(&s);
            }
        }
    }

    /// The Lua tuner returns a configuration of its space that verifies.
    #[test]
    fn autotune_picks_a_candidate() {
        let mut s = GemmSession::new().unwrap();
        let (best, gflops) = s.autotune(32, Precision::F64, 1).unwrap();
        assert!(lua_candidates(&mut s, 32, Precision::F64).contains(&best));
        assert!(gflops > 0.0, "{gflops}");
        let ws = s.workspace(32, Precision::F64);
        let f = s.generated(32, best, Precision::F64).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
    }

    /// Each misuse of the generator is a Lua error naming the reason, not a
    /// panic.
    #[test]
    fn generator_misuse_is_an_error() {
        let mut s = GemmSession::new().unwrap();
        let cfg = |nb, rm, rn, v| GemmConfig { nb, rm, rn, v };
        let (f64_, f32_) = (Precision::F64, Precision::F32);
        let rows = [
            (
                "NB does not divide N",
                s.generated(48, cfg(32, 1, 1, 4), f64_).map(drop),
                "genmatmul: N=48 is not a multiple of NB=32",
            ),
            (
                "V wider than a register",
                s.generated(64, cfg(16, 1, 1, 8), f64_).map(drop),
                "genmatmul: V=8 is wider than 256 bits of double",
            ),
            (
                "RM does not divide NB",
                s.generated(48, cfg(16, 3, 1, 4), f64_).map(drop),
                "genmatmul: NB=16 is not a multiple of RM=3",
            ),
            (
                "RN*V does not divide NB",
                s.generated(64, cfg(16, 1, 4, 8), f32_).map(drop),
                "genmatmul: NB=16 is not a multiple of RN*V=32",
            ),
            (
                "a zero block",
                s.generated(64, cfg(0, 1, 1, 4), f64_).map(drop),
                "genmatmul: NB, RM, RN and V must be positive",
            ),
            (
                "blocked with N % NB != 0",
                s.blocked(30, 8, f64_).map(drop),
                "genblocked: N=30 is not a multiple of NB=8",
            ),
            (
                "the tuner with no candidate",
                s.autotune(24, f64_, 1).map(drop),
                "gemmtune: no configuration tiles N=24",
            ),
        ];
        for (row, got, message) in rows {
            match got {
                Ok(_) => panic!("{row}: staged"),
                Err(e) => assert!(e.to_string().contains(message), "{row}: {e}"),
            }
        }
    }

    #[test]
    fn profile_counters_rank_kernel_variants() {
        let mut s = GemmSession::new().unwrap();
        let n = 32;
        let ws = s.workspace(n, Precision::F64);
        let naive = s.naive(n, Precision::F64).unwrap();
        let cfg = GemmConfig {
            nb: 16,
            rm: 2,
            rn: 2,
            v: 4,
        };
        let tuned = s.generated(n, cfg, Precision::F64).unwrap();
        let naive_cost = s.measure_cost(&naive, &ws);
        let tuned_cost = s.measure_cost(&tuned, &ws);
        // The vectorized register-blocked kernel does the same 2·n³ flops in
        // far fewer VM instructions and loads than the scalar triple loop —
        // the deterministic analogue of the paper's Figure 6 ordering.
        assert!(
            tuned_cost.instructions < naive_cost.instructions,
            "tuned {tuned_cost:?} should beat naive {naive_cost:?}"
        );
        assert!(tuned_cost.loads < naive_cost.loads);
        assert!(tuned_cost.vector_ops > 0);
        assert_eq!(naive_cost.vector_ops, 0);
        // The miss counters are populated.
        assert!(naive_cost.l1_misses > 0, "{naive_cost:?}");
        // Counters are wall-clock-free: a second measurement is identical.
        assert_eq!(s.measure_cost(&naive, &ws), naive_cost);
    }

    #[test]
    fn remarks_confirm_staged_kernel_was_optimized_as_claimed() {
        // The remark stream closes the loop for an autotuner: after staging
        // the chosen configuration, it can check that the optimizer really
        // did hoist the invariant address arithmetic out of the
        // quote-generated loads and stores, instead of trusting -O2 blindly.
        let mut s = GemmSession::new().unwrap();
        let ws = s.workspace(32, Precision::F64);
        let cfg = GemmConfig {
            nb: 16,
            rm: 2,
            rn: 2,
            v: 4,
        };
        let f = s.generated(32, cfg, Precision::F64).unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
        let remarks = s.terra().remarks().to_vec();
        assert!(
            remarks
                .iter()
                .any(|r| r.pass == "licm" && r.kind == "applied" && r.message.contains("hoisted")),
            "expected a loop-invariant hoist in the staged kernel: {remarks:?}"
        );
        // At least one applied remark must be attributed back to the staging
        // chain — the kernel body is assembled from Lua quotes.
        assert!(
            remarks
                .iter()
                .any(|r| r.kind == "applied" && r.site.fields().2.contains("via quote at line")),
            "expected an applied remark with a staging chain: {remarks:?}"
        );
        // The same check is available from inside the Lua driver via
        // perf.remarks(), which is how a script-level autotuner would assert
        // its kernel got the treatment it expects.
        let got = s
            .terra()
            .exec(
                "local hoists = 0\n\
                 for _, r in ipairs(perf.remarks('licm')) do\n\
                   if r.kind == 'applied' then hoists = hoists + 1 end\n\
                 end\n\
                 return hoists",
            )
            .unwrap();
        match got.first() {
            Some(terra_core::LuaValue::Number(n)) => {
                assert!(*n > 0.0, "perf.remarks() saw no hoists");
            }
            other => panic!("unexpected return from Lua: {other:?}"),
        }
    }

    #[test]
    fn vendor_config_stages_and_verifies() {
        let mut s = GemmSession::new().unwrap();
        for prec in [Precision::F64, Precision::F32] {
            let ws = s.workspace(64, prec);
            let f = s.generated(64, vendor_config(prec), prec).unwrap();
            s.run(&f, &ws);
            ws.verify(&s);
        }
    }
}
