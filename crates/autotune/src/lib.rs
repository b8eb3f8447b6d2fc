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
//! Rust side drives parameter search ([`autotune`]), measurement
//! ([`GemmSession::measure_gflops`]), and verification
//! ([`Workspace::verify`]).
//!
//! Baselines mirror Figure 6's series: `gennaive` (the unblocked loop) and
//! `genblocked` (cache blocking only), plus [`vendor_config`], an
//! expert-chosen configuration standing in for ATLAS/MKL (see DESIGN.md's
//! substitution table).

#![warn(missing_docs)]

use std::time::Instant;
use terra_core::{LuaError, Terra, TerraFn, Value};

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

    /// The widest supported vector width (256-bit registers).
    pub fn max_vector(self) -> usize {
        match self {
            Precision::F32 => 8,
            Precision::F64 => 4,
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

impl GemmConfig {
    /// Whether this configuration can tile an `n`×`n` multiply.
    pub fn valid_for(&self, n: usize, prec: Precision) -> bool {
        self.v <= prec.max_vector()
            && self.nb > 0
            && n.is_multiple_of(self.nb)
            && self.nb.is_multiple_of(self.rm)
            && self.nb.is_multiple_of(self.rn * self.v)
    }
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
    /// Propagates staging errors.
    ///
    /// # Panics
    ///
    /// Panics unless `n % nb == 0`.
    pub fn blocked(&mut self, n: usize, nb: usize, prec: Precision) -> Result<TerraFn, LuaError> {
        assert!(n.is_multiple_of(nb), "N must be a multiple of NB");
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
    /// Propagates staging errors.
    ///
    /// # Panics
    ///
    /// Panics on a configuration that cannot tile `n` (see
    /// [`GemmConfig::valid_for`]).
    pub fn generated(
        &mut self,
        n: usize,
        cfg: GemmConfig,
        prec: Precision,
    ) -> Result<TerraFn, LuaError> {
        assert!(cfg.valid_for(n, prec), "invalid config {cfg} for N={n}");
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

/// The candidate space the auto-tuner searches, mirroring the paper's
/// "reasonable values for the parameters (NB, V, RA, RB)".
pub fn candidate_configs(n: usize, prec: Precision) -> Vec<GemmConfig> {
    let mut out = Vec::new();
    for nb in [16, 32, 64] {
        for rm in [1, 2, 4] {
            for rn in [1, 2, 4] {
                for v in [2, 4, 8] {
                    let cfg = GemmConfig { nb, rm, rn, v };
                    if cfg.valid_for(n, prec) {
                        out.push(cfg);
                    }
                }
            }
        }
    }
    out
}

/// Auto-tunes: stages every candidate, times it on a user-sized problem, and
/// returns the best configuration with its GFLOPS (the paper's 200-line Lua
/// auto-tuner, §6.1).
///
/// # Errors
///
/// Propagates staging errors from any candidate.
pub fn autotune(
    session: &mut GemmSession,
    n: usize,
    prec: Precision,
    reps: usize,
) -> Result<(GemmConfig, f64), LuaError> {
    let ws = session.workspace(n, prec);
    let mut best: Option<(GemmConfig, f64)> = None;
    for cfg in candidate_configs(n, prec) {
        let f = session.generated(n, cfg, prec)?;
        let gflops = session.measure_gflops(&f, &ws, reps);
        if best.map(|(_, g)| gflops > g).unwrap_or(true) {
            best = Some((cfg, gflops));
        }
    }
    Ok(best.expect("candidate space is never empty"))
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

    #[test]
    fn many_configs_are_all_correct() {
        let mut s = GemmSession::new().unwrap();
        let n = 32;
        let ws = s.workspace(n, Precision::F64);
        for cfg in candidate_configs(n, Precision::F64) {
            let f = s.generated(n, cfg, Precision::F64).unwrap();
            s.run(&f, &ws);
            ws.verify(&s);
        }
    }

    #[test]
    fn candidate_space_respects_constraints() {
        for cfg in candidate_configs(64, Precision::F64) {
            assert!(cfg.valid_for(64, Precision::F64));
            assert!(cfg.v <= 4);
        }
        assert!(!candidate_configs(64, Precision::F32).is_empty());
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
        // did hoist the invariant address arithmetic and CSE the
        // quote-generated accumulator addresses, instead of trusting -O2
        // blindly.
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
    fn vendor_config_is_valid() {
        assert!(vendor_config(Precision::F64).valid_for(64, Precision::F64));
        assert!(vendor_config(Precision::F32).valid_for(64, Precision::F32));
    }
}
