//! # terra-core
//!
//! The public facade of **terra-rs**, a from-scratch Rust reproduction of
//! *Terra: A Multi-Stage Language for High-Performance Computing* (DeVito,
//! Hegarty, Aiken, Hanrahan, Vitek — PLDI 2013).
//!
//! Terra is a low-level, statically-typed, C-like language that is *staged*
//! from Lua. [`Terra`] is an embedded session: feed it combined Lua-Terra
//! source, and the Lua side runs immediately while `terra` definitions are
//! eagerly specialized, lazily typechecked on first call, compiled to
//! bytecode, and executed on a register VM with its own linear memory —
//! entirely separate from the meta-language, as the paper requires.
//!
//! ```
//! use terra_core::Terra;
//! # fn main() -> Result<(), terra_core::LuaError> {
//! let mut t = Terra::new();
//! t.exec(
//!     r#"
//!     function make_adder(k)                 -- Lua: the meta-program
//!         return terra(x : int) : int       -- Terra: staged low-level code
//!             return x + k                  -- k is spliced as a constant
//!         end
//!     end
//!     add10 = make_adder(10)
//!     "#,
//! )?;
//! assert_eq!(t.call_i64("add10", &[32.0])?, 42);
//! # Ok(())
//! # }
//! ```
//!
//! For hot benchmarking loops, [`TerraFn`] offers a pre-resolved handle that
//! skips name lookup and Lua value boxing on every call.

#![warn(missing_docs)]

use std::rc::Rc;

pub use terra_eval::{EvalResult, Interp, LuaError, LuaValue, Phase, SymbolRef, Table, TableRef};

/// A synthetic (zero-width) source span for host-initiated operations.
pub fn span_synthetic() -> terra_syntax::Span {
    terra_syntax::Span::synthetic()
}
pub use terra_ir::{Diagnostic, FuncId, FuncTy, OptLevel, ScalarTy, Severity, Ty};
pub use terra_trace::{
    replay, CacheConfig, CacheLevelConfig, CacheStats, DiffReport, FuncProfile, HeapSiteStats,
    HeapStats, HeapTimelinePoint, LineStat, MemStats, ParChunkStats, ParSiteStats, ParWorkerLoad,
    ParallelStats, Profile, RecMeta, Recorder, Recording, Remark, ReplaySummary, SampleFuncRank,
    SampleStats, Site, SpanEvent, Stage, DEFAULT_CADENCE, REC_FORMAT_VERSION,
};
pub use terra_vm::{Trap, TrapKind, Value};

/// An embedded Lua-Terra session.
///
/// Owns the interpreter, the staged program, and the Terra address space.
pub struct Terra {
    interp: Interp,
}

impl Default for Terra {
    fn default() -> Self {
        Self::new()
    }
}

impl Terra {
    /// Creates a session with the standard library (`terralib`, the
    /// simulated C headers, primitive types) installed.
    pub fn new() -> Self {
        Terra {
            interp: Interp::new(),
        }
    }

    /// Runs a combined Lua-Terra chunk, returning its `return` values.
    ///
    /// # Errors
    ///
    /// Returns syntax errors, Lua runtime errors, specialization errors
    /// (eager, at definition), and type/link errors (lazy, at first call),
    /// each tagged with its phase as in §4.1 of the paper.
    pub fn exec(&mut self, src: &str) -> EvalResult<Vec<LuaValue>> {
        self.interp.exec(src)
    }

    /// Registers a module that `require("name")` will load.
    pub fn register_module(&mut self, name: &str, source: &str) {
        self.interp
            .module_sources
            .insert(name.to_string(), source.to_string());
    }

    /// Enables lint mode: every Terra function compiled from here on is run
    /// through the full IR analysis suite (use-before-init, dead stores,
    /// unreachable code, missing returns, and the abstract interpreter's
    /// definite bugs: `definite-oob`, `misaligned-vector`, `null-deref`,
    /// `div-by-zero`, `guaranteed-overflow`), and the warnings accumulate
    /// until [`Terra::take_diagnostics`].
    pub fn set_lint(&mut self, on: bool) {
        self.interp.lint = on;
    }

    /// Enables the VM memory sanitizer: fresh stack frames and heap blocks
    /// are poisoned, and use-after-free / double-free become traps instead
    /// of silent reuse.
    pub fn set_sanitize(&mut self, on: bool) {
        self.interp.ctx.exec.memory.set_sanitize(on);
    }

    /// Sets the mid-end optimization level (`-O0`/`-O1`/`-O2`; the default
    /// is [`OptLevel::O2`]). Affects functions compiled after the call;
    /// already-compiled functions keep their code.
    pub fn set_opt_level(&mut self, level: OptLevel) {
        self.interp.opt = level;
    }

    /// Enables or disables check elision (`--no-checkelim` clears it; the
    /// default is on). At `-O2` the abstract interpreter proves accesses
    /// in-bounds and narrow-integer results in range, and the VM runs them
    /// without bounds checks and without the `trunc` that wraps a result
    /// into its type; disabling this keeps every check. Nothing is elided
    /// in functions compiled under the sanitizer, which also overrides
    /// elided bounds checks at runtime, so `--sanitize` needs no recompile.
    pub fn set_check_elim(&mut self, on: bool) {
        self.interp.elide_checks = on;
    }

    /// The current mid-end optimization level.
    pub fn opt_level(&self) -> OptLevel {
        self.interp.opt
    }

    /// Sets the worker-thread count for `parallelfor` loops. The default is
    /// 1 (the sequential fallback); 0 resolves to the host's available core
    /// count — the same meaning as `--threads=0` on the CLI. The chunk
    /// schedule depends only on the iteration count, so results, traps, and
    /// profiles are identical at every setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.interp.ctx.exec.set_threads(threads);
    }

    /// The configured `parallelfor` worker-thread count.
    pub fn threads(&self) -> usize {
        self.interp.ctx.exec.threads()
    }

    /// Takes the warnings produced by lint mode since the last call.
    pub fn take_diagnostics(&mut self) -> Vec<Diagnostic> {
        self.interp.take_diagnostics()
    }

    /// Turns profiling on or off: the staging timeline, per-opcode and
    /// per-function instruction counters, and memory-system counters. All
    /// counters are deterministic (instruction and byte counts, not wall
    /// clock), so two identical runs produce identical [`Profile`] counters.
    pub fn set_profile(&mut self, on: bool) {
        self.interp.ctx.exec.set_profile(on);
    }

    /// Clears accumulated profile data without changing the on/off gate.
    pub fn reset_profile(&mut self) {
        self.interp.ctx.exec.reset_profile();
    }

    /// Sets the deterministic sampling profiler's interval: the VM captures
    /// the Terra call stack every `interval` retired instructions (0 turns
    /// sampling off, the default). Independent of [`Terra::set_profile`] —
    /// sampling pays only per-call stack maintenance plus one countdown
    /// decrement per instruction, so it is cheap enough to leave on. The
    /// collected stacks land in [`Profile::samples`] and are byte-stable
    /// across runs.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.interp.ctx.exec.set_sample_interval(interval);
    }

    /// The sampling profiler's current interval (0 = off).
    pub fn sample_interval(&self) -> u64 {
        self.interp.ctx.exec.sample_interval()
    }

    /// Replaces the simulated cache geometry used while profiling (see
    /// [`CacheConfig::parse`] for the `--cache` spec syntax). Cold-resets
    /// the simulator.
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.interp.ctx.exec.set_cache_config(cfg);
    }

    /// Freezes and returns the current profile: staging/execution timeline
    /// spans, opcode counters, per-function call/instruction counters, and
    /// memory counters. Render it with [`Profile::render_report`] /
    /// [`Profile::render_counters`], or export Chrome trace-event JSON with
    /// [`Profile::to_chrome_json`].
    pub fn profile(&self) -> Profile {
        self.interp.ctx.exec.profile()
    }

    /// The optimizer's structured remarks for every function compiled so
    /// far, in compilation order. Collected unconditionally (no `--profile`
    /// needed) and deterministic across runs.
    pub fn remarks(&self) -> &[Remark] {
        self.interp.ctx.exec.trace.remarks()
    }

    /// Per-chunk `parallelfor` telemetry collected so far (requires
    /// profiling, see [`Terra::set_profile`]): one [`ParSiteStats`] per
    /// `par.for` site with the per-chunk shard counters preserved before
    /// the thread-invariant merge. Autotuners can rank chunkings by
    /// [`ParSiteStats::imbalance`] / [`ParSiteStats::efficiency`] instead
    /// of total cost alone. Everything except the chunks' wall-clock pair
    /// is bit-identical across runs at a fixed thread count.
    pub fn parallel_stats(&self) -> &ParallelStats {
        self.interp.ctx.exec.parallel_stats()
    }

    /// Starts the execution flight recorder (`--record`): from here on the
    /// VM streams heap effects and periodic state checksums into an
    /// in-memory [`Recording`], finished by [`Terra::take_recording`]. The
    /// recording is deterministic — byte-identical across runs and across
    /// `--threads` settings (worker effects are absorbed in chunk order).
    pub fn set_record(&mut self, meta: RecMeta) {
        self.interp.ctx.exec.set_record(meta);
    }

    /// Whether the flight recorder is currently active.
    pub fn recording(&self) -> bool {
        self.interp.ctx.exec.recording()
    }

    /// Stops the flight recorder and returns the finished [`Recording`]
    /// (with a final checkpoint of the terminal state), or `None` if
    /// recording was never started.
    pub fn take_recording(&mut self) -> Option<Recording> {
        self.interp.ctx.exec.take_recording()
    }

    /// Captures `print`/`printf` output instead of writing to stdout.
    pub fn capture_output(&mut self) {
        self.interp.capture_output();
    }

    /// Takes everything printed since the last call.
    pub fn take_output(&mut self) -> String {
        self.interp.take_output()
    }

    /// Reads a global variable.
    pub fn global(&self, name: &str) -> LuaValue {
        self.interp.global(name)
    }

    /// Sets a global variable.
    pub fn set_global(&mut self, name: &str, v: LuaValue) {
        self.interp.set_global(name, v);
    }

    /// Calls a global (Lua or Terra) function with numeric arguments and
    /// expects a numeric result.
    ///
    /// # Errors
    ///
    /// Fails if the global is not callable, or on any staging/runtime error.
    pub fn call_f64(&mut self, name: &str, args: &[f64]) -> EvalResult<f64> {
        let f = self.interp.global(name);
        let argv: Vec<LuaValue> = args.iter().map(|n| LuaValue::Number(*n)).collect();
        let out = self
            .interp
            .call_value(f, argv, terra_syntax::Span::synthetic())?;
        match out.first() {
            Some(LuaValue::Number(n)) => Ok(*n),
            Some(LuaValue::Bool(b)) => Ok(*b as i64 as f64),
            other => Err(LuaError::msg(format!(
                "'{name}' returned {:?}, expected a number",
                other.map(|v| v.type_name())
            ))),
        }
    }

    /// Like [`Terra::call_f64`], truncating to an integer.
    ///
    /// # Errors
    ///
    /// Same as [`Terra::call_f64`].
    pub fn call_i64(&mut self, name: &str, args: &[f64]) -> EvalResult<i64> {
        Ok(self.call_f64(name, args)? as i64)
    }

    /// Resolves a global Terra function into a fast-call handle, compiling
    /// it (and its connected component) now.
    ///
    /// # Errors
    ///
    /// Fails if the global is not a Terra function or does not compile.
    pub fn function(&mut self, name: &str) -> EvalResult<TerraFn> {
        let LuaValue::TerraFunc(id) = self.interp.global(name) else {
            return Err(LuaError::msg(format!(
                "global '{name}' is not a terra function"
            )));
        };
        terra_eval::typecheck::ensure_compiled(
            &mut self.interp,
            id,
            terra_syntax::Span::synthetic(),
        )?;
        let sig = self
            .context()
            .function(id)
            .expect("just compiled")
            .ty
            .clone();
        Ok(TerraFn {
            id,
            sig: Rc::new(sig),
        })
    }

    /// Invokes a pre-resolved Terra function with raw FFI values — the
    /// low-overhead path used by the benchmark harness.
    ///
    /// # Errors
    ///
    /// Propagates VM traps (out-of-bounds, division by zero, …).
    pub fn invoke(&mut self, f: &TerraFn, args: &[Value]) -> Result<Value, Trap> {
        let ctx = &mut self.interp.ctx;
        ctx.exec.call(f.id, args)
    }

    /// Allocates `bytes` of Terra memory (like C `malloc`), returning the
    /// address.
    pub fn malloc(&mut self, bytes: u64) -> u64 {
        self.interp.ctx.exec.malloc(bytes)
    }

    /// Frees Terra memory.
    ///
    /// # Errors
    ///
    /// Fails on addresses not returned by [`Terra::malloc`].
    pub fn free(&mut self, addr: u64) -> Result<(), Trap> {
        self.interp.ctx.exec.free(addr)?;
        Ok(())
    }

    /// Writes an `f64` slice into Terra memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (allocate first).
    pub fn write_f64s(&mut self, addr: u64, data: &[f64]) {
        let mem = &mut self.interp.ctx.exec.memory;
        for (i, v) in data.iter().enumerate() {
            mem.store_f64(addr + 8 * i as u64, *v)
                .expect("write_f64s out of bounds");
        }
    }

    /// Reads `n` `f64`s from Terra memory.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_f64s(&self, addr: u64, n: usize) -> Vec<f64> {
        let mem = &self.interp.ctx.exec.memory;
        (0..n as u64)
            .map(|i| mem.load_f64(addr + 8 * i).expect("read_f64s out of bounds"))
            .collect()
    }

    /// Writes an `f32` slice into Terra memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_f32s(&mut self, addr: u64, data: &[f32]) {
        let mem = &mut self.interp.ctx.exec.memory;
        for (i, v) in data.iter().enumerate() {
            mem.store_f32(addr + 4 * i as u64, *v)
                .expect("write_f32s out of bounds");
        }
    }

    /// Reads `n` `f32`s from Terra memory.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_f32s(&self, addr: u64, n: usize) -> Vec<f32> {
        let mem = &self.interp.ctx.exec.memory;
        (0..n as u64)
            .map(|i| mem.load_f32(addr + 4 * i).expect("read_f32s out of bounds"))
            .collect()
    }

    /// Direct access to the underlying interpreter, for advanced embedding.
    pub fn interp(&mut self) -> &mut Interp {
        &mut self.interp
    }

    /// The execution context: the shared compiled [`terra_vm::Program`]
    /// plus this session's linear memory and run state.
    pub fn context(&self) -> &terra_vm::ExecutionContext {
        &self.interp.ctx.exec
    }
}

/// A resolved, compiled Terra function, callable without name lookup.
#[derive(Debug, Clone)]
pub struct TerraFn {
    id: FuncId,
    sig: Rc<FuncTy>,
}

impl TerraFn {
    /// The function's signature.
    pub fn signature(&self) -> &FuncTy {
        &self.sig
    }

    /// The function id in the program's function table.
    pub fn id(&self) -> FuncId {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_quickstart() {
        let mut t = Terra::new();
        t.exec("terra sq(x : double) : double return x * x end")
            .unwrap();
        assert_eq!(t.call_f64("sq", &[1.5]).unwrap(), 2.25);
    }

    #[test]
    fn fast_call_handles() {
        let mut t = Terra::new();
        t.exec("terra addmul(a : double, b : double, c : double) : double return a * b + c end")
            .unwrap();
        let f = t.function("addmul").unwrap();
        assert_eq!(f.signature().params.len(), 3);
        let r = t
            .invoke(
                &f,
                &[Value::Float(3.0), Value::Float(4.0), Value::Float(5.0)],
            )
            .unwrap();
        assert_eq!(r, Value::Float(17.0));
    }

    #[test]
    fn memory_roundtrip() {
        let mut t = Terra::new();
        let buf = t.malloc(8 * 4);
        t.write_f64s(buf, &[1.0, 2.0, 3.0, 4.0]);
        t.exec("terra sum4(p : &double) : double return p[0] + p[1] + p[2] + p[3] end")
            .unwrap();
        let f = t.function("sum4").unwrap();
        let r = t.invoke(&f, &[Value::Ptr(buf)]).unwrap();
        assert_eq!(r, Value::Float(10.0));
        t.free(buf).unwrap();
    }

    #[test]
    fn modules_via_require() {
        let mut t = Terra::new();
        t.register_module("shapes", "return { sides = function() return 4 end }");
        t.exec("local m = require 'shapes' function f() return m.sides() end")
            .unwrap();
        assert_eq!(t.call_i64("f", &[]).unwrap(), 4);
    }

    #[test]
    fn captured_output() {
        let mut t = Terra::new();
        t.capture_output();
        t.exec("print('staged', 1 + 1)").unwrap();
        assert_eq!(t.take_output(), "staged\t2\n");
    }

    #[test]
    fn errors_carry_phase() {
        let mut t = Terra::new();
        let err = t
            .exec("terra f() : int return x_undefined end")
            .unwrap_err();
        assert_eq!(err.phase, Phase::Specialize);
    }
}
