//! Execution contexts: the mutable half of the VM.
//!
//! An [`ExecutionContext`] owns everything that changes while Terra code
//! runs — the register file and call stack, the linear [`Memory`], printf
//! output, the deterministic RNG, the staging [`Tracer`] and the
//! [`Telemetry`] observer — while the
//! compiled code itself lives in a shared, immutable
//! [`Arc<Program>`](crate::Program). The split is what makes parallelism
//! sound by construction: `ExecutionContext` is `Send` (asserted by a
//! compile-time test), so `parallelfor` can hand each worker thread its own
//! context over the same program with no locks and no `Rc`/`RefCell` on the
//! execution path.
//!
//! Staging still looks single-threaded to the embedder: `declare`/`define`
//! go through [`Arc::make_mut`], which mutates in place while the context
//! is the program's only owner (the common case between parallel regions)
//! and copy-on-writes otherwise.

use crate::bytecode::CompiledFunction;
use crate::machine::Vm;
use crate::memory::{MemResult, Memory};
use crate::observer::{Observer, Telemetry};
use crate::program::{OutputSink, Program};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use terra_ir::FuncId;
use terra_trace::{CacheConfig, ParallelStats, Site};

/// All mutable state needed to run Terra code against a shared
/// [`Program`]. One per thread of execution; cheap to construct.
#[derive(Debug)]
pub struct ExecutionContext {
    /// The immutable compiled program this context executes.
    pub(crate) program: Arc<Program>,
    /// The Terra address space (worker contexts hold shared views).
    pub memory: Memory,
    /// Interned string constants (address cache over `memory`).
    strings: HashMap<Arc<str>, u64>,
    /// printf destination.
    pub output: OutputSink,
    /// State of the deterministic `rand()` generator (public so hosts can
    /// seed reproducible workloads).
    pub rng_state: u64,
    /// Start instant for `clock()`.
    pub epoch: Instant,
    /// Staging-side observability sink: timeline spans and optimization
    /// remarks; spans are off by default.
    pub trace: terra_trace::Tracer,
    /// Worker threads for `parallelfor` (1 = sequential fallback).
    threads: usize,
    /// The VM-side observer (`--profile`, `--sample`, `--record`), created
    /// with the first gate. `None` also while a call runs: `call_raw` moves
    /// it out and hands it to the dispatch loop.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Register file and call stack: empty between calls, moved out while
    /// one runs (the dispatch loop borrows its frame window from it).
    pub(crate) vm: Vm,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionContext {
    /// Creates a context over a fresh, empty program.
    pub fn new() -> Self {
        Self::with_program(Arc::new(Program::new()))
    }

    /// Creates a context executing an existing shared program.
    pub fn with_program(program: Arc<Program>) -> Self {
        ExecutionContext {
            program,
            memory: Memory::default(),
            strings: HashMap::new(),
            output: OutputSink::Stdout,
            rng_state: 0x9E3779B97F4A7C15,
            epoch: Instant::now(),
            trace: terra_trace::Tracer::new(),
            threads: 1,
            telemetry: None,
            vm: Vm::new(),
        }
    }

    /// The shared immutable program. Clone the `Arc` to hand the program to
    /// another context (e.g. on another thread).
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    // -- staging façade ------------------------------------------------------
    //
    // Declaration and definition mutate the program through
    // `Arc::make_mut`. Between parallel regions this context is the sole
    // owner, so these are in-place writes; if the embedder stages while
    // holding other handles, the program copy-on-writes (shallowly — bodies
    // are behind `Arc`s) instead of racing them.

    /// Reserves a function id (the semantics' `tdecl`).
    pub fn declare(&mut self, name: impl Into<Arc<str>>) -> FuncId {
        Arc::make_mut(&mut self.program).declare(name)
    }

    /// Fills in a declared function.
    ///
    /// # Panics
    ///
    /// Panics if the id is already defined (definitions are write-once).
    pub fn define(&mut self, id: FuncId, f: CompiledFunction) {
        Arc::make_mut(&mut self.program).define(id, f);
    }

    /// Looks up a defined function.
    pub fn function(&self, id: FuncId) -> Option<&Arc<CompiledFunction>> {
        self.program.function(id)
    }

    /// Whether the id has been defined (not just declared).
    pub fn is_defined(&self, id: FuncId) -> bool {
        self.program.is_defined(id)
    }

    /// The declared name of a function id.
    pub fn name(&self, id: FuncId) -> &str {
        self.program.name(id)
    }

    /// Number of declared functions.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether no functions have been declared.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    // -- run state -----------------------------------------------------------

    /// Sets the worker-thread count for `parallelfor` regions.
    /// 1 = run parallel loops sequentially (the correctness oracle);
    /// 0 = resolve to the host's available core count, so embedders and the
    /// CLI agree on what "use the machine" means.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
    }

    /// The configured `parallelfor` worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.telemetry.get_or_insert_with(Box::default)
    }

    /// Turns profiling on or off: staging spans, the VM's exact counters,
    /// the memory-system counters. Data is kept until
    /// [`ExecutionContext::reset_profile`].
    pub fn set_profile(&mut self, on: bool) {
        self.trace.set_enabled(on);
        let tel = self.telemetry_mut();
        tel.profiling = on;
        if on {
            tel.traffic.arm();
        }
    }

    /// Clears all collected profile data (timeline, counters, samples,
    /// cache simulator) without changing the on/off gates.
    pub fn reset_profile(&mut self) {
        self.trace.reset();
        if let Some(tel) = &mut self.telemetry {
            tel.reset();
        }
    }

    /// Replaces the simulated cache geometry used while profiling
    /// (cold-resets the simulator).
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.telemetry_mut().traffic.set_config(cfg);
    }

    /// Per-chunk `parallelfor` telemetry collected while profiling.
    pub fn parallel_stats(&self) -> &ParallelStats {
        static NONE: ParallelStats = ParallelStats { sites: Vec::new() };
        self.telemetry.as_ref().map_or(&NONE, |tel| &tel.parallel)
    }

    /// Sets the sampling profiler's interval in retired instructions
    /// (0 = sampling off). Independent of the exact-profiling gate.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.telemetry_mut().set_sample_interval(interval);
    }

    /// The configured sampling interval (0 = sampling off).
    pub fn sample_interval(&self) -> u64 {
        self.telemetry
            .as_ref()
            .map_or(0, |tel| tel.sample_interval())
    }

    /// Freezes the current profile (timeline + VM + memory + cache + heap
    /// counters and collected samples).
    pub fn profile(&self) -> terra_trace::Profile {
        let mut p = self.trace.snapshot();
        if let Some(tel) = &self.telemetry {
            tel.fill(&mut p);
        }
        p
    }

    /// Allocates `size` bytes of Terra heap for the host — string constants,
    /// globals, the embedder's and Lua's `C.malloc` — which the heap profile
    /// lists under the `(host)` site.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let addr = self.memory.malloc(size);
        if let Some(tel) = &mut self.telemetry {
            tel.on_alloc(&self.memory, Site::host, addr, size);
        }
        addr
    }

    /// Frees a block of Terra heap for the host; fails as [`Memory::free`]
    /// does.
    pub fn free(&mut self, addr: u64) -> MemResult<()> {
        self.memory.free(addr)?;
        if let Some(tel) = &mut self.telemetry {
            tel.on_free(addr);
        }
        Ok(())
    }

    /// Interns a string constant into program memory, returning its address
    /// (NUL-terminated; repeated interning returns the same address).
    pub fn intern_string(&mut self, s: &str) -> u64 {
        if let Some(&addr) = self.strings.get(s) {
            return addr;
        }
        let addr = self.malloc(s.len() as u64 + 1);
        self.memory
            .write_bytes(addr, &[s.as_bytes(), &[0]].concat())
            .expect("fresh allocation is writable");
        self.strings.insert(Arc::from(s), addr);
        addr
    }

    /// Allocates a zero-initialized global cell of `size` bytes, returning
    /// its address, or `None` when the heap cannot hold that many.
    pub fn alloc_global(&mut self, size: u64, init: Option<&[u8]>) -> Option<u64> {
        let addr = self.malloc(size.max(1));
        if addr == 0 {
            return None;
        }
        self.memory
            .fill(addr, 0, size.max(1))
            .expect("fresh allocation is writable");
        if let Some(bytes) = init {
            self.memory
                .write_bytes(addr, bytes)
                .expect("fresh allocation is writable");
        }
        Some(addr)
    }

    /// Starts the execution flight recorder with the given configuration.
    /// Effects and checkpoints accumulate until
    /// [`ExecutionContext::take_recording`].
    pub fn set_record(&mut self, meta: terra_trace::RecMeta) {
        let rec = Box::new(terra_trace::Recorder::new(meta));
        self.telemetry_mut().set_recorder(Some(rec));
    }

    /// Whether the flight recorder is active.
    pub fn recording(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|tel| tel.recording())
    }

    /// Stops the flight recorder and returns the finished recording
    /// (with a final checkpoint of the terminal state), or `None` if
    /// recording was never started.
    pub fn take_recording(&mut self) -> Option<terra_trace::Recording> {
        let rec = self.telemetry.as_mut()?.set_recorder(None)?;
        // Between calls the register file is empty.
        let regs = crate::machine::state_hash(&[], &[]);
        let heap = self.memory.heap_hash();
        Some(rec.finish(regs, heap))
    }

    /// Sends program output (`printf` text) to the configured sink.
    pub(crate) fn emit(&mut self, text: &str) {
        match &mut self.output {
            OutputSink::Stdout => print!("{text}"),
            OutputSink::Capture(buf) => buf.push_str(text),
        }
    }

    /// Takes captured printf output, if capturing.
    pub fn take_output(&mut self) -> String {
        match &mut self.output {
            OutputSink::Capture(buf) => std::mem::take(buf),
            OutputSink::Stdout => String::new(),
        }
    }

    // -- parallel workers ----------------------------------------------------

    /// Builds the context for one `parallelfor` worker chunk: the shared
    /// program, a view of this context's memory with the given private
    /// stack window, the given observer shard (the region's observer makes
    /// it; this context's own is moved out while it runs), a captured
    /// output sink, and a fresh register file. Kernels are statically
    /// barred from `rand`, so the RNG state is a copy for completeness.
    pub(crate) fn worker(
        &mut self,
        telemetry: Option<Box<Telemetry>>,
        stack_base: u64,
        stack_limit: u64,
    ) -> ExecutionContext {
        ExecutionContext {
            program: Arc::clone(&self.program),
            memory: self.memory.worker_view(stack_base, stack_limit),
            strings: HashMap::new(),
            output: OutputSink::Capture(String::new()),
            rng_state: self.rng_state,
            epoch: self.epoch,
            trace: terra_trace::Tracer::new(),
            threads: 1,
            telemetry,
            vm: Vm::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tentpole guarantee: a context can be moved to another thread.
    fn assert_send<T: Send>() {}

    #[test]
    fn execution_context_is_send() {
        assert_send::<ExecutionContext>();
    }

    #[test]
    fn string_interning_dedupes() {
        let mut ctx = ExecutionContext::new();
        let a = ctx.intern_string("hello");
        let b = ctx.intern_string("hello");
        let c = ctx.intern_string("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ctx.memory.c_string(a).unwrap(), "hello");
    }

    #[test]
    fn staging_through_shared_program_copy_on_writes() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("f");
        // Another handle (e.g. a parked parallel region) forces a COW.
        let held = Arc::clone(ctx.program());
        let id2 = ctx.declare("g");
        assert_eq!(held.len(), 1);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.name(id), "f");
        assert_eq!(ctx.name(id2), "g");
    }

    #[test]
    fn threads_zero_resolves_to_host_cores() {
        let mut ctx = ExecutionContext::new();
        assert_eq!(ctx.threads(), 1);
        ctx.set_threads(0);
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(ctx.threads(), host);
        assert!(ctx.threads() >= 1);
        ctx.set_threads(8);
        assert_eq!(ctx.threads(), 8);
    }
}
