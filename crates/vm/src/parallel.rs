//! The `parallelfor` harness: data-parallel loop execution on scoped threads.
//!
//! A `parallelfor i = lo, hi do ... end` loop is compiled into a *kernel*
//! function `kernel(i, captures...)` plus a call into [`run_parallelfor`],
//! which partitions the iteration space and runs each partition in its own
//! [`ExecutionContext`] over the shared `Arc<Program>` — the payoff of the
//! program/context split.
//!
//! # Determinism contract
//!
//! Everything observable is a function of the *loop*, never of the thread
//! count or scheduling:
//!
//! - **Static chunking.** The iteration space is split into
//!   [`chunk_count`]`(n)` contiguous chunks — a function of the iteration
//!   count alone. `--threads=1` runs the *same* chunks sequentially in
//!   order; more threads only changes which OS thread executes a chunk.
//! - **Deterministic addresses.** Each chunk's kernel frames live in a
//!   private stack window carved at a position determined by the chunk
//!   index (see [`Memory::parallel_stack_span`]), so `FrameAddr` values —
//!   and therefore any pointer a kernel takes to a local — are identical at
//!   every thread count.
//! - **Order-independent profiles.** Each chunk of an observed region
//!   collects into a fresh shard of the region's observer (counters, and a
//!   cold cache simulator when profiling) merged back in chunk order with
//!   commutative sums, so `--profile` output is byte-identical at any
//!   `--threads`. An unobserved region's workers carry no shard at all.
//! - **Run-to-completion traps.** A trap stops only its own chunk; every
//!   other chunk still runs to completion (or its own first trap). The
//!   lowest-chunk-index trap is reported. No cancellation means no
//!   timing-dependent heap states.
//! - **Chunk-ordered output.** Worker `printf` output is captured per chunk
//!   and re-emitted in chunk order after the loop.
//!
//! # Kernel restrictions
//!
//! Before any iteration runs, [`check_kernel`] walks the kernel's bytecode
//! (transitively through direct calls) and rejects operations that cannot
//! be made deterministic or safe across workers: heap allocation
//! (`malloc`/`free`/`realloc` — worker views share the parent's buffer,
//! which must not grow or reshape while borrowed), the global RNG
//! (`rand`/`srand` mutate run-order-dependent state), wall-clock `clock`,
//! and indirect calls (their targets cannot be checked statically).
//! Violations raise [`TrapKind::Parallel`] before any work starts.

use crate::bytecode::{CompiledFunction, Instr};
use crate::exec::ExecutionContext;
use crate::machine::{ExecResult, Trap, TrapKind};
use crate::observer::{observed, Observer};
use crate::program::Program;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use terra_ir::{Effect, FuncId};

/// One joined `parallelfor` region, as handed to [`Observer::on_chunks`].
#[derive(Debug)]
pub(crate) struct ParRegion<'a> {
    /// The `par.for` instruction (`function[pc]`) that ran the region: the
    /// parallel telemetry is keyed by its function, source line and staging
    /// chain. `None` for host-driven invocations, recorded under `(host)`.
    pub site: Option<(&'a CompiledFunction, usize)>,
    /// Name of the outlined kernel function.
    pub kernel: &'a str,
    /// Worker threads actually used.
    pub threads: u64,
    pub lo: i64,
    pub iterations: u64,
    /// Per-chunk wall-clock `(start, duration)` in µs since the tracer
    /// epoch; never part of the deterministic profile surface.
    pub times: &'a [(u64, u64)],
}

impl ParRegion<'_> {
    /// Iteration range `[start, end)` of chunk `c`.
    pub fn range(&self, c: u64) -> (i64, i64) {
        chunk_range(self.lo, self.iterations, self.times.len() as u64, c)
    }

    /// Worker index chunk `c` ran on: the static block split
    /// `c / ceil(chunks / threads)`.
    pub fn worker_of(&self, c: u64) -> u64 {
        c / (self.times.len() as u64).div_ceil(self.threads)
    }
}

/// Number of chunks a loop of `n` iterations is split into. A function of
/// `n` **only** — never of the thread count — so chunk boundaries, worker
/// stack addresses, and profile shards are identical however many threads
/// execute them. 32 chunks keeps 8 threads busy (4 chunks each) while
/// leaving each chunk a useful slice of the worker stack span.
pub fn chunk_count(n: u64) -> u64 {
    n.min(32)
}

/// Iteration range of chunk `c` of `count` over `[lo, hi)`: the standard
/// balanced split, earlier chunks taking the remainder.
fn chunk_range(lo: i64, n: u64, count: u64, c: u64) -> (i64, i64) {
    let start = lo + (n * c / count) as i64;
    let end = lo + (n * (c + 1) / count) as i64;
    (start, end)
}

/// Statically verifies that `root` is a legal `parallelfor` kernel,
/// walking direct calls transitively.
///
/// # Errors
///
/// [`TrapKind::Parallel`] naming the offending function and operation, or
/// [`TrapKind::Undefined`] if the kernel reaches an undefined function.
pub fn check_kernel(program: &Program, root: FuncId) -> Result<(), TrapKind> {
    let mut visited: HashSet<u32> = HashSet::new();
    let mut worklist = vec![root];
    while let Some(id) = worklist.pop() {
        if !visited.insert(id.0) {
            continue;
        }
        let func = program.defined(id)?;
        for instr in &func.code {
            match instr {
                Instr::CallBuiltin { b, .. } => {
                    if matches!(
                        b.info().effect,
                        Effect::Allocates | Effect::Nondeterministic
                    ) {
                        return Err(TrapKind::Parallel(format!(
                            "kernel function '{}' calls '{}', which is not \
                             allowed inside a parallel loop",
                            func.name,
                            b.name()
                        )));
                    }
                }
                Instr::CallIndirect { .. } => {
                    return Err(TrapKind::Parallel(format!(
                        "kernel function '{}' makes an indirect call, which \
                         cannot be checked for a parallel loop",
                        func.name
                    )));
                }
                Instr::ParFor { .. } => {
                    return Err(TrapKind::Parallel(format!(
                        "kernel function '{}' contains a nested parallelfor, \
                         which is not supported",
                        func.name
                    )));
                }
                Instr::Call { f, .. } => worklist.push(*f),
                _ => {}
            }
        }
    }
    Ok(())
}

/// Runs one chunk: kernel invocations for `start..end`, stopping at the
/// chunk's first trap. `extra` holds the captures' slots, laid out as the
/// kernel's parameters after the index.
fn run_chunk(
    worker: &mut ExecutionContext,
    kernel: FuncId,
    start: i64,
    end: i64,
    extra: &[u64],
) -> Option<Trap> {
    // Held once per chunk: workers share the program's reference count.
    let program = Arc::clone(worker.program());
    let mut args: Vec<u64> = Vec::with_capacity(1 + extra.len());
    args.push(0);
    args.extend_from_slice(extra);
    for i in start..end {
        args[0] = i as u64;
        if let Err(trap) = worker.call_slots(&program, kernel, &args) {
            return Some(trap);
        }
    }
    None
}

/// Folds quiesced workers back into `ctx` in chunk order: observer shards
/// (through [`Observer::on_chunks`]) and captured printf output (appended,
/// so output order is deterministic).
fn join_region<O: Observer>(
    ctx: &mut ExecutionContext,
    obs: &mut O,
    region: &ParRegion<'_>,
    mut workers: Vec<ExecutionContext>,
) {
    let outputs: Vec<String> = workers.iter_mut().map(|w| w.take_output()).collect();
    obs.on_chunks(region, &mut workers, &outputs);
    for text in &outputs {
        ctx.emit(text);
    }
}

/// Executes `kernel(i, extra...)` for every `i` in `[lo, hi)` across the
/// context's configured worker threads. See the module docs for the
/// determinism contract; `extra` holds the loop body's captured values
/// (already encoded as register slots, a vector taking four). Host-driven:
/// the region's telemetry is recorded under `(host)`.
///
/// # Errors
///
/// [`TrapKind::Parallel`] from the static kernel check (no site: none of
/// the region's code has run), or the lowest-chunk-index trap raised by the
/// kernel itself, with its site in the kernel.
pub fn run_parallelfor(
    ctx: &mut ExecutionContext,
    kernel_id: FuncId,
    lo: i64,
    hi: i64,
    extra: &[u64],
) -> ExecResult<()> {
    observed!(ctx, |obs| run_parallelfor_at(
        ctx, obs, kernel_id, lo, hi, extra, None
    ))
}

/// [`run_parallelfor`] under the caller's observer, for the `par.for`
/// instruction at `site`. Worker contexts start from `obs`'s shards, and
/// the joined region is handed to [`Observer::on_chunks`] — see
/// `terra_trace::ParallelStats` for what the telemetry preserves and why
/// it stays deterministic.
pub(crate) fn run_parallelfor_at<O: Observer>(
    ctx: &mut ExecutionContext,
    obs: &mut O,
    kernel_id: FuncId,
    lo: i64,
    hi: i64,
    extra: &[u64],
    site: Option<(&CompiledFunction, usize)>,
) -> ExecResult<()> {
    check_kernel(ctx.program(), kernel_id)?;
    let kernel = Arc::clone(ctx.program().defined(kernel_id)?);
    if kernel.param_slots() != 1 + extra.len() {
        let (expected, got) = (kernel.param_slots(), 1 + extra.len());
        return Err(TrapKind::ArityMismatch { expected, got }.into());
    }
    if hi <= lo {
        return Ok(());
    }
    let n = (hi - lo) as u64;
    let chunks = chunk_count(n);

    // Carve one private stack window per CHUNK (not per thread) from the
    // unused remainder of this context's stack, so kernel frame addresses
    // depend only on the chunk index.
    let (span_lo, span_hi) = ctx.memory.parallel_stack_span();
    let per = ((span_hi - span_lo) / chunks) & !15;
    if per < 1024 {
        return Err(
            TrapKind::Parallel("insufficient stack space for a parallel region".into()).into(),
        );
    }

    // The sanitizer's freed-block tracking is snapshotted per worker and
    // kernels cannot free, so running chunks on one thread keeps its
    // reports stable and readable.
    let threads = if ctx.memory.sanitize_enabled() {
        1
    } else {
        ctx.threads().min(chunks as usize).max(1)
    };

    let mut workers: Vec<ExecutionContext> = (0..chunks)
        .map(|c| ctx.worker(obs.shard(), span_lo + c * per, span_lo + (c + 1) * per))
        .collect();
    let mut traps: Vec<Option<Trap>> = (0..chunks).map(|_| None).collect();
    // Per-chunk wall-clock (start, dur) in µs, for the Chrome worker
    // timelines.
    let mut times: Vec<(u64, u64)> = vec![(0, 0); chunks as usize];
    let region_us = ctx.trace.now_us();
    let region_t0 = Instant::now();

    // Runs a contiguous block of chunks, the first being chunk `first`.
    let run_block = |first: usize,
                     workers: &mut [ExecutionContext],
                     traps: &mut [Option<Trap>],
                     times: &mut [(u64, u64)]| {
        for (j, ((worker, trap), time)) in workers.iter_mut().zip(traps).zip(times).enumerate() {
            let (start, end) = chunk_range(lo, n, chunks, (first + j) as u64);
            let t0 = region_t0.elapsed().as_micros() as u64;
            *trap = run_chunk(worker, kernel_id, start, end, extra);
            let t1 = region_t0.elapsed().as_micros() as u64;
            *time = (region_us + t0, t1.saturating_sub(t0));
        }
    };
    if threads == 1 {
        // Sequential fallback: same chunk structure, same windows, same
        // shard merge — only the executing thread differs.
        run_block(0, &mut workers, &mut traps, &mut times);
    } else {
        // One spawned task per thread, each owning a contiguous block of
        // chunks. Block assignment affects only wall-clock, not results.
        let per_thread = chunks.div_ceil(threads as u64) as usize;
        let run_block = &run_block;
        // The scope joins every thread before it returns and re-raises a
        // panic of any of them.
        std::thread::scope(|s| {
            for (t, ((wblock, tblock), mblock)) in workers
                .chunks_mut(per_thread)
                .zip(traps.chunks_mut(per_thread))
                .zip(times.chunks_mut(per_thread))
                .enumerate()
            {
                s.spawn(move || run_block(t * per_thread, wblock, tblock, mblock));
            }
        });
    }

    let region = ParRegion {
        site,
        kernel: &kernel.name,
        threads: threads as u64,
        lo,
        iterations: n,
        times: &times,
    };
    join_region(ctx, obs, &region, workers);

    // Report the lowest-chunk-index trap (every chunk has already run to
    // its own completion, so the heap state is thread-count-independent).
    match traps.into_iter().flatten().next() {
        Some(trap) => Err(trap),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compiled, Addr, Instr as I, NO_REG};
    use crate::program::Value;
    use terra_ir::{Builtin, FuncTy, Ty};

    /// kernel(i, base): stores i*i into base[i] (f64).
    fn square_kernel(ctx: &mut ExecutionContext) -> FuncId {
        let id = ctx.declare("square");
        ctx.define(
            id,
            compiled(
                "square",
                FuncTy {
                    params: vec![Ty::I64, Ty::F64.ptr_to()],
                    ret: Ty::Unit,
                },
                6,
                vec![
                    I::MulI { d: 2, a: 0, b: 0 },
                    I::CvtSToF64 { d: 3, a: 2 },
                    I::Lea {
                        d: 4,
                        m: Addr {
                            a: 1,
                            b: 0,
                            scale: 8,
                            disp: 0,
                        },
                    },
                    I::StoreF64 {
                        m: Addr::reg(4),
                        s: 3,
                        chk: true,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        id
    }

    fn run_squares(threads: usize, n: i64) -> (Vec<f64>, ExecResult<()>) {
        let mut ctx = ExecutionContext::new();
        ctx.set_threads(threads);
        let id = square_kernel(&mut ctx);
        let base = ctx.memory.malloc(8 * n as u64);
        let r = run_parallelfor(&mut ctx, id, 0, n, &[base]);
        let out = (0..n)
            .map(|i| ctx.memory.load_f64(base + 8 * i as u64).unwrap())
            .collect();
        (out, r)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (seq, r1) = run_squares(1, 1000);
        assert!(r1.is_ok());
        for threads in [2, 4, 8] {
            let (par, r) = run_squares(threads, 1000);
            assert!(r.is_ok());
            assert_eq!(seq, par, "results differ at {threads} threads");
        }
        assert_eq!(seq[31], 31.0 * 31.0);
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let (_, r) = run_squares(4, 0);
        assert!(r.is_ok());
        let (out, r) = run_squares(4, 3);
        assert!(r.is_ok());
        assert_eq!(out, vec![0.0, 1.0, 4.0]);
    }

    #[test]
    fn kernel_check_rejects_malloc() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("alloc_in_kernel");
        ctx.define(
            id,
            compiled(
                "alloc_in_kernel",
                FuncTy {
                    params: vec![Ty::I64],
                    ret: Ty::Unit,
                },
                2,
                vec![
                    I::CallBuiltin {
                        d: 1,
                        b: Builtin::Malloc,
                        args: 0,
                        nargs: 1,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        let err = run_parallelfor(&mut ctx, id, 0, 4, &[]).unwrap_err();
        assert!(matches!(err.kind, TrapKind::Parallel(ref m) if m.contains("malloc")));
        assert!(err.site.is_none(), "no code of the region ran");
    }

    #[test]
    fn kernel_check_rejects_transitive_rand() {
        let mut ctx = ExecutionContext::new();
        let inner = ctx.declare("roll");
        ctx.define(
            inner,
            compiled(
                "roll",
                FuncTy {
                    params: vec![],
                    ret: Ty::I64,
                },
                1,
                vec![
                    I::CallBuiltin {
                        d: 0,
                        b: Builtin::Rand,
                        args: 0,
                        nargs: 0,
                    },
                    I::Ret { s: 0, w: 1 },
                ],
            ),
        );
        let outer = ctx.declare("kern");
        ctx.define(
            outer,
            compiled(
                "kern",
                FuncTy {
                    params: vec![Ty::I64],
                    ret: Ty::Unit,
                },
                2,
                vec![
                    I::Call {
                        d: 1,
                        w: 1,
                        f: inner,
                        args: 1,
                        nargs: 0,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        let err = run_parallelfor(&mut ctx, outer, 0, 4, &[]).unwrap_err();
        assert!(matches!(err.kind, TrapKind::Parallel(ref m) if m.contains("rand")));
    }

    #[test]
    fn trap_reports_lowest_chunk_and_all_chunks_complete() {
        // kernel(i, base): traps (div by zero) when i == 17 or i == 900;
        // otherwise writes 1.0 to base[i].
        let build = |threads: usize| {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            let id = ctx.declare("trapper");
            ctx.define(
                id,
                compiled(
                    "trapper",
                    FuncTy {
                        params: vec![Ty::I64, Ty::F64.ptr_to()],
                        ret: Ty::Unit,
                    },
                    10,
                    vec![
                        // r2 = (i == 17), r3 = (i == 900)
                        I::ConstI { d: 4, v: 17 },
                        I::CmpEqI { d: 2, a: 0, b: 4 },
                        I::ConstI { d: 4, v: 900 },
                        I::CmpEqI { d: 3, a: 0, b: 4 },
                        I::Or { d: 2, a: 2, b: 3 },
                        I::BrFalse { c: 2, target: 8 },
                        I::ConstI { d: 5, v: 0 },
                        I::DivS { d: 5, a: 0, b: 5 }, // trap
                        // base[i] = 1.0
                        I::ConstF64 { d: 6, v: 1.0 },
                        I::Lea {
                            d: 7,
                            m: Addr {
                                a: 1,
                                b: 0,
                                scale: 8,
                                disp: 0,
                            },
                        },
                        I::StoreF64 {
                            m: Addr::reg(7),
                            s: 6,
                            chk: true,
                        },
                        I::Ret { s: NO_REG, w: 0 },
                    ],
                ),
            );
            let base = ctx.memory.malloc(8 * 1000);
            ctx.memory.fill(base, 0, 8 * 1000).unwrap();
            let r = run_parallelfor(&mut ctx, id, 0, 1000, &[base]);
            let heap: Vec<u64> = (0..1000)
                .map(|i| ctx.memory.load_u64(base + 8 * i).unwrap())
                .collect();
            (r, heap)
        };
        let (r1, h1) = build(1);
        let (r4, h4) = build(4);
        assert_eq!(r1, r4, "trap must be thread-count independent");
        // The same trap, site included: the kernel's frame in chunk 0.
        let trap = r1.unwrap_err();
        assert_eq!(trap.kind, TrapKind::DivByZero);
        assert_eq!(trap.site, Some(terra_trace::Site::new("trapper", 0, None)));
        assert_eq!(h1, h4, "heap state must be thread-count independent");
        // Iterations after the trapping one in the same chunk did not run;
        // all other chunks completed.
        assert_eq!(h1[16], 1.0f64.to_bits());
        assert_eq!(h1[17], 0);
        assert_eq!(h1[999], 1.0f64.to_bits());
    }

    #[test]
    fn profile_is_byte_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            ctx.set_profile(true);
            ctx.set_sample_interval(7);
            let id = square_kernel(&mut ctx);
            let base = ctx.memory.malloc(8 * 500);
            run_parallelfor(&mut ctx, id, 0, 500, &[base]).unwrap();
            ctx.profile()
        };
        let p1 = run(1);
        for threads in [2, 4, 8] {
            let p = run(threads);
            assert_eq!(p1.ops, p.ops, "opcode counters at {threads} threads");
            assert_eq!(p1.funcs, p.funcs, "function counters at {threads} threads");
            assert_eq!(p1.mem, p.mem, "memory counters at {threads} threads");
            assert_eq!(p1.cache, p.cache, "cache stats at {threads} threads");
            assert_eq!(
                p1.cache_lines, p.cache_lines,
                "cache line table at {threads} threads"
            );
            assert_eq!(p1.samples, p.samples, "samples at {threads} threads");
        }
        // Sanity: the loop actually counted something.
        assert_eq!(p1.func("square").map(|f| f.counters.calls), Some(500));
        assert!(p1.mem.stores[3] >= 500);
    }

    #[test]
    fn shard_merge_is_independent_of_worker_interleaving() {
        // Two workers execute their chunks in opposite temporal orders; the
        // merge happens in chunk order either way, so every profile section
        // must come out byte-identical.
        let run_interleaved = |reverse: bool| {
            let mut ctx = ExecutionContext::new();
            ctx.set_profile(true);
            let id = square_kernel(&mut ctx);
            let base = ctx.memory.malloc(8 * 64);
            let (lo, hi) = ctx.memory.parallel_stack_span();
            let per = ((hi - lo) / 2) & !15;
            // As inside a call: the context's observer is moved out and
            // the workers start from its shards.
            let mut tel = ctx.telemetry.take().unwrap();
            let mut w0 = ctx.worker(tel.shard(), lo, lo + per);
            let mut w1 = ctx.worker(tel.shard(), lo + per, lo + 2 * per);
            let extra = [base];
            if reverse {
                assert!(run_chunk(&mut w1, id, 32, 64, &extra).is_none());
                assert!(run_chunk(&mut w0, id, 0, 32, &extra).is_none());
            } else {
                assert!(run_chunk(&mut w0, id, 0, 32, &extra).is_none());
                assert!(run_chunk(&mut w1, id, 32, 64, &extra).is_none());
            }
            let region = ParRegion {
                site: None,
                kernel: "square",
                threads: 2,
                lo: 0,
                iterations: 64,
                times: &[(0, 0); 2],
            };
            join_region(&mut ctx, &mut *tel, &region, vec![w0, w1]);
            ctx.telemetry = Some(tel);
            ctx.profile()
        };
        let fwd = run_interleaved(false);
        let rev = run_interleaved(true);
        assert_eq!(fwd.ops, rev.ops, "opcode counters");
        assert_eq!(fwd.funcs, rev.funcs, "function counters");
        assert_eq!(fwd.mem, rev.mem, "memory counters");
        assert_eq!(fwd.cache, rev.cache, "cache stats");
        assert_eq!(fwd.cache_lines, rev.cache_lines, "cache line table");
        // Merged totals equal a plain sequential run of the same 64
        // iterations (cache stats aside: this hand-carved 2-chunk split
        // places worker stack windows differently from the standard
        // schedule, so simulated addresses differ).
        let mut seq = ExecutionContext::new();
        seq.set_profile(true);
        let id = square_kernel(&mut seq);
        let base = seq.memory.malloc(8 * 64);
        run_parallelfor(&mut seq, id, 0, 64, &[base]).unwrap();
        let sp = seq.profile();
        assert_eq!(fwd.ops, sp.ops, "opcode totals vs sequential");
        assert_eq!(fwd.funcs, sp.funcs, "function totals vs sequential");
        assert_eq!(fwd.mem, sp.mem, "memory totals vs sequential");
    }

    #[test]
    fn frame_addresses_are_thread_count_independent() {
        // kernel(i, base): base[i] = FrameAddr(0) — leaks the worker stack
        // address of a frame slot, the most scheduling-sensitive value.
        let run = |threads: usize| {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            let id = ctx.declare("leak");
            ctx.define(
                id,
                CompiledFunction::new(
                    "leak",
                    FuncTy {
                        params: vec![Ty::I64, Ty::I64.ptr_to()],
                        ret: Ty::Unit,
                    },
                    4,
                    32,
                    vec![
                        I::FrameAddr { d: 2, offset: 0 },
                        I::Lea {
                            d: 3,
                            m: Addr {
                                a: 1,
                                b: 0,
                                scale: 8,
                                disp: 0,
                            },
                        },
                        I::Store64 {
                            m: Addr::reg(3),
                            s: 2,
                            chk: true,
                        },
                        I::Ret { s: NO_REG, w: 0 },
                    ],
                )
                .unwrap(),
            );
            let base = ctx.memory.malloc(8 * 64);
            run_parallelfor(&mut ctx, id, 0, 64, &[base]).unwrap();
            (0..64)
                .map(|i| ctx.memory.load_u64(base + 8 * i).unwrap())
                .collect::<Vec<_>>()
        };
        let a1 = run(1);
        let a4 = run(4);
        let a8 = run(8);
        assert_eq!(a1, a4);
        assert_eq!(a1, a8);
    }

    #[test]
    fn chunk_count_edges() {
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(31), 31);
        assert_eq!(chunk_count(32), 32);
        assert_eq!(chunk_count(33), 32);
        assert_eq!(chunk_count(u64::MAX), 32);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Chunk windows exactly tile `[lo, hi)`: contiguous, in order, no
        /// overlap, no gap — including for negative lower bounds.
        #[test]
        fn chunks_tile_the_iteration_space(lo in -10_000i64..10_000, n in 0u64..100_000) {
            let hi = lo + n as i64;
            let count = chunk_count(n);
            let mut cursor = lo;
            for c in 0..count {
                let (start, end) = chunk_range(lo, n, count, c);
                proptest::prop_assert_eq!(start, cursor, "chunk {} must start where {} ended", c, c.wrapping_sub(1));
                proptest::prop_assert!(end >= start, "chunk {} is non-empty-or-forward", c);
                cursor = end;
            }
            proptest::prop_assert_eq!(cursor, hi, "chunks must cover [lo, hi) exactly");
        }
    }

    #[test]
    fn telemetry_preserves_per_chunk_shards() {
        let run = |threads: usize| {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            ctx.set_profile(true);
            let id = square_kernel(&mut ctx);
            let base = ctx.memory.malloc(8 * 500);
            run_parallelfor(&mut ctx, id, 0, 500, &[base]).unwrap();
            ctx.profile()
        };
        let p = run(4);
        assert_eq!(p.parallel.sites.len(), 1);
        let s = &p.parallel.sites[0];
        // Host-driven invocation (no ParFor instruction): recorded under
        // the fallback identity.
        assert_eq!(s.site, terra_trace::Site::host());
        assert_eq!(s.kernel, "square");
        assert_eq!(s.invocations, 1);
        assert_eq!(s.iterations, 500);
        assert_eq!(s.chunks.len(), 32);
        assert_eq!(s.threads, 4);
        // Chunk windows carry the real iteration ranges.
        assert_eq!(s.chunks[0].start, 0);
        assert_eq!(s.chunks[31].end, 500);
        // Per-chunk instruction totals sum exactly to the kernel's merged
        // inclusive counter — every worker tick happens inside a kernel
        // activation, so nothing is lost or double-counted.
        let kernel_inclusive = p.func("square").unwrap().counters.inclusive;
        assert_eq!(s.total_instructions(), kernel_inclusive);
        // Same identity for loads/stores against the merged memory counters
        // (the parent context issued none outside the loop).
        assert_eq!(
            s.chunks.iter().map(|c| c.stores).sum::<u64>(),
            p.mem.total_stores()
        );
        // Worker assignment is the static block split: 32 chunks over 4
        // threads = 8 per worker.
        assert!(s.chunks.iter().all(|c| c.worker == c.chunk / 8));
        assert!(
            (s.efficiency() - 1.0).abs() < 1e-9,
            "uniform kernel is balanced"
        );
        assert!(
            (s.imbalance() - 1.0).abs() < 0.1,
            "uniform chunks (up to remainder)"
        );

        // Everything except worker assignment and wall clock is
        // thread-count invariant.
        let q = run(2);
        let t = &q.parallel.sites[0];
        assert_eq!(t.threads, 2);
        assert_eq!(s.chunks.len(), t.chunks.len());
        for (a, b) in s.chunks.iter().zip(&t.chunks) {
            assert_eq!(
                (a.chunk, a.start, a.end, a.instructions, a.loads, a.stores),
                (b.chunk, b.start, b.end, b.instructions, b.loads, b.stores)
            );
            assert_eq!((a.l1_misses, a.l2_misses), (b.l1_misses, b.l2_misses));
            assert_eq!(b.worker, b.chunk / 16, "2 threads -> 16 chunks per worker");
        }
        // And a second run at the same thread count is bit-identical on the
        // full deterministic surface (wall-clock fields excluded).
        let r = run(4);
        let u = &r.parallel.sites[0];
        for (a, b) in s.chunks.iter().zip(&u.chunks) {
            let strip = |c: &terra_trace::ParChunkStats| terra_trace::ParChunkStats {
                start_us: 0,
                dur_us: 0,
                ..c.clone()
            };
            assert_eq!(strip(a), strip(b));
        }
    }

    /// A function that *executes* a `par.for` counts only its own
    /// instructions: what its workers retire (their `chk` micro-ops
    /// included) lands in the kernel's row, at every thread count.
    #[test]
    fn parallel_region_does_not_leak_into_its_caller() {
        for threads in [1, 4] {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            ctx.set_profile(true);
            let kernel = square_kernel(&mut ctx);
            let caller = ctx.declare("caller");
            ctx.define(
                caller,
                compiled(
                    "caller",
                    FuncTy {
                        params: vec![Ty::I64, Ty::F64.ptr_to()],
                        ret: Ty::Unit,
                    },
                    3,
                    vec![
                        I::ConstI { d: 2, v: 0 },
                        I::ParFor {
                            f: kernel,
                            lo: 2,
                            hi: 0,
                            args: 1,
                            nargs: 1,
                        },
                        I::Ret { s: NO_REG, w: 0 },
                    ],
                ),
            );
            let base = ctx.memory.malloc(8 * 100);
            ctx.call(caller, &[Value::Int(100), Value::Ptr(base)])
                .unwrap();
            let p = ctx.profile();
            let row = |name: &str| {
                let c = p.func(name).unwrap().counters;
                (c.calls, c.inclusive, c.exclusive)
            };
            assert_eq!(row("caller"), (1, 3, 3), "at {threads} threads");
            // 5 instructions + 1 `chk` per iteration.
            assert_eq!(row("square"), (100, 600, 600), "at {threads} threads");
            assert_eq!(&*p.parallel.sites[0].site.func, "caller");
        }
    }

    /// Worker `printf` output is re-emitted in chunk order, whatever order
    /// the workers ran in.
    #[test]
    fn worker_output_merges_in_chunk_order() {
        let mut ctx = ExecutionContext::new();
        ctx.set_threads(4);
        ctx.output = crate::program::OutputSink::Capture(String::new());
        let fmt = ctx.intern_string("%d;");
        let id = ctx.declare("say");
        ctx.define(
            id,
            compiled(
                "say",
                FuncTy {
                    params: vec![Ty::I64],
                    ret: Ty::Unit,
                },
                3,
                vec![
                    I::ConstI {
                        d: 1,
                        v: fmt as i64,
                    },
                    I::Mov { d: 2, a: 0, w: 1 },
                    I::CallBuiltin {
                        d: NO_REG,
                        b: Builtin::Printf,
                        args: 1,
                        nargs: 2,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        run_parallelfor(&mut ctx, id, 0, 40, &[]).unwrap();
        let expect: String = (0..40).map(|i| format!("{i};")).collect();
        assert_eq!(ctx.take_output(), expect);
    }

    /// Each profiled worker's shard merges into the parent: its memory and
    /// cache totals are the sums of the per-chunk rows kept before the merge.
    #[test]
    fn worker_shards_merge_into_the_parent() {
        let mut ctx = ExecutionContext::new();
        ctx.set_threads(2);
        let id = square_kernel(&mut ctx);
        let base = ctx.memory.malloc(8 * 100);
        ctx.set_profile(true);
        run_parallelfor(&mut ctx, id, 0, 100, &[base]).unwrap();
        let p = ctx.profile();
        let chunks = &p.parallel.sites[0].chunks;
        let sum = |f: fn(&terra_trace::ParChunkStats) -> u64| chunks.iter().map(f).sum::<u64>();
        assert_eq!(p.mem.stores[3], 100);
        assert_eq!(sum(|c| c.stores), p.mem.total_stores());
        assert_eq!(sum(|c| c.loads), p.mem.total_loads());
        assert_eq!(sum(|c| c.l1_misses), p.cache.l1.misses);
        assert_eq!(sum(|c| c.l2_misses), p.cache.l2.misses);
    }

    #[test]
    fn telemetry_is_not_collected_without_profiling() {
        let mut ctx = ExecutionContext::new();
        ctx.set_threads(4);
        let id = square_kernel(&mut ctx);
        let base = ctx.memory.malloc(8 * 100);
        run_parallelfor(&mut ctx, id, 0, 100, &[base]).unwrap();
        assert!(ctx.parallel_stats().is_empty());
    }

    /// Pins the sampling profiler's parallel behavior: the sample interval
    /// propagates into worker shards (keyed by each shard's retired-
    /// instruction count), so kernel stacks show up in `== samples ==` and
    /// the sample set is identical at every thread count.
    #[test]
    fn sampler_propagates_into_workers() {
        let run = |threads: usize| {
            let mut ctx = ExecutionContext::new();
            ctx.set_threads(threads);
            ctx.set_sample_interval(5);
            let id = square_kernel(&mut ctx);
            let base = ctx.memory.malloc(8 * 400);
            run_parallelfor(&mut ctx, id, 0, 400, &[base]).unwrap();
            ctx.profile().samples
        };
        let s1 = run(1);
        assert!(s1.total > 0, "workers must capture samples");
        assert!(
            s1.stacks.iter().any(|(stack, _)| stack.contains("square")),
            "kernel frames must appear in sampled stacks: {:?}",
            s1.stacks
        );
        for threads in [2, 4, 8] {
            assert_eq!(s1, run(threads), "samples at {threads} threads");
        }
    }

    #[test]
    fn sequential_context_still_works_after_parallel_region() {
        let mut ctx = ExecutionContext::new();
        ctx.set_threads(4);
        let id = square_kernel(&mut ctx);
        let base = ctx.memory.malloc(8 * 100);
        run_parallelfor(&mut ctx, id, 0, 100, &[base]).unwrap();
        // The parent can still malloc, call, and push frames.
        let p = ctx.memory.malloc(64);
        assert_ne!(p, 0);
        let r = ctx.call(id, &[Value::Int(5), Value::Ptr(base)]).unwrap();
        assert_eq!(r, Value::Unit);
        assert_eq!(ctx.memory.load_f64(base + 40).unwrap(), 25.0);
    }
}
