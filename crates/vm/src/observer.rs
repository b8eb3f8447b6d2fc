//! The observer seam: everything that *watches* Terra code execute.
//!
//! The dispatch loop (`machine.rs`) and the `parallelfor` harness are
//! generic over one [`Observer`] and call its hooks where something
//! observable happens. There are exactly two implementations:
//! [`NoObserver`], zero-sized, whose hooks are the empty defaults, so the
//! loop instantiated over it contains no telemetry code at all; and
//! [`Telemetry`], which owns every VM collector: the counter profiler, the
//! memory counters and cache simulator, the heap profiler, the per-chunk
//! parallel shards, the sampler and the flight recorder. `call_slots` picks
//! one per call, so "is anyone observing?" is never asked inside the loop,
//! and a budget or a race detector is one more implementation, not more
//! branches.
//!
//! **Dense counters.** No per-instruction hook touches a map. Opcode counts
//! are an array indexed by [`Instr::opcode`]; cache behaviour is attributed
//! to `(function, pc)` in a per-function table. Names, source lines and
//! mnemonic order are resolved only when a [`Profile`] is frozen
//! ([`Telemetry::fill`]), which keeps every rendered report byte-identical
//! to the map-keyed collectors this replaced.
//!
//! **One countdown.** The sampler's interval, the recorder's instruction
//! count and an activation's exclusive count all advance by one per retired
//! instruction, so they share one counter: `fuel`, decremented on every
//! retire and filled to the distance to the next instruction that needs
//! attention (a sample or a checkpoint coming due); reaching zero is the
//! only per-instruction test. What it counted is credited to the sampler
//! and the recorder when the observer *settles* — then, after an effect,
//! and at the end of every call — and an activation's exclusive count is
//! how far the clock moved between its call/return boundaries.

use crate::bytecode::{CompiledFunction, Instr, MNEMONICS, N_OPCODES};
use crate::cache::{Access, Touch, Traffic};
use crate::exec::ExecutionContext;
use crate::machine::state_hash;
use crate::memory::Memory;
use crate::parallel::ParRegion;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use terra_trace::{
    EffectKind, EffectSite, FuncCounters, FuncProfile, HeapProfiler, LineStat, ParChunkStats,
    ParallelStats, Profile, Recorder, Sampler, Site,
};

/// Hooks the dispatch loop and the `parallelfor` harness call, all empty
/// by default; each takes the pieces of the machine it reads. `func`/`pc`
/// always name the instruction being executed.
pub(crate) trait Observer {
    /// The observer a `parallelfor` worker context starts with: fresh
    /// counters behind the same gates, or `None` to run it unobserved.
    fn shard(&self) -> Option<Box<Telemetry>> {
        None
    }

    /// A frame for `callee` is about to be pushed.
    #[inline]
    fn on_call(&mut self, _callee: &Arc<CompiledFunction>) {}

    /// The innermost frame was popped (by `ret` or by a trap's unwind).
    #[inline]
    fn on_ret(&mut self) {}

    /// `instr` retires (called before it executes). The register file
    /// comes in two pieces: the frames below the running one, and its window.
    #[inline]
    fn on_retire(&mut self, _lower: &[u64], _frame: &[u64], _mem: &Memory, _instr: &Instr) {}

    /// The instruction at `pc` accessed `len` bytes at `addr`, in bounds.
    #[inline]
    fn on_mem(&mut self, _pc: usize, _addr: u64, _len: u64, _access: Access) {}

    /// The allocator gave `site` — a builtin's statement, or the host — the
    /// block at `addr` for `size` bytes (null: a size it could not meet).
    #[inline]
    fn on_alloc(&mut self, _mem: &Memory, _site: impl FnOnce() -> Site, _addr: u64, _size: u64) {}

    /// `free(addr)` succeeded (`free(NULL)` frees nothing).
    #[inline]
    fn on_free(&mut self, _addr: u64) {}

    /// The retiring instruction had an observable heap effect; `kind`
    /// builds its description only if someone wants it.
    #[inline]
    fn on_effect(
        &mut self,
        _mem: &Memory,
        _func: &CompiledFunction,
        _pc: usize,
        _kind: impl FnOnce() -> EffectKind,
    ) {
    }

    /// The retiring instruction printed `text`.
    #[inline]
    fn on_output(&mut self, _func: &CompiledFunction, _pc: usize, _text: &str) {}

    /// A `parallelfor` region joined: `workers[c]` ran chunk `c` and
    /// printed `outputs[c]`.
    fn on_chunks(
        &mut self,
        _region: &ParRegion<'_>,
        _workers: &mut [ExecutionContext],
        _outputs: &[String],
    ) {
    }
}

/// Evaluates `$body` with `$obs` bound to the observer `$ctx`'s gates call
/// for: its [`Telemetry`] — moved out for the duration, so its hooks and the
/// dispatch loop never alias, and settled afterwards — or [`NoObserver`].
macro_rules! observed {
    ($ctx:expr, |$obs:ident| $body:expr) => {
        match $ctx.telemetry.take() {
            Some(mut tel) if tel.active() => {
                let $obs = &mut *tel;
                let result = $body;
                tel.settle();
                $ctx.telemetry = Some(tel);
                result
            }
            idle => {
                $ctx.telemetry = idle;
                let $obs = &mut $crate::observer::NoObserver;
                $body
            }
        }
    };
}
pub(crate) use observed;

/// The observer of an unobserved run: no state, no code.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoObserver;

impl Observer for NoObserver {}

/// Opcode-array slot of `chk`, the bounds-check micro-op a checked memory
/// access retires beside itself.
const CHK: usize = N_OPCODES;

/// Everything collected about one compiled function, found by identity.
#[derive(Debug)]
struct FuncSlot {
    func: Arc<CompiledFunction>,
    counters: FuncCounters,
    /// Cache behaviour of each instruction, indexed by pc.
    touched: Vec<Touch>,
}

/// A function activation on the profile stack. `exclusive` is what it
/// counted before it was last suspended under a callee; the running one
/// is still counting, since [`Telemetry::mark`].
#[derive(Debug)]
struct Activation {
    slot: usize,
    exclusive: u64,
    child_inclusive: u64,
}

/// The observer behind `--profile`, `--sample` and `--record`: one per
/// execution context, accumulating across calls until [`Telemetry::reset`].
#[derive(Debug)]
pub(crate) struct Telemetry {
    /// Exact counting gate (`--profile`): opcode, per-function and memory
    /// counters, cache simulation, allocation sites, parallel shards.
    pub(crate) profiling: bool,
    pub(crate) traffic: Traffic,
    heap: HeapProfiler,
    pub(crate) parallel: ParallelStats,
    /// Retired-instruction counts by [`Instr::opcode`], plus [`CHK`].
    ops: [u64; N_OPCODES + 1],
    /// Instructions until one needs attention (see the module docs).
    fuel: u64,
    /// What `fuel` was last filled to.
    tank: u64,
    /// Work before that fill: instructions plus this context's own `chk`
    /// micro-ops (`ops[CHK]` also holds absorbed ones).
    settled: u64,
    /// [`Telemetry::work`] when the running activation last (re)started.
    mark: u64,
    /// Slot of the running activation's function.
    slot: usize,
    stack: Vec<Activation>,
    funcs: Vec<FuncSlot>,
    /// `Arc::as_ptr` of a function → its index in `funcs` (which keeps the
    /// `Arc` alive, so the address cannot be reused).
    slots: HashMap<usize, usize>,
    /// Deterministic sampler (`--sample=N`); off at interval 0.
    sampler: Sampler,
    /// Flight recorder (`--record`), when active.
    recorder: Option<Box<Recorder>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            profiling: false,
            traffic: Traffic::default(),
            heap: HeapProfiler::default(),
            parallel: ParallelStats::default(),
            ops: [0; N_OPCODES + 1],
            fuel: u64::MAX,
            tank: u64::MAX,
            settled: 0,
            mark: 0,
            slot: 0,
            stack: Vec::new(),
            funcs: Vec::new(),
            slots: HashMap::new(),
            sampler: Sampler::default(),
            recorder: None,
        }
    }
}

impl Telemetry {
    /// Whether any gate is on, i.e. whether the loop needs this observer.
    pub(crate) fn active(&self) -> bool {
        self.profiling || self.sampler.active() || self.recorder.is_some()
    }

    /// Sets the sampling interval in retired instructions (0 = off).
    pub(crate) fn set_sample_interval(&mut self, interval: u64) {
        self.sampler.set_interval(interval);
        self.settle();
    }

    pub(crate) fn sample_interval(&self) -> u64 {
        self.sampler.interval()
    }

    /// Installs or removes the flight recorder, returning the previous one.
    pub(crate) fn set_recorder(&mut self, rec: Option<Box<Recorder>>) -> Option<Box<Recorder>> {
        let old = std::mem::replace(&mut self.recorder, rec);
        self.settle();
        old
    }

    pub(crate) fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Discards counters and samples; gates, interval and recording stay.
    pub(crate) fn reset(&mut self) {
        self.traffic.reset();
        self.heap.reset();
        self.parallel.clear();
        self.ops = [0; N_OPCODES + 1];
        self.stack.clear();
        self.funcs.clear();
        self.slots.clear();
        self.sampler.reset();
        self.settle();
        (self.settled, self.mark) = (0, 0);
    }

    /// Credits what `fuel` has counted to the sampler and the recorder and
    /// refills it to the distance to the next instruction either must see.
    /// Called whenever that distance may have changed and at the end of
    /// every call, so between calls both are exact. `fuel` never exceeds the
    /// sampler's countdown, so samples only come due in [`Telemetry::attend`].
    pub(crate) fn settle(&mut self) {
        let elapsed = self.tank - self.fuel;
        self.settled += elapsed;
        let mut next = u64::MAX;
        if self.sampler.active() {
            if self.sampler.advance(elapsed) {
                self.take_sample();
            }
            next = self.sampler.countdown();
        }
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.retire(elapsed);
            if rec.checkpoint_due() {
                next = 1;
            }
        }
        (self.tank, self.fuel) = (next, next);
    }

    /// `fuel` ran out at the retiring instruction: take the sample that
    /// came due and the checkpoint the previous instruction's effect asked
    /// for. Out of line, or every instruction pays its register pressure.
    #[cold]
    #[inline(never)]
    fn attend(&mut self, lower: &[u64], frame: &[u64], mem: &Memory) {
        self.settle();
        if let Some(rec) = self.recorder.as_deref_mut() {
            if rec.checkpoint_due() {
                rec.checkpoint(state_hash(lower, frame), mem.heap_hash());
                self.settle();
            }
        }
    }

    /// An effect was recorded: if a checkpoint is now due, the next
    /// instruction to retire must take it.
    fn effect_done(&mut self) {
        if self.recorder.as_ref().is_some_and(|r| r.checkpoint_due()) {
            self.settle();
        }
    }

    /// Instructions plus `chk` micro-ops so far: the exclusive counts' clock.
    fn work(&self) -> u64 {
        self.settled + (self.tank - self.fuel)
    }

    fn slot_of(&mut self, func: &Arc<CompiledFunction>) -> usize {
        let next = self.funcs.len();
        let slot = *self.slots.entry(Arc::as_ptr(func) as usize).or_insert(next);
        if slot == next {
            self.funcs.push(FuncSlot {
                func: Arc::clone(func),
                counters: FuncCounters::default(),
                touched: vec![Touch::default(); func.code.len()],
            });
        }
        slot
    }

    /// Folds the activation stack into a `"outer;inner"` sample.
    fn take_sample(&mut self) {
        let mut key = String::new();
        for (i, a) in self.stack.iter().enumerate() {
            if i > 0 {
                key.push(';');
            }
            // Frame separator is reserved; sanitize like folded output.
            let name = self.funcs[a.slot].func.name.chars();
            key.extend(name.map(|ch| if ch == ';' { ',' } else { ch }));
        }
        if key.is_empty() {
            key.push_str(Site::HOST);
        }
        self.sampler.record(key);
    }

    /// Folds a quiesced worker shard's counters into this one: commutative
    /// sums, so the totals do not depend on worker interleaving.
    fn absorb(&mut self, shard: &Telemetry) {
        self.traffic.absorb(&shard.traffic);
        for (mine, theirs) in self.ops.iter_mut().zip(shard.ops) {
            *mine += theirs;
        }
        for theirs in &shard.funcs {
            let slot = self.slot_of(&theirs.func);
            let mine = &mut self.funcs[slot];
            mine.counters.calls += theirs.counters.calls;
            mine.counters.inclusive += theirs.counters.inclusive;
            mine.counters.exclusive += theirs.counters.exclusive;
            for (a, b) in mine.touched.iter_mut().zip(&theirs.touched) {
                *a += *b;
            }
        }
        self.sampler.absorb(&shard.sampler);
    }

    /// Resolves the dense tables into `p`'s rendered form: opcode rows by
    /// mnemonic (zero rows omitted), function rows by name, cache rows by
    /// `(function, source line)`, plus the samples.
    pub(crate) fn fill(&self, p: &mut Profile) {
        let names = MNEMONICS.iter().copied().chain(["chk"]);
        p.ops = names
            .zip(self.ops)
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| (name.to_string(), n))
            .collect();
        p.ops.sort();

        let mut funcs: BTreeMap<&str, FuncCounters> = BTreeMap::new();
        let mut lines: BTreeMap<(&Arc<str>, u32), Touch> = BTreeMap::new();
        for slot in &self.funcs {
            if slot.counters.calls > 0 {
                let c = funcs.entry(&slot.func.name).or_default();
                c.calls += slot.counters.calls;
                c.inclusive += slot.counters.inclusive;
                c.exclusive += slot.counters.exclusive;
            }
            for (pc, touch) in slot.touched.iter().enumerate() {
                if touch.accesses > 0 {
                    *lines
                        .entry((&slot.func.name, slot.func.line_at(pc)))
                        .or_default() += *touch;
                }
            }
        }
        p.funcs = funcs
            .into_iter()
            .map(|(name, counters)| FuncProfile {
                name: name.to_string(),
                counters,
            })
            .collect();
        // Ties broken by name (the map's order) for determinism.
        p.funcs
            .sort_by_key(|f| std::cmp::Reverse(f.counters.inclusive));
        p.cache_lines = lines
            .into_iter()
            .map(|((func, line), t)| LineStat {
                site: Site {
                    func: func.clone(),
                    line,
                    chain: None,
                },
                accesses: t.accesses,
                l1_misses: t.l1_misses,
                l2_misses: t.l2_misses,
            })
            .collect();
        // Ties broken by location (the map's order).
        p.cache_lines.sort_by(|a, b| {
            (b.l1_misses, b.l2_misses, b.accesses).cmp(&(a.l1_misses, a.l2_misses, a.accesses))
        });
        p.samples = self.sampler.snapshot();
        (p.mem, p.cache) = (self.traffic.stats, self.traffic.cache_stats());
        p.heap = self.heap.snapshot();
        p.parallel = self.parallel.clone();
    }
}

/// Attaches `func[pc]`'s source site to the recorder's next effect when it
/// is capturing at full fidelity.
fn stage_site(rec: &mut Recorder, func: &CompiledFunction, pc: usize) {
    if rec.wants_detail() {
        rec.stage_site(EffectSite {
            at: func.site_at(pc),
            pc: pc as u32,
            op: func.code[pc].mnemonic().to_string(),
        });
    }
}

impl Observer for Telemetry {
    fn shard(&self) -> Option<Box<Telemetry>> {
        let mut shard = Telemetry {
            profiling: self.profiling,
            traffic: self.traffic.shard(self.profiling),
            recorder: self.recorder.as_deref().map(|r| Box::new(r.worker_shard())),
            ..Telemetry::default()
        };
        shard.set_sample_interval(self.sampler.interval());
        Some(Box::new(shard))
    }

    /// Suspends the caller's activation and opens the callee's. Samples
    /// capture the stack and inclusive counts roll up through it; the
    /// recorder alone does not need it.
    #[inline]
    fn on_call(&mut self, callee: &Arc<CompiledFunction>) {
        if !(self.profiling || self.sampler.active()) {
            return;
        }
        // Only the exact profiler *counts*; the sampler needs the stack.
        let now = if self.profiling {
            self.work()
        } else {
            self.mark
        };
        if let Some(caller) = self.stack.last_mut() {
            caller.exclusive += now - self.mark;
        }
        self.mark = now;
        self.slot = self.slot_of(callee);
        self.stack.push(Activation {
            slot: self.slot,
            exclusive: 0,
            child_inclusive: 0,
        });
    }

    /// Closes the running activation: its counts land in its function's
    /// row and roll up into the caller's inclusive count. A trap's unwind
    /// closes each trapped frame the same way, so partial counts are kept.
    #[inline]
    fn on_ret(&mut self) {
        let Some(done) = self.stack.pop() else {
            return;
        };
        let now = if self.profiling {
            self.work()
        } else {
            self.mark
        };
        let exclusive = done.exclusive + (now - self.mark);
        self.mark = now;
        let inclusive = exclusive + done.child_inclusive;
        let row = &mut self.funcs[done.slot].counters;
        row.calls += 1;
        row.exclusive += exclusive;
        row.inclusive += inclusive;
        if let Some(caller) = self.stack.last_mut() {
            caller.child_inclusive += inclusive;
            self.slot = caller.slot;
        }
    }

    #[inline]
    fn on_retire(&mut self, lower: &[u64], frame: &[u64], mem: &Memory, instr: &Instr) {
        if self.profiling {
            self.ops[instr.opcode() as usize] += 1;
            // A checked memory access retires an extra bounds-check
            // micro-op; elided accesses skip it (what checkelim's win is).
            if instr.chk() == Some(true) {
                self.ops[CHK] += 1;
                self.settled += 1;
            }
        }
        // Retired instructions only (no `chk`), so sample points do not
        // depend on whether exact profiling is also on.
        self.fuel -= 1;
        if self.fuel == 0 {
            self.attend(lower, frame, mem);
        }
    }

    #[inline(always)]
    fn on_mem(&mut self, pc: usize, addr: u64, len: u64, access: Access) {
        if self.profiling {
            self.funcs[self.slot].touched[pc] += self.traffic.observe(addr, len, access);
        }
    }

    fn on_alloc(&mut self, mem: &Memory, site: impl FnOnce() -> Site, addr: u64, size: u64) {
        if self.profiling && addr != 0 {
            self.traffic.stats.note_malloc(mem.live_bytes());
            self.heap.note_alloc(site(), addr, Memory::block_size(size));
        }
    }

    fn on_free(&mut self, addr: u64) {
        if self.profiling && addr != 0 {
            self.traffic.stats.frees += 1;
            self.heap.note_free(addr);
        }
    }

    /// Records the effect unless it is a write below the heap: frame
    /// layouts differ legitimately across optimization levels, so stack
    /// writes are not part of the surface recordings align on.
    #[inline]
    fn on_effect(
        &mut self,
        mem: &Memory,
        func: &CompiledFunction,
        pc: usize,
        kind: impl FnOnce() -> EffectKind,
    ) {
        let Some(rec) = self.recorder.as_deref_mut() else {
            return;
        };
        let kind = kind();
        let written = match kind {
            EffectKind::Store { addr, .. } | EffectKind::Set { addr, .. } => addr,
            EffectKind::Copy { dst, .. } => dst,
            _ => u64::MAX,
        };
        if written >= mem.heap_base() {
            stage_site(rec, func, pc);
            rec.effect(kind);
            self.effect_done();
        }
    }

    fn on_output(&mut self, func: &CompiledFunction, pc: usize, text: &str) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            stage_site(rec, func, pc);
            rec.effect_output(text);
            self.effect_done();
        }
    }

    /// Absorbs the shards in chunk order (what keeps totals and recordings
    /// thread-count invariant), keeping each chunk's counters for the
    /// parallel telemetry before the merge collapses them.
    fn on_chunks(
        &mut self,
        region: &ParRegion<'_>,
        workers: &mut [ExecutionContext],
        outputs: &[String],
    ) {
        let mut chunks = Vec::new();
        for (c, (worker, text)) in (0..).zip(workers.iter_mut().zip(outputs)) {
            let Some(shard) = worker.telemetry.take() else {
                continue;
            };
            if self.profiling {
                let (start, end) = region.range(c);
                let (mem, cache) = (&shard.traffic.stats, shard.traffic.cache_stats());
                chunks.push(ParChunkStats {
                    chunk: c,
                    start,
                    end,
                    worker: region.worker_of(c),
                    instructions: shard.ops.iter().sum(),
                    loads: mem.total_loads(),
                    stores: mem.total_stores(),
                    l1_misses: cache.l1.misses,
                    l2_misses: cache.l2.misses,
                    start_us: region.times[c as usize].0,
                    dur_us: region.times[c as usize].1,
                });
            }
            self.absorb(&shard);
            if let (Some(rec), Some(theirs)) = (self.recorder.as_deref_mut(), shard.recorder) {
                rec.absorb_worker(*theirs, text);
            }
        }
        if self.profiling {
            let site = region.site.map_or_else(Site::host, |(f, pc)| f.site_at(pc));
            let (kernel, threads) = (region.kernel, region.threads);
            self.parallel
                .record(site, kernel, threads, region.iterations, chunks);
        }
        // An absorbed effect may have made a checkpoint due.
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compiled, Addr, Instr as I};
    use crate::machine::TrapKind;
    use crate::program::Value;
    use terra_ir::{FuncTy, Ty};

    #[test]
    fn no_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoObserver>(), 0);
    }

    /// Pins the flush-on-unwind path: a trap three calls deep still
    /// attributes every trapped frame's partial counts, exactly as the
    /// map-keyed profiler this replaced did.
    #[test]
    fn trap_three_calls_deep_attributes_partial_counts() {
        let mut ctx = ExecutionContext::new();
        let ty = || FuncTy {
            params: vec![Ty::I64],
            ret: Ty::I64,
        };
        let (f, g, h) = (ctx.declare("f"), ctx.declare("g"), ctx.declare("h"));
        let call = |callee| I::Call {
            d: 2,
            w: 1,
            f: callee,
            args: 1,
            nargs: 1,
        };
        // f(x): two instructions, calls g, would return its result + x.
        ctx.define(
            f,
            compiled(
                "f",
                ty(),
                4,
                vec![
                    I::ConstI { d: 1, v: 3 },
                    I::AddI { d: 1, a: 0, b: 1 },
                    call(g),
                    I::AddI { d: 3, a: 2, b: 0 },
                    I::Ret { s: 3, w: 1 },
                ],
            ),
        );
        // g(x): calls h twice; the first call returns, the second traps.
        ctx.define(
            g,
            compiled(
                "g",
                ty(),
                4,
                vec![
                    I::Mov { d: 1, a: 0, w: 1 },
                    call(h),
                    I::ConstI { d: 1, v: 0 },
                    call(h),
                    I::Ret { s: 2, w: 1 },
                ],
            ),
        );
        // h(x): 100 / x — traps when x == 0.
        ctx.define(
            h,
            compiled(
                "h",
                ty(),
                4,
                vec![
                    I::ConstI { d: 1, v: 100 },
                    I::DivS { d: 2, a: 1, b: 0 },
                    I::Ret { s: 2, w: 1 },
                ],
            ),
        );
        ctx.set_profile(true);
        let trap = ctx.call(f, &[Value::Int(4)]).unwrap_err();
        assert_eq!(trap.kind, TrapKind::DivByZero);
        let p = ctx.profile();
        let row = |name: &str| {
            let c = p.func(name).unwrap().counters;
            (c.calls, c.inclusive, c.exclusive)
        };
        // (calls, inclusive, exclusive), as at the parent commit.
        assert_eq!(row("f"), (1, 12, 3));
        assert_eq!(row("g"), (1, 9, 4));
        assert_eq!(row("h"), (2, 5, 5));
        assert_eq!(p.total_instructions(), 12);
        // The context is settled: a second, clean call counts on top.
        assert_eq!(ctx.call(h, &[Value::Int(5)]), Ok(Value::Int(20)));
        assert_eq!(ctx.profile().func("h").unwrap().counters.calls, 3);
    }

    /// One counter serves the sampler, the recorder and the exclusive
    /// counts; none of them may see the others through it.
    #[test]
    fn collectors_sharing_the_countdown_stay_independent() {
        let run = |profile: bool, sample: u64, record: bool| {
            let mut ctx = ExecutionContext::new();
            let id = ctx.declare("count");
            // count(n): loops n times, storing the counter to the heap.
            ctx.define(
                id,
                compiled(
                    "count",
                    FuncTy {
                        params: vec![Ty::I64, Ty::I64.ptr_to()],
                        ret: Ty::I64,
                    },
                    5,
                    vec![
                        I::ConstI { d: 2, v: 0 },
                        I::ConstI { d: 3, v: 1 },
                        I::Store64 {
                            m: Addr::reg(1),
                            s: 2,
                            chk: true,
                        },
                        I::AddI { d: 2, a: 2, b: 3 },
                        I::CmpLtS { d: 4, a: 2, b: 0 },
                        I::BrTrue { c: 4, target: 2 },
                        I::Ret { s: 2, w: 1 },
                    ],
                ),
            );
            let cell = ctx.memory.malloc(8);
            ctx.set_profile(profile);
            ctx.set_sample_interval(sample);
            if record {
                ctx.set_record(terra_trace::RecMeta {
                    cadence: 16,
                    ..terra_trace::RecMeta::coarse("t", 2)
                });
            }
            for _ in 0..3 {
                let r = ctx.call(id, &[Value::Int(50), Value::Ptr(cell)]);
                assert_eq!(r, Ok(Value::Int(50)));
            }
            let p = ctx.profile();
            (p.funcs, p.ops, p.samples, ctx.take_recording())
        };
        let (funcs, ops, _, _) = run(true, 0, false);
        // 3 calls of 2 + 50 * 4 + 1 instructions, every store checked.
        assert_eq!(funcs[0].counters.exclusive, 3 * (203 + 50));
        assert_eq!(ops.iter().find(|(m, _)| m == "chk").unwrap().1, 150);
        let (_, _, samples, _) = run(false, 7, false);
        assert_eq!(samples.total, 3 * 203 / 7);
        let (_, _, _, rec) = run(false, 0, true);
        let rec = rec.unwrap();
        assert_eq!((rec.total_retired, rec.total_effects), (3 * 203, 150));
        // Everything on at once: each collector reports the same.
        let all = run(true, 7, true);
        assert_eq!(all.0, funcs);
        assert_eq!(all.1, ops);
        assert_eq!(all.2, samples);
        assert_eq!(all.3.unwrap(), rec);
    }
}
