//! # terra-trace
//!
//! The observability layer of terra-rs: everything the staging pipeline and
//! the VM need to answer "where did the time and the instructions go?".
//!
//! Three kinds of signal are collected, all off until profiling is enabled:
//!
//! - **Staging timeline** — [`SpanEvent`]s for parse, specialization,
//!   typecheck/lowering, analysis/verify, bytecode compilation, and FFI
//!   execution, each tagged with the Terra function it concerns. This makes
//!   the paper's lazy-compilation behaviour (§4: eager specialization, lazy
//!   typechecking) directly visible: a function's typecheck span appears at
//!   its *first call*, not at its definition.
//! - **VM telemetry** — per-opcode execution counts and per-function call
//!   counts with inclusive/exclusive instruction counts (collected by the
//!   VM's telemetry observer, frozen into [`Profile::ops`] and
//!   [`Profile::funcs`]), and memory-system counters ([`MemStats`]).
//!   Counters are **deterministic**: two runs of the same program produce
//!   identical snapshots, so they double as a reproducible cost model next
//!   to wall-clock timing (the autotuner ranks kernels with them).
//! - **Exports** — a human-readable report, one walk over the typed records
//!   ([`Profile::records`]) that the JSONL stream and the Lua `perf` rows
//!   read, and Chrome `traceEvents` JSON ([`Profile::to_chrome_json`])
//!   loadable in `chrome://tracing` / Perfetto.
//!
//! Timeline timestamps are wall-clock and therefore *not* part of the
//! deterministic surface; [`Profile::render_counters`] is the
//! reproducibility contract.

#![warn(missing_docs)]

mod chrome;
mod events;
mod folded;
mod heap;
mod json;
mod parallel;
pub mod record;
pub mod replay;
mod report;
mod sample;
mod site;

pub use events::Fields;
pub use heap::{HeapProfiler, HeapSiteStats, HeapStats, HeapTimelinePoint};
pub use parallel::{ParChunkStats, ParSiteStats, ParWorkerLoad, ParallelStats};
pub use record::{
    fnv64, Checkpoint, Effect, EffectKind, EffectSite, Fnv64, RecMeta, Recorder, Recording,
    DEFAULT_CADENCE, REC_FORMAT_VERSION,
};
pub use replay::{DiffReport, DivergentSide, ReplaySummary};
pub use sample::{SampleFuncRank, SampleStats, Sampler};
pub use site::Site;

use std::time::Instant;

/// Which pipeline stage a timeline span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Source text → AST.
    Parse,
    /// Eager specialization of a `terra` definition (LTDEFN).
    Specialize,
    /// Lazy typechecking + lowering to typed IR (first call).
    Typecheck,
    /// IR verification / dataflow analysis between lowering and compile.
    Analyze,
    /// One mid-end optimization pass (span name is `func:pass`).
    Optimize,
    /// Typed IR → register bytecode.
    Compile,
    /// An FFI entry into the VM (`Vm::call`).
    Execute,
}

impl Stage {
    /// Short lowercase label used in reports and trace categories.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Specialize => "specialize",
            Stage::Typecheck => "typecheck",
            Stage::Analyze => "analyze",
            Stage::Optimize => "optimize",
            Stage::Compile => "compile",
            Stage::Execute => "execute",
        }
    }
}

/// One structured optimization remark from the mid-end pass manager.
///
/// Remarks explain what the optimizer did (or declined to do) and why:
/// "inline applied: inlined 'is_marked'", "inline missed: callee over size
/// budget". They are collected *unconditionally* — not gated behind
/// [`Tracer::enabled`] — so the remark stream is byte-identical whether or
/// not profiling is on, and belongs to the deterministic surface alongside
/// [`Profile::render_counters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remark {
    /// Pass that emitted it (`"inline"`, `"licm"`, `"unroll"`, ...).
    pub pass: &'static str,
    /// `"applied"` or `"missed"`.
    pub kind: &'static str,
    /// The affected statement (line 0 = the whole function).
    pub site: Site,
    /// Human-readable explanation.
    pub message: String,
}

/// One completed span on the staging timeline.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Pipeline stage.
    pub stage: Stage,
    /// What was processed (usually a Terra function name, or `"chunk"`).
    pub name: String,
    /// Start time in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// How many spans enclosed this one when it opened (0 at the top).
    pub depth: u32,
}

/// Where and when a span opened: from [`Tracer::open`], for [`Tracer::record`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    /// Microseconds since the tracer's epoch.
    pub us: u64,
    depth: u32,
}

/// Deterministic execution counters for one Terra function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncCounters {
    /// Number of times the function was entered.
    pub calls: u64,
    /// Instructions executed in this function *and* its callees. Recursive
    /// calls are counted once per activation, so a self-recursive function's
    /// inclusive count can exceed the program total.
    pub inclusive: u64,
    /// Instructions executed in this function's own frames only.
    pub exclusive: u64,
}

/// A per-function row of a finished profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncProfile {
    /// Function name.
    pub name: String,
    /// Its counters.
    pub counters: FuncCounters,
}

/// The collector threaded through the staging pipeline: spans (a no-op
/// until [`Tracer::set_enabled`]) and optimization remarks. What the VM
/// collects while Terra code runs is its telemetry observer's, merged into
/// the [`Profile`] when one is frozen.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    depth: u32,
    events: Vec<SpanEvent>,
    remarks: Vec<Remark>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            depth: 0,
            events: Vec::new(),
            remarks: Vec::new(),
        }
    }

    /// Turns collection on or off. Turning it off keeps accumulated data.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether collection is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Discards all collected events and remarks (the gate stays as-is).
    pub fn reset(&mut self) {
        self.events.clear();
        self.remarks.clear();
    }

    // -- remarks -------------------------------------------------------------

    /// Appends an optimization remark. Deliberately *not* gated behind
    /// [`Tracer::enabled`]: remarks must be identical with and without
    /// `--profile` (compilation happens either way, and the stream is part
    /// of the deterministic surface).
    pub fn add_remark(&mut self, r: Remark) {
        self.remarks.push(r);
    }

    /// The remarks collected so far, in emission order.
    pub fn remarks(&self) -> &[Remark] {
        &self.remarks
    }

    // -- timeline ------------------------------------------------------------

    /// Microseconds since the tracer's epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span: spans opened before it is recorded are its children.
    pub fn open(&mut self) -> SpanStart {
        self.depth += 1;
        SpanStart {
            us: self.now_us(),
            depth: self.depth - 1,
        }
    }

    /// Records the span opened at `start` (no-op while disabled). The depth
    /// goes back to `start`'s, so a child that failed before it was recorded
    /// leaves no level behind.
    pub fn record(&mut self, stage: Stage, name: &str, start: SpanStart) {
        self.depth = start.depth;
        let dur_us = self.now_us().saturating_sub(start.us);
        self.record_span(stage, name, start.us, dur_us);
    }

    /// Records a completed span with an explicit duration, at the current
    /// depth — for callers (like the pass manager) that measured the work
    /// themselves and report it after the fact.
    pub fn record_span(&mut self, stage: Stage, name: &str, start_us: u64, dur_us: u64) {
        if !self.enabled {
            return;
        }
        self.events.push(SpanEvent {
            stage,
            name: name.to_string(),
            start_us,
            dur_us,
            depth: self.depth,
        });
    }

    // -- snapshots -----------------------------------------------------------

    /// Freezes the spans and remarks into a [`Profile`]; the VM's telemetry
    /// observer fills in the sections it collected.
    pub fn snapshot(&self) -> Profile {
        Profile {
            events: self.events.clone(),
            remarks: self.remarks.clone(),
            ..Profile::default()
        }
    }
}

/// Memory-system counters: kept by the VM's telemetry observer while
/// profiling, frozen by value into a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Heap allocations.
    pub mallocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Peak bytes simultaneously live on the heap.
    pub peak_live_bytes: u64,
    /// Scalar loads by width: `[1, 2, 4, 8]` bytes.
    pub loads: [u64; 4],
    /// Scalar stores by width: `[1, 2, 4, 8]` bytes.
    pub stores: [u64; 4],
    /// Vector-register loads.
    pub vec_loads: u64,
    /// Vector-register stores.
    pub vec_stores: u64,
    /// Prefetch hints issued.
    pub prefetches: u64,
}

impl MemStats {
    /// Index into [`MemStats::loads`]/[`MemStats::stores`] for an access
    /// of `bytes` (1/2/4/8).
    #[inline]
    pub fn width_bucket(bytes: u64) -> usize {
        match bytes {
            1 => 0,
            2 => 1,
            4 => 2,
            _ => 3,
        }
    }

    /// Records a `malloc`, with the resulting live-byte figure for peak
    /// tracking.
    pub fn note_malloc(&mut self, live_bytes: u64) {
        self.mallocs += 1;
        self.peak_live_bytes = self.peak_live_bytes.max(live_bytes);
    }

    /// Folds a worker shard's counters into these: traffic counts add, the
    /// peak takes the max (each worker's peak is measured against the same
    /// shared heap's live-byte figure, so the max over shards equals the
    /// sequential peak).
    pub fn absorb(&mut self, s: &MemStats) {
        self.mallocs += s.mallocs;
        self.frees += s.frees;
        self.peak_live_bytes = self.peak_live_bytes.max(s.peak_live_bytes);
        for (c, v) in self.loads.iter_mut().zip(s.loads) {
            *c += v;
        }
        for (c, v) in self.stores.iter_mut().zip(s.stores) {
            *c += v;
        }
        self.vec_loads += s.vec_loads;
        self.vec_stores += s.vec_stores;
        self.prefetches += s.prefetches;
    }

    /// Total scalar + vector loads.
    pub fn total_loads(&self) -> u64 {
        self.loads.iter().sum::<u64>() + self.vec_loads
    }

    /// Total scalar + vector stores.
    pub fn total_stores(&self) -> u64 {
        self.stores.iter().sum::<u64>() + self.vec_stores
    }
}

/// Geometry of one simulated cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
}

impl CacheLevelConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        (self.size / (self.line * self.assoc)).max(1)
    }
}

/// Geometry of the simulated two-level data-cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// The L1 data cache.
    pub l1: CacheLevelConfig,
    /// The unified L2 cache.
    pub l2: CacheLevelConfig,
}

impl Default for CacheConfig {
    /// A conventional small core: 32 KiB / 64 B / 8-way L1d over a
    /// 256 KiB / 64 B / 8-way L2.
    fn default() -> Self {
        CacheConfig {
            l1: CacheLevelConfig {
                size: 32 * 1024,
                line: 64,
                assoc: 8,
            },
            l2: CacheLevelConfig {
                size: 256 * 1024,
                line: 64,
                assoc: 8,
            },
        }
    }
}

/// Parses a size with an optional binary `k`/`m` suffix (`32k` = 32768).
fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1024),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("invalid size '{s}'"))
}

impl CacheConfig {
    /// Parses a `--cache` spec of the form `l1=32k,64,8:l2=256k,64,8`
    /// (per level: total size, line size, associativity; sizes accept
    /// `k`/`m` suffixes). Both levels must be present.
    pub fn parse(spec: &str) -> Result<CacheConfig, String> {
        let mut cfg = CacheConfig::default();
        let (mut saw_l1, mut saw_l2) = (false, false);
        for part in spec.split(':') {
            let (name, geom) = part
                .split_once('=')
                .ok_or_else(|| format!("expected lN=size,line,assoc in '{part}'"))?;
            let fields: Vec<&str> = geom.split(',').collect();
            if fields.len() != 3 {
                return Err(format!("expected size,line,assoc in '{geom}'"));
            }
            let level = CacheLevelConfig {
                size: parse_size(fields[0])?,
                line: parse_size(fields[1])?,
                assoc: parse_size(fields[2])?,
            };
            if !level.line.is_power_of_two() || level.line < 8 {
                return Err(format!(
                    "line size {} must be a power of two >= 8",
                    level.line
                ));
            }
            if level.assoc == 0 || level.size < level.line * level.assoc {
                return Err(format!("cache '{name}' too small for {} ways", level.assoc));
            }
            if !level.size.is_multiple_of(level.line * level.assoc) {
                return Err(format!(
                    "cache '{name}' size {} is not a multiple of line*assoc",
                    level.size
                ));
            }
            match name.trim() {
                "l1" | "l1d" => {
                    cfg.l1 = level;
                    saw_l1 = true;
                }
                "l2" => {
                    cfg.l2 = level;
                    saw_l2 = true;
                }
                other => return Err(format!("unknown cache level '{other}' (use l1/l2)")),
            }
        }
        if !saw_l1 || !saw_l2 {
            return Err("spec must configure both l1 and l2".to_string());
        }
        Ok(cfg)
    }
}

/// Frozen hit/miss/eviction counts for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Valid lines displaced by fills (demand or prefetch).
    pub evictions: u64,
}

impl CacheLevelStats {
    /// Total demand accesses at this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses per demand access, in `[0, 1]` (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A frozen snapshot of the cache simulator, embedded in a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// The geometry the numbers were produced under.
    pub config: CacheConfig,
    /// L1 data cache counters.
    pub l1: CacheLevelStats,
    /// L2 counters (accessed only on L1 misses and prefetch fills).
    pub l2: CacheLevelStats,
    /// Prefetched lines that were demanded after the modeled latency.
    pub prefetch_useful: u64,
    /// Prefetched lines demanded *before* the modeled latency elapsed.
    pub prefetch_late: u64,
    /// Prefetches of already-resident lines, plus prefetched lines evicted
    /// without ever being demanded.
    pub prefetch_useless: u64,
}

impl CacheStats {
    /// Total demand accesses that entered the hierarchy.
    pub fn total_accesses(&self) -> u64 {
        self.l1.accesses()
    }
}

/// Cache behaviour attributed to one Terra source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineStat {
    /// The line (no chain: a line's accesses are summed over every splice
    /// that put code on it).
    pub site: Site,
    /// Demand accesses issued from this line.
    pub accesses: u64,
    /// L1 misses among them.
    pub l1_misses: u64,
    /// L2 misses among them.
    pub l2_misses: u64,
}

/// A complete, frozen profile: timeline + all counters.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Staging/execution timeline spans, in completion order.
    pub events: Vec<SpanEvent>,
    /// Per-opcode execution counts, sorted by mnemonic.
    pub ops: Vec<(String, u64)>,
    /// Per-function counters, sorted by inclusive count (descending).
    pub funcs: Vec<FuncProfile>,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Simulated cache-hierarchy counters.
    pub cache: CacheStats,
    /// Per-source-line cache attribution, sorted hottest (most L1 misses)
    /// first.
    pub cache_lines: Vec<LineStat>,
    /// Optimization remarks in emission order (deterministic).
    pub remarks: Vec<Remark>,
    /// Allocation-site heap profile (sites, high-water timeline, leaks).
    pub heap: HeapStats,
    /// Statistical profile from the deterministic sampling profiler.
    pub samples: SampleStats,
    /// Per-chunk `parallelfor` telemetry (shard counters preserved before
    /// the thread-invariant merge).
    pub parallel: ParallelStats,
}

impl Profile {
    /// Total VM instructions executed.
    pub fn total_instructions(&self) -> u64 {
        self.ops.iter().map(|(_, n)| *n).sum()
    }

    /// Executed count for one opcode mnemonic (0 if never executed).
    pub fn op_count(&self, mnemonic: &str) -> u64 {
        self.ops
            .iter()
            .find(|(m, _)| m == mnemonic)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Counters for a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncProfile> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.open();
        t.record(Stage::Parse, "chunk", s);
        assert!(t.snapshot().events.is_empty());
    }

    /// A span records the depth it opened at; a child that is never
    /// recorded (its stage failed) leaves no level behind once its parent
    /// is recorded.
    #[test]
    fn spans_record_the_depth_they_opened_at() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let outer = t.open();
        let inner = t.open();
        let _failed = t.open();
        t.record(Stage::Typecheck, "inner", inner);
        t.record_span(Stage::Optimize, "inner:fold", outer.us, 0);
        t.record(Stage::Execute, "outer", outer);
        let next = t.open();
        t.record(Stage::Execute, "next", next);
        let depths: Vec<(String, u32)> = t
            .snapshot()
            .events
            .into_iter()
            .map(|e| (e.name, e.depth))
            .collect();
        let expected = [("inner", 1), ("inner:fold", 1), ("outer", 0), ("next", 0)];
        assert_eq!(depths, expected.map(|(n, d)| (n.to_string(), d)));
    }

    #[test]
    fn mem_stats_peak_and_absorb() {
        let mut c = MemStats::default();
        c.note_malloc(128);
        c.note_malloc(64); // live shrank (hypothetically); peak must hold
        c.loads[MemStats::width_bucket(8)] += 1;
        c.loads[MemStats::width_bucket(1)] += 1;
        c.stores[MemStats::width_bucket(4)] += 1;
        c.vec_loads += 1;
        c.vec_stores += 1;
        assert_eq!((c.mallocs, c.peak_live_bytes), (2, 128));
        assert_eq!(c.loads, [1, 0, 0, 1]);
        assert_eq!(c.stores, [0, 0, 1, 0]);
        assert_eq!((c.total_loads(), c.total_stores()), (3, 2));
        let mut sum = MemStats {
            peak_live_bytes: 500,
            ..c
        };
        sum.absorb(&c);
        assert_eq!((sum.mallocs, sum.peak_live_bytes), (4, 500));
        assert_eq!(sum.total_loads(), 6);
    }

    #[test]
    fn cache_config_parse() {
        let cfg = CacheConfig::parse("l1=32k,64,8:l2=256k,64,8").unwrap();
        assert_eq!(cfg, CacheConfig::default());
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);

        let cfg = CacheConfig::parse("l1=16k,32,4:l2=1m,64,16").unwrap();
        assert_eq!(cfg.l1.size, 16 * 1024);
        assert_eq!(cfg.l1.line, 32);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l2.size, 1024 * 1024);
        assert_eq!(cfg.l2.assoc, 16);

        assert!(CacheConfig::parse("l1=32k,64,8").is_err()); // missing l2
        assert!(CacheConfig::parse("l3=32k,64,8:l2=256k,64,8").is_err());
        assert!(CacheConfig::parse("l1=32k,63,8:l2=256k,64,8").is_err()); // line not pow2
        assert!(CacheConfig::parse("l1=64,64,8:l2=256k,64,8").is_err()); // too small
        assert!(CacheConfig::parse("l1=1000,64,8:l2=256k,64,8").is_err()); // not multiple
        assert!(CacheConfig::parse("garbage").is_err());
    }

    #[test]
    fn cache_level_stats_rates() {
        let s = CacheLevelStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheLevelStats::default().miss_rate(), 0.0);
    }
}
