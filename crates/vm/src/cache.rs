//! Deterministic two-level data-cache simulator.
//!
//! Models an L1d over a unified L2, both set-associative with true-LRU
//! replacement (tracked by a monotone stamp counter, so behaviour is fully
//! deterministic) and a write-allocate policy: stores to absent lines fill
//! them exactly like loads. Prefetch hints fill both levels without counting
//! as demand traffic; each prefetched line is classified *useful* (demanded
//! after the modeled fill latency), *late* (demanded before it), or
//! *useless* (already resident when hinted, or evicted before any demand).
//!
//! The simulator observes the VM's guest addresses only — it never touches
//! host memory — and is fed only by the telemetry observer while profiling,
//! beside the memory counters ([`Traffic`]), so `-O`-level differential
//! semantics are untouched. Only the dispatch loop's scalar, vector, and
//! prefetch accesses are modeled; host accesses (`write_f64s`, Lua globals,
//! string interning) and the `memcpy`/`memset` builtins deliberately bypass
//! it, as does instruction fetch (the VM has no icache).

use terra_trace::{CacheConfig, CacheLevelConfig, CacheLevelStats, CacheStats, MemStats};

/// Demand ticks a prefetch needs in flight before its line counts as
/// *useful*; a demand hit sooner than this means the hint was issued too
/// late to fully hide the (modeled) memory latency.
const PREFETCH_LATENCY: u64 = 24;

/// Tag of a way that holds no line.
const INVALID: u64 = u64::MAX;

/// Prefetch tick of a way whose line was demanded (or never prefetched).
const NOT_PREFETCHED: u64 = u64::MAX;

/// A divisor fixed when the simulator is built: line sizes are powers of
/// two and set counts nearly always are, so the per-access `/` and `%`
/// become a shift and a mask instead of hardware divisions.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    n: u64,
    /// `log2 n` when `n` is a power of two, else `None`.
    shift: Option<u32>,
}

impl Divisor {
    fn new(n: u64) -> Divisor {
        let shift = n.is_power_of_two().then(|| n.trailing_zeros());
        Divisor { n, shift }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.n,
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.n - 1),
            None => x % self.n,
        }
    }
}

/// One set-associative cache level. Ways are parallel arrays, set-major,
/// so a set's tags are contiguous and the lookup can scan all of them
/// without an early exit — no data-dependent branch to mispredict.
#[derive(Debug)]
struct Level {
    sets: Divisor,
    assoc: usize,
    /// Full line address (`addr / line`) per way; [`INVALID`] = empty.
    tags: Vec<u64>,
    /// LRU stamp per way: higher = more recently used, 0 = never filled.
    stamps: Vec<u64>,
    /// Demand tick at which a prefetch filled the way, until the line is
    /// first demanded; [`NOT_PREFETCHED`] otherwise.
    pf_ticks: Vec<u64>,
    /// L1 only: per set, the line the last demand access of the set
    /// touched, or [`INVALID`] once a prefetch has touched the set since.
    /// That line holds the set's highest stamp and no pending prefetch, so
    /// a demand access of it again changes no victim choice and classifies
    /// nothing. L2 keeps none, since only L1 hits skip the scan.
    mru: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Outcome of a lookup-and-fill at one level.
struct Filled {
    hit: bool,
    /// The way index touched (for post-hoc prefetch classification).
    way: usize,
    /// A valid line was displaced that a prefetch filled and nobody used.
    evicted_unused_prefetch: bool,
}

impl Level {
    fn new(cfg: CacheLevelConfig, mru: bool) -> Level {
        let ways = (cfg.sets() * cfg.assoc) as usize;
        Level {
            sets: Divisor::new(cfg.sets()),
            assoc: cfg.assoc as usize,
            tags: vec![INVALID; ways],
            stamps: vec![0; ways],
            pf_ticks: vec![NOT_PREFETCHED; ways],
            mru: vec![INVALID; if mru { cfg.sets() as usize } else { 0 }],
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Looks up `line`; on miss, fills it (evicting LRU if needed). Counts a
    /// demand hit/miss unless `prefetch_fill` (prefetch traffic is free).
    fn access(&mut self, line: u64, stamp: u64, prefetch_fill: bool) -> Filled {
        let set_index = self.sets.rem(line) as usize;
        if let Some(mru) = self.mru.get_mut(set_index) {
            *mru = if prefetch_fill { INVALID } else { line };
        }
        let set = self.set_range(set_index);
        let base = set.start;
        let mut found = None;
        for (i, &tag) in self.tags[set.clone()].iter().enumerate() {
            if tag == line {
                found = Some(base + i);
            }
        }
        if let Some(way) = found {
            self.stamps[way] = stamp;
            self.hits += !prefetch_fill as u64;
            return Filled {
                hit: true,
                way,
                evicted_unused_prefetch: false,
            };
        }
        self.misses += !prefetch_fill as u64;
        // Fill the least-recently-used way: lowest stamp, so never-filled
        // ways (stamp 0; live stamps start at 1) go first, and the lowest
        // index breaks ties for determinism.
        let stamps = &self.stamps[set];
        let mut victim = 0;
        for (i, &s) in stamps.iter().enumerate() {
            if s < stamps[victim] {
                victim = i;
            }
        }
        let way = base + victim;
        let valid = self.tags[way] != INVALID;
        self.evictions += valid as u64;
        let evicted_unused_prefetch = valid && self.pf_ticks[way] != NOT_PREFETCHED;
        self.tags[way] = line;
        self.stamps[way] = stamp;
        self.pf_ticks[way] = NOT_PREFETCHED;
        Filled {
            hit: false,
            way,
            evicted_unused_prefetch,
        }
    }

    /// Counts a demand hit on `line` and gives it `stamp`, if `line` is
    /// resident and no prefetch is waiting to be classified on it; false,
    /// with nothing changed, otherwise. The set's MRU line skips the scan
    /// and the stamp write: it already holds the set's highest stamp, so a
    /// higher one changes no victim choice.
    #[inline(always)]
    fn hit(&mut self, line: u64, stamp: u64) -> bool {
        let set = self.sets.rem(line) as usize;
        if self.mru[set] != line {
            let ways = self.set_range(set);
            let Some(i) = self.tags[ways.clone()].iter().position(|&t| t == line) else {
                return false;
            };
            let way = ways.start + i;
            if self.pf_ticks[way] != NOT_PREFETCHED {
                return false;
            }
            self.stamps[way] = stamp;
            self.mru[set] = line;
        }
        self.hits += 1;
        true
    }

    fn stats(&self) -> CacheLevelStats {
        CacheLevelStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// What one demand access did to the hierarchy. The simulator attributes
/// nothing itself; the VM's telemetry observer adds this to the executing
/// instruction's row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Touch {
    /// Cache lines the access covered (2 when it straddles a boundary).
    pub accesses: u64,
    /// Of those, lines that missed in L1.
    pub l1_misses: u64,
    /// Of those, lines that also missed in L2.
    pub l2_misses: u64,
}

impl std::ops::AddAssign for Touch {
    fn add_assign(&mut self, o: Touch) {
        self.accesses += o.accesses;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
    }
}

/// The two-level simulator the telemetry observer's [`Traffic`] walks.
#[derive(Debug)]
pub(crate) struct CacheSim {
    cfg: CacheConfig,
    /// The L1 line size addresses are cut into lines by.
    line: Divisor,
    l1: Level,
    l2: Level,
    /// Demand access counter (prefetch timing reference).
    tick: u64,
    /// Monotone LRU stamp source (demand + prefetch traffic).
    stamp: u64,
    pf_useful: u64,
    pf_late: u64,
    pf_useless: u64,
}

impl CacheSim {
    /// Creates a cold simulator with the given geometry.
    pub fn new(cfg: CacheConfig) -> CacheSim {
        CacheSim {
            cfg,
            line: Divisor::new(cfg.l1.line),
            l1: Level::new(cfg.l1, true),
            l2: Level::new(cfg.l2, false),
            tick: 0,
            stamp: 0,
            pf_useful: 0,
            pf_late: 0,
            pf_useless: 0,
        }
    }

    /// Cold reset: clears counters *and* the tag arrays, so a
    /// `reset → run → snapshot` cycle is reproducible.
    pub fn reset(&mut self) {
        *self = CacheSim::new(self.cfg);
    }

    /// A demand access of `len` bytes at guest address `addr` (write-allocate
    /// means loads and stores walk the same path). Returns what it did to
    /// the hierarchy, for the caller to attribute.
    ///
    /// A one-line L1 hit that no prefetch brought in is decided here, by
    /// [`Level::hit`]; misses, prefetched lines and straddling accesses take
    /// [`CacheSim::access_lines`].
    #[inline(always)]
    pub(crate) fn access(&mut self, addr: u64, len: u64) -> Touch {
        let first = self.line.div(addr);
        let last = self.line.div(addr.saturating_add(len.max(1) - 1));
        if first == last && self.l1.hit(first, self.stamp + 1) {
            self.tick += 1;
            self.stamp += 1;
            return Touch {
                accesses: 1,
                ..Touch::default()
            };
        }
        self.access_lines(first, last)
    }

    /// The general path of [`CacheSim::access`]: each of the lines
    /// `first..=last` in turn, through both levels, with prefetch
    /// classification.
    #[inline(never)]
    fn access_lines(&mut self, first: u64, last: u64) -> Touch {
        let mut touch = Touch::default();
        for line in first..=last {
            self.tick += 1;
            self.stamp += 1;
            let stamp = self.stamp;
            let r1 = self.l1.access(line, stamp, false);
            touch.accesses += 1;
            if r1.hit {
                // Demand hit on a line a prefetch brought in: classify it.
                let filled = std::mem::replace(&mut self.l1.pf_ticks[r1.way], NOT_PREFETCHED);
                if filled != NOT_PREFETCHED {
                    if self.tick.saturating_sub(filled) < PREFETCH_LATENCY {
                        self.pf_late += 1;
                    } else {
                        self.pf_useful += 1;
                    }
                }
            } else {
                touch.l1_misses += 1;
                if r1.evicted_unused_prefetch {
                    self.pf_useless += 1;
                }
                let r2 = self.l2.access(line, stamp, false);
                touch.l2_misses += !r2.hit as u64;
            }
        }
        touch
    }

    /// A software prefetch hint for the line containing `addr`.
    pub fn prefetch(&mut self, addr: u64) {
        let line = self.line.div(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.l1.set_range(self.l1.sets.rem(line) as usize);
        if self.l1.tags[range].contains(&line) {
            // Already resident: the hint did nothing.
            self.pf_useless += 1;
            return;
        }
        self.l2.access(line, stamp, true);
        let r1 = self.l1.access(line, stamp, true);
        if r1.evicted_unused_prefetch {
            self.pf_useless += 1;
        }
        self.l1.pf_ticks[r1.way] = self.tick;
    }

    /// Folds another simulator's *counters* into this one (the tag arrays are
    /// left alone). The telemetry observer merges per-chunk cache shards with
    /// it — each profiled worker simulates its own cold hierarchy — and the
    /// sums are commutative, so the merged stats do not depend on worker
    /// interleaving.
    pub fn absorb(&mut self, other: &CacheSim) {
        self.l1.hits += other.l1.hits;
        self.l1.misses += other.l1.misses;
        self.l1.evictions += other.l1.evictions;
        self.l2.hits += other.l2.hits;
        self.l2.misses += other.l2.misses;
        self.l2.evictions += other.l2.evictions;
        self.pf_useful += other.pf_useful;
        self.pf_late += other.pf_late;
        self.pf_useless += other.pf_useless;
    }

    /// Freezes the hierarchy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            config: self.cfg,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            prefetch_useful: self.pf_useful,
            prefetch_late: self.pf_late,
            prefetch_useless: self.pf_useless,
        }
    }
}

impl Default for CacheSim {
    fn default() -> Self {
        CacheSim::new(CacheConfig::default())
    }
}

/// The kind of memory traffic the dispatch loop reports to its observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Load,
    Store,
    VecLoad,
    VecStore,
    Prefetch,
}

/// What `--profile` collects about memory: the counters, and the hierarchy
/// of geometry `config` the traffic walks. The telemetry observer holds one
/// per context and gives each worker shard a fresh one; the simulator
/// (≈ 110 KB of tags at the default geometry) is built only once profiling
/// is on, so a context or shard that only samples or records has none.
#[derive(Debug, Default)]
pub(crate) struct Traffic {
    config: CacheConfig,
    /// Loads, stores and prefetches, and the allocator's events.
    pub(crate) stats: MemStats,
    sim: Option<CacheSim>,
}

impl Traffic {
    /// A worker's collector: zero counters of the same geometry, over a
    /// cold hierarchy if `profiling`.
    pub(crate) fn shard(&self, profiling: bool) -> Traffic {
        let (config, stats) = (self.config, MemStats::default());
        let sim = profiling.then(|| CacheSim::new(config));
        Traffic { config, stats, sim }
    }

    /// Builds the (cold) simulator unless there is one.
    pub(crate) fn arm(&mut self) {
        self.sim.get_or_insert_with(|| CacheSim::new(self.config));
    }

    /// Replaces the geometry; the counters stay, the simulator restarts cold.
    pub(crate) fn set_config(&mut self, cfg: CacheConfig) {
        self.config = cfg;
        self.sim = self.sim.take().map(|_| CacheSim::new(cfg));
    }

    /// Zero counters over a cold simulator.
    pub(crate) fn reset(&mut self) {
        self.stats = MemStats::default();
        self.sim.iter_mut().for_each(CacheSim::reset);
    }

    /// Counts one access of `len` bytes at `addr` and walks it through the
    /// simulator, which profiling has built, returning what it touched
    /// there (a prefetch is charged nothing). It is inlined, with the
    /// telemetry observer's `on_mem`, into each access site of the dispatch
    /// loop, so the kind and width are constants there and an L1 hit never
    /// leaves the loop.
    #[inline(always)]
    pub(crate) fn observe(&mut self, addr: u64, len: u64, access: Access) -> Touch {
        let (s, width) = (&mut self.stats, MemStats::width_bucket(len));
        let sim = self.sim.as_mut().expect("profiling builds the simulator");
        match access {
            Access::Load => s.loads[width] += 1,
            Access::Store => s.stores[width] += 1,
            Access::VecLoad => s.vec_loads += 1,
            Access::VecStore => s.vec_stores += 1,
            Access::Prefetch => {
                s.prefetches += 1;
                sim.prefetch(addr);
                return Touch::default();
            }
        }
        sim.access(addr, len)
    }

    /// Folds a worker shard's counters into these: commutative sums.
    pub(crate) fn absorb(&mut self, shard: &Traffic) {
        self.stats.absorb(&shard.stats);
        if let (Some(mine), Some(theirs)) = (&mut self.sim, &shard.sim) {
            mine.absorb(theirs);
        }
    }

    /// The hierarchy's counters (all zero before it is built).
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let mut stats = self.sim.as_ref().map(CacheSim::stats).unwrap_or_default();
        stats.config = self.config;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 2-way, 2-set, 64 B lines L1 (256 B) over a 4-set L2 (512 B).
        CacheSim::new(CacheConfig {
            l1: CacheLevelConfig {
                size: 256,
                line: 64,
                assoc: 2,
            },
            l2: CacheLevelConfig {
                size: 512,
                line: 64,
                assoc: 2,
            },
        })
    }

    #[test]
    fn sequential_unit_stride_hits_within_a_line() {
        let mut c = CacheSim::default();
        for i in 0..64 {
            c.access(4096 + i * 8, 8);
        }
        let s = c.stats();
        // 64 doubles = 8 lines of 64 bytes: 8 cold misses, 56 hits.
        assert_eq!(s.l1.misses, 8);
        assert_eq!(s.l1.hits, 56);
        assert_eq!(s.l2.misses, 8);
    }

    #[test]
    fn large_stride_misses_every_access() {
        let mut c = CacheSim::default();
        for i in 0..64 {
            c.access(4096 + i * 256, 8);
        }
        let s = c.stats();
        assert_eq!(s.l1.misses, 64);
        assert_eq!(s.l1.hits, 0);
    }

    #[test]
    fn lru_evicts_least_recent_and_counts_evictions() {
        let mut c = tiny();
        // Three lines mapping to set 0 of a 2-way L1: 0, 2, 4 (line index).
        c.access(0, 8); // line 0 → miss, fill
        c.access(2 * 64, 8); // line 2 → miss, fill (set full)
        c.access(0, 8); // line 0 → hit (now MRU)
        c.access(4 * 64, 8); // line 4 → miss, evicts line 2 (LRU)
        c.access(0, 8); // line 0 → still resident: hit
        c.access(2 * 64, 8); // line 2 → was evicted: miss
        let s = c.stats();
        assert_eq!(s.l1.hits, 2);
        assert_eq!(s.l1.misses, 4);
        assert!(s.l1.evictions >= 2);
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut c = CacheSim::default();
        c.access(60, 8); // crosses the line-63/64 boundary
        assert_eq!(c.stats().l1.misses, 2);
    }

    #[test]
    fn write_allocate_store_then_load_hits() {
        let mut c = CacheSim::default();
        c.access(4096, 8); // "store": fills the line
        c.access(4096, 8); // load of the same line
        let s = c.stats();
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l1.hits, 1);
    }

    #[test]
    fn prefetch_classification() {
        let mut c = CacheSim::default();
        // Useless: prefetch a line that's already resident.
        c.access(0, 8);
        c.prefetch(0);
        assert_eq!(c.stats().prefetch_useless, 1);

        // Late: demand hit right after the prefetch fill.
        c.prefetch(4096);
        c.access(4096, 8);
        assert_eq!(c.stats().prefetch_late, 1);

        // Useful: demand hit after >= PREFETCH_LATENCY demand ticks.
        c.prefetch(8192);
        for i in 0..PREFETCH_LATENCY {
            c.access(16384 + i * 64, 8); // unrelated traffic to advance time
        }
        c.access(8192, 8);
        let s = c.stats();
        assert_eq!(s.prefetch_useful, 1);
        assert_eq!(s.prefetch_late, 1);
        // Prefetch traffic must not count as demand accesses.
        assert_eq!(s.l1.accesses(), 2 + PREFETCH_LATENCY + 1);
    }

    #[test]
    fn prefetched_line_evicted_unused_is_useless() {
        let mut c = tiny();
        c.prefetch(0); // line 0 into set 0
        c.access(2 * 64, 8); // line 2, set 0
        c.access(4 * 64, 8); // line 4, set 0 → evicts one of them
        c.access(6 * 64, 8); // line 6, set 0 → set cycled; prefetch long gone
        let s = c.stats();
        assert_eq!(s.prefetch_useless, 1);
        assert_eq!(s.prefetch_useful + s.prefetch_late, 0);
    }

    #[test]
    fn reset_restores_cold_state_deterministically() {
        let run = |c: &mut CacheSim| {
            let mut touched = Touch::default();
            for i in 0..32 {
                touched += c.access(4096 + i * 40, 8);
            }
            (c.stats(), touched)
        };
        let mut c = CacheSim::default();
        let a = run(&mut c);
        c.reset();
        let b = run(&mut c);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn access_reports_what_it_touched() {
        let mut c = CacheSim::default();
        let cold = Touch {
            accesses: 1,
            l1_misses: 1,
            l2_misses: 1,
        };
        assert_eq!(c.access(4096, 8), cold);
        let warm = Touch {
            accesses: 1,
            ..Touch::default()
        };
        assert_eq!(c.access(4096, 8), warm);
        // A straddling access walks two lines, one of them now resident.
        let t = c.access(4096 + 60, 8);
        assert_eq!((t.accesses, t.l1_misses, t.l2_misses), (2, 1, 1));
    }

    /// The simulator before the MRU hit path: every access scans its set
    /// and writes its stamp. [`CacheSim`] must count exactly what it counts.
    mod reference {
        use super::{CacheConfig, CacheLevelConfig, CacheLevelStats, CacheStats, Touch};
        use super::{INVALID, NOT_PREFETCHED, PREFETCH_LATENCY};

        struct Level {
            sets: u64,
            assoc: usize,
            tags: Vec<u64>,
            stamps: Vec<u64>,
            pf_ticks: Vec<u64>,
            stats: CacheLevelStats,
        }

        /// Whether the lookup hit, the way it touched, and whether the fill
        /// displaced a prefetched line nobody used.
        type Filled = (bool, usize, bool);

        impl Level {
            fn new(cfg: CacheLevelConfig) -> Level {
                let ways = (cfg.sets() * cfg.assoc) as usize;
                Level {
                    sets: cfg.sets(),
                    assoc: cfg.assoc as usize,
                    tags: vec![INVALID; ways],
                    stamps: vec![0; ways],
                    pf_ticks: vec![NOT_PREFETCHED; ways],
                    stats: CacheLevelStats::default(),
                }
            }

            fn set_range(&self, line: u64) -> std::ops::Range<usize> {
                let set = (line % self.sets) as usize;
                set * self.assoc..(set + 1) * self.assoc
            }

            fn access(&mut self, line: u64, stamp: u64, prefetch_fill: bool) -> Filled {
                let set = self.set_range(line);
                if let Some(i) = self.tags[set.clone()].iter().position(|&t| t == line) {
                    self.stamps[set.start + i] = stamp;
                    self.stats.hits += !prefetch_fill as u64;
                    return (true, set.start + i, false);
                }
                self.stats.misses += !prefetch_fill as u64;
                let stamps = &self.stamps[set.clone()];
                let mut victim = 0;
                for (i, &s) in stamps.iter().enumerate() {
                    if s < stamps[victim] {
                        victim = i;
                    }
                }
                let way = set.start + victim;
                let valid = self.tags[way] != INVALID;
                self.stats.evictions += valid as u64;
                let unused = valid && self.pf_ticks[way] != NOT_PREFETCHED;
                self.tags[way] = line;
                self.stamps[way] = stamp;
                self.pf_ticks[way] = NOT_PREFETCHED;
                (false, way, unused)
            }
        }

        pub(super) struct Sim {
            cfg: CacheConfig,
            l1: Level,
            l2: Level,
            tick: u64,
            stamp: u64,
            pf: [u64; 3],
        }

        impl Sim {
            pub(super) fn new(cfg: CacheConfig) -> Sim {
                Sim {
                    cfg,
                    l1: Level::new(cfg.l1),
                    l2: Level::new(cfg.l2),
                    tick: 0,
                    stamp: 0,
                    pf: [0; 3],
                }
            }

            pub(super) fn access(&mut self, addr: u64, len: u64) -> Touch {
                let line = self.cfg.l1.line;
                let (first, last) = (addr / line, addr.saturating_add(len.max(1) - 1) / line);
                let mut touch = Touch::default();
                for line in first..=last {
                    self.tick += 1;
                    self.stamp += 1;
                    let (hit, way, unused) = self.l1.access(line, self.stamp, false);
                    touch.accesses += 1;
                    if hit {
                        let filled = std::mem::replace(&mut self.l1.pf_ticks[way], NOT_PREFETCHED);
                        if filled != NOT_PREFETCHED {
                            let late = self.tick.saturating_sub(filled) < PREFETCH_LATENCY;
                            self.pf[late as usize] += 1;
                        }
                    } else {
                        touch.l1_misses += 1;
                        self.pf[2] += unused as u64;
                        let (hit2, _, _) = self.l2.access(line, self.stamp, false);
                        touch.l2_misses += !hit2 as u64;
                    }
                }
                touch
            }

            pub(super) fn prefetch(&mut self, addr: u64) {
                let line = addr / self.cfg.l1.line;
                self.stamp += 1;
                if self.l1.tags[self.l1.set_range(line)].contains(&line) {
                    self.pf[2] += 1;
                    return;
                }
                self.l2.access(line, self.stamp, true);
                let (_, way, unused) = self.l1.access(line, self.stamp, true);
                self.pf[2] += unused as u64;
                self.l1.pf_ticks[way] = self.tick;
            }

            pub(super) fn stats(&self) -> CacheStats {
                CacheStats {
                    config: self.cfg,
                    l1: self.l1.stats,
                    l2: self.l2.stats,
                    prefetch_useful: self.pf[0],
                    prefetch_late: self.pf[1],
                    prefetch_useless: self.pf[2],
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Demand(u64, u64),
        Prefetch(u64),
        Reset,
    }

    /// An address `k` strides from 0, plus an offset inside a line or two:
    /// strides of one set's span (`sets × line`) pile lines into one set.
    fn addr() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        const STRIDES: [u64; 6] = [8, 64, 128, 512, 3072, 4096];
        (0..STRIDES.len(), 0u64..24, 0u64..96).prop_map(|(s, k, off)| k * STRIDES[s] + off)
    }

    /// Demand accesses of 1–32 bytes, one in five a prefetch, one in
    /// twenty-one a cold reset.
    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        (0u8..21, addr(), 1u64..=32).prop_map(|(kind, a, len)| match kind {
            0 => Op::Reset,
            1..=4 => Op::Prefetch(a),
            _ => Op::Demand(a, len),
        })
    }

    /// Geometries with two sets, 48 and 384 sets, a direct-mapped L1, and
    /// L2 lines wider than L1's.
    fn geometry() -> impl proptest::strategy::Strategy<Value = CacheConfig> {
        use proptest::prelude::*;
        let level = |size, line, assoc| CacheLevelConfig { size, line, assoc };
        let geometries = [
            CacheConfig {
                l1: level(256, 64, 2),
                l2: level(512, 64, 2),
            },
            CacheConfig {
                l1: level(24 << 10, 64, 8),
                l2: level(96 << 10, 64, 4),
            },
            CacheConfig {
                l1: level(4 << 10, 64, 1),
                l2: level(64 << 10, 128, 2),
            },
            CacheConfig {
                l1: level(1 << 10, 8, 2),
                l2: level(8 << 10, 16, 4),
            },
            CacheConfig {
                l1: level(3 << 10, 8, 1),
                l2: level(6 << 10, 32, 4),
            },
        ];
        (0..geometries.len()).prop_map(move |i| geometries[i])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every access touches what the scanning simulator's does, and the
        /// counters end equal, across prefetches and cold resets.
        #[test]
        fn access_equals_the_scanning_reference(
            cfg in geometry(),
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let (mut sim, mut oracle) = (CacheSim::new(cfg), reference::Sim::new(cfg));
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Demand(addr, len) => {
                        proptest::prop_assert_eq!(
                            sim.access(addr, len),
                            oracle.access(addr, len),
                            "op {}: {:?}",
                            i,
                            op
                        );
                    }
                    Op::Prefetch(addr) => {
                        sim.prefetch(addr);
                        oracle.prefetch(addr);
                    }
                    Op::Reset => {
                        proptest::prop_assert_eq!(sim.stats(), oracle.stats());
                        sim.reset();
                        oracle = reference::Sim::new(cfg);
                    }
                }
            }
            proptest::prop_assert_eq!(sim.stats(), oracle.stats());
        }
    }
}
