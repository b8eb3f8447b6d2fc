//! Parallel-execution telemetry: per-chunk shard metrics for `parallelfor`.
//!
//! The `parallelfor` harness runs every chunk of a loop in its own worker
//! context with fresh counter shards, then merges the shards back with
//! commutative sums so `--profile` stays thread-invariant. That merge
//! deliberately erases parallel structure — which is exactly what you need
//! preserved to answer "why is 4-thread GEMM only 2.1x?". This module keeps
//! the per-chunk shard data *before* it is merged away: retired
//! instructions, load/store counts, cache-sim miss counts, and the worker
//! each chunk ran on, keyed by the deterministic chunk index.
//!
//! # Determinism
//!
//! Chunk boundaries are a function of the iteration count alone, worker
//! assignment is a function of `(chunks, threads)`, and every counter here
//! is an instruction or byte count — so at a fixed thread count all of
//! [`ParallelStats`] is bit-identical across runs. Only
//! [`ParChunkStats::start_us`]/[`ParChunkStats::dur_us`] carry wall clock;
//! they feed the Chrome-trace worker timelines and are excluded from the
//! deterministic surfaces (`render_counters`, `to_jsonl`).
//!
//! # Derived metrics
//!
//! - **Load-imbalance factor** — max over mean of per-chunk retired
//!   instructions (`1.0` = perfectly balanced; `2.0` = the slowest chunk
//!   does twice the average work).
//! - **Critical-path chunk** — the chunk with the most retired
//!   instructions (lowest index on ties): the chunk the loop cannot finish
//!   before.
//! - **Parallel efficiency** — total chunk instructions over
//!   `threads x max per-worker instructions`: the fraction of the worker
//!   budget doing useful work under the static block assignment.
//! - **Serial fraction** — the share of the whole program's instructions
//!   retired *outside* this parallel region (an Amdahl-style ceiling on
//!   further speedup from this loop alone).

use crate::Site;
use std::collections::BTreeMap;

/// Frozen counters for one chunk of one `parallelfor` site.
///
/// Everything except `start_us`/`dur_us` is deterministic (see module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParChunkStats {
    /// Deterministic chunk index (a function of the iteration count only).
    pub chunk: u64,
    /// First iteration of the chunk (inclusive).
    pub start: i64,
    /// One past the last iteration of the chunk.
    pub end: i64,
    /// Worker index the chunk ran on: `chunk / ceil(chunks / threads)`,
    /// a deterministic function of `(chunks, threads)`. Varies with the
    /// thread count by design; everything else here does not.
    pub worker: u64,
    /// VM instructions retired by the chunk (bounds-check micro-ops
    /// included, same accounting as the opcode counters).
    pub instructions: u64,
    /// Scalar + vector loads issued by the chunk.
    pub loads: u64,
    /// Scalar + vector stores issued by the chunk.
    pub stores: u64,
    /// L1 misses in the chunk's (cold-started) cache-simulator shard.
    pub l1_misses: u64,
    /// L2 misses in the chunk's cache-simulator shard.
    pub l2_misses: u64,
    /// Wall-clock start (µs since the context epoch). Chrome-trace only;
    /// excluded from every deterministic surface.
    pub start_us: u64,
    /// Wall-clock duration in µs. Chrome-trace only.
    pub dur_us: u64,
}

/// Aggregated per-worker load for one site: how much of the site's work a
/// worker's contiguous chunk block carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParWorkerLoad {
    /// Worker index.
    pub worker: u64,
    /// Chunks assigned to this worker.
    pub chunks: u64,
    /// Instructions retired across those chunks.
    pub instructions: u64,
}

/// Per-chunk telemetry for one `par.for` site, identified by the
/// statement's [`Site`] plus the outlined kernel's name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParSiteStats {
    /// The `parallelfor` statement ([`Site::host`] when host-driven).
    pub site: Site,
    /// Name of the outlined kernel function (`parent$parN`).
    pub kernel: String,
    /// Worker threads the most recent execution actually used
    /// (`min(configured, chunks)`, 1 under the sanitizer).
    pub threads: u64,
    /// Times this site executed a parallel region.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub iterations: u64,
    /// Per-chunk shards, indexed by chunk. Counters accumulate across
    /// invocations; iteration ranges and worker assignment reflect the
    /// most recent execution.
    pub chunks: Vec<ParChunkStats>,
}

impl ParSiteStats {
    /// Total instructions retired inside the parallel region.
    pub fn total_instructions(&self) -> u64 {
        self.chunks.iter().map(|c| c.instructions).sum()
    }

    /// `(min, median, max)` of per-chunk retired instructions. The median
    /// of an even count is the integer midpoint of the two middle values.
    pub fn chunk_instruction_spread(&self) -> (u64, u64, u64) {
        if self.chunks.is_empty() {
            return (0, 0, 0);
        }
        let mut v: Vec<u64> = self.chunks.iter().map(|c| c.instructions).collect();
        v.sort_unstable();
        let median = if v.len() % 2 == 1 {
            v[v.len() / 2]
        } else {
            let hi = v.len() / 2;
            v[hi - 1].midpoint(v[hi])
        };
        (v[0], median, v[v.len() - 1])
    }

    /// Load-imbalance factor: max over mean of per-chunk instructions.
    /// `1.0` when perfectly balanced (or when the region did no work).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_instructions();
        if total == 0 || self.chunks.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.chunks.len() as f64;
        let max = self
            .chunks
            .iter()
            .map(|c| c.instructions)
            .max()
            .unwrap_or(0);
        max as f64 / mean
    }

    /// The critical-path chunk: most retired instructions, lowest index on
    /// ties. `None` only when the site recorded no chunks.
    pub fn critical_chunk(&self) -> Option<&ParChunkStats> {
        self.chunks.iter().max_by(|a, b| {
            a.instructions
                .cmp(&b.instructions)
                .then(b.chunk.cmp(&a.chunk))
        })
    }

    /// Per-worker loads under the recorded chunk-to-worker assignment,
    /// sorted by worker index.
    pub fn worker_loads(&self) -> Vec<ParWorkerLoad> {
        let mut by_worker: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for c in &self.chunks {
            let e = by_worker.entry(c.worker).or_insert((0, 0));
            e.0 += 1;
            e.1 += c.instructions;
        }
        by_worker
            .into_iter()
            .map(|(worker, (chunks, instructions))| ParWorkerLoad {
                worker,
                chunks,
                instructions,
            })
            .collect()
    }

    /// Parallel efficiency at the recorded thread count: total chunk
    /// instructions over `threads x max per-worker instructions`. `1.0`
    /// when every worker carries the same load (or the region did no
    /// work); lower when the static block assignment leaves workers idle
    /// behind the most-loaded one.
    pub fn efficiency(&self) -> f64 {
        let total = self.total_instructions();
        let max_worker = self
            .worker_loads()
            .iter()
            .map(|w| w.instructions)
            .max()
            .unwrap_or(0);
        if total == 0 || max_worker == 0 || self.threads == 0 {
            return 1.0;
        }
        total as f64 / (self.threads as f64 * max_worker as f64)
    }

    /// The share of `program_total` instructions retired *outside* this
    /// parallel region, in `[0, 1]`. An Amdahl-style estimate of how much
    /// of the program this loop cannot speed up.
    pub fn serial_fraction(&self, program_total: u64) -> f64 {
        if program_total == 0 {
            return 0.0;
        }
        let par = self.total_instructions().min(program_total);
        (program_total - par) as f64 / program_total as f64
    }
}

/// Every `parallelfor` site a profiled run executed, in first-execution
/// order. Part of the deterministic profile surface (wall-clock chunk
/// times excepted, see [`ParChunkStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// One entry per distinct `(site, kernel)`.
    pub sites: Vec<ParSiteStats>,
}

impl ParallelStats {
    /// Whether any parallel region was recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Total instructions retired inside parallel regions, across sites.
    pub fn total_instructions(&self) -> u64 {
        self.sites.iter().map(|s| s.total_instructions()).sum()
    }

    /// Records one executed parallel region, merging into an existing site
    /// with the same identity: per-chunk counters accumulate by chunk
    /// index, iteration ranges / worker assignment / thread count are
    /// overwritten with this execution's values.
    pub fn record(
        &mut self,
        site: Site,
        kernel: &str,
        threads: u64,
        iterations: u64,
        chunks: Vec<ParChunkStats>,
    ) {
        let known = self
            .sites
            .iter()
            .position(|s| s.site == site && s.kernel == kernel);
        let at = known.unwrap_or_else(|| {
            self.sites.push(ParSiteStats {
                site,
                kernel: kernel.to_string(),
                threads: 0,
                invocations: 0,
                iterations: 0,
                chunks: Vec::new(),
            });
            self.sites.len() - 1
        });
        let stats = &mut self.sites[at];
        stats.threads = threads;
        stats.invocations += 1;
        stats.iterations += iterations;
        for c in chunks {
            let i = c.chunk as usize;
            if i >= stats.chunks.len() {
                stats.chunks.resize_with(i + 1, ParChunkStats::default);
            }
            let slot = &mut stats.chunks[i];
            slot.chunk = c.chunk;
            slot.start = c.start;
            slot.end = c.end;
            slot.worker = c.worker;
            slot.instructions += c.instructions;
            slot.loads += c.loads;
            slot.stores += c.stores;
            slot.l1_misses += c.l1_misses;
            slot.l2_misses += c.l2_misses;
            slot.start_us = c.start_us;
            slot.dur_us = c.dur_us;
        }
    }

    /// Discards every recorded site.
    pub fn clear(&mut self) {
        self.sites.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(i: u64, worker: u64, instructions: u64) -> ParChunkStats {
        ParChunkStats {
            chunk: i,
            start: (i * 10) as i64,
            end: ((i + 1) * 10) as i64,
            worker,
            instructions,
            loads: instructions / 2,
            stores: instructions / 4,
            l1_misses: 1,
            l2_misses: 1,
            start_us: 0,
            dur_us: 0,
        }
    }

    fn site(chunks: Vec<ParChunkStats>, threads: u64) -> ParSiteStats {
        let mut p = ParallelStats::default();
        let n = chunks.iter().map(|c| (c.end - c.start) as u64).sum();
        let at = Site::new("run", 4, Some("via quote at line 9"));
        p.record(at, "run$par0", threads, n, chunks);
        p.sites.into_iter().next().unwrap()
    }

    #[test]
    fn spread_median_and_imbalance() {
        let s = site(
            vec![
                chunk(0, 0, 10),
                chunk(1, 0, 30),
                chunk(2, 1, 20),
                chunk(3, 1, 40),
            ],
            2,
        );
        assert_eq!(s.total_instructions(), 100);
        assert_eq!(s.chunk_instruction_spread(), (10, 25, 40));
        // mean 25, max 40.
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
        assert_eq!(s.critical_chunk().unwrap().chunk, 3);
    }

    #[test]
    fn critical_chunk_ties_take_lowest_index() {
        let s = site(vec![chunk(0, 0, 7), chunk(1, 0, 7), chunk(2, 0, 3)], 1);
        assert_eq!(s.critical_chunk().unwrap().chunk, 0);
        // Odd count: middle element.
        assert_eq!(s.chunk_instruction_spread(), (3, 7, 7));
    }

    #[test]
    fn efficiency_reflects_worker_loads() {
        // Worker 0 carries 40 of 100 instructions, worker 1 carries 60.
        let s = site(
            vec![
                chunk(0, 0, 10),
                chunk(1, 0, 30),
                chunk(2, 1, 20),
                chunk(3, 1, 40),
            ],
            2,
        );
        let loads = s.worker_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(
            (loads[0].worker, loads[0].chunks, loads[0].instructions),
            (0, 2, 40)
        );
        assert_eq!(
            (loads[1].worker, loads[1].chunks, loads[1].instructions),
            (1, 2, 60)
        );
        // 100 / (2 * 60).
        assert!((s.efficiency() - 100.0 / 120.0).abs() < 1e-12);
        // Balanced single worker is perfectly efficient.
        let seq = site(vec![chunk(0, 0, 10), chunk(1, 0, 10)], 1);
        assert!((seq.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_fraction_is_clamped_and_amdahl_shaped() {
        let s = site(vec![chunk(0, 0, 80)], 1);
        assert!((s.serial_fraction(100) - 0.2).abs() < 1e-12);
        assert_eq!(s.serial_fraction(0), 0.0);
        // A region larger than the reported total (cannot happen in
        // practice) clamps instead of underflowing.
        assert_eq!(s.serial_fraction(40), 0.0);
    }

    #[test]
    fn empty_site_degenerates_to_neutral_metrics() {
        let s = site(Vec::new(), 1);
        assert_eq!(s.chunk_instruction_spread(), (0, 0, 0));
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.efficiency(), 1.0);
        assert!(s.critical_chunk().is_none());
    }

    #[test]
    fn record_merges_repeat_invocations_by_chunk_index() {
        let mut p = ParallelStats::default();
        let at = Site::new("run", 4, None);
        let first = vec![chunk(0, 0, 10), chunk(1, 1, 20)];
        p.record(at.clone(), "run$par0", 2, 20, first);
        let again = vec![chunk(0, 0, 5), chunk(1, 1, 5)];
        p.record(at, "run$par0", 4, 20, again);
        assert_eq!(p.sites.len(), 1);
        let s = &p.sites[0];
        assert_eq!(s.invocations, 2);
        assert_eq!(s.iterations, 40);
        assert_eq!(s.threads, 4, "thread count reflects the latest execution");
        assert_eq!(s.chunks[0].instructions, 15);
        assert_eq!(s.chunks[1].instructions, 25);
        // A different site identity stays separate.
        let other = Site::new("run", 9, None);
        p.record(other, "run$par1", 2, 4, vec![chunk(0, 0, 1)]);
        assert_eq!(p.sites.len(), 2);
        assert_eq!(p.total_instructions(), 41);
    }
}
