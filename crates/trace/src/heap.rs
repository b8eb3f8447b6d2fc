//! Allocation-site heap profiling.
//!
//! [`HeapProfiler`] is the live collector held by the VM's telemetry
//! observer. Every allocation reaches it with the [`Site`] that asked for
//! it: a `malloc`/`realloc` builtin's statement, or [`Site::host`] for
//! host-side allocations (string interning, globals, embedder calls).
//!
//! Everything here counts allocation events and bytes, never wall clock, so
//! the frozen [`HeapStats`] is part of the deterministic surface: two runs
//! of the same program produce byte-identical heap reports.

use crate::Site;
use std::collections::BTreeMap;

/// One live allocation, keyed by payload address in [`HeapProfiler::live`].
#[derive(Debug, Clone, Copy)]
struct LiveAlloc {
    site: usize,
    bytes: u64,
}

/// A point on the live-heap high-water timeline: allocation number `seq`
/// pushed the live-byte figure to a new peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapTimelinePoint {
    /// 1-based allocation sequence number (deterministic, not wall clock).
    pub seq: u64,
    /// Live heap bytes immediately after that allocation.
    pub live_bytes: u64,
}

/// Cap on stored timeline points; on overflow every other point is dropped,
/// deterministically, so long allocation storms stay bounded.
const TIMELINE_CAP: usize = 512;

/// Live allocation-site collector. See the module docs.
#[derive(Debug, Default)]
pub struct HeapProfiler {
    site_ids: BTreeMap<Site, usize>,
    /// The rows of the report, accumulating as the program runs.
    sites: Vec<HeapSiteStats>,
    live: BTreeMap<u64, LiveAlloc>,
    live_bytes: u64,
    peak_live_bytes: u64,
    seq: u64,
    timeline: Vec<HeapTimelinePoint>,
}

impl HeapProfiler {
    fn intern(&mut self, site: Site) -> usize {
        if let Some(&id) = self.site_ids.get(&site) {
            return id;
        }
        let id = self.sites.len();
        self.site_ids.insert(site.clone(), id);
        let zero = HeapSiteStats {
            site,
            count: 0,
            bytes: 0,
            peak_bytes: 0,
            live_count: 0,
            live_bytes: 0,
        };
        self.sites.push(zero);
        id
    }

    /// Records an allocation by `site` of `bytes` (the block size, matching
    /// the VM's live-byte accounting) whose payload starts at `addr`.
    pub fn note_alloc(&mut self, site: Site, addr: u64, bytes: u64) {
        let site = self.intern(site);
        self.seq += 1;
        let rec = &mut self.sites[site];
        rec.count += 1;
        rec.bytes += bytes;
        rec.live_count += 1;
        rec.live_bytes += bytes;
        if rec.live_bytes > rec.peak_bytes {
            rec.peak_bytes = rec.live_bytes;
        }
        self.live.insert(addr, LiveAlloc { site, bytes });
        self.live_bytes += bytes;
        if self.live_bytes > self.peak_live_bytes {
            self.peak_live_bytes = self.live_bytes;
            self.timeline.push(HeapTimelinePoint {
                seq: self.seq,
                live_bytes: self.live_bytes,
            });
            if self.timeline.len() > TIMELINE_CAP {
                // Keep every other point, always retaining the final peak.
                let last = self.timeline.len() - 1;
                let kept: Vec<_> = self
                    .timeline
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 1 || *i == last)
                    .map(|(_, p)| *p)
                    .collect();
                self.timeline = kept;
            }
        }
    }

    /// Records a free of the allocation whose payload starts at `addr`.
    /// Unknown addresses (allocated before profiling began) are ignored.
    pub fn note_free(&mut self, addr: u64) {
        let Some(alloc) = self.live.remove(&addr) else {
            return;
        };
        let rec = &mut self.sites[alloc.site];
        rec.live_count -= 1;
        rec.live_bytes -= alloc.bytes;
        self.live_bytes -= alloc.bytes;
    }

    /// Discards everything collected so far.
    pub fn reset(&mut self) {
        *self = HeapProfiler::default();
    }

    /// Freezes the collected data. Sites are ordered by total bytes
    /// (descending), then function name and line, for a deterministic
    /// report.
    pub fn snapshot(&self) -> HeapStats {
        let mut sites = self.sites.clone();
        sites.sort_by(|a, b| {
            b.bytes
                .cmp(&a.bytes)
                .then_with(|| a.site.func.cmp(&b.site.func))
                .then_with(|| a.site.line.cmp(&b.site.line))
        });
        HeapStats {
            sites,
            timeline: self.timeline.clone(),
            live_bytes: self.live_bytes,
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// A frozen per-site row of the heap profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSiteStats {
    /// The allocating statement ([`Site::host`] for embedder / interning
    /// allocations with no VM context).
    pub site: Site,
    /// Allocations attributed to this site.
    pub count: u64,
    /// Total bytes ever allocated here.
    pub bytes: u64,
    /// Peak bytes simultaneously live from this site.
    pub peak_bytes: u64,
    /// Allocations from this site still live at snapshot time.
    pub live_count: u64,
    /// Bytes from this site still live at snapshot time.
    pub live_bytes: u64,
}

/// A frozen snapshot of the heap profiler, embedded in a `Profile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Per-site rows, largest total bytes first.
    pub sites: Vec<HeapSiteStats>,
    /// Live-heap high-water timeline (new-peak points only).
    pub timeline: Vec<HeapTimelinePoint>,
    /// Bytes live at snapshot time.
    pub live_bytes: u64,
    /// Peak bytes ever simultaneously live.
    pub peak_live_bytes: u64,
}

impl HeapStats {
    /// Sites with allocations still live at snapshot time — the leak
    /// report. Ordered like [`HeapStats::sites`] (leaked bytes ties follow
    /// total bytes).
    pub fn leaks(&self) -> impl Iterator<Item = &HeapSiteStats> {
        self.sites.iter().filter(|s| s.live_count > 0)
    }

    /// Total allocations still live.
    pub fn leaked_allocs(&self) -> u64 {
        self.leaks().map(|s| s.live_count).sum()
    }

    /// Total bytes still live.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaks().map(|s| s.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f1() -> Site {
        Site::new("f", 1, None)
    }

    #[test]
    fn attribution_and_leaks() {
        let mut h = HeapProfiler::default();
        let quoted = Site::new("kernel", 7, Some("via quote at line 3"));
        h.note_alloc(quoted.clone(), 1000, 64);
        h.note_alloc(quoted, 2000, 64);
        h.note_alloc(Site::new("kernel", 9, None), 3000, 128);
        h.note_free(2000);
        let s = h.snapshot();
        assert_eq!(s.sites.len(), 2);
        // Largest total bytes first: line 7 allocated 128 total, line 9 too;
        // ties break by func then line.
        assert_eq!(s.peak_live_bytes, 256);
        assert_eq!(s.live_bytes, 192);
        assert_eq!(s.leaked_allocs(), 2);
        assert_eq!(s.leaked_bytes(), 192);
        let quoted = s.sites.iter().find(|x| x.site.line == 7).unwrap();
        assert_eq!(quoted.count, 2);
        assert_eq!(quoted.live_count, 1);
        assert_eq!(
            quoted.site.to_string(),
            "kernel:7, generated via quote at line 3"
        );
    }

    #[test]
    fn host_allocations_get_a_synthetic_site() {
        let mut h = HeapProfiler::default();
        h.note_alloc(Site::host(), 500, 32);
        let s = h.snapshot();
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].site, Site::host());
    }

    #[test]
    fn unknown_free_is_ignored() {
        let mut h = HeapProfiler::default();
        h.note_alloc(f1(), 100, 16);
        h.note_free(999); // never recorded
        assert_eq!(h.snapshot().live_bytes, 16);
    }

    #[test]
    fn timeline_records_new_peaks_only() {
        let mut h = HeapProfiler::default();
        h.note_alloc(f1(), 100, 16); // peak 16
        h.note_free(100);
        h.note_alloc(f1(), 200, 8); // live 8, no new peak
        h.note_alloc(f1(), 300, 16); // live 24, new peak
        let s = h.snapshot();
        assert_eq!(
            s.timeline,
            vec![
                HeapTimelinePoint {
                    seq: 1,
                    live_bytes: 16
                },
                HeapTimelinePoint {
                    seq: 3,
                    live_bytes: 24
                },
            ]
        );
    }

    #[test]
    fn timeline_decimates_deterministically() {
        let mut h = HeapProfiler::default();
        for i in 0..2000u64 {
            h.note_alloc(f1(), 10_000 + i * 16, 16); // every alloc a new peak
        }
        let s = h.snapshot();
        assert!(s.timeline.len() <= TIMELINE_CAP);
        // The final (highest) peak always survives decimation.
        assert_eq!(s.timeline.last().unwrap().live_bytes, 2000 * 16);
        // A second identical run produces identical points.
        let mut h2 = HeapProfiler::default();
        for i in 0..2000u64 {
            h2.note_alloc(f1(), 10_000 + i * 16, 16);
        }
        assert_eq!(s.timeline, h2.snapshot().timeline);
    }

    #[test]
    fn reset_discards_everything() {
        let mut h = HeapProfiler::default();
        h.note_alloc(f1(), 100, 16);
        h.reset();
        let s = h.snapshot();
        assert!(s.sites.is_empty());
        assert_eq!(s.peak_live_bytes, 0);
    }
}
