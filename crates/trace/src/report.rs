//! Human-readable profile rendering.
//!
//! [`Profile::render_report`] is what `terra --profile` prints: a timeline
//! section (wall-clock, not deterministic) followed by the counter sections.
//! [`Profile::render_counters`] renders only the deterministic counters and
//! is the byte-identical reproducibility contract used by tests and golden
//! files.

use crate::Profile;
use std::fmt::Write;

impl Profile {
    /// Renders the full report: staging timeline + deterministic counters.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        if !self.events.is_empty() {
            out.push_str("== staging timeline ==\n");
            for e in &self.events {
                let _ = writeln!(
                    out,
                    "  {:>10.3} ms  {:>9.3} ms  {:<10} {}",
                    e.start_us as f64 / 1000.0,
                    e.dur_us as f64 / 1000.0,
                    e.stage.label(),
                    e.name
                );
            }
        }
        out.push_str(&self.render_counters());
        out
    }

    /// Renders only the deterministic counter sections (no timestamps).
    ///
    /// Two runs of the same program must produce byte-identical output here;
    /// the determinism test in `terra-core` relies on it.
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        out.push_str("== function profile ==\n");
        out.push_str("  calls        inclusive        exclusive  function\n");
        for f in &self.funcs {
            let _ = writeln!(
                out,
                "  {:>5} {:>16} {:>16}  {}",
                f.counters.calls, f.counters.inclusive, f.counters.exclusive, f.name
            );
        }
        if self.samples.interval > 0 {
            out.push_str(&self.render_samples());
        }
        if !self.parallel.sites.is_empty() {
            out.push_str(&self.render_parallel());
        }
        let _ = writeln!(
            out,
            "== opcode counters == ({} instructions)",
            self.total_instructions()
        );
        for (op, n) in &self.ops {
            let _ = writeln!(out, "  {op:<14} {n:>14}");
        }
        let m = &self.mem;
        out.push_str("== memory counters ==\n");
        let _ = writeln!(
            out,
            "  mallocs {}  frees {}  peak_live_bytes {}",
            m.mallocs, m.frees, m.peak_live_bytes
        );
        let _ = writeln!(
            out,
            "  loads  b1 {} b2 {} b4 {} b8 {} vector {}",
            m.loads[0], m.loads[1], m.loads[2], m.loads[3], m.vec_loads
        );
        let _ = writeln!(
            out,
            "  stores b1 {} b2 {} b4 {} b8 {} vector {}",
            m.stores[0], m.stores[1], m.stores[2], m.stores[3], m.vec_stores
        );
        let _ = writeln!(out, "  prefetch hints {}", m.prefetches);
        if !self.heap.sites.is_empty() {
            out.push_str(&self.render_heap());
        }
        if self.cache.total_accesses() > 0 || !self.cache_lines.is_empty() {
            out.push_str(&self.render_locality());
        }
        if !self.remarks.is_empty() {
            out.push_str(&self.render_remarks(None));
        }
        out
    }

    /// Renders the allocation-site heap section: per-site traffic, the
    /// live-heap high-water timeline, and the end-of-run leak report with
    /// staging provenance chains.
    ///
    /// Deterministic: every figure is a byte or allocation count; the
    /// timeline is keyed by allocation sequence number, not wall clock.
    pub fn render_heap(&self) -> String {
        let h = &self.heap;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== heap == ({} site(s), peak live {} bytes, live at exit {} bytes)",
            h.sites.len(),
            h.peak_live_bytes,
            h.live_bytes
        );
        out.push_str("    allocs       bytes        peak        live  site\n");
        for s in &h.sites {
            let _ = writeln!(
                out,
                "  {:>8} {:>11} {:>11} {:>11}  {}",
                s.count, s.bytes, s.peak_bytes, s.live_bytes, s.site
            );
        }
        if let Some(last) = h.timeline.last() {
            let _ = writeln!(
                out,
                "  high-water timeline: {} point(s), peak {} bytes at alloc #{}",
                h.timeline.len(),
                last.live_bytes,
                last.seq
            );
        }
        if h.leaked_allocs() > 0 {
            let _ = writeln!(
                out,
                "  leaked allocations ({} bytes in {} allocation(s)):",
                h.leaked_bytes(),
                h.leaked_allocs()
            );
            for s in h.leaks() {
                let _ = writeln!(
                    out,
                    "    {} bytes in {} allocation(s): allocated at {}",
                    s.live_bytes, s.live_count, s.site
                );
            }
        } else {
            out.push_str("  no leaks (every tracked allocation was freed)\n");
        }
        out
    }

    /// Renders the sampling-profiler section: sample totals plus the
    /// per-function ranking (containing = stack contains the function,
    /// the statistical analogue of inclusive; leaf = it was on top).
    ///
    /// Deterministic: samples trigger on retired-instruction counts.
    pub fn render_samples(&self) -> String {
        let s = &self.samples;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== samples == (every {} instructions, {} sample(s))",
            s.interval, s.total
        );
        if s.total == 0 {
            out.push_str("  (no samples: program retired fewer instructions than the interval)\n");
            return out;
        }
        out.push_str("  containing       leaf  function\n");
        for r in s.top_functions() {
            let _ = writeln!(out, "  {:>10} {:>10}  {}", r.containing, r.leaf, r.name);
        }
        out
    }

    /// Renders the parallel-execution section: one block per `par.for`
    /// site showing the chunk structure, the per-chunk instruction spread,
    /// the load-imbalance factor (max/mean), the critical-path chunk, and
    /// an Amdahl-style serial-fraction estimate against the whole run.
    ///
    /// Deterministic *and thread-invariant*: every figure here is a
    /// function of the chunk index (chunking depends only on the iteration
    /// count), so the section is byte-identical at every `--threads` —
    /// worker assignment, efficiency, and wall-clock live only in the
    /// Chrome/JSONL exports.
    pub fn render_parallel(&self) -> String {
        let mut out = String::new();
        let total = self.total_instructions();
        let _ = writeln!(
            out,
            "== parallel == ({} site(s))",
            self.parallel.sites.len()
        );
        for s in &self.parallel.sites {
            let _ = writeln!(out, "  {} -> kernel {}", s.site, s.kernel);
            let _ = writeln!(
                out,
                "    chunks {}  iterations {}  instructions {}  invocations {}",
                s.chunks.len(),
                s.iterations,
                s.total_instructions(),
                s.invocations
            );
            let (min, median, max) = s.chunk_instruction_spread();
            let _ = writeln!(
                out,
                "    chunk instructions  min {min}  median {median}  max {max}  imbalance {:.2}",
                s.imbalance()
            );
            if let Some(c) = s.critical_chunk() {
                let _ = writeln!(
                    out,
                    "    critical chunk {} [{}, {})  serial fraction {:.2}%",
                    c.chunk,
                    c.start,
                    c.end,
                    s.serial_fraction(total) * 100.0
                );
            }
            let (loads, stores, l1, l2) = s.chunks.iter().fold((0u64, 0u64, 0u64, 0u64), |a, c| {
                (
                    a.0 + c.loads,
                    a.1 + c.stores,
                    a.2 + c.l1_misses,
                    a.3 + c.l2_misses,
                )
            });
            let _ = writeln!(
                out,
                "    loads {loads}  stores {stores}  l1 misses {l1}  l2 misses {l2}"
            );
        }
        out
    }

    /// Renders the optimization-remark section, optionally restricted to one
    /// pass. Deterministic: remarks carry no timestamps and are emitted in
    /// pipeline order.
    pub fn render_remarks(&self, pass: Option<&str>) -> String {
        let mut out = String::new();
        out.push_str("== remarks ==\n");
        let mut shown = 0usize;
        for r in &self.remarks {
            if pass.is_some_and(|p| p != r.pass) {
                continue;
            }
            shown += 1;
            let _ = write!(
                out,
                "  {:<8} {:<7} {:<20} {}",
                r.pass,
                r.kind,
                r.site.place(),
                r.message
            );
            if let Some(chain) = &r.site.chain {
                let _ = write!(out, " [{chain}]");
            }
            out.push('\n');
        }
        if shown == 0 {
            out.push_str("  (none)\n");
        }
        out
    }

    /// Renders the simulated cache-hierarchy section: per-level miss rates,
    /// prefetch classification, and the top hot lines by L1 misses.
    ///
    /// Deterministic like [`render_counters`](Self::render_counters); the
    /// `-O0` vs `-O2` locality-identity test compares this string directly.
    pub fn render_locality(&self) -> String {
        let mut out = String::new();
        let c = &self.cache;
        let geom =
            |l: &crate::CacheLevelConfig| format!("{}B/{}B-line/{}-way", l.size, l.line, l.assoc);
        let _ = writeln!(
            out,
            "== locality == (simulated {} L1d, {} L2)",
            geom(&c.config.l1),
            geom(&c.config.l2)
        );
        let _ = writeln!(
            out,
            "  L1d  accesses {:>12}  misses {:>10}  evictions {:>10}  miss rate {:>6.2}%",
            c.l1.accesses(),
            c.l1.misses,
            c.l1.evictions,
            c.l1.miss_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "  L2   accesses {:>12}  misses {:>10}  evictions {:>10}  miss rate {:>6.2}%",
            c.l2.accesses(),
            c.l2.misses,
            c.l2.evictions,
            c.l2.miss_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "  prefetch useful {}  late {}  useless {}",
            c.prefetch_useful, c.prefetch_late, c.prefetch_useless
        );
        if !self.cache_lines.is_empty() {
            out.push_str("  hot lines (by L1 misses):\n");
            out.push_str("    accesses   L1 misses   L2 misses  miss%  location\n");
            for l in self.cache_lines.iter().take(10) {
                let rate = if l.accesses == 0 {
                    0.0
                } else {
                    l.l1_misses as f64 / l.accesses as f64 * 100.0
                };
                let _ = writeln!(
                    out,
                    "    {:>8} {:>11} {:>11} {:>5.1}%  {}",
                    l.accesses, l.l1_misses, l.l2_misses, rate, l.site
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        CacheLevelStats, FuncCounters, FuncProfile, HeapSiteStats, HeapStats, HeapTimelinePoint,
        LineStat, Profile, SampleStats, Site,
    };

    fn base_profile() -> Profile {
        Profile {
            ops: vec![("add.i".into(), 3), ("ret".into(), 1)],
            funcs: vec![FuncProfile {
                name: "f".into(),
                counters: FuncCounters {
                    calls: 1,
                    inclusive: 4,
                    exclusive: 4,
                },
            }],
            ..Profile::default()
        }
    }

    #[test]
    fn counters_render_deterministically() {
        let p = base_profile();
        let a = p.render_counters();
        let b = p.render_counters();
        assert_eq!(a, b);
        assert!(a.contains("add.i"));
        assert!(a.contains("(4 instructions)"));
        assert!(a.contains("  f"), "{a}");
        // No cache activity: the locality section stays out of the report.
        assert!(!a.contains("== locality =="), "{a}");
    }

    #[test]
    fn remarks_section_renders_and_filters() {
        let mut p = base_profile();
        // No remarks: the section stays out of the counter report entirely.
        assert!(!p.render_counters().contains("== remarks =="));
        p.remarks = vec![
            crate::Remark {
                pass: "inline",
                kind: "applied",
                site: Site::new("sieve", 12, Some("via quote at line 4")),
                message: "inlined 'is_marked' (9 IR nodes)".into(),
            },
            crate::Remark {
                pass: "dce",
                kind: "applied",
                site: Site::new("sieve", 0, None),
                message: "removed 2 dead-store statement(s)".into(),
            },
        ];
        let r = p.render_counters();
        assert!(r.contains("== remarks =="), "{r}");
        assert!(r.contains("sieve:12"), "{r}");
        assert!(r.contains("[via quote at line 4]"), "{r}");
        // line 0 renders as the bare function name.
        assert!(r.contains(" sieve  "), "{r}");
        let only_dce = p.render_remarks(Some("dce"));
        assert!(!only_dce.contains("inline"), "{only_dce}");
        assert!(only_dce.contains("dce"), "{only_dce}");
        let none = p.render_remarks(Some("licm"));
        assert!(none.contains("(none)"), "{none}");
    }

    #[test]
    fn heap_section_renders_sites_and_leaks() {
        let mut p = base_profile();
        // No heap data: the section stays out of the report.
        assert!(!p.render_counters().contains("== heap =="));
        p.heap = HeapStats {
            sites: vec![
                HeapSiteStats {
                    site: Site::new("kernel", 7, Some("via quote at line 3")),
                    count: 2,
                    bytes: 128,
                    peak_bytes: 128,
                    live_count: 1,
                    live_bytes: 64,
                },
                HeapSiteStats {
                    site: Site::new("kernel", 9, None),
                    count: 1,
                    bytes: 32,
                    peak_bytes: 32,
                    live_count: 0,
                    live_bytes: 0,
                },
            ],
            timeline: vec![HeapTimelinePoint {
                seq: 3,
                live_bytes: 160,
            }],
            live_bytes: 64,
            peak_live_bytes: 160,
        };
        let r = p.render_counters();
        assert!(
            r.contains("== heap == (2 site(s), peak live 160 bytes"),
            "{r}"
        );
        assert!(r.contains("kernel:7, generated via quote at line 3"), "{r}");
        assert!(
            r.contains("64 bytes in 1 allocation(s): allocated at kernel:7"),
            "{r}"
        );
        assert!(r.contains("peak 160 bytes at alloc #3"), "{r}");
        // The fully-freed site does not appear in the leak report.
        assert!(!r.contains("allocated at kernel:9"), "{r}");
    }

    #[test]
    fn heap_section_reports_no_leaks_when_clean() {
        let mut p = base_profile();
        p.heap.sites = vec![HeapSiteStats {
            site: Site::new("f", 2, None),
            count: 1,
            bytes: 16,
            peak_bytes: 16,
            live_count: 0,
            live_bytes: 0,
        }];
        let r = p.render_heap();
        assert!(r.contains("no leaks"), "{r}");
    }

    #[test]
    fn samples_section_renders_ranking() {
        let mut p = base_profile();
        assert!(!p.render_counters().contains("== samples =="));
        p.samples = SampleStats {
            interval: 100,
            total: 3,
            stacks: vec![("run;gemm".into(), 2), ("run".into(), 1)],
        };
        let r = p.render_counters();
        assert!(
            r.contains("== samples == (every 100 instructions, 3 sample(s))"),
            "{r}"
        );
        let run_row = r.lines().find(|l| l.ends_with("  run")).unwrap();
        assert!(run_row.contains('3'), "{run_row}");
        // Determinism of the rendered section.
        assert_eq!(p.render_samples(), p.render_samples());
    }

    #[test]
    fn parallel_section_renders_spread_and_imbalance() {
        let mut p = base_profile();
        // No parallel regions: the section stays out of the report.
        assert!(!p.render_counters().contains("== parallel =="));
        let mut stats = crate::ParallelStats::default();
        stats.record(
            Site::new("run", 4, Some("via quote at line 9")),
            "run$par0",
            2,
            40,
            vec![
                crate::ParChunkStats {
                    chunk: 0,
                    start: 0,
                    end: 20,
                    worker: 0,
                    instructions: 30,
                    loads: 10,
                    stores: 5,
                    l1_misses: 2,
                    l2_misses: 1,
                    start_us: 7,
                    dur_us: 3,
                },
                crate::ParChunkStats {
                    chunk: 1,
                    start: 20,
                    end: 40,
                    worker: 1,
                    instructions: 10,
                    loads: 4,
                    stores: 2,
                    l1_misses: 1,
                    l2_misses: 0,
                    start_us: 8,
                    dur_us: 1,
                },
            ],
        );
        p.parallel = stats;
        let r = p.render_counters();
        assert!(r.contains("== parallel == (1 site(s))"), "{r}");
        assert!(
            r.contains("run:4, generated via quote at line 9 -> kernel run$par0"),
            "{r}"
        );
        assert!(
            r.contains("chunks 2  iterations 40  instructions 40"),
            "{r}"
        );
        assert!(
            r.contains("min 10  median 20  max 30  imbalance 1.50"),
            "{r}"
        );
        assert!(r.contains("critical chunk 0 [0, 20)"), "{r}");
        assert!(
            r.contains("loads 14  stores 7  l1 misses 3  l2 misses 1"),
            "{r}"
        );
        // Wall-clock chunk times must not appear anywhere in the section.
        assert!(!p.render_parallel().contains("us"), "{r}");
        assert_eq!(p.render_parallel(), p.render_parallel());
    }

    #[test]
    fn locality_section_renders_hot_lines() {
        let mut p = base_profile();
        p.cache.l1 = CacheLevelStats {
            hits: 90,
            misses: 10,
            evictions: 2,
        };
        p.cache.l2 = CacheLevelStats {
            hits: 8,
            misses: 2,
            evictions: 0,
        };
        p.cache.prefetch_useful = 1;
        p.cache_lines = vec![LineStat {
            site: Site::new("saxpy", 14, None),
            accesses: 100,
            l1_misses: 10,
            l2_misses: 2,
        }];
        let r = p.render_counters();
        assert!(r.contains("== locality =="), "{r}");
        assert!(r.contains("miss rate  10.00%"), "{r}");
        assert!(r.contains("saxpy:14"), "{r}");
        assert!(r.contains("prefetch useful 1"), "{r}");
    }
}
