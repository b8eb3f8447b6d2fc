//! Unified JSONL telemetry stream.
//!
//! One newline-delimited JSON object per event, so external tooling
//! consumes a single artifact instead of four bespoke exports. The stream
//! is **deterministic**: every record is derived from instruction/byte
//! counts or emission order, and the wall-clock span timestamps are
//! deliberately omitted (spans appear as order-only records). Two runs of
//! the same program therefore produce byte-identical files.
//!
//! The record table — each type and its fields, in emission order — is
//! DESIGN.md §6c's; `core/tests/profile.rs` holds that table to what this
//! file emits. A located record writes its [`Site`] through
//! [`site_fields`]: the function under the key that record type has always
//! used (`func` or `function`), then `line` and `provenance`.

use crate::json::Json;
use crate::{FuncCounters, MemStats, Profile, Remark, Site};

/// A site's three fields, the function under `func_key`.
pub(crate) fn site_fields<'a, 'j>(
    o: &'a mut Json<'j>,
    func_key: &str,
    site: &Site,
) -> &'a mut Json<'j> {
    let (func, line, chain) = site.fields();
    o.str(func_key, func)
        .raw("line", line)
        .str("provenance", chain)
}

/// The six fields of a remark, as every export spells them.
pub(crate) fn remark_fields(o: &mut Json, r: &Remark) {
    site_fields(
        o.str("pass", r.pass).str("kind", r.kind),
        "function",
        &r.site,
    )
    .str("message", &r.message);
}

/// A function's call and instruction counters.
pub(crate) fn func_fields(o: &mut Json, c: &FuncCounters) {
    o.raw("calls", c.calls)
        .raw("inclusive", c.inclusive)
        .raw("exclusive", c.exclusive);
}

/// The memory system's counters; loads and stores are per access width.
pub(crate) fn mem_fields(o: &mut Json, m: &MemStats) {
    let [l1, l2, l4, l8] = m.loads;
    let [s1, s2, s4, s8] = m.stores;
    o.raw("mallocs", m.mallocs)
        .raw("frees", m.frees)
        .raw("peak_live_bytes", m.peak_live_bytes)
        .raw("loads", format_args!("[{l1},{l2},{l4},{l8}]"))
        .raw("stores", format_args!("[{s1},{s2},{s4},{s8}]"))
        .raw("vec_loads", m.vec_loads)
        .raw("vec_stores", m.vec_stores)
        .raw("prefetches", m.prefetches);
}

impl Profile {
    /// Serializes the profile as one deterministic JSONL event stream.
    /// See the module docs of `events` for the schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // One record: an object whose first member is its type, then a
        // newline.
        let mut record = |ty: &str, fields: &dyn Fn(&mut Json)| {
            Json::object(&mut out, |o| fields(o.str("type", ty)));
            out.push('\n');
        };
        record("meta", &|o| {
            o.raw("version", 1)
                .raw("total_instructions", self.total_instructions())
                .raw("sample_interval", self.samples.interval);
        });
        for (seq, ev) in self.events.iter().enumerate() {
            record("span", &|o| {
                o.raw("seq", seq)
                    .str("stage", ev.stage.label())
                    .str("name", &ev.name);
            });
        }
        for (op, n) in &self.ops {
            record("op", &|o| {
                o.str("name", op).raw("count", n);
            });
        }
        for f in &self.funcs {
            record("func", &|o| {
                func_fields(o.str("name", &f.name), &f.counters)
            });
        }
        record("mem", &|o| mem_fields(o, &self.mem));
        if self.cache.total_accesses() > 0 {
            for (level, s) in [("l1", self.cache.l1), ("l2", self.cache.l2)] {
                record("cache", &|o| {
                    o.str("level", level)
                        .raw("hits", s.hits)
                        .raw("misses", s.misses)
                        .raw("evictions", s.evictions);
                });
            }
        }
        for l in &self.cache_lines {
            record("cache_line", &|o| {
                o.str("func", &l.site.func)
                    .raw("line", l.site.line)
                    .raw("accesses", l.accesses)
                    .raw("l1_misses", l.l1_misses)
                    .raw("l2_misses", l.l2_misses);
            });
        }
        for r in &self.remarks {
            record("remark", &|o| remark_fields(o, r));
        }
        for s in &self.heap.sites {
            record("heap_site", &|o| {
                site_fields(o, "func", &s.site)
                    .raw("count", s.count)
                    .raw("bytes", s.bytes)
                    .raw("peak_bytes", s.peak_bytes)
                    .raw("live_count", s.live_count)
                    .raw("live_bytes", s.live_bytes);
            });
        }
        for p in &self.heap.timeline {
            record("heap_timeline", &|o| {
                o.raw("seq", p.seq).raw("live_bytes", p.live_bytes);
            });
        }
        for s in self.heap.leaks() {
            record("leak", &|o| {
                site_fields(o, "func", &s.site)
                    .raw("count", s.live_count)
                    .raw("bytes", s.live_bytes);
            });
        }
        for (stack, n) in &self.samples.stacks {
            record("sample", &|o| {
                o.str("stack", stack).raw("count", n);
            });
        }
        for (si, s) in self.parallel.sites.iter().enumerate() {
            let (min, median, max) = s.chunk_instruction_spread();
            record("par_site", &|o| {
                site_fields(o.raw("site", si), "function", &s.site)
                    .str("kernel", &s.kernel)
                    .raw("threads", s.threads)
                    .raw("invocations", s.invocations)
                    .raw("chunks", s.chunks.len())
                    .raw("iterations", s.iterations)
                    .raw("instructions", s.total_instructions())
                    .raw("min", min)
                    .raw("median", median)
                    .raw("max", max)
                    .raw("imbalance", format_args!("{:.4}", s.imbalance()))
                    .raw("efficiency", format_args!("{:.4}", s.efficiency()))
                    .raw(
                        "critical_chunk",
                        s.critical_chunk().map(|c| c.chunk).unwrap_or(0),
                    );
            });
            for c in &s.chunks {
                record("par_chunk", &|o| {
                    o.raw("site", si)
                        .raw("chunk", c.chunk)
                        .raw("start", c.start)
                        .raw("end", c.end)
                        .raw("worker", c.worker)
                        .raw("instructions", c.instructions)
                        .raw("loads", c.loads)
                        .raw("stores", c.stores)
                        .raw("l1_misses", c.l1_misses)
                        .raw("l2_misses", c.l2_misses);
                });
            }
            for w in s.worker_loads() {
                record("par_worker", &|o| {
                    o.raw("site", si)
                        .raw("worker", w.worker)
                        .raw("chunks", w.chunks)
                        .raw("instructions", w.instructions);
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FuncCounters, FuncProfile, HeapSiteStats, HeapStats, HeapTimelinePoint, Remark,
        SampleStats, SpanEvent, Stage,
    };

    fn staged() -> Site {
        Site::new("f", 4, Some("via quote at line 9"))
    }

    fn sample_profile() -> Profile {
        Profile {
            events: vec![SpanEvent {
                stage: Stage::Parse,
                name: "chunk".to_string(),
                start_us: 11,
                dur_us: 7,
            }],
            ops: vec![("add.i".to_string(), 3)],
            funcs: vec![FuncProfile {
                name: "f".to_string(),
                counters: FuncCounters {
                    calls: 1,
                    inclusive: 3,
                    exclusive: 3,
                },
            }],
            remarks: vec![Remark {
                pass: "inline",
                kind: "applied",
                site: staged(),
                message: "inlined 'g'".to_string(),
            }],
            heap: HeapStats {
                sites: vec![HeapSiteStats {
                    site: staged(),
                    count: 2,
                    bytes: 128,
                    peak_bytes: 128,
                    live_count: 1,
                    live_bytes: 64,
                }],
                timeline: vec![HeapTimelinePoint {
                    seq: 1,
                    live_bytes: 64,
                }],
                live_bytes: 64,
                peak_live_bytes: 128,
            },
            samples: SampleStats {
                interval: 100,
                total: 2,
                stacks: vec![("f;g".to_string(), 2)],
            },
            parallel: {
                let mut stats = crate::ParallelStats::default();
                stats.record(
                    staged(),
                    "f$par0",
                    2,
                    8,
                    vec![
                        crate::ParChunkStats {
                            chunk: 0,
                            start: 0,
                            end: 4,
                            worker: 0,
                            instructions: 30,
                            loads: 10,
                            stores: 5,
                            l1_misses: 2,
                            l2_misses: 1,
                            start_us: 19,
                            dur_us: 13,
                        },
                        crate::ParChunkStats {
                            chunk: 1,
                            start: 4,
                            end: 8,
                            worker: 1,
                            instructions: 10,
                            loads: 4,
                            stores: 2,
                            l1_misses: 1,
                            l2_misses: 0,
                            start_us: 23,
                            dur_us: 17,
                        },
                    ],
                );
                stats
            },
            ..Profile::default()
        }
    }

    #[test]
    fn every_line_is_a_json_object() {
        let jsonl = sample_profile().to_jsonl();
        assert!(jsonl.lines().count() >= 8);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
    }

    #[test]
    fn spans_carry_no_timestamps() {
        let jsonl = sample_profile().to_jsonl();
        let span = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"span\""))
            .unwrap();
        assert!(!span.contains("11") && !span.contains("dur"), "{span}");
        assert!(span.contains("\"seq\":0"));
    }

    #[test]
    fn stream_is_identical_across_renders() {
        let p = sample_profile();
        assert_eq!(p.to_jsonl(), p.to_jsonl());
    }

    #[test]
    fn heap_and_samples_and_leaks_appear() {
        let jsonl = sample_profile().to_jsonl();
        assert!(jsonl.contains("\"type\":\"heap_site\""));
        assert!(jsonl.contains("\"type\":\"heap_timeline\""));
        assert!(jsonl.contains("\"type\":\"leak\""));
        assert!(jsonl.contains("\"type\":\"sample\""));
        assert!(jsonl.contains("\"sample_interval\":100"));
        assert!(jsonl.contains("via quote at line 9"));
    }

    #[test]
    fn par_records_carry_shards_but_no_wall_clock() {
        let jsonl = sample_profile().to_jsonl();
        let site = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"par_site\""))
            .unwrap();
        assert!(site.contains("\"kernel\":\"f$par0\""), "{site}");
        assert!(site.contains("\"chunks\":2"), "{site}");
        assert!(site.contains("\"instructions\":40"), "{site}");
        // mean 20, max 30 -> imbalance 1.5; worker loads 30/10 at 2 threads
        // -> efficiency 40 / (2*30).
        assert!(site.contains("\"imbalance\":1.5000"), "{site}");
        assert!(site.contains("\"efficiency\":0.6667"), "{site}");
        assert!(site.contains("\"critical_chunk\":0"), "{site}");
        assert_eq!(
            jsonl.matches("\"type\":\"par_chunk\"").count(),
            2,
            "{jsonl}"
        );
        assert_eq!(
            jsonl.matches("\"type\":\"par_worker\"").count(),
            2,
            "{jsonl}"
        );
        let chunk = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"par_chunk\""))
            .unwrap();
        assert!(chunk.contains("\"worker\":0"), "{chunk}");
        // The wall-clock chunk times (19/13/23/17 µs) stay out of the
        // deterministic stream.
        for l in jsonl.lines().filter(|l| l.contains("\"type\":\"par_")) {
            assert!(!l.contains("_us\"") && !l.contains("\"ts\""), "{l}");
        }
    }
}
