//! The telemetry records: [`Profile::records`] visits each once — its type,
//! then its fields in order, through a [`Fields`] sink. The JSONL stream is
//! that walk through the JSON writer, the Lua `perf` rows the walk through a
//! Lua-table sink, and Chrome's remark and chunk `args` are the `remark` and
//! `par_chunk` fields. Every field is a count, a ratio of counts or an
//! emission order — span timestamps are left out — so two runs of a program
//! give byte-identical records. DESIGN.md §6c's table is the schema;
//! `core/tests/profile.rs` holds this file to it.

use crate::json::Json;
use crate::{ParChunkStats, Profile, Remark, Site};

/// Where a record's fields go, in order.
pub trait Fields {
    /// An integer.
    fn int(&mut self, key: &str, value: i64);
    /// A ratio, kept to four fixed decimals.
    fn ratio(&mut self, key: &str, value: f64);
    /// A string.
    fn str(&mut self, key: &str, value: &str);
    /// A list of counts.
    fn ints(&mut self, key: &str, values: &[u64]);
}

impl Fields for Json<'_> {
    fn int(&mut self, key: &str, value: i64) {
        self.raw(key, value);
    }

    fn ratio(&mut self, key: &str, value: f64) {
        self.raw(key, format_args!("{value:.4}"));
    }

    fn str(&mut self, key: &str, value: &str) {
        Json::str(self, key, value);
    }

    fn ints(&mut self, key: &str, values: &[u64]) {
        let items: Vec<String> = values.iter().map(u64::to_string).collect();
        self.raw(key, format_args!("[{}]", items.join(",")));
    }
}

impl dyn Fields + '_ {
    /// A count: every integer field but an iteration bound.
    fn count(&mut self, key: &str, value: u64) {
        self.int(key, i64::try_from(value).unwrap_or(i64::MAX));
    }
}

/// A site's three fields: `func`, `line`, `provenance`.
fn site_fields(f: &mut dyn Fields, site: &Site) {
    let (func, line, chain) = site.fields();
    f.str("func", func);
    f.count("line", line.into());
    f.str("provenance", chain);
}

/// The fields of a `remark` record.
pub(crate) fn remark_fields(f: &mut dyn Fields, r: &Remark) {
    f.str("pass", r.pass);
    f.str("kind", r.kind);
    site_fields(f, &r.site);
    f.str("message", &r.message);
}

/// The fields of a `par_chunk` record: chunk `c` of `par_site` number `site`.
pub(crate) fn chunk_fields(f: &mut dyn Fields, site: usize, c: &ParChunkStats) {
    f.count("site", site as u64);
    f.count("chunk", c.chunk);
    f.int("start", c.start);
    f.int("end", c.end);
    f.count("worker", c.worker);
    f.count("instructions", c.instructions);
    f.count("loads", c.loads);
    f.count("stores", c.stores);
    f.count("l1_misses", c.l1_misses);
    f.count("l2_misses", c.l2_misses);
}

impl Profile {
    /// Visits every record of the profile once, in emission order: `each`
    /// gets the record's type and a function that writes its fields into a
    /// sink. See the module docs for who reads the walk.
    pub fn records(&self, mut each: impl FnMut(&'static str, &dyn Fn(&mut dyn Fields))) {
        let total = self.total_instructions();
        each("meta", &|f| {
            f.count("version", 2);
            f.count("total_instructions", total);
            f.count("sample_interval", self.samples.interval);
            f.count("sample_total", self.samples.total);
        });
        for (seq, ev) in self.events.iter().enumerate() {
            each("span", &|f| {
                f.count("seq", seq as u64);
                f.str("stage", ev.stage.label());
                f.str("name", &ev.name);
            });
        }
        for (op, n) in &self.ops {
            each("op", &|f| {
                f.str("name", op);
                f.count("count", *n);
            });
        }
        for p in &self.funcs {
            each("func", &|f| {
                f.str("name", &p.name);
                f.count("calls", p.counters.calls);
                f.count("inclusive", p.counters.inclusive);
                f.count("exclusive", p.counters.exclusive);
            });
        }
        let (m, c) = (&self.mem, &self.cache);
        each("mem", &|f| {
            f.count("mallocs", m.mallocs);
            f.count("frees", m.frees);
            f.count("peak_live_bytes", m.peak_live_bytes);
            f.ints("loads", &m.loads);
            f.ints("stores", &m.stores);
            f.count("vec_loads", m.vec_loads);
            f.count("vec_stores", m.vec_stores);
            f.count("prefetches", m.prefetches);
            f.count("prefetch_useful", c.prefetch_useful);
            f.count("prefetch_late", c.prefetch_late);
            f.count("prefetch_useless", c.prefetch_useless);
        });
        if c.total_accesses() > 0 {
            for (level, s) in [("l1", c.l1), ("l2", c.l2)] {
                each("cache", &|f| {
                    f.str("level", level);
                    f.count("hits", s.hits);
                    f.count("misses", s.misses);
                    f.count("evictions", s.evictions);
                    f.ratio("miss_rate", s.miss_rate());
                });
            }
        }
        for l in &self.cache_lines {
            each("cache_line", &|f| {
                f.str("func", &l.site.func);
                f.count("line", l.site.line.into());
                f.count("accesses", l.accesses);
                f.count("l1_misses", l.l1_misses);
                f.count("l2_misses", l.l2_misses);
            });
        }
        for r in &self.remarks {
            each("remark", &|f| remark_fields(f, r));
        }
        let h = &self.heap;
        each("heap", &|f| {
            f.count("sites", h.sites.len() as u64);
            f.count("live_bytes", h.live_bytes);
            f.count("peak_live_bytes", h.peak_live_bytes);
            f.count("leaked_allocs", h.leaked_allocs());
            f.count("leaked_bytes", h.leaked_bytes());
        });
        for s in &h.sites {
            each("heap_site", &|f| {
                site_fields(f, &s.site);
                f.count("count", s.count);
                f.count("bytes", s.bytes);
                f.count("peak_bytes", s.peak_bytes);
                f.count("live_count", s.live_count);
                f.count("live_bytes", s.live_bytes);
            });
        }
        for p in &h.timeline {
            each("heap_timeline", &|f| {
                f.count("seq", p.seq);
                f.count("live_bytes", p.live_bytes);
            });
        }
        for s in h.leaks() {
            each("leak", &|f| {
                site_fields(f, &s.site);
                f.count("count", s.live_count);
                f.count("bytes", s.live_bytes);
            });
        }
        for (stack, n) in &self.samples.stacks {
            each("sample", &|f| {
                f.str("stack", stack);
                f.count("count", *n);
            });
        }
        for (si, s) in self.parallel.sites.iter().enumerate() {
            let (min, median, max) = s.chunk_instruction_spread();
            each("par_site", &|f| {
                f.count("site", si as u64);
                site_fields(f, &s.site);
                f.str("kernel", &s.kernel);
                f.count("threads", s.threads);
                f.count("invocations", s.invocations);
                f.count("chunks", s.chunks.len() as u64);
                f.count("iterations", s.iterations);
                f.count("instructions", s.total_instructions());
                f.count("min", min);
                f.count("median", median);
                f.count("max", max);
                f.ratio("imbalance", s.imbalance());
                f.ratio("efficiency", s.efficiency());
                f.count("critical_chunk", s.critical_chunk().map_or(0, |c| c.chunk));
                f.ratio("serial_fraction", s.serial_fraction(total));
            });
            for c in &s.chunks {
                each("par_chunk", &|f| chunk_fields(f, si, c));
            }
            for w in s.worker_loads() {
                each("par_worker", &|f| {
                    f.count("site", si as u64);
                    f.count("worker", w.worker);
                    f.count("chunks", w.chunks);
                    f.count("instructions", w.instructions);
                });
            }
        }
    }

    /// Serializes the profile as one deterministic JSONL stream: each
    /// record of [`Profile::records`] as an object whose first member is
    /// its `type`, then a newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.records(|ty, fields| {
            Json::object(&mut out, |o| fields(o.str("type", ty)));
            out.push('\n');
        });
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
                depth: 0,
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
