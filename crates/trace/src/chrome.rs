//! Chrome trace-event JSON export (`chrome://tracing`, Perfetto, Speedscope).
//!
//! Emits the object form of the trace-event format: a `traceEvents` array of
//! complete (`"ph":"X"`) spans — one per staging/execution span — plus
//! instant, counter and worker-track events. The deterministic counters are
//! the JSONL stream's and the text report's; a remark's or a chunk's `args`
//! are its `remark`/`par_chunk` record fields.

use crate::events::{chunk_fields, remark_fields, Fields};
use crate::json::Json;
use crate::{Profile, Stage};
use std::collections::HashMap;

/// Opens a trace event: name (the parts joined), category (if any), phase.
fn event<'a, 'j>(e: &'a mut Json<'j>, name: &[&str], cat: &str, ph: &str) -> &'a mut Json<'j> {
    e.strs("name", name);
    if !cat.is_empty() {
        e.str("cat", cat);
    }
    e.str("ph", ph)
}

/// The track an event sits on.
fn track<'a, 'j>(e: &'a mut Json<'j>, pid: u32, tid: u64) -> &'a mut Json<'j> {
    e.raw("pid", pid).raw("tid", tid)
}

impl Profile {
    /// Serializes the profile as Chrome trace-event JSON.
    ///
    /// The result is a single JSON object with a `traceEvents` array (one
    /// complete event per span, microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        Json::object(&mut out, |top| {
            top.array_in("traceEvents", |events| self.chrome_events(events))
                .str("displayTimeUnit", "ms");
        });
        out
    }

    fn chrome_events(&self, events: &mut Json) {
        for e in &self.events {
            let label = e.stage.label();
            events.element(|ev| {
                event(ev, &[label, ": ", &e.name], label, "X")
                    .raw("ts", e.start_us)
                    .raw("dur", e.dur_us);
                track(ev, 1, 1);
            });
        }
        // Remarks become instant events pinned to the start of the optimize
        // span of the pass that emitted them, so they line up with the work
        // they explain in the timeline view. A pass's span is named
        // `func:pass`; the first one of each name is the one a remark joins.
        let mut optimize_starts = HashMap::new();
        for e in self.events.iter().filter(|e| e.stage == Stage::Optimize) {
            if let Some(key) = e.name.rsplit_once(':') {
                optimize_starts.entry(key).or_insert(e.start_us);
            }
        }
        for r in &self.remarks {
            let start = optimize_starts.get(&(&*r.site.func, r.pass));
            events.element(|ev| {
                event(ev, &["remark: ", r.pass, " ", r.kind], "remark", "i")
                    .str("s", "t")
                    .raw("ts", start.copied().unwrap_or(0));
                track(ev, 1, 1).object_in("args", |args| remark_fields(args, r));
            });
        }
        // Counter-stream sample for the simulated cache hierarchy, placed at
        // the end of the timeline (counts are totals, not a time series).
        let ends = self.events.iter().map(|e| e.start_us + e.dur_us);
        let end_ts = ends.max().unwrap_or(0);
        if self.cache.total_accesses() > 0 {
            events.element(|ev| {
                event(ev, &["cache misses"], "", "C").raw("ts", end_ts);
                track(ev, 1, 1).object_in("args", |args| {
                    args.raw("l1_misses", self.cache.l1.misses)
                        .raw("l2_misses", self.cache.l2.misses);
                });
            });
        }
        // The heap high-water timeline becomes a counter series. Its x-axis
        // is the (deterministic) allocation sequence number, offset past the
        // wall-clock spans so the series renders after them.
        for p in &self.heap.timeline {
            events.element(|ev| {
                event(ev, &["heap live bytes"], "", "C").raw("ts", end_ts + p.seq);
                track(ev, 1, 1).object_in("args", |args| {
                    args.raw("live_bytes", p.live_bytes);
                });
            });
        }
        // Parallel regions render under a second process: one track per
        // worker (tid = worker index) with a duty slice per chunk, a
        // thread-name metadata event per worker, and a "parallel
        // efficiency" counter per site. Chunk slices carry wall-clock, so
        // this part of the export (like the span timeline) is not
        // byte-reproducible — the deterministic view is `to_jsonl()`.
        let sites = &self.parallel.sites;
        let mut workers: Vec<u64> = sites
            .iter()
            .flat_map(|s| &s.chunks)
            .map(|c| c.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        for w in workers {
            events.element(|ev| {
                track(event(ev, &["thread_name"], "", "M"), 2, w).object_in("args", |args| {
                    args.str("name", &format!("worker {w}"));
                });
            });
        }
        for (si, s) in sites.iter().enumerate() {
            for c in &s.chunks {
                let name = format!(
                    "{} chunk {} iters {}..{}",
                    s.kernel, c.chunk, c.start, c.end
                );
                events.element(|ev| {
                    event(ev, &[&name], "parallel", "X")
                        .raw("ts", c.start_us)
                        .raw("dur", c.dur_us.max(1));
                    track(ev, 2, c.worker).object_in("args", |args| chunk_fields(args, si, c));
                });
            }
            if let Some(site_ts) = s.chunks.iter().map(|c| c.start_us).min() {
                events.element(|ev| {
                    event(ev, &["parallel efficiency"], "", "C").raw("ts", site_ts);
                    track(ev, 2, 0).object_in("args", |args| args.ratio(&s.kernel, s.efficiency()));
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CacheLevelStats, Profile, SpanEvent, Stage};

    #[test]
    fn json_has_trace_events_and_balanced_braces() {
        let p = Profile {
            events: vec![SpanEvent {
                stage: Stage::Parse,
                name: "chu\"nk".into(),
                start_us: 1,
                dur_us: 2,
            }],
            ops: vec![("add.i".into(), 3)],
            ..Profile::default()
        };
        let j = p.to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\\\"nk"), "quote must be escaped: {j}");
        // No cache activity: no counter event in the stream.
        assert!(!j.contains("\"ph\":\"C\""), "{j}");
        let open = j.matches(['{', '[']).count();
        let close = j.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced brackets in {j}");
    }

    #[test]
    fn cache_activity_emits_counter_event() {
        let mut p = Profile {
            events: vec![SpanEvent {
                stage: Stage::Execute,
                name: "f".into(),
                start_us: 0,
                dur_us: 5,
            }],
            ..Profile::default()
        };
        p.cache.l1 = CacheLevelStats {
            hits: 9,
            misses: 1,
            evictions: 0,
        };
        let j = p.to_chrome_json();
        assert!(j.contains("\"ph\":\"C\""), "{j}");
        assert!(j.contains("\"l1_misses\":1"), "{j}");
        let open = j.matches(['{', '[']).count();
        let close = j.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced brackets in {j}");
    }

    #[test]
    fn names_with_backslashes_and_control_chars_escape_cleanly() {
        let p = Profile {
            events: vec![SpanEvent {
                stage: Stage::Execute,
                name: "path\\to\u{1}\n\"fn\"\tx".into(),
                start_us: 0,
                dur_us: 1,
            }],
            remarks: vec![crate::Remark {
                site: crate::Site::new("f\\\"g\n", 1, None),
                ..remark("inline", "weird\\op\"")
            }],
            ..Profile::default()
        };
        let j = p.to_chrome_json();
        assert!(j.contains("path\\\\to\\u0001\\n\\\"fn\\\"\\tx"), "{j}");
        assert!(j.contains("weird\\\\op\\\""), "{j}");
        assert!(j.contains("f\\\\\\\"g\\n"), "{j}");
        // Escaped output must not leave raw control bytes or lone quotes
        // inside string literals: the whole thing stays balanced.
        assert!(!j.contains('\u{1}'), "raw control byte leaked: {j:?}");
        let open = j.matches(['{', '[']).count();
        let close = j.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced brackets in {j}");
    }

    #[test]
    fn parallel_sites_emit_worker_tracks_and_efficiency_counter() {
        let mut p = Profile {
            events: vec![SpanEvent {
                stage: Stage::Execute,
                name: "run".into(),
                start_us: 0,
                dur_us: 50,
            }],
            ..Profile::default()
        };
        let mut stats = crate::ParallelStats::default();
        stats.record(
            crate::Site::new("run", 4, None),
            "run$par0",
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
                    start_us: 3,
                    dur_us: 9,
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
                    start_us: 4,
                    dur_us: 0,
                },
            ],
        );
        p.parallel = stats;
        let j = p.to_chrome_json();
        // One named track per worker under the parallel pseudo-process.
        assert!(j.contains("\"ph\":\"M\""), "{j}");
        assert!(j.contains("\"name\":\"worker 0\""), "{j}");
        assert!(j.contains("\"name\":\"worker 1\""), "{j}");
        // Duty slices land on their worker's track with the chunk range.
        assert!(
            j.contains("\"name\":\"run$par0 chunk 0 iters 0..4\""),
            "{j}"
        );
        assert!(j.contains("\"pid\":2,\"tid\":1"), "{j}");
        // Zero-duration chunks are widened to 1 µs so they stay visible.
        assert!(j.contains("\"dur\":1"), "{j}");
        // The efficiency counter track carries the per-site figure.
        assert!(j.contains("\"name\":\"parallel efficiency\""), "{j}");
        assert!(j.contains("\"run$par0\":0.6667"), "{j}");
        let open = j.matches(['{', '[']).count();
        let close = j.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced brackets in {j}");
    }

    fn remark(pass: &'static str, msg: &str) -> crate::Remark {
        crate::Remark {
            pass,
            kind: "applied",
            site: crate::Site::new("gemm", 7, Some("via quote at line 41")),
            message: msg.into(),
        }
    }

    #[test]
    fn remarks_become_instant_events_on_their_optimize_span() {
        let p = Profile {
            events: vec![SpanEvent {
                stage: Stage::Optimize,
                name: "gemm:licm".into(),
                start_us: 123,
                dur_us: 4,
            }],
            remarks: vec![remark("licm", "hoisted loop-invariant expression")],
            ..Profile::default()
        };
        let j = p.to_chrome_json();
        assert!(j.contains("\"name\":\"remark: licm applied\""), "{j}");
        assert!(j.contains("\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"ts\":123"), "{j}");
        assert!(j.contains("\"provenance\":\"via quote at line 41\""), "{j}");
        let open = j.matches(['{', '[']).count();
        let close = j.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced brackets in {j}");
    }

    #[test]
    fn remarks_json_is_deterministic_and_escaped() {
        // A remark's Chrome `args` are its `remark` record fields.
        let p = Profile {
            remarks: vec![remark("inline", "inlined 'f\"g\\h'")],
            ..Profile::default()
        };
        let j = p.to_chrome_json();
        assert_eq!(j, p.to_chrome_json());
        assert!(
            j.contains(
                "\"args\":{\"pass\":\"inline\",\"kind\":\"applied\",\"func\":\"gemm\",\"line\":7,"
            ),
            "{j}"
        );
        assert!(j.contains("inlined 'f\\\"g\\\\h'"), "{j}");
    }
}
