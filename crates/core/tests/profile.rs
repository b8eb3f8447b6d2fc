//! Integration tests for the observability subsystem: deterministic
//! counters, the profile report, Chrome trace export, the Lua-visible
//! `perf` table, and the CLI flags.

use terra_core::Terra;

const SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    terra kernel(n : int) : double
        var buf = [&double](C.malloc(n * 8))
        var s : double = 0.0
        for i = 0, n do
            buf[i] = i
        end
        for i = 0, n do
            s = s + buf[i]
        end
        C.free(buf)
        return s
    end
    result = kernel(100)
"#;

fn profiled_run() -> (Terra, terra_core::Profile) {
    let mut t = Terra::new();
    t.set_profile(true);
    t.exec(SCRIPT).unwrap();
    let p = t.profile();
    (t, p)
}

#[test]
fn counters_are_nonzero_and_structured() {
    let (_t, p) = profiled_run();
    assert!(p.total_instructions() > 0);
    assert!(p.op_count("load.f64") >= 100);
    assert!(p.op_count("store.f64") >= 100);
    let f = p.func("kernel").expect("kernel profiled");
    assert_eq!(f.counters.calls, 1);
    assert!(f.counters.inclusive >= f.counters.exclusive);
    assert_eq!(p.mem.mallocs, 1);
    assert_eq!(p.mem.frees, 1);
    // The allocator rounds requests up to a size class, so peak live bytes
    // is at least the requested 100 doubles.
    assert!(p.mem.peak_live_bytes >= 800);
    assert!(p.mem.total_loads() >= 100);
    assert!(p.mem.total_stores() >= 100);
}

#[test]
fn staging_timeline_covers_the_pipeline() {
    let (_t, p) = profiled_run();
    let stages: Vec<&str> = p.events.iter().map(|e| e.stage.label()).collect();
    for want in [
        "parse",
        "specialize",
        "typecheck",
        "analyze",
        "compile",
        "execute",
    ] {
        assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
    }
}

#[test]
fn counters_are_deterministic_across_runs() {
    let (_t1, p1) = profiled_run();
    let (_t2, p2) = profiled_run();
    assert_eq!(p1.render_counters(), p2.render_counters());
    assert_eq!(p1.total_instructions(), p2.total_instructions());
}

#[test]
fn report_is_golden() {
    let (_t, p) = profiled_run();
    let report = p.render_counters();
    assert!(report.contains("== function profile =="));
    assert!(report.contains("== opcode counters =="));
    assert!(report.contains("== memory counters =="));
    assert!(report.contains("kernel"));
    assert!(report.contains("mallocs 1  frees 1"));
    // The full report adds the wall-clock timeline on top.
    let full = p.render_report();
    assert!(full.contains("== staging timeline =="));
    assert!(full.ends_with(&report));
}

#[test]
fn disabled_profile_collects_nothing() {
    let mut t = Terra::new();
    t.exec(SCRIPT).unwrap();
    let p = t.profile();
    assert_eq!(p.total_instructions(), 0);
    assert!(p.events.is_empty());
    assert!(p.funcs.is_empty());
    assert_eq!(p.mem.mallocs, 0);
    assert_eq!(p.mem.total_loads(), 0);
}

#[test]
fn reset_clears_counters() {
    let (mut t, p) = profiled_run();
    assert!(p.total_instructions() > 0);
    t.reset_profile();
    let p2 = t.profile();
    assert_eq!(p2.total_instructions(), 0);
    assert_eq!(p2.mem.mallocs, 0);
    // Still enabled: new work is counted again.
    t.exec("result2 = kernel(10)").unwrap();
    assert!(t.profile().total_instructions() > 0);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// A minimal JSON validator (no serde in-tree): checks the exported trace
/// parses as a single well-formed JSON value.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at byte {i}")),
        }
    }

    fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
        if b[*i..].starts_with(lit.as_bytes()) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *i += 1;
        }
        if *i == start {
            return Err(format!("empty number at byte {start}"));
        }
        Ok(())
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        debug_assert_eq!(b[*i], b'"');
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => *i += 2,
                c if c < 0x20 => return Err(format!("raw control char at byte {i}")),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1;
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at byte {i}"));
            }
            *i += 1;
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    /// The members of one flat JSONL record, in order: each key with its
    /// value as written.
    pub fn members(line: &str) -> Vec<(String, String)> {
        let b = line.as_bytes();
        let (mut out, mut i) = (Vec::new(), 1);
        while i < b.len() - 1 {
            let key_end = past_string(b, i);
            let start = key_end + 1;
            let (mut j, mut depth) = (start, 0);
            while depth > 0 || !matches!(b[j], b',' | b'}') {
                match b[j] {
                    b'"' => j = past_string(b, j) - 1,
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            out.push((
                line[i + 1..key_end - 1].to_string(),
                line[start..j].to_string(),
            ));
            i = j + 1;
        }
        out
    }

    /// The index just past the string literal that opens at `b[i]`.
    fn past_string(b: &[u8], mut i: usize) -> usize {
        i += 1;
        while b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    }

    /// A string literal's text.
    pub fn unescape(literal: &str) -> String {
        let mut out = String::new();
        let mut chars = literal[1..literal.len() - 1].chars();
        while let Some(c) = chars.next() {
            out.push(match (c, c == '\\') {
                (_, false) => c,
                _ => match chars.next().unwrap() {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap()
                    }
                    escaped => escaped,
                },
            });
        }
        out
    }

    fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1;
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(());
        }
        loop {
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }
}

#[test]
fn chrome_trace_is_well_formed() {
    let (_t, p) = profiled_run();
    let trace = p.to_chrome_json();
    json::validate(&trace).expect("exported trace is valid JSON");
    assert!(trace.starts_with(r#"{"traceEvents":["#));
    assert!(trace.contains(r#""ph":"X""#));
    assert!(trace.contains(r#""cat":"execute""#));
    assert!(trace.contains("kernel"));
}

#[test]
fn chrome_trace_escapes_names() {
    let mut t = Terra::new();
    t.set_profile(true);
    // Anonymous functions get quoted names with no JSON hazards, but a
    // struct method carries punctuation worth exercising.
    t.exec(
        r#"
        struct V { x : double }
        terra V:get() : double return self.x end
        terra use() : double
            var v : V
            v.x = 3.0
            return v:get()
        end
        r = use()
    "#,
    )
    .unwrap();
    let trace = t.profile().to_chrome_json();
    json::validate(&trace).expect("method names stay valid JSON");
}

// ---------------------------------------------------------------------------
// Lua-visible perf table
// ---------------------------------------------------------------------------

#[test]
fn perf_counters_visible_from_lua() {
    let mut t = Terra::new();
    t.capture_output();
    t.exec(
        r#"
        terra triple(x : int) : int return 3 * x end
        perf.enable()
        assert(perf.enabled())
        triple(14)
        local c = perf.counters()
        local function named(rows, name)
            for _, r in ipairs(rows) do
                if r.name == name then return r end
            end
        end
        assert(c.meta[1].total_instructions > 0, "instructions counted")
        assert(named(c.func, "triple").calls == 1, "per-function call count")
        assert(named(c.func, "triple").inclusive > 0)
        assert(named(c.op, "mul.i32").count == 1, "opcode counters")
        local r = perf.report()
        assert(string.find(r, "opcode counters") ~= nil, "report renders")
        perf.reset()
        assert(perf.counters().meta[1].total_instructions == 0, "reset clears")
        perf.disable()
        assert(not perf.enabled())
        print("perf ok")
    "#,
    )
    .unwrap();
    assert_eq!(t.take_output(), "perf ok\n");
}

#[test]
fn perf_counters_are_deterministic_from_lua() {
    let run = || {
        let mut t = Terra::new();
        t.exec(
            r#"
            terra work(n : int) : int
                var s = 0
                for i = 0, n do s = s + i end
                return s
            end
            perf.enable()
            work(50)
            return perf.counters().meta[1].total_instructions
        "#,
        )
        .unwrap()
        .first()
        .cloned()
        .unwrap()
    };
    assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
}

/// The `perf` rows are the JSONL records: on a program that produces every
/// record type, `perf.counters()` holds, per type, one row per record of
/// that type in emission order, with exactly the record's keys and values.
#[test]
fn perf_rows_are_the_jsonl_records() {
    use terra_core::LuaValue;
    let mut t = Terra::new();
    t.capture_output();
    t.set_profile(true);
    t.set_sample_interval(100);
    t.exec(&seam_program()).unwrap();
    let LuaValue::Table(counters) = t.exec("return perf.counters()").unwrap().remove(0) else {
        panic!("perf.counters() is not a table");
    };
    let jsonl = t.profile().to_jsonl();
    // How many entries `pairs` visits.
    let count = |t: &terra_core::Table| {
        let (mut n, mut key) = (0, LuaValue::Nil);
        while let Some((k, _)) = t.next(&key).unwrap() {
            (n, key) = (n + 1, k);
        }
        n
    };
    // A Lua value against a JSON value as written: a string, a number, or a
    // list of numbers.
    fn same(lua: &LuaValue, json: &str) -> bool {
        match lua {
            LuaValue::Str(s) => json.starts_with('"') && json::unescape(json) == **s,
            LuaValue::Number(n) => json.parse::<f64>() == Ok(*n),
            LuaValue::Table(list) => {
                let list = list.borrow();
                let items = json.strip_prefix('[').and_then(|j| j.strip_suffix(']'));
                items.is_some_and(|items| {
                    items.split(',').count() == list.len()
                        && items
                            .split(',')
                            .zip(list.iter_array())
                            .all(|(n, v)| same(v, n))
                })
            }
            _ => false,
        }
    }
    // Records seen so far, per type.
    let mut seen = std::collections::BTreeMap::new();
    for line in jsonl.lines() {
        let mut members = json::members(line);
        let ty = json::unescape(&members.remove(0).1);
        let n = seen.entry(ty.clone()).or_insert(0);
        *n += 1;
        let LuaValue::Table(rows) = counters.borrow().get_str(&ty) else {
            panic!("perf.counters() has no {ty} rows");
        };
        let LuaValue::Table(row) = rows.borrow().get(&LuaValue::Number(*n as f64)) else {
            panic!("perf.counters().{ty} has no row {n}");
        };
        let row = row.borrow();
        assert_eq!(count(&row), members.len(), "{line}");
        for (key, value) in &members {
            let lua = row.get_str(key);
            assert!(same(&lua, value), "{ty}[{n}].{key} is {lua:?}, not {value}");
        }
    }
    assert_eq!(seen.len(), 16, "every record type: {seen:?}");
    let counters = counters.borrow();
    assert_eq!(count(&counters), seen.len());
    for (ty, n) in &seen {
        let LuaValue::Table(rows) = counters.get_str(ty) else {
            unreachable!()
        };
        assert_eq!(rows.borrow().len(), *n, "{ty}");
    }
}

// ---------------------------------------------------------------------------
// Trap context
// ---------------------------------------------------------------------------

#[test]
fn memory_traps_name_the_function() {
    let mut t = Terra::new();
    t.set_sanitize(true);
    let err = t
        .exec(
            r#"
            local C = terralib.includec("stdlib.h")
            terra oops() : double
                var p = [&double](C.malloc(32))
                p[0] = 1.0
                C.free(p)
                return p[0]
            end
            oops()
        "#,
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("use-after-free"), "got: {msg}");
    assert!(msg.contains("in terra function 'oops'"), "got: {msg}");
    // The faulting load `return p[0]` sits on line 7 of the chunk; the trap
    // must carry it via the bytecode debug-info table.
    assert!(msg.contains("at line 7"), "got: {msg}");
}

#[test]
fn oob_traps_name_the_function() {
    let mut t = Terra::new();
    let err = t
        .exec(
            r#"
            terra stray() : double
                var p = [&double](0)
                return p[123456789]
            end
            stray()
        "#,
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("in terra function 'stray'"), "got: {msg}");
}

// ---------------------------------------------------------------------------
// One Site on every channel
// ---------------------------------------------------------------------------

/// One quote, written on one line and spliced once, that allocates and
/// never frees, runs a `parallelfor`, inlines a call, misses the cache and
/// divides by `z`: everything the runtime can say about it happened at the
/// same [`terra_core::Site`]. (The miss is the quote's own load: `last`'s,
/// once inlined, is located at `last`'s line, inlined at the call's.)
const SEAM_SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    terra last(p : &int, n : int) : int return p[n - 1] end
    local function body(n, z)
        return quote var p = [&int](C.malloc(n * 4)); parallelfor i = 0, n do p[i] = i end; var l = p[n - 1]; l = last(p, n); p[0] = l / z end
    end
    terra run(n : int, z : int) : int
        [body(n, z)]
        return 0
    end
"#;

/// [`SEAM_SCRIPT`] run once: it produces every telemetry record type.
fn seam_program() -> String {
    format!("{SEAM_SCRIPT} print(run(4096, 1))")
}

#[test]
fn every_channel_prints_the_same_site() {
    use terra_core::{RecMeta, Site};
    let site = Site::new("run", 5, Some("via quote at line 8"));
    let text = "run:5, generated via quote at line 8";
    assert_eq!(site.to_string(), text);

    let mut t = Terra::new();
    t.set_profile(true);
    t.exec(SEAM_SCRIPT).unwrap();
    let mut meta = RecMeta::coarse("<seam>", 2);
    meta.window = Some((0, 1));
    t.set_record(meta);
    let trap = t.exec("run(4096, 0)").unwrap_err().message.clone();
    let rec = t.take_recording().expect("recording");
    let p = t.profile();

    // The values: every located record holds the one `Site`…
    assert_eq!(p.heap.sites[0].site, site);
    assert_eq!(p.heap.leaks().next().unwrap().site, site);
    assert_eq!(p.parallel.sites[0].site, site);
    let inlined = p.remarks.iter().find(|r| r.pass == "inline").unwrap();
    assert_eq!(inlined.site, site);
    let first = rec.effects[0].site.as_ref().expect("window mode");
    assert_eq!((&first.at, &*first.op), (&site, "call.builtin"));
    // … and the text: each channel renders it with the one `Display` (a
    // remark row puts its message between place and chain; a hot line is a
    // line, summed over every splice that put code on it).
    let report = p.render_report();
    let row = |has: &str| {
        let mut rows = report.lines().filter(|l| l.contains(has));
        rows.next()
            .unwrap_or_else(|| panic!("no {has:?} row in:\n{report}"))
    };
    assert!(row("  32768  ").ends_with(&format!("  {text}")), "{report}");
    assert!(row("allocated at").ends_with(&format!("allocated at {text}")));
    assert_eq!(row("-> kernel"), format!("  {text} -> kernel run$par2"));
    assert_eq!(
        row("inlined 'last'"),
        "  inline   applied run:5                inlined 'last' (10 IR nodes) [via quote at line 8]"
    );
    assert!(row("100.0%").ends_with("  run:5"), "{report}");
    assert!(rec
        .to_text()
        .contains(" line=5 f=run prov=via quote at line 8\n"));
    assert_eq!(
        trap,
        format!("integer division by zero {}", site.sentence())
    );
    assert!(trap.ends_with("at line 5, generated via quote at line 8)"));
}

// ---------------------------------------------------------------------------
// Allocation-site heap profiler
// ---------------------------------------------------------------------------

/// Three staged-malloc buffers, one deliberately never freed; the mallocs
/// expand from a Lua quote so every site carries a provenance chain.
const LEAK_SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    local function staged_buffer(dst, n)
        return quote
            dst = [&double](C.malloc(n * 8))
            for i = 0, n do
                dst[i] = 1.0
            end
        end
    end
    terra lp(n : int) : double
        var a : &double
        var keep : &double;
        [staged_buffer(a, n)];
        [staged_buffer(keep, n)]
        var s = a[0] + keep[0]
        C.free(a)
        return s
    end
    r = lp(64)
"#;

fn leak_run() -> terra_core::Profile {
    let mut t = Terra::new();
    t.set_profile(true);
    t.exec(LEAK_SCRIPT).unwrap();
    t.profile()
}

#[test]
fn heap_sites_attribute_allocations_with_provenance() {
    let p = leak_run();
    assert_eq!(p.heap.sites.len(), 2, "two staged malloc sites");
    for s in &p.heap.sites {
        assert_eq!(&*s.site.func, "lp");
        assert_eq!(s.count, 1);
        assert!(s.bytes >= 64 * 8);
        assert!(
            s.site.fields().2.contains("via quote at line"),
            "staged malloc must carry its quote chain, got: {}",
            s.site
        );
    }
    assert_eq!(p.heap.leaked_allocs(), 1, "exactly one seeded leak");
    assert!(p.heap.leaked_bytes() >= 64 * 8);
    assert!(p.heap.peak_live_bytes >= 2 * 64 * 8);
    let leak = p.heap.leaks().next().unwrap();
    assert!(
        leak.site
            .to_string()
            .contains("generated via quote at line"),
        "leak report names the staging chain, got: {}",
        leak.site
    );
}

#[test]
fn freed_allocations_do_not_leak() {
    let (_t, p) = profiled_run();
    assert_eq!(p.heap.sites.len(), 1, "one malloc site in SCRIPT");
    assert_eq!(p.heap.leaked_allocs(), 0);
    assert_eq!(p.heap.leaked_bytes(), 0);
    assert_eq!(p.heap.live_bytes, 0);
    assert!(p.heap.peak_live_bytes >= 800);
}

#[test]
fn heap_profile_is_deterministic() {
    let (a, b) = (leak_run(), leak_run());
    assert_eq!(a.render_heap(), b.render_heap());
    assert_eq!(a.heap.timeline, b.heap.timeline);
}

/// Every way a heap block or a host access arises under `--profile`:
/// `malloc`, a `realloc` that fits and one that moves, `free`, a leaked
/// block, Lua's `C.malloc`/`C.free`, a string constant, a Lua global `:set`
/// and a 2-chunk `parallelfor`.
const HEAP_EVENTS_SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    scale = global(int, 0)
    terra churn(n : int) : int
        var a = [&int](C.malloc(64))
        a = [&int](C.realloc(a, 40))
        a = [&int](C.realloc(a, 4096))
        var kept = [&int](C.malloc(n * 4))
        for i = 0, n do
            kept[i] = i
        end
        a[0] = kept[n - 1]
        C.printf("churn %d\n", a[0])
        var r = a[0]
        C.free(a)
        return r
    end
    terra fill(p : &int)
        parallelfor i = 0, 2 do
            p[i] = i * scale
        end
    end
    local p = C.malloc(64)
    scale:set(3)
    churn(16)
    fill(p)
    C.free(p)
"#;

/// The whole deterministic surface of one profiled run of
/// `HEAP_EVENTS_SCRIPT`: every counter, heap row and JSONL record.
#[test]
fn heap_events_profile_is_golden() {
    let mut t = Terra::new();
    t.capture_output();
    t.set_profile(true);
    t.exec(HEAP_EVENTS_SCRIPT).unwrap();
    assert_eq!(t.take_output(), "churn 15\n");
    let p = t.profile();
    assert_eq!(p.render_counters(), include_str!("golden/heap_events.txt"));
    assert_eq!(p.to_jsonl(), include_str!("golden/heap_events.jsonl"));
}

/// Host accesses are not Terra traffic: writing an array from Rust and
/// setting a Lua-visible global while profiling leave the memory counters
/// and the simulated cache where they were.
#[test]
fn host_accesses_are_not_counted() {
    let mut t = Terra::new();
    t.set_profile(true);
    t.exec("g = global(double, 0)").unwrap();
    let buf = t.malloc(64);
    let before = t.profile();
    t.write_f64s(buf, &[1.0; 8]);
    t.exec("g:set(2.5) assert(g:get() == 2.5)").unwrap();
    assert_eq!(t.read_f64s(buf, 1), [1.0]);
    let after = t.profile();
    assert_eq!(after.mem, before.mem);
    assert_eq!(after.cache, before.cache);
}

#[test]
fn heap_report_renders_the_leak() {
    let report = leak_run().render_counters();
    assert!(report.contains("== heap =="), "got: {report}");
    assert!(report.contains("leaked allocations"), "got: {report}");
    assert!(report.contains("via quote at line"), "got: {report}");
    assert!(report.contains("high-water timeline"), "got: {report}");
}

#[test]
fn perf_counters_exposes_heap_from_lua() {
    let mut t = Terra::new();
    t.capture_output();
    t.set_profile(true);
    t.exec(LEAK_SCRIPT).unwrap();
    t.exec(
        r#"
        local h = perf.counters().heap[1]
        assert(h.sites == 2, "site count")
        assert(h.leaked_allocs == 1, "leak count")
        assert(h.leaked_bytes >= 512, "leak size")
        assert(h.peak_live_bytes >= 1024, "peak")
        print("heap ok")
    "#,
    )
    .unwrap();
    assert_eq!(t.take_output(), "heap ok\n");
}

// ---------------------------------------------------------------------------
// Deterministic sampling profiler
// ---------------------------------------------------------------------------

/// GEMM with a non-inlined (-O0) inner-product helper: the helper burns most
/// of the instructions, the outer kernel contains every sample.
const GEMM_SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    terra dotk(A : &double, B : &double, i : int, j : int, N : int) : double
        var s = 0.0
        for k = 0, N do
            s = s + A[i * N + k] * B[k * N + j]
        end
        return s
    end
    terra gemm(N : int) : double
        var A = [&double](C.malloc(N * N * 8))
        var B = [&double](C.malloc(N * N * 8))
        var D = [&double](C.malloc(N * N * 8))
        for i = 0, N * N do
            A[i] = 1.0
            B[i] = 2.0
        end
        for i = 0, N do
            for j = 0, N do
                D[i * N + j] = dotk(A, B, i, j, N)
            end
        end
        var r = D[0]
        C.free(A)
        C.free(B)
        C.free(D)
        return r
    end
    g = gemm(16)
"#;

fn sampled_gemm(interval: u64) -> terra_core::Profile {
    let mut t = Terra::new();
    t.set_opt_level(terra_core::OptLevel::O0);
    t.set_profile(true);
    t.set_sample_interval(interval);
    t.exec(GEMM_SCRIPT).unwrap();
    t.profile()
}

#[test]
fn sampled_ranking_agrees_with_the_exact_profiler_on_gemm() {
    let p = sampled_gemm(100);
    // Exact ranking: functions by inclusive retired instructions.
    let mut exact: Vec<_> = p.funcs.iter().collect();
    exact.sort_by_key(|f| std::cmp::Reverse(f.counters.inclusive));
    let sampled = p.samples.top_functions();
    assert!(p.samples.total > 0, "sampler collected nothing");
    assert_eq!(
        exact[0].name, sampled[0].name,
        "sampled hot function must match the exact profiler's top function"
    );
    // The helper leads the leaf (exclusive) ranking in both views.
    let exact_leaf = exact
        .iter()
        .max_by_key(|f| f.counters.exclusive)
        .unwrap()
        .name
        .clone();
    let sampled_leaf = sampled.iter().max_by_key(|r| r.leaf).unwrap().name.clone();
    assert_eq!(exact_leaf, sampled_leaf);
    assert_eq!(exact_leaf, "dotk");
}

#[test]
fn sampling_is_deterministic_and_independent_of_exact_profiling() {
    let (a, b) = (sampled_gemm(100), sampled_gemm(100));
    assert_eq!(a.samples.stacks, b.samples.stacks);
    assert_eq!(a.render_samples(), b.render_samples());
    // Sampling alone (no exact profiling) must capture the same stacks:
    // the countdown counts retired instructions, not profiler overhead.
    let mut t = Terra::new();
    t.set_opt_level(terra_core::OptLevel::O0);
    t.set_sample_interval(100);
    t.exec(GEMM_SCRIPT).unwrap();
    assert_eq!(t.profile().samples.stacks, a.samples.stacks);
}

#[test]
fn sampled_stacks_flow_into_the_folded_export() {
    let p = sampled_gemm(100);
    let folded = p.to_folded();
    assert!(folded.contains("gemm;dotk"), "got: {folded}");
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("weight field");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().is_ok(), "bad weight: {line:?}");
    }
}

// ---------------------------------------------------------------------------
// Unified JSONL event stream
// ---------------------------------------------------------------------------

#[test]
fn jsonl_stream_is_valid_per_line_and_byte_stable() {
    let run = || {
        let mut t = Terra::new();
        t.set_profile(true);
        t.set_sample_interval(100);
        t.exec(LEAK_SCRIPT).unwrap();
        t.profile().to_jsonl()
    };
    let stream = run();
    assert_eq!(stream, run(), "event stream must be byte-identical");
    for line in stream.lines() {
        json::validate(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
    }
    for ty in [
        "meta",
        "span",
        "op",
        "func",
        "mem",
        "heap_site",
        "leak",
        "sample",
    ] {
        assert!(
            stream.contains(&format!("\"type\":\"{ty}\"")),
            "missing record type {ty}"
        );
    }
    assert!(
        !stream.contains("\"ts\":") && !stream.contains("\"dur\":") && !stream.contains("_us\":"),
        "JSONL stream must not leak wall-clock fields"
    );
}

// ---------------------------------------------------------------------------
// perf with profiling disabled
// ---------------------------------------------------------------------------

#[test]
fn perf_counters_without_profiling_is_a_structured_error() {
    let mut t = Terra::new();
    let err = t.exec("perf.counters()").unwrap_err();
    assert_eq!(
        err.to_string(),
        "runtime error: perf.counters: profiling not enabled \
         (call perf.enable() or run with --profile)"
    );
    let err = t.exec("perf.report()").unwrap_err();
    assert_eq!(
        err.to_string(),
        "runtime error: perf.report: profiling not enabled \
         (call perf.enable() or run with --profile)"
    );
    // perf.enabled() and perf.remarks() stay callable either way.
    t.exec("assert(not perf.enabled()) perf.remarks()").unwrap();
}

// ---------------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------------

mod cli {
    use std::process::Command;

    fn terra() -> Command {
        Command::new(env!("CARGO_BIN_EXE_terra"))
    }

    #[test]
    fn missing_e_argument_is_an_error() {
        let out = terra().arg("-e").output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("-e requires a code argument"),
            "got: {stderr}"
        );
    }

    #[test]
    fn missing_trace_out_argument_is_an_error() {
        let out = terra().arg("--trace-out").output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--trace-out requires a file"),
            "got: {stderr}"
        );
    }

    #[test]
    fn profile_flag_prints_report() {
        let out = terra()
            .args([
                "--profile",
                "-e",
                "terra f(x : int) : int return x + 1 end print(f(1))",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout), "2\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("== staging timeline =="), "got: {stderr}");
        assert!(stderr.contains("== opcode counters =="), "got: {stderr}");
        assert!(stderr.contains("add.i"), "got: {stderr}");
    }

    #[test]
    fn trace_out_writes_valid_json() {
        let path = std::env::temp_dir().join(format!("terra-trace-{}.json", std::process::id()));
        let out = terra()
            .args([
                "--trace-out",
                path.to_str().unwrap(),
                "-e",
                "terra g() : int return 7 end print(g())",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        super::json::validate(&trace).expect("CLI-written trace is valid JSON");
        assert!(trace.contains("traceEvents"));
    }

    #[test]
    fn profile_flag_prints_locality_with_per_line_attribution() {
        let out = terra()
            .args(["--profile", "../../examples/saxpy.t"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("== locality =="), "got: {stderr}");
        assert!(stderr.contains("hot lines"), "got: {stderr}");
        // At least one hot-line row resolves to a real `func:line` site.
        let attributed = stderr.lines().any(|l| {
            l.trim_start().ends_with(|c: char| c.is_ascii_digit())
                && l.rsplit(':')
                    .next()
                    .is_some_and(|n| !n.is_empty() && n.trim().chars().all(|c| c.is_ascii_digit()))
        });
        assert!(attributed, "no per-line attribution in: {stderr}");
    }

    #[test]
    fn cache_flag_reconfigures_the_simulated_geometry() {
        let out = terra()
            .args([
                "--cache",
                "l1=16k,64,4:l2=128k,64,8",
                "-e",
                r#"
                terra fill(p : &double, n : int)
                    for i = 0, n do p[i] = i end
                end
                local C = terralib.includec("stdlib.h")
                local p = C.malloc(8192)
                fill(p, 1024)
                C.free(p)
                "#,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("16384B/64B-line/4-way"), "got: {stderr}");
        assert!(stderr.contains("131072B/64B-line/8-way"), "got: {stderr}");
    }

    #[test]
    fn bad_cache_spec_is_an_error() {
        let out = terra()
            .args(["--cache", "banana", "-e", "print(1)"])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --cache spec"), "got: {stderr}");
    }

    #[test]
    fn trace_out_folded_writes_folded_stacks() {
        let path = std::env::temp_dir().join(format!("terra-trace-{}.folded", std::process::id()));
        let out = terra()
            .args([
                "--trace-out",
                path.to_str().unwrap(),
                "../../examples/saxpy.t",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let folded = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Golden shape: every line is `stack-frames... <weight>` with an
        // integer weight, and the pipeline stages show up as frame prefixes.
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("line has a weight field");
            assert!(!stack.is_empty(), "empty stack in: {line:?}");
            weight
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("non-integer weight in: {line:?}"));
        }
        assert!(folded.contains("execute: "), "got: {folded}");
        assert!(folded.contains("typecheck: "), "got: {folded}");
        // Nested spans fold into semicolon-joined frames.
        assert!(folded.lines().any(|l| l.contains(';')), "got: {folded}");
    }

    #[test]
    fn profile_flag_prints_the_heap_section() {
        let out = terra()
            .args(["--profile", "../../examples/leak.t"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("== heap =="), "got: {stderr}");
        assert!(stderr.contains("leaked allocations"), "got: {stderr}");
        assert!(stderr.contains("via quote at line"), "got: {stderr}");
    }

    #[test]
    fn sample_flag_prints_only_the_samples_section() {
        let out = terra()
            .args(["--sample=100", "../../examples/saxpy.t"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("== samples =="), "got: {stderr}");
        assert!(stderr.contains("every 100 instructions"), "got: {stderr}");
        assert!(!stderr.contains("== opcode counters =="), "got: {stderr}");
    }

    #[test]
    fn bad_sample_interval_is_an_error() {
        for bad in ["--sample=0", "--sample=banana", "--sample="] {
            let out = terra().args([bad, "-e", "print(1)"]).output().unwrap();
            assert!(!out.status.success(), "{bad} must be rejected");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("bad --sample interval"), "got: {stderr}");
        }
    }

    #[test]
    fn events_out_writes_a_deterministic_jsonl_stream() {
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("terra-events-a-{}.jsonl", std::process::id()));
        let p2 = dir.join(format!("terra-events-b-{}.jsonl", std::process::id()));
        for p in [&p1, &p2] {
            let out = terra()
                .args([
                    "--trace-out",
                    p.to_str().unwrap(),
                    "--sample=100",
                    "../../examples/leak.t",
                ])
                .output()
                .unwrap();
            assert!(out.status.success());
        }
        let (a, b) = (
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p2).unwrap(),
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        assert_eq!(a, b, "the JSONL stream must be byte-stable across runs");
        for line in a.lines() {
            super::json::validate(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        }
        // The meta record versions the schema; consumers key off it.
        assert!(
            a.starts_with("{\"type\":\"meta\",\"version\":2"),
            "got: {a}"
        );
        assert!(a.contains("\"type\":\"leak\""), "got: {a}");
        assert!(a.contains("\"type\":\"sample\""), "got: {a}");
    }

    /// DESIGN.md §6c's record table is the schema's one statement: every
    /// record type `--trace-out x.jsonl` writes has exactly the keys, in the
    /// order, the table lists for it, on a program that produces all
    /// sixteen types.
    #[test]
    fn trace_out_jsonl_matches_the_documented_schema() {
        let design = include_str!("../../../DESIGN.md");
        let table = design
            .split_once("Records, in emission order:")
            .expect("DESIGN.md §6c introduces the record table")
            .1;
        let documented: Vec<(String, Vec<String>)> = table
            .lines()
            .skip_while(|l| !l.starts_with("|---"))
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                // A field is a backticked word outside parentheses.
                let mut names = Vec::new();
                let (mut depth, mut rest) = (0, row);
                while let Some(at) = rest.find(['(', ')', '`']) {
                    let (c, tail) = (rest.as_bytes()[at], &rest[at + 1..]);
                    rest = tail;
                    match c {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {
                            let (name, tail) = tail.split_once('`').expect("closing backtick");
                            rest = tail;
                            if depth == 0 {
                                names.push(name.to_string());
                            }
                        }
                    }
                }
                let ty = names.remove(0);
                (ty, names)
            })
            .collect();
        assert_eq!(documented.len(), 16, "{documented:?}");

        let path = std::env::temp_dir().join(format!("terra-schema-{}.jsonl", std::process::id()));
        let out = terra()
            .args(["--trace-out", path.to_str().unwrap(), "--sample=100", "-e"])
            .arg(super::seam_program())
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut emitted: Vec<(String, Vec<String>)> = Vec::new();
        for line in stream.lines() {
            let mut k: Vec<String> = super::json::members(line)
                .into_iter()
                .map(|m| m.0)
                .collect();
            assert_eq!(k.remove(0), "type", "{line}");
            let ty = line.split('"').nth(3).unwrap().to_string();
            match emitted.iter().find(|(t, _)| *t == ty) {
                Some((_, first)) => assert_eq!(&k, first, "{line}"),
                None => emitted.push((ty, k)),
            }
        }
        // First appearances come in emission order, the table's order.
        assert_eq!(emitted, documented);
    }

    #[test]
    fn trace_out_jsonl_writes_the_event_stream() {
        let path = std::env::temp_dir().join(format!("terra-trace-{}.jsonl", std::process::id()));
        let out = terra()
            .args([
                "--trace-out",
                path.to_str().unwrap(),
                "../../examples/saxpy.t",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(stream.starts_with("{\"type\":\"meta\""), "got: {stream}");
    }

    #[test]
    fn unknown_trace_extension_is_an_error() {
        let out = terra()
            .args(["--trace-out", "trace.csv", "-e", "print(1)"])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unsupported trace sink"), "got: {stderr}");
        for sink in [".json", ".folded", ".jsonl"] {
            assert!(stderr.contains(sink), "error must name {sink}: {stderr}");
        }
        assert!(
            !std::path::Path::new("trace.csv").exists(),
            "rejected sink must not be created"
        );
    }

    #[test]
    fn perf_without_profiling_reports_the_enablement_hint() {
        let out = terra().args(["-e", "perf.counters()"]).output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("profiling not enabled") && stderr.contains("perf.enable()"),
            "got: {stderr}"
        );
    }

    #[test]
    fn repl_reports_lint_diagnostics_per_chunk() {
        use std::io::Write;
        use std::process::Stdio;
        let mut child = terra()
            .arg("--lint")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(b"terra lintme() : int var dead = 4 return 1 end\nlintme()\n")
            .unwrap();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("dead") || stderr.contains("never read"),
            "REPL should surface lint warnings, got: {stderr}"
        );
    }
}
