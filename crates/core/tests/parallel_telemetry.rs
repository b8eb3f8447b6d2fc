//! Integration tests for the parallel-execution telemetry: the
//! `== parallel ==` profile section, the `par_*` JSONL records, the
//! Chrome worker tracks, the Lua `perf.counters().par_site` rows, and the
//! `--threads=0` (host core count) contract shared by the API and CLI.

use terra_core::Terra;

/// A script with two distinct `par.for` sites (fill + blur), matching
/// the shape of `examples/parfill.t` but small enough for unit tests.
const SCRIPT: &str = r#"
    local C = terralib.includec("stdlib.h")
    terra fill(n : int, buf : &double)
        parallelfor i = 0, n do
            buf[i] = i * 0.5
        end
    end
    terra run(n : int) : double
        var buf = [&double](C.malloc(n * 8))
        fill(n, buf)
        var s : double = 0.0
        for i = 0, n do
            s = s + buf[i]
        end
        C.free(buf)
        return s
    end
    result = run(1000)
"#;

fn profiled_run(threads: usize) -> (Terra, terra_core::Profile) {
    let mut t = Terra::new();
    t.set_threads(threads);
    t.set_profile(true);
    t.exec(SCRIPT).unwrap();
    let p = t.profile();
    (t, p)
}

#[test]
fn chunk_totals_sum_to_the_kernel_function_counter() {
    let (t, p) = profiled_run(4);
    let stats = t.parallel_stats();
    assert_eq!(stats.sites.len(), 1);
    let site = &stats.sites[0];
    assert_eq!(&*site.site.func, "fill");
    assert!(
        site.kernel.starts_with("fill$par"),
        "kernel = {}",
        site.kernel
    );
    // The per-chunk shards are a decomposition of the kernel's merged
    // inclusive counter, not an approximation of it.
    let kernel = p.func(&site.kernel).expect("kernel function profiled");
    assert_eq!(site.total_instructions(), kernel.counters.inclusive);
    let chunk_sum: u64 = site.chunks.iter().map(|c| c.instructions).sum();
    assert_eq!(chunk_sum, kernel.counters.inclusive);
}

#[test]
fn per_chunk_metrics_are_thread_invariant() {
    let (t1, _) = profiled_run(1);
    let (t4, _) = profiled_run(4);
    let (s1, s4) = (&t1.parallel_stats().sites[0], &t4.parallel_stats().sites[0]);
    assert_eq!(s1.chunks.len(), s4.chunks.len());
    for (a, b) in s1.chunks.iter().zip(&s4.chunks) {
        assert_eq!((a.chunk, a.start, a.end), (b.chunk, b.start, b.end));
        assert_eq!(a.instructions, b.instructions);
        assert_eq!((a.loads, a.stores), (b.loads, b.stores));
        assert_eq!((a.l1_misses, a.l2_misses), (b.l1_misses, b.l2_misses));
    }
    // Only the schedule-dependent fields may differ.
    assert_eq!(s1.threads, 1);
    assert_eq!(s4.threads, 4);
    assert_eq!(s1.imbalance(), s4.imbalance());
    assert_eq!(s1.chunk_instruction_spread(), s4.chunk_instruction_spread());
}

#[test]
fn parallel_report_section_is_deterministic_and_thread_invariant() {
    let (_, p1) = profiled_run(1);
    let (_, p4a) = profiled_run(4);
    let (_, p4b) = profiled_run(4);
    let (r1, r4a, r4b) = (
        p1.render_parallel(),
        p4a.render_parallel(),
        p4b.render_parallel(),
    );
    assert_eq!(r4a, r4b, "== parallel == must be byte-stable across runs");
    assert_eq!(r1, r4a, "== parallel == must not depend on --threads");
    assert!(r4a.contains("== parallel == (1 site(s))"), "{r4a}");
    assert!(r4a.contains("imbalance"), "{r4a}");
    // The full deterministic counter region is thread-invariant too.
    assert_eq!(p1.render_counters(), p4a.render_counters());
}

#[test]
fn set_threads_zero_matches_host_core_count() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let mut t = Terra::new();
    t.set_threads(0);
    t.set_profile(true);
    t.exec(SCRIPT).unwrap();
    assert_eq!(t.parallel_stats().sites[0].threads, host);
}

#[test]
fn perf_parallel_is_lua_visible() {
    let mut t = Terra::new();
    t.set_profile(true);
    t.exec(SCRIPT).unwrap();
    t.exec(
        r#"
        local c = perf.counters()
        assert(#c.par_site == 1)
        local s = c.par_site[1]
        assert(s.func == "fill")
        assert(s.chunks == 32)
        assert(#c.par_chunk == 32)
        assert(s.iterations == 1000)
        assert(s.instructions > 0)
        assert(s.min <= s.median)
        assert(s.median <= s.max)
        assert(s.imbalance >= 1.0)
        assert(s.efficiency > 0.0 and s.efficiency <= 1.0)
        assert(s.serial_fraction >= 0.0 and s.serial_fraction <= 1.0)
        assert(s.critical_chunk >= 0 and s.critical_chunk < s.chunks)
        "#,
    )
    .unwrap();
}

#[test]
fn perf_parallel_requires_profiling() {
    let mut t = Terra::new();
    let err = t.exec("return perf.counters().par_site").unwrap_err();
    assert!(
        err.to_string().contains("profiling not enabled"),
        "got: {err}"
    );
}

// ---------------------------------------------------------------------------
// CLI driver (golden runs over examples/parfill.t)
// ---------------------------------------------------------------------------

mod cli {
    use std::process::Command;

    const PARFILL: &str = "../../examples/parfill.t";

    fn terra() -> Command {
        Command::new(env!("CARGO_BIN_EXE_terra"))
    }

    /// Everything from `== function profile ==` onward is the deterministic
    /// counter region (the staging timeline above it is wall-clock).
    fn counter_region(stderr: &str) -> &str {
        let at = stderr
            .find("== function profile ==")
            .expect("profile report present");
        &stderr[at..]
    }

    fn profiled(threads: &str) -> String {
        let out = terra()
            .args(["--profile", threads, PARFILL])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stderr).into_owned()
    }

    #[test]
    fn parallel_section_is_byte_identical_across_runs() {
        let a = profiled("--threads=4");
        let b = profiled("--threads=4");
        assert!(a.contains("== parallel =="), "got: {a}");
        assert!(a.contains("imbalance"), "got: {a}");
        assert!(a.contains("serial fraction"), "got: {a}");
        assert_eq!(counter_region(&a), counter_region(&b));
    }

    #[test]
    fn counter_region_does_not_depend_on_thread_count() {
        let one = profiled("--threads=1");
        let four = profiled("--threads=4");
        assert_eq!(counter_region(&one), counter_region(&four));
    }

    #[test]
    fn threads_zero_resolves_to_host_cores() {
        // The CLI accepts --threads=0 and the recorded telemetry agrees
        // with the library API's resolution of 0 (host core count).
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let path =
            std::env::temp_dir().join(format!("terra-par-threads0-{}.jsonl", std::process::id()));
        let out = terra()
            .args([
                "--threads=0",
                "--trace-out",
                path.to_str().unwrap(),
                PARFILL,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let events = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let needle = format!("\"threads\":{host}");
        assert!(
            events.contains(&needle),
            "par_site records threads={host}: {events}"
        );
    }

    #[test]
    fn events_out_carries_par_records_and_is_stable() {
        let run = |tag: &str| {
            let path = std::env::temp_dir().join(format!(
                "terra-par-events-{}-{tag}.jsonl",
                std::process::id()
            ));
            let out = terra()
                .args([
                    "--threads=4",
                    "--trace-out",
                    path.to_str().unwrap(),
                    PARFILL,
                ])
                .output()
                .unwrap();
            assert!(out.status.success());
            let events = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            events
        };
        let a = run("a");
        for kind in ["par_site", "par_chunk", "par_worker"] {
            assert!(
                a.contains(&format!("\"type\":\"{kind}\"")),
                "missing {kind}: {a}"
            );
        }
        assert_eq!(a, run("b"), "par_* records must be byte-stable");
    }

    #[test]
    fn trace_out_has_worker_tracks_and_efficiency_counter() {
        let path =
            std::env::temp_dir().join(format!("terra-par-chrome-{}.json", std::process::id()));
        let out = terra()
            .args([
                "--profile",
                "--threads=4",
                "--trace-out",
                path.to_str().unwrap(),
                PARFILL,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(trace.contains("\"worker 0\""), "got: {trace}");
        assert!(trace.contains("\"worker 3\""), "got: {trace}");
        assert!(trace.contains("parallel efficiency"), "got: {trace}");
        assert!(trace.contains("\"cat\":\"parallel\""), "got: {trace}");
    }
}
