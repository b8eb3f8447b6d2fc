//! Fixed probes: small measurements that do not depend on the workload —
//! the cost of each telemetry gate, `parallelfor` scaling, allocator and
//! process start-up cost, and the shape ratios of the paper's Figures 6, 8
//! and 9 and §6.3.1. Every traced run repeats them, so the numbers can be
//! read beside any workload's.

use crate::layers::Metrics;
use crate::spans::SpanLog;
use crate::workloads::{self, rec_meta, Generated, Scale, SAMPLE_INTERVAL};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use terra_autotune::{vendor_config, GemmSession, Precision};
use terra_classes::DispatchBench;
use terra_core::{Terra, TerraFn, Value};
use terra_layout::{HostMesh, Layout, MeshKit};
use terra_orion::{area_filter, pointwise_pipeline, ImageBuf, Pipeline, Schedule, Strategy};

/// Fastest of `reps` timings of `f`, in seconds. The probes are short, and
/// the host's speed shifts for seconds at a time; the minimum is the one
/// statistic of a few samples that a slow spell does not move.
fn fastest(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Stages `gen` in a fresh session with `threads` workers and compiles
/// `main`.
fn staged(gen: &Generated, threads: usize) -> Result<(Terra, TerraFn), String> {
    let mut t = Terra::new();
    t.capture_output();
    t.set_threads(threads);
    t.exec(&gen.defs).map_err(|e| format!("probe exec: {e}"))?;
    let main = t
        .function("main")
        .map_err(|e| format!("probe compile: {e}"))?;
    Ok((t, main))
}

fn run_main(t: &mut Terra, main: &TerraFn) {
    t.invoke(main, &[]).expect("probe kernel trapped");
    t.take_output();
}

/// Runs every probe. `seed` only picks the probe kernels' data; `cores` is
/// the host's core count and `terra` the CLI binary.
pub fn run_all(
    log: &mut SpanLog,
    seed: u64,
    cores: usize,
    terra: &Path,
    scale: Scale,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    log.time("probe.trace", |_| trace_gates(&mut m, seed, scale))
        .0?;
    log.time("probe.vm.parallel", |_| {
        parallel(&mut m, seed, cores, scale)
    })
    .0?;
    log.time("probe.vm.memory", |_| malloc_free(&mut m));
    log.time("probe.core.cli_startup", |_| cli_startup(&mut m, terra))
        .0?;
    log.time("probe.autotune", |_| autotune(&mut m, scale)).0?;
    log.time("probe.orion", |_| orion(&mut m, scale)).0?;
    log.time("probe.layout", |_| layout(&mut m, scale)).0?;
    log.time("probe.classes", |_| classes(&mut m, scale)).0?;
    Ok(m)
}

/// A probe's size: as given, or a quarter of it (at least `floor`) for
/// smoke tests.
fn sized(scale: Scale, full: usize, floor: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Quick => (full / 4).max(floor),
    }
}

/// The naive GEMM of `gemm-observed` with each telemetry gate on, over the
/// same kernel with all of them off.
fn trace_gates(m: &mut Metrics, seed: u64, scale: Scale) -> Result<(), String> {
    let gen = workloads::find("gemm-observed")
        .expect("workload exists")
        .generate(seed, scale);
    let (mut t, main) = staged(&gen, 1)?;
    let off = fastest(3, || run_main(&mut t, &main));

    t.set_profile(true);
    let profiled = fastest(3, || {
        t.reset_profile();
        run_main(&mut t, &main)
    });
    t.set_profile(false);

    t.set_sample_interval(SAMPLE_INTERVAL);
    let sampled = fastest(3, || run_main(&mut t, &main));
    t.set_sample_interval(0);

    let mut rec_bytes = 0;
    let recorded = fastest(3, || {
        t.set_record(rec_meta("probe.t"));
        run_main(&mut t, &main);
        let rec = t.take_recording().expect("recorder was started");
        rec_bytes = rec.to_text().len();
    });

    m.insert("trace.profile_ratio", (profiled / off, "ratio"));
    m.insert("trace.sample_ratio", (sampled / off, "ratio"));
    m.insert("trace.record_ratio", (recorded / off, "ratio"));
    m.insert("trace.rec_bytes", (rec_bytes as f64, "bytes"));
    Ok(())
}

/// A `parallelfor` whose 32 iterations each store one int: 32 chunks of no
/// work, so the time is chunk set-up and absorb.
const EMPTY_PARALLELFOR: &str = "
terra empty_chunks(buf : &int)
    parallelfor i = 0, 32 do
        buf[i] = i
    end
end
";

/// `stencil-par`'s program at one worker and at two; the cost of a chunk;
/// and, from a profiled run, how evenly the chunks split the work and how
/// much of the program lies outside them.
fn parallel(m: &mut Metrics, seed: u64, cores: usize, scale: Scale) -> Result<(), String> {
    let gen = workloads::find("stencil-par")
        .expect("workload exists")
        .generate(seed, scale);
    let wide = cores.clamp(1, 2);
    let (mut t1, main1) = staged(&gen, 1)?;
    let one = fastest(3, || run_main(&mut t1, &main1));
    let (mut t2, main2) = staged(&gen, wide)?;
    let two = fastest(3, || run_main(&mut t2, &main2));
    m.insert("vm.parallel.speedup_t2", (one / two, "ratio"));

    t2.set_profile(true);
    t2.reset_profile();
    run_main(&mut t2, &main2);
    let program_total = t2.profile().total_instructions();
    let site = t2
        .parallel_stats()
        .sites
        .first()
        .ok_or("the stencil ran no parallelfor")?;
    m.insert("vm.parallel.imbalance", (site.imbalance(), "ratio"));
    m.insert(
        "vm.parallel.serial_fraction",
        (site.serial_fraction(program_total), "ratio"),
    );
    t2.set_profile(false);

    t2.exec(EMPTY_PARALLELFOR)
        .map_err(|e| format!("probe exec: {e}"))?;
    let empty = t2
        .function("empty_chunks")
        .map_err(|e| format!("probe compile: {e}"))?;
    let buf = t2.malloc(32 * 4);
    const CALLS: usize = 200;
    let per_call = fastest(3, || {
        for _ in 0..CALLS {
            t2.invoke(&empty, &[Value::Ptr(buf)])
                .expect("probe kernel trapped");
        }
    }) / CALLS as f64;
    m.insert(
        "vm.parallel.chunk_overhead_us",
        (per_call * 1e6 / 32.0, "us"),
    );
    Ok(())
}

/// One `malloc(64)` and its `free` on the VM heap.
fn malloc_free(m: &mut Metrics) {
    let mut t = Terra::new();
    const PAIRS: usize = 20_000;
    let s = fastest(3, || {
        for _ in 0..PAIRS {
            let p = t.malloc(64);
            t.free(p).expect("freeing a fresh block");
        }
    });
    m.insert("vm.memory.malloc_free_ns", (s * 1e9 / PAIRS as f64, "ns"));
}

/// `terra -e ''`, spawn to exit.
fn cli_startup(m: &mut Metrics, terra: &Path) -> Result<(), String> {
    let mut failed = None;
    let s = fastest(10, || {
        let status = Command::new(terra)
            .args(["-e", ""])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status();
        if !matches!(&status, Ok(s) if s.success()) {
            failed = Some(format!("terra -e '' failed: {status:?}"));
        }
    });
    m.insert("core.cli_startup_ms", (s * 1e3, "ms"));
    failed.map_or(Ok(()), Err)
}

/// Figure 6's shape at N=128: the staged, tuned kernel and the blocked
/// kernel over the naive triple loop, and what staging one tuned kernel
/// costs.
fn autotune(m: &mut Metrics, scale: Scale) -> Result<(), String> {
    // The tuned kernel tiles by 64.
    let n = sized(scale, 128, 64);
    let prec = Precision::F64;
    let mut s = GemmSession::new().map_err(|e| format!("autotune: {e}"))?;
    let ws = s.workspace(n, prec);
    let naive = s.naive(n, prec).map_err(|e| format!("autotune: {e}"))?;
    let blocked = s
        .blocked(n, 32, prec)
        .map_err(|e| format!("autotune: {e}"))?;
    let start = Instant::now();
    let tuned = s
        .generated(n, vendor_config(prec), prec)
        .map_err(|e| format!("autotune: {e}"))?;
    let stage_ms = start.elapsed().as_secs_f64() * 1e3;
    let g_naive = s.measure_gflops(&naive, &ws, 2);
    let g_blocked = s.measure_gflops(&blocked, &ws, 2);
    let g_tuned = s.measure_gflops(&tuned, &ws, 4);
    ws.verify(&s);
    m.insert("autotune.tuned_over_naive", (g_tuned / g_naive, "ratio"));
    m.insert(
        "autotune.blocked_over_naive",
        (g_blocked / g_naive, "ratio"),
    );
    m.insert("autotune.stage_kernel_ms", (stage_ms, "ms"));
    Ok(())
}

/// Compiles `p` for a `side` x `side` image under `schedule`; returns compile
/// milliseconds and seconds per run.
fn time_pipeline(p: &Pipeline, side: usize, schedule: Schedule) -> Result<(f64, f64), String> {
    let mut t = Terra::new();
    let start = Instant::now();
    let c = p
        .compile(&mut t, side, side, schedule)
        .map_err(|e| format!("orion: {e}"))?;
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let img = ImageBuf::alloc(&mut t, &c);
    let out = ImageBuf::alloc(&mut t, &c);
    img.write(&mut t, &vec![0.5; side * side]);
    Ok((compile_ms, fastest(3, || c.run(&mut t, &[&img], &out))))
}

/// Figure 8's shape: vectorising and line-buffering the separated area
/// filter, and inlining the point-wise pipeline, each over the schedule that
/// matches hand-written C.
fn orion(m: &mut Metrics, scale: Scale) -> Result<(), String> {
    let side = sized(scale, 256, 64);
    let area = area_filter();
    let (compile_ms, base) = time_pipeline(&area, side, Schedule::match_c())?;
    let sched = |strategy, vectorize| Schedule {
        strategy,
        vectorize,
    };
    let (_, vec) = time_pipeline(&area, side, sched(Strategy::Materialize, true))?;
    let (_, linebuf) = time_pipeline(&area, side, sched(Strategy::LineBuffer, true))?;
    let pointwise = pointwise_pipeline(0.1, 1.3);
    let (_, materialized) = time_pipeline(&pointwise, side, Schedule::match_c())?;
    let (_, inlined) = time_pipeline(&pointwise, side, sched(Strategy::Inline, false))?;
    m.insert("orion.vec_speedup", (base / vec, "ratio"));
    m.insert("orion.linebuf_speedup", (base / linebuf, "ratio"));
    m.insert("orion.inline_speedup", (materialized / inlined, "ratio"));
    m.insert("orion.compile_ms", (compile_ms, "ms"));
    Ok(())
}

/// Figure 9's shape on a shuffled grid mesh: vertex normals favour
/// array-of-structs, translation favours struct-of-arrays.
fn layout(m: &mut Metrics, scale: Scale) -> Result<(), String> {
    let mesh = HostMesh::grid(sized(scale, 128, 16), true);
    let mut gbps = Vec::new();
    for layout in [Layout::Aos, Layout::Soa] {
        let mut kit = MeshKit::new(&mesh, layout).map_err(|e| format!("layout: {e}"))?;
        gbps.push((kit.measure_normals(2), kit.measure_translate(4)));
    }
    let (aos, soa) = (gbps[0], gbps[1]);
    m.insert("layout.aos_over_soa_normals", (aos.0 / soa.0, "ratio"));
    m.insert("layout.soa_over_aos_translate", (soa.1 / aos.1, "ratio"));
    Ok(())
}

/// §6.3.1: a virtual and an interface call over a direct call.
fn classes(m: &mut Metrics, scale: Scale) -> Result<(), String> {
    let mut bench = DispatchBench::new().map_err(|e| format!("classes: {e}"))?;
    bench.verify();
    let cost = bench.measure(sized(scale, 200_000, 1000) as i64);
    m.insert(
        "classes.virtual_over_direct",
        (cost.virtual_ns / cost.direct_ns, "ratio"),
    );
    m.insert(
        "classes.interface_over_direct",
        (cost.interface_ns / cost.direct_ns, "ratio"),
    );
    Ok(())
}
