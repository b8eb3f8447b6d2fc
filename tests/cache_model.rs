//! Acceptance tests for the simulated cache hierarchy: the paper's §5
//! locality claims (blocking beats naive GEMM, SoA beats AoS) must hold as
//! *simulated miss rates*, and the locality report must be deterministic.

use terra_autotune::{GemmSession, Precision};
use terra_core::{CacheStats, OptLevel, Terra, Value};

/// Measures one run of `fname` from `src` under the profiler, invoking it
/// with `(ptr, n)` and returning the cache stats.
fn run_kernel(t: &mut Terra, fname: &str, ptr: u64, n: i64) -> CacheStats {
    let f = t.function(fname).unwrap();
    t.set_profile(true);
    t.reset_profile();
    t.invoke(&f, &[Value::Ptr(ptr), Value::Int(n)]).unwrap();
    let stats = t.profile().cache;
    t.set_profile(false);
    stats
}

#[test]
fn blocked_gemm_has_strictly_lower_l1_miss_rate_than_naive() {
    // N=96: each f64 matrix is 72 KiB, past the 32 KiB simulated L1, so the
    // naive k-inner loop re-streams B while the 16x16 blocked variant keeps
    // its three active tiles resident.
    let mut s = GemmSession::new().unwrap();
    let n = 96;
    let ws = s.workspace(n, Precision::F64);
    let naive = s.naive(n, Precision::F64).unwrap();
    let blocked = s.blocked(n, 16, Precision::F64).unwrap();
    let naive_cost = s.measure_cost(&naive, &ws);
    let blocked_cost = s.measure_cost(&blocked, &ws);
    let rate = |misses: u64, loads: u64, stores: u64| misses as f64 / (loads + stores) as f64;
    let naive_rate = rate(naive_cost.l1_misses, naive_cost.loads, naive_cost.stores);
    let blocked_rate = rate(
        blocked_cost.l1_misses,
        blocked_cost.loads,
        blocked_cost.stores,
    );
    assert!(naive_cost.l1_misses > 0, "{naive_cost:?}");
    assert!(
        blocked_cost.l1_misses + blocked_cost.l2_misses > 0,
        "{blocked_cost:?}"
    );
    assert!(
        blocked_rate < naive_rate,
        "blocked {blocked_rate:.4} must be < naive {naive_rate:.4} \
         (naive {naive_cost:?}, blocked {blocked_cost:?})"
    );
}

#[test]
fn soa_sum_has_strictly_lower_l1_miss_rate_than_aos() {
    let mut t = Terra::new();
    t.exec(
        r#"
        terra aos_sum(P : &double, N : int) : double
            var s = 0.0
            for i = 0, N do
                s = s + P[i * 4]
            end
            return s
        end
        terra soa_sum(P : &double, N : int) : double
            var s = 0.0
            for i = 0, N do
                s = s + P[i]
            end
            return s
        end
    "#,
    )
    .unwrap();
    let n = 4096usize;
    let p = t.malloc((n * 4 * 8) as u64);
    t.write_f64s(p, &vec![1.0; n * 4]);
    let aos = run_kernel(&mut t, "aos_sum", p, n as i64);
    let soa = run_kernel(&mut t, "soa_sum", p, n as i64);
    // Stride-4 touches a new 64 B line every other access; unit stride every
    // eighth. Both sweeps are cold (reset_profile cold-resets the tags).
    assert!(
        soa.l1.miss_rate() < aos.l1.miss_rate(),
        "soa {:.4} must be < aos {:.4}",
        soa.l1.miss_rate(),
        aos.l1.miss_rate()
    );
    assert!(aos.l1.miss_rate() > 0.4, "{aos:?}");
}

#[test]
fn locality_report_is_byte_identical_across_runs() {
    let src = r#"
        terra walk(P : &double, N : int) : double
            var s = 0.0
            for i = 0, N do
                s = s + P[i * 3]
            end
            return s
        end
    "#;
    let run = || {
        let mut t = Terra::new();
        t.exec(src).unwrap();
        let p = t.malloc(3 * 2048 * 8);
        t.write_f64s(p, &vec![1.0; 3 * 2048]);
        run_kernel(&mut t, "walk", p, 2048);
        let f = t.function("walk").unwrap();
        t.set_profile(true);
        t.reset_profile();
        t.invoke(&f, &[Value::Ptr(p), Value::Int(2048)]).unwrap();
        t.profile().render_counters()
    };
    let a = run();
    let b = run();
    assert!(a.contains("== locality =="), "{a}");
    assert_eq!(a, b, "locality report must be byte-identical across runs");
}

#[test]
fn locality_identical_at_o0_and_o2_for_straight_line_kernel() {
    // Loads feeding stores to distinct addresses: no CSE/DCE/LICM opportunity
    // touches the access stream, so the simulated locality must be identical
    // at every -O level.
    let src = r#"
        terra shuffle(P : &double, N : int) : double
            P[N] = P[0]
            P[N + 1] = P[1]
            P[N + 2] = P[2]
            return P[N]
        end
    "#;
    let locality_at = |level: OptLevel| {
        let mut t = Terra::new();
        t.set_opt_level(level);
        t.exec(src).unwrap();
        let p = t.malloc(4096 * 8);
        t.write_f64s(p, &[3.0, 4.0, 5.0]);
        let f = t.function("shuffle").unwrap();
        t.set_profile(true);
        t.reset_profile();
        let got = t.invoke(&f, &[Value::Ptr(p), Value::Int(512)]).unwrap();
        assert_eq!(got, Value::Float(3.0));
        t.profile().render_locality()
    };
    let o0 = locality_at(OptLevel::O0);
    let o2 = locality_at(OptLevel::O2);
    assert!(o0.contains("== locality =="), "{o0}");
    assert!(o0.contains("shuffle:"), "{o0}");
    assert_eq!(o0, o2, "optimizer must not change the simulated locality");
}

/// The exact counters of a prefetching `genmatmul` kernel (N=64, NB=32,
/// 2×2 register blocks of 4-lane vectors) under geometries that exercise
/// every shape the simulator handles: a non-power-of-two set count (48 L1
/// sets), direct-mapped L1 under an L2 of wider lines, and lines short
/// enough that vector accesses straddle them. The numbers were taken from
/// the stamp-scanning simulator the inline hit path replaced, so any
/// change to what the simulator counts shows here as a changed row.
#[test]
fn prefetching_gemm_counts_are_pinned_per_geometry() {
    use terra_autotune::GemmConfig;
    // (geometry, [L1 hits, misses, evictions], [L2 ...], [useful, late, useless])
    let rows = [
        (
            "l1=32k,64,8:l2=256k,64,8",
            [84518, 3546, 3652],
            [2092, 1454, 0],
            [64, 224, 16080],
        ),
        (
            "l1=24k,64,8:l2=96k,64,4",
            [84501, 3563, 3999],
            [2103, 1460, 55],
            [51, 224, 16093],
        ),
        (
            "l1=4k,64,1:l2=64k,128,2",
            [61809, 26255, 42575],
            [19304, 6951, 7631],
            [32, 13728, 2608],
        ),
        (
            "l1=1k,8,2:l2=8k,16,4",
            [18432, 161792, 178048],
            [0, 161792, 177664],
            [0, 0, 16384],
        ),
    ];
    let mut s = GemmSession::new().unwrap();
    let n = 64;
    let cfg = GemmConfig {
        nb: 32,
        rm: 2,
        rn: 2,
        v: 4,
    };
    let f = s.generated(n, cfg, Precision::F64).unwrap();
    let ws = s.workspace(n, Precision::F64);
    let mut wrong = Vec::new();
    for (spec, l1, l2, pf) in rows {
        let t = s.terra();
        t.set_cache_config(terra_core::CacheConfig::parse(spec).unwrap());
        t.set_profile(true);
        t.reset_profile();
        s.run(&f, &ws);
        let c = s.terra().profile().cache;
        s.terra().set_profile(false);
        let got = (
            [c.l1.hits, c.l1.misses, c.l1.evictions],
            [c.l2.hits, c.l2.misses, c.l2.evictions],
            [c.prefetch_useful, c.prefetch_late, c.prefetch_useless],
        );
        if got != (l1, l2, pf) {
            wrong.push(format!(
                "(\"{spec}\", {:?}, {:?}, {:?}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(wrong.is_empty(), "counters moved:\n{}", wrong.join("\n"));
}
