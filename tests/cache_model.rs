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
