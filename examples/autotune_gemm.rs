//! The §6.1 auto-tuner end to end: search kernel configurations, pick the
//! best, verify it, and compare against the baselines — the ATLAS workflow
//! in one process, as the paper argues staging enables. The search itself is
//! `gemmtune` in the generator script.
//!
//! Run with: `cargo run --release -p terra-core --example autotune_gemm`

use terra_autotune::{GemmSession, Precision};
use terra_core::LuaValue;

fn main() {
    let n = 128;
    let prec = Precision::F64;
    let mut s = GemmSession::new().expect("load the Figure 5 generator");
    let count = s
        .terra()
        .exec(&format!("return #gemmconfigs({n}, {})", prec.type_name()))
        .expect("count the search space");
    if let [LuaValue::Number(count)] = count[..] {
        println!("searching {count} kernel configurations at N={n}…");
    }
    let (best, gflops) = s.autotune(n, prec, 2).expect("autotune");
    println!("best configuration: {best} → {gflops:.3} GFLOPS");

    let ws = s.workspace(n, prec);
    let tuned = s.generated(n, best, prec).expect("stage tuned kernel");
    s.run(&tuned, &ws);
    ws.verify(&s);
    println!("tuned kernel verified against a host-side reference multiply");

    let naive = s.naive(n, prec).expect("stage naive");
    let g_naive = s.measure_gflops(&naive, &ws, 2);
    println!(
        "naive: {g_naive:.3} GFLOPS → staged speedup {:.1}x",
        gflops / g_naive
    );
}
