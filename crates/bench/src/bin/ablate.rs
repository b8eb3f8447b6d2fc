//! Ablations A2 and A3 of EXPERIMENTS.md: which staged-kernel mechanism
//! buys what (register blocking alone, vectorization alone, both), and how
//! far vector instructions amortize the VM's per-instruction dispatch.
//!
//! Usage: `cargo run --release -p terra-bench --bin ablate [--quick]`

use std::time::Instant;
use terra_autotune::{GemmConfig, GemmSession, Precision};
use terra_bench::{fmt_gflops, fmt_speedup, Table};
use terra_core::{Terra, Value};

/// A2: the GEMM generator at four points of its configuration space.
fn kernel_mechanisms(reps: usize) {
    let n = 128;
    let prec = Precision::F64;
    println!("== A2: staged GEMM mechanisms (N={n}, NB=32, double) ==");
    let mut s = GemmSession::new().expect("load generator");
    let ws = s.workspace(n, prec);
    let configs = [
        ("baseline (RM=RN=1, V=1)", (1, 1, 1)),
        ("unroll only (RM=RN=4)", (4, 4, 1)),
        ("vector only (V=4)", (1, 1, 4)),
        ("unroll and vector (RM=RN=2, V=4)", (2, 2, 4)),
    ];
    let mut table = Table::new(&["configuration", "GFLOPS", "vs baseline"]);
    let mut base = None;
    for (name, (rm, rn, v)) in configs {
        let cfg = GemmConfig { nb: 32, rm, rn, v };
        let f = s.generated(n, cfg, prec).expect("stage kernel");
        let gflops = s.measure_gflops(&f, &ws, reps);
        let base = *base.get_or_insert(gflops);
        table.push(vec![
            name.into(),
            fmt_gflops(gflops),
            fmt_speedup(gflops / base),
        ]);
    }
    print!("{}", table.render());
}

/// A3: one saxpy over 64k floats in scalar, 4-wide and 8-wide vector form.
fn vector_dispatch(reps: usize) {
    let n: usize = 64 * 1024;
    println!("\n== A3: VM dispatch amortization (saxpy, {n} floats) ==");
    let mut t = Terra::new();
    let mut src = format!(
        "terra saxpy_1(x : &float, y : &float, a : float)
            for i = 0, {n} do y[i] = a * x[i] + y[i] end
        end\n"
    );
    for lanes in [4, 8] {
        src.push_str(&format!(
            "local vec{lanes} = vector(float, {lanes})
            terra saxpy_{lanes}(x : &float, y : &float, a : float)
                var px, py = [&vec{lanes}](x), [&vec{lanes}](y)
                for i = 0, {n} / {lanes} do py[i] = a * px[i] + py[i] end
            end\n"
        ));
    }
    t.exec(&src).expect("stage saxpy");
    let x = t.malloc((n * 4) as u64);
    let y = t.malloc((n * 4) as u64);
    t.write_f32s(x, &vec![1.0; n]);
    t.write_f32s(y, &vec![2.0; n]);
    let args = [Value::Ptr(x), Value::Ptr(y), Value::Float(0.5)];
    let mut table = Table::new(&["form", "time(ms)", "vs scalar"]);
    let mut base = None;
    for lanes in [1, 4, 8] {
        let f = t.function(&format!("saxpy_{lanes}")).expect("defined");
        t.invoke(&f, &args).expect("saxpy trapped"); // warm
        let start = Instant::now();
        for _ in 0..reps {
            t.invoke(&f, &args).expect("saxpy trapped");
        }
        let dt = start.elapsed().as_secs_f64() / reps as f64;
        let base = *base.get_or_insert(dt);
        table.push(vec![
            if lanes == 1 {
                "scalar".into()
            } else {
                format!("vector(float,{lanes})")
            },
            format!("{:.2}", dt * 1e3),
            fmt_speedup(base / dt),
        ]);
    }
    print!("{}", table.render());
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    kernel_mechanisms(if quick { 1 } else { 5 });
    vector_dispatch(if quick { 3 } else { 20 });
    println!(
        "\nshape check: each staged mechanism contributes and they compose (A2);\n\
         vector forms approach the lane-count speedup (A3)."
    );
}
