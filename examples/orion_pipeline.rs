//! Orion (§6.2): build a stencil pipeline with image-wide operators, then
//! change *only the schedule* and watch the same algorithm speed up — the
//! decoupling the paper demonstrates.
//!
//! Run with: `cargo run --release -p terra-core --example orion_pipeline`

use std::time::Instant;
use terra_core::Terra;
use terra_orion::{ImageBuf, Pipeline, Schedule, Strategy};

fn main() {
    // The algorithm: unsharp masking — blur, then add back the detail. Each
    // stage is Orion's Lua: `f(dx, dy)` translates an image.
    let mut p = Pipeline::new(1);
    p.stage("(input(0)(0, -1) + input(0)(0, 0) + input(0)(0, 1)) * (1 / 3)");
    p.stage("(stage(0)(-1, 0) + stage(0)(0, 0) + stage(0)(1, 0)) * (1 / 3)");
    p.stage("(input(0) * 2 - stage(1)):clamp(0, 255)");

    let (w, h) = (512, 512);
    let data: Vec<f32> = (0..w * h).map(|i| (i % 251) as f32).collect();

    let mut reference: Option<Vec<f32>> = None;
    for (name, strategy, vectorize) in [
        (
            "materialized, scalar (matches C)",
            Strategy::Materialize,
            false,
        ),
        ("materialized, vectorized", Strategy::Materialize, true),
        ("line-buffered, vectorized", Strategy::LineBuffer, true),
        ("fully inlined, vectorized", Strategy::Inline, true),
    ] {
        let mut t = Terra::new();
        let schedule = Schedule {
            strategy,
            vectorize,
        };
        let c = p.compile(&mut t, w, h, schedule).expect("stage pipeline");
        let img = ImageBuf::alloc(&mut t, &c);
        let out = ImageBuf::alloc(&mut t, &c);
        img.write(&mut t, &data);
        c.run(&mut t, &[&img], &out); // warm + correctness
        let result = out.read(&t);
        match &reference {
            None => reference = Some(result),
            Some(r) => {
                for (i, (a, b)) in r.iter().zip(&result).enumerate() {
                    assert!((a - b).abs() < 1e-3, "schedule changed the result at {i}");
                }
            }
        }
        let start = Instant::now();
        for _ in 0..3 {
            c.run(&mut t, &[&img], &out);
        }
        let ms = start.elapsed().as_secs_f64() / 3.0 * 1e3;
        println!("{name:<36} {ms:>8.1} ms");
    }
    println!("all schedules computed identical images — only the speed changed");
}
