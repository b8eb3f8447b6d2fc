//! Every schedule's kernel, pinned: for the area filter, the point-wise
//! chain and a four-stage vertical chain under each strategy, scalar and
//! vectorized, at 64×80 and `-O2`, the FNV-1a hash of the output's bits and
//! the instructions the kernel retires; and the fluid solver's density
//! after two steps under every schedule, as `examples/fluid.t` prints it.
//! The numbers were recorded from the Rust source printer that `lib/orion`
//! replaced, so a row that moves means a schedule now stages a different
//! kernel.

mod reference;

use terra_core::{LuaValue, Terra, Value};
use terra_orion::{area_filter, pointwise_pipeline, ImageBuf, Pipeline, Schedule, Strategy};

const W: usize = 64;
const H: usize = 80;

fn fnv1a(out: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in out {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn image(w: usize, h: usize) -> Vec<f32> {
    (0..w * h)
        .map(|i| ((i % w * 7 + i / w * 13) % 17) as f32 * 0.125 - 1.0)
        .collect()
}

/// Runs `kernel` once on `image(W, H)` with the given padding; returns the
/// output's hash and the instructions retired.
fn measure(
    t: &mut Terra,
    padding: usize,
    run: impl Fn(&mut Terra, &ImageBuf, &ImageBuf),
) -> (u64, u64) {
    let img = ImageBuf::alloc_raw(t, W, H, padding);
    let out = ImageBuf::alloc_raw(t, W, H, padding);
    img.write(t, &image(W, H));
    t.set_profile(true);
    t.reset_profile();
    run(t, &img, &out);
    let retired = t.profile().total_instructions();
    t.set_profile(false);
    (fnv1a(&out.read(t)), retired)
}

fn staged(p: &Pipeline, schedule: Schedule) -> (u64, u64) {
    let mut t = Terra::new();
    let c = p.compile(&mut t, W, H, schedule).unwrap();
    measure(&mut t, c.padding, |t, img, out| c.run(t, &[img], out))
}

fn schedule(strategy: Strategy, vectorize: bool) -> Schedule {
    Schedule {
        strategy,
        vectorize,
    }
}

#[rustfmt::skip]
const GOLDENS: &[(&str, Strategy, bool, u64, u64)] = &[
    ("area", Strategy::Materialize, false, 0x9fd4041f7992fe89, 182140),
    ("area", Strategy::Materialize, true, 0x9fd4041f7992fe89, 38422),
    ("area", Strategy::Inline, false, 0x9fd4041f7992fe89, 425610),
    ("area", Strategy::Inline, true, 0x9fd4041f7992fe89, 93941),
    ("area", Strategy::LineBuffer, false, 0x9fd4041f7992fe89, 188175),
    ("area", Strategy::LineBuffer, true, 0x9fd4041f7992fe89, 40097),
    ("pointwise", Strategy::Materialize, false, 0xdea58d114bf09224, 99898),
    ("pointwise", Strategy::Materialize, true, 0xdea58d114bf09224, 15443),
    ("pointwise", Strategy::Inline, false, 0xdea58d114bf09224, 51852),
    ("pointwise", Strategy::Inline, true, 0xdea58d114bf09224, 7221),
    ("pointwise", Strategy::LineBuffer, false, 0xdea58d114bf09224, 100507),
    ("pointwise", Strategy::LineBuffer, true, 0xdea58d114bf09224, 20240),
    ("chain4", Strategy::Materialize, false, 0x3bd1dc5186c45f6e, 203360),
    ("chain4", Strategy::Materialize, true, 0x3bd1dc5186c45f6e, 45512),
    ("chain4", Strategy::Inline, false, 0x3bd1dc5186c45f6e, 333450),
    ("chain4", Strategy::Inline, true, 0x3bd1dc5186c45f6e, 59376),
    ("chain4", Strategy::LineBuffer, false, 0x3bd1dc5186c45f6e, 279793),
    ("chain4", Strategy::LineBuffer, true, 0x3bd1dc5186c45f6e, 57317),
];

#[test]
fn every_schedule_stages_the_recorded_kernel() {
    let mut chain = Pipeline::new(1);
    for e in reference::chain4() {
        chain.stage(&e.to_string());
    }
    let mut wrong = Vec::new();
    for &(name, strategy, vectorize, hash, retired) in GOLDENS {
        let p = match name {
            "area" => area_filter(),
            "pointwise" => pointwise_pipeline(0.1, 1.4),
            _ => chain.clone(),
        };
        let got = staged(&p, schedule(strategy, vectorize));
        if got != (hash, retired) {
            wrong.push(format!(
                "{name} {strategy:?} vectorize={vectorize}: {:#018x} {} (recorded {hash:#018x} {retired})",
                got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// `examples/fluid.t` steps a blob in a swirl twice (n = 16, eight Jacobi
/// iterations) under each of the six schedules and prints each density's
/// FNV-1a hash.
#[test]
fn the_fluid_solver_steps_to_the_recorded_density() {
    const DENSITY: &str = "3a9bbd3477c4a019";
    let mut t = Terra::new();
    t.capture_output();
    t.exec(include_str!("../../../examples/fluid.t")).unwrap();
    let out = t.take_output();
    let rows: Vec<&str> = out.lines().filter(|l| l.contains(" density ")).collect();
    assert_eq!(rows.len(), 6, "{out}");
    for row in rows {
        assert_eq!(row.split_whitespace().nth(2), Some(DENSITY), "{row}");
    }
}

/// §6.2's area filter written in Lua against the library, in a plain
/// session, stages the kernel the Rust `area_filter()` does.
#[test]
fn the_paper_area_filter_in_lua_is_the_rust_one() {
    for (strategy, name) in [
        (Strategy::Materialize, "materialize"),
        (Strategy::Inline, "inline"),
        (Strategy::LineBuffer, "linebuffer"),
    ] {
        for vectorize in [false, true] {
            let mut t = Terra::new();
            t.exec(&format!(
                r#"
                local orion = terralib.require("lib/orion")
                local f = orion.input(0)
                local p = orion.pipeline(1)
                local y = p:stage((f(0,-2) + f(0,-1) + f(0,0) + f(0,1) + f(0,2)) * (1/5))
                p:stage((y(-2,0) + y(-1,0) + y(0,0) + y(1,0) + y(2,0)) * (1/5))
                areafilter, padding = p:compile({W}, {H}, "{name}", {vectorize})
                "#
            ))
            .unwrap();
            let f = t.function("areafilter").unwrap();
            let LuaValue::Number(padding) = t.global("padding") else {
                panic!("compile returns the padding");
            };
            let lua = measure(&mut t, padding as usize, |t, img, out| {
                t.invoke(&f, &[Value::Ptr(img.addr), Value::Ptr(out.addr)])
                    .unwrap();
            });
            let rust = staged(&area_filter(), schedule(strategy, vectorize));
            assert_eq!(lua, rust, "{name} vectorize={vectorize}");
        }
    }
}
