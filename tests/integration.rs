//! Cross-crate integration tests: the paper's evaluation systems working
//! together in one process, as the paper argues the design enables —
//! "all parts of the toolchain … inter-operate amongst themselves".

use terra_autotune::{GemmConfig, GemmSession, Precision};
use terra_classes::ClassSession;
use terra_core::{Terra, Value};
use terra_layout::{HostMesh, Layout, MeshKit};
use terra_orion::fluid::FluidSim;
use terra_orion::{area_filter, ImageBuf, Pipeline, Schedule, Strategy};

/// The headline GEMM shape: a tuned configuration beats naive by a wide
/// margin even in a debug-friendly problem size — asserted on what explains
/// the speed, retired VM instructions, so the verdict is the same on a busy
/// host (wall clock is `benchmark/`'s job).
#[test]
fn gemm_generated_beats_naive() {
    let mut s = GemmSession::new().unwrap();
    let n = 64;
    let ws = s.workspace(n, Precision::F64);
    let naive = s.naive(n, Precision::F64).unwrap();
    let tuned = s
        .generated(
            n,
            GemmConfig {
                nb: 16,
                rm: 2,
                rn: 2,
                v: 4,
            },
            Precision::F64,
        )
        .unwrap();
    s.run(&tuned, &ws);
    ws.verify(&s);
    let i_naive = s.measure_cost(&naive, &ws).instructions;
    let i_tuned = s.measure_cost(&tuned, &ws).instructions;
    // 1 864 006 against 295 438 (6.3x); 417 092 (4.5x) before the back end
    // emitted the generator's k-loop as written.
    assert!(
        i_tuned * 6 < i_naive,
        "tuned retires {i_tuned} instructions, not under a sixth of naive's {i_naive}"
    );
}

/// EXPERIMENTS.md A2: each of the generator's two mechanisms, register
/// blocking and vectors, retires fewer instructions than neither, and the two
/// together fewer than either alone.
#[test]
fn gemm_register_blocking_and_vectors_compose() {
    let mut s = GemmSession::new().unwrap();
    let n = 32;
    let ws = s.workspace(n, Precision::F64);
    let mut retired = |rm, rn, v| {
        let f = s
            .generated(n, GemmConfig { nb: 16, rm, rn, v }, Precision::F64)
            .unwrap();
        s.run(&f, &ws);
        ws.verify(&s);
        s.measure_cost(&f, &ws).instructions
    };
    let base = retired(1, 1, 1);
    let (blocked, vector, both) = (retired(4, 4, 1), retired(1, 1, 4), retired(2, 2, 4));
    let counts = format!("base {base}, RM=RN=4 {blocked}, V=4 {vector}, both {both}");
    assert!(blocked < base && vector < base, "{counts}");
    assert!(both < blocked && both < vector, "{counts}");
}

/// EXPERIMENTS.md A3: one vector instruction does the work of its lanes, so
/// saxpy retires fewer instructions as `vector(float,4)` than as scalar
/// code, and fewer again as `vector(float,8)`.
#[test]
fn saxpy_retires_fewer_instructions_with_wider_vectors() {
    let n = 1024;
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
    let mut t = Terra::new();
    t.exec(&src).unwrap();
    let (x, y) = (t.malloc(n as u64 * 4), t.malloc(n as u64 * 4));
    t.write_f32s(x, &vec![1.0; n]);
    t.write_f32s(y, &vec![2.0; n]);
    let mut retired = Vec::new();
    for lanes in [1, 4, 8] {
        let f = t.function(&format!("saxpy_{lanes}")).unwrap();
        t.set_profile(true);
        t.reset_profile();
        t.invoke(&f, &[Value::Ptr(x), Value::Ptr(y), Value::Float(0.5)])
            .unwrap();
        retired.push(t.profile().total_instructions());
        t.set_profile(false);
    }
    // Each of the three runs added 0.5 to every element.
    assert!(t.read_f32s(y, n).iter().all(|v| *v == 3.5));
    assert!(
        retired[1] < retired[0] && retired[2] < retired[1],
        "scalar, 4-wide, 8-wide: {retired:?}"
    );
}

/// Orion schedules agree on results; vectorization retires fewer
/// instructions (the counter behind its speedup; no clock in tier-1).
#[test]
fn orion_vectorization_speedup_with_identical_results() {
    let p = area_filter();
    let (w, h) = (128, 96);
    let data: Vec<f32> = (0..w * h).map(|i| (i % 97) as f32 * 0.1).collect();
    let mut outs = Vec::new();
    let mut retired = Vec::new();
    for vectorize in [false, true] {
        let mut t = Terra::new();
        let c = p
            .compile(
                &mut t,
                w,
                h,
                Schedule {
                    strategy: Strategy::Materialize,
                    vectorize,
                },
            )
            .unwrap();
        let img = ImageBuf::alloc(&mut t, &c);
        let out = ImageBuf::alloc(&mut t, &c);
        img.write(&mut t, &data);
        t.set_profile(true);
        c.run(&mut t, &[&img], &out);
        retired.push(t.profile().total_instructions());
        outs.push(out.read(&t));
    }
    for (a, b) in outs[0].iter().zip(&outs[1]) {
        assert!((a - b).abs() < 1e-4);
    }
    assert!(
        retired[1] < retired[0],
        "vectorized retires {} instructions, scalar {}",
        retired[1],
        retired[0]
    );
}

/// The fluid solver runs the same physics under every schedule and keeps
/// mass roughly conserved over several steps.
#[test]
fn fluid_simulation_is_schedule_invariant() {
    let mut results = Vec::new();
    for strategy in [Strategy::Materialize, Strategy::LineBuffer] {
        let mut sim = FluidSim::new(
            16,
            0.05,
            0.0005,
            Schedule {
                strategy,
                vectorize: true,
            },
        )
        .unwrap();
        sim.solver_iters = 4;
        let n = sim.n();
        let mut dens = vec![0.0f32; n * n];
        dens[n * n / 2 + n / 2] = 1.0;
        let d = sim.dens;
        sim.write(d, &dens);
        for _ in 0..2 {
            sim.step();
        }
        results.push(sim.read(&sim.dens));
    }
    for (a, b) in results[0].iter().zip(&results[1]) {
        assert!((a - b).abs() < 1e-4, "schedules disagree: {a} vs {b}");
    }
    let mass: f64 = results[0].iter().map(|v| *v as f64).sum();
    assert!(mass > 0.3 && mass < 1.1, "mass {mass} drifted");
}

/// Both data layouts compute identical normals on the same mesh.
#[test]
fn layouts_agree_end_to_end() {
    let mesh = HostMesh::grid(6, true);
    let mut kits: Vec<Vec<f32>> = [Layout::Aos, Layout::Soa]
        .into_iter()
        .map(|l| {
            let mut kit = MeshKit::new(&mesh, l).unwrap();
            kit.run_translate(1.0, 2.0, 3.0);
            kit.run_normals();
            let mut v = kit.positions_vec();
            v.extend(kit.normals_vec());
            v
        })
        .collect();
    let b = kits.pop().unwrap();
    let a = kits.pop().unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-5);
    }
}

/// The class system's virtual dispatch composes with hand-written Terra:
/// a Terra function takes an interface pointer produced by __cast.
#[test]
fn classes_compose_with_plain_terra() {
    let mut s = ClassSession::new().unwrap();
    s.exec(
        r#"
        local std = terralib.includec("stdlib.h")
        Valued = J.interface { value = {} -> double }
        struct Konst { v : double }
        J.implements(Konst, Valued)
        terra Konst:value() : double return self.v end
        terra mk(v : double) : &Konst
            var k = [&Konst](std.malloc(sizeof(Konst)))
            k:initclass()
            k.v = v
            return k
        end
        -- plain Terra code, no knowledge of the class library:
        terra sum3(a : &Valued, b : &Valued, c : &Valued) : double
            return a:value() + b:value() + c:value()
        end
        terra run() : double
            return sum3(mk(1.5), mk(2.5), mk(3.0))
        end
        "#,
    )
    .unwrap();
    assert_eq!(s.call_f64("run", &[]).unwrap(), 7.0);
}

/// One session hosting several of the paper's systems at once: the GEMM
/// generator script and a user stencil in the same address space, calling
/// one another's outputs.
#[test]
fn one_process_many_systems() {
    let mut t = Terra::new();
    t.exec(terra_autotune::GEMM_SCRIPT).unwrap();
    t.exec(
        r#"
        mm = genmatmul(16, 16, 2, 2, 4, double)
        local std = terralib.includec("stdlib.h")
        terra frobenius(p : &double, n : int) : double
            var s = 0.0
            for i = 0, n * n do s = s + p[i] * p[i] end
            return s
        end
        terra run() : double
            var n = 16
            var a = [&double](std.malloc(n * n * 8))
            var b = [&double](std.malloc(n * n * 8))
            var c = [&double](std.malloc(n * n * 8))
            for i = 0, n * n do
                a[i] = 1.0
                b[i] = 0.5
            end
            mm(a, b, c)
            return frobenius(c, n)
        end
        "#,
    )
    .unwrap();
    // (1 * 0.5 summed over k=16) = 8.0 per cell; 256 cells of 8² = 16384.
    assert_eq!(t.call_f64("run", &[]).unwrap(), 16384.0);
}

/// FFI sanity across the whole stack: buffers written from Rust are visible
/// to staged kernels and vice versa.
#[test]
fn rust_terra_shared_memory() {
    let mut t = Terra::new();
    t.exec("terra scale(p : &double, n : int, k : double) for i = 0, n do p[i] = p[i] * k end end")
        .unwrap();
    let buf = t.malloc(8 * 8);
    t.write_f64s(buf, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let f = t.function("scale").unwrap();
    t.invoke(&f, &[Value::Ptr(buf), Value::Int(8), Value::Float(2.5)])
        .unwrap();
    assert_eq!(
        t.read_f64s(buf, 8),
        vec![2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0]
    );
}

/// `saveobj` (the paper's "save to .o and link from C") emits a manifest for
/// a whole program's worth of functions.
#[test]
fn saveobj_manifest_for_generated_code() {
    let mut s = GemmSession::new().unwrap();
    let f = s
        .generated(
            32,
            GemmConfig {
                nb: 16,
                rm: 2,
                rn: 2,
                v: 4,
            },
            Precision::F64,
        )
        .unwrap();
    let _ = f;
    let path = std::env::temp_dir().join("terra_rs_gemm.o");
    let path_str = path.to_string_lossy().replace('\\', "/");
    s.terra()
        .exec(&format!(
            "terralib.saveobj(\"{path_str}\", {{ matmul = __gemm_1 }})"
        ))
        .unwrap();
    let manifest = std::fs::read_to_string(&path).unwrap();
    assert!(manifest.contains("symbol matmul"), "{manifest}");
    std::fs::remove_file(&path).ok();
}

/// A pipeline built from *two* DSL front ends: Orion output fed to a staged
/// reduction written directly in Terra.
#[test]
fn orion_output_consumed_by_custom_terra() {
    let mut t = Terra::new();
    let mut p = Pipeline::new(1);
    p.stage("input(0) * 3");
    let c = p.compile(&mut t, 16, 16, Schedule::match_c()).unwrap();
    let img = ImageBuf::alloc(&mut t, &c);
    let out = ImageBuf::alloc(&mut t, &c);
    img.write(&mut t, &vec![1.0; 256]);
    c.run(&mut t, &[&img], &out);
    let stride = 16 + 2 * c.padding;
    t.exec(&format!(
        "terra total(p : &float) : double\n\
             var s = 0.0\n\
             for y = 0, 16 do\n\
                 for x = 0, 16 do\n\
                     s = s + p[(y + {p}) * {stride} + x + {p}]\n\
                 end\n\
             end\n\
             return s\n\
         end",
        p = c.padding
    ))
    .unwrap();
    let tf = t.function("total").unwrap();
    let r = t.invoke(&tf, &[Value::Ptr(out.addr)]).unwrap();
    assert_eq!(r, Value::Float(3.0 * 256.0));
}
