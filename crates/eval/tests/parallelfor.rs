//! End-to-end tests of `parallelfor`: source syntax through kernel
//! extraction, capture analysis, dependency linking, and the chunked
//! parallel runtime (sequential at the default `threads = 1`, and
//! bit-identical to the threaded schedule at `threads > 1`).

use terra_eval::{Interp, LuaValue};

fn eval_num(src: &str) -> f64 {
    eval_num_threads(src, 1)
}

fn eval_num_threads(src: &str, threads: usize) -> f64 {
    let mut t = Interp::new();
    t.ctx.exec.set_threads(threads);
    let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    match out.first() {
        Some(LuaValue::Number(n)) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn eval_err(src: &str) -> String {
    let mut t = Interp::new();
    match t.exec(src) {
        Ok(_) => panic!("expected error for {src}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn parallelfor_fills_heap_buffer() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra sum_squares(n : int) : int
            var buf = [&int](std.malloc(n * 4))
            parallelfor i = 0, n do
                buf[i] = i * i
            end
            var total = 0
            for i = 0, n do total = total + buf[i] end
            std.free(buf)
            return total
        end
        return sum_squares(100)
    "#;
    // sum of i^2 for i in 0..100
    assert_eq!(eval_num(src), 328350.0);
}

#[test]
fn register_captures_pass_by_value() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra scaled(n : int, k : int) : int
            var buf = [&int](std.malloc(n * 4))
            var off = k + 1
            parallelfor i = 0, n do
                buf[i] = i * k + off
            end
            var total = 0
            for i = 0, n do total = total + buf[i] end
            std.free(buf)
            return total
        end
        return scaled(10, 3)
    "#;
    // 3 * (0+..+9) + 10 * 4 = 135 + 40
    assert_eq!(eval_num(src), 175.0);
}

#[test]
fn in_memory_capture_shares_the_parent_frame() {
    // `total` is address-taken, so it lives in the parent frame and the
    // kernel sees it through a captured pointer value.
    let src = r#"
        terra acc(n : int) : int
            var total = 0
            var p = &total
            parallelfor i = 0, n do
                @p = @p + i
            end
            return total
        end
        return acc(10)
    "#;
    assert_eq!(eval_num(src), 45.0);
}

#[test]
fn kernel_may_call_other_terra_functions() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra square(x : int) : int return x * x end
        terra fill(n : int) : int
            var buf = [&int](std.malloc(n * 4))
            parallelfor i = 0, n do
                buf[i] = square(i)
            end
            var total = 0
            for i = 0, n do total = total + buf[i] end
            std.free(buf)
            return total
        end
        return fill(10)
    "#;
    assert_eq!(eval_num(src), 285.0);
}

#[test]
fn empty_range_runs_zero_iterations() {
    let src = r#"
        terra f() : int
            var total = 0
            var p = &total
            parallelfor i = 5, 5 do
                @p = @p + 1
            end
            return total
        end
        return f()
    "#;
    assert_eq!(eval_num(src), 0.0);
}

#[test]
fn annotated_loop_variable_type() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra f(n : int) : int64
            var buf = [&int64](std.malloc(n * 8))
            parallelfor i : int64 = 0, n do
                buf[i] = i * 1000000000
            end
            var total : int64 = 0
            for i = 0, n do total = total + buf[i] end
            std.free(buf)
            return total
        end
        return f(4) / 1000000000
    "#;
    assert_eq!(eval_num(src), 6.0);
}

#[test]
fn threaded_result_matches_sequential() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra saxpy(n : int) : double
            var x = [&double](std.malloc(n * 8))
            var y = [&double](std.malloc(n * 8))
            for i = 0, n do
                x[i] = [double](i) * 0.5
                y[i] = [double](i)
            end
            parallelfor i = 0, n do
                y[i] = 2.0 * x[i] + y[i]
            end
            var total = 0.0
            for i = 0, n do total = total + y[i] end
            std.free(x)
            std.free(y)
            return total
        end
        return saxpy(1000)
    "#;
    let seq = eval_num_threads(src, 1);
    let par = eval_num_threads(src, 4);
    assert_eq!(seq.to_bits(), par.to_bits());
}

#[test]
fn assigning_a_register_capture_is_rejected() {
    let src = r#"
        terra bad(n : int) : int
            var k = 1
            parallelfor i = 0, n do
                k = k + 1
            end
            return k
        end
        return bad(10)
    "#;
    let err = eval_err(src);
    assert!(err.contains("cannot assign to 'k'"), "got: {err}");
}

#[test]
fn return_inside_parallelfor_is_rejected() {
    let src = r#"
        terra bad(n : int) : int
            parallelfor i = 0, n do
                return 1
            end
            return 0
        end
        return bad(10)
    "#;
    let err = eval_err(src);
    assert!(
        err.contains("return is not allowed inside parallelfor"),
        "got: {err}"
    );
}

#[test]
fn malloc_inside_kernel_traps() {
    let src = r#"
        local std = terralib.includec("stdlib.h")
        terra bad(n : int) : int
            parallelfor i = 0, n do
                var p = [&int](std.malloc(4))
                std.free(p)
            end
            return 0
        end
        return bad(10)
    "#;
    let err = eval_err(src);
    assert!(
        err.contains("not allowed inside a parallel loop"),
        "got: {err}"
    );
}

#[test]
fn kernel_trap_is_reported_deterministically() {
    // Division by zero at i = 7; the same trap must surface at any thread
    // count.
    let src = r#"
        terra bad(n : int) : int
            var total = 0
            var p = &total
            parallelfor i = 0, n do
                @p = @p + n / (i - 7)
            end
            return total
        end
        return bad(64)
    "#;
    let mut t1 = Interp::new();
    t1.ctx.exec.set_threads(1);
    let e1 = t1.exec(src).expect_err("should trap").to_string();
    let mut t4 = Interp::new();
    t4.ctx.exec.set_threads(4);
    let e4 = t4.exec(src).expect_err("should trap").to_string();
    assert_eq!(e1, e4);
    assert!(
        e1.contains("division by zero") || e1.contains("divide"),
        "got: {e1}"
    );
}

/// A kernel whose site has stage-time-constant bounds knows its index's
/// range: the 3×3 stencil's `(y + dy) * W + (x + dx)` is proven not to wrap
/// (no `trunc` retires), the constant tap loops unroll and each address is
/// split so that the `x` loop is nine loads from `[row + x*4 + d]`, and the
/// image is the same at every thread count. With run-time bounds nothing is
/// assumed.
#[test]
fn a_kernel_over_constant_bounds_has_a_range_for_its_index() {
    let blur = |bounds: &str| {
        format!(
            r#"
        local std = terralib.includec("stdlib.h")
        local W, H = 24, 16
        terra blur(src : &float, dst : &float, h : int)
            parallelfor y = {bounds} do
                for x = 1, [W - 1] do
                    var s : float = 0.0f
                    for dy = -1, 2 do
                        for dx = -1, 2 do
                            s = s + src[(y + dy) * W + (x + dx)]
                        end
                    end
                    dst[y * W + x] = s
                end
            end
        end
        terra run() : double
            var src = [&float](std.malloc([W * H * 4]))
            var dst = [&float](std.malloc([W * H * 4]))
            for i = 0, [W * H] do
                src[i] = i % 11
                dst[i] = 0
            end
            blur(src, dst, H)
            var total = 0.0
            for i = 0, [W * H] do total = total + dst[i] * ((i % 7) + 1) end
            return total
        end
        "#
        )
    };
    let run = |bounds: &str, threads| {
        let mut t = Interp::new();
        t.ctx.exec.set_threads(threads);
        t.exec(&blur(bounds)).unwrap();
        t.exec("blur:compile()").unwrap();
        t.ctx.exec.set_profile(true);
        let out = t.exec("return run()").unwrap();
        let LuaValue::Number(total) = out[0] else {
            panic!("a number: {out:?}");
        };
        // A wrap is a `trunc` or an `int32` row that wraps itself.
        let profile = t.ctx.exec.profile();
        let wraps = ["trunc", "add.i32", "sub.i32", "mul.i32", "shl.i32"];
        let kernel_truncs: u64 = wraps.iter().map(|op| profile.op_count(op)).sum();
        (total, kernel_truncs)
    };
    let (expected, truncs) = run("1, [H - 1]", 1);
    assert_eq!(truncs, 0, "every wrap in the kernel is proven away");
    for threads in [2, 4] {
        assert_eq!(run("1, [H - 1]", threads), (expected, 0));
    }
    // `h - 1` arrives at run time: same image, the index arithmetic wraps.
    let (total, truncs) = run("1, h - 1", 2);
    assert_eq!(total, expected);
    assert!(truncs >= 9 * 22 * 14, "{truncs}");
    // The constant-bounds kernel's `x` loop: nine loads `[row + x*4 + d]`,
    // the store, the loop's edge.
    let mut t = Interp::new();
    t.exec(&blur("1, [H - 1]")).unwrap();
    t.exec("blur:compile()").unwrap();
    let program = t.ctx.exec.program().clone();
    let kernel = (0..program.len() as u32)
        .filter_map(|id| program.function(terra_ir::FuncId(id)))
        .find(|f| f.name.contains("$par"))
        .expect("the outlined kernel");
    let text: Vec<String> = kernel.code.iter().map(|i| i.to_string()).collect();
    let loads: Vec<&String> = text.iter().filter(|l| l.starts_with("load.f32")).collect();
    assert_eq!(loads.len(), 9, "{text:#?}");
    assert!(loads.iter().all(|l| l.contains("*4")), "{text:#?}");
    let edge = text
        .iter()
        .position(|l| l.starts_with("loop.lt.s"))
        .expect("the x loop");
    assert!(text[edge - 1].starts_with("store.f32"), "{text:#?}");
}
