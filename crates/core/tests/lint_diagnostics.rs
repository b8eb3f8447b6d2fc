//! Golden tests for the IR analysis pipeline, driven end-to-end through the
//! public facade: programs with known defects must produce the expected
//! diagnostic codes, and clean programs must produce none.

use terra_core::{Severity, Terra};

/// Runs `src` with lint mode on and returns the diagnostic codes produced.
fn lint_codes(src: &str) -> Vec<&'static str> {
    let mut t = Terra::new();
    t.set_lint(true);
    t.capture_output();
    t.exec(src).expect("program should stage and compile");
    t.take_diagnostics().into_iter().map(|d| d.code).collect()
}

fn lint_diags(src: &str) -> Vec<terra_core::Diagnostic> {
    let mut t = Terra::new();
    t.set_lint(true);
    t.capture_output();
    t.exec(src).expect("program should stage and compile");
    t.take_diagnostics()
}

#[test]
fn use_before_init_is_reported_with_span() {
    let diags = lint_diags(
        r#"
        terra f() : int
            var x : int
            return x
        end
        f()
        "#,
    );
    let d = diags
        .iter()
        .find(|d| d.code == "use-before-init")
        .expect("expected a use-before-init warning");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("'x'"), "{}", d.message);
    assert_eq!(&*d.function, "f");
    assert_eq!(d.span.line, 4, "should point at the read, not the decl");
}

#[test]
fn dead_store_is_reported() {
    let codes = lint_codes(
        r#"
        terra f() : int
            var y : int = 7
            y = 3
            return y
        end
        f()
        "#,
    );
    assert!(codes.contains(&"dead-store"), "{codes:?}");
}

#[test]
fn unreachable_code_is_reported() {
    let codes = lint_codes(
        r#"
        terra f(c : bool) : int
            if c then return 1 else return 2 end
            return 3
        end
        f(true)
        "#,
    );
    assert!(codes.contains(&"unreachable-code"), "{codes:?}");
}

#[test]
fn missing_return_is_reported() {
    let codes = lint_codes(
        r#"
        terra f(c : bool) : int
            if c then return 1 end
        end
        f(true)
        "#,
    );
    assert!(codes.contains(&"missing-return"), "{codes:?}");
}

/// The diagnostics on `line`, which must all be `definite-oob`: a constant
/// out-of-bounds access has one oracle (`absint`) and one finding per access.
fn definite_oob_on(diags: &[terra_core::Diagnostic], line: u32) -> Vec<&str> {
    let on_line: Vec<_> = diags.iter().filter(|d| d.span.line == line).collect();
    for d in &on_line {
        assert_eq!(d.code, "definite-oob", "{d}");
    }
    on_line.iter().map(|d| d.message.as_str()).collect()
}

#[test]
fn constant_oob_index_is_reported() {
    let diags = lint_diags(
        r#"
        terra f() : int
            var a : int[4]
            a[0] = 1
            return a[5]
        end
        f()
        "#,
    );
    let on_line_5 = definite_oob_on(&diags, 5);
    assert_eq!(on_line_5.len(), 1, "exactly one finding: {diags:?}");
    assert!(on_line_5[0].contains("offset 20"), "{}", on_line_5[0]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn constant_oob_global_access_is_reported_once() {
    let diags = lint_diags(
        r#"
        struct Pair { a : int, b : int }
        local g = global(Pair)
        terra f() : int
            g.a = 1
            return (&g.a)[3]
        end
        f()
        "#,
    );
    let on_line_6 = definite_oob_on(&diags, 6);
    assert_eq!(on_line_6.len(), 1, "exactly one finding: {diags:?}");
    assert!(
        on_line_6[0].contains("offset 12 of global#0"),
        "{}",
        on_line_6[0]
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn constant_oob_aggregate_copy_is_reported_once_per_side() {
    let diags = lint_diags(
        r#"
        struct P { x : int, y : int, z : int, w : int }
        terra f() : int
            var a : int[6]
            var p : P
            p.x = 1
            a[0] = 2
            @[&P](&a[3]) = p
            p = @[&P](&a[4])
            return p.x + a[0]
        end
        f()
        "#,
    );
    let dst = definite_oob_on(&diags, 8);
    assert_eq!(dst.len(), 1, "exactly one finding: {diags:?}");
    assert!(
        dst[0].contains("copy destination of 16 byte(s) at offset 12"),
        "{}",
        dst[0]
    );
    let src = definite_oob_on(&diags, 9);
    assert_eq!(src.len(), 1, "exactly one finding: {diags:?}");
    assert!(
        src[0].contains("copy source of 16 byte(s) at offset 16"),
        "{}",
        src[0]
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn misaligned_vector_access_is_reported() {
    let codes = lint_codes(
        r#"
        local vec4 = vector(float, 4)
        terra f() : float
            var a : float[8]
            a[0] = 1.0f
            var v = @([&vec4]([&int8](&a[0]) + 6))
            return 1.0f
        end
        f()
        "#,
    );
    assert!(codes.contains(&"misaligned-vector"), "{codes:?}");
}

// -- negative suite: clean programs produce zero findings --------------------

#[test]
fn loop_accumulator_is_clean() {
    let codes = lint_codes(
        r#"
        terra sum(n : int) : int
            var acc : int = 0
            var i : int = 0
            while i < n do
                acc = acc + i
                i = i + 1
            end
            return acc
        end
        sum(10)
        "#,
    );
    assert!(codes.is_empty(), "{codes:?}");
}

#[test]
fn loop_carried_init_is_clean() {
    // `best` is only written inside the loop; possible-init analysis must
    // not flag the read after the loop.
    let codes = lint_codes(
        r#"
        terra f(n : int) : int
            var best : int = 0
            for i = 0, n do
                if i > best then
                    best = i
                end
            end
            return best
        end
        f(5)
        "#,
    );
    assert!(codes.is_empty(), "{codes:?}");
}

#[test]
fn struct_and_array_program_is_clean() {
    let codes = lint_codes(
        r#"
        struct Vec2 { x : double, y : double }
        terra dot(a : &Vec2, b : &Vec2) : double
            return a.x * b.x + a.y * b.y
        end
        terra f() : double
            var u = Vec2 { 1.0, 2.0 }
            var v = Vec2 { 3.0, 4.0 }
            var tmp : double[2]
            tmp[0] = dot(&u, &v)
            tmp[1] = tmp[0] * 2.0
            return tmp[1]
        end
        f()
        "#,
    );
    assert!(codes.is_empty(), "{codes:?}");
}

#[test]
fn infinite_loop_with_break_is_clean() {
    let codes = lint_codes(
        r#"
        terra f() : int
            var i : int = 0
            while true do
                i = i + 1
                if i > 10 then break end
            end
            return i
        end
        f()
        "#,
    );
    assert!(codes.is_empty(), "{codes:?}");
}

// -- corrupted IR is rejected, not compiled ----------------------------------

#[test]
fn type_corrupted_ir_is_rejected() {
    let mut t = Terra::new();
    t.capture_output();
    t.exec(
        r#"
        terra g() : int
            return 1
        end
        "#,
    )
    .expect("definition should stage");
    // Corrupt the cached IR behind the staging pipeline's back: retype the
    // return value as a float while the signature still says int.
    let interp = t.interp();
    let meta = &mut interp.ctx.funcs[0];
    assert_eq!(&*meta.name, "g");
    let spec = meta.spec.clone().expect("defined above");
    let _ = spec;
    meta.sig = Some(terra_core::FuncTy {
        params: vec![],
        ret: terra_core::Ty::INT,
    });
    meta.ir = Some(terra_ir::IrFunction {
        name: meta.name.as_ref().into(),
        ty: terra_core::FuncTy {
            params: vec![],
            ret: terra_core::Ty::INT,
        },
        locals: vec![],
        body: vec![terra_ir::StmtKind::Return(Some(terra_ir::IrExpr {
            ty: terra_core::Ty::F64,
            kind: terra_ir::ExprKind::ConstFloat(1.5),
        }))
        .into()],
        index_range: None,
    });
    let err = t
        .exec("print(g())")
        .expect_err("corrupted IR must not compile");
    let msg = err.to_string();
    assert!(msg.contains("IR verification failed"), "{msg}");
    assert!(msg.contains("type-mismatch"), "{msg}");
}

// -- sanitizer ---------------------------------------------------------------

#[test]
fn sanitizer_traps_use_after_free() {
    let src = r#"
        local C = terralib.includec("stdlib.h")
        terra uaf() : int
            var p : &int = [&int](C.malloc(16))
            @p = 42
            C.free(p)
            return @p
        end
        return uaf()
    "#;
    // Without the sanitizer the dangling read "works", like C.
    let mut plain = Terra::new();
    plain.capture_output();
    plain.exec(src).expect("plain run should succeed");
    // With it, the read traps with a descriptive error.
    let mut t = Terra::new();
    t.set_sanitize(true);
    t.capture_output();
    let err = t.exec(src).expect_err("sanitizer should trap");
    assert!(err.to_string().contains("use-after-free"), "{err}");
}
