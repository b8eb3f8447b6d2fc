//! # terra-orion
//!
//! Orion, the stencil DSL of §6.2 of the Terra paper: programs are
//! *image-wide operators* with constant offsets (which guarantees every
//! stage is a stencil), and the user guides optimization by choosing a
//! **schedule** — each intermediate image can be *materialized*, *inlined*,
//! or *line-buffered*, and any schedule can additionally be *vectorized*
//! using Terra's vector types.
//!
//! This crate plays the role of the Lua front end in the paper: an
//! expression IR built by operator overloading ([`OrionExpr`]), a compiler
//! ([`Pipeline::compile`]) that stages Terra code for the chosen
//! [`Schedule`], and padded zero-boundary image buffers ([`ImageBuf`]).
//!
//! ```
//! use terra_core::Terra;
//! use terra_orion::{input, Pipeline, Schedule, Strategy, ImageBuf};
//! # fn main() -> Result<(), terra_core::LuaError> {
//! let mut t = Terra::new();
//! // diffuse-like kernel: average of the 4-neighborhood
//! let f = input(0);
//! let blur = (f.at(-1, 0) + f.at(1, 0) + f.at(0, -1) + f.at(0, 1)) * 0.25;
//! let mut p = Pipeline::new(1);
//! p.stage(blur);
//! let compiled = p.compile(
//!     &mut t, 16, 16,
//!     Schedule { strategy: Strategy::Materialize, vectorize: false },
//! )?;
//! let img = ImageBuf::alloc(&mut t, &compiled);
//! let out = ImageBuf::alloc(&mut t, &compiled);
//! img.write(&mut t, &vec![1.0; 16 * 16]);
//! compiled.run(&mut t, &[&img], &out);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod fluid;

use std::fmt::Write as _;
use std::ops::{Add, Div, Mul, Sub};
use std::rc::Rc;
use terra_core::{LuaError, Terra, TerraFn, Value};

/// Reference to a pipeline stage (in definition order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(pub usize);

/// Binary operators of the image algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// lane-wise minimum
    Min,
    /// lane-wise maximum
    Max,
}

/// An image-wide expression: the Orion IR. Offsets are compile-time
/// constants, which is what makes every program a stencil (paper §6.2).
#[derive(Debug, Clone)]
pub enum OrionExpr {
    /// Source image `k`, translated by `(dx, dy)`.
    In(usize, i32, i32),
    /// An earlier stage, translated by `(dx, dy)`.
    St(StageId, i32, i32),
    /// A constant.
    K(f64),
    /// A binary operation.
    Bin(Op, Rc<OrionExpr>, Rc<OrionExpr>),
}

/// An un-shifted reference to source image `k` (`f` in the paper's
/// examples).
pub fn input(k: usize) -> OrionExpr {
    OrionExpr::In(k, 0, 0)
}

/// An un-shifted reference to an earlier stage.
pub fn stage_ref(s: StageId) -> OrionExpr {
    OrionExpr::St(s, 0, 0)
}

/// A constant image.
pub fn k(v: f64) -> OrionExpr {
    OrionExpr::K(v)
}

impl OrionExpr {
    /// Translates the expression: `f.at(-1, 0)` is the paper's `f(-1,0)`.
    pub fn at(&self, dx: i32, dy: i32) -> OrionExpr {
        match self {
            OrionExpr::In(k, x, y) => OrionExpr::In(*k, x + dx, y + dy),
            OrionExpr::St(s, x, y) => OrionExpr::St(*s, x + dx, y + dy),
            OrionExpr::K(v) => OrionExpr::K(*v),
            OrionExpr::Bin(op, a, b) => {
                OrionExpr::Bin(*op, Rc::new(a.at(dx, dy)), Rc::new(b.at(dx, dy)))
            }
        }
    }

    /// Lane-wise minimum.
    pub fn min(self, other: OrionExpr) -> OrionExpr {
        OrionExpr::Bin(Op::Min, Rc::new(self), Rc::new(other))
    }

    /// Lane-wise maximum.
    pub fn max(self, other: OrionExpr) -> OrionExpr {
        OrionExpr::Bin(Op::Max, Rc::new(self), Rc::new(other))
    }

    /// Clamps to `[lo, hi]`.
    pub fn clamp(self, lo: f64, hi: f64) -> OrionExpr {
        self.max(k(lo)).min(k(hi))
    }

    fn radius(&self) -> i32 {
        match self {
            OrionExpr::In(_, dx, dy) | OrionExpr::St(_, dx, dy) => dx.abs().max(dy.abs()),
            OrionExpr::K(_) => 0,
            OrionExpr::Bin(_, a, b) => a.radius().max(b.radius()),
        }
    }
}

macro_rules! orion_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for OrionExpr {
            type Output = OrionExpr;
            fn $method(self, rhs: OrionExpr) -> OrionExpr {
                OrionExpr::Bin($op, Rc::new(self), Rc::new(rhs))
            }
        }
        impl $trait<f64> for OrionExpr {
            type Output = OrionExpr;
            fn $method(self, rhs: f64) -> OrionExpr {
                OrionExpr::Bin($op, Rc::new(self), Rc::new(OrionExpr::K(rhs)))
            }
        }
        impl $trait<OrionExpr> for f64 {
            type Output = OrionExpr;
            fn $method(self, rhs: OrionExpr) -> OrionExpr {
                OrionExpr::Bin($op, Rc::new(OrionExpr::K(self)), Rc::new(rhs))
            }
        }
    };
}

orion_binop!(Add, add, Op::Add);
orion_binop!(Sub, sub, Op::Sub);
orion_binop!(Mul, mul, Op::Mul);
orion_binop!(Div, div, Op::Div);

/// How intermediate stages are stored (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Every stage computed once into a full-sized buffer.
    Materialize,
    /// Intermediates recomputed per use inside the final loop.
    Inline,
    /// Stages interleaved over horizontal strips; intermediates live in a
    /// small scratchpad (overlapped-tiling realization of line buffering).
    LineBuffer,
}

/// A complete schedule: storage strategy × vectorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Intermediate storage strategy.
    pub strategy: Strategy,
    /// Use 8-wide f32 vector instructions for the x loops.
    pub vectorize: bool,
}

impl Schedule {
    /// The schedule that matches hand-written C (scalar, materialized).
    pub fn match_c() -> Schedule {
        Schedule {
            strategy: Strategy::Materialize,
            vectorize: false,
        }
    }
}

/// Strip height for the line-buffer schedule (large enough that the
/// overlapped-halo recompute is a small fraction of the strip).
const STRIP: usize = 64;
/// Vector width (8 × f32 = 256-bit).
const VW: usize = 8;

/// A pipeline of image stages; the last stage added is the output.
#[derive(Debug, Clone)]
pub struct Pipeline {
    n_inputs: usize,
    stages: Vec<OrionExpr>,
}

impl Pipeline {
    /// Creates a pipeline over `n_inputs` source images.
    pub fn new(n_inputs: usize) -> Pipeline {
        Pipeline {
            n_inputs,
            stages: Vec::new(),
        }
    }

    /// Adds a stage; returns its id for use in later stages.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a not-yet-defined stage or an
    /// out-of-range input.
    pub fn stage(&mut self, e: OrionExpr) -> StageId {
        fn check(e: &OrionExpr, n_inputs: usize, n_stages: usize) {
            match e {
                OrionExpr::In(k, ..) => assert!(*k < n_inputs, "input {k} out of range"),
                OrionExpr::St(s, ..) => {
                    assert!(s.0 < n_stages, "stage {} referenced before definition", s.0)
                }
                OrionExpr::K(_) => {}
                OrionExpr::Bin(_, a, b) => {
                    check(a, n_inputs, n_stages);
                    check(b, n_inputs, n_stages);
                }
            }
        }
        check(&e, self.n_inputs, self.stages.len());
        self.stages.push(e);
        StageId(self.stages.len() - 1)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Returns a pipeline with the given stages inlined into their
    /// consumers (removed as materialization points) — per-stage scheduling,
    /// as in the paper where each Orion expression can individually be
    /// materialized, inlined, or line-buffered. The remaining stages are
    /// then scheduled by the global [`Strategy`].
    ///
    /// # Panics
    ///
    /// Panics if the output stage is requested to be inlined.
    pub fn with_inlined(&self, inline: &[StageId]) -> Pipeline {
        let last = self.stages.len() - 1;
        assert!(
            inline.iter().all(|s| s.0 != last),
            "the output stage cannot be inlined away"
        );
        let inline_set: std::collections::HashSet<usize> = inline.iter().map(|s| s.0).collect();
        // Rewrite each kept stage, substituting inlined stages (with offset
        // accumulation) and renumbering references.
        let mut keep_index = vec![usize::MAX; self.stages.len()];
        let mut out = Pipeline::new(self.n_inputs);
        fn rewrite(
            p: &Pipeline,
            inline_set: &std::collections::HashSet<usize>,
            keep_index: &[usize],
            e: &OrionExpr,
            dx: i32,
            dy: i32,
        ) -> OrionExpr {
            match e {
                OrionExpr::In(k, x, y) => OrionExpr::In(*k, x + dx, y + dy),
                OrionExpr::K(v) => OrionExpr::K(*v),
                OrionExpr::St(sid, x, y) => {
                    if inline_set.contains(&sid.0) {
                        rewrite(p, inline_set, keep_index, &p.stages[sid.0], x + dx, y + dy)
                    } else {
                        OrionExpr::St(StageId(keep_index[sid.0]), x + dx, y + dy)
                    }
                }
                OrionExpr::Bin(op, a, b) => OrionExpr::Bin(
                    *op,
                    Rc::new(rewrite(p, inline_set, keep_index, a, dx, dy)),
                    Rc::new(rewrite(p, inline_set, keep_index, b, dx, dy)),
                ),
            }
        }
        for (i, st) in self.stages.iter().enumerate() {
            if inline_set.contains(&i) {
                continue;
            }
            let e = rewrite(self, &inline_set, &keep_index, st, 0, 0);
            keep_index[i] = out.stage(e).0;
        }
        out
    }

    /// Total padding required around every buffer so that no read, however
    /// scheduled, leaves the allocation: enough for every stage's halo
    /// region plus its own read radius, rounded up for vector alignment.
    pub fn padding(&self) -> usize {
        let (halo, xhalo) = self.halos();
        let mut need = 8i32;
        for (i, st) in self.stages.iter().enumerate() {
            let r = st.radius();
            need = need.max(xhalo[i] + r).max(halo[i] + r);
        }
        (need as usize).div_ceil(8) * 8
    }

    /// Per-stage y-halos: rows beyond the output region each intermediate
    /// must be computed on (sum of downstream radii), and the 8-aligned
    /// x-halos used by vectorized loops.
    fn halos(&self) -> (Vec<i32>, Vec<i32>) {
        let n = self.stages.len();
        let radii: Vec<i32> = self.stages.iter().map(|e| e.radius()).collect();
        let mut halo = vec![0i32; n];
        let mut xhalo = vec![0i32; n];
        for i in (0..n.saturating_sub(1)).rev() {
            halo[i] = halo[i + 1] + radii[i + 1];
            xhalo[i] = (xhalo[i + 1] + radii[i + 1] + 7) / 8 * 8;
        }
        (halo, xhalo)
    }

    /// Stages the pipeline into a compiled Terra function for a `w`×`h`
    /// image and the given schedule.
    ///
    /// # Errors
    ///
    /// Propagates staging errors (a bug in code generation).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has no stages, or if `vectorize` is requested
    /// with `w` not divisible by 8.
    pub fn compile(
        &self,
        t: &mut Terra,
        w: usize,
        h: usize,
        schedule: Schedule,
    ) -> Result<CompiledStencil, LuaError> {
        self.compile_padded(t, w, h, schedule, self.padding())
    }

    /// Like [`Pipeline::compile`] but with an explicit (larger) padding, so
    /// that several pipelines can share buffers (the fluid solver does this).
    ///
    /// # Errors
    ///
    /// Propagates staging errors.
    ///
    /// # Panics
    ///
    /// Panics if `padding` is smaller than [`Pipeline::padding`].
    pub fn compile_padded(
        &self,
        t: &mut Terra,
        w: usize,
        h: usize,
        schedule: Schedule,
        padding: usize,
    ) -> Result<CompiledStencil, LuaError> {
        assert!(!self.stages.is_empty(), "pipeline has no stages");
        assert!(padding >= self.padding(), "padding too small for pipeline");
        if schedule.vectorize {
            assert!(
                w.is_multiple_of(VW),
                "vectorized schedules require W % 8 == 0"
            );
        }
        let src = self.codegen_at(w, h, schedule, padding);
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("__orion_{id}");
        t.exec(&format!("{name} = (function()\n{src}\nend)()"))
            .map_err(|e| e.traced("orion-generated code"))?;
        let f = t.function(&name)?;
        Ok(CompiledStencil {
            f,
            w,
            h,
            padding,
            n_inputs: self.n_inputs,
            source: src,
        })
    }

    // -- code generation ----------------------------------------------------

    fn codegen_at(&self, w: usize, h: usize, schedule: Schedule, p: usize) -> String {
        let s = w + 2 * p; // stride
        let mut out = String::new();
        let _ = writeln!(out, "local std = terralib.includec(\"stdlib.h\")");
        let _ = writeln!(out, "local v8 = vector(float, 8)");
        let _ = writeln!(out, "local pv8 = &v8");
        let mut params: Vec<String> = (0..self.n_inputs)
            .map(|i| format!("in{i} : &float"))
            .collect();
        params.push("out : &float".to_string());
        let _ = writeln!(out, "return terra({})", params.join(", "));
        match schedule.strategy {
            Strategy::Inline => self.gen_inline(&mut out, w, h, p, s, schedule.vectorize),
            Strategy::Materialize => self.gen_materialize(&mut out, w, h, p, s, schedule.vectorize),
            Strategy::LineBuffer => self.gen_linebuffer(&mut out, w, h, p, s, schedule.vectorize),
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Fully-inlined single loop: every stage substituted into the output
    /// expression with accumulated offsets.
    fn gen_inline(&self, out: &mut String, w: usize, h: usize, p: usize, s: usize, vec: bool) {
        let expr = self.resolve_inline(self.stages.len() - 1, 0, 0);
        let body = emit_expr(&expr, s as i32, vec);
        emit_loop(out, "out", w, h, p, s, vec, &body, 1);
    }

    fn resolve_inline(&self, stage: usize, dx: i32, dy: i32) -> OrionExpr {
        fn go(p: &Pipeline, e: &OrionExpr, dx: i32, dy: i32) -> OrionExpr {
            match e {
                OrionExpr::In(k, x, y) => OrionExpr::In(*k, x + dx, y + dy),
                OrionExpr::K(v) => OrionExpr::K(*v),
                OrionExpr::St(sid, x, y) => p.resolve_inline(sid.0, x + dx, y + dy),
                OrionExpr::Bin(op, a, b) => {
                    OrionExpr::Bin(*op, Rc::new(go(p, a, dx, dy)), Rc::new(go(p, b, dx, dy)))
                }
            }
        }
        go(self, &self.stages[stage], dx, dy)
    }

    /// One full-sized buffer and loop per stage — what a straightforward C
    /// implementation would do. Intermediates are computed over their halo
    /// region so that boundary conditions apply only at the source images.
    fn gen_materialize(&self, out: &mut String, w: usize, h: usize, p: usize, s: usize, vec: bool) {
        let bytes = s * (h + 2 * p) * 4;
        let n = self.stages.len();
        let (halo, xhalo) = self.halos();
        for i in 0..n - 1 {
            let _ = writeln!(out, "  var st{i} = [&float](std.malloc({bytes}))");
            let _ = writeln!(out, "  std.memset([&uint8](st{i}), 0, {bytes})");
        }
        for (i, stage) in self.stages.iter().enumerate() {
            let dst = if i == n - 1 {
                "out".to_string()
            } else {
                format!("st{i}")
            };
            let body = emit_expr(stage, s as i32, vec);
            let (hy, hx) = (halo[i], xhalo[i]);
            let pad = "  ";
            let _ = writeln!(out, "{pad}for y = {}, {} do", -hy, h as i32 + hy);
            let _ = writeln!(out, "{pad}  var inrow = (y + {p}) * {s} + {p}");
            emit_x_loop_range(out, &dst, "inrow", -hx, w as i32 + hx, vec, &body, 2);
            let _ = writeln!(out, "{pad}end");
        }
        for i in 0..n - 1 {
            let _ = writeln!(out, "  std.free(st{i})");
        }
    }

    /// Strip-interleaved execution: intermediates live in small scratch
    /// buffers of `STRIP + 2·halo` rows; strips recompute halo rows
    /// (overlapped tiling), trading a little compute for the memory-traffic
    /// profile of classic line buffering.
    fn gen_linebuffer(&self, out: &mut String, w: usize, h: usize, p: usize, s: usize, vec: bool) {
        let n = self.stages.len();
        let (halo, xhalo) = self.halos();
        let scratch_rows: Vec<usize> = halo.iter().map(|h_| STRIP + 2 * (*h_ as usize)).collect();
        for (i, rows) in scratch_rows.iter().enumerate().take(n - 1) {
            let bytes = s * rows * 4;
            let _ = writeln!(out, "  var st{i} = [&float](std.malloc({bytes}))");
            let _ = writeln!(out, "  std.memset([&uint8](st{i}), 0, {bytes})");
        }
        let _ = writeln!(out, "  for y0 = 0, {h}, {STRIP} do");
        for (i, stage) in self.stages.iter().enumerate() {
            let is_out = i == n - 1;
            let (lo, hi) = if is_out {
                ("y0".to_string(), format!("terralib.min(y0 + {STRIP}, {h})"))
            } else {
                (
                    format!("y0 - {}", halo[i]),
                    format!(
                        "terralib.min(y0 + {}, {} + {})",
                        STRIP + halo[i] as usize,
                        h,
                        halo[i]
                    ),
                )
            };
            let _ = writeln!(out, "    for y = {lo}, {hi} do");
            // Row-base variables: `inrow` addresses full padded buffers,
            // `scr<j>` addresses stage j's scratch (its own row mapping:
            // absolute row y lives in slot y - y0 + halo_j).
            let _ = writeln!(out, "      var inrow = (y + {p}) * {s} + {p}");
            for (j, h_j) in halo.iter().enumerate().take(i) {
                let _ = writeln!(out, "      var scr{j} = (y - y0 + {h_j}) * {s} + {p}");
            }
            let dst_base = if is_out {
                "inrow".to_string()
            } else {
                let _ = writeln!(out, "      var scrd = (y - y0 + {}) * {s} + {p}", halo[i]);
                "scrd".to_string()
            };
            let dst = if is_out {
                "out".to_string()
            } else {
                format!("st{i}")
            };
            let body = emit_expr_with_bases(
                stage,
                s as i32,
                vec,
                &|kk| (format!("in{kk}"), "inrow".to_string()),
                &|sid| (format!("st{}", sid.0), format!("scr{}", sid.0)),
            );
            let hx = if is_out { 0 } else { xhalo[i] };
            emit_x_loop_range(out, &dst, &dst_base, -hx, w as i32 + hx, vec, &body, 3);
            let _ = writeln!(out, "    end");
        }
        let _ = writeln!(out, "  end");
        for i in 0..n - 1 {
            let _ = writeln!(out, "  std.free(st{i})");
        }
    }
}

/// Emits the standard y/x loop nest writing `dst[(y+p)*s + p + x]`.
#[allow(clippy::too_many_arguments)]
fn emit_loop(
    out: &mut String,
    dst: &str,
    w: usize,
    h: usize,
    p: usize,
    s: usize,
    vec: bool,
    body: &str,
    indent: usize,
) {
    let pad = "  ".repeat(indent);
    let _ = writeln!(out, "{pad}for y = 0, {h} do");
    let _ = writeln!(out, "{pad}  var inrow = (y + {p}) * {s} + {p}");
    emit_x_loop_range(out, dst, "inrow", 0, w as i32, vec, body, indent + 1);
    let _ = writeln!(out, "{pad}end");
}

/// Emits an x loop over `[lo, hi)` (scalar or vector) storing `body` into
/// `dst[dst_base + x]`. Vector loops require `(hi - lo) % 8 == 0`, which the
/// 8-aligned halos guarantee.
#[allow(clippy::too_many_arguments)]
fn emit_x_loop_range(
    out: &mut String,
    dst: &str,
    dst_base: &str,
    lo: i32,
    hi: i32,
    vec: bool,
    body: &str,
    indent: usize,
) {
    let pad = "  ".repeat(indent);
    if vec {
        let _ = writeln!(out, "{pad}for x = {lo}, {hi}, {VW} do");
        let _ = writeln!(out, "{pad}  @pv8(&{dst}[{dst_base} + x]) = {body}");
        let _ = writeln!(out, "{pad}end");
    } else {
        let _ = writeln!(out, "{pad}for x = {lo}, {hi} do");
        let _ = writeln!(out, "{pad}  {dst}[{dst_base} + x] = {body}");
        let _ = writeln!(out, "{pad}end");
    }
}

/// Renders an Orion expression as Terra source; reads are relative to the
/// row-base variable `inrow`.
fn emit_expr(e: &OrionExpr, stride: i32, vec: bool) -> String {
    emit_expr_with_bases(
        e,
        stride,
        vec,
        &|k| (format!("in{k}"), "inrow".to_string()),
        &|s| (format!("st{}", s.0), "inrow".to_string()),
    )
}

fn emit_expr_with_bases(
    e: &OrionExpr,
    stride: i32,
    vec: bool,
    in_ref: &dyn Fn(usize) -> (String, String),
    st_ref: &dyn Fn(StageId) -> (String, String),
) -> String {
    let read = |name: String, base: String, dx: i32, dy: i32| -> String {
        let off = dy * stride + dx;
        let idx = if off == 0 {
            format!("{base} + x")
        } else {
            format!("{base} + x + {off}")
        };
        if vec {
            format!("(@pv8(&{name}[{idx}]))")
        } else {
            format!("{name}[{idx}]")
        }
    };
    match e {
        OrionExpr::In(k, dx, dy) => {
            let (name, base) = in_ref(*k);
            read(name, base, *dx, *dy)
        }
        OrionExpr::St(sid, dx, dy) => {
            let (name, base) = st_ref(*sid);
            read(name, base, *dx, *dy)
        }
        OrionExpr::K(v) => format!("{v:?}f"),
        OrionExpr::Bin(op, a, b) => {
            let a = emit_expr_with_bases(a, stride, vec, in_ref, st_ref);
            let b = emit_expr_with_bases(b, stride, vec, in_ref, st_ref);
            match op {
                Op::Add => format!("({a} + {b})"),
                Op::Sub => format!("({a} - {b})"),
                Op::Mul => format!("({a} * {b})"),
                Op::Div => format!("({a} / {b})"),
                Op::Min => format!("terralib.min({a}, {b})"),
                Op::Max => format!("terralib.max({a}, {b})"),
            }
        }
    }
}

/// A compiled stencil pipeline.
pub struct CompiledStencil {
    f: TerraFn,
    /// Image width (interior).
    pub w: usize,
    /// Image height (interior).
    pub h: usize,
    /// Padding baked into every buffer.
    pub padding: usize,
    /// Number of source images.
    pub n_inputs: usize,
    /// The generated Terra source (useful for inspection/tests).
    pub source: String,
}

impl CompiledStencil {
    /// Runs the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on input-count mismatch, buffer geometry mismatch, or a VM
    /// trap (all indicate a harness bug).
    pub fn run(&self, t: &mut Terra, inputs: &[&ImageBuf], out: &ImageBuf) {
        assert_eq!(inputs.len(), self.n_inputs, "input count mismatch");
        for b in inputs.iter().chain([&out]) {
            assert_eq!(
                (b.w, b.h, b.padding),
                (self.w, self.h, self.padding),
                "buffer geometry mismatch"
            );
        }
        let mut args: Vec<Value> = inputs.iter().map(|b| Value::Ptr(b.addr)).collect();
        args.push(Value::Ptr(out.addr));
        t.invoke(&self.f, &args).expect("stencil kernel trapped");
    }
}

/// A padded, zero-boundary f32 image in Terra memory.
#[derive(Debug, Clone, Copy)]
pub struct ImageBuf {
    /// Base address of the padded allocation.
    pub addr: u64,
    /// Interior width.
    pub w: usize,
    /// Interior height.
    pub h: usize,
    /// Padding on each side.
    pub padding: usize,
}

impl ImageBuf {
    /// Allocates a zeroed buffer matching a compiled pipeline's geometry.
    pub fn alloc(t: &mut Terra, c: &CompiledStencil) -> ImageBuf {
        Self::alloc_raw(t, c.w, c.h, c.padding)
    }

    /// Allocates a zeroed buffer with explicit geometry.
    pub fn alloc_raw(t: &mut Terra, w: usize, h: usize, padding: usize) -> ImageBuf {
        let s = w + 2 * padding;
        let total = s * (h + 2 * padding);
        let addr = t.malloc((total * 4) as u64);
        t.write_f32s(addr, &vec![0.0; total]);
        ImageBuf {
            addr,
            w,
            h,
            padding,
        }
    }

    fn stride(&self) -> usize {
        self.w + 2 * self.padding
    }

    /// Writes row-major interior data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != w*h`.
    pub fn write(&self, t: &mut Terra, data: &[f32]) {
        assert_eq!(data.len(), self.w * self.h);
        let s = self.stride();
        let p = self.padding;
        for y in 0..self.h {
            let row = &data[y * self.w..(y + 1) * self.w];
            let addr = self.addr + (((y + p) * s + p) * 4) as u64;
            t.write_f32s(addr, row);
        }
    }

    /// Reads the interior back.
    pub fn read(&self, t: &Terra) -> Vec<f32> {
        let s = self.stride();
        let p = self.padding;
        let mut out = Vec::with_capacity(self.w * self.h);
        for y in 0..self.h {
            let addr = self.addr + (((y + p) * s + p) * 4) as u64;
            out.extend(t.read_f32s(addr, self.w));
        }
        out
    }
}

/// The separable 5×5 area filter from §6.2: a 1-D average in y, then in x.
pub fn area_filter() -> Pipeline {
    let f = input(0);
    let mut p = Pipeline::new(1);
    let pass_y = (f.at(0, -2) + f.at(0, -1) + f.at(0, 0) + f.at(0, 1) + f.at(0, 2)) * (1.0 / 5.0);
    let y = p.stage(pass_y);
    let g = stage_ref(y);
    let pass_x = (g.at(-2, 0) + g.at(-1, 0) + g.at(0, 0) + g.at(1, 0) + g.at(2, 0)) * (1.0 / 5.0);
    p.stage(pass_x);
    p
}

/// The four point-wise kernels of §6.2 (blacklevel offset, brightness,
/// clamp, invert) as a chain — the inlining demonstration.
pub fn pointwise_pipeline(blacklevel: f64, brightness: f64) -> Pipeline {
    let mut p = Pipeline::new(1);
    let a = p.stage(input(0) - blacklevel);
    let b = p.stage(stage_ref(a) * brightness);
    let c = p.stage(stage_ref(b).clamp(0.0, 1.0));
    p.stage(1.0 - stage_ref(c));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(w: usize, h: usize) -> Vec<f32> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                ((x + y) % 7) as f32 * 0.25
            })
            .collect()
    }

    /// Host-side reference: boundary conditions apply at source images
    /// only, so every schedule must equal the fully-inlined evaluation.
    fn reference(p: &Pipeline, inputs: &[Vec<f32>], w: usize, h: usize) -> Vec<f32> {
        fn eval(inputs: &[Vec<f32>], e: &OrionExpr, x: i32, y: i32, w: i32, h: i32) -> f32 {
            match e {
                OrionExpr::In(k, dx, dy) => {
                    let (x, y) = (x + dx, y + dy);
                    if x < 0 || y < 0 || x >= w || y >= h {
                        0.0
                    } else {
                        inputs[*k][(y * w + x) as usize]
                    }
                }
                OrionExpr::St(..) => unreachable!("resolved"),
                OrionExpr::K(v) => *v as f32,
                OrionExpr::Bin(op, a, b) => {
                    let a = eval(inputs, a, x, y, w, h);
                    let b = eval(inputs, b, x, y, w, h);
                    match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        Op::Mul => a * b,
                        Op::Div => a / b,
                        Op::Min => a.min(b),
                        Op::Max => a.max(b),
                    }
                }
            }
        }
        let expr = p.resolve_inline(p.stages.len() - 1, 0, 0);
        let mut buf = vec![0.0f32; w * h];
        for y in 0..h {
            for x in 0..w {
                buf[y * w + x] = eval(inputs, &expr, x as i32, y as i32, w as i32, h as i32);
            }
        }
        buf
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "{what}: mismatch at {i}: {x} vs {y}");
        }
    }

    fn run_all_schedules(p: &Pipeline, w: usize, h: usize) {
        let input_data = checker(w, h);
        let expect = reference(p, std::slice::from_ref(&input_data), w, h);
        for strategy in [
            Strategy::Materialize,
            Strategy::Inline,
            Strategy::LineBuffer,
        ] {
            for vectorize in [false, true] {
                let mut t = Terra::new();
                let sched = Schedule {
                    strategy,
                    vectorize,
                };
                let c = p
                    .compile(&mut t, w, h, sched)
                    .unwrap_or_else(|e| panic!("compile failed for {strategy:?}/{vectorize}: {e}"));
                let img = ImageBuf::alloc(&mut t, &c);
                let out = ImageBuf::alloc(&mut t, &c);
                img.write(&mut t, &input_data);
                c.run(&mut t, &[&img], &out);
                let got = out.read(&t);
                assert_close(
                    &got,
                    &expect,
                    1e-4,
                    &format!("{strategy:?} vectorize={vectorize}"),
                );
            }
        }
    }

    #[test]
    fn area_filter_all_schedules_agree() {
        run_all_schedules(&area_filter(), 32, 24);
    }

    #[test]
    fn pointwise_pipeline_all_schedules_agree() {
        run_all_schedules(&pointwise_pipeline(0.1, 1.4), 16, 16);
    }

    #[test]
    fn single_stage_laplace() {
        let f = input(0);
        let lap = f.at(-1, 0) + f.at(1, 0) + f.at(0, -1) + f.at(0, 1) - f.at(0, 0) * 4.0;
        let mut p = Pipeline::new(1);
        p.stage(lap);
        run_all_schedules(&p, 16, 16);
    }

    #[test]
    fn two_input_pipeline() {
        // diffuse-like: (in1 + 0.5*(in0(-1,0)+in0(1,0))) / 2
        let x = input(0);
        let x0 = input(1);
        let mut p = Pipeline::new(2);
        p.stage((x0 + (x.at(-1, 0) + x.at(1, 0)) * 0.5) * 0.5);
        let w = 16;
        let h = 8;
        let d0 = checker(w, h);
        let d1: Vec<f32> = d0.iter().map(|v| v * 2.0 + 0.25).collect();
        let expect = reference(&p, &[d0.clone(), d1.clone()], w, h);
        for strategy in [
            Strategy::Materialize,
            Strategy::Inline,
            Strategy::LineBuffer,
        ] {
            let mut t = Terra::new();
            let c = p
                .compile(
                    &mut t,
                    w,
                    h,
                    Schedule {
                        strategy,
                        vectorize: true,
                    },
                )
                .unwrap();
            let b0 = ImageBuf::alloc(&mut t, &c);
            let b1 = ImageBuf::alloc(&mut t, &c);
            let out = ImageBuf::alloc(&mut t, &c);
            b0.write(&mut t, &d0);
            b1.write(&mut t, &d1);
            c.run(&mut t, &[&b0, &b1], &out);
            assert_close(&out.read(&t), &expect, 1e-4, &format!("{strategy:?}"));
        }
    }

    #[test]
    fn deep_chain_linebuffer() {
        // 4 chained vertical blurs — exercises multi-stage halos.
        let mut p = Pipeline::new(1);
        let mut prev = p.stage((input(0).at(0, -1) + input(0).at(0, 1)) * 0.5);
        for _ in 0..3 {
            let e = (stage_ref(prev).at(0, -1) + stage_ref(prev).at(0, 1)) * 0.5;
            prev = p.stage(e);
        }
        run_all_schedules(&p, 16, 32);
    }

    #[test]
    fn clamp_and_minmax() {
        let mut p = Pipeline::new(1);
        p.stage((input(0) * 3.0).clamp(0.2, 0.9));
        run_all_schedules(&p, 16, 8);
    }

    #[test]
    fn non_multiple_strip_heights() {
        // h = 13 is not a multiple of the strip height 8.
        let p = area_filter();
        let input_data = checker(16, 13);
        let expect = reference(&p, std::slice::from_ref(&input_data), 16, 13);
        let mut t = Terra::new();
        let c = p
            .compile(
                &mut t,
                16,
                13,
                Schedule {
                    strategy: Strategy::LineBuffer,
                    vectorize: false,
                },
            )
            .unwrap();
        let img = ImageBuf::alloc(&mut t, &c);
        let out = ImageBuf::alloc(&mut t, &c);
        img.write(&mut t, &input_data);
        c.run(&mut t, &[&img], &out);
        assert_close(&out.read(&t), &expect, 1e-4, "strip remainder");
    }

    #[test]
    fn per_stage_inlining_preserves_semantics() {
        // Area filter with the y-pass inlined into the x-pass must equal the
        // two-stage version under every remaining strategy.
        let p = area_filter();
        let inlined = p.with_inlined(&[StageId(0)]);
        assert_eq!(inlined.len(), 1);
        let data = checker(24, 16);
        let expect = reference(&p, std::slice::from_ref(&data), 24, 16);
        for strategy in [Strategy::Materialize, Strategy::LineBuffer] {
            let mut t = Terra::new();
            let c = inlined
                .compile(
                    &mut t,
                    24,
                    16,
                    Schedule {
                        strategy,
                        vectorize: true,
                    },
                )
                .unwrap();
            let img = ImageBuf::alloc(&mut t, &c);
            let out = ImageBuf::alloc(&mut t, &c);
            img.write(&mut t, &data);
            c.run(&mut t, &[&img], &out);
            assert_close(&out.read(&t), &expect, 1e-4, "per-stage inline");
        }
    }

    #[test]
    fn partial_inlining_of_long_chain() {
        // 3-stage chain; inline only the middle stage.
        let mut p = Pipeline::new(1);
        let a = p.stage((input(0).at(-1, 0) + input(0).at(1, 0)) * 0.5);
        let b = p.stage(stage_ref(a) * 2.0);
        p.stage(stage_ref(b).at(0, -1) + stage_ref(b).at(0, 1));
        let q = p.with_inlined(&[b]);
        assert_eq!(q.len(), 2);
        let data = checker(16, 16);
        let expect = reference(&p, std::slice::from_ref(&data), 16, 16);
        let mut t = Terra::new();
        let c = q.compile(&mut t, 16, 16, Schedule::match_c()).unwrap();
        let img = ImageBuf::alloc(&mut t, &c);
        let out = ImageBuf::alloc(&mut t, &c);
        img.write(&mut t, &data);
        c.run(&mut t, &[&img], &out);
        assert_close(&out.read(&t), &expect, 1e-4, "partial inline");
    }

    #[test]
    fn stage_validation() {
        let mut p = Pipeline::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.stage(stage_ref(StageId(5)));
        }));
        assert!(r.is_err());
    }
}
