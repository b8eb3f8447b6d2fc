//! # terra-orion
//!
//! Orion, the stencil DSL of §6.2 of the Terra paper: programs are
//! *image-wide operators* with constant offsets, so every stage is a
//! stencil, and the user picks a **schedule**: each intermediate image is
//! *materialized*, *inlined* or *line-buffered*, and any schedule can be
//! *vectorized* with Terra's vector types.
//!
//! As in the paper, Orion is a Lua library, [`ORION_SCRIPT`]: operator
//! overloading builds the image algebra, and each schedule stages Terra
//! with quotes, escapes and symbols. This crate wraps it: a [`Pipeline`]
//! holds each stage's Lua source, [`Pipeline::compile`] stages it under a
//! [`Schedule`], and [`ImageBuf`] holds padded zero-boundary images.
//!
//! ```
//! use terra_core::Terra;
//! use terra_orion::{ImageBuf, Pipeline, Schedule};
//! # fn main() -> Result<(), terra_core::LuaError> {
//! let mut t = Terra::new();
//! // diffuse-like kernel: average of the 4-neighborhood
//! let mut p = Pipeline::new(1);
//! p.stage("(input(0)(-1, 0) + input(0)(1, 0) + input(0)(0, -1) + input(0)(0, 1)) * 0.25");
//! let compiled = p.compile(&mut t, 16, 16, Schedule::match_c())?;
//! let img = ImageBuf::alloc(&mut t, &compiled);
//! let out = ImageBuf::alloc(&mut t, &compiled);
//! img.write(&mut t, &vec![1.0; 16 * 16]);
//! compiled.run(&mut t, &[&img], &out);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod fluid;

use terra_core::{LuaError, LuaValue, Terra, TerraFn, Value};

/// The Orion library, written in the staged language: the image algebra,
/// the three schedules and the fluid solver's kernels.
pub const ORION_SCRIPT: &str = include_str!("orion.lua");

/// Reference to a pipeline stage (in definition order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(pub usize);

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

    /// The arguments `orion.lua` takes for this schedule: the strategy's
    /// name and the vectorize flag.
    fn lua(&self) -> String {
        let strategy = format!("{:?}", self.strategy).to_lowercase();
        format!("\"{strategy}\", {}", self.vectorize)
    }
}

/// A pipeline of image stages; the last stage added is the output.
///
/// Each stage is an expression in Orion's Lua syntax: `input(k)` is source
/// image `k`, `stage(j)` an earlier stage, `f(dx, dy)` is `f` translated by
/// a constant offset, `+ - * /` take images and numbers on either side, and
/// `:min`, `:max` and `:clamp` are lane-wise.
#[derive(Debug, Clone)]
pub struct Pipeline {
    n_inputs: usize,
    stages: Vec<String>,
    inlined: Vec<usize>,
}

impl Pipeline {
    /// Creates a pipeline over `n_inputs` source images.
    pub fn new(n_inputs: usize) -> Pipeline {
        Pipeline {
            n_inputs,
            stages: Vec::new(),
            inlined: Vec::new(),
        }
    }

    /// Adds a stage written in Orion's Lua syntax; returns its id for use
    /// in later stages. [`Pipeline::compile`] reports a stage that names a
    /// later stage or an input out of range.
    pub fn stage(&mut self, src: &str) -> StageId {
        self.stages.push(src.to_string());
        StageId(self.stages.len() - 1)
    }

    /// Number of stages left to schedule (those not inlined).
    pub fn len(&self) -> usize {
        self.stages.len().saturating_sub(self.inlined.len())
    }

    /// Whether the pipeline has no stage to schedule.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a pipeline with the given stages inlined into their
    /// consumers (removed as materialization points) — per-stage scheduling,
    /// as in the paper where each Orion expression can individually be
    /// materialized, inlined, or line-buffered. The remaining stages are
    /// then scheduled by the global [`Strategy`]. Inlining the output stage
    /// is an error that [`Pipeline::compile`] reports.
    pub fn with_inlined(&self, inline: &[StageId]) -> Pipeline {
        let mut p = self.clone();
        p.inlined.extend(inline.iter().map(|s| s.0));
        p.inlined.sort_unstable();
        p.inlined.dedup();
        p
    }

    /// Stages the pipeline into a compiled Terra function for a `w`×`h`
    /// image and the given schedule.
    ///
    /// # Errors
    ///
    /// Returns the library's error for a stage that names a later stage or
    /// an input out of range, an empty pipeline, a vectorized schedule with
    /// `w` not a multiple of 8, or an inlined output stage; and any staging
    /// error.
    pub fn compile(
        &self,
        t: &mut Terra,
        w: usize,
        h: usize,
        schedule: Schedule,
    ) -> Result<CompiledStencil, LuaError> {
        let mut chunk = format!(
            "local input, stage = orion.input, orion.stage\nlocal p = orion.pipeline({})\n",
            self.n_inputs
        );
        chunk.extend(self.stages.iter().map(|s| format!("p:stage(\n{s}\n)\n")));
        chunk.extend(self.inlined.iter().map(|j| format!("p:inline({j})\n")));
        chunk += &format!(
            "local f, padding = p:compile({w}, {h}, {})\nreturn padding, f",
            schedule.lua()
        );
        let (padding, mut f) = stage_kernels(t, &chunk)?;
        Ok(CompiledStencil {
            f: f.remove(0),
            w,
            h,
            padding,
            n_inputs: self.n_inputs,
        })
    }
}

/// Runs `chunk` with the library loaded as `orion`. The chunk returns the
/// padding its buffers need, then the Terra functions it staged; each is
/// compiled here.
fn stage_kernels(t: &mut Terra, chunk: &str) -> Result<(usize, Vec<TerraFn>), LuaError> {
    t.register_module("lib/orion", ORION_SCRIPT);
    let prelude = "local orion = terralib.require(\"lib/orion\")\n";
    let out = t.exec(&(prelude.to_owned() + chunk));
    let mut out = out.map_err(|e| e.traced("orion"))?.into_iter();
    let Some(LuaValue::Number(padding)) = out.next() else {
        return Err(LuaError::msg("orion: the chunk returned no padding"));
    };
    let kernels = out
        .map(|f| {
            t.set_global("orion_kernel", f);
            t.function("orion_kernel")
        })
        .collect::<Result<Vec<_>, _>>()?;
    t.set_global("orion_kernel", LuaValue::Nil);
    Ok((padding as usize, kernels))
}

/// `v` as a Lua expression that evaluates to exactly `v`: `{:?}` prints the
/// shortest decimal that parses back to the same `f64`, and Lua has no
/// literal for the non-finite values.
fn lua_num(v: f64) -> String {
    match v {
        f64::INFINITY => "math.huge".into(),
        f64::NEG_INFINITY => "(-math.huge)".into(),
        _ if v.is_nan() => "(0/0)".into(),
        _ => format!("({v:?})"),
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
    let mut p = Pipeline::new(1);
    p.stage("(input(0)(0, -2) + input(0)(0, -1) + input(0)(0, 0) + input(0)(0, 1) + input(0)(0, 2)) * (1 / 5)");
    p.stage("(stage(0)(-2, 0) + stage(0)(-1, 0) + stage(0)(0, 0) + stage(0)(1, 0) + stage(0)(2, 0)) * (1 / 5)");
    p
}

/// The four point-wise kernels of §6.2 (blacklevel offset, brightness,
/// clamp, invert) as a chain — the inlining demonstration.
pub fn pointwise_pipeline(blacklevel: f64, brightness: f64) -> Pipeline {
    let mut p = Pipeline::new(1);
    p.stage(&format!("input(0) - {}", lua_num(blacklevel)));
    p.stage(&format!("stage(0) * {}", lua_num(brightness)));
    p.stage("stage(1):clamp(0, 1)");
    p.stage("1 - stage(2)");
    p
}

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, input, reference, stage_ref, E};

    /// A pipeline of `stages`, each staged from its printed Lua source.
    fn pipeline(n_inputs: usize, stages: &[E]) -> Pipeline {
        let mut p = Pipeline::new(n_inputs);
        for e in stages {
            p.stage(&e.to_string());
        }
        p
    }

    fn checker(w: usize, h: usize) -> Vec<f32> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                ((x + y) % 7) as f32 * 0.25
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "{what}: mismatch at {i}: {x} vs {y}");
        }
    }

    /// Runs `p` on `inputs` under `schedule`; returns the output image.
    fn run(p: &Pipeline, inputs: &[Vec<f32>], w: usize, h: usize, schedule: Schedule) -> Vec<f32> {
        let mut t = Terra::new();
        let c = p
            .compile(&mut t, w, h, schedule)
            .unwrap_or_else(|e| panic!("compile failed for {schedule:?}: {e}"));
        let bufs: Vec<ImageBuf> = inputs
            .iter()
            .map(|d| {
                let b = ImageBuf::alloc(&mut t, &c);
                b.write(&mut t, d);
                b
            })
            .collect();
        let out = ImageBuf::alloc(&mut t, &c);
        c.run(&mut t, &bufs.iter().collect::<Vec<_>>(), &out);
        out.read(&t)
    }

    fn run_all_schedules(p: &Pipeline, stages: &[E], w: usize, h: usize) {
        let input_data = checker(w, h);
        let expect = reference(stages, std::slice::from_ref(&input_data), w, h);
        for strategy in [
            Strategy::Materialize,
            Strategy::Inline,
            Strategy::LineBuffer,
        ] {
            for vectorize in [false, true] {
                let sched = Schedule {
                    strategy,
                    vectorize,
                };
                let got = run(p, std::slice::from_ref(&input_data), w, h, sched);
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
        run_all_schedules(&area_filter(), &reference::area_filter(), 32, 24);
    }

    #[test]
    fn pointwise_pipeline_all_schedules_agree() {
        run_all_schedules(
            &pointwise_pipeline(0.1, 1.4),
            &reference::pointwise(0.1, 1.4),
            16,
            16,
        );
    }

    #[test]
    fn single_stage_laplace() {
        let f = input(0);
        let lap = [f.at(-1, 0) + f.at(1, 0) + f.at(0, -1) + f.at(0, 1) - f.at(0, 0) * 4.0];
        run_all_schedules(&pipeline(1, &lap), &lap, 16, 16);
    }

    #[test]
    fn two_input_pipeline() {
        // diffuse-like: (in1 + 0.5*(in0(-1,0)+in0(1,0))) / 2
        let x = input(0);
        let x0 = input(1);
        let stages = [(x0 + (x.at(-1, 0) + x.at(1, 0)) * 0.5) * 0.5];
        let p = pipeline(2, &stages);
        let w = 16;
        let h = 8;
        let d0 = checker(w, h);
        let d1: Vec<f32> = d0.iter().map(|v| v * 2.0 + 0.25).collect();
        let data = [d0, d1];
        let expect = reference(&stages, &data, w, h);
        for strategy in [
            Strategy::Materialize,
            Strategy::Inline,
            Strategy::LineBuffer,
        ] {
            let sched = Schedule {
                strategy,
                vectorize: true,
            };
            let got = run(&p, &data, w, h, sched);
            assert_close(&got, &expect, 1e-4, &format!("{strategy:?}"));
        }
    }

    #[test]
    fn deep_chain_linebuffer() {
        // 4 chained vertical blurs — exercises multi-stage halos.
        let stages = reference::chain4();
        run_all_schedules(&pipeline(1, &stages), &stages, 16, 32);
    }

    #[test]
    fn clamp_and_minmax() {
        let stages = [(input(0) * 3.0).clamp(0.2, 0.9)];
        run_all_schedules(&pipeline(1, &stages), &stages, 16, 8);
    }

    #[test]
    fn non_multiple_strip_heights() {
        // h = 13 is not a multiple of the strip height.
        let data = [checker(16, 13)];
        let expect = reference(&reference::area_filter(), &data, 16, 13);
        let sched = Schedule {
            strategy: Strategy::LineBuffer,
            vectorize: false,
        };
        let got = run(&area_filter(), &data, 16, 13, sched);
        assert_close(&got, &expect, 1e-4, "strip remainder");
    }

    #[test]
    fn per_stage_inlining_preserves_semantics() {
        // Area filter with the y-pass inlined into the x-pass must equal the
        // two-stage version under every remaining strategy.
        let inlined = area_filter().with_inlined(&[StageId(0)]);
        assert_eq!(inlined.len(), 1);
        let data = [checker(24, 16)];
        let expect = reference(&reference::area_filter(), &data, 24, 16);
        for strategy in [Strategy::Materialize, Strategy::LineBuffer] {
            let sched = Schedule {
                strategy,
                vectorize: true,
            };
            let got = run(&inlined, &data, 24, 16, sched);
            assert_close(&got, &expect, 1e-4, "per-stage inline");
        }
    }

    #[test]
    fn partial_inlining_of_long_chain() {
        // 3-stage chain; inline only the middle stage.
        let stages = [
            (input(0).at(-1, 0) + input(0).at(1, 0)) * 0.5,
            stage_ref(0) * 2.0,
            stage_ref(1).at(0, -1) + stage_ref(1).at(0, 1),
        ];
        let q = pipeline(1, &stages).with_inlined(&[StageId(1)]);
        assert_eq!(q.len(), 2);
        let data = [checker(16, 16)];
        let expect = reference(&stages, &data, 16, 16);
        let got = run(&q, &data, 16, 16, Schedule::match_c());
        assert_close(&got, &expect, 1e-4, "partial inline");
    }

    /// Each misuse of the public API is an error from the library, not a
    /// panic.
    #[test]
    fn stage_validation() {
        let one_stage = |src: &str| {
            let mut p = Pipeline::new(1);
            p.stage(src);
            p
        };
        let vectorized = Schedule {
            strategy: Strategy::Materialize,
            vectorize: true,
        };
        let rows = [
            (
                "a stage names a later stage",
                one_stage("stage(5)"),
                16,
                Schedule::match_c(),
                "stage 5 referenced before definition",
            ),
            (
                "an input out of range",
                one_stage("input(3)"),
                16,
                Schedule::match_c(),
                "input 3 out of range",
            ),
            (
                "an empty pipeline",
                Pipeline::new(1),
                16,
                Schedule::match_c(),
                "pipeline has no stages",
            ),
            (
                "vectorize with w % 8 != 0",
                area_filter(),
                12,
                vectorized,
                "vectorized schedules require W % 8 == 0",
            ),
            (
                "the output stage inlined",
                area_filter().with_inlined(&[StageId(1)]),
                16,
                Schedule::match_c(),
                "the output stage cannot be inlined away",
            ),
        ];
        for (row, p, w, schedule, message) in rows {
            let mut t = Terra::new();
            match p.compile(&mut t, w, 16, schedule) {
                Ok(_) => panic!("{row}: compiled"),
                Err(e) => assert!(e.to_string().contains(message), "{row}: {e}"),
            }
        }
    }

    /// Every `f64` the wrapper writes into Lua source reads back as itself.
    #[test]
    fn lua_numbers_round_trip() {
        for v in [
            0.1,
            -0.1,
            1.0 / 3.0,
            -0.0,
            1e-7,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut t = Terra::new();
            let got = match t.exec(&format!("return {}", lua_num(v))).unwrap()[..] {
                [LuaValue::Number(n)] => n,
                ref other => panic!("{v:?}: {other:?}"),
            };
            assert!(
                got.to_bits() == v.to_bits() || (got.is_nan() && v.is_nan()),
                "{v:?} read back as {got:?}"
            );
        }
    }

    /// Non-finite constants stage as constants, written in Lua or passed
    /// from Rust.
    #[test]
    fn non_finite_constants_stage() {
        let one_stage = |src: &str| {
            let mut p = Pipeline::new(1);
            p.stage(src);
            p
        };
        let same: fn(f32, f32) -> bool = |x, y| y == x;
        let rows = [
            (one_stage("input(0):clamp(0, math.huge)"), same),
            (one_stage("input(0) * 0 + math.huge"), |_, y| {
                y == f32::INFINITY
            }),
            (one_stage("input(0) * 0 - math.huge"), |_, y| {
                y == f32::NEG_INFINITY
            }),
            (one_stage("input(0) * (0/0)"), |_, y| y.is_nan()),
            (pointwise_pipeline(f64::NEG_INFINITY, 1.0), |_, y| y == 0.0),
            (pointwise_pipeline(f64::INFINITY, 1.0), |_, y| y == 1.0),
        ];
        let data = [checker(16, 8)];
        for (i, (p, ok)) in rows.iter().enumerate() {
            let got = run(p, &data, 16, 8, Schedule::match_c());
            for (x, y) in data[0].iter().zip(&got) {
                assert!(ok(*x, *y), "row {i}: {x} -> {y}");
            }
        }
    }
}
