//! The mid-end: an explicit pass manager over the typed IR.
//!
//! The IR→bytecode path runs every function through a pipeline of
//! independent transform passes selected by an [`OptLevel`]:
//!
//! | level | pipeline |
//! |-------|----------|
//! | `-O0` | none — the typechecker's IR compiles as-is |
//! | `-O1` | fold → copyprop → dce |
//! | `-O2` | inline → fold → unroll → affine → licm → copyprop → dce → checkelim |
//!
//! `fold` is the one expression rewriter: each node, bottom-up, evaluates
//! its constant operands and then applies its kind's algebraic identities
//! and strength reductions (the module lists them).
//!
//! Every pass must preserve *observable semantics*: outputs, stores, traps
//! (including which trap fires first), and calls. The shared vocabulary for
//! that contract lives in [`util`]: a pass may delete or duplicate only
//! [pure](util::expr_is_pure) computation and may cache/reuse only
//! [stable](util::expr_is_stable) values.
//!
//! `affine` (its module has the argument in full) reassociates the address
//! of every load, store and copy into `base + Σ cᵢ·tᵢ + d`, terms ordered
//! by the loop that last changes them, so that `licm` finds each prefix
//! invariant. It is exact because an address is a sum in wrapping 64-bit
//! arithmetic, a ring; the narrow-integer operations it looks through are
//! those the abstract interpreter proves cannot leave their type — the
//! proof that elides their `trunc` — and it consumes nothing else, nothing
//! at all with [`PassConfig::elide_checks`] off. It runs after `unroll` and
//! before `licm` (which does the hoisting) and `checkelim` (which proves the
//! accesses in the form they are compiled in).
//!
//! Each pass earns its slot: EXPERIMENTS.md A23 gives what the benchmark
//! workloads, the examples and Orion's goldens retire with each one
//! skipped, and what it costs on `staging-heavy`.
//!
//! `unroll` replaces a `for` whose bounds `fold` made constants with one
//! folded copy of its body per iterate, within [`MAX_UNROLL_GROWTH`] nodes
//! per loop, measured after `fold` rewrote the body. It runs once, so that
//! every later pass sees the copies: the loop's compare and branch are
//! gone, and `affine` turns the constant index offsets into load
//! displacements.
//!
//! **Verifier invariant:** a function that verifies going into the pipeline
//! must verify coming out of it. Each pass reports whether it rewrote
//! anything ([`PassRun::changed`] is the pass's own word, not a comparison
//! of snapshots), and the pipeline's result is verified once, after the last
//! pass, whatever the passes reported. A violation is a compiler bug. Debug
//! builds additionally verify after every pass that reported a change and
//! panic naming it; release builds fall back to the function's input IR —
//! the `-O0` code — discarding the pipeline's rewrites and remarks,
//! preferring slower correct code over a miscompile.
//!
//! Per-pass wall-clock timings are returned in [`PassStats`] so the driver
//! can emit one trace span per pass (`--profile` shows where compile time
//! goes).

mod affine;
mod checkelim;
mod copyprop;
mod dce;
pub mod fold;
mod inline;
mod licm;
mod unroll;
pub mod util;

use crate::analysis::{verify_function, ModuleEnv, Summaries};
use crate::ir::{FuncId, IrFunction};
use crate::types::TypeRegistry;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use terra_syntax::Provenance;

pub use inline::{MAX_CALLEE_NODES, MAX_CALLER_GROWTH};
pub use unroll::MAX_UNROLL_GROWTH;

/// How hard the mid-end works on each function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// No transformations: compile the typechecker's IR directly.
    O0,
    /// Cheap cleanups: constant folding, algebraic simplification, copy
    /// propagation, dead-code elimination.
    O1,
    /// The full pipeline, adding inlining, unrolling of constant-trip loops,
    /// address reassociation, and loop-invariant code motion.
    #[default]
    O2,
}

impl OptLevel {
    /// Parses a CLI spelling (`"0"`, `"1"`, `"2"`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "0" => Some(OptLevel::O0),
            "1" => Some(OptLevel::O1),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// The flag spelling (`"-O2"`).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
        }
    }
}

/// The inliner's window into the module: the typed IR of potential callees.
///
/// Returning `None` simply makes the call ineligible for inlining — e.g.
/// for functions that are declared but not yet typechecked.
pub trait InlineEnv {
    /// The callee's IR, if available.
    fn callee_ir(&self, id: FuncId) -> Option<IrFunction>;

    /// [`callee_ir`](Self::callee_ir) by reference, for an environment that
    /// holds the IR; the default is the owned copy. The inliner reads every
    /// callee it considers, and every function such a callee reaches,
    /// through this, and copies a body only to splice it.
    fn callee_ref(&self, id: FuncId) -> Option<Cow<'_, IrFunction>> {
        self.callee_ir(id).map(Cow::Owned)
    }
}

/// An [`InlineEnv`] with no visibility: disables inlining.
pub struct NoInline;

impl InlineEnv for NoInline {
    fn callee_ir(&self, _id: FuncId) -> Option<IrFunction> {
        None
    }
}

/// Everything the pipeline needs to know about the world around a function.
pub struct PassConfig<'a> {
    /// Optimization level selecting the pipeline.
    pub level: OptLevel,
    /// Struct layouts for the verifier (None skips layout checks).
    pub types: Option<&'a TypeRegistry>,
    /// Module signatures/globals for the verifier.
    pub env: &'a dyn ModuleEnv,
    /// Callee IR source for the inliner.
    pub inline: &'a dyn InlineEnv,
    /// Interprocedural summaries for the abstract interpreter (`None` runs
    /// it intraprocedurally).
    pub summaries: Option<&'a Summaries>,
    /// Whether the `checkelim` pass may stamp proven-redundant checks
    /// (bounds checks, narrow-integer wraps) at `-O2`. Off under
    /// `--sanitize` or `--no-checkelim`.
    pub elide_checks: bool,
}

/// Whether a remark reports a transformation that happened or an
/// opportunity the pass saw but declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemarkKind {
    /// The pass transformed the code as described.
    Applied,
    /// The pass recognized a candidate but could not transform it; the
    /// message says why (size budget, effects, multiple exits, …).
    Missed,
}

impl RemarkKind {
    /// Lower-case label for report rendering (`"applied"` / `"missed"`).
    pub fn label(self) -> &'static str {
        match self {
            RemarkKind::Applied => "applied",
            RemarkKind::Missed => "missed",
        }
    }
}

/// One structured optimization remark: what a pass did (or declined to do),
/// where, and to code of what staging origin. Remarks are emitted in pass
/// execution order and carry no wall-clock data, so two identical runs
/// produce byte-identical remark streams.
#[derive(Debug, Clone)]
pub struct Remark {
    /// Emitting pass (`"inline"`, `"licm"`, …).
    pub pass: &'static str,
    /// Applied or missed.
    pub kind: RemarkKind,
    /// Function being optimized (filled in by [`optimize`]).
    pub function: Arc<str>,
    /// 1-based source line the remark anchors to (0 = whole function).
    pub line: u32,
    /// Staging chain of the affected code, when it was generated.
    pub prov: Option<Provenance>,
    /// Human-readable explanation.
    pub message: String,
}

impl Remark {
    /// An applied-transformation remark (function name filled in later).
    pub(crate) fn applied(
        pass: &'static str,
        line: u32,
        prov: Option<Provenance>,
        message: String,
    ) -> Self {
        Remark {
            pass,
            kind: RemarkKind::Applied,
            function: Arc::from(""),
            line,
            prov,
            message,
        }
    }

    /// A missed-opportunity remark (function name filled in later).
    pub(crate) fn missed(
        pass: &'static str,
        line: u32,
        prov: Option<Provenance>,
        message: String,
    ) -> Self {
        Remark {
            pass,
            kind: RemarkKind::Missed,
            function: Arc::from(""),
            line,
            prov,
            message,
        }
    }
}

/// The record of one pass execution.
#[derive(Debug, Clone)]
pub struct PassRun {
    /// Pass name (`"fold"`, `"licm"`, …).
    pub pass: &'static str,
    /// Whether the pass changed the function.
    pub changed: bool,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Whether the pass's effect was discarded because the pipeline's
    /// result broke the verifier invariant (release builds only; debug
    /// builds panic). The fallback is the input IR, so every pass of such a
    /// run is marked.
    pub reverted: bool,
}

/// Per-function pipeline statistics, in execution order.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// One entry per executed pass.
    pub runs: Vec<PassRun>,
    /// Structured optimization remarks, in emission order. Remarks of a
    /// discarded pipeline are dropped along with its effect.
    pub remarks: Vec<Remark>,
}

#[derive(Clone, Copy)]
enum Pass {
    /// Deliberately breaks typing, to exercise the fallback; `admits` is
    /// what it reports as "changed".
    #[cfg(test)]
    Sabotage {
        admits: bool,
    },
    Inline,
    Fold,
    Unroll,
    CopyProp,
    Affine,
    Licm,
    Dce,
    CheckElim,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            #[cfg(test)]
            Pass::Sabotage { .. } => "sabotage",
            Pass::Inline => "inline",
            Pass::Fold => "fold",
            Pass::Unroll => "unroll",
            Pass::CopyProp => "copyprop",
            Pass::Affine => "affine",
            Pass::Licm => "licm",
            Pass::Dce => "dce",
            Pass::CheckElim => "checkelim",
        }
    }

    /// Runs the pass; returns whether it rewrote anything.
    fn apply(self, f: &mut IrFunction, cfg: &PassConfig, remarks: &mut Vec<Remark>) -> bool {
        match self {
            #[cfg(test)]
            Pass::Sabotage { admits } => tests::sabotage(f, remarks) && admits,
            Pass::Inline => inline::run(f, cfg.inline, remarks),
            Pass::Fold => fold::run(f, remarks),
            Pass::Unroll => unroll::run(f, remarks),
            Pass::CopyProp => copyprop::run(f, remarks),
            Pass::Affine => affine::run(f, cfg, remarks),
            Pass::Licm => licm::run(f, cfg, remarks),
            Pass::Dce => dce::run(f, remarks),
            Pass::CheckElim => cfg.elide_checks && checkelim::run(f, cfg, remarks),
        }
    }
}

fn pipeline(level: OptLevel) -> &'static [Pass] {
    match level {
        OptLevel::O0 => &[],
        OptLevel::O1 => &[Pass::Fold, Pass::CopyProp, Pass::Dce],
        OptLevel::O2 => &[
            Pass::Inline,
            Pass::Fold,
            Pass::Unroll,
            Pass::Affine,
            Pass::Licm,
            Pass::CopyProp,
            Pass::Dce,
            // Must stay last: it stamps operand nodes by position, which
            // later rewrites would invalidate.
            Pass::CheckElim,
        ],
    }
}

/// Runs the pipeline selected by `cfg.level` over `f`, enforcing the
/// verifier invariant, and returns per-pass statistics.
pub fn optimize(f: &mut IrFunction, cfg: &PassConfig) -> PassStats {
    let (out, stats) = optimize_from(f, pipeline(cfg.level), cfg);
    *f = out;
    stats
}

/// [`optimize`] for a caller that keeps the input: returns the optimized
/// copy of `input` (the only copy made) and the statistics.
pub fn optimized(input: &IrFunction, cfg: &PassConfig) -> (IrFunction, PassStats) {
    optimize_from(input, pipeline(cfg.level), cfg)
}

fn optimize_from(input: &IrFunction, passes: &[Pass], cfg: &PassConfig) -> (IrFunction, PassStats) {
    // The copy starts without proofs: those the input carries were made for
    // its statements as they are now and under the configuration of then;
    // the result has the ones this run's `checkelim` makes, or none.
    let pristine = || {
        let mut f = input.clone();
        crate::analysis::absint::clear_proofs(&mut f.body);
        f
    };
    let mut f = pristine();
    let mut stats = PassStats::default();
    if passes.is_empty() {
        return (f, stats);
    }
    // The verifier's complaint about `f`, if any — unless the input was
    // inconsistent to begin with: only functions that went in clean are
    // policed (the driver separately rejects the others).
    let broken = |f: &IrFunction| {
        verify_function(f, cfg.types, cfg.env)
            .err()
            .filter(|_| verify_function(input, cfg.types, cfg.env).is_ok())
    };
    for pass in passes {
        let remarks_before = stats.remarks.len();
        let t0 = Instant::now();
        let changed = pass.apply(&mut f, cfg, &mut stats.remarks);
        let dur_us = t0.elapsed().as_micros() as u64;
        for r in &mut stats.remarks[remarks_before..] {
            r.function = Arc::clone(&f.name);
        }
        stats.runs.push(PassRun {
            pass: pass.name(),
            changed,
            dur_us,
            reverted: false,
        });
        if cfg!(debug_assertions) && changed {
            if let Some(d) = broken(&f) {
                panic!(
                    "optimization pass '{}' broke IR consistency in '{}': {}",
                    pass.name(),
                    f.name,
                    d
                );
            }
        }
    }
    // Unconditional, so a pass that under-reports `changed` is still caught.
    if let Some(d) = broken(&f) {
        if cfg!(debug_assertions) {
            panic!(
                "the optimization pipeline broke IR consistency in '{}' \
                 though no pass reported a change: {}",
                f.name, d
            );
        }
        f = pristine();
        // The remarks describe rewrites that were discarded; drop them so
        // the stream matches the final code.
        stats.remarks.clear();
        for run in &mut stats.runs {
            run.changed = false;
            run.reverted = true;
        }
    }
    (f, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::NoEnv;
    use crate::ir::{BinKind, IrExpr, IrStmt, LocalId, StmtKind};
    use crate::types::{FuncTy, Ty};

    /// Retypes every returned value as `double`, whatever the function
    /// returns.
    pub(super) fn sabotage(f: &mut IrFunction, remarks: &mut Vec<Remark>) -> bool {
        for s in &mut f.body {
            if let StmtKind::Return(Some(e)) = &mut s.kind {
                e.ty = Ty::F64;
            }
        }
        remarks.push(Remark::applied(
            "sabotage",
            0,
            None,
            "retyped the returned value".to_string(),
        ));
        true
    }

    /// `return p0 + (2 + 3)`: consistent, and `fold` has something to do.
    fn foldable() -> IrFunction {
        let mut f = IrFunction {
            name: "victim".into(),
            ty: FuncTy {
                params: vec![Ty::INT],
                ret: Ty::INT,
            },
            locals: Vec::new(),
            body: Vec::new(),
            index_range: None,
        };
        f.add_local("p0", Ty::INT, false);
        f.body = vec![IrStmt::new(StmtKind::Return(Some(IrExpr::binary(
            BinKind::Add,
            IrExpr::local(LocalId(0), Ty::INT),
            IrExpr::binary(BinKind::Add, IrExpr::int32(2), IrExpr::int32(3)),
        ))))];
        f
    }

    fn run(passes: &[Pass]) -> (IrFunction, IrFunction, PassStats) {
        let input = foldable();
        let cfg = PassConfig {
            level: OptLevel::O2,
            types: None,
            env: &NoEnv,
            inline: &NoInline,
            summaries: None,
            elide_checks: true,
        };
        let (out, stats) = optimize_from(&input, passes, &cfg);
        (input, out, stats)
    }

    #[test]
    fn a_sound_pipeline_keeps_its_rewrites() {
        let (input, out, stats) = run(&[Pass::Fold, Pass::Dce]);
        assert_ne!(out, input, "2 + 3 folds");
        let flags: Vec<_> = stats.runs.iter().map(|r| (r.changed, r.reverted)).collect();
        assert_eq!(flags, [(true, false), (false, false)]);
        assert!(stats.remarks.iter().all(|r| &*r.function == "victim"));
        assert!(!stats.remarks.is_empty());
    }

    /// Release semantics: the function compiles from its input IR, every
    /// pass of the run is marked reverted, and the discarded pipeline's
    /// remarks are dropped — whether or not the culprit owned up.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_broken_pipeline_falls_back_to_the_input_ir() {
        for admits in [true, false] {
            let (input, out, stats) = run(&[Pass::Fold, Pass::Sabotage { admits }, Pass::Dce]);
            assert_eq!(out, input);
            assert_eq!(stats.runs.len(), 3);
            assert!(stats.runs.iter().all(|r| r.reverted && !r.changed));
            assert!(stats.remarks.is_empty(), "{:?}", stats.remarks);
        }
    }

    /// Debug semantics: the pass that reported the breaking change is named.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "optimization pass 'sabotage' broke IR consistency in 'victim'")]
    fn a_breaking_pass_is_named() {
        run(&[Pass::Fold, Pass::Sabotage { admits: true }, Pass::Dce]);
    }

    /// Debug semantics: a pass that under-reports is still caught by the
    /// unconditional verify after the last pass.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "though no pass reported a change")]
    fn an_unreported_break_is_caught_at_the_end() {
        run(&[Pass::Fold, Pass::Sabotage { admits: false }, Pass::Dce]);
    }

    #[test]
    fn an_inconsistent_input_is_not_policed() {
        let mut input = foldable();
        sabotage(&mut input, &mut Vec::new());
        let cfg = PassConfig {
            level: OptLevel::O1,
            types: None,
            env: &NoEnv,
            inline: &NoInline,
            summaries: None,
            elide_checks: true,
        };
        let (out, stats) = optimized(&input, &cfg);
        assert_ne!(out, input, "the pipeline's result is kept");
        assert!(stats.runs.iter().all(|r| !r.reverted));
    }
}
