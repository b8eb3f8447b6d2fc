//! Bounds-check elision: stamps accesses the abstract interpreter proves
//! in-bounds so the bytecode compiler emits them without runtime checks.
//!
//! Runs **last** in the `-O2` pipeline — the annotations are address
//! expressions matched structurally at bytecode compilation, so no later
//! pass may rewrite them. The pass never changes observable semantics (or
//! even the instruction stream — only a per-instruction flag), and the VM
//! ignores the flag entirely under `--sanitize`, so the safety oracle is
//! unaffected. See `analysis/absint.rs` for the proof obligations.

use super::{PassConfig, Remark};
use crate::analysis::absint;
use crate::ir::IrFunction;

pub(crate) fn run(f: &mut IrFunction, cfg: &PassConfig, remarks: &mut Vec<Remark>) -> bool {
    let mut body = std::mem::take(&mut f.body);
    let stamped = absint::annotate(f, &mut body, cfg.types, cfg.env, cfg.summaries, remarks);
    f.body = body;
    stamped
}
