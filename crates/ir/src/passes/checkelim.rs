//! Check elision: stamps the checks the abstract interpreter proves
//! redundant so the bytecode compiler leaves them out — the bounds check of
//! an access proven inside its object, and the `trunc` that wraps narrow
//! integer arithmetic back into its type where the result provably fits.
//!
//! Runs **last** in the `-O2` pipeline — a proof names an operand node of
//! its statement by position ([`IrStmt::proven`](crate::ir::IrStmt::proven)),
//! so no later pass may rewrite the statement. The pass never changes
//! observable semantics: an elided bounds check is a per-instruction flag
//! the VM ignores under `--sanitize`, an elided `trunc` would have been the
//! identity, and under the sanitizer or `--no-checkelim` the pass does not
//! run at all. See `analysis/absint.rs` for the proof obligations.

use super::{PassConfig, Remark};
use crate::analysis::absint;
use crate::ir::IrFunction;

pub(crate) fn run(f: &mut IrFunction, cfg: &PassConfig, remarks: &mut Vec<Remark>) -> bool {
    let mut body = std::mem::take(&mut f.body);
    let stamped = absint::annotate(
        f,
        &mut body,
        cfg.types,
        cfg.env,
        cfg.summaries,
        Some(remarks),
    );
    f.body = body;
    stamped
}
