//! Size-bounded inlining of small leaf Terra functions.
//!
//! Staged code composes kernels out of tiny helpers (`min`, index clamps,
//! accessors); calling through the VM's frame machinery costs more than the
//! callee's body. This pass replaces direct calls to *inlinable* callees
//! with the callee's body, remapping its locals into fresh slots of the
//! caller and assigning argument expressions to the remapped parameters in
//! call order.
//!
//! A callee is inlinable when it is:
//!  - **small** — at most [`MAX_CALLEE_NODES`] IR nodes;
//!  - **a leaf** — no direct or indirect calls anywhere in its body
//!    (builtins are fine); this also rules out recursion;
//!  - **single-exit** — either no `return` at all (unit fallthrough) or
//!    exactly one, as the final top-level statement;
//!  - **register-calling** — no `in_memory` parameters (aggregate or
//!    address-taken parameters keep their frame-slot calling convention).
//!
//! Because the callee's body is spliced verbatim (modulo local renumbering),
//! its traps, stores, and builtin calls happen exactly as they would have in
//! the out-of-line version. The caller's `deps` are untouched: callees are
//! still compiled and linked, preserving lazy-linking error behavior.

use super::util::{block_has_call, count_nodes, expr_is_pure, renumber_locals};
use super::{InlineEnv, Remark};
use crate::ir::{Callee, ExprKind, FuncId, IrExpr, IrFunction, IrStmt, LocalId, StmtKind};
use terra_syntax::{ProvKind, Provenance};

/// Upper bound on the IR size of a callee worth inlining.
pub const MAX_CALLEE_NODES: usize = 48;

/// Inlines eligible direct calls in statement position; returns whether it
/// touched the function (a splice, or callee locals appended before a
/// defensive bail-out).
pub(crate) fn run(f: &mut IrFunction, env: &dyn InlineEnv, remarks: &mut Vec<Remark>) -> bool {
    let locals_before = f.locals.len();
    let mut body = std::mem::take(&mut f.body);
    let spliced = inline_block(f, env, &mut body, remarks);
    f.body = body;
    spliced || f.locals.len() != locals_before
}

fn inline_block(
    f: &mut IrFunction,
    env: &dyn InlineEnv,
    stmts: &mut Vec<IrStmt>,
    remarks: &mut Vec<Remark>,
) -> bool {
    let mut spliced = false;
    let mut i = 0;
    while i < stmts.len() {
        for nested in stmts[i].blocks_mut() {
            spliced |= inline_block(f, env, nested, remarks);
        }
        if let Some(expansion) = try_inline(f, env, &stmts[i], remarks) {
            let n = expansion.len();
            stmts.splice(i..=i, expansion);
            spliced = true;
            // Leaf bodies contain no further calls; skip past the splice.
            i += n;
        } else {
            i += 1;
        }
    }
    spliced
}

/// Extends the staging chain of every spliced callee statement with an
/// "inlined at line …" frame, so provenance survives inlining.
fn stamp_inline(stmts: &mut [IrStmt], line: u32) {
    IrStmt::walk_mut(stmts, &mut |s| {
        s.prov = Some(match &s.prov {
            Some(p) => p.extended(ProvKind::Inline, line),
            None => Provenance::new(ProvKind::Inline, line),
        });
    });
}

/// The three statement shapes a call can appear in.
enum Site {
    Assign(LocalId),
    Discard,
    Return,
}

fn call_of(e: &IrExpr) -> Option<(FuncId, &[IrExpr])> {
    match &e.kind {
        ExprKind::Call {
            callee: Callee::Direct(id),
            args,
        } => Some((*id, args)),
        _ => None,
    }
}

fn try_inline(
    f: &mut IrFunction,
    env: &dyn InlineEnv,
    s: &IrStmt,
    remarks: &mut Vec<Remark>,
) -> Option<Vec<IrStmt>> {
    let (site, id, args) = match &s.kind {
        StmtKind::Assign { dst, value } => {
            let (id, args) = call_of(value)?;
            (Site::Assign(*dst), id, args)
        }
        StmtKind::Expr(e) => {
            let (id, args) = call_of(e)?;
            (Site::Discard, id, args)
        }
        StmtKind::Return(Some(e)) => {
            let (id, args) = call_of(e)?;
            (Site::Return, id, args)
        }
        _ => return None,
    };
    let callee = env.callee_ir(id)?;
    let mut missed = |reason: String| {
        remarks.push(Remark::missed(
            "inline",
            s.span.line,
            s.prov.clone(),
            format!("call to '{}' not inlined: {reason}", callee.name),
        ));
    };
    if args.len() != callee.param_count() {
        missed(format!(
            "arity mismatch ({} args vs {} params)",
            args.len(),
            callee.param_count()
        ));
        return None;
    }
    if let Some(reason) = not_inlinable_reason(&callee) {
        missed(reason);
        return None;
    }
    // A value-producing site needs the callee to end in `return <expr>`.
    if matches!(site, Site::Assign(_) | Site::Return)
        && !matches!(
            callee.body.last().map(|t| &t.kind),
            Some(StmtKind::Return(Some(_)))
        )
    {
        missed("callee does not end in a value-producing return".to_string());
        return None;
    }

    // Append the callee's locals to the caller, remapped by a fixed offset.
    let base = f.locals.len() as u32;
    for slot in &callee.locals {
        f.add_local(
            format!("${}.{}", callee.name, slot.name),
            slot.ty.clone(),
            slot.in_memory,
        );
    }

    let mut out: Vec<IrStmt> = Vec::new();
    // Prologue: bind arguments in call order (argument effects preserved).
    // Argument expressions come from the caller, so they keep the call
    // statement's own provenance rather than gaining an inline frame.
    for (j, arg) in args.iter().enumerate() {
        let mut bind = IrStmt::synthesized(
            s.span,
            StmtKind::Assign {
                dst: LocalId(base + j as u32),
                value: arg.clone(),
            },
        );
        bind.prov = s.prov.clone();
        out.push(bind);
    }

    let mut body = callee.body.clone();
    renumber_locals(&mut body, &|l| LocalId(l.0 + base));
    let tail = match body.last().map(|t| &t.kind) {
        Some(StmtKind::Return(_)) => {
            let Some(IrStmt {
                kind: StmtKind::Return(v),
                ..
            }) = body.pop()
            else {
                unreachable!()
            };
            v
        }
        _ => None,
    };
    stamp_inline(&mut body, s.span.line);
    out.extend(body);

    match (site, tail) {
        (Site::Assign(dst), Some(e)) => {
            let mut bind = IrStmt::synthesized(s.span, StmtKind::Assign { dst, value: e });
            bind.prov = s.prov.clone();
            out.push(bind);
        }
        (Site::Discard, Some(e)) => {
            if !expr_is_pure(&e) {
                let mut tail = IrStmt::synthesized(s.span, StmtKind::Expr(e));
                tail.prov = s.prov.clone();
                out.push(tail);
            }
        }
        (Site::Discard, None) => {}
        (Site::Return, Some(e)) => {
            let mut tail = IrStmt::synthesized(s.span, StmtKind::Return(Some(e)));
            tail.prov = s.prov.clone();
            out.push(tail);
        }
        // A value-producing site needs a value-producing callee; `inlinable`
        // plus the verifier rule this out, but bail defensively.
        (Site::Assign(_) | Site::Return, None) => return None,
    }
    remarks.push(Remark::applied(
        "inline",
        s.span.line,
        s.prov.clone(),
        format!(
            "inlined '{}' ({} IR nodes)",
            callee.name,
            count_nodes(&callee)
        ),
    ));
    Some(out)
}

/// Why `callee` cannot be inlined, or `None` when it is eligible.
fn not_inlinable_reason(callee: &IrFunction) -> Option<String> {
    let nodes = count_nodes(callee);
    if nodes > MAX_CALLEE_NODES {
        return Some(format!(
            "callee over size budget ({nodes} > {MAX_CALLEE_NODES})"
        ));
    }
    if callee.locals[..callee.param_count()]
        .iter()
        .any(|p| p.in_memory)
    {
        return Some("callee has aggregate or address-taken parameters".to_string());
    }
    // Builtins are fine in a leaf: they cannot recurse into Terra code.
    if block_has_call(&callee.body, false) {
        return Some("callee is not a leaf (contains calls)".to_string());
    }
    // Single-exit: zero returns (unit fallthrough) or exactly one, as the
    // final top-level statement.
    let mut total = 0;
    IrStmt::walk(&callee.body, &mut |s| {
        total += usize::from(matches!(s.kind, StmtKind::Return(_)))
    });
    let single_exit = match total {
        0 => true,
        1 => matches!(
            callee.body.last().map(|s| &s.kind),
            Some(StmtKind::Return(_))
        ),
        _ => false,
    };
    if !single_exit {
        return Some(format!("callee has multiple exits ({total} returns)"));
    }
    None
}
