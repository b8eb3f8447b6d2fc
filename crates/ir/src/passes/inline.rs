//! Size-bounded inlining of small Terra functions, wrappers included.
//!
//! Staged code composes kernels out of tiny helpers (`min`, index clamps,
//! accessors), and the class system calls through generated ones — a
//! dispatch stub is two loads and an indirect call, an interface thunk an
//! address adjustment and a direct call; calling through the VM's frame
//! machinery costs more than the callee's body. This pass replaces direct
//! calls to *inlinable* callees with the callee's body, remapping its locals
//! into fresh slots of the caller and assigning argument expressions to the
//! remapped parameters in call order.
//!
//! A callee is inlinable when it is:
//!  - **small** — at most [`MAX_CALLEE_NODES`] IR nodes;
//!  - **register-calling** — no `in_memory` parameters (aggregate or
//!    address-taken parameters keep their frame-slot calling convention);
//!  - **serial** — no `parallelfor` (a parallel site is keyed by the
//!    function that encloses it);
//!  - **single-exit** — either no `return` at all (unit fallthrough) or
//!    exactly one, as the final top-level statement;
//!  - **not recursive** — it does not reach itself through direct calls
//!    (a `parallelfor` calls its kernel). Then it does not reach the caller
//!    either, which calls it, so direct recursion keeps one frame per level
//!    and overflows the VM's frame stack at the same depth at every `-O`
//!    level.
//!
//! The callee's body is scanned again before it is spliced, with the callee
//! on an explicit expansion stack, so a wrapper's own small callees go in in
//! the same run; no function appears on the stack twice, and a caller gains
//! at most [`MAX_CALLER_GROWTH`] nodes in all. An indirect call stays a call
//! (its target is a run-time value): recursion through a function pointer —
//! a vtable — may take fewer frames per level at `-O2` than at `-O0`.
//!
//! Because the callee's body is spliced verbatim (modulo local renumbering),
//! its traps, stores, and calls happen exactly as they would have in the
//! out-of-line version. The caller's `deps` are untouched: callees are still
//! compiled and linked, preserving lazy-linking error behavior.

use super::util::{count_nodes, direct_calls, expr_is_pure, renumber_locals};
use super::{InlineEnv, Remark};
use crate::ir::{Callee, ExprKind, FuncId, IrExpr, IrFunction, IrStmt, LocalId, StmtKind};
use std::collections::{BTreeSet, HashMap};
use terra_syntax::{ProvKind, Provenance};

/// Upper bound on the IR size of a callee worth inlining.
pub const MAX_CALLEE_NODES: usize = 48;

/// Upper bound on the IR nodes inlining may add to one caller, nested
/// expansions included: a chain of wrappers that each call the next twice
/// would otherwise double the caller per link.
pub const MAX_CALLER_GROWTH: usize = 1024;

/// Inlines eligible direct calls in statement position; returns whether it
/// touched the function (a splice, or callee locals appended before a
/// defensive bail-out).
pub(crate) fn run(f: &mut IrFunction, env: &dyn InlineEnv, remarks: &mut Vec<Remark>) -> bool {
    let locals_before = f.locals.len();
    let mut body = std::mem::take(&mut f.body);
    let mut inliner = Inliner {
        env,
        remarks,
        stack: Vec::new(),
        grown: 0,
        calls: HashMap::new(),
    };
    let spliced = inliner.block(f, &mut body);
    f.body = body;
    spliced || f.locals.len() != locals_before
}

/// One caller's inlining run.
struct Inliner<'a> {
    env: &'a dyn InlineEnv,
    remarks: &'a mut Vec<Remark>,
    /// The callees being expanded, outermost first.
    stack: Vec<FuncId>,
    /// Nodes spliced into the caller so far.
    grown: usize,
    /// What each function looked at calls directly (`None`: no IR).
    calls: HashMap<FuncId, Option<BTreeSet<FuncId>>>,
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

/// `p` with an "inlined at line …" frame appended.
fn inlined_at(p: Option<&Provenance>, line: u32) -> Provenance {
    match p {
        Some(p) => p.extended(ProvKind::Inline, line),
        None => Provenance::new(ProvKind::Inline, line),
    }
}

impl Inliner<'_> {
    fn block(&mut self, f: &mut IrFunction, stmts: &mut Vec<IrStmt>) -> bool {
        let mut spliced = false;
        let mut i = 0;
        while i < stmts.len() {
            for nested in stmts[i].blocks_mut() {
                spliced |= self.block(f, nested);
            }
            if let Some(expansion) = self.try_inline(f, &stmts[i]) {
                let n = expansion.len();
                stmts.splice(i..=i, expansion);
                spliced = true;
                // The expansion was scanned before it went in.
                i += n;
            } else {
                i += 1;
            }
        }
        spliced
    }

    fn try_inline(&mut self, f: &mut IrFunction, s: &IrStmt) -> Option<Vec<IrStmt>> {
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
        let env = self.env;
        let callee = env.callee_ref(id)?;
        let nodes = match self.admit(id, &callee, &site, args.len()) {
            Ok(nodes) => nodes,
            Err(reason) => {
                self.remarks.push(Remark::missed(
                    "inline",
                    s.span.line,
                    s.prov.clone(),
                    format!("call to '{}' not inlined: {reason}", callee.name),
                ));
                return None;
            }
        };
        self.grown += nodes;

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

        // The body is expanded in turn, then stamped: its statements, and the
        // remarks its expansion made after this splice's own, gain this
        // site's frame last.
        self.remarks.push(Remark::applied(
            "inline",
            s.span.line,
            s.prov.clone(),
            format!("inlined '{}' ({nodes} IR nodes)", callee.name),
        ));
        let first_nested = self.remarks.len();
        let mut body = callee.body.clone();
        renumber_locals(&mut body, &|l| LocalId(l.0 + base));
        self.stack.push(id);
        self.block(f, &mut body);
        self.stack.pop();
        let line = s.span.line;
        IrStmt::walk_mut(&mut body, &mut |t| {
            t.prov = Some(inlined_at(t.prov.as_ref(), line))
        });
        for r in &mut self.remarks[first_nested..] {
            r.prov = Some(inlined_at(r.prov.as_ref(), line));
        }
        // The callee's final `return e` becomes the site's use of `e`: callee
        // code, so it keeps the return's line and stamped chain.
        let tail = match body.pop() {
            Some(IrStmt {
                kind: StmtKind::Return(v),
                span,
                prov,
                ..
            }) => v.map(|e| (e, span, prov)),
            last => {
                body.extend(last);
                None
            }
        };
        out.extend(body);
        let (kind, span, prov) = match (site, tail) {
            (Site::Assign(dst), Some((e, span, prov))) => {
                (StmtKind::Assign { dst, value: e }, span, prov)
            }
            (Site::Discard, Some((e, span, prov))) if !expr_is_pure(&e) => {
                (StmtKind::Expr(e), span, prov)
            }
            (Site::Return, Some((e, span, prov))) => (StmtKind::Return(Some(e)), span, prov),
            (Site::Discard, _) => return Some(out),
            // A value-producing site needs a value-producing callee;
            // `admit` plus the verifier rule this out, but bail defensively.
            (Site::Assign(_) | Site::Return, None) => return None,
        };
        let mut use_site = IrStmt::synthesized(span, kind);
        use_site.prov = prov;
        out.push(use_site);
        Some(out)
    }

    /// Whether the call to `id` with `nargs` arguments at `site` goes in:
    /// the size of `callee`, or why the call stays one. The cheap tests come
    /// first: the recursion test walks the functions the callee reaches.
    fn admit(
        &mut self,
        id: FuncId,
        callee: &IrFunction,
        site: &Site,
        nargs: usize,
    ) -> Result<usize, String> {
        if nargs != callee.param_count() {
            return Err(format!(
                "arity mismatch ({nargs} args vs {} params)",
                callee.param_count()
            ));
        }
        let nodes = count_nodes(callee);
        if nodes > MAX_CALLEE_NODES {
            return Err(format!(
                "callee over size budget ({nodes} > {MAX_CALLEE_NODES})"
            ));
        }
        if callee.locals[..callee.param_count()]
            .iter()
            .any(|p| p.in_memory)
        {
            return Err("callee has aggregate or address-taken parameters".to_string());
        }
        if IrStmt::any(&callee.body, &mut |s| {
            matches!(s.kind, StmtKind::ParallelFor { .. })
        }) {
            return Err("callee contains a parallelfor".to_string());
        }
        // Single-exit: zero returns (unit fallthrough) or exactly one, as the
        // final top-level statement.
        let mut total = 0;
        IrStmt::walk(&callee.body, &mut |s| {
            total += usize::from(matches!(s.kind, StmtKind::Return(_)))
        });
        let ends_in_return = |value: bool| {
            matches!(
                callee.body.last().map(|s| &s.kind),
                Some(StmtKind::Return(v)) if v.is_some() || !value
            )
        };
        if total > 1 || total == 1 && !ends_in_return(false) {
            return Err(format!("callee has multiple exits ({total} returns)"));
        }
        // A value-producing site needs the callee to end in `return <expr>`.
        if matches!(site, Site::Assign(_) | Site::Return) && !ends_in_return(true) {
            return Err("callee does not end in a value-producing return".to_string());
        }
        if self.stack.contains(&id) {
            return Err("callee is already being expanded".to_string());
        }
        if let Some(reason) = self.recursion(id) {
            return Err(reason.to_string());
        }
        if self.grown + nodes > MAX_CALLER_GROWTH {
            return Err(format!(
                "caller growth budget spent ({} + {nodes} > {MAX_CALLER_GROWTH})",
                self.grown
            ));
        }
        Ok(nodes)
    }

    /// Why `id` may call itself again through direct calls, or `None` when
    /// it cannot: a depth-first walk of what it reaches.
    fn recursion(&mut self, id: FuncId) -> Option<&'static str> {
        let mut seen = BTreeSet::from([id]);
        let mut work = vec![id];
        while let Some(g) = work.pop() {
            let env = self.env;
            let Some(calls) = self
                .calls
                .entry(g)
                .or_insert_with(|| env.callee_ref(g).map(|ir| direct_calls(&ir.body)))
            else {
                return Some("callee reaches a function whose body is not available");
            };
            if calls.contains(&id) {
                return Some("callee is recursive (reaches itself through direct calls)");
            }
            work.extend(calls.iter().copied().filter(|c| seen.insert(*c)));
        }
        None
    }
}
