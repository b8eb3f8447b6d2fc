//! Pretty-printing of IR functions, for debugging and golden tests.

use crate::ir::{Callee, ExprKind, IrExpr, IrFunction, IrStmt, StmtKind};
use std::fmt::Write;

/// Renders a function as indented pseudo-code.
///
/// # Examples
///
/// ```
/// use terra_ir::{IrFunction, FuncTy, Ty, dump_function};
/// let f = IrFunction {
///     name: "empty".into(),
///     ty: FuncTy { params: vec![], ret: Ty::Unit },
///     locals: vec![],
///     body: vec![],
///     index_range: None,
/// };
/// assert!(dump_function(&f).starts_with("function empty"));
/// ```
pub fn dump_function(f: &IrFunction) -> String {
    let mut out = String::new();
    let _ = write!(out, "function {}(", f.name);
    for (i, p) in f.ty.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "l{}: {}", i, p);
    }
    let _ = writeln!(out, ") : {}", f.ty.ret);
    for (i, l) in f.locals.iter().enumerate().skip(f.ty.params.len()) {
        let _ = writeln!(
            out,
            "  local l{}: {}{}  -- {}",
            i,
            l.ty,
            if l.in_memory { " [mem]" } else { "" },
            l.name
        );
    }
    dump_stmts(&f.body, 1, &mut out);
    out.push_str("end\n");
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn dump_stmts(stmts: &[IrStmt], depth: usize, out: &mut String) {
    for s in stmts {
        indent(depth, out);
        match &s.kind {
            StmtKind::Assign { dst, value } => {
                let _ = writeln!(out, "l{} = {}", dst.0, expr(value));
            }
            StmtKind::Store { addr, value } => {
                let _ = writeln!(out, "store {} <- {}", expr(addr), expr(value));
            }
            StmtKind::CopyMem { dst, src, size } => {
                let _ = writeln!(out, "copy {} <- {} [{} bytes]", expr(dst), expr(src), size);
            }
            StmtKind::Expr(e) => {
                let _ = writeln!(out, "{}", expr(e));
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let _ = writeln!(out, "if {} then", expr(cond));
                dump_stmts(then_body, depth + 1, out);
                if !else_body.is_empty() {
                    indent(depth, out);
                    out.push_str("else\n");
                    dump_stmts(else_body, depth + 1, out);
                }
                indent(depth, out);
                out.push_str("end\n");
            }
            StmtKind::While { cond, body } => {
                let _ = writeln!(out, "while {} do", expr(cond));
                dump_stmts(body, depth + 1, out);
                indent(depth, out);
                out.push_str("end\n");
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let _ = writeln!(
                    out,
                    "for l{} = {}, {}, {} do",
                    var.0,
                    expr(start),
                    expr(stop),
                    expr(step)
                );
                dump_stmts(body, depth + 1, out);
                indent(depth, out);
                out.push_str("end\n");
            }
            StmtKind::ParallelFor {
                kernel,
                start,
                stop,
                args,
            } => {
                let args = args.iter().map(expr).collect::<Vec<_>>().join(", ");
                let _ = writeln!(
                    out,
                    "parallelfor fn{}({}, {}) captures [{}]",
                    kernel.0,
                    expr(start),
                    expr(stop),
                    args
                );
            }
            StmtKind::Return(Some(e)) => {
                let _ = writeln!(out, "return {}", expr(e));
            }
            StmtKind::Return(None) => out.push_str("return\n"),
            StmtKind::Break => out.push_str("break\n"),
        }
    }
}

fn expr(e: &IrExpr) -> String {
    match &e.kind {
        ExprKind::ConstInt(v) => format!("{v}"),
        ExprKind::ConstFloat(v) => format!("{v:?}"),
        ExprKind::ConstBool(b) => format!("{b}"),
        ExprKind::ConstNull => "null".to_string(),
        ExprKind::ConstFunc(id) => format!("@fn{}", id.0),
        ExprKind::ConstStr(s) => format!("{s:?}"),
        ExprKind::Local(id) => format!("l{}", id.0),
        ExprKind::LocalAddr(id) => format!("&l{}", id.0),
        ExprKind::GlobalAddr(id) => format!("&g{}", id.0),
        ExprKind::Load(a) => format!("load[{}]({})", e.ty, expr(a)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {:?} {})", expr(lhs), op, expr(rhs))
        }
        ExprKind::Cmp { op, lhs, rhs } => {
            format!("({} {:?} {})", expr(lhs), op, expr(rhs))
        }
        ExprKind::Unary { op, expr: x } => format!("({op:?} {})", expr(x)),
        ExprKind::Cast(x) => format!("cast[{}]({})", e.ty, expr(x)),
        ExprKind::Call { callee, args } => {
            let name = match callee {
                Callee::Direct(id) => format!("fn{}", id.0),
                Callee::Builtin(b) => b.name().to_string(),
                Callee::Indirect(p) => format!("*{}", expr(p)),
            };
            let args: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", args.join(", "))
        }
        ExprKind::Select {
            cond,
            then_value,
            else_value,
        } => format!(
            "select({}, {}, {})",
            expr(cond),
            expr(then_value),
            expr(else_value)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, CmpKind, LocalId};
    use crate::types::{FuncTy, Ty};

    #[test]
    fn dumps_a_loop() {
        let mut f = IrFunction {
            name: "sum".into(),
            ty: FuncTy {
                params: vec![Ty::INT],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let n = f.add_local("n", Ty::INT, false);
        let acc = f.add_local("acc", Ty::INT, false);
        let i = f.add_local("i", Ty::INT, false);
        f.body = vec![
            StmtKind::Assign {
                dst: acc,
                value: IrExpr::int32(0),
            }
            .into(),
            StmtKind::For {
                var: i,
                start: IrExpr::int32(0),
                stop: IrExpr::local(n, Ty::INT),
                step: IrExpr::int32(1),
                body: vec![StmtKind::Assign {
                    dst: acc,
                    value: IrExpr::binary(
                        BinKind::Add,
                        IrExpr::local(acc, Ty::INT),
                        IrExpr::local(i, Ty::INT),
                    ),
                }
                .into()],
            }
            .into(),
            StmtKind::If {
                cond: IrExpr::cmp(CmpKind::Gt, IrExpr::local(acc, Ty::INT), IrExpr::int32(10)),
                then_body: vec![StmtKind::Return(Some(IrExpr::local(acc, Ty::INT))).into()],
                else_body: vec![],
            }
            .into(),
            StmtKind::Return(Some(IrExpr::int32(0))).into(),
        ];
        let text = dump_function(&f);
        assert!(text.contains("for l2 = 0, l0, 1 do"), "{text}");
        assert!(text.contains("if (l1 Gt 10) then"), "{text}");
        assert!(text.contains("return 0"), "{text}");
        let _ = LocalId(0);
    }
}
