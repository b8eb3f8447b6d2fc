//! Compiles typed IR into bytecode.
//!
//! Register allocation is simple and fast (this is a JIT compiler in spirit):
//! every register-class IR local gets a dedicated VM register, and expression
//! temporaries are stack-allocated above them, released per statement. A
//! register is as many 8-byte frame slots as its type needs ([`slots_of`]):
//! the type of every local and temporary is known here, so widths are
//! decided once, at compile time. In-memory locals (aggregates and
//! address-taken scalars) are laid out in the function's frame in linear
//! memory.
//!
//! Temporaries are a stack, so an argument block, built last, is its top:
//! the callee's register window starts at the block (DESIGN.md §6g), and
//! nothing live in the caller sits at or above it across the call. Every
//! register holds an integer in *canonical* form, sign- or zero-extended
//! from its type's width (DESIGN.md §6j). That is what makes widening casts
//! free and lets compares and divisions work on whole registers; narrow
//! arithmetic re-establishes it with a `trunc` — an `int32` add, subtract,
//! multiply or left shift with the instruction's own wrapping row — except
//! where the mid-end proved the result cannot leave its type
//! ([`IrStmt::proven`]). A load or store computes its own address from an
//! operand `[base + index*scale + disp]` ([`lea_of`] decides what of the
//! address expression that absorbs); loops test at the bottom — a counted
//! loop whose increment is exact with the one instruction `loop.lt.s`, the
//! rest with a fused compare-and-branch — and the constants a loop nest uses
//! as operands are materialized once, in front of it.

use crate::bytecode::{
    slots_of, Addr, BytecodeError, CompiledFunction, Instr, IntWidth, Reg, MAX_SLOTS, NO_REG,
    VECTOR_SLOTS,
};
use crate::exec::ExecutionContext;
#[cfg(debug_assertions)]
use crate::program::Program;
use terra_ir::{
    BinKind, Builtin, Callee, CmpKind, ExprKind, IrExpr, IrFunction, IrStmt, LocalId, ScalarTy,
    StmtKind, Ty, TypeRegistry, UnKind,
};

/// What the program's function table knows about callees: defined functions
/// expose their signatures, declared-but-undefined ones (lazy linking) stay
/// opaque, and ids past the table are invalid.
#[cfg(debug_assertions)]
struct ProgramEnv<'p> {
    prog: &'p Program,
}

#[cfg(debug_assertions)]
impl terra_ir::ModuleEnv for ProgramEnv<'_> {
    fn function_sig(&self, id: terra_ir::FuncId) -> terra_ir::EnvEntry<terra_ir::FuncTy> {
        if let Some(f) = self.prog.function(id) {
            terra_ir::EnvEntry::Known(f.ty.clone())
        } else if (id.0 as usize) < self.prog.len() {
            terra_ir::EnvEntry::Opaque
        } else {
            terra_ir::EnvEntry::Invalid
        }
    }
}

fn is_addr_ty(ty: &Ty) -> bool {
    matches!(
        ty,
        Ty::Ptr(_) | Ty::Scalar(ScalarTy::I64) | Ty::Scalar(ScalarTy::U64)
    )
}

/// Most constants one loop nest keeps pinned in registers; an unrolled
/// staged kernel may name hundreds, and each costs a frame slot.
const MAX_PINNED: usize = 16;

/// A constant that can sit in a register: which `const.*` instruction
/// materializes it, and its bits (floats compare by bits: `-0.0` is not
/// `0.0`).
#[derive(Clone, Copy, PartialEq)]
enum Const {
    I(i64),
    F64(u64),
    F32(u32),
}

impl Const {
    /// The constant an integer or float literal node denotes, an integer in
    /// its type's canonical form.
    fn of(e: &IrExpr) -> Option<Const> {
        match (&e.kind, &e.ty) {
            (ExprKind::ConstInt(v), Ty::Scalar(s)) => Some(Const::I(s.canonical(*v))),
            (ExprKind::ConstInt(v), _) => Some(Const::I(*v)),
            (ExprKind::ConstFloat(v), Ty::Scalar(ScalarTy::F32)) => {
                Some(Const::F32((*v as f32).to_bits()))
            }
            (ExprKind::ConstFloat(v), _) => Some(Const::F64(v.to_bits())),
            _ => None,
        }
    }

    fn instr(self, d: Reg) -> Instr {
        match self {
            Const::I(v) => Instr::ConstI { d, v },
            Const::F64(bits) => Instr::ConstF64 {
                d,
                v: f64::from_bits(bits),
            },
            Const::F32(bits) => Instr::ConstF32 {
                d,
                v: f32::from_bits(bits),
            },
        }
    }
}

/// The two sides of `e` if it is a pointer or 64-bit add (nothing to
/// truncate).
fn addr_add(e: &IrExpr) -> Option<(&IrExpr, &IrExpr)> {
    match &e.kind {
        ExprKind::Binary {
            op: BinKind::Add,
            lhs,
            rhs,
        } if is_addr_ty(&e.ty) => Some((lhs, rhs)),
        _ => None,
    }
}

/// `(idx, c)` if `e` is `idx * c`, `c * idx` or `idx << c` with a scale that
/// fits an address operand's field.
fn scaled(e: &IrExpr) -> Option<(&IrExpr, i32)> {
    let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
        return None;
    };
    match (op, &lhs.kind, &rhs.kind) {
        (BinKind::Mul, _, ExprKind::ConstInt(s)) => Some((&**lhs, i32::try_from(*s).ok()?)),
        (BinKind::Mul, ExprKind::ConstInt(s), _) => Some((&**rhs, i32::try_from(*s).ok()?)),
        // Strength reduction rewrites `idx * 2^k` as `idx << k`; the
        // operands are 64-bit here, so shift == scale exactly.
        (BinKind::Shl, _, ExprKind::ConstInt(k)) if (0..=30).contains(k) => Some((&**lhs, 1 << k)),
        _ => None,
    }
}

/// The address operand `(base, index, scale, disp)` that computes `e` — of a
/// memory instruction when `e` is its address, of a `lea` when `e` is a
/// value — if `e` is a pointer or 64-bit add: `base + c`, `base + idx*c`
/// (also `c*idx`, `idx << c`), either with a constant added on top, or,
/// failing those, `base + idx` at scale 1 — whatever pointer type the sum
/// has been cast to. A scale that does not fit its field leaves the product
/// to be computed as the index.
fn lea_of(mut e: &IrExpr) -> Option<(&IrExpr, Option<&IrExpr>, i32, i64)> {
    // A pointer recast to another pointer type (`@vector_pointer(&B[n])`) is
    // the same address.
    while let ExprKind::Cast(inner) = &e.kind {
        if !matches!((&inner.ty, &e.ty), (Ty::Ptr(_), Ty::Ptr(_))) {
            break;
        }
        e = inner;
    }
    let (lhs, rhs) = addr_add(e)?;
    let (base, offset) = if matches!(lhs.kind, ExprKind::ConstInt(_))
        && !matches!(rhs.kind, ExprKind::ConstInt(_) | ExprKind::Binary { .. })
    {
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    let indexed = |index| scaled(index).unwrap_or((index, 1));
    if let ExprKind::ConstInt(disp) = offset.kind {
        return Some(match addr_add(base) {
            Some((base, index)) if !matches!(index.kind, ExprKind::ConstInt(_)) => {
                let (index, scale) = indexed(index);
                (base, Some(index), scale, disp)
            }
            _ => (base, None, 1, disp),
        });
    }
    let (index, scale) = indexed(offset);
    Some((base, Some(index), scale, 0))
}

/// Whether a comparison of `operand`s is one the VM can branch on directly:
/// integers, pointers, bools. Float compares stay apart — a NaN fails both
/// a predicate and its negation, so they cannot be flipped.
fn fusible(operand: &Ty) -> bool {
    !matches!(
        operand,
        Ty::Vector(..) | Ty::Scalar(ScalarTy::F32 | ScalarTy::F64)
    )
}

/// The VM's four integer predicates; the other two of [`CmpKind`] are these
/// with the operands swapped.
enum IntCmp {
    Eq,
    Ne,
    Lt,
    Le,
}

fn int_cmp(op: CmpKind, a: Reg, b: Reg) -> (IntCmp, Reg, Reg) {
    match op {
        CmpKind::Eq => (IntCmp::Eq, a, b),
        CmpKind::Ne => (IntCmp::Ne, a, b),
        CmpKind::Lt => (IntCmp::Lt, a, b),
        CmpKind::Le => (IntCmp::Le, a, b),
        CmpKind::Gt => (IntCmp::Lt, b, a),
        CmpKind::Ge => (IntCmp::Le, b, a),
    }
}

/// Collects the distinct integer and float constants the loop nest `stmts`
/// needs in a register — all but what [`lea_of`] folds into an instruction —
/// in first-use order, up to [`MAX_PINNED`]. Which of them `expr` will be
/// asked for as operands is `expr`'s business and is not repeated here: a
/// constant that is only ever built straight into a destination (an
/// argument slot, a `select` arm, a loop's start) is collected too, and
/// costs its nest one unread `const`.
fn nest_constants(stmts: &[IrStmt], out: &mut Vec<Const>) {
    fn scan(e: &IrExpr, out: &mut Vec<Const>) {
        if let Some(c) = Const::of(e) {
            if out.len() < MAX_PINNED && !out.contains(&c) {
                out.push(c);
            }
        } else if let Some((base, index, ..)) = lea_of(e) {
            scan(base, out);
            index.into_iter().for_each(|i| scan(i, out));
        } else {
            e.children(&mut |c| scan(c, out));
        }
    }
    IrStmt::walk(stmts, &mut |s| {
        // The one such placement common enough to know: `x = c` is a
        // `const` into `x`, whether or not `c` sits in a register.
        if !matches!(&s.kind, StmtKind::Assign { value, .. } if Const::of(value).is_some()) {
            s.operand_roots(&mut |e| scan(e, out));
        }
    });
}

/// [`try_compile`] for IR known to fit a frame — functions the pipeline has
/// compiled before, tests.
///
/// # Panics
///
/// Panics where [`try_compile`] fails.
pub fn compile(
    func: &IrFunction,
    types: &TypeRegistry,
    ctx: &mut ExecutionContext,
    globals: &[u64],
) -> CompiledFunction {
    try_compile(func, types, ctx, globals).unwrap_or_else(|e| panic!("{e}"))
}

/// Compiles one IR function against the given struct registry. String
/// constants are interned into `ctx`'s memory; `globals` maps
/// [`GlobalId`](terra_ir::GlobalId) indices to absolute addresses.
///
/// # Errors
///
/// Fails when the function's locals and temporaries need more than
/// [`MAX_SLOTS`] register slots.
pub fn try_compile(
    func: &IrFunction,
    types: &TypeRegistry,
    ctx: &mut ExecutionContext,
    globals: &[u64],
) -> Result<CompiledFunction, BytecodeError> {
    // The compiler trusts the typechecker and folder; in debug builds, make
    // that trust explicit. The frontend reports verifier findings as proper
    // errors long before reaching this point, so a failure here means a
    // pipeline stage corrupted the IR.
    #[cfg(debug_assertions)]
    if let Err(d) = terra_ir::verify_function(
        func,
        Some(types),
        &ProgramEnv {
            prog: ctx.program(),
        },
    ) {
        panic!("refusing to compile inconsistent IR: {d}");
    }
    let mut c = Compiler::new(func, types, ctx, globals);
    // With the locals alone past the limit there is nothing worth compiling.
    if !c.overflow {
        c.emit_entry();
        c.stmts(&func.body);
    }
    if c.overflow {
        return Err(BytecodeError {
            func: func.name.clone(),
            message: format!("needs more than {MAX_SLOTS} register slots"),
        });
    }
    // Implicit return for unit functions that fall off the end — skipped
    // when control provably cannot reach the end of the body. What then
    // still *looks* like running off the end (dead code after the last
    // return, the exit edge of a `while true`) lands on a trap.
    if !terra_ir::passes::util::block_terminates(&func.body) {
        c.code.push(Instr::Ret { s: NO_REG, w: 0 });
    } else {
        let end = Some(c.code.len() as u32);
        if c.code.last().is_none_or(Instr::falls_through)
            || c.code.iter().any(|i| i.target() == end)
        {
            c.code.push(Instr::Trap);
        }
    }
    debug_assert!(c.loop_breaks.is_empty());
    c.flush_lines();
    // The compiler is the validator's first customer: a function it rejects
    // here is a bug in this file, not in the program.
    let mut compiled = CompiledFunction::new(
        func.name.clone(),
        func.ty.clone(),
        c.max_slots,
        c.frame_size,
        c.code,
    )
    .unwrap_or_else(|e| panic!("internal compiler error: {e}"));
    // Only parameters and register locals can be read before they are
    // written; a call leaves the temporaries above them as it finds them.
    compiled.zeroed = c.temp_base;
    Ok(compiled.with_debug_info(c.lines, c.provs, c.prov_table))
}

struct Compiler<'a> {
    func: &'a IrFunction,
    ctx: &'a mut ExecutionContext,
    globals: &'a [u64],
    code: Vec<Instr>,
    /// Debug info built alongside `code`: source line per instruction.
    /// Lagging entries are caught up by `flush_lines` at statement
    /// boundaries, stamped with `cur_line`.
    lines: Vec<u32>,
    /// Source line owning instructions emitted since the last flush.
    cur_line: u32,
    /// Debug info built alongside `lines`: provenance-table index + 1 per
    /// instruction (0 = written in place), flushed together with `lines`.
    provs: Vec<u32>,
    /// Provenance id owning instructions emitted since the last flush.
    cur_prov: u32,
    /// Interned rendered staging chains; `provs` holds `index + 1`.
    prov_table: Vec<std::sync::Arc<str>>,
    /// Operand nodes whose check the mid-end proved redundant
    /// ([`IrStmt::proven`], resolved to node identities; never read
    /// through): a stack of sorted runs, one per statement being compiled,
    /// the innermost from `proven_base` on.
    proven: Vec<*const IrExpr>,
    proven_base: usize,
    /// The constants pinned in registers for the loop nest being compiled.
    pinned: Vec<(Const, Reg)>,
    /// Register assigned to each register-class local (NO_REG if in memory).
    local_regs: Vec<Reg>,
    /// Frame offset of each in-memory local (u32::MAX otherwise).
    local_offsets: Vec<u32>,
    /// First slot above the locals; temporaries live in
    /// `temp_base..temp_top`, and `max_slots` is how high they ever reached.
    temp_base: Reg,
    temp_top: Reg,
    max_slots: u16,
    /// Set once the function has asked for more than [`MAX_SLOTS`] slots.
    /// Compilation runs on over aliased slots (nothing else has to know)
    /// and `try_compile` rejects the result.
    overflow: bool,
    frame_size: u32,
    loop_breaks: Vec<Vec<usize>>,
}

impl<'a> Compiler<'a> {
    fn new(
        func: &'a IrFunction,
        types: &'a TypeRegistry,
        ctx: &'a mut ExecutionContext,
        globals: &'a [u64],
    ) -> Self {
        let nparams = func.param_count();
        let mut local_regs = vec![NO_REG; func.locals.len()];
        let mut local_offsets = vec![u32::MAX; func.locals.len()];
        let mut next_reg: Reg = 0;
        let mut overflow = false;
        let mut frame_size: u32 = 0;
        for (i, slot) in func.locals.iter().enumerate() {
            // Parameters always occupy the bottom of the frame, at the
            // prefix sums of their widths (the calling convention);
            // in-memory params are spilled by the prologue.
            if i < nparams || !slot.in_memory {
                local_regs[i] = next_reg;
                match next_reg.checked_add(slots_of(&slot.ty)) {
                    Some(top) if top <= MAX_SLOTS => next_reg = top,
                    _ => overflow = true,
                }
            }
            if slot.in_memory {
                let size = slot.ty.size(types).max(1) as u32;
                let align = slot.ty.align(types).max(1) as u32;
                frame_size = frame_size.div_ceil(align) * align;
                local_offsets[i] = frame_size;
                frame_size += size;
            }
        }
        Compiler {
            func,
            ctx,
            globals,
            code: Vec::new(),
            lines: Vec::new(),
            cur_line: 0,
            provs: Vec::new(),
            cur_prov: 0,
            prov_table: Vec::new(),
            proven: Vec::new(),
            proven_base: 0,
            pinned: Vec::new(),
            local_regs,
            local_offsets,
            temp_base: next_reg,
            temp_top: next_reg,
            max_slots: next_reg,
            overflow,
            frame_size: frame_size.div_ceil(16) * 16,
            loop_breaks: Vec::new(),
        }
    }

    fn emit_entry(&mut self) {
        // Spill in-memory parameters from their incoming registers.
        for i in 0..self.func.param_count() {
            if self.func.locals[i].in_memory {
                let addr = self.alloc_temp(1);
                self.code.push(Instr::FrameAddr {
                    d: addr,
                    offset: self.local_offsets[i],
                });
                let ty = &self.func.locals[i].ty;
                self.emit_store(ty, Addr::reg(addr), self.local_regs[i], true);
                self.release(addr);
            }
        }
    }

    /// Reserves `width` consecutive slots above the live temporaries.
    fn alloc_temp(&mut self, width: u16) -> Reg {
        let r = self.temp_top;
        match r.checked_add(width) {
            Some(top) if top <= MAX_SLOTS => {
                self.temp_top = top;
                self.max_slots = self.max_slots.max(top);
            }
            _ => self.overflow = true,
        }
        r
    }

    fn release(&mut self, watermark: Reg) {
        debug_assert!(watermark >= self.temp_base);
        self.temp_top = watermark;
    }

    /// Stamps every instruction emitted since the last flush with
    /// `cur_line` and `cur_prov`, keeping both debug-info tables parallel
    /// to `code`.
    fn flush_lines(&mut self) {
        self.lines.resize(self.code.len(), self.cur_line);
        self.provs.resize(self.code.len(), self.cur_prov);
    }

    /// Whether the mid-end proved the check node `e` of the statement being
    /// compiled would need redundant: the bounds check of an access through
    /// address `e`, the `trunc` after narrow-integer arithmetic `e`.
    fn proven(&self, e: &IrExpr) -> bool {
        self.proven[self.proven_base..]
            .binary_search(&(e as *const IrExpr))
            .is_ok()
    }

    /// The `chk` bit of an access through `addr`.
    fn chk(&self, addr: &IrExpr) -> bool {
        !self.proven(addr)
    }

    /// Interns a rendered staging chain, returning its `provs` id
    /// (table index + 1). Chains repeat heavily — every instruction of a
    /// splice shares one — so a linear scan over the few distinct entries
    /// beats a map.
    fn intern_prov(&mut self, desc: String) -> u32 {
        if let Some(i) = self.prov_table.iter().position(|s| **s == *desc) {
            return i as u32 + 1;
        }
        self.prov_table.push(desc.into());
        self.prov_table.len() as u32
    }

    // -- statements ----------------------------------------------------------

    fn stmts(&mut self, body: &[IrStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &IrStmt) {
        let mark = self.temp_top;
        // Debug info: instructions pending from the enclosing statement keep
        // its line; everything this statement emits (including loop-control
        // overhead appended after the body) gets this statement's line.
        self.flush_lines();
        let saved_line = self.cur_line;
        if s.span.line != 0 {
            self.cur_line = s.span.line;
        }
        let saved_prov = self.cur_prov;
        // Unlike lines, a missing provenance is meaningful (written in
        // place), so it always overrides the enclosing statement's chain.
        self.cur_prov = match &s.prov {
            Some(p) => self.intern_prov(p.describe()),
            None => 0,
        };
        let saved_base = std::mem::replace(&mut self.proven_base, self.proven.len());
        s.proven_nodes(&mut self.proven);
        match &s.kind {
            StmtKind::Assign { dst, value } => self.compile_assign(*dst, value),
            StmtKind::Store { addr, value } => {
                let m = self.mem(addr);
                let v = self.expr(value, None);
                self.emit_store(&value.ty, m, v, self.chk(addr));
            }
            StmtKind::CopyMem { dst, src, size } => {
                let d = self.expr(dst, None);
                let s = self.expr(src, None);
                self.code.push(Instr::CopyMem {
                    dst: d,
                    src: s,
                    size: *size as u32,
                    // A copy touches two objects; both ends must be proven.
                    chk: self.chk(dst) || self.chk(src),
                });
            }
            // A call for its effects leaves no value behind.
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Call { callee, args } => {
                    self.call(e, callee, args, None);
                }
                _ => {
                    self.expr(e, None);
                }
            },
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let br_at = self.branch_if(cond, false);
                self.release(mark);
                self.stmts(then_body);
                if else_body.is_empty() {
                    let end = self.code.len() as u32;
                    self.patch(br_at, end);
                } else if terra_ir::passes::util::block_terminates(then_body) {
                    // The then arm cannot fall through, so the jump over the
                    // else arm would be unreachable.
                    let else_start = self.code.len() as u32;
                    self.patch(br_at, else_start);
                    self.stmts(else_body);
                } else {
                    let jmp_at = self.code.len();
                    self.code.push(Instr::Jmp { target: 0 });
                    let else_start = self.code.len() as u32;
                    self.patch(br_at, else_start);
                    self.stmts(else_body);
                    let end = self.code.len() as u32;
                    self.patch(jmp_at, end);
                }
            }
            // Loops test at the bottom: one branch per iteration.
            StmtKind::While { cond, body } => {
                let outermost = self.enter_loop(s);
                let entry = self.code.len();
                self.code.push(Instr::Jmp { target: 0 });
                let top = self.code.len() as u32;
                self.stmts(body);
                let test = self.code.len() as u32;
                self.patch(entry, test);
                let back = self.branch_if(cond, true);
                self.patch(back, top);
                self.leave_loop(outermost);
            }
            StmtKind::For {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let outermost = self.enter_loop(s);
                let var_reg = self.local_regs[var.0 as usize];
                self.expr_into(start, var_reg);
                // `stop`/`step` temps stay live for the whole loop.
                let stop_reg = {
                    let r = self.expr(stop, None);
                    self.pin(r)
                };
                let step_reg = {
                    let r = self.expr(step, None);
                    self.pin(r)
                };
                let var_ty = &self.func.locals[var.0 as usize].ty;
                // Every integer type but `uint64` compares right as a signed
                // register: canonical forms of narrower unsigned types are
                // zero-extended.
                let unsigned = matches!(var_ty, Ty::Scalar(ScalarTy::U64));
                // Guard: no iteration when `stop <= var` on entry.
                let guard = self.code.len();
                let (a, b, target) = (stop_reg, var_reg, 0);
                self.code.push(if unsigned {
                    Instr::BrLeU { a, b, target }
                } else {
                    Instr::BrLeS { a, b, target }
                });
                let top = self.code.len() as u32;
                self.stmts(body);
                // Index 0 of a `for`'s proofs: the increment cannot wrap; a
                // 64-bit one has nothing to wrap into.
                let exact = s.proven.first() == Some(&0)
                    || matches!(var_ty, Ty::Scalar(t) if IntWidth::of(*t).is_none());
                if exact && !unsigned {
                    self.code.push(Instr::LoopLtS {
                        var: var_reg,
                        step: step_reg,
                        stop: stop_reg,
                        target: top,
                    });
                } else {
                    self.code.push(Instr::AddI {
                        d: var_reg,
                        a: var_reg,
                        b: step_reg,
                    });
                    if !exact {
                        self.emit_norm(var_ty, var_reg);
                    }
                    let (a, b, target) = (var_reg, stop_reg, top);
                    self.code.push(if unsigned {
                        Instr::BrLtU { a, b, target }
                    } else {
                        Instr::BrLtS { a, b, target }
                    });
                }
                let end = self.code.len() as u32;
                self.patch(guard, end);
                self.leave_loop(outermost);
            }
            StmtKind::ParallelFor {
                kernel,
                start,
                stop,
                args,
            } => {
                let lo = {
                    let r = self.expr(start, None);
                    self.pin(r)
                };
                let hi = {
                    let r = self.expr(stop, None);
                    self.pin(r)
                };
                // Captured extras land in a contiguous block, same calling
                // convention as `Call`.
                let (args, nargs) = self.arg_block(args);
                self.code.push(Instr::ParFor {
                    f: *kernel,
                    lo,
                    hi,
                    args,
                    nargs,
                });
            }
            StmtKind::Return(Some(e)) => {
                let r = self.expr(e, None);
                self.code.push(Instr::Ret {
                    s: r,
                    w: slots_of(&e.ty) as u8,
                });
            }
            StmtKind::Return(None) => self.code.push(Instr::Ret { s: NO_REG, w: 0 }),
            StmtKind::Break => {
                let at = self.code.len();
                self.code.push(Instr::Jmp { target: 0 });
                if let Some(sites) = self.loop_breaks.last_mut() {
                    sites.push(at);
                }
            }
        }
        self.flush_lines();
        self.cur_line = saved_line;
        self.cur_prov = saved_prov;
        self.proven.truncate(self.proven_base);
        self.proven_base = saved_base;
        self.release(mark);
    }

    /// Keeps a temp alive past the per-statement watermark by copying it to
    /// a fresh pinned slot if it is about to be released. Temps produced by
    /// `expr` are already above the watermark, so this is just identity in
    /// practice; locals are copied so the loop bound cannot be mutated.
    fn pin(&mut self, r: Reg) -> Reg {
        if r >= self.temp_base {
            r
        } else {
            let t = self.alloc_temp(1);
            self.code.push(Instr::Mov { d: t, a: r, w: 1 });
            t
        }
    }

    /// Compiles `args` into a fresh contiguous block of temporaries, each at
    /// the prefix sum of the widths before it — where the callee's
    /// parameters sit in its own frame, which starts at the block. Returns
    /// the block's first slot and its size in slots; the block is the top
    /// of the live temporaries when it returns.
    fn arg_block(&mut self, args: &[IrExpr]) -> (Reg, u16) {
        let slots: u32 = args.iter().map(|a| u32::from(slots_of(&a.ty))).sum();
        let slots = u16::try_from(slots).unwrap_or(u16::MAX);
        let base = self.alloc_temp(slots);
        if self.overflow {
            return (base, 0);
        }
        // Each argument is built in its slot, like a value assigned to a
        // local; what it needs on the way lives above the whole block, so a
        // destination is never a register `alloc_temp` hands out.
        let above = self.temp_top;
        let mut slot = base;
        for a in args {
            self.expr_into(a, slot);
            slot += slots_of(&a.ty);
            self.release(above);
        }
        (base, slots)
    }

    fn compile_assign(&mut self, dst: LocalId, value: &IrExpr) {
        let slot = &self.func.locals[dst.0 as usize];
        if slot.in_memory {
            let addr = self.alloc_temp(1);
            self.code.push(Instr::FrameAddr {
                d: addr,
                offset: self.local_offsets[dst.0 as usize],
            });
            let v = self.expr(value, None);
            self.emit_store(&value.ty, Addr::reg(addr), v, true);
            return;
        }
        let dreg = self.local_regs[dst.0 as usize];
        // Peephole: vector FMA `acc = acc + x * y`.
        if let Ty::Vector(st, _) = &value.ty {
            if let ExprKind::Binary {
                op: BinKind::Add,
                lhs,
                rhs,
            } = &value.kind
            {
                if matches!(lhs.kind, ExprKind::Local(l) if l == dst) {
                    if let ExprKind::Binary {
                        op: BinKind::Mul,
                        lhs: x,
                        rhs: y,
                    } = &rhs.kind
                    {
                        let a = self.expr(x, None);
                        let b = self.expr(y, None);
                        self.code.push(match st {
                            ScalarTy::F32 => Instr::VFmaF32 { d: dreg, a, b },
                            ScalarTy::F64 => Instr::VFmaF64 { d: dreg, a, b },
                            _ => unreachable!("integer vectors are not supported"),
                        });
                        return;
                    }
                }
            }
        }
        self.expr_into(value, dreg);
    }

    /// Computes `e` into `d`: built there if `e` makes a fresh value, copied
    /// there if it already sits in a register.
    fn expr_into(&mut self, e: &IrExpr, d: Reg) {
        let r = self.expr(e, Some(d));
        if r != d {
            let w = slots_of(&e.ty) as u8;
            self.code.push(Instr::Mov { d, a: r, w });
        }
    }

    fn patch(&mut self, at: usize, target: u32) {
        *self.code[at]
            .target_mut()
            .expect("only jumps and branches are patched") = target;
    }

    /// Opens a loop. Entering a loop nest (returns whether `s` is its
    /// outermost loop) first pins the constants the nest uses as operands:
    /// one `const.*` per entry of the nest instead of one per use.
    fn enter_loop(&mut self, s: &IrStmt) -> bool {
        let outermost = self.loop_breaks.is_empty();
        if outermost {
            let mut found = Vec::new();
            nest_constants(std::slice::from_ref(s), &mut found);
            for c in found {
                let d = self.alloc_temp(1);
                self.code.push(c.instr(d));
                self.pinned.push((c, d));
            }
        }
        self.loop_breaks.push(Vec::new());
        outermost
    }

    /// Closes the loop opened last: its `break`s land here.
    fn leave_loop(&mut self, outermost: bool) {
        let end = self.code.len() as u32;
        for site in self.loop_breaks.pop().expect("pushed by enter_loop") {
            self.patch(site, end);
        }
        if outermost {
            self.pinned.clear();
        }
    }

    /// Emits a branch taken when `cond` evaluates to `when` and returns its
    /// index, for the caller to patch the target in. An integer comparison
    /// is fused into the branch.
    fn branch_if(&mut self, cond: &IrExpr, when: bool) -> usize {
        let instr = match &cond.kind {
            ExprKind::Cmp { op, lhs, rhs } if fusible(&lhs.ty) => {
                let a = self.expr(lhs, None);
                let b = self.expr(rhs, None);
                let signed = matches!(lhs.ty, Ty::Scalar(s) if s.is_signed());
                let op = if when { *op } else { op.negated() };
                let target = 0;
                match (int_cmp(op, a, b), signed) {
                    ((IntCmp::Eq, a, b), _) => Instr::BrEqI { a, b, target },
                    ((IntCmp::Ne, a, b), _) => Instr::BrNeI { a, b, target },
                    ((IntCmp::Lt, a, b), true) => Instr::BrLtS { a, b, target },
                    ((IntCmp::Le, a, b), true) => Instr::BrLeS { a, b, target },
                    ((IntCmp::Lt, a, b), false) => Instr::BrLtU { a, b, target },
                    ((IntCmp::Le, a, b), false) => Instr::BrLeU { a, b, target },
                }
            }
            _ => {
                let c = self.expr(cond, None);
                if when {
                    Instr::BrTrue { c, target: 0 }
                } else {
                    Instr::BrFalse { c, target: 0 }
                }
            }
        };
        self.code.push(instr);
        self.code.len() - 1
    }

    // -- expressions ----------------------------------------------------------

    /// Compiles `e`, preferring to place the result in `want` when the node
    /// produces a fresh value. Returns the register actually holding the
    /// result.
    fn expr(&mut self, e: &IrExpr, want: Option<Reg>) -> Reg {
        let width = slots_of(&e.ty);
        let dst = |c: &mut Self| want.unwrap_or_else(|| c.alloc_temp(width));
        match &e.kind {
            ExprKind::ConstInt(_) | ExprKind::ConstFloat(_) => {
                let c = Const::of(e).expect("an integer or float literal");
                // Inside a loop nest an operand may be sitting in a register.
                if want.is_none() {
                    if let Some((_, r)) = self.pinned.iter().find(|(p, _)| *p == c) {
                        return *r;
                    }
                }
                let d = dst(self);
                self.code.push(c.instr(d));
                d
            }
            ExprKind::ConstBool(b) => {
                let d = dst(self);
                self.code.push(Instr::ConstI { d, v: *b as i64 });
                d
            }
            ExprKind::ConstNull => {
                let d = dst(self);
                self.code.push(Instr::ConstI { d, v: 0 });
                d
            }
            ExprKind::ConstFunc(id) => {
                let d = dst(self);
                self.code.push(Instr::ConstI {
                    d,
                    v: crate::bytecode::encode_func_ptr(*id) as i64,
                });
                d
            }
            ExprKind::ConstStr(s) => {
                let addr = self.ctx.intern_string(s);
                let d = dst(self);
                self.code.push(Instr::ConstI { d, v: addr as i64 });
                d
            }
            ExprKind::Local(id) => {
                let slot = &self.func.locals[id.0 as usize];
                if slot.in_memory {
                    let a = self.alloc_temp(1);
                    self.code.push(Instr::FrameAddr {
                        d: a,
                        offset: self.local_offsets[id.0 as usize],
                    });
                    let d = dst(self);
                    self.emit_load(&slot.ty, d, Addr::reg(a), true);
                    d
                } else {
                    self.local_regs[id.0 as usize]
                }
            }
            ExprKind::LocalAddr(id) => {
                let d = dst(self);
                debug_assert_ne!(self.local_offsets[id.0 as usize], u32::MAX);
                self.code.push(Instr::FrameAddr {
                    d,
                    offset: self.local_offsets[id.0 as usize],
                });
                d
            }
            ExprKind::GlobalAddr(id) => {
                let d = dst(self);
                self.code.push(Instr::ConstI {
                    d,
                    v: self.globals[id.0 as usize] as i64,
                });
                d
            }
            ExprKind::Load(addr) => {
                let m = self.mem(addr);
                let d = dst(self);
                self.emit_load(&e.ty, d, m, self.chk(addr));
                d
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // An address that is a value: `base + idx*scale + disp` is
                // one `lea` (and a bare `base + idx` the `add.i` below).
                match lea_of(e) {
                    None | Some((_, Some(_), 1, 0)) => {}
                    Some(parts) => {
                        let m = self.operand(parts);
                        let d = dst(self);
                        self.code.push(Instr::Lea { d, m });
                        return d;
                    }
                }
                let a = self.expr(lhs, None);
                let b = self.expr(rhs, None);
                let d = dst(self);
                self.emit_binary(&e.ty, *op, d, a, b);
                // The 64-bit result may have left a narrow integer type.
                if matches!(&e.ty, Ty::Scalar(s) if op.can_leave(*s)) && !self.proven(e) {
                    self.emit_norm(&e.ty, d);
                }
                d
            }
            ExprKind::Cmp { op, lhs, rhs } => {
                let a = self.expr(lhs, None);
                let b = self.expr(rhs, None);
                let d = dst(self);
                self.emit_cmp(&lhs.ty, *op, d, a, b);
                d
            }
            ExprKind::Unary { op, expr } => {
                let a = self.expr(expr, None);
                let d = dst(self);
                match (op, &e.ty) {
                    (UnKind::Neg, Ty::Scalar(ScalarTy::F64)) => {
                        self.code.push(Instr::NegF64 { d, a })
                    }
                    (UnKind::Neg, Ty::Scalar(ScalarTy::F32)) => {
                        self.code.push(Instr::NegF32 { d, a })
                    }
                    (UnKind::Neg, Ty::Vector(st, _)) => {
                        // 0 - x, lane-wise.
                        let z = self.alloc_temp(VECTOR_SLOTS);
                        self.code.push(Instr::ConstI { d: z, v: 0 });
                        if *st == ScalarTy::F32 {
                            self.code.push(Instr::SplatF32 { d: z, a: z });
                            self.code.push(Instr::VSubF32 { d, a: z, b: a });
                        } else {
                            self.code.push(Instr::SplatF64 { d: z, a: z });
                            self.code.push(Instr::VSubF64 { d, a: z, b: a });
                        }
                    }
                    (UnKind::Neg, _) => {
                        self.code.push(Instr::NegI { d, a });
                        if !self.proven(e) {
                            self.emit_norm(&e.ty, d);
                        }
                    }
                    (UnKind::Not, Ty::Scalar(ScalarTy::Bool)) => {
                        self.code.push(Instr::NotB { d, a })
                    }
                    (UnKind::Not, _) => {
                        self.code.push(Instr::NotI { d, a });
                        self.emit_norm(&e.ty, d);
                    }
                }
                d
            }
            ExprKind::Cast(inner) => self.emit_cast(e, inner, want),
            ExprKind::Call { callee, args } => match self.call(e, callee, args, want) {
                // Unit-typed call used in expression position: hand back a
                // zeroed register for uniformity.
                NO_REG => {
                    let z = dst(self);
                    self.code.push(Instr::ConstI { d: z, v: 0 });
                    z
                }
                d => d,
            },
            ExprKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                let br_at = self.branch_if(cond, false);
                let d = dst(self);
                self.expr_into(then_value, d);
                let jmp_at = self.code.len();
                self.code.push(Instr::Jmp { target: 0 });
                let else_start = self.code.len() as u32;
                self.patch(br_at, else_start);
                self.expr_into(else_value, d);
                let end = self.code.len() as u32;
                self.patch(jmp_at, end);
                d
            }
        }
    }

    /// Compiles the call `e` and returns the register its result lands in,
    /// [`NO_REG`] when it has none.
    fn call(&mut self, e: &IrExpr, callee: &Callee, args: &[IrExpr], want: Option<Reg>) -> Reg {
        // A hint addresses memory the way a load does.
        if let (Callee::Builtin(Builtin::Prefetch), [addr]) = (callee, args) {
            let m = self.mem(addr);
            self.code.push(Instr::Prefetch { m });
            return NO_REG;
        }
        let fptr = if let Callee::Indirect(p) = callee {
            Some(self.expr(p, None))
        } else {
            None
        };
        // Arguments land in a contiguous block at the top of the live
        // temporaries: the callee's frame starts there, so it overwrites
        // nothing this frame still needs (a result wanted above the block is
        // written after the callee is gone).
        let (args, nargs) = self.arg_block(args);
        debug_assert!(self.overflow || args + nargs == self.temp_top);
        let w = slots_of(&e.ty);
        let (d, w) = if e.ty == Ty::Unit {
            (NO_REG, 0)
        } else {
            (want.unwrap_or_else(|| self.alloc_temp(w)), w as u8)
        };
        self.code.push(match callee {
            Callee::Direct(id) => Instr::Call {
                d,
                w,
                f: *id,
                args,
                nargs,
            },
            Callee::Builtin(b) => Instr::CallBuiltin {
                d,
                b: *b,
                args,
                nargs,
            },
            Callee::Indirect(_) => Instr::CallIndirect {
                d,
                w,
                f: fptr.expect("indirect pointer compiled above"),
                args,
                nargs,
            },
        });
        d
    }

    fn emit_binary(&mut self, ty: &Ty, op: BinKind, d: Reg, a: Reg, b: Reg) {
        match ty {
            Ty::Vector(st, _) => {
                let instr = match (st, op) {
                    (ScalarTy::F32, BinKind::Add) => Instr::VAddF32 { d, a, b },
                    (ScalarTy::F32, BinKind::Sub) => Instr::VSubF32 { d, a, b },
                    (ScalarTy::F32, BinKind::Mul) => Instr::VMulF32 { d, a, b },
                    (ScalarTy::F32, BinKind::Div) => Instr::VDivF32 { d, a, b },
                    (ScalarTy::F32, BinKind::Min) => Instr::VMinF32 { d, a, b },
                    (ScalarTy::F32, BinKind::Max) => Instr::VMaxF32 { d, a, b },
                    (ScalarTy::F64, BinKind::Add) => Instr::VAddF64 { d, a, b },
                    (ScalarTy::F64, BinKind::Sub) => Instr::VSubF64 { d, a, b },
                    (ScalarTy::F64, BinKind::Mul) => Instr::VMulF64 { d, a, b },
                    (ScalarTy::F64, BinKind::Div) => Instr::VDivF64 { d, a, b },
                    (ScalarTy::F64, BinKind::Min) => Instr::VMinF64 { d, a, b },
                    (ScalarTy::F64, BinKind::Max) => Instr::VMaxF64 { d, a, b },
                    other => unreachable!("unsupported vector op {other:?}"),
                };
                self.code.push(instr);
            }
            Ty::Scalar(ScalarTy::F64) => {
                let instr = match op {
                    BinKind::Add => Instr::AddF64 { d, a, b },
                    BinKind::Sub => Instr::SubF64 { d, a, b },
                    BinKind::Mul => Instr::MulF64 { d, a, b },
                    BinKind::Div => Instr::DivF64 { d, a, b },
                    BinKind::Min => Instr::MinF64 { d, a, b },
                    BinKind::Max => Instr::MaxF64 { d, a, b },
                    other => unreachable!("unsupported f64 op {other:?}"),
                };
                self.code.push(instr);
            }
            Ty::Scalar(ScalarTy::F32) => {
                let instr = match op {
                    BinKind::Add => Instr::AddF32 { d, a, b },
                    BinKind::Sub => Instr::SubF32 { d, a, b },
                    BinKind::Mul => Instr::MulF32 { d, a, b },
                    BinKind::Div => Instr::DivF32 { d, a, b },
                    BinKind::Min => Instr::MinF32 { d, a, b },
                    BinKind::Max => Instr::MaxF32 { d, a, b },
                    other => unreachable!("unsupported f32 op {other:?}"),
                };
                self.code.push(instr);
            }
            _ => {
                // Integers, pointers, bools.
                let signed = matches!(ty, Ty::Scalar(s) if s.is_signed());
                // `min.s`/`max.s` order canonical registers, which below 64
                // bits is unsigned order too. A 64-bit unsigned min/max
                // branches on `br.lt.u` to the `mov` of the operand it keeps.
                let narrow = matches!(ty, Ty::Scalar(s) if s.size() < 8);
                if matches!(op, BinKind::Min | BinKind::Max) && !signed && !narrow {
                    let (x, y) = if op == BinKind::Min { (b, a) } else { (a, b) };
                    let at = self.code.len() as u32;
                    self.code.extend([
                        Instr::BrLtU {
                            a: x,
                            b: y,
                            target: at + 3,
                        },
                        Instr::Mov { d, a, w: 1 },
                        Instr::Jmp { target: at + 4 },
                        Instr::Mov { d, a: b, w: 1 },
                    ]);
                    return;
                }
                let instr = match op {
                    BinKind::Add => Instr::AddI { d, a, b },
                    BinKind::Sub => Instr::SubI { d, a, b },
                    BinKind::Mul => Instr::MulI { d, a, b },
                    BinKind::Div if signed => Instr::DivS { d, a, b },
                    BinKind::Div => Instr::DivU { d, a, b },
                    BinKind::Rem if signed => Instr::RemS { d, a, b },
                    BinKind::Rem => Instr::RemU { d, a, b },
                    BinKind::Shl => Instr::Shl { d, a, b },
                    BinKind::Shr if signed => Instr::ShrS { d, a, b },
                    BinKind::Shr => Instr::ShrU { d, a, b },
                    BinKind::And => Instr::And { d, a, b },
                    BinKind::Or => Instr::Or { d, a, b },
                    BinKind::Xor => Instr::Xor { d, a, b },
                    BinKind::Min => Instr::MinS { d, a, b },
                    BinKind::Max => Instr::MaxS { d, a, b },
                };
                self.code.push(instr);
            }
        }
    }

    fn emit_cmp(&mut self, operand_ty: &Ty, op: CmpKind, d: Reg, a: Reg, b: Reg) {
        use CmpKind::*;
        match operand_ty {
            Ty::Scalar(ScalarTy::F64) => {
                let instr = match op {
                    Eq => Instr::CmpEqF64 { d, a, b },
                    Ne => Instr::CmpNeF64 { d, a, b },
                    Lt => Instr::CmpLtF64 { d, a, b },
                    Le => Instr::CmpLeF64 { d, a, b },
                    Gt => Instr::CmpLtF64 { d, a: b, b: a },
                    Ge => Instr::CmpLeF64 { d, a: b, b: a },
                };
                self.code.push(instr);
            }
            Ty::Scalar(ScalarTy::F32) => {
                let instr = match op {
                    Eq => Instr::CmpEqF32 { d, a, b },
                    Ne => Instr::CmpNeF32 { d, a, b },
                    Lt => Instr::CmpLtF32 { d, a, b },
                    Le => Instr::CmpLeF32 { d, a, b },
                    Gt => Instr::CmpLtF32 { d, a: b, b: a },
                    Ge => Instr::CmpLeF32 { d, a: b, b: a },
                };
                self.code.push(instr);
            }
            _ => {
                let signed = matches!(operand_ty, Ty::Scalar(s) if s.is_signed());
                let instr = match (int_cmp(op, a, b), signed) {
                    ((IntCmp::Eq, a, b), _) => Instr::CmpEqI { d, a, b },
                    ((IntCmp::Ne, a, b), _) => Instr::CmpNeI { d, a, b },
                    ((IntCmp::Lt, a, b), true) => Instr::CmpLtS { d, a, b },
                    ((IntCmp::Le, a, b), true) => Instr::CmpLeS { d, a, b },
                    ((IntCmp::Lt, a, b), false) => Instr::CmpLtU { d, a, b },
                    ((IntCmp::Le, a, b), false) => Instr::CmpLeU { d, a, b },
                };
                self.code.push(instr);
            }
        }
    }

    fn emit_cast(&mut self, e: &IrExpr, inner: &IrExpr, want: Option<Reg>) -> Reg {
        use ScalarTy::{Bool, F32, F64};
        let (from, to) = (&inner.ty, &e.ty);
        // Casts that change no bit of the register emit nothing: the
        // operand's canonical form is the result's.
        let free = from == to
            || match (from, to) {
                (Ty::Ptr(_) | Ty::Func(_) | Ty::Array(..), Ty::Ptr(_) | Ty::Func(_)) => true,
                (Ty::Scalar(f), Ty::Ptr(_)) => f.is_integer(),
                (Ty::Ptr(_), Ty::Scalar(t)) => t.is_integer() && t.size() == 8,
                (Ty::Scalar(f), Ty::Scalar(t)) => {
                    !f.is_float() && t.is_integer() && (f.widens_to(*t) || self.proven(e))
                }
                _ => false,
            };
        if free {
            return self.expr(inner, want);
        }
        // A broadcast of a loaded scalar is one instruction: the same load,
        // landing in every lane.
        if let (ExprKind::Load(addr), Ty::Scalar(s @ (F32 | F64)), Ty::Vector(lane, _)) =
            (&inner.kind, from, to)
        {
            if s == lane {
                let m = self.mem(addr);
                let d = want.unwrap_or_else(|| self.alloc_temp(VECTOR_SLOTS));
                let chk = self.chk(addr);
                self.code.push(match s {
                    F32 => Instr::LoadSplatF32 { d, m, chk },
                    _ => Instr::LoadSplatF64 { d, m, chk },
                });
                return d;
            }
        }
        let a = self.expr(inner, None);
        let d = want.unwrap_or_else(|| self.alloc_temp(slots_of(to)));
        let instr = match (from, to) {
            // Narrowing and sign-changing conversions wrap into the target.
            (Ty::Ptr(_), Ty::Scalar(t)) | (Ty::Scalar(_), Ty::Scalar(t))
                if !from.is_float() && IntWidth::of(*t).is_some() =>
            {
                let w = IntWidth::of(*t).expect("checked by the guard");
                Instr::Trunc { d, a, w }
            }
            // Scalar → vector broadcast.
            (Ty::Scalar(_), Ty::Vector(ScalarTy::F32, _)) => Instr::SplatF32 { d, a },
            (Ty::Scalar(_), Ty::Vector(ScalarTy::F64, _)) => Instr::SplatF64 { d, a },
            (Ty::Scalar(F32), Ty::Scalar(F64)) => Instr::CvtF32ToF64 { d, a },
            (Ty::Scalar(F64), Ty::Scalar(F32)) => Instr::CvtF64ToF32 { d, a },
            (Ty::Scalar(f), Ty::Scalar(t)) if f.is_float() && t.is_integer() => {
                self.code.push(if *f == F32 {
                    Instr::CvtF32ToS { d, a }
                } else if t.is_signed() {
                    Instr::CvtF64ToS { d, a }
                } else {
                    Instr::CvtF64ToU { d, a }
                });
                self.emit_norm(to, d);
                return d;
            }
            (Ty::Scalar(f), Ty::Scalar(t)) if !f.is_float() && t.is_float() => {
                match (f.is_signed(), t) {
                    (true, F64) => Instr::CvtSToF64 { d, a },
                    (true, _) => Instr::CvtSToF32 { d, a },
                    (false, F64) => Instr::CvtUToF64 { d, a },
                    (false, _) => Instr::CvtUToF32 { d, a },
                }
            }
            (Ty::Scalar(f), Ty::Scalar(Bool)) => {
                let z = self.alloc_temp(1);
                if f.is_float() {
                    self.code.push(Instr::ConstF64 { d: z, v: 0.0 });
                    let wide = if *f == F32 {
                        let w = self.alloc_temp(1);
                        self.code.push(Instr::CvtF32ToF64 { d: w, a });
                        w
                    } else {
                        a
                    };
                    Instr::CmpNeF64 { d, a: wide, b: z }
                } else {
                    self.code.push(Instr::ConstI { d: z, v: 0 });
                    Instr::CmpNeI { d, a, b: z }
                }
            }
            other => unreachable!("unsupported cast {other:?}"),
        };
        self.code.push(instr);
        d
    }

    /// Re-canonicalizes register `r` holding a value of narrow integer type.
    /// An `int32` result of the `add.i`/`sub.i`/`mul.i`/`shl` just emitted
    /// is wrapped by that instruction's 32-bit row instead of a `trunc`.
    fn emit_norm(&mut self, ty: &Ty, r: Reg) {
        let Ty::Scalar(s) = ty else { return };
        let Some(w) = IntWidth::of(*s) else { return };
        let wrapped = match (w, self.code.last()) {
            (IntWidth::I32, Some(&Instr::AddI { d, a, b })) if d == r => Instr::AddI32 { d, a, b },
            (IntWidth::I32, Some(&Instr::SubI { d, a, b })) if d == r => Instr::SubI32 { d, a, b },
            (IntWidth::I32, Some(&Instr::MulI { d, a, b })) if d == r => Instr::MulI32 { d, a, b },
            (IntWidth::I32, Some(&Instr::Shl { d, a, b })) if d == r => Instr::ShlI32 { d, a, b },
            _ => return self.code.push(Instr::Trunc { d: r, a: r, w }),
        };
        *self.code.last_mut().expect("an instruction was matched") = wrapped;
    }

    /// The operand that addresses `addr`: what [`lea_of`] finds in it, or
    /// else the whole of it in one register.
    fn mem(&mut self, addr: &IrExpr) -> Addr {
        match lea_of(addr) {
            Some(parts) => self.operand(parts),
            None => Addr::reg(self.expr(addr, None)),
        }
    }

    /// What [`lea_of`] found, its base and index in registers.
    fn operand(&mut self, parts: (&IrExpr, Option<&IrExpr>, i32, i64)) -> Addr {
        let (base, index, scale, disp) = parts;
        Addr {
            a: self.expr(base, None),
            b: index.map_or(NO_REG, |i| self.expr(i, None)),
            scale,
            disp,
        }
    }

    /// Emits the load of a `ty` from `m`, bounds-checked or not as `chk`
    /// says.
    fn emit_load(&mut self, ty: &Ty, d: Reg, m: Addr, chk: bool) {
        let instr = match ty {
            Ty::Scalar(ScalarTy::Bool) | Ty::Scalar(ScalarTy::U8) => Instr::LoadU8 { d, m, chk },
            Ty::Scalar(ScalarTy::I8) => Instr::LoadI8 { d, m, chk },
            Ty::Scalar(ScalarTy::I16) => Instr::LoadI16 { d, m, chk },
            Ty::Scalar(ScalarTy::U16) => Instr::LoadU16 { d, m, chk },
            Ty::Scalar(ScalarTy::I32) => Instr::LoadI32 { d, m, chk },
            Ty::Scalar(ScalarTy::U32) => Instr::LoadU32 { d, m, chk },
            Ty::Scalar(ScalarTy::I64) | Ty::Scalar(ScalarTy::U64) | Ty::Ptr(_) | Ty::Func(_) => {
                Instr::Load64 { d, m, chk }
            }
            Ty::Scalar(ScalarTy::F32) => Instr::LoadF32 { d, m, chk },
            Ty::Scalar(ScalarTy::F64) => Instr::LoadF64 { d, m, chk },
            Ty::Vector(st, n) => Instr::LoadV {
                d,
                m,
                bytes: (st.size() * *n as u64) as u8,
                chk,
            },
            // Arrays in r-value position decay to their address: no memory
            // is touched, so there is no check to carry.
            Ty::Array(..) if m == Addr::reg(m.a) => Instr::Mov { d, a: m.a, w: 1 },
            Ty::Array(..) => Instr::Lea { d, m },
            other => unreachable!("cannot load aggregate type {other}"),
        };
        self.code.push(instr);
    }

    /// Emits the store of a `ty` to `m`, bounds-checked or not as `chk`
    /// says.
    fn emit_store(&mut self, ty: &Ty, m: Addr, s: Reg, chk: bool) {
        let instr = match ty {
            Ty::Scalar(ScalarTy::Bool) | Ty::Scalar(ScalarTy::I8) | Ty::Scalar(ScalarTy::U8) => {
                Instr::Store8 { m, s, chk }
            }
            Ty::Scalar(ScalarTy::I16) | Ty::Scalar(ScalarTy::U16) => Instr::Store16 { m, s, chk },
            Ty::Scalar(ScalarTy::I32) | Ty::Scalar(ScalarTy::U32) => Instr::Store32 { m, s, chk },
            Ty::Scalar(ScalarTy::I64) | Ty::Scalar(ScalarTy::U64) | Ty::Ptr(_) | Ty::Func(_) => {
                Instr::Store64 { m, s, chk }
            }
            Ty::Scalar(ScalarTy::F32) => Instr::StoreF32 { m, s, chk },
            Ty::Scalar(ScalarTy::F64) => Instr::StoreF64 { m, s, chk },
            Ty::Vector(st, n) => Instr::StoreV {
                m,
                s,
                bytes: (st.size() * *n as u64) as u8,
                chk,
            },
            other => unreachable!("cannot store aggregate type {other}"),
        };
        self.code.push(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Value;
    use terra_ir::{FuncTy, IrFunction};

    fn run(f: IrFunction, args: &[Value]) -> Value {
        let mut ctx = ExecutionContext::new();
        let types = TypeRegistry::new();
        let id = ctx.declare(f.name.clone());
        let compiled = compile(&f, &types, &mut ctx, &[]);
        ctx.define(id, compiled);
        ctx.call(id, args).unwrap()
    }

    fn unit_function(name: &str, body: Vec<IrStmt>) -> IrFunction {
        IrFunction {
            name: name.into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::Unit,
            },
            locals: vec![],
            body,
            index_range: None,
        }
    }

    /// Temporaries overflow a frame just as locals do: a call whose
    /// argument block alone is too wide is an error, not a wrapped counter.
    #[test]
    fn too_wide_an_argument_block_is_an_error() {
        let mut ctx = ExecutionContext::new();
        let callee = ctx.declare("sink");
        let call = IrExpr {
            ty: Ty::Unit,
            kind: ExprKind::Call {
                callee: Callee::Direct(callee),
                args: vec![IrExpr::int32(1); MAX_SLOTS as usize + 1],
            },
        };
        let f = unit_function("wide", vec![StmtKind::Expr(call).into()]);
        let err = try_compile(&f, &TypeRegistry::new(), &mut ctx, &[]).unwrap_err();
        assert_eq!(&*err.func, "wide");
        assert!(err.message.contains("65534 register slots"), "{err}");
    }

    /// Code that only *looks* like it can run off the end — dead statements
    /// after a `return`, the never-taken exit of a `while true` — ends in a
    /// trap, so that every compiled function passes the validator.
    #[test]
    fn unreachable_ends_land_on_a_trap() {
        let forever = StmtKind::While {
            cond: IrExpr::boolean(true),
            body: vec![],
        };
        let mut dead_tail = unit_function("dead_tail", vec![]);
        let x = dead_tail.add_local("x", Ty::INT, false);
        dead_tail.body = vec![
            StmtKind::Return(None).into(),
            StmtKind::Assign {
                dst: x,
                value: IrExpr::int32(1),
            }
            .into(),
        ];
        for f in [unit_function("forever", vec![forever.into()]), dead_tail] {
            let mut ctx = ExecutionContext::new();
            let compiled = compile(&f, &TypeRegistry::new(), &mut ctx, &[]);
            assert_eq!(compiled.code.last(), Some(&Instr::Trap), "{}", f.name);
        }
    }

    #[test]
    fn compiles_arithmetic() {
        // f(a, b) = (a + b) * 2
        let mut f = IrFunction {
            name: "f".into(),
            ty: FuncTy {
                params: vec![Ty::INT, Ty::INT],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let a = f.add_local("a", Ty::INT, false);
        let b = f.add_local("b", Ty::INT, false);
        f.body = vec![StmtKind::Return(Some(IrExpr::binary(
            BinKind::Mul,
            IrExpr::binary(
                BinKind::Add,
                IrExpr::local(a, Ty::INT),
                IrExpr::local(b, Ty::INT),
            ),
            IrExpr::int32(2),
        )))
        .into()];
        assert_eq!(run(f, &[Value::Int(3), Value::Int(4)]), Value::Int(14));
    }

    #[test]
    fn compiles_for_loop_sum() {
        // f(n) = sum_{i<n} i
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
            StmtKind::Return(Some(IrExpr::local(acc, Ty::INT))).into(),
        ];
        assert_eq!(run(f, &[Value::Int(10)]), Value::Int(45));
    }

    #[test]
    fn compiles_in_memory_local_and_addr() {
        // var x : int (in memory); *(&x) = 5; return x
        let mut f = IrFunction {
            name: "mem".into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let x = f.add_local("x", Ty::INT, true);
        f.body = vec![
            StmtKind::Store {
                addr: IrExpr {
                    ty: Ty::INT.ptr_to(),
                    kind: ExprKind::LocalAddr(x),
                },
                value: IrExpr::int32(5),
            }
            .into(),
            StmtKind::Return(Some(IrExpr::local(x, Ty::INT))).into(),
        ];
        assert_eq!(run(f, &[]), Value::Int(5));
    }

    #[test]
    fn compiles_if_and_break() {
        // while true: if i >= 3 break; i++  → returns 3
        let mut f = IrFunction {
            name: "brk".into(),
            ty: FuncTy {
                params: vec![],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let i = f.add_local("i", Ty::INT, false);
        f.body = vec![
            StmtKind::Assign {
                dst: i,
                value: IrExpr::int32(0),
            }
            .into(),
            StmtKind::While {
                cond: IrExpr::boolean(true),
                body: vec![
                    StmtKind::If {
                        cond: IrExpr::cmp(CmpKind::Ge, IrExpr::local(i, Ty::INT), IrExpr::int32(3)),
                        then_body: vec![StmtKind::Break.into()],
                        else_body: vec![],
                    }
                    .into(),
                    StmtKind::Assign {
                        dst: i,
                        value: IrExpr::binary(
                            BinKind::Add,
                            IrExpr::local(i, Ty::INT),
                            IrExpr::int32(1),
                        ),
                    }
                    .into(),
                ],
            }
            .into(),
            StmtKind::Return(Some(IrExpr::local(i, Ty::INT))).into(),
        ];
        assert_eq!(run(f, &[]), Value::Int(3));
    }

    #[test]
    fn narrow_integer_wrapping() {
        // u8 arithmetic wraps at 256: f(a) = (a + 1) as u8
        let mut f = IrFunction {
            name: "wrap".into(),
            ty: FuncTy {
                params: vec![Ty::U8],
                ret: Ty::U8,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let a = f.add_local("a", Ty::U8, false);
        f.body = vec![StmtKind::Return(Some(IrExpr::binary(
            BinKind::Add,
            IrExpr::local(a, Ty::U8),
            IrExpr {
                ty: Ty::U8,
                kind: ExprKind::ConstInt(1),
            },
        )))
        .into()];
        assert_eq!(run(f, &[Value::Int(255)]), Value::Int(0));
    }

    #[test]
    fn scalar_casts_execute() {
        // f(x: f64) = (int)x
        let mut f = IrFunction {
            name: "trunc".into(),
            ty: FuncTy {
                params: vec![Ty::F64],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let x = f.add_local("x", Ty::F64, false);
        f.body = vec![StmtKind::Return(Some(IrExpr {
            ty: Ty::INT,
            kind: ExprKind::Cast(Box::new(IrExpr::local(x, Ty::F64))),
        }))
        .into()];
        assert_eq!(run(f, &[Value::Float(3.99)]), Value::Int(3));
    }
}
