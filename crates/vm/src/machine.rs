//! The bytecode interpreter.
//!
//! A register machine over one file of 8-byte slots: a scalar register is
//! a slot, a vector register four consecutive ones, and a frame is the
//! window of the file its function's `nslots` says. Windows overlap the way
//! Lua 5's do: a callee's starts at its caller's argument block, so a call
//! copies no argument and a return copies one result. Execution is
//! completely independent of the meta-language (the paper's *separate
//! evaluation*): the only shared state is the [`Program`](crate::Program)'s
//! function table, reached read-only through the executing
//! [`ExecutionContext`](crate::ExecutionContext).
//!
//! The dispatch loop itself owns **no state**: [`Vm`] is a plain data
//! holder (register file + call stack) living inside the context, lent to
//! the loop for the duration of a call. The loop specialises *before* it
//! dispatches: it borrows the running frame's window, code and pc once per
//! frame entry, frames name their function by [`FuncId`] into a program the
//! caller holds (no reference count moves per call), and whether a memory
//! access is bounds-checked is a bit of the instruction. What makes the
//! window safe to index is [`CompiledFunction::new`]'s load-time walk.
//! Nothing is shared between two loops but the `Arc<Program>`, which is
//! what lets `parallelfor` run one per worker thread.
//!
//! Everything that *watches* execution sits behind the
//! [`Observer`](crate::observer::Observer) hooks the loop is generic over;
//! an unobserved run's instantiation contains no telemetry code at all.

use crate::bytecode::{decode_func_ptr, slots_of, CompiledFunction, Instr, IntWidth, Reg, NO_REG};
use crate::cache::Access;
use crate::exec::ExecutionContext;
use crate::memory::{image_of, lanes_of, MemError, Memory};
use crate::observer::{observed, Observer};
use crate::program::{Program, Value};
use std::fmt;
use std::sync::Arc;
use terra_ir::{Builtin, Effect, FuncId, ScalarTy, Ty};
use terra_trace::{EffectKind, Site};

/// What went wrong in a runtime fault: everything about a [`Trap`] but where
/// it happened. This is what the dispatch loop raises; a new fault (a
/// budget, an audit, a race) is one more row here and needs no formatting
/// code of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum TrapKind {
    /// Out-of-bounds or null memory access (including sanitizer
    /// use-after-free / double-free findings).
    Memory(MemError),
    /// Integer division or remainder by zero.
    DivByZero,
    /// Terra stack exhausted (deep recursion or huge frames).
    StackOverflow,
    /// Called a declared-but-undefined function.
    Undefined(String),
    /// Indirect call through a value that is not a function pointer.
    NotAFunction(u64),
    /// `abort()` was called or a `Trap` instruction executed.
    Abort,
    /// Malformed `printf` format/arguments.
    BadFormat(String),
    /// Argument count mismatch at an FFI call boundary.
    ArityMismatch {
        /// What the function expects.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// A `parallelfor` kernel violated the parallel-region rules (e.g.
    /// reached an allocating builtin or an indirect call). Raised by the
    /// static kernel check before any iteration runs.
    Parallel(String),
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::Memory(err) => write!(f, "{err}"),
            TrapKind::DivByZero => write!(f, "integer division by zero"),
            TrapKind::StackOverflow => write!(f, "terra stack overflow"),
            TrapKind::Undefined(name) => write!(f, "call to undefined function '{name}'"),
            TrapKind::NotAFunction(bits) => {
                write!(f, "indirect call through non-function value {bits:#x}")
            }
            TrapKind::Abort => write!(f, "program aborted"),
            TrapKind::BadFormat(m) => write!(f, "printf: {m}"),
            TrapKind::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} argument(s) but got {got}")
            }
            TrapKind::Parallel(m) => write!(f, "parallelfor: {m}"),
        }
    }
}

impl From<MemError> for TrapKind {
    fn from(e: MemError) -> Self {
        TrapKind::Memory(e)
    }
}

/// A runtime fault in Terra code: what went wrong, and the [`Site`] of the
/// innermost Terra frame when it did. `site` is `None` only for faults
/// raised outside VM execution (a host-side access, the arity check at the
/// FFI boundary, the static check of a `parallelfor` kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct Trap {
    /// What went wrong.
    pub kind: TrapKind,
    /// Where, if Terra code was running.
    pub site: Option<Site>,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        match &self.site {
            Some(site) => write!(f, " {}", site.sentence()),
            None => Ok(()),
        }
    }
}

impl std::error::Error for Trap {}

/// A fault raised where no Terra code is running.
impl<K: Into<TrapKind>> From<K> for Trap {
    fn from(kind: K) -> Self {
        Trap {
            kind: kind.into(),
            site: None,
        }
    }
}

/// Result alias for VM execution.
pub type ExecResult<T> = Result<T, Trap>;

/// Result of the dispatch loop and what it calls, before
/// [`ExecutionContext::call_observed`] says where a fault happened.
pub(crate) type Raised<T> = Result<T, TrapKind>;

const MAX_FRAMES: usize = 4096;

/// A 256-bit register image: a value crossing the host boundary
/// ([`ExecutionContext::call`], [`decode_value`]), scalar in lane 0. Inside
/// the machine a register is a run of 8-byte frame slots.
pub type RegImage = [u64; 4];

#[derive(Debug)]
struct Frame {
    /// The running function: an index into the program's table, so a call
    /// moves no reference count.
    func: FuncId,
    pc: usize,
    /// First slot of the frame's window in [`Vm::regs`]: its caller's
    /// argument block, where its parameters already are.
    base: usize,
    /// Its frame memory, or the stack pointer at entry when it has none.
    mem_base: u64,
    /// Where the caller wants the result (`ret_w` slots at `ret_dst`).
    ret_dst: Reg,
    ret_w: u8,
}

/// The register file and call stack of one execution context. Pure data:
/// the dispatch loop lives on [`ExecutionContext`], which lends this out
/// for the duration of a call.
#[derive(Debug, Default)]
pub struct Vm {
    /// One slot file for every live frame, the running one on top. Windows
    /// overlap: a callee's starts at its caller's argument block. The file
    /// only grows, to the highest window a call has reached.
    regs: Vec<u64>,
    frames: Vec<Frame>,
    /// Where a trap that is crossing a `parallelfor` region says it
    /// happened: the loop raises a site-less [`TrapKind`], so the region's
    /// answer waits here for [`ExecutionContext::call_observed`].
    region_site: Option<Option<Site>>,
}

impl Vm {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Vm::default()
    }
}

/// FNV-1a-64 digest of a register file given in two pieces (the frames
/// below the running one, then its window), hashing each slot as its
/// little-endian byte image (endianness-independent). Used by the flight
/// recorder's checkpoints; meaningful only when comparing identical
/// configurations — register allocation differs across optimization levels.
pub(crate) fn state_hash(lower: &[u64], frame: &[u64]) -> u64 {
    let mut h = terra_trace::Fnv64::new();
    for &slot in lower.iter().chain(frame) {
        h.write_u64(slot);
    }
    h.finish()
}

// The vector helpers below spell their lanes out instead of looping: an
// unoptimized build (what `cargo test` runs) turns every iterator step into
// calls, and a vector instruction is only worth having if it stays cheaper
// than the scalar ones it replaces.

/// A vector register: the four slots starting at `r`, taken as one range —
/// one bounds check per operand, where indexing lane by lane made four (16
/// per `vfma`), and in an unoptimized build one call instead of four.
#[inline(always)]
fn vget(frame: &[u64], r: Reg) -> [u64; 4] {
    let r = r as usize;
    match frame[r..r + 4] {
        [a, b, c, d] => [a, b, c, d],
        _ => unreachable!("a range of four"),
    }
}

#[inline(always)]
fn vset(frame: &mut [u64], r: Reg, v: [u64; 4]) {
    let r = r as usize;
    match &mut frame[r..r + 4] {
        [a, b, c, d] => (*a, *b, *c, *d) = (v[0], v[1], v[2], v[3]),
        _ => unreachable!("a range of four"),
    }
}

#[inline]
fn vf64(v: [u64; 4]) -> [f64; 4] {
    [
        f64::from_bits(v[0]),
        f64::from_bits(v[1]),
        f64::from_bits(v[2]),
        f64::from_bits(v[3]),
    ]
}

#[inline]
fn to_vf64(x: [f64; 4]) -> [u64; 4] {
    [
        x[0].to_bits(),
        x[1].to_bits(),
        x[2].to_bits(),
        x[3].to_bits(),
    ]
}

#[inline]
fn vf32(v: [u64; 4]) -> [f32; 8] {
    let (lo, hi) = (
        |w: u64| f32::from_bits(w as u32),
        |w: u64| f32::from_bits((w >> 32) as u32),
    );
    [
        lo(v[0]),
        hi(v[0]),
        lo(v[1]),
        hi(v[1]),
        lo(v[2]),
        hi(v[2]),
        lo(v[3]),
        hi(v[3]),
    ]
}

#[inline]
fn to_vf32(x: [f32; 8]) -> [u64; 4] {
    let pack = |lo: f32, hi: f32| lo.to_bits() as u64 | ((hi.to_bits() as u64) << 32);
    [
        pack(x[0], x[1]),
        pack(x[2], x[3]),
        pack(x[4], x[5]),
        pack(x[6], x[7]),
    ]
}

impl ExecutionContext {
    /// Calls function `f` with FFI values, converting the result according
    /// to the function's signature.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any runtime fault, including calling an
    /// undefined function or passing the wrong number of arguments.
    pub fn call(&mut self, f: FuncId, args: &[Value]) -> ExecResult<Value> {
        let program = Arc::clone(&self.program);
        let func = program.defined(f)?;
        if args.len() != func.ty.params.len() {
            let (expected, got) = (func.ty.params.len(), args.len());
            return Err(TrapKind::ArityMismatch { expected, got }.into());
        }
        let mut slots = Vec::with_capacity(func.param_slots());
        for (v, ty) in args.iter().zip(&func.ty.params) {
            let end = slots.len() + slots_of(ty) as usize;
            slots.push(encode_arg(*v, ty));
            slots.resize(end, 0);
        }
        let start = self.trace.open();
        let bits = self.call_slots(&program, f, &slots)?;
        self.trace
            .record(terra_trace::Stage::Execute, &func.name, start);
        Ok(decode_value(&func.ty.ret, bits))
    }

    /// Calls `program[f]` with its parameter slots already laid out.
    /// `program` is this context's own, held by the caller so that neither
    /// a call nor a `parallelfor` iteration touches its reference count.
    ///
    /// "Is anyone observing?" is decided here, once per call: with any
    /// telemetry gate on, the dispatch loop runs instantiated over the
    /// context's [`Telemetry`](crate::observer::Telemetry); otherwise over
    /// [`NoObserver`](crate::observer::NoObserver), whose hooks compile away.
    pub(crate) fn call_slots(
        &mut self,
        program: &Program,
        f: FuncId,
        args: &[u64],
    ) -> ExecResult<RegImage> {
        observed!(self, |obs| self.call_observed(obs, program, f, args))
    }

    fn call_observed<O: Observer>(
        &mut self,
        obs: &mut O,
        program: &Program,
        f: FuncId,
        args: &[u64],
    ) -> ExecResult<RegImage> {
        // The loop borrows its frame window from the register file for as
        // long as a frame runs, so the file cannot stay inside `self`, which
        // builtins and `parallelfor` need whole.
        let mut vm = std::mem::take(&mut self.vm);
        debug_assert!(vm.frames.is_empty() && vm.regs.is_empty());
        let result = self.run(obs, program, &mut vm, f, args);
        let result = result.map_err(|kind| {
            // The innermost frame still on the stack names the Terra
            // function and (its pc was written back when the fault was
            // raised) the instruction that was executing — unless the fault
            // crossed a `parallelfor` region, which has already said where.
            let innermost = vm.frames.last().map(|fr| {
                let pc = fr.pc.saturating_sub(1);
                body(program, fr.func).site_at(pc)
            });
            // Unwind the frames (and their memory) the trap left; each
            // trapped activation still reports what it counted.
            while let Some(fr) = vm.frames.pop() {
                self.memory.pop_frame(fr.mem_base);
                obs.on_ret();
            }
            let site = vm.region_site.take().unwrap_or(innermost);
            Trap { kind, site }
        });
        vm.regs.clear();
        self.vm = vm;
        result
    }

    fn run<O: Observer>(
        &mut self,
        obs: &mut O,
        program: &Program,
        vm: &mut Vm,
        f: FuncId,
        args: &[u64],
    ) -> Raised<RegImage> {
        // The function each frame entry below runs: looked up once per
        // call, by the call, and once per return, for the caller.
        let mut running = program.defined(f)?;
        let n = args.len().min(running.nslots());
        vm.regs.extend_from_slice(&args[..n]);
        self.push_call(obs, vm, f, running, 0, n, NO_REG, 0)?;

        'frames: loop {
            // Pull the running frame's hot state into locals: its code, its
            // pc, and its window of the register file. The window is
            // borrowed once per frame entry; every operand below indexes it
            // against a length that lives in a machine register, and the
            // load-time validator proved each index inside it. (It is the
            // whole file above `base`: cut to `nslots`, its length is known
            // to fit 16 bits, and the loop then keeps its code pointer on
            // the stack.)
            let fr = vm.frames.last_mut().expect("a frame is running");
            let func: &CompiledFunction = running;
            let code = &func.code[..];
            let mem_base = fr.mem_base;
            let mut pc = fr.pc;
            let (lower, frame) = vm.regs.split_at_mut(fr.base);
            let lower = &*lower;

            macro_rules! r {
                ($i:expr) => {
                    frame[$i as usize]
                };
            }
            macro_rules! ri {
                ($i:expr) => {
                    frame[$i as usize] as i64
                };
            }
            macro_rules! rf64 {
                ($i:expr) => {
                    f64::from_bits(frame[$i as usize])
                };
            }
            macro_rules! rf32 {
                ($i:expr) => {
                    f32::from_bits(frame[$i as usize] as u32)
                };
            }
            macro_rules! rv {
                ($i:expr) => {
                    vget(frame, $i)
                };
            }
            macro_rules! set {
                ($d:expr, $v:expr) => {
                    frame[$d as usize] = $v
                };
            }
            macro_rules! seti {
                ($d:expr, $v:expr) => {
                    frame[$d as usize] = ($v) as u64
                };
            }
            macro_rules! setf64 {
                ($d:expr, $v:expr) => {
                    frame[$d as usize] = ($v).to_bits()
                };
            }
            macro_rules! setf32 {
                ($d:expr, $v:expr) => {
                    frame[$d as usize] = ($v).to_bits() as u64
                };
            }
            macro_rules! setv {
                ($d:expr, $v:expr) => {
                    vset(frame, $d, $v)
                };
            }
            // Raises a fault: writes the (already advanced) pc back to the
            // frame first, so the unwinder can look up the faulting
            // instruction's site in the debug-info tables.
            macro_rules! raise {
                ($kind:expr) => {{
                    fr.pc = pc;
                    return Err($kind.into());
                }};
            }
            // Fallible operation: its error is raised here.
            macro_rules! mem {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(err) => raise!(err),
                    }
                };
            }
            // The address an operand names, computed once per access: what
            // the memory, the observer and a trap are all told.
            macro_rules! ea {
                ($m:expr) => {{
                    let base = r!($m.a).wrapping_add($m.disp as u64);
                    if $m.b == NO_REG {
                        base
                    } else {
                        base.wrapping_add(r!($m.b).wrapping_mul($m.scale as u64))
                    }
                }};
            }
            // The `$n` bytes a scalar load reads; the observer sees the
            // traffic.
            macro_rules! fetch {
                ($m:expr, $chk:expr, $n:literal) => {{
                    let addr = ea!($m);
                    let bytes = mem!(self.memory.read::<$n>(addr, $chk));
                    obs.on_mem(pc - 1, addr, $n, Access::Load);
                    bytes
                }};
            }
            // Scalar load of `$n` bytes as `$ty`, sign- or zero-extended to
            // the slot (a float load is the load of its bit pattern).
            macro_rules! load {
                ($d:expr, $m:expr, $chk:expr, $ty:ty, $n:literal) => {
                    seti!($d, <$ty>::from_le_bytes(fetch!($m, $chk, $n)) as i64)
                };
            }
            // Scalar store of the slot's low `$n` bytes (a float store is
            // the integer store of its bit pattern).
            macro_rules! store {
                ($m:expr, $s:expr, $chk:expr, $ty:ty, $n:literal) => {{
                    let (addr, v) = (ea!($m), r!($s));
                    mem!(self
                        .memory
                        .write::<$n>(addr, (v as $ty).to_le_bytes(), $chk));
                    obs.on_mem(pc - 1, addr, $n, Access::Store);
                    obs.on_effect(&self.memory, func, pc - 1, || EffectKind::Store {
                        addr,
                        width: $n,
                        bits: v & (u64::MAX >> (64 - 8 * $n)),
                    });
                }};
            }
            // Integer division: the one place a zero divisor becomes a trap.
            macro_rules! divide {
                ($d:expr, $a:expr, $b:expr, $reg:ident, $op:expr) => {{
                    let y = $reg!($b);
                    if y == 0 {
                        raise!(TrapKind::DivByZero);
                    }
                    seti!($d, $op($reg!($a), y));
                }};
            }
            // Fused compare-and-branch.
            macro_rules! branch {
                ($taken:expr, $target:expr) => {
                    if $taken {
                        pc = $target as usize;
                    }
                };
            }
            // Enters `program[$id]` (`$id` may fail to name a function):
            // its frame starts at this frame's argument block, which the
            // compiler left at the top of everything live here.
            macro_rules! enter {
                ($id:expr, $d:expr, $w:expr, $args:expr, $nargs:expr) => {{
                    fr.pc = pc;
                    let id = $id?;
                    let callee = program.defined(id)?;
                    let base = fr.base + $args as usize;
                    self.push_call(obs, vm, id, callee, base, $nargs as usize, $d, $w)?;
                    running = callee;
                    continue 'frames;
                }};
            }
            // Lane-wise `d = f(a, b)`; `f` is written over the lane
            // variables `x` and `y`.
            macro_rules! vbin64 {
                ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $f:expr) => {{
                    let (p, q) = (vf64(rv!($a)), vf64(rv!($b)));
                    let f = |$x: f64, $y: f64| $f;
                    let o = [f(p[0], q[0]), f(p[1], q[1]), f(p[2], q[2]), f(p[3], q[3])];
                    setv!($d, to_vf64(o));
                }};
            }
            macro_rules! vbin32 {
                ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $f:expr) => {{
                    let (p, q) = (vf32(rv!($a)), vf32(rv!($b)));
                    let f = |$x: f32, $y: f32| $f;
                    let o = [
                        f(p[0], q[0]),
                        f(p[1], q[1]),
                        f(p[2], q[2]),
                        f(p[3], q[3]),
                        f(p[4], q[4]),
                        f(p[5], q[5]),
                        f(p[6], q[6]),
                        f(p[7], q[7]),
                    ];
                    setv!($d, to_vf32(o));
                }};
            }

            loop {
                let instr = &code[pc];
                pc += 1;
                obs.on_retire(lower, frame, &self.memory, instr);
                match *instr {
                    Instr::ConstI { d, v } => seti!(d, v),
                    Instr::ConstF64 { d, v } => setf64!(d, v),
                    Instr::ConstF32 { d, v } => setf32!(d, v),
                    Instr::Mov { d, a, w: 1 } => set!(d, r!(a)),
                    Instr::Mov { d, a, w } => {
                        for i in 0..w as usize {
                            frame[d as usize + i] = frame[a as usize + i];
                        }
                    }

                    Instr::AddI { d, a, b } => seti!(d, ri!(a).wrapping_add(ri!(b))),
                    Instr::SubI { d, a, b } => seti!(d, ri!(a).wrapping_sub(ri!(b))),
                    Instr::MulI { d, a, b } => seti!(d, ri!(a).wrapping_mul(ri!(b))),
                    Instr::DivS { d, a, b } => divide!(d, a, b, ri, i64::wrapping_div),
                    Instr::DivU { d, a, b } => divide!(d, a, b, r, u64::wrapping_div),
                    Instr::RemS { d, a, b } => divide!(d, a, b, ri, i64::wrapping_rem),
                    Instr::RemU { d, a, b } => divide!(d, a, b, r, u64::wrapping_rem),
                    Instr::Shl { d, a, b } => seti!(d, ri!(a).wrapping_shl(r!(b) as u32 & 63)),
                    // A 64-bit result wrapped to `int32` (the low 32 bits of
                    // a sum, difference, product or left shift are those of
                    // its operands' low 32 bits), sign-extended to the slot.
                    Instr::AddI32 { d, a, b } => seti!(d, ri!(a).wrapping_add(ri!(b)) as i32),
                    Instr::SubI32 { d, a, b } => seti!(d, ri!(a).wrapping_sub(ri!(b)) as i32),
                    Instr::MulI32 { d, a, b } => seti!(d, ri!(a).wrapping_mul(ri!(b)) as i32),
                    Instr::ShlI32 { d, a, b } => {
                        seti!(d, ri!(a).wrapping_shl(r!(b) as u32 & 63) as i32)
                    }
                    Instr::ShrS { d, a, b } => seti!(d, ri!(a).wrapping_shr(r!(b) as u32 & 63)),
                    Instr::ShrU { d, a, b } => set!(d, r!(a).wrapping_shr(r!(b) as u32 & 63)),
                    Instr::And { d, a, b } => set!(d, r!(a) & r!(b)),
                    Instr::Or { d, a, b } => set!(d, r!(a) | r!(b)),
                    Instr::Xor { d, a, b } => set!(d, r!(a) ^ r!(b)),
                    Instr::MinS { d, a, b } => seti!(d, ri!(a).min(ri!(b))),
                    Instr::MaxS { d, a, b } => seti!(d, ri!(a).max(ri!(b))),
                    Instr::NegI { d, a } => seti!(d, ri!(a).wrapping_neg()),
                    Instr::NotI { d, a } => set!(d, !r!(a)),
                    Instr::NotB { d, a } => seti!(d, r!(a) == 0),
                    Instr::Trunc { d, a, w } => {
                        let v = ri!(a);
                        let t = match w {
                            IntWidth::I8 => v as i8 as i64,
                            IntWidth::U8 => v as u8 as i64,
                            IntWidth::I16 => v as i16 as i64,
                            IntWidth::U16 => v as u16 as i64,
                            IntWidth::I32 => v as i32 as i64,
                            IntWidth::U32 => v as u32 as i64,
                        };
                        seti!(d, t);
                    }
                    Instr::Lea { d, m } => set!(d, ea!(m)),

                    Instr::AddF64 { d, a, b } => setf64!(d, rf64!(a) + rf64!(b)),
                    Instr::SubF64 { d, a, b } => setf64!(d, rf64!(a) - rf64!(b)),
                    Instr::MulF64 { d, a, b } => setf64!(d, rf64!(a) * rf64!(b)),
                    Instr::DivF64 { d, a, b } => setf64!(d, rf64!(a) / rf64!(b)),
                    Instr::MinF64 { d, a, b } => setf64!(d, rf64!(a).min(rf64!(b))),
                    Instr::MaxF64 { d, a, b } => setf64!(d, rf64!(a).max(rf64!(b))),
                    Instr::NegF64 { d, a } => setf64!(d, -rf64!(a)),
                    Instr::AddF32 { d, a, b } => setf32!(d, rf32!(a) + rf32!(b)),
                    Instr::SubF32 { d, a, b } => setf32!(d, rf32!(a) - rf32!(b)),
                    Instr::MulF32 { d, a, b } => setf32!(d, rf32!(a) * rf32!(b)),
                    Instr::DivF32 { d, a, b } => setf32!(d, rf32!(a) / rf32!(b)),
                    Instr::MinF32 { d, a, b } => setf32!(d, rf32!(a).min(rf32!(b))),
                    Instr::MaxF32 { d, a, b } => setf32!(d, rf32!(a).max(rf32!(b))),
                    Instr::NegF32 { d, a } => setf32!(d, -rf32!(a)),

                    Instr::CmpEqI { d, a, b } => seti!(d, r!(a) == r!(b)),
                    Instr::CmpNeI { d, a, b } => seti!(d, r!(a) != r!(b)),
                    Instr::CmpLtS { d, a, b } => seti!(d, ri!(a) < ri!(b)),
                    Instr::CmpLeS { d, a, b } => seti!(d, ri!(a) <= ri!(b)),
                    Instr::CmpLtU { d, a, b } => seti!(d, r!(a) < r!(b)),
                    Instr::CmpLeU { d, a, b } => seti!(d, r!(a) <= r!(b)),
                    Instr::CmpEqF64 { d, a, b } => seti!(d, rf64!(a) == rf64!(b)),
                    Instr::CmpNeF64 { d, a, b } => seti!(d, rf64!(a) != rf64!(b)),
                    Instr::CmpLtF64 { d, a, b } => seti!(d, rf64!(a) < rf64!(b)),
                    Instr::CmpLeF64 { d, a, b } => seti!(d, rf64!(a) <= rf64!(b)),
                    Instr::CmpEqF32 { d, a, b } => seti!(d, rf32!(a) == rf32!(b)),
                    Instr::CmpNeF32 { d, a, b } => seti!(d, rf32!(a) != rf32!(b)),
                    Instr::CmpLtF32 { d, a, b } => seti!(d, rf32!(a) < rf32!(b)),
                    Instr::CmpLeF32 { d, a, b } => seti!(d, rf32!(a) <= rf32!(b)),

                    Instr::CvtSToF64 { d, a } => setf64!(d, ri!(a) as f64),
                    Instr::CvtSToF32 { d, a } => setf32!(d, ri!(a) as f32),
                    Instr::CvtUToF64 { d, a } => setf64!(d, r!(a) as f64),
                    Instr::CvtUToF32 { d, a } => setf32!(d, r!(a) as f32),
                    Instr::CvtF64ToS { d, a } => seti!(d, rf64!(a) as i64),
                    Instr::CvtF64ToU { d, a } => set!(d, rf64!(a) as u64),
                    Instr::CvtF32ToS { d, a } => seti!(d, rf32!(a) as i64),
                    Instr::CvtF32ToF64 { d, a } => setf64!(d, rf32!(a) as f64),
                    Instr::CvtF64ToF32 { d, a } => setf32!(d, rf64!(a) as f32),

                    Instr::LoadI8 { d, m, chk } => load!(d, m, chk, i8, 1),
                    Instr::LoadU8 { d, m, chk } => load!(d, m, chk, u8, 1),
                    Instr::LoadI16 { d, m, chk } => load!(d, m, chk, i16, 2),
                    Instr::LoadU16 { d, m, chk } => load!(d, m, chk, u16, 2),
                    Instr::LoadI32 { d, m, chk } => load!(d, m, chk, i32, 4),
                    Instr::LoadU32 { d, m, chk } => load!(d, m, chk, u32, 4),
                    Instr::Load64 { d, m, chk } => load!(d, m, chk, u64, 8),
                    Instr::LoadF32 { d, m, chk } => load!(d, m, chk, u32, 4),
                    Instr::LoadF64 { d, m, chk } => load!(d, m, chk, u64, 8),
                    Instr::Store8 { m, s, chk } => store!(m, s, chk, u8, 1),
                    Instr::Store16 { m, s, chk } => store!(m, s, chk, u16, 2),
                    Instr::Store32 { m, s, chk } => store!(m, s, chk, u32, 4),
                    Instr::Store64 { m, s, chk } => store!(m, s, chk, u64, 8),
                    Instr::StoreF32 { m, s, chk } => store!(m, s, chk, u32, 4),
                    Instr::StoreF64 { m, s, chk } => store!(m, s, chk, u64, 8),
                    Instr::LoadV { d, m, bytes, chk } => {
                        let (addr, len) = (ea!(m), bytes as usize);
                        let mut image = [0u8; 32];
                        mem!(self.memory.read_into(addr, &mut image[..len], chk));
                        obs.on_mem(pc - 1, addr, len as u64, Access::VecLoad);
                        setv!(d, lanes_of(image));
                    }
                    Instr::StoreV { m, s, bytes, chk } => {
                        let (addr, len) = (ea!(m), bytes as usize);
                        let image = image_of(rv!(s));
                        mem!(self.memory.write_from(addr, &image[..len], chk));
                        obs.on_mem(pc - 1, addr, len as u64, Access::VecStore);
                        // Vector stores don't fit 64 value bits; record the
                        // FNV digest of the stored LE byte image.
                        obs.on_effect(&self.memory, func, pc - 1, || EffectKind::Store {
                            addr,
                            width: bytes as u32,
                            bits: terra_trace::fnv64(&image[..len]),
                        });
                    }
                    // A broadcast load is the scalar load to the memory and
                    // to the observer.
                    Instr::LoadSplatF32 { d, m, chk } => {
                        setv!(d, to_vf32([f32::from_le_bytes(fetch!(m, chk, 4)); 8]))
                    }
                    Instr::LoadSplatF64 { d, m, chk } => {
                        setv!(d, [u64::from_le_bytes(fetch!(m, chk, 8)); 4])
                    }
                    Instr::FrameAddr { d, offset } => set!(d, mem_base + offset as u64),
                    Instr::CopyMem {
                        dst,
                        src,
                        size,
                        chk,
                    } => {
                        let (d, s, len) = (r!(dst), r!(src), size as u64);
                        mem!(self.memory.copy(s, d, len, chk));
                        obs.on_effect(&self.memory, func, pc - 1, || EffectKind::Copy {
                            dst: d,
                            src: s,
                            len,
                        });
                    }
                    Instr::Prefetch { m } => {
                        let addr = ea!(m);
                        obs.on_mem(pc - 1, addr, 0, Access::Prefetch);
                        self.memory.prefetch(addr);
                    }

                    Instr::VAddF32 { d, a, b } => vbin32!(d, a, b, |x, y| x + y),
                    Instr::VSubF32 { d, a, b } => vbin32!(d, a, b, |x, y| x - y),
                    Instr::VMulF32 { d, a, b } => vbin32!(d, a, b, |x, y| x * y),
                    Instr::VDivF32 { d, a, b } => vbin32!(d, a, b, |x, y| x / y),
                    Instr::VMinF32 { d, a, b } => vbin32!(d, a, b, |x, y| x.min(y)),
                    Instr::VMaxF32 { d, a, b } => vbin32!(d, a, b, |x, y| x.max(y)),
                    Instr::VAddF64 { d, a, b } => vbin64!(d, a, b, |x, y| x + y),
                    Instr::VSubF64 { d, a, b } => vbin64!(d, a, b, |x, y| x - y),
                    Instr::VMulF64 { d, a, b } => vbin64!(d, a, b, |x, y| x * y),
                    Instr::VDivF64 { d, a, b } => vbin64!(d, a, b, |x, y| x / y),
                    Instr::VMinF64 { d, a, b } => vbin64!(d, a, b, |x, y| x.min(y)),
                    Instr::VMaxF64 { d, a, b } => vbin64!(d, a, b, |x, y| x.max(y)),
                    Instr::VFmaF32 { d, a, b } => {
                        let (x, y, acc) = (vf32(rv!(a)), vf32(rv!(b)), vf32(rv!(d)));
                        let o = [
                            acc[0] + x[0] * y[0],
                            acc[1] + x[1] * y[1],
                            acc[2] + x[2] * y[2],
                            acc[3] + x[3] * y[3],
                            acc[4] + x[4] * y[4],
                            acc[5] + x[5] * y[5],
                            acc[6] + x[6] * y[6],
                            acc[7] + x[7] * y[7],
                        ];
                        setv!(d, to_vf32(o));
                    }
                    Instr::VFmaF64 { d, a, b } => {
                        let (x, y, acc) = (vf64(rv!(a)), vf64(rv!(b)), vf64(rv!(d)));
                        let o = [
                            acc[0] + x[0] * y[0],
                            acc[1] + x[1] * y[1],
                            acc[2] + x[2] * y[2],
                            acc[3] + x[3] * y[3],
                        ];
                        setv!(d, to_vf64(o));
                    }
                    Instr::SplatF32 { d, a } => setv!(d, to_vf32([rf32!(a); 8])),
                    Instr::SplatF64 { d, a } => setv!(d, [r!(a); 4]),

                    Instr::Jmp { target } => pc = target as usize,
                    Instr::BrFalse { c, target } => {
                        if r!(c) == 0 {
                            pc = target as usize;
                        }
                    }
                    Instr::BrTrue { c, target } => {
                        if r!(c) != 0 {
                            pc = target as usize;
                        }
                    }
                    Instr::BrEqI { a, b, target } => branch!(r!(a) == r!(b), target),
                    Instr::BrNeI { a, b, target } => branch!(r!(a) != r!(b), target),
                    Instr::BrLtS { a, b, target } => branch!(ri!(a) < ri!(b), target),
                    Instr::BrLeS { a, b, target } => branch!(ri!(a) <= ri!(b), target),
                    Instr::BrLtU { a, b, target } => branch!(r!(a) < r!(b), target),
                    Instr::BrLeU { a, b, target } => branch!(r!(a) <= r!(b), target),
                    Instr::LoopLtS {
                        var,
                        step,
                        stop,
                        target,
                    } => {
                        let next = ri!(var).wrapping_add(ri!(step));
                        seti!(var, next);
                        branch!(next < ri!(stop), target);
                    }

                    Instr::Call {
                        d,
                        w,
                        f,
                        args,
                        nargs,
                    } => enter!(Raised::Ok(f), d, w, args, nargs),
                    Instr::CallIndirect {
                        d,
                        w,
                        f,
                        args,
                        nargs,
                    } => {
                        let bits = r!(f);
                        // Lazily: an eager `ok_or` drops the unused error
                        // out of line on every call.
                        #[allow(clippy::unnecessary_lazy_evaluations)]
                        let id = decode_func_ptr(bits).ok_or_else(|| TrapKind::NotAFunction(bits));
                        enter!(id, d, w, args, nargs)
                    }
                    Instr::ParFor {
                        f,
                        lo,
                        hi,
                        args,
                        nargs,
                    } => {
                        let (lo_v, hi_v) = (ri!(lo), ri!(hi));
                        fr.pc = pc;
                        // Workers have their own register files: the
                        // captures are read straight out of this window.
                        let captures = &frame[args as usize..][..nargs as usize];
                        let site = Some((func, pc - 1));
                        if let Err(trap) = crate::parallel::run_parallelfor_at(
                            self, obs, f, lo_v, hi_v, captures, site,
                        ) {
                            // The region has said where: in a kernel's
                            // frame, or — its static check runs before any
                            // of its code — nowhere.
                            vm.region_site = Some(trap.site);
                            return Err(trap.kind);
                        }
                    }
                    Instr::CallBuiltin { d, b, args, nargs } => {
                        let argv = &frame[args as usize..][..nargs as usize];
                        let result = mem!(call_builtin(self, obs, func, pc - 1, b, argv));
                        if d != NO_REG {
                            set!(d, result);
                        }
                    }
                    Instr::Ret { s, w } => {
                        obs.on_ret();
                        // The result leaves the window before the caller's
                        // destination, which may lie inside it, is written.
                        let result = match (s, w) {
                            (NO_REG, _) => [0; 4],
                            (s, 1) => [frame[s as usize], 0, 0, 0],
                            (s, w) => {
                                let mut lanes = [0; 4];
                                let slots = &frame[s as usize..][..w as usize];
                                for (lane, &v) in lanes.iter_mut().zip(slots) {
                                    *lane = v;
                                }
                                lanes
                            }
                        };
                        let done = vm.frames.pop().expect("the running frame");
                        self.memory.pop_frame(done.mem_base);
                        let Some(caller) = vm.frames.last() else {
                            return Ok(result);
                        };
                        let dst = caller.base + done.ret_dst as usize;
                        match done.ret_w {
                            0 => {}
                            1 => vm.regs[dst] = result[0],
                            // What the caller expects and what the callee
                            // returns differ only through a cast function
                            // pointer: the missing slots read as zero.
                            want => {
                                let want = (want as usize).min(result.len());
                                vm.regs[dst..dst + want].copy_from_slice(&result[..want]);
                            }
                        }
                        running = body(program, caller.func);
                        continue 'frames;
                    }
                    Instr::Trap => raise!(TrapKind::Abort),
                }
            }
        }
    }

    /// Pushes a frame for `callee`, which is `program[id]`, whose window
    /// starts at slot `base` of the file: the `nargs` slots there are its
    /// arguments, already in place, and the rest of the window is zeroed
    /// (the file grows if the window reaches past its end). Frame memory is
    /// pushed only for a callee that has some. Always inlined: an
    /// out-of-line call from `run` costs the observed loop's register
    /// allocation a quarter of its speed.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn push_call<O: Observer>(
        &mut self,
        obs: &mut O,
        vm: &mut Vm,
        id: FuncId,
        callee: &Arc<CompiledFunction>,
        base: usize,
        nargs: usize,
        ret_dst: Reg,
        ret_w: u8,
    ) -> Raised<()> {
        if vm.frames.len() >= MAX_FRAMES {
            return Err(TrapKind::StackOverflow);
        }
        let mem_base = match callee.frame_size {
            0 => self.memory.stack_pointer(),
            size => self
                .memory
                .push_frame(size.into())
                .map_err(|_| TrapKind::StackOverflow)?,
        };
        let top = base + callee.nslots();
        if vm.regs.len() < top {
            vm.regs.resize(top, 0);
        }
        // Locals start at zero, and so do the parameters a callee reached
        // through a cast function pointer was passed no argument for.
        let zeroed = base + callee.zeroed as usize;
        if base + nargs < zeroed {
            vm.regs[base + nargs..zeroed].fill(0);
        }
        obs.on_call(callee);
        vm.frames.push(Frame {
            func: id,
            pc: 0,
            base,
            mem_base,
            ret_dst,
            ret_w,
        });
        Ok(())
    }
}

/// The body of a function that has a frame (which only defined ones get).
#[inline]
fn body(program: &Program, f: FuncId) -> &Arc<CompiledFunction> {
    program
        .function(f)
        .expect("a function with a frame is defined")
}

/// Encodes an FFI value into register bits according to the parameter type
/// (f32 parameters carry f32 bits in lane 0). Integers are wrapped into the
/// parameter's type: compiled code, and every range proof behind it, takes
/// registers to hold canonical values.
pub fn encode_arg(v: Value, ty: &Ty) -> u64 {
    match (v, ty) {
        (Value::Float(f), Ty::Scalar(ScalarTy::F32)) => (f as f32).to_bits() as u64,
        (Value::Int(i), Ty::Scalar(ScalarTy::F32)) => (i as f32).to_bits() as u64,
        (Value::Int(i), Ty::Scalar(ScalarTy::F64)) => (i as f64).to_bits(),
        (Value::Float(f), Ty::Scalar(s)) if s.is_integer() => s.canonical(f as i64) as u64,
        (v, Ty::Scalar(ScalarTy::Bool)) => (v.to_bits() != 0) as u64,
        (v, Ty::Scalar(s)) => s.canonical(v.to_bits() as i64) as u64,
        (v, _) => v.to_bits(),
    }
}

/// Interprets a raw register image as a typed FFI value.
pub fn decode_value(ty: &Ty, bits: RegImage) -> Value {
    match ty {
        Ty::Unit => Value::Unit,
        Ty::Scalar(ScalarTy::Bool) => Value::Bool(bits[0] != 0),
        Ty::Scalar(ScalarTy::F32) => Value::Float(f32::from_bits(bits[0] as u32) as f64),
        Ty::Scalar(ScalarTy::F64) => Value::Float(f64::from_bits(bits[0])),
        Ty::Scalar(_) => Value::Int(bits[0] as i64),
        Ty::Ptr(_) | Ty::Array(..) => Value::Ptr(bits[0]),
        Ty::Func(_) => match decode_func_ptr(bits[0]) {
            Some(id) => Value::Func(id),
            None => Value::Ptr(bits[0]),
        },
        Ty::Vector(..) | Ty::Struct(_) => Value::Ptr(bits[0]),
    }
}

/// Executes builtin `b` for the instruction at `func[pc]` on its argument
/// slots; allocator and output builtins report their effects to `obs`.
fn call_builtin<O: Observer>(
    ctx: &mut ExecutionContext,
    obs: &mut O,
    func: &CompiledFunction,
    pc: usize,
    b: Builtin,
    args: &[u64],
) -> Raised<u64> {
    // No builtin but printf (which formats straight from the slots) takes
    // more than three arguments; missing ones read as zero.
    let a: [u64; 3] = std::array::from_fn(|i| args.get(i).copied().unwrap_or(0));
    if let Effect::Pure(f) = b.info().effect {
        return Ok(f(f64::from_bits(a[0]), f64::from_bits(a[1])).to_bits());
    }
    Ok(match b {
        Builtin::Malloc => {
            let (size, addr) = (a[0], ctx.memory.malloc(a[0]));
            obs.on_alloc(&ctx.memory, || func.site_at(pc), addr, size);
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Alloc { size, addr });
            addr
        }
        Builtin::Free => {
            ctx.memory.free(a[0])?;
            obs.on_free(a[0]);
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Free { addr: a[0] });
            0
        }
        Builtin::Realloc => {
            let (old, size) = (a[0], a[1]);
            let addr = ctx.memory.realloc(old, size, |mem, addr| {
                obs.on_alloc(mem, || func.site_at(pc), addr, size)
            })?;
            if addr != old && addr != 0 {
                obs.on_free(old);
            }
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Realloc {
                old,
                size,
                addr,
            });
            addr
        }
        Builtin::Memcpy => {
            let (dst, src, len) = (a[0], a[1], a[2]);
            ctx.memory.copy_within(src, dst, len)?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Copy { dst, src, len });
            dst
        }
        Builtin::Memset => {
            let (addr, byte, len) = (a[0], a[1] as u8, a[2]);
            ctx.memory.fill(addr, byte, len)?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Set {
                addr,
                byte,
                len,
            });
            addr
        }
        Builtin::Clock => ctx.epoch.elapsed().as_secs_f64().to_bits(),
        Builtin::Printf => {
            let out = render_printf(&ctx.memory, args)?;
            obs.on_output(func, pc, &out);
            ctx.emit(&out);
            out.len() as u64
        }
        Builtin::Prefetch => {
            obs.on_mem(pc, a[0], 0, Access::Prefetch);
            ctx.memory.prefetch(a[0]);
            0
        }
        Builtin::Rand => {
            ctx.rng_state = ctx
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (ctx.rng_state >> 33) & 0x7FFF_FFFF
        }
        Builtin::Srand => {
            ctx.rng_state = a[0] ^ 0x9E3779B97F4A7C15;
            0
        }
        Builtin::Abort => return Err(TrapKind::Abort),
        _ => unreachable!("'{}' is pure and was answered by its table row", b.name()),
    })
}

/// Renders a `printf` call (`args[0]` is the format): integer and float
/// arguments are registers, `%s` arguments C strings in `memory`. The
/// directives are [`format_printf`](crate::printf::format_printf)'s.
fn render_printf(memory: &Memory, args: &[u64]) -> Raised<String> {
    let mut args = args.iter();
    let bad = |what: &str| TrapKind::BadFormat(what.into());
    let fmt = memory.c_string(*args.next().ok_or_else(|| bad("missing format string"))?)?;
    crate::printf::format_printf(
        &fmt,
        &mut |conv, text| {
            let v = *args.next().ok_or_else(|| bad("too few arguments"))?;
            match conv {
                b's' => text.push_str(&memory.c_string(v)?),
                b'q' => return Err(bad("unsupported conversion '%q'")),
                _ => {}
            }
            Ok(v)
        },
        &TrapKind::BadFormat,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compiled, Addr, Instr as I};
    use crate::program::OutputSink;
    use terra_ir::FuncTy;

    /// The shapes the loop's per-instruction cost rests on: a register slot
    /// is eight bytes, and a scalar-only function of `k` locals runs in a
    /// `k`-slot frame.
    #[test]
    fn a_scalar_frame_is_one_eight_byte_slot_per_local() {
        fn slot_bytes<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let mut ctx = ExecutionContext::new();
        let mut f = terra_ir::IrFunction {
            name: "five".into(),
            ty: FuncTy {
                params: vec![Ty::INT, Ty::F64],
                ret: Ty::INT,
            },
            locals: vec![],
            body: vec![],
            index_range: None,
        };
        let a = f.add_local("a", Ty::INT, false);
        f.add_local("b", Ty::F64, false);
        for name in ["c", "d", "e"] {
            f.add_local(name, Ty::I64, false);
        }
        f.body = vec![terra_ir::StmtKind::Return(Some(terra_ir::IrExpr::local(a, Ty::INT))).into()];
        let id = ctx.declare("five");
        let compiled = crate::compile(&f, &terra_ir::TypeRegistry::new(), &mut ctx, &[]);
        assert_eq!(compiled.nslots(), 5);
        ctx.define(id, compiled);
        let program = Arc::clone(ctx.program());
        let mut vm = Vm::new();
        let callee = program.defined(id).unwrap();
        let observer = &mut crate::observer::NoObserver;
        ctx.push_call(observer, &mut vm, id, callee, 0, 2, NO_REG, 0)
            .unwrap();
        assert_eq!(vm.regs.len(), 5);
        assert_eq!(slot_bytes(&vm.regs), 8);
    }

    /// `call_builtin` answers the pure builtins from their table row and
    /// matches on the rest; a new builtin must land in one or the other.
    #[test]
    fn every_builtin_has_an_arm() {
        for &b in Builtin::ALL {
            let mut ctx = ExecutionContext::new();
            ctx.output = OutputSink::Capture(String::new());
            let nargs = b.info().params.len() as u16;
            let code = vec![
                I::CallBuiltin {
                    d: 0,
                    b,
                    args: 1,
                    nargs,
                },
                I::Ret { s: NO_REG, w: 0 },
            ];
            let unit = FuncTy {
                params: vec![],
                ret: Ty::Unit,
            };
            let id = ctx.declare("f");
            ctx.define(id, compiled("f", unit, 1 + nargs, code));
            // Zero arguments make some of them trap; none may panic.
            let _ = ctx.call(id, &[]);
        }
    }

    #[test]
    fn add_function_executes() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("add");
        ctx.define(
            id,
            compiled(
                "add",
                FuncTy {
                    params: vec![Ty::INT, Ty::INT],
                    ret: Ty::INT,
                },
                3,
                vec![I::AddI { d: 2, a: 0, b: 1 }, I::Ret { s: 2, w: 1 }],
            ),
        );
        let r = ctx.call(id, &[Value::Int(2), Value::Int(40)]).unwrap();
        assert_eq!(r, Value::Int(42));
    }

    #[test]
    fn recursion_via_direct_call() {
        // fact(n) = n <= 1 ? 1 : n * fact(n-1)
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("fact");
        ctx.define(
            id,
            compiled(
                "fact",
                FuncTy {
                    params: vec![Ty::I64],
                    ret: Ty::I64,
                },
                6,
                vec![
                    I::ConstI { d: 1, v: 1 },
                    I::CmpLeS { d: 2, a: 0, b: 1 },
                    I::BrFalse { c: 2, target: 4 },
                    I::Ret { s: 1, w: 1 },
                    I::SubI { d: 3, a: 0, b: 1 },
                    I::Call {
                        d: 4,
                        w: 1,
                        f: id,
                        args: 3,
                        nargs: 1,
                    },
                    I::MulI { d: 5, a: 0, b: 4 },
                    I::Ret { s: 5, w: 1 },
                ],
            ),
        );
        let r = ctx.call(id, &[Value::Int(10)]).unwrap();
        assert_eq!(r, Value::Int(3628800));
    }

    #[test]
    fn undefined_function_traps() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("ghost");
        let err = ctx.call(id, &[]).unwrap_err();
        // No frame was ever pushed: the fault is the host's.
        assert!(matches!(err.kind, TrapKind::Undefined(_)) && err.site.is_none());
    }

    #[test]
    fn a_call_to_an_undefined_function_is_located_in_its_caller() {
        let mut ctx = ExecutionContext::new();
        let (ghost, caller) = (ctx.declare("ghost"), ctx.declare("caller"));
        let call = I::Call {
            d: NO_REG,
            w: 0,
            f: ghost,
            args: 0,
            nargs: 0,
        };
        let ty = FuncTy {
            params: vec![],
            ret: Ty::Unit,
        };
        let code = vec![call, I::Ret { s: NO_REG, w: 0 }];
        let f = compiled("caller", ty, 1, code).with_debug_info(vec![7, 8], vec![1, 0], {
            vec!["via quote at line 3".into()]
        });
        ctx.define(caller, f);
        assert_eq!(
            ctx.call(caller, &[]).unwrap_err().to_string(),
            "call to undefined function 'ghost' \
             (in terra function 'caller' at line 7, generated via quote at line 3)"
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("div");
        ctx.define(
            id,
            compiled(
                "div",
                FuncTy {
                    params: vec![Ty::INT, Ty::INT],
                    ret: Ty::INT,
                },
                3,
                vec![I::DivS { d: 2, a: 0, b: 1 }, I::Ret { s: 2, w: 1 }],
            ),
        );
        // Located in the running frame (this bytecode has no debug info).
        let err = ctx.call(id, &[Value::Int(1), Value::Int(0)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::DivByZero);
        assert_eq!(
            err.to_string(),
            "integer division by zero (in terra function 'div')"
        );
        // The context remains usable after a trap.
        assert_eq!(
            ctx.call(id, &[Value::Int(10), Value::Int(5)]),
            Ok(Value::Int(2))
        );
    }

    #[test]
    fn memory_instructions_roundtrip() {
        let mut ctx = ExecutionContext::new();
        let addr = ctx.memory.malloc(64);
        let id = ctx.declare("poke");
        ctx.define(
            id,
            compiled(
                "poke",
                FuncTy {
                    params: vec![Ty::F64.ptr_to()],
                    ret: Ty::F64,
                },
                3,
                vec![
                    I::ConstF64 { d: 1, v: 6.25 },
                    I::StoreF64 {
                        m: Addr::reg(0),
                        s: 1,
                        chk: true,
                    },
                    I::LoadF64 {
                        d: 2,
                        m: Addr::reg(0),
                        chk: true,
                    },
                    I::Ret { s: 2, w: 1 },
                ],
            ),
        );
        let r = ctx.call(id, &[Value::Ptr(addr)]).unwrap();
        assert_eq!(r, Value::Float(6.25));
        assert_eq!(ctx.memory.load_f64(addr).unwrap(), 6.25);
    }

    #[test]
    fn vector_ops_operate_lanewise() {
        let mut ctx = ExecutionContext::new();
        let src = ctx.memory.malloc(64);
        for i in 0..4 {
            ctx.memory.store_f64(src + i * 8, (i + 1) as f64).unwrap();
        }
        let dst = ctx.memory.malloc(64);
        let id = ctx.declare("vdouble");
        ctx.define(
            id,
            compiled(
                "vdouble",
                FuncTy {
                    params: vec![Ty::F64.ptr_to(), Ty::F64.ptr_to()],
                    ret: Ty::Unit,
                },
                10,
                vec![
                    I::LoadV {
                        d: 2,
                        m: Addr::reg(0),
                        bytes: 32,
                        chk: true,
                    },
                    I::VAddF64 { d: 6, a: 2, b: 2 },
                    I::StoreV {
                        m: Addr::reg(1),
                        s: 6,
                        bytes: 32,
                        chk: true,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        ctx.call(id, &[Value::Ptr(src), Value::Ptr(dst)]).unwrap();
        for i in 0..4 {
            assert_eq!(
                ctx.memory.load_f64(dst + i * 8).unwrap(),
                2.0 * (i + 1) as f64
            );
        }
    }

    #[test]
    fn indirect_call_through_function_pointer() {
        let mut ctx = ExecutionContext::new();
        let target = ctx.declare("inc");
        ctx.define(
            target,
            compiled(
                "inc",
                FuncTy {
                    params: vec![Ty::I64],
                    ret: Ty::I64,
                },
                3,
                vec![
                    I::ConstI { d: 1, v: 1 },
                    I::AddI { d: 2, a: 0, b: 1 },
                    I::Ret { s: 2, w: 1 },
                ],
            ),
        );
        let caller = ctx.declare("caller");
        ctx.define(
            caller,
            compiled(
                "caller",
                FuncTy {
                    params: vec![
                        Ty::Func(std::sync::Arc::new(FuncTy {
                            params: vec![Ty::I64],
                            ret: Ty::I64,
                        })),
                        Ty::I64,
                    ],
                    ret: Ty::I64,
                },
                4,
                vec![
                    I::Mov { d: 2, a: 1, w: 1 },
                    I::CallIndirect {
                        d: 3,
                        w: 1,
                        f: 0,
                        args: 2,
                        nargs: 1,
                    },
                    I::Ret { s: 3, w: 1 },
                ],
            ),
        );
        let r = ctx
            .call(caller, &[Value::Func(target), Value::Int(9)])
            .unwrap();
        assert_eq!(r, Value::Int(10));
        // Calling through junk traps.
        let err = ctx
            .call(caller, &[Value::Ptr(1234), Value::Int(9)])
            .unwrap_err();
        assert!(matches!(err.kind, TrapKind::NotAFunction(1234)));
        assert!(err.site.is_some());
    }

    #[test]
    fn builtins_sqrt_and_printf() {
        let mut ctx = ExecutionContext::new();
        ctx.output = OutputSink::Capture(String::new());
        let fmt = ctx.intern_string("x=%d y=%.2f s=%s\n");
        let msg = ctx.intern_string("ok");
        let id = ctx.declare("show");
        ctx.define(
            id,
            compiled(
                "show",
                FuncTy {
                    params: vec![],
                    ret: Ty::F64,
                },
                6,
                vec![
                    I::ConstI {
                        d: 0,
                        v: fmt as i64,
                    },
                    I::ConstI { d: 1, v: 7 },
                    I::ConstF64 { d: 2, v: 2.5 },
                    I::ConstI {
                        d: 3,
                        v: msg as i64,
                    },
                    I::CallBuiltin {
                        d: NO_REG,
                        b: Builtin::Printf,
                        args: 0,
                        nargs: 4,
                    },
                    I::ConstF64 { d: 4, v: 16.0 },
                    I::CallBuiltin {
                        d: 5,
                        b: Builtin::Sqrt,
                        args: 4,
                        nargs: 1,
                    },
                    I::Ret { s: 5, w: 1 },
                ],
            ),
        );
        let r = ctx.call(id, &[]).unwrap();
        assert_eq!(r, Value::Float(4.0));
        assert_eq!(ctx.take_output(), "x=7 y=2.50 s=ok\n");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("f");
        ctx.define(
            id,
            compiled(
                "f",
                FuncTy {
                    params: vec![Ty::INT],
                    ret: Ty::Unit,
                },
                1,
                vec![I::Ret { s: NO_REG, w: 0 }],
            ),
        );
        let err = ctx.call(id, &[]).unwrap_err();
        let (expected, got) = (1, 0);
        assert_eq!(err, TrapKind::ArityMismatch { expected, got }.into());
        assert_eq!(err.to_string(), "expected 1 argument(s) but got 0");
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let mut ctx = ExecutionContext::new();
        let id = ctx.declare("loop");
        ctx.define(
            id,
            compiled(
                "loop",
                FuncTy {
                    params: vec![],
                    ret: Ty::Unit,
                },
                1,
                vec![
                    I::Call {
                        d: NO_REG,
                        w: 0,
                        f: id,
                        args: 0,
                        nargs: 0,
                    },
                    I::Ret { s: NO_REG, w: 0 },
                ],
            ),
        );
        // The frame that could not be pushed is not on the stack: the site
        // is the call that asked for it.
        let err = ctx.call(id, &[]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StackOverflow);
        assert_eq!(err.site, Some(Site::new("loop", 0, None)));
    }
}
