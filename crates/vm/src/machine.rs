//! The bytecode interpreter.
//!
//! A register machine over 256-bit registers. Execution is completely
//! independent of the meta-language (the paper's *separate evaluation*):
//! the only shared state is the [`Program`](crate::Program)'s function
//! table, reached read-only through the executing
//! [`ExecutionContext`](crate::ExecutionContext).
//!
//! The dispatch loop itself owns **no state**: [`Vm`] is a plain data
//! holder (register file + call stack) living inside the context, and
//! every step of the loop borrows the context's fields (`vm`, `memory`,
//! …) for exactly as long as it needs them. That is what lets
//! `parallelfor` run one loop per worker thread with nothing shared but
//! the `Arc<Program>`.
//!
//! Everything that *watches* execution sits behind the
//! [`Observer`](crate::observer::Observer) hooks the loop is generic over;
//! an unobserved run's instantiation contains no telemetry code at all.

use crate::bytecode::{decode_func_ptr, CompiledFunction, Instr, IntWidth, Reg, NO_REG};
use crate::exec::ExecutionContext;
use crate::memory::{Access, MemError, Memory};
use crate::observer::{observed, Observer};
use crate::program::Value;
use std::fmt;
use std::sync::Arc;
use terra_ir::{Builtin, FuncId, ScalarTy, Ty};
use terra_trace::EffectKind;

/// A runtime fault in Terra code.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Out-of-bounds or null memory access (including sanitizer
    /// use-after-free / double-free findings), with the Terra function that
    /// was executing when it fired, if known.
    Memory {
        /// The underlying memory fault.
        err: MemError,
        /// Name of the Terra function executing at trap time. `None` only
        /// for faults raised outside VM execution (host-side accesses).
        func: Option<Arc<str>>,
        /// 1-based source line of the faulting instruction, from the
        /// bytecode debug-info table (0 = unknown).
        line: u32,
        /// Rendered staging chain of the faulting instruction (`"via quote
        /// at line 41, inlined at line 30"`), when it was produced by a
        /// splice or the inliner rather than written in place.
        prov: Option<Arc<str>>,
    },
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

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Memory {
                err,
                func,
                line,
                prov,
            } => {
                write!(f, "{err}")?;
                if let Some(name) = func {
                    if *line > 0 {
                        write!(f, " (in terra function '{name}' at line {line}")?;
                    } else {
                        write!(f, " (in terra function '{name}'")?;
                    }
                    if let Some(chain) = prov {
                        write!(f, ", generated {chain}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::StackOverflow => write!(f, "terra stack overflow"),
            Trap::Undefined(name) => write!(f, "call to undefined function '{name}'"),
            Trap::NotAFunction(bits) => {
                write!(f, "indirect call through non-function value {bits:#x}")
            }
            Trap::Abort => write!(f, "program aborted"),
            Trap::BadFormat(m) => write!(f, "printf: {m}"),
            Trap::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} argument(s) but got {got}")
            }
            Trap::Parallel(m) => write!(f, "parallelfor: {m}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemError> for Trap {
    fn from(e: MemError) -> Self {
        Trap::Memory {
            err: e,
            func: None,
            line: 0,
            prov: None,
        }
    }
}

/// Result alias for VM execution.
pub type ExecResult<T> = Result<T, Trap>;

const MAX_FRAMES: usize = 4096;

/// A 256-bit register image.
pub type RegImage = [u64; 4];

#[derive(Debug)]
struct Frame {
    func: Arc<CompiledFunction>,
    pc: usize,
    base: usize,
    mem_base: u64,
    ret_dst: Reg,
}

/// The register file and call stack of one execution context. Pure data:
/// the dispatch loop lives on [`ExecutionContext`] and borrows this
/// alongside the context's memory and tracer.
#[derive(Debug, Default)]
pub struct Vm {
    regs: Vec<RegImage>,
    frames: Vec<Frame>,
}

impl Vm {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Vm::default()
    }

    /// FNV-1a-64 digest of the live register file, hashing each 64-bit
    /// lane as its little-endian byte image (endianness-independent).
    /// Used by the flight recorder's checkpoints; meaningful only when
    /// comparing identical configurations — register allocation differs
    /// across optimization levels.
    pub(crate) fn state_hash(&self) -> u64 {
        let mut h = terra_trace::Fnv64::new();
        for r in &self.regs {
            for &lane in r {
                h.write_u64(lane);
            }
        }
        h.finish()
    }
}

#[inline]
fn as_f64(v: RegImage) -> f64 {
    f64::from_bits(v[0])
}

#[inline]
fn as_f32(v: RegImage) -> f32 {
    f32::from_bits(v[0] as u32)
}

#[inline]
fn from_f64(v: f64) -> RegImage {
    [v.to_bits(), 0, 0, 0]
}

#[inline]
fn from_f32(v: f32) -> RegImage {
    [v.to_bits() as u64, 0, 0, 0]
}

#[inline]
fn from_i64(v: i64) -> RegImage {
    [v as u64, 0, 0, 0]
}

/// Sign- or zero-extends a loaded integer into a register image.
#[inline]
fn widen<T: Into<i64>>(v: T) -> RegImage {
    from_i64(v.into())
}

#[inline]
fn vf64(v: RegImage) -> [f64; 4] {
    [
        f64::from_bits(v[0]),
        f64::from_bits(v[1]),
        f64::from_bits(v[2]),
        f64::from_bits(v[3]),
    ]
}

#[inline]
fn to_vf64(x: [f64; 4]) -> RegImage {
    [
        x[0].to_bits(),
        x[1].to_bits(),
        x[2].to_bits(),
        x[3].to_bits(),
    ]
}

#[inline]
fn vf32(v: RegImage) -> [f32; 8] {
    let mut out = [0f32; 8];
    for i in 0..4 {
        out[2 * i] = f32::from_bits(v[i] as u32);
        out[2 * i + 1] = f32::from_bits((v[i] >> 32) as u32);
    }
    out
}

#[inline]
fn to_vf32(x: [f32; 8]) -> RegImage {
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = x[2 * i].to_bits() as u64 | ((x[2 * i + 1].to_bits() as u64) << 32);
    }
    out
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
        let func = self.defined(f)?;
        if args.len() != func.ty.params.len() {
            return Err(Trap::ArityMismatch {
                expected: func.ty.params.len(),
                got: args.len(),
            });
        }
        let raw: Vec<RegImage> = args
            .iter()
            .zip(&func.ty.params)
            .map(|(v, ty)| [encode_arg(*v, ty), 0, 0, 0])
            .collect();
        let ret_ty = func.ty.ret.clone();
        let name = func.name.clone();
        let start = self.trace.now_us();
        let bits = self.call_raw(func, &raw)?;
        self.trace.record(terra_trace::Stage::Execute, &name, start);
        Ok(decode_value(&ret_ty, bits))
    }

    /// The compiled body of `f`, or the trap for calling a function that
    /// was declared but never defined.
    pub(crate) fn defined(&self, f: FuncId) -> ExecResult<Arc<CompiledFunction>> {
        let body = self.program.function(f).cloned();
        body.ok_or_else(|| Trap::Undefined(self.program.name(f).to_string()))
    }

    /// Calls a compiled function with raw register images.
    ///
    /// "Is anyone observing?" is decided here, once per call: with any
    /// telemetry gate on, the dispatch loop runs instantiated over the
    /// context's [`Telemetry`](crate::observer::Telemetry); otherwise over
    /// [`NoObserver`](crate::observer::NoObserver), whose hooks compile away.
    pub fn call_raw(
        &mut self,
        func: Arc<CompiledFunction>,
        args: &[RegImage],
    ) -> ExecResult<RegImage> {
        observed!(self, |obs| self.call_observed(obs, func, args))
    }

    fn call_observed<O: Observer>(
        &mut self,
        obs: &mut O,
        func: Arc<CompiledFunction>,
        args: &[RegImage],
    ) -> ExecResult<RegImage> {
        let saved_regs = self.vm.regs.len();
        let saved_frames = self.vm.frames.len();
        let result = self.run(obs, func, args);
        // Allocations made by the host from here on are not Terra code.
        self.memory.clear_alloc_site();
        self.vm.regs.truncate(saved_regs);
        result.map_err(|trap| {
            // The innermost frame still on the stack names the Terra
            // function (and, via the debug-info table, the source line)
            // that was executing when the trap fired.
            let current = self
                .vm
                .frames
                .last()
                .filter(|_| self.vm.frames.len() > saved_frames)
                .map(|fr| {
                    let pc = fr.pc.saturating_sub(1);
                    let line = fr.func.line_at(pc);
                    let prov: Option<Arc<str>> = fr.func.prov_at(pc).map(Arc::from);
                    (fr.func.name.clone(), line, prov)
                });
            // Unwind the frames (and their memory) the trap left; each
            // trapped activation still reports what it counted.
            while self.vm.frames.len() > saved_frames {
                let fr = self.vm.frames.pop().expect("frame count checked");
                self.memory.pop_frame(fr.mem_base);
                obs.on_ret();
            }
            match trap {
                Trap::Memory {
                    err, func: None, ..
                } => {
                    let (func, line, prov) = match current {
                        Some((name, line, prov)) => (Some(name), line, prov),
                        None => (None, 0, None),
                    };
                    Trap::Memory {
                        err,
                        func,
                        line,
                        prov,
                    }
                }
                other => other,
            }
        })
    }

    fn run<O: Observer>(
        &mut self,
        obs: &mut O,
        func: Arc<CompiledFunction>,
        args: &[RegImage],
    ) -> ExecResult<RegImage> {
        let entry_frames = self.vm.frames.len();
        let base = self.push_call(obs, func, NO_REG)?;
        self.vm.regs[base..base + args.len()].copy_from_slice(args);

        'frames: loop {
            // Pull the current frame's hot state into locals.
            let frame_idx = self.vm.frames.len() - 1;
            let func = Arc::clone(&self.vm.frames[frame_idx].func);
            let mut pc = self.vm.frames[frame_idx].pc;
            let base = self.vm.frames[frame_idx].base;
            let mem_base = self.vm.frames[frame_idx].mem_base;
            let code = &func.code[..];

            macro_rules! r {
                ($i:expr) => {
                    self.vm.regs[base + $i as usize]
                };
            }
            macro_rules! ri {
                ($i:expr) => {
                    self.vm.regs[base + $i as usize][0] as i64
                };
            }
            macro_rules! ru {
                ($i:expr) => {
                    self.vm.regs[base + $i as usize][0]
                };
            }
            macro_rules! set {
                ($d:expr, $v:expr) => {
                    self.vm.regs[base + $d as usize] = $v
                };
            }
            macro_rules! seti {
                ($d:expr, $v:expr) => {
                    self.vm.regs[base + $d as usize] = from_i64($v)
                };
            }
            // Fallible memory operation: on a fault, write the (already
            // advanced) pc back to the frame so the unwinder can look up the
            // faulting instruction's source line in the debug-info table.
            macro_rules! mem {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(err) => {
                            self.vm.frames[frame_idx].pc = pc;
                            return Err(err.into());
                        }
                    }
                };
            }
            // Scalar load: raw access, then the observer sees the traffic.
            macro_rules! load {
                ($d:expr, $a:expr, $get:ident, $n:expr, $conv:expr) => {{
                    let addr = ru!($a);
                    let v = mem!(self.memory.$get(addr, !func.check_free(pc - 1)));
                    obs.on_mem(&mut self.memory, pc - 1, addr, $n, Access::Load);
                    set!($d, $conv(v));
                }};
            }
            // Scalar store of lane 0's low `$n` bytes (a float store is the
            // integer store of its bit pattern).
            macro_rules! store {
                ($a:expr, $s:expr, $put:ident, $n:expr, $ty:ty) => {{
                    let (addr, v) = (ru!($a), ru!($s));
                    mem!(self.memory.$put(addr, v as $ty, !func.check_free(pc - 1)));
                    obs.on_mem(&mut self.memory, pc - 1, addr, $n, Access::Store);
                    obs.on_effect(&self.memory, &func, pc - 1, || EffectKind::Store {
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
                        return Err(Trap::DivByZero);
                    }
                    seti!($d, $op($reg!($a), y) as i64);
                }};
            }
            macro_rules! binf64 {
                ($d:expr, $a:expr, $b:expr, $op:tt) => {{
                    let v = as_f64(r!($a)) $op as_f64(r!($b));
                    set!($d, from_f64(v));
                }};
            }
            macro_rules! binf32 {
                ($d:expr, $a:expr, $b:expr, $op:tt) => {{
                    let v = as_f32(r!($a)) $op as_f32(r!($b));
                    set!($d, from_f32(v));
                }};
            }
            macro_rules! vbin64 {
                ($d:expr, $a:expr, $b:expr, $f:expr) => {{
                    let x = vf64(r!($a));
                    let y = vf64(r!($b));
                    let mut o = [0f64; 4];
                    for i in 0..4 {
                        o[i] = $f(x[i], y[i]);
                    }
                    set!($d, to_vf64(o));
                }};
            }
            macro_rules! vbin32 {
                ($d:expr, $a:expr, $b:expr, $f:expr) => {{
                    let x = vf32(r!($a));
                    let y = vf32(r!($b));
                    let mut o = [0f32; 8];
                    for i in 0..8 {
                        o[i] = $f(x[i], y[i]);
                    }
                    set!($d, to_vf32(o));
                }};
            }

            loop {
                let instr = &code[pc];
                pc += 1;
                obs.on_retire(self, &func, pc - 1, instr);
                match *instr {
                    Instr::ConstI { d, v } => seti!(d, v),
                    Instr::ConstF64 { d, v } => set!(d, from_f64(v)),
                    Instr::ConstF32 { d, v } => set!(d, from_f32(v)),
                    Instr::Mov { d, a } => set!(d, r!(a)),

                    Instr::AddI { d, a, b } => seti!(d, ri!(a).wrapping_add(ri!(b))),
                    Instr::SubI { d, a, b } => seti!(d, ri!(a).wrapping_sub(ri!(b))),
                    Instr::MulI { d, a, b } => seti!(d, ri!(a).wrapping_mul(ri!(b))),
                    Instr::DivS { d, a, b } => divide!(d, a, b, ri, i64::wrapping_div),
                    Instr::DivU { d, a, b } => divide!(d, a, b, ru, u64::wrapping_div),
                    Instr::RemS { d, a, b } => divide!(d, a, b, ri, i64::wrapping_rem),
                    Instr::RemU { d, a, b } => divide!(d, a, b, ru, u64::wrapping_rem),
                    Instr::Shl { d, a, b } => seti!(d, ri!(a).wrapping_shl(ru!(b) as u32 & 63)),
                    Instr::ShrS { d, a, b } => seti!(d, ri!(a).wrapping_shr(ru!(b) as u32 & 63)),
                    Instr::ShrU { d, a, b } => {
                        seti!(d, (ru!(a).wrapping_shr(ru!(b) as u32 & 63)) as i64)
                    }
                    Instr::And { d, a, b } => seti!(d, ri!(a) & ri!(b)),
                    Instr::Or { d, a, b } => seti!(d, ri!(a) | ri!(b)),
                    Instr::Xor { d, a, b } => seti!(d, ri!(a) ^ ri!(b)),
                    Instr::MinS { d, a, b } => seti!(d, ri!(a).min(ri!(b))),
                    Instr::MaxS { d, a, b } => seti!(d, ri!(a).max(ri!(b))),
                    Instr::NegI { d, a } => seti!(d, ri!(a).wrapping_neg()),
                    Instr::NotI { d, a } => seti!(d, !ri!(a)),
                    Instr::NotB { d, a } => seti!(d, (ru!(a) == 0) as i64),
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
                    Instr::Lea {
                        d,
                        a,
                        b,
                        scale,
                        disp,
                    } => {
                        let mut v = ri!(a).wrapping_add(disp);
                        if b != NO_REG {
                            v = v.wrapping_add(ri!(b).wrapping_mul(scale as i64));
                        }
                        seti!(d, v);
                    }

                    Instr::AddF64 { d, a, b } => binf64!(d, a, b, +),
                    Instr::SubF64 { d, a, b } => binf64!(d, a, b, -),
                    Instr::MulF64 { d, a, b } => binf64!(d, a, b, *),
                    Instr::DivF64 { d, a, b } => binf64!(d, a, b, /),
                    Instr::MinF64 { d, a, b } => {
                        set!(d, from_f64(as_f64(r!(a)).min(as_f64(r!(b)))))
                    }
                    Instr::MaxF64 { d, a, b } => {
                        set!(d, from_f64(as_f64(r!(a)).max(as_f64(r!(b)))))
                    }
                    Instr::NegF64 { d, a } => set!(d, from_f64(-as_f64(r!(a)))),
                    Instr::AddF32 { d, a, b } => binf32!(d, a, b, +),
                    Instr::SubF32 { d, a, b } => binf32!(d, a, b, -),
                    Instr::MulF32 { d, a, b } => binf32!(d, a, b, *),
                    Instr::DivF32 { d, a, b } => binf32!(d, a, b, /),
                    Instr::MinF32 { d, a, b } => {
                        set!(d, from_f32(as_f32(r!(a)).min(as_f32(r!(b)))))
                    }
                    Instr::MaxF32 { d, a, b } => {
                        set!(d, from_f32(as_f32(r!(a)).max(as_f32(r!(b)))))
                    }
                    Instr::NegF32 { d, a } => set!(d, from_f32(-as_f32(r!(a)))),

                    Instr::CmpEqI { d, a, b } => seti!(d, (ru!(a) == ru!(b)) as i64),
                    Instr::CmpNeI { d, a, b } => seti!(d, (ru!(a) != ru!(b)) as i64),
                    Instr::CmpLtS { d, a, b } => seti!(d, (ri!(a) < ri!(b)) as i64),
                    Instr::CmpLeS { d, a, b } => seti!(d, (ri!(a) <= ri!(b)) as i64),
                    Instr::CmpLtU { d, a, b } => seti!(d, (ru!(a) < ru!(b)) as i64),
                    Instr::CmpLeU { d, a, b } => seti!(d, (ru!(a) <= ru!(b)) as i64),
                    Instr::CmpEqF64 { d, a, b } => {
                        seti!(d, (as_f64(r!(a)) == as_f64(r!(b))) as i64)
                    }
                    Instr::CmpNeF64 { d, a, b } => {
                        seti!(d, (as_f64(r!(a)) != as_f64(r!(b))) as i64)
                    }
                    Instr::CmpLtF64 { d, a, b } => {
                        seti!(d, (as_f64(r!(a)) < as_f64(r!(b))) as i64)
                    }
                    Instr::CmpLeF64 { d, a, b } => {
                        seti!(d, (as_f64(r!(a)) <= as_f64(r!(b))) as i64)
                    }
                    Instr::CmpEqF32 { d, a, b } => {
                        seti!(d, (as_f32(r!(a)) == as_f32(r!(b))) as i64)
                    }
                    Instr::CmpNeF32 { d, a, b } => {
                        seti!(d, (as_f32(r!(a)) != as_f32(r!(b))) as i64)
                    }
                    Instr::CmpLtF32 { d, a, b } => {
                        seti!(d, (as_f32(r!(a)) < as_f32(r!(b))) as i64)
                    }
                    Instr::CmpLeF32 { d, a, b } => {
                        seti!(d, (as_f32(r!(a)) <= as_f32(r!(b))) as i64)
                    }

                    Instr::CvtSToF64 { d, a } => set!(d, from_f64(ri!(a) as f64)),
                    Instr::CvtSToF32 { d, a } => set!(d, from_f32(ri!(a) as f32)),
                    Instr::CvtUToF64 { d, a } => set!(d, from_f64(ru!(a) as f64)),
                    Instr::CvtUToF32 { d, a } => set!(d, from_f32(ru!(a) as f32)),
                    Instr::CvtF64ToS { d, a } => seti!(d, as_f64(r!(a)) as i64),
                    Instr::CvtF64ToU { d, a } => seti!(d, as_f64(r!(a)) as u64 as i64),
                    Instr::CvtF32ToS { d, a } => seti!(d, as_f32(r!(a)) as i64),
                    Instr::CvtF32ToF64 { d, a } => set!(d, from_f64(as_f32(r!(a)) as f64)),
                    Instr::CvtF64ToF32 { d, a } => set!(d, from_f32(as_f64(r!(a)) as f32)),

                    Instr::LoadI8 { d, a } => load!(d, a, load_i8_sel, 1, widen),
                    Instr::LoadU8 { d, a } => load!(d, a, load_u8_sel, 1, widen),
                    Instr::LoadI16 { d, a } => load!(d, a, load_i16_sel, 2, widen),
                    Instr::LoadU16 { d, a } => load!(d, a, load_u16_sel, 2, widen),
                    Instr::LoadI32 { d, a } => load!(d, a, load_i32_sel, 4, widen),
                    Instr::LoadU32 { d, a } => load!(d, a, load_u32_sel, 4, widen),
                    Instr::Load64 { d, a } => load!(d, a, load_i64_sel, 8, widen),
                    Instr::LoadF32 { d, a } => load!(d, a, load_f32_sel, 4, from_f32),
                    Instr::LoadF64 { d, a } => load!(d, a, load_f64_sel, 8, from_f64),
                    Instr::Store8 { a, s } => store!(a, s, store_u8_sel, 1, u8),
                    Instr::Store16 { a, s } => store!(a, s, store_u16_sel, 2, u16),
                    Instr::Store32 { a, s } => store!(a, s, store_u32_sel, 4, u32),
                    Instr::Store64 { a, s } => store!(a, s, store_u64_sel, 8, u64),
                    Instr::StoreF32 { a, s } => store!(a, s, store_u32_sel, 4, u32),
                    Instr::StoreF64 { a, s } => store!(a, s, store_u64_sel, 8, u64),
                    Instr::LoadV { d, a, bytes } => {
                        let (addr, len) = (ru!(a), bytes as u64);
                        let v = mem!(self
                            .memory
                            .load_vec_sel(addr, len, !func.check_free(pc - 1)));
                        obs.on_mem(&mut self.memory, pc - 1, addr, len, Access::VecLoad);
                        set!(d, v);
                    }
                    Instr::StoreV { a, s, bytes } => {
                        let (addr, v, len) = (ru!(a), r!(s), bytes as u64);
                        mem!(self
                            .memory
                            .store_vec_sel(addr, v, len, !func.check_free(pc - 1)));
                        obs.on_mem(&mut self.memory, pc - 1, addr, len, Access::VecStore);
                        obs.on_effect(&self.memory, &func, pc - 1, || {
                            // Vector stores don't fit 64 value bits; record
                            // the FNV digest of the stored LE byte image.
                            let mut img = [0u8; 32];
                            for (i, lane) in v.iter().enumerate() {
                                img[i * 8..i * 8 + 8].copy_from_slice(&lane.to_le_bytes());
                            }
                            EffectKind::Store {
                                addr,
                                width: bytes as u32,
                                bits: terra_trace::fnv64(&img[..(bytes as usize).min(32)]),
                            }
                        });
                    }
                    Instr::FrameAddr { d, offset } => seti!(d, (mem_base + offset as u64) as i64),
                    Instr::CopyMem { dst, src, size } => {
                        let (d, s, len) = (ru!(dst), ru!(src), size as u64);
                        mem!(self
                            .memory
                            .copy_within_sel(s, d, len, !func.check_free(pc - 1)));
                        obs.on_effect(&self.memory, &func, pc - 1, || EffectKind::Copy {
                            dst: d,
                            src: s,
                            len,
                        });
                    }
                    Instr::Prefetch { a } => {
                        let addr = ru!(a);
                        obs.on_mem(&mut self.memory, pc - 1, addr, 0, Access::Prefetch);
                        self.memory.prefetch(addr);
                    }

                    Instr::VAddF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x + y),
                    Instr::VSubF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x - y),
                    Instr::VMulF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x * y),
                    Instr::VDivF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x / y),
                    Instr::VMinF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x.min(y)),
                    Instr::VMaxF32 { d, a, b } => vbin32!(d, a, b, |x: f32, y: f32| x.max(y)),
                    Instr::VAddF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x + y),
                    Instr::VSubF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x - y),
                    Instr::VMulF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x * y),
                    Instr::VDivF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x / y),
                    Instr::VMinF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x.min(y)),
                    Instr::VMaxF64 { d, a, b } => vbin64!(d, a, b, |x: f64, y: f64| x.max(y)),
                    Instr::VFmaF32 { d, a, b } => {
                        let x = vf32(r!(a));
                        let y = vf32(r!(b));
                        let mut acc = vf32(r!(d));
                        for i in 0..8 {
                            acc[i] += x[i] * y[i];
                        }
                        set!(d, to_vf32(acc));
                    }
                    Instr::VFmaF64 { d, a, b } => {
                        let x = vf64(r!(a));
                        let y = vf64(r!(b));
                        let mut acc = vf64(r!(d));
                        for i in 0..4 {
                            acc[i] += x[i] * y[i];
                        }
                        set!(d, to_vf64(acc));
                    }
                    Instr::SplatF32 { d, a } => {
                        let v = as_f32(r!(a));
                        set!(d, to_vf32([v; 8]));
                    }
                    Instr::SplatF64 { d, a } => {
                        let v = as_f64(r!(a));
                        set!(d, to_vf64([v; 4]));
                    }

                    Instr::Jmp { target } => pc = target as usize,
                    Instr::BrFalse { c, target } => {
                        if ru!(c) == 0 {
                            pc = target as usize;
                        }
                    }
                    Instr::BrTrue { c, target } => {
                        if ru!(c) != 0 {
                            pc = target as usize;
                        }
                    }

                    Instr::Call { d, f, args, nargs } => {
                        let callee = self.defined(f)?;
                        self.vm.frames[frame_idx].pc = pc;
                        let argv = base + args as usize..base + (args + nargs) as usize;
                        let callee_base = self.push_call(obs, callee, d)?;
                        self.vm.regs.copy_within(argv, callee_base);
                        continue 'frames;
                    }
                    Instr::CallIndirect { d, f, args, nargs } => {
                        let bits = ru!(f);
                        let id = decode_func_ptr(bits).ok_or(Trap::NotAFunction(bits))?;
                        let callee = self.defined(id)?;
                        self.vm.frames[frame_idx].pc = pc;
                        let argv = base + args as usize..base + (args + nargs) as usize;
                        let callee_base = self.push_call(obs, callee, d)?;
                        self.vm.regs.copy_within(argv, callee_base);
                        continue 'frames;
                    }
                    Instr::ParFor {
                        f,
                        lo,
                        hi,
                        args,
                        nargs,
                    } => {
                        let (lo_v, hi_v) = (ri!(lo), ri!(hi));
                        let start = base + args as usize;
                        self.vm.frames[frame_idx].pc = pc;
                        // The harness never touches this context's registers
                        // (workers have their own): lend them out as arguments.
                        let regs = std::mem::take(&mut self.vm.regs);
                        let done = crate::parallel::run_parallelfor_at(
                            self,
                            obs,
                            f,
                            lo_v,
                            hi_v,
                            &regs[start..start + nargs as usize],
                            Some((&func, pc - 1)),
                        );
                        self.vm.regs = regs;
                        done?;
                    }
                    Instr::CallBuiltin { d, b, args, nargs } => {
                        let argv = (base + args as usize, nargs as usize);
                        let result = mem!(call_builtin(self, obs, &func, pc - 1, b, argv));
                        if d != NO_REG {
                            set!(d, result);
                        }
                    }
                    Instr::Ret { s } => {
                        let val = if s == NO_REG { [0u64; 4] } else { r!(s) };
                        let done = self.vm.frames.len() == entry_frames + 1;
                        obs.on_ret();
                        let fr = self.vm.frames.pop().expect("frame exists");
                        self.memory.pop_frame(fr.mem_base);
                        self.vm.regs.truncate(fr.base);
                        if done {
                            return Ok(val);
                        }
                        let parent = self.vm.frames.last().expect("caller frame exists");
                        if fr.ret_dst != NO_REG {
                            self.vm.regs[parent.base + fr.ret_dst as usize] = val;
                        }
                        continue 'frames;
                    }
                    Instr::Trap => return Err(Trap::Abort),
                }
            }
        }
    }

    /// Pushes a frame (zeroed registers, frame memory) for `callee` and
    /// returns its register base; the caller copies the arguments in.
    /// Always inlined: an out-of-line call from `run` costs the observed
    /// loop's register allocation a quarter of its speed.
    #[inline(always)]
    fn push_call<O: Observer>(
        &mut self,
        obs: &mut O,
        callee: Arc<CompiledFunction>,
        ret_dst: Reg,
    ) -> ExecResult<usize> {
        if self.vm.frames.len() >= MAX_FRAMES {
            return Err(Trap::StackOverflow);
        }
        let new_base = self.vm.regs.len();
        self.vm
            .regs
            .resize(new_base + callee.nregs as usize, [0; 4]);
        let mem_base = self
            .memory
            .push_frame(callee.frame_size as u64)
            .map_err(|_| Trap::StackOverflow)?;
        obs.on_call(&callee);
        self.vm.frames.push(Frame {
            func: callee,
            pc: 0,
            base: new_base,
            mem_base,
            ret_dst,
        });
        Ok(new_base)
    }
}

/// Encodes an FFI value into register bits according to the parameter type
/// (f32 parameters carry f32 bits in lane 0).
fn encode_arg(v: Value, ty: &Ty) -> u64 {
    match (v, ty) {
        (Value::Float(f), Ty::Scalar(ScalarTy::F32)) => (f as f32).to_bits() as u64,
        (Value::Int(i), Ty::Scalar(ScalarTy::F32)) => (i as f32).to_bits() as u64,
        (Value::Int(i), Ty::Scalar(ScalarTy::F64)) => (i as f64).to_bits(),
        (Value::Float(f), Ty::Scalar(s)) if s.is_integer() => f as i64 as u64,
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

/// Executes builtin `b` for the instruction at `func[pc]`, reading its
/// `(first register index, count)` arguments in place; allocator and output
/// builtins report their effects to `obs`.
fn call_builtin<O: Observer>(
    ctx: &mut ExecutionContext,
    obs: &mut O,
    func: &CompiledFunction,
    pc: usize,
    b: Builtin,
    (start, nargs): (usize, usize),
) -> ExecResult<RegImage> {
    // No builtin but printf (which formats straight from the registers)
    // takes more than three arguments; missing ones read as zero.
    let args = &ctx.vm.regs[start..start + nargs];
    let a: [u64; 3] = std::array::from_fn(|i| args.get(i).map_or(0, |v| v[0]));
    let f = |i: usize| -> f64 { f64::from_bits(a[i]) };
    Ok(match b {
        Builtin::Malloc => {
            obs.on_alloc(&mut ctx.memory, func, pc);
            let (size, addr) = (a[0], ctx.memory.malloc(a[0]));
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Alloc { size, addr });
            from_i64(addr as i64)
        }
        Builtin::Free => {
            ctx.memory.free(a[0])?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Free { addr: a[0] });
            [0; 4]
        }
        Builtin::Realloc => {
            obs.on_alloc(&mut ctx.memory, func, pc);
            let (old, size) = (a[0], a[1]);
            let addr = ctx.memory.realloc(old, size)?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Realloc {
                old,
                size,
                addr,
            });
            from_i64(addr as i64)
        }
        Builtin::Memcpy => {
            let (dst, src, len) = (a[0], a[1], a[2]);
            ctx.memory.copy_within(src, dst, len)?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Copy { dst, src, len });
            from_i64(dst as i64)
        }
        Builtin::Memset => {
            let (addr, byte, len) = (a[0], a[1] as u8, a[2]);
            ctx.memory.fill(addr, byte, len)?;
            obs.on_effect(&ctx.memory, func, pc, || EffectKind::Set {
                addr,
                byte,
                len,
            });
            from_i64(addr as i64)
        }
        Builtin::Sqrt => from_f64(f(0).sqrt()),
        Builtin::Fabs => from_f64(f(0).abs()),
        Builtin::Sin => from_f64(f(0).sin()),
        Builtin::Cos => from_f64(f(0).cos()),
        Builtin::Exp => from_f64(f(0).exp()),
        Builtin::Log => from_f64(f(0).ln()),
        Builtin::Pow => from_f64(f(0).powf(f(1))),
        Builtin::Floor => from_f64(f(0).floor()),
        Builtin::Ceil => from_f64(f(0).ceil()),
        Builtin::Fmod => from_f64(f(0) % f(1)),
        Builtin::Clock => from_f64(ctx.epoch.elapsed().as_secs_f64()),
        Builtin::Printf => {
            let out = format_printf(&ctx.memory, &ctx.vm.regs[start..start + nargs])?;
            obs.on_output(func, pc, &out);
            ctx.emit(&out);
            from_i64(out.len() as i64)
        }
        Builtin::Prefetch => {
            obs.on_mem(&mut ctx.memory, pc, a[0], 0, Access::Prefetch);
            ctx.memory.prefetch(a[0]);
            [0; 4]
        }
        Builtin::Rand => {
            ctx.rng_state = ctx
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            from_i64(((ctx.rng_state >> 33) & 0x7FFF_FFFF) as i64)
        }
        Builtin::Srand => {
            ctx.rng_state = a[0] ^ 0x9E3779B97F4A7C15;
            [0; 4]
        }
        Builtin::Abort => return Err(Trap::Abort),
    })
}

/// Renders a `printf` call. Supports `%d %i %u %x %f %g %e %s %c %p %%`,
/// optional width/precision, and the `l`/`ll` length modifiers.
fn format_printf(memory: &Memory, args: &[RegImage]) -> ExecResult<String> {
    let fmt_addr = args
        .first()
        .ok_or_else(|| Trap::BadFormat("missing format string".into()))?[0];
    let fmt = memory.c_string(fmt_addr)?;
    let mut out = String::new();
    let mut next = 1usize;
    let take = |next: &mut usize| -> ExecResult<u64> {
        let v = args
            .get(*next)
            .ok_or_else(|| Trap::BadFormat("too few arguments".into()))?[0];
        *next += 1;
        Ok(v)
    };
    let bytes = fmt.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c != b'%' {
            out.push(c as char);
            i += 1;
            continue;
        }
        i += 1;
        if i >= bytes.len() {
            return Err(Trap::BadFormat("trailing '%'".into()));
        }
        // Width / precision / length modifiers.
        let mut width = String::new();
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.' || bytes[i] == b'-')
        {
            width.push(bytes[i] as char);
            i += 1;
        }
        while i < bytes.len() && (bytes[i] == b'l' || bytes[i] == b'z' || bytes[i] == b'h') {
            i += 1;
        }
        if i >= bytes.len() {
            return Err(Trap::BadFormat("incomplete conversion".into()));
        }
        let conv = bytes[i];
        i += 1;
        let (w, p) = parse_width(&width);
        match conv {
            b'%' => out.push('%'),
            b'd' | b'i' => pad_num(&mut out, &(take(&mut next)? as i64).to_string(), w),
            b'u' => pad_num(&mut out, &take(&mut next)?.to_string(), w),
            b'x' => pad_num(&mut out, &format!("{:x}", take(&mut next)?), w),
            b'c' => out.push((take(&mut next)? as u8) as char),
            b'p' => out.push_str(&format!("{:#x}", take(&mut next)?)),
            b'f' | b'e' | b'g' => {
                let v = f64::from_bits(take(&mut next)?);
                let s = match (conv, p) {
                    (b'f', Some(p)) => format!("{v:.p$}"),
                    (b'f', None) => format!("{v:.6}"),
                    (b'e', _) => format!("{v:e}"),
                    (_, Some(p)) => format!("{v:.p$}"),
                    (_, None) => format!("{v}"),
                };
                pad_num(&mut out, &s, w);
            }
            b's' => {
                let s = memory.c_string(take(&mut next)?)?;
                pad_num(&mut out, &s, w);
            }
            other => {
                return Err(Trap::BadFormat(format!(
                    "unsupported conversion '%{}'",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

fn parse_width(spec: &str) -> (Option<usize>, Option<usize>) {
    let mut parts = spec.trim_start_matches('-').splitn(2, '.');
    let w = parts.next().and_then(|s| s.parse().ok());
    let p = parts.next().and_then(|s| s.parse().ok());
    (w, p)
}

fn pad_num(out: &mut String, s: &str, width: Option<usize>) {
    if let Some(w) = width {
        for _ in s.len()..w {
            out.push(' ');
        }
    }
    out.push_str(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compiled, Instr as I};
    use crate::program::OutputSink;
    use terra_ir::FuncTy;

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
                vec![I::AddI { d: 2, a: 0, b: 1 }, I::Ret { s: 2 }],
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
                    I::Ret { s: 1 },
                    I::SubI { d: 3, a: 0, b: 1 },
                    I::Call {
                        d: 4,
                        f: id,
                        args: 3,
                        nargs: 1,
                    },
                    I::MulI { d: 5, a: 0, b: 4 },
                    I::Ret { s: 5 },
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
        assert!(matches!(err, Trap::Undefined(_)));
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
                vec![I::DivS { d: 2, a: 0, b: 1 }, I::Ret { s: 2 }],
            ),
        );
        assert_eq!(
            ctx.call(id, &[Value::Int(1), Value::Int(0)]),
            Err(Trap::DivByZero)
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
                    I::StoreF64 { a: 0, s: 1 },
                    I::LoadF64 { d: 2, a: 0 },
                    I::Ret { s: 2 },
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
                4,
                vec![
                    I::LoadV {
                        d: 2,
                        a: 0,
                        bytes: 32,
                    },
                    I::VAddF64 { d: 3, a: 2, b: 2 },
                    I::StoreV {
                        a: 1,
                        s: 3,
                        bytes: 32,
                    },
                    I::Ret { s: NO_REG },
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
                    I::Ret { s: 2 },
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
                    I::Mov { d: 2, a: 1 },
                    I::CallIndirect {
                        d: 3,
                        f: 0,
                        args: 2,
                        nargs: 1,
                    },
                    I::Ret { s: 3 },
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
        assert!(matches!(err, Trap::NotAFunction(_)));
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
                    I::Ret { s: 5 },
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
                vec![I::Ret { s: NO_REG }],
            ),
        );
        let err = ctx.call(id, &[]).unwrap_err();
        assert_eq!(
            err,
            Trap::ArityMismatch {
                expected: 1,
                got: 0
            }
        );
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
                        f: id,
                        args: 0,
                        nargs: 0,
                    },
                    I::Ret { s: NO_REG },
                ],
            ),
        );
        assert_eq!(ctx.call(id, &[]), Err(Trap::StackOverflow));
    }
}
