//! Register-machine bytecode.
//!
//! Each compiled Terra function is a flat instruction vector over a frame
//! of 8-byte register *slots*: a scalar lives in one slot, a SIMD vector
//! (8×f32 or 4×f64 — the VM analogue of AVX) in [`VECTOR_SLOTS`]
//! consecutive ones, named by the first. Jump targets are absolute
//! instruction indices.
//!
//! Everything the dispatch loop would otherwise decide per retired
//! instruction is decided here, when the function is built: operand widths
//! are part of the opcode (or, for `mov`/`call`/`ret`, a field), memory
//! instructions carry their own `chk` bit, and [`CompiledFunction::new`]
//! refuses any function whose operands leave its frame or whose jumps leave
//! its code — the invariant the loop's frame window relies on.

use std::fmt;
use std::sync::Arc;
use terra_ir::{Builtin, FuncId, FuncTy, ScalarTy, Ty};

/// A register: the index of its first 8-byte slot within the frame.
pub type Reg = u16;

/// Sentinel register meaning "no destination/source".
pub const NO_REG: Reg = u16::MAX;

/// Most slots one frame may have; keeps [`NO_REG`] out of reach.
pub const MAX_SLOTS: u16 = u16::MAX - 1;

/// Slots a `vector(T, n)` value occupies (vectors are at most 32 bytes).
pub const VECTOR_SLOTS: u16 = 4;

/// Slots a value of type `ty` occupies in a frame.
pub fn slots_of(ty: &Ty) -> u16 {
    if matches!(ty, Ty::Vector(..)) {
        VECTOR_SLOTS
    } else {
        1
    }
}

/// Integer width/signedness tag used by `Trunc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntWidth {
    /// Sign-extend from 8 bits.
    I8,
    /// Zero-extend from 8 bits.
    U8,
    /// Sign-extend from 16 bits.
    I16,
    /// Zero-extend from 16 bits.
    U16,
    /// Sign-extend from 32 bits.
    I32,
    /// Zero-extend from 32 bits.
    U32,
}

impl IntWidth {
    /// The tag of narrow integer type `s` (`None` for 64-bit integers and
    /// everything that is not an integer).
    pub fn of(s: ScalarTy) -> Option<IntWidth> {
        match s {
            ScalarTy::I8 => Some(IntWidth::I8),
            ScalarTy::U8 => Some(IntWidth::U8),
            ScalarTy::I16 => Some(IntWidth::I16),
            ScalarTy::U16 => Some(IntWidth::U16),
            ScalarTy::I32 => Some(IntWidth::I32),
            ScalarTy::U32 => Some(IntWidth::U32),
            _ => None,
        }
    }
}

/// One bytecode instruction. `d` is the destination register; `a`/`b` are
/// operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // -- constants / moves --------------------------------------------------
    /// `d = imm` (integer/pointer/bool bit pattern).
    ConstI {
        /// Destination.
        d: Reg,
        /// Immediate value.
        v: i64,
    },
    /// `d = imm` (f64 bits).
    ConstF64 {
        /// Destination.
        d: Reg,
        /// Immediate value.
        v: f64,
    },
    /// `d = imm` (f32 bits in the slot's low half).
    ConstF32 {
        /// Destination.
        d: Reg,
        /// Immediate value.
        v: f32,
    },
    /// `d = a`, `w` slots wide.
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        a: Reg,
        /// Slots moved (1, or [`VECTOR_SLOTS`]).
        w: u8,
    },

    // -- integer arithmetic (64-bit, canonical-extended operands) -----------
    /// `d = a + b` (wrapping).
    AddI {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// `d = a - b` (wrapping).
    SubI {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// `d = a * b` (wrapping).
    MulI {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed division (traps on divide-by-zero).
    DivS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Unsigned division (traps on divide-by-zero).
    DivU {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed remainder.
    RemS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Unsigned remainder.
    RemU {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// `d = a << b`.
    Shl {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Arithmetic shift right.
    ShrS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Logical shift right.
    ShrU {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Bitwise and.
    And {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Bitwise or.
    Or {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Bitwise xor.
    Xor {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed integer min.
    MinS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed integer max.
    MaxS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// `d = -a` (wrapping).
    NegI {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// `d = !a` (bitwise).
    NotI {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// Boolean not (`0/1`).
    NotB {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// Re-canonicalizes a narrow integer after arithmetic.
    Trunc {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
        /// Target width.
        w: IntWidth,
    },
    /// `d = a + b*scale + disp` — fused address computation.
    Lea {
        /// Destination.
        d: Reg,
        /// Base register.
        a: Reg,
        /// Index register (or [`NO_REG`]).
        b: Reg,
        /// Scale applied to the index.
        scale: i32,
        /// Constant displacement.
        disp: i64,
    },

    // -- floating arithmetic -------------------------------------------------
    /// f64 add.
    AddF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 subtract.
    SubF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 multiply.
    MulF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 divide.
    DivF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 min.
    MinF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 max.
    MaxF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 negate.
    NegF64 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f32 add.
    AddF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 subtract.
    SubF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 multiply.
    MulF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 divide.
    DivF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 min.
    MinF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 max.
    MaxF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 negate.
    NegF32 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },

    // -- comparisons (produce 0/1) -------------------------------------------
    /// Integer equality.
    CmpEqI {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Integer inequality.
    CmpNeI {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed less-than.
    CmpLtS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Signed less-or-equal.
    CmpLeS {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Unsigned less-than.
    CmpLtU {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Unsigned less-or-equal.
    CmpLeU {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 compare.
    CmpEqF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 not-equal.
    CmpNeF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 less-than.
    CmpLtF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f64 less-or-equal.
    CmpLeF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 compare.
    CmpEqF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 not-equal.
    CmpNeF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 less-than.
    CmpLtF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// f32 less-or-equal.
    CmpLeF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },

    // -- conversions ---------------------------------------------------------
    /// Signed int → f64.
    CvtSToF64 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// Signed int → f32.
    CvtSToF32 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// Unsigned int → f64.
    CvtUToF64 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// Unsigned int → f32.
    CvtUToF32 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f64 → signed int (truncating).
    CvtF64ToS {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f64 → unsigned int (truncating).
    CvtF64ToU {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f32 → signed int (truncating).
    CvtF32ToS {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f32 → f64.
    CvtF32ToF64 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },
    /// f64 → f32.
    CvtF64ToF32 {
        /// Destination.
        d: Reg,
        /// Operand.
        a: Reg,
    },

    // -- memory --------------------------------------------------------------
    /// Load a signed 8-bit value.
    LoadI8 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load an unsigned 8-bit value.
    LoadU8 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load a signed 16-bit value.
    LoadI16 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load an unsigned 16-bit value.
    LoadU16 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load a signed 32-bit value.
    LoadI32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load an unsigned 32-bit value.
    LoadU32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load 64 bits (int/pointer).
    Load64 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load an f32.
    LoadF32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load an f64.
    LoadF64 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store low 8 bits.
    Store8 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store low 16 bits.
    Store16 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store low 32 bits.
    Store32 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store 64 bits.
    Store64 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store an f32 (the slot's low 32 bits).
    StoreF32 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store an f64.
    StoreF64 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Load `bytes` (≤ 32) into a vector register, zeroing the rest.
    LoadV {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bytes to load.
        bytes: u8,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Store the low `bytes` of a vector register.
    StoreV {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bytes to store.
        bytes: u8,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Frame-slot address: `d = frame_base + offset`.
    FrameAddr {
        /// Destination.
        d: Reg,
        /// Byte offset within the frame.
        offset: u32,
    },
    /// `memcpy(dst, src, size)` with a constant size.
    CopyMem {
        /// Destination address register.
        dst: Reg,
        /// Source address register.
        src: Reg,
        /// Byte count.
        size: u32,
        /// Bounds-checked (see [`Instr::chk`])?
        chk: bool,
    },
    /// Prefetch the cache line at the address in `a`.
    Prefetch {
        /// Address register.
        a: Reg,
    },

    // -- vectors (f32 uses 8 lanes, f64 uses 4) -------------------------------
    /// Lane-wise f32 add.
    VAddF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f32 subtract.
    VSubF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f32 multiply.
    VMulF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f32 divide.
    VDivF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f32 min.
    VMinF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f32 max.
    VMaxF32 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 add.
    VAddF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 subtract.
    VSubF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 multiply.
    VMulF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 divide.
    VDivF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 min.
    VMinF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Lane-wise f64 max.
    VMaxF64 {
        /// Destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Fused multiply-add `d = a*b + d` on f32 lanes (kernel hot path).
    VFmaF32 {
        /// Accumulator / destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Fused multiply-add `d = a*b + d` on f64 lanes.
    VFmaF64 {
        /// Accumulator / destination.
        d: Reg,
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
    },
    /// Broadcast a scalar f32 to all 8 lanes.
    SplatF32 {
        /// Destination.
        d: Reg,
        /// Source scalar.
        a: Reg,
    },
    /// Broadcast a scalar f64 to all 4 lanes.
    SplatF64 {
        /// Destination.
        d: Reg,
        /// Source scalar.
        a: Reg,
    },

    // -- control flow ---------------------------------------------------------
    /// Unconditional jump.
    Jmp {
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when the register is zero/false.
    BrFalse {
        /// Condition register.
        c: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when the register is nonzero/true.
    BrTrue {
        /// Condition register.
        c: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a == b` (integers, pointers, bools).
    BrEqI {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a != b`.
    BrNeI {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a < b`, signed.
    BrLtS {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a <= b`, signed.
    BrLeS {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a < b`, unsigned.
    BrLtU {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump when `a <= b`, unsigned.
    BrLeU {
        /// Left.
        a: Reg,
        /// Right.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Direct call: copies the `nargs` slots starting at `args` to the
    /// bottom of the callee frame (parameters sit at the prefix sums of
    /// their widths on both sides); the result (if any) lands in `d`.
    Call {
        /// Destination register or [`NO_REG`].
        d: Reg,
        /// Slots of the result (0 without a destination).
        w: u8,
        /// Callee.
        f: FuncId,
        /// First slot of the argument block.
        args: Reg,
        /// Slots in the argument block.
        nargs: u16,
    },
    /// Indirect call through a function-pointer value.
    CallIndirect {
        /// Destination register or [`NO_REG`].
        d: Reg,
        /// Slots of the result (0 without a destination).
        w: u8,
        /// Register holding the function pointer.
        f: Reg,
        /// First slot of the argument block.
        args: Reg,
        /// Slots in the argument block.
        nargs: u16,
    },
    /// Data-parallel loop: runs `f(i, extra...)` for every `i` in
    /// `[lo, hi)`, partitioned into deterministic chunks that may execute on
    /// worker threads (see `crate::parallel`). The `nargs` slots of captured
    /// extras start at `args`.
    ParFor {
        /// Kernel function (param 0 is the index).
        f: FuncId,
        /// Register holding the inclusive lower bound.
        lo: Reg,
        /// Register holding the exclusive upper bound.
        hi: Reg,
        /// First slot of the captured-argument block.
        args: Reg,
        /// Slots in the captured-argument block.
        nargs: u16,
    },
    /// Call a runtime builtin (scalar arguments, scalar result).
    CallBuiltin {
        /// Destination register or [`NO_REG`].
        d: Reg,
        /// Which builtin.
        b: Builtin,
        /// First argument register.
        args: Reg,
        /// Argument count.
        nargs: u16,
    },
    /// Return (source register or [`NO_REG`]).
    Ret {
        /// Result register or [`NO_REG`].
        s: Reg,
        /// Slots of the result (0 without a source).
        w: u8,
    },
    /// Unconditional trap (unreachable code, `abort`).
    Trap,
}

/// The `target` field of a jump or branch, by whatever reference `$instr` is.
macro_rules! jump_target {
    ($instr:expr) => {
        match $instr {
            Instr::Jmp { target }
            | Instr::BrFalse { target, .. }
            | Instr::BrTrue { target, .. }
            | Instr::BrEqI { target, .. }
            | Instr::BrNeI { target, .. }
            | Instr::BrLtS { target, .. }
            | Instr::BrLeS { target, .. }
            | Instr::BrLtU { target, .. }
            | Instr::BrLeU { target, .. } => Some(target),
            _ => None,
        }
    };
}

impl Instr {
    /// Whether this instruction performs a bounds-checkable memory access —
    /// what the `checkelim` pass can mark check-free. `Prefetch` is
    /// excluded: hints never trap, so carry no check.
    pub fn is_mem_access(&self) -> bool {
        self.chk().is_some()
    }

    /// The instruction's mnemonic (its name in reports and counters).
    pub fn mnemonic(&self) -> &'static str {
        MNEMONICS[self.opcode() as usize]
    }

    /// Whether control can continue at the next instruction.
    pub(crate) fn falls_through(&self) -> bool {
        !matches!(self, Instr::Jmp { .. } | Instr::Ret { .. } | Instr::Trap)
    }

    /// The instruction's jump target, if it has one.
    pub(crate) fn target(&self) -> Option<u32> {
        jump_target!(self).copied()
    }

    /// The instruction's jump target, for the compiler to patch.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        jump_target!(self)
    }

    /// Calls `visit(first slot, slots)` for every register operand, fixed
    /// shape or not; [`NO_REG`] operands are skipped.
    fn operands(&self, mut visit: impl FnMut(Reg, u16)) {
        self.fixed_operands(&mut visit);
        let mut optional = |r: Reg, w: u16| {
            if r != NO_REG {
                visit(r, w);
            }
        };
        match *self {
            Instr::Mov { d, a, w } => {
                optional(d, w.into());
                optional(a, w.into());
            }
            Instr::Lea { b, .. } => optional(b, 1),
            Instr::Call {
                d, w, args, nargs, ..
            }
            | Instr::CallIndirect {
                d, w, args, nargs, ..
            } => {
                optional(d, w.into());
                optional(args, nargs);
            }
            Instr::ParFor { args, nargs, .. } => optional(args, nargs),
            Instr::CallBuiltin { d, args, nargs, .. } => {
                optional(d, 1);
                optional(args, nargs);
            }
            Instr::Ret { s, w } => optional(s, w.into()),
            _ => {}
        }
    }
}

/// Declares the opcode table, one row per [`Instr`] variant:
/// `Variant => "mnemonic" [operands] chk?`. The row's position is the
/// variant's [`Instr::opcode`] and [`MNEMONICS`] the name table profilers'
/// dense counters are rendered by; `[operands]` lists the register fields
/// of fixed shape (`r` one slot, `r*4` a vector), which is what the
/// load-time validator walks; a trailing `chk` marks the bounds-checkable
/// memory accesses, whose `chk` field [`Instr::chk`] reads.
macro_rules! opcodes {
    (@w) => { 1 };
    (@w $w:literal) => { $w };
    ($($variant:ident => $name:literal [$($r:ident $(* $w:literal)?),*] $($chk:ident)?,)*) => {
        #[repr(u8)]
        enum Opcode { $($variant),* }

        /// Mnemonic of every opcode, indexed by [`Instr::opcode`].
        pub const MNEMONICS: [&str; N_OPCODES] = [$($name),*];

        impl Instr {
            /// Dense opcode index of this instruction (`< N_OPCODES`).
            #[inline]
            pub fn opcode(&self) -> u8 {
                match self { $(Instr::$variant { .. } => Opcode::$variant as u8,)* }
            }

            /// The instruction's bounds-check bit: `Some(true)` for a memory
            /// access that checks its address, `Some(false)` for one the
            /// mid-end proved in-bounds (ignored under `--sanitize`), `None`
            /// for everything that is not a checkable memory access.
            #[inline]
            pub fn chk(&self) -> Option<bool> {
                match *self {
                    $($(Instr::$variant { $chk, .. } => Some($chk),)?)*
                    _ => None,
                }
            }

            /// Calls `visit(first slot, slots)` for every fixed-shape
            /// register operand.
            fn fixed_operands(&self, visit: &mut impl FnMut(Reg, u16)) {
                match *self {
                    $(Instr::$variant { $($r,)* .. } => {
                        $(visit($r, opcodes!(@w $($w)?));)*
                    })*
                }
            }
        }
    };
}

/// Number of distinct opcodes ([`Instr`] variants).
pub const N_OPCODES: usize = 112;

opcodes! {
    ConstI => "const.i" [d],
    ConstF64 => "const.f64" [d],
    ConstF32 => "const.f32" [d],
    Mov => "mov" [],
    AddI => "add.i" [d, a, b],
    SubI => "sub.i" [d, a, b],
    MulI => "mul.i" [d, a, b],
    DivS => "div.s" [d, a, b],
    DivU => "div.u" [d, a, b],
    RemS => "rem.s" [d, a, b],
    RemU => "rem.u" [d, a, b],
    Shl => "shl" [d, a, b],
    ShrS => "shr.s" [d, a, b],
    ShrU => "shr.u" [d, a, b],
    And => "and" [d, a, b],
    Or => "or" [d, a, b],
    Xor => "xor" [d, a, b],
    MinS => "min.s" [d, a, b],
    MaxS => "max.s" [d, a, b],
    NegI => "neg.i" [d, a],
    NotI => "not.i" [d, a],
    NotB => "not.b" [d, a],
    Trunc => "trunc" [d, a],
    Lea => "lea" [d, a],
    AddF64 => "add.f64" [d, a, b],
    SubF64 => "sub.f64" [d, a, b],
    MulF64 => "mul.f64" [d, a, b],
    DivF64 => "div.f64" [d, a, b],
    MinF64 => "min.f64" [d, a, b],
    MaxF64 => "max.f64" [d, a, b],
    NegF64 => "neg.f64" [d, a],
    AddF32 => "add.f32" [d, a, b],
    SubF32 => "sub.f32" [d, a, b],
    MulF32 => "mul.f32" [d, a, b],
    DivF32 => "div.f32" [d, a, b],
    MinF32 => "min.f32" [d, a, b],
    MaxF32 => "max.f32" [d, a, b],
    NegF32 => "neg.f32" [d, a],
    CmpEqI => "cmp.eq.i" [d, a, b],
    CmpNeI => "cmp.ne.i" [d, a, b],
    CmpLtS => "cmp.lt.s" [d, a, b],
    CmpLeS => "cmp.le.s" [d, a, b],
    CmpLtU => "cmp.lt.u" [d, a, b],
    CmpLeU => "cmp.le.u" [d, a, b],
    CmpEqF64 => "cmp.eq.f64" [d, a, b],
    CmpNeF64 => "cmp.ne.f64" [d, a, b],
    CmpLtF64 => "cmp.lt.f64" [d, a, b],
    CmpLeF64 => "cmp.le.f64" [d, a, b],
    CmpEqF32 => "cmp.eq.f32" [d, a, b],
    CmpNeF32 => "cmp.ne.f32" [d, a, b],
    CmpLtF32 => "cmp.lt.f32" [d, a, b],
    CmpLeF32 => "cmp.le.f32" [d, a, b],
    CvtSToF64 => "cvt.s.f64" [d, a],
    CvtSToF32 => "cvt.s.f32" [d, a],
    CvtUToF64 => "cvt.u.f64" [d, a],
    CvtUToF32 => "cvt.u.f32" [d, a],
    CvtF64ToS => "cvt.f64.s" [d, a],
    CvtF64ToU => "cvt.f64.u" [d, a],
    CvtF32ToS => "cvt.f32.s" [d, a],
    CvtF32ToF64 => "cvt.f32.f64" [d, a],
    CvtF64ToF32 => "cvt.f64.f32" [d, a],
    LoadI8 => "load.i8" [d, a] chk,
    LoadU8 => "load.u8" [d, a] chk,
    LoadI16 => "load.i16" [d, a] chk,
    LoadU16 => "load.u16" [d, a] chk,
    LoadI32 => "load.i32" [d, a] chk,
    LoadU32 => "load.u32" [d, a] chk,
    Load64 => "load.64" [d, a] chk,
    LoadF32 => "load.f32" [d, a] chk,
    LoadF64 => "load.f64" [d, a] chk,
    Store8 => "store.8" [a, s] chk,
    Store16 => "store.16" [a, s] chk,
    Store32 => "store.32" [a, s] chk,
    Store64 => "store.64" [a, s] chk,
    StoreF32 => "store.f32" [a, s] chk,
    StoreF64 => "store.f64" [a, s] chk,
    LoadV => "load.v" [d*4, a] chk,
    StoreV => "store.v" [a, s*4] chk,
    FrameAddr => "frame.addr" [d],
    CopyMem => "copy.mem" [dst, src] chk,
    Prefetch => "prefetch" [a],
    VAddF32 => "vadd.f32" [d*4, a*4, b*4],
    VSubF32 => "vsub.f32" [d*4, a*4, b*4],
    VMulF32 => "vmul.f32" [d*4, a*4, b*4],
    VDivF32 => "vdiv.f32" [d*4, a*4, b*4],
    VMinF32 => "vmin.f32" [d*4, a*4, b*4],
    VMaxF32 => "vmax.f32" [d*4, a*4, b*4],
    VAddF64 => "vadd.f64" [d*4, a*4, b*4],
    VSubF64 => "vsub.f64" [d*4, a*4, b*4],
    VMulF64 => "vmul.f64" [d*4, a*4, b*4],
    VDivF64 => "vdiv.f64" [d*4, a*4, b*4],
    VMinF64 => "vmin.f64" [d*4, a*4, b*4],
    VMaxF64 => "vmax.f64" [d*4, a*4, b*4],
    VFmaF32 => "vfma.f32" [d*4, a*4, b*4],
    VFmaF64 => "vfma.f64" [d*4, a*4, b*4],
    SplatF32 => "splat.f32" [d*4, a],
    SplatF64 => "splat.f64" [d*4, a],
    Jmp => "jmp" [],
    BrFalse => "br.false" [c],
    BrTrue => "br.true" [c],
    BrEqI => "br.eq.i" [a, b],
    BrNeI => "br.ne.i" [a, b],
    BrLtS => "br.lt.s" [a, b],
    BrLeS => "br.le.s" [a, b],
    BrLtU => "br.lt.u" [a, b],
    BrLeU => "br.le.u" [a, b],
    Call => "call" [],
    CallIndirect => "call.indirect" [f],
    ParFor => "par.for" [lo, hi],
    CallBuiltin => "call.builtin" [],
    Ret => "ret" [],
    Trap => "trap" [],
}

/// Function-pointer values are tagged with this high bit pattern so that
/// stray integers are not callable.
pub const FUNC_PTR_TAG: u64 = 0xF1A5_0000_0000_0000;

/// Encodes a [`FuncId`] as a Terra function-pointer value.
pub fn encode_func_ptr(id: FuncId) -> u64 {
    FUNC_PTR_TAG | id.0 as u64
}

/// Decodes a Terra function-pointer value, if valid.
pub fn decode_func_ptr(bits: u64) -> Option<FuncId> {
    if bits & 0xFFFF_0000_0000_0000 == FUNC_PTR_TAG {
        Some(FuncId((bits & 0xFFFF_FFFF) as u32))
    } else {
        None
    }
}

/// Why a function could not be turned into bytecode: it needs more register
/// slots than a frame can have, or (an internal error) its instructions do
/// not fit the frame they declare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeError {
    /// The function being compiled or loaded.
    pub func: Arc<str>,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "terra function '{}' {}", self.func, self.message)
    }
}

impl std::error::Error for BytecodeError {}

/// A fully compiled Terra function. Built only by
/// [`CompiledFunction::new`], so every instance has passed the load-time
/// validator.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Name for diagnostics.
    pub name: Arc<str>,
    /// Signature.
    pub ty: FuncTy,
    /// Register slots the frame needs (parameters sit at the bottom, at the
    /// prefix sums of their widths). Private: `code` was validated against it.
    nslots: u16,
    /// Bytes of frame memory for in-memory locals.
    pub frame_size: u32,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// Debug info: 1-based source line per instruction (parallel to `code`;
    /// 0 = unknown). May be empty for synthetic functions.
    pub lines: Vec<u32>,
    /// Debug info: provenance-table index + 1 per instruction (parallel to
    /// `code`; 0 = written in place). May be empty for synthetic functions.
    pub provs: Vec<u32>,
    /// Interned staging chains referenced by `provs` (e.g. `"via quote at
    /// line 41, inlined at line 30"`). Kept separate because many
    /// instructions share the same chain.
    pub prov_table: Vec<Arc<str>>,
}

impl CompiledFunction {
    /// Builds a function without debug info, validating `code` against the
    /// frame it declares: every register operand (with its width) lies
    /// below `nslots`, every jump lands on an instruction, vector accesses
    /// move at most 32 bytes, and control cannot run off the end. The
    /// dispatch loop indexes its frame window and its code on the strength
    /// of this walk.
    ///
    /// # Errors
    ///
    /// Names the first offending instruction.
    pub fn new(
        name: impl Into<Arc<str>>,
        ty: FuncTy,
        nslots: u16,
        frame_size: u32,
        code: Vec<Instr>,
    ) -> Result<CompiledFunction, BytecodeError> {
        let name = name.into();
        let invalid = |pc: usize, what: String| BytecodeError {
            func: name.clone(),
            message: format!("has invalid bytecode: {what} at pc {pc}"),
        };
        if nslots > MAX_SLOTS {
            return Err(invalid(0, format!("a frame of {nslots} slots")));
        }
        if code.last().is_none_or(Instr::falls_through) {
            return Err(invalid(code.len(), "control running off the end".into()));
        }
        for (pc, instr) in code.iter().enumerate() {
            let mut stray = None;
            instr.operands(|r, w| {
                if u32::from(r) + u32::from(w) > u32::from(nslots) {
                    stray.get_or_insert((r, w));
                }
            });
            if let Some((r, w)) = stray {
                let what = format!(
                    "'{}' uses slots {r}..{} of a {nslots}-slot frame",
                    instr.mnemonic(),
                    u32::from(r) + u32::from(w)
                );
                return Err(invalid(pc, what));
            }
            if instr.target().is_some_and(|t| t as usize >= code.len()) {
                return Err(invalid(pc, "a jump out of the function".into()));
            }
            if let Instr::LoadV { bytes, .. } | Instr::StoreV { bytes, .. } = *instr {
                if !(1..=32).contains(&bytes) {
                    return Err(invalid(pc, format!("a {bytes}-byte vector access")));
                }
            }
        }
        Ok(CompiledFunction {
            name,
            ty,
            nslots,
            frame_size,
            code,
            lines: Vec::new(),
            provs: Vec::new(),
            prov_table: Vec::new(),
        })
    }

    /// Attaches the debug-info tables (`lines` and `provs` parallel to the
    /// code, `provs` indexing `prov_table`).
    pub fn with_debug_info(
        mut self,
        lines: Vec<u32>,
        provs: Vec<u32>,
        prov_table: Vec<Arc<str>>,
    ) -> CompiledFunction {
        debug_assert_eq!(lines.len(), self.code.len());
        debug_assert_eq!(provs.len(), self.code.len());
        (self.lines, self.provs, self.prov_table) = (lines, provs, prov_table);
        self
    }

    /// Register slots a frame of this function has.
    #[inline]
    pub fn nslots(&self) -> usize {
        self.nslots as usize
    }

    /// Slots the parameters occupy at the bottom of the frame.
    pub fn param_slots(&self) -> usize {
        self.ty.params.iter().map(|ty| slots_of(ty) as usize).sum()
    }

    /// The source line of the instruction at `pc` (0 when unknown or when
    /// the function carries no debug info).
    #[inline]
    pub fn line_at(&self, pc: usize) -> u32 {
        self.lines.get(pc).copied().unwrap_or(0)
    }

    /// Whether the memory access at `pc` was proven in-bounds by the
    /// mid-end and runs without its check: the instruction's own
    /// [`chk`](Instr::chk) bit, read back for static counts.
    pub fn check_free(&self, pc: usize) -> bool {
        self.code.get(pc).and_then(Instr::chk) == Some(false)
    }

    /// The rendered staging chain of the instruction at `pc`, if it arrived
    /// through a splice or the inliner.
    #[inline]
    pub fn prov_at(&self, pc: usize) -> Option<&str> {
        let idx = self.provs.get(pc).copied().unwrap_or(0);
        if idx == 0 {
            None
        } else {
            self.prov_table.get(idx as usize - 1).map(|s| &**s)
        }
    }

    /// Like [`CompiledFunction::prov_at`], but returns the interned handle —
    /// for attribution sinks (the heap profiler) that outlive the frame.
    #[inline]
    pub fn prov_rc_at(&self, pc: usize) -> Option<Arc<str>> {
        let idx = self.provs.get(pc).copied().unwrap_or(0);
        if idx == 0 {
            None
        } else {
            self.prov_table.get(idx as usize - 1).cloned()
        }
    }
}

/// A function with no debug info and no frame memory, for unit tests.
#[cfg(test)]
pub(crate) fn compiled(name: &str, ty: FuncTy, nslots: u16, code: Vec<Instr>) -> CompiledFunction {
    CompiledFunction::new(name, ty, nslots, 0, code).expect("test bytecode is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_are_dense_and_mnemonics_distinct() {
        // The `opcodes!` match is exhaustive and numbers variants by their
        // row, so first and last rows pin the whole numbering.
        assert_eq!(Instr::ConstI { d: 0, v: 0 }.opcode(), 0);
        assert_eq!(Instr::Trap.opcode() as usize, N_OPCODES - 1);
        let mut names = MNEMONICS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OPCODES, "two opcodes share a mnemonic");
        // `chk` is the profiler's pseudo-op row; no real opcode may claim it.
        assert!(!MNEMONICS.contains(&"chk"));
        let copy = Instr::CopyMem {
            dst: 0,
            src: 0,
            size: 0,
            chk: false,
        };
        assert_eq!(copy.chk(), Some(false));
        assert!(copy.is_mem_access());
        assert!(!Instr::Prefetch { a: 0 }.is_mem_access());
        for (instr, name) in [
            (
                Instr::LoadF64 {
                    d: 0,
                    a: 0,
                    chk: true,
                },
                "load.f64",
            ),
            (Instr::Jmp { target: 0 }, "jmp"),
            (Instr::Ret { s: NO_REG, w: 0 }, "ret"),
            (Instr::Trap, "trap"),
        ] {
            assert_eq!(MNEMONICS[instr.opcode() as usize], name);
            assert_eq!(instr.mnemonic(), name);
        }
    }

    #[test]
    fn func_ptr_roundtrip() {
        let id = FuncId(42);
        let bits = encode_func_ptr(id);
        assert_eq!(decode_func_ptr(bits), Some(id));
        assert_eq!(decode_func_ptr(42), None);
        assert_eq!(decode_func_ptr(0), None);
    }

    /// The shapes the dispatch loop's cost rests on.
    #[test]
    fn instructions_stay_small() {
        assert!(std::mem::size_of::<Instr>() <= 24);
    }

    fn load(code: Vec<Instr>, nslots: u16) -> Result<CompiledFunction, BytecodeError> {
        let ty = FuncTy {
            params: vec![],
            ret: Ty::Unit,
        };
        CompiledFunction::new("f", ty, nslots, 0, code)
    }

    #[test]
    fn validator_accepts_what_fits_and_names_what_does_not() {
        let ret = Instr::Ret { s: NO_REG, w: 0 };
        // A vector add needs four slots per operand.
        let vadd = Instr::VAddF64 { d: 8, a: 0, b: 4 };
        assert!(load(vec![vadd.clone(), ret.clone()], 12).is_ok());
        let err = load(vec![vadd, ret.clone()], 11).unwrap_err();
        assert!(err.message.contains("'vadd.f64' uses slots 8..12"), "{err}");
        assert!(err.to_string().contains("function 'f'"), "{err}");
        // Widths that travel in the instruction.
        let mov = |w| Instr::Mov { d: 4, a: 0, w };
        assert!(load(vec![mov(1), ret.clone()], 5).is_ok());
        assert!(load(vec![mov(4), ret.clone()], 7).is_err());
        let call = |args, nargs| Instr::Call {
            d: 0,
            w: 4,
            f: FuncId(0),
            args,
            nargs,
        };
        assert!(load(vec![call(4, 2), ret.clone()], 6).is_ok());
        assert!(load(vec![call(4, 3), ret.clone()], 6).is_err());
        // An empty argument block may start where the frame ends.
        assert!(load(vec![call(6, 0), ret.clone()], 6).is_ok());
        assert!(load(vec![Instr::Ret { s: 3, w: 4 }], 6).is_err());
        // The optional Lea index is an operand when present.
        let lea = |b| Instr::Lea {
            d: 0,
            a: 0,
            b,
            scale: 8,
            disp: 0,
        };
        assert!(load(vec![lea(NO_REG), ret.clone()], 1).is_ok());
        assert!(load(vec![lea(1), ret.clone()], 1).is_err());
    }

    #[test]
    fn validator_rejects_stray_control_flow_and_wide_vectors() {
        let ret = Instr::Ret { s: NO_REG, w: 0 };
        assert!(load(vec![], 0).is_err());
        assert!(load(vec![Instr::ConstI { d: 0, v: 0 }], 1).is_err());
        let br = |target| Instr::BrFalse { c: 0, target };
        assert!(load(vec![br(1), ret.clone()], 1).is_ok());
        let err = load(vec![br(2), ret.clone()], 1).unwrap_err();
        assert!(err.message.contains("jump out of the function"), "{err}");
        assert!(load(vec![ret.clone(), br(0)], 1).is_err());
        // A fused branch is checked like its two halves: both operands
        // inside the frame, the target inside the code.
        let fused = |a, b, target| Instr::BrLtS { a, b, target };
        assert!(load(vec![fused(0, 1, 1), ret.clone()], 2).is_ok());
        let err = load(vec![fused(0, 1, 2), ret.clone()], 2).unwrap_err();
        assert!(err.message.contains("jump out of the function"), "{err}");
        let err = load(vec![fused(0, 2, 1), ret.clone()], 2).unwrap_err();
        assert!(err.message.contains("'br.lt.s' uses slots 2..3"), "{err}");
        for (i, fused) in [
            Instr::BrEqI {
                a: 2,
                b: 0,
                target: 0,
            },
            Instr::BrNeI {
                a: 0,
                b: 2,
                target: 0,
            },
            Instr::BrLeS {
                a: 0,
                b: 0,
                target: 9,
            },
            Instr::BrLtU {
                a: 2,
                b: 0,
                target: 0,
            },
            Instr::BrLeU {
                a: 0,
                b: 0,
                target: 9,
            },
        ]
        .into_iter()
        .enumerate()
        {
            assert!(load(vec![fused, ret.clone()], 2).is_err(), "row {i}");
        }
        let wide = Instr::LoadV {
            d: 0,
            a: 0,
            bytes: 33,
            chk: true,
        };
        assert!(load(vec![wide, ret.clone()], 4).is_err());
        assert!(load(vec![ret], MAX_SLOTS + 1).is_err());
    }
}
