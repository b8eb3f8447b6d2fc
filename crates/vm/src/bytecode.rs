//! Register-machine bytecode.
//!
//! Each compiled Terra function is a flat instruction vector over 256-bit
//! registers (`[u64; 4]`): scalars live in lane 0, SIMD vectors use all
//! lanes (8×f32 or 4×f64 — the VM analogue of AVX). Jump targets are
//! absolute instruction indices.

use std::sync::Arc;
use terra_ir::{Builtin, FuncId, FuncTy};

/// A register index within a frame.
pub type Reg = u16;

/// Sentinel register meaning "no destination/source".
pub const NO_REG: Reg = u16::MAX;

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
    /// `d = imm` (f64 bits in lane 0).
    ConstF64 {
        /// Destination.
        d: Reg,
        /// Immediate value.
        v: f64,
    },
    /// `d = imm` (f32 bits in lane 0).
    ConstF32 {
        /// Destination.
        d: Reg,
        /// Immediate value.
        v: f32,
    },
    /// `d = a` (full 256-bit move).
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        a: Reg,
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
    },
    /// Load an unsigned 8-bit value.
    LoadU8 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load a signed 16-bit value.
    LoadI16 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load an unsigned 16-bit value.
    LoadU16 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load a signed 32-bit value.
    LoadI32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load an unsigned 32-bit value.
    LoadU32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load 64 bits (int/pointer).
    Load64 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load an f32.
    LoadF32 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Load an f64.
    LoadF64 {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
    },
    /// Store low 8 bits.
    Store8 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Store low 16 bits.
    Store16 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Store low 32 bits.
    Store32 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Store 64 bits.
    Store64 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Store an f32 (lane-0 f32 bits).
    StoreF32 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Store an f64.
    StoreF64 {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
    },
    /// Load `bytes` (8/16/32) into a vector register.
    LoadV {
        /// Destination.
        d: Reg,
        /// Address register.
        a: Reg,
        /// Bytes to load.
        bytes: u8,
    },
    /// Store the low `bytes` of a vector register.
    StoreV {
        /// Address register.
        a: Reg,
        /// Value register.
        s: Reg,
        /// Bytes to store.
        bytes: u8,
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
    /// Broadcast lane-0 f32 to all 8 lanes.
    SplatF32 {
        /// Destination.
        d: Reg,
        /// Source scalar.
        a: Reg,
    },
    /// Broadcast lane-0 f64 to all 4 lanes.
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
    /// Direct call: copies `nargs` registers starting at `args` into the
    /// callee frame; result (if any) lands in `d`.
    Call {
        /// Destination register or [`NO_REG`].
        d: Reg,
        /// Callee.
        f: FuncId,
        /// First argument register.
        args: Reg,
        /// Argument count.
        nargs: u16,
    },
    /// Indirect call through a function-pointer value.
    CallIndirect {
        /// Destination register or [`NO_REG`].
        d: Reg,
        /// Register holding the function pointer.
        f: Reg,
        /// First argument register.
        args: Reg,
        /// Argument count.
        nargs: u16,
    },
    /// Data-parallel loop: runs `f(i, extra...)` for every `i` in
    /// `[lo, hi)`, partitioned into deterministic chunks that may execute on
    /// worker threads (see `crate::parallel`). `nargs` captured extras start
    /// at `args`.
    ParFor {
        /// Kernel function (param 0 is the index).
        f: FuncId,
        /// Register holding the inclusive lower bound.
        lo: Reg,
        /// Register holding the exclusive upper bound.
        hi: Reg,
        /// First captured-argument register.
        args: Reg,
        /// Captured-argument count.
        nargs: u16,
    },
    /// Call a runtime builtin.
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
    },
    /// Unconditional trap (unreachable code, `abort`).
    Trap,
}

impl Instr {
    /// Whether this instruction performs a bounds-checked memory access —
    /// what the `checkelim` pass can mark check-free (rows tagged `mem`
    /// below). `Prefetch` is excluded: hints never trap, so carry no check.
    pub fn is_mem_access(&self) -> bool {
        MEM_ACCESS[self.opcode() as usize]
    }

    /// The instruction's mnemonic (its name in reports and counters).
    pub fn mnemonic(&self) -> &'static str {
        MNEMONICS[self.opcode() as usize]
    }
}

/// Declares the opcode numbering: one `Variant => "mnemonic"` row per
/// [`Instr`] variant, so [`Instr::opcode`] is the row's position and
/// [`MNEMONICS`] the name table profilers' dense counters are rendered by.
macro_rules! opcodes {
    (@mem mem) => { true };
    (@mem) => { false };
    ($($variant:ident => $name:literal $($mem:ident)?,)*) => {
        #[repr(u8)]
        enum Opcode { $($variant),* }

        /// Mnemonic of every opcode, indexed by [`Instr::opcode`].
        pub const MNEMONICS: [&str; N_OPCODES] = [$($name),*];

        const MEM_ACCESS: [bool; N_OPCODES] = [$(opcodes!(@mem $($mem)?)),*];

        impl Instr {
            /// Dense opcode index of this instruction (`< N_OPCODES`).
            #[inline]
            pub fn opcode(&self) -> u8 {
                match self { $(Instr::$variant { .. } => Opcode::$variant as u8,)* }
            }
        }
    };
}

/// Number of distinct opcodes ([`Instr`] variants).
pub const N_OPCODES: usize = 106;

opcodes! {
    ConstI => "const.i",
    ConstF64 => "const.f64",
    ConstF32 => "const.f32",
    Mov => "mov",
    AddI => "add.i",
    SubI => "sub.i",
    MulI => "mul.i",
    DivS => "div.s",
    DivU => "div.u",
    RemS => "rem.s",
    RemU => "rem.u",
    Shl => "shl",
    ShrS => "shr.s",
    ShrU => "shr.u",
    And => "and",
    Or => "or",
    Xor => "xor",
    MinS => "min.s",
    MaxS => "max.s",
    NegI => "neg.i",
    NotI => "not.i",
    NotB => "not.b",
    Trunc => "trunc",
    Lea => "lea",
    AddF64 => "add.f64",
    SubF64 => "sub.f64",
    MulF64 => "mul.f64",
    DivF64 => "div.f64",
    MinF64 => "min.f64",
    MaxF64 => "max.f64",
    NegF64 => "neg.f64",
    AddF32 => "add.f32",
    SubF32 => "sub.f32",
    MulF32 => "mul.f32",
    DivF32 => "div.f32",
    MinF32 => "min.f32",
    MaxF32 => "max.f32",
    NegF32 => "neg.f32",
    CmpEqI => "cmp.eq.i",
    CmpNeI => "cmp.ne.i",
    CmpLtS => "cmp.lt.s",
    CmpLeS => "cmp.le.s",
    CmpLtU => "cmp.lt.u",
    CmpLeU => "cmp.le.u",
    CmpEqF64 => "cmp.eq.f64",
    CmpNeF64 => "cmp.ne.f64",
    CmpLtF64 => "cmp.lt.f64",
    CmpLeF64 => "cmp.le.f64",
    CmpEqF32 => "cmp.eq.f32",
    CmpNeF32 => "cmp.ne.f32",
    CmpLtF32 => "cmp.lt.f32",
    CmpLeF32 => "cmp.le.f32",
    CvtSToF64 => "cvt.s.f64",
    CvtSToF32 => "cvt.s.f32",
    CvtUToF64 => "cvt.u.f64",
    CvtUToF32 => "cvt.u.f32",
    CvtF64ToS => "cvt.f64.s",
    CvtF64ToU => "cvt.f64.u",
    CvtF32ToS => "cvt.f32.s",
    CvtF32ToF64 => "cvt.f32.f64",
    CvtF64ToF32 => "cvt.f64.f32",
    LoadI8 => "load.i8" mem,
    LoadU8 => "load.u8" mem,
    LoadI16 => "load.i16" mem,
    LoadU16 => "load.u16" mem,
    LoadI32 => "load.i32" mem,
    LoadU32 => "load.u32" mem,
    Load64 => "load.64" mem,
    LoadF32 => "load.f32" mem,
    LoadF64 => "load.f64" mem,
    Store8 => "store.8" mem,
    Store16 => "store.16" mem,
    Store32 => "store.32" mem,
    Store64 => "store.64" mem,
    StoreF32 => "store.f32" mem,
    StoreF64 => "store.f64" mem,
    LoadV => "load.v" mem,
    StoreV => "store.v" mem,
    FrameAddr => "frame.addr",
    CopyMem => "copy.mem" mem,
    Prefetch => "prefetch",
    VAddF32 => "vadd.f32",
    VSubF32 => "vsub.f32",
    VMulF32 => "vmul.f32",
    VDivF32 => "vdiv.f32",
    VMinF32 => "vmin.f32",
    VMaxF32 => "vmax.f32",
    VAddF64 => "vadd.f64",
    VSubF64 => "vsub.f64",
    VMulF64 => "vmul.f64",
    VDivF64 => "vdiv.f64",
    VMinF64 => "vmin.f64",
    VMaxF64 => "vmax.f64",
    VFmaF32 => "vfma.f32",
    VFmaF64 => "vfma.f64",
    SplatF32 => "splat.f32",
    SplatF64 => "splat.f64",
    Jmp => "jmp",
    BrFalse => "br.false",
    BrTrue => "br.true",
    Call => "call",
    CallIndirect => "call.indirect",
    ParFor => "par.for",
    CallBuiltin => "call.builtin",
    Ret => "ret",
    Trap => "trap",
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

/// A fully compiled Terra function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Name for diagnostics.
    pub name: Arc<str>,
    /// Signature.
    pub ty: FuncTy,
    /// Number of registers the frame needs (params occupy `0..nparams`).
    pub nregs: u16,
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
    /// Per-instruction check-elision flags (parallel to `code`; may be
    /// empty = all checked). `true` means the mid-end proved the memory
    /// access at that pc in-bounds and the VM may skip its bounds check.
    /// Ignored under `--sanitize`.
    pub nochk: Vec<bool>,
}

impl CompiledFunction {
    /// The source line of the instruction at `pc` (0 when unknown or when
    /// the function carries no debug info).
    #[inline]
    pub fn line_at(&self, pc: usize) -> u32 {
        self.lines.get(pc).copied().unwrap_or(0)
    }

    /// Whether the memory access at `pc` was proven in-bounds by the
    /// mid-end and may run without its runtime check.
    #[inline]
    pub fn check_free(&self, pc: usize) -> bool {
        self.nochk.get(pc).copied().unwrap_or(false)
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
pub(crate) fn compiled(name: &str, ty: FuncTy, nregs: u16, code: Vec<Instr>) -> CompiledFunction {
    CompiledFunction {
        name: name.into(),
        ty,
        nregs,
        provs: Vec::new(),
        prov_table: Vec::new(),
        frame_size: 0,
        code,
        lines: Vec::new(),
        nochk: Vec::new(),
    }
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
        // 9 scalar loads, 6 scalar stores, 2 vector transfers, `copy.mem`.
        assert_eq!(MEM_ACCESS.iter().filter(|m| **m).count(), 18);
        assert!(Instr::CopyMem {
            dst: 0,
            src: 0,
            size: 0
        }
        .is_mem_access());
        assert!(!Instr::Prefetch { a: 0 }.is_mem_access());
        for (instr, name) in [
            (Instr::LoadF64 { d: 0, a: 0 }, "load.f64"),
            (Instr::Jmp { target: 0 }, "jmp"),
            (Instr::Ret { s: NO_REG }, "ret"),
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
}
