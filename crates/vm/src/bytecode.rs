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
    /// The tag of narrow integer type `s`; `None` for every other type.
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

/// Declares the instruction set, one row per instruction, in opcode order:
///
/// ```text
/// /// doc
/// Variant = "mnemonic" { regs } at m var { reg*width, .. } imm { field: Type, .. } @chk;
/// ```
///
/// `{ regs }` are the register operands of fixed shape (`r` one slot, `r*4`
/// a vector); `at m` is an address operand, the [`Addr`] field `m`; `var`
/// registers may be [`NO_REG`] and are as wide as the literal or `imm` field
/// after the `*`; `imm` are the fields that are not registers, and one named
/// `target` is a jump target; `@chk` marks a bounds-checkable memory access
/// and adds its `chk: bool`. A row without braces is a unit variant.
///
/// The rows *are* [`Instr`]: the enum, its dense [`Instr::opcode`]
/// numbering, [`MNEMONICS`] (the names profilers' counters are rendered by),
/// [`N_OPCODES`], [`Instr::chk`], and the operand and jump-target walks the
/// load-time validator runs and the one-line rendering `f:disas()` prints
/// ([`fmt::Display`]) are all generated from them, so an instruction is this
/// row, its dispatch arm in `machine.rs` and its emitter in `compile.rs`.
macro_rules! opcodes {
    (@w) => { 1 };
    (@w $w:literal) => { $w };
    (@w $w:ident) => { u16::from($w) };
    (@jump $instr:expr, $variant:ident target) => {
        if let Instr::$variant { target, .. } = $instr {
            return Some(target);
        }
    };
    (@jump $instr:expr, $variant:ident $imm:ident) => {};
    (@imm target $v:expr) => { Operand::Target(*$v) };
    (@imm $imm:ident $v:expr) => { Operand::Imm(stringify!($imm), $v) };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal $(
            { $($r:ident $(* $w:literal)?),* }
            $(at $m:ident)?
            $(var { $($v:ident * $vw:tt),* })?
            $(imm { $($i:ident : $ity:ty),* })?
            $(@ $chk:ident)?
        )?;
    )*) => {
        /// One bytecode instruction. `d` is the destination register, `a`/`b`
        /// the operands; memory instructions access the address `m` and store
        /// the value in `s`.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Instr {
            $(
                $(#[$doc])*
                $variant $({
                    $(#[doc = "Register operand."] $r: Reg,)*
                    $(#[doc = "Address operand."] $m: Addr,)?
                    $($(#[doc = "Register operand, or [`NO_REG`] for none."] $v: Reg,)*)?
                    $($(#[doc = "Immediate."] $i: $ity,)*)?
                    $(#[doc = "Bounds-checked (see [`Instr::chk`])?"] $chk: bool,)?
                })?,
            )*
        }

        #[repr(u8)]
        enum Opcode { $($variant),* }

        /// Number of distinct opcodes ([`Instr`] variants).
        pub const N_OPCODES: usize = [$($name),*].len();

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
                    $($($(Instr::$variant { $chk, .. } => Some($chk),)?)?)*
                    _ => None,
                }
            }

            /// Calls `visit(first slot, slots)` for every register operand
            /// that is present.
            #[allow(unused_variables)]
            fn operands(&self, mut visit: impl FnMut(Reg, u16)) {
                match *self {
                    $(Instr::$variant { $($($r,)* $($m,)? $($($v,)*)? $($($i,)*)?)? .. } => {
                        $($(visit($r, opcodes!(@w $($w)?));)*)?
                        $($(
                            visit($m.a, 1);
                            if $m.b != NO_REG {
                                visit($m.b, 1);
                            }
                        )?)?
                        $($($(if $v != NO_REG {
                            visit($v, opcodes!(@w $vw));
                        })*)?)?
                    })*
                }
            }

            /// The instruction's jump target, if it has one.
            pub(crate) fn target(&self) -> Option<u32> {
                $($($($(opcodes!(@jump *self, $variant $i);)*)?)?)*
                None
            }

            /// The instruction's jump target, for the compiler to patch.
            pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
                $($($($(opcodes!(@jump self, $variant $i);)*)?)?)*
                None
            }
        }

        /// One line of disassembly: the mnemonic (with a `!` when the access
        /// is bounds-checked), then the operands in row order — registers as
        /// `rN` (`-` for none), an address as `[r3 + r9*8 + 16]`, immediates
        /// as `name=value`, a jump target as `-> pc`.
        impl fmt::Display for Instr {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Instr::$variant $({
                        $($r,)* $($m,)? $($($v,)*)? $($($i,)*)? $($chk,)?
                    })? => disassemble(f, $name, false $($(|| *$chk)?)?, &[$(
                        $(Operand::Reg(*$r),)*
                        $(Operand::At(*$m),)?
                        $($(Operand::Reg(*$v),)*)?
                        $($(opcodes!(@imm $i $i),)*)?
                    )?]),)*
                }
            }
        }
    };
}

opcodes! {
    // -- constants / moves
    /// `d = imm` (integer/pointer/bool bit pattern).
    ConstI = "const.i" { d } imm { v: i64 };
    /// `d = imm` (f64 bits).
    ConstF64 = "const.f64" { d } imm { v: f64 };
    /// `d = imm` (f32 bits in the slot's low half).
    ConstF32 = "const.f32" { d } imm { v: f32 };
    /// `d = a`, `w` slots wide (1, or [`VECTOR_SLOTS`]).
    Mov = "mov" {} var { d*w, a*w } imm { w: u8 };

    // -- integer arithmetic (64-bit, canonical-extended operands)
    /// `d = a + b` (wrapping).
    AddI = "add.i" { d, a, b };
    /// `d = a - b` (wrapping).
    SubI = "sub.i" { d, a, b };
    /// `d = a * b` (wrapping).
    MulI = "mul.i" { d, a, b };
    /// Signed division (traps on divide-by-zero).
    DivS = "div.s" { d, a, b };
    /// Unsigned division (traps on divide-by-zero).
    DivU = "div.u" { d, a, b };
    /// Signed remainder.
    RemS = "rem.s" { d, a, b };
    /// Unsigned remainder.
    RemU = "rem.u" { d, a, b };
    /// `d = a << b`.
    Shl = "shl" { d, a, b };
    /// `add.i` and `trunc w=I32` in one instruction (and so the next three).
    AddI32 = "add.i32" { d, a, b };
    /// `sub.i` wrapped to `int32`.
    SubI32 = "sub.i32" { d, a, b };
    /// `mul.i` wrapped to `int32`.
    MulI32 = "mul.i32" { d, a, b };
    /// `shl` wrapped to `int32`.
    ShlI32 = "shl.i32" { d, a, b };
    /// Arithmetic shift right.
    ShrS = "shr.s" { d, a, b };
    /// Logical shift right.
    ShrU = "shr.u" { d, a, b };
    /// Bitwise and.
    And = "and" { d, a, b };
    /// Bitwise or.
    Or = "or" { d, a, b };
    /// Bitwise xor.
    Xor = "xor" { d, a, b };
    /// Signed integer min.
    MinS = "min.s" { d, a, b };
    /// Signed integer max.
    MaxS = "max.s" { d, a, b };
    /// `d = -a` (wrapping).
    NegI = "neg.i" { d, a };
    /// `d = !a` (bitwise).
    NotI = "not.i" { d, a };
    /// Boolean not (`0/1`).
    NotB = "not.b" { d, a };
    /// Re-canonicalizes a narrow integer after arithmetic.
    Trunc = "trunc" { d, a } imm { w: IntWidth };
    /// `d = m` — an address that is itself a value (stored, passed, compared,
    /// hoisted).
    Lea = "lea" { d } at m;

    // -- floating arithmetic
    /// f64 add.
    AddF64 = "add.f64" { d, a, b };
    /// f64 subtract.
    SubF64 = "sub.f64" { d, a, b };
    /// f64 multiply.
    MulF64 = "mul.f64" { d, a, b };
    /// f64 divide.
    DivF64 = "div.f64" { d, a, b };
    /// f64 min.
    MinF64 = "min.f64" { d, a, b };
    /// f64 max.
    MaxF64 = "max.f64" { d, a, b };
    /// f64 negate.
    NegF64 = "neg.f64" { d, a };
    /// f32 add.
    AddF32 = "add.f32" { d, a, b };
    /// f32 subtract.
    SubF32 = "sub.f32" { d, a, b };
    /// f32 multiply.
    MulF32 = "mul.f32" { d, a, b };
    /// f32 divide.
    DivF32 = "div.f32" { d, a, b };
    /// f32 min.
    MinF32 = "min.f32" { d, a, b };
    /// f32 max.
    MaxF32 = "max.f32" { d, a, b };
    /// f32 negate.
    NegF32 = "neg.f32" { d, a };

    // -- comparisons (produce 0/1)
    /// Integer equality.
    CmpEqI = "cmp.eq.i" { d, a, b };
    /// Integer inequality.
    CmpNeI = "cmp.ne.i" { d, a, b };
    /// Signed less-than.
    CmpLtS = "cmp.lt.s" { d, a, b };
    /// Signed less-or-equal.
    CmpLeS = "cmp.le.s" { d, a, b };
    /// Unsigned less-than.
    CmpLtU = "cmp.lt.u" { d, a, b };
    /// Unsigned less-or-equal.
    CmpLeU = "cmp.le.u" { d, a, b };
    /// f64 compare.
    CmpEqF64 = "cmp.eq.f64" { d, a, b };
    /// f64 not-equal.
    CmpNeF64 = "cmp.ne.f64" { d, a, b };
    /// f64 less-than.
    CmpLtF64 = "cmp.lt.f64" { d, a, b };
    /// f64 less-or-equal.
    CmpLeF64 = "cmp.le.f64" { d, a, b };
    /// f32 compare.
    CmpEqF32 = "cmp.eq.f32" { d, a, b };
    /// f32 not-equal.
    CmpNeF32 = "cmp.ne.f32" { d, a, b };
    /// f32 less-than.
    CmpLtF32 = "cmp.lt.f32" { d, a, b };
    /// f32 less-or-equal.
    CmpLeF32 = "cmp.le.f32" { d, a, b };

    // -- conversions
    /// Signed int → f64.
    CvtSToF64 = "cvt.s.f64" { d, a };
    /// Signed int → f32.
    CvtSToF32 = "cvt.s.f32" { d, a };
    /// Unsigned int → f64.
    CvtUToF64 = "cvt.u.f64" { d, a };
    /// Unsigned int → f32.
    CvtUToF32 = "cvt.u.f32" { d, a };
    /// f64 → signed int (truncating).
    CvtF64ToS = "cvt.f64.s" { d, a };
    /// f64 → unsigned int (truncating).
    CvtF64ToU = "cvt.f64.u" { d, a };
    /// f32 → signed int (truncating).
    CvtF32ToS = "cvt.f32.s" { d, a };
    /// f32 → f64.
    CvtF32ToF64 = "cvt.f32.f64" { d, a };
    /// f64 → f32.
    CvtF64ToF32 = "cvt.f64.f32" { d, a };

    // -- memory: loads and stores compute their own address, as `lea` does
    /// Load a signed 8-bit value.
    LoadI8 = "load.i8" { d } at m @chk;
    /// Load an unsigned 8-bit value.
    LoadU8 = "load.u8" { d } at m @chk;
    /// Load a signed 16-bit value.
    LoadI16 = "load.i16" { d } at m @chk;
    /// Load an unsigned 16-bit value.
    LoadU16 = "load.u16" { d } at m @chk;
    /// Load a signed 32-bit value.
    LoadI32 = "load.i32" { d } at m @chk;
    /// Load an unsigned 32-bit value.
    LoadU32 = "load.u32" { d } at m @chk;
    /// Load 64 bits (int/pointer).
    Load64 = "load.64" { d } at m @chk;
    /// Load an f32.
    LoadF32 = "load.f32" { d } at m @chk;
    /// Load an f64.
    LoadF64 = "load.f64" { d } at m @chk;
    /// Store low 8 bits.
    Store8 = "store.8" { s } at m @chk;
    /// Store low 16 bits.
    Store16 = "store.16" { s } at m @chk;
    /// Store low 32 bits.
    Store32 = "store.32" { s } at m @chk;
    /// Store 64 bits.
    Store64 = "store.64" { s } at m @chk;
    /// Store an f32 (the slot's low 32 bits).
    StoreF32 = "store.f32" { s } at m @chk;
    /// Store an f64.
    StoreF64 = "store.f64" { s } at m @chk;
    /// Load `bytes` (≤ 32) into a vector register, zeroing the rest.
    LoadV = "load.v" { d*4 } at m imm { bytes: u8 } @chk;
    /// Store the low `bytes` of a vector register.
    StoreV = "store.v" { s*4 } at m imm { bytes: u8 } @chk;
    /// Load an f32 and broadcast it to all 8 lanes.
    LoadSplatF32 = "load.splat.f32" { d*4 } at m @chk;
    /// Load an f64 and broadcast it to all 4 lanes.
    LoadSplatF64 = "load.splat.f64" { d*4 } at m @chk;
    /// Frame-slot address: `d = frame_base + offset` (bytes).
    FrameAddr = "frame.addr" { d } imm { offset: u32 };
    /// `memcpy(dst, src, size)` between the addresses in `dst` and `src`, with
    /// a constant size.
    CopyMem = "copy.mem" { dst, src } imm { size: u32 } @chk;
    /// Prefetch the cache line at `m`.
    Prefetch = "prefetch" {} at m;

    // -- vectors (f32 uses 8 lanes, f64 uses 4)
    /// Lane-wise f32 add.
    VAddF32 = "vadd.f32" { d*4, a*4, b*4 };
    /// Lane-wise f32 subtract.
    VSubF32 = "vsub.f32" { d*4, a*4, b*4 };
    /// Lane-wise f32 multiply.
    VMulF32 = "vmul.f32" { d*4, a*4, b*4 };
    /// Lane-wise f32 divide.
    VDivF32 = "vdiv.f32" { d*4, a*4, b*4 };
    /// Lane-wise f32 min.
    VMinF32 = "vmin.f32" { d*4, a*4, b*4 };
    /// Lane-wise f32 max.
    VMaxF32 = "vmax.f32" { d*4, a*4, b*4 };
    /// Lane-wise f64 add.
    VAddF64 = "vadd.f64" { d*4, a*4, b*4 };
    /// Lane-wise f64 subtract.
    VSubF64 = "vsub.f64" { d*4, a*4, b*4 };
    /// Lane-wise f64 multiply.
    VMulF64 = "vmul.f64" { d*4, a*4, b*4 };
    /// Lane-wise f64 divide.
    VDivF64 = "vdiv.f64" { d*4, a*4, b*4 };
    /// Lane-wise f64 min.
    VMinF64 = "vmin.f64" { d*4, a*4, b*4 };
    /// Lane-wise f64 max.
    VMaxF64 = "vmax.f64" { d*4, a*4, b*4 };
    /// Fused multiply-add `d = a*b + d` on f32 lanes (kernel hot path).
    VFmaF32 = "vfma.f32" { d*4, a*4, b*4 };
    /// Fused multiply-add `d = a*b + d` on f64 lanes.
    VFmaF64 = "vfma.f64" { d*4, a*4, b*4 };
    /// Broadcast a scalar f32 to all 8 lanes.
    SplatF32 = "splat.f32" { d*4, a };
    /// Broadcast a scalar f64 to all 4 lanes.
    SplatF64 = "splat.f64" { d*4, a };

    // -- control flow
    /// Unconditional jump.
    Jmp = "jmp" {} imm { target: u32 };
    /// Jump when the register is zero/false.
    BrFalse = "br.false" { c } imm { target: u32 };
    /// Jump when the register is nonzero/true.
    BrTrue = "br.true" { c } imm { target: u32 };
    /// Jump when `a == b` (integers, pointers, bools).
    BrEqI = "br.eq.i" { a, b } imm { target: u32 };
    /// Jump when `a != b`.
    BrNeI = "br.ne.i" { a, b } imm { target: u32 };
    /// Jump when `a < b`, signed.
    BrLtS = "br.lt.s" { a, b } imm { target: u32 };
    /// Jump when `a <= b`, signed.
    BrLeS = "br.le.s" { a, b } imm { target: u32 };
    /// Jump when `a < b`, unsigned.
    BrLtU = "br.lt.u" { a, b } imm { target: u32 };
    /// Jump when `a <= b`, unsigned.
    BrLeU = "br.le.u" { a, b } imm { target: u32 };
    /// The back edge of a counted loop: `var += step` (wrapping), then jump
    /// when `var < stop`, signed.
    LoopLtS = "loop.lt.s" { var, step, stop } imm { target: u32 };
    /// Direct call of `f`: the callee's frame starts at `args`, so the `nargs`
    /// slots there are its parameters (at the prefix sums of their widths)
    /// and nothing is copied; the `w`-slot result lands in `d`, and without
    /// one `d` is [`NO_REG`] and `w` 0.
    Call = "call" {} var { d*w, args*nargs } imm { w: u8, f: FuncId, nargs: u16 };
    /// Indirect call through the function-pointer value in `f`; the rest as
    /// [`Instr::Call`].
    CallIndirect = "call.indirect" { f } var { d*w, args*nargs } imm { w: u8, nargs: u16 };
    /// Data-parallel loop: runs kernel `f(i, extra...)` for every `i` in
    /// `[lo, hi)`, partitioned into deterministic chunks that may execute on
    /// worker threads (see `crate::parallel`). The `nargs` slots of captured
    /// extras start at `args`.
    ParFor = "par.for" { lo, hi } var { args*nargs } imm { f: FuncId, nargs: u16 };
    /// Call runtime builtin `b` on the `nargs` scalar arguments starting at
    /// `args`; a scalar result lands in `d`.
    CallBuiltin = "call.builtin" {} var { d*1, args*nargs } imm { b: Builtin, nargs: u16 };
    /// Return the `w` slots starting at `s` ([`NO_REG`] and 0 for no result).
    Ret = "ret" {} var { s*w } imm { w: u8 };
    /// Unconditional trap (unreachable code, `abort`).
    Trap = "trap";
}

/// An operand of an instruction being disassembled.
enum Operand<'a> {
    Reg(Reg),
    At(Addr),
    Imm(&'static str, &'a dyn fmt::Debug),
    Target(u32),
}

/// What [`Instr`]'s `Display` writes: one function for every row, so that a
/// row costs an array of operands and not its own formatting code.
fn disassemble(f: &mut fmt::Formatter<'_>, name: &str, chk: bool, ops: &[Operand]) -> fmt::Result {
    write!(f, "{name}{}", if chk { "!" } else { "" })?;
    let mut sep = " ";
    for operand in ops {
        match operand {
            Operand::Reg(NO_REG) => write!(f, "{sep}-")?,
            Operand::Reg(r) => write!(f, "{sep}r{r}")?,
            Operand::At(m) => write!(f, "{sep}{m}")?,
            Operand::Imm(field, v) => write!(f, "{sep}{field}={v:?}")?,
            Operand::Target(pc) => write!(f, " -> {pc}")?,
        }
        sep = ", ";
    }
    Ok(())
}

/// An address operand, `a + b*scale + disp` in wrapping 64-bit arithmetic:
/// what `lea` computes and every load and store accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Addr {
    /// Base register.
    pub a: Reg,
    /// Index register, or [`NO_REG`] for none.
    pub b: Reg,
    /// What the index is multiplied by.
    pub scale: i32,
    /// Constant byte displacement.
    pub disp: i64,
}

impl Addr {
    /// The address held in register `a`.
    pub fn reg(a: Reg) -> Addr {
        Addr {
            a,
            b: NO_REG,
            scale: 1,
            disp: 0,
        }
    }
}

/// `[r3 + r9*8 + 16]`; an absent index and a zero displacement are left out.
impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[r{}", self.a)?;
        if self.b != NO_REG {
            write!(f, " + r{}*{}", self.b, self.scale)?;
        }
        let sign = if self.disp < 0 { '-' } else { '+' };
        match self.disp {
            0 => f.write_str("]"),
            d => write!(f, " {sign} {}]", d.unsigned_abs()),
        }
    }
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
    let tagged = bits & 0xFFFF_0000_0000_0000 == FUNC_PTR_TAG;
    tagged.then_some(FuncId((bits & 0xFFFF_FFFF) as u32))
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
    /// Slots a call zeroes, from the last argument up: the parameters' and
    /// register locals' (a temporary is written before it is read).
    pub(crate) zeroed: u16,
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
                let (op, end) = (instr.mnemonic(), u32::from(r) + u32::from(w));
                let what = format!("'{op}' uses slots {r}..{end} of a {nslots}-slot frame");
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
            zeroed: nslots,
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

    /// Where the instruction at `pc` came from: the VM's one constructor of
    /// a [`Site`](terra_trace::Site). The chain is there if the instruction
    /// arrived through a splice or the inliner; both handles are interned,
    /// so building one moves two reference counts.
    pub fn site_at(&self, pc: usize) -> terra_trace::Site {
        let idx = self.provs.get(pc).copied().unwrap_or(0);
        let chain = idx
            .checked_sub(1)
            .and_then(|i| self.prov_table.get(i as usize));
        terra_trace::Site {
            func: self.name.clone(),
            line: self.line_at(pc),
            chain: chain.cloned(),
        }
    }
}

#[cfg(test)]
/// A function with no debug info and no frame memory, for unit tests.
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
        assert_eq!(N_OPCODES, MNEMONICS.len());
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
        assert!(!Instr::Prefetch { m: Addr::reg(0) }.is_mem_access());
        for (instr, name) in [
            (
                Instr::LoadF64 {
                    d: 0,
                    m: Addr::reg(0),
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

    /// One line per instruction, generated from the rows: what `f:disas()`
    /// prints.
    #[test]
    fn instructions_display_as_one_line_of_disassembly() {
        let at = |b, scale, disp| Addr {
            a: 3,
            b,
            scale,
            disp,
        };
        let load = |m, chk| Instr::LoadF64 { d: 5, m, chk };
        for (instr, text) in [
            (Instr::ConstI { d: 1, v: -7 }, "const.i r1, v=-7"),
            (Instr::AddF64 { d: 2, a: 0, b: 1 }, "add.f64 r2, r0, r1"),
            (load(Addr::reg(3), false), "load.f64 r5, [r3]"),
            (load(at(9, 8, 16), true), "load.f64! r5, [r3 + r9*8 + 16]"),
            (load(at(NO_REG, 1, -4), false), "load.f64 r5, [r3 - 4]"),
            (
                Instr::Store8 {
                    m: at(9, -2, 0),
                    s: 4,
                    chk: true,
                },
                "store.8! r4, [r3 + r9*-2]",
            ),
            (
                Instr::Lea {
                    d: 0,
                    m: at(1, 4, i64::MIN),
                },
                "lea r0, [r3 + r1*4 - 9223372036854775808]",
            ),
            (
                Instr::LoopLtS {
                    var: 7,
                    step: 14,
                    stop: 13,
                    target: 33,
                },
                "loop.lt.s r7, r14, r13 -> 33",
            ),
            (
                Instr::Prefetch { m: at(154, 1, 0) },
                "prefetch [r3 + r154*1]",
            ),
            (
                Instr::LoadSplatF64 {
                    d: 105,
                    m: Addr::reg(0),
                    chk: true,
                },
                "load.splat.f64! r105, [r0]",
            ),
            (
                Instr::LoadSplatF32 {
                    d: 8,
                    m: at(NO_REG, 1, 4),
                    chk: false,
                },
                "load.splat.f32 r8, [r3 + 4]",
            ),
            (Instr::Jmp { target: 4 }, "jmp -> 4"),
            (
                Instr::Trunc {
                    d: 1,
                    a: 1,
                    w: IntWidth::U8,
                },
                "trunc r1, r1, w=U8",
            ),
            (
                Instr::CallBuiltin {
                    d: NO_REG,
                    b: Builtin::Free,
                    args: 12,
                    nargs: 1,
                },
                "call.builtin -, r12, b=Free, nargs=1",
            ),
            (Instr::Ret { s: NO_REG, w: 0 }, "ret -, w=0"),
            (Instr::Trap, "trap"),
        ] {
            assert_eq!(instr.to_string(), text);
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
        assert_eq!(std::mem::size_of::<Instr>(), 24);
    }

    /// The loop's error type carries no site (two `Arc`s fewer to move and
    /// drop on every `?`), and an unobserved run's observer is nothing.
    #[test]
    fn the_loops_error_and_the_idle_observer_stay_small() {
        assert!(std::mem::size_of::<crate::TrapKind>() <= 40);
        assert_eq!(std::mem::size_of::<crate::observer::NoObserver>(), 0);
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
        let builtin = |d, nargs| Instr::CallBuiltin {
            d,
            b: Builtin::Pow,
            args: 4,
            nargs,
        };
        assert!(load(vec![builtin(NO_REG, 2), ret.clone()], 6).is_ok());
        assert!(load(vec![builtin(6, 2), ret.clone()], 6).is_err());
        assert!(load(vec![builtin(0, 3), ret.clone()], 6).is_err());
        let parfor = |hi, nargs| Instr::ParFor {
            f: FuncId(0),
            lo: 0,
            hi,
            args: 2,
            nargs,
        };
        assert!(load(vec![parfor(1, 4), ret.clone()], 6).is_ok());
        assert!(load(vec![parfor(6, 4), ret.clone()], 6).is_err());
        assert!(load(vec![parfor(1, 5), ret.clone()], 6).is_err());
        // The optional index of an address is an operand when present, of
        // a `lea`, of a memory access and of a hint alike.
        let indexed = |b| {
            let m = Addr {
                b,
                scale: 8,
                ..Addr::reg(0)
            };
            let store = Instr::Store8 { m, s: 0, chk: true };
            [Instr::Lea { d: 0, m }, store, Instr::Prefetch { m }]
        };
        for (bare, with_index) in indexed(NO_REG).into_iter().zip(indexed(1)) {
            assert!(load(vec![bare, ret.clone()], 1).is_ok());
            assert!(load(vec![with_index, ret.clone()], 1).is_err());
        }
        // A broadcast load fills a vector register.
        let splat = |d| Instr::LoadSplatF64 {
            d,
            m: Addr::reg(0),
            chk: true,
        };
        assert!(load(vec![splat(1), ret.clone()], 5).is_ok());
        assert!(load(vec![splat(2), ret.clone()], 5).is_err());
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
            Instr::LoopLtS {
                var: 0,
                step: 0,
                stop: 2,
                target: 0,
            },
            Instr::LoopLtS {
                var: 0,
                step: 1,
                stop: 1,
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
            m: Addr::reg(0),
            bytes: 33,
            chk: true,
        };
        assert!(load(vec![wide, ret.clone()], 4).is_err());
        assert!(load(vec![ret], MAX_SLOTS + 1).is_err());
    }
}
