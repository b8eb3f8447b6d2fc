//! The Terra type system.
//!
//! Terra is a low-level monomorphic language: its types mirror C's (base
//! types, pointers, arrays, nominally-typed structs, function pointers) plus
//! fixed-length SIMD vectors (`vector(float, 8)`). Struct layouts live in a
//! [`TypeRegistry`]; a [`StructId`] is a stable handle, which is what makes
//! the paper's *type reflection* possible — the registry can be inspected and
//! extended from the meta-language while Terra code is being staged.

use std::fmt;
use std::sync::Arc;

/// Scalar machine types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    /// `bool` (1 byte).
    Bool,
    /// `int8`
    I8,
    /// `int16`
    I16,
    /// `int` / `int32`
    I32,
    /// `int64`
    I64,
    /// `uint8`
    U8,
    /// `uint16`
    U16,
    /// `uint` / `uint32`
    U32,
    /// `uint64` (also `size_t` in the simulated libc)
    U64,
    /// `float`
    F32,
    /// `double`
    F64,
}

impl ScalarTy {
    /// Size in bytes.
    pub fn size(self) -> u64 {
        match self {
            ScalarTy::Bool | ScalarTy::I8 | ScalarTy::U8 => 1,
            ScalarTy::I16 | ScalarTy::U16 => 2,
            ScalarTy::I32 | ScalarTy::U32 | ScalarTy::F32 => 4,
            ScalarTy::I64 | ScalarTy::U64 | ScalarTy::F64 => 8,
        }
    }

    /// Whether this is a (signed or unsigned) integer type.
    pub fn is_integer(self) -> bool {
        !matches!(self, ScalarTy::F32 | ScalarTy::F64 | ScalarTy::Bool)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }

    /// Whether this is a signed integer type.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarTy::I8 | ScalarTy::I16 | ScalarTy::I32 | ScalarTy::I64
        )
    }

    /// `v` wrapped into this type and sign- or zero-extended back to 64
    /// bits: the canonical form a VM register holds an integer of this type
    /// in, and the value the constant folder computes with. 64-bit and
    /// non-integer types keep their bits.
    pub fn canonical(self, v: i64) -> i64 {
        match self {
            ScalarTy::I8 => v as i8 as i64,
            ScalarTy::U8 => v as u8 as i64,
            ScalarTy::I16 => v as i16 as i64,
            ScalarTy::U16 => v as u16 as i64,
            ScalarTy::I32 => v as i32 as i64,
            ScalarTy::U32 => v as u32 as i64,
            _ => v,
        }
    }

    /// Whether converting a `bool` or integer of this type to integer type
    /// `to` changes no bit of its canonical register form (the value sign-
    /// or zero-extended to 64 bits): `to` is 64 bits wide, or the same type,
    /// or wider without turning a sign extension into a zero extension.
    pub fn widens_to(self, to: ScalarTy) -> bool {
        self == ScalarTy::Bool
            || self == to
            || to.size() == 8
            || (to.size() > self.size() && (to.is_signed() || !self.is_signed()))
    }

    /// Rank used for C-style implicit arithmetic conversions; higher ranks
    /// win when unifying the operand types of an arithmetic operator.
    pub fn conversion_rank(self) -> u8 {
        match self {
            ScalarTy::Bool => 0,
            ScalarTy::I8 => 1,
            ScalarTy::U8 => 2,
            ScalarTy::I16 => 3,
            ScalarTy::U16 => 4,
            ScalarTy::I32 => 5,
            ScalarTy::U32 => 6,
            ScalarTy::I64 => 7,
            ScalarTy::U64 => 8,
            ScalarTy::F32 => 9,
            ScalarTy::F64 => 10,
        }
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarTy::Bool => "bool",
            ScalarTy::I8 => "int8",
            ScalarTy::I16 => "int16",
            ScalarTy::I32 => "int",
            ScalarTy::I64 => "int64",
            ScalarTy::U8 => "uint8",
            ScalarTy::U16 => "uint16",
            ScalarTy::U32 => "uint",
            ScalarTy::U64 => "uint64",
            ScalarTy::F32 => "float",
            ScalarTy::F64 => "double",
        };
        f.write_str(s)
    }
}

/// Handle to a struct definition inside a [`TypeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A Terra function type: parameter types and a single (possibly unit)
/// return type. Terra Core restricts functions to base-type arguments; the
/// full language (and this implementation) allows any Terra type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncTy {
    /// Parameter types, in order.
    pub params: Vec<Ty>,
    /// Return type ([`Ty::Unit`] for `: {}`).
    pub ret: Ty,
}

/// A Terra type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The empty tuple `{}` — the type of functions that return nothing.
    Unit,
    /// A scalar machine type.
    Scalar(ScalarTy),
    /// `&T`
    Ptr(Arc<Ty>),
    /// `T[n]`
    Array(Arc<Ty>, u64),
    /// `vector(T, n)` — a fixed-width SIMD value of scalar elements.
    Vector(ScalarTy, u8),
    /// A nominal struct; layout lives in the [`TypeRegistry`].
    Struct(StructId),
    /// A function pointer type `{A,…} -> {R}`.
    Func(Arc<FuncTy>),
}

impl Ty {
    /// `bool`
    pub const BOOL: Ty = Ty::Scalar(ScalarTy::Bool);
    /// `int` (i32)
    pub const INT: Ty = Ty::Scalar(ScalarTy::I32);
    /// `int64`
    pub const I64: Ty = Ty::Scalar(ScalarTy::I64);
    /// `uint64`
    pub const U64: Ty = Ty::Scalar(ScalarTy::U64);
    /// `uint8`
    pub const U8: Ty = Ty::Scalar(ScalarTy::U8);
    /// `float` (f32)
    pub const F32: Ty = Ty::Scalar(ScalarTy::F32);
    /// `double` (f64)
    pub const F64: Ty = Ty::Scalar(ScalarTy::F64);

    /// A pointer to `self` (consumes `self` — types are cheap to clone).
    pub fn ptr_to(self) -> Ty {
        Ty::Ptr(Arc::new(self))
    }

    /// `rawstring` — `&int8`, the type of C string constants.
    pub fn rawstring() -> Ty {
        Ty::Scalar(ScalarTy::I8).ptr_to()
    }

    /// Whether this is any pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// Whether this is an integer scalar.
    pub fn is_integer(&self) -> bool {
        matches!(self, Ty::Scalar(s) if s.is_integer())
    }

    /// Whether this is a floating scalar.
    pub fn is_float(&self) -> bool {
        matches!(self, Ty::Scalar(s) if s.is_float())
    }

    /// Whether this is any arithmetic scalar (integer or float).
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Ty::Scalar(s) if s.is_integer() || s.is_float())
    }

    /// Whether values of this type fit in a single VM register
    /// (scalars, pointers, function pointers, vectors).
    pub fn is_register(&self) -> bool {
        matches!(
            self,
            Ty::Scalar(_) | Ty::Ptr(_) | Ty::Func(_) | Ty::Vector(..)
        )
    }

    /// The pointee type, if this is a pointer.
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// The scalar element type of a scalar or vector.
    pub fn element_scalar(&self) -> Option<ScalarTy> {
        match self {
            Ty::Scalar(s) => Some(*s),
            Ty::Vector(s, _) => Some(*s),
            _ => None,
        }
    }

    /// Size in bytes, given a registry for struct layouts; `u64::MAX` for a
    /// type too large to allocate (see [`Ty::checked_size`]).
    pub fn size(&self, reg: &TypeRegistry) -> u64 {
        self.checked_size(reg).unwrap_or(u64::MAX)
    }

    /// Size in bytes, or `None` when it does not fit in a `u64`. A struct
    /// not yet finalized counts as its size so far, 0.
    pub fn checked_size(&self, reg: &TypeRegistry) -> Option<u64> {
        Some(match self {
            Ty::Unit => 0,
            Ty::Scalar(s) => s.size(),
            Ty::Ptr(_) | Ty::Func(_) => 8,
            Ty::Array(t, n) => t.checked_size(reg)?.checked_mul(*n)?,
            Ty::Vector(s, n) => s.size() * *n as u64,
            Ty::Struct(id) => reg.layout(*id).size,
        })
    }

    /// Alignment in bytes.
    pub fn align(&self, reg: &TypeRegistry) -> u64 {
        match self {
            Ty::Unit => 1,
            Ty::Scalar(s) => s.size(),
            Ty::Ptr(_) | Ty::Func(_) => 8,
            Ty::Array(t, _) => t.align(reg),
            Ty::Vector(s, n) => (s.size() * *n as u64).min(32).max(s.size()),
            Ty::Struct(id) => reg.layout(*id).align,
        }
    }

    /// Renders the type using registry names for structs.
    pub fn display<'a>(&'a self, reg: &'a TypeRegistry) -> TyDisplay<'a> {
        TyDisplay { ty: self, reg }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "{{}}"),
            Ty::Scalar(s) => write!(f, "{s}"),
            Ty::Ptr(t) => write!(f, "&{t}"),
            Ty::Array(t, n) => write!(f, "{t}[{n}]"),
            Ty::Vector(s, n) => write!(f, "vector({s},{n})"),
            Ty::Struct(id) => write!(f, "struct#{}", id.0),
            Ty::Func(ft) => {
                write!(f, "{{")?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}} -> {}", ft.ret)
            }
        }
    }
}

/// [`Ty`] pretty-printer that resolves struct names through a registry.
/// Produced by [`Ty::display`].
#[derive(Debug)]
pub struct TyDisplay<'a> {
    ty: &'a Ty,
    reg: &'a TypeRegistry,
}

impl fmt::Display for TyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            Ty::Struct(id) => write!(f, "{}", self.reg.name(*id)),
            Ty::Ptr(t) => write!(f, "&{}", t.display(self.reg)),
            Ty::Array(t, n) => write!(f, "{}[{n}]", t.display(self.reg)),
            other => write!(f, "{other}"),
        }
    }
}

/// One field of a struct layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: Arc<str>,
    /// Field type.
    pub ty: Ty,
    /// Byte offset within the struct (set when the layout is finalized).
    pub offset: u64,
}

/// The layout of a nominal struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StructLayout {
    /// Struct name (for diagnostics; not used for identity).
    pub name: Arc<str>,
    /// Fields in declaration order with computed offsets.
    pub fields: Vec<Field>,
    /// Total size in bytes (with trailing padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Whether the layout has been computed. Terra finalizes layouts lazily,
    /// right before the type is first examined by the typechecker, so that
    /// reflection code (`__finalizelayout` in the paper) can keep adding
    /// entries until first use.
    pub finalized: bool,
}

/// Registry of struct definitions. Types are Lua values in the staged
/// language; this registry is the backing store their handles point into.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    structs: Vec<StructLayout>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new struct with no entries; returns its handle.
    pub fn declare_struct(&mut self, name: impl Into<Arc<str>>) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(StructLayout {
            name: name.into(),
            fields: Vec::new(),
            size: 0,
            align: 1,
            finalized: false,
        });
        id
    }

    /// Appends a field to a not-yet-finalized struct.
    ///
    /// # Panics
    ///
    /// Panics if the struct is already finalized (Terra keeps typechecking
    /// monotonic by only allowing types to *grow*, and freezes them on first
    /// use).
    pub fn add_field(&mut self, id: StructId, name: impl Into<Arc<str>>, ty: Ty) {
        let s = &mut self.structs[id.0 as usize];
        assert!(
            !s.finalized,
            "cannot add field to finalized struct '{}'",
            s.name
        );
        s.fields.push(Field {
            name: name.into(),
            ty,
            offset: 0,
        });
    }

    /// Whether the struct's layout has been computed.
    pub fn is_finalized(&self, id: StructId) -> bool {
        self.structs[id.0 as usize].finalized
    }

    /// Computes C-style offsets, size, and alignment for a struct. Idempotent.
    /// `None` when the size does not fit in a `u64`; the struct then stays
    /// unfinalized.
    pub fn finalize(&mut self, id: StructId) -> Option<()> {
        if self.structs[id.0 as usize].finalized {
            return Some(());
        }
        // Field types may reference other structs; finalize those first.
        let field_tys: Vec<Ty> = self.structs[id.0 as usize]
            .fields
            .iter()
            .map(|f| f.ty.clone())
            .collect();
        for ty in &field_tys {
            self.finalize_nested(ty)?;
        }
        let mut offset = 0u64;
        let mut align = 1u64;
        let sizes: Vec<(Option<u64>, u64)> = field_tys
            .iter()
            .map(|t| (t.checked_size(self), t.align(self)))
            .collect();
        let s = &mut self.structs[id.0 as usize];
        for (f, (fsize, falign)) in s.fields.iter_mut().zip(sizes) {
            offset = round_up(offset, falign)?;
            f.offset = offset;
            offset = offset.checked_add(fsize?)?;
            align = align.max(falign);
        }
        s.size = round_up(offset.max(1), align)?;
        s.align = align;
        s.finalized = true;
        Some(())
    }

    fn finalize_nested(&mut self, ty: &Ty) -> Option<()> {
        match ty {
            Ty::Struct(id) => self.finalize(*id),
            Ty::Array(t, _) => self.finalize_nested(t),
            _ => Some(()),
        }
    }

    /// The layout of a struct.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.structs[id.0 as usize]
    }

    /// The struct's name.
    pub fn name(&self, id: StructId) -> &str {
        &self.structs[id.0 as usize].name
    }

    /// Finds a field by name, returning `(byte offset, type)`.
    pub fn field(&self, id: StructId, name: &str) -> Option<(u64, Ty)> {
        self.structs[id.0 as usize]
            .fields
            .iter()
            .find(|f| &*f.name == name)
            .map(|f| (f.offset, f.ty.clone()))
    }

    /// Number of declared structs.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// Whether no structs have been declared.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }
}

fn round_up(v: u64, align: u64) -> Option<u64> {
    debug_assert!(align > 0);
    v.div_ceil(align).checked_mul(align)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarTy::I32.size(), 4);
        assert_eq!(ScalarTy::F64.size(), 8);
        assert_eq!(ScalarTy::Bool.size(), 1);
    }

    #[test]
    fn conversion_ranks_are_ordered() {
        assert!(ScalarTy::F64.conversion_rank() > ScalarTy::F32.conversion_rank());
        assert!(ScalarTy::F32.conversion_rank() > ScalarTy::I64.conversion_rank());
        assert!(ScalarTy::I64.conversion_rank() > ScalarTy::I32.conversion_rank());
    }

    #[test]
    fn struct_layout_c_rules() {
        let mut reg = TypeRegistry::new();
        let id = reg.declare_struct("Vertex");
        reg.add_field(id, "a", Ty::U8);
        reg.add_field(id, "b", Ty::F64);
        reg.add_field(id, "c", Ty::INT);
        reg.finalize(id);
        let l = reg.layout(id);
        assert_eq!(l.fields[0].offset, 0);
        assert_eq!(l.fields[1].offset, 8); // padded to f64 alignment
        assert_eq!(l.fields[2].offset, 16);
        assert_eq!(l.size, 24); // trailing padding to align 8
        assert_eq!(l.align, 8);
    }

    #[test]
    fn nested_struct_layout() {
        let mut reg = TypeRegistry::new();
        let inner = reg.declare_struct("Inner");
        reg.add_field(inner, "x", Ty::F32);
        reg.add_field(inner, "y", Ty::F32);
        let outer = reg.declare_struct("Outer");
        reg.add_field(outer, "i", Ty::Struct(inner));
        reg.add_field(outer, "n", Ty::INT);
        reg.finalize(outer);
        assert!(reg.is_finalized(inner));
        assert_eq!(reg.layout(outer).size, 12);
        assert_eq!(reg.field(outer, "n"), Some((8, Ty::INT)));
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn adding_field_after_finalize_panics() {
        let mut reg = TypeRegistry::new();
        let id = reg.declare_struct("S");
        reg.add_field(id, "x", Ty::INT);
        reg.finalize(id);
        reg.add_field(id, "y", Ty::INT);
    }

    #[test]
    fn vector_and_array_sizes() {
        let reg = TypeRegistry::new();
        assert_eq!(Ty::Vector(ScalarTy::F32, 8).size(&reg), 32);
        assert_eq!(Ty::Vector(ScalarTy::F64, 4).size(&reg), 32);
        assert_eq!(Ty::Vector(ScalarTy::F64, 4).align(&reg), 32);
        assert_eq!(Ty::Array(Arc::new(Ty::INT), 10).size(&reg), 40);
        assert_eq!(Ty::Array(Arc::new(Ty::INT), 10).align(&reg), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ty::INT.to_string(), "int");
        assert_eq!(Ty::F32.ptr_to().to_string(), "&float");
        assert_eq!(Ty::rawstring().to_string(), "&int8");
        assert_eq!(Ty::Vector(ScalarTy::F64, 4).to_string(), "vector(double,4)");
        let ft = Ty::Func(Arc::new(FuncTy {
            params: vec![Ty::INT, Ty::F64],
            ret: Ty::BOOL,
        }));
        assert_eq!(ft.to_string(), "{int,double} -> bool");
        let mut reg = TypeRegistry::new();
        let id = reg.declare_struct("Complex");
        assert_eq!(Ty::Struct(id).display(&reg).to_string(), "Complex");
        assert_eq!(
            Ty::Struct(id).ptr_to().display(&reg).to_string(),
            "&Complex"
        );
    }

    #[test]
    fn empty_struct_has_nonzero_size() {
        let mut reg = TypeRegistry::new();
        let id = reg.declare_struct("Empty");
        reg.finalize(id);
        assert_eq!(reg.layout(id).size, 1);
    }
}
