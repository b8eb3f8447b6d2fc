//! Linear memory for Terra programs.
//!
//! Compiled Terra code executes against a single flat address space, separate
//! from the meta-language's heap — the paper's *separate evaluation* design.
//! Addresses are byte offsets into one growable buffer:
//!
//! ```text
//! 0 ……… 63        null guard (address 0 is the null pointer)
//! 64 … stack_size  the Terra call stack (frame slots for in-memory locals)
//! stack_size …     the heap (malloc/free) and interned string constants
//! ```
//!
//! All accesses are bounds-checked; an out-of-range access produces a
//! [`Trap`](crate::Trap)-able error rather than UB, while still being a real
//! load/store against host memory so cache behaviour is genuine.
//!
//! # Ownership and parallelism
//!
//! A `Memory` either *owns* its buffer ([`Backing::Owned`]) or *borrows* one
//! owned by another context ([`Backing::Shared`]). Shared views exist only
//! inside a `parallelfor` region: each worker chunk gets a view over the
//! parent's buffer plus a private stack window carved out of the parent's
//! unused stack space, so kernel frame addresses are a function of the chunk
//! index alone — identical at every thread count. Kernels are statically
//! barred from `malloc`/`free`/`realloc` (see the parallel harness), so a
//! shared view never grows or reshapes the heap; disjoint writes from
//! concurrent workers go through raw-pointer copies rather than `&mut [u8]`
//! slices, which keeps overlapping *reads* of shared data well-defined.
//! Racing writes to the same location are a data race in the Terra program,
//! undefined just as in C.
//!
//! # Who counts an access
//!
//! Nobody here: a `Memory` is the bytes, the allocator and the sanitizer,
//! with no profile gate. [`Memory::read`] and [`Memory::write`], which the
//! dispatch loop uses, check (or not: the instruction's `chk` bit says) and
//! move bytes; the VM's telemetry observer, when there is one, is told of
//! each access and each allocation and does the counting. The typed
//! accessors (`load_f64`, `store_u8`, …) are the *host-facing* surface —
//! string interning, embedder reads and writes, Lua globals — always
//! checked, and never Terra traffic.

use std::fmt;

/// What went wrong with a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Outside every mapped region (includes the null guard page).
    OutOfRange,
    /// Sanitizer: access to a heap block after it was freed.
    UseAfterFree,
    /// Sanitizer: block passed to `free` twice.
    DoubleFree,
    /// `free` of an address that `malloc` never returned.
    BadFree,
}

/// Error produced by an invalid memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Offending address.
    pub addr: u64,
    /// Access width in bytes.
    pub len: u64,
    /// Failure class (sanitizer findings carry their own kinds).
    pub kind: MemKind,
}

impl MemError {
    fn oob(addr: u64, len: u64) -> MemError {
        MemError {
            addr,
            len,
            kind: MemKind::OutOfRange,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemKind::OutOfRange => write!(
                f,
                "invalid memory access of {} byte(s) at address {:#x}",
                self.len, self.addr
            ),
            MemKind::UseAfterFree => write!(
                f,
                "use-after-free: access of {} byte(s) at address {:#x} inside a freed block",
                self.len, self.addr
            ),
            MemKind::DoubleFree => write!(f, "double free of address {:#x}", self.addr),
            MemKind::BadFree => write!(f, "free of non-heap address {:#x}", self.addr),
        }
    }
}

impl std::error::Error for MemError {}

/// Result alias for memory operations.
pub type MemResult<T> = Result<T, MemError>;

const NULL_GUARD: u64 = 64;
/// Size-class header stored before each heap block.
const BLOCK_HEADER: u64 = 16;
/// Heap size classes: blocks of 2^0 … 2^47 bytes.
const CLASSES: usize = 48;
/// Bytes an owning [`Memory`] allocates up front. The buffer is zeroed by
/// `calloc`, so the OS commits a page only when the program first touches
/// it; the addressable length grows inside it without moving a byte.
const RESERVATION: u64 = 128 << 20;

/// Who owns the bytes behind a [`Memory`].
#[derive(Debug)]
enum Backing {
    /// This context owns the buffer (the normal, single-context case).
    Owned(Vec<u8>),
    /// A borrowed view over another context's buffer, used by `parallelfor`
    /// worker contexts. The parent context is parked for the lifetime of
    /// every view (the harness joins all workers before returning), so the
    /// pointer cannot dangle and the buffer cannot be reallocated under us —
    /// shared views cannot `malloc`, and the parent does not run.
    Shared,
}

/// The flat memory of a Terra program: stack region + malloc heap.
#[derive(Debug)]
pub struct Memory {
    /// First byte of the buffer: the owned one's, or the owner's for a
    /// worker view. Every access reads this and `len`, never `backing`.
    base: *mut u8,
    /// Addressable length: every access must end at or below it. It grows
    /// as the heap does, inside the (larger) owned buffer.
    len: u64,
    backing: Backing,
    stack_size: u64,
    /// Base of this context's stack window (`NULL_GUARD` for the owner;
    /// a carved-out chunk window for `parallelfor` workers).
    stack_base: u64,
    /// Exclusive end of this context's stack window.
    stack_limit: u64,
    /// Current stack pointer (grows upward from `stack_base`).
    sp: u64,
    /// Bump pointer for the heap.
    brk: u64,
    /// Free lists keyed by block size class (power of two).
    free_lists: Vec<Vec<u64>>,
    /// Bytes currently allocated through `malloc` (for leak tests).
    live_bytes: u64,
    /// Sanitizer mode: poison fresh/freed memory and track freed blocks.
    sanitize: bool,
    /// Freed heap payload ranges (`start → length`), kept only while the
    /// sanitizer is on, so stray accesses into them can be diagnosed.
    freed: std::collections::BTreeMap<u64, u64>,
}

// SAFETY: `base` points into the buffer `backing` owns, which moves with
// this `Memory`, or — for `Shared` — into an owner's buffer: only
// `Memory::worker_view` builds one, and its caller (the parallel harness)
// keeps the owner alive and parked until every view is dropped, and Terra
// kernels address disjoint data. Racing writes are the guest program's data
// race, not the host's: all access goes through raw-pointer copies, never
// `&mut [u8]` aliasing.
unsafe impl Send for Memory {}

impl Default for Memory {
    fn default() -> Self {
        Memory::new(8 << 20)
    }
}

impl Memory {
    /// Creates a memory with the given stack region size in bytes.
    pub fn new(stack_size: u64) -> Self {
        let stack_size = stack_size.max(4096);
        let len = NULL_GUARD + stack_size + 4096;
        let mut data = vec![0; len.max(RESERVATION) as usize];
        Memory {
            base: data.as_mut_ptr(),
            len,
            backing: Backing::Owned(data),
            stack_size,
            stack_base: NULL_GUARD,
            stack_limit: NULL_GUARD + stack_size,
            sp: NULL_GUARD,
            brk: NULL_GUARD + stack_size,
            free_lists: vec![Vec::new(); CLASSES],
            live_bytes: 0,
            sanitize: false,
            freed: std::collections::BTreeMap::new(),
        }
    }

    /// Whether this memory owns its buffer (`false` for `parallelfor`
    /// worker views).
    pub fn is_owned(&self) -> bool {
        matches!(self.backing, Backing::Owned(_))
    }

    /// Turns sanitizer mode on or off. While on, freshly pushed stack frames
    /// are poisoned with `0xAA`, malloc'd payloads with `0xAB`, and freed
    /// payloads with `0xDD`; loads and stores that touch a freed heap block
    /// fail with a use-after-free error, and double frees are rejected.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
        if !on {
            self.freed.clear();
        }
    }

    /// Whether sanitizer mode is active.
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Addressable bytes: every access must end at or below this.
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Bytes currently allocated via [`Memory::malloc`] and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// First heap address: the end of the stack region. The flight
    /// recorder uses this to classify stores — only stores at or above
    /// `heap_base()` are observable effects (stack frame layouts differ
    /// legitimately across optimization levels).
    pub fn heap_base(&self) -> u64 {
        NULL_GUARD + self.stack_size
    }

    /// FNV-1a-64 digest of the heap region `[heap_base, brk)`.
    ///
    /// Guest memory is little-endian by construction (every scalar and
    /// vector access goes through `to_le_bytes`/`from_le_bytes`), so
    /// hashing the raw bytes is endianness-independent.
    pub fn heap_hash(&self) -> u64 {
        let mut h = terra_trace::Fnv64::new();
        let mut addr = self.heap_base();
        let end = self.brk.min(self.len);
        let mut buf = [0u8; 4096];
        while addr < end {
            let n = ((end - addr) as usize).min(buf.len());
            self.raw_read(addr, &mut buf[..n]);
            h.write(&buf[..n]);
            addr += n as u64;
        }
        h.finish()
    }

    // -- raw byte plumbing ---------------------------------------------------
    //
    // All guest data flows through these helpers so that shared views work
    // on raw pointers (no `&mut [u8]` aliasing between workers). Every
    // caller bounds-checks first; the `debug_assert`s re-state that
    // contract.

    #[inline]
    fn raw_read(&self, addr: u64, dst: &mut [u8]) {
        debug_assert!(addr + dst.len() as u64 <= self.len);
        // SAFETY: range checked by the caller against `len`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(addr as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }

    #[inline]
    fn raw_write(&mut self, addr: u64, src: &[u8]) {
        debug_assert!(addr + src.len() as u64 <= self.len);
        // SAFETY: range checked by the caller against `len`.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base.add(addr as usize), src.len());
        }
    }

    #[inline]
    fn raw_fill(&mut self, addr: u64, byte: u8, len: u64) {
        debug_assert!(addr + len <= self.len);
        // SAFETY: range checked by the caller against `len`.
        unsafe {
            std::ptr::write_bytes(self.base.add(addr as usize), byte, len as usize);
        }
    }

    #[inline]
    fn raw_copy(&mut self, src: u64, dst: u64, len: u64) {
        debug_assert!(src + len <= self.len && dst + len <= self.len);
        // SAFETY: both ranges checked by the caller; `ptr::copy` handles
        // overlap (memmove semantics).
        unsafe {
            std::ptr::copy(
                self.base.add(src as usize) as *const u8,
                self.base.add(dst as usize),
                len as usize,
            );
        }
    }

    // -- stack ---------------------------------------------------------------

    /// Pushes a stack frame of `size` bytes (16-byte aligned); returns its
    /// base address.
    ///
    /// # Errors
    ///
    /// Fails when this context's stack window is exhausted.
    pub fn push_frame(&mut self, size: u64) -> MemResult<u64> {
        let base = (self.sp + 15) & !15;
        let new_sp = base + size;
        if new_sp > self.stack_limit {
            return Err(MemError::oob(new_sp, size));
        }
        self.sp = new_sp;
        if self.sanitize {
            // Poison the fresh frame so reads of never-written slots return
            // recognizable garbage instead of stale data from popped frames.
            self.raw_fill(base, 0xAA, new_sp - base);
        }
        Ok(base)
    }

    /// The stack pointer: where the next frame would start, before its
    /// alignment.
    pub(crate) fn stack_pointer(&self) -> u64 {
        self.sp
    }

    /// Pops a stack frame previously pushed at `base`.
    pub fn pop_frame(&mut self, base: u64) {
        debug_assert!(self.stack_base <= base && base <= self.sp);
        if self.sanitize {
            // Poison the dead frame so dangling pointers read garbage.
            self.raw_fill(base, 0xDD, self.sp - base);
        }
        self.sp = base;
    }

    // -- parallel worker views -----------------------------------------------

    /// The address range available for carving worker stack windows: the
    /// 16-byte-aligned span between the current stack pointer and the end of
    /// the owner's stack region. Chunk windows are carved from this span as
    /// a function of the *chunk count only*, so kernel frame addresses are
    /// identical at every thread count.
    pub fn parallel_stack_span(&self) -> (u64, u64) {
        (((self.sp + 15) & !15), self.stack_limit)
    }

    /// Creates a worker view over this memory for one `parallelfor` chunk:
    /// shared bytes, a private stack window `[stack_base, stack_limit)`,
    /// and a copy of the sanitizer state.
    ///
    /// The view cannot allocate: `malloc` on a shared backing returns null,
    /// and the harness statically rejects kernels that reach allocating
    /// builtins, so the buffer never grows (and the raw pointer never
    /// dangles) while views exist.
    pub fn worker_view(&mut self, stack_base: u64, stack_limit: u64) -> Memory {
        debug_assert!(stack_base >= self.sp && stack_limit <= self.stack_limit);
        debug_assert!(self.is_owned(), "worker views must not be re-split");
        Memory {
            base: self.base,
            len: self.len,
            backing: Backing::Shared,
            stack_size: self.stack_size,
            stack_base,
            stack_limit,
            sp: stack_base,
            brk: self.brk,
            free_lists: Vec::new(),
            live_bytes: self.live_bytes,
            sanitize: self.sanitize,
            freed: self.freed.clone(),
        }
    }

    // -- heap ----------------------------------------------------------------

    /// The size class of the block a `malloc` of `size` takes, header
    /// included, or `None` when no block holds it: the padded size
    /// overflows, or passes the largest class.
    fn size_class(size: u64) -> Option<usize> {
        let padded = size.max(1).checked_add(BLOCK_HEADER)?;
        let class = padded.checked_next_power_of_two()?.trailing_zeros() as usize;
        (class < CLASSES).then_some(class)
    }

    /// The bytes a `malloc` of `size` takes from the heap: its size class's
    /// block, header included — what [`Memory::live_bytes`] counts it as.
    /// Zero for a size no block holds (`malloc` returns null for it).
    pub fn block_size(size: u64) -> u64 {
        Self::size_class(size).map_or(0, |class| 1 << class)
    }

    /// Allocates `size` bytes, returning a non-null, 16-byte-aligned address.
    /// `malloc(0)` returns a valid unique pointer. A size that cannot be met
    /// returns null, as C's does, with nothing allocated or touched. On a
    /// shared worker view allocation is impossible (the buffer must not
    /// grow while other workers hold the same pointer) and `malloc` returns
    /// null; the parallel harness statically rejects kernels that allocate,
    /// so this is a defensive backstop, not a reachable path.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let Some(class) = Self::size_class(size) else {
            return 0;
        };
        let block_size = 1u64 << class;
        let base = if let Some(addr) = self.free_lists.get_mut(class).and_then(|list| list.pop()) {
            addr
        } else {
            if !self.is_owned() {
                return 0;
            }
            let base = self.brk;
            let Some(end) = base.checked_add(block_size) else {
                return 0;
            };
            if end > self.len && !self.grow(end) {
                return 0;
            }
            self.brk = end;
            base
        };
        // Header: size class in the first 8 bytes.
        self.raw_write(base, &(class as u64).to_le_bytes());
        self.live_bytes += block_size;
        let payload = base + BLOCK_HEADER;
        if self.sanitize {
            self.freed.remove(&payload);
            let end = base + block_size;
            self.raw_fill(payload, 0xAB, end - payload);
        }
        payload
    }

    /// Raises the addressable length to hold `end`: to its next power of
    /// two, at least doubling. Inside the owned buffer that moves nothing;
    /// past it, the bytes move to a fresh zeroed buffer of the new length.
    /// `false`, with nothing changed, when the length cannot be met: on
    /// overflow, or when the host allocator refuses.
    fn grow(&mut self, end: u64) -> bool {
        let Backing::Owned(data) = &mut self.backing else {
            return false;
        };
        let Some(len) = end.checked_next_power_of_two() else {
            return false;
        };
        let len = len.max(self.len.saturating_mul(2));
        if len > data.len() as u64 {
            let Ok(n) = usize::try_from(len) else {
                return false;
            };
            // `vec![0; n]` aborts the process when the allocator refuses,
            // so ask the fallible way first; it is `calloc`, so only the
            // bytes copied into it are committed.
            if Vec::<u8>::new().try_reserve_exact(n).is_err() {
                return false;
            }
            let mut moved = vec![0; n];
            let old = self.len as usize;
            moved[..old].copy_from_slice(&data[..old]);
            *data = moved;
            self.base = data.as_mut_ptr();
        }
        self.len = len;
        true
    }

    /// Frees a pointer returned by [`Memory::malloc`]. Freeing null is a
    /// no-op, matching C.
    ///
    /// # Errors
    ///
    /// Fails on addresses that were not returned by `malloc`.
    pub fn free(&mut self, ptr: u64) -> MemResult<()> {
        if ptr == 0 {
            return Ok(());
        }
        if self.sanitize && self.freed.contains_key(&ptr) {
            return Err(MemError {
                addr: ptr,
                len: 0,
                kind: MemKind::DoubleFree,
            });
        }
        let (base, class) = self.heap_block(ptr)?;
        self.live_bytes = self.live_bytes.saturating_sub(1 << class);
        if let Some(list) = self.free_lists.get_mut(class) {
            list.push(base);
        }
        if self.sanitize {
            let payload_len = (1u64 << class) - BLOCK_HEADER;
            self.raw_fill(ptr, 0xDD, payload_len);
            self.freed.insert(ptr, payload_len);
        }
        Ok(())
    }

    /// The `(block base, size class)` of the heap block whose payload
    /// starts at `ptr`, or the `BadFree` error for a pointer `malloc`
    /// cannot have returned: below the heap, or without a size-class header
    /// in front of it.
    fn heap_block(&self, ptr: u64) -> MemResult<(u64, usize)> {
        let bad = MemError {
            addr: ptr,
            len: 0,
            kind: MemKind::BadFree,
        };
        if ptr < BLOCK_HEADER || ptr - BLOCK_HEADER < self.heap_base() {
            return Err(bad);
        }
        let base = ptr - BLOCK_HEADER;
        let class = u64::from_le_bytes(self.read(base, true)?);
        if class >= CLASSES as u64 || class == 0 {
            return Err(bad);
        }
        Ok((base, class as usize))
    }

    /// `realloc`: grows/shrinks an allocation, copying the old contents.
    /// When it allocates a block, `allocated` sees it before the old one is
    /// freed — the moment the heap is largest. A size that cannot be met
    /// returns null (which `allocated` sees too) and leaves the old block as
    /// it was, as C's does.
    ///
    /// # Errors
    ///
    /// Fails, like [`Memory::free`], on addresses that were not returned by
    /// `malloc`.
    pub fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        allocated: impl FnOnce(&Memory, u64),
    ) -> MemResult<u64> {
        if ptr == 0 {
            let new_ptr = self.malloc(size);
            allocated(self, new_ptr);
            return Ok(new_ptr);
        }
        let (_, old_class) = self.heap_block(ptr)?;
        let old_payload = (1u64 << old_class) - BLOCK_HEADER;
        if size <= old_payload {
            return Ok(ptr);
        }
        let new_ptr = self.malloc(size);
        allocated(self, new_ptr);
        if new_ptr == 0 {
            return Ok(0);
        }
        let n = old_payload.min(size);
        self.copy_within(ptr, new_ptr, n)?;
        self.free(ptr)?;
        Ok(new_ptr)
    }

    // -- raw access ----------------------------------------------------------

    #[inline]
    fn check(&self, addr: u64, len: u64) -> MemResult<()> {
        if addr < NULL_GUARD || addr.saturating_add(len) > self.len {
            return Err(MemError::oob(addr, len));
        }
        if self.sanitize && !self.freed.is_empty() {
            // Reject any access overlapping a freed heap payload.
            let end = addr.saturating_add(len.max(1));
            if let Some((&b, &l)) = self.freed.range(..end).next_back() {
                if addr < b + l {
                    return Err(MemError {
                        addr,
                        len,
                        kind: MemKind::UseAfterFree,
                    });
                }
            }
        }
        Ok(())
    }

    /// The check of an access carrying a `chk` bit: `checked: false` means
    /// the compiler proved the access in-bounds, and only a cheap
    /// end-of-memory backstop runs (a miscompiled elision must not escape
    /// the buffer). The sanitizer always takes the full check.
    #[inline]
    fn guard(&self, addr: u64, len: u64, checked: bool) -> MemResult<()> {
        if checked || self.sanitize {
            self.check(addr, len)
        } else if addr.saturating_add(len) > self.len {
            Err(MemError::oob(addr, len))
        } else {
            Ok(())
        }
    }

    /// Fills `dst` from guest memory at `addr`; `checked` as in
    /// [`Memory::read`].
    #[inline]
    pub fn read_into(&self, addr: u64, dst: &mut [u8], checked: bool) -> MemResult<()> {
        self.guard(addr, dst.len() as u64, checked)?;
        self.raw_read(addr, dst);
        Ok(())
    }

    /// Writes `src` to guest memory at `addr`; `checked` as in
    /// [`Memory::read`].
    #[inline]
    pub fn write_from(&mut self, addr: u64, src: &[u8], checked: bool) -> MemResult<()> {
        self.guard(addr, src.len() as u64, checked)?;
        self.raw_write(addr, src);
        Ok(())
    }

    /// Reads `N` bytes at `addr`, uncounted. `checked` is the accessing
    /// instruction's `chk` bit: `false` skips the bounds check the compiler
    /// proved redundant (except under the sanitizer).
    #[inline]
    pub fn read<const N: usize>(&self, addr: u64, checked: bool) -> MemResult<[u8; N]> {
        let mut bytes = [0u8; N];
        self.read_into(addr, &mut bytes, checked)?;
        Ok(bytes)
    }

    /// Writes `N` bytes at `addr`, uncounted; `checked` as in
    /// [`Memory::read`].
    #[inline]
    pub fn write<const N: usize>(
        &mut self,
        addr: u64,
        bytes: [u8; N],
        checked: bool,
    ) -> MemResult<()> {
        self.write_from(addr, &bytes, checked)
    }

    /// Writes a byte slice.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> MemResult<()> {
        self.write_from(addr, bytes, true)
    }

    /// `memmove`-style copy within the address space.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: u64) -> MemResult<()> {
        self.copy(src, dst, len, true)
    }

    /// [`Memory::copy_within`] for the `copy.mem` instruction; `checked` is
    /// its `chk` bit, as in [`Memory::read`].
    pub(crate) fn copy(&mut self, src: u64, dst: u64, len: u64, checked: bool) -> MemResult<()> {
        self.guard(src, len, checked)?;
        self.guard(dst, len, checked)?;
        self.raw_copy(src, dst, len);
        Ok(())
    }

    /// `memset`.
    pub fn fill(&mut self, addr: u64, byte: u8, len: u64) -> MemResult<()> {
        self.check(addr, len)?;
        self.raw_fill(addr, byte, len);
        Ok(())
    }

    /// Reads a NUL-terminated C string.
    pub fn c_string(&self, addr: u64) -> MemResult<String> {
        self.check(addr, 1)?;
        let end = self.len;
        let mut bytes = Vec::new();
        let mut p = addr;
        loop {
            if p >= end {
                return Err(MemError::oob(addr, 1));
            }
            let mut b = [0u8; 1];
            self.raw_read(p, &mut b);
            if b[0] == 0 {
                break;
            }
            bytes.push(b[0]);
            p += 1;
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Issues a CPU prefetch hint for the cache line holding `addr`, if the
    /// address is valid (invalid hints are ignored, like hardware does).
    /// Uncounted: only the dispatch loop hints, and its observer counts.
    #[inline]
    pub fn prefetch(&mut self, addr: u64) {
        if self.check(addr, 1).is_ok() {
            #[cfg(target_arch = "x86_64")]
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    self.base.add(addr as usize) as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let mut b = [0u8; 1];
                self.raw_read(addr, &mut b);
                let _ = b;
            }
        }
    }
}

macro_rules! scalar_access {
    ($load:ident, $store:ident, $ty:ty) => {
        impl Memory {
            /// Host-facing load: checked, never counted.
            #[inline]
            pub fn $load(&self, addr: u64) -> MemResult<$ty> {
                Ok(<$ty>::from_le_bytes(self.read(addr, true)?))
            }

            /// Host-facing store: checked, never counted.
            #[inline]
            pub fn $store(&mut self, addr: u64, v: $ty) -> MemResult<()> {
                self.write(addr, v.to_le_bytes(), true)
            }
        }
    };
}

scalar_access!(load_u8, store_u8, u8);
scalar_access!(load_i8, store_i8, i8);
scalar_access!(load_u16, store_u16, u16);
scalar_access!(load_i16, store_i16, i16);
scalar_access!(load_u32, store_u32, u32);
scalar_access!(load_i32, store_i32, i32);
scalar_access!(load_u64, store_u64, u64);
scalar_access!(load_i64, store_i64, i64);
scalar_access!(load_f32, store_f32, f32);
scalar_access!(load_f64, store_f64, f64);

/// The four 64-bit lanes of a vector's little-endian byte image.
#[inline]
pub(crate) fn lanes_of(image: [u8; 32]) -> [u64; 4] {
    let mut lanes = [0u64; 4];
    for (lane, bytes) in lanes.iter_mut().zip(image.chunks_exact(8)) {
        *lane = u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
    }
    lanes
}

/// The little-endian byte image of a vector's four 64-bit lanes.
#[inline]
pub(crate) fn image_of(lanes: [u64; 4]) -> [u8; 32] {
    let mut image = [0u8; 32];
    for (bytes, lane) in image.chunks_exact_mut(8).zip(lanes) {
        bytes.copy_from_slice(&lane.to_le_bytes());
    }
    image
}

impl Memory {
    /// Loads `len` (≤ 32) raw bytes into a vector register image, zeroing
    /// the rest (host-facing: checked, never counted).
    pub fn load_vec(&self, addr: u64, len: u64) -> MemResult<[u64; 4]> {
        let mut image = [0u8; 32];
        self.read_into(addr, &mut image[..len as usize], true)?;
        Ok(lanes_of(image))
    }

    /// Stores the low `len` (≤ 32) bytes of a vector register image
    /// (host-facing: checked, never counted).
    pub fn store_vec(&mut self, addr: u64, v: [u64; 4], len: u64) -> MemResult<()> {
        self.write_from(addr, &image_of(v)[..len as usize], true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_access_is_rejected() {
        let m = Memory::default();
        assert!(m.load_u8(0).is_err());
        assert!(m.load_f64(8).is_err());
    }

    #[test]
    fn malloc_free_reuse() {
        let mut m = Memory::default();
        let a = m.malloc(100);
        assert!(a >= 64);
        assert_eq!(a % 16, 0);
        m.store_f64(a, 3.5).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), 3.5);
        m.free(a).unwrap();
        let b = m.malloc(100);
        assert_eq!(a, b, "freed block should be reused");
        assert!(m.live_bytes() > 0);
        m.free(b).unwrap();
        assert_eq!(m.live_bytes(), 0);
    }

    #[test]
    fn malloc_grows_memory() {
        let mut m = Memory::new(4096);
        let before = m.size();
        let p = m.malloc(32 << 20);
        assert!(m.size() > before);
        m.store_u8(p + (32 << 20) - 1, 7).unwrap();
        assert_eq!(m.load_u8(p + (32 << 20) - 1).unwrap(), 7);
    }

    #[test]
    fn free_null_is_noop_and_bad_free_errors() {
        let mut m = Memory::default();
        m.free(0).unwrap();
        assert!(m.free(72).is_err()); // stack address, not heap
    }

    #[test]
    fn realloc_preserves_contents() {
        let mut m = Memory::default();
        let p = m.malloc(16);
        m.store_u64(p, 0xDEADBEEF).unwrap();
        let mut seen = None;
        let q = m.realloc(p, 4096, |_, q| seen = Some(q)).unwrap();
        assert_eq!(m.load_u64(q).unwrap(), 0xDEADBEEF);
        assert_eq!(seen, Some(q));
        // A block that already holds the request stays, and nothing is new.
        assert_eq!(m.realloc(q, 8, |_, _| panic!("no new block")), Ok(q));
    }

    #[test]
    fn realloc_of_a_non_heap_pointer_is_a_bad_free() {
        for sanitize in [false, true] {
            let mut m = Memory::default();
            m.set_sanitize(sanitize);
            let p = m.malloc(64);
            // Below the block header, inside the stack, inside a payload.
            for ptr in [3, 72, p + 24] {
                let err = m.realloc(ptr, 4096, |_, _| {}).unwrap_err();
                assert_eq!((err.kind, err.addr), (MemKind::BadFree, ptr));
            }
            // The block itself is still live and still reallocs.
            m.store_u64(p, 7).unwrap();
            let q = m.realloc(p, 4096, |_, _| {}).unwrap();
            assert_eq!(m.load_u64(q).unwrap(), 7);
        }
    }

    #[test]
    fn stack_frames_push_pop() {
        let mut m = Memory::new(4096);
        let f1 = m.push_frame(128).unwrap();
        let f2 = m.push_frame(64).unwrap();
        assert!(f2 >= f1 + 128);
        assert_eq!(f2 % 16, 0);
        m.pop_frame(f2);
        m.pop_frame(f1);
        let f3 = m.push_frame(16).unwrap();
        assert_eq!(f1, f3);
    }

    #[test]
    fn stack_overflow_errors() {
        let mut m = Memory::new(4096);
        assert!(m.push_frame(1 << 20).is_err());
    }

    #[test]
    fn scalar_roundtrips() {
        let mut m = Memory::default();
        let p = m.malloc(64);
        m.store_i32(p, -7).unwrap();
        assert_eq!(m.load_i32(p).unwrap(), -7);
        m.store_f32(p + 4, 1.5).unwrap();
        assert_eq!(m.load_f32(p + 4).unwrap(), 1.5);
        m.store_i16(p + 8, -300).unwrap();
        assert_eq!(m.load_i16(p + 8).unwrap(), -300);
    }

    #[test]
    fn vector_roundtrip() {
        let mut m = Memory::default();
        let p = m.malloc(64);
        for i in 0..4 {
            m.store_f64(p + i * 8, i as f64 + 0.5).unwrap();
        }
        let v = m.load_vec(p, 32).unwrap();
        m.store_vec(p + 32, v, 32).unwrap();
        assert_eq!(m.load_f64(p + 32 + 24).unwrap(), 3.5);
        // Partial (16-byte) vectors leave the rest untouched.
        m.store_f64(p + 48, 9.0).unwrap();
        m.store_vec(p + 32, v, 16).unwrap();
        assert_eq!(m.load_f64(p + 48).unwrap(), 9.0);
    }

    #[test]
    fn c_string_reading() {
        let mut m = Memory::default();
        let p = m.malloc(16);
        m.write_bytes(p, b"hi\0").unwrap();
        assert_eq!(m.c_string(p).unwrap(), "hi");
    }

    #[test]
    fn sanitizer_poisons_fresh_memory() {
        let mut m = Memory::default();
        m.set_sanitize(true);
        let p = m.malloc(16);
        assert_eq!(m.load_u8(p).unwrap(), 0xAB);
        let f = m.push_frame(32).unwrap();
        assert_eq!(m.load_u8(f + 31).unwrap(), 0xAA);
    }

    #[test]
    fn sanitizer_catches_use_after_free() {
        let mut m = Memory::default();
        m.set_sanitize(true);
        let p = m.malloc(16);
        m.store_u64(p, 1).unwrap();
        m.free(p).unwrap();
        let err = m.load_u64(p).unwrap_err();
        assert_eq!(err.kind, MemKind::UseAfterFree);
        assert!(m.store_u64(p, 2).is_err());
        // Reallocating the block makes it valid again.
        let q = m.malloc(16);
        assert_eq!(p, q);
        m.store_u64(q, 2).unwrap();
        assert_eq!(m.load_u64(q).unwrap(), 2);
    }

    #[test]
    fn sanitizer_catches_double_free() {
        let mut m = Memory::default();
        m.set_sanitize(true);
        let p = m.malloc(16);
        m.free(p).unwrap();
        assert_eq!(m.free(p).unwrap_err().kind, MemKind::DoubleFree);
    }

    #[test]
    fn sanitizer_off_keeps_zero_fill_behaviour() {
        let mut m = Memory::default();
        let p = m.malloc(16);
        assert_eq!(m.load_u64(p).unwrap(), 0);
        m.free(p).unwrap();
        // Without the sanitizer, touching freed memory is (dangerously) fine,
        // matching C semantics.
        assert!(m.load_u64(p).is_ok());
    }

    #[test]
    fn memset_and_copy() {
        let mut m = Memory::default();
        let p = m.malloc(32);
        m.fill(p, 0xAB, 16).unwrap();
        m.copy_within(p, p + 16, 16).unwrap();
        assert_eq!(m.load_u8(p + 31).unwrap(), 0xAB);
    }

    #[test]
    fn worker_view_shares_heap_and_isolates_stack() {
        let mut m = Memory::new(1 << 20);
        let p = m.malloc(64);
        m.store_f64(p, 1.25).unwrap();
        let (lo, hi) = m.parallel_stack_span();
        let mid = lo + (((hi - lo) / 2) & !15);
        let mut w0 = m.worker_view(lo, mid);
        let w1 = m.worker_view(mid, hi);
        // Heap data is visible through both views.
        assert_eq!(w0.load_f64(p).unwrap(), 1.25);
        assert_eq!(w1.load_f64(p).unwrap(), 1.25);
        // Writes land in the shared buffer.
        w0.store_f64(p + 8, 2.5).unwrap();
        drop(w0);
        drop(w1);
        assert_eq!(m.load_f64(p + 8).unwrap(), 2.5);
        // Stack windows are disjoint and deterministic.
        let mut a = m.worker_view(lo, mid);
        let mut b = m.worker_view(mid, hi);
        let fa = a.push_frame(64).unwrap();
        let fb = b.push_frame(64).unwrap();
        assert_eq!(fa, lo);
        assert_eq!(fb, mid);
        assert!(fa + 64 <= fb);
    }

    #[test]
    fn worker_view_cannot_malloc() {
        let mut m = Memory::default();
        let (lo, hi) = m.parallel_stack_span();
        let mut w = m.worker_view(lo, hi);
        assert_eq!(w.malloc(64), 0);
        assert!(!w.is_owned());
    }
}
