//! Model-based property tests for the VM's linear memory: the allocator and
//! raw accessors against a simple host-side model.

use proptest::prelude::*;
use std::collections::HashMap;
use terra_vm::{MemKind, Memory};

#[derive(Debug, Clone)]
enum Op {
    Malloc(u16),
    FreeNth(u8),
    WriteNth { which: u8, offset: u8, value: u64 },
    ReadNth { which: u8, offset: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..2048).prop_map(Op::Malloc),
        any::<u8>().prop_map(Op::FreeNth),
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(which, offset, value)| Op::WriteNth {
            which,
            offset,
            value
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(which, offset)| Op::ReadNth { which, offset }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random malloc/free/read/write sequences: live allocations never
    /// alias, and every written word reads back, exactly as a HashMap model
    /// predicts.
    #[test]
    fn allocator_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut mem = Memory::new(1 << 16);
        // (addr, size) of live blocks + shadow of written words.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Malloc(size) => {
                    let size = size as u64;
                    let addr = mem.malloc(size);
                    prop_assert!(addr != 0);
                    prop_assert_eq!(addr % 16, 0);
                    // No overlap with any live block.
                    for &(a, s) in &live {
                        prop_assert!(
                            addr + size <= a || a + s <= addr,
                            "allocation [{}, {}) overlaps live [{}, {})",
                            addr, addr + size, a, a + s
                        );
                    }
                    live.push((addr, size));
                }
                Op::FreeNth(which) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = which as usize % live.len();
                    let (addr, size) = live.swap_remove(idx);
                    // Remove its words from the shadow.
                    let mut a = addr;
                    while a < addr + size {
                        shadow.remove(&a);
                        a += 8;
                    }
                    mem.free(addr).unwrap();
                }
                Op::WriteNth { which, offset, value } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, size) = live[which as usize % live.len()];
                    if size < 8 {
                        continue;
                    }
                    let slot = addr + (offset as u64 % (size / 8)) * 8;
                    mem.store_u64(slot, value).unwrap();
                    shadow.insert(slot, value);
                }
                Op::ReadNth { which, offset } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (addr, size) = live[which as usize % live.len()];
                    if size < 8 {
                        continue;
                    }
                    let slot = addr + (offset as u64 % (size / 8)) * 8;
                    if let Some(expect) = shadow.get(&slot) {
                        prop_assert_eq!(mem.load_u64(slot).unwrap(), *expect);
                    }
                }
            }
        }
        // Freeing everything returns live_bytes to zero.
        for (addr, _) in live {
            mem.free(addr).unwrap();
        }
        prop_assert_eq!(mem.live_bytes(), 0);
    }

    /// Scalar accessors round-trip at every width and alignment.
    #[test]
    fn scalar_roundtrips(v64 in any::<u64>(), v32 in any::<u32>(), v16 in any::<u16>(),
                         f in any::<f64>(), g in any::<f32>(), off in 0u64..32) {
        let mut mem = Memory::new(4096);
        let p = mem.malloc(128) + off;
        mem.store_u64(p, v64).unwrap();
        prop_assert_eq!(mem.load_u64(p).unwrap(), v64);
        mem.store_u32(p + 8, v32).unwrap();
        prop_assert_eq!(mem.load_u32(p + 8).unwrap(), v32);
        mem.store_u16(p + 12, v16).unwrap();
        prop_assert_eq!(mem.load_u16(p + 12).unwrap(), v16);
        mem.store_f64(p + 16, f).unwrap();
        let back = mem.load_f64(p + 16).unwrap();
        prop_assert!(back == f || (back.is_nan() && f.is_nan()));
        mem.store_f32(p + 24, g).unwrap();
        let back = mem.load_f32(p + 24).unwrap();
        prop_assert!(back == g || (back.is_nan() && g.is_nan()));
    }

    /// Vector load/store of any width ≤ 32 bytes round-trips and does not
    /// disturb neighbors.
    #[test]
    fn vector_roundtrips(words in proptest::array::uniform4(any::<u64>()), len in 1u64..=4) {
        let bytes = len * 8;
        let mut mem = Memory::new(4096);
        let p = mem.malloc(64);
        mem.store_u64(p + bytes, 0xDEAD_BEEF_CAFE_F00Du64).unwrap();
        mem.store_vec(p, words, bytes).unwrap();
        let back = mem.load_vec(p, bytes).unwrap();
        for i in 0..len as usize {
            prop_assert_eq!(back[i], words[i]);
        }
        prop_assert_eq!(mem.load_u64(p + bytes).unwrap(), 0xDEAD_BEEF_CAFE_F00Du64);
    }

    /// Out-of-bounds and null accesses always error, never panic.
    #[test]
    fn bad_accesses_error_cleanly(addr in 0u64..64, big in (1u64 << 40)..(1u64 << 41)) {
        let mut mem = Memory::new(4096);
        prop_assert!(mem.load_u8(addr.min(63)).is_err() || addr >= 64);
        prop_assert!(mem.load_u64(big).is_err());
        prop_assert!(mem.store_u64(big, 1).is_err());
        prop_assert!(mem.load_vec(big, 32).is_err());
    }
}

/// The addressable length grows exactly as the heap needs, whatever the
/// buffer behind it reserves: the last 8 bytes read, one byte further does
/// not — checked, and through the unchecked backstop.
#[test]
fn the_reservation_does_not_widen_the_bounds() {
    let mut mem = Memory::default();
    for (size, malloc) in [(8_392_768, 0), (16_785_536, 128 << 10)] {
        if malloc > 0 {
            assert_ne!(mem.malloc(malloc), 0);
        }
        assert_eq!(mem.size(), size);
        assert_eq!(mem.read::<8>(size - 8, true), Ok([0; 8]));
        for checked in [true, false] {
            let err = mem.read::<8>(size - 7, checked).unwrap_err();
            assert_eq!((err.kind, err.addr), (MemKind::OutOfRange, size - 7));
        }
    }
}

/// A growth past the reservation moves the bytes to a larger buffer: what
/// the stack and the heap held before reads back after.
#[test]
fn a_growth_past_the_reservation_keeps_the_bytes() {
    let mut mem = Memory::default();
    let frame = mem.push_frame(64).unwrap();
    let block = mem.malloc(64);
    let pattern: Vec<u8> = (0..64).map(|i| i * 3 + 1).collect();
    mem.write_bytes(frame, &pattern).unwrap();
    mem.write_bytes(block, &pattern).unwrap();
    let big = mem.malloc(200 << 20);
    assert_ne!(big, 0);
    assert!(mem.size() > 200 << 20, "{}", mem.size());
    for addr in [frame, block] {
        let mut back = [0u8; 64];
        mem.read_into(addr, &mut back, true).unwrap();
        assert_eq!(back[..], pattern[..], "at {addr:#x}");
    }
    mem.store_u8(big + (200 << 20) - 1, 9).unwrap();
    assert_eq!(mem.load_u8(big + (200 << 20) - 1), Ok(9));
}

/// `malloc` and `realloc` of a size no block can hold return null, as C's
/// do, and change nothing: not the length, not the live bytes, not the old
/// block. (`u64::MAX` once wrapped to a 16-byte block.)
#[test]
fn sizes_that_cannot_be_met_return_null() {
    let mut mem = Memory::default();
    let p = mem.malloc(16);
    mem.store_u64(p, 0x1234_5678).unwrap();
    let (size, live) = (mem.size(), mem.live_bytes());
    for huge in [u64::MAX, u64::MAX - 15, 1 << 63, 1 << 47] {
        assert_eq!(mem.malloc(huge), 0, "malloc({huge})");
        let mut seen = None;
        assert_eq!(mem.realloc(p, huge, |_, q| seen = Some(q)), Ok(0));
        assert_eq!(seen, Some(0), "realloc({huge})");
        assert_eq!((mem.size(), mem.live_bytes()), (size, live));
        assert_eq!(mem.load_u64(p), Ok(0x1234_5678));
    }
    // 1 TiB fits a size class; whether the host can back it decides. A
    // host that refuses gives null, one that overcommits a usable block,
    // and neither aborts.
    let q = mem.malloc(1 << 40);
    if q == 0 {
        assert_eq!((mem.size(), mem.live_bytes()), (size, live));
    } else {
        mem.store_u8(q + (1 << 40) - 1, 1).unwrap();
    }
    assert_eq!(mem.load_u64(p), Ok(0x1234_5678));
    mem.free(p).unwrap();
}
