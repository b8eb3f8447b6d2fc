//! The `.rec` text format loses nothing: `Recording::parse(r.to_text())` is
//! `r`, over every effect kind, with and without a site, with and without a
//! staging chain (which contains spaces, and so is the line's last field).

use proptest::prelude::*;
use terra_trace::{Checkpoint, Effect, EffectKind, EffectSite, RecMeta, Recording, Site};

fn kind() -> impl Strategy<Value = EffectKind> {
    let n = any::<u64>;
    prop_oneof![
        (n(), any::<u32>(), n()).prop_map(|(addr, width, bits)| EffectKind::Store {
            addr,
            width,
            bits
        }),
        (n(), n()).prop_map(|(size, addr)| EffectKind::Alloc { size, addr }),
        n().prop_map(|addr| EffectKind::Free { addr }),
        (n(), n(), n()).prop_map(|(old, size, addr)| EffectKind::Realloc { old, size, addr }),
        (n(), n(), n()).prop_map(|(dst, src, len)| EffectKind::Copy { dst, src, len }),
        (n(), any::<u8>(), n()).prop_map(|(addr, byte, len)| EffectKind::Set { addr, byte, len }),
        (n(), n()).prop_map(|(len, hash)| EffectKind::Output { len, hash }),
    ]
}

fn site() -> impl Strategy<Value = Option<EffectSite>> {
    let chain = prop_oneof![
        Just(None),
        Just(Some("via quote at line 9")),
        Just(Some("via quote at line 41, inlined at line 30")),
    ];
    let at = ("[a-z_$][a-z0-9_$]{0,7}", any::<u32>(), chain)
        .prop_map(|(func, line, chain)| Site::new(func, line, chain));
    let located =
        (at, any::<u32>(), "[a-z.0-9]{1,10}").prop_map(|(at, pc, op)| EffectSite { at, pc, op });
    prop_oneof![Just(None), located.prop_map(Some)]
}

proptest! {
    #[test]
    fn the_text_format_round_trips(
        effects in proptest::collection::vec((kind(), site()), 0..12),
        marks in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..4),
        window in any::<bool>(),
    ) {
        let effects: Vec<Effect> = effects
            .into_iter()
            .enumerate()
            .map(|(i, (kind, site))| Effect { idx: i as u64, kind, site })
            .collect();
        let mut meta = RecMeta::coarse("examples/a script.t", 2);
        meta.window = window.then_some((0, effects.len() as u64));
        let r = Recording {
            meta,
            checkpoints: marks
                .into_iter()
                .map(|(regs, heap, out)| Checkpoint { effects: 4096, retired: 7, regs, heap, out })
                .collect(),
            total_effects: effects.len() as u64,
            effects,
            total_retired: 99,
            out_bytes: 6,
        };
        let text = r.to_text();
        prop_assert_eq!(Recording::parse(&text), Ok(r), "{}", text);
    }
}
