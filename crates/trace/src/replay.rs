//! Replay verification and first-divergence bisection over recordings.
//!
//! Two entry points:
//!
//! - [`verify`] — strict same-configuration comparison: a live re-execution
//!   must reproduce every checkpoint field of the recording (effects,
//!   retired instructions, register/heap/output hashes) and the totals.
//!   This is what `terra --replay=FILE.rec` runs.
//! - [`diff`] — cross-configuration alignment: given two coarse recordings
//!   of the same program under different configurations (-O0 vs -O2,
//!   different thread counts, future interp vs JIT), binary-search the
//!   checkpoint streams for the first effect window whose heap/output
//!   checksums disagree, re-record that window at full fidelity via a
//!   caller-supplied rerun closure, and report the first divergent effect
//!   with its [`Site`](crate::Site).
//!
//! Only `effects`, `heap`, and `out` participate in cross-config
//! comparison; `retired` and `regs` are instruction-stream-dependent and
//! are same-config metadata (see [`crate::Checkpoint`]).

use crate::record::{Checkpoint, Effect, RecMeta, Recording};

/// Outcome of a clean [`verify`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Checkpoints verified.
    pub checkpoints: usize,
    /// Total effects in the run.
    pub effects: u64,
    /// Total retired instructions.
    pub retired: u64,
}

/// Verifies a live re-execution against its recording (same configuration:
/// every checkpoint field must match, including register hashes and
/// retired-instruction counts).
pub fn verify(recorded: &Recording, live: &Recording) -> Result<ReplaySummary, String> {
    if recorded.meta.cadence != live.meta.cadence {
        return Err(format!(
            "cadence mismatch: recording has {}, live run has {}",
            recorded.meta.cadence, live.meta.cadence
        ));
    }
    for (i, (a, b)) in recorded
        .checkpoints
        .iter()
        .zip(live.checkpoints.iter())
        .enumerate()
    {
        if a != b {
            return Err(format!(
                "checkpoint {i} mismatch:\n  recorded: effects={} retired={} regs={:016x} heap={:016x} out={:016x}\n  live:     effects={} retired={} regs={:016x} heap={:016x} out={:016x}",
                a.effects, a.retired, a.regs, a.heap, a.out,
                b.effects, b.retired, b.regs, b.heap, b.out
            ));
        }
    }
    if recorded.checkpoints.len() != live.checkpoints.len() {
        return Err(format!(
            "checkpoint count mismatch: recorded {}, live {}",
            recorded.checkpoints.len(),
            live.checkpoints.len()
        ));
    }
    if recorded.total_effects != live.total_effects
        || recorded.total_retired != live.total_retired
        || recorded.out_bytes != live.out_bytes
    {
        return Err(format!(
            "run totals mismatch: recorded effects={} retired={} out_bytes={}, live effects={} retired={} out_bytes={}",
            recorded.total_effects, recorded.total_retired, recorded.out_bytes,
            live.total_effects, live.total_retired, live.out_bytes
        ));
    }
    Ok(ReplaySummary {
        checkpoints: recorded.checkpoints.len(),
        effects: recorded.total_effects,
        retired: recorded.total_retired,
    })
}

/// True when a checkpoint pair agrees on the cross-configuration surface.
fn pair_agrees(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.effects == b.effects && a.heap == b.heap && a.out == b.out
}

/// Finds the effect window `[lo, hi)` bracketing the first cross-config
/// checkpoint divergence, or `None` when every aligned checkpoint agrees.
///
/// Binary search (`partition_point`) locates *a* disagreeing pair, then a
/// backward walk finds the **first** one — heap hashes can re-converge
/// after a transient divergence, so the agree/disagree sequence is not
/// guaranteed monotonic and the walk-back is required for "first".
fn divergent_window(a: &Recording, b: &Recording) -> Option<(u64, u64)> {
    let n = a.checkpoints.len().min(b.checkpoints.len());
    let agree_prefix = (0..n)
        .collect::<Vec<_>>()
        .partition_point(|&i| pair_agrees(&a.checkpoints[i], &b.checkpoints[i]));
    let mut first = (0..n).find(|&i| !pair_agrees(&a.checkpoints[i], &b.checkpoints[i]));
    // partition_point gives the same index when the sequence is monotonic;
    // the linear `find` above is the walk-back guarantee. Keep the binary
    // search result as a consistency check in debug builds.
    debug_assert!(first.map_or(agree_prefix == n, |f| f <= agree_prefix));
    if first.is_none() && a.checkpoints.len() != b.checkpoints.len() {
        // One run produced more effects than the other: diverges after the
        // last aligned checkpoint.
        first = Some(n);
    }
    if first.is_none() && a.total_effects != b.total_effects {
        first = Some(n);
    }
    let f = first?;
    let lo = if f == 0 {
        0
    } else {
        a.checkpoints[f - 1].effects
    };
    let hi_a = a.checkpoints.get(f).map_or(a.total_effects, |c| c.effects);
    let hi_b = b.checkpoints.get(f).map_or(b.total_effects, |c| c.effects);
    Some((lo, hi_a.max(hi_b).max(lo + 1)))
}

/// One side of a divergent effect in a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DivergentSide {
    /// Short configuration label, e.g. `-O0`.
    pub label: String,
    /// The effect this side produced at the divergent index (`None` when
    /// this side's effect stream ended first).
    pub effect: Option<Effect>,
}

/// Result of [`diff`].
// The Divergent variant dominates the size, but reports are built once per
// diff and immediately rendered — indirection buys nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum DiffReport {
    /// The recordings agree at every aligned checkpoint and in totals.
    Clean {
        /// Aligned checkpoints compared.
        checkpoints: usize,
        /// Total effects in each run.
        effects: u64,
    },
    /// The recordings diverge.
    Divergent {
        /// Global index of the first divergent effect.
        index: u64,
        /// Effect window that was re-recorded at full fidelity.
        window: (u64, u64),
        /// What side A did at that index.
        a: DivergentSide,
        /// What side B did at that index.
        b: DivergentSide,
    },
}

fn describe_side(s: &DivergentSide) -> String {
    match &s.effect {
        None => format!("{}: (no effect — run ended)", s.label),
        Some(e) => {
            let mut out = format!("{}: {}", s.label, e.kind.describe());
            if let Some(site) = &e.site {
                out.push_str(&format!(" at {} ({}, pc {})", site.at, site.op, site.pc));
            }
            out
        }
    }
}

impl DiffReport {
    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        match self {
            DiffReport::Clean {
                checkpoints,
                effects,
            } => format!(
                "replay-diff: recordings agree ({checkpoints} checkpoints, {effects} effects, 0 divergences)"
            ),
            DiffReport::Divergent {
                index,
                window,
                a,
                b,
            } => {
                let mut s = format!(
                    "replay-diff: first divergent effect #{index} (bisected to effect window [{}, {})):\n",
                    window.0, window.1
                );
                s.push_str(&format!("  {}\n", describe_side(a)));
                s.push_str(&format!("  {}", describe_side(b)));
                s
            }
        }
    }

    /// True when the recordings agreed.
    pub fn is_clean(&self) -> bool {
        matches!(self, DiffReport::Clean { .. })
    }
}

/// Aligns two coarse recordings and pinpoints their first divergent effect.
///
/// `rerun(meta, window)` must re-execute the program described by `meta`
/// with `meta.window = Some(window)` and return the full-fidelity
/// recording; it is supplied by the caller because the trace crate cannot
/// execute programs itself. Labels default to the opt levels when the
/// configs differ there, or `A`/`B` otherwise.
pub fn diff<F>(a: &Recording, b: &Recording, mut rerun: F) -> Result<DiffReport, String>
where
    F: FnMut(&RecMeta, (u64, u64)) -> Result<Recording, String>,
{
    if a.meta.cadence != b.meta.cadence {
        return Err(format!(
            "cannot align recordings with different checkpoint cadences ({} vs {}); re-record with matching --record settings",
            a.meta.cadence, b.meta.cadence
        ));
    }
    let Some(window) = divergent_window(a, b) else {
        return Ok(DiffReport::Clean {
            checkpoints: a.checkpoints.len().min(b.checkpoints.len()),
            effects: a.total_effects,
        });
    };
    let label = |m: &RecMeta| {
        if a.meta.opt != b.meta.opt {
            format!("-O{}", m.opt)
        } else if a.meta.checkelim != b.meta.checkelim {
            format!("checkelim={}", m.checkelim as u8)
        } else {
            String::new()
        }
    };
    let (la, lb) = {
        let (la, lb) = (label(&a.meta), label(&b.meta));
        if la.is_empty() || la == lb {
            ("A".to_string(), "B".to_string())
        } else {
            (la, lb)
        }
    };
    let mut wa = a.meta.clone();
    wa.window = Some(window);
    let mut wb = b.meta.clone();
    wb.window = Some(window);
    let fine_a = rerun(&wa, window)?;
    let fine_b = rerun(&wb, window)?;
    // Walk the two full-fidelity effect lists in lockstep; the first pair
    // that differs in (index, kind) is the divergence.
    let mut ia = fine_a.effects.iter();
    let mut ib = fine_b.effects.iter();
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => {
                // The checksums disagreed but the window effects match —
                // can happen only if the divergence is after this window's
                // effects (e.g. totals mismatch at the tail). Report the
                // end of the window.
                return Ok(DiffReport::Divergent {
                    index: window.1,
                    window,
                    a: DivergentSide {
                        label: la,
                        effect: None,
                    },
                    b: DivergentSide {
                        label: lb,
                        effect: None,
                    },
                });
            }
            (ea, eb) => {
                let same = match (ea, eb) {
                    (Some(x), Some(y)) => x.idx == y.idx && x.kind == y.kind,
                    _ => false,
                };
                if same {
                    continue;
                }
                let index = match (ea, eb) {
                    (Some(x), Some(y)) => x.idx.min(y.idx),
                    (Some(x), None) => x.idx,
                    (None, Some(y)) => y.idx,
                    (None, None) => unreachable!(),
                };
                return Ok(DiffReport::Divergent {
                    index,
                    window,
                    a: DivergentSide {
                        label: la,
                        effect: ea.cloned(),
                    },
                    b: DivergentSide {
                        label: lb,
                        effect: eb.cloned(),
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EffectKind, EffectSite, Recorder};

    fn rec_with(script: &str, opt: u8, values: &[u64], window: Option<(u64, u64)>) -> Recording {
        let mut meta = RecMeta::coarse(script, opt);
        meta.cadence = 2;
        meta.window = window;
        let mut r = Recorder::new(meta);
        for (i, &v) in values.iter().enumerate() {
            if r.wants_detail() {
                let chain = (i == 2).then_some("via quote at line 3");
                r.stage_site(EffectSite {
                    at: crate::Site::new("prog", 10 + i as u32, chain),
                    pc: i as u32,
                    op: "st.64".into(),
                });
            }
            r.effect(EffectKind::Store {
                addr: 0x1000 + 8 * i as u64,
                width: 8,
                bits: v,
            });
            if r.checkpoint_due() {
                // Fake heap hash: fold the values written so far.
                let h = values[..=i]
                    .iter()
                    .fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x));
                r.checkpoint(0, h);
            }
        }
        let h = values
            .iter()
            .fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x));
        r.finish(0, h)
    }

    #[test]
    fn verify_accepts_identical_runs() {
        let a = rec_with("p.t", 0, &[1, 2, 3, 4, 5], None);
        let b = rec_with("p.t", 0, &[1, 2, 3, 4, 5], None);
        let s = verify(&a, &b).expect("verify");
        assert_eq!(s.effects, 5);
    }

    #[test]
    fn verify_rejects_differing_runs() {
        let a = rec_with("p.t", 0, &[1, 2, 3, 4, 5], None);
        let b = rec_with("p.t", 0, &[1, 2, 9, 4, 5], None);
        let err = verify(&a, &b).unwrap_err();
        assert!(err.contains("checkpoint"), "{err}");
    }

    #[test]
    fn diff_clean_on_agreeing_recordings() {
        let a = rec_with("p.t", 0, &[1, 2, 3, 4, 5], None);
        let b = rec_with("p.t", 2, &[1, 2, 3, 4, 5], None);
        let report = diff(&a, &b, |_, _| panic!("no rerun needed")).expect("diff");
        assert!(report.is_clean());
    }

    #[test]
    fn diff_bisects_to_first_divergent_effect() {
        let va = [1u64, 2, 3, 4, 5, 6, 7];
        let mut vb = va;
        vb[4] = 99; // diverges at effect index 4 (window [4, 6) at cadence 2)
        let a = rec_with("p.t", 0, &va, None);
        let b = rec_with("p.t", 2, &vb, None);
        let report = diff(&a, &b, |meta, window| {
            let vals = if meta.opt == 0 { &va } else { &vb };
            Ok(rec_with(&meta.script, meta.opt, vals, Some(window)))
        })
        .expect("diff");
        match &report {
            DiffReport::Divergent { index, a, b, .. } => {
                assert_eq!(*index, 4);
                assert_eq!(a.label, "-O0");
                assert_eq!(b.label, "-O2");
                let rendered = report.render();
                assert!(rendered.contains("first divergent effect #4"), "{rendered}");
                assert!(rendered.contains("at prog:14 (st.64, pc 4)"), "{rendered}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn diff_report_carries_provenance() {
        let va = [1u64, 2, 3];
        let mut vb = va;
        vb[2] = 42;
        let a = rec_with("p.t", 0, &va, None);
        let b = rec_with("p.t", 2, &vb, None);
        let report = diff(&a, &b, |meta, window| {
            let vals = if meta.opt == 0 { &va } else { &vb };
            Ok(rec_with(&meta.script, meta.opt, vals, Some(window)))
        })
        .expect("diff");
        let rendered = report.render();
        assert!(
            rendered.contains("at prog:12, generated via quote at line 3 (st.64, pc 2)"),
            "{rendered}"
        );
    }

    #[test]
    fn diff_handles_tail_divergence() {
        // One run simply produces more effects.
        let a = rec_with("p.t", 0, &[1, 2, 3], None);
        let b = rec_with("p.t", 2, &[1, 2, 3, 4], None);
        let report = diff(&a, &b, |meta, window| {
            let vals: &[u64] = if meta.opt == 0 {
                &[1, 2, 3]
            } else {
                &[1, 2, 3, 4]
            };
            Ok(rec_with(&meta.script, meta.opt, vals, Some(window)))
        })
        .expect("diff");
        match report {
            DiffReport::Divergent { index, .. } => assert_eq!(index, 3),
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
