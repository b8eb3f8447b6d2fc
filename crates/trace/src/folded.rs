//! Folded-stack flamegraph export (`terra --trace-out foo.folded`).
//!
//! The folded format — one `frame1;frame2;... weight` line per unique stack —
//! is the input both `inferno-flamegraph` and Brendan Gregg's
//! `flamegraph.pl` consume. We rebuild stacks from the span timeline by
//! structure, not by clock: the tracer records a span when it closes, with
//! the depth it opened at, so a span's children are the deeper spans
//! recorded before it and after its previous sibling. Each stack's weight is
//! the *self* time of its leaf (inclusive duration minus child durations),
//! clamped to at least 1 µs so fast runs on coarse clocks still produce a
//! visible, well-formed graph.

use crate::{Profile, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write;

impl Profile {
    /// Renders the profile as folded stacks, sorted by stack name.
    ///
    /// When the sampling profiler collected stacks (`--sample=N`), those are
    /// emitted — sample counts as weights, byte-stable across runs. Without
    /// samples, stacks are rebuilt from the wall-clock span timeline.
    /// Returns an empty string when neither source has data.
    pub fn to_folded(&self) -> String {
        if !self.samples.stacks.is_empty() {
            let mut out = String::new();
            for (stack, n) in &self.samples.stacks {
                let _ = writeln!(out, "{stack} {n}");
            }
            return out;
        }
        self.spans_to_folded()
    }

    /// Folded stacks from the span timeline (the pre-sampling behaviour).
    fn spans_to_folded(&self) -> String {
        let events = &self.events;
        // Closing, a span adopts every deeper span still waiting for a
        // parent: its children, and those of a child that failed unrecorded.
        let (mut parent, mut child_us) = (vec![None; events.len()], vec![0; events.len()]);
        let mut waiting: Vec<Vec<usize>> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let depth = e.depth as usize;
            for c in waiting
                .iter_mut()
                .skip(depth + 1)
                .flat_map(|level| level.drain(..))
            {
                parent[c] = Some(i);
                child_us[i] += events[c].dur_us;
            }
            waiting.resize_with(waiting.len().max(depth + 1), Vec::new);
            waiting[depth].push(i);
        }
        // Semicolons are the frame separator; commas read the same.
        let label = |e: &SpanEvent| format!("{}: {}", e.stage.label(), e.name.replace(';', ","));
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            let mut stack = label(e);
            let mut up = parent[i];
            while let Some(p) = up {
                stack = format!("{};{stack}", label(&events[p]));
                up = parent[p];
            }
            *weights.entry(stack).or_insert(0) += e.dur_us.saturating_sub(child_us[i]).max(1);
        }
        let mut out = String::new();
        for (name, weight) in &weights {
            let _ = writeln!(out, "{name} {weight}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Profile, SampleStats, SpanEvent, Stage};

    fn profile_with(events: Vec<SpanEvent>) -> Profile {
        Profile {
            events,
            ..Profile::default()
        }
    }

    /// A span at depth 0; [`nested`] one deeper.
    fn span(stage: Stage, name: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            stage,
            name: name.into(),
            start_us,
            dur_us,
            depth: 0,
        }
    }

    fn nested(depth: u32, e: SpanEvent) -> SpanEvent {
        SpanEvent { depth, ..e }
    }

    #[test]
    fn empty_profile_folds_to_nothing() {
        assert_eq!(profile_with(Vec::new()).to_folded(), "");
    }

    #[test]
    fn nested_spans_become_stacks_with_self_time() {
        // execute:main [0,100) contains typecheck:f [10,40); the tracer
        // records a span when it closes.
        let p = profile_with(vec![
            nested(1, span(Stage::Typecheck, "f", 10, 30)),
            span(Stage::Execute, "main", 0, 100),
        ]);
        let folded = p.to_folded();
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec!["execute: main 70", "execute: main;typecheck: f 30"]
        );
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let p = profile_with(vec![
            span(Stage::Parse, "chunk", 0, 10),
            span(Stage::Execute, "main", 10, 20),
        ]);
        let folded = p.to_folded();
        assert!(folded.contains("parse: chunk 10\n"), "{folded}");
        assert!(folded.contains("execute: main 20\n"), "{folded}");
        assert!(!folded.contains(';'), "siblings must not nest: {folded}");
    }

    /// Two 0 µs passes that start when their 0 µs parent does are its
    /// children and each other's siblings, whatever the clock says.
    #[test]
    fn zero_duration_siblings_at_one_start_nest_by_depth() {
        let p = profile_with(vec![
            nested(1, span(Stage::Optimize, "Rect:widen:fold", 5, 0)),
            nested(1, span(Stage::Optimize, "Rect:widen:affine", 5, 0)),
            span(Stage::Typecheck, "Rect:widen", 5, 0),
        ]);
        assert_eq!(
            p.to_folded(),
            "typecheck: Rect:widen 1\n\
             typecheck: Rect:widen;optimize: Rect:widen:affine 1\n\
             typecheck: Rect:widen;optimize: Rect:widen:fold 1\n"
        );
    }

    #[test]
    fn zero_duration_spans_get_unit_weight() {
        let p = profile_with(vec![span(Stage::Parse, "chunk", 5, 0)]);
        assert_eq!(p.to_folded(), "parse: chunk 1\n");
    }

    #[test]
    fn single_frame_stack_keeps_full_weight() {
        let p = profile_with(vec![span(Stage::Execute, "main", 0, 42)]);
        assert_eq!(p.to_folded(), "execute: main 42\n");
    }

    #[test]
    fn equal_weight_stacks_order_stably_by_name() {
        // Three sibling spans with identical durations: output must be
        // sorted by stack name, independent of event order.
        let forward = profile_with(vec![
            span(Stage::Execute, "alpha", 0, 10),
            span(Stage::Execute, "beta", 10, 10),
            span(Stage::Execute, "gamma", 20, 10),
        ]);
        let backward = profile_with(vec![
            span(Stage::Execute, "gamma", 20, 10),
            span(Stage::Execute, "beta", 10, 10),
            span(Stage::Execute, "alpha", 0, 10),
        ]);
        let expected = "execute: alpha 10\nexecute: beta 10\nexecute: gamma 10\n";
        assert_eq!(forward.to_folded(), expected);
        assert_eq!(backward.to_folded(), expected);
    }

    #[test]
    fn repeated_identical_stacks_accumulate_weight() {
        let p = profile_with(vec![
            span(Stage::Execute, "f", 0, 5),
            span(Stage::Execute, "f", 5, 7),
        ]);
        assert_eq!(p.to_folded(), "execute: f 12\n");
    }

    #[test]
    fn sample_stacks_take_precedence_over_the_span_timeline() {
        let mut p = profile_with(vec![span(Stage::Execute, "main", 0, 42)]);
        p.samples = SampleStats {
            interval: 10,
            total: 5,
            stacks: vec![("run".to_string(), 2), ("run;gemm".to_string(), 3)],
        };
        assert_eq!(p.to_folded(), "run 2\nrun;gemm 3\n");
        // Without samples the span timeline is still used.
        p.samples = SampleStats::default();
        assert_eq!(p.to_folded(), "execute: main 42\n");
    }

    #[test]
    fn semicolons_in_names_are_sanitized_and_lines_are_well_formed() {
        let p = profile_with(vec![
            nested(1, span(Stage::Compile, "k", 5, 10)),
            span(Stage::Execute, "a;b", 0, 50),
        ]);
        let folded = p.to_folded();
        for line in folded.lines() {
            let (stackpart, weight) = line.rsplit_once(' ').expect("line has a weight");
            assert!(weight.parse::<u64>().is_ok(), "bad weight in {line:?}");
            assert!(!stackpart.is_empty());
        }
        assert!(folded.contains("execute: a,b"), "{folded}");
        assert!(folded.contains("execute: a,b;compile: k 10"), "{folded}");
    }
}
