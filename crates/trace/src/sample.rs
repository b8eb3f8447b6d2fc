//! Deterministic sampling profiler.
//!
//! Instead of ticking a counter map on *every* retired instruction (the
//! exact profiler), the sampler captures the interpreter's call stack once
//! every `interval` retired instructions. Because the trigger is an
//! instruction count — never a timer — two runs of the same program take
//! their samples at the same points and the profile is byte-stable, while
//! the per-instruction cost drops to a single decrement.
//!
//! Samples are folded eagerly into `"outer;inner" -> count` stacks (the
//! flamegraph format), so memory stays bounded by the number of *distinct*
//! stacks, not the number of samples.

use std::collections::BTreeMap;

/// The live sampling state, owned by the VM's telemetry observer.
#[derive(Debug, Default)]
pub struct Sampler {
    interval: u64,
    countdown: u64,
    total: u64,
    stacks: BTreeMap<String, u64>,
}

impl Sampler {
    /// Sets the sampling interval in retired instructions; 0 disables
    /// sampling. Resets the countdown so the first sample lands exactly
    /// `interval` instructions in.
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
        self.countdown = interval;
    }

    /// The configured interval (0 = sampling off).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether sampling is active.
    #[inline]
    pub fn active(&self) -> bool {
        self.interval > 0
    }

    /// Retired instructions left until the next sample (while active).
    pub fn countdown(&self) -> u64 {
        self.countdown
    }

    /// Counts `n` retired instructions — no more than
    /// [`Sampler::countdown`] — and returns `true` when a sample is due.
    #[inline]
    pub fn advance(&mut self, n: u64) -> bool {
        self.countdown -= n;
        if self.countdown == 0 {
            self.countdown = self.interval;
            true
        } else {
            false
        }
    }

    /// Records one captured stack, already folded as `"outer;inner"`.
    pub fn record(&mut self, stack: String) {
        self.total += 1;
        *self.stacks.entry(stack).or_insert(0) += 1;
    }

    /// Folds another sampler's collected stacks into this one (commutative
    /// sums keyed by folded stack, so merge order does not matter).
    pub fn absorb(&mut self, other: &Sampler) {
        self.total += other.total;
        for (k, v) in &other.stacks {
            *self.stacks.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Discards collected samples; the interval (and countdown) restart.
    pub fn reset(&mut self) {
        self.total = 0;
        self.stacks.clear();
        self.countdown = self.interval;
    }

    /// Freezes the collected samples.
    pub fn snapshot(&self) -> SampleStats {
        SampleStats {
            interval: self.interval,
            total: self.total,
            stacks: self.stacks.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

/// A frozen statistical profile, embedded in a `Profile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Sampling interval in retired instructions (0 = sampling was off).
    pub interval: u64,
    /// Total samples taken.
    pub total: u64,
    /// Folded stacks (`"outer;inner"`) with sample counts, sorted by stack
    /// string for determinism.
    pub stacks: Vec<(String, u64)>,
}

impl SampleStats {
    /// Per-function ranking: for every function, the number of samples
    /// whose stack *contains* it (the statistical analogue of the exact
    /// profiler's inclusive count) and the number where it was the *leaf*
    /// (analogue of exclusive). Sorted by containing count descending,
    /// then name, so `top[0]` is the statistically hottest function.
    pub fn top_functions(&self) -> Vec<SampleFuncRank> {
        let mut containing: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (stack, n) in &self.stacks {
            let mut frames: Vec<&str> = stack.split(';').collect();
            let leaf = *frames.last().unwrap_or(&"");
            frames.sort_unstable();
            frames.dedup(); // recursion: count a containing sample once
            for f in frames {
                let e = containing.entry(f).or_insert((0, 0));
                e.0 += n;
                if f == leaf {
                    e.1 += n;
                }
            }
        }
        let mut out: Vec<SampleFuncRank> = containing
            .into_iter()
            .map(|(name, (contain, leaf))| SampleFuncRank {
                name: name.to_string(),
                containing: contain,
                leaf,
            })
            .collect();
        out.sort_by(|a, b| {
            b.containing
                .cmp(&a.containing)
                .then_with(|| a.name.cmp(&b.name))
        });
        out
    }
}

/// One row of [`SampleStats::top_functions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFuncRank {
    /// Function name.
    pub name: String,
    /// Samples whose stack contains this function (inclusive analogue).
    pub containing: u64,
    /// Samples where this function was the leaf (exclusive analogue).
    pub leaf: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_gates_ticks() {
        let mut s = Sampler::default();
        s.set_interval(3);
        assert!(!s.advance(1));
        assert!(!s.advance(1));
        assert!(s.advance(1));
        assert!(!s.advance(1));
        assert!(!s.advance(1));
        assert!(s.advance(1));
    }

    #[test]
    fn stacks_fold_and_rank() {
        let mut s = Sampler::default();
        s.set_interval(1);
        s.record("main;gemm;dot".to_string());
        s.record("main;gemm;dot".to_string());
        s.record("main;gemm".to_string());
        s.record("main".to_string());
        let stats = s.snapshot();
        assert_eq!(stats.total, 4);
        assert_eq!(stats.stacks.len(), 3);
        let top = stats.top_functions();
        assert_eq!(top[0].name, "main");
        assert_eq!(top[0].containing, 4);
        assert_eq!(top[0].leaf, 1);
        let gemm = top.iter().find(|r| r.name == "gemm").unwrap();
        assert_eq!(gemm.containing, 3);
        assert_eq!(gemm.leaf, 1);
        let dot = top.iter().find(|r| r.name == "dot").unwrap();
        assert_eq!(dot.containing, 2);
        assert_eq!(dot.leaf, 2);
    }

    #[test]
    fn recursion_counts_once_per_sample() {
        let mut s = Sampler::default();
        s.record("f;f;f".to_string());
        let top = s.snapshot().top_functions();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].containing, 1);
        assert_eq!(top[0].leaf, 1);
    }

    #[test]
    fn reset_keeps_interval() {
        let mut s = Sampler::default();
        s.set_interval(2);
        s.advance(1);
        s.record("f".to_string());
        s.reset();
        assert_eq!(s.interval(), 2);
        assert_eq!(s.snapshot().total, 0);
        assert!(!s.advance(1));
        assert!(s.advance(1));
    }
}
