//! # terra-bench
//!
//! The paper-table printers of terra-rs: one binary per table/figure of the
//! paper's evaluation, each printing the per-size table the paper shows (run
//! with `cargo run --release -p terra-bench --bin fig6` etc.). They are for
//! reading, not for gating: the repository's one timing harness — repeated
//! runs, spreads, per-layer metrics — is `benchmark/` (see its README).
//!
//! | target | reproduces |
//! |---|---|
//! | `--bin fig6` | Figure 6a/6b: DGEMM/SGEMM GFLOPS vs matrix size |
//! | `--bin fig8` | Figure 8: Orion schedule speedups (area filter, pointwise, fluid) |
//! | `--bin fig9` | Figure 9: AoS vs SoA mesh throughput |
//! | `--bin class_overhead` | §6.3.1 dispatch micro-benchmark |
//! | `--bin ablate` | EXPERIMENTS.md A2/A3: kernel-mechanism and vector-dispatch ablations |
//!
//! Absolute numbers will not match the paper — the backend is a bytecode VM,
//! not LLVM on a 2012 Core i7 — but the *shapes* (who wins, by what factor)
//! are the reproduction target; see EXPERIMENTS.md.

#![warn(missing_docs)]

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a throughput cell.
pub fn fmt_gflops(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a speedup cell like the paper's "2.3x".
pub fn fmt_speedup(v: f64) -> String {
    format!("{v:.2}x")
}

/// A tiny fixed-width table printer for harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a header.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for r in &self.rows {
            line(r, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["series", "GFLOPS"]);
        t.push(vec!["naive".into(), "0.02".into()]);
        t.push(vec!["generated".into(), "0.27".into()]);
        let s = t.render();
        assert!(s.contains("| naive "));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(2.345), "2.35x");
        assert_eq!(fmt_gflops(0.12345), "0.123");
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
