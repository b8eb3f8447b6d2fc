//! "Where it happened": the one location type of the runtime.
//!
//! Every kernel this system runs is *generated*, so a runtime report is
//! only useful if it names the splice that produced the instruction. A
//! [`Site`] is that name — function, source line, staging chain — and it is
//! the only such triple: traps, heap rows, leak rows, `parallelfor` sites,
//! hot lines, remarks and recorded effects all carry one, the VM builds it
//! in one place (`CompiledFunction::site_at`), and the two renderings and
//! the one field encoding below are all there is to learn.

use std::fmt;
use std::sync::Arc;

/// A place in staged Terra code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Terra function the instruction executed in ([`Site::HOST`] when no
    /// Terra code was running).
    pub func: Arc<str>,
    /// 1-based source line (0 = unknown, or the whole function).
    pub line: u32,
    /// Rendered staging chain (`"via quote at line 41, inlined at line
    /// 30"`) when the code arrived through a splice or the inliner; `None`
    /// when it was written in place.
    pub chain: Option<Arc<str>>,
}

impl Site {
    /// The function name of work done outside Terra code: embedder calls,
    /// string interning, host-driven `parallelfor`.
    pub const HOST: &'static str = "(host)";

    /// A site from its parts.
    pub fn new(func: impl Into<Arc<str>>, line: u32, chain: Option<&str>) -> Site {
        Site {
            func: func.into(),
            line,
            chain: chain.map(Arc::from),
        }
    }

    /// The site of everything that happens outside Terra code.
    pub fn host() -> Site {
        Site::new(Site::HOST, 0, None)
    }

    /// The three fields as every export spells them — the one place an
    /// absent chain becomes the empty string.
    pub fn fields(&self) -> (&str, u32, &str) {
        (&self.func, self.line, self.chain.as_deref().unwrap_or(""))
    }

    /// `func:line`, or the bare function when the line is unknown: the
    /// column tables align on.
    pub fn place(&self) -> String {
        match self.line {
            0 => self.func.to_string(),
            line => format!("{}:{line}", self.func),
        }
    }

    /// The sentence form a trap ends in: `(in terra function 'run' at line
    /// 15, generated via quote at line 36)`.
    pub fn sentence(&self) -> String {
        let mut s = format!("(in terra function '{}'", self.func);
        if self.line > 0 {
            s.push_str(&format!(" at line {}", self.line));
        }
        if let Some(chain) = &self.chain {
            s.push_str(&format!(", generated {chain}"));
        }
        s + ")"
    }
}

/// `run:15, generated via quote at line 36` — the form every report row
/// uses.
impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.place())?;
        match &self.chain {
            Some(chain) => write!(f, ", generated {chain}"),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_renderings_and_the_field_encoding() {
        let staged = Site::new("run", 15, Some("via quote at line 36"));
        assert_eq!(staged.to_string(), "run:15, generated via quote at line 36");
        assert_eq!(
            staged.sentence(),
            "(in terra function 'run' at line 15, generated via quote at line 36)"
        );
        assert_eq!(staged.fields(), ("run", 15, "via quote at line 36"));
        let plain = Site::new("run", 15, None);
        assert_eq!(plain.to_string(), "run:15");
        assert_eq!(plain.sentence(), "(in terra function 'run' at line 15)");
        assert_eq!(plain.fields(), ("run", 15, ""));
        let whole = Site::new("run", 0, None);
        assert_eq!(whole.to_string(), "run");
        assert_eq!(whole.sentence(), "(in terra function 'run')");
        assert_eq!(Site::host().to_string(), "(host)");
    }
}
