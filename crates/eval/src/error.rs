//! Errors raised during Lua evaluation, specialization, typechecking, or
//! Terra execution.

use std::error::Error;
use std::fmt;
use std::ops::Deref;
use terra_syntax::Span;

/// Which phase produced the error. The paper (§4.1) is explicit about *when*
/// each class of error can occur: specialization errors happen at definition
/// time, type and linking errors at first call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Ordinary Lua runtime error (`error(...)`, bad arithmetic, etc.).
    Lua,
    /// Error while eagerly specializing a Terra function or quote.
    Specialize,
    /// Error while lazily typechecking a Terra function.
    Typecheck,
    /// Error while linking (e.g. calling a declared-but-undefined function).
    Link,
    /// A trap during Terra execution.
    Execution,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Lua => "runtime error",
            Phase::Specialize => "specialization error",
            Phase::Typecheck => "type error",
            Phase::Link => "link error",
            Phase::Execution => "terra runtime error",
        };
        f.write_str(s)
    }
}

/// An error in the combined Lua-Terra system: one pointer to what it says
/// (its fields read through it), because every frame of the evaluator
/// returns an [`EvalResult`] and an error carried by value widened them all.
#[derive(Debug, Clone)]
pub struct LuaError(Box<LuaErrorData>);

/// What a [`LuaError`] says.
#[derive(Debug, Clone)]
pub struct LuaErrorData {
    /// What failed.
    pub message: String,
    /// Where (if known).
    pub span: Option<Span>,
    /// Which phase failed.
    pub phase: Phase,
    /// Call-stack context, innermost first.
    pub trace: Vec<String>,
}

impl Deref for LuaError {
    type Target = LuaErrorData;

    fn deref(&self) -> &LuaErrorData {
        &self.0
    }
}

impl LuaError {
    /// A plain Lua runtime error.
    pub fn msg(message: impl Into<String>) -> LuaError {
        LuaError(Box::new(LuaErrorData {
            message: message.into(),
            span: None,
            phase: Phase::Lua,
            trace: Vec::new(),
        }))
    }

    /// An error at a specific location.
    pub fn at(message: impl Into<String>, span: Span) -> LuaError {
        let mut e = LuaError::msg(message);
        e.0.span = Some(span);
        e
    }

    /// Tags the error with a phase.
    pub fn phase(mut self, phase: Phase) -> LuaError {
        self.0.phase = phase;
        self
    }

    /// Adds a stack-frame note.
    pub fn traced(mut self, frame: impl Into<String>) -> LuaError {
        self.0.trace.push(frame.into());
        self
    }
}

impl fmt::Display for LuaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.phase, self.message)?;
        if let Some(span) = self.span {
            write!(f, " ({span})")?;
        }
        for t in &self.trace {
            write!(f, "\n  in {t}")?;
        }
        Ok(())
    }
}

impl Error for LuaError {}

impl From<terra_syntax::SyntaxError> for LuaError {
    fn from(e: terra_syntax::SyntaxError) -> Self {
        LuaError::at(e.message().to_string(), e.span())
    }
}

impl From<terra_vm::Trap> for LuaError {
    fn from(t: terra_vm::Trap) -> Self {
        LuaError::msg(t.to_string()).phase(Phase::Execution)
    }
}

/// Result alias for evaluation.
pub type EvalResult<T> = Result<T, LuaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_and_trace() {
        let e = LuaError::msg("boom")
            .phase(Phase::Typecheck)
            .traced("function 'laplace'");
        let s = e.to_string();
        assert!(s.contains("type error"));
        assert!(s.contains("boom"));
        assert!(s.contains("laplace"));
    }

    /// A result carries its error in one word beside its value, so no
    /// evaluator frame pays for the error it almost never returns.
    #[test]
    fn an_error_is_one_pointer_wide() {
        use crate::LuaValue;
        let (result, value) = (
            std::mem::size_of::<EvalResult<LuaValue>>(),
            std::mem::size_of::<LuaValue>(),
        );
        assert!(result <= value + 8, "{result} > {value} + 8");
    }
}
