//! # terra-syntax
//!
//! Lexer, parser, and abstract syntax trees for the combined Lua-Terra
//! language of *Terra: A Multi-Stage Language for High-Performance Computing*
//! (DeVito et al., PLDI 2013).
//!
//! A combined chunk is Lua source in which Terra entities are embedded as
//! expressions and statements:
//!
//! - `terra f(x : int) : int … end` — Terra function definitions;
//! - `struct S { x : int }` — Terra struct declarations;
//! - `quote … end` / `` `expr `` — quotations;
//! - `[e]` — escapes that splice Lua values into Terra code.
//!
//! The entry point is [`parse`], which produces a [`Block`] of Lua statements
//! with embedded Terra ASTs, consumed by the `terra-eval` crate.
//!
//! ```
//! # fn main() -> Result<(), terra_syntax::SyntaxError> {
//! let chunk = terra_syntax::parse("terra double(x : int) : int return 2 * x end")?;
//! assert_eq!(chunk.stmts.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod parser;
mod prov;
mod span;
mod token;

pub use ast::{
    BinOp, Block, DeclName, LuaExpr, LuaFunctionBody, LuaStmt, Name, Slot, StructEntry, TableItem,
    TerraExpr, TerraFuncDef, TerraParam, TerraQuote, TerraStmt, UnOp,
};
pub use error::{Result, SyntaxError};
pub use lexer::lex;
pub use parser::parse;
pub use prov::{ProvKind, Provenance};
pub use span::Span;
pub use token::{IntSuffix, Tok, Token};
