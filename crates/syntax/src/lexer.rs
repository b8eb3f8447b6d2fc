//! Lexer for the combined Lua-Terra grammar.
//!
//! One lexer serves both languages: the token set is the union of Lua's and
//! Terra's. Numeric literals keep the integer/float distinction (and C-style
//! suffixes) that Terra needs; the Lua evaluator simply converts integer
//! tokens to doubles.

use crate::error::{Result, SyntaxError};
use crate::span::Span;
use crate::token::{IntSuffix, Tok, Token};
use std::collections::HashMap;
use std::rc::Rc;

/// Lexes `src` completely into a token vector terminated by [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`SyntaxError`] on malformed literals, unterminated strings or
/// comments, or characters outside the grammar.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), terra_syntax::SyntaxError> {
/// let toks = terra_syntax::lex("terra f(x : int) return x end")?;
/// assert!(toks.len() > 5);
/// # Ok(())
/// # }
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
    /// One shared string per identifier spelling in this chunk, so an
    /// identifier used a hundred times costs one allocation.
    names: HashMap<&'a str, Rc<str>>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            out: Vec::new(),
            names: HashMap::new(),
        }
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn err(&self, msg: impl Into<String>, start: usize) -> SyntaxError {
        SyntaxError::new(msg, Span::new(start as u32, self.pos as u32, self.line))
    }

    fn push(&mut self, tok: Tok, start: usize, line: u32) {
        self.out.push(Token {
            tok,
            span: Span::new(start as u32, self.pos as u32, line),
        });
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let line = self.line;
            if self.pos >= self.bytes.len() {
                self.push(Tok::Eof, start, line);
                return Ok(self.out);
            }
            let c = self.peek();
            let tok = match c {
                b'0'..=b'9' => self.number(start)?,
                b'"' | b'\'' => self.short_string(start)?,
                b'[' if self.peek2() == b'[' || self.peek2() == b'=' => {
                    if let Some(s) = self.try_long_string(start)? {
                        s
                    } else {
                        self.bump();
                        Tok::LBracket
                    }
                }
                c if c == b'_' || c.is_ascii_alphabetic() => self.name(),
                b'.' if self.peek2().is_ascii_digit() => self.number(start)?,
                _ => self.symbol(start)?,
            };
            self.push(tok, start, line);
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'-' if self.peek2() == b'-' => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    if self.peek() == b'['
                        && (self.peek2() == b'[' || self.peek2() == b'=')
                        && self.try_long_string(start)?.is_some()
                    {
                        continue;
                    }
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn name(&mut self) -> Tok {
        let start = self.pos;
        while {
            let c = self.peek();
            c == b'_' || c.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        let word = &self.src[start..self.pos];
        Tok::keyword(word).unwrap_or_else(|| {
            Tok::Name(Rc::clone(
                self.names.entry(word).or_insert_with(|| Rc::from(word)),
            ))
        })
    }

    fn number(&mut self, start: usize) -> Result<Tok> {
        // Hex literal
        if self.peek() == b'0' && (self.peek2() | 0x20) == b'x' {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(self.err("malformed hexadecimal literal", start));
            }
            let text = &self.src[digits_start..self.pos];
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.err("hexadecimal literal out of range", start))?;
            let suffix = self.int_suffix();
            return Ok(Tok::Int(value as i64, suffix));
        }

        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if (self.peek() | 0x20) == b'e'
            && (self.peek2().is_ascii_digit()
                || ((self.peek2() == b'+' || self.peek2() == b'-')
                    && self
                        .bytes
                        .get(self.pos + 2)
                        .is_some_and(|c| c.is_ascii_digit())))
        {
            is_float = true;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let text = &self.src[start..self.pos];
        // `f` suffix forces a float literal (e.g. `0.f`, `4f`).
        if (self.peek() | 0x20) == b'f'
            && !self.peek2().is_ascii_alphanumeric()
            && self.peek2() != b'_'
        {
            self.bump();
            let v: f64 = text
                .parse()
                .map_err(|_| self.err("malformed number", start))?;
            return Ok(Tok::Float(v, true));
        }
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err("malformed number", start))?;
            Ok(Tok::Float(v, false))
        } else {
            let suffix = self.int_suffix();
            let v: i64 = text
                .parse()
                .map_err(|_| self.err("integer literal out of range", start))?;
            Ok(Tok::Int(v, suffix))
        }
    }

    fn int_suffix(&mut self) -> IntSuffix {
        let mut unsigned = false;
        let mut long = 0;
        loop {
            match self.peek() | 0x20 {
                b'u' if !unsigned => {
                    unsigned = true;
                    self.bump();
                }
                b'l' if long < 2 => {
                    long += 1;
                    self.bump();
                }
                _ => break,
            }
        }
        match (unsigned, long > 0) {
            (false, false) => IntSuffix::None,
            (true, false) => IntSuffix::U,
            (false, true) => IntSuffix::LL,
            (true, true) => IntSuffix::ULL,
        }
    }

    fn short_string(&mut self, start: usize) -> Result<Tok> {
        let quote = self.bump();
        let mut s = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated string literal", start));
            }
            let c = self.bump();
            if c == quote {
                break;
            }
            if c == b'\n' {
                return Err(self.err("unterminated string literal", start));
            }
            if c == b'\\' {
                let e = self.bump();
                match e {
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    b'r' => s.push('\r'),
                    b'a' => s.push('\x07'),
                    b'b' => s.push('\x08'),
                    b'f' => s.push('\x0c'),
                    b'v' => s.push('\x0b'),
                    b'0'..=b'9' => {
                        let mut v = (e - b'0') as u32;
                        for _ in 0..2 {
                            if self.peek().is_ascii_digit() {
                                v = v * 10 + (self.bump() - b'0') as u32;
                            }
                        }
                        if v > 255 {
                            return Err(self.err("decimal escape out of range", start));
                        }
                        s.push(v as u8 as char);
                    }
                    b'\\' | b'"' | b'\'' => s.push(e as char),
                    b'\n' => s.push('\n'),
                    _ => return Err(self.err("invalid escape sequence", start)),
                }
            } else if c.is_ascii() {
                s.push(c as char);
            } else {
                // The lead byte of a multi-byte character of the (UTF-8)
                // source: the literal holds the character, not its bytes
                // read as Latin-1.
                let ch = self.src[self.pos - 1..]
                    .chars()
                    .next()
                    .expect("a lead byte");
                s.push(ch);
                self.pos += ch.len_utf8() - 1;
            }
        }
        Ok(Tok::Str(Rc::from(s.as_str())))
    }

    /// Attempts `[[ … ]]` / `[=[ … ]=]`. Returns `Ok(None)` if the bracket is
    /// not actually a long-string opener (so the caller can emit `[`).
    fn try_long_string(&mut self, start: usize) -> Result<Option<Tok>> {
        let save_pos = self.pos;
        let save_line = self.line;
        debug_assert_eq!(self.peek(), b'[');
        self.bump();
        let mut level = 0;
        while self.peek() == b'=' {
            level += 1;
            self.bump();
        }
        if self.peek() != b'[' {
            self.pos = save_pos;
            self.line = save_line;
            return Ok(None);
        }
        self.bump();
        if self.peek() == b'\n' {
            self.bump();
        }
        let body_start = self.pos;
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated long string", start));
            }
            if self.peek() == b']' {
                let close_start = self.pos;
                self.bump();
                let mut eq = 0;
                while self.peek() == b'=' {
                    eq += 1;
                    self.bump();
                }
                if eq == level && self.peek() == b']' {
                    self.bump();
                    let body = &self.src[body_start..close_start];
                    return Ok(Some(Tok::Str(Rc::from(body))));
                }
            } else {
                self.bump();
            }
        }
    }

    fn symbol(&mut self, start: usize) -> Result<Tok> {
        let c = self.bump();
        Ok(match c {
            b'+' => Tok::Plus,
            b'-' => {
                if self.peek() == b'>' {
                    self.bump();
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'%' => Tok::Percent,
            b'^' => Tok::Caret,
            b'#' => Tok::Hash,
            b'&' => Tok::Amp,
            b'|' => Tok::Pipe,
            b'~' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Ne
                } else {
                    Tok::Tilde
                }
            }
            b'<' => match self.peek() {
                b'=' => {
                    self.bump();
                    Tok::Le
                }
                b'<' => {
                    self.bump();
                    Tok::Shl
                }
                _ => Tok::Lt,
            },
            b'>' => match self.peek() {
                b'=' => {
                    self.bump();
                    Tok::Ge
                }
                b'>' => {
                    self.bump();
                    Tok::Shr
                }
                _ => Tok::Gt,
            },
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Eq
                } else {
                    Tok::Assign
                }
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b',' => Tok::Comma,
            b'.' => {
                if self.peek() == b'.' {
                    self.bump();
                    if self.peek() == b'.' {
                        self.bump();
                        Tok::Ellipsis
                    } else {
                        Tok::DotDot
                    }
                } else {
                    Tok::Dot
                }
            }
            b'@' => Tok::At,
            b'`' => Tok::Backtick,
            _ => return Err(self.err(format!("unexpected character '{}'", c as char), start)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn one_shared_string_per_spelling() {
        let toks = lex("local foo = foo + bar").unwrap();
        let names: Vec<&Rc<str>> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Name(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), 3);
        assert!(Rc::ptr_eq(names[0], names[1]));
        assert!(!Rc::ptr_eq(names[0], names[2]));
    }

    #[test]
    fn lexes_keywords_and_names() {
        let ts = kinds("terra min(a: int) end");
        assert_eq!(ts[0], Tok::Terra);
        assert_eq!(ts[1], Tok::Name("min".into()));
        assert_eq!(ts[2], Tok::LParen);
        assert!(matches!(ts.last(), Some(Tok::Eof)));
    }

    #[test]
    fn integer_and_float_literals() {
        assert_eq!(kinds("42")[0], Tok::Int(42, IntSuffix::None));
        assert_eq!(kinds("42ULL")[0], Tok::Int(42, IntSuffix::ULL));
        assert_eq!(kinds("42LL")[0], Tok::Int(42, IntSuffix::LL));
        assert_eq!(kinds("0x10")[0], Tok::Int(16, IntSuffix::None));
        assert_eq!(kinds("3.5")[0], Tok::Float(3.5, false));
        assert_eq!(kinds("1e3")[0], Tok::Float(1000.0, false));
        assert_eq!(kinds("0.f")[0], Tok::Float(0.0, true));
        assert_eq!(kinds("4.f")[0], Tok::Float(4.0, true));
    }

    #[test]
    fn float_suffix_does_not_eat_identifiers() {
        // `4for` should not lex `4f` + `or`.
        let ts = kinds("for i = 0,4 do end");
        assert_eq!(ts[0], Tok::For);
    }

    #[test]
    fn range_dots_after_int() {
        let ts = kinds("0 .. 3");
        assert_eq!(ts[0], Tok::Int(0, IntSuffix::None));
        assert_eq!(ts[1], Tok::DotDot);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds(r#""a\nb""#)[0], Tok::Str("a\nb".into()));
        assert_eq!(kinds(r#"'q'"#)[0], Tok::Str("q".into()));
        assert_eq!(kinds(r#""\65""#)[0], Tok::Str("A".into()));
    }

    #[test]
    fn non_ascii_text_in_a_string_is_kept_as_written() {
        assert_eq!(kinds("'naïve — ✓'")[0], Tok::Str("naïve — ✓".into()));
        assert_eq!(kinds("\"日本\" x")[1], Tok::Name("x".into()));
        assert_eq!(kinds("[[ï]]")[0], Tok::Str("ï".into()));
    }

    #[test]
    fn long_strings_and_comments() {
        assert_eq!(kinds("[[hello]]")[0], Tok::Str("hello".into()));
        assert_eq!(kinds("[==[a]b]==]")[0], Tok::Str("a]b".into()));
        let ts = kinds("1 --[[ block\ncomment ]] 2");
        assert_eq!(ts[0], Tok::Int(1, IntSuffix::None));
        assert_eq!(ts[1], Tok::Int(2, IntSuffix::None));
        let ts = kinds("1 -- line comment\n2");
        assert_eq!(ts[1], Tok::Int(2, IntSuffix::None));
    }

    #[test]
    fn bracket_not_long_string() {
        // `[ [` with a space is two brackets; `[x]` is brackets around a name.
        let ts = kinds("a[1]");
        assert_eq!(ts[1], Tok::LBracket);
        assert_eq!(ts[3], Tok::RBracket);
        let ts = kinds("[=x");
        assert_eq!(ts[0], Tok::LBracket);
    }

    #[test]
    fn operators() {
        let ts = kinds("a ~= b == c <= d >= e < f > g .. h -> i");
        assert!(ts.contains(&Tok::Ne));
        assert!(ts.contains(&Tok::Eq));
        assert!(ts.contains(&Tok::Le));
        assert!(ts.contains(&Tok::Ge));
        assert!(ts.contains(&Tok::DotDot));
        assert!(ts.contains(&Tok::Arrow));
    }

    #[test]
    fn terra_specific_symbols() {
        let ts = kinds("@p &x `e");
        assert_eq!(ts[0], Tok::At);
        assert_eq!(ts[2], Tok::Amp);
        assert_eq!(ts[4], Tok::Backtick);
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("$").is_err());
        assert!(lex("[[never closed").is_err());
    }
}
