//! Robustness properties for the front end: the lexer and parser must never
//! panic — on arbitrary bytes they either parse or return a `SyntaxError`.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary strings never panic the lexer or parser.
    #[test]
    fn parser_total_on_arbitrary_strings(src in ".{0,200}") {
        let _ = terra_syntax::parse(&src);
    }

    /// Arbitrary *token-ish* soup (keywords, symbols, numbers) never panics.
    #[test]
    fn parser_total_on_token_soup(toks in proptest::collection::vec(
        prop_oneof![
            Just("terra"), Just("quote"), Just("end"), Just("function"),
            Just("var"), Just("struct"), Just("for"), Just("do"), Just("in"),
            Just("["), Just("]"), Just("("), Just(")"), Just("{"), Just("}"),
            Just("="), Just("=="), Just(","), Just(":"), Just(";"), Just("+"),
            Just("-"), Just("*"), Just("@"), Just("&"), Just("`"), Just("->"),
            Just("x"), Just("y"), Just("42"), Just("1.5"), Just("\"s\""),
            Just("return"), Just("if"), Just("then"), Just("else"),
            Just("local"), Just("nil"), Just("..."), Just(".."),
        ],
        0..60,
    )) {
        let src = toks.join(" ");
        let _ = terra_syntax::parse(&src);
    }

    /// Valid numeric literals always lex to a single literal token + EOF.
    #[test]
    fn numeric_literals_lex(v in any::<u32>()) {
        let toks = terra_syntax::lex(&format!("{v}")).unwrap();
        prop_assert_eq!(toks.len(), 2);
        let toks = terra_syntax::lex(&format!("{v}.5")).unwrap();
        prop_assert_eq!(toks.len(), 2);
        let toks = terra_syntax::lex(&format!("0x{v:x}")).unwrap();
        prop_assert_eq!(toks.len(), 2);
    }

    /// Any identifier-shaped string round-trips through the lexer.
    #[test]
    fn identifiers_lex(name in "[a-zA-Z_][a-zA-Z0-9_]{0,20}") {
        let toks = terra_syntax::lex(&name).unwrap();
        prop_assert_eq!(toks.len(), 2);
    }

    /// Escaped string literals round-trip their content.
    #[test]
    fn strings_roundtrip(content in "[a-zA-Z0-9 _.,;!?-]{0,40}") {
        let src = format!("{content:?}"); // rust debug quoting == lua-compatible here
        let toks = terra_syntax::lex(&src).unwrap();
        match &toks[0].tok {
            terra_syntax::Tok::Str(s) => prop_assert_eq!(s.as_ref(), content.as_str()),
            other => prop_assert!(false, "expected string, got {other:?}"),
        }
    }

    /// Generated well-formed terra functions always parse.
    #[test]
    fn wellformed_terra_parses(nparams in 1usize..5, nstmts in 0usize..6) {
        let params: Vec<String> =
            (0..nparams).map(|i| format!("p{i} : int")).collect();
        let mut body = String::new();
        for i in 0..nstmts {
            body.push_str(&format!("var v{i} = p0 + {i}\n"));
        }
        let src = format!(
            "terra f({}) : int\n{body}return p0 end",
            params.join(", ")
        );
        let chunk = terra_syntax::parse(&src).unwrap();
        prop_assert_eq!(chunk.stmts.len(), 1);
    }
}

/// Nesting 10 000 deep — parentheses in Lua and in a `terra` body, `do`
/// blocks, table constructors — is a `SyntaxError` with its line, not a
/// host stack overflow, on a 2 MiB thread (the default for a spawned one).
#[test]
fn deep_nesting_is_a_syntax_error() {
    const N: usize = 10_000;
    let nest = |open: &str, close: &str, inner: &str| {
        format!("{}{inner}{}", open.repeat(N), close.repeat(N))
    };
    let shapes = [
        format!("print({})", nest("(", ")", "1")),
        format!("terra f() : int return {} end", nest("(", ")", "1")),
        nest("do ", " end", ""),
        format!("x = {}", nest("{", "}", "")),
        format!("terra f() {} end", nest("do ", " end", "")),
    ];
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for src in shapes {
                let e = terra_syntax::parse(&src).expect_err(&src[..40]);
                assert!(e.message().contains("too many syntax levels"), "{e}");
                assert_eq!(e.span().line, 1, "{e}");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
