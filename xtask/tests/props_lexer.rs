//! Property-based tests for the xtask lexer: arbitrary input must never
//! panic, line numbers must stay monotone and in range, and the tricky
//! Rust surface (strings, raw strings, nested comments, lifetimes vs char
//! literals) must tokenize the way the lints rely on.

use proptest::prelude::*;
use xtask::lexer::{escapes, lex, Kind};

/// Fragments biased toward lexer edge cases: unterminated strings, raw
/// strings with varying hash counts, nested comment openers, escapes at
/// end of input, lifetimes next to char literals.
const FRAGMENTS: &[&str] = &[
    "ident",
    "_x",
    "\"",
    "\\",
    "'",
    "'a",
    "'x'",
    "\"str\\\"ing\"",
    "r#\"",
    "\"#",
    "r##\"raw\"##",
    "b\"bytes\"",
    "r#type",
    "//",
    "/*",
    "*/",
    "/* /* nested */",
    "\n",
    "{",
    "}",
    "(",
    ")",
    ".",
    "..",
    "0x1f",
    "1_000",
    "%",
    "é",
    "analyze: allow(deadline, reason)",
];

fn arb_source() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..40).prop_map(|picks| {
        picks.iter().fold(String::new(), |mut acc, &i| {
            acc.push_str(FRAGMENTS.get(i).copied().unwrap_or_default());
            acc.push(' ');
            acc
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The lexer is total: any byte soup lexes without panicking, and
    // every token carries a line number within the input's line count.
    #[test]
    fn lexing_never_panics(src in arb_source()) {
        let lexed = lex(&src);
        let lines = src.lines().count().max(1) as u32;
        let mut prev = 1u32;
        for tok in &lexed.tokens {
            prop_assert!(tok.line >= 1 && tok.line <= lines, "line {} of {}", tok.line, lines);
            prop_assert!(tok.line >= prev, "token lines must be monotone");
            prev = tok.line;
            // Literal text is deliberately dropped (lints never look inside
            // literals); every other kind must carry its spelling.
            prop_assert!(tok.kind == Kind::Literal || !tok.text.is_empty());
        }
        // Escape parsing is total too (it only sees comments).
        let _ = escapes(&lexed.comments);
    }

    // String and comment bodies never leak tokens: idents inside them are
    // invisible to the token stream.
    #[test]
    fn quoted_and_commented_text_is_opaque(word in "[a-z]{4,8}") {
        let src = format!(
            "let a = \"{word}\"; // {word}\n/* {word} */ let b = r#\"{word}\"#;"
        );
        let lexed = lex(&src);
        prop_assert!(
            !lexed.tokens.iter().any(|t| t.kind == Kind::Ident && t.text == word),
            "{word} leaked out of a literal or comment: {:?}",
            lexed.tokens
        );
        // ... while both comments are captured for escape scanning.
        prop_assert_eq!(lexed.comments.len(), 2);
    }
}

/// Deterministic spot checks of the corners the property test is unlikely
/// to assemble whole.
#[test]
fn lexer_edge_cases() {
    // A `"` inside a raw string does not end it; the `#` count does.
    let lexed = lex("let s = r##\"has \"quote\" and #\"# inside\"##; next");
    assert!(lexed.tokens.iter().any(|t| t.is_ident("next")));
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("quote")));

    // A lifetime is not an unterminated char literal: tokens after `'a`
    // still come through.
    let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
    assert_eq!(
        lexed
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .count(),
        3
    );
    assert!(lexed.tokens.iter().any(|t| t.is_ident("x")));

    // Nested block comments: the outer one closes only after both `*/`.
    let lexed = lex("/* a /* b */ still */ visible");
    assert_eq!(lexed.tokens.len(), 1);
    assert!(lexed.tokens[0].is_ident("visible"));

    // Unterminated constructs at end of input must not hang or panic.
    for src in ["\"open", "r#\"open", "/* open", "'", "b\"", "r#"] {
        let _ = lex(src);
    }
}
