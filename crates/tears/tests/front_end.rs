//! Property tests for the TEARS text front end: the expression parser,
//! the guarded-assertion syntax and session files return `Ok` or `Err`
//! on any input, never panic, and every accepted expression prints as
//! text that parses back to the same tree.

use proptest::prelude::*;
use vdo_tears::{Expr, GuardedAssertion, Session};

/// The grammar's tokens plus near misses: keywords, identifiers
/// (including `nan`/`inf`), every comparison operator and two broken
/// ones, well- and ill-formed numbers, and whole comparisons so that a
/// good share of sequences parse.
fn token() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        prop::sample::select(vec![
            "(", ")", "and", "or", "not", "x", "load", "a.b", "_t1", "nan", "inf", ">", ">=", "<",
            "<=", "==", "!=", "=", "!", "0", "1", "-5.5", "0.25", "1.", "-", ".", "1e5",
        ]),
        prop::sample::select(vec![
            "x > 1",
            "load <= -5.5",
            "a.b != 0.25",
            "y == inf",
            "q > nan"
        ]),
        prop::sample::select(vec!["(", ")", "and", "or", "not"]),
    ]
}

/// Token sequences, joined with or without spaces.
fn token_text() -> impl Strategy<Value = String> {
    (prop::collection::vec(token(), 0..24), prop::bool::ANY)
        .prop_map(|(tokens, spaced)| tokens.join(if spaced { " " } else { "" }))
}

/// Text the grammar derives, with the `not`/`(`/`and`/`or` forms mixed
/// freely (mostly accepted).
fn grammar_text() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "x > 1",
        "load <= -5.5",
        "a.b != 0.25",
        "y == inf",
        "_t1 < 0",
        "q > nan",
    ])
    .prop_map(str::to_string)
    .prop_recursive(5, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("not {e}")),
            inner.clone().prop_map(|e| format!("not ({e})")),
            inner.clone().prop_map(|e| format!("({e})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a} and {b}")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("{a} or {b}")),
        ]
    })
}

/// Grammar text with one token deleted or one token inserted.
fn mutated_text() -> impl Strategy<Value = String> {
    (grammar_text(), token(), 0..64usize, prop::bool::ANY).prop_map(|(text, tok, at, insert)| {
        let mut words: Vec<&str> = text.split(' ').collect();
        if insert {
            words.insert(at % (words.len() + 1), tok);
        } else {
            words.remove(at % words.len());
        }
        words.join(" ")
    })
}

/// Accepted, near-miss, token-soup and arbitrary text.
fn expr_text() -> impl Strategy<Value = String> {
    prop_oneof![grammar_text(), mutated_text(), token_text(), "\\PC{0,48}"]
}

fn assert_round_trips(text: &str) -> Result<(), TestCaseError> {
    if let Ok(e) = Expr::parse(text) {
        let shown = e.to_string();
        let reparsed = Expr::parse(&shown);
        prop_assert!(
            reparsed.is_ok(),
            "{text:?} displays as unparsable {shown:?}"
        );
        prop_assert_eq!(reparsed.unwrap(), e, "{:?} -> {:?}", text, shown);
    }
    Ok(())
}

proptest! {
    /// `Expr::parse` is total, and accepted trees survive Display.
    #[test]
    fn expressions_parse_or_fail_and_round_trip(text in expr_text()) {
        assert_round_trips(&text)?;
    }

    /// `GuardedAssertion::parse` is total over the concrete syntax with
    /// arbitrary guard/assertion text and bounds, and over arbitrary
    /// strings; accepted parts round-trip like bare expressions.
    #[test]
    fn guarded_assertions_parse_or_fail(
        guard in expr_text(),
        assertion in expr_text(),
        within in prop::sample::select(vec!["", " within 3", " within -1", " within x", " within "]),
        raw in "\\PC{0,64}",
    ) {
        let line = format!("ga \"p\": when {guard} then {assertion}{within}");
        if let Ok(ga) = GuardedAssertion::parse(&line) {
            assert_round_trips(&ga.guard().to_string())?;
            assert_round_trips(&ga.assertion().to_string())?;
        }
        let _ = GuardedAssertion::parse(&raw);
    }

    /// `Session::parse` is total over multi-line files mixing valid,
    /// malformed, blank and comment lines; an error names a line that
    /// exists.
    #[test]
    fn sessions_parse_or_fail(
        lines in prop::collection::vec(
            prop_oneof![
                (expr_text(), expr_text())
                    .prop_map(|(g, a)| format!("ga \"s\": when {g} then {a} within 2")),
                "\\PC{0,40}",
                Just(String::new()),
                Just("# comment".to_string()),
            ],
            0..6,
        ),
    ) {
        let text = lines.join("\n");
        match Session::parse(&text) {
            Ok(session) => prop_assert!(session.len() <= lines.len()),
            Err((line, _)) => prop_assert!(line >= 1 && line <= lines.len()),
        }
    }
}
