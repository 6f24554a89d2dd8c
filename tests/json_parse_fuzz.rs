//! Parser fuzzing: `Json::parse` never panics, and every document it
//! accepts renders and parses back to an equal value.
//!
//! Four input families: arbitrary text (raw code points mixed with
//! JSON tokens, so the grammar is reached past the first byte),
//! number-shaped text, and truncations and single-byte mutations of a rendered smoke report — the
//! kind of document the parser reads back in practice.

use pcs::scenarios;
use pcs_harness::{run_sweep, Json, SweepParams};
use proptest::prelude::*;
use std::sync::LazyLock;

/// The `failures` smoke report: nested objects and arrays, integers,
/// floats, nulls and escaped labels in a few kilobytes.
static REPORT: LazyLock<String> = LazyLock::new(|| {
    let name = "failures";
    let scenario = scenarios::find(name).expect("scenario registered");
    let params = SweepParams {
        seed: scenario.default_seed,
        smoke: true,
        ..SweepParams::default()
    };
    let plan = scenario.plan(&params).unwrap();
    run_sweep(&plan, &params).to_json(name, &params).render()
});

/// Pieces of JSON syntax, including near-misses (`nul`, lone surrogate
/// escapes, out-of-range exponents) and whitespace.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\n",
    "\\",
    "\\u",
    "d83d",
    "dc00",
    "\\n",
    "0",
    "1",
    "7",
    "999",
    "-",
    "+",
    ".",
    "e",
    "E",
    "null",
    "true",
    "false",
    "nul",
    "a",
    "é",
    "\u{1f600}",
];

/// Arbitrary text: each piece is a token or a raw code point (invalid
/// scalar values become U+FFFD).
fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..TOKENS.len() + 4, 0u32..=0x10ffff), 0..12).prop_map(|pieces| {
        let mut text = String::new();
        for (token, code) in pieces {
            match TOKENS.get(token) {
                Some(t) => text.push_str(t),
                None => text.push(char::from_u32(code).unwrap_or('\u{fffd}')),
            }
        }
        text
    })
}

/// Number-shaped text: optional sign, digit runs (empty or with leading
/// zeros too), optional fraction and exponent of up to four digits, so
/// exponents run well past `f64`'s range.
fn number_text() -> impl Strategy<Value = String> {
    let digits = |max| proptest::collection::vec(0u8..10, 0..max);
    let fraction = (0..2usize, digits(4));
    let exponent = (0..3usize, 0..3usize, digits(5));
    (0..2usize, digits(24), fraction, exponent).prop_map(|(neg, int, fraction, exponent)| {
        let run = |d: Vec<u8>| {
            d.into_iter()
                .map(|d| char::from(b'0' + d))
                .collect::<String>()
        };
        let mut text = String::from(["", "-"][neg]);
        text += &run(int);
        if let (1, frac) = fraction {
            text.push('.');
            text += &run(frac);
        }
        if let (e @ 1.., sign, exp) = exponent {
            text += ["e", "E"][e - 1];
            text += ["", "+", "-"][sign];
            text += &run(exp);
        }
        text
    })
}

/// Parses `text` (a panic fails the test); an accepted document must
/// survive a render and re-parse unchanged, and render stably.
fn check_round_trip(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = Json::parse(text) {
        let rendered = value.render();
        let reparsed = Json::parse(&rendered);
        prop_assert!(
            reparsed.as_ref() == Ok(&value),
            "{:?} parsed to {:?}, which renders as {:?} and re-parses to {:?}",
            text,
            value,
            rendered,
            reparsed
        );
        prop_assert_eq!(reparsed.unwrap().render(), rendered);
    }
    Ok(())
}

#[test]
fn rendered_report_round_trips() {
    let value = Json::parse(&REPORT).expect("the report parses");
    assert_eq!(value.render(), *REPORT);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_text_never_panics_and_accepted_text_round_trips(text in arbitrary_text()) {
        check_round_trip(&text)?;
    }

    #[test]
    fn number_text_never_panics_and_accepted_numbers_round_trip(text in number_text()) {
        check_round_trip(&text)?;
        check_round_trip(&format!("[{text},{text}]"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_report_never_panics(cut in 0..REPORT.len()) {
        let bytes = &REPORT.as_bytes()[..cut];
        prop_assert!(Json::parse(&String::from_utf8_lossy(bytes)).is_err());
    }

    #[test]
    fn mutated_report_never_panics_and_accepted_text_round_trips(
        at in 0..REPORT.len(),
        byte in 0u8..=255,
    ) {
        let mut bytes = REPORT.as_bytes().to_vec();
        bytes[at] = byte;
        check_round_trip(&String::from_utf8_lossy(&bytes))?;
    }
}
