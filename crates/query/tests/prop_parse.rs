//! The parser is a malformed-input surface: whatever text a client sends,
//! `parse_query` answers with a query that validates or a typed
//! [`QueryError`], and never unwinds. Inputs are the paper's queries and
//! the empty string, edited by inserting grammar tokens, printable ASCII
//! and arbitrary bytes (invalid UTF-8 arrives as U+FFFD, which is how a
//! server turns bytes into text), by deleting runs and by truncating.
//!
//! Cases run under `catch_unwind`; in a debug build an integer overflow is
//! a panic too. The proptest shim does not shrink, so a failure prints the
//! whole input.

use std::panic::catch_unwind;

use proptest::prelude::*;
use sqo_catalog::example::figure21;
use sqo_query::{parse_query, QueryError};

/// Queries over the paper's Figure 2.1 schema that parse and validate.
const SEEDS: [&str; 3] = [
    r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
        {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
        {collects, supplies} {supplier, cargo, vehicle})"#,
    r#"(SELECT {driver.name} {driver.license_class >= vehicle.class}
        {driver.license_class != 0, vehicle.class <= 5} {drives} {driver, vehicle})"#,
    r#"(SELECT {vehicle.vehicle_no, cargo.desc="frozen food"} {}
        {cargo.desc = "frozen food"} {collects} {cargo, vehicle})"#,
];

/// The grammar's own tokens and some lookalikes, so edits reach past the
/// first byte the lexer reads.
const TOKENS: [&str; 24] = [
    "(",
    ")",
    "{",
    "}",
    ",",
    "\"",
    "=",
    "!=",
    "<>",
    "<=",
    ">=",
    "<",
    ">",
    "SELECT",
    "true",
    "vehicle.desc",
    "cargo.quantity",
    "collects",
    "supplier",
    "-",
    "9223372036854775808",
    "1.5",
    "-0.0",
    "x.",
];

fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        (0x20u8..0x7f).prop_map(|b| vec![b]),
        (0u8..=255).prop_map(|b| vec![b]),
    ]
}

/// One edit: 0 inserts the fragment, 1 deletes as many bytes as it has,
/// 2 truncates; `at` is reduced modulo the input length.
fn edit() -> impl Strategy<Value = (u8, usize, Vec<u8>)> {
    (0u8..3, 0usize..4096, fragment())
}

fn apply(mut text: Vec<u8>, edits: &[(u8, usize, Vec<u8>)]) -> Vec<u8> {
    for (kind, at, frag) in edits {
        let at = at % (text.len() + 1);
        match kind {
            0 => drop(text.splice(at..at, frag.iter().copied())),
            1 => drop(text.drain(at..(at + frag.len()).min(text.len()))),
            _ => text.truncate(at),
        }
    }
    text
}

/// Parses `bytes` as a server would, and fails the test if that unwinds
/// or accepts a query that does not validate.
fn parse_is_total(bytes: &[u8]) -> Result<(), QueryError> {
    let catalog = figure21().expect("the paper catalog builds");
    let text = String::from_utf8_lossy(bytes);
    let parsed = catch_unwind(|| parse_query(&text, &catalog))
        .unwrap_or_else(|_| panic!("parse_query unwound on {text:?} (bytes {bytes:?})"));
    let query = parsed?;
    assert_eq!(query.validate(&catalog), Ok(()), "accepted an invalid query from {text:?}");
    Ok(())
}

#[test]
fn the_seeds_parse() {
    for seed in SEEDS {
        assert_eq!(parse_is_total(seed.as_bytes()), Ok(()), "{seed}");
    }
}

proptest! {
    #[test]
    fn parsing_edited_text_never_unwinds(
        seed in 0usize..SEEDS.len() + 1,
        edits in prop::collection::vec(edit(), 1..12),
    ) {
        let base = SEEDS.get(seed).map_or(Vec::new(), |s| s.as_bytes().to_vec());
        let _ = parse_is_total(&apply(base, &edits));
    }

    #[test]
    fn parsing_arbitrary_bytes_never_unwinds(
        frags in prop::collection::vec(fragment(), 0..64),
    ) {
        let _ = parse_is_total(&frags.concat());
    }
}
