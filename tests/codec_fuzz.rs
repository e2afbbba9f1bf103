//! Property tests on the JSON codec and every parser built on it: the wire request
//! and response parsers and the bench baseline parser return `Ok` or `Err` on any
//! input — random JSON-ish token soup and random edits of valid messages — and
//! never panic; and every string survives `escape` → `parse` unchanged.

use std::time::Duration;

use bench::gate::{parse_report, render_json, Record};
use proptest::prelude::*;
use spack_concretizer::json::{self, Json};
use spack_concretizer::server::wire::{self, SolveResponse};

/// Fragments that steer random input into every branch of the parser: structure,
/// literals, numbers at and past the integer range, every escape, the field names
/// the wire and report readers look up, and multi-byte characters.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", " ", "\n", "\"", "\\", "\\u", "\\/", "\\b", "d83d",
    "de00", "00", "zz", "true", "false", "null", "tru", "0", "-", "-1", "1.5e3", "1e999",
    ".", "e", "340282366920938463463374607431768211456", "18446744073709551616", "\"v\"",
    "\"id\"", "\"specs\"", "\"cmd\"", "\"update\"", "\"stats\"", "\"shutdown\"",
    "\"options\"", "\"reuse\"", "\"seed\"", "\"retries\"", "\"add_versions\"",
    "\"install\"", "\"package\"", "\"version\"", "\"status\"", "\"ok\"", "\"unsat\"",
    "\"diagnostics\"", "\"result\"", "\"cost\"", "\"reused\"", "\"results\"", "\"group\"",
    "\"bench\"", "\"mean_s\"", "\"counters\"", "\"zlib\"", "\u{e9}", "\u{1f600}", "\u{0}",
];

/// Valid messages of every kind the parsers read, as seeds for random edits.
fn seeds() -> Vec<String> {
    let unsat = SolveResponse::failure("7", "zlib@9.9", wire::SolveStatus::Unsat, "no \"valid\"");
    let report = render_json(
        "fuzz",
        "small",
        &[Record {
            group: "g",
            bench: "b".to_string(),
            samples: 3,
            mean: Duration::from_millis(12),
            min: Duration::from_millis(10),
            stages: vec![("ground", 0.01)],
            counters: vec![("atoms", 100), ("rules", 200)],
        }],
    );
    vec![
        r#"{"v": 1, "id": "a", "specs": ["hdf5 ^mpich"], "options": {"reuse": true, "deadline_ms": 5000, "seed": 3}}"#.to_string(),
        r#"{"v": 1, "id": "u", "cmd": "update", "add_versions": [{"package": "zlib", "version": "2.0"}], "install": ["hdf5"]}"#.to_string(),
        unsat.render(),
        r#"{"v": 1, "id": "2", "spec": "zlib", "status": "ok", "retries": 0, "diagnostics": [], "result": {"packages": 1, "reused": [["zlib", "abc"]], "built": [], "cost": [[61, 2]], "optimal": true, "dag": "zlib@1.2.12\n"}}"#.to_string(),
        report,
    ]
}

/// Apply `(position, kind, token)` edits to `base`: delete a character, insert a
/// token, or truncate.
fn mutate(base: &str, edits: &[(usize, u8, usize)]) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for &(pos, kind, token) in edits {
        let at = pos % (chars.len() + 1);
        match kind {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => {
                let token = TOKENS[token % TOKENS.len()];
                chars.splice(at..at, token.chars());
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// Every parser that reads outside bytes, on one input. Each must return.
fn parse_everything(text: &str) {
    let _ = json::parse(text);
    let _ = wire::parse_request(text);
    let _ = SolveResponse::parse(text);
    let _ = parse_report(text);
}

/// Characters from every range `escape` treats differently: control characters,
/// printable ASCII (quotes and backslashes included), the rest of the BMP, and
/// characters outside the BMP.
fn any_char() -> impl Strategy<Value = char> {
    (0u32..4, any::<u32>()).prop_map(|(bucket, n)| {
        let code = match bucket {
            0 => n % 0x20,
            1 => 0x20 + n % 0x60,
            2 => 0x80 + n % (0xd800 - 0x80),
            _ => 0x10000 + n % (0x110000 - 0x10000),
        };
        char::from_u32(code).expect("no surrogates are drawn")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parsers_never_panic_on_token_soup(
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        parse_everything(&text);
    }

    #[test]
    fn parsers_never_panic_on_edited_messages(
        seed in 0usize..5,
        edits in proptest::collection::vec((0usize..4096, 0u8..3, 0usize..1024), 1..6),
    ) {
        let seeds = seeds();
        parse_everything(&mutate(&seeds[seed], &edits));
    }

    #[test]
    fn every_string_roundtrips_through_escape_and_parse(
        chars in proptest::collection::vec(any_char(), 0..32),
    ) {
        let s: String = chars.into_iter().collect();
        let literal = format!("\"{}\"", json::escape(&s));
        prop_assert_eq!(json::parse(&literal), Ok(Json::Str(s)));
    }
}
