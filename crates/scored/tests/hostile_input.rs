//! No panics on hostile input: every text parser reachable from outside
//! the process — the daemon's request lines, JSONL traces and scenario
//! JSON — must answer arbitrary bytes with `Ok` or a structured error.
//!
//! A panic (or a stack overflow) in `parse_request` takes down every
//! tenant of a running daemon, so the property is checked both on
//! arbitrary strings and on valid documents that were truncated or had
//! a byte spliced in (which reach deeper into the shape checks than
//! random text ever does).

use proptest::prelude::*;
use score_scored::proto::{parse_request, Response};
use score_sim::Scenario;
use score_trace::Trace;

/// Checks all three parsers on `text`; they must return, not panic.
fn parse_everything(text: &str) {
    if let Err(resp) = parse_request(text) {
        assert!(
            matches!(&resp, Response::Error { code, .. } if code == "parse"),
            "a rejected request line must be a parse error, got {resp:?}"
        );
    }
    let _ = Trace::from_jsonl(text);
    let _ = Scenario::from_json(text);
}

/// One valid document per parser.
fn valid_documents() -> Vec<String> {
    let trace = Trace::builder(4, 60.0)
        .base_pair(0, 1, 5e6)
        .base_pair(2, 3, 1e6)
        .set_rate(10.0, 0, 2, 3e6)
        .scale_all(20.0, 1.5)
        .marker(30.0, "phase-2")
        .build()
        .expect("valid trace");
    vec![
        r#"{"Traffic": {"events": [{"SetRate": {"u": 0, "v": 1, "rate": 5e6}}]}}"#.to_string(),
        r#"{"Fault": {"events": [{"HostCrash": {"server": 3}}]}}"#.to_string(),
        r#"{"Place": {"server": 2}}"#.to_string(),
        trace.to_jsonl(),
        Scenario::builder().build().to_json(),
    ]
}

#[test]
fn one_deeply_nested_line_is_a_parse_error_not_a_crash() {
    // 100k levels used to recurse once each and overflow the stack of
    // the connection thread parsing it.
    let line = "[".repeat(100_000);
    match parse_request(&line) {
        Err(Response::Error { code, .. }) => assert_eq!(code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(Trace::from_jsonl(&line).is_err());
    assert!(Scenario::from_json(&line).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(0u8..128, 0..512)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn damaged_documents_never_panic(
        doc in 0usize..5,
        cut in 0usize..4096,
        at in 0usize..4096,
        byte in 0u8..128,
    ) {
        let mut bytes = valid_documents()[doc].clone().into_bytes();
        bytes.truncate(cut % (bytes.len() + 1));
        parse_everything(&String::from_utf8_lossy(&bytes));
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] = byte;
        }
        parse_everything(&String::from_utf8_lossy(&bytes));
    }
}
