//! Property fuzz over every parser the network boundary exposes to
//! attacker-controlled bytes: the HTTP request and response readers,
//! the JSON envelope parser, and the scenario config parser. The invariant is
//! the same everywhere: **arbitrary bytes never panic, never allocate
//! unboundedly, and fail only with the parser's typed error** — the
//! process keeps serving no matter what arrives on the socket.

use kibamrm::Scenario;
use kibamrm_net::client::read_response;
use kibamrm_net::http::read_request;
use kibamrm_net::{HttpLimits, Json};
use proptest::prelude::*;
use std::io::Cursor;

/// Bytes that lean towards HTTP-ish structure so the fuzz spends its
/// budget past the first guard, not rejected at byte 0.
fn http_flavoured(raw: &[u8], shape: u8) -> Vec<u8> {
    let mut wire = Vec::new();
    match shape % 4 {
        0 => wire.extend_from_slice(b"POST /query HTTP/1.1\r\n"),
        1 => wire.extend_from_slice(b"GET /stats HTTP/1.1\r\ncontent-length: "),
        2 => wire.extend_from_slice(b"POST /query HTTP/1.1\r\ncontent-length: 4\r\n\r\n"),
        _ => {}
    }
    wire.extend_from_slice(raw);
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The HTTP parser survives arbitrary bytes: a typed error or a
    /// valid request, never a panic, and the parsed body never exceeds
    /// the configured cap. The client's response reader, which shares
    /// the parser's steps, survives the same bytes.
    #[test]
    fn http_parser_survives_arbitrary_bytes(
        raw in collection::vec(0u8..=255u8, 0..600),
        shape in 0u8..=7u8,
    ) {
        let limits = HttpLimits {
            max_head_bytes: 256,
            max_body_bytes: 128,
            max_headers: 8,
        };
        let wire = http_flavoured(&raw, shape);
        if let Err(e) = read_response(&mut Cursor::new(&wire)) {
            let _ = e.to_string();
        }
        let mut cursor = Cursor::new(wire);
        match read_request(&mut cursor, &limits) {
            Ok(request) => {
                prop_assert!(request.body.len() <= limits.max_body_bytes);
                prop_assert!(request.headers.len() <= limits.max_headers);
                prop_assert!(!request.method.is_empty());
                prop_assert!(request.target.starts_with('/'));
            }
            Err(e) => {
                // The error formats without panicking too.
                let _ = e.to_string();
            }
        }
    }

    /// The JSON parser survives arbitrary bytes (including deep
    /// nesting, broken escapes and truncated literals).
    #[test]
    fn json_parser_survives_arbitrary_bytes(
        raw in collection::vec(0u8..=255u8, 0..400),
        nesting in 0usize..=100,
        shape in 0u8..=3u8,
    ) {
        let mut text = String::new();
        match shape {
            0 => text.push_str(&"[".repeat(nesting)),
            1 => {
                text.push_str("{\"scenario\": \"");
                text.push_str(&String::from_utf8_lossy(&raw));
            }
            _ => {}
        }
        text.push_str(&String::from_utf8_lossy(&raw));
        match Json::parse(&text) {
            Ok(v) => {
                // A parsed value renders its accessors safely.
                let _ = (v.as_f64(), v.as_str(), v.as_bool(), v.get("x"));
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }

    /// The scenario config parser survives arbitrary text: typed
    /// error or a scenario whose canonical form round-trips.
    #[test]
    fn scenario_parser_survives_arbitrary_text(
        raw in collection::vec(0u8..=255u8, 0..400),
    ) {
        let text = String::from_utf8_lossy(&raw).into_owned();
        match Scenario::from_config_str(&text) {
            Ok(scenario) => {
                let round = scenario.to_config_string().unwrap();
                prop_assert_eq!(
                    Scenario::from_config_str(&round)
                        .unwrap()
                        .canonical_bytes()
                        .unwrap(),
                    scenario.canonical_bytes().unwrap()
                );
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }

    /// Mutations of a *valid* scenario config — single byte flips and
    /// truncations — exercise the parser's deep paths without panics,
    /// and accepted mutants still round-trip canonically.
    #[test]
    fn mutated_valid_configs_never_panic(
        flip_at in 0usize..2048,
        flip_bit in 0u8..8,
        truncate_to in 0usize..2048,
    ) {
        let base = Scenario::paper_cell_phone()
            .unwrap()
            .to_config_string()
            .unwrap()
            .into_bytes();
        let mut mutant = base.clone();
        let at = flip_at % mutant.len();
        mutant[at] ^= 1 << flip_bit;
        mutant.truncate(truncate_to % (mutant.len() + 1));
        let text = String::from_utf8_lossy(&mutant).into_owned();
        if let Ok(scenario) = Scenario::from_config_str(&text) {
            let round = scenario.to_config_string().unwrap();
            prop_assert!(Scenario::from_config_str(&round).is_ok());
        }
    }

    /// Hostile `Content-Length` values never cause an over-cap
    /// allocation: the parser refuses before reading the body.
    #[test]
    fn content_length_is_enforced_before_allocation(
        declared in 0u64..=u64::MAX / 2,
        actual in 0usize..64,
    ) {
        let limits = HttpLimits {
            max_head_bytes: 512,
            max_body_bytes: 32,
            max_headers: 8,
        };
        let mut wire = format!(
            "POST /query HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n"
        )
        .into_bytes();
        wire.extend(std::iter::repeat_n(b'x', actual));
        let mut cursor = Cursor::new(wire);
        match read_request(&mut cursor, &limits) {
            Ok(request) => {
                prop_assert_eq!(request.body.len() as u64, declared);
                prop_assert!(declared <= limits.max_body_bytes as u64);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}
