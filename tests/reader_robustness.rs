//! Robustness of the readers of outside bytes behind `cpe diff` and
//! `cpe validate`: the JSON reader (`parse_json`, for whole documents and
//! for JSONL lines) and the Konata pipeview validator.
//!
//! Every input gives `Ok` or a diagnosis naming where it went wrong,
//! never a panic. Every JSON value the reader accepts holds only finite
//! numbers, and rendering it back and re-reading it gives the same value.
//! Inputs are arbitrary bytes, token soups built from each format's own
//! syntax, and real artifacts (a profile metrics document, a Konata
//! export) with one byte overwritten.

use std::sync::OnceLock;

use cpe::exec::render::render;
use cpe::trace::{build_records, konata_text, validate_konata};
use cpe::workloads::{Scale, Workload};
use cpe::{parse_json, profile_json, JsonValue, ProfileOptions, SimConfig, Simulator};
use proptest::prelude::*;

/// A real profile metrics document and a real Konata export of the same
/// run, computed once.
fn artifacts() -> &'static (String, String) {
    static ARTIFACTS: OnceLock<(String, String)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let sim = Simulator::new(SimConfig::combined_single_port());
        let options = ProfileOptions {
            ring_capacity: 4_096,
            ..ProfileOptions::default()
        };
        let run = sim
            .try_profile(Workload::Compress, Scale::Test, Some(500), options)
            .expect("profile runs");
        let konata = konata_text(&build_records(&run.events));
        (profile_json(&run, sim.config()), konata)
    })
}

fn all_finite(value: &JsonValue) -> bool {
    match value {
        JsonValue::Number(n) => n.is_finite(),
        JsonValue::Array(items) => items.iter().all(all_finite),
        JsonValue::Object(members) => members.iter().all(|(_, member)| all_finite(member)),
        JsonValue::Null | JsonValue::Bool(_) | JsonValue::Text(_) => true,
    }
}

/// The JSON reader's contract on one input.
fn check_json(text: &str) -> Result<(), TestCaseError> {
    match parse_json(text) {
        Ok(value) => {
            prop_assert!(all_finite(&value), "non-finite number accepted: {text:?}");
            let rendered = render(&value);
            prop_assert_eq!(parse_json(&rendered), Ok(value), "render of {:?}", text);
        }
        Err(error) => prop_assert!(error.starts_with("byte "), "{error}"),
    }
    Ok(())
}

/// The Konata validator's contract on one input.
fn check_konata(text: &str) -> Result<(), TestCaseError> {
    match validate_konata(text) {
        Ok(summary) => {
            prop_assert!(summary.instructions <= text.lines().count());
            prop_assert!(summary.retired <= text.lines().count());
        }
        Err(error) => prop_assert!(
            error.starts_with("line ") || error == "empty file",
            "{error}"
        ),
    }
    Ok(())
}

/// `bytes` with the byte at `position` replaced, as text.
fn overwrite(text: &str, position: prop::sample::Index, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = position.index(bytes.len());
    bytes[at] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn real_artifacts_are_accepted() {
    let (document, konata) = artifacts();
    let value = parse_json(document).expect("the profile document parses");
    assert!(all_finite(&value));
    assert_eq!(parse_json(&render(&value)), Ok(value));
    let summary = validate_konata(konata).expect("the Konata export validates");
    assert!(summary.instructions > 0, "the export is not empty");
}

#[test]
fn out_of_range_numbers_are_refused() {
    for text in ["1e999", "-1e999", "[0,1E400]", "{\"x\":1e999}"] {
        let error = parse_json(text).expect_err(text);
        assert!(error.contains("number out of range"), "{text}: {error}");
    }
}

#[test]
fn konata_cycle_overflow_is_refused() {
    let text = "Kanata\t0004\nC=\t5\nC\t18446744073709551615\n";
    let error = validate_konata(text).expect_err("the cycle count overflows");
    assert!(error.starts_with("line 3: "), "{error}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, as a JSON document and as a Konata file.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let text = String::from_utf8_lossy(&bytes);
        check_json(&text)?;
        check_konata(&text)?;
        check_konata(&format!("Kanata\t0004\n{text}"))?;
    }

    /// Near-miss JSON: random sequences of JSON tokens, numbers at and
    /// beyond the edges of `f64` included.
    #[test]
    fn json_token_soup_keeps_the_contract(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "]", ",", ":", " ", "\"a\"", "\"\\u0000\"", "\"\\ud800\"",
                "\"x\\\"y\\n\"", "0", "-0", "1.5", "-2.5e3", "1e308", "1.7976931348623157e308",
                "1e309", "1e999", "-1e999", "1e-999", "5e-324", "9007199254740993", "true",
                "false", "null",
            ]),
            0..40,
        ),
    ) {
        check_json(&tokens.concat())?;
    }

    /// Near-miss Konata: random command lines after a valid header.
    #[test]
    fn konata_token_soup_keeps_the_contract(
        lines in prop::collection::vec(
            (
                prop::sample::select(vec!["C=", "C", "I", "L", "S", "E", "R", "W", "X", ""]),
                prop::collection::vec(
                    prop::sample::select(vec![
                        "0", "1", "2", "7", "18446744073709551615", "-1", "x", "", "F",
                    ]),
                    0..4,
                ),
            ),
            0..30,
        ),
    ) {
        let mut text = String::from("Kanata\t0004\n");
        for (command, fields) in &lines {
            text.push_str(command);
            for field in fields {
                text.push('\t');
                text.push_str(field);
            }
            text.push('\n');
        }
        check_konata(&text)?;
    }

    /// A real profile document with one byte overwritten.
    #[test]
    fn damaged_profile_documents_keep_the_contract(
        position in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        check_json(&overwrite(&artifacts().0, position, byte))?;
    }

    /// A real Konata export with one byte overwritten.
    #[test]
    fn damaged_konata_exports_keep_the_contract(
        position in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        check_konata(&overwrite(&artifacts().1, position, byte))?;
    }
}
