//! Field-by-field comparison of two exported JSON documents — the
//! regression gate behind `cpe diff`.
//!
//! The workspace carries no serialization dependency, so this module
//! brings its own minimal JSON reader: enough to parse the closed set of
//! documents this suite writes ([`crate::profile_json`], bench reports)
//! plus any well-formed JSON a CI pipeline might hand it. Documents are
//! flattened to dotted leaf paths (`summary.ipc`,
//! `epochs[3].load_latency_p50`) and compared leaf-wise: numbers within a
//! relative tolerance are equal, everything else must match exactly.

use std::fmt;

/// A parsed JSON value. Object member order is preserved but irrelevant
/// to comparison (leaves are matched by path).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// suite exports).
    Number(f64),
    /// A string literal, unescaped.
    Text(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

/// Deepest array/object nesting the reader accepts. The documents `cpe`
/// writes nest a handful of levels; the cap only keeps hostile input
/// (say, 200,000 `[`) from exhausting the stack of the recursive reader.
const MAX_JSON_DEPTH: usize = 512;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::Text(self.parse_string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(&format!("unexpected `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parse an array or object one level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogates only arise for astral-plane text,
                            // which this suite never writes; map them to
                            // the replacement character rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances
                    // by whole characters, so it is a valid boundary.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            // `1e999` parses to infinity, and no comparison or rendering
            // of a non-finite value means what the document said.
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            Ok(_) => Err(format!("byte {start}: number out of range `{text}`")),
            Err(_) => Err(self.error(&format!("bad number `{text}`"))),
        }
    }
}

/// Parse one JSON document.
///
/// # Errors
///
/// A one-line message naming the byte offset of the first syntax error,
/// of a number too large for an `f64`, or of the container that nests
/// deeper than 512 levels.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing garbage after document"));
    }
    Ok(value)
}

/// A scalar at the bottom of a flattened document.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leaf::Null => write!(f, "null"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Number(n) => write!(f, "{n}"),
            Leaf::Text(t) => write!(f, "\"{t}\""),
        }
    }
}

fn flatten_into(value: &JsonValue, path: &str, out: &mut Vec<(String, Leaf)>) {
    match value {
        JsonValue::Null => out.push((path.to_string(), Leaf::Null)),
        JsonValue::Bool(b) => out.push((path.to_string(), Leaf::Bool(*b))),
        JsonValue::Number(n) => out.push((path.to_string(), Leaf::Number(*n))),
        JsonValue::Text(t) => out.push((path.to_string(), Leaf::Text(t.clone()))),
        JsonValue::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                flatten_into(item, &format!("{path}[{index}]"), out);
            }
            if items.is_empty() {
                // An empty array is itself a leaf: [] vs [1] must differ.
                out.push((format!("{path}[]"), Leaf::Null));
            }
        }
        JsonValue::Object(members) => {
            for (key, member) in members {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten_into(member, &child, out);
            }
        }
    }
}

/// One divergent leaf between the two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the leaf (`summary.ipc`, `epochs[2].insts`).
    pub path: String,
    /// Rendered value in the first document (`-` when absent).
    pub a: String,
    /// Rendered value in the second document (`-` when absent).
    pub b: String,
    /// Unsigned relative difference for numeric drift (the measure the
    /// tolerance is checked against), `None` for shape or type
    /// mismatches (which are unconditionally regressions).
    pub relative: Option<f64>,
    /// For numeric drift, whether `b` is larger than `a`.
    pub rose: bool,
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.relative {
            Some(rel) => write!(
                f,
                "{}: {} -> {} ({}{:.2}%)",
                self.path,
                self.a,
                self.b,
                if self.rose { '+' } else { '-' },
                rel * 100.0
            ),
            None => write!(f, "{}: {} -> {}", self.path, self.a, self.b),
        }
    }
}

/// The outcome of comparing two documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Leaves present (under the same path) in both documents.
    pub compared: usize,
    /// Every leaf that diverged beyond the tolerance, in document order.
    pub entries: Vec<DiffEntry>,
    /// The relative tolerance the comparison ran with.
    pub tolerance: f64,
}

impl DiffReport {
    /// `true` when every compared leaf was within tolerance and neither
    /// document had paths the other lacked.
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.entries {
            writeln!(f, "  {entry}")?;
        }
        write!(
            f,
            "{} leaves compared, {} beyond {:.1}% tolerance",
            self.compared,
            self.entries.len(),
            self.tolerance * 100.0
        )
    }
}

/// Relative difference between two numbers: `|a - b|` scaled by the
/// larger magnitude (0 when both are 0, so identical zeros never flag).
fn relative_difference(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compare two JSON documents leaf-by-leaf.
///
/// Numeric leaves are equal when their [`relative_difference`] is at most
/// `tolerance`; strings, booleans and nulls must match exactly; a path
/// present in only one document is always reported.
///
/// # Errors
///
/// When either document fails to parse.
pub fn diff_json(a: &str, b: &str, tolerance: f64) -> Result<DiffReport, String> {
    let a = parse_json(a).map_err(|e| format!("first document: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("second document: {e}"))?;
    let mut a_leaves = Vec::new();
    let mut b_leaves = Vec::new();
    flatten_into(&a, "", &mut a_leaves);
    flatten_into(&b, "", &mut b_leaves);
    let b_map: std::collections::HashMap<&str, &Leaf> = b_leaves
        .iter()
        .map(|(path, leaf)| (path.as_str(), leaf))
        .collect();
    let a_paths: std::collections::HashSet<&str> =
        a_leaves.iter().map(|(path, _)| path.as_str()).collect();

    let mut entries = Vec::new();
    let mut compared = 0;
    for (path, left) in &a_leaves {
        match b_map.get(path.as_str()) {
            None => entries.push(DiffEntry {
                path: path.clone(),
                a: left.to_string(),
                b: "-".to_string(),
                relative: None,
                rose: false,
            }),
            Some(&right) => {
                compared += 1;
                match (left, right) {
                    (Leaf::Number(x), Leaf::Number(y)) => {
                        let rel = relative_difference(*x, *y);
                        if rel > tolerance {
                            entries.push(DiffEntry {
                                path: path.clone(),
                                a: left.to_string(),
                                b: right.to_string(),
                                relative: Some(rel),
                                rose: y > x,
                            });
                        }
                    }
                    (left, right) if left == right => {}
                    (left, right) => entries.push(DiffEntry {
                        path: path.clone(),
                        a: left.to_string(),
                        b: right.to_string(),
                        relative: None,
                        rose: false,
                    }),
                }
            }
        }
    }
    for (path, right) in &b_leaves {
        if !a_paths.contains(path.as_str()) {
            entries.push(DiffEntry {
                path: path.clone(),
                a: "-".to_string(),
                b: right.to_string(),
                relative: None,
                rose: false,
            });
        }
    }
    Ok(DiffReport {
        compared,
        entries,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_every_value_kind() {
        let doc = r#"{"a":1,"b":-2.5e3,"c":"x\"y\n","d":[true,false,null],"e":{},"f":[]}"#;
        let value = parse_json(doc).unwrap();
        let JsonValue::Object(members) = &value else {
            panic!("not an object");
        };
        assert_eq!(members.len(), 6);
        assert_eq!(members[0].1, JsonValue::Number(1.0));
        assert_eq!(members[1].1, JsonValue::Number(-2500.0));
        assert_eq!(members[2].1, JsonValue::Text("x\"y\n".to_string()));
        assert_eq!(
            members[3].1,
            JsonValue::Array(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null
            ])
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{} x", ""] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&at_cap).is_ok());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_JSON_DEPTH),
            "}".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&objects).is_ok());
        for hostile in [
            "[".repeat(MAX_JSON_DEPTH + 1),
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
        ] {
            let error = parse_json(&hostile).expect_err("too deep");
            assert!(error.contains("nesting deeper than 512 levels"), "{error}");
            assert!(diff_json(&hostile, "{}", 0.0).is_err());
        }
    }

    #[test]
    fn numbers_beyond_f64_are_rejected_not_read_as_infinity() {
        for (doc, at) in [
            ("{\"x\":1e999}", 5),
            ("[-1e999]", 1),
            ("{\"a\":[0, 2E+400]}", 9),
        ] {
            let error = parse_json(doc).expect_err(doc);
            assert!(
                error.starts_with(&format!("byte {at}: number out of range")),
                "{doc}: {error}"
            );
        }
        // Underflow to zero or a subnormal is still a finite reading.
        assert_eq!(parse_json("1e-999"), Ok(JsonValue::Number(0.0)));
        assert_eq!(parse_json("1.7976931348623157e308").map(|_| ()), Ok(()));
        // `cpe diff` can no longer pass infinity against a finite value
        // (NaN relative difference) or against the opposite infinity.
        assert!(diff_json("{\"x\":1e999}", "{\"x\":5}", 0.0).is_err());
        assert!(diff_json("{\"x\":5}", "{\"x\":-1e999}", 0.0).is_err());
        assert!(diff_json("{\"x\":1e999}", "{\"x\":-1e999}", 0.0).is_err());
    }

    #[test]
    fn diff_lines_show_the_direction_of_change() {
        let fell = diff_json("{\"x\":2}", "{\"x\":1}", 0.0).unwrap();
        assert_eq!(fell.entries[0].to_string(), "x: 2 -> 1 (-50.00%)");
        assert_eq!(
            fell.entries[0].relative,
            Some(0.5),
            "the measure is unsigned"
        );
        let rose = diff_json("{\"x\":1}", "{\"x\":2}", 0.0).unwrap();
        assert_eq!(rose.entries[0].to_string(), "x: 1 -> 2 (+50.00%)");
        assert_eq!(rose.entries[0].relative, Some(0.5));
        let negative = diff_json("{\"x\":-1}", "{\"x\":-4}", 0.0).unwrap();
        assert_eq!(negative.entries[0].to_string(), "x: -1 -> -4 (-75.00%)");
    }

    #[test]
    fn identical_documents_diff_clean() {
        let doc = r#"{"x":1.5,"nested":{"y":[1,2,3],"z":"label"},"n":null}"#;
        let report = diff_json(doc, doc, 0.0).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.compared, 6);
    }

    #[test]
    fn numeric_drift_respects_the_tolerance() {
        let a = r#"{"ipc":1.00}"#;
        let b = r#"{"ipc":1.04}"#;
        assert!(diff_json(a, b, 0.05).unwrap().is_clean());
        let report = diff_json(a, b, 0.01).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].path, "ipc");
        let rel = report.entries[0].relative.unwrap();
        assert!((rel - 0.04 / 1.04).abs() < 1e-12);
    }

    #[test]
    fn shape_and_type_mismatches_always_flag() {
        // Missing key, extra key, type change, string change: all four
        // must be reported regardless of tolerance.
        let a = r#"{"gone":1,"t":"x","kind":5}"#;
        let b = r#"{"t":"y","kind":null,"new":2}"#;
        let report = diff_json(a, b, 1.0e9).unwrap();
        let paths: Vec<&str> = report.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["gone", "t", "kind", "new"], "{report}");
        assert!(report.entries.iter().all(|e| e.relative.is_none()));
    }

    #[test]
    fn zero_versus_zero_never_flags() {
        let doc = r#"{"a":0,"b":0.0}"#;
        assert!(diff_json(doc, doc, 0.0).unwrap().is_clean());
    }

    #[test]
    fn empty_array_differs_from_populated_array() {
        let report = diff_json(r#"{"a":[]}"#, r#"{"a":[1]}"#, 0.5).unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn real_profile_documents_parse_and_self_diff_clean() {
        use crate::observe::ProfileOptions;
        use crate::{profile_json, SimConfig, Simulator};
        use cpe_workloads::{Scale, Workload};

        let sim = Simulator::new(SimConfig::combined_single_port());
        let run = sim
            .try_profile(
                Workload::Sort,
                Scale::Test,
                Some(3_000),
                ProfileOptions::default(),
            )
            .expect("run completes");
        let doc = profile_json(&run, sim.config());
        parse_json(&doc).expect("exported metrics parse");
        let report = diff_json(&doc, &doc, 0.0).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.compared > 100, "a real document has many leaves");
    }

    #[test]
    fn different_port_counts_diff_dirty() {
        use crate::observe::ProfileOptions;
        use crate::{profile_json, SimConfig, Simulator};
        use cpe_workloads::{Scale, Workload};

        let mut docs = Vec::new();
        for config in [SimConfig::naive_single_port(), SimConfig::quad_port()] {
            let sim = Simulator::new(config);
            let run = sim
                .try_profile(
                    Workload::Compress,
                    Scale::Test,
                    Some(3_000),
                    ProfileOptions::default(),
                )
                .expect("run completes");
            docs.push(profile_json(&run, sim.config()));
        }
        let report = diff_json(&docs[0], &docs[1], 0.05).unwrap();
        assert!(
            !report.is_clean(),
            "port count must move the metrics beyond 5%"
        );
        // Only deterministic paths here — self_profile's host-speed
        // fields may or may not cross tolerance depending on machine
        // load.
        assert!(
            report
                .entries
                .iter()
                .any(|e| e.path == "config.mem.ports.count"),
            "{report}"
        );
        assert!(
            report
                .entries
                .iter()
                .any(|e| e.path == "summary.port_utilisation"),
            "{report}"
        );
    }
}
