//! Deterministic rendering of parsed JSON.
//!
//! The scheduler promises byte-identical aggregate output whether one
//! worker ran or eight, and whether a cell replayed a recording or ran
//! the emulator live (or, through the job-level cache, was read back from
//! disk). The way that promise is kept is to route *every* cell document
//! through the same parse → render pipeline before it touches an
//! aggregate, so the only thing that matters is that this renderer is a
//! pure function of the parsed value. Member order is preserved (the
//! suite's own documents are emitted in a fixed order); numbers render
//! integrally when they are integral, via the shortest round-trip form
//! otherwise.

use cpe_core::json::escape;
use cpe_core::JsonValue;

/// One JSON number, deterministically: integral values in integer form,
/// everything else in the shortest round-trip form; non-finite values
/// (unreachable from [`cpe_core::parse_json`], which rejects them) degrade to
/// `null`.
fn number(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn render_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => out.push_str(&number(*n)),
        JsonValue::Text(t) => {
            out.push('"');
            out.push_str(&escape(t));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (index, (key, member)) in members.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                render_into(member, out);
            }
            out.push('}');
        }
    }
}

/// Render a parsed value back to compact JSON text, preserving member
/// order.
pub fn render(value: &JsonValue) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> JsonValue {
        cpe_core::parse_json(text).expect("test document parses")
    }

    #[test]
    fn rendering_is_a_fixed_point_after_one_pass() {
        let text = "{\"b\":1,\"a\":[true,null,\"x\\n\",2.5,-2,5000]}";
        let once = render(&parse(text));
        let twice = render(&parse(&once));
        assert_eq!(once, twice);
        assert_eq!(once, "{\"b\":1,\"a\":[true,null,\"x\\n\",2.5,-2,5000]}");
    }

    #[test]
    fn numbers_render_integrally_when_integral() {
        assert_eq!(number(5000.0), "5000");
        assert_eq!(number(-2.0), "-2");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(0.0), "0");
    }
}
