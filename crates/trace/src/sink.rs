//! Event export.
//!
//! [`chrome_trace_json`] turns the retained [`TraceEvent`] window into
//! the Chrome `trace_event` JSON object format, loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) (one
//! simulated cycle maps to one microsecond of timeline). Every event
//! carries its cycle (`ts`), name, category and `args.addr`/`args.arg`,
//! so scripts read it with `jq '.traceEvents[]'`.
//!
//! All JSON is hand-assembled: the event vocabulary is a closed set of
//! static names and integers, so no serialization dependency is needed.

use crate::event::TraceEvent;

/// The lane (`tid`) names shown in the timeline, indexed by
/// [`EventKind::lane`].
const LANE_NAMES: [&str; 6] = ["pipeline", "port", "portless", "store", "mshr", "diag"];

/// Render events as a complete Chrome `trace_event` JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (lane, name) in LANE_NAMES.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for event in events {
        out.push(',');
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":0,\"tid\":{},\"args\":{{\"addr\":\"{:#x}\",\"arg\":{}}}}}",
            event.kind.name(),
            event.kind.category(),
            event.cycle,
            event.kind.lane(),
            event.addr,
            event.arg
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(10, EventKind::PortConflict, 0x2000, 0),
            TraceEvent::new(11, EventKind::PortGrant, 0x2000, 3),
            TraceEvent::new(12, EventKind::LineBufferHit, 0x2008, 0),
        ]
    }

    /// A structural JSON sanity check without a parser: balanced
    /// brackets/braces outside strings and no trailing garbage.
    fn assert_balanced(text: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => in_string = false,
                    _ => escaped = false,
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0, "underflow in {text}");
        }
        assert_eq!(depth_obj, 0, "unbalanced braces in {text}");
        assert_eq!(depth_arr, 0, "unbalanced brackets in {text}");
        assert!(!in_string, "unterminated string in {text}");
    }

    #[test]
    fn chrome_output_is_structurally_sound() {
        let text = chrome_trace_json(&sample());
        assert_balanced(&text);
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"port_grant\""), "{text}");
        assert!(text.contains("\"ts\":11"), "{text}");
        assert!(
            text.contains("\"args\":{\"addr\":\"0x2000\",\"arg\":3}"),
            "{text}"
        );
        // Lane metadata names every track.
        for lane in LANE_NAMES {
            assert!(text.contains(&format!("\"name\":\"{lane}\"")), "{lane}");
        }
    }

    #[test]
    fn chrome_output_handles_an_empty_run() {
        let text = chrome_trace_json(&[]);
        assert_balanced(&text);
        assert!(text.contains("traceEvents"));
    }
}
