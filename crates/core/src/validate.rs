//! Structural validation of exported metrics documents: the CPI-stack
//! conservation gate behind `cpe validate --cpi`.
//!
//! The `cpi_stack` object is self-contained — it carries `commit_width`
//! and `commit_slots` (= cycles × commit_width) alongside `total` and
//! the per-cause breakdown — so conservation can be checked on any
//! document that embeds one: a `--metrics-json` profile, a sweep
//! aggregate, a `cpe compare` bundle. The check is exact integer
//! equality, zero tolerance: a single leaked or double-counted commit
//! slot is an error.

use crate::diff::JsonValue;

fn member<'a>(members: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number that is an exact non-negative integer.
fn integer(value: &JsonValue) -> Option<u64> {
    match value {
        JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Some(*n as u64)
        }
        _ => None,
    }
}

fn require_integer(members: &[(String, JsonValue)], key: &str, path: &str) -> Result<u64, String> {
    let value = member(members, key).ok_or_else(|| format!("{path}: missing \"{key}\""))?;
    integer(value).ok_or_else(|| format!("{path}: \"{key}\" is not a non-negative integer"))
}

/// Check one `cpi_stack` object; returns its `commit_width` so sibling
/// epochs can be checked against it.
fn check_stack(stack: &JsonValue, path: &str) -> Result<u64, String> {
    let JsonValue::Object(members) = stack else {
        return Err(format!("{path}: cpi_stack is not an object"));
    };
    let commit_width = require_integer(members, "commit_width", path)?;
    if commit_width == 0 {
        return Err(format!("{path}: commit_width is zero"));
    }
    let commit_slots = require_integer(members, "commit_slots", path)?;
    let total = require_integer(members, "total", path)?;
    let causes = match member(members, "causes") {
        Some(JsonValue::Object(causes)) => causes,
        _ => return Err(format!("{path}: missing \"causes\" object")),
    };
    let mut sum: u64 = 0;
    for (name, slots) in causes {
        let slots = integer(slots)
            .ok_or_else(|| format!("{path}: cause \"{name}\" is not a non-negative integer"))?;
        sum = sum
            .checked_add(slots)
            .ok_or_else(|| format!("{path}: cause sum overflows"))?;
    }
    if sum != total {
        return Err(format!(
            "{path}: causes sum to {sum} but total claims {total}"
        ));
    }
    if total != commit_slots {
        return Err(format!(
            "{path}: total {total} != commit_slots {commit_slots} \
             (cycles × commit_width) — commit slots leaked"
        ));
    }
    Ok(commit_width)
}

/// Check one epoch's `cpi_slots` against the document's commit width.
fn check_epoch(epoch: &JsonValue, commit_width: u64, path: &str) -> Result<(), String> {
    let JsonValue::Object(members) = epoch else {
        return Ok(());
    };
    let Some(JsonValue::Object(slots)) = member(members, "cpi_slots") else {
        return Err(format!("{path}: missing \"cpi_slots\""));
    };
    let start = require_integer(members, "start_cycle", path)?;
    let end = require_integer(members, "end_cycle", path)?;
    let mut sum: u64 = 0;
    for (name, value) in slots {
        sum += integer(value)
            .ok_or_else(|| format!("{path}: cause \"{name}\" is not a non-negative integer"))?;
    }
    let cycles = end
        .checked_sub(start)
        .ok_or_else(|| format!("{path}: end_cycle {end} precedes start_cycle {start}"))?;
    let expected = cycles * commit_width;
    if sum != expected {
        return Err(format!(
            "{path}: epoch slots sum to {sum}, expected {expected} \
             (({end} - {start}) × {commit_width})"
        ));
    }
    Ok(())
}

fn walk(value: &JsonValue, path: &str, checked: &mut usize) -> Result<(), String> {
    match value {
        JsonValue::Object(members) => {
            if let Some(stack) = member(members, "cpi_stack") {
                let stack_path = if path.is_empty() {
                    "cpi_stack".to_string()
                } else {
                    format!("{path}.cpi_stack")
                };
                let width = check_stack(stack, &stack_path)?;
                *checked += 1;
                // Conservation holds per epoch too, when the document
                // carries the series alongside the stack.
                if let Some(JsonValue::Array(epochs)) = member(members, "epochs") {
                    let base = if path.is_empty() {
                        String::new()
                    } else {
                        format!("{path}.")
                    };
                    for (index, epoch) in epochs.iter().enumerate() {
                        check_epoch(epoch, width, &format!("{base}epochs[{index}]"))?;
                    }
                }
            }
            for (key, child) in members {
                if key == "cpi_stack" {
                    continue;
                }
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(child, &child_path, checked)?;
            }
        }
        JsonValue::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                walk(item, &format!("{path}[{index}]"), checked)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Walk a parsed document and check every embedded `cpi_stack` (and any
/// sibling `epochs` series) for exact commit-slot conservation.
///
/// Returns the number of stacks checked — `Ok(0)` means the document is
/// well-formed but carries no CPI accounting (the caller decides whether
/// that is acceptable).
///
/// # Errors
///
/// The first violated invariant, with the dotted path of the offending
/// object.
pub fn validate_cpi_stacks(doc: &JsonValue) -> Result<usize, String> {
    let mut checked = 0;
    walk(doc, "", &mut checked)?;
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::parse_json;
    use crate::json::profile_json;
    use crate::observe::ProfileOptions;
    use crate::simulator::Simulator;
    use crate::SimConfig;
    use cpe_workloads::{Scale, Workload};

    fn profile_doc() -> String {
        let sim =
            Simulator::try_new(SimConfig::combined_single_port()).expect("the config validates");
        let run = sim
            .try_profile(
                Workload::Sort,
                Scale::Test,
                Some(5_000),
                ProfileOptions::default(),
            )
            .expect("run completes");
        profile_json(&run, sim.config())
    }

    #[test]
    fn real_profile_documents_conserve() {
        let doc = parse_json(&profile_doc()).expect("valid JSON");
        assert_eq!(validate_cpi_stacks(&doc), Ok(1));
    }

    #[test]
    fn a_leaked_slot_is_caught() {
        let text = profile_doc();
        // Corrupt the stack's own total.
        let needle = "\"total\":";
        let at = text.find(needle).expect("total present") + needle.len();
        let end = text[at..].find(',').expect("number ends") + at;
        let total: u64 = text[at..end].parse().expect("integer total");
        let corrupt = format!("{}{}{}", &text[..at], total + 1, &text[end..]);
        let doc = parse_json(&corrupt).expect("still valid JSON");
        let err = validate_cpi_stacks(&doc).expect_err("leak detected");
        assert!(err.contains("cpi_stack"), "{err}");
    }

    #[test]
    fn an_epoch_leak_is_caught() {
        let text = profile_doc();
        let needle = "\"cpi_slots\":{\"base\":";
        let at = text.find(needle).expect("epoch slots present") + needle.len();
        let end = at
            + text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("number ends");
        let base: u64 = text[at..end].parse().expect("integer base");
        let corrupt = format!("{}{}{}", &text[..at], base + 1, &text[end..]);
        let doc = parse_json(&corrupt).expect("still valid JSON");
        let err = validate_cpi_stacks(&doc).expect_err("epoch leak detected");
        assert!(err.contains("epochs[0]"), "{err}");
    }

    #[test]
    fn documents_without_stacks_count_zero() {
        let doc = parse_json("{\"schema\":3,\"summary\":{\"ipc\":1.5}}").expect("valid");
        assert_eq!(validate_cpi_stacks(&doc), Ok(0));
    }

    #[test]
    fn stacks_nested_in_sweep_documents_are_found() {
        // The shape `cpe sweep --metrics-json` writes: stacks nested in
        // per-cell objects under arbitrary keys.
        let cell = "{\"cpi_stack\":{\"commit_width\":4,\"commit_slots\":40,\"total\":40,\
                    \"causes\":{\"base\":30,\"idle\":10}}}";
        let doc_text = format!("{{\"schema\":3,\"cells\":[{cell},{cell}]}}");
        let doc = parse_json(&doc_text).expect("valid");
        assert_eq!(validate_cpi_stacks(&doc), Ok(2));

        let bad = doc_text.replace("\"total\":40", "\"total\":41");
        let doc = parse_json(&bad).expect("valid");
        let err = validate_cpi_stacks(&doc).expect_err("caught");
        assert!(err.contains("cells[0]"), "{err}");
    }
}
