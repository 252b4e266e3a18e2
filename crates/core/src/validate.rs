//! Structural validation of exported metrics documents: the CPI-stack
//! conservation gate behind `cpe validate --cpi`.
//!
//! The `cpi_stack` object is self-contained — it carries `commit_width`
//! and `commit_slots` (= cycles × commit_width) alongside `total` and
//! the per-cause breakdown — so conservation can be checked on any
//! document that embeds one: a `--metrics-json` profile, a sweep
//! aggregate, a `cpe compare` bundle. The check is exact integer
//! equality, zero tolerance: a single leaked or double-counted commit
//! slot is an error. The stack's cycle count also checks a sibling
//! `distributions` object: one occupancy sample per cycle, none beyond
//! the structure, and one latency sample per load on exactly one path.

use crate::diff::JsonValue;

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
    let value = members
        .iter()
        .find_map(|(name, value)| (name == key).then_some(value))
        .ok_or_else(|| format!("{path}: missing \"{key}\""))?;
    integer(value).ok_or_else(|| format!("{path}: \"{key}\" is not a non-negative integer"))
}

/// Check one `cpi_stack` object; returns its `commit_width` and the
/// cycles it covers, so sibling epochs and distributions can be checked
/// against them.
fn check_stack(stack: &JsonValue, path: &str) -> Result<(u64, u64), String> {
    let members = object(Some(stack), path)?;
    let commit_width = require_integer(members, "commit_width", path)?;
    if commit_width == 0 {
        return Err(format!("{path}: commit_width is zero"));
    }
    let commit_slots = require_integer(members, "commit_slots", path)?;
    let total = require_integer(members, "total", path)?;
    let causes = object(stack.get("causes"), &format!("{path}.causes"))?;
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
    Ok((commit_width, commit_slots / commit_width))
}

/// The members of `value`, which must be an object.
fn object<'a>(
    value: Option<&'a JsonValue>,
    path: &str,
) -> Result<&'a [(String, JsonValue)], String> {
    match value {
        Some(JsonValue::Object(members)) => Ok(members),
        _ => Err(format!("{path}: missing or not an object")),
    }
}

/// Check one `distributions` object against the `cycles` its sibling
/// stack covers: every occupancy histogram holds one sample per cycle,
/// the ones bounded by a structure's size (`rob`, `lsq`, `mshr`,
/// `store_buffer`) never overflow, and `load_latency` counts exactly the
/// loads its per-path histograms count.
fn check_distributions(distributions: &JsonValue, cycles: u64, path: &str) -> Result<(), String> {
    object(Some(distributions), path)?;
    let occupancy = format!("{path}.occupancy");
    for (name, histogram) in object(distributions.get("occupancy"), &occupancy)? {
        let at = format!("{occupancy}.{name}");
        let histogram = object(Some(histogram), &at)?;
        let count = require_integer(histogram, "count", &at)?;
        if count != cycles {
            return Err(format!("{at}: {count} samples over {cycles} cycles"));
        }
        let bounded = ["rob", "lsq", "mshr", "store_buffer"].contains(&name.as_str());
        if bounded && require_integer(histogram, "overflow", &at)? != 0 {
            return Err(format!("{at}: samples beyond the structure's size"));
        }
    }
    let at = format!("{path}.load_latency");
    let loads = require_integer(
        object(distributions.get("load_latency"), &at)?,
        "count",
        &at,
    )?;
    let paths = format!("{path}.load_latency_paths");
    let mut by_path = 0;
    for (name, histogram) in object(distributions.get("load_latency_paths"), &paths)? {
        let at = format!("{paths}.{name}");
        by_path += require_integer(object(Some(histogram), &at)?, "count", &at)?;
    }
    if loads != by_path {
        return Err(format!(
            "{at}: {loads} loads, but its paths count {by_path}"
        ));
    }
    Ok(())
}

/// Check one epoch's `cpi_slots` against the document's commit width.
fn check_epoch(epoch: &JsonValue, commit_width: u64, path: &str) -> Result<(), String> {
    let JsonValue::Object(members) = epoch else {
        return Ok(());
    };
    let slots = object(epoch.get("cpi_slots"), &format!("{path}.cpi_slots"))?;
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
            if let Some(stack) = value.get("cpi_stack") {
                let stack_path = if path.is_empty() {
                    "cpi_stack".to_string()
                } else {
                    format!("{path}.cpi_stack")
                };
                let (width, cycles) = check_stack(stack, &stack_path)?;
                *checked += 1;
                let base = if path.is_empty() {
                    String::new()
                } else {
                    format!("{path}.")
                };
                // Conservation holds per epoch too, when the document
                // carries the series alongside the stack.
                if let Some(JsonValue::Array(epochs)) = value.get("epochs") {
                    for (index, epoch) in epochs.iter().enumerate() {
                        check_epoch(epoch, width, &format!("{base}epochs[{index}]"))?;
                    }
                }
                if let Some(distributions) = value.get("distributions") {
                    check_distributions(distributions, cycles, &format!("{base}distributions"))?;
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
/// sibling `epochs` series) for exact commit-slot conservation, and any
/// sibling `distributions` for one occupancy sample per cycle, no
/// overflow of a bounded structure and one latency path per load.
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

    /// `text` with the integer after the first `needle` raised by one.
    fn bump_after(text: &str, needle: &str) -> String {
        let at = text.find(needle).expect("needle present") + needle.len();
        let end = at
            + text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("number ends");
        let value: u64 = text[at..end].parse().expect("an integer");
        format!("{}{}{}", &text[..at], value + 1, &text[end..])
    }

    #[test]
    fn a_leaked_slot_is_caught() {
        // Corrupt the stack's own total.
        let corrupt = bump_after(&profile_doc(), "\"total\":");
        let doc = parse_json(&corrupt).expect("still valid JSON");
        let err = validate_cpi_stacks(&doc).expect_err("leak detected");
        assert!(err.contains("cpi_stack"), "{err}");
    }

    #[test]
    fn an_epoch_leak_is_caught() {
        let corrupt = bump_after(&profile_doc(), "\"cpi_slots\":{\"base\":");
        let doc = parse_json(&corrupt).expect("still valid JSON");
        let err = validate_cpi_stacks(&doc).expect_err("epoch leak detected");
        assert!(err.contains("epochs[0]"), "{err}");
    }

    #[test]
    fn distribution_faults_are_caught() {
        let text = profile_doc();
        for (needle, error) in [
            ("\"occupancy\":{\"rob\":{\"count\":", "occupancy.rob: "),
            ("\"port_queue\":{\"count\":", "occupancy.port_queue: "),
            ("\"mshr\":{\"count\":", "occupancy.mshr: "),
            ("\"store_buffer\":{\"count\":", "occupancy.store_buffer: "),
            ("\"overflow\":", "beyond the structure's size"),
            (
                "\"distributions\":{\"load_latency\":{\"count\":",
                "paths count",
            ),
            ("\"miss\":{\"count\":", "paths count"),
        ] {
            let doc = parse_json(&bump_after(&text, needle)).expect("still valid JSON");
            let err = validate_cpi_stacks(&doc).expect_err(needle);
            assert!(err.contains(error), "{needle}: {err}");
        }
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
