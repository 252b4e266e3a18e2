//! Per-instruction pipeline views: lifecycle reconstruction and the
//! Konata text format.
//!
//! The core stamps every pipeline event with the instruction's sequence
//! number (low 32 bits in [`TraceEvent::arg`]), so a captured event
//! window folds back into per-instruction lifecycle records —
//! fetch/dispatch/issue/complete/commit timestamps plus every
//! port-conflict retry in between. [`konata_text`] renders those records
//! in the Konata/Kanata O3-pipeview text format, loadable in the Konata
//! viewer (<https://github.com/shioyadan/Konata>); [`validate_konata`]
//! structurally checks such a file, for `cpe validate` and CI.
//!
//! Lifecycle stages, lane 0: `F` (fetch → dispatch), `Ds` (dispatch →
//! issue: rename plus the issue-window wait), `X` (issue → complete),
//! `Cm` (complete → commit). Lane 1 carries one `Rt` stage per cycle the
//! load was turned away at the cache port. Retirement is an `R` record
//! at the commit cycle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};

/// The Konata header emitted and required by this module.
pub const KONATA_HEADER: &str = "Kanata\t0004";

/// One instruction's reconstructed lifecycle. Timestamps are `None`
/// when the corresponding event fell out of the capture ring (the ring
/// keeps the newest window), so records at the window edge are partial.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstRecord {
    /// Sequence number (low 32 bits — the ring never spans 4G
    /// instructions).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Cycle the instruction entered the fetch buffer.
    pub fetch: Option<u64>,
    /// Cycle it entered the reorder buffer.
    pub dispatch: Option<u64>,
    /// Cycle it left the window for a functional unit or the cache.
    pub issue: Option<u64>,
    /// Cycle its result became available.
    pub complete: Option<u64>,
    /// Cycle it retired.
    pub commit: Option<u64>,
    /// Cycles it was ready but turned away at the data-cache port
    /// (port/bank conflict or MSHR exhaustion).
    pub retries: Vec<u64>,
}

impl InstRecord {
    /// Earliest known timestamp — including retries, which can precede
    /// every surviving stage when the ring truncated the record: the `I`
    /// declaration is emitted at this cycle and must not follow any of
    /// the record's stage lines.
    fn first_cycle(&self) -> Option<u64> {
        [
            self.fetch,
            self.dispatch,
            self.issue,
            self.complete,
            self.commit,
        ]
        .into_iter()
        .flatten()
        .chain(self.retries.iter().copied())
        .min()
    }

    /// The cycle the last lane-0 stage ends.
    fn last_cycle(&self) -> Option<u64> {
        let first = self.first_cycle()?;
        let last = [
            self.commit,
            self.complete,
            self.issue,
            self.dispatch,
            self.fetch,
        ]
        .into_iter()
        .flatten()
        .max()
        .expect("first_cycle found one");
        Some(last.max(first + 1))
    }
}

/// Fold a captured event window into per-instruction lifecycle records,
/// ordered by sequence number. Events without a per-instruction meaning
/// (port arbitration, MSHR traffic, …) are ignored; records the ring
/// truncated mid-life come out partial rather than being dropped.
pub fn build_records(events: &[TraceEvent]) -> Vec<InstRecord> {
    let mut records: BTreeMap<u64, InstRecord> = BTreeMap::new();
    fn touch(records: &mut BTreeMap<u64, InstRecord>, seq: u64, pc: u64) -> &mut InstRecord {
        let record = records.entry(seq).or_default();
        record.seq = seq;
        if pc != 0 {
            record.pc = pc;
        }
        record
    }
    for event in events {
        let seq = u64::from(event.arg);
        match event.kind {
            EventKind::Fetch => touch(&mut records, seq, event.addr).fetch = Some(event.cycle),
            EventKind::Dispatch => {
                touch(&mut records, seq, event.addr).dispatch = Some(event.cycle)
            }
            EventKind::Issue => touch(&mut records, seq, event.addr).issue = Some(event.cycle),
            EventKind::Complete => {
                touch(&mut records, seq, event.addr).complete = Some(event.cycle)
            }
            EventKind::Commit => touch(&mut records, seq, event.addr).commit = Some(event.cycle),
            EventKind::PortRetry => touch(&mut records, seq, event.addr)
                .retries
                .push(event.cycle),
            _ => {}
        }
    }
    // A truncated ring can leave a Fetch mispaired with a recycled low-32
    // seq; drop records with no post-fetch life to keep the view honest.
    records
        .into_values()
        .filter(|r| r.dispatch.is_some() || r.issue.is_some() || r.commit.is_some())
        .collect()
}

/// Render lifecycle records as Konata/Kanata `0004` text.
pub fn konata_text(records: &[InstRecord]) -> String {
    // Collect (cycle, line) pairs, then emit sorted by cycle with C
    // deltas. The sort is stable, so same-cycle lines keep record order.
    let mut lines: Vec<(u64, String)> = Vec::new();
    for (id, record) in records.iter().enumerate() {
        let Some(first) = record.first_cycle() else {
            continue;
        };
        let end = record.last_cycle().expect("first_cycle known");
        lines.push((first, format!("I\t{id}\t{}\t0", record.seq)));
        lines.push((
            first,
            format!("L\t{id}\t0\t0x{:x} seq={}", record.pc, record.seq),
        ));
        if !record.retries.is_empty() {
            lines.push((
                first,
                format!("L\t{id}\t1\tport retries: {}", record.retries.len()),
            ));
        }
        let stages = [
            (record.fetch, "F"),
            (record.dispatch, "Ds"),
            (record.issue, "X"),
            (record.complete, "Cm"),
        ];
        let mut last_stage = None;
        for (start, name) in stages {
            if let Some(start) = start {
                lines.push((start, format!("S\t{id}\t0\t{name}")));
                last_stage = Some(name);
            }
        }
        if let Some(name) = last_stage {
            lines.push((end, format!("E\t{id}\t0\t{name}")));
        }
        for &retry in &record.retries {
            lines.push((retry, format!("S\t{id}\t1\tRt")));
            lines.push((retry + 1, format!("E\t{id}\t1\tRt")));
        }
        if let Some(commit) = record.commit {
            lines.push((commit, format!("R\t{id}\t{}\t0", record.seq)));
        }
    }
    lines.sort_by_key(|&(cycle, _)| cycle);

    let mut out = String::from(KONATA_HEADER);
    out.push('\n');
    let mut current: Option<u64> = None;
    for (cycle, line) in lines {
        match current {
            None => {
                let _ = writeln!(out, "C=\t{cycle}");
            }
            Some(at) if cycle > at => {
                let _ = writeln!(out, "C\t{}", cycle - at);
            }
            _ => {}
        }
        current = Some(cycle);
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// What a structurally valid Konata file contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KonataSummary {
    /// `I` records (instructions declared).
    pub instructions: usize,
    /// `R` records (instructions retired).
    pub retired: usize,
    /// The final simulation cycle reached by `C=`/`C` commands.
    pub last_cycle: u64,
}

/// Structurally validate Konata text: header, per-command field counts
/// and numeric fields, ids declared (`I`) before use, and cycle commands
/// present before any stage activity. Returns what the file contained,
/// or the first offense as `line N: …`.
pub fn validate_konata(text: &str) -> Result<KonataSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| "empty file".to_string())?;
    if !header.starts_with("Kanata\t") {
        return Err(format!(
            "line 1: expected a 'Kanata\\t<version>' header, got {header:?}"
        ));
    }
    let mut ids = std::collections::HashSet::new();
    let mut cycle: Option<u64> = None;
    let mut summary = KonataSummary {
        instructions: 0,
        retired: 0,
        last_cycle: 0,
    };
    let number = |pos: usize, what: &str, field: Option<&str>| -> Result<u64, String> {
        let text = field.ok_or_else(|| format!("line {}: missing {what}", pos + 1))?;
        text.parse::<u64>()
            .map_err(|_| format!("line {}: {what} is not a number: {text:?}", pos + 1))
    };
    for (pos, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let command = fields.next().expect("split yields at least one field");
        match command {
            "C=" => {
                summary.last_cycle = number(pos, "cycle", fields.next())?;
                cycle = Some(summary.last_cycle);
            }
            "C" => {
                let base = cycle.ok_or_else(|| format!("line {}: C before any C=", pos + 1))?;
                let delta = number(pos, "cycle delta", fields.next())?;
                summary.last_cycle = base
                    .checked_add(delta)
                    .ok_or_else(|| format!("line {}: cycle count overflows", pos + 1))?;
                cycle = Some(summary.last_cycle);
            }
            "I" => {
                let id = number(pos, "id", fields.next())?;
                number(pos, "instruction id", fields.next())?;
                number(pos, "thread id", fields.next())?;
                if !ids.insert(id) {
                    return Err(format!("line {}: id {id} declared twice", pos + 1));
                }
                summary.instructions += 1;
            }
            "L" => {
                let id = number(pos, "id", fields.next())?;
                if !ids.contains(&id) {
                    return Err(format!("line {}: label for undeclared id {id}", pos + 1));
                }
                number(pos, "label type", fields.next())?;
            }
            "S" | "E" => {
                if cycle.is_none() {
                    return Err(format!("line {}: {command} before any C=", pos + 1));
                }
                let id = number(pos, "id", fields.next())?;
                if !ids.contains(&id) {
                    return Err(format!("line {}: stage for undeclared id {id}", pos + 1));
                }
                number(pos, "lane", fields.next())?;
                match fields.next() {
                    Some(stage) if !stage.is_empty() => {}
                    _ => return Err(format!("line {}: missing stage name", pos + 1)),
                }
            }
            "R" => {
                if cycle.is_none() {
                    return Err(format!("line {}: R before any C=", pos + 1));
                }
                let id = number(pos, "id", fields.next())?;
                if !ids.contains(&id) {
                    return Err(format!("line {}: retire of undeclared id {id}", pos + 1));
                }
                number(pos, "retire id", fields.next())?;
                let kind = number(pos, "retire type", fields.next())?;
                if kind > 1 {
                    return Err(format!("line {}: retire type must be 0 or 1", pos + 1));
                }
                summary.retired += 1;
            }
            "W" => {
                let consumer = number(pos, "consumer id", fields.next())?;
                let producer = number(pos, "producer id", fields.next())?;
                for id in [consumer, producer] {
                    if !ids.contains(&id) {
                        return Err(format!(
                            "line {}: dependency on undeclared id {id}",
                            pos + 1
                        ));
                    }
                }
                number(pos, "dependency type", fields.next())?;
            }
            other => {
                return Err(format!("line {}: unknown command {other:?}", pos + 1));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind, pc: u64, seq: u32) -> TraceEvent {
        TraceEvent::new(cycle, kind, pc, seq)
    }

    fn lifecycle() -> Vec<TraceEvent> {
        vec![
            ev(0, EventKind::Fetch, 0x1000, 0),
            ev(0, EventKind::Fetch, 0x1004, 1),
            ev(1, EventKind::Dispatch, 0x1000, 0),
            ev(1, EventKind::Dispatch, 0x1004, 1),
            ev(2, EventKind::Issue, 0x1000, 0),
            ev(2, EventKind::PortRetry, 0x1004, 1),
            ev(3, EventKind::Issue, 0x1004, 1),
            ev(4, EventKind::Complete, 0x1000, 0),
            // Out of cycle order, as ring contents are for future-dated
            // Complete events.
            ev(6, EventKind::Complete, 0x1004, 1),
            ev(5, EventKind::Commit, 0x1000, 0),
            ev(7, EventKind::Commit, 0x1004, 1),
            // Non-lifecycle traffic is ignored.
            ev(2, EventKind::PortGrant, 0x2000, 0),
        ]
    }

    #[test]
    fn records_fold_per_sequence_number() {
        let records = build_records(&lifecycle());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].pc, 0x1000);
        assert_eq!(records[0].fetch, Some(0));
        assert_eq!(records[0].issue, Some(2));
        assert_eq!(records[0].commit, Some(5));
        assert!(records[0].retries.is_empty());
        assert_eq!(records[1].retries, vec![2]);
        assert_eq!(records[1].complete, Some(6));
    }

    #[test]
    fn truncated_lifecycles_stay_partial_but_present() {
        // Ring kept only the tail: no fetch/dispatch for seq 3.
        let events = vec![
            ev(9, EventKind::Issue, 0x2000, 3),
            ev(11, EventKind::Commit, 0x2000, 3),
        ];
        let records = build_records(&events);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fetch, None);
        assert_eq!(records[0].issue, Some(9));
    }

    #[test]
    fn fetch_only_records_are_dropped() {
        let events = vec![ev(4, EventKind::Fetch, 0x3000, 9)];
        assert!(build_records(&events).is_empty());
    }

    #[test]
    fn konata_roundtrip_validates() {
        let records = build_records(&lifecycle());
        let text = konata_text(&records);
        assert!(text.starts_with(KONATA_HEADER), "{text}");
        let summary = validate_konata(&text).expect("generated text validates");
        assert_eq!(summary.instructions, 2);
        assert_eq!(summary.retired, 2);
        assert_eq!(summary.last_cycle, 7);
        // Cycle commands are deltas after the first.
        assert!(text.contains("C=\t0"), "{text}");
        assert!(text.contains("\nC\t1\n"), "{text}");
        // The retry lane shows up.
        assert!(text.contains("S\t1\t1\tRt"), "{text}");
    }

    #[test]
    fn empty_capture_yields_a_bare_header() {
        let text = konata_text(&[]);
        let summary = validate_konata(&text).expect("header-only file is valid");
        assert_eq!(summary.instructions, 0);
        assert_eq!(summary.last_cycle, 0);
    }

    #[test]
    fn validation_rejects_malformed_files() {
        assert!(validate_konata("").is_err());
        assert!(validate_konata("not a header\n").is_err());
        let no_decl = format!("{KONATA_HEADER}\nC=\t0\nS\t0\t0\tF\n");
        let err = validate_konata(&no_decl).expect_err("undeclared id");
        assert!(err.contains("undeclared id 0"), "{err}");
        let stage_before_cycle = format!("{KONATA_HEADER}\nI\t0\t0\t0\nS\t0\t0\tF\n");
        let err = validate_konata(&stage_before_cycle).expect_err("needs C=");
        assert!(err.contains("before any C="), "{err}");
        let double = format!("{KONATA_HEADER}\nC=\t0\nI\t0\t0\t0\nI\t0\t1\t0\n");
        assert!(validate_konata(&double).is_err());
        let junk = format!("{KONATA_HEADER}\nC=\t0\nQ\t1\n");
        let err = validate_konata(&junk).expect_err("unknown command");
        assert!(err.contains("unknown command"), "{err}");
    }
}
