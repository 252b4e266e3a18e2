//! Record-once / replay-many trace storage ("CPER").
//!
//! The one on-disk and in-memory form of a committed path: `cpe trace
//! record` writes it, `cpe run` replays it, and the replay execution
//! backend records each workload **once** into a [`RecordedTrace`] and
//! replays it through every timing configuration of a sweep without
//! re-executing semantics. A fixed-width record (`pc`, `next_pc` and the
//! instruction word at 8 bytes each) would spend at least 25 bytes per
//! instruction; this one averages under 5.
//!
//! The encoding exploits the shape of a committed path:
//!
//! * most instructions start where the previous one ended (`pc ==
//!   prev.next_pc`) and fall through (`next_pc == pc + 4`) — both
//!   collapse into flag bits;
//! * the instruction *words* repeat heavily (a program's static text is
//!   tiny next to its dynamic path), so each record stores a varint
//!   index into a dictionary of distinct words;
//! * effective addresses are delta-encoded (zigzag varint) against the
//!   previous memory reference, which keeps strided access patterns in
//!   one or two bytes. Access *sizes* are not stored: they are a
//!   property of the opcode ([`DynInst::mem_bytes`]).
//!
//! ```text
//! header : "CPER" u8×4, format u32
//!          records u64, complete u8, window u64 (u64::MAX = none)
//!          dict_len u32, dict u64 × dict_len (encoded instruction words)
//!          payload_len u64, payload u8 × payload_len
//! record : flags u8    bit0 = taken, bit1 = kernel, bit2 = has mem_addr
//!                      bit3 = pc == prev.next_pc, bit4 = next_pc == pc+4
//!          [pc delta]      zigzag varint vs prev.next_pc, unless bit3
//!          dict index      varint
//!          [next_pc delta] zigzag varint vs pc+4, unless bit4
//!          [mem delta]     zigzag varint vs previous mem_addr, when bit2
//! ```
//!
//! Everything is little-endian and dependency-free. [`parse_recorded`]
//! validates a file eagerly — walking every record and diagnosing
//! corruption with its byte offset — so [`RecordedTrace::iter`] is
//! infallible.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::encode::{decode, encode, DecodeError};
use crate::inst::Inst;
use crate::program::INST_BYTES;
use crate::trace::{DynInst, Mode};

/// File magic of the recorded-trace format.
pub const REPLAY_MAGIC: [u8; 4] = *b"CPER";
/// Version of the recorded-trace format, folded into result-cache keys:
/// bump it and every replay-path entry misses cleanly.
pub const REPLAY_FORMAT: u32 = 1;

const FLAG_TAKEN: u8 = 1 << 0;
const FLAG_KERNEL: u8 = 1 << 1;
const FLAG_MEM: u8 = 1 << 2;
const FLAG_PC_SEQ: u8 = 1 << 3;
const FLAG_FALLTHROUGH: u8 = 1 << 4;
const KNOWN_FLAGS: u8 = FLAG_TAKEN | FLAG_KERNEL | FLAG_MEM | FLAG_PC_SEQ | FLAG_FALLTHROUGH;

/// `window` header value encoding "recorded to the end of the stream".
const WINDOW_NONE: u64 = u64::MAX;

/// A recorded-trace failure. Offsets are byte positions in the parsed
/// input (for [`parse_recorded`], absolute file offsets).
#[derive(Debug)]
pub enum ReplayError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes are missing or foreign.
    BadMagic,
    /// The format version is from a different build.
    BadFormat {
        /// Version found in the header.
        found: u32,
    },
    /// The input ended mid-structure.
    Truncated {
        /// Byte offset where more input was required.
        offset: u64,
    },
    /// A record carried undefined flag bits.
    BadFlags {
        /// Byte offset of the flags byte.
        offset: u64,
        /// The offending value.
        flags: u8,
    },
    /// A record referenced a dictionary entry that does not exist.
    BadDictIndex {
        /// Byte offset of the index varint.
        offset: u64,
        /// The out-of-range index.
        index: u64,
        /// Dictionary size.
        entries: usize,
    },
    /// A dictionary word failed to decode as an instruction.
    BadInst {
        /// Dictionary slot of the bad word.
        slot: u32,
        /// The decode failure.
        error: DecodeError,
    },
    /// The payload decoded to a different record count than the header
    /// promised.
    CountMismatch {
        /// Record count from the header.
        expected: u64,
        /// Records actually present in the payload.
        found: u64,
    },
}

impl ReplayError {
    /// The byte offset this error points at, when it has one — for
    /// `file:offset` diagnostics.
    pub fn offset(&self) -> Option<u64> {
        match self {
            ReplayError::Truncated { offset }
            | ReplayError::BadFlags { offset, .. }
            | ReplayError::BadDictIndex { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(error) => write!(f, "recorded-trace i/o failed: {error}"),
            ReplayError::BadMagic => f.write_str("not a cpe recorded trace (bad magic)"),
            ReplayError::BadFormat { found } => write!(
                f,
                "recorded-trace format {found} is not supported (this build reads format {REPLAY_FORMAT})"
            ),
            ReplayError::Truncated { offset } => {
                write!(f, "truncated at byte offset {offset}")
            }
            ReplayError::BadFlags { offset, flags } => write!(
                f,
                "undefined flag bits {flags:#04x} at byte offset {offset}"
            ),
            ReplayError::BadDictIndex {
                offset,
                index,
                entries,
            } => write!(
                f,
                "dictionary index {index} out of range ({entries} entries) at byte offset {offset}"
            ),
            ReplayError::BadInst { slot, error } => {
                write!(f, "dictionary slot {slot} does not decode: {error}")
            }
            ReplayError::CountMismatch { expected, found } => write!(
                f,
                "header promises {expected} record(s) but the payload holds {found}"
            ),
        }
    }
}

impl Error for ReplayError {}

impl From<io::Error> for ReplayError {
    fn from(error: io::Error) -> ReplayError {
        ReplayError::Io(error)
    }
}

fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push((value as u8) | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

fn put_zigzag(buf: &mut Vec<u8>, delta: u64) {
    let signed = delta as i64;
    put_varint(buf, ((signed << 1) ^ (signed >> 63)) as u64);
}

/// Header-shape summary of a recorded trace (what `cpe trace info`
/// prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayInfo {
    /// Committed-path records stored.
    pub records: u64,
    /// `true` when the recording reached the end of the stream; `false`
    /// when it stopped at the record cap.
    pub complete: bool,
    /// The record cap the recording ran under, when one was set.
    pub window: Option<u64>,
    /// Distinct instruction words in the dictionary.
    pub dict_entries: usize,
    /// Delta-encoded payload size.
    pub payload_bytes: usize,
}

impl ReplayInfo {
    /// Mean payload bytes per record (the compression headline).
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.records as f64
        }
    }
}

/// One workload's committed path, recorded once and replayable any
/// number of times (cheaply clonable iterators, shareable behind an
/// `Arc` across sweep cells).
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    dict: Vec<Inst>,
    payload: Vec<u8>,
    records: u64,
    complete: bool,
    window: Option<u64>,
}

impl RecordedTrace {
    /// Drain `trace`, recording up to `cap` records (`None` records to
    /// the end of the stream). When the cap fires with the stream still
    /// producing, the trace is marked incomplete — replay consumers must
    /// not request more instructions than were recorded.
    pub fn record<I>(trace: I, cap: Option<u64>) -> RecordedTrace
    where
        I: IntoIterator<Item = DynInst>,
    {
        let mut iter = trace.into_iter();
        let mut dict: Vec<Inst> = Vec::new();
        let mut index_of: HashMap<u64, u32> = HashMap::new();
        let mut payload = Vec::new();
        let mut records = 0u64;
        let mut complete = true;
        let mut prev_next_pc = 0u64;
        let mut prev_mem = 0u64;
        loop {
            if cap.is_some_and(|cap| records >= cap) {
                complete = iter.next().is_none();
                break;
            }
            let Some(di) = iter.next() else { break };
            let mut flags = 0u8;
            if di.taken {
                flags |= FLAG_TAKEN;
            }
            if di.mode.is_kernel() {
                flags |= FLAG_KERNEL;
            }
            if di.mem_addr.is_some() {
                flags |= FLAG_MEM;
            }
            let sequential = di.pc == prev_next_pc;
            if sequential {
                flags |= FLAG_PC_SEQ;
            }
            let fallthrough = !di.diverted();
            if fallthrough {
                flags |= FLAG_FALLTHROUGH;
            }
            payload.push(flags);
            if !sequential {
                put_zigzag(&mut payload, di.pc.wrapping_sub(prev_next_pc));
            }
            let word = encode(&di.inst);
            let index = *index_of.entry(word).or_insert_with(|| {
                dict.push(di.inst);
                u32::try_from(dict.len() - 1).expect("dictionary outgrew u32 indices")
            });
            put_varint(&mut payload, u64::from(index));
            if !fallthrough {
                put_zigzag(
                    &mut payload,
                    di.next_pc.wrapping_sub(di.pc.wrapping_add(INST_BYTES)),
                );
            }
            if let Some(addr) = di.mem_addr {
                put_zigzag(&mut payload, addr.wrapping_sub(prev_mem));
                prev_mem = addr;
            }
            prev_next_pc = di.next_pc;
            records += 1;
        }
        RecordedTrace {
            dict,
            payload,
            records,
            complete,
            window: cap,
        }
    }

    /// Records stored.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when the recording captured the stream to its end.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// The record cap the recording ran under, when one was set.
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// The header-shape summary.
    pub fn info(&self) -> ReplayInfo {
        ReplayInfo {
            records: self.records,
            complete: self.complete,
            window: self.window,
            dict_entries: self.dict.len(),
            payload_bytes: self.payload.len(),
        }
    }

    /// Replay the recording from the start. Decoding cannot fail: traces
    /// built by [`RecordedTrace::record`] are correct by construction and
    /// traces from [`parse_recorded`] were validated record by record.
    pub fn iter(&self) -> ReplayIter<'_> {
        ReplayIter {
            trace: self,
            cursor: Cursor::new(&self.payload),
        }
    }
}

/// Decode state over a payload slice; offsets are payload-relative.
struct Cursor<'a> {
    payload: &'a [u8],
    pos: usize,
    prev_next_pc: u64,
    prev_mem: u64,
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8]) -> Cursor<'a> {
        Cursor {
            payload,
            pos: 0,
            prev_next_pc: 0,
            prev_mem: 0,
        }
    }

    fn varint(&mut self) -> Result<u64, ReplayError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.payload.get(self.pos) else {
                return Err(ReplayError::Truncated {
                    offset: start as u64,
                });
            };
            self.pos += 1;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Ok(value);
            }
            shift += 7;
            if shift >= 64 {
                // An over-long varint can only come from corruption.
                return Err(ReplayError::Truncated {
                    offset: start as u64,
                });
            }
        }
    }

    fn zigzag(&mut self) -> Result<u64, ReplayError> {
        let raw = self.varint()?;
        Ok((((raw >> 1) as i64) ^ -((raw & 1) as i64)) as u64)
    }

    fn next_record(&mut self, dict: &[Inst]) -> Result<Option<DynInst>, ReplayError> {
        if self.pos >= self.payload.len() {
            return Ok(None);
        }
        let at = self.pos as u64;
        let flags = self.payload[self.pos];
        self.pos += 1;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(ReplayError::BadFlags { offset: at, flags });
        }
        let pc = if flags & FLAG_PC_SEQ != 0 {
            self.prev_next_pc
        } else {
            self.prev_next_pc.wrapping_add(self.zigzag()?)
        };
        let index_at = self.pos as u64;
        let index = self.varint()?;
        let inst = *dict
            .get(usize::try_from(index).unwrap_or(usize::MAX))
            .ok_or(ReplayError::BadDictIndex {
                offset: index_at,
                index,
                entries: dict.len(),
            })?;
        let fallthrough_pc = pc.wrapping_add(INST_BYTES);
        let next_pc = if flags & FLAG_FALLTHROUGH != 0 {
            fallthrough_pc
        } else {
            fallthrough_pc.wrapping_add(self.zigzag()?)
        };
        let mem_addr = if flags & FLAG_MEM != 0 {
            let addr = self.prev_mem.wrapping_add(self.zigzag()?);
            self.prev_mem = addr;
            Some(addr)
        } else {
            None
        };
        self.prev_next_pc = next_pc;
        Ok(Some(DynInst {
            pc,
            inst,
            mem_addr,
            taken: flags & FLAG_TAKEN != 0,
            next_pc,
            mode: if flags & FLAG_KERNEL != 0 {
                Mode::Kernel
            } else {
                Mode::User
            },
        }))
    }
}

/// Iterator replaying a [`RecordedTrace`] from the start.
pub struct ReplayIter<'a> {
    trace: &'a RecordedTrace,
    cursor: Cursor<'a>,
}

impl Iterator for ReplayIter<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.cursor
            .next_record(&self.trace.dict)
            .expect("recorded traces are validated before replay")
    }
}

impl fmt::Debug for ReplayIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayIter")
            .field("records", &self.trace.records)
            .finish_non_exhaustive()
    }
}

/// Serialise a recording. Returns the total bytes written.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_recorded<W: Write>(mut writer: W, trace: &RecordedTrace) -> io::Result<u64> {
    writer.write_all(&REPLAY_MAGIC)?;
    writer.write_all(&REPLAY_FORMAT.to_le_bytes())?;
    writer.write_all(&trace.records.to_le_bytes())?;
    writer.write_all(&[u8::from(trace.complete)])?;
    writer.write_all(&trace.window.unwrap_or(WINDOW_NONE).to_le_bytes())?;
    let dict_len = u32::try_from(trace.dict.len()).expect("dictionary fits u32");
    writer.write_all(&dict_len.to_le_bytes())?;
    for inst in &trace.dict {
        writer.write_all(&encode(inst).to_le_bytes())?;
    }
    writer.write_all(&(trace.payload.len() as u64).to_le_bytes())?;
    writer.write_all(&trace.payload)?;
    Ok(37 + 8 * u64::from(dict_len) + trace.payload.len() as u64)
}

/// Parse and **fully validate** a serialised recording: header, every
/// dictionary word, and every payload record (so corruption is diagnosed
/// here, with a byte offset, and replay itself cannot fail).
///
/// # Errors
///
/// Any [`ReplayError`] variant; [`ReplayError::offset`] gives the file
/// offset where one applies.
pub fn parse_recorded(bytes: &[u8]) -> Result<RecordedTrace, ReplayError> {
    let need = |at: usize, len: usize| -> Result<&[u8], ReplayError> {
        at.checked_add(len)
            .and_then(|end| bytes.get(at..end))
            .ok_or(ReplayError::Truncated { offset: at as u64 })
    };
    let magic = need(0, 4)?;
    if magic != REPLAY_MAGIC {
        return Err(ReplayError::BadMagic);
    }
    let format = u32::from_le_bytes(need(4, 4)?.try_into().expect("4 bytes"));
    if format != REPLAY_FORMAT {
        return Err(ReplayError::BadFormat { found: format });
    }
    let records = u64::from_le_bytes(need(8, 8)?.try_into().expect("8 bytes"));
    let complete = need(16, 1)?[0] != 0;
    let window = match u64::from_le_bytes(need(17, 8)?.try_into().expect("8 bytes")) {
        WINDOW_NONE => None,
        cap => Some(cap),
    };
    let dict_len = u32::from_le_bytes(need(25, 4)?.try_into().expect("4 bytes"));
    let mut at = 29usize;
    // Each entry takes 8 bytes, so the input bounds the reservation: a
    // hostile count cannot ask for more memory than the file holds.
    let mut dict = Vec::with_capacity((dict_len as usize).min((bytes.len() - at) / 8));
    for slot in 0..dict_len {
        let word = u64::from_le_bytes(need(at, 8)?.try_into().expect("8 bytes"));
        dict.push(decode(word).map_err(|error| ReplayError::BadInst { slot, error })?);
        at += 8;
    }
    let payload_len = u64::from_le_bytes(need(at, 8)?.try_into().expect("8 bytes"));
    at += 8;
    let payload_base = at as u64;
    let payload = need(
        at,
        usize::try_from(payload_len).map_err(|_| ReplayError::Truncated {
            offset: payload_base,
        })?,
    )?
    .to_vec();

    // Walk the whole payload now so iter() can promise infallibility.
    let rebase = |error: ReplayError| match error {
        ReplayError::Truncated { offset } => ReplayError::Truncated {
            offset: offset + payload_base,
        },
        ReplayError::BadFlags { offset, flags } => ReplayError::BadFlags {
            offset: offset + payload_base,
            flags,
        },
        ReplayError::BadDictIndex {
            offset,
            index,
            entries,
        } => ReplayError::BadDictIndex {
            offset: offset + payload_base,
            index,
            entries,
        },
        other => other,
    };
    let mut cursor = Cursor::new(&payload);
    let mut found = 0u64;
    while cursor.next_record(&dict).map_err(rebase)?.is_some() {
        found += 1;
    }
    if found != records {
        return Err(ReplayError::CountMismatch {
            expected: records,
            found,
        });
    }
    Ok(RecordedTrace {
        dict,
        payload,
        records,
        complete,
        window,
    })
}

/// [`parse_recorded`] over a reader (the file is read fully first; the
/// format keeps whole recordings in memory by design).
///
/// # Errors
///
/// I/O failures from the reader, then anything [`parse_recorded`] rejects.
pub fn read_recorded<R: Read>(mut reader: R) -> Result<RecordedTrace, ReplayError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_recorded(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::emu::Emulator;

    fn sample_program() -> crate::program::Program {
        assemble(
            ".data\nv: .quad 1, 2, 3, 4\n.text\nmain: la t0, v\n li t1, 3\nloop: ld a0, 0(t0)\n addi a0, a0, 7\n sd a0, 8(t0)\n sb a0, 25(t0)\n addi t0, t0, 8\n addi t1, t1, -1\n bnez t1, loop\n halt\n",
        )
        .expect("sample assembles")
    }

    fn sample_trace() -> Vec<DynInst> {
        Emulator::new(sample_program()).collect()
    }

    #[test]
    fn replay_matches_the_recorded_stream_exactly() {
        let trace = sample_trace();
        let recorded = RecordedTrace::record(trace.iter().copied(), None);
        assert_eq!(recorded.records(), trace.len() as u64);
        assert!(recorded.complete());
        assert_eq!(recorded.window(), None);
        let replayed: Vec<DynInst> = recorded.iter().collect();
        assert_eq!(replayed, trace);
        // And again: iterators are independent replays of one recording.
        let again: Vec<DynInst> = recorded.iter().collect();
        assert_eq!(again, trace);
    }

    #[test]
    fn compact_beats_the_fixed_record_format() {
        let trace = sample_trace();
        let recorded = RecordedTrace::record(trace.iter().copied(), None);
        let info = recorded.info();
        // A fixed record spends at least flags + pc + word + next_pc =
        // 25 bytes; delta encoding must come in under a fifth of that.
        assert!(info.bytes_per_record() < 5.0, "{}", info.bytes_per_record());
        assert!(info.dict_entries < trace.len());
    }

    #[test]
    fn a_cap_truncates_and_marks_the_recording_incomplete() {
        let trace = sample_trace();
        let recorded = RecordedTrace::record(trace.iter().copied(), Some(5));
        assert_eq!(recorded.records(), 5);
        assert!(!recorded.complete());
        assert_eq!(recorded.window(), Some(5));
        let replayed: Vec<DynInst> = recorded.iter().collect();
        assert_eq!(replayed, trace[..5]);
        // A cap beyond the stream's end still records everything.
        let all = RecordedTrace::record(trace.iter().copied(), Some(1_000_000));
        assert!(all.complete());
        assert_eq!(all.records(), trace.len() as u64);
    }

    #[test]
    fn file_roundtrip_preserves_everything() {
        let trace = sample_trace();
        let recorded = RecordedTrace::record(trace.iter().copied(), Some(1_000_000));
        let mut bytes = Vec::new();
        let written = write_recorded(&mut bytes, &recorded).unwrap();
        assert_eq!(written as usize, bytes.len());
        let back = read_recorded(bytes.as_slice()).unwrap();
        assert_eq!(back.info(), recorded.info());
        let replayed: Vec<DynInst> = back.iter().collect();
        assert_eq!(replayed, trace);
    }

    #[test]
    fn kernel_taken_and_wild_addresses_roundtrip() {
        // Exercise every flag bit and deltas that wrap the u64 space.
        let mut trace = sample_trace();
        trace[2].mode = Mode::Kernel;
        trace[2].taken = true;
        if let Some(addr) = &mut trace[2].mem_addr {
            *addr = u64::MAX - 3;
        }
        let recorded = RecordedTrace::record(trace.iter().copied(), None);
        let replayed: Vec<DynInst> = recorded.iter().collect();
        assert_eq!(replayed, trace);
    }

    #[test]
    fn bad_magic_and_format_are_rejected() {
        assert!(matches!(
            parse_recorded(b"NOPE\x01\x00\x00\x00"),
            Err(ReplayError::BadMagic)
        ));
        let recorded = RecordedTrace::record(sample_trace(), None);
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &recorded).unwrap();
        bytes[4] = 99;
        assert!(matches!(
            parse_recorded(&bytes),
            Err(ReplayError::BadFormat { found: 99 })
        ));
    }

    #[test]
    fn truncation_is_diagnosed_with_a_byte_offset() {
        let recorded = RecordedTrace::record(sample_trace(), None);
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &recorded).unwrap();
        bytes.truncate(bytes.len() - 2);
        let error = parse_recorded(&bytes).expect_err("truncation must not pass");
        match &error {
            // Chopping payload bytes either cuts a record mid-field
            // (Truncated) or removes whole records (CountMismatch).
            ReplayError::Truncated { offset } => {
                assert!(*offset > 0 && *offset <= bytes.len() as u64)
            }
            ReplayError::CountMismatch { expected, found } => assert!(found < expected),
            other => panic!("unexpected diagnosis: {other:?}"),
        }
        // Header truncation names the offset it needed.
        let error = parse_recorded(&bytes[..10]).expect_err("header cut");
        assert!(error.offset().is_some() || matches!(error, ReplayError::Truncated { .. }));
    }

    #[test]
    fn corrupt_flags_and_dict_indices_are_rejected() {
        let recorded = RecordedTrace::record(sample_trace(), None);
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &recorded).unwrap();
        let payload_base = (bytes.len() - recorded.payload.len()) as u64;
        // First record's flags byte: set an undefined bit.
        let flags_at = payload_base as usize;
        let mut corrupt = bytes.clone();
        corrupt[flags_at] |= 0x80;
        match parse_recorded(&corrupt) {
            Err(ReplayError::BadFlags { offset, .. }) => assert_eq!(offset, payload_base),
            other => panic!("expected BadFlags, got {other:?}"),
        }
        // An empty dictionary with a non-empty payload: index 0 misses.
        let no_dict = RecordedTrace {
            dict: Vec::new(),
            payload: recorded.payload.clone(),
            records: recorded.records,
            complete: true,
            window: None,
        };
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &no_dict).unwrap();
        assert!(matches!(
            parse_recorded(&bytes),
            Err(ReplayError::BadDictIndex { .. })
        ));
    }

    /// A 29-byte header: magic, format, zero records, complete, no
    /// window, then `dict_len`.
    fn hostile_header(dict_len: u32) -> Vec<u8> {
        let mut bytes = REPLAY_MAGIC.to_vec();
        bytes.extend_from_slice(&REPLAY_FORMAT.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&WINDOW_NONE.to_le_bytes());
        bytes.extend_from_slice(&dict_len.to_le_bytes());
        bytes
    }

    #[test]
    fn a_huge_dictionary_count_is_truncation_not_an_allocation() {
        let bytes = hostile_header(u32::MAX);
        assert_eq!(bytes.len(), 29);
        assert!(matches!(
            parse_recorded(&bytes),
            Err(ReplayError::Truncated { offset: 29 })
        ));
    }

    #[test]
    fn a_huge_payload_length_is_truncation_not_an_overflow() {
        let mut bytes = hostile_header(0);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            parse_recorded(&bytes),
            Err(ReplayError::Truncated { offset: 37 })
        ));
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let recorded = RecordedTrace::record(sample_trace(), None);
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &recorded).unwrap();
        bytes[8..16].copy_from_slice(&(recorded.records() + 1).to_le_bytes());
        assert!(matches!(
            parse_recorded(&bytes),
            Err(ReplayError::CountMismatch { .. })
        ));
    }

    #[test]
    fn empty_recording_roundtrips() {
        let recorded = RecordedTrace::record(std::iter::empty(), None);
        assert_eq!(recorded.records(), 0);
        assert!(recorded.complete());
        assert_eq!(recorded.iter().count(), 0);
        let mut bytes = Vec::new();
        write_recorded(&mut bytes, &recorded).unwrap();
        let back = read_recorded(bytes.as_slice()).unwrap();
        assert_eq!(back.records(), 0);
    }
}
