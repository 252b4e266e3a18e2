//! Property tests for the CPER recorded-trace format: lossless
//! round-tripping of arbitrary well-formed records, and graceful
//! rejection of corruption — every damaged file comes back as `Ok` or a
//! typed [`ReplayError`], never a panic, and a file that parses replays
//! to its end without one.

use cpe_isa::replay::{
    parse_recorded, write_recorded, RecordedTrace, ReplayError, REPLAY_FORMAT, REPLAY_MAGIC,
};
use cpe_isa::{DynInst, Inst, Mode, Op, Reg};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..64).prop_map(|i| Reg::from_index(i).unwrap())
}

fn arb_record() -> impl Strategy<Value = DynInst> {
    let ops = prop::sample::select(Op::ALL.to_vec());
    (
        ops,
        arb_reg(),
        arb_reg(),
        arb_reg(),
        any::<i32>(),
        any::<u64>(),
        prop::option::of(any::<u64>()),
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(op, rd, rs1, rs2, imm, pc, mem_addr, taken, next_pc, kernel)| DynInst {
                pc,
                inst: Inst {
                    op,
                    rd,
                    rs1,
                    rs2,
                    imm: i64::from(imm),
                },
                mem_addr,
                taken,
                next_pc,
                mode: if kernel { Mode::Kernel } else { Mode::User },
            },
        )
}

fn serialise(records: &[DynInst]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_recorded(
        &mut bytes,
        &RecordedTrace::record(records.iter().copied(), None),
    )
    .unwrap();
    bytes
}

/// The contract every reader of outside bytes keeps: `Ok` or a typed
/// error, and an `Ok` trace drains without panicking — `iter()` is
/// infallible because `parse_recorded` already walked every record.
fn parse_and_drain(bytes: &[u8]) -> Result<u64, ReplayError> {
    let trace = parse_recorded(bytes)?;
    let drained = trace.iter().count() as u64;
    assert_eq!(drained, trace.records());
    Ok(drained)
}

proptest! {
    #[test]
    fn arbitrary_records_roundtrip(records in prop::collection::vec(arb_record(), 0..100)) {
        let bytes = serialise(&records);
        let back: Vec<DynInst> = parse_recorded(&bytes).unwrap().iter().collect();
        prop_assert_eq!(back, records);
    }

    /// Any single-byte overwrite either still parses (the byte was a
    /// don't-care, or it rewrote a delta into another valid one) or is
    /// rejected with a typed error.
    #[test]
    fn single_byte_overwrites_never_panic(
        records in prop::collection::vec(arb_record(), 1..20),
        position in any::<prop::sample::Index>(),
        value in any::<u8>(),
    ) {
        let mut bytes = serialise(&records);
        let index = position.index(bytes.len());
        bytes[index] = value;
        let _ = parse_and_drain(&bytes);
    }

    /// Byte soup behind a valid magic and format gets past the gate and
    /// into the header, dictionary and record decoders — where an
    /// unchecked count or length would allocate or overflow.
    #[test]
    fn valid_header_byte_soup_never_panics(
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = REPLAY_MAGIC.to_vec();
        bytes.extend_from_slice(&REPLAY_FORMAT.to_le_bytes());
        bytes.extend_from_slice(&body);
        let _ = parse_and_drain(&bytes);
    }
}
