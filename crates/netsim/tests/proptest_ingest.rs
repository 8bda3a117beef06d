//! Property-based tests for the incremental capture decoder: on any
//! byte mutation and any chunking, [`FrameDecoder`] must never panic
//! and must emit the same events, error sites, and skip accounting as
//! the batch [`LogStream`] over the complete buffer.

use proptest::prelude::*;

use netsim::log::{
    ControlEvent, ControllerLog, DecodeError, Direction, FrameDecoder, LogStream, StreamStats,
};
use openflow::actions::Action;
use openflow::match_fields::OfMatch;
use openflow::messages::{FlowMod, OfpMessage, PacketIn, PacketInReason};
use openflow::types::{BufferId, DatapathId, PortNo, Timestamp, Xid};

fn event(i: u64, kind: u8) -> ControlEvent {
    let msg = match kind % 4 {
        0 => OfpMessage::Hello,
        1 => OfpMessage::FlowMod(FlowMod::add(OfMatch::any(), 1).action(Action::output(PortNo(2)))),
        2 => OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            total_len: 6,
            in_port: PortNo(3),
            reason: PacketInReason::NoMatch,
            data: b"abcdef".to_vec().into(),
        }),
        _ => OfpMessage::BarrierRequest,
    };
    ControlEvent {
        ts: Timestamp::from_micros(1_000 + i * 250),
        dpid: DatapathId(1 + i % 3),
        direction: if i.is_multiple_of(2) {
            Direction::ToController
        } else {
            Direction::FromController
        },
        xid: Xid(i as u32),
        msg,
    }
}

fn batch_decode(bytes: &[u8]) -> (Vec<Result<ControlEvent, DecodeError>>, StreamStats) {
    match LogStream::from_wire_bytes(bytes) {
        Ok(mut stream) => {
            let items = stream.by_ref().collect();
            (items, stream.stats())
        }
        Err(e) => (vec![Err(e)], StreamStats::default()),
    }
}

fn chunked_decode(
    bytes: &[u8],
    cuts: &[usize],
) -> (Vec<Result<ControlEvent, DecodeError>>, StreamStats) {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    for &cut in cuts {
        let cut = at + cut % (bytes.len() - at + 1);
        if dec.is_done() {
            break;
        }
        dec.push(&bytes[at..cut], &mut out);
        at = cut;
    }
    if !dec.is_done() {
        dec.push(&bytes[at..], &mut out);
        dec.finish(&mut out);
    }
    (out, dec.stats())
}

/// Error equality up to the documented divergence: a length-overflow
/// reported before end-of-stream carries the locally available bytes.
fn errors_equivalent(a: &DecodeError, b: &DecodeError) -> bool {
    match (a, b) {
        (
            DecodeError::LengthOverflow {
                offset: ao,
                claimed: ac,
                ..
            },
            DecodeError::LengthOverflow {
                offset: bo,
                claimed: bc,
                ..
            },
        ) => ao == bo && ac == bc,
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any byte mutations + any truncation + any chunking: no panics,
    /// and the incremental decode agrees with the batch decode.
    #[test]
    fn mutated_capture_decodes_identically_chunked_and_batch(
        kinds in prop::collection::vec(any::<u8>(), 1..12),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..6),
        cut_tail in any::<usize>(),
        cuts in prop::collection::vec(any::<usize>(), 0..10),
    ) {
        let log: ControllerLog = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| event(i as u64, k))
            .collect();
        let mut bytes = log.to_wire_bytes();
        for &(at, mask) in &flips {
            let idx = at % bytes.len();
            bytes[idx] ^= mask;
        }
        bytes.truncate(bytes.len() - cut_tail % (bytes.len() / 4 + 1));

        let (batch_items, batch_stats) = batch_decode(&bytes);
        let (inc_items, inc_stats) = chunked_decode(&bytes, &cuts);
        prop_assert_eq!(inc_items.len(), batch_items.len());
        for (inc, batch) in inc_items.iter().zip(&batch_items) {
            match (inc, batch) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    prop_assert!(errors_equivalent(a, b), "{:?} vs {:?}", a, b)
                }
                other => prop_assert!(false, "ok/err disagreement: {:?}", other),
            }
        }
        prop_assert_eq!(inc_stats, batch_stats);
    }
}
