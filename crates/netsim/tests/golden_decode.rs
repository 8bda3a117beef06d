//! Golden pin for the capture decoder: one fixed seeded
//! [`ChannelChaos`]-mangled capture whose decode outcome — event count,
//! skip accounting, and the ordered error sites — was recorded as
//! literals before `LogStream` and `FrameDecoder` were put on one shared
//! frame step. Chunk-vs-batch equality cannot see an error site that
//! shifts in both at once; these literals can.

use netsim::faults::ChannelChaos;
use netsim::log::{
    ControlEvent, ControllerLog, DecodeError, Direction, FrameDecoder, LogStream, StreamStats,
};
use openflow::actions::Action;
use openflow::match_fields::OfMatch;
use openflow::messages::{FlowMod, OfpMessage, PacketIn, PacketInReason};
use openflow::types::{BufferId, DatapathId, PortNo, Timestamp, Xid};

const GOLDEN_EVENTS: usize = 518;

const GOLDEN_STATS: StreamStats = StreamStats {
    frames_decoded: 518,
    frames_skipped: 26,
    bytes_skipped: 1006,
};

const GOLDEN_ERRORS: [(&str, usize); 26] = [
    ("BadEventTag", 196),
    ("BadEventTag", 3960),
    ("BadEventTag", 5238),
    ("BadEventTag", 6942),
    ("BadEventTag", 8147),
    ("BadMessage", 10442),
    ("BadEventTag", 13292),
    ("BadEventTag", 13594),
    ("BadEventTag", 14737),
    ("BadEventTag", 15033),
    ("BadEventTag", 15353),
    ("LengthOverflow", 15489),
    ("BadMessage", 17037),
    ("BadEventTag", 18598),
    ("BadEventTag", 18887),
    ("BadEventTag", 19180),
    ("BadMessage", 19881),
    ("BadEventTag", 22088),
    ("BadMessage", 23578),
    ("BadEventTag", 23936),
    ("BadEventTag", 24865),
    ("BadEventTag", 25165),
    ("BadEventTag", 26121),
    ("BadEventTag", 26413),
    ("BadEventTag", 26718),
    ("TruncatedFrame", 27697),
];

fn event(i: u64) -> ControlEvent {
    let msg = match i % 4 {
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

/// 600 events at 8% frame corruption, then the last ten bytes cut off
/// so the capture also ends in a truncated frame.
fn mangled_capture() -> Vec<u8> {
    let log: ControllerLog = (0..600u64).map(event).collect();
    let (mut bytes, _) = ChannelChaos::corruption(0.08, 0xF10D).mangle(&log);
    bytes.truncate(bytes.len() - 10);
    bytes
}

fn site(e: &DecodeError) -> (&'static str, usize) {
    match e {
        DecodeError::BadMagic => ("BadMagic", 0),
        DecodeError::TruncatedFrame { offset, .. } => ("TruncatedFrame", *offset),
        DecodeError::BadEventTag { offset, .. } => ("BadEventTag", *offset),
        DecodeError::LengthOverflow { offset, .. } => ("LengthOverflow", *offset),
        DecodeError::BadMessage { offset, .. } => ("BadMessage", *offset),
    }
}

fn assert_golden(what: &str, items: &[Result<ControlEvent, DecodeError>], stats: StreamStats) {
    let events = items.iter().filter(|item| item.is_ok()).count();
    let errors: Vec<(&str, usize)> = items
        .iter()
        .filter_map(|item| item.as_ref().err())
        .map(site)
        .collect();
    assert_eq!(events, GOLDEN_EVENTS, "{what}: decoded events");
    assert_eq!(stats, GOLDEN_STATS, "{what}: stream stats");
    assert_eq!(errors, GOLDEN_ERRORS, "{what}: ordered error sites");
}

#[test]
fn whole_buffer_stream_matches_golden_literals() {
    let bytes = mangled_capture();
    let mut stream = LogStream::from_wire_bytes(&bytes).expect("magic survives mangling");
    let items: Vec<_> = stream.by_ref().collect();
    assert_golden("LogStream", &items, stream.stats());
}

#[test]
fn chunked_decoder_matches_golden_literals() {
    let bytes = mangled_capture();
    for chunk in [1usize, 7, 8185, 16384] {
        let mut decoder = FrameDecoder::new();
        let mut items = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.push(piece, &mut items);
        }
        decoder.finish(&mut items);
        assert_golden(
            &format!("FrameDecoder at chunk size {chunk}"),
            &items,
            decoder.stats(),
        );
    }
}
