//! Property-based tests for the incremental capture decoder: on any
//! byte mutation and any chunking, [`FrameDecoder`] must never panic
//! and must emit the same events, error sites, and skip accounting as
//! the batch [`LogStream`] over the complete buffer — and a loopback
//! [`IngestServer`] must deliver through its merge exactly what the
//! batch stream decodes, mapped through the one [`FlowEvent`]
//! conversion. The `FlowEvent`s a decoder reads straight off its
//! frames' borrowed views are that conversion of its owned events.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpStream};

use proptest::prelude::*;

use netsim::log::{
    ControlEvent, ControllerLog, DecodeError, Direction, FlowEvent, FrameDecoder, LogStream,
    StreamStats,
};
use netsim::net::{IngestServer, LiveOptions, SESSION_ACK, SESSION_MAGIC};
use openflow::actions::Action;
use openflow::frame;
use openflow::match_fields::{FlowKey, OfMatch};
use openflow::messages::{
    FlowMod, FlowRemoved, FlowRemovedReason, OfpMessage, PacketIn, PacketInReason, PortStats,
    StatsReply,
};
use openflow::types::{BufferId, Cookie, DatapathId, PortNo, Timestamp, Xid};

fn key(i: u64) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1 + (i % 7) as u8),
        40_000 + i as u16,
        Ipv4Addr::new(10, 0, 1, 1),
        80,
    )
}

fn event(i: u64, kind: u8) -> ControlEvent {
    let msg = match kind % 8 {
        0 => OfpMessage::Hello,
        1 => OfpMessage::FlowMod(FlowMod::add(OfMatch::any(), 1).action(Action::output(PortNo(2)))),
        2 => OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            total_len: 6,
            in_port: PortNo(3),
            reason: PacketInReason::NoMatch,
            data: b"abcdef".to_vec().into(),
        }),
        3 => OfpMessage::BarrierRequest,
        4 => OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            total_len: 128,
            in_port: PortNo(1 + i as u16 % 4),
            reason: PacketInReason::NoMatch,
            data: frame::build_frame(&key(i), 128),
        }),
        5 => OfpMessage::FlowRemoved(FlowRemoved {
            match_: OfMatch::exact(&key(i), PortNo(1)),
            cookie: Cookie::default(),
            priority: 100,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 1 + i as u32,
            duration_nsec: 250_000 * i as u32,
            idle_timeout: 1,
            packet_count: 3 * i,
            byte_count: 1_500 * i,
        }),
        6 => OfpMessage::FlowMod(
            FlowMod::add(OfMatch::exact(&key(i), PortNo(1)), 1)
                .action(Action::SetNwTos(4))
                .action(Action::output(PortNo(1 + i as u16 % 4)))
                .action(Action::output(PortNo(9))),
        ),
        _ => OfpMessage::StatsReply(StatsReply::Port(
            (0..i % 4)
                .map(|p| PortStats {
                    port_no: PortNo(1 + p as u16),
                    tx_bytes: 10_000 * i + p,
                    ..PortStats::default()
                })
                .collect(),
        )),
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

/// `bytes` cut at `cuts`, each cut taken modulo what is left.
fn pieces<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut pieces = Vec::new();
    let mut at = 0;
    for &cut in cuts {
        let cut = at + cut % (bytes.len() - at + 1);
        pieces.push(&bytes[at..cut]);
        at = cut;
    }
    pieces.push(&bytes[at..]);
    pieces
}

fn chunked_decode(
    bytes: &[u8],
    cuts: &[usize],
) -> (Vec<Result<ControlEvent, DecodeError>>, StreamStats) {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for piece in pieces(bytes, cuts) {
        if dec.is_done() {
            break;
        }
        dec.push(piece, &mut out);
    }
    if !dec.is_done() {
        dec.finish(&mut out);
    }
    (out, dec.stats())
}

/// [`chunked_decode`], reading `FlowEvent`s off the borrowed views.
fn chunked_flow_decode(
    bytes: &[u8],
    cuts: &[usize],
) -> (Vec<Result<FlowEvent, DecodeError>>, StreamStats) {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for piece in pieces(bytes, cuts) {
        if dec.is_done() {
            break;
        }
        dec.push_flow_events(piece, |item| out.push(item));
    }
    if !dec.is_done() {
        dec.finish_flow_events(|item| out.push(item));
    }
    (out, dec.stats())
}

/// Each owned event converted, each error as it is.
fn converted(items: &[Result<ControlEvent, DecodeError>]) -> Vec<Result<FlowEvent, DecodeError>> {
    (items.iter())
        .map(|item| item.as_ref().map(FlowEvent::from).map_err(Clone::clone))
        .collect()
}

/// Serves `bytes` to a loopback [`IngestServer`] as one session whose
/// `Data` records are cut at `cuts`, and returns what the merge yields
/// and the connection's frame counters.
fn served(bytes: &[u8], cuts: &[usize]) -> (Vec<FlowEvent>, StreamStats) {
    let server = IngestServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let mut live = server.live(1, 16, LiveOptions::default()).unwrap();
    let records: Vec<Vec<u8>> = pieces(bytes, cuts)
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    let publisher = std::thread::spawn(move || publish_raw(addr, &records));
    let events = live.take_merge().collect();
    publisher.join().unwrap();
    let reports = live.finish();
    (events, reports[0].stats)
}

/// One session by hand, in the documented record layer: `FDIFFSES` and
/// a session id, then `[tag u8][len u32 LE][payload]` records — tag 0
/// carries capture bytes, tag 2 ends the session.
fn publish_raw(addr: SocketAddr, records: &[Vec<u8>]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(SESSION_MAGIC).unwrap();
    s.write_all(&1u64.to_le_bytes()).unwrap();
    let mut ack = [0u8; 16];
    s.read_exact(&mut ack).unwrap();
    assert_eq!(&ack[..8], SESSION_ACK);
    for record in records {
        s.write_all(&[0]).unwrap();
        s.write_all(&(record.len() as u32).to_le_bytes()).unwrap();
        s.write_all(record).unwrap();
    }
    s.write_all(&[2, 0, 0, 0, 0]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let _ = s.read_to_end(&mut Vec::new());
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

    /// The reader's decode: over the same chunks, the `FlowEvent`s read
    /// off the borrowed views are the owned events converted, event for
    /// event, with the same error sites and counters — and so are a
    /// batch stream's.
    #[test]
    fn flow_events_off_views_are_the_owned_events_converted(
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

        let (owned, owned_stats) = chunked_decode(&bytes, &cuts);
        let (viewed, viewed_stats) = chunked_flow_decode(&bytes, &cuts);
        prop_assert_eq!(viewed, converted(&owned));
        prop_assert_eq!(viewed_stats, owned_stats);

        let (batch, batch_stats) = batch_decode(&bytes);
        if let Ok(mut stream) = LogStream::from_wire_bytes(&bytes) {
            let viewed: Vec<_> = stream.flow_events().collect();
            prop_assert_eq!(viewed, converted(&batch));
            prop_assert_eq!(stream.stats(), batch_stats);
        }
    }

    /// The same bytes served over a loopback session: the merge yields
    /// the batch stream's events, in order, and the connection counts
    /// what the batch stream counts.
    #[test]
    fn mutated_capture_serves_what_the_batch_stream_decodes(
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
        let want: Vec<FlowEvent> = batch_items.iter().flatten().map(FlowEvent::from).collect();
        let (got, stats) = served(&bytes, &cuts);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats, batch_stats);
    }
}
