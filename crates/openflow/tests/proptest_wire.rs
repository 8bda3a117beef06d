//! Property-based tests for the wire codec, frame codec, and flow table.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use openflow::actions::{first_output, Action};
use openflow::flow_table::FlowTable;
use openflow::frame;
use openflow::match_fields::{FlowKey, OfMatch, Wildcards};
use openflow::messages::{
    FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, OfpMessage, PacketIn, PacketInReason,
};
use openflow::types::{BufferId, Cookie, IpProto, MacAddr, PortNo, Timestamp, VlanId, Xid};
use openflow::wire::{self, MessageView};

mod linear_table;
use linear_table::LinearTable;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (
        arb_ip(),
        any::<u16>(),
        arb_ip(),
        any::<u16>(),
        prop_oneof![Just(IpProto::TCP), Just(IpProto::UDP), Just(IpProto::ICMP)],
    )
        .prop_map(|(src, sport, dst, dport, proto)| {
            FlowKey::with_proto(proto, src, sport, dst, dport)
        })
}

fn arb_match() -> impl Strategy<Value = OfMatch> {
    (arb_flow_key(), any::<u16>(), any::<u32>()).prop_map(|(key, port, wild)| {
        let mut m = OfMatch::exact(&key, PortNo(port));
        m.wildcards = Wildcards(wild & Wildcards::ALL.0);
        m
    })
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u16>()).prop_map(|(p, l)| Action::Output {
                port: PortNo(p),
                max_len: l
            }),
            any::<u16>().prop_map(|v| Action::SetVlanVid(VlanId(v))),
            (0u8..8).prop_map(Action::SetVlanPcp),
            Just(Action::StripVlan),
            arb_mac().prop_map(Action::SetDlSrc),
            arb_mac().prop_map(Action::SetDlDst),
            arb_ip().prop_map(Action::SetNwSrc),
            arb_ip().prop_map(Action::SetNwDst),
            any::<u8>().prop_map(Action::SetNwTos),
            any::<u16>().prop_map(Action::SetTpSrc),
            any::<u16>().prop_map(Action::SetTpDst),
            (any::<u16>(), any::<u32>()).prop_map(|(p, q)| Action::Enqueue {
                port: PortNo(p),
                queue_id: q
            }),
        ],
        0..6,
    )
}

/// The packets the table property test sends: four flows, so that
/// flow-mods and packets drawn independently still meet.
fn pool_key(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        1000 + u16::from(i & 1),
        Ipv4Addr::new(10, 0, 1 + (i >> 1 & 1), 2),
        80,
    )
}

/// A match over a pool flow: mostly the microflow a reactive controller
/// installs, otherwise one of the wildcard shapes — including an exact
/// match whose wildcard word carries a stray undefined bit, which ranks
/// as exact but equals no `OfMatch::exact`.
fn pool_match(shape: u8, key: &FlowKey, in_port: PortNo) -> OfMatch {
    let exact = OfMatch::exact(key, in_port);
    let widened = |wildcards| OfMatch { wildcards, ..exact };
    match shape {
        0 => OfMatch::any(),
        1 => OfMatch::ipv4_dst_prefix(Ipv4Addr::from(u32::from(key.nw_dst) & !0xff), 24),
        2 => widened(Wildcards::NONE.with(Wildcards::IN_PORT)),
        3 => widened(Wildcards::NONE.with(Wildcards::TP_SRC)),
        4 => widened(Wildcards::NONE.with_nw_dst_bits(16)),
        5 => widened(Wildcards(1 << 25)),
        _ => exact,
    }
}

/// One call on a flow table, `step_ms` after the previous one.
#[derive(Debug, Clone)]
enum TableCall {
    Apply(FlowMod),
    MatchPacket(FlowKey, PortNo, u64),
    Account(FlowKey, PortNo, u64, u64),
    Expire,
}

fn arb_table_call() -> impl Strategy<Value = (TableCall, u64, bool)> {
    let packet = || (0u8..4, 1u16..3).prop_map(|(k, p)| (pool_key(k), PortNo(p)));
    let flow_mod = (
        (0u8..14, 0u8..4, 1u16..3),
        0u8..8,
        prop_oneof![Just(1u16), Just(7), Just(u16::MAX)],
        (0u16..4, 0u16..4),
        (any::<bool>(), any::<u64>()),
        (
            2u16..4,
            prop_oneof![Just(PortNo::NONE), Just(PortNo(2)), Just(PortNo(3))],
        ),
    )
        .prop_map(
            |((shape, key, in_port), command, priority, (idle, hard), (notify, cookie), ports)| {
                let match_ = pool_match(shape, &pool_key(key), PortNo(in_port));
                let mut fm = FlowMod::add(match_, priority)
                    .idle_timeout(idle)
                    .hard_timeout(hard)
                    .cookie(Cookie(cookie))
                    .action(Action::output(PortNo(ports.0)));
                fm.flags.send_flow_rem = notify;
                fm.command = match command {
                    0 => FlowModCommand::Modify,
                    1 => FlowModCommand::ModifyStrict,
                    2 => FlowModCommand::Delete,
                    3 => FlowModCommand::DeleteStrict,
                    _ => FlowModCommand::Add,
                };
                fm.out_port = ports.1;
                TableCall::Apply(fm)
            },
        );
    let match_packet = || {
        (packet(), 0u64..2000)
            .prop_map(|((key, port), bytes)| TableCall::MatchPacket(key, port, bytes))
    };
    let call = prop_oneof![
        flow_mod,
        // Twice, so that packets are as frequent as flow-mods.
        match_packet(),
        match_packet(),
        (packet(), 0u64..50, 0u64..70_000).prop_map(|((key, port), packets, bytes)| {
            TableCall::Account(key, port, packets, bytes)
        }),
        Just(TableCall::Expire),
    ];
    // `rewind`: this one call reads a clock two seconds behind, as a
    // late accounting call does.
    (call, 0u64..1500, (0u8..8).prop_map(|r| r == 0))
}

proptest! {
    // A state machine, not a codec: give the sequences room to collide.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_table_agrees_with_linear_reference(
        calls in prop::collection::vec(arb_table_call(), 1..120),
    ) {
        let mut table = FlowTable::new();
        let mut reference = LinearTable::new();
        let mut clock_ms = 0u64;
        for (call, step_ms, rewind) in &calls {
            clock_ms += step_ms;
            let now = Timestamp::from_millis(clock_ms.saturating_sub(if *rewind { 2000 } else { 0 }));
            match call {
                TableCall::Apply(fm) => {
                    prop_assert_eq!(table.apply(fm, now), reference.apply(fm, now), "{:?}", call);
                }
                TableCall::MatchPacket(key, in_port, bytes) => prop_assert_eq!(
                    table.match_packet(key, *in_port, *bytes, now),
                    reference.match_packet(key, *in_port, *bytes, now),
                    "{:?}", call
                ),
                TableCall::Account(key, in_port, packets, bytes) => prop_assert_eq!(
                    table.account(key, *in_port, *packets, *bytes, now),
                    reference.account(key, *in_port, *packets, *bytes, now),
                    "{:?}", call
                ),
                TableCall::Expire => {
                    prop_assert_eq!(table.expire(now), reference.expire(now), "expire at {}", now);
                }
            }
            prop_assert_eq!(table.len(), reference.len(), "len after {:?}", call);
            prop_assert_eq!(
                table.next_deadline(), reference.next_deadline(), "next_deadline after {:?}", call
            );
            prop_assert_eq!(
                table.iter().collect::<Vec<_>>(), reference.iter().collect::<Vec<_>>(),
                "entries after {:?}", call
            );
            for k in 0..4 {
                for in_port in [PortNo(1), PortNo(2)] {
                    prop_assert_eq!(
                        table.lookup(&pool_key(k), in_port), reference.lookup(&pool_key(k), in_port),
                        "lookup of flow {} on {} after {:?}", k, in_port, call
                    );
                }
            }
        }
    }

}

proptest! {
    #[test]
    fn wire_roundtrip_flow_mod(m in arb_match(), actions in arb_actions(),
                               prio in any::<u16>(), idle in any::<u16>(),
                               hard in any::<u16>(), cookie in any::<u64>(),
                               xid in any::<u32>()) {
        let mut fm = FlowMod::add(m, prio)
            .idle_timeout(idle)
            .hard_timeout(hard)
            .cookie(Cookie(cookie));
        fm.actions = actions;
        let msg = OfpMessage::FlowMod(fm);
        let bytes = wire::encode(&msg, Xid(xid));
        let (decoded, got_xid, used) = wire::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(got_xid, Xid(xid));
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn wire_roundtrip_packet_in(key in arb_flow_key(), port in any::<u16>(),
                                total in 62u16..1500, buffered in any::<bool>()) {
        let data = frame::build_frame(&key, total as usize);
        let msg = OfpMessage::PacketIn(PacketIn {
            buffer_id: if buffered { BufferId(1) } else { BufferId::NO_BUFFER },
            total_len: total,
            in_port: PortNo(port),
            reason: PacketInReason::NoMatch,
            data,
        });
        let bytes = wire::encode(&msg, Xid(0));
        let (decoded, _, _) = wire::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn wire_roundtrip_flow_removed(m in arb_match(), pkts in any::<u64>(),
                                   bytes_count in any::<u64>(), dur in any::<u32>()) {
        let msg = OfpMessage::FlowRemoved(FlowRemoved {
            match_: m,
            cookie: Cookie(9),
            priority: 1,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: dur,
            duration_nsec: 0,
            idle_timeout: 5,
            packet_count: pkts,
            byte_count: bytes_count,
        });
        let encoded = wire::encode(&msg, Xid(3));
        let (decoded, _, _) = wire::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn frame_roundtrip(key in arb_flow_key(), len in 0usize..2000) {
        let bytes = frame::build_frame(&key, len);
        let parsed = frame::parse_frame(&bytes).unwrap();
        prop_assert_eq!(parsed, key);
    }

    #[test]
    fn decode_never_panics_on_noise(noise in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode(&noise);
    }

    #[test]
    fn decode_never_panics_on_corrupted_valid_message(
        m in arb_match(), flip_at in any::<usize>(), flip_bits in any::<u8>()) {
        let msg = OfpMessage::FlowMod(FlowMod::add(m, 5));
        let mut bytes = wire::encode(&msg, Xid(1)).to_vec();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        let _ = wire::decode(&bytes);
    }

    #[test]
    fn decode_never_panics_on_corrupted_actions(
        m in arb_match(), actions in arb_actions(),
        flip_at in any::<usize>(), flip_bits in any::<u8>()) {
        // The no-actions variant above never exercises the per-action
        // arms; this one corrupts messages that carry action lists, so
        // a flipped action type code over a short body (e.g. SetVlanVid
        // rewritten to SetDlSrc) must error instead of panicking.
        let mut fm = FlowMod::add(m, 5);
        fm.actions = actions;
        let mut bytes = wire::encode(&OfpMessage::FlowMod(fm), Xid(1)).to_vec();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        let _ = wire::decode(&bytes);
    }

    #[test]
    fn decode_view_into_owned_is_decode(
        m in arb_match(), actions in arb_actions(), key in arb_flow_key(),
        len in 0usize..200, kind in 0u8..3,
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut_at in any::<usize>()) {
        // On every generated message, and on the same bytes mangled and
        // cut short: the view, owned, is what `decode` returns (message
        // or error), and a FlowMod view's first output is its actions'.
        let msg = match kind {
            0 => {
                let mut fm = FlowMod::add(m, 5);
                fm.actions = actions.clone();
                OfpMessage::FlowMod(fm)
            }
            1 => OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: len as u16,
                in_port: PortNo(3),
                reason: PacketInReason::Action,
                data: frame::build_frame(&key, len),
            }),
            _ => OfpMessage::FlowRemoved(FlowRemoved {
                match_: m,
                cookie: Cookie(9),
                priority: 1,
                reason: FlowRemovedReason::Delete,
                duration_sec: 2,
                duration_nsec: 3,
                idle_timeout: 5,
                packet_count: 7,
                byte_count: 11,
            }),
        };
        let clean = wire::encode(&msg, Xid(4));
        let mut mangled = clean.clone();
        for &(at, mask) in &flips {
            let idx = at % mangled.len();
            mangled[idx] ^= mask;
        }
        mangled.truncate(mangled.len() - cut_at % (mangled.len() / 4 + 1));
        for bytes in [&clean, &mangled] {
            let viewed = wire::decode_view(bytes);
            if let Ok((MessageView::FlowMod(fm), _, _)) = &viewed {
                prop_assert_eq!(fm.first_output, first_output(&fm.actions.to_vec()));
            }
            let owned = viewed.map(|(view, xid, used)| (view.into_owned(), xid, used));
            prop_assert_eq!(owned, wire::decode(bytes));
        }
        if let Ok((MessageView::FlowMod(fm), _, _)) = wire::decode_view(&clean) {
            prop_assert_eq!(fm.first_output, first_output(&actions));
        }
        prop_assert_eq!(wire::decode(&clean).unwrap().0, msg);
    }

    #[test]
    fn framed_prefix_of_a_flow_mod_decodes_only_at_action_boundaries(
        m in arb_match(), actions in arb_actions(), cut_at in any::<usize>()) {
        // A prefix framed as a whole message (its header length patched
        // to the cut) decodes exactly when it ends after the fixed part
        // on an action boundary; every other cut is a truncation, never
        // a different error.
        let mut fm = FlowMod::add(m, 5);
        fm.actions = actions;
        let mut boundaries = vec![wire::HEADER_LEN + 64];
        for a in &fm.actions {
            boundaries.push(boundaries.last().unwrap() + usize::from(a.wire_len()));
        }
        let bytes = wire::encode(&OfpMessage::FlowMod(fm), Xid(1)).to_vec();
        let cut = wire::HEADER_LEN + cut_at % (bytes.len() - wire::HEADER_LEN + 1);
        let mut framed = bytes[..cut].to_vec();
        framed[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
        match wire::decode(&framed) {
            Ok((_, _, used)) => {
                prop_assert_eq!(used, cut);
                prop_assert!(boundaries.contains(&cut), "decoded at {}", cut);
            }
            Err(openflow::error::DecodeError::Truncated { .. }) => {
                prop_assert!(!boundaries.contains(&cut), "refused at {}", cut);
            }
            Err(other) => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    #[test]
    fn exact_match_always_matches_own_key(key in arb_flow_key(), port in 1u16..1000) {
        let m = OfMatch::exact(&key, PortNo(port));
        prop_assert!(m.matches(&key, PortNo(port)));
        prop_assert!(!m.matches(&key, PortNo(port + 1000)));
    }

    #[test]
    fn table_lookup_agrees_with_match_packet(keys in prop::collection::vec(arb_flow_key(), 1..20)) {
        let mut table = FlowTable::new();
        let now = Timestamp::ZERO;
        for key in &keys {
            let fm = FlowMod::add(OfMatch::exact(key, PortNo(1)), 1)
                .idle_timeout(5)
                .action(Action::output(PortNo(2)));
            table.apply(&fm, now).unwrap();
        }
        for key in &keys {
            let found = table.lookup(key, PortNo(1)).is_some();
            let matched = table.match_packet(key, PortNo(1), 1, now).is_some();
            prop_assert_eq!(found, matched);
            prop_assert!(found);
        }
    }

    #[test]
    fn expiry_is_monotone(idle in 1u16..30, activity_ms in 0u64..60_000) {
        // An entry active at time A with idle timeout I must still be
        // installed at any time < A + I and gone at any time >= A + I.
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let mut table = FlowTable::new();
        let fm = FlowMod::add(OfMatch::exact(&key, PortNo(1)), 1).idle_timeout(idle);
        table.apply(&fm, Timestamp::ZERO).unwrap();
        let active_at = Timestamp::from_millis(activity_ms);
        table.match_packet(&key, PortNo(1), 1, active_at);
        let deadline = active_at + u64::from(idle) * 1_000_000;
        prop_assert!(table.expire(Timestamp(deadline.0 - 1)).is_empty());
        prop_assert_eq!(table.expire(deadline).len(), 1);
        prop_assert!(table.is_empty());
    }
}
