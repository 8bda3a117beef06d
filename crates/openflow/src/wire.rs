//! Binary wire codec with OpenFlow 1.0 layout.
//!
//! Every message is framed by the common 8-byte header
//! `(version, type, length, xid)`. Structures follow the field layout of
//! the OpenFlow 1.0 specification, so the codec interoperates at the byte
//! level with standard tooling for the message subset implemented.
//!
//! Decoders read through `bytes::Buf`, whose every read checks its own
//! bounds: a read that runs short is [`DecodeError::Truncated`], and no
//! decoder sizes its input by hand first. A decoder reads a fixed block
//! (pad included) whole before it judges an enum or length field in it,
//! so a block cut short is `Truncated` whatever that field holds.
//!
//! [`decode_view`] is the one decoder. The two messages on FlowDiff's
//! per-event path come back as views that borrow their variable-length
//! parts from the input — a `PacketIn`'s frame bytes, a `FlowMod`'s
//! validated actions — so reading them allocates nothing; every other
//! message decodes owned. [`decode`] is `decode_view` and
//! [`MessageView::into_owned`].
//!
//! ```
//! use openflow::prelude::*;
//! use openflow::wire;
//!
//! let msg = OfpMessage::EchoRequest(vec![1, 2, 3].into());
//! let bytes = wire::encode(&msg, Xid(7));
//! let (decoded, xid, used) = wire::decode(&bytes)?;
//! assert_eq!(decoded, msg);
//! assert_eq!(xid, Xid(7));
//! assert_eq!(used, bytes.len());
//! # Ok::<(), openflow::error::DecodeError>(())
//! ```

use std::borrow::Cow;
use std::net::Ipv4Addr;

use bytes::{Buf, BufMut};

use crate::actions::{first_output, Action};
use crate::error::DecodeError;
use crate::match_fields::{OfMatch, Wildcards};
use crate::messages::{
    AggregateStats, ErrorMsg, FlowMod, FlowModCommand, FlowModFlags, FlowRemoved,
    FlowRemovedReason, FlowStats, OfpMessage, PacketIn, PacketInReason, PacketOut, PhyPort,
    PortReason, PortStats, PortStatus, StatsReply, StatsRequest, SwitchFeatures,
};
use crate::types::{BufferId, Cookie, DatapathId, IpProto, MacAddr, PortNo, VlanId, Xid};

/// The protocol version byte for OpenFlow 1.0.
pub const OFP_VERSION: u8 = 0x01;

/// Size of the common message header.
pub const HEADER_LEN: usize = 8;

/// The largest framed message OpenFlow 1.0 can carry: the header's
/// length field is 16 bits and counts the header itself.
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// Appends a framed message with the given transaction id to `out`:
/// header and body are written in place and the header's length is
/// patched once the body's size is known. This is the one encoder.
///
/// # Panics
///
/// Panics when the framed message would exceed [`MAX_MESSAGE_LEN`]
/// bytes: the protocol cannot frame it, and a header whose length
/// wrapped would make a reader split the message at the wrong byte.
pub fn encode_into(msg: &OfpMessage, xid: Xid, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u8(OFP_VERSION);
    out.put_u8(msg.type_code());
    out.put_u16(0); // length, patched below
    out.put_u32(xid.0);
    encode_body(msg, out);
    let len = out.len() - start;
    let Ok(framed) = u16::try_from(len) else {
        panic!(
            "cannot frame a {len}-byte OpenFlow 1.0 message (type {}): \
             the header's length field holds at most {MAX_MESSAGE_LEN}",
            msg.type_code()
        );
    };
    out[start + 2..start + 4].copy_from_slice(&framed.to_be_bytes());
}

/// Encodes a message with the given transaction id into a framed byte
/// buffer of its own; see [`encode_into`].
pub fn encode(msg: &OfpMessage, xid: Xid) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(msg, xid, &mut out);
    out
}

/// Decodes one message from the front of `input`, owned: what
/// [`decode_view`] views, a `FlowMod`'s actions collected by the pass
/// that validates them.
///
/// Returns the message, its transaction id, and the number of bytes
/// consumed, so that callers can decode streams of back-to-back messages.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the input is truncated, has the wrong
/// version, or contains an unknown type code or malformed structure.
#[inline]
pub fn decode(input: &[u8]) -> Result<(OfpMessage, Xid, usize), DecodeError> {
    let mut actions = Vec::new();
    let (view, xid, used) = decode_with(input, Some(&mut actions))?;
    let msg = match view {
        MessageView::FlowMod(fm) => OfpMessage::FlowMod(fm.with_actions(actions)),
        view => view.into_owned(),
    };
    Ok((msg, xid, used))
}

/// Decodes one message from the front of `input` as a [`MessageView`]:
/// a `PacketIn` borrows its frame bytes and a `FlowMod` its actions,
/// which are validated here, so neither allocates. Every other message
/// decodes owned.
///
/// Returns the view, its transaction id, and the number of bytes
/// consumed.
///
/// # Errors
///
/// The same [`DecodeError`]s as [`decode`], at the same bytes: this is
/// the decoder `decode` runs.
pub fn decode_view(input: &[u8]) -> Result<(MessageView<'_>, Xid, usize), DecodeError> {
    decode_with(input, None)
}

/// The one decoder behind [`decode`] and [`decode_view`]: the pass that
/// validates a `FlowMod`'s actions also collects them into `actions`,
/// when given.
#[inline]
fn decode_with<'a>(
    input: &'a [u8],
    actions: Option<&mut Vec<Action>>,
) -> Result<(MessageView<'a>, Xid, usize), DecodeError> {
    let (type_code, length, xid) = decode_header(input)?;
    let body = &input[HEADER_LEN..length];
    let view = match type_code {
        10 => MessageView::PacketIn(decode_packet_in(body)?),
        14 => MessageView::FlowMod(decode_flow_mod(body, actions)?),
        other => MessageView::Other(Cow::Owned(decode_body(other, body)?)),
    };
    Ok((view, xid, length))
}

/// One decoded message, as [`decode_view`] returns it or as
/// [`MessageView::from`] views an owned one.
#[derive(Debug, Clone)]
pub enum MessageView<'a> {
    /// A `PacketIn`, its frame bytes borrowed.
    PacketIn(PacketInView<'a>),
    /// A `FlowMod`, its actions borrowed.
    FlowMod(FlowModView<'a>),
    /// Any other message: owned when decoded, borrowed when viewed.
    Other(Cow<'a, OfpMessage>),
}

/// A [`PacketIn`] whose frame bytes are borrowed.
#[derive(Debug, Clone, Copy)]
pub struct PacketInView<'a> {
    /// Id of the packet buffered on the switch, if any.
    pub buffer_id: BufferId,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Why the packet was sent to the controller.
    pub reason: PacketInReason,
    /// The captured frame bytes.
    pub data: &'a [u8],
}

/// A [`FlowMod`] whose actions are borrowed, with the one thing a reader
/// of the control channel asks of them.
#[derive(Debug, Clone, Copy)]
pub struct FlowModView<'a> {
    /// Fields the entry matches on.
    pub match_: OfMatch,
    /// Opaque controller-chosen id echoed in `FlowRemoved`.
    pub cookie: Cookie,
    /// What to do.
    pub command: FlowModCommand,
    /// Seconds of inactivity before expiry (0 = none).
    pub idle_timeout: u16,
    /// Seconds after installation before expiry (0 = none).
    pub hard_timeout: u16,
    /// Matching priority.
    pub priority: u16,
    /// Buffered packet to apply the new rule to on installation.
    pub buffer_id: BufferId,
    /// For delete commands: the output-port filter.
    pub out_port: PortNo,
    /// Behavior flags.
    pub flags: FlowModFlags,
    /// The actions.
    pub actions: ActionsView<'a>,
    /// The first output port of the actions ([`first_output`]).
    pub first_output: Option<PortNo>,
}

/// A [`FlowModView`]'s action list: wire bytes [`decode_view`] validated,
/// or an owned message's decoded list.
#[derive(Debug, Clone, Copy)]
pub struct ActionsView<'a>(ActionsRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum ActionsRepr<'a> {
    /// Every action in these bytes decodes: `decode_flow_mod` checked.
    Wire(&'a [u8]),
    Decoded(&'a [Action]),
}

impl ActionsView<'_> {
    /// The actions, decoded into a list of their own.
    pub fn to_vec(&self) -> Vec<Action> {
        match self.0 {
            ActionsRepr::Wire(bytes) => {
                decode_actions(bytes).expect("decode_view validated every action")
            }
            ActionsRepr::Decoded(actions) => actions.to_vec(),
        }
    }
}

impl MessageView<'_> {
    /// The owned message: a view's borrowed parts are copied into it, a
    /// decoded message is moved.
    #[inline]
    pub fn into_owned(self) -> OfpMessage {
        match self {
            MessageView::PacketIn(pi) => OfpMessage::PacketIn(PacketIn {
                buffer_id: pi.buffer_id,
                total_len: pi.total_len,
                in_port: pi.in_port,
                reason: pi.reason,
                data: pi.data.into(),
            }),
            MessageView::FlowMod(fm) => OfpMessage::FlowMod(fm.with_actions(fm.actions.to_vec())),
            MessageView::Other(msg) => msg.into_owned(),
        }
    }
}

impl FlowModView<'_> {
    /// The owned `FlowMod`, holding `actions`: the view's, decoded.
    #[inline]
    fn with_actions(self, actions: Vec<Action>) -> FlowMod {
        FlowMod {
            match_: self.match_,
            cookie: self.cookie,
            command: self.command,
            idle_timeout: self.idle_timeout,
            hard_timeout: self.hard_timeout,
            priority: self.priority,
            buffer_id: self.buffer_id,
            out_port: self.out_port,
            flags: self.flags,
            actions,
        }
    }
}

impl<'a> From<&'a OfpMessage> for MessageView<'a> {
    /// Views an owned message as [`decode_view`] would have returned it.
    #[inline]
    fn from(msg: &'a OfpMessage) -> MessageView<'a> {
        match msg {
            OfpMessage::PacketIn(pi) => MessageView::PacketIn(PacketInView {
                buffer_id: pi.buffer_id,
                total_len: pi.total_len,
                in_port: pi.in_port,
                reason: pi.reason,
                data: &pi.data,
            }),
            OfpMessage::FlowMod(fm) => MessageView::FlowMod(FlowModView {
                match_: fm.match_,
                cookie: fm.cookie,
                command: fm.command,
                idle_timeout: fm.idle_timeout,
                hard_timeout: fm.hard_timeout,
                priority: fm.priority,
                buffer_id: fm.buffer_id,
                out_port: fm.out_port,
                flags: fm.flags,
                actions: ActionsView(ActionsRepr::Decoded(&fm.actions)),
                first_output: first_output(&fm.actions),
            }),
            other => MessageView::Other(Cow::Borrowed(other)),
        }
    }
}

/// Parses and validates the common 8-byte header, checking that the
/// whole framed message is available.
fn decode_header(input: &[u8]) -> Result<(u8, usize, Xid), DecodeError> {
    if input.len() < HEADER_LEN {
        return Err(DecodeError::Truncated {
            needed: HEADER_LEN,
            available: input.len(),
        });
    }
    let mut hdr = input;
    let version = hdr.get_u8()?;
    if version != OFP_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let type_code = hdr.get_u8()?;
    let length = hdr.get_u16()? as usize;
    let xid = Xid(hdr.get_u32()?);
    if length < HEADER_LEN {
        return Err(DecodeError::BadLength {
            context: "header.length",
            claimed: length,
        });
    }
    if input.len() < length {
        return Err(DecodeError::Truncated {
            needed: length,
            available: input.len(),
        });
    }
    Ok((type_code, length, xid))
}

fn encode_body(msg: &OfpMessage, buf: &mut Vec<u8>) {
    match msg {
        OfpMessage::Hello
        | OfpMessage::FeaturesRequest
        | OfpMessage::BarrierRequest
        | OfpMessage::BarrierReply => {}
        OfpMessage::EchoRequest(payload) | OfpMessage::EchoReply(payload) => {
            buf.put_slice(payload);
        }
        OfpMessage::Error(e) => {
            buf.put_u16(e.err_type);
            buf.put_u16(e.code);
            buf.put_slice(&e.data);
        }
        OfpMessage::FeaturesReply(features) => encode_features(features, buf),
        OfpMessage::PacketIn(pi) => encode_packet_in(pi, buf),
        OfpMessage::PacketOut(po) => encode_packet_out(po, buf),
        OfpMessage::FlowMod(fm) => encode_flow_mod(fm, buf),
        OfpMessage::FlowRemoved(fr) => encode_flow_removed(fr, buf),
        OfpMessage::PortStatus(ps) => encode_port_status(ps, buf),
        OfpMessage::StatsRequest(req) => encode_stats_request(req, buf),
        OfpMessage::StatsReply(rep) => encode_stats_reply(rep, buf),
    }
}

/// Decodes the body of a message [`decode_view`] does not view.
fn decode_body(type_code: u8, body: &[u8]) -> Result<OfpMessage, DecodeError> {
    match type_code {
        0 => Ok(OfpMessage::Hello),
        1 => {
            let mut b = body;
            let err_type = b.get_u16()?;
            let code = b.get_u16()?;
            Ok(OfpMessage::Error(ErrorMsg {
                err_type,
                code,
                data: b.into(),
            }))
        }
        2 => Ok(OfpMessage::EchoRequest(body.into())),
        3 => Ok(OfpMessage::EchoReply(body.into())),
        5 => Ok(OfpMessage::FeaturesRequest),
        6 => decode_features(body).map(OfpMessage::FeaturesReply),
        11 => decode_flow_removed(body).map(OfpMessage::FlowRemoved),
        12 => decode_port_status(body).map(OfpMessage::PortStatus),
        13 => decode_packet_out(body).map(OfpMessage::PacketOut),
        16 => decode_stats_request(body).map(OfpMessage::StatsRequest),
        17 => decode_stats_reply(body).map(OfpMessage::StatsReply),
        18 => Ok(OfpMessage::BarrierRequest),
        19 => Ok(OfpMessage::BarrierReply),
        other => Err(DecodeError::UnknownMessageType(other)),
    }
}

// ---------------------------------------------------------------- ofp_match

/// Encodes an [`OfMatch`] (40 bytes).
fn encode_match(m: &OfMatch, buf: &mut Vec<u8>) {
    buf.put_u32(m.wildcards.0);
    buf.put_u16(m.in_port.0);
    buf.put_slice(&m.dl_src.0);
    buf.put_slice(&m.dl_dst.0);
    buf.put_u16(m.dl_vlan.0);
    buf.put_u8(m.dl_vlan_pcp);
    buf.put_u8(0); // pad
    buf.put_u16(m.dl_type);
    buf.put_u8(m.nw_tos);
    buf.put_u8(m.nw_proto.0);
    buf.put_u16(0); // pad
    buf.put_u32(u32::from(m.nw_src));
    buf.put_u32(u32::from(m.nw_dst));
    buf.put_u16(m.tp_src);
    buf.put_u16(m.tp_dst);
}

/// Decodes an [`OfMatch`] from the front of `buf`, advancing it.
fn decode_match(buf: &mut &[u8]) -> Result<OfMatch, DecodeError> {
    let wildcards = Wildcards(buf.get_u32()?);
    let in_port = PortNo(buf.get_u16()?);
    let mut dl_src = [0u8; 6];
    let mut dl_dst = [0u8; 6];
    buf.copy_to_slice(&mut dl_src)?;
    buf.copy_to_slice(&mut dl_dst)?;
    let dl_vlan = VlanId(buf.get_u16()?);
    let dl_vlan_pcp = buf.get_u8()?;
    buf.advance(1)?;
    let dl_type = buf.get_u16()?;
    let nw_tos = buf.get_u8()?;
    let nw_proto = IpProto(buf.get_u8()?);
    buf.advance(2)?;
    let nw_src = Ipv4Addr::from(buf.get_u32()?);
    let nw_dst = Ipv4Addr::from(buf.get_u32()?);
    let tp_src = buf.get_u16()?;
    let tp_dst = buf.get_u16()?;
    Ok(OfMatch {
        wildcards,
        in_port,
        dl_src: MacAddr(dl_src),
        dl_dst: MacAddr(dl_dst),
        dl_vlan,
        dl_vlan_pcp,
        dl_type,
        nw_tos,
        nw_proto,
        nw_src,
        nw_dst,
        tp_src,
        tp_dst,
    })
}

// --------------------------------------------------------------- actions

fn encode_action(a: &Action, buf: &mut Vec<u8>) {
    buf.put_u16(a.type_code());
    buf.put_u16(a.wire_len());
    match *a {
        Action::Output { port, max_len } => {
            buf.put_u16(port.0);
            buf.put_u16(max_len);
        }
        Action::SetVlanVid(v) => {
            buf.put_u16(v.0);
            buf.put_u16(0);
        }
        Action::SetVlanPcp(p) => {
            buf.put_u8(p);
            buf.put_slice(&[0; 3]);
        }
        Action::StripVlan => buf.put_u32(0),
        Action::SetDlSrc(mac) | Action::SetDlDst(mac) => {
            buf.put_slice(&mac.0);
            buf.put_slice(&[0; 6]);
        }
        Action::SetNwSrc(ip) | Action::SetNwDst(ip) => buf.put_u32(u32::from(ip)),
        Action::SetNwTos(t) => {
            buf.put_u8(t);
            buf.put_slice(&[0; 3]);
        }
        Action::SetTpSrc(p) | Action::SetTpDst(p) => {
            buf.put_u16(p);
            buf.put_u16(0);
        }
        Action::Enqueue { port, queue_id } => {
            buf.put_u16(port.0);
            buf.put_slice(&[0; 6]);
            buf.put_u32(queue_id);
        }
    }
}

fn decode_action(buf: &mut &[u8]) -> Result<Action, DecodeError> {
    let type_code = buf.get_u16()?;
    let len = buf.get_u16()? as usize;
    if len < 4 || !len.is_multiple_of(8) {
        return Err(DecodeError::BadLength {
            context: "action.len",
            claimed: len,
        });
    }
    let mut body = buf.split_to(len - 4)?;
    let action = match type_code {
        0 => Action::Output {
            port: PortNo(body.get_u16()?),
            max_len: body.get_u16()?,
        },
        1 => Action::SetVlanVid(VlanId(body.get_u16()?)),
        2 => Action::SetVlanPcp(body.get_u8()?),
        3 => Action::StripVlan,
        4 | 5 => {
            let mut mac = [0u8; 6];
            body.copy_to_slice(&mut mac)?;
            if type_code == 4 {
                Action::SetDlSrc(MacAddr(mac))
            } else {
                Action::SetDlDst(MacAddr(mac))
            }
        }
        6 => Action::SetNwSrc(Ipv4Addr::from(body.get_u32()?)),
        7 => Action::SetNwDst(Ipv4Addr::from(body.get_u32()?)),
        8 => Action::SetNwTos(body.get_u8()?),
        9 => Action::SetTpSrc(body.get_u16()?),
        10 => Action::SetTpDst(body.get_u16()?),
        11 => {
            let port = PortNo(body.get_u16()?);
            body.advance(6)?;
            Action::Enqueue {
                port,
                queue_id: body.get_u32()?,
            }
        }
        other => return Err(DecodeError::UnknownActionType(other)),
    };
    Ok(action)
}

fn encode_actions(actions: &[Action], buf: &mut Vec<u8>) {
    for a in actions {
        encode_action(a, buf);
    }
}

/// Decodes every action in `buf`, handing each to `each`: the one
/// action-list check, whether the list is kept or only validated.
fn scan_actions(mut buf: &[u8], mut each: impl FnMut(Action)) -> Result<(), DecodeError> {
    while !buf.is_empty() {
        each(decode_action(&mut buf)?);
    }
    Ok(())
}

/// Every action takes at least this many bytes, so a list's byte length
/// over it bounds its length.
const MIN_ACTION_LEN: usize = 8;

fn decode_actions(buf: &[u8]) -> Result<Vec<Action>, DecodeError> {
    let mut actions = Vec::with_capacity(buf.len() / MIN_ACTION_LEN);
    scan_actions(buf, |a| actions.push(a))?;
    Ok(actions)
}

// --------------------------------------------------------------- packet_in

fn encode_packet_in(pi: &PacketIn, buf: &mut Vec<u8>) {
    buf.put_u32(pi.buffer_id.0);
    buf.put_u16(pi.total_len);
    buf.put_u16(pi.in_port.0);
    buf.put_u8(match pi.reason {
        PacketInReason::NoMatch => 0,
        PacketInReason::Action => 1,
    });
    buf.put_u8(0); // pad
    buf.put_slice(&pi.data);
}

fn decode_packet_in(mut body: &[u8]) -> Result<PacketInView<'_>, DecodeError> {
    let buffer_id = BufferId(body.get_u32()?);
    let total_len = body.get_u16()?;
    let in_port = PortNo(body.get_u16()?);
    let raw_reason = body.get_u8()?;
    body.advance(1)?;
    let reason = match raw_reason {
        0 => PacketInReason::NoMatch,
        1 => PacketInReason::Action,
        other => {
            return Err(DecodeError::BadField {
                context: "packet_in.reason",
                value: other as u64,
            })
        }
    };
    Ok(PacketInView {
        buffer_id,
        total_len,
        in_port,
        reason,
        data: body,
    })
}

// -------------------------------------------------------------- packet_out

fn encode_packet_out(po: &PacketOut, buf: &mut Vec<u8>) {
    buf.put_u32(po.buffer_id.0);
    buf.put_u16(po.in_port.0);
    let actions_len: u16 = po.actions.iter().map(Action::wire_len).sum();
    buf.put_u16(actions_len);
    encode_actions(&po.actions, buf);
    buf.put_slice(&po.data);
}

fn decode_packet_out(mut body: &[u8]) -> Result<PacketOut, DecodeError> {
    let buffer_id = BufferId(body.get_u32()?);
    let in_port = PortNo(body.get_u16()?);
    let actions_len = body.get_u16()? as usize;
    let actions = decode_actions(body.split_to(actions_len)?)?;
    Ok(PacketOut {
        buffer_id,
        in_port,
        actions,
        data: body.into(),
    })
}

// ---------------------------------------------------------------- flow_mod

fn encode_flow_mod(fm: &FlowMod, buf: &mut Vec<u8>) {
    encode_match(&fm.match_, buf);
    buf.put_u64(fm.cookie.0);
    buf.put_u16(match fm.command {
        FlowModCommand::Add => 0,
        FlowModCommand::Modify => 1,
        FlowModCommand::ModifyStrict => 2,
        FlowModCommand::Delete => 3,
        FlowModCommand::DeleteStrict => 4,
    });
    buf.put_u16(fm.idle_timeout);
    buf.put_u16(fm.hard_timeout);
    buf.put_u16(fm.priority);
    buf.put_u32(fm.buffer_id.0);
    buf.put_u16(fm.out_port.0);
    let mut flags = 0u16;
    if fm.flags.send_flow_rem {
        flags |= 1;
    }
    if fm.flags.check_overlap {
        flags |= 2;
    }
    if fm.flags.emergency {
        flags |= 4;
    }
    buf.put_u16(flags);
    encode_actions(&fm.actions, buf);
}

/// Decodes a `FlowMod` body, collecting its actions into `actions`, when
/// given, as it validates them.
fn decode_flow_mod<'a>(
    mut body: &'a [u8],
    mut actions: Option<&mut Vec<Action>>,
) -> Result<FlowModView<'a>, DecodeError> {
    let match_ = decode_match(&mut body)?;
    let cookie = Cookie(body.get_u64()?);
    let raw_command = body.get_u16()?;
    let idle_timeout = body.get_u16()?;
    let hard_timeout = body.get_u16()?;
    let priority = body.get_u16()?;
    let buffer_id = BufferId(body.get_u32()?);
    let out_port = PortNo(body.get_u16()?);
    let raw_flags = body.get_u16()?;
    let command = match raw_command {
        0 => FlowModCommand::Add,
        1 => FlowModCommand::Modify,
        2 => FlowModCommand::ModifyStrict,
        3 => FlowModCommand::Delete,
        4 => FlowModCommand::DeleteStrict,
        other => {
            return Err(DecodeError::BadField {
                context: "flow_mod.command",
                value: other as u64,
            })
        }
    };
    let mut first_output = None;
    if let Some(actions) = &mut actions {
        actions.reserve_exact(body.len() / MIN_ACTION_LEN);
    }
    scan_actions(body, |a| {
        first_output = first_output.or(a.output_port());
        if let Some(actions) = &mut actions {
            actions.push(a);
        }
    })?;
    Ok(FlowModView {
        match_,
        cookie,
        command,
        idle_timeout,
        hard_timeout,
        priority,
        buffer_id,
        out_port,
        flags: FlowModFlags {
            send_flow_rem: raw_flags & 1 != 0,
            check_overlap: raw_flags & 2 != 0,
            emergency: raw_flags & 4 != 0,
        },
        actions: ActionsView(ActionsRepr::Wire(body)),
        first_output,
    })
}

// ------------------------------------------------------------ flow_removed

fn encode_flow_removed(fr: &FlowRemoved, buf: &mut Vec<u8>) {
    encode_match(&fr.match_, buf);
    buf.put_u64(fr.cookie.0);
    buf.put_u16(fr.priority);
    buf.put_u8(match fr.reason {
        FlowRemovedReason::IdleTimeout => 0,
        FlowRemovedReason::HardTimeout => 1,
        FlowRemovedReason::Delete => 2,
    });
    buf.put_u8(0); // pad
    buf.put_u32(fr.duration_sec);
    buf.put_u32(fr.duration_nsec);
    buf.put_u16(fr.idle_timeout);
    buf.put_slice(&[0; 2]); // pad
    buf.put_u64(fr.packet_count);
    buf.put_u64(fr.byte_count);
}

fn decode_flow_removed(mut body: &[u8]) -> Result<FlowRemoved, DecodeError> {
    let match_ = decode_match(&mut body)?;
    let cookie = Cookie(body.get_u64()?);
    let priority = body.get_u16()?;
    let raw_reason = body.get_u8()?;
    body.advance(1)?;
    let duration_sec = body.get_u32()?;
    let duration_nsec = body.get_u32()?;
    let idle_timeout = body.get_u16()?;
    body.advance(2)?;
    let packet_count = body.get_u64()?;
    let byte_count = body.get_u64()?;
    let reason = match raw_reason {
        0 => FlowRemovedReason::IdleTimeout,
        1 => FlowRemovedReason::HardTimeout,
        2 => FlowRemovedReason::Delete,
        other => {
            return Err(DecodeError::BadField {
                context: "flow_removed.reason",
                value: other as u64,
            })
        }
    };
    Ok(FlowRemoved {
        match_,
        cookie,
        priority,
        reason,
        duration_sec,
        duration_nsec,
        idle_timeout,
        packet_count,
        byte_count,
    })
}

// ---------------------------------------------------------------- features

const PORT_NAME_LEN: usize = 16;

fn encode_phy_port(p: &PhyPort, buf: &mut Vec<u8>) {
    buf.put_u16(p.port_no.0);
    buf.put_slice(&p.hw_addr.0);
    let mut name = [0u8; PORT_NAME_LEN];
    let bytes = p.name.as_bytes();
    let n = bytes.len().min(PORT_NAME_LEN - 1);
    name[..n].copy_from_slice(&bytes[..n]);
    buf.put_slice(&name);
    // config(4) + state(4): we encode only link state in the state word.
    buf.put_u32(0);
    buf.put_u32(if p.link_up { 0 } else { 1 }); // OFPPS_LINK_DOWN = 1 << 0
                                                // curr/advertised/supported/peer feature words, unused.
    buf.put_slice(&[0; 16]);
}

fn decode_phy_port(buf: &mut &[u8]) -> Result<PhyPort, DecodeError> {
    let port_no = PortNo(buf.get_u16()?);
    let mut mac = [0u8; 6];
    buf.copy_to_slice(&mut mac)?;
    let mut name = [0u8; PORT_NAME_LEN];
    buf.copy_to_slice(&mut name)?;
    let end = name.iter().position(|&b| b == 0).unwrap_or(PORT_NAME_LEN);
    let name = String::from_utf8_lossy(&name[..end]).into_owned();
    let _config = buf.get_u32()?;
    let state = buf.get_u32()?;
    buf.advance(16)?;
    Ok(PhyPort {
        port_no,
        hw_addr: MacAddr(mac),
        name,
        link_up: state & 1 == 0,
    })
}

fn encode_features(f: &SwitchFeatures, buf: &mut Vec<u8>) {
    buf.put_u64(f.datapath_id.0);
    buf.put_u32(f.n_buffers);
    buf.put_u8(f.n_tables);
    buf.put_slice(&[0; 3]); // pad
    buf.put_u32(0); // capabilities
    buf.put_u32(0); // actions bitmap
    for p in &f.ports {
        encode_phy_port(p, buf);
    }
}

fn decode_features(mut body: &[u8]) -> Result<SwitchFeatures, DecodeError> {
    let datapath_id = DatapathId(body.get_u64()?);
    let n_buffers = body.get_u32()?;
    let n_tables = body.get_u8()?;
    body.advance(3 + 4 + 4)?;
    let mut ports = Vec::new();
    while !body.is_empty() {
        ports.push(decode_phy_port(&mut body)?);
    }
    Ok(SwitchFeatures {
        datapath_id,
        n_buffers,
        n_tables,
        ports,
    })
}

// -------------------------------------------------------------- port_status

fn encode_port_status(ps: &PortStatus, buf: &mut Vec<u8>) {
    buf.put_u8(match ps.reason {
        PortReason::Add => 0,
        PortReason::Delete => 1,
        PortReason::Modify => 2,
    });
    buf.put_slice(&[0; 7]); // pad
    encode_phy_port(&ps.port, buf);
}

fn decode_port_status(mut body: &[u8]) -> Result<PortStatus, DecodeError> {
    let raw_reason = body.get_u8()?;
    body.advance(7)?;
    let reason = match raw_reason {
        0 => PortReason::Add,
        1 => PortReason::Delete,
        2 => PortReason::Modify,
        other => {
            return Err(DecodeError::BadField {
                context: "port_status.reason",
                value: other as u64,
            })
        }
    };
    let port = decode_phy_port(&mut body)?;
    Ok(PortStatus { reason, port })
}

// -------------------------------------------------------------- statistics

const STATS_FLOW: u16 = 1;
const STATS_AGGREGATE: u16 = 2;
const STATS_PORT: u16 = 4;

fn encode_stats_request(req: &StatsRequest, buf: &mut Vec<u8>) {
    match req {
        StatsRequest::Flow { match_, out_port } => {
            buf.put_u16(STATS_FLOW);
            buf.put_u16(0); // flags
            encode_match(match_, buf);
            buf.put_u8(0xff); // table_id: all
            buf.put_u8(0); // pad
            buf.put_u16(out_port.0);
        }
        StatsRequest::Aggregate { match_, out_port } => {
            buf.put_u16(STATS_AGGREGATE);
            buf.put_u16(0);
            encode_match(match_, buf);
            buf.put_u8(0xff);
            buf.put_u8(0);
            buf.put_u16(out_port.0);
        }
        StatsRequest::Port { port_no } => {
            buf.put_u16(STATS_PORT);
            buf.put_u16(0);
            buf.put_u16(port_no.0);
            buf.put_slice(&[0; 6]);
        }
    }
}

fn decode_stats_request(mut body: &[u8]) -> Result<StatsRequest, DecodeError> {
    let kind = body.get_u16()?;
    let _flags = body.get_u16()?;
    match kind {
        STATS_FLOW | STATS_AGGREGATE => {
            let match_ = decode_match(&mut body)?;
            body.advance(2)?;
            let out_port = PortNo(body.get_u16()?);
            Ok(if kind == STATS_FLOW {
                StatsRequest::Flow { match_, out_port }
            } else {
                StatsRequest::Aggregate { match_, out_port }
            })
        }
        STATS_PORT => {
            let port_no = PortNo(body.get_u16()?);
            body.advance(6)?;
            Ok(StatsRequest::Port { port_no })
        }
        other => Err(DecodeError::BadField {
            context: "stats_request.type",
            value: other as u64,
        }),
    }
}

fn encode_stats_reply(rep: &StatsReply, buf: &mut Vec<u8>) {
    match rep {
        StatsReply::Flow(entries) => {
            buf.put_u16(STATS_FLOW);
            buf.put_u16(0);
            for e in entries {
                // length of this entry: 88 bytes fixed (no actions encoded).
                buf.put_u16(88);
                buf.put_u8(0); // table_id
                buf.put_u8(0); // pad
                encode_match(&e.match_, buf);
                buf.put_u32(e.duration_sec);
                buf.put_u32(0); // duration_nsec
                buf.put_u16(e.priority);
                buf.put_u16(e.idle_timeout);
                buf.put_u16(e.hard_timeout);
                buf.put_slice(&[0; 6]); // pad
                buf.put_u64(e.cookie.0);
                buf.put_u64(e.packet_count);
                buf.put_u64(e.byte_count);
            }
        }
        StatsReply::Aggregate(agg) => {
            buf.put_u16(STATS_AGGREGATE);
            buf.put_u16(0);
            buf.put_u64(agg.packet_count);
            buf.put_u64(agg.byte_count);
            buf.put_u32(agg.flow_count);
            buf.put_u32(0); // pad
        }
        StatsReply::Port(ports) => {
            buf.put_u16(STATS_PORT);
            buf.put_u16(0);
            for p in ports {
                buf.put_u16(p.port_no.0);
                buf.put_slice(&[0; 6]);
                buf.put_u64(p.rx_packets);
                buf.put_u64(p.tx_packets);
                buf.put_u64(p.rx_bytes);
                buf.put_u64(p.tx_bytes);
                buf.put_u64(p.rx_dropped);
                buf.put_u64(p.tx_dropped);
            }
        }
    }
}

fn decode_stats_reply(mut body: &[u8]) -> Result<StatsReply, DecodeError> {
    let kind = body.get_u16()?;
    let _flags = body.get_u16()?;
    match kind {
        STATS_FLOW => {
            let mut entries = Vec::new();
            while !body.is_empty() {
                let len = body.get_u16()? as usize;
                body.advance(2)?;
                let match_ = decode_match(&mut body)?;
                let duration_sec = body.get_u32()?;
                let _dnsec = body.get_u32()?;
                let priority = body.get_u16()?;
                let idle_timeout = body.get_u16()?;
                let hard_timeout = body.get_u16()?;
                body.advance(6)?;
                let cookie = Cookie(body.get_u64()?);
                let packet_count = body.get_u64()?;
                let byte_count = body.get_u64()?;
                if len != 88 {
                    return Err(DecodeError::BadLength {
                        context: "stats_reply.flow_entry.len",
                        claimed: len,
                    });
                }
                entries.push(FlowStats {
                    match_,
                    priority,
                    duration_sec,
                    idle_timeout,
                    hard_timeout,
                    cookie,
                    packet_count,
                    byte_count,
                });
            }
            Ok(StatsReply::Flow(entries))
        }
        STATS_AGGREGATE => {
            let packet_count = body.get_u64()?;
            let byte_count = body.get_u64()?;
            let flow_count = body.get_u32()?;
            body.advance(4)?; // pad
            Ok(StatsReply::Aggregate(AggregateStats {
                packet_count,
                byte_count,
                flow_count,
            }))
        }
        STATS_PORT => {
            let mut ports = Vec::new();
            while !body.is_empty() {
                let port_no = PortNo(body.get_u16()?);
                body.advance(6)?;
                ports.push(PortStats {
                    port_no,
                    rx_packets: body.get_u64()?,
                    tx_packets: body.get_u64()?,
                    rx_bytes: body.get_u64()?,
                    tx_bytes: body.get_u64()?,
                    rx_dropped: body.get_u64()?,
                    tx_dropped: body.get_u64()?,
                });
            }
            Ok(StatsReply::Port(ports))
        }
        other => Err(DecodeError::BadField {
            context: "stats_reply.type",
            value: other as u64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_fields::FlowKey;

    fn sample_key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 1, 2, 3),
            40000,
            Ipv4Addr::new(10, 4, 5, 6),
            443,
        )
    }

    fn roundtrip(msg: OfpMessage) {
        let bytes = encode(&msg, Xid(99));
        let (decoded, xid, used) = decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(xid, Xid(99));
        assert_eq!(used, bytes.len());
        // Appended behind other frames, the message is the same bytes and
        // its length lands in its own header, not the buffer's first.
        let hello = encode(&OfpMessage::Hello, Xid(1));
        let mut stream = hello.to_vec();
        encode_into(&msg, Xid(99), &mut stream);
        assert_eq!(stream[..HEADER_LEN], *hello);
        assert_eq!(stream[HEADER_LEN..], *bytes);
    }

    #[test]
    fn roundtrip_bodyless_messages() {
        roundtrip(OfpMessage::Hello);
        roundtrip(OfpMessage::FeaturesRequest);
        roundtrip(OfpMessage::BarrierRequest);
        roundtrip(OfpMessage::BarrierReply);
    }

    #[test]
    fn roundtrip_echo() {
        roundtrip(OfpMessage::EchoRequest(vec![0xde, 0xad].into()));
        roundtrip(OfpMessage::EchoReply(Vec::new().into()));
    }

    #[test]
    fn roundtrip_error() {
        // OFPET_FLOW_MOD_FAILED / OFPFMFC_ALL_TABLES_FULL, no data.
        roundtrip(OfpMessage::Error(ErrorMsg {
            err_type: 3,
            code: 0,
            data: Vec::new().into(),
        }));
        roundtrip(OfpMessage::Error(ErrorMsg {
            err_type: 2,
            code: 5,
            data: vec![1, 2, 3, 4].into(),
        }));
    }

    #[test]
    fn roundtrip_packet_in_with_frame() {
        let frame = crate::frame::build_frame(&sample_key(), 96);
        roundtrip(OfpMessage::PacketIn(PacketIn {
            buffer_id: BufferId(1234),
            total_len: 96,
            in_port: PortNo(7),
            reason: PacketInReason::NoMatch,
            data: frame,
        }));
    }

    #[test]
    fn roundtrip_packet_out() {
        roundtrip(OfpMessage::PacketOut(PacketOut {
            buffer_id: BufferId::NO_BUFFER,
            in_port: PortNo(3),
            actions: vec![Action::output(PortNo(5)), Action::SetNwTos(8)],
            data: vec![1, 2, 3, 4].into(),
        }));
    }

    #[test]
    fn roundtrip_flow_mod_all_commands() {
        for command in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            let mut fm = FlowMod::add(OfMatch::exact(&sample_key(), PortNo(1)), 17)
                .idle_timeout(5)
                .hard_timeout(30)
                .cookie(Cookie(0xfeed))
                .action(Action::output(PortNo(2)));
            fm.command = command;
            roundtrip(OfpMessage::FlowMod(fm));
        }
    }

    #[test]
    fn roundtrip_flow_mod_every_action_kind() {
        let mut fm = FlowMod::add(OfMatch::any(), 1);
        fm.actions = vec![
            Action::Output {
                port: PortNo::CONTROLLER,
                max_len: 128,
            },
            Action::SetVlanVid(VlanId(99)),
            Action::SetVlanPcp(5),
            Action::StripVlan,
            Action::SetDlSrc(MacAddr::from_u64(1)),
            Action::SetDlDst(MacAddr::from_u64(2)),
            Action::SetNwSrc(Ipv4Addr::new(1, 2, 3, 4)),
            Action::SetNwDst(Ipv4Addr::new(5, 6, 7, 8)),
            Action::SetNwTos(16),
            Action::SetTpSrc(8080),
            Action::SetTpDst(9090),
            Action::Enqueue {
                port: PortNo(4),
                queue_id: 2,
            },
        ];
        roundtrip(OfpMessage::FlowMod(fm));
    }

    #[test]
    fn short_action_bodies_error_instead_of_panicking() {
        // A SetVlanVid action occupies 8 wire bytes, the smallest
        // length the multiple-of-8 gate accepts. Rewriting its type
        // code to SetDlSrc/SetDlDst (6-byte MAC) or Enqueue (12-byte
        // body) leaves a structurally valid header over a too-short
        // body, which must decode to an error rather than slicing out
        // of bounds.
        let mut fm = FlowMod::add(OfMatch::any(), 1);
        fm.actions = vec![Action::SetVlanVid(VlanId(7))];
        let bytes = encode(&OfpMessage::FlowMod(fm), Xid(1));
        // FlowMod body: match(40) + fixed fields(24), then actions.
        let action_at = HEADER_LEN + 64;
        assert_eq!(bytes.len(), action_at + 8, "one 8-byte action");
        for bad_type in [4u16, 5, 11] {
            let mut mutated = bytes.to_vec();
            mutated[action_at..action_at + 2].copy_from_slice(&bad_type.to_be_bytes());
            let err = decode(&mutated).expect_err("short action body must be rejected");
            assert!(matches!(err, DecodeError::Truncated { .. }), "{err:?}");
        }
    }

    #[test]
    fn roundtrip_flow_removed() {
        roundtrip(OfpMessage::FlowRemoved(FlowRemoved {
            match_: OfMatch::exact(&sample_key(), PortNo(2)),
            cookie: Cookie(42),
            priority: 100,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 12,
            duration_nsec: 345_678,
            idle_timeout: 5,
            packet_count: 1000,
            byte_count: 1_500_000,
        }));
    }

    #[test]
    fn roundtrip_features_reply() {
        roundtrip(OfpMessage::FeaturesReply(SwitchFeatures {
            datapath_id: DatapathId(0xaabb),
            n_buffers: 256,
            n_tables: 1,
            ports: vec![
                PhyPort {
                    port_no: PortNo(1),
                    hw_addr: MacAddr::from_u64(11),
                    name: "eth1".to_owned(),
                    link_up: true,
                },
                PhyPort {
                    port_no: PortNo(2),
                    hw_addr: MacAddr::from_u64(12),
                    name: "eth2".to_owned(),
                    link_up: false,
                },
            ],
        }));
    }

    #[test]
    fn roundtrip_port_status() {
        roundtrip(OfpMessage::PortStatus(PortStatus {
            reason: PortReason::Modify,
            port: PhyPort {
                port_no: PortNo(9),
                hw_addr: MacAddr::from_u64(9),
                name: "tor-uplink".to_owned(),
                link_up: false,
            },
        }));
    }

    #[test]
    fn roundtrip_stats_messages() {
        roundtrip(OfpMessage::StatsRequest(StatsRequest::Flow {
            match_: OfMatch::any(),
            out_port: PortNo::NONE,
        }));
        roundtrip(OfpMessage::StatsRequest(StatsRequest::Aggregate {
            match_: OfMatch::exact(&sample_key(), PortNo(1)),
            out_port: PortNo(3),
        }));
        roundtrip(OfpMessage::StatsRequest(StatsRequest::Port {
            port_no: PortNo::NONE,
        }));
        roundtrip(OfpMessage::StatsReply(StatsReply::Flow(vec![FlowStats {
            match_: OfMatch::exact(&sample_key(), PortNo(1)),
            priority: 5,
            duration_sec: 30,
            idle_timeout: 5,
            hard_timeout: 0,
            cookie: Cookie(77),
            packet_count: 10,
            byte_count: 10_000,
        }])));
        roundtrip(OfpMessage::StatsReply(StatsReply::Aggregate(
            AggregateStats {
                packet_count: 5,
                byte_count: 500,
                flow_count: 2,
            },
        )));
        roundtrip(OfpMessage::StatsReply(StatsReply::Port(vec![PortStats {
            port_no: PortNo(1),
            rx_packets: 1,
            tx_packets: 2,
            rx_bytes: 3,
            tx_bytes: 4,
            rx_dropped: 5,
            tx_dropped: 6,
        }])));
    }

    #[test]
    fn decode_stream_of_messages() {
        let a = encode(&OfpMessage::Hello, Xid(1));
        let b = encode(&OfpMessage::EchoRequest(vec![7].into()), Xid(2));
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let (m1, x1, used1) = decode(&stream).unwrap();
        assert_eq!(m1, OfpMessage::Hello);
        assert_eq!(x1, Xid(1));
        let (m2, x2, used2) = decode(&stream[used1..]).unwrap();
        assert_eq!(m2, OfpMessage::EchoRequest(vec![7].into()));
        assert_eq!(x2, Xid(2));
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = encode(&OfpMessage::Hello, Xid(0)).to_vec();
        bytes[0] = 4; // OpenFlow 1.3
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadVersion(4));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = encode(&OfpMessage::Hello, Xid(0)).to_vec();
        bytes[1] = 200;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeError::UnknownMessageType(200)
        );
    }

    /// One sample of every message type (and every statistics kind),
    /// each list carrying two elements, with the framed lengths at which
    /// a prefix whose header length is patched to the cut still decodes.
    fn truncation_cases() -> Vec<(&'static str, OfpMessage, Vec<usize>)> {
        let port = |n: u16| PhyPort {
            port_no: PortNo(n),
            hw_addr: MacAddr::from_u64(u64::from(n)),
            name: format!("eth{n}"),
            link_up: n.is_multiple_of(2),
        };
        let flow_stats = |n: u64| FlowStats {
            match_: OfMatch::exact(&sample_key(), PortNo(1)),
            priority: 5,
            duration_sec: 30,
            idle_timeout: 5,
            hard_timeout: 0,
            cookie: Cookie(n),
            packet_count: 10 * n,
            byte_count: 1000 * n,
        };
        let port_stats = |n: u64| PortStats {
            port_no: PortNo(n as u16),
            rx_packets: n,
            tx_packets: n + 1,
            rx_bytes: n + 2,
            tx_bytes: n + 3,
            rx_dropped: n + 4,
            tx_dropped: n + 5,
        };
        let two_actions = vec![Action::output(PortNo(5)), Action::SetNwTos(8)];
        vec![
            ("hello", OfpMessage::Hello, vec![8]),
            (
                "error",
                OfpMessage::Error(ErrorMsg {
                    err_type: 2,
                    code: 5,
                    data: vec![1, 2, 3, 4].into(),
                }),
                (12..=16).collect(),
            ),
            (
                "echo_request",
                OfpMessage::EchoRequest(vec![1, 2, 3].into()),
                (8..=11).collect(),
            ),
            (
                "echo_reply",
                OfpMessage::EchoReply(vec![4, 5].into()),
                (8..=10).collect(),
            ),
            ("features_request", OfpMessage::FeaturesRequest, vec![8]),
            (
                "features_reply",
                OfpMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: DatapathId(0xaabb),
                    n_buffers: 256,
                    n_tables: 1,
                    ports: vec![port(1), port(2)],
                }),
                vec![32, 80, 128],
            ),
            (
                "packet_in",
                OfpMessage::PacketIn(PacketIn {
                    buffer_id: BufferId(1234),
                    total_len: 64,
                    in_port: PortNo(7),
                    reason: PacketInReason::Action,
                    data: crate::frame::build_frame(&sample_key(), 64),
                }),
                (18..=82).collect(),
            ),
            (
                "flow_removed",
                OfpMessage::FlowRemoved(FlowRemoved {
                    match_: OfMatch::exact(&sample_key(), PortNo(2)),
                    cookie: Cookie(42),
                    priority: 100,
                    reason: FlowRemovedReason::Delete,
                    duration_sec: 12,
                    duration_nsec: 345_678,
                    idle_timeout: 5,
                    packet_count: 1000,
                    byte_count: 1_500_000,
                }),
                vec![88],
            ),
            (
                "port_status",
                OfpMessage::PortStatus(PortStatus {
                    reason: PortReason::Add,
                    port: port(9),
                }),
                vec![64],
            ),
            (
                "packet_out",
                OfpMessage::PacketOut(PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo(3),
                    actions: two_actions.clone(),
                    data: vec![1, 2, 3, 4].into(),
                }),
                (32..=36).collect(),
            ),
            (
                "flow_mod",
                OfpMessage::FlowMod(FlowMod {
                    actions: two_actions,
                    ..FlowMod::add(OfMatch::exact(&sample_key(), PortNo(1)), 17)
                }),
                vec![72, 80, 88],
            ),
            (
                "stats_request.flow",
                OfpMessage::StatsRequest(StatsRequest::Flow {
                    match_: OfMatch::any(),
                    out_port: PortNo::NONE,
                }),
                vec![56],
            ),
            (
                "stats_request.aggregate",
                OfpMessage::StatsRequest(StatsRequest::Aggregate {
                    match_: OfMatch::exact(&sample_key(), PortNo(1)),
                    out_port: PortNo(3),
                }),
                vec![56],
            ),
            (
                "stats_request.port",
                OfpMessage::StatsRequest(StatsRequest::Port { port_no: PortNo(4) }),
                vec![20],
            ),
            (
                "stats_reply.flow",
                OfpMessage::StatsReply(StatsReply::Flow(vec![flow_stats(1), flow_stats(2)])),
                vec![12, 100, 188],
            ),
            (
                "stats_reply.aggregate",
                OfpMessage::StatsReply(StatsReply::Aggregate(AggregateStats {
                    packet_count: 5,
                    byte_count: 500,
                    flow_count: 2,
                })),
                vec![36],
            ),
            (
                "stats_reply.port",
                OfpMessage::StatsReply(StatsReply::Port(vec![port_stats(1), port_stats(2)])),
                vec![12, 68, 124],
            ),
            ("barrier_request", OfpMessage::BarrierRequest, vec![8]),
            ("barrier_reply", OfpMessage::BarrierReply, vec![8]),
        ]
    }

    #[test]
    fn decode_rejects_truncation() {
        let cases = truncation_cases();
        let mut types: Vec<u8> = cases.iter().map(|(_, m, _)| m.type_code()).collect();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), 15, "every message type has a sample");
        for (name, msg, ok_cuts) in cases {
            let bytes = encode(&msg, Xid(3));
            assert_eq!(ok_cuts.last(), Some(&bytes.len()), "{name}");
            let mut decoded_at = Vec::new();
            for cut in 0..=bytes.len() {
                if cut < bytes.len() {
                    assert!(
                        matches!(decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })),
                        "{name}: raw prefix of {cut} bytes should report truncation"
                    );
                }
                if cut < HEADER_LEN {
                    continue;
                }
                // The same prefix framed as a whole message: the body
                // ends inside a well-framed header.
                let mut framed = bytes[..cut].to_vec();
                framed[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
                match decode(&framed) {
                    Ok((_, xid, used)) => {
                        assert_eq!((xid, used), (Xid(3), cut), "{name}");
                        decoded_at.push(cut);
                    }
                    Err(DecodeError::Truncated { .. }) => {}
                    Err(other) => panic!("{name}: framed cut at {cut} gave {other:?}"),
                }
            }
            assert_eq!(decoded_at, ok_cuts, "{name}: cuts that decode");
            assert_eq!(decode(&bytes).unwrap().0, msg, "{name}");
        }
    }

    #[test]
    fn short_bodies_are_truncated_before_fields_are_judged() {
        // (sample, framed offset and width of a field the decoder
        // judges, framed length of the fixed block holding it, and the
        // error the whole message gives once that field is set to all
        // ones). A prefix that holds the bad field but ends inside its
        // block is `Truncated`, as the block is read before it is judged.
        let cases = [
            (
                "packet_in",
                16,
                1,
                18,
                DecodeError::BadField {
                    context: "packet_in.reason",
                    value: 0xff,
                },
            ),
            (
                "flow_mod",
                56,
                2,
                72,
                DecodeError::BadField {
                    context: "flow_mod.command",
                    value: 0xffff,
                },
            ),
            (
                "flow_removed",
                58,
                1,
                88,
                DecodeError::BadField {
                    context: "flow_removed.reason",
                    value: 0xff,
                },
            ),
            (
                "port_status",
                8,
                1,
                16,
                DecodeError::BadField {
                    context: "port_status.reason",
                    value: 0xff,
                },
            ),
            (
                "stats_reply.flow",
                12,
                2,
                100,
                DecodeError::BadLength {
                    context: "stats_reply.flow_entry.len",
                    claimed: 0xffff,
                },
            ),
        ];
        let samples = truncation_cases();
        for (name, at, width, block_end, whole) in cases {
            let msg = &samples.iter().find(|(n, _, _)| *n == name).unwrap().1;
            let mut bytes = encode(msg, Xid(3)).to_vec();
            bytes[at..at + width].fill(0xff);
            assert_eq!(decode(&bytes).unwrap_err(), whole, "{name}");
            for cut in at + width..block_end {
                let mut framed = bytes[..cut].to_vec();
                framed[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
                let err = decode(&framed).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { .. }),
                    "{name}: framed cut at {cut} gave {err:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 65535")]
    fn oversized_message_is_refused_not_framed_with_a_wrapped_length() {
        // 70,018 bytes framed: a 16-bit length would read 4,482, and a
        // decoder would take the other 65,536 bytes for the next frame.
        let mut out = Vec::new();
        encode_into(
            &OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: u16::MAX,
                in_port: PortNo(1),
                reason: PacketInReason::NoMatch,
                data: vec![0; 70_000].into(),
            }),
            Xid(1),
            &mut out,
        );
    }

    #[test]
    fn largest_frameable_message_round_trips() {
        let payload = vec![7; MAX_MESSAGE_LEN - HEADER_LEN];
        let bytes = encode(&OfpMessage::EchoRequest(payload.into()), Xid(5));
        assert_eq!(bytes.len(), MAX_MESSAGE_LEN);
        let (_, _, used) = decode(&bytes).expect("decode");
        assert_eq!(used, MAX_MESSAGE_LEN);
    }

    #[test]
    fn header_length_is_total_message_length() {
        let msg = OfpMessage::EchoRequest(vec![0; 10].into());
        let bytes = encode(&msg, Xid(0));
        let claimed = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        assert_eq!(claimed, bytes.len());
        assert_eq!(claimed, HEADER_LEN + 10);
    }
}
