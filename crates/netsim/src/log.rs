//! The controller-side control-traffic log.
//!
//! This is the *only* interface between the simulated data center and
//! FlowDiff: a time-ordered list of control messages as seen at the
//! controller, exactly what a passive tap on the OpenFlow control channel
//! would capture (Section III-A of the paper).

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use openflow::frame::parse_frame;
use openflow::match_fields::FlowKey;
use openflow::messages::{OfpMessage, StatsReply};
use openflow::types::{DatapathId, IpProto, PortNo, Timestamp, Xid};
use openflow::wire::MessageView;
use serde::{Deserialize, Serialize};

/// Which way a control message traveled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Switch-to-controller (e.g. `PacketIn`, `FlowRemoved`).
    ToController,
    /// Controller-to-switch (e.g. `FlowMod`, `PacketOut`).
    FromController,
}

/// One captured control message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlEvent {
    /// Controller-side capture timestamp: arrival time for
    /// switch-to-controller messages, send time for controller-to-switch
    /// messages (this is what Figure 3 of the paper assumes).
    pub ts: Timestamp,
    /// The switch this message came from or went to.
    pub dpid: DatapathId,
    /// Message direction.
    pub direction: Direction,
    /// Transaction id; replies echo the request's.
    pub xid: Xid,
    /// The message itself.
    pub msg: OfpMessage,
}

/// A transport 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowTuple {
    /// Source IP.
    pub src: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
    /// IP protocol.
    pub proto: IpProto,
}

impl FlowTuple {
    /// Extracts the 5-tuple from a parsed flow key.
    pub fn from_key(key: &FlowKey) -> FlowTuple {
        FlowTuple {
            src: key.nw_src,
            sport: key.tp_src,
            dst: key.nw_dst,
            dport: key.tp_dst,
            proto: key.nw_proto,
        }
    }
}

impl fmt::Display for FlowTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.sport, self.dst, self.dport
        )
    }
}

/// One control event as FlowDiff reads it: the [`ControlEvent`] header
/// and only the message fields the diagnosis uses, in a fixed-size
/// value that owns no heap except a port-stats reply's counters.
///
/// One function reads the body off a message view: a live ingest builds
/// each `FlowEvent` on the connection-reader thread straight from the
/// frame's borrowed view ([`FrameDecoder::push_flow_events`]), so no full
/// message (a `PacketIn`'s payload, a `FlowMod`'s action list) is ever
/// allocated, and `From<&ControlEvent>` views the owned message and
/// reads it with the same function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEvent {
    /// Controller-side capture timestamp.
    pub ts: Timestamp,
    /// The switch this message came from or went to.
    pub dpid: DatapathId,
    /// Message direction.
    pub direction: Direction,
    /// Transaction id.
    pub xid: Xid,
    /// What the diagnosis reads of the message.
    pub body: EventBody,
}

/// The fields of a control message a [`FlowEvent`] keeps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventBody {
    /// A `PacketIn`: its ingress port and the flow its payload carries,
    /// `None` when the payload is no parseable IPv4 frame.
    PacketIn {
        /// Port the packet arrived on.
        in_port: PortNo,
        /// The payload's 5-tuple.
        tuple: Option<FlowTuple>,
    },
    /// A `FlowMod`: its first output port, if any.
    FlowMod {
        /// The egress port the entry installs.
        out_port: Option<PortNo>,
    },
    /// A `FlowRemoved`: the removed entry's tuple and final counters.
    FlowRemoved {
        /// The 5-tuple of the entry's match.
        tuple: FlowTuple,
        /// Bytes matched over the entry's lifetime.
        byte_count: u64,
        /// Packets matched over the entry's lifetime.
        packet_count: u64,
        /// Seconds the entry was installed.
        duration_sec: u32,
        /// Sub-second part of the duration, in nanoseconds.
        duration_nsec: u32,
    },
    /// A port-stats reply: `(port, transmitted bytes)` per port.
    PortStats(Arc<[(PortNo, u64)]>),
    /// Any other message: only its header fields count.
    Other,
}

impl From<&ControlEvent> for FlowEvent {
    fn from(ev: &ControlEvent) -> FlowEvent {
        FlowEvent {
            ts: ev.ts,
            dpid: ev.dpid,
            direction: ev.direction,
            xid: ev.xid,
            body: event_body(&MessageView::from(&ev.msg)),
        }
    }
}

/// What a [`FlowEvent`] keeps of a message: the one conversion, read off
/// a decoded frame's view or an owned message's.
#[inline]
fn event_body(msg: &MessageView<'_>) -> EventBody {
    match msg {
        MessageView::PacketIn(pi) => EventBody::PacketIn {
            in_port: pi.in_port,
            tuple: parse_frame(pi.data).ok().map(|k| FlowTuple::from_key(&k)),
        },
        MessageView::FlowMod(fm) => EventBody::FlowMod {
            out_port: fm.first_output,
        },
        MessageView::Other(msg) => match &**msg {
            OfpMessage::FlowRemoved(fr) => {
                let m = &fr.match_;
                EventBody::FlowRemoved {
                    tuple: FlowTuple {
                        src: m.nw_src,
                        sport: m.tp_src,
                        dst: m.nw_dst,
                        dport: m.tp_dst,
                        proto: m.nw_proto,
                    },
                    byte_count: fr.byte_count,
                    packet_count: fr.packet_count,
                    duration_sec: fr.duration_sec,
                    duration_nsec: fr.duration_nsec,
                }
            }
            OfpMessage::StatsReply(StatsReply::Port(ports)) => {
                EventBody::PortStats(ports.iter().map(|p| (p.port_no, p.tx_bytes)).collect())
            }
            _ => EventBody::Other,
        },
    }
}

/// What the frame step builds from one frame: the message at the front
/// of `message` decoded, with the bytes it took.
trait FromFrame: Sized {
    fn from_frame(
        ts: Timestamp,
        dpid: DatapathId,
        direction: Direction,
        message: &[u8],
    ) -> Result<(Self, usize), openflow::error::DecodeError>;
}

impl FromFrame for ControlEvent {
    /// The owned message: its borrowed parts are copied out of the window.
    #[inline]
    fn from_frame(
        ts: Timestamp,
        dpid: DatapathId,
        direction: Direction,
        message: &[u8],
    ) -> Result<(ControlEvent, usize), openflow::error::DecodeError> {
        let (msg, xid, used) = openflow::wire::decode(message)?;
        Ok((
            ControlEvent {
                ts,
                dpid,
                direction,
                xid,
                msg,
            },
            used,
        ))
    }
}

impl FromFrame for FlowEvent {
    /// Read straight off the view: nothing is copied or allocated, bar a
    /// port-stats reply's counters.
    fn from_frame(
        ts: Timestamp,
        dpid: DatapathId,
        direction: Direction,
        message: &[u8],
    ) -> Result<(FlowEvent, usize), openflow::error::DecodeError> {
        let (msg, xid, used) = openflow::wire::decode_view(message)?;
        let body = event_body(&msg);
        Ok((
            FlowEvent {
                ts,
                dpid,
                direction,
                xid,
                body,
            },
            used,
        ))
    }
}

/// A copy, so every entry point that takes `impl Into<FlowEvent>`
/// accepts a borrowed `FlowEvent` as well as a `ControlEvent`.
impl From<&FlowEvent> for FlowEvent {
    fn from(ev: &FlowEvent) -> FlowEvent {
        ev.clone()
    }
}

/// A time-ordered capture of control traffic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerLog {
    events: Vec<ControlEvent>,
}

impl ControllerLog {
    /// Creates an empty log.
    pub fn new() -> ControllerLog {
        ControllerLog::default()
    }

    /// Appends an event.
    ///
    /// Events may be pushed slightly out of order by the simulator (it
    /// stamps send and receive times); call [`ControllerLog::finish`] once
    /// when the capture ends to restore time order.
    pub fn push(&mut self, ev: ControlEvent) {
        self.events.push(ev);
    }

    /// Sorts the capture by timestamp (stable, so simultaneous events keep
    /// their generation order).
    pub fn finish(&mut self) {
        self.events.sort_by_key(|e| e.ts);
    }

    /// All events in time order.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The capture's time span, if non-empty.
    pub fn time_range(&self) -> Option<(Timestamp, Timestamp)> {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => Some((a.ts, b.ts)),
            _ => None,
        }
    }

    /// Iterates over `PacketIn` events as `(ts, dpid, xid, &PacketIn)`.
    pub fn packet_ins(
        &self,
    ) -> impl Iterator<Item = (Timestamp, DatapathId, Xid, &openflow::messages::PacketIn)> + '_
    {
        self.events.iter().filter_map(|e| match &e.msg {
            OfpMessage::PacketIn(pi) => Some((e.ts, e.dpid, e.xid, pi)),
            _ => None,
        })
    }

    /// Iterates over `FlowRemoved` events as `(ts, dpid, &FlowRemoved)`.
    pub fn flow_removeds(
        &self,
    ) -> impl Iterator<Item = (Timestamp, DatapathId, &openflow::messages::FlowRemoved)> + '_ {
        self.events.iter().filter_map(|e| match &e.msg {
            OfpMessage::FlowRemoved(fr) => Some((e.ts, e.dpid, fr)),
            _ => None,
        })
    }

    /// Iterates over `FlowMod` events as `(ts, dpid, xid, &FlowMod)`.
    pub fn flow_mods(
        &self,
    ) -> impl Iterator<Item = (Timestamp, DatapathId, Xid, &openflow::messages::FlowMod)> + '_ {
        self.events.iter().filter_map(|e| match &e.msg {
            OfpMessage::FlowMod(fm) => Some((e.ts, e.dpid, e.xid, fm)),
            _ => None,
        })
    }

    /// Returns the sub-log with timestamps in `[from, to)`.
    pub fn slice(&self, from: Timestamp, to: Timestamp) -> ControllerLog {
        ControllerLog {
            events: self
                .events
                .iter()
                .filter(|e| e.ts >= from && e.ts < to)
                .cloned()
                .collect(),
        }
    }

    /// Splits the log into `n` equal-duration segments (used by FlowDiff's
    /// stability analysis).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split(&self, n: usize) -> Vec<ControllerLog> {
        assert!(n > 0, "cannot split into zero segments");
        let Some((start, end)) = self.time_range() else {
            return vec![ControllerLog::new(); n];
        };
        let span = (end.as_micros() - start.as_micros()).max(1) + 1;
        let step = span.div_ceil(n as u64);
        let mut out = vec![ControllerLog::new(); n];
        for ev in &self.events {
            let idx = ((ev.ts.as_micros() - start.as_micros()) / step) as usize;
            out[idx.min(n - 1)].events.push(ev.clone());
        }
        out
    }
}

/// Magic bytes of the capture file format.
pub const CAPTURE_MAGIC: &[u8; 8] = b"FDIFFCAP";

/// Bytes of the per-event preamble: `[ts: u64][dpid: u64][direction: u8]`.
const PREAMBLE_LEN: usize = 17;

/// Smallest possible frame: the preamble plus the 8-byte OpenFlow header.
const MIN_FRAME_LEN: usize = PREAMBLE_LEN + openflow::wire::HEADER_LEN;

/// Why a point in a wire capture failed to decode.
///
/// Every variant except [`DecodeError::BadMagic`] carries the absolute
/// byte offset of the offending frame, so corruption can be localized in
/// the capture file. A [`LogStream`] reports these as `Err` items and
/// then *resynchronizes* to the next plausible frame boundary —
/// corruption costs the damaged frames, never the rest of the capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The capture does not start with the `FDIFFCAP` magic header.
    BadMagic,
    /// The capture ends mid-frame: fewer bytes remain than the smallest
    /// possible frame (preamble + OpenFlow header).
    TruncatedFrame {
        /// Absolute offset of the truncated frame.
        offset: usize,
        /// Bytes remaining at that offset.
        available: usize,
    },
    /// A tag byte holds a value outside its domain: the capture
    /// direction byte, the OpenFlow version, or the message type code.
    BadEventTag {
        /// Absolute offset of the frame.
        offset: usize,
        /// Which tag was bad.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The embedded OpenFlow header claims a length shorter than its own
    /// header or extending past the end of the capture.
    LengthOverflow {
        /// Absolute offset of the frame.
        offset: usize,
        /// The claimed message length.
        claimed: usize,
        /// Bytes actually available for the message.
        available: usize,
    },
    /// The framing was sound but the OpenFlow message body failed
    /// structural decoding.
    BadMessage {
        /// Absolute offset of the frame.
        offset: usize,
        /// The underlying protocol decode error.
        source: openflow::error::DecodeError,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a FDIFFCAP capture (bad magic header)"),
            DecodeError::TruncatedFrame { offset, available } => write!(
                f,
                "truncated frame at offset {offset}: {available} bytes left, \
                 at least {MIN_FRAME_LEN} needed"
            ),
            DecodeError::BadEventTag {
                offset,
                field,
                value,
            } => write!(f, "bad {field} tag {value:#x} at offset {offset}"),
            DecodeError::LengthOverflow {
                offset,
                claimed,
                available,
            } => write!(
                f,
                "message length {claimed} at offset {offset} overflows the \
                 {available} bytes available"
            ),
            DecodeError::BadMessage { offset, source } => {
                write!(f, "bad message at offset {offset}: {source}")
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::BadMessage { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Frame-level counters for one [`LogStream`] pass: how much of the
/// capture decoded and how much was discarded while resynchronizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames successfully decoded into events.
    pub frames_decoded: u64,
    /// Corruption sites skipped (one per `Err` item yielded).
    pub frames_skipped: u64,
    /// Bytes discarded while scanning for the next frame boundary.
    pub bytes_skipped: u64,
}

/// Appends one event's wire frame —
/// `[ts: u64][dpid: u64][direction: u8][openflow wire message]`, all
/// integers big-endian — to `out`. This is the per-frame encoder behind
/// [`ControllerLog::to_wire_bytes`], exposed so fault injectors can
/// mangle captures frame by frame.
pub fn encode_event(ev: &ControlEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&ev.ts.as_micros().to_be_bytes());
    out.extend_from_slice(&ev.dpid.0.to_be_bytes());
    out.push(match ev.direction {
        Direction::ToController => 0,
        Direction::FromController => 1,
    });
    openflow::wire::encode_into(&ev.msg, ev.xid, out);
}

impl ControllerLog {
    /// Serializes the capture to a self-contained binary format: a magic
    /// header followed by one [`encode_event`] frame per event. Suitable
    /// for writing to disk and re-analyzing later.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        /// Frames encoded before the rest of the buffer is sized from
        /// their mean length.
        const SAMPLE: usize = 64;
        let mut out = Vec::new();
        out.extend_from_slice(CAPTURE_MAGIC);
        for (i, ev) in self.events.iter().enumerate() {
            if i == SAMPLE {
                out.reserve(out.len().div_ceil(SAMPLE) * (self.events.len() - SAMPLE));
            }
            encode_event(ev, &mut out);
        }
        out
    }

    /// Parses a capture produced by [`ControllerLog::to_wire_bytes`] by
    /// draining a [`LogStream`] (the one decode implementation) into a
    /// fully materialized log. This is the *strict* entry point: any
    /// corruption aborts the parse. Lossy consumers iterate the stream
    /// themselves and count the `Err` items instead.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on a bad magic header, truncation, or
    /// any malformed frame.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<ControllerLog, DecodeError> {
        let mut log = ControllerLog::new();
        for ev in LogStream::from_wire_bytes(bytes)? {
            log.push(ev?);
        }
        log.finish();
        Ok(log)
    }
}

/// A pull-based event stream over a wire capture: the streaming
/// counterpart of a fully materialized [`ControllerLog`].
///
/// The capture is decoded *lazily* — one event per [`Iterator::next`]
/// call — so an arbitrarily large capture file can be folded into flow
/// records without ever materializing the whole log. Events arrive in
/// capture order, which is time order for any capture written by
/// [`ControllerLog::to_wire_bytes`] (the log sorts on `finish`).
///
/// Corruption does not end the stream: each damaged region yields one
/// `Err` item, after which iteration resumes at the next byte sequence
/// that looks like a frame boundary (valid direction byte, OpenFlow
/// version, known type code, and a claimed length that fits the
/// capture). [`LogStream::stats`] reports how much was decoded vs.
/// skipped.
pub struct LogStream<'a> {
    /// The whole capture, magic header included, so yielded offsets are
    /// absolute file offsets.
    buf: &'a [u8],
    cursor: FrameCursor,
    stats: StreamStats,
}

impl<'a> LogStream<'a> {
    /// Streams a wire capture, validating the magic header up front and
    /// decoding one event per `next` call.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadMagic`] when the magic header is
    /// missing or wrong; per-frame decode errors surface as `Err` items
    /// during iteration (followed by resynchronization, not fusing).
    pub fn from_wire_bytes(bytes: &'a [u8]) -> Result<LogStream<'a>, DecodeError> {
        if !bytes.starts_with(CAPTURE_MAGIC) {
            return Err(DecodeError::BadMagic);
        }
        Ok(LogStream {
            buf: bytes,
            cursor: FrameCursor::new(),
            stats: StreamStats::default(),
        })
    }

    /// Frame-level counters for the bytes consumed so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The rest of the stream as [`FlowEvent`]s, each read straight off
    /// its frame's borrowed message view: the same items, error sites
    /// and [`stats`](Self::stats) as iterating the stream and converting
    /// each event, without building the owned message.
    pub fn flow_events(&mut self) -> impl Iterator<Item = Result<FlowEvent, DecodeError>> + '_ {
        std::iter::from_fn(|| self.cursor.step(self.buf, 0, true, &mut self.stats))
    }
}

/// True for the fifteen message type codes OpenFlow 1.0 defines and this
/// crate decodes (the resync scan uses this to tell a frame boundary
/// from payload bytes).
fn is_known_type_code(code: u8) -> bool {
    matches!(code, 0..=3 | 5 | 6 | 10..=14 | 16..=19)
}

/// Reads a big-endian `u64` at `at`, or `None` when fewer than eight
/// bytes remain.
fn read_u64_be(buf: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

/// The one definition of a well-formed frame: validates the
/// `[ts][dpid][direction]` preamble and the embedded OpenFlow header at
/// `buf[at..]`, classifying framing damage precisely (truncation, bad
/// tag, length overflow). `buf[0]` sits at absolute capture offset
/// `base`; `eof` says whether `buf` runs to the end of the capture.
///
/// Returns the preamble fields once the whole claimed frame is
/// buffered (the message body is left to the codec), or `Ok(None)` when
/// nothing seen so far is wrong but more bytes are needed to tell —
/// never at `eof`, where a short frame is damage.
fn validate_frame(
    buf: &[u8],
    at: usize,
    base: usize,
    eof: bool,
) -> Result<Option<(Timestamp, DatapathId, Direction)>, DecodeError> {
    let offset = base + at;
    let rest = &buf[at..];
    let truncated = || DecodeError::TruncatedFrame {
        offset,
        available: rest.len(),
    };
    if rest.len() < MIN_FRAME_LEN {
        return if eof { Err(truncated()) } else { Ok(None) };
    }
    // Checked reads: the guard above covers these, but a short frame
    // must never be able to slice out of bounds even if the guard and
    // the preamble layout drift apart.
    let (Some(ts), Some(dpid)) = (read_u64_be(rest, 0), read_u64_be(rest, 8)) else {
        return Err(truncated());
    };
    let direction = match rest[16] {
        0 => Direction::ToController,
        1 => Direction::FromController,
        other => {
            return Err(DecodeError::BadEventTag {
                offset,
                field: "capture.direction",
                value: other as u64,
            })
        }
    };
    let of = &rest[PREAMBLE_LEN..];
    if of[0] != openflow::wire::OFP_VERSION {
        return Err(DecodeError::BadEventTag {
            offset,
            field: "openflow.version",
            value: of[0] as u64,
        });
    }
    if !is_known_type_code(of[1]) {
        return Err(DecodeError::BadEventTag {
            offset,
            field: "openflow.type",
            value: of[1] as u64,
        });
    }
    let claimed = u16::from_be_bytes([of[2], of[3]]) as usize;
    if claimed < openflow::wire::HEADER_LEN || (claimed > of.len() && eof) {
        return Err(DecodeError::LengthOverflow {
            offset,
            claimed,
            available: of.len(),
        });
    }
    if claimed > of.len() {
        // The claimed length is plausible; wait for the frame to finish
        // buffering.
        return Ok(None);
    }
    Ok(Some((
        Timestamp::from_micros(ts),
        DatapathId(dpid),
        direction,
    )))
}

/// Scans `buf` forward from index `from` for the next plausible frame
/// boundary — a position [`validate_frame`] accepts; the real decode
/// still validates the body. Returns `Ok(boundary)` (the end of the
/// buffer at `eof` when none remains) or `Err(resume)` when the
/// candidate at `resume` needs more bytes to be judged: waiting there,
/// not skipping it, is what makes the boundary found on a partial
/// buffer the one a scan over the whole capture finds.
fn resync(buf: &[u8], from: usize, eof: bool) -> Result<usize, usize> {
    let mut at = from;
    while at < buf.len() {
        match validate_frame(buf, at, 0, eof) {
            Ok(Some(_)) => return Ok(at),
            Ok(None) => return Err(at),
            Err(_) => at += 1,
        }
    }
    if eof {
        Ok(buf.len())
    } else {
        Err(at)
    }
}

/// Decode position over a capture's frames, in absolute capture offsets
/// so it survives the caller compacting its buffer: the single frame
/// step behind both [`LogStream`] (whole capture in one slice) and
/// [`FrameDecoder`] (a sliding window of it).
#[derive(Debug)]
struct FrameCursor {
    /// Offset of the next undecided frame; while resynchronizing, of the
    /// frame that failed.
    pos: usize,
    /// Lost the framing at `pos`: the error to surface once the scan,
    /// which has reached the given offset, finds the next boundary.
    resync: Option<(DecodeError, usize)>,
}

impl FrameCursor {
    /// A cursor just past the magic header.
    fn new() -> FrameCursor {
        FrameCursor {
            pos: CAPTURE_MAGIC.len(),
            resync: None,
        }
    }

    /// Bytes below this offset are decided and need not stay buffered.
    fn low_water(&self) -> usize {
        self.resync.as_ref().map_or(self.pos, |&(_, scan)| scan)
    }

    /// Decodes the next frame of `window` (whose first byte sits at
    /// absolute offset `base`, at or below [`low_water`](Self::low_water)),
    /// or resynchronizes past a damaged region and surfaces one error
    /// for the whole of it. `None` means more bytes are needed — at
    /// `eof`, that the capture is exhausted.
    fn step<E: FromFrame>(
        &mut self,
        window: &[u8],
        base: usize,
        eof: bool,
        stats: &mut StreamStats,
    ) -> Option<Result<E, DecodeError>> {
        loop {
            if let Some((err, scan)) = self.resync.take() {
                match resync(window, scan - base, eof) {
                    Ok(boundary) => {
                        stats.frames_skipped += 1;
                        stats.bytes_skipped += (base + boundary - self.pos) as u64;
                        self.pos = base + boundary;
                        return Some(Err(err));
                    }
                    Err(resume) => {
                        self.resync = Some((err, base + resume));
                        return None;
                    }
                }
            }
            let at = self.pos - base;
            if at >= window.len() {
                return None;
            }
            let (ts, dpid, direction) = match validate_frame(window, at, base, eof) {
                Ok(Some(preamble)) => preamble,
                Ok(None) => return None,
                Err(e) => {
                    self.resync = Some((e, self.pos + 1));
                    continue;
                }
            };
            match E::from_frame(ts, dpid, direction, &window[at + PREAMBLE_LEN..]) {
                Ok((event, used)) => {
                    stats.frames_decoded += 1;
                    self.pos += PREAMBLE_LEN + used;
                    return Some(Ok(event));
                }
                Err(source) => {
                    let offset = self.pos;
                    self.resync = Some((DecodeError::BadMessage { offset, source }, offset + 1));
                }
            }
        }
    }
}

impl Iterator for LogStream<'_> {
    type Item = Result<ControlEvent, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.cursor.step(self.buf, 0, true, &mut self.stats)
    }
}

/// An incremental `FDIFFCAP` decoder for byte streams that arrive in
/// arbitrary chunks — a TCP connection, a pipe — instead of as one
/// buffer.
///
/// Feed chunks with [`push`](FrameDecoder::push) and signal
/// end-of-stream with [`finish`](FrameDecoder::finish): the decoder
/// emits the **same event sequence, error sites, and
/// [`StreamStats`]** that a [`LogStream`] over the complete capture
/// would produce, regardless of how the bytes were chunked — both drive
/// the same frame step, so a socket ingest path reuses every batch-mode
/// robustness guarantee (resynchronization, typed [`DecodeError`]s,
/// exact skip accounting).
///
/// Two windows of divergence are inherent to not knowing the stream
/// length up front, and both are confined to *fields of error values*,
/// never to events, error ordering, or counters: a
/// [`DecodeError::LengthOverflow`] reported before end-of-stream
/// carries the bytes available *at the decode attempt* in `available`
/// (batch mode reports the bytes to the end of the capture), and an
/// incomplete trailing frame is held back until `finish` because more
/// bytes could still complete it.
///
/// Memory is bounded: between pushes the window holds at most one
/// pending frame (a claimed OpenFlow length is a `u16`, so ≤ preamble +
/// 64 KiB); consumed and skipped bytes are compacted away at the end of
/// every push.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Undecided bytes; `buf[0]` sits at absolute offset `base`.
    buf: Vec<u8>,
    base: usize,
    /// `None` until the 8-byte `FDIFFCAP` magic header has been seen.
    cursor: Option<FrameCursor>,
    stats: StreamStats,
    eof: bool,
    /// Rejected (bad magic) or fully drained after end-of-stream.
    done: bool,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder expecting a fresh capture stream (magic header first).
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            base: 0,
            cursor: None,
            stats: StreamStats::default(),
            eof: false,
            done: false,
        }
    }

    /// Frame-level counters for the bytes consumed so far; equals the
    /// batch [`LogStream::stats`] once the stream is finished.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Bytes currently buffered awaiting a decodable boundary (at most
    /// one frame — see the type docs).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once the stream was rejected (bad magic) or fully drained
    /// after [`finish`](FrameDecoder::finish).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Feeds one chunk, appending every newly determinable event or
    /// error to `out` in stream order.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](FrameDecoder::finish).
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<Result<ControlEvent, DecodeError>>) {
        self.push_each(chunk, |item| out.push(item));
    }

    /// Signals end-of-stream and drains everything still pending (the
    /// held-back trailing frame, an unfinished resync scan).
    pub fn finish(&mut self, out: &mut Vec<Result<ControlEvent, DecodeError>>) {
        self.finish_each(|item| out.push(item));
    }

    /// [`push`](FrameDecoder::push), handing each item to `each` as a
    /// [`FlowEvent`] read straight off its frame's borrowed message view:
    /// no owned message is built, and nothing is allocated per event bar
    /// a port-stats reply's counters.
    ///
    /// # Panics
    ///
    /// Panics if called after end-of-stream was signalled.
    pub fn push_flow_events(
        &mut self,
        chunk: &[u8],
        each: impl FnMut(Result<FlowEvent, DecodeError>),
    ) {
        self.push_each(chunk, each);
    }

    /// [`finish`](FrameDecoder::finish), handing each item to `each` as
    /// [`push_flow_events`](FrameDecoder::push_flow_events) does.
    pub fn finish_flow_events(&mut self, each: impl FnMut(Result<FlowEvent, DecodeError>)) {
        self.finish_each(each);
    }

    fn push_each<E: FromFrame>(&mut self, chunk: &[u8], each: impl FnMut(Result<E, DecodeError>)) {
        assert!(!self.eof, "push after finish");
        if !self.done {
            self.buf.extend_from_slice(chunk);
            self.drain(each);
        }
    }

    fn finish_each<E: FromFrame>(&mut self, each: impl FnMut(Result<E, DecodeError>)) {
        self.eof = true;
        if !self.done {
            self.drain(each);
            self.done = true;
        }
    }

    fn drain<E: FromFrame>(&mut self, mut each: impl FnMut(Result<E, DecodeError>)) {
        let cursor = match &mut self.cursor {
            Some(cursor) => cursor,
            unset => {
                if self.buf.len() < CAPTURE_MAGIC.len() && !self.eof {
                    return;
                }
                if !self.buf.starts_with(CAPTURE_MAGIC) {
                    each(Err(DecodeError::BadMagic));
                    self.done = true;
                    return;
                }
                unset.insert(FrameCursor::new())
            }
        };
        while let Some(item) = cursor.step(&self.buf, self.base, self.eof, &mut self.stats) {
            each(item);
        }
        // Everything below the cursor's low-water mark is decided: drop
        // it so neither a burst of frames nor a long corrupt region can
        // grow the window.
        let keep_from = cursor.low_water();
        self.buf.drain(..keep_from - self.base);
        self.base = keep_from;
    }
}

impl Extend<ControlEvent> for ControllerLog {
    fn extend<T: IntoIterator<Item = ControlEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl FromIterator<ControlEvent> for ControllerLog {
    fn from_iter<T: IntoIterator<Item = ControlEvent>>(iter: T) -> Self {
        let mut log = ControllerLog::new();
        log.extend(iter);
        log.finish();
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::match_fields::OfMatch;
    use openflow::messages::FlowMod;

    fn ev(ts_us: u64, kind: u8) -> ControlEvent {
        let msg = match kind {
            0 => OfpMessage::Hello,
            1 => OfpMessage::FlowMod(FlowMod::add(OfMatch::any(), 1)),
            _ => OfpMessage::BarrierRequest,
        };
        ControlEvent {
            ts: Timestamp::from_micros(ts_us),
            dpid: DatapathId(1),
            direction: Direction::FromController,
            xid: Xid(0),
            msg,
        }
    }

    #[test]
    fn finish_sorts_by_time() {
        let mut log = ControllerLog::new();
        log.push(ev(30, 0));
        log.push(ev(10, 0));
        log.push(ev(20, 0));
        log.finish();
        let ts: Vec<u64> = log.events().iter().map(|e| e.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn slice_is_half_open() {
        let log: ControllerLog = (0..10u64).map(|i| ev(i * 10, 0)).collect();
        let s = log.slice(Timestamp::from_micros(20), Timestamp::from_micros(50));
        let ts: Vec<u64> = s.events().iter().map(|e| e.ts.as_micros()).collect();
        assert_eq!(ts, vec![20, 30, 40]);
    }

    #[test]
    fn split_covers_all_events_without_duplication() {
        let log: ControllerLog = (0..100u64).map(|i| ev(i, 0)).collect();
        let parts = log.split(7);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(ControllerLog::len).sum();
        assert_eq!(total, 100);
        // segments are time-ordered and non-overlapping
        let mut last_end = 0;
        for p in &parts {
            if let Some((a, b)) = p.time_range() {
                assert!(a.as_micros() >= last_end);
                last_end = b.as_micros();
            }
        }
    }

    #[test]
    fn split_of_empty_log_yields_empty_segments() {
        let log = ControllerLog::new();
        let parts = log.split(3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(ControllerLog::is_empty));
    }

    #[test]
    fn typed_iterators_filter_kinds() {
        let log: ControllerLog = vec![ev(0, 0), ev(1, 1), ev(2, 1), ev(3, 2)]
            .into_iter()
            .collect();
        assert_eq!(log.flow_mods().count(), 2);
        assert_eq!(log.packet_ins().count(), 0);
        assert_eq!(log.flow_removeds().count(), 0);
    }

    #[test]
    fn wire_capture_roundtrips() {
        let log: ControllerLog = vec![ev(5, 0), ev(10, 1), ev(15, 2), ev(20, 1)]
            .into_iter()
            .collect();
        let bytes = log.to_wire_bytes();
        let parsed = ControllerLog::from_wire_bytes(&bytes).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn wire_capture_rejects_garbage() {
        assert!(ControllerLog::from_wire_bytes(b"not a capture").is_err());
        let log: ControllerLog = vec![ev(5, 1)].into_iter().collect();
        let mut bytes = log.to_wire_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(ControllerLog::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_capture_roundtrips() {
        let log = ControllerLog::new();
        let parsed = ControllerLog::from_wire_bytes(&log.to_wire_bytes()).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn wire_stream_decodes_lazily_and_matches_batch_parse() {
        let log: ControllerLog = vec![ev(5, 0), ev(10, 1), ev(15, 2), ev(20, 1)]
            .into_iter()
            .collect();
        let bytes = log.to_wire_bytes();
        let mut stream = LogStream::from_wire_bytes(&bytes).unwrap();
        // One event decodes without touching the rest of the buffer.
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first, log.events()[0]);
        let rest: Vec<ControlEvent> = stream.map(Result::unwrap).collect();
        assert_eq!(rest, log.events()[1..].to_vec());
    }

    #[test]
    fn wire_stream_reports_truncated_tail_then_ends() {
        let log: ControllerLog = vec![ev(5, 1), ev(10, 1)].into_iter().collect();
        let mut bytes = log.to_wire_bytes();
        bytes.truncate(bytes.len() - 3);
        let mut stream = LogStream::from_wire_bytes(&bytes).unwrap();
        assert!(stream.next().unwrap().is_ok(), "first event intact");
        let err = stream.next().unwrap().unwrap_err();
        assert!(
            matches!(err, DecodeError::LengthOverflow { .. }),
            "truncated FlowMod body reports a length overflow, got {err:?}"
        );
        assert!(stream.next().is_none(), "nothing decodable after the tail");
        let stats = stream.stats();
        assert_eq!(stats.frames_decoded, 1);
        assert_eq!(stats.frames_skipped, 1);
        assert!(stats.bytes_skipped > 0);
    }

    #[test]
    fn wire_stream_resynchronizes_past_corrupt_frame() {
        let log: ControllerLog = vec![ev(5, 1), ev(10, 1), ev(15, 2), ev(20, 0)]
            .into_iter()
            .collect();
        let mut bytes = log.to_wire_bytes();
        // Find where the second frame starts and stomp its OpenFlow
        // version byte so only that frame is damaged.
        let mut frame = Vec::new();
        encode_event(&log.events()[0], &mut frame);
        let second = CAPTURE_MAGIC.len() + frame.len();
        bytes[second + 17] = 0xEE;
        let mut stream = LogStream::from_wire_bytes(&bytes).unwrap();
        let mut ok = Vec::new();
        let mut errs = Vec::new();
        for item in stream.by_ref() {
            match item {
                Ok(e) => ok.push(e),
                Err(e) => errs.push(e),
            }
        }
        assert_eq!(
            ok,
            vec![
                log.events()[0].clone(),
                log.events()[2].clone(),
                log.events()[3].clone()
            ],
            "stream recovers every frame after the corrupt one"
        );
        assert_eq!(errs.len(), 1, "one error for the damaged region");
        assert!(matches!(
            errs[0],
            DecodeError::BadEventTag {
                field: "openflow.version",
                ..
            }
        ));
        assert_eq!(stream.stats().frames_decoded, 3);
        assert_eq!(stream.stats().frames_skipped, 1);
    }

    #[test]
    fn wire_stream_classifies_bad_direction_byte() {
        let log: ControllerLog = vec![ev(5, 0), ev(10, 0)].into_iter().collect();
        let mut bytes = log.to_wire_bytes();
        bytes[CAPTURE_MAGIC.len() + 16] = 7;
        let stream = LogStream::from_wire_bytes(&bytes).unwrap();
        let errs: Vec<DecodeError> = stream.filter_map(Result::err).collect();
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            errs[0],
            DecodeError::BadEventTag {
                field: "capture.direction",
                value: 7,
                ..
            }
        ));
    }

    #[test]
    fn wire_stream_rejects_bad_magic_up_front() {
        match LogStream::from_wire_bytes(b"not a capture") {
            Err(e) => assert_eq!(e, DecodeError::BadMagic),
            Ok(_) => panic!("bad magic must be rejected"),
        }
    }

    /// Drains `bytes` through a [`FrameDecoder`] in `chunk`-byte steps,
    /// returning the emitted items and the final stats.
    fn chunked_decode(
        bytes: &[u8],
        chunk: usize,
    ) -> (Vec<Result<ControlEvent, DecodeError>>, StreamStats) {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
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

    /// Batch reference: the item and stats sequence of a [`LogStream`]
    /// over the whole buffer (bad magic becomes a single `Err` item to
    /// match the incremental decoder's shape).
    fn batch_decode(bytes: &[u8]) -> (Vec<Result<ControlEvent, DecodeError>>, StreamStats) {
        match LogStream::from_wire_bytes(bytes) {
            Ok(mut stream) => {
                let items = stream.by_ref().collect();
                (items, stream.stats())
            }
            Err(e) => (vec![Err(e)], StreamStats::default()),
        }
    }

    /// Error equality up to the one documented divergence: a
    /// length-overflow's `available` field reflects the local window
    /// when reported before end-of-stream.
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

    fn assert_chunked_matches_batch(bytes: &[u8], chunk: usize) {
        let (batch_items, batch_stats) = batch_decode(bytes);
        let (inc_items, inc_stats) = chunked_decode(bytes, chunk);
        assert_eq!(
            inc_items.len(),
            batch_items.len(),
            "item count, chunk size {chunk}"
        );
        for (i, (inc, batch)) in inc_items.iter().zip(&batch_items).enumerate() {
            match (inc, batch) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "event {i}, chunk size {chunk}"),
                (Err(a), Err(b)) => assert!(
                    errors_equivalent(a, b),
                    "error {i}, chunk size {chunk}: {a:?} vs {b:?}"
                ),
                other => panic!("item {i} disagrees on ok/err (chunk size {chunk}): {other:?}"),
            }
        }
        assert_eq!(inc_stats, batch_stats, "stats, chunk size {chunk}");
    }

    #[test]
    fn frame_decoder_matches_batch_on_clean_capture_at_any_chunking() {
        let log: ControllerLog = vec![ev(5, 0), ev(10, 1), ev(15, 2), ev(20, 1)]
            .into_iter()
            .collect();
        let bytes = log.to_wire_bytes();
        for chunk in [1, 2, 3, 7, 16, 64, bytes.len()] {
            assert_chunked_matches_batch(&bytes, chunk);
        }
    }

    #[test]
    fn frame_decoder_matches_batch_through_resync() {
        let log: ControllerLog = vec![ev(5, 1), ev(10, 1), ev(15, 2), ev(20, 0), ev(25, 1)]
            .into_iter()
            .collect();
        let mut bytes = log.to_wire_bytes();
        // Stomp the second frame's OpenFlow version byte so every
        // chunking has to resynchronize mid-stream.
        let mut frame = Vec::new();
        encode_event(&log.events()[0], &mut frame);
        bytes[CAPTURE_MAGIC.len() + frame.len() + PREAMBLE_LEN] = 0xEE;
        for chunk in [1, 2, 3, 7, 16, 64, bytes.len()] {
            assert_chunked_matches_batch(&bytes, chunk);
        }
    }

    #[test]
    fn frame_decoder_matches_batch_on_truncated_tail() {
        let log: ControllerLog = vec![ev(5, 1), ev(10, 1)].into_iter().collect();
        let full = log.to_wire_bytes();
        for cut in 0..full.len() {
            for chunk in [1, 5, full.len().max(1)] {
                assert_chunked_matches_batch(&full[..cut], chunk);
            }
        }
    }

    #[test]
    fn frame_decoder_rejects_bad_magic_and_fuses() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(b"not a capture at all", &mut out);
        assert_eq!(out, vec![Err(DecodeError::BadMagic)]);
        assert!(dec.is_done());
        // A short prefix only fails once the stream ends.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(b"FDIFF", &mut out);
        assert!(out.is_empty(), "a magic prefix may still complete");
        dec.finish(&mut out);
        assert_eq!(out, vec![Err(DecodeError::BadMagic)]);
    }

    #[test]
    fn frame_decoder_window_stays_bounded() {
        // 200 frames pushed in one call still compact down to nothing
        // once consumed; mid-frame pushes hold at most that frame.
        let log: ControllerLog = (0..200u64).map(|i| ev(i, 1)).collect();
        let bytes = log.to_wire_bytes();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(&bytes, &mut out);
        assert_eq!(dec.buffered(), 0, "fully decodable input leaves no tail");
        assert_eq!(out.len(), 200);
        let mut frame = Vec::new();
        encode_event(&log.events()[0], &mut frame);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(&bytes[..CAPTURE_MAGIC.len() + frame.len() + 5], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(dec.buffered(), 5, "only the partial frame is held");
    }

    #[test]
    fn time_range_reports_extremes() {
        let log: ControllerLog = vec![ev(5, 0), ev(95, 0)].into_iter().collect();
        assert_eq!(
            log.time_range(),
            Some((Timestamp::from_micros(5), Timestamp::from_micros(95)))
        );
        assert_eq!(ControllerLog::new().time_range(), None);
    }

    /// The conversion's cases: one event per message, with a header the
    /// conversion must keep.
    mod conversion {
        use super::*;
        use openflow::actions::Action;
        use openflow::frame::build_frame;
        use openflow::messages::{
            AggregateStats, ErrorMsg, FlowRemoved, FlowRemovedReason, FlowStats, PacketIn,
            PacketInReason, PacketOut, PhyPort, PortReason, PortStats, PortStatus, StatsRequest,
            SwitchFeatures,
        };
        use openflow::types::{BufferId, Cookie, MacAddr, VlanId};

        fn at(msg: OfpMessage) -> ControlEvent {
            ControlEvent {
                ts: Timestamp::from_micros(7),
                dpid: DatapathId(9),
                direction: Direction::FromController,
                xid: Xid(42),
                msg,
            }
        }

        fn body(msg: OfpMessage) -> EventBody {
            FlowEvent::from(&at(msg)).body
        }

        fn key() -> FlowKey {
            FlowKey::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                4000,
                Ipv4Addr::new(10, 0, 0, 2),
                53,
            )
        }

        fn packet_in(data: Arc<[u8]>) -> OfpMessage {
            OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: data.len() as u16,
                in_port: PortNo(3),
                reason: PacketInReason::NoMatch,
                data,
            })
        }

        #[test]
        fn a_flow_event_fits_in_64_bytes() {
            assert!(std::mem::size_of::<FlowEvent>() <= 64);
        }

        #[test]
        fn packet_in_carries_its_port_and_the_payload_tuple() {
            let tagged = FlowKey {
                dl_vlan: VlanId(12),
                dl_vlan_pcp: 3,
                ..key()
            };
            for key in [key(), tagged] {
                assert_eq!(
                    body(packet_in(build_frame(&key, 128))),
                    EventBody::PacketIn {
                        in_port: PortNo(3),
                        tuple: Some(FlowTuple::from_key(&key)),
                    }
                );
            }
        }

        #[test]
        fn packet_in_that_is_not_an_ipv4_frame_has_no_tuple() {
            let arp = FlowKey {
                dl_type: 0x0806,
                ..key()
            };
            let whole = build_frame(&key(), 128);
            for data in [build_frame(&arp, 128), whole[..20].into(), Arc::from([])] {
                assert_eq!(
                    body(packet_in(data)),
                    EventBody::PacketIn {
                        in_port: PortNo(3),
                        tuple: None,
                    }
                );
            }
        }

        #[test]
        fn flow_mod_keeps_its_first_output() {
            let fm = |actions: Vec<Action>| {
                let mut fm = FlowMod::add(OfMatch::any(), 1);
                fm.actions = actions;
                OfpMessage::FlowMod(fm)
            };
            assert_eq!(body(fm(vec![])), EventBody::FlowMod { out_port: None });
            let rewrite_then_out = vec![
                Action::SetNwTos(4),
                Action::SetDlDst(MacAddr::from_u64(2)),
                Action::output(PortNo(9)),
                Action::output(PortNo(10)),
            ];
            assert_eq!(
                body(fm(rewrite_then_out)),
                EventBody::FlowMod {
                    out_port: Some(PortNo(9))
                }
            );
        }

        #[test]
        fn flow_removed_keeps_its_tuple_counters_and_duration_bits() {
            for (sec, nsec) in [(0, 0), (12, 345_678), (1, 999_999_999), (u32::MAX, 1)] {
                let fr = FlowRemoved {
                    match_: OfMatch::exact(&key(), PortNo(2)),
                    cookie: Cookie(42),
                    priority: 100,
                    reason: FlowRemovedReason::IdleTimeout,
                    duration_sec: sec,
                    duration_nsec: nsec,
                    idle_timeout: 5,
                    packet_count: 1_000,
                    byte_count: 1_500_000,
                };
                let EventBody::FlowRemoved {
                    tuple,
                    byte_count,
                    packet_count,
                    duration_sec,
                    duration_nsec,
                } = body(OfpMessage::FlowRemoved(fr.clone()))
                else {
                    panic!("a FlowRemoved converts to a FlowRemoved");
                };
                assert_eq!(tuple, FlowTuple::from_key(&key()));
                assert_eq!((byte_count, packet_count), (1_500_000, 1_000));
                assert_eq!(
                    openflow::messages::duration_secs_f64(duration_sec, duration_nsec).to_bits(),
                    fr.duration_secs_f64().to_bits()
                );
            }
        }

        #[test]
        fn port_stats_keep_each_port_s_transmitted_bytes() {
            for n in [0u16, 1, 48] {
                let ports = (0..n)
                    .map(|p| PortStats {
                        port_no: PortNo(p + 1),
                        rx_bytes: 7,
                        tx_bytes: 1_000 * u64::from(p),
                        ..PortStats::default()
                    })
                    .collect();
                let want: Vec<(PortNo, u64)> = (0..n)
                    .map(|p| (PortNo(p + 1), 1_000 * u64::from(p)))
                    .collect();
                assert_eq!(
                    body(OfpMessage::StatsReply(StatsReply::Port(ports))),
                    EventBody::PortStats(want.into())
                );
            }
        }

        #[test]
        fn every_other_message_keeps_only_its_header() {
            let port = PhyPort {
                port_no: PortNo(1),
                hw_addr: MacAddr::from_u64(11),
                name: "eth1".to_owned(),
                link_up: true,
            };
            let others = [
                OfpMessage::Hello,
                OfpMessage::Error(ErrorMsg {
                    err_type: 3,
                    code: 0,
                    data: Arc::default(),
                }),
                OfpMessage::EchoRequest(vec![1, 2].into()),
                OfpMessage::EchoReply(vec![1, 2].into()),
                OfpMessage::FeaturesRequest,
                OfpMessage::FeaturesReply(SwitchFeatures {
                    datapath_id: DatapathId(9),
                    n_buffers: 256,
                    n_tables: 1,
                    ports: vec![port.clone()],
                }),
                OfpMessage::PacketOut(PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo(3),
                    actions: vec![Action::output(PortNo(5))],
                    data: vec![1, 2, 3].into(),
                }),
                OfpMessage::PortStatus(PortStatus {
                    reason: PortReason::Modify,
                    port,
                }),
                OfpMessage::StatsRequest(StatsRequest::Port {
                    port_no: PortNo::NONE,
                }),
                OfpMessage::StatsReply(StatsReply::Flow(vec![FlowStats {
                    match_: OfMatch::any(),
                    priority: 5,
                    duration_sec: 30,
                    idle_timeout: 5,
                    hard_timeout: 0,
                    cookie: Cookie(77),
                    packet_count: 10,
                    byte_count: 10_000,
                }])),
                OfpMessage::StatsReply(StatsReply::Aggregate(AggregateStats {
                    packet_count: 5,
                    byte_count: 500,
                    flow_count: 2,
                })),
                OfpMessage::BarrierRequest,
                OfpMessage::BarrierReply,
            ];
            for msg in others {
                let name = format!("{msg:?}");
                assert_eq!(
                    FlowEvent::from(&at(msg)),
                    FlowEvent {
                        ts: Timestamp::from_micros(7),
                        dpid: DatapathId(9),
                        direction: Direction::FromController,
                        xid: Xid(42),
                        body: EventBody::Other,
                    },
                    "{name}"
                );
            }
        }
    }
}
