//! Live TCP ingest: the wire between control-log publishers and a
//! FlowDiff diagnosis process.
//!
//! Every connection is a **session**: it opens with `FDIFFSES` plus a
//! 64-bit session id, and anything else is refused (and counted)
//! without touching a stream. The server replies `FDIFFACK` plus a
//! *resume watermark* — how many events of that session it has already
//! queued into the merge — and the publisher streams from that offset.
//! A reconnecting publisher therefore resumes where the server actually
//! is: nothing is lost, nothing is replayed twice. After the handshake
//! the bytes are a tiny record layer (`[tag u8][len u32 LE][payload]`):
//! `Data` records carry capture bytes (each connection attempt restarts
//! a fresh `FDIFFCAP` stream, framed exactly like an `.fcap` file),
//! `Heartbeat` records keep a quiet connection distinguishable from a
//! dead one, and `End` closes the session cleanly.
//!
//! The server side is a runtime accept loop ([`IngestServer::live`]):
//! connections are admitted, retired, killed (dead-but-open sockets)
//! and re-admitted (session resume) while the merge runs. Each of the
//! `expected` logical streams keeps one bounded channel for its whole
//! life; connections churn underneath by re-attaching to their
//! session's channel, so the downstream [`EventMerge`] never has to
//! re-plumb mid-run.
//!
//! Flow control is end-to-end: decoded events go into **bounded**
//! channels, a slow consumer blocks the readers, the kernel socket
//! buffers fill, and TCP pushes back on the publishers. A channel
//! message is a *batch*: the events one socket read decoded, cut into
//! `Vec`s of at most `BATCH` events (fewer when the queue is smaller),
//! so the reader and the merge meet once per batch instead of once per
//! event. The cost is one `Vec` per batch, allocated by the reader and
//! freed by the merge. The bound stays in events: at most
//! `ingest_queue_events` of them wait in a stream's channel.
//!
//! The reader builds each [`FlowEvent`] straight from its frame's
//! borrowed message view ([`FrameDecoder::push_flow_events`]) and pushes
//! it into the outgoing batch: no full message (a `PacketIn`'s payload,
//! a `FlowMod`'s action list) is ever allocated, and what crosses to the
//! merge is fixed-size and owns no heap (bar a port-stats reply's
//! counters).
//!
//! Cross-stream ordering is handled by [`EventMerge`], a k-way merge by
//! `(timestamp, stream index)`. With no stall budget it blocks until
//! every open stream has an event buffered — the strict semantics that
//! make served epoch snapshots byte-identical to file runs over
//! [`split_capture`]d publishers. With a stall budget
//! (`ingest_stall_timeout_us`), a stream that stays silent past the
//! budget is *waived*: events from the other streams release without
//! it, the stream is marked [`ConnState::Stalled`] in its
//! [`SessionGauge`], and when it revives its late events lean on the
//! downstream `reorder_slack_us` buffer to re-sequence — the
//! detection-time vs. ordering-confidence tradeoff, as a tunable.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::{ChannelChaos, ChaosReport, ConnFault, ConnPlan};
use crate::log::{
    encode_event, ControllerLog, DecodeError, FlowEvent, FrameDecoder, StreamStats, CAPTURE_MAGIC,
};

/// Read-chunk size for connection reader threads: large enough to
/// amortize syscalls, small enough that backpressure stays tight.
const READ_CHUNK: usize = 16 * 1024;

/// Most events one channel message carries. A reader sends what one
/// read decoded, cut into batches of at most `min(BATCH, queue)` events,
/// and never waits for a batch to fill. 16 gained about half as much
/// fan-in throughput and 256 no more (DESIGN.md, Live transport).
const BATCH: usize = 64;

/// A reader's end of its stream's channel to the merge.
type BatchSender = SyncSender<Vec<FlowEvent>>;

/// Write-chunk size for publishers: deliberately not a multiple of any
/// frame size, so served streams always exercise the incremental
/// decoder's mid-frame resume path.
const WRITE_CHUNK: usize = 8_192 - 7;

/// How many leading decode errors a [`ConnReport`] retains verbatim
/// (every error is still *counted* in the stats).
const KEPT_ERRORS: usize = 8;

/// Session handshake magic: `FDIFFSES` + session id (u64 LE).
pub const SESSION_MAGIC: &[u8; 8] = b"FDIFFSES";

/// Session handshake reply: `FDIFFACK` + resume watermark (u64 LE).
pub const SESSION_ACK: &[u8; 8] = b"FDIFFACK";

/// Session record tags (`[tag u8][len u32 LE][payload]`).
const REC_DATA: u8 = 0;
const REC_HEARTBEAT: u8 = 1;
const REC_END: u8 = 2;

/// Upper bound on one session record's payload; anything larger is a
/// corrupt or hostile length field, not data.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Poll cadence of the accept loop (accept, reap, shutdown checks).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long the merge parks between rescans when every remaining open
/// stream is waived (nothing to release, nothing to time out).
const PARKED_WAIT: Duration = Duration::from_millis(20);

/// Why a connection (or a whole session stream) stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectCause {
    /// The publisher sent an explicit `End` record.
    SessionEnd,
    /// The socket died mid-stream with this error kind (a publisher
    /// that vanished without `End` also lands here, as
    /// `UnexpectedEof`).
    Io(std::io::ErrorKind),
    /// The server killed a dead-but-open socket: no bytes and no
    /// heartbeat for several heartbeat intervals.
    IdleTimeout,
    /// A reconnect of the same session took the slot over.
    Superseded,
    /// The server retired a session no connection returned to.
    SessionAbandoned,
}

impl std::fmt::Display for DisconnectCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisconnectCause::SessionEnd => write!(f, "session end"),
            DisconnectCause::Io(kind) => write!(f, "io error: {kind:?}"),
            DisconnectCause::IdleTimeout => write!(f, "idle timeout"),
            DisconnectCause::Superseded => write!(f, "superseded by reconnect"),
            DisconnectCause::SessionAbandoned => write!(f, "session abandoned"),
        }
    }
}

/// Lifecycle state of one logical ingest stream, kept in its
/// [`SessionGauge`] and updated by whichever side observed the
/// transition (reader threads, the merge, the reaper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No connection attached (yet, or between a drop and a resume).
    Waiting,
    /// A connection is attached and flowing.
    Active,
    /// The merge waived the stream: silent past the stall budget.
    Stalled,
    /// The stream ended cleanly (session `End`).
    Ended,
    /// The server declared the stream dead (idle past the heartbeat
    /// horizon, or abandoned without a resume).
    Dead,
}

impl std::fmt::Display for ConnState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConnState::Waiting => "waiting",
            ConnState::Active => "active",
            ConnState::Stalled => "STALLED",
            ConnState::Ended => "ended",
            ConnState::Dead => "DEAD",
        };
        write!(f, "{s}")
    }
}

/// Live health of one logical ingest stream: lock-free counters shared
/// between the reader threads, the merge, the reaper, and whoever wants
/// to watch the run (the serve loop polls these to gate diffs while a
/// source is starved).
#[derive(Debug)]
pub struct SessionGauge {
    state: AtomicU8,
    events: AtomicU64,
    bytes: AtomicU64,
    connects: AtomicU64,
    resumes: AtomicU64,
    stalls: AtomicU64,
    disconnects: AtomicU64,
    /// Microseconds since server start of the last byte or heartbeat.
    last_activity_us: AtomicU64,
}

impl SessionGauge {
    fn new() -> SessionGauge {
        SessionGauge {
            state: AtomicU8::new(ConnState::Waiting as u8),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            last_activity_us: AtomicU64::new(0),
        }
    }

    fn set_state(&self, s: ConnState) {
        self.state.store(s as u8, Ordering::SeqCst);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        match self.state.load(Ordering::SeqCst) {
            0 => ConnState::Waiting,
            1 => ConnState::Active,
            2 => ConnState::Stalled,
            3 => ConnState::Ended,
            _ => ConnState::Dead,
        }
    }

    /// Events queued into the merge so far — the session's resume
    /// watermark.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Raw bytes read off sockets for this stream, magics included.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    /// Successful handshakes (first connect plus every reconnect).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::SeqCst)
    }

    /// Reconnects that resumed mid-stream (watermark > 0).
    pub fn resumes(&self) -> u64 {
        self.resumes.load(Ordering::SeqCst)
    }

    /// Times the merge waived this stream past the stall budget.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::SeqCst)
    }

    /// Abrupt connection losses (everything except a clean `End`).
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::SeqCst)
    }

    /// True while the stream is in a degraded state (stalled or dead):
    /// its share of the window is missing, so downstream diffing should
    /// lower its confidence instead of alarming on missing behavior.
    pub fn is_degraded(&self) -> bool {
        matches!(self.state(), ConnState::Stalled | ConnState::Dead)
    }

    fn touch(&self, now_us: u64) {
        self.last_activity_us.store(now_us, Ordering::SeqCst);
    }
}

/// What one logical ingest stream delivered over its whole life —
/// every connection attempt folded together.
#[derive(Debug, Clone)]
pub struct ConnReport {
    /// Stream index in claim order (also the merge tie-breaker).
    pub index: usize,
    /// The last publisher address seen on this stream.
    pub peer: Option<SocketAddr>,
    /// The session id (`None` when no connection ever arrived).
    pub session: Option<u64>,
    /// True when at least one handshake on this stream succeeded.
    pub handshake_ok: bool,
    /// Raw bytes read off the sockets, magics and record headers
    /// included.
    pub bytes_read: u64,
    /// Events decoded and forwarded to the merge.
    pub events: u64,
    /// Successful handshakes (1 for an unflapped stream).
    pub connects: u64,
    /// Reconnects that resumed mid-stream.
    pub resumes: u64,
    /// Times the merge waived the stream past the stall budget.
    pub stalls: u64,
    /// Abrupt connection losses.
    pub disconnects: u64,
    /// Why the last connection (or the stream itself) stopped; `None`
    /// when no connection ever arrived.
    pub cause: Option<DisconnectCause>,
    /// Final lifecycle state.
    pub state: ConnState,
    /// Frame-level decode/skip counters accumulated across attempts —
    /// what a batch [`LogStream`](crate::log::LogStream) over the same
    /// bytes reports.
    pub stats: StreamStats,
    /// The first `KEPT_ERRORS` decode errors, for operator logs.
    pub first_errors: Vec<DecodeError>,
}

/// Tunables of the live accept loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveOptions {
    /// Merge stall budget, microseconds of wall time; `0` = no budget,
    /// the merge blocks forever on a silent stream (strict PR 9
    /// ordering).
    pub stall_timeout_us: u64,
    /// Heartbeat horizon, microseconds: a connection silent for 4x this
    /// is killed (dead-but-open), a claimed session with no connection
    /// for 8x this is retired as abandoned. `0` disables both reaps.
    pub heartbeat_us: u64,
}

/// A blocking TCP ingest server for `.fcap`-framed control-log streams.
pub struct IngestServer {
    listener: TcpListener,
}

impl IngestServer {
    /// Binds the listen socket (use port 0 to let the OS pick).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<IngestServer> {
        Ok(IngestServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address — the one to print when listening on port 0.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the runtime accept loop over `expected` logical streams,
    /// each with a bounded channel that holds at most `queue` events, in
    /// batches of at most `min(BATCH, queue)`. Returns immediately;
    /// connections are admitted (and killed, and re-admitted) in the
    /// background while the caller drains the merge. The loop ends on
    /// its own once every claimed stream has ended and no free slot
    /// remains to claim, or when [`LiveIngest::finish`] is called.
    pub fn live(
        &self,
        expected: usize,
        queue: usize,
        opts: LiveOptions,
    ) -> std::io::Result<LiveIngest> {
        let expected = expected.max(1);
        let listener = self.listener.try_clone()?;
        listener.set_nonblocking(true)?;
        let addr = self.listener.local_addr()?;

        let queue = queue.max(1);
        let batch = BATCH.min(queue);
        let mut rxs = Vec::with_capacity(expected);
        let mut keepers = Vec::with_capacity(expected);
        for _ in 0..expected {
            let (tx, rx) = sync_channel(queue / batch);
            keepers.push(Some(tx));
            rxs.push(rx);
        }
        let gauges: Vec<Arc<SessionGauge>> = (0..expected)
            .map(|_| Arc::new(SessionGauge::new()))
            .collect();
        let shared = Arc::new(Shared {
            started: Instant::now(),
            expected,
            batch,
            opts,
            stop: AtomicBool::new(false),
            refused: AtomicU64::new(0),
            gauges: gauges.clone(),
            slots: Mutex::new(SlotTable::new(expected, keepers)),
            readers: Mutex::new(Vec::new()),
        });
        let stall =
            (opts.stall_timeout_us > 0).then(|| Duration::from_micros(opts.stall_timeout_us));
        let merge = EventMerge::with_gauges(rxs, stall, gauges);
        let acceptor = std::thread::Builder::new()
            .name("ingest-accept".into())
            .spawn({
                let shared = shared.clone();
                move || accept_loop(listener, shared)
            })
            .expect("spawn ingest accept thread");
        Ok(LiveIngest {
            addr,
            shared,
            merge: Some(merge),
            acceptor: Some(acceptor),
        })
    }
}

/// A running live ingest: the accept loop plus the merge over its
/// streams. Take the merge with [`LiveIngest::take_merge`], drain it,
/// then call [`LiveIngest::finish`] for the per-stream reports.
pub struct LiveIngest {
    addr: SocketAddr,
    shared: Arc<Shared>,
    merge: Option<EventMerge>,
    acceptor: Option<JoinHandle<()>>,
}

impl LiveIngest {
    /// The listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-stream live gauges (poll these during the run).
    ///
    /// # Panics
    ///
    /// Never panics; the gauge set is fixed at [`IngestServer::live`].
    pub fn gauges(&self) -> Vec<Arc<SessionGauge>> {
        self.shared.gauges.clone()
    }

    /// Connections turned away so far without attaching to a stream: the
    /// greeting was not `FDIFFSES` + id (a port scan, a health check, a
    /// publisher that died mid-handshake), or it named a session no
    /// stream could take (all streams claimed, or its stream retired).
    pub fn refused(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }

    /// Takes the merging event iterator. Call once.
    ///
    /// # Panics
    ///
    /// Panics on a second call.
    pub fn take_merge(&mut self) -> EventMerge {
        self.merge.take().expect("take_merge called twice")
    }

    /// Stops the accept loop, joins every reader, and returns the
    /// per-stream reports. Drain the merge first: readers block on the
    /// bounded channels until it is.
    pub fn finish(mut self) -> Vec<ConnReport> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Readers blocked mid-socket-read are unstuck by killing their
        // sockets; their channels close right after.
        {
            let mut slots = self.shared.slots.lock().expect("slot table poisoned");
            for i in 0..self.shared.expected {
                if let Some(sock) = &slots.current[i] {
                    let _ = sock.shutdown(Shutdown::Both);
                }
                slots.keepers[i] = None;
            }
        }
        drop(self.merge.take());
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().expect("readers poisoned"));
        for r in readers {
            let _ = r.join();
        }
        let slots = self.shared.slots.lock().expect("slot table poisoned");
        (0..self.shared.expected)
            .map(|i| {
                let g = &self.shared.gauges[i];
                let r = &slots.reports[i];
                ConnReport {
                    index: i,
                    peer: r.peer,
                    session: r.session,
                    handshake_ok: r.handshake_ok,
                    bytes_read: g.bytes(),
                    events: g.events(),
                    connects: g.connects(),
                    resumes: g.resumes(),
                    stalls: g.stalls(),
                    disconnects: g.disconnects(),
                    cause: r.cause,
                    state: g.state(),
                    stats: r.stats,
                    first_errors: r.first_errors.clone(),
                }
            })
            .collect()
    }
}

/// State shared between the accept loop, reader threads, and the
/// [`LiveIngest`] handle.
struct Shared {
    started: Instant,
    expected: usize,
    /// Most events per channel message: `min(BATCH, queue)`.
    batch: usize,
    opts: LiveOptions,
    stop: AtomicBool,
    refused: AtomicU64,
    gauges: Vec<Arc<SessionGauge>>,
    slots: Mutex<SlotTable>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// Per-stream bookkeeping behind one mutex: who holds which slot, the
/// keeper senders that keep merge channels open across reconnects, and
/// the folded per-stream reports.
struct SlotTable {
    /// One sender per stream, held for the stream's whole life; dropped
    /// to end the stream (the merge sees the channel close once the
    /// attached reader's clone is gone too).
    keepers: Vec<Option<BatchSender>>,
    /// Serializes handoff between an old connection draining out and a
    /// resume taking over (the watermark must be read after the old
    /// reader queued its last event).
    feeds: Vec<Arc<Mutex<()>>>,
    /// Session id -> slot index.
    sessions: HashMap<u64, usize>,
    /// The live socket per slot (a `try_clone`), so the reaper and a
    /// superseding reconnect can kill it from outside.
    current: Vec<Option<TcpStream>>,
    /// Cause to record if the current socket dies because we killed it.
    kill: Vec<Option<DisconnectCause>>,
    reports: Vec<SlotReport>,
    claimed: usize,
}

#[derive(Debug, Default, Clone)]
struct SlotReport {
    peer: Option<SocketAddr>,
    session: Option<u64>,
    handshake_ok: bool,
    stats: StreamStats,
    first_errors: Vec<DecodeError>,
    cause: Option<DisconnectCause>,
}

impl SlotTable {
    fn new(expected: usize, keepers: Vec<Option<BatchSender>>) -> SlotTable {
        SlotTable {
            keepers,
            feeds: (0..expected).map(|_| Arc::new(Mutex::new(()))).collect(),
            sessions: HashMap::new(),
            current: (0..expected).map(|_| None).collect(),
            kill: (0..expected).map(|_| None).collect(),
            reports: vec![SlotReport::default(); expected],
            claimed: 0,
        }
    }

    fn all_ended(&self, expected: usize) -> bool {
        self.claimed == expected && self.keepers.iter().all(Option::is_none)
    }
}

/// The accept loop body: nonblocking accepts on a poll cadence, plus
/// the reap scan (dead-but-open connections, abandoned sessions).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut index = 0usize;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        {
            let slots = shared.slots.lock().expect("slot table poisoned");
            if slots.all_ended(shared.expected) {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let for_reader = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("ingest-conn-{index}"))
                    .spawn(move || read_connection(peer, stream, for_reader))
                    .expect("spawn ingest reader thread");
                index += 1;
                shared_push_reader(&shared, handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                reap(&shared);
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                reap(&shared);
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

fn shared_push_reader(shared: &Arc<Shared>, handle: JoinHandle<()>) {
    shared
        .readers
        .lock()
        .expect("readers poisoned")
        .push(handle);
}

/// The reap scan: with a heartbeat horizon configured, kill sockets
/// that went silent past 4x the horizon (dead-but-open) and retire
/// claimed sessions nobody reconnected to within 8x (abandoned). Both
/// only fire for *claimed* slots: a publisher that never connected is
/// waited for indefinitely, like the PR 9 barrier.
fn reap(shared: &Arc<Shared>) {
    let hb = shared.opts.heartbeat_us;
    if hb == 0 {
        return;
    }
    let now = shared.now_us();
    let conn_dead_after = hb.saturating_mul(4);
    let session_dead_after = hb.saturating_mul(8);
    let mut slots = shared.slots.lock().expect("slot table poisoned");
    for i in 0..shared.expected {
        if slots.keepers[i].is_none() || shared.gauges[i].connects() == 0 {
            continue;
        }
        let idle = now.saturating_sub(shared.gauges[i].last_activity_us.load(Ordering::SeqCst));
        if slots.current[i].is_some() {
            if idle > conn_dead_after && slots.kill[i].is_none() {
                slots.kill[i] = Some(DisconnectCause::IdleTimeout);
                if let Some(sock) = &slots.current[i] {
                    let _ = sock.shutdown(Shutdown::Both);
                }
            }
        } else if idle > session_dead_after {
            // Abandoned: end the stream so the merge (and the run) can
            // complete without it.
            slots.keepers[i] = None;
            slots.reports[i].cause = Some(DisconnectCause::SessionAbandoned);
            shared.gauges[i].set_state(ConnState::Dead);
        }
    }
}

/// Reader-thread body: a connection must greet with `FDIFFSES` + id;
/// anything else is refused and counted, with no slot claimed and
/// nothing owed.
fn read_connection(peer: SocketAddr, mut stream: TcpStream, shared: Arc<Shared>) {
    let mut magic = [0u8; 8];
    let mut id = [0u8; 8];
    let greeted = matches!(read_full(&mut stream, &mut magic), Ok(true))
        && &magic == SESSION_MAGIC
        && matches!(read_full(&mut stream, &mut id), Ok(true));
    if greeted {
        run_session_conn(peer, stream, &shared, u64::from_le_bytes(id));
    } else {
        shared.refused.fetch_add(1, Ordering::Relaxed);
    }
}

/// Claims a slot for a session connection: a known id re-claims its
/// slot, a new one takes the next free slot. Returns the slot index,
/// its feed lock, and its channel sender — or `None` when every slot is
/// claimed by another session or the session's stream already retired.
fn claim_slot(
    shared: &Arc<Shared>,
    peer: SocketAddr,
    session: u64,
    stream: &TcpStream,
) -> Option<(usize, Arc<Mutex<()>>, BatchSender)> {
    let mut slots = shared.slots.lock().expect("slot table poisoned");
    let slot = match slots.sessions.get(&session) {
        Some(&i) => i,
        None => {
            if slots.claimed >= shared.expected {
                return None;
            }
            let i = slots.claimed;
            slots.claimed += 1;
            slots.sessions.insert(session, i);
            i
        }
    };
    let tx = slots.keepers[slot].clone()?;
    // Supersede a still-attached connection of the same stream (a
    // half-dead socket the publisher already gave up on).
    if slots.current[slot].is_some() {
        if slots.kill[slot].is_none() {
            slots.kill[slot] = Some(DisconnectCause::Superseded);
        }
        if let Some(old) = &slots.current[slot] {
            let _ = old.shutdown(Shutdown::Both);
        }
    }
    slots.current[slot] = stream.try_clone().ok();
    slots.reports[slot].peer = Some(peer);
    slots.reports[slot].session = Some(session);
    let feed = slots.feeds[slot].clone();
    shared.gauges[slot].touch(shared.now_us());
    Some((slot, feed, tx))
}

/// Marks a connection attempt over: folds its decode stats into the
/// slot report, records the cause, detaches the socket, and (when the
/// stream itself is over) drops the keeper so the merge retires it.
fn end_attempt(
    shared: &Arc<Shared>,
    slot: usize,
    decoder_stats: StreamStats,
    errors: Vec<DecodeError>,
    cause: DisconnectCause,
    stream_over: bool,
) {
    let mut slots = shared.slots.lock().expect("slot table poisoned");
    let report = &mut slots.reports[slot];
    report.stats.frames_decoded += decoder_stats.frames_decoded;
    report.stats.frames_skipped += decoder_stats.frames_skipped;
    report.stats.bytes_skipped += decoder_stats.bytes_skipped;
    for e in errors {
        if report.first_errors.len() < KEPT_ERRORS {
            report.first_errors.push(e);
        }
    }
    // A kill we initiated (reaper, supersede) outranks the raw io error
    // the victim's reader observed.
    let cause = slots.kill[slot].take().unwrap_or(cause);
    slots.reports[slot].cause = Some(cause);
    slots.current[slot] = None;
    // Superseded counts: whether the victim's reader saw the EOF first
    // or the replacement claimed the slot first, the old socket was an
    // abrupt loss — only the racer differs, not the event.
    let abrupt = matches!(
        cause,
        DisconnectCause::Io(_) | DisconnectCause::IdleTimeout | DisconnectCause::Superseded
    );
    if abrupt {
        shared.gauges[slot]
            .disconnects
            .fetch_add(1, Ordering::SeqCst);
    }
    if stream_over {
        slots.keepers[slot] = None;
        shared.gauges[slot].set_state(ConnState::Ended);
    } else {
        shared.gauges[slot].set_state(ConnState::Waiting);
    }
}

/// Session connection: ack with the resume watermark, then the record
/// layer until `End`, death, or a supersede. A session that finds no
/// stream to attach to is refused and counted.
fn run_session_conn(peer: SocketAddr, mut stream: TcpStream, shared: &Arc<Shared>, id: u64) {
    let Some((slot, feed, tx)) = claim_slot(shared, peer, id, &stream) else {
        shared.refused.fetch_add(1, Ordering::Relaxed);
        return;
    };
    // The feed lock serializes against the previous attempt: once held,
    // the old reader has queued its last decoded event, so the gauge's
    // event count is the exact resume point.
    let _guard = feed.lock().expect("feed lock poisoned");
    let gauge = shared.gauges[slot].clone();
    let watermark = gauge.events();
    let mut ack = Vec::with_capacity(16);
    ack.extend_from_slice(SESSION_ACK);
    ack.extend_from_slice(&watermark.to_le_bytes());
    if stream.write_all(&ack).is_err() {
        end_attempt(
            shared,
            slot,
            StreamStats::default(),
            Vec::new(),
            DisconnectCause::Io(std::io::ErrorKind::BrokenPipe),
            false,
        );
        return;
    }
    gauge.connects.fetch_add(1, Ordering::SeqCst);
    if watermark > 0 {
        gauge.resumes.fetch_add(1, Ordering::SeqCst);
    }
    gauge.set_state(ConnState::Active);
    {
        let mut slots = shared.slots.lock().expect("slot table poisoned");
        slots.reports[slot].handshake_ok = true;
    }
    gauge.bytes.fetch_add(16, Ordering::SeqCst); // magic + session id

    let mut decoder = FrameDecoder::new();
    let mut outbox = Outbox::new(&tx, shared.batch, &gauge);
    let mut header = [0u8; 5];
    let mut payload = vec![0u8; READ_CHUNK];
    let (cause, clean_end) = loop {
        match read_full(&mut stream, &mut header) {
            Ok(true) => {}
            Ok(false) => {
                break (
                    DisconnectCause::Io(std::io::ErrorKind::UnexpectedEof),
                    false,
                )
            }
            Err(e) => break (DisconnectCause::Io(e.kind()), false),
        }
        gauge.bytes.fetch_add(header.len() as u64, Ordering::SeqCst);
        gauge.touch(shared.now_us());
        let tag = header[0];
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
        if len > MAX_RECORD_LEN {
            break (DisconnectCause::Io(std::io::ErrorKind::InvalidData), false);
        }
        match tag {
            REC_HEARTBEAT => continue,
            REC_END => break (DisconnectCause::SessionEnd, true),
            REC_DATA => {
                let mut remaining = len as usize;
                let mut broken = None;
                while remaining > 0 {
                    let want = remaining.min(payload.len());
                    match read_full(&mut stream, &mut payload[..want]) {
                        Ok(true) => {}
                        Ok(false) => {
                            broken = Some(DisconnectCause::Io(std::io::ErrorKind::UnexpectedEof));
                            break;
                        }
                        Err(e) => {
                            broken = Some(DisconnectCause::Io(e.kind()));
                            break;
                        }
                    }
                    gauge.bytes.fetch_add(want as u64, Ordering::SeqCst);
                    gauge.touch(shared.now_us());
                    decoder.push_flow_events(&payload[..want], |item| outbox.take(item));
                    if !outbox.flush() {
                        broken = Some(DisconnectCause::Io(std::io::ErrorKind::BrokenPipe));
                        break;
                    }
                    remaining -= want;
                }
                if let Some(cause) = broken {
                    break (cause, false);
                }
            }
            _ => break (DisconnectCause::Io(std::io::ErrorKind::InvalidData), false),
        }
    };
    decoder.finish_flow_events(|item| outbox.take(item));
    outbox.flush();
    end_attempt(
        shared,
        slot,
        decoder.stats(),
        outbox.errors,
        cause,
        clean_end,
    );
}

/// `read_exact` that reports clean EOF (`Ok(false)`) instead of turning
/// it into an error, and retries `Interrupted`.
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Ok(false),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Where a connection's reader puts what it decodes: events into the
/// (blocking, bounded) channel in batches of at most `batch`, the first
/// [`KEPT_ERRORS`] errors into the report. The gauge grows by a batch's
/// length once the channel took it, so it counts exactly the events
/// queued.
struct Outbox<'a> {
    tx: &'a BatchSender,
    batch: usize,
    gauge: &'a SessionGauge,
    /// The batch being filled; no capacity between batches.
    out: Vec<FlowEvent>,
    errors: Vec<DecodeError>,
    /// The merge hung up: events are dropped from then on.
    receiver_gone: bool,
}

impl<'a> Outbox<'a> {
    fn new(tx: &'a BatchSender, batch: usize, gauge: &'a SessionGauge) -> Outbox<'a> {
        Outbox {
            tx,
            batch,
            gauge,
            out: Vec::new(),
            errors: Vec::new(),
            receiver_gone: false,
        }
    }

    /// Takes one decoded item, sending the batch once it is full.
    fn take(&mut self, item: Result<FlowEvent, DecodeError>) {
        match item {
            Ok(ev) => {
                if self.receiver_gone {
                    return;
                }
                if self.out.capacity() == 0 {
                    self.out.reserve_exact(self.batch);
                }
                self.out.push(ev);
                if self.out.len() == self.batch {
                    self.send();
                }
            }
            Err(e) => {
                if self.errors.len() < KEPT_ERRORS {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Sends the partial batch, so no event waits for a later read.
    /// Returns false once the merge side hung up.
    fn flush(&mut self) -> bool {
        if !self.out.is_empty() {
            self.send();
        }
        !self.receiver_gone
    }

    /// Hands the batch to the merge (blocking while the channel is full)
    /// and leaves `out` empty with no capacity.
    fn send(&mut self) {
        let n = self.out.len() as u64;
        if self.tx.send(std::mem::take(&mut self.out)).is_err() {
            self.receiver_gone = true;
        } else {
            self.gauge.events.fetch_add(n, Ordering::SeqCst);
        }
    }
}

/// K-way merge of per-stream event channels by `(timestamp, stream
/// index)`.
///
/// Each channel carries batches (`Vec<FlowEvent>`, in stream order;
/// an empty one is skipped). The merge keeps the batch it last received
/// from each stream and drains it one event at a time: a stream *has a
/// head* while that batch has events left, and goes back to its channel
/// only once the batch is spent. A stream that closes while part of its
/// last batch is still buffered keeps releasing that part first.
///
/// With no stall budget an event is released only once every still-open
/// stream has a head buffered, so no later-arriving stream can hold an
/// earlier timestamp back — this is what restores the single-capture
/// order from [`split_capture`]d publishers, at the price that one
/// stalled publisher stalls the merge.
///
/// With a stall budget, a stream that stays silent past the budget is
/// *waived*: releases proceed without it (its gauge flips to
/// [`ConnState::Stalled`] and counts the stall), and the first event it
/// produces afterwards revives it. Events released past a waived stream
/// may precede that stream's late arrivals — bounded disorder the
/// downstream `reorder_slack_us` buffer re-sequences, exactly like a
/// disordered capture file.
pub struct EventMerge {
    /// `None` once a stream has closed and drained.
    rxs: Vec<Option<Receiver<Vec<FlowEvent>>>>,
    /// The rest of the batch last received per stream; its first event
    /// is the stream's head.
    batches: Vec<std::vec::IntoIter<FlowEvent>>,
    /// `None` = block forever (strict ordering).
    stall: Option<Duration>,
    /// When a still-open, headless stream was first observed empty.
    silent_since: Vec<Option<Instant>>,
    /// Streams currently waived past.
    waived: Vec<bool>,
    /// Per-stream gauges to mark Stalled/Active on; empty when the
    /// merge runs standalone (tests, pre-session pipelines).
    gauges: Vec<Arc<SessionGauge>>,
    /// Scratch for one sweep of `next`: the open, headless, unwaived
    /// streams found empty. Kept here so the wait path does not allocate.
    pending: Vec<usize>,
}

impl EventMerge {
    /// A merge over plain receivers (no gauges), with an optional stall
    /// budget.
    pub fn new(rxs: Vec<Receiver<Vec<FlowEvent>>>, stall: Option<Duration>) -> EventMerge {
        EventMerge::with_gauges(rxs, stall, Vec::new())
    }

    fn with_gauges(
        rxs: Vec<Receiver<Vec<FlowEvent>>>,
        stall: Option<Duration>,
        gauges: Vec<Arc<SessionGauge>>,
    ) -> EventMerge {
        let n = rxs.len();
        EventMerge {
            rxs: rxs.into_iter().map(Some).collect(),
            batches: (0..n).map(|_| Vec::new().into_iter()).collect(),
            stall,
            silent_since: (0..n).map(|_| None).collect(),
            waived: (0..n).map(|_| false).collect(),
            gauges,
            pending: Vec::with_capacity(n),
        }
    }

    fn has_head(&self, i: usize) -> bool {
        !self.batches[i].as_slice().is_empty()
    }

    fn got_batch(&mut self, i: usize, batch: Vec<FlowEvent>) {
        if batch.is_empty() {
            return;
        }
        self.batches[i] = batch.into_iter();
        self.silent_since[i] = None;
        if self.waived[i] {
            self.waived[i] = false;
            if let Some(g) = self.gauges.get(i) {
                if g.state() == ConnState::Stalled {
                    g.set_state(ConnState::Active);
                }
            }
        }
    }

    fn waive(&mut self, i: usize) {
        self.waived[i] = true;
        self.silent_since[i] = None;
        if let Some(g) = self.gauges.get(i) {
            g.stalls.fetch_add(1, Ordering::SeqCst);
            if !matches!(g.state(), ConnState::Dead | ConnState::Ended) {
                g.set_state(ConnState::Stalled);
            }
        }
    }

    fn close(&mut self, i: usize) {
        self.rxs[i] = None;
        self.silent_since[i] = None;
        self.waived[i] = false;
    }

    /// Index of the smallest buffered head by `(ts, index)`.
    fn min_head(&self) -> Option<usize> {
        self.batches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_slice().first().map(|ev| (ev.ts, i)))
            .min()
            .map(|(_, i)| i)
    }
}

impl Iterator for EventMerge {
    type Item = FlowEvent;

    fn next(&mut self) -> Option<FlowEvent> {
        loop {
            // Nonblocking sweep: pick up arrivals, note silences.
            self.pending.clear();
            for i in 0..self.rxs.len() {
                if self.has_head(i) {
                    continue;
                }
                let Some(rx) = &self.rxs[i] else { continue };
                match rx.try_recv() {
                    Ok(batch) if !batch.is_empty() => self.got_batch(i, batch),
                    Ok(_) | Err(TryRecvError::Empty) => {
                        if self.waived[i] {
                            continue;
                        }
                        if self.silent_since[i].is_none() {
                            self.silent_since[i] = Some(Instant::now());
                        }
                        self.pending.push(i);
                    }
                    Err(TryRecvError::Disconnected) => self.close(i),
                }
            }
            if self.pending.is_empty() {
                if let Some(i) = self.min_head() {
                    return self.batches[i].next();
                }
                // No heads and nothing pending: either every stream is
                // closed, or only waived streams remain open — park
                // briefly and rescan for their revival.
                let i = (0..self.rxs.len()).find(|&i| self.rxs[i].is_some())?;
                let Some(rx) = &self.rxs[i] else { continue };
                match rx.recv_timeout(PARKED_WAIT) {
                    Ok(batch) => self.got_batch(i, batch),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => self.close(i),
                }
                continue;
            }
            match self.stall {
                None => {
                    // Strict mode: block until the stream produces or
                    // closes (the PR 9 semantics, byte for byte).
                    let i = self.pending[0];
                    let Some(rx) = &self.rxs[i] else { continue };
                    match rx.recv() {
                        Ok(batch) => self.got_batch(i, batch),
                        Err(_) => self.close(i),
                    }
                }
                Some(budget) => {
                    // Wait on the pending stream whose budget runs out
                    // first; waive it when it does. Budgets run from
                    // when a stream was first seen silent, so several
                    // stalled streams time out together rather than
                    // serially.
                    let now = Instant::now();
                    let (i, deadline) = self
                        .pending
                        .iter()
                        .map(|&i| {
                            let since = self.silent_since[i].unwrap_or(now);
                            (i, since + budget)
                        })
                        .min_by_key(|&(_, d)| d)
                        .expect("pending is nonempty");
                    if deadline <= now {
                        self.waive(i);
                        continue;
                    }
                    let Some(rx) = &self.rxs[i] else { continue };
                    match rx.recv_timeout(deadline - now) {
                        Ok(batch) => self.got_batch(i, batch),
                        Err(RecvTimeoutError::Timeout) => self.waive(i),
                        Err(RecvTimeoutError::Disconnected) => self.close(i),
                    }
                }
            }
        }
    }
}

/// What a publisher call sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct PublishReport {
    /// Bytes written to the socket(s), magics and record headers
    /// included.
    pub bytes_sent: u64,
    /// Events in the (pre-mangle) stream.
    pub events: u64,
    /// Ground truth of any byte-level chaos applied mid-wire.
    pub chaos: Option<ChaosReport>,
    /// Successful connects (1 + reconnects).
    pub connects: u32,
    /// Reconnects that resumed from a nonzero watermark.
    pub resumes: u32,
    /// Unplanned retries spent (connect/write failures).
    pub retries: u32,
    /// Planned chaos faults injected (disconnects, stalls, trickles).
    pub faults: u32,
}

/// Connects to `addr` as a session publisher and sends `log` mangled
/// through a [`ChannelChaos`] proxy as a **one-shot** payload: one
/// connection, no retry, no resume — a corrupted stream makes the
/// event-count watermark meaningless, so a session the server already
/// holds events for is an error. The bytes go out in `WRITE_CHUNK`-byte
/// `Data` records so the receiving decoder always sees frames split
/// across reads.
pub fn publish_mangled<A: ToSocketAddrs>(
    addr: A,
    log: &ControllerLog,
    chaos: &ChannelChaos,
    session: u64,
) -> std::io::Result<PublishReport> {
    let (mut payload, mangled) = chaos.mangle(log);
    let mut report = PublishReport {
        events: log.len() as u64,
        chaos: Some(mangled),
        connects: 1,
        ..PublishReport::default()
    };
    let mut stream = TcpStream::connect(addr)?;
    if session_handshake(&mut stream, session, &mut report)? != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "session already holds events; a mangled stream cannot resume",
        ));
    }
    write_data_record(&mut stream, &mut payload, &mut report, WRITE_CHUNK)?;
    write_end_record(&mut stream, &mut report)?;
    half_close(stream)?;
    Ok(report)
}

/// Half-close: shut the write side, then read to EOF so the peer's
/// close confirms it consumed the full stream (an immediate close could
/// RST and discard buffered bytes under load).
fn half_close(mut stream: TcpStream) -> std::io::Result<()> {
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return Ok(()),
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // The peer may close abruptly after we shut our side; the
            // stream was fully written either way.
            Err(_) => return Ok(()),
        }
    }
}

/// Options for a [`publish_session`] run.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// The session id (pick one per logical stream; reconnects with the
    /// same id resume).
    pub session: u64,
    /// How many *unplanned* failures (connect refused, write error) to
    /// retry past before giving up. Planned [`ConnPlan`] faults do not
    /// spend this budget.
    pub retry_budget: u32,
    /// Base reconnect delay, microseconds; doubles per consecutive
    /// retry, plus a seeded jitter of up to 25% so a publisher fleet
    /// does not reconnect in lockstep. `0` falls back to 1ms.
    pub backoff_us: u64,
    /// Planned connection faults to inject (flaps, stalls, trickle).
    pub plan: Option<ConnPlan>,
}

/// Connects to `addr` as a **session** publisher and replays `log`,
/// resuming from the server's watermark on every (re)connect: bounded
/// retry with exponential backoff and jitter on connect/write failure,
/// plus the planned faults of `opts.plan` (abrupt disconnects that
/// exercise resume, write stalls, slow-loris trickle). Returns once the
/// server acked the full stream (`End` record, half-close) or the retry
/// budget is spent.
pub fn publish_session<A: ToSocketAddrs>(
    addr: A,
    log: &ControllerLog,
    opts: &SessionOptions,
) -> std::io::Result<PublishReport> {
    let events = log.events();
    let mut report = PublishReport {
        events: events.len() as u64,
        ..PublishReport::default()
    };
    let mut rng = StdRng::seed_from_u64(opts.session ^ 0x5EED_CAFE);
    let mut retries = 0u32;
    let mut plan = opts.plan.clone().unwrap_or_default();
    'attempts: loop {
        let mut stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
                continue 'attempts;
            }
        };
        let watermark = match session_handshake(&mut stream, opts.session, &mut report) {
            Ok(w) => w,
            Err(e) => {
                retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
                continue 'attempts;
            }
        };
        report.connects += 1;
        if watermark > 0 {
            report.resumes += 1;
        }
        let start = (watermark as usize).min(events.len());

        // The attempt's payload stream: a fresh capture (magic first),
        // frames from the watermark on.
        let mut payload = Vec::with_capacity(WRITE_CHUNK * 2);
        payload.extend_from_slice(CAPTURE_MAGIC);
        let mut trickle_left = 0u64;
        for (off, ev) in events.iter().enumerate().skip(start) {
            encode_event(ev, &mut payload);
            let mut flap = false;
            for fault in plan.fire_at(off as u64 + 1) {
                report.faults += 1;
                match fault {
                    ConnFault::Disconnect => flap = true,
                    ConnFault::Stall { ms } => {
                        if let Err(e) = write_data_record(&mut stream, &mut payload, &mut report, 1)
                        {
                            retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
                            continue 'attempts;
                        }
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    ConnFault::Trickle { events: n } => trickle_left = trickle_left.max(n),
                }
            }
            if flap {
                // Planned abrupt death: flush what is framed, then
                // vanish without `End`. The next attempt resumes from
                // whatever the server actually queued.
                let _ = write_data_record(&mut stream, &mut payload, &mut report, 1);
                drop(stream);
                continue 'attempts;
            }
            let chunk = if trickle_left > 0 {
                trickle_left -= 1;
                64 // slow-loris: drip tiny records
            } else {
                WRITE_CHUNK
            };
            if payload.len() >= chunk {
                if let Err(e) = write_data_record(&mut stream, &mut payload, &mut report, chunk) {
                    retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
                    continue 'attempts;
                }
            }
        }
        if let Err(e) = write_data_record(&mut stream, &mut payload, &mut report, 1) {
            retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
            continue 'attempts;
        }
        if let Err(e) = write_end_record(&mut stream, &mut report) {
            retry_or_bail(&mut retries, opts, &mut rng, &mut report, e)?;
            continue 'attempts;
        }
        half_close(stream)?;
        report.retries = retries;
        return Ok(report);
    }
}

/// Sends `FDIFFSES` + id, reads `FDIFFACK` + watermark.
fn session_handshake(
    stream: &mut TcpStream,
    session: u64,
    report: &mut PublishReport,
) -> std::io::Result<u64> {
    let mut hello = Vec::with_capacity(16);
    hello.extend_from_slice(SESSION_MAGIC);
    hello.extend_from_slice(&session.to_le_bytes());
    stream.write_all(&hello)?;
    report.bytes_sent += hello.len() as u64;
    let mut ack = [0u8; 16];
    stream.read_exact(&mut ack)?;
    if &ack[..8] != SESSION_ACK {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "server did not speak FDIFFACK",
        ));
    }
    Ok(u64::from_le_bytes(ack[8..16].try_into().expect("8 bytes")))
}

/// Drains `payload` into `Data` records of at most `chunk` bytes each.
fn write_data_record(
    stream: &mut TcpStream,
    payload: &mut Vec<u8>,
    report: &mut PublishReport,
    chunk: usize,
) -> std::io::Result<()> {
    let chunk = chunk.max(1);
    let mut off = 0usize;
    while off < payload.len() {
        let n = (payload.len() - off).min(chunk);
        let mut header = [REC_DATA, 0, 0, 0, 0];
        header[1..5].copy_from_slice(&(n as u32).to_le_bytes());
        stream.write_all(&header)?;
        stream.write_all(&payload[off..off + n])?;
        report.bytes_sent += (header.len() + n) as u64;
        off += n;
    }
    payload.clear();
    Ok(())
}

/// Sends the `End` record that closes a session cleanly.
fn write_end_record(stream: &mut TcpStream, report: &mut PublishReport) -> std::io::Result<()> {
    let end = [REC_END, 0, 0, 0, 0];
    stream.write_all(&end)?;
    report.bytes_sent += end.len() as u64;
    Ok(())
}

/// Spends one unit of retry budget (or gives up with `err`), sleeping
/// the exponential backoff plus seeded jitter.
fn retry_or_bail(
    retries: &mut u32,
    opts: &SessionOptions,
    rng: &mut StdRng,
    report: &mut PublishReport,
    err: std::io::Error,
) -> std::io::Result<()> {
    *retries += 1;
    report.retries = *retries;
    if *retries > opts.retry_budget {
        return Err(err);
    }
    let base = opts.backoff_us.max(1_000);
    let backoff = base.saturating_mul(1u64 << (*retries - 1).min(16));
    let jitter = rng.gen_range(0..=backoff / 4);
    std::thread::sleep(Duration::from_micros(backoff.saturating_add(jitter)));
    Ok(())
}

/// Deals a capture across `n` publisher streams such that the
/// `(timestamp, stream index)` merge of the streams reproduces the
/// capture's event order exactly.
///
/// Events are distributed round-robin **run by run**: each maximal run
/// of equal timestamps stays on one stream, so no timestamp tie ever
/// straddles two streams and the merge tie-breaker (stream index)
/// never has to guess the original order.
pub fn split_capture(log: &ControllerLog, n: usize) -> Vec<ControllerLog> {
    let n = n.max(1);
    let mut parts = vec![ControllerLog::new(); n];
    let mut turn = 0usize;
    let mut run_ts = None;
    for ev in log.events() {
        if run_ts != Some(ev.ts) {
            if run_ts.is_some() {
                turn = (turn + 1) % n;
            }
            run_ts = Some(ev.ts);
        }
        parts[turn].push(ev.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{ControlEvent, Direction};
    use openflow::messages::OfpMessage;
    use openflow::types::{DatapathId, Timestamp, Xid};

    fn ev(ts_us: u64, xid: u32) -> ControlEvent {
        ControlEvent {
            ts: Timestamp::from_micros(ts_us),
            dpid: DatapathId(1),
            direction: Direction::ToController,
            xid: Xid(xid),
            msg: OfpMessage::Hello,
        }
    }

    /// [`ev`] as the merge delivers it.
    fn fev(ts_us: u64, xid: u32) -> FlowEvent {
        FlowEvent::from(&ev(ts_us, xid))
    }

    /// `log`'s events as the merge delivers them.
    fn flow(log: &ControllerLog) -> Vec<FlowEvent> {
        log.events().iter().map(FlowEvent::from).collect()
    }

    /// One live server over `n` expected streams; returns the merged
    /// events and the reports once everything ends.
    fn live_collect(
        server: &IngestServer,
        n: usize,
        queue: usize,
        opts: LiveOptions,
    ) -> (Vec<FlowEvent>, Vec<ConnReport>) {
        let mut live = server.live(n, queue, opts).unwrap();
        let events: Vec<FlowEvent> = live.take_merge().collect();
        let reports = live.finish();
        (events, reports)
    }

    #[test]
    fn split_capture_confines_timestamp_runs_to_one_stream() {
        // Ties at 10 and 30 must each land whole on a single stream.
        let log: ControllerLog = vec![
            ev(10, 0),
            ev(10, 1),
            ev(20, 2),
            ev(30, 3),
            ev(30, 4),
            ev(30, 5),
            ev(40, 6),
        ]
        .into_iter()
        .collect();
        let parts = split_capture(&log, 3);
        assert_eq!(parts.iter().map(ControllerLog::len).sum::<usize>(), 7);
        for part in &parts {
            for w in part.events().windows(2) {
                assert!(w[0].ts <= w[1].ts, "streams stay time-ordered");
            }
        }
        for ts in [10u64, 30] {
            let holders = parts
                .iter()
                .filter(|p| p.events().iter().any(|e| e.ts.as_micros() == ts))
                .count();
            assert_eq!(holders, 1, "run at {ts}µs must not straddle streams");
        }
    }

    #[test]
    fn merge_of_split_streams_restores_capture_order() {
        let log: ControllerLog = (0..100u64).map(|i| ev(10 + i / 3, i as u32)).collect();
        for n in [1usize, 2, 4, 7] {
            let parts = split_capture(&log, n);
            // Feed the merge through real channels, pre-loaded.
            let mut rxs = Vec::new();
            for part in &parts {
                let (tx, rx) = sync_channel(200);
                for e in part.events() {
                    tx.send(vec![FlowEvent::from(e)]).unwrap();
                }
                drop(tx);
                rxs.push(rx);
            }
            let merged: Vec<FlowEvent> = EventMerge::new(rxs, None).collect();
            assert_eq!(merged, flow(&log), "{n} streams");
        }
    }

    /// Cuts each stream into consecutive batches whose sizes `size`
    /// yields in turn.
    fn cut(
        streams: &[Vec<FlowEvent>],
        mut size: impl FnMut() -> usize,
    ) -> Vec<Vec<Vec<FlowEvent>>> {
        streams
            .iter()
            .map(|s| {
                let mut batches = Vec::new();
                let mut rest = &s[..];
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at(size().clamp(1, rest.len()));
                    batches.push(head.to_vec());
                    rest = tail;
                }
                batches
            })
            .collect()
    }

    /// A strict merge over `batches`, channels pre-loaded and closed (so
    /// every stream closes while the merge still holds its last batch).
    fn merge_preloaded(batches: &[Vec<Vec<FlowEvent>>]) -> Vec<FlowEvent> {
        let rxs = batches
            .iter()
            .map(|stream| {
                let (tx, rx) = sync_channel(stream.len().max(1));
                for b in stream {
                    tx.send(b.clone()).unwrap();
                }
                rx
            })
            .collect();
        EventMerge::new(rxs, None).collect()
    }

    /// A strict merge over `batches`, each stream sent by its own thread
    /// through a one-batch channel, so the merge blocks on its streams.
    fn merge_threaded(batches: &[Vec<Vec<FlowEvent>>]) -> Vec<FlowEvent> {
        let mut rxs = Vec::new();
        let mut senders = Vec::new();
        for stream in batches {
            let (tx, rx) = sync_channel(1);
            let stream = stream.clone();
            senders.push(std::thread::spawn(move || {
                for b in stream {
                    tx.send(b).unwrap();
                }
            }));
            rxs.push(rx);
        }
        let merged = EventMerge::new(rxs, None).collect();
        for s in senders {
            s.join().unwrap();
        }
        merged
    }

    #[test]
    fn batched_delivery_merges_as_single_events_do() {
        let mut rng = StdRng::seed_from_u64(42);
        // Three streams stepping their clocks by 0..=2 µs over one range,
        // so timestamps tie within and across streams (the stream index
        // breaks cross-stream ties). Stream 2 is short and ends mid-run.
        let lens = [300usize, 250, 40];
        let mut xid = 0u32;
        let streams: Vec<Vec<FlowEvent>> = lens
            .iter()
            .map(|&len| {
                let mut ts = 100u64;
                (0..len)
                    .map(|_| {
                        ts += rng.gen_range(0..=2u64);
                        xid += 1;
                        fev(ts, xid)
                    })
                    .collect()
            })
            .collect();
        let mut expect: Vec<(u64, usize, FlowEvent)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |e| (e.ts.as_micros(), i, e.clone())))
            .collect();
        expect.sort_by_key(|&(ts, i, _)| (ts, i));
        assert!(
            expect
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1),
            "the inputs must tie timestamps across streams"
        );
        let expect: Vec<FlowEvent> = expect.into_iter().map(|(_, _, e)| e).collect();

        let singles = merge_preloaded(&cut(&streams, || 1));
        assert_eq!(singles, expect, "single-event batches");
        let mut sizes: Vec<(String, Vec<Vec<Vec<FlowEvent>>>)> = [1usize, 2, 3, 64]
            .iter()
            .map(|&n| (format!("size {n}"), cut(&streams, || n)))
            .collect();
        let mut mix = StdRng::seed_from_u64(7);
        sizes.push(("mixed".into(), cut(&streams, || mix.gen_range(1..=70))));
        for (name, batches) in &sizes {
            assert_eq!(merge_preloaded(batches), singles, "{name}, preloaded");
            assert_eq!(merge_threaded(batches), singles, "{name}, threaded");
        }
    }

    #[test]
    fn merge_waives_a_stalled_stream_within_the_budget() {
        // Stream 0 delivers everything; stream 1 stays silent. With a
        // stall budget the merge must release stream 0's events within
        // roughly the budget instead of blocking forever.
        let (tx0, rx0) = sync_channel(16);
        let (tx1, rx1) = sync_channel::<Vec<FlowEvent>>(16);
        for i in 0..4u64 {
            tx0.send(vec![fev(100 + i, i as u32)]).unwrap();
        }
        drop(tx0);
        let budget = Duration::from_millis(100);
        let mut merge = EventMerge::new(vec![rx0, rx1], Some(budget));
        let t0 = Instant::now();
        let first = merge.next().expect("stream 0's events must release");
        assert!(
            t0.elapsed() < budget + Duration::from_millis(400),
            "first release came {}ms after start, budget {}ms",
            t0.elapsed().as_millis(),
            budget.as_millis()
        );
        assert_eq!(first.ts.as_micros(), 100);
        // The rest release without further stall waits.
        let rest: Vec<u64> = (0..3)
            .map(|_| merge.next().unwrap().ts.as_micros())
            .collect();
        assert_eq!(rest, vec![101, 102, 103]);
        drop(tx1);
        assert!(merge.next().is_none());
    }

    #[test]
    fn merge_revives_a_waived_stream_and_keeps_per_stream_order() {
        let (tx0, rx0) = sync_channel(16);
        let (tx1, rx1) = sync_channel(16);
        for i in 0..3u64 {
            tx0.send(vec![fev(200 + i, i as u32)]).unwrap();
        }
        drop(tx0);
        let mut merge = EventMerge::new(vec![rx0, rx1], Some(Duration::from_millis(50)));
        // Stream 1 silent: stream 0 releases past it.
        assert_eq!(merge.next().unwrap().ts.as_micros(), 200);
        assert_eq!(merge.next().unwrap().ts.as_micros(), 201);
        // Stream 1 revives with *older* events — they still come out in
        // stream order, re-sequencing left to the downstream slack.
        tx1.send(vec![fev(150, 10)]).unwrap();
        tx1.send(vec![fev(151, 11)]).unwrap();
        drop(tx1);
        let rest: Vec<u64> = merge.by_ref().map(|e| e.ts.as_micros()).collect();
        assert_eq!(rest, vec![150, 151, 202]);
    }

    #[test]
    fn loopback_roundtrip_single_publisher() {
        let log: ControllerLog = (0..50u64).map(|i| ev(100 + i, i as u32)).collect();
        let server = IngestServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let publisher = std::thread::spawn({
            let log = log.clone();
            move || publish_session(addr, &log, &SessionOptions::default()).unwrap()
        });
        let (events, reports) = live_collect(&server, 1, 16, LiveOptions::default());
        let sent = publisher.join().unwrap();
        assert_eq!(events, flow(&log));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].handshake_ok);
        assert_eq!(reports[0].events, 50);
        assert_eq!(reports[0].bytes_read, sent.bytes_sent);
        assert_eq!(reports[0].stats.frames_decoded, 50);
        assert_eq!(reports[0].stats.frames_skipped, 0);
        assert_eq!(reports[0].cause, Some(DisconnectCause::SessionEnd));
        assert_eq!(reports[0].state, ConnState::Ended);
    }

    #[test]
    fn handshake_failure_is_reported_not_fatal() {
        // A non-protocol connect (port scan, LB health check) must be
        // refused without consuming the only stream slot: the real
        // session arriving afterwards still delivers every event.
        let log: ControllerLog = (0..50u64).map(|i| ev(100 + i, i as u32)).collect();
        let server = IngestServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut live = server.live(1, 16, LiveOptions::default()).unwrap();
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The server hangs up on the probe once the refusal is counted.
        let mut sink = Vec::new();
        let _ = probe.read_to_end(&mut sink);
        assert!(sink.is_empty(), "a refused greeting gets no reply");
        assert_eq!(live.refused(), 1);
        let publisher = std::thread::spawn({
            let log = log.clone();
            move || publish_session(addr, &log, &SessionOptions::default()).unwrap()
        });
        let events: Vec<FlowEvent> = live.take_merge().collect();
        publisher.join().unwrap();
        assert_eq!(events, flow(&log));
        assert_eq!(live.refused(), 1);
        let reports = live.finish();
        assert!(reports[0].handshake_ok);
        assert_eq!(reports[0].events, 50);
        assert_eq!(reports[0].connects, 1);
        assert_eq!(reports[0].cause, Some(DisconnectCause::SessionEnd));
        assert_eq!(reports[0].state, ConnState::Ended);
    }

    #[test]
    fn ingest_queue_bounds_events_not_batches() {
        // 25-byte frames in `WRITE_CHUNK` records: one read decodes
        // hundreds of events, more than a batch holds. Against a merge
        // nobody drains, the stream's channel may hold `queue` events
        // however they are batched.
        for queue in [1usize, 4, 100] {
            let server = IngestServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap();
            let live = server.live(1, queue, LiveOptions::default()).unwrap();
            let sent = Arc::new(AtomicU64::new(0));
            let publisher = std::thread::spawn({
                let sent = sent.clone();
                move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    let mut report = PublishReport::default();
                    session_handshake(&mut s, 1, &mut report).unwrap();
                    let mut payload = CAPTURE_MAGIC.to_vec();
                    for i in 0u64.. {
                        encode_event(&ev(100 + i, i as u32), &mut payload);
                        if payload.len() >= WRITE_CHUNK {
                            if write_data_record(&mut s, &mut payload, &mut report, WRITE_CHUNK)
                                .is_err()
                            {
                                return;
                            }
                            sent.store(report.bytes_sent, Ordering::SeqCst);
                        }
                    }
                }
            });
            // The publisher is blocked once its byte count stops moving.
            let mut last = u64::MAX;
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(100));
                let now = sent.load(Ordering::SeqCst);
                if now == last {
                    break;
                }
                last = now;
            }
            assert_eq!(
                sent.load(Ordering::SeqCst),
                last,
                "queue {queue}: publisher never blocked"
            );
            let queued = live.gauges()[0].events();
            assert!(
                (1..=queue as u64).contains(&queued),
                "queue {queue}: {queued} events wait in the channel"
            );
            live.finish();
            publisher.join().unwrap();
        }
    }

    #[test]
    fn session_roundtrip_and_clean_end() {
        let log: ControllerLog = (0..80u64).map(|i| ev(100 + i, i as u32)).collect();
        let server = IngestServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let publisher = std::thread::spawn({
            let log = log.clone();
            move || {
                publish_session(
                    addr,
                    &log,
                    &SessionOptions {
                        session: 7,
                        ..SessionOptions::default()
                    },
                )
                .unwrap()
            }
        });
        let (events, reports) = live_collect(&server, 1, 16, LiveOptions::default());
        let sent = publisher.join().unwrap();
        assert_eq!(events, flow(&log));
        assert_eq!(sent.connects, 1);
        assert_eq!(sent.resumes, 0);
        let r = &reports[0];
        assert!(r.handshake_ok);
        assert_eq!(r.session, Some(7));
        assert_eq!(r.events, 80);
        assert_eq!(r.connects, 1);
        assert_eq!(r.resumes, 0);
        assert_eq!(r.cause, Some(DisconnectCause::SessionEnd));
        assert_eq!(r.state, ConnState::Ended);
        assert_eq!(r.bytes_read, sent.bytes_sent);
    }

    #[test]
    fn session_flap_resumes_from_watermark_without_loss_or_duplication() {
        let log: ControllerLog = (0..200u64).map(|i| ev(100 + i, i as u32)).collect();
        let server = IngestServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let plan = ConnPlan::at(vec![
            (60, ConnFault::Disconnect),
            (140, ConnFault::Disconnect),
        ]);
        let publisher = std::thread::spawn({
            let log = log.clone();
            move || {
                publish_session(
                    addr,
                    &log,
                    &SessionOptions {
                        session: 99,
                        retry_budget: 2,
                        backoff_us: 1_000,
                        plan: Some(plan),
                    },
                )
                .unwrap()
            }
        });
        let (events, reports) = live_collect(&server, 1, 16, LiveOptions::default());
        let sent = publisher.join().unwrap();
        assert_eq!(
            events,
            flow(&log),
            "resume must lose nothing and duplicate nothing"
        );
        assert_eq!(sent.connects, 3, "1 connect + 2 flap reconnects");
        assert_eq!(sent.resumes, 2);
        assert_eq!(sent.faults, 2);
        let r = &reports[0];
        assert_eq!(r.events, 200);
        assert_eq!(r.connects, 3);
        assert_eq!(r.resumes, 2);
        assert_eq!(r.disconnects, 2, "both flaps counted as abrupt losses");
        assert_eq!(r.cause, Some(DisconnectCause::SessionEnd));
        assert_eq!(r.state, ConnState::Ended);
    }

    #[test]
    fn publisher_retries_connect_with_backoff_until_server_appears() {
        // Reserve a port, drop the listener, and only bind the real
        // server after a delay: the publisher's first connects fail and
        // the retry budget must carry it through.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let log: ControllerLog = (0..30u64).map(|i| ev(100 + i, i as u32)).collect();
        let publisher = std::thread::spawn({
            let log = log.clone();
            move || {
                publish_session(
                    addr,
                    &log,
                    &SessionOptions {
                        session: 5,
                        retry_budget: 50,
                        backoff_us: 20_000,
                        plan: None,
                    },
                )
            }
        });
        std::thread::sleep(Duration::from_millis(150));
        let server = IngestServer::bind(addr).unwrap();
        let (events, _) = live_collect(&server, 1, 16, LiveOptions::default());
        let sent = publisher.join().unwrap().expect("retries must succeed");
        assert_eq!(events.len(), 30);
        assert!(sent.retries >= 1, "at least one connect failed first");
    }

    #[test]
    fn dead_but_open_socket_is_reaped_and_stream_completes() {
        // A publisher that connects, sends half a capture, then hangs
        // forever with the socket open: with a heartbeat horizon the
        // server must kill the connection and (with no resume coming)
        // retire the session so the run can end.
        let log: ControllerLog = (0..40u64).map(|i| ev(100 + i, i as u32)).collect();
        let server = IngestServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let bytes = log.to_wire_bytes();
        let half = bytes.len() / 2;
        let _publisher = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(SESSION_MAGIC).unwrap();
            s.write_all(&3u64.to_le_bytes()).unwrap();
            s.write_all(&[REC_DATA]).unwrap();
            s.write_all(&(half as u32).to_le_bytes()).unwrap();
            s.write_all(&bytes[..half]).unwrap();
            // Hang. The server kills us; keep the socket alive until
            // then.
            std::thread::sleep(Duration::from_secs(10));
        });
        let opts = LiveOptions {
            stall_timeout_us: 20_000,
            heartbeat_us: 30_000,
        };
        let t0 = Instant::now();
        let (events, reports) = live_collect(&server, 1, 16, opts);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "reap must end the run long before the publisher wakes"
        );
        assert!(!events.is_empty(), "the half-capture's events came through");
        assert!(events.len() < 40);
        let r = &reports[0];
        assert!(r.disconnects >= 1, "the idle socket was killed");
        assert_eq!(r.cause, Some(DisconnectCause::SessionAbandoned));
        assert_eq!(r.state, ConnState::Dead);
    }
}
