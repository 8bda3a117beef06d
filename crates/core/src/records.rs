//! Flow record extraction from the controller log.
//!
//! FlowDiff's signatures are built not from raw control messages but from
//! *flow records*: one record per flow episode, collecting the flow's
//! 5-tuple, the time-ordered `PacketIn` reports from every switch on its
//! path, the `FlowMod` replies, and the final counters from
//! `FlowRemoved`.

use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use netsim::log::{ControlEvent, ControllerLog};
use openflow::frame;
use openflow::messages::OfpMessage;
use openflow::types::{DatapathId, IpProto, PortNo, Timestamp, Xid};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::derived::Derived;

/// One countable irregularity in the control-event stream.
///
/// These are the event-level counterparts of the frame-level
/// [`netsim::log::DecodeError`]: the frame decoded fine, but the event
/// doesn't fit the protocol conversation the assembler expects. None of
/// them stop ingestion — the assembler counts the anomaly in its
/// [`IngestHealth`] and continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestAnomaly {
    /// An event arrived with a timestamp earlier than an already-seen
    /// event (reordered capture or clock skew between taps).
    OutOfOrder,
    /// A second `FlowMod` reused an in-flight xid; the first one wins.
    DuplicateXid,
    /// A `FlowMod` whose xid never matched any `PacketIn` before it
    /// aged out.
    OrphanFlowMod,
    /// A `FlowRemoved` for a tuple with no open episode started before
    /// it.
    OrphanFlowRemoved,
    /// A `FlowMod` reply that arrived after its episode was already
    /// evicted past `partial_flow_timeout_us`.
    StaleAttach,
    /// An event whose timestamp jumped further beyond everything seen
    /// so far than `max_time_jump_us` allows (a corrupt clock reading);
    /// the event was dropped.
    TimeJump,
    /// An event that confirmed the previous time jump as a real clock
    /// step (a quiet stretch, a clock set forward): it lies after the
    /// refused timestamp and within the jump bound of it. The event was
    /// admitted and re-anchored the jump check.
    ClockGap,
}

/// Ingestion health counters: how much of the input decoded cleanly and
/// what kinds of protocol irregularities were tolerated along the way.
///
/// The frame-level counters are filled from
/// [`netsim::log::StreamStats`] via [`IngestHealth::absorb_stream`];
/// the event-level counters accumulate inside the [`Sequencer`]
/// (arrival order) and the [`RecordAssembler`] (the protocol
/// conversation). On a clean, time-sorted capture every field is zero
/// except `frames_decoded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestHealth {
    /// Wire frames decoded into events.
    pub frames_decoded: u64,
    /// Corrupt wire regions skipped during resynchronization.
    pub frames_skipped: u64,
    /// Bytes discarded while resynchronizing.
    pub bytes_skipped: u64,
    /// Events that arrived out of time order.
    pub events_reordered: u64,
    /// Episodes evicted (emitted early) after idling past the horizon.
    pub episodes_evicted: u64,
    /// `FlowMod`s rejected for reusing an in-flight xid.
    pub duplicate_xids: u64,
    /// `FlowMod`s that never matched a `PacketIn`.
    pub orphan_flow_mods: u64,
    /// `FlowRemoved`s with no open episode to attach to.
    pub orphan_flow_removeds: u64,
    /// `FlowMod` replies that arrived after their episode was evicted.
    pub stale_attaches: u64,
    /// Events dropped for an implausible forward timestamp jump.
    pub time_jumps: u64,
    /// Time jumps the next arrival confirmed as a clock step: each is
    /// one re-anchoring of the jump check, its confirming event
    /// admitted.
    pub clock_gaps: u64,
    /// Publisher streams waived past the ingest stall budget (live
    /// transport only; see [`IngestHealth::absorb_conn`]).
    pub conn_stalls: u64,
    /// Abrupt publisher connection losses (resets, idle-timeout kills —
    /// not clean EOFs).
    pub conn_disconnects: u64,
    /// Publisher reconnects that resumed a session mid-stream.
    pub conn_resumes: u64,
}

impl IngestHealth {
    /// Counts one anomaly.
    pub fn record(&mut self, anomaly: IngestAnomaly) {
        match anomaly {
            IngestAnomaly::OutOfOrder => self.events_reordered += 1,
            IngestAnomaly::DuplicateXid => self.duplicate_xids += 1,
            IngestAnomaly::OrphanFlowMod => self.orphan_flow_mods += 1,
            IngestAnomaly::OrphanFlowRemoved => self.orphan_flow_removeds += 1,
            IngestAnomaly::StaleAttach => self.stale_attaches += 1,
            IngestAnomaly::TimeJump => self.time_jumps += 1,
            IngestAnomaly::ClockGap => self.clock_gaps += 1,
        }
    }

    /// Folds a [`LogStream`](netsim::log::LogStream)'s frame counters
    /// into the health picture.
    pub fn absorb_stream(&mut self, stats: netsim::log::StreamStats) {
        self.frames_decoded += stats.frames_decoded;
        self.frames_skipped += stats.frames_skipped;
        self.bytes_skipped += stats.bytes_skipped;
    }

    /// Folds one live connection's lifecycle counters (stall waivers,
    /// abrupt losses, resumed reconnects) into the health picture. A
    /// clean wire run — or a file run, which has no connections —
    /// contributes zeros, so served and file health stay comparable.
    pub fn absorb_conn(&mut self, stalls: u64, disconnects: u64, resumes: u64) {
        self.conn_stalls += stalls;
        self.conn_disconnects += disconnects;
        self.conn_resumes += resumes;
    }

    /// Total event-level anomalies (excludes frame skips and episode
    /// evictions, which are reported separately).
    pub fn anomalies(&self) -> u64 {
        self.events_reordered
            + self.duplicate_xids
            + self.orphan_flow_mods
            + self.orphan_flow_removeds
            + self.stale_attaches
            + self.time_jumps
            + self.clock_gaps
    }
}

impl fmt::Display for IngestHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames decoded, {} skipped ({} B); {} reordered, \
             {} dup xids, {} orphan mods, {} orphan removals, \
             {} stale attaches, {} time jumps; {} episodes evicted",
            self.frames_decoded,
            self.frames_skipped,
            self.bytes_skipped,
            self.events_reordered,
            self.duplicate_xids,
            self.orphan_flow_mods,
            self.orphan_flow_removeds,
            self.stale_attaches,
            self.time_jumps,
            self.episodes_evicted,
        )?;
        if self.clock_gaps > 0 {
            write!(f, "; {} clock gaps", self.clock_gaps)?;
        }
        if self.conn_stalls + self.conn_disconnects + self.conn_resumes > 0 {
            write!(
                f,
                "; {} conn stalls, {} conn drops, {} resumes",
                self.conn_stalls, self.conn_disconnects, self.conn_resumes,
            )?;
        }
        Ok(())
    }
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
    pub fn from_key(key: &openflow::match_fields::FlowKey) -> FlowTuple {
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

/// One `PacketIn` report for a flow, at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopReport {
    /// Controller-side arrival time of the `PacketIn`.
    pub ts: Timestamp,
    /// Reporting switch.
    pub dpid: DatapathId,
    /// Ingress port at that switch.
    pub in_port: PortNo,
    /// Transaction id (pairs the `FlowMod` reply).
    pub xid: Xid,
    /// Send time of the paired `FlowMod`, when seen.
    pub flow_mod_ts: Option<Timestamp>,
    /// Egress port installed by the paired `FlowMod`, when seen.
    pub out_port: Option<PortNo>,
}

/// One flow episode: a 5-tuple's appearance in the network, from its
/// first `PacketIn` to its `FlowRemoved` counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The flow's 5-tuple.
    pub tuple: FlowTuple,
    /// First `PacketIn` timestamp (the flow's appearance time).
    pub first_seen: Timestamp,
    /// `PacketIn`/`FlowMod` reports in time order, one per on-path switch.
    pub hops: Vec<HopReport>,
    /// Final byte count (max over per-switch `FlowRemoved`s).
    pub byte_count: u64,
    /// Final packet count.
    pub packet_count: u64,
    /// Flow-entry lifetime in seconds (from `FlowRemoved`).
    pub duration_s: f64,
}

impl FlowRecord {
    /// The dpid sequence of the flow's path, in traversal order.
    pub fn switch_path(&self) -> Vec<DatapathId> {
        self.hops.iter().map(|h| h.dpid).collect()
    }
}

/// Extracts flow records from a controller log.
///
/// Recurring 5-tuples are split into episodes when consecutive
/// `PacketIn`s are separated by more than `config.episode_gap_us`.
/// `FlowRemoved` counters attach to the latest episode that started
/// before them.
///
/// This is a thin wrapper over [`RecordAssembler`]: the whole log is
/// fed through the streaming state machine one event at a time. The
/// batch and streaming paths are one implementation.
pub fn extract_records(log: &ControllerLog, config: &FlowDiffConfig) -> Vec<FlowRecord> {
    let mut asm = RecordAssembler::new(config);
    for ev in log.events() {
        asm.observe(ev);
    }
    asm.finish()
}

/// One in-flight flow episode inside the assembler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OpenEpisode {
    /// Creation sequence number; pairs pending `FlowMod` patches with
    /// the episode they belong to even after sibling episodes close.
    seq: u64,
    record: FlowRecord,
    /// Latest event timestamp that touched this episode (hop, `FlowMod`
    /// patch, or `FlowRemoved`); drives idle eviction.
    last_activity: Timestamp,
    /// Set while the episode's tuple sits in the assembler's `touched`
    /// list.
    touched: Derived<bool>,
}

/// Location of a hop that is still waiting for its `FlowMod` reply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingHop {
    tuple: FlowTuple,
    seq: u64,
    hop_idx: usize,
    registered: Timestamp,
}

/// The tuples with an open episode that changed — a hop, a `FlowMod`
/// patch, a `FlowRemoved`, or the eviction of a sibling episode — since
/// [`RecordAssembler::touched_open_records_since`] last asked, one
/// entry per episode (its `touched` flag dedups). `None` means
/// "everything": nobody has asked yet (a fresh or restored assembler), so
/// nothing is tracked and the list cannot grow.
type Touched = Derived<Option<Vec<FlowTuple>>>;

impl Touched {
    fn mark(&mut self, episode: &mut OpenEpisode) {
        if let Some(tuples) = &mut self.0 {
            if !std::mem::replace(&mut episode.touched.0, true) {
                tuples.push(episode.record.tuple);
            }
        }
    }
}

/// Streaming flow-record assembly: a state machine that consumes
/// control events one at a time and emits completed [`FlowRecord`]s
/// with bounded memory.
///
/// The assembler tracks three kinds of in-flight state, each evicted
/// once it falls idle past the horizon (`partial_flow_timeout_us`
/// clamped to at least `episode_gap_us`):
///
/// - **open episodes** — flows whose `PacketIn` hops are still
///   accumulating; evicted episodes are *emitted* (not dropped), so no
///   flow is ever lost,
/// - **seen `FlowMod`s** — xid → (send ts, installed output port),
///   first reply wins, consulted by `PacketIn`s arriving after the mod,
/// - **pending hops** — hops whose `FlowMod` has not arrived yet,
///   patched in place when it does.
///
/// Input events are in time order: a [`ControllerLog`] is sorted, and an
/// online pipeline puts a [`Sequencer`] in front of its assembler, which
/// judges every arrival (quarantine, disorder count, re-sequencing)
/// before it gets here. The result is identical to the historical
/// whole-log extraction as long as every event pairing with a flow
/// arrives within the horizon of the flow's last activity; a `FlowMod`
/// or `FlowRemoved` straggling in later than that no longer attaches.
/// Because the horizon is at least the episode gap, eviction can never
/// merge two episodes the batch extractor would split.
///
/// The assembler is part of the streaming state a
/// [`checkpoint`](crate::checkpoint) must capture, so the whole struct
/// — in-flight episodes, xid bookkeeping, health counters — serializes;
/// a deserialized assembler continues exactly where the original
/// stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordAssembler {
    episode_gap_us: u64,
    horizon_us: u64,
    /// xid -> first FlowMod seen for it; first wins.
    seen_mods: HashMap<Xid, SeenMod>,
    /// xid -> hops still waiting for that FlowMod.
    pending_mods: HashMap<Xid, Vec<PendingHop>>,
    /// Open episodes per tuple, oldest first. A flat hash map: every
    /// consumer of whole-state iteration (`finish`, the snapshot path)
    /// sorts by `(first_seen, tuple)` afterwards, so map order never
    /// reaches an output.
    open: HashMap<FlowTuple, Vec<OpenEpisode>>,
    next_seq: u64,
    completed: Vec<FlowRecord>,
    now: Timestamp,
    last_prune: Timestamp,
    health: IngestHealth,
    /// Which open episodes the online differ's maintained window has not
    /// seen the current version of.
    touched: Touched,
}

/// The first `FlowMod` seen for an xid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SeenMod {
    ts: Timestamp,
    out: Option<PortNo>,
    /// True once the mod matched at least one `PacketIn` hop; entries
    /// pruned without ever matching count as orphan FlowMods.
    used: bool,
}

impl RecordAssembler {
    /// New assembler using `config.episode_gap_us` and
    /// `config.partial_flow_timeout_us`.
    pub fn new(config: &FlowDiffConfig) -> RecordAssembler {
        RecordAssembler {
            episode_gap_us: config.episode_gap_us,
            horizon_us: config.partial_flow_timeout_us.max(config.episode_gap_us),
            seen_mods: HashMap::new(),
            pending_mods: HashMap::new(),
            open: HashMap::new(),
            next_seq: 0,
            completed: Vec::new(),
            now: Timestamp::ZERO,
            last_prune: Timestamp::ZERO,
            health: IngestHealth::default(),
            touched: Touched::default(),
        }
    }

    /// The protocol-conversation counters accumulated so far (duplicate
    /// xids, orphans, stale attaches, evictions); the arrival counters
    /// live in the [`Sequencer`], and callers streaming from wire bytes
    /// fold in their [`LogStream`](netsim::log::LogStream) stats via
    /// [`IngestHealth::absorb_stream`].
    pub fn health(&self) -> &IngestHealth {
        &self.health
    }

    /// Runs one control event through the assembly state machine. An
    /// unparseable `PacketIn` is skipped, never fatal; like every other
    /// event it still advances the clock, with the prune check.
    pub fn observe(&mut self, ev: &ControlEvent) {
        match &ev.msg {
            OfpMessage::PacketIn(pi) => {
                if let Ok(key) = frame::parse_frame(&pi.data) {
                    let tuple = FlowTuple::from_key(&key);
                    self.on_packet_in(ev.ts, ev.dpid, ev.xid, pi.in_port, tuple);
                }
            }
            OfpMessage::FlowMod(fm) => {
                let out = openflow::actions::first_output(&fm.actions);
                self.on_flow_mod(ev.ts, ev.xid, out);
            }
            OfpMessage::FlowRemoved(fr) => {
                let m = &fr.match_;
                let tuple = FlowTuple {
                    src: m.nw_src,
                    sport: m.tp_src,
                    dst: m.nw_dst,
                    dport: m.tp_dst,
                    proto: m.nw_proto,
                };
                self.on_flow_removed(
                    ev.ts,
                    tuple,
                    fr.byte_count,
                    fr.packet_count,
                    fr.duration_secs_f64(),
                );
            }
            _ => {}
        }
        self.advance_clock(ev.ts);
    }

    fn on_packet_in(
        &mut self,
        ts: Timestamp,
        dpid: DatapathId,
        xid: Xid,
        in_port: PortNo,
        tuple: FlowTuple,
    ) {
        let (fm_ts, out_port) = match self.seen_mods.get_mut(&xid) {
            Some(sm) => {
                sm.used = true;
                (Some(sm.ts), sm.out)
            }
            None => (None, None),
        };
        let hop = HopReport {
            ts,
            dpid,
            in_port,
            xid,
            flow_mod_ts: fm_ts,
            out_port,
        };
        let episodes = self.open.entry(tuple).or_default();
        let start_new = match episodes.last() {
            Some(ep) => {
                let last_ts = ep.record.hops.last().map_or(ep.record.first_seen, |h| h.ts);
                ts.saturating_since(last_ts) > self.episode_gap_us
            }
            None => true,
        };
        let (seq, hop_idx);
        if start_new {
            seq = self.next_seq;
            self.next_seq += 1;
            hop_idx = 0;
            episodes.push(OpenEpisode {
                seq,
                record: FlowRecord {
                    tuple,
                    first_seen: ts,
                    hops: vec![hop],
                    byte_count: 0,
                    packet_count: 0,
                    duration_s: 0.0,
                },
                last_activity: ts,
                touched: Derived(false),
            });
        } else {
            let ep = episodes.last_mut().expect("just checked");
            ep.record.hops.push(hop);
            if ts > ep.last_activity {
                ep.last_activity = ts;
            }
            seq = ep.seq;
            hop_idx = ep.record.hops.len() - 1;
        }
        self.touched
            .mark(episodes.last_mut().expect("pushed or extended"));
        if fm_ts.is_none() {
            self.pending_mods.entry(xid).or_default().push(PendingHop {
                tuple,
                seq,
                hop_idx,
                registered: ts,
            });
        }
    }

    fn on_flow_mod(&mut self, ts: Timestamp, xid: Xid, out: Option<PortNo>) {
        use std::collections::hash_map::Entry;
        // First FlowMod per xid wins, matching the batch pre-scan.
        let Entry::Vacant(slot) = self.seen_mods.entry(xid) else {
            self.health.record(IngestAnomaly::DuplicateXid);
            return;
        };
        slot.insert(SeenMod {
            ts,
            out,
            used: false,
        });
        let Some(waiting) = self.pending_mods.remove(&xid) else {
            return;
        };
        // The xid matched real hops (even if some were since evicted):
        // this mod is not an orphan.
        if let Some(sm) = self.seen_mods.get_mut(&xid) {
            sm.used = true;
        }
        for p in waiting {
            let Some(episodes) = self.open.get_mut(&p.tuple) else {
                // episode already evicted: tolerated straggler
                self.health.record(IngestAnomaly::StaleAttach);
                continue;
            };
            let Some(ep) = episodes.iter_mut().find(|e| e.seq == p.seq) else {
                self.health.record(IngestAnomaly::StaleAttach);
                continue;
            };
            if let Some(h) = ep.record.hops.get_mut(p.hop_idx) {
                h.flow_mod_ts = Some(ts);
                h.out_port = out;
            }
            if ts > ep.last_activity {
                ep.last_activity = ts;
            }
            self.touched.mark(ep);
        }
    }

    fn on_flow_removed(
        &mut self,
        ts: Timestamp,
        tuple: FlowTuple,
        byte_count: u64,
        packet_count: u64,
        duration_s: f64,
    ) {
        // Attach to the latest episode started before the removal;
        // counters merge with max over per-switch FlowRemoveds.
        let Some(episodes) = self.open.get_mut(&tuple) else {
            self.health.record(IngestAnomaly::OrphanFlowRemoved);
            return;
        };
        let Some(ep) = episodes
            .iter_mut()
            .rev()
            .find(|ep| ep.record.first_seen <= ts)
        else {
            self.health.record(IngestAnomaly::OrphanFlowRemoved);
            return;
        };
        ep.record.byte_count = ep.record.byte_count.max(byte_count);
        ep.record.packet_count = ep.record.packet_count.max(packet_count);
        ep.record.duration_s = ep.record.duration_s.max(duration_s);
        if ts > ep.last_activity {
            ep.last_activity = ts;
        }
        self.touched.mark(ep);
    }

    /// Evicts state idle past the horizon. Idle episodes are *emitted*
    /// into the completed set; stale xid bookkeeping is dropped.
    fn prune(&mut self) {
        let now = self.now;
        let horizon = self.horizon_us;
        let mut evicted: Vec<FlowRecord> = Vec::new();
        let touched = &mut self.touched;
        self.open.retain(|_, episodes| {
            let before = evicted.len();
            let mut i = 0;
            while i < episodes.len() {
                if now.saturating_since(episodes[i].last_activity) > horizon {
                    evicted.push(episodes.remove(i).record);
                } else {
                    i += 1;
                }
            }
            // A surviving sibling may share the evicted episode's window
            // key; the maintained window re-reads it to keep their order.
            if let (true, Some(sibling)) = (evicted.len() > before, episodes.first_mut()) {
                touched.mark(sibling);
            }
            !episodes.is_empty()
        });
        self.health.episodes_evicted += evicted.len() as u64;
        self.completed.extend(evicted);
        let mut orphaned = 0u64;
        self.seen_mods.retain(|_, sm| {
            let keep = now.saturating_since(sm.ts) <= horizon;
            if !keep && !sm.used {
                orphaned += 1;
            }
            keep
        });
        for _ in 0..orphaned {
            self.health.record(IngestAnomaly::OrphanFlowMod);
        }
        self.pending_mods.retain(|_, hops| {
            hops.retain(|p| now.saturating_since(p.registered) <= horizon);
            !hops.is_empty()
        });
    }

    /// Takes the records completed (evicted) so far, leaving in-flight
    /// state untouched. Order is unspecified; callers that need the
    /// batch order sort by `(first_seen, tuple)`.
    pub fn take_completed(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Clones the current in-flight episodes as best-effort records —
    /// the live view an online consumer folds into its window model
    /// before the episodes finish.
    pub fn open_records(&self) -> Vec<FlowRecord> {
        self.open_records_since(Timestamp::ZERO)
    }

    /// [`open_records`](Self::open_records) restricted to episodes first
    /// seen at or after `start` (a sliding window's lower bound). The
    /// filter runs before the clone: episodes stay open for one to two
    /// horizons, so most of them predate a window shorter than that.
    pub fn open_records_since(&self, start: Timestamp) -> Vec<FlowRecord> {
        self.open_since(start).cloned().collect()
    }

    fn open_since(&self, start: Timestamp) -> impl Iterator<Item = &FlowRecord> {
        (self.open.values().flatten())
            .filter(move |ep| ep.record.first_seen >= start)
            .map(|ep| &ep.record)
    }

    /// [`open_records_since`](Self::open_records_since) restricted to
    /// the tuples touched since this was last called — every episode of
    /// such a tuple, touched or not, so a caller that replaces what it
    /// holds per `(first_seen, tuple)` key always sees a key's episodes
    /// together. The first call on a fresh or restored assembler returns
    /// every in-window episode and starts the tracking. The records are
    /// lent, not cloned.
    pub fn touched_open_records_since(&mut self, start: Timestamp) -> Vec<&FlowRecord> {
        let Some(mut tuples) = self.touched.0.take() else {
            self.touched.0 = Some(Vec::new());
            return self.open_since(start).collect();
        };
        tuples.retain(|tuple| {
            // Evicted since, or already handed over for a sibling.
            let Some(episodes) = self.open.get_mut(tuple) else {
                return false;
            };
            let touched = episodes.iter().any(|ep| ep.touched.0);
            for ep in episodes {
                ep.touched.0 = false;
            }
            touched
        });
        let open = &self.open;
        let out = (tuples.iter())
            .flat_map(|tuple| &open[tuple])
            .filter(|ep| ep.record.first_seen >= start)
            .map(|ep| &ep.record)
            .collect();
        tuples.clear();
        self.touched.0 = Some(tuples);
        out
    }

    /// Number of in-flight episodes (bounded-memory diagnostics).
    pub fn open_len(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// Number of completed records not yet taken.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Advances the assembler's processed-time clock, pruning once it
    /// has moved a horizon past the last prune — after every event
    /// [`observe`](Self::observe) runs.
    fn advance_clock(&mut self, ts: Timestamp) {
        if ts > self.now {
            self.now = ts;
        }
        if self.now.saturating_since(self.last_prune) > self.horizon_us {
            self.prune();
            self.last_prune = self.now;
        }
    }

    /// Finalizes the remaining open episodes and returns the full record
    /// set in `(first_seen, tuple)` order — exactly the batch extraction
    /// order.
    pub fn finish(self) -> Vec<FlowRecord> {
        let mut records = self.completed;
        records.extend(self.open.into_values().flatten().map(|ep| ep.record));
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        records
    }
}

/// The arrival stage in front of record assembly: exactly one per
/// online pipeline, and the only reader of `reorder_slack_us` and
/// `max_time_jump_us`. Each arriving event is judged here once:
///
/// - **quarantined** ([`admit`](Self::admit) says no, counted in
///   `time_jumps`) when its timestamp jumps further past every earlier
///   arrival than `max_time_jump_us` allows — a corrupt clock reading,
///   which the caller drops before the timestamp drives anything —
///   unless it **re-anchors** the check (counted in `clock_gaps`): an
///   arrival after the last refused timestamp and within the bound of
///   it confirms a clock step rather than a wild reading, and is
///   admitted as the new reference,
/// - **counted** in `events_reordered` when it is older than an earlier
///   arrival (a reordered capture, clock skew between taps),
/// - **held back** ([`release`](Self::release)) until the arrival
///   watermark moves `reorder_slack_us` past it, so slightly disordered
///   input reaches the assembler in time order. At slack 0 nothing is
///   held and each event is handed through borrowed.
///
/// Held events and counters are streaming state: the sequencer
/// serializes, and a restored one releases exactly what the original
/// would have.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequencer {
    reorder_slack_us: u64,
    /// `0` disables the quarantine.
    max_time_jump_us: u64,
    /// Newest admitted timestamp: the disorder reference, the jump
    /// reference and the release watermark's anchor. `None` until the
    /// first admission, which nothing quarantines: the clock a capture
    /// starts on is its own, not a jump from zero.
    max_arrival: Option<Timestamp>,
    /// The last quarantined timestamp, until an arrival back within the
    /// bound of `max_arrival` shows it was one wild reading, or one
    /// within the bound after it confirms a clock step.
    last_refused: Option<Timestamp>,
    /// Admissions held so far; keeps simultaneous held events in arrival
    /// order.
    arrival_seq: u64,
    /// Held-back events by `(ts, arrival_seq)`; always empty at slack 0.
    held: BTreeMap<(Timestamp, u64), ControlEvent>,
    /// `time_jumps`, `clock_gaps` and `events_reordered`; every other
    /// field stays zero.
    health: IngestHealth,
}

impl Sequencer {
    /// A sequencer with `config`'s reorder slack and time-jump bound.
    pub fn new(config: &FlowDiffConfig) -> Sequencer {
        Sequencer {
            reorder_slack_us: config.reorder_slack_us,
            max_time_jump_us: config.max_time_jump_us,
            max_arrival: None,
            last_refused: None,
            arrival_seq: 0,
            held: BTreeMap::new(),
            health: IngestHealth::default(),
        }
    }

    /// Newest admitted timestamp (`Timestamp::ZERO` before the first):
    /// "now" on the arrival clock.
    pub fn max_arrival(&self) -> Timestamp {
        self.max_arrival.unwrap_or(Timestamp::ZERO)
    }

    /// Judges an arrival at `ts`: `false` — counted as a time jump — for
    /// a quarantined timestamp, which the caller drops; otherwise the
    /// event is admitted, counted if out of order, and must be handed to
    /// [`release`](Self::release) next. The first arrival is always
    /// admitted and anchors the jump check. A jump is judged against the
    /// last refused timestamp too: an arrival after it and within the
    /// bound of it confirms a clock step, is counted as a clock gap and
    /// becomes the new reference, so a quiet stretch longer than the
    /// bound does not lock the stream out.
    pub fn admit(&mut self, ts: Timestamp) -> bool {
        let Some(newest) = self.max_arrival else {
            self.max_arrival = Some(ts);
            return true;
        };
        let bound = self.max_time_jump_us;
        let within = |from: Timestamp| ts.checked_since(from).is_none_or(|j| j <= bound);
        if bound == 0 || within(newest) {
            self.last_refused = None;
        } else if (self.last_refused).is_some_and(|refused| ts > refused && within(refused)) {
            self.last_refused = None;
            self.health.record(IngestAnomaly::ClockGap);
        } else {
            self.last_refused = Some(ts);
            self.health.record(IngestAnomaly::TimeJump);
            return false;
        }
        if ts < newest {
            self.health.record(IngestAnomaly::OutOfOrder);
        } else {
            self.max_arrival = Some(ts);
        }
        true
    }

    /// Hands the just-admitted `ev`, and every held event the watermark
    /// now lets through, to `out` in assembly order; the flag marks `ev`
    /// itself. At slack 0 that is `ev` alone, borrowed. Otherwise even a
    /// too-late `ev` goes through the buffer: it is below the watermark,
    /// so it comes right back out, sequenced against its peers.
    pub fn release<'e>(
        &mut self,
        ev: &'e ControlEvent,
        mut out: impl FnMut(Cow<'e, ControlEvent>, bool),
    ) {
        if self.reorder_slack_us == 0 {
            return out(Cow::Borrowed(ev), true);
        }
        let own = (ev.ts, self.arrival_seq);
        self.held.insert(own, ev.clone());
        self.arrival_seq += 1;
        let watermark = Timestamp::from_micros(
            self.max_arrival()
                .as_micros()
                .saturating_sub(self.reorder_slack_us),
        );
        while let Some(entry) = self.held.first_entry() {
            if entry.key().0 > watermark {
                break;
            }
            let is_own = *entry.key() == own;
            out(Cow::Owned(entry.remove()), is_own);
        }
    }

    /// End of stream: every held event, in assembly order.
    pub fn drain(&mut self) -> btree_map::IntoValues<(Timestamp, u64), ControlEvent> {
        std::mem::take(&mut self.held).into_values()
    }

    /// Adds the arrival counters — time jumps, clock gaps and disordered
    /// events — to `health`.
    pub fn count_into(&self, health: &mut IngestHealth) {
        health.time_jumps += self.health.time_jumps;
        health.clock_gaps += self.health.clock_gaps;
        health.events_reordered += self.health.events_reordered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::config::SimConfig;
    use netsim::engine::Simulation;
    use netsim::flows::FlowSpec;
    use netsim::topology::Topology;
    use openflow::match_fields::FlowKey;
    use openflow::messages::OfpMessage;

    fn line_topology() -> Topology {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        t.connect(h1, s1, 50, 1_000_000_000);
        t.connect(s1, s2, 20, 1_000_000_000);
        t.connect(s2, s3, 20, 1_000_000_000);
        t.connect(s3, h2, 50, 1_000_000_000);
        t
    }

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn one_record_per_flow_with_full_path() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.hops.len(), 3, "three OF switches on path");
        assert_eq!(r.tuple.dport, 80);
        assert!(r.hops.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(r.hops.iter().all(|h| h.flow_mod_ts.is_some()));
        assert!(r.hops.iter().all(|h| h.out_port.is_some()));
        assert_eq!(r.byte_count, 6_000);
        assert!(r.duration_s > 4.9, "lifetime includes the idle timeout");
    }

    #[test]
    fn episodes_split_on_gap() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        // Same 5-tuple, 60 s apart (entries expire in between).
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.schedule_flow(
            Timestamp::from_secs(61),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 2, "two episodes of the same tuple");
        assert!(records[0].first_seen < records[1].first_seen);
        assert_eq!(records[0].byte_count, 3_000);
        assert_eq!(records[1].byte_count, 3_000);
    }

    #[test]
    fn concurrent_flows_keep_separate_records() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for sport in [4000, 4001, 4002] {
            sim.schedule_flow(
                Timestamp::from_secs(1),
                FlowSpec::new(key(sport), 2_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 3);
        let mut sports: Vec<u16> = records.iter().map(|r| r.tuple.sport).collect();
        sports.sort_unstable();
        assert_eq!(sports, vec![4000, 4001, 4002]);
    }

    #[test]
    fn extraction_survives_corrupt_capture() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 2_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let mut log = sim.take_log();
        // Corrupt one PacketIn's payload.
        let mut events: Vec<_> = log.events().to_vec();
        for e in &mut events {
            if let OfpMessage::PacketIn(pi) = &mut e.msg {
                pi.data = pi.data[..4].into();
                break;
            }
        }
        log = events.into_iter().collect();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].hops.len(), 2, "corrupt hop skipped");
    }

    #[test]
    fn assembler_with_midstream_drain_matches_batch() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for (i, sport) in [4000u16, 4001, 4002, 4003].iter().enumerate() {
            sim.schedule_flow(
                Timestamp::from_secs(1 + 20 * i as u64),
                FlowSpec::new(key(*sport), 3_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();
        let config = FlowDiffConfig::default();
        let batch = extract_records(&log, &config);

        // Stream the same events, draining completed records as we go —
        // the way an online consumer uses the assembler.
        let mut asm = RecordAssembler::new(&config);
        let mut streamed: Vec<FlowRecord> = Vec::new();
        for (i, ev) in log.events().iter().enumerate() {
            asm.observe(ev);
            if i % 7 == 0 {
                streamed.extend(asm.take_completed());
            }
        }
        streamed.extend(asm.finish());
        streamed.sort_by_key(|r| (r.first_seen, r.tuple));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn assembler_evicts_idle_partials_and_stays_bounded() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        // Two episodes of the same tuple, 60 s apart.
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.schedule_flow(
            Timestamp::from_secs(61),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();

        // A 10 s timeout is far shorter than the 60 s quiet stretch, so
        // the first episode must be evicted (emitted) mid-stream, yet
        // every event still pairs within the horizon: the result must
        // match the default-timeout batch extraction.
        let tight = FlowDiffConfig {
            partial_flow_timeout_us: 10_000_000,
            ..FlowDiffConfig::default()
        };
        let mut asm = RecordAssembler::new(&tight);
        let mut evicted_midstream = 0;
        for ev in log.events() {
            asm.observe(ev);
            evicted_midstream = evicted_midstream.max(asm.completed_len());
        }
        assert!(
            evicted_midstream >= 1,
            "first episode should be emitted before the stream ends"
        );
        assert!(asm.open_len() <= 1, "only the live episode stays in-flight");
        let streamed = {
            let mut v = asm.finish();
            v.sort_by_key(|r| (r.first_seen, r.tuple));
            v
        };
        let batch = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(streamed, batch);
    }

    #[test]
    fn open_records_expose_in_flight_view() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let mut asm = RecordAssembler::new(&FlowDiffConfig::default());
        // Feed only the PacketIn/FlowMod prefix (stop at FlowRemoved).
        for ev in log.events() {
            if matches!(ev.msg, OfpMessage::FlowRemoved(_)) {
                break;
            }
            asm.observe(ev);
        }
        let view = asm.open_records();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].hops.len(), 3, "all hops visible before completion");
        assert_eq!(view[0].byte_count, 0, "counters not yet attached");
        assert_eq!(asm.completed_len(), 0);
    }

    #[test]
    fn touched_tracking_hands_over_changed_episodes_and_is_unobservable() {
        let log = busy_log();
        fn sorted<R: std::borrow::Borrow<FlowRecord>>(v: Vec<R>) -> Vec<FlowRecord> {
            let mut v: Vec<FlowRecord> = v.iter().map(|r| r.borrow().clone()).collect();
            v.sort_by_key(|r| (r.first_seen, r.tuple));
            v
        }
        let mut asm = RecordAssembler::new(&FlowDiffConfig::default());
        // Stop short of the first prune (60 s): all four flows stay open.
        let live = (log.events().iter()).filter(|ev| ev.ts < Timestamp::from_secs(50));
        let (early, late): (Vec<_>, Vec<_>) = live.partition(|ev| ev.ts < Timestamp::from_secs(20));
        for ev in early {
            asm.observe(ev);
        }
        // A twin that is never asked tracks nothing.
        let mut twin = asm.clone();

        // The first ask hands over every in-window episode.
        let first = sorted(asm.touched_open_records_since(Timestamp::ZERO));
        assert_eq!(first, sorted(asm.open_records()));
        assert_eq!(first.len(), 2, "flows at 1 s and 16 s");
        assert!(asm.touched_open_records_since(Timestamp::ZERO).is_empty());

        for ev in late {
            asm.observe(ev);
            twin.observe(ev);
        }
        // Afterwards: exactly the episodes that are new or changed.
        let changed: Vec<FlowRecord> = sorted(asm.open_records())
            .into_iter()
            .filter(|r| !first.contains(r))
            .collect();
        assert_eq!(changed.len(), 3, "16 s flow's FlowRemoved, two new flows");
        let start = Timestamp::from_secs(30);
        let in_window: Vec<FlowRecord> = (changed.iter())
            .filter(|r| r.first_seen >= start)
            .cloned()
            .collect();
        assert_eq!(in_window.len(), 2);
        assert_eq!(
            sorted(asm.clone().touched_open_records_since(start)),
            in_window
        );
        assert_eq!(
            sorted(asm.touched_open_records_since(Timestamp::ZERO)),
            changed
        );
        assert_eq!(sorted(asm.open_records_since(start)), in_window);

        // Derived state: equal, and not a byte of it in a checkpoint.
        assert_eq!(asm, twin);
        assert_eq!(serde::to_vec(&asm), serde::to_vec(&twin));
        let restored: RecordAssembler = serde::from_slice(&serde::to_vec(&asm)).unwrap();
        let mut restored = restored;
        assert_eq!(
            sorted(restored.touched_open_records_since(Timestamp::ZERO)),
            sorted(asm.open_records()),
            "everything counts as touched after a restore"
        );
    }

    #[test]
    fn evicting_an_episode_hands_its_open_siblings_over_again() {
        // Two episodes of one tuple, last active around 7 s and 16 s.
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for at in [1, 10] {
            sim.schedule_flow(
                Timestamp::from_secs(at),
                FlowSpec::new(key(4000), 3_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(30));
        let mut asm = RecordAssembler::new(&FlowDiffConfig::default());
        for ev in sim.take_log().events() {
            asm.observe(ev);
        }
        let first: Vec<FlowRecord> = (asm.touched_open_records_since(Timestamp::ZERO))
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(first.len(), 2);

        // A prune at 70 s evicts the older one only. Nothing touched
        // the younger, but whoever replaces what it holds per tuple
        // must see it again.
        asm.advance_clock(Timestamp::from_secs(70));
        assert_eq!((asm.completed_len(), asm.open_len()), (1, 1));
        let again: Vec<FlowRecord> = (asm.touched_open_records_since(Timestamp::ZERO))
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(again, asm.open_records());
        assert!(first.contains(&again[0]), "handed over unchanged");
    }

    #[test]
    fn time_jump_quarantine_drops_corrupt_clock_readings() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let batch = extract_records(&log, &FlowDiffConfig::default());

        // A bit flip in a wire timestamp mints an event eons ahead.
        let mut corrupt = log.events()[0].clone();
        corrupt.ts = Timestamp::from_micros(corrupt.ts.as_micros() + (1 << 50));

        let guarded = FlowDiffConfig {
            max_time_jump_us: 60_000_000,
            ..FlowDiffConfig::default()
        };
        let mut seq = Sequencer::new(&guarded);
        let mut asm = RecordAssembler::new(&guarded);
        for (i, ev) in log.events().iter().enumerate() {
            assert!(seq.admit(ev.ts), "clean events must be admitted");
            seq.release(ev, |ev, _| asm.observe(&ev));
            if i == 0 {
                assert!(!seq.admit(corrupt.ts), "insane jump must be dropped");
            }
        }
        let mut health = IngestHealth::default();
        seq.count_into(&mut health);
        assert_eq!(health.time_jumps, 1);
        assert_eq!(
            health.clock_gaps, 0,
            "the next event contradicts the wild reading"
        );
        assert_eq!(
            health.events_reordered, 0,
            "a dropped jump must not poison the arrival watermark"
        );
        assert_eq!(
            asm.finish(),
            batch,
            "records unaffected by the dropped event"
        );

        // Disabled (the default), the same event is admitted.
        let mut unguarded = Sequencer::new(&FlowDiffConfig::default());
        assert!(unguarded.admit(corrupt.ts));
    }

    #[test]
    fn quiet_stretch_longer_than_the_bound_re_anchors_on_the_next_arrival() {
        // Under a 60 s bound, the refused 70 s and 500 s are each
        // confirmed by the arrival a second later: a clock step, not a
        // wild reading, so the stream carries on from there.
        let mut seq = Sequencer::new(&FlowDiffConfig {
            max_time_jump_us: 60_000_000,
            ..FlowDiffConfig::default()
        });
        let admitted: Vec<u64> = [1, 2, 70, 71, 72, 500, 501]
            .into_iter()
            .filter(|&s| seq.admit(Timestamp::from_secs(s)))
            .collect();
        assert_eq!(admitted, [1, 2, 71, 72, 501]);
        let mut health = IngestHealth::default();
        seq.count_into(&mut health);
        assert_eq!((health.time_jumps, health.clock_gaps), (2, 2));
        assert_eq!(health.events_reordered, 0);
        assert_eq!(seq.max_arrival(), Timestamp::from_secs(501));
        assert!(health.to_string().ends_with("; 2 clock gaps"));
    }

    #[test]
    fn sequencer_hands_events_through_borrowed_or_re_sequenced() {
        let at = |us: u64| ControlEvent {
            ts: Timestamp::from_micros(us),
            dpid: DatapathId(1),
            direction: netsim::log::Direction::ToController,
            xid: Xid(0),
            msg: OfpMessage::Hello,
        };
        let shuffled: Vec<ControlEvent> = [10, 30, 20, 40, 35, 50].map(at).to_vec();
        let sorted: Vec<ControlEvent> = [10, 20, 30, 35, 40, 50].map(at).to_vec();
        let released = |slack_us: u64| {
            let config = FlowDiffConfig {
                reorder_slack_us: slack_us,
                ..FlowDiffConfig::default()
            };
            let mut seq = Sequencer::new(&config);
            let mut out = Vec::new();
            for ev in &shuffled {
                assert!(seq.admit(ev.ts));
                seq.release(ev, |ev, own| {
                    // Slack 0 holds nothing: each event, borrowed, alone.
                    assert_eq!(slack_us == 0, matches!(ev, Cow::Borrowed(_)));
                    assert!(own || slack_us > 0);
                    out.push(ev.into_owned());
                });
            }
            out.extend(seq.drain());
            let mut health = IngestHealth::default();
            seq.count_into(&mut health);
            (out, health.events_reordered)
        };
        let (passed, reordered) = released(0);
        assert_eq!(passed, shuffled, "slack 0 keeps arrival order");
        assert_eq!(reordered, 2);
        let (sequenced, reordered) = released(1_000_000);
        assert_eq!(sequenced, sorted, "slack restores time order");
        assert_eq!(reordered, 2);
    }

    #[test]
    fn switch_path_in_traversal_order() {
        let t = line_topology();
        let dpids: Vec<DatapathId> = ["s1", "s2", "s3"]
            .iter()
            .map(|n| t.dpid_of(t.node_by_name(n).unwrap()).unwrap())
            .collect();
        let mut sim = Simulation::new(t, SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 2_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records[0].switch_path(), dpids);
    }

    /// A capture with four flows, started 15 s apart.
    fn busy_log() -> ControllerLog {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for (i, sport) in [4000u16, 4001, 4002, 4003].iter().enumerate() {
            sim.schedule_flow(
                Timestamp::from_secs(1 + 15 * i as u64),
                FlowSpec::new(key(*sport), 3_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(120));
        sim.take_log()
    }
}
