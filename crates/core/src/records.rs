//! Flow record extraction from the controller log.
//!
//! FlowDiff's signatures are built not from raw control messages but from
//! *flow records*: one record per flow episode, collecting the flow's
//! 5-tuple, the time-ordered `PacketIn` reports from every switch on its
//! path, the `FlowMod` replies, and the final counters from
//! `FlowRemoved`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use netsim::log::{ControlEvent, ControllerLog};
use openflow::frame;
use openflow::messages::OfpMessage;
use openflow::types::{DatapathId, IpProto, PortNo, Timestamp, Xid};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::derived::Derived;
use crate::ids::{shard_of, EntityCatalog, ShardKey};

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
}

/// Ingestion health counters: how much of the input decoded cleanly and
/// what kinds of protocol irregularities were tolerated along the way.
///
/// The frame-level counters are filled from
/// [`netsim::log::StreamStats`] via [`IngestHealth::absorb_stream`];
/// the event-level counters accumulate inside [`RecordAssembler`]. On a
/// clean, time-sorted capture every field is zero except
/// `frames_decoded`.
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
    // A materialized log is time-sorted (`ControllerLog::finish`), so
    // any out-of-order count here means the assembler miscounted — a
    // bug, not bad input. (Other anomaly kinds are legitimate even in
    // sorted logs: xid collisions, orphan removals, and the like.)
    debug_assert_eq!(
        asm.health().events_reordered,
        0,
        "sorted log must never count out-of-order events"
    );
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
/// "everything": nobody has asked yet (a fresh or restored assembler, or
/// one told to [`forget`](RecordAssembler::forget_touched)), so nothing
/// is tracked and the list cannot grow.
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
/// Input events should be in non-decreasing time order (a
/// [`ControllerLog`] guarantees this); disordered input is *tolerated* —
/// counted in [`IngestHealth::events_reordered`] and, when
/// `reorder_slack_us > 0`, re-sequenced through a bounded buffer before
/// assembly. The result is identical to the historical whole-log
/// extraction as long as every event pairing with a flow arrives within
/// the horizon of the flow's last activity; a `FlowMod` or `FlowRemoved`
/// straggling in later than that no longer attaches. Because the
/// horizon is at least the episode gap, eviction can never merge two
/// episodes the batch extractor would split.
///
/// The assembler is the first of the three pieces of streaming state a
/// [`checkpoint`](crate::checkpoint) must capture, so the whole struct
/// — in-flight episodes, xid bookkeeping, the reorder buffer, health
/// counters — serializes; a deserialized assembler continues exactly
/// where the original stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordAssembler {
    episode_gap_us: u64,
    horizon_us: u64,
    /// Events within this much of the newest arrival are re-sequenced
    /// before assembly; `0` disables buffering entirely (zero-cost
    /// passthrough).
    reorder_slack_us: u64,
    /// Events jumping further than this beyond `max_arrival` are
    /// dropped as corrupt clock readings; `0` disables the check.
    max_time_jump_us: u64,
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
    /// Newest *arrival* timestamp (as opposed to `now`, the newest
    /// *processed* timestamp); drives out-of-order detection and the
    /// reorder buffer's release watermark.
    max_arrival: Timestamp,
    /// Held-back events awaiting re-sequencing, keyed by
    /// `(ts, arrival_seq)` so simultaneous events keep arrival order.
    /// Empty whenever `reorder_slack_us == 0`.
    reorder_buf: BTreeMap<(Timestamp, u64), ControlEvent>,
    arrival_seq: u64,
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
    /// New assembler using `config.episode_gap_us`,
    /// `config.partial_flow_timeout_us`, and `config.reorder_slack_us`.
    pub fn new(config: &FlowDiffConfig) -> RecordAssembler {
        RecordAssembler {
            episode_gap_us: config.episode_gap_us,
            horizon_us: config.partial_flow_timeout_us.max(config.episode_gap_us),
            reorder_slack_us: config.reorder_slack_us,
            max_time_jump_us: config.max_time_jump_us,
            seen_mods: HashMap::new(),
            pending_mods: HashMap::new(),
            open: HashMap::new(),
            next_seq: 0,
            completed: Vec::new(),
            now: Timestamp::ZERO,
            last_prune: Timestamp::ZERO,
            max_arrival: Timestamp::ZERO,
            reorder_buf: BTreeMap::new(),
            arrival_seq: 0,
            health: IngestHealth::default(),
            touched: Touched::default(),
        }
    }

    /// Ingestion health counters accumulated so far (event-level only;
    /// callers streaming from wire bytes fold in their
    /// [`LogStream`](netsim::log::LogStream) stats via
    /// [`IngestHealth::absorb_stream`]).
    pub fn health(&self) -> &IngestHealth {
        &self.health
    }

    /// Newest arrival timestamp seen so far (`Timestamp::ZERO` before
    /// the first event) — the assembler's notion of "now" on the
    /// arrival clock, used by restore-time bookkeeping.
    pub fn max_arrival(&self) -> Timestamp {
        self.max_arrival
    }

    /// True when `observe` would drop an event at `ts` as a corrupt
    /// clock reading (see `max_time_jump_us`). Callers that schedule
    /// work off event timestamps — the `OnlineDiffer`'s epoch clock —
    /// consult this *before* trusting the timestamp.
    pub fn quarantines(&self, ts: Timestamp) -> bool {
        self.max_time_jump_us > 0
            && ts
                .checked_since(self.max_arrival)
                .is_some_and(|jump| jump > self.max_time_jump_us)
    }

    /// Feeds one control event in, returning `false` when the event was
    /// quarantined (dropped for an implausible timestamp) instead of
    /// assembled. With `reorder_slack_us == 0` an admitted event goes
    /// straight through the state machine; otherwise it is held in the
    /// reorder buffer until the arrival watermark moves
    /// `reorder_slack_us` past its timestamp, so slightly disordered
    /// input is assembled in time order.
    pub fn observe(&mut self, ev: &ControlEvent) -> bool {
        if self.quarantines(ev.ts) {
            self.health.record(IngestAnomaly::TimeJump);
            return false;
        }
        if ev.ts < self.max_arrival {
            self.health.record(IngestAnomaly::OutOfOrder);
        } else {
            self.max_arrival = ev.ts;
        }
        if self.reorder_slack_us == 0 {
            self.process(ev);
            return true;
        }
        // Even a too-late event goes through the buffer: it is below
        // the release watermark, so it flushes right back out in this
        // call, sequenced as well as possible against its peers.
        self.reorder_buf
            .insert((ev.ts, self.arrival_seq), ev.clone());
        self.arrival_seq += 1;
        let release = Timestamp::from_micros(
            self.max_arrival
                .as_micros()
                .saturating_sub(self.reorder_slack_us),
        );
        while let Some(entry) = self.reorder_buf.first_entry() {
            if entry.key().0 > release {
                break;
            }
            let buffered = entry.remove();
            self.process(&buffered);
        }
        true
    }

    /// Runs one event through the assembly state machine (post
    /// re-sequencing).
    fn process(&mut self, ev: &ControlEvent) {
        if ev.ts > self.now {
            self.now = ev.ts;
        }
        match &ev.msg {
            OfpMessage::PacketIn(pi) => {
                let Ok(key) = frame::parse_frame(&pi.data) else {
                    return; // unparseable capture: skip, never fail
                };
                let tuple = FlowTuple::from_key(&key);
                self.on_packet_in(ev.ts, ev.dpid, ev.xid, pi.in_port, tuple);
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
        if self.now.saturating_since(self.last_prune) > self.horizon_us {
            self.prune();
            self.last_prune = self.now;
        }
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
        (self.open.values().flatten())
            .filter(|ep| ep.record.first_seen >= start)
            .map(|ep| ep.record.clone())
            .collect()
    }

    /// [`open_records_since`](Self::open_records_since) restricted to
    /// the tuples touched since this was last called — every episode of
    /// such a tuple, touched or not, so a caller that replaces what it
    /// holds per `(first_seen, tuple)` key always sees a key's episodes
    /// together. The first call on a fresh or restored assembler returns
    /// every in-window episode and starts the tracking.
    pub fn touched_open_records_since(&mut self, start: Timestamp) -> Vec<FlowRecord> {
        let Some(mut tuples) = self.touched.0.take() else {
            self.touched.0 = Some(Vec::new());
            return self.open_records_since(start);
        };
        let mut out = Vec::new();
        for tuple in tuples.drain(..) {
            // Evicted since, or already handed over for a sibling.
            let Some(episodes) = self.open.get_mut(&tuple) else {
                continue;
            };
            if !episodes.iter().any(|ep| ep.touched.0) {
                continue;
            }
            for ep in episodes {
                ep.touched.0 = false;
                if ep.record.first_seen >= start {
                    out.push(ep.record.clone());
                }
            }
        }
        self.touched.0 = Some(tuples);
        out
    }

    /// Back to "everything counts as touched": the next
    /// [`touched_open_records_since`](Self::touched_open_records_since)
    /// hands over every in-window episode again, for a caller that no
    /// longer holds what earlier calls gave it. The per-episode flags go
    /// too — `Touched::mark` lists an episode only when its flag was
    /// clear, so a flag left set would hide the episode's next change.
    pub fn forget_touched(&mut self) {
        self.touched.0 = None;
        for ep in self.open.values_mut().flatten() {
            ep.touched.0 = false;
        }
    }

    /// Number of in-flight episodes (bounded-memory diagnostics).
    pub fn open_len(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// Number of completed records not yet taken.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Advances the assembler's processed-time clock without feeding an
    /// event, running the same prune check [`observe`](Self::observe)
    /// runs after a non-flow message.
    ///
    /// This is the shard worker's half of the splitter contract: a
    /// [`ShardRouter`] delivers every admitted event to every shard, and
    /// a shard whose state machine doesn't own the event still advances
    /// its clock with it, so each shard prunes on exactly the cadence
    /// the single-shard assembler would. (Eviction timing is load-
    /// bearing: it decides which straggling `FlowMod` replies still
    /// patch their episode, which is visible in the record bytes.)
    pub fn advance_clock(&mut self, ts: Timestamp) {
        if ts > self.now {
            self.now = ts;
        }
        if self.now.saturating_since(self.last_prune) > self.horizon_us {
            self.prune();
            self.last_prune = self.now;
        }
    }

    /// Advances the processed-time clock *without* the prune check —
    /// the exact effect of an unparseable `PacketIn`, whose early
    /// return skips pruning in [`observe`](Self::observe). Shards
    /// mirror that quirk so their prune cadence stays bit-for-bit on
    /// the single-shard schedule.
    pub fn advance_now(&mut self, ts: Timestamp) {
        if ts > self.now {
            self.now = ts;
        }
    }

    /// Drains everything: the reorder buffer is flushed, remaining open
    /// episodes are finalized, and the full record set is returned in
    /// `(first_seen, tuple)` order — exactly the batch extraction order.
    pub fn finish(mut self) -> Vec<FlowRecord> {
        let held: Vec<ControlEvent> = std::mem::take(&mut self.reorder_buf)
            .into_values()
            .collect();
        for ev in &held {
            self.process(ev);
        }
        let mut records = std::mem::take(&mut self.completed);
        records.extend(
            std::mem::take(&mut self.open)
                .into_values()
                .flatten()
                .map(|ep| ep.record),
        );
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        records
    }
}

/// What kind of protocol conversation an event participates in, decided
/// once by the [`ShardRouter`] (which has to parse `PacketIn` payloads
/// to route them anyway) so neither the release-order ledger nor the N
/// shard workers re-parse the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventClass {
    /// A `PacketIn` whose payload parsed into a flow key; owned by the
    /// source host's shard.
    PacketIn,
    /// A `FlowMod`; processed in full by *every* shard so each replica
    /// of the xid table sees the same first-reply-wins outcome.
    FlowMod,
    /// A `FlowRemoved`; owned by the source host's shard (same key as
    /// the `PacketIn`s it closes).
    FlowRemoved,
    /// A `PacketIn` whose payload did not parse; advances every shard's
    /// clock without a prune check, mirroring the single-shard
    /// assembler's early return.
    OpaquePacketIn,
    /// Everything else (echoes, stats replies, ...); owned by the
    /// reporting switch's shard, advances every shard's clock.
    Other,
}

/// One admitted control event, annotated with its owning shard and
/// pre-computed [`EventClass`]. This is what the splitter releases —
/// the persistent pipeline wraps each release into a broadcast step
/// batch for its worker channels — and what a checkpoint's pending
/// chunk holds (a restored chunk is replayed into the fresh worker
/// pool as its first batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedEvent {
    /// Index of the shard that owns this event's state machine work.
    pub shard: u32,
    /// Pre-computed classification (see [`EventClass`]).
    pub class: EventClass,
    /// The event itself.
    pub event: ControlEvent,
}

/// What [`ShardRouter::admit`] did with an event it accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The shard owning the event's state-machine work.
    pub shard: u32,
    /// Where in `released` the event itself landed, when the reorder
    /// buffer let it through at its own arrival — always, with
    /// `reorder_slack_us == 0`. `None` while the buffer holds it back.
    pub released_at: Option<usize>,
}

/// Ledger entry mirroring one [`RecordAssembler`] `SeenMod`: the first
/// `FlowMod` seen for an xid, and whether any `PacketIn` ever paired
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LedgerMod {
    ts: Timestamp,
    used: bool,
}

/// The splitter in front of N shard [`RecordAssembler`]s: admits decoded
/// events, routes each to its owning shard, and keeps the *global*
/// ingest accounting that no single shard can see. It is the single
/// serial stage of the persistent pipeline — everything downstream of
/// its release order is replicated per worker, so admission here can
/// overlap the workers draining their queues.
///
/// The router owns everything arrival-ordered — the time-jump
/// quarantine, the out-of-order count, and the reorder buffer — so the
/// per-shard assemblers run with `reorder_slack_us = 0` and
/// `max_time_jump_us = 0` and consume already-sequenced events. It also
/// runs a release-order **xid ledger**, a faithful mirror of the
/// assembler's `seen_mods`/`pending_mods` lifecycle (same first-wins
/// rule, same prune cadence), because `duplicate_xids` and
/// `orphan_flow_mods` are global-by-xid facts: every shard processes
/// every `FlowMod`, so per-shard counts would multiply duplicates by N
/// and call a mod orphaned on every shard that doesn't own its
/// `PacketIn`s.
///
/// Routing is content-based and computed at arrival: a parseable
/// `PacketIn` belongs to its source host's shard, a `FlowRemoved` to the
/// source host in its match (the same key, so a tuple's episodes and its
/// removal meet on one shard), and everything else to the reporting
/// switch's shard (which keeps a port's stats series whole on one
/// shard). Hosts and switches are interned into the router's own dense
/// [`EntityCatalog`] and sharded by `id % n`, so shard placement is a
/// pure function of the arrival stream.
///
/// The router is part of the sharded pipeline's streaming state: it
/// serializes (catalog as its intern-ordered entity lists, re-interned
/// on decode) and compares by value, so a restored router admits,
/// routes, and counts exactly like the original.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    n_shards: u32,
    reorder_slack_us: u64,
    max_time_jump_us: u64,
    horizon_us: u64,
    /// Host/switch interning for shard placement only (records are
    /// re-interned from scratch at every model build).
    catalog: EntityCatalog,
    max_arrival: Timestamp,
    arrival_seq: u64,
    /// Held-back routed events awaiting re-sequencing; same keying as
    /// the assembler's buffer.
    reorder_buf: BTreeMap<(Timestamp, u64), RoutedEvent>,
    /// xid -> first FlowMod seen (release order); mirror of the
    /// assembler's `seen_mods`.
    ledger_mods: HashMap<Xid, LedgerMod>,
    /// xid -> PacketIn registration times still waiting for their
    /// FlowMod; mirror of `pending_mods` (only the timestamps matter
    /// here — the owning shard patches the actual hops).
    ledger_pending: HashMap<Xid, Vec<Timestamp>>,
    now: Timestamp,
    last_prune: Timestamp,
    /// Splitter-owned health: frame counters, reorders, time jumps, and
    /// the ledger's duplicate/orphan xid counts. Per-shard assemblers
    /// own eviction/removal/stale counts.
    health: IngestHealth,
}

impl ShardRouter {
    /// New router for `n_shards` workers, taking the arrival-side
    /// tolerances (`reorder_slack_us`, `max_time_jump_us`) and the
    /// ledger prune horizon from `config` exactly as
    /// [`RecordAssembler::new`] does.
    pub fn new(config: &FlowDiffConfig, n_shards: usize) -> ShardRouter {
        ShardRouter {
            n_shards: n_shards.max(1) as u32,
            reorder_slack_us: config.reorder_slack_us,
            max_time_jump_us: config.max_time_jump_us,
            horizon_us: config.partial_flow_timeout_us.max(config.episode_gap_us),
            catalog: EntityCatalog::default(),
            max_arrival: Timestamp::ZERO,
            arrival_seq: 0,
            reorder_buf: BTreeMap::new(),
            ledger_mods: HashMap::new(),
            ledger_pending: HashMap::new(),
            now: Timestamp::ZERO,
            last_prune: Timestamp::ZERO,
            health: IngestHealth::default(),
        }
    }

    /// Number of shards this router splits across.
    pub fn n_shards(&self) -> usize {
        self.n_shards as usize
    }

    /// Newest arrival timestamp admitted so far.
    pub fn max_arrival(&self) -> Timestamp {
        self.max_arrival
    }

    /// Splitter-owned health counters (see the struct docs for which
    /// fields are authoritative here vs. summed over shards).
    pub fn health(&self) -> &IngestHealth {
        &self.health
    }

    /// Folds frame-level stream stats into the global health picture.
    pub fn absorb_stream(&mut self, stats: netsim::log::StreamStats) {
        self.health.absorb_stream(stats);
    }

    /// True when [`admit`](Self::admit) would drop an event at `ts` as a
    /// corrupt clock reading — same rule as
    /// [`RecordAssembler::quarantines`].
    pub fn quarantines(&self, ts: Timestamp) -> bool {
        self.max_time_jump_us > 0
            && ts
                .checked_since(self.max_arrival)
                .is_some_and(|jump| jump > self.max_time_jump_us)
    }

    /// Admits one event: quarantine/out-of-order accounting, routing,
    /// then re-sequencing. Events released from the buffer (possibly
    /// including this one) are appended to `released` in assembly
    /// order, each already run through the xid ledger. Returns the
    /// admitted event's owning shard and whether it was released in
    /// this call, or `None` when the event was quarantined (callers
    /// feed arrival-ordered per-shard state — the model builders — off
    /// this return value).
    pub fn admit(
        &mut self,
        ev: &ControlEvent,
        released: &mut Vec<RoutedEvent>,
    ) -> Option<Admitted> {
        if self.quarantines(ev.ts) {
            self.health.record(IngestAnomaly::TimeJump);
            return None;
        }
        if ev.ts < self.max_arrival {
            self.health.record(IngestAnomaly::OutOfOrder);
        } else {
            self.max_arrival = ev.ts;
        }
        let (shard, class) = self.route(ev);
        let routed = RoutedEvent {
            shard,
            class,
            event: ev.clone(),
        };
        if self.reorder_slack_us == 0 {
            self.ledger_process(&routed);
            released.push(routed);
            return Some(Admitted {
                shard,
                released_at: Some(released.len() - 1),
            });
        }
        let own_key = (ev.ts, self.arrival_seq);
        self.reorder_buf.insert(own_key, routed);
        self.arrival_seq += 1;
        let release = Timestamp::from_micros(
            self.max_arrival
                .as_micros()
                .saturating_sub(self.reorder_slack_us),
        );
        let mut released_at = None;
        while let Some(entry) = self.reorder_buf.first_entry() {
            if entry.key().0 > release {
                break;
            }
            if *entry.key() == own_key {
                released_at = Some(released.len());
            }
            let r = entry.remove();
            self.ledger_process(&r);
            released.push(r);
        }
        Some(Admitted { shard, released_at })
    }

    /// Flushes the reorder buffer (end of stream), returning the held
    /// events in release order, ledger-processed — the router half of
    /// [`RecordAssembler::finish`].
    pub fn drain(&mut self) -> Vec<RoutedEvent> {
        let held: Vec<RoutedEvent> = std::mem::take(&mut self.reorder_buf)
            .into_values()
            .collect();
        for r in &held {
            self.ledger_process(r);
        }
        held
    }

    /// Computes `(owning shard, class)` for one event, interning any
    /// new entity it names.
    fn route(&mut self, ev: &ControlEvent) -> (u32, EventClass) {
        let n = self.n_shards as usize;
        match &ev.msg {
            OfpMessage::PacketIn(pi) => match frame::parse_frame(&pi.data) {
                Ok(key) => {
                    let id = self.catalog.intern_host(key.nw_src);
                    (
                        shard_of(ShardKey::of_host(id), n) as u32,
                        EventClass::PacketIn,
                    )
                }
                Err(_) => {
                    let id = self.catalog.intern_switch(ev.dpid);
                    (
                        shard_of(ShardKey::of_switch(id), n) as u32,
                        EventClass::OpaquePacketIn,
                    )
                }
            },
            OfpMessage::FlowMod(_) => {
                let id = self.catalog.intern_switch(ev.dpid);
                (
                    shard_of(ShardKey::of_switch(id), n) as u32,
                    EventClass::FlowMod,
                )
            }
            OfpMessage::FlowRemoved(fr) => {
                let id = self.catalog.intern_host(fr.match_.nw_src);
                (
                    shard_of(ShardKey::of_host(id), n) as u32,
                    EventClass::FlowRemoved,
                )
            }
            _ => {
                let id = self.catalog.intern_switch(ev.dpid);
                (
                    shard_of(ShardKey::of_switch(id), n) as u32,
                    EventClass::Other,
                )
            }
        }
    }

    /// Runs one released event through the xid ledger, keeping its
    /// clock, match rules, and prune cadence in lockstep with what a
    /// single-shard assembler would do for the same release sequence.
    fn ledger_process(&mut self, r: &RoutedEvent) {
        let ts = r.event.ts;
        if ts > self.now {
            self.now = ts;
        }
        match r.class {
            EventClass::PacketIn => match self.ledger_mods.get_mut(&r.event.xid) {
                Some(m) => m.used = true,
                None => self.ledger_pending.entry(r.event.xid).or_default().push(ts),
            },
            EventClass::FlowMod => {
                use std::collections::hash_map::Entry;
                match self.ledger_mods.entry(r.event.xid) {
                    Entry::Vacant(slot) => {
                        let used = self.ledger_pending.remove(&r.event.xid).is_some();
                        slot.insert(LedgerMod { ts, used });
                    }
                    Entry::Occupied(_) => {
                        self.health.record(IngestAnomaly::DuplicateXid);
                    }
                }
            }
            // Mirror the assembler's early return: no prune check.
            EventClass::OpaquePacketIn => return,
            EventClass::FlowRemoved | EventClass::Other => {}
        }
        if self.now.saturating_since(self.last_prune) > self.horizon_us {
            self.ledger_prune();
            self.last_prune = self.now;
        }
    }

    /// Ages out ledger entries on the assembler's schedule, counting
    /// never-used mods as orphans.
    fn ledger_prune(&mut self) {
        let now = self.now;
        let horizon = self.horizon_us;
        let mut orphaned = 0u64;
        self.ledger_mods.retain(|_, m| {
            let keep = now.saturating_since(m.ts) <= horizon;
            if !keep && !m.used {
                orphaned += 1;
            }
            keep
        });
        for _ in 0..orphaned {
            self.health.record(IngestAnomaly::OrphanFlowMod);
        }
        self.ledger_pending.retain(|_, regs| {
            regs.retain(|r| now.saturating_since(*r) <= horizon);
            !regs.is_empty()
        });
    }

    /// Rough heap footprint of the router's own state.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.catalog.approx_bytes()
            + self.reorder_buf.len() * (size_of::<(Timestamp, u64)>() + size_of::<RoutedEvent>())
            + self.ledger_mods.len() * size_of::<(Xid, LedgerMod)>()
            + self
                .ledger_pending
                .values()
                .map(|v| size_of::<Xid>() + v.len() * size_of::<Timestamp>())
                .sum::<usize>()
    }
}

impl PartialEq for ShardRouter {
    fn eq(&self, other: &ShardRouter) -> bool {
        // The catalog has no PartialEq of its own; its intern-ordered
        // entity lists are its full observable state.
        self.n_shards == other.n_shards
            && self.reorder_slack_us == other.reorder_slack_us
            && self.max_time_jump_us == other.max_time_jump_us
            && self.horizon_us == other.horizon_us
            && self.catalog.hosts() == other.catalog.hosts()
            && self.catalog.switches() == other.catalog.switches()
            && self.max_arrival == other.max_arrival
            && self.arrival_seq == other.arrival_seq
            && self.reorder_buf == other.reorder_buf
            && self.ledger_mods == other.ledger_mods
            && self.ledger_pending == other.ledger_pending
            && self.now == other.now
            && self.last_prune == other.last_prune
            && self.health == other.health
    }
}

impl Serialize for ShardRouter {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.n_shards.serialize(out);
        self.reorder_slack_us.serialize(out);
        self.max_time_jump_us.serialize(out);
        self.horizon_us.serialize(out);
        // The catalog round-trips as its intern-ordered entity lists.
        self.catalog.hosts().serialize(out);
        self.catalog.switches().serialize(out);
        self.max_arrival.serialize(out);
        self.arrival_seq.serialize(out);
        self.reorder_buf.serialize(out);
        self.ledger_mods.serialize(out);
        self.ledger_pending.serialize(out);
        self.now.serialize(out);
        self.last_prune.serialize(out);
        self.health.serialize(out);
    }
}

impl Deserialize for ShardRouter {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let n_shards = u32::deserialize(input)?;
        let reorder_slack_us = u64::deserialize(input)?;
        let max_time_jump_us = u64::deserialize(input)?;
        let horizon_us = u64::deserialize(input)?;
        let hosts = Vec::<Ipv4Addr>::deserialize(input)?;
        let switches = Vec::<DatapathId>::deserialize(input)?;
        let mut catalog = EntityCatalog::default();
        for ip in hosts {
            catalog.intern_host(ip);
        }
        for dpid in switches {
            catalog.intern_switch(dpid);
        }
        Ok(ShardRouter {
            n_shards,
            reorder_slack_us,
            max_time_jump_us,
            horizon_us,
            catalog,
            max_arrival: Timestamp::deserialize(input)?,
            arrival_seq: u64::deserialize(input)?,
            reorder_buf: BTreeMap::deserialize(input)?,
            ledger_mods: HashMap::deserialize(input)?,
            ledger_pending: HashMap::deserialize(input)?,
            now: Timestamp::deserialize(input)?,
            last_prune: Timestamp::deserialize(input)?,
            health: IngestHealth::deserialize(input)?,
        })
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
                pi.data.truncate(4);
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
        let sorted = |mut v: Vec<FlowRecord>| {
            v.sort_by_key(|r| (r.first_seen, r.tuple));
            v
        };
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
        let first = asm.touched_open_records_since(Timestamp::ZERO);
        assert_eq!(first.len(), 2);

        // A prune at 70 s evicts the older one only. Nothing touched
        // the younger, but whoever replaces what it holds per tuple
        // must see it again.
        asm.advance_clock(Timestamp::from_secs(70));
        assert_eq!((asm.completed_len(), asm.open_len()), (1, 1));
        let again = asm.touched_open_records_since(Timestamp::ZERO);
        assert_eq!(again, asm.open_records());
        assert!(first.contains(&again[0]), "handed over unchanged");
    }

    #[test]
    fn forgetting_hands_everything_over_again_and_still_lists_later_changes() {
        let log = busy_log();
        let between = |lo: u64, hi: u64| {
            (log.events().iter()).filter(move |ev| {
                Timestamp::from_secs(lo) <= ev.ts && ev.ts < Timestamp::from_secs(hi)
            })
        };
        let mut asm = RecordAssembler::new(&FlowDiffConfig::default());
        for ev in between(0, 10) {
            asm.observe(ev);
        }
        assert_eq!(asm.touched_open_records_since(Timestamp::ZERO).len(), 1);
        // The 16 s flow opens while tracking is live: listed, flag set.
        for ev in between(10, 20) {
            asm.observe(ev);
        }

        // The caller lost what it held (a full resync): everything again.
        asm.forget_touched();
        let all = asm.touched_open_records_since(Timestamp::ZERO);
        assert_eq!(all.len(), 2);
        assert!(asm.touched_open_records_since(Timestamp::ZERO).is_empty());

        // The 16 s flow's FlowRemoved lands afterwards. A flag left set
        // across the forget would keep it off the list.
        for ev in between(20, 25) {
            asm.observe(ev);
        }
        let changed = asm.touched_open_records_since(Timestamp::ZERO);
        assert_eq!(changed.len(), 1, "the 16 s flow, counters attached");
        assert_eq!(changed[0].first_seen.as_micros() / 1_000_000, 16);
        assert_eq!(changed[0].byte_count, 3_000);
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
        let mut asm = RecordAssembler::new(&guarded);
        for (i, ev) in log.events().iter().enumerate() {
            assert!(asm.observe(ev), "clean events must be admitted");
            if i == 0 {
                assert!(asm.quarantines(corrupt.ts));
                assert!(!asm.observe(&corrupt), "insane jump must be dropped");
            }
        }
        assert_eq!(asm.health().time_jumps, 1);
        assert_eq!(
            asm.health().events_reordered,
            0,
            "a dropped jump must not poison the arrival watermark"
        );
        let mut streamed = asm.finish();
        streamed.sort_by_key(|r| (r.first_seen, r.tuple));
        assert_eq!(streamed, batch, "records unaffected by the dropped event");

        // Disabled (the default), the same event is admitted.
        let mut unguarded = RecordAssembler::new(&FlowDiffConfig::default());
        assert!(!unguarded.quarantines(corrupt.ts));
        assert!(unguarded.observe(&corrupt));
        assert_eq!(unguarded.health().time_jumps, 0);
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

    /// A capture with several flows, used by the router tests.
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

    #[test]
    fn router_classifies_and_routes_deterministically() {
        let log = busy_log();
        let config = FlowDiffConfig::default();
        let mut a = ShardRouter::new(&config, 3);
        let mut b = ShardRouter::new(&config, 3);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for ev in log.events() {
            assert!(a.admit(ev, &mut out_a).is_some());
            assert!(b.admit(ev, &mut out_b).is_some());
        }
        out_a.extend(a.drain());
        out_b.extend(b.drain());
        assert_eq!(out_a, out_b, "routing is a pure function of the stream");
        assert_eq!(out_a.len(), log.events().len());
        assert!(out_a.iter().all(|r| (r.shard as usize) < 3));
        // PacketIns of one tuple and its FlowRemoved land on one shard.
        use std::collections::HashMap as Map;
        let mut flow_shards: Map<Ipv4Addr, std::collections::BTreeSet<u32>> = Map::new();
        for r in &out_a {
            match (&r.class, &r.event.msg) {
                (EventClass::PacketIn, OfpMessage::PacketIn(pi)) => {
                    let k = frame::parse_frame(&pi.data).unwrap();
                    flow_shards.entry(k.nw_src).or_default().insert(r.shard);
                }
                (EventClass::FlowRemoved, OfpMessage::FlowRemoved(fr)) => {
                    flow_shards
                        .entry(fr.match_.nw_src)
                        .or_default()
                        .insert(r.shard);
                }
                _ => {}
            }
        }
        assert!(!flow_shards.is_empty());
        assert!(
            flow_shards.values().all(|shards| shards.len() == 1),
            "a flow's episodes and removals must meet on one shard"
        );
    }

    #[test]
    fn router_ledger_matches_single_assembler_xid_accounting() {
        let log = busy_log();
        // Exercise the reorder buffer too.
        let config = FlowDiffConfig {
            reorder_slack_us: 50_000,
            ..FlowDiffConfig::default()
        };
        let mut asm = RecordAssembler::new(&config);
        let mut router = ShardRouter::new(&config, 4);
        let mut released = Vec::new();
        for ev in log.events() {
            asm.observe(ev);
            router.admit(ev, &mut released);
        }
        // Both sides have processed the identical released prefix (same
        // watermark rule), so the splitter-owned counters must agree.
        let ah = *asm.health();
        let rh = router.health();
        assert_eq!(rh.events_reordered, ah.events_reordered);
        assert_eq!(rh.duplicate_xids, ah.duplicate_xids);
        assert_eq!(rh.orphan_flow_mods, ah.orphan_flow_mods);
        assert_eq!(rh.time_jumps, ah.time_jumps);
        let n_events = log.events().len();
        released.extend(router.drain());
        assert_eq!(released.len(), n_events, "drain flushes the buffer");
    }

    #[test]
    fn router_quarantines_and_serializes_midstream() {
        let log = busy_log();
        let config = FlowDiffConfig {
            max_time_jump_us: 60_000_000,
            reorder_slack_us: 10_000,
            ..FlowDiffConfig::default()
        };
        let mut router = ShardRouter::new(&config, 2);
        let mut released = Vec::new();
        for (i, ev) in log.events().iter().enumerate() {
            assert!(router.admit(ev, &mut released).is_some());
            if i == 3 {
                let mut corrupt = ev.clone();
                corrupt.ts = Timestamp::from_micros(corrupt.ts.as_micros() + (1 << 50));
                assert!(router.quarantines(corrupt.ts));
                assert!(router.admit(&corrupt, &mut released).is_none());
            }
            if i == 5 {
                // Mid-stream, buffer non-empty: must round-trip.
                let bytes = serde::to_vec(&router);
                let back: ShardRouter = serde::from_slice(&bytes).unwrap();
                assert_eq!(back, router);
            }
        }
        assert_eq!(router.health().time_jumps, 1);
    }
}
