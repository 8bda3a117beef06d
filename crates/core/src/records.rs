//! Flow record extraction from the controller log.
//!
//! FlowDiff's signatures are built not from raw control messages but from
//! *flow records*: one record per flow episode, collecting the flow's
//! 5-tuple, the time-ordered `PacketIn` reports from every switch on its
//! path, the `FlowMod` replies, and the final counters from
//! `FlowRemoved`.

use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap, HashMap};
use std::fmt;

use netsim::log::{ControllerLog, EventBody, FlowEvent};
use openflow::messages::duration_secs_f64;
use openflow::types::{DatapathId, PortNo, Timestamp, Xid};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::derived::Derived;

/// The flow 5-tuple, defined beside the event that carries it.
pub use netsim::log::FlowTuple;

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
    /// Never counted: a hop waits for its `FlowMod` no longer than its
    /// episode stays open. The field keeps the checkpoint layout and the
    /// `stats: ingest` line.
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
/// fed through the streaming state machine one event at a time, each
/// converted to a [`FlowEvent`] as a live feed converts it. The batch
/// and streaming paths are one implementation.
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
    /// the episode they belong to even after its slot is reused.
    seq: u64,
    record: FlowRecord,
    /// Latest event timestamp that touched this episode (hop, `FlowMod`
    /// patch, or `FlowRemoved`); drives idle eviction.
    last_activity: Timestamp,
    /// Set while the episode's slot sits in the assembler's `touched`
    /// list.
    touched: Derived<bool>,
}

/// An open episode's place in the [`Episodes`] slab.
type Slot = u32;

/// A hop still waiting for its `FlowMod` reply, as a checkpoint writes
/// it: its episode's tuple and `seq`, its index there, and its arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PendingHop {
    tuple: FlowTuple,
    seq: u64,
    hop_idx: usize,
    registered: Timestamp,
}

/// A hop still waiting for its `FlowMod` reply: where it sits. Its
/// episode stays open while it waits, since the hop falls idle past the
/// horizon no later than the episode does (the episode's last activity
/// is at or after the hop) and one prune drops both, so the slot always
/// holds it, and what a [`PendingHop`] records is read off the episode.
#[derive(Debug, Clone, Copy)]
struct WaitingHop {
    slot: Slot,
    hop_idx: u32,
}

/// What the assembler knows of one xid: the first `FlowMod` seen for it,
/// or the hops waiting for that `FlowMod`. Never both: a `PacketIn` that
/// finds its xid's mod takes the mod's fields at once, and a mod that
/// finds hops waiting patches them and takes their place. At 16 bytes
/// it is no larger than a [`SeenMod`].
#[derive(Debug, Clone)]
enum XidState {
    Seen(SeenMod),
    /// One hop waiting, the common case: held without an allocation.
    Waiting(WaitingHop),
    /// Two or more hops waiting, in arrival order. Boxed so that the
    /// rare case does not widen every entry.
    #[allow(clippy::box_collection)]
    WaitingMany(Box<Vec<WaitingHop>>),
}

impl XidState {
    /// The hops waiting, in arrival order; none once the mod was seen.
    fn waiting(&self) -> &[WaitingHop] {
        match self {
            XidState::Seen(_) => &[],
            XidState::Waiting(hop) => std::slice::from_ref(hop),
            XidState::WaitingMany(hops) => hops,
        }
    }

    /// Adds a waiting hop. Only hops wait: a seen mod takes none.
    fn wait(&mut self, hop: WaitingHop) {
        match self {
            XidState::Waiting(first) => *self = XidState::WaitingMany(Box::new(vec![*first, hop])),
            XidState::WaitingMany(hops) => hops.push(hop),
            XidState::Seen(_) => unreachable!("a PacketIn that finds its FlowMod does not wait"),
        }
    }
}

/// The slots of the open episodes that changed — a hop, a `FlowMod`
/// patch, a `FlowRemoved`, or the eviction of a sibling episode — since
/// [`RecordAssembler::touched_open_records_since`] last asked, one
/// entry per episode (its `touched` flag dedups). `None` means
/// "everything": nobody has asked yet (a fresh or restored assembler), so
/// nothing is tracked and the list cannot grow.
type Touched = Derived<Option<Vec<Slot>>>;

impl Touched {
    fn mark(&mut self, slot: Slot, episode: &mut OpenEpisode) {
        if let Some(slots) = &mut self.0 {
            if !std::mem::replace(&mut episode.touched.0, true) {
                slots.push(slot);
            }
        }
    }
}

/// The open episodes, in one slab addressed by [`Slot`]. An eviction's
/// slot goes on a free list for the next new episode. The tuple index
/// holds each tuple's newest episode; a tuple has older ones only when
/// it reopened after the episode gap while they were still open, and
/// they chain through their slots. No tuple owns an allocation of its
/// own, and a slot reaches its episode without hashing the tuple.
///
/// A checkpoint carries the store as it always has, tuple → episodes
/// (oldest first) in key order: slots are never written, so equality
/// compares content and a restored store may lay its slots out afresh.
#[derive(Debug, Clone, Default)]
struct Episodes {
    slots: Vec<Option<Linked>>,
    free: Vec<Slot>,
    newest: HashMap<FlowTuple, Slot>,
}

/// An episode in its slot, linked to its tuple's next older and newer
/// open episodes.
#[derive(Debug, Clone)]
struct Linked {
    ep: OpenEpisode,
    older: Option<Slot>,
    newer: Option<Slot>,
}

impl std::ops::Index<Slot> for Episodes {
    type Output = Linked;

    fn index(&self, slot: Slot) -> &Linked {
        self.slots[slot as usize].as_ref().expect("slot is open")
    }
}

impl std::ops::IndexMut<Slot> for Episodes {
    fn index_mut(&mut self, slot: Slot) -> &mut Linked {
        self.slots[slot as usize].as_mut().expect("slot is open")
    }
}

impl Episodes {
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn get(&self, slot: Slot) -> Option<&Linked> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Adds `hop` to `tuple`'s newest episode, or opens episode
    /// `next_seq` with it when the hop comes more than `gap_us` after
    /// that episode's last hop (or the tuple has none open).
    fn add_hop(
        &mut self,
        tuple: FlowTuple,
        hop: HopReport,
        gap_us: u64,
        next_seq: &mut u64,
    ) -> (Slot, &mut OpenEpisode) {
        let newest = self.newest.entry(tuple);
        let older = match &newest {
            Entry::Occupied(slot) => Some(*slot.get()),
            Entry::Vacant(_) => None,
        };
        if let Some(slot) = older {
            let ep = &mut self.slots[slot as usize].as_mut().expect("slot is open").ep;
            let last_ts = ep.record.hops.last().map_or(ep.record.first_seen, |h| h.ts);
            if hop.ts.saturating_since(last_ts) <= gap_us {
                ep.record.hops.push(hop);
                if hop.ts > ep.last_activity {
                    ep.last_activity = hop.ts;
                }
                return (slot, &mut self[slot].ep);
            }
        }
        let linked = Linked {
            ep: OpenEpisode {
                seq: *next_seq,
                record: FlowRecord {
                    tuple,
                    first_seen: hop.ts,
                    hops: vec![hop],
                    byte_count: 0,
                    packet_count: 0,
                    duration_s: 0.0,
                },
                last_activity: hop.ts,
                touched: Derived(false),
            },
            older,
            newer: None,
        };
        *next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(linked);
                slot
            }
            None => {
                self.slots.push(Some(linked));
                (self.slots.len() - 1) as Slot
            }
        };
        match newest {
            Entry::Occupied(mut newest) => {
                let older = newest.insert(slot);
                self.slots[older as usize]
                    .as_mut()
                    .expect("slot is open")
                    .newer = Some(slot);
            }
            Entry::Vacant(newest) => {
                newest.insert(slot);
            }
        }
        (slot, &mut self[slot].ep)
    }

    /// When the hop `at` arrived.
    fn hop_ts(&self, at: WaitingHop) -> Timestamp {
        self[at.slot].ep.record.hops[at.hop_idx as usize].ts
    }

    /// Takes the episode in `slot` out of the slab and out of its
    /// tuple's chain.
    fn remove(&mut self, slot: Slot) -> OpenEpisode {
        let Linked { ep, older, newer } = self.slots[slot as usize].take().expect("slot is open");
        self.free.push(slot);
        if let Some(older) = older {
            self[older].newer = newer;
        }
        match (newer, older) {
            (Some(newer), _) => self[newer].older = older,
            (None, Some(older)) => {
                self.newest.insert(ep.record.tuple, older);
            }
            (None, None) => {
                self.newest.remove(&ep.record.tuple);
            }
        }
        ep
    }

    /// `slot` and the older episodes of its tuple, newest first.
    fn newest_first(&self, slot: Slot) -> impl Iterator<Item = Slot> + Clone + '_ {
        std::iter::successors(Some(slot), |&s| self[s].older)
    }

    /// The oldest open episode of the tuple whose episode `slot` holds.
    fn oldest(&self, slot: Slot) -> Slot {
        self.newest_first(slot).last().unwrap_or(slot)
    }

    /// `slot`'s tuple's open episodes, oldest first.
    fn oldest_first(&self, slot: Slot) -> impl Iterator<Item = Slot> + Clone + '_ {
        std::iter::successors(Some(self.oldest(slot)), |&s| self[s].newer)
    }

    /// Every open slot, walked tuple by tuple, each tuple oldest first.
    fn in_order(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.slots.len() as Slot)
            .filter(|&s| self.get(s).is_some_and(|linked| linked.older.is_none()))
            .flat_map(|oldest| std::iter::successors(Some(oldest), |&s| self[s].newer))
    }

    /// The slot of `tuple`'s open episode `seq`.
    fn find(&self, tuple: &FlowTuple, seq: u64) -> Option<Slot> {
        let newest = *self.newest.get(tuple)?;
        self.newest_first(newest).find(|&s| self[s].ep.seq == seq)
    }

    /// The records in [`in_order`](Self::in_order), moved out.
    fn into_records(mut self) -> impl Iterator<Item = FlowRecord> {
        let order: Vec<Slot> = self.in_order().collect();
        (order.into_iter()).map(move |s| {
            self.slots[s as usize]
                .take()
                .expect("slot is open")
                .ep
                .record
        })
    }
}

impl PartialEq for Episodes {
    fn eq(&self, other: &Episodes) -> bool {
        self.newest.len() == other.newest.len()
            && self.newest.iter().all(|(tuple, &mine)| {
                (other.newest.get(tuple)).is_some_and(|&theirs| {
                    let mine = self.newest_first(mine).map(|s| &self[s].ep);
                    mine.eq(other.newest_first(theirs).map(|s| &other[s].ep))
                })
            })
    }
}

impl Serialize for Episodes {
    fn serialize(&self, out: &mut Vec<u8>) {
        serde::serialize_by_key(
            self.newest.len(),
            self.newest.iter(),
            out,
            |&newest, out| {
                let chain = self.oldest_first(newest);
                (chain.clone().count() as u64).serialize(out);
                for slot in chain {
                    self[slot].ep.serialize(out);
                }
            },
        );
    }
}

impl Deserialize for Episodes {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let mut store = Episodes::default();
        for _ in 0..u64::deserialize(input)? {
            let tuple = FlowTuple::deserialize(input)?;
            let mut older = None;
            for _ in 0..u64::deserialize(input)? {
                let ep = OpenEpisode::deserialize(input)?;
                if ep.record.tuple != tuple {
                    return Err(serde::Error::custom(
                        "an open episode is listed under another tuple",
                    ));
                }
                let slot = store.slots.len() as Slot;
                if let Some(older) = older {
                    store[older].newer = Some(slot);
                }
                store.slots.push(Some(Linked {
                    ep,
                    older,
                    newer: None,
                }));
                older = Some(slot);
            }
            if let Some(newest) = older {
                if store.newest.insert(tuple, newest).is_some() {
                    return Err(serde::Error::custom("open episodes list a tuple twice"));
                }
            }
        }
        Ok(store)
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
///   accumulating; an evicted episode is *emitted* into the completed
///   set, unless it was first seen before the caller's floor
///   ([`set_floor`](Self::set_floor)),
/// - **seen `FlowMod`s** — xid → (send ts, installed output port),
///   first reply wins, consulted by `PacketIn`s arriving after the mod,
/// - **pending hops** — hops whose `FlowMod` has not arrived yet,
///   patched in place when it does.
///
/// The last two share one xid table, so a `PacketIn` and a `FlowMod`
/// each look their xid up once.
///
/// The floor is the online differ's window start. An episode evicted
/// while first seen before it is dropped, not emitted: the window it
/// would join has already slid past its `first_seen`, and window starts
/// only advance, so the next retirement would drop it unread and no
/// snapshot can tell. It still frees its slot and counts as evicted.
/// Only a checkpoint can see the difference: one written before that
/// retirement would have carried the record. Batch callers set no
/// floor (it is zero), so they keep every flow.
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
#[derive(Debug, Clone)]
pub struct RecordAssembler {
    episode_gap_us: u64,
    horizon_us: u64,
    /// xid -> the first FlowMod seen for it, or the hops waiting for it.
    xids: HashMap<Xid, XidState>,
    /// Open episodes. Every consumer of whole-state iteration
    /// (`finish`, the snapshot path) sorts by `(first_seen, tuple)`
    /// afterwards, so slot order never reaches an output; a tuple's
    /// episodes keep theirs, oldest first.
    open: Episodes,
    next_seq: u64,
    completed: Vec<FlowRecord>,
    now: Timestamp,
    last_prune: Timestamp,
    health: IngestHealth,
    /// Which open episodes the online differ's maintained window has not
    /// seen the current version of.
    touched: Touched,
    /// Evicted episodes first seen before this are dropped, not
    /// completed. Not in a checkpoint: the restore derives it again.
    floor: Derived<Timestamp>,
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

/// A checkpoint writes the xid table as the two maps it replaced, each
/// in key order: xid → seen mod, then xid → waiting hops.
impl Serialize for RecordAssembler {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.episode_gap_us.serialize(out);
        self.horizon_us.serialize(out);
        let seen = (self.xids.iter()).filter_map(|(xid, state)| match state {
            XidState::Seen(sm) => Some((xid, sm)),
            _ => None,
        });
        serde::serialize_by_key(seen.clone().count(), seen, out, |sm, out| sm.serialize(out));
        let waiting = (self.xids.iter())
            .map(|(xid, state)| (xid, state.waiting()))
            .filter(|(_, hops)| !hops.is_empty());
        serde::serialize_by_key(waiting.clone().count(), waiting, out, |hops, out| {
            (hops.len() as u64).serialize(out);
            for &hop in hops {
                self.pending(hop).serialize(out);
            }
        });
        self.open.serialize(out);
        self.next_seq.serialize(out);
        self.completed.serialize(out);
        self.now.serialize(out);
        self.last_prune.serialize(out);
        self.health.serialize(out);
    }
}

impl Deserialize for RecordAssembler {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let episode_gap_us = Deserialize::deserialize(input)?;
        let horizon_us = Deserialize::deserialize(input)?;
        let seen: HashMap<Xid, SeenMod> = Deserialize::deserialize(input)?;
        let pending: HashMap<Xid, Vec<PendingHop>> = Deserialize::deserialize(input)?;
        let open: Episodes = Deserialize::deserialize(input)?;
        // Slots are never written: each waiting hop finds its episode's
        // again. Its episode is open while it waits, so one that finds no
        // such hop there marks a corrupt checkpoint.
        let mut xids: HashMap<Xid, XidState> = (seen.into_iter())
            .map(|(xid, sm)| (xid, XidState::Seen(sm)))
            .collect();
        for (xid, hops) in pending {
            let mut state: Option<XidState> = None;
            for p in hops {
                let slot = (open.find(&p.tuple, p.seq))
                    .filter(|&slot| {
                        (open[slot].ep.record.hops.get(p.hop_idx))
                            .is_some_and(|hop| hop.xid == xid && hop.ts == p.registered)
                    })
                    .ok_or_else(|| serde::Error::custom("a waiting hop is not in its episode"))?;
                let hop = WaitingHop {
                    slot,
                    hop_idx: u32::try_from(p.hop_idx).expect("a hop index the episode holds"),
                };
                match &mut state {
                    None => state = Some(XidState::Waiting(hop)),
                    Some(state) => state.wait(hop),
                }
            }
            let state = state.ok_or_else(|| serde::Error::custom("an xid waits with no hops"))?;
            if xids.insert(xid, state).is_some() {
                return Err(serde::Error::custom("an xid is both seen and waiting"));
            }
        }
        Ok(RecordAssembler {
            episode_gap_us,
            horizon_us,
            xids,
            open,
            next_seq: Deserialize::deserialize(input)?,
            completed: Deserialize::deserialize(input)?,
            now: Deserialize::deserialize(input)?,
            last_prune: Deserialize::deserialize(input)?,
            health: Deserialize::deserialize(input)?,
            touched: Touched::default(),
            floor: Derived(Timestamp::ZERO),
        })
    }
}

/// Equal when a checkpoint of each would be: slots are not compared, so
/// a restored assembler equals the one whose checkpoint it read.
impl PartialEq for RecordAssembler {
    fn eq(&self, other: &RecordAssembler) -> bool {
        let same_xid = |xid: &Xid, mine: &XidState| {
            (other.xids.get(xid)).is_some_and(|theirs| match (mine, theirs) {
                (XidState::Seen(a), XidState::Seen(b)) => a == b,
                _ => (mine.waiting().iter().map(|&h| self.pending(h)))
                    .eq(theirs.waiting().iter().map(|&h| other.pending(h))),
            })
        };
        self.episode_gap_us == other.episode_gap_us
            && self.horizon_us == other.horizon_us
            && self.xids.len() == other.xids.len()
            && self.xids.iter().all(|(xid, mine)| same_xid(xid, mine))
            && self.open == other.open
            && self.next_seq == other.next_seq
            && self.completed == other.completed
            && self.now == other.now
            && self.last_prune == other.last_prune
            && self.health == other.health
    }
}

impl RecordAssembler {
    /// New assembler using `config.episode_gap_us` and
    /// `config.partial_flow_timeout_us`.
    pub fn new(config: &FlowDiffConfig) -> RecordAssembler {
        RecordAssembler {
            episode_gap_us: config.episode_gap_us,
            horizon_us: config.partial_flow_timeout_us.max(config.episode_gap_us),
            xids: HashMap::new(),
            open: Episodes::default(),
            next_seq: 0,
            completed: Vec::new(),
            now: Timestamp::ZERO,
            last_prune: Timestamp::ZERO,
            health: IngestHealth::default(),
            touched: Touched::default(),
            floor: Derived(Timestamp::ZERO),
        }
    }

    /// Drops, from now on, every evicted episode first seen before
    /// `floor` instead of completing it, and leaves such episodes out of
    /// [`finish`](Self::finish). The online differ sets its window start
    /// here at each boundary; a floor never moves back.
    pub fn set_floor(&mut self, floor: Timestamp) {
        self.floor.0 = floor;
    }

    /// The protocol-conversation counters accumulated so far (duplicate
    /// xids, orphans, stale attaches, evictions); the arrival counters
    /// live in the [`Sequencer`], and callers streaming from wire bytes
    /// fold in their [`LogStream`](netsim::log::LogStream) stats via
    /// [`IngestHealth::absorb_stream`].
    pub fn health(&self) -> &IngestHealth {
        &self.health
    }

    /// Runs one control event through the assembly state machine. A
    /// `PacketIn` whose payload did not parse is skipped, never fatal;
    /// like every other event it still advances the clock, with the
    /// prune check.
    pub fn observe(&mut self, ev: impl Into<FlowEvent>) {
        let ev = ev.into();
        match ev.body {
            EventBody::PacketIn {
                in_port,
                tuple: Some(tuple),
            } => self.on_packet_in(ev.ts, ev.dpid, ev.xid, in_port, tuple),
            EventBody::FlowMod { out_port } => self.on_flow_mod(ev.ts, ev.xid, out_port),
            EventBody::FlowRemoved {
                tuple,
                byte_count,
                packet_count,
                duration_sec,
                duration_nsec,
            } => self.on_flow_removed(
                ev.ts,
                tuple,
                byte_count,
                packet_count,
                duration_secs_f64(duration_sec, duration_nsec),
            ),
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
        let mut state = self.xids.entry(xid);
        let seen = match &mut state {
            Entry::Occupied(state) => match state.get_mut() {
                XidState::Seen(sm) => {
                    sm.used = true;
                    Some(*sm)
                }
                _ => None,
            },
            Entry::Vacant(_) => None,
        };
        let hop = HopReport {
            ts,
            dpid,
            in_port,
            xid,
            flow_mod_ts: seen.map(|sm| sm.ts),
            out_port: seen.and_then(|sm| sm.out),
        };
        let (slot, ep) = (self.open).add_hop(tuple, hop, self.episode_gap_us, &mut self.next_seq);
        let hop_idx = u32::try_from(ep.record.hops.len() - 1).expect("fewer than 2^32 hops");
        self.touched.mark(slot, ep);
        if seen.is_none() {
            let hop = WaitingHop { slot, hop_idx };
            match state {
                Entry::Occupied(mut state) => state.get_mut().wait(hop),
                Entry::Vacant(state) => {
                    state.insert(XidState::Waiting(hop));
                }
            }
        }
    }

    fn on_flow_mod(&mut self, ts: Timestamp, xid: Xid, out: Option<PortNo>) {
        let seen = |used| XidState::Seen(SeenMod { ts, out, used });
        let waiting = match self.xids.entry(xid) {
            Entry::Vacant(state) => {
                state.insert(seen(false));
                return;
            }
            // First FlowMod per xid wins, matching the batch pre-scan.
            Entry::Occupied(state) if matches!(state.get(), XidState::Seen(_)) => {
                self.health.record(IngestAnomaly::DuplicateXid);
                return;
            }
            // The xid matched real hops: this mod is not an orphan.
            Entry::Occupied(mut state) => std::mem::replace(state.get_mut(), seen(true)),
        };
        for &WaitingHop { slot, hop_idx } in waiting.waiting() {
            let ep = &mut self.open[slot].ep;
            let hop = &mut ep.record.hops[hop_idx as usize];
            hop.flow_mod_ts = Some(ts);
            hop.out_port = out;
            if ts > ep.last_activity {
                ep.last_activity = ts;
            }
            self.touched.mark(slot, ep);
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
        let open = &self.open;
        let Some(slot) = (open.newest.get(&tuple)).and_then(|&newest| {
            open.newest_first(newest)
                .find(|&s| open[s].ep.record.first_seen <= ts)
        }) else {
            self.health.record(IngestAnomaly::OrphanFlowRemoved);
            return;
        };
        let ep = &mut self.open[slot].ep;
        ep.record.byte_count = ep.record.byte_count.max(byte_count);
        ep.record.packet_count = ep.record.packet_count.max(packet_count);
        ep.record.duration_s = ep.record.duration_s.max(duration_s);
        if ts > ep.last_activity {
            ep.last_activity = ts;
        }
        self.touched.mark(slot, ep);
    }

    /// Evicts state idle past the horizon. Idle episodes are *emitted*
    /// into the completed set, those first seen before the floor
    /// dropped; stale xid bookkeeping is dropped.
    fn prune(&mut self) {
        let now = self.now;
        let horizon = self.horizon_us;
        // The xids first: a waiting hop's arrival is read off its
        // episode, which may be evicted below (the hop with it).
        let open = &self.open;
        let fresh = |hop: &WaitingHop| now.saturating_since(open.hop_ts(*hop)) <= horizon;
        let mut orphaned = 0u64;
        self.xids.retain(|_, state| match state {
            XidState::Seen(sm) => {
                let keep = now.saturating_since(sm.ts) <= horizon;
                if !keep && !sm.used {
                    orphaned += 1;
                }
                keep
            }
            XidState::Waiting(hop) => fresh(hop),
            XidState::WaitingMany(hops) => {
                hops.retain(fresh);
                if let [hop] = hops[..] {
                    *state = XidState::Waiting(hop);
                }
                !state.waiting().is_empty()
            }
        });
        for _ in 0..orphaned {
            self.health.record(IngestAnomaly::OrphanFlowMod);
        }
        let mut evictions = 0;
        // Tuple by tuple from each oldest episode, so a tuple's evictions
        // complete in the order its episodes opened.
        for oldest in 0..self.open.slots.len() as Slot {
            if (self.open.get(oldest)).is_none_or(|linked| linked.older.is_some()) {
                continue;
            }
            let (mut evicted, mut survivor) = (false, None);
            let mut next = Some(oldest);
            while let Some(slot) = next {
                let linked = &self.open[slot];
                next = linked.newer;
                if now.saturating_since(linked.ep.last_activity) > horizon {
                    let record = self.open.remove(slot).record;
                    if record.first_seen >= self.floor.0 {
                        self.completed.push(record);
                    }
                    evictions += 1;
                    evicted = true;
                } else if survivor.is_none() {
                    survivor = Some(slot);
                }
            }
            // A surviving sibling may share the evicted episode's window
            // key; the maintained window re-reads it to keep their order.
            if let (true, Some(sibling)) = (evicted, survivor) {
                self.touched.mark(sibling, &mut self.open[sibling].ep);
            }
        }
        self.health.episodes_evicted += evictions;
    }

    /// A waiting hop as a checkpoint writes it.
    fn pending(&self, hop: WaitingHop) -> PendingHop {
        let ep = &self.open[hop.slot].ep;
        let hop_idx = hop.hop_idx as usize;
        PendingHop {
            tuple: ep.record.tuple,
            seq: ep.seq,
            hop_idx,
            registered: ep.record.hops[hop_idx].ts,
        }
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
        (self.open.in_order())
            .map(|slot| &self.open[slot].ep.record)
            .filter(move |record| record.first_seen >= start)
    }

    /// [`open_records_since`](Self::open_records_since) restricted to
    /// the tuples touched since this was last called — every episode of
    /// such a tuple, touched or not, so a caller that replaces what it
    /// holds per `(first_seen, tuple)` key always sees a key's episodes
    /// together. The first call on a fresh or restored assembler returns
    /// every in-window episode and starts the tracking. The records are
    /// lent, not cloned, and reached by slot: no tuple is hashed.
    pub fn touched_open_records_since(&mut self, start: Timestamp) -> Vec<&FlowRecord> {
        let Some(mut slots) = self.touched.0.take() else {
            self.touched.0 = Some(Vec::new());
            return self.open_since(start).collect();
        };
        // Each touched tuple once, by its oldest episode's slot. A slot
        // vacated since (and maybe reused), or whose tuple went over
        // with a sibling, no longer holds a flagged episode.
        let open = &mut self.open;
        slots.retain_mut(|slot| {
            if !(open.get(*slot)).is_some_and(|linked| linked.ep.touched.0) {
                return false;
            }
            let oldest = open.oldest(*slot);
            let mut next = Some(oldest);
            while let Some(s) = next {
                open[s].ep.touched.0 = false;
                next = open[s].newer;
            }
            *slot = oldest;
            true
        });
        let open = &self.open;
        let out = (slots.iter())
            .flat_map(|&oldest| open.oldest_first(oldest))
            .map(|s| &open[s].ep.record)
            .filter(|record| record.first_seen >= start)
            .collect();
        slots.clear();
        self.touched.0 = Some(slots);
        out
    }

    /// Number of in-flight episodes (bounded-memory diagnostics).
    pub fn open_len(&self) -> usize {
        self.open.len()
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
        let mut records = self.finish_unsorted();
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        records
    }

    /// [`finish`](Self::finish) without the sort, for a caller that
    /// orders the records itself: the completed ones, then the open
    /// ones, and of both only those first seen at or after the floor.
    pub fn finish_unsorted(self) -> Vec<FlowRecord> {
        let floor = self.floor.0;
        let kept = move |r: &FlowRecord| r.first_seen >= floor;
        let mut records = self.completed;
        records.retain(kept);
        records.extend(self.open.into_records().filter(kept));
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
///   held and each event is handed straight through.
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
    held: BTreeMap<(Timestamp, u64), FlowEvent>,
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
    /// now lets through, to `out` in assembly order. At slack 0 that is
    /// `ev` alone. Otherwise even a too-late `ev` goes through the
    /// buffer: it is below the watermark, so it comes right back out,
    /// sequenced against its peers.
    pub fn release(&mut self, ev: FlowEvent, mut out: impl FnMut(FlowEvent)) {
        if self.reorder_slack_us == 0 {
            return out(ev);
        }
        self.held.insert((ev.ts, self.arrival_seq), ev);
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
            out(entry.remove());
        }
    }

    /// End of stream: every held event, in assembly order.
    pub fn drain(&mut self) -> btree_map::IntoValues<(Timestamp, u64), FlowEvent> {
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
    use std::net::Ipv4Addr;

    use netsim::config::Deployment;
    use netsim::engine::Simulation;
    use netsim::flows::FlowSpec;
    use netsim::log::ControlEvent;
    use netsim::topology::Topology;
    use openflow::frame;
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
    fn short_horizon_reopens_evictions_and_restores_are_unobservable() {
        use openflow::actions::Action;
        use openflow::match_fields::OfMatch;
        use openflow::messages::{
            FlowMod, FlowRemoved, FlowRemovedReason, PacketIn, PacketInReason,
        };
        use openflow::types::{BufferId, Cookie};

        // Tuples by source port; every timestamp in milliseconds.
        enum Ev {
            In(u16, u32),
            Mod(u32),
            Removed(u16, u64),
        }
        let event = |ms: u64, ev: Ev| {
            let (xid, msg) = match ev {
                Ev::In(sport, xid) => (
                    xid,
                    OfpMessage::PacketIn(PacketIn {
                        buffer_id: BufferId::NO_BUFFER,
                        total_len: 128,
                        in_port: PortNo(1),
                        reason: PacketInReason::NoMatch,
                        data: frame::build_frame(&key(sport), 128),
                    }),
                ),
                Ev::Mod(xid) => (
                    xid,
                    OfpMessage::FlowMod(
                        FlowMod::add(OfMatch::exact(&key(1), PortNo(1)), 100)
                            .action(Action::output(PortNo(2))),
                    ),
                ),
                Ev::Removed(sport, byte_count) => (
                    0,
                    OfpMessage::FlowRemoved(FlowRemoved {
                        match_: OfMatch::exact(&key(sport), PortNo(1)),
                        cookie: Cookie::default(),
                        priority: 100,
                        reason: FlowRemovedReason::IdleTimeout,
                        duration_sec: 1,
                        duration_nsec: 0,
                        idle_timeout: 1,
                        packet_count: 1,
                        byte_count,
                    }),
                ),
            };
            ControlEvent {
                ts: Timestamp::from_micros(ms * 1_000),
                dpid: DatapathId(1),
                direction: netsim::log::Direction::ToController,
                xid: Xid(xid),
                msg,
            }
        };
        let (a, b, c, d, e, f) = (1, 2, 3, 4, 5, 6);
        let events = [
            event(0, Ev::In(a, 1)),
            event(10, Ev::Mod(1)),
            event(100, Ev::In(b, 2)),
            // Cut 1.
            event(200, Ev::In(a, 3)),
            // Keeps `a`'s first episode open past its reopening.
            event(1_900, Ev::Mod(3)),
            // Reopens `a` 2.1 s after its last hop; the prune here evicts
            // `b`, and its waiting hop with it.
            event(2_300, Ev::In(a, 4)),
            // `b`'s FlowMod, after its episode was evicted.
            event(2_400, Ev::Mod(2)),
            // A new tuple, after an eviction.
            event(2_500, Ev::In(c, 5)),
            event(2_600, Ev::Removed(a, 500)),
            event(2_700, Ev::Removed(b, 700)),
            event(2_800, Ev::Mod(5)),
            event(3_000, Ev::Mod(4)),
            // Cut 2.
            // The prune here evicts `a`'s first episode.
            event(4_500, Ev::In(d, 6)),
            event(4_600, Ev::In(e, 7)),
            event(4_700, Ev::Mod(7)),
            event(5_000, Ev::In(a, 8)),
            event(5_100, Ev::Removed(a, 900)),
            event(5_200, Ev::Mod(7)),
            // Cut 3.
            event(6_600, Ev::In(c, 9)),
            event(7_000, Ev::Mod(8)),
            event(9_000, Ev::In(b, 10)),
            event(9_100, Ev::Mod(9)),
            // Cut 4.
            event(11_500, Ev::In(f, 11)),
        ];
        let horizon = FlowDiffConfig {
            partial_flow_timeout_us: 2_000_000,
            episode_gap_us: 2_000_000,
            ..FlowDiffConfig::default()
        };
        // (sport, first seen in ms, hops, hops with their FlowMod, bytes)
        type Seen = (u16, u64, usize, usize, u64);
        fn seen<R: std::borrow::Borrow<FlowRecord>>(records: Vec<R>) -> Vec<Seen> {
            let mut seen: Vec<Seen> = (records.iter().map(|r| r.borrow()))
                .map(|r| {
                    let patched = r.hops.iter().filter(|h| h.flow_mod_ts.is_some());
                    let first_ms = r.first_seen.as_micros() / 1_000;
                    (
                        r.tuple.sport,
                        first_ms,
                        r.hops.len(),
                        patched.count(),
                        r.byte_count,
                    )
                })
                .collect();
            seen.sort_unstable();
            seen
        }

        // Uninterrupted, handing over at the cuts.
        let cuts: [(usize, u64, &[Seen]); 4] = [
            (3, 0, &[(a, 0, 1, 1, 0), (b, 100, 1, 0, 0)]),
            (
                12,
                0,
                &[(a, 0, 2, 2, 0), (a, 2_300, 1, 1, 500), (c, 2_500, 1, 1, 0)],
            ),
            (
                18,
                0,
                &[
                    (a, 2_300, 1, 1, 500),
                    (a, 5_000, 1, 0, 900),
                    (d, 4_500, 1, 0, 0),
                    (e, 4_600, 1, 1, 0),
                ],
            ),
            (22, 6_000, &[(b, 9_000, 1, 0, 0)]),
        ];
        // Evictions are taken after every event, as the online differ
        // does, so each checkpoint holds open state only.
        let mut asm = RecordAssembler::new(&horizon);
        let (mut bytes, mut records) = (Vec::new(), Vec::new());
        for (i, ev) in events.iter().enumerate() {
            if let Some((_, start, want)) = cuts.iter().find(|cut| cut.0 == i) {
                let start = Timestamp::from_micros(start * 1_000);
                assert_eq!(
                    seen(asm.touched_open_records_since(start)),
                    *want,
                    "cut at {i}"
                );
            }
            asm.observe(ev);
            records.extend(asm.take_completed());
            bytes.push(serde::to_vec(&asm));
        }
        let health = *asm.health();
        assert_eq!(
            (
                health.stale_attaches,
                health.orphan_flow_mods,
                health.orphan_flow_removeds,
                health.duplicate_xids,
                health.episodes_evicted,
            ),
            (0, 2, 1, 1, 9)
        );
        records.extend(asm.finish());
        assert_eq!(
            seen(records.clone()),
            [
                (a, 0, 2, 2, 0),
                (a, 2_300, 1, 1, 500),
                (a, 5_000, 1, 1, 900),
                (b, 100, 1, 0, 0),
                (b, 9_000, 1, 0, 0),
                (c, 2_500, 1, 1, 0),
                (c, 6_600, 1, 0, 0),
                (d, 4_500, 1, 0, 0),
                (e, 4_600, 1, 1, 0),
                (f, 11_500, 1, 0, 0),
            ]
        );

        // Through a checkpoint after every event: the same bytes at every
        // index and the same records at the end.
        let mut restored = RecordAssembler::new(&horizon);
        let mut again = Vec::new();
        for (ev, want) in events.iter().zip(&bytes) {
            restored.observe(ev);
            again.extend(restored.take_completed());
            let written = serde::to_vec(&restored);
            assert_eq!(&written, want);
            restored = serde::from_slice(&written).unwrap();
        }
        assert_eq!(*restored.health(), health);
        again.extend(restored.finish());
        let in_order = |mut v: Vec<FlowRecord>| {
            v.sort_by_key(|r| (r.first_seen, r.tuple));
            v
        };
        assert_eq!(in_order(again), in_order(records));
    }

    #[test]
    fn hops_waiting_on_one_xid_survive_a_checkpoint_and_a_stray_one_is_refused() {
        let ms = |ms: u64| Timestamp::from_micros(ms * 1_000);
        let at = |t: u64, body: EventBody| FlowEvent {
            ts: ms(t),
            dpid: DatapathId(1),
            direction: netsim::log::Direction::ToController,
            xid: Xid(7),
            body,
        };
        let packet_in = |sport| EventBody::PacketIn {
            in_port: PortNo(1),
            tuple: Some(FlowTuple::from_key(&key(sport))),
        };
        let config = FlowDiffConfig::default();
        // Three PacketIns of two flows wait on xid 7: the first inline,
        // then a list.
        let mut asm = RecordAssembler::new(&config);
        for (t, sport) in [(0, 1), (1, 2), (2, 1)] {
            asm.observe(at(t, packet_in(sport)));
        }
        let bytes = serde::to_vec(&asm);
        let mut restored: RecordAssembler = serde::from_slice(&bytes).unwrap();
        assert_eq!(restored, asm);
        assert_eq!(serde::to_vec(&restored), bytes);
        let flow_mod = at(
            3,
            EventBody::FlowMod {
                out_port: Some(PortNo(3)),
            },
        );
        asm.observe(flow_mod.clone());
        restored.observe(flow_mod);
        assert_eq!(restored, asm);
        let hops: Vec<(Option<Timestamp>, Option<PortNo>)> = (restored.finish().iter())
            .flat_map(|r| r.hops.iter().map(|h| (h.flow_mod_ts, h.out_port)))
            .collect();
        assert_eq!(hops, vec![(Some(ms(3)), Some(PortNo(3))); 3]);

        // A checkpoint whose waiting hop names no open episode.
        let fresh = RecordAssembler::new(&config);
        let checkpoint = |pending: HashMap<Xid, Vec<PendingHop>>| {
            let mut out = Vec::new();
            fresh.episode_gap_us.serialize(&mut out);
            fresh.horizon_us.serialize(&mut out);
            HashMap::<Xid, SeenMod>::new().serialize(&mut out);
            pending.serialize(&mut out);
            fresh.open.serialize(&mut out);
            fresh.next_seq.serialize(&mut out);
            fresh.completed.serialize(&mut out);
            fresh.now.serialize(&mut out);
            fresh.last_prune.serialize(&mut out);
            fresh.health.serialize(&mut out);
            out
        };
        assert_eq!(checkpoint(HashMap::new()), serde::to_vec(&fresh));
        let stray = PendingHop {
            tuple: FlowTuple::from_key(&key(1)),
            seq: 0,
            hop_idx: 0,
            registered: ms(0),
        };
        let bytes = checkpoint(HashMap::from([(Xid(7), vec![stray])]));
        assert!(serde::from_slice::<RecordAssembler>(&bytes).is_err());
    }

    #[test]
    fn time_jump_quarantine_drops_corrupt_clock_readings() {
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
            seq.release(ev.into(), |ev| asm.observe(ev));
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
    fn sequencer_hands_events_through_or_re_sequenced() {
        let at = |us: u64| {
            FlowEvent::from(&ControlEvent {
                ts: Timestamp::from_micros(us),
                dpid: DatapathId(1),
                direction: netsim::log::Direction::ToController,
                xid: Xid(0),
                msg: OfpMessage::Hello,
            })
        };
        let shuffled: Vec<FlowEvent> = [10, 30, 20, 40, 35, 50].map(at).to_vec();
        let sorted: Vec<FlowEvent> = [10, 20, 30, 35, 40, 50].map(at).to_vec();
        let released = |slack_us: u64| {
            let config = FlowDiffConfig {
                reorder_slack_us: slack_us,
                ..FlowDiffConfig::default()
            };
            let mut seq = Sequencer::new(&config);
            let mut out = Vec::new();
            for ev in &shuffled {
                assert!(seq.admit(ev.ts));
                let mut handed = 0;
                seq.release(ev.clone(), |ev| {
                    handed += 1;
                    out.push(ev);
                });
                // Slack 0 holds nothing: each event straight through, alone.
                assert!(handed == 1 || slack_us > 0);
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
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
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
        let mut sim = Simulation::new(line_topology(), Deployment::Reactive, 1);
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
