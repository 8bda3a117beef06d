//! Dense process-local entity IDs and the catalog that interns them.
//!
//! Every signature builder on the hot path used to key its state by raw
//! `Ipv4Addr`/`DatapathId`/`(DatapathId, PortNo)` in `BTreeMap`s, paying
//! wide-key comparisons and pointer-chasing per observed record. This
//! module interns those entities once, on ingest, into small dense
//! `u32` IDs ([`HostId`], [`SwitchId`], [`PortId`], and [`EdgeId`] for a
//! directed host pair) so builders can use `Vec`s indexed by ID and flat
//! hash maps keyed by packed integers instead.
//!
//! IDs are **process-local**: they are assignment-order artifacts of one
//! [`EntityCatalog`] and mean nothing outside it. Two models built from
//! different logs (or the same log with records ingested in a different
//! order) may assign entirely different IDs to the same host. For that
//! reason IDs are never serialized and never rendered — everything that
//! leaves the pipeline (serialized models, diffs, change descriptions)
//! resolves IDs back to addresses through the owning catalog, and
//! diffing two models compares resolved addresses, never raw indices.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use openflow::types::{DatapathId, PortNo, Timestamp, Xid};
use serde::{Deserialize, Serialize};

use crate::groups::Edge;
use crate::records::{FlowRecord, FlowTuple, HopReport};

/// Dense index of one host (an `Ipv4Addr`) in an [`EntityCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Dense index of one switch (a `DatapathId`) in an [`EntityCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

/// Dense index of one switch port (a `(SwitchId, PortNo)` pair) in an
/// [`EntityCatalog`]. A `PortId` identifies the port *and* its switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

/// Dense index of one directed host edge (a `(HostId, HostId)` pair,
/// source first) in an [`EntityCatalog`]. Every record carries its own,
/// so bucketing records by edge is a `Vec` index, not a hash of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl HostId {
    /// The ID as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SwitchId {
    /// The ID as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    /// The ID as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The ID as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Packs an ordered switch pair into one flat-map key.
pub fn pack_switch_pair(a: SwitchId, b: SwitchId) -> u64 {
    (a.0 as u64) << 32 | b.0 as u64
}

/// Inverse of [`pack_switch_pair`].
pub fn unpack_switch_pair(key: u64) -> (SwitchId, SwitchId) {
    (SwitchId((key >> 32) as u32), SwitchId(key as u32))
}

/// Packs an ordered port pair (a directed inter-switch link) into one
/// flat-map key.
pub fn pack_port_pair(a: PortId, b: PortId) -> u64 {
    (a.0 as u64) << 32 | b.0 as u64
}

/// Inverse of [`pack_port_pair`].
pub fn unpack_port_pair(key: u64) -> (PortId, PortId) {
    (PortId((key >> 32) as u32), PortId(key as u32))
}

/// The entity interner: assigns dense IDs to hosts, switches, ports and
/// host edges in first-seen order, and resolves them back.
///
/// Interners only grow — retiring records from a sliding window leaves
/// the catalog untouched, so IDs stay valid for the life of the owning
/// builder/model and re-interning a known entity is a cheap lookup.
/// The entity namespace of a long-running capture is small (hosts and
/// switches, not flows), so monotone growth is bounded by the data
/// center, not by the traffic (edges by who talks to whom, at most the
/// host count squared).
///
/// Ports and edges are keyed by address, as a record names them, so a
/// record on a known edge finds its [`EdgeId`] in one lookup and a hop
/// on a known port its [`PortId`]; only an unknown one goes through its
/// hosts or its switch.
#[derive(Debug, Clone, Default)]
pub struct EntityCatalog {
    hosts: Vec<Ipv4Addr>,
    host_ids: HashMap<Ipv4Addr, HostId>,
    switches: Vec<DatapathId>,
    switch_ids: HashMap<DatapathId, SwitchId>,
    ports: Vec<(SwitchId, PortNo)>,
    port_ids: HashMap<(DatapathId, PortNo), PortId>,
    edges: Vec<(HostId, HostId)>,
    edge_ids: HashMap<(Ipv4Addr, Ipv4Addr), EdgeId>,
}

impl EntityCatalog {
    /// An empty catalog.
    pub fn new() -> EntityCatalog {
        EntityCatalog::default()
    }

    /// Interns a host address, returning its dense ID (stable across
    /// repeat calls).
    pub fn intern_host(&mut self, ip: Ipv4Addr) -> HostId {
        if let Some(&id) = self.host_ids.get(&ip) {
            return id;
        }
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(ip);
        self.host_ids.insert(ip, id);
        id
    }

    /// Interns a switch, returning its dense ID.
    pub fn intern_switch(&mut self, dpid: DatapathId) -> SwitchId {
        if let Some(&id) = self.switch_ids.get(&dpid) {
            return id;
        }
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(dpid);
        self.switch_ids.insert(dpid, id);
        id
    }

    /// Interns one port of an (already interned) switch.
    ///
    /// # Panics
    /// On a switch ID this catalog never issued.
    pub fn intern_port(&mut self, switch: SwitchId, port: PortNo) -> PortId {
        let key = (self.switch(switch), port);
        if let Some(&id) = self.port_ids.get(&key) {
            return id;
        }
        let id = PortId(self.ports.len() as u32);
        self.ports.push((switch, port));
        self.port_ids.insert(key, id);
        id
    }

    /// Interns the directed edge `src -> dst` between two (already
    /// interned) hosts.
    ///
    /// # Panics
    /// On a host ID this catalog never issued.
    pub fn intern_edge(&mut self, src: HostId, dst: HostId) -> EdgeId {
        let key = (self.host(src), self.host(dst));
        if let Some(&id) = self.edge_ids.get(&key) {
            return id;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((src, dst));
        self.edge_ids.insert(key, id);
        id
    }

    /// The edge `src -> dst` of a record: one lookup when known, else
    /// interned host, host, edge.
    fn intern_edge_of(&mut self, src: Ipv4Addr, dst: Ipv4Addr) -> EdgeId {
        if let Some(id) = self.edge_of(src, dst) {
            return id;
        }
        let src = self.intern_host(src);
        let dst = self.intern_host(dst);
        self.intern_edge(src, dst)
    }

    /// Port `port` of switch `dpid`: one lookup when known, else interned
    /// switch, port.
    fn intern_port_of(&mut self, dpid: DatapathId, port: PortNo) -> PortId {
        if let Some(&id) = self.port_ids.get(&(dpid, port)) {
            return id;
        }
        let switch = self.intern_switch(dpid);
        self.intern_port(switch, port)
    }

    /// Looks a host up without interning it. `None` means the catalog
    /// has never seen the address.
    pub fn host_id(&self, ip: Ipv4Addr) -> Option<HostId> {
        self.host_ids.get(&ip).copied()
    }

    /// Looks an edge up without interning it. `None` also for a host ID
    /// this catalog never issued.
    pub fn edge_id(&self, src: HostId, dst: HostId) -> Option<EdgeId> {
        self.edge_of(*self.hosts.get(src.index())?, *self.hosts.get(dst.index())?)
    }

    /// Looks the edge `src -> dst` up by address.
    fn edge_of(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Option<EdgeId> {
        self.edge_ids.get(&(src, dst)).copied()
    }

    /// Resolves a host ID back to its address.
    ///
    /// # Panics
    /// On an ID from a different catalog (index out of range).
    pub fn host(&self, id: HostId) -> Ipv4Addr {
        self.hosts[id.index()]
    }

    /// Resolves a switch ID back to its datapath ID.
    pub fn switch(&self, id: SwitchId) -> DatapathId {
        self.switches[id.index()]
    }

    /// Resolves a port ID back to its `(SwitchId, PortNo)` pair.
    pub fn port(&self, id: PortId) -> (SwitchId, PortNo) {
        self.ports[id.index()]
    }

    /// The switch a port belongs to.
    pub fn switch_of(&self, id: PortId) -> SwitchId {
        self.ports[id.index()].0
    }

    /// Resolves a port ID to its `(DatapathId, PortNo)` address form.
    pub fn port_addr(&self, id: PortId) -> (DatapathId, PortNo) {
        let (sw, port) = self.port(id);
        (self.switch(sw), port)
    }

    /// Resolves an edge ID to its endpoint host IDs.
    pub fn edge_hosts(&self, id: EdgeId) -> (HostId, HostId) {
        self.edges[id.index()]
    }

    /// Resolves an edge ID to its address form.
    pub fn edge_addr(&self, id: EdgeId) -> Edge {
        let (s, d) = self.edge_hosts(id);
        Edge {
            src: self.host(s),
            dst: self.host(d),
        }
    }

    /// Number of interned hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of interned switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of interned ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Number of interned edges: the length of any `Vec` indexed by
    /// [`EdgeId`].
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Interned host addresses in ID order (for iterating dense state).
    pub fn hosts(&self) -> &[Ipv4Addr] {
        &self.hosts
    }

    /// Approximate heap footprint of the catalog in bytes (vectors plus
    /// reverse-lookup tables; load-factor overhead ignored).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.hosts.len() * (size_of::<Ipv4Addr>() + size_of::<(Ipv4Addr, HostId)>())
            + self.switches.len() * (size_of::<DatapathId>() + size_of::<(DatapathId, SwitchId)>())
            + self.ports.len()
                * (size_of::<(SwitchId, PortNo)>() + size_of::<((DatapathId, PortNo), PortId)>())
            + self.edges.len()
                * (size_of::<(HostId, HostId)>() + size_of::<((Ipv4Addr, Ipv4Addr), EdgeId)>())
    }

    /// Interns a record into its dense form. New entities get their IDs
    /// in the order host, host, edge, then per hop switch, port, port.
    pub fn intern_record(&mut self, record: &FlowRecord) -> IRecord {
        IRecord {
            edge: self.intern_edge_of(record.tuple.src, record.tuple.dst),
            tuple: record.tuple,
            first_seen: record.first_seen,
            byte_count: record.byte_count,
            packet_count: record.packet_count,
            duration_s: record.duration_s,
            hops: record.hops.iter().map(|hop| self.intern_hop(hop)).collect(),
        }
    }

    /// Interns one hop: switch, in port, out port.
    fn intern_hop(&mut self, hop: &HopReport) -> IHop {
        IHop {
            ts: hop.ts,
            in_port: self.intern_port_of(hop.dpid, hop.in_port),
            xid: hop.xid,
            flow_mod_ts: hop.flow_mod_ts,
            out_port: hop.out_port.map(|p| self.intern_port_of(hop.dpid, p)),
        }
    }

    /// Makes `held` the interned form of `record`, a later version of
    /// the episode `held` was interned from: the same window key, so the
    /// same tuple and edge. Keeps every hop that still resolves to
    /// `record`'s, and the hop list itself when all do; interns only the
    /// hops appended or patched since. Whether the hops changed.
    pub(crate) fn reintern(&mut self, held: &mut IRecord, record: &FlowRecord) -> bool {
        debug_assert_eq!(
            (held.first_seen, held.tuple),
            (record.first_seen, record.tuple)
        );
        held.byte_count = record.byte_count;
        held.packet_count = record.packet_count;
        held.duration_s = record.duration_s;
        let kept = (held.hops.iter())
            .zip(&record.hops)
            .take_while(|(i, h)| self.hop_resolves_to(i, h))
            .count();
        if kept == held.hops.len() && kept == record.hops.len() {
            return false;
        }
        held.hops = (record.hops.iter().enumerate())
            .map(|(at, hop)| match held.hops.get(at) {
                Some(i) if at < kept || self.hop_resolves_to(i, hop) => i.clone(),
                _ => self.intern_hop(hop),
            })
            .collect();
        true
    }

    /// The address form of a record interned through this catalog: the
    /// exact inverse of [`intern_record`](Self::intern_record).
    pub fn resolve_record(&self, record: &IRecord) -> FlowRecord {
        FlowRecord {
            tuple: record.tuple,
            first_seen: record.first_seen,
            hops: record
                .hops
                .iter()
                .map(|hop| self.resolve_hop(hop))
                .collect(),
            byte_count: record.byte_count,
            packet_count: record.packet_count,
            duration_s: record.duration_s,
        }
    }

    /// The address form of one hop of a record interned through this
    /// catalog.
    fn resolve_hop(&self, hop: &IHop) -> HopReport {
        let (dpid, in_port) = self.port_addr(hop.in_port);
        HopReport {
            ts: hop.ts,
            dpid,
            in_port,
            xid: hop.xid,
            flow_mod_ts: hop.flow_mod_ts,
            out_port: hop.out_port.map(|p| self.port(p).1),
        }
    }

    /// Whether `record` is [`resolve_record`](Self::resolve_record) of
    /// `interned`, decided field by field without building it.
    pub(crate) fn resolves_to(&self, interned: &IRecord, record: &FlowRecord) -> bool {
        interned.tuple == record.tuple
            && interned.first_seen == record.first_seen
            && interned.byte_count == record.byte_count
            && interned.packet_count == record.packet_count
            && interned.duration_s == record.duration_s
            && interned.hops.len() == record.hops.len()
            && (interned.hops.iter())
                .zip(&record.hops)
                .all(|(i, h)| self.hop_resolves_to(i, h))
    }

    /// Whether `hop` is the address form of `interned`.
    fn hop_resolves_to(&self, interned: &IHop, hop: &HopReport) -> bool {
        self.resolve_hop(interned) == *hop
    }
}

/// One switch hop of an [`IRecord`], in dense-ID form (the counterpart
/// of [`crate::records::HopReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IHop {
    /// When the switch reported the flow (its `PacketIn` timestamp).
    pub ts: Timestamp,
    /// The port the flow arrived on, which also names the reporting
    /// switch ([`EntityCatalog::switch_of`]).
    pub in_port: PortId,
    /// The report's transaction id. No signature reads it; it is what
    /// makes [`EntityCatalog::resolve_record`] lossless.
    pub xid: Xid,
    /// When the controller answered with a `FlowMod`, if it did.
    pub flow_mod_ts: Option<Timestamp>,
    /// The port the installed rule forwards out of, if any.
    pub out_port: Option<PortId>,
}

/// A flow record in dense-ID form: what the signature builds consume.
///
/// Carries exactly the fields the signatures read — endpoints,
/// counters, and the switch path — with every entity reference interned
/// through the owning [`EntityCatalog`]. A model holds its records in
/// this form alone, so it is kept no larger than a [`FlowRecord`]: the
/// edge names both endpoints, each hop's `in_port` names its switch,
/// and the path is a boxed slice.
#[derive(Debug, Clone, PartialEq)]
pub struct IRecord {
    /// Interned `src -> dst` edge; [`EntityCatalog::edge_hosts`] names
    /// its endpoints.
    pub edge: EdgeId,
    /// The original five-tuple: kept alongside the edge because the
    /// sliding window orders records by
    /// `(first_seen, tuple)` — the same key the batch path sorts by —
    /// and retirement has to find a record under that exact key.
    pub tuple: FlowTuple,
    /// First time the flow was reported to the controller.
    pub first_seen: Timestamp,
    /// Bytes carried (from `FlowRemoved`, when seen).
    pub byte_count: u64,
    /// Packets carried.
    pub packet_count: u64,
    /// Flow duration in seconds.
    pub duration_s: f64,
    /// The switch path, in path order.
    pub hops: Box<[IHop]>,
}

/// A batch of address-form records interned into one fresh catalog —
/// the convenient entry point for building signatures directly from
/// `FlowRecord`s (tests, standalone `Signature::build` calls).
#[derive(Debug, Clone, Default)]
pub struct InternedLog {
    /// The catalog the records were interned through.
    pub catalog: EntityCatalog,
    /// The interned records, in input order.
    pub records: Vec<IRecord>,
}

impl InternedLog {
    /// Interns `records` into a fresh catalog.
    pub fn of(records: &[FlowRecord]) -> InternedLog {
        let mut catalog = EntityCatalog::new();
        let records = records.iter().map(|r| catalog.intern_record(r)).collect();
        InternedLog { catalog, records }
    }

    /// The interned records as a reference slice (the shape
    /// [`crate::signatures::SignatureInputs`] wants).
    pub fn refs(&self) -> Vec<&IRecord> {
        self.records.iter().collect()
    }
}

/// The records of a [`BehaviorModel`](crate::model::BehaviorModel): the
/// interned window it was built from and the catalog that window was
/// interned through, both behind `Arc`s shared with whoever built them.
/// At an online epoch boundary that is the builder's maintained window,
/// so handing a model its records copies nothing and dropping the model
/// only releases its shares.
///
/// Read-only and in model order (ascending `(first_seen, tuple)`). The
/// address form exists only when read: [`get`](Self::get),
/// [`iter`](Self::iter) and [`to_vec`](Self::to_vec) resolve each record
/// through the catalog ([`EntityCatalog::resolve_record`]). Equality,
/// `Debug` and the serialized form are those of the resolved
/// `Vec<FlowRecord>`, so a model's bytes do not depend on the form its
/// records are held in; deserializing interns them into a fresh catalog.
#[derive(Clone, Default)]
pub struct WindowRecords {
    records: Arc<Vec<IRecord>>,
    catalog: Arc<EntityCatalog>,
}

impl WindowRecords {
    /// A view sharing `records`, interned through `catalog`.
    pub(crate) fn shared(records: &Arc<Vec<IRecord>>, catalog: &Arc<EntityCatalog>) -> Self {
        WindowRecords {
            records: Arc::clone(records),
            catalog: Arc::clone(catalog),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the window holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th record in address form, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<FlowRecord> {
        (self.records.get(i)).map(|r| self.catalog.resolve_record(r))
    }

    /// Every record in address form, in model order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = FlowRecord> + ExactSizeIterator + '_ {
        (self.records.iter()).map(|r| self.catalog.resolve_record(r))
    }

    /// The records in address form, as one list.
    pub fn to_vec(&self) -> Vec<FlowRecord> {
        self.iter().collect()
    }

    /// The records in dense form: what the signature builds read.
    pub(crate) fn interned(&self) -> &[IRecord] {
        &self.records
    }

    /// The catalog the records were interned through.
    pub(crate) fn catalog(&self) -> &Arc<EntityCatalog> {
        &self.catalog
    }

    /// `serde::to_vec(self).len()`, counted one record at a time rather
    /// than by holding the whole encoding.
    pub(crate) fn serialized_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.iter().fold(8, |n, record| {
            scratch.clear();
            record.serialize(&mut scratch);
            n + scratch.len()
        })
    }
}

impl From<InternedLog> for WindowRecords {
    fn from(log: InternedLog) -> Self {
        WindowRecords {
            records: Arc::new(log.records),
            catalog: Arc::new(log.catalog),
        }
    }
}

impl PartialEq for WindowRecords {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for WindowRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Exactly the bytes of the resolved `Vec<FlowRecord>`: a count, then
/// each record.
impl Serialize for WindowRecords {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for record in self.iter() {
            record.serialize(out);
        }
    }
}

impl Deserialize for WindowRecords {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let records = Vec::<FlowRecord>::deserialize(input)?;
        Ok(InternedLog::of(&records).into())
    }
}

/// An edge-indexed view of one model's records, used by the diff engine
/// to answer "when did this edge first appear in the current capture?"
/// in O(1) instead of scanning the record list per change.
///
/// Holds a share of the catalog its records were interned through: the
/// diff engine resolves *reference*-side edges (plain addresses) through
/// it, so cross-log identity is by address — reference and current
/// models never exchange raw IDs.
#[derive(Debug, Clone, Default)]
pub struct RecordIndex {
    catalog: Arc<EntityCatalog>,
    /// Earliest `first_seen` per [`EdgeId`] of `catalog`; `None` for an
    /// edge the catalog knows but no indexed record is on.
    first_seen: Vec<Option<Timestamp>>,
}

impl RecordIndex {
    /// Indexes the earliest `first_seen` of every `(src, dst)` pair in
    /// `records`.
    pub fn of_records(records: &[FlowRecord]) -> RecordIndex {
        let mut catalog = EntityCatalog::new();
        let edges: Vec<(EdgeId, Timestamp)> = records
            .iter()
            .map(|r| {
                (
                    catalog.intern_edge_of(r.tuple.src, r.tuple.dst),
                    r.first_seen,
                )
            })
            .collect();
        RecordIndex::of_edges(Arc::new(catalog), edges)
    }

    /// Indexes a model's records, keeping a share of their catalog. This
    /// is the zero-rework path for a model snapshot: each record already
    /// names its edge, so nothing is hashed.
    pub fn of_window(records: &WindowRecords) -> RecordIndex {
        let edges = (records.interned().iter()).map(|r| (r.edge, r.first_seen));
        RecordIndex::of_edges(Arc::clone(records.catalog()), edges)
    }

    fn of_edges(
        catalog: Arc<EntityCatalog>,
        edges: impl IntoIterator<Item = (EdgeId, Timestamp)>,
    ) -> RecordIndex {
        let mut first_seen = vec![None; catalog.n_edges()];
        for (edge, ts) in edges {
            let slot: &mut Option<Timestamp> = &mut first_seen[edge.index()];
            *slot = Some(slot.map_or(ts, |t| t.min(ts)));
        }
        RecordIndex {
            catalog,
            first_seen,
        }
    }

    /// Earliest record on `edge`, or `None` when no indexed record
    /// connects the pair (including when either endpoint is unknown).
    pub fn first_seen(&self, edge: &Edge) -> Option<Timestamp> {
        self.first_seen[self.catalog.edge_of(edge.src, edge.dst)?.index()]
    }

    /// Approximate heap footprint in bytes of the edge table alone. The
    /// catalog is not counted: in a model it is the one its records
    /// share, which [`BehaviorModel::approx_bytes`] counts once.
    ///
    /// [`BehaviorModel::approx_bytes`]: crate::model::BehaviorModel::approx_bytes
    pub fn approx_bytes(&self) -> usize {
        self.first_seen.len() * std::mem::size_of::<Option<Timestamp>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{FlowTuple, HopReport};
    use openflow::types::{IpProto, Xid};

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn record(src: u8, dst: u8, first_seen_us: u64) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src: ip(src),
                sport: 10_000,
                dst: ip(dst),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_micros(first_seen_us),
            hops: vec![HopReport {
                ts: Timestamp::from_micros(first_seen_us),
                dpid: DatapathId(1),
                in_port: PortNo(1),
                xid: Xid(1),
                flow_mod_ts: None,
                out_port: Some(PortNo(2)),
            }],
            byte_count: 100,
            packet_count: 1,
            duration_s: 0.5,
        }
    }

    #[test]
    fn intern_resolve_round_trips() {
        let mut c = EntityCatalog::new();
        let a = c.intern_host(ip(1));
        let b = c.intern_host(ip(2));
        assert_ne!(a, b);
        assert_eq!(c.intern_host(ip(1)), a, "re-interning is stable");
        assert_eq!(c.host(a), ip(1));
        assert_eq!(c.host(b), ip(2));
        let sw = c.intern_switch(DatapathId(7));
        let p = c.intern_port(sw, PortNo(3));
        assert_eq!(c.switch(sw), DatapathId(7));
        assert_eq!(c.port(p), (sw, PortNo(3)));
        assert_eq!(c.port_addr(p), (DatapathId(7), PortNo(3)));
        assert_eq!((c.n_hosts(), c.n_switches(), c.n_ports()), (2, 1, 1));
    }

    #[test]
    fn pack_unpack_round_trips() {
        let (a, b) = (SwitchId(0), SwitchId(9));
        assert_eq!(unpack_switch_pair(pack_switch_pair(a, b)), (a, b));
        let (p, q) = (PortId(1), PortId(2));
        assert_eq!(unpack_port_pair(pack_port_pair(p, q)), (p, q));
    }

    #[test]
    fn intern_record_preserves_fields() {
        let mut c = EntityCatalog::new();
        let r = record(1, 2, 5_000);
        let ir = c.intern_record(&r);
        assert_eq!(
            c.edge_addr(ir.edge),
            Edge {
                src: ip(1),
                dst: ip(2)
            }
        );
        assert_eq!(ir.first_seen, r.first_seen);
        assert_eq!(ir.byte_count, r.byte_count);
        assert_eq!(ir.hops.len(), 1);
        let hop = &ir.hops[0];
        assert_eq!(c.switch(c.switch_of(hop.in_port)), DatapathId(1));
        assert_eq!(c.port_addr(hop.in_port), (DatapathId(1), PortNo(1)));
        assert_eq!(
            c.port_addr(hop.out_port.unwrap()),
            (DatapathId(1), PortNo(2))
        );
    }

    #[test]
    fn record_index_answers_min_first_seen_by_edge() {
        let records = vec![
            record(1, 2, 5_000),
            record(1, 2, 2_000),
            record(2, 1, 9_000),
        ];
        let idx = RecordIndex::of_records(&records);
        let edge = |s: u8, d: u8| Edge {
            src: ip(s),
            dst: ip(d),
        };
        assert_eq!(
            idx.first_seen(&edge(1, 2)),
            Some(Timestamp::from_micros(2_000))
        );
        assert_eq!(
            idx.first_seen(&edge(2, 1)),
            Some(Timestamp::from_micros(9_000))
        );
        assert_eq!(idx.first_seen(&edge(1, 3)), None, "unknown endpoint");
        assert_eq!(
            RecordIndex::default().first_seen(&edge(1, 2)),
            None,
            "empty index knows nothing"
        );
    }

    #[test]
    fn interned_log_keeps_input_order() {
        let records = vec![record(3, 4, 1), record(1, 2, 2)];
        let il = InternedLog::of(&records);
        assert_eq!(il.records.len(), 2);
        assert_eq!(il.catalog.edge_addr(il.records[0].edge).src, ip(3));
        assert_eq!(il.catalog.edge_addr(il.records[1].edge).src, ip(1));
        assert_eq!(il.refs().len(), 2);
    }

    #[test]
    fn window_records_read_and_encode_as_their_address_form() {
        let mut records = vec![record(3, 4, 1), record(1, 2, 2), record(1, 2, 3)];
        records[1].hops.clear();
        records[2].hops[0].flow_mod_ts = Some(Timestamp::from_micros(7));
        let view = WindowRecords::from(InternedLog::of(&records));
        assert_eq!(
            (view.len(), view.get(1), view.get(3)),
            (3, Some(records[1].clone()), None)
        );
        assert_eq!(view.to_vec(), records);
        let bytes = serde::to_vec(&view);
        assert_eq!(bytes, serde::to_vec(&records));
        assert_eq!(view.serialized_len(), bytes.len());
        // Another catalog, other IDs: the same records.
        let back: WindowRecords = serde::from_slice(&bytes).unwrap();
        assert_eq!(back, view);
        assert_ne!(back, WindowRecords::from(InternedLog::of(&records[1..])));
        // A model holds this form alone: it costs no more per record.
        assert!(std::mem::size_of::<IRecord>() <= std::mem::size_of::<FlowRecord>());
        assert!(std::mem::size_of::<IHop>() <= std::mem::size_of::<HopReport>());
    }
}
