//! The behavior model: all signatures of one log, bundled.
//!
//! There is exactly one model-building implementation: the streaming
//! [`IncrementalModelBuilder`], which folds records and raw control
//! events as they arrive and can snapshot a [`BehaviorModel`] at any
//! point (the online differ snapshots at epoch boundaries).
//! [`BehaviorModel::build`] is a thin wrapper that feeds a whole log
//! through one builder and snapshots once. Every snapshot — batch,
//! rebuild-from-scratch oracle, online boundary — turns its sorted,
//! interned window into signatures through the one serial fan-out,
//! `model_of`, and the model keeps that window as its
//! [`WindowRecords`]: one form of each record, address form only when
//! read. DD, PT, ISL and CRT fold there from pane partials (the `panes`
//! module): the batch build and the oracle fold the whole window as one
//! pane, the online boundary keeps one pane per epoch across boundaries
//! and rebuilds only those whose records changed.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use openflow::types::{DatapathId, Timestamp};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::derived::Derived;
use crate::groups::{discover_window, AppGroup, Discovery};
use crate::ids::{EntityCatalog, IRecord, InternedLog, RecordIndex, WindowRecords};
use crate::panes::{Folded, Panes};
use crate::records::{FlowRecord, FlowTuple, RecordAssembler};
use crate::signatures::connectivity::ConnectivityGraph;
use crate::signatures::correlation::PartialCorrelation;
use crate::signatures::delay::DelayDistribution;
use crate::signatures::flow_stats::FlowStatsSig;
use crate::signatures::infra::{ControllerResponse, InterSwitchLatency, PhysicalTopology};
use crate::signatures::interaction::ComponentInteraction;
use crate::signatures::utilization::{LinkUtilization, LuBuilder};
use crate::signatures::{EdgeSlots, Signature, SignatureInputs};
use netsim::log::{ControllerLog, Direction, FlowEvent};

/// All application signatures of one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSignatures {
    /// The group (members, edges, record indices).
    pub group: AppGroup,
    /// Connectivity graph (CG).
    pub connectivity: ConnectivityGraph,
    /// Flow statistics (FS).
    pub flow_stats: FlowStatsSig,
    /// Component interaction (CI).
    pub interaction: ComponentInteraction,
    /// Delay distribution (DD).
    pub delay: DelayDistribution,
    /// Partial correlation (PC).
    pub correlation: PartialCorrelation,
}

/// The complete behavioral model of a data center over one log window
/// (Section III): per-group application signatures plus the
/// infrastructure signatures.
#[derive(Debug, Clone)]
pub struct BehaviorModel {
    /// All extracted flow records, time-ordered: a read-only view of
    /// the interned window the model was built from. It also carries
    /// the entity catalog the model was built through
    /// ([`catalog`](Self::catalog)).
    pub records: WindowRecords,
    /// Per-application-group signatures.
    pub groups: Vec<GroupSignatures>,
    /// Inferred physical topology (PT).
    pub topology: PhysicalTopology,
    /// Inter-switch latency (ISL).
    pub latency: InterSwitchLatency,
    /// Controller response time (CRT).
    pub response: ControllerResponse,
    /// Link-utilization baseline (LU), from polled port counters.
    pub utilization: LinkUtilization,
    /// The log's time window.
    pub span: (Timestamp, Timestamp),
    /// Edge-indexed view of `records` ("when did this `(src, dst)`
    /// pair first appear?"), built once at assembly so the diff engine
    /// never re-scans the record list. Derived data: excluded from
    /// serialization and equality, like the catalog.
    pub edge_index: RecordIndex,
}

/// Equality ignores the catalog: two models are the same model if every
/// signature and (resolved) record agrees, regardless of the interning
/// order their catalogs happened to assign IDs in.
impl PartialEq for BehaviorModel {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.groups == other.groups
            && self.topology == other.topology
            && self.latency == other.latency
            && self.response == other.response
            && self.utilization == other.utilization
            && self.span == other.span
    }
}

/// Hand-written (field-order) serialization that skips the catalog and
/// the edge index: the records go out resolved, so the byte encoding is
/// identical to the pre-interning derived one, and IDs never leave the
/// process.
impl Serialize for BehaviorModel {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.records.serialize(out);
        self.signatures().serialize(out);
    }
}

impl Deserialize for BehaviorModel {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        // The records are interned into a fresh catalog: the IDs need
        // not match the writer's (IDs are process-local), only cover
        // every entity the records mention.
        let records = WindowRecords::deserialize(input)?;
        let groups = Vec::<GroupSignatures>::deserialize(input)?;
        let topology = PhysicalTopology::deserialize(input)?;
        let latency = InterSwitchLatency::deserialize(input)?;
        let response = ControllerResponse::deserialize(input)?;
        let utilization = LinkUtilization::deserialize(input)?;
        let span = <(Timestamp, Timestamp)>::deserialize(input)?;
        let edge_index = RecordIndex::of_window(&records);
        Ok(BehaviorModel {
            records,
            groups,
            topology,
            latency,
            response,
            utilization,
            span,
            edge_index,
        })
    }
}

/// Streaming model builder: folds flow records (from a
/// [`RecordAssembler`]) and raw control events as they arrive, and can
/// snapshot a full [`BehaviorModel`] at any point.
///
/// Records carry the bulk of the model; only two facts must come from
/// the raw event stream because they never become flow records —
/// switch liveness (any `ToController` message is a liveness proof) and
/// the link-utilization counter series. Both are accumulated
/// incrementally, so a snapshot costs one signature fan-out over the
/// records held, nothing proportional to the events seen.
///
/// The builder is `Clone`, which the oracles use to snapshot "what the
/// model would be if the in-flight flows completed now" without
/// disturbing the real accumulation, and supports
/// [`retire_before`](Self::retire_before) for sliding-window operation.
///
/// Each completion is held in exactly one place: in the arrival-order
/// inbox until the next [`epoch_snapshot`](Self::epoch_snapshot), then in
/// the interned window (`WindowState`). A builder that never runs
/// `epoch_snapshot` — the batch build, the shard merge, every oracle —
/// holds only its inbox.
///
/// The builder also serializes (its completions, span bookkeeping,
/// liveness proofs, the LU counter series) as part of an online
/// [`checkpoint`](crate::checkpoint); the record-derived signatures
/// need no state of their own here because they are rebuilt at every
/// snapshot from the records the builder holds. Equality and the wire
/// format are over these durable facts: the completions as one list in
/// window order (a count, then each record in address form), then the
/// rest in declaration order. Where a completion is held is not among
/// them, and neither is the config: a checkpoint names it by
/// fingerprint, and the restore installs the caller's.
///
/// The event-derived facts are crate-visible for the shard partials of
/// [`harness_seam`](crate::harness_seam).
#[derive(Debug, Clone)]
pub struct IncrementalModelBuilder {
    config: Derived<FlowDiffConfig>,
    /// Completions not yet folded into `ws`, in arrival order. They are
    /// interned only at the next boundary, after the caller's retirement
    /// pass, so one that ages out of the window first is never interned
    /// at all. (The online differ's assembler drops most such episodes
    /// before they get here: see [`RecordAssembler::set_floor`].)
    held: Vec<FlowRecord>,
    /// Span forced by the caller (batch wrappers use the log's time
    /// range; the online differ uses the window bounds).
    span_override: Option<(Timestamp, Timestamp)>,
    /// Min/max event timestamp seen, the fallback span.
    pub(crate) observed_span: Option<(Timestamp, Timestamp)>,
    /// Liveness proofs: datapath -> last `ToController` message seen.
    pub(crate) live: BTreeMap<DatapathId, Timestamp>,
    /// Port-counter series for the LU signature.
    pub(crate) lu: LuBuilder,
    /// The interned window of folded completions and still-open episodes,
    /// built at the first `epoch_snapshot`. Not in a checkpoint: its
    /// completions are carried by the list, and the first boundary after
    /// a restore rebuilds it from that list and the assembler's opens.
    ws: Derived<Option<WindowState>>,
}

impl IncrementalModelBuilder {
    /// What equality compares and a checkpoint carries.
    fn durable(&self) -> impl Serialize + PartialEq + '_ {
        (
            self.completions(),
            &self.span_override,
            &self.observed_span,
            &self.live,
            &self.lu,
        )
    }
}

impl PartialEq for IncrementalModelBuilder {
    fn eq(&self, other: &Self) -> bool {
        self.durable() == other.durable()
    }
}

impl Serialize for IncrementalModelBuilder {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.durable().serialize(out);
    }
}

impl Deserialize for IncrementalModelBuilder {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        Ok(IncrementalModelBuilder {
            config: Derived::default(),
            held: Vec::deserialize(input)?,
            span_override: Deserialize::deserialize(input)?,
            observed_span: Deserialize::deserialize(input)?,
            live: Deserialize::deserialize(input)?,
            lu: Deserialize::deserialize(input)?,
            ws: Derived(None),
        })
    }
}

/// The window order of a record: ascending `(first_seen, tuple)`.
fn key_of(record: &FlowRecord) -> (Timestamp, FlowTuple) {
    (record.first_seen, record.tuple)
}

/// The oldest key of two key-sorted lists.
fn oldest_key<R: Borrow<FlowRecord>>(
    done: &[FlowRecord],
    opens: &[R],
) -> Option<(Timestamp, FlowTuple)> {
    let done = done.first().map(key_of);
    done.into_iter()
        .chain(opens.first().map(|r| key_of(r.borrow())))
        .min()
}

/// Splits the records under `key` off the front of the key-sorted
/// `records`: an empty run when it starts at another key.
fn take_run<'a, R: Borrow<FlowRecord>>(
    records: &mut &'a [R],
    key: (Timestamp, FlowTuple),
) -> &'a [R] {
    let n = (records.iter())
        .take_while(|r| key_of((*r).borrow()) == key)
        .count();
    let (run, rest) = records.split_at(n);
    *records = rest;
    run
}

/// Turns `held`, one key's versions in the window, into the interned
/// `run` of that key, version for version: each held one is re-interned
/// in place ([`EntityCatalog::reintern`]), extra ones are interned, and
/// held ones past the run's end are dropped. Whether the number of
/// versions, or any version's hops, changed.
fn reversion<R: Borrow<FlowRecord>>(
    catalog: &mut EntityCatalog,
    held: &mut Vec<IRecord>,
    run: &[R],
) -> bool {
    let mut changed = held.len() != run.len();
    held.truncate(run.len());
    for (at, version) in run.iter().enumerate() {
        match held.get_mut(at) {
            Some(record) => changed |= catalog.reintern(record, version.borrow()),
            None => held.push(catalog.intern_record(version.borrow())),
        }
    }
    changed
}

/// The incremental-snapshot state: a persistent entity catalog and
/// every in-window episode — completed or still open — interned through
/// it once, in model order: ascending `(first_seen, tuple)`, and under
/// one key the completions (in arrival order) then the open episodes
/// (in assembler order). A flat sorted list, because
/// the window lives by appends at the young end, drains at the old end
/// and replacement in between; a boundary places what changed in one
/// merge pass over the tail from the oldest key it touches.
///
/// Records and catalog sit behind `Arc`s because every epoch's model
/// shares them as its [`WindowRecords`]. A boundary mutates them in
/// place through `Arc::make_mut`, which copies only while a model from
/// an earlier boundary is still alive: never in `watch` or `serve`,
/// which drop each snapshot once its line is out. The open flags are
/// the builder's alone and never shared.
///
/// The catalog only ever grows — dense IDs are process-local and
/// excluded from every output, so stale entries from retired records
/// are harmless — which is what lets the interned window keep its IDs
/// stable across epochs.
#[derive(Debug, Clone, Default)]
struct WindowState {
    catalog: Arc<EntityCatalog>,
    records: Arc<Vec<IRecord>>,
    /// `open[i]`: `records[i]` is the latest version of an episode the
    /// assembler still holds open, not a completion.
    open: Vec<bool>,
    /// Versions placed by the latest `epoch_snapshot`.
    synced: usize,
    /// DD, PT, ISL and CRT partials of the window's epoch-wide panes.
    /// Every change below notes the first-seen time of what it inserts,
    /// removes, or replaces with another edge or other hops, so the next
    /// snapshot rebuilds just those panes.
    panes: Panes,
}

impl WindowState {
    /// An empty window, cut into panes `epoch_us` wide.
    fn new(epoch_us: u64) -> WindowState {
        WindowState {
            panes: Panes::epochs(epoch_us),
            ..WindowState::default()
        }
    }

    /// Places one boundary's versions, each list sorted by key: `done`,
    /// the completions since the last boundary in arrival order under a
    /// key, and `opens`, the open versions handed over in assembler order
    /// under a key. One pass over the window from the oldest key either
    /// touches, rebuilding the tail as it goes. Under a touched key the
    /// completions held stay first. Then an evicted episode whose only
    /// completion is the open version already held just changes owner;
    /// any other completion displaces the key's open versions (the
    /// assembler hands the surviving ones over again). Handed-over
    /// versions become the key's opens. Untouched keys move as they are.
    fn place<R: Borrow<FlowRecord>>(&mut self, mut done: &[FlowRecord], mut opens: &[R]) {
        self.synced = 0;
        let key_at = |r: &IRecord| (r.first_seen, r.tuple);
        let Some(first) = oldest_key(done, opens) else {
            return;
        };
        let WindowState {
            catalog,
            records,
            open,
            synced,
            panes,
        } = self;
        let catalog = Arc::make_mut(catalog);
        let records = Arc::make_mut(records);
        let at = records.partition_point(|r| key_at(r) < first);
        let mut tail = records.split_off(at).into_iter();
        let mut tail_open = open.split_off(at).into_iter();
        // The open versions of the key being placed.
        let mut held = Vec::new();
        while let Some(key) = oldest_key(done, opens) {
            // Untouched keys move as they are.
            let n = (tail.as_slice().iter())
                .take_while(|r| key_at(r) < key)
                .count();
            records.extend(tail.by_ref().take(n));
            open.extend(tail_open.by_ref().take(n));
            // The key's completions stay first; its opens wait for the
            // versions that replace them.
            let n = (tail.as_slice().iter())
                .take_while(|r| key_at(r) == key)
                .count();
            for (record, was_open) in (tail.by_ref().take(n)).zip(tail_open.by_ref().take(n)) {
                if was_open {
                    held.push(record);
                } else {
                    records.push(record);
                    open.push(false);
                }
            }
            let mut changed = false;
            match take_run(&mut done, key) {
                [] => {}
                [one] if held.first().is_some_and(|h| catalog.resolves_to(h, one)) => {
                    records.push(held.remove(0));
                    open.push(false);
                }
                run => {
                    changed |= reversion(catalog, &mut held, run);
                    *synced += run.len();
                    open.extend(std::iter::repeat_n(false, held.len()));
                    records.append(&mut held);
                }
            }
            let run = take_run(&mut opens, key);
            if !run.is_empty() {
                changed |= reversion(catalog, &mut held, run);
                *synced += run.len();
            }
            if changed {
                panes.touch(key.0);
            }
            open.extend(std::iter::repeat_n(true, held.len()));
            records.append(&mut held);
        }
        records.extend(tail);
        open.extend(tail_open);
    }

    /// The completions, in window order and address form.
    fn completions(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        let window = WindowRecords::shared(&self.records, &self.catalog);
        (0..window.len())
            .filter(|&i| !self.open[i])
            .filter_map(move |i| window.get(i))
    }

    /// How many records are completions.
    fn completed(&self) -> usize {
        self.open.iter().filter(|&&open| !open).count()
    }

    /// Drops every record first seen before `cutoff`.
    fn retire_before(&mut self, cutoff: Timestamp) {
        let n = self.records.partition_point(|r| r.first_seen < cutoff);
        if n > 0 {
            // The newest record retired is in the one pane that may keep
            // some of its records.
            self.panes.touch(self.records[n - 1].first_seen);
            Arc::make_mut(&mut self.records).drain(..n);
            self.open.drain(..n);
        }
    }
}

impl IncrementalModelBuilder {
    /// A fresh builder; `config` is cloned so the builder is
    /// self-contained (it outlives batch call frames in online mode).
    pub fn new(config: &FlowDiffConfig) -> IncrementalModelBuilder {
        IncrementalModelBuilder {
            config: Derived(config.clone()),
            held: Vec::new(),
            span_override: None,
            observed_span: None,
            live: BTreeMap::new(),
            lu: LuBuilder::default(),
            ws: Derived(None),
        }
    }

    /// The builder under `config`: how a restored builder, which
    /// deserializes without one, gets the caller's.
    pub(crate) fn with_config(self, config: &FlowDiffConfig) -> IncrementalModelBuilder {
        IncrementalModelBuilder {
            config: Derived(config.clone()),
            ..self
        }
    }

    /// Accepts one completed flow record into the inbox, where it waits
    /// for the next [`epoch_snapshot`](Self::epoch_snapshot) to fold
    /// whatever survives retirement into the window.
    pub fn observe_record(&mut self, record: FlowRecord) {
        self.held.push(record);
    }

    /// Folds one raw control event: tracks the observed span, switch
    /// liveness, and the LU counter series. Events that also drive flow
    /// records go through the [`RecordAssembler`] separately.
    pub fn observe_event(&mut self, event: impl Into<FlowEvent>) {
        self.fold_event(&event.into());
    }

    /// [`observe_event`](Self::observe_event) for an event the caller
    /// also hands to the assembler: read in place, not copied.
    pub(crate) fn fold_event(&mut self, event: &FlowEvent) {
        match &mut self.observed_span {
            Some((lo, hi)) => {
                *lo = (*lo).min(event.ts);
                *hi = (*hi).max(event.ts);
            }
            None => self.observed_span = Some((event.ts, event.ts)),
        }
        if event.direction == Direction::ToController {
            // Keep the *newest* proof per datapath even under disordered
            // arrival: insert-last-wins would let a stale straggler
            // overwrite a fresher proof, making liveness
            // arrival-order-sensitive.
            let newest = self.live.entry(event.dpid).or_insert(event.ts);
            if event.ts > *newest {
                *newest = event.ts;
            }
        }
        self.lu.observe_event(event);
    }

    /// Forces the snapshot span (overrides the observed event range).
    pub fn set_span(&mut self, span: (Timestamp, Timestamp)) {
        self.span_override = Some(span);
    }

    /// Drops state older than `cutoff`: records first seen before it,
    /// counter samples polled before it, and liveness proofs not
    /// refreshed since. This is what keeps a sliding-window online
    /// builder's memory proportional to the window, not the stream.
    pub fn retire_before(&mut self, cutoff: Timestamp) {
        self.held.retain(|r| r.first_seen >= cutoff);
        if let Some(ws) = &mut self.ws.0 {
            ws.retire_before(cutoff);
        }
        self.lu.retire_before(cutoff);
        self.live.retain(|_, ts| *ts >= cutoff);
    }

    /// Completions currently held (post-retirement), folded or not.
    pub fn record_count(&self) -> usize {
        self.held.len() + self.ws.0.as_ref().map_or(0, WindowState::completed)
    }

    /// Every completion held, in window order and address form: the
    /// window's, then the inbox's, which under one key arrived later.
    pub(crate) fn completions(&self) -> Vec<FlowRecord> {
        let mut out = Vec::with_capacity(self.record_count());
        out.extend(self.ws.0.iter().flat_map(WindowState::completions));
        out.extend_from_slice(&self.held);
        // Stable: the window's completions stay first under their key.
        out.sort_by_key(key_of);
        out
    }

    /// How many versions the latest [`epoch_snapshot`](Self::epoch_snapshot)
    /// placed into the window: the whole window the first time (and the
    /// first time after a restore), afterwards only the inbox's
    /// completions that survived retirement, less those that only
    /// changed owner, and the open episodes handed to it.
    pub fn epoch_synced(&self) -> usize {
        self.ws.0.as_ref().map_or(0, |ws| ws.synced)
    }

    /// How many epoch-wide panes of the window the latest
    /// [`epoch_snapshot`](Self::epoch_snapshot) rebuilt their DD, PT,
    /// ISL and CRT partials for: every pane the first time (and the first
    /// time after a restore), afterwards the panes whose records changed
    /// and, for DD, the panes up to
    /// [`DD_WINDOW_US`](crate::config::DD_WINDOW_US) before those.
    pub fn epoch_panes_rebuilt(&self) -> usize {
        self.ws.0.as_ref().map_or(0, |ws| ws.panes.rebuilt())
    }

    /// The min/max event timestamp observed so far (None before the
    /// first event).
    pub fn observed_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.observed_span
    }

    /// Consumes the builder into a snapshot over every completion held,
    /// interned afresh: the shard merge's path, and the
    /// rebuild-from-scratch oracle the tests hold the incremental path
    /// (the final flush's included) against. On a builder that never ran
    /// [`epoch_snapshot`](Self::epoch_snapshot) this sorts and interns its
    /// inbox, nothing else.
    pub fn into_snapshot(self) -> BehaviorModel {
        let log = InternedLog::of(&self.completions());
        self.finish_records(log)
    }

    /// Snapshots the model for one epoch via the maintained window
    /// state — the online differ's delta path, at every boundary and at
    /// the final flush, which hands over no opens because every episode
    /// has completed. `opens` are still-open
    /// episodes, modeled as if they completed now: the current version
    /// of every in-window one that changed since the previous call
    /// ([`RecordAssembler::touched_open_records_since`]). Each replaces
    /// the version held under its `(first_seen, tuple)` key — an
    /// unchanged one is a no-op, so passing every in-window open is
    /// equally correct, just without the saving — and stays in the
    /// maintained state until a completion under its key supersedes it
    /// or [`retire_before`](Self::retire_before) slides past it. The
    /// result is `PartialEq`- and serialization-byte-identical to
    /// [`Self::into_snapshot`] over the same records with the same span,
    /// but costs one fan-out over *groups*, one merge pass over the
    /// window from the oldest key that changed, and interning work
    /// proportional to what changed in the episodes handed over. The
    /// model shares the maintained window rather than copying it (see
    /// `WindowState`); the opens are only read, so the caller may lend
    /// them.
    pub fn epoch_snapshot<R: Borrow<FlowRecord>>(
        &mut self,
        span: (Timestamp, Timestamp),
        mut opens: Vec<R>,
    ) -> BehaviorModel {
        // Both sorts are stable, so same-key completions keep arrival
        // order and same-key opens their assembler order — exactly where
        // the batch core's stable sort would leave them.
        let mut held = std::mem::take(&mut self.held);
        held.sort_by_key(key_of);
        opens.sort_by_key(|r| key_of(r.borrow()));
        let epoch_us = self.config.0.online_epoch_us;
        let ws = (self.ws.0).get_or_insert_with(|| WindowState::new(epoch_us));
        ws.place(&held, &opens);

        let records = WindowRecords::shared(&ws.records, &ws.catalog);
        let model = model_of(records, span, &self.config.0, &mut ws.panes);
        self.with_event_facts(model)
    }

    /// The snapshot core: runs the shared fan-out over `log`, the held
    /// records interned into a fresh catalog in window order (which is
    /// already the model order) — IDs are process-local, so nothing
    /// requires the assignment to be stable across snapshots. Window and
    /// catalog are derived from nothing but the held records, which is
    /// what makes [`into_snapshot`](Self::into_snapshot) an oracle for the
    /// maintained state.
    fn finish_records(&self, log: InternedLog) -> BehaviorModel {
        let span = self
            .span_override
            .or(self.observed_span)
            .unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        let model = model_of(log.into(), span, &self.config.0, &mut Panes::default());
        self.with_event_facts(model)
    }

    /// Attaches the two facts that come from raw events, not records.
    fn with_event_facts(&self, mut model: BehaviorModel) -> BehaviorModel {
        model
            .topology
            .live_switches
            .extend(self.live.keys().copied());
        model.utilization = self.lu.finalize();
        model
    }
}

/// The one place signatures are built from a window: `records` interned
/// and sorted by `(first_seen, tuple)`, which the model then keeps.
/// Discovers groups, then builds per group CG, FS, CI and PC, folds DD
/// per group and PT, ISL and CRT from `panes` — the window's panes, or
/// one pane for all of it — and builds the edge index. Each group's
/// builds bucket records by the edge slots discovery numbered, so no
/// build hashes an edge. Serial: a scoped thread pool over these builds
/// measured no faster (DESIGN.md, "Rejected").
fn model_of(
    records: WindowRecords,
    span: (Timestamp, Timestamp),
    config: &FlowDiffConfig,
    panes: &mut Panes,
) -> BehaviorModel {
    let catalog: &EntityCatalog = records.catalog();
    let refs: Vec<&IRecord> = records.interned().iter().collect();
    let Discovery {
        groups,
        slots,
        owners,
    } = discover_window(&refs, catalog, config);
    let Folded {
        delay,
        topology,
        latency,
        response,
    } = panes.fold(&refs, span.1, catalog, config, &owners, groups.len());
    let groups = groups
        .into_iter()
        .zip(delay)
        .map(|(group, delay)| {
            let group_records: Vec<&IRecord> =
                group.record_indices.iter().map(|&i| refs[i]).collect();
            let edge_slots = EdgeSlots::of_group(&group, &group_records, &slots);
            let inputs = SignatureInputs::new(&group_records, catalog, span, config)
                .with_edge_slots(&edge_slots);
            // CG is exactly the group's own edge classification,
            // already computed by discovery — cloned, not rebuilt.
            let connectivity = ConnectivityGraph {
                edges: group.edges.clone(),
                service_edges: group.service_edges.clone(),
            };
            let flow_stats = FlowStatsSig::build(&inputs);
            let interaction = ComponentInteraction::build(&inputs);
            let correlation = PartialCorrelation::build(&inputs);
            GroupSignatures {
                group,
                connectivity,
                flow_stats,
                interaction,
                delay,
                correlation,
            }
        })
        .collect();
    let edge_index = RecordIndex::of_window(&records);
    BehaviorModel {
        records,
        groups,
        topology,
        latency,
        response,
        utilization: LinkUtilization::default(),
        span,
        edge_index,
    }
}

impl BehaviorModel {
    /// Builds the full model from a controller log by streaming its
    /// events, each converted once to a [`FlowEvent`], through a
    /// [`RecordAssembler`] and an [`IncrementalModelBuilder`] — the
    /// batch API is a thin wrapper over the streaming path.
    pub fn build(log: &ControllerLog, config: &FlowDiffConfig) -> BehaviorModel {
        let mut assembler = RecordAssembler::new(config);
        let mut builder = IncrementalModelBuilder::new(config);
        for event in log.events() {
            let event = FlowEvent::from(event);
            builder.fold_event(&event);
            assembler.observe(event);
        }
        if let Some(span) = log.time_range() {
            builder.set_span(span);
        }
        // `finish` already returns the records in model order, so they
        // are interned straight from its list, never held keyed.
        let log = InternedLog::of(&assembler.finish());
        builder.finish_records(log)
    }

    /// The group containing `ip` as a member, if any.
    pub fn group_of(&self, ip: std::net::Ipv4Addr) -> Option<&GroupSignatures> {
        self.groups.iter().find(|g| g.group.members.contains(&ip))
    }

    /// The entity interner the model was built through, shared by its
    /// records and its edge index. IDs are process-local
    /// (assignment-order artifacts), so the catalog is excluded from
    /// serialization, equality, and all rendered output — it exists to
    /// resolve dense IDs and to answer entity-count / memory-footprint
    /// queries.
    pub fn catalog(&self) -> &EntityCatalog {
        self.records.catalog()
    }

    /// Approximate in-memory footprint of the model in bytes: the
    /// serialized size of the address-keyed signature state plus the
    /// heap footprint of the unserialized derived structures — the
    /// entity catalog, counted once although the records and the edge
    /// index share it, and the edge index's own first-seen table.
    pub fn approx_bytes(&self) -> usize {
        let serialized = self.records.serialized_len() + serde::to_vec(&self.signatures()).len();
        serialized + self.catalog().approx_bytes() + self.edge_index.approx_bytes()
    }

    /// Every serialized field after the records, in order.
    fn signatures(&self) -> impl Serialize + '_ {
        let BehaviorModel {
            groups,
            topology,
            latency,
            response,
            utilization,
            span,
            ..
        } = self;
        (groups, topology, latency, response, utilization, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::extract_records;
    use openflow::types::Timestamp;
    use std::net::Ipv4Addr;
    use workloads::prelude::*;

    /// The webshop's three tiers at 8 req/s for 30 s.
    fn scenario_log() -> (ControllerLog, FlowDiffConfig) {
        let lab = Lab::new();
        let (web, app, db) = (lab.ip("S13"), lab.ip("S4"), lab.ip("S14"));
        let client = lab.ip("S25");
        let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
        let mut sc = Scenario::new(
            lab.topo,
            5,
            Timestamp::from_secs(1),
            Timestamp::from_secs(31),
        );
        sc.services(lab.catalog)
            .app(templates::three_tier(
                "rubis",
                vec![web],
                vec![app],
                vec![db],
                None,
            ))
            .client(ClientWorkload {
                client,
                entry_hosts: vec![web],
                entry_port: 80,
                process: ArrivalProcess::poisson_per_sec(8.0),
                request_bytes: 2_048,
            });
        (sc.run().log, config)
    }

    #[test]
    fn a_packet_in_without_a_tuple_still_moves_the_clock_and_liveness() {
        use openflow::frame::build_frame;
        use openflow::match_fields::FlowKey;
        use openflow::messages::{OfpMessage, PacketIn, PacketInReason};
        use openflow::types::{BufferId, DatapathId, PortNo, Xid};

        let config = FlowDiffConfig::default();
        let horizon = config.partial_flow_timeout_us.max(config.episode_gap_us);
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let packet_in = |us: u64, dpid: u64, data: std::sync::Arc<[u8]>| ControlEvent {
            ts: Timestamp::from_micros(us),
            dpid: DatapathId(dpid),
            direction: Direction::ToController,
            xid: Xid(1),
            msg: OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: 128,
                in_port: PortNo(1),
                reason: PacketInReason::NoMatch,
                data,
            }),
        };
        let frame = build_frame(&key, 128);
        let opening = packet_in(1_000, 1, frame.clone());
        let (late_us, truncated) = (1_000 + horizon + 1, frame[..20].into());
        let late = packet_in(late_us, 2, truncated);
        assert!(matches!(
            FlowEvent::from(&late).body,
            EventBody::PacketIn { tuple: None, .. }
        ));

        let mut assembler = RecordAssembler::new(&config);
        let mut builder = IncrementalModelBuilder::new(&config);
        for event in [&opening, &late] {
            builder.observe_event(event);
            assembler.observe(event);
        }
        let late_ts = Timestamp::from_micros(late_us);
        assert_eq!(
            builder.observed_span(),
            Some((Timestamp::from_micros(1_000), late_ts))
        );
        assert_eq!(builder.live.get(&DatapathId(2)), Some(&late_ts));
        // The assembler's clock moved a horizon past the opening hop, so
        // its idle episode was evicted; the tuple-less event opened none.
        assert_eq!(assembler.take_completed().len(), 1);
        assert_eq!(assembler.open_len(), 0);
    }

    fn model_from_scenario() -> BehaviorModel {
        let (log, config) = scenario_log();
        BehaviorModel::build(&log, &config)
    }

    #[test]
    fn end_to_end_model_of_three_tier_app() {
        let m = model_from_scenario();
        assert!(!m.records.is_empty());
        assert_eq!(m.groups.len(), 1, "one application group");
        let g = &m.groups[0];
        assert_eq!(g.group.members.len(), 4, "client+web+app+db");
        assert_eq!(g.connectivity.edges.len(), 3, "three-edge chain");
        assert!(g.flow_stats.flow_count > 50);
        // DD: web->app against app->db should expose the 60ms app delay
        let peaks = g.delay.peaks(5);
        assert!(!peaks.is_empty());
        // PT/ISL/CRT populated
        assert!(!m.topology.adjacencies.is_empty());
        assert!(!m.latency.per_pair.is_empty());
        assert!(m.response.overall.n > 100);
    }

    #[test]
    fn group_lookup_by_member() {
        let m = model_from_scenario();
        let member = *m.groups[0].group.members.iter().next().unwrap();
        assert!(m.group_of(member).is_some());
        assert!(m.group_of(Ipv4Addr::new(1, 2, 3, 4)).is_none());
    }

    #[test]
    fn empty_log_builds_empty_model() {
        let log = netsim::log::ControllerLog::new();
        let m = BehaviorModel::build(&log, &FlowDiffConfig::default());
        assert!(m.records.is_empty());
        assert!(m.groups.is_empty());
        assert_eq!(m.response.overall.n, 0);
    }

    #[test]
    fn event_streamed_builder_matches_batch_build() {
        // Feed events one at a time (record assembly, liveness, and LU
        // accumulation all incremental) and compare against the one-shot
        // build of the same log.
        let (log, config) = scenario_log();
        let batch = BehaviorModel::build(&log, &config);
        let mut assembler = RecordAssembler::new(&config);
        let mut builder = IncrementalModelBuilder::new(&config);
        for event in log.events() {
            assembler.observe(event);
            builder.observe_event(event);
            for record in assembler.take_completed() {
                builder.observe_record(record);
            }
        }
        for record in assembler.finish() {
            builder.observe_record(record);
        }
        if let Some(span) = log.time_range() {
            builder.set_span(span);
        }
        let streamed = builder.into_snapshot();
        assert_eq!(batch, streamed, "mid-stream draining must not matter");
        assert!(!streamed.utilization.per_port.is_empty() || log.events().is_empty());
    }

    #[test]
    fn retire_before_drops_old_state() {
        let (log, config) = scenario_log();
        let mut builder = IncrementalModelBuilder::new(&config);
        for event in log.events() {
            builder.observe_event(event);
        }
        for record in extract_records(&log, &config) {
            builder.observe_record(record);
        }
        let before = builder.record_count();
        assert!(before > 0);
        let (_, end) = log.time_range().unwrap();
        builder.retire_before(end + 1);
        assert_eq!(builder.record_count(), 0);
        let m = builder.into_snapshot();
        assert!(m.groups.is_empty());
        assert!(m.utilization.per_port.is_empty());
        assert!(m.topology.live_switches.is_empty());
    }

    #[test]
    fn epoch_snapshot_keeps_model_order_through_same_key_ties() {
        use crate::records::HopReport;
        use openflow::types::{IpProto, PortNo, Xid};

        // Hostile input: two episodes of one tuple sharing a first
        // `PacketIn` timestamp, so both live under one window key.
        let rec = |sport: u16, xid: u32, bytes: u64| FlowRecord {
            tuple: FlowTuple {
                src: Ipv4Addr::new(10, 0, 0, 1),
                sport,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_secs(5),
            hops: vec![HopReport {
                ts: Timestamp::from_secs(5),
                dpid: DatapathId(1),
                in_port: PortNo(1),
                xid: Xid(xid),
                flow_mod_ts: Some(Timestamp::from_micros(5_000_300)),
                out_port: Some(PortNo(2)),
            }],
            byte_count: bytes,
            packet_count: 0,
            duration_s: 0.0,
        };
        let (a1, a2, b1) = (rec(4000, 1, 0), rec(4000, 1, 900), rec(4000, 2, 0));
        let (c1, c2) = (rec(4001, 3, 0), rec(4001, 3, 700));
        let span = (Timestamp::from_secs(1), Timestamp::from_secs(9));
        let mut builder = IncrementalModelBuilder::new(&FlowDiffConfig::default());
        // Fed the same completions, never epoch-snapshotted: it holds
        // them all in its inbox.
        let mut oracle = IncrementalModelBuilder::new(&FlowDiffConfig::default());
        // (completions since the last step, opens handed over, opens
        // alive, records interned): what an assembler following the
        // `touched_open_records_since` contract would produce.
        type Records<'a> = &'a [&'a FlowRecord];
        let steps: [(Records, Records, Records, usize); 6] = [
            (&[], &[&a1, &b1, &c1], &[&a1, &b1, &c1], 3),
            // B evicted as synced while its older sibling stays open:
            // the completion goes first, the sibling is handed again.
            (&[&b1], &[&a1], &[&a1, &c1], 2),
            (&[], &[&a2], &[&a2, &c1], 1),
            // A evicted as synced: changes owner, nothing re-interned.
            (&[&a2], &[], &[&c1], 0),
            // C touched, then evicted before the boundary.
            (&[&c2], &[], &[], 1),
            (&[], &[], &[], 0),
        ];
        for (i, (done, handed, alive, interned)) in steps.into_iter().enumerate() {
            for record in done {
                builder.observe_record((*record).clone());
                oracle.observe_record((*record).clone());
            }
            let mut probe = oracle.clone();
            for open in alive {
                probe.observe_record((*open).clone());
            }
            probe.set_span(span);
            let expected = probe.into_snapshot();
            let model = builder.epoch_snapshot(span, handed.to_vec());
            assert_eq!(model, expected, "step {i}");
            assert_eq!(serde::to_vec(&model), serde::to_vec(&expected), "step {i}");
            assert_eq!(builder.epoch_synced(), interned, "step {i}");
        }
        // A turned-over window leaves nothing behind.
        builder.retire_before(Timestamp::from_secs(6));
        let empty: Vec<FlowRecord> = Vec::new();
        assert!(builder.epoch_snapshot(span, empty).records.is_empty());
    }

    #[test]
    fn epoch_snapshot_places_every_kind_of_version() {
        use crate::records::HopReport;
        use openflow::types::{IpProto, PortNo, Xid};

        // One hop at `ms` on switch `dpid`; `out` is the port of the
        // `FlowMod` that answered it, sent a millisecond later.
        let hop = |ms: u64, dpid: u64, xid: u32, out: Option<u16>| HopReport {
            ts: Timestamp::from_millis(ms),
            dpid: DatapathId(dpid),
            in_port: PortNo(1),
            xid: Xid(xid),
            flow_mod_ts: out.map(|_| Timestamp::from_millis(ms + 1)),
            out_port: out.map(PortNo),
        };
        // An episode of tuple `sport` first seen at its first hop.
        let rec = |sport: u16, hops: Vec<HopReport>, bytes: u64| FlowRecord {
            tuple: FlowTuple {
                src: Ipv4Addr::new(10, 0, 0, 1),
                sport,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: hops[0].ts,
            hops,
            byte_count: bytes,
            packet_count: bytes / 100,
            duration_s: 0.0,
        };
        let c6 = rec(2, vec![hop(6_000, 1, 1, Some(2))], 400);
        let c6b = rec(2, vec![hop(6_000, 1, 2, Some(2))], 600);
        let o10 = rec(3, vec![hop(10_000, 1, 3, Some(2))], 0);
        let o10_longer = rec(
            3,
            vec![hop(10_000, 1, 3, Some(2)), hop(10_004, 2, 3, None)],
            0,
        );
        let o2 = rec(1, vec![hop(2_000, 1, 4, Some(2))], 0);
        let o2_counted = rec(1, vec![hop(2_000, 1, 4, Some(2))], 300);
        let o8a = rec(4, vec![hop(8_000, 1, 5, Some(2))], 0);
        let d8a = rec(4, vec![hop(8_000, 1, 5, Some(2))], 500);
        let o8b = rec(4, vec![hop(8_000, 3, 6, None)], 0);
        let o12 = rec(5, vec![hop(12_000, 1, 7, None)], 0);
        let o12_patched = rec(5, vec![hop(12_000, 1, 7, Some(3))], 0);
        let o4 = rec(6, vec![hop(4_000, 2, 8, Some(1))], 0);
        let d5 = rec(7, vec![hop(5_000, 2, 9, Some(1))], 900);
        let d12 = rec(
            5,
            vec![hop(12_000, 1, 7, Some(3)), hop(12_003, 2, 7, Some(4))],
            800,
        );

        let config = FlowDiffConfig {
            online_epoch_us: 1_000_000,
            ..FlowDiffConfig::default()
        };
        let span = (Timestamp::ZERO, Timestamp::from_secs(20));
        let mut builder = IncrementalModelBuilder::new(&config);
        // Fed the same completions, never epoch-snapshotted.
        let mut oracle = IncrementalModelBuilder::new(&config);
        // (completions since the last step, opens handed over, opens
        // alive, records interned, panes rebuilt).
        type Records<'a> = &'a [&'a FlowRecord];
        let steps: [(Records, Records, Records, usize, usize); 9] = [
            (&[&c6], &[&o10], &[&o10], 2, 2),
            // Opens before, between and after the held keys.
            (&[], &[&o2, &o8a, &o12], &[&o2, &o8a, &o10, &o12], 3, 3),
            // A sibling joins the 8 s key; the assembler hands both.
            (&[], &[&o8a, &o8b], &[&o2, &o8a, &o8b, &o10, &o12], 2, 1),
            // The first sibling completes with counters: a displacement,
            // the survivor handed again; the 6 s key gains a completion.
            (&[&c6b, &d8a], &[&o8b], &[&o2, &o8b, &o10, &o12], 3, 2),
            // An appended hop on a new switch and a `FlowMod` patch.
            (
                &[],
                &[&o10_longer, &o12_patched],
                &[&o2, &o8b, &o10_longer, &o12_patched],
                2,
                2,
            ),
            // Counters alone: nothing to rebuild.
            (
                &[],
                &[&o2_counted],
                &[&o2_counted, &o8b, &o10_longer, &o12_patched],
                1,
                0,
            ),
            // Evicted as held: an owner change, nothing re-interned.
            (
                &[&o2_counted],
                &[],
                &[&o8b, &o10_longer, &o12_patched],
                0,
                0,
            ),
            // A straggler's late first `PacketIn` mid-window, and an
            // episode opened and evicted between two boundaries.
            (
                &[&d5],
                &[&o4],
                &[&o4, &o8b, &o10_longer, &o12_patched],
                2,
                2,
            ),
            // Evicted with a hop added since it was handed over.
            (&[&d12], &[], &[&o4, &o8b, &o10_longer], 1, 1),
        ];
        for (i, (done, handed, alive, interned, rebuilt)) in steps.into_iter().enumerate() {
            for record in done {
                builder.observe_record((*record).clone());
                oracle.observe_record((*record).clone());
            }
            let mut probe = oracle.clone();
            for open in alive {
                probe.observe_record((*open).clone());
            }
            probe.set_span(span);
            let expected = probe.into_snapshot();
            let model = builder.epoch_snapshot(span, handed.to_vec());
            assert_eq!(model, expected, "step {i}");
            assert_eq!(serde::to_vec(&model), serde::to_vec(&expected), "step {i}");
            assert_eq!(builder.epoch_synced(), interned, "step {i}");
            assert_eq!(builder.epoch_panes_rebuilt(), rebuilt, "step {i}");
        }
    }

    #[test]
    fn epoch_models_share_the_window_copy_on_write() {
        use crate::epoch::EpochClock;

        // The online differ's boundary, 1 s epochs over a 5 s window.
        let (log, config) = scenario_log();
        let config = FlowDiffConfig {
            online_epoch_us: 1_000_000,
            online_window_us: 5_000_000,
            ..config
        };
        let mut clock = EpochClock::new(config.online_epoch_us, config.online_window_us);
        let mut assembler = RecordAssembler::new(&config);
        let mut builder = IncrementalModelBuilder::new(&config);
        // Fed and retired alike, never epoch-snapshotted.
        let mut oracle_builder = IncrementalModelBuilder::new(&config);
        // Epoch 10's model is held across epochs 11 and 12; every other
        // model is dropped before the next boundary.
        let (hold, release) = (10, 12);
        let mut held: Option<(BehaviorModel, Vec<u8>)> = None;
        let (mut window, mut copies, mut boundaries) = (None, 0, 0);
        for event in log.events() {
            for (epoch, boundary) in clock.advance(event.ts) {
                for record in assembler.take_completed() {
                    oracle_builder.observe_record(record.clone());
                    builder.observe_record(record);
                }
                let start = clock.window_start(boundary);
                builder.retire_before(start);
                oracle_builder.retire_before(start);
                let oracle = {
                    let mut probe = oracle_builder.clone();
                    for open in assembler.open_records_since(start) {
                        probe.observe_record(open);
                    }
                    probe.set_span((start, boundary));
                    probe.into_snapshot()
                };
                let opens = assembler.touched_open_records_since(start);
                let model = builder.epoch_snapshot((start, boundary), opens);
                assert_eq!(model.records.len(), oracle.records.len(), "epoch {epoch}");
                let pairs = model.records.iter().zip(oracle.records.iter());
                for (i, (got, want)) in pairs.enumerate() {
                    assert_eq!(got, want, "epoch {epoch}, record {i}");
                }

                let ws = builder.ws.0.as_ref().expect("built at the first boundary");
                let shared = std::ptr::eq(model.records.interned(), ws.records.as_slice());
                assert!(shared, "epoch {epoch}");
                let at = Arc::as_ptr(&ws.records);
                if window.is_some_and(|before| before != at) {
                    copies += 1;
                    assert_eq!(epoch, hold + 1, "only a held model costs a copy");
                }
                window = Some(at);
                boundaries += 1;

                if let Some((model, bytes)) = &held {
                    assert_eq!(&serde::to_vec(model), bytes, "held model, epoch {epoch}");
                }
                if epoch == hold {
                    held = Some((model.clone(), serde::to_vec(&model)));
                } else if epoch == release {
                    held = None;
                }
            }
            assembler.observe(event);
            builder.observe_event(event);
            oracle_builder.observe_event(event);
            for record in assembler.take_completed() {
                oracle_builder.observe_record(record.clone());
                builder.observe_record(record);
            }
        }
        assert!(boundaries > release, "{boundaries} boundaries");
        assert_eq!(copies, 1, "one held model, one copy of the window");
    }

    #[test]
    fn live_switches_deduplicate_repeated_liveness_proofs() {
        // Every switch sends many control messages over the capture; the
        // liveness set must hold each datapath id exactly once (it is a
        // set keyed by DatapathId, not an append-only list).
        let m = model_from_scenario();
        assert!(!m.topology.live_switches.is_empty());
        let unique: std::collections::BTreeSet<_> =
            m.topology.live_switches.iter().copied().collect();
        assert_eq!(unique.len(), m.topology.live_switches.len());
    }
}
