//! The model diff engine (Section IV-A).
//!
//! Compares the signatures of two behavior models group by group through
//! the [`Signature`] trait: each signature diffs itself, gates the
//! result through its [`StabilityMask`], and renders the survivors into
//! the tagged [`Change`] vocabulary. The engine never pattern-matches on
//! concrete change types — adding a tenth signature means implementing
//! the trait, not editing this file.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::change::{Change, SignatureKind};
use crate::checkpoint::BaselineBundle;
use crate::config::{ConfigError, FlowDiffConfig};
use crate::derived::Derived;
use crate::epoch::EpochClock;
use crate::groups::{match_group_refs, AppGroup};
use crate::model::{BehaviorModel, IncrementalModelBuilder, ShardModel};
use crate::records::{
    Admitted, EventClass, FlowRecord, IngestHealth, RecordAssembler, RoutedEvent, Sequencer,
    ShardRouter,
};
use crate::signatures::{DiffCtx, Signature, StabilityMask};
use crate::stability::StabilityReport;
use netsim::log::ControlEvent;

/// Differences in one application group matched across the two models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupDiff {
    /// Index of the group in the reference model.
    pub ref_idx: usize,
    /// Index of the matched group in the current model.
    pub cur_idx: usize,
    /// All stability-gated changes of this group, tagged by signature.
    pub changes: Vec<Change>,
}

impl GroupDiff {
    /// True when nothing changed in this group.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The changes of one signature kind.
    pub fn of_kind(&self, kind: SignatureKind) -> impl Iterator<Item = &Change> {
        self.changes.iter().filter(move |c| c.kind == kind)
    }
}

/// The complete diff of two behavior models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelDiff {
    /// Per-matched-group differences.
    pub group_diffs: Vec<GroupDiff>,
    /// Groups present only in the current model (indices into it).
    pub new_groups: Vec<usize>,
    /// Groups present only in the reference model (indices into it).
    pub missing_groups: Vec<usize>,
    /// Infrastructure changes (PT, ISL, LU, CRT), tagged by signature.
    pub infra: Vec<Change>,
}

impl ModelDiff {
    /// True when the models agree on every stable signature.
    pub fn is_empty(&self) -> bool {
        self.group_diffs.iter().all(GroupDiff::is_empty)
            && self.new_groups.is_empty()
            && self.missing_groups.is_empty()
            && self.infra.is_empty()
    }

    /// The infrastructure changes of one signature kind.
    pub fn infra_of_kind(&self, kind: SignatureKind) -> impl Iterator<Item = &Change> {
        self.infra.iter().filter(move |c| c.kind == kind)
    }
}

/// Diffs one signature pair through the trait, gated by the stability
/// mask when the stability pass produced one (a missing mask means the
/// signature was not judged: fall back to its own all-stable mask).
fn gated<S: Signature>(
    reference: &S,
    current: &S,
    ctx: &DiffCtx<'_>,
    mask: Option<&StabilityMask>,
) -> Vec<Change> {
    match mask {
        Some(m) => reference.tagged_diff(current, ctx, m),
        None => reference.tagged_diff(current, ctx, &reference.stable_mask()),
    }
}

/// Compares two models, gated by the reference model's stability report
/// (index-aligned with `reference.groups`).
pub fn compare(
    reference: &BehaviorModel,
    current: &BehaviorModel,
    stability: &StabilityReport,
    config: &FlowDiffConfig,
) -> ModelDiff {
    let ref_groups: Vec<&AppGroup> = reference.groups.iter().map(|g| &g.group).collect();
    let cur_groups: Vec<&AppGroup> = current.groups.iter().map(|g| &g.group).collect();
    let (pairs, missing_groups, new_groups) = match_group_refs(&ref_groups, &cur_groups);
    // A current group whose members all belonged to one reference group
    // is a *fragment* of it (e.g. a tier cut off by a failure), not a
    // new application: the per-group CG diff already covers it.
    let new_groups: Vec<usize> = new_groups
        .into_iter()
        .filter(|&gi| {
            let members = &cur_groups[gi].members;
            !ref_groups
                .iter()
                .any(|r| members.iter().all(|m| r.members.contains(m)))
        })
        .collect();

    // The current model carries an edge index built at assembly; the
    // two models have independent catalogs, so everything crossing the
    // reference/current boundary is resolved to addresses — IDs never
    // cross logs.
    let ctx = DiffCtx {
        config,
        records: &current.edge_index,
    };

    let group_diffs = pairs
        .into_iter()
        .map(|(ri, ci)| {
            let r = &reference.groups[ri];
            let c = &current.groups[ci];
            let stab = &stability.per_group[ri];

            let mut changes = Vec::new();
            changes.extend(gated(
                &r.connectivity,
                &c.connectivity,
                &ctx,
                stab.mask(SignatureKind::Cg),
            ));
            changes.extend(gated(
                &r.flow_stats,
                &c.flow_stats,
                &ctx,
                stab.mask(SignatureKind::Fs),
            ));
            changes.extend(gated(
                &r.interaction,
                &c.interaction,
                &ctx,
                stab.mask(SignatureKind::Ci),
            ));
            changes.extend(gated(
                &r.delay,
                &c.delay,
                &ctx,
                stab.mask(SignatureKind::Dd),
            ));
            changes.extend(gated(
                &r.correlation,
                &c.correlation,
                &ctx,
                stab.mask(SignatureKind::Pc),
            ));

            GroupDiff {
                ref_idx: ri,
                cur_idx: ci,
                changes,
            }
        })
        .collect();

    // Infrastructure signatures are judged wholesale and never gated by
    // the application stability pass.
    let mut infra = Vec::new();
    infra.extend(gated(&reference.topology, &current.topology, &ctx, None));
    infra.extend(gated(&reference.latency, &current.latency, &ctx, None));
    infra.extend(gated(
        &reference.utilization,
        &current.utilization,
        &ctx,
        None,
    ));
    infra.extend(gated(&reference.response, &current.response, &ctx, None));

    ModelDiff {
        group_diffs,
        new_groups,
        missing_groups,
        infra,
    }
}

/// Health of one signature's input feed at an epoch boundary.
///
/// A detector whose inputs are starved should lower its confidence
/// rather than flood the operator with false "missing behavior"
/// alarms. The [`OnlineDiffer`] judges every signature at each boundary
/// and *suppresses* the diffs of non-healthy kinds: the changes are
/// stripped from the [`EpochSnapshot`] and the verdict recorded in
/// [`EpochSnapshot::gating`] instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SignatureHealth {
    /// Inputs flowing; diffs emitted normally.
    Healthy,
    /// The signature's input feed produced nothing this window while
    /// the reference expects it — diffing would report everything the
    /// reference knows as "missing".
    Starved {
        /// What input is missing.
        reason: String,
    },
}

impl fmt::Display for SignatureHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureHealth::Healthy => write!(f, "healthy"),
            SignatureHealth::Starved { reason } => write!(f, "starved: {reason}"),
        }
    }
}

/// One sliding-window comparison emitted by the [`OnlineDiffer`] at an
/// epoch boundary: the model of the trailing window and its diff
/// against the reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// The trailing window this snapshot models, `[start, end)`.
    pub window: (Timestamp, Timestamp),
    /// Flow records in the window model (in-flight flows included).
    pub records: usize,
    /// The window's behavior model.
    pub model: BehaviorModel,
    /// Its diff against the reference model, with suppressed kinds'
    /// changes already stripped (see [`EpochSnapshot::gating`]).
    pub diff: ModelDiff,
    /// Signatures whose diffs were suppressed this epoch and why; a
    /// kind not listed here is [`SignatureHealth::Healthy`].
    pub gating: Vec<(SignatureKind, SignatureHealth)>,
}

impl EpochSnapshot {
    /// The health verdict of one signature kind this epoch.
    pub fn health_of(&self, kind: SignatureKind) -> SignatureHealth {
        self.gating
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h.clone())
            .unwrap_or(SignatureHealth::Healthy)
    }

    /// The suppressed kinds with their reasons (empty when all healthy).
    pub fn suppressed(&self) -> impl Iterator<Item = (SignatureKind, &SignatureHealth)> {
        self.gating.iter().map(|(k, h)| (*k, h))
    }
}

/// Signatures built from flow records — everything except LU, which
/// feeds on polled port counters instead.
const RECORD_FED: [SignatureKind; 8] = [
    SignatureKind::Cg,
    SignatureKind::Fs,
    SignatureKind::Ci,
    SignatureKind::Dd,
    SignatureKind::Pc,
    SignatureKind::Pt,
    SignatureKind::Isl,
    SignatureKind::Crt,
];

/// Judges every signature's input feed for the window `model` covers
/// and strips the suppressed kinds' changes out of `diff`. Returns the
/// non-healthy verdicts.
fn gate_diff(
    reference: &BehaviorModel,
    model: &BehaviorModel,
    degraded: Option<&str>,
    diff: &mut ModelDiff,
) -> Vec<(SignatureKind, SignatureHealth)> {
    let mut gating: Vec<(SignatureKind, SignatureHealth)> = Vec::new();
    if let Some(reason) = degraded {
        // The transport says a source is stalled or dead: part of the
        // window's behavior is simply missing, so every signature's
        // diff is suppressed rather than flooding "missing flow" alarms
        // against a starved input.
        for kind in RECORD_FED.into_iter().chain([SignatureKind::Lu]) {
            gating.push((
                kind,
                SignatureHealth::Starved {
                    reason: format!("ingest degraded: {reason}"),
                },
            ));
        }
    } else {
        if model.records.is_empty() && !reference.records.is_empty() {
            for kind in RECORD_FED {
                gating.push((
                    kind,
                    SignatureHealth::Starved {
                        reason: "no flow records in window".to_string(),
                    },
                ));
            }
        }
        if model.utilization.per_port.is_empty() && !reference.utilization.per_port.is_empty() {
            gating.push((
                SignatureKind::Lu,
                SignatureHealth::Starved {
                    reason: "no port-counter samples in window".to_string(),
                },
            ));
        }
    }
    if !gating.is_empty() {
        let kinds: BTreeSet<SignatureKind> = gating.iter().map(|(k, _)| *k).collect();
        for g in &mut diff.group_diffs {
            g.changes.retain(|c| !kinds.contains(&c.kind));
        }
        diff.infra.retain(|c| !kinds.contains(&c.kind));
        if kinds.contains(&SignatureKind::Cg) {
            // With connectivity gated, whole-group appearance and
            // disappearance is an input artifact, not an application
            // change.
            diff.missing_groups.clear();
            diff.new_groups.clear();
        }
    }
    gating
}

/// What both differs judge a window model with: the baseline, the
/// config, and the transport note that holds diffs back. Every boundary
/// and flush path ends in [`Judge::snapshot`].
///
/// The baseline and the config are the run's inputs, not its state:
/// no checkpoint writes any part of the judge, it names the baseline
/// and the config instead (see [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
struct Judge {
    /// The caller's baseline, shared, never copied.
    baseline: Arc<BaselineBundle>,
    /// [`BaselineBundle::identity`] of `baseline`: computed the first
    /// time a checkpoint is written, or set by the restore that checked
    /// it.
    baseline_id: Derived<OnceLock<u64>>,
    config: FlowDiffConfig,
    /// Transient transport-degradation note set by the serving loop
    /// (a stalled or dead publisher): while set, every signature gates
    /// [`SignatureHealth::Starved`]. A live transport condition, not
    /// stream state.
    ingest_degraded: Derived<Option<String>>,
}

impl Judge {
    fn new(baseline: Arc<BaselineBundle>, config: &FlowDiffConfig) -> Judge {
        Judge {
            baseline,
            baseline_id: Derived::default(),
            config: config.clone(),
            ingest_degraded: Derived(None),
        }
    }

    /// The judge of a restored differ, against the baseline the restore
    /// checked to be `baseline_id`.
    fn restored(baseline: Arc<BaselineBundle>, baseline_id: u64, config: &FlowDiffConfig) -> Judge {
        Judge {
            baseline_id: Derived(OnceLock::from(baseline_id)),
            ..Judge::new(baseline, config)
        }
    }

    fn baseline_id(&self) -> u64 {
        *self.baseline_id.0.get_or_init(|| self.baseline.identity())
    }

    /// Diffs `model` — the window `[start, end)`, epoch `epoch` —
    /// against the reference and gates the result.
    fn snapshot(
        &self,
        epoch: u64,
        window: (Timestamp, Timestamp),
        model: BehaviorModel,
    ) -> EpochSnapshot {
        let BaselineBundle {
            model: reference,
            stability,
        } = &*self.baseline;
        let mut diff = compare(reference, &model, stability, &self.config);
        let gating = gate_diff(
            reference,
            &model,
            self.ingest_degraded.0.as_deref(),
            &mut diff,
        );
        EpochSnapshot {
            epoch,
            window,
            records: model.records.len(),
            model,
            diff,
            gating,
        }
    }
}

/// Cumulative per-stage epoch-boundary timings, microseconds. Wall-clock
/// diagnostics only — excluded from differ equality and serialization —
/// read by the watch loop's per-epoch breakdown line via
/// [`OnlineDiffer::take_timings`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTimings {
    /// Retiring expired state out of the sliding windows.
    pub retire_us: u64,
    /// Folding boundary-drained completed records into the builder
    /// (for the sharded differ, flushing the step buffer to the
    /// workers' batch queues).
    pub observe_us: u64,
    /// Building the window model (reading the touched in-flight
    /// episodes out of the assembler plus the incremental epoch
    /// snapshot). For the sharded differ this is the barrier only: the
    /// workers draining their queues, then each extracting its delta —
    /// completions since the previous barrier, touched open episodes,
    /// event-derived facts; the model itself is under `merge_us`.
    pub snapshot_us: u64,
    /// Folding the barrier replies into the coordinator's maintained
    /// window plus its incremental epoch snapshot (zero on the
    /// single-shard differ, whose `snapshot_us` covers that work).
    pub merge_us: u64,
    /// Comparing against the reference and gating the diff.
    pub diff_us: u64,
    /// Deepest any worker's batch queue got this epoch, in batches
    /// (zero on the single-shard differ). The gauge counts batches
    /// handed to a channel but not yet fully processed — queued, in
    /// service, and the one a blocked sender is waiting to enqueue —
    /// so readings above the channel bound (`QUEUE_BATCHES`) mean
    /// admission outran the workers and backpressure engaged.
    pub queue_depth_peak: u64,
    /// The busiest worker's share of the epoch's wall-clock time,
    /// percent (zero on the single-shard differ). Low values mean the
    /// workers idle waiting for admission; values near 100 mean a
    /// worker is the bottleneck.
    pub worker_busy_pct: u64,
}

impl EpochTimings {
    /// Accumulates another sample (for averaging across epochs): stage
    /// durations sum, the channel gauges keep their worst case.
    pub fn add(&mut self, other: EpochTimings) {
        self.retire_us += other.retire_us;
        self.observe_us += other.observe_us;
        self.snapshot_us += other.snapshot_us;
        self.merge_us += other.merge_us;
        self.diff_us += other.diff_us;
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        self.worker_busy_pct = self.worker_busy_pct.max(other.worker_busy_pct);
    }
}

/// Runs `f`, adding its wall-clock duration in microseconds to `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    *slot += t0.elapsed().as_micros() as u64;
    out
}

/// Online diff mode (the streaming counterpart of one-shot
/// [`compare`]): feed control events as they arrive; every
/// `config.online_epoch_us` of log time it models the trailing
/// `config.online_window_us` window and diffs it against a fixed
/// reference model.
///
/// Internally an incremental pipeline — a [`Sequencer`] judges each
/// arrival, a [`RecordAssembler`] turns the events it releases into
/// flow records, an [`IncrementalModelBuilder`] accumulates them, and
/// `retire_before` keeps memory proportional to the window.
/// At each boundary the builder snapshots through its maintained window
/// state ([`IncrementalModelBuilder::epoch_snapshot`]), which also
/// holds the assembler's in-flight episodes — re-read only when an
/// event touched them — so long-running flows show up in window models
/// without disturbing (or double-counting in) the real accumulation,
/// and without cloning and rebuilding the whole window every epoch.
///
/// The differ holds its baseline once, shared with the caller. Its
/// streaming state — sequencer, assembler, builder, epoch grid — is
/// exactly what an online
/// [`checkpoint`](crate::checkpoint) writes: restore it against the
/// same baseline and config, replay the events after the checkpoint
/// offset, and every subsequent snapshot is byte-identical to an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineDiffer {
    judge: Judge,
    sequencer: Sequencer,
    assembler: RecordAssembler,
    builder: IncrementalModelBuilder,
    clock: EpochClock,
    /// Per-stage boundary timings since the last
    /// [`take_timings`](Self::take_timings) (wall-clock diagnostics).
    timings: Derived<EpochTimings>,
}

impl OnlineDiffer {
    /// A differ against `reference`, gated by `stability` (use
    /// [`StabilityReport::all_stable`] to diff ungated).
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`FlowDiffConfig::validate`]; use
    /// [`OnlineDiffer::try_new`] to handle invalid configs gracefully.
    pub fn new(
        model: BehaviorModel,
        stability: StabilityReport,
        config: &FlowDiffConfig,
    ) -> OnlineDiffer {
        let baseline = Arc::new(BaselineBundle { model, stability });
        OnlineDiffer::try_new(baseline, config).expect("invalid FlowDiffConfig")
    }

    /// A differ sharing the caller's `baseline`, which rejects
    /// nonsensical configs (zero epochs, a window shorter than its
    /// epoch, …) instead of letting them panic deep inside the pipeline.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`FlowDiffConfig::validate`].
    pub fn try_new(
        baseline: Arc<BaselineBundle>,
        config: &FlowDiffConfig,
    ) -> Result<OnlineDiffer, ConfigError> {
        config.validate()?;
        Ok(OnlineDiffer {
            judge: Judge::new(baseline, config),
            sequencer: Sequencer::new(config),
            assembler: RecordAssembler::new(config),
            builder: IncrementalModelBuilder::new(config),
            clock: EpochClock::new(config.online_epoch_us, config.online_window_us),
            timings: Derived::default(),
        })
    }

    /// The streaming state a [`Checkpoint`](crate::checkpoint::Checkpoint)
    /// writes: everything but the baseline and the config.
    pub(crate) fn state_to_bytes(&self) -> Vec<u8> {
        serde::to_vec(&(&self.sequencer, &self.assembler, &self.builder, &self.clock))
    }

    /// Reassembles a differ from [`OnlineDiffer::state_to_bytes`] and
    /// the inputs the checkpoint names: `baseline`, checked to be
    /// `baseline_id`, and `config`.
    pub(crate) fn from_state(
        state: &[u8],
        baseline: Arc<BaselineBundle>,
        baseline_id: u64,
        config: &FlowDiffConfig,
    ) -> Result<OnlineDiffer, serde::Error> {
        let (sequencer, assembler, builder, clock) = serde::from_slice(state)?;
        Ok(OnlineDiffer {
            judge: Judge::restored(baseline, baseline_id, config),
            sequencer,
            assembler,
            builder,
            clock,
            timings: Derived::default(),
        })
    }

    /// [`BaselineBundle::identity`] of the baseline, computed once.
    pub(crate) fn baseline_id(&self) -> u64 {
        self.judge.baseline_id()
    }

    /// Returns the per-stage boundary timings accumulated since the
    /// last call (or construction) and resets them — one call per
    /// emitted snapshot gives the per-epoch latency breakdown.
    pub fn take_timings(&mut self) -> EpochTimings {
        std::mem::take(&mut self.timings.0)
    }

    /// The zero-based index of the next epoch to be emitted.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// [`IncrementalModelBuilder::epoch_synced`] of the latest boundary.
    pub fn epoch_synced(&self) -> usize {
        self.builder.epoch_synced()
    }

    /// Sets (or clears) the transport-degradation note: while set,
    /// every signature is gated [`SignatureHealth::Starved`] with this
    /// reason — the serving loop calls this when a publisher stream
    /// goes stalled or dead, and clears it when the stream revives.
    /// Transient: never serialized, never part of differ equality.
    pub fn set_ingest_degraded(&mut self, reason: Option<String>) {
        self.judge.ingest_degraded.0 = reason;
    }

    /// Event-level ingestion health accumulated so far (time jumps,
    /// out-of-order events, duplicate xids, orphans, evictions).
    /// Frame-level decode counters live with the
    /// [`LogStream`](netsim::log::LogStream) feeding this differ; fold
    /// them in with [`IngestHealth::absorb_stream`].
    pub fn health(&self) -> IngestHealth {
        let mut health = *self.assembler.health();
        self.sequencer.count_into(&mut health);
        health
    }

    /// Feeds one event; returns the snapshots of every epoch boundary
    /// the event's timestamp crossed (usually none, one if the stream
    /// just entered a new epoch, several after a quiet stretch — but
    /// never more than one window's worth: boundaries whose window had
    /// already drained are skipped, their epoch indices consumed, so a
    /// quiet day or a corrupt far-future timestamp cannot force one
    /// model build per crossed epoch).
    pub fn observe(&mut self, event: &ControlEvent) -> Vec<EpochSnapshot> {
        // A quarantined timestamp must not drive the epoch clock either.
        if !self.sequencer.admit(event.ts) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (epoch, boundary) in self.clock.advance(event.ts) {
            out.push(self.snapshot_at(epoch, boundary));
        }
        let assembler = &mut self.assembler;
        self.sequencer
            .release(event, |ev, _| assembler.observe(&ev));
        self.builder.observe_event(event);
        for record in self.assembler.take_completed() {
            self.builder.observe_record(record);
        }
        out
    }

    /// Flushes the final partial epoch, completing every in-flight
    /// episode. None when no event was ever observed.
    pub fn finish(self) -> Option<EpochSnapshot> {
        let OnlineDiffer {
            judge,
            mut sequencer,
            mut assembler,
            mut builder,
            clock,
            timings: _,
        } = self;
        let (_, end) = builder.observed_span()?;
        for ev in sequencer.drain() {
            assembler.observe(&ev);
        }
        for record in assembler.finish() {
            builder.observe_record(record);
        }
        let start = Timestamp::from_micros(end.as_micros().saturating_sub(clock.window_us()));
        builder.retire_before(start);
        builder.set_span((start, end));
        Some(judge.snapshot(clock.epoch(), (start, end), builder.into_snapshot()))
    }

    /// Models the window ending at `boundary` and diffs it against the
    /// reference, as epoch `epoch`.
    fn snapshot_at(&mut self, epoch: u64, boundary: Timestamp) -> EpochSnapshot {
        let timings = &mut self.timings.0;
        let drained = self.assembler.take_completed();
        if !drained.is_empty() {
            timed(&mut timings.observe_us, || {
                for record in drained {
                    self.builder.observe_record(record);
                }
            });
        }
        let start =
            Timestamp::from_micros(boundary.as_micros().saturating_sub(self.clock.window_us()));
        timed(&mut timings.retire_us, || {
            self.builder.retire_before(start);
        });
        // The in-flight episodes belong in this window's picture, but
        // must complete into the real builder exactly once: the builder
        // keeps them in its derived window state only, and needs just
        // the in-window ones that changed since the previous boundary.
        let model = timed(&mut timings.snapshot_us, || {
            let opens = self.assembler.touched_open_records_since(start);
            self.builder.epoch_snapshot((start, boundary), opens)
        });
        timed(&mut timings.diff_us, || {
            self.judge.snapshot(epoch, (start, boundary), model)
        })
    }
}

/// One shard worker's streaming state: its slice of the record
/// assembly, and the model builder fed its slice of the raw events. The
/// events it assembles were sequenced by the splitter's [`Sequencer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardState {
    assembler: RecordAssembler,
    builder: IncrementalModelBuilder,
}

impl ShardState {
    /// A fresh shard worker.
    fn fresh(config: &FlowDiffConfig) -> ShardState {
        ShardState {
            assembler: RecordAssembler::new(config),
            builder: IncrementalModelBuilder::new(config),
        }
    }

    /// Consumes one released event the way the single-shard assembler
    /// would, from shard `me`'s point of view:
    ///
    /// - every `FlowMod` is processed in full on every shard, so each
    ///   shard's xid table is an identical replica (xids collide across
    ///   tuples, and pairing is global-by-xid — the paired send time and
    ///   output port are in the record bytes),
    /// - an owned event runs the full state machine,
    /// - everything else advances the clock with the prune check, so
    ///   every shard evicts idle state on exactly the single-shard
    ///   schedule (eviction timing decides which straggling replies
    ///   still patch their episode — it is visible in record bytes).
    fn feed(&mut self, me: u32, routed: &RoutedEvent) {
        match routed.class {
            EventClass::FlowMod => self.assembler.observe(&routed.event),
            _ if routed.shard == me => self.assembler.observe(&routed.event),
            _ => self.assembler.advance_clock(routed.event.ts),
        }
    }

    /// Applies one admission step from shard `me`'s point of view.
    /// The step stream interleaves two independent state machines:
    /// arrivals feed the owning shard's model builder (the single-shard
    /// builder sees every event at arrival), releases feed every
    /// shard's assembler through the per-event rule in
    /// [`ShardState::feed`]. Because the two machines share no state
    /// between barriers, replaying the stream in order on a worker
    /// thread reproduces exactly what the coordinator applying each
    /// step inline would have produced.
    fn step(&mut self, me: u32, step: &Step) {
        match step {
            Step::Admit(routed) => {
                if routed.shard == me {
                    self.builder.observe_event(&routed.event);
                }
                self.feed(me, routed);
            }
            Step::Arrive { shard, event } => {
                if *shard == me {
                    self.builder.observe_event(event);
                }
            }
            Step::Release(routed) => self.feed(me, routed),
        }
    }

    /// This shard's reply at an epoch barrier, mirroring
    /// [`OnlineDiffer::snapshot_at`] per shard: completed records drain
    /// into the (durable) builder, state older than `start` retires,
    /// and what changed since the previous barrier goes to the
    /// coordinator — the completions still in the window, the touched
    /// in-window open episodes, and the event-derived facts whole.
    /// `full` means the coordinator holds no window: the shard ships
    /// its whole held window and every in-window open episode instead,
    /// and tracks changes from there.
    fn barrier(&mut self, start: Timestamp, full: bool) -> (ShardModel, Vec<FlowRecord>) {
        let mut fresh = Vec::new();
        for record in self.assembler.take_completed() {
            if !full && record.first_seen >= start {
                fresh.push(record.clone());
            }
            self.builder.observe_record(record);
        }
        self.builder.retire_before(start);
        if full {
            self.assembler.forget_touched();
            fresh = self.builder.held_records();
        }
        let opens = self.assembler.touched_open_records_since(start);
        (self.builder.shard_model_of(fresh), opens)
    }
}

/// Per-shard load figures for the watch `stats:` line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Records currently held in the shard's window builder.
    pub records: usize,
    /// In-flight episodes in the shard's assembler.
    pub open_episodes: usize,
}

/// Steps per batch shipped to the worker queues. A send to a parked
/// worker is a thread wake, and at one step per event a worker applies
/// a batch faster than the router admits the next one, so nearly every
/// send wakes: the batch has to be large enough that the wake vanishes
/// in it. At 128 steps the wakes cost the coordinator more than routing
/// did (~1,080 ns per event on the `fanin_sharded` shape against ~650 ns
/// at 2,048, i.e. ~14 µs a wake); at 1,024 that is ~14 ns per event and
/// worker, and doubling again buys nothing measurable.
const BATCH_STEPS: usize = 1_024;

/// Bound of each worker's batch queue, in batches. A full queue blocks
/// admission (backpressure) instead of buffering unboundedly; the
/// [`EpochTimings::queue_depth_peak`] gauge reads above this value
/// when that happens. Counting the batch being built and the one in
/// service, at most `(QUEUE_BATCHES + 2) * BATCH_STEPS` = 6,144 steps
/// are in flight: ~2 MiB of events, and the most a barrier ever waits
/// for — about 1.5 ms of worker time. Batch and depth are chosen
/// together for that product: with fewer cores than threads the
/// workers run behind and the queues fill to the bound, and whatever
/// is queued at a boundary is drained with admission stopped, so a
/// deeper queue (or a larger batch at this depth) only moves the wait
/// from the blocked send into the barrier and raises memory.
const QUEUE_BATCHES: usize = 4;

/// One admission step, broadcast to every worker in arrival order.
#[derive(Debug, Clone)]
enum Step {
    /// An event the reorder buffer released at its own arrival (always,
    /// with `reorder_slack_us == 0`): the owning shard's model builder
    /// observes it and every shard's assembler consumes it, both from
    /// the one copy of the event the router made.
    Admit(RoutedEvent),
    /// An event the reorder buffer holds back, at arrival: the owning
    /// shard's model builder observes it, exactly when the single-shard
    /// builder would.
    Arrive { shard: u32, event: ControlEvent },
    /// A held-back event released later, in release order: every
    /// shard's assembler consumes it (see [`ShardState::feed`]).
    Release(RoutedEvent),
}

/// A message on one worker's batch queue.
enum WorkerMsg {
    /// A batch of admission steps, shared across all workers, to apply
    /// in order.
    Batch(Arc<Vec<Step>>),
    /// In-band epoch barrier: everything enqueued before it is part of
    /// the closing epoch. The worker replies with what changed in the
    /// window starting at `start` since the previous barrier — or, when
    /// `full`, with everything it holds in that window (see
    /// [`ShardState::barrier`]).
    Barrier { start: Timestamp, full: bool },
    /// Quiesce: reply once every prior message has been applied.
    Sync,
    /// Crash-drill injection: panic on receipt, mid-queue, the way a
    /// real defect in worker code would.
    Poison,
}

/// A worker's reply on the barrier/quiesce channel.
enum WorkerReply {
    /// The shard's barrier reply — completions and event-derived facts
    /// as a [`ShardModel`], open episodes apart — plus the microseconds
    /// the worker spent busy since the previous barrier.
    Delta {
        model: ShardModel,
        opens: Vec<FlowRecord>,
        busy_us: u64,
    },
    /// Quiesce acknowledgement: the queue is drained.
    Synced,
}

/// The coordinator's handle to one worker: its bounded batch queue,
/// its reply channel, and the shared queue-depth gauge.
#[derive(Debug)]
struct WorkerLink {
    queue: SyncSender<WorkerMsg>,
    replies: Receiver<WorkerReply>,
    depth: Arc<AtomicUsize>,
}

/// The long-lived worker threads of one [`ShardedDiffer`] run.
/// Spawned exactly once (lazily, at the first observed event) and
/// joined when the differ finishes, drops, or is torn down by a
/// supervised restart.
#[derive(Debug)]
struct Pipeline {
    links: Vec<WorkerLink>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pipeline {
    fn spawn(states: &[Arc<Mutex<ShardState>>]) -> Pipeline {
        let mut links = Vec::with_capacity(states.len());
        let mut handles = Vec::with_capacity(states.len());
        for (i, state) in states.iter().enumerate() {
            let (queue, inbox) = sync_channel(QUEUE_BATCHES);
            let (reply_tx, replies) = channel();
            let depth = Arc::new(AtomicUsize::new(0));
            let state = Arc::clone(state);
            let gauge = Arc::clone(&depth);
            let handle = std::thread::Builder::new()
                .name(format!("flowdiff-shard-{i}"))
                .spawn(move || shard_worker(i as u32, state, inbox, reply_tx, gauge))
                .expect("spawning a shard worker thread");
            links.push(WorkerLink {
                queue,
                replies,
                depth,
            });
            handles.push(handle);
        }
        Pipeline { links, handles }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Disconnect every queue first — workers exit their recv loop —
        // then join. A worker that died panicking joins as `Err`, which
        // is deliberately swallowed here: its death already surfaced as
        // a coordinator panic through the closed channels, and Drop may
        // itself be running during that unwind.
        self.links.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker loop: apply batches, answer barriers with the shard's
/// delta, acknowledge quiesces. Exits when the coordinator
/// drops its end of either channel.
fn shard_worker(
    me: u32,
    state: Arc<Mutex<ShardState>>,
    inbox: Receiver<WorkerMsg>,
    replies: Sender<WorkerReply>,
    depth: Arc<AtomicUsize>,
) {
    let mut busy_us = 0u64;
    while let Ok(msg) = inbox.recv() {
        match msg {
            WorkerMsg::Batch(steps) => {
                let t0 = std::time::Instant::now();
                {
                    let mut st = state.lock().expect("shard state poisoned");
                    for step in steps.iter() {
                        st.step(me, step);
                    }
                }
                busy_us += t0.elapsed().as_micros() as u64;
                depth.fetch_sub(1, Ordering::AcqRel);
            }
            WorkerMsg::Barrier { start, full } => {
                let t0 = std::time::Instant::now();
                let (model, opens) = state
                    .lock()
                    .expect("shard state poisoned")
                    .barrier(start, full);
                busy_us += t0.elapsed().as_micros() as u64;
                let reply = WorkerReply::Delta {
                    model,
                    opens,
                    busy_us: std::mem::take(&mut busy_us),
                };
                if replies.send(reply).is_err() {
                    return;
                }
            }
            WorkerMsg::Sync => {
                if replies.send(WorkerReply::Synced).is_err() {
                    return;
                }
            }
            WorkerMsg::Poison => panic!("shard worker {me} poisoned (crash drill)"),
        }
    }
}

/// Steps admitted but not yet shipped to the worker queues, plus the
/// deepest queue observed since the gauge was last harvested. Behind a
/// mutex so `&self` paths (serialization, equality, health) can flush
/// before quiescing; only the coordinator thread ever takes it, and
/// admission (`&mut self`) reaches through it without locking.
#[derive(Debug, Default)]
struct Pending {
    steps: Vec<Step>,
    peak_depth: usize,
}

/// The sharded online differ: N persistent shard workers behind a
/// [`ShardRouter`], merged into one model (and diffed once) at every
/// epoch boundary.
///
/// The contract is exact equivalence: for any shard count, every
/// emitted [`EpochSnapshot`] is `PartialEq`- and
/// serialization-byte-identical to the single-shard
/// [`OnlineDiffer`]'s. The pieces that make that hold:
///
/// - the **splitter** is the same [`Sequencer`] the single differ
///   holds (quarantine, out-of-order accounting, the reorder buffer)
///   plus routing and a release-order xid ledger for the global-by-xid
///   health counts,
/// - every admission becomes `Step`s — one `Admit` for an event the
///   reorder buffer releases at its own arrival (the owner's builder
///   feed, exactly when the single-shard builder sees the event, and
///   the release, from one copy of the event), or an `Arrive` now and a
///   `Release` later for one it holds back; at a release each worker
///   applies the per-event rule (any `FlowMod` → full observe, own
///   event → full observe, anything else → clock advance) — batched and
///   broadcast over bounded channels to **long-lived worker threads**
///   that drain their queues while the router keeps admitting,
/// - epoch boundaries travel **in-band as barrier messages**: a worker
///   reaching the barrier has applied every pre-boundary step and
///   nothing after, so what it extracts is exactly the scoped
///   stop-the-world extraction of the previous architecture,
/// - a barrier reply is a **delta** — the shard's completions since the
///   previous barrier, its touched open episodes
///   ([`RecordAssembler::touched_open_records_since`]) and its
///   event-derived facts — which the coordinator folds into one
///   maintained [`IncrementalModelBuilder`] and snapshots through
///   [`IncrementalModelBuilder::epoch_snapshot`], the single-shard
///   differ's boundary path. The union of the shards' touched sets is
///   what one assembler over the whole stream would hand over (an
///   episode lives on one shard and is touched by the same events
///   there), and the fold is the same upsert per window key. The
///   coordinator's window is derived state: it starts empty — at
///   construction, on a clone, after a restore — and the first barrier
///   then asks every worker for a full resync.
///
/// Identity is insensitive to the pipelining because each worker's two
/// state machines (builder, assembler) are deterministic functions of
/// their own slice of the step stream, and the stream order is fixed
/// at admission — *when* a worker gets around to applying a batch is
/// unobservable. Anything that wants to look at worker state —
/// serialization, equality, checkpoint capture, the health rollup —
/// first runs the **quiesce protocol** (flush the step buffer, then a
/// `Sync` round-trip per worker), after which the states are exactly
/// what a stop-the-world run would hold.
///
/// Worker threads spawn lazily, exactly once per run, at the first
/// observed event; clones and checkpoint restores start with no
/// threads until they observe. A worker panic (or the crash-drill
/// poison) closes its channels, and the coordinator turns the closed
/// channel into a panic of its own at the next flush, barrier, or
/// quiesce — which is exactly what the supervised restart path in
/// `flowdiff-bench` catches before restoring from the last checkpoint.
///
/// `new(.., 1)` is a valid degenerate configuration, but callers
/// wanting the exact legacy code path (no routing, no channels, no
/// threads) should keep using [`OnlineDiffer`].
///
/// A checkpoint of it is the one FDIFFCKP format the single differ
/// writes, holding the router, the epoch grid and every shard's worker
/// state (see [`Checkpoint::capture_sharded`](crate::checkpoint::Checkpoint::capture_sharded)).
#[derive(Debug)]
pub struct ShardedDiffer {
    judge: Judge,
    splitter: ShardRouter,
    /// Shard worker states, shared with the pipeline threads. The
    /// coordinator locks one only at a quiesce point (or, before the
    /// pipeline spawns, when it is the sole owner).
    states: Vec<Arc<Mutex<ShardState>>>,
    /// The step buffer: at most one batch accumulates here between
    /// queue sends.
    pending: Mutex<Pending>,
    /// Scratch for the router's releases during one admission.
    released: Vec<RoutedEvent>,
    /// The maintained window model the barrier deltas fold into.
    /// Derived from the worker states like the single-shard builder's
    /// interned window is from its records: never serialized, never
    /// compared, `None` until the first barrier (which therefore asks
    /// the workers for everything they hold) — so also on every clone
    /// and restore, whose workers' touched tracking belongs to a window
    /// this differ does not have.
    window: Option<IncrementalModelBuilder>,
    /// The long-lived worker threads; `None` until the first observed
    /// event (and on every clone and checkpoint restore, so capturing
    /// a checkpoint never spawns threads).
    pipeline: Option<Pipeline>,
    clock: EpochClock,
    /// Cumulative time spent in boundary merges (diagnostics only:
    /// excluded from equality and serialization).
    merge_micros: u64,
    /// Per-stage boundary timings since the last
    /// [`take_timings`](Self::take_timings) (diagnostics only: excluded
    /// from equality and serialization).
    timings: EpochTimings,
    /// Wall-clock start of the current epoch, for the worker busy
    /// fraction (diagnostics only).
    epoch_wall: Option<std::time::Instant>,
}

impl ShardedDiffer {
    /// A sharded differ over `n_shards` workers (clamped to at least
    /// one). The shard count is a runtime deployment choice, not part
    /// of [`FlowDiffConfig`] — checkpoint fingerprints stay comparable
    /// across shard counts.
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`FlowDiffConfig::validate`]; use
    /// [`ShardedDiffer::try_new`] to handle invalid configs gracefully.
    pub fn new(
        model: BehaviorModel,
        stability: StabilityReport,
        config: &FlowDiffConfig,
        n_shards: usize,
    ) -> ShardedDiffer {
        let baseline = Arc::new(BaselineBundle { model, stability });
        ShardedDiffer::try_new(baseline, config, n_shards).expect("invalid FlowDiffConfig")
    }

    /// Like [`ShardedDiffer::new`], sharing the caller's `baseline`, and
    /// reporting invalid configs.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`FlowDiffConfig::validate`].
    pub fn try_new(
        baseline: Arc<BaselineBundle>,
        config: &FlowDiffConfig,
        n_shards: usize,
    ) -> Result<ShardedDiffer, ConfigError> {
        config.validate()?;
        let n = n_shards.max(1);
        Ok(ShardedDiffer {
            judge: Judge::new(baseline, config),
            splitter: ShardRouter::new(config, n),
            states: (0..n)
                .map(|_| Arc::new(Mutex::new(ShardState::fresh(config))))
                .collect(),
            pending: Mutex::new(Pending::default()),
            released: Vec::new(),
            window: None,
            pipeline: None,
            clock: EpochClock::new(config.online_epoch_us, config.online_window_us),
            merge_micros: 0,
            timings: EpochTimings::default(),
            epoch_wall: None,
        })
    }

    /// Number of shard workers.
    pub fn n_shards(&self) -> usize {
        self.states.len()
    }

    /// The zero-based index of the next epoch to be emitted.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// Cumulative microseconds spent folding barrier replies into the
    /// window model at epoch boundaries (the sum of every epoch's
    /// [`EpochTimings::merge_us`]).
    pub fn merge_micros(&self) -> u64 {
        self.merge_micros
    }

    /// [`IncrementalModelBuilder::epoch_synced`] of the coordinator's
    /// window at the latest boundary — the sharded mirror of
    /// [`OnlineDiffer::epoch_synced`]: the whole window after a full
    /// resync, otherwise what the barrier deltas carried.
    pub fn epoch_synced(&self) -> usize {
        self.window
            .as_ref()
            .map_or(0, IncrementalModelBuilder::epoch_synced)
    }

    /// Per-stage boundary timings since the last call, reset on read —
    /// the sharded mirror of [`OnlineDiffer::take_timings`]. Here
    /// `observe_us` covers the boundary flush of the step buffer into
    /// the worker queues; `snapshot_us` the barrier (the workers
    /// draining their queues, then extracting their deltas);
    /// `merge_us` the coordinator folding the replies into its window
    /// and taking the incremental epoch snapshot; and `retire_us` stays
    /// zero (retirement happens inside the workers' extraction and the
    /// fold, and is counted with them). The channel gauges
    /// (`queue_depth_peak`, `worker_busy_pct`) are per-epoch highs
    /// rather than sums.
    pub fn take_timings(&mut self) -> EpochTimings {
        std::mem::take(&mut self.timings)
    }

    /// Global ingestion health: the splitter's arrival/ledger counters
    /// plus the shard-local counters (evictions, orphan removals, stale
    /// attaches) summed across workers. Shard-local copies of the
    /// global-by-xid counters are ignored — every shard sees every
    /// `FlowMod`, so summing those would multiply them by N.
    ///
    /// Quiesces the pipeline first, so the rollup is exact — equal to
    /// the single-shard differ's counters at the same point in the
    /// stream, with no one-epoch flush lag.
    pub fn health(&self) -> IngestHealth {
        self.quiesce();
        let mut health = self.splitter.health();
        for state in &self.states {
            let state = state.lock().expect("shard state poisoned");
            let sh = state.assembler.health();
            health.episodes_evicted += sh.episodes_evicted;
            health.orphan_flow_removeds += sh.orphan_flow_removeds;
            health.stale_attaches += sh.stale_attaches;
        }
        health
    }

    /// Per-shard load figures (records held, in-flight episodes),
    /// quiesced so the figures are a consistent cut of the stream.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.quiesce();
        self.states
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let s = s.lock().expect("shard state poisoned");
                ShardStats {
                    shard,
                    records: s.builder.record_count(),
                    open_episodes: s.assembler.open_len(),
                }
            })
            .collect()
    }

    /// Rough heap footprint of the sharded pipeline's own state (the
    /// splitter, the buffered steps, every shard's builder, and the
    /// coordinator's window). Approximate by design: worker states are
    /// sampled under their locks without a quiesce.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let buffered = (self.pending.lock())
            .expect("pending steps poisoned")
            .steps
            .len();
        self.splitter.approx_bytes()
            + buffered * size_of::<Step>()
            + (self.states.iter())
                .map(|s| {
                    s.lock()
                        .expect("shard state poisoned")
                        .builder
                        .approx_bytes()
                })
                .sum::<usize>()
            + self
                .window
                .as_ref()
                .map_or(0, IncrementalModelBuilder::approx_bytes)
    }

    /// Sets (or clears) the transport-degradation note — same contract
    /// as [`OnlineDiffer::set_ingest_degraded`].
    pub fn set_ingest_degraded(&mut self, reason: Option<String>) {
        self.judge.ingest_degraded.0 = reason;
    }

    /// Feeds one event — the sharded mirror of
    /// [`OnlineDiffer::observe`]: the event is admitted and routed, its
    /// releases held aside while boundary snapshots are emitted from
    /// state *before* this event, then its steps are enqueued toward the
    /// workers. Admission returns as soon as the steps are buffered (or,
    /// at a batch boundary, handed to the queues) — the workers drain
    /// concurrently.
    pub fn observe(&mut self, event: &ControlEvent) -> Vec<EpochSnapshot> {
        self.ensure_pipeline();
        // A quarantined timestamp must not drive the epoch clock either.
        let Some(Admitted { shard, released_at }) = self.splitter.admit(event, &mut self.released)
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (epoch, boundary) in self.clock.advance(event.ts) {
            out.push(self.snapshot_at(epoch, boundary));
        }
        let steps = &mut (self.pending.get_mut())
            .expect("pending steps poisoned")
            .steps;
        for (i, routed) in self.released.drain(..).enumerate() {
            steps.push(match released_at {
                Some(at) if at == i => Step::Admit(routed),
                _ => Step::Release(routed),
            });
        }
        if released_at.is_none() {
            steps.push(Step::Arrive {
                shard,
                event: event.clone(),
            });
        }
        if steps.len() >= BATCH_STEPS {
            self.flush_pending();
        }
        out
    }

    /// Injects a panic into shard `shard`'s worker, in-queue — the
    /// crash-drill hook behind
    /// `engine::tests::worker_panic_surfaces_and_recovers_exactly_once`.
    /// The worker dies when it reaches the poison; the coordinator's
    /// next flush, barrier, or quiesce then panics on the closed
    /// channel, which is the supervised restart path's cue to restore
    /// from the last checkpoint.
    pub fn poison_worker(&mut self, shard: usize) {
        self.ensure_pipeline();
        let pipeline = self.pipeline.as_ref().expect("pipeline just ensured");
        let link = &pipeline.links[shard % pipeline.links.len()];
        let _ = link.queue.send(WorkerMsg::Poison);
    }

    /// Flushes the final partial epoch across all shards. None when no
    /// event was ever observed.
    pub fn finish(mut self) -> Option<EpochSnapshot> {
        // Everything still in flight — the step buffer, the reorder
        // buffer's tail — becomes steps.
        let tail = self.splitter.drain().into_iter().map(Step::Release);
        let pending = self.pending.get_mut().expect("pending steps poisoned");
        pending.steps.extend(tail);
        if self.pipeline.is_some() {
            self.quiesce();
        } else {
            // Never observed (or restored and immediately finished):
            // no threads to hand the tail to — apply it inline.
            let steps = std::mem::take(&mut pending.steps);
            for (i, state) in self.states.iter().enumerate() {
                let mut st = state.lock().expect("shard state poisoned");
                for step in &steps {
                    st.step(i as u32, step);
                }
            }
        }
        // Tear the pipeline down (queues disconnect, workers join);
        // after this the coordinator is the sole owner of every state.
        drop(self.pipeline.take());
        let shards: Vec<ShardState> = std::mem::take(&mut self.states)
            .into_iter()
            .map(|state| match Arc::try_unwrap(state) {
                Ok(mutex) => mutex.into_inner().expect("shard state poisoned"),
                Err(shared) => shared.lock().expect("shard state poisoned").clone(),
            })
            .collect();
        let end = shards
            .iter()
            .filter_map(|s| s.builder.observed_span())
            .map(|(_, hi)| hi)
            .max()?;
        let epoch = self.clock.epoch();
        let start = self.clock.window_start(end);
        let mut parts = Vec::with_capacity(shards.len());
        for shard in shards {
            let ShardState {
                assembler,
                mut builder,
            } = shard;
            for record in assembler.finish() {
                builder.observe_record(record);
            }
            builder.retire_before(start);
            parts.push(builder.into_shard_model());
        }
        let model =
            IncrementalModelBuilder::merge(parts, Some((start, end)), &self.judge.config, 0);
        Some(self.judge.snapshot(epoch, (start, end), model))
    }

    /// Spawns the worker threads on first use — exactly once per run.
    fn ensure_pipeline(&mut self) {
        if self.pipeline.is_some() {
            return;
        }
        self.pipeline = Some(Pipeline::spawn(&self.states));
        self.epoch_wall = Some(std::time::Instant::now());
    }

    /// Ships the buffered steps as one `Arc`-shared batch to every
    /// worker queue. The queues are bounded: a worker more than
    /// [`QUEUE_BATCHES`] batches behind blocks admission here
    /// (backpressure) instead of letting the buffer grow without
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics when a worker has exited — its queue is closed — which
    /// propagates a worker panic into the coordinator for the
    /// supervised restart path to catch.
    fn flush_pending(&self) {
        let Some(pipeline) = self.pipeline.as_ref() else {
            return;
        };
        let mut pending = self.pending.lock().expect("pending steps poisoned");
        if pending.steps.is_empty() {
            return;
        }
        let steps = std::mem::replace(&mut pending.steps, Vec::with_capacity(BATCH_STEPS));
        let batch = Arc::new(steps);
        for (i, link) in pipeline.links.iter().enumerate() {
            let depth = link.depth.fetch_add(1, Ordering::AcqRel) + 1;
            pending.peak_depth = pending.peak_depth.max(depth);
            if link
                .queue
                .send(WorkerMsg::Batch(Arc::clone(&batch)))
                .is_err()
            {
                panic!("shard worker {i} exited mid-run; cannot deliver a batch");
            }
        }
    }

    /// The drain-to-barrier quiesce: flush the step buffer, then a
    /// `Sync` round-trip per worker. When this returns, every worker
    /// has applied every step admitted so far and its state is exactly
    /// the stop-the-world state — safe to lock for serialization,
    /// equality, checkpoint capture, or the health rollup. A no-op
    /// before the pipeline spawns (the coordinator is sole owner and
    /// nothing is in flight).
    ///
    /// # Panics
    ///
    /// Panics when a worker has exited (see [`Self::flush_pending`]).
    fn quiesce(&self) {
        let Some(pipeline) = self.pipeline.as_ref() else {
            return;
        };
        self.flush_pending();
        for (i, link) in pipeline.links.iter().enumerate() {
            if link.queue.send(WorkerMsg::Sync).is_err() {
                panic!("shard worker {i} exited mid-run; cannot quiesce");
            }
        }
        for (i, link) in pipeline.links.iter().enumerate() {
            match link.replies.recv() {
                Ok(WorkerReply::Synced) => {}
                _ => panic!("shard worker {i} died during quiesce"),
            }
        }
    }

    /// Boundary: flush the step buffer, send the in-band barrier,
    /// fold every shard's reply into the maintained window, snapshot
    /// it, diff once. Admission stalls only for the barrier round-trip
    /// — between boundaries the workers consume their queues while the
    /// router admits.
    fn snapshot_at(&mut self, epoch: u64, boundary: Timestamp) -> EpochSnapshot {
        let flush_start = std::time::Instant::now();
        self.flush_pending();
        self.timings.observe_us += flush_start.elapsed().as_micros() as u64;
        let start = self.clock.window_start(boundary);
        let barrier_start = std::time::Instant::now();
        let pipeline = self
            .pipeline
            .as_ref()
            .expect("observe() spawns the pipeline before advancing the clock");
        // Only this differ knows whether it holds the window the
        // workers' deltas are relative to.
        let full = self.window.is_none();
        for (i, link) in pipeline.links.iter().enumerate() {
            if link.queue.send(WorkerMsg::Barrier { start, full }).is_err() {
                panic!("shard worker {i} exited mid-run; cannot reach the epoch barrier");
            }
        }
        let mut parts: Vec<ShardModel> = Vec::with_capacity(pipeline.links.len());
        let mut opens: Vec<FlowRecord> = Vec::new();
        let mut busy_peak_us = 0u64;
        for (i, link) in pipeline.links.iter().enumerate() {
            match link.replies.recv() {
                Ok(WorkerReply::Delta {
                    model,
                    opens: shard_opens,
                    busy_us,
                }) => {
                    busy_peak_us = busy_peak_us.max(busy_us);
                    parts.push(model);
                    opens.extend(shard_opens);
                }
                _ => panic!("shard worker {i} died before the epoch barrier"),
            }
        }
        self.timings.snapshot_us += barrier_start.elapsed().as_micros() as u64;
        // The busy gauge needs a real wall-clock span. With no prior
        // mark (a differ restored from a checkpoint or deserialized
        // mid-stream), fabricating a 1µs wall would saturate the gauge
        // to a spurious 100% — skip the update and just seed the mark.
        if let Some(prev) = self.epoch_wall {
            let wall_us = (prev.elapsed().as_micros() as u64).max(1);
            self.timings.worker_busy_pct = self
                .timings
                .worker_busy_pct
                .max(busy_peak_us.min(wall_us) * 100 / wall_us);
        }
        self.epoch_wall = Some(std::time::Instant::now());
        let pending = self.pending.get_mut().expect("pending steps poisoned");
        self.timings.queue_depth_peak =
            self.timings.queue_depth_peak.max(pending.peak_depth as u64);
        pending.peak_depth = 0;

        // The same boundary the single-shard differ runs, with the
        // shards' replies standing in for its assembler and its event
        // feed: completions in, window slid, facts replaced, touched
        // open episodes upserted by `epoch_snapshot`.
        let merge_start = std::time::Instant::now();
        let window = self
            .window
            .get_or_insert_with(|| IncrementalModelBuilder::new(&self.judge.config));
        window.clear_event_facts();
        for part in parts {
            window.absorb(part);
        }
        window.retire_before(start);
        let model = window.epoch_snapshot((start, boundary), opens);
        let merged_us = merge_start.elapsed().as_micros() as u64;
        self.merge_micros += merged_us;
        self.timings.merge_us += merged_us;
        timed(&mut self.timings.diff_us, || {
            self.judge.snapshot(epoch, (start, boundary), model)
        })
    }

    /// [`BaselineBundle::identity`] of the baseline, computed once.
    pub(crate) fn baseline_id(&self) -> u64 {
        self.judge.baseline_id()
    }

    /// The streaming state a [`Checkpoint`](crate::checkpoint::Checkpoint)
    /// writes: the router, the epoch grid and every shard's worker
    /// state — everything but the baseline and the config. Quiesces
    /// first, so nothing admitted is still on its way to a worker and
    /// each shard's state is a consistent cut of the stream.
    pub(crate) fn state_to_bytes(&self) -> Vec<u8> {
        self.quiesce();
        let guards: Vec<_> = (self.states.iter())
            .map(|s| s.lock().expect("shard state poisoned"))
            .collect();
        let states: Vec<&ShardState> = guards.iter().map(|g| &**g).collect();
        serde::to_vec(&(&self.splitter, &self.clock, &states))
    }

    /// Reassembles a differ of `n_shards` workers from
    /// [`ShardedDiffer::state_to_bytes`] and the inputs the checkpoint
    /// names: `baseline`, checked to be `baseline_id`, and `config`.
    pub(crate) fn from_state(
        state: &[u8],
        n_shards: usize,
        baseline: Arc<BaselineBundle>,
        baseline_id: u64,
        config: &FlowDiffConfig,
    ) -> Result<ShardedDiffer, serde::Error> {
        let (splitter, clock, states): (ShardRouter, _, Vec<ShardState>) =
            serde::from_slice(state)?;
        if splitter.n_shards() != n_shards || states.len() != n_shards {
            return Err(serde::Error::custom(format!(
                "shard count mismatch: shape says {n_shards}, router splits {} ways, {} states",
                splitter.n_shards(),
                states.len()
            )));
        }
        Ok(ShardedDiffer {
            judge: Judge::restored(baseline, baseline_id, config),
            splitter,
            states: (states.into_iter())
                .map(|s| Arc::new(Mutex::new(s)))
                .collect(),
            pending: Mutex::new(Pending::default()),
            released: Vec::new(),
            window: None,
            pipeline: None,
            clock,
            merge_micros: 0,
            timings: EpochTimings::default(),
            epoch_wall: None,
        })
    }
}

/// Equality over the streaming state (quiesced first, so in-flight
/// batches are settled); the wall-clock diagnostics are excluded.
impl PartialEq for ShardedDiffer {
    fn eq(&self, other: &ShardedDiffer) -> bool {
        self.quiesce();
        other.quiesce();
        self.judge == other.judge
            && self.splitter == other.splitter
            && self.clock == other.clock
            && self.states.len() == other.states.len()
            && self.states.iter().zip(&other.states).all(|(a, b)| {
                Arc::ptr_eq(a, b)
                    || *a.lock().expect("shard state poisoned")
                        == *b.lock().expect("shard state poisoned")
            })
    }
}

/// A clone carries the full quiesced streaming state but no threads —
/// its pipeline spawns lazily if and when it observes. This is what
/// lets checkpoint capture clone a live differ without forking the
/// worker fleet.
impl Clone for ShardedDiffer {
    fn clone(&self) -> ShardedDiffer {
        self.quiesce();
        ShardedDiffer {
            judge: self.judge.clone(),
            splitter: self.splitter.clone(),
            states: self
                .states
                .iter()
                .map(|s| Arc::new(Mutex::new(s.lock().expect("shard state poisoned").clone())))
                .collect(),
            pending: Mutex::new(Pending::default()),
            released: Vec::new(),
            window: None,
            pipeline: None,
            clock: self.clock.clone(),
            merge_micros: self.merge_micros,
            timings: self.timings,
            epoch_wall: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeDirection;
    use netsim::topology::Topology;
    use openflow::types::Timestamp;
    use workloads::prelude::*;

    fn scenario_log(
        seed: u64,
        fault: Option<(Timestamp, Fault)>,
    ) -> (ControllerLog, FlowDiffConfig) {
        let mut topo = Topology::lab();
        let (catalog, _) = install_services(&mut topo, "of7");
        let ip = |n: &str| topo.host_ip(topo.node_by_name(n).unwrap());
        let (s13, s4, s14, s25) = (ip("S13"), ip("S4"), ip("S14"), ip("S25"));
        let mut sc = Scenario::new(
            topo,
            seed,
            Timestamp::from_secs(1),
            Timestamp::from_secs(41),
        );
        sc.services(catalog.clone())
            .app(templates::three_tier(
                "app",
                vec![s13],
                vec![s4],
                vec![s14],
                None,
            ))
            .client(ClientWorkload {
                client: s25,
                entry_hosts: vec![s13],
                entry_port: 80,
                process: ArrivalProcess::poisson_per_sec(10.0),
                request_bytes: 2_048,
            });
        if let Some((at, f)) = fault {
            sc.fault(at, f);
        }
        let result = sc.run();
        let config = FlowDiffConfig::default().with_special_ips(catalog.special_ips());
        (result.log, config)
    }

    #[test]
    fn online_differ_snapshots_every_epoch() {
        let (log1, config) = scenario_log(1, None);
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let (log2, _) = scenario_log(2, None);
        let mut differ = OnlineDiffer::new(m1, stability, &config);
        let mut snaps = Vec::new();
        for event in log2.events() {
            snaps.extend(differ.observe(event));
        }
        let last = differ.finish().expect("events were observed");
        assert!(
            snaps.len() >= 5,
            "40s log at 5s epochs: {} snaps",
            snaps.len()
        );
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.epoch, i as u64, "epochs count up from zero");
            assert!(s.window.0 <= s.window.1);
            assert!(s.window.1.saturating_since(s.window.0) <= config.online_window_us);
            assert_eq!(s.records, s.model.records.len());
        }
        for w in snaps.windows(2) {
            assert_eq!(
                w[1].window.1.saturating_since(w[0].window.1),
                config.online_epoch_us,
                "window end advances by exactly one epoch"
            );
        }
        assert_eq!(last.epoch, snaps.len() as u64);
        let peak = snaps.iter().map(|s| s.records).max().unwrap();
        assert!(peak > 100, "steady traffic fills the windows: peak {peak}");
        // The capture has a quiet tail (flow-entry expirations trail the
        // last request): the sliding window must retire the old flows
        // rather than accumulate forever.
        assert!(
            snaps.last().unwrap().records < peak / 2,
            "trailing windows shrink as traffic stops"
        );
    }

    #[test]
    fn online_flush_with_full_width_window_matches_batch_build() {
        // With the window sized to the whole capture, nothing is ever
        // retired, so the final flush must reproduce the batch model
        // bit for bit — and diff empty against itself.
        let (log, mut config) = scenario_log(1, None);
        let (t0, t1) = log.time_range().unwrap();
        config.online_window_us = t1.saturating_since(t0);
        let batch = crate::model::BehaviorModel::build(&log, &config);
        let stability = crate::stability::StabilityReport::all_stable(&batch);
        let mut differ = OnlineDiffer::new(batch.clone(), stability, &config);
        for event in log.events() {
            differ.observe(event);
        }
        let last = differ.finish().unwrap();
        assert_eq!(last.model, batch, "streamed window model == batch model");
        assert!(last.diff.is_empty(), "a model diffed against itself");
    }

    #[test]
    fn same_conditions_produce_empty_diff() {
        let (log1, config) = scenario_log(1, None);
        let (log2, _) = scenario_log(2, None);
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let m2 = crate::model::BehaviorModel::build(&log2, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let diff = compare(&m1, &m2, &stability, &config);
        assert!(
            diff.is_empty(),
            "two healthy runs must not differ: {diff:#?}"
        );
    }

    #[test]
    fn host_slowdown_shifts_dd_only() {
        let (log1, config) = scenario_log(1, None);
        let mut topo = Topology::lab();
        let (_, _) = install_services(&mut topo, "of7");
        let s4 = topo.node_by_name("S4").unwrap();
        let (log2, _) = scenario_log(
            2,
            Some((
                Timestamp::ZERO,
                Fault::HostSlowdown {
                    host: s4,
                    extra_us: 150_000,
                },
            )),
        );
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let m2 = crate::model::BehaviorModel::build(&log2, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let diff = compare(&m1, &m2, &stability, &config);
        let g = &diff.group_diffs[0];
        assert!(
            g.of_kind(SignatureKind::Dd).count() > 0,
            "DD must shift under host slowdown"
        );
        assert_eq!(
            g.of_kind(SignatureKind::Cg).count(),
            0,
            "CG must be unaffected"
        );
        assert_eq!(diff.infra_of_kind(SignatureKind::Pt).count(), 0);
        assert_eq!(diff.infra_of_kind(SignatureKind::Crt).count(), 0);
    }

    #[test]
    fn app_crash_changes_cg_and_ci() {
        let (log1, config) = scenario_log(1, None);
        let mut topo = Topology::lab();
        let (_, _) = install_services(&mut topo, "of7");
        let s4 = topo.node_by_name("S4").unwrap();
        let (log2, _) = scenario_log(
            2,
            Some((
                Timestamp::ZERO,
                Fault::AppCrash {
                    host: s4,
                    port: 8080,
                },
            )),
        );
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let m2 = crate::model::BehaviorModel::build(&log2, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let diff = compare(&m1, &m2, &stability, &config);
        let g = &diff.group_diffs[0];
        assert!(
            g.of_kind(SignatureKind::Cg)
                .any(|c| c.direction == ChangeDirection::Removed),
            "app -> db edge must disappear: {:#?}",
            g.changes
        );
    }

    fn hello_at(ts: Timestamp) -> ControlEvent {
        ControlEvent {
            ts,
            dpid: openflow::types::DatapathId(1),
            direction: netsim::log::Direction::ToController,
            xid: openflow::types::Xid(0),
            msg: openflow::messages::OfpMessage::Hello,
        }
    }

    #[test]
    fn first_epoch_busy_gauge_is_not_saturated_under_light_load() {
        // Regression: the first epoch barrier used to fabricate a 1µs
        // wall when `epoch_wall` was unseeded, saturating
        // `worker_busy_pct` to 100 on an almost idle pipeline. Two
        // hellos and a deliberate 10ms pause are nowhere near a busy
        // epoch, so the first-epoch gauge must stay well under 100.
        let config = FlowDiffConfig::default();
        let empty = netsim::log::ControllerLog::new();
        let reference = crate::model::BehaviorModel::build(&empty, &config);
        let stability = crate::stability::StabilityReport::all_stable(&reference);
        let mut differ = ShardedDiffer::new(reference, stability, &config, 2);

        assert!(differ
            .observe(&hello_at(Timestamp::from_secs(1)))
            .is_empty());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let snaps = differ.observe(&hello_at(Timestamp::from_micros(
            1_000_000 + config.online_epoch_us,
        )));
        assert_eq!(snaps.len(), 1, "crossing one epoch boundary snapshots");
        let timings = differ.take_timings();
        assert!(
            timings.worker_busy_pct < 100,
            "first-epoch busy gauge spuriously saturated: {}%",
            timings.worker_busy_pct
        );
    }

    #[test]
    fn far_future_event_cannot_flood_the_epoch_clock() {
        let config = FlowDiffConfig::default();
        let empty = netsim::log::ControllerLog::new();
        let reference = crate::model::BehaviorModel::build(&empty, &config);
        let stability = crate::stability::StabilityReport::all_stable(&reference);
        let mut differ = OnlineDiffer::new(reference, stability, &config);

        assert!(differ
            .observe(&hello_at(Timestamp::from_secs(1)))
            .is_empty());
        // 10 000 epochs ahead: one snapshot per crossed epoch would be
        // 10 000 model builds. Only the draining window may be modeled.
        let jump = Timestamp::from_micros(1_000_000 + 10_000 * config.online_epoch_us);
        let flood = differ.observe(&hello_at(jump));
        let drain = config.online_window_us.div_ceil(config.online_epoch_us) + 1;
        assert!(
            (flood.len() as u64) <= drain,
            "{} snapshots for one quiet stretch",
            flood.len()
        );
        // The skipped boundaries still consume epoch indices, and the
        // differ keeps answering afterwards.
        let next = differ.observe(&hello_at(jump + config.online_epoch_us));
        assert_eq!(next.len(), 1);
        assert!(next[0].epoch >= 10_000, "epoch index reflects log time");
    }

    #[test]
    fn quarantined_timestamp_leaves_the_epoch_clock_alone() {
        let config = FlowDiffConfig {
            max_time_jump_us: 60_000_000,
            ..FlowDiffConfig::default()
        };
        let empty = netsim::log::ControllerLog::new();
        let reference = crate::model::BehaviorModel::build(&empty, &config);
        let stability = crate::stability::StabilityReport::all_stable(&reference);
        let mut differ = OnlineDiffer::new(reference, stability, &config);

        assert!(differ
            .observe(&hello_at(Timestamp::from_secs(1)))
            .is_empty());
        let corrupt = Timestamp::from_micros(1_000_000 + (1 << 50));
        assert!(
            differ.observe(&hello_at(corrupt)).is_empty(),
            "corrupt timestamp must not emit snapshots"
        );
        assert_eq!(differ.health().time_jumps, 1);
        // The epoch clock still follows honest time.
        let honest = differ.observe(&hello_at(Timestamp::from_secs(7)));
        assert_eq!(honest.len(), 1);
        assert_eq!(honest[0].epoch, 0);
    }

    #[test]
    fn starved_window_suppresses_missing_flow_flood() {
        // A rich reference, but the live stream delivers only
        // keepalives: every baseline flow would read as "missing"
        // without input-health gating.
        let (log, config) = scenario_log(1, None);
        let reference = crate::model::BehaviorModel::build(&log, &config);
        assert!(!reference.records.is_empty());
        let stability = crate::stability::analyze(&log, &reference, &config);
        let mut differ = OnlineDiffer::new(reference, stability, &config);
        let mut snaps = Vec::new();
        for s in 0..7u64 {
            snaps.extend(differ.observe(&hello_at(Timestamp::from_secs(1 + 5 * s))));
        }
        assert!(!snaps.is_empty());
        for snap in &snaps {
            assert!(
                snap.diff.is_empty(),
                "starved epoch {} must not flood: {:#?}",
                snap.epoch,
                snap.diff
            );
            assert_eq!(
                snap.health_of(SignatureKind::Fs),
                SignatureHealth::Starved {
                    reason: "no flow records in window".to_string()
                }
            );
            assert!(
                snap.suppressed().count() >= RECORD_FED.len(),
                "all record-fed signatures are suppressed"
            );
            assert!(snap.diff.missing_groups.is_empty());
        }
    }

    #[test]
    fn checkpointed_differ_resumes_mid_stream_identically() {
        let (log1, config) = scenario_log(1, None);
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let (log2, _) = scenario_log(2, None);
        let events: Vec<ControlEvent> = log2.events().to_vec();
        let cut = events.len() / 2;
        // The restart offers its own copy of the baseline, equal in
        // content: that is what the checkpoint names.
        let baseline = Arc::new(BaselineBundle {
            model: m1.clone(),
            stability: stability.clone(),
        });

        let mut straight = OnlineDiffer::new(m1.clone(), stability.clone(), &config);
        let mut interrupted = OnlineDiffer::new(m1, stability, &config);
        let mut straight_snaps = Vec::new();
        let mut resumed_snaps = Vec::new();
        for event in &events[..cut] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(interrupted.observe(event));
        }
        // Kill: serialize, forget, restore through the guarded format.
        let ckpt = crate::checkpoint::Checkpoint::capture(&interrupted, cut as u64, &config);
        drop(interrupted);
        let restored = crate::checkpoint::Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let (resumed, offset) = restored.resume(&baseline, &config).unwrap();
        assert_eq!(offset as usize, cut);
        let crate::engine::Differ::Single(mut resumed) = resumed else {
            panic!("expected the single differ back");
        };
        assert_eq!(resumed, straight, "restored state == uninterrupted state");
        for event in &events[cut..] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(resumed.observe(event));
        }
        let a = straight.finish().unwrap();
        let b = resumed.finish().unwrap();
        assert_eq!(straight_snaps, resumed_snaps);
        assert_eq!(a, b);
        assert_eq!(
            serde::to_vec(&a),
            serde::to_vec(&b),
            "final snapshots serialize byte-identically"
        );
    }

    #[test]
    fn sharded_differ_matches_single_shard_byte_for_byte() {
        // A fault in the live stream makes the per-epoch diffs
        // non-empty, so equality covers the change lists, not just
        // empty-vs-empty.
        let (log1, config) = scenario_log(1, None);
        let mut topo = Topology::lab();
        let (_, _) = install_services(&mut topo, "of7");
        let s4 = topo.node_by_name("S4").unwrap();
        let (log2, _) = scenario_log(
            2,
            Some((
                Timestamp::ZERO,
                Fault::HostSlowdown {
                    host: s4,
                    extra_us: 150_000,
                },
            )),
        );
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);

        let mut single = OnlineDiffer::new(m1.clone(), stability.clone(), &config);
        let mut single_snaps = Vec::new();
        for event in log2.events() {
            single_snaps.extend(single.observe(event));
        }
        let single_health = single.health();
        let single_last = single.finish().unwrap();
        assert!(
            single_snaps.iter().any(|s| !s.diff.is_empty()),
            "the faulted stream must produce non-trivial diffs"
        );

        for n_shards in [1usize, 2, 3] {
            let mut sharded = ShardedDiffer::new(m1.clone(), stability.clone(), &config, n_shards);
            let mut snaps = Vec::new();
            for event in log2.events() {
                snaps.extend(sharded.observe(event));
            }
            assert_eq!(
                sharded.health(),
                single_health,
                "{n_shards}-shard health rollup == single-shard health"
            );
            let last = sharded.finish().unwrap();
            assert_eq!(
                snaps, single_snaps,
                "{n_shards}-shard snapshots == single-shard snapshots"
            );
            assert_eq!(last, single_last, "{n_shards}-shard final flush");
            assert_eq!(
                serde::to_vec(&last),
                serde::to_vec(&single_last),
                "{n_shards}-shard final snapshot serializes byte-identically"
            );
            for (a, b) in snaps.iter().zip(&single_snaps) {
                assert_eq!(
                    serde::to_vec(a),
                    serde::to_vec(b),
                    "epoch {} serializes byte-identically under {n_shards} shards",
                    a.epoch
                );
            }
        }
    }

    #[test]
    fn sharded_checkpoint_resumes_mid_stream_identically() {
        let (log1, config) = scenario_log(1, None);
        let m1 = crate::model::BehaviorModel::build(&log1, &config);
        let stability = crate::stability::analyze(&log1, &m1, &config);
        let (log2, _) = scenario_log(2, None);
        let events: Vec<ControlEvent> = log2.events().to_vec();
        let cut = events.len() / 2;
        let baseline = Arc::new(BaselineBundle {
            model: m1,
            stability,
        });

        let mut straight = ShardedDiffer::try_new(Arc::clone(&baseline), &config, 3).unwrap();
        let mut interrupted = ShardedDiffer::try_new(Arc::clone(&baseline), &config, 3).unwrap();
        let mut straight_snaps = Vec::new();
        let mut resumed_snaps = Vec::new();
        for event in &events[..cut] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(interrupted.observe(event));
        }
        // Kill mid-epoch: serialize through the one format, restore via
        // the shape-tagged entry point.
        let ckpt =
            crate::checkpoint::Checkpoint::capture_sharded(&interrupted, cut as u64, &config);
        drop(interrupted);
        let (restored, offset) =
            crate::engine::Differ::restore(&ckpt.to_bytes(), &baseline, &config).unwrap();
        assert_eq!(offset as usize, cut);
        let crate::engine::Differ::Sharded(mut resumed) = restored else {
            panic!("expected a sharded differ back");
        };
        assert_eq!(resumed, straight, "restored state == uninterrupted state");
        for event in &events[cut..] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(resumed.observe(event));
        }
        let a = straight.finish().unwrap();
        let b = resumed.finish().unwrap();
        assert_eq!(straight_snaps, resumed_snaps);
        assert_eq!(a, b);
        assert_eq!(
            serde::to_vec(&a),
            serde::to_vec(&b),
            "final snapshots serialize byte-identically"
        );
    }
}
