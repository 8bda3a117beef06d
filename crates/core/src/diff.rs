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
use std::sync::{Arc, OnceLock};

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::change::{Change, SignatureKind};
use crate::checkpoint::BaselineBundle;
use crate::config::{ConfigError, FlowDiffConfig};
use crate::derived::Derived;
use crate::epoch::EpochClock;
use crate::groups::{match_group_refs, AppGroup};
use crate::model::{BehaviorModel, IncrementalModelBuilder};
use crate::records::{FlowRecord, IngestHealth, RecordAssembler, Sequencer};
use crate::signatures::{DiffCtx, Signature, StabilityMask};
use crate::stability::StabilityReport;
use netsim::log::FlowEvent;

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

    /// How many changes the diff holds: every group's, the
    /// infrastructure's, and one per new or missing group. The count an
    /// epoch line reports.
    pub fn change_count(&self) -> usize {
        self.group_diffs
            .iter()
            .map(|g| g.changes.len())
            .sum::<usize>()
            + self.infra.len()
            + self.new_groups.len()
            + self.missing_groups.len()
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
/// (index-aligned with `reference.groups`). Every threshold is a
/// constant of [`crate::config`]; `_config` is not read, and stays
/// because the benchmark harness passes it.
pub fn compare(
    reference: &BehaviorModel,
    current: &BehaviorModel,
    stability: &StabilityReport,
    _config: &FlowDiffConfig,
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

/// Why a signature's diff was suppressed at an epoch boundary: its
/// input feed is starved.
///
/// A detector whose inputs are starved should lower its confidence
/// rather than flood the operator with false "missing behavior"
/// alarms. The [`OnlineDiffer`] judges every signature at each boundary
/// and *suppresses* the diffs of starved kinds: the changes are
/// stripped from the [`EpochSnapshot`] and the kind listed in
/// [`EpochSnapshot::gating`] with its reason instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GateReason {
    /// The transport reports a stalled or dead source; the note says
    /// which. Every kind gated in one epoch shares the one note.
    IngestDegraded(Arc<str>),
    /// The window holds no flow record while the reference has some.
    NoFlowRecords,
    /// The window holds no port-counter sample while the reference has
    /// some.
    NoPortSamples,
}

impl fmt::Display for GateReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateReason::IngestDegraded(note) => write!(f, "ingest degraded: {note}"),
            GateReason::NoFlowRecords => write!(f, "no flow records in window"),
            GateReason::NoPortSamples => write!(f, "no port-counter samples in window"),
        }
    }
}

/// One sliding-window comparison emitted by the [`OnlineDiffer`] at an
/// epoch boundary: the model of the trailing window and its diff
/// against the reference. [`EpochSnapshot::verdict`] diagnoses it.
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
    /// kind not listed here was judged as usual.
    pub gating: Vec<(SignatureKind, GateReason)>,
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
/// suppressed kinds with their reasons.
fn gate_diff(
    reference: &BehaviorModel,
    model: &BehaviorModel,
    degraded: Option<&Arc<str>>,
    diff: &mut ModelDiff,
) -> Vec<(SignatureKind, GateReason)> {
    let mut gating: Vec<(SignatureKind, GateReason)> = Vec::new();
    if let Some(note) = degraded {
        // The transport says a source is stalled or dead: part of the
        // window's behavior is simply missing, so every signature's
        // diff is suppressed rather than flooding "missing flow" alarms
        // against a starved input.
        for kind in RECORD_FED.into_iter().chain([SignatureKind::Lu]) {
            gating.push((kind, GateReason::IngestDegraded(note.clone())));
        }
    } else {
        if model.records.is_empty() && !reference.records.is_empty() {
            for kind in RECORD_FED {
                gating.push((kind, GateReason::NoFlowRecords));
            }
        }
        if model.utilization.per_port.is_empty() && !reference.utilization.per_port.is_empty() {
            gating.push((SignatureKind::Lu, GateReason::NoPortSamples));
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

/// What the differ judges a window model with: the baseline, the
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
    /// (a stalled or dead publisher): while set, every signature is
    /// gated [`GateReason::IngestDegraded`]. A live transport condition,
    /// not stream state.
    ingest_degraded: Derived<Option<Arc<str>>>,
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
            self.ingest_degraded.0.as_ref(),
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
    /// Folding boundary-drained completed records into the builder.
    pub observe_us: u64,
    /// Building the window model (reading the touched in-flight
    /// episodes out of the assembler plus the incremental epoch
    /// snapshot).
    pub snapshot_us: u64,
    /// Comparing against the reference and gating the diff.
    pub diff_us: u64,
    /// Always zero, like the next two: the benchmark harness still
    /// reads these fields of the sharded differ that
    /// [`harness_seam`](crate::harness_seam) stands in for.
    pub merge_us: u64,
    /// Always zero (see `merge_us`).
    pub queue_depth_peak: u64,
    /// Always zero (see `merge_us`).
    pub worker_busy_pct: u64,
}

impl EpochTimings {
    /// Accumulates another sample (for averaging across epochs).
    pub fn add(&mut self, other: EpochTimings) {
        self.retire_us += other.retire_us;
        self.observe_us += other.observe_us;
        self.snapshot_us += other.snapshot_us;
        self.diff_us += other.diff_us;
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
/// memory follows the window: `retire_before` drops what slides out of
/// it, and the assembler drops an eviction the window has already slid
/// past ([`RecordAssembler::set_floor`]) instead of handing it over.
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
        let (sequencer, mut assembler, builder, clock): (_, RecordAssembler, _, EpochClock) =
            serde::from_slice(state)?;
        assembler.set_floor(clock.window_floor());
        Ok(OnlineDiffer {
            judge: Judge::restored(baseline, baseline_id, config),
            sequencer,
            assembler,
            builder: IncrementalModelBuilder::with_config(builder, config),
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

    /// [`IncrementalModelBuilder::epoch_panes_rebuilt`] of the latest
    /// boundary.
    pub fn epoch_panes_rebuilt(&self) -> usize {
        self.builder.epoch_panes_rebuilt()
    }

    /// Records the window builder holds and episodes the assembler
    /// holds open: the load the harness seam reports as its one shard.
    pub(crate) fn load(&self) -> (usize, usize) {
        (self.builder.record_count(), self.assembler.open_len())
    }

    /// Sets (or clears) the transport-degradation note: while set,
    /// every signature is gated [`GateReason::IngestDegraded`] with this
    /// note — the serving loop calls this when a publisher stream
    /// goes stalled or dead, and clears it when the stream revives.
    /// Transient: never serialized, never part of differ equality.
    pub fn set_ingest_degraded(&mut self, reason: Option<String>) {
        self.judge.ingest_degraded.0 = reason.map(Arc::from);
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
    pub fn observe(&mut self, event: impl Into<FlowEvent>) -> Vec<EpochSnapshot> {
        let event = event.into();
        // A quarantined timestamp must not drive the epoch clock either.
        if !self.sequencer.admit(event.ts) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (epoch, boundary) in self.clock.advance(event.ts) {
            out.push(self.snapshot_at(epoch, boundary));
        }
        if !out.is_empty() {
            // No later window reaches back before this: the assembler
            // drops an eviction first seen earlier instead of handing it
            // over to be retired unread.
            self.assembler.set_floor(self.clock.window_floor());
        }
        self.builder.fold_event(&event);
        let assembler = &mut self.assembler;
        self.sequencer.release(event, |ev| assembler.observe(ev));
        for record in self.assembler.take_completed() {
            self.builder.observe_record(record);
        }
        out
    }

    /// Flushes the final partial epoch, completing every in-flight
    /// episode, through the maintained window like any boundary. None
    /// when no event was ever observed.
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
            assembler.observe(ev);
        }
        // Retire first, then place only what the final window keeps:
        // the episodes first seen before it would be retired unread. None
        // stays open, so every open version the window holds gives way
        // to its completion.
        let start = clock.window_start(end);
        builder.retire_before(start);
        assembler.set_floor(start);
        for record in assembler.finish_unsorted() {
            builder.observe_record(record);
        }
        let model = builder.epoch_snapshot((start, end), Vec::<FlowRecord>::new());
        Some(judge.snapshot(clock.epoch(), (start, end), model))
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
        let start = self.clock.window_start(boundary);
        timed(&mut timings.retire_us, || {
            self.builder.retire_before(start);
        });
        // The in-flight episodes belong in this window's picture, but
        // must complete into the real builder exactly once: the builder
        // keeps them in its derived window state only, and needs just
        // the in-window ones that changed since the previous boundary,
        // which the assembler lends it.
        let model = timed(&mut timings.snapshot_us, || {
            let opens = self.assembler.touched_open_records_since(start);
            self.builder.epoch_snapshot((start, boundary), opens)
        });
        timed(&mut timings.diff_us, || {
            self.judge.snapshot(epoch, (start, boundary), model)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeDirection;
    use openflow::types::Timestamp;
    use workloads::prelude::*;

    /// The gate reasons print the texts the epoch line has always
    /// carried, and a degraded epoch's kinds share one note.
    #[test]
    fn gate_reasons_read_as_before() {
        let note: Arc<str> = Arc::from("conn 0 stalled");
        assert_eq!(
            GateReason::IngestDegraded(note.clone()).to_string(),
            "ingest degraded: conn 0 stalled"
        );
        assert_eq!(
            GateReason::NoFlowRecords.to_string(),
            "no flow records in window"
        );
        assert_eq!(
            GateReason::NoPortSamples.to_string(),
            "no port-counter samples in window"
        );

        let empty = BehaviorModel::build(&ControllerLog::new(), &FlowDiffConfig::default());
        let mut diff = compare(
            &empty,
            &empty,
            &StabilityReport::all_stable(&empty),
            &FlowDiffConfig::default(),
        );
        let gating = gate_diff(&empty, &empty, Some(&note), &mut diff);
        assert_eq!(gating.len(), RECORD_FED.len() + 1);
        for (_, reason) in &gating {
            let GateReason::IngestDegraded(shared) = reason else {
                panic!("{reason}");
            };
            assert!(Arc::ptr_eq(shared, &note));
        }
        let bytes = serde::to_vec(&gating);
        let back: Vec<(SignatureKind, GateReason)> = serde::from_slice(&bytes).unwrap();
        assert_eq!(back, gating);
    }

    /// A 40 s webshop capture, `fault` injected at its timestamp.
    fn scenario_log(
        seed: u64,
        fault: Option<(Timestamp, Fault)>,
    ) -> (ControllerLog, FlowDiffConfig) {
        let lab = Lab::new();
        let mut sc = lab.webshop(seed, 40);
        if let Some((at, f)) = fault {
            sc.fault(at, f);
        }
        let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
        (sc.run().log, config)
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
        assert_eq!(diff.change_count(), 0);
    }

    #[test]
    fn host_slowdown_shifts_dd_only() {
        let (log1, config) = scenario_log(1, None);
        let s4 = Lab::new().node("S4");
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
        let s4 = Lab::new().node("S4");
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
        // One matched group, none new or missing: the epoch line counts
        // its changes and the infrastructure's.
        assert_eq!(diff.group_diffs.len(), 1);
        assert!(diff.new_groups.is_empty() && diff.missing_groups.is_empty());
        assert_eq!(diff.change_count(), g.changes.len() + diff.infra.len());
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
            for kind in RECORD_FED {
                assert!(
                    snap.gating.contains(&(kind, GateReason::NoFlowRecords)),
                    "{kind:?} is suppressed: {:?}",
                    snap.gating
                );
            }
            assert!(snap.diff.missing_groups.is_empty());
        }
    }

    /// The webshop pair at 5 s epochs over a 5 s window, evicting
    /// episodes idle for 6 s: every sweep finds episodes first seen
    /// before the window, since they went idle before it began.
    fn short_horizon() -> (Arc<BaselineBundle>, Vec<ControlEvent>, FlowDiffConfig) {
        let (log1, config) = scenario_log(1, None);
        let config = FlowDiffConfig {
            online_epoch_us: 5_000_000,
            online_window_us: 5_000_000,
            partial_flow_timeout_us: 6_000_000,
            ..config
        };
        let model = BehaviorModel::build(&log1, &config);
        let stability = StabilityReport::all_stable(&model);
        let baseline = Arc::new(BaselineBundle { model, stability });
        (baseline, scenario_log(2, None).0.events().to_vec(), config)
    }

    /// After each event of a run over `events`: whether it crossed a
    /// boundary, and whether it evicted episodes.
    fn boundaries_and_sweeps(
        baseline: &Arc<BaselineBundle>,
        events: &[ControlEvent],
        config: &FlowDiffConfig,
    ) -> Vec<(bool, bool)> {
        let mut differ = OnlineDiffer::try_new(Arc::clone(baseline), config).unwrap();
        (events.iter())
            .map(|event| {
                let evicted = differ.health().episodes_evicted;
                let crossed = !differ.observe(event).is_empty();
                (crossed, differ.health().episodes_evicted > evicted)
            })
            .collect()
    }

    #[test]
    fn evictions_before_the_window_never_reach_the_builder() {
        let (baseline, events, config) = short_horizon();
        let sweeps = boundaries_and_sweeps(&baseline, &events, &config);
        assert!(
            sweeps.iter().filter(|&&(_, swept)| swept).count() >= 2,
            "the capture sweeps at least twice"
        );
        let mut differ = OnlineDiffer::try_new(baseline, &config).unwrap();
        let mut start = Timestamp::ZERO;
        for (i, event) in events.iter().enumerate() {
            if let Some(snap) = differ.observe(event).last() {
                start = snap.window.0;
            }
            let stale = (differ.builder.completions().iter())
                .filter(|r| r.first_seen < start)
                .count();
            assert_eq!(
                stale, 0,
                "after event {i}: completions first seen before the window start {start:?}"
            );
        }
    }

    #[test]
    fn resumed_across_an_evicting_sweep_checkpoints_byte_identically() {
        use crate::checkpoint::Checkpoint;
        let (baseline, events, config) = short_horizon();
        let marks = boundaries_and_sweeps(&baseline, &events, &config);
        // Kill right after a boundary that a sweep follows before the
        // next boundary: the restored differ sweeps before it snapshots.
        let cut = (0..marks.len())
            .find(|&i| {
                marks[i].0 && {
                    let after = &marks[i + 1..];
                    let next = after.iter().position(|&(crossed, _)| crossed);
                    after[..next.unwrap_or(after.len())]
                        .iter()
                        .any(|&(_, swept)| swept)
                }
            })
            .expect("a sweep between two boundaries")
            + 1;
        let mut straight = OnlineDiffer::try_new(Arc::clone(&baseline), &config).unwrap();
        for event in &events[..cut] {
            straight.observe(event);
        }
        let bytes = Checkpoint::capture(&straight, cut as u64, &config).to_bytes();
        let (mut resumed, _) = (Checkpoint::from_bytes(&bytes).unwrap())
            .resume(&baseline, &config)
            .unwrap();
        let mut checked = 0;
        for (i, event) in events.iter().enumerate().skip(cut) {
            assert_eq!(straight.observe(event), resumed.observe(event));
            if marks[i] != (false, false) {
                let offset = i as u64 + 1;
                assert!(
                    Checkpoint::capture(&straight, offset, &config).to_bytes()
                        == Checkpoint::capture(&resumed, offset, &config).to_bytes(),
                    "checkpoints after event {i} differ"
                );
                checked += 1;
            }
        }
        assert!(checked >= 2);
        assert_eq!(straight.finish(), resumed.finish());
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
        let (mut resumed, offset) = restored.resume(&baseline, &config).unwrap();
        assert_eq!(offset as usize, cut);
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
