//! The online engine: FlowDiff run continuously against a known-good
//! model, as a library. Everything that runs online — `flowdiff-bench
//! watch` over a capture file, `serve` over sockets, the crash drills —
//! is these three pieces:
//!
//! * [`Differ`], the online differ in either deployment shape.
//!   [`Differ::try_new`] is the only place a shape is chosen, and
//!   [`Differ::checkpoint`] / [`Differ::restore`] are the only way the
//!   running system writes and reads FDIFFCKP bytes.
//! * [`Feed`], where events come from: a decoded capture, or a live
//!   [`EventMerge`] pulled on demand. Either can be re-read from any
//!   earlier offset, which is what a checkpoint replay needs.
//! * [`supervise`], the loop: every epoch handed to the caller exactly
//!   once, checkpoints on the configured cadence, panics survived by
//!   restoring the last checkpoint and replaying.
//!
//! ```
//! use flowdiff::prelude::*;
//! use netsim::log::ControllerLog;
//!
//! let config = FlowDiffConfig::default();
//! let baseline = BehaviorModel::build(&ControllerLog::new(), &config);
//! let stability = StabilityReport::all_stable(&baseline);
//! let current = ControllerLog::new(); // normally: a decoded capture
//!
//! let fresh = || Ok((Differ::try_new(baseline.clone(), stability.clone(), &config, 1)?, 0));
//! let run = supervise(
//!     &mut Feed::Slice(current.events()),
//!     &fresh,
//!     &Supervision { config: &config, checkpoint_path: None, degraded: None },
//!     |_, epoch, _| println!("epoch {}: {} flows", epoch.epoch, epoch.records),
//! )
//! .unwrap();
//! assert_eq!(run.restarts, 0);
//! ```

use std::error::Error;
use std::path::Path;

use netsim::log::ControlEvent;
use netsim::net::EventMerge;

use crate::checkpoint::{
    atomic_write, read_header, Checkpoint, PersistError, ShardedCheckpoint, CHECKPOINT_MAGIC,
    CHECKPOINT_V1, CHECKPOINT_VERSION,
};
use crate::config::{ConfigError, FlowDiffConfig};
use crate::diff::{EpochSnapshot, EpochTimings, OnlineDiffer, ShardStats, ShardedDiffer};
use crate::model::BehaviorModel;
use crate::records::IngestHealth;
use crate::stability::StabilityReport;

/// What the engine's fallible calls return: the caller's `fresh` can
/// fail with anything, so the loop's own failures travel the same way.
pub type EngineResult<T> = Result<T, Box<dyn Error>>;

/// The online pipeline in either deployment shape: one shard is the
/// [`OnlineDiffer`] code path — no routing, no threads — and more is
/// the partitioned [`ShardedDiffer`]. Both promise byte-identical epoch
/// snapshots, so everything downstream of this enum is shape-blind.
// One value lives for a whole run; the variant size skew does not
// justify boxing every access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Differ {
    /// The single pipeline.
    Single(OnlineDiffer),
    /// N shard workers behind a router.
    Sharded(ShardedDiffer),
}

/// A differ brought back by [`Differ::restore`].
#[derive(Debug)]
pub struct Restored {
    /// The differ, in the shape the checkpoint was written in.
    pub differ: Differ,
    /// The replay offset: events `[events_consumed..]` catch it up.
    pub events_consumed: u64,
    /// Shards whose checkpoint segment was corrupt and came back as
    /// fresh workers (the differ is then under warm-up gating).
    pub salvaged_shards: Vec<usize>,
}

impl Differ {
    /// A differ against `baseline`, gated by `stability`, over `shards`
    /// shard workers; `0` and `1` both mean the single pipeline.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`FlowDiffConfig::validate`].
    pub fn try_new(
        baseline: BehaviorModel,
        stability: StabilityReport,
        config: &FlowDiffConfig,
        shards: usize,
    ) -> Result<Differ, ConfigError> {
        Ok(if shards > 1 {
            Differ::Sharded(ShardedDiffer::try_new(baseline, stability, config, shards)?)
        } else {
            Differ::Single(OnlineDiffer::try_new(baseline, stability, config)?)
        })
    }

    /// Feeds one event; returns the snapshot of every epoch boundary it
    /// crossed (see [`OnlineDiffer::observe`]).
    pub fn observe(&mut self, event: &ControlEvent) -> Vec<EpochSnapshot> {
        match self {
            Differ::Single(d) => d.observe(event),
            Differ::Sharded(d) => d.observe(event),
        }
    }

    /// Flushes the final partial epoch; `None` if nothing was observed.
    pub fn finish(self) -> Option<EpochSnapshot> {
        match self {
            Differ::Single(d) => d.finish(),
            Differ::Sharded(d) => d.finish(),
        }
    }

    /// The zero-based index of the next epoch to be emitted.
    pub fn epoch(&self) -> u64 {
        match self {
            Differ::Single(d) => d.epoch(),
            Differ::Sharded(d) => d.epoch(),
        }
    }

    /// Event-level ingestion health so far. Quiesces a sharded
    /// pipeline, so it panics if a worker has died.
    pub fn health(&self) -> IngestHealth {
        match self {
            Differ::Single(d) => *d.health(),
            Differ::Sharded(d) => d.health(),
        }
    }

    /// See [`OnlineDiffer::mark_lossy_restore`].
    pub fn mark_lossy_restore(&mut self) {
        match self {
            Differ::Single(d) => d.mark_lossy_restore(),
            Differ::Sharded(d) => d.mark_lossy_restore(),
        }
    }

    /// See [`OnlineDiffer::set_ingest_degraded`].
    pub fn set_ingest_degraded(&mut self, reason: Option<String>) {
        match self {
            Differ::Single(d) => d.set_ingest_degraded(reason),
            Differ::Sharded(d) => d.set_ingest_degraded(reason),
        }
    }

    /// Drains the per-stage wall-clock spent since the last call (see
    /// [`ShardedDiffer::take_timings`] for the sharded stage mapping).
    pub fn take_timings(&mut self) -> EpochTimings {
        match self {
            Differ::Single(d) => d.take_timings(),
            Differ::Sharded(d) => d.take_timings(),
        }
    }

    /// Per-shard worker load and cumulative merge microseconds; `None`
    /// for the single pipeline. Quiesces, like [`Differ::health`].
    pub fn shard_report(&self) -> Option<(Vec<ShardStats>, u64)> {
        match self {
            Differ::Single(_) => None,
            Differ::Sharded(d) => Some((d.shard_stats(), d.merge_micros())),
        }
    }

    /// See [`ShardedDiffer::poison_worker`]; a no-op for the single
    /// pipeline, which has no worker threads to kill.
    pub fn poison_worker(&mut self, shard: usize) {
        match self {
            Differ::Single(_) => {}
            Differ::Sharded(d) => d.poison_worker(shard),
        }
    }

    /// The complete streaming state as FDIFFCKP bytes, in the layout
    /// matching the shape (v1 single, v2 segmented), stamped with the
    /// replay offset and `config`'s fingerprint.
    pub fn checkpoint(&self, events_consumed: u64, config: &FlowDiffConfig) -> Vec<u8> {
        match self {
            Differ::Single(d) => Checkpoint::capture(d, events_consumed, config).to_bytes(),
            Differ::Sharded(d) => ShardedCheckpoint::capture(d, events_consumed, config).to_bytes(),
        }
    }

    /// Reads a checkpoint of either layout back into a running differ.
    /// A corrupt per-shard segment of a v2 file salvages to a fresh
    /// worker rather than failing the whole restore.
    ///
    /// # Errors
    ///
    /// Every container- and manifest-level [`PersistError`], and
    /// [`PersistError::ConfigMismatch`] when `config` is not the one
    /// the checkpoint was written under.
    pub fn restore(bytes: &[u8], config: &FlowDiffConfig) -> Result<Restored, PersistError> {
        let (differ, events_consumed, salvaged_shards) =
            match read_header(CHECKPOINT_MAGIC, bytes)?.version {
                CHECKPOINT_V1 => {
                    let (differ, at) = Checkpoint::from_bytes(bytes)?.resume(config)?;
                    (Differ::Single(differ), at, Vec::new())
                }
                CHECKPOINT_VERSION => {
                    let mut checkpoint = ShardedCheckpoint::from_bytes_salvaging(bytes)?;
                    let salvaged = std::mem::take(&mut checkpoint.salvaged_shards);
                    let (differ, at) = checkpoint.resume(config)?;
                    (Differ::Sharded(differ), at, salvaged)
                }
                found => {
                    return Err(PersistError::UnsupportedVersion {
                        supported: CHECKPOINT_VERSION,
                        found,
                    })
                }
            };
        Ok(Restored {
            differ,
            events_consumed,
            salvaged_shards,
        })
    }
}

/// [`Differ::restore`] from a file, as `--resume` and the supervised
/// restart both do it: errors carry the path, and salvaged segments
/// are reported on stderr.
///
/// # Errors
///
/// The read failure or the [`PersistError`], prefixed with `path`.
pub fn resume_from(path: &Path, config: &FlowDiffConfig) -> EngineResult<(Differ, u64)> {
    let at_path = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let bytes = std::fs::read(path).map_err(|e| at_path(&e))?;
    let restored = Differ::restore(&bytes, config).map_err(|e| at_path(&e))?;
    if !restored.salvaged_shards.is_empty() {
        eprintln!(
            "warning: salvaged corrupt checkpoint segment(s) for shard(s) {:?}; \
             those workers restart fresh under warm-up gating",
            restored.salvaged_shards
        );
    }
    Ok((restored.differ, restored.events_consumed))
}

/// The supervised loop's event source.
///
/// `Slice` is the batch shape (`watch`, the drills, the tests): the
/// capture fully decoded up front. `Live` pulls from a wire
/// [`EventMerge`] *on demand* — an epoch is diffed and handed over
/// while publishers are still connected — and retains every pulled
/// event so a checkpoint replay can re-read from any earlier offset,
/// exactly like a file. With a stall-tolerant merge that is also what
/// keeps a silent stream from wedging epoch emission: `get` returns
/// whatever the merge releases past the stalled source.
pub enum Feed<'a> {
    /// A fully decoded capture.
    Slice(&'a [ControlEvent]),
    /// A live merge plus every event pulled from it so far.
    Live {
        /// The `(timestamp, connection)` merge of the ingest streams.
        merge: EventMerge,
        /// What it has released, in order.
        buffered: Vec<ControlEvent>,
    },
}

impl Feed<'_> {
    /// A feed over a live merge, nothing pulled yet.
    pub fn live(merge: EventMerge) -> Feed<'static> {
        Feed::Live {
            merge,
            buffered: Vec::new(),
        }
    }

    /// The event at `idx`, pulling (and blocking on) the live merge as
    /// needed; `None` once the stream is exhausted.
    pub fn get(&mut self, idx: usize) -> Option<&ControlEvent> {
        if let Feed::Live { merge, buffered } = self {
            while buffered.len() <= idx {
                let Some(event) = merge.next() else { break };
                buffered.push(event);
            }
        }
        self.events().get(idx)
    }

    /// The events seen so far (the whole capture for `Slice`).
    pub fn events(&self) -> &[ControlEvent] {
        match self {
            Feed::Slice(events) => events,
            Feed::Live { buffered, .. } => buffered,
        }
    }
}

/// How [`supervise`] runs.
pub struct Supervision<'a> {
    /// Supplies `checkpoint_every_epochs`, `restart_budget`,
    /// `restart_backoff_us` and the fingerprint checkpoints carry.
    pub config: &'a FlowDiffConfig,
    /// Where checkpoints are written (atomically, replaced in place).
    /// Without one, every restart starts over from `fresh`.
    pub checkpoint_path: Option<&'a Path>,
    /// The degraded-ingest probe: polled once per event (cheap atomic
    /// reads in `serve`) after the feed hands the event over — so a
    /// stall the merge just waived to release it is visible — and
    /// applied to the differ *before* the observation, so an epoch that
    /// closes while a source is stalled or dead gates its diffs instead
    /// of alarming on the missing share.
    pub degraded: Option<&'a dyn Fn() -> Option<String>>,
}

/// What a finished [`supervise`] run hands back.
#[derive(Debug)]
pub struct RunReport {
    /// The final, flushed partial epoch (not passed to `on_snapshot`).
    pub last: Option<EpochSnapshot>,
    /// Ingestion health of the last incarnation of the differ.
    pub health: IngestHealth,
    /// Restarts spent.
    pub restarts: u32,
    /// Worker loads and cumulative merge microseconds when sharded.
    pub shards: Option<(Vec<ShardStats>, u64)>,
}

/// Drives `feed` through a supervised online differ.
///
/// `fresh` builds the differ the run starts from and the feed offset it
/// starts at (a `--resume` restores here). The run segment — observe,
/// deliver, checkpoint, final health rollup — executes inside one
/// `catch_unwind`. A panic spends one restart: back off exponentially,
/// restore the last checkpoint *this run* wrote (or call `fresh` again
/// when it has written none: a file an earlier run left at the path
/// indexes some other feed), replay from the restored offset. More
/// than `restart_budget` restarts is an error.
///
/// Each epoch reaches `on_snapshot` exactly once, in order, however
/// often the stream is replayed: the delivery watermark lives outside
/// the guarded region and moves only after `on_snapshot` returns.
/// `on_snapshot` runs inside the guarded region with the live differ in
/// hand, which is where a crash drill injects its faults — a panic, or
/// [`Differ::poison_worker`], before it records the epoch — exactly
/// what a power cut between compute and output looks like. Its
/// [`EpochTimings`] are those accumulated since the previous boundary;
/// a multi-epoch advance attributes the sum to its first epoch.
///
/// # Errors
///
/// Whatever `fresh` fails with, a checkpoint that cannot be written or
/// restored, or an exhausted restart budget.
pub fn supervise(
    feed: &mut Feed<'_>,
    fresh: &dyn Fn() -> EngineResult<(Differ, u64)>,
    supervision: &Supervision<'_>,
    mut on_snapshot: impl FnMut(&mut Differ, &EpochSnapshot, EpochTimings),
) -> EngineResult<RunReport> {
    let Supervision {
        config,
        checkpoint_path,
        degraded,
    } = *supervision;
    let (mut differ, start) = fresh()?;
    let mut idx = start as usize;
    // Epochs below this watermark were already delivered (possibly by a
    // previous process incarnation): a replay skips them.
    let mut emitted: u64 = differ.epoch();
    let mut epochs_since_ckpt: u64 = 0;
    let mut saved = false;
    let mut restarts: u32 = 0;
    loop {
        let segment = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Some(event) = feed.get(idx) {
                if let Some(probe) = degraded {
                    differ.set_ingest_degraded(probe());
                }
                let snaps = differ.observe(event);
                idx += 1;
                if snaps.is_empty() {
                    continue;
                }
                let mut timings = differ.take_timings();
                for snap in &snaps {
                    if snap.epoch >= emitted {
                        on_snapshot(&mut differ, snap, std::mem::take(&mut timings));
                        emitted = snap.epoch + 1;
                        epochs_since_ckpt += 1;
                    }
                }
                if let Some(path) = checkpoint_path {
                    if epochs_since_ckpt >= config.checkpoint_every_epochs {
                        // Events [..idx] are consumed. Capture quiesces
                        // the pipeline, so a worker poisoned this round
                        // panics here instead of snapshotting a dead
                        // pipeline.
                        atomic_write(path, &differ.checkpoint(idx as u64, config))?;
                        saved = true;
                        epochs_since_ckpt = 0;
                    }
                }
            }
            // Both quiesce, so a worker poisoned during the last rounds
            // surfaces here, still guarded.
            Ok::<_, PersistError>((differ.health(), differ.shard_report()))
        }));
        match segment {
            Ok(Ok((health, shards))) => {
                return Ok(RunReport {
                    last: differ.finish(),
                    health,
                    restarts,
                    shards,
                });
            }
            Ok(Err(e)) => return Err(e.into()),
            Err(_) => {}
        }
        restarts += 1;
        if restarts > config.restart_budget {
            return Err(format!(
                "restart budget exhausted: panicked {restarts} times, budget {}",
                config.restart_budget
            )
            .into());
        }
        let backoff = config
            .restart_backoff_us
            .saturating_mul(1u64 << (restarts - 1).min(20));
        std::thread::sleep(std::time::Duration::from_micros(backoff));
        let (restored, at) = match checkpoint_path {
            Some(path) if saved => resume_from(path, config)?,
            _ => fresh()?,
        };
        differ = restored;
        idx = at as usize;
        epochs_since_ckpt = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;
    use std::path::PathBuf;

    use netsim::log::ControllerLog;
    use netsim::prelude::{
        publish_session, split_capture, CrashPlan, IngestServer, LiveOptions, SessionOptions,
        Timestamp, Topology,
    };
    use workloads::prelude::*;

    use super::*;
    use crate::checkpoint::fnv1a;
    use crate::stability::analyze;

    /// A short capture on the 320-server tree with `n_apps` disjoint
    /// three-tier meshes (the bench crate's `tree_capture`).
    fn tree_log(n_apps: usize, seed: u64, secs: u64) -> ControllerLog {
        let topo = Topology::tree(16, 20);
        let hosts: Vec<Ipv4Addr> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
        let mut sc = Scenario::new(
            topo,
            seed,
            Timestamp::from_secs(1),
            Timestamp::from_secs(1 + secs),
        );
        for a in 0..n_apps {
            let pick = |tier: usize, k: usize| hosts[(a * 9 + tier * 3 + k) % hosts.len()];
            let mut pairs = Vec::new();
            for tier in 0..2 {
                for i in 0..3 {
                    for j in 0..3 {
                        let dport = if tier == 0 { 8080 } else { 3306 };
                        pairs.push((pick(tier, i), pick(tier + 1, j), dport));
                    }
                }
            }
            sc.mesh(OnOffMesh {
                pairs,
                process: OnOffProcess::default(),
                reuse_prob: 0.6,
                bytes_per_flow: 30_000,
            });
        }
        sc.run().log
    }

    /// A lab-scale drill: one-second epochs, a checkpoint at every one,
    /// a budget of two fast restarts.
    struct Drill {
        config: FlowDiffConfig,
        baseline: BehaviorModel,
        stability: StabilityReport,
        current: ControllerLog,
    }

    impl Drill {
        fn new() -> Drill {
            let config = FlowDiffConfig {
                online_epoch_us: 1_000_000,
                online_window_us: 5_000_000,
                checkpoint_every_epochs: 1,
                restart_budget: 2,
                restart_backoff_us: 1_000,
                ..FlowDiffConfig::default()
            };
            let log = tree_log(2, 7, 4);
            let baseline = BehaviorModel::build(&log, &config);
            let stability = analyze(&log, &baseline, &config);
            Drill {
                config,
                baseline,
                stability,
                current: tree_log(2, 8, 4),
            }
        }

        fn fresh(&self, shards: usize) -> impl Fn() -> EngineResult<(Differ, u64)> + '_ {
            move || {
                let (baseline, stability) = (self.baseline.clone(), self.stability.clone());
                Ok((
                    Differ::try_new(baseline, stability, &self.config, shards)?,
                    0,
                ))
            }
        }

        /// Runs `feed` supervised, dying at each epoch in `kills` once:
        /// the epoch callback panics — or, with `poison`, poisons a
        /// shard worker — before it records the epoch. Returns every
        /// delivered epoch (flush included) as `(index, hash of bytes)`.
        fn run(
            &self,
            feed: &mut Feed<'_>,
            shards: usize,
            checkpoint_path: Option<&Path>,
            kills: &mut BTreeSet<u64>,
            poison: bool,
        ) -> EngineResult<(Vec<(u64, u64)>, RunReport)> {
            let trace = |s: &EpochSnapshot| (s.epoch, fnv1a(&serde::to_vec(s)));
            let mut delivered = Vec::new();
            let supervision = Supervision {
                config: &self.config,
                checkpoint_path,
                degraded: None,
            };
            let report = supervise(
                feed,
                &self.fresh(shards),
                &supervision,
                |differ, snap, _| {
                    if kills.remove(&snap.epoch) {
                        if poison {
                            differ.poison_worker(snap.epoch as usize);
                        } else {
                            panic!("drill: killed at epoch {}", snap.epoch);
                        }
                    }
                    delivered.push(trace(snap));
                },
            )?;
            delivered.extend(report.last.as_ref().map(trace));
            Ok((delivered, report))
        }

        /// The uninterrupted single-pipeline run every drill is held to.
        fn clean(&self) -> Vec<(u64, u64)> {
            let mut feed = Feed::Slice(self.current.events());
            let (clean, report) = self
                .run(&mut feed, 1, None, &mut BTreeSet::new(), false)
                .unwrap();
            assert_eq!(report.restarts, 0);
            assert!(
                report.shards.is_none(),
                "single pipeline has no shard report"
            );
            assert!(clean.len() >= 3, "drill needs epochs to kill at");
            clean
        }
    }

    fn seeded_kills(seed: u64, clean: &[(u64, u64)]) -> BTreeSet<u64> {
        let plan = CrashPlan::seeded(seed, 2, clean.len() as u64 - 1);
        plan.kill_epochs().iter().copied().collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowdiff-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn supervised_run_survives_planned_kills_byte_identically() {
        // Two planned kills; recovery must reproduce the uninterrupted
        // epochs exactly.
        let drill = Drill::new();
        let clean = drill.clean();
        let mut kills = seeded_kills(11, &clean);
        let planned = kills.len();
        let path = tmp("supervised.ckpt");
        let mut feed = Feed::Slice(drill.current.events());
        let (drilled, report) = drill
            .run(&mut feed, 1, Some(&path), &mut kills, false)
            .unwrap();
        assert_eq!(
            report.restarts as usize, planned,
            "every planned kill fired"
        );
        assert!(kills.is_empty());
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_supervised_run_recovers_the_single_shard_epochs() {
        // The strongest cross-shape claim in one drill: a 3-shard
        // supervised run with planned kills (v2 segmented checkpoints,
        // restore, replay) reproduces the *single-shard* uninterrupted
        // run's epoch traces byte for byte.
        let drill = Drill::new();
        let clean = drill.clean();
        let mut kills = seeded_kills(11, &clean);
        let planned = kills.len();
        let path = tmp("sharded-supervised.ckpt");
        let mut feed = Feed::Slice(drill.current.events());
        let (drilled, report) = drill
            .run(&mut feed, 3, Some(&path), &mut kills, false)
            .unwrap();
        assert_eq!(
            report.restarts as usize, planned,
            "every planned kill fired"
        );
        let (stats, _) = report.shards.expect("sharded run reports worker loads");
        assert_eq!(stats.len(), 3);
        assert_eq!(
            clean, drilled,
            "killed 3-shard run == uninterrupted 1-shard run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_panic_surfaces_and_recovers_exactly_once() {
        // The persistent-pipeline drill: poisoning a long-lived shard
        // worker mid-epoch must propagate through the channels into the
        // supervised restart path (the coordinator only notices at its
        // next flush/quiesce), restore from the last checkpoint, and
        // still deliver every epoch exactly once — byte-identical to
        // the uninterrupted single-shard run.
        let drill = Drill::new();
        let clean = drill.clean();
        let mut kills = seeded_kills(17, &clean);
        let planned = kills.len();
        assert!(planned >= 1, "the plan must poison at least one worker");
        let path = tmp("worker-panic.ckpt");
        let mut feed = Feed::Slice(drill.current.events());
        let (drilled, report) = drill
            .run(&mut feed, 3, Some(&path), &mut kills, true)
            .unwrap();
        // A poisoned worker never kills the coordinator synchronously,
        // so two poisonings in one observe round can surface as a
        // single crash — at least one restart, at most one per kill.
        assert!(
            report.restarts >= 1,
            "a worker death must surface as a restart"
        );
        assert!(
            report.restarts as usize <= planned,
            "each poisoning costs at most one restart"
        );
        assert!(kills.is_empty(), "every planned poisoning was injected");
        let (stats, _) = report.shards.expect("sharded run reports worker loads");
        assert_eq!(stats.len(), 3);
        assert_eq!(
            clean, drilled,
            "worker-killed 3-shard run == uninterrupted 1-shard run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervised_run_fails_fast_when_budget_exhausted() {
        let mut drill = Drill::new();
        drill.config.restart_budget = 0;
        let mut kills = BTreeSet::from([1]);
        let mut feed = Feed::Slice(drill.current.events());
        let err = drill
            .run(&mut feed, 1, None, &mut kills, false)
            .unwrap_err();
        assert!(
            err.to_string().contains("restart budget exhausted"),
            "got: {err}"
        );
    }

    #[test]
    fn stale_checkpoint_at_the_path_is_not_restored_before_the_first_save() {
        // An earlier run over a *longer* capture, same config, left its
        // last checkpoint at the path: its offset indexes that feed,
        // not this one. Dying at epoch 0 — before this run has saved
        // anything — must start over from `fresh`, not from that file.
        let drill = Drill::new();
        let clean = drill.clean();
        let path = tmp("stale.ckpt");
        let (mut earlier, _) = drill.fresh(1)().unwrap();
        let other = tree_log(2, 9, 6);
        assert!(other.len() > drill.current.len());
        for event in other.events() {
            earlier.observe(event);
        }
        atomic_write(
            &path,
            &earlier.checkpoint(other.len() as u64, &drill.config),
        )
        .unwrap();

        let mut kills = BTreeSet::from([0]);
        let mut feed = Feed::Slice(drill.current.events());
        let (drilled, report) = drill
            .run(&mut feed, 1, Some(&path), &mut kills, false)
            .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_feed_restart_delivers_every_epoch_exactly_once() {
        // The path `serve` runs: events pulled on demand from loopback
        // session publishers, a planned kill mid-stream, the replay
        // re-read from the feed's retained events.
        let drill = Drill::new();
        let clean = drill.clean();
        let mut kills = seeded_kills(11, &clean);
        let planned = kills.len();
        assert!(planned >= 1);

        let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let mut live = server
            .live(2, 64, LiveOptions::default())
            .expect("live ingest");
        let publishers: Vec<_> = split_capture(&drill.current, 2)
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                let opts = SessionOptions {
                    session: i as u64,
                    ..SessionOptions::default()
                };
                std::thread::spawn(move || publish_session(addr, &part, &opts).expect("publish"))
            })
            .collect();

        let path = tmp("live.ckpt");
        let mut feed = Feed::live(live.take_merge());
        let (drilled, report) = drill
            .run(&mut feed, 1, Some(&path), &mut kills, false)
            .unwrap();
        live.finish();
        for publisher in publishers {
            publisher.join().expect("publisher thread");
        }
        assert_eq!(
            report.restarts as usize, planned,
            "every planned kill fired"
        );
        assert!(
            drilled.windows(2).all(|w| w[0].0 < w[1].0),
            "epochs delivered once each, in order"
        );
        assert_eq!(feed.events(), drill.current.events());
        assert_eq!(clean, drilled, "killed live run == uninterrupted slice run");
        let _ = std::fs::remove_file(&path);
    }
}
