//! The online engine: FlowDiff run continuously against a known-good
//! model, as a library. Everything that runs online — `flowdiff-bench
//! watch` over a capture file, `serve` over sockets, the crash tests —
//! is these three pieces:
//!
//! * [`OnlineDiffer`], the one online differ. [`Checkpoint::capture`]
//!   and [`resume_from`] are the only way the running system writes and
//!   reads FDIFFCKP bytes.
//! * [`Feed`], where events come from: a decoded capture, or a live
//!   stream (an [`EventMerge`](netsim::net::EventMerge)) pulled on
//!   demand. A capture can be re-read from any offset; a live feed
//!   retains only what a restart can still reach — the events pulled
//!   since the last durable point — so its memory tracks the checkpoint
//!   interval, not uptime.
//! * [`supervise`], the loop: every epoch handed to the caller exactly
//!   once, checkpoints on the configured cadence, panics survived by
//!   restoring the last checkpoint and replaying. It is also the only
//!   caller of [`Feed::release`], at exactly the points below which no
//!   restart can reach: the `--resume` offset on entry, each checkpoint
//!   once it is on disk, and — with no checkpoint path — each delivered
//!   boundary. A live feed without a checkpoint path therefore cannot
//!   replay past its first boundary: a panic there is an error naming
//!   `--checkpoint`, not a restart.
//!
//! Those points are where a restart stops reaching back, and that is
//! their only reason. A feed holds [`FlowEvent`]s, which the connection
//! reader converted from the wire and which own no heap (bar a
//! port-stats reply's counters), so releasing them frees nothing per
//! event on the differ thread.
//!
//! ```
//! use flowdiff::prelude::*;
//! use netsim::log::{ControllerLog, FlowEvent};
//!
//! use std::sync::Arc;
//!
//! let config = FlowDiffConfig::default();
//! let model = BehaviorModel::build(&ControllerLog::new(), &config);
//! let stability = StabilityReport::all_stable(&model);
//! let baseline = Arc::new(BaselineBundle { model, stability });
//! let current: Vec<FlowEvent> = Vec::new(); // normally: a decoded capture
//!
//! let fresh = || Ok((OnlineDiffer::try_new(Arc::clone(&baseline), &config)?, 0));
//! let supervision = Supervision {
//!     config: &config,
//!     baseline: &baseline,
//!     checkpoint_path: None,
//!     degraded: None,
//! };
//! let run = supervise(
//!     &mut Feed::Slice(&current),
//!     &fresh,
//!     &supervision,
//!     |epoch, _| println!("epoch {}: {} flows", epoch.epoch, epoch.records),
//! )
//! .unwrap();
//! assert_eq!(run.restarts, 0);
//! ```

use std::error::Error;
use std::path::Path;
use std::sync::Arc;

use netsim::log::FlowEvent;

use crate::checkpoint::{atomic_write, BaselineBundle, Checkpoint, PersistError};
use crate::config::FlowDiffConfig;
use crate::diff::{EpochSnapshot, EpochTimings, OnlineDiffer};
use crate::records::IngestHealth;

/// What the engine's fallible calls return: the caller's `fresh` can
/// fail with anything, so the loop's own failures travel the same way.
pub type EngineResult<T> = Result<T, Box<dyn Error>>;

/// Reads a checkpoint file back into a running differ against
/// `baseline`, judging under `config`, with its replay offset: events
/// `[offset..]` catch it up. `--resume` and the supervised restart both
/// come through here.
///
/// # Errors
///
/// The read failure as [`PersistError::Io`], or every [`PersistError`]
/// of [`Checkpoint::from_bytes`] and [`Checkpoint::resume`] — a corrupt
/// byte anywhere is a refusal; none names `path`, which the caller
/// knows.
pub fn resume_from(
    path: &Path,
    baseline: &Arc<BaselineBundle>,
    config: &FlowDiffConfig,
) -> Result<(OnlineDiffer, u64), PersistError> {
    Checkpoint::from_bytes(&std::fs::read(path)?)?.resume(baseline, config)
}

/// The supervised loop's event source. Either way `get(idx)` means "the
/// `idx`-th event since the process started".
///
/// `Slice` is the batch shape (`watch`, the tests): the
/// capture fully decoded up front, re-readable from any offset.
///
/// `Live` pulls from a stream — in `serve`, the wire
/// [`EventMerge`](netsim::net::EventMerge) — *on demand*: an epoch is
/// diffed and handed over while publishers are still connected, and
/// with a stall-tolerant merge `get` returns whatever the merge
/// releases past a silent source, so one stalled stream cannot wedge
/// epoch emission. It holds the events pulled since the last
/// [`release`](Feed::release) so a restart can replay them, and nothing
/// older: under [`supervise`] that is at most `checkpoint_every_epochs`
/// epochs of events with a checkpoint path and one epoch without.
pub enum Feed<'a> {
    /// A fully decoded capture.
    Slice(&'a [FlowEvent]),
    /// A live stream plus the still-replayable events pulled from it.
    Live {
        /// Where events come from, in delivery order.
        source: Box<dyn Iterator<Item = FlowEvent> + 'a>,
        /// Events `[base, base + held.len())`, in order.
        held: Vec<FlowEvent>,
        /// Index of `held[0]`: everything below it has been released.
        base: usize,
    },
}

impl<'a> Feed<'a> {
    /// A feed over a live stream, nothing pulled yet.
    pub fn live(source: impl Iterator<Item = FlowEvent> + 'a) -> Feed<'a> {
        Feed::Live {
            source: Box::new(source),
            held: Vec::new(),
            base: 0,
        }
    }

    /// The event at `idx`, pulling (and blocking on) the live stream as
    /// needed; `None` once the stream is exhausted.
    ///
    /// # Panics
    ///
    /// When `idx` lies below a [`release`](Feed::release) point: the
    /// caller is replaying events it declared unreachable.
    pub fn get(&mut self, idx: usize) -> Option<&FlowEvent> {
        match self {
            Feed::Slice(events) => events.get(idx),
            Feed::Live { source, held, base } => {
                assert!(
                    idx >= *base,
                    "bug: feed event {idx} was released (events below {base} are gone)"
                );
                let at = idx - *base;
                while held.len() <= at {
                    held.push(source.next()?);
                }
                held.get(at)
            }
        }
    }

    /// Forgets every event below `upto`; a no-op on a `Slice`. Past
    /// [`pulled`](Feed::pulled) it pulls and discards the difference
    /// (the prefix below a `--resume` offset). The supervised loop only
    /// ever releases a fully consumed buffer, which is a `clear`: the
    /// capacity is kept and its pages are reused by the next epoch.
    pub fn release(&mut self, upto: usize) {
        let Feed::Live { source, held, base } = self else {
            return;
        };
        let pulled = *base + held.len();
        if upto >= pulled {
            held.clear();
            *base = pulled + source.by_ref().take(upto - pulled).count();
        } else if upto > *base {
            held.drain(..upto - *base);
            *base = upto;
        }
    }

    /// Events taken from the source so far, released ones included (the
    /// whole capture for `Slice`).
    pub fn pulled(&self) -> usize {
        match self {
            Feed::Slice(events) => events.len(),
            Feed::Live { held, base, .. } => base + held.len(),
        }
    }

    /// The events a [`get`](Feed::get) can still return without
    /// pulling (the whole capture for `Slice`).
    pub fn held(&self) -> &[FlowEvent] {
        match self {
            Feed::Slice(events) => events,
            Feed::Live { held, .. } => held,
        }
    }

    /// Index of the oldest event still held: a replay can start here
    /// or later (0 for `Slice`).
    fn base(&self) -> usize {
        match self {
            Feed::Slice(_) => 0,
            Feed::Live { base, .. } => *base,
        }
    }
}

/// How [`supervise`] runs.
pub struct Supervision<'a> {
    /// Supplies `checkpoint_every_epochs`, `restart_budget`,
    /// `restart_backoff_us` and the fingerprint checkpoints carry.
    pub config: &'a FlowDiffConfig,
    /// The baseline `fresh` builds against: a restart restores its
    /// checkpoint against this one.
    pub baseline: &'a Arc<BaselineBundle>,
    /// Where checkpoints are written (atomically, replaced in place).
    /// Without one, every restart starts over from `fresh` — which a
    /// live feed can only serve until its first boundary.
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
}

/// Drives `feed` through a supervised online differ.
///
/// `fresh` builds the differ the run starts from and the feed offset it
/// starts at (a `--resume` restores here). The run segment — observe,
/// deliver, checkpoint — executes inside one `catch_unwind`. A panic
/// spends one restart: back off exponentially,
/// restore the last checkpoint *this run* wrote (or call `fresh` again
/// when it has written none: a file an earlier run left at the path
/// indexes some other feed), replay from the restored offset. More
/// than `restart_budget` restarts is an error.
///
/// The feed is told to [`release`](Feed::release) what no restart can
/// reach any more: everything below the starting offset on entry,
/// everything below a checkpoint's offset once the checkpoint is on
/// disk, and — with no checkpoint path — everything consumed once a
/// boundary's snapshots are delivered. So a live feed holds at most
/// `checkpoint_every_epochs` epochs of events (one epoch without a
/// checkpoint path), and a live run without a checkpoint path that
/// panics past its first boundary has nothing to replay from: that is
/// an error naming `--checkpoint`, returned without backing off. A
/// `Slice` never releases, so it restarts from `fresh` as often as the
/// budget allows.
///
/// Each epoch reaches `on_snapshot` exactly once, in order, however
/// often the stream is replayed: the delivery watermark lives outside
/// the guarded region and moves only after `on_snapshot` returns.
/// `on_snapshot` runs inside the guarded region, which is where a crash
/// test injects its fault — a panic before it records the epoch —
/// exactly what a power cut between compute and output looks like. Its
/// [`EpochTimings`] are those accumulated since the previous boundary;
/// a multi-epoch advance attributes the sum to its first epoch.
///
/// What the `catch_unwind` guards is a bug in the differ — a panic on
/// some input its state machines did not foresee — or in `on_snapshot`.
/// The differ runs on the calling thread, so there is no worker whose
/// death it has to notice.
///
/// # Errors
///
/// Whatever `fresh` fails with, a checkpoint that cannot be written or
/// restored, an exhausted restart budget, or a panic after a live feed
/// released the events a restart from `fresh` would replay.
pub fn supervise(
    feed: &mut Feed<'_>,
    fresh: &dyn Fn() -> EngineResult<(OnlineDiffer, u64)>,
    supervision: &Supervision<'_>,
    mut on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings),
) -> EngineResult<RunReport> {
    let Supervision {
        config,
        baseline,
        checkpoint_path,
        degraded,
    } = *supervision;
    let (mut differ, start) = fresh()?;
    let start = start as usize;
    feed.release(start);
    let mut idx = start;
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
                        on_snapshot(snap, std::mem::take(&mut timings));
                        emitted = snap.epoch + 1;
                        epochs_since_ckpt += 1;
                    }
                }
                let Some(path) = checkpoint_path else {
                    // Nothing durable to restart from: the delivered
                    // boundary is as far back as this run can reach.
                    feed.release(idx);
                    continue;
                };
                if epochs_since_ckpt >= config.checkpoint_every_epochs {
                    // Events [..idx] are consumed.
                    let checkpoint = Checkpoint::capture(&differ, idx as u64, config);
                    atomic_write(path, &checkpoint.to_bytes())?;
                    saved = true;
                    epochs_since_ckpt = 0;
                    feed.release(idx);
                }
            }
            Ok::<_, PersistError>(())
        }));
        match segment {
            Ok(Ok(())) => {
                return Ok(RunReport {
                    health: differ.health(),
                    last: differ.finish(),
                    restarts,
                });
            }
            Ok(Err(e)) => return Err(e.into()),
            Err(_) => {}
        }
        let base = feed.base();
        if !saved && start < base {
            // No backoff, no budget spent: there is nothing to retry.
            return Err(format!(
                "panicked at event {idx} and cannot restart: the live feed is not retained \
                 (events below {base} are released), so run with --checkpoint to survive restarts"
            )
            .into());
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
            Some(path) if saved => resume_from(path, baseline, config)
                .map_err(|e| format!("{}: {e}", path.display()))?,
            _ => fresh()?,
        };
        differ = restored;
        // `at` is `start`, or the offset of the checkpoint whose write
        // the last release followed: never below what the feed holds.
        idx = at as usize;
        epochs_since_ckpt = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    use netsim::log::ControllerLog;
    use netsim::prelude::{
        publish_session, split_capture, CrashPlan, IngestServer, LiveOptions, SessionOptions,
        Topology,
    };
    use workloads::prelude::*;

    use super::*;
    use crate::checkpoint::fnv1a;
    use crate::model::BehaviorModel;
    use crate::stability::analyze;

    /// `log`'s events as a feed carries them.
    fn flow(log: &ControllerLog) -> Vec<FlowEvent> {
        log.events().iter().map(FlowEvent::from).collect()
    }

    /// A short capture of Section V-C's meshes on the 320-server tree.
    fn tree_log(n_apps: usize, seed: u64, secs: u64) -> ControllerLog {
        tree_mesh(Topology::tree(16, 20), n_apps, seed, secs)
            .run()
            .log
    }

    /// A lab-scale drill: one-second epochs, a checkpoint at every one,
    /// a budget of two fast restarts.
    struct Drill {
        config: FlowDiffConfig,
        baseline: Arc<BaselineBundle>,
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
            let model = BehaviorModel::build(&log, &config);
            let stability = analyze(&log, &model, &config);
            Drill {
                config,
                baseline: Arc::new(BaselineBundle { model, stability }),
                current: tree_log(2, 8, 4),
            }
        }

        fn fresh(&self) -> impl Fn() -> EngineResult<(OnlineDiffer, u64)> + '_ {
            move || {
                let differ = OnlineDiffer::try_new(Arc::clone(&self.baseline), &self.config)?;
                Ok((differ, 0))
            }
        }

        /// Runs `feed` supervised, dying at each epoch in `kills` once:
        /// the epoch callback panics before it records the epoch.
        /// Returns every delivered epoch (flush included) as `(index,
        /// hash of bytes)`.
        fn run(
            &self,
            feed: &mut Feed<'_>,
            checkpoint_path: Option<&Path>,
            kills: &mut BTreeSet<u64>,
        ) -> EngineResult<(Vec<(u64, u64)>, RunReport)> {
            let trace = |s: &EpochSnapshot| (s.epoch, fnv1a(&serde::to_vec(s)));
            let mut delivered = Vec::new();
            let supervision = Supervision {
                config: &self.config,
                baseline: &self.baseline,
                checkpoint_path,
                degraded: None,
            };
            let report = supervise(feed, &self.fresh(), &supervision, |snap, _| {
                if kills.remove(&snap.epoch) {
                    panic!("drill: killed at epoch {}", snap.epoch);
                }
                delivered.push(trace(snap));
            })?;
            delivered.extend(report.last.as_ref().map(trace));
            Ok((delivered, report))
        }

        /// The uninterrupted run every drill is held to.
        fn clean(&self) -> Vec<(u64, u64)> {
            let events = flow(&self.current);
            let mut feed = Feed::Slice(&events);
            let (clean, report) = self.run(&mut feed, None, &mut BTreeSet::new()).unwrap();
            assert_eq!(report.restarts, 0);
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
        let events = flow(&drill.current);
        let mut feed = Feed::Slice(&events);
        let (drilled, report) = drill.run(&mut feed, Some(&path), &mut kills).unwrap();
        assert_eq!(
            report.restarts as usize, planned,
            "every planned kill fired"
        );
        assert!(kills.is_empty());
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervised_run_fails_fast_when_budget_exhausted() {
        let mut drill = Drill::new();
        drill.config.restart_budget = 0;
        let mut kills = BTreeSet::from([1]);
        let events = flow(&drill.current);
        let mut feed = Feed::Slice(&events);
        let err = drill.run(&mut feed, None, &mut kills).unwrap_err();
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
        let (mut earlier, _) = drill.fresh()().unwrap();
        let other = tree_log(2, 9, 6);
        assert!(other.len() > drill.current.len());
        for event in other.events() {
            earlier.observe(event);
        }
        let checkpoint = Checkpoint::capture(&earlier, other.len() as u64, &drill.config);
        atomic_write(&path, &checkpoint.to_bytes()).unwrap();

        let mut kills = BTreeSet::from([0]);
        let events = flow(&drill.current);
        let mut feed = Feed::Slice(&events);
        let (drilled, report) = drill.run(&mut feed, Some(&path), &mut kills).unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    /// Runs `run` over a live feed of `log` as `serve` gets it: pulled on
    /// demand from two loopback session publishers through the merge.
    /// Whatever `run` leaves unread is drained so the publishers finish.
    fn with_live_feed<T>(log: &ControllerLog, run: impl FnOnce(&mut Feed<'_>) -> T) -> T {
        let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let mut live = server
            .live(2, 64, LiveOptions::default())
            .expect("live ingest");
        let publishers: Vec<_> = split_capture(log, 2)
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
        let mut merge = live.take_merge();
        let out = run(&mut Feed::live(&mut merge));
        merge.for_each(drop);
        live.finish();
        for publisher in publishers {
            publisher.join().expect("publisher thread");
        }
        out
    }

    /// Index of the event that crosses the boundary closing `epoch`:
    /// the first at or past `origin + (epoch + 1) * epoch_us`. Events
    /// before it are the ones consumed when that boundary is delivered.
    fn crossing(drill: &Drill, epoch: u64) -> usize {
        let events = drill.current.events();
        let boundary = events[0].ts + (epoch + 1) * drill.config.online_epoch_us;
        events.partition_point(|e| e.ts < boundary)
    }

    #[test]
    fn live_feed_restart_delivers_every_epoch_exactly_once() {
        // The path `serve` runs: events pulled on demand from loopback
        // session publishers, a planned kill mid-stream, the replay
        // re-read from the events the feed still holds.
        let drill = Drill::new();
        let clean = drill.clean();
        let mut kills = seeded_kills(11, &clean);
        let planned = kills.len();
        assert!(planned >= 1);

        let path = tmp("live.ckpt");
        with_live_feed(&drill.current, |feed| {
            let (drilled, report) = drill.run(feed, Some(&path), &mut kills).unwrap();
            assert_eq!(
                report.restarts as usize, planned,
                "every planned kill fired"
            );
            assert!(
                drilled.windows(2).all(|w| w[0].0 < w[1].0),
                "epochs delivered once each, in order"
            );
            assert_eq!(feed.pulled(), drill.current.len());
            assert_eq!(clean, drilled, "killed live run == uninterrupted slice run");
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_feed_holds_only_what_the_last_checkpoint_can_replay() {
        // A checkpoint every second epoch over eight: the feed may keep
        // two epochs of events, never the stream.
        let mut drill = Drill::new();
        drill.config.checkpoint_every_epochs = 2;
        drill.current = tree_log(2, 8, 8);
        let clean = drill.clean();
        let boundaries = clean.len() as u64 - 1;
        let mut kills = seeded_kills(11, &clean);
        let planned = kills.len();
        assert!(planned >= 1);
        // The cadence restarts with the differ, so the bound below needs
        // two boundaries delivered after the last kill.
        assert!(*kills.last().unwrap() + 2 <= boundaries);

        let path = tmp("live-bounded.ckpt");
        with_live_feed(&drill.current, |feed| {
            let (drilled, report) = drill.run(feed, Some(&path), &mut kills).unwrap();
            assert_eq!(report.restarts as usize, planned);
            assert_eq!(clean, drilled, "killed live run == uninterrupted slice run");
            assert_eq!(feed.pulled(), drill.current.len());
            // Exactly the events past the last checkpoint's offset ...
            let at = resume_from(&path, &drill.baseline, &drill.config)
                .unwrap()
                .1 as usize;
            assert_eq!(feed.held(), &flow(&drill.current)[at..]);
            // ... which is no more than the last two epochs' events.
            let last_two = drill.current.len() - crossing(&drill, boundaries - 2);
            assert!(
                feed.held().len() <= last_two,
                "held {} of {}, last two epochs have {last_two}",
                feed.held().len(),
                drill.current.len()
            );
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_feed_without_a_checkpoint_holds_one_epoch_and_cannot_restart_past_it() {
        let mut drill = Drill::new();
        let clean = drill.clean();
        let boundaries = clean.len() as u64 - 1;
        with_live_feed(&drill.current, |feed| {
            let (run, report) = drill.run(feed, None, &mut BTreeSet::new()).unwrap();
            assert_eq!(report.restarts, 0);
            assert_eq!(clean, run);
            assert_eq!(feed.pulled(), drill.current.len());
            // The event crossing the last boundary was consumed with it.
            let after = crossing(&drill, boundaries - 1) + 1;
            assert_eq!(feed.held(), &flow(&drill.current)[after..]);
        });

        // A kill past the first boundary has nothing to replay from. A
        // budget of zero shows the error comes before the restart path:
        // no budget spent, and so no backoff slept.
        drill.config.restart_budget = 0;
        with_live_feed(&drill.current, |feed| {
            let err = drill
                .run(feed, None, &mut BTreeSet::from([1]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("not retained"), "got: {err}");
            assert!(err.contains("--checkpoint"), "got: {err}");
        });
    }

    #[test]
    fn live_feed_without_a_checkpoint_restarts_before_its_first_release() {
        // Killed at epoch 0 nothing has been released yet, so the run
        // starts over from `fresh` like a slice would.
        let drill = Drill::new();
        let clean = drill.clean();
        with_live_feed(&drill.current, |feed| {
            let (drilled, report) = drill.run(feed, None, &mut BTreeSet::from([0])).unwrap();
            assert_eq!(report.restarts, 1);
            assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        });
    }

    #[test]
    fn slice_feed_never_releases() {
        let events = flow(&tree_log(1, 3, 1));
        let mut feed = Feed::Slice(&events);
        feed.release(events.len());
        assert_eq!(feed.pulled(), events.len());
        assert_eq!(feed.held(), events);
        assert_eq!(feed.get(0), events.first());
    }

    #[test]
    #[should_panic(expected = "was released")]
    fn live_feed_get_below_a_release_is_a_bug() {
        let events = flow(&tree_log(1, 3, 1));
        let mut feed = Feed::live(events.iter().cloned());
        assert_eq!(feed.get(4), events.get(4));
        assert_eq!((feed.pulled(), feed.held().len()), (5, 5));
        // Mid-buffer: the tail stays readable.
        feed.release(2);
        assert_eq!((feed.pulled(), feed.held().len()), (5, 3));
        assert_eq!(feed.get(2), events.get(2));
        feed.release(5);
        assert_eq!((feed.pulled(), feed.held().len()), (5, 0));
        // Past what was pulled: the difference is pulled and discarded.
        feed.release(8);
        assert_eq!(feed.get(8), events.get(8));
        assert_eq!((feed.pulled(), feed.held().len()), (9, 1));
        feed.get(7);
    }
}
