//! The online engine: FlowDiff run continuously against a known-good
//! model, as a library. Everything that runs online — `flowdiff-bench
//! watch` over a capture file, `serve` over sockets, the crash tests —
//! is these two pieces:
//!
//! * [`OnlineDiffer`], the one online differ. [`Checkpoint::capture`]
//!   and [`resume_from`] are the only way the running system writes and
//!   reads FDIFFCKP bytes.
//! * [`supervise`], the loop: it pulls [`FlowEvent`]s from any iterator
//!   — a decoded capture, or in `serve` the wire
//!   [`EventMerge`](netsim::net::EventMerge), pulled on demand — hands
//!   every epoch to the caller once, in order, and checkpoints on the
//!   configured cadence. It keeps no event the differ has observed.
//!
//! Recovery is a process's, not the loop's. A panic unwinds out of
//! [`supervise`] and ends the run; rerunning from the last checkpoint
//! ([`resume_from`]) over the same input from its start rebuilds the
//! same state and prints the epochs after it. The differ's state is a
//! function of the events alone, so a panic the input caused would
//! recur on every in-process replay; and only a new process survives a
//! `kill -9`, an OOM kill or an abort.
//!
//! ```
//! use flowdiff::prelude::*;
//! use netsim::log::{ControllerLog, FlowEvent};
//!
//! use std::io::Write;
//! use std::sync::Arc;
//!
//! let config = FlowDiffConfig::default();
//! let model = BehaviorModel::build(&ControllerLog::new(), &config);
//! let stability = StabilityReport::all_stable(&model);
//! let baseline = Arc::new(BaselineBundle { model, stability });
//! let current: Vec<FlowEvent> = Vec::new(); // normally: a decoded capture
//!
//! let differ = OnlineDiffer::try_new(baseline, &config).unwrap();
//! let supervision = Supervision {
//!     config: &config,
//!     checkpoint_path: None,
//!     degraded: None,
//! };
//! let mut out = std::io::stdout().lock();
//! let run = supervise((differ, 0), current.into_iter(), &supervision, |epoch, _| {
//!     writeln!(out, "{}", epoch.verdict(&[], &config))
//! })
//! .unwrap();
//! assert_eq!(run.events, 0);
//! ```

use std::path::Path;
use std::sync::Arc;

use netsim::log::FlowEvent;

use crate::checkpoint::{atomic_write, BaselineBundle, Checkpoint, PersistError};
use crate::config::FlowDiffConfig;
use crate::diff::{EpochSnapshot, EpochTimings, OnlineDiffer};
use crate::records::IngestHealth;

/// Reads a checkpoint file back into a running differ against
/// `baseline`, judging under `config`, with its replay offset: events
/// `[offset..]` catch it up. `--resume` comes through here.
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

/// How [`supervise`] runs.
pub struct Supervision<'a> {
    /// Supplies `checkpoint_every_epochs` and the fingerprint
    /// checkpoints carry.
    pub config: &'a FlowDiffConfig,
    /// Where checkpoints are written (atomically, replaced in place).
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
    /// Ingestion health of the differ.
    pub health: IngestHealth,
    /// Events taken from the feed, the skipped `--resume` prefix
    /// included.
    pub events: u64,
}

/// Drives `events` through `differ`, which has consumed the feed's
/// first `start` events already: a fresh differ starts at 0, one
/// [`resume_from`] restored at its checkpoint's offset. Those first
/// `start` events are pulled and dropped unobserved, so a resumed run
/// is handed the whole input from its start, as a restarted publisher
/// replays it.
///
/// Each epoch reaches `on_snapshot` once, in order, with the
/// [`EpochTimings`] accumulated since the previous boundary (a
/// multi-epoch advance attributes the sum to its first epoch). After
/// every `checkpoint_every_epochs` delivered epochs the differ and the
/// number of events consumed are written to the checkpoint path, if
/// there is one.
///
/// Nothing catches a panic, whether the differ's or `on_snapshot`'s:
/// it unwinds to the caller and ends the run. The last checkpoint on
/// disk is where a rerun with `--resume` picks up; it prints every
/// epoch after that checkpoint's, so one the dead run printed past it
/// is printed again.
///
/// # Errors
///
/// As [`PersistError::Io`]: the first error `on_snapshot` returns (a
/// closed stdout, say), which ends the run there, or a checkpoint that
/// cannot be written.
pub fn supervise(
    (mut differ, start): (OnlineDiffer, u64),
    mut events: impl Iterator<Item = FlowEvent>,
    supervision: &Supervision<'_>,
    mut on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings) -> std::io::Result<()>,
) -> Result<RunReport, PersistError> {
    let Supervision {
        config,
        checkpoint_path,
        degraded,
    } = *supervision;
    let mut consumed = events.by_ref().take(start as usize).count() as u64;
    let mut epochs_since_ckpt: u64 = 0;
    for event in events {
        if let Some(probe) = degraded {
            differ.set_ingest_degraded(probe());
        }
        let snaps = differ.observe(event);
        consumed += 1;
        if snaps.is_empty() {
            continue;
        }
        let mut timings = differ.take_timings();
        for snap in &snaps {
            on_snapshot(snap, std::mem::take(&mut timings))?;
        }
        epochs_since_ckpt += snaps.len() as u64;
        if let Some(path) = checkpoint_path {
            if epochs_since_ckpt >= config.checkpoint_every_epochs {
                let checkpoint = Checkpoint::capture(&differ, consumed, config);
                atomic_write(path, &checkpoint.to_bytes())?;
                epochs_since_ckpt = 0;
            }
        }
    }
    Ok(RunReport {
        health: differ.health(),
        last: differ.finish(),
        events: consumed,
    })
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;

    use netsim::log::ControllerLog;
    use netsim::prelude::{
        publish_session, split_capture, CrashPlan, EventMerge, IngestServer, LiveOptions,
        SessionOptions, Topology,
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

    /// An epoch as the drills compare it: its index and a hash of its
    /// bytes.
    type Trace = (u64, u64);

    fn trace(s: &EpochSnapshot) -> Trace {
        (s.epoch, fnv1a(&serde::to_vec(s)))
    }

    /// What a finished run ends with besides its epochs: the ingest
    /// health and the events taken from the feed.
    type Tail = (IngestHealth, u64);

    /// A lab-scale drill: one-second epochs, a checkpoint at every one.
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

        /// One process's run over `events`: from the checkpoint at
        /// `resume` if given, else from a fresh differ, checkpointing to
        /// `path`, its epoch callback panicking at epoch `kill` before it
        /// records it. Returns the epochs delivered (flush included)
        /// and, if the run finished rather than died, its [`Tail`].
        fn run(
            &self,
            events: impl Iterator<Item = FlowEvent>,
            path: Option<&Path>,
            resume: Option<&Path>,
            kill: Option<u64>,
        ) -> (Vec<Trace>, Option<Tail>) {
            let start = match resume {
                Some(path) => resume_from(path, &self.baseline, &self.config).unwrap(),
                None => (
                    OnlineDiffer::try_new(Arc::clone(&self.baseline), &self.config).unwrap(),
                    0,
                ),
            };
            let supervision = Supervision {
                config: &self.config,
                checkpoint_path: path,
                degraded: None,
            };
            let mut delivered = Vec::new();
            let run = catch_unwind(AssertUnwindSafe(|| {
                supervise(start, events, &supervision, |snap, _| {
                    if Some(snap.epoch) == kill {
                        panic!("drill: killed at epoch {}", snap.epoch);
                    }
                    delivered.push(trace(snap));
                    Ok(())
                })
                .unwrap()
            }));
            let Ok(report) = run else {
                return (delivered, None);
            };
            delivered.extend(report.last.as_ref().map(trace));
            (delivered, Some((report.health, report.events)))
        }

        /// The uninterrupted run every drill is held to.
        fn clean(&self) -> (Vec<Trace>, Tail) {
            let (clean, tail) = self.run(flow(&self.current).into_iter(), None, None, None);
            assert!(clean.len() >= 3, "drill needs epochs to kill at");
            (clean, tail.expect("the clean run finishes"))
        }

        /// Runs the capture as a sequence of processes, each fed the
        /// whole capture by `feed` and killed at the next of the two
        /// epochs `CrashPlan::seeded(seed, ..)` plans, each after the
        /// first resumed from the checkpoint its
        /// predecessor left at `path`, and requires every one to start
        /// no later than the epoch its predecessor died in, to deliver
        /// exactly the clean run's epochs from its checkpoint to where
        /// it died, each once, and the last to end with the clean run's
        /// health and event count.
        fn drill<F: FnMut(&mut dyn FnMut(&mut dyn Iterator<Item = FlowEvent>))>(
            &self,
            seed: u64,
            path: &Path,
            mut feed: F,
        ) {
            let (clean, clean_tail) = self.clean();
            let plan = CrashPlan::seeded(seed, 2, clean.len() as u64 - 1);
            let kills = plan.kill_epochs();
            assert_eq!(kills.len(), 2);
            // The epoch each run's output starts at, and the one its
            // predecessor died in.
            let (mut from, mut died) = (0, 0);
            for (i, kill) in kills.iter().map(Some).chain([None]).enumerate() {
                let resume = (i > 0).then_some(path);
                if let Some(path) = resume {
                    // The checkpoint's open epoch. One observation can
                    // close several epochs and is checkpointed after all
                    // of them, so it may lie before the one that died.
                    from = resume_from(path, &self.baseline, &self.config)
                        .unwrap()
                        .0
                        .epoch();
                    assert!(from <= died, "process {i} resumes past epoch {died}");
                }
                let mut outcome = None;
                feed(&mut |events| {
                    outcome = Some(self.run(events, Some(path), resume, kill.copied()));
                });
                let (delivered, tail) = outcome.expect("feed ran the process");
                let end = match kill {
                    Some(&k) => {
                        assert_eq!(tail, None, "a kill ends the run, no retry");
                        clean.partition_point(|t| t.0 < k)
                    }
                    None => {
                        assert_eq!(tail, Some(clean_tail), "the last run ends as the clean one");
                        clean.len()
                    }
                };
                let at = clean.partition_point(|t| t.0 < from);
                assert_eq!(
                    delivered,
                    clean[at..end],
                    "process {i} delivers the clean epochs {from}.. once each"
                );
                died = kill.map_or(died, |&k| k);
            }
        }
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
        // Two planned kills, three processes: each rerun resumes from
        // the checkpoint the dead one left and reproduces the
        // uninterrupted epochs exactly.
        let drill = Drill::new();
        let path = tmp("supervised.ckpt");
        let events = flow(&drill.current);
        drill.drill(11, &path, |process| process(&mut events.iter().cloned()));
        let _ = std::fs::remove_file(&path);
    }

    /// Runs `run` over a live feed of `log` as `serve` gets it: pulled on
    /// demand from two loopback session publishers through the merge.
    /// Whatever `run` leaves unread is drained so the publishers finish.
    fn with_live_feed(log: &ControllerLog, run: impl FnOnce(&mut EventMerge)) {
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
        run(&mut merge);
        merge.for_each(drop);
        live.finish();
        for publisher in publishers {
            publisher.join().expect("publisher thread");
        }
    }

    #[test]
    fn live_feed_restart_delivers_every_epoch_exactly_once() {
        // The path `serve` runs: events pulled on demand from loopback
        // session publishers, a planned kill mid-stream, and each rerun
        // fed by fresh publishers that replay the capture from its
        // start.
        let drill = Drill::new();
        let path = tmp("live.ckpt");
        drill.drill(11, &path, |process| {
            with_live_feed(&drill.current, |merge| process(merge))
        });
        let _ = std::fs::remove_file(&path);
    }
}
