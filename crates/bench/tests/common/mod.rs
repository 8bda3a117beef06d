//! What the live-ingest test files share: the captures, a loopback
//! `serve` built from the library's engine, and its epoch snapshots.

use std::sync::Arc;

use flowdiff::prelude::*;
use netsim::prelude::*;

/// Small instance of the paper's 320-server tree workload.
pub fn captures() -> (ControllerLog, ControllerLog, FlowDiffConfig) {
    let (baseline, mut config) = flowdiff_bench::tree_capture(2, 7, 4);
    let (current, _) = flowdiff_bench::tree_capture(2, 8, 4);
    // Same trust posture as `watch`/`serve` over wire bytes.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate().expect("config must validate");
    (baseline, current, config)
}

/// `log`'s events as a live feed carries them.
pub fn flow_events(log: &ControllerLog) -> Vec<FlowEvent> {
    log.events().iter().map(FlowEvent::from).collect()
}

/// What a run is judged against: baseline model, its stability, config.
pub type Judge<'a> = (&'a BehaviorModel, &'a StabilityReport, &'a FlowDiffConfig);

/// Runs `events` through the supervised engine — the loop `watch` and
/// `serve` run — and returns every epoch snapshot's serialized bytes
/// (finish included) plus the health.
pub fn engine_snapshots(
    events: impl Iterator<Item = FlowEvent>,
    (baseline, stability, config): Judge<'_>,
) -> (Vec<Vec<u8>>, IngestHealth) {
    let baseline = Arc::new(BaselineBundle {
        model: baseline.clone(),
        stability: stability.clone(),
    });
    let differ = OnlineDiffer::try_new(baseline, config).expect("config valid");
    let supervision = Supervision {
        config,
        checkpoint_path: None,
        degraded: None,
    };
    let mut snaps = Vec::new();
    let run = supervise((differ, 0), events, &supervision, |snap, _| {
        snaps.push(serde::to_vec(snap));
        Ok(())
    })
    .expect("supervised run");
    snaps.extend(run.last.as_ref().map(serde::to_vec));
    (snaps, run.health)
}

/// One loopback `serve`: what the merge delivered, what each stream
/// reported, and what the engine made of the events as they arrived.
pub struct Served {
    pub events: Vec<FlowEvent>,
    pub reports: Vec<netsim::net::ConnReport>,
    pub snaps: Vec<Vec<u8>>,
    // Only the clean-wire test compares health counters.
    #[allow(dead_code)]
    pub health: IngestHealth,
}

/// Replays `log` over `n` loopback session publishers (split so the
/// merge restores capture order), publisher `i` under `session(i, part)`,
/// into the engine's live feed.
pub fn serve_loopback(
    log: &ControllerLog,
    n: usize,
    queue: usize,
    opts: LiveOptions,
    session: impl Fn(usize, &ControllerLog) -> SessionOptions,
    judge: Judge<'_>,
) -> Served {
    let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let mut live = server.live(n, queue, opts).expect("live ingest");
    let mut publishers = Vec::new();
    for (i, part) in split_capture(log, n).into_iter().enumerate() {
        let sopts = session(i, &part);
        publishers.push(std::thread::spawn(move || {
            publish_session(addr, &part, &sopts).expect("publish session")
        }));
    }
    // The engine keeps no event it has observed, so what the merge
    // handed over is teed off on its way in.
    let mut events = Vec::new();
    let tee = live.take_merge().inspect(|e| events.push(e.clone()));
    let (snaps, health) = engine_snapshots(tee, judge);
    let reports = live.finish();
    for p in publishers {
        p.join().expect("publisher thread");
    }
    Served {
        events,
        reports,
        snaps,
        health,
    }
}
