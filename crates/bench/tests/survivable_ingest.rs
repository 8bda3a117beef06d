//! Connection-survivability tests for the live session ingest: seeded
//! flap/stall schedules across publisher counts, exercised end to end
//! the way `flowdiff-bench serve` runs
//! (`cargo test -p flowdiff-bench --test survivable_ingest`).
//!
//! The contract, in increasing strictness:
//!
//! 1. **Liveness**: with a stall budget armed, the merge never blocks
//!    past it on a silent stream — a publisher that never shows up
//!    cannot wedge the pipeline.
//! 2. **Identity under faults**: session publishers behind seeded
//!    [`ConnChaos`] plans (mid-stream disconnects that resume from the
//!    server watermark, write stalls, slow-loris trickle) deliver a
//!    merged stream — and therefore epoch snapshots — byte-identical
//!    to the uninterrupted file run, for 1, 2, and 4 publishers, both
//!    in strict mode and when the straggling data returns well within
//!    the budget.
//! 3. **Exact accounting**: per-stream connects/resumes/disconnects
//!    equal what the deterministic plan injected, and events equal the
//!    stream's split share — nothing lost, nothing duplicated.

mod common;

use common::{captures, engine_snapshots, flow_events, serve_loopback, Judge, Served};
use flowdiff::prelude::*;
use netsim::prelude::*;

/// [`serve_loopback`] with every publisher a resumable session behind
/// the [`ConnPlan`] the seeded injector derives for it.
fn session_loopback(
    log: &ControllerLog,
    n: usize,
    chaos: Option<&ConnChaos>,
    opts: LiveOptions,
    judge: Judge<'_>,
) -> Served {
    let session = |i: usize, part: &ControllerLog| SessionOptions {
        session: 0x5E55_0000 + i as u64,
        retry_budget: 2,
        backoff_us: 1_000,
        plan: chaos.map(|c| c.plan_for(i as u64, part.len() as u64)),
    };
    serve_loopback(log, n, 64, opts, session, judge)
}

#[test]
fn flapped_sessions_are_byte_identical_with_exact_counters() {
    let (baseline_log, current_log, config) = captures();
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let judge = (&baseline, &stability, &config);
    let (file_snaps, _) = engine_snapshots(&mut Feed::Slice(&flow_events(&current_log)), judge);
    assert!(
        !file_snaps.is_empty(),
        "workload must produce at least one epoch"
    );

    for n in [1usize, 2, 4] {
        for seed in [1u64, 7] {
            let chaos = ConnChaos {
                stalls: 1,
                stall_ms: 20,
                trickles: 1,
                trickle_events: 16,
                ..ConnChaos::flapping(2, seed)
            };
            // Strict merge: faults cost wall time, never identity.
            let Served {
                events,
                reports,
                snaps: wire_snaps,
                ..
            } = session_loopback(&current_log, n, Some(&chaos), LiveOptions::default(), judge);
            assert_eq!(
                events,
                flow_events(&current_log),
                "n={n} seed={seed}: merge must restore capture order under faults"
            );
            assert_eq!(
                wire_snaps, file_snaps,
                "n={n} seed={seed}: epoch snapshots must stay byte-identical"
            );
            // The plan is deterministic, so the lifecycle counters are
            // exactly predictable, not just bounded. Slots are claimed
            // in arrival order, so match each report to its publisher
            // by session id (which encodes the part index).
            for (i, part) in split_capture(&current_log, n).into_iter().enumerate() {
                let plan = chaos.plan_for(i as u64, part.len() as u64);
                let flaps = plan
                    .pending()
                    .iter()
                    .filter(|(_, f)| matches!(f, ConnFault::Disconnect))
                    .count() as u64;
                let session = 0x5E55_0000 + i as u64;
                let r = reports
                    .iter()
                    .find(|r| r.session == Some(session))
                    .unwrap_or_else(|| panic!("no report claimed session {session:#x}"));
                assert!(r.handshake_ok, "conn {i} handshake");
                assert_eq!(
                    r.events,
                    part.len() as u64,
                    "n={n} seed={seed} conn {i}: every event exactly once"
                );
                assert_eq!(
                    r.connects,
                    1 + flaps,
                    "conn {i}: one handshake per flap plus the first connect"
                );
                assert_eq!(r.resumes, flaps, "conn {i}: every reconnect resumed");
                assert_eq!(r.disconnects, flaps, "conn {i}: every flap counted abrupt");
                assert_eq!(r.stalls, 0, "conn {i}: a strict merge never waives");
                assert_eq!(r.cause, Some(DisconnectCause::SessionEnd));
                assert_eq!(r.state, ConnState::Ended);
            }
        }
    }
}

#[test]
fn merge_releases_past_an_absent_publisher_within_the_stall_budget() {
    let (_, current_log, _) = captures();
    let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    // Two expected streams, but only stream 0 ever connects. In strict
    // mode this would deadlock forever; the budget turns it into a
    // bounded wait.
    let opts = LiveOptions {
        stall_timeout_us: 100_000,
        heartbeat_us: 0,
    };
    let mut live = server.live(2, 64, opts).expect("live ingest");
    let part0 = split_capture(&current_log, 2).remove(0);
    let expect = part0.len();
    let publisher = std::thread::spawn(move || {
        let sopts = SessionOptions {
            session: 1,
            ..SessionOptions::default()
        };
        publish_session(addr, &part0, &sopts).expect("publish session")
    });
    let t0 = std::time::Instant::now();
    let mut merge = live.take_merge();
    for got in 0..expect {
        assert!(
            merge.next().is_some(),
            "event {got} of {expect} never arrived past the absent stream"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(3),
        "merge took {elapsed:?} to release {expect} events past a stream \
         that never connected — liveness bound blown"
    );
    publisher.join().expect("publisher thread");
    let reports = live.finish();
    assert_eq!(reports[0].events, expect as u64);
    assert!(
        reports[1].stalls >= 1,
        "the absent stream must be counted stalled"
    );
    assert_eq!(
        reports[1].state,
        ConnState::Stalled,
        "the absent stream ends the run degraded"
    );
    assert_eq!(merge.next(), None, "finish closes the waived stream");
}

#[test]
fn faults_within_the_budget_keep_snapshots_byte_identical() {
    let (baseline_log, current_log, config) = captures();
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let judge = (&baseline, &stability, &config);
    let (file_snaps, _) = engine_snapshots(&mut Feed::Slice(&flow_events(&current_log)), judge);

    // A 2s budget dwarfs both the 30ms write stall and a loopback
    // reconnect, so nothing is ever waived: liveness is armed AND
    // identity holds — the regime the stall budget is designed for.
    let chaos = ConnChaos {
        stalls: 1,
        stall_ms: 30,
        ..ConnChaos::flapping(1, 11)
    };
    let opts = LiveOptions {
        stall_timeout_us: 2_000_000,
        heartbeat_us: 0,
    };
    let Served {
        events,
        reports,
        snaps: wire_snaps,
        ..
    } = session_loopback(&current_log, 2, Some(&chaos), opts, judge);
    assert_eq!(
        events,
        flow_events(&current_log),
        "timely faults must not reorder the merged stream"
    );
    assert_eq!(wire_snaps, file_snaps, "snapshots byte-identical");
    for r in &reports {
        assert_eq!(
            r.stalls, 0,
            "conn {}: no waivers when data returns within the budget",
            r.index
        );
    }
}

#[test]
fn half_close_delivers_the_full_tail_to_a_slow_consumer() {
    // The regression guarded here: a publisher that just flushed and
    // dropped its socket could RST on close and discard tail bytes
    // still sitting in kernel buffers. The half-close (shutdown(Write)
    // then read-to-EOF) must deliver every last frame even when the
    // server drains late.
    let (_, current_log, _) = captures();
    let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let mut live = server
        .live(1, 4, LiveOptions::default())
        .expect("live ingest");
    let log = current_log.clone();
    let publisher = std::thread::spawn(move || {
        publish_session(addr, &log, &SessionOptions::default()).expect("publish")
    });
    // Let the publisher race ahead into the socket buffers, then drain.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let events: Vec<FlowEvent> = live.take_merge().collect();
    let reports = live.finish();
    let sent = publisher.join().expect("publisher thread");
    assert_eq!(events.len(), current_log.len(), "no frame lost at the tail");
    assert_eq!(
        reports[0].bytes_read, sent.bytes_sent,
        "every flushed byte must arrive"
    );
    assert_eq!(reports[0].stats.frames_skipped, 0);
}
