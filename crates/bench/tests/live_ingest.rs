//! End-to-end tests for the live TCP ingest path: loopback publishers
//! feeding [`IngestServer`], merged and diffed exactly like `flowdiff-bench
//! serve` does.
//!
//! The contract under test, in increasing strictness:
//!
//! 1. Epoch snapshots produced from N loopback publisher connections
//!    serialize **byte-identically** to the single-file run over the
//!    interleaved capture, for N = 1 and N = 4.
//! 2. Per-connection ingest accounting is *exact*: each connection's
//!    [`ConnReport`](netsim::net::ConnReport) stats equal what a batch
//!    [`LogStream`] reports over the same (chaos-mangled) bytes.
//! 3. A slow consumer bounds memory: with a small event queue, a
//!    publisher pushing tens of megabytes blocks on TCP until the merge
//!    drains — backpressure, not buffering.
//! 4. What README.md § Robust ingestion states: a clean capture ingests
//!    with every anomaly counter at zero, and at 1 % frame corruption
//!    the differ still confirms over 90 % of the clean run's changes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;

use common::{captures, engine_snapshots, flow_events, serve_loopback};
use flowdiff::prelude::*;
use netsim::log::LogStream;
use netsim::prelude::*;
use openflow::messages::{OfpMessage, PacketIn, PacketInReason};
use openflow::types::{BufferId, DatapathId, Timestamp, Xid};

#[test]
fn served_epochs_byte_identical_to_file_run_for_1_and_4_publishers() {
    let (baseline_log, current_log, config) = captures();
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);

    let judge = (&baseline, &stability, &config);
    let (file_snaps, mut file_health) =
        engine_snapshots(flow_events(&current_log).into_iter(), judge);
    assert!(
        !file_snaps.is_empty(),
        "workload must produce at least one epoch"
    );
    // The file-based health picture: differ counters plus the batch
    // stream's frame stats over the capture bytes.
    let capture_bytes = current_log.to_wire_bytes();
    let mut file_stream = LogStream::from_wire_bytes(&capture_bytes).expect("magic intact");
    assert_eq!(file_stream.by_ref().flatten().count(), current_log.len());
    file_health.absorb_stream(file_stream.stats());

    for n in [1usize, 4] {
        let session = |i: usize, _: &ControllerLog| SessionOptions {
            session: i as u64,
            ..SessionOptions::default()
        };
        let served = serve_loopback(&current_log, n, 64, LiveOptions::default(), session, judge);
        assert_eq!(
            served.events,
            flow_events(&current_log),
            "{n} publishers: merge must restore capture order"
        );
        let (wire_snaps, mut wire_health, reports) = (served.snaps, served.health, served.reports);
        assert_eq!(
            wire_snaps, file_snaps,
            "{n} publishers: epoch snapshots must serialize byte-identically"
        );
        // The served health picture folds per-connection frame stats in,
        // exactly like `serve` does; a clean wire run must then match
        // the file run's counters field for field.
        let mut frames = 0;
        for r in &reports {
            assert!(r.handshake_ok, "conn {} handshake", r.index);
            assert_eq!(r.stats.frames_skipped, 0);
            assert_eq!(r.stats.bytes_skipped, 0);
            frames += r.stats.frames_decoded;
            wire_health.absorb_stream(r.stats);
        }
        assert_eq!(frames, current_log.len() as u64);
        assert_eq!(
            wire_health, file_health,
            "{n} publishers: health counters must match the file run"
        );
    }
}

#[test]
fn chaos_connection_accounting_matches_batch_decode_exactly() {
    let (_, current_log, _) = captures();
    let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");

    for (i, part) in split_capture(&current_log, 2).into_iter().enumerate() {
        let chaos = ChannelChaos {
            reorder_jitter_us: 500,
            ..ChannelChaos::corruption(0.05, 9 + i as u64)
        };
        // The injector is seeded: mangling locally yields the exact
        // bytes the publisher puts on the wire.
        let (expected_bytes, _) = chaos.mangle(&part);
        let mut batch = LogStream::from_wire_bytes(&expected_bytes).expect("magic intact");
        let expected_events = batch.by_ref().flatten().count() as u64;
        let expected_stats = batch.stats();

        let publisher = std::thread::spawn(move || {
            publish_mangled(addr, &part, &chaos, i as u64).expect("publish")
        });
        // One connection at a time: no accept-order ambiguity.
        let mut live = server
            .live(1, 64, LiveOptions::default())
            .expect("live ingest");
        let events: Vec<FlowEvent> = live.take_merge().collect();
        let reports = live.finish();
        let sent = publisher.join().expect("publisher thread");

        // On the wire the mangled bytes travel inside session records.
        assert!(sent.bytes_sent > expected_bytes.len() as u64);
        let r = &reports[0];
        assert!(r.handshake_ok);
        assert_eq!(r.bytes_read, sent.bytes_sent, "conn {i}");
        assert_eq!(r.stats, expected_stats, "conn {i}: frame accounting");
        assert_eq!(r.events, expected_events, "conn {i}: events forwarded");
        assert_eq!(events.len() as u64, expected_events);
    }
}

#[test]
fn one_percent_corruption_keeps_ninety_percent_of_the_confirmed_changes() {
    // `captures()` confirms 6 changes, where one miss is already 83 %;
    // the paper's 320-server tree with 9 applications confirms 27.
    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    // Quarantine the far-future timestamps bit flips mint.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let judge = (&baseline, &stability, &config);
    // Streams capture bytes the way `watch` does and keys every epoch's
    // changes by signature, direction and implicated components:
    // identifiers that survive magnitude jitter.
    let changes = |bytes: &[u8]| {
        let mut stream = LogStream::from_wire_bytes(bytes).expect("magic intact");
        let events: Vec<FlowEvent> = stream.by_ref().flatten().map(|e| (&e).into()).collect();
        let (snaps, mut health) = engine_snapshots(events.into_iter(), judge);
        health.absorb_stream(stream.stats());
        let mut keys = BTreeSet::new();
        for snap in &snaps {
            let diff = serde::from_slice::<EpochSnapshot>(snap)
                .expect("snapshot")
                .diff;
            for c in diff
                .group_diffs
                .iter()
                .flat_map(|g| &g.changes)
                .chain(&diff.infra)
            {
                keys.insert(format!("{:?} {:?} {:?}", c.kind, c.direction, c.components));
            }
        }
        (keys, health)
    };

    let (clean, clean_health) = changes(&current_log.to_wire_bytes());
    assert_eq!(
        clean_health,
        IngestHealth {
            frames_decoded: current_log.len() as u64,
            ..IngestHealth::default()
        },
        "a clean capture ingests with every anomaly counter at zero"
    );
    assert!(clean.len() >= 20, "too few changes for 90 % to mean much");
    let (mangled_bytes, _) = ChannelChaos::corruption(0.01, 1).mangle(&current_log);
    let (mangled, _) = changes(&mangled_bytes);
    let recovered = clean.intersection(&mangled).count();
    assert!(
        recovered * 10 >= clean.len() * 9,
        "fidelity under 1 % frame corruption: {recovered}/{} confirmed changes recovered",
        clean.len()
    );
}

#[test]
fn slow_consumer_backpressure_bounds_memory_not_correctness() {
    // ~48 MiB of 32 KiB PacketIn frames: far beyond what the kernel
    // socket buffers plus a 4-event queue can absorb, so the publisher
    // can only finish once the consumer drains.
    let payload = vec![0xAB; 32 * 1024];
    let log: ControllerLog = (0..1_500u64)
        .map(|i| ControlEvent {
            ts: Timestamp::from_micros(1_000 + i),
            dpid: DatapathId(1),
            direction: Direction::ToController,
            xid: Xid(i as u32),
            msg: OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: payload.len() as u16,
                in_port: openflow::types::PortNo(1),
                reason: PacketInReason::NoMatch,
                data: payload.clone().into(),
            }),
        })
        .collect();

    let server = IngestServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let done = Arc::new(AtomicBool::new(false));
    let publisher = std::thread::spawn({
        let log = log.clone();
        let done = done.clone();
        move || {
            let sent = publish_session(addr, &log, &SessionOptions::default()).expect("publish");
            done.store(true, Ordering::SeqCst);
            sent
        }
    });
    let mut live = server
        .live(1, 4, LiveOptions::default())
        .expect("live ingest");
    // Hold the merge undrained: the bounded queue + full socket buffers
    // must stall the publisher well short of completion.
    std::thread::sleep(std::time::Duration::from_millis(500));
    assert!(
        !done.load(Ordering::SeqCst),
        "publisher must be blocked by backpressure while the merge is undrained"
    );
    let events: Vec<FlowEvent> = live.take_merge().collect();
    let reports = live.finish();
    let sent = publisher.join().expect("publisher thread");
    assert!(done.load(Ordering::SeqCst));
    assert_eq!(events.len(), log.len());
    assert_eq!(reports[0].events, log.len() as u64);
    assert_eq!(reports[0].bytes_read, sent.bytes_sent);
    assert_eq!(reports[0].stats.frames_skipped, 0);
}
