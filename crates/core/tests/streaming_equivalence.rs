//! The streaming pipeline must be indistinguishable from the batch one.
//!
//! Three guarantees, in increasing scope:
//!
//! 1. A property test feeds randomly interleaved synthetic event streams
//!    (missing `FlowMod`s, xid collisions, corrupt frames, repeat
//!    episodes — everything within the eviction horizon) through
//!    `extract_records` and a hand-driven [`RecordAssembler`], and checks
//!    both against an in-test copy of the historical whole-log extraction
//!    algorithm.
//! 2. Feeding a 320-server tree capture event by event through
//!    [`RecordAssembler`] + [`IncrementalModelBuilder`] yields a
//!    [`BehaviorModel`] `PartialEq`-identical to `BehaviorModel::build`.
//! 3. Two independent batch builds of the same log serialize
//!    byte-identically — the parallel fan-out and the ordered maps inside
//!    the signatures leave no nondeterminism behind.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use flowdiff::checkpoint::{config_fingerprint, seal, CHECKPOINT_MAGIC};
use flowdiff::prelude::*;
use flowdiff::records::HopReport;
use flowdiff::signatures::delay::DelayDistribution;
use openflow::actions::{first_output, Action};
use openflow::frame;
use openflow::match_fields::{FlowKey, OfMatch};
use openflow::messages::{
    FlowMod, FlowRemoved, FlowRemovedReason, OfpMessage, PacketIn, PacketInReason,
};
use openflow::types::{BufferId, Cookie, DatapathId, IpProto, PortNo, Timestamp, Xid};
use proptest::prelude::*;
use workloads::prelude::*;

// ---------------------------------------------------------------------
// Oracle: the historical batch extraction, kept verbatim as a reference
// implementation now that `extract_records` wraps the streaming
// assembler.
// ---------------------------------------------------------------------

fn oracle_extract(log: &ControllerLog, config: &FlowDiffConfig) -> Vec<FlowRecord> {
    let mut mods: HashMap<Xid, (Timestamp, Option<PortNo>)> = HashMap::new();
    for (ts, _, xid, fm) in log.flow_mods() {
        let out = first_output(&fm.actions);
        mods.entry(xid).or_insert((ts, out));
    }

    let mut by_tuple: HashMap<FlowTuple, Vec<FlowRecord>> = HashMap::new();
    for (ts, dpid, xid, pi) in log.packet_ins() {
        let Ok(key) = frame::parse_frame(&pi.data) else {
            continue;
        };
        let tuple = FlowTuple::from_key(&key);
        let (fm_ts, out_port) = match mods.get(&xid) {
            Some((t, p)) => (Some(*t), *p),
            None => (None, None),
        };
        let hop = HopReport {
            ts,
            dpid,
            in_port: pi.in_port,
            xid,
            flow_mod_ts: fm_ts,
            out_port,
        };
        let episodes = by_tuple.entry(tuple).or_default();
        let start_new = match episodes.last() {
            Some(ep) => {
                let last_ts = ep.hops.last().map_or(ep.first_seen, |h| h.ts);
                ts.saturating_since(last_ts) > config.episode_gap_us
            }
            None => true,
        };
        if start_new {
            episodes.push(FlowRecord {
                tuple,
                first_seen: ts,
                hops: vec![hop],
                byte_count: 0,
                packet_count: 0,
                duration_s: 0.0,
            });
        } else {
            episodes.last_mut().expect("just checked").hops.push(hop);
        }
    }

    for (ts, _, fr) in log.flow_removeds() {
        let m = &fr.match_;
        let tuple = FlowTuple {
            src: m.nw_src,
            sport: m.tp_src,
            dst: m.nw_dst,
            dport: m.tp_dst,
            proto: m.nw_proto,
        };
        if let Some(episodes) = by_tuple.get_mut(&tuple) {
            if let Some(ep) = episodes.iter_mut().rev().find(|ep| ep.first_seen <= ts) {
                ep.byte_count = ep.byte_count.max(fr.byte_count);
                ep.packet_count = ep.packet_count.max(fr.packet_count);
                ep.duration_s = ep.duration_s.max(fr.duration_secs_f64());
            }
        }
    }

    let mut records: Vec<FlowRecord> = by_tuple.into_values().flatten().collect();
    records.sort_by_key(|r| (r.first_seen, r.tuple));
    records
}

// ---------------------------------------------------------------------
// Synthetic stream generation: each u64 seed expands deterministically
// into one flow script — tuple, hop chain, FlowMod replies (sometimes
// missing, sometimes preceding their PacketIn), optional FlowRemoved
// counters, an optional repeat episode, and the occasional corrupt
// frame. Small value pools force tuple and xid collisions.
// ---------------------------------------------------------------------

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        // splitmix64: a deterministic stream per flow seed.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn synth_events(seed: u64, events: &mut Vec<ControlEvent>) {
    let mut rng = Mix(seed);
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1 + (rng.next() % 4) as u8),
        1024 + (rng.next() % 8) as u16,
        Ipv4Addr::new(10, 0, 1, 1 + (rng.next() % 4) as u8),
        if rng.next().is_multiple_of(2) {
            80
        } else {
            3306
        },
    );
    let start = Timestamp::from_micros(1_000_000 + rng.next() % 30_000_000);
    let episodes = if rng.next().is_multiple_of(4) { 2 } else { 1 };
    let n_hops = 1 + (rng.next() % 3) as usize;

    for episode in 0..episodes {
        // Repeat episodes sit 10 s apart: far past the 2 s episode gap,
        // well inside the 60 s eviction horizon.
        let ep_start = start + episode * 10_000_000;
        let mut ts = ep_start;
        let mut last_hop_ts = ep_start;
        for hop in 0..n_hops {
            ts = ts + rng.next() % 2_000;
            last_hop_ts = ts;
            let dpid = DatapathId(1 + rng.next() % 6);
            let in_port = PortNo(1 + (rng.next() % 4) as u16);
            // Small xid pool per episode wave: collisions across flows
            // exercise first-FlowMod-wins on both paths.
            let xid = Xid(1 + (episode * 100) as u32 + (rng.next() % 24) as u32);
            let corrupt = rng.next().is_multiple_of(16);
            let data = if corrupt {
                vec![0u8; 4].into()
            } else {
                frame::build_frame(&key, 128)
            };
            events.push(ControlEvent {
                ts,
                dpid,
                direction: Direction::ToController,
                xid,
                msg: OfpMessage::PacketIn(PacketIn {
                    buffer_id: BufferId::NO_BUFFER,
                    total_len: 128,
                    in_port,
                    reason: PacketInReason::NoMatch,
                    data,
                }),
            });
            if !rng.next().is_multiple_of(4) {
                // The reply lands up to 1 ms before or 2 ms after its
                // PacketIn — both orders must pair identically.
                let skew = rng.next() % 3_000;
                let mod_ts = Timestamp::from_micros((ts.as_micros() + skew).saturating_sub(1_000));
                let fm = FlowMod::add(OfMatch::exact(&key, in_port), 100)
                    .action(Action::output(PortNo(in_port.0 + 1)));
                events.push(ControlEvent {
                    ts: mod_ts,
                    dpid,
                    direction: Direction::FromController,
                    xid,
                    msg: OfpMessage::FlowMod(fm),
                });
            }
            let _ = hop;
        }
        if !rng.next().is_multiple_of(3) {
            let fr_ts = last_hop_ts + 1_000 + rng.next() % 8_000_000;
            let byte_count = rng.next() % 50_000;
            events.push(ControlEvent {
                ts: fr_ts,
                dpid: DatapathId(1 + rng.next() % 6),
                direction: Direction::ToController,
                xid: Xid(0),
                msg: OfpMessage::FlowRemoved(FlowRemoved {
                    match_: OfMatch::exact(&key, PortNo(1)),
                    cookie: Cookie::default(),
                    priority: 100,
                    reason: FlowRemovedReason::IdleTimeout,
                    duration_sec: (rng.next() % 10) as u32,
                    duration_nsec: (rng.next() % 1_000_000_000) as u32,
                    idle_timeout: 5,
                    packet_count: byte_count / 1_000 + 1,
                    byte_count,
                }),
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch wrapper, hand-driven assembler with mid-stream drains, and
    /// the historical algorithm all agree on every generated stream.
    #[test]
    fn streaming_matches_historical_batch(seeds in prop::collection::vec(any::<u64>(), 1..16)) {
        let mut events = Vec::new();
        for seed in &seeds {
            synth_events(*seed, &mut events);
        }
        let log: ControllerLog = events.into_iter().collect();
        let config = FlowDiffConfig::default();

        let expected = oracle_extract(&log, &config);
        let batch = extract_records(&log, &config);
        prop_assert_eq!(&batch, &expected);

        // Drive the assembler the way an online consumer does, draining
        // completed records at arbitrary points mid-stream.
        let mut asm = RecordAssembler::new(&config);
        let mut streamed = Vec::new();
        for (i, ev) in log.events().iter().enumerate() {
            asm.observe(ev);
            if i % 5 == 0 {
                streamed.extend(asm.take_completed());
            }
        }
        streamed.extend(asm.finish());
        streamed.sort_by_key(|r| (r.first_seen, r.tuple));
        prop_assert_eq!(&streamed, &expected);
    }
}

// ---------------------------------------------------------------------
// Whole-model equivalence on the paper's 320-server tree.
// ---------------------------------------------------------------------

/// A short capture of Section V-C's meshes on the 320-server tree (16
/// racks x 20 servers) — a scaled-down cut of the Fig. 13b workload.
fn tree_log(n_apps: usize, seed: u64, secs: u64) -> (ControllerLog, FlowDiffConfig) {
    let log = tree_mesh(Topology::tree(16, 20), n_apps, seed, secs)
        .run()
        .log;
    (log, FlowDiffConfig::default())
}

#[test]
fn tree_streamed_model_matches_batch_build() {
    let (log, config) = tree_log(3, 7, 12);
    assert!(log.len() > 1_000, "capture should carry real traffic");
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

    assert!(!batch.groups.is_empty(), "tree workload must form groups");
    assert_eq!(streamed, batch);
}

#[test]
fn repeated_builds_serialize_byte_identically() {
    let (log, config) = tree_log(2, 11, 8);
    let first = serde::to_vec(&BehaviorModel::build(&log, &config));
    let second = serde::to_vec(&BehaviorModel::build(&log, &config));
    assert!(!first.is_empty());
    assert_eq!(first, second, "model construction must be deterministic");
}

// ---------------------------------------------------------------------
// Chaos: the ingestion path must survive arbitrary wire damage, and the
// health counters must agree with the injector's ground-truth tally.
// ---------------------------------------------------------------------

fn synth_log(seeds: &[u64]) -> ControllerLog {
    let mut events = Vec::new();
    for seed in seeds {
        synth_events(*seed, &mut events);
    }
    events.into_iter().collect()
}

/// Bumps duplicate timestamps so every event has a distinct one: the
/// reorder-restoration property is only exact when the original order is
/// recoverable from timestamps alone.
fn with_distinct_timestamps(log: &ControllerLog) -> ControllerLog {
    let mut events = log.events().to_vec();
    let mut prev: Option<Timestamp> = None;
    for ev in &mut events {
        if let Some(p) = prev {
            if ev.ts <= p {
                ev.ts = Timestamp::from_micros(p.as_micros() + 1);
            }
        }
        prev = Some(ev.ts);
    }
    events.into_iter().collect()
}

/// The online ingest stages: a [`Sequencer`] in front of a
/// [`RecordAssembler`].
struct Ingest {
    seq: Sequencer,
    asm: RecordAssembler,
}

impl Ingest {
    fn new(config: &FlowDiffConfig) -> Ingest {
        Ingest {
            seq: Sequencer::new(config),
            asm: RecordAssembler::new(config),
        }
    }

    fn observe(&mut self, ev: &ControlEvent) {
        if self.seq.admit(ev.ts) {
            let asm = &mut self.asm;
            self.seq.release(ev.into(), |ev| asm.observe(ev));
        }
    }

    /// The records in batch order, and the event-level health.
    fn finish(mut self) -> (Vec<FlowRecord>, IngestHealth) {
        for ev in self.seq.drain() {
            self.asm.observe(&ev);
        }
        let mut health = *self.asm.health();
        self.seq.count_into(&mut health);
        (self.asm.finish(), health)
    }
}

/// Streams wire bytes through the online ingest stages, tolerating
/// decode errors, and returns the records plus the merged health
/// counters.
fn ingest_wire(bytes: &[u8], config: &FlowDiffConfig) -> (Vec<FlowRecord>, IngestHealth) {
    let mut ingest = Ingest::new(config);
    let mut stream = netsim::log::LogStream::from_wire_bytes(bytes).expect("magic intact");
    for ev in stream.by_ref().flatten() {
        ingest.observe(&ev);
    }
    let (records, mut health) = ingest.finish();
    health.absorb_stream(stream.stats());
    (records, health)
}

/// Same ingest as [`ingest_wire`], but the bytes arrive in `chunk`-byte
/// pieces through the incremental [`FrameDecoder`](netsim::log::FrameDecoder)
/// — the served-mode decode path. Records and health must match the
/// batch path exactly.
fn ingest_wire_chunked(
    bytes: &[u8],
    config: &FlowDiffConfig,
    chunk: usize,
) -> (Vec<FlowRecord>, IngestHealth) {
    let mut ingest = Ingest::new(config);
    let mut dec = netsim::log::FrameDecoder::new();
    let mut items = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        dec.push(piece, &mut items);
        for ev in items.drain(..).flatten() {
            ingest.observe(&ev);
        }
    }
    dec.finish(&mut items);
    for ev in items.drain(..).flatten() {
        ingest.observe(&ev);
    }
    let (records, mut health) = ingest.finish();
    health.absorb_stream(dec.stats());
    (records, health)
}

#[test]
fn truncated_captures_never_panic_at_any_offset() {
    let log = synth_log(&[1, 2]);
    let config = FlowDiffConfig::default();
    let bytes = log.to_wire_bytes();
    assert!(bytes.len() > 100, "capture should carry several frames");
    for cut in 0..bytes.len() {
        match netsim::log::LogStream::from_wire_bytes(&bytes[..cut]) {
            Ok(mut stream) => {
                let mut asm = RecordAssembler::new(&config);
                for ev in stream.by_ref().flatten() {
                    asm.observe(&ev);
                }
                assert!(stream.stats().frames_decoded <= log.len() as u64);
                let _ = asm.finish();
            }
            Err(e) => {
                assert!(cut < 8, "only a truncated magic may reject the capture");
                assert!(matches!(e, netsim::log::DecodeError::BadMagic));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drops and duplications change the frame count by exactly what the
    /// injector reports; nothing else is lost or skipped.
    #[test]
    fn drop_and_duplicate_accounting_is_exact(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        chaos_seed in any::<u64>(),
        drop_prob in 0.0..0.4f64,
        duplicate_prob in 0.0..0.4f64,
    ) {
        let log = synth_log(&seeds);
        let chaos = ChannelChaos {
            drop_prob,
            duplicate_prob,
            ..ChannelChaos::corruption(0.0, chaos_seed)
        };
        let (bytes, report) = chaos.mangle(&log);
        let (_, health) = ingest_wire(&bytes, &FlowDiffConfig::default());
        prop_assert_eq!(report.total_frames, log.len() as u64);
        prop_assert_eq!(
            health.frames_decoded,
            report.total_frames - report.dropped + report.duplicated
        );
        prop_assert_eq!(health.frames_skipped, 0);
        prop_assert_eq!(health.bytes_skipped, 0);
    }

    /// Truncations and bit flips never panic the decoder or the
    /// assembler, never mint frames out of thin air, and leave an intact
    /// capture untouched.
    #[test]
    fn truncation_and_bit_flips_never_panic(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        chaos_seed in any::<u64>(),
        truncate_prob in 0.0..0.3f64,
        bit_flip_prob in 0.0..0.3f64,
    ) {
        let log = synth_log(&seeds);
        let chaos = ChannelChaos {
            truncate_prob,
            bit_flip_prob,
            ..ChannelChaos::corruption(0.0, chaos_seed)
        };
        let (bytes, report) = chaos.mangle(&log);
        let (_, health) = ingest_wire(&bytes, &FlowDiffConfig::default());
        prop_assert!(health.frames_decoded <= report.total_frames);
        if report.truncated + report.bit_flipped == 0 {
            prop_assert_eq!(health.frames_decoded, report.total_frames);
            prop_assert_eq!(health.frames_skipped, 0);
        }
    }

    /// A bounded shuffle absorbed by an equal reorder slack yields the
    /// exact records of the clean capture, and the assembler's disorder
    /// count agrees with the injector's.
    #[test]
    fn bounded_shuffle_with_slack_restores_batch_records(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        chaos_seed in any::<u64>(),
        jitter_us in 0u64..5_000,
    ) {
        let log = with_distinct_timestamps(&synth_log(&seeds));
        let config = FlowDiffConfig::default();
        let expected = extract_records(&log, &config);
        let chaos = ChannelChaos {
            reorder_jitter_us: jitter_us,
            ..ChannelChaos::corruption(0.0, chaos_seed)
        };
        let (bytes, report) = chaos.mangle(&log);
        let mut slack_config = config.clone();
        slack_config.reorder_slack_us = jitter_us;
        let (records, health) = ingest_wire(&bytes, &slack_config);
        prop_assert_eq!(health.events_reordered, report.reordered);
        prop_assert_eq!(records, expected);
    }

    /// The served-mode decode path through the resync sites: the same
    /// chaos-mangled bytes pushed through the incremental decoder in
    /// arbitrary-size chunks yield exactly the records and health
    /// counters of the batch stream — skip accounting included.
    #[test]
    fn chunked_wire_ingest_matches_batch(
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        chaos_seed in any::<u64>(),
        corruption in 0.0..0.2f64,
        chunk in 1usize..5_000,
    ) {
        let log = synth_log(&seeds);
        let chaos = ChannelChaos::corruption(corruption, chaos_seed);
        let (bytes, _) = chaos.mangle(&log);
        let config = FlowDiffConfig::default();
        let (batch_records, batch_health) = ingest_wire(&bytes, &config);
        let (chunk_records, chunk_health) = ingest_wire_chunked(&bytes, &config, chunk);
        prop_assert_eq!(chunk_records, batch_records);
        prop_assert_eq!(chunk_health, batch_health);
    }
}

/// A clean simulated capture round-trips with every anomaly counter at
/// zero, and the model built off the decoded stream serializes
/// byte-identically to the batch build — damage tolerance costs nothing
/// when there is no damage.
#[test]
fn clean_capture_reports_zero_anomalies_and_identical_model() {
    let (log, config) = tree_log(2, 11, 8);
    let (records, health) = ingest_wire(&log.to_wire_bytes(), &config);
    assert_eq!(health.frames_decoded, log.len() as u64);
    assert_eq!(health.frames_skipped, 0);
    assert_eq!(
        health.anomalies(),
        0,
        "clean capture must count no anomalies"
    );
    assert_eq!(health.episodes_evicted, 0);

    let mut batch = extract_records(&log, &config);
    batch.sort_by_key(|r| (r.first_seen, r.tuple));
    assert_eq!(records, batch);

    let wire = log.to_wire_bytes();
    let decoded: ControllerLog = netsim::log::LogStream::from_wire_bytes(&wire)
        .unwrap()
        .map(Result::unwrap)
        .collect();
    let first = serde::to_vec(&BehaviorModel::build(&log, &config));
    let second = serde::to_vec(&BehaviorModel::build(&decoded, &config));
    assert_eq!(
        first, second,
        "decoded capture must rebuild the exact model"
    );
}

// ---------------------------------------------------------------------
// Crash safety: checkpoint at an arbitrary event boundary, restore from
// the guarded bytes, replay the suffix — the resumed run must be
// indistinguishable from the uninterrupted one, even when the stream
// itself arrives chaos-mangled.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The recovery contract of `flowdiff::checkpoint`: kill at any
    /// event boundary, restore, replay from the checkpoint offset, and
    /// every subsequent epoch snapshot is `PartialEq`-identical and
    /// serializes byte-identically to the uninterrupted run's.
    #[test]
    fn checkpoint_restore_resumes_byte_identically(
        ref_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cur_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cut_ppm in 0u32..=1_000_000,
        chaos_seed in any::<u64>(),
        corruption in 0.0..0.08f64,
    ) {
        let config = FlowDiffConfig::default();
        let ref_log = synth_log(&ref_seeds);
        let reference = BehaviorModel::build(&ref_log, &config);
        let stability = StabilityReport::all_stable(&reference);

        // The current stream arrives mangled off the wire: recovery must
        // be exact even when the input is not.
        let chaos = ChannelChaos::corruption(corruption, chaos_seed);
        let (wire, _) = chaos.mangle(&synth_log(&cur_seeds));
        let mut stream = netsim::log::LogStream::from_wire_bytes(&wire).expect("magic intact");
        let events: Vec<ControlEvent> =
            stream.by_ref().flatten().collect();
        if events.is_empty() {
            // Total corruption left nothing to stream; trivially true.
            return Ok(());
        }
        let cut = (events.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;

        let baseline = Arc::new(BaselineBundle { model: reference, stability });
        let mut straight =
            OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
        let mut doomed = straight.clone();
        let mut straight_snaps = Vec::new();
        let mut resumed_snaps = Vec::new();
        for event in &events[..cut] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(doomed.observe(event));
        }
        // Kill: the streaming state survives only as guarded bytes.
        let ckpt_bytes = Checkpoint::capture(&doomed, cut as u64, &config).to_bytes();
        drop(doomed);
        let (mut resumed, offset) = Checkpoint::from_bytes(&ckpt_bytes)
            .expect("container intact")
            .resume(&baseline, &config)
            .expect("same config");
        prop_assert_eq!(offset as usize, cut);
        prop_assert_eq!(&resumed, &straight, "restored state == live state");
        for event in &events[cut..] {
            straight_snaps.extend(straight.observe(event));
            resumed_snaps.extend(resumed.observe(event));
        }
        let last_a = straight.finish();
        let last_b = resumed.finish();
        prop_assert_eq!(&straight_snaps, &resumed_snaps);
        prop_assert_eq!(&last_a, &last_b);
        // Equality of the differ's own serialization is too strong
        // (hash-map iteration order differs between equal instances),
        // but the *snapshots* — the observable output — must match to
        // the byte.
        for (a, b) in straight_snaps
            .iter()
            .chain(&last_a)
            .zip(resumed_snaps.iter().chain(&last_b))
        {
            prop_assert_eq!(serde::to_vec(a), serde::to_vec(b));
        }
    }
}

// ---------------------------------------------------------------------
// Incremental hot path: the per-epoch delta snapshot (retire the main
// builder, re-read the touched open episodes into the maintained
// window) must be indistinguishable from the historical remodel that
// cloned the whole builder every epoch.
// ---------------------------------------------------------------------

/// The epoch / window shapes, in seconds, the property test below draws
/// from: the default, the 1 s / 30 s shape panes pay off at, windows that
/// are not a multiple of their epoch (the oldest pane straddles the
/// window start), and a window of one epoch (one pane).
const SHAPES: [(u64, u64); 5] = [(5, 30), (1, 30), (3, 10), (2, 7), (40, 40)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every epoch snapshot the incremental [`OnlineDiffer`] emits is
    /// `PartialEq`-identical and serializes byte-identically to the
    /// historical clone-probe remodel (clone the builder, observe the
    /// open episodes, retire everything before the window, rebuild from
    /// scratch via the `into_snapshot` oracle) — across random
    /// interleaved streams, chaos-mangled wire bytes and the epoch /
    /// window shapes of [`SHAPES`].
    #[test]
    fn incremental_epochs_match_clone_probe_remodel(
        ref_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cur_seeds in prop::collection::vec(any::<u64>(), 1..6),
        chaos_seed in any::<u64>(),
        corruption in 0.0..0.08f64,
        shape in 0..SHAPES.len(),
    ) {
        let (epoch_s, window_s) = SHAPES[shape];
        let config = FlowDiffConfig {
            online_epoch_us: epoch_s * 1_000_000,
            online_window_us: window_s * 1_000_000,
            ..FlowDiffConfig::default()
        };
        let ref_log = synth_log(&ref_seeds);
        let reference = BehaviorModel::build(&ref_log, &config);
        let stability = StabilityReport::all_stable(&reference);

        let chaos = ChannelChaos::corruption(corruption, chaos_seed);
        let (wire, _) = chaos.mangle(&synth_log(&cur_seeds));
        let mut stream = netsim::log::LogStream::from_wire_bytes(&wire).expect("magic intact");
        let events: Vec<ControlEvent> =
            stream.by_ref().flatten().collect();
        if events.is_empty() {
            return Ok(());
        }

        let mut differ = OnlineDiffer::new(reference, stability, &config);
        // The oracle pipeline is never retired between epochs: it holds
        // the full stream, exactly like the differ's builder did before
        // snapshots went incremental.
        let mut oracle_asm = RecordAssembler::new(&config);
        let mut oracle_builder = IncrementalModelBuilder::new(&config);
        let remodel = |builder: &IncrementalModelBuilder,
                       asm: &RecordAssembler,
                       window: (Timestamp, Timestamp)| {
            let mut probe = builder.clone();
            for open in asm.open_records() {
                probe.observe_record(open);
            }
            probe.retire_before(window.0);
            probe.set_span(window);
            probe.into_snapshot()
        };

        for event in &events {
            let snaps = differ.observe(event);
            // Boundaries fire before the event is ingested, so the
            // oracle models its epochs before observing the event too.
            for snap in &snaps {
                let expected = remodel(&oracle_builder, &oracle_asm, snap.window);
                prop_assert_eq!(&expected, &snap.model, "epoch {} model", snap.epoch);
                prop_assert_eq!(
                    serde::to_vec(&expected),
                    serde::to_vec(&snap.model),
                    "epoch {} model bytes", snap.epoch
                );
            }
            oracle_asm.observe(event);
            oracle_builder.observe_event(event);
            for record in oracle_asm.take_completed() {
                oracle_builder.observe_record(record);
            }
        }

        // The final flush: completed in-flight episodes join the window,
        // then the same retire-and-remodel applies.
        for record in oracle_asm.finish() {
            oracle_builder.observe_record(record);
        }
        let last = differ.finish();
        if let Some(last) = last {
            let mut probe = oracle_builder.clone();
            probe.retire_before(last.window.0);
            probe.set_span(last.window);
            let expected = probe.into_snapshot();
            prop_assert_eq!(&expected, &last.model, "final model");
            prop_assert_eq!(serde::to_vec(&expected), serde::to_vec(&last.model));
        }
    }
}

/// What one [`maintained_window_run`] saw happen to open episodes the
/// differ's maintained window already held a version of.
#[derive(Debug, Default)]
struct Seen {
    flow_mod_patch: bool,
    flow_removed: bool,
    evicted_in_window: bool,
    slid_out_open: bool,
}

/// The open versions the previous boundary modeled, by window key.
type Modeled = HashMap<(Timestamp, FlowTuple), FlowRecord>;

impl Seen {
    /// Compares the episodes open at a boundary with the versions the
    /// previous boundary modeled, then makes the in-window ones the
    /// modeled set.
    fn at_boundary(&mut self, modeled: &mut Modeled, opens: Vec<FlowRecord>, start: Timestamp) {
        let mut now = Modeled::new();
        for open in opens {
            let key = (open.first_seen, open.tuple);
            if let Some(old) = modeled.get(&key) {
                if open.first_seen < start {
                    self.slid_out_open = true;
                    continue;
                }
                let patched = |(a, b): (&HopReport, &HopReport)| {
                    a.flow_mod_ts.is_none() && b.flow_mod_ts.is_some()
                };
                self.flow_mod_patch |= old.hops.iter().zip(&open.hops).any(patched);
                self.flow_removed |= old.byte_count != open.byte_count;
            }
            if open.first_seen >= start {
                now.insert(key, open);
            }
        }
        *modeled = now;
    }
}

/// The shape the property test above does not reach: a tree capture at
/// 1 s epochs over a 30 s window, where nearly every window record is a
/// still-open episode carried from epoch to epoch. Every epoch's model
/// must equal the clone-probe oracle's, through a checkpoint → restore
/// in mid-stream, and the builder's work counters must show the boundary
/// paid for the touched episodes and the panes they are in only.
fn maintained_window_run(partial_flow_timeout_us: u64, secs: u64) -> Seen {
    let (log, base) = tree_log(4, 42, secs);
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 30_000_000,
        partial_flow_timeout_us,
        ..base
    };
    let reference = BehaviorModel::build(&tree_log(4, 41, 20).0, &config);
    let stability = StabilityReport::all_stable(&reference);
    let events = log.events();
    let cut = events.len() * 3 / 5;

    let baseline = Arc::new(BaselineBundle {
        model: reference,
        stability,
    });
    let mut straight = OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
    let mut resumed = straight.clone();
    let mut oracle_asm = RecordAssembler::new(&config);
    let mut oracle_builder = IncrementalModelBuilder::new(&config);
    let mut modeled = Modeled::new();
    let mut seen = Seen::default();
    let (mut epochs, mut first_after_restore) = (0usize, None);

    for (i, event) in events.iter().enumerate() {
        if i == cut {
            // Kill: the streaming state survives only as guarded bytes,
            // taken while the derived state (interned window, touched
            // set) is live — none of it is in the bytes, all of it is
            // rebuilt.
            assert!(epochs > 30, "restore must land in steady state");
            let bytes = Checkpoint::capture(&resumed, cut as u64, &config).to_bytes();
            let (restored, offset) = Checkpoint::from_bytes(&bytes)
                .expect("container intact")
                .resume(&baseline, &config)
                .expect("same config");
            assert_eq!(offset as usize, cut);
            assert_eq!(restored, straight, "restored state == live state");
            resumed = restored;
            first_after_restore = Some(epochs);
        }
        let snaps = resumed.observe(event);
        assert_eq!(
            straight.observe(event),
            snaps,
            "resume diverged at event {i}"
        );
        for snap in &snaps {
            let mut probe = oracle_builder.clone();
            let opens = oracle_asm.open_records();
            for open in &opens {
                probe.observe_record(open.clone());
            }
            probe.retire_before(snap.window.0);
            probe.set_span(snap.window);
            let expected = probe.into_snapshot();
            assert_eq!(expected, snap.model, "epoch {} model", snap.epoch);
            assert_eq!(
                serde::to_vec(&expected),
                serde::to_vec(&snap.model),
                "epoch {} model bytes",
                snap.epoch
            );

            let window = snap.model.records.len();
            let synced = resumed.epoch_synced();
            let rebuilt = resumed.epoch_panes_rebuilt();
            if epochs == 0 || first_after_restore == Some(epochs) {
                assert_eq!(synced, window, "epoch {epochs} rebuilds the window");
                let panes = panes_of(&snap.model, snap.window.1, config.online_epoch_us);
                assert_eq!(rebuilt, panes, "epoch {epochs} rebuilds every pane");
            } else if epochs > 30 {
                assert!(
                    synced * 4 <= window,
                    "epoch {epochs}: synced {synced} of {window} window records"
                );
                assert!(rebuilt <= 3, "epoch {epochs}: {rebuilt} panes rebuilt");
            }
            epochs += 1;

            seen.at_boundary(&mut modeled, opens, snap.window.0);
        }
        oracle_asm.observe(event);
        oracle_builder.observe_event(event);
        let newest = oracle_builder.observed_span().expect("just observed").1;
        for record in oracle_asm.take_completed() {
            let in_window = record.first_seen.as_micros() + config.online_window_us
                > newest.as_micros() + config.online_epoch_us;
            seen.evicted_in_window |=
                in_window && modeled.contains_key(&(record.first_seen, record.tuple));
            oracle_builder.observe_record(record);
        }
    }
    assert!(first_after_restore.is_some() && epochs > first_after_restore.unwrap() + 5);
    assert_eq!(straight.finish(), resumed.finish());
    seen
}

#[test]
fn maintained_window_matches_clone_probe_when_every_record_is_open() {
    // Default 60 s horizon: nothing is evicted inside a 30 s window, so
    // the window is all open episodes and they leave by sliding out.
    let seen = maintained_window_run(60_000_000, 75);
    assert!(seen.flow_mod_patch, "a FlowMod patched a synced open");
    assert!(seen.flow_removed, "a FlowRemoved landed on a synced open");
    assert!(seen.slid_out_open, "a synced open slid out of the window");
    assert!(!seen.evicted_in_window);
}

#[test]
fn maintained_window_matches_clone_probe_across_in_window_evictions() {
    // A 12 s horizon evicts episodes the window still holds: the synced
    // open version changes owner instead of being re-read.
    let seen = maintained_window_run(12_000_000, 75);
    assert!(seen.flow_mod_patch && seen.flow_removed);
    assert!(
        seen.evicted_in_window,
        "a synced open was evicted in-window"
    );
    assert!(seen.slid_out_open, "a synced open slid out of the window");
}

/// How many epoch-wide panes a model's window spans: the epochs, on the
/// grid its window end falls on, its records were first seen in.
fn panes_of(model: &BehaviorModel, end: Timestamp, epoch_us: u64) -> usize {
    let phase = end.as_micros() % epoch_us;
    let mut panes: Vec<u64> = (model.records.iter())
        .map(|r| (r.first_seen.as_micros() + epoch_us - phase) / epoch_us)
        .collect();
    panes.dedup();
    panes.len()
}

// ---------------------------------------------------------------------
// Pane partials: DD, PT, ISL and CRT fold from one partial per
// epoch-wide pane, and a boundary rebuilds only the panes that changed.
// ---------------------------------------------------------------------

/// Streams `events` through an [`OnlineDiffer`] under `config`, with a
/// checkpoint → restore three fifths of the way in, and checks every
/// epoch's model against the clone-probe remodel of an oracle that takes
/// the same arrival path (a [`Sequencer`] in front of the assembler) and
/// is never retired. Returns how many epochs it checked.
fn epochs_match_clone_probe(events: &[ControlEvent], config: &FlowDiffConfig) -> usize {
    let reference = BehaviorModel::build(&ControllerLog::new(), config);
    let stability = StabilityReport::all_stable(&reference);
    let baseline = Arc::new(BaselineBundle {
        model: reference,
        stability,
    });
    let mut differ = OnlineDiffer::try_new(Arc::clone(&baseline), config).expect("config valid");
    let mut oracle = Ingest::new(config);
    let mut builder = IncrementalModelBuilder::new(config);
    let cut = events.len() * 3 / 5;
    let mut epochs = 0;
    for (i, event) in events.iter().enumerate() {
        if i == cut {
            let bytes = Checkpoint::capture(&differ, cut as u64, config).to_bytes();
            (differ, _) = Checkpoint::from_bytes(&bytes)
                .expect("container intact")
                .resume(&baseline, config)
                .expect("same config");
        }
        for snap in differ.observe(event) {
            let mut probe = builder.clone();
            for open in oracle.asm.open_records() {
                probe.observe_record(open);
            }
            probe.retire_before(snap.window.0);
            probe.set_span(snap.window);
            let expected = probe.into_snapshot();
            assert_eq!(expected, snap.model, "epoch {} model", snap.epoch);
            assert_eq!(
                serde::to_vec(&expected),
                serde::to_vec(&snap.model),
                "epoch {} model bytes",
                snap.epoch
            );
            epochs += 1;
        }
        if oracle.seq.admit(event.ts) {
            let asm = &mut oracle.asm;
            oracle.seq.release(event.into(), |ev| asm.observe(ev));
            builder.observe_event(event);
            for record in oracle.asm.take_completed() {
                builder.observe_record(record);
            }
        }
    }
    epochs
}

#[test]
fn panes_match_clone_probe_when_the_window_is_not_a_multiple_of_the_epoch() {
    // 3 s epochs over a 10 s window: the oldest pane straddles the window
    // start and is rebuilt over its in-window part.
    let (log, base) = tree_log(3, 42, 40);
    let config = FlowDiffConfig {
        online_epoch_us: 3_000_000,
        online_window_us: 10_000_000,
        ..base
    };
    assert!(epochs_match_clone_probe(log.events(), &config) > 10);
}

#[test]
fn panes_match_clone_probe_with_stragglers_inside_the_reorder_slack() {
    // Frames arrive up to 300 ms out of order and the sequencer holds
    // them back as long: their records and hops land in panes a boundary
    // has already folded.
    let (log, base) = tree_log(3, 42, 40);
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 30_000_000,
        reorder_slack_us: 300_000,
        ..base
    };
    let chaos = ChannelChaos {
        reorder_jitter_us: 300_000,
        ..ChannelChaos::corruption(0.0, 7)
    };
    let (wire, report) = chaos.mangle(&log);
    assert!(report.reordered > 0, "the capture arrives out of order");
    let mut stream = netsim::log::LogStream::from_wire_bytes(&wire).expect("magic intact");
    let events: Vec<ControlEvent> = stream.by_ref().flatten().collect();
    assert!(epochs_match_clone_probe(&events, &config) > 30);
}

#[test]
fn panes_fold_dd_pairs_through_a_service_node_per_group() {
    // Two applications share a service node: a1 -> s -> b1 is a chain of
    // the first and a2 -> s -> b2 of the second, while a1 -> s -> b2 and
    // a2 -> s -> b1 cross groups and count in neither — the DD each
    // group's own records build. For a while b1 also calls a2, which
    // makes the two one group: the crossing pairs count while that is in
    // the window, and not before or after.
    let ip = |x: u8| Ipv4Addr::new(10, 0, 0, x);
    let (a1, b1, a2, b2, s) = (ip(1), ip(2), ip(3), ip(4), ip(200));
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 5_000_000,
        ..FlowDiffConfig::default().with_special_ips([s])
    };
    let flow = |src, dst, sport: u16, at_ms: u64| FlowRecord {
        tuple: FlowTuple {
            src,
            sport,
            dst,
            dport: 80,
            proto: IpProto::TCP,
        },
        first_seen: Timestamp::from_millis(at_ms),
        hops: vec![],
        byte_count: 0,
        packet_count: 0,
        duration_s: 0.0,
    };
    let mut records = Vec::new();
    for i in 0..200u64 {
        let (t, sport) = (1_000 + i * 90, 1_000 + i as u16);
        records.push(flow(a1, b1, sport, t));
        records.push(flow(a2, b2, sport, t + 5));
        records.push(flow(a1, s, sport, t + 10));
        records.push(flow(a2, s, sport, t + 15));
        records.push(flow(s, b1, sport, t + 40 + i % 3 * 20));
        records.push(flow(s, b2, sport, t + 70));
        if (60..100).contains(&i) {
            records.push(flow(b1, a2, sport, t + 80));
        }
    }
    records.sort_by_key(|r| (r.first_seen, r.tuple));
    let mut builder = IncrementalModelBuilder::new(&config);
    // Fed and retired alike, never epoch-snapshotted: it holds every
    // completion in its inbox, not in a maintained window.
    let mut oracle = IncrementalModelBuilder::new(&config);
    let (mut next, mut late) = (0, Vec::<FlowRecord>::new());
    let (mut crossed, mut bridged, mut split_again) = (false, false, false);
    for secs in 2..=20 {
        let boundary = Timestamp::from_secs(secs);
        // Every seventh record completes one boundary late, into a pane
        // the previous boundary folded.
        for record in late.drain(..) {
            oracle.observe_record(record.clone());
            builder.observe_record(record);
        }
        while next < records.len() && records[next].first_seen < boundary {
            let record = records[next].clone();
            if next % 7 == 0 {
                late.push(record);
            } else {
                oracle.observe_record(record.clone());
                builder.observe_record(record);
            }
            next += 1;
        }
        let start = Timestamp::from_micros(
            boundary.as_micros() - config.online_window_us.min(boundary.as_micros()),
        );
        builder.retire_before(start);
        oracle.retire_before(start);
        let mut probe = oracle.clone();
        probe.set_span((start, boundary));
        let expected = probe.into_snapshot();
        let model = builder.epoch_snapshot((start, boundary), Vec::<FlowRecord>::new());
        assert_eq!(model, expected, "boundary {secs} s");
        assert_eq!(
            serde::to_vec(&model),
            serde::to_vec(&expected),
            "boundary {secs} s bytes"
        );
        for g in &model.groups {
            let feed: Vec<FlowRecord> = (g.group.record_indices.iter())
                .map(|&i| model.records.get(i).expect("a window record"))
                .collect();
            let il = InternedLog::of(&feed);
            let refs = il.refs();
            let inputs = SignatureInputs::new(&refs, &il.catalog, model.span, &config);
            assert_eq!(
                g.delay,
                DelayDistribution::build(&inputs),
                "boundary {secs} s"
            );
            crossed |= (g.delay.per_pair.keys()).any(|(i, o)| i.dst == s && o.src == s);
            let across = (g.delay.per_pair.keys()).any(|(i, o)| i.src == a1 && o.dst == b2);
            bridged |= across;
            split_again |= bridged && model.groups.len() == 2;
        }
    }
    assert!(crossed, "a group paired flows through the service node");
    assert!(bridged, "a1 -> s -> b2 counted while one group held both");
    assert!(split_again, "the groups split again once the bridge left");
}

// ---------------------------------------------------------------------
// Checkpoint bytes: a completion waits in the model builder's inbox until
// the next boundary folds it into the window, and a checkpoint does not
// record which of the two holds it.
// ---------------------------------------------------------------------

/// The run `tests/data/fdiffckp_v11_inbox.bin` checkpoints: one mesh on
/// the 320-server tree (seed 42, 40 s) at 1 s epochs over a 30 s window,
/// against an empty baseline. The 12 s eviction horizon evicts episodes
/// the window still holds.
fn inbox_run() -> (ControllerLog, FlowDiffConfig, Arc<BaselineBundle>) {
    let (log, base) = tree_log(1, 42, 40);
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 30_000_000,
        partial_flow_timeout_us: 12_000_000,
        ..base
    };
    let reference = BehaviorModel::build(&ControllerLog::new(), &config);
    let stability = StabilityReport::all_stable(&reference);
    let baseline = Arc::new(BaselineBundle {
        model: reference,
        stability,
    });
    (log, config, baseline)
}

/// How many events of [`inbox_run`] the fixture's differ had consumed.
const INBOX_CUT: usize = 3_809;

/// `tests/data/fdiffckp_v11_inbox.bin` is
/// `Checkpoint::capture(&differ, 3_809, &config).to_bytes()` of an
/// [`OnlineDiffer`] fed the first 3,809 events of [`inbox_run`], written
/// by the builder that kept a keyed record map beside its window (commit
/// e16e963). That differ had run 34 boundaries and was mid-epoch, with a
/// 12 s eviction burst just completed. This build writes version 13,
/// whose reorder buffer holds `FlowEvent`s (at slack 0 it is empty) and
/// whose config has no restart fields, so replayed here the same prefix
/// must capture the same bytes but the version field and the config
/// fingerprint that opens the payload. Resuming from those bytes must
/// emit what the straight run emits, and the v11 file itself is
/// refused.
#[test]
fn checkpoint_bytes_do_not_depend_on_where_a_completion_is_held() {
    let (log, config, baseline) = inbox_run();
    let events = log.events();
    let v11: &[u8] = include_bytes!("data/fdiffckp_v11_inbox.bin");
    let mut straight = OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
    // A second sequencer and assembler replay where the differ holds each
    // completion: one drained at a boundary is in the window until it is
    // retired, a later one in the inbox.
    let mut replay = Ingest::new(&config);
    let (mut window, mut inbox) = (Vec::<FlowRecord>::new(), Vec::<FlowRecord>::new());
    let mut start: Option<Timestamp> = None;
    let mut resumed: Option<OnlineDiffer> = None;
    let mut epochs = 0;
    for (i, event) in events.iter().enumerate() {
        if i == INBOX_CUT {
            let start = start.expect("a boundary before the cut");
            let next_start = Timestamp::from_micros(start.as_micros() + config.online_epoch_us);
            assert!(!window.is_empty(), "a completion is in the window");
            assert!(
                inbox.iter().any(|r| r.first_seen >= next_start),
                "an in-window completion is in the inbox"
            );
            let bytes = Checkpoint::capture(&straight, INBOX_CUT as u64, &config).to_bytes();
            let mut payload = v11[24..].to_vec();
            let fingerprint = config_fingerprint(&config).to_le_bytes();
            assert_ne!(
                payload[..8],
                fingerprint,
                "the v11 config had restart fields"
            );
            payload[..8].copy_from_slice(&fingerprint);
            assert!(
                bytes == seal(CHECKPOINT_MAGIC, 13, &payload),
                "length, CRC or payload differ from the v11 file's"
            );
            assert!(matches!(
                Checkpoint::from_bytes(v11),
                Err(PersistError::UnsupportedVersion { found: 11, .. })
            ));
            let (differ, at) = Checkpoint::from_bytes(&bytes)
                .expect("container intact")
                .resume(&baseline, &config)
                .expect("same config and baseline");
            assert_eq!(at as usize, INBOX_CUT);
            resumed = Some(differ);
        }
        let snaps = straight.observe(event);
        if let Some(resumed) = &mut resumed {
            assert_eq!(resumed.observe(event), snaps, "event {i}");
            epochs += snaps.len();
            continue;
        }
        for snap in &snaps {
            window.append(&mut inbox);
            window.retain(|r| r.first_seen >= snap.window.0);
            start = Some(snap.window.0);
        }
        replay.observe(event);
        inbox.extend(replay.asm.take_completed());
    }
    assert!(epochs > 3, "{epochs} epochs after the cut");
    let (want, got) = (straight.finish(), resumed.expect("cut reached").finish());
    assert_eq!(got, want, "final flush");
    assert_eq!(
        got.map(|s| serde::to_vec(&s)),
        want.map(|s| serde::to_vec(&s))
    );
}

/// A checkpoint captured while the sequencer holds events back carries
/// them: over the reordered capture of
/// `panes_match_clone_probe_with_stragglers_inside_the_reorder_slack`
/// at 300 ms of slack, a differ resumed from bytes captured at a cut
/// with a non-empty reorder buffer emits the straight run's snapshots
/// byte for byte.
#[test]
fn checkpoints_captured_with_events_held_for_reordering_resume_byte_identically() {
    let (log, base) = tree_log(3, 42, 40);
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 30_000_000,
        reorder_slack_us: 300_000,
        ..base
    };
    let chaos = ChannelChaos {
        reorder_jitter_us: 300_000,
        ..ChannelChaos::corruption(0.0, 7)
    };
    let (wire, _) = chaos.mangle(&log);
    let mut stream = netsim::log::LogStream::from_wire_bytes(&wire).expect("magic intact");
    let events: Vec<FlowEvent> = stream.by_ref().flatten().map(|e| (&e).into()).collect();
    let reference = BehaviorModel::build(&ControllerLog::new(), &config);
    let stability = StabilityReport::all_stable(&reference);
    let baseline = Arc::new(BaselineBundle {
        model: reference,
        stability,
    });

    // The straight run, with a checkpoint at the first event past each
    // fifth of the stream that leaves the reorder buffer non-empty; a
    // shadow sequencer tells how many events the differ's holds.
    let mut straight = OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
    let mut shadow = Sequencer::new(&config);
    let mut snaps: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut checkpoints: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if shadow.admit(event.ts) {
            shadow.release(event.clone(), |_| {});
        }
        snaps.extend(
            straight
                .observe(event)
                .iter()
                .map(|s| (i, serde::to_vec(s))),
        );
        let fifth = checkpoints.len() + 1;
        let held = shadow.clone().drain().count();
        if fifth < 5 && i + 1 >= events.len() * fifth / 5 && held > 0 {
            let bytes = Checkpoint::capture(&straight, i as u64 + 1, &config).to_bytes();
            checkpoints.push((i + 1, bytes));
        }
    }
    snaps.extend(
        straight
            .finish()
            .iter()
            .map(|s| (events.len(), serde::to_vec(s))),
    );
    assert_eq!(checkpoints.len(), 4, "a cut with events held in each fifth");
    assert!(snaps.len() > 30, "{} epochs", snaps.len());

    for (cut, bytes) in &checkpoints {
        let (mut resumed, at) = Checkpoint::from_bytes(bytes)
            .expect("container intact")
            .resume(&baseline, &config)
            .expect("same config and baseline");
        assert_eq!(at as usize, *cut);
        let mut got = Vec::new();
        for (i, event) in events.iter().enumerate().skip(*cut) {
            got.extend(resumed.observe(event).iter().map(|s| (i, serde::to_vec(s))));
        }
        got.extend(
            resumed
                .finish()
                .iter()
                .map(|s| (events.len(), serde::to_vec(s))),
        );
        let want: Vec<_> = snaps.iter().filter(|(i, _)| i >= cut).cloned().collect();
        assert!(!want.is_empty(), "cut {cut}: epochs after it");
        assert!(got == want, "cut {cut}: resumed snapshots differ");
    }
}
