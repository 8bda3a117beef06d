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

use flowdiff::prelude::*;
use flowdiff::records::HopReport;
use openflow::actions::{first_output, Action};
use openflow::frame;
use openflow::match_fields::{FlowKey, OfMatch};
use openflow::messages::{
    FlowMod, FlowRemoved, FlowRemovedReason, OfpMessage, PacketIn, PacketInReason,
};
use openflow::types::{BufferId, Cookie, DatapathId, PortNo, Timestamp, Xid};
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

/// A short capture on the 320-server tree (16 racks x 20 servers) with
/// disjoint three-tier application meshes — a scaled-down cut of the
/// Fig. 13b workload.
fn tree_log(n_apps: usize, seed: u64, secs: u64) -> (ControllerLog, FlowDiffConfig) {
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
    (sc.run().log, FlowDiffConfig::default())
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
            self.seq.release(ev, |ev, _| asm.observe(&ev));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every epoch snapshot the incremental [`OnlineDiffer`] emits is
    /// `PartialEq`-identical and serializes byte-identically to the
    /// historical clone-probe remodel (clone the builder, observe the
    /// open episodes, retire everything before the window, rebuild from
    /// scratch via the `snapshot` oracle) — across random
    /// interleaved streams, chaos-mangled wire bytes, and with a 4-shard
    /// [`ShardedDiffer`] held to the same snapshots.
    #[test]
    fn incremental_epochs_match_clone_probe_remodel(
        ref_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cur_seeds in prop::collection::vec(any::<u64>(), 1..6),
        chaos_seed in any::<u64>(),
        corruption in 0.0..0.08f64,
    ) {
        let config = FlowDiffConfig::default();
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

        let mut differ = OnlineDiffer::new(reference.clone(), stability.clone(), &config);
        let mut sharded = ShardedDiffer::new(reference, stability, &config, 4);
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
            probe.snapshot()
        };

        for event in &events {
            let snaps = differ.observe(event);
            let shard_snaps = sharded.observe(event);
            prop_assert_eq!(&shard_snaps, &snaps, "4-shard snapshots diverge");
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
        prop_assert_eq!(&sharded.finish(), &last, "4-shard final snapshot diverges");
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
    /// Sharded runs only: the shards that evicted, in-window, an open
    /// episode the coordinator's window held. Each such completion
    /// reaches the coordinator in its owner's barrier reply alone — the
    /// other shards never held the key — although every shard prunes at
    /// the same instant (the feed rule keeps them on one schedule).
    evicting_shards: std::collections::BTreeSet<usize>,
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
/// in mid-stream, and the builder's work counter must show the boundary
/// paid for the touched episodes only.
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
            let expected = probe.snapshot();
            assert_eq!(expected, snap.model, "epoch {} model", snap.epoch);
            assert_eq!(
                serde::to_vec(&expected),
                serde::to_vec(&snap.model),
                "epoch {} model bytes",
                snap.epoch
            );

            let window = snap.model.records.len();
            let synced = resumed.epoch_synced();
            if epochs == 0 || first_after_restore == Some(epochs) {
                assert_eq!(synced, window, "epoch {epochs} rebuilds the window");
            } else if epochs > 30 {
                assert!(
                    synced * 4 <= window,
                    "epoch {epochs}: synced {synced} of {window} window records"
                );
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

/// The same shape through the sharded differ, whose boundaries fold
/// barrier *deltas* into one maintained window: every epoch must be the
/// single differ's — `PartialEq` and bytes — and the rebuild-from-scratch
/// [`IncrementalModelBuilder::merge`] over full per-shard partials
/// (events and records partitioned the way a [`ShardRouter`] places
/// them). In lockstep: a mid-stream checkpoint → restore, then a
/// mid-stream `clone()` whose copy and original both carry on. A restored
/// or cloned differ holds no window, so its first boundary must resync
/// in full; every other steady-state boundary must have been paid for by
/// the deltas alone.
fn sharded_window_run(partial_flow_timeout_us: u64, n_shards: usize, slack_us: u64) -> Seen {
    let (log, base) = tree_log(4, 42, 75);
    let config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 30_000_000,
        partial_flow_timeout_us,
        reorder_slack_us: slack_us,
        ..base
    };
    let reference = BehaviorModel::build(&tree_log(4, 41, 20).0, &config);
    let stability = StabilityReport::all_stable(&reference);
    let events = log.events();
    let (restore_at, clone_at) = (events.len() * 3 / 5, events.len() * 4 / 5);

    let baseline = Arc::new(BaselineBundle {
        model: reference,
        stability,
    });
    let mut single = OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
    let mut sharded =
        ShardedDiffer::try_new(Arc::clone(&baseline), &config, n_shards).expect("config valid");
    let mut copy: Option<ShardedDiffer> = None;

    // The oracle: one sequenced assembler over the whole stream, its
    // records and the raw events dealt to per-shard builders by the
    // router's own placement. Never retired between epochs.
    let mut router = ShardRouter::new(&config, n_shards);
    let mut released = Vec::new();
    let mut owner: HashMap<Ipv4Addr, usize> = HashMap::new();
    let mut oracle_seq = Sequencer::new(&config);
    let mut oracle_asm = RecordAssembler::new(&config);
    let mut partials: Vec<IncrementalModelBuilder> = (0..n_shards)
        .map(|_| IncrementalModelBuilder::new(&config))
        .collect();

    let mut modeled = Modeled::new();
    let mut seen = Seen::default();
    let (mut epochs, mut restored_at_epoch, mut cloned_at_epoch) = (0usize, None, None);

    for (i, event) in events.iter().enumerate() {
        if i == restore_at {
            assert!(epochs > 30, "restore must land in steady state");
            let bytes = ShardedCheckpoint::capture(&sharded, i as u64, &config).to_bytes();
            let restored = Differ::restore(&bytes, &baseline, &config).expect("container intact");
            assert_eq!(restored.events_consumed as usize, i);
            let Differ::Sharded(restored) = restored.differ else {
                panic!("segmented bytes must restore the sharded shape");
            };
            assert_eq!(restored, sharded, "restored state == live state");
            sharded = restored;
            restored_at_epoch = Some(epochs);
        }
        if i == clone_at {
            // The copy carries the workers' touched tracking, which is
            // relative to a window only the original holds.
            copy = Some(sharded.clone());
            cloned_at_epoch = Some(epochs);
        }
        let snaps = single.observe(event);
        assert_eq!(sharded.observe(event), snaps, "diverged at event {i}");
        if let Some(copy) = &mut copy {
            assert_eq!(copy.observe(event), snaps, "clone diverged at event {i}");
        }
        for snap in &snaps {
            let opens = oracle_asm.open_records();
            let parts: Vec<ShardModel> = (partials.iter().enumerate())
                .map(|(shard, builder)| {
                    let mut part = builder.clone();
                    for open in opens.iter().filter(|r| owner[&r.tuple.src] == shard) {
                        part.observe_record(open.clone());
                    }
                    part.retire_before(snap.window.0);
                    part.into_shard_model()
                })
                .collect();
            let merged = IncrementalModelBuilder::merge(parts, Some(snap.window), &config, 1);
            assert_eq!(merged, snap.model, "epoch {} vs merge", snap.epoch);
            assert_eq!(
                serde::to_vec(&merged),
                serde::to_vec(&snap.model),
                "epoch {} model bytes vs merge",
                snap.epoch
            );

            // The work counters: a full resync interns the window, a
            // delta barrier only what the shards reported changed.
            let window = snap.model.records.len();
            let resynced = epochs == 0 || restored_at_epoch == Some(epochs);
            let synced = sharded.epoch_synced();
            if resynced {
                assert_eq!(synced, window, "epoch {epochs} resyncs in full");
            } else if epochs > 30 {
                assert!(
                    synced * 4 <= window,
                    "epoch {epochs}: synced {synced} of {window} window records"
                );
            }
            if let Some(copy) = &copy {
                let synced = copy.epoch_synced();
                if cloned_at_epoch == Some(epochs) {
                    assert_eq!(synced, window, "the clone's first epoch resyncs in full");
                } else {
                    assert!(
                        synced * 4 <= window,
                        "clone epoch {epochs}: {synced}/{window}"
                    );
                }
            }
            epochs += 1;

            seen.at_boundary(&mut modeled, opens, snap.window.0);
        }

        if let Some(admitted) = router.admit(event, &mut released) {
            partials[admitted.shard as usize].observe_event(event);
        }
        for routed in released.drain(..) {
            if let OfpMessage::PacketIn(pi) = &routed.event.msg {
                if let Ok(key) = frame::parse_frame(&pi.data) {
                    owner.insert(key.nw_src, routed.shard as usize);
                }
            }
        }
        oracle_seq.admit(event.ts);
        oracle_seq.release(event, |ev, _| oracle_asm.observe(&ev));
        let newest = oracle_seq.max_arrival();
        for record in oracle_asm.take_completed() {
            let shard = owner[&record.tuple.src];
            let in_window = record.first_seen.as_micros() + config.online_window_us
                > newest.as_micros() + config.online_epoch_us;
            if in_window && modeled.contains_key(&(record.first_seen, record.tuple)) {
                seen.evicted_in_window = true;
                seen.evicting_shards.insert(shard);
            }
            partials[shard].observe_record(record);
        }
    }
    assert!(epochs > cloned_at_epoch.expect("cloned mid-stream") + 5);
    let last = single.finish();
    assert_eq!(sharded.finish(), last);
    assert_eq!(copy.expect("cloned mid-stream").finish(), last);
    seen
}

#[test]
fn sharded_deltas_match_single_differ_and_merge_when_every_record_is_open() {
    for n_shards in [2, 3] {
        let seen = sharded_window_run(60_000_000, n_shards, 0);
        assert!(seen.flow_mod_patch, "a FlowMod patched a shipped open");
        assert!(seen.flow_removed, "a FlowRemoved landed on a shipped open");
        assert!(seen.slid_out_open, "a shipped open slid out of the window");
        assert!(!seen.evicted_in_window);
    }
}

#[test]
fn sharded_deltas_match_single_differ_and_merge_across_in_window_evictions() {
    for n_shards in [2, 3] {
        let seen = sharded_window_run(12_000_000, n_shards, 0);
        assert!(seen.flow_mod_patch && seen.flow_removed && seen.slid_out_open);
        assert!(
            seen.evicted_in_window,
            "a shipped open was evicted in-window"
        );
        assert_eq!(
            seen.evicting_shards.len(),
            n_shards,
            "every shard's reply carried a completion only it knew of"
        );
    }
}

#[test]
fn sharded_deltas_match_single_differ_through_the_reorder_buffer() {
    // Every event is held back 50 ms: an `Arrive` now, a `Release`
    // later, instead of the one-step admission of the runs above.
    let seen = sharded_window_run(12_000_000, 2, 50_000);
    assert!(seen.flow_mod_patch && seen.flow_removed && seen.evicted_in_window);
}

// ---------------------------------------------------------------------
// Sharding: the shard count must be unobservable. For any worker count,
// any interleaving, any wire damage, and any checkpoint cut, the
// partitioned pipeline's epoch snapshots are byte-identical to the
// single pipeline's.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte-identity of the persistent sharded pipeline (long-lived
    /// channel-fed workers) on chaos-mangled random streams, *through*
    /// a mid-stream kill persisted in the segmented checkpoint:
    /// shards in {1, 2, 4, 7} all reproduce the single-shard
    /// [`OnlineDiffer`]'s snapshots exactly. The kill also exercises
    /// the quiesce-then-capture path and the restore-then-respawn path
    /// (a restored differ lazily spawns a fresh worker pool).
    #[test]
    fn shard_count_is_unobservable_in_snapshots(
        ref_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cur_seeds in prop::collection::vec(any::<u64>(), 1..5),
        cut_ppm in 0u32..=1_000_000,
        chaos_seed in any::<u64>(),
        corruption in 0.0..0.08f64,
        jitter_us in 0u64..5_000,
    ) {
        let config = FlowDiffConfig {
            reorder_slack_us: jitter_us,
            ..FlowDiffConfig::default()
        };
        let ref_log = synth_log(&ref_seeds);
        let reference = BehaviorModel::build(&ref_log, &config);
        let stability = StabilityReport::all_stable(&reference);

        let chaos = ChannelChaos {
            reorder_jitter_us: jitter_us,
            ..ChannelChaos::corruption(corruption, chaos_seed)
        };
        let (wire, _) = chaos.mangle(&with_distinct_timestamps(&synth_log(&cur_seeds)));
        let mut stream = netsim::log::LogStream::from_wire_bytes(&wire).expect("magic intact");
        let events: Vec<ControlEvent> =
            stream.by_ref().flatten().collect();
        if events.is_empty() {
            return Ok(());
        }
        let cut = (events.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;

        // Uninterrupted single-shard reference run.
        let baseline = Arc::new(BaselineBundle { model: reference, stability });
        let mut single =
            OnlineDiffer::try_new(Arc::clone(&baseline), &config).expect("config valid");
        let mut single_snaps = Vec::new();
        for event in &events {
            single_snaps.extend(single.observe(event));
        }
        let single_health = single.health();
        single_snaps.extend(single.finish());

        for n_shards in [1usize, 2, 4, 7] {
            let mut sharded = ShardedDiffer::try_new(Arc::clone(&baseline), &config, n_shards)
                .expect("config valid");
            let mut snaps = Vec::new();
            for event in &events[..cut] {
                snaps.extend(sharded.observe(event));
            }
            // Kill mid-stream: state survives only as the segmented
            // container, restored through the version dispatcher.
            let bytes = ShardedCheckpoint::capture(&sharded, cut as u64, &config).to_bytes();
            drop(sharded);
            let restored = Differ::restore(&bytes, &baseline, &config).expect("container intact");
            prop_assert!(restored.salvaged_shards.is_empty());
            prop_assert_eq!(restored.events_consumed as usize, cut);
            let Differ::Sharded(mut sharded) = restored.differ else {
                panic!("segmented bytes must restore the sharded shape");
            };
            for event in &events[cut..] {
                snaps.extend(sharded.observe(event));
            }
            prop_assert_eq!(sharded.health(), single_health, "{} shards: health", n_shards);
            snaps.extend(sharded.finish());
            prop_assert_eq!(
                snaps.len(),
                single_snaps.len(),
                "{} shards: epoch count", n_shards
            );
            for (a, b) in snaps.iter().zip(&single_snaps) {
                prop_assert_eq!(a, b, "{} shards: snapshot equality", n_shards);
                prop_assert_eq!(
                    serde::to_vec(a),
                    serde::to_vec(b),
                    "{} shards: snapshot bytes", n_shards
                );
            }
        }
    }
}
