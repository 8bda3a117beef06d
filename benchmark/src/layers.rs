//! The traced runs: each workload's job rebuilt in-process from the
//! layers' public functions, with a span around every call. The
//! per-layer metrics are read off those spans.

use std::collections::BTreeMap;
use std::time::Instant;

use flowdiff::prelude::*;
use netsim::log::{encode_event, ControlEvent, FrameDecoder, CAPTURE_MAGIC};
use netsim::net::{publish_session, IngestServer, LiveOptions, SessionOptions};
use openflow::types::Timestamp;

use crate::inputs::{Inputs, ServeShape};
use crate::run::{batch_job, diff_crc, line_of, reference, Expected, ServeRep};
use crate::stats::p50_and_tail;
use crate::trace::Tracer;

/// Chunk size of the connection reader threads in `netsim::net`.
const READ_CHUNK: usize = 16 * 1024;

type Values = BTreeMap<&'static str, f64>;

/// One traced pass: per-layer values and whether every cross-check held.
pub struct Pass {
    pub values: Values,
    pub ok: bool,
}

fn per(busy_ns: u64, count: u64) -> f64 {
    busy_ns as f64 / count.max(1) as f64
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process under test seen from outside: CPU time and peak memory
/// of one untraced repetition (a `serve` child or a batch child).
pub fn outside_view(values: &mut Values, cpu_s: f64, wall_s: f64, peak_rss_kb: u64, events: u64) {
    values.insert("serve.cpu_s", cpu_s);
    values.insert("serve.cpu_share", cpu_s / wall_s / nproc() as f64);
    values.insert(
        "serve.rss_bytes_per_event",
        peak_rss_kb as f64 * 1024.0 / events as f64,
    );
}

/// What only a `serve` repetition has: its drain, its latency tail and
/// how the publisher did.
pub fn loadgen_view(values: &mut Values, rep: &ServeRep) {
    values.insert("serve.drain_ms", rep.drain_ms);
    if !rep.latencies_ms.is_empty() {
        let (_, p90) = p50_and_tail(&mut rep.latencies_ms.clone());
        values.insert("serve.epoch_latency_p90_ms", p90);
    }
    values.insert(
        "loadgen.offered_events_per_s",
        rep.events as f64 / rep.send_s,
    );
    if !rep.late_us.is_empty() {
        let mut late = rep.late_us.clone();
        let (_, p90) = p50_and_tail(&mut late);
        values.insert("loadgen.late_p90_ms", p90 / 1e3);
        values.insert("loadgen.late_max_ms", late[late.len() - 1] / 1e3);
    }
}

/// Where the online differ snapshots: `(event index, epoch, boundary)`
/// for every boundary the event stream crosses, from the epoch grid
/// alone (no quarantine: the workloads' captures are clean).
pub fn boundaries(
    events: &[ControlEvent],
    config: &FlowDiffConfig,
) -> Vec<(usize, u64, Timestamp)> {
    let mut clock = EpochClock::new(config.online_epoch_us, config.online_window_us);
    let mut out = Vec::new();
    for (i, event) in events.iter().enumerate() {
        out.extend(clock.advance(event.ts).into_iter().map(|(e, b)| (i, e, b)));
    }
    out
}

/// The serve workloads' job, layer by layer.
pub fn traced_serve_pass(
    inputs: &Inputs,
    shape: &ServeShape,
    expected: &Expected,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = ServePass {
        baseline: inputs.baseline.as_ref().expect("serve set-up builds it"),
        events: inputs.l2.events(),
        config: shape.config(&inputs.config),
        shape,
        expected,
        tracer,
        v: Values::new(),
        ok: true,
    };
    // Batch layers ran during set-up (the baseline build).
    pass.v
        .insert("model.build.ms", inputs.times.build.as_secs_f64() * 1e3);
    pass.v.insert(
        "stability.analyze.ms",
        inputs.times.analyze.as_secs_f64() * 1e3,
    );
    pass.log();
    pass.net(inputs)?;
    pass.admit();
    let cuts = boundaries(pass.events, &pass.config);
    pass.ok &= cuts
        .iter()
        .map(|c| c.0)
        .eq(expected.triggers.iter().copied());
    let assembled = pass.assemble(&cuts);
    pass.model(&cuts, assembled);
    pass.online();
    if shape.shards > 1 {
        pass.sharded();
    }
    Ok(Pass {
        values: pass.v,
        ok: pass.ok,
    })
}

struct ServePass<'a> {
    baseline: &'a (BehaviorModel, StabilityReport),
    events: &'a [ControlEvent],
    config: FlowDiffConfig,
    shape: &'a ServeShape,
    expected: &'a Expected,
    tracer: &'a mut Tracer,
    v: Values,
    ok: bool,
}

/// What the isolated assembler pass hands the isolated model pass.
struct Assembled {
    /// `(index of the event that completed it, record)`, in order.
    completed: Vec<(usize, FlowRecord)>,
    /// The in-window in-flight episodes at each boundary.
    opens: Vec<Vec<FlowRecord>>,
}

impl ServePass<'_> {
    fn n(&self) -> u64 {
        self.events.len() as u64
    }

    fn window_start(&self, boundary: Timestamp) -> Timestamp {
        Timestamp::from_micros(
            boundary
                .as_micros()
                .saturating_sub(self.config.online_window_us),
        )
    }

    /// `events[from..to]` for each stretch between boundaries, with the
    /// boundary (if any) that ends it and the epoch the stretch feeds.
    fn stretches<'c>(
        &self,
        cuts: &'c [(usize, u64, Timestamp)],
    ) -> impl Iterator<Item = (usize, usize, u64, Option<&'c (usize, u64, Timestamp)>)> + 'c {
        let final_epoch = cuts.last().map_or(0, |c| c.1 + 1);
        let ends = cuts.iter().map(|c| c.0).chain([self.events.len()]);
        let starts = [0].into_iter().chain(cuts.iter().map(|c| c.0));
        starts.zip(ends).enumerate().map(move |(k, (from, to))| {
            let cut = cuts.get(k);
            (from, to, cut.map_or(final_epoch, |c| c.1), cut)
        })
    }

    /// `log`: encode, then decode in reader-sized chunks.
    fn log(&mut self) {
        let (events, n) = (self.events, self.n());
        let mut wire = Vec::with_capacity(128 * events.len() + 8);
        wire.extend_from_slice(CAPTURE_MAGIC);
        self.tracer.call("log.encode", None, None, || {
            for event in events {
                encode_event(event, &mut wire);
            }
        });
        let mut decoder = FrameDecoder::new();
        let mut decoded = 0u64;
        self.tracer.call("log.decode", None, None, || {
            let mut items = Vec::new();
            for chunk in wire.chunks(READ_CHUNK) {
                decoder.push(chunk, &mut items);
                decoded += items.drain(..).filter(|item| item.is_ok()).count() as u64;
            }
            decoder.finish(&mut items);
            decoded += items.drain(..).filter(|item| item.is_ok()).count() as u64;
        });
        self.ok &= decoded == n;
        let busy = |name| self.tracer.total(name).0;
        self.v
            .insert("log.encode.ns_per_event", per(busy("log.encode"), n));
        self.v
            .insert("log.decode.ns_per_event", per(busy("log.decode"), n));
        self.v
            .insert("log.decode.bytes_per_event", wire.len() as f64 / n as f64);
        self.v.insert(
            "log.decode.skipped_frames",
            decoder.stats().frames_skipped as f64,
        );
    }

    /// `net`: the socket path with a counter where the differ would be.
    fn net(&mut self, inputs: &Inputs) -> Result<(), String> {
        let (span_name, metric) = match self.shape.conns {
            1 => ("net.ingest", "net.ingest.events_per_s"),
            _ => ("net.fanin", "net.fanin.events_per_s"),
        };
        let server = IngestServer::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let options = LiveOptions {
            stall_timeout_us: self.config.ingest_stall_timeout_us,
            heartbeat_us: self.config.ingest_heartbeat_us,
        };
        let mut live = server
            .live(self.shape.conns, self.config.ingest_queue_events, options)
            .map_err(|e| e.to_string())?;
        let merge = live.take_merge();
        let span = self.tracer.enter(span_name, None, None);
        let merged = std::thread::scope(|scope| {
            for (i, stream) in inputs.streams.iter().enumerate() {
                let options = SessionOptions {
                    session: i as u64 + 1,
                    ..SessionOptions::default()
                };
                scope.spawn(move || publish_session(addr, &stream.log, &options));
            }
            merge.count() as u64
        });
        let net_ns = self.tracer.exit(span);
        let reports = live.finish();
        self.ok &= merged == self.n();
        self.v
            .insert(metric, self.n() as f64 / (net_ns as f64 / 1e9));
        let total = |f: fn(&netsim::net::ConnReport) -> u64| reports.iter().map(f).sum::<u64>();
        self.v.insert("net.conn.stalls", total(|r| r.stalls) as f64);
        self.v
            .insert("net.conn.resumes", total(|r| r.resumes) as f64);
        Ok(())
    }

    /// `records.admit`: the router in front of the shard workers.
    fn admit(&mut self) {
        let (span_name, metric) = match self.shape.shards {
            1 => ("records.admit", "records.admit.ns_per_event"),
            _ => (
                "records.admit.shards2",
                "records.admit.shards2.ns_per_event",
            ),
        };
        let mut router = ShardRouter::new(&self.config, self.shape.shards);
        let events = self.events;
        self.tracer.call(span_name, None, None, || {
            let mut released = Vec::new();
            for event in events {
                router.admit(event, &mut released);
                released.clear();
            }
        });
        self.v
            .insert(metric, per(self.tracer.total(span_name).0, self.n()));
    }

    /// `records.assemble`, isolated: one aggregate span per epoch.
    fn assemble(&mut self, cuts: &[(usize, u64, Timestamp)]) -> Assembled {
        let mut assembler = RecordAssembler::new(&self.config);
        let mut out = Assembled {
            completed: Vec::new(),
            opens: Vec::with_capacity(cuts.len()),
        };
        let mut open_peak = 0usize;
        for (from, to, epoch, cut) in self.stretches(cuts) {
            let start_ns = self.tracer.now_ns();
            for (i, event) in self.events[from..to].iter().enumerate() {
                assembler.observe(event);
                let done = assembler.take_completed().into_iter();
                out.completed.extend(done.map(|r| (from + i, r)));
            }
            let end_ns = self.tracer.now_ns();
            self.tracer.aggregate(
                "records.assemble",
                Some(epoch),
                (start_ns, end_ns),
                (to - from) as u64,
            );
            // `open_len` walks every tuple: sampled per boundary, untimed.
            open_peak = open_peak.max(assembler.open_len());
            if let Some(&(_, epoch, boundary)) = cut {
                let start = self.window_start(boundary);
                let open = self
                    .tracer
                    .call("records.open_records", None, Some(epoch), || {
                        let mut open = assembler.open_records();
                        open.retain(|r| r.first_seen >= start);
                        open
                    });
                out.opens.push(open);
            }
        }
        let busy = self.tracer.total("records.assemble").0;
        self.v
            .insert("records.assemble.ns_per_event", per(busy, self.n()));
        self.v
            .insert("records.assemble.records_out", out.completed.len() as f64);
        self.v
            .insert("records.assemble.open_peak", open_peak as f64);
        out
    }

    /// `model`, `diff.compare`, `diagnosis`, isolated: the builder fed
    /// what the assembler produced, one root span per boundary.
    fn model(&mut self, cuts: &[(usize, u64, Timestamp)], assembled: Assembled) {
        let both = self.baseline;
        let (baseline, stability) = (&both.0, &both.1);
        let mut builder = IncrementalModelBuilder::new(&self.config);
        let mut completed = assembled.completed.into_iter().peekable();
        let mut opens = assembled.opens.into_iter();
        let (mut groups, mut window_records) = (0usize, 0usize);
        for (k, (from, to, epoch, cut)) in self.stretches(cuts).enumerate() {
            let start_ns = self.tracer.now_ns();
            for (i, event) in self.events[from..to].iter().enumerate() {
                builder.observe_event(event);
                while let Some((_, record)) = completed.next_if(|(at, _)| *at == from + i) {
                    builder.observe_record(record);
                }
            }
            let end_ns = self.tracer.now_ns();
            self.tracer.aggregate(
                "model.observe",
                Some(epoch),
                (start_ns, end_ns),
                (to - from) as u64,
            );
            let Some(&(_, epoch, boundary)) = cut else {
                continue;
            };
            let start = self.window_start(boundary);
            let open = opens.next().expect("one per boundary");
            let (tracer, config) = (&mut *self.tracer, &self.config);
            let root = tracer.enter("epoch", None, Some(epoch));
            let child = (Some(root), Some(epoch));
            tracer.call("model.retire", child.0, child.1, || {
                builder.retire_before(start)
            });
            let model = tracer.call("model.snapshot", child.0, child.1, || {
                builder.epoch_snapshot((start, boundary), open)
            });
            let diff = tracer.call("diff.compare", child.0, child.1, || {
                compare(baseline, &model, stability, config)
            });
            tracer.call("diagnosis.diagnose", child.0, child.1, || {
                std::hint::black_box(diagnose(&diff, &model, &[], config));
            });
            tracer.exit(root);
            let want = self.expected.lines.get(k);
            self.ok &= want.is_some_and(|l| l.flows == model.records.len());
            groups += model.groups.len();
            window_records += model.records.len();
        }
        let (n, epochs) = (self.n(), cuts.len() as u64);
        let busy = |name| self.tracer.total(name).0;
        let v = &mut self.v;
        v.insert("model.observe.ns_per_event", per(busy("model.observe"), n));
        v.insert(
            "model.retire.us_per_epoch",
            per(busy("model.retire"), epochs) / 1e3,
        );
        v.insert(
            "model.snapshot.ms_per_epoch",
            per(busy("model.snapshot"), epochs) / 1e6,
        );
        v.insert("model.snapshot.groups", per(groups as u64, epochs));
        v.insert(
            "model.snapshot.window_records",
            per(window_records as u64, epochs),
        );
        v.insert(
            "diff.compare.ms_per_epoch",
            per(busy("diff.compare"), epochs) / 1e6,
        );
        v.insert(
            "diagnosis.diagnose.us_per_epoch",
            per(busy("diagnosis.diagnose"), epochs) / 1e3,
        );
    }

    /// `diff.online`: the real differ, untraced and then with every
    /// call timed. The two run back to back, on a heap the passes above
    /// have already warmed, so their difference is the tracing overhead.
    fn online(&mut self) {
        let (events, config, n) = (self.events, &self.config, self.n());
        let untraced = reference(events, self.baseline, config);
        self.ok &= untraced.lines == self.expected.lines;

        let (baseline, stability) = self.baseline.clone();
        let mut differ = OnlineDiffer::new(baseline, stability, config);
        let triggers = &self.expected.triggers;
        let mid = triggers.get(triggers.len() / 2).copied();
        let (mut event_ns, mut event_calls) = (0u64, 0u64);
        let mut boundary_ms = Vec::new();
        let mut timings = EpochTimings::default();
        let mut lines = Vec::new();
        let mut excluded_ns = 0u64;
        let wall = Instant::now();
        for (i, event) in events.iter().enumerate() {
            let start_ns = self.tracer.now_ns();
            let snapshots = differ.observe(event);
            let end_ns = self.tracer.now_ns();
            let Some(last) = snapshots.last() else {
                event_ns += end_ns - start_ns;
                event_calls += 1;
                continue;
            };
            boundary_ms.push((end_ns - start_ns) as f64 / 1e6);
            timings.add(differ.take_timings());
            self.tracer.aggregate(
                "diff.online.boundary",
                Some(last.epoch),
                (start_ns, end_ns),
                snapshots.len() as u64,
            );
            if mid == Some(i) {
                // Mid-run state is the representative one. None of this
                // is part of the workload, so it stays out of the wall.
                self.v
                    .insert("model.bytes", last.model.approx_bytes() as f64);
                let bytes = self
                    .tracer
                    .call("checkpoint.capture", None, Some(last.epoch), || {
                        Checkpoint::capture(&differ, i as u64, config).to_bytes()
                    });
                self.v.insert("checkpoint.bytes", bytes.len() as f64);
                if self.shape.shards > 1 {
                    let parts = split_in_two(&last.model, config);
                    self.tracer.call("model.merge", None, Some(last.epoch), || {
                        std::hint::black_box(IncrementalModelBuilder::merge(
                            parts,
                            Some(last.window),
                            config,
                            nproc(),
                        ));
                    });
                }
                excluded_ns += self.tracer.now_ns() - end_ns;
            }
            lines.extend(snapshots.iter().map(line_of));
        }
        lines.extend(differ.finish().as_ref().map(line_of));
        let traced_s = wall.elapsed().as_secs_f64() - excluded_ns as f64 / 1e9;
        self.ok &= lines == self.expected.lines;

        let untraced_s = untraced.wall.as_secs_f64();
        let epochs = boundary_ms.len() as u64;
        let busy_ms = |name| self.tracer.total(name).0 as f64 / 1e6;
        let v = &mut self.v;
        v.insert("checkpoint.capture.ms", busy_ms("checkpoint.capture"));
        v.insert("model.merge.ms_per_epoch", busy_ms("model.merge"));
        v.insert("diff.online.event_ns", per(event_ns, event_calls));
        if !boundary_ms.is_empty() {
            let (p50, p90) = p50_and_tail(&mut boundary_ms);
            v.insert("diff.online.boundary_ms_p50", p50);
            v.insert("diff.online.boundary_ms_p90", p90);
        }
        v.insert("diff.online.retire_us", per(timings.retire_us, epochs));
        v.insert("diff.online.observe_us", per(timings.observe_us, epochs));
        v.insert("diff.online.snapshot_us", per(timings.snapshot_us, epochs));
        v.insert("diff.online.diff_us", per(timings.diff_us, epochs));
        v.insert("diff.online.events_per_s", n as f64 / untraced_s);
        v.insert(
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
        let isolated = v["records.assemble.ns_per_event"] + v["model.observe.ns_per_event"];
        let online = v["diff.online.event_ns"];
        v.insert(
            "ledger.unattributed_pct",
            100.0 * (online - isolated) / online,
        );
    }

    /// `diff.sharded`: the same job through the persistent shard
    /// pipeline; its output must be the single-threaded differ's.
    fn sharded(&mut self) {
        let (baseline, stability) = self.baseline.clone();
        let mut sharded = ShardedDiffer::new(baseline, stability, &self.config, self.shape.shards);
        let mut timings = EpochTimings::default();
        let (mut busy_pct, mut epochs) = (0u64, 0u64);
        let mut lines = Vec::new();
        let span = self.tracer.enter("diff.sharded", None, None);
        for event in self.events {
            for snapshot in sharded.observe(event) {
                let t = sharded.take_timings();
                busy_pct += t.worker_busy_pct;
                epochs += 1;
                timings.add(t);
                lines.push(line_of(&snapshot));
            }
        }
        let stats = sharded.shard_stats();
        lines.extend(sharded.finish().as_ref().map(line_of));
        let sharded_ns = self.tracer.exit(span);
        self.ok &= lines == self.expected.lines;
        // A shard's load is what it holds: completed records plus the
        // in-flight episodes its assembler still tracks.
        let held: Vec<f64> = stats
            .iter()
            .map(|s| (s.records + s.open_episodes) as f64)
            .collect();
        let mean_held = held.iter().sum::<f64>() / held.len() as f64;
        let n = self.n();
        let v = &mut self.v;
        v.insert(
            "diff.sharded.events_per_s",
            n as f64 / (sharded_ns as f64 / 1e9),
        );
        v.insert("diff.sharded.flush_us", per(timings.observe_us, epochs));
        v.insert("diff.sharded.barrier_us", per(timings.snapshot_us, epochs));
        v.insert("diff.sharded.merge_us", per(timings.merge_us, epochs));
        v.insert(
            "diff.sharded.queue_depth_peak",
            timings.queue_depth_peak as f64,
        );
        v.insert("diff.sharded.worker_busy_pct", per(busy_pct, epochs));
        v.insert(
            "diff.sharded.record_skew",
            held.iter().copied().fold(0.0, f64::max) / mean_held.max(1.0),
        );
    }
}

/// Two disjoint shard partials covering `model`'s records, for timing
/// the shard merge on a realistic window.
fn split_in_two(model: &BehaviorModel, config: &FlowDiffConfig) -> Vec<ShardModel> {
    let mut halves = [
        IncrementalModelBuilder::new(config),
        IncrementalModelBuilder::new(config),
    ];
    for (i, record) in model.records.iter().enumerate() {
        halves[i % 2].observe_record(record.clone());
    }
    halves.into_iter().map(|b| b.into_shard_model()).collect()
}

/// The `compare_batch` job with spans, plus the untraced in-process
/// job the tracing overhead is measured against.
pub fn traced_batch_pass(
    inputs: &Inputs,
    want_crc: u32,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let read =
        |p: &std::path::PathBuf| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let (l1_bytes, l2_bytes) = (read(&inputs.fcap_paths[0])?, read(&inputs.fcap_paths[1])?);
    let config = &inputs.config;
    let t = Instant::now();
    batch_job(&l1_bytes, &l2_bytes, config, None)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (diff, model_bytes, events) = batch_job(&l1_bytes, &l2_bytes, config, Some(tracer))?;
    let traced_s = t.elapsed().as_secs_f64();
    // `extract_records` runs inside `BehaviorModel::build`; timed on its
    // own here so the batch record path has a number.
    tracer.call("records.extract", None, None, || {
        std::hint::black_box(extract_records(&inputs.l2, config));
    });
    let ms = |name: &str| tracer.total(name).0 as f64 / 1e6;
    let values = Values::from([
        (
            "log.stream.ns_per_event",
            per(tracer.total("log.stream").0, events as u64),
        ),
        ("records.extract.ms", ms("records.extract")),
        ("model.build.ms", ms("model.build")),
        ("stability.analyze.ms", ms("stability.analyze")),
        ("model.bytes", model_bytes as f64),
        ("diff.compare.ms_per_epoch", ms("diff.compare")),
        (
            "diagnosis.diagnose.us_per_epoch",
            ms("diagnosis.diagnose") * 1e3,
        ),
        (
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        ),
    ]);
    Ok(Pass {
        values,
        ok: diff_crc(&diff) == want_crc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdiff_bench::tree_capture;

    #[test]
    fn epoch_clock_boundaries_are_where_the_online_differ_snapshots() {
        let (l1, base) = tree_capture(2, 11, 6);
        let (l2, _) = tree_capture(2, 12, 14);
        let shape = ServeShape::of(crate::spec::SERVE_PACED).expect("a serve workload");
        let config = shape.config(&base);
        let model = BehaviorModel::build(&l1, &config);
        let stability = StabilityReport::all_stable(&model);
        let expected = reference(l2.events(), &(model, stability), &config);
        let cuts = boundaries(l2.events(), &config);
        assert!(cuts.len() >= 10, "a 14 s capture crosses 1 s epochs");
        assert_eq!(
            cuts.iter().map(|c| c.0).collect::<Vec<_>>(),
            expected.triggers
        );
        assert_eq!(
            cuts.iter().map(|c| c.1).collect::<Vec<_>>(),
            expected.lines[..cuts.len()]
                .iter()
                .map(|l| l.epoch)
                .collect::<Vec<_>>()
        );
        // `finish()` adds exactly one line after the in-stream ones.
        assert_eq!(expected.lines.len(), cuts.len() + 1);
    }
}
