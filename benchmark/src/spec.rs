//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository root
//! is `manifest()` written to a file, and a unit test keeps them equal.

/// One named workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SERVE_DENSE: &str = "serve_dense";
pub const SERVE_PACED: &str = "serve_paced";
pub const FANIN_SHARDED: &str = "fanin_sharded";
pub const COMPARE_BATCH: &str = "compare_batch";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: SERVE_DENSE,
        why: "closed loop, 1 connection, 1 shard, 40 s epochs: the per-event path (net, log.decode, records, model.observe) does most of the work, boundaries little",
    },
    Workload {
        name: SERVE_PACED,
        why: "open loop at 20x capture speed, 1 s epochs over a 30 s window: boundary work (model.snapshot, diff.compare, diagnosis) sets the latency, per-event path is idle most of the time",
    },
    Workload {
        name: FANIN_SHARDED,
        why: "closed loop, 2 session connections into 2 shards at the default 5 s / 30 s epochs: EventMerge, ShardRouter fan-out, barriers and the shard merge only run here",
    },
    Workload {
        name: COMPARE_BATCH,
        why: "offline compare of two .fcap captures in a fresh process, no sockets: LogStream, extract_records and the batch builders only, so online-path changes predict no movement",
    },
];

/// One metric. `bound` is `Some` for end-to-end metrics only.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    /// End-to-end: what it measures. Per-layer: the end-to-end metric and
    /// workload it should move ("-" = none of the four).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

#[rustfmt::skip]
pub const END_TO_END: [Metric; 4] = [
    e2e("events_per_s", "events/s", "higher", 0.25,
        "events sent / (first payload byte written -> last stdout line of serve); compare_batch: events / (bytes in -> DiagnosisReport out)"),
    e2e("epoch_latency_p50_ms", "ms", "lower", 0.25,
        "stdout arrival of an in-stream `epoch N` line minus the due time of the event that crosses boundary N (open loop: scheduled time; closed loop: when its record was written); compare_batch: bytes in -> report out"),
    e2e("peak_rss_mb", "MiB", "lower", 0.10,
        "VmHWM of the process under test (serve child, or the compare_batch child)"),
    e2e("setup_s", "s", "lower", 0.25,
        "generating and staging this workload's inputs, median of three set-ups; excludes cargo builds"),
];

#[rustfmt::skip]
pub const PER_LAYER: [Metric; 54] = [
    layer("log.decode.ns_per_event", "ns", "lower", "events_per_s/serve_dense, if the connection reader is the slower stage"),
    layer("log.decode.bytes_per_event", "B", "lower", "events_per_s/serve_dense"),
    layer("log.decode.skipped_frames", "count", "lower", "-"),
    layer("log.stream.ns_per_event", "ns", "lower", "events_per_s/compare_batch"),
    layer("log.encode.ns_per_event", "ns", "lower", "loadgen cost only"),
    layer("net.ingest.events_per_s", "events/s", "higher", "events_per_s/serve_dense (socket ceiling without a differ)"),
    layer("net.fanin.events_per_s", "events/s", "higher", "events_per_s/fanin_sharded"),
    layer("net.conn.stalls", "count", "lower", "-"),
    layer("net.conn.resumes", "count", "lower", "-"),
    layer("records.admit.ns_per_event", "ns", "lower", "events_per_s/serve_dense"),
    layer("records.admit.shards2.ns_per_event", "ns", "lower", "events_per_s/fanin_sharded"),
    layer("records.assemble.ns_per_event", "ns", "lower", "events_per_s/serve_dense"),
    layer("records.assemble.records_out", "count", "lower", "events_per_s/serve_dense"),
    layer("records.assemble.open_peak", "count", "lower", "peak_rss_mb/serve_dense"),
    layer("records.extract.ms", "ms", "lower", "events_per_s/compare_batch"),
    layer("model.observe.ns_per_event", "ns", "lower", "events_per_s/serve_dense"),
    layer("model.retire.us_per_epoch", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("model.snapshot.ms_per_epoch", "ms", "lower", "epoch_latency_p50_ms/serve_paced, then events_per_s/fanin_sharded"),
    layer("model.snapshot.groups", "count", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("model.snapshot.window_records", "count", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("model.merge.ms_per_epoch", "ms", "lower", "events_per_s/fanin_sharded"),
    layer("model.build.ms", "ms", "lower", "events_per_s/compare_batch, setup_s of the serve workloads"),
    layer("stability.analyze.ms", "ms", "lower", "events_per_s/compare_batch, setup_s of the serve workloads"),
    layer("model.bytes", "B", "lower", "peak_rss_mb"),
    layer("diff.online.event_ns", "ns", "lower", "events_per_s/serve_dense"),
    layer("diff.online.boundary_ms_p50", "ms", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diff.online.boundary_ms_p90", "ms", "lower", "epoch_latency_p90_ms/serve_paced"),
    layer("diff.online.retire_us", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diff.online.observe_us", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diff.online.snapshot_us", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diff.online.diff_us", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diff.online.events_per_s", "events/s", "higher", "single-threaded baseline of the same job"),
    layer("diff.sharded.events_per_s", "events/s", "higher", "events_per_s/fanin_sharded"),
    layer("diff.sharded.flush_us", "us", "lower", "events_per_s/fanin_sharded"),
    layer("diff.sharded.barrier_us", "us", "lower", "events_per_s/fanin_sharded"),
    layer("diff.sharded.merge_us", "us", "lower", "events_per_s/fanin_sharded"),
    layer("diff.sharded.queue_depth_peak", "count", "lower", "events_per_s/fanin_sharded"),
    layer("diff.sharded.worker_busy_pct", "%", "higher", "events_per_s/fanin_sharded"),
    layer("diff.sharded.record_skew", "ratio", "lower", "events_per_s/fanin_sharded"),
    layer("diff.compare.ms_per_epoch", "ms", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("diagnosis.diagnose.us_per_epoch", "us", "lower", "epoch_latency_p50_ms/serve_paced"),
    layer("checkpoint.capture.ms", "ms", "lower", "-"),
    layer("checkpoint.bytes", "B", "lower", "-"),
    layer("serve.cpu_s", "s", "lower", "events_per_s on the closed-loop workloads"),
    layer("serve.cpu_share", "ratio", "lower", "epoch_latency_p50_ms/serve_paced (latency rises before throughput falls)"),
    layer("serve.rss_bytes_per_event", "B", "lower", "peak_rss_mb/serve_dense"),
    layer("serve.epoch_latency_p90_ms", "ms", "lower", "the tail of epoch_latency_p50_ms's samples; not gated: its run-to-run spread exceeds any allowed bound"),
    layer("serve.drain_ms", "ms", "lower", "- (last payload byte written -> last stdout line)"),
    layer("loadgen.offered_events_per_s", "events/s", "higher", "-"),
    layer("loadgen.late_p90_ms", "ms", "lower", "-"),
    layer("loadgen.late_max_ms", "ms", "lower", "-"),
    layer("trace.overhead_pct", "%", "lower", "-"),
    layer("ledger.unattributed_pct", "%", "lower", "-"),
    layer("machine.calib_ms", "ms", "lower", "- (the calibration loop; end-to-end timings are scaled by reference / this)"),
];

pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_checked_in_benchmark_json() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn names_and_whys_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
