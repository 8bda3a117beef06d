//! One benchmark run: set up a workload's inputs, measure it for the
//! requested time, check the program's outputs against an in-process
//! reference, and return the metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use flowdiff::checkpoint::crc32;
use flowdiff::prelude::*;
use netsim::log::{ControlEvent, ControllerLog, LogStream};

use crate::calib::Calib;
use crate::inputs::{setup, Inputs, ServeShape};
use crate::layers;
use crate::loadgen::{publish, Pace, Published};
use crate::serve::{
    cpu_seconds, parse_epoch_line, parse_frames_decoded, vm_hwm_kb, EpochLine, ServeChild,
};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, p50_and_tail};
use crate::trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where things are and where things go.
pub struct Ctx {
    /// The `flowdiff-bench` binary under test.
    pub serve_bin: PathBuf,
    /// Scratch and trace output directory.
    pub out: PathBuf,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Remarks for the human-readable summary (sample counts, warnings).
    pub notes: Vec<String>,
}

/// What `serve` must print for a given event stream: the in-stream
/// epoch lines, then the one `finish()` emits.
pub struct Expected {
    pub lines: Vec<EpochLine>,
    /// `triggers[k]`: index of the event whose arrival emits line `k`
    /// (in-stream lines only).
    pub triggers: Vec<usize>,
    pub wall: Duration,
}

/// The `changes` figure of an epoch line (mirrors `report`).
pub fn line_of(snapshot: &EpochSnapshot) -> EpochLine {
    let diff = &snapshot.diff;
    EpochLine {
        epoch: snapshot.epoch,
        flows: snapshot.records,
        changes: diff
            .group_diffs
            .iter()
            .map(|g| g.changes.len())
            .sum::<usize>()
            + diff.infra.len()
            + diff.new_groups.len()
            + diff.missing_groups.len(),
    }
}

/// The reference: one untraced single-threaded `OnlineDiffer` pass.
pub fn reference(
    events: &[ControlEvent],
    baseline: &(BehaviorModel, StabilityReport),
    config: &FlowDiffConfig,
) -> Expected {
    let mut differ = OnlineDiffer::new(baseline.0.clone(), baseline.1.clone(), config);
    let mut expected = Expected {
        lines: Vec::new(),
        triggers: Vec::new(),
        wall: Duration::ZERO,
    };
    let t = Instant::now();
    for (i, event) in events.iter().enumerate() {
        for snapshot in differ.observe(event) {
            expected.lines.push(line_of(&snapshot));
            expected.triggers.push(i);
        }
    }
    expected.lines.extend(differ.finish().as_ref().map(line_of));
    expected.wall = t.elapsed();
    expected
}

/// One `serve` process fed the whole workload once.
pub struct ServeRep {
    pub events: u64,
    /// First payload byte written -> last stdout line.
    pub wall_s: f64,
    /// First -> last payload byte written.
    pub send_s: f64,
    pub latencies_ms: Vec<f64>,
    pub peak_rss_kb: u64,
    pub cpu_s: f64,
    pub drain_ms: f64,
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn serve_rep(
    ctx: &Ctx,
    inputs: &Inputs,
    shape: &ServeShape,
    expected: &Expected,
) -> Result<ServeRep, String> {
    let child = ServeChild::spawn(&ctx.serve_bin, &inputs.baseline_path, shape)?;
    let addr = child.addr;
    let ts0 = inputs.l2.events()[0].ts.as_micros();
    // Open loop: the schedule starts a little ahead so every connection
    // is up before its first record is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let published: Vec<Published> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let marks: Vec<(usize, usize)> = expected
                    .triggers
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, g)| Some((stream.global.binary_search(g).ok()?, slot)))
                    .collect();
                let due_us: Option<Vec<u64>> = shape.pace.map(|speed| {
                    stream
                        .log
                        .events()
                        .iter()
                        .map(|e| ((e.ts.as_micros() - ts0) as f64 / speed) as u64)
                        .collect()
                });
                scope.spawn(move || {
                    let pace = due_us.as_deref().map(|due_us| Pace { t0, due_us });
                    publish(addr, i as u64 + 1, stream, &marks, pace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("publisher panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })
    .map_err(|e| format!("publish: {e}"))?;
    let out = child.finish()?;

    let first_write = published
        .iter()
        .map(|p| p.first_write)
        .min()
        .expect("a stream");
    let last_write = published
        .iter()
        .map(|p| p.last_write)
        .max()
        .expect("a stream");
    let last_line = out.lines.last().map_or(last_write, |(at, _)| *at);
    let mut due = vec![None; expected.triggers.len()];
    for (slot, at) in published.iter().flat_map(|p| p.due.iter().copied()) {
        due[slot] = Some(at);
    }

    let events = inputs.l2.len() as u64;
    let mut rep = ServeRep {
        events,
        wall_s: (last_line - first_write).as_secs_f64(),
        send_s: (last_write - first_write).as_secs_f64(),
        latencies_ms: Vec::new(),
        peak_rss_kb: out.peak_rss_kb,
        cpu_s: out.cpu_s,
        drain_ms: last_line
            .saturating_duration_since(last_write)
            .as_secs_f64()
            * 1e3,
        late_us: published.into_iter().flat_map(|p| p.late_us).collect(),
        attempted: expected.lines.len() as u64 + events,
        failed: u64::from(!out.exit_ok),
    };
    let seen: Vec<(Instant, EpochLine)> = out
        .lines
        .iter()
        .filter_map(|(at, line)| Some((*at, parse_epoch_line(line)?)))
        .collect();
    for (k, want) in expected.lines.iter().enumerate() {
        match seen.get(k) {
            Some((at, got)) if got == want => {
                // The last expected line is `finish()`'s, after `End`.
                if let Some(Some(due)) = due.get(k) {
                    rep.latencies_ms
                        .push(at.saturating_duration_since(*due).as_secs_f64() * 1e3);
                }
            }
            _ => rep.failed += 1,
        }
    }
    rep.failed += seen.len().saturating_sub(expected.lines.len()) as u64;
    let decoded = out
        .lines
        .iter()
        .find_map(|(_, line)| parse_frames_decoded(line))
        .unwrap_or(0);
    rep.failed += events.saturating_sub(decoded);
    Ok(rep)
}

/// Fingerprint of a diff: the CRC of its serialized bytes.
pub fn diff_crc(diff: &ModelDiff) -> u32 {
    crc32(&serde::to_vec(diff))
}

/// Times `f` as a span when tracing, runs it bare otherwise.
fn spanned<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.call(name, None, None, f),
        None => f(),
    }
}

/// The paper's offline mode: two captures in, one diagnosis out.
/// Returns the diff, the L2 model's size, and the event count.
pub fn batch_job(
    l1_bytes: &[u8],
    l2_bytes: &[u8],
    config: &FlowDiffConfig,
    mut tracer: Option<&mut Tracer>,
) -> Result<(ModelDiff, usize, usize), String> {
    let t = &mut tracer;
    let parse = |t: &mut Option<&mut Tracer>, bytes| {
        spanned(t, "log.stream", || ControllerLog::from_wire_bytes(bytes))
            .map_err(|e| e.to_string())
    };
    let (l1, l2) = (parse(t, l1_bytes)?, parse(t, l2_bytes)?);
    let baseline = spanned(t, "model.build", || BehaviorModel::build(&l1, config));
    let current = spanned(t, "model.build", || BehaviorModel::build(&l2, config));
    let stability = spanned(t, "stability.analyze", || analyze(&l1, &baseline, config));
    let diff = spanned(t, "diff.compare", || {
        compare(&baseline, &current, &stability, config)
    });
    let report = spanned(t, "diagnosis.diagnose", || {
        diagnose(&diff, &current, &[], config)
    });
    std::hint::black_box(report);
    Ok((diff, current.approx_bytes(), l1.len() + l2.len()))
}

/// `--batch-child`: runs [`batch_job`] in this fresh process and prints
/// what the parent needs on one line.
pub fn batch_child(l1: &Path, l2: &Path) -> Result<(), String> {
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let (l1_bytes, l2_bytes) = (read(l1)?, read(l2)?);
    let t = Instant::now();
    let (diff, _, events) = batch_job(&l1_bytes, &l2_bytes, &FlowDiffConfig::default(), None)?;
    let wall_ns = t.elapsed().as_nanos();
    println!(
        "batch wall_ns={wall_ns} events={events} vm_hwm_kb={} cpu_ms={:.0} diff_crc={:08x}",
        vm_hwm_kb("self").unwrap_or(0),
        cpu_seconds("self").unwrap_or(0.0) * 1e3,
        diff_crc(&diff)
    );
    Ok(())
}

/// The batch reference: both captures folded through the streaming
/// decoder, assembler and incremental builder, never materialized.
fn batch_reference(inputs: &Inputs) -> Result<u32, String> {
    let config = &inputs.config;
    let mut models = Vec::new();
    for path in &inputs.fcap_paths {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut assembler = RecordAssembler::new(config);
        let mut builder = IncrementalModelBuilder::new(config);
        for event in LogStream::from_wire_bytes(&bytes).map_err(|e| e.to_string())? {
            let event = event.map_err(|e| e.to_string())?;
            assembler.observe(&event);
            builder.observe_event(&event);
            for record in assembler.take_completed() {
                builder.observe_record(record);
            }
        }
        for record in assembler.finish() {
            builder.observe_record(record);
        }
        if let Some(span) = builder.observed_span() {
            builder.set_span(span);
        }
        models.push(builder.into_snapshot());
    }
    let stability = analyze(&inputs.l1, &models[0], config);
    let diff = compare(&models[0], &models[1], &stability, config);
    Ok(diff_crc(&diff))
}

/// One `compare_batch` repetition, as its child reported it.
pub struct BatchRep {
    pub events: u64,
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub cpu_s: f64,
    pub ok: bool,
}

/// One `compare_batch` repetition in a fresh child of this binary.
pub fn batch_rep(inputs: &Inputs, want_crc: u32) -> Result<BatchRep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--batch-child")
        .args(&inputs.fcap_paths)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: BTreeMap<&str, &str> = text
        .split_whitespace()
        .filter_map(|w| w.split_once('='))
        .collect();
    let num = |k: &str| {
        fields
            .get(k)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Ok(BatchRep {
        events: num("events"),
        wall_s: num("wall_ns") as f64 / 1e9,
        peak_rss_kb: num("vm_hwm_kb"),
        cpu_s: num("cpu_ms") as f64 / 1e3,
        ok: out.status.success()
            && num("wall_ns") > 0
            && fields.get("diff_crc") == Some(&format!("{want_crc:08x}").as_str()),
    })
}

/// A workload's measured job, with the reference its output must match.
enum Job {
    Serve {
        shape: ServeShape,
        expected: Expected,
    },
    Batch {
        want_crc: u32,
    },
}

fn ordered(
    spec: &[crate::spec::Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    spec.iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// Runs `workload` once: untraced for the end-to-end metrics, traced
/// for the per-layer ones.
pub fn run(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let dir = ctx
        .out
        .join(format!("stage-{workload}-{seed}-{}", std::process::id()));
    let result = run_staged(ctx, workload, seed, seconds, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_staged(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> Result<RunResult, String> {
    let mut calib = Calib::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        calib.sample()?;
        let t = Instant::now();
        inputs = Some(setup(workload, seed, seconds, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let job = match ServeShape::of(workload) {
        Some(shape) => {
            let baseline = inputs.baseline.as_ref().expect("serve set-up builds it");
            let expected = reference(inputs.l2.events(), baseline, &shape.config(&inputs.config));
            Job::Serve { shape, expected }
        }
        None => Job::Batch {
            want_crc: batch_reference(&inputs)?,
        },
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    if trace {
        let path = ctx.out.join(format!("trace-{workload}.jsonl"));
        measure_traced(ctx, &inputs, &job, deadline, &path, calib)
    } else {
        measure_untraced(ctx, &inputs, &job, deadline, median(&mut setup_s), calib)
    }
}

/// One untraced repetition for the outside view of the process, then
/// in-process traced passes until the time is up; each value is the
/// median over the passes, and the last pass's spans go to `trace_path`.
fn measure_traced(
    ctx: &Ctx,
    inputs: &Inputs,
    job: &Job,
    deadline: Instant,
    trace_path: &Path,
    mut calib: Calib,
) -> Result<RunResult, String> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed);
    calib.sample()?;
    match job {
        Job::Serve { shape, expected } => {
            let rep = serve_rep(ctx, inputs, shape, expected)?;
            (attempted, failed) = (rep.attempted, rep.failed);
            layers::outside_view(
                &mut values,
                rep.cpu_s,
                rep.wall_s,
                rep.peak_rss_kb,
                rep.events,
            );
            layers::loadgen_view(&mut values, &rep);
        }
        Job::Batch { want_crc } => {
            let rep = batch_rep(inputs, *want_crc)?;
            (attempted, failed) = (1, u64::from(!rep.ok));
            layers::outside_view(
                &mut values,
                rep.cpu_s,
                rep.wall_s,
                rep.peak_rss_kb,
                rep.events,
            );
        }
    }
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes = 0;
    let tracer = loop {
        let mut tracer = Tracer::new();
        let pass = match job {
            Job::Serve { shape, expected } => {
                layers::traced_serve_pass(inputs, shape, expected, &mut tracer)?
            }
            Job::Batch { want_crc } => layers::traced_batch_pass(inputs, *want_crc, &mut tracer)?,
        };
        passes += 1;
        attempted += 1;
        failed += u64::from(!pass.ok);
        for (k, v) in pass.values {
            samples.entry(k).or_default().push(v);
        }
        calib.sample()?;
        if Instant::now() >= deadline {
            break tracer;
        }
    };
    for (k, mut v) in samples {
        values.insert(k, median(&mut v));
    }
    // Per-layer values are raw; this is the machine they were read on.
    values.insert("machine.calib_ms", calib.median_s() * 1e3);
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: ordered(&PER_LAYER, &values),
        notes: vec![format!(
            "{passes} traced pass(es); spans of the last one: {}",
            trace_path.display()
        )],
    })
}

/// Repetitions of the job until the time is up, with a calibration
/// sample before each and after the last. Timings are reported as they
/// would read at the calibration's reference speed (see [`crate::calib`]).
fn measure_untraced(
    ctx: &Ctx,
    inputs: &Inputs,
    job: &Job,
    deadline: Instant,
    setup_s: f64,
    mut calib: Calib,
) -> Result<RunResult, String> {
    let (mut rates, mut rss_kb, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    // An open-loop rate is set by the schedule, not by the machine.
    let mut rate_is_scheduled = false;
    match job {
        Job::Serve { shape, expected } => {
            rate_is_scheduled = shape.pace.is_some();
            let mut late_us = Vec::new();
            loop {
                calib.edge_samples(rate_is_scheduled)?;
                let rep = serve_rep(ctx, inputs, shape, expected)?;
                attempted += rep.attempted;
                failed += rep.failed;
                rates.push(rep.events as f64 / rep.wall_s);
                rss_kb.push(rep.peak_rss_kb as f64);
                latencies.extend(rep.latencies_ms);
                late_us.extend(rep.late_us);
                // The open-loop schedule is one repetition `seconds` long.
                if rate_is_scheduled || Instant::now() >= deadline {
                    break;
                }
            }
            notes.push(format!(
                "{} repetition(s), {}/{} in-stream epochs timed",
                rates.len(),
                latencies.len(),
                expected.triggers.len() * rates.len()
            ));
            if !late_us.is_empty() {
                let (_, late_p90) = p50_and_tail(&mut late_us);
                notes.push(format!("loadgen.late_p90_ms {:.3}", late_p90 / 1e3));
                notes.extend(sustained(&latencies));
            }
        }
        Job::Batch { want_crc } => {
            loop {
                calib.sample()?;
                let rep = batch_rep(inputs, *want_crc)?;
                attempted += 1;
                failed += u64::from(!rep.ok);
                rates.push(rep.events as f64 / rep.wall_s.max(1e-9));
                rss_kb.push(rep.peak_rss_kb as f64);
                latencies.push(rep.wall_s * 1e3);
                if Instant::now() >= deadline {
                    break;
                }
            }
            notes.push(format!("{} repetition(s)", rates.len()));
        }
    }
    calib.edge_samples(rate_is_scheduled)?;
    if latencies.is_empty() {
        return Err("no epoch line could be timed".into());
    }
    let slowdown = calib.slowdown();
    let (p50, p90) = p50_and_tail(&mut latencies);
    let rate = median(&mut rates);
    notes.push(format!(
        "calibration {:.1} ms (reference {:.1}); raw readings: {rate:.0} events/s, p50 {p50:.2} ms, \
         p90 {p90:.2} ms over {} samples, set-up {setup_s:.3} s",
        calib.median_s() * 1e3,
        crate::calib::REF_S * 1e3,
        latencies.len()
    ));
    let values = BTreeMap::from([
        (
            "events_per_s",
            if rate_is_scheduled {
                rate
            } else {
                rate * slowdown
            },
        ),
        ("epoch_latency_p50_ms", p50 / slowdown),
        ("peak_rss_mb", median(&mut rss_kb) / 1024.0),
        ("setup_s", setup_s / slowdown),
    ]);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: ordered(&END_TO_END, &values),
        notes,
    })
}

/// Whether an open-loop run kept up. Above the sustainable rate the
/// backlog, and the latency with it, grows for as long as the run
/// lasts; at a sustainable rate the late epochs look like the early
/// ones (past the first quarter, while the window fills). `latencies`
/// are in epoch order.
fn sustained(latencies: &[f64]) -> Option<String> {
    let quarter = latencies.len() / 4;
    if quarter == 0 {
        return None;
    }
    let early = median(&mut latencies[quarter..2 * quarter].to_vec());
    let late = median(&mut latencies[3 * quarter..].to_vec());
    Some(format!(
        "epoch latency, second quarter {early:.1} ms, last quarter {late:.1} ms: rate {}",
        if late <= 1.5 * early {
            "sustained"
        } else {
            "NOT sustainable"
        }
    ))
}
