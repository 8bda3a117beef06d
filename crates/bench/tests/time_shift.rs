//! Epoch snapshots do not depend on the clock a capture starts on:
//! adding a constant Δ to every timestamp of the current capture shifts
//! each epoch's window by Δ and changes nothing else `watch` reports
//! about it — epoch index, flows, changes — and no event is quarantined
//! as a time jump. Real controller logs carry wall-clock timestamps, so
//! Δ runs up to a 2026 wall-clock instant in microseconds.
//!
//! One clamp stays: a window reaching back past time zero starts at
//! zero, so an early window of the unshifted capture is the shifted
//! one's moved back by Δ *as far as zero allows*.
//!
//! A checkpoint carries the shifted clock too: `watch --resume` picks a
//! shifted run up where it left off, at every Δ. And the same holds for
//! the capture served over loopback sockets, as `serve` gets it.

// Each test binary uses its own share of the helpers.
#[allow(dead_code)]
mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

use common::serve_loopback;
use flowdiff::prelude::*;
use netsim::prelude::*;
use openflow::types::Timestamp;

/// 0, just past `watch`'s 60 s jump bound, 2⁴⁰ µs, and ≈ 2026-09 as
/// µs since the Unix epoch.
const SHIFTS_US: [u64; 4] = [0, 61_000_000, 1 << 40, 1_790_000_000_000_000];

/// `watch`'s config under `--epoch-secs 1 --window-secs 4`, including
/// its 60 s jump bound.
fn watch_config() -> FlowDiffConfig {
    let mut config = FlowDiffConfig {
        online_epoch_us: 1_000_000,
        online_window_us: 4_000_000,
        ..FlowDiffConfig::default()
    };
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate().expect("config must validate");
    config
}

fn captures() -> (ControllerLog, ControllerLog) {
    let (baseline, _) = flowdiff_bench::tree_capture(1, 7, 12);
    let (current, _) = flowdiff_bench::tree_capture(1, 8, 12);
    (baseline, current)
}

fn shifted(log: &ControllerLog, delta_us: u64) -> ControllerLog {
    let mut out = ControllerLog::new();
    for event in log.events() {
        let mut event = event.clone();
        event.ts = Timestamp::from_micros(event.ts.as_micros() + delta_us);
        out.push(event);
    }
    out
}

/// One epoch as `watch` reports it: `(epoch, window, flows, changes)`,
/// the window in `T` (µs in process, printed seconds from `watch`).
type Line<T> = (u64, (T, T), usize, usize);

/// Runs `run` at every Δ and returns the shifts that quarantined a time
/// jump or whose epochs do not match the Δ = 0 run's line for line
/// (`matches(line, expected, Δ)`).
fn shifts_that_differ<T>(
    run: impl Fn(u64) -> (Vec<Line<T>>, u64),
    matches: impl Fn(&Line<T>, &Line<T>, u64) -> bool,
) -> Vec<u64> {
    let (expected, jumps) = run(0);
    assert!(expected.len() >= 10, "{} epochs", expected.len());
    assert_eq!(jumps, 0);
    SHIFTS_US
        .into_iter()
        .filter(|&delta_us| {
            let (lines, jumps) = run(delta_us);
            let same = lines.len() == expected.len()
                && (lines.iter().zip(&expected)).all(|(line, want)| matches(line, want, delta_us));
            jumps != 0 || !same
        })
        .collect()
}

/// One epoch snapshot as a [`Line`] in microseconds.
fn line(snapshot: &EpochSnapshot) -> Line<u64> {
    let (start, end) = snapshot.window;
    let window = (start.as_micros(), end.as_micros());
    let changes = snapshot.diff.change_count();
    (snapshot.epoch, window, snapshot.records, changes)
}

/// `line` is `want` with its window moved by Δ, as far as the zero
/// clamp allows.
fn moved_back(
    &(epoch, (start, end), flows, changes): &Line<u64>,
    want: &Line<u64>,
    delta_us: u64,
) -> bool {
    let window = (start.saturating_sub(delta_us), end - delta_us);
    (epoch, window, flows, changes) == *want
}

#[test]
fn online_differ_is_invariant_under_a_clock_shift() {
    let config = watch_config();
    let (baseline, current) = captures();
    let reference = BehaviorModel::build(&baseline, &config);
    let stability = analyze(&baseline, &reference, &config);
    let run = |delta_us: u64| {
        let mut differ = OnlineDiffer::new(reference.clone(), stability.clone(), &config);
        let mut lines = Vec::new();
        for event in shifted(&current, delta_us).events() {
            lines.extend(differ.observe(event).iter().map(line));
        }
        let jumps = differ.health().time_jumps;
        lines.extend(differ.finish().as_ref().map(line));
        (lines, jumps)
    };
    assert_eq!(shifts_that_differ(run, moved_back), Vec::<u64>::new());
}

#[test]
fn serve_is_invariant_under_a_clock_shift() {
    // The shifted capture dealt to two loopback publishers and merged
    // back, through the supervised engine `serve` runs.
    let config = watch_config();
    let (baseline, current) = captures();
    let reference = BehaviorModel::build(&baseline, &config);
    let stability = analyze(&baseline, &reference, &config);
    let session = |i: usize, _: &ControllerLog| SessionOptions {
        session: i as u64,
        ..SessionOptions::default()
    };
    let run = |delta_us: u64| {
        let judge = (&reference, &stability, &config);
        let log = shifted(&current, delta_us);
        let served = serve_loopback(&log, 2, 64, LiveOptions::default(), session, judge);
        let snapshot = |bytes: &Vec<u8>| serde::from_slice(bytes).expect("snapshot bytes");
        let lines = served.snaps.iter().map(|b| line(&snapshot(b))).collect();
        (lines, served.health.time_jumps)
    };
    assert_eq!(shifts_that_differ(run, moved_back), Vec::<u64>::new());
}

/// Parses `watch`'s `epoch ` lines and the time-jump count of its
/// `stats: ingest` line.
fn parse_watch(stdout: &str) -> (Vec<Line<f64>>, u64) {
    let mut lines = Vec::new();
    let mut jumps = None;
    for text in stdout.lines() {
        if let Some(rest) = text.strip_prefix("stats: ingest ") {
            let before = rest.split(" time jumps").next().expect("time jumps field");
            let count = before.rsplit(' ').next().expect("time jump count");
            jumps = Some(count.parse().expect("time jump count"));
        }
        let Some(rest) = text.strip_prefix("epoch ") else {
            continue;
        };
        // `N  [   a.as ..    b.bs]  F flows  C changes  verdict`
        let (epoch, rest) = rest.split_once('[').expect("window");
        let (window, rest) = rest.split_once(']').expect("window");
        let (start, end) = window.split_once("..").expect("window bounds");
        let secs = |w: &str| -> f64 { w.trim().trim_end_matches('s').parse().expect("bound") };
        let words: Vec<&str> = rest.split_whitespace().collect();
        lines.push((
            epoch.trim().parse().expect("epoch index"),
            (secs(start), secs(end)),
            words[0].parse().expect("flows"),
            words[2].parse().expect("changes"),
        ));
    }
    (lines, jumps.expect("a stats: ingest line"))
}

fn write_capture(dir: &Path, name: &str, log: &ControllerLog) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, log.to_wire_bytes()).expect("write capture");
    path
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowdiff-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `watch`'s stdout at 1 s epochs over a 4 s window, plus `flags`; the
/// run must exit 0.
fn watch(baseline: &Path, current: &Path, flags: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flowdiff-bench"))
        .arg("watch")
        .args([baseline, current])
        .args(["--epoch-secs", "1", "--window-secs", "4"])
        .args(flags)
        .output()
        .expect("run watch");
    assert!(out.status.success(), "watch exited {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn watch_is_invariant_under_a_clock_shift() {
    let dir = scratch("time-shift");
    let (baseline, current) = captures();
    let baseline = write_capture(&dir, "baseline.fcap", &baseline);
    let run = |delta_us: u64| {
        let name = format!("current+{delta_us}.fcap");
        let current = write_capture(&dir, &name, &shifted(&current, delta_us));
        parse_watch(&watch(&baseline, &current, &[]))
    };
    // Bounds print to 0.1 s and Δ need not be a whole number of tenths,
    // so a moved-back bound may land one rounding step away.
    let matches = |line: &Line<f64>, want: &Line<f64>, delta_us: u64| {
        let &(epoch, (start, end), flows, changes) = line;
        let delta = delta_us as f64 / 1e6;
        let near = |a: f64, b: f64| (a - b).abs() <= 0.1 + 1e-6;
        (epoch, flows, changes) == (want.0, want.2, want.3)
            && near((start - delta).max(0.0), want.1 .0)
            && near(end - delta, want.1 .1)
    };
    let differ = shifts_that_differ(run, matches);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(differ, Vec::<u64>::new());
}

#[test]
fn watch_resumes_a_shifted_run_from_its_saved_bundle() {
    // The first run checkpoints every 5 epochs and saves its baseline;
    // the second resumes against the bundle and must print exactly the
    // first run's epoch lines after its last checkpoint, quarantining
    // nothing on the shifted clock.
    let dir = scratch("time-shift-resume");
    let (baseline, current) = captures();
    let baseline = write_capture(&dir, "baseline.fcap", &baseline);
    let bundle = dir.join("baseline.fbas");
    let epochs = |out: &str| -> Vec<String> {
        let lines = out.lines().filter(|l| l.starts_with("epoch "));
        lines.map(String::from).collect()
    };
    for delta_us in SHIFTS_US {
        let name = format!("current+{delta_us}.fcap");
        let current = write_capture(&dir, &name, &shifted(&current, delta_us));
        let ckpt = dir.join(format!("current+{delta_us}.ckpt"));
        let (bundle_arg, ckpt_arg) = (bundle.to_str().unwrap(), ckpt.to_str().unwrap());
        let flags = [
            "--save-baseline",
            bundle_arg,
            "--checkpoint",
            ckpt_arg,
            "--checkpoint-every",
            "5",
        ];
        let first = epochs(&watch(&baseline, &current, &flags));
        let out = watch(&bundle, &current, &["--resume", ckpt_arg]);
        let resumed = epochs(&out);
        assert!(
            !resumed.is_empty() && resumed.len() < first.len(),
            "Δ = {delta_us} µs: resumed {} of {} epochs",
            resumed.len(),
            first.len()
        );
        assert_eq!(
            resumed,
            first[first.len() - resumed.len()..],
            "Δ = {delta_us} µs"
        );
        assert_eq!(
            parse_watch(&out).1,
            0,
            "Δ = {delta_us} µs: time jumps after resume"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
