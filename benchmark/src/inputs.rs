//! Set-up: everything derived from `--seed`. The program under test only
//! ever sees what is generated and staged here.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flowdiff::prelude::*;
use flowdiff_bench::tree_capture;
use netsim::log::{encode_event, ControlEvent, ControllerLog, CAPTURE_MAGIC};
use netsim::net::split_capture;
use openflow::types::Timestamp;

/// Applications on the 320-server tree. Twelve keeps a 100 s capture at
/// ~170 k events, so three set-ups and a ten-second measurement fit in
/// one run.
const N_APPS: usize = 8;
/// Capture seconds of the baseline log `L1` (seed `S`).
const BASELINE_SECS: u64 = 60;
/// Capture seconds of the current log `L2` (seed `S + 1`); the quiet
/// tail the simulator appends after them (flow expiries) is cut off.
const CURRENT_SECS: u64 = 200;

/// How a serve workload drives `flowdiff-bench serve`.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub conns: usize,
    pub shards: usize,
    pub epoch_secs: u64,
    pub window_secs: u64,
    /// `Some(speed)`: open loop, capture time replayed `speed` times
    /// faster than it was recorded. `None`: closed loop, as fast as TCP
    /// accepts.
    pub pace: Option<f64>,
}

impl ServeShape {
    pub fn of(workload: &str) -> Option<ServeShape> {
        let shape = |conns, shards, epoch_secs, window_secs, pace| ServeShape {
            conns,
            shards,
            epoch_secs,
            window_secs,
            pace,
        };
        match workload {
            crate::spec::SERVE_DENSE => Some(shape(1, 1, 40, 40, None)),
            crate::spec::SERVE_PACED => Some(shape(1, 1, 1, 30, Some(20.0))),
            crate::spec::FANIN_SHARDED => Some(shape(2, 2, 5, 30, None)),
            _ => None,
        }
    }

    /// The config `serve` runs this shape under (mirrors `cmd_serve`).
    pub fn config(&self, base: &FlowDiffConfig) -> FlowDiffConfig {
        let mut config = base.clone();
        config.online_epoch_us = self.epoch_secs * 1_000_000;
        config.online_window_us = self.window_secs * 1_000_000;
        config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
        config
    }
}

/// One connection's pre-encoded stream.
pub struct Stream {
    /// `CAPTURE_MAGIC` followed by one wire frame per event.
    pub payload: Vec<u8>,
    /// `ends[i]`: offset in `payload` just past local event `i`.
    pub ends: Vec<usize>,
    /// `global[i]`: index of local event `i` in the whole capture.
    pub global: Vec<usize>,
    /// The events themselves (the in-process `net` layer publishes them).
    pub log: ControllerLog,
}

/// Durations of the set-up calls the per-layer metrics report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build: Duration,
    pub analyze: Duration,
}

pub struct Inputs {
    pub config: FlowDiffConfig,
    pub l1: ControllerLog,
    /// The first `CURRENT_SECS` of `L2`.
    pub l2: ControllerLog,
    /// Serve workloads: the baseline model, its stability report, the
    /// staged `.fbas` bundle and the per-connection streams.
    pub baseline: Option<(BehaviorModel, StabilityReport)>,
    pub baseline_path: PathBuf,
    pub streams: Vec<Stream>,
    /// `compare_batch`: the two staged `.fcap` files.
    pub fcap_paths: [PathBuf; 2],
    pub times: SetupTimes,
}

/// Generates and stages the inputs of `workload` under `dir`. An
/// open-loop workload replays as much of `L2` as fits in `seconds` at
/// its speed; the others use all of it however long they measure.
pub fn setup(workload: &str, seed: u64, seconds: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let shape = ServeShape::of(workload);
    let current_secs = match shape.and_then(|s| s.pace) {
        Some(speed) => ((seconds as f64 * speed) as u64).clamp(2, CURRENT_SECS),
        None => CURRENT_SECS,
    };
    let (l1, config) = tree_capture(N_APPS, seed, BASELINE_SECS);
    let (l2_full, _) = tree_capture(N_APPS, seed + 1, current_secs);
    let start = l2_full.time_range().ok_or("empty capture")?.0;
    let l2 = l2_full.slice(
        start,
        Timestamp::from_micros(start.as_micros() + current_secs * 1_000_000),
    );
    let mut inputs = Inputs {
        config,
        l1,
        l2,
        baseline: None,
        baseline_path: dir.join("baseline.fbas"),
        streams: Vec::new(),
        fcap_paths: [dir.join("l1.fcap"), dir.join("l2.fcap")],
        times: SetupTimes::default(),
    };
    match shape {
        Some(shape) => {
            let t = Instant::now();
            let model = BehaviorModel::build(&inputs.l1, &inputs.config);
            inputs.times.build = t.elapsed();
            let t = Instant::now();
            let stability = analyze(&inputs.l1, &model, &inputs.config);
            inputs.times.analyze = t.elapsed();
            let bundle = BaselineBundle { model, stability };
            bundle
                .save(&inputs.baseline_path)
                .map_err(|e| format!("{}: {e}", inputs.baseline_path.display()))?;
            inputs.baseline = Some((bundle.model, bundle.stability));
            inputs.streams = encode_streams(&inputs.l2, shape.conns);
        }
        None => {
            for (path, log) in inputs.fcap_paths.iter().zip([&inputs.l1, &inputs.l2]) {
                std::fs::write(path, log.to_wire_bytes())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    Ok(inputs)
}

/// Deals `log` over `conns` streams with `split_capture` and pre-encodes
/// each. The `(timestamp, stream)` merge of the streams is the capture
/// order, which is how each local event finds its global index.
fn encode_streams(log: &ControllerLog, conns: usize) -> Vec<Stream> {
    let parts = split_capture(log, conns);
    let mut global: Vec<Vec<usize>> = parts.iter().map(|p| Vec::with_capacity(p.len())).collect();
    let mut next = vec![0usize; parts.len()];
    for g in 0..log.len() {
        let head = |s: usize| {
            parts[s]
                .events()
                .get(next[s])
                .map(|e: &ControlEvent| (e.ts, s))
        };
        let s = (0..parts.len())
            .filter_map(head)
            .min()
            .expect("streams hold every event")
            .1;
        global[s].push(g);
        next[s] += 1;
    }
    parts
        .into_iter()
        .zip(global)
        .map(|(part, global)| {
            let mut payload = Vec::with_capacity(128 * part.len() + 8);
            payload.extend_from_slice(CAPTURE_MAGIC);
            let mut ends = Vec::with_capacity(part.len());
            for ev in part.events() {
                encode_event(ev, &mut payload);
                ends.push(payload.len());
            }
            Stream {
                payload,
                ends,
                global,
                log: part,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_map_back_to_capture_order() {
        let (log, _) = tree_capture(2, 5, 4);
        let streams = encode_streams(&log, 2);
        let mut seen = vec![false; log.len()];
        for s in &streams {
            assert_eq!(s.ends.len(), s.global.len());
            assert!(s.global.windows(2).all(|w| w[0] < w[1]));
            for (local, &g) in s.global.iter().enumerate() {
                assert_eq!(s.log.events()[local], log.events()[g]);
                assert!(!std::mem::replace(&mut seen[g], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
