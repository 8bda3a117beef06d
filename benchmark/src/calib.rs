//! Machine-speed calibration.
//!
//! On the shared two-core box this benchmark was written on, identical
//! memory-bound work runs up to twice as slowly for minutes at a time
//! while a pure compute loop stays flat and steal time stays near zero:
//! neighbours contend for the memory system, and nothing inside the
//! guest can see them. Ten consecutive raw readings of any timing then
//! spread by 16-25 % (quartile distance over median) and drift by up to
//! 50 % between sets, whatever statistic is taken over the repetitions
//! of a run, best-of-N included.
//!
//! A fixed allocation-and-pointer-chasing loop (a `BTreeMap` of `Vec`s,
//! the shape of the differ's own data) tracks those phases: over 15
//! minutes, ten-second medians of an in-process `OnlineDiffer` pass
//! spread 11 % raw and 2 % once divided by this loop's time (log-log
//! slope 0.95). So the harness samples the loop before every set-up
//! and repetition and reports each timing *as it would read with the
//! loop at `REF_S`*. Over 22 runs of each workload spanning 28 minutes
//! and two slow phases that took the quartile spreads from 16-25 % to
//! 4-9 % (`serve_paced` latency: 25 % to 17 %). The workloads are
//! somewhat more sensitive than the loop (slopes 1.2-1.6), so a
//! residue of each phase remains; no exponent is fitted.
//!
//! The raw readings are printed with every run and the calibration
//! sample is the per-layer metric `machine.calib_ms`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// What one sample takes on this box when nobody interferes.
pub const REF_S: f64 = 0.050;

const INSERTS: usize = 200_000;
const KEYS: u64 = 2_000_000;

/// The calibration loop itself; returns the seconds it took.
pub fn spin() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 88_172_645_463_325_252;
    for _ in 0..INSERTS {
        // xorshift64: the same key sequence every time.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % KEYS).or_default().push(x);
    }
    std::hint::black_box(&map);
    t.elapsed().as_secs_f64()
}

/// Seconds the loop takes right now, in a fresh child of this binary
/// (`--calib`): the allocator is faster in a single-threaded process
/// and slower on a fragmented heap, and the harness is neither the
/// same from one sample to the next.
fn sample() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--calib")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("calibration child: {e}"))
}

/// The calibration samples of one run.
#[derive(Default)]
pub struct Calib {
    samples: Vec<f64>,
}

impl Calib {
    pub fn sample(&mut self) -> Result<(), String> {
        self.samples.push(sample()?);
        Ok(())
    }

    /// The samples taken at one end of a repetition: one between the
    /// many short repetitions of a closed loop, several around the single
    /// long open-loop one, which has none in its middle (sampling while
    /// it runs was tried: the loop and `serve` slow each other down).
    pub fn edge_samples(&mut self, open_loop: bool) -> Result<(), String> {
        for _ in 0..if open_loop { 10 } else { 1 } {
            self.sample()?;
        }
        Ok(())
    }

    /// Median sample, seconds.
    pub fn median_s(&self) -> f64 {
        median(&mut self.samples.clone())
    }

    /// How much slower than `REF_S` the machine ran: divide times by
    /// it, multiply rates by it.
    pub fn slowdown(&self) -> f64 {
        self.median_s() / REF_S
    }
}
