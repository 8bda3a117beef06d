//! The `serve` layer: the real `flowdiff-bench serve` process seen from
//! outside — its stdout lines, timestamped as they arrive, and
//! `/proc/<pid>/{status,stat}`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::inputs::ServeShape;

/// Longest the harness waits for any single line of a `serve` child.
const LINE_TIMEOUT: Duration = Duration::from_secs(60);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`).
const CLK_TCK: f64 = 100.0;

/// `VmHWM` of a process in KiB; `None` once its memory is gone.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// utime + stime of a process (a zombie still reports them), seconds.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// The stable prefix of one `epoch` status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLine {
    pub epoch: u64,
    pub flows: usize,
    pub changes: usize,
}

/// Parses `epoch   N  [ a.as ..  b.bs]  F flows  C changes  verdict…`;
/// everything after `changes` (verdict, suspects, suppression notes) is
/// deliberately ignored.
pub fn parse_epoch_line(line: &str) -> Option<EpochLine> {
    let rest = line.strip_prefix("epoch ")?;
    let (head, tail) = rest.split_once(']')?;
    let epoch = head.split_whitespace().next()?.parse().ok()?;
    let mut words = tail.split_whitespace();
    let flows = words.next()?.parse().ok()?;
    if words.next()? != "flows" {
        return None;
    }
    let changes = words.next()?.parse().ok()?;
    (words.next()? == "changes").then_some(EpochLine {
        epoch,
        flows,
        changes,
    })
}

/// Parses the count out of `stats: ingest N frames decoded, …`.
pub fn parse_frames_decoded(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("stats: ingest ")?;
    let (n, tail) = rest.split_once(' ')?;
    tail.starts_with("frames decoded").then(|| n.parse().ok())?
}

/// What one finished `serve` process showed.
pub struct ServeOutput {
    /// Every stdout line after `listening on`, with its arrival time.
    pub lines: Vec<(Instant, String)>,
    pub exit_ok: bool,
    pub peak_rss_kb: u64,
    pub cpu_s: f64,
}

/// A running `serve` child. Dropping it kills and reaps the process and
/// joins its watcher threads.
pub struct ServeChild {
    child: Child,
    pub addr: SocketAddr,
    lines: Receiver<(Instant, String)>,
    peak_rss_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServeChild {
    /// Starts `serve` on an OS-chosen loopback port and waits for its
    /// `listening on` line.
    pub fn spawn(bin: &Path, baseline: &Path, shape: &ServeShape) -> Result<ServeChild, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(baseline)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--publishers", &shape.conns.to_string()])
            .args(["--shards", &shape.shards.to_string()])
            .args(["--epoch-secs", &shape.epoch_secs.to_string()])
            .args(["--window-secs", &shape.window_secs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let peak_rss_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, lines) = channel();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let reader = std::thread::spawn({
            let (pid, peak) = (pid.clone(), peak_rss_kb.clone());
            move || {
                for line in stdout.lines() {
                    let Ok(line) = line else { break };
                    let at = Instant::now();
                    // The closing `stats:` lines are the last chance to
                    // see the final high-water mark.
                    if line.starts_with("stats:") {
                        if let Some(kb) = vm_hwm_kb(&pid) {
                            peak.fetch_max(kb, Ordering::Relaxed);
                        }
                    }
                    if tx.send((at, line)).is_err() {
                        break;
                    }
                }
            }
        });
        let poller = std::thread::spawn({
            let (peak, stop) = (peak_rss_kb.clone(), stop.clone());
            move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(kb) = vm_hwm_kb(&pid) {
                        peak.fetch_max(kb, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        });
        let mut serve = ServeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            lines,
            peak_rss_kb,
            stop,
            threads: vec![reader, poller],
        };
        loop {
            let (_, line) = serve
                .lines
                .recv_timeout(LINE_TIMEOUT)
                .map_err(|_| "serve never printed its `listening on` line".to_string())?;
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                serve.addr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
                return Ok(serve);
            }
        }
    }

    /// Collects stdout to EOF, then the exit status and CPU time.
    pub fn finish(mut self) -> Result<ServeOutput, String> {
        let mut lines = Vec::new();
        loop {
            match self.lines.recv_timeout(LINE_TIMEOUT) {
                Ok(line) => lines.push(line),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    return Err("serve went silent before closing stdout".into())
                }
            }
        }
        // Stdout is closed, so the child is exiting; give it a moment
        // to become a zombie, whose stat still holds its CPU time.
        let deadline = Instant::now() + LINE_TIMEOUT;
        let status = loop {
            let cpu = cpu_seconds(&self.child.id().to_string());
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break (status, cpu),
                None if Instant::now() > deadline => return Err("serve did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        Ok(ServeOutput {
            lines,
            exit_ok: status.0.success(),
            peak_rss_kb: self.peak_rss_kb.load(Ordering::Relaxed),
            cpu_s: status.1.unwrap_or(0.0),
        })
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.child.kill();
        let _ = self.child.wait();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_real_serve_epoch_lines() {
        let healthy = "epoch   0  [    1.0s ..     6.0s]   1499 flows    0 changes  healthy";
        assert_eq!(
            parse_epoch_line(healthy),
            Some(EpochLine {
                epoch: 0,
                flows: 1499,
                changes: 0
            })
        );
        let alarm = "epoch  12  [   31.0s ..    61.0s]   8912 flows    3 changes  ALARM \
                     [host or application problem] suspects: host 10.0.0.5(2) switch 3(1)";
        assert_eq!(
            parse_epoch_line(alarm),
            Some(EpochLine {
                epoch: 12,
                flows: 8912,
                changes: 3
            })
        );
        let suppressed = "epoch 104  [ 1075.5s ..  1105.5s]      0 flows    0 changes  healthy  \
                          (8 signature(s) suppressed: Cg starved: no flow records in window)";
        assert_eq!(
            parse_epoch_line(suppressed),
            Some(EpochLine {
                epoch: 104,
                flows: 0,
                changes: 0
            })
        );
        // Wide timestamps close up against the bracket.
        let wide = "epoch 1000  [12345.0s .. 12375.0s]  12345 flows  100 changes  healthy";
        assert_eq!(parse_epoch_line(wide).map(|l| l.epoch), Some(1000));
    }

    #[test]
    fn ignores_lines_that_only_look_like_epochs() {
        assert_eq!(
            parse_epoch_line("latency epoch   3  retire_us 1 observe_us 2"),
            None
        );
        assert_eq!(
            parse_epoch_line("epoch   3  [ 1.0s .. 2.0s]  12 flows"),
            None
        );
        assert_eq!(parse_epoch_line("stats: ingest 5 frames decoded"), None);
    }

    #[test]
    fn parses_the_ingest_count() {
        let line = "stats: ingest 170437 frames decoded, 0 skipped (0 B); 0 reordered, 0 dup xids, \
                    0 orphan mods, 0 orphan removals, 0 stale attaches, 0 time jumps; 0 episodes evicted";
        assert_eq!(parse_frames_decoded(line), Some(170437));
        assert_eq!(
            parse_frames_decoded("stats: conn 0 127.0.0.1:1 handshake ok"),
            None
        );
    }
}
