//! Index of the experiment harness: lists the binaries that regenerate
//! each table and figure of the paper — plus `watch`, the supervised
//! online diff mode over on-disk captures, `serve`, the same mode over
//! live sockets, and `publish`, its capture publisher. Fault injection
//! (mangled bytes, flapping connections, planned kills) lives in the
//! tier-1 tests, not here.

use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use flowdiff::checkpoint::{BASELINE_MAGIC, CHECKPOINT_MAGIC};
use flowdiff::engine::resume_from;
use flowdiff::prelude::*;
use netsim::log::LogStream;
use netsim::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |r: CliResult| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    };
    match args.first().map(String::as_str) {
        Some("watch") => run(cmd_watch(&args[1..])),
        Some("serve") => run(cmd_serve(&args[1..])),
        Some("publish") => run(cmd_publish(&args[1..])),
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            usage();
            ExitCode::from(2)
        }
        None => {
            print_index();
            ExitCode::SUCCESS
        }
    }
}

fn usage() {
    eprintln!(
        "usage: flowdiff-bench [watch <baseline.fcap|baseline.fbas> <current.fcap> \
         [--special ip,ip] [--epoch-secs N] [--window-secs N] \
         [--save-baseline <path>] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [serve <baseline.fcap|baseline.fbas> --listen HOST:PORT \
         [--publishers N] [--queue N] [--slack-ms N] [--stall-ms N] [--heartbeat-ms N] \
         [--special ip,ip] [--epoch-secs N] \
         [--window-secs N] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [publish <current.fcap> --connect HOST:PORT [--connections N] \
         [--seed N] [--retry-budget N] [--backoff-ms N] \
         [--stall-after EVENTS --stall-ms N]]"
    );
}

fn print_index() {
    println!("FlowDiff reproduction harness. Run one experiment binary:");
    println!();
    let experiments = [
        (
            "table1",
            "Table I  - debugging with FlowDiff (7 injected problems)",
        ),
        (
            "table2",
            "Table II - robustness of application signatures (5 cases)",
        ),
        (
            "table3",
            "Table III- task-signature matching accuracy (TP/FP)",
        ),
        (
            "fig9",
            "Fig. 9   - byte count & delay CDFs under loss/logging",
        ),
        (
            "fig10",
            "Fig. 10  - delay-distribution robustness across P(x,y)/R(m,n)",
        ),
        ("fig11", "Fig. 11  - partial-correlation stability"),
        (
            "fig12",
            "Fig. 12  - component interaction at node S4 + chi-squared",
        ),
        (
            "fig13",
            "Fig. 13  - scalability: PacketIn rate & processing time",
        ),
    ];
    for (bin, desc) in experiments {
        println!("  cargo run --release -p flowdiff-bench --bin {bin:<7}  # {desc}");
    }
    println!();
    println!("Online mode over captures (see flowdiff_cli demo to make them):");
    println!("  cargo run --release -p flowdiff-bench -- watch baseline.fcap current.fcap");
    println!();
    println!("Served mode (diagnose live control-log publishers over TCP):");
    println!(
        "  cargo run --release -p flowdiff-bench -- serve baseline.fcap --listen 127.0.0.1:7654"
    );
    println!(
        "  cargo run --release -p flowdiff-bench -- publish current.fcap \
         --connect 127.0.0.1:7654 --connections 4"
    );
    println!();
    println!("End-to-end and per-layer benchmark (four workloads, see benchmark/README.md):");
    println!("  benchmark/run.sh");
}

type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// One subcommand's `--flag value` arguments, read left to right.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args: args.iter() }
    }

    /// The next flag's name; its value, if it takes one, is read next.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    fn value(&mut self, flag: &str) -> CliResult<&'a str> {
        self.next_flag()
            .ok_or_else(|| format!("{flag} needs a value").into())
    }

    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> CliResult<T>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| format!("{flag} {value}: {e}").into())
    }

    /// A duration given in units of `unit_us` microseconds, as
    /// microseconds.
    fn micros(&mut self, flag: &str, unit_us: u64) -> CliResult<u64> {
        let n: u64 = self.num(flag)?;
        n.checked_mul(unit_us)
            .ok_or_else(|| format!("{flag} {n}: too large").into())
    }

    /// [`Flags::micros`] of at least one unit.
    fn positive_micros(&mut self, flag: &str, unit_us: u64) -> CliResult<u64> {
        match self.micros(flag, unit_us)? {
            0 => Err(format!("{flag} must be at least 1").into()),
            us => Ok(us),
        }
    }

    /// A count that must be at least 1.
    fn count(&mut self, flag: &str) -> CliResult<usize> {
        match self.num(flag)? {
            0 => Err(format!("{flag} must be at least 1").into()),
            n => Ok(n),
        }
    }

    fn path(&mut self, flag: &str) -> CliResult<PathBuf> {
        Ok(self.value(flag)?.into())
    }

    /// A comma-separated address list.
    fn ips(&mut self, flag: &str) -> CliResult<Vec<Ipv4Addr>> {
        let value = self.value(flag)?;
        (value.split(','))
            .map(|ip| ip.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{flag} {value}: {e}").into())
    }
}

fn unknown_flag(flag: &str) -> Box<dyn std::error::Error> {
    format!("unknown flag: {flag}").into()
}

/// Loads the baseline argument of `watch`/`serve`: either a wire
/// capture (`FDIFFCAP`, model built and judged here) or a precomputed
/// [`BaselineBundle`] (`FDIFFBAS`, validated magic/version/CRC). A file
/// that is neither — including a checkpoint offered as a baseline — is
/// a typed error before any diffing happens.
fn load_baseline(path: &str, config: &FlowDiffConfig) -> CliResult<BaselineBundle> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let bundle = if bytes.starts_with(&BASELINE_MAGIC) {
        let bundle = BaselineBundle::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "baseline: restored bundle, {} flows, {} groups",
            bundle.model.records.len(),
            bundle.model.groups.len()
        );
        bundle
    } else if bytes.starts_with(&CHECKPOINT_MAGIC) {
        return Err(format!(
            "{path}: this is a checkpoint (FDIFFCKP), not a baseline; pass it to --resume"
        )
        .into());
    } else {
        let log = ControllerLog::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let model = BehaviorModel::build(&log, config);
        let stability = analyze(&log, &model, config);
        println!(
            "baseline: {} events, {} flows, {} groups",
            log.len(),
            model.records.len(),
            model.groups.len()
        );
        BaselineBundle { model, stability }
    };
    let model = &bundle.model;
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        model.catalog().n_hosts(),
        model.catalog().n_switches(),
        model.catalog().n_ports(),
        model.approx_bytes().div_ceil(1024),
        model.catalog().approx_bytes().div_ceil(1024)
    );
    Ok(bundle)
}

/// Decodes a capture file whole, tolerantly: corrupt frames are skipped
/// (the stream resynchronizes) with a warning, not fatal — a live tap
/// must survive a bad write. Each event goes through `convert` as it is
/// decoded. An empty capture is an error.
fn decode_capture<E>(
    path: &str,
    convert: impl Fn(ControlEvent) -> E,
) -> CliResult<(Vec<E>, netsim::log::StreamStats)> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut stream = LogStream::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(convert(event)),
            Err(e) => eprintln!("warning: {path}: {e} (resynchronized)"),
        }
    }
    if events.is_empty() {
        return Err(format!("{path}: capture holds no events").into());
    }
    Ok((events, stream.stats()))
}

/// What `watch` and `serve` share: the config their flags shape and
/// where checkpoints go to and come from.
struct OnlineOpts {
    config: FlowDiffConfig,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    /// `watch` only.
    save_baseline: Option<PathBuf>,
    /// `serve` only.
    listen: Option<String>,
    /// `serve` only.
    publishers: usize,
}

impl OnlineOpts {
    /// Reads the flags of `watch`, or of `serve` when `serve` is set;
    /// the other subcommand's own flags are unknown.
    fn parse(args: &[String], serve: bool) -> CliResult<OnlineOpts> {
        let mut opts = OnlineOpts {
            config: FlowDiffConfig::default(),
            checkpoint: None,
            resume: None,
            save_baseline: None,
            listen: None,
            publishers: 1,
        };
        let config = &mut opts.config;
        let mut shards = None;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--shards" => shards = Some(flags.count(flag)?),
                "--special" => config.special_ips = flags.ips(flag)?.into_iter().collect(),
                "--epoch-secs" => {
                    config.online_epoch_us = flags.positive_micros(flag, 1_000_000)?
                }
                "--window-secs" => {
                    config.online_window_us = flags.positive_micros(flag, 1_000_000)?
                }
                "--checkpoint" => opts.checkpoint = Some(flags.path(flag)?),
                "--checkpoint-every" => config.checkpoint_every_epochs = flags.count(flag)? as u64,
                "--resume" => opts.resume = Some(flags.path(flag)?),
                "--save-baseline" if !serve => opts.save_baseline = Some(flags.path(flag)?),
                "--listen" if serve => opts.listen = Some(flags.value(flag)?.to_string()),
                "--publishers" if serve => opts.publishers = flags.count(flag)?,
                "--queue" if serve => config.ingest_queue_events = flags.count(flag)?,
                "--slack-ms" if serve => config.reorder_slack_us = flags.micros(flag, 1_000)?,
                "--stall-ms" if serve => {
                    config.ingest_stall_timeout_us = flags.micros(flag, 1_000)?
                }
                "--heartbeat-ms" if serve => {
                    config.ingest_heartbeat_us = flags.micros(flag, 1_000)?
                }
                other => return Err(unknown_flag(other)),
            }
        }
        if let Some(n) = shards {
            eprintln!("note: --shards {n} is ignored: one differ serves every run");
        }
        // A live tap reads possibly-corrupt bytes, off a file or straight
        // off sockets: quarantine timestamps jumping past the eviction
        // horizon instead of trusting them.
        config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
        config.validate()?;
        Ok(opts)
    }
}

/// Runs `events` through the supervised engine the way `watch` and
/// `serve` both do: a fresh differ (or the one `--resume` restores, if
/// it was written against the baseline loaded from `baseline_path`,
/// which then skips the events its checkpoint consumed), checkpoints at
/// `--checkpoint`, one `epoch` and one `latency epoch` line per
/// boundary.
fn run_online(
    events: impl Iterator<Item = FlowEvent>,
    opts: &OnlineOpts,
    (baseline_path, baseline): (&str, &Arc<BaselineBundle>),
    degraded: Option<&dyn Fn() -> Option<String>>,
) -> CliResult<RunReport> {
    let config = &opts.config;
    let start = match &opts.resume {
        None => (OnlineDiffer::try_new(Arc::clone(baseline), config)?, 0),
        Some(path) => {
            let (differ, at) = resume_from(path, baseline, config).map_err(|e| match e {
                PersistError::BaselineMismatch { .. } => format!(
                    "{}: checkpoint was written against a different baseline than {baseline_path}",
                    path.display()
                ),
                e => format!("{}: {e}", path.display()),
            })?;
            println!(
                "stats: resumed from {} at event {at}, epoch {}",
                path.display(),
                differ.epoch()
            );
            (differ, at)
        }
    };
    let supervision = Supervision {
        config,
        checkpoint_path: opts.checkpoint.as_deref(),
        degraded,
    };
    Ok(supervise(
        start,
        events,
        &supervision,
        |snapshot, timings| {
            report(snapshot, config);
            report_latency(snapshot.epoch, timings);
        },
    )?)
}

/// The tail every online run prints: the flushed epoch and ingest
/// health.
fn report_run(run: &RunReport, config: &FlowDiffConfig) {
    if let Some(snapshot) = &run.last {
        report(snapshot, config);
    }
    println!("stats: ingest {}", run.health);
}

/// `watch`: model a baseline capture (or load a prebuilt bundle), then
/// stream the current capture through the supervised engine. A panic
/// ends the run; `--resume` from the last `--checkpoint` picks it up.
fn cmd_watch(args: &[String]) -> CliResult {
    if args.len() < 2 {
        usage();
        return Err("watch needs <baseline.fcap|.fbas> <current.fcap>".into());
    }
    let opts = OnlineOpts::parse(&args[2..], false)?;
    let baseline = Arc::new(load_baseline(&args[0], &opts.config)?);
    if let Some(path) = &opts.save_baseline {
        baseline.save(path)?;
        println!("stats: baseline bundle saved to {}", path.display());
    }
    let (events, stream_stats) = decode_capture(&args[1], |e| FlowEvent::from(&e))?;
    let judge = (args[0].as_str(), &baseline);
    let mut run = run_online(events.into_iter(), &opts, judge, None)?;
    run.health.absorb_stream(stream_stats);
    report_run(&run, &opts.config);
    Ok(())
}

/// `serve`: `watch` with the current capture arriving over TCP. Binds a
/// listen socket, waits for `--publishers` session streams (`FDIFFSES`
/// handshake, then `.fcap`-framed bytes in `Data` records), decodes
/// each connection incrementally with resynchronization, re-sequences
/// the streams through a `(timestamp, connection)` merge, and feeds the
/// same supervised engine as `watch` — for publishers produced by
/// `flowdiff-bench publish` the `epoch ` lines are byte-identical to a
/// file-based run over the interleaved capture.
fn cmd_serve(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("serve needs <baseline.fcap|.fbas> --listen HOST:PORT".into());
    }
    let opts = OnlineOpts::parse(&args[1..], true)?;
    let config = &opts.config;
    let listen = (opts.listen.as_deref()).ok_or("serve needs --listen HOST:PORT")?;
    let baseline = Arc::new(load_baseline(&args[0], config)?);

    let server = IngestServer::bind(listen).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.local_addr()?;
    // The line CI (and any supervisor) polls for before launching
    // publishers; with `--listen host:0` it carries the chosen port.
    println!("listening on {addr} for {} publisher(s)", opts.publishers);
    let mut live = server
        .live(
            opts.publishers,
            config.ingest_queue_events,
            LiveOptions {
                stall_timeout_us: config.ingest_stall_timeout_us,
                heartbeat_us: config.ingest_heartbeat_us,
            },
        )
        .map_err(|e| format!("accept: {e}"))?;
    // The merge is pulled *on demand*: epochs are diffed and printed
    // while publishers are still connected. Backpressure still holds —
    // each connection feeds a bounded queue, so a publisher far ahead
    // of the merge blocks on TCP, not on server memory.
    let merge = live.take_merge();
    // While any stream is stalled or dead its share of the window is
    // missing; the differ gates those epochs' diffs to Suppressed
    // instead of alarming on behavior the wire never delivered.
    let gauges = live.gauges();
    let degraded = move || -> Option<String> {
        let down: Vec<String> = gauges
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_degraded())
            .map(|(i, g)| format!("conn {i} {}", g.state()))
            .collect();
        (!down.is_empty()).then(|| down.join(", "))
    };
    let judge = (args[0].as_str(), &baseline);
    let mut run = run_online(merge, &opts, judge, Some(&degraded))?;

    let refused = live.refused();
    if refused > 0 {
        println!("stats: refused {refused} connection(s) that did not open a session");
    }
    for r in &live.finish() {
        for e in &r.first_errors {
            eprintln!("warning: conn {}: {e} (resynchronized)", r.index);
        }
        println!("stats: conn {}", conn_line(r));
        run.health.absorb_stream(r.stats);
        run.health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    if run.events == 0 {
        return Err("publishers delivered no events".into());
    }
    report_run(&run, config);
    Ok(())
}

/// `publish`: the replay client for `serve`. Reads a capture, deals it
/// across `--connections` publisher streams (equal-timestamp runs never
/// straddle streams, so the server's merge reconstructs the capture
/// order exactly), and replays every stream concurrently as a resumable
/// session publisher. `--stall-after` wedges the first connection once,
/// for the stalled-publisher drill.
fn cmd_publish(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("publish needs <current.fcap> --connect HOST:PORT".into());
    }
    let mut connect: Option<&str> = None;
    let mut connections: usize = 1;
    let mut seed: u64 = 1;
    let mut retry_budget: u32 = 0;
    let mut backoff_us: u64 = 200_000;
    let mut stall_after: u64 = 0;
    let mut stall_ms: u64 = 0;
    let mut flags = Flags::new(&args[1..]);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--connect" => connect = Some(flags.value(flag)?),
            "--connections" => connections = flags.count(flag)?,
            "--seed" => seed = flags.num(flag)?,
            "--retry-budget" => retry_budget = flags.num(flag)?,
            "--backoff-ms" => backoff_us = flags.micros(flag, 1_000)?,
            "--stall-after" => stall_after = flags.num(flag)?,
            "--stall-ms" => stall_ms = flags.num(flag)?,
            other => return Err(unknown_flag(other)),
        }
    }
    let connect = connect.ok_or("publish needs --connect HOST:PORT")?;

    // Tolerant decode, like `watch`: a capture with a bad write is
    // replayed minus the corrupt frames, not rejected.
    let (events, _) = decode_capture(&args[0], |e| e)?;
    let log: ControllerLog = events.into_iter().collect();

    let mut handles = Vec::new();
    for (i, part) in split_capture(&log, connections).into_iter().enumerate() {
        let addr = connect.to_string();
        let session = seed.wrapping_mul(0x10_000).wrapping_add(i as u64);
        let mut faults = Vec::new();
        // Only the first connection is stalled: one wedged publisher
        // among healthy siblings is exactly the stalled-source scenario
        // the serve smoke drills.
        if stall_after > 0 && i == 0 {
            faults.push((stall_after, ConnFault::Stall { ms: stall_ms }));
        }
        let opts = SessionOptions {
            session,
            retry_budget,
            backoff_us,
            plan: Some(ConnPlan::at(faults)),
        };
        handles.push(std::thread::spawn(move || {
            publish_session(addr.as_str(), &part, &opts)
        }));
    }
    let mut total = PublishReport::default();
    let mut first_err: Option<String> = None;
    for (i, handle) in handles.into_iter().enumerate() {
        let r = match handle.join().expect("publisher thread must not panic") {
            Ok(r) => r,
            Err(e) => {
                // Keep joining: sibling connections must finish (or
                // fail on their own terms) before the process exits.
                println!("publish: conn {i} FAILED: {e}");
                if first_err.is_none() {
                    first_err = Some(format!("conn {i}: {e}"));
                }
                continue;
            }
        };
        println!(
            "publish: conn {i} sent {} bytes, {} events ({} connect(s), \
             {} resume(s), {} retry(s), {} fault(s))",
            r.bytes_sent, r.events, r.connects, r.resumes, r.retries, r.faults
        );
        total.bytes_sent += r.bytes_sent;
        total.events += r.events;
    }
    println!(
        "publish: {connections} connection(s), {} bytes, {} events total",
        total.bytes_sent, total.events
    );
    match first_err {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// The body of one `stats: conn` line: lifetime accounting for a
/// logical ingest stream, final state and disconnect cause included.
fn conn_line(r: &netsim::net::ConnReport) -> String {
    let peer = r
        .peer
        .map(|p| p.to_string())
        .unwrap_or_else(|| "-".to_string());
    let session = r
        .session
        .map(|s| format!(" session {s:#x}"))
        .unwrap_or_default();
    let cause = r
        .cause
        .map(|c| c.to_string())
        .unwrap_or_else(|| "never connected".to_string());
    format!(
        "{} {peer}{session} handshake {}, {} bytes, {} events, \
         {} skipped frame(s) ({} bytes), state {} ({cause}), \
         {} connect(s), {} resume(s), {} stall(s), {} drop(s)",
        r.index,
        if r.handshake_ok { "ok" } else { "FAILED" },
        r.bytes_read,
        r.events,
        r.stats.frames_skipped,
        r.stats.bytes_skipped,
        r.state,
        r.connects,
        r.resumes,
        r.stalls,
        r.disconnects
    )
}

/// One per-epoch latency breakdown line. Deliberately NOT prefixed
/// `epoch ` — wall-clock differs between runs, and CI diffs `epoch `
/// lines byte-for-byte.
fn report_latency(epoch: u64, timings: EpochTimings) {
    println!(
        "latency epoch {epoch:>3}  retire_us {} observe_us {} snapshot_us {} diff_us {}",
        timings.retire_us, timings.observe_us, timings.snapshot_us, timings.diff_us
    );
}

/// One status line per epoch snapshot.
fn report(snapshot: &EpochSnapshot, config: &FlowDiffConfig) {
    let diagnosis = snapshot.diagnose(&[], config);
    let gated = snapshot.suppressed().count();
    let mut verdict = if diagnosis.is_healthy() {
        "healthy".to_string()
    } else {
        let problems = diagnosis
            .problems
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        let suspects = diagnosis
            .ranking
            .iter()
            .take(3)
            .map(|(c, n)| format!("{c}({n})"))
            .collect::<Vec<_>>()
            .join(" ");
        format!("ALARM [{problems}] suspects: {suspects}")
    };
    if gated > 0 {
        let sample = snapshot
            .suppressed()
            .next()
            .map(|(k, h)| format!("{k:?} {h}"))
            .unwrap_or_default();
        verdict.push_str(&format!("  ({gated} signature(s) suppressed: {sample})"));
    }
    println!(
        "epoch {:>3}  [{:>7.1}s .. {:>7.1}s]  {:>5} flows  {:>3} changes  {}",
        snapshot.epoch,
        snapshot.window.0.as_secs_f64(),
        snapshot.window.1.as_secs_f64(),
        snapshot.records,
        snapshot.diff.change_count(),
        verdict
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowdiff-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn duration_flags_reject_values_that_overflow_microseconds() {
        let args = |flag: &str, value: u64| vec![flag.to_string(), value.to_string()];
        let secs = u64::MAX / 1_000_000 + 1;
        let ms = u64::MAX / 1_000 + 1;
        for (flag, value, serve) in [
            ("--epoch-secs", secs, false),
            ("--window-secs", secs, false),
            ("--slack-ms", ms, true),
            ("--stall-ms", ms, true),
            ("--heartbeat-ms", ms, true),
        ] {
            let err = OnlineOpts::parse(&args(flag, value), serve).err().unwrap();
            assert_eq!(err.to_string(), format!("{flag} {value}: too large"));
        }
        let mut publish = args("--backoff-ms", ms);
        publish.insert(0, "current.fcap".to_string());
        let err = cmd_publish(&publish).unwrap_err();
        assert_eq!(err.to_string(), format!("--backoff-ms {ms}: too large"));
        // The byte-mangling and flapping drills are tier-1 tests over the
        // library, not publish flags.
        for flag in ["--chaos", "--skew-us", "--jitter-us", "--flaps"] {
            let args = ["current.fcap", flag, "1"].map(String::from);
            let err = cmd_publish(&args).unwrap_err();
            assert_eq!(err.to_string(), format!("unknown flag: {flag}"));
        }
        for (flag, serve) in [
            ("--epoch-secs", false),
            ("--window-secs", false),
            ("--checkpoint-every", false),
            ("--queue", true),
        ] {
            let err = OnlineOpts::parse(&args(flag, 0), serve).err().unwrap();
            assert_eq!(err.to_string(), format!("{flag} must be at least 1"));
        }
        // The largest value that fits still parses.
        let opts = OnlineOpts::parse(&args("--slack-ms", ms - 1), true).unwrap();
        assert_eq!(opts.config.reorder_slack_us, (ms - 1) * 1_000);
        // An address list names the flag and the value too.
        let special = ["--special", "10.0.0.1,10.0.0"].map(String::from);
        let err = OnlineOpts::parse(&special, false).err().unwrap();
        assert_eq!(
            err.to_string(),
            "--special 10.0.0.1,10.0.0: invalid IPv4 address syntax"
        );
    }

    /// Writes a small tree capture to the temp dir; returns its path.
    fn capture(name: &str, seed: u64) -> String {
        let path = tmp(name);
        let (log, _) = flowdiff_bench::tree_capture(1, seed, 6);
        std::fs::write(&path, log.to_wire_bytes()).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// `watch` at 1 s epochs over a 2 s window, plus `flags`.
    fn watch(baseline: &str, current: &str, flags: &[&str]) -> CliResult {
        let shape = ["--epoch-secs", "1", "--window-secs", "2"];
        let args = [baseline, current]
            .into_iter()
            .chain(shape)
            .chain(flags.iter().copied());
        cmd_watch(&args.map(String::from).collect::<Vec<_>>())
    }

    /// `watch`'s `epoch ` lines over the two captures under `flags`,
    /// read off a child copy of this test binary that runs
    /// `watch_in_a_child` with its stdout uncaptured.
    fn watch_epoch_lines(baseline: &str, current: &str, flags: &str) -> Vec<String> {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["tests::watch_in_a_child", "--exact", "--nocapture"])
            .env("FLOWDIFF_WATCH_ARGS", [baseline, current, flags].join("\n"))
            .output()
            .unwrap();
        assert!(out.status.success(), "child exited {}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let epochs = stdout.lines().filter(|l| l.starts_with("epoch "));
        epochs.map(String::from).collect()
    }

    /// The child half of `watch_epoch_lines`; without its arguments in
    /// the environment it does nothing.
    #[test]
    fn watch_in_a_child() {
        let Ok(args) = std::env::var("FLOWDIFF_WATCH_ARGS") else {
            return;
        };
        let args: Vec<&str> = args.split('\n').collect();
        let flags: Vec<&str> = args[2].split_whitespace().collect();
        watch(args[0], args[1], &flags).unwrap();
    }

    #[test]
    fn shards_flag_leaves_every_epoch_line_as_it_is() {
        let (baseline, current) = (
            capture("shards-a.fcap", 1),
            capture("shards-current.fcap", 3),
        );
        let plain = watch_epoch_lines(&baseline, &current, "");
        assert!(plain.len() >= 5, "{} epoch lines", plain.len());
        assert_eq!(watch_epoch_lines(&baseline, &current, "--shards 4"), plain);
    }

    #[test]
    fn resume_takes_the_saved_bundle_of_the_checkpointed_capture() {
        // A checkpoint names its baseline by content, so the capture it
        // was written against and that capture's `--save-baseline`
        // bundle are one baseline.
        let (baseline, current) = (capture("saved-a.fcap", 1), capture("saved-current.fcap", 3));
        let (bundle, ckpt) = (tmp("saved-a.fbas"), tmp("saved.ckpt"));
        let (bundle, ckpt) = (bundle.to_str().unwrap(), ckpt.to_str().unwrap());
        let first = ["--save-baseline", bundle, "--checkpoint", ckpt];
        watch(&baseline, &current, &first).unwrap();
        watch(bundle, &current, &["--resume", ckpt]).unwrap();
    }

    #[test]
    fn resume_refuses_a_checkpoint_written_against_another_baseline() {
        let (baseline, other) = (capture("resume-a.fcap", 1), capture("resume-b.fcap", 2));
        let current = capture("resume-current.fcap", 3);
        let ckpt = tmp("resume-baseline.ckpt");
        let ckpt = ckpt.to_str().unwrap();
        watch(&baseline, &current, &["--checkpoint", ckpt]).unwrap();

        let err = watch(&other, &current, &["--resume", ckpt]).unwrap_err();
        let err = err.to_string();
        assert!(err.contains(ckpt) && err.contains(&other), "got: {err}");
        assert!(err.contains("different baseline"), "got: {err}");
        // The baseline it was written against still resumes.
        watch(&baseline, &current, &["--resume", ckpt]).unwrap();
    }

    #[test]
    fn watch_rejects_future_version_baseline_bundle() {
        // A bundle stamped with a version this build cannot read must be
        // refused before any diffing, not decoded on faith.
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let bundle = BaselineBundle {
            model,
            stability: StabilityReport::all_stable(&BehaviorModel::build(&log, &config)),
        };
        let mut bytes = bundle.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let path = tmp("future-version.fbas");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(
            err.to_string().contains("unsupported format version 99"),
            "got: {err}"
        );
    }

    #[test]
    fn watch_rejects_checkpoint_offered_as_baseline() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let differ = OnlineDiffer::new(model, stability, &config);
        let path = tmp("not-a-baseline.ckpt");
        std::fs::write(&path, Checkpoint::capture(&differ, 0, &config).to_bytes()).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "got: {err}");
    }

    #[test]
    fn watch_rejects_corrupt_baseline_bundle() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let bundle = BaselineBundle { model, stability };
        let mut bytes = bundle.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let path = tmp("corrupt.fbas");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "got: {err}");
        // Truncation is caught too.
        std::fs::write(&path, &bundle.to_bytes()[..16]).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
    }
}
