//! Index of the experiment harness: lists the binaries that regenerate
//! each table and figure of the paper — plus `watch`, the supervised
//! online diff mode over on-disk captures, `serve`, the same mode over
//! live sockets, and `publish`, its capture publisher; `chaos`, the
//! ingestion fault drill, `flapdrill`, the connection-fault drill, and
//! `crashdrill`, the crash-recovery drill.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flowdiff::checkpoint::{fnv1a, BASELINE_MAGIC, CHECKPOINT_MAGIC};
use flowdiff::engine::{resume_from, EngineResult, Restored};
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
        Some("chaos") => run(cmd_chaos(&args[1..])),
        Some("flapdrill") => run(cmd_flapdrill(&args[1..])),
        Some("crashdrill") => run(cmd_crashdrill(&args[1..])),
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
         [--special ip,ip] [--epoch-secs N] [--window-secs N] [--shards N] \
         [--save-baseline <path>] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [serve <baseline.fcap|baseline.fbas> --listen HOST:PORT \
         [--publishers N] [--queue N] [--slack-ms N] [--stall-ms N] [--heartbeat-ms N] \
         [--special ip,ip] [--epoch-secs N] \
         [--window-secs N] [--shards N] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [publish <current.fcap> --connect HOST:PORT [--connections N] \
         [--chaos RATE] [--seed N] [--skew-us N] [--jitter-us N] \
         [--retry-budget N] [--backoff-ms N] [--flaps N] \
         [--stall-after EVENTS --stall-ms N]]\n       \
         flowdiff-bench [chaos [--seed N] [--corruption RATE] \
         [--skew-us N] [--jitter-us N] [--shards N] [--wire] [--connections N]]\n       \
         flowdiff-bench [flapdrill [--seed N] [--flaps N] [--stalls N] [--trickles N] \
         [--connections N] [--shards N] [--merge-stall-ms N]]\n       \
         flowdiff-bench [crashdrill [--seed N] [--kills N] [--shards N] [--kill-worker]]"
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
    println!("Ingestion fault drill (chaos-mangled 320-server capture):");
    println!("  cargo run --release -p flowdiff-bench -- chaos --seed 1 --corruption 0.01");
    println!();
    println!("Connection fault drill (flapping/stalling session publishers vs clean wire run):");
    println!("  cargo run --release -p flowdiff-bench -- flapdrill --seed 1 --flaps 2");
    println!();
    println!("Crash-recovery drill (kill + checkpoint-restore on the 320-server capture):");
    println!("  cargo run --release -p flowdiff-bench -- crashdrill --seed 1 --kills 3");
    println!("  cargo run --release -p flowdiff-bench -- crashdrill --shards 4 --kill-worker");
    println!();
    println!("End-to-end and per-layer benchmark (four workloads, see benchmark/README.md):");
    println!("  benchmark/run.sh");
}

type CliResult = EngineResult<()>;

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

    fn value(&mut self, flag: &str) -> EngineResult<&'a str> {
        self.next_flag()
            .ok_or_else(|| format!("{flag} needs a value").into())
    }

    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> EngineResult<T>
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
    fn micros(&mut self, flag: &str, unit_us: u64) -> EngineResult<u64> {
        let n: u64 = self.num(flag)?;
        n.checked_mul(unit_us)
            .ok_or_else(|| format!("{flag} {n}: too large").into())
    }

    /// A count that must be at least 1.
    fn count(&mut self, flag: &str) -> EngineResult<usize> {
        match self.num(flag)? {
            0 => Err(format!("{flag} must be at least 1").into()),
            n => Ok(n),
        }
    }

    fn path(&mut self, flag: &str) -> EngineResult<PathBuf> {
        Ok(self.value(flag)?.into())
    }

    /// A comma-separated address list.
    fn ips(&mut self, flag: &str) -> EngineResult<Vec<Ipv4Addr>> {
        let mut ips = Vec::new();
        for ip in self.value(flag)?.split(',') {
            ips.push(ip.trim().parse()?);
        }
        Ok(ips)
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
fn load_baseline(
    path: &str,
    config: &FlowDiffConfig,
) -> EngineResult<(BehaviorModel, StabilityReport)> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (model, stability) = if bytes.starts_with(&BASELINE_MAGIC) {
        let bundle = BaselineBundle::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "baseline: restored bundle, {} flows, {} groups",
            bundle.model.records.len(),
            bundle.model.groups.len()
        );
        (bundle.model, bundle.stability)
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
        (model, stability)
    };
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        model.catalog.n_hosts(),
        model.catalog.n_switches(),
        model.catalog.n_ports(),
        model.approx_bytes().div_ceil(1024),
        model.catalog.approx_bytes().div_ceil(1024)
    );
    Ok((model, stability))
}

/// Decodes a capture file whole, tolerantly: corrupt frames are skipped
/// (the stream resynchronizes) with a warning, not fatal — a live tap
/// must survive a bad write. An empty capture is an error.
fn decode_capture(path: &str) -> EngineResult<(Vec<ControlEvent>, netsim::log::StreamStats)> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut stream = LogStream::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut events: Vec<ControlEvent> = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(event.into_owned()),
            Err(e) => eprintln!("warning: {path}: {e} (resynchronized)"),
        }
    }
    if events.is_empty() {
        return Err(format!("{path}: capture holds no events").into());
    }
    Ok((events, stream.stats()))
}

/// What `watch` and `serve` share: the config their flags shape, the
/// deployment shape, and where checkpoints go to and come from.
struct OnlineOpts {
    config: FlowDiffConfig,
    shards: usize,
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
    fn parse(args: &[String], serve: bool) -> EngineResult<OnlineOpts> {
        let mut opts = OnlineOpts {
            config: FlowDiffConfig::default(),
            shards: 1,
            checkpoint: None,
            resume: None,
            save_baseline: None,
            listen: None,
            publishers: 1,
        };
        let config = &mut opts.config;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--shards" => opts.shards = flags.count(flag)?,
                "--special" => config.special_ips = flags.ips(flag)?.into_iter().collect(),
                "--epoch-secs" => {
                    config.online_epoch_us = flags.micros(flag, 1_000_000)?.max(1_000_000);
                }
                "--window-secs" => {
                    config.online_window_us = flags.micros(flag, 1_000_000)?.max(1_000_000);
                }
                "--checkpoint" => opts.checkpoint = Some(flags.path(flag)?),
                "--checkpoint-every" => config.checkpoint_every_epochs = flags.num(flag)?,
                "--resume" => opts.resume = Some(flags.path(flag)?),
                "--save-baseline" if !serve => opts.save_baseline = Some(flags.path(flag)?),
                "--listen" if serve => opts.listen = Some(flags.value(flag)?.to_string()),
                "--publishers" if serve => opts.publishers = flags.count(flag)?,
                "--queue" if serve => config.ingest_queue_events = flags.num(flag)?,
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
        // A live tap reads possibly-corrupt bytes, off a file or straight
        // off sockets: quarantine timestamps jumping past the eviction
        // horizon instead of trusting them.
        config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
        config.validate()?;
        Ok(opts)
    }
}

/// Runs `feed` through the supervised engine the way `watch` and
/// `serve` both do: a differ in the shape `--shards` asks for (or the
/// one `--resume` restores), checkpoints at `--checkpoint`, one `epoch`
/// and one `latency epoch` line per boundary.
fn run_online(
    feed: &mut Feed<'_>,
    opts: &OnlineOpts,
    baseline: &BehaviorModel,
    stability: &StabilityReport,
    degraded: Option<&dyn Fn() -> Option<String>>,
) -> EngineResult<RunReport> {
    let config = &opts.config;
    let fresh = || -> EngineResult<(Differ, u64)> {
        let Some(path) = &opts.resume else {
            let differ = Differ::try_new(baseline.clone(), stability.clone(), config, opts.shards)?;
            return Ok((differ, 0));
        };
        let (differ, at) = resume_from(path, config)?;
        println!(
            "stats: resumed from {} at event {at}, epoch {}",
            path.display(),
            differ.epoch()
        );
        Ok((differ, at))
    };
    let supervision = Supervision {
        config,
        checkpoint_path: opts.checkpoint.as_deref(),
        degraded,
    };
    supervise(feed, &fresh, &supervision, |_, snapshot, timings| {
        report(snapshot, config);
        report_latency(snapshot.epoch, timings);
    })
}

/// The tail every online run prints: the flushed epoch, restarts
/// survived, shard loads, ingest health.
fn report_run(run: &RunReport, config: &FlowDiffConfig) {
    if let Some(snapshot) = &run.last {
        report(snapshot, config);
    }
    if run.restarts > 0 {
        println!(
            "stats: survived {} restart(s) within a budget of {}",
            run.restarts, config.restart_budget
        );
    }
    if let Some((stats, merge_us)) = &run.shards {
        let per_shard = stats
            .iter()
            .map(|s| format!("{}:{}r/{}e", s.shard, s.records, s.open_episodes))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "stats: {} shard(s), merge {merge_us} us total; final load (records/episodes) {per_shard}",
            stats.len()
        );
    }
    println!("stats: ingest {}", run.health);
}

/// `watch`: model a baseline capture (or load a prebuilt bundle), then
/// stream the current capture through the supervised engine — panics
/// restore the last durable checkpoint and replay, and each epoch line
/// is printed exactly once no matter how many restarts it took.
fn cmd_watch(args: &[String]) -> CliResult {
    if args.len() < 2 {
        usage();
        return Err("watch needs <baseline.fcap|.fbas> <current.fcap>".into());
    }
    let opts = OnlineOpts::parse(&args[2..], false)?;
    let (baseline, stability) = load_baseline(&args[0], &opts.config)?;
    if let Some(path) = &opts.save_baseline {
        BaselineBundle {
            model: baseline.clone(),
            stability: stability.clone(),
        }
        .save(path)?;
        println!("stats: baseline bundle saved to {}", path.display());
    }
    // The whole current capture is decoded up front: the supervised
    // loop needs random access to replay from a checkpoint's offset.
    let (events, stream_stats) = decode_capture(&args[1])?;
    let mut run = run_online(
        &mut Feed::Slice(&events),
        &opts,
        &baseline,
        &stability,
        None,
    )?;
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
    let (baseline, stability) = load_baseline(&args[0], config)?;

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
    let mut feed = Feed::live(live.take_merge());
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
    let mut run = run_online(&mut feed, &opts, &baseline, &stability, Some(&degraded))?;

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
    if feed.pulled() == 0 {
        return Err("publishers delivered no events".into());
    }
    report_run(&run, config);
    Ok(())
}

/// `publish`: the replay client for `serve`. Reads a capture, deals it
/// across `--connections` publisher streams (equal-timestamp runs never
/// straddle streams, so the server's merge reconstructs the capture
/// order exactly), and replays every stream concurrently as a session
/// publisher: resumable, behind an optional connection-fault plan
/// (`--flaps`, `--stall-after`), or — through the seeded
/// [`ChannelChaos`] network-fault proxy, each connection with its own
/// derived seed — as a one-shot mangled payload.
fn cmd_publish(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("publish needs <current.fcap> --connect HOST:PORT".into());
    }
    let mut connect: Option<&str> = None;
    let mut connections: usize = 1;
    let mut chaos_rate: f64 = 0.0;
    let mut seed: u64 = 1;
    let mut skew_us: u64 = 0;
    let mut jitter_us: u64 = 0;
    let mut retry_budget: u32 = 0;
    let mut backoff_ms: u64 = 200;
    let mut flaps: usize = 0;
    let mut stall_after: u64 = 0;
    let mut stall_ms: u64 = 0;
    let mut flags = Flags::new(&args[1..]);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--connect" => connect = Some(flags.value(flag)?),
            "--connections" => connections = flags.count(flag)?,
            "--chaos" => {
                chaos_rate = flags.num(flag)?;
                if !(0.0..=1.0).contains(&chaos_rate) {
                    return Err("--chaos must be in [0, 1]".into());
                }
            }
            "--seed" => seed = flags.num(flag)?,
            "--skew-us" => skew_us = flags.num(flag)?,
            "--jitter-us" => jitter_us = flags.num(flag)?,
            "--retry-budget" => retry_budget = flags.num(flag)?,
            "--backoff-ms" => backoff_ms = flags.num(flag)?,
            "--flaps" => flaps = flags.num(flag)?,
            "--stall-after" => stall_after = flags.num(flag)?,
            "--stall-ms" => stall_ms = flags.num(flag)?,
            other => return Err(unknown_flag(other)),
        }
    }
    let connect = connect.ok_or("publish needs --connect HOST:PORT")?;
    let mangled = chaos_rate > 0.0 || skew_us > 0 || jitter_us > 0;
    if mangled && (retry_budget > 0 || flaps > 0 || stall_after > 0) {
        return Err(
            "--chaos/--skew-us/--jitter-us corrupt the stream, which makes the \
             event-count resume watermark meaningless: a mangled stream is sent \
             one-shot and cannot combine with --flaps/--retry-budget/--stall-after"
                .into(),
        );
    }

    // Tolerant decode, like `watch`: a capture with a bad write is
    // replayed minus the corrupt frames, not rejected.
    let (events, _) = decode_capture(&args[0])?;
    let log: ControllerLog = events.into_iter().collect();

    let mut handles = Vec::new();
    for (i, part) in split_capture(&log, connections).into_iter().enumerate() {
        let addr = connect.to_string();
        let session = seed.wrapping_mul(0x10_000).wrapping_add(i as u64);
        if mangled {
            let chaos = ChannelChaos {
                reorder_jitter_us: jitter_us,
                clock_skew_us: skew_us,
                ..ChannelChaos::corruption(chaos_rate, seed.wrapping_add(i as u64))
            };
            handles.push(std::thread::spawn(move || {
                publish_mangled(addr.as_str(), &part, &chaos, session)
            }));
            continue;
        }
        let mut faults = Vec::new();
        if flaps > 0 {
            let plan = ConnChaos::flapping(flaps, seed).plan_for(i as u64, part.len() as u64);
            faults.extend_from_slice(plan.pending());
        }
        // Only the first connection is stalled: one wedged publisher
        // among healthy siblings is exactly the stalled-source scenario
        // the serve smoke drills.
        if stall_after > 0 && i == 0 {
            faults.push((stall_after, ConnFault::Stall { ms: stall_ms }));
        }
        let opts = SessionOptions {
            session,
            retry_budget,
            backoff_us: backoff_ms.saturating_mul(1_000),
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
        match &r.chaos {
            Some(c) => println!(
                "publish: conn {i} sent {} bytes, {} events (chaos: {} dropped, \
                 {} duplicated, {} truncated, {} bit-flipped, {} reordered)",
                r.bytes_sent,
                r.events,
                c.dropped,
                c.duplicated,
                c.truncated,
                c.bit_flipped,
                c.reordered
            ),
            None => println!(
                "publish: conn {i} sent {} bytes, {} events ({} connect(s), \
                 {} resume(s), {} retry(s), {} fault(s))",
                r.bytes_sent, r.events, r.connects, r.resumes, r.retries, r.faults
            ),
        }
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

/// What the three drills run on: the paper's 320-server tree, one
/// capture modelled as the baseline and a second, differently seeded
/// one streamed against it.
struct Drill {
    config: FlowDiffConfig,
    baseline: BehaviorModel,
    stability: StabilityReport,
    current: ControllerLog,
}

impl Drill {
    /// Regenerates the captures and models the baseline under the
    /// default config as adjusted by `tune`.
    fn new(tune: impl FnOnce(&mut FlowDiffConfig)) -> EngineResult<Drill> {
        let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
        let (current, _) = flowdiff_bench::tree_capture(9, 43, 6);
        // Quarantine the far-future timestamps bit flips mint.
        config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
        tune(&mut config);
        config.validate()?;
        let baseline = BehaviorModel::build(&baseline_log, &config);
        let stability = analyze(&baseline_log, &baseline, &config);
        Ok(Drill {
            config,
            baseline,
            stability,
            current,
        })
    }

    fn differ(&self, shards: usize) -> EngineResult<Differ> {
        let (baseline, stability) = (self.baseline.clone(), self.stability.clone());
        Ok(Differ::try_new(baseline, stability, &self.config, shards)?)
    }

    /// Streams `events` through a fresh differ and returns the union
    /// over all epochs of confirmed change keys, plus the differ's
    /// ingestion health.
    fn changes(
        &self,
        events: impl Iterator<Item = ControlEvent>,
        shards: usize,
    ) -> EngineResult<(BTreeSet<String>, IngestHealth)> {
        let mut differ = self.differ(shards)?;
        let mut keys = BTreeSet::new();
        for event in events {
            for snapshot in differ.observe(&event) {
                collect_keys(&snapshot.diff, &mut keys);
            }
        }
        let health = differ.health();
        if let Some(snapshot) = differ.finish() {
            collect_keys(&snapshot.diff, &mut keys);
        }
        Ok((keys, health))
    }

    /// [`Drill::changes`] over capture bytes. Decode errors are
    /// tolerated (the stream resynchronizes); they show up in the
    /// health counters.
    fn byte_changes(
        &self,
        bytes: &[u8],
        shards: usize,
    ) -> EngineResult<(BTreeSet<String>, IngestHealth)> {
        let mut stream = LogStream::from_wire_bytes(bytes)?;
        let events = stream.by_ref().flatten().map(|e| e.into_owned());
        let (keys, mut health) = self.changes(events, shards)?;
        health.absorb_stream(stream.stats());
        Ok((keys, health))
    }
}

fn report_mangled(report: &ChaosReport) {
    println!(
        "mangled: {} frames -> {} dropped, {} duplicated, {} truncated, \
         {} bit-flipped, {} reordered",
        report.total_frames,
        report.dropped,
        report.duplicated,
        report.truncated,
        report.bit_flipped,
        report.reordered,
    );
}

/// How much of the clean run's confirmed diff the faulted run kept.
fn report_fidelity(
    clean: &(BTreeSet<String>, IngestHealth),
    faulted: &(BTreeSet<String>, IngestHealth),
) {
    println!(
        "clean:   {} confirmed changes; ingest {}",
        clean.0.len(),
        clean.1
    );
    println!("stats: ingest {}", faulted.1);
    let recovered = clean.0.intersection(&faulted.0).count();
    let fidelity = if clean.0.is_empty() {
        1.0
    } else {
        recovered as f64 / clean.0.len() as f64
    };
    println!(
        "fidelity: {:.1}% ({recovered}/{} confirmed changes recovered)",
        fidelity * 100.0,
        clean.0.len()
    );
}

/// `chaos`: regenerate the paper's 320-server tree capture, mangle it
/// with a seeded fault injector, stream both the clean and the mangled
/// bytes through the online differ against the same baseline, and
/// report how much of the clean run's diff survived the damage.
fn cmd_chaos(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut corruption: f64 = 0.01;
    let mut skew_us: u64 = 0;
    let mut jitter_us: u64 = 0;
    let mut shards: usize = 1;
    let mut wire = false;
    let mut connections: usize = 2;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => seed = flags.num(flag)?,
            "--wire" => wire = true,
            "--connections" => connections = flags.count(flag)?,
            "--corruption" => {
                corruption = flags.num(flag)?;
                if !(0.0..=1.0).contains(&corruption) {
                    return Err("--corruption must be in [0, 1]".into());
                }
            }
            "--skew-us" => skew_us = flags.num(flag)?,
            "--jitter-us" => jitter_us = flags.num(flag)?,
            "--shards" => shards = flags.count(flag)?,
            other => return Err(unknown_flag(other)),
        }
    }

    // Give the reorder buffer enough slack to absorb whatever timing
    // damage the injector is configured to do.
    let drill = Drill::new(|config| config.reorder_slack_us = jitter_us + 2 * skew_us)?;
    let chaos = ChannelChaos {
        reorder_jitter_us: jitter_us,
        clock_skew_us: skew_us,
        seed,
        ..ChannelChaos::corruption(corruption, seed)
    };
    println!(
        "chaos: seed {seed}, corruption {:.2}% (drop {:.2}% dup {:.2}% truncate {:.2}% \
         flip {:.2}%), skew ±{skew_us}us, jitter {jitter_us}us",
        corruption * 100.0,
        chaos.drop_prob * 100.0,
        chaos.duplicate_prob * 100.0,
        chaos.truncate_prob * 100.0,
        chaos.bit_flip_prob * 100.0,
    );

    let (clean, mangled) = if wire {
        // Wire drill: both runs go through an in-process loopback
        // serve pipeline — split across `connections` publisher
        // sessions, the chaos run mangling each stream independently
        // (per-connection derived seeds), like real skewed taps would.
        println!("wire: loopback ingest over {connections} publisher connection(s)");
        let mangled =
            wire_session_changes(&drill, WireFaults::Channel(&chaos), connections, shards)?;
        report_mangled(&mangled.mangled);
        let clean = wire_session_changes(&drill, WireFaults::Clean, connections, shards)?;
        (clean.changes, mangled.changes)
    } else {
        let (mangled_bytes, report) = chaos.mangle(&drill.current);
        report_mangled(&report);
        let clean = drill.byte_changes(&drill.current.to_wire_bytes(), shards)?;
        (clean, drill.byte_changes(&mangled_bytes, shards)?)
    };
    report_fidelity(&clean, &mangled);
    Ok(())
}

/// `flapdrill`: the connection-fault drill. Replays the 320-server
/// capture twice through a loopback live-session ingest — once clean,
/// once with every publisher behind a seeded [`ConnChaos`] plan
/// (mid-stream disconnects that reconnect and resume from the server's
/// watermark, write stalls, slow-loris trickle) — and reports how much
/// of the clean run's confirmed diff the faulted run recovered.
///
/// With the default strict merge (no stall budget) a faulted run must
/// recover 100%: resume is lossless (the watermark counts events
/// actually queued, the next attempt re-sends from there, FIFO order
/// per stream holds) and the merge simply waits out each fault. A
/// nonzero `--merge-stall-ms` trades that certainty for liveness; the
/// fidelity line then measures what the trade cost.
fn cmd_flapdrill(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut flaps: usize = 2;
    let mut stalls: usize = 1;
    let mut trickles: usize = 1;
    let mut connections: usize = 2;
    let mut shards: usize = 1;
    let mut merge_stall_us: u64 = 0;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => seed = flags.num(flag)?,
            "--flaps" => flaps = flags.num(flag)?,
            "--stalls" => stalls = flags.num(flag)?,
            "--trickles" => trickles = flags.num(flag)?,
            "--connections" => connections = flags.count(flag)?,
            "--shards" => shards = flags.count(flag)?,
            "--merge-stall-ms" => merge_stall_us = flags.micros(flag, 1_000)?,
            other => return Err(unknown_flag(other)),
        }
    }

    let drill = Drill::new(|config| config.ingest_stall_timeout_us = merge_stall_us)?;
    let chaos = ConnChaos {
        stalls,
        stall_ms: 40,
        trickles,
        trickle_events: 32,
        ..ConnChaos::flapping(flaps, seed)
    };
    println!(
        "flapdrill: seed {seed}, per conn {flaps} flap(s) + {stalls} stall(s) + \
         {trickles} trickle(s), {connections} connection(s), merge stall budget \
         {} ms, {shards} shard(s)",
        merge_stall_us / 1_000
    );

    let clean = wire_session_changes(&drill, WireFaults::Clean, connections, shards)?;
    let faulted = wire_session_changes(&drill, WireFaults::Conn(&chaos), connections, shards)?;
    for r in &faulted.reports {
        println!("stats: conn {}", conn_line(r));
    }
    report_fidelity(&clean.changes, &faulted.changes);
    Ok(())
}

/// One epoch of a drill run, reduced to what recovery fidelity is
/// judged on: the epoch index, an FNV-1a hash of the snapshot's
/// serialized bytes (byte-identity), and its confirmed change keys.
#[derive(Debug, Clone, PartialEq)]
struct EpochTrace {
    epoch: u64,
    hash: u64,
    keys: BTreeSet<String>,
}

impl EpochTrace {
    fn of(snapshot: &EpochSnapshot) -> EpochTrace {
        let mut keys = BTreeSet::new();
        collect_keys(&snapshot.diff, &mut keys);
        EpochTrace {
            epoch: snapshot.epoch,
            hash: fnv1a(&serde::to_vec(snapshot)),
            keys,
        }
    }
}

/// `crashdrill`: run the 320-server capture through the supervised
/// engine twice — once uninterrupted, once with a seeded [`CrashPlan`]
/// killing the run at chosen epochs (checkpoint + restore + replay in
/// between) — and report how faithfully the interrupted run recovered
/// the clean run's per-epoch snapshots.
fn cmd_crashdrill(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut kills: usize = 3;
    let mut shards: usize = 1;
    let mut kill_workers = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => seed = flags.num(flag)?,
            "--kills" => kills = flags.num(flag)?,
            "--shards" => shards = flags.count(flag)?,
            "--kill-worker" => kill_workers = true,
            other => return Err(unknown_flag(other)),
        }
    }
    if kill_workers && shards < 2 {
        return Err("--kill-worker needs --shards 2 or more (the single \
                    pipeline has no worker threads to kill)"
            .into());
    }

    let drill = Drill::new(|config| {
        // Short epochs give the short drill capture enough boundaries
        // to kill at; checkpoint at every one so recovery loses nothing.
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        // Each planned kill spends one restart; keep the drill fast.
        config.restart_budget = kills as u32;
        config.restart_backoff_us = 1_000;
    })?;
    let config = &drill.config;
    let events = drill.current.events();
    let deaths = if kill_workers {
        "worker poisoning(s)"
    } else {
        "kill(s)"
    };
    println!(
        "drill: seed {seed}, {kills} {deaths} over {} events, {shards} shard(s), \
         checkpoint every {} epoch(s)",
        events.len(),
        config.checkpoint_every_epochs
    );

    // Runs the capture supervised, dying at each epoch `plan` names:
    // the epoch callback panics — or poisons a shard worker, which the
    // loop only notices at its next flush/quiesce — before it records
    // the epoch, exactly what a power cut between compute and output
    // looks like. The final flush epoch is not delivered through the
    // callback, so kills land on observe-emitted epochs only.
    let fresh = || -> EngineResult<(Differ, u64)> { Ok((drill.differ(shards)?, 0)) };
    let run = |checkpoint_path: Option<&Path>, plan: &mut CrashPlan| {
        let mut traces: Vec<EpochTrace> = Vec::new();
        let supervision = Supervision {
            config,
            checkpoint_path,
            degraded: None,
        };
        let mut feed = Feed::Slice(events);
        let report = supervise(&mut feed, &fresh, &supervision, |differ, snap, _| {
            if plan.take(snap.epoch) {
                if kill_workers {
                    differ.poison_worker(snap.epoch as usize);
                } else {
                    panic!("crashdrill: killed at epoch {}", snap.epoch);
                }
            }
            traces.push(EpochTrace::of(snap));
        })?;
        traces.extend(report.last.as_ref().map(EpochTrace::of));
        Ok::<_, Box<dyn std::error::Error>>((traces, report.restarts))
    };

    let (clean, clean_restarts) = run(None, &mut CrashPlan::seeded(seed, 0, 0))?;
    assert_eq!(clean_restarts, 0, "the clean run must not panic");

    let observe_epochs = clean.len().saturating_sub(1) as u64;
    let mut plan = CrashPlan::seeded(seed, kills, observe_epochs);
    println!("plan: kill at epochs {:?}", plan.kill_epochs());
    let ckpt_dir = std::env::temp_dir().join(format!("flowdiff-crashdrill-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir)?;
    let ckpt_path = ckpt_dir.join(format!("drill-{seed}.ckpt"));
    let planned = plan.kill_epochs().len();
    // The drill panics on purpose; keep the default hook's backtrace
    // chatter out of the report.
    let orig_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run(Some(&ckpt_path), &mut plan);
    std::panic::set_hook(orig_hook);
    let (drilled, restarts) = outcome?;
    println!("drill: {restarts} of {planned} planned {deaths} fired; each restored from the last checkpoint");

    let matched = clean.iter().zip(&drilled).filter(|(a, b)| a == b).count();
    let keys_clean: BTreeSet<&String> = clean.iter().flat_map(|t| &t.keys).collect();
    let keys_drill: BTreeSet<&String> = drilled.iter().flat_map(|t| &t.keys).collect();
    let keys_recovered = keys_clean.intersection(&keys_drill).count();
    let fidelity = if clean.is_empty() {
        1.0
    } else {
        matched as f64 / clean.len() as f64
    };
    println!(
        "recovery: {:.1}% fidelity ({matched}/{} epoch snapshots byte-identical, \
         {keys_recovered}/{} confirmed changes recovered, {restarts} kill(s) survived)",
        fidelity * 100.0,
        clean.len(),
        keys_clean.len()
    );

    // Bonus demonstration: a *lossy* restore (checkpoint loaded, replay
    // skipped) must not flood — the differ holds every signature at
    // Warming until `restore_warmup_us` of log time passes.
    let mut half = drill.differ(shards)?;
    let cut = events.len() / 2;
    for event in &events[..cut] {
        half.observe(event);
    }
    let Restored {
        differ: mut lossy,
        events_consumed: at,
        ..
    } = Differ::restore(&half.checkpoint(cut as u64, config), config)?;
    lossy.mark_lossy_restore();
    // Skip half the remaining stream instead of replaying it: data loss.
    let tail_start = (at as usize) + (events.len() - at as usize) / 2;
    let mut first_gated: Option<EpochSnapshot> = None;
    for event in &events[tail_start..] {
        for snap in lossy.observe(event) {
            if first_gated.is_none() {
                first_gated = Some(snap);
            }
        }
    }
    if let Some(snap) = first_gated {
        let kinds: Vec<String> = snap
            .suppressed()
            .map(|(k, h)| format!("{k:?}={h}"))
            .collect();
        println!(
            "lossy: resume without replay at epoch {} suppresses {} signature(s): {}",
            snap.epoch,
            kinds.len(),
            kinds.first().cloned().unwrap_or_default()
        );
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}

/// What a loopback drill puts between its publishers and the server.
#[derive(Clone, Copy)]
enum WireFaults<'a> {
    Clean,
    /// Byte-level mangling: each publisher sends its stream one-shot
    /// through its own derived-seed [`ChannelChaos`] proxy.
    Channel(&'a ChannelChaos),
    /// Connection faults: each publisher follows a seeded [`ConnChaos`]
    /// plan (mid-stream disconnects that resume from the server's
    /// watermark, write stalls, slow-loris trickle).
    Conn(&'a ConnChaos),
}

/// What [`wire_session_changes`] saw.
struct WireRun {
    /// Confirmed-change keys and the folded health (per-connection
    /// stream stats absorbed).
    changes: (BTreeSet<String>, IngestHealth),
    /// The per-stream connection reports.
    reports: Vec<netsim::net::ConnReport>,
    /// The summed ground truth of any byte-level mangling.
    mangled: ChaosReport,
}

/// Like [`Drill::byte_changes`], but over the wire: deals the drill's
/// capture across `connections` loopback session publishers (faulted
/// per `faults`), ingests through [`IngestServer`], and feeds the
/// `(timestamp, connection)` merge straight into the differ — events
/// are diffed as they arrive, bounded by the per-connection queues.
fn wire_session_changes(
    drill: &Drill,
    faults: WireFaults<'_>,
    connections: usize,
    shards: usize,
) -> EngineResult<WireRun> {
    let config = &drill.config;
    let server = IngestServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let mut live = server.live(
        connections,
        config.ingest_queue_events,
        LiveOptions {
            stall_timeout_us: config.ingest_stall_timeout_us,
            heartbeat_us: config.ingest_heartbeat_us,
        },
    )?;
    let mut publishers = Vec::new();
    for (i, part) in split_capture(&drill.current, connections)
        .into_iter()
        .enumerate()
    {
        let session = 0xF1A9_0000 + i as u64;
        if let WireFaults::Channel(chaos) = faults {
            let chaos = ChannelChaos {
                seed: chaos.seed.wrapping_add(i as u64),
                ..chaos.clone()
            };
            publishers.push(std::thread::spawn(move || {
                publish_mangled(addr, &part, &chaos, session)
            }));
            continue;
        }
        let opts = SessionOptions {
            session,
            retry_budget: config.publish_retry_budget.max(2),
            backoff_us: config.publish_backoff_us,
            plan: match faults {
                WireFaults::Conn(chaos) => Some(chaos.plan_for(i as u64, part.len() as u64)),
                _ => None,
            },
        };
        publishers.push(std::thread::spawn(move || {
            publish_session(addr, &part, &opts)
        }));
    }
    let (keys, mut health) = drill.changes(live.take_merge(), shards)?;
    let reports = live.finish();
    for r in &reports {
        health.absorb_stream(r.stats);
        health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    let mut mangled = ChaosReport::default();
    for publisher in publishers {
        let sent = publisher
            .join()
            .expect("publisher thread must not panic")
            .map_err(|e| format!("publish: {e}"))?;
        if let Some(c) = sent.chaos {
            mangled.total_frames += c.total_frames;
            mangled.dropped += c.dropped;
            mangled.duplicated += c.duplicated;
            mangled.truncated += c.truncated;
            mangled.bit_flipped += c.bit_flipped;
            mangled.reordered += c.reordered;
        }
    }
    Ok(WireRun {
        changes: (keys, health),
        reports,
        mangled,
    })
}

/// Keys a diff's changes by signature, direction, and implicated
/// components — stable identifiers that survive magnitude jitter.
fn collect_keys(diff: &ModelDiff, keys: &mut BTreeSet<String>) {
    for change in diff
        .group_diffs
        .iter()
        .flat_map(|g| g.changes.iter())
        .chain(diff.infra.iter())
    {
        keys.insert(format!(
            "{:?} {:?} {:?}",
            change.kind, change.direction, change.components
        ));
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
/// `epoch ` — wall-clock differs between deployment shapes, and CI
/// diffs the `epoch ` lines of single vs sharded runs byte-for-byte.
fn report_latency(epoch: u64, timings: EpochTimings) {
    println!(
        "latency epoch {epoch:>3}  retire_us {} observe_us {} snapshot_us {} merge_us {} \
         diff_us {}  queue_peak {} busy {}%",
        timings.retire_us,
        timings.observe_us,
        timings.snapshot_us,
        timings.merge_us,
        timings.diff_us,
        timings.queue_depth_peak,
        timings.worker_busy_pct
    );
}

/// One status line per epoch snapshot.
fn report(snapshot: &EpochSnapshot, config: &FlowDiffConfig) {
    let diagnosis = snapshot.diagnose(&[], config);
    let changes = snapshot
        .diff
        .group_diffs
        .iter()
        .map(|g| g.changes.len())
        .sum::<usize>()
        + snapshot.diff.infra.len()
        + snapshot.diff.new_groups.len()
        + snapshot.diff.missing_groups.len();
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
        changes,
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
        let err = cmd_flapdrill(&args("--merge-stall-ms", ms)).unwrap_err();
        assert_eq!(err.to_string(), format!("--merge-stall-ms {ms}: too large"));
        // The largest value that fits still parses.
        let opts = OnlineOpts::parse(&args("--slack-ms", ms - 1), true).unwrap();
        assert_eq!(opts.config.reorder_slack_us, (ms - 1) * 1_000);
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
        let differ = OnlineDiffer::try_new(model, stability, &config).unwrap();
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
