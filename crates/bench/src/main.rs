//! Index of the experiment harness: lists the binaries that regenerate
//! each table and figure of the paper — plus `watch`, the supervised
//! online diff mode over on-disk captures, `chaos`, the ingestion fault
//! drill, and `crashdrill`, the crash-recovery drill.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flowdiff::checkpoint::{BASELINE_MAGIC, CHECKPOINT_MAGIC};
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

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Loads the baseline argument of `watch`: either a wire capture
/// (`FDIFFCAP`, model built and judged here) or a precomputed
/// [`BaselineBundle`] (`FDIFFBAS`, validated magic/version/CRC). A file
/// that is neither — including a checkpoint offered as a baseline — is
/// a typed error before any diffing happens.
fn load_baseline(
    path: &str,
    config: &FlowDiffConfig,
) -> Result<(BehaviorModel, StabilityReport), Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(&BASELINE_MAGIC) {
        let bundle = BaselineBundle::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "baseline: restored bundle, {} flows, {} groups",
            bundle.model.records.len(),
            bundle.model.groups.len()
        );
        return Ok((bundle.model, bundle.stability));
    }
    if bytes.starts_with(&CHECKPOINT_MAGIC) {
        return Err(format!(
            "{path}: this is a checkpoint (FDIFFCKP), not a baseline; pass it to --resume"
        )
        .into());
    }
    let log = ControllerLog::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let model = BehaviorModel::build(&log, config);
    let stability = analyze(&log, &model, config);
    println!(
        "baseline: {} events, {} flows, {} groups",
        log.len(),
        model.records.len(),
        model.groups.len()
    );
    Ok((model, stability))
}

/// `watch`: model a baseline capture (or load a prebuilt bundle), then
/// stream the current capture through a *supervised* online differ —
/// every observation runs inside `catch_unwind`, panics restore the
/// last durable checkpoint and replay, and each epoch line is printed
/// exactly once no matter how many restarts it took.
fn cmd_watch(args: &[String]) -> CliResult {
    if args.len() < 2 {
        usage();
        return Err("watch needs <baseline.fcap|.fbas> <current.fcap>".into());
    }
    let mut config = FlowDiffConfig::default();
    let mut save_baseline: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut n_shards: usize = 1;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => {
                n_shards = it.next().ok_or("--shards needs a count")?.parse()?;
                if n_shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--special" => {
                let list = it.next().ok_or("--special needs a comma-separated list")?;
                let mut specials = Vec::new();
                for ip in list.split(',') {
                    specials.push(ip.trim().parse::<std::net::Ipv4Addr>()?);
                }
                config = config.with_special_ips(specials);
            }
            "--epoch-secs" => {
                let n: u64 = it.next().ok_or("--epoch-secs needs a number")?.parse()?;
                config.online_epoch_us = n.max(1) * 1_000_000;
            }
            "--window-secs" => {
                let n: u64 = it.next().ok_or("--window-secs needs a number")?.parse()?;
                config.online_window_us = n.max(1) * 1_000_000;
            }
            "--save-baseline" => {
                save_baseline = Some(it.next().ok_or("--save-baseline needs a path")?.into());
            }
            "--checkpoint" => {
                checkpoint_path = Some(it.next().ok_or("--checkpoint needs a path")?.into());
            }
            "--checkpoint-every" => {
                config.checkpoint_every_epochs = it
                    .next()
                    .ok_or("--checkpoint-every needs an epoch count")?
                    .parse()?;
            }
            "--resume" => {
                resume_path = Some(it.next().ok_or("--resume needs a path")?.into());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    // A live tap reads possibly-corrupt bytes: quarantine timestamps
    // jumping past the eviction horizon instead of trusting them.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;

    let (baseline, stability) = load_baseline(&args[0], &config)?;
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        baseline.catalog.n_hosts(),
        baseline.catalog.n_switches(),
        baseline.catalog.n_ports(),
        baseline.approx_bytes().div_ceil(1024),
        baseline.catalog.approx_bytes().div_ceil(1024)
    );
    if let Some(path) = &save_baseline {
        BaselineBundle {
            model: baseline.clone(),
            stability: stability.clone(),
        }
        .save(path)?;
        println!("stats: baseline bundle saved to {}", path.display());
    }

    // Decode the whole current capture up front: the supervised loop
    // needs random access to replay from a checkpoint's event offset.
    // Corrupt frames are skipped (the stream resynchronizes) and
    // tallied, not fatal: a live tap must survive a bad write.
    let current_bytes = std::fs::read(&args[1]).map_err(|e| format!("{}: {e}", args[1]))?;
    let mut stream =
        LogStream::from_wire_bytes(&current_bytes).map_err(|e| format!("{}: {e}", args[1]))?;
    let mut events: Vec<ControlEvent> = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(event.as_ref().clone()),
            Err(e) => eprintln!("warning: {}: {e} (resynchronized)", args[1]),
        }
    }
    let stream_stats = stream.stats();
    if events.is_empty() {
        return Err(format!("{}: capture holds no events", args[1]).into());
    }

    let fresh = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
        match &resume_path {
            Some(path) => {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                let (differ, at) = restore_checkpoint(&bytes, &config)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "stats: resumed from {} at event {at}, epoch {}",
                    path.display(),
                    differ.epoch()
                );
                Ok((differ, at))
            }
            None if n_shards > 1 => Ok((
                Differ::Sharded(ShardedDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                    n_shards,
                )?),
                0,
            )),
            None => Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            )),
        }
    };
    let (last, mut health, restarts, shard_report) = supervised_run(
        &events,
        &fresh,
        &config,
        checkpoint_path.as_deref(),
        None,
        false,
        |snapshot, timings| {
            report(snapshot, &config);
            report_latency(snapshot.epoch, timings);
        },
    )?;
    health.absorb_stream(stream_stats);
    if let Some(snapshot) = &last {
        report(snapshot, &config);
    }
    if restarts > 0 {
        println!(
            "stats: survived {restarts} restart(s) within a budget of {}",
            config.restart_budget
        );
    }
    if let Some((stats, merge_us)) = shard_report {
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
    println!("stats: ingest {health}");
    Ok(())
}

/// `serve`: `watch` with the current capture arriving over TCP. Binds a
/// listen socket, waits for `--publishers` session streams (`FDIFFSES`
/// handshake, then `.fcap`-framed bytes in `Data` records), decodes
/// each connection incrementally with resynchronization, re-sequences
/// the streams through a `(timestamp, connection)` merge, and drives
/// the same supervised differ as `watch` — for publishers produced by
/// `flowdiff-bench publish` the `epoch ` lines are byte-identical to a
/// file-based run over the interleaved capture.
fn cmd_serve(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("serve needs <baseline.fcap|.fbas> --listen HOST:PORT".into());
    }
    let mut config = FlowDiffConfig::default();
    let mut listen: Option<String> = None;
    let mut publishers: usize = 1;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut n_shards: usize = 1;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(it.next().ok_or("--listen needs HOST:PORT")?.clone()),
            "--publishers" => {
                publishers = it.next().ok_or("--publishers needs a count")?.parse()?;
                if publishers == 0 {
                    return Err("--publishers must be at least 1".into());
                }
            }
            "--queue" => {
                config.ingest_queue_events =
                    it.next().ok_or("--queue needs an event count")?.parse()?;
            }
            "--slack-ms" => {
                let n: u64 = it.next().ok_or("--slack-ms needs a number")?.parse()?;
                config.reorder_slack_us = n * 1_000;
            }
            "--stall-ms" => {
                let n: u64 = it.next().ok_or("--stall-ms needs a number")?.parse()?;
                config.ingest_stall_timeout_us = n * 1_000;
            }
            "--heartbeat-ms" => {
                let n: u64 = it.next().ok_or("--heartbeat-ms needs a number")?.parse()?;
                config.ingest_heartbeat_us = n * 1_000;
            }
            "--shards" => {
                n_shards = it.next().ok_or("--shards needs a count")?.parse()?;
                if n_shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--special" => {
                let list = it.next().ok_or("--special needs a comma-separated list")?;
                let mut specials = Vec::new();
                for ip in list.split(',') {
                    specials.push(ip.trim().parse::<std::net::Ipv4Addr>()?);
                }
                config = config.with_special_ips(specials);
            }
            "--epoch-secs" => {
                let n: u64 = it.next().ok_or("--epoch-secs needs a number")?.parse()?;
                config.online_epoch_us = n.max(1) * 1_000_000;
            }
            "--window-secs" => {
                let n: u64 = it.next().ok_or("--window-secs needs a number")?.parse()?;
                config.online_window_us = n.max(1) * 1_000_000;
            }
            "--checkpoint" => {
                checkpoint_path = Some(it.next().ok_or("--checkpoint needs a path")?.into());
            }
            "--checkpoint-every" => {
                config.checkpoint_every_epochs = it
                    .next()
                    .ok_or("--checkpoint-every needs an epoch count")?
                    .parse()?;
            }
            "--resume" => {
                resume_path = Some(it.next().ok_or("--resume needs a path")?.into());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    let listen = listen.ok_or("serve needs --listen HOST:PORT")?;
    // Same trust posture as `watch` over a possibly-corrupt file, only
    // more so: these bytes come straight off sockets.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;

    let (baseline, stability) = load_baseline(&args[0], &config)?;
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        baseline.catalog.n_hosts(),
        baseline.catalog.n_switches(),
        baseline.catalog.n_ports(),
        baseline.approx_bytes().div_ceil(1024),
        baseline.catalog.approx_bytes().div_ceil(1024)
    );

    let server = IngestServer::bind(listen.as_str()).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.local_addr()?;
    // The line CI (and any supervisor) polls for before launching
    // publishers; with `--listen host:0` it carries the chosen port.
    println!("listening on {addr} for {publishers} publisher(s)");
    let mut live = server
        .live(
            publishers,
            config.ingest_queue_events,
            LiveOptions {
                stall_timeout_us: config.ingest_stall_timeout_us,
                heartbeat_us: config.ingest_heartbeat_us,
            },
        )
        .map_err(|e| format!("accept: {e}"))?;
    // The merge is pulled *on demand*: epochs are diffed and printed
    // while publishers are still connected, and every event is retained
    // so a checkpoint replay can re-read from any offset, exactly like
    // `watch` over a capture file. Backpressure still holds — each
    // connection feeds a bounded queue, so a publisher far ahead of the
    // merge blocks on TCP, not on server memory.
    let mut feed = Feed::live(live.take_merge());
    // While any stream is stalled or dead its share of the window is
    // missing; the differ gates those epochs' diffs to Suppressed
    // instead of alarming on behavior the wire never delivered.
    let gauges = live.gauges();
    let degraded_probe = move || -> Option<String> {
        let down: Vec<String> = gauges
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_degraded())
            .map(|(i, g)| format!("conn {i} {}", g.state()))
            .collect();
        if down.is_empty() {
            None
        } else {
            Some(down.join(", "))
        }
    };

    let fresh = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
        match &resume_path {
            Some(path) => {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                let (differ, at) = restore_checkpoint(&bytes, &config)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "stats: resumed from {} at event {at}, epoch {}",
                    path.display(),
                    differ.epoch()
                );
                Ok((differ, at))
            }
            None if n_shards > 1 => Ok((
                Differ::Sharded(ShardedDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                    n_shards,
                )?),
                0,
            )),
            None => Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            )),
        }
    };
    let (last, mut health, restarts, shard_report) = supervised_feed(
        &mut feed,
        &fresh,
        &config,
        checkpoint_path.as_deref(),
        None,
        false,
        Some(&degraded_probe),
        |snapshot, timings| {
            report(snapshot, &config);
            report_latency(snapshot.epoch, timings);
        },
    )?;
    let refused = live.refused();
    let reports = live.finish();
    if refused > 0 {
        println!("stats: refused {refused} connection(s) that did not open a session");
    }
    for r in &reports {
        for e in &r.first_errors {
            eprintln!("warning: conn {}: {e} (resynchronized)", r.index);
        }
        println!("stats: conn {}", conn_line(r));
        health.absorb_stream(r.stats);
        health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    if feed.delivered() == 0 {
        return Err("publishers delivered no events".into());
    }
    if let Some(snapshot) = &last {
        report(snapshot, &config);
    }
    if restarts > 0 {
        println!(
            "stats: survived {restarts} restart(s) within a budget of {}",
            config.restart_budget
        );
    }
    if let Some((stats, merge_us)) = shard_report {
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
    println!("stats: ingest {health}");
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
    let mut connect: Option<String> = None;
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
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs HOST:PORT")?.clone()),
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--chaos" => {
                chaos_rate = it.next().ok_or("--chaos needs a rate")?.parse()?;
                if !(0.0..=1.0).contains(&chaos_rate) {
                    return Err("--chaos must be in [0, 1]".into());
                }
            }
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--skew-us" => skew_us = it.next().ok_or("--skew-us needs a number")?.parse()?,
            "--jitter-us" => jitter_us = it.next().ok_or("--jitter-us needs a number")?.parse()?,
            "--retry-budget" => {
                retry_budget = it.next().ok_or("--retry-budget needs a count")?.parse()?;
            }
            "--backoff-ms" => {
                backoff_ms = it.next().ok_or("--backoff-ms needs a number")?.parse()?;
            }
            "--flaps" => flaps = it.next().ok_or("--flaps needs a count")?.parse()?,
            "--stall-after" => {
                stall_after = it
                    .next()
                    .ok_or("--stall-after needs an event count")?
                    .parse()?;
            }
            "--stall-ms" => stall_ms = it.next().ok_or("--stall-ms needs a number")?.parse()?,
            other => return Err(format!("unknown flag: {other}").into()),
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
    let bytes = std::fs::read(&args[0]).map_err(|e| format!("{}: {e}", args[0]))?;
    let mut stream = LogStream::from_wire_bytes(&bytes).map_err(|e| format!("{}: {e}", args[0]))?;
    let mut events: Vec<ControlEvent> = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(event.into_owned()),
            Err(e) => eprintln!("warning: {}: {e} (resynchronized)", args[0]),
        }
    }
    if events.is_empty() {
        return Err(format!("{}: capture holds no events", args[0]).into());
    }
    let log: ControllerLog = events.into_iter().collect();

    let mut handles = Vec::new();
    for (i, part) in split_capture(&log, connections).into_iter().enumerate() {
        let addr = connect.clone();
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

/// The watch loop's pipeline, in either deployment shape. `--shards 1`
/// (the default) is the exact legacy [`OnlineDiffer`] code path — no
/// routing, no chunking; `--shards N` for N > 1 is the partitioned
/// [`ShardedDiffer`]. Both shapes promise byte-identical epoch
/// snapshots, so everything downstream of this enum is shape-blind.
// One value lives for the whole watch run; the variant size skew does
// not justify boxing every access.
#[allow(clippy::large_enum_variant)]
enum Differ {
    Single(OnlineDiffer),
    Sharded(ShardedDiffer),
}

impl Differ {
    fn observe(&mut self, event: &ControlEvent) -> Vec<EpochSnapshot> {
        match self {
            Differ::Single(d) => d.observe(event),
            Differ::Sharded(d) => d.observe(event),
        }
    }

    fn finish(self) -> Option<EpochSnapshot> {
        match self {
            Differ::Single(d) => d.finish(),
            Differ::Sharded(d) => d.finish(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Differ::Single(d) => d.epoch(),
            Differ::Sharded(d) => d.epoch(),
        }
    }

    fn health(&self) -> flowdiff::records::IngestHealth {
        match self {
            Differ::Single(d) => *d.health(),
            Differ::Sharded(d) => d.health(),
        }
    }

    fn mark_lossy_restore(&mut self) {
        match self {
            Differ::Single(d) => d.mark_lossy_restore(),
            Differ::Sharded(d) => d.mark_lossy_restore(),
        }
    }

    /// Marks (or clears) a degraded-ingest condition: while set, every
    /// snapshot gates its diffs to Suppressed (see
    /// [`OnlineDiffer::set_ingest_degraded`]) instead of alarming on
    /// behavior a stalled or dead source never delivered.
    fn set_ingest_degraded(&mut self, reason: Option<String>) {
        match self {
            Differ::Single(d) => d.set_ingest_degraded(reason),
            Differ::Sharded(d) => d.set_ingest_degraded(reason),
        }
    }

    /// Drains the per-stage wall-clock spent since the last call (see
    /// [`OnlineDiffer::take_timings`] for the sharded stage mapping).
    fn take_timings(&mut self) -> EpochTimings {
        match self {
            Differ::Single(d) => d.take_timings(),
            Differ::Sharded(d) => d.take_timings(),
        }
    }

    /// Per-shard worker load and cumulative merge time; `None` for the
    /// single-pipeline shape.
    fn shard_report(&self) -> Option<(Vec<ShardStats>, u64)> {
        match self {
            Differ::Single(_) => None,
            Differ::Sharded(d) => Some((d.shard_stats(), d.merge_micros())),
        }
    }

    /// Serializes into the checkpoint layout matching the shape: v1
    /// for the single pipeline, v2 (segmented) for the sharded one.
    fn checkpoint_bytes(&self, events_consumed: u64, config: &FlowDiffConfig) -> Vec<u8> {
        match self {
            Differ::Single(d) => Checkpoint::capture(d, events_consumed, config).to_bytes(),
            Differ::Sharded(d) => ShardedCheckpoint::capture(d, events_consumed, config).to_bytes(),
        }
    }

    fn save_checkpoint(
        &self,
        events_consumed: u64,
        config: &FlowDiffConfig,
        path: &Path,
    ) -> Result<(), PersistError> {
        match self {
            Differ::Single(d) => Checkpoint::capture(d, events_consumed, config).save(path),
            Differ::Sharded(d) => ShardedCheckpoint::capture(d, events_consumed, config).save(path),
        }
    }

    /// Injects a poison message into one long-lived shard worker (the
    /// crash drill's worker-death mode). The worker panics when it
    /// dequeues the message; the coordinator notices at its next
    /// flush/quiesce. No-op for the single pipeline, which has no
    /// worker threads to kill.
    fn poison_worker(&mut self, shard: usize) {
        match self {
            Differ::Single(_) => {}
            Differ::Sharded(d) => d.poison_worker(shard),
        }
    }
}

/// Restores a checkpoint of either layout into a running [`Differ`].
/// Corrupt per-shard segments in a v2 file salvage to fresh workers
/// (reported on stderr) rather than failing the whole restore.
fn restore_checkpoint(
    bytes: &[u8],
    config: &FlowDiffConfig,
) -> Result<(Differ, u64), Box<dyn std::error::Error>> {
    match AnyCheckpoint::from_bytes_salvaging(bytes)? {
        AnyCheckpoint::Single(c) => {
            let (differ, at) = c.resume(config)?;
            Ok((Differ::Single(differ), at))
        }
        AnyCheckpoint::Sharded(c) => {
            if !c.salvaged_shards.is_empty() {
                eprintln!(
                    "warning: salvaged corrupt checkpoint segment(s) for shard(s) {:?}; \
                     those workers restart fresh under warm-up gating",
                    c.salvaged_shards
                );
            }
            let (differ, at) = c.resume(config)?;
            Ok((Differ::Sharded(differ), at))
        }
    }
}

/// The supervised loop's event source.
///
/// `Slice` is the batch shape (`watch`, the drills, the tests): the
/// capture fully decoded up front. `Live` pulls from a wire
/// [`EventMerge`] *on demand* — an epoch is diffed and printed while
/// publishers are still connected — and retains every pulled event so
/// a checkpoint replay can re-read from any earlier offset, exactly
/// like a file. Retention is what `serve` already paid when it
/// collected the merge up front; it buys crash recovery, and with a
/// stall-tolerant merge it is also what keeps a silent stream from
/// wedging epoch emission: `get` returns whatever the merge releases
/// past the stalled source.
enum Feed<'a> {
    Slice(&'a [ControlEvent]),
    Live {
        merge: EventMerge,
        buffered: Vec<ControlEvent>,
        done: bool,
    },
}

impl Feed<'_> {
    fn live(merge: EventMerge) -> Feed<'static> {
        Feed::Live {
            merge,
            buffered: Vec::new(),
            done: false,
        }
    }

    /// The event at `idx`, pulling from the live merge as needed;
    /// `None` once the stream is exhausted.
    fn get(&mut self, idx: usize) -> Option<&ControlEvent> {
        match self {
            Feed::Slice(events) => events.get(idx),
            Feed::Live {
                merge,
                buffered,
                done,
            } => {
                while !*done && buffered.len() <= idx {
                    match merge.next() {
                        Some(event) => buffered.push(event),
                        None => *done = true,
                    }
                }
                buffered.get(idx)
            }
        }
    }

    /// Events seen so far (the full length for `Slice`).
    fn delivered(&self) -> usize {
        match self {
            Feed::Slice(events) => events.len(),
            Feed::Live { buffered, .. } => buffered.len(),
        }
    }
}

/// Drives `events` through a supervised online differ (either shape).
///
/// Every observation runs inside `catch_unwind`; on a panic the loop
/// restores the last durable checkpoint (or calls `fresh` again when
/// none was written yet), replays from its event offset, and retries
/// after an exponential backoff — up to `config.restart_budget`
/// restarts total. Epoch snapshots reach `on_snapshot` exactly once
/// each, in order, no matter how many times the stream is replayed.
///
/// `plan` injects deterministic deaths for the crash drill: when an
/// observation emits an epoch the plan wants dead, the kill is consumed
/// ([`CrashPlan::take`]) and the closure panics *before* the snapshot
/// is delivered — exactly what a power cut between compute and output
/// looks like. With `kill_workers` set, the plan poisons one long-lived
/// shard worker instead of panicking on the coordinator: the worker
/// dies when it dequeues the poison, and the loop only notices at the
/// next flush/quiesce (usually the checkpoint capture), exercising the
/// channel-propagation path end to end.
///
/// Returns the final flushed snapshot, the ingestion health of the
/// (last incarnation of the) differ, how many restarts were spent, and
/// the shard report (worker loads + merge time) when running sharded.
#[allow(clippy::type_complexity)]
fn supervised_run(
    events: &[ControlEvent],
    fresh: &dyn Fn() -> Result<(Differ, u64), Box<dyn std::error::Error>>,
    config: &FlowDiffConfig,
    checkpoint_path: Option<&Path>,
    plan: Option<&mut CrashPlan>,
    kill_workers: bool,
    on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings),
) -> Result<
    (
        Option<EpochSnapshot>,
        flowdiff::records::IngestHealth,
        u32,
        Option<(Vec<ShardStats>, u64)>,
    ),
    Box<dyn std::error::Error>,
> {
    supervised_feed(
        &mut Feed::Slice(events),
        fresh,
        config,
        checkpoint_path,
        plan,
        kill_workers,
        None,
        on_snapshot,
    )
}

/// [`supervised_run`] over any [`Feed`], with an optional degraded-
/// ingest probe. The probe is polled once per event (cheap atomic
/// reads) and its verdict is applied to the differ *before* the
/// observation, so an epoch that closes while a source is stalled or
/// dead gates its diffs instead of alarming on the missing share.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn supervised_feed(
    feed: &mut Feed<'_>,
    fresh: &dyn Fn() -> Result<(Differ, u64), Box<dyn std::error::Error>>,
    config: &FlowDiffConfig,
    checkpoint_path: Option<&Path>,
    mut plan: Option<&mut CrashPlan>,
    kill_workers: bool,
    degraded: Option<&dyn Fn() -> Option<String>>,
    mut on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings),
) -> Result<
    (
        Option<EpochSnapshot>,
        flowdiff::records::IngestHealth,
        u32,
        Option<(Vec<ShardStats>, u64)>,
    ),
    Box<dyn std::error::Error>,
> {
    let (mut differ, start) = fresh()?;
    let mut idx = start as usize;
    // Epochs below this watermark were already delivered (possibly by a
    // previous process incarnation): a replay skips them.
    let mut emitted: u64 = differ.epoch();
    let mut restarts: u32 = 0;
    let mut epochs_since_ckpt: u64 = 0;
    // One restart: spend budget, back off, restore the last durable
    // checkpoint (or start fresh when none was written yet).
    let restart = |restarts: &mut u32| -> Result<(Differ, u64), Box<dyn std::error::Error>> {
        *restarts += 1;
        if *restarts > config.restart_budget {
            return Err(format!(
                "restart budget exhausted: panicked {restarts} times, budget {}",
                config.restart_budget
            )
            .into());
        }
        let backoff = config
            .restart_backoff_us
            .saturating_mul(1u64 << (*restarts - 1).min(20));
        std::thread::sleep(std::time::Duration::from_micros(backoff));
        match checkpoint_path {
            Some(path) if path.exists() => {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(restore_checkpoint(&bytes, config)
                    .map_err(|e| format!("{}: {e}", path.display()))?)
            }
            _ => fresh(),
        }
    };
    'run: loop {
        // Pull (possibly blocking on the live merge) *before* probing:
        // a stall the merge just waived to release this event is
        // visible to the probe that gates its epoch.
        while let Some(event) = feed.get(idx) {
            if let Some(probe) = degraded {
                differ.set_ingest_degraded(probe());
            }
            let observed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let snaps = differ.observe(event);
                if let Some(plan) = plan.as_deref_mut() {
                    for snap in &snaps {
                        if snap.epoch >= emitted && plan.take(snap.epoch) {
                            if kill_workers {
                                differ.poison_worker(snap.epoch as usize);
                            } else {
                                panic!("crashdrill: killed at epoch {}", snap.epoch);
                            }
                        }
                    }
                }
                snaps
            }));
            match observed {
                Ok(snaps) => {
                    let mut fresh_epochs = 0u64;
                    // The stage timings accumulated since the last boundary
                    // belong to this observe round's epochs; a multi-epoch
                    // advance attributes the sum to the first fresh one.
                    let mut timings = if snaps.is_empty() {
                        EpochTimings::default()
                    } else {
                        differ.take_timings()
                    };
                    for snap in &snaps {
                        if snap.epoch >= emitted {
                            on_snapshot(snap, std::mem::take(&mut timings));
                            emitted = snap.epoch + 1;
                            fresh_epochs += 1;
                        }
                    }
                    idx += 1;
                    if fresh_epochs > 0 {
                        epochs_since_ckpt += fresh_epochs;
                        if let Some(path) = checkpoint_path {
                            if epochs_since_ckpt >= config.checkpoint_every_epochs {
                                // `idx` was just advanced: the checkpoint
                                // records that events[..idx] are consumed.
                                // Capture quiesces the pipeline, so a
                                // worker poisoned this round panics here
                                // instead of snapshotting a dead pipeline.
                                let saved =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        differ.save_checkpoint(idx as u64, config, path)
                                    }));
                                match saved {
                                    Ok(result) => {
                                        result?;
                                        epochs_since_ckpt = 0;
                                    }
                                    Err(_) => {
                                        let (restored, at) = restart(&mut restarts)?;
                                        differ = restored;
                                        idx = at as usize;
                                        epochs_since_ckpt = 0;
                                    }
                                }
                            }
                        }
                    }
                }
                Err(_) => {
                    let (restored, at) = restart(&mut restarts)?;
                    differ = restored;
                    idx = at as usize;
                    epochs_since_ckpt = 0;
                }
            }
        }
        // health()/shard_stats() quiesce the pipeline, so a worker
        // poisoned during the final observe rounds surfaces here; treat
        // it like any other crash and replay from the checkpoint.
        let finale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (differ.health(), differ.shard_report())
        }));
        match finale {
            Ok((health, shard_report)) => {
                let last = differ.finish();
                return Ok((last, health, restarts, shard_report));
            }
            Err(_) => {
                let (restored, at) = restart(&mut restarts)?;
                differ = restored;
                idx = at as usize;
                epochs_since_ckpt = 0;
                continue 'run;
            }
        }
    }
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
    let mut n_shards: usize = 1;
    let mut wire = false;
    let mut connections: usize = 2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--wire" => wire = true,
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--corruption" => {
                corruption = it.next().ok_or("--corruption needs a rate")?.parse()?;
                if !(0.0..=1.0).contains(&corruption) {
                    return Err("--corruption must be in [0, 1]".into());
                }
            }
            "--skew-us" => skew_us = it.next().ok_or("--skew-us needs a number")?.parse()?,
            "--jitter-us" => jitter_us = it.next().ok_or("--jitter-us needs a number")?.parse()?,
            "--shards" => {
                n_shards = it.next().ok_or("--shards needs a count")?.parse()?;
                if n_shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    // Give the reorder buffer enough slack to absorb whatever timing
    // damage the injector is configured to do, and quarantine the
    // far-future timestamps bit flips mint.
    config.reorder_slack_us = jitter_us + 2 * skew_us;
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);

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

    let (clean_keys, clean_health, chaos_keys, chaos_health) = if wire {
        // Wire drill: both runs go through an in-process loopback
        // serve pipeline — split across `connections` publisher
        // sessions, the chaos run mangling each stream independently
        // (per-connection derived seeds), like real skewed taps would.
        println!("wire: loopback ingest over {connections} publisher connection(s)");
        let (chaos_keys, chaos_health, _, mangled) = wire_session_changes(
            &current_log,
            WireFaults::Channel(&chaos),
            connections,
            baseline.clone(),
            stability.clone(),
            &config,
            n_shards,
        )?;
        println!(
            "mangled: {} frames -> {} dropped, {} duplicated, {} truncated, \
             {} bit-flipped, {} reordered",
            mangled.total_frames,
            mangled.dropped,
            mangled.duplicated,
            mangled.truncated,
            mangled.bit_flipped,
            mangled.reordered,
        );
        let (clean_keys, clean_health, ..) = wire_session_changes(
            &current_log,
            WireFaults::Clean,
            connections,
            baseline,
            stability,
            &config,
            n_shards,
        )?;
        (clean_keys, clean_health, chaos_keys, chaos_health)
    } else {
        let clean_bytes = current_log.to_wire_bytes();
        let (mangled_bytes, report) = chaos.mangle(&current_log);
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
        let (clean_keys, clean_health) = stream_changes(
            &clean_bytes,
            baseline.clone(),
            stability.clone(),
            &config,
            n_shards,
        )?;
        let (chaos_keys, chaos_health) =
            stream_changes(&mangled_bytes, baseline, stability, &config, n_shards)?;
        (clean_keys, clean_health, chaos_keys, chaos_health)
    };
    println!(
        "clean:   {} confirmed changes; ingest {clean_health}",
        clean_keys.len()
    );
    println!("stats: ingest {chaos_health}");

    let recovered = clean_keys.intersection(&chaos_keys).count();
    let fidelity = if clean_keys.is_empty() {
        1.0
    } else {
        recovered as f64 / clean_keys.len() as f64
    };
    println!(
        "fidelity: {:.1}% ({recovered}/{} confirmed changes recovered)",
        fidelity * 100.0,
        clean_keys.len()
    );
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
    let mut n_shards: usize = 1;
    let mut merge_stall_ms: u64 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--flaps" => flaps = it.next().ok_or("--flaps needs a count")?.parse()?,
            "--stalls" => stalls = it.next().ok_or("--stalls needs a count")?.parse()?,
            "--trickles" => trickles = it.next().ok_or("--trickles needs a count")?.parse()?,
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--shards" => {
                n_shards = it.next().ok_or("--shards needs a count")?.parse()?;
                if n_shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--merge-stall-ms" => {
                merge_stall_ms = it
                    .next()
                    .ok_or("--merge-stall-ms needs a number")?
                    .parse()?;
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.ingest_stall_timeout_us = merge_stall_ms * 1_000;
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
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
         {merge_stall_ms} ms, {n_shards} shard(s)"
    );

    let (clean_keys, clean_health, ..) = wire_session_changes(
        &current_log,
        WireFaults::Clean,
        connections,
        baseline.clone(),
        stability.clone(),
        &config,
        n_shards,
    )?;
    let (drill_keys, drill_health, reports, _) = wire_session_changes(
        &current_log,
        WireFaults::Conn(&chaos),
        connections,
        baseline,
        stability,
        &config,
        n_shards,
    )?;
    for r in &reports {
        println!("stats: conn {}", conn_line(r));
    }
    println!(
        "clean:   {} confirmed changes; ingest {clean_health}",
        clean_keys.len()
    );
    println!("stats: ingest {drill_health}");

    let recovered = clean_keys.intersection(&drill_keys).count();
    let fidelity = if clean_keys.is_empty() {
        1.0
    } else {
        recovered as f64 / clean_keys.len() as f64
    };
    println!(
        "fidelity: {:.1}% ({recovered}/{} confirmed changes recovered)",
        fidelity * 100.0,
        clean_keys.len()
    );
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
        let bytes = serde::to_vec(snapshot);
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut keys = BTreeSet::new();
        collect_keys(&snapshot.diff, &mut keys);
        EpochTrace {
            epoch: snapshot.epoch,
            hash,
            keys,
        }
    }
}

/// `crashdrill`: run the 320-server capture through the supervised
/// differ twice — once uninterrupted, once with a seeded [`CrashPlan`]
/// killing the process at chosen epochs (checkpoint + restore + replay
/// in between) — and report how faithfully the interrupted run
/// recovered the clean run's per-epoch snapshots.
fn cmd_crashdrill(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut kills: usize = 3;
    let mut n_shards: usize = 1;
    let mut kill_workers = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--kills" => kills = it.next().ok_or("--kills needs a count")?.parse()?,
            "--shards" => {
                n_shards = it.next().ok_or("--shards needs a count")?.parse()?;
                if n_shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--kill-worker" => kill_workers = true,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    if kill_workers && n_shards < 2 {
        return Err("--kill-worker needs --shards 2 or more (the single \
                    pipeline has no worker threads to kill)"
            .into());
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    // Short epochs give the short drill capture enough boundaries to
    // kill at; checkpoint at every one so recovery loses nothing.
    config.online_epoch_us = 1_000_000;
    config.online_window_us = 5_000_000;
    config.checkpoint_every_epochs = 1;
    // Each planned kill spends one restart; keep the drill fast.
    config.restart_budget = kills as u32;
    config.restart_backoff_us = 1_000;
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let events: Vec<ControlEvent> = current_log.events().to_vec();
    println!(
        "drill: seed {seed}, {kills} {} over {} events, {n_shards} shard(s), \
         checkpoint every {} epoch(s)",
        if kill_workers {
            "worker poisoning(s)"
        } else {
            "kill(s)"
        },
        events.len(),
        config.checkpoint_every_epochs
    );

    // Uninterrupted reference run.
    let fresh = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
        Ok((
            if n_shards > 1 {
                Differ::Sharded(ShardedDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                    n_shards,
                )?)
            } else {
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?)
            },
            0,
        ))
    };
    let mut clean: Vec<EpochTrace> = Vec::new();
    let (clean_last, _, clean_restarts, _) =
        supervised_run(&events, &fresh, &config, None, None, false, |snap, _| {
            clean.push(EpochTrace::of(snap))
        })?;
    assert_eq!(clean_restarts, 0, "the clean run must not panic");
    if let Some(snap) = &clean_last {
        clean.push(EpochTrace::of(snap));
    }

    // Interrupted run: seeded kills, checkpoint + restore + replay. The
    // final flush epoch runs outside the supervised region, so kills
    // are drawn from the observe-emitted epochs only.
    let observe_epochs = clean.len().saturating_sub(1) as u64;
    let mut plan = CrashPlan::seeded(seed, kills, observe_epochs);
    println!("plan: kill at epochs {:?}", plan.kill_epochs());
    let ckpt_dir = std::env::temp_dir().join(format!("flowdiff-crashdrill-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir)?;
    let ckpt_path = ckpt_dir.join(format!("drill-{seed}.ckpt"));
    let planned = plan.kill_epochs().len();
    let mut drilled: Vec<EpochTrace> = Vec::new();
    // The drill panics on purpose; keep the default hook's backtrace
    // chatter out of the report.
    let orig_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = supervised_run(
        &events,
        &fresh,
        &config,
        Some(&ckpt_path),
        Some(&mut plan),
        kill_workers,
        |snap, _| drilled.push(EpochTrace::of(snap)),
    );
    std::panic::set_hook(orig_hook);
    let (drill_last, _, restarts, _) = outcome?;
    if let Some(snap) = &drill_last {
        drilled.push(EpochTrace::of(snap));
    }
    println!(
        "drill: {restarts} of {planned} planned {} fired; each restored from the last checkpoint",
        if kill_workers {
            "worker poisoning(s)"
        } else {
            "kill(s)"
        }
    );

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
    let (mut half, _) = fresh()?;
    let cut = events.len() / 2;
    for event in &events[..cut] {
        half.observe(event);
    }
    let mid_ckpt = half.checkpoint_bytes(cut as u64, &config);
    let (mut lossy, at) = restore_checkpoint(&mid_ckpt, &config)?;
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

/// Streams capture bytes through an online differ (single or sharded,
/// per `n_shards`) and returns the union over all epochs of confirmed
/// change keys, plus the ingestion health counters. Decode errors are
/// tolerated (the stream resynchronizes); they show up in the health
/// counters.
fn stream_changes(
    bytes: &[u8],
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
    n_shards: usize,
) -> Result<(BTreeSet<String>, flowdiff::records::IngestHealth), Box<dyn std::error::Error>> {
    let mut differ = if n_shards > 1 {
        Differ::Sharded(ShardedDiffer::try_new(
            baseline, stability, config, n_shards,
        )?)
    } else {
        Differ::Single(OnlineDiffer::try_new(baseline, stability, config)?)
    };
    let mut keys = BTreeSet::new();
    let mut stream = LogStream::from_wire_bytes(bytes)?;
    // Decode errors are tallied in the stream's own counters.
    for event in stream.by_ref().flatten() {
        for snapshot in differ.observe(event.as_ref()) {
            collect_keys(&snapshot.diff, &mut keys);
        }
    }
    let mut health = differ.health();
    health.absorb_stream(stream.stats());
    if let Some(snapshot) = differ.finish() {
        collect_keys(&snapshot.diff, &mut keys);
    }
    Ok((keys, health))
}

/// Drains a live merge through a fresh differ (single or sharded) and
/// returns the union of confirmed change keys plus the differ's health.
fn drain_merge(
    merge: EventMerge,
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
    n_shards: usize,
) -> Result<(BTreeSet<String>, flowdiff::records::IngestHealth), Box<dyn std::error::Error>> {
    let mut differ = if n_shards > 1 {
        Differ::Sharded(ShardedDiffer::try_new(
            baseline, stability, config, n_shards,
        )?)
    } else {
        Differ::Single(OnlineDiffer::try_new(baseline, stability, config)?)
    };
    let mut keys = BTreeSet::new();
    for event in merge {
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

/// Like [`stream_changes`], but over the wire: deals the capture
/// across `connections` loopback session publishers (faulted per
/// `faults`), ingests through [`IngestServer`], and feeds the
/// `(timestamp, connection)` merge straight into the differ — events
/// are diffed as they arrive, bounded by the per-connection queues.
/// Returns the confirmed-change keys, the folded health (per-connection
/// stream stats absorbed), the per-stream connection reports, and the
/// summed ground truth of any byte-level mangling.
#[allow(clippy::type_complexity)]
fn wire_session_changes(
    log: &ControllerLog,
    faults: WireFaults<'_>,
    connections: usize,
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
    n_shards: usize,
) -> Result<
    (
        BTreeSet<String>,
        flowdiff::records::IngestHealth,
        Vec<netsim::net::ConnReport>,
        ChaosReport,
    ),
    Box<dyn std::error::Error>,
> {
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
    for (i, part) in split_capture(log, connections).into_iter().enumerate() {
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
    let (keys, mut health) = drain_merge(live.take_merge(), baseline, stability, config, n_shards)?;
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
    Ok((keys, health, reports, mangled))
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
        Checkpoint::capture(&differ, 0, &config)
            .save(&path)
            .unwrap();
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

    #[test]
    fn supervised_run_survives_planned_kills_byte_identically() {
        // Tiny end-to-end drill: a lab-scale capture, two planned kills,
        // recovery must reproduce the uninterrupted epochs exactly.
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 4);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 2;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = analyze(&log, &baseline, &config);
        let (current, _) = flowdiff_bench::tree_capture(2, 8, 4);
        let events: Vec<ControlEvent> = current.events().to_vec();
        let fresh = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            ))
        };
        let mut clean = Vec::new();
        let (clean_last, _, r, _) =
            supervised_run(&events, &fresh, &config, None, None, false, |s, _| {
                clean.push(EpochTrace::of(s))
            })
            .unwrap();
        assert_eq!(r, 0);
        clean.extend(clean_last.as_ref().map(EpochTrace::of));
        assert!(clean.len() >= 3, "drill needs epochs to kill at");

        let mut plan = CrashPlan::seeded(11, 2, clean.len() as u64 - 1);
        let kills = plan.kill_epochs().len();
        let path = tmp("supervised.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut drilled = Vec::new();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(
            &events,
            &fresh,
            &config,
            Some(&path),
            Some(&mut plan),
            false,
            |s, _| drilled.push(EpochTrace::of(s)),
        );
        std::panic::set_hook(hook);
        let (drill_last, _, restarts, _) = outcome.unwrap();
        drilled.extend(drill_last.as_ref().map(EpochTrace::of));
        assert_eq!(restarts as usize, kills, "every planned kill fired");
        assert_eq!(plan.remaining(), 0);
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_supervised_run_recovers_the_single_shard_epochs() {
        // The strongest cross-shape claim in one drill: a 3-shard
        // supervised run with planned kills (v2 segmented checkpoints,
        // restore, replay) reproduces the *single-shard* uninterrupted
        // run's epoch traces byte for byte.
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 4);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 2;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = analyze(&log, &baseline, &config);
        let (current, _) = flowdiff_bench::tree_capture(2, 8, 4);
        let events: Vec<ControlEvent> = current.events().to_vec();

        let single = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            ))
        };
        let mut clean = Vec::new();
        let (clean_last, _, r, report) =
            supervised_run(&events, &single, &config, None, None, false, |s, _| {
                clean.push(EpochTrace::of(s))
            })
            .unwrap();
        assert_eq!(r, 0);
        assert!(report.is_none(), "single pipeline has no shard report");
        clean.extend(clean_last.as_ref().map(EpochTrace::of));
        assert!(clean.len() >= 3, "drill needs epochs to kill at");

        let sharded = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Sharded(ShardedDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                    3,
                )?),
                0,
            ))
        };
        let mut plan = CrashPlan::seeded(11, 2, clean.len() as u64 - 1);
        let kills = plan.kill_epochs().len();
        let path = tmp("sharded-supervised.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut drilled = Vec::new();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(
            &events,
            &sharded,
            &config,
            Some(&path),
            Some(&mut plan),
            false,
            |s, _| drilled.push(EpochTrace::of(s)),
        );
        std::panic::set_hook(hook);
        let (drill_last, _, restarts, report) = outcome.unwrap();
        drilled.extend(drill_last.as_ref().map(EpochTrace::of));
        assert_eq!(restarts as usize, kills, "every planned kill fired");
        let (stats, _) = report.expect("sharded run reports worker loads");
        assert_eq!(stats.len(), 3);
        assert_eq!(
            clean, drilled,
            "killed 3-shard run == uninterrupted 1-shard run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_panic_surfaces_and_recovers_exactly_once() {
        // The persistent-pipeline drill: poisoning a long-lived shard
        // worker mid-epoch must propagate through the channels into the
        // supervised restart path (the coordinator only notices at its
        // next flush/quiesce), restore from the last checkpoint, and
        // still deliver every epoch exactly once — byte-identical to
        // the uninterrupted single-shard run.
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 4);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 2;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = analyze(&log, &baseline, &config);
        let (current, _) = flowdiff_bench::tree_capture(2, 8, 4);
        let events: Vec<ControlEvent> = current.events().to_vec();

        let single = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            ))
        };
        let mut clean = Vec::new();
        let (clean_last, _, r, _) =
            supervised_run(&events, &single, &config, None, None, false, |s, _| {
                clean.push(EpochTrace::of(s))
            })
            .unwrap();
        assert_eq!(r, 0);
        clean.extend(clean_last.as_ref().map(EpochTrace::of));
        assert!(clean.len() >= 3, "drill needs epochs to kill at");

        let sharded = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Sharded(ShardedDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                    3,
                )?),
                0,
            ))
        };
        let mut plan = CrashPlan::seeded(17, 2, clean.len() as u64 - 1);
        let kills = plan.kill_epochs().len();
        assert!(kills >= 1, "the plan must poison at least one worker");
        let path = tmp("worker-panic.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut drilled = Vec::new();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(
            &events,
            &sharded,
            &config,
            Some(&path),
            Some(&mut plan),
            true,
            |s, _| drilled.push(EpochTrace::of(s)),
        );
        std::panic::set_hook(hook);
        let (drill_last, _, restarts, report) = outcome.unwrap();
        drilled.extend(drill_last.as_ref().map(EpochTrace::of));
        // A poisoned worker never kills the coordinator synchronously,
        // so two poisonings in one observe round can surface as a
        // single crash — at least one restart, at most one per kill.
        assert!(restarts >= 1, "a worker death must surface as a restart");
        assert!(
            restarts as usize <= kills,
            "each poisoning costs at most one restart"
        );
        assert_eq!(plan.remaining(), 0, "every planned poisoning was injected");
        let (stats, _) = report.expect("sharded run reports worker loads");
        assert_eq!(stats.len(), 3);
        assert_eq!(
            clean, drilled,
            "worker-killed 3-shard run == uninterrupted 1-shard run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervised_run_fails_fast_when_budget_exhausted() {
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 3);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 0;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&baseline);
        let events: Vec<ControlEvent> = log.events().to_vec();
        let fresh = || -> Result<(Differ, u64), Box<dyn std::error::Error>> {
            Ok((
                Differ::Single(OnlineDiffer::try_new(
                    baseline.clone(),
                    stability.clone(),
                    &config,
                )?),
                0,
            ))
        };
        let mut plan = CrashPlan::seeded(3, 1, 3);
        assert!(!plan.kill_epochs().is_empty());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(
            &events,
            &fresh,
            &config,
            None,
            Some(&mut plan),
            false,
            |_, _| {},
        );
        std::panic::set_hook(hook);
        let err = outcome.unwrap_err();
        assert!(
            err.to_string().contains("restart budget exhausted"),
            "got: {err}"
        );
    }
}
