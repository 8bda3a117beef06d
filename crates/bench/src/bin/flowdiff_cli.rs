//! A small command-line front end for FlowDiff over on-disk captures.
//!
//! ```text
//! flowdiff_cli demo <dir>                  generate demo captures (healthy
//!     [--scale lab|datacenter]             baseline.fcap + faulty current.fcap);
//!                                          datacenter = the paper's 320-server tree
//! flowdiff_cli model <capture.fcap>        summarize one capture's model
//! flowdiff_cli diff <baseline> <current>   diagnose current against baseline
//!     [--special ip,ip,...]                mark special-purpose service IPs
//! ```
//!
//! Captures use the binary format of `ControllerLog::to_wire_bytes`
//! (OpenFlow wire messages with timestamp/dpid/direction framing).

use std::net::Ipv4Addr;
use std::process::ExitCode;

use flowdiff::prelude::*;
use flowdiff_bench::LabEnv;
use netsim::prelude::*;
use workloads::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => {
            eprintln!("usage: flowdiff_cli demo <dir> | model <capture> | diff <baseline> <current> [--special ip,ip]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Generates a healthy baseline and a faulty current capture in `dir`.
fn cmd_demo(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("demo needs a target directory")?;
    let mut scale = "lab";
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(String::as_str) {
                Some(s @ ("lab" | "datacenter")) => scale = s,
                other => return Err(format!("--scale lab|datacenter, got {other:?}").into()),
            },
            other => return Err(format!("unknown demo flag {other}").into()),
        }
    }
    std::fs::create_dir_all(dir)?;
    if scale == "datacenter" {
        // The paper's 320-server tree (16 racks x 20 servers): two
        // captures of the same nine-app workload under different seeds,
        // the pair the scale-out docs exercise.
        let (baseline, _) = flowdiff_bench::tree_capture(9, 42, 6);
        let (current, _) = flowdiff_bench::tree_capture(9, 43, 6);
        let base_path = format!("{dir}/baseline.fcap");
        let cur_path = format!("{dir}/current.fcap");
        flowdiff::checkpoint::atomic_write(base_path.as_ref(), &baseline.to_wire_bytes())?;
        flowdiff::checkpoint::atomic_write(cur_path.as_ref(), &current.to_wire_bytes())?;
        println!("wrote {base_path} ({} events)", baseline.len());
        println!("wrote {cur_path} ({} events)", current.len());
        println!("\ntry:\n  flowdiff-bench watch {base_path} {cur_path}");
        return Ok(());
    }
    let env = LabEnv::new();

    let capture = |seed: u64, fault: Option<Fault>| -> ControllerLog {
        let mut sc = Scenario::new(
            env.topo.clone(),
            seed,
            Timestamp::from_secs(1),
            Timestamp::from_secs(61),
        );
        sc.services(env.catalog.clone())
            .app(templates::three_tier(
                "webshop",
                vec![env.ip("S13")],
                vec![env.ip("S4")],
                vec![env.ip("S14")],
                None,
            ))
            .client(ClientWorkload {
                client: env.ip("S25"),
                entry_hosts: vec![env.ip("S13")],
                entry_port: 80,
                process: ArrivalProcess::poisson_per_sec(10.0),
                request_bytes: 2_048,
            });
        if let Some(f) = fault {
            sc.fault(Timestamp::ZERO, f);
        }
        sc.run().log
    };

    let baseline = capture(1, None);
    let current = capture(
        2,
        Some(Fault::HostSlowdown {
            host: env.node("S4"),
            extra_us: 150_000,
        }),
    );
    let base_path = format!("{dir}/baseline.fcap");
    let cur_path = format!("{dir}/current.fcap");
    // Atomic (tmp + fsync + rename): a crash mid-demo can't leave a
    // torn capture behind for a later watch run to choke on.
    flowdiff::checkpoint::atomic_write(base_path.as_ref(), &baseline.to_wire_bytes())?;
    flowdiff::checkpoint::atomic_write(cur_path.as_ref(), &current.to_wire_bytes())?;
    let specials = env
        .catalog
        .special_ips()
        .iter()
        .map(Ipv4Addr::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!("wrote {base_path} ({} events)", baseline.len());
    println!("wrote {cur_path} ({} events)", current.len());
    println!("\ntry:\n  flowdiff_cli diff {base_path} {cur_path} --special {specials}");
    Ok(())
}

fn load(path: &str) -> Result<ControllerLog, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(ControllerLog::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?)
}

fn parse_specials(args: &[String]) -> Result<Vec<Ipv4Addr>, Box<dyn std::error::Error>> {
    let mut specials = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--special" {
            let list = it.next().ok_or("--special needs a comma-separated list")?;
            for ip in list.split(',') {
                specials.push(ip.trim().parse::<Ipv4Addr>()?);
            }
        }
    }
    Ok(specials)
}

/// Prints a one-capture model summary.
fn cmd_model(args: &[String]) -> CliResult {
    let path = args.first().ok_or("model needs a capture path")?;
    let log = load(path)?;
    let config = FlowDiffConfig::default().with_special_ips(parse_specials(&args[1..])?);
    let model = BehaviorModel::build(&log, &config);
    println!("capture: {} events over {:?}", log.len(), model.span);
    println!("flows:   {} records", model.records.len());
    println!("groups:  {}", model.groups.len());
    for g in &model.groups {
        println!(
            "  - {} members, {} edges, {} flows, {:.1} flows/s",
            g.group.members.len(),
            g.group.edges.len(),
            g.flow_stats.flow_count,
            g.flow_stats.flows_per_sec
        );
    }
    println!(
        "infra:   {} adjacencies, {} live switches, CRT {:.0}us (n={})",
        model.topology.adjacencies.len(),
        model.topology.live_switches.len(),
        model.response.overall.mean,
        model.response.overall.n
    );
    println!("util:    {} polled ports", model.utilization.per_port.len());
    Ok(())
}

/// Diffs two captures and prints the diagnosis report.
fn cmd_diff(args: &[String]) -> CliResult {
    if args.len() < 2 {
        return Err("diff needs <baseline> <current>".into());
    }
    let l1 = load(&args[0])?;
    let l2 = load(&args[1])?;
    let config = FlowDiffConfig::default().with_special_ips(parse_specials(&args[2..])?);

    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    let current = BehaviorModel::build(&l2, &config);
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    let report = diagnose(&diff, &current, &[], &config);
    println!("{report}");
    if report.is_healthy() {
        println!("verdict: no unexplained changes");
    }
    Ok(())
}
