//! Scalability tour: the 320-server tree simulation of Section V-C,
//! scaled down for a quick run. Prints the PacketIn rate and FlowDiff's
//! model-building time as the number of applications grows.
//!
//! Run with: `cargo run --release --example scalability_tour`

use std::time::Instant;

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn main() {
    // Full paper scale is tree(16, 20) = 320 servers; 8 racks keeps the
    // example fast while preserving the shape.
    let topo = Topology::tree(8, 10);
    println!(
        "topology: {} hosts, {} OpenFlow switches",
        topo.hosts().count(),
        topo.of_switches().count()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "apps", "packet-ins", "rate (1/s)", "model (ms)"
    );

    let config = FlowDiffConfig::default();
    for n_apps in [1, 3, 5, 9, 13, 19] {
        // Section V-C's ON/OFF meshes over t = 1..20 s.
        let log = tree_mesh(topo.clone(), n_apps, 42 + n_apps as u64, 19)
            .run()
            .log;
        let packet_ins = log.packet_ins().count();
        let span = log
            .time_range()
            .map(|(a, b)| (b.as_secs_f64() - a.as_secs_f64()).max(1e-9))
            .unwrap_or(1.0);

        let t0 = Instant::now();
        let model = BehaviorModel::build(&log, &config);
        let elapsed = t0.elapsed();
        println!(
            "{:>6} {:>12} {:>14.0} {:>12.1}",
            n_apps,
            packet_ins,
            packet_ins as f64 / span,
            elapsed.as_secs_f64() * 1e3
        );
        drop(model);
    }
    println!("\nFlowDiff's processing time grows sub-linearly with load (Fig. 13b).");
}
