//! Ablation — OpenFlow deployment modes (Section VI): how reactive
//! microflow rules, wildcard rules, proactive rules, and a hybrid
//! (core-only OpenFlow) deployment trade control-plane load against
//! FlowDiff's visibility and detection power.
//!
//! For each mode: capture a healthy baseline and a faulty run (app-server
//! slowdown + app crash), then report control-message volume, signature
//! coverage, and whether the faults are still detected.

use flowdiff::prelude::*;
use flowdiff_bench::print_table;
use netsim::prelude::*;
use workloads::prelude::*;

struct Mode {
    label: &'static str,
    deployment: Deployment,
    hybrid_topo: bool,
}

fn capture(lab: &Lab, deployment: Deployment, seed: u64, fault: Option<Fault>) -> ControllerLog {
    let mut sc = lab.webshop(seed, 60);
    sc.deployment(deployment);
    if let Some(f) = fault {
        sc.fault(Timestamp::ZERO, f);
    }
    sc.run().log
}

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    // The hybrid lab keeps the same host names, so the same app
    // deployment works; services attach to its core.
    let hybrid = Lab::hybrid();
    assert_eq!(hybrid.catalog, lab.catalog, "same service addressing");

    let modes = [
        Mode {
            label: "reactive microflow",
            deployment: Deployment::Reactive,
            hybrid_topo: false,
        },
        Mode {
            label: "wildcard /24",
            deployment: Deployment::Wildcard { prefix_len: 24 },
            hybrid_topo: false,
        },
        Mode {
            label: "wildcard /16",
            deployment: Deployment::Wildcard { prefix_len: 16 },
            hybrid_topo: false,
        },
        Mode {
            label: "hybrid (core-only OF)",
            deployment: Deployment::Reactive,
            hybrid_topo: true,
        },
        Mode {
            label: "proactive",
            deployment: Deployment::Proactive,
            hybrid_topo: false,
        },
    ];

    println!("Ablation - deployment modes (Section VI)\n");
    let mut rows = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        let testbed = if mode.hybrid_topo { &hybrid } else { &lab };
        let l1 = capture(testbed, mode.deployment, 1, None);
        let baseline = BehaviorModel::build(&l1, &config);
        let stability = analyze(&l1, &baseline, &config);

        let detect = |fault: Fault, seed: u64| -> bool {
            let l2 = capture(testbed, mode.deployment, seed, Some(fault));
            let current = BehaviorModel::build(&l2, &config);
            let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
            !diagnose(&diff, &current, &[], &config).unknown.is_empty()
        };
        let slowdown_detected = detect(
            Fault::HostSlowdown {
                host: testbed.node("S4"),
                extra_us: 150_000,
            },
            100 + i as u64,
        );
        let crash_detected = detect(
            Fault::AppCrash {
                host: testbed.node("S4"),
                port: 8080,
            },
            200 + i as u64,
        );

        let group_edges: usize = baseline.groups.iter().map(|g| g.group.edges.len()).sum();
        rows.push(vec![
            mode.label.to_string(),
            l1.packet_ins().count().to_string(),
            baseline.records.len().to_string(),
            group_edges.to_string(),
            baseline.topology.adjacencies.len().to_string(),
            if slowdown_detected { "yes" } else { "no" }.to_string(),
            if crash_detected { "yes" } else { "no" }.to_string(),
        ]);
    }

    print_table(
        &[
            "mode",
            "packet-ins",
            "flow records",
            "CG edges",
            "PT adjacencies",
            "slowdown det.",
            "crash det.",
        ],
        &rows,
    );

    println!("\nexpectations (paper, Section VI):");
    println!("- wildcard rules shrink control traffic and coarsen visibility;");
    println!("  coarse prefixes may hide problems entirely");
    println!("- hybrid keeps detection but localizes per path, not per link");
    println!("  (PT adjacencies collapse to zero with a single OF hop)");
    println!("- proactive deployment blinds FlowDiff completely");

    // Hard expectations.
    let by_label = |l: &str| rows.iter().find(|r| r[0].starts_with(l)).unwrap().clone();
    let reactive = by_label("reactive");
    let hybrid_row = by_label("hybrid");
    let proactive = by_label("proactive");
    assert_eq!(reactive[5], "yes");
    assert_eq!(reactive[6], "yes");
    assert_eq!(hybrid_row[6], "yes", "hybrid still sees app structure");
    assert_eq!(hybrid_row[4], "0", "single OF hop infers no adjacency");
    assert_eq!(proactive[1], "0", "proactive: no PacketIn at all");
    assert_eq!(proactive[5], "no");
    assert_eq!(proactive[6], "no");
}
