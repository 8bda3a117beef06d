//! Fault diagnosis tour: injects the operational problems of Table I one
//! by one and prints, for each, the signatures that changed and the
//! inferred problem class.
//!
//! Run with: `cargo run --example fault_diagnosis`

use std::collections::BTreeSet;

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn capture(lab: &Lab, seed: u64, fault: Option<Fault>) -> ControllerLog {
    let mut sc = lab.webshop(seed, 60);
    if let Some(f) = fault {
        sc.fault(Timestamp::ZERO, f);
    }
    sc.run().log
}

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());

    // Baseline model from a healthy capture.
    let l1 = capture(&lab, 1, None);
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);

    let backbone = lab
        .topo
        .link_between(lab.node("of1"), lab.node("of7"))
        .unwrap();
    let faults: Vec<(&str, Fault)> = vec![
        (
            "#1 misconfigured INFO logging on the app server",
            Fault::HostSlowdown {
                host: lab.node("S4"),
                extra_us: 120_000,
            },
        ),
        (
            "#2 packet loss on the web-app path (tc)",
            Fault::LinkLoss {
                link: backbone,
                rate: 0.05,
            },
        ),
        (
            "#4 application crash on the app server",
            Fault::AppCrash {
                host: lab.node("S4"),
                port: 8080,
            },
        ),
        (
            "#5 host shutdown (database server)",
            Fault::HostDown {
                host: lab.node("S14"),
            },
        ),
        (
            "#6 firewall blocks the database port",
            Fault::PortBlock {
                host: lab.node("S14"),
                port: 3306,
            },
        ),
        (
            "controller overload",
            Fault::ControllerOverload { factor: 40.0 },
        ),
    ];

    for (i, (label, fault)) in faults.into_iter().enumerate() {
        let l2 = capture(&lab, 100 + i as u64, Some(fault));
        let current = BehaviorModel::build(&l2, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        let report = diagnose(&diff, &current, &[], &config);

        let impacted: BTreeSet<&str> = report.unknown.iter().map(|c| c.kind.name()).collect();
        println!("== {label}");
        println!(
            "   impacted signatures: {}",
            impacted.into_iter().collect::<Vec<_>>().join(", ")
        );
        for p in &report.problems {
            println!("   inference: {p}");
        }
        if let Some((comp, n)) = report.ranking.first() {
            println!("   top suspect: {comp} ({n} changes)");
        }
        println!();
    }
}
