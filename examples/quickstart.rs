//! Quickstart: build a baseline model of a healthy data center, inject a
//! fault, and let FlowDiff explain what changed.
//!
//! Run with: `cargo run --example quickstart`

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn main() {
    // 1. The data center: the paper's lab testbed plus service nodes,
    //    running the Table I webshop (S25 -> S13 -> S4 -> S14) under a
    //    steady Poisson workload for 60 s.
    let lab = Lab::new();

    // 2. Capture the healthy baseline log L1 and model it.
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let l1 = lab.webshop(1, 60).run().log;
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    println!(
        "baseline: {} flows, {} application group(s), {} switch adjacencies",
        baseline.records.len(),
        baseline.groups.len(),
        baseline.topology.adjacencies.len()
    );

    // 3. Something goes wrong: the app server gets misconfigured with
    //    debug logging (Table I, problem #1) during the L2 capture.
    let mut sc2 = lab.webshop(2, 60);
    lab.table1()[0].inject(&mut sc2, Timestamp::from_secs(5));
    let l2 = sc2.run().log;
    let current = BehaviorModel::build(&l2, &config);

    // 4. Diff and diagnose.
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    let report = diagnose(&diff, &current, &[], &config);
    println!("\n{report}");

    assert!(
        !report.is_healthy(),
        "the injected slowdown must be detected"
    );
}
