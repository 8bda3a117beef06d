//! Fault diagnosis tour: injects the seven operational problems of
//! Table I (`Lab::table1`) one by one and prints, for each, the
//! signatures that changed, the inferred problem class and the top
//! suspect.
//!
//! Run with: `cargo run --example fault_diagnosis`

use std::collections::BTreeSet;

use flowdiff::prelude::*;
use workloads::prelude::*;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());

    // Table I's captures as the `table1` binary takes them: a healthy
    // baseline at seed 1, and row i (from 0) at seed 100 + i.
    let l1 = lab.table1_scenario(1, None).run().log;
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);

    for (i, problem) in lab.table1().iter().enumerate() {
        let l2 = lab.table1_scenario(100 + i as u64, Some(problem)).run().log;
        let current = BehaviorModel::build(&l2, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        let report = diagnose(&diff, &current, &[], &config);

        let impacted: BTreeSet<&str> = report.unknown.iter().map(|c| c.kind.name()).collect();
        println!("== #{} {}", problem.id, problem.label);
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
