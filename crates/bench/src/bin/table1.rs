//! Table I — Debugging with FlowDiff: inject the seven operational
//! problems on the lab data center and report, per problem, the impacted
//! signature components and the inferred problem type.
//!
//! A row counts as detected when its report is not healthy and raises
//! more unexplained changes than the same seed's capture without the
//! problem: with background services on, some seeds already raise a
//! change or two with nothing injected.

use std::collections::BTreeSet;

use flowdiff::prelude::*;
use flowdiff_bench::print_table;
use workloads::prelude::*;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());

    println!("Table I - debugging with FlowDiff (paper, Section V-A)");
    println!("baseline: three-tier app S25 -> S13 -> S4 -> S14, Poisson 10 req/s, 60 s\n");

    let l1 = lab.table1_scenario(1, None).run().log;
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);

    let report = |seed, problem| {
        let current = BehaviorModel::build(&lab.table1_scenario(seed, problem).run().log, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        diagnose(&diff, &current, &[], &config)
    };

    let mut rows = Vec::new();
    let mut detected_all = true;
    for (i, problem) in lab.table1().iter().enumerate() {
        let seed = 100 + i as u64;
        let (control, report) = (report(seed, None), report(seed, Some(problem)));

        let impacted: BTreeSet<&str> = report.unknown.iter().map(|c| c.kind.name()).collect();
        let impacted_str = impacted.iter().copied().collect::<Vec<_>>().join(", ");
        let inference = report
            .problems
            .iter()
            .map(ProblemClass::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let detected = !report.is_healthy() && report.unknown.len() > control.unknown.len();
        detected_all &= detected;
        rows.push(vec![
            problem.id.to_string(),
            problem.label.to_string(),
            problem.paper_impact.to_string(),
            impacted_str,
            inference,
            report.unknown.len().to_string(),
            control.unknown.len().to_string(),
            if detected { "yes" } else { "NO" }.to_string(),
        ]);
    }

    print_table(
        &[
            "ID",
            "Problem introduced",
            "Paper: impact",
            "Measured: impact",
            "Measured: inference",
            "Changes",
            "Without problem",
            "Detected",
        ],
        &rows,
    );
    println!(
        "\nresult: {} of 7 problems detected",
        rows.iter().filter(|r| r[7] == "yes").count()
    );
    assert!(detected_all, "every Table I problem must be detected");
}
