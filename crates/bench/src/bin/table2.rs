//! Table II — Robustness of application signatures: for each of the five
//! deployment cases, capture the same data center twice under different
//! workloads and report which signatures stay stable (no spurious diffs).

use flowdiff::prelude::*;
use flowdiff_bench::{capture_case, print_table, table2_cases};
use workloads::prelude::Lab;

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    println!("Table II - robustness of application signatures");
    println!("each case captured twice (different seeds & request rates); a robust");
    println!("signature yields zero unexplained changes between the two captures\n");

    let mut rows = Vec::new();
    for (ci, (case, apps)) in table2_cases().iter().enumerate() {
        // Run 1: baseline workload. Run 2: different seed and rate.
        let l1 = capture_case(&lab, apps, 10 + ci as u64, 60, 10.0);
        let l2 = capture_case(&lab, apps, 200 + ci as u64, 60, 4.0);

        let baseline = BehaviorModel::build(&l1, &config);
        let stability = analyze(&l1, &baseline, &config);
        let current = BehaviorModel::build(&l2, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        let report = diagnose(&diff, &current, &[], &config);

        let count_kind = |k: SignatureKind| report.unknown.iter().filter(|c| c.kind == k).count();
        let groups = baseline.groups.len();
        let stable_sig = |changes: usize| if changes == 0 { "stable" } else { "CHANGED" };
        rows.push(vec![
            case.to_string(),
            apps.iter().map(|a| a.name).collect::<Vec<_>>().join(", "),
            groups.to_string(),
            stable_sig(count_kind(SignatureKind::Cg)).to_string(),
            stable_sig(count_kind(SignatureKind::Dd)).to_string(),
            stable_sig(count_kind(SignatureKind::Ci)).to_string(),
            stable_sig(count_kind(SignatureKind::Pc)).to_string(),
            // FS tracks the workload volume by design; the paper's claim
            // is about CG/DD/CI/PC stability.
            count_kind(SignatureKind::Fs).to_string(),
        ]);
    }

    print_table(
        &[
            "Case",
            "Applications",
            "Groups",
            "CG",
            "DD",
            "CI",
            "PC",
            "FS changes",
        ],
        &rows,
    );
    println!("\n(the paper reports CG/DD/PC stable across workloads; CI stable except");
    println!("under non-uniform load balancing — unstable CI is excluded by the");
    println!("stability analysis rather than reported as a change)");
}
