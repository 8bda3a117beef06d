//! Table I — Debugging with FlowDiff: inject the seven operational
//! problems on the lab data center and report, per problem, the impacted
//! signature components and the inferred problem type.

use std::collections::BTreeSet;

use flowdiff::prelude::*;
use flowdiff_bench::print_table;
use netsim::prelude::*;
use workloads::prelude::*;

fn capture(lab: &Lab, seed: u64, fault: Option<Fault>, background: bool) -> ControllerLog {
    let mut sc = lab.webshop(seed, 60);
    sc.background_services(true);
    if let Some(f) = fault {
        sc.fault(Timestamp::ZERO, f);
    }
    if background {
        // Problem 7: a single long-lived iperf transfer saturating the
        // of1-of7 backbone shared with the application paths.
        let key = openflow::match_fields::FlowKey::tcp(lab.ip("S1"), 9_999, lab.ip("S20"), 5_001);
        sc.flow(
            Timestamp::from_secs(2),
            FlowSpec::new(key, 70_000_000_000, 58_000_000),
        );
    }
    sc.run().log
}

fn main() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());

    println!("Table I - debugging with FlowDiff (paper, Section V-A)");
    println!("baseline: three-tier app S25 -> S13 -> S4 -> S14, Poisson 10 req/s, 60 s\n");

    let l1 = capture(&lab, 1, None, false);
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);

    let problems: Vec<(&str, &str, &str, Option<Fault>, bool)> = vec![
        (
            "1",
            "Mis-configure \"INFO\" logging on Tomcat",
            "DD",
            Some(Fault::HostSlowdown {
                host: lab.node("S4"),
                extra_us: 120_000,
            }),
            false,
        ),
        (
            "2",
            "Emulate loss using tc on the server",
            "DD, FS",
            Some(Fault::LinkLoss {
                link: lab
                    .topo
                    .link_between(lab.node("of1"), lab.node("of7"))
                    .expect("backbone link"),
                rate: 0.05,
            }),
            false,
        ),
        (
            "3",
            "High CPU (background process)",
            "DD",
            Some(Fault::HostSlowdown {
                host: lab.node("S4"),
                extra_us: 250_000,
            }),
            false,
        ),
        (
            "4",
            "Application crash",
            "CG, CI",
            Some(Fault::AppCrash {
                host: lab.node("S4"),
                port: 8080,
            }),
            false,
        ),
        (
            "5",
            "Host/VM shutdown",
            "CG, CI",
            Some(Fault::HostDown {
                host: lab.node("S4"),
            }),
            false,
        ),
        (
            "6",
            "Firewall (port block)",
            "CG, CI",
            Some(Fault::PortBlock {
                host: lab.node("S14"),
                port: 3306,
            }),
            false,
        ),
        (
            "7",
            "Inject background traffic using iperf",
            "ISL, FS, PC, DD",
            None,
            true,
        ),
    ];

    let mut rows = Vec::new();
    let mut detected_all = true;
    for (i, (id, label, paper_sigs, fault, background)) in problems.into_iter().enumerate() {
        let l2 = capture(&lab, 100 + i as u64, fault, background);
        let current = BehaviorModel::build(&l2, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        let report = diagnose(&diff, &current, &[], &config);

        let impacted: BTreeSet<&str> = report.unknown.iter().map(|c| c.kind.name()).collect();
        let impacted_str = impacted.iter().copied().collect::<Vec<_>>().join(", ");
        let inference = report
            .problems
            .iter()
            .map(ProblemClass::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let detected = !report.unknown.is_empty();
        detected_all &= detected;
        rows.push(vec![
            id.to_string(),
            label.to_string(),
            paper_sigs.to_string(),
            impacted_str,
            inference,
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
            "Detected",
        ],
        &rows,
    );
    println!(
        "\nresult: {} of 7 problems detected",
        rows.iter().filter(|r| r[5] == "yes").count()
    );
    assert!(detected_all, "every Table I problem must be detected");
}
