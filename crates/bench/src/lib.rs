//! Shared experiment support for the FlowDiff reproduction harness.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it; this library holds the common setup:
//! the Table II application deployments, capture helpers, and
//! text-table/CDF output formatting. The lab testbed and the tree
//! workload are `workloads::testbeds`.

use std::net::Ipv4Addr;

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

/// One Table II application-group deployment.
pub struct CaseApp {
    /// Application name (`Rubbis`, `osCommerce`, …).
    pub name: &'static str,
    /// Client host name.
    pub client: &'static str,
    /// Tier host names: web, app, db (+ optional slave).
    pub web: &'static str,
    /// Application server host (empty for two-tier apps).
    pub app: Option<&'static str>,
    /// Database server host.
    pub db: &'static str,
    /// Replication slave, if any.
    pub slave: Option<&'static str>,
}

/// The five case studies of Table II.
pub fn table2_cases() -> Vec<(&'static str, Vec<CaseApp>)> {
    vec![
        (
            "case 1",
            vec![
                CaseApp {
                    name: "Rubbis",
                    client: "S25",
                    web: "S13",
                    app: Some("S4"),
                    db: "S14",
                    slave: Some("S15"),
                },
                CaseApp {
                    name: "Rubbis-2",
                    client: "S24",
                    web: "S12",
                    app: Some("S10"),
                    db: "S20",
                    slave: None,
                },
                CaseApp {
                    name: "osCommerce",
                    client: "S23",
                    web: "S7",
                    app: None,
                    db: "S17",
                    slave: None,
                },
            ],
        ),
        (
            "case 2",
            vec![
                CaseApp {
                    name: "Rubbis",
                    client: "S25",
                    web: "S12",
                    app: Some("S4"),
                    db: "S14",
                    slave: Some("S15"),
                },
                CaseApp {
                    name: "osCommerce",
                    client: "S23",
                    web: "S7",
                    app: Some("S10"),
                    db: "S20",
                    slave: None,
                },
            ],
        ),
        (
            "case 3",
            vec![
                CaseApp {
                    name: "Rubbis",
                    client: "S25",
                    web: "S12",
                    app: Some("S4"),
                    db: "S14",
                    slave: Some("S15"),
                },
                CaseApp {
                    name: "Rubbos",
                    client: "S24",
                    web: "S16",
                    app: Some("S10"),
                    db: "S20",
                    slave: None,
                },
            ],
        ),
        (
            "case 4",
            vec![
                CaseApp {
                    name: "Rubbis",
                    client: "S25",
                    web: "S12",
                    app: Some("S4"),
                    db: "S14",
                    slave: Some("S15"),
                },
                CaseApp {
                    name: "Petstore",
                    client: "S24",
                    web: "S16",
                    app: Some("S21"),
                    db: "S19",
                    slave: None,
                },
            ],
        ),
        (
            "case 5",
            vec![
                CaseApp {
                    name: "Custom-a",
                    client: "S22",
                    web: "S1",
                    app: Some("S3"),
                    db: "S8",
                    slave: None,
                },
                CaseApp {
                    name: "Custom-b",
                    client: "S21",
                    web: "S2",
                    app: Some("S3"),
                    db: "S8",
                    slave: None,
                },
                CaseApp {
                    name: "Custom-c",
                    client: "S23",
                    web: "S5",
                    app: Some("S11"),
                    db: "S18",
                    slave: None,
                },
            ],
        ),
    ]
}

/// Builds a scenario deploying the given case apps under Poisson
/// workloads and captures `secs` seconds of control traffic.
pub fn capture_case(
    lab: &Lab,
    apps: &[CaseApp],
    seed: u64,
    secs: u64,
    rate_per_client: f64,
) -> ControllerLog {
    let mut sc = Scenario::new(
        lab.topo.clone(),
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(1 + secs),
    );
    sc.services(lab.catalog.clone());
    for app in apps {
        let web = lab.ip(app.web);
        let multi = match app.app {
            Some(a) => templates::three_tier(
                app.name,
                vec![web],
                vec![lab.ip(a)],
                vec![lab.ip(app.db)],
                app.slave.map(|s| lab.ip(s)),
            ),
            None => templates::two_tier(app.name, vec![web], vec![lab.ip(app.db)]),
        };
        sc.app(multi);
        sc.client(ClientWorkload {
            client: lab.ip(app.client),
            entry_hosts: vec![web],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(rate_per_client),
            request_bytes: 2_048,
        });
    }
    sc.run().log
}

/// A capture on the paper's 320-server tree (16 racks x 20 servers)
/// with `n_apps` disjoint three-tier applications — the Fig. 13b
/// workload the streaming builds target.
pub fn tree_capture(n_apps: usize, seed: u64, secs: u64) -> (ControllerLog, FlowDiffConfig) {
    (
        tree_scenario(n_apps, seed, secs).run().log,
        FlowDiffConfig::default(),
    )
}

/// The scenario [`tree_capture`] runs, for callers that also want the
/// simulator's own counters.
pub fn tree_scenario(n_apps: usize, seed: u64, secs: u64) -> Scenario {
    tree_mesh(Topology::tree(16, 20), n_apps, seed, secs)
}

/// Prints a fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints an empirical CDF as `value fraction` pairs at the given number
/// of evenly spaced probe points (plus the extremes).
pub fn print_cdf(label: &str, samples: &mut [f64], points: usize) {
    if samples.is_empty() {
        println!("{label}: no samples");
        return;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    println!("# CDF {label} ({} samples)", samples.len());
    for i in 0..=points {
        let q = i as f64 / points as f64;
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        println!("{:>12.1} {:>6.3}", samples[idx], q);
    }
}

/// Collects per-flow byte counts on an edge from a log.
pub fn edge_byte_counts(
    log: &ControllerLog,
    config: &FlowDiffConfig,
    dst: Ipv4Addr,
    dport: u16,
) -> Vec<f64> {
    extract_records(log, config)
        .iter()
        .filter(|r| r.tuple.dst == dst && r.tuple.dport == dport && r.byte_count > 0)
        .map(|r| r.byte_count as f64)
        .collect()
}

/// Collects dependent-delay samples (all-pairs within the DD window)
/// between two adjacent edges from a log.
pub fn pair_delays(
    log: &ControllerLog,
    config: &FlowDiffConfig,
    mid: Ipv4Addr,
    out_dst: Ipv4Addr,
) -> Vec<f64> {
    let model = BehaviorModel::build(log, config);
    let mut out = Vec::new();
    for g in &model.groups {
        for ((a, b), hist) in &g.delay.per_pair {
            if a.dst == mid && b.src == mid && b.dst == out_dst {
                for (bin, count) in hist.counts().iter().enumerate() {
                    let mid_val = (bin as u64 * hist.bin_width() + hist.bin_width() / 2) as f64;
                    out.extend(std::iter::repeat_n(mid_val, *count as usize));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_env_resolves_all_table2_hosts() {
        let lab = Lab::new();
        for (_, apps) in table2_cases() {
            for a in apps {
                let _ = lab.ip(a.client);
                let _ = lab.ip(a.web);
                if let Some(app) = a.app {
                    let _ = lab.ip(app);
                }
                let _ = lab.ip(a.db);
                if let Some(s) = a.slave {
                    let _ = lab.ip(s);
                }
            }
        }
    }

    #[test]
    fn capture_case_produces_traffic() {
        let lab = Lab::new();
        let (_, apps) = &table2_cases()[1];
        let log = capture_case(&lab, apps, 3, 10, 5.0);
        assert!(log.packet_ins().count() > 50);
    }

    #[test]
    fn cdf_helpers_do_not_panic() {
        print_cdf("empty", &mut [], 4);
        let mut s = vec![3.0, 1.0, 2.0];
        print_cdf("three", &mut s, 2);
        assert_eq!(s, vec![1.0, 2.0, 3.0]);
    }
}
