//! Integration: robustness of application signatures under workload and
//! application-logic changes (the property Table II / Figures 10-12
//! evaluate). The same deployment observed under different request rates
//! and connection-reuse ratios must produce an (almost) empty diff.

use flowdiff::config::MIN_SAMPLES;
use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

fn testbed() -> (Lab, FlowDiffConfig) {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    (lab, config)
}

/// Builds the case-5 app with explicit per-source reuse at the app tier.
fn custom_app(
    s1: std::net::Ipv4Addr,
    s2: std::net::Ipv4Addr,
    s3: std::net::Ipv4Addr,
    s8: std::net::Ipv4Addr,
    reuse_1: f64,
    reuse_2: f64,
) -> MultiTierApp {
    let mut web = TierConfig::new("web", vec![s1, s2], 80, 10_000);
    web.request_bytes = 4_096;
    let mut app = TierConfig::new("app", vec![s3], 8080, 60_000);
    app.request_bytes = 8_192;
    app.reuse_by_source.insert(s1, reuse_1);
    app.reuse_by_source.insert(s2, reuse_2);
    let db = TierConfig::new("db", vec![s8], 3306, 20_000);
    MultiTierApp::new("custom", vec![web, app, db])
}

fn capture(lab: &Lab, seed: u64, rates: (f64, f64), reuse: (f64, f64)) -> ControllerLog {
    let s1 = lab.ip("S1");
    let s2 = lab.ip("S2");
    let s3 = lab.ip("S3");
    let s8 = lab.ip("S8");
    let mut sc = Scenario::new(
        lab.topo.clone(),
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(61),
    );
    sc.services(lab.catalog.clone())
        .app(custom_app(s1, s2, s3, s8, reuse.0, reuse.1))
        .client(ClientWorkload {
            client: lab.ip("S22"),
            entry_hosts: vec![s1],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(rates.0),
            request_bytes: 2_048,
        })
        .client(ClientWorkload {
            client: lab.ip("S21"),
            entry_hosts: vec![s2],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(rates.1),
            request_bytes: 2_048,
        });
    sc.run().log
}

#[test]
fn connectivity_graph_invariant_to_workload() {
    let (lab, config) = testbed();
    let l1 = capture(&lab, 1, (10.0, 10.0), (0.0, 0.0));
    let l2 = capture(&lab, 2, (3.0, 12.0), (0.5, 0.5));
    let m1 = BehaviorModel::build(&l1, &config);
    let m2 = BehaviorModel::build(&l2, &config);
    assert_eq!(m1.groups.len(), 1);
    assert_eq!(m2.groups.len(), 1);
    assert_eq!(
        m1.groups[0].connectivity.edges, m2.groups[0].connectivity.edges,
        "CG depends only on the application structure"
    );
}

#[test]
fn delay_peak_invariant_to_workload_and_reuse() {
    // Figure 10: across P(x, y) and R(m, n) combinations the inter-flow
    // delay peak stays at the app server's 60 ms processing time.
    let (lab, config) = testbed();
    let combos = [
        ((10.0, 10.0), (0.0, 0.0)),
        ((10.0, 3.0), (0.0, 0.2)),
        ((3.0, 10.0), (0.0, 0.9)),
        ((3.0, 10.0), (0.5, 0.5)),
        ((3.0, 10.0), (0.9, 0.1)),
    ];
    let s3 = lab.ip("S3");
    let s8 = lab.ip("S8");
    for (i, (rates, reuse)) in combos.iter().enumerate() {
        let log = capture(&lab, 10 + i as u64, *rates, *reuse);
        let model = BehaviorModel::build(&log, &config);
        let g = &model.groups[0];
        let peaks = g.delay.peaks(MIN_SAMPLES);
        // find the (web->app, app->db) pair peak
        let peak = peaks
            .iter()
            .find(|((a, b), _)| a.dst == s3 && b.src == s3 && b.dst == s8)
            .map(|(_, p)| *p);
        let (lo, hi) = peak.unwrap_or_else(|| panic!("no S3 peak for combo {i}"));
        assert!(
            lo <= 70_000 && hi >= 60_000,
            "combo {i}: peak [{lo},{hi}) should cover ~60-70ms"
        );
    }
}

#[test]
fn partial_correlation_stable_across_reuse() {
    // Figure 11(b): connection reuse weakens visibility but not the
    // correlation between dependent edges.
    let (lab, config) = testbed();
    let s3 = lab.ip("S3");
    let mut coefficients = Vec::new();
    for (i, reuse) in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5)].iter().enumerate() {
        let log = capture(&lab, 20 + i as u64, (10.0, 10.0), *reuse);
        let model = BehaviorModel::build(&log, &config);
        let g = &model.groups[0];
        for ((a, b), r) in &g.correlation.per_pair {
            if a.dst == s3 && b.src == s3 {
                coefficients.push(*r);
            }
        }
    }
    assert!(coefficients.len() >= 3);
    assert!(
        coefficients.iter().all(|r| *r > 0.3),
        "dependent edges must stay positively correlated: {coefficients:?}"
    );
}

#[test]
fn skewed_load_balancing_marks_ci_unstable() {
    // Case 5 with a second app server and random (non-linear) balancing:
    // CI at the web server should come out unstable and be excluded.
    let (lab, config) = testbed();
    let s5 = lab.ip("S5");
    let s11 = lab.ip("S11");
    let s17 = lab.ip("S17");
    let s18 = lab.ip("S18");

    let mut web = TierConfig::new("web", vec![s5], 80, 10_000);
    // wildly alternating weights would need time variation; emulate
    // instability with a heavily skewed split plus tiny sample counts
    web.next_weights = vec![0.97, 0.03];
    let app = TierConfig::new("app", vec![s11, s17], 8080, 30_000);
    let db = TierConfig::new("db", vec![s18], 3306, 10_000);
    let custom = MultiTierApp::new("lb", vec![web, app, db]);

    let mut sc = Scenario::new(
        lab.topo.clone(),
        5,
        Timestamp::from_secs(1),
        Timestamp::from_secs(41),
    );
    sc.services(lab.catalog.clone())
        .app(custom)
        .client(ClientWorkload {
            client: lab.ip("S23"),
            entry_hosts: vec![s5],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(4.0),
            request_bytes: 2_048,
        });
    let log = sc.run().log;
    let model = BehaviorModel::build(&log, &config);
    let report = analyze(&log, &model, &config);
    let g = &report.per_group[0];
    // The rarely-chosen app server's interactions cannot be stable: its
    // per-interval counts fluctuate wildly around ~0.
    assert!(
        !g.ci() || !g.dd() || !g.pc(),
        "skewed balancing must destabilize at least one signature"
    );
}
