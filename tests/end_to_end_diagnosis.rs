//! End-to-end integration: simulate the lab data center, inject the
//! paper's Table I faults, and verify that the full FlowDiff pipeline
//! (capture -> model -> stability -> diff -> diagnosis) identifies each.

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

/// Half way through [`capture`]'s 60 s: the fault is absent from the
/// first half of the capture being diagnosed.
const MID_CAPTURE: Timestamp = Timestamp(31_000_000);

/// One 60 s webshop capture (t = 1 s to 61 s), `fault` injected at `onset`.
fn capture(lab: &Lab, seed: u64, onset: Timestamp, fault: Option<Fault>) -> ControllerLog {
    let mut sc = lab.webshop(seed, 60);
    if let Some(f) = fault {
        sc.fault(onset, f);
    }
    sc.run().log
}

/// Diagnoses `l2` against the healthy seed-1 webshop capture.
fn diagnose_against(lab: &Lab, l2: &ControllerLog) -> DiagnosisReport {
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let l1 = capture(lab, 1, Timestamp::ZERO, None);
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    let current = BehaviorModel::build(l2, &config);
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    diagnose(&diff, &current, &[], &config)
}

fn diagnose_against_baseline(lab: &Lab, onset: Timestamp, fault: Option<Fault>) -> DiagnosisReport {
    diagnose_against(lab, &capture(lab, 2, onset, fault))
}

#[test]
fn healthy_run_raises_no_alarm() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(&lab, Timestamp::ZERO, None);
    assert!(
        report.is_healthy(),
        "healthy L2 must produce no alarms: {report}"
    );
}

#[test]
fn logging_misconfiguration_detected_as_host_problem() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(
        &lab,
        Timestamp::ZERO,
        Some(Fault::HostSlowdown {
            host: lab.node("S4"),
            extra_us: 120_000,
        }),
    );
    assert!(!report.is_healthy());
    assert!(report.unknown.iter().any(|c| c.kind == SignatureKind::Dd));
    assert!(report
        .problems
        .contains(&ProblemClass::HostOrApplicationProblem));
    // localization: the slowed host must top the suspect ranking
    assert_eq!(
        report.ranking.first().map(|(c, _)| *c),
        Some(Component::Host(lab.ip("S4")))
    );
}

#[test]
fn app_crash_detected_with_missing_edge() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(
        &lab,
        Timestamp::ZERO,
        Some(Fault::AppCrash {
            host: lab.node("S4"),
            port: 8080,
        }),
    );
    assert!(!report.is_healthy());
    assert!(report.unknown.iter().any(|c| c.kind == SignatureKind::Cg));
    assert!(
        report.problems.contains(&ProblemClass::ApplicationFailure)
            || report.problems.contains(&ProblemClass::HostFailure)
    );
}

#[test]
fn host_shutdown_detected() {
    let lab = Lab::new();
    // Shut down the app server: its outgoing edge to the database
    // vanishes (a dead host originates nothing), while inbound
    // connection attempts from the web tier still appear as SYN retries.
    let report = diagnose_against_baseline(
        &lab,
        Timestamp::ZERO,
        Some(Fault::HostDown {
            host: lab.node("S4"),
        }),
    );
    assert!(!report.is_healthy());
    let cg_removed = report
        .unknown
        .iter()
        .filter(|c| c.kind == SignatureKind::Cg)
        .count();
    assert!(cg_removed >= 1, "the app->db edge must disappear: {report}");
    assert!(report
        .ranking
        .iter()
        .any(|(c, _)| *c == Component::Host(lab.ip("S4"))));
}

#[test]
fn host_shutdown_with_mid_capture_onset_detected() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(
        &lab,
        MID_CAPTURE,
        Some(Fault::HostDown {
            host: lab.node("S4"),
        }),
    );
    // The app->db edge was seen for half the capture, so no CG change
    // fires (and with it no problem class: EXPERIMENTS.md): the alarm is
    // the halved traffic around S4, which must still top the ranking.
    assert!(!report.is_healthy(), "{report}");
    assert_eq!(
        report.ranking.first().map(|(c, _)| *c),
        Some(Component::Host(lab.ip("S4"))),
        "{report}"
    );
}

#[test]
fn controller_overload_detected() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(
        &lab,
        Timestamp::ZERO,
        Some(Fault::ControllerOverload { factor: 40.0 }),
    );
    assert!(report.unknown.iter().any(|c| c.kind == SignatureKind::Crt));
    assert!(report.problems.contains(&ProblemClass::ControllerProblem));
    assert!(report
        .ranking
        .iter()
        .any(|(c, _)| *c == Component::Controller));
}

#[test]
fn controller_overload_with_mid_capture_onset_detected() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(
        &lab,
        MID_CAPTURE,
        Some(Fault::ControllerOverload { factor: 40.0 }),
    );
    assert!(
        report.unknown.iter().any(|c| c.kind == SignatureKind::Crt),
        "{report}"
    );
    assert!(
        report.problems.contains(&ProblemClass::ControllerProblem),
        "{report}"
    );
    assert!(report
        .ranking
        .iter()
        .any(|(c, _)| *c == Component::Controller));
}

#[test]
fn controller_failure_detected_as_blackout() {
    let lab = Lab::new();
    let report = diagnose_against_baseline(&lab, Timestamp::ZERO, Some(Fault::ControllerDown));
    assert!(!report.is_healthy());
    let crt = report
        .unknown
        .iter()
        .find(|c| c.kind == SignatureKind::Crt)
        .expect("CRT change");
    assert!(
        crt.description().contains("stopped answering"),
        "blackout must be named: {}",
        crt.description()
    );
    assert!(report.problems.contains(&ProblemClass::ControllerProblem));
}

#[test]
fn unauthorized_access_detected_as_new_edge() {
    let lab = Lab::new();
    // Craft L2 with an extra scanner host probing the db server.
    let mut sc = lab.webshop(2, 60);
    // the intruder: S24 talks straight to the database
    sc.client(ClientWorkload {
        client: lab.ip("S24"),
        entry_hosts: vec![lab.ip("S14")],
        entry_port: 3306,
        process: ArrivalProcess::poisson_per_sec(2.0),
        request_bytes: 512,
    });
    let report = diagnose_against(&lab, &sc.run().log);

    assert!(report.problems.contains(&ProblemClass::UnauthorizedAccess));
    let added: Vec<&Change> = report
        .unknown
        .iter()
        .filter(|c| c.kind == SignatureKind::Cg)
        .collect();
    assert!(!added.is_empty());
    assert!(added
        .iter()
        .any(|c| c.components.contains(&Component::Host(lab.ip("S24")))));
}

#[test]
fn congestion_detected_with_isl_shift() {
    let lab = Lab::new();
    // Saturate the of1-of7 backbone with iperf-like background traffic
    // (Table I #7) — injected as a mesh between two otherwise idle hosts
    // whose path crosses the same core switch.
    let mut sc = lab.webshop(2, 60);
    // One giant long-lived iperf transfer: S1 (on of1) -> S20, fully
    // saturating the of1-of7 backbone shared with the app paths.
    let key = openflow::match_fields::FlowKey::udp(lab.ip("S1"), 9_999, lab.ip("S20"), 5_001);
    sc.flow(
        Timestamp::from_secs(2),
        FlowSpec::new(key, 70_000_000_000, 58_000_000),
    );
    let report = diagnose_against(&lab, &sc.run().log);

    assert!(
        report.unknown.iter().any(|c| c.kind == SignatureKind::Isl),
        "backbone saturation must shift inter-switch latency: {report}"
    );
    assert!(
        report.unknown.iter().any(|c| c.kind == SignatureKind::Lu),
        "the saturated port's utilization baseline must shift: {report}"
    );
    assert!(
        report.problems.contains(&ProblemClass::NetworkCongestion),
        "classification must be congestion: {report}"
    );
}
