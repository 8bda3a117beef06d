//! End-to-end integration: simulate the lab data center, inject the
//! paper's Table I faults, and verify that the full FlowDiff pipeline
//! (capture -> model -> stability -> diff -> diagnosis) identifies each.

use flowdiff::prelude::*;
use netsim::prelude::*;
use workloads::prelude::*;

/// Half way through the 60 s capture [`diagnose_with`] diagnoses: the
/// fault is absent from its first half.
const MID_CAPTURE: Timestamp = Timestamp(31_000_000);

/// Table I row `id` of [`Lab::table1`].
fn row(lab: &Lab, id: u8) -> Problem {
    lab.table1()
        .into_iter()
        .find(|p| p.id == id)
        .expect("Table I has rows 1 to 7")
}

/// Diagnoses the seed-2 webshop capture (t = 1 s to 61 s), with `inject`
/// applied to its scenario, against the healthy seed-1 one.
fn diagnose_with(lab: &Lab, inject: impl FnOnce(&mut Scenario)) -> DiagnosisReport {
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let l1 = lab.webshop(1, 60).run().log;
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    let mut sc = lab.webshop(2, 60);
    inject(&mut sc);
    let current = BehaviorModel::build(&sc.run().log, &config);
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    diagnose(&diff, &current, &[], &config)
}

#[test]
fn healthy_run_raises_no_alarm() {
    let lab = Lab::new();
    let report = diagnose_with(&lab, |_| {});
    assert!(
        report.is_healthy(),
        "healthy L2 must produce no alarms: {report}"
    );
}

/// Table I as the `table1` binary runs it: [`Lab::table1_scenario`] with
/// the baseline at seed 1 and row *i* (from 0) at seed 100 + *i*. Each of
/// the seven problems must leave an unexplained change. With background
/// services on, a capture of those seeds without any problem already
/// raises DD and FS changes at the database host, so "not healthy" alone
/// would pass with nothing injected: each row must also raise more
/// unexplained changes than its own seed does without the problem.
#[test]
fn table1_detects_all_seven_problems() {
    let lab = Lab::new();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let l1 = lab.table1_scenario(1, None).run().log;
    let baseline = BehaviorModel::build(&l1, &config);
    let stability = analyze(&l1, &baseline, &config);
    let report = |seed, problem| {
        let current = BehaviorModel::build(&lab.table1_scenario(seed, problem).run().log, &config);
        let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
        diagnose(&diff, &current, &[], &config)
    };
    let kinds = |report: &DiagnosisReport| {
        let kinds: std::collections::BTreeSet<&str> =
            report.unknown.iter().map(|c| c.kind.name()).collect();
        format!("{} changes {kinds:?}", report.unknown.len())
    };

    let mut measured = Vec::new();
    let mut missed = Vec::new();
    for (i, problem) in lab.table1().iter().enumerate() {
        let seed = 100 + i as u64;
        let (control, injected) = (report(seed, None), report(seed, Some(problem)));
        measured.push(format!(
            "row {} ({}): {}; without it: {}",
            problem.id,
            problem.label,
            kinds(&injected),
            kinds(&control)
        ));
        if injected.is_healthy() || injected.unknown.len() <= control.unknown.len() {
            missed.push(problem.id);
        }
    }
    assert!(
        missed.is_empty(),
        "Table I rows {missed:?} went undetected; measured impact:\n{}",
        measured.join("\n")
    );
}

#[test]
fn logging_misconfiguration_detected_as_host_problem() {
    let lab = Lab::new();
    let report = diagnose_with(&lab, |sc| row(&lab, 1).inject(sc, Timestamp::ZERO));
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
    let report = diagnose_with(&lab, |sc| row(&lab, 4).inject(sc, Timestamp::ZERO));
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
    let report = diagnose_with(&lab, |sc| row(&lab, 5).inject(sc, Timestamp::ZERO));
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
    let report = diagnose_with(&lab, |sc| row(&lab, 5).inject(sc, MID_CAPTURE));
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
    let report = diagnose_with(&lab, |sc| {
        sc.fault(Timestamp::ZERO, Fault::ControllerOverload { factor: 40.0 });
    });
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
    let report = diagnose_with(&lab, |sc| {
        sc.fault(MID_CAPTURE, Fault::ControllerOverload { factor: 40.0 });
    });
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
    let report = diagnose_with(&lab, |sc| {
        sc.fault(Timestamp::ZERO, Fault::ControllerDown);
    });
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
    let report = diagnose_with(&lab, |sc| {
        // the intruder: S24 talks straight to the database
        sc.client(ClientWorkload {
            client: lab.ip("S24"),
            entry_hosts: vec![lab.ip("S14")],
            entry_port: 3306,
            process: ArrivalProcess::poisson_per_sec(2.0),
            request_bytes: 512,
        });
    });

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
    // Table I #7: one long-lived iperf transfer saturating the of1-of7
    // backbone shared with the application paths.
    let report = diagnose_with(&lab, |sc| row(&lab, 7).inject(sc, Timestamp::ZERO));

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
