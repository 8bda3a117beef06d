//! Diagnosis (Section IV): turning a model diff into debugging
//! information — known vs. unknown changes, a dependency matrix, problem
//! classes, and a ranked list of suspect components.
//!
//! The change vocabulary itself ([`Change`], [`SignatureKind`], …) lives
//! in [`crate::change`]; this module consumes the tagged change lists
//! the diff engine produced through the [`crate::signatures::Signature`]
//! trait.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

pub use crate::change::{Change, ChangeDetail, ChangeDirection, Component, SignatureKind};
use crate::config::FlowDiffConfig;
use crate::diff::{EpochSnapshot, GateReason, ModelDiff};
use crate::model::BehaviorModel;
use crate::tasks::TaskEvent;

/// Flattens a [`ModelDiff`] into a list of changes with implicated
/// components: the per-group gated changes, a synthetic change per new
/// application group, and the infrastructure changes.
pub fn collect_changes(diff: &ModelDiff, current: &BehaviorModel) -> Vec<Change> {
    let mut out: Vec<Change> = diff
        .group_diffs
        .iter()
        .flat_map(|g| g.changes.iter().cloned())
        .collect();
    for gi in &diff.new_groups {
        let group = &current.groups[*gi].group;
        out.push(Change {
            kind: SignatureKind::Cg,
            direction: ChangeDirection::Added,
            detail: ChangeDetail::NewGroup {
                nodes: group.members.len(),
            },
            components: group
                .members
                .iter()
                .map(|ip| Component::Host(*ip))
                .collect(),
            ts: None,
        });
    }
    out.extend(diff.infra.iter().cloned());
    out
}

/// Splits changes into *known* (explained by a detected operator task)
/// and *unknown* (Section IV-B, Figure 7).
///
/// A change is explained by a task occurrence when (a) its appearance
/// timestamp falls within the task's span (with slack), or it has no
/// timestamp but (b) every host it implicates was touched by the task.
pub fn validate_changes(
    changes: Vec<Change>,
    tasks: &[TaskEvent],
    slack_us: u64,
) -> (Vec<(Change, TaskEvent)>, Vec<Change>) {
    let mut known = Vec::new();
    let mut unknown = Vec::new();
    'next_change: for change in changes {
        for task in tasks {
            let time_ok = change.ts.is_some_and(|ts| task.covers(ts, slack_us));
            let hosts_of_change: Vec<Ipv4Addr> = change
                .components
                .iter()
                .filter_map(|c| match c {
                    Component::Host(ip) => Some(*ip),
                    _ => None,
                })
                .collect();
            let hosts_ok = !hosts_of_change.is_empty()
                && !task.hosts.is_empty()
                && hosts_of_change.iter().any(|h| task.hosts.contains(h));
            if time_ok || (change.ts.is_none() && hosts_ok) {
                known.push((change, task.clone()));
                continue 'next_change;
            }
        }
        unknown.push(change);
    }
    (known, unknown)
}

/// The dependency matrix of Section IV-C: application signatures × infra
/// signatures, with `A[i][j] = true` when both changed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyMatrix {
    /// Row labels.
    pub app_rows: [SignatureKind; 5],
    /// Column labels.
    pub infra_cols: [SignatureKind; 3],
    /// The matrix cells.
    pub cells: [[bool; 3]; 5],
}

impl DependencyMatrix {
    /// Builds the matrix from the set of changed signatures.
    pub fn from_changes(changes: &[Change]) -> DependencyMatrix {
        let app_rows = [
            SignatureKind::Cg,
            SignatureKind::Dd,
            SignatureKind::Ci,
            SignatureKind::Pc,
            SignatureKind::Fs,
        ];
        let infra_cols = [SignatureKind::Pt, SignatureKind::Isl, SignatureKind::Crt];
        let changed = |k: SignatureKind| changes.iter().any(|c| c.kind == k);
        let mut cells = [[false; 3]; 5];
        for (i, row) in app_rows.iter().enumerate() {
            for (j, col) in infra_cols.iter().enumerate() {
                cells[i][j] = changed(*row) && changed(*col);
            }
        }
        DependencyMatrix {
            app_rows,
            infra_cols,
            cells,
        }
    }
}

impl fmt::Display for DependencyMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "     ")?;
        for c in &self.infra_cols {
            write!(f, "{:>5}", c.name())?;
        }
        writeln!(f)?;
        for (i, r) in self.app_rows.iter().enumerate() {
            write!(f, "{:>5}", r.name())?;
            for j in 0..3 {
                write!(f, "{:>5}", if self.cells[i][j] { 1 } else { 0 })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The problem classes of Figure 2(b) / Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProblemClass {
    /// Extra processing delay on a host or application (logging
    /// misconfiguration, CPU hog).
    HostOrApplicationProblem,
    /// Loss or congestion near a host (byte inflation + delay shift).
    HostNetworkProblem,
    /// An application component stopped responding.
    ApplicationFailure,
    /// A host went down entirely.
    HostFailure,
    /// Fabric-wide congestion (latency + volume + correlation shifts).
    NetworkCongestion,
    /// A switch failed or paths changed.
    SwitchProblem,
    /// The controller is slow or failing.
    ControllerProblem,
    /// Traffic from/to unexpected endpoints.
    UnauthorizedAccess,
}

impl fmt::Display for ProblemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProblemClass::HostOrApplicationProblem => "host or application problem",
            ProblemClass::HostNetworkProblem => "host network problem / local congestion",
            ProblemClass::ApplicationFailure => "application failure",
            ProblemClass::HostFailure => "host failure",
            ProblemClass::NetworkCongestion => "network congestion",
            ProblemClass::SwitchProblem => "switch failure or path change",
            ProblemClass::ControllerProblem => "controller problem",
            ProblemClass::UnauthorizedAccess => "unauthorized access",
        };
        write!(f, "{s}")
    }
}

/// Infers problem classes from the unexplained changes (the dependency
/// patterns of Figure 8 / the inference column of Table I).
pub fn classify(changes: &[Change]) -> Vec<ProblemClass> {
    let changed = |k: SignatureKind| changes.iter().any(|c| c.kind == k);
    let cg_added = changes
        .iter()
        .any(|c| c.kind == SignatureKind::Cg && c.direction == ChangeDirection::Added);
    let cg_removed = changes
        .iter()
        .any(|c| c.kind == SignatureKind::Cg && c.direction == ChangeDirection::Removed);

    let mut out = Vec::new();
    if changed(SignatureKind::Crt) {
        out.push(ProblemClass::ControllerProblem);
    }
    if changed(SignatureKind::Pt) {
        out.push(ProblemClass::SwitchProblem);
    }
    if changed(SignatureKind::Isl) || changed(SignatureKind::Lu) {
        // Latency or utilization shifts mean the fabric is congested
        // (or a segment degraded) whether or not applications already
        // suffer; app-layer corroboration (FS/PC/DD) strengthens the
        // verdict but is not required.
        out.push(ProblemClass::NetworkCongestion);
    }
    if cg_added {
        out.push(ProblemClass::UnauthorizedAccess);
    }
    if cg_removed {
        // Distinguish host vs application failure: if every removed edge
        // shares one node that lost *all* its edges, call it host
        // failure; otherwise application failure.
        let removed_hosts: Vec<Ipv4Addr> = changes
            .iter()
            .filter(|c| c.kind == SignatureKind::Cg && c.direction == ChangeDirection::Removed)
            .flat_map(|c| {
                c.components.iter().filter_map(|comp| match comp {
                    Component::Host(ip) => Some(*ip),
                    _ => None,
                })
            })
            .collect();
        let mut counts: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
        for h in &removed_hosts {
            *counts.entry(*h).or_insert(0) += 1;
        }
        let max_count = counts.values().copied().max().unwrap_or(0);
        if max_count >= 2 {
            out.push(ProblemClass::HostFailure);
        } else {
            out.push(ProblemClass::ApplicationFailure);
        }
    }
    if changed(SignatureKind::Dd) && !changed(SignatureKind::Isl) {
        if changed(SignatureKind::Fs) {
            out.push(ProblemClass::HostNetworkProblem);
        } else {
            out.push(ProblemClass::HostOrApplicationProblem);
        }
    }
    // A collapse of an edge's traffic volume (flows still appear — e.g.
    // SYN retries against a firewalled port — but carry almost nothing)
    // points at the serving host or application.
    let fs_collapse = changes
        .iter()
        .any(|c| c.kind == SignatureKind::Fs && c.direction == ChangeDirection::Removed);
    if fs_collapse {
        out.push(ProblemClass::HostOrApplicationProblem);
    }
    // Inflated wire bytes without fabric-level latency shifts point at
    // loss/retransmissions near a host (Table I #2).
    let fs_inflation = changes
        .iter()
        .any(|c| c.kind == SignatureKind::Fs && c.direction == ChangeDirection::Added);
    if fs_inflation && !changed(SignatureKind::Isl) && !changed(SignatureKind::Lu) {
        out.push(ProblemClass::HostNetworkProblem);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Ranks components by how many unexplained changes implicate them
/// (Section IV-C): higher count = more likely related to the problem.
pub fn rank_components(changes: &[Change]) -> Vec<(Component, usize)> {
    let mut counts: BTreeMap<Component, usize> = BTreeMap::new();
    for c in changes {
        for comp in &c.components {
            *counts.entry(*comp).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(Component, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// The full debugging report FlowDiff hands to operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisReport {
    /// Changes explained by detected operator tasks.
    pub known: Vec<(Change, TaskEvent)>,
    /// Unexplained changes, the actual alarms.
    pub unknown: Vec<Change>,
    /// The dependency matrix over unexplained changes.
    pub matrix: DependencyMatrix,
    /// Inferred problem classes.
    pub problems: Vec<ProblemClass>,
    /// Components ranked by implication count.
    pub ranking: Vec<(Component, usize)>,
}

impl DiagnosisReport {
    /// True when nothing unexplained was found.
    pub fn is_healthy(&self) -> bool {
        self.unknown.is_empty()
    }
}

impl fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FlowDiff diagnosis")?;
        writeln!(f, "==================")?;
        writeln!(f, "known changes (explained by operator tasks):")?;
        for (c, t) in &self.known {
            writeln!(
                f,
                "  - [{}] {} <= task {} @ {}",
                c.kind.name(),
                c.detail,
                t.task,
                t.start
            )?;
        }
        writeln!(f, "unknown changes (alarms):")?;
        for c in &self.unknown {
            writeln!(f, "  - [{}] {}", c.kind.name(), c.detail)?;
        }
        writeln!(f, "dependency matrix:")?;
        write!(f, "{}", self.matrix)?;
        writeln!(f, "inferred problems:")?;
        for p in &self.problems {
            writeln!(f, "  - {p}")?;
        }
        writeln!(f, "suspect components:")?;
        for (comp, n) in self.ranking.iter().take(10) {
            writeln!(f, "  - {comp} ({n} changes)")?;
        }
        Ok(())
    }
}

/// End-to-end diagnosis: diff two models, validate against the task time
/// series detected in the current log, classify, and rank.
pub fn diagnose(
    diff: &ModelDiff,
    current: &BehaviorModel,
    tasks: &[TaskEvent],
    config: &FlowDiffConfig,
) -> DiagnosisReport {
    let changes = collect_changes(diff, current);
    let (known, unknown) = validate_changes(changes, tasks, config.interleave_us);
    let matrix = DependencyMatrix::from_changes(&unknown);
    let problems = classify(&unknown);
    let ranking = rank_components(&unknown);
    DiagnosisReport {
        known,
        unknown,
        matrix,
        problems,
        ranking,
    }
}

/// What one epoch of the online differ tells the operator: the window
/// it judged, how much changed, whether any change is unexplained and,
/// if so, the problem classes and the top suspects, and which
/// signatures were suppressed and why. [`EpochSnapshot::verdict`]
/// makes it; its `Display` is the `epoch ` line `watch` and `serve`
/// print.
///
/// It carries no [`EpochTimings`](crate::diff::EpochTimings): a
/// snapshot does not know how long it took ([`supervise`] hands the
/// timings to its caller beside it), and `epoch ` lines are compared
/// byte for byte across runs, so wall-clock time never enters them.
///
/// [`supervise`]: crate::engine::supervise
#[derive(Debug, Clone, PartialEq)]
pub struct EpochVerdict {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// The trailing window judged, `[start, end)`.
    pub window: (Timestamp, Timestamp),
    /// Flow records in the window model.
    pub records: usize,
    /// Changes in the gated diff ([`ModelDiff::change_count`]).
    pub changes: usize,
    /// Changes no operator task explains: zero reads `healthy`, more
    /// reads `ALARM`.
    pub unexplained: usize,
    /// Problem classes inferred from the unexplained changes.
    pub problems: Vec<ProblemClass>,
    /// The most implicated components, at most [`EpochVerdict::SUSPECTS`].
    pub suspects: Vec<(Component, usize)>,
    /// The suppressed signatures with their reasons.
    pub suppressed: Vec<(SignatureKind, GateReason)>,
}

impl EpochVerdict {
    /// How many ranked components a verdict names.
    pub const SUSPECTS: usize = 3;
}

impl fmt::Display for EpochVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (start, end) = self.window;
        write!(
            f,
            "epoch {:>3}  [{:>7.1}s .. {:>7.1}s]  {:>5} flows  {:>3} changes  ",
            self.epoch,
            start.as_secs_f64(),
            end.as_secs_f64(),
            self.records,
            self.changes
        )?;
        if self.unexplained == 0 {
            f.write_str("healthy")?;
        } else {
            f.write_str("ALARM [")?;
            for (i, problem) in self.problems.iter().enumerate() {
                write!(f, "{}{problem}", if i == 0 { "" } else { "; " })?;
            }
            f.write_str("] suspects: ")?;
            for (i, (component, n)) in self.suspects.iter().enumerate() {
                write!(f, "{}{component}({n})", if i == 0 { "" } else { " " })?;
            }
        }
        if let Some((kind, reason)) = self.suppressed.first() {
            write!(
                f,
                "  ({} signature(s) suppressed: {kind:?} starved: {reason})",
                self.suppressed.len()
            )?;
        }
        Ok(())
    }
}

impl EpochSnapshot {
    /// Diagnoses this epoch — validates the window's changes against
    /// the operator task series, classifies, and ranks, as the batch
    /// [`diagnose`] does — and sums it up as the epoch's verdict.
    pub fn verdict(&self, tasks: &[TaskEvent], config: &FlowDiffConfig) -> EpochVerdict {
        let report = diagnose(&self.diff, &self.model, tasks, config);
        let mut suspects = report.ranking;
        suspects.truncate(EpochVerdict::SUSPECTS);
        EpochVerdict {
            epoch: self.epoch,
            window: self.window,
            records: self.records,
            changes: self.diff.change_count(),
            unexplained: report.unknown.len(),
            problems: report.problems,
            suspects,
            suppressed: self.gating.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::OnlineDiffer;
    use crate::groups::Edge;
    use crate::signatures::infra::{ControllerResponse, CrtChange, InterSwitchLatency, IslChange};
    use crate::signatures::Signature;
    use crate::stability::analyze;
    use crate::stats::MeanStd;
    use netsim::log::ControllerLog;
    use openflow::types::DatapathId;
    use workloads::prelude::*;

    fn ip(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    /// A change of `kind` implicating `hosts`. Classification, ranking
    /// and validation read kind, direction, components and time only,
    /// so any detail will do.
    fn change(kind: SignatureKind, direction: ChangeDirection, hosts: &[u8]) -> Change {
        Change {
            kind,
            direction,
            detail: ChangeDetail::NewGroup { nodes: hosts.len() },
            components: hosts.iter().map(|&h| Component::Host(ip(h))).collect(),
            ts: None,
        }
    }

    /// An ISL change implicating `components`.
    fn isl_change(components: Vec<Component>) -> Change {
        Change {
            components,
            ..InterSwitchLatency::render(IslChange {
                pair: (DatapathId(1), DatapathId(2)),
                reference: MeanStd::default(),
                current: MeanStd::default(),
                sigmas: 0.0,
            })
        }
    }

    #[test]
    fn congestion_pattern_classified() {
        let changes = vec![
            change(SignatureKind::Dd, ChangeDirection::Shifted, &[2]),
            change(SignatureKind::Fs, ChangeDirection::Shifted, &[2]),
            change(SignatureKind::Pc, ChangeDirection::Shifted, &[2]),
            isl_change(vec![Component::SwitchPair(DatapathId(1), DatapathId(2))]),
        ];
        let problems = classify(&changes);
        assert!(problems.contains(&ProblemClass::NetworkCongestion));
        assert!(!problems.contains(&ProblemClass::HostOrApplicationProblem));
    }

    #[test]
    fn dd_only_is_host_or_app_problem() {
        let changes = vec![change(SignatureKind::Dd, ChangeDirection::Shifted, &[2])];
        assert_eq!(
            classify(&changes),
            vec![ProblemClass::HostOrApplicationProblem]
        );
    }

    #[test]
    fn dd_plus_fs_is_host_network_problem() {
        let changes = vec![
            change(SignatureKind::Dd, ChangeDirection::Shifted, &[2]),
            change(SignatureKind::Fs, ChangeDirection::Shifted, &[2]),
        ];
        assert_eq!(classify(&changes), vec![ProblemClass::HostNetworkProblem]);
    }

    #[test]
    fn host_failure_when_one_node_loses_all_edges() {
        // edges 1->2 and 2->3 both removed: node 2 in both
        let changes = vec![
            change(SignatureKind::Cg, ChangeDirection::Removed, &[1, 2]),
            change(SignatureKind::Cg, ChangeDirection::Removed, &[2, 3]),
            change(SignatureKind::Ci, ChangeDirection::Shifted, &[2]),
        ];
        let problems = classify(&changes);
        assert!(problems.contains(&ProblemClass::HostFailure));
    }

    #[test]
    fn single_edge_loss_is_application_failure() {
        let changes = vec![change(SignatureKind::Cg, ChangeDirection::Removed, &[2, 3])];
        assert!(classify(&changes).contains(&ProblemClass::ApplicationFailure));
    }

    #[test]
    fn new_edge_is_unauthorized_access() {
        let changes = vec![change(SignatureKind::Cg, ChangeDirection::Added, &[9, 2])];
        assert!(classify(&changes).contains(&ProblemClass::UnauthorizedAccess));
    }

    #[test]
    fn crt_change_is_controller_problem() {
        let changes = vec![ControllerResponse::render(CrtChange {
            reference: MeanStd::default(),
            current: MeanStd::default(),
            sigmas: 0.0,
            unanswered: (0.0, 1.0),
        })];
        assert_eq!(classify(&changes), vec![ProblemClass::ControllerProblem]);
    }

    #[test]
    fn validation_explains_timed_change_with_task() {
        let task = TaskEvent {
            task: "mount_nfs".into(),
            start: Timestamp::from_secs(100),
            end: Timestamp::from_secs(101),
            hosts: vec![ip(5)],
        };
        let mut c = change(SignatureKind::Cg, ChangeDirection::Added, &[5, 200]);
        c.ts = Some(Timestamp::from_secs(100));
        let (known, unknown) =
            validate_changes(vec![c.clone()], std::slice::from_ref(&task), 1_000_000);
        assert_eq!(known.len(), 1);
        assert!(unknown.is_empty());

        // same change far from the task window: unexplained
        c.ts = Some(Timestamp::from_secs(500));
        // and not host-explainable because it has a timestamp
        let (known, unknown) = validate_changes(vec![c], &[task], 1_000_000);
        assert!(known.is_empty());
        assert_eq!(unknown.len(), 1);
    }

    #[test]
    fn validation_explains_untimed_change_by_hosts() {
        let task = TaskEvent {
            task: "vm_stop".into(),
            start: Timestamp::from_secs(100),
            end: Timestamp::from_secs(101),
            hosts: vec![ip(5)],
        };
        let c = change(SignatureKind::Cg, ChangeDirection::Removed, &[5, 7]);
        let (known, unknown) = validate_changes(vec![c], &[task], 0);
        assert_eq!(known.len(), 1);
        assert!(unknown.is_empty());
    }

    #[test]
    fn ranking_counts_component_mentions() {
        let changes = vec![
            change(SignatureKind::Cg, ChangeDirection::Removed, &[2, 3]),
            change(SignatureKind::Ci, ChangeDirection::Shifted, &[2]),
            change(SignatureKind::Dd, ChangeDirection::Shifted, &[2]),
        ];
        let ranked = rank_components(&changes);
        assert_eq!(ranked[0], (Component::Host(ip(2)), 3));
        assert_eq!(ranked[1], (Component::Host(ip(3)), 1));
    }

    #[test]
    fn matrix_marks_joint_changes() {
        let changes = vec![
            change(SignatureKind::Dd, ChangeDirection::Shifted, &[2]),
            isl_change(vec![]),
        ];
        let m = DependencyMatrix::from_changes(&changes);
        // row DD (index 1), col ISL (index 1)
        assert!(m.cells[1][1]);
        assert!(!m.cells[0][0], "CG x PT untouched");
        let text = m.to_string();
        assert!(text.contains("DD"));
        assert!(text.contains("ISL"));
    }

    /// The `flowdiff_cli demo` captures: a healthy 60 s webshop run and
    /// one whose app server answers 150 ms late.
    fn demo_pair() -> (ControllerLog, ControllerLog) {
        let lab = Lab::new();
        let baseline = lab.webshop(1, 60).run().log;
        let mut current = lab.webshop(2, 60);
        let slowdown = Fault::HostSlowdown {
            host: lab.node("S4"),
            extra_us: 150_000,
        };
        current.fault(Timestamp::ZERO, slowdown);
        (baseline, current.run().log)
    }

    /// What `watch --epoch-secs epoch_s --window-secs window_s` makes of
    /// `current` against `baseline`: each epoch's verdict, with the
    /// length of the ranking its suspects were cut from.
    fn watch_verdicts(
        baseline: &ControllerLog,
        current: &ControllerLog,
        (epoch_s, window_s): (u64, u64),
    ) -> Vec<(EpochVerdict, usize)> {
        // `watch` also bounds time jumps; these captures have none.
        let config = FlowDiffConfig {
            online_epoch_us: epoch_s * 1_000_000,
            online_window_us: window_s * 1_000_000,
            ..FlowDiffConfig::default()
        };
        let model = BehaviorModel::build(baseline, &config);
        let stability = analyze(baseline, &model, &config);
        let mut differ = OnlineDiffer::new(model, stability, &config);
        let mut snaps = Vec::new();
        for event in current.events() {
            snaps.extend(differ.observe(event));
        }
        snaps.extend(differ.finish());
        let judged = |s: &EpochSnapshot| {
            let ranked = diagnose(&s.diff, &s.model, &[], &config).ranking.len();
            (s.verdict(&[], &config), ranked)
        };
        snaps.iter().map(judged).collect()
    }

    /// Each shape of `epoch ` line renders as `flowdiff-bench watch`
    /// printed it over the demo captures before the verdict was a
    /// value; the expected lines are copied from those runs.
    #[test]
    fn verdict_renders_each_shape_of_the_epoch_line() {
        let (baseline, current) = demo_pair();
        let faulty = watch_verdicts(&baseline, &current, (5, 30));
        let quiet = watch_verdicts(&baseline, &baseline, (10, 60));
        let shapes = [
            // `--epoch-secs 10 --window-secs 60`, the baseline against
            // itself.
            (
                &quiet[6],
                "epoch   6  [   11.0s ..    71.0s]   1550 flows    0 changes  healthy",
            ),
            // The rest at the default 5 s / 30 s, the slowed run against
            // the baseline. Four components ranked, three printed:
            (
                &faulty[3],
                "epoch   3  [    0.0s ..    21.0s]    566 flows    8 changes  ALARM \
                 [host network problem / local congestion] suspects: host 10.0.0.5(5) \
                 host 10.0.0.14(4) host 10.0.0.15(2)",
            ),
            (
                &faulty[0],
                "epoch   0  [    0.0s ..     6.0s]    135 flows    9 changes  ALARM \
                 [host or application problem; host network problem / local congestion] \
                 suspects: host 10.0.0.5(5) host 10.0.0.14(4) host 10.0.0.15(2)  \
                 (1 signature(s) suppressed: Lu starved: no port-counter samples in window)",
            ),
            (
                &faulty[18],
                "epoch  18  [   65.0s ..    95.0s]      0 flows    0 changes  healthy  \
                 (8 signature(s) suppressed: Cg starved: no flow records in window)",
            ),
        ];
        for ((verdict, _), line) in shapes {
            assert_eq!(verdict.to_string(), line);
        }
        assert_eq!(faulty[3].1, 4, "more components ranked than printed");
        assert_eq!(faulty[3].0.suspects.len(), EpochVerdict::SUSPECTS);
        assert_eq!(faulty[18].0.suppressed.len(), 8);
    }

    #[test]
    fn edge_display_used_in_description() {
        let e = Edge {
            src: ip(1),
            dst: ip(2),
        };
        assert_eq!(e.to_string(), "10.0.0.1 -> 10.0.0.2");
    }
}
