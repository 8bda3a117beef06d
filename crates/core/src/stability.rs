//! Signature stability analysis (Section III-B).
//!
//! Unstable signatures cause false positives, so FlowDiff partitions the
//! reference log into several intervals, computes each signature per
//! interval, and only keeps signatures that agree across (a quorum of)
//! intervals for use in problem detection. Each signature judges its own
//! stability through [`Signature::stability`], at its own granularity
//! ([`crate::change::Locus`]); this module only segments the log,
//! matches groups across intervals, and collects the resulting
//! [`StabilityMask`]s.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::change::SignatureKind;
use crate::config::{FlowDiffConfig, STABILITY_INTERVALS, STABILITY_QUORUM};
use crate::groups::{match_group_refs, AppGroup};
use crate::model::{BehaviorModel, GroupSignatures};
use crate::signatures::{Signature, StabilityCtx, StabilityMask};
use netsim::log::ControllerLog;

/// Which signatures of one group are stable enough to diff, as one
/// [`StabilityMask`] per application signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupStability {
    /// Per-signature stability masks. A missing kind means the signature
    /// was not judged and passes by default.
    pub masks: BTreeMap<SignatureKind, StabilityMask>,
}

impl GroupStability {
    fn whole(&self, kind: SignatureKind) -> bool {
        self.masks.get(&kind).is_none_or(|m| m.stable)
    }

    /// True when the connectivity graph is stable.
    pub fn cg(&self) -> bool {
        self.whole(SignatureKind::Cg)
    }

    /// True when the flow statistics are stable.
    pub fn fs(&self) -> bool {
        self.whole(SignatureKind::Fs)
    }

    /// True when CI is stable at every observed node.
    pub fn ci(&self) -> bool {
        self.whole(SignatureKind::Ci)
    }

    /// True when DD is stable on every pair.
    pub fn dd(&self) -> bool {
        self.whole(SignatureKind::Dd)
    }

    /// True when PC is stable on every pair.
    pub fn pc(&self) -> bool {
        self.whole(SignatureKind::Pc)
    }

    /// The mask for one signature kind, if it was judged.
    pub fn mask(&self, kind: SignatureKind) -> Option<&StabilityMask> {
        self.masks.get(&kind)
    }
}

/// Stability of every group in a reference model, index-aligned with
/// `BehaviorModel::groups`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Per-group stability, aligned with the model's group list.
    pub per_group: Vec<GroupStability>,
}

impl StabilityReport {
    /// A report marking everything stable (used when no stability pass
    /// was run, e.g. for quick interactive diffs).
    pub fn all_stable(model: &BehaviorModel) -> StabilityReport {
        StabilityReport {
            per_group: model
                .groups
                .iter()
                .map(|g| GroupStability {
                    masks: [
                        (SignatureKind::Cg, g.connectivity.stable_mask()),
                        (SignatureKind::Fs, g.flow_stats.stable_mask()),
                        (SignatureKind::Ci, g.interaction.stable_mask()),
                        (SignatureKind::Dd, g.delay.stable_mask()),
                        (SignatureKind::Pc, g.correlation.stable_mask()),
                    ]
                    .into_iter()
                    .collect(),
                })
                .collect(),
        }
    }
}

/// Runs the stability analysis: splits `log` into
/// [`STABILITY_INTERVALS`] segments, builds a model per segment, and
/// lets each signature of `full_model` judge its agreement across them.
pub fn analyze(
    log: &ControllerLog,
    full_model: &BehaviorModel,
    config: &FlowDiffConfig,
) -> StabilityReport {
    let segments = log.split(STABILITY_INTERVALS);
    let interval_models: Vec<BehaviorModel> = segments
        .iter()
        .map(|seg| BehaviorModel::build(seg, config))
        .collect();

    let per_group = full_model
        .groups
        .iter()
        .map(|full_group| {
            // Locate this group in each interval model.
            let full_groups = [&full_group.group];
            let mut matches: Vec<Option<&GroupSignatures>> = Vec::new();
            for im in &interval_models {
                let im_groups: Vec<&AppGroup> = im.groups.iter().map(|g| &g.group).collect();
                let (pairs, _, _) = match_group_refs(&full_groups, &im_groups);
                matches.push(pairs.first().map(|(_, ci)| &im.groups[*ci]));
            }
            // A signature can only be judged on intervals where the
            // group produced traffic at all: quiet capture tails (e.g.
            // after the workload stopped) are no evidence of
            // instability. At least two active intervals are required.
            let present: Vec<&GroupSignatures> = matches.iter().flatten().copied().collect();
            let observed = present.len();
            let quorum = ((STABILITY_QUORUM * observed as f64).ceil() as usize).max(2);
            let ctx = StabilityCtx { quorum };

            let mut masks = BTreeMap::new();
            let ivs: Vec<_> = present.iter().map(|g| &g.connectivity).collect();
            masks.insert(
                SignatureKind::Cg,
                full_group.connectivity.stability(&ivs, &ctx),
            );
            let ivs: Vec<_> = present.iter().map(|g| &g.flow_stats).collect();
            masks.insert(
                SignatureKind::Fs,
                full_group.flow_stats.stability(&ivs, &ctx),
            );
            let ivs: Vec<_> = present.iter().map(|g| &g.interaction).collect();
            masks.insert(
                SignatureKind::Ci,
                full_group.interaction.stability(&ivs, &ctx),
            );
            let ivs: Vec<_> = present.iter().map(|g| &g.delay).collect();
            masks.insert(SignatureKind::Dd, full_group.delay.stability(&ivs, &ctx));
            let ivs: Vec<_> = present.iter().map(|g| &g.correlation).collect();
            masks.insert(
                SignatureKind::Pc,
                full_group.correlation.stability(&ivs, &ctx),
            );

            GroupStability { masks }
        })
        .collect();

    StabilityReport { per_group }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::types::Timestamp;
    use workloads::prelude::*;

    /// A 60 s webshop capture.
    fn steady_scenario(seed: u64) -> (netsim::log::ControllerLog, FlowDiffConfig) {
        let lab = Lab::new();
        let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
        (lab.webshop(seed, 60).run().log, config)
    }

    #[test]
    fn steady_workload_is_stable() {
        let (log, config) = steady_scenario(3);
        let model = BehaviorModel::build(&log, &config);
        let report = analyze(&log, &model, &config);
        assert_eq!(report.per_group.len(), model.groups.len());
        let g = &report.per_group[0];
        assert!(g.cg(), "CG must be stable under steady workload");
        assert!(g.fs(), "FS must be stable under steady workload");
        assert!(g.ci(), "CI must be stable under steady workload");
    }

    #[test]
    fn all_stable_marks_everything() {
        let (log, config) = steady_scenario(4);
        let model = BehaviorModel::build(&log, &config);
        let report = StabilityReport::all_stable(&model);
        let g = &report.per_group[0];
        assert!(g.cg() && g.fs() && g.ci() && g.dd() && g.pc());
        // The per-locus masks enumerate the loci the model observed, so
        // gated diffs can license each change individually.
        let ci_mask = g.mask(SignatureKind::Ci).unwrap();
        assert_eq!(
            ci_mask.loci.len(),
            model.groups[0].interaction.per_node.len()
        );
    }

    #[test]
    fn flapping_edge_destabilizes_cg() {
        // An app whose web server only appears in the last fifth of the
        // log: interval CGs disagree.
        let (log, config) = steady_scenario(9);

        // Splice in a burst of S24 -> S13 traffic only near the end.
        let mut events: Vec<_> = log.events().to_vec();
        let late = Timestamp::from_secs(55);
        let burst_log = {
            let lab = Lab::new();
            let (s24, s13) = (lab.ip("S24"), lab.ip("S13"));
            let mut sim =
                netsim::engine::Simulation::new(lab.topo, netsim::config::Deployment::Reactive, 11);
            for i in 0..10u64 {
                let key = openflow::match_fields::FlowKey::tcp(s24, 7_000 + i as u16, s13, 80);
                sim.schedule_flow(
                    late + i * 200_000,
                    netsim::flows::FlowSpec::new(key, 2_000, 5_000),
                );
            }
            sim.run_until(Timestamp::from_secs(90));
            sim.take_log()
        };
        events.extend(burst_log.events().iter().cloned());
        let log: netsim::log::ControllerLog = events.into_iter().collect();

        let model = BehaviorModel::build(&log, &config);
        let report = analyze(&log, &model, &config);
        assert!(
            !report.per_group[0].cg(),
            "an edge present in one interval only must destabilize CG"
        );
    }
}
