//! The component interaction (CI) signature.
//!
//! At each application node, the number of flows on each incoming and
//! outgoing edge, normalized by the node's total (Section III-B).
//! Compared across logs with a χ² fitness test on the flow-count
//! distributions (Section IV-A).

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::CHI2_THRESHOLD;
use crate::groups::Edge;
use crate::signatures::{
    merge_join, DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask,
};
use crate::stats::chi_squared;

/// Flow counts on the edges incident to one node.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeInteraction {
    /// Per-incident-edge flow counts (directed edges; incoming edges have
    /// `dst == node`, outgoing have `src == node`).
    pub edge_counts: BTreeMap<Edge, u64>,
}

impl NodeInteraction {
    /// Total flows through the node.
    pub fn total(&self) -> u64 {
        self.edge_counts.values().sum()
    }

    /// Normalized frequency of each edge (fractions summing to 1).
    pub fn normalized(&self) -> BTreeMap<Edge, f64> {
        let total = self.total() as f64;
        self.edge_counts
            .iter()
            .map(|(e, c)| (*e, if total > 0.0 { *c as f64 / total } else { 0.0 }))
            .collect()
    }
}

/// The CI signature of one application group.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ComponentInteraction {
    /// Per-node interaction profiles.
    pub per_node: BTreeMap<Ipv4Addr, NodeInteraction>,
}

/// A node whose interaction distribution shifted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiChange {
    /// The node.
    pub node: Ipv4Addr,
    /// The χ² statistic of the shift.
    pub chi2: f64,
}

impl fmt::Display for CiChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interaction shift at {} (chi2 {:.2})",
            self.node, self.chi2
        )
    }
}

impl Signature for ComponentInteraction {
    type Change = CiChange;
    const KIND: SignatureKind = SignatureKind::Ci;

    /// Each edge slot's flow count, fanned out per node (each edge
    /// counted under both endpoints).
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let mut per_node: BTreeMap<Ipv4Addr, NodeInteraction> = BTreeMap::new();
        for (edge, at) in inputs.edge_slots().ranges() {
            let count = at.len() as u64;
            // Count the edge under both endpoints; a self-edge counts
            // twice under its single node, as it always has.
            for node in [edge.src, edge.dst] {
                *per_node
                    .entry(node)
                    .or_default()
                    .edge_counts
                    .entry(edge)
                    .or_insert(0) += count;
            }
        }
        ComponentInteraction { per_node }
    }

    /// χ² fitness test per node (Section IV-A). Nodes present in only
    /// one log are skipped; the CG diff covers new/removed nodes more
    /// precisely.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<CiChange> {
        let mut out = Vec::new();
        let mut scratch = Chi2Scratch::default();
        for (node, reference, observed) in merge_join(&self.per_node, &current.per_node) {
            // Nodes missing on either side are skipped: the CG diff
            // covers those more precisely, and a profile damaged by
            // hostile input must degrade, not abort the diff.
            let (Some(reference), Some(observed)) = (reference, observed) else {
                continue;
            };
            let chi2 = scratch.chi2(reference, observed);
            if chi2 > CHI2_THRESHOLD {
                out.push(CiChange { node: *node, chi2 });
            }
        }
        out.sort_by(|a, b| b.chi2.total_cmp(&a.chi2));
        out
    }

    /// CI is gated per application node.
    fn locus(change: &CiChange) -> Locus {
        Locus::Node(change.node)
    }

    fn render(change: CiChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            components: vec![Component::Host(change.node)],
            detail: ChangeDetail::Ci(change),
            ts: None,
        }
    }

    fn stable_mask(&self) -> StabilityMask {
        StabilityMask::per_locus(
            Self::KIND,
            self.per_node
                .keys()
                .map(|ip| (Locus::Node(*ip), true))
                .collect(),
        )
    }

    /// CI stability per node: a quorum of intervals must fit the
    /// full-log profile (χ² below the alarm threshold). Nodes with
    /// non-linear decision logic, e.g. skewed load balancing, come out
    /// unstable.
    fn stability(&self, intervals: &[&Self], ctx: &StabilityCtx) -> StabilityMask {
        let loci = self
            .per_node
            .keys()
            .map(|node| {
                let votes = intervals
                    .iter()
                    .filter(|g| node_chi2(self, g, *node).is_some_and(|c| c < CHI2_THRESHOLD))
                    .count();
                (Locus::Node(*node), votes >= ctx.quorum)
            })
            .collect();
        StabilityMask::per_locus(Self::KIND, loci)
    }
}

/// The χ² statistic for a single node across two CIs (used by the
/// per-node diff and stability votes, and by the robustness experiments
/// of Figure 12).
pub fn node_chi2(
    reference: &ComponentInteraction,
    current: &ComponentInteraction,
    node: Ipv4Addr,
) -> Option<f64> {
    let r = reference.per_node.get(&node)?;
    let c = current.per_node.get(&node)?;
    Some(Chi2Scratch::default().chi2(r, c))
}

/// The expected and observed flow counts of one node's edges, kept
/// across the nodes of a diff so each node's test reuses them.
#[derive(Default)]
struct Chi2Scratch {
    expected: Vec<f64>,
    observed: Vec<f64>,
}

impl Chi2Scratch {
    /// The χ² statistic of `current`'s edge counts against
    /// `reference`'s, over the union of their edges in ascending order
    /// (an edge one side lacks counts 0 there).
    fn chi2(&mut self, reference: &NodeInteraction, current: &NodeInteraction) -> f64 {
        self.expected.clear();
        self.observed.clear();
        let counts = merge_join(&reference.edge_counts, &current.edge_counts);
        for (_, r, c) in counts {
            self.expected.push(r.map_or(0, |&n| n) as f64);
            self.observed.push(c.map_or(0, |&n| n) as f64);
        }
        chi_squared(&self.observed, &self.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowDiffConfig;
    use crate::ids::RecordIndex;
    use crate::records::{FlowRecord, FlowTuple};
    use crate::signatures::tests::window_of;
    use openflow::types::{IpProto, Timestamp};

    fn ip(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn records(counts: &[(u8, u8, usize)]) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for &(s, d, n) in counts {
            for i in 0..n {
                out.push(FlowRecord {
                    tuple: FlowTuple {
                        src: ip(s),
                        sport: 1000 + i as u16,
                        dst: ip(d),
                        dport: 80,
                        proto: IpProto::TCP,
                    },
                    first_seen: Timestamp::from_secs(i as u64),
                    hops: vec![],
                    byte_count: 100,
                    packet_count: 1,
                    duration_s: 1.0,
                });
            }
        }
        out
    }

    fn build_ci(rs: &[FlowRecord]) -> ComponentInteraction {
        let il = window_of(rs);
        let config = FlowDiffConfig::default();
        ComponentInteraction::build(&SignatureInputs::new(
            &il.refs(),
            &il.catalog,
            (Timestamp::ZERO, Timestamp::ZERO),
            &config,
        ))
    }

    fn diff_ci(a: &ComponentInteraction, b: &ComponentInteraction) -> Vec<CiChange> {
        let index = RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
    }

    #[test]
    fn build_counts_in_and_out_edges() {
        let ci = build_ci(&records(&[(1, 2, 10), (2, 3, 8)]));
        let n2 = &ci.per_node[&ip(2)];
        assert_eq!(n2.total(), 18);
        let norm = n2.normalized();
        let in_edge = Edge {
            src: ip(1),
            dst: ip(2),
        };
        let out_edge = Edge {
            src: ip(2),
            dst: ip(3),
        };
        assert!((norm[&in_edge] - 10.0 / 18.0).abs() < 1e-12);
        assert!((norm[&out_edge] - 8.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn same_shape_different_volume_not_flagged() {
        let ci_a = build_ci(&records(&[(1, 2, 10), (2, 3, 10)]));
        let ci_b = build_ci(&records(&[(1, 2, 50), (2, 3, 50)]));
        assert!(diff_ci(&ci_a, &ci_b).is_empty());
    }

    #[test]
    fn skewed_distribution_flagged() {
        let ci_a = build_ci(&records(&[(1, 2, 50), (2, 3, 50)]));
        // node 2 stops forwarding most requests
        let ci_b = build_ci(&records(&[(1, 2, 50), (2, 3, 5)]));
        let changes = diff_ci(&ci_a, &ci_b);
        assert!(changes.iter().any(|c| c.node == ip(2)));
        // results sorted by severity
        assert!(changes.windows(2).all(|w| w[0].chi2 >= w[1].chi2));
    }

    #[test]
    fn node_chi2_zero_for_identical() {
        let ci = build_ci(&records(&[(1, 2, 10), (2, 3, 10)]));
        assert!(node_chi2(&ci, &ci, ip(2)).unwrap() < 1e-9);
        assert!(node_chi2(&ci, &ci, ip(99)).is_none());
    }

    #[test]
    fn missing_node_in_current_is_skipped() {
        let ci_a = build_ci(&records(&[(1, 2, 10)]));
        let ci_b = build_ci(&records(&[(3, 4, 10)]));
        // CG diff owns missing-node reporting; CI diff must not panic.
        assert!(diff_ci(&ci_a, &ci_b).is_empty());
    }

    #[test]
    fn empty_interaction_normalizes_to_empty() {
        let ni = NodeInteraction::default();
        assert_eq!(ni.total(), 0);
        assert!(ni.normalized().is_empty());
    }

    #[test]
    fn per_node_mask_gates_only_unstable_nodes() {
        let ci_a = build_ci(&records(&[(1, 2, 50), (2, 3, 50)]));
        let ci_b = build_ci(&records(&[(1, 2, 50), (2, 3, 5)]));
        let index = RecordIndex::default();
        let ctx = DiffCtx { records: &index };
        // All shifted nodes stable: every change survives.
        let all = ci_a.tagged_diff(&ci_b, &ctx, &ci_a.stable_mask());
        assert!(!all.is_empty());
        // Mark node 2 unstable: its change is filtered out.
        let mut mask = ci_a.stable_mask();
        mask.loci.insert(Locus::Node(ip(2)), false);
        let gated = ci_a.tagged_diff(&ci_b, &ctx, &mask);
        assert!(gated.len() < all.len());
        assert!(gated
            .iter()
            .all(|c| c.components != vec![Component::Host(ip(2))]));
    }
}
