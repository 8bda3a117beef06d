//! The connectivity graph (CG) signature.
//!
//! Captures which application nodes open flows to which (Section III-B).
//! Robust to workload changes: the edge set depends only on the
//! application's internal structure.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::groups::Edge;
use crate::signatures::{
    merge_join, DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask,
};

/// The connectivity graph of one application group.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConnectivityGraph {
    /// Directed member-to-member edges.
    pub edges: BTreeSet<Edge>,
    /// Edges touching special-purpose service nodes.
    pub service_edges: BTreeSet<Edge>,
}

impl ConnectivityGraph {
    /// All edges including service edges, ascending.
    pub fn all_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.union(&self.service_edges)
    }
}

/// An edge present in one log but not the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CgChange {
    /// The edge.
    pub edge: Edge,
    /// True when the edge is new in the current graph, false when it
    /// disappeared from the reference.
    pub added: bool,
    /// When the edge first appeared in the current log (added edges
    /// only; removed edges have no appearance time).
    pub first_seen: Option<Timestamp>,
}

impl fmt::Display for CgChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.added {
            write!(f, "new edge {}", self.edge)
        } else {
            write!(f, "missing edge {}", self.edge)
        }
    }
}

impl Signature for ConnectivityGraph {
    type Change = CgChange;
    const KIND: SignatureKind = SignatureKind::Cg;

    /// Classifies each record's endpoint pair against the configured
    /// special-purpose IPs, exactly as the group discovery does —
    /// member-to-member flows become edges, flows touching one special
    /// node become service edges, special-to-special traffic is
    /// ignored. For a group's own records this reproduces the group's
    /// edge sets precisely.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let catalog = inputs.catalog;
        let special: Vec<bool> = catalog
            .hosts()
            .iter()
            .map(|&ip| inputs.config.is_special(ip))
            .collect();
        let mut edges = HashSet::new();
        let mut service_edges = HashSet::new();
        for record in inputs.records {
            let (src, dst) = catalog.edge_hosts(record.edge);
            let bucket = match (special[src.index()], special[dst.index()]) {
                (false, false) => &mut edges,
                (true, true) => continue, // service-to-service traffic: not an app flow
                _ => &mut service_edges,
            };
            bucket.insert(record.edge);
        }
        ConnectivityGraph {
            edges: edges.iter().map(|&e| catalog.edge_addr(e)).collect(),
            service_edges: service_edges
                .iter()
                .map(|&e| catalog.edge_addr(e))
                .collect(),
        }
    }

    /// Graph-matching diff (Section IV-A): lists new and missing edges,
    /// with appearance timestamps for new edges pulled from the current
    /// records.
    ///
    /// An edge counts as *removed* only when no flow with that source
    /// and destination exists anywhere in the current log — group
    /// fragmentation can move an edge into a different group without the
    /// traffic actually disappearing. One walk over both graphs'
    /// ascending edges finds both kinds.
    fn diff(&self, current: &Self, ctx: &DiffCtx<'_>) -> Vec<CgChange> {
        let reference = self.all_edges().map(|&e| (e, ()));
        let window = current.all_edges().map(|&e| (e, ()));
        let mut out = Vec::new();
        let mut removed = Vec::new();
        for (edge, was, is) in merge_join(reference, window) {
            let first_seen = || ctx.records.first_seen(&edge);
            match (was, is) {
                (None, Some(())) => out.push(CgChange {
                    edge,
                    added: true,
                    first_seen: first_seen(),
                }),
                (Some(()), None) if first_seen().is_none() => removed.push(CgChange {
                    edge,
                    added: false,
                    first_seen: None,
                }),
                _ => {}
            }
        }
        out.append(&mut removed);
        out
    }

    /// CG is accepted or rejected wholesale.
    fn locus(_change: &CgChange) -> Locus {
        Locus::Whole
    }

    fn render(change: CgChange) -> Change {
        let (direction, ts) = if change.added {
            (ChangeDirection::Added, change.first_seen)
        } else {
            (ChangeDirection::Removed, None)
        };
        Change {
            kind: Self::KIND,
            direction,
            components: vec![
                Component::Host(change.edge.src),
                Component::Host(change.edge.dst),
            ],
            ts,
            detail: ChangeDetail::Cg(change),
        }
    }

    /// CG stability: a quorum of interval edge sets must largely agree
    /// (Jaccard similarity ≥ 0.8) with the full-log edge set.
    fn stability(&self, intervals: &[&Self], ctx: &StabilityCtx<'_>) -> StabilityMask {
        let votes = intervals
            .iter()
            .filter(|g| {
                let inter = g.edges.intersection(&self.edges).count();
                let union = g.edges.union(&self.edges).count();
                union > 0 && inter as f64 / union as f64 >= 0.8
            })
            .count();
        StabilityMask::whole(Self::KIND, votes >= ctx.quorum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowDiffConfig;
    use crate::ids::{EntityCatalog, RecordIndex};
    use crate::records::{FlowRecord, FlowTuple};
    use openflow::types::IpProto;
    use std::net::Ipv4Addr;

    fn ip(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn edge(a: u8, b: u8) -> Edge {
        Edge {
            src: ip(a),
            dst: ip(b),
        }
    }

    fn cg(edges: &[Edge]) -> ConnectivityGraph {
        ConnectivityGraph {
            edges: edges.iter().copied().collect(),
            service_edges: BTreeSet::new(),
        }
    }

    fn record(e: Edge, at_us: u64) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src: e.src,
                sport: 1,
                dst: e.dst,
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_micros(at_us),
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        }
    }

    fn diff_cg(
        reference: &ConnectivityGraph,
        current: &ConnectivityGraph,
        records: &[FlowRecord],
    ) -> Vec<CgChange> {
        let config = FlowDiffConfig::default();
        let index = RecordIndex::of_records(records);
        reference.diff(
            current,
            &DiffCtx {
                config: &config,
                records: &index,
            },
        )
    }

    #[test]
    fn identical_graphs_diff_empty() {
        let g = cg(&[edge(1, 2), edge(2, 3)]);
        assert!(diff_cg(&g, &g, &[]).is_empty());
    }

    #[test]
    fn added_edge_carries_first_seen() {
        let reference = cg(&[edge(1, 2)]);
        let current = cg(&[edge(1, 2), edge(2, 9)]);
        let records = vec![record(edge(2, 9), 5_000), record(edge(2, 9), 2_000)];
        let d = diff_cg(&reference, &current, &records);
        assert_eq!(d.len(), 1);
        assert!(d[0].added);
        assert_eq!(d[0].edge, edge(2, 9));
        assert_eq!(d[0].first_seen, Some(Timestamp::from_micros(2_000)));
    }

    #[test]
    fn removed_edge_detected() {
        let reference = cg(&[edge(1, 2), edge(2, 3)]);
        let current = cg(&[edge(1, 2)]);
        let d = diff_cg(&reference, &current, &[]);
        assert_eq!(d.len(), 1);
        assert!(!d[0].added);
        assert_eq!(d[0].edge, edge(2, 3));
        assert_eq!(d[0].first_seen, None);
    }

    #[test]
    fn service_edges_participate_in_diff() {
        let mut reference = cg(&[edge(1, 2)]);
        reference.service_edges.insert(edge(1, 200));
        let current = cg(&[edge(1, 2)]);
        let d = diff_cg(&reference, &current, &[]);
        assert_eq!(d.len(), 1, "lost service edge must be reported");
        assert!(!d[0].added);
    }

    #[test]
    fn render_tags_direction_and_hosts() {
        let added = CgChange {
            edge: edge(1, 2),
            added: true,
            first_seen: Some(Timestamp::from_secs(7)),
        };
        let c = ConnectivityGraph::render(added);
        assert_eq!(c.kind, SignatureKind::Cg);
        assert_eq!(c.direction, ChangeDirection::Added);
        assert_eq!(c.ts, Some(Timestamp::from_secs(7)));
        assert_eq!(
            c.components,
            vec![Component::Host(ip(1)), Component::Host(ip(2))]
        );
        assert!(c.description().contains("new edge"));

        let removed = CgChange {
            edge: edge(1, 2),
            added: false,
            first_seen: None,
        };
        let c = ConnectivityGraph::render(removed);
        assert_eq!(c.direction, ChangeDirection::Removed);
        assert!(c.description().contains("missing edge"));
    }

    #[test]
    fn build_without_group_is_empty() {
        let config = FlowDiffConfig::default();
        let catalog = EntityCatalog::new();
        let inputs =
            SignatureInputs::new(&[], &catalog, (Timestamp::ZERO, Timestamp::ZERO), &config);
        let g = ConnectivityGraph::build(&inputs);
        assert!(g.edges.is_empty() && g.service_edges.is_empty());
    }

    #[test]
    fn unstable_mask_gates_whole_diff() {
        let reference = cg(&[edge(1, 2), edge(2, 3)]);
        let current = cg(&[edge(1, 2)]);
        let config = FlowDiffConfig::default();
        let index = RecordIndex::default();
        let ctx = DiffCtx {
            config: &config,
            records: &index,
        };
        let unstable = StabilityMask::whole(SignatureKind::Cg, false);
        assert!(reference.tagged_diff(&current, &ctx, &unstable).is_empty());
        let stable = reference.stable_mask();
        assert_eq!(reference.tagged_diff(&current, &ctx, &stable).len(), 1);
    }
}
