//! The shared change vocabulary.
//!
//! Every signature's diff output is rendered into a [`Change`] tagged
//! with its [`SignatureKind`], so the downstream layers — gating by
//! stability, task validation, the dependency matrix, classification,
//! component ranking — treat all nine signatures uniformly instead of
//! pattern-matching on nine concrete change types.
//!
//! A change keeps the typed change its signature computed as its
//! [`ChangeDetail`] — baseline and observed values, not prose — and
//! formats its description only when someone reads it
//! ([`Change::description`]): an epoch boundary renders no text.

use std::fmt;
use std::net::Ipv4Addr;

use openflow::types::{DatapathId, Timestamp};
use serde::{Deserialize, Serialize};

use crate::signatures::connectivity::CgChange;
use crate::signatures::correlation::PcChange;
use crate::signatures::delay::{DdChange, EdgePair};
use crate::signatures::flow_stats::FsChange;
use crate::signatures::infra::{CrtChange, IslChange, PtChange};
use crate::signatures::interaction::CiChange;
use crate::signatures::utilization::LuChange;

/// Which signature a change belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SignatureKind {
    /// Connectivity graph.
    Cg,
    /// Delay distribution.
    Dd,
    /// Component interaction.
    Ci,
    /// Partial correlation.
    Pc,
    /// Flow statistics.
    Fs,
    /// Physical topology.
    Pt,
    /// Inter-switch latency.
    Isl,
    /// Controller response time.
    Crt,
    /// Link utilization baseline.
    Lu,
}

impl SignatureKind {
    /// True for application-layer signatures (matrix rows).
    pub fn is_application(self) -> bool {
        matches!(
            self,
            SignatureKind::Cg
                | SignatureKind::Dd
                | SignatureKind::Ci
                | SignatureKind::Pc
                | SignatureKind::Fs
        )
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SignatureKind::Cg => "CG",
            SignatureKind::Dd => "DD",
            SignatureKind::Ci => "CI",
            SignatureKind::Pc => "PC",
            SignatureKind::Fs => "FS",
            SignatureKind::Pt => "PT",
            SignatureKind::Isl => "ISL",
            SignatureKind::Crt => "CRT",
            SignatureKind::Lu => "LU",
        }
    }
}

/// A physical or logical component implicated in a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// A server or VM.
    Host(Ipv4Addr),
    /// A switch.
    Switch(DatapathId),
    /// A switch-to-switch segment.
    SwitchPair(DatapathId, DatapathId),
    /// The OpenFlow controller.
    Controller,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Host(ip) => write!(f, "host {ip}"),
            Component::Switch(d) => write!(f, "switch {d}"),
            Component::SwitchPair(a, b) => write!(f, "segment {a}~{b}"),
            Component::Controller => write!(f, "controller"),
        }
    }
}

/// Whether a change adds or removes behavior (meaningful for CG/PT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeDirection {
    /// New behavior appeared.
    Added,
    /// Known behavior disappeared.
    Removed,
    /// A statistic shifted.
    Shifted,
}

/// Where inside a signature a change (or a stability verdict) applies.
///
/// Stability is judged at this granularity: CG and FS are accepted or
/// rejected wholesale, CI per application node, DD and PC per adjacent
/// edge pair. Infrastructure signatures are always gated wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Locus {
    /// The signature as a whole.
    Whole,
    /// One application node.
    Node(Ipv4Addr),
    /// One adjacent edge pair.
    Pair(EdgePair),
}

/// What changed, as the signature's diff computed it: the typed change
/// of one of the nine signatures, or an application group only the
/// current model has. Its [`Display`](fmt::Display) is the change's
/// description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChangeDetail {
    /// A connectivity-graph edge appeared or vanished.
    Cg(CgChange),
    /// A flow statistic moved.
    Fs(FsChange),
    /// A node's interaction distribution shifted.
    Ci(CiChange),
    /// A delay-distribution peak moved.
    Dd(DdChange),
    /// A partial correlation moved.
    Pc(PcChange),
    /// The physical topology changed.
    Pt(PtChange),
    /// An inter-switch latency shifted.
    Isl(IslChange),
    /// The controller's response changed.
    Crt(CrtChange),
    /// A port's utilization shifted.
    Lu(LuChange),
    /// An application group of `nodes` members only the current model
    /// has.
    NewGroup {
        /// The group's member count.
        nodes: usize,
    },
}

impl fmt::Display for ChangeDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeDetail::Cg(c) => c.fmt(f),
            ChangeDetail::Fs(c) => c.fmt(f),
            ChangeDetail::Ci(c) => c.fmt(f),
            ChangeDetail::Dd(c) => c.fmt(f),
            ChangeDetail::Pc(c) => c.fmt(f),
            ChangeDetail::Pt(c) => c.fmt(f),
            ChangeDetail::Isl(c) => c.fmt(f),
            ChangeDetail::Crt(c) => c.fmt(f),
            ChangeDetail::Lu(c) => c.fmt(f),
            ChangeDetail::NewGroup { nodes } => {
                write!(f, "new application group of {nodes} nodes")
            }
        }
    }
}

/// One detected behavioral change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Change {
    /// The signature that changed.
    pub kind: SignatureKind,
    /// Added/removed/shifted.
    pub direction: ChangeDirection,
    /// The typed change, with its baseline and observed values.
    pub detail: ChangeDetail,
    /// Implicated components.
    pub components: Vec<Component>,
    /// When the new behavior first appeared, when known.
    pub ts: Option<Timestamp>,
}

impl Change {
    /// The human-readable description, formatted from the detail on
    /// each call.
    pub fn description(&self) -> String {
        self.detail.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One change of every detail, rendered through its signature.
    fn fixture_changes() -> Vec<Change> {
        use crate::groups::Edge;
        use crate::signatures::connectivity::ConnectivityGraph;
        use crate::signatures::correlation::PartialCorrelation;
        use crate::signatures::delay::DelayDistribution;
        use crate::signatures::flow_stats::{FlowStatsSig, FsMetric};
        use crate::signatures::infra::{
            ControllerResponse, InterSwitchLatency, PhysicalTopology, SwitchAdjacency,
        };
        use crate::signatures::interaction::ComponentInteraction;
        use crate::signatures::utilization::LinkUtilization;
        use crate::signatures::Signature;
        use crate::stats::MeanStd;
        use openflow::types::PortNo;

        let ip = |x| Ipv4Addr::new(10, 0, 0, x);
        let edge = |a, b| Edge {
            src: ip(a),
            dst: ip(b),
        };
        let pair = (edge(1, 2), edge(2, 3));
        let ms = |mean, std, n| MeanStd { mean, std, n };
        let adj = SwitchAdjacency {
            from: DatapathId(1),
            from_port: PortNo(2),
            to: DatapathId(3),
            to_port: PortNo(4),
        };
        let cg = |added, first_seen| CgChange {
            edge: edge(1, 2),
            added,
            first_seen,
        };
        let fs = |metric, edge, reference, current| FsChange {
            metric,
            edge,
            reference,
            current,
            rel_change: 0.5,
        };
        let crt = |unanswered| CrtChange {
            reference: ms(812.25, 40.5, 100),
            current: ms(1937.75, 61.0, 90),
            sigmas: 27.8,
            unanswered,
        };
        vec![
            ConnectivityGraph::render(cg(true, Some(Timestamp::from_secs(7)))),
            ConnectivityGraph::render(cg(false, None)),
            FlowStatsSig::render(fs(FsMetric::Bytes, Some(edge(4, 5)), 1234.5678, 99.1)),
            FlowStatsSig::render(fs(FsMetric::Bytes, None, 1000.0, 1200.5)),
            FlowStatsSig::render(fs(FsMetric::FlowRate, None, 9.0, 14.0)),
            FlowStatsSig::render(fs(FsMetric::Duration, Some(edge(6, 7)), 5.0, 0.25)),
            ComponentInteraction::render(CiChange {
                node: ip(6),
                chi2: 18.144,
            }),
            DelayDistribution::render(DdChange {
                pair,
                reference_peak: (60_000, 80_000),
                current_peak: (160_000, 180_000),
                shift_bins: 5,
                mean_shift_us: 100_000.0,
            }),
            PartialCorrelation::render(PcChange {
                pair,
                reference: 0.951,
                current: 0.104,
            }),
            PhysicalTopology::render(PtChange::AdjacencyAdded(adj)),
            PhysicalTopology::render(PtChange::AdjacencyRemoved(adj)),
            PhysicalTopology::render(PtChange::HostMoved {
                host: ip(9),
                old: DatapathId(1),
                new: DatapathId(3),
            }),
            PhysicalTopology::render(PtChange::SwitchVanished(DatapathId(3))),
            InterSwitchLatency::render(IslChange {
                pair: (DatapathId(1), DatapathId(3)),
                reference: ms(120.4, 8.0, 50),
                current: ms(910.6, 30.0, 50),
                sigmas: 98.775,
            }),
            ControllerResponse::render(crt((0.01, 0.95))),
            ControllerResponse::render(crt((0.01, 0.02))),
            LinkUtilization::render(LuChange {
                port: (DatapathId(1), PortNo(2)),
                reference: ms(100_000.4, 900.0, 8),
                current: ms(5_000_000.6, 1_000.0, 8),
                sigmas: 5444.4,
            }),
        ]
    }

    /// Each detail's description, as the signatures rendered it when a
    /// change stored its text: the wording operators and scripts read.
    #[test]
    fn every_detail_reads_as_it_always_has() {
        let want = [
            "Cg Added [Host(10.0.0.1), Host(10.0.0.2)] Some(Timestamp(7000000)) || new edge 10.0.0.1 -> 10.0.0.2",
            "Cg Removed [Host(10.0.0.1), Host(10.0.0.2)] None || missing edge 10.0.0.1 -> 10.0.0.2",
            "Fs Removed [Host(10.0.0.4), Host(10.0.0.5)] None || bytes changed 1234.568 -> 99.100 on 10.0.0.4 -> 10.0.0.5",
            "Fs Added [] None || bytes changed 1000.000 -> 1200.500",
            "Fs Shifted [] None || flow_rate changed 9.000 -> 14.000",
            "Fs Shifted [Host(10.0.0.6), Host(10.0.0.7)] None || duration changed 5.000 -> 0.250 on 10.0.0.6 -> 10.0.0.7",
            "Ci Shifted [Host(10.0.0.6)] None || interaction shift at 10.0.0.6 (chi2 18.14)",
            "Dd Shifted [Host(10.0.0.2)] None || delay peak moved 60ms -> 160ms at 10.0.0.2",
            "Pc Shifted [Host(10.0.0.2)] None || correlation 0.95 -> 0.10 at 10.0.0.2",
            "Pt Added [Switch(DatapathId(1)), Switch(DatapathId(3))] None || new adjacency dpid:0000000000000001 -> dpid:0000000000000003",
            "Pt Removed [Switch(DatapathId(1)), Switch(DatapathId(3))] None || missing adjacency dpid:0000000000000001 -> dpid:0000000000000003",
            "Pt Shifted [Host(10.0.0.9), Switch(DatapathId(1)), Switch(DatapathId(3))] None || host 10.0.0.9 moved dpid:0000000000000001 -> dpid:0000000000000003",
            "Pt Removed [Switch(DatapathId(3))] None || switch dpid:0000000000000003 vanished from all paths",
            "Isl Shifted [SwitchPair(DatapathId(1), DatapathId(3))] None || latency 120us -> 911us between dpid:0000000000000001 and dpid:0000000000000003 (98.8 sigma)",
            "Crt Shifted [Controller] None || controller stopped answering: 95% of PacketIns unanswered (was 1%)",
            "Crt Shifted [Controller] None || controller response 812us -> 1938us (27.8 sigma)",
            "Lu Shifted [Switch(DatapathId(1))] None || utilization 100000 -> 5000001 bytes/s on dpid:0000000000000001 port:2 (5444.4 sigma)",
            "Cg Added [Host(10.0.0.1), Host(10.0.0.2), Host(10.0.0.3)] None || new application group of 3 nodes",
        ];
        let mut changes = fixture_changes();
        changes.push(Change {
            kind: SignatureKind::Cg,
            direction: ChangeDirection::Added,
            detail: ChangeDetail::NewGroup { nodes: 3 },
            components: (1..=3)
                .map(|x| Component::Host(Ipv4Addr::new(10, 0, 0, x)))
                .collect(),
            ts: None,
        });
        assert_eq!(changes.len(), want.len());
        for (c, want) in changes.iter().zip(want) {
            let got = format!(
                "{:?} {:?} {:?} {:?} || {}",
                c.kind,
                c.direction,
                c.components,
                c.ts,
                c.description()
            );
            assert_eq!(got, want);
        }
    }

    #[test]
    fn every_detail_round_trips() {
        for c in fixture_changes() {
            let bytes = serde::to_vec(&c);
            let back: Change = serde::from_slice(&bytes).expect("change must deserialize");
            assert_eq!(back, c);
            assert_eq!(serde::to_vec(&back), bytes);
        }
    }

    #[test]
    fn application_kinds_partition() {
        let app = [
            SignatureKind::Cg,
            SignatureKind::Dd,
            SignatureKind::Ci,
            SignatureKind::Pc,
            SignatureKind::Fs,
        ];
        let infra = [
            SignatureKind::Pt,
            SignatureKind::Isl,
            SignatureKind::Crt,
            SignatureKind::Lu,
        ];
        assert!(app.iter().all(|k| k.is_application()));
        assert!(infra.iter().all(|k| !k.is_application()));
    }

    #[test]
    fn component_display_names() {
        assert_eq!(
            Component::Host(Ipv4Addr::new(10, 0, 0, 1)).to_string(),
            "host 10.0.0.1"
        );
        assert_eq!(Component::Controller.to_string(), "controller");
    }

    #[test]
    fn locus_orders_whole_first() {
        let mut loci = [Locus::Node(Ipv4Addr::new(10, 0, 0, 1)), Locus::Whole];
        loci.sort();
        assert_eq!(loci[0], Locus::Whole);
    }
}
