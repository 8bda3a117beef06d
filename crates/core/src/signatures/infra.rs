//! Infrastructure signatures (Section III-C): physical topology (PT),
//! inter-switch latency (ISL), and controller response time (CRT).
//!
//! All three are inferred purely from control-message timestamps at the
//! controller, following Figure 3 of the paper:
//!
//! * PT — a flow's ordered `PacketIn` reports (ingress ports) combined
//!   with the `FlowMod` output ports reveal which switch port connects to
//!   which;
//! * ISL — for consecutive hops, the gap between the controller sending
//!   the `FlowMod` to switch *i* and receiving the `PacketIn` from switch
//!   *i + 1* estimates the latency between them;
//! * CRT — the gap between a `PacketIn` and its paired `FlowMod`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;

use openflow::types::{DatapathId, PortNo};
use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::{CRT_SIGMA, ISL_SIGMA, MIN_SAMPLES};
use crate::ids::{
    pack_port_pair, pack_switch_pair, unpack_port_pair, unpack_switch_pair, EntityCatalog, HostId,
    IRecord, PortId, SwitchId,
};
use crate::signatures::{DiffCtx, KeyIndex, Signature, SignatureInputs};
use crate::stats::{MeanStd, Moments};

/// An inferred switch-to-switch adjacency, with the connecting ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwitchAdjacency {
    /// Upstream switch.
    pub from: DatapathId,
    /// Upstream egress port.
    pub from_port: PortNo,
    /// Downstream switch.
    pub to: DatapathId,
    /// Downstream ingress port.
    pub to_port: PortNo,
}

/// The inferred physical topology.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhysicalTopology {
    /// Directed switch adjacencies observed on flow paths.
    pub adjacencies: BTreeSet<SwitchAdjacency>,
    /// First switch (and its ingress port) seen for each source host IP —
    /// the host's attachment point.
    pub host_attachment: BTreeMap<Ipv4Addr, (DatapathId, PortNo)>,
    /// Switches known to be alive during the capture (any control
    /// message, including echo keepalives, counts as a liveness proof).
    pub live_switches: BTreeSet<DatapathId>,
}

/// One physical-topology change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtChange {
    /// A switch-to-switch adjacency newly observed.
    AdjacencyAdded(SwitchAdjacency),
    /// An adjacency no longer observed, with an endpoint gone silent.
    AdjacencyRemoved(SwitchAdjacency),
    /// A host whose attachment switch changed.
    HostMoved {
        /// The host.
        host: Ipv4Addr,
        /// Previous attachment switch.
        old: DatapathId,
        /// Current attachment switch.
        new: DatapathId,
    },
    /// A switch that disappeared from all observed paths.
    SwitchVanished(DatapathId),
}

impl Signature for PhysicalTopology {
    type Change = PtChange;
    const KIND: SignatureKind = SignatureKind::Pt;

    /// The fold of one partial over the whole feed.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let mut fold = PtFold::default();
        let part = fold.partial(inputs.records, inputs.catalog);
        fold.finish(std::iter::once(&part), inputs.catalog)
    }

    /// Compares two topologies.
    ///
    /// An adjacency that merely stopped carrying traffic is *not* a
    /// topology change: removals are reported only when an endpoint
    /// switch also went silent (no liveness proof in the current
    /// capture). This keeps application-layer problems from masquerading
    /// as switch failures.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<PtChange> {
        let mut out: Vec<PtChange> = current
            .adjacencies
            .difference(&self.adjacencies)
            .map(|a| PtChange::AdjacencyAdded(*a))
            .collect();
        out.extend(
            self.adjacencies
                .difference(&current.adjacencies)
                .filter(|a| {
                    !current.live_switches.contains(&a.from)
                        || !current.live_switches.contains(&a.to)
                })
                .map(|a| PtChange::AdjacencyRemoved(*a)),
        );
        for (host, (old_sw, _)) in &self.host_attachment {
            if let Some((new_sw, _)) = current.host_attachment.get(host) {
                if new_sw != old_sw {
                    out.push(PtChange::HostMoved {
                        host: *host,
                        old: *old_sw,
                        new: *new_sw,
                    });
                }
            }
        }
        out.extend(
            self.live_switches
                .difference(&current.live_switches)
                .map(|sw| PtChange::SwitchVanished(*sw)),
        );
        out
    }

    /// PT is never gated: topology evidence is cumulative.
    fn locus(_change: &PtChange) -> Locus {
        Locus::Whole
    }

    fn render(change: PtChange) -> Change {
        let (direction, components) = match change {
            PtChange::AdjacencyAdded(adj) => (
                ChangeDirection::Added,
                vec![Component::Switch(adj.from), Component::Switch(adj.to)],
            ),
            PtChange::AdjacencyRemoved(adj) => (
                ChangeDirection::Removed,
                vec![Component::Switch(adj.from), Component::Switch(adj.to)],
            ),
            PtChange::HostMoved { host, old, new } => (
                ChangeDirection::Shifted,
                vec![
                    Component::Host(host),
                    Component::Switch(old),
                    Component::Switch(new),
                ],
            ),
            PtChange::SwitchVanished(sw) => (ChangeDirection::Removed, vec![Component::Switch(sw)]),
        };
        Change {
            kind: Self::KIND,
            direction,
            detail: ChangeDetail::Pt(change),
            components,
            ts: None,
        }
    }
}

impl fmt::Display for PtChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtChange::AdjacencyAdded(adj) => write!(f, "new adjacency {} -> {}", adj.from, adj.to),
            PtChange::AdjacencyRemoved(adj) => {
                write!(f, "missing adjacency {} -> {}", adj.from, adj.to)
            }
            PtChange::HostMoved { host, old, new } => write!(f, "host {host} moved {old} -> {new}"),
            PtChange::SwitchVanished(sw) => write!(f, "switch {sw} vanished from all paths"),
        }
    }
}

/// The ISL signature: per ordered switch pair, the mean and standard
/// deviation of the inferred latency (Section III-C uses exactly this
/// statistical summary because individual samples vary with switch
/// processing times).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InterSwitchLatency {
    /// Latency summary per `(upstream, downstream)` pair, microseconds.
    pub per_pair: BTreeMap<(DatapathId, DatapathId), MeanStd>,
}

/// A latency shift between a switch pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IslChange {
    /// The switch pair.
    pub pair: (DatapathId, DatapathId),
    /// Baseline summary.
    pub reference: MeanStd,
    /// Current summary.
    pub current: MeanStd,
    /// Shift in baseline standard deviations.
    pub sigmas: f64,
}

impl Signature for InterSwitchLatency {
    type Change = IslChange;
    const KIND: SignatureKind = SignatureKind::Isl;

    /// The fold of one partial over the whole feed.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let mut fold = IslFold::default();
        let part = fold.partial(inputs.records, inputs.catalog);
        fold.finish(std::iter::once(&part), inputs.catalog)
    }

    /// Flags pairs whose mean latency moved beyond [`ISL_SIGMA`]
    /// baseline standard deviations.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<IslChange> {
        let mut out = Vec::new();
        for (pair, ref_stats) in &self.per_pair {
            let Some(cur_stats) = current.per_pair.get(pair) else {
                continue;
            };
            if ref_stats.n < MIN_SAMPLES || cur_stats.n < MIN_SAMPLES {
                continue;
            }
            let sigmas = ref_stats.shift_sigmas(cur_stats);
            if sigmas > ISL_SIGMA {
                out.push(IslChange {
                    pair: *pair,
                    reference: *ref_stats,
                    current: *cur_stats,
                    sigmas,
                });
            }
        }
        out.sort_by(|a, b| b.sigmas.total_cmp(&a.sigmas));
        out
    }

    /// ISL is already gated by [`MIN_SAMPLES`].
    fn locus(_change: &IslChange) -> Locus {
        Locus::Whole
    }

    fn render(change: IslChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            components: vec![Component::SwitchPair(change.pair.0, change.pair.1)],
            detail: ChangeDetail::Isl(change),
            ts: None,
        }
    }
}

impl fmt::Display for IslChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.0}us -> {:.0}us between {} and {} ({:.1} sigma)",
            self.reference.mean, self.current.mean, self.pair.0, self.pair.1, self.sigmas
        )
    }
}

/// The CRT signature: controller response time summary, overall and per
/// switch, plus the fraction of `PacketIn`s that never got a reply (the
/// controller-failure symptom of Figure 2(b)).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ControllerResponse {
    /// Overall response-time summary, microseconds.
    pub overall: MeanStd,
    /// Per-switch response-time summaries.
    pub per_switch: BTreeMap<DatapathId, MeanStd>,
    /// `PacketIn`s with a paired `FlowMod`.
    pub answered: usize,
    /// `PacketIn`s that never got a reply.
    pub unanswered: usize,
}

impl ControllerResponse {
    /// Fraction of `PacketIn`s that went unanswered (0 when none seen).
    pub fn unanswered_fraction(&self) -> f64 {
        let total = self.answered + self.unanswered;
        if total == 0 {
            0.0
        } else {
            self.unanswered as f64 / total as f64
        }
    }
}

/// A controller response-time shift or reply blackout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrtChange {
    /// Baseline summary.
    pub reference: MeanStd,
    /// Current summary.
    pub current: MeanStd,
    /// Shift in baseline standard deviations.
    pub sigmas: f64,
    /// Unanswered-`PacketIn` fractions `(baseline, current)`.
    pub unanswered: (f64, f64),
}

impl Signature for ControllerResponse {
    type Change = CrtChange;
    const KIND: SignatureKind = SignatureKind::Crt;

    /// The fold of one partial over the whole feed.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let part = CrtPartial::of(inputs.records, inputs.catalog);
        ControllerResponse::fold(std::iter::once(&part), inputs.catalog)
    }

    /// Flags an overall response-time shift beyond [`CRT_SIGMA`], or
    /// a jump in the unanswered-`PacketIn` fraction (the controller
    /// stopped replying — its failure mode). At most one change is
    /// produced: the controller is a single component.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<CrtChange> {
        let unanswered = (self.unanswered_fraction(), current.unanswered_fraction());
        let blackout = current.answered + current.unanswered >= MIN_SAMPLES
            && unanswered.1 > unanswered.0 + 0.3;
        if blackout {
            return vec![CrtChange {
                reference: self.overall,
                current: current.overall,
                sigmas: f64::MAX,
                unanswered,
            }];
        }
        if self.overall.n < MIN_SAMPLES || current.overall.n < MIN_SAMPLES {
            return Vec::new();
        }
        let sigmas = self.overall.shift_sigmas(&current.overall);
        if sigmas > CRT_SIGMA {
            vec![CrtChange {
                reference: self.overall,
                current: current.overall,
                sigmas,
                unanswered,
            }]
        } else {
            Vec::new()
        }
    }

    /// CRT is a single global statistic.
    fn locus(_change: &CrtChange) -> Locus {
        Locus::Whole
    }

    fn render(change: CrtChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            detail: ChangeDetail::Crt(change),
            components: vec![Component::Controller],
            ts: None,
        }
    }
}

impl fmt::Display for CrtChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unanswered.1 > self.unanswered.0 + 0.3 {
            write!(
                f,
                "controller stopped answering: {:.0}% of PacketIns unanswered (was {:.0}%)",
                self.unanswered.1 * 100.0,
                self.unanswered.0 * 100.0
            )
        } else {
            write!(
                f,
                "controller response {:.0}us -> {:.0}us ({:.1} sigma)",
                self.reference.mean, self.current.mean, self.sigmas
            )
        }
    }
}

/// One pane's share of PT: the switches its records report from, the
/// port each source host's first record entered at, and the adjacencies
/// its paths cross, under the [`PtFold`]'s index.
#[derive(Debug, Clone, Default)]
pub(crate) struct PtPartial {
    live: Vec<SwitchId>,
    /// `(host, port)`, hosts in the order of their first record.
    attachment: Vec<(HostId, PortId)>,
    adjacencies: Vec<u32>,
}

/// PT's fold over pane partials in window order, and the index of the
/// packed port pairs its partials file adjacencies under.
#[derive(Debug, Clone, Default)]
pub(crate) struct PtFold {
    adjacencies: KeyIndex,
}

impl PtFold {
    /// How many adjacencies have an index.
    pub(crate) fn keys(&self) -> usize {
        self.adjacencies.len()
    }

    /// Collects liveness, attachment and adjacency evidence over dense
    /// IDs — a [`PortId`] already names its switch, so one packed port
    /// pair captures a whole adjacency.
    pub(crate) fn partial(&mut self, records: &[&IRecord], catalog: &EntityCatalog) -> PtPartial {
        let mut live = vec![false; catalog.n_switches()];
        let mut attached = vec![false; catalog.n_hosts()];
        let mut crossed = vec![false; self.adjacencies.len()];
        let mut part = PtPartial::default();
        for record in records {
            for h in &record.hops {
                live[catalog.switch_of(h.in_port).index()] = true;
            }
            if let Some(first) = record.hops.first() {
                // First wins: the feed is in window order, so a host
                // attaches where its earliest record entered.
                let (src, _) = catalog.edge_hosts(record.edge);
                if !std::mem::replace(&mut attached[src.index()], true) {
                    part.attachment.push((src, first.in_port));
                }
            }
            for w in record.hops.windows(2) {
                if let Some(out_port) = w[0].out_port {
                    let at = self.adjacencies.of(pack_port_pair(out_port, w[1].in_port));
                    if at >= crossed.len() {
                        crossed.resize(at + 1, false);
                    }
                    if !std::mem::replace(&mut crossed[at], true) {
                        part.adjacencies.push(at as u32);
                    }
                }
            }
        }
        part.live = (0..)
            .zip(&live)
            .filter(|(_, &seen)| seen)
            .map(|(i, _)| SwitchId(i))
            .collect();
        part
    }

    /// Resolves the evidence of `parts`, in window order, back to
    /// addresses: a host attaches where the first part that saw it says.
    pub(crate) fn finish<'a>(
        &self,
        parts: impl Iterator<Item = &'a PtPartial>,
        catalog: &EntityCatalog,
    ) -> PhysicalTopology {
        let mut live = vec![false; catalog.n_switches()];
        let mut attachment: Vec<Option<PortId>> = vec![None; catalog.n_hosts()];
        let mut crossed = vec![false; self.adjacencies.len()];
        for part in parts {
            part.live.iter().for_each(|s| live[s.index()] = true);
            for &(host, port) in &part.attachment {
                attachment[host.index()].get_or_insert(port);
            }
            (part.adjacencies.iter()).for_each(|&a| crossed[a as usize] = true);
        }
        PhysicalTopology {
            adjacencies: (0..crossed.len())
                .filter(|&a| crossed[a])
                .map(|a| {
                    let (from, to) = unpack_port_pair(self.adjacencies.key(a));
                    let (from_sw, from_port) = catalog.port_addr(from);
                    let (to_sw, to_port) = catalog.port_addr(to);
                    SwitchAdjacency {
                        from: from_sw,
                        from_port,
                        to: to_sw,
                        to_port,
                    }
                })
                .collect(),
            host_attachment: (0..)
                .zip(&attachment)
                .filter_map(|(i, port)| {
                    Some((catalog.host(HostId(i)), catalog.port_addr((*port)?)))
                })
                .collect(),
            live_switches: (0..)
                .zip(&live)
                .filter(|(_, &seen)| seen)
                .map(|(i, _)| catalog.switch(SwitchId(i)))
                .collect(),
        }
    }
}

/// One pane's share of ISL: its samples in feed order, then hop order,
/// each beside its switch pair's index in the [`IslFold`].
#[derive(Debug, Clone, Default)]
pub(crate) struct IslPartial {
    samples: Vec<f64>,
    pairs: Vec<u32>,
}

/// ISL's fold over pane partials in window order, and the index of the
/// packed switch pairs its partials file samples under.
#[derive(Debug, Clone, Default)]
pub(crate) struct IslFold {
    pairs: KeyIndex,
}

impl IslFold {
    /// How many switch pairs have an index.
    pub(crate) fn keys(&self) -> usize {
        self.pairs.len()
    }

    /// One sample per consecutive hop pair (Figure 3: `t3 - t2`).
    pub(crate) fn partial(&mut self, records: &[&IRecord], catalog: &EntityCatalog) -> IslPartial {
        let mut part = IslPartial::default();
        for record in records {
            for w in record.hops.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                let Some(fm_ts) = a.flow_mod_ts else {
                    continue;
                };
                // Checked difference: a PacketIn timestamped before its
                // upstream FlowMod (reordered capture, clock skew) yields
                // no sample instead of a wrapped ~1.8e19 µs "latency" that
                // would poison the pair's baseline.
                let Some(delta) = b.ts.checked_since(fm_ts) else {
                    continue;
                };
                let (from, to) = (catalog.switch_of(a.in_port), catalog.switch_of(b.in_port));
                part.pairs
                    .push(self.pairs.of(pack_switch_pair(from, to)) as u32);
                part.samples.push(delta as f64);
            }
        }
        part
    }

    /// Each switch pair's summary over the samples of `parts`, in window
    /// order.
    pub(crate) fn finish<'a>(
        &self,
        parts: impl Iterator<Item = &'a IslPartial> + Clone,
        catalog: &EntityCatalog,
    ) -> InterSwitchLatency {
        let samples = parts.flat_map(|p| p.pairs.iter().zip(&p.samples));
        let mut moments = vec![Moments::default(); self.pairs.len()];
        samples
            .clone()
            .for_each(|(&p, &x)| moments[p as usize].add(x));
        moments.iter_mut().for_each(Moments::center);
        samples.for_each(|(&p, &x)| moments[p as usize].spread(x));
        InterSwitchLatency {
            per_pair: (moments.iter().enumerate())
                .filter(|(_, m)| !m.is_empty())
                .map(|(i, m)| {
                    let (a, b) = unpack_switch_pair(self.pairs.key(i));
                    ((catalog.switch(a), catalog.switch(b)), m.summary())
                })
                .collect(),
        }
    }
}

/// One pane's share of CRT: its samples in feed order, then hop order,
/// each beside its switch, and its unanswered `PacketIn`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrtPartial {
    samples: Vec<f64>,
    switches: Vec<SwitchId>,
    unanswered: usize,
}

impl CrtPartial {
    /// One sample per answered `PacketIn` (Figure 3: `t2 - t1`).
    pub(crate) fn of(records: &[&IRecord], catalog: &EntityCatalog) -> CrtPartial {
        let mut part = CrtPartial::default();
        for record in records {
            for h in &record.hops {
                match h.flow_mod_ts {
                    // Checked difference: a FlowMod stamped before its
                    // PacketIn (reply reordered past its request) yields no
                    // sample rather than an underflowed response time.
                    Some(fm_ts) => {
                        if let Some(d) = fm_ts.checked_since(h.ts) {
                            part.samples.push(d as f64);
                            part.switches.push(catalog.switch_of(h.in_port));
                        }
                    }
                    None => part.unanswered += 1,
                }
            }
        }
        part
    }
}

impl ControllerResponse {
    /// The summaries of the samples of `parts`, in window order, overall
    /// and per switch (filed under the hop's [`SwitchId`], a `Vec`
    /// index).
    pub(crate) fn fold<'a>(
        parts: impl Iterator<Item = &'a CrtPartial> + Clone,
        catalog: &EntityCatalog,
    ) -> ControllerResponse {
        let samples = (parts.clone()).flat_map(|p| p.switches.iter().zip(&p.samples));
        let mut overall = Moments::default();
        let mut per_switch = vec![Moments::default(); catalog.n_switches()];
        samples.clone().for_each(|(s, &x)| {
            overall.add(x);
            per_switch[s.index()].add(x);
        });
        overall.center();
        per_switch.iter_mut().for_each(Moments::center);
        samples.for_each(|(s, &x)| {
            overall.spread(x);
            per_switch[s.index()].spread(x);
        });
        let overall = overall.summary();
        ControllerResponse {
            answered: overall.n,
            unanswered: parts.map(|p| p.unanswered).sum(),
            overall,
            per_switch: (0..)
                .zip(&per_switch)
                .filter(|(_, m)| !m.is_empty())
                .map(|(i, m)| (catalog.switch(SwitchId(i)), m.summary()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowDiffConfig;
    use crate::ids::{InternedLog, RecordIndex};
    use crate::records::{extract_records, FlowRecord};
    use netsim::config::SimConfig;
    use netsim::engine::Simulation;
    use netsim::faults::Fault;
    use netsim::flows::FlowSpec;
    use netsim::topology::Topology;
    use openflow::match_fields::FlowKey;
    use openflow::types::Timestamp;

    fn line() -> Topology {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        t.connect(h1, s1, 50, 1_000_000_000);
        t.connect(s1, s2, 200, 1_000_000_000);
        t.connect(s2, h2, 50, 1_000_000_000);
        t
    }

    fn records_for(n_flows: u64, seed: u64, fault: Option<(Timestamp, Fault)>) -> Vec<FlowRecord> {
        let mut sim = Simulation::new(line(), SimConfig::default(), seed);
        if let Some((at, f)) = fault {
            sim.schedule_fault(at, f);
        }
        for i in 0..n_flows {
            let key = FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                10_000 + i as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            sim.schedule_flow(
                Timestamp::from_millis(1_000 + i * 300),
                FlowSpec::new(key, 3_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(600));
        extract_records(&sim.take_log(), &FlowDiffConfig::default())
    }

    fn sig_of<S: Signature>(records: &[FlowRecord]) -> S {
        let il = InternedLog::of(records);
        let config = FlowDiffConfig::default();
        S::build(&SignatureInputs::new(
            &il.refs(),
            &il.catalog,
            (Timestamp::ZERO, Timestamp::ZERO),
            &config,
        ))
    }

    fn diff_of<S: Signature>(a: &S, b: &S) -> Vec<S::Change> {
        let index = RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
    }

    #[test]
    fn topology_inference_recovers_switch_adjacency() {
        let records = records_for(5, 1, None);
        let pt: PhysicalTopology = sig_of(&records);
        assert_eq!(pt.adjacencies.len(), 1, "one s1->s2 adjacency");
        let adj = pt.adjacencies.iter().next().unwrap();
        assert_ne!(adj.from, adj.to);
        // host attachment discovered for the single source
        assert_eq!(pt.host_attachment.len(), 1);
        assert_eq!(pt.host_attachment[&Ipv4Addr::new(10, 0, 0, 1)].0, adj.from);
    }

    #[test]
    fn pt_diff_empty_for_same_runs() {
        let a: PhysicalTopology = sig_of(&records_for(5, 1, None));
        let b: PhysicalTopology = sig_of(&records_for(5, 2, None));
        assert!(diff_of(&a, &b).is_empty());
    }

    #[test]
    fn isl_mean_tracks_link_latency() {
        let records = records_for(30, 1, None);
        let isl: InterSwitchLatency = sig_of(&records);
        assert_eq!(isl.per_pair.len(), 1);
        let stats = isl.per_pair.values().next().unwrap();
        assert_eq!(stats.n, 30);
        // controller->switch (500±100) + switch proc 25 + link 200 +
        // switch->controller (500±100) ≈ 1325us
        assert!(
            (1_100.0..1_600.0).contains(&stats.mean),
            "mean {}",
            stats.mean
        );
    }

    #[test]
    fn crt_tracks_controller_service_time() {
        let records = records_for(30, 1, None);
        let crt: ControllerResponse = sig_of(&records);
        assert_eq!(crt.overall.n, 60, "two hops per flow");
        assert!(
            (100.0..400.0).contains(&crt.overall.mean),
            "mean {}",
            crt.overall.mean
        );
        assert_eq!(crt.per_switch.len(), 2);
    }

    #[test]
    fn crt_diff_detects_controller_blackout() {
        let base: ControllerResponse = sig_of(&records_for(30, 1, None));
        assert_eq!(base.unanswered, 0);
        let dead: ControllerResponse = sig_of(&records_for(
            30,
            1,
            Some((Timestamp::ZERO, Fault::ControllerDown)),
        ));
        assert!(dead.unanswered_fraction() > 0.9);
        let changes = diff_of(&base, &dead);
        assert_eq!(changes.len(), 1, "blackout");
        assert!(changes[0].unanswered.1 > 0.9);
        let rendered = ControllerResponse::render(changes[0]);
        assert!(rendered
            .description()
            .contains("controller stopped answering"));
        assert_eq!(rendered.components, vec![Component::Controller]);
    }

    #[test]
    fn crt_diff_detects_overload() {
        let base: ControllerResponse = sig_of(&records_for(30, 1, None));
        let overloaded: ControllerResponse = sig_of(&records_for(
            30,
            1,
            Some((Timestamp::ZERO, Fault::ControllerOverload { factor: 30.0 })),
        ));
        let changes = diff_of(&base, &overloaded);
        assert_eq!(changes.len(), 1);
        assert!(changes[0].sigmas > 3.0);
        // identical runs: no change
        assert!(diff_of(&base, &base).is_empty());
    }

    #[test]
    fn isl_diff_quiet_on_identical_conditions() {
        let a: InterSwitchLatency = sig_of(&records_for(30, 1, None));
        let b: InterSwitchLatency = sig_of(&records_for(30, 7, None));
        let changes = diff_of(&a, &b);
        assert!(changes.is_empty(), "{changes:?}");
    }

    #[test]
    fn vanished_switch_reported() {
        // diamond: h1 - s1 - {s2 | s3} - s4 - h2; failing s2 forces the
        // detour via s3, so s2 vanishes and new adjacencies appear.
        let diamond = || {
            let mut t = Topology::new();
            let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
            let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
            let s1 = t.add_of_switch("s1");
            let s2 = t.add_of_switch("s2");
            let s3 = t.add_of_switch("s3");
            let s4 = t.add_of_switch("s4");
            t.connect(h1, s1, 10, 1_000_000_000);
            t.connect(s1, s2, 10, 1_000_000_000);
            t.connect(s1, s3, 10, 1_000_000_000);
            t.connect(s2, s4, 10, 1_000_000_000);
            t.connect(s3, s4, 10, 1_000_000_000);
            t.connect(s4, h2, 10, 1_000_000_000);
            t
        };
        let run = |fail: bool| {
            let t = diamond();
            let s2 = t.node_by_name("s2").unwrap();
            let mut sim = Simulation::new(t, SimConfig::default(), 1);
            if fail {
                sim.schedule_fault(Timestamp::ZERO, Fault::SwitchFailure { switch: s2 });
            }
            for i in 0..5u64 {
                let key = FlowKey::tcp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    10_000 + i as u16,
                    Ipv4Addr::new(10, 0, 0, 2),
                    80,
                );
                sim.schedule_flow(
                    Timestamp::from_millis(1_000 + i * 300),
                    FlowSpec::new(key, 3_000, 5_000),
                );
            }
            sim.run_until(Timestamp::from_secs(60));
            extract_records(&sim.take_log(), &FlowDiffConfig::default())
        };
        let a: PhysicalTopology = sig_of(&run(false));
        let b: PhysicalTopology = sig_of(&run(true));
        let d = diff_of(&a, &b);
        assert!(!d.is_empty());
        let t = diamond();
        let s2_dpid = t.dpid_of(t.node_by_name("s2").unwrap()).unwrap();
        // healthy paths may use either arm; with BFS determinism they use
        // s2, so failing it vanishes s2 and adds the s3 adjacencies.
        let vanished: Vec<DatapathId> = d
            .iter()
            .filter_map(|c| match c {
                PtChange::SwitchVanished(sw) => Some(*sw),
                _ => None,
            })
            .collect();
        assert_eq!(vanished, vec![s2_dpid]);
        assert!(d.iter().any(|c| matches!(c, PtChange::AdjacencyAdded(_))));
    }

    /// Three records in window order whose last two share a
    /// `(first_seen, tuple)` key (hostile input) and differ in every
    /// field PT, ISL and CRT read. Same-key records fold in feed order:
    /// swapping them moves the attachment port and the last bit of each
    /// `std` pinned below.
    fn tie_feed() -> Vec<FlowRecord> {
        use crate::records::{FlowTuple, HopReport};
        use openflow::types::{IpProto, PortNo, Xid};

        let rec = |src: u8, in_port: u16, reply_us: u64, link_us: u64| {
            let hop = |dpid: u64, in_port: u16, at_us: u64, reply_us: u64| HopReport {
                ts: Timestamp::from_micros(at_us),
                dpid: DatapathId(dpid),
                in_port: PortNo(in_port),
                xid: Xid(0),
                flow_mod_ts: Some(Timestamp::from_micros(at_us + reply_us)),
                out_port: Some(PortNo(9)),
            };
            FlowRecord {
                tuple: FlowTuple {
                    src: Ipv4Addr::new(10, 0, 0, src),
                    sport: 10_000,
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dport: 80,
                    proto: IpProto::TCP,
                },
                first_seen: Timestamp::from_micros(1_000),
                hops: vec![
                    hop(1, in_port, 1_000, reply_us),
                    hop(2, 1, 1_000 + reply_us + link_us, reply_us / 2),
                ],
                byte_count: 0,
                packet_count: 0,
                duration_s: 0.0,
            }
        };
        vec![
            rec(1, 7, 310, 1_250),
            rec(3, 3, 285, 1_324),
            rec(3, 4, 349, 1_193),
        ]
    }

    fn bits(s: MeanStd) -> (usize, u64, u64) {
        (s.n, s.mean.to_bits(), s.std.to_bits())
    }

    #[test]
    fn pt_attaches_a_host_at_the_first_of_its_same_key_records() {
        let pt: PhysicalTopology = sig_of(&tie_feed());
        assert_eq!(
            pt.host_attachment[&Ipv4Addr::new(10, 0, 0, 3)],
            (DatapathId(1), PortNo(3))
        );
    }

    #[test]
    fn isl_folds_same_key_records_in_feed_order() {
        let isl: InterSwitchLatency = sig_of(&tie_feed());
        assert_eq!(
            bits(isl.per_pair[&(DatapathId(1), DatapathId(2))]),
            (3, 0x4093_9eaa_aaaa_aaab, 0x4050_6bbf_db22_eb58)
        );
    }

    #[test]
    fn crt_folds_same_key_records_in_feed_order() {
        let crt: ControllerResponse = sig_of(&tie_feed());
        assert_eq!(
            bits(crt.overall),
            (6, 0x406d_7aaa_aaaa_aaab, 0x4056_543b_11bd_a442)
        );
    }

    #[test]
    fn reordered_timestamps_never_poison_latency_baselines() {
        use crate::records::{FlowTuple, HopReport};
        use openflow::types::{IpProto, PortNo, Xid};

        // A two-event inversion, both flavors at once: the downstream
        // PacketIn (hop 2, ts 1500) is stamped *before* hop 1's FlowMod
        // (ts 2000), and hop 2's own FlowMod (ts 1200) is stamped before
        // its PacketIn. Raw u64 subtraction would panic in debug and
        // produce ~1.8e19 µs samples in release; checked_since must
        // simply yield no sample.
        let record = FlowRecord {
            tuple: FlowTuple {
                src: Ipv4Addr::new(10, 0, 0, 1),
                sport: 10_000,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_micros(1_000),
            hops: vec![
                HopReport {
                    ts: Timestamp::from_micros(1_000),
                    dpid: DatapathId(1),
                    in_port: PortNo(1),
                    xid: Xid(7),
                    flow_mod_ts: Some(Timestamp::from_micros(2_000)),
                    out_port: Some(PortNo(2)),
                },
                HopReport {
                    ts: Timestamp::from_micros(1_500),
                    dpid: DatapathId(2),
                    in_port: PortNo(1),
                    xid: Xid(8),
                    flow_mod_ts: Some(Timestamp::from_micros(1_200)),
                    out_port: Some(PortNo(2)),
                },
            ],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        };
        let records = vec![record];

        let isl: InterSwitchLatency = sig_of(&records);
        assert!(
            isl.per_pair.is_empty(),
            "inverted hop pair must contribute no ISL sample, got {:?}",
            isl.per_pair
        );

        let crt: ControllerResponse = sig_of(&records);
        assert_eq!(crt.answered, 1, "only the sane hop 1 pairing counts");
        assert_eq!(crt.unanswered, 0, "an inverted reply is not unanswered");
        assert!((crt.overall.mean - 1_000.0).abs() < 1e-9);
    }
}
