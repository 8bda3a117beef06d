//! The partial correlation (PC) signature.
//!
//! Quantifies the strength of dependencies that DD only locates: the log
//! window is divided into equal epochs, flow counts per edge form a time
//! series, and adjacent edges' series are correlated with Pearson's
//! coefficient (Section III-B).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::{PC_DELTA, PC_EPOCH_US};
use crate::groups::Edge;
use crate::signatures::delay::EdgePair;
use crate::signatures::{
    merge_join, DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask,
};
use crate::stats::pearson;

/// The PC signature of one application group.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PartialCorrelation {
    /// Pearson coefficient per adjacent edge pair.
    pub per_pair: BTreeMap<EdgePair, f64>,
}

/// A weakened or strengthened dependency between adjacent edges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcChange {
    /// The edge pair.
    pub pair: EdgePair,
    /// Reference coefficient.
    pub reference: f64,
    /// Current coefficient.
    pub current: f64,
}

impl PcChange {
    /// Magnitude of the change.
    pub fn delta(&self) -> f64 {
        (self.current - self.reference).abs()
    }
}

impl fmt::Display for PcChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "correlation {:.2} -> {:.2} at {}",
            self.reference, self.current, self.pair.0.dst
        )
    }
}

impl Signature for PartialCorrelation {
    type Change = PcChange;
    const KIND: SignatureKind = SignatureKind::Pc;

    /// Buckets each record into its edge slot's epoch count series (the
    /// window and epoch grid are fixed by the inputs), then correlates
    /// the series of adjacent edges. An edge with no record inside the
    /// window has no series and pairs with nothing.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let start = inputs.span.0.as_micros();
        let end = inputs.span.1.as_micros().max(start + 1);
        let epochs = ((end - start).div_ceil(PC_EPOCH_US)).max(1) as usize;
        let slots = inputs.edge_slots();
        let times = slots.gather(inputs.records, |r| r.first_seen.as_micros());
        let series: Vec<(Edge, Option<Vec<f64>>)> = (slots.ranges())
            .map(|(edge, at)| {
                let mut counts = None;
                for &t in &times[at] {
                    if t < start || t >= end {
                        continue;
                    }
                    let idx = ((t - start) / PC_EPOCH_US) as usize;
                    let s: &mut Vec<f64> = counts.get_or_insert_with(|| vec![0.0; epochs]);
                    s[idx.min(epochs - 1)] += 1.0;
                }
                (edge, counts)
            })
            .collect();
        // Slots are in address order, so the pairing loop visits edges
        // independently of interning order.
        let mut per_pair = BTreeMap::new();
        for (in_edge, in_series) in &series {
            let Some(in_series) = in_series else {
                continue;
            };
            for (out_edge, out_series) in &series {
                if in_edge.dst != out_edge.src || in_edge == out_edge {
                    continue;
                }
                if in_edge.src == out_edge.dst && in_edge.dst == out_edge.src {
                    continue;
                }
                let Some(out_series) = out_series else {
                    continue;
                };
                if let Some(r) = pearson(in_series, out_series) {
                    per_pair.insert((*in_edge, *out_edge), r);
                }
            }
        }
        PartialCorrelation { per_pair }
    }

    /// Scalar comparison (Section IV-A): pairs whose coefficient moved by
    /// more than [`PC_DELTA`].
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<PcChange> {
        let mut out = Vec::new();
        for (pair, reference, window) in merge_join(&self.per_pair, &current.per_pair) {
            let Some(&r_ref) = reference else {
                continue;
            };
            // A pair that lost its correlation signal entirely (constant
            // or absent downstream series) counts as r = 0: the
            // dependency is no longer observable.
            let r_cur = window.copied().unwrap_or(0.0);
            let change = PcChange {
                pair: *pair,
                reference: r_ref,
                current: r_cur,
            };
            if change.delta() > PC_DELTA {
                out.push(change);
            }
        }
        out.sort_by(|a, b| b.delta().total_cmp(&a.delta()));
        out
    }

    /// PC is gated per adjacent edge pair.
    fn locus(change: &PcChange) -> Locus {
        Locus::Pair(change.pair)
    }

    fn render(change: PcChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            components: vec![Component::Host(change.pair.0.dst)],
            detail: ChangeDetail::Pc(change),
            ts: None,
        }
    }

    fn stable_mask(&self) -> StabilityMask {
        StabilityMask::per_locus(
            Self::KIND,
            self.per_pair
                .keys()
                .map(|p| (Locus::Pair(*p), true))
                .collect(),
        )
    }

    /// PC stability per pair: the interval coefficients must be tight
    /// (standard deviation below 0.25) across a quorum of intervals.
    fn stability(&self, intervals: &[&Self], ctx: &StabilityCtx) -> StabilityMask {
        let loci = self
            .per_pair
            .keys()
            .map(|pair| {
                let rs: Vec<f64> = intervals
                    .iter()
                    .filter_map(|g| g.per_pair.get(pair).copied())
                    .collect();
                let stable = rs.len() >= ctx.quorum.min(2) && {
                    let s = crate::stats::MeanStd::of(&rs);
                    s.std < 0.25
                };
                (Locus::Pair(*pair), stable)
            })
            .collect();
        StabilityMask::per_locus(Self::KIND, loci)
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
    use std::net::Ipv4Addr;

    fn ip(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn record(s: u8, d: u8, at_us: u64, sport: u16) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src: ip(s),
                sport,
                dst: ip(d),
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

    fn span() -> (Timestamp, Timestamp) {
        (Timestamp::ZERO, Timestamp::from_secs(20))
    }

    /// Bursty chain: epochs alternate busy/quiet, and node 2 forwards
    /// `forward_per_burst` of each burst's requests downstream.
    fn bursty_chain(bursts: usize, per_burst: usize, forward_per_burst: usize) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        let mut sport = 1000u16;
        for b in 0..bursts {
            // busy epoch every other second, varying burst size
            let t0 = b as u64 * 2_000_000;
            let size = per_burst + (b % 3) * per_burst;
            for i in 0..size {
                out.push(record(1, 2, t0 + i as u64 * 500, sport));
                sport += 1;
            }
            let fwd = forward_per_burst + (b % 3) * forward_per_burst;
            for i in 0..fwd {
                out.push(record(2, 3, t0 + 60_000 + i as u64 * 500, sport));
                sport += 1;
            }
        }
        out
    }

    fn build_pc(records: &[FlowRecord], sp: (Timestamp, Timestamp)) -> PartialCorrelation {
        let il = window_of(records);
        let config = FlowDiffConfig::default();
        PartialCorrelation::build(&SignatureInputs::new(&il.refs(), &il.catalog, sp, &config))
    }

    fn pc_of(records: &[FlowRecord]) -> PartialCorrelation {
        build_pc(records, span())
    }

    fn diff_pc(a: &PartialCorrelation, b: &PartialCorrelation) -> Vec<PcChange> {
        let index = RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
    }

    #[test]
    fn dependent_edges_correlate_strongly() {
        let pc = pc_of(&bursty_chain(10, 10, 10));
        assert_eq!(pc.per_pair.len(), 1);
        let r = *pc.per_pair.values().next().unwrap();
        assert!(r > 0.9, "fully dependent edges: r = {r}");
    }

    #[test]
    fn partial_forwarding_still_correlates() {
        // 50% connection reuse: half the downstream flows disappear but
        // the visible ones still track the upstream bursts.
        let pc = pc_of(&bursty_chain(10, 10, 5));
        let r = *pc.per_pair.values().next().unwrap();
        assert!(r > 0.8, "reuse should not destroy correlation: r = {r}");
    }

    #[test]
    fn broken_dependency_detected() {
        let healthy = pc_of(&bursty_chain(10, 10, 10));
        // downstream stops tracking upstream: constant trickle instead
        let mut broken_records = Vec::new();
        let mut sport = 1000u16;
        for b in 0..10u64 {
            let t0 = b * 2_000_000;
            let size = 10 + (b as usize % 3) * 10;
            for i in 0..size {
                broken_records.push(record(1, 2, t0 + i as u64 * 500, sport));
                sport += 1;
            }
        }
        // uncorrelated out-edge: one flow per epoch regardless of load
        for e in 0..20u64 {
            broken_records.push(record(2, 3, e * 1_000_000 + 123, sport + e as u16));
        }
        let broken = pc_of(&broken_records);
        let changes = diff_pc(&healthy, &broken);
        assert_eq!(changes.len(), 1);
        assert!(changes[0].delta() > 0.35);
    }

    #[test]
    fn stable_correlation_not_flagged() {
        let a = pc_of(&bursty_chain(10, 10, 10));
        let b = pc_of(&bursty_chain(10, 14, 14));
        assert!(diff_pc(&a, &b).is_empty());
    }

    #[test]
    fn empty_records_build_empty_signature() {
        let pc = build_pc(&[], span());
        assert!(pc.per_pair.is_empty());
    }

    #[test]
    fn constant_series_yields_no_coefficient() {
        // one flow per epoch on both edges: zero variance, no r
        let mut records = Vec::new();
        for e in 0..10u64 {
            records.push(record(1, 2, e * 1_000_000, 1000 + e as u16));
            records.push(record(2, 3, e * 1_000_000 + 60_000, 2000 + e as u16));
        }
        // span exactly covers the ten active epochs
        let pc = build_pc(&records, (Timestamp::ZERO, Timestamp::from_secs(10)));
        assert!(pc.per_pair.is_empty());
    }

    #[test]
    fn render_names_the_shared_node() {
        let healthy = pc_of(&bursty_chain(10, 10, 10));
        let change = PcChange {
            pair: *healthy.per_pair.keys().next().unwrap(),
            reference: 0.95,
            current: 0.10,
        };
        let c = PartialCorrelation::render(change);
        assert_eq!(c.kind, SignatureKind::Pc);
        assert_eq!(c.direction, ChangeDirection::Shifted);
        assert_eq!(c.components, vec![Component::Host(ip(2))]);
        assert!(c.description().contains("correlation 0.95 -> 0.10"));
    }
}
