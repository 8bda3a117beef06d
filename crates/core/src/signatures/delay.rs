//! The delay distribution (DD) signature.
//!
//! For each pair of adjacent edges `(A -> B, B -> C)` in an application
//! group, the histogram of delays between a flow arriving at `B` and the
//! subsequent flows leaving `B` (Section III-B, after Orion). The peaks
//! of the distribution expose the node's processing time; peak shifts
//! reveal overload, logging misconfigurations, or congestion.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDirection, Component, Locus, SignatureKind};
use crate::groups::Edge;
use crate::signatures::{DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask};
use crate::stats::{Histogram, MeanStd};

/// An adjacent edge pair `(incoming, outgoing)` sharing a middle node.
pub type EdgePair = (Edge, Edge);

/// The DD signature of one application group.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DelayDistribution {
    /// All-pairs delay histogram per adjacent edge pair (peak location).
    pub per_pair: BTreeMap<EdgePair, Histogram>,
    /// Nearest-pair delay summary per adjacent edge pair: each incoming
    /// flow paired with the *next* outgoing flow. Informational only —
    /// when request gaps are shorter than the processing delay this
    /// statistic aliases to the previous request's response, so the diff
    /// relies on histogram peaks instead.
    pub nearest: BTreeMap<EdgePair, MeanStd>,
}

impl DelayDistribution {
    /// Peak delay range (µs) per edge pair with enough samples.
    pub fn peaks(&self, min_samples: usize) -> BTreeMap<EdgePair, (u64, u64)> {
        self.per_pair
            .iter()
            .filter(|(_, h)| h.total() as usize >= min_samples)
            .filter_map(|(p, h)| h.peak_range().map(|r| (*p, r)))
            .collect()
    }
}

/// A shifted delay distribution at one edge pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdChange {
    /// The edge pair (the shared node is the suspect component).
    pub pair: EdgePair,
    /// Reference peak range, µs.
    pub reference_peak: (u64, u64),
    /// Current peak range, µs.
    pub current_peak: (u64, u64),
    /// Peak shift magnitude in bins.
    pub shift_bins: u32,
    /// Shift of the nearest-pair mean delay, µs (signed).
    pub mean_shift_us: f64,
}

impl Signature for DelayDistribution {
    type Change = DdChange;
    const KIND: SignatureKind = SignatureKind::Dd;

    /// For each adjacent edge pair, every incoming flow is paired with
    /// every outgoing flow that starts within `config.dd_window_us` after
    /// it; the true processing delay emerges as the histogram mode
    /// (dependent flows recur at a fixed lag, unrelated pairs spread
    /// uniformly).
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let (dd_bin_us, dd_window_us) = (inputs.config.dd_bin_us, inputs.config.dd_window_us);
        // Arrivals per edge slot: the feed is in window order, so each
        // edge's list comes out sorted by time, and the slots are in
        // address order, so the pairing loop below is independent of
        // interning order.
        let slots = inputs.edge_slots();
        let times = slots.gather(inputs.records, |r| r.first_seen.as_micros());
        let arrivals: Vec<(Edge, &[u64])> = (slots.ranges())
            .map(|(edge, at)| (edge, &times[at]))
            .collect();

        let mut per_pair = BTreeMap::new();
        let mut nearest = BTreeMap::new();
        for &(in_edge, ins) in &arrivals {
            for &(out_edge, outs) in &arrivals {
                if in_edge.dst != out_edge.src || in_edge == out_edge {
                    continue;
                }
                // Skip trivial reverse pairs (B -> A after A -> B would
                // measure RTTs, not processing time, when symmetric).
                if in_edge.src == out_edge.dst && in_edge.dst == out_edge.src {
                    continue;
                }
                let mut hist = Histogram::new(dd_bin_us);
                let mut nearest_samples = Vec::new();
                let mut start_idx = 0usize;
                for &t_in in ins {
                    // advance to the first outgoing flow at or after t_in
                    while start_idx < outs.len() && outs[start_idx] < t_in {
                        start_idx += 1;
                    }
                    let mut first = true;
                    for &t_out in &outs[start_idx..] {
                        // The scan above guarantees t_out >= t_in for
                        // sorted input; checked_sub keeps a disordered
                        // series from wrapping into a huge fake delay.
                        let Some(d) = t_out.checked_sub(t_in) else {
                            continue;
                        };
                        if d >= dd_window_us {
                            break;
                        }
                        hist.add(d);
                        if first {
                            nearest_samples.push(d as f64);
                            first = false;
                        }
                    }
                }
                if hist.total() > 0 {
                    per_pair.insert((in_edge, out_edge), hist);
                    nearest.insert((in_edge, out_edge), MeanStd::of(&nearest_samples));
                }
            }
        }
        DelayDistribution { per_pair, nearest }
    }

    /// Delay-distribution comparison (Section IV-A): reports pairs whose
    /// histogram peak moved by at least `config.dd_peak_shift_bins` bins.
    /// The nearest-pair mean shift is reported alongside for context.
    fn diff(&self, current: &Self, ctx: &DiffCtx<'_>) -> Vec<DdChange> {
        let config = ctx.config;
        let ref_peaks = self.peaks(config.min_samples);
        let cur_peaks = current.peaks(config.min_samples);
        let mut out = Vec::new();
        for (pair, ref_peak) in &ref_peaks {
            let Some(cur_peak) = cur_peaks.get(pair) else {
                continue;
            };
            let ref_bin = ref_peak.0 / config.dd_bin_us;
            let cur_bin = cur_peak.0 / config.dd_bin_us;
            let shift = ref_bin.abs_diff(cur_bin) as u32;

            let mean_shift_us = match (self.nearest.get(pair), current.nearest.get(pair)) {
                (Some(r), Some(c)) if r.n >= config.min_samples && c.n >= config.min_samples => {
                    c.mean - r.mean
                }
                _ => 0.0,
            };
            if shift >= config.dd_peak_shift_bins {
                out.push(DdChange {
                    pair: *pair,
                    reference_peak: *ref_peak,
                    current_peak: *cur_peak,
                    shift_bins: shift,
                    mean_shift_us,
                });
            }
        }
        out.sort_by(|a, b| {
            (b.shift_bins, b.mean_shift_us.abs())
                .partial_cmp(&(a.shift_bins, a.mean_shift_us.abs()))
                .expect("finite")
        });
        out
    }

    /// DD is gated per adjacent edge pair.
    fn locus(change: &DdChange) -> Locus {
        Locus::Pair(change.pair)
    }

    fn render(change: &DdChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            description: format!(
                "delay peak moved {}ms -> {}ms at {}",
                change.reference_peak.0 / 1_000,
                change.current_peak.0 / 1_000,
                change.pair.0.dst
            ),
            components: vec![Component::Host(change.pair.0.dst)],
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

    /// DD stability per pair: each interval's peak bin must land within
    /// one bin of the full-log peak for a quorum fraction of the
    /// intervals that observed the pair at all. A pair without a
    /// full-log peak (too few samples) has no diffing license.
    fn stability(&self, intervals: &[&Self], ctx: &StabilityCtx<'_>) -> StabilityMask {
        let config = ctx.config;
        let full_peaks = self.peaks(config.min_samples);
        let loci = self
            .per_pair
            .keys()
            .map(|pair| {
                let Some(full_peak) = full_peaks.get(pair) else {
                    return (Locus::Pair(*pair), false);
                };
                let mut votes = 0;
                let mut observed = 0;
                for g in intervals {
                    let peaks = g.peaks(1);
                    if let Some(p) = peaks.get(pair) {
                        observed += 1;
                        if p.0.abs_diff(full_peak.0) <= config.dd_bin_us {
                            votes += 1;
                        }
                    }
                }
                let stable =
                    observed > 0 && votes as f64 / observed as f64 >= config.stability_quorum;
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

    /// A request chain 1 -> 2 -> 3 with a fixed 60 ms processing delay
    /// at node 2, plus the given jitter per request.
    fn chain(n: usize, delay_us: u64, gap_us: u64) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = 1_000_000 + i as u64 * gap_us;
            out.push(record(1, 2, t, 1000 + i as u16));
            out.push(record(
                2,
                3,
                t + delay_us + (i as u64 % 5) * 1_000,
                2000 + i as u16,
            ));
        }
        out
    }

    fn dd_of(records: &[FlowRecord]) -> DelayDistribution {
        let il = window_of(records);
        let config = FlowDiffConfig::default();
        DelayDistribution::build(&SignatureInputs::new(
            &il.refs(),
            &il.catalog,
            (Timestamp::ZERO, Timestamp::ZERO),
            &config,
        ))
    }

    fn diff_dd(a: &DelayDistribution, b: &DelayDistribution) -> Vec<DdChange> {
        let config = FlowDiffConfig::default();
        let index = RecordIndex::default();
        a.diff(
            b,
            &DiffCtx {
                config: &config,
                records: &index,
            },
        )
    }

    #[test]
    fn peak_recovers_processing_delay() {
        let dd = dd_of(&chain(100, 60_000, 50_000));
        let peaks = dd.peaks(5);
        assert_eq!(peaks.len(), 1);
        let (_, (lo, hi)) = peaks.iter().next().unwrap();
        assert!(
            *lo <= 60_000 && 60_000 < *hi,
            "peak [{lo},{hi}) should contain the 60ms ground truth"
        );
    }

    #[test]
    fn peak_shift_detected_when_node_slows() {
        let base = dd_of(&chain(100, 60_000, 50_000));
        let slowed = dd_of(&chain(100, 160_000, 50_000));
        let changes = diff_dd(&base, &slowed);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].shift_bins, 5, "100ms shift = 5 bins of 20ms");
        assert_eq!(changes[0].pair.0.dst, ip(2));
    }

    #[test]
    fn stable_delay_not_flagged() {
        let a = dd_of(&chain(100, 60_000, 50_000));
        let b = dd_of(&chain(80, 61_000, 70_000));
        let d = diff_dd(&a, &b);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reverse_edge_pairs_excluded() {
        // only 1 -> 2 and 2 -> 1 traffic: no non-reverse adjacent pair
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(record(1, 2, 1_000_000 + i * 10_000, 1000 + i as u16));
            records.push(record(2, 1, 1_005_000 + i * 10_000, 2000 + i as u16));
        }
        let dd = dd_of(&records);
        assert!(dd.per_pair.is_empty());
    }

    #[test]
    fn sparse_pairs_need_min_samples() {
        let dd = dd_of(&chain(2, 60_000, 50_000));
        assert!(dd.peaks(5).is_empty(), "2 samples < min 5");
        assert!(!dd.peaks(1).is_empty());
    }

    #[test]
    fn unrelated_edges_not_paired() {
        // 1 -> 2 and 3 -> 4 share no node.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(record(1, 2, 1_000_000 + i * 10_000, 1000 + i as u16));
            records.push(record(3, 4, 1_002_000 + i * 10_000, 2000 + i as u16));
        }
        let dd = dd_of(&records);
        assert!(dd.per_pair.is_empty());
    }

    #[test]
    fn window_bounds_pairing() {
        // Outgoing flows 2 s after incoming: outside the 1 s window.
        let mut records = Vec::new();
        for i in 0..10 {
            let t = 1_000_000 + i * 5_000_000;
            records.push(record(1, 2, t, 1000 + i as u16));
            records.push(record(2, 3, t + 2_000_000, 2000 + i as u16));
        }
        let dd = dd_of(&records);
        assert!(dd.per_pair.is_empty());
    }

    #[test]
    fn render_names_the_middle_node() {
        let base = dd_of(&chain(100, 60_000, 50_000));
        let slowed = dd_of(&chain(100, 160_000, 50_000));
        let changes = diff_dd(&base, &slowed);
        let c = DelayDistribution::render(&changes[0]);
        assert_eq!(c.kind, SignatureKind::Dd);
        assert_eq!(c.direction, ChangeDirection::Shifted);
        assert_eq!(c.components, vec![Component::Host(ip(2))]);
        assert!(c.description.contains("delay peak moved 60ms -> 160ms"));
    }

    #[test]
    fn per_pair_mask_gates_the_shifted_pair() {
        let base = dd_of(&chain(100, 60_000, 50_000));
        let slowed = dd_of(&chain(100, 160_000, 50_000));
        let config = FlowDiffConfig::default();
        let index = RecordIndex::default();
        let ctx = DiffCtx {
            config: &config,
            records: &index,
        };
        let stable = base.stable_mask();
        assert_eq!(base.tagged_diff(&slowed, &ctx, &stable).len(), 1);
        let pair = *base.per_pair.keys().next().unwrap();
        let mut gated = base.stable_mask();
        gated.loci.insert(Locus::Pair(pair), false);
        assert!(base.tagged_diff(&slowed, &ctx, &gated).is_empty());
    }
}
