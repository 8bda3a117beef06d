//! The delay distribution (DD) signature.
//!
//! For each pair of adjacent edges `(A -> B, B -> C)` in an application
//! group, the histogram of delays between a flow arriving at `B` and the
//! subsequent flows leaving `B` (Section III-B, after Orion). The peaks
//! of the distribution expose the node's processing time; peak shifts
//! reveal overload, logging misconfigurations, or congestion.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::{DD_BIN_US, DD_PEAK_SHIFT_BINS, DD_WINDOW_US, MIN_SAMPLES, STABILITY_QUORUM};
use crate::groups::Edge;
use crate::ids::{EdgeId, EntityCatalog, HostId, IRecord};
use crate::signatures::{
    merge_join, DiffCtx, KeyIndex, Signature, SignatureInputs, StabilityCtx, StabilityMask,
};
use crate::stats::{Histogram, MeanStd, Moments};

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
            .filter_map(|(p, h)| peak(h, min_samples).map(|r| (*p, r)))
            .collect()
    }
}

/// The peak delay range (µs) of one pair's histogram, if it holds at
/// least `min_samples` delays.
fn peak(hist: &Histogram, min_samples: usize) -> Option<(u64, u64)> {
    (hist.total() as usize >= min_samples)
        .then(|| hist.peak_range())
        .flatten()
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

impl fmt::Display for DdChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay peak moved {}ms -> {}ms at {}",
            self.reference_peak.0 / 1_000,
            self.current_peak.0 / 1_000,
            self.pair.0.dst
        )
    }
}

/// One pane's share of DD: each in-flow first seen in the pane paired
/// with the flows that leave its destination within [`DD_WINDOW_US`] —
/// wherever in the window those are first seen — as nonzero bin counts
/// and nearest-delay samples, filed per edge pair under the pair's
/// index in the [`DdFold`].
#[derive(Debug, Clone, Default)]
pub(crate) struct DdPartial {
    /// `(pair, end of its bins, end of its nearest samples)`: a pair's
    /// entries start where the previous pair's end.
    pairs: Vec<(usize, usize, usize)>,
    /// `(bin, count)` of each nonzero bin, ascending within a pair.
    bins: Vec<(usize, u64)>,
    /// Nearest-delay samples, in-flows in feed order within a pair.
    nearest: Vec<f64>,
}

impl DdPartial {
    /// Each pair's index, bin counts and nearest-delay samples.
    fn entries(&self) -> impl Iterator<Item = (usize, &[(usize, u64)], &[f64])> + '_ {
        let mut from = (0, 0);
        self.pairs.iter().map(move |&(pair, bins, nearest)| {
            let entry = (
                pair,
                &self.bins[from.0..bins],
                &self.nearest[from.1..nearest],
            );
            from = (bins, nearest);
            entry
        })
    }
}

/// DD's fold over pane partials in window order: the index of the edge
/// pairs the partials file under, and each pair's running bin totals.
/// The counts are integers, so adding a pane's when it is built and
/// subtracting them when it is dropped or rebuilt is exact.
#[derive(Debug, Clone, Default)]
pub(crate) struct DdFold {
    pairs: KeyIndex,
    /// Per pair: the bin counts of the partials added and not removed,
    /// with no trailing zero, as [`Histogram::add`] leaves them (empty:
    /// no delay in the window).
    totals: Vec<Vec<u64>>,
}

/// An `(incoming, outgoing)` pair of interned edges as one key.
fn pack_pair(incoming: EdgeId, outgoing: EdgeId) -> u64 {
    (u64::from(incoming.0) << 32) | u64::from(outgoing.0)
}

/// Inverse of [`pack_pair`].
fn unpack_pair(key: u64) -> (EdgeId, EdgeId) {
    (EdgeId((key >> 32) as u32), EdgeId(key as u32))
}

impl DdFold {
    /// DD of `n_groups` groups over the whole of `feed` as one partial:
    /// the pairs `side` admits (see [`partial`](Self::partial)), each in
    /// the group `group_of` names.
    pub(crate) fn whole(
        feed: &[&IRecord],
        catalog: &EntityCatalog,
        side: impl Fn(HostId, EdgeId) -> Option<u32>,
        n_groups: usize,
        group_of: impl Fn(EdgeId, EdgeId) -> Option<usize>,
    ) -> Vec<DelayDistribution> {
        let mut fold = DdFold::default();
        let part = fold.partial(feed, feed.len(), catalog, side);
        fold.add(&part);
        let once = std::iter::once(&part);
        fold.finish(once, catalog, n_groups, group_of)
    }

    /// The partial of the in-flows `feed[..ins]`: for each adjacent edge
    /// pair `(A -> B, B -> C)` whose two edges are on one side of `B`,
    /// every in-flow on `A -> B` paired with every flow of `feed` on
    /// `B -> C` that starts within [`DD_WINDOW_US`] after it; the
    /// true processing delay emerges as the histogram mode (dependent
    /// flows recur at a fixed lag, unrelated pairs spread uniformly).
    /// `feed` is in window order and holds every window record first
    /// seen from `feed[0]`'s time until [`DD_WINDOW_US`] after the last
    /// in-flow's. `side(B, edge)` is the side of `B` an edge through it
    /// is on — its group, where `B` serves several — and `None` keeps
    /// the edge out of every pair through `B`, so the pairing loop never
    /// visits a pair that would count nowhere.
    pub(crate) fn partial(
        &mut self,
        feed: &[&IRecord],
        ins: usize,
        catalog: &EntityCatalog,
        side: impl Fn(HostId, EdgeId) -> Option<u32>,
    ) -> DdPartial {
        // Arrival times per edge by one counting pass, each edge's in
        // feed order and so sorted: the `l`-th edge seen owns
        // `times[starts[l]..starts[l + 1]]`, the first `in_counts[l]` of
        // them in-flows.
        let mut local = vec![u32::MAX; catalog.n_edges()];
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut in_counts: Vec<usize> = Vec::new();
        for (i, r) in feed.iter().enumerate() {
            let l = &mut local[r.edge.index()];
            if *l == u32::MAX {
                *l = edges.len() as u32;
                edges.push(r.edge);
                starts.push(0);
                in_counts.push(0);
            }
            starts[*l as usize] += 1;
            in_counts[*l as usize] += usize::from(i < ins);
        }
        let mut at = 0;
        for start in &mut starts {
            let n = *start;
            *start = at;
            at += n;
        }
        starts.push(at);
        let mut next = starts.clone();
        let mut times = vec![0u64; feed.len()];
        for r in feed {
            let l = local[r.edge.index()] as usize;
            times[next[l]] = r.first_seen.as_micros();
            next[l] += 1;
        }
        // The feed's edges by source host and side: those leaving a node
        // on one side of it are one run.
        let mut leaving: Vec<(HostId, u32, usize)> = (edges.iter().enumerate())
            .filter_map(|(l, &edge)| {
                let src = catalog.edge_hosts(edge).0;
                Some((src, side(src, edge)?, l))
            })
            .collect();
        leaving.sort_unstable();

        let mut part = DdPartial::default();
        let mut hist: Vec<u64> = Vec::new();
        for (l_in, &in_edge) in edges.iter().enumerate() {
            let in_times = &times[starts[l_in]..starts[l_in] + in_counts[l_in]];
            if in_times.is_empty() {
                continue;
            }
            let (a, b) = catalog.edge_hosts(in_edge);
            let Some(k) = side(b, in_edge) else {
                continue;
            };
            let run = leaving.partition_point(|&(src, s, _)| (src, s) < (b, k));
            let run = leaving[run..]
                .iter()
                .take_while(|&&(src, s, _)| (src, s) == (b, k));
            for &(_, _, l_out) in run {
                let out_edge = edges[l_out];
                // Skip the reverse pair (B -> A after A -> B would measure
                // RTTs, not processing time, when symmetric); a self-loop
                // is its own reverse.
                if catalog.edge_hosts(out_edge).1 == a {
                    continue;
                }
                let out_times = &times[starts[l_out]..starts[l_out + 1]];
                let nearest_from = part.nearest.len();
                let mut start_idx = 0usize;
                for &t_in in in_times {
                    // advance to the first outgoing flow at or after t_in
                    while start_idx < out_times.len() && out_times[start_idx] < t_in {
                        start_idx += 1;
                    }
                    let mut first = true;
                    for &t_out in &out_times[start_idx..] {
                        // The scan above guarantees t_out >= t_in for
                        // sorted input; checked_sub keeps a disordered
                        // series from wrapping into a huge fake delay.
                        let Some(d) = t_out.checked_sub(t_in) else {
                            continue;
                        };
                        if d >= DD_WINDOW_US {
                            break;
                        }
                        let bin = (d / DD_BIN_US) as usize;
                        if bin >= hist.len() {
                            hist.resize(bin + 1, 0);
                        }
                        hist[bin] += 1;
                        if first {
                            part.nearest.push(d as f64);
                            first = false;
                        }
                    }
                }
                if part.nearest.len() > nearest_from {
                    let counts = hist.iter().enumerate().filter(|&(_, &c)| c > 0);
                    part.bins.extend(counts.map(|(bin, &c)| (bin, c)));
                    hist.clear();
                    let pair = self.pairs.of(pack_pair(in_edge, out_edge));
                    part.pairs.push((pair, part.bins.len(), part.nearest.len()));
                }
            }
        }
        part
    }

    /// How many edge pairs have an index.
    pub(crate) fn keys(&self) -> usize {
        self.pairs.len()
    }

    /// Adds the bin counts of `part` to the running totals.
    pub(crate) fn add(&mut self, part: &DdPartial) {
        self.totals.resize(self.pairs.len(), Vec::new());
        for (pair, bins, _) in part.entries() {
            let totals = &mut self.totals[pair];
            for &(bin, count) in bins {
                if bin >= totals.len() {
                    totals.resize(bin + 1, 0);
                }
                totals[bin] += count;
            }
        }
    }

    /// Subtracts the bin counts of `part`, a partial added before.
    pub(crate) fn remove(&mut self, part: &DdPartial) {
        for (pair, bins, _) in part.entries() {
            let totals = &mut self.totals[pair];
            for &(bin, count) in bins {
                totals[bin] -= count;
            }
            while totals.last() == Some(&0) {
                totals.pop();
            }
        }
    }

    /// The DD signatures of `n_groups` groups, folded from `parts` — the
    /// partials added and not removed, in window order. `group_of` names
    /// the group an edge pair counts in, if any.
    pub(crate) fn finish<'a>(
        &self,
        parts: impl Iterator<Item = &'a DdPartial> + Clone,
        catalog: &EntityCatalog,
        n_groups: usize,
        group_of: impl Fn(EdgeId, EdgeId) -> Option<usize>,
    ) -> Vec<DelayDistribution> {
        let mut nearest = vec![Moments::default(); self.pairs.len()];
        for (pair, _, samples) in parts.clone().flat_map(DdPartial::entries) {
            samples.iter().for_each(|&x| nearest[pair].add(x));
        }
        nearest.iter_mut().for_each(Moments::center);
        for (pair, _, samples) in parts.flat_map(DdPartial::entries) {
            samples.iter().for_each(|&x| nearest[pair].spread(x));
        }
        let mut out = vec![DelayDistribution::default(); n_groups];
        for (pair, counts) in self.totals.iter().enumerate() {
            if counts.is_empty() {
                continue;
            }
            let (incoming, outgoing) = unpack_pair(self.pairs.key(pair));
            let Some(g) = group_of(incoming, outgoing) else {
                continue;
            };
            let key = (catalog.edge_addr(incoming), catalog.edge_addr(outgoing));
            let hist = Histogram::from_counts(DD_BIN_US, counts.clone());
            out[g].per_pair.insert(key, hist);
            out[g].nearest.insert(key, nearest[pair].summary());
        }
        out
    }
}

impl Signature for DelayDistribution {
    type Change = DdChange;
    const KIND: SignatureKind = SignatureKind::Dd;

    /// The fold of one partial over the whole feed. The feed is one
    /// group's records (or no group's), so every pair of its edges
    /// counts.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let (feed, catalog) = (inputs.records, inputs.catalog);
        let mut dd = DdFold::whole(feed, catalog, |_, _| Some(0), 1, |_, _| Some(0));
        dd.pop().expect("one group asked for")
    }

    /// Delay-distribution comparison (Section IV-A): reports pairs whose
    /// histogram peak moved by at least [`DD_PEAK_SHIFT_BINS`] bins.
    /// The nearest-pair mean shift is reported alongside for context.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<DdChange> {
        let mut out = Vec::new();
        for (pair, reference, window) in merge_join(&self.per_pair, &current.per_pair) {
            let (Some(reference), Some(window)) = (reference, window) else {
                continue;
            };
            let Some(ref_peak) = peak(reference, MIN_SAMPLES) else {
                continue;
            };
            let Some(cur_peak) = peak(window, MIN_SAMPLES) else {
                continue;
            };
            let ref_bin = ref_peak.0 / DD_BIN_US;
            let cur_bin = cur_peak.0 / DD_BIN_US;
            let shift = ref_bin.abs_diff(cur_bin) as u32;
            if shift < DD_PEAK_SHIFT_BINS {
                continue;
            }
            let mean_shift_us = match (self.nearest.get(pair), current.nearest.get(pair)) {
                (Some(r), Some(c)) if r.n >= MIN_SAMPLES && c.n >= MIN_SAMPLES => c.mean - r.mean,
                _ => 0.0,
            };
            out.push(DdChange {
                pair: *pair,
                reference_peak: ref_peak,
                current_peak: cur_peak,
                shift_bins: shift,
                mean_shift_us,
            });
        }
        // `total_cmp`, not `partial_cmp`: a damaged baseline's NaN mean
        // must degrade the order, not abort the diff. `abs` leaves no
        // -0.0, so finite keys order as they always have.
        out.sort_by(|a, b| {
            (b.shift_bins.cmp(&a.shift_bins))
                .then(b.mean_shift_us.abs().total_cmp(&a.mean_shift_us.abs()))
        });
        out
    }

    /// DD is gated per adjacent edge pair.
    fn locus(change: &DdChange) -> Locus {
        Locus::Pair(change.pair)
    }

    fn render(change: DdChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            components: vec![Component::Host(change.pair.0.dst)],
            detail: ChangeDetail::Dd(change),
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
    fn stability(&self, intervals: &[&Self], _ctx: &StabilityCtx) -> StabilityMask {
        let full_peaks = self.peaks(MIN_SAMPLES);
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
                        if p.0.abs_diff(full_peak.0) <= DD_BIN_US {
                            votes += 1;
                        }
                    }
                }
                let stable = observed > 0 && votes as f64 / observed as f64 >= STABILITY_QUORUM;
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
        let index = RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
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
        let c = DelayDistribution::render(changes[0]);
        assert_eq!(c.kind, SignatureKind::Dd);
        assert_eq!(c.direction, ChangeDirection::Shifted);
        assert_eq!(c.components, vec![Component::Host(ip(2))]);
        assert!(c.description().contains("delay peak moved 60ms -> 160ms"));
    }

    /// A baseline whose nearest-delay mean is NaN (a damaged `.fbas`)
    /// still diffs: the shifted pairs come out, NaN's shift first.
    #[test]
    fn nan_nearest_mean_does_not_abort_the_diff() {
        let edge = |a, b| Edge {
            src: ip(a),
            dst: ip(b),
        };
        let damaged = (edge(4, 5), edge(5, 6));
        let dd = |delay_us: u64| {
            let mut out = DelayDistribution::default();
            for pair in [(edge(1, 2), edge(2, 3)), damaged] {
                let mut hist = Histogram::new(20_000);
                (0..10).for_each(|_| hist.add(delay_us));
                out.per_pair.insert(pair, hist);
                let nearest = MeanStd {
                    mean: delay_us as f64,
                    std: 0.0,
                    n: 10,
                };
                out.nearest.insert(pair, nearest);
            }
            out
        };
        let mut base = dd(60_000);
        base.nearest.get_mut(&damaged).unwrap().mean = f64::NAN;
        let changes = diff_dd(&base, &dd(160_000));
        assert_eq!(changes.len(), 2);
        assert!(changes.iter().all(|c| c.shift_bins == 5));
        assert_eq!(changes[0].pair, damaged);
        assert!(changes[0].mean_shift_us.is_nan());
        assert_eq!(changes[1].mean_shift_us, 100_000.0);
    }

    #[test]
    fn per_pair_mask_gates_the_shifted_pair() {
        let base = dd_of(&chain(100, 60_000, 50_000));
        let slowed = dd_of(&chain(100, 160_000, 50_000));
        let index = RecordIndex::default();
        let ctx = DiffCtx { records: &index };
        let stable = base.stable_mask();
        assert_eq!(base.tagged_diff(&slowed, &ctx, &stable).len(), 1);
        let pair = *base.per_pair.keys().next().unwrap();
        let mut gated = base.stable_mask();
        gated.loci.insert(Locus::Pair(pair), false);
        assert!(base.tagged_diff(&slowed, &ctx, &gated).is_empty());
    }
}
