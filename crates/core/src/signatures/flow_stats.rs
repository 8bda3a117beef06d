//! The flow statistics (FS) signature.
//!
//! Per application group: flow durations, byte and packet counts (from
//! `FlowRemoved` counters), and flow arrival rates, overall and per edge
//! (Section III-B).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::FS_REL_CHANGE;
use crate::groups::Edge;
use crate::signatures::{
    merge_join, DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask,
};
use crate::stats::{MeanStd, Moments};

/// Per-edge flow statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Number of flows observed on the edge.
    pub flow_count: usize,
    /// Byte-count summary over those flows.
    pub bytes: MeanStd,
    /// Flow-entry lifetime summary, seconds.
    pub duration_s: MeanStd,
}

/// The FS signature of one application group.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowStatsSig {
    /// Total flows in the group during the log window.
    pub flow_count: usize,
    /// Flow arrival rate, flows per second.
    pub flows_per_sec: f64,
    /// Byte counts over all group flows.
    pub bytes: MeanStd,
    /// Packet counts over all group flows.
    pub packets: MeanStd,
    /// Flow-entry lifetimes, seconds.
    pub duration_s: MeanStd,
    /// Per-edge breakdown.
    pub per_edge: BTreeMap<Edge, EdgeStats>,
}

/// A flow statistic an [`FsChange`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsMetric {
    /// Flow arrivals: flows per second group-wide, flows per edge.
    FlowRate,
    /// Mean byte count per flow.
    Bytes,
    /// Mean flow-entry lifetime.
    Duration,
}

impl FsMetric {
    /// The metric's name in a change description.
    pub fn name(self) -> &'static str {
        match self {
            FsMetric::FlowRate => "flow_rate",
            FsMetric::Bytes => "bytes",
            FsMetric::Duration => "duration",
        }
    }
}

/// One detected flow-statistics change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FsChange {
    /// Which metric shifted.
    pub metric: FsMetric,
    /// The edge it shifted on (`None` = group-wide).
    pub edge: Option<Edge>,
    /// Reference value.
    pub reference: f64,
    /// Current value.
    pub current: f64,
    /// Relative change `|cur - ref| / max(|ref|, ε)`.
    pub rel_change: f64,
}

impl fmt::Display for FsChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} changed {:.3} -> {:.3}",
            self.metric.name(),
            self.reference,
            self.current
        )?;
        match self.edge {
            Some(e) => write!(f, " on {e}"),
            None => Ok(()),
        }
    }
}

fn rel(reference: f64, current: f64) -> f64 {
    (current - reference).abs() / reference.abs().max(1e-9)
}

/// True when a byte-count mean moved both materially (> 5 % relative)
/// and significantly (> 5 baseline standard errors, with enough
/// samples). Catches gradual inflation — e.g. retransmissions under a
/// low loss rate — that stays below the coarse relative threshold.
fn bytes_shifted(reference: &MeanStd, current: &MeanStd) -> bool {
    if reference.n < 30 || current.n < 30 {
        return false;
    }
    let se = reference.std / (reference.n as f64).sqrt();
    let delta = (current.mean - reference.mean).abs();
    rel(reference.mean, current.mean) > 0.05 && delta > 5.0 * se
}

impl Signature for FlowStatsSig {
    type Change = FsChange;
    const KIND: SignatureKind = SignatureKind::Fs;

    /// Byte and packet counts are integers, summed exactly
    /// (`stats::Moments`), so no record order moves their statistics; the
    /// real-valued durations are summarized in feed order. Overall and
    /// per edge slot.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let span = inputs.span;
        let span_s =
            ((span.1.as_micros().saturating_sub(span.0.as_micros())) as f64 / 1e6).max(1e-6);
        let records = inputs.records;
        let durations: Vec<f64> = records.iter().map(|r| r.duration_s).collect();
        let slots = inputs.edge_slots();
        let edge_bytes = slots.gather(records, |r| r.byte_count);
        let edge_durations = slots.gather(records, |r| r.duration_s);
        FlowStatsSig {
            flow_count: records.len(),
            flows_per_sec: records.len() as f64 / span_s,
            bytes: Moments::of(records.iter().map(|r| r.byte_count)).summary(),
            packets: Moments::of(records.iter().map(|r| r.packet_count)).summary(),
            duration_s: MeanStd::of(&durations),
            per_edge: (slots.ranges())
                .map(|(edge, at)| {
                    let stats = EdgeStats {
                        flow_count: at.len(),
                        bytes: Moments::of(edge_bytes[at.clone()].iter().copied()).summary(),
                        duration_s: MeanStd::of(&edge_durations[at]),
                    };
                    (edge, stats)
                })
                .collect(),
        }
    }

    /// Scalar comparison (Section IV-A): reports metrics whose relative
    /// change exceeds [`FS_REL_CHANGE`], plus byte-count means that
    /// shifted significantly per the standard-error test above.
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<FsChange> {
        fn push(out: &mut Vec<FsChange>, metric: FsMetric, edge: Option<Edge>, a: f64, b: f64) {
            out.push(FsChange {
                metric,
                edge,
                reference: a,
                current: b,
                rel_change: rel(a, b),
            });
        }
        let mut out = Vec::new();
        if rel(self.flows_per_sec, current.flows_per_sec) > FS_REL_CHANGE {
            push(
                &mut out,
                FsMetric::FlowRate,
                None,
                self.flows_per_sec,
                current.flows_per_sec,
            );
        }
        if rel(self.bytes.mean, current.bytes.mean) > FS_REL_CHANGE
            || bytes_shifted(&self.bytes, &current.bytes)
        {
            push(
                &mut out,
                FsMetric::Bytes,
                None,
                self.bytes.mean,
                current.bytes.mean,
            );
        }
        if rel(self.duration_s.mean, current.duration_s.mean) > FS_REL_CHANGE {
            push(
                &mut out,
                FsMetric::Duration,
                None,
                self.duration_s.mean,
                current.duration_s.mean,
            );
        }
        for (edge, ref_stats, cur_stats) in merge_join(&self.per_edge, &current.per_edge) {
            if let (Some(ref_stats), Some(cur_stats)) = (ref_stats, cur_stats) {
                if rel(ref_stats.bytes.mean, cur_stats.bytes.mean) > FS_REL_CHANGE
                    || bytes_shifted(&ref_stats.bytes, &cur_stats.bytes)
                {
                    push(
                        &mut out,
                        FsMetric::Bytes,
                        Some(*edge),
                        ref_stats.bytes.mean,
                        cur_stats.bytes.mean,
                    );
                }
                if rel(ref_stats.flow_count as f64, cur_stats.flow_count as f64) > FS_REL_CHANGE {
                    push(
                        &mut out,
                        FsMetric::FlowRate,
                        Some(*edge),
                        ref_stats.flow_count as f64,
                        cur_stats.flow_count as f64,
                    );
                }
            }
        }
        out
    }

    /// FS is accepted or rejected wholesale.
    fn locus(_change: &FsChange) -> Locus {
        Locus::Whole
    }

    fn render(change: FsChange) -> Change {
        let mut components = Vec::new();
        if let Some(e) = change.edge {
            components.push(Component::Host(e.src));
            components.push(Component::Host(e.dst));
        }
        // Byte-count changes carry a qualitative direction: a collapse
        // means traffic disappeared (e.g. only SYN retries survive a
        // firewall); an inflation means extra wire bytes appeared
        // (retransmissions under loss).
        let bytes = change.metric == FsMetric::Bytes;
        let collapsed = bytes && change.current < change.reference * 0.3;
        let inflated = bytes && change.current > change.reference * 1.2;
        Change {
            kind: Self::KIND,
            direction: if collapsed {
                ChangeDirection::Removed
            } else if inflated {
                ChangeDirection::Added
            } else {
                ChangeDirection::Shifted
            },
            detail: ChangeDetail::Fs(change),
            components,
            ts: None,
        }
    }

    /// FS stability: the coefficient of variation of the interval mean
    /// byte counts must stay small across a quorum of active intervals.
    fn stability(&self, intervals: &[&Self], ctx: &StabilityCtx) -> StabilityMask {
        let byte_means: Vec<f64> = intervals
            .iter()
            .filter(|g| g.flow_count > 0)
            .map(|g| g.bytes.mean)
            .collect();
        let stable = if byte_means.len() >= ctx.quorum.min(2) {
            let s = MeanStd::of(&byte_means);
            s.mean > 0.0 && s.std / s.mean < 0.5
        } else {
            false
        };
        StabilityMask::whole(Self::KIND, stable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowDiffConfig;
    use crate::ids::{InternedLog, RecordIndex};
    use crate::records::{FlowRecord, FlowTuple};
    use openflow::types::{IpProto, Timestamp};
    use std::net::Ipv4Addr;

    fn record(src_last: u8, dst_last: u8, bytes: u64, at_s: u64) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src: Ipv4Addr::new(10, 0, 0, src_last),
                sport: 1000 + bytes as u16 % 1000,
                dst: Ipv4Addr::new(10, 0, 0, dst_last),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_secs(at_s),
            hops: vec![],
            byte_count: bytes,
            packet_count: bytes / 1500 + 1,
            duration_s: 5.0,
        }
    }

    fn span() -> (Timestamp, Timestamp) {
        (Timestamp::ZERO, Timestamp::from_secs(10))
    }

    fn build_fs(records: &[FlowRecord]) -> FlowStatsSig {
        let il = InternedLog::of(records);
        let config = FlowDiffConfig::default();
        FlowStatsSig::build(&SignatureInputs::new(
            &il.refs(),
            &il.catalog,
            span(),
            &config,
        ))
    }

    fn diff_fs(a: &FlowStatsSig, b: &FlowStatsSig) -> Vec<FsChange> {
        let index = RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
    }

    #[test]
    fn build_summarizes_counts_and_rates() {
        let records = vec![
            record(1, 2, 1_000, 1),
            record(1, 2, 3_000, 2),
            record(2, 3, 2_000, 3),
        ];
        let fs = build_fs(&records);
        assert_eq!(fs.flow_count, 3);
        assert!((fs.flows_per_sec - 0.3).abs() < 1e-9);
        assert!((fs.bytes.mean - 2_000.0).abs() < 1e-9);
        assert_eq!(fs.per_edge.len(), 2);
        let e = Edge {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        };
        assert_eq!(fs.per_edge[&e].flow_count, 2);
    }

    #[test]
    fn same_key_records_fold_in_any_order() {
        // The last two share a `(first_seen, tuple)` key (hostile
        // input); byte counts sum exactly, so swapping them moves no bit.
        let feed = [
            record(1, 2, 1_000, 1),
            record(1, 2, 1_453, 2),
            record(1, 2, 2_453, 2),
        ];
        assert_eq!(feed[1].tuple, feed[2].tuple);
        let swapped = [feed[0].clone(), feed[2].clone(), feed[1].clone()];
        let [a, b] = [&feed, &swapped].map(|feed| {
            let bytes = build_fs(feed).bytes;
            (bytes.n, bytes.mean.to_bits(), bytes.std.to_bits())
        });
        assert_eq!(a, b);
        assert_eq!(a, (3, 0x4099_8d55_5555_5555, 0x4087_3bb2_fc58_5d05));
    }

    #[test]
    fn no_change_below_threshold() {
        let records = vec![record(1, 2, 1_000, 1), record(1, 2, 1_100, 2)];
        let fs1 = build_fs(&records);
        assert!(diff_fs(&fs1, &fs1).is_empty());
    }

    #[test]
    fn byte_inflation_detected_on_edge() {
        let base = vec![record(1, 2, 1_000, 1), record(1, 2, 1_000, 2)];
        let loss = vec![record(1, 2, 2_500, 1), record(1, 2, 2_700, 2)];
        let fs1 = build_fs(&base);
        let fs2 = build_fs(&loss);
        let changes = diff_fs(&fs1, &fs2);
        assert!(changes
            .iter()
            .any(|c| c.metric == FsMetric::Bytes && c.edge.is_some()));
        assert!(changes
            .iter()
            .all(|c| c.metric != FsMetric::FlowRate || c.rel_change <= FS_REL_CHANGE));
    }

    #[test]
    fn empty_group_yields_default_signature() {
        let fs = build_fs(&[]);
        assert_eq!(fs.flow_count, 0);
        assert_eq!(fs.bytes.n, 0);
        assert!(diff_fs(&fs, &fs).is_empty());
    }

    #[test]
    fn flow_rate_collapse_detected() {
        let base: Vec<FlowRecord> = (0..10).map(|i| record(1, 2, 1_000, i)).collect();
        let quiet = vec![record(1, 2, 1_000, 1)];
        let fs1 = build_fs(&base);
        let fs2 = build_fs(&quiet);
        let changes = diff_fs(&fs1, &fs2);
        assert!(changes.iter().any(|c| c.metric == FsMetric::FlowRate));
    }

    #[test]
    fn render_classifies_byte_collapse_and_inflation() {
        let collapse = FsChange {
            metric: FsMetric::Bytes,
            edge: None,
            reference: 1_000.0,
            current: 100.0,
            rel_change: 0.9,
        };
        assert_eq!(
            FlowStatsSig::render(collapse).direction,
            ChangeDirection::Removed
        );
        let inflation = FsChange {
            metric: FsMetric::Bytes,
            edge: None,
            reference: 1_000.0,
            current: 2_500.0,
            rel_change: 1.5,
        };
        assert_eq!(
            FlowStatsSig::render(inflation).direction,
            ChangeDirection::Added
        );
        let rate = FsChange {
            metric: FsMetric::FlowRate,
            edge: None,
            reference: 10.0,
            current: 1.0,
            rel_change: 0.9,
        };
        assert_eq!(
            FlowStatsSig::render(rate).direction,
            ChangeDirection::Shifted
        );
    }
}
