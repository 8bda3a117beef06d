//! The link-utilization (LU) baseline — part of the infrastructure
//! signature (Section III-C lists "baseline performance parameters
//! (such as link utilization …)").
//!
//! The controller periodically polls per-port byte counters
//! (`StatsRequest`/`StatsReply`); the deltas between consecutive polls
//! give a byte-rate series per switch port, summarized as mean ± std.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use netsim::log::ControlEvent;
use openflow::messages::{OfpMessage, StatsReply};
use openflow::types::{DatapathId, PortNo, Timestamp};
use serde::{Deserialize, Serialize};

use crate::change::{Change, ChangeDetail, ChangeDirection, Component, Locus, SignatureKind};
use crate::config::{FS_REL_CHANGE, ISL_SIGMA, MIN_SAMPLES};
use crate::signatures::{DiffCtx, Signature, SignatureInputs};
use crate::stats::MeanStd;

/// The LU signature: transmitted byte-rate summary per switch port.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkUtilization {
    /// Byte-rate summary (bytes/second) per `(switch, egress port)`.
    pub per_port: BTreeMap<(DatapathId, PortNo), MeanStd>,
}

/// A shifted link-utilization baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LuChange {
    /// The switch and egress port.
    pub port: (DatapathId, PortNo),
    /// Baseline rate summary, bytes/second.
    pub reference: MeanStd,
    /// Current rate summary.
    pub current: MeanStd,
    /// Shift in baseline standard deviations.
    pub sigmas: f64,
}

impl fmt::Display for LuChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "utilization {:.0} -> {:.0} bytes/s on {} {} ({:.1} sigma)",
            self.reference.mean, self.current.mean, self.port.0, self.port.1, self.sigmas
        )
    }
}

/// Incremental LU accumulator, fed from raw control events rather than
/// flow records (port counters never become flow records) and kept
/// across epochs by the model builder. Keeps the cumulative counter
/// series per port; rates are derived at `finalize`. The series
/// serializes with the rest of the streaming state so an online
/// checkpoint restores mid-poll without losing the rate across the
/// restart boundary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LuBuilder {
    /// (dpid, port) -> [(poll time, cumulative tx bytes)]
    ///
    /// Port-stats events never pass through the record assembler, so
    /// there is no interning opportunity here: the series stays keyed by
    /// raw addresses in a flat hash map, and `finalize` sorts into the
    /// output `BTreeMap`.
    series: HashMap<(DatapathId, PortNo), Vec<(Timestamp, u64)>>,
}

impl LuBuilder {
    /// Drops counter samples polled before `cutoff` (sliding-window
    /// online mode). The rate across the dropped/kept boundary is lost
    /// with the points that defined it.
    pub fn retire_before(&mut self, cutoff: Timestamp) {
        self.series.retain(|_, points| {
            points.retain(|(ts, _)| *ts >= cutoff);
            !points.is_empty()
        });
    }

    /// Folds another builder's series into this one, as the shard
    /// partials of [`harness_seam`](crate::harness_seam) merge. Over
    /// disjoint `(dpid, port)` keys appending preserves each series'
    /// observation order exactly.
    pub fn absorb(&mut self, other: LuBuilder) {
        for (key, points) in other.series {
            self.series.entry(key).or_default().extend(points);
        }
    }

    /// Folds one raw control event: a port-stats reply appends one
    /// counter sample per port; anything else is ignored.
    pub fn observe_event(&mut self, event: &ControlEvent) {
        if let OfpMessage::StatsReply(StatsReply::Port(ports)) = &event.msg {
            for p in ports {
                self.series
                    .entry((event.dpid, p.port_no))
                    .or_default()
                    .push((event.ts, p.tx_bytes));
            }
        }
    }

    /// Produces the signature from everything observed so far. Borrows
    /// rather than consumes: the builder is snapshotted at every epoch
    /// boundary.
    pub fn finalize(&self) -> LinkUtilization {
        let per_port = self
            .series
            .iter()
            .filter_map(|(key, points)| {
                let rates: Vec<f64> = points
                    .windows(2)
                    .filter_map(|w| {
                        let dt = w[1].0.saturating_since(w[0].0) as f64 / 1e6;
                        let db = w[1].1.saturating_sub(w[0].1) as f64;
                        (dt > 0.0).then_some(db / dt)
                    })
                    .collect();
                (!rates.is_empty()).then(|| (*key, MeanStd::of(&rates)))
            })
            .collect();
        LinkUtilization { per_port }
    }
}

impl Signature for LinkUtilization {
    type Change = LuChange;
    const KIND: SignatureKind = SignatureKind::Lu;

    /// Reads the port-stats replies from the raw log; without a log the
    /// signature is empty.
    fn build(inputs: &SignatureInputs<'_>) -> Self {
        let mut builder = LuBuilder::default();
        for event in inputs.log.into_iter().flat_map(|log| log.events()) {
            builder.observe_event(event);
        }
        builder.finalize()
    }

    /// Flags ports whose mean byte rate moved beyond [`ISL_SIGMA`]
    /// baseline standard deviations (utilization shares the
    /// infrastructure latency threshold).
    fn diff(&self, current: &Self, _ctx: &DiffCtx<'_>) -> Vec<LuChange> {
        let mut out = Vec::new();
        for (port, ref_stats) in &self.per_port {
            let Some(cur_stats) = current.per_port.get(port) else {
                continue;
            };
            if ref_stats.n < MIN_SAMPLES || cur_stats.n < MIN_SAMPLES {
                continue;
            }
            let sigmas = ref_stats.shift_sigmas(cur_stats);
            // Also require a material relative change: port rates are
            // bursty and a tight baseline std would otherwise make noise
            // alarm.
            let rel = (cur_stats.mean - ref_stats.mean).abs() / ref_stats.mean.abs().max(1.0);
            if sigmas > ISL_SIGMA && rel > FS_REL_CHANGE {
                out.push(LuChange {
                    port: *port,
                    reference: *ref_stats,
                    current: *cur_stats,
                    sigmas,
                });
            }
        }
        out.sort_by(|a, b| b.sigmas.total_cmp(&a.sigmas));
        out
    }

    /// LU is already gated by [`MIN_SAMPLES`] and the relative-change bar.
    fn locus(_change: &LuChange) -> Locus {
        Locus::Whole
    }

    fn render(change: LuChange) -> Change {
        Change {
            kind: Self::KIND,
            direction: ChangeDirection::Shifted,
            components: vec![Component::Switch(change.port.0)],
            detail: ChangeDetail::Lu(change),
            ts: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowDiffConfig;
    use crate::ids::EntityCatalog;
    use netsim::log::{ControlEvent, ControllerLog, Direction};
    use openflow::messages::PortStats;
    use openflow::types::Xid;

    fn reply(ts_s: u64, dpid: u64, port: u16, tx_bytes: u64) -> ControlEvent {
        ControlEvent {
            ts: Timestamp::from_secs(ts_s),
            dpid: DatapathId(dpid),
            direction: Direction::ToController,
            xid: Xid(0),
            msg: OfpMessage::StatsReply(StatsReply::Port(vec![PortStats {
                port_no: PortNo(port),
                tx_bytes,
                tx_packets: tx_bytes / 1_000,
                ..PortStats::default()
            }])),
        }
    }

    fn lu_of(log: &ControllerLog) -> LinkUtilization {
        let config = FlowDiffConfig::default();
        let catalog = EntityCatalog::new();
        LinkUtilization::build(
            &SignatureInputs::new(&[], &catalog, (Timestamp::ZERO, Timestamp::ZERO), &config)
                .with_log(log),
        )
    }

    fn diff_lu(a: &LinkUtilization, b: &LinkUtilization) -> Vec<LuChange> {
        let index = crate::ids::RecordIndex::default();
        a.diff(b, &DiffCtx { records: &index })
    }

    #[test]
    fn rates_from_cumulative_counters() {
        let log: ControllerLog = vec![
            reply(10, 1, 2, 0),
            reply(20, 1, 2, 1_000_000),
            reply(30, 1, 2, 2_000_000),
            reply(40, 1, 2, 3_000_000),
        ]
        .into_iter()
        .collect();
        let lu = lu_of(&log);
        let stats = &lu.per_port[&(DatapathId(1), PortNo(2))];
        assert_eq!(stats.n, 3);
        assert!((stats.mean - 100_000.0).abs() < 1.0, "100 KB/s");
        assert!(stats.std < 1.0);
    }

    #[test]
    fn single_poll_yields_no_rate() {
        let log: ControllerLog = vec![reply(10, 1, 2, 500)].into_iter().collect();
        assert!(lu_of(&log).per_port.is_empty());
    }

    #[test]
    fn missing_log_builds_empty_signature() {
        let config = FlowDiffConfig::default();
        let catalog = EntityCatalog::new();
        let lu = LinkUtilization::build(&SignatureInputs::new(
            &[],
            &catalog,
            (Timestamp::ZERO, Timestamp::ZERO),
            &config,
        ));
        assert!(lu.per_port.is_empty());
    }

    #[test]
    fn diff_flags_big_rate_jump_only() {
        let steady = |rate: u64| -> LinkUtilization {
            let log: ControllerLog = (0..8u64)
                .map(|i| reply(10 * (i + 1), 1, 2, rate * 10 * i))
                .collect();
            lu_of(&log)
        };
        let base = steady(100_000);
        let same = steady(101_000);
        let busy = steady(5_000_000);
        assert!(diff_lu(&base, &same).is_empty());
        let changes = diff_lu(&base, &busy);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].port, (DatapathId(1), PortNo(2)));
        assert!(changes[0].sigmas > ISL_SIGMA);
        let rendered = LinkUtilization::render(changes[0]);
        assert_eq!(rendered.kind, SignatureKind::Lu);
        assert_eq!(rendered.components, vec![Component::Switch(DatapathId(1))]);
    }

    #[test]
    fn ports_present_in_one_log_only_are_skipped() {
        let log_a: ControllerLog = (0..4u64)
            .map(|i| reply(10 * (i + 1), 1, 2, 1_000 * i))
            .collect();
        let log_b: ControllerLog = (0..4u64)
            .map(|i| reply(10 * (i + 1), 9, 9, 1_000 * i))
            .collect();
        assert!(diff_lu(&lu_of(&log_a), &lu_of(&log_b)).is_empty());
    }
}
