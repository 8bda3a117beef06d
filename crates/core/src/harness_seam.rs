//! The names the benchmark harness (`benchmark/`) still compiles
//! against, kept after the sharded differ they named was deleted: one
//! [`OnlineDiffer`] serves every run (DESIGN.md, "Rejected: the sharded
//! differ"). Each is a thin stand-in over what exists:
//!
//! * [`ShardedDiffer`] wraps one [`OnlineDiffer`] and reports its load
//!   as shard 0,
//! * [`ShardRouter`] wraps one [`Sequencer`],
//! * [`ShardModel`], [`IncrementalModelBuilder::into_shard_model`],
//!   [`IncrementalModelBuilder::absorb`] and
//!   [`IncrementalModelBuilder::merge`] are the shard partials and their
//!   merge, as they were.
//!
//! The prelude re-exports them under these names. ROADMAP item 3 moves
//! the harness off them, and this module is deleted with that change;
//! nothing else in the workspace uses it.

use std::collections::BTreeMap;

use netsim::log::FlowEvent;
use openflow::types::{DatapathId, Timestamp};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::diff::{EpochSnapshot, EpochTimings, OnlineDiffer};
use crate::model::{BehaviorModel, IncrementalModelBuilder};
use crate::records::{FlowRecord, Sequencer};
use crate::signatures::utilization::LuBuilder;
use crate::stability::StabilityReport;

/// One [`OnlineDiffer`] under the name of the deleted sharded differ.
#[derive(Debug)]
pub struct ShardedDiffer {
    differ: OnlineDiffer,
}

impl ShardedDiffer {
    /// [`OnlineDiffer::new`]; the shard count is ignored.
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`FlowDiffConfig::validate`].
    pub fn new(
        model: BehaviorModel,
        stability: StabilityReport,
        config: &FlowDiffConfig,
        _shards: usize,
    ) -> ShardedDiffer {
        ShardedDiffer {
            differ: OnlineDiffer::new(model, stability, config),
        }
    }

    /// [`OnlineDiffer::observe`].
    pub fn observe(&mut self, event: impl Into<FlowEvent>) -> Vec<EpochSnapshot> {
        self.differ.observe(event)
    }

    /// [`OnlineDiffer::take_timings`].
    pub fn take_timings(&mut self) -> EpochTimings {
        self.differ.take_timings()
    }

    /// [`OnlineDiffer::finish`].
    pub fn finish(self) -> Option<EpochSnapshot> {
        self.differ.finish()
    }

    /// The differ's load, as the one shard there is.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let (records, open_episodes) = self.differ.load();
        vec![ShardStats {
            shard: 0,
            records,
            open_episodes,
        }]
    }
}

/// One shard's load, as [`ShardedDiffer::shard_stats`] reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard index: always 0.
    pub shard: usize,
    /// Records held in the window builder.
    pub records: usize,
    /// In-flight episodes in the assembler.
    pub open_episodes: usize,
}

/// One [`Sequencer`] under the name of the deleted shard router.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    sequencer: Sequencer,
}

impl ShardRouter {
    /// A router in front of `config`'s sequencer; the shard count is
    /// ignored.
    pub fn new(config: &FlowDiffConfig, _n_shards: usize) -> ShardRouter {
        ShardRouter {
            sequencer: Sequencer::new(config),
        }
    }

    /// Admits `ev` and appends what the sequencer releases to
    /// `released`, in release order; `false` when `ev` is quarantined.
    pub fn admit(&mut self, ev: impl Into<FlowEvent>, released: &mut Vec<FlowEvent>) -> bool {
        let ev = ev.into();
        if !self.sequencer.admit(ev.ts) {
            return false;
        }
        (self.sequencer).release(ev, |event| released.push(event));
        true
    }
}

/// One shard's contribution to a model build: the state an
/// [`IncrementalModelBuilder`] accumulates, extracted for another
/// builder to [`absorb`](IncrementalModelBuilder::absorb).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardModel {
    /// Flow records this shard completed in the window.
    pub records: Vec<FlowRecord>,
    /// Liveness proofs: datapath -> newest `ToController` timestamp.
    pub live: BTreeMap<DatapathId, Timestamp>,
    /// Port-counter series owned by this shard.
    pub lu: LuBuilder,
    /// Min/max event timestamp this shard observed.
    pub observed_span: Option<(Timestamp, Timestamp)>,
}

impl IncrementalModelBuilder {
    /// Extracts this builder's accumulated state as one mergeable shard
    /// partial, consuming the builder. The records come out in window
    /// order, which the merge's stable sort preserves.
    pub fn into_shard_model(self) -> ShardModel {
        ShardModel {
            records: self.completions(),
            live: self.live,
            lu: self.lu,
            observed_span: self.observed_span,
        }
    }

    /// Folds one shard partial in, as if this builder had observed the
    /// shard's records and events itself: records from different shards
    /// never share a `(first_seen, tuple)` window key, so each key's
    /// completions keep their shard's arrival order; liveness is a
    /// per-datapath max; the LU counter series union disjoint
    /// `(dpid, port)` keys; the observed span is a min/max fold.
    pub fn absorb(&mut self, part: ShardModel) {
        for record in part.records {
            self.observe_record(record);
        }
        for (dpid, ts) in part.live {
            let newest = self.live.entry(dpid).or_insert(ts);
            if ts > *newest {
                *newest = ts;
            }
        }
        self.lu.absorb(part.lu);
        if let Some((lo, hi)) = part.observed_span {
            self.observed_span = Some(match self.observed_span {
                Some((l, h)) => (l.min(lo), h.max(hi)),
                None => (lo, hi),
            });
        }
    }

    /// Reassembles N shard partials into one [`BehaviorModel`] that is
    /// `PartialEq`- and serialization-byte-identical to what a single
    /// builder fed the whole stream would snapshot: a fresh builder
    /// [`absorb`](Self::absorb)s every part and snapshots from scratch.
    /// `_workers` is ignored.
    pub fn merge(
        parts: Vec<ShardModel>,
        span: Option<(Timestamp, Timestamp)>,
        config: &FlowDiffConfig,
        _workers: usize,
    ) -> BehaviorModel {
        let mut builder = IncrementalModelBuilder::new(config);
        if let Some(span) = span {
            builder.set_span(span);
        }
        for part in parts {
            builder.absorb(part);
        }
        builder.into_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use netsim::log::ControllerLog;
    use netsim::topology::Topology;
    use workloads::prelude::*;

    use super::*;
    use crate::records::RecordAssembler;
    use crate::stability::analyze;

    /// Twelve seconds of one three-by-three mesh on the 320-server tree.
    fn tree_log(seed: u64) -> ControllerLog {
        let topo = Topology::tree(16, 20);
        let hosts: Vec<Ipv4Addr> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
        let (start, end) = (Timestamp::from_secs(1), Timestamp::from_secs(13));
        let mut sc = Scenario::new(topo, seed, start, end);
        sc.mesh(OnOffMesh {
            pairs: (0..9)
                .map(|k| (hosts[k % 3], hosts[3 + k / 3], 8080))
                .collect(),
            process: OnOffProcess::default(),
            reuse_prob: 0.6,
            bytes_per_flow: 30_000,
        });
        sc.run().log
    }

    #[test]
    fn sharded_differ_matches_single_shard_byte_for_byte() {
        let config = FlowDiffConfig {
            online_epoch_us: 1_000_000,
            online_window_us: 4_000_000,
            ..FlowDiffConfig::default()
        };
        let (baseline, current) = (tree_log(7), tree_log(8));
        let model = BehaviorModel::build(&baseline, &config);
        let stability = analyze(&baseline, &model, &config);
        let mut single = OnlineDiffer::new(model.clone(), stability.clone(), &config);
        let mut sharded = ShardedDiffer::new(model, stability, &config, 3);
        let mut router = ShardRouter::new(&config, 3);
        let (mut want, mut got, mut released) = (Vec::new(), Vec::new(), Vec::new());
        for event in current.events() {
            want.extend(single.observe(event));
            got.extend(sharded.observe(event));
            assert!(router.admit(event, &mut released));
        }
        assert!(want.len() >= 10, "{} epochs", want.len());
        let (records, open_episodes) = single.load();
        let load = ShardStats {
            shard: 0,
            records,
            open_episodes,
        };
        assert_eq!(sharded.shard_stats(), [load]);
        want.extend(single.finish());
        got.extend(sharded.finish());
        assert_eq!(got, want);
        let bytes = |snaps: &[EpochSnapshot]| snaps.iter().map(serde::to_vec).collect::<Vec<_>>();
        assert_eq!(bytes(&got), bytes(&want));
        let want: Vec<FlowEvent> = current.events().iter().map(FlowEvent::from).collect();
        assert_eq!(released, want, "each event once, in order");
    }

    #[test]
    fn merged_shard_partials_equal_single_build() {
        let config = FlowDiffConfig::default();
        let log = tree_log(5);
        let single = BehaviorModel::build(&log, &config);
        // Partition the stream three ways: events by reporting switch
        // (so each port's LU series stays whole on one shard), records
        // round-robin (any disjoint partition must merge identically).
        let n = 3usize;
        let mut assembler = RecordAssembler::new(&config);
        let mut builders: Vec<IncrementalModelBuilder> = (0..n)
            .map(|_| IncrementalModelBuilder::new(&config))
            .collect();
        for event in log.events() {
            assembler.observe(event);
            builders[(event.dpid.0 % n as u64) as usize].observe_event(event);
        }
        for (i, record) in assembler.finish().into_iter().enumerate() {
            builders[i % n].observe_record(record);
        }
        let parts: Vec<ShardModel> = builders
            .into_iter()
            .map(IncrementalModelBuilder::into_shard_model)
            .collect();
        let merged = IncrementalModelBuilder::merge(parts, log.time_range(), &config, 2);
        assert_eq!(single, merged, "merge must reproduce the one-builder model");
        assert_eq!(
            serde::to_vec(&single),
            serde::to_vec(&merged),
            "and byte-identically so"
        );
    }
}
