//! Pane partials: DD, PT, ISL and CRT of an online window, folded from
//! one partial per epoch-wide slice of it, so that an epoch boundary
//! rebuilds only the slices whose records changed — the sliding-window
//! *panes* of Li et al., "No pane, no gain" (SIGMOD Record 2005).
//!
//! A pane holds the window records first seen in one epoch of the grid
//! the boundaries fall on. Its partials read those records alone (DD's
//! in-flows also pair with the flows of the next [`DD_WINDOW_US`]). DD,
//! ISL and CRT carry exact integer sums ([`crate::stats::Moments`] and
//! bin counts), which add up to the whole window's in any split, and
//! PT's first-wins attachment folds the panes in window order, so every
//! signature comes out bit-identical to a build over the whole window —
//! which is what a batch build is: one pane.

use std::collections::BTreeMap;
use std::ops::Range;

use openflow::types::Timestamp;

use crate::config::{FlowDiffConfig, DD_WINDOW_US};
use crate::ids::{EdgeId, EntityCatalog, HostId, IRecord};
use crate::signatures::delay::{DdFold, DdPartial, DelayDistribution};
use crate::signatures::infra::{
    ControllerResponse, CrtPartial, InterSwitchLatency, IslFold, IslPartial, PhysicalTopology,
    PtFold, PtPartial,
};

/// DD per group, PT, ISL and CRT of one window.
pub(crate) struct Folded {
    /// DD of each group, in the order of the groups it was folded for.
    pub(crate) delay: Vec<DelayDistribution>,
    pub(crate) topology: PhysicalTopology,
    pub(crate) latency: InterSwitchLatency,
    pub(crate) response: ControllerResponse,
}

/// The partials of one pane.
#[derive(Debug, Clone, Default)]
struct Pane {
    dd: DdPartial,
    pt: PtPartial,
    isl: IslPartial,
    crt: CrtPartial,
}

/// A window's panes, their partials, and what the folds keep across
/// boundaries: DD's running totals and the key indices the partials
/// file under.
#[derive(Debug, Clone, Default)]
pub(crate) struct Panes {
    /// Pane width, µs; 0 cuts no panes: one pane holds the whole feed.
    width: u64,
    /// Where the grid the panes are cut on falls: window end mod `width`.
    phase: u64,
    /// Each pane's partials, by the pane's index on the grid.
    panes: BTreeMap<u64, Pane>,
    /// When the records were first seen that were inserted, removed, or
    /// replaced by a version with another edge or other hops since the
    /// latest fold.
    touched: Vec<Timestamp>,
    dd: DdFold,
    pt: PtFold,
    isl: IslFold,
    /// Panes the latest fold rebuilt partials for.
    rebuilt: usize,
    /// Keys of the fold indices the latest fold's signatures hold: DD
    /// pairs, PT adjacencies and ISL switch pairs.
    live: usize,
}

/// Fold indices smaller than this never start over for their size.
const OUTGROWN_FLOOR: usize = 256;

impl Panes {
    /// Panes `width` µs wide, for a window that slides by that much.
    pub(crate) fn epochs(width: u64) -> Panes {
        Panes {
            width: width.max(1),
            ..Panes::default()
        }
    }

    /// Notes that a record first seen at `at` was inserted, removed, or
    /// replaced by a version with another edge or other hops.
    pub(crate) fn touch(&mut self, at: Timestamp) {
        self.touched.push(at);
    }

    /// Panes the latest [`fold`](Self::fold) rebuilt partials for.
    pub(crate) fn rebuilt(&self) -> usize {
        self.rebuilt
    }

    /// Folds the window `refs` — in window order, interned through
    /// `catalog`, ending at `end` — into DD per group and PT, ISL and
    /// CRT. `owners[edge]` is the index among the `n_groups` groups of
    /// the group owning an edge (`u32::MAX`: none); a DD pair counts in a
    /// group when both its edges are that group's.
    ///
    /// Rebuilds the partials of every pane whose records were touched
    /// since the previous fold, and DD's also of the panes up to
    /// [`DD_WINDOW_US`] before those, whose in-flows pair with the touched
    /// records; drops the panes the window no longer reaches.
    ///
    /// The panes pair DD's edges through ordinary nodes only: those
    /// always share a group. Pairs through a service node count only
    /// where both edges are one group's, and groups regroup as the
    /// window slides, so every fold pairs them afresh over the window's
    /// flows into and out of service nodes, only between edges one group
    /// owns, as a build per group pairs them.
    pub(crate) fn fold(
        &mut self,
        refs: &[&IRecord],
        end: Timestamp,
        catalog: &EntityCatalog,
        config: &FlowDiffConfig,
        owners: &[u32],
        n_groups: usize,
    ) -> Folded {
        let moved = self.width > 0 && end.as_micros() % self.width != self.phase;
        if moved || self.outgrown() {
            // A grid that moved (the clock re-anchored past a gap) lines
            // up with no pane cut on the old one. Indices that grew to
            // more than twice the keys in use — pairs and adjacencies
            // the window no longer holds — start over with the panes, so
            // the fold costs what the window holds, not its history.
            *self = Panes {
                width: self.width,
                phase: end.as_micros().checked_rem(self.width).unwrap_or(0),
                ..Panes::default()
            };
        }
        let special: Vec<bool> = (catalog.hosts().iter())
            .map(|&ip| config.is_special(ip))
            .collect();
        let ordinary = |node: HostId, _: EdgeId| (!special[node.index()]).then_some(0);
        let mut touched: Vec<u64> = (self.touched.iter()).map(|&at| self.pane_of(at)).collect();
        self.touched.clear();
        touched.sort_unstable();
        touched.dedup();
        let touched_in = |from: u64, to: u64| {
            let at = touched.partition_point(|&q| q < from);
            touched.get(at).is_some_and(|&q| q <= to)
        };

        let cut = self.cut(refs);
        let dd = &mut self.dd;
        self.panes.retain(|id, pane| {
            let kept = cut.binary_search_by_key(id, |(c, _)| *c).is_ok();
            if !kept {
                dd.remove(&pane.dd);
            }
            kept
        });

        let reach = match self.width {
            0 => 0,
            width => DD_WINDOW_US.div_ceil(width),
        };
        self.rebuilt = 0;
        for (id, range) in cut {
            let fresh = !self.panes.contains_key(&id);
            let infra_stale = fresh || touched_in(id, id);
            if !infra_stale && !touched_in(id, id.saturating_add(reach)) {
                continue;
            }
            self.rebuilt += 1;
            let ins = &refs[range.clone()];
            let pane = self.panes.entry(id).or_default();
            // DD pairs the pane's in-flows with the flows first seen up
            // to `DD_WINDOW_US` after the last of them.
            let last = ins[ins.len() - 1].first_seen.as_micros();
            let until = last.saturating_add(DD_WINDOW_US);
            let outs = refs[range.end..].partition_point(|r| r.first_seen.as_micros() < until);
            let feed = &refs[range.start..range.end + outs];
            self.dd.remove(&pane.dd);
            pane.dd = self.dd.partial(feed, ins.len(), catalog, ordinary);
            self.dd.add(&pane.dd);
            if infra_stale {
                pane.pt = self.pt.partial(ins, catalog);
                pane.isl = self.isl.partial(ins, catalog);
                pane.crt = CrtPartial::of(ins, catalog);
            }
        }

        let panes = self.panes.values();
        let owner = |edge: EdgeId| Some(owners[edge.index()]).filter(|&g| g != u32::MAX);
        let group_of = |incoming: EdgeId, _: EdgeId| owner(incoming).map(|g| g as usize);
        let mut delay = self.dd.finish(catalog, n_groups, group_of);
        let topology = self.pt.finish(panes.clone().map(|p| &p.pt), catalog);
        let latency = self.isl.finish(panes.clone().map(|p| &p.isl), catalog);
        let response = ControllerResponse::fold(panes.map(|p| &p.crt), catalog);
        self.live = (delay.iter()).map(|dd| dd.per_pair.len()).sum::<usize>()
            + topology.adjacencies.len()
            + latency.per_pair.len();

        if special.contains(&true) {
            // Only flows into or out of a service node pair through one.
            let feed: Vec<&IRecord> = (refs.iter().copied())
                .filter(|r| {
                    let (src, dst) = catalog.edge_hosts(r.edge);
                    special[src.index()] || special[dst.index()]
                })
                .collect();
            let through =
                |node: HostId, edge: EdgeId| owner(edge).filter(|_| special[node.index()]);
            let served = DdFold::whole(&feed, catalog, through, n_groups, group_of);
            for (dd, more) in delay.iter_mut().zip(served) {
                dd.per_pair.extend(more.per_pair);
                dd.nearest.extend(more.nearest);
            }
        }
        Folded {
            delay,
            topology,
            latency,
            response,
        }
    }

    /// Whether the fold indices hold more than twice the keys the latest
    /// fold's signatures did.
    fn outgrown(&self) -> bool {
        let keys = self.dd.keys() + self.pt.keys() + self.isl.keys();
        keys > OUTGROWN_FLOOR && keys > 2 * self.live
    }

    /// The window's panes, oldest first: each one's index and the range
    /// of `refs` first seen in it.
    fn cut(&self, refs: &[&IRecord]) -> Vec<(u64, Range<usize>)> {
        let mut cut = Vec::new();
        let mut at = 0;
        while at < refs.len() {
            let id = self.pane_of(refs[at].first_seen);
            let end = at + refs[at..].partition_point(|r| self.pane_of(r.first_seen) == id);
            cut.push((id, at..end));
            at = end;
        }
        cut
    }

    /// The index of the pane a record first seen at `at` falls in.
    fn pane_of(&self, at: Timestamp) -> u64 {
        match self.width {
            0 => 0,
            width => at.as_micros().saturating_add(width - self.phase) / width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::discover_window;
    use crate::records::{FlowRecord, FlowTuple};
    use openflow::types::IpProto;
    use std::net::Ipv4Addr;

    /// Every second a request chain between three hosts seen in no other
    /// second: the window holds five chains, and every boundary retires
    /// one DD pair for good.
    fn churning_chains(secs: u64) -> Vec<FlowRecord> {
        let flow = |src, dst, at_us: u64| FlowRecord {
            tuple: FlowTuple {
                src,
                sport: (at_us % 60_000) as u16,
                dst,
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_micros(at_us),
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        };
        let mut records = Vec::new();
        for s in 0..secs {
            let host = |i: u64| Ipv4Addr::from(0x0a00_0000 + (s as u32) * 4 + i as u32);
            for i in 0..10 {
                let t = s * 1_000_000 + i * 90_000;
                records.push(flow(host(1), host(2), t));
                records.push(flow(host(2), host(3), t + 30_000));
            }
        }
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        records
    }

    #[test]
    fn indices_start_over_instead_of_growing_with_the_stream() {
        let (epoch, window) = (1_000_000, 5_000_000);
        let config = FlowDiffConfig::default();
        let records = churning_chains(600);
        let mut catalog = EntityCatalog::default();
        let interned: Vec<IRecord> = records.iter().map(|r| catalog.intern_record(r)).collect();
        let mut panes = Panes::epochs(epoch);
        let (mut starts_over, mut peak) = (0, 0);
        for end in (2..=600).map(|s| s * epoch) {
            let from =
                interned.partition_point(|r| r.first_seen.as_micros() < end.saturating_sub(window));
            let to = interned.partition_point(|r| r.first_seen.as_micros() < end);
            let refs: Vec<&IRecord> = interned[from..to].iter().collect();
            let chains = (end / epoch).min(window / epoch) as usize;
            // The newest pane is new; the oldest one left.
            panes.touch(Timestamp::from_micros(end - epoch));
            let discovery = discover_window(&refs, &catalog, &config);
            let (owners, n) = (&discovery.owners, discovery.groups.len());
            let end = Timestamp::from_micros(end);
            let folded = panes.fold(&refs, end, &catalog, &config, owners, n);
            let once = Panes::default().fold(&refs, end, &catalog, &config, owners, n);
            assert_eq!(folded.delay, once.delay, "window ending at {end:?}");
            let paired = folded.delay.iter().filter(|dd| dd.per_pair.len() == 1);
            assert_eq!(paired.count(), chains, "window ending at {end:?}");
            starts_over += usize::from(panes.rebuilt() == panes.panes.len());
            peak = peak.max(panes.dd.keys());
        }
        assert!(
            starts_over > 1,
            "the indices started over after the first fold"
        );
        assert!(peak <= OUTGROWN_FLOOR + 1, "DD index peaked at {peak} keys");
    }
}
