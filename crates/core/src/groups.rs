//! Application group discovery (Section III-B).
//!
//! Application nodes that form a connected communication graph are one
//! *application group* — e.g. a three-tier app's web, application, and
//! database servers. Nodes connected only through marked special-purpose
//! nodes (DNS, NFS, …) stay in separate groups: service edges do not
//! merge groups, but each group remembers its service edges.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::ids::{EdgeId, EntityCatalog, HostId, IRecord, InternedLog};
use crate::records::FlowRecord;

/// A directed application-layer edge: who opens flows to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Flow initiator.
    pub src: Ipv4Addr,
    /// Flow target.
    pub dst: Ipv4Addr,
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// One discovered application group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppGroup {
    /// Member (non-special) node IPs, sorted.
    pub members: BTreeSet<Ipv4Addr>,
    /// Intra-group directed edges.
    pub edges: BTreeSet<Edge>,
    /// Edges from members to special-purpose nodes (kept for diagnosis
    /// but not used for grouping).
    pub service_edges: BTreeSet<Edge>,
    /// Indexes (into the record list) of flows belonging to this group.
    pub record_indices: Vec<usize>,
}

impl AppGroup {
    /// A stable identifier: the smallest member IP.
    pub fn group_key(&self) -> Option<Ipv4Addr> {
        self.members.iter().next().copied()
    }

    /// Jaccard similarity of member sets, used to match groups across two
    /// logs.
    pub fn similarity(&self, other: &AppGroup) -> f64 {
        let inter = self.members.intersection(&other.members).count();
        let union = self.members.union(&other.members).count();
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// Union-find over host IDs: an iterative `find` with path halving and
/// union by size, so a chain of flows h₀→h₁→…→hₙ neither builds a parent
/// chain n deep nor recurses down one.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Discovers application groups from flow records.
///
/// Returns groups sorted by their smallest member IP. Special-purpose
/// nodes never appear as members; flows between two special nodes are
/// ignored.
///
/// ```
/// use flowdiff::prelude::*;
/// use flowdiff::records::FlowTuple;
/// use openflow::types::{IpProto, Timestamp};
///
/// let record = |src: [u8; 4], dst: [u8; 4], dport: u16| FlowRecord {
///     tuple: FlowTuple {
///         src: src.into(), sport: 30_000, dst: dst.into(), dport,
///         proto: IpProto::TCP,
///     },
///     first_seen: Timestamp::ZERO,
///     hops: vec![],
///     byte_count: 0, packet_count: 0, duration_s: 0.0,
/// };
/// // web -> app -> db chain plus an unrelated pair
/// let records = vec![
///     record([10, 0, 0, 1], [10, 0, 0, 2], 8080),
///     record([10, 0, 0, 2], [10, 0, 0, 3], 3306),
///     record([10, 0, 1, 1], [10, 0, 1, 2], 80),
/// ];
/// let groups = discover_groups(&records, &FlowDiffConfig::default());
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].members.len(), 3);
/// ```
pub fn discover_groups(records: &[FlowRecord], config: &FlowDiffConfig) -> Vec<AppGroup> {
    let il = InternedLog::of(records);
    discover_window(&il.refs(), &il.catalog, config).groups
}

/// Marks "no slot" / "no group" in discovery's dense tables.
const NONE: u32 = u32::MAX;

/// A window's groups, and where each of its edges sits in its group.
#[derive(Debug, Clone, Default)]
pub struct Discovery {
    /// The groups, as [`discover_groups`] returns them.
    pub groups: Vec<AppGroup>,
    /// Indexed by [`EdgeId`] of the catalog: the edge's slot in its
    /// group, i.e. its index among the group's `edges ∪ service_edges`
    /// in address order (what
    /// [`EdgeSlots::of_group`](crate::signatures::EdgeSlots::of_group)
    /// reads). `u32::MAX` for an edge no record of the window is on and
    /// for service-to-service edges, which no group owns. Edges of
    /// different groups share slot numbers; one table serves them all
    /// because every edge belongs to at most one group.
    pub slots: Vec<u32>,
    /// Indexed by [`EdgeId`] of the catalog: the index in `groups` of the
    /// group that owns the edge, `u32::MAX` for an edge no group owns.
    pub owners: Vec<u32>,
}

/// [`discover_groups`] over already-interned records, plus the per-edge
/// slot table the model builder's group signatures bucket records by.
///
/// The catalog may know more hosts than the records mention (a
/// pre-warmed sliding-window catalog after old records were retired);
/// only hosts appearing as a record endpoint become group members.
///
/// Every per-record step is a `Vec` index through the record's
/// [`EdgeId`]: union-find and edge classification run once per
/// *distinct* edge of the window, not once per record. The scratch
/// tables are sized by the catalog and allocated once per call.
pub fn discover_window(
    records: &[&IRecord],
    catalog: &EntityCatalog,
    config: &FlowDiffConfig,
) -> Discovery {
    let n = catalog.n_hosts();
    let special: Vec<bool> = catalog
        .hosts()
        .iter()
        .map(|&ip| config.is_special(ip))
        .collect();

    // The window's distinct edges in first-appearance order; until the
    // ranking below, `slots` holds each one's index in `distinct`.
    let mut slots = vec![NONE; catalog.n_edges()];
    let mut distinct = Vec::new();
    for r in records {
        let slot = &mut slots[r.edge.index()];
        if *slot == NONE {
            *slot = distinct.len() as u32;
            distinct.push(r.edge);
        }
    }

    let mut appears = vec![false; n];
    let mut dsu = Dsu::new(n);
    for &edge in &distinct {
        let (s, d) = catalog.edge_hosts(edge);
        let (s, d) = (s.index(), d.index());
        appears[s] |= !special[s];
        appears[d] |= !special[d];
        if !special[s] && !special[d] {
            dsu.union(s, d);
        }
    }

    // One group per union-find root.
    #[derive(Default)]
    struct Gathered {
        root: usize,
        members: Vec<Ipv4Addr>,
        /// `(address, id, is a service edge)` of each owned edge.
        edges: Vec<(Edge, EdgeId, bool)>,
        record_indices: Vec<usize>,
    }
    let mut group_of_root = vec![NONE; n];
    let mut gathered: Vec<Gathered> = Vec::new();
    for h in (0..n).filter(|&h| appears[h]) {
        let root = dsu.find(h);
        if group_of_root[root] == NONE {
            group_of_root[root] = gathered.len() as u32;
            gathered.push(Gathered {
                root,
                ..Gathered::default()
            });
        }
        let g = &mut gathered[group_of_root[root] as usize];
        g.members.push(catalog.host(HostId(h as u32)));
    }
    // The groups' final order, by smallest member (`AppGroup::group_key`):
    // an edge's group index is final as soon as its group is known.
    gathered.sort_unstable_by_key(|g| g.members.iter().min().copied());
    for (at, g) in gathered.iter().enumerate() {
        group_of_root[g.root] = at as u32;
    }

    // Each edge joins the group of its non-special endpoint (the source
    // when both qualify; they share a root then).
    let group_of_edge: Vec<u32> = (distinct.iter())
        .map(|&edge| {
            let (s, d) = catalog.edge_hosts(edge);
            let owner = [s, d].into_iter().find(|h| !special[h.index()]);
            let Some(owner) = owner else {
                return NONE; // service-to-service traffic: not an app flow
            };
            let g = group_of_root[dsu.find(owner.index())];
            let service = special[s.index()] || special[d.index()];
            gathered[g as usize]
                .edges
                .push((catalog.edge_addr(edge), edge, service));
            g
        })
        .collect();
    for (i, r) in records.iter().enumerate() {
        let g = group_of_edge[slots[r.edge.index()] as usize];
        if g != NONE {
            gathered[g as usize].record_indices.push(i);
        }
    }
    let mut owners = vec![NONE; catalog.n_edges()];
    for (&edge, &g) in distinct.iter().zip(&group_of_edge) {
        owners[edge.index()] = g;
        if g == NONE {
            slots[edge.index()] = NONE;
        }
    }

    let groups: Vec<AppGroup> = gathered
        .into_iter()
        .map(|mut g| {
            g.edges.sort_unstable();
            for (rank, &(_, edge, _)) in g.edges.iter().enumerate() {
                slots[edge.index()] = rank as u32;
            }
            let of_kind = |service: bool| -> BTreeSet<Edge> {
                (g.edges.iter())
                    .filter(|e| e.2 == service)
                    .map(|e| e.0)
                    .collect()
            };
            AppGroup {
                members: g.members.into_iter().collect(),
                edges: of_kind(false),
                service_edges: of_kind(true),
                record_indices: g.record_indices,
            }
        })
        .collect();
    debug_assert!(groups.is_sorted_by_key(AppGroup::group_key));
    Discovery {
        groups,
        slots,
        owners,
    }
}

/// Matches groups of a current model to groups of a reference model by
/// maximum member overlap. Returns `(ref_index, cur_index)` pairs plus
/// the unmatched indices on each side. The groups are borrowed, so the
/// diff and stability engines match without cloning member sets.
pub fn match_group_refs(
    reference: &[&AppGroup],
    current: &[&AppGroup],
) -> (Vec<(usize, usize)>, Vec<usize>, Vec<usize>) {
    let mut pairs = Vec::new();
    let mut used_cur = vec![false; current.len()];
    for (ri, r) in reference.iter().enumerate() {
        let best = current
            .iter()
            .enumerate()
            .filter(|(ci, _)| !used_cur[*ci])
            .map(|(ci, &c)| (ci, r.similarity(c)))
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((ci, _)) = best {
            used_cur[ci] = true;
            pairs.push((ri, ci));
        }
    }
    let matched_ref: BTreeSet<usize> = pairs.iter().map(|(r, _)| *r).collect();
    let unmatched_ref = (0..reference.len())
        .filter(|i| !matched_ref.contains(i))
        .collect();
    let unmatched_cur = (0..current.len()).filter(|i| !used_cur[*i]).collect();
    (pairs, unmatched_ref, unmatched_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::FlowTuple;
    use openflow::types::{IpProto, Timestamp};

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn record(src: Ipv4Addr, dst: Ipv4Addr, dport: u16) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src,
                sport: 30_000,
                dst,
                dport,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::ZERO,
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        }
    }

    #[test]
    fn chain_forms_one_group() {
        let records = vec![
            record(ip(0, 1), ip(0, 2), 80),
            record(ip(0, 2), ip(0, 3), 8080),
            record(ip(0, 3), ip(0, 4), 3306),
        ];
        let groups = discover_groups(&records, &FlowDiffConfig::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 4);
        assert_eq!(groups[0].edges.len(), 3);
        assert_eq!(groups[0].record_indices, vec![0, 1, 2]);
    }

    #[test]
    fn a_200k_host_chain_is_one_group_on_a_2_mib_stack() {
        // Flows h₀→h₁→…→hₙ: union-find without balancing builds a parent
        // chain n deep, and a recursive `find` down it overflows the
        // stack — an abort, which no `catch_unwind` can turn into an
        // error.
        let n = 200_000u32;
        let host = |i: u32| Ipv4Addr::from(0x0a00_0000 + i);
        let records: Vec<FlowRecord> = (0..n).map(|i| record(host(i), host(i + 1), 80)).collect();
        let groups = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || discover_groups(&records, &FlowDiffConfig::default()))
            .expect("spawn")
            .join()
            .expect("discovery returns");
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), n as usize + 1);
        assert_eq!(groups[0].edges.len(), n as usize);
    }

    #[test]
    fn disjoint_apps_form_separate_groups() {
        let records = vec![
            record(ip(0, 1), ip(0, 2), 80),
            record(ip(1, 1), ip(1, 2), 80),
        ];
        let groups = discover_groups(&records, &FlowDiffConfig::default());
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn special_nodes_do_not_merge_groups() {
        let dns = ip(200, 1);
        let config = FlowDiffConfig::default().with_special_ips([dns]);
        let records = vec![
            record(ip(0, 1), ip(0, 2), 80),
            record(ip(1, 1), ip(1, 2), 80),
            // both groups talk to DNS
            record(ip(0, 1), dns, 53),
            record(ip(1, 1), dns, 53),
        ];
        let groups = discover_groups(&records, &config);
        assert_eq!(groups.len(), 2, "shared DNS must not merge the groups");
        for g in &groups {
            assert!(!g.members.contains(&dns));
            assert_eq!(g.service_edges.len(), 1);
        }
    }

    #[test]
    fn without_domain_knowledge_shared_node_merges() {
        // Same traffic as above but DNS not marked: one merged group.
        let dns = ip(200, 1);
        let records = vec![
            record(ip(0, 1), ip(0, 2), 80),
            record(ip(1, 1), ip(1, 2), 80),
            record(ip(0, 1), dns, 53),
            record(ip(1, 1), dns, 53),
        ];
        let groups = discover_groups(&records, &FlowDiffConfig::default());
        assert_eq!(groups.len(), 1, "unmarked shared node merges groups");
    }

    #[test]
    fn service_to_service_flows_ignored() {
        let nfs = ip(200, 1);
        let dns = ip(200, 2);
        let config = FlowDiffConfig::default().with_special_ips([nfs, dns]);
        let records = vec![record(nfs, dns, 53)];
        let groups = discover_groups(&records, &config);
        assert!(groups.is_empty());
    }

    #[test]
    fn reply_flows_from_service_attach_to_member_group() {
        let nfs = ip(200, 1);
        let config = FlowDiffConfig::default().with_special_ips([nfs]);
        let records = vec![
            record(ip(0, 1), ip(0, 2), 80),
            record(nfs, ip(0, 1), 40_000), // NFS reply into the group
        ];
        let groups = discover_groups(&records, &config);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].service_edges.len(), 1);
        assert_eq!(groups[0].record_indices.len(), 2);
    }

    #[test]
    fn group_matching_by_overlap() {
        let g = |ips: &[Ipv4Addr]| AppGroup {
            members: ips.iter().copied().collect(),
            edges: BTreeSet::new(),
            service_edges: BTreeSet::new(),
            record_indices: vec![],
        };
        let (r0, r1) = (g(&[ip(0, 1), ip(0, 2)]), g(&[ip(1, 1), ip(1, 2)]));
        let grown = g(&[ip(1, 1), ip(1, 2), ip(1, 3)]); // grew by one node
        let new_app = g(&[ip(2, 1), ip(2, 2)]);
        let (pairs, unmatched_ref, unmatched_cur) =
            match_group_refs(&[&r0, &r1], &[&grown, &new_app]);
        assert_eq!(pairs, vec![(1, 0)]);
        assert_eq!(unmatched_ref, vec![0]);
        assert_eq!(unmatched_cur, vec![1]);
    }

    #[test]
    fn similarity_is_jaccard() {
        let g = |ips: &[Ipv4Addr]| AppGroup {
            members: ips.iter().copied().collect(),
            edges: BTreeSet::new(),
            service_edges: BTreeSet::new(),
            record_indices: vec![],
        };
        let a = g(&[ip(0, 1), ip(0, 2), ip(0, 3)]);
        let b = g(&[ip(0, 2), ip(0, 3), ip(0, 4)]);
        assert!((a.similarity(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.similarity(&g(&[])), 0.0);
    }
}
