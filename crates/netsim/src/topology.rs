//! Data center topologies: nodes, links, ports, and path computation.
//!
//! Two builders reproduce the paper's experimental setups:
//!
//! * [`Topology::lab`] — the NEC lab data center of Section V: ~30 servers
//!   behind seven OpenFlow switches and two legacy switches, where every
//!   server-to-server path crosses at least one OpenFlow switch;
//! * [`Topology::tree`] — the 320-server simulation topology of Section
//!   V-C: racks of 20 servers under top-of-rack switches, groups of four
//!   ToRs under two aggregation switches, and all aggregation switches
//!   under two cores.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;

use openflow::types::{DatapathId, PortNo};
use serde::{Deserialize, Serialize};

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host (physical server or VM) with an IP address.
    Host {
        /// The host's IPv4 address.
        ip: Ipv4Addr,
    },
    /// A programmable switch speaking OpenFlow to the controller.
    OfSwitch {
        /// The switch datapath id.
        dpid: DatapathId,
    },
    /// A traditional (non-programmable) L2 switch.
    LegacySwitch,
}

/// One node of the topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable name (e.g. `S13`, `tor3`, `core1`).
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
}

impl Node {
    /// True for end hosts.
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host { .. })
    }

    /// True for OpenFlow switches.
    pub fn is_of_switch(&self) -> bool {
        matches!(self.kind, NodeKind::OfSwitch { .. })
    }

    /// True for any switch (OpenFlow or legacy).
    pub fn is_switch(&self) -> bool {
        !self.is_host()
    }
}

/// A bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Capacity in bytes per second.
    pub capacity_bps: u64,
}

impl Link {
    /// The endpoint opposite `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn peer_of(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            assert_eq!(n, self.b, "node {n} is not on this link");
            self.a
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PortMap {
    /// Outgoing attachments in port order: `(local port, link, peer)`.
    ports: Vec<(PortNo, LinkId, NodeId)>,
}

/// A data center topology: a graph of hosts and switches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<PortMap>,
    by_ip: HashMap<Ipv4Addr, NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            by_ip: HashMap::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds an end host.
    ///
    /// # Panics
    ///
    /// Panics if the name or IP address is already in use.
    pub fn add_host(&mut self, name: &str, ip: Ipv4Addr) -> NodeId {
        assert!(
            !self.by_ip.contains_key(&ip),
            "duplicate host ip {ip} ({name})"
        );
        let id = self.push_node(name, NodeKind::Host { ip });
        self.by_ip.insert(ip, id);
        id
    }

    /// Adds an OpenFlow switch. The datapath id is derived from the node
    /// index so it is stable and unique.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use.
    pub fn add_of_switch(&mut self, name: &str) -> NodeId {
        let dpid = DatapathId(0x1000 + self.nodes.len() as u64);
        self.push_node(name, NodeKind::OfSwitch { dpid })
    }

    /// Adds a legacy (non-OpenFlow) switch.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use.
    pub fn add_legacy_switch(&mut self, name: &str) -> NodeId {
        self.push_node(name, NodeKind::LegacySwitch)
    }

    fn push_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate node name {name}"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_owned(),
            kind,
        });
        self.adj.push(PortMap { ports: Vec::new() });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Connects two nodes with a bidirectional link, assigning the next
    /// free port number on each side.
    ///
    /// # Panics
    ///
    /// Panics on a self-link (`a == b`) or an out-of-range node id.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency_us: u64, capacity_bps: u64) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let link = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            latency_us,
            capacity_bps,
        });
        let pa = PortNo(self.adj[a.idx()].ports.len() as u16 + 1);
        let pb = PortNo(self.adj[b.idx()].ports.len() as u16 + 1);
        self.adj[a.idx()].ports.push((pa, link, b));
        self.adj[b.idx()].ports.push((pb, link, a));
        link
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.node_ids()
            .map(|id| (id, self.node(id)))
            .filter(|(_, n)| n.is_host())
    }

    /// Iterates over all OpenFlow switches.
    pub fn of_switches(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.node_ids()
            .map(|id| (id, self.node(id)))
            .filter(|(_, n)| n.is_of_switch())
    }

    /// Finds a host node by IP address.
    pub fn host_by_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.by_ip.get(&ip).copied()
    }

    /// Finds a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The IP of a host node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a host.
    pub fn host_ip(&self, id: NodeId) -> Ipv4Addr {
        match self.node(id).kind {
            NodeKind::Host { ip } => ip,
            _ => panic!("{id} is not a host"),
        }
    }

    /// The datapath id of an OpenFlow switch node.
    pub fn dpid_of(&self, id: NodeId) -> Option<DatapathId> {
        match self.node(id).kind {
            NodeKind::OfSwitch { dpid } => Some(dpid),
            _ => None,
        }
    }

    /// The node carrying the given datapath id.
    pub fn node_of_dpid(&self, dpid: DatapathId) -> Option<NodeId> {
        self.node_ids().find(|&id| self.dpid_of(id) == Some(dpid))
    }

    /// Neighbors of `n` as `(local port, link, peer)` triples in port
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn ports_of(&self, n: NodeId) -> &[(PortNo, LinkId, NodeId)] {
        &self.adj[n.idx()].ports
    }

    /// The local port on `from` that leads to adjacent node `to`, or
    /// `None` when the nodes are not adjacent.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortNo> {
        self.adj[from.idx()]
            .ports
            .iter()
            .find(|(_, _, peer)| *peer == to)
            .map(|(p, _, _)| *p)
    }

    /// The link between two adjacent nodes, or `None` when the nodes are
    /// not adjacent.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj[a.idx()]
            .ports
            .iter()
            .find(|(_, _, peer)| *peer == b)
            .map(|(_, l, _)| *l)
    }

    /// Latency-weighted shortest path from `src` to `dst` (inclusive),
    /// avoiding nodes in `avoid`. Hosts other than the endpoints are never
    /// traversed.
    ///
    /// Returns `None` when no path exists.
    pub fn shortest_path<F>(&self, src: NodeId, dst: NodeId, avoid: F) -> Option<Vec<NodeId>>
    where
        F: Fn(NodeId) -> bool,
    {
        if src == dst {
            return Some(vec![src]);
        }
        // Uniform small weights: BFS by hop count, deterministic by port
        // order, is both faster and stable for our topologies, which have
        // homogeneous link latencies per tier.
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[src.idx()] = true;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &(_, _, v) in &self.adj[u.idx()].ports {
                if seen[v.idx()] || avoid(v) {
                    continue;
                }
                // Do not route *through* hosts.
                if v != dst && self.node(v).is_host() {
                    continue;
                }
                seen[v.idx()] = true;
                prev[v.idx()] = Some(u);
                if v == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(p) = prev[cur.idx()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(v);
            }
        }
        None
    }

    // ------------------------------------------------------------ builders

    /// The lab data center of Section V: 25 physical servers `S1..S25` and
    /// five VMs `VM1..VM5`, seven OpenFlow switches (`of1..of7`), and two
    /// legacy switches (`leg1`, `leg2`). `of7` is the core; every
    /// server-to-server path crosses at least one OpenFlow switch.
    pub fn lab() -> Topology {
        let mut t = Topology::new();
        let core = t.add_of_switch("of7");
        let mut edges = Vec::new();
        for i in 1..=6 {
            let sw = t.add_of_switch(&format!("of{i}"));
            t.connect(sw, core, 20, 1_000_000_000);
            edges.push(sw);
        }
        let leg1 = t.add_legacy_switch("leg1");
        let leg2 = t.add_legacy_switch("leg2");
        t.connect(leg1, core, 20, 1_000_000_000);
        t.connect(leg2, core, 20, 1_000_000_000);

        // S1..S25 round-robin over the six OpenFlow edge switches.
        for i in 1..=25u32 {
            let ip = Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1);
            let host = t.add_host(&format!("S{i}"), ip);
            let sw = edges[(i as usize - 1) % edges.len()];
            t.connect(host, sw, 50, 1_000_000_000);
        }
        // Five VMs behind the legacy switches (they still cross of7).
        for i in 1..=5u32 {
            let ip = Ipv4Addr::new(10, 0, 10, i as u8);
            let host = t.add_host(&format!("VM{i}"), ip);
            let sw = if i % 2 == 0 { leg1 } else { leg2 };
            t.connect(host, sw, 50, 1_000_000_000);
        }
        t
    }

    /// A hybrid variant of the lab data center (Section VI, incremental
    /// deployment): only the core switch speaks OpenFlow; the six edge
    /// switches are legacy. Every server-to-server path still crosses
    /// the OpenFlow core, but FlowDiff's visibility drops to one
    /// observation point per path.
    pub fn lab_hybrid() -> Topology {
        let mut t = Topology::new();
        let core = t.add_of_switch("of7");
        let mut edges = Vec::new();
        for i in 1..=6 {
            let sw = t.add_legacy_switch(&format!("leg-edge{i}"));
            t.connect(sw, core, 20, 1_000_000_000);
            edges.push(sw);
        }
        for i in 1..=25u32 {
            let ip = Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1);
            let host = t.add_host(&format!("S{i}"), ip);
            let sw = edges[(i as usize - 1) % edges.len()];
            t.connect(host, sw, 50, 1_000_000_000);
        }
        t
    }

    /// The simulation topology of Section V-C: `racks` racks of
    /// `hosts_per_rack` servers each under a ToR switch; every group of
    /// four ToRs connects to two aggregation switches; all aggregation
    /// switches connect to two cores.
    ///
    /// `Topology::tree(16, 20)` reproduces the paper's 320-server network.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero or not a multiple of 4.
    pub fn tree(racks: u32, hosts_per_rack: u32) -> Topology {
        assert!(
            racks > 0 && racks.is_multiple_of(4),
            "racks must be a multiple of 4"
        );
        let mut t = Topology::new();
        let core1 = t.add_of_switch("core1");
        let core2 = t.add_of_switch("core2");
        let groups = racks / 4;
        let mut aggs = Vec::new();
        for g in 0..groups {
            let a1 = t.add_of_switch(&format!("agg{}a", g + 1));
            let a2 = t.add_of_switch(&format!("agg{}b", g + 1));
            for &a in &[a1, a2] {
                t.connect(a, core1, 10, 10_000_000_000);
                t.connect(a, core2, 10, 10_000_000_000);
            }
            aggs.push((a1, a2));
        }
        for r in 0..racks {
            let tor = t.add_of_switch(&format!("tor{}", r + 1));
            let (a1, a2) = aggs[(r / 4) as usize];
            t.connect(tor, a1, 10, 10_000_000_000);
            t.connect(tor, a2, 10, 10_000_000_000);
            for h in 0..hosts_per_rack {
                let ip = Ipv4Addr::new(10, 1 + (r / 250) as u8, (r % 250) as u8, h as u8 + 1);
                let host = t.add_host(&format!("h{}-{}", r + 1, h + 1), ip);
                t.connect(host, tor, 30, 1_000_000_000);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_assigns_sequential_ports() {
        let mut t = Topology::new();
        let sw = t.add_of_switch("sw");
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        t.connect(h1, sw, 10, 1_000);
        t.connect(h2, sw, 10, 1_000);
        assert_eq!(t.port_towards(sw, h1), Some(PortNo(1)));
        assert_eq!(t.port_towards(sw, h2), Some(PortNo(2)));
        assert_eq!(t.port_towards(h1, sw), Some(PortNo(1)));
        assert_eq!(t.port_towards(h1, h2), None);
    }

    #[test]
    fn link_lookup_and_peer() {
        let mut t = Topology::new();
        let a = t.add_of_switch("a");
        let b = t.add_of_switch("b");
        let l = t.connect(a, b, 5, 99);
        assert_eq!(t.link_between(a, b), Some(l));
        assert_eq!(t.link_between(b, a), Some(l));
        assert_eq!(t.link(l).peer_of(a), b);
        assert_eq!(t.link(l).latency_us, 5);
    }

    #[test]
    #[should_panic(expected = "not on this link")]
    fn peer_of_foreign_node_panics() {
        let mut t = Topology::new();
        let a = t.add_of_switch("a");
        let b = t.add_of_switch("b");
        let c = t.add_of_switch("c");
        let l = t.connect(a, b, 5, 99);
        let _ = t.link(l).peer_of(c);
    }

    #[test]
    fn shortest_path_simple_line() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        t.connect(h1, s1, 1, 1);
        t.connect(s1, s2, 1, 1);
        t.connect(s2, h2, 1, 1);
        let path = t.shortest_path(h1, h2, |_| false).unwrap();
        assert_eq!(path, vec![h1, s1, s2, h2]);
    }

    #[test]
    fn shortest_path_never_crosses_other_hosts() {
        // h1 - s1 - h3 - s2 - h2 plus a longer pure-switch detour.
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let h3 = t.add_host("h3", Ipv4Addr::new(10, 0, 0, 3));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        t.connect(h1, s1, 1, 1);
        t.connect(s1, h3, 1, 1);
        t.connect(h3, s2, 1, 1);
        t.connect(s2, h2, 1, 1);
        t.connect(s1, s3, 1, 1);
        t.connect(s3, s2, 1, 1);
        let path = t.shortest_path(h1, h2, |_| false).unwrap();
        assert!(!path.contains(&h3), "path must not relay through a host");
        assert_eq!(path, vec![h1, s1, s3, s2, h2]);
    }

    #[test]
    fn shortest_path_avoids_failed_switches() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        t.connect(h1, s1, 1, 1);
        t.connect(s1, s2, 1, 1);
        t.connect(s2, h2, 1, 1);
        t.connect(s1, s3, 1, 1);
        t.connect(s3, s2, 1, 1);
        let direct = t.shortest_path(h1, h2, |_| false).unwrap();
        assert_eq!(direct.len(), 4);
        let detour = t.shortest_path(h1, h2, |n| n == s2);
        assert!(detour.is_none(), "s2 is the only switch adjacent to h2");
        let detour2 = t.shortest_path(h1, h2, |n| n == s3).unwrap();
        assert_eq!(detour2, direct);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        assert!(t.shortest_path(h1, h2, |_| false).is_none());
        assert_eq!(t.shortest_path(h1, h1, |_| false).unwrap(), vec![h1]);
    }

    #[test]
    fn lab_topology_shape() {
        let t = Topology::lab();
        assert_eq!(t.hosts().count(), 30);
        assert_eq!(t.of_switches().count(), 7);
        // every pair of hosts is mutually reachable and crosses an OF switch
        let s13 = t.node_by_name("S13").unwrap();
        let vm1 = t.node_by_name("VM1").unwrap();
        let path = t.shortest_path(s13, vm1, |_| false).unwrap();
        assert!(path.iter().any(|&n| t.node(n).is_of_switch()));
    }

    #[test]
    fn lab_hosts_resolvable_by_ip_and_name() {
        let t = Topology::lab();
        for i in 1..=25 {
            let id = t.node_by_name(&format!("S{i}")).unwrap();
            let ip = t.host_ip(id);
            assert_eq!(t.host_by_ip(ip), Some(id));
        }
    }

    #[test]
    fn hybrid_lab_has_single_of_switch() {
        let t = Topology::lab_hybrid();
        assert_eq!(t.of_switches().count(), 1);
        assert_eq!(t.hosts().count(), 25);
        // cross-edge paths traverse the OpenFlow core
        let a = t.node_by_name("S1").unwrap();
        let b = t.node_by_name("S2").unwrap();
        let path = t.shortest_path(a, b, |_| false).unwrap();
        assert!(path.iter().any(|&n| t.node(n).is_of_switch()));
    }

    #[test]
    fn tree_topology_counts_match_paper() {
        let t = Topology::tree(16, 20);
        assert_eq!(t.hosts().count(), 320);
        // 16 ToR + 8 agg + 2 core
        assert_eq!(t.of_switches().count(), 26);
        // rack-local path: h - tor - h   (3 nodes)
        let a = t.node_by_name("h1-1").unwrap();
        let b = t.node_by_name("h1-2").unwrap();
        assert_eq!(t.shortest_path(a, b, |_| false).unwrap().len(), 3);
        // cross-group path: h - tor - agg - core - agg - tor - h (7 nodes)
        let c = t.node_by_name("h16-20").unwrap();
        assert_eq!(t.shortest_path(a, c, |_| false).unwrap().len(), 7);
    }

    #[test]
    fn tree_survives_core_failure() {
        let t = Topology::tree(4, 2);
        let core1 = t.node_by_name("core1").unwrap();
        let a = t.node_by_name("h1-1").unwrap();
        let b = t.node_by_name("h4-1").unwrap();
        let path = t.shortest_path(a, b, |n| n == core1).unwrap();
        assert!(!path.contains(&core1));
    }

    #[test]
    #[should_panic(expected = "duplicate host ip")]
    fn duplicate_ip_rejected() {
        let mut t = Topology::new();
        t.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        t.add_host("b", Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn dpid_mapping_roundtrips() {
        let t = Topology::lab();
        for (id, _) in t.of_switches() {
            let dpid = t.dpid_of(id).unwrap();
            assert_eq!(t.node_of_dpid(dpid), Some(id));
        }
        let host = t.node_by_name("S1").unwrap();
        assert!(t.dpid_of(host).is_none());
    }
}
