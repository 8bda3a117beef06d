//! The paper's two evaluation environments, defined once.
//!
//! * The lab testbed of Section V-A/B ([`Lab`]): seven OpenFlow switches,
//!   the service nodes at the core switch `of7`, and the three-tier
//!   webshop of Table I ([`Lab::webshop`]).
//! * The 320-server tree of Section V-C ([`tree_mesh`]): disjoint
//!   three-tier applications whose adjacent tiers talk in ON/OFF meshes.
//!
//! Both builders return the scenario unrun, so a caller can still add
//! faults, flows, tasks, clients, a `SimConfig` or background services.

use std::net::Ipv4Addr;

use netsim::topology::{NodeId, Topology};
use openflow::types::Timestamp;

use crate::apps::{templates, ClientWorkload};
use crate::arrival::{ArrivalProcess, OnOffProcess};
use crate::scenario::{OnOffMesh, Scenario};
use crate::services::{install_services, ServiceCatalog};

/// The lab testbed with the service nodes attached to its core switch.
#[derive(Debug)]
pub struct Lab {
    /// The topology: lab switches, servers and service hosts.
    pub topo: Topology,
    /// The installed service nodes.
    pub catalog: ServiceCatalog,
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

impl Lab {
    /// The all-OpenFlow lab ([`Topology::lab`]).
    pub fn new() -> Lab {
        Lab::with_services(Topology::lab())
    }

    /// The lab with OpenFlow at the core only ([`Topology::lab_hybrid`]):
    /// the same host names and service addresses as [`Lab::new`].
    pub fn hybrid() -> Lab {
        Lab::with_services(Topology::lab_hybrid())
    }

    fn with_services(mut topo: Topology) -> Lab {
        let (catalog, _) = install_services(&mut topo, "of7");
        Lab { topo, catalog }
    }

    /// IP of the named host.
    ///
    /// # Panics
    ///
    /// Panics naming the host if it does not exist.
    pub fn ip(&self, name: &str) -> Ipv4Addr {
        self.topo.host_ip(self.node(name))
    }

    /// Node id of the named node.
    ///
    /// # Panics
    ///
    /// Panics naming the node if it does not exist.
    pub fn node(&self, name: &str) -> NodeId {
        self.topo
            .node_by_name(name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    /// The Table I webshop: client S25 sends Poisson 10 req/s to web
    /// S13, which calls app S4, which calls database S14, from t = 1 s
    /// to 1 + `secs` s.
    pub fn webshop(&self, seed: u64, secs: u64) -> Scenario {
        let mut sc = Scenario::new(
            self.topo.clone(),
            seed,
            Timestamp::from_secs(1),
            Timestamp::from_secs(1 + secs),
        );
        sc.services(self.catalog.clone())
            .app(templates::three_tier(
                "webshop",
                vec![self.ip("S13")],
                vec![self.ip("S4")],
                vec![self.ip("S14")],
                None,
            ))
            .client(ClientWorkload {
                client: self.ip("S25"),
                entry_hosts: vec![self.ip("S13")],
                entry_port: templates::ports::WEB,
                process: ArrivalProcess::poisson_per_sec(10.0),
                request_bytes: 2_048,
            });
        sc
    }
}

/// Section V-C's workload on `topo`: `n_apps` three-tier applications of
/// three hosts per tier, each tier talking to the next in a full 3×3
/// ON/OFF mesh with 0.6 connection reuse, from t = 1 s to 1 + `secs` s.
///
/// Placement is disjoint: application `a` takes hosts `9a .. 9a + 9`
/// (wrapping), so groups stay separate as under collision-free random
/// placement (19 apps fill 171 of the tree's 320 servers).
pub fn tree_mesh(topo: Topology, n_apps: usize, seed: u64, secs: u64) -> Scenario {
    let hosts: Vec<Ipv4Addr> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
    let mut sc = Scenario::new(
        topo,
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(1 + secs),
    );
    for a in 0..n_apps {
        let pick = |tier: usize, k: usize| hosts[(a * 9 + tier * 3 + k) % hosts.len()];
        let mut pairs = Vec::new();
        for tier in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    let dport = if tier == 0 {
                        templates::ports::APP
                    } else {
                        templates::ports::DB
                    };
                    pairs.push((pick(tier, i), pick(tier + 1, j), dport));
                }
            }
        }
        sc.mesh(OnOffMesh {
            pairs,
            process: OnOffProcess::default(),
            reuse_prob: 0.6,
            bytes_per_flow: 30_000,
        });
    }
    sc
}
