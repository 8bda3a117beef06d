//! The paper's two evaluation environments, defined once.
//!
//! * The lab testbed of Section V-A/B ([`Lab`]): seven OpenFlow switches,
//!   the service nodes at the core switch `of7`, the three-tier webshop
//!   of Table I ([`Lab::webshop`]) and Table I's seven problems
//!   ([`Lab::table1`]).
//! * The operator-task runs of Section V-D on the same lab: one task
//!   alone ([`Lab::task_run`]) and the two-tier shop that production
//!   captures run tasks over ([`Lab::shop`]).
//! * The 320-server tree of Section V-C ([`tree_mesh`]): disjoint
//!   three-tier applications whose adjacent tiers talk in ON/OFF meshes.
//!
//! Every builder returns the scenario unrun, so a caller can still add
//! faults, flows, tasks, clients, a [`Deployment`](netsim::config::Deployment)
//! or background services.

use std::net::Ipv4Addr;

use netsim::faults::Fault;
use netsim::flows::FlowSpec;
use netsim::topology::{NodeId, Topology};
use openflow::match_fields::FlowKey;
use openflow::types::Timestamp;

use crate::apps::{templates, ClientWorkload};
use crate::arrival::{ArrivalProcess, OnOffProcess};
use crate::scenario::{OnOffMesh, Scenario};
use crate::services::{install_services, ServiceCatalog};
use crate::tasks::TaskKind;

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

    /// A scenario on the lab with its workload window from t = 1 s to
    /// `end_s` s.
    fn scenario(&self, seed: u64, end_s: u64) -> Scenario {
        Scenario::new(
            self.topo.clone(),
            seed,
            Timestamp::from_secs(1),
            Timestamp::from_secs(end_s),
        )
    }

    /// The Table I webshop: client S25 sends Poisson 10 req/s to web
    /// S13, which calls app S4, which calls database S14, from t = 1 s
    /// to 1 + `secs` s.
    pub fn webshop(&self, seed: u64, secs: u64) -> Scenario {
        let mut sc = self.scenario(seed, 1 + secs);
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

    /// Table I's seven problems (Section V-A), in the paper's order, each
    /// to be injected into a [`Lab::webshop`] scenario by
    /// [`Problem::inject`] or [`Lab::table1_scenario`].
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks the lab's hosts or its `of1`-`of7`
    /// backbone link.
    pub fn table1(&self) -> Vec<Problem> {
        let fault = Injection::Fault;
        let slowdown = |extra_us| {
            fault(Fault::HostSlowdown {
                host: self.node("S4"),
                extra_us,
            })
        };
        let backbone = (self.topo)
            .link_between(self.node("of1"), self.node("of7"))
            .expect("the lab has an of1-of7 backbone link");
        // One long-lived iperf transfer saturating the backbone that the
        // application paths share.
        let iperf = FlowKey::tcp(self.ip("S1"), 9_999, self.ip("S20"), 5_001);
        let row = |id, label, paper_impact, injection| Problem {
            id,
            label,
            paper_impact,
            injection,
        };
        vec![
            row(
                1,
                "Mis-configure \"INFO\" logging on Tomcat",
                "DD",
                slowdown(120_000),
            ),
            row(
                2,
                "Emulate loss using tc on the server",
                "DD, FS",
                fault(Fault::LinkLoss {
                    link: backbone,
                    rate: 0.05,
                }),
            ),
            row(3, "High CPU (background process)", "DD", slowdown(250_000)),
            row(
                4,
                "Application crash",
                "CG, CI",
                fault(Fault::AppCrash {
                    host: self.node("S4"),
                    port: templates::ports::APP,
                }),
            ),
            row(
                5,
                "Host/VM shutdown",
                "CG, CI",
                fault(Fault::HostDown {
                    host: self.node("S4"),
                }),
            ),
            row(
                6,
                "Firewall (port block)",
                "CG, CI",
                fault(Fault::PortBlock {
                    host: self.node("S14"),
                    port: templates::ports::DB,
                }),
            ),
            row(
                7,
                "Inject background traffic using iperf",
                "ISL, FS, PC, DD",
                Injection::Flow(FlowSpec::new(iperf, 70_000_000_000, 58_000_000)),
            ),
        ]
    }

    /// A capture as Table I runs it: the 60 s [`Lab::webshop`] with
    /// background services on (they tell a dead host from a dead
    /// application) and `problem`, if any, injected from t = 0.
    pub fn table1_scenario(&self, seed: u64, problem: Option<&Problem>) -> Scenario {
        let mut sc = self.webshop(seed, 60);
        sc.background_services(true);
        if let Some(p) = problem {
            p.inject(&mut sc, Timestamp::ZERO);
        }
        sc
    }

    /// One operator task alone (Section V-D's training and test runs):
    /// the services installed and `task` started at t = 2 s, in a
    /// workload window from t = 1 s to `end_s` s.
    pub fn task_run(&self, seed: u64, task: TaskKind, end_s: u64) -> Scenario {
        let mut sc = self.scenario(seed, end_s);
        sc.services(self.catalog.clone())
            .task(Timestamp::from_secs(2), task);
        sc
    }

    /// The production background of Section V-D: client S23 sends
    /// Poisson `per_sec` requests of 4 KiB to the two-tier shop, web S7
    /// calling database S20, from t = 1 s to `end_s` s, with the
    /// services installed so that callers can add their tasks.
    pub fn shop(&self, seed: u64, per_sec: f64, end_s: u64) -> Scenario {
        let mut sc = self.scenario(seed, end_s);
        sc.services(self.catalog.clone())
            .app(templates::two_tier(
                "shop",
                vec![self.ip("S7")],
                vec![self.ip("S20")],
            ))
            .client(ClientWorkload {
                client: self.ip("S23"),
                entry_hosts: vec![self.ip("S7")],
                entry_port: templates::ports::WEB,
                process: ArrivalProcess::poisson_per_sec(per_sec),
                request_bytes: 4_096,
            });
        sc
    }
}

/// One row of Table I: a problem the paper introduced into the lab
/// webshop.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The row number, 1 to 7.
    pub id: u8,
    /// The problem as the paper names it.
    pub label: &'static str,
    /// The signatures the paper saw change, as its "impact" column
    /// lists them.
    pub paper_impact: &'static str,
    /// How the problem enters the scenario.
    pub injection: Injection,
}

/// How a Table I problem enters a scenario.
#[derive(Debug, Clone)]
pub enum Injection {
    /// A simulator fault, scheduled at the onset.
    Fault(Fault),
    /// An extra transfer, started 2 s after the onset.
    Flow(FlowSpec),
}

impl Problem {
    /// Schedules the problem in `sc` at `onset`.
    pub fn inject(&self, sc: &mut Scenario, onset: Timestamp) {
        match &self.injection {
            Injection::Fault(fault) => sc.fault(onset, fault.clone()),
            Injection::Flow(spec) => sc.flow(onset + 2_000_000, spec.clone()),
        };
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
