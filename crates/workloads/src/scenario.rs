//! Scenario composition: apps + clients + tasks + faults → controller log.
//!
//! A [`Scenario`] assembles everything the paper's experiments need —
//! application deployments, request workloads, operator tasks, injected
//! faults, and the ON/OFF mesh traffic of the scalability study — runs
//! the simulation, and returns the captured control-traffic log.

use std::net::Ipv4Addr;

use netsim::config::{Deployment, IDLE_TIMEOUT_S};
use netsim::engine::{SimStats, Simulation};
use netsim::faults::Fault;
use netsim::flows::FlowSpec;
use netsim::log::ControllerLog;
use netsim::topology::Topology;
use openflow::match_fields::FlowKey;
use openflow::types::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apps::{ClientWorkload, MultiTierApp, PortAlloc};
use crate::arrival::OnOffProcess;
use crate::services::ServiceCatalog;
use crate::tasks::{generate_flows, TaskKind};

/// ON/OFF mesh traffic between tier pairs (Section V-C): every pair gets
/// an independent ON/OFF process; each ON period is one flow, skipped
/// with probability `reuse_prob` to model TCP connection reuse.
#[derive(Debug, Clone)]
pub struct OnOffMesh {
    /// Communicating `(src, dst, dst port)` pairs.
    pub pairs: Vec<(Ipv4Addr, Ipv4Addr, u16)>,
    /// The ON/OFF period process.
    pub process: OnOffProcess,
    /// Probability an ON period reuses an existing connection (no new
    /// flow observed). The paper uses 0.6.
    pub reuse_prob: f64,
    /// Mean bytes transferred per ON period.
    pub bytes_per_flow: u64,
}

/// A composable experiment scenario.
pub struct Scenario {
    topo: Topology,
    deployment: Deployment,
    seed: u64,
    start: Timestamp,
    end: Timestamp,
    apps: Vec<MultiTierApp>,
    clients: Vec<ClientWorkload>,
    tasks: Vec<(Timestamp, TaskKind)>,
    faults: Vec<(Timestamp, Fault)>,
    meshes: Vec<OnOffMesh>,
    raw_flows: Vec<(Timestamp, FlowSpec)>,
    services: Option<ServiceCatalog>,
    background_services: bool,
}

/// Everything a scenario run produces.
pub struct ScenarioResult {
    /// The captured control-traffic log (time-ordered).
    pub log: ControllerLog,
    /// Aggregate simulation statistics.
    pub stats: SimStats,
    /// Requests injected by client workloads.
    pub requests_injected: usize,
}

impl Scenario {
    /// Starts a scenario on `topo` with workload window `[start, end)`.
    pub fn new(topo: Topology, seed: u64, start: Timestamp, end: Timestamp) -> Scenario {
        Scenario {
            topo,
            deployment: Deployment::Reactive,
            seed,
            start,
            end,
            apps: Vec::new(),
            clients: Vec::new(),
            tasks: Vec::new(),
            faults: Vec::new(),
            meshes: Vec::new(),
            raw_flows: Vec::new(),
            services: None,
            background_services: false,
        }
    }

    /// Sets how the simulated controller installs rules (default:
    /// reactive microflow rules).
    pub fn deployment(&mut self, deployment: Deployment) -> &mut Scenario {
        self.deployment = deployment;
        self
    }

    /// Registers the service catalog used by operator tasks.
    pub fn services(&mut self, catalog: ServiceCatalog) -> &mut Scenario {
        self.services = Some(catalog);
        self
    }

    /// Deploys a multi-tier application.
    pub fn app(&mut self, app: MultiTierApp) -> &mut Scenario {
        self.apps.push(app);
        self
    }

    /// Adds a client request workload (runs over the whole window).
    pub fn client(&mut self, client: ClientWorkload) -> &mut Scenario {
        self.clients.push(client);
        self
    }

    /// Schedules an operator task at `at`.
    ///
    /// # Panics
    ///
    /// Panics at [`Scenario::run`] time if no service catalog was set.
    pub fn task(&mut self, at: Timestamp, task: TaskKind) -> &mut Scenario {
        self.tasks.push((at, task));
        self
    }

    /// Schedules a fault injection at `at`.
    pub fn fault(&mut self, at: Timestamp, fault: Fault) -> &mut Scenario {
        self.faults.push((at, fault));
        self
    }

    /// Schedules a raw flow injection at `at` (e.g. an iperf transfer).
    pub fn flow(&mut self, at: Timestamp, spec: FlowSpec) -> &mut Scenario {
        self.raw_flows.push((at, spec));
        self
    }

    /// Adds ON/OFF mesh traffic.
    pub fn mesh(&mut self, mesh: OnOffMesh) -> &mut Scenario {
        self.meshes.push(mesh);
        self
    }

    /// Enables periodic host-to-service background traffic (every host
    /// syncs NTP roughly twice a minute). Makes host failures
    /// distinguishable from single-application failures: a dead host's
    /// service flows vanish along with its application flows.
    ///
    /// Requires a service catalog.
    pub fn background_services(&mut self, enabled: bool) -> &mut Scenario {
        self.background_services = enabled;
        self
    }

    /// Builds the simulation, runs it past the workload window (plus a
    /// drain period for timeouts to fire), and returns the log.
    pub fn run(&self) -> ScenarioResult {
        let mut sim = Simulation::new(self.topo.clone(), self.deployment, self.seed);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_f10e);
        let mut ports = PortAlloc::new();

        for app in &self.apps {
            sim.add_app(Box::new(app.clone()));
        }
        let mut requests = 0;
        for client in &self.clients {
            requests += client.schedule(&mut sim, &mut rng, &mut ports, self.start, self.end);
        }
        for (at, task) in &self.tasks {
            let catalog = self
                .services
                .as_ref()
                .expect("scenario tasks require a service catalog");
            for (t, spec) in generate_flows(task, catalog, *at, &mut rng) {
                sim.schedule_flow(t, spec);
            }
        }
        for (at, fault) in &self.faults {
            sim.schedule_fault(*at, fault.clone());
        }
        for (at, spec) in &self.raw_flows {
            sim.schedule_flow(*at, spec.clone());
        }
        if self.background_services {
            let catalog = self
                .services
                .as_ref()
                .expect("background services require a service catalog");
            let hosts: Vec<_> = self
                .topo
                .hosts()
                .map(|(id, _)| self.topo.host_ip(id))
                .filter(|ip| !catalog.special_ips().contains(ip))
                .collect();
            for host in hosts {
                let mut t = self.start + rng.gen_range(0..30_000_000u64);
                while t < self.end {
                    let key = FlowKey::udp(host, ports.next_port(), catalog.ntp, 123);
                    sim.schedule_flow(t, FlowSpec::new(key, 90, 1_000));
                    t = t + 25_000_000 + rng.gen_range(0..10_000_000u64);
                }
            }
        }
        let mut eph: u16 = 60_000;
        for mesh in &self.meshes {
            for &(src, dst, dport) in &mesh.pairs {
                for (at, duration) in mesh.process.sample(&mut rng, self.start, self.end) {
                    if rng.gen::<f64>() < mesh.reuse_prob {
                        continue; // reused connection: invisible
                    }
                    eph = if eph >= 64_500 { 60_000 } else { eph + 1 };
                    let bytes =
                        (mesh.bytes_per_flow as f64 * (0.5 + rng.gen::<f64>())).max(64.0) as u64;
                    let key = FlowKey::tcp(src, eph, dst, dport);
                    sim.schedule_flow(at, FlowSpec::new(key, bytes, duration));
                }
            }
        }

        // Drain: let in-flight flows finish and idle timeouts fire.
        let drain = Timestamp::from_secs(IDLE_TIMEOUT_S as u64 + 30);
        sim.run_until(self.end + drain.as_micros());
        ScenarioResult {
            log: sim.take_log(),
            stats: sim.stats(),
            requests_injected: requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::Lab;

    #[test]
    fn three_tier_scenario_produces_chained_flows() {
        let result = Lab::new().webshop(7, 20).run();
        assert!(result.requests_injected > 100);

        // The request chain must be visible in the control traffic:
        // flows to :80, :8080 and :3306.
        let mut to_web = 0;
        let mut to_app = 0;
        let mut to_db = 0;
        for (_, _, _, pi) in result.log.packet_ins() {
            let key = openflow::frame::parse_frame(&pi.data).unwrap();
            match key.tp_dst {
                80 => to_web += 1,
                8080 => to_app += 1,
                3306 => to_db += 1,
                _ => {}
            }
        }
        assert!(to_web > 0 && to_app > 0 && to_db > 0);
        // Each request traverses, chains are 1:1 without reuse (counting
        // PacketIns aggregates over path length, so compare ratios).
        let ratio = to_app as f64 / to_web as f64;
        assert!(ratio > 0.3, "app-tier flows should track web-tier flows");
    }

    #[test]
    fn tasks_require_service_catalog() {
        let lab = Lab::new();
        let vm = lab.ip("VM1");
        let mut sc = Scenario::new(lab.topo, 7, Timestamp::ZERO, Timestamp::from_secs(5));
        sc.task(Timestamp::from_secs(1), TaskKind::VmStop { vm });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sc.run()));
        assert!(result.is_err());
    }

    #[test]
    fn task_flows_appear_in_log() {
        let lab = Lab::new();
        let vm = lab.ip("VM1");
        let mut sc = Scenario::new(lab.topo, 7, Timestamp::ZERO, Timestamp::from_secs(10));
        sc.services(lab.catalog)
            .task(Timestamp::from_secs(1), TaskKind::MountNfs { host: vm });
        let result = sc.run();
        let nfs_flows = result
            .log
            .packet_ins()
            .filter(|(_, _, _, pi)| {
                let key = openflow::frame::parse_frame(&pi.data).unwrap();
                key.tp_dst == crate::services::ports::NFS
            })
            .count();
        assert!(nfs_flows > 0);
    }

    #[test]
    fn mesh_reuse_suppresses_flows() {
        let lab = Lab::new();
        let (a, b) = (lab.ip("S1"), lab.ip("S2"));
        let count_with_reuse = |reuse: f64| {
            let mut sc = Scenario::new(
                lab.topo.clone(),
                7,
                Timestamp::ZERO,
                Timestamp::from_secs(30),
            );
            sc.mesh(OnOffMesh {
                pairs: vec![(a, b, 5001)],
                process: OnOffProcess::default(),
                reuse_prob: reuse,
                bytes_per_flow: 50_000,
            });
            sc.run().stats.flows_started
        };
        let none = count_with_reuse(0.0);
        let heavy = count_with_reuse(0.6);
        assert!(
            (heavy as f64) < none as f64 * 0.6,
            "reuse=0.6 should suppress ~60% of flows: {heavy} vs {none}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let lab = Lab::new();
        let run = || {
            let mut sc = Scenario::new(
                lab.topo.clone(),
                99,
                Timestamp::ZERO,
                Timestamp::from_secs(10),
            );
            sc.services(lab.catalog.clone()).task(
                Timestamp::from_secs(1),
                TaskKind::VmStartup {
                    vm: lab.ip("VM2"),
                    image: crate::tasks::VmImage::Ubuntu,
                },
            );
            sc.run().log
        };
        assert_eq!(run(), run());
    }
}
