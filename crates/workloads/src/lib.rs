//! Workload generation for the FlowDiff reproduction: multi-tier
//! applications, request arrival processes, special-purpose service
//! nodes, operator task flow sequences, scenario composition, and the
//! paper's two testbeds.
//!
//! The paper exercises FlowDiff with retail/auction/bulletin-board
//! three-tier applications under Poisson workloads (lab), VM lifecycle
//! tasks (lab and EC2), and ON/OFF mesh traffic on a 320-server tree
//! (simulation). This crate generates all of them against the `netsim`
//! simulator.
//!
//! # Example
//!
//! ```
//! use workloads::prelude::*;
//!
//! let lab = Lab::new();
//! let mut scenario = lab.webshop(42, 10);
//! // ... add tasks, faults, flows or more clients, then:
//! scenario.fault(
//!     Timestamp::from_secs(5),
//!     Fault::HostSlowdown { host: lab.node("S4"), extra_us: 150_000 },
//! );
//! let result = scenario.run();
//! assert!(result.requests_injected > 0);
//! ```

pub mod apps;
pub mod arrival;
pub mod scenario;
pub mod services;
pub mod tasks;
pub mod testbeds;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::apps::{templates, ClientWorkload, MultiTierApp, PortAlloc, TierConfig};
    pub use crate::arrival::{ArrivalProcess, OnOffProcess};
    pub use crate::scenario::{OnOffMesh, Scenario, ScenarioResult};
    pub use crate::services::{install_services, ports as service_ports, ServiceCatalog};
    pub use crate::tasks::{generate_flows, TaskKind, VmImage};
    pub use crate::testbeds::{tree_mesh, Injection, Lab, Problem};
    pub use netsim::prelude::*;
}
