//! A discrete-event, flow-level data center network simulator with a
//! reactive OpenFlow control plane.
//!
//! This crate stands in for the physical substrate of the FlowDiff paper
//! (ICDCS 2013): the NEC lab testbed, the Amazon EC2 deployment, and the
//! 320-server simulated network of Section V. It simulates hosts,
//! programmable and legacy switches, links with latency/capacity/loss,
//! a shortest-path reactive controller, and produces the controller-side
//! control-traffic log ([`log::ControllerLog`]) that FlowDiff consumes.
//!
//! # Example
//!
//! ```
//! use netsim::prelude::*;
//! use openflow::match_fields::FlowKey;
//!
//! let topo = Topology::lab();
//! let src = topo.host_ip(topo.node_by_name("S1").unwrap());
//! let dst = topo.host_ip(topo.node_by_name("S2").unwrap());
//!
//! let mut sim = Simulation::new(topo, Deployment::Reactive, 42);
//! let key = FlowKey::tcp(src, 40_000, dst, 80);
//! sim.schedule_flow(Timestamp::from_secs(1), FlowSpec::new(key, 8_192, 5_000));
//! sim.run_until(Timestamp::from_secs(30));
//!
//! let log = sim.take_log();
//! assert!(log.packet_ins().count() >= 1);
//! ```

pub mod apps;
pub mod config;
pub mod controller;
pub mod engine;
pub mod faults;
pub mod flows;
pub mod log;
pub mod net;
pub mod topology;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::apps::{AppCtx, AppLogic};
    pub use crate::config::Deployment;
    pub use crate::engine::{SimStats, Simulation};
    pub use crate::faults::{
        ChannelChaos, ChaosReport, ConnChaos, ConnFault, ConnPlan, CrashPlan, Fault,
    };
    pub use crate::flows::{DeliveredFlow, FlowId, FlowPhase, FlowSpec};
    pub use crate::log::{
        ControlEvent, ControllerLog, DecodeError, Direction, EventBody, FlowEvent, FlowTuple,
        FrameDecoder, LogStream,
    };
    pub use crate::net::{
        publish_mangled, publish_session, split_capture, ConnState, DisconnectCause, EventMerge,
        IngestServer, LiveIngest, LiveOptions, PublishReport, SessionGauge, SessionOptions,
    };
    pub use crate::topology::{LinkId, NodeId, Topology};
    pub use openflow::types::Timestamp;
}
