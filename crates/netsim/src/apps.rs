//! The application-logic extension point.
//!
//! Simulated multi-tier applications react to flow deliveries: a request
//! arriving at a web server triggers a flow to an application server after
//! a processing delay, and so on. The engine invokes every registered
//! [`AppLogic`] when a flow's first packet reaches its destination host;
//! the logic responds by scheduling dependent flows through [`AppCtx`].

use openflow::types::Timestamp;
use rand::rngs::StdRng;

use crate::flows::{DeliveredFlow, FlowSpec};
use crate::topology::Topology;

/// Application behavior attached to a simulation.
pub trait AppLogic {
    /// Called when a flow's first packet reaches its destination host.
    ///
    /// Implementations typically check whether `flow.dst` is one of their
    /// nodes and, if so, schedule dependent flows via
    /// [`AppCtx::schedule_flow_after`].
    fn on_flow_delivered(&mut self, flow: &DeliveredFlow, ctx: &mut AppCtx<'_>);
}

/// The engine facilities available to application logic during a delivery
/// callback.
pub struct AppCtx<'a> {
    pub(crate) now: Timestamp,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) topo: &'a Topology,
    /// Extra processing delay of the host handling the request
    /// (fault-injected slowdown), microseconds.
    pub(crate) host_slowdown_us: u64,
    pub(crate) queued: Vec<(Timestamp, FlowSpec)>,
}

impl<'a> AppCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The topology, for resolving hosts.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Fault-injected extra processing delay of the delivering host,
    /// microseconds. The engine also adds this to every flow scheduled
    /// from this context, so most logic can ignore it.
    pub fn host_slowdown_us(&self) -> u64 {
        self.host_slowdown_us
    }

    /// Schedules a dependent flow `delay_us` after now. The
    /// fault-injected slowdown of the handling host is added
    /// automatically, so application code only models its intrinsic
    /// processing time.
    pub fn schedule_flow_after(&mut self, delay_us: u64, spec: FlowSpec) {
        let at = self.now + delay_us + self.host_slowdown_us;
        self.queued.push((at, spec));
    }
}
