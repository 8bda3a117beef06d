//! The reactive OpenFlow controller model.
//!
//! Routing: latency-weighted shortest path over the switch fabric, like
//! NOX's routing application. Timing: a single-server queue — each
//! `PacketIn` occupies the controller for a sampled service time, and
//! requests that arrive while it is busy queue up. This reproduces both
//! the controller response time (CRT) signature and the overload behavior
//! FlowDiff flags (Figure 2(b), "controller overhead").

use openflow::types::Timestamp;
use rand::rngs::StdRng;
use rand::Rng;

use crate::topology::{NodeId, Topology};

/// The controller's timing and routing model.
#[derive(Debug, Clone)]
pub struct ControllerModel {
    service_us: u64,
    jitter_us: u64,
    /// Service-time multiplier; raised by the controller-overload fault.
    pub degradation: f64,
    busy_until: Timestamp,
}

impl ControllerModel {
    /// Creates a controller whose service time is `service_us` plus a
    /// uniform jitter in `[0, jitter_us]`, microseconds.
    pub fn new(service_us: u64, jitter_us: u64) -> ControllerModel {
        ControllerModel {
            service_us,
            jitter_us,
            degradation: 1.0,
            busy_until: Timestamp::ZERO,
        }
    }

    /// Computes the response latency for a `PacketIn` arriving at
    /// `arrival`: queueing delay (if the controller is busy) plus a
    /// sampled service time.
    pub fn response_delay(&mut self, arrival: Timestamp, rng: &mut StdRng) -> u64 {
        let jitter = rng.gen_range(0..=self.jitter_us);
        let service = ((self.service_us + jitter) as f64 * self.degradation) as u64;
        let start = self.busy_until.max(arrival);
        self.busy_until = start + service;
        self.busy_until - arrival
    }

    /// Routes a flow from `src` host to `dst` host, avoiding failed
    /// switches. Returns the full node path including both hosts.
    pub fn route(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        is_failed: impl Fn(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        topo.shortest_path(src, dst, is_failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn idle_controller_responds_in_service_time() {
        let mut c = ControllerModel::new(100, 0);
        let d = c.response_delay(Timestamp::from_secs(1), &mut rng());
        assert_eq!(d, 100);
    }

    #[test]
    fn burst_arrivals_queue_up() {
        let mut c = ControllerModel::new(100, 0);
        let t = Timestamp::from_secs(1);
        // three requests at the same instant: 100, 200, 300 us responses
        assert_eq!(c.response_delay(t, &mut rng()), 100);
        assert_eq!(c.response_delay(t, &mut rng()), 200);
        assert_eq!(c.response_delay(t, &mut rng()), 300);
        // after the queue drains, responses return to service time
        let later = t + 10_000;
        assert_eq!(c.response_delay(later, &mut rng()), 100);
    }

    #[test]
    fn degradation_scales_service_time() {
        let mut c = ControllerModel::new(100, 0);
        c.degradation = 5.0;
        assert_eq!(c.response_delay(Timestamp::from_secs(1), &mut rng()), 500);
    }

    #[test]
    fn route_avoids_failed_switch() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        t.connect(h1, s1, 1, 1);
        t.connect(s1, s2, 1, 1);
        t.connect(s1, s3, 1, 1);
        t.connect(s2, h2, 1, 1);
        t.connect(s3, h2, 1, 1);
        let c = ControllerModel::new(100, 0);
        let p = c.route(&t, h1, h2, |n| n == s2).unwrap();
        assert!(p.contains(&s3));
        assert!(!p.contains(&s2));
    }
}
