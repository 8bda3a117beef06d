//! Simulation parameters.
//!
//! The deployment mode is the simulator's one setting. Everything else
//! is a constant, because every experiment runs the paper's reactive
//! deployment (DESIGN.md §6 lists their sources): per-flow (microflow)
//! rules with a 5-second soft timeout and no hard timeout,
//! sub-millisecond control channel and controller service times, and
//! 1500-byte packets.

use serde::{Deserialize, Serialize};

/// Idle (soft) timeout installed on reactive flow entries, seconds
/// (paper: 5 s).
pub const IDLE_TIMEOUT_S: u16 = 5;
/// Hard timeout installed on reactive flow entries, seconds (paper: none,
/// so 0).
pub const HARD_TIMEOUT_S: u16 = 0;
/// One-way control channel latency between a switch and the controller,
/// microseconds (sub-millisecond, as on the paper's lab network).
pub const CONTROL_LATENCY_US: u64 = 500;
/// Uniform jitter added to the control channel latency, microseconds.
pub const CONTROL_JITTER_US: u64 = 100;
/// Mean controller service time per `PacketIn`, microseconds
/// (sub-millisecond, as the paper's controller).
pub const CONTROLLER_SERVICE_US: u64 = 150;
/// Uniform jitter on the controller service time, microseconds.
pub const CONTROLLER_JITTER_US: u64 = 50;
/// Switch forwarding (pipeline) delay per hop, microseconds.
pub const SWITCH_PROC_US: u64 = 25;
/// Average packet size used to convert flow bytes to packets, bytes
/// (the Ethernet MTU).
pub const PACKET_SIZE: u64 = 1500;
/// Bytes of each frame forwarded to the controller in `PacketIn`
/// (OpenFlow 1.0's default `miss_send_len`).
pub const MISS_SEND_LEN: u16 = 128;
/// TCP retransmission timeout charged per first-packet loss,
/// microseconds (Linux's 200 ms minimum RTO).
pub const RTO_US: u64 = 200_000;
/// Switches request `FlowRemoved` notifications, which carry the
/// per-flow counters FlowDiff's flow statistics are built from.
pub const NOTIFY_FLOW_REMOVED: bool = true;
/// Echo keepalive period per switch, seconds. Echo replies are the
/// controller's switch-liveness signal.
pub const ECHO_INTERVAL_S: u64 = 5;
/// Port-statistics polling period, seconds. The controller polls
/// per-port byte counters, giving FlowDiff its link-utilization baseline
/// (Section III-C).
pub const STATS_POLL_INTERVAL_S: u64 = 10;

/// How forwarding rules get installed (Section VI of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Deployment {
    /// Reactive microflow rules: every new flow triggers a `PacketIn`
    /// at every on-path switch — maximum visibility (the paper's main
    /// mode).
    Reactive,
    /// Reactive *wildcard* rules covering a destination prefix: the
    /// first flow to a prefix triggers control traffic, subsequent
    /// flows to the same prefix are invisible. Trades control-plane
    /// load for measurement granularity.
    Wildcard {
        /// Prefix length of installed rules (e.g. 24 for /24).
        prefix_len: u32,
    },
    /// Rules installed proactively: no table misses, hence no
    /// `PacketIn`/`FlowRemoved` traffic at all. FlowDiff is blind to
    /// applications in this mode (only echo liveness remains).
    Proactive,
}

/// Number of packets a flow of `bytes` bytes occupies.
pub fn packets_for(bytes: u64) -> u64 {
    bytes.div_ceil(PACKET_SIZE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reactive() {
        assert_eq!(IDLE_TIMEOUT_S, 5);
        assert_eq!(HARD_TIMEOUT_S, 0);
        const { assert!(NOTIFY_FLOW_REMOVED) };
    }

    #[test]
    fn packets_round_up_and_never_zero() {
        assert_eq!(packets_for(0), 1);
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(1500), 1);
        assert_eq!(packets_for(1501), 2);
        assert_eq!(packets_for(15_000), 10);
    }
}
