//! OpenFlow 1.0 message structures.
//!
//! The three messages FlowDiff consumes are [`PacketIn`] (a switch reports a
//! table miss), [`FlowMod`] (the controller installs a rule), and
//! [`FlowRemoved`] (a rule expired, carrying final byte/packet counters and
//! duration). The remaining messages implement enough of the protocol for a
//! faithful reactive control loop: handshake, echo, features, packet-out,
//! port status, barrier, and flow/aggregate/port statistics.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::actions::Action;
use crate::match_fields::OfMatch;
use crate::types::{BufferId, Cookie, DatapathId, MacAddr, PortNo};

/// Why a switch sent a [`PacketIn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketInReason {
    /// No flow table entry matched the packet.
    NoMatch,
    /// An explicit `output:CONTROLLER` action fired.
    Action,
}

/// A packet (or its prefix) forwarded from a switch to the controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketIn {
    /// Id of the packet buffered on the switch, if any.
    pub buffer_id: BufferId,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Why the packet was sent to the controller.
    pub reason: PacketInReason,
    /// The captured frame bytes (possibly truncated to `miss_send_len`).
    /// The decoder copies each payload out of the capture buffer into
    /// one shared allocation; clones of the message then share that copy.
    pub data: Arc<[u8]>,
}

/// A controller instruction to emit a packet from a switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketOut {
    /// Buffered packet to release, or `NO_BUFFER` when `data` carries it.
    pub buffer_id: BufferId,
    /// The port the packet originally arrived on (for `IN_PORT` outputs).
    pub in_port: PortNo,
    /// Actions applied to the packet (typically one `Output`).
    pub actions: Vec<Action>,
    /// Raw frame when not buffered.
    pub data: Arc<[u8]>,
}

/// Flow-mod commands (`ofp_flow_mod_command`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowModCommand {
    /// Insert a new entry.
    Add,
    /// Modify all matching entries' actions.
    Modify,
    /// Modify the entry strictly matching (same match and priority).
    ModifyStrict,
    /// Delete all matching entries.
    Delete,
    /// Delete the entry strictly matching.
    DeleteStrict,
}

/// Flow-mod flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FlowModFlags {
    /// Emit a [`FlowRemoved`] when the entry expires or is deleted.
    pub send_flow_rem: bool,
    /// Refuse to add an overlapping entry.
    pub check_overlap: bool,
    /// Account in emergency flow table (unused by the simulator).
    pub emergency: bool,
}

/// A controller request to add, modify, or delete flow table entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowMod {
    /// Fields the entry matches on.
    pub match_: OfMatch,
    /// Opaque controller-chosen id echoed in `FlowRemoved`.
    pub cookie: Cookie,
    /// What to do.
    pub command: FlowModCommand,
    /// Seconds of inactivity before expiry (0 = none).
    pub idle_timeout: u16,
    /// Seconds after installation before expiry (0 = none).
    pub hard_timeout: u16,
    /// Matching priority; higher wins. Ignored for exact matches.
    pub priority: u16,
    /// Buffered packet to apply the new rule to on installation.
    pub buffer_id: BufferId,
    /// For delete commands: restrict to entries forwarding to this port
    /// (`PortNo::NONE` disables the filter).
    pub out_port: PortNo,
    /// Behavior flags.
    pub flags: FlowModFlags,
    /// Actions applied to matching packets; empty means drop.
    pub actions: Vec<Action>,
}

impl FlowMod {
    /// Starts an `Add` flow-mod with `send_flow_rem` set (the reactive
    /// controller always wants removal notifications — they carry the flow
    /// statistics FlowDiff consumes).
    pub fn add(match_: OfMatch, priority: u16) -> FlowMod {
        FlowMod {
            match_,
            cookie: Cookie::default(),
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: FlowModFlags {
                send_flow_rem: true,
                ..FlowModFlags::default()
            },
            actions: Vec::new(),
        }
    }

    /// Builds a `Delete` flow-mod for all entries covered by `match_`.
    pub fn delete(match_: OfMatch) -> FlowMod {
        FlowMod {
            match_,
            cookie: Cookie::default(),
            command: FlowModCommand::Delete,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: FlowModFlags::default(),
            actions: Vec::new(),
        }
    }

    /// Sets the idle (soft) timeout in seconds.
    #[must_use]
    pub fn idle_timeout(mut self, secs: u16) -> FlowMod {
        self.idle_timeout = secs;
        self
    }

    /// Sets the hard timeout in seconds.
    #[must_use]
    pub fn hard_timeout(mut self, secs: u16) -> FlowMod {
        self.hard_timeout = secs;
        self
    }

    /// Sets the cookie.
    #[must_use]
    pub fn cookie(mut self, cookie: Cookie) -> FlowMod {
        self.cookie = cookie;
        self
    }

    /// Appends an action.
    #[must_use]
    pub fn action(mut self, action: Action) -> FlowMod {
        self.actions.push(action);
        self
    }
}

/// Why a flow entry was removed (`ofp_flow_removed_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowRemovedReason {
    /// Idle (soft) timeout fired.
    IdleTimeout,
    /// Hard timeout fired.
    HardTimeout,
    /// Explicitly deleted by a flow-mod.
    Delete,
}

/// Notification that a flow entry expired, carrying its final counters.
///
/// FlowDiff derives the flow-statistics (FS) application signature from
/// these counters: per-flow duration, byte count, and packet count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRemoved {
    /// The match of the removed entry.
    pub match_: OfMatch,
    /// Cookie of the removed entry.
    pub cookie: Cookie,
    /// Priority of the removed entry.
    pub priority: u16,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
    /// Seconds the entry was installed.
    pub duration_sec: u32,
    /// Sub-second part of the duration, in nanoseconds.
    pub duration_nsec: u32,
    /// The entry's idle timeout.
    pub idle_timeout: u16,
    /// Packets matched over the entry's lifetime.
    pub packet_count: u64,
    /// Bytes matched over the entry's lifetime.
    pub byte_count: u64,
}

impl FlowRemoved {
    /// The entry lifetime as fractional seconds.
    pub fn duration_secs_f64(&self) -> f64 {
        self.duration_sec as f64 + self.duration_nsec as f64 * 1e-9
    }
}

/// Description of one physical port in a features reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhyPort {
    /// Port number.
    pub port_no: PortNo,
    /// MAC address of the port.
    pub hw_addr: MacAddr,
    /// Human-readable interface name.
    pub name: String,
    /// True when the link is up.
    pub link_up: bool,
}

/// The switch handshake response (`OFPT_FEATURES_REPLY`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchFeatures {
    /// Unique switch id.
    pub datapath_id: DatapathId,
    /// Packets the switch can buffer while consulting the controller.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Physical ports.
    pub ports: Vec<PhyPort>,
}

/// Reason codes for a [`PortStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortReason {
    /// A port was added.
    Add,
    /// A port was removed.
    Delete,
    /// A port's state changed (e.g. link up/down).
    Modify,
}

/// Asynchronous port state change notification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortStatus {
    /// What happened.
    pub reason: PortReason,
    /// The affected port.
    pub port: PhyPort,
}

/// Per-entry statistics, as carried in a flow-stats reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// The entry's match.
    pub match_: OfMatch,
    /// Entry priority.
    pub priority: u16,
    /// Seconds installed.
    pub duration_sec: u32,
    /// Entry idle timeout.
    pub idle_timeout: u16,
    /// Entry hard timeout.
    pub hard_timeout: u16,
    /// Cookie.
    pub cookie: Cookie,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
}

/// Aggregate statistics over all entries covered by a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AggregateStats {
    /// Total packets.
    pub packet_count: u64,
    /// Total bytes.
    pub byte_count: u64,
    /// Number of covered entries.
    pub flow_count: u32,
}

/// Per-port counters, as carried in a port-stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortStats {
    /// Port the counters belong to.
    pub port_no: PortNo,
    /// Received packets.
    pub rx_packets: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Received bytes.
    pub rx_bytes: u64,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Packets dropped on receive.
    pub rx_dropped: u64,
    /// Packets dropped on transmit.
    pub tx_dropped: u64,
}

/// A statistics request body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsRequest {
    /// Per-entry flow statistics for entries covered by the match.
    Flow {
        /// Filter match.
        match_: OfMatch,
        /// Restrict to entries forwarding to this port (`NONE` = no filter).
        out_port: PortNo,
    },
    /// Aggregate statistics for entries covered by the match.
    Aggregate {
        /// Filter match.
        match_: OfMatch,
        /// Output-port filter.
        out_port: PortNo,
    },
    /// Counters for one port or all ports (`PortNo::NONE`).
    Port {
        /// Port selector.
        port_no: PortNo,
    },
}

/// An error the switch reports to the controller (`OFPT_ERROR`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorMsg {
    /// High-level error type (`ofp_error_type`; 3 = flow-mod failed).
    pub err_type: u16,
    /// Error code within the type (0 under flow-mod-failed = ALL_TABLES_FULL).
    pub code: u16,
    /// The offending request's bytes (at least 64 bytes per the spec;
    /// the simulator stores what it has).
    pub data: Arc<[u8]>,
}

impl ErrorMsg {
    /// `OFPET_FLOW_MOD_FAILED` / `OFPFMFC_ALL_TABLES_FULL`: the add
    /// failed because the flow table is full.
    pub fn table_full() -> ErrorMsg {
        ErrorMsg {
            err_type: 3,
            code: 0,
            data: Arc::default(),
        }
    }

    /// True for a table-full flow-mod failure.
    pub fn is_table_full(&self) -> bool {
        self.err_type == 3 && self.code == 0
    }
}

/// A statistics reply body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsReply {
    /// Flow entries and their counters.
    Flow(Vec<FlowStats>),
    /// Aggregated counters.
    Aggregate(AggregateStats),
    /// Port counters.
    Port(Vec<PortStats>),
}

/// Any OpenFlow 1.0 message this crate understands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OfpMessage {
    /// Version negotiation (no body).
    Hello,
    /// Switch-reported error.
    Error(ErrorMsg),
    /// Liveness probe carrying arbitrary payload.
    EchoRequest(Arc<[u8]>),
    /// Echo response; must carry the request payload.
    EchoReply(Arc<[u8]>),
    /// Ask the switch for its features.
    FeaturesRequest,
    /// The switch handshake response.
    FeaturesReply(SwitchFeatures),
    /// Switch-to-controller packet report.
    PacketIn(PacketIn),
    /// Controller-to-switch packet emission.
    PacketOut(PacketOut),
    /// Flow table mutation.
    FlowMod(FlowMod),
    /// Flow expiry notification.
    FlowRemoved(FlowRemoved),
    /// Port state change notification.
    PortStatus(PortStatus),
    /// Statistics request.
    StatsRequest(StatsRequest),
    /// Statistics reply.
    StatsReply(StatsReply),
    /// Barrier request (no body).
    BarrierRequest,
    /// Barrier reply (no body).
    BarrierReply,
}

impl OfpMessage {
    /// The wire message-type code (`ofp_type`).
    pub fn type_code(&self) -> u8 {
        match self {
            OfpMessage::Hello => 0,
            OfpMessage::Error(_) => 1,
            OfpMessage::EchoRequest(_) => 2,
            OfpMessage::EchoReply(_) => 3,
            OfpMessage::FeaturesRequest => 5,
            OfpMessage::FeaturesReply(_) => 6,
            OfpMessage::PacketIn(_) => 10,
            OfpMessage::FlowRemoved(_) => 11,
            OfpMessage::PortStatus(_) => 12,
            OfpMessage::PacketOut(_) => 13,
            OfpMessage::FlowMod(_) => 14,
            OfpMessage::StatsRequest(_) => 16,
            OfpMessage::StatsReply(_) => 17,
            OfpMessage::BarrierRequest => 18,
            OfpMessage::BarrierReply => 19,
        }
    }

    /// Short human-readable name for logs and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OfpMessage::Hello => "hello",
            OfpMessage::Error(_) => "error",
            OfpMessage::EchoRequest(_) => "echo_request",
            OfpMessage::EchoReply(_) => "echo_reply",
            OfpMessage::FeaturesRequest => "features_request",
            OfpMessage::FeaturesReply(_) => "features_reply",
            OfpMessage::PacketIn(_) => "packet_in",
            OfpMessage::FlowRemoved(_) => "flow_removed",
            OfpMessage::PortStatus(_) => "port_status",
            OfpMessage::PacketOut(_) => "packet_out",
            OfpMessage::FlowMod(_) => "flow_mod",
            OfpMessage::StatsRequest(_) => "stats_request",
            OfpMessage::StatsReply(_) => "stats_reply",
            OfpMessage::BarrierRequest => "barrier_request",
            OfpMessage::BarrierReply => "barrier_reply",
        }
    }

    /// True for switch-to-controller asynchronous messages.
    pub fn is_async_from_switch(&self) -> bool {
        matches!(
            self,
            OfpMessage::PacketIn(_)
                | OfpMessage::FlowRemoved(_)
                | OfpMessage::PortStatus(_)
                | OfpMessage::Error(_)
        )
    }
}

impl fmt::Display for OfpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_fields::FlowKey;
    use std::net::Ipv4Addr;

    fn sample_match() -> OfMatch {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        OfMatch::exact(&key, PortNo(1))
    }

    #[test]
    fn flow_mod_builder_sets_fields() {
        let fm = FlowMod::add(sample_match(), 42)
            .idle_timeout(5)
            .hard_timeout(60)
            .cookie(Cookie(7))
            .action(Action::output(PortNo(2)));
        assert_eq!(fm.command, FlowModCommand::Add);
        assert_eq!(fm.priority, 42);
        assert_eq!(fm.idle_timeout, 5);
        assert_eq!(fm.hard_timeout, 60);
        assert_eq!(fm.cookie, Cookie(7));
        assert!(fm.flags.send_flow_rem, "reactive adds request FlowRemoved");
        assert_eq!(fm.actions.len(), 1);
    }

    #[test]
    fn flow_mod_delete_has_no_timeouts() {
        let fm = FlowMod::delete(OfMatch::any());
        assert_eq!(fm.command, FlowModCommand::Delete);
        assert_eq!(fm.idle_timeout, 0);
        assert_eq!(fm.out_port, PortNo::NONE);
    }

    #[test]
    fn flow_removed_duration_combines_parts() {
        let fr = FlowRemoved {
            match_: sample_match(),
            cookie: Cookie(0),
            priority: 1,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 2,
            duration_nsec: 500_000_000,
            idle_timeout: 5,
            packet_count: 10,
            byte_count: 1000,
        };
        assert!((fr.duration_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn type_codes_match_of10() {
        assert_eq!(OfpMessage::Hello.type_code(), 0);
        assert_eq!(
            OfpMessage::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: 0,
                in_port: PortNo(1),
                reason: PacketInReason::NoMatch,
                data: Arc::default(),
            })
            .type_code(),
            10
        );
        assert_eq!(OfpMessage::BarrierReply.type_code(), 19);
    }

    #[test]
    fn async_classification() {
        assert!(OfpMessage::FlowRemoved(FlowRemoved {
            match_: OfMatch::any(),
            cookie: Cookie(0),
            priority: 0,
            reason: FlowRemovedReason::Delete,
            duration_sec: 0,
            duration_nsec: 0,
            idle_timeout: 0,
            packet_count: 0,
            byte_count: 0,
        })
        .is_async_from_switch());
        assert!(!OfpMessage::Hello.is_async_from_switch());
        assert!(!OfpMessage::FlowMod(FlowMod::delete(OfMatch::any())).is_async_from_switch());
    }
}
