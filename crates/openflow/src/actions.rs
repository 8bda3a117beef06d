//! OpenFlow 1.0 flow actions.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::types::{MacAddr, PortNo, VlanId};

/// An action applied to packets matching a flow entry.
///
/// Only the OpenFlow 1.0 standard actions are modeled; vendor extensions
/// are out of scope for the FlowDiff reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Forward out a port, sending at most `max_len` bytes to the
    /// controller when `port == PortNo::CONTROLLER`.
    Output {
        /// Egress port (may be a reserved virtual port).
        port: PortNo,
        /// Bytes to send to the controller for `CONTROLLER` outputs.
        max_len: u16,
    },
    /// Set the 802.1Q VLAN id.
    SetVlanVid(VlanId),
    /// Set the 802.1Q priority.
    SetVlanPcp(u8),
    /// Strip the 802.1Q header.
    StripVlan,
    /// Rewrite the Ethernet source address.
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination address.
    SetDlDst(MacAddr),
    /// Rewrite the IPv4 source address.
    SetNwSrc(Ipv4Addr),
    /// Rewrite the IPv4 destination address.
    SetNwDst(Ipv4Addr),
    /// Rewrite the IP type-of-service bits.
    SetNwTos(u8),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
    /// Forward through a queue attached to a port.
    Enqueue {
        /// Egress port.
        port: PortNo,
        /// Queue id on that port.
        queue_id: u32,
    },
}

impl Action {
    /// Shorthand for a plain forward with no controller truncation.
    pub fn output(port: PortNo) -> Action {
        Action::Output { port, max_len: 0 }
    }

    /// The wire type code of this action (`ofp_action_type`).
    pub fn type_code(&self) -> u16 {
        match self {
            Action::Output { .. } => 0,
            Action::SetVlanVid(_) => 1,
            Action::SetVlanPcp(_) => 2,
            Action::StripVlan => 3,
            Action::SetDlSrc(_) => 4,
            Action::SetDlDst(_) => 5,
            Action::SetNwSrc(_) => 6,
            Action::SetNwDst(_) => 7,
            Action::SetNwTos(_) => 8,
            Action::SetTpSrc(_) => 9,
            Action::SetTpDst(_) => 10,
            Action::Enqueue { .. } => 11,
        }
    }

    /// Length of the action structure on the wire, always a multiple of 8.
    pub fn wire_len(&self) -> u16 {
        match self {
            Action::Output { .. } => 8,
            Action::SetVlanVid(_) | Action::SetVlanPcp(_) | Action::StripVlan => 8,
            Action::SetDlSrc(_) | Action::SetDlDst(_) => 16,
            Action::SetNwSrc(_) | Action::SetNwDst(_) | Action::SetNwTos(_) => 8,
            Action::SetTpSrc(_) | Action::SetTpDst(_) => 8,
            Action::Enqueue { .. } => 16,
        }
    }

    /// If this action forwards packets, the egress port.
    pub fn output_port(&self) -> Option<PortNo> {
        match self {
            Action::Output { port, .. } => Some(*port),
            Action::Enqueue { port, .. } => Some(*port),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output { port, .. } => write!(f, "output({port})"),
            Action::SetVlanVid(v) => write!(f, "set_vlan({v})"),
            Action::SetVlanPcp(p) => write!(f, "set_vlan_pcp({p})"),
            Action::StripVlan => write!(f, "strip_vlan"),
            Action::SetDlSrc(m) => write!(f, "set_dl_src({m})"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst({m})"),
            Action::SetNwSrc(ip) => write!(f, "set_nw_src({ip})"),
            Action::SetNwDst(ip) => write!(f, "set_nw_dst({ip})"),
            Action::SetNwTos(t) => write!(f, "set_nw_tos({t})"),
            Action::SetTpSrc(p) => write!(f, "set_tp_src({p})"),
            Action::SetTpDst(p) => write!(f, "set_tp_dst({p})"),
            Action::Enqueue { port, queue_id } => write!(f, "enqueue({port}, q{queue_id})"),
        }
    }
}

/// Returns the first output port of an action list, if any.
///
/// Reactive forwarding installs a single-output action list per hop, so
/// "the" egress port of a microflow entry is well defined.
pub fn first_output(actions: &[Action]) -> Option<PortNo> {
    actions.iter().find_map(Action::output_port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_helpers() {
        let a = Action::output(PortNo(3));
        assert_eq!(a.output_port(), Some(PortNo(3)));
        let c = Action::Output {
            port: PortNo::CONTROLLER,
            max_len: 128,
        };
        assert_eq!(c.output_port(), Some(PortNo::CONTROLLER));
        assert_eq!(Action::StripVlan.output_port(), None);
    }

    #[test]
    fn type_codes_match_of10_spec() {
        assert_eq!(Action::output(PortNo(1)).type_code(), 0);
        assert_eq!(Action::StripVlan.type_code(), 3);
        assert_eq!(
            Action::Enqueue {
                port: PortNo(1),
                queue_id: 0
            }
            .type_code(),
            11
        );
    }

    #[test]
    fn wire_lengths_are_multiples_of_eight() {
        let actions = [
            Action::output(PortNo(1)),
            Action::SetVlanVid(VlanId(4)),
            Action::SetDlSrc(MacAddr::from_u64(1)),
            Action::SetNwDst(Ipv4Addr::new(10, 0, 0, 1)),
            Action::SetTpDst(80),
            Action::Enqueue {
                port: PortNo(2),
                queue_id: 7,
            },
        ];
        for a in actions {
            assert_eq!(a.wire_len() % 8, 0, "{a} has unaligned length");
        }
    }

    #[test]
    fn first_output_scans_list() {
        let list = [
            Action::SetNwTos(4),
            Action::output(PortNo(9)),
            Action::output(PortNo(10)),
        ];
        assert_eq!(first_output(&list), Some(PortNo(9)));
        assert_eq!(first_output(&[]), None);
        assert_eq!(first_output(&[Action::StripVlan]), None);
    }
}
