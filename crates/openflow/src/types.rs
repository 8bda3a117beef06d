//! Primitive protocol types shared across the crate.
//!
//! Each identifier used by the OpenFlow protocol is wrapped in a newtype so
//! that a datapath id can never be confused with a transaction id, a buffer
//! id, or a cookie (C-NEWTYPE).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 64-bit switch identifier (the lower 48 bits are conventionally the
/// switch MAC address).
///
/// ```
/// use openflow::types::DatapathId;
/// let dpid = DatapathId(0x0000_00ab_cdef_0123);
/// assert_eq!(format!("{dpid}"), "dpid:000000abcdef0123");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DatapathId(pub u64);

impl fmt::Display for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpid:{:016x}", self.0)
    }
}

impl From<u64> for DatapathId {
    fn from(raw: u64) -> Self {
        DatapathId(raw)
    }
}

/// A 16-bit switch port number.
///
/// Ports above [`PortNo::MAX_PHYSICAL`] are reserved virtual ports with
/// special forwarding semantics, mirroring the OpenFlow 1.0 `ofp_port`
/// enumeration.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Maximum number of a real (physical) switch port.
    pub const MAX_PHYSICAL: PortNo = PortNo(0xff00);
    /// Send the packet back out the port it arrived on.
    pub const IN_PORT: PortNo = PortNo(0xfff8);
    /// Submit to the flow table (valid in packet-out only).
    pub const TABLE: PortNo = PortNo(0xfff9);
    /// Process with normal L2/L3 switching.
    pub const NORMAL: PortNo = PortNo(0xfffa);
    /// Flood along the minimum spanning tree.
    pub const FLOOD: PortNo = PortNo(0xfffb);
    /// Send out all physical ports except the input port.
    pub const ALL: PortNo = PortNo(0xfffc);
    /// Send to the controller.
    pub const CONTROLLER: PortNo = PortNo(0xfffd);
    /// The switch-local networking stack.
    pub const LOCAL: PortNo = PortNo(0xfffe);
    /// Wildcard port used in flow-mod and flow-stats requests.
    pub const NONE: PortNo = PortNo(0xffff);

    /// Returns true for a real, physical port number.
    pub fn is_physical(self) -> bool {
        self <= Self::MAX_PHYSICAL && self.0 > 0
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::CONTROLLER => write!(f, "port:controller"),
            Self::FLOOD => write!(f, "port:flood"),
            Self::ALL => write!(f, "port:all"),
            Self::NONE => write!(f, "port:none"),
            Self::LOCAL => write!(f, "port:local"),
            PortNo(n) => write!(f, "port:{n}"),
        }
    }
}

/// A 32-bit transaction identifier carried in every OpenFlow header.
///
/// Replies echo the `Xid` of the request they answer; FlowDiff uses this to
/// pair `PacketIn` messages with the `FlowMod`/`PacketOut` they trigger when
/// computing the controller response time signature.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Xid(pub u32);

impl Xid {
    /// Returns the next transaction id, wrapping on overflow.
    pub fn next(self) -> Xid {
        Xid(self.0.wrapping_add(1))
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xid:{}", self.0)
    }
}

/// A 32-bit id referencing a packet buffered on the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BufferId(pub u32);

impl BufferId {
    /// Indicates that no packet is buffered (`0xffffffff` on the wire).
    pub const NO_BUFFER: BufferId = BufferId(u32::MAX);

    /// Returns true if this id references an actual buffered packet.
    pub fn is_buffered(self) -> bool {
        self != Self::NO_BUFFER
    }
}

impl Default for BufferId {
    fn default() -> Self {
        Self::NO_BUFFER
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_buffered() {
            write!(f, "buf:{}", self.0)
        } else {
            write!(f, "buf:none")
        }
    }
}

/// An opaque 64-bit value chosen by the controller and attached to flow
/// entries; echoed back in `FlowRemoved`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cookie(pub u64);

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cookie:{:#x}", self.0)
    }
}

/// An 802.1Q VLAN identifier. `VlanId::NONE` means "no VLAN tag present".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VlanId(pub u16);

impl VlanId {
    /// No VLAN id was set (`OFP_VLAN_NONE`).
    pub const NONE: VlanId = VlanId(0xffff);
}

impl Default for VlanId {
    fn default() -> Self {
        Self::NONE
    }
}

impl fmt::Display for VlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Self::NONE {
            write!(f, "vlan:none")
        } else {
            write!(f, "vlan:{}", self.0)
        }
    }
}

/// A 48-bit Ethernet MAC address.
///
/// ```
/// use openflow::types::MacAddr;
/// let mac: MacAddr = "02:00:00:00:00:2a".parse()?;
/// assert_eq!(mac.to_string(), "02:00:00:00:00:2a");
/// assert_eq!(MacAddr::from_u64(42), mac);
/// # Ok::<(), openflow::types::ParseMacError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Builds a locally administered unicast address from the low 48 bits of
    /// `v`, with the second-least-significant bit of the first octet set.
    ///
    /// The simulator derives host MAC addresses from host ids this way.
    pub fn from_u64(v: u64) -> MacAddr {
        let b = v.to_be_bytes();
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError(String);

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax: {:?}", self.0)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let part = parts.next().ok_or_else(|| ParseMacError(s.to_owned()))?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseMacError(s.to_owned()))?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError(s.to_owned()));
        }
        Ok(MacAddr(out))
    }
}

/// Well-known EtherType values used by the codec and the simulator.
pub mod ether_type {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
    /// 802.1Q VLAN tag.
    pub const VLAN: u16 = 0x8100;
}

/// An IP protocol number (the `nw_proto` match field).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct IpProto(pub u8);

impl IpProto {
    /// ICMP (1).
    pub const ICMP: IpProto = IpProto(1);
    /// TCP (6).
    pub const TCP: IpProto = IpProto(6);
    /// UDP (17).
    pub const UDP: IpProto = IpProto(17);
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::ICMP => write!(f, "icmp"),
            Self::TCP => write!(f, "tcp"),
            Self::UDP => write!(f, "udp"),
            IpProto(p) => write!(f, "proto:{p}"),
        }
    }
}

/// A monotonically increasing event timestamp in microseconds.
///
/// The protocol crate is time-source agnostic: the simulator stamps control
/// messages with its virtual clock and FlowDiff consumes those stamps. A
/// microsecond `u64` covers ~584 000 years of simulated time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Time zero.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds.
    pub fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000)
    }

    /// Builds a timestamp from milliseconds.
    pub fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000)
    }

    /// Builds a timestamp from microseconds.
    pub fn from_micros(us: u64) -> Timestamp {
        Timestamp(us)
    }

    /// Whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier` in microseconds.
    pub fn saturating_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Checked difference `self - earlier` in microseconds: `None` when
    /// `earlier` is actually later (a reordered or clock-skewed pair).
    ///
    /// Ingestion code uses this instead of raw subtraction so hostile
    /// timestamps surface as a countable anomaly, never as a panic or a
    /// wrapped ~1.8e19 µs "latency".
    pub fn checked_since(self, earlier: Timestamp) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }

    /// Checked addition of a microsecond delta.
    pub fn checked_add_micros(self, us: u64) -> Option<Timestamp> {
        self.0.checked_add(us).map(Timestamp)
    }
}

impl std::ops::Add<u64> for Timestamp {
    type Output = Timestamp;

    /// Adds `rhs` microseconds.
    fn add(self, rhs: u64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = u64;

    /// Microseconds elapsed between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Timestamp) -> u64 {
        debug_assert!(self >= rhs, "timestamp subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_class_predicates() {
        assert!(PortNo(1).is_physical());
        assert!(PortNo::MAX_PHYSICAL.is_physical());
        assert!(!PortNo(0).is_physical());
        assert!(!PortNo::CONTROLLER.is_physical());
        assert!(!PortNo::FLOOD.is_physical());
    }

    #[test]
    fn port_display_names_reserved_ports() {
        assert_eq!(PortNo(3).to_string(), "port:3");
        assert_eq!(PortNo::CONTROLLER.to_string(), "port:controller");
        assert_eq!(PortNo::NONE.to_string(), "port:none");
    }

    #[test]
    fn xid_wraps() {
        assert_eq!(Xid(u32::MAX).next(), Xid(0));
        assert_eq!(Xid(7).next(), Xid(8));
    }

    #[test]
    fn buffer_id_default_is_unbuffered() {
        assert!(!BufferId::default().is_buffered());
        assert!(BufferId(9).is_buffered());
    }

    #[test]
    fn mac_roundtrip_through_u64() {
        let mac = MacAddr::from_u64(0xdead_beef);
        assert_eq!(mac.0, [0x02, 0x00, 0xde, 0xad, 0xbe, 0xef]);
        let [a, b, c, d, e, f] = mac.0;
        let back = u64::from_be_bytes([0, 0, a, b, c, d, e, f]);
        assert_eq!(MacAddr::from_u64(back & 0xff_ffff_ffff), mac);
        assert!(!mac.is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("02:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("zz:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert_eq!(
            "ff:ff:ff:ff:ff:ff".parse::<MacAddr>().unwrap(),
            MacAddr::BROADCAST
        );
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(1) + 500;
        assert_eq!(t.as_micros(), 1_500);
        assert_eq!(t - Timestamp::from_micros(500), 1_000);
        assert_eq!(Timestamp::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(Timestamp::ZERO.saturating_since(t), 0);
        assert_eq!(t.saturating_since(Timestamp::ZERO), 1_500);
    }

    #[test]
    fn timestamp_checked_since_rejects_reordered_pairs() {
        let early = Timestamp::from_micros(100);
        let late = Timestamp::from_micros(350);
        assert_eq!(late.checked_since(early), Some(250));
        assert_eq!(early.checked_since(late), None);
        assert_eq!(early.checked_since(early), Some(0));
    }

    #[test]
    fn timestamp_checked_add_detects_overflow() {
        assert!(Timestamp(u64::MAX).checked_add_micros(1).is_none());
        assert_eq!(
            Timestamp(1).checked_add_micros(2),
            Some(Timestamp::from_micros(3))
        );
    }

    #[test]
    fn vlan_default_is_none() {
        assert_eq!(VlanId::default(), VlanId::NONE);
        assert_eq!(VlanId(12).to_string(), "vlan:12");
        assert_eq!(VlanId::NONE.to_string(), "vlan:none");
    }
}
