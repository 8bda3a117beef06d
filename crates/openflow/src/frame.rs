//! Minimal Ethernet/IPv4/TCP/UDP frame builder and parser.
//!
//! `PacketIn` messages carry (a prefix of) the raw frame that missed the
//! flow table. The simulator synthesizes those frames from a [`FlowKey`]
//! with this module, and FlowDiff's record extractor parses them back. The
//! layout is standard: a 14-byte Ethernet header (plus optional 802.1Q
//! tag), a 20-byte IPv4 header, and the first 4 bytes of the transport
//! header (source and destination ports).

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes};

use crate::error::DecodeError;
use crate::match_fields::FlowKey;
use crate::types::{ether_type, IpProto, MacAddr, VlanId};

/// Minimum number of payload bytes a `PacketIn` must capture for the frame
/// to be parseable back into a [`FlowKey`] (untagged case).
pub const MIN_CAPTURE_LEN: usize = 14 + 20 + 4;

/// Serializes a flow key into a synthetic frame of `total_len` bytes.
///
/// The headers are laid out exactly; the payload is zero-filled. If
/// `total_len` is smaller than the headers require, the headers still get
/// emitted in full (the frame is never truncated below parseability).
pub fn build_frame(key: &FlowKey, total_len: usize) -> Bytes {
    let tagged = key.dl_vlan != VlanId::NONE;
    let header_len = MIN_CAPTURE_LEN + if tagged { 4 } else { 0 };
    // The headers fit on the stack; the frame itself is collected
    // straight into the `Bytes` allocation.
    let mut headers = [0u8; MIN_CAPTURE_LEN + 4];
    let mut buf = &mut headers[..];

    buf.put_slice(&key.dl_dst.0);
    buf.put_slice(&key.dl_src.0);
    if tagged {
        buf.put_u16(ether_type::VLAN);
        buf.put_u16((u16::from(key.dl_vlan_pcp) << 13) | (key.dl_vlan.0 & 0x0fff));
    }
    buf.put_u16(key.dl_type);

    // IPv4 header (20 bytes, no options).
    buf.put_u8(0x45); // version 4, IHL 5
    buf.put_u8(key.nw_tos);
    let ip_total = (total_len.max(header_len) - (header_len - 20 - 4)) as u16;
    buf.put_u16(ip_total); // total length (best effort)
    buf.put_u32(0); // id + flags/frag
    buf.put_u8(64); // ttl
    buf.put_u8(key.nw_proto.0);
    buf.put_u16(0); // checksum (unused in simulation)
    buf.put_u32(u32::from(key.nw_src));
    buf.put_u32(u32::from(key.nw_dst));

    // First 4 bytes of the transport header: ports.
    buf.put_u16(key.tp_src);
    buf.put_u16(key.tp_dst);

    let payload = std::iter::repeat_n(0, total_len.saturating_sub(header_len));
    headers[..header_len]
        .iter()
        .copied()
        .chain(payload)
        .collect()
}

/// Parses the headers of a frame back into a [`FlowKey`].
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if fewer than [`MIN_CAPTURE_LEN`]
/// bytes (plus the VLAN tag, when present) are available, and
/// [`DecodeError::BadField`] for non-IPv4 frames or a malformed IP header.
pub fn parse_frame(mut data: &[u8]) -> Result<FlowKey, DecodeError> {
    let available = data.len();
    let need = |needed: usize, data: &[u8]| -> Result<(), DecodeError> {
        if data.remaining() < needed {
            Err(DecodeError::Truncated { needed, available })
        } else {
            Ok(())
        }
    };

    need(14, data)?;
    let mut dl_dst = [0u8; 6];
    let mut dl_src = [0u8; 6];
    data.copy_to_slice(&mut dl_dst);
    data.copy_to_slice(&mut dl_src);
    let mut dl_type = data.get_u16();

    let (dl_vlan, dl_vlan_pcp) = if dl_type == ether_type::VLAN {
        need(4, data)?;
        let tci = data.get_u16();
        dl_type = data.get_u16();
        (VlanId(tci & 0x0fff), (tci >> 13) as u8)
    } else {
        (VlanId::NONE, 0)
    };

    if dl_type != ether_type::IPV4 {
        return Err(DecodeError::BadField {
            context: "frame.dl_type",
            value: dl_type as u64,
        });
    }

    need(20, data)?;
    let ver_ihl = data.get_u8();
    if ver_ihl >> 4 != 4 {
        return Err(DecodeError::BadField {
            context: "frame.ip_version",
            value: (ver_ihl >> 4) as u64,
        });
    }
    let ihl = (ver_ihl & 0x0f) as usize * 4;
    if ihl < 20 {
        return Err(DecodeError::BadField {
            context: "frame.ihl",
            value: ihl as u64,
        });
    }
    let nw_tos = data.get_u8();
    let _total_len = data.get_u16();
    let _id_frag = data.get_u32();
    let _ttl = data.get_u8();
    let nw_proto = IpProto(data.get_u8());
    let _checksum = data.get_u16();
    let nw_src = Ipv4Addr::from(data.get_u32());
    let nw_dst = Ipv4Addr::from(data.get_u32());

    // Skip IPv4 options, if any.
    let options = ihl - 20;
    need(options + 4, data)?;
    data.advance(options);

    let tp_src = data.get_u16();
    let tp_dst = data.get_u16();

    Ok(FlowKey {
        dl_src: MacAddr(dl_src),
        dl_dst: MacAddr(dl_dst),
        dl_vlan,
        dl_vlan_pcp,
        dl_type,
        nw_tos,
        nw_proto,
        nw_src,
        nw_dst,
        tp_src,
        tp_dst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(172, 16, 3, 9),
            55123,
            Ipv4Addr::new(172, 16, 5, 1),
            3306,
        )
    }

    #[test]
    fn roundtrip_untagged() {
        let frame = build_frame(&key(), 128);
        assert_eq!(frame.len(), 128);
        assert_eq!(parse_frame(&frame).unwrap(), key());
    }

    #[test]
    fn roundtrip_vlan_tagged() {
        let mut k = key();
        k.dl_vlan = VlanId(42);
        k.dl_vlan_pcp = 3;
        let frame = build_frame(&k, 200);
        assert_eq!(parse_frame(&frame).unwrap(), k);
    }

    #[test]
    fn roundtrip_udp_and_tos() {
        let mut k = FlowKey::udp(
            Ipv4Addr::new(192, 168, 0, 1),
            53,
            Ipv4Addr::new(192, 168, 0, 2),
            5353,
        );
        k.nw_tos = 0x10;
        let frame = build_frame(&k, MIN_CAPTURE_LEN);
        assert_eq!(parse_frame(&frame).unwrap(), k);
    }

    #[test]
    fn tiny_total_len_still_parseable() {
        let frame = build_frame(&key(), 1);
        assert!(frame.len() >= MIN_CAPTURE_LEN);
        assert_eq!(parse_frame(&frame).unwrap(), key());
    }

    #[test]
    fn truncated_frame_reports_needed_bytes() {
        let frame = build_frame(&key(), 128);
        let err = parse_frame(&frame[..10]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn non_ip_frame_rejected() {
        let mut bytes = build_frame(&key(), 64).to_vec();
        // Corrupt the EtherType to ARP.
        bytes[12] = 0x08;
        bytes[13] = 0x06;
        let err = parse_frame(&bytes).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::BadField {
                context: "frame.dl_type",
                ..
            }
        ));
    }

    #[test]
    fn ip_options_are_skipped() {
        // Build a frame manually with IHL = 6 (4 bytes of options).
        let k = key();
        let mut buf = Vec::new();
        buf.extend_from_slice(&k.dl_dst.0);
        buf.extend_from_slice(&k.dl_src.0);
        buf.extend_from_slice(&ether_type::IPV4.to_be_bytes());
        buf.push(0x46); // version 4, IHL 6
        buf.push(0);
        buf.extend_from_slice(&28u16.to_be_bytes());
        buf.extend_from_slice(&[0; 4]);
        buf.push(64);
        buf.push(IpProto::TCP.0);
        buf.extend_from_slice(&[0; 2]);
        buf.extend_from_slice(&u32::from(k.nw_src).to_be_bytes());
        buf.extend_from_slice(&u32::from(k.nw_dst).to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // options
        buf.extend_from_slice(&k.tp_src.to_be_bytes());
        buf.extend_from_slice(&k.tp_dst.to_be_bytes());
        let parsed = parse_frame(&buf).unwrap();
        assert_eq!(parsed.nw_src, k.nw_src);
        assert_eq!(parsed.tp_dst, k.tp_dst);
    }
}
