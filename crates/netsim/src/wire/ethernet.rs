//! Ethernet II framing.
//!
//! The paper's In-DH mode ("Incoming, Direct, Home Address", §5) works
//! precisely because IP delivery on the final hop is a link-layer matter:
//! "The only difference is in the link-layer destination to which the packet
//! is addressed." The simulator therefore models real frames with real MAC
//! addressing rather than teleporting IP packets between stacks.

use std::fmt;

use bytes::Bytes;

use super::ParseError;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast MAC, ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero MAC (unknown/placeholder).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Locally-administered unicast address derived from a node index, in the
    /// style smoltcp examples use (`02-00-00-xx-xx-xx`).
    pub fn from_index(ix: u32) -> MacAddr {
        let [_, b, c, d] = ix.to_be_bytes();
        MacAddr([0x02, 0x00, 0x00, b, c, d])
    }

    /// Is this the broadcast address?
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// The Ethernet multicast address for an IPv4 multicast group
    /// (RFC 1112 §6.4: 01-00-5E + low 23 bits of the group address).
    pub fn for_ipv4_multicast(group: crate::wire::ipv4::Ipv4Addr) -> MacAddr {
        let [_, b, c, d] = group.octets();
        MacAddr([0x01, 0x00, 0x5e, b & 0x7f, c, d])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// EtherType values used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Any other EtherType, preserved.
    Other(u16),
}

impl EtherType {
    /// The wire value.
    pub fn number(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(n) => n,
        }
    }

    /// From the wire value.
    pub fn from_number(n: u16) -> EtherType {
        match n {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// Length of the Ethernet II header (no 802.1Q tags).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// An Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Assemble a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// On-wire length (header + payload; we do not model the FCS or the
    /// 64-byte minimum, which would only add constant padding).
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }

    /// Serialize to wire bytes. Returns `Bytes` so the transmit path can
    /// share the single emitted buffer (fault injection, pcap, delivery)
    /// without copying.
    pub fn emit(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.emit_into(&mut buf);
        Bytes::from(buf)
    }

    /// Serialize to wire bytes, appending to `buf`.
    pub fn emit_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.wire_len());
        buf.extend_from_slice(&self.dst.0);
        buf.extend_from_slice(&self.src.0);
        buf.extend_from_slice(&self.ethertype.number().to_be_bytes());
        buf.extend_from_slice(&self.payload);
    }

    /// Serialize just the 14-byte header, appending to `buf`; the caller
    /// then appends the payload itself (used to build a whole frame in one
    /// allocation without materializing the payload `Bytes` first).
    pub fn emit_header_into(dst: MacAddr, src: MacAddr, ethertype: EtherType, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&dst.0);
        buf.extend_from_slice(&src.0);
        buf.extend_from_slice(&ethertype.number().to_be_bytes());
    }

    /// Parse the 14-byte header alone — destination, source, EtherType —
    /// which is all a NIC needs to decide a frame is not for it.
    pub fn parse_header(frame: &[u8]) -> Result<(MacAddr, MacAddr, EtherType), ParseError> {
        let Some(h) = frame.first_chunk::<ETHERNET_HEADER_LEN>() else {
            return Err(ParseError::Truncated {
                needed: ETHERNET_HEADER_LEN,
                got: frame.len(),
            });
        };
        Ok((
            MacAddr([h[0], h[1], h[2], h[3], h[4], h[5]]),
            MacAddr([h[6], h[7], h[8], h[9], h[10], h[11]]),
            EtherType::from_number(u16::from_be_bytes([h[12], h[13]])),
        ))
    }

    /// Parse a wire frame; the payload is a view of `frame`, not a copy.
    pub fn parse_bytes(frame: &Bytes) -> Result<EthernetFrame, ParseError> {
        let (dst, src, ethertype) = Self::parse_header(frame)?;
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload: frame.slice(ETHERNET_HEADER_LEN..),
        })
    }

    /// Parse from borrowed wire bytes: [`EthernetFrame::parse_bytes`] over
    /// one copy of `data`.
    pub fn parse(data: &[u8]) -> Result<EthernetFrame, ParseError> {
        Self::parse_bytes(&Bytes::copy_from_slice(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ipv4::Ipv4Addr;

    #[test]
    fn emit_parse_roundtrip() {
        let f = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            Bytes::from_static(b"hello ethernet"),
        );
        let wire = f.emit();
        assert_eq!(wire.len(), f.wire_len());
        assert_eq!(EthernetFrame::parse(&wire).unwrap(), f);
    }

    #[test]
    fn parse_rejects_short_frames() {
        assert!(matches!(
            EthernetFrame::parse(&[0u8; 13]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn mac_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let uni = MacAddr::from_index(77);
        assert!(!uni.is_broadcast());
        assert!(!uni.is_multicast());
        assert_eq!(uni.to_string(), "02:00:00:00:00:4d");
    }

    #[test]
    fn distinct_indices_give_distinct_macs() {
        assert_ne!(MacAddr::from_index(1), MacAddr::from_index(2));
        assert_eq!(
            MacAddr::from_index(0x0a0b0c),
            MacAddr([0x02, 0, 0, 0x0a, 0x0b, 0x0c])
        );
    }

    #[test]
    fn ipv4_multicast_mac_mapping() {
        // RFC 1112: 224.1.2.3 → 01:00:5e:01:02:03, high bit of byte 3 masked.
        let m = MacAddr::for_ipv4_multicast(Ipv4Addr::new(224, 129, 2, 3));
        assert_eq!(m, MacAddr([0x01, 0x00, 0x5e, 0x01, 0x02, 0x03]));
        assert!(m.is_multicast());
    }

    #[test]
    fn ethertype_roundtrip() {
        for n in [0x0800u16, 0x0806, 0x86dd, 0x1234] {
            assert_eq!(EtherType::from_number(n).number(), n);
        }
    }
}
