//! UDP (RFC 768) with the IPv4 pseudo-header checksum.

use bytes::Bytes;

use super::ipv4::{IpProtocol, Ipv4Addr};
use super::{checksum_valid, internet_checksum, ones_complement_sum, ParseError};

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// One's-complement sum of the IPv4 pseudo-header used by UDP and TCP.
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProtocol, len: u16) -> u32 {
    let [s0, s1, s2, s3] = src.octets();
    let [d0, d1, d2, d3] = dst.octets();
    let [l0, l1] = len.to_be_bytes();
    let ph = [s0, s1, s2, s3, d0, d1, d2, d3, 0, proto.number(), l0, l1];
    u32::from(ones_complement_sum(&ph, 0))
}

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Assemble a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> UdpDatagram {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// On-wire length in bytes.
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Serialize. The checksum covers the pseudo-header, so the enclosing
    /// IP source and destination addresses are required.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let len = self.wire_len() as u16;
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&self.payload);
        let seed = pseudo_header_sum(src, dst, IpProtocol::Udp, len);
        let mut ck = internet_checksum(&buf, seed);
        if ck == 0 {
            ck = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        buf[6..8].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Parse borrowed bytes: [`UdpDatagram::parse_bytes`] over one copy of
    /// `data`.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, ParseError> {
        Self::parse_bytes(&Bytes::copy_from_slice(data), src, dst)
    }

    /// Parse and verify against the pseudo-header of the packet that carried
    /// this datagram. The payload is a view of `data`, not a copy.
    pub fn parse_bytes(
        data: &Bytes,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<UdpDatagram, ParseError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: UDP_HEADER_LEN,
                got: data.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if len < UDP_HEADER_LEN || data.len() < len {
            return Err(ParseError::Truncated {
                needed: len,
                got: data.len(),
            });
        }
        let cksum = u16::from_be_bytes([data[6], data[7]]);
        if cksum != 0 {
            let seed = pseudo_header_sum(src, dst, IpProtocol::Udp, len as u16);
            if !checksum_valid(&data[..len], seed) {
                return Err(ParseError::BadChecksum { what: "udp" });
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: data.slice(UDP_HEADER_LEN..len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip_with_checksum() {
        let d = UdpDatagram::new(5353, 53, Bytes::from_static(b"dns query bytes"));
        let src = ip("10.0.0.1");
        let dst = ip("171.64.7.77");
        let wire = d.emit(src, dst);
        assert_eq!(wire.len(), d.wire_len());
        assert_eq!(UdpDatagram::parse(&wire, src, dst).unwrap(), d);
    }

    #[test]
    fn checksum_binds_addresses() {
        // A datagram re-addressed without recomputing the checksum must fail:
        // this is what breaks naive NAT-style rewriting, and why the paper's
        // encapsulation approach (new outer header, untouched inner packet)
        // is the right tool.
        let d = UdpDatagram::new(1000, 2000, Bytes::from_static(b"payload"));
        let wire = d.emit(ip("10.0.0.1"), ip("10.0.0.2"));
        assert!(UdpDatagram::parse(&wire, ip("10.0.0.1"), ip("10.0.0.3")).is_err());
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcdef"));
        let src = ip("1.2.3.4");
        let dst = ip("5.6.7.8");
        let mut wire = d.emit(src, dst);
        wire[9] ^= 0x01;
        assert_eq!(
            UdpDatagram::parse(&wire, src, dst),
            Err(ParseError::BadChecksum { what: "udp" })
        );
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let d = UdpDatagram::new(7, 8, Bytes::from_static(b"nocksum"));
        let src = ip("1.1.1.1");
        let dst = ip("2.2.2.2");
        let mut wire = d.emit(src, dst);
        wire[6] = 0;
        wire[7] = 0;
        assert_eq!(UdpDatagram::parse(&wire, src, dst).unwrap(), d);
    }

    #[test]
    fn truncation_detected() {
        let d = UdpDatagram::new(7, 8, Bytes::from_static(b"0123456789"));
        let src = ip("1.1.1.1");
        let dst = ip("2.2.2.2");
        let wire = d.emit(src, dst);
        assert!(UdpDatagram::parse(&wire[..6], src, dst).is_err());
        assert!(UdpDatagram::parse(&wire[..12], src, dst).is_err());
    }

    #[test]
    fn empty_payload_ok() {
        let d = UdpDatagram::new(434, 434, Bytes::new());
        let src = ip("1.1.1.1");
        let dst = ip("2.2.2.2");
        assert_eq!(UdpDatagram::parse(&d.emit(src, dst), src, dst).unwrap(), d);
    }
}
