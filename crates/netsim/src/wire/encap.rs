//! The three encapsulation ("tunneling") formats the paper discusses (§2,
//! §3.3):
//!
//! * **IP-in-IP** (\[Per96c\], later RFC 2003): a complete new 20-byte IPv4
//!   header in front of the untouched inner packet.
//! * **Minimal Encapsulation** (\[Per95\], later RFC 2004): compresses the
//!   tunnel overhead to 8 bytes (12 when the original source address must be
//!   preserved) by cannibalizing the inner header.
//! * **GRE** (RFC 1701/1702): a 4-byte generic shim (8 with checksum)
//!   between outer and inner headers.
//!
//! The paper's observation that "this overhead can be minimized by use of
//! Generic Routing Encapsulation or Minimal Encapsulation" (§2) is
//! quantified by experiment E6 using the `overhead()` figures from this
//! module.

use bytes::Bytes;

use super::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet, IPV4_HEADER_LEN};
use super::{checksum_valid, internet_checksum, ParseError};

/// Which encapsulation format a tunnel endpoint uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncapFormat {
    /// IP-in-IP: simplest and most general.
    #[default]
    IpInIp,
    /// Minimal Encapsulation: smallest, but cannot carry fragments.
    Minimal,
    /// GRE with the checksum bit set.
    Gre,
}

impl EncapFormat {
    /// Bytes this format adds to the inner packet on the wire.
    pub fn overhead(self) -> usize {
        match self {
            // New outer IPv4 header.
            EncapFormat::IpInIp => IPV4_HEADER_LEN,
            // Outer header replaces the inner one; only the 12-byte minimal
            // forwarding header (with original source) is extra... minus the
            // inner header we no longer carry. Net: 12 bytes when the source
            // is preserved (the Mobile IP case), 8 otherwise.
            EncapFormat::Minimal => MINENC_LEN_WITH_SRC,
            // Outer IPv4 header plus the 8-byte GRE header (4 base + 4 for
            // checksum+offset, since we set the C bit).
            EncapFormat::Gre => IPV4_HEADER_LEN + GRE_LEN,
        }
    }

    /// The IP protocol number carried in the outer header.
    pub fn protocol(self) -> IpProtocol {
        match self {
            EncapFormat::IpInIp => IpProtocol::IpInIp,
            EncapFormat::Minimal => IpProtocol::MinimalEncap,
            EncapFormat::Gre => IpProtocol::Gre,
        }
    }

    /// The format a tunnel packet with this outer protocol uses, if any.
    pub fn from_protocol(p: IpProtocol) -> Option<EncapFormat> {
        match p {
            IpProtocol::IpInIp => Some(EncapFormat::IpInIp),
            IpProtocol::MinimalEncap => Some(EncapFormat::Minimal),
            IpProtocol::Gre => Some(EncapFormat::Gre),
            _ => None,
        }
    }

    /// Stable machine-readable tag (run reports, trace files).
    pub fn tag(self) -> &'static str {
        match self {
            EncapFormat::IpInIp => "ip-in-ip",
            EncapFormat::Minimal => "minimal",
            EncapFormat::Gre => "gre",
        }
    }

    /// Inverse of [`EncapFormat::tag`].
    pub fn from_tag(s: &str) -> Option<EncapFormat> {
        match s {
            "ip-in-ip" => Some(EncapFormat::IpInIp),
            "minimal" => Some(EncapFormat::Minimal),
            "gre" => Some(EncapFormat::Gre),
            _ => None,
        }
    }
}

/// Minimal forwarding header length with the original-source field present.
pub const MINENC_LEN_WITH_SRC: usize = 12;
/// GRE header length with the C bit set.
pub const GRE_LEN: usize = 8;

/// Wrap `inner` in a tunnel packet from `outer_src` to `outer_dst`.
///
/// `ident` becomes the outer packet's IP identification (needed if the outer
/// packet itself gets fragmented).
///
/// Returns `None` only for [`EncapFormat::Minimal`] on a fragmented inner
/// packet, which RFC 2004 forbids — callers should fall back to IP-in-IP.
pub fn encapsulate(
    format: EncapFormat,
    outer_src: Ipv4Addr,
    outer_dst: Ipv4Addr,
    inner: &Ipv4Packet,
    ident: u16,
) -> Option<Ipv4Packet> {
    match format {
        EncapFormat::IpInIp => {
            let mut outer = Ipv4Packet::new(outer_src, outer_dst, IpProtocol::IpInIp, inner.emit());
            outer.ident = ident;
            outer.ttl = inner.ttl;
            outer.tos = inner.tos;
            Some(outer)
        }
        EncapFormat::Minimal => {
            if inner.is_fragment() {
                return None;
            }
            let mut hdr = Vec::with_capacity(MINENC_LEN_WITH_SRC);
            hdr.push(inner.protocol.number());
            hdr.push(0x80); // S bit: original source address present
            hdr.extend_from_slice(&[0, 0]); // checksum placeholder
            hdr.extend_from_slice(&inner.dst.octets());
            hdr.extend_from_slice(&inner.src.octets());
            let ck = internet_checksum(&hdr, 0);
            hdr[2..4].copy_from_slice(&ck.to_be_bytes());
            let mut payload = hdr;
            payload.extend_from_slice(&inner.payload);
            let mut outer = Ipv4Packet::new(
                outer_src,
                outer_dst,
                IpProtocol::MinimalEncap,
                Bytes::from(payload),
            );
            outer.ident = inner.ident;
            outer.ttl = inner.ttl;
            outer.tos = inner.tos;
            Some(outer)
        }
        EncapFormat::Gre => {
            let mut gre = Vec::with_capacity(GRE_LEN + inner.wire_len());
            gre.extend_from_slice(&0x8000u16.to_be_bytes()); // C=1, ver 0
            gre.extend_from_slice(&0x0800u16.to_be_bytes()); // proto: IPv4
            gre.extend_from_slice(&[0, 0, 0, 0]); // checksum + offset
            gre.extend_from_slice(&inner.emit());
            let ck = internet_checksum(&gre, 0);
            gre[4..6].copy_from_slice(&ck.to_be_bytes());
            let mut outer =
                Ipv4Packet::new(outer_src, outer_dst, IpProtocol::Gre, Bytes::from(gre));
            outer.ident = ident;
            outer.ttl = inner.ttl;
            outer.tos = inner.tos;
            Some(outer)
        }
    }
}

/// Where the inner packet sits in a tunnel packet's payload, once the
/// tunnel header's own checks have passed.
enum Tunnel {
    /// A whole IPv4 packet starts at this offset (IP-in-IP: 0; GRE: behind
    /// its 4- or 8-byte header).
    Ip(usize),
    /// Minimal encapsulation: the forwarding header names the endpoints and
    /// the inner payload starts `hdr_len` bytes in.
    Minimal {
        endpoints: (Ipv4Addr, Ipv4Addr, IpProtocol),
        hdr_len: usize,
    },
}

/// The one validator of tunnel headers — the minimal-encapsulation header
/// checksum, GRE's protocol type and optional checksum, the lengths both
/// need — dispatching on the outer protocol field; fails on non-tunnel
/// packets. The inner IPv4 header's checks are `Ipv4Packet`'s.
fn locate(outer: &Ipv4Packet) -> Result<Tunnel, ParseError> {
    let p: &[u8] = &outer.payload;
    let need = |needed: usize| {
        if p.len() < needed {
            Err(ParseError::Truncated {
                needed,
                got: p.len(),
            })
        } else {
            Ok(())
        }
    };
    match outer.protocol {
        IpProtocol::IpInIp => Ok(Tunnel::Ip(0)),
        IpProtocol::MinimalEncap => {
            need(4)?;
            let has_src = p[1] & 0x80 != 0;
            let hdr_len = if has_src { MINENC_LEN_WITH_SRC } else { 8 };
            need(hdr_len)?;
            if !checksum_valid(&p[..hdr_len], 0) {
                return Err(ParseError::BadChecksum {
                    what: "minimal encapsulation",
                });
            }
            let dst = Ipv4Addr::from_octets([p[4], p[5], p[6], p[7]]);
            let src = if has_src {
                Ipv4Addr::from_octets([p[8], p[9], p[10], p[11]])
            } else {
                outer.src
            };
            Ok(Tunnel::Minimal {
                endpoints: (src, dst, IpProtocol::from_number(p[0])),
                hdr_len,
            })
        }
        IpProtocol::Gre => {
            need(4)?;
            let flags = u16::from_be_bytes([p[0], p[1]]);
            let proto = u16::from_be_bytes([p[2], p[3]]);
            if proto != 0x0800 {
                return Err(ParseError::BadField {
                    what: "gre protocol type",
                    value: u64::from(proto),
                });
            }
            let has_cksum = flags & 0x8000 != 0;
            let hdr_len = if has_cksum { GRE_LEN } else { 4 };
            need(hdr_len)?;
            if has_cksum && !checksum_valid(p, 0) {
                return Err(ParseError::BadChecksum { what: "gre" });
            }
            Ok(Tunnel::Ip(hdr_len))
        }
        other => Err(ParseError::BadField {
            what: "tunnel protocol",
            value: u64::from(other.number()),
        }),
    }
}

/// `(src, dst, protocol)` of the packet a tunnel packet carries — what
/// [`decapsulate`] would return of it, under the same validation, without
/// building the packet. This is what every trace record of a tunnel packet
/// needs; a fragment of a tunnel packet (its payload ends before, or starts
/// after, the inner header says) and a corrupted inner header fail here
/// exactly as they fail to decapsulate.
pub fn inner_endpoints(outer: &Ipv4Packet) -> Result<(Ipv4Addr, Ipv4Addr, IpProtocol), ParseError> {
    match locate(outer)? {
        Tunnel::Ip(at) => Ipv4Packet::parse_endpoints(&outer.payload[at..]),
        Tunnel::Minimal { endpoints, .. } => Ok(endpoints),
    }
}

/// Unwrap a tunnel packet, recovering the inner IP packet. Fails on
/// non-tunnel packets. The inner packet's options and payload are views of
/// the outer payload in all three formats.
pub fn decapsulate(outer: &Ipv4Packet) -> Result<Ipv4Packet, ParseError> {
    match locate(outer)? {
        // Nothing to skip: spare the slice its refcount round trip.
        Tunnel::Ip(0) => Ipv4Packet::parse_bytes(&outer.payload),
        Tunnel::Ip(at) => Ipv4Packet::parse_bytes(&outer.payload.slice(at..)),
        Tunnel::Minimal {
            endpoints: (src, dst, protocol),
            hdr_len,
        } => Ok(Ipv4Packet {
            tos: outer.tos,
            ident: outer.ident,
            dont_fragment: outer.dont_fragment,
            more_fragments: false,
            frag_offset: 0,
            ttl: outer.ttl,
            protocol,
            src,
            dst,
            options: Bytes::new(),
            payload: outer.payload.slice(hdr_len..),
        }),
    }
}

/// True if a packet is a tunnel packet this module can decapsulate.
pub fn is_tunnel(p: &Ipv4Packet) -> bool {
    matches!(
        p.protocol,
        IpProtocol::IpInIp | IpProtocol::MinimalEncap | IpProtocol::Gre
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn inner() -> Ipv4Packet {
        let mut p = Ipv4Packet::new(
            ip("171.64.15.9"), // MH home address
            ip("18.26.0.1"),   // correspondent
            IpProtocol::Tcp,
            Bytes::from_static(b"inner transport payload"),
        );
        p.ident = 99;
        p.ttl = 61;
        p
    }

    #[test]
    fn ipinip_roundtrip_preserves_inner_exactly() {
        let i = inner();
        let outer = encapsulate(
            EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &i,
            7,
        )
        .unwrap();
        assert_eq!(outer.protocol, IpProtocol::IpInIp);
        assert_eq!(
            outer.wire_len(),
            i.wire_len() + EncapFormat::IpInIp.overhead()
        );
        assert_eq!(decapsulate(&outer).unwrap(), i);
    }

    #[test]
    fn minimal_roundtrip_preserves_addresses_and_payload() {
        let i = inner();
        let outer = encapsulate(
            EncapFormat::Minimal,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &i,
            7,
        )
        .unwrap();
        assert_eq!(
            outer.wire_len(),
            i.wire_len() + EncapFormat::Minimal.overhead()
        );
        let d = decapsulate(&outer).unwrap();
        assert_eq!(d.src, i.src);
        assert_eq!(d.dst, i.dst);
        assert_eq!(d.protocol, i.protocol);
        assert_eq!(d.payload, i.payload);
        assert_eq!(d.ttl, i.ttl, "TTL rides in the outer header");
    }

    #[test]
    fn minimal_refuses_fragments() {
        let mut i = inner();
        i.more_fragments = true;
        assert!(encapsulate(EncapFormat::Minimal, ip("1.1.1.1"), ip("2.2.2.2"), &i, 0).is_none());
        i.more_fragments = false;
        i.frag_offset = 8;
        assert!(encapsulate(EncapFormat::Minimal, ip("1.1.1.1"), ip("2.2.2.2"), &i, 0).is_none());
    }

    #[test]
    fn gre_roundtrip() {
        let i = inner();
        let outer = encapsulate(
            EncapFormat::Gre,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &i,
            7,
        )
        .unwrap();
        assert_eq!(outer.wire_len(), i.wire_len() + EncapFormat::Gre.overhead());
        assert_eq!(decapsulate(&outer).unwrap(), i);
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        // §3.3: "Encapsulation typically adds 20 bytes"; GRE/MinEnc minimize.
        assert_eq!(EncapFormat::IpInIp.overhead(), 20);
        assert!(EncapFormat::Minimal.overhead() < EncapFormat::IpInIp.overhead());
        assert!(EncapFormat::Gre.overhead() > EncapFormat::IpInIp.overhead());
    }

    #[test]
    fn decapsulate_rejects_non_tunnels() {
        let i = inner();
        assert!(!is_tunnel(&i));
        assert!(decapsulate(&i).is_err());
    }

    #[test]
    fn corrupted_tunnels_are_rejected() {
        let i = inner();
        for fmt in [EncapFormat::IpInIp, EncapFormat::Minimal, EncapFormat::Gre] {
            let outer = encapsulate(fmt, ip("1.1.1.1"), ip("2.2.2.2"), &i, 0).unwrap();
            let mut bytes = outer.payload.to_vec();
            bytes[2] ^= 0xff;
            let corrupted = Ipv4Packet {
                payload: Bytes::from(bytes),
                ..outer
            };
            assert!(
                decapsulate(&corrupted).is_err(),
                "corruption undetected for {fmt:?}"
            );
        }
    }

    #[test]
    fn nested_encapsulation_unwraps_layer_by_layer() {
        // MH→HA reverse tunnel carrying an already-tunnelled packet is legal.
        let i = inner();
        let mid = encapsulate(
            EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("18.26.0.1"),
            &i,
            1,
        )
        .unwrap();
        let out = encapsulate(
            EncapFormat::IpInIp,
            ip("36.186.0.99"),
            ip("171.64.15.1"),
            &mid,
            2,
        )
        .unwrap();
        let once = decapsulate(&out).unwrap();
        assert_eq!(once, mid);
        assert_eq!(decapsulate(&once).unwrap(), i);
    }
}
