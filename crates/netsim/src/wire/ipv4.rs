//! IPv4: addresses, CIDR prefixes, the packet header (RFC 791) with checksum,
//! and fragmentation/reassembly.
//!
//! Fragmentation matters to the paper directly: §3.3 observes that the 20
//! bytes an encapsulating header adds can push a packet over the path MTU,
//! *doubling* the packet count. Experiment E6 reproduces that effect with
//! this module.

use std::fmt;
use std::str::FromStr;

use bytes::Bytes;

use super::{checksum_valid, internet_checksum, ParseError};
use crate::time::SimTime;

/// An IPv4 address. Stored as the host-order `u32` so prefix arithmetic is a
/// shift; rendered in dotted-quad form (by `Debug` too, for readable logs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub u32);

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Ipv4Addr {
    /// The unspecified address, 0.0.0.0.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);
    /// The limited broadcast address, 255.255.255.255.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr(0xffff_ffff);

    /// From dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Big-endian octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// From big-endian octets.
    pub fn from_octets(o: [u8; 4]) -> Ipv4Addr {
        Ipv4Addr(u32::from_be_bytes(o))
    }

    /// Is this 0.0.0.0?
    pub fn is_unspecified(self) -> bool {
        self.0 == 0
    }

    /// Is this the broadcast address?
    pub fn is_broadcast(self) -> bool {
        self.0 == 0xffff_ffff
    }

    /// True for class-D (multicast) addresses, 224.0.0.0/4.
    pub fn is_multicast(self) -> bool {
        self.0 >> 28 == 0b1110
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// The dotted quad as a JSON string. Run reports carry two per trace
/// event, so the digits are placed by hand rather than through `Display`.
impl serde::Serialize for Ipv4Addr {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        let mut text = [b'.'; 15];
        let mut len = 0;
        for octet in self.octets() {
            if octet >= 100 {
                text[len] = b'0' + octet / 100;
                len += 1;
            }
            if octet >= 10 {
                text[len] = b'0' + octet / 10 % 10;
                len += 1;
            }
            text[len] = b'0' + octet % 10;
            len += 2;
        }
        w.str(std::str::from_utf8(&text[..len - 1]).expect("ascii digits and dots"));
    }
}

impl FromStr for Ipv4Addr {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for o in octets.iter_mut() {
            let part = parts.next().ok_or(ParseError::BadField {
                what: "ipv4 dotted quad",
                value: 0,
            })?;
            *o = part.parse().map_err(|_| ParseError::BadField {
                what: "ipv4 octet",
                value: 0,
            })?;
        }
        if parts.next().is_some() {
            return Err(ParseError::BadField {
                what: "ipv4 dotted quad",
                value: 5,
            });
        }
        Ok(Ipv4Addr::from_octets(octets))
    }
}

/// An IPv4 prefix (address + mask length), e.g. `171.64.0.0/16`.
///
/// Used for routing tables, filter rules, and the paper's §7.1.2 user rules
/// ("specified similarly to the way routing table entries are currently
/// specified, as an address and a mask value").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Cidr {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// Create a prefix; `prefix_len` is clamped to 32.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Ipv4Cidr {
        let prefix_len = prefix_len.min(32);
        Ipv4Cidr {
            addr: Ipv4Addr(addr.0 & Self::mask_bits(prefix_len)),
            prefix_len,
        }
    }

    /// The /32 prefix containing exactly `addr`.
    pub fn host(addr: Ipv4Addr) -> Ipv4Cidr {
        Ipv4Cidr::new(addr, 32)
    }

    /// The default route, 0.0.0.0/0.
    pub fn default_route() -> Ipv4Cidr {
        Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 0)
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// The network (masked) address.
    pub fn network(self) -> Ipv4Addr {
        self.addr
    }

    /// The mask length.
    pub fn prefix_len(self) -> u8 {
        self.prefix_len
    }

    /// Does this prefix contain `addr`?
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        (addr.0 & Self::mask_bits(self.prefix_len)) == self.addr.0
    }

    /// The `n`-th host address inside this prefix (n=0 is the network addr).
    pub fn nth(self, n: u32) -> Ipv4Addr {
        Ipv4Addr(self.addr.0 | n)
    }

    /// The subnet broadcast address of this prefix.
    pub fn broadcast(self) -> Ipv4Addr {
        Ipv4Addr(self.addr.0 | !Self::mask_bits(self.prefix_len))
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, l) = s.split_once('/').ok_or(ParseError::BadField {
            what: "cidr",
            value: 0,
        })?;
        let addr: Ipv4Addr = a.parse()?;
        let len: u8 = l.parse().map_err(|_| ParseError::BadField {
            what: "cidr prefix length",
            value: 0,
        })?;
        if len > 32 {
            return Err(ParseError::BadField {
                what: "cidr prefix length",
                value: u64::from(len),
            });
        }
        Ok(Ipv4Cidr::new(addr, len))
    }
}

/// IP protocol numbers used in the simulation (IANA assigned values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (protocol 1).
    Icmp,
    /// IP-in-IP encapsulation (RFC 2003 / the draft the paper cites as
    /// \[Per96c\]).
    IpInIp,
    /// TCP (protocol 6).
    Tcp,
    /// UDP (protocol 17).
    Udp,
    /// Generic Routing Encapsulation (RFC 1701/1702).
    Gre,
    /// Minimal Encapsulation (the draft the paper cites as \[Per95\]).
    MinimalEncap,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::IpInIp => 4,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Gre => 47,
            IpProtocol::MinimalEncap => 55,
            IpProtocol::Other(n) => n,
        }
    }

    /// From the IANA protocol number.
    pub fn from_number(n: u8) -> IpProtocol {
        match n {
            1 => IpProtocol::Icmp,
            4 => IpProtocol::IpInIp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            47 => IpProtocol::Gre,
            55 => IpProtocol::MinimalEncap,
            other => IpProtocol::Other(other),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "ICMP"),
            IpProtocol::IpInIp => write!(f, "IPIP"),
            IpProtocol::Tcp => write!(f, "TCP"),
            IpProtocol::Udp => write!(f, "UDP"),
            IpProtocol::Gre => write!(f, "GRE"),
            IpProtocol::MinimalEncap => write!(f, "MINENC"),
            IpProtocol::Other(n) => write!(f, "IPPROTO({n})"),
        }
    }
}

/// Size of the fixed IPv4 header (without options).
pub const IPV4_HEADER_LEN: usize = 20;

/// Maximum size of the IPv4 options area (IHL is 4 bits).
pub const IPV4_MAX_OPTIONS: usize = 40;

/// Default initial TTL, matching common practice.
pub const DEFAULT_TTL: u8 = 64;

/// A parsed IPv4 packet.
///
/// `total_len` and the header checksum are computed on emission, not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Type-of-service byte.
    pub tos: u8,
    /// IP identification (fragment reassembly key).
    pub ident: u16,
    /// DF flag: refuse fragmentation.
    pub dont_fragment: bool,
    /// MF flag: more fragments follow.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units, as on the wire.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// The IP protocol of the payload.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP options, stored exactly as they appear in the header (already
    /// padded to a 4-byte boundary; empty for the overwhelmingly common
    /// optionless case). See [`crate::wire::srcroute`] for the one option
    /// the paper discusses — and dismisses (§4) — loose source routing.
    pub options: Bytes,
    /// Payload bytes.
    pub payload: Bytes,
}

/// The one validator of IPv4 wire bytes — minimum length, version, IHL,
/// header checksum, total length against the bytes present — returning
/// early with the [`ParseError`], else evaluating to `(ihl, total_len)`.
/// A macro rather than a function so that each of its two users compiles
/// to one straight-line parse: split into a function (even an
/// `#[inline(always)]` one) `parse_bytes` measured 32 ns against 25.
macro_rules! checked_header_lengths {
    ($data:expr) => {{
        let data = $data;
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadField {
                what: "ip version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(ParseError::BadField {
                what: "ihl",
                value: (ihl / 4) as u64,
            });
        }
        if !checksum_valid(&data[..ihl], 0) {
            return Err(ParseError::BadChecksum {
                what: "ipv4 header",
            });
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || data.len() < total_len {
            return Err(ParseError::Truncated {
                needed: total_len,
                got: data.len(),
            });
        }
        (ihl, total_len)
    }};
}

impl Ipv4Packet {
    /// Convenience constructor with default TOS/TTL and no fragmentation.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Ipv4Packet {
        Ipv4Packet {
            tos: 0,
            ident: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            ttl: DEFAULT_TTL,
            protocol,
            src,
            dst,
            options: Bytes::new(),
            payload,
        }
    }

    /// Install IP options, padding with end-of-option-list octets to the
    /// 4-byte boundary the wire requires. Panics if over 40 bytes.
    pub fn set_options(&mut self, opts: &[u8]) {
        assert!(opts.len() <= IPV4_MAX_OPTIONS, "options too long");
        let padded_len = opts.len().div_ceil(4) * 4;
        let mut b = Vec::with_capacity(padded_len);
        b.extend_from_slice(opts);
        b.resize(padded_len, 0); // EOL padding
        self.options = Bytes::from(b);
    }

    /// Header length including options.
    pub fn header_len(&self) -> usize {
        IPV4_HEADER_LEN + self.options.len()
    }

    /// Total on-wire length of this packet in bytes.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// True if this packet is a fragment (either kind).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// Serialize to wire bytes, computing total length and header checksum.
    ///
    /// Returns `Bytes` so the send path can slice and share the buffer
    /// without further copies; use [`Ipv4Packet::emit_into`] to serialize
    /// into an existing buffer (e.g. right after an Ethernet header).
    pub fn emit(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.emit_into(&mut buf);
        Bytes::from(buf)
    }

    /// Serialize to wire bytes, appending to `buf` (which may already hold
    /// link-layer framing).
    pub fn emit_into(&self, buf: &mut Vec<u8>) {
        let total_len = self.wire_len();
        assert!(total_len <= 65_535, "IPv4 packet too large: {total_len}");
        debug_assert_eq!(self.options.len() % 4, 0, "options must be padded");
        let ihl = self.header_len() / 4;
        let base = buf.len();
        buf.reserve(total_len);
        buf.push(0x40 | ihl as u8); // version 4 + IHL
        buf.push(self.tos);
        buf.extend_from_slice(&(total_len as u16).to_be_bytes());
        buf.extend_from_slice(&self.ident.to_be_bytes());
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        buf.extend_from_slice(&flags_frag.to_be_bytes());
        buf.push(self.ttl);
        buf.push(self.protocol.number());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.src.octets());
        buf.extend_from_slice(&self.dst.octets());
        buf.extend_from_slice(&self.options);
        let header_len = self.header_len();
        let ck = internet_checksum(&buf[base..base + header_len], 0);
        buf[base + 10..base + 12].copy_from_slice(&ck.to_be_bytes());
        buf.extend_from_slice(&self.payload);
    }

    /// Parse borrowed wire bytes: [`Ipv4Packet::parse_bytes`] over one copy
    /// of `data`.
    pub fn parse(data: &[u8]) -> Result<Ipv4Packet, ParseError> {
        Self::parse_bytes(&Bytes::copy_from_slice(data))
    }

    /// Parse wire bytes, verifying version, length and header checksum.
    /// Options and payload are views of `data`, not copies; bytes past the
    /// header's total length (link padding) are left out of the view.
    pub fn parse_bytes(data: &Bytes) -> Result<Ipv4Packet, ParseError> {
        let (ihl, total_len) = checked_header_lengths!(data);
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        Ok(Ipv4Packet {
            tos: data[1],
            ident: u16::from_be_bytes([data[4], data[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl: data[8],
            protocol: IpProtocol::from_number(data[9]),
            src: Ipv4Addr::from_octets([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr::from_octets([data[16], data[17], data[18], data[19]]),
            options: data.slice(IPV4_HEADER_LEN..ihl),
            payload: data.slice(ihl..total_len),
        })
    }

    /// `(src, dst, protocol)` of the packet at `data[0]`, under every check
    /// [`Ipv4Packet::parse_bytes`] makes and without taking a view: all a
    /// reader of a tunnel's inner header needs.
    pub(crate) fn parse_endpoints(
        data: &[u8],
    ) -> Result<(Ipv4Addr, Ipv4Addr, IpProtocol), ParseError> {
        checked_header_lengths!(data);
        Ok((
            Ipv4Addr::from_octets([data[12], data[13], data[14], data[15]]),
            Ipv4Addr::from_octets([data[16], data[17], data[18], data[19]]),
            IpProtocol::from_number(data[9]),
        ))
    }

    /// Fragment this packet so no fragment exceeds `mtu` bytes on the wire.
    ///
    /// Returns the original packet unchanged if it already fits. Returns
    /// `None` if the packet needs fragmenting but has the DF bit set (the
    /// caller should emit ICMP "fragmentation needed").
    pub fn fragment(&self, mtu: usize) -> Option<Vec<Ipv4Packet>> {
        if self.wire_len() <= mtu {
            return Some(vec![self.clone()]);
        }
        if self.dont_fragment {
            return None;
        }
        // Payload bytes per fragment must be a multiple of 8 (except last).
        // (Simplification vs RFC 791: options are copied into every
        // fragment rather than filtered by their copy bit; LSR, the only
        // option we build, has the copy bit set anyway.)
        let per_frag = ((mtu - self.header_len()) / 8) * 8;
        if per_frag == 0 {
            return None;
        }
        let mut frags = Vec::new();
        let mut off = 0usize;
        while off < self.payload.len() {
            let end = (off + per_frag).min(self.payload.len());
            let last = end == self.payload.len();
            frags.push(Ipv4Packet {
                more_fragments: !last || self.more_fragments,
                frag_offset: self.frag_offset + (off / 8) as u16,
                payload: self.payload.slice(off..end),
                ..self.clone()
            });
            off = end;
        }
        Some(frags)
    }
}

/// Key identifying one datagram's fragments (RFC 791 reassembly tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReasmKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
    protocol: u8,
}

#[derive(Debug)]
struct ReasmBuf {
    /// (offset-in-bytes, payload) of every fragment seen so far.
    pieces: Vec<(usize, Bytes)>,
    /// Total payload length, known once the MF=0 fragment arrives.
    total_len: Option<usize>,
    first_seen: SimTime,
    /// Template header fields taken from the first fragment.
    template: Ipv4Packet,
}

/// Reassembles fragmented IPv4 datagrams.
///
/// Buffers are dropped if not completed within `timeout` (RFC 791 suggests
/// 15 seconds; we default to 30 as Linux does).
#[derive(Debug)]
pub struct Reassembler {
    bufs: std::collections::HashMap<ReasmKey, ReasmBuf>,
    timeout: crate::time::SimDuration,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new(crate::time::SimDuration::from_secs(30))
    }
}

impl Reassembler {
    /// A reassembler dropping incomplete datagrams after `timeout`.
    pub fn new(timeout: crate::time::SimDuration) -> Reassembler {
        Reassembler {
            bufs: std::collections::HashMap::new(),
            timeout,
        }
    }

    /// Number of datagrams currently being reassembled.
    pub fn pending(&self) -> usize {
        self.bufs.len()
    }

    /// Feed one packet in. Non-fragments pass straight through. Returns the
    /// reassembled datagram when the last missing fragment arrives.
    pub fn push(&mut self, pkt: Ipv4Packet, now: SimTime) -> Option<Ipv4Packet> {
        self.expire(now);
        if !pkt.is_fragment() {
            return Some(pkt);
        }
        let key = ReasmKey {
            src: pkt.src,
            dst: pkt.dst,
            ident: pkt.ident,
            protocol: pkt.protocol.number(),
        };
        let buf = self.bufs.entry(key).or_insert_with(|| ReasmBuf {
            pieces: Vec::new(),
            total_len: None,
            first_seen: now,
            template: pkt.clone(),
        });
        let off = usize::from(pkt.frag_offset) * 8;
        if !pkt.more_fragments {
            buf.total_len = Some(off + pkt.payload.len());
        }
        // Ignore exact duplicates.
        if !buf
            .pieces
            .iter()
            .any(|(o, p)| *o == off && p.len() == pkt.payload.len())
        {
            buf.pieces.push((off, pkt.payload));
        }
        let total = buf.total_len?;
        // Check contiguous coverage of [0, total). Sorted in place: the
        // duplicate check above does not depend on the order, and a stable
        // sort keeps equal offsets in arrival order however often it runs.
        buf.pieces.sort_by_key(|(o, _)| *o);
        let mut covered = 0usize;
        for (o, p) in &buf.pieces {
            if *o > covered {
                return None; // hole
            }
            covered = covered.max(o + p.len());
        }
        if covered < total {
            return None;
        }
        // Complete: splice the payload together.
        let buf = self.bufs.remove(&key).unwrap();
        let mut payload = vec![0u8; total];
        for (o, p) in buf.pieces {
            let end = (o + p.len()).min(total);
            payload[o..end].copy_from_slice(&p[..end - o]);
        }
        Some(Ipv4Packet {
            more_fragments: false,
            frag_offset: 0,
            payload: Bytes::from(payload),
            ..buf.template
        })
    }

    /// Drop reassembly buffers older than the timeout.
    pub fn expire(&mut self, now: SimTime) {
        let timeout = self.timeout;
        self.bufs.retain(|_, b| now.since(b.first_seen) <= timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn addr_display_parse_roundtrip() {
        for s in ["0.0.0.0", "171.64.15.1", "255.255.255.255", "10.0.0.7"] {
            assert_eq!(addr(s).to_string(), s);
        }
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.256".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn addr_classification() {
        assert!(Ipv4Addr::UNSPECIFIED.is_unspecified());
        assert!(Ipv4Addr::BROADCAST.is_broadcast());
        assert!(addr("224.0.0.1").is_multicast());
        assert!(addr("239.255.255.255").is_multicast());
        assert!(!addr("223.255.255.255").is_multicast());
        assert!(!addr("240.0.0.1").is_multicast());
    }

    #[test]
    fn cidr_contains_and_masks() {
        let net: Ipv4Cidr = "171.64.0.0/16".parse().unwrap();
        assert!(net.contains(addr("171.64.15.1")));
        assert!(!net.contains(addr("171.65.0.1")));
        assert_eq!(net.network(), addr("171.64.0.0"));
        assert_eq!(net.broadcast(), addr("171.64.255.255"));
        assert_eq!(net.nth(258), addr("171.64.1.2"));
        // Non-canonical input is masked down.
        let c = Ipv4Cidr::new(addr("10.1.2.3"), 8);
        assert_eq!(c.network(), addr("10.0.0.0"));
        // /0 contains everything.
        assert!(Ipv4Cidr::default_route().contains(addr("8.8.8.8")));
        // /32 contains only itself.
        let h = Ipv4Cidr::host(addr("10.0.0.1"));
        assert!(h.contains(addr("10.0.0.1")));
        assert!(!h.contains(addr("10.0.0.2")));
    }

    #[test]
    fn cidr_parse_rejects_bad_prefix() {
        assert!("10.0.0.0/33".parse::<Ipv4Cidr>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Cidr>().is_err());
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(IpProtocol::from_number(n).number(), n);
        }
    }

    fn sample_packet(payload_len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut p = Ipv4Packet::new(
            addr("36.186.0.5"),
            addr("171.64.15.9"),
            IpProtocol::Udp,
            Bytes::from(payload),
        );
        p.ident = 0x4242;
        p
    }

    #[test]
    fn emit_parse_roundtrip() {
        let p = sample_packet(100);
        let wire = p.emit();
        assert_eq!(wire.len(), p.wire_len());
        let q = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parse_rejects_corruption() {
        let p = sample_packet(40);
        let mut wire = p.emit().to_vec();
        wire[8] ^= 0xff; // flip TTL → checksum mismatch
        assert_eq!(
            Ipv4Packet::parse(&wire),
            Err(ParseError::BadChecksum {
                what: "ipv4 header"
            })
        );
    }

    #[test]
    fn parse_rejects_truncation_and_bad_version() {
        assert!(matches!(
            Ipv4Packet::parse(&[0x45; 10]),
            Err(ParseError::Truncated { .. })
        ));
        let p = sample_packet(10);
        let mut wire = p.emit().to_vec();
        wire[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::parse(&wire),
            Err(ParseError::BadField {
                what: "ip version",
                ..
            })
        ));
    }

    #[test]
    fn parse_ignores_trailing_link_padding() {
        // Ethernet pads short frames; the IP total-length field governs.
        let p = sample_packet(8);
        let mut wire = p.emit().to_vec();
        wire.extend_from_slice(&[0u8; 18]);
        let q = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(q.payload.len(), 8);
    }

    #[test]
    fn no_fragmentation_needed_when_fits() {
        let p = sample_packet(100);
        let frags = p.fragment(1500).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    fn fragmentation_respects_df() {
        let mut p = sample_packet(3000);
        p.dont_fragment = true;
        assert!(p.fragment(1500).is_none());
    }

    #[test]
    fn fragment_offsets_are_8_byte_aligned_and_sizes_fit() {
        let p = sample_packet(4000);
        let frags = p.fragment(1500).unwrap();
        assert!(frags.len() >= 3);
        for (i, f) in frags.iter().enumerate() {
            assert!(f.wire_len() <= 1500);
            let last = i == frags.len() - 1;
            assert_eq!(f.more_fragments, !last);
            if !last {
                assert_eq!(f.payload.len() % 8, 0);
            }
        }
    }

    #[test]
    fn paper_s3_3_crossing_mtu_doubles_packet_count() {
        // A full-MTU packet (1500 bytes on the wire) fits exactly. Adding a
        // 20-byte encapsulating header pushes it over, doubling the count.
        let inner = sample_packet(1500 - IPV4_HEADER_LEN);
        assert_eq!(inner.fragment(1500).unwrap().len(), 1);
        let outer = Ipv4Packet::new(
            addr("10.0.0.1"),
            addr("10.0.0.2"),
            IpProtocol::IpInIp,
            inner.emit(),
        );
        assert_eq!(outer.fragment(1500).unwrap().len(), 2);
    }

    #[test]
    fn reassembly_in_order_and_out_of_order() {
        let p = sample_packet(5000);
        let frags = p.fragment(1500).unwrap();
        let mut r = Reassembler::default();

        // In order.
        let mut out = None;
        for f in &frags {
            out = r.push(f.clone(), SimTime::ZERO);
        }
        assert_eq!(out.unwrap(), p);
        assert_eq!(r.pending(), 0);

        // Reversed order.
        let mut out = None;
        for f in frags.iter().rev() {
            out = r.push(f.clone(), SimTime::ZERO);
        }
        assert_eq!(out.unwrap(), p);
    }

    #[test]
    fn reassembly_tolerates_duplicates_and_holes() {
        let p = sample_packet(4000);
        let frags = p.fragment(1500).unwrap();
        let mut r = Reassembler::default();
        assert!(r.push(frags[0].clone(), SimTime::ZERO).is_none());
        assert!(r.push(frags[0].clone(), SimTime::ZERO).is_none()); // dup
        assert!(r.push(frags[2].clone(), SimTime::ZERO).is_none()); // hole at 1
        let done = r.push(frags[1].clone(), SimTime::ZERO);
        assert_eq!(done.unwrap(), p);
    }

    #[test]
    fn reassembly_times_out_stale_buffers() {
        let p = sample_packet(4000);
        let frags = p.fragment(1500).unwrap();
        let mut r = Reassembler::new(crate::time::SimDuration::from_secs(30));
        assert!(r.push(frags[0].clone(), SimTime::ZERO).is_none());
        assert_eq!(r.pending(), 1);
        let later = SimTime::ZERO + crate::time::SimDuration::from_secs(31);
        r.expire(later);
        assert_eq!(r.pending(), 0);
        // Remaining fragments alone can no longer complete the datagram.
        for f in &frags[1..] {
            assert!(r.push(f.clone(), later).is_none());
        }
    }

    #[test]
    fn nonfragment_passes_straight_through() {
        let p = sample_packet(64);
        let mut r = Reassembler::default();
        assert_eq!(r.push(p.clone(), SimTime::ZERO), Some(p));
    }
}
