//! TCP segment wire format (RFC 793) with the IPv4 pseudo-header checksum
//! and the MSS option.
//!
//! The segment format lives here in `netsim::wire`; the protocol state
//! machine lives in the `transport` crate. Keeping the wire format with the
//! other formats lets routers, traces and fault injection treat TCP bytes
//! like any other payload.

use bytes::Bytes;

use super::ipv4::{IpProtocol, Ipv4Addr};
use super::udp::pseudo_header_sum;
use super::{checksum_valid, internet_checksum, ParseError};

/// Minimum TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags {
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// ACK: the acknowledgement field is valid.
    pub ack: bool,
    /// FIN: sender is done sending.
    pub fin: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push to the application promptly.
    pub psh: bool,
}

impl TcpFlags {
    /// A bare SYN (active open).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    /// SYN+ACK (passive-open reply).
    pub fn syn_ack() -> TcpFlags {
        TcpFlags {
            syn: true,
            ack: true,
            ..Default::default()
        }
    }

    /// A bare ACK.
    pub fn ack() -> TcpFlags {
        TcpFlags {
            ack: true,
            ..Default::default()
        }
    }

    /// FIN+ACK (orderly close).
    pub fn fin_ack() -> TcpFlags {
        TcpFlags {
            fin: true,
            ack: true,
            ..Default::default()
        }
    }

    /// A bare RST.
    pub fn rst() -> TcpFlags {
        TcpFlags {
            rst: true,
            ..Default::default()
        }
    }

    fn bits(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_bits(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload octet.
    pub seq: u32,
    /// Cumulative acknowledgement number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Maximum segment size option; emitted only on SYN segments, as in
    /// practice.
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    fn header_len(&self) -> usize {
        if self.mss.is_some() && self.flags.syn {
            TCP_HEADER_LEN + 4
        } else {
            TCP_HEADER_LEN
        }
    }

    /// On-wire length in bytes.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// The amount of sequence space this segment occupies (payload plus one
    /// for each of SYN and FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Serialize; the checksum covers the pseudo-header of `src`/`dst`.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        self.emit_over(src, dst, &[&self.payload])
    }

    /// Serialize this segment's header over a payload gathered from `parts`
    /// in order (`self.payload` is not read): a sender copies its data once,
    /// from wherever it is queued — a ring buffer's two halves, say — into
    /// the wire buffer.
    pub fn emit_over(&self, src: Ipv4Addr, dst: Ipv4Addr, parts: &[&[u8]]) -> Vec<u8> {
        let hlen = self.header_len();
        let total = hlen + parts.iter().map(|p| p.len()).sum::<usize>();
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.push(((hlen / 4) as u8) << 4);
        buf.push(self.flags.bits());
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum
        buf.extend_from_slice(&[0, 0]); // urgent pointer (unused)
        if let (Some(mss), true) = (self.mss, self.flags.syn) {
            buf.push(2); // kind: MSS
            buf.push(4); // length
            buf.extend_from_slice(&mss.to_be_bytes());
        }
        for part in parts {
            buf.extend_from_slice(part);
        }
        let seed = pseudo_header_sum(src, dst, IpProtocol::Tcp, total as u16);
        let ck = internet_checksum(&buf, seed);
        buf[16..18].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Parse borrowed bytes: [`TcpSegment::parse_bytes`] over one copy of
    /// `data`.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<TcpSegment, ParseError> {
        Self::parse_bytes(&Bytes::copy_from_slice(data), src, dst)
    }

    /// Parse and verify against the carrying packet's pseudo-header. The
    /// payload is a view of `data`, not a copy.
    pub fn parse_bytes(
        data: &Bytes,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<TcpSegment, ParseError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: TCP_HEADER_LEN,
                got: data.len(),
            });
        }
        let hlen = usize::from(data[12] >> 4) * 4;
        if hlen < TCP_HEADER_LEN || data.len() < hlen {
            return Err(ParseError::BadField {
                what: "tcp data offset",
                value: (hlen / 4) as u64,
            });
        }
        let seed = pseudo_header_sum(src, dst, IpProtocol::Tcp, data.len() as u16);
        if !checksum_valid(data, seed) {
            return Err(ParseError::BadChecksum { what: "tcp" });
        }
        // Scan options for MSS (kind 2).
        let mut mss = None;
        let mut i = TCP_HEADER_LEN;
        while i < hlen {
            match data[i] {
                0 => break,  // end of options
                1 => i += 1, // no-op
                2 if i + 4 <= hlen => {
                    mss = Some(u16::from_be_bytes([data[i + 2], data[i + 3]]));
                    i += 4;
                }
                _ => {
                    // Unknown option: skip by its length byte if present.
                    if i + 1 >= hlen || data[i + 1] < 2 {
                        break;
                    }
                    i += usize::from(data[i + 1]);
                }
            }
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_bits(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            payload: data.slice(hlen..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn seg() -> TcpSegment {
        TcpSegment {
            src_port: 43210,
            dst_port: 23,
            seq: 0x1000_0000,
            ack: 0x2000_0001,
            flags: TcpFlags::ack(),
            window: 8760,
            mss: None,
            payload: Bytes::from_static(b"telnet keystrokes"),
        }
    }

    #[test]
    fn roundtrip_plain() {
        let s = seg();
        let src = ip("171.64.15.9");
        let dst = ip("18.26.0.1");
        assert_eq!(TcpSegment::parse(&s.emit(src, dst), src, dst).unwrap(), s);
    }

    #[test]
    fn roundtrip_syn_with_mss() {
        let s = TcpSegment {
            flags: TcpFlags::SYN,
            mss: Some(1460),
            payload: Bytes::new(),
            ..seg()
        };
        let src = ip("1.2.3.4");
        let dst = ip("4.3.2.1");
        let wire = s.emit(src, dst);
        assert_eq!(wire.len(), TCP_HEADER_LEN + 4);
        let p = TcpSegment::parse(&wire, src, dst).unwrap();
        assert_eq!(p.mss, Some(1460));
        assert_eq!(p, s);
    }

    #[test]
    fn mss_suppressed_on_non_syn() {
        let s = TcpSegment {
            mss: Some(1460),
            ..seg()
        };
        let src = ip("1.2.3.4");
        let dst = ip("4.3.2.1");
        let p = TcpSegment::parse(&s.emit(src, dst), src, dst).unwrap();
        assert_eq!(p.mss, None, "MSS only travels on SYN segments");
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = seg();
        s.payload = Bytes::from_static(b"abc");
        assert_eq!(s.seq_len(), 3);
        s.flags.syn = true;
        assert_eq!(s.seq_len(), 4);
        s.flags.fin = true;
        assert_eq!(s.seq_len(), 5);
    }

    #[test]
    fn checksum_binds_addresses() {
        // Same property as UDP: the pseudo-header ties the segment to the
        // IP endpoints, which is exactly why a TCP connection breaks when a
        // host's address changes (the paper's Out-DT disadvantage).
        let s = seg();
        let wire = s.emit(ip("10.0.0.1"), ip("10.0.0.2"));
        assert!(TcpSegment::parse(&wire, ip("10.9.9.9"), ip("10.0.0.2")).is_err());
    }

    #[test]
    fn corruption_detected() {
        let s = seg();
        let src = ip("10.0.0.1");
        let dst = ip("10.0.0.2");
        let mut wire = s.emit(src, dst);
        let n = wire.len();
        wire[n - 1] ^= 0x40;
        assert_eq!(
            TcpSegment::parse(&wire, src, dst),
            Err(ParseError::BadChecksum { what: "tcp" })
        );
    }

    #[test]
    fn flags_bits_roundtrip() {
        for bits in 0..32u8 {
            assert_eq!(TcpFlags::from_bits(bits).bits(), bits);
        }
    }

    #[test]
    fn bad_data_offset_rejected() {
        let s = seg();
        let src = ip("10.0.0.1");
        let dst = ip("10.0.0.2");
        let mut wire = s.emit(src, dst);
        wire[12] = 0x10; // data offset 4 words < minimum 5
        assert!(matches!(
            TcpSegment::parse(&wire, src, dst),
            Err(ParseError::BadField { .. })
        ));
    }
}
