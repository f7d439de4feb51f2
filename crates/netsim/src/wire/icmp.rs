//! ICMP (RFC 792) plus the Mobile Host Redirect message.
//!
//! The paper (§3.2) proposes that "when the home agent forwards a packet to
//! the mobile host, it may also send an ICMP message back to the packet's
//! source, informing it of the mobile host's current temporary care-of
//! address". IANA assigned ICMP type 32 ("Mobile Host Redirect") for exactly
//! this purpose; we use it to carry a `(home address, care-of address,
//! lifetime)` binding.

use bytes::Bytes;

use super::ipv4::Ipv4Addr;
use super::{checksum_valid, internet_checksum, ParseError};

/// Codes for [`IcmpMessage::DestUnreachable`] (RFC 792 + RFC 1812 additions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnreachableCode {
    /// Network unreachable.
    Net,
    /// Host unreachable.
    Host,
    /// Protocol unavailable at the destination.
    Protocol,
    /// Port has no listener.
    Port,
    /// Fragmentation needed but DF set. Carries the next-hop MTU (RFC 1191).
    /// DF set but the next hop needs fragmenting; carries its MTU (RFC 1191).
    FragmentationNeeded {
        /// The next-hop MTU the sender should honour.
        mtu: u16,
    },
    /// Communication administratively prohibited — what a filtering boundary
    /// router would send if it reported its drops (most don't; the simulator
    /// can be configured either way).
    AdminProhibited,
}

impl UnreachableCode {
    fn number(self) -> u8 {
        match self {
            UnreachableCode::Net => 0,
            UnreachableCode::Host => 1,
            UnreachableCode::Protocol => 2,
            UnreachableCode::Port => 3,
            UnreachableCode::FragmentationNeeded { .. } => 4,
            UnreachableCode::AdminProhibited => 13,
        }
    }
}

/// A parsed ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Ping request (type 8).
    EchoRequest {
        /// Echo identifier (groups a ping session).
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Ping reply (type 0).
    EchoReply {
        /// Echo identifier (groups a ping session).
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Destination unreachable; `original` is the failed datagram's IP header
    /// plus at least 8 payload bytes, as RFC 792 requires.
    DestUnreachable {
        /// Why delivery failed.
        code: UnreachableCode,
        /// The failed datagram's header plus 8 payload bytes (RFC 792).
        original: Bytes,
    },
    /// TTL expired in transit.
    /// TTL expired in transit (type 11); quotes the offending header.
    TimeExceeded {
        /// The expired datagram's header plus 8 payload bytes.
        original: Bytes,
    },
    /// Mobile Host Redirect (type 32): tells the receiver that packets for
    /// `home` may be tunnelled directly to `care_of` for the next
    /// `lifetime_secs` seconds. Sent by home agents to correspondent hosts.
    MobileHostRedirect {
        /// The mobile's home address the binding concerns.
        home: Ipv4Addr,
        /// Where to tunnel directly.
        care_of: Ipv4Addr,
        /// Seconds the binding may be used.
        lifetime_secs: u16,
    },
}

impl IcmpMessage {
    /// Serialize to wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            }
            | IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                let ty = if matches!(self, IcmpMessage::EchoRequest { .. }) {
                    8
                } else {
                    0
                };
                buf.push(ty);
                buf.push(0);
                buf.extend_from_slice(&[0, 0]);
                buf.extend_from_slice(&ident.to_be_bytes());
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(payload);
            }
            IcmpMessage::DestUnreachable { code, original } => {
                buf.push(3);
                buf.push(code.number());
                buf.extend_from_slice(&[0, 0]);
                let rest = match code {
                    UnreachableCode::FragmentationNeeded { mtu } => {
                        let mut r = [0u8; 4];
                        r[2..4].copy_from_slice(&mtu.to_be_bytes());
                        r
                    }
                    _ => [0u8; 4],
                };
                buf.extend_from_slice(&rest);
                buf.extend_from_slice(original);
            }
            IcmpMessage::TimeExceeded { original } => {
                buf.push(11);
                buf.push(0);
                buf.extend_from_slice(&[0, 0]);
                buf.extend_from_slice(&[0u8; 4]);
                buf.extend_from_slice(original);
            }
            IcmpMessage::MobileHostRedirect {
                home,
                care_of,
                lifetime_secs,
            } => {
                buf.push(32);
                buf.push(0);
                buf.extend_from_slice(&[0, 0]);
                buf.extend_from_slice(&lifetime_secs.to_be_bytes());
                buf.extend_from_slice(&[0, 0]);
                buf.extend_from_slice(&home.octets());
                buf.extend_from_slice(&care_of.octets());
            }
        }
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Parse borrowed bytes: [`IcmpMessage::parse_bytes`] over one copy of
    /// `data`.
    pub fn parse(data: &[u8]) -> Result<IcmpMessage, ParseError> {
        Self::parse_bytes(&Bytes::copy_from_slice(data))
    }

    /// Parse and verify the ICMP checksum. Echo payloads and quoted
    /// datagrams are views of `data`, not copies.
    pub fn parse_bytes(data: &Bytes) -> Result<IcmpMessage, ParseError> {
        if data.len() < 8 {
            return Err(ParseError::Truncated {
                needed: 8,
                got: data.len(),
            });
        }
        if !checksum_valid(data, 0) {
            return Err(ParseError::BadChecksum { what: "icmp" });
        }
        let ty = data[0];
        let code = data[1];
        match ty {
            0 | 8 => {
                let ident = u16::from_be_bytes([data[4], data[5]]);
                let seq = u16::from_be_bytes([data[6], data[7]]);
                let payload = data.slice(8..);
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }
                } else {
                    IcmpMessage::EchoReply {
                        ident,
                        seq,
                        payload,
                    }
                })
            }
            3 => {
                let code = match code {
                    0 => UnreachableCode::Net,
                    1 => UnreachableCode::Host,
                    2 => UnreachableCode::Protocol,
                    3 => UnreachableCode::Port,
                    4 => UnreachableCode::FragmentationNeeded {
                        mtu: u16::from_be_bytes([data[6], data[7]]),
                    },
                    13 => UnreachableCode::AdminProhibited,
                    other => {
                        return Err(ParseError::BadField {
                            what: "icmp unreachable code",
                            value: u64::from(other),
                        })
                    }
                };
                Ok(IcmpMessage::DestUnreachable {
                    code,
                    original: data.slice(8..),
                })
            }
            11 => Ok(IcmpMessage::TimeExceeded {
                original: data.slice(8..),
            }),
            32 => {
                if data.len() < 16 {
                    return Err(ParseError::Truncated {
                        needed: 16,
                        got: data.len(),
                    });
                }
                Ok(IcmpMessage::MobileHostRedirect {
                    lifetime_secs: u16::from_be_bytes([data[4], data[5]]),
                    home: Ipv4Addr::from_octets([data[8], data[9], data[10], data[11]]),
                    care_of: Ipv4Addr::from_octets([data[12], data[13], data[14], data[15]]),
                })
            }
            other => Err(ParseError::BadField {
                what: "icmp type",
                value: u64::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn echo_roundtrip() {
        let m = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: Bytes::from_static(b"ping payload"),
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
        let r = IcmpMessage::EchoReply {
            ident: 0x1234,
            seq: 7,
            payload: Bytes::from_static(b"ping payload"),
        };
        assert_eq!(IcmpMessage::parse(&r.emit()).unwrap(), r);
    }

    #[test]
    fn unreachable_roundtrip_all_codes() {
        for code in [
            UnreachableCode::Net,
            UnreachableCode::Host,
            UnreachableCode::Protocol,
            UnreachableCode::Port,
            UnreachableCode::FragmentationNeeded { mtu: 1500 },
            UnreachableCode::AdminProhibited,
        ] {
            let m = IcmpMessage::DestUnreachable {
                code,
                original: Bytes::from_static(&[0x45; 28]),
            };
            assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
        }
    }

    #[test]
    fn time_exceeded_roundtrip() {
        let m = IcmpMessage::TimeExceeded {
            original: Bytes::from_static(&[0x45; 28]),
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn mobile_host_redirect_roundtrip() {
        let m = IcmpMessage::MobileHostRedirect {
            home: ip("171.64.15.9"),
            care_of: ip("36.186.0.99"),
            lifetime_secs: 300,
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn corruption_is_detected() {
        let m = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::from_static(b"x"),
        };
        let mut wire = m.emit();
        wire[5] ^= 0x80;
        assert_eq!(
            IcmpMessage::parse(&wire),
            Err(ParseError::BadChecksum { what: "icmp" })
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut wire = vec![99u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = internet_checksum(&wire, 0);
        wire[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IcmpMessage::parse(&wire),
            Err(ParseError::BadField {
                what: "icmp type",
                ..
            })
        ));
    }
}
