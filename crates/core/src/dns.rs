//! DNS with the paper's temporary-address record extension.
//!
//! §3.2: "The second is an extension to the Domain Name Service, similar to
//! the current MX records which provide alternative addresses for mail
//! delivery. A mobile host that is away from home, but not currently
//! changing location frequently, could register its care-of address with
//! the extended DNS service. When a smart correspondent looks up a host
//! name and sees that it has a temporary address record in addition to the
//! normal permanent address record, it then knows that it has the option to
//! send packets directly to that temporary address."
//!
//! The wire format is an RFC 1035 subset: real header, label-encoded names,
//! question and answer sections, A records — plus the **TA record**
//! (private-use type 65280) carrying the care-of address. Dynamic updates
//! (the mobile host registering its TA record) use opcode 5 in the spirit
//! of RFC 2136, with the new record in the answer section. Omitted: name
//! compression, NS/SOA machinery, recursion — a closed simulated internet
//! needs exactly one authoritative server.

use netsim::hash::FxHashMap;
use std::any::Any;

use netsim::wire::ParseError;
use netsim::{App, Host, Ipv4Addr, NetCtx, SimDuration, SimTime};
use transport::udp;

use crate::correspondent::{BindingSource, MobileAwareCh};

/// Standard DNS port.
pub const DNS_PORT: u16 = 53;
/// Record type A (host address).
pub const TYPE_A: u16 = 1;
/// Record type ANY (query only).
pub const TYPE_ANY: u16 = 255;
/// The temporary-address record type (private-use range).
pub const TYPE_TA: u16 = 0xff00;

/// Opcodes we implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Ordinary lookup.
    Query,
    /// Dynamic update (RFC 2136-flavoured).
    Update,
}

/// One question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// The name this record/question concerns.
    pub name: String,
    /// Query type (`TYPE_A`, `TYPE_TA`, or `TYPE_ANY`).
    pub qtype: u16,
}

/// One resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// The name this record/question concerns.
    pub name: String,
    /// Record type (`TYPE_A` or `TYPE_TA`).
    pub rtype: u16,
    /// Seconds the record may be believed (0 deletes on update).
    pub ttl: u32,
    /// The address carried in RDATA.
    pub addr: Ipv4Addr,
}

/// A DNS message (header + question + answer sections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id copied into the response.
    pub id: u16,
    /// QR bit: response rather than query.
    pub response: bool,
    /// Query or dynamic update.
    pub opcode: Opcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section (also carries update records).
    pub answers: Vec<ResourceRecord>,
}

fn emit_name(buf: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        assert!(label.len() < 64, "label too long");
        buf.push(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
    }
    buf.push(0);
}

fn parse_name(data: &[u8], mut pos: usize) -> Result<(String, usize), ParseError> {
    let mut name = String::new();
    loop {
        let len = *data.get(pos).ok_or(ParseError::Truncated {
            needed: pos + 1,
            got: data.len(),
        })? as usize;
        pos += 1;
        if len == 0 {
            break;
        }
        if len >= 64 {
            return Err(ParseError::BadField {
                what: "dns label length",
                value: len as u64,
            });
        }
        if pos + len > data.len() {
            return Err(ParseError::Truncated {
                needed: pos + len,
                got: data.len(),
            });
        }
        if !name.is_empty() {
            name.push('.');
        }
        name.push_str(&String::from_utf8_lossy(&data[pos..pos + len]));
        pos += len;
    }
    Ok((name, pos))
}

impl DnsMessage {
    /// Build a single-question query.
    pub fn query(id: u16, name: &str, qtype: u16) -> DnsMessage {
        DnsMessage {
            id,
            response: false,
            opcode: Opcode::Query,
            questions: vec![Question {
                name: name.to_string(),
                qtype,
            }],
            answers: Vec::new(),
        }
    }

    /// A dynamic update installing (or, with ttl 0, deleting) a record.
    pub fn update(id: u16, record: ResourceRecord) -> DnsMessage {
        DnsMessage {
            id,
            response: false,
            opcode: Opcode::Update,
            questions: Vec::new(),
            answers: vec![record],
        }
    }

    /// Serialize to wire bytes (RFC 1035 subset).
    pub fn emit(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        b.extend_from_slice(&self.id.to_be_bytes());
        let opcode_bits: u16 = match self.opcode {
            Opcode::Query => 0,
            Opcode::Update => 5,
        };
        let flags: u16 = (u16::from(self.response) << 15) | (opcode_bits << 11);
        b.extend_from_slice(&flags.to_be_bytes());
        b.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        b.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes()); // nscount
        b.extend_from_slice(&0u16.to_be_bytes()); // arcount
        for q in &self.questions {
            emit_name(&mut b, &q.name);
            b.extend_from_slice(&q.qtype.to_be_bytes());
            b.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for rr in &self.answers {
            emit_name(&mut b, &rr.name);
            b.extend_from_slice(&rr.rtype.to_be_bytes());
            b.extend_from_slice(&1u16.to_be_bytes()); // class IN
            b.extend_from_slice(&rr.ttl.to_be_bytes());
            b.extend_from_slice(&4u16.to_be_bytes()); // rdlength
            b.extend_from_slice(&rr.addr.octets());
        }
        b
    }

    /// Parse from wire bytes.
    pub fn parse(data: &[u8]) -> Result<DnsMessage, ParseError> {
        if data.len() < 12 {
            return Err(ParseError::Truncated {
                needed: 12,
                got: data.len(),
            });
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = u16::from_be_bytes([data[2], data[3]]);
        let opcode = match (flags >> 11) & 0xf {
            0 => Opcode::Query,
            5 => Opcode::Update,
            other => {
                return Err(ParseError::BadField {
                    what: "dns opcode",
                    value: u64::from(other),
                })
            }
        };
        let qdcount = u16::from_be_bytes([data[4], data[5]]) as usize;
        let ancount = u16::from_be_bytes([data[6], data[7]]) as usize;
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qdcount);
        for _ in 0..qdcount {
            let (name, p) = parse_name(data, pos)?;
            pos = p;
            if pos + 4 > data.len() {
                return Err(ParseError::Truncated {
                    needed: pos + 4,
                    got: data.len(),
                });
            }
            let qtype = u16::from_be_bytes([data[pos], data[pos + 1]]);
            pos += 4; // skip class
            questions.push(Question { name, qtype });
        }
        let mut answers = Vec::with_capacity(ancount);
        for _ in 0..ancount {
            let (name, p) = parse_name(data, pos)?;
            pos = p;
            if pos + 10 > data.len() {
                return Err(ParseError::Truncated {
                    needed: pos + 10,
                    got: data.len(),
                });
            }
            let rtype = u16::from_be_bytes([data[pos], data[pos + 1]]);
            let ttl =
                u32::from_be_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
            let rdlen = u16::from_be_bytes([data[pos + 8], data[pos + 9]]) as usize;
            pos += 10;
            if rdlen != 4 || pos + 4 > data.len() {
                return Err(ParseError::BadField {
                    what: "dns rdlength",
                    value: rdlen as u64,
                });
            }
            let addr =
                Ipv4Addr::from_octets([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
            pos += 4;
            answers.push(ResourceRecord {
                name,
                rtype,
                ttl,
                addr,
            });
        }
        Ok(DnsMessage {
            id,
            response: flags & 0x8000 != 0,
            opcode,
            questions,
            answers,
        })
    }
}

// ------------------------------------------------------------------ server

#[derive(Debug, Clone, Default)]
struct ZoneEntry {
    a: Option<Ipv4Addr>,
    ta: Option<(Ipv4Addr, SimTime)>, // (care-of, expires)
}

/// An authoritative DNS server with TA-record support, run as an [`App`].
pub struct DnsServer {
    zone: FxHashMap<String, ZoneEntry>,
    sock: Option<udp::UdpHandle>,
    /// Queries answered.
    pub queries_served: u64,
    /// Dynamic updates applied.
    pub updates_accepted: u64,
}

impl DnsServer {
    /// An empty authoritative server.
    pub fn new() -> DnsServer {
        DnsServer {
            zone: FxHashMap::default(),
            sock: None,
            queries_served: 0,
            updates_accepted: 0,
        }
    }

    /// Pre-load an A record.
    pub fn with_a(mut self, name: &str, addr: Ipv4Addr) -> DnsServer {
        self.zone.entry(name.to_string()).or_default().a = Some(addr);
        self
    }

    /// The current TA record for `name`, with its expiry (tests).
    pub fn ta_record(&self, name: &str) -> Option<(Ipv4Addr, SimTime)> {
        self.zone.get(name).and_then(|e| e.ta)
    }

    fn answer(&mut self, q: &Question, now: SimTime) -> Vec<ResourceRecord> {
        let mut out = Vec::new();
        let Some(entry) = self.zone.get_mut(&q.name) else {
            return out;
        };
        // Expire stale TA records lazily.
        if entry.ta.is_some_and(|(_, exp)| now > exp) {
            entry.ta = None;
        }
        if q.qtype == TYPE_A || q.qtype == TYPE_ANY {
            if let Some(a) = entry.a {
                out.push(ResourceRecord {
                    name: q.name.clone(),
                    rtype: TYPE_A,
                    ttl: 3600,
                    addr: a,
                });
            }
        }
        if q.qtype == TYPE_TA || q.qtype == TYPE_ANY {
            if let Some((coa, exp)) = entry.ta {
                out.push(ResourceRecord {
                    name: q.name.clone(),
                    rtype: TYPE_TA,
                    ttl: (exp.since(now).as_micros() / 1_000_000) as u32,
                    addr: coa,
                });
            }
        }
        out
    }
}

impl Default for DnsServer {
    fn default() -> Self {
        DnsServer::new()
    }
}

impl App for DnsServer {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        let sock = *self
            .sock
            .get_or_insert_with(|| udp::bind(host, None, DNS_PORT));
        while let Some(got) = udp::recv(host, sock) {
            let Ok(msg) = DnsMessage::parse(&got.payload) else {
                continue;
            };
            if msg.response {
                continue;
            }
            let reply = match msg.opcode {
                Opcode::Query => {
                    self.queries_served += 1;
                    let mut answers = Vec::new();
                    for q in &msg.questions {
                        answers.extend(self.answer(q, ctx.now));
                    }
                    DnsMessage {
                        id: msg.id,
                        response: true,
                        opcode: Opcode::Query,
                        questions: msg.questions.clone(),
                        answers,
                    }
                }
                Opcode::Update => {
                    for rr in &msg.answers {
                        let entry = self.zone.entry(rr.name.clone()).or_default();
                        match rr.rtype {
                            TYPE_TA if rr.ttl == 0 => entry.ta = None,
                            TYPE_TA => {
                                entry.ta = Some((
                                    rr.addr,
                                    ctx.now + SimDuration::from_secs(u64::from(rr.ttl)),
                                ));
                            }
                            TYPE_A => entry.a = Some(rr.addr),
                            _ => {}
                        }
                        self.updates_accepted += 1;
                    }
                    DnsMessage {
                        id: msg.id,
                        response: true,
                        opcode: Opcode::Update,
                        questions: Vec::new(),
                        answers: Vec::new(),
                    }
                }
            };
            udp::send_to(host, ctx, sock, got.from, reply.emit());
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

// ------------------------------------------------------------------ client

/// The outcome of a [`DnsLookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsResult {
    /// The permanent (A) address, if any.
    pub a: Option<Ipv4Addr>,
    /// The temporary (TA) care-of address, if currently registered.
    pub ta: Option<Ipv4Addr>,
}

/// A one-shot ANY lookup, run as an [`App`]. If the answer includes a TA
/// record and the host carries a [`MobileAwareCh`] hook, the binding is
/// installed automatically — the §3.2 smart-correspondent flow.
pub struct DnsLookup {
    /// The server to talk to.
    pub server: (Ipv4Addr, u16),
    /// The name this record/question concerns.
    pub name: String,
    /// Auto-install a learned binding into a `MobileAwareCh` hook.
    pub install_binding: bool,
    sock: Option<udp::UdpHandle>,
    sent: bool,
    /// The answer, once it arrives.
    pub result: Option<DnsResult>,
}

impl DnsLookup {
    /// A one-shot ANY lookup of `name` at `server`.
    pub fn new(server: Ipv4Addr, name: &str) -> DnsLookup {
        DnsLookup {
            server: (server, DNS_PORT),
            name: name.to_string(),
            install_binding: true,
            sock: None,
            sent: false,
            result: None,
        }
    }
}

impl App for DnsLookup {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        if self.result.is_some() {
            return;
        }
        let sock = *self.sock.get_or_insert_with(|| udp::bind(host, None, 0));
        if !self.sent {
            // DNS queries are the paper's canonical Out-DT traffic: port 53
            // hits the policy's DT heuristic automatically.
            let q = DnsMessage::query(0x4d31, &self.name, TYPE_ANY);
            udp::send_to(host, ctx, sock, self.server, q.emit());
            self.sent = true;
        }
        while let Some(got) = udp::recv(host, sock) {
            let Ok(msg) = DnsMessage::parse(&got.payload) else {
                continue;
            };
            if !msg.response {
                continue;
            }
            let a = msg
                .answers
                .iter()
                .find(|r| r.rtype == TYPE_A)
                .map(|r| r.addr);
            let ta = msg
                .answers
                .iter()
                .find(|r| r.rtype == TYPE_TA)
                .map(|r| r.addr);
            if self.install_binding {
                if let (Some(home), Some(coa)) = (a, ta) {
                    let ttl = msg
                        .answers
                        .iter()
                        .find(|r| r.rtype == TYPE_TA)
                        .map(|r| r.ttl)
                        .unwrap_or(60);
                    let expires = ctx.now + SimDuration::from_secs(u64::from(ttl));
                    if let Some(ch) = host.hook_as::<MobileAwareCh>() {
                        ch.set_binding(home, coa, expires, BindingSource::Dns);
                    }
                }
            }
            self.result = Some(DnsResult { a, ta });
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A mobile-host-side app that keeps the TA record registered while the
/// host is away and withdraws it when home — §3.2's "register its care-of
/// address with the extended DNS service".
pub struct TaRegistrar {
    /// The server to talk to.
    pub server: (Ipv4Addr, u16),
    /// The name this record/question concerns.
    pub name: String,
    /// Seconds the record may be believed (0 deletes on update).
    pub ttl: u32,
    sock: Option<udp::UdpHandle>,
    last_published: Option<Option<Ipv4Addr>>,
    /// Dynamic updates transmitted.
    pub updates_sent: u64,
}

impl TaRegistrar {
    /// A registrar keeping `name`'s TA record current at `server`.
    pub fn new(server: Ipv4Addr, name: &str) -> TaRegistrar {
        TaRegistrar {
            server: (server, DNS_PORT),
            name: name.to_string(),
            ttl: 300,
            sock: None,
            last_published: None,
            updates_sent: 0,
        }
    }
}

impl App for TaRegistrar {
    fn poll(&mut self, host: &mut Host, ctx: &mut NetCtx) {
        let current = host
            .hook_as::<crate::mobile_host::MobileHost>()
            .and_then(|mh| mh.care_of());
        if self.last_published == Some(current) {
            return;
        }
        let sock = *self.sock.get_or_insert_with(|| udp::bind(host, None, 0));
        let rr = ResourceRecord {
            name: self.name.clone(),
            rtype: TYPE_TA,
            ttl: if current.is_some() { self.ttl } else { 0 },
            addr: current.unwrap_or(Ipv4Addr::UNSPECIFIED),
        };
        let msg = DnsMessage::update(0x7a00 + self.updates_sent as u16, rr);
        if udp::send_to(host, ctx, sock, self.server, msg.emit()) {
            self.updates_sent += 1;
            self.last_published = Some(current);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostConfig, LinkConfig, NodeId, World};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn message_roundtrip_query_and_response() {
        let q = DnsMessage::query(7, "mh.mosquitonet.stanford.edu", TYPE_ANY);
        assert_eq!(DnsMessage::parse(&q.emit()).unwrap(), q);
        let r = DnsMessage {
            id: 7,
            response: true,
            opcode: Opcode::Query,
            questions: q.questions.clone(),
            answers: vec![
                ResourceRecord {
                    name: "mh.mosquitonet.stanford.edu".into(),
                    rtype: TYPE_A,
                    ttl: 3600,
                    addr: ip("171.64.15.9"),
                },
                ResourceRecord {
                    name: "mh.mosquitonet.stanford.edu".into(),
                    rtype: TYPE_TA,
                    ttl: 300,
                    addr: ip("36.186.0.99"),
                },
            ],
        };
        assert_eq!(DnsMessage::parse(&r.emit()).unwrap(), r);
    }

    #[test]
    fn update_roundtrip() {
        let u = DnsMessage::update(
            1,
            ResourceRecord {
                name: "mh.stanford.edu".into(),
                rtype: TYPE_TA,
                ttl: 300,
                addr: ip("36.186.0.99"),
            },
        );
        let p = DnsMessage::parse(&u.emit()).unwrap();
        assert_eq!(p.opcode, Opcode::Update);
        assert_eq!(p, u);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DnsMessage::parse(&[0u8; 4]).is_err());
        let mut msg = DnsMessage::query(1, "a.b", TYPE_A).emit();
        msg[2] = 0x40; // opcode 8: unknown
        assert!(DnsMessage::parse(&msg).is_err());
    }

    fn dns_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(41);
        let lan = w.add_segment(LinkConfig::lan());
        let server = w.add_host(HostConfig::conventional("ns"));
        let client = w.add_host(HostConfig::conventional("client"));
        w.attach(server, lan, Some("10.0.0.53/24"));
        w.attach(client, lan, Some("10.0.0.2/24"));
        udp::install(w.host_mut(server));
        udp::install(w.host_mut(client));
        w.host_mut(server).add_app(Box::new(
            DnsServer::new().with_a("mh.stanford.edu", ip("171.64.15.9")),
        ));
        w.poll_soon(server);
        (w, server, client)
    }

    #[test]
    fn server_answers_a_queries() {
        let (mut w, _server, client) = dns_world();
        let app = w
            .host_mut(client)
            .add_app(Box::new(DnsLookup::new(ip("10.0.0.53"), "mh.stanford.edu")));
        w.poll_soon(client);
        w.run_for(SimDuration::from_secs(1));
        let lookup = w.host_mut(client).app_as::<DnsLookup>(app).unwrap();
        let res = lookup.result.clone().expect("answered");
        assert_eq!(res.a, Some(ip("171.64.15.9")));
        assert_eq!(res.ta, None, "no TA while the mobile is home");
    }

    #[test]
    fn update_then_query_returns_ta_until_expiry() {
        let (mut w, server, client) = dns_world();
        // Push a TA update by hand.
        let sock = udp::bind(w.host_mut(client), None, 0);
        let up = DnsMessage::update(
            9,
            ResourceRecord {
                name: "mh.stanford.edu".into(),
                rtype: TYPE_TA,
                ttl: 5,
                addr: ip("36.186.0.99"),
            },
        );
        w.host_do(client, |h, ctx| {
            udp::send_to(h, ctx, sock, (ip("10.0.0.53"), DNS_PORT), up.emit());
        });
        w.run_for(SimDuration::from_secs(1));
        {
            let srv = w.host_mut(server).app_as::<DnsServer>(0).unwrap();
            assert_eq!(srv.updates_accepted, 1);
            assert_eq!(
                srv.ta_record("mh.stanford.edu").map(|t| t.0),
                Some(ip("36.186.0.99"))
            );
        }
        // Query sees both records.
        let app = w
            .host_mut(client)
            .add_app(Box::new(DnsLookup::new(ip("10.0.0.53"), "mh.stanford.edu")));
        w.poll_soon(client);
        w.run_for(SimDuration::from_secs(1));
        let res = w
            .host_mut(client)
            .app_as::<DnsLookup>(app)
            .unwrap()
            .result
            .clone()
            .unwrap();
        assert_eq!(res.ta, Some(ip("36.186.0.99")));
        // After the 5-second TTL the TA record is gone.
        w.run_for(SimDuration::from_secs(6));
        let app2 = w
            .host_mut(client)
            .add_app(Box::new(DnsLookup::new(ip("10.0.0.53"), "mh.stanford.edu")));
        w.poll_soon(client);
        w.run_for(SimDuration::from_secs(1));
        let res2 = w
            .host_mut(client)
            .app_as::<DnsLookup>(app2)
            .unwrap()
            .result
            .clone()
            .unwrap();
        assert_eq!(res2.a, Some(ip("171.64.15.9")), "A record persists");
        assert_eq!(res2.ta, None, "TA record expired");
    }

    #[test]
    fn unknown_name_yields_empty_answer() {
        let (mut w, _server, client) = dns_world();
        let app = w
            .host_mut(client)
            .add_app(Box::new(DnsLookup::new(ip("10.0.0.53"), "nosuch.example")));
        w.poll_soon(client);
        w.run_for(SimDuration::from_secs(1));
        let res = w
            .host_mut(client)
            .app_as::<DnsLookup>(app)
            .unwrap()
            .result
            .clone()
            .expect("negative answer still arrives");
        assert_eq!(res.a, None);
        assert_eq!(res.ta, None);
    }
}
