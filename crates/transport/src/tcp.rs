//! TCP (RFC 793 subset) over `netsim`.
//!
//! Implemented: the three-way handshake, cumulative acknowledgement,
//! out-of-order reassembly, retransmission with a Karn-sampled RTO
//! (RFC 6298) and exponential backoff, FIN teardown through all the
//! close states, RST generation and handling, and MSS negotiation.
//! Deliberately omitted (not needed for the paper's claims): flow control
//! back-pressure (the window is fixed), congestion control, SACK.
//!
//! Two properties matter for Internet Mobility 4x4:
//!
//! 1. **Connections are named by the 4-tuple** (local addr, local port,
//!    remote addr, remote port). A mobile host that keeps using its home
//!    address keeps its connections when it moves; one that uses a care-of
//!    address loses them ("TCP connections will be unceremoniously broken
//!    when the mobile host moves", §4).
//! 2. **Transmission feedback** (§7.1.2): every data/FIN segment handed to
//!    IP is tagged original-or-retransmission, and the same signal is
//!    passed to the host's mobility hook — both for segments we send and
//!    for duplicates we receive ("if the IP layer sees repeated
//!    retransmissions from a particular address, then that suggests that
//!    acknowledgements are not getting through").

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use bytes::Bytes;

use netsim::device::host::FeedbackEvent;
use netsim::device::TxMeta;
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use netsim::wire::tcpseg::{TcpFlags, TcpSegment};
use netsim::{Host, IfaceNo, NetCtx, ProtocolHandler, SimDuration, SimTime, TimerHandle};

use crate::{seq_le, seq_lt};

/// Connection states (RFC 793 §3.2, minus LISTEN, which lives in the
/// listener table rather than per-connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open: SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open: SYN-ACK sent, awaiting the final ACK.
    SynReceived,
    /// Data may flow both ways.
    Established,
    /// We closed first; our FIN is unacknowledged.
    FinWait1,
    /// Our FIN acknowledged; awaiting the peer's.
    FinWait2,
    /// Peer closed; the application may still send.
    CloseWait,
    /// Both FINs in flight (simultaneous close).
    Closing,
    /// Peer closed first; our FIN awaits its ACK.
    LastAck,
    /// Fully closed; lingering to absorb stragglers.
    TimeWait,
    /// No connection (terminal).
    Closed,
}

impl TcpState {
    /// Can the application still send data in this state?
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }
}

/// Why a connection died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Peer sent RST (or we aborted).
    Reset,
    /// Retransmission limit exhausted — the path silently ate our segments,
    /// which is what a filtered Out-DH path looks like from the inside.
    TimedOut,
    /// No usable source address / route at connect time.
    Unroutable,
}

/// Per-connection counters, visible to experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Segments retransmitted after an RTO.
    pub segs_retransmitted: u64,
    /// Payload bytes sent (first transmissions only).
    pub bytes_sent: u64,
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Duplicate data segments received (the peer's retransmissions).
    pub dup_segments_received: u64,
    /// Karn-valid RTT samples taken.
    pub rtt_samples: u64,
    /// Smoothed RTT in microseconds, once sampled.
    pub srtt_us: Option<u64>,
}

const MAX_RETRIES: u32 = 6;
const INITIAL_RTO: SimDuration = SimDuration::from_millis(1_000);
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
const MAX_RTO: SimDuration = SimDuration::from_secs(60);
const TIME_WAIT_DURATION: SimDuration = SimDuration::from_secs(10);
const DEFAULT_MSS: usize = 1460;
const WINDOW: u16 = 0xffff;
/// Fixed transmission window, in segments.
const MAX_IN_FLIGHT_SEGS: usize = 16;

/// Handle to a TCP connection on some host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHandle(usize);

/// Handle to a listening socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerHandle(usize);

#[derive(Debug)]
struct Listener {
    addr: Option<Ipv4Addr>,
    port: u16,
    accept_q: VecDeque<usize>,
    open: bool,
}

#[derive(Debug)]
struct TcpConn {
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    /// Listener that spawned us (to enqueue on establishment).
    parent: Option<usize>,

    // Send side. `send_buf` holds bytes from `snd_una` onward; it is only
    // ever touched a contiguous range at a time (see `ring_range`).
    snd_una: u32,
    snd_nxt: u32,
    iss: u32,
    send_buf: VecDeque<u8>,
    fin_pending: bool,
    fin_seq: Option<u32>,

    // Receive side.
    rcv_nxt: u32,
    recv_buf: Vec<u8>,
    ooo: BTreeMap<u32, Bytes>,
    peer_closed: bool,

    // Retransmission.
    rto: SimDuration,
    srtt_us: Option<(u64, u64)>, // (srtt, rttvar)
    retries: u32,
    timer_gen: u64,
    /// The connection's one pending timer (RTO, keepalive, or TIME-WAIT),
    /// cancelled in the scheduler when re-armed or no longer needed. The
    /// generation number stays as a second line of defence for timers
    /// already extracted into the event loop's in-flight batch.
    timer: Option<TimerHandle>,
    /// Karn's algorithm: RTT probe (sequence end, send time); cleared by any
    /// retransmission.
    rtt_probe: Option<(u32, SimTime)>,

    mss: usize,
    /// Keepalive probing interval while the connection is idle (off by
    /// default, like real stacks). Detects half-dead connections — e.g. a
    /// peer whose care-of address stopped existing — that would otherwise
    /// sit Established forever with nothing in flight.
    keepalive: Option<SimDuration>,
    /// Consecutive unanswered keepalive probes.
    keepalive_fails: u32,
    stats: TcpStats,
    error: Option<TcpError>,
}

impl TcpConn {
    fn in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }
}

/// Unanswered keepalive probes before the connection is declared dead.
const KEEPALIVE_LIMIT: u32 = 3;

/// The TCP protocol handler for one host.
#[derive(Debug, Default)]
pub struct TcpLayer {
    conns: Vec<TcpConn>,
    listeners: Vec<Listener>,
    next_ephemeral: u16,
    isn: u32,
    /// Segments that matched no connection or listener (observability).
    pub unmatched: u64,
}

impl TcpLayer {
    fn alloc_port(&mut self) -> u16 {
        loop {
            self.next_ephemeral = if self.next_ephemeral < 49152 || self.next_ephemeral == u16::MAX
            {
                49152
            } else {
                self.next_ephemeral + 1
            };
            let p = self.next_ephemeral;
            let in_use = self
                .conns
                .iter()
                .any(|c| c.local.1 == p && c.state != TcpState::Closed)
                || self.listeners.iter().any(|l| l.open && l.port == p);
            if !in_use {
                return p;
            }
        }
    }

    fn next_isn(&mut self) -> u32 {
        self.isn = self.isn.wrapping_add(0x1000_0001);
        self.isn
    }

    fn find_conn(&self, local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> Option<usize> {
        self.conns
            .iter()
            .position(|c| c.state != TcpState::Closed && c.local == local && c.remote == remote)
    }

    fn find_listener(&self, dst_addr: Ipv4Addr, dst_port: u16) -> Option<usize> {
        let mut wildcard = None;
        for (i, l) in self.listeners.iter().enumerate() {
            if !l.open || l.port != dst_port {
                continue;
            }
            match l.addr {
                Some(a) if a == dst_addr => return Some(i),
                None => wildcard = Some(i),
                _ => {}
            }
        }
        wildcard
    }
}

// ---- segment transmission helpers ------------------------------------------

/// The send-queue range of a segment that carries no data.
const NO_DATA: Range<usize> = 0..0;

/// `q[r]` as the (at most two) contiguous runs the ring stores it in.
fn ring_range(q: &VecDeque<u8>, r: Range<usize>) -> [&[u8]; 2] {
    let (a, b) = q.as_slices();
    let cut = a.len();
    [
        &a[r.start.min(cut)..r.end.min(cut)],
        &b[r.start.saturating_sub(cut)..r.end.saturating_sub(cut)],
    ]
}

fn timer_payload(ix: usize, gen: u64) -> u64 {
    ((ix as u64) << 32) | (gen & 0xffff_ffff)
}

fn split_payload(p: u64) -> (usize, u64) {
    ((p >> 32) as usize, p & 0xffff_ffff)
}

impl TcpLayer {
    /// Hand one segment to IP. `data` is the range of `send_buf` it
    /// carries, copied from the queue straight into the wire buffer.
    #[allow(clippy::too_many_arguments)] // one call site shape, kept explicit
    fn emit(
        &mut self,
        ix: usize,
        host: &mut Host,
        ctx: &mut NetCtx,
        seq: u32,
        flags: TcpFlags,
        data: Range<usize>,
        retransmission: bool,
    ) {
        let c = &mut self.conns[ix];
        let seg = TcpSegment {
            src_port: c.local.1,
            dst_port: c.remote.1,
            seq,
            ack: if flags.ack { c.rcv_nxt } else { 0 },
            flags,
            window: WINDOW,
            mss: if flags.syn {
                Some(DEFAULT_MSS as u16)
            } else {
                None
            },
            payload: Bytes::new(),
        };
        let data_len = data.len();
        let carries = data_len > 0 || flags.syn || flags.fin;
        c.stats.segs_sent += 1;
        let node = ctx.node;
        ctx.metrics().record_tcp_segment_sent(node, retransmission);
        if retransmission {
            c.stats.segs_retransmitted += 1;
            c.rtt_probe = None; // Karn: never sample a retransmitted range
        } else {
            c.stats.bytes_sent += data_len as u64;
            if carries && c.rtt_probe.is_none() {
                let seq_len = data_len as u32 + u32::from(flags.syn) + u32::from(flags.fin);
                c.rtt_probe = Some((seq.wrapping_add(seq_len), ctx.now));
            }
        }
        let (src, dst) = (c.local.0, c.remote.0);
        let peer = c.remote.0;
        let wire = seg.emit_over(src, dst, &ring_range(&c.send_buf, data));
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::Tcp, Bytes::from(wire));
        pkt.ident = host.alloc_ident();
        if carries {
            // §7.1.2: tell the mobility layer about every substantive
            // transmission, original or repeat.
            host.mobility_feedback(
                ctx.now,
                FeedbackEvent {
                    peer,
                    retransmission,
                    outgoing: true,
                },
            );
        }
        host.send_ip(
            ctx,
            pkt,
            TxMeta {
                retransmission,
                ..TxMeta::default()
            },
        );
    }

    fn send_ack(&mut self, ix: usize, host: &mut Host, ctx: &mut NetCtx) {
        let seq = self.conns[ix].snd_nxt;
        self.emit(ix, host, ctx, seq, TcpFlags::ack(), NO_DATA, false);
    }

    fn arm_timer(&mut self, ix: usize, host: &mut Host, ctx: &mut NetCtx, delay: SimDuration) {
        let c = &mut self.conns[ix];
        c.timer_gen += 1;
        if let Some(h) = c.timer.take() {
            ctx.cancel_timer(h);
        }
        let payload = timer_payload(ix, c.timer_gen);
        let handle = host.request_proto_timer(ctx, IpProtocol::Tcp, delay, payload);
        self.conns[ix].timer = Some(handle);
    }

    fn cancel_timer(&mut self, ix: usize, ctx: &mut NetCtx) {
        let c = &mut self.conns[ix];
        c.timer_gen += 1;
        if let Some(h) = c.timer.take() {
            ctx.cancel_timer(h);
        }
    }

    /// Transmit as much pending data (and the FIN) as the window allows.
    fn pump(&mut self, ix: usize, host: &mut Host, ctx: &mut NetCtx) {
        loop {
            let c = &self.conns[ix];
            if !matches!(
                c.state,
                TcpState::Established
                    | TcpState::CloseWait
                    | TcpState::FinWait1
                    | TcpState::LastAck
            ) {
                return;
            }
            let mss = c.mss;
            let in_flight_segs = (c.in_flight() as usize).div_ceil(mss.max(1));
            let offset = c.in_flight() as usize; // bytes already in flight
            let unsent = c.send_buf.len().saturating_sub(offset);
            if unsent > 0 && in_flight_segs < MAX_IN_FLIGHT_SEGS && c.fin_seq.is_none() {
                let len = unsent.min(mss);
                let seq = c.snd_nxt;
                self.conns[ix].snd_nxt = seq.wrapping_add(len as u32);
                let mut flags = TcpFlags::ack();
                flags.psh = true;
                self.emit(ix, host, ctx, seq, flags, offset..offset + len, false);
                self.arm_timer(ix, host, ctx, self.conns[ix].rto);
                continue;
            }
            // All data sent; send FIN if requested and not yet sent.
            let c = &self.conns[ix];
            if c.fin_pending && c.fin_seq.is_none() && unsent == 0 {
                let seq = c.snd_nxt;
                let new_state = match c.state {
                    TcpState::Established => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    s => s,
                };
                {
                    let c = &mut self.conns[ix];
                    c.snd_nxt = seq.wrapping_add(1);
                    c.fin_seq = Some(seq);
                    c.state = new_state;
                }
                self.emit(ix, host, ctx, seq, TcpFlags::fin_ack(), NO_DATA, false);
                self.arm_timer(ix, host, ctx, self.conns[ix].rto);
                continue;
            }
            return;
        }
    }

    /// Retransmit the oldest unacknowledged segment.
    fn retransmit(&mut self, ix: usize, host: &mut Host, ctx: &mut NetCtx) {
        let c = &self.conns[ix];
        match c.state {
            TcpState::SynSent => {
                let seq = c.iss;
                self.emit(ix, host, ctx, seq, TcpFlags::SYN, NO_DATA, true);
            }
            TcpState::SynReceived => {
                let seq = c.iss;
                self.emit(ix, host, ctx, seq, TcpFlags::syn_ack(), NO_DATA, true);
            }
            _ => {
                // Oldest in-flight range: data at snd_una, or the FIN.
                if c.fin_seq == Some(c.snd_una) {
                    let seq = c.snd_una;
                    let flags = TcpFlags::fin_ack();
                    self.emit(ix, host, ctx, seq, flags, NO_DATA, true);
                } else {
                    let len = (c.in_flight() as usize).min(c.mss).min(c.send_buf.len());
                    if len == 0 {
                        return;
                    }
                    let seq = c.snd_una;
                    let mut flags = TcpFlags::ack();
                    flags.psh = true;
                    self.emit(ix, host, ctx, seq, flags, 0..len, true);
                }
            }
        }
    }

    fn fail(&mut self, ix: usize, err: TcpError, ctx: &mut NetCtx) {
        let c = &mut self.conns[ix];
        c.error = Some(err);
        c.state = TcpState::Closed;
        c.timer_gen += 1;
        if let Some(h) = c.timer.take() {
            ctx.cancel_timer(h);
        }
    }

    fn update_rtt(&mut self, ix: usize, ack: u32, ctx: &mut NetCtx) {
        let c = &mut self.conns[ix];
        if let Some((probe_end, sent_at)) = c.rtt_probe {
            if seq_le(probe_end, ack) {
                c.rtt_probe = None;
                let rtt = ctx.now.since(sent_at).as_micros();
                c.stats.rtt_samples += 1;
                let node = ctx.node;
                ctx.metrics()
                    .record_tcp_rtt(node, SimDuration::from_micros(rtt));
                let (srtt, rttvar) = match c.srtt_us {
                    None => (rtt, rtt / 2),
                    Some((s, v)) => {
                        let err = s.abs_diff(rtt);
                        (
                            (7 * s + rtt) / 8, // srtt ← 7/8·srtt + 1/8·rtt
                            (3 * v + err) / 4, // rttvar ← 3/4·var + 1/4·|err|
                        )
                    }
                };
                c.srtt_us = Some((srtt, rttvar));
                c.stats.srtt_us = Some(srtt);
                let rto = SimDuration::from_micros(srtt + 4 * rttvar);
                c.rto = rto.max(MIN_RTO).min(MAX_RTO);
            }
        }
    }

    /// Process an acceptable ACK. Returns true if it advanced `snd_una`.
    fn process_ack(&mut self, ix: usize, ack: u32, host: &mut Host, ctx: &mut NetCtx) -> bool {
        let advanced;
        {
            let c = &mut self.conns[ix];
            if !(seq_lt(c.snd_una, ack) && seq_le(ack, c.snd_nxt)) {
                return false;
            }
            let mut newly_acked = ack.wrapping_sub(c.snd_una) as usize;
            advanced = newly_acked > 0;
            // The FIN occupies one sequence number but no buffer byte.
            if let Some(fin) = c.fin_seq {
                if seq_lt(fin, ack) {
                    newly_acked -= 1;
                }
            }
            c.stats.bytes_acked += newly_acked as u64;
            c.send_buf.drain(..newly_acked.min(c.send_buf.len()));
            if c.send_buf.is_empty() {
                // An idle connection keeps at most one window of storage: a
                // bulk transfer's high-water mark goes back, a chatty
                // connection's small buffer is never re-allocated.
                c.send_buf.shrink_to(MAX_IN_FLIGHT_SEGS * c.mss);
            }
            c.snd_una = ack;
            c.retries = 0;
        }
        self.update_rtt(ix, ack, ctx);

        // FIN acknowledged?
        let fin_acked = {
            let c = &self.conns[ix];
            c.fin_seq
                .is_some_and(|f| seq_lt(f, c.snd_nxt) && seq_le(f.wrapping_add(1), c.snd_una))
        };
        if fin_acked {
            let c = &mut self.conns[ix];
            match c.state {
                TcpState::FinWait1 => c.state = TcpState::FinWait2,
                TcpState::Closing => {
                    c.state = TcpState::TimeWait;
                }
                TcpState::LastAck => {
                    c.state = TcpState::Closed;
                }
                _ => {}
            }
            match self.conns[ix].state {
                TcpState::TimeWait => self.arm_timer(ix, host, ctx, TIME_WAIT_DURATION),
                TcpState::Closed => self.cancel_timer(ix, ctx),
                _ => {}
            }
        }

        // Timer management: quiet if nothing in flight (modulo keepalive),
        // else keep ticking.
        let c = &self.conns[ix];
        let (keepalive, cstate) = (c.keepalive, c.state);
        if c.in_flight() == 0 {
            if !matches!(cstate, TcpState::TimeWait) {
                self.cancel_timer(ix, ctx);
                if let (Some(ka), TcpState::Established) = (keepalive, cstate) {
                    self.arm_timer(ix, host, ctx, ka);
                }
            }
        } else {
            let rto = c.rto;
            self.arm_timer(ix, host, ctx, rto);
        }
        advanced
    }

    fn deliver_data(&mut self, ix: usize, seg: &TcpSegment, host: &mut Host, ctx: &mut NetCtx) {
        let peer = self.conns[ix].remote.0;
        let mut must_ack = !seg.payload.is_empty() || seg.flags.fin;
        {
            let c = &mut self.conns[ix];
            let seg_end = seg.seq.wrapping_add(seg.payload.len() as u32);
            if !seg.payload.is_empty() {
                if seg.seq == c.rcv_nxt {
                    // In-order: deliver, then drain any contiguous queue.
                    c.recv_buf.extend_from_slice(&seg.payload);
                    c.stats.bytes_received += seg.payload.len() as u64;
                    c.rcv_nxt = seg_end;
                    while let Some((&s, _)) = c.ooo.first_key_value() {
                        if seq_le(s, c.rcv_nxt) {
                            let (s, data) = c.ooo.pop_first().unwrap();
                            let skip = c.rcv_nxt.wrapping_sub(s) as usize;
                            if skip < data.len() {
                                c.recv_buf.extend_from_slice(&data[skip..]);
                                c.stats.bytes_received += (data.len() - skip) as u64;
                                c.rcv_nxt = s.wrapping_add(data.len() as u32);
                            }
                        } else {
                            break;
                        }
                    }
                    host.mobility_feedback(
                        ctx.now,
                        FeedbackEvent {
                            peer,
                            retransmission: false,
                            outgoing: false,
                        },
                    );
                } else if seq_lt(c.rcv_nxt, seg.seq) {
                    // Future data: queue out-of-order.
                    c.ooo.entry(seg.seq).or_insert_with(|| seg.payload.clone());
                } else {
                    // Entirely old data: the peer is retransmitting — our
                    // ACKs may not be getting through (§7.1.2).
                    c.stats.dup_segments_received += 1;
                    host.mobility_feedback(
                        ctx.now,
                        FeedbackEvent {
                            peer,
                            retransmission: true,
                            outgoing: false,
                        },
                    );
                }
            }

            // A zero-length segment below the window is a keepalive probe:
            // answer it so the prober knows we are alive (no feedback — a
            // probe is not a retransmission signal).
            if seg.payload.is_empty() && !seg.flags.fin && seq_lt(seg.seq, c.rcv_nxt) {
                must_ack = true;
            }

            // FIN processing (only once it is the next expected octet).
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if seg.flags.fin && fin_seq == c.rcv_nxt && !c.peer_closed {
                c.rcv_nxt = c.rcv_nxt.wrapping_add(1);
                c.peer_closed = true;
                match c.state {
                    TcpState::Established => c.state = TcpState::CloseWait,
                    TcpState::FinWait1 => c.state = TcpState::Closing,
                    TcpState::FinWait2 => c.state = TcpState::TimeWait,
                    _ => {}
                }
                must_ack = true;
            } else if seg.flags.fin && c.peer_closed {
                must_ack = true; // retransmitted FIN
            }
        }
        if self.conns[ix].state == TcpState::TimeWait {
            self.arm_timer(ix, host, ctx, TIME_WAIT_DURATION);
        }
        if must_ack {
            self.send_ack(ix, host, ctx);
        }
    }

    fn send_rst(
        &mut self,
        host: &mut Host,
        ctx: &mut NetCtx,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        seq: u32,
        ack: u32,
    ) {
        let mut flags = TcpFlags::rst();
        flags.ack = true;
        let seg = TcpSegment {
            src_port: local.1,
            dst_port: remote.1,
            seq,
            ack,
            flags,
            window: 0,
            mss: None,
            payload: Bytes::new(),
        };
        let mut pkt = Ipv4Packet::new(
            local.0,
            remote.0,
            IpProtocol::Tcp,
            Bytes::from(seg.emit(local.0, remote.0)),
        );
        pkt.ident = host.alloc_ident();
        host.send_ip(ctx, pkt, TxMeta::default());
    }
}

impl ProtocolHandler for TcpLayer {
    fn on_packet(&mut self, pkt: &Ipv4Packet, _iface: IfaceNo, host: &mut Host, ctx: &mut NetCtx) {
        let _prof = netsim::profile::scope("tcp/segment");
        let Ok(seg) = TcpSegment::parse_bytes(&pkt.payload, pkt.src, pkt.dst) else {
            return;
        };
        let local = (pkt.dst, seg.dst_port);
        let remote = (pkt.src, seg.src_port);

        if let Some(ix) = self.find_conn(local, remote) {
            self.on_conn_segment(ix, &seg, host, ctx);
            return;
        }

        // New connection? Only a SYN (no ACK) to an open listener.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(l) = self.find_listener(pkt.dst, seg.dst_port) {
                let iss = self.next_isn();
                let mss = seg.mss.map_or(DEFAULT_MSS, |m| m as usize).min(DEFAULT_MSS);
                self.conns.push(TcpConn {
                    state: TcpState::SynReceived,
                    local,
                    remote,
                    parent: Some(l),
                    snd_una: iss,
                    snd_nxt: iss.wrapping_add(1),
                    iss,
                    send_buf: VecDeque::new(),
                    fin_pending: false,
                    fin_seq: None,
                    rcv_nxt: seg.seq.wrapping_add(1),
                    recv_buf: Vec::new(),
                    ooo: BTreeMap::new(),
                    peer_closed: false,
                    rto: INITIAL_RTO,
                    srtt_us: None,
                    retries: 0,
                    timer_gen: 0,
                    timer: None,
                    rtt_probe: None,
                    mss,
                    keepalive: None,
                    keepalive_fails: 0,
                    stats: TcpStats::default(),
                    error: None,
                });
                let ix = self.conns.len() - 1;
                self.emit(ix, host, ctx, iss, TcpFlags::syn_ack(), NO_DATA, false);
                self.arm_timer(ix, host, ctx, INITIAL_RTO);
                return;
            }
        }

        // No home for this segment: RST it (unless it is itself an RST).
        self.unmatched += 1;
        if !seg.flags.rst {
            let (seq, ack) = if seg.flags.ack {
                (seg.ack, 0)
            } else {
                (0, seg.seq.wrapping_add(seg.seq_len()))
            };
            self.send_rst(host, ctx, local, remote, seq, ack);
        }
    }

    fn on_timer(&mut self, payload: u64, host: &mut Host, ctx: &mut NetCtx) {
        let _prof = netsim::profile::scope("tcp/timer");
        let (ix, gen) = split_payload(payload);
        if ix >= self.conns.len() || self.conns[ix].timer_gen != gen {
            return; // stale timer
        }
        // This firing consumes the stored handle: it must not be cancelled
        // (a no-op) or double-released later.
        self.conns[ix].timer = None;
        match self.conns[ix].state {
            TcpState::TimeWait => {
                self.conns[ix].state = TcpState::Closed;
            }
            TcpState::Closed => {}
            TcpState::Established if self.conns[ix].in_flight() == 0 => {
                // Idle connection: this is the keepalive timer.
                let Some(ka) = self.conns[ix].keepalive else {
                    return;
                };
                let c = &mut self.conns[ix];
                c.keepalive_fails += 1;
                if c.keepalive_fails > KEEPALIVE_LIMIT {
                    self.fail(ix, TcpError::TimedOut, ctx);
                    return;
                }
                // Probe with a zero-length segment one octet below snd_nxt;
                // a live peer must acknowledge it.
                let seq = c.snd_nxt.wrapping_sub(1);
                self.emit(ix, host, ctx, seq, TcpFlags::ack(), NO_DATA, false);
                self.arm_timer(ix, host, ctx, ka);
            }
            _ => {
                // Retransmission timeout.
                let c = &mut self.conns[ix];
                c.retries += 1;
                if c.retries > MAX_RETRIES {
                    self.fail(ix, TcpError::TimedOut, ctx);
                    return;
                }
                c.rto = c.rto.saturating_mul(2).min(MAX_RTO);
                let rto = c.rto;
                self.retransmit(ix, host, ctx);
                self.arm_timer(ix, host, ctx, rto);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

impl TcpLayer {
    fn on_conn_segment(&mut self, ix: usize, seg: &TcpSegment, host: &mut Host, ctx: &mut NetCtx) {
        let node = ctx.node;
        ctx.metrics().record_tcp_segment_received(node);
        // Any sign of life from the peer resets keepalive accounting.
        self.conns[ix].keepalive_fails = 0;
        if seg.flags.rst {
            // An in-window RST kills the connection.
            let c = &self.conns[ix];
            if c.state == TcpState::SynSent || seq_le(c.rcv_nxt, seg.seq) || seg.seq == 0 {
                self.fail(ix, TcpError::Reset, ctx);
            }
            return;
        }
        match self.conns[ix].state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack {
                    let ok = {
                        let c = &self.conns[ix];
                        seg.ack == c.iss.wrapping_add(1)
                    };
                    if !ok {
                        let (local, remote) = {
                            let c = &self.conns[ix];
                            (c.local, c.remote)
                        };
                        self.send_rst(host, ctx, local, remote, seg.ack, 0);
                        return;
                    }
                    {
                        let c = &mut self.conns[ix];
                        c.snd_una = seg.ack;
                        c.rcv_nxt = seg.seq.wrapping_add(1);
                        c.state = TcpState::Established;
                        if let Some(m) = seg.mss {
                            c.mss = (m as usize).min(DEFAULT_MSS);
                        }
                        c.retries = 0;
                        c.rtt_probe = None;
                    }
                    self.cancel_timer(ix, ctx);
                    self.send_ack(ix, host, ctx);
                    self.pump(ix, host, ctx);
                }
                // A bare SYN would be simultaneous open; unsupported.
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == self.conns[ix].iss.wrapping_add(1) {
                    {
                        let c = &mut self.conns[ix];
                        c.snd_una = seg.ack;
                        c.state = TcpState::Established;
                        c.retries = 0;
                    }
                    self.cancel_timer(ix, ctx);
                    if let Some(l) = self.conns[ix].parent {
                        self.listeners[l].accept_q.push_back(ix);
                    }
                    // The handshake-completing ACK may carry data.
                    self.deliver_data(ix, seg, host, ctx);
                }
            }
            TcpState::Closed => {}
            _ => {
                if seg.flags.ack {
                    self.process_ack(ix, seg.ack, host, ctx);
                }
                self.deliver_data(ix, seg, host, ctx);
                self.pump(ix, host, ctx);
            }
        }
    }
}

// ---- public socket API -------------------------------------------------------

/// Register the TCP layer with a host. Idempotent.
pub fn install(host: &mut Host) {
    if host.handler_as::<TcpLayer>(IpProtocol::Tcp).is_none() {
        host.register_handler(IpProtocol::Tcp, Box::new(TcpLayer::default()));
    }
}

fn layer(host: &mut Host) -> &mut TcpLayer {
    host.handler_as::<TcpLayer>(IpProtocol::Tcp)
        .expect("tcp::install not called on this host")
}

/// Run `f` with the layer taken out of the host (so it can send).
fn with_layer<R>(host: &mut Host, f: impl FnOnce(&mut TcpLayer, &mut Host) -> R) -> R {
    let mut h = host
        .take_handler(IpProtocol::Tcp)
        .expect("tcp::install not called on this host");
    let l = h.as_any().downcast_mut::<TcpLayer>().expect("tcp layer");
    let r = f(l, host);
    host.put_handler(IpProtocol::Tcp, h);
    r
}

/// Listen on `(addr, port)`. `None` address accepts connections to any
/// local address.
pub fn listen(host: &mut Host, addr: Option<Ipv4Addr>, port: u16) -> ListenerHandle {
    let l = layer(host);
    l.listeners.push(Listener {
        addr,
        port,
        accept_q: VecDeque::new(),
        open: true,
    });
    ListenerHandle(l.listeners.len() - 1)
}

/// Pop an established connection off the listener's queue.
pub fn accept(host: &mut Host, lh: ListenerHandle) -> Option<TcpHandle> {
    layer(host).listeners[lh.0]
        .accept_q
        .pop_front()
        .map(TcpHandle)
}

/// Open a connection to `dst`. `bind_addr` is the explicit local binding
/// (the §7.1.1 mobile-awareness signal); `None` lets the mobility layer (or
/// normal routing) pick. The source address is fixed *here*, at connection
/// time — the endpoint-identifier decision the paper's route-override hook
/// captures.
pub fn connect(
    host: &mut Host,
    ctx: &mut NetCtx,
    dst: (Ipv4Addr, u16),
    bind_addr: Option<Ipv4Addr>,
) -> Result<TcpHandle, TcpError> {
    let Some(src) = host.select_source(dst.0, Some(dst.1), bind_addr) else {
        return Err(TcpError::Unroutable);
    };
    with_layer(host, |l, host| {
        let port = l.alloc_port();
        let iss = l.next_isn();
        l.conns.push(TcpConn {
            state: TcpState::SynSent,
            local: (src, port),
            remote: dst,
            parent: None,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1),
            iss,
            send_buf: VecDeque::new(),
            fin_pending: false,
            fin_seq: None,
            rcv_nxt: 0,
            recv_buf: Vec::new(),
            ooo: BTreeMap::new(),
            peer_closed: false,
            rto: INITIAL_RTO,
            srtt_us: None,
            retries: 0,
            timer_gen: 0,
            timer: None,
            rtt_probe: None,
            mss: DEFAULT_MSS,
            keepalive: None,
            keepalive_fails: 0,
            stats: TcpStats::default(),
            error: None,
        });
        let ix = l.conns.len() - 1;
        l.emit(ix, host, ctx, iss, TcpFlags::SYN, NO_DATA, false);
        l.arm_timer(ix, host, ctx, INITIAL_RTO);
        Ok(TcpHandle(ix))
    })
}

/// Queue `data` for transmission. Returns `false` if the connection cannot
/// send (closing or dead).
pub fn send(host: &mut Host, ctx: &mut NetCtx, h: TcpHandle, data: &[u8]) -> bool {
    with_layer(host, |l, host| {
        let c = &mut l.conns[h.0];
        if c.fin_pending || !(c.state.can_send() || c.state == TcpState::SynSent) {
            return false;
        }
        c.send_buf.extend(data);
        if c.state != TcpState::SynSent {
            l.pump(h.0, host, ctx);
        }
        true
    })
}

/// Drain received, in-order data.
pub fn recv(host: &mut Host, h: TcpHandle) -> Vec<u8> {
    std::mem::take(&mut layer(host).conns[h.0].recv_buf)
}

/// Bytes available to read without consuming them.
pub fn available(host: &mut Host, h: TcpHandle) -> usize {
    layer(host).conns[h.0].recv_buf.len()
}

/// Graceful close: send remaining data, then FIN.
pub fn close(host: &mut Host, ctx: &mut NetCtx, h: TcpHandle) {
    with_layer(host, |l, host| {
        let c = &mut l.conns[h.0];
        match c.state {
            TcpState::SynSent => {
                c.state = TcpState::Closed;
                c.timer_gen += 1;
                if let Some(h) = c.timer.take() {
                    ctx.cancel_timer(h);
                }
            }
            TcpState::Established | TcpState::CloseWait => {
                c.fin_pending = true;
                l.pump(h.0, host, ctx);
            }
            _ => {}
        }
    })
}

/// Abortive close: RST the peer and drop all state.
pub fn abort(host: &mut Host, ctx: &mut NetCtx, h: TcpHandle) {
    with_layer(host, |l, host| {
        let (state, local, remote, snd_nxt) = {
            let c = &l.conns[h.0];
            (c.state, c.local, c.remote, c.snd_nxt)
        };
        if !matches!(state, TcpState::Closed) {
            l.send_rst(host, ctx, local, remote, snd_nxt, 0);
            l.fail(h.0, TcpError::Reset, ctx);
        }
    })
}

/// The connection's current state.
pub fn state(host: &mut Host, h: TcpHandle) -> TcpState {
    layer(host).conns[h.0].state
}

/// Why the connection died, if it did.
pub fn error(host: &mut Host, h: TcpHandle) -> Option<TcpError> {
    layer(host).conns[h.0].error
}

/// Per-connection counters.
pub fn stats(host: &mut Host, h: TcpHandle) -> TcpStats {
    layer(host).conns[h.0].stats
}

/// Enable (or disable with `None`) keepalive probing on an idle
/// connection. A peer that stops answering `KEEPALIVE_LIMIT` consecutive
/// probes kills the connection with [`TcpError::TimedOut`] — how a
/// long-lived session eventually notices that its Out-DT peer's address
/// no longer exists.
pub fn set_keepalive(
    host: &mut Host,
    ctx: &mut NetCtx,
    h: TcpHandle,
    interval: Option<SimDuration>,
) {
    with_layer(host, |l, host| {
        l.conns[h.0].keepalive = interval;
        l.conns[h.0].keepalive_fails = 0;
        match interval {
            Some(ka) if l.conns[h.0].in_flight() == 0 => l.arm_timer(h.0, host, ctx, ka),
            Some(_) => {} // the in-flight RTO timer is already ticking
            None => {
                if l.conns[h.0].in_flight() == 0 {
                    l.cancel_timer(h.0, ctx);
                }
            }
        }
    })
}

/// The connection's local (address, port) — the endpoint identifier chosen
/// at connect/accept time.
pub fn local_endpoint(host: &mut Host, h: TcpHandle) -> (Ipv4Addr, u16) {
    layer(host).conns[h.0].local
}

/// The peer's (address, port).
pub fn remote_endpoint(host: &mut Host, h: TcpHandle) -> (Ipv4Addr, u16) {
    layer(host).conns[h.0].remote
}

/// All unacknowledged data has been accepted by the peer and the
/// connection is (still) in a data-carrying state.
pub fn all_acked(host: &mut Host, h: TcpHandle) -> bool {
    let c = &layer(host).conns[h.0];
    c.in_flight() == 0 && c.send_buf.is_empty()
}

/// Count of segments that matched no connection or listener.
pub fn unmatched(host: &mut Host) -> u64 {
    layer(host).unmatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FaultInjector, HostConfig, LinkConfig, NodeId, World};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn lan_pair(fault: FaultInjector) -> (World, NodeId, NodeId) {
        let mut w = World::new(11);
        let lan = w.add_segment(LinkConfig {
            fault,
            ..LinkConfig::lan()
        });
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, lan, Some("10.0.0.1/24"));
        w.attach(b, lan, Some("10.0.0.2/24"));
        install(w.host_mut(a));
        install(w.host_mut(b));
        (w, a, b)
    }

    #[test]
    fn handshake_and_bidirectional_data() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        assert_eq!(state(w.host_mut(a), ch), TcpState::Established);
        let sh = accept(w.host_mut(b), srv).expect("accepted");
        assert_eq!(state(w.host_mut(b), sh), TcpState::Established);
        assert_eq!(remote_endpoint(w.host_mut(b), sh).0, ip("10.0.0.1"));

        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, b"hello, server")));
        w.run_until_idle(10_000);
        assert_eq!(recv(w.host_mut(b), sh), b"hello, server");

        w.host_do(b, |h, ctx| assert!(send(h, ctx, sh, b"hello, client")));
        w.run_until_idle(10_000);
        assert_eq!(recv(w.host_mut(a), ch), b"hello, client");
        assert!(all_acked(w.host_mut(a), ch));
    }

    #[test]
    fn data_sent_before_establishment_flows_after() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 80);
        let ch = w.host_do(a, |h, ctx| {
            let ch = connect(h, ctx, (ip("10.0.0.2"), 80), None).unwrap();
            // Queue immediately, before the handshake completes.
            assert!(send(h, ctx, ch, b"GET / HTTP/1.0\r\n\r\n"));
            ch
        });
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();
        assert_eq!(recv(w.host_mut(b), sh), b"GET / HTTP/1.0\r\n\r\n");
        let _ = ch;
    }

    #[test]
    fn bulk_transfer_spans_many_segments() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();

        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_until_idle(200_000);
        let got = recv(w.host_mut(b), sh);
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
        let st = stats(w.host_mut(a), ch);
        assert!(st.segs_sent as usize >= data.len() / DEFAULT_MSS);
        assert_eq!(st.segs_retransmitted, 0, "clean link needs no retransmits");
        assert_eq!(st.bytes_acked, data.len() as u64);
    }

    #[test]
    fn lossy_link_recovers_via_retransmission() {
        let (mut w, a, b) = lan_pair(FaultInjector {
            drop_prob: 0.15,
            ..Default::default()
        });
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(30));
        let sh = accept(w.host_mut(b), srv).expect("handshake survives loss");

        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_for(SimDuration::from_secs(120));
        let got = recv(w.host_mut(b), sh);
        assert_eq!(got, data, "data must arrive intact despite 15% loss");
        let st = stats(w.host_mut(a), ch);
        assert!(st.segs_retransmitted > 0, "loss must cause retransmissions");

        // Every retransmission is a causal event in the trace: a fresh
        // packet id linked back into the same flow as the segment it
        // re-sends, with the presumed parent recorded.
        use netsim::{TraceEventKind, TransformKind};
        let retx: Vec<_> = w
            .trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::Transformed(TransformKind::Retransmission)
                )
            })
            .collect();
        assert!(
            retx.len() as u64 >= st.segs_retransmitted,
            "each retransmitted segment leaves a transform event \
             ({} events, {} retransmissions)",
            retx.len(),
            st.segs_retransmitted,
        );
        let first_flow = w.trace.events().front().unwrap().flow_id;
        let mut linked = 0u64;
        for e in &retx {
            assert_eq!(e.flow_id, first_flow, "retransmission stays in the flow");
            match e.parent_id {
                Some(parent) => {
                    linked += 1;
                    assert_ne!(parent, e.packet_id);
                    assert_eq!(
                        w.trace.flow_of(parent),
                        Some(first_flow),
                        "the presumed parent is a packet of the same flow"
                    );
                }
                None => {
                    // Legitimate orphan: the original never reached the
                    // wire (parked on ARP whose request the fault injector
                    // ate), so the retransmission is the first packet the
                    // trace ever saw of this flow.
                    let ix = w
                        .trace
                        .events()
                        .iter()
                        .position(|x| x.packet_id == e.packet_id)
                        .unwrap();
                    assert!(
                        w.trace
                            .events()
                            .iter()
                            .take(ix)
                            .all(|x| x.flow_id != first_flow),
                        "an unlinked retransmission must be its flow's first event"
                    );
                }
            }
        }
        assert!(linked > 0, "data retransmissions link their parents");
    }

    #[test]
    fn metrics_registry_agrees_with_tcp_stats() {
        let (mut w, a, b) = lan_pair(FaultInjector {
            drop_prob: 0.15,
            ..Default::default()
        });
        w.enable_metrics();
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(30));
        let sh = accept(w.host_mut(b), srv).expect("handshake survives loss");

        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_for(SimDuration::from_secs(120));
        assert_eq!(recv(w.host_mut(b), sh), data);

        // The registry's per-node TCP counters are recorded at the same
        // choke points as the per-connection stats; with a single
        // connection per host they must agree exactly.
        let st_a = stats(w.host_mut(a), ch);
        let st_b = stats(w.host_mut(b), sh);
        for (node, st) in [(a, &st_a), (b, &st_b)] {
            let m = &w.metrics.node(node).tcp;
            assert_eq!(m.segments_sent, st.segs_sent);
            assert_eq!(m.retransmissions, st.segs_retransmitted);
            assert_eq!(m.rtt_us.count(), st.rtt_samples);
        }
        assert!(st_a.segs_retransmitted > 0, "want loss in this scenario");
        assert!(w.metrics.node(a).tcp.segments_received > 0);
        assert!(w.metrics.node(a).tcp.rtt_us.mean() > 0.0);
    }

    #[test]
    fn corruption_is_survived() {
        let (mut w, a, b) = lan_pair(FaultInjector {
            corrupt_prob: 0.10,
            ..Default::default()
        });
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(30));
        let sh = accept(w.host_mut(b), srv).expect("handshake survives corruption");
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 157) as u8).collect();
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_for(SimDuration::from_secs(120));
        assert_eq!(recv(w.host_mut(b), sh), data);
    }

    #[test]
    fn graceful_close_reaches_closed_on_both_sides() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();

        w.host_do(a, |h, ctx| close(h, ctx, ch));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(state(w.host_mut(b), sh), TcpState::CloseWait);
        assert_eq!(state(w.host_mut(a), ch), TcpState::FinWait2);
        w.host_do(b, |h, ctx| close(h, ctx, sh));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(state(w.host_mut(b), sh), TcpState::Closed);
        // a sits in TIME_WAIT for 10 simulated seconds, then closes.
        assert_eq!(state(w.host_mut(a), ch), TcpState::TimeWait);
        w.run_for(SimDuration::from_secs(11));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Closed);
        assert_eq!(error(w.host_mut(a), ch), None);
        assert_eq!(error(w.host_mut(b), sh), None);
    }

    #[test]
    fn close_flushes_queued_data_before_fin() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();
        let data = vec![7u8; 40_000];
        w.host_do(a, |h, ctx| {
            assert!(send(h, ctx, ch, &data));
            close(h, ctx, ch); // close with 40 kB still queued
        });
        w.run_until_idle(100_000);
        assert_eq!(recv(w.host_mut(b), sh), data);
        assert_eq!(state(w.host_mut(b), sh), TcpState::CloseWait);
    }

    #[test]
    fn connect_to_closed_port_is_reset() {
        let (mut w, a, _b) = lan_pair(FaultInjector::default());
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 4444), None))
            .unwrap();
        w.run_until_idle(10_000);
        assert_eq!(state(w.host_mut(a), ch), TcpState::Closed);
        assert_eq!(error(w.host_mut(a), ch), Some(TcpError::Reset));
    }

    #[test]
    fn unreachable_peer_times_out_with_backoff() {
        // No listener host at all: a second host exists but the address
        // doesn't — SYNs vanish into ARP failure.
        let (mut w, a, _b) = lan_pair(FaultInjector::default());
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.77"), 23), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(300));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Closed);
        assert_eq!(error(w.host_mut(a), ch), Some(TcpError::TimedOut));
        let st = stats(w.host_mut(a), ch);
        assert!(st.segs_retransmitted >= MAX_RETRIES as u64);
    }

    #[test]
    fn abort_resets_peer() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();
        w.host_do(a, |h, ctx| abort(h, ctx, ch));
        w.run_until_idle(10_000);
        assert_eq!(error(w.host_mut(a), ch), Some(TcpError::Reset));
        assert_eq!(error(w.host_mut(b), sh), Some(TcpError::Reset));
    }

    #[test]
    fn rtt_estimate_tracks_link_latency() {
        let mut w = World::new(5);
        let link = w.add_segment(LinkConfig::wan(25)); // 25 ms one way
        let a = w.add_host(HostConfig::conventional("a"));
        let b = w.add_host(HostConfig::conventional("b"));
        w.attach(a, link, Some("10.0.0.1/24"));
        w.attach(b, link, Some("10.0.0.2/24"));
        install(w.host_mut(a));
        install(w.host_mut(b));
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_until_idle(10_000);
        let _sh = accept(w.host_mut(b), srv).unwrap();
        for _ in 0..5 {
            w.host_do(a, |h, ctx| {
                send(h, ctx, ch, &[0u8; 512]);
            });
            w.run_until_idle(10_000);
        }
        let st = stats(w.host_mut(a), ch);
        let srtt = st.srtt_us.expect("rtt sampled");
        assert!(st.rtt_samples >= 1);
        assert!(
            (45_000..80_000).contains(&srtt),
            "srtt {srtt}us should be near the 50ms RTT"
        );
    }

    #[test]
    fn mobility_binding_semantics_connection_dies_with_its_address() {
        // A connection bound to an address that stops existing (the Out-DT
        // failure mode, §4): move the client to a new segment and address;
        // the server's segments can no longer reach it and the transfer
        // times out rather than completing.
        let mut w = World::new(5);
        let lan1 = w.add_segment(LinkConfig::lan());
        let lan2 = w.add_segment(LinkConfig::lan());
        let mob = w.add_host(HostConfig::conventional("mob"));
        let srv_host = w.add_host(HostConfig::conventional("srv"));
        let m_if = w.attach(mob, lan1, Some("10.0.1.5/24"));
        w.attach(srv_host, lan1, Some("10.0.1.1/24"));
        install(w.host_mut(mob));
        install(w.host_mut(srv_host));
        let srv = listen(w.host_mut(srv_host), None, 23);
        let ch = w
            .host_do(mob, |h, ctx| connect(h, ctx, (ip("10.0.1.1"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(srv_host), srv).unwrap();

        // Client moves: new segment, new address (the old one is gone).
        w.reattach(mob, m_if, lan2);
        w.host_mut(mob)
            .set_iface_addr(m_if, Some(netsim::IfaceAddr::parse("10.0.2.5/24")));

        // Server tries to talk to the departed address.
        w.host_do(srv_host, |h, ctx| {
            assert!(send(h, ctx, sh, b"are you there?"));
        });
        w.run_for(SimDuration::from_secs(300));
        assert_eq!(state(w.host_mut(srv_host), sh), TcpState::Closed);
        assert_eq!(error(w.host_mut(srv_host), sh), Some(TcpError::TimedOut));
        let _ = ch;
    }

    #[test]
    fn keepalive_keeps_a_live_connection_and_kills_a_dead_one() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();
        w.host_do(a, |h, ctx| {
            set_keepalive(h, ctx, ch, Some(SimDuration::from_secs(5)))
        });

        // Idle for a minute with a live peer: probes are answered, the
        // connection stays up.
        w.run_for(SimDuration::from_secs(60));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Established);
        assert!(stats(w.host_mut(a), ch).segs_sent >= 10, "probes were sent");

        // Now the peer silently vanishes (its address stops existing — the
        // Out-DT half-death). Within ~4 intervals the prober notices.
        let b_if = 0;
        w.detach(b, b_if);
        w.run_for(SimDuration::from_secs(30));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Closed);
        assert_eq!(error(w.host_mut(a), ch), Some(TcpError::TimedOut));
        let _ = sh;
    }

    #[test]
    fn idle_connection_without_keepalive_never_notices_a_dead_peer() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let _sh = accept(w.host_mut(b), srv).unwrap();
        w.detach(b, 0);
        w.run_for(SimDuration::from_secs(300));
        // Nothing in flight, nothing probing: the zombie lives forever.
        assert_eq!(state(w.host_mut(a), ch), TcpState::Established);
    }

    #[test]
    fn simultaneous_close_converges() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        let sh = accept(w.host_mut(b), srv).unwrap();
        // Both sides close in the same instant: FINs cross in flight.
        w.host_do(a, |h, ctx| close(h, ctx, ch));
        w.host_do(b, |h, ctx| close(h, ctx, sh));
        w.run_for(SimDuration::from_secs(1));
        // Both sides are in a terminal-or-waiting state (CLOSING/TIME-WAIT
        // path), and after 2*MSL both are fully closed with no error.
        w.run_for(SimDuration::from_secs(11));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Closed);
        assert_eq!(state(w.host_mut(b), sh), TcpState::Closed);
        assert_eq!(error(w.host_mut(a), ch), None);
        assert_eq!(error(w.host_mut(b), sh), None);
    }

    #[test]
    fn address_specific_listener_ignores_other_addresses() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        // b listens only on an address it does NOT own locally... rather:
        // bind the listener to b's address; a connect to it succeeds, but a
        // connect to b via... give b a second (virtual) address instead.
        let vif = w
            .host_mut(b)
            .add_iface(netsim::wire::ethernet::MacAddr::from_index(777));
        w.host_mut(b)
            .set_iface_addr(vif, Some(netsim::IfaceAddr::parse("10.0.0.200/32")));
        let _srv = listen(w.host_mut(b), Some(ip("10.0.0.200")), 23);
        // SYN to the bound address is refused at the *other* local address.
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_until_idle(10_000);
        assert_eq!(error(w.host_mut(a), ch), Some(TcpError::Reset));
        // (10.0.0.200 is not on-link-resolvable for a, so the positive case
        // is covered by wildcard-listener tests elsewhere.)
    }

    #[test]
    fn listener_accepts_many_concurrent_connections() {
        let (mut w, a, b) = lan_pair(FaultInjector::default());
        let srv = listen(w.host_mut(b), None, 23);
        let mut conns = Vec::new();
        for _ in 0..8 {
            let c = w
                .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
                .unwrap();
            conns.push(c);
        }
        w.run_until_idle(100_000);
        let mut accepted = Vec::new();
        while let Some(c) = accept(w.host_mut(b), srv) {
            accepted.push(c);
        }
        assert_eq!(accepted.len(), 8);
        // All eight are distinct 4-tuples (distinct client ports).
        let mut ports: Vec<u16> = accepted
            .iter()
            .map(|&c| remote_endpoint(w.host_mut(b), c).1)
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 8);
        for &c in &conns {
            assert_eq!(state(w.host_mut(a), c), TcpState::Established);
        }
    }

    #[test]
    fn duplicate_syn_is_answered_idempotently() {
        // A retransmitted SYN (the original's SYN-ACK was lost) must not
        // create a second connection.
        let (mut w, a, b) = lan_pair(FaultInjector {
            drop_prob: 0.35,
            ..Default::default()
        });
        let srv = listen(w.host_mut(b), None, 23);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 23), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(60));
        assert_eq!(state(w.host_mut(a), ch), TcpState::Established);
        let first = accept(w.host_mut(b), srv);
        let second = accept(w.host_mut(b), srv);
        assert!(first.is_some());
        assert!(second.is_none(), "one connection, accepted once");
    }

    /// An established pair on a LAN with `fault`, `b`'s end accepted.
    fn established(fault: FaultInjector) -> (World, NodeId, NodeId, TcpHandle, TcpHandle) {
        let (mut w, a, b) = lan_pair(fault);
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(60));
        let sh = accept(w.host_mut(b), srv).expect("handshake completes");
        (w, a, b, ch, sh)
    }

    /// Hand `a`'s TCP layer a bare ACK from its peer, as IP would, and
    /// return what processing it allocated.
    fn inject_ack(w: &mut World, a: NodeId, ch: TcpHandle, ack: u32) -> u64 {
        w.host_do(a, |h, ctx| {
            with_layer(h, |l, h| {
                let c = &l.conns[ch.0];
                let (local, remote) = (c.local, c.remote);
                let seg = TcpSegment {
                    src_port: remote.1,
                    dst_port: local.1,
                    seq: c.rcv_nxt,
                    ack,
                    flags: TcpFlags::ack(),
                    window: WINDOW,
                    mss: None,
                    payload: Bytes::new(),
                };
                let wire = Bytes::from(seg.emit(remote.0, local.0));
                let pkt = Ipv4Packet::new(remote.0, local.0, IpProtocol::Tcp, wire);
                let (before, _) = netsim::profile::thread_allocations();
                l.on_packet(&pkt, 0, h, ctx);
                netsim::profile::thread_allocations().0 - before
            })
        })
    }

    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + salt) % 251) as u8).collect()
    }

    #[test]
    fn partial_ack_then_rto_retransmits_exactly_the_bytes_at_snd_una() {
        let (mut w, a, b, ch, sh) = established(FaultInjector::default());
        // The peer goes deaf: three segments leave and none arrives.
        w.detach(b, 0);
        let data = pattern(3_000, 0);
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_for(SimDuration::from_millis(10));
        let iss = layer(w.host_mut(a)).conns[ch.0].iss;
        assert_eq!(layer(w.host_mut(a)).conns[ch.0].in_flight(), 3_000);

        // An ACK lands 700 bytes into the first segment.
        let una = iss.wrapping_add(1 + 700);
        inject_ack(&mut w, a, ch, una);
        {
            let c = &layer(w.host_mut(a)).conns[ch.0];
            assert_eq!(c.snd_una, una);
            assert_eq!(c.send_buf.len(), 2_300);
            assert_eq!(c.stats.bytes_acked, 700);
        }

        // The peer comes back; the RTO fires and resends from `snd_una`.
        w.reattach(b, 0, netsim::SegmentId(0));
        w.run_for(SimDuration::from_millis(1_500));
        assert_eq!(stats(w.host_mut(a), ch).segs_retransmitted, 1);
        // `b` never saw the first 700 bytes, so the resent segment is ahead
        // of its `rcv_nxt` and sits whole in the out-of-order queue.
        let ooo = &layer(w.host_mut(b)).conns[sh.0].ooo;
        assert_eq!(ooo.len(), 1);
        let (&seq, resent) = ooo.first_key_value().unwrap();
        assert_eq!(seq, una);
        assert_eq!(&resent[..], &data[700..700 + DEFAULT_MSS]);
    }

    #[test]
    fn a_pure_ack_is_processed_without_allocating() {
        let (mut w, a, b, ch, _sh) = established(FaultInjector::default());
        w.detach(b, 0);
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &pattern(4_000, 0))));
        w.run_for(SimDuration::from_millis(10));
        let iss = layer(w.host_mut(a)).conns[ch.0].iss;
        // Mid-flight the RTO timer is re-armed, and the scheduler may give
        // its empty wheel slot storage; the queue itself moves no byte and
        // allocates nothing, however much is acknowledged.
        for (acked, budget) in [(DEFAULT_MSS as u32, 1), (4_000, 0)] {
            let allocs = inject_ack(&mut w, a, ch, iss.wrapping_add(1 + acked));
            assert!(
                allocs <= budget,
                "ACK of {acked} bytes: {allocs} allocations"
            );
        }
        assert!(all_acked(w.host_mut(a), ch));
    }

    #[test]
    fn an_idle_connection_keeps_at_most_one_window_of_send_buffer() {
        let (mut w, a, b, ch, sh) = established(FaultInjector::default());
        let window = MAX_IN_FLIGHT_SEGS * DEFAULT_MSS;

        // Bulk: the queue grows to the whole write, and gives it back.
        let data = pattern(1 << 20, 3);
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        assert!(layer(w.host_mut(a)).conns[ch.0].send_buf.capacity() >= data.len());
        w.run_until_idle(1_000_000);
        assert_eq!(recv(w.host_mut(b), sh), data);
        assert!(all_acked(w.host_mut(a), ch));
        assert!(layer(w.host_mut(a)).conns[ch.0].send_buf.capacity() <= window);

        // Chatty: small requests reuse one small buffer, drained or not.
        let mut caps = Vec::new();
        for i in 0..50 {
            w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &pattern(200, i))));
            w.run_until_idle(10_000);
            assert!(all_acked(w.host_mut(a), ch));
            caps.push(layer(w.host_mut(a)).conns[ch.0].send_buf.capacity());
        }
        assert!(
            caps[0] > 0 && caps.iter().all(|&c| c == caps[0]),
            "{caps:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Whatever sizes the application writes and whenever, over a link
        /// that loses and duplicates frames (so later segments overtake a
        /// lost one's retransmission), the peer reads exactly the bytes
        /// written, everything ends acknowledged, and the send sequence
        /// variables stay ordered after every event.
        #[test]
        fn written_bytes_arrive_intact_whatever_the_write_sizes(
            drop_pct in 0u32..12,
            dup_pct in 0u32..25,
            writes in proptest::collection::vec(
                (0usize..12, 0usize..40_000, 0usize..400),
                1..7,
            ),
        ) {
            let fault = FaultInjector {
                drop_prob: f64::from(drop_pct) / 100.0,
                duplicate_prob: f64::from(dup_pct) / 100.0,
                ..Default::default()
            };
            let (mut w, a, b, ch, sh) = established(fault);
            let (mut written, mut got) = (Vec::new(), Vec::new());
            let mut bulk_left = 1;
            let step = |w: &mut World, got: &mut Vec<u8>| {
                let more = w.step();
                let c = &layer(w.host_mut(a)).conns[ch.0];
                assert!(seq_le(c.snd_una, c.snd_nxt), "SND.UNA passed SND.NXT");
                let queued = c.send_buf.len();
                assert!(queued >= c.in_flight() as usize, "in-flight bytes left the queue");
                got.extend(recv(w.host_mut(b), sh));
                more
            };
            for (i, &(pick, any, pause)) in writes.iter().enumerate() {
                let window = MAX_IN_FLIGHT_SEGS * DEFAULT_MSS;
                let len = match pick {
                    0 => 0,
                    1 => 1,
                    2 => DEFAULT_MSS - 1,
                    3 => DEFAULT_MSS,
                    4 => DEFAULT_MSS + 1,
                    5 => window,
                    6 => window + 1,
                    // One multi-MiB write per case keeps the case short.
                    7 if bulk_left > 0 => {
                        bulk_left -= 1;
                        (2 << 20) + any
                    }
                    _ => any,
                };
                let data = pattern(len, i);
                w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
                written.extend(data);
                // Let some of it fly before the next write lands behind it.
                for _ in 0..pause {
                    step(&mut w, &mut got);
                }
            }
            while got.len() < written.len() || !all_acked(w.host_mut(a), ch) {
                let more = step(&mut w, &mut got);
                proptest::prop_assert!(more, "world idle before the transfer finished");
            }
            proptest::prop_assert!(got == written, "delivered bytes differ from written bytes");
            proptest::prop_assert_eq!(error(w.host_mut(a), ch), None);
        }
    }

    #[test]
    fn out_of_order_delivery_is_reassembled() {
        // Duplicate-prone link reorders via duplication + loss patterns;
        // verify correctness under duplication.
        let (mut w, a, b) = lan_pair(FaultInjector {
            duplicate_prob: 0.2,
            ..Default::default()
        });
        let srv = listen(w.host_mut(b), None, 9);
        let ch = w
            .host_do(a, |h, ctx| connect(h, ctx, (ip("10.0.0.2"), 9), None))
            .unwrap();
        w.run_for(SimDuration::from_secs(10));
        let sh = accept(w.host_mut(b), srv).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 211) as u8).collect();
        w.host_do(a, |h, ctx| assert!(send(h, ctx, ch, &data)));
        w.run_for(SimDuration::from_secs(60));
        assert_eq!(recv(w.host_mut(b), sh), data);
    }
}
