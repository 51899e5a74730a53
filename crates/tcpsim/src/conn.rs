//! Plain (single-path) TCP endpoint agents.
//!
//! These bridge the sans-IO engines to the simulator: [`TcpSenderAgent`]
//! pumps [`crate::sender::TcpSender`] against the network, and
//! [`TcpReceiverAgent`] wraps [`crate::receiver::TcpReceiver`]. They are the
//! reference for how `mptcpsim` drives multiple engines from one agent, and
//! they carry the single-path baseline experiments.

use crate::app::AppSource;
use crate::receiver::{ReceiverConfig, TcpReceiver};
use crate::sender::{TcpConfig, TcpSender};
use crate::wire::TcpSegment;
use netsim::packet::Ecn;
use netsim::{Agent, Ctx, NodeId, Packet, Protocol, Tag};
use simbase::SimTime;

/// Timer tokens used by the TCP agents.
const TOKEN_RTO: u64 = 1;
const TOKEN_APP: u64 = 2;
const TOKEN_DELACK: u64 = 3;

/// A segment an agent cannot use — an undecodable payload, or an ACK no
/// subflow owns. It means a peer or the forwarding plane handed the agent
/// garbage, so under the `check` feature it is an invariant violation that
/// names the agent and the error; without `check` the segment is dropped.
/// `mptcpsim`'s agents report through here too (its `check` forwards to
/// this crate's).
#[cfg(feature = "check")]
pub fn reject_segment(agent: &str, err: std::fmt::Arguments<'_>) {
    // simlint: allow(panic-surface, reason = "documented `check` invariant: a segment no agent can use means the wire or a peer is corrupt")
    panic!("{agent}: {err}");
}

/// See the `check` form: without `check` the segment is dropped.
#[cfg(not(feature = "check"))]
pub fn reject_segment(_agent: &str, _err: std::fmt::Arguments<'_>) {}

/// Derive a stable flow hash from the port pair (for ECMP and traces).
pub fn flow_hash(src_port: u16, dst_port: u16) -> u64 {
    ((src_port as u64) << 16 | dst_port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A bulk-data TCP sender endpoint.
#[derive(Clone)]
pub struct TcpSenderAgent {
    sender: TcpSender,
    app: AppSource,
    dst: NodeId,
    tag: Tag,
    flow_hash: u64,
    /// Memo of the armed deadline. Arming a token *replaces* the pending
    /// event in the queue, so this exists only to skip redundant re-arms
    /// when the engine's deadline has not moved.
    armed: Option<SimTime>,
}

impl TcpSenderAgent {
    /// Create a sender agent towards `dst`, tagging its packets with `tag`.
    pub fn new(
        cfg: TcpConfig,
        cc: Box<dyn crate::cc::CongestionControl>,
        app: AppSource,
        dst: NodeId,
        tag: Tag,
    ) -> Self {
        let fh = flow_hash(cfg.src_port, cfg.dst_port);
        TcpSenderAgent {
            sender: TcpSender::new(cfg, cc),
            app,
            dst,
            tag,
            flow_hash: fh,
            armed: None,
        }
    }

    /// Access the underlying engine (post-run inspection).
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let ecn = if self.sender.config().ecn {
            Ecn::Ect
        } else {
            Ecn::NotEct
        };
        while let Some(tx) = self.sender.poll_segment(ctx.now()) {
            ctx.send_ecn(
                self.dst,
                self.tag,
                Protocol::Tcp,
                tx.seg.encode(),
                tx.len,
                self.flow_hash,
                ecn,
            );
        }
        self.rearm(ctx);
    }

    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        match self.sender.next_timer() {
            Some(t) => {
                let fire_at = t.max(ctx.now());
                // Re-arming replaces the pending deadline outright (the old
                // event is cancelled in the queue), so the timer tracks the
                // engine exactly — moved later as well as earlier. A stale
                // deadline can never fire.
                if self.armed != Some(fire_at) {
                    ctx.set_timer_at(fire_at, TOKEN_RTO);
                    self.armed = Some(fire_at);
                }
            }
            None => {
                if self.armed.take().is_some() {
                    ctx.cancel_timer(TOKEN_RTO);
                }
            }
        }
    }
}

impl Agent for TcpSenderAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.app {
            AppSource::Unlimited => self.sender.set_unlimited(),
            AppSource::Fixed(n) => {
                self.sender.push_app_data(n);
                // Bounded transfers close cleanly: FIN after the last byte.
                self.sender.close();
            }
            AppSource::Paced { chunk, interval } => {
                self.sender.push_app_data(chunk);
                ctx.set_timer_after(interval, TOKEN_APP);
            }
        }
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let seg = match TcpSegment::decode(&pkt.payload) {
            Ok(seg) => seg,
            Err(e) => {
                reject_segment("tcp.sender", format_args!("bad segment: {e}"));
                return;
            }
        };
        if seg.flags.ack {
            self.sender.on_ack(ctx.now(), &seg);
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_RTO => {
                // Replacement semantics guarantee a fire matches the armed
                // deadline exactly; a stale (superseded) deadline reaching
                // this point would be a queue-cancellation bug.
                debug_assert_eq!(self.armed, Some(ctx.now()), "RTO fired at a stale deadline");
                self.armed = None;
                self.sender.on_timer(ctx.now());
                self.pump(ctx);
            }
            TOKEN_APP => {
                if let AppSource::Paced { chunk, interval } = self.app {
                    self.sender.push_app_data(chunk);
                    ctx.set_timer_after(interval, TOKEN_APP);
                    self.pump(ctx);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("tcp.sender[{}]", self.sender.config().src_port)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// A TCP receiver endpoint that ACKs whatever arrives.
#[derive(Clone)]
pub struct TcpReceiverAgent {
    receiver: TcpReceiver,
    tag: Tag,
    flow_hash: u64,
    /// Peer address, learned from the first data packet (needed to address
    /// delayed-ACK flushes that fire outside packet context).
    peer: Option<NodeId>,
    /// Memo of the armed delayed-ACK deadline (see [`TcpSenderAgent`]).
    armed: Option<SimTime>,
}

impl TcpReceiverAgent {
    /// Create a receiver; ACKs carry `tag` so they retrace the data path.
    pub fn new(cfg: ReceiverConfig, tag: Tag) -> Self {
        let fh = flow_hash(cfg.src_port, cfg.dst_port);
        TcpReceiverAgent {
            receiver: TcpReceiver::new(cfg),
            tag,
            flow_hash: fh,
            peer: None,
            armed: None,
        }
    }

    /// Access the underlying engine (post-run inspection).
    pub fn receiver(&self) -> &TcpReceiver {
        &self.receiver
    }

    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        match self.receiver.next_timer() {
            Some(t) => {
                let fire_at = t.max(ctx.now());
                if self.armed != Some(fire_at) {
                    ctx.set_timer_at(fire_at, TOKEN_DELACK);
                    self.armed = Some(fire_at);
                }
            }
            None => {
                if self.armed.take().is_some() {
                    ctx.cancel_timer(TOKEN_DELACK);
                }
            }
        }
    }
}

impl Agent for TcpReceiverAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let seg = match TcpSegment::decode(&pkt.payload) {
            Ok(seg) => seg,
            Err(e) => {
                reject_segment("tcp.receiver", format_args!("bad segment: {e}"));
                return;
            }
        };
        self.peer = Some(pkt.src);
        let ce = pkt.ecn == Ecn::Ce;
        if let Some(ack) = self.receiver.on_data_ecn(ctx.now(), &seg, pkt.data_len, ce) {
            ctx.send(
                pkt.src,
                self.tag,
                Protocol::Tcp,
                ack.encode(),
                0,
                self.flow_hash,
            );
        }
        self.rearm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_DELACK {
            debug_assert_eq!(
                self.armed,
                Some(ctx.now()),
                "delayed-ACK timer fired at a stale deadline"
            );
            self.armed = None;
            if let Some(ack) = self.receiver.on_timer(ctx.now()) {
                // The delayed-ACK timer only arms once a segment has set peer.
                let Some(peer) = self.peer else { return };
                ctx.send(
                    peer,
                    self.tag,
                    Protocol::Tcp,
                    ack.encode(),
                    0,
                    self.flow_hash,
                );
            }
            self.rearm(ctx);
        }
    }

    fn name(&self) -> String {
        "tcp.receiver".to_string()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

#[cfg(all(test, feature = "check"))]
mod tests {
    use super::*;
    use netsim::{AgentId, Payload};
    use simbase::Xoshiro256StarStar;

    /// Hand `agent` one TCP packet carrying `payload`, outside a simulator.
    fn deliver(agent: &mut dyn Agent, payload: Payload) {
        let mut rng = Xoshiro256StarStar::new(1);
        let (mut effects, mut next_id) = (Vec::new(), 0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(1),
            AgentId(0),
            &mut rng,
            &mut effects,
            &mut next_id,
        );
        let pkt = Packet {
            id: 0,
            src: NodeId(0),
            dst: NodeId(1),
            tag: Tag(1),
            protocol: Protocol::Tcp,
            payload,
            data_len: 0,
            flow_hash: 0,
            ecn: Ecn::NotEct,
        };
        agent.on_packet(&mut ctx, pkt);
    }

    #[test]
    #[should_panic(expected = "tcp.sender: bad segment: segment truncated")]
    fn sender_rejects_an_undecodable_segment() {
        let cc = Box::new(crate::cc::Reno::new(14_600, 1460));
        let mut agent = TcpSenderAgent::new(
            TcpConfig::default(),
            cc,
            AppSource::Unlimited,
            NodeId(1),
            Tag(1),
        );
        deliver(&mut agent, Payload::empty());
    }

    #[test]
    #[should_panic(expected = "tcp.receiver: bad segment: segment truncated")]
    fn receiver_rejects_an_undecodable_segment() {
        let mut agent = TcpReceiverAgent::new(ReceiverConfig::default(), Tag(1));
        deliver(&mut agent, Payload::empty());
    }
}
