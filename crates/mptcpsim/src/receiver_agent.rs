//! The MPTCP receiver endpoint.
//!
//! One `tcpsim::TcpReceiver` per subflow (created lazily as subflows
//! appear, keyed by the peer's source port — ndiffports semantics), plus a
//! connection-level [`IntervalSet`] reassembling the DSN space from the DSS
//! options. Every subflow-level ACK carries a connection-level data ACK.
//! Duplicate DSNs (redundant scheduler, retransmissions after reinjection)
//! are absorbed by the interval set.

use crate::dsn::IntervalSet;
use netsim::{Agent, Ctx, NodeId, Packet, Protocol, Tag};
use std::collections::BTreeMap;
use tcpsim::wire::{DssOption, TcpSegment};
use tcpsim::{reject_segment, ReceiverConfig, TcpReceiver};

/// Connection-level receiver statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpReceiverStats {
    /// Connection-level bytes delivered in order (DSN prefix).
    pub bytes_in_order: u64,
    /// DSN bytes that arrived as duplicates (redundant copies, spurious
    /// retransmissions).
    pub duplicate_bytes: u64,
    /// Data segments received across all subflows.
    pub segments: u64,
}

/// The MPTCP receiver agent.
#[derive(Clone)]
pub struct MptcpReceiverAgent {
    /// Advertised window per subflow, bytes.
    window: u32,
    /// Generate SACK blocks on subflow ACKs.
    sack: bool,
    /// Per-subflow receivers, keyed by the peer's source port. BTreeMap:
    /// any traversal (stats, teardown) must be in port order, never in a
    /// per-process hash order (simlint: hash-iter).
    subs: BTreeMap<u16, TcpReceiver>,
    /// Connection-level DSN reassembly.
    conn: IntervalSet,
    stats: MptcpReceiverStats,
}

impl Default for MptcpReceiverAgent {
    fn default() -> Self {
        Self::new(4 << 20)
    }
}

impl MptcpReceiverAgent {
    /// Create with the given per-subflow advertised window.
    pub fn new(window: u32) -> Self {
        MptcpReceiverAgent {
            window,
            sack: true,
            subs: BTreeMap::new(),
            conn: IntervalSet::new(),
            stats: MptcpReceiverStats::default(),
        }
    }

    /// Disable SACK generation (NewReno ablation).
    pub fn without_sack(mut self) -> Self {
        self.sack = false;
        self
    }

    /// Connection-level statistics.
    pub fn stats(&self) -> &MptcpReceiverStats {
        &self.stats
    }

    /// The connection-level in-order delivery point (next expected DSN).
    pub fn data_delivered(&self) -> u64 {
        self.conn.next_expected()
    }

    /// Number of subflows seen so far.
    pub fn subflow_count(&self) -> usize {
        self.subs.len()
    }

    /// Bytes buffered out-of-order at connection level.
    pub fn reorder_buffer_bytes(&self) -> u64 {
        self.conn.pending_bytes()
    }
}

impl Agent for MptcpReceiverAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let seg = match TcpSegment::decode(&pkt.payload) {
            Ok(seg) => seg,
            Err(e) => {
                reject_segment("mptcp.receiver", format_args!("bad segment: {e}"));
                return;
            }
        };
        let window = self.window;
        let sack = self.sack;
        let sub = self.subs.entry(seg.src_port).or_insert_with(|| {
            TcpReceiver::new(ReceiverConfig {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                window,
                sack,
                ..Default::default()
            })
        });
        self.stats.segments += 1;

        // Connection-level reassembly from the DSS mapping.
        if let Some(dss) = &seg.dss {
            if let Some(dsn) = dss.dsn {
                let new = self.conn.insert(dsn, dsn + dss.data_len as u64);
                self.stats.duplicate_bytes += dss.data_len as u64 - new;
            }
        }
        self.stats.bytes_in_order = self.conn.next_expected();

        // Subflow-level ACK, carrying the data ACK.
        let ce = pkt.ecn == netsim::packet::Ecn::Ce;
        if let Some(mut ack) = sub.on_data_ecn(ctx.now(), &seg, pkt.data_len, ce) {
            ack.dss = Some(DssOption {
                data_ack: Some(self.conn.next_expected()),
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            });
            // The data ACK competes with SACK blocks for option space.
            ack.trim_sack_to_fit();
            ctx.send(
                pkt.src,
                pkt.tag,
                Protocol::Tcp,
                ack.encode(),
                0,
                pkt.flow_hash,
            );
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
        // Quickack mode: no delayed-ACK timers at the MPTCP receiver.
    }

    fn name(&self) -> String {
        format!("mptcp.receiver[{} subflows]", self.subs.len())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// Install tag routes for a set of MPTCP subflow paths and return the
/// subflow configurations that pin each subflow to its path — the paper's
/// modified-ndiffports workflow in one call.
///
/// Subflow `i` gets tag `base_tag + i`, source port `base_port + i`, and
/// destination port `base_port + 1000 + i`.
pub fn install_subflows(
    routing: &mut netsim::RoutingTables,
    paths: &[netsim::Path],
    base_tag: u16,
    base_port: u16,
) -> Vec<crate::sender_agent::SubflowConfig> {
    assert!(base_tag > 0, "tags must be nonzero");
    paths
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // Subflow counts are tiny (the paper uses at most a handful);
            // saturating keeps the conversion total.
            let i = u16::try_from(i).unwrap_or(u16::MAX);
            let tag = Tag(base_tag + i);
            routing.install_path(p, tag);
            crate::sender_agent::SubflowConfig {
                tag,
                src_port: base_port + i,
                dst_port: base_port + 1000 + i,
            }
        })
        .collect()
}

/// Convenience: the destination node of a path set (all paths must agree).
pub fn common_destination(paths: &[netsim::Path]) -> NodeId {
    let dst = paths[0].dst();
    assert!(
        paths.iter().all(|p| p.dst() == dst),
        "paths must share a destination"
    );
    dst
}
