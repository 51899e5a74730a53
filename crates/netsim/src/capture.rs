//! Packet capture — the simulator's "tshark".
//!
//! The paper measures throughput by capturing at the destination with tshark
//! and filtering by tag. [`CaptureConfig`] selects which nodes and which
//! event kinds to record; the simulator produces a [`CaptureRecord`] per
//! matching event. With a [`CaptureSink`] installed, each record is handed
//! to the sink as it is produced and nothing is kept; without one, records
//! are appended to a buffer (the debugging path). `simtrace` turns the
//! record stream into per-tag throughput time series.

use crate::packet::{LinkId, NodeId, PacketMeta};
use simbase::SimTime;
use std::any::Any;
use std::collections::BTreeSet;

/// What happened to the packet at the capture point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaptureKind {
    /// A host agent handed the packet to the network.
    Sent,
    /// A node forwarded the packet towards the next hop.
    Forwarded,
    /// The packet reached its destination agent.
    Delivered,
    /// The packet was dropped at a link's output queue.
    Dropped,
    /// The packet arrived at a node with no route and was discarded.
    Unroutable,
}

/// One capture record.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// Simulated timestamp of the event.
    pub time: SimTime,
    /// Node where the event occurred.
    pub node: NodeId,
    /// Event kind.
    pub kind: CaptureKind,
    /// Link involved (outgoing for `Forwarded`/`Dropped`, none otherwise).
    pub link: Option<LinkId>,
    /// Packet metadata.
    pub pkt: PacketMeta,
}

/// An online consumer of capture records: the simulator hands it every
/// record in exact serial-run order — partitioned runs included, whose
/// region streams are merged before they reach the sink — so an
/// order-sensitive fold (a trace hash) sees the same sequence a buffered
/// capture would hold.
pub trait CaptureSink: Send {
    /// Observe the next record.
    fn record(&mut self, rec: &CaptureRecord);

    /// Deep-copy the sink's state for a simulator checkpoint (a branch
    /// continues folding from the prefix's state).
    fn clone_boxed(&self) -> Box<dyn CaptureSink>;

    /// Downcast hook, so the installer can read its results back.
    fn as_any(&self) -> &dyn Any;
}

/// Which events to record.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Nodes to capture at; `None` = all nodes.
    nodes: Option<BTreeSet<NodeId>>,
    /// Kinds to capture.
    kinds: BTreeSet<CaptureKind>,
    /// Master switch.
    enabled: bool,
}

impl Default for CaptureConfig {
    /// Disabled by default; enabling capture is an explicit choice because
    /// record volume scales with packet volume.
    fn default() -> Self {
        CaptureConfig {
            nodes: None,
            kinds: BTreeSet::new(),
            enabled: false,
        }
    }
}

impl CaptureConfig {
    /// Capture nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// The paper's setup: record deliveries at the destination host (plus
    /// drops anywhere, which are cheap and invaluable for debugging).
    pub fn receiver_side(dst: NodeId) -> Self {
        let mut kinds = BTreeSet::new();
        kinds.insert(CaptureKind::Delivered);
        kinds.insert(CaptureKind::Dropped);
        kinds.insert(CaptureKind::Unroutable);
        CaptureConfig {
            nodes: Some(BTreeSet::from([dst])),
            kinds,
            enabled: true,
        }
    }

    /// Record every kind at every node (tests, small runs).
    pub fn everything() -> Self {
        let kinds = [
            CaptureKind::Sent,
            CaptureKind::Forwarded,
            CaptureKind::Delivered,
            CaptureKind::Dropped,
            CaptureKind::Unroutable,
        ]
        .into_iter()
        .collect();
        CaptureConfig {
            nodes: None,
            kinds,
            enabled: true,
        }
    }

    /// Also capture at `node` (clears the "all nodes" wildcard if present
    /// only when it was explicitly restricted before).
    pub fn add_node(mut self, node: NodeId) -> Self {
        match &mut self.nodes {
            Some(set) => {
                set.insert(node);
            }
            None => {
                self.nodes = Some(BTreeSet::from([node]));
            }
        }
        self.enabled = true;
        self
    }

    /// Also capture events of `kind`.
    pub fn add_kind(mut self, kind: CaptureKind) -> Self {
        self.kinds.insert(kind);
        self.enabled = true;
        self
    }

    /// Should an event of `kind` at `node` be recorded?
    ///
    /// `Dropped`/`Unroutable` events are recorded regardless of the node
    /// filter (they occur at interior nodes the receiver-side filter would
    /// exclude, and losing them silently would make debugging miserable).
    pub fn wants(&self, node: NodeId, kind: CaptureKind) -> bool {
        if !self.enabled || !self.kinds.contains(&kind) {
            return false;
        }
        if matches!(kind, CaptureKind::Dropped | CaptureKind::Unroutable) {
            return true;
        }
        match &self.nodes {
            None => true,
            Some(set) => set.contains(&node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default() {
        let c = CaptureConfig::default();
        assert!(!c.wants(NodeId(0), CaptureKind::Delivered));
    }

    #[test]
    fn receiver_side_filters_by_node() {
        let c = CaptureConfig::receiver_side(NodeId(5));
        assert!(c.wants(NodeId(5), CaptureKind::Delivered));
        assert!(!c.wants(NodeId(4), CaptureKind::Delivered));
        assert!(!c.wants(NodeId(5), CaptureKind::Sent));
    }

    #[test]
    fn drops_recorded_anywhere() {
        let c = CaptureConfig::receiver_side(NodeId(5));
        assert!(c.wants(NodeId(2), CaptureKind::Dropped));
        assert!(c.wants(NodeId(0), CaptureKind::Unroutable));
    }

    #[test]
    fn everything_captures_everything() {
        let c = CaptureConfig::everything();
        for kind in [
            CaptureKind::Sent,
            CaptureKind::Forwarded,
            CaptureKind::Delivered,
            CaptureKind::Dropped,
        ] {
            assert!(c.wants(NodeId(9), kind));
        }
    }

    #[test]
    fn builders_compose() {
        let c = CaptureConfig::off()
            .add_node(NodeId(1))
            .add_kind(CaptureKind::Sent);
        assert!(c.wants(NodeId(1), CaptureKind::Sent));
        assert!(!c.wants(NodeId(2), CaptureKind::Sent));
        assert!(!c.wants(NodeId(1), CaptureKind::Delivered));
    }
}
