//! The traced run's instruments, built only from the crates' public APIs.
//!
//! [`Timed`] wraps an agent and times its three handlers, so a run's wall
//! time splits into agent time (tcpsim/mptcpsim, including the `Ctx`
//! calls the handlers make into netsim) and engine self time (everything
//! else inside `run_until`). The `build_*` functions rebuild the same
//! simulators that `Scenario::run`, `run_traffic` and `run_fabric` build
//! privately, with every endpoint wrapped; the caller proves each rebuild
//! faithful by comparing its trace hash with the untraced run's.

use mptcpsim::{
    install_subflows, MptcpConfig, MptcpReceiverAgent, MptcpSenderAgent, SubflowConfig,
};
use netsim::{
    Agent, AgentId, CaptureConfig, Ctx, Dir, NodeId, Packet, RoutingTables, Simulator, Tag,
};
use overlap_core::worldexp::STREAM_CONN;
use overlap_core::{FabricCell, Scenario, TrafficCell};
use simbase::{SimRng, SimTime, SplitMix64, Xoshiro256StarStar};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcpsim::AppSource;
use worldgen::{
    FatTree, FatTreeConfig, TrafficConfig, TrafficNet, TrafficNetConfig, TrafficProgram,
};

/// Handler calls and the wall time spent in them. Shared by every agent
/// of one role in one simulation (and by their checkpoint clones).
#[derive(Debug, Default)]
pub struct HandlerProbe {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl HandlerProbe {
    fn record(&self, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: nothing else is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }

    /// Handler invocations so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Wall time inside handlers so far, seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// An agent whose handlers are timed into a [`HandlerProbe`]. Everything
/// else delegates, so the wrapped agent's behaviour (and the run's trace
/// hash) is unchanged, and `as_any` still downcasts to the inner type.
pub struct Timed {
    inner: Box<dyn Agent>,
    probe: Arc<HandlerProbe>,
}

impl Timed {
    /// Wrap `inner`, recording into `probe`.
    pub fn boxed(inner: Box<dyn Agent>, probe: &Arc<HandlerProbe>) -> Box<dyn Agent> {
        Box::new(Timed {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Agent for Timed {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.probe.record(t);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let t = Instant::now();
        self.inner.on_packet(ctx, pkt);
        self.probe.record(t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.probe.record(t);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        Timed::boxed(self.inner.clone_boxed(), &self.probe)
    }
}

/// The sender-side and receiver-side probes of one simulation.
#[derive(Debug, Default)]
pub struct Probes {
    /// MPTCP sender agents.
    pub sender: Arc<HandlerProbe>,
    /// MPTCP receiver agents.
    pub receiver: Arc<HandlerProbe>,
}

/// A rebuilt simulation with timed endpoints, ready to run.
pub struct Built {
    /// The simulator, agents installed.
    pub sim: Simulator,
    /// Handler probes of its agents.
    pub probes: Probes,
    /// MPTCP sender agents.
    pub senders: Vec<AgentId>,
    /// MPTCP receiver agents.
    pub receivers: Vec<AgentId>,
    /// Run end.
    pub end: SimTime,
}

impl Built {
    fn new(sim: Simulator, end: SimTime) -> Built {
        Built {
            sim,
            probes: Probes::default(),
            senders: Vec::new(),
            receivers: Vec::new(),
            end,
        }
    }

    /// Install one timed MPTCP connection: the sender at `src`, starting
    /// at `start`, then `receiver` at `cfg.dst`, starting at time zero.
    fn connect(
        &mut self,
        src: NodeId,
        cfg: MptcpConfig,
        start: SimTime,
        receiver: MptcpReceiverAgent,
    ) {
        let dst = cfg.dst;
        let sender = Box::new(MptcpSenderAgent::new(cfg));
        let sender = self
            .sim
            .add_agent(src, Timed::boxed(sender, &self.probes.sender), start);
        let receiver = Timed::boxed(Box::new(receiver), &self.probes.receiver);
        let receiver = self.sim.add_agent(dst, receiver, SimTime::ZERO);
        self.senders.push(sender);
        self.receivers.push(receiver);
    }
}

/// The simulator `Scenario::run` builds for `s` (tag `i + 1` pins path
/// `i`, subflows in default-first order, receiver-side capture), with
/// timed agents. Serial, fault-free scenarios only: faults are installed
/// by the caller, which is how branches receive them.
pub fn build_scenario(s: &Scenario) -> Built {
    assert!(s.background.is_empty() && s.regions == 1 && s.region_map.is_none());
    let tag = |i: usize| Tag(1 + u16::try_from(i).expect("few paths"));
    let src = s.paths[0].src();
    let dst = mptcpsim::common_destination(&s.paths);
    let mut routing = RoutingTables::new(&s.topology);
    for (i, p) in s.paths.iter().enumerate() {
        routing.install_path(p, tag(i));
    }
    let mut order: Vec<usize> = (0..s.paths.len()).collect();
    order.swap(0, s.default_path);
    let subflows: Vec<SubflowConfig> = order
        .iter()
        .map(|&ci| {
            let port = u16::try_from(ci).expect("few paths");
            SubflowConfig {
                tag: tag(ci),
                src_port: 5000 + port,
                dst_port: 6000 + port,
            }
        })
        .collect();
    let mut sim = Simulator::new(s.topology.clone(), routing, s.seed);
    sim.set_capture(CaptureConfig::receiver_side(dst));
    sim.set_forward_jitter(s.forward_jitter);
    sim.install_faults(&s.faults);
    let cfg = MptcpConfig {
        algo: s.algo,
        scheduler: s.scheduler,
        app: s.app,
        sack: s.sack,
        ecn: s.ecn,
        ..MptcpConfig::bulk(dst, subflows)
    };
    let receiver = MptcpReceiverAgent::default();
    let receiver = if s.sack {
        receiver
    } else {
        receiver.without_sack()
    };
    let mut built = Built::new(sim, SimTime::ZERO + s.duration);
    built.connect(src, cfg, SimTime::ZERO, receiver);
    built
}

/// The simulator `run_traffic` builds for `cell`, with timed agents.
pub fn build_traffic(cell: &TrafficCell) -> Built {
    assert_eq!(cell.regions, 1);
    let program = TrafficProgram::generate(&TrafficConfig {
        connections: cell.pairs,
        arrival_rate_hz: cell.arrival_rate_hz,
        seed: cell.seed,
        ..TrafficConfig::default()
    });
    let net = TrafficNet::build(&TrafficNetConfig {
        pairs: cell.pairs,
        ..TrafficNetConfig::default()
    });
    let mut routing = RoutingTables::new(&net.topology);
    let subflows: Vec<Vec<SubflowConfig>> = (0..cell.pairs)
        .map(|i| install_subflows(&mut routing, &net.paths(i), 1, 5000))
        .collect();
    let mut sim = Simulator::new(net.topology.clone(), routing, cell.seed);
    sim.set_capture(receivers_capture(&net.dsts));
    let mut built = Built::new(sim, SimTime::ZERO + cell.duration);
    for (i, conn) in program.connections.iter().enumerate() {
        let cfg = MptcpConfig {
            algo: cell.algo,
            app: AppSource::Fixed(conn.size_bytes),
            ..MptcpConfig::bulk(net.dsts[i], subflows[i].clone())
        };
        built.connect(net.srcs[i], cfg, conn.start, MptcpReceiverAgent::default());
    }
    built
}

/// The simulator `run_fabric` builds for `cell` (ECMP subflow placement
/// only), with timed agents.
pub fn build_fabric(cell: &FabricCell) -> Built {
    assert_eq!(cell.regions, 1);
    assert_eq!(cell.selector, overlap_core::SubflowSelector::Ecmp);
    let tree = FatTree::build(&FatTreeConfig {
        k: cell.k,
        seed: cell.seed,
        ..FatTreeConfig::default()
    });
    // The host pairing `run_fabric` draws: a seeded Fisher–Yates shuffle,
    // then consecutive pairs.
    let mut hosts = tree.hosts.clone();
    let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(tree.seed, worldgen::STREAM_PAIRING));
    for i in (1..hosts.len()).rev() {
        let j = usize::try_from(rng.next_below(i as u64 + 1)).expect("index fits");
        hosts.swap(i, j);
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..cell.connections)
        .map(|c| (hosts[2 * c], hosts[2 * c + 1]))
        .collect();
    let mut routing = tree.routing.clone();
    let subflows: Vec<Vec<SubflowConfig>> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let conn_seed = SplitMix64::derive(cell.seed, STREAM_CONN | i as u64);
            let paths = tree.ecmp_subflow_paths(src, dst, conn_seed, 2);
            install_subflows(&mut routing, &paths, 1, 5000)
        })
        .collect();
    let mut sim = Simulator::new(tree.topology.clone(), routing, cell.seed);
    let dsts: Vec<NodeId> = pairs.iter().map(|p| p.1).collect();
    sim.set_capture(receivers_capture(&dsts));
    let mut built = Built::new(sim, SimTime::ZERO + cell.duration);
    for (&(src, dst), sf) in pairs.iter().zip(subflows) {
        let cfg = MptcpConfig {
            algo: cell.algo,
            ..MptcpConfig::bulk(dst, sf)
        };
        built.connect(src, cfg, SimTime::ZERO, MptcpReceiverAgent::default());
    }
    built
}

fn receivers_capture(dsts: &[NodeId]) -> CaptureConfig {
    dsts[1..]
        .iter()
        .fold(CaptureConfig::receiver_side(dsts[0]), |c, &d| c.add_node(d))
}

/// The deterministic counters a finished simulation exposes, summed over
/// every simulation of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounts {
    pub events: u64,
    pub events_scheduled: u64,
    pub events_cancelled: u64,
    pub packets_sent: u64,
    pub packets_dropped: u64,
    /// Σ over links and directions of packets serialized.
    pub hops: u64,
    /// Largest queue depth seen on any link, packets.
    pub max_queue_pkts: u64,
    pub capture_records: u64,
    pub segments_sent: u64,
    pub retransmits: u64,
    pub rtos: u64,
    pub loss_events: u64,
    pub data_delivered: u64,
    pub duplicate_bytes: u64,
}

impl SimCounts {
    /// Read the counters of a finished simulation.
    pub fn of(b: &Built) -> SimCounts {
        let sim = &b.sim;
        let topo = sim.topology();
        let mut c = SimCounts {
            events: sim.stats().events,
            events_scheduled: sim.events_scheduled(),
            events_cancelled: sim.events_cancelled(),
            packets_sent: sim.stats().packets_sent,
            packets_dropped: sim.stats().packets_dropped,
            capture_records: sim.captures().len() as u64,
            ..SimCounts::default()
        };
        for l in topo.link_ids() {
            for d in [Dir::AtoB, Dir::BtoA] {
                let s = sim.link_stats(l, d);
                c.hops += s.tx_packets;
                c.max_queue_pkts = c.max_queue_pkts.max(s.max_queue_packets as u64);
            }
        }
        for &id in &b.senders {
            let a = sim
                .agent(id)
                .as_any()
                .and_then(|a| a.downcast_ref::<MptcpSenderAgent>())
                .expect("sender agent");
            for i in 0..a.subflow_count() {
                let st = a.subflow_sender(i).stats();
                c.segments_sent += st.segments_sent;
                c.retransmits += st.retransmits;
                c.rtos += st.rtos;
                c.loss_events += st.loss_events;
            }
        }
        for &id in &b.receivers {
            let r = sim
                .agent(id)
                .as_any()
                .and_then(|a| a.downcast_ref::<MptcpReceiverAgent>())
                .expect("receiver agent");
            c.data_delivered += r.data_delivered();
            c.duplicate_bytes += r.stats().duplicate_bytes;
        }
        c
    }

    /// The work done since `base`, a snapshot of the same simulation's
    /// counters (the high-water mark is kept, not subtracted).
    pub fn since(&self, base: &SimCounts) -> SimCounts {
        SimCounts {
            events: self.events - base.events,
            events_scheduled: self.events_scheduled - base.events_scheduled,
            events_cancelled: self.events_cancelled - base.events_cancelled,
            packets_sent: self.packets_sent - base.packets_sent,
            packets_dropped: self.packets_dropped - base.packets_dropped,
            hops: self.hops - base.hops,
            max_queue_pkts: self.max_queue_pkts,
            capture_records: self.capture_records - base.capture_records,
            segments_sent: self.segments_sent - base.segments_sent,
            retransmits: self.retransmits - base.retransmits,
            rtos: self.rtos - base.rtos,
            loss_events: self.loss_events - base.loss_events,
            data_delivered: self.data_delivered - base.data_delivered,
            duplicate_bytes: self.duplicate_bytes - base.duplicate_bytes,
        }
    }

    /// Accumulate another simulation's counters.
    pub fn add(&mut self, o: &SimCounts) {
        self.events += o.events;
        self.events_scheduled += o.events_scheduled;
        self.events_cancelled += o.events_cancelled;
        self.packets_sent += o.packets_sent;
        self.packets_dropped += o.packets_dropped;
        self.hops += o.hops;
        self.max_queue_pkts = self.max_queue_pkts.max(o.max_queue_pkts);
        self.capture_records += o.capture_records;
        self.segments_sent += o.segments_sent;
        self.retransmits += o.retransmits;
        self.rtos += o.rtos;
        self.loss_events += o.loss_events;
        self.data_delivered += o.data_delivered;
        self.duplicate_bytes += o.duplicate_bytes;
    }
}

/// Mean busy fraction (simulated) of the links two or more of `s`'s paths
/// share — the paper's three bottlenecks — taking each link's busier
/// direction.
pub fn shared_link_busy_frac(sim: &Simulator, s: &Scenario) -> f64 {
    let shared: Vec<_> = sim
        .topology()
        .link_ids()
        .filter(|l| s.paths.iter().filter(|p| p.links().contains(l)).count() >= 2)
        .collect();
    if shared.is_empty() {
        return 0.0;
    }
    let busy: f64 = shared
        .iter()
        .map(|&l| {
            [Dir::AtoB, Dir::BtoA]
                .map(|d| sim.link_stats(l, d).utilization(s.duration))
                .into_iter()
                .fold(0.0, f64::max)
        })
        .sum();
    busy / shared.len() as f64
}
