//! The discrete-event simulator.
//!
//! [`Simulator`] owns the topology, routing tables, per-link runtime state
//! (transmitter + queue per direction), registered agents, statistics, and
//! the event queue. One event loop iteration pops the earliest event and:
//!
//! * `Arrive` — a packet finished its propagation delay; deliver it to the
//!   local agent (if it is the destination) or forward it.
//! * `TxDone` — a transmitter finished serializing a packet; start the
//!   propagation leg and pull the next packet from the queue.
//! * `Timer` / `StartAgent` — dispatch to the owning agent.
//!
//! The link model is store-and-forward with full-duplex directions: each
//! direction has an independent transmitter and drop-tail/RED queue.
//! Serialization time is `wire_size / capacity` (exact integer arithmetic),
//! after which the packet spends the link's propagation delay in flight.
//!
//! # Schedule-independent ordering
//!
//! Events at equal times are ordered by a *canonical key* rather than push
//! order (see [`order`]), and every random draw comes from a per-entity
//! stream (one per link direction, one per agent) rather than a global
//! generator. Both choices make the execution a pure function of the event
//! set — independent of the order events happened to be scheduled in — which
//! is what lets [`Simulator::run_parallel`] shard a run across regions and
//! still produce a byte-identical trace.

use crate::agent::{Agent, AgentId, Ctx, Effect};
use crate::capture::{CaptureBuffer, CaptureConfig, CaptureKind, CaptureRecord, CaptureSink};
use crate::faults::{FaultAction, FaultSchedule};
use crate::packet::{Dir, LinkId, NodeId, Packet, PacketMeta};
use crate::queue::{EnqueueResult, Queue};
use crate::routing::RoutingTables;
use crate::stats::{LinkDirStats, SimStats};
use crate::topology::Topology;
use simbase::{EventQueue, SimDuration, SimRng, SimTime, SplitMix64, Xoshiro256StarStar};

mod parallel;

/// Canonical event-ordering keys.
///
/// Two events scheduled for the same instant pop in key order, not push
/// order. The key packs `[class:3][entity:25][local:36]`:
///
/// * `class` — fault (0), agent start (1), TxDone (2), Arrive (3),
///   timer (4); ties between unrelated event kinds resolve by kind.
/// * `entity` — the link direction (`link * 2 + dir`) or agent the event
///   belongs to.
/// * `local` — a per-entity discriminator: the direction's transmission
///   epoch (TxDone), a per-direction arrival counter (Arrive), the agent's
///   timer token (Timer), or a fault-schedule install index (Fault).
///
/// Every *live* key is unique at its timestamp: arrival counters and fault
/// indices never repeat, an agent re-arming a timer token cancels the old
/// event first, and a direction serializes at most one packet at a time
/// (serialization takes ≥ 1 ns, so equal-time TxDones on one direction
/// cannot both be live).
pub(crate) mod order {
    /// Network mutations apply before anything else at the same instant.
    pub const CLASS_FAULT: u64 = 0;
    /// Agent start hooks.
    pub const CLASS_START: u64 = 1;
    /// Serialization completions.
    pub const CLASS_TX_DONE: u64 = 2;
    /// Propagation completions.
    pub const CLASS_ARRIVE: u64 = 3;
    /// Agent timers fire last at an instant.
    pub const CLASS_TIMER: u64 = 4;

    const ENTITY_BITS: u32 = 25;
    const LOCAL_BITS: u32 = 36;

    /// Pack a canonical key. Panics if a field overflows its budget —
    /// silently wrapping would corrupt the event order.
    pub fn pack(class: u64, entity: u64, local: u64) -> u64 {
        assert!(entity < 1 << ENTITY_BITS, "canonical-key entity overflow");
        assert!(local < 1 << LOCAL_BITS, "canonical-key local overflow");
        (class << (ENTITY_BITS + LOCAL_BITS)) | (entity << LOCAL_BITS) | local
    }

    /// The entity index of one link direction.
    pub fn dir_entity(link: crate::packet::LinkId, dir: crate::packet::Dir) -> u64 {
        (link.0 as u64) * 2 + dir.index() as u64
    }
}

/// Simulator events.
#[derive(Debug, Clone)]
enum Event {
    /// Fire an agent's start hook.
    StartAgent(AgentId),
    /// Deliver a one-shot timer to an agent.
    Timer { agent: AgentId, token: u64 },
    /// A transmitter finished serializing its current packet. The epoch
    /// pins the event to the transmission that scheduled it: aborting a
    /// serialization (link failure) bumps the direction's epoch, so a
    /// stale TxDone cannot complete a *different* packet started later.
    TxDone { link: LinkId, dir: Dir, epoch: u64 },
    /// A packet finished propagating and arrives at the far end. The
    /// packet itself sits in the simulator's wire pool — a full [`Packet`]
    /// embeds its inline payload (~112 bytes), and keeping queue entries
    /// small makes every event-queue move a fraction of the cost.
    Arrive {
        link: LinkId,
        dir: Dir,
        wire_slot: u32,
    },
    /// Apply a scheduled network mutation (see [`crate::faults`]). Boxed:
    /// faults are rare, and the variant would otherwise dominate the
    /// event's size (it embeds a full queue configuration).
    Fault(Box<FaultAction>),
}

/// Runtime state for one direction of a link.
#[derive(Clone)]
struct DirState {
    /// The packet currently being serialized plus its serialization time
    /// (fixed when the transmission started: a capacity fault mid-flight
    /// must not retroactively change this packet's accounting).
    transmitting: Option<(Packet, SimDuration)>,
    /// Incremented whenever a serialization is aborted; pending `TxDone`
    /// events from before the abort carry the old epoch and are ignored.
    epoch: u64,
    /// Output queue behind the transmitter.
    queue: Box<dyn Queue>,
}

impl DirState {
    fn is_busy(&self) -> bool {
        self.transmitting.is_some()
    }
}

/// Runtime state for one duplex link: `dirs[Dir::index()]`.
#[derive(Clone)]
struct LinkRuntime {
    dirs: [DirState; 2],
    /// Administrative state; packets offered to a down link are dropped.
    up: bool,
}

/// RNG stream labels for [`SplitMix64::derive`]: one independent stream
/// per agent and per link direction, so a random draw depends only on the
/// entity making it — never on what the rest of the network did first.
const STREAM_AGENT: u64 = 1 << 32;
const STREAM_DIR: u64 = 2 << 32;

/// Per-agent packet ids live in the upper bits: agent `a`'s packets are
/// `(a << PACKET_ID_SHIFT) + n`. 2^40 packets per agent is unreachable in
/// practice, and the namespacing keeps ids identical however a run is
/// partitioned.
const PACKET_ID_SHIFT: u32 = 40;

/// A capture record's canonical position in a run: `(time, event key,
/// intra-event index)`. Live event keys are unique per timestamp, so this
/// is a total order — the serial run's record order.
type CaptureStamp = (SimTime, u64, u32);

/// The packet-level network simulator.
pub struct Simulator {
    topo: Topology,
    routing: RoutingTables,
    links: Vec<LinkRuntime>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_node: Vec<NodeId>,
    node_agent: Vec<Option<AgentId>>,
    events: EventQueue<Event>,
    now: SimTime,
    /// The run's root seed; every per-entity stream derives from it.
    seed: u64,
    /// Per-agent RNG streams (handed to `Ctx::rng`).
    agent_rngs: Vec<Xoshiro256StarStar>,
    /// Per-link-direction RNG streams (queue AQM draws, corruption loss,
    /// forwarding jitter), indexed like `links`.
    dir_rngs: Vec<[Xoshiro256StarStar; 2]>,
    /// Per-agent packet-id counters (see `PACKET_ID_SHIFT`).
    agent_packet_seq: Vec<u64>,
    /// Per-link-direction count of arrivals scheduled — the `local` part of
    /// each `Arrive` event's canonical key.
    arrive_seq: Vec<[u64; 2]>,
    /// Faults installed so far — the `local` part of fault keys.
    fault_seq: u64,
    capture_cfg: CaptureConfig,
    /// Where every capture record goes (a [`CaptureBuffer`] by default).
    /// A region of a partitioned run never feeds it — see `record_meta`.
    sink: Box<dyn CaptureSink>,
    /// A region simulator's records with their [`CaptureStamp`]s, so the
    /// merge can restore serial order. Empty on the serial path.
    region_captures: Vec<(CaptureStamp, CaptureRecord)>,
    /// Canonical key of the event currently being executed.
    cur_key: u64,
    /// Capture records emitted so far by the current event.
    cur_sub: u32,
    stats: SimStats,
    link_stats: Vec<[LinkDirStats; 2]>,
    /// Packets currently inside the network (queued, serializing, flying).
    /// Signed: a region of a partitioned run can deliver more packets than
    /// it sourced; only the sum over regions must be non-negative.
    in_flight: i64,
    /// Pending timers per agent: `(agent token, queue cancellation token)`
    /// pairs, linear-scanned (an agent arms a handful of timers at most).
    /// Arming an already-armed `(agent, token)` cancels the old deadline
    /// (replacement semantics: a stale deadline can never fire).
    timer_keys: Vec<Vec<(u64, u64)>>,
    /// Packets in propagation, indexed by `Event::Arrive::wire_slot`.
    /// Slots are recycled through `wire_free`, so steady-state forwarding
    /// allocates nothing.
    wire_pool: Vec<Option<Packet>>,
    /// Vacant `wire_pool` indices.
    wire_free: Vec<u32>,
    /// Recycled effect buffers (one per live dispatch depth); dispatching
    /// an agent in steady state allocates nothing.
    effect_bufs: Vec<Vec<Effect>>,
    /// Maximum uniform per-hop forwarding jitter added to each packet's
    /// propagation leg (models kernel/switch processing noise; zero by
    /// default so timing tests stay exact).
    forward_jitter: SimDuration,
    /// Adjustments folded in by a parallel run's merge step: region queues
    /// did the real scheduling, and duplicated fault copies must not be
    /// double-counted. Zero on the serial path.
    extra_scheduled: i64,
    extra_cancelled: u64,
    /// This simulator's region id in a partitioned run (0 when serial).
    region: u32,
    /// Region of every node when running as one region of a partitioned
    /// simulation; `None` on the (default) serial path.
    node_region: Option<Vec<u32>>,
    /// Cross-region arrivals produced this window, one buffer per peer
    /// region (empty and unused when serial).
    outbox: Vec<Vec<parallel::RegionMsg>>,
}

impl Simulator {
    /// Build a simulator over a topology with a deterministic seed.
    pub fn new(topo: Topology, routing: RoutingTables, seed: u64) -> Self {
        let links = topo
            .link_ids()
            .map(|l| {
                let spec = topo.link(l);
                LinkRuntime {
                    dirs: [
                        DirState {
                            transmitting: None,
                            epoch: 0,
                            queue: spec.queue.build(),
                        },
                        DirState {
                            transmitting: None,
                            epoch: 0,
                            queue: spec.queue.build(),
                        },
                    ],
                    up: true,
                }
            })
            .collect();
        let link_stats = topo
            .link_ids()
            .map(|_| [LinkDirStats::default(); 2])
            .collect();
        let node_agent = vec![None; topo.node_count()];
        let dir_rngs = topo
            .link_ids()
            .map(|l| {
                [Dir::AtoB, Dir::BtoA].map(|d| {
                    Xoshiro256StarStar::new(SplitMix64::derive(
                        seed,
                        STREAM_DIR | order::dir_entity(l, d),
                    ))
                })
            })
            .collect();
        let arrive_seq = topo.link_ids().map(|_| [0u64; 2]).collect();
        Simulator {
            topo,
            routing,
            links,
            agents: Vec::new(),
            agent_node: Vec::new(),
            node_agent,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            agent_rngs: Vec::new(),
            dir_rngs,
            agent_packet_seq: Vec::new(),
            arrive_seq,
            fault_seq: 0,
            capture_cfg: CaptureConfig::off(),
            sink: Box::new(CaptureBuffer::default()),
            region_captures: Vec::new(),
            cur_key: 0,
            cur_sub: 0,
            stats: SimStats::default(),
            link_stats: Vec::new(),
            in_flight: 0,
            timer_keys: Vec::new(),
            wire_pool: Vec::new(),
            wire_free: Vec::new(),
            effect_bufs: Vec::new(),
            forward_jitter: SimDuration::ZERO,
            extra_scheduled: 0,
            extra_cancelled: 0,
            region: 0,
            node_region: None,
            outbox: Vec::new(),
        }
        .with_link_stats(link_stats)
    }

    fn with_link_stats(mut self, ls: Vec<[LinkDirStats; 2]>) -> Self {
        self.link_stats = ls;
        self
    }

    /// Set the capture configuration (before or during a run).
    pub fn set_capture(&mut self, cfg: CaptureConfig) {
        self.capture_cfg = cfg;
    }

    /// Deliver every capture record to `sink` as it is produced (see
    /// [`CaptureSink`]), replacing the current sink and whatever it held.
    /// Install before the run starts.
    pub fn set_capture_sink(&mut self, sink: Box<dyn CaptureSink>) {
        self.sink = sink;
    }

    /// The installed capture sink.
    pub fn capture_sink(&self) -> &dyn CaptureSink {
        self.sink.as_ref()
    }

    /// Add up to `jitter` of uniform random delay to every packet's
    /// propagation leg. Models the OS-scheduling noise of a software
    /// testbed (the paper's Mininet); breaks drop-phase synchronisation
    /// between flows and makes distinct seeds produce distinct runs.
    pub fn set_forward_jitter(&mut self, jitter: SimDuration) {
        self.forward_jitter = jitter;
    }

    /// Attach an agent to `node`, starting at `start`. One agent per node.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>, start: SimTime) -> AgentId {
        assert!((node.0 as usize) < self.topo.node_count(), "unknown node");
        assert!(
            self.node_agent[node.0 as usize].is_none(),
            "node {node:?} already has an agent"
        );
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(agent));
        self.agent_node.push(node);
        self.timer_keys.push(Vec::new());
        self.push_agent_tables(id);
        self.node_agent[node.0 as usize] = Some(id);
        self.events.push_keyed(
            start,
            order::pack(order::CLASS_START, id.0 as u64, 0),
            Event::StartAgent(id),
        );
        id
    }

    /// Derive agent `id`'s RNG stream and packet-id namespace (shared by
    /// `add_agent` and region construction, which must agree exactly).
    fn push_agent_tables(&mut self, id: AgentId) {
        self.agent_rngs
            .push(Xoshiro256StarStar::new(SplitMix64::derive(
                self.seed,
                STREAM_AGENT | id.0 as u64,
            )));
        self.agent_packet_seq.push((id.0 as u64) << PACKET_ID_SHIFT);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Routing tables (immutable during the run).
    pub fn routing(&self) -> &RoutingTables {
        &self.routing
    }

    /// Simulation-wide counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Counters for one direction of a link.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> &LinkDirStats {
        &self.link_stats[link.0 as usize][dir.index()] // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
    }

    /// Mutable counters for one direction of a link — the single indexing
    /// site for all per-link stat updates (`link` comes from the topology,
    /// so the bound holds by construction).
    fn dir_stats(&mut self, link: LinkId, dir: Dir) -> &mut LinkDirStats {
        &mut self.link_stats[link.0 as usize][dir.index()] // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
    }

    /// Park a propagating packet in the wire pool, returning its slot.
    fn wire_put(&mut self, pkt: Packet) -> u32 {
        if let Some(i) = self.wire_free.pop() {
            if let Some(slot) = self.wire_pool.get_mut(i as usize) {
                *slot = Some(pkt);
                return i;
            }
        }
        let i = wire_slot_index(self.wire_pool.len());
        self.wire_pool.push(Some(pkt));
        i
    }

    /// Retrieve a propagating packet by slot, vacating it for reuse.
    fn wire_take(&mut self, i: u32) -> Packet {
        let pkt = self
            .wire_pool
            .get_mut(i as usize)
            .and_then(Option::take)
            // simlint: allow(unwrap, reason = "an Arrive event's slot is filled at push and vacated exactly once, here")
            .expect("arrival references a vacant wire slot");
        self.wire_free.push(i);
        pkt
    }

    /// Capture records buffered so far: the default [`CaptureBuffer`]'s
    /// contents, or empty while another sink is installed.
    pub fn captures(&self) -> &[CaptureRecord] {
        self.sink
            .as_any()
            .downcast_ref::<CaptureBuffer>()
            .map_or(&[], |buffer| &buffer.0)
    }

    /// Packets currently inside the network.
    pub fn packets_in_flight(&self) -> u64 {
        // simlint: allow(unwrap, reason = "a negative global in-flight count is a conservation bug; fail loudly")
        u64::try_from(self.in_flight).expect("negative in-flight packet count")
    }

    /// Events scheduled over the run and not cancelled (the live share).
    pub fn events_scheduled(&self) -> u64 {
        let n = self.events.total_pushed() as i64 + self.extra_scheduled;
        debug_assert!(n >= 0, "negative scheduled-event count after merge");
        n.max(0) as u64
    }

    /// Events cancelled before firing — the dead-event count the old lazy
    /// timer guards would have popped and ignored.
    pub fn events_cancelled(&self) -> u64 {
        self.events.total_cancelled() + self.extra_cancelled
    }

    /// Swap the event queue for the original binary-heap reference backend
    /// (differential testing / benchmarking). Must be called before any
    /// agents or faults are scheduled.
    #[cfg(feature = "ref-heap")]
    pub fn use_reference_heap(&mut self) {
        assert!(
            self.events.is_empty(),
            "backend switch after events were scheduled"
        );
        self.events = EventQueue::new_reference_heap();
    }

    /// Borrow an agent back out of the simulator (after a run) to inspect
    /// endpoint state. Panics if the id is stale.
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        self.agents[id.0 as usize]
            .as_deref()
            .expect("agent is being dispatched") // simlint: allow(unwrap, reason = "documented API contract: stale AgentId is a caller bug")
    }

    /// Capture the complete deterministic state of this simulator as a
    /// [`SimSnapshot`] that [`Simulator::restore`] can branch from.
    ///
    /// The snapshot is a deep copy: the event queue (pending entries,
    /// cancellation-token table, and lifetime push/cancel counters), every
    /// agent (via [`Agent::clone_boxed`]), per-entity RNG streams, link
    /// transmitters and queues, the wire pool, the capture sink's state
    /// (via [`CaptureSink::clone_boxed`]), and all statistics. Because the
    /// execution is a pure function of that state (see the module docs on
    /// schedule-independent ordering), a restored simulator replays the
    /// identical event sequence — trace hashes of a branched continuation
    /// match a cold run byte-for-byte.
    ///
    /// Only the serial path can checkpoint: panics if this simulator is a
    /// region of a partitioned run (checkpoint before `run_parallel`, or
    /// use the serial engine for the prefix).
    pub fn checkpoint(&self) -> SimSnapshot {
        assert!(
            self.node_region.is_none() && self.outbox.iter().all(Vec::is_empty),
            "checkpoint of a partitioned region is not supported"
        );
        SimSnapshot {
            version: SNAPSHOT_VERSION,
            sim: self.deep_clone(),
        }
    }

    /// Reconstruct an independent simulator from a snapshot. The snapshot
    /// is reusable: each call yields a fresh branch that evolves on its
    /// own (schedule different faults on each and compare).
    pub fn restore(snapshot: &SimSnapshot) -> Simulator {
        assert_eq!(
            snapshot.version, SNAPSHOT_VERSION,
            "snapshot version mismatch: cannot restore v{} with a v{SNAPSHOT_VERSION} engine",
            snapshot.version
        );
        snapshot.sim.deep_clone()
    }

    /// The deep copy backing [`Simulator::checkpoint`]/[`Simulator::restore`].
    fn deep_clone(&self) -> Simulator {
        let agents = self
            .agents
            .iter()
            .map(|slot| {
                // Between events every slot is occupied; a vacant slot means
                // we are inside a dispatch, where checkpointing is unsound.
                // simlint: allow(unwrap, reason = "checkpoint mid-dispatch would lose the dispatched agent; fail loudly")
                let agent = slot.as_deref().expect("checkpoint during agent dispatch");
                Some(agent.clone_boxed())
            })
            .collect();
        Simulator {
            topo: self.topo.clone(),
            routing: self.routing.clone(),
            links: self.links.clone(),
            agents,
            agent_node: self.agent_node.clone(),
            node_agent: self.node_agent.clone(),
            events: self.events.clone(),
            now: self.now,
            seed: self.seed,
            agent_rngs: self.agent_rngs.clone(),
            dir_rngs: self.dir_rngs.clone(),
            agent_packet_seq: self.agent_packet_seq.clone(),
            arrive_seq: self.arrive_seq.clone(),
            fault_seq: self.fault_seq,
            capture_cfg: self.capture_cfg.clone(),
            sink: self.sink.clone_boxed(),
            region_captures: Vec::new(),
            cur_key: self.cur_key,
            cur_sub: self.cur_sub,
            stats: self.stats,
            link_stats: self.link_stats.clone(),
            in_flight: self.in_flight,
            timer_keys: self.timer_keys.clone(),
            wire_pool: self.wire_pool.clone(),
            wire_free: self.wire_free.clone(),
            // Scratch buffers are always empty between events.
            effect_bufs: Vec::new(),
            forward_jitter: self.forward_jitter,
            extra_scheduled: self.extra_scheduled,
            extra_cancelled: self.extra_cancelled,
            region: self.region,
            node_region: None,
            outbox: Vec::new(),
        }
    }

    /// Schedule an administrative link failure (both directions). Packets
    /// queued or in serialization are lost; packets already propagating
    /// deliver (they have left the interface).
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.schedule_fault(at, FaultAction::LinkDown(link));
    }

    /// Schedule a link recovery.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.schedule_fault(at, FaultAction::LinkUp(link));
    }

    /// Schedule one fault action. Validated eagerly so a bad schedule fails
    /// at install time, not minutes into a run.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        let link = action.link();
        assert!((link.0 as usize) < self.links.len(), "unknown link");
        match &action {
            FaultAction::SetCapacity(_, cap) => {
                assert!(cap.as_bps() > 0, "zero-capacity fault");
            }
            FaultAction::SetLoss(_, rate) => {
                assert!((0.0..=1.0).contains(rate), "loss rate in [0, 1]");
            }
            _ => {}
        }
        let key = order::pack(order::CLASS_FAULT, 0, self.fault_seq);
        self.fault_seq += 1;
        self.events
            .push_keyed(at, key, Event::Fault(Box::new(action)));
    }

    /// Install every entry of a [`FaultSchedule`] as simulator events.
    /// Entries interleave with packet events under the canonical
    /// `(time, key)` order of the event queue — faults apply before any
    /// packet event at the same instant, in install order — so a faulted
    /// run is a pure function of (topology, agents, schedule, seed).
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        for (at, action) in schedule.entries() {
            self.schedule_fault(*at, action.clone());
        }
    }

    /// Is the link administratively up?
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0 as usize].up
    }

    /// Run until the event queue is exhausted or `deadline` is reached.
    /// Events exactly at the deadline are processed; the clock never
    /// advances past it.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.check_conservation();
    }

    /// Run until no events remain (terminating workloads only).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
        self.check_conservation();
    }

    /// Packet conservation (`check` feature): everything sent must be
    /// delivered, dropped, unroutable, or still sitting in a queue / on a
    /// wire. A mismatch means the forwarding plane lost or duplicated a
    /// packet without accounting for it.
    #[cfg(feature = "check")]
    fn check_conservation(&self) {
        assert!(
            self.in_flight >= 0 && self.stats.conserved(self.in_flight as u64),
            "packet conservation violated: sent={} delivered={} dropped={} unroutable={} in_flight={}",
            self.stats.packets_sent,
            self.stats.packets_delivered,
            self.stats.packets_dropped,
            self.stats.packets_unroutable,
            self.in_flight,
        );
    }

    #[cfg(not(feature = "check"))]
    fn check_conservation(&self) {}

    /// Process a single event. Returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        // Event-time monotonicity: a hard assert under the `check` feature
        // (a backwards clock silently corrupts every downstream series),
        // a debug assert otherwise.
        #[cfg(feature = "check")]
        assert!(
            ev.time >= self.now,
            "time went backwards: event at {} < now {}",
            ev.time,
            self.now
        );
        #[cfg(not(feature = "check"))]
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        // The popped seq is the event's canonical key; stamp any capture
        // records this event emits with it.
        self.cur_key = ev.seq;
        self.cur_sub = 0;
        self.stats.events += 1;
        match ev.event {
            Event::StartAgent(id) => self.dispatch(id, AgentCall::Start),
            Event::Timer { agent, token } => {
                // Replacement semantics guarantee at most one live event per
                // (agent, token); popping it retires the table entry.
                if let Some(keys) = self.timer_keys.get_mut(agent.0 as usize) {
                    if let Some(i) = keys.iter().position(|&(t, _)| t == token) {
                        keys.swap_remove(i);
                    }
                }
                self.stats.timers_fired += 1;
                self.dispatch(agent, AgentCall::Timer(token));
            }
            Event::TxDone { link, dir, epoch } => self.on_tx_done(link, dir, epoch),
            Event::Arrive {
                link,
                dir,
                wire_slot,
            } => {
                let pkt = self.wire_take(wire_slot);
                let spec = self.topo.link(link);
                let node = match dir {
                    Dir::AtoB => spec.b,
                    Dir::BtoA => spec.a,
                };
                self.handle_packet_at(node, pkt);
            }
            Event::Fault(action) => self.apply_fault(*action),
        }
        true
    }

    /// Apply one fault action to the live network (see [`crate::faults`]
    /// for the semantics of each variant).
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown(link) => self.on_link_down(link),
            FaultAction::LinkUp(link) => self.links[link.0 as usize].up = true,
            FaultAction::SetCapacity(link, cap) => self.topo.set_link_capacity(link, cap),
            FaultAction::SetDelay(link, delay) => self.topo.set_link_delay(link, delay),
            FaultAction::SetLoss(link, rate) => self.topo.set_link_loss(link, rate),
            FaultAction::SetQueue(link, cfg) => {
                self.topo.set_link_queue(link, cfg);
                // Rebuild both directions' queues: re-offer the buffered
                // packets to the new queue in FIFO order; packets the new
                // (possibly smaller) queue refuses are accounted as drops,
                // as are head-drops surfaced while draining the old AQM.
                for dir in [Dir::AtoB, Dir::BtoA] {
                    let state = &mut self.links[link.0 as usize].dirs[dir.index()];
                    let mut old = std::mem::replace(&mut state.queue, cfg.build());
                    let mut lost_bytes: Vec<u32> = Vec::new();
                    loop {
                        let deq = old.dequeue(self.now);
                        let had_any = deq.pkt.is_some() || !deq.dropped.is_empty();
                        lost_bytes.extend(deq.dropped.iter().map(|p| p.wire_size()));
                        if let Some(pkt) = deq.pkt {
                            let size = pkt.wire_size();
                            let state = &mut self.links[link.0 as usize].dirs[dir.index()];
                            let rng = &mut self.dir_rngs[link.0 as usize][dir.index()];
                            if let EnqueueResult::Dropped(_) =
                                state.queue.enqueue(self.now, pkt, rng)
                            {
                                lost_bytes.push(size);
                            }
                        }
                        if !had_any {
                            break;
                        }
                    }
                    for size in lost_bytes {
                        self.stats.packets_dropped += 1;
                        self.in_flight -= 1;
                        self.dir_stats(link, dir).on_drop(size);
                    }
                }
            }
        }
    }

    fn on_link_down(&mut self, link: LinkId) {
        let mut lost_sizes: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        {
            let rt = &mut self.links[link.0 as usize];
            rt.up = false;
            for (state, sizes) in rt.dirs.iter_mut().zip(lost_sizes.iter_mut()) {
                // The packet being serialized is lost on the wire. Bump the
                // epoch so the pending TxDone for the aborted serialization
                // is recognized as stale even if a fresh transmission starts
                // on this direction before it fires.
                if let Some((pkt, _tx_time)) = state.transmitting.take() {
                    state.epoch += 1;
                    sizes.push(pkt.wire_size());
                }
                // Buffered packets are lost with the interface.
                loop {
                    let deq = state.queue.dequeue(self.now);
                    let mut lost = deq.dropped;
                    if let Some(p) = deq.pkt {
                        lost.push(p);
                    }
                    if lost.is_empty() {
                        break;
                    }
                    sizes.extend(lost.iter().map(Packet::wire_size));
                }
            }
        }
        for (dir, sizes) in [Dir::AtoB, Dir::BtoA].into_iter().zip(lost_sizes) {
            for size in sizes {
                self.stats.packets_dropped += 1;
                self.in_flight -= 1;
                self.dir_stats(link, dir).on_drop(size);
            }
        }
        // A stale TxDone for the dropped transmission may still fire; it
        // carries the pre-abort epoch and is ignored (see on_tx_done).
    }

    // ---- internals ----

    fn dispatch(&mut self, id: AgentId, call: AgentCall) {
        let mut agent = self.agents[id.0 as usize]
            .take()
            .expect("re-entrant agent dispatch"); // simlint: allow(unwrap, reason = "slot is only vacated inside this non-reentrant fn")
        let node = self.agent_node[id.0 as usize];
        // Recycle an effect buffer: dispatch recurses through apply_effects
        // (Send → handle_packet_at → dispatch), so each nesting depth holds
        // its own buffer; steady state allocates none.
        let mut effects = self.effect_bufs.pop().unwrap_or_default();
        {
            let mut ctx = Ctx::new(
                self.now,
                node,
                id,
                &mut self.agent_rngs[id.0 as usize],
                &mut effects,
                &mut self.agent_packet_seq[id.0 as usize],
            );
            match call {
                AgentCall::Start => agent.on_start(&mut ctx),
                AgentCall::Timer(token) => agent.on_timer(&mut ctx, token),
                AgentCall::Packet(pkt) => agent.on_packet(&mut ctx, pkt),
            }
        }
        self.agents[id.0 as usize] = Some(agent);
        self.apply_effects(node, &mut effects);
        debug_assert!(effects.is_empty());
        self.effect_bufs.push(effects);
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send(pkt) => {
                    self.stats.packets_sent += 1;
                    self.in_flight += 1;
                    self.record(node, CaptureKind::Sent, None, &pkt);
                    self.handle_packet_at(node, pkt);
                }
                Effect::SetTimer { at, token } => {
                    // simlint: allow(unwrap, reason = "effects originate from an agent installed at this node")
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    // `order::pack` rejects tokens over 2^36; agents use
                    // small enumerations plus per-subflow offsets well
                    // below that.
                    let key = order::pack(order::CLASS_TIMER, agent.0 as u64, token);
                    let cancel =
                        self.events
                            .push_keyed_cancellable(at, key, Event::Timer { agent, token });
                    // Re-arming replaces: revoke the superseded deadline so
                    // it can never fire stale.
                    let old = self
                        .timer_keys
                        .get_mut(agent.0 as usize)
                        .and_then(|keys| match keys.iter_mut().find(|(t, _)| *t == token) {
                            Some(entry) => Some(std::mem::replace(&mut entry.1, cancel)),
                            None => {
                                keys.push((token, cancel));
                                None
                            }
                        });
                    if let Some(old) = old {
                        if self.events.cancel(old) {
                            self.stats.timers_cancelled += 1;
                        }
                    }
                }
                Effect::CancelTimer { token } => {
                    // simlint: allow(unwrap, reason = "effects originate from an agent installed at this node")
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    let old = self.timer_keys.get_mut(agent.0 as usize).and_then(|keys| {
                        let i = keys.iter().position(|&(t, _)| t == token)?;
                        Some(keys.swap_remove(i).1)
                    });
                    if let Some(old) = old {
                        if self.events.cancel(old) {
                            self.stats.timers_cancelled += 1;
                        }
                    }
                }
            }
        }
    }

    /// A packet is present at `node`: deliver or forward.
    fn handle_packet_at(&mut self, node: NodeId, pkt: Packet) {
        if pkt.dst == node {
            if let Some(agent) = self.node_agent[node.0 as usize] {
                self.stats.packets_delivered += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Delivered, None, &pkt);
                self.dispatch(agent, AgentCall::Packet(pkt));
            } else {
                // Destination host has no stack; treat as unroutable.
                self.stats.packets_unroutable += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Unroutable, None, &pkt);
            }
            return;
        }
        match self.routing.fib(node).route(&pkt) {
            Some(out_link) => {
                self.record(node, CaptureKind::Forwarded, Some(out_link), &pkt);
                self.transmit_or_enqueue(node, out_link, pkt);
            }
            None => {
                self.stats.packets_unroutable += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Unroutable, None, &pkt);
            }
        }
    }

    /// Offer `pkt` to `link`'s transmitter in the direction leaving `from`.
    fn transmit_or_enqueue(&mut self, from: NodeId, link: LinkId, pkt: Packet) {
        let spec = self.topo.link(link);
        let dir = if from == spec.a { Dir::AtoB } else { Dir::BtoA };
        debug_assert!(spec.touches(from), "forwarding onto a detached link");
        let capacity = spec.capacity;
        if !self.links[link.0 as usize].up {
            // Interface down: the packet is lost at this hop.
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(pkt.wire_size());
            if self.capture_cfg.wants(from, CaptureKind::Dropped) {
                self.record_meta(from, CaptureKind::Dropped, Some(link), pkt.meta());
            }
            return;
        }
        let state = &mut self.links[link.0 as usize].dirs[dir.index()];

        if !state.is_busy() {
            let tx_time = capacity.tx_time(pkt.wire_size() as u64);
            let epoch = state.epoch;
            state.transmitting = Some((pkt, tx_time));
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        } else {
            let meta = pkt.meta();
            let rng = &mut self.dir_rngs[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            match state.queue.enqueue(self.now, pkt, rng) {
                EnqueueResult::Queued => {
                    let (p, b) = (state.queue.len_packets(), state.queue.len_bytes());
                    self.dir_stats(link, dir).observe_queue(p, b);
                }
                EnqueueResult::Dropped(_) => {
                    self.stats.packets_dropped += 1;
                    self.in_flight -= 1;
                    self.dir_stats(link, dir).on_drop(meta.wire_size);
                    if self.capture_cfg.wants(from, CaptureKind::Dropped) {
                        self.record_meta(from, CaptureKind::Dropped, Some(link), meta);
                    }
                }
            }
        }
    }

    /// Schedule a serialization-complete event with its canonical key.
    fn push_tx_done(&mut self, link: LinkId, dir: Dir, epoch: u64, at: SimTime) {
        let key = order::pack(order::CLASS_TX_DONE, order::dir_entity(link, dir), epoch);
        self.events
            .push_keyed(at, key, Event::TxDone { link, dir, epoch });
    }

    fn on_tx_done(&mut self, link: LinkId, dir: Dir, epoch: u64) {
        let spec = self.topo.link(link);
        let delay = spec.delay;
        let capacity = spec.capacity;
        let loss_rate = spec.loss_rate;
        let far_end = match dir {
            Dir::AtoB => spec.b,
            Dir::BtoA => spec.a,
        };
        let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
                                                                        // A link-down event may have aborted the serialization this event
                                                                        // belongs to: the abort bumped the direction's epoch, so a stale
                                                                        // event (old epoch, or no transmission at all) is ignored.
        if epoch != state.epoch {
            return;
        }
        let Some((pkt, tx_time)) = state.transmitting.take() else {
            return;
        };
        // `tx_time` was fixed when the serialization started; a capacity
        // fault mid-transmission does not retroactively change it.
        self.dir_stats(link, dir).on_tx(pkt.wire_size(), tx_time);
        let rng = &mut self.dir_rngs[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
                                                                    // Wireless-style random corruption loss (after serialization).
        let corrupted = loss_rate > 0.0 && rng.chance(loss_rate);
        let jitter = if self.forward_jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.next_below(self.forward_jitter.as_nanos() + 1))
        };
        if corrupted {
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(pkt.wire_size());
        } else {
            let seq = &mut self.arrive_seq[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            let key = order::pack(order::CLASS_ARRIVE, order::dir_entity(link, dir), *seq);
            *seq += 1;
            let at = self.now + delay + jitter;
            match self.peer_region(far_end) {
                None => {
                    let wire_slot = self.wire_put(pkt);
                    self.events.push_keyed(
                        at,
                        key,
                        Event::Arrive {
                            link,
                            dir,
                            wire_slot,
                        },
                    );
                }
                // The far end lives in another region: hand the arrival
                // off; it lands in the owner's queue under the same
                // (time, key) it would have had here.
                // simlint: allow(panic-surface, reason = "peer_region returns a region id below the partition's count, and the outbox has one slot per region")
                Some(peer) => self.outbox[peer as usize].push(parallel::RegionMsg::Arrive {
                    time: at,
                    key,
                    link,
                    dir,
                    pkt: Box::new(pkt),
                }),
            }
        }

        // Start the next packet, if any (the AQM may head-drop on the way).
        let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
        let deq = state.queue.dequeue(self.now);
        for dropped in deq.dropped {
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(dropped.wire_size());
        }
        if let Some(next) = deq.pkt {
            let tx_time = capacity.tx_time(next.wire_size() as u64);
            let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            let epoch = state.epoch;
            state.transmitting = Some((next, tx_time));
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        }
    }

    /// If `node` belongs to another region of a partitioned run, its
    /// region id; `None` when `node` is ours (always, on the serial path).
    fn peer_region(&self, node: NodeId) -> Option<u32> {
        let map = self.node_region.as_ref()?;
        let r = map[node.0 as usize]; // simlint: allow(panic-surface, reason = "the region map is built with one entry per topology node")
        (r != self.region).then_some(r)
    }

    fn record(&mut self, node: NodeId, kind: CaptureKind, link: Option<LinkId>, pkt: &Packet) {
        if self.capture_cfg.wants(node, kind) {
            self.record_meta(node, kind, link, pkt.meta());
        }
    }

    /// Emit one capture record to the sink. A region of a partitioned run
    /// keeps it instead, stamped with its canonical position (see
    /// [`CaptureStamp`]), so the merge can restore exact serial order
    /// before the parent's sink sees anything.
    fn record_meta(
        &mut self,
        node: NodeId,
        kind: CaptureKind,
        link: Option<LinkId>,
        pkt: PacketMeta,
    ) {
        let rec = CaptureRecord {
            time: self.now,
            node,
            kind,
            link,
            pkt,
        };
        if self.node_region.is_some() {
            self.region_captures
                .push(((rec.time, self.cur_key, self.cur_sub), rec));
            self.cur_sub += 1;
        } else {
            self.sink.record(&rec);
        }
    }
}

/// Snapshot format version. Bumped whenever the captured state set changes
/// meaning (restore refuses a mismatched snapshot rather than silently
/// resuming from partial state). v2: a snapshot holds the capture sink's
/// state instead of the record history when a sink is installed. v3: the
/// sink is the only capture state (the record buffer is itself a sink).
pub const SNAPSHOT_VERSION: u32 = 3;

/// A versioned, self-contained copy of a simulator's full deterministic
/// state at one instant, produced by [`Simulator::checkpoint`].
///
/// The common prefix of a family of runs (e.g. the 0–4 s warm-up before a
/// fault study's first fault) is simulated once, checkpointed, and each
/// variant branches from the snapshot via [`Simulator::restore`] — with
/// byte-identical results to running each variant cold from t=0.
pub struct SimSnapshot {
    version: u32,
    sim: Simulator,
}

impl SimSnapshot {
    /// The format version this snapshot was captured with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Simulated time at which the snapshot was taken.
    pub fn time(&self) -> SimTime {
        self.sim.now
    }
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("version", &self.version)
            .field("time", &self.sim.now)
            .field("agents", &self.sim.agents.len())
            .finish()
    }
}

/// Internal dispatch selector.
enum AgentCall {
    Start,
    Timer(u64),
    Packet(Packet),
}

/// The wire-pool slot index for a pool currently `len` entries long.
/// Overflowing `u32` would alias two live slots and silently cross-deliver
/// packets, so it is a hard error, not a saturation.
fn wire_slot_index(len: usize) -> u32 {
    // simlint: allow(unwrap, reason = "aliasing wire slots corrupts the run; fail loudly at the 2^32 boundary")
    u32::try_from(len).expect("wire pool exceeded u32::MAX slots")
}

#[cfg(test)]
mod wire_pool_tests {
    use super::wire_slot_index;

    #[test]
    fn slot_index_is_exact_below_the_boundary() {
        assert_eq!(wire_slot_index(0), 0);
        assert_eq!(wire_slot_index(123), 123);
        assert_eq!(wire_slot_index(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "wire pool exceeded u32::MAX slots")]
    fn slot_index_overflow_is_a_hard_error() {
        let _ = wire_slot_index(u32::MAX as usize + 1);
    }
}
