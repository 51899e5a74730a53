//! Conservative parallel execution: shard one simulation across regions.
//!
//! [`Simulator::run_parallel`] partitions the topology into regions (see
//! [`crate::partition`]), runs each region on its own thread with its own
//! event queue, and synchronizes them with the classic conservative
//! (Chandy–Misra–Bryant style) argument:
//!
//! * Every cut link has a *delay floor* — the minimum propagation delay it
//!   can take over the whole run (its static delay, lowered by any
//!   scheduled `SetDelay` fault). The **lookahead** `L` is the minimum
//!   floor over all cut links.
//! * A packet crossing a cut leaves its sender at some time `t` and arrives
//!   no earlier than `t + L`. So while a region executes events inside the
//!   window `[kL, (k+1)L)`, any arrival it *produces* for a peer lands at
//!   `(k+1)L` or later — never inside the peer's current window.
//! * Regions therefore run windows in lock-step: execute window `k`, flush
//!   cross-region arrivals, broadcast `Horizon(k)`, and only then may any
//!   region enter window `k+1` (after draining every peer's channel up to
//!   `Horizon(k)`). When a region starts window `k+1` it has provably
//!   received every event that can occur before `(k+2)L`.
//!
//! Determinism does not come from the protocol alone — channels deliver
//! arrivals in real-time-dependent interleavings. It comes from the
//! *canonical event keys* (see [`super::order`]): a handed-off arrival is
//! enqueued under the exact `(time, key)` it would have had in a serial
//! run, and the per-entity RNG streams make every draw independent of
//! execution order. The merged run is byte-identical to the serial one.
//!
//! A parallel run consumes the schedule: events still pending at the
//! deadline remain parked in the (discarded) region queues, so the
//! simulator cannot be stepped further afterwards. All end-of-run
//! accounting (stats, captures, link state, agent state) is merged back
//! exactly — captures in serial order, into the parent's sink.

use super::{Event, Simulator};
use crate::agent::AgentId;
use crate::faults::FaultAction;
use crate::packet::{Dir, LinkId, Packet};
use crate::partition::{partition_from_map, partition_topology, static_delay_floors, Partition};
use simbase::{ScheduledEvent, SimDuration, SimTime};
use std::sync::mpsc;

/// A message from one region to another.
#[derive(Debug)]
pub(crate) enum RegionMsg {
    /// A packet finished serializing on a cut link and will arrive at a
    /// node the receiving region owns. `key` is the arrival's canonical
    /// key, computed by the sender (it owns the direction's arrival
    /// counter), so the receiver enqueues it under the exact `(time, key)`
    /// a serial run would have used.
    Arrive {
        time: SimTime,
        key: u64,
        link: LinkId,
        dir: Dir,
        pkt: Box<Packet>,
    },
    /// The sender finished window `k` and flushed every arrival it will
    /// ever produce for windows `≤ k + 1`.
    Horizon(u64),
}

impl Simulator {
    /// Run until `deadline` across up to `regions` parallel regions,
    /// producing byte-identical results to [`Simulator::run_until`].
    ///
    /// The topology is partitioned by greedy min-cut over link delay
    /// floors; `regions <= 1` (or a topology that cannot be split with a
    /// non-zero lookahead) falls back to the serial path. Must be called
    /// on a pristine simulator — agents and faults installed, but nothing
    /// stepped yet.
    pub fn run_parallel(&mut self, deadline: SimTime, regions: usize) {
        if regions <= 1 {
            self.run_until(deadline);
            return;
        }
        let (drained, floors) = self.begin_parallel();
        let part = partition_topology(&self.topo, regions, &floors);
        self.run_partitioned(deadline, part, drained);
    }

    /// [`Simulator::run_parallel`] with an explicit node→region map
    /// instead of the greedy partitioner — for tests and experiments that
    /// force a particular cut (e.g. through a shared bottleneck).
    pub fn run_parallel_with_map(&mut self, deadline: SimTime, node_region: &[u32]) {
        let (drained, floors) = self.begin_parallel();
        let part = partition_from_map(&self.topo, node_region, &floors);
        self.run_partitioned(deadline, part, drained);
    }

    /// Drain the pristine schedule and compute per-link delay floors
    /// (static delays lowered by any scheduled `SetDelay` fault).
    fn begin_parallel(&mut self) -> (Vec<ScheduledEvent<Event>>, Vec<SimDuration>) {
        // simlint: allow(panic-surface, reason = "documented precondition, checked before any event executes")
        assert!(
            self.node_region.is_none(),
            "simulator is already a region of a partitioned run"
        );
        // simlint: allow(panic-surface, reason = "documented precondition, checked before any event executes")
        assert!(
            self.now == SimTime::ZERO && self.stats.events == 0 && self.in_flight == 0,
            "run_parallel requires a pristine simulator: partition before stepping"
        );
        let mut drained = Vec::new();
        while let Some(ev) = self.events.pop() {
            drained.push(ev);
        }
        let mut floors = static_delay_floors(&self.topo);
        for ev in &drained {
            if let Event::Fault(action) = &ev.event {
                if let FaultAction::SetDelay(l, d) = **action {
                    if let Some(f) = floors.get_mut(l.0 as usize) {
                        *f = (*f).min(d);
                    }
                }
            }
        }
        (drained, floors)
    }

    /// Execute the partitioned run: build regions, distribute the
    /// schedule, run the window loop on scoped threads, merge back.
    fn run_partitioned(
        &mut self,
        deadline: SimTime,
        part: Partition,
        drained: Vec<ScheduledEvent<Event>>,
    ) {
        let r = part.regions as usize;
        if r <= 1 {
            // Nothing to shard: restore the schedule and run serially. The
            // re-pushes were already counted once by the original pushes.
            self.extra_scheduled -= drained.len() as i64;
            for ev in drained {
                self.events.push_keyed(ev.time, ev.seq, ev.event);
            }
            self.run_until(deadline);
            return;
        }
        let drained_count = drained.len() as u64;

        let mut sims: Vec<Simulator> = (0..part.regions)
            .map(|i| self.build_region(i, &part, r))
            .collect();
        for (i, (slot, &node)) in self.agents.iter_mut().zip(&self.agent_node).enumerate() {
            if let Some(agent) = slot.take() {
                let owner = part.region_of(node) as usize;
                sims[owner].agents[i] = Some(agent); // simlint: allow(panic-surface, reason = "region_of < part.regions and the region's agent tables mirror self's, both by construction")
            }
        }

        // Distribute the initial schedule. A fault on a cut link is
        // duplicated into both endpoint regions (each owns one direction of
        // the link and must see the mutation); the copies carry the same
        // canonical key, and the merge below un-double-counts them.
        let mut dup_pushed = 0u64;
        let mut dup_fired = 0u64;
        for ev in drained {
            match ev.event {
                Event::StartAgent(id) => {
                    let owner = part.region_of(self.agent_node[id.0 as usize]) as usize; // simlint: allow(panic-surface, reason = "AgentId was issued by add_agent, so the index is in range")
                    sims[owner] // simlint: allow(panic-surface, reason = "region_of is < part.regions by construction")
                        .events
                        .push_keyed(ev.time, ev.seq, Event::StartAgent(id));
                }
                Event::Fault(action) => {
                    let spec = self.topo.link(action.link());
                    let (ra, rb) = (
                        part.region_of(spec.a) as usize,
                        part.region_of(spec.b) as usize,
                    );
                    if rb != ra {
                        sims[rb] // simlint: allow(panic-surface, reason = "region_of is < part.regions by construction")
                            .events
                            .push_keyed(ev.time, ev.seq, Event::Fault(action.clone()));
                        dup_pushed += 1;
                        if ev.time <= deadline {
                            dup_fired += 1;
                        }
                    }
                    sims[ra] // simlint: allow(panic-surface, reason = "region_of is < part.regions by construction")
                        .events
                        .push_keyed(ev.time, ev.seq, Event::Fault(action));
                }
                other => panic!("pristine simulator held a runtime event: {other:?}"), // simlint: allow(panic-surface, reason = "reachable only through a corrupted pristine state; aborting beats simulating garbage")
            }
        }

        // Window schedule. `None` lookahead means the regions are
        // disconnected components: one unbounded window, no waiting.
        let window_ns = part.lookahead.map(|l| l.as_nanos()).unwrap_or(u64::MAX);
        debug_assert!(window_ns > 0, "partitioner admitted a zero lookahead");
        let windows = deadline.as_nanos() / window_ns + 1; // simlint: allow(panic-surface, reason = "the partitioner rejects zero lookahead, so window_ns >= 1")

        // One channel per ordered region pair: txs[i][j] sends i→j (None on
        // the diagonal), rxs[j] holds region j's receive ends.
        let mut rxs: Vec<Vec<mpsc::Receiver<RegionMsg>>> = (0..r).map(|_| Vec::new()).collect();
        let txs: Vec<Vec<Option<mpsc::Sender<RegionMsg>>>> = (0..r)
            .map(|i| {
                rxs.iter_mut()
                    .enumerate()
                    .map(|(j, peer_rxs)| {
                        (i != j).then(|| {
                            let (tx, rx) = mpsc::channel();
                            peer_rxs.push(rx);
                            tx
                        })
                    })
                    .collect()
            })
            .collect();

        let mut done: Vec<Simulator> = Vec::with_capacity(r);
        // simlint: allow(thread, reason = "regions are data-parallel over disjoint state; merge order below is fixed by region id, not completion order")
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(r);
            for ((mut sim, rx), tx) in sims.into_iter().zip(rxs).zip(txs) {
                // simlint: allow(thread, reason = "worker owns its region exclusively; cross-region effects travel only through the keyed channel protocol")
                handles.push(scope.spawn(move || {
                    sim.run_region(deadline, window_ns, windows, &rx, &tx);
                    sim
                }));
            }
            for handle in handles {
                // simlint: allow(unwrap, reason = "a panicked region already poisoned the run; re-raise instead of merging partial results")
                done.push(handle.join().expect("region worker panicked"));
            }
        });

        self.merge_regions(done, &part, drained_count, dup_pushed, dup_fired);
        self.now = deadline;
        self.check_conservation();
    }

    /// A region simulator: same topology, routing, seed, and derived
    /// tables as `self`, configured to hand cross-region arrivals off.
    fn build_region(&self, region: u32, part: &Partition, n_regions: usize) -> Simulator {
        let mut sim = Simulator::new(self.topo.clone(), self.routing.clone(), self.seed);
        for (i, &node) in (0u32..).zip(&self.agent_node) {
            sim.agents.push(None);
            sim.agent_node.push(node);
            sim.timer_keys.push(Vec::new());
            sim.push_agent_tables(AgentId(i));
        }
        sim.node_agent = self.node_agent.clone();
        sim.capture_cfg = self.capture_cfg.clone();
        sim.forward_jitter = self.forward_jitter;
        sim.region = region;
        sim.node_region = Some(part.node_region.clone());
        sim.outbox = (0..n_regions).map(|_| Vec::new()).collect();
        sim
    }

    /// The per-region worker loop: execute fixed windows of width
    /// `window_ns`, exchanging arrivals and horizons at each boundary.
    fn run_region(
        &mut self,
        deadline: SimTime,
        window_ns: u64,
        windows: u64,
        inbound: &[mpsc::Receiver<RegionMsg>],
        outbound: &[Option<mpsc::Sender<RegionMsg>>],
    ) {
        for k in 0..windows {
            if k > 0 {
                // Entering window k: every peer has flushed all arrivals
                // that can land before (k+1)·L.
                for rx in inbound {
                    self.drain_until(rx, k - 1);
                }
            }
            let end = (k as u128 + 1) * window_ns as u128;
            let bound = SimTime::from_nanos((end - 1).min(deadline.as_nanos() as u128) as u64);
            while let Some(t) = self.events.peek_time() {
                if t > bound {
                    break;
                }
                self.step();
            }
            self.flush_outbox(outbound, k);
        }
        // Final horizons: collect arrivals past the deadline so scheduling
        // accounts (and in-flight packets) match the serial run exactly.
        for rx in inbound {
            self.drain_until(rx, windows - 1);
        }
        self.now = self.now.max(deadline);
    }

    /// Receive from one peer until its `Horizon(horizon)` marker,
    /// enqueueing handed-off arrivals under their canonical keys.
    fn drain_until(&mut self, rx: &mpsc::Receiver<RegionMsg>, horizon: u64) {
        loop {
            // simlint: allow(unwrap, reason = "a hung-up peer means a worker died; propagate the panic rather than deadlock")
            match rx.recv().expect("peer region hung up mid-run") {
                RegionMsg::Arrive {
                    time,
                    key,
                    link,
                    dir,
                    pkt,
                } => {
                    let wire_slot = self.wire_put(*pkt);
                    self.events.push_keyed(
                        time,
                        key,
                        Event::Arrive {
                            link,
                            dir,
                            wire_slot,
                        },
                    );
                }
                RegionMsg::Horizon(k) => {
                    // simlint: allow(panic-surface, reason = "a skewed horizon is an unrecoverable protocol bug; aborting beats silently desynchronized regions")
                    assert_eq!(k, horizon, "horizon protocol out of step");
                    return;
                }
            }
        }
    }

    /// Send this window's cross-region arrivals, then the horizon marker.
    fn flush_outbox(&mut self, outbound: &[Option<mpsc::Sender<RegionMsg>>], k: u64) {
        for (tx, pending) in outbound.iter().zip(&mut self.outbox) {
            let Some(tx) = tx else { continue };
            for msg in pending.drain(..) {
                // simlint: allow(unwrap, reason = "a hung-up peer means a worker died; propagate the panic rather than lose the arrival silently")
                tx.send(msg).expect("peer region hung up mid-run");
            }
            let horizon = RegionMsg::Horizon(k);
            // simlint: allow(unwrap, reason = "a hung-up peer means a worker died; propagate the panic rather than stall the horizon protocol")
            tx.send(horizon).expect("peer region hung up mid-run");
        }
    }

    /// Fold the finished regions back into `self`, reproducing exactly the
    /// state a serial run would have left: stats and counters sum (minus
    /// duplicated fault copies), per-direction link state comes from the
    /// direction's owner, and captures interleave by their canonical
    /// `(time, event key, intra-event index)` stamps.
    fn merge_regions(
        &mut self,
        mut regions: Vec<Simulator>,
        part: &Partition,
        drained_count: u64,
        dup_pushed: u64,
        dup_fired: u64,
    ) {
        // Global counters.
        for sim in &regions {
            self.stats.events += sim.stats.events;
            self.stats.packets_sent += sim.stats.packets_sent;
            self.stats.packets_delivered += sim.stats.packets_delivered;
            self.stats.packets_dropped += sim.stats.packets_dropped;
            self.stats.packets_unroutable += sim.stats.packets_unroutable;
            self.stats.timers_fired += sim.stats.timers_fired;
            self.stats.timers_cancelled += sim.stats.timers_cancelled;
            self.in_flight += sim.in_flight;
        }
        self.stats.events -= dup_fired;
        let pushed: u64 = regions.iter().map(|s| s.events.total_pushed()).sum();
        self.extra_scheduled += pushed as i64 - dup_pushed as i64 - drained_count as i64;
        self.extra_cancelled += regions
            .iter()
            .map(|s| s.events.total_cancelled())
            .sum::<u64>();

        // Agents and their derived tables return from their owner regions.
        for i in 0..self.agents.len() {
            let owner = part.region_of(self.agent_node[i]) as usize; // simlint: allow(panic-surface, reason = "agent tables are index-aligned: i < agents.len() == agent_node.len()")
            let sim = &mut regions[owner]; // simlint: allow(panic-surface, reason = "region_of < part.regions == regions.len() by construction")
            self.agents[i] = sim.agents[i].take(); // simlint: allow(panic-surface, reason = "every region's agent tables mirror self's, index for index")
            self.timer_keys[i] = std::mem::take(&mut sim.timer_keys[i]); // simlint: allow(panic-surface, reason = "every region's agent tables mirror self's, index for index")
            self.agent_rngs[i] = sim.agent_rngs[i].clone(); // simlint: allow(panic-surface, reason = "every region's agent tables mirror self's, index for index")
            self.agent_packet_seq[i] = sim.agent_packet_seq[i]; // simlint: allow(panic-surface, reason = "every region's agent tables mirror self's, index for index")
        }

        // Per-direction link state comes from the direction's owner: the
        // region of the transmitting node. Both endpoint regions track a
        // cut link's administrative state identically (they see the same
        // fault copies), so either copy of `up` serves.
        for l in self.topo.link_ids() {
            let spec = self.topo.link(l);
            let li = l.0 as usize;
            let owner = [
                part.region_of(spec.a) as usize, // transmits AtoB
                part.region_of(spec.b) as usize, // transmits BtoA
            ];
            for d in 0..2 {
                let sim = &mut regions[owner[d]]; // simlint: allow(panic-surface, reason = "d < 2 and region_of < regions.len() by construction")
                self.link_stats[li][d] = sim.link_stats[li][d]; // simlint: allow(panic-surface, reason = "link tables are sized to the topology and d < 2")
                std::mem::swap(&mut self.links[li].dirs[d], &mut sim.links[li].dirs[d]); // simlint: allow(panic-surface, reason = "link tables are sized to the topology and d < 2")
                self.dir_rngs[li][d] = sim.dir_rngs[li][d].clone(); // simlint: allow(panic-surface, reason = "link tables are sized to the topology and d < 2")
                self.arrive_seq[li][d] = sim.arrive_seq[li][d]; // simlint: allow(panic-surface, reason = "link tables are sized to the topology and d < 2")
            }
            self.links[li].up = regions[owner[0]].links[li].up; // simlint: allow(panic-surface, reason = "link tables are sized to the topology; owner has two entries")
        }
        // Fault mutations were applied to region topology copies; replay
        // the owners' view so post-run `topology()` inspection matches.
        for l in self.topo.link_ids() {
            let spec = regions[part.region_of(self.topo.link(l).a) as usize] // simlint: allow(panic-surface, reason = "region_of < part.regions == regions.len() by construction")
                .topo
                .link(l)
                .clone();
            self.topo.set_link_capacity(l, spec.capacity);
            self.topo.set_link_delay(l, spec.delay);
            self.topo.set_link_loss(l, spec.loss_rate);
            self.topo.set_link_queue(l, spec.queue);
        }

        // Captures merge into exact serial order by their stamps (a total
        // order) and go to the parent's sink, as a serial run would send them.
        let mut stamped: Vec<_> = regions
            .iter_mut()
            .flat_map(|sim| std::mem::take(&mut sim.region_captures))
            .collect();
        stamped.sort_unstable_by_key(|entry| entry.0);
        for (_, rec) in &stamped {
            self.sink.record(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::order;
    use crate::agent::{Agent, Ctx};
    use crate::capture::{CaptureBuffer, CaptureConfig, CaptureKind, CaptureRecord, CaptureSink};
    use crate::packet::{NodeId, Packet, Protocol, Tag};
    use crate::payload::Payload;
    use crate::queue::QueueConfig;
    use crate::routing::RoutingTables;
    use crate::sim::Simulator;
    use crate::topology::Topology;
    use simbase::{Bandwidth, SimDuration, SimTime};

    /// A pinger that sends one packet to `peer` every interval and echoes
    /// nothing — enough traffic to cross the cut in both directions.
    #[derive(Clone)]
    struct Pinger {
        peer: NodeId,
        interval: SimDuration,
        sent: u32,
        received: u32,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(self.interval, 1);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.send(self.peer, Tag(7), Protocol::Raw, Payload::empty(), 1000, 0);
            self.sent += 1;
            ctx.set_timer_after(self.interval, token);
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn clone_boxed(&self) -> Box<dyn Agent> {
            Box::new(self.clone())
        }
    }

    /// a — 1ms — b — 5ms — c — 1ms — d, pingers on a and d.
    fn build() -> Simulator {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("n{i}"))).collect();
        for (i, ms) in [1u64, 5, 1].iter().enumerate() {
            t.add_link(
                nodes[i],
                nodes[i + 1],
                Bandwidth::from_mbps(10),
                SimDuration::from_millis(*ms),
                QueueConfig::default(),
            );
        }
        let mut routing = RoutingTables::new(&t);
        routing.install_all_default_routes(&t);
        let mut sim = Simulator::new(t, routing, 42);
        sim.set_capture(CaptureConfig::everything());
        sim.add_agent(
            nodes[0],
            Box::new(Pinger {
                peer: nodes[3],
                interval: SimDuration::from_millis(3),
                sent: 0,
                received: 0,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            nodes[3],
            Box::new(Pinger {
                peer: nodes[0],
                interval: SimDuration::from_millis(4),
                sent: 0,
                received: 0,
            }),
            SimTime::ZERO,
        );
        sim
    }

    fn capture_fingerprint(sim: &Simulator) -> Vec<(SimTime, NodeId, CaptureKind, u64)> {
        sim.captures()
            .iter()
            .map(|r| (r.time, r.node, r.kind, r.pkt.id))
            .collect()
    }

    #[test]
    fn two_regions_match_serial_exactly() {
        let deadline = SimTime::from_millis(200);
        let mut serial = build();
        serial.run_until(deadline);
        let mut par = build();
        par.run_parallel_with_map(deadline, &[0, 0, 1, 1]);
        // The merge fed the default sink, the buffer `captures()` reads.
        assert!(par.capture_sink().as_any().is::<CaptureBuffer>());
        assert!(!par.captures().is_empty());
        assert_eq!(capture_fingerprint(&serial), capture_fingerprint(&par));
        assert_eq!(serial.stats().events, par.stats().events);
        assert_eq!(serial.stats().packets_sent, par.stats().packets_sent);
        assert_eq!(
            serial.stats().packets_delivered,
            par.stats().packets_delivered
        );
        assert_eq!(serial.events_scheduled(), par.events_scheduled());
        assert_eq!(serial.events_cancelled(), par.events_cancelled());
        assert_eq!(serial.packets_in_flight(), par.packets_in_flight());
    }

    #[test]
    fn greedy_partition_matches_serial() {
        let deadline = SimTime::from_millis(150);
        let mut serial = build();
        serial.run_until(deadline);
        let mut par = build();
        par.run_parallel(deadline, 2);
        assert_eq!(capture_fingerprint(&serial), capture_fingerprint(&par));
        assert_eq!(serial.stats().events, par.stats().events);
    }

    #[test]
    fn one_region_request_falls_back_to_serial() {
        let deadline = SimTime::from_millis(50);
        let mut serial = build();
        serial.run_until(deadline);
        let mut par = build();
        par.run_parallel(deadline, 1);
        assert_eq!(capture_fingerprint(&serial), capture_fingerprint(&par));
        assert_eq!(serial.events_scheduled(), par.events_scheduled());
    }

    #[test]
    fn faulted_cut_link_matches_serial() {
        let deadline = SimTime::from_millis(120);
        let mut serial = build();
        serial.schedule_link_down(crate::packet::LinkId(1), SimTime::from_millis(30));
        serial.schedule_link_up(crate::packet::LinkId(1), SimTime::from_millis(60));
        serial.run_until(deadline);
        let mut par = build();
        par.schedule_link_down(crate::packet::LinkId(1), SimTime::from_millis(30));
        par.schedule_link_up(crate::packet::LinkId(1), SimTime::from_millis(60));
        par.run_parallel_with_map(deadline, &[0, 0, 1, 1]);
        assert_eq!(capture_fingerprint(&serial), capture_fingerprint(&par));
        assert_eq!(serial.stats().events, par.stats().events);
        assert_eq!(serial.stats().packets_dropped, par.stats().packets_dropped);
        assert_eq!(
            serial.link_is_up(crate::packet::LinkId(1)),
            par.link_is_up(crate::packet::LinkId(1))
        );
    }

    /// A sink that keeps each record's fingerprint, to compare the online
    /// stream with the buffer.
    #[derive(Clone, Default)]
    struct Fingerprints(Vec<(SimTime, NodeId, CaptureKind, u64)>);

    impl CaptureSink for Fingerprints {
        fn record(&mut self, rec: &CaptureRecord) {
            self.0.push((rec.time, rec.node, rec.kind, rec.pkt.id));
        }
        fn clone_boxed(&self) -> Box<dyn CaptureSink> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn sink_fingerprint(sim: &Simulator) -> Vec<(SimTime, NodeId, CaptureKind, u64)> {
        let sink = sim.capture_sink();
        let prints = sink.as_any().downcast_ref::<Fingerprints>().unwrap();
        prints.0.clone()
    }

    fn build_with_sink() -> Simulator {
        let mut sim = build();
        sim.set_capture_sink(Box::new(Fingerprints::default()));
        sim
    }

    #[test]
    fn sink_sees_the_serial_buffer_and_buffers_nothing() {
        let deadline = SimTime::from_millis(200);
        let mut buffered = build();
        buffered.run_until(deadline);
        assert!(!buffered.captures().is_empty());
        // A serial run stamps no merge positions: nothing reads them.
        assert!(buffered.region_captures.is_empty());
        let mut streamed = build_with_sink();
        streamed.run_until(deadline);
        // `captures()` reads only the default buffer, which was replaced.
        assert!(streamed.captures().is_empty());
        assert_eq!(sink_fingerprint(&streamed), capture_fingerprint(&buffered));
    }

    #[test]
    fn region_merge_feeds_the_sink_in_serial_order() {
        let deadline = SimTime::from_millis(200);
        let mut serial = build();
        serial.run_until(deadline);
        let mut par = build_with_sink();
        par.schedule_link_down(crate::packet::LinkId(1), SimTime::from_millis(30));
        par.schedule_link_up(crate::packet::LinkId(1), SimTime::from_millis(60));
        par.run_parallel_with_map(deadline, &[0, 0, 1, 1]);
        assert!(par.captures().is_empty() && par.region_captures.is_empty());
        let mut faulted = build();
        faulted.schedule_link_down(crate::packet::LinkId(1), SimTime::from_millis(30));
        faulted.schedule_link_up(crate::packet::LinkId(1), SimTime::from_millis(60));
        faulted.run_until(deadline);
        assert_eq!(sink_fingerprint(&par), capture_fingerprint(&faulted));
        assert_ne!(sink_fingerprint(&par), capture_fingerprint(&serial));
    }

    #[test]
    fn checkpoint_carries_the_sink_state_not_a_history() {
        let (mid, end) = (SimTime::from_millis(80), SimTime::from_millis(200));
        let mut cold = build_with_sink();
        cold.run_until(end);
        let mut prefix = build_with_sink();
        prefix.run_until(mid);
        let snapshot = prefix.checkpoint();
        assert!(snapshot.sim.captures().is_empty());
        for _ in 0..2 {
            let mut branch = Simulator::restore(&snapshot);
            branch.run_until(end);
            assert_eq!(sink_fingerprint(&branch), sink_fingerprint(&cold));
        }
    }

    #[test]
    #[should_panic(expected = "cannot restore v2")]
    fn restore_rejects_a_v2_snapshot() {
        let snapshot = crate::sim::SimSnapshot {
            version: 2,
            sim: build(),
        };
        let _ = Simulator::restore(&snapshot);
    }

    #[test]
    #[should_panic(expected = "pristine")]
    fn parallel_after_stepping_is_rejected() {
        let mut sim = build();
        sim.run_until(SimTime::from_millis(10));
        sim.run_parallel(SimTime::from_millis(20), 2);
    }

    #[test]
    fn canonical_keys_are_disjoint_across_classes() {
        // A canonical key's class field dominates, so faults at an instant
        // precede starts, which precede packet events, which precede timers.
        let f = order::pack(order::CLASS_FAULT, 0, u64::MAX >> 28);
        let s = order::pack(order::CLASS_START, (1 << 25) - 1, 0);
        let x = order::pack(order::CLASS_TX_DONE, 0, 0);
        let a = order::pack(order::CLASS_ARRIVE, 0, 0);
        let t = order::pack(order::CLASS_TIMER, 0, 0);
        assert!(f < s && s < x && x < a && a < t);
    }
}
