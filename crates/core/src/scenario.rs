//! A runnable experiment scenario and its results.
//!
//! [`Scenario`] packages everything one measurement run needs — topology,
//! paths, congestion control, scheduler, duration, sampling — and
//! [`Scenario::run`] executes it: install tag routes (the paper's modified
//! ndiffports), attach the MPTCP endpoints, run the deterministic
//! simulation, sample the receiver-side capture per tag (the tshark step),
//! and fold in the LP ground truth.

use crate::collect::Collector;
use mptcpsim::{
    install_subflows, CcAlgo, MptcpConfig, MptcpReceiverAgent, MptcpSenderAgent, SchedulerKind,
};
use netsim::{
    AgentId, CaptureConfig, CbrSource, DatagramSink, FaultSchedule, NodeId, Path, RoutingTables,
    SimSnapshot, Simulator, Tag, Topology,
};
use simbase::Bandwidth;
use simbase::{SimDuration, SimTime};
use simtrace::{ConvergenceReport, SamplerConfig, TimeSeries};
use tcpsim::AppSource;

/// A complete experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network.
    pub topology: Topology,
    /// The MPTCP paths, in reporting order (`paths[i]` is "Path i+1").
    pub paths: Vec<Path>,
    /// Index of the default path: its subflow is created first, so the
    /// scheduler prefers it before RTT samples exist.
    pub default_path: usize,
    /// Congestion control configuration.
    pub algo: CcAlgo,
    /// Packet scheduler.
    pub scheduler: SchedulerKind,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Throughput sampling bin (paper: 10 ms or 100 ms).
    pub sample_bin: SimDuration,
    /// RNG seed (a run is a pure function of the scenario + seed).
    pub seed: u64,
    /// Application model.
    pub app: AppSource,
    /// SACK on subflows (on = the kernel the paper used; off = ablation).
    pub sack: bool,
    /// ECN on subflows (only meaningful with ECN-marking queues).
    pub ecn: bool,
    /// Convergence tolerance: within this fraction of the LP optimum.
    pub tolerance: f64,
    /// How long the rate must hold inside the band to count as converged.
    pub hold: SimDuration,
    /// Per-hop forwarding jitter (testbed kernel noise); breaks loss-phase
    /// synchronisation and gives each seed a distinct trajectory.
    pub forward_jitter: SimDuration,
    /// Open-loop CBR cross traffic injected alongside the MPTCP connection.
    pub background: Vec<CrossTraffic>,
    /// Timed network mutations applied during the run (empty = static
    /// topology). Installed into the simulator's event queue, so a faulted
    /// run is exactly as deterministic as an unfaulted one.
    pub faults: FaultSchedule,
    /// Event-queue backend. Results are engine-independent by contract
    /// (trace hashes must match; see `engine_diff` tests and `bench_sim`).
    pub engine: QueueEngine,
    /// Parallel regions to shard the simulation across (1 = serial, the
    /// default). Results are region-count-independent by contract: the
    /// conservative engine produces byte-identical traces for any count
    /// (see the `parallel_regions` tests and `bench_sim`).
    pub regions: usize,
    /// Explicit node→region map, overriding `regions` and the greedy
    /// partitioner — for experiments that force a particular cut (e.g.
    /// through a shared bottleneck). `None` (the default) partitions
    /// greedily when `regions > 1`.
    pub region_map: Option<Vec<u32>>,
}

/// Which event-queue backend executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueEngine {
    /// The hierarchical timing wheel — the production engine.
    #[default]
    Wheel,
    /// The original binary-heap reference, kept for differential testing
    /// and benchmarking (needs the `ref-heap` cargo feature).
    #[cfg(feature = "ref-heap")]
    RefHeap,
}

/// A constant-bit-rate background flow between two agent-free nodes.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    /// Source node (must not host another agent).
    pub from: NodeId,
    /// Destination node (must not host another agent).
    pub to: NodeId,
    /// Offered rate.
    pub rate: Bandwidth,
    /// Datagram payload size, bytes.
    pub packet_bytes: u32,
}

impl Scenario {
    /// A scenario over the given network with paper-like defaults:
    /// CUBIC, minRTT scheduler, unlimited source, 4 s at 100 ms bins.
    pub fn new(topology: Topology, paths: Vec<Path>) -> Self {
        Scenario {
            topology,
            paths,
            default_path: 0,
            algo: CcAlgo::Cubic,
            scheduler: SchedulerKind::MinRtt,
            duration: SimDuration::from_secs(4),
            sample_bin: SimDuration::from_millis(100),
            seed: 1,
            app: AppSource::Unlimited,
            sack: true,
            ecn: false,
            tolerance: 0.15,
            hold: SimDuration::from_secs(1),
            forward_jitter: SimDuration::from_micros(20),
            background: Vec::new(),
            faults: FaultSchedule::new(),
            engine: QueueEngine::default(),
            regions: 1,
            region_map: None,
        }
    }

    /// Builder-style override of the fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style override of the congestion-control algorithm.
    pub fn with_algo(mut self, algo: CcAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Builder-style override of the parallel region count.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions;
        self
    }

    /// Builder-style override of the node→region map (see
    /// [`Scenario::region_map`]).
    pub fn with_region_map(mut self, map: Vec<u32>) -> Self {
        self.region_map = Some(map);
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of duration and sampling bin.
    pub fn with_timing(mut self, duration: SimDuration, bin: SimDuration) -> Self {
        self.duration = duration;
        self.sample_bin = bin;
        self
    }

    /// Execute the scenario.
    pub fn run(&self) -> RunResult {
        self.run_with_lp_cache(None)
    }

    /// The canonical routing tag of path `i` (1-based: `Tag(0)` is NONE).
    fn path_tag(i: usize) -> Tag {
        Tag(1 + i as u16) // simlint: allow(truncating-cast, reason = "path counts are tiny (the paper uses three); u16 is not a real bound")
    }

    /// Execute the scenario, resolving the LP ground truth through `cache`
    /// when one is given. Sweeps over many (algo, seed, default-path) cells
    /// share one topology family, so the runner threads a shared
    /// [`lpsolve::LpCache`] through here and the hundreds of identical
    /// `lp_optimum` solves collapse to one. Results are identical with and
    /// without a cache (asserted by the runner test suite): the cache key
    /// pins every input of the solve.
    pub fn run_with_lp_cache(&self, lp_cache: Option<&lpsolve::LpCache>) -> RunResult {
        let lp = self.solve_lp(lp_cache);
        let (mut sim, ends) = self.build_sim();
        let end = SimTime::ZERO + self.duration;
        sim.run(end, self.regions, self.region_map.as_deref());
        self.collect(&sim, ends, lp)
    }

    /// Run the common prefix of a family of fault variants and snapshot it.
    ///
    /// The returned [`ScenarioCheckpoint`] replays the scenario up to `t`
    /// exactly once; [`ScenarioCheckpoint::branch_run`] then branches any
    /// number of fault schedules from the frozen state, each byte-identical
    /// (trace hash, counters, per-link stats) to a cold run of the same
    /// scenario with the same faults — see DESIGN.md §13 for why.
    ///
    /// The base scenario must not schedule faults of its own (branch faults
    /// carry the same queue keys a cold run would assign, which requires
    /// the prefix's fault counter to be untouched) and must be serial
    /// (`regions == 1`, no region map): partitioned regions cannot
    /// checkpoint.
    pub fn checkpoint_at(&self, t: SimTime) -> ScenarioCheckpoint {
        assert!(
            self.faults.is_empty(),
            "checkpoint base scenario must not schedule faults; pass them to branch_run"
        );
        assert!(
            self.regions == 1 && self.region_map.is_none(),
            "checkpointing requires the serial engine"
        );
        assert!(
            t <= SimTime::ZERO + self.duration,
            "checkpoint time {t} beyond scenario end"
        );
        let (mut sim, ends) = self.build_sim();
        sim.run(t, 1, None);
        ScenarioCheckpoint {
            scenario: self.clone(),
            snapshot: sim.checkpoint(),
            ends,
        }
    }

    /// Resolve the LP ground truth (through `cache` when one is given).
    fn solve_lp(&self, lp_cache: Option<&lpsolve::LpCache>) -> lpsolve::MaxThroughput {
        match lp_cache {
            Some(cache) => cache.solve(&self.topology, &self.paths),
            None => lpsolve::solve_max_throughput(&self.topology, &self.paths),
        }
    }

    /// Construct the simulator, routing, and endpoint agents — everything
    /// up to (but not including) running the event loop.
    pub(crate) fn build_sim(&self) -> (MptcpSim, Ends) {
        assert!(!self.paths.is_empty(), "need at least one path"); // simlint: allow(panic-surface, reason = "argument validation before the simulation starts")
                                                                   // simlint: allow(panic-surface, reason = "argument validation before the simulation starts")
        assert!(
            self.default_path < self.paths.len(),
            "default_path out of range"
        );
        let src = self.paths[0].src(); // simlint: allow(panic-surface, reason = "non-empty is asserted two lines up")
        let dst = mptcpsim::common_destination(&self.paths);

        // Routing: tag i+1 (`path_tag(i)`) pins path i, installed
        // bidirectionally. Subflows go in default-first order, each keeping
        // its path's canonical tag.
        let mut routing = RoutingTables::new(&self.topology);
        let mut subflows = install_subflows(&mut routing, &self.paths, 1, 5000);
        subflows.swap(0, self.default_path);
        for bg in &self.background {
            routing.install_default_routes_to(&self.topology, bg.to);
        }

        let collector = Collector::hash_only().with_sampler(&self.sampler_config());
        #[cfg(feature = "check")]
        let collector = collector.with_checks();
        let mut sim = MptcpSim::new(
            self.topology.clone(),
            routing,
            self.seed,
            self.engine,
            &[dst],
            collector,
        )
        .with_faults(&self.faults);
        sim.0.set_forward_jitter(self.forward_jitter);
        let mptcp_cfg = MptcpConfig {
            algo: self.algo,
            scheduler: self.scheduler,
            app: self.app,
            sack: self.sack,
            ecn: self.ecn,
            ..MptcpConfig::bulk(dst, subflows)
        };
        // Agent order is hashed (see `MptcpSim`): sender, cross traffic, receiver.
        let sender = sim.add_sender(src, mptcp_cfg, SimTime::ZERO);
        for bg in &self.background {
            assert!(
                bg.from != src && bg.from != dst,
                "cross traffic cannot share MPTCP hosts"
            );
            assert!(
                bg.to != src && bg.to != dst,
                "cross traffic cannot share MPTCP hosts"
            );
            let cbr = CbrSource::new(bg.to, Tag::NONE, bg.rate, bg.packet_bytes);
            sim.0.add_agent(bg.from, Box::new(cbr), SimTime::ZERO);
            sim.0
                .add_agent(bg.to, Box::new(DatagramSink::default()), SimTime::ZERO);
        }
        let receiver = sim.add_receiver(dst, self.sack);
        (sim, (sender, receiver))
    }

    /// The tshark step's configuration: bin receiver-side deliveries per
    /// tag over the run. Every registered tag is pre-seeded so a fully
    /// starved path still shows up as an (all-zero) series in per-path
    /// reports.
    pub(crate) fn sampler_config(&self) -> SamplerConfig {
        let dst = mptcpsim::common_destination(&self.paths);
        SamplerConfig::tshark_like(dst, self.sample_bin, SimTime::ZERO + self.duration)
            .with_tags((0..self.paths.len()).map(Self::path_tag))
    }

    /// Fold a finished simulation into a [`RunResult`] (the tshark step,
    /// convergence analysis, and endpoint-state extraction).
    fn collect(&self, sim: &MptcpSim, ends: Ends, lp: lpsolve::MaxThroughput) -> RunResult {
        let (sender, receiver) = ends;
        let end = SimTime::ZERO + self.duration;
        let collector = sim.collector();

        // Order-sensitive digest of the full capture stream: two runs of
        // the same scenario + seed must produce the same hash (the
        // double-run harness in [`crate::determinism`] relies on this).
        let trace_hash = collector.trace_hash();
        #[cfg(feature = "check")]
        {
            let violations = collector.violations();
            assert!(
                violations.is_empty(),
                "trace invariants violated:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }

        // tshark step: the per-tag series `build_sim` asked the collector
        // for (see `sampler_config`).
        let sampler = collector
            .sampler()
            // simlint: allow(unwrap, reason = "build_sim always installs a sampler")
            .expect("scenario collector samples");
        let per_path: Vec<TimeSeries> = (0..self.paths.len())
            .map(|i| {
                let tag = Self::path_tag(i);
                let mut s = sampler
                    .tag(tag)
                    // simlint: allow(unwrap, reason = "every path tag was pre-seeded into the sampler above")
                    .expect("pre-seeded tag series")
                    .clone();
                s.label = format!("Path {}", i + 1);
                s
            })
            .collect();
        let total = TimeSeries::sum_of("Total", &per_path.iter().collect::<Vec<_>>());
        // Sustained criterion: the (smoothed) total must stay inside the
        // band from the convergence point to the end of the measurement —
        // a slow-start overshoot that transits the band does not count.
        let smooth_bins = (self.hold.as_nanos() / self.sample_bin.as_nanos()).max(1) as usize;
        let min_tail = (2 * smooth_bins).max(4);
        let convergence = ConvergenceReport::analyze_sustained(
            &total,
            lp.total_mbps,
            self.tolerance,
            smooth_bins,
            min_tail,
        );

        // Steady-state per-path means over the post-convergence window (or
        // the final quarter if never converged).
        let steady_from = convergence
            .converged_at
            .unwrap_or(SimTime::ZERO + self.duration.mul_f64(0.75));
        let per_path_steady_mbps: Vec<f64> = per_path
            .iter()
            .map(|s| s.mean_over(steady_from, end))
            .collect();

        // Rates are bytes-over-time: negative or non-finite values can only
        // come from arithmetic bugs in the sampler, never from the network.
        #[cfg(feature = "check")]
        for s in &per_path {
            for (i, &v) in s.values().iter().enumerate() {
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{}: bin {i} has invalid rate {v} Mbps",
                    s.label
                );
            }
        }

        // Pull endpoint state out of the simulator for the record.
        let sender = sim.sender(sender);
        let subflow_stats: Vec<tcpsim::SenderStats> = (0..sender.subflow_count())
            .map(|i| *sender.subflow_sender(i).stats())
            .collect();
        let receiver = sim.receiver(receiver);

        RunResult {
            per_path,
            total,
            lp,
            convergence,
            per_path_steady_mbps,
            drops: sim.stats().packets_dropped,
            events: sim.stats().events,
            events_scheduled: sim.events_scheduled(),
            events_cancelled: sim.events_cancelled(),
            packets_delivered: sim.stats().packets_delivered,
            data_delivered: receiver.data_delivered(),
            duplicate_bytes: receiver.stats().duplicate_bytes,
            subflow_stats,
            trace_hash,
        }
    }
}

/// A scenario's two endpoints inside its [`MptcpSim`].
pub(crate) type Ends = (SenderId, ReceiverId);

/// The one way this crate builds, runs and reads back a simulation, for
/// [`Scenario`] and the worldgen runners ([`crate::worldexp`]) alike.
///
/// Each agent added takes the next [`AgentId`] and start-event key, and
/// both feed the trace hash: callers must never reorder their adds.
pub(crate) struct MptcpSim(Simulator);

/// The id of an agent [`MptcpSim::add_sender`] installed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SenderId(AgentId);

/// The id of an agent [`MptcpSim::add_receiver`] installed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReceiverId(AgentId);

impl MptcpSim {
    /// A simulator on `engine` that captures receiver-side events at every
    /// node of `capture_at` and folds them into `collector` as they happen
    /// (nothing is buffered).
    pub(crate) fn new(
        topology: Topology,
        routing: RoutingTables,
        seed: u64,
        engine: QueueEngine,
        capture_at: &[NodeId],
        collector: Collector,
    ) -> Self {
        let mut sim = Simulator::new(topology, routing, seed);
        match engine {
            QueueEngine::Wheel => {}
            #[cfg(feature = "ref-heap")]
            QueueEngine::RefHeap => sim.use_reference_heap(),
        }
        if let Some((&first, rest)) = capture_at.split_first() {
            let capture = CaptureConfig::receiver_side(first);
            sim.set_capture(rest.iter().fold(capture, |c, &n| c.add_node(n)));
        }
        sim.set_capture_sink(Box::new(collector));
        MptcpSim(sim)
    }

    /// Schedule `faults` (after any engine switch, before agents start).
    pub(crate) fn with_faults(mut self, faults: &FaultSchedule) -> Self {
        self.0.install_faults(faults);
        self
    }

    /// Attach an MPTCP sender at `src`, starting at `start`.
    pub(crate) fn add_sender(&mut self, src: NodeId, cfg: MptcpConfig, start: SimTime) -> SenderId {
        let sender = Box::new(MptcpSenderAgent::new(cfg));
        SenderId(self.0.add_agent(src, sender, start))
    }

    /// Attach an MPTCP receiver at `dst`, live from time zero.
    pub(crate) fn add_receiver(&mut self, dst: NodeId, sack: bool) -> ReceiverId {
        let mut receiver = MptcpReceiverAgent::default();
        if !sack {
            receiver = receiver.without_sack();
        }
        ReceiverId(self.0.add_agent(dst, Box::new(receiver), SimTime::ZERO))
    }

    /// Run to `end`: serially, across `regions` greedily partitioned
    /// regions, or across the regions of an explicit node→region map.
    pub(crate) fn run(&mut self, end: SimTime, regions: usize, region_map: Option<&[u32]>) {
        match region_map {
            Some(map) => self.0.run_parallel_with_map(end, map),
            None => self.0.run_parallel(end, regions),
        }
    }

    /// What the run folded out of its capture stream (the collector is the
    /// simulator's only sink, so it saw every record).
    pub(crate) fn collector(&self) -> &Collector {
        self.0
            .capture_sink()
            .as_any()
            .downcast_ref::<Collector>()
            // simlint: allow(unwrap, reason = "new installs a Collector and nothing in this crate removes it")
            .expect("collector sink")
    }

    /// Order-sensitive digest of the capture stream.
    pub(crate) fn trace_hash(&self) -> u64 {
        self.collector().trace_hash()
    }

    fn sender(&self, id: SenderId) -> &MptcpSenderAgent {
        self.0
            .agent(id.0)
            .as_any()
            .and_then(|a| a.downcast_ref::<MptcpSenderAgent>())
            // simlint: allow(unwrap, reason = "a SenderId only comes from add_sender, which installs an MptcpSenderAgent")
            .expect("sender agent")
    }

    pub(crate) fn receiver(&self, id: ReceiverId) -> &MptcpReceiverAgent {
        self.0
            .agent(id.0)
            .as_any()
            .and_then(|a| a.downcast_ref::<MptcpReceiverAgent>())
            // simlint: allow(unwrap, reason = "a ReceiverId only comes from add_receiver, which installs an MptcpReceiverAgent")
            .expect("receiver agent")
    }
}

#[cfg(test)]
impl MptcpSim {
    /// The bare simulator, collector sink still installed.
    pub(crate) fn into_simulator(self) -> Simulator {
        self.0
    }
}

/// Read-only access to the simulator's counters.
impl std::ops::Deref for MptcpSim {
    type Target = Simulator;

    fn deref(&self) -> &Simulator {
        &self.0
    }
}

/// A frozen scenario prefix that fault variants branch from.
///
/// Produced by [`Scenario::checkpoint_at`]. Holds a versioned
/// [`SimSnapshot`] of the simulator after the common (fault-free) prefix;
/// each [`ScenarioCheckpoint::branch_run`] restores a fresh deep copy,
/// installs one fault schedule, and runs to the scenario end. The
/// checkpoint is reusable: branching does not consume it.
#[derive(Debug)]
pub struct ScenarioCheckpoint {
    scenario: Scenario,
    snapshot: SimSnapshot,
    ends: Ends,
}

impl ScenarioCheckpoint {
    /// The simulation time the prefix was frozen at.
    pub fn time(&self) -> SimTime {
        self.snapshot.time()
    }

    /// The base scenario the prefix was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Branch one fault variant from the frozen prefix and run it to the
    /// scenario end. Byte-identical (trace hash, event counters, series)
    /// to `scenario.with_faults(faults).run_with_lp_cache(lp_cache)`.
    ///
    /// Every fault must fire strictly after the checkpoint time: the
    /// prefix has already processed (and discarded nothing at) all times
    /// `<=` the checkpoint, so an earlier fault could not take effect and
    /// would silently diverge from the cold run.
    pub fn branch_run(
        &self,
        faults: &FaultSchedule,
        lp_cache: Option<&lpsolve::LpCache>,
    ) -> RunResult {
        for (at, _) in faults.entries() {
            assert!(
                *at > self.time(),
                "branch fault at {at} not strictly after checkpoint time {}",
                self.time()
            );
        }
        let lp = self.scenario.solve_lp(lp_cache);
        let mut sim = MptcpSim(Simulator::restore(&self.snapshot)).with_faults(faults);
        sim.run(SimTime::ZERO + self.scenario.duration, 1, None);
        self.scenario.collect(&sim, self.ends, lp)
    }
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-path wire-throughput series (Mbps), in path order.
    pub per_path: Vec<TimeSeries>,
    /// Element-wise total (the paper's "Total" line).
    pub total: TimeSeries,
    /// The LP ground truth for the same topology and paths.
    pub lp: lpsolve::MaxThroughput,
    /// Convergence analysis of the total against the LP optimum.
    pub convergence: ConvergenceReport,
    /// Steady-state mean rate per path, Mbps.
    pub per_path_steady_mbps: Vec<f64>,
    /// Queue drops across the network.
    pub drops: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Events scheduled and not cancelled (the live share).
    pub events_scheduled: u64,
    /// Events cancelled before firing — the dead events lazy timer guards
    /// would otherwise have popped and discarded. The dead-event fraction
    /// is `events_cancelled / (events_scheduled + events_cancelled)`.
    pub events_cancelled: u64,
    /// Packets delivered to any sink across the network (wire-level, all
    /// agents and cross traffic; the perf snapshot derives packets/sec
    /// from this).
    pub packets_delivered: u64,
    /// Connection-level in-order bytes delivered.
    pub data_delivered: u64,
    /// Connection-level duplicate bytes received.
    pub duplicate_bytes: u64,
    /// Per-subflow TCP statistics, in subflow (default-first) order.
    pub subflow_stats: Vec<tcpsim::SenderStats>,
    /// Order-sensitive digest of the run's capture stream
    /// ([`simtrace::TraceHasher`]). Equal scenarios + seeds must yield equal
    /// hashes; see [`crate::determinism`].
    pub trace_hash: u64,
}

impl RunResult {
    /// Measured total steady-state throughput, Mbps.
    pub fn steady_total_mbps(&self) -> f64 {
        self.per_path_steady_mbps.iter().sum()
    }

    /// steady total / LP optimum.
    pub fn efficiency(&self) -> f64 {
        self.steady_total_mbps() / self.lp.total_mbps
    }

    /// The measured allocation must be feasible for the LP (sanity bound —
    /// a violation means the simulator overcounted capacity).
    pub fn is_physically_consistent(&self, tol_mbps: f64) -> bool {
        self.lp.is_feasible(&self.per_path_steady_mbps, tol_mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperNetwork;
    use simbase::SimDuration;

    fn paper_scenario(algo: CcAlgo) -> Scenario {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_algo(algo)
    }

    #[test]
    fn cubic_reaches_near_optimal_total() {
        let result = paper_scenario(CcAlgo::Cubic).run();
        assert!((result.lp.total_mbps - 90.0).abs() < 1e-6);
        assert!(
            result.efficiency() > 0.85,
            "CUBIC should approach the optimum: {:.1} of {:.1} Mbps",
            result.steady_total_mbps(),
            result.lp.total_mbps
        );
        assert!(
            result.is_physically_consistent(2.0),
            "{:?}",
            result.per_path_steady_mbps
        );
        assert!(result.drops > 0, "loss-based CC needs losses");
    }

    #[test]
    fn lia_trails_cubic_on_average() {
        // A per-seed comparison is noisy (the paper's own runs varied);
        // the ordering claim is about the mean over seeds.
        let mean = |algo: CcAlgo| -> f64 {
            (1..=3u64)
                .map(|seed| {
                    paper_scenario(algo)
                        .with_seed(seed)
                        .with_timing(SimDuration::from_secs(10), SimDuration::from_millis(100))
                        .run()
                        .steady_total_mbps()
                })
                .sum::<f64>()
                / 3.0
        };
        let cubic = mean(CcAlgo::Cubic);
        let lia = mean(CcAlgo::Lia);
        assert!(
            lia < cubic + 1.0,
            "LIA mean {lia:.1} should not beat CUBIC mean {cubic:.1}"
        );
    }

    #[test]
    fn branch_runs_match_cold_runs_bit_for_bit() {
        // A checkpoint taken mid-run, branched with a fault schedule, must
        // be indistinguishable from a cold run that carried the same faults
        // from time zero — trace hash, event counters, and every sampled
        // series bin.
        let net = PaperNetwork::new();
        let s = net.topology.node_by_name("s").unwrap();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let link = net.topology.link_between(s, v4).unwrap();
        let base = Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_algo(CcAlgo::Lia)
        .with_timing(SimDuration::from_secs(3), SimDuration::from_millis(100));
        let ckpt = base.checkpoint_at(SimTime::from_millis(1500));
        assert_eq!(ckpt.time(), SimTime::from_millis(1500));
        let variants = [
            FaultSchedule::new().outage(
                link,
                SimTime::from_millis(1800),
                SimTime::from_millis(2300),
            ),
            FaultSchedule::new().loss_burst(
                link,
                SimTime::from_millis(1600),
                SimTime::from_millis(2000),
                0.3,
            ),
            FaultSchedule::new(),
        ];
        for faults in &variants {
            let branched = ckpt.branch_run(faults, None);
            let cold = base.clone().with_faults(faults.clone()).run();
            assert_eq!(branched.trace_hash, cold.trace_hash, "{faults:?}");
            assert_eq!(branched.events, cold.events);
            assert_eq!(branched.events_scheduled, cold.events_scheduled);
            assert_eq!(branched.events_cancelled, cold.events_cancelled);
            assert_eq!(branched.drops, cold.drops);
            assert_eq!(branched.total.values(), cold.total.values());
            assert_eq!(branched.data_delivered, cold.data_delivered);
        }
    }

    #[test]
    #[should_panic(expected = "strictly after checkpoint time")]
    fn branch_rejects_faults_inside_the_prefix() {
        let net = PaperNetwork::new();
        let s = net.topology.node_by_name("s").unwrap();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let link = net.topology.link_between(s, v4).unwrap();
        let base = Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_secs(2), SimDuration::from_millis(100));
        let ckpt = base.checkpoint_at(SimTime::from_millis(1000));
        // Fault at exactly the checkpoint time: already inside the replayed
        // prefix, must be refused rather than silently diverge.
        let faults = FaultSchedule::new().outage(
            link,
            SimTime::from_millis(1000),
            SimTime::from_millis(1500),
        );
        let _ = ckpt.branch_run(&faults, None);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = paper_scenario(CcAlgo::Olia).run();
        let b = paper_scenario(CcAlgo::Olia).run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.total.values(), b.total.values());
        assert_eq!(a.drops, b.drops);
    }

    #[test]
    fn per_path_series_shapes() {
        let r = paper_scenario(CcAlgo::Cubic).run();
        assert_eq!(r.per_path.len(), 3);
        assert_eq!(r.per_path[0].label, "Path 1");
        assert_eq!(r.total.len(), 40); // 4 s / 100 ms
        for s in &r.per_path {
            assert_eq!(s.len(), 40);
        }
    }

    #[test]
    fn starved_path_keeps_a_zero_series() {
        // Starve Path 3 (blackhole its exclusive first hop): it delivers
        // nothing in the window, but it must still appear in per-path
        // series and per_path_steady_mbps instead of silently vanishing.
        let net = PaperNetwork::new();
        let mut topo = net.topology.clone();
        let s = topo.node_by_name("s").unwrap();
        let v4 = topo.node_by_name("v4").unwrap();
        let link = topo.link_between(s, v4).unwrap();
        topo.set_link_loss(link, 1.0);
        let r = Scenario {
            default_path: net.default_path,
            ..Scenario::new(topo, net.paths)
        }
        .with_timing(SimDuration::from_millis(500), SimDuration::from_millis(100))
        .run();
        assert_eq!(r.per_path.len(), 3);
        assert_eq!(r.per_path[2].label, "Path 3");
        assert_eq!(r.per_path[2].len(), 5);
        assert_eq!(r.per_path[2].mean(), 0.0, "starved path delivers nothing");
        assert_eq!(r.per_path_steady_mbps.len(), 3);
        assert_eq!(r.per_path_steady_mbps[2], 0.0);
        // The surviving paths still move data.
        assert!(r.data_delivered > 0);
    }

    #[test]
    fn lp_cache_does_not_change_results() {
        let cache = lpsolve::LpCache::new();
        let scenario = paper_scenario(CcAlgo::Cubic)
            .with_timing(SimDuration::from_millis(300), SimDuration::from_millis(100));
        let plain = scenario.run();
        let warm = scenario.run_with_lp_cache(Some(&cache));
        let cached = scenario.run_with_lp_cache(Some(&cache));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        for r in [&warm, &cached] {
            assert_eq!(r.trace_hash, plain.trace_hash);
            assert_eq!(r.lp.total_mbps, plain.lp.total_mbps);
            assert_eq!(r.lp.per_path_mbps, plain.lp.per_path_mbps);
            assert_eq!(r.total.values(), plain.total.values());
        }
    }

    #[test]
    fn throughput_never_exceeds_lp_plus_headers() {
        // The LP bounds goodput-ish rates; wire rates include ~4% header
        // overhead and binning jitter, so allow a small margin.
        let r = paper_scenario(CcAlgo::Cubic).run();
        for (i, v) in r.total.values().iter().enumerate() {
            assert!(*v <= r.lp.total_mbps * 1.08 + 1.0, "bin {i}: {v:.1} Mbps");
        }
    }
}
