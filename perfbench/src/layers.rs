//! Turning a traced pass's measurements into per-layer metrics.

use crate::probe::{Built, SimCounts};
use crate::{ratio, Layer};
use netsim::{NodeId, Simulator, Tag};
use simbase::{SimDuration, SimTime};
use std::time::Instant;

/// Timings of the collect stages `Scenario::run` applies to a finished
/// simulation's captures: trace hash, trace invariants, per-tag sampler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// Trace hash of the simulation (meaningless once summed).
    pub hash: u64,
    pub records: u64,
    pub hash_s: f64,
    pub check_s: f64,
    pub sample_s: f64,
    pub violations: usize,
}

impl Stages {
    /// Time the trace hash alone (all that `run_traffic` and `run_fabric`
    /// collect).
    pub fn hash_only(sim: &Simulator) -> Stages {
        let t = Instant::now();
        let hash = simtrace::TraceHasher::hash_records(sim.captures());
        Stages {
            hash,
            records: sim.captures().len() as u64,
            hash_s: t.elapsed().as_secs_f64(),
            ..Stages::default()
        }
    }

    /// Time every collect stage of `Scenario::run`, sampling at `dst` over
    /// the tags of `paths` paths.
    pub fn all(
        sim: &Simulator,
        dst: NodeId,
        bin: SimDuration,
        end: SimTime,
        paths: usize,
    ) -> Stages {
        let mut s = Stages::hash_only(sim);
        let recs = sim.captures();
        let t = Instant::now();
        s.violations = simtrace::check_trace(recs, &mut simtrace::default_invariants()).len();
        s.check_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let tags = (0..paths).map(|i| Tag(1 + u16::try_from(i).expect("few paths")));
        let cfg = simtrace::SamplerConfig::tshark_like(dst, bin, end).with_tags(tags);
        std::hint::black_box(simtrace::ThroughputSampler::from_records(recs, &cfg));
        s.sample_s = t.elapsed().as_secs_f64();
        s
    }

    fn add(&mut self, o: &Stages) {
        self.records += o.records;
        self.hash_s += o.hash_s;
        self.check_s += o.check_s;
        self.sample_s += o.sample_s;
        self.violations += o.violations;
    }
}

/// What a traced pass measured, summed over its simulations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub counts: SimCounts,
    pub stages: Stages,
    /// Wall time inside `run_until`, seconds.
    pub run_s: f64,
    /// Calls to, and seconds inside, MPTCP sender handlers.
    pub sender: (u64, f64),
    /// Calls to, and seconds inside, MPTCP receiver handlers.
    pub receiver: (u64, f64),
}

impl Totals {
    /// One finished simulation that spent `run_s` in `run_until`.
    pub fn of(b: &Built, run_s: f64, stages: Stages) -> Totals {
        Totals {
            counts: SimCounts::of(b),
            stages,
            run_s,
            sender: (b.probes.sender.calls(), b.probes.sender.secs()),
            receiver: (b.probes.receiver.calls(), b.probes.receiver.secs()),
        }
    }

    /// Accumulate another simulation's totals.
    pub fn add(&mut self, o: &Totals) {
        self.counts.add(&o.counts);
        self.stages.add(&o.stages);
        self.run_s += o.run_s;
        self.sender = (self.sender.0 + o.sender.0, self.sender.1 + o.sender.1);
        self.receiver = (
            self.receiver.0 + o.receiver.0,
            self.receiver.1 + o.receiver.1,
        );
    }

    /// The engine, agent, TCP and collect-stage metrics. Engine self time
    /// is the time inside `run_until` not spent in agent handlers.
    pub fn insert_into(&self, layer: &mut Layer) {
        let (c, st, sender, receiver) = (&self.counts, &self.stages, self.sender, self.receiver);
        let engine_s = self.run_s - sender.1 - receiver.1;
        let f = |x: u64| x as f64;
        let per_record = |s: f64| ratio(s * 1e9, f(st.records));
        let record_mb = std::mem::size_of::<netsim::CaptureRecord>() as f64 / 1e6;
        layer.extend([
            ("netsim.engine_self_s", engine_s),
            ("netsim.ns_per_event", ratio(engine_s * 1e9, f(c.events))),
            ("simbase.events", f(c.events)),
            ("simbase.events_scheduled", f(c.events_scheduled)),
            (
                "simbase.dead_event_frac",
                ratio(
                    f(c.events_cancelled),
                    f(c.events_scheduled + c.events_cancelled),
                ),
            ),
            ("netsim.hops", f(c.hops)),
            ("netsim.ns_per_hop", ratio(engine_s * 1e9, f(c.hops))),
            ("netsim.packets_sent", f(c.packets_sent)),
            (
                "netsim.drop_frac",
                ratio(f(c.packets_dropped), f(c.packets_sent)),
            ),
            ("netsim.max_queue_pkts", f(c.max_queue_pkts)),
            ("netsim.capture_records", f(c.capture_records)),
            ("netsim.capture_mb", f(c.capture_records) * record_mb),
            ("mptcpsim.sender_calls", f(sender.0)),
            ("mptcpsim.sender_self_s", sender.1),
            (
                "mptcpsim.sender_ns_per_call",
                ratio(sender.1 * 1e9, f(sender.0)),
            ),
            ("mptcpsim.receiver_calls", f(receiver.0)),
            ("mptcpsim.receiver_self_s", receiver.1),
            (
                "mptcpsim.receiver_ns_per_call",
                ratio(receiver.1 * 1e9, f(receiver.0)),
            ),
            ("tcpsim.segments_sent", f(c.segments_sent)),
            ("tcpsim.retransmits", f(c.retransmits)),
            (
                "tcpsim.retx_frac",
                ratio(f(c.retransmits), f(c.segments_sent)),
            ),
            ("tcpsim.rtos", f(c.rtos)),
            ("tcpsim.loss_events", f(c.loss_events)),
            (
                "mptcpsim.dup_bytes_frac",
                ratio(
                    f(c.duplicate_bytes),
                    f(c.data_delivered + c.duplicate_bytes),
                ),
            ),
            ("simtrace.hash_ns_per_record", per_record(st.hash_s)),
            ("simtrace.check_ns_per_record", per_record(st.check_s)),
            ("simtrace.sample_ns_per_record", per_record(st.sample_s)),
            ("simtrace.collect_s", st.hash_s + st.check_s + st.sample_s),
        ]);
    }
}

/// Mean wall time of one uncached LP solve of `s`'s ground truth,
/// microseconds.
pub fn lp_solve_us(s: &overlap_core::Scenario) -> f64 {
    const REPS: u32 = 20;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(lpsolve::solve_max_throughput(&s.topology, &s.paths));
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
}
