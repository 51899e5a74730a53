//! The online tshark step: what a run folds out of its capture stream.
//!
//! [`MptcpSim`](crate::scenario::MptcpSim) installs one [`Collector`] as
//! the simulator's capture sink, so every receiver-side record is folded
//! as it is produced and none is kept. Each call site asks for exactly
//! what it reads back: the trace hash always; the per-tag throughput
//! sampler and (under the `check` feature) the trace invariants for
//! [`Scenario`](crate::Scenario); per-tag delivered bytes for the mobility
//! runner. The simulator's default sink, a
//! [`CaptureBuffer`](netsim::CaptureBuffer) read back through
//! [`Simulator::captures`](netsim::Simulator::captures), stays the
//! debugging path, and these folds are the same definitions the batch
//! forms (`TraceHasher::hash_records`, `check_trace`,
//! `ThroughputSampler::from_records`) loop over.

use netsim::{CaptureKind, CaptureRecord, CaptureSink, NodeId, Tag};
use simtrace::{
    InvariantViolation, OnlineSampler, SamplerConfig, ThroughputSampler, TraceChecker, TraceHasher,
};
use std::any::Any;
use std::collections::BTreeMap;

/// A run's capture sink: the trace hash plus the optional folds its
/// installer asked for.
#[derive(Debug, Clone)]
pub(crate) struct Collector {
    hasher: TraceHasher,
    sampler: Option<OnlineSampler>,
    checker: Option<TraceChecker>,
    /// Wire bytes delivered per tag at one node.
    tag_bytes: Option<(NodeId, BTreeMap<Tag, u64>)>,
}

impl Collector {
    /// Collect the trace hash only.
    pub(crate) fn hash_only() -> Self {
        Collector {
            hasher: TraceHasher::new(),
            sampler: None,
            checker: None,
            tag_bytes: None,
        }
    }

    /// Also bin deliveries into per-tag throughput series.
    pub(crate) fn with_sampler(mut self, cfg: &SamplerConfig) -> Self {
        self.sampler = Some(OnlineSampler::new(cfg));
        self
    }

    /// Also run the default trace invariants.
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    pub(crate) fn with_checks(mut self) -> Self {
        self.checker = Some(TraceChecker::new(simtrace::default_invariants()));
        self
    }

    /// Also count the wire bytes delivered at `node`, per tag.
    pub(crate) fn with_tag_bytes(mut self, node: NodeId) -> Self {
        self.tag_bytes = Some((node, BTreeMap::new()));
        self
    }

    /// Order-sensitive digest of the capture stream.
    pub(crate) fn trace_hash(&self) -> u64 {
        self.hasher.finish()
    }

    /// The per-tag series, if a sampler was asked for.
    pub(crate) fn sampler(&self) -> Option<ThroughputSampler> {
        self.sampler.as_ref().map(OnlineSampler::finish)
    }

    /// Every trace-invariant violation (none unless checks were asked for).
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    pub(crate) fn violations(&self) -> Vec<InvariantViolation> {
        self.checker
            .as_ref()
            .map_or_else(Vec::new, TraceChecker::finish)
    }

    /// Wire bytes delivered with `tag` at the node given to
    /// [`Collector::with_tag_bytes`] (zero if it was not asked for).
    pub(crate) fn tag_bytes(&self, tag: Tag) -> u64 {
        self.tag_bytes
            .as_ref()
            .and_then(|(_, bytes)| bytes.get(&tag).copied())
            .unwrap_or(0)
    }
}

impl CaptureSink for Collector {
    fn record(&mut self, rec: &CaptureRecord) {
        self.hasher.record(rec);
        if let Some(sampler) = &mut self.sampler {
            sampler.push(rec);
        }
        if let Some(checker) = &mut self.checker {
            checker.push(rec);
        }
        if let Some((node, bytes)) = &mut self.tag_bytes {
            if rec.kind == CaptureKind::Delivered && rec.node == *node {
                *bytes.entry(rec.pkt.tag).or_insert(0) += u64::from(rec.pkt.wire_size);
            }
        }
    }

    fn clone_boxed(&self) -> Box<dyn CaptureSink> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    //! The sink path must give what the buffered path gives: trace hash,
    //! per-path series and invariant violations, for every algorithm, a
    //! faulted run, a 2-region run and a checkpoint branch.

    use super::*;
    use crate::paper::PaperNetwork;
    use crate::Scenario;
    use mptcpsim::CcAlgo;
    use netsim::{CaptureBuffer, FaultSchedule, Simulator};
    use simbase::{SimDuration, SimTime};
    use simtrace::{check_trace, default_invariants};

    fn paper(algo: CcAlgo) -> Scenario {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_algo(algo)
        .with_timing(SimDuration::from_secs(2), SimDuration::from_millis(100))
    }

    /// An outage of the default path's first link over [0.8 s, 1.4 s).
    fn outage() -> FaultSchedule {
        let net = PaperNetwork::new();
        let s = net.topology.node_by_name("s").unwrap();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let link = net.topology.link_between(s, v4).unwrap();
        FaultSchedule::new().outage(link, SimTime::from_millis(800), SimTime::from_millis(1400))
    }

    fn end(s: &Scenario) -> SimTime {
        SimTime::ZERO + s.duration
    }

    /// `s`'s simulator, built as `Scenario::run` builds it; with
    /// `buffered`, a fresh buffer replaces its collector.
    fn build(s: &Scenario, buffered: bool) -> Simulator {
        let mut sim = s.build_sim().0.into_simulator();
        if buffered {
            sim.set_capture_sink(Box::new(CaptureBuffer::default()));
        }
        sim
    }

    fn run(s: &Scenario, buffered: bool) -> Simulator {
        let mut sim = build(s, buffered);
        match &s.region_map {
            Some(map) => sim.run_parallel_with_map(end(s), map),
            None => sim.run_parallel(end(s), s.regions),
        }
        sim
    }

    fn collector(sim: &Simulator) -> &Collector {
        sim.capture_sink()
            .as_any()
            .downcast_ref::<Collector>()
            .expect("collector sink")
    }

    /// The streamed simulator's collector against the batch forms over the
    /// buffered simulator's records.
    fn assert_equivalent(s: &Scenario, streamed: &Simulator, buffered: &Simulator) {
        let records = buffered.captures();
        assert!(!records.is_empty());
        assert!(
            streamed.captures().is_empty(),
            "the sink path buffers nothing"
        );
        let c = collector(streamed);
        assert_eq!(c.trace_hash(), TraceHasher::hash_records(records));
        let online = c.sampler().unwrap();
        let batch = ThroughputSampler::from_records(records, &s.sampler_config());
        assert_eq!((online.packets, online.bytes), (batch.packets, batch.bytes));
        assert_eq!(online.per_tag.len(), batch.per_tag.len());
        for (tag, series) in &batch.per_tag {
            assert_eq!(online.per_tag[tag].values(), series.values(), "{tag:?}");
        }
        #[cfg(feature = "check")]
        assert_eq!(
            c.violations(),
            check_trace(records, &mut default_invariants())
        );
        #[cfg(not(feature = "check"))]
        assert!(check_trace(records, &mut default_invariants()).is_empty());
    }

    /// `Scenario::run`'s result (the sink path end to end) against the
    /// buffered records.
    fn assert_result_matches(s: &Scenario, result: &crate::RunResult, buffered: &Simulator) {
        let records = buffered.captures();
        assert_eq!(result.trace_hash, TraceHasher::hash_records(records));
        let batch = ThroughputSampler::from_records(records, &s.sampler_config());
        for (i, series) in result.per_path.iter().enumerate() {
            let tag = Tag(1 + u16::try_from(i).unwrap());
            assert_eq!(
                series.values(),
                batch.tag(tag).unwrap().values(),
                "path {i}"
            );
        }
    }

    fn check(s: &Scenario) {
        let buffered = run(s, true);
        assert_equivalent(s, &run(s, false), &buffered);
        assert_result_matches(s, &s.run(), &buffered);
    }

    #[test]
    fn every_algorithm_streams_what_it_buffers() {
        for algo in [
            CcAlgo::Cubic,
            CcAlgo::Lia,
            CcAlgo::Olia,
            CcAlgo::Balia,
            CcAlgo::WVegas,
        ] {
            check(&paper(algo));
        }
    }

    #[test]
    fn faulted_run_streams_what_it_buffers() {
        check(&paper(CcAlgo::Lia).with_faults(outage()));
    }

    #[test]
    fn two_region_run_streams_what_it_buffers() {
        // The cut runs through a shared bottleneck, so both regions
        // capture and the merge interleaves their records.
        let s = paper(CcAlgo::Olia)
            .with_faults(outage())
            .with_region_map(vec![0, 0, 1, 1, 0, 1]);
        check(&s);
        // And the sharded stream is the serial one.
        let serial = run(
            &Scenario {
                region_map: None,
                ..s.clone()
            },
            true,
        );
        assert_equivalent(&s, &run(&s, false), &serial);
    }

    #[test]
    fn checkpoint_branch_streams_what_a_cold_run_buffers() {
        let base = paper(CcAlgo::Lia);
        let faults = outage();
        let at = SimTime::from_millis(700);
        let cold = run(&base.clone().with_faults(faults.clone()), true);

        // The snapshot holds the collector's state, not a record history.
        let mut prefix = build(&base, false);
        prefix.run_until(at);
        let snapshot = prefix.checkpoint();
        let mut branch = Simulator::restore(&snapshot);
        branch.install_faults(&faults);
        branch.run_until(end(&base));
        assert_equivalent(&base, &branch, &cold);

        let result = base.checkpoint_at(at).branch_run(&faults, None);
        assert_result_matches(&base, &result, &cold);
    }
}
