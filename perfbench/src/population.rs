//! `population`: many agents and many short flows.
//!
//! Two worldgen cells run one after the other: a heavy-tailed traffic
//! program (4000 Poisson/bounded-Pareto connections arriving at 1000/s
//! for 4 s on the 2-relay substrate) and a k=8 fat-tree carrying 64 ECMP
//! MPTCP connections for 2 s, both LIA. Most flows live in slow start, so
//! per-connection state, agent dispatch, FIB size and worldgen generation
//! carry the cost; coupled congestion avoidance does little.

use crate::layers::{Stages, Totals};
use crate::probe::{build_fabric, build_traffic, Built};
use crate::{ratio, Checks, Layer, Pass, Workload};
use overlap_core::{run_fabric, run_traffic, FabricCell, SubflowSelector, TrafficCell};
use simbase::SimDuration;
use std::time::Instant;
use worldgen::{
    FatTree, FatTreeConfig, TrafficConfig, TrafficNet, TrafficNetConfig, TrafficProgram,
};

pub struct Population {
    traffic: TrafficCell,
    fabric: FabricCell,
    /// Set-up's time to generate the traffic program and build its
    /// substrate, seconds (`worldgen.traffic_generate_ms`).
    generate_s: f64,
    /// Set-up's time to build the fat-tree, seconds.
    fattree_s: f64,
}

/// Set-up: the cells, and the worldgen inputs they are built from (the
/// traffic program, its substrate and the fat-tree). `run_traffic` and
/// `run_fabric` generate these again themselves, so passes include that
/// cost too.
pub fn setup(seed: u64) -> Population {
    let traffic = TrafficCell {
        arrival_rate_hz: 1000.0,
        duration: SimDuration::from_secs(4),
        ..TrafficCell::table(4000, seed)
    };
    let fabric = FabricCell {
        k: 8,
        connections: 64,
        duration: SimDuration::from_secs(2),
        ..FabricCell::table(seed, SubflowSelector::Ecmp)
    };
    let t = Instant::now();
    std::hint::black_box(TrafficProgram::generate(&TrafficConfig {
        connections: traffic.pairs,
        arrival_rate_hz: traffic.arrival_rate_hz,
        seed: traffic.seed,
        ..TrafficConfig::default()
    }));
    std::hint::black_box(TrafficNet::build(&TrafficNetConfig {
        pairs: traffic.pairs,
        ..TrafficNetConfig::default()
    }));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(FatTree::build(&FatTreeConfig {
        k: fabric.k,
        seed: fabric.seed,
        ..FatTreeConfig::default()
    }));
    let fattree_s = t.elapsed().as_secs_f64();
    Population {
        traffic,
        fabric,
        generate_s,
        fattree_s,
    }
}

impl Workload for Population {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let t0 = Instant::now();
        let t = Instant::now();
        let tr = run_traffic(&self.traffic);
        let traffic_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let fr = run_fabric(&self.fabric);
        let fabric_s = t.elapsed().as_secs_f64();
        let mut pass = Pass::new(t0.elapsed().as_secs_f64());
        pass.job_s = vec![traffic_s, fabric_s];

        checks.check(tr.finished <= tr.started, || {
            format!("traffic: {} finished > {} started", tr.finished, tr.started)
        });
        checks.check(tr.delivered <= tr.offered, || {
            format!(
                "traffic: {} B delivered > {} B offered",
                tr.delivered, tr.offered
            )
        });
        // A connection's goodput cannot beat its host's line rate.
        let line_mbps = FatTreeConfig::default().link_bw.as_mbps_f64();
        for c in &fr.conns {
            checks.check(c.goodput_mbps <= line_mbps, || {
                format!(
                    "fabric conn {}: {} Mbps above line rate",
                    c.index, c.goodput_mbps
                )
            });
        }

        pass.pin("traffic.hash", format!("{:016x}", tr.trace_hash));
        pass.pin("traffic.events", tr.events);
        pass.pin("traffic.finished", tr.finished);
        pass.pin("traffic.delivered", tr.delivered);
        pass.pin("fabric.hash", format!("{:016x}", fr.trace_hash));
        pass.pin("fabric.events", fr.events);
        pass.pin("fabric.drops", fr.drops);
        pass.hashes = vec![tr.trace_hash, fr.trace_hash];
        let conns = self.traffic.pairs + self.fabric.connections;
        pass.layer.insert("worldgen.connections", conns as f64);
        pass.layer
            .insert("worldgen.traffic_generate_ms", self.generate_s * 1e3);
        pass.layer
            .insert("worldgen.fattree_build_ms", self.fattree_s * 1e3);
        pass
    }

    fn traced(&mut self, reference: &Pass, checks: &mut Checks) -> Layer {
        let run = |mut b: Built| {
            let t = Instant::now();
            b.sim.run_until(b.end);
            Totals::of(&b, t.elapsed().as_secs_f64(), Stages::hash_only(&b.sim))
        };
        let t = Instant::now();
        let cells = [
            run(build_traffic(&self.traffic)),
            run(build_fabric(&self.fabric)),
        ];
        let wall_s = t.elapsed().as_secs_f64();
        let mut totals = Totals::default();
        for ((cell, name), want) in cells
            .iter()
            .zip(["traffic", "fabric"])
            .zip(&reference.hashes)
        {
            let got = cell.stages.hash;
            checks.check(got == *want, || {
                format!("{name}: traced hash {got:016x} != untraced {want:016x}")
            });
            totals.add(cell);
        }
        let mut layer = Layer::new();
        totals.insert_into(&mut layer);
        layer.insert("trace.overhead_frac", ratio(wall_s, reference.wall_s) - 1.0);
        layer
    }
}
