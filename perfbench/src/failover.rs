//! `failover-branch`: the experiment-service path.
//!
//! The failover LIA base scenario (paper network, 16 s) is simulated to
//! just before the default path's private link dies at 4 s and frozen;
//! eight outage variants (restore at 5…12 s) branch from the snapshot.
//! Each variant, as one job, is looked up in a fresh content-addressed
//! run store (a miss), branched, stored, and read back. Snapshot deep
//! copies, restores, fault application and the store codec do work here
//! that the other workloads never do. Cold runs of the same variants are
//! the correctness reference; they run once per process, untimed.

use crate::layers::{lp_solve_us, Stages, Totals};
use crate::probe::{build_scenario, shared_link_busy_frac};
use crate::{ratio, Checks, Layer, Pass, Workload};
use mptcpsim::CcAlgo;
use netsim::{FaultSchedule, Simulator};
use overlap_core::{
    failover_base_scenario, FailoverConfig, FailoverSetup, PaperNetwork, RunResult, RunStore,
    Scenario,
};
use simbase::SimTime;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Failover {
    base: Scenario,
    /// Checkpoint time: one nanosecond before the failure.
    at: SimTime,
    variants: Vec<FaultSchedule>,
    /// LP cache of set-up (full and surviving optima), shared by branches.
    lp: lpsolve::LpCache,
    workdir: PathBuf,
    passes: usize,
    /// Trace hash and wall time of each variant's cold run.
    cold: Vec<(u64, f64)>,
}

/// Set-up: failover facts (two LP solves), the base scenario, the outage
/// variants, and a fresh run store opened (then removed).
pub fn setup(seed: u64, workdir: &Path) -> Failover {
    let cfg = FailoverConfig::default();
    let lp = lpsolve::LpCache::new();
    let fs = FailoverSetup::from_network(PaperNetwork::new(), &lp);
    let base = failover_base_scenario(&fs, CcAlgo::Lia, seed, &cfg);
    let variants = (5..=12)
        .map(|up| FaultSchedule::new().outage(fs.dead_link, cfg.t_down, SimTime::from_secs(up)))
        .collect();
    let probe_dir = workdir.join("setup-store");
    std::hint::black_box(RunStore::open(&probe_dir).map(|s| s.len()).ok());
    let _ = std::fs::remove_dir_all(&probe_dir);
    Failover {
        base,
        at: SimTime::from_nanos(cfg.t_down.as_nanos() - 1),
        variants,
        lp,
        workdir: workdir.to_path_buf(),
        passes: 0,
        cold: Vec::new(),
    }
}

/// Fields a store round trip must preserve.
fn same_result(a: &RunResult, b: &RunResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.trace_hash == b.trace_hash
        && a.events == b.events
        && a.events_scheduled == b.events_scheduled
        && a.events_cancelled == b.events_cancelled
        && a.drops == b.drops
        && a.packets_delivered == b.packets_delivered
        && a.data_delivered == b.data_delivered
        && a.duplicate_bytes == b.duplicate_bytes
        && bits(a.total.values()) == bits(b.total.values())
        && bits(&a.per_path_steady_mbps) == bits(&b.per_path_steady_mbps)
        && a.lp.total_mbps.to_bits() == b.lp.total_mbps.to_bits()
}

impl Workload for Failover {
    fn prepare(&mut self) {
        self.cold = self
            .variants
            .iter()
            .map(|f| {
                let t = Instant::now();
                let r = self.base.clone().with_faults(f.clone()).run();
                (r.trace_hash, t.elapsed().as_secs_f64())
            })
            .collect();
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let dir = self.workdir.join(format!("store-{}", self.passes));
        self.passes += 1;
        let _ = std::fs::remove_dir_all(&dir);

        let t0 = Instant::now();
        let ckpt = self.base.checkpoint_at(self.at);
        let checkpoint_s = t0.elapsed().as_secs_f64();
        let store = RunStore::open(&dir);
        checks.check(store.is_ok(), || {
            format!(
                "cannot open store {}: {:?}",
                dir.display(),
                store.as_ref().err()
            )
        });
        let mut pass = Pass::default();
        let hits_before = self.lp.stats().hits;
        let (mut put_s, mut get_s, mut ops) = (0.0, 0.0, 0);
        for (v, faults) in self.variants.iter().enumerate() {
            let t = Instant::now();
            let digest = self.base.clone().with_faults(faults.clone()).digest();
            let r = ckpt.branch_run(faults, Some(&self.lp));
            if let Ok(store) = &store {
                let g = Instant::now();
                let before = store.get(digest);
                let p = Instant::now();
                let put = store.put(digest, &r);
                let q = Instant::now();
                let after = store.get(digest);
                let done = Instant::now();
                get_s += (p - g).as_secs_f64() + (done - q).as_secs_f64();
                put_s += (q - p).as_secs_f64();
                ops += 1;
                checks.check(before.is_none(), || {
                    format!("variant {v}: fresh store already held {digest:016x}")
                });
                checks.check(put.is_ok(), || {
                    format!("variant {v}: store put failed: {:?}", put.as_ref().err())
                });
                checks.check(after.as_ref().is_some_and(|a| same_result(a, &r)), || {
                    format!("variant {v}: store get did not return what put stored")
                });
            }
            pass.job_s.push(t.elapsed().as_secs_f64());
            checks.check(r.trace_hash == self.cold[v].0, || {
                format!(
                    "variant {v}: branch hash {:016x} != cold {:016x}",
                    r.trace_hash, self.cold[v].0
                )
            });
            pass.pin(format!("variant{v}.hash"), format!("{:016x}", r.trace_hash));
            pass.pin(format!("variant{v}.events"), r.events);
            pass.hashes.push(r.trace_hash);
        }
        pass.wall_s = t0.elapsed().as_secs_f64();

        if let Ok(store) = &store {
            let st = store.stats();
            pass.pin("store.hits", st.hits);
            pass.pin("store.misses", st.misses);
            pass.pin("store.bytes_written", st.bytes_written);
            let l = &mut pass.layer;
            l.insert("core.store.hits", st.hits as f64);
            l.insert("core.store.misses", st.misses as f64);
            l.insert(
                "core.store.bytes_per_record",
                ratio(st.bytes_written as f64, ops as f64),
            );
            l.insert("core.store.put_us", ratio(put_s * 1e6, ops as f64));
            l.insert("core.store.get_us", ratio(get_s * 1e6, 2.0 * ops as f64));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let lp = self.lp.stats();
        pass.pin("lpsolve.solves", lp.misses);
        pass.pin("lpsolve.cache_hits", lp.hits - hits_before);
        let branch_s: f64 = pass.job_s.iter().sum();
        let cold_s: f64 = self.cold.iter().map(|c| c.1).sum();
        let l = &mut pass.layer;
        l.insert("lpsolve.solves", lp.misses as f64);
        l.insert("lpsolve.cache_hits", (lp.hits - hits_before) as f64);
        l.insert("core.checkpoint_s", checkpoint_s);
        l.insert("core.branch_s", branch_s);
        l.insert("core.prefix_reuse", ratio(cold_s, checkpoint_s + branch_s));
        l.insert("worldgen.connections", self.variants.len() as f64);
        pass
    }

    fn traced(&mut self, reference: &Pass, checks: &mut Checks) -> Layer {
        let t0 = Instant::now();
        let mut b = build_scenario(&self.base);
        let t = Instant::now();
        b.sim.run_until(self.at);
        let prefix = Totals::of(&b, t.elapsed().as_secs_f64(), Stages::default());
        let t = Instant::now();
        let snapshot = b.sim.checkpoint();
        let checkpoint_s = t.elapsed().as_secs_f64();

        // Work is counted once for the shared prefix plus each branch's
        // own suffix. The restored agents share the prefix's handler
        // probes, so handler totals are read once, after the last branch.
        let mut totals = prefix;
        let (mut restore_s, mut busy) = (0.0, 0.0);
        let dst = mptcpsim::common_destination(&self.base.paths);
        let paths = self.base.paths.len();
        for (v, faults) in self.variants.iter().enumerate() {
            let t = Instant::now();
            b.sim = Simulator::restore(&snapshot);
            restore_s += t.elapsed().as_secs_f64();
            b.sim.install_faults(faults);
            let t = Instant::now();
            b.sim.run_until(b.end);
            let run_s = t.elapsed().as_secs_f64();
            let stages = Stages::all(&b.sim, dst, self.base.sample_bin, b.end, paths);
            let (got, want) = (stages.hash, reference.hashes[v]);
            checks.check(got == want, || {
                format!("variant {v}: traced hash {got:016x} != untraced {want:016x}")
            });
            let branch = Totals::of(&b, run_s, stages);
            totals.add(&Totals {
                counts: branch.counts.since(&prefix.counts),
                sender: (0, 0.0),
                receiver: (0, 0.0),
                ..branch
            });
            busy += shared_link_busy_frac(&b.sim, &self.base);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        totals.sender = (b.probes.sender.calls(), b.probes.sender.secs());
        totals.receiver = (b.probes.receiver.calls(), b.probes.receiver.secs());
        checks.check(totals.stages.violations == 0, || {
            format!("{} trace invariant violations", totals.stages.violations)
        });

        let mut layer = Layer::new();
        totals.insert_into(&mut layer);
        let n = self.variants.len() as f64;
        layer.insert("netsim.bottleneck_busy_frac", busy / n);
        layer.insert("netsim.checkpoint_ms", checkpoint_s * 1e3);
        layer.insert("netsim.restore_ms", restore_s * 1e3 / n);
        layer.insert("lpsolve.solve_us", lp_solve_us(&self.base));
        layer.insert("trace.overhead_frac", ratio(wall_s, reference.wall_s) - 1.0);
        layer
    }
}
