//! `paper-sweep`: the paper's experiment as users run it.
//!
//! Five algorithms × the three default paths × two seeds × 10 s on the
//! Figure-1 network, fanned over the sweep runner's 2-worker pool with a
//! shared LP cache — the work `run_sweep` does for `SweepSpec::paper`,
//! with each cell timed as one job. One long-lived connection per cell
//! keeps the cost in per-event protocol work.

use crate::layers::{lp_solve_us, Stages, Totals};
use crate::probe::{build_scenario, shared_link_busy_frac};
use crate::{ratio, Checks, Layer, Pass, Workload};
use overlap_core::{execute_jobs, RunResult, Scenario, SweepSpec};
use simbase::SimDuration;
use std::time::Instant;

const ALGOS: [mptcpsim::CcAlgo; 5] = [
    mptcpsim::CcAlgo::Cubic,
    mptcpsim::CcAlgo::Lia,
    mptcpsim::CcAlgo::Olia,
    mptcpsim::CcAlgo::Balia,
    mptcpsim::CcAlgo::WVegas,
];
const WORKERS: usize = 2;
/// Mbps by which a cell's steady per-path rates may exceed an LP
/// constraint (the bound the scenario tests use).
const FEASIBILITY_TOL_MBPS: f64 = 2.0;

pub struct PaperSweep {
    scenarios: Vec<Scenario>,
}

/// Set-up: expand the sweep and build every cell's scenario.
pub fn setup(seed: u64) -> PaperSweep {
    let spec = SweepSpec::paper(&ALGOS, seed..seed + 2, SimDuration::from_secs(10));
    let scenarios = spec.cells().iter().map(|c| spec.scenario(c)).collect();
    PaperSweep { scenarios }
}

impl PaperSweep {
    fn run_cells(&self) -> (f64, Vec<(RunResult, f64)>, lpsolve::LpCacheStats) {
        let cache = lpsolve::LpCache::new();
        let t = Instant::now();
        let out = execute_jobs(self.scenarios.len(), WORKERS, false, |i| {
            let t = Instant::now();
            let r = self.scenarios[i].run_with_lp_cache(Some(&cache));
            (r, t.elapsed().as_secs_f64())
        });
        (t.elapsed().as_secs_f64(), out, cache.stats())
    }
}

impl Workload for PaperSweep {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let (wall_s, out, lp) = self.run_cells();
        let mut pass = Pass::new(wall_s);
        let mut events = 0;
        let mut efficiency = 0.0;
        for (i, (r, job_s)) in out.iter().enumerate() {
            pass.job_s.push(*job_s);
            let tol = 1.0 + self.scenarios[i].tolerance;
            checks.check(r.is_physically_consistent(FEASIBILITY_TOL_MBPS), || {
                format!(
                    "cell {i}: steady rates {:?} infeasible for the LP",
                    r.per_path_steady_mbps
                )
            });
            checks.check(r.efficiency() <= tol, || {
                format!("cell {i}: efficiency {} above {tol}", r.efficiency())
            });
            pass.pin(format!("cell{i:02}.hash"), format!("{:016x}", r.trace_hash));
            events += r.events;
            efficiency += r.efficiency();
        }
        pass.pin("events", events);
        pass.pin("lpsolve.solves", lp.misses);
        pass.pin("lpsolve.cache_hits", lp.hits);
        let busy: f64 = pass.job_s.iter().sum();
        let l = &mut pass.layer;
        l.insert("lpsolve.solves", lp.misses as f64);
        l.insert("lpsolve.cache_hits", lp.hits as f64);
        l.insert("core.runner.busy_s", busy);
        l.insert(
            "core.runner.idle_frac",
            1.0 - busy / (WORKERS as f64 * wall_s),
        );
        l.insert("mptcpsim.lp_efficiency", efficiency / out.len() as f64);
        l.insert("worldgen.connections", out.len() as f64);
        pass.hashes = out.iter().map(|(r, _)| r.trace_hash).collect();
        pass
    }

    fn traced(&mut self, reference: &Pass, checks: &mut Checks) -> Layer {
        let t = Instant::now();
        let cells = execute_jobs(self.scenarios.len(), WORKERS, false, |i| {
            let s = &self.scenarios[i];
            let mut b = build_scenario(s);
            let t = Instant::now();
            b.sim.run_until(b.end);
            let run_s = t.elapsed().as_secs_f64();
            let dst = mptcpsim::common_destination(&s.paths);
            let stages = Stages::all(&b.sim, dst, s.sample_bin, b.end, s.paths.len());
            (
                Totals::of(&b, run_s, stages),
                shared_link_busy_frac(&b.sim, s),
            )
        });
        let wall_s = t.elapsed().as_secs_f64();
        let mut totals = Totals::default();
        for (i, (cell, _)) in cells.iter().enumerate() {
            let (got, want) = (cell.stages.hash, reference.hashes[i]);
            checks.check(got == want, || {
                format!("cell {i}: traced hash {got:016x} != untraced {want:016x}")
            });
            totals.add(cell);
        }
        checks.check(totals.stages.violations == 0, || {
            format!("{} trace invariant violations", totals.stages.violations)
        });
        let busy: f64 = cells.iter().map(|c| c.1).sum();
        let mut layer = Layer::new();
        totals.insert_into(&mut layer);
        layer.insert("netsim.bottleneck_busy_frac", busy / cells.len() as f64);
        layer.insert("lpsolve.solve_us", lp_solve_us(&self.scenarios[0]));
        layer.insert("trace.overhead_frac", ratio(wall_s, reference.wall_s) - 1.0);
        layer
    }
}
