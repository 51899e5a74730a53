//! Integrating a law to its long-run behaviour.
//!
//! [`solve`] integrates the drift field with a fixed-step RK4 and watches
//! three detectors:
//!
//! * **Equilibrium** — the scaled window drift (MSS per RTT) stays below
//!   [`FluidConfig::settle_tol`] for [`FluidConfig::hold`] seconds, or the
//!   windowed rate means stop moving with negligible in-window amplitude.
//! * **Limit cycle** — windowed means stop moving while the in-window
//!   amplitude stays macroscopic: the state orbits instead of settling
//!   (OLIA's discontinuous α term produces exactly this sliding-mode
//!   chatter around its equilibrium). The cycle-averaged rates are
//!   reported.
//! * **Divergence** — non-finite state or an aggregate rate beyond any
//!   feasible allocation.
//!
//! The result, [`FluidRun`], mirrors the packet simulator's `RunResult`
//! where the two overlap: per-path rates, aggregate, convergence time,
//! plus a bit-exact digest for double-run determinism checks.

use crate::dynamics::{Dynamics, FluidParams};
use crate::law::FluidLaw;
use crate::model::FluidModel;
use crate::ode::Rk4;
use simbase::Fnv64;

/// How a fluid integration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluidOutcome {
    /// The drift settled below tolerance: a genuine fixed point.
    Equilibrium,
    /// Rates orbit a stable mean without settling (sliding-mode chatter or
    /// a true cycle); reported rates are cycle averages.
    LimitCycle,
    /// `max_time` elapsed with the state still moving.
    NoConvergence,
    /// The state left the feasible region or became non-finite.
    Divergent,
}

impl FluidOutcome {
    /// Stable name for reports and digests.
    pub fn name(&self) -> &'static str {
        match self {
            FluidOutcome::Equilibrium => "equilibrium",
            FluidOutcome::LimitCycle => "limit-cycle",
            FluidOutcome::NoConvergence => "no-convergence",
            FluidOutcome::Divergent => "divergent",
        }
    }
}

/// Integration and detection parameters.
#[derive(Debug, Clone)]
pub struct FluidConfig {
    /// RK4 step, seconds.
    pub step: f64,
    /// Integration horizon, virtual seconds.
    pub max_time: f64,
    /// Equilibrium tolerance on the window drift, MSS per RTT. Must sit
    /// below OLIA's α-transfer rate (~`mss/(n·w)` ≈ 0.01) or a slow
    /// rebalancing phase would be mistaken for a fixed point.
    pub settle_tol: f64,
    /// How long the drift must stay below tolerance, seconds.
    pub hold: f64,
    /// Averaging window for the mean-stability detector, seconds.
    pub window: f64,
    /// Consecutive stable windows required.
    pub stable_windows: usize,
    /// Relative movement of the windowed mean that still counts as stable.
    pub cycle_tol: f64,
    /// Relative in-window amplitude above which a stable mean is a cycle,
    /// not an equilibrium.
    pub amp_tol: f64,
    /// Initial window per subflow, MSS units (IW10 by default, like the
    /// packet simulator's senders).
    pub initial_window_mss: f64,
    /// Drift-field knobs.
    pub params: FluidParams,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            step: 5e-4,
            max_time: 180.0,
            settle_tol: 2e-3,
            hold: 5.0,
            window: 4.0,
            stable_windows: 3,
            cycle_tol: 2e-3,
            amp_tol: 1e-2,
            initial_window_mss: 10.0,
            params: FluidParams::default(),
        }
    }
}

/// The result of one fluid integration — the ODE analogue of a packet
/// `RunResult`.
#[derive(Debug, Clone)]
pub struct FluidRun {
    /// The integrated law.
    pub law: FluidLaw,
    /// How the integration ended.
    pub outcome: FluidOutcome,
    /// Long-run rate per path, Mbps (equilibrium value or cycle average).
    pub per_path_mbps: Vec<f64>,
    /// Aggregate of [`Self::per_path_mbps`].
    pub total_mbps: f64,
    /// Virtual time at which the detector fired, seconds. `None` when the
    /// run diverged or hit the horizon.
    pub convergence_time_s: Option<f64>,
    /// Final per-subflow windows, bytes.
    pub windows: Vec<f64>,
    /// Final per-link prices, in link order of the model.
    pub prices: Vec<f64>,
    /// RK4 steps taken.
    pub steps: u64,
    /// Bit-exact FNV-1a digest of everything above: two solves of the same
    /// (model, law, config) must agree exactly.
    pub digest: u64,
}

impl FluidRun {
    /// Aggregate rate as a fraction of a reference optimum.
    pub fn efficiency(&self, optimum_mbps: f64) -> f64 {
        self.total_mbps / optimum_mbps
    }

    /// True if the run produced a usable long-run allocation (an
    /// equilibrium or a cycle average, not a divergence).
    pub fn settled(&self) -> bool {
        matches!(
            self.outcome,
            FluidOutcome::Equilibrium | FluidOutcome::LimitCycle
        )
    }
}

const BYTES_PER_SEC_TO_MBPS: f64 = 8.0 / 1e6;

/// Integrate `law` over `model` until a detector fires or the horizon is
/// reached. Deterministic: bit-identical results for identical inputs.
pub fn solve(model: &FluidModel, law: FluidLaw, cfg: &FluidConfig) -> FluidRun {
    let n = model.n_paths();
    let mut dynamics = Dynamics::new(model, law, cfg.params);
    let dim = dynamics.dim();
    let mut rk = Rk4::new(dim);

    let mut y = vec![0.0; dim];
    for w in y[..n].iter_mut() {
        *w = cfg.initial_window_mss * cfg.params.mss;
    }

    let h = cfg.step;
    let steps_total = (cfg.max_time / h).ceil() as u64;
    let hold_steps = ((cfg.hold / h).ceil() as u64).max(1);
    let win_steps = ((cfg.window / h).ceil() as u64).max(1);
    let divergence_bound = 50.0 * model.capacity_sum();

    let mut dy = vec![0.0; dim];
    let mut rates = vec![0.0; n];
    let mut streak = 0u64;
    let mut win_sum = vec![0.0; n];
    let mut win_count = 0u64;
    let mut win_total_min = f64::INFINITY;
    let mut win_total_max = f64::NEG_INFINITY;
    let mut prev_mean: Option<Vec<f64>> = None;
    let mut stable = 0usize;

    let mut steps = 0u64;
    let mut outcome = FluidOutcome::NoConvergence;
    let mut conv: Option<f64> = None;
    let mut report: Option<Vec<f64>> = None;

    while steps < steps_total {
        rk.step(&mut |y, dy| dynamics.eval(y, dy), &mut y, h);
        dynamics.clamp(&mut y);
        steps += 1;
        let t = steps as f64 * h;

        dynamics.eval(&y, &mut dy);
        dynamics.rates_of(&y, &mut rates);
        let total: f64 = rates.iter().sum();

        if !y.iter().all(|v| v.is_finite()) || total > divergence_bound {
            outcome = FluidOutcome::Divergent;
            report = Some(rates.clone());
            break;
        }

        // Equilibrium: scaled drift below tolerance, held.
        let norm = (0..n)
            .map(|r| dy[r].abs() * model.rtts[r] / cfg.params.mss)
            .fold(0.0, f64::max);
        if norm < cfg.settle_tol {
            streak += 1;
        } else {
            streak = 0;
        }
        if streak >= hold_steps {
            outcome = FluidOutcome::Equilibrium;
            conv = Some((t - cfg.hold).max(0.0));
            report = Some(rates.clone());
            break;
        }

        // Windowed means: stability and amplitude.
        for (acc, &x) in win_sum.iter_mut().zip(rates.iter()) {
            *acc += x;
        }
        win_count += 1;
        win_total_min = win_total_min.min(total);
        win_total_max = win_total_max.max(total);
        if win_count == win_steps {
            let mean: Vec<f64> = win_sum.iter().map(|s| s / win_count as f64).collect();
            let mean_total: f64 = mean.iter().sum();
            let amp = if mean_total > 0.0 {
                (win_total_max - win_total_min) / mean_total
            } else {
                0.0
            };
            if let Some(prev) = &prev_mean {
                let delta = mean
                    .iter()
                    .zip(prev.iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                if delta <= cfg.cycle_tol * mean_total.max(1.0) {
                    stable += 1;
                } else {
                    stable = 0;
                }
            }
            if stable >= cfg.stable_windows {
                outcome = if amp > cfg.amp_tol {
                    FluidOutcome::LimitCycle
                } else {
                    FluidOutcome::Equilibrium
                };
                conv = Some((t - cfg.window * (cfg.stable_windows as f64 + 1.0)).max(0.0));
                report = Some(mean);
                break;
            }
            prev_mean = Some(mean);
            win_sum.fill(0.0);
            win_count = 0;
            win_total_min = f64::INFINITY;
            win_total_max = f64::NEG_INFINITY;
        }
    }

    // Horizon reached: prefer the freshest mean available.
    let report = report.unwrap_or_else(|| {
        if win_count > 0 {
            win_sum.iter().map(|s| s / win_count as f64).collect()
        } else if let Some(prev) = prev_mean {
            prev
        } else {
            rates.clone()
        }
    });

    let per_path_mbps: Vec<f64> = report.iter().map(|x| x * BYTES_PER_SEC_TO_MBPS).collect();
    let total_mbps: f64 = per_path_mbps.iter().sum();
    let windows = y[..n].to_vec();
    let prices = y[n..].to_vec();

    let mut hasher = Fnv64::new();
    hasher.write_bytes(law.name().as_bytes());
    hasher.write_bytes(outcome.name().as_bytes());
    hasher.write_u64(steps);
    hasher.write_f64(conv.unwrap_or(f64::NAN));
    for &v in per_path_mbps.iter().chain(&windows).chain(&prices) {
        hasher.write_f64(v);
    }

    FluidRun {
        law,
        outcome,
        per_path_mbps,
        total_mbps,
        convergence_time_s: conv,
        windows,
        prices,
        steps,
        digest: hasher.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Path, QueueConfig, Topology};
    use simbase::{Bandwidth, SimDuration};

    /// One 40 Mbps link, one path.
    fn single_link() -> FluidModel {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");
        t.add_link(
            s,
            d,
            Bandwidth::from_mbps(40),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(32),
        );
        let p = Path::from_nodes(&t, &[s, d]).unwrap();
        FluidModel::from_topology(&t, &[p])
    }

    /// Two equal-RTT paths through one shared 60 Mbps bottleneck.
    fn shared_bottleneck() -> FluidModel {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let u = t.add_node("u");
        let v = t.add_node("v");
        let d = t.add_node("d");
        let q = QueueConfig::DropTailPackets(32);
        let dl = SimDuration::from_millis(2);
        let wide = Bandwidth::from_mbps(500);
        let l_in_a = t.add_link(s, u, wide, dl, q);
        let l_in_b = t.add_link(s, u, wide, dl, q);
        let shared = t.add_link(u, v, Bandwidth::from_mbps(60), dl, q);
        let l_out_a = t.add_link(v, d, wide, dl, q);
        let l_out_b = t.add_link(v, d, wide, dl, q);
        let p0 = Path::from_links(&t, s, &[l_in_a, shared, l_out_a]).unwrap();
        let p1 = Path::from_links(&t, s, &[l_in_b, shared, l_out_b]).unwrap();
        FluidModel::from_topology(&t, &[p0, p1])
    }

    #[test]
    fn single_path_reno_fills_the_link() {
        let model = single_link();
        let run = solve(&model, FluidLaw::Reno, &FluidConfig::default());
        assert!(run.settled(), "outcome {:?}", run.outcome);
        assert!(
            (run.total_mbps - 40.0).abs() < 40.0 * 0.03,
            "total {:.2} Mbps",
            run.total_mbps
        );
        assert!(run.convergence_time_s.is_some());
    }

    #[test]
    fn every_law_fills_a_single_link() {
        let model = single_link();
        for law in FluidLaw::ALL {
            let run = solve(&model, law, &FluidConfig::default());
            assert!(run.settled(), "{}: {:?}", law.name(), run.outcome);
            assert!(
                (run.total_mbps - 40.0).abs() < 40.0 * 0.05,
                "{}: total {:.2} Mbps",
                law.name(),
                run.total_mbps
            );
        }
    }

    #[test]
    fn shared_bottleneck_is_filled_not_exceeded() {
        let model = shared_bottleneck();
        for law in [FluidLaw::Lia, FluidLaw::Olia, FluidLaw::Balia] {
            let run = solve(&model, law, &FluidConfig::default());
            assert!(run.settled(), "{}: {:?}", law.name(), run.outcome);
            assert!(
                (run.total_mbps - 60.0).abs() < 60.0 * 0.05,
                "{}: total {:.2}",
                law.name(),
                run.total_mbps
            );
            // Symmetric paths: the split must be symmetric too.
            let d = (run.per_path_mbps[0] - run.per_path_mbps[1]).abs();
            assert!(d < 3.0, "{}: split {:?}", law.name(), run.per_path_mbps);
        }
    }

    #[test]
    fn double_solve_is_bit_identical() {
        let model = shared_bottleneck();
        for law in FluidLaw::ALL {
            let a = solve(&model, law, &FluidConfig::default());
            let b = solve(&model, law, &FluidConfig::default());
            assert_eq!(a.digest, b.digest, "{}", law.name());
            assert_eq!(a.steps, b.steps);
            for (x, y) in a.per_path_mbps.iter().zip(&b.per_path_mbps) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn horizon_too_short_reports_no_convergence() {
        let model = single_link();
        let cfg = FluidConfig {
            max_time: 0.05,
            ..Default::default()
        };
        let run = solve(&model, FluidLaw::Reno, &cfg);
        assert_eq!(run.outcome, FluidOutcome::NoConvergence);
        assert!(run.convergence_time_s.is_none());
        // Rates are still reported (the freshest partial-window mean).
        assert_eq!(run.per_path_mbps.len(), 1);
        assert!(run.per_path_mbps[0] > 0.0);
    }

    #[test]
    fn digests_differ_across_laws() {
        let model = shared_bottleneck();
        let mut digests: Vec<u64> = FluidLaw::ALL
            .iter()
            .map(|&law| solve(&model, law, &FluidConfig::default()).digest)
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), FluidLaw::ALL.len());
    }
}
