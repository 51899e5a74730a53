//! # fluidsim — a fluid (ODE) model of coupled MPTCP congestion control
//!
//! The packet simulator answers "what happens"; the LP answers "what is
//! optimal". This crate answers the question in between: *where do the
//! window-update laws themselves settle?* Following the fluid-model
//! framework of Peng, Walid, Hwang & Low (*Multipath TCP: Analysis,
//! Design, and Implementation*, IEEE/ACM ToN 2016), each subflow `r` is a
//! continuous rate `x_r(t) = w_r(t) / rtt_r`, each shared link `l` carries
//! a congestion price `p_l(t)` (its stationary packet-loss probability),
//! and the per-ACK window updates of the discrete algorithms become the
//! drift
//!
//! ```text
//! dw_r/dt = (x_r / mss) · [ (1 − q_r) · inc_r  −  q_r · dec_r ]
//! dp_l/dt = γ · (y_l − c_l) / c_l     projected to p_l ≥ 0
//! ```
//!
//! with `q_r = Σ_{l ∈ r} p_l` the path loss, `y_l = Σ_{r ∋ l} x_r` the
//! link load, and `inc_r` / `dec_r` the *exact* per-ACK increase and
//! per-loss decrease of the implemented algorithms — the fluid laws call
//! straight into `mptcpsim::cc::{lia, olia, balia}`, so the two layers
//! cannot drift apart.
//!
//! The integrator is a fixed-step classic RK4 over virtual time: no wall
//! clock, no hash iteration, no randomness — a solve is a pure function of
//! (topology, paths, law, config) and reproduces bit-identically, which
//! [`FluidRun::digest`] pins down.
//!
//! * [`model`] — [`FluidModel`]: capacities, path–link incidence and RTTs
//!   extracted from any `netsim::Topology` + path set.
//! * [`law`] — [`FluidLaw`]: Reno, CUBIC-approx, LIA, OLIA, Balia.
//! * [`dynamics`] — the coupled drift field and its projections.
//! * [`ode`] — the fixed-step RK4 stepper.
//! * [`run`] — [`solve`]: equilibrium / limit-cycle / divergence detection
//!   and the [`FluidRun`] result mirroring `overlap_core`'s `RunResult`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod law;
pub mod model;
pub mod ode;
pub mod run;

pub use dynamics::{Dynamics, FluidParams};
pub use law::FluidLaw;
pub use model::{FluidLink, FluidModel};
pub use ode::Rk4;
pub use run::{solve, FluidConfig, FluidOutcome, FluidRun};
