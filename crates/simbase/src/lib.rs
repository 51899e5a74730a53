//! # simbase — deterministic discrete-event simulation primitives
//!
//! This crate holds the small, dependency-free building blocks shared by the
//! whole workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time with
//!   saturating/checked arithmetic, so a run is bit-for-bit reproducible.
//! * [`EventQueue`] — a hierarchical-timing-wheel event queue with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant and first-class cancellation tokens (a `ref-heap`-gated
//!   binary-heap reference backend supports differential testing).
//! * [`Bandwidth`] / [`ByteSize`] — strongly typed units so "40" can never be
//!   silently read as megabits when bytes were meant, plus exact
//!   transmission-time computation in integer arithmetic.
//! * [`SplitMix64`] / [`Xoshiro256StarStar`] — tiny, seedable, portable PRNGs
//!   (no platform entropy) so every simulation is replayable from its seed.
//! * [`Fnv64`] — the FNV-1a/64 accumulator behind every stable digest
//!   (trace hashes, scenario digests, fluid-run digests).
//!
//! Everything here is `no_std`-shaped in spirit (no I/O, no threads, no
//! clocks); the simulator above it supplies all effects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod event;
pub mod rng;
pub mod time;
pub mod units;

pub use digest::Fnv64;
pub use event::{EventQueue, ScheduledEvent};
pub use rng::{SimRng, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize};
