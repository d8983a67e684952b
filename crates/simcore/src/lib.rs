//! # xanadu-simcore
//!
//! Deterministic discrete-event simulation (DES) kernel underpinning the
//! Xanadu reproduction.
//!
//! The Xanadu paper evaluates a serverless orchestrator whose experiments
//! span tens of simulated hours (keep-alive studies) down to millisecond
//! cold-start profiles. To reproduce every figure deterministically and in
//! seconds of wall-clock time, all platform models in this workspace run on
//! a *virtual clock* provided by this crate:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`EventQueue`] — a deterministic future-event list with stable
//!   tie-breaking (equal timestamps pop in insertion order), backed by a
//!   calendar queue with a heap overflow for far-future events.
//! * [`Interner`] — dense `u32` ids for workflow/function names so the
//!   event hot path moves `Copy` payloads instead of `String`s.
//! * [`RngStream`] — named, independently seeded random-number streams so
//!   adding a new consumer of randomness never perturbs existing ones.
//! * [`Distribution`] — latency/service-time distributions (constant,
//!   uniform, truncated normal, log-normal, exponential) with serde support.
//! * [`stats`] — linear regression with R² (used to reproduce the paper's
//!   linearity claims).
//! * [`report`] — plain-text table/series rendering used by the experiment
//!   harness to print each paper table and figure.
//!
//! # Example
//!
//! ```
//! use xanadu_simcore::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Depart(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), Ev::Arrive(1));
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(2), Ev::Arrive(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(2));
//! assert_eq!(ev, Ev::Arrive(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod events;
mod interner;
pub mod report;
mod rng;
pub mod stats;
mod time;

pub use dist::{Distribution, SampleError};
pub use events::{EventQueue, ScheduledEvent};
pub use interner::{Interner, Sym};
pub use rng::{fnv1a64, fnv1a64_digest, Fnv1a64, RngStream};
pub use time::{SimDuration, SimTime};
