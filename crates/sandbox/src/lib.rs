//! # xanadu-sandbox
//!
//! The isolation-sandbox substrate of the Xanadu reproduction.
//!
//! The paper executes functions inside *workers* — sandboxes at one of
//! three isolation granularities (§4): V8-style isolates, OS processes, and
//! Docker-style containers. The dominant performance effect the paper
//! studies is the sandbox **cold start**: environment provisioning, library
//! download/setup, and process startup (§1, Figure 1).
//!
//! This crate provides:
//!
//! * [`profile`] — calibrated cold-start latency profiles per
//!   [`IsolationLevel`](xanadu_chain::IsolationLevel), each constant
//!   documented against the paper sentence it reproduces, plus the
//!   Docker-style *concurrent provisioning bottleneck* model.
//! * [`Worker`] / [`WorkerRecord`] — worker lifecycle
//!   (provisioning → warm → busy → dead) with the timeline bookkeeping the
//!   paper's cost model needs (`C_R` in §2.4: CPU and memory spent before a
//!   worker first executes).
//! * [`WorkerPool`] — warm-worker pools with keep-alive reclamation and an
//!   optional pool-size cap (modelling OpenWhisk's limited warm pool,
//!   §2.3).
//! * [`SimSandboxProvider`] — the discrete-event provider every platform
//!   model holds and every simulated experiment draws from.
//! * [`os_process`] — a standalone demonstration of the worker lifecycle
//!   and pre-warming against real OS processes; the simulated platform
//!   does not run through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod os_process;
mod pool;
pub mod profile;
mod provider;
mod worker;

pub use pool::{PoolConfig, WorkerPool};
pub use provider::{ColdStart, SimSandboxProvider};
pub use worker::{Worker, WorkerId, WorkerRecord, WorkerState};
