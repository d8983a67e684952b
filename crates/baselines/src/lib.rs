//! # xanadu-baselines
//!
//! Emulated baseline serverless platforms, calibrated to the measurements
//! reported in the Xanadu paper: the open-source platforms the paper
//! benchmarks against (Knative, Apache OpenWhisk, §5) and the public-cloud
//! workflow services it characterizes (AWS Step Functions, Azure Durable
//! Functions, §2.3).
//!
//! All four baselines are *chaining-agnostic* (the paper's Observation:
//! "current FaaS platforms treat functions as autonomous entities … and
//! hence are chaining agnostic"): they run in
//! [`ExecutionMode::Cold`](xanadu_core::speculation::ExecutionMode::Cold)
//! with no speculation, so every function of a chain pays its own cold
//! start on a cold trigger. What differs between them is the latency
//! profile and pool policy, which is exactly what [`calibration`]
//! documents constant-by-constant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
mod kinds;

pub use kinds::{baseline_platform, baseline_setup, BaselineKind};
