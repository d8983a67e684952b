//! # xanadu-chain
//!
//! Workflow model for serverless *function chains* as defined in §2.1 of the
//! Xanadu paper: directed acyclic graphs of functions with 1:1, 1:m
//! (multicast), XOR-cast, m:1 (barrier) and m:n relationships.
//!
//! The crate provides:
//!
//! * [`FunctionSpec`] — per-function deployment parameters (memory,
//!   isolation sandbox, service-time model), mirroring the paper's
//!   function-block parameters (§4, Listing 1).
//! * [`WorkflowDag`] — the validated DAG with ground-truth branch
//!   probabilities used to drive simulated executions, plus structural
//!   queries (roots, levels, depth, conditional points, critical path).
//! * [`WorkflowBuilder`] — an ergonomic programmatic constructor.
//! * [`sdl`] — the JSON state-definition language of Listing 1
//!   (`function` / `conditional` / `branch` blocks), parsed to and
//!   serialized from [`WorkflowDag`].
//!
//! # Example
//!
//! ```
//! use xanadu_chain::{WorkflowBuilder, FunctionSpec, IsolationLevel};
//!
//! let mut b = WorkflowBuilder::new("pipeline");
//! let scale = b.add(FunctionSpec::new("scale").service_ms(400.0))?;
//! let rotate = b.add(FunctionSpec::new("rotate").service_ms(600.0))?;
//! b.link(scale, rotate)?;
//! let dag = b.build()?;
//! assert_eq!(dag.depth(), 2);
//! assert_eq!(dag.node(scale).spec().isolation_level(), IsolationLevel::Container);
//! # Ok::<(), xanadu_chain::ChainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod condition;
mod dag;
mod dot;
mod error;
mod id;
mod isolation;
mod nodeset;
pub mod sdl;
mod spec;

pub use builder::{linear_chain, WorkflowBuilder};
pub use condition::Condition;
pub use dag::{BranchMode, DeclaredOutputs, Edge, NodeData, WorkflowDag, XorDecision};
pub use dot::to_dot;
pub use error::ChainError;
pub use id::NodeId;
pub use isolation::IsolationLevel;
pub use nodeset::NodeSet;
pub use spec::FunctionSpec;
