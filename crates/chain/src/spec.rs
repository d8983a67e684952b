//! Per-function deployment parameters.

use crate::error::ChainError;
use crate::isolation::IsolationLevel;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Arc;
use xanadu_simcore::Distribution;

/// Deployment parameters for one function of a workflow, mirroring the
/// function-block fields of the paper's state-definition language (§4,
/// Listing 1): memory allocation, isolation sandbox, plus the ground-truth
/// service-time model used when simulating the function body.
///
/// `FunctionSpec` is a consuming builder: chain configuration calls and pass
/// the result to [`WorkflowBuilder::add`].
///
/// [`WorkflowBuilder::add`]: crate::WorkflowBuilder::add
///
/// # Example
///
/// ```
/// use xanadu_chain::{FunctionSpec, IsolationLevel};
///
/// let spec = FunctionSpec::new("payment")
///     .memory_mb(512)
///     .isolation(IsolationLevel::Process)
///     .service_ms(2500.0);
/// assert_eq!(spec.name(), "payment");
/// assert_eq!(spec.memory(), 512);
/// assert_eq!(spec.mean_service_ms(), 2500.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Shared by every worker, record, event and result that names the
    /// function: they clone this `Arc` instead of copying the string.
    name: Arc<str>,
    memory_mb: u32,
    isolation: IsolationLevel,
    service: Distribution,
    /// Declared (static) JSON output of the function, if any — the data
    /// that conditional blocks compare against (`docs/SDL.md`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    output: Option<Value>,
}

/// The paper deploys functions with 512 MB unless stated otherwise.
pub(crate) const DEFAULT_MEMORY_MB: u32 = 512;
/// Default service time when none is configured (the paper's "short
/// function" reference point of 500 ms).
pub(crate) const DEFAULT_SERVICE_MS: f64 = 500.0;

impl FunctionSpec {
    /// Creates a spec with defaults: 512 MB, container isolation, constant
    /// 500 ms service time. The name is copied once into the shared
    /// [`shared_name`](Self::shared_name).
    pub fn new(name: impl Into<String>) -> Self {
        FunctionSpec {
            name: Arc::from(name.into()),
            memory_mb: DEFAULT_MEMORY_MB,
            isolation: IsolationLevel::default(),
            service: Distribution::Constant {
                value_ms: DEFAULT_SERVICE_MS,
            },
            output: None,
        }
    }

    /// Sets the memory allocation in MB.
    pub fn memory_mb(mut self, mb: u32) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Sets the isolation sandbox.
    pub fn isolation(mut self, level: IsolationLevel) -> Self {
        self.isolation = level;
        self
    }

    /// Sets a constant service time in milliseconds. Negative or non-finite
    /// values are clamped to zero (validation proper happens in
    /// [`validate`](Self::validate)).
    pub fn service_ms(mut self, ms: f64) -> Self {
        let ms = if ms.is_finite() { ms.max(0.0) } else { 0.0 };
        self.service = Distribution::Constant { value_ms: ms };
        self
    }

    /// Sets the full service-time distribution.
    pub fn service(mut self, dist: Distribution) -> Self {
        self.service = dist;
        self
    }

    /// Declares the function's (static) JSON output, consumed by
    /// data-driven conditionals.
    pub fn with_output(mut self, output: Value) -> Self {
        self.output = Some(output);
        self
    }

    /// The function's name (unique within a workflow).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's name as the one shared allocation every holder
    /// clones.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// A copy of the spec under an already shared name (how
    /// [`linear_chain`](crate::linear_chain) stamps its functions out of
    /// a template). The template's own name is not touched.
    pub(crate) fn renamed(&self, name: Arc<str>) -> Self {
        FunctionSpec {
            name,
            memory_mb: self.memory_mb,
            isolation: self.isolation,
            service: self.service.clone(),
            output: self.output.clone(),
        }
    }

    /// Memory allocation in MB.
    pub fn memory(&self) -> u32 {
        self.memory_mb
    }

    /// The isolation sandbox.
    pub fn isolation_level(&self) -> IsolationLevel {
        self.isolation
    }

    /// The ground-truth service-time distribution.
    pub fn service_dist(&self) -> &Distribution {
        &self.service
    }

    /// Mean service time in milliseconds.
    pub fn mean_service_ms(&self) -> f64 {
        self.service.mean_ms()
    }

    /// The declared JSON output, if any.
    pub fn output(&self) -> Option<&Value> {
        self.output.as_ref()
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidSpec`] if the name is empty or the
    /// memory allocation is zero.
    pub fn validate(&self) -> Result<(), ChainError> {
        if self.name.trim().is_empty() {
            return Err(ChainError::InvalidSpec("function name is empty".into()));
        }
        if self.memory_mb == 0 {
            return Err(ChainError::InvalidSpec(format!(
                "function `{}` has zero memory allocation",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_conventions() {
        let s = FunctionSpec::new("f");
        assert_eq!(s.memory(), 512);
        assert_eq!(s.isolation_level(), IsolationLevel::Container);
        assert_eq!(s.mean_service_ms(), 500.0);
    }

    #[test]
    fn builder_chains() {
        let s = FunctionSpec::new("g")
            .memory_mb(128)
            .isolation(IsolationLevel::Isolate)
            .service_ms(42.0);
        assert_eq!(s.memory(), 128);
        assert_eq!(s.isolation_level(), IsolationLevel::Isolate);
        assert_eq!(s.mean_service_ms(), 42.0);
    }

    #[test]
    fn service_ms_clamps_bad_values() {
        assert_eq!(
            FunctionSpec::new("f").service_ms(-5.0).mean_service_ms(),
            0.0
        );
        assert_eq!(
            FunctionSpec::new("f")
                .service_ms(f64::NAN)
                .mean_service_ms(),
            0.0
        );
    }

    #[test]
    fn custom_distribution_service() {
        let d = Distribution::uniform(100.0, 300.0).unwrap();
        let s = FunctionSpec::new("f").service(d.clone());
        assert_eq!(s.service_dist(), &d);
        assert_eq!(s.mean_service_ms(), 200.0);
    }

    #[test]
    fn declared_output_roundtrips() {
        let s = FunctionSpec::new("f").with_output(serde_json::json!({"score": 12}));
        assert_eq!(s.output().unwrap()["score"], 12);
        assert_eq!(FunctionSpec::new("g").output(), None);
        let json = serde_json::to_string(&s).unwrap();
        let back: FunctionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validate_rejects_empty_name_and_zero_memory() {
        assert!(FunctionSpec::new("").validate().is_err());
        assert!(FunctionSpec::new("  ").validate().is_err());
        assert!(FunctionSpec::new("ok").memory_mb(0).validate().is_err());
        assert!(FunctionSpec::new("ok").validate().is_ok());
    }
}
