//! The metrics engine: per-function and per-edge runtime profiles.

use crate::ema::Ema;
use crate::update_named;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xanadu_simcore::SimDuration;

/// EMA-smoothed runtime profile of one function (§3.2.2): cold-start time
/// (which is also the planner's sandbox startup time `S_c`) and warm-start
/// runtime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionProfile {
    cold_start_ms: Ema,
    warm_runtime_ms: Ema,
}

impl FunctionProfile {
    /// Creates an empty profile with the given smoothing factor.
    pub fn with_alpha(alpha: f64) -> Self {
        FunctionProfile {
            cold_start_ms: Ema::new(alpha),
            warm_runtime_ms: Ema::new(alpha),
        }
    }

    /// Estimated cold-start latency (ms), or `fallback` if unobserved.
    pub fn cold_start_ms(&self, fallback: f64) -> f64 {
        self.cold_start_ms.value_or(fallback)
    }

    /// Estimated warm-start runtime (ms). The JIT planner uses this "as a
    /// reasonable estimate of a function's lifetime" (§3.2.2).
    pub fn warm_runtime_ms(&self, fallback: f64) -> f64 {
        self.warm_runtime_ms.value_or(fallback)
    }
}

/// Collects runtime observations for every function of every workflow and
/// per-edge invocation delays for implicit chains.
///
/// # Example
///
/// ```
/// use xanadu_profiler::MetricsEngine;
/// use xanadu_simcore::SimDuration;
///
/// let mut m = MetricsEngine::new();
/// m.record_cold_start("pay", SimDuration::from_millis(3000));
/// m.record_warm_runtime("pay", SimDuration::from_millis(2500));
/// assert_eq!(m.profile("pay").unwrap().warm_runtime_ms(0.0), 2500.0);
/// ```
///
/// Every map is keyed by name and probed with a `&str`: a key is
/// allocated only when a name is first observed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsEngine {
    alpha: f64,
    profiles: HashMap<String, FunctionProfile>,
    /// Keyed by parent, then child (a `(String, String)` key could not be
    /// probed with borrowed halves); serialized as a list of `(parent,
    /// child, ema)` entries because JSON maps need string keys.
    #[serde(with = "invoke_delay_serde")]
    invoke_delays: HashMap<String, HashMap<String, Ema>>,
    /// Bumped on every recorded observation; consumers (the plan cache)
    /// use it to detect that estimates may have changed.
    #[serde(default)]
    epoch: u64,
}

mod invoke_delay_serde {
    use super::Ema;
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::HashMap;

    pub fn to_json(map: &HashMap<String, HashMap<String, Ema>>) -> Value {
        // Sort entries so the persisted document is deterministic
        // regardless of hash-map iteration order.
        let mut entries: Vec<(&String, &String, &Ema)> = map
            .iter()
            .flat_map(|(p, children)| children.iter().map(move |(c, e)| (p, c, e)))
            .collect();
        entries.sort_by_key(|(p, c, _)| (p.as_str(), c.as_str()));
        entries.to_json()
    }

    pub fn from_json(value: &Value) -> Result<HashMap<String, HashMap<String, Ema>>, Error> {
        let mut map: HashMap<String, HashMap<String, Ema>> = HashMap::new();
        for (p, c, e) in Vec::<(String, String, Ema)>::from_json(value)? {
            map.entry(p).or_default().insert(c, e);
        }
        Ok(map)
    }
}

impl MetricsEngine {
    /// Creates an engine with the default smoothing factor.
    pub fn new() -> Self {
        Self::with_alpha(Ema::DEFAULT_ALPHA)
    }

    /// Creates an engine with a custom smoothing factor.
    pub fn with_alpha(alpha: f64) -> Self {
        MetricsEngine {
            alpha,
            profiles: HashMap::new(),
            invoke_delays: HashMap::new(),
            epoch: 0,
        }
    }

    /// Monotonic change counter: bumped by every `record_*` call, so a
    /// cached product of this engine's estimates is valid exactly while
    /// the epoch it was computed at still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records `ms` into the EMA `field` selects from `function`'s
    /// profile.
    fn record(&mut self, function: &str, ms: f64, field: fn(&mut FunctionProfile) -> &mut Ema) {
        self.epoch += 1;
        let alpha = self.alpha;
        update_named(
            &mut self.profiles,
            function,
            || FunctionProfile::with_alpha(alpha),
            |profile| field(profile).record(ms),
        );
    }

    /// Records an observed cold-start latency for `function`.
    pub fn record_cold_start(&mut self, function: &str, latency: SimDuration) {
        self.record(function, latency.as_millis_f64(), |p| &mut p.cold_start_ms);
    }

    /// Records an observed warm-start runtime for `function`.
    pub fn record_warm_runtime(&mut self, function: &str, runtime: SimDuration) {
        self.record(function, runtime.as_millis_f64(), |p| {
            &mut p.warm_runtime_ms
        });
    }

    /// Records an observed parent→child invocation delay (implicit chains,
    /// §3.2.2).
    pub fn record_invoke_delay(&mut self, parent: &str, child: &str, delay: SimDuration) {
        self.epoch += 1;
        let alpha = self.alpha;
        update_named(&mut self.invoke_delays, parent, HashMap::new, |children| {
            update_named(
                children,
                child,
                || Ema::new(alpha),
                |ema| ema.record(delay.as_millis_f64()),
            );
        });
    }

    /// The profile of `function`, if any observation exists.
    pub fn profile(&self, function: &str) -> Option<&FunctionProfile> {
        self.profiles.get(function)
    }

    /// The estimated parent→child invocation delay (ms), or `None` if
    /// unobserved.
    pub fn invoke_delay_ms(&self, parent: &str, child: &str) -> Option<f64> {
        self.invoke_delays
            .get(parent)?
            .get(child)
            .and_then(Ema::value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_created_on_demand() {
        let mut m = MetricsEngine::new();
        assert!(m.profile("f").is_none());
        m.record_cold_start("f", SimDuration::from_millis(400));
        assert_eq!(m.profile("f").unwrap().cold_start_ms(0.0), 400.0);
        assert!(m.profile("g").is_none());
    }

    #[test]
    fn fallbacks_used_when_unobserved() {
        let mut m = MetricsEngine::new();
        m.record_cold_start("f", SimDuration::from_millis(3000));
        let p = m.profile("f").unwrap();
        assert_eq!(p.cold_start_ms(1.0), 3000.0);
        assert_eq!(p.warm_runtime_ms(777.0), 777.0);
    }

    #[test]
    fn ema_smoothing_applied() {
        let mut m = MetricsEngine::with_alpha(0.5);
        m.record_warm_runtime("f", SimDuration::from_millis(100));
        m.record_warm_runtime("f", SimDuration::from_millis(300));
        assert_eq!(m.profile("f").unwrap().warm_runtime_ms(0.0), 200.0);
    }

    #[test]
    fn invoke_delays_are_per_edge() {
        let mut m = MetricsEngine::new();
        m.record_invoke_delay("a", "b", SimDuration::from_millis(50));
        m.record_invoke_delay("a", "c", SimDuration::from_millis(90));
        assert_eq!(m.invoke_delay_ms("a", "b"), Some(50.0));
        assert_eq!(m.invoke_delay_ms("a", "c"), Some(90.0));
        assert_eq!(m.invoke_delay_ms("b", "a"), None);
    }

    #[test]
    fn separate_functions_do_not_interfere() {
        let mut m = MetricsEngine::new();
        m.record_cold_start("f", SimDuration::from_millis(1000));
        m.record_cold_start("g", SimDuration::from_millis(3000));
        assert_eq!(m.profile("f").unwrap().cold_start_ms(0.0), 1000.0);
        assert_eq!(m.profile("g").unwrap().cold_start_ms(0.0), 3000.0);
    }
}
