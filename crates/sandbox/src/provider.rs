//! The simulated sandbox provider: the source of cold-start and dispatch
//! latency samples every platform model draws from.

use crate::profile::SandboxProfiles;
use serde::{Deserialize, Serialize};
use xanadu_chain::IsolationLevel;
use xanadu_simcore::{RngStream, SimDuration, SimTime};

/// One sampled cold start, decomposed per the paper's Figure 1 components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColdStart {
    /// Environment provisioning latency.
    pub env_provision: SimDuration,
    /// Library download/setup latency.
    pub library_setup: SimDuration,
    /// Process startup latency.
    pub process_startup: SimDuration,
    /// Multiplicative penalty that was applied for concurrent provisioning
    /// (1.0 = none).
    pub concurrency_factor: f64,
}

impl ColdStart {
    /// Total cold-start latency.
    pub fn total(&self) -> SimDuration {
        self.env_provision + self.library_setup + self.process_startup
    }
}

/// The calibrated simulated provider.
///
/// Latencies are drawn from [`SandboxProfiles`]; container provisioning is
/// slowed when many provisions are in flight (the Docker concurrent-
/// scalability bottleneck of §3.2/§5.2 — this is what makes Xanadu JIT
/// slightly *faster* than Xanadu Speculative in Figure 12a). Draws are
/// deterministic given the construction seed, so simulated experiments
/// reproduce exactly.
///
/// # Example
///
/// ```
/// use xanadu_sandbox::SimSandboxProvider;
/// use xanadu_chain::IsolationLevel;
/// use xanadu_simcore::SimTime;
///
/// let mut p = SimSandboxProvider::new(42);
/// let cs = p.cold_start(IsolationLevel::Container, SimTime::ZERO);
/// let ms = cs.total().as_millis_f64();
/// assert!(ms > 2000.0 && ms < 4500.0, "container cold start ≈3000ms, got {ms}");
/// ```
#[derive(Debug, Clone)]
pub struct SimSandboxProvider {
    profiles: SandboxProfiles,
    rng: RngStream,
    /// Ready times of provisions still in flight, used to count concurrency.
    inflight: Vec<SimTime>,
}

impl SimSandboxProvider {
    /// Creates a provider with the paper-calibrated profiles and the given
    /// RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_profiles(SandboxProfiles::paper_defaults(), seed)
    }

    /// Creates a provider with custom profiles.
    pub fn with_profiles(profiles: SandboxProfiles, seed: u64) -> Self {
        SimSandboxProvider {
            profiles,
            rng: RngStream::derive(seed, "sandbox-provider"),
            inflight: Vec::new(),
        }
    }

    /// The provider's profiles.
    pub fn profiles(&self) -> &SandboxProfiles {
        &self.profiles
    }

    /// Number of provisions still in flight at `now` (after garbage-
    /// collecting finished ones).
    pub fn inflight_at(&mut self, now: SimTime) -> u32 {
        self.inflight.retain(|&ready| ready > now);
        self.inflight.len() as u32
    }

    /// Samples a cold start for `level` beginning at `now`. In-flight
    /// provisions are tracked to apply the concurrency penalty.
    pub fn cold_start(&mut self, level: IsolationLevel, now: SimTime) -> ColdStart {
        let concurrent = self.inflight_at(now) + 1; // include this provision
        let factor = self.profiles.concurrency_penalty(level).factor(concurrent);
        let prof = self.profiles.profile(level);
        let env = prof.env_provision.sample(&mut self.rng).mul_f64(factor);
        let lib = prof.library_setup.sample(&mut self.rng).mul_f64(factor);
        let start = prof.process_startup.sample(&mut self.rng).mul_f64(factor);
        let cs = ColdStart {
            env_provision: env,
            library_setup: lib,
            process_startup: start,
            concurrency_factor: factor,
        };
        self.inflight.push(now + cs.total());
        cs
    }

    /// Samples the warm-dispatch latency (queueing/signalling into an
    /// already warm worker).
    pub fn warm_dispatch(&mut self, level: IsolationLevel) -> SimDuration {
        self.profiles
            .profile(level)
            .warm_dispatch
            .sample(&mut self.rng)
    }

    /// Fraction of a CPU core consumed while provisioning a sandbox of
    /// `level`.
    pub fn provision_cpu_rate(&self, level: IsolationLevel) -> f64 {
        self.profiles.profile(level).provision_cpu_rate
    }

    /// Fraction of a CPU core consumed by a warm idle sandbox of `level`.
    pub fn idle_cpu_rate(&self, level: IsolationLevel) -> f64 {
        self.profiles.profile(level).idle_cpu_rate
    }

    /// Mean cold-start latency for planning purposes (ms).
    pub fn mean_cold_start_ms(&self, level: IsolationLevel) -> f64 {
        self.profiles.profile(level).mean_cold_start_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimSandboxProvider::new(7);
        let mut b = SimSandboxProvider::new(7);
        for _ in 0..10 {
            assert_eq!(
                a.cold_start(IsolationLevel::Container, SimTime::ZERO),
                b.cold_start(IsolationLevel::Container, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimSandboxProvider::new(1);
        let mut b = SimSandboxProvider::new(2);
        assert_ne!(
            a.cold_start(IsolationLevel::Process, SimTime::ZERO),
            b.cold_start(IsolationLevel::Process, SimTime::ZERO)
        );
    }

    #[test]
    fn cold_start_magnitudes_match_calibration() {
        let mut p = SimSandboxProvider::new(3);
        let mut means = std::collections::HashMap::new();
        for level in IsolationLevel::ALL {
            let mut total = 0.0;
            for i in 0..200 {
                // Space provisions far apart so no concurrency penalty.
                let t = SimTime::from_secs(i * 100);
                total += p.cold_start(level, t).total().as_millis_f64();
            }
            means.insert(level, total / 200.0);
        }
        assert!((means[&IsolationLevel::Container] - 3000.0).abs() < 200.0);
        assert!((means[&IsolationLevel::Process] - 1100.0).abs() < 120.0);
        assert!((means[&IsolationLevel::Isolate] - 900.0).abs() < 100.0);
    }

    #[test]
    fn concurrent_container_starts_are_penalized() {
        let mut p = SimSandboxProvider::new(5);
        // Ten simultaneous provisions: factors should rise monotonically.
        let factors: Vec<f64> = (0..10)
            .map(|_| {
                p.cold_start(IsolationLevel::Container, SimTime::ZERO)
                    .concurrency_factor
            })
            .collect();
        assert_eq!(factors[0], 1.0);
        assert!(factors[9] > factors[0]);
        for w in factors.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn inflight_expires_over_time() {
        let mut p = SimSandboxProvider::new(6);
        for _ in 0..5 {
            p.cold_start(IsolationLevel::Container, SimTime::ZERO);
        }
        assert!(p.inflight_at(SimTime::ZERO) >= 5);
        // Far in the future everything finished.
        assert_eq!(p.inflight_at(SimTime::from_mins(10)), 0);
        // A fresh provision then gets no penalty.
        let cs = p.cold_start(IsolationLevel::Container, SimTime::from_mins(10));
        assert_eq!(cs.concurrency_factor, 1.0);
    }

    #[test]
    fn isolates_never_penalized() {
        let mut p = SimSandboxProvider::new(8);
        for _ in 0..50 {
            let cs = p.cold_start(IsolationLevel::Isolate, SimTime::ZERO);
            assert_eq!(cs.concurrency_factor, 1.0);
        }
    }

    #[test]
    fn warm_dispatch_is_small() {
        // The container profile draws warm dispatch from roughly
        // Normal(100ms, 20ms), so bound the draw well above the mean —
        // the point is that dispatch stays orders of magnitude below the
        // multi-second cold starts, not that it lands under the mean.
        let mut p = SimSandboxProvider::new(9);
        for level in IsolationLevel::ALL {
            let d = p.warm_dispatch(level).as_millis_f64();
            assert!(d < 250.0, "{level}: {d}ms");
            assert!(d * 4.0 < p.mean_cold_start_ms(level), "{level}: {d}ms");
        }
    }

    #[test]
    fn rates_and_planning_means_exposed() {
        let p = SimSandboxProvider::new(10);
        assert!(p.provision_cpu_rate(IsolationLevel::Container) > 0.0);
        assert!(
            p.idle_cpu_rate(IsolationLevel::Container)
                < p.provision_cpu_rate(IsolationLevel::Container)
        );
        assert!(p.mean_cold_start_ms(IsolationLevel::Container) > 2000.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut p = SimSandboxProvider::new(11);
        let cs = p.cold_start(IsolationLevel::Process, SimTime::ZERO);
        assert_eq!(
            cs.total(),
            cs.env_provision + cs.library_setup + cs.process_startup
        );
    }
}
