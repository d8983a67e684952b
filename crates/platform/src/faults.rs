//! Deterministic fault injection.
//!
//! Production DAG engines treat worker loss and stragglers as the common
//! case; a platform that only handles the happy path cannot claim graceful
//! degradation. This module supplies the *injection* half of that story: a
//! seeded [`FaultPlan`] that decides — purely from identities (worker id,
//! request id, node id, attempt number) and the fault seed — when a
//! sandbox dies and when an invocation stalls. The *recovery* half lives
//! in [`crate::Platform`]: timeouts, bounded retry with exponential
//! backoff, crash-aware pool repair, and plan re-planning.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Every draw comes from a child stream keyed on stable
//!   identities, never from shared mutable RNG state, so the same fault
//!   seed produces the same fault schedule regardless of event
//!   interleaving or how many runs share the process.
//! * **Isolation.** The fault streams are derived from their own seed,
//!   separate from the platform's branch/service/overhead streams. With
//!   faults disabled ([`FaultConfig::rate`] = 0) the platform's RNG
//!   sequences are untouched and every existing result is byte-identical.

use serde::{Deserialize, Serialize};
use xanadu_simcore::{RngStream, SimDuration, SimTime};

/// Serde default for [`FaultConfig::seed`].
fn default_fault_seed() -> u64 {
    0xFA17
}

/// Multiplier a latency spike applies to an invocation's service time.
pub const SPIKE_FACTOR: f64 = 8.0;

/// Per-invocation timeout: an attempt whose effective service time
/// exceeds it is aborted at the deadline and retried.
pub const INVOKE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Retry budget per (request, node). After this many failed attempts the
/// final attempt runs shielded (fresh worker, no injected fault), so every
/// request is guaranteed to terminate.
pub const MAX_RETRIES: u32 = 3;

/// Width of the uptime window a doomed host's failure instant is drawn
/// from, per epoch.
pub const HOST_MTBF: SimDuration = SimDuration::from_secs(120);

/// How long a failed host stays down before rebooting (while the platform
/// still has requests in flight).
pub const HOST_REBOOT: SimDuration = SimDuration::from_secs(30);

/// Base retry backoff, ms; attempt `n` waits `BACKOFF_MS · 2^n`.
const BACKOFF_MS: f64 = 200.0;

/// Backoff before retry attempt `attempt` (0-based): 200 ms · 2^n.
pub fn backoff(attempt: u32) -> SimDuration {
    SimDuration::from_millis_f64(BACKOFF_MS * f64::from(1u32 << attempt.min(16)))
}

/// Configuration of the fault injector.
///
/// `rate` is the master knob: the probability that any given worker
/// crashes during its lifetime, and independently that any given
/// invocation attempt suffers a latency spike. `0.0` (the default)
/// disables injection entirely — the platform behaves exactly as before
/// the fault subsystem existed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a worker crashes / an invocation
    /// attempt spikes. 0 disables fault injection.
    #[serde(default)]
    pub rate: f64,
    /// Seed of the fault RNG streams, independent of the platform seed so
    /// the same workload can be replayed under different fault schedules.
    #[serde(default = "default_fault_seed")]
    pub seed: u64,
    /// Probability in `[0, 1]` that a host fails during any one of its
    /// uptime epochs ([`HOST_MTBF`] wide; it reboots [`HOST_REBOOT`]
    /// later). 0 (the default) disables host failure injection,
    /// independently of the worker/invocation `rate`.
    #[serde(default)]
    pub host_failure_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            rate: 0.0,
            seed: default_fault_seed(),
            host_failure_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// Whether worker/invocation faults will be injected.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Whether host failures will be injected.
    pub fn hosts_enabled(&self) -> bool {
        self.host_failure_rate > 0.0
    }

    /// Convenience constructor: the default schedule at `rate` with a
    /// specific fault seed.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        FaultConfig {
            rate,
            seed,
            ..Default::default()
        }
    }
}

/// The seeded fault schedule. All decisions are pure functions of stable
/// identities, so the schedule is independent of event interleaving.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng_worker: RngStream,
    rng_invoke: RngStream,
    rng_host: RngStream,
}

impl FaultPlan {
    /// Builds the plan for `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            rng_worker: RngStream::derive(config.seed, "fault-worker"),
            rng_invoke: RngStream::derive(config.seed, "fault-invoke"),
            rng_host: RngStream::derive(config.seed, "fault-host"),
            config,
        }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether worker/invocation faults will be injected.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Whether host failures will be injected.
    pub fn hosts_enabled(&self) -> bool {
        self.config.hosts_enabled()
    }

    /// Decides whether (and when) worker `worker` crashes.
    ///
    /// A doomed worker gets one absolute crash instant drawn uniformly
    /// over `[provisioned, ready + 60 s)` — covering startup (crash before
    /// `ready`: a sandbox startup failure), warm idling, and execution.
    /// What the crash *means* is decided by the worker's state when the
    /// crash event fires, not here.
    pub fn crash_time(&self, worker: u64, provisioned: SimTime, ready: SimTime) -> Option<SimTime> {
        if !self.enabled() {
            return None;
        }
        let mut rng = self.rng_worker.child(worker);
        if rng.next_f64() >= self.config.rate {
            return None;
        }
        let startup = ready.saturating_since(provisioned);
        let window = startup + startup + SimDuration::from_secs(60);
        let offset_ms = rng.next_f64() * window.as_millis_f64();
        Some(provisioned + SimDuration::from_millis_f64(offset_ms))
    }

    /// Decides whether (and when) host `host` fails during uptime epoch
    /// `epoch` starting at `up_since`.
    ///
    /// Like [`crash_time`](FaultPlan::crash_time), the decision is a pure
    /// function of identities — `(host, epoch)` keys a child stream — so
    /// the host failure schedule is independent of event interleaving. A
    /// doomed epoch gets one failure instant drawn uniformly over
    /// `[up_since, up_since + HOST_MTBF)`.
    pub fn host_crash_time(&self, host: u32, epoch: u32, up_since: SimTime) -> Option<SimTime> {
        if !self.hosts_enabled() {
            return None;
        }
        let key = u64::from(host) | (u64::from(epoch) << 32);
        let mut rng = self.rng_host.child(key);
        if rng.next_f64() >= self.config.host_failure_rate {
            return None;
        }
        let offset_ms = rng.next_f64() * HOST_MTBF.as_millis_f64();
        Some(up_since + SimDuration::from_millis_f64(offset_ms))
    }

    /// Decides whether attempt `attempt` of invoking `node` for request
    /// `req` suffers a latency spike (its service time times
    /// [`SPIKE_FACTOR`]).
    pub fn spike(&self, req: u64, node: usize, attempt: u32) -> bool {
        if !self.enabled() {
            return false;
        }
        let key =
            req.wrapping_mul(1_000_003) ^ (node as u64).wrapping_mul(10_007) ^ u64::from(attempt);
        self.rng_invoke.child(key).next_f64() < self.config.rate
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(FaultConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig::with_rate(rate, 99))
    }

    #[test]
    fn disabled_injects_nothing() {
        let p = plan(0.0);
        assert!(!p.enabled());
        for w in 0..200 {
            assert_eq!(p.crash_time(w, SimTime::ZERO, SimTime::from_secs(3)), None);
            assert!(!p.spike(w, 0, 0));
        }
    }

    #[test]
    fn full_rate_dooms_every_worker_and_attempt() {
        let p = plan(1.0);
        for w in 0..50 {
            let t = p
                .crash_time(w, SimTime::from_secs(1), SimTime::from_secs(4))
                .expect("rate 1.0 crashes all");
            assert!(t >= SimTime::from_secs(1));
            // Window: provisioned + 2·startup + 60 s = 1 + 6 + 60 = 67 s.
            assert!(t < SimTime::from_secs(67));
            assert!(p.spike(w, 3, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let a = plan(0.3);
        let b = plan(0.3);
        // Query in opposite orders: identity-keyed child streams must give
        // identical answers.
        let fwd: Vec<_> = (0..100)
            .map(|w| a.crash_time(w, SimTime::ZERO, SimTime::from_secs(2)))
            .collect();
        let rev: Vec<_> = (0..100)
            .rev()
            .map(|w| b.crash_time(w, SimTime::ZERO, SimTime::from_secs(2)))
            .collect();
        let rev_fwd: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
        assert!(fwd.iter().any(Option::is_some));
        assert!(fwd.iter().any(Option::is_none));
        // Repeated queries agree too (no internal state consumed).
        for w in 0..100 {
            assert_eq!(
                a.crash_time(w, SimTime::ZERO, SimTime::from_secs(2)),
                fwd[w as usize]
            );
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(FaultConfig::with_rate(0.5, 1));
        let b = FaultPlan::new(FaultConfig::with_rate(0.5, 2));
        let sa: Vec<_> = (0..200).map(|w| a.spike(w, 0, 0)).collect();
        let sb: Vec<_> = (0..200).map(|w| b.spike(w, 0, 0)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn spike_varies_by_attempt() {
        // A spiked first attempt must not doom every retry: the attempt
        // number is part of the key.
        let p = plan(0.5);
        let outcomes: Vec<bool> = (0..32).map(|a| p.spike(7, 2, a)).collect();
        assert!(outcomes.iter().any(|&s| s));
        assert!(outcomes.iter().any(|&s| !s));
    }

    #[test]
    fn backoff_is_exponential() {
        assert_eq!(backoff(0), SimDuration::from_millis_f64(200.0));
        assert_eq!(backoff(1), SimDuration::from_millis_f64(400.0));
        assert_eq!(backoff(3), SimDuration::from_millis_f64(1600.0));
    }

    #[test]
    fn config_serde_defaults() {
        let c: FaultConfig = serde_json::from_str("{\"rate\": 0.25}").unwrap();
        assert_eq!(c.rate, 0.25);
        assert_eq!(c.seed, 0xFA17);
        assert!(c.enabled());
        assert!(!c.hosts_enabled());
        // A document naming the host lifetimes, which are constants now,
        // still parses.
        let old: FaultConfig =
            serde_json::from_str("{\"host_mtbf_ms\": 1.0, \"host_reboot_ms\": 1.0}").unwrap();
        assert_eq!(old, FaultConfig::default());
    }

    /// Host failures at `host_failure_rate` with fault seed `seed`;
    /// worker and invocation faults stay off.
    fn host_faults(host_failure_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            host_failure_rate,
            ..FaultConfig::with_rate(0.0, seed)
        }
    }

    #[test]
    fn host_failures_are_independent_of_worker_faults() {
        let p = FaultPlan::new(host_faults(1.0, 7));
        assert!(!p.enabled());
        assert!(p.hosts_enabled());
        // Worker faults stay off; every host epoch is doomed.
        assert_eq!(p.crash_time(0, SimTime::ZERO, SimTime::from_secs(1)), None);
        let t = p
            .host_crash_time(0, 0, SimTime::from_secs(10))
            .expect("rate 1.0 fails every epoch");
        assert!(t >= SimTime::from_secs(10));
        assert!(t < SimTime::from_secs(130), "within the mtbf window");
    }

    #[test]
    fn host_crash_times_are_keyed_by_host_and_epoch() {
        let a = FaultPlan::new(host_faults(0.5, 3));
        let b = FaultPlan::new(host_faults(0.5, 3));
        let fwd: Vec<_> = (0..64)
            .flat_map(|h| (0..4).map(move |e| (h, e)))
            .map(|(h, e)| a.host_crash_time(h, e, SimTime::ZERO))
            .collect();
        let rev: Vec<_> = (0..64)
            .flat_map(|h| (0..4).map(move |e| (h, e)))
            .rev()
            .map(|(h, e)| b.host_crash_time(h, e, SimTime::ZERO))
            .collect();
        let rev_fwd: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
        assert!(fwd.iter().any(Option::is_some));
        assert!(fwd.iter().any(Option::is_none));
        // Consecutive epochs of the same host draw independently.
        let per_epoch: Vec<bool> = (0..32)
            .map(|e| a.host_crash_time(5, e, SimTime::ZERO).is_some())
            .collect();
        assert!(per_epoch.iter().any(|&s| s));
        assert!(per_epoch.iter().any(|&s| !s));
    }
}
