//! The cost model of §2.4: latency overhead, resource overheads, and the
//! joint penalty factors.
//!
//! * **`C_D`** (Equation 1) — the latency a workflow pays beyond the
//!   execution of its functions: `C_D = R_F − Σ rᵢ` for linear chains, and
//!   beyond the *longest path* for general DAGs.
//! * **`C_R_cpu`** — aggregate CPU-seconds spent by workers *before* they
//!   start executing a request: CPU burnt while provisioning plus CPU
//!   trickle while idling warm.
//! * **`C_R_mem`** (Equation 2) — `Σ memᵢ · (r_totalᵢ − r_execᵢ)`:
//!   megabyte-seconds of memory held while not executing. Memory is
//!   charged from sandbox readiness (when the runtime's allocation
//!   exists) until first use — which is why speculative deployment's
//!   long-idling tail workers blow this cost up (§5.2) while cold
//!   on-demand workers pay almost nothing.
//! * **`φ_cpu` / `φ_mem`** — the joint penalties `C_R · C_D`, the single
//!   figure a provider should minimize.

use serde::{Deserialize, Serialize};
use xanadu_sandbox::WorkerRecord;
use xanadu_simcore::SimDuration;

/// Resource provisioning overhead of a set of workers.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceCosts {
    /// CPU-seconds consumed before workers started serving
    /// (provisioning burn + idle trickle).
    pub cpu_s: f64,
    /// Megabyte-seconds of memory held while idle before (and after) use.
    pub mem_mbs: f64,
}

impl ResourceCosts {
    /// Accumulates another cost.
    pub fn add(&mut self, other: ResourceCosts) {
        self.cpu_s += other.cpu_s;
        self.mem_mbs += other.mem_mbs;
    }
}

/// Rates needed to integrate a worker's timeline into CPU cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuRates {
    /// Fraction of a core consumed while provisioning.
    pub provision_rate: f64,
    /// Fraction of a core consumed while warm and idle.
    pub idle_rate: f64,
}

/// Computes the `C_R` resource costs of one worker from its lifetime
/// record.
///
/// Both costs integrate the *pre-first-use* window, per the paper's
/// definition of `C_R` ("resources provisioned and locked before the actual
/// function execution begins", §2.4):
///
/// * CPU: `provision_rate · provision_time + idle_rate · prestart_idle`;
/// * memory: `memory_mb · prestart_idle`.
///
/// Workers that never execute are charged their entire idle lifetime (pure
/// waste from mispredicted speculation), because for them `prestart_idle`
/// spans readiness to death.
pub fn worker_resource_cost(record: &WorkerRecord, rates: CpuRates) -> ResourceCosts {
    let cpu_s = rates.provision_rate * record.provision_time.as_secs_f64()
        + rates.idle_rate * record.prestart_idle.as_secs_f64();
    let mem_mbs = record.memory_mb as f64 * record.prestart_idle.as_secs_f64();
    ResourceCosts { cpu_s, mem_mbs }
}

/// Computes a worker's *steady-state* resource cost: like
/// [`worker_resource_cost`] but integrating the worker's **entire idle
/// lifetime**, not only the pre-first-use window. This is the provider's
/// continuous bill for long-running pre-crafted worker pools — the
/// §6-related-work approach the paper argues against ("the overhead
/// running costs of a long-running pool can be significant").
pub fn worker_steady_cost(record: &WorkerRecord, rates: CpuRates) -> ResourceCosts {
    let cpu_s = rates.provision_rate * record.provision_time.as_secs_f64()
        + rates.idle_rate * record.total_idle.as_secs_f64();
    let mem_mbs = record.memory_mb as f64 * record.total_idle.as_secs_f64();
    ResourceCosts { cpu_s, mem_mbs }
}

/// The joint penalty factors of §2.4.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PenaltyFactors {
    /// `φ_cpu = C_R_cpu · C_D`, in s².
    pub phi_cpu_s2: f64,
    /// `φ_mem = C_R_mem · C_D`, in MB·s².
    pub phi_mem_mbs2: f64,
}

/// Full cost summary of one workflow run (or an aggregate of runs).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkflowRunCosts {
    /// Latency overhead `C_D`.
    pub c_d: SimDuration,
    /// Resource overheads `C_R`.
    pub resources: ResourceCosts,
}

impl WorkflowRunCosts {
    /// The joint penalties `φ = C_R · C_D`.
    pub fn penalties(&self) -> PenaltyFactors {
        let cd_s = self.c_d.as_secs_f64();
        PenaltyFactors {
            phi_cpu_s2: self.resources.cpu_s * cd_s,
            phi_mem_mbs2: self.resources.mem_mbs * cd_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::IsolationLevel;
    use xanadu_sandbox::WorkerId;

    fn record(
        provision_ms: u64,
        prestart_idle_ms: u64,
        total_idle_ms: u64,
        mem_mb: u32,
        used: bool,
    ) -> WorkerRecord {
        WorkerRecord {
            id: WorkerId(0),
            function: "f".into(),
            isolation: IsolationLevel::Container,
            memory_mb: mem_mb,
            provision_time: SimDuration::from_millis(provision_ms),
            prestart_idle: SimDuration::from_millis(prestart_idle_ms),
            total_idle: SimDuration::from_millis(total_idle_ms),
            busy_total: SimDuration::from_millis(if used { 500 } else { 0 }),
            served: used as u64,
            ever_used: used,
            crashed: false,
        }
    }

    const RATES: CpuRates = CpuRates {
        provision_rate: 1.0,
        idle_rate: 0.01,
    };

    #[test]
    fn cold_worker_pays_mostly_provisioning() {
        // Cold on-demand: ~no idle before execution.
        let r = record(3000, 20, 20, 512, true);
        let c = worker_resource_cost(&r, RATES);
        assert!((c.cpu_s - (3.0 + 0.01 * 0.02)).abs() < 1e-9);
        assert!((c.mem_mbs - 512.0 * 0.02).abs() < 1e-9);
    }

    #[test]
    fn speculative_tail_worker_pays_idle_memory() {
        // Speculatively deployed at t=0, used 45 s later.
        let r = record(3000, 45_000, 45_000, 512, true);
        let c = worker_resource_cost(&r, RATES);
        assert!((c.mem_mbs - 512.0 * 45.0).abs() < 1e-9);
        // CPU only grows a little: idle trickle is cheap.
        assert!((c.cpu_s - (3.0 + 0.45)).abs() < 1e-9);
    }

    #[test]
    fn memory_cost_ratio_matches_paper_magnitude() {
        // §5.2: Speculative memory cost can be ~250× Cold. A cold worker
        // idles ~20 ms pre-exec; a speculated tail worker ~5 s per hop over
        // a 10-deep chain.
        let cold: ResourceCosts = worker_resource_cost(&record(3000, 20, 20, 512, true), RATES);
        let spec = worker_resource_cost(&record(3000, 22_500, 22_500, 512, true), RATES);
        let ratio = spec.mem_mbs / cold.mem_mbs;
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn unused_worker_is_pure_waste() {
        let r = record(3000, 60_000, 60_000, 256, false);
        let c = worker_resource_cost(&r, RATES);
        assert!((c.mem_mbs - 256.0 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn steady_cost_charges_whole_idle_lifetime() {
        // A pool worker: used quickly once, then idle for an hour.
        let r = record(3000, 50, 3_600_000, 512, true);
        let pre = worker_resource_cost(&r, RATES);
        let steady = worker_steady_cost(&r, RATES);
        assert!((pre.mem_mbs - 512.0 * 0.05).abs() < 1e-9);
        assert!((steady.mem_mbs - 512.0 * 3600.0).abs() < 1e-6);
        assert!(steady.cpu_s > pre.cpu_s);
    }

    #[test]
    fn penalties_multiply_units() {
        let run = WorkflowRunCosts {
            c_d: SimDuration::from_secs(2),
            resources: ResourceCosts {
                cpu_s: 3.0,
                mem_mbs: 1024.0,
            },
        };
        let p = run.penalties();
        assert!((p.phi_cpu_s2 - 6.0).abs() < 1e-9);
        assert!((p.phi_mem_mbs2 - 2048.0).abs() < 1e-9);
    }

    #[test]
    fn zero_overhead_zeroes_penalties() {
        let run = WorkflowRunCosts {
            c_d: SimDuration::ZERO,
            resources: ResourceCosts {
                cpu_s: 100.0,
                mem_mbs: 100.0,
            },
        };
        assert_eq!(run.penalties(), PenaltyFactors::default());
    }
}
