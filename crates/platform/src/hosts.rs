//! Dispatch Daemons: the cluster scheduling layer.
//!
//! In the paper's architecture (Figure 11) "the Dispatch Daemon (DD) runs
//! on individual host machines and performs resource provisioning and
//! maintenance of Xanadu workers", while the central Dispatch Manager
//! decides *what* to provision. This module models that layer as a full
//! cluster scheduler:
//!
//! * **Per-host capacity** plus a **provisioning-contention curve**: each
//!   concurrent provision on a host inflates cold starts by the host's
//!   `contention_alpha` (the Docker concurrency bottleneck of §2.3).
//! * **Pluggable placement**: round-robin, least-loaded, first-fit,
//!   seeded random, and *affinity* — co-locate a request's chain
//!   neighbors on one host (per ICPS, co-location cuts invocation delay
//!   because warm-container retargeting is host-local).
//! * **Tenant quotas with weighted fair admission**: on-demand placements
//!   are admitted up to the tenant's quota; speculative placements only
//!   up to its weighted fair share of the live capacity, so a hot tenant
//!   cannot starve others with pre-deployments.
//! * **Host lifecycle for autoscaling and fault injection**: hosts are
//!   `Up`, `Booting` or `Down`; the registry reserves deterministic host
//!   ids for scale-ups and drains failed hosts so the platform can
//!   re-place their workers.
//!
//! Placement matters for the cost model: a saturated host delays
//! provisioning (the request queues at the daemon), and co-locating many
//! provisioning containers on one host amplifies the Docker concurrency
//! bottleneck. The default single-host registry reproduces the paper's
//! single 64-core testbed byte-for-byte.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use xanadu_sandbox::WorkerId;
use xanadu_simcore::{fnv1a64, RngStream};

/// Identifier of a host (a machine running a Dispatch Daemon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Static description of one host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Human-readable name.
    pub name: String,
    /// Memory capacity in MB available to workers.
    pub memory_mb: u64,
    /// Provisioning-contention slope: each *other* worker concurrently
    /// provisioning on this host inflates a cold start by this fraction
    /// (`total · (1 + alpha · concurrent)`). 0 (the default) disables the
    /// curve, keeping single-host runs byte-identical to the pre-cluster
    /// model.
    #[serde(default)]
    pub contention_alpha: f64,
}

impl HostSpec {
    /// A host with `memory_mb` MB and no contention curve.
    pub fn new(name: impl Into<String>, memory_mb: u64) -> Self {
        HostSpec {
            name: name.into(),
            memory_mb,
            contention_alpha: 0.0,
        }
    }

    /// Builder-style contention-curve override.
    pub fn with_contention(mut self, alpha: f64) -> Self {
        self.contention_alpha = alpha;
        self
    }
}

/// How the Dispatch Manager chooses a host for a new worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Cycle through hosts regardless of load.
    RoundRobin,
    /// Choose the host with the most free memory (default; ties broken by
    /// host id for determinism).
    #[default]
    LeastLoaded,
    /// Choose the first host (lowest id) with enough free memory.
    FirstFit,
    /// Choose uniformly among fitting hosts, seeded by the worker id so
    /// the draw is deterministic and order-independent.
    Random,
    /// Co-locate a request's workers: prefer the fitting host already
    /// holding the most workers of the same request (ties: more free
    /// memory, then lower id). With no co-location opportunity this
    /// degenerates to least-loaded, so affinity never regresses a
    /// placement least-loaded would have made for free.
    Affinity,
}

impl PlacementPolicy {
    /// Stable kebab-case label (CLI values, report rows).
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Random => "random",
            PlacementPolicy::Affinity => "affinity",
        }
    }

    /// Every policy, in a stable order (sweeps, head-to-head tables).
    pub const ALL: [PlacementPolicy; 5] = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::FirstFit,
        PlacementPolicy::Random,
        PlacementPolicy::Affinity,
    ];
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PlacementPolicy::ALL
            .iter()
            .copied()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown placement policy `{s}`"))
    }
}

/// One tenant sharing the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Tenant name (report rows, error messages).
    pub name: String,
    /// Fair-share weight; speculative placements are admitted up to
    /// `capacity · weight / Σweights`.
    #[serde(default = "default_tenant_weight")]
    pub weight: f64,
    /// Hard memory quota in MB (0 = unlimited). On-demand placements are
    /// admitted up to the quota; it is never exceeded by a placement.
    #[serde(default)]
    pub quota_mb: u64,
    /// Workflows owned by this tenant. Workflows listed by no tenant are
    /// hashed onto one deterministically.
    #[serde(default)]
    pub workflows: Vec<String>,
}

fn default_tenant_weight() -> f64 {
    1.0
}

impl TenantConfig {
    /// A tenant with weight 1 and no quota.
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            weight: 1.0,
            quota_mb: 0,
            workflows: Vec::new(),
        }
    }
}

/// Reactive fleet autoscaling. Disabled unless `max_hosts > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Fleet ceiling, counting live and booting hosts. 0 disables
    /// autoscaling.
    #[serde(default)]
    pub max_hosts: u32,
    /// Memory of each autoscaled host, MB.
    #[serde(default = "default_autoscale_memory_mb")]
    pub host_memory_mb: u64,
    /// Boot latency of an autoscaled host, ms.
    #[serde(default = "default_autoscale_boot_ms")]
    pub boot_ms: f64,
    /// Scale up when free memory falls below this fraction of live
    /// capacity (or when no host is live at all).
    #[serde(default = "default_autoscale_free_pct")]
    pub scale_up_free_pct: f64,
}

fn default_autoscale_memory_mb() -> u64 {
    4096
}

fn default_autoscale_boot_ms() -> f64 {
    5_000.0
}

fn default_autoscale_free_pct() -> f64 {
    0.25
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            max_hosts: 0,
            host_memory_mb: default_autoscale_memory_mb(),
            boot_ms: default_autoscale_boot_ms(),
            scale_up_free_pct: default_autoscale_free_pct(),
        }
    }
}

impl AutoscaleConfig {
    /// Whether autoscaling is on.
    pub fn enabled(&self) -> bool {
        self.max_hosts > 0
    }
}

/// Error placing a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// No live host has enough free memory for the requested worker.
    ClusterFull {
        /// The memory that was requested, in MB.
        requested_mb: u32,
    },
    /// The registry has no live hosts at all.
    NoHosts,
    /// The placement would push the tenant past its hard quota.
    QuotaExceeded {
        /// Offending tenant.
        tenant: String,
        /// Its quota, MB.
        quota_mb: u64,
    },
    /// A *speculative* placement would push the tenant past its weighted
    /// fair share of live capacity.
    FairShareExceeded {
        /// Offending tenant.
        tenant: String,
        /// Its current fair share, MB.
        share_mb: u64,
    },
}

impl PlacementError {
    /// Whether the rejection is tenant admission control (quota / fair
    /// share) rather than physical capacity.
    pub fn is_admission(&self) -> bool {
        matches!(
            self,
            PlacementError::QuotaExceeded { .. } | PlacementError::FairShareExceeded { .. }
        )
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::ClusterFull { requested_mb } => {
                write!(f, "no host has {requested_mb} MB free")
            }
            PlacementError::NoHosts => write!(f, "no live hosts in the registry"),
            PlacementError::QuotaExceeded { tenant, quota_mb } => {
                write!(f, "tenant `{tenant}` is at its {quota_mb} MB quota")
            }
            PlacementError::FairShareExceeded { tenant, share_mb } => {
                write!(
                    f,
                    "tenant `{tenant}` is past its {share_mb} MB fair share \
                     (speculative placement rejected)"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Everything the Dispatch Manager knows when placing one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// The worker being placed.
    pub worker: WorkerId,
    /// Its memory footprint, MB.
    pub memory_mb: u32,
    /// The request it is provisioned for (drives affinity).
    pub request: Option<u64>,
    /// The owning tenant (index into the registry's tenant table).
    pub tenant: Option<u32>,
    /// Whether a request is actively waiting on this worker (on-demand)
    /// or it is a speculative pre-deployment.
    pub on_demand: bool,
}

impl PlacementRequest {
    /// An anonymous on-demand placement (no request affinity, no tenant).
    pub fn bare(worker: WorkerId, memory_mb: u32) -> Self {
        PlacementRequest {
            worker,
            memory_mb,
            request: None,
            tenant: None,
            on_demand: true,
        }
    }
}

/// Host lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum HostHealth {
    Up,
    Booting,
    Down,
}

#[derive(Debug, Clone)]
struct HostState {
    spec: HostSpec,
    health: HostHealth,
    /// Bumped on every failure (and by [`HostRegistry::bump_epochs`]) so
    /// stale scheduled crash events can be recognized and dropped.
    epoch: u32,
    used_mb: u64,
    peak_used_mb: u64,
    provisioning: u32,
    workers: HashMap<WorkerId, u32>,
    placed: u64,
    evicted: u64,
    failures: u64,
}

impl HostState {
    fn new(spec: HostSpec, health: HostHealth) -> Self {
        HostState {
            spec,
            health,
            epoch: 0,
            used_mb: 0,
            peak_used_mb: 0,
            provisioning: 0,
            workers: HashMap::new(),
            placed: 0,
            evicted: 0,
            failures: 0,
        }
    }

    fn free_mb(&self) -> u64 {
        self.spec.memory_mb - self.used_mb
    }

    fn fits(&self, need: u64) -> bool {
        self.health == HostHealth::Up && self.free_mb() >= need
    }
}

#[derive(Debug, Clone)]
struct TenantState {
    config: TenantConfig,
    used_mb: u64,
    peak_used_mb: u64,
    placed: u64,
    rejected: u64,
}

/// Where a placed worker lives and what it is charged to.
#[derive(Debug, Clone, Copy)]
struct Placement {
    host: HostId,
    memory_mb: u32,
    request: Option<u64>,
    tenant: Option<u32>,
    provisioning: bool,
}

/// Per-host utilization row of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostReport {
    /// Host id.
    pub host: u32,
    /// Host name.
    pub name: String,
    /// Capacity, MB.
    pub memory_mb: u64,
    /// Workers ever placed here.
    pub placed: u64,
    /// Workers forcibly evicted from here (capacity or quota pressure).
    pub evicted: u64,
    /// Times this host failed.
    pub failures: u64,
    /// Peak memory in use, MB.
    pub peak_used_mb: u64,
}

impl HostReport {
    /// Peak utilization as a fraction of capacity.
    pub fn peak_utilization(&self) -> f64 {
        if self.memory_mb == 0 {
            0.0
        } else {
            self.peak_used_mb as f64 / self.memory_mb as f64
        }
    }
}

/// Per-tenant admission row of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Hard quota, MB (0 = unlimited).
    pub quota_mb: u64,
    /// Placements admitted.
    pub placed: u64,
    /// Placements rejected by quota or fair-share admission.
    pub rejected: u64,
    /// Peak memory in use, MB.
    pub peak_used_mb: u64,
}

/// Cluster-scheduling outcome of a run: per-host utilization, tenant
/// admission, and the cross-host cold-cascade attribution the platform
/// fills in. Merges across shards by summation (peaks take the max), so
/// sharded reports stay byte-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Placement policy the run used.
    pub policy: PlacementPolicy,
    /// Per-host rows, host-id order.
    pub hosts: Vec<HostReport>,
    /// Per-tenant rows, config order. Empty when single-tenant.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tenants: Vec<TenantReport>,
    /// Cold executions whose request's previous hop ran on a *different*
    /// host — the cross-host share of the cold cascade.
    pub cross_host_cold: u64,
    /// Cold executions whose request's previous hop ran on the same host.
    pub same_host_cold: u64,
    /// Prediction-miss recoveries served by retargeting a co-located
    /// warm worker (the affinity win: these would be cold cross-host).
    pub retargets_colocated: u64,
    /// Workers provisioned past all admission attempts without a host
    /// (cluster overcommit rather than stalling the request).
    pub overcommitted: u64,
    /// Autoscaled hosts activated during the run.
    pub hosts_booted: u64,
    /// Host failures injected during the run.
    pub hosts_failed: u64,
}

impl ClusterReport {
    /// Folds `other` into `self`: counters sum, peaks take the max, and
    /// rows join by host id / tenant name. Used by the shard merge, in
    /// shard-index order, so merged reports are deterministic.
    pub fn merge_from(&mut self, other: &ClusterReport) {
        let mut hosts: BTreeMap<u32, HostReport> =
            self.hosts.drain(..).map(|h| (h.host, h)).collect();
        for h in &other.hosts {
            match hosts.get_mut(&h.host) {
                Some(row) => {
                    row.placed += h.placed;
                    row.evicted += h.evicted;
                    row.failures += h.failures;
                    row.peak_used_mb = row.peak_used_mb.max(h.peak_used_mb);
                }
                None => {
                    hosts.insert(h.host, h.clone());
                }
            }
        }
        self.hosts = hosts.into_values().collect();
        let mut tenants: BTreeMap<String, TenantReport> = self
            .tenants
            .drain(..)
            .map(|t| (t.name.clone(), t))
            .collect();
        for t in &other.tenants {
            match tenants.get_mut(&t.name) {
                Some(row) => {
                    row.placed += t.placed;
                    row.rejected += t.rejected;
                    row.peak_used_mb = row.peak_used_mb.max(t.peak_used_mb);
                }
                None => {
                    tenants.insert(t.name.clone(), t.clone());
                }
            }
        }
        self.tenants = tenants.into_values().collect();
        self.cross_host_cold += other.cross_host_cold;
        self.same_host_cold += other.same_host_cold;
        self.retargets_colocated += other.retargets_colocated;
        self.overcommitted += other.overcommitted;
        self.hosts_booted += other.hosts_booted;
        self.hosts_failed += other.hosts_failed;
    }
}

/// The cluster view: every registered host, which worker lives where,
/// tenant accounting and autoscaler bookkeeping.
///
/// # Example
///
/// ```
/// use xanadu_platform::hosts::{HostRegistry, HostSpec, PlacementPolicy};
/// use xanadu_sandbox::WorkerId;
///
/// let mut cluster = HostRegistry::new(PlacementPolicy::LeastLoaded);
/// let a = cluster.add_host(HostSpec::new("a", 1024));
/// let b = cluster.add_host(HostSpec::new("b", 1024));
///
/// let h1 = cluster.place(WorkerId(1), 512)?;
/// let h2 = cluster.place(WorkerId(2), 512)?;
/// // Least-loaded spreads the two workers across both hosts.
/// assert_ne!(h1, h2);
/// assert_eq!(cluster.free_mb(a) + cluster.free_mb(b), 1024);
/// # Ok::<(), xanadu_platform::hosts::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HostRegistry {
    policy: PlacementPolicy,
    hosts: Vec<HostState>,
    next_round_robin: usize,
    location: HashMap<WorkerId, Placement>,
    /// Per-request worker counts by host index; `BTreeMap` so affinity
    /// scans are deterministic.
    footprint: HashMap<u64, BTreeMap<u32, u32>>,
    tenants: Vec<TenantState>,
    autoscale: AutoscaleConfig,
    seed: u64,
    overcommitted: u64,
    hosts_booted: u64,
}

impl HostRegistry {
    /// Creates an empty registry with the given placement policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        HostRegistry {
            policy,
            hosts: Vec::new(),
            next_round_robin: 0,
            location: HashMap::new(),
            footprint: HashMap::new(),
            tenants: Vec::new(),
            autoscale: AutoscaleConfig::default(),
            seed: 0,
            overcommitted: 0,
            hosts_booted: 0,
        }
    }

    /// A single-host cluster mirroring the paper's testbed: one 64-core /
    /// 128 GB machine (§5).
    pub fn paper_testbed() -> Self {
        let mut r = HostRegistry::new(PlacementPolicy::LeastLoaded);
        r.add_host(HostSpec::new("xeon-64c-128g", 128 * 1024));
        r
    }

    /// Seed of the random-placement stream (only [`PlacementPolicy::
    /// Random`] consults it; draws are keyed by worker id, so they stay
    /// order-independent).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Installs the tenant table (config order is tenant-index order).
    pub fn set_tenants(&mut self, tenants: Vec<TenantConfig>) {
        self.tenants = tenants
            .into_iter()
            .map(|config| TenantState {
                config,
                used_mb: 0,
                peak_used_mb: 0,
                placed: 0,
                rejected: 0,
            })
            .collect();
    }

    /// Installs the autoscaler policy.
    pub fn set_autoscale(&mut self, autoscale: AutoscaleConfig) {
        self.autoscale = autoscale;
    }

    /// The autoscaler policy.
    pub fn autoscale(&self) -> &AutoscaleConfig {
        &self.autoscale
    }

    /// Resolves a workflow to its owning tenant: an explicit listing
    /// wins, otherwise the name hashes onto a tenant deterministically.
    /// `None` when no tenants are configured.
    pub fn tenant_for_workflow(&self, workflow: &str) -> Option<u32> {
        if self.tenants.is_empty() {
            return None;
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.config.workflows.iter().any(|w| w == workflow) {
                return Some(i as u32);
            }
        }
        Some((fnv1a64(workflow.as_bytes()) % self.tenants.len() as u64) as u32)
    }

    /// Memory currently charged to a tenant, MB.
    pub fn tenant_used_mb(&self, tenant: u32) -> u64 {
        self.tenants[tenant as usize].used_mb
    }

    /// A tenant's weighted fair share of live capacity, MB.
    pub fn fair_share_mb(&self, tenant: u32) -> u64 {
        let total_weight: f64 = self.tenants.iter().map(|t| t.config.weight).sum();
        if total_weight <= 0.0 {
            return u64::MAX;
        }
        let capacity = self.total_capacity_mb();
        let share = capacity as f64 * self.tenants[tenant as usize].config.weight / total_weight;
        share.floor() as u64
    }

    /// Registers a live host, returning its id.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostState::new(spec, HostHealth::Up));
        id
    }

    /// Reserves the next host id for an autoscaled host. The host is
    /// `Booting` — invisible to placement until
    /// [`activate_host`](Self::activate_host) — and its id depends only
    /// on how many hosts were ever registered, never on event timing.
    pub fn reserve_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostState::new(spec, HostHealth::Booting));
        id
    }

    /// Brings a `Booting` (or failed) host live. Returns false when the
    /// host was already up (stale boot event).
    pub fn activate_host(&mut self, host: HostId) -> bool {
        let state = &mut self.hosts[host.0 as usize];
        if state.health == HostHealth::Up {
            return false;
        }
        state.health = HostHealth::Up;
        self.hosts_booted += 1;
        true
    }

    /// Fails a live host: marks it `Down`, bumps its epoch (stale crash
    /// events die), releases everything it held and returns the drained
    /// workers sorted by id so the platform can crash/re-place them
    /// deterministically. Empty for a host that is already down.
    pub fn fail_host(&mut self, host: HostId) -> Vec<WorkerId> {
        let state = &mut self.hosts[host.0 as usize];
        if state.health != HostHealth::Up {
            return Vec::new();
        }
        state.health = HostHealth::Down;
        state.epoch += 1;
        state.failures += 1;
        let mut drained: Vec<WorkerId> = state.workers.keys().copied().collect();
        drained.sort_by_key(|w| w.0);
        for w in &drained {
            self.release(*w);
        }
        drained
    }

    /// Bumps every host's epoch, invalidating previously scheduled crash
    /// events (used when the fault plan is replaced mid-setup).
    pub fn bump_epochs(&mut self) {
        for h in &mut self.hosts {
            h.epoch += 1;
        }
    }

    /// A host's current epoch.
    pub fn epoch(&self, host: HostId) -> u32 {
        self.hosts[host.0 as usize].epoch
    }

    /// Whether the host is live.
    pub fn is_up(&self, host: HostId) -> bool {
        self.hosts[host.0 as usize].health == HostHealth::Up
    }

    /// Ids of all live hosts, ascending.
    pub fn up_hosts(&self) -> Vec<HostId> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.health == HostHealth::Up)
            .map(|(i, _)| HostId(i as u32))
            .collect()
    }

    /// Whether the autoscaler wants another host: under the fleet
    /// ceiling, nothing already booting, and free live memory below the
    /// scale-up threshold (or no live host at all).
    pub fn wants_scale_up(&self) -> bool {
        if !self.autoscale.enabled() {
            return false;
        }
        let active = self
            .hosts
            .iter()
            .filter(|h| h.health != HostHealth::Down)
            .count();
        if active >= self.autoscale.max_hosts as usize {
            return false;
        }
        if self.hosts.iter().any(|h| h.health == HostHealth::Booting) {
            return false;
        }
        let capacity = self.total_capacity_mb();
        if capacity == 0 {
            return true;
        }
        let free: u64 = self
            .hosts
            .iter()
            .filter(|h| h.health == HostHealth::Up)
            .map(HostState::free_mb)
            .sum();
        (free as f64) < self.autoscale.scale_up_free_pct * capacity as f64
    }

    /// The spec an autoscaled host boots with.
    pub fn autoscale_host_spec(&self) -> HostSpec {
        let n = self.hosts.len();
        HostSpec::new(format!("auto-{n}"), self.autoscale.host_memory_mb)
    }

    /// Number of registered hosts (any health).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the registry has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The placement policy in use.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Total memory of `host` in MB.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not registered.
    pub fn memory_mb(&self, host: HostId) -> u64 {
        self.hosts[host.0 as usize].spec.memory_mb
    }

    /// Free memory on `host` in MB.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not registered.
    pub fn free_mb(&self, host: HostId) -> u64 {
        self.hosts[host.0 as usize].free_mb()
    }

    /// Number of workers currently placed on `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not registered.
    pub fn worker_count(&self, host: HostId) -> usize {
        self.hosts[host.0 as usize].workers.len()
    }

    /// The host a worker was placed on, if it is placed.
    pub fn host_of(&self, worker: WorkerId) -> Option<HostId> {
        self.location.get(&worker).map(|p| p.host)
    }

    /// The tenant a placed worker is charged to.
    pub fn tenant_of(&self, worker: WorkerId) -> Option<u32> {
        self.location.get(&worker).and_then(|p| p.tenant)
    }

    /// Workers of `request` currently on `host` (the affinity signal).
    pub fn colocation(&self, host: HostId, request: u64) -> u32 {
        self.footprint
            .get(&request)
            .and_then(|m| m.get(&host.0))
            .copied()
            .unwrap_or(0)
    }

    /// Live capacity across the cluster, MB.
    pub fn total_capacity_mb(&self) -> u64 {
        self.hosts
            .iter()
            .filter(|h| h.health == HostHealth::Up)
            .map(|h| h.spec.memory_mb)
            .sum()
    }

    /// Places an anonymous on-demand worker needing `memory_mb` MB.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoHosts`] if no host is live, or
    /// [`PlacementError::ClusterFull`] if no live host can fit the worker.
    pub fn place(&mut self, worker: WorkerId, memory_mb: u32) -> Result<HostId, PlacementError> {
        self.place_for(&PlacementRequest::bare(worker, memory_mb))
    }

    /// Chooses a host for `req` under `policy` *without mutating state*.
    /// `None` when no live host fits. Admission control is not applied —
    /// this is the pure placement function, exposed so the affinity
    /// no-regression property can be checked against least-loaded.
    pub fn peek(&self, policy: PlacementPolicy, req: &PlacementRequest) -> Option<HostId> {
        let need = u64::from(req.memory_mb);
        let fitting = || {
            self.hosts
                .iter()
                .enumerate()
                .filter(move |(_, h)| h.fits(need))
        };
        let chosen = match policy {
            PlacementPolicy::FirstFit => fitting().map(|(i, _)| i).next(),
            PlacementPolicy::LeastLoaded => fitting()
                .max_by_key(|(i, h)| (h.free_mb(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i),
            PlacementPolicy::RoundRobin => {
                let n = self.hosts.len();
                (0..n)
                    .map(|k| (self.next_round_robin + k) % n)
                    .find(|&i| self.hosts[i].fits(need))
            }
            PlacementPolicy::Random => {
                let candidates: Vec<usize> = fitting().map(|(i, _)| i).collect();
                if candidates.is_empty() {
                    None
                } else {
                    let mut rng =
                        RngStream::derive(self.seed, "placement-random").child(req.worker.0);
                    Some(candidates[(rng.next_u64() % candidates.len() as u64) as usize])
                }
            }
            PlacementPolicy::Affinity => {
                let footprint = req.request.and_then(|r| self.footprint.get(&r));
                fitting()
                    .max_by_key(|(i, h)| {
                        let colocated = footprint
                            .and_then(|m| m.get(&(*i as u32)))
                            .copied()
                            .unwrap_or(0);
                        (colocated, h.free_mb(), std::cmp::Reverse(*i))
                    })
                    .map(|(i, _)| i)
            }
        };
        chosen.map(|i| HostId(i as u32))
    }

    /// Places a worker, applying tenant admission control then the
    /// registry's placement policy, charging the chosen host (and
    /// tenant). The charge counts as *provisioning* for the contention
    /// curve until [`worker_ready`](HostRegistry::worker_ready).
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoHosts`] / [`PlacementError::ClusterFull`] on
    /// capacity, [`PlacementError::QuotaExceeded`] /
    /// [`PlacementError::FairShareExceeded`] on tenant admission. No
    /// state changes on error except the tenant rejection counter.
    pub fn place_for(&mut self, req: &PlacementRequest) -> Result<HostId, PlacementError> {
        if self.hosts.iter().all(|h| h.health != HostHealth::Up) {
            return Err(PlacementError::NoHosts);
        }
        let need = u64::from(req.memory_mb);
        if let Some(t) = req.tenant {
            let quota = self.tenants[t as usize].config.quota_mb;
            if quota > 0 && self.tenants[t as usize].used_mb + need > quota {
                self.tenants[t as usize].rejected += 1;
                return Err(PlacementError::QuotaExceeded {
                    tenant: self.tenants[t as usize].config.name.clone(),
                    quota_mb: quota,
                });
            }
            if !req.on_demand && self.tenants.len() > 1 {
                let share = self.fair_share_mb(t);
                if self.tenants[t as usize].used_mb + need > share {
                    self.tenants[t as usize].rejected += 1;
                    return Err(PlacementError::FairShareExceeded {
                        tenant: self.tenants[t as usize].config.name.clone(),
                        share_mb: share,
                    });
                }
            }
        }
        let Some(host) = self.peek(self.policy, req) else {
            return Err(PlacementError::ClusterFull {
                requested_mb: req.memory_mb,
            });
        };
        let index = host.0 as usize;
        if self.policy == PlacementPolicy::RoundRobin {
            self.next_round_robin = (index + 1) % self.hosts.len();
        }
        let state = &mut self.hosts[index];
        state.used_mb += need;
        state.peak_used_mb = state.peak_used_mb.max(state.used_mb);
        state.provisioning += 1;
        state.placed += 1;
        state.workers.insert(req.worker, req.memory_mb);
        if let Some(r) = req.request {
            *self
                .footprint
                .entry(r)
                .or_default()
                .entry(host.0)
                .or_insert(0) += 1;
        }
        if let Some(t) = req.tenant {
            let tenant = &mut self.tenants[t as usize];
            tenant.used_mb += need;
            tenant.peak_used_mb = tenant.peak_used_mb.max(tenant.used_mb);
            tenant.placed += 1;
        }
        self.location.insert(
            req.worker,
            Placement {
                host,
                memory_mb: req.memory_mb,
                request: req.request,
                tenant: req.tenant,
                provisioning: true,
            },
        );
        Ok(host)
    }

    /// Marks a placed worker's provisioning as finished (its sandbox is
    /// ready), ending its contribution to the host's contention curve.
    pub fn worker_ready(&mut self, worker: WorkerId) {
        if let Some(p) = self.location.get_mut(&worker) {
            if p.provisioning {
                p.provisioning = false;
                let state = &mut self.hosts[p.host.0 as usize];
                state.provisioning = state.provisioning.saturating_sub(1);
            }
        }
    }

    /// Number of workers currently provisioning on `host` (the contention
    /// signal).
    pub fn provisioning_on(&self, host: HostId) -> u32 {
        self.hosts[host.0 as usize].provisioning
    }

    /// Cold-start inflation on `host` for a worker placed while
    /// `provisioning_on` counts it: `alpha · (concurrent − 1)`, i.e. the
    /// *other* in-flight provisions. 0 with the default `alpha = 0`.
    pub fn contention_penalty(&self, host: HostId) -> f64 {
        let state = &self.hosts[host.0 as usize];
        if state.spec.contention_alpha <= 0.0 {
            return 0.0;
        }
        state.spec.contention_alpha * f64::from(state.provisioning.saturating_sub(1))
    }

    /// Releases a worker's memory back to its host and tenant. Unknown
    /// workers are ignored (idempotent teardown).
    pub fn release(&mut self, worker: WorkerId) {
        let Some(p) = self.location.remove(&worker) else {
            return;
        };
        let state = &mut self.hosts[p.host.0 as usize];
        if state.workers.remove(&worker).is_some() {
            state.used_mb -= u64::from(p.memory_mb);
            if p.provisioning {
                state.provisioning = state.provisioning.saturating_sub(1);
            }
        }
        if let Some(r) = p.request {
            if let Some(map) = self.footprint.get_mut(&r) {
                if let Some(count) = map.get_mut(&p.host.0) {
                    *count -= 1;
                    if *count == 0 {
                        map.remove(&p.host.0);
                    }
                }
                if map.is_empty() {
                    self.footprint.remove(&r);
                }
            }
        }
        if let Some(t) = p.tenant {
            self.tenants[t as usize].used_mb = self.tenants[t as usize]
                .used_mb
                .saturating_sub(u64::from(p.memory_mb));
        }
    }

    /// Records a forced eviction of `worker` (capacity/quota pressure)
    /// on its host. Call before killing/releasing it.
    pub fn note_evicted(&mut self, worker: WorkerId) {
        if let Some(p) = self.location.get(&worker) {
            self.hosts[p.host.0 as usize].evicted += 1;
        }
    }

    /// Records a worker provisioned without a host (admission overflow).
    pub fn note_overcommit(&mut self) {
        self.overcommitted += 1;
    }

    /// Total memory in use across the cluster, in MB.
    pub fn total_used_mb(&self) -> u64 {
        self.hosts.iter().map(|h| h.used_mb).sum()
    }

    /// Snapshot of the cluster state as report rows. The platform fills
    /// in the cross-host cold attribution before publishing.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            policy: self.policy,
            hosts: self
                .hosts
                .iter()
                .enumerate()
                .map(|(i, h)| HostReport {
                    host: i as u32,
                    name: h.spec.name.clone(),
                    memory_mb: h.spec.memory_mb,
                    placed: h.placed,
                    evicted: h.evicted,
                    failures: h.failures,
                    peak_used_mb: h.peak_used_mb,
                })
                .collect(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.config.name.clone(),
                    weight: t.config.weight,
                    quota_mb: t.config.quota_mb,
                    placed: t.placed,
                    rejected: t.rejected,
                    peak_used_mb: t.peak_used_mb,
                })
                .collect(),
            cross_host_cold: 0,
            same_host_cold: 0,
            retargets_colocated: 0,
            overcommitted: self.overcommitted,
            hosts_booted: self.hosts_booted,
            hosts_failed: self.hosts.iter().map(|h| h.failures).sum(),
        }
    }
}

impl Default for HostRegistry {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts(policy: PlacementPolicy) -> HostRegistry {
        let mut r = HostRegistry::new(policy);
        r.add_host(HostSpec::new("a", 2048));
        r.add_host(HostSpec::new("b", 2048));
        r
    }

    #[test]
    fn least_loaded_balances() {
        let mut r = two_hosts(PlacementPolicy::LeastLoaded);
        let mut counts = [0usize; 2];
        for i in 0..8 {
            let h = r.place(WorkerId(i), 512).unwrap();
            counts[h.0 as usize] += 1;
        }
        assert_eq!(counts, [4, 4]);
        assert_eq!(r.total_used_mb(), 8 * 512);
    }

    #[test]
    fn first_fit_fills_in_order() {
        let mut r = two_hosts(PlacementPolicy::FirstFit);
        for i in 0..4 {
            assert_eq!(r.place(WorkerId(i), 512).unwrap(), HostId(0));
        }
        // Host 0 is full at 2048 MB; next goes to host 1.
        assert_eq!(r.place(WorkerId(9), 512).unwrap(), HostId(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = two_hosts(PlacementPolicy::RoundRobin);
        let hosts: Vec<u32> = (0..4)
            .map(|i| r.place(WorkerId(i), 128).unwrap().0)
            .collect();
        assert_eq!(hosts, vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_skips_full_hosts() {
        let mut r = two_hosts(PlacementPolicy::RoundRobin);
        r.place(WorkerId(0), 2048).unwrap(); // host 0 full
        assert_eq!(r.place(WorkerId(1), 512).unwrap(), HostId(1));
        assert_eq!(r.place(WorkerId(2), 512).unwrap(), HostId(1));
    }

    #[test]
    fn cluster_full_and_no_hosts_errors() {
        let mut empty = HostRegistry::new(PlacementPolicy::LeastLoaded);
        assert_eq!(empty.place(WorkerId(0), 64), Err(PlacementError::NoHosts));
        let mut r = two_hosts(PlacementPolicy::LeastLoaded);
        r.place(WorkerId(0), 2048).unwrap();
        r.place(WorkerId(1), 2048).unwrap();
        assert_eq!(
            r.place(WorkerId(2), 1),
            Err(PlacementError::ClusterFull { requested_mb: 1 })
        );
    }

    #[test]
    fn release_returns_capacity() {
        let mut r = two_hosts(PlacementPolicy::FirstFit);
        let h = r.place(WorkerId(0), 2048).unwrap();
        assert_eq!(r.free_mb(h), 0);
        assert_eq!(r.host_of(WorkerId(0)), Some(h));
        r.release(WorkerId(0));
        assert_eq!(r.free_mb(h), 2048);
        assert_eq!(r.host_of(WorkerId(0)), None);
        r.release(WorkerId(0)); // idempotent
        assert_eq!(r.worker_count(h), 0);
    }

    #[test]
    fn paper_testbed_is_single_large_host() {
        let r = HostRegistry::paper_testbed();
        assert_eq!(r.len(), 1);
        assert_eq!(r.free_mb(HostId(0)), 128 * 1024);
        assert!(!r.is_empty());
    }

    #[test]
    fn displays() {
        assert_eq!(HostId(3).to_string(), "host3");
        let e = PlacementError::ClusterFull { requested_mb: 512 };
        assert!(e.to_string().contains("512"));
        assert_eq!(
            "affinity".parse::<PlacementPolicy>().unwrap(),
            PlacementPolicy::Affinity
        );
        assert!("bogus".parse::<PlacementPolicy>().is_err());
    }

    fn for_request(worker: u64, mb: u32, request: u64) -> PlacementRequest {
        PlacementRequest {
            worker: WorkerId(worker),
            memory_mb: mb,
            request: Some(request),
            tenant: None,
            on_demand: false,
        }
    }

    #[test]
    fn affinity_colocates_a_requests_workers() {
        let mut r = two_hosts(PlacementPolicy::Affinity);
        let h0 = r.place_for(&for_request(0, 512, 7)).unwrap();
        // The second and third workers of request 7 follow the first.
        assert_eq!(r.place_for(&for_request(1, 512, 7)).unwrap(), h0);
        assert_eq!(r.place_for(&for_request(2, 512, 7)).unwrap(), h0);
        // A different request starts on the emptier host (least-loaded
        // fallback).
        let other = r.place_for(&for_request(3, 512, 8)).unwrap();
        assert_ne!(other, h0);
        assert_eq!(r.colocation(h0, 7), 3);
        // Releases shrink the footprint.
        r.release(WorkerId(1));
        assert_eq!(r.colocation(h0, 7), 2);
    }

    #[test]
    fn affinity_spills_when_the_preferred_host_is_full() {
        let mut r = two_hosts(PlacementPolicy::Affinity);
        r.place_for(&for_request(0, 2048, 7)).unwrap(); // host full
        let spill = r.place_for(&for_request(1, 512, 7)).unwrap();
        assert_eq!(r.worker_count(spill), 1);
    }

    #[test]
    fn random_is_deterministic_per_worker_and_seeded() {
        let mut a = two_hosts(PlacementPolicy::Random);
        a.set_seed(11);
        let mut b = two_hosts(PlacementPolicy::Random);
        b.set_seed(11);
        let pa: Vec<u32> = (0..16)
            .map(|i| a.place(WorkerId(i), 64).unwrap().0)
            .collect();
        let pb: Vec<u32> = (0..16)
            .map(|i| b.place(WorkerId(i), 64).unwrap().0)
            .collect();
        assert_eq!(pa, pb);
        // The draw is keyed by worker id: placing the same ids in reverse
        // order lands every worker on the same host.
        let mut c = two_hosts(PlacementPolicy::Random);
        c.set_seed(11);
        let mut rev: Vec<(u64, u32)> = (0..16u64)
            .rev()
            .map(|i| (i, c.place(WorkerId(i), 64).unwrap().0))
            .collect();
        rev.sort_by_key(|&(i, _)| i);
        assert_eq!(pa, rev.into_iter().map(|(_, h)| h).collect::<Vec<_>>());
        // Both hosts get used.
        assert!(pa.contains(&0) && pa.contains(&1));
    }

    #[test]
    fn quotas_gate_on_demand_and_fair_share_gates_speculation() {
        let mut r = two_hosts(PlacementPolicy::LeastLoaded);
        r.set_tenants(vec![
            TenantConfig {
                name: "hot".into(),
                weight: 1.0,
                quota_mb: 1024,
                workflows: vec!["w-hot".into()],
            },
            TenantConfig::new("cold"),
        ]);
        assert_eq!(r.tenant_for_workflow("w-hot"), Some(0));
        // Capacity 4096, equal weights: fair share 2048 each; the hot
        // tenant's quota (1024) binds first.
        let mut on_demand = PlacementRequest::bare(WorkerId(0), 512);
        on_demand.tenant = Some(0);
        r.place_for(&on_demand).unwrap();
        let mut second = PlacementRequest::bare(WorkerId(1), 512);
        second.tenant = Some(0);
        r.place_for(&second).unwrap();
        let mut third = PlacementRequest::bare(WorkerId(2), 512);
        third.tenant = Some(0);
        let err = r.place_for(&third).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::QuotaExceeded { quota_mb: 1024, .. }
        ));
        assert_eq!(r.tenant_used_mb(0), 1024);

        // The unquota'd tenant: speculative placements stop at the fair
        // share (2048), on-demand sails past it.
        let mut spec = PlacementRequest::bare(WorkerId(10), 1024);
        spec.tenant = Some(1);
        spec.on_demand = false;
        r.place_for(&spec).unwrap();
        let mut spec2 = spec;
        spec2.worker = WorkerId(11);
        r.place_for(&spec2).unwrap();
        let mut spec3 = spec;
        spec3.worker = WorkerId(12);
        spec3.memory_mb = 512;
        let err = r.place_for(&spec3).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::FairShareExceeded { share_mb: 2048, .. }
        ));
        let mut od = spec3;
        od.on_demand = true;
        r.place_for(&od).unwrap();
        assert_eq!(r.tenant_used_mb(1), 2560);
        let report = r.report();
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].rejected, 1);
        assert_eq!(report.tenants[1].rejected, 1);
    }

    #[test]
    fn failed_hosts_drain_and_reactivate() {
        let mut r = two_hosts(PlacementPolicy::FirstFit);
        r.place(WorkerId(3), 256).unwrap();
        r.place(WorkerId(1), 256).unwrap();
        assert_eq!(r.epoch(HostId(0)), 0);
        let drained = r.fail_host(HostId(0));
        assert_eq!(drained, vec![WorkerId(1), WorkerId(3)], "sorted by id");
        assert_eq!(r.epoch(HostId(0)), 1);
        assert!(!r.is_up(HostId(0)));
        assert_eq!(r.total_used_mb(), 0);
        // A dead host takes no placements; failing it again is a no-op.
        assert_eq!(r.place(WorkerId(9), 64).unwrap(), HostId(1));
        assert!(r.fail_host(HostId(0)).is_empty());
        // Reactivation brings it back placeable.
        assert!(r.activate_host(HostId(0)));
        assert!(!r.activate_host(HostId(0)), "already up");
        assert_eq!(r.up_hosts(), vec![HostId(0), HostId(1)]);
        let report = r.report();
        assert_eq!(report.hosts[0].failures, 1);
        assert_eq!(report.hosts_failed, 1);
    }

    #[test]
    fn autoscaler_ids_are_deterministic_and_booting_hosts_invisible() {
        let mut r = HostRegistry::new(PlacementPolicy::LeastLoaded);
        r.set_autoscale(AutoscaleConfig {
            max_hosts: 3,
            host_memory_mb: 1024,
            ..AutoscaleConfig::default()
        });
        assert!(r.wants_scale_up(), "empty fleet always scales up");
        let h0 = r.reserve_host(r.autoscale_host_spec());
        assert_eq!(h0, HostId(0));
        assert!(!r.wants_scale_up(), "one boot in flight at a time");
        assert!(r.place(WorkerId(0), 64).is_err(), "booting host invisible");
        assert!(r.activate_host(h0));
        // 1024 free of 1024: above the 25% threshold, no scale-up.
        assert!(!r.wants_scale_up());
        r.place(WorkerId(0), 1000).unwrap();
        assert!(r.wants_scale_up(), "24 MB free of 1024 is under 25%");
        let h1 = r.reserve_host(r.autoscale_host_spec());
        assert_eq!(h1, HostId(1));
        r.activate_host(h1);
        r.place(WorkerId(1), 1000).unwrap();
        let h2 = r.reserve_host(r.autoscale_host_spec());
        assert_eq!(h2, HostId(2));
        r.activate_host(h2);
        r.place(WorkerId(2), 1000).unwrap();
        assert!(!r.wants_scale_up(), "fleet ceiling reached");
        assert_eq!(r.report().hosts_booted, 3);
    }

    #[test]
    fn contention_counts_concurrent_provisions() {
        let mut r = HostRegistry::new(PlacementPolicy::FirstFit);
        let h = r.add_host(HostSpec::new("a", 4096).with_contention(0.5));
        r.place(WorkerId(0), 256).unwrap();
        assert_eq!(r.provisioning_on(h), 1);
        assert_eq!(r.contention_penalty(h), 0.0, "alone: no penalty");
        r.place(WorkerId(1), 256).unwrap();
        assert_eq!(r.provisioning_on(h), 2);
        assert_eq!(r.contention_penalty(h), 0.5);
        r.worker_ready(WorkerId(0));
        assert_eq!(r.provisioning_on(h), 1);
        r.worker_ready(WorkerId(0)); // idempotent
        assert_eq!(r.provisioning_on(h), 1);
        // Release during provisioning also decrements.
        r.release(WorkerId(1));
        assert_eq!(r.provisioning_on(h), 0);
    }

    #[test]
    fn cluster_reports_merge_by_summation() {
        let mut a = two_hosts(PlacementPolicy::Affinity);
        a.place_for(&for_request(0, 512, 1)).unwrap();
        a.note_evicted(WorkerId(0));
        let mut ra = a.report();
        ra.cross_host_cold = 2;
        let mut b = two_hosts(PlacementPolicy::Affinity);
        b.place_for(&for_request(0, 1024, 1)).unwrap();
        let mut rb = b.report();
        rb.cross_host_cold = 3;
        ra.merge_from(&rb);
        assert_eq!(ra.cross_host_cold, 5);
        assert_eq!(ra.hosts.len(), 2);
        assert_eq!(ra.hosts[0].placed, 2);
        assert_eq!(ra.hosts[0].evicted, 1);
        assert_eq!(ra.hosts[0].peak_used_mb, 1024, "peaks take the max");
    }
}
