//! Ablation studies for the design knobs the paper introduces but does
//! not sweep (see DESIGN.md): deployment aggressiveness, worker
//! keep-alive, the EMA smoothing factor, and the prediction-miss policy.

use super::tab1::lattice_chain;
use crate::harness::{audit_platform, cold_runs, mean, Experiment, Finding, COLD_SEED_BASE};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_core::cost::{worker_steady_cost, CpuRates};
use xanadu_core::speculation::{ExecutionMode, MissPolicy, SpeculationConfig};
use xanadu_platform::{Audit, Platform, PlatformConfig};
use xanadu_profiler::BranchDetector;
use xanadu_sandbox::PoolConfig;
use xanadu_simcore::report::{fmt_f64, Table};
use xanadu_simcore::{SimDuration, SimTime};
use xanadu_workloads::arrivals::poisson;
use xanadu_workloads::azure::{generate_trace, rare_gap_exceedance, AzureTraceConfig};

fn platform_with(speculation: SpeculationConfig, pool: PoolConfig, seed: u64) -> Platform {
    let cfg = PlatformConfig::builder()
        .for_mode(speculation.mode, seed)
        .speculation(speculation)
        .pool(pool)
        .build()
        .expect("valid config");
    Platform::new(cfg)
}

/// `abl-aggr`: sweep the deployment-aggressiveness parameter (§3.2.1) on a
/// depth-10 linear chain in JIT mode. Low aggressiveness limits the
/// look-ahead horizon — cheaper but re-introduces cascading cold starts at
/// the tail; 1.0 pre-provisions the whole MLP.
pub fn aggressiveness() -> Experiment {
    let dag =
        linear_chain("abl", 10, &FunctionSpec::new("f").service_ms(2000.0)).expect("valid chain");
    let mut table = Table::new(
        "Ablation — deployment aggressiveness (depth-10 chain, JIT mode)",
        &[
            "aggressiveness",
            "overhead (s)",
            "mem cost (MB·s)",
            "cold starts/request",
        ],
    );
    let mut rows = Vec::new();
    let mut audit: Option<Audit> = None;
    for &a in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let spec = SpeculationConfig {
            mode: ExecutionMode::Jit,
            aggressiveness: a,
            ..SpeculationConfig::default()
        };
        let (runs, run_audit) = cold_runs(
            &|s| platform_with(spec, PoolConfig::default(), s),
            &dag,
            6,
            COLD_SEED_BASE,
        );
        // Audit the full-horizon run — the setting the other figures use.
        if a >= 1.0 {
            audit = Some(run_audit);
        }
        let overhead = mean(runs.iter().map(|r| r.overhead.as_secs_f64()));
        let mem = mean(runs.iter().map(|r| r.resources.mem_mbs));
        let colds = mean(runs.iter().map(|r| r.cold_starts as f64));
        table.row(&[
            &fmt_f64(a, 2),
            &fmt_f64(overhead, 2),
            &fmt_f64(mem, 1),
            &fmt_f64(colds, 1),
        ]);
        rows.push((a, overhead, colds));
    }
    let output = table.render();
    let zero = rows[0].1;
    let full = rows[4].1;
    let findings = vec![
        Finding::new(
            "aggressiveness 0 behaves like Xanadu Cold (full cascade)",
            format!("{}s vs {}s at 1.0", fmt_f64(zero, 1), fmt_f64(full, 1)),
            zero > 5.0 * full,
        ),
        Finding::new(
            "overhead decreases monotonically with aggressiveness",
            "see table",
            rows.windows(2).all(|w| w[1].1 <= w[0].1 + 0.3),
        ),
        Finding::new(
            "cold starts per request shrink as the horizon grows",
            format!("{} → {}", rows[0].2, rows[4].2),
            rows[0].2 > rows[4].2,
        ),
    ];
    Experiment {
        id: "abl-aggr",
        title: "Deployment aggressiveness sweep",
        output,
        findings,
        audit,
    }
}

/// `abl-keepalive`: the paper's future work (§7) proposes cutting worker
/// keep-alive "from tens of minutes to a few seconds" because speculation
/// makes long retention unnecessary. Sweep keep-alive under Poisson
/// arrivals for Cold and JIT platforms.
pub fn keepalive() -> Experiment {
    let dag =
        linear_chain("abl", 5, &FunctionSpec::new("f").service_ms(500.0)).expect("valid chain");
    let arrivals = poisson(SimTime::ZERO, SimDuration::from_mins(4 * 60), 8.0, 91);
    let mut table = Table::new(
        "Ablation — worker keep-alive under Poisson(8/h) load, 4h",
        &[
            "keep-alive",
            "mode",
            "mean overhead (ms)",
            "mem cost/request (MB·s)",
        ],
    );
    let mut jit_rows = Vec::new();
    let mut cold_rows = Vec::new();
    let mut audit: Option<Audit> = None;
    for &(ka, label) in &[
        (SimDuration::from_secs(5), "5s"),
        (SimDuration::from_secs(60), "1min"),
        (SimDuration::from_mins(10), "10min"),
        (SimDuration::from_mins(30), "30min"),
    ] {
        for mode in [ExecutionMode::Cold, ExecutionMode::Jit] {
            let pool = PoolConfig {
                keep_alive: ka,
                max_warm: None,
            };
            let mut p = platform_with(SpeculationConfig::for_mode(mode), pool, 17);
            p.deploy(dag.clone()).expect("deploy");
            for &t in &arrivals {
                p.trigger_at("abl", t).expect("trigger");
            }
            p.run_until_idle();
            let overhead = mean(p.results().iter().map(|r| r.overhead.as_millis_f64()));
            let mem = mean(p.results().iter().map(|r| r.resources.mem_mbs));
            table.row(&[label, mode.label(), &fmt_f64(overhead, 0), &fmt_f64(mem, 1)]);
            if mode == ExecutionMode::Jit {
                // Audit the headline cell: JIT with the 5s keep-alive §7 proposes.
                if label == "5s" {
                    audit = Some(audit_platform(&p));
                }
                jit_rows.push(overhead);
            } else {
                cold_rows.push(overhead);
            }
        }
    }
    let output = table.render();
    let findings = vec![
        Finding::new(
            "with JIT speculation, a seconds-scale keep-alive costs at most              the chain's single unavoidable cold start (§7)",
            format!(
                "jit overhead at 5s keep-alive {}ms vs {}ms at 30min",
                fmt_f64(jit_rows[0], 0),
                fmt_f64(jit_rows[3], 0)
            ),
            jit_rows[0] < 7000.0,
        ),
        Finding::new(
            "without speculation, short keep-alive re-introduces cascades",
            format!(
                "cold overhead at 5s {}ms vs {}ms at 30min",
                fmt_f64(cold_rows[0], 0),
                fmt_f64(cold_rows[3], 0)
            ),
            cold_rows[0] > cold_rows[3] * 2.0,
        ),
        Finding::new(
            "JIT beats Cold at every keep-alive setting",
            "see table",
            jit_rows.iter().zip(&cold_rows).all(|(j, c)| j < c),
        ),
    ];
    Experiment {
        id: "abl-keepalive",
        title: "Worker keep-alive sweep (future work §7)",
        output,
        findings,
        audit,
    }
}

/// `abl-ema`: the smoothing factor of the windowed exponential averaging
/// (§3.1) against a drifting workload: an XOR point flips its bias halfway
/// through. Small α adapts slowly; large α is twitchy but recovers fast.
pub fn ema() -> Experiment {
    let requests_per_phase = 40;
    let mut table = Table::new(
        "Ablation — EMA smoothing factor under branch-probability drift",
        &[
            "alpha",
            "wrong-MLP rounds after flip",
            "rounds to re-converge",
        ],
    );
    let mut rows = Vec::new();
    for &alpha in &[0.1, 0.3, 0.6, 0.9] {
        let mut detector = BranchDetector::with_alpha(alpha);
        let mut wrong_after_flip = 0;
        let mut reconverge: Option<usize> = None;
        for round in 0..(2 * requests_per_phase) {
            let hot = if round < requests_per_phase { "a" } else { "b" };
            detector.observe_request("root", None);
            detector.observe_request(hot, Some("root"));
            detector.roll_window();
            let predicted = detector
                .children("root")
                .first()
                .map(|e| e.child.clone())
                .map(|raw| {
                    // Decision uses smoothed probabilities like the planner.
                    let a = detector.smoothed_probability("root", "a").unwrap_or(0.0);
                    let b = detector.smoothed_probability("root", "b").unwrap_or(0.0);
                    if a >= b {
                        "a".to_string()
                    } else {
                        b.partial_cmp(&a).map(|_| "b".to_string()).unwrap_or(raw)
                    }
                })
                .unwrap_or_default();
            if round >= requests_per_phase && predicted != hot {
                wrong_after_flip += 1;
            }
            if round >= requests_per_phase && predicted == hot && reconverge.is_none() {
                reconverge = Some(round - requests_per_phase + 1);
            }
        }
        table.row(&[
            &fmt_f64(alpha, 1),
            &wrong_after_flip.to_string(),
            &reconverge.map_or("never".to_string(), |r| r.to_string()),
        ]);
        rows.push((alpha, wrong_after_flip, reconverge));
    }
    let output = table.render();
    let findings = vec![
        Finding::new(
            "larger smoothing factors re-converge faster after drift",
            "see table",
            rows.first().map(|r| r.1).unwrap_or(0) >= rows.last().map(|r| r.1).unwrap_or(0),
        ),
        Finding::new(
            "every smoothing factor eventually recovers the new MLP",
            "see table",
            rows.iter().all(|r| r.2.is_some()),
        ),
    ];
    Experiment {
        id: "abl-ema",
        title: "EMA smoothing factor vs branch-probability drift",
        output,
        findings,
        // Detector-only study — no platform runs, nothing to audit.
        audit: None,
    }
}

/// `abl-miss`: the paper's miss policy (stop all speculation, §3.2.2)
/// versus the future-work replan-and-reuse (§7), on the Table-1 lattice
/// with a weak 0.55 bias so misses are frequent.
pub fn miss_policy() -> Experiment {
    let dag = lattice_chain(0.55, 500.0).expect("lattice");
    let mut table = Table::new(
        "Ablation — prediction-miss policy (weakly biased lattice, 20 cold triggers)",
        &[
            "policy",
            "mean latency (s)",
            "mean misses",
            "mean workers",
            "mem cost (MB·s)",
        ],
    );
    let mut stats = Vec::new();
    let mut audit: Option<Audit> = None;
    for (policy, label) in [
        (MissPolicy::StopSpeculation, "stop-speculation (paper)"),
        (MissPolicy::ReplanAndReuse, "replan-and-reuse (§7)"),
    ] {
        let spec = SpeculationConfig {
            mode: ExecutionMode::Jit,
            miss_policy: policy,
            ..SpeculationConfig::default()
        };
        let (runs, run_audit) = cold_runs(
            &|s| platform_with(spec, PoolConfig::default(), s),
            &dag,
            20,
            COLD_SEED_BASE,
        );
        // Audit the paper's policy — the configuration the figures use.
        if matches!(policy, MissPolicy::StopSpeculation) {
            audit = Some(run_audit);
        }
        let latency = mean(runs.iter().map(|r| r.end_to_end.as_secs_f64()));
        let misses = mean(runs.iter().map(|r| r.misses as f64));
        let workers = mean(runs.iter().map(|r| r.workers_spawned as f64));
        let mem = mean(runs.iter().map(|r| r.resources.mem_mbs));
        table.row(&[
            label,
            &fmt_f64(latency, 2),
            &fmt_f64(misses, 2),
            &fmt_f64(workers, 2),
            &fmt_f64(mem, 1),
        ]);
        stats.push((latency, misses, workers, mem));
    }
    let output = table.render();
    let (stop, replan) = (&stats[0], &stats[1]);
    let findings = vec![
        Finding::new(
            "replanning recovers latency lost to misses",
            format!(
                "{}s (replan) vs {}s (stop)",
                fmt_f64(replan.0, 2),
                fmt_f64(stop.0, 2)
            ),
            replan.0 <= stop.0 * 1.02,
        ),
        Finding::new(
            "both policies observe the same workload miss rate",
            format!("{} vs {}", fmt_f64(stop.1, 2), fmt_f64(replan.1, 2)),
            (stop.1 - replan.1).abs() < 1.0,
        ),
    ];
    Experiment {
        id: "abl-miss",
        title: "Prediction-miss policy: stop vs replan-and-reuse",
        output,
        findings,
        audit,
    }
}

/// `abl-trace`: the §2.3 Azure-trace argument end-to-end — a fleet of
/// workflows where ≈45 % are invoked ≤ once/hour. On a chain-agnostic
/// keep-alive platform the rare class lives almost permanently cold; with
/// JIT speculation the cascade collapses to the single unavoidable cold
/// start regardless of popularity.
pub fn fleet_trace() -> Experiment {
    let cfg = AzureTraceConfig {
        workflows: 12,
        duration: SimDuration::from_mins(16 * 60),
        ..Default::default()
    };
    let traces = generate_trace(&cfg, 23);
    let exceedance = rare_gap_exceedance(&traces, SimDuration::from_mins(10));

    let run_fleet = |mode: ExecutionMode| {
        let mut p = platform_with(
            SpeculationConfig::for_mode(mode),
            PoolConfig::default(), // 10 min keep-alive
            23,
        );
        for t in &traces {
            // Each workflow gets its own functions (no cross-workflow
            // warm-worker sharing).
            let template = FunctionSpec::new(format!("{}-f", t.name)).service_ms(400.0);
            let dag = linear_chain(&t.name, 5, &template).expect("valid chain");
            p.deploy(dag).expect("deploy");
        }
        for t in &traces {
            for &at in &t.arrivals {
                p.trigger_at(&t.name, at).expect("trigger");
            }
        }
        p.run_until_idle();
        // Split per class.
        let rare_names: std::collections::HashSet<&str> = traces
            .iter()
            .filter(|t| t.rare)
            .map(|t| t.name.as_str())
            .collect();
        let class_overhead = |rare: bool| {
            mean(
                p.results()
                    .iter()
                    .filter(|r| rare_names.contains(&*r.workflow) == rare)
                    .map(|r| r.overhead.as_millis_f64()),
            )
        };
        let audit = audit_platform(&p);
        (class_overhead(true), class_overhead(false), audit)
    };

    let (cold_rare, cold_popular, _) = run_fleet(ExecutionMode::Cold);
    let (jit_rare, jit_popular, audit) = run_fleet(ExecutionMode::Jit);

    let mut table = Table::new(
        "Ablation — Azure-style fleet (12 workflows, 45% rare, 16h)",
        &[
            "class",
            "chain-agnostic overhead (ms)",
            "xanadu-jit overhead (ms)",
        ],
    );
    table.row(&["rare (≤1/h)", &fmt_f64(cold_rare, 0), &fmt_f64(jit_rare, 0)]);
    table.row(&[
        "popular",
        &fmt_f64(cold_popular, 0),
        &fmt_f64(jit_popular, 0),
    ]);
    let mut output = table.render();
    output.push_str(&format!(
        "
rare-class inter-arrival gaps exceeding the 10min keep-alive: {}%
",
        fmt_f64(exceedance * 100.0, 1)
    ));

    let findings = vec![
        Finding::new(
            "rare workflows' gaps exceed typical keep-alives (§2.3: most of the              rare class runs cold)",
            format!("{}% of gaps > 10min", fmt_f64(exceedance * 100.0, 1)),
            exceedance > 0.7,
        ),
        Finding::new(
            "chain-agnostic platforms punish rare workflows with full cascades",
            format!(
                "rare {}ms vs popular {}ms overhead",
                fmt_f64(cold_rare, 0),
                fmt_f64(cold_popular, 0)
            ),
            cold_rare > 3.0 * cold_popular,
        ),
        Finding::new(
            "JIT speculation makes overhead popularity-independent (≈one cold start)",
            format!(
                "rare {}ms vs popular {}ms under JIT",
                fmt_f64(jit_rare, 0),
                fmt_f64(jit_popular, 0)
            ),
            jit_rare < cold_rare / 2.5,
        ),
    ];
    Experiment {
        id: "abl-trace",
        title: "Azure-style mixed-popularity fleet (rare vs popular workflows)",
        output,
        findings,
        audit: Some(audit),
    }
}

/// `abl-hedge`: hedged speculation on weakly biased conditional points.
/// §5.3 notes equiprobable branches make the MLP oscillate and §5.4 shows
/// misses eroding speculation; hedging pre-provisions *both* near-tied
/// siblings, buying miss immunity with bounded extra memory.
pub fn hedging() -> Experiment {
    let dag = lattice_chain(0.55, 500.0).expect("weakly biased lattice");
    let mut table = Table::new(
        "Ablation — hedged speculation on a weakly biased lattice (20 cold triggers)",
        &[
            "hedge margin",
            "mean latency (s)",
            "mean misses",
            "mean workers",
            "mem cost (MB·s)",
        ],
    );
    let mut rows = Vec::new();
    let mut audit: Option<Audit> = None;
    for &margin in &[0.0, 0.05, 0.2, 1.0] {
        let spec = SpeculationConfig {
            mode: ExecutionMode::Jit,
            hedge_margin: margin,
            ..SpeculationConfig::default()
        };
        let (runs, run_audit) = cold_runs(
            &|s| platform_with(spec, PoolConfig::default(), s),
            &dag,
            20,
            COLD_SEED_BASE,
        );
        // Audit full hedging: the strict (margin 0) runs are the same
        // unhedged lattice triggers `abl-miss` audits.
        if margin == 1.0 {
            audit = Some(run_audit);
        }
        let latency = mean(runs.iter().map(|r| r.end_to_end.as_secs_f64()));
        let misses = mean(runs.iter().map(|r| r.misses as f64));
        let workers = mean(runs.iter().map(|r| r.workers_spawned as f64));
        let mem = mean(runs.iter().map(|r| r.resources.mem_mbs));
        table.row(&[
            &fmt_f64(margin, 2),
            &fmt_f64(latency, 2),
            &fmt_f64(misses, 2),
            &fmt_f64(workers, 2),
            &fmt_f64(mem, 1),
        ]);
        rows.push((margin, latency, misses, workers, mem));
    }
    let output = table.render();
    let strict = &rows[0];
    let full = rows.last().expect("rows");
    let findings = vec![
        Finding::new(
            "full hedging eliminates prediction misses on coin-flip branches",
            format!("{} misses at margin 1.0 vs {} strict", full.2, strict.2),
            full.2 == 0.0 && strict.2 > 0.0,
        ),
        Finding::new(
            "hedging reduces latency under weak biases",
            format!(
                "{}s at margin 1.0 vs {}s strict",
                fmt_f64(full.1, 2),
                fmt_f64(strict.1, 2)
            ),
            full.1 < strict.1,
        ),
        Finding::new(
            "the price is bounded extra pre-provisioning",
            format!(
                "{} workers/request at margin 1.0 vs {} strict",
                fmt_f64(full.3, 2),
                fmt_f64(strict.3, 2)
            ),
            full.3 > strict.3 && full.3 <= 8.0,
        ),
    ];
    Experiment {
        id: "abl-hedge",
        title: "Hedged speculation on near-tied conditional points",
        output,
        findings,
        audit,
    }
}

/// `abl-pool`: pre-crafted worker pools versus JIT speculation. The
/// paper's related work (§6) discusses pool-based cold-start mitigation
/// (Lin & Glikson) and argues "the overhead running costs of a
/// long-running pool can be significant" — this ablation measures exactly
/// that trade: both approaches kill cascading latency, but the pool pays a
/// continuous idle-memory bill between requests while JIT pays only
/// per-request.
pub fn pool_baseline() -> Experiment {
    let dag =
        linear_chain("abl", 5, &FunctionSpec::new("f").service_ms(500.0)).expect("valid chain");
    // Sparse traffic: 2 requests/hour for 6 hours, far past keep-alive.
    let arrivals = poisson(SimTime::ZERO, SimDuration::from_hours(6), 2.0, 77);
    let rates = CpuRates {
        provision_rate: 1.0,
        idle_rate: 0.01,
    };

    let mut table = Table::new(
        "Ablation — pre-crafted pool vs Xanadu JIT (depth-5 chain, 2 req/h, 6h)",
        &[
            "approach",
            "mean overhead (ms)",
            "steady-state memory bill (MB·s)",
        ],
    );
    let mut stats = Vec::new();
    let mut audit: Option<Audit> = None;
    for (label, mode, prewarm) in [
        ("chain-agnostic cold", ExecutionMode::Cold, 0usize),
        ("pre-crafted pool (k=1)", ExecutionMode::Cold, 1),
        ("xanadu-jit (30s keep-alive)", ExecutionMode::Jit, 0),
    ] {
        let mut builder = xanadu_platform::PlatformConfig::builder()
            .for_mode(mode, 33)
            .static_prewarm(prewarm);
        if mode == ExecutionMode::Jit {
            // Speculation covers the chain, so the §7 short keep-alive is
            // safe — this is the combination the paper's future work
            // proposes.
            builder = builder.pool(PoolConfig {
                keep_alive: SimDuration::from_secs(30),
                ..PoolConfig::default()
            });
        }
        let cfg = builder.build().expect("valid config");
        let mut p = xanadu_platform::Platform::new(cfg);
        p.deploy(dag.clone()).expect("deploy");
        for &t in &arrivals {
            p.trigger_at("abl", t).expect("trigger");
        }
        p.run_until_idle();
        let overhead = mean(p.results().iter().map(|r| r.overhead.as_millis_f64()));
        if mode == ExecutionMode::Jit {
            audit = Some(audit_platform(&p));
        }
        let report = p.finish();
        let steady: f64 = report
            .worker_records
            .iter()
            .map(|r| worker_steady_cost(r, rates).mem_mbs)
            .sum();
        table.row(&[label, &fmt_f64(overhead, 0), &fmt_f64(steady, 0)]);
        stats.push((overhead, steady));
    }
    let output = table.render();
    let (cold, pool, jit) = (&stats[0], &stats[1], &stats[2]);
    let findings = vec![
        Finding::new(
            "a pre-crafted pool also kills cascading latency",
            format!(
                "pool {}ms vs cold {}ms mean overhead",
                fmt_f64(pool.0, 0),
                fmt_f64(cold.0, 0)
            ),
            pool.0 < cold.0 / 4.0,
        ),
        Finding::new(
            "but the long-running pool's steady memory bill is significant (§6)",
            format!(
                "pool {} MB·s vs jit {} MB·s",
                fmt_f64(pool.1, 0),
                fmt_f64(jit.1, 0)
            ),
            pool.1 > 5.0 * jit.1,
        ),
        Finding::new(
            "JIT pays only the chain's single unavoidable cold start, \
             without the pool's standing bill",
            format!(
                "jit {}ms vs cold {}ms vs pool {}ms mean overhead",
                fmt_f64(jit.0, 0),
                fmt_f64(cold.0, 0),
                fmt_f64(pool.0, 0)
            ),
            jit.0 < cold.0 / 2.0 && jit.0 < 6500.0,
        ),
    ];
    Experiment {
        id: "abl-pool",
        title: "Pre-crafted worker pool vs JIT speculation (related work §6)",
        output,
        findings,
        audit,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn pool_baseline_holds() {
        let e = super::pool_baseline();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn hedging_holds() {
        let e = super::hedging();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn aggressiveness_holds() {
        let e = super::aggressiveness();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn keepalive_holds() {
        let e = super::keepalive();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn ema_holds() {
        let e = super::ema();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn miss_policy_holds() {
        let e = super::miss_policy();
        assert!(e.all_hold(), "{}", e.render());
    }

    #[test]
    fn fleet_trace_holds() {
        let e = super::fleet_trace();
        assert!(e.all_hold(), "{}", e.render());
    }
}
