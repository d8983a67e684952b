//! Figure 15: Xanadu Speculative and JIT versus Cold on 100 random
//! conditional trees (scatter profiles).
//!
//! Each of the 100 random biased binary trees is evaluated with 10
//! requests per mode (1000 requests per mode). The paper reports, for
//! chains longer than two functions: overhead-latency gains of 29–45 %
//! (averaging ≈37 % Speculative / ≈34 % JIT); Speculative CPU overhead
//! within ≈11.9 % of Cold, JIT within ≈1 %; and memory costs of ≈5.8×
//! (Speculative) improving to ≈2.7× (JIT).

use crate::harness::{cold_runs, mean, xanadu, Experiment, Finding, COLD_SEED_BASE};
use xanadu_core::speculation::ExecutionMode;
use xanadu_simcore::report::{fmt_f64, Table};
use xanadu_workloads::{random_binary_tree, RandomTreeConfig};

const TREES: u64 = 100;
const TRIGGERS_PER_TREE: u64 = 10;

#[derive(Debug, Clone, Copy, Default)]
struct ModeStats {
    overhead_ms: f64,
    cpu_s: f64,
    mem_mbs: f64,
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut per_tree: Vec<(usize, [ModeStats; 3])> = Vec::new();
    for seed in 0..TREES {
        let nodes = 1 + (seed % 10) as usize;
        let cfg = RandomTreeConfig {
            nodes,
            ..Default::default()
        };
        let dag = random_binary_tree(&cfg, seed).expect("tree");
        let mut stats = [ModeStats::default(); 3];
        for (i, mode) in [
            ExecutionMode::Cold,
            ExecutionMode::Speculative,
            ExecutionMode::Jit,
        ]
        .into_iter()
        .enumerate()
        {
            let (runs, _) = cold_runs(
                &|s| xanadu(mode, s),
                &dag,
                TRIGGERS_PER_TREE,
                COLD_SEED_BASE,
            );
            stats[i] = ModeStats {
                overhead_ms: mean(runs.iter().map(|r| r.overhead.as_millis_f64())),
                cpu_s: mean(runs.iter().map(|r| r.resources.cpu_s)),
                mem_mbs: mean(runs.iter().map(|r| r.resources.mem_mbs)),
            };
        }
        per_tree.push((nodes, stats));
    }

    // The paper's gains are quoted for chains longer than two functions.
    let eligible: Vec<&(usize, [ModeStats; 3])> = per_tree.iter().filter(|(n, _)| *n > 2).collect();
    let gain = |mode: usize| {
        mean(
            eligible
                .iter()
                .map(|(_, s)| 1.0 - s[mode].overhead_ms / s[0].overhead_ms.max(1e-9)),
        ) * 100.0
    };
    let cpu_overhead_pct = |mode: usize| {
        mean(
            eligible
                .iter()
                .map(|(_, s)| s[mode].cpu_s / s[0].cpu_s.max(1e-9) - 1.0),
        ) * 100.0
    };
    let mem_ratio = |mode: usize| {
        mean(
            eligible
                .iter()
                .map(|(_, s)| s[mode].mem_mbs / s[0].mem_mbs.max(1e-9)),
        )
    };

    let mut table = Table::new(
        "Figure 15 — per-tree means over 100 random trees × 10 requests (chains > 2 functions)",
        &["metric", "speculative vs cold", "jit vs cold"],
    );
    let spec_gain = gain(1);
    let jit_gain = gain(2);
    table.row(&[
        "overhead latency gain",
        &format!("{}%", fmt_f64(spec_gain, 1)),
        &format!("{}%", fmt_f64(jit_gain, 1)),
    ]);
    let spec_cpu = cpu_overhead_pct(1);
    let jit_cpu = cpu_overhead_pct(2);
    table.row(&[
        "CPU cost overhead",
        &format!("{}%", fmt_f64(spec_cpu, 1)),
        &format!("{}%", fmt_f64(jit_cpu, 1)),
    ]);
    let spec_mem = mem_ratio(1);
    let jit_mem = mem_ratio(2);
    table.row(&[
        "memory cost ratio",
        &format!("{}×", fmt_f64(spec_mem, 1)),
        &format!("{}×", fmt_f64(jit_mem, 1)),
    ]);
    let mut output = table.render();

    // A small scatter sample: first 10 trees, overhead cold vs spec/jit.
    let mut scatter = Table::new(
        "Scatter sample (first 10 trees): per-tree mean overhead (ms)",
        &["tree", "functions", "cold", "speculative", "jit"],
    );
    for (i, (n, s)) in per_tree.iter().take(10).enumerate() {
        scatter.row(&[
            &i.to_string(),
            &n.to_string(),
            &fmt_f64(s[0].overhead_ms, 0),
            &fmt_f64(s[1].overhead_ms, 0),
            &fmt_f64(s[2].overhead_ms, 0),
        ]);
    }
    output.push_str(&scatter.render());

    let mut findings = Vec::new();
    findings.push(Finding::new(
        "Speculative overhead gains average ≈37% on conditional chains",
        format!("{}%", fmt_f64(spec_gain, 1)),
        spec_gain > 20.0,
    ));
    findings.push(Finding::new(
        "JIT overhead gains average ≈34%",
        format!("{}%", fmt_f64(jit_gain, 1)),
        jit_gain > 20.0,
    ));
    findings.push(Finding::new(
        "Speculative CPU overhead within ≈11.9% of Cold",
        format!("{}%", fmt_f64(spec_cpu, 1)),
        spec_cpu < 25.0,
    ));
    findings.push(Finding::new(
        "JIT CPU overhead ≈1% of Cold",
        format!("{}%", fmt_f64(jit_cpu, 1)),
        jit_cpu.abs() < 12.0,
    ));
    findings.push(Finding::new(
        "memory cost ≈5.8× (Speculative) improving to ≈2.7× (JIT) of Cold",
        format!("{}× vs {}×", fmt_f64(spec_mem, 1), fmt_f64(jit_mem, 1)),
        spec_mem > jit_mem && jit_mem < spec_mem * 0.8,
    ));
    findings.push(Finding::new(
        "even under prediction misses Xanadu outperforms no-optimization",
        format!(
            "both modes positive mean gain ({}% / {}%)",
            fmt_f64(spec_gain, 1),
            fmt_f64(jit_gain, 1)
        ),
        spec_gain > 0.0 && jit_gain > 0.0,
    ));

    // Audit one representative conditional tree under Speculative mode —
    // the regime where mispredicted branches create wasted pre-deploys.
    let audit_dag = random_binary_tree(
        &RandomTreeConfig {
            nodes: 10,
            ..Default::default()
        },
        9,
    )
    .expect("tree");
    let (_, audit) = cold_runs(
        &|s| xanadu(ExecutionMode::Speculative, s),
        &audit_dag,
        TRIGGERS_PER_TREE,
        COLD_SEED_BASE,
    );

    Experiment {
        id: "fig15",
        title: "Conditional chains: Speculative & JIT vs Cold on 100 random trees",
        output,
        findings,
        audit: Some(audit),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn findings_hold() {
        let e = super::run();
        assert!(e.all_hold(), "{}", e.render());
    }
}
