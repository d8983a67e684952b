//! The `xanadu-repro` command line reads its experiment ids from the
//! suite's one table, `ALL_EXPERIMENTS`.

use std::collections::HashSet;
use std::process::Command;
use xanadu_bench::experiments::ALL_EXPERIMENTS;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xanadu-repro"))
        .args(args)
        .output()
        .expect("xanadu-repro runs")
}

/// `--list` prints every experiment id once, in `ALL_EXPERIMENTS` order,
/// and the usage text names the same ids in the same order.
#[test]
fn list_prints_each_experiment_id_once_in_table_order() {
    let table: Vec<&str> = ALL_EXPERIMENTS.iter().map(|&(id, _)| id).collect();

    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, table);
    let unique: HashSet<&str> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "duplicate ids in {listed:?}");

    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let known = stderr
        .lines()
        .find_map(|l| l.strip_prefix("known ids: "))
        .expect("usage names the known ids");
    assert_eq!(known.split(", ").collect::<Vec<_>>(), table);
}
