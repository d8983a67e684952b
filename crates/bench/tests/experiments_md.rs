//! `EXPERIMENTS.md` shows what the suite measures today: everything from
//! its `# fig1` heading on is byte for byte what
//! `xanadu-repro --jobs 2 all` prints. The suite is rendered in-process,
//! so the test writes no `BENCH_harness.json`.

use std::path::Path;

use xanadu_bench::experiments::all;
use xanadu_bench::harness::set_jobs;

#[test]
fn experiments_md_body_is_the_suites_output() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let start = text
        .find("\n# fig1")
        .map(|i| i + 1)
        .expect("EXPERIMENTS.md has a `# fig1` section");
    let checked_in = &text[start..];
    set_jobs(2);
    let rendered: String = all().iter().map(|e| format!("{}\n", e.render())).collect();
    if checked_in == rendered {
        return;
    }
    let header_lines = text[..start].lines().count();
    let (line, (want, got)) = checked_in
        .lines()
        .zip(rendered.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, pair)| (header_lines + i + 1, pair))
        .unwrap_or((0, ("<length differs>", "<length differs>")));
    panic!(
        "EXPERIMENTS.md is not the suite's output ({} vs {} bytes from `# fig1`); \
         first difference at line {line}:\n  checked in: {want}\n  rendered:   {got}\n\
         regenerate its body with `xanadu-repro --jobs 2 all`",
        checked_in.len(),
        rendered.len()
    );
}
