//! `perfbench-harness`: the in-process half of the benchmark driven by
//! `perfbench/run.py`.
//!
//! ```text
//! perfbench-harness <rep|check|trace> <workdir> <xanadu CLI arguments...>
//! ```
//!
//! The trailing arguments are exactly the ones the user-facing
//! `xanadu_cli` run of the same workload receives; they are parsed with
//! the CLI's own parser, so both halves always agree on the workload.
//!
//! * `rep` — one measured repetition: setup, then the timed entry call
//!   (`replay_sharded_with` or `run_serve`).
//! * `check` — the once-per-run output checks (replay at the other shard
//!   width; serve's checkpoint epochs driven again and compared).
//! * `trace` — the traced per-layer run, its self-check and the probes.
//!
//! Prints one JSON object on stdout; exits 1 with a message on stderr
//! when a run or a self-check fails.

mod ledger;
mod probes;
mod replay;
mod service;

use std::path::Path;
use std::process::ExitCode;

use xanadu::cli::{parse_args, Command};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [mode, workdir, cli @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-harness <rep|check|trace> <workdir> <xanadu args...>");
        return ExitCode::FAILURE;
    };
    let command = match parse_args(cli) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workdir = Path::new(workdir);
    let mut out = ledger::Record::default();
    let result = match (mode.as_str(), &command) {
        ("rep", Command::Replay(a)) => replay::rep(a, &mut out),
        ("check", Command::Replay(a)) => replay::check(a, &mut out),
        ("trace", Command::Replay(a)) => replay::trace(a, &mut out),
        ("rep", Command::Serve(a)) => service::rep(a, &mut out),
        ("check", Command::Serve(a)) => service::check(a, &mut out),
        ("trace", Command::Serve(a)) => service::trace(a, workdir, &mut out),
        _ => Err(format!("no `{mode}` measurement for this command")),
    };
    match result {
        Ok(()) => {
            println!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
