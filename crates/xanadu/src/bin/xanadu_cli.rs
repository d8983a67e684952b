//! Thin shell around [`xanadu::cli`]: reads SDL files from disk and prints
//! the rendered report. See `xanadu help` for usage.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use xanadu::cli::{execute_with_exports, parse_args, CliError, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let read_file = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match execute_with_exports(&command, read_file) {
        Ok((report, exports)) => {
            for file in &exports {
                if let Err(e) = std::fs::write(&file.path, &file.contents) {
                    eprintln!("error: writing {}: {e}", file.path);
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", file.path);
            }
            // A reader that stopped early (`| head`) closed stdout: the
            // work is done and the exports are written, so that is no error.
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(report.as_bytes())
                .and_then(|()| stdout.write_all(b"\n"))
                .and_then(|()| stdout.flush());
            match written {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: writing the report: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            // An SLO breach still writes the staged exports (the windowed
            // evaluation is the evidence for the non-zero exit).
            if let CliError::SloBreach { exports, .. } = &e {
                for file in exports {
                    if let Err(write_err) = std::fs::write(&file.path, &file.contents) {
                        eprintln!("error: writing {}: {write_err}", file.path);
                    } else {
                        eprintln!("wrote {}", file.path);
                    }
                }
            }
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
