//! # dsm-bench — the paper-reproduction harness
//!
//! One binary, `dsm`, with one subcommand per run of the paper's
//! evaluation section and per checked report ([`cmd::COMMANDS`]):
//!
//! * `paper` — one 8-processor paper-scale run of every application under
//!   lmw-i / lmw-u / bar-i / bar-u / bar-s / bar-m, rendered into Table 1
//!   "Base Statistics", Figure 2 "8-Proc Speedups", Figure 3 "Time
//!   Breakdown for Bar-u", Figure 4 "Overdrive Speedups", the §3.3/§5.1
//!   headline ratios and the paper's lost application table,
//! * `sweep` — ablations (process count, page size, stress model,
//!   migration, flush loss),
//! * `checked`, `campaign`, `transport`, `explore`, `plan`, `regions`,
//!   `scale` — the oracle-checked and static reports.
//!
//! [`manifest::MANIFEST`] is the one record of which command line
//! regenerates which committed `results/` file; `dsm list` prints it and
//! `dsm regen` runs it. The library provides the shared run matrix and
//! cell driver (host-parallel across independent runs), table formatting,
//! and the paper's reference numbers.

#![forbid(unsafe_code)]

use std::process::ExitCode;

pub mod cli;
pub mod cmd;
pub mod harness;
pub mod manifest;
pub mod paper;
pub mod table;

pub use harness::{run_matrix, run_one, Outcome, RunPlan};

use cli::{CliError, Flags};
use cmd::{Command, COMMANDS};

/// The top level of a command line: `[--jobs N] <subcommand>`.
fn subcommand(flags: &mut Flags) -> Result<&'static Command, CliError> {
    let mut name = flags.next_flag();
    if name.as_deref() == Some("--jobs") {
        harness::set_jobs(flags.parsed()?);
        name = flags.next_flag();
    }
    let name = name.ok_or_else(|| CliError("missing subcommand".to_string()))?;
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError(format!("unknown subcommand {name:?}")))
}

/// Run `dsm [--jobs N] <subcommand> [args..]`. A bad command line — the
/// top level's or the subcommand's — prints the reason and the usage and
/// exits 2.
pub fn dispatch(args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut flags = Flags::new(args);
    let (what, usage, result) = match subcommand(&mut flags) {
        Ok(cmd) => (
            format!("dsm {}", cmd.name),
            cmd.usage.to_string(),
            (cmd.run)(flags),
        ),
        Err(e) => {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            let usage = format!(
                "usage: dsm [--jobs N] <subcommand> [args..]\nsubcommands: {}",
                names.join(" ")
            );
            ("dsm".to_string(), usage, Err(e))
        }
    };
    result.unwrap_or_else(|CliError(why)| {
        eprintln!("{what}: {why}\n{usage}");
        ExitCode::from(2)
    })
}
