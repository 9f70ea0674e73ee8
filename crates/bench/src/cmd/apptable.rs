//! Reconstruct the paper's application-characteristics table.
//!
//! The paper's source text lost this table (its Word artifact prints
//! "Error! Reference source not found."); its caption says it reported the
//! shared segment size and the synchronization granularity ("the average
//! period between barrier synchronizations") per application. We measure
//! both from instrumented bar-u runs at paper scale.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::table::TextTable;
use dsm_apps::{all_apps, Scale};
use dsm_core::ProtocolKind;

pub const USAGE: &str = "usage: dsm apptable";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    let apps: Vec<&'static str> = all_apps().iter().map(|a| a.name).collect();
    eprintln!(
        "running bar-u across {} apps (8 procs, paper scale)...",
        apps.len()
    );
    let outcomes = run_matrix(&apps, &[ProtocolKind::BarU], Scale::Paper, 8);

    let mut t = TextTable::new(vec![
        "app",
        "seg. size (MB)",
        "seg. pages",
        "phases/iter",
        "sync gran. (ms)",
        "barriers",
    ]);
    for spec in all_apps() {
        let o = harness::find(&outcomes, spec.name, ProtocolKind::BarU);
        let phases = spec.build(Scale::Paper).phases();
        let pages = o.report.segment_pages;
        let gran_ms = o.report.elapsed.as_ms_f64() / o.report.stats.barriers.max(1) as f64;
        t.row(vec![
            spec.name.to_string(),
            format!("{:.1}", pages as f64 * 8192.0 / (1024.0 * 1024.0)),
            format!("{pages}"),
            format!("{phases}"),
            format!("{gran_ms:.2}"),
            format!("{}", o.report.stats.barriers),
        ]);
    }
    println!("\nApplication characteristics (measured under bar-u, 8 processors)\n");
    print!("{}", t.render());
    println!(
        "\nThis reconstructs the paper's missing application table: \"The shared \
         segment size is the size of the shared portion of the address space, \
         while 'Sync. Gran.' is the average period between barrier \
         synchronizations.\""
    );
    println!(
        "Fine granularity (swm) and large segments (fft, shallow, swm) are \
         exactly where Figures 3 and 4 locate the OS overhead and bar-m's wins."
    );
    Ok(ExitCode::SUCCESS)
}
