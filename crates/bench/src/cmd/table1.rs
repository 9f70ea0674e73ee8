//! Regenerate the paper's **Table 1: Base Statistics** — diff creations,
//! remote misses, messages, and data (KB) for lmw-i / lmw-u / bar-i / bar-u
//! across the eight applications on 8 processors.
//!
//! Absolute counts differ from the paper (its exact problem sizes and
//! measured windows are not recoverable); the shapes are the claims:
//! update protocols eliminate misses, the home effect cuts diffs, bar-i
//! moves whole pages (more data), bar-u needs the fewest messages.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::paper::TABLE1;
use crate::table::{fmt_count, TextTable};
use dsm_apps::Scale;
use dsm_core::ProtocolKind;

pub const USAGE: &str = "usage: dsm table1";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    let apps: Vec<&'static str> = TABLE1.iter().map(|r| r.app).collect();
    let protocols = ProtocolKind::BASE_FOUR;
    eprintln!(
        "running {} x {} matrix (8 procs, paper scale)...",
        apps.len(),
        protocols.len()
    );
    let outcomes = run_matrix(&apps, &protocols, Scale::Paper, 8);

    let headers = vec![
        "app",
        "diffs:li",
        "lu",
        "bi",
        "bu",
        "miss:li",
        "lu",
        "bi",
        "bu",
        "msgs:li",
        "lu",
        "bi",
        "bu",
        "dataKB:li",
        "lu",
        "bi",
        "bu",
    ];
    let mut t = TextTable::new(headers.clone());
    for app in &apps {
        let mut cells: Vec<String> = vec![app.to_string()];
        for metric in 0..4 {
            for &p in &protocols {
                let o = harness::find(&outcomes, app, p);
                let s = &o.report.stats;
                let v = match metric {
                    0 => fmt_count(s.diffs_created),
                    1 => fmt_count(s.remote_misses),
                    2 => fmt_count(s.paper_messages()),
                    _ => fmt_count(s.data_kbytes().round() as u64),
                };
                cells.push(v);
            }
        }
        t.row(cells);
    }
    println!("\nTable 1 (measured): Base Statistics — 8 processors, paper scale\n");
    print!("{}", t.render());

    let mut tp = TextTable::new(headers);
    for r in &TABLE1 {
        let mut cells: Vec<String> = vec![r.app.to_string()];
        for metric in 0..4 {
            let arr = match metric {
                0 => r.diffs,
                1 => r.misses,
                2 => r.messages,
                _ => r.data_kb,
            };
            cells.extend(arr.iter().map(|v| fmt_count(*v)));
        }
        tp.row(cells);
    }
    println!("\nTable 1 (paper): Base Statistics — for shape comparison\n");
    print!("{}", tp.render());

    // Shape checks the paper's prose makes.
    let mut shape_violations = 0;
    for app in &apps {
        let lu = harness::find(&outcomes, app, ProtocolKind::LmwU);
        let bu = harness::find(&outcomes, app, ProtocolKind::BarU);
        if *app != "barnes" && lu.report.stats.remote_misses != 0 {
            eprintln!("SHAPE: {app} lmw-u misses != 0");
            shape_violations += 1;
        }
        if bu.report.stats.remote_misses != 0 {
            eprintln!("SHAPE: {app} bar-u misses != 0");
            shape_violations += 1;
        }
    }
    if shape_violations == 0 {
        println!(
            "\nall Table-1 shape checks passed (update protocols eliminate steady-state misses)"
        );
    } else {
        println!("\n{shape_violations} shape check(s) FAILED");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
