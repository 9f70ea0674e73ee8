//! Regenerate the paper's **Figure 2: 8-Proc Speedups** — speedups of
//! lmw-i / lmw-u / bar-i / bar-u over the nulled-synchronization
//! uniprocessor baseline, for all eight applications.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::paper::FIG2_APPROX;
use crate::table::{bar, TextTable};
use dsm_apps::Scale;
use dsm_core::ProtocolKind;

pub const USAGE: &str = "usage: dsm fig2";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    let apps: Vec<&'static str> = FIG2_APPROX.iter().map(|(a, _)| *a).collect();
    let protocols = ProtocolKind::BASE_FOUR;
    eprintln!(
        "running {} x {} matrix (8 procs, paper scale)...",
        apps.len(),
        protocols.len()
    );
    let outcomes = run_matrix(&apps, &protocols, Scale::Paper, 8);

    let mut t = TextTable::new(vec!["app", "lmw-i", "lmw-u", "bar-i", "bar-u", "paper(bu)"]);
    for (app, paper_vals) in &FIG2_APPROX {
        let mut cells = vec![app.to_string()];
        for &p in &protocols {
            let o = harness::find(&outcomes, app, p);
            cells.push(format!("{:.2}", o.speedup()));
        }
        cells.push(format!("~{:.1}", paper_vals[3]));
        t.row(cells);
    }
    println!("\nFigure 2 (measured): 8-processor speedups\n");
    print!("{}", t.render());

    println!("\nbar-u speedups (measured):\n");
    for (app, _) in &FIG2_APPROX {
        let o = harness::find(&outcomes, app, ProtocolKind::BarU);
        println!("{:>8} |{}", app, bar(o.speedup(), 8.0, 48));
    }

    // The prose claims to verify.
    let mut better = 0usize;
    let mut total = 0usize;
    let mut bu_gains: Vec<f64> = Vec::new();
    for (app, _) in &FIG2_APPROX {
        let li = harness::find(&outcomes, app, ProtocolKind::LmwI).speedup();
        let lu = harness::find(&outcomes, app, ProtocolKind::LmwU).speedup();
        let bu = harness::find(&outcomes, app, ProtocolKind::BarU).speedup();
        // "the home-based protocols outperform the homeless protocols"
        total += 1;
        if bu >= lu.max(li) * 0.98 {
            better += 1;
        }
        bu_gains.push(bu / lu.max(li) - 1.0);
    }
    let avg_gain = bu_gains.iter().sum::<f64>() / bu_gains.len() as f64;
    println!(
        "\nbar-u vs best lmw: home-based wins on {better}/{total} apps; \
         mean gain {:+.0}% (paper: ~+19%)",
        avg_gain * 100.0
    );
    Ok(ExitCode::SUCCESS)
}
