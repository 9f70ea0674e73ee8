//! Regenerate the paper's **Figure 3: Time Breakdown for Bar-u** — the
//! per-application split of execution time into sigio handling, wait time,
//! OS overhead (dominated by `mprotect`), and application compute.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::table::TextTable;
use dsm_apps::Scale;
use dsm_core::ProtocolKind;
use dsm_sim::Category;

const APPS: [&str; 8] = [
    "barnes", "expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat",
];

pub const USAGE: &str = "usage: dsm fig3";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    eprintln!(
        "running bar-u across {} apps (8 procs, paper scale)...",
        APPS.len()
    );
    let outcomes = run_matrix(&APPS, &[ProtocolKind::BarU], Scale::Paper, 8);

    let mut t = TextTable::new(vec!["app", "sigio%", "wait%", "os%", "app%"]);
    for app in APPS {
        let o = harness::find(&outcomes, app, ProtocolKind::BarU);
        let total = o.report.total_breakdown();
        t.row(vec![
            app.to_string(),
            format!("{:.1}", 100.0 * total.fraction(Category::Sigio)),
            format!("{:.1}", 100.0 * total.fraction(Category::Wait)),
            format!("{:.1}", 100.0 * total.fraction(Category::Os)),
            format!("{:.1}", 100.0 * total.fraction(Category::App)),
        ]);
    }
    println!("\nFigure 3 (measured): time breakdown for bar-u (all-process totals)\n");
    print!("{}", t.render());

    println!("\nstacked view:\n");
    for app in APPS {
        let o = harness::find(&outcomes, app, ProtocolKind::BarU);
        let total = o.report.total_breakdown();
        let width = 50usize;
        let mut lens = [Category::Sigio, Category::Wait, Category::Os]
            .map(|c| (total.fraction(c) * width as f64).round() as usize);
        let used: usize = lens.iter().sum();
        let app_len = width.saturating_sub(used);
        if used > width {
            lens[1] = lens[1].saturating_sub(used - width);
        }
        println!(
            "{:>8} |{}{}{}{}|",
            app,
            "s".repeat(lens[0]),
            "w".repeat(lens[1]),
            "o".repeat(lens[2]),
            "a".repeat(app_len),
        );
    }
    println!("\n  s = sigio, w = wait, o = OS (mprotect/segv/syscalls), a = application");

    // The paper's observation: fft, shallow, and swm have substantial OS
    // components (mprotect under stress).
    for heavy in ["fft", "shallow", "swm"] {
        let o = harness::find(&outcomes, heavy, ProtocolKind::BarU);
        let f = o.report.total_breakdown().fraction(Category::Os);
        println!(
            "{heavy}: OS fraction {:.1}% {}",
            100.0 * f,
            if f > 0.10 {
                "(substantial, as in the paper)"
            } else {
                "(LOW — expected substantial)"
            }
        );
    }
    Ok(ExitCode::SUCCESS)
}
