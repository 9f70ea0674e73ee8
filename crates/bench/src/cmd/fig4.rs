//! Regenerate the paper's **Figure 4: Overdrive Speedups** — best-lmw,
//! bar-u, bar-s, and bar-m speedups for the seven applications with static
//! sharing patterns (barnes is excluded: "its sharing pattern, although
//! iterative, is highly dynamic").

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::table::TextTable;
use dsm_apps::Scale;
use dsm_core::ProtocolKind;

const APPS: [&str; 7] = ["expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat"];

pub const USAGE: &str = "usage: dsm fig4";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    let protocols = [
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarU,
        ProtocolKind::BarS,
        ProtocolKind::BarM,
    ];
    eprintln!(
        "running {} x {} matrix (8 procs, paper scale)...",
        APPS.len(),
        protocols.len()
    );
    let outcomes = run_matrix(&APPS, &protocols, Scale::Paper, 8);

    let mut t = TextTable::new(vec!["app", "lmw(best)", "bar-u", "bar-s", "bar-m"]);
    let mut s_gains = Vec::new();
    let mut m_gains = Vec::new();
    for app in APPS {
        let li = harness::find(&outcomes, app, ProtocolKind::LmwI).speedup();
        let lu = harness::find(&outcomes, app, ProtocolKind::LmwU).speedup();
        let bu = harness::find(&outcomes, app, ProtocolKind::BarU).speedup();
        let bs = harness::find(&outcomes, app, ProtocolKind::BarS).speedup();
        let bm = harness::find(&outcomes, app, ProtocolKind::BarM).speedup();
        t.row(vec![
            app.to_string(),
            format!("{:.2}", li.max(lu)),
            format!("{bu:.2}"),
            format!("{bs:.2}"),
            format!("{bm:.2}"),
        ]);
        s_gains.push(bs / bu - 1.0);
        m_gains.push(bm / bu - 1.0);

        // §5.1 invariants: identical traffic across bar-u/s/m.
        let msgs = |p| {
            harness::find(&outcomes, app, p)
                .report
                .stats
                .paper_messages()
        };
        let bytes = |p: ProtocolKind| {
            harness::find(&outcomes, app, p)
                .report
                .stats
                .net
                .total_payload_bytes()
        };
        assert_eq!(
            msgs(ProtocolKind::BarU),
            msgs(ProtocolKind::BarS),
            "{app} msgs u/s"
        );
        assert_eq!(
            msgs(ProtocolKind::BarU),
            msgs(ProtocolKind::BarM),
            "{app} msgs u/m"
        );
        assert_eq!(
            bytes(ProtocolKind::BarU),
            bytes(ProtocolKind::BarS),
            "{app} bytes u/s"
        );
        assert_eq!(
            bytes(ProtocolKind::BarU),
            bytes(ProtocolKind::BarM),
            "{app} bytes u/m"
        );
    }
    println!("\nFigure 4 (measured): overdrive speedups — 8 processors\n");
    print!("{}", t.render());

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nbar-s vs bar-u: {:+.1}% average (paper: ~+2%)",
        100.0 * avg(&s_gains)
    );
    println!(
        "bar-m vs bar-u: {:+.1}% average (paper: ~+34%)",
        100.0 * avg(&m_gains)
    );
    println!("\ntraffic invariant verified: bar-u, bar-s, bar-m sent identical messages and bytes");
    Ok(ExitCode::SUCCESS)
}
