//! The paper's headline ratios (§3.3, §5.1), paper vs measured:
//!
//! * bar-i vs lmw-i: ~36% fewer diffs, ~31% fewer misses, ~49% fewer
//!   messages, ~74% more data;
//! * bar-u ≈ +19% speedup over the better lmw protocol;
//! * bar-s ≈ bar-u + 2%; bar-m ≈ + 34% on top;
//! * overall, "our update home-based protocols average 51% better than the
//!   original lmw invalidate protocols".

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{self, run_matrix};
use crate::paper::{mean_rel_change, PAPER_HEADLINES};
use crate::table::TextTable;
use dsm_apps::Scale;
use dsm_core::ProtocolKind;

const ALL: [&str; 8] = [
    "barnes", "expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat",
];
const STATIC7: [&str; 7] = ["expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat"];

pub const USAGE: &str = "usage: dsm summary";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    let protocols = [
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarI,
        ProtocolKind::BarU,
        ProtocolKind::BarS,
        ProtocolKind::BarM,
    ];
    eprintln!(
        "running the full {}x{} matrix (8 procs, paper scale)...",
        ALL.len(),
        protocols.len()
    );
    // barnes cannot run the overdrive protocols meaningfully, but they fall
    // back to bar-u behaviour, so the full matrix is safe.
    let outcomes = run_matrix(&ALL, &protocols, Scale::Paper, 8);

    let get = |app: &str, p: ProtocolKind| harness::find(&outcomes, app, p);
    let col = |p: ProtocolKind, f: &dyn Fn(&harness::Outcome) -> f64| -> Vec<f64> {
        ALL.iter().map(|a| f(get(a, p))).collect()
    };

    let diffs = |o: &harness::Outcome| o.report.stats.diffs_created as f64;
    let misses = |o: &harness::Outcome| o.report.stats.remote_misses as f64;
    let msgs = |o: &harness::Outcome| o.report.stats.paper_messages() as f64;
    let data = |o: &harness::Outcome| o.report.stats.data_kbytes();

    let li_d = col(ProtocolKind::LmwI, &diffs);
    let bi_d = col(ProtocolKind::BarI, &diffs);
    let li_m = col(ProtocolKind::LmwI, &misses);
    let bi_m = col(ProtocolKind::BarI, &misses);
    let li_g = col(ProtocolKind::LmwI, &msgs);
    let bi_g = col(ProtocolKind::BarI, &msgs);
    let li_b = col(ProtocolKind::LmwI, &data);
    let bi_b = col(ProtocolKind::BarI, &data);

    // Speedup aggregates over the static seven for the overdrive rows.
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let bu_gain: Vec<f64> = ALL
        .iter()
        .map(|a| {
            let best_lmw = get(a, ProtocolKind::LmwI)
                .speedup()
                .max(get(a, ProtocolKind::LmwU).speedup());
            get(a, ProtocolKind::BarU).speedup() / best_lmw - 1.0
        })
        .collect();
    let bs_gain: Vec<f64> = STATIC7
        .iter()
        .map(|a| get(a, ProtocolKind::BarS).speedup() / get(a, ProtocolKind::BarU).speedup() - 1.0)
        .collect();
    let bm_gain: Vec<f64> = STATIC7
        .iter()
        .map(|a| get(a, ProtocolKind::BarM).speedup() / get(a, ProtocolKind::BarU).speedup() - 1.0)
        .collect();
    let overall: Vec<f64> = STATIC7
        .iter()
        .map(|a| get(a, ProtocolKind::BarM).speedup() / get(a, ProtocolKind::LmwI).speedup() - 1.0)
        .collect();

    let mut t = TextTable::new(vec!["headline", "paper", "measured"]);
    let pct = |x: f64| format!("{:+.0}%", 100.0 * x);
    t.row(vec![
        "bar-i diffs vs lmw-i".to_string(),
        pct(-PAPER_HEADLINES.bar_i_fewer_diffs),
        pct(mean_rel_change(&li_d, &bi_d)),
    ]);
    t.row(vec![
        "bar-i remote misses vs lmw-i".to_string(),
        pct(-PAPER_HEADLINES.bar_i_fewer_misses),
        pct(mean_rel_change(&li_m, &bi_m)),
    ]);
    t.row(vec![
        "bar-i messages vs lmw-i".to_string(),
        pct(-PAPER_HEADLINES.bar_i_fewer_messages),
        pct(mean_rel_change(&li_g, &bi_g)),
    ]);
    t.row(vec![
        "bar-i data vs lmw-i".to_string(),
        pct(PAPER_HEADLINES.bar_i_more_data),
        pct(mean_rel_change(&li_b, &bi_b)),
    ]);
    t.row(vec![
        "bar-u speedup vs best lmw".to_string(),
        pct(PAPER_HEADLINES.bar_u_gain),
        pct(avg(&bu_gain)),
    ]);
    t.row(vec![
        "bar-s speedup vs bar-u".to_string(),
        pct(PAPER_HEADLINES.bar_s_gain),
        pct(avg(&bs_gain)),
    ]);
    t.row(vec![
        "bar-m speedup vs bar-u".to_string(),
        pct(PAPER_HEADLINES.bar_m_gain),
        pct(avg(&bm_gain)),
    ]);
    t.row(vec![
        "bar-m vs lmw-i overall".to_string(),
        "+51%".to_string(),
        pct(avg(&overall)),
    ]);

    println!("\nHeadline ratios — paper vs measured (8 procs, paper scale)\n");
    print!("{}", t.render());
    println!("\n(relative-change rows use geometric means over the 8 apps; speedup rows are arithmetic means)");
    Ok(ExitCode::SUCCESS)
}
