//! Ablation sweeps for the design choices DESIGN.md calls out:
//!
//! * processor count (2..16) — scaling shape per protocol,
//! * page size 4 KB vs 8 KB (the paper chose 8 KB granularity),
//! * the mprotect stress model on/off (how much of bar-m's win is the
//!   OS-degradation effect),
//! * home migration on/off (how much the runtime assignment buys),
//! * unreliable-flush loss (correctness holds; performance degrades).

// Each sweep defines its config-tweak fn right next to the matrix call
// that uses it; hoisting them to the top would separate cause from effect.
#![allow(clippy::items_after_statements)]

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::harness::{run_baseline, run_one, RunPlan};
use crate::table::TextTable;
use dsm_apps::{app_by_name, Scale};
use dsm_core::{ProtocolKind, RunConfig};

fn plan_with(
    app: &'static str,
    protocol: ProtocolKind,
    nprocs: usize,
    tweak: Option<fn(&mut RunConfig)>,
) -> RunPlan {
    let mut p = RunPlan::new(app, protocol, Scale::Paper, nprocs);
    p.tweak = tweak;
    p
}

pub const USAGE: &str = "usage: dsm sweep";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    // --- 1. processor-count sweep -------------------------------------
    println!("\n[1] processor-count sweep (sor + fft, bar-u vs lmw-i)\n");
    let mut t = TextTable::new(vec![
        "nprocs",
        "sor lmw-i",
        "sor bar-u",
        "fft lmw-i",
        "fft bar-u",
    ]);
    for n in [2usize, 4, 8, 16] {
        let mut cells = vec![n.to_string()];
        for app in ["sor", "fft"] {
            let spec = app_by_name(app).unwrap();
            let (seq, _) = run_baseline(&spec, Scale::Paper, None);
            for p in [ProtocolKind::LmwI, ProtocolKind::BarU] {
                let o = run_one(&plan_with(spec.name, p, n, None), Some(seq));
                cells.push(format!("{:.2}", o.speedup()));
            }
        }
        t.row(cells);
    }
    print!("{}", t.render());

    // --- 2. page size --------------------------------------------------
    println!("\n[2] page size: 4 KB vs 8 KB (jacobi, bar-u and lmw-i)\n");
    let mut t = TextTable::new(vec![
        "page",
        "jacobi lmw-i",
        "jacobi bar-u",
        "misses li",
        "dataKB bu",
    ]);
    fn use_4k(c: &mut RunConfig) {
        c.sim.page_size = 4096;
    }
    for (label, tweak) in [("8192", None), ("4096", Some(use_4k as fn(&mut RunConfig)))] {
        let spec = app_by_name("jacobi").unwrap();
        let (seq, _) = run_baseline(&spec, Scale::Paper, tweak);
        let li = run_one(
            &plan_with("jacobi", ProtocolKind::LmwI, 8, tweak),
            Some(seq),
        );
        let bu = run_one(
            &plan_with("jacobi", ProtocolKind::BarU, 8, tweak),
            Some(seq),
        );
        t.row(vec![
            label.to_string(),
            format!("{:.2}", li.speedup()),
            format!("{:.2}", bu.speedup()),
            format!("{}", li.report.stats.remote_misses),
            format!("{:.0}", bu.report.stats.data_kbytes()),
        ]);
    }
    print!("{}", t.render());

    // --- 3. stress model ----------------------------------------------
    println!(
        "\n[3] mprotect stress model on/off (swm): how much of bar-m's win is OS degradation\n"
    );
    let mut t = TextTable::new(vec!["stress", "bar-u", "bar-m", "bar-m gain"]);
    fn no_stress(c: &mut RunConfig) {
        c.sim.stress.enabled = false;
    }
    for (label, tweak) in [("on", None), ("off", Some(no_stress as fn(&mut RunConfig)))] {
        let spec = app_by_name("swm").unwrap();
        let (seq, _) = run_baseline(&spec, Scale::Paper, tweak);
        let bu = run_one(&plan_with("swm", ProtocolKind::BarU, 8, tweak), Some(seq));
        let bm = run_one(&plan_with("swm", ProtocolKind::BarM, 8, tweak), Some(seq));
        t.row(vec![
            label.to_string(),
            format!("{:.2}", bu.speedup()),
            format!("{:.2}", bm.speedup()),
            format!("{:+.1}%", 100.0 * (bm.speedup() / bu.speedup() - 1.0)),
        ]);
    }
    print!("{}", t.render());

    // --- 4. home migration ---------------------------------------------
    println!("\n[4] runtime home migration on/off (sor + tomcat, bar-i)\n");
    let mut t = TextTable::new(vec![
        "migration",
        "sor bar-i",
        "tomcat bar-i",
        "sor misses",
        "tomcat misses",
    ]);
    fn no_migration(c: &mut RunConfig) {
        c.migration = false;
    }
    for (label, tweak) in [
        ("on", None),
        ("off", Some(no_migration as fn(&mut RunConfig))),
    ] {
        let mut cells = vec![label.to_string()];
        let mut misses = Vec::new();
        for app in ["sor", "tomcat"] {
            let spec = app_by_name(app).unwrap();
            let (seq, _) = run_baseline(&spec, Scale::Paper, tweak);
            let o = run_one(
                &plan_with(spec.name, ProtocolKind::BarI, 8, tweak),
                Some(seq),
            );
            cells.push(format!("{:.2}", o.speedup()));
            misses.push(format!("{}", o.report.stats.remote_misses));
        }
        cells.extend(misses);
        t.row(cells);
    }
    print!("{}", t.render());

    // --- 5. flush loss ---------------------------------------------------
    println!("\n[5] unreliable flushes (expl, lmw-u): correctness holds, performance degrades\n");
    let mut t = TextTable::new(vec!["drop", "speedup", "misses", "flushes dropped"]);
    fn drop10(c: &mut RunConfig) {
        c.sim.flush_drop_prob = 0.10;
    }
    fn drop50(c: &mut RunConfig) {
        c.sim.flush_drop_prob = 0.50;
    }
    for (label, tweak) in [
        ("0%", None),
        ("10%", Some(drop10 as fn(&mut RunConfig))),
        ("50%", Some(drop50 as fn(&mut RunConfig))),
    ] {
        let spec = app_by_name("expl").unwrap();
        let (seq, expected) = run_baseline(&spec, Scale::Paper, tweak);
        let o = run_one(&plan_with("expl", ProtocolKind::LmwU, 8, tweak), Some(seq));
        assert_eq!(o.report.checksum, expected, "flush loss broke correctness!");
        t.row(vec![
            label.to_string(),
            format!("{:.2}", o.speedup()),
            format!("{}", o.report.stats.remote_misses),
            format!("{}", o.report.stats.net.flushes_dropped),
        ]);
    }
    print!("{}", t.render());
    println!("\n(all flush-loss runs produced checksums identical to the sequential baseline)");

    // --- 6. machine era -------------------------------------------------
    println!("\n[6] 1998 SP-2/AIX vs a tuned modern machine (swm): the paper's §5.2 conjecture\n");
    let mut t = TextTable::new(vec!["machine", "bar-u", "bar-s", "bar-m", "bar-m gain"]);
    fn modern(c: &mut RunConfig) {
        c.sim.costs = dsm_sim::CostModel::modern();
        c.sim.stress.enabled = false; // a tuned OS: no degradation cliff
    }
    for (label, tweak) in [
        ("SP-2/AIX", None),
        ("modern", Some(modern as fn(&mut RunConfig))),
    ] {
        let spec = app_by_name("swm").unwrap();
        let (seq, _) = run_baseline(&spec, Scale::Paper, tweak);
        let bu = run_one(&plan_with("swm", ProtocolKind::BarU, 8, tweak), Some(seq));
        let bs = run_one(&plan_with("swm", ProtocolKind::BarS, 8, tweak), Some(seq));
        let bm = run_one(&plan_with("swm", ProtocolKind::BarM, 8, tweak), Some(seq));
        t.row(vec![
            label.to_string(),
            format!("{:.2}", bu.speedup()),
            format!("{:.2}", bs.speedup()),
            format!("{:.2}", bm.speedup()),
            format!("{:+.1}%", 100.0 * (bm.speedup() / bu.speedup() - 1.0)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\n(§5.2: \"eliminating interrupts and kernel traps will always improve \
         performance even if operating system support is tuned\" — the gain \
         shrinks but stays positive)"
    );
    Ok(ExitCode::SUCCESS)
}
