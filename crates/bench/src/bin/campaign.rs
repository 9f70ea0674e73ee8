//! Fault-injection campaign: every requested app × protocol under a sweep
//! of named wire-fault profiles, each run under the full dsm-check stack.
//!
//! ```text
//! campaign [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!          [--scale small|paper] [--smoke]
//! ```
//!
//! For every cell the zero-fault run is the reference: the campaign
//! reports the fault profile's virtual-time degradation against it and
//! asserts the checksum is unchanged — a lossy wire may slow a correct
//! protocol down, it may never change its answer. Retransmission and
//! duplication telemetry comes from the transport's own accounting
//! (`NetStats`), so the table doubles as a goodput-overhead summary.
//!
//! All output is a pure function of the run configuration (virtual time,
//! no wall-clock), so the committed `results/campaign.txt` and
//! `results/campaign-smoke.txt` are `diff`ed byte-for-byte in CI. Any
//! violation writes the offending check report under `results/repro/` and
//! exits nonzero.

#![forbid(unsafe_code)]

use std::sync::Arc;

use dsm_apps::{app_by_name, Scale};
use dsm_bench::cli::{or_usage, CliError, Flags, Matrix};
use dsm_bench::harness::region_table;
use dsm_bench::table::TextTable;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};
use dsm_sim::FaultProfile;

/// All seven real protocols: the five unconditionally-sound ones,
/// `bar-m` (write sets stable on every paper app), and `bar-r` (runs with
/// its proven region table installed — the campaign doubles as the fault
/// gate for the region fast paths).
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
    ProtocolKind::BarR,
];

/// The campaign's named fault profiles, zero-fault reference first.
fn profiles(nprocs: usize) -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("none", FaultProfile::none()),
        ("iid-loss", FaultProfile::iid_loss()),
        ("burst-loss", FaultProfile::burst_loss()),
        ("dup-reorder", FaultProfile::dup_reorder()),
        ("slow-node", FaultProfile::slow_node(nprocs - 1)),
    ]
}

const USAGE: &str = "usage: campaign [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                     [--nprocs N] [--scale small|paper] [--smoke]";

fn parse_args(it: impl Iterator<Item = String>) -> Result<Matrix, CliError> {
    let mut args = Matrix::new(&PROTOCOLS, 4, Scale::Small);
    let mut flags = Flags::new(it);
    while let Some(flag) = flags.next_flag() {
        if flag == "--smoke" {
            // A two-app, two-protocol cut of the matrix for the fast CI
            // diff gate; the full campaign runs in its own job.
            args.apps = vec!["jacobi", "fft"];
            args.protocols = vec![ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarR];
        } else if !args.take(&mut flags)? {
            return Err(CliError::unknown_flag(&flag));
        }
    }
    Ok(args)
}

#[allow(clippy::cast_precision_loss)]
fn percent(part: u64, base: u64) -> String {
    format!("{:+.1}%", part as f64 / base.max(1) as f64 * 100.0)
}

fn main() {
    let args = or_usage("campaign", USAGE, parse_args(std::env::args().skip(1)));
    assert!(args.nprocs >= 2, "a campaign needs at least two processes");
    let profiles = profiles(args.nprocs);
    println!("== wire fault-injection campaign ==");
    println!(
        "config: nprocs={} scale={} profiles={}",
        args.nprocs,
        match args.scale {
            Scale::Small => "small",
            Scale::Paper => "paper",
        },
        profiles
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(","),
    );
    println!();

    let mut t = TextTable::new(vec![
        "app", "protocol", "profile", "time us", "degrade", "retrans", "retx kB", "dups", "result",
        "verdict",
    ]);
    let mut dirty: Vec<String> = Vec::new();
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        for &protocol in &args.protocols {
            // bar-r cells run with the app's proven region table installed,
            // so the campaign exercises the twin-free capture, clipped
            // pushes, and elision under every fault profile.
            let regions = protocol
                .is_region()
                .then(|| Arc::new(region_table(&spec, args.nprocs, args.scale)));
            let mut base_elapsed = 0u64;
            let mut base_checksum = 0.0f64;
            for (pname, profile) in &profiles {
                let mut cfg = RunConfig::with_nprocs(protocol, args.nprocs);
                cfg.regions.clone_from(&regions);
                cfg.sim.fault = profile.clone();
                let (run, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
                let elapsed = run.elapsed.as_ns();
                let clean = check.is_clean();
                let (degrade, result) = if profile.is_none() {
                    base_elapsed = elapsed;
                    base_checksum = run.checksum;
                    ("base".to_string(), "ok".to_string())
                } else {
                    (
                        percent(elapsed.saturating_sub(base_elapsed), base_elapsed),
                        if run.checksum == base_checksum {
                            "ok".to_string()
                        } else {
                            "DIFF".to_string()
                        },
                    )
                };
                if !clean || result == "DIFF" {
                    let name = format!("{app}-{}-{pname}", protocol.label());
                    let _ = std::fs::create_dir_all("results/repro");
                    let path = format!("results/repro/campaign-{name}.txt");
                    let body = format!(
                        "campaign violation: {app} under {} with profile {pname}\n\
                         checksum: run {} vs baseline {}\n{}",
                        protocol.label(),
                        run.checksum,
                        base_checksum,
                        check.summary()
                    );
                    if std::fs::write(&path, &body).is_ok() {
                        eprintln!("--- {name}: violation report written to {path}");
                    }
                    eprintln!("{body}");
                    dirty.push(name);
                }
                t.row(vec![
                    spec.name.to_string(),
                    protocol.label().to_string(),
                    (*pname).to_string(),
                    (elapsed / 1000).to_string(),
                    degrade,
                    run.stats.net.retransmits.to_string(),
                    (run.stats.net.retransmit_bytes / 1024).to_string(),
                    run.stats.net.flushes_duplicated.to_string(),
                    result,
                    if clean { "clean" } else { "FLAGGED" }.to_string(),
                ]);
            }
        }
    }
    print!("{}", t.render());
    if !dirty.is_empty() {
        eprintln!(
            "{} campaign cell(s) flagged: {}",
            dirty.len(),
            dirty.join(", ")
        );
        std::process::exit(1);
    }
}
