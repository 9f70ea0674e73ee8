//! Fault-injection campaign: every requested app × protocol under a sweep
//! of named wire-fault profiles, each run under the full dsm-check stack.
//!
//! ```text
//! dsm campaign [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!              [--scale small|paper] [--smoke]
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

use std::process::ExitCode;

use dsm_apps::Scale;
use dsm_check::checked_run;
use dsm_core::ProtocolKind;
use dsm_sim::FaultProfile;

use crate::cli::{CliError, Flags, Matrix};
use crate::harness::{cell_config, run_cells};
use crate::table::percent;

/// The campaign's named fault profiles, zero-fault reference first.
fn profiles(nprocs: usize) -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("none", FaultProfile::none()),
        ("iid-loss", FaultProfile::iid_loss()),
        ("burst-loss", FaultProfile::burst_loss()),
        ("dup-reorder", FaultProfile::dup_reorder()),
        ("slow-node", FaultProfile::slow_node(nprocs - 1)),
        ("loss-dup", FaultProfile::loss_dup()),
    ]
}

pub const USAGE: &str = "usage: dsm campaign [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                         [--nprocs N] [--scale small|paper] [--smoke]";

/// Defaults: all seven real protocols — the five unconditionally-sound
/// ones, `bar-m` (write sets stable on every paper app), and `bar-r` (the
/// campaign doubles as the fault gate for the region fast paths).
fn parse_args(mut flags: Flags) -> Result<Matrix, CliError> {
    let mut args = Matrix::new(&ProtocolKind::REAL_SEVEN, 4, Scale::Small);
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
    args.multiprocess()
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let args = parse_args(flags)?;
    let profiles = profiles(args.nprocs);
    println!("== wire fault-injection campaign ==");
    println!(
        "config: nprocs={} scale={} profiles={}",
        args.nprocs,
        args.scale.label(),
        profiles
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(","),
    );
    println!();

    let headers = vec![
        "app", "protocol", "profile", "time us", "degrade", "retrans", "retx kB", "dups", "result",
        "verdict",
    ];
    // One cell per app x protocol: its profiles run in order, because every
    // fault profile is measured against the cell's own zero-fault run.
    let (_, code) = run_cells(
        "campaign",
        headers,
        &args.cells(),
        |&(spec, protocol), out| {
            let app = spec.name;
            let base = cell_config(&spec, protocol, args.nprocs, args.scale);
            let mut base_elapsed = 0u64;
            let mut base_checksum = 0.0f64;
            for (pname, profile) in &profiles {
                let mut cfg = base.clone();
                cfg.sim.fault = profile.clone();
                let (run, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
                let elapsed = run.elapsed.as_ns();
                let clean = check.is_clean();
                let (degrade, result) = if profile.is_none() {
                    base_elapsed = elapsed;
                    base_checksum = run.checksum;
                    ("base".to_string(), "ok")
                } else {
                    (
                        percent(elapsed.max(base_elapsed), base_elapsed),
                        if run.checksum == base_checksum {
                            "ok"
                        } else {
                            "DIFF"
                        },
                    )
                };
                if !clean || result == "DIFF" {
                    out.flagged.push((
                        format!("{app}-{}-{pname}", protocol.label()),
                        format!(
                            "campaign violation: {app} under {} with profile {pname}\n\
                         checksum: run {} vs baseline {}\n{}",
                            protocol.label(),
                            run.checksum,
                            base_checksum,
                            check.summary()
                        ),
                    ));
                }
                out.rows.push(vec![
                    app.to_string(),
                    protocol.label().to_string(),
                    (*pname).to_string(),
                    (elapsed / 1000).to_string(),
                    degrade,
                    run.stats.net.retransmits.to_string(),
                    (run.stats.net.retransmit_bytes / 1024).to_string(),
                    run.stats.net.flushes_duplicated.to_string(),
                    result.to_string(),
                    if clean { "clean" } else { "FLAGGED" }.to_string(),
                ]);
            }
        },
    );
    Ok(code)
}
