//! Dual-backend protocol matrix: every requested app × protocol on both
//! transport personalities (the two-sided lossy wire and the one-sided
//! RDMA-style backend), each run under the full dsm-check stack.
//!
//! ```text
//! dsm transport [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!               [--scale small|paper]
//! ```
//!
//! For every cell the two-sided run is the reference: the table reports
//! the one-sided backend's virtual-time delta against it and asserts the
//! checksum is unchanged — the transport may move the messages, it may
//! never change the answer. The closing section ranks update against
//! invalidate within each family per backend: the paper's 1998 ranking
//! (update wins: extra flush bytes are cheaper than remote faults) is a
//! property of the wire, and the one-sided backend's collapsed fetch cost
//! flips it where fetches dominate.
//!
//! All output is a pure function of the run configuration, so the
//! committed `results/transport-small.txt` and
//! `results/transport-paper.txt` are `diff`ed byte-for-byte in CI. Any
//! violation writes the offending check report under `results/repro/` and
//! exits nonzero.

use std::process::ExitCode;

use dsm_apps::Scale;
use dsm_check::checked_run;
use dsm_core::ProtocolKind;
use dsm_sim::transport::TransportKind;

use crate::cli::{CliError, Flags, Matrix};
use crate::harness::{cell_config, run_cells};
use crate::table::{percent, TextTable};

const BACKENDS: [TransportKind; 2] = [TransportKind::TwoSided, TransportKind::OneSided];

pub const USAGE: &str = "usage: dsm transport [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                         [--nprocs N] [--scale small|paper]";

/// Measured cells, in run order: `(app, protocol, backend, elapsed ns)`.
type Cells = Vec<(&'static str, ProtocolKind, TransportKind, u64)>;

fn elapsed_of(cells: &Cells, app: &str, p: ProtocolKind, b: TransportKind) -> Option<u64> {
    cells
        .iter()
        .find(|(a, cp, cb, _)| *a == app && *cp == p && *cb == b)
        .map(|&(_, _, _, t)| t)
}

/// One family's update-vs-invalidate verdict on one backend.
fn winner(
    cells: &Cells,
    app: &str,
    upd: ProtocolKind,
    inv: ProtocolKind,
    backend: TransportKind,
) -> Option<ProtocolKind> {
    let tu = elapsed_of(cells, app, upd, backend)?;
    let ti = elapsed_of(cells, app, inv, backend)?;
    Some(if tu <= ti { upd } else { inv })
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    // All seven real protocols (bar-r runs with its proven region table).
    let args = Matrix::new(&ProtocolKind::REAL_SEVEN, 8, Scale::Paper)
        .parse(flags)?
        .multiprocess()?;
    println!("== dual-backend transport matrix ==");
    println!(
        "config: nprocs={} scale={} backends=two-sided,one-sided",
        args.nprocs,
        args.scale.label(),
    );
    println!();

    let headers = vec![
        "app",
        "protocol",
        "backend",
        "time us",
        "vs 2-sided",
        "msgs",
        "data kB",
        "result",
        "verdict",
    ];
    // One cell per app x protocol: the two-sided run is the one-sided
    // run's reference, so the pair stays together.
    let (measured, code) = run_cells(
        "transport",
        headers,
        &args.cells(),
        |&(spec, protocol), out| {
            let app = spec.name;
            let base = cell_config(&spec, protocol, args.nprocs, args.scale);
            let mut base_elapsed = 0u64;
            let mut base_checksum = 0.0f64;
            BACKENDS.map(|backend| {
                let mut cfg = base.clone();
                cfg.sim.transport = backend;
                let (run, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
                let elapsed = run.elapsed.as_ns();
                let clean = check.is_clean();
                let (delta, result) = if backend == TransportKind::TwoSided {
                    base_elapsed = elapsed;
                    base_checksum = run.checksum;
                    ("base".to_string(), "ok")
                } else {
                    (
                        percent(elapsed, base_elapsed),
                        if run.checksum == base_checksum {
                            "ok"
                        } else {
                            "DIFF"
                        },
                    )
                };
                if !clean || result == "DIFF" {
                    out.flagged.push((
                        format!("{app}-{}-{}", protocol.label(), backend.label()),
                        format!(
                            "transport violation: {app} under {} on the {} backend\n\
                             checksum: run {} vs two-sided {}\n{}",
                            protocol.label(),
                            backend.label(),
                            run.checksum,
                            base_checksum,
                            check.summary()
                        ),
                    ));
                }
                out.rows.push(vec![
                    app.to_string(),
                    protocol.label().to_string(),
                    backend.label().to_string(),
                    (elapsed / 1000).to_string(),
                    delta,
                    run.stats.net.paper_messages().to_string(),
                    format!("{:.0}", run.stats.net.data_kbytes()),
                    result.to_string(),
                    if clean { "clean" } else { "FLAGGED" }.to_string(),
                ]);
                (app, protocol, backend, elapsed)
            })
        },
    );
    let cells: Cells = measured.into_iter().flatten().collect();

    // The paper's central ranking, re-asked per backend: within each
    // family, does update or invalidate win? A FLIP row is an app where
    // the one-sided wire inverts the 1998 verdict.
    let pairs = [
        (ProtocolKind::LmwU, ProtocolKind::LmwI),
        (ProtocolKind::BarU, ProtocolKind::BarI),
    ];
    let have = |p: ProtocolKind| args.protocols.contains(&p);
    if pairs.iter().any(|&(u, i)| have(u) && have(i)) {
        println!();
        println!("== update-vs-invalidate ranking by backend ==");
        let mut r = TextTable::new(vec!["app", "pair", "two-sided", "one-sided", "verdict"]);
        let mut flips = 0usize;
        let mut compared = 0usize;
        for app in &args.apps {
            for &(upd, inv) in &pairs {
                if !have(upd) || !have(inv) {
                    continue;
                }
                let (Some(two), Some(one)) = (
                    winner(&cells, app, upd, inv, TransportKind::TwoSided),
                    winner(&cells, app, upd, inv, TransportKind::OneSided),
                ) else {
                    continue;
                };
                compared += 1;
                let flip = two != one;
                flips += usize::from(flip);
                r.row(vec![
                    (*app).to_string(),
                    format!("{}/{}", upd.label(), inv.label()),
                    two.label().to_string(),
                    one.label().to_string(),
                    if flip { "FLIP" } else { "-" }.to_string(),
                ]);
            }
        }
        print!("{}", r.render());
        println!();
        println!("{flips} of {compared} family rankings flip on the one-sided backend");
    }

    Ok(code)
}
