//! Dual-backend protocol matrix: every requested app × protocol on both
//! transport personalities (the two-sided lossy wire and the one-sided
//! RDMA-style backend), each run under the full dsm-check stack.
//!
//! ```text
//! transport [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!           [--scale small|paper]
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

#![forbid(unsafe_code)]

use std::sync::Arc;

use dsm_apps::{app_by_name, Scale};
use dsm_bench::cli::{or_usage, Matrix};
use dsm_bench::harness::region_table;
use dsm_bench::table::TextTable;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};
use dsm_sim::transport::TransportKind;

/// All seven real protocols (bar-r runs with its proven region table).
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
    ProtocolKind::BarR,
];

const BACKENDS: [TransportKind; 2] = [TransportKind::TwoSided, TransportKind::OneSided];

const USAGE: &str = "usage: transport [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                     [--nprocs N] [--scale small|paper]";

#[allow(clippy::cast_precision_loss)]
fn percent(now: u64, base: u64) -> String {
    let delta = now as f64 - base as f64;
    format!("{:+.1}%", delta / base.max(1) as f64 * 100.0)
}

/// Measured cells, in run order: `(app, protocol, backend, elapsed ns)`.
type Cells = Vec<(String, ProtocolKind, TransportKind, u64)>;

fn elapsed_of(cells: &Cells, app: &str, p: ProtocolKind, b: TransportKind) -> Option<u64> {
    cells
        .iter()
        .find(|(a, cp, cb, _)| a == app && *cp == p && *cb == b)
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

fn main() {
    let parsed = Matrix::new(&PROTOCOLS, 8, Scale::Paper).parse(std::env::args().skip(1));
    let args = or_usage("transport", USAGE, parsed);
    assert!(args.nprocs >= 2, "the matrix needs at least two processes");
    println!("== dual-backend transport matrix ==");
    println!(
        "config: nprocs={} scale={} backends=two-sided,one-sided",
        args.nprocs,
        match args.scale {
            Scale::Small => "small",
            Scale::Paper => "paper",
        },
    );
    println!();

    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "backend",
        "time us",
        "vs 2-sided",
        "msgs",
        "data kB",
        "result",
        "verdict",
    ]);
    let mut dirty: Vec<String> = Vec::new();
    let mut cells: Cells = Vec::new();
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        for &protocol in &args.protocols {
            let regions = protocol
                .is_region()
                .then(|| Arc::new(region_table(&spec, args.nprocs, args.scale)));
            let mut base_elapsed = 0u64;
            let mut base_checksum = 0.0f64;
            for backend in BACKENDS {
                let mut cfg = RunConfig::with_nprocs(protocol, args.nprocs);
                cfg.regions.clone_from(&regions);
                cfg.sim.transport = backend;
                let (run, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
                let elapsed = run.elapsed.as_ns();
                let clean = check.is_clean();
                cells.push(((*app).to_string(), protocol, backend, elapsed));
                let (delta, result) = if backend == TransportKind::TwoSided {
                    base_elapsed = elapsed;
                    base_checksum = run.checksum;
                    ("base".to_string(), "ok".to_string())
                } else {
                    (
                        percent(elapsed, base_elapsed),
                        if run.checksum == base_checksum {
                            "ok".to_string()
                        } else {
                            "DIFF".to_string()
                        },
                    )
                };
                if !clean || result == "DIFF" {
                    let name = format!("{app}-{}-{}", protocol.label(), backend.label());
                    let _ = std::fs::create_dir_all("results/repro");
                    let path = format!("results/repro/transport-{name}.txt");
                    let body = format!(
                        "transport violation: {app} under {} on the {} backend\n\
                         checksum: run {} vs two-sided {}\n{}",
                        protocol.label(),
                        backend.label(),
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
                    backend.label().to_string(),
                    (elapsed / 1000).to_string(),
                    delta,
                    run.stats.net.paper_messages().to_string(),
                    format!("{:.0}", run.stats.net.data_kbytes()),
                    result,
                    if clean { "clean" } else { "FLAGGED" }.to_string(),
                ]);
            }
        }
    }
    print!("{}", t.render());

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

    if !dirty.is_empty() {
        eprintln!(
            "{} transport cell(s) flagged: {}",
            dirty.len(),
            dirty.join(", ")
        );
        std::process::exit(1);
    }
}
