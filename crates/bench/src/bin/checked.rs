//! Checked-mode runner: every requested app × protocol under the full
//! dsm-check instrumentation (happens-before races, the LRC coherence
//! oracle, protocol invariants), summarized as one table row per run.
//!
//! ```text
//! checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N] [--scale small|paper]
//! ```
//!
//! Defaults: all eight paper apps, the five unconditionally-sound protocols
//! (lmw-i, lmw-u, bar-i, bar-u, bar-s), 4 processes, small scale. Exits
//! nonzero if any run flags a violation, so CI can use it as a smoke gate.

#![forbid(unsafe_code)]

use std::sync::Arc;

use dsm_apps::{app_by_name, Scale};
use dsm_bench::cli::{or_usage, CliError, Matrix};
use dsm_bench::harness::region_table;
use dsm_bench::table::TextTable;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};

const USAGE: &str = "usage: checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                     [--nprocs N] [--scale small|paper]";

const SOUND: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

/// Parse the command line; the error is the one-line reason it is bad.
fn parse_args(it: impl Iterator<Item = String>) -> Result<Matrix, CliError> {
    Matrix::new(&SOUND, 4, Scale::Small).parse(it)
}

fn main() {
    let args = or_usage("checked", USAGE, parse_args(std::env::args().skip(1)));
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "events",
        "reads",
        "writes",
        "barriers",
        "hb edges",
        "races",
        "stale",
        "invariant",
        "verdict",
    ]);
    let mut dirty = 0usize;
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        for &protocol in &args.protocols {
            let mut cfg = RunConfig::with_nprocs(protocol, args.nprocs);
            // bar-r runs with the app's proven region table installed, as
            // in `campaign` and `transport`; without one it is bar-u.
            if protocol.is_region() {
                cfg.regions = Some(Arc::new(region_table(&spec, args.nprocs, args.scale)));
            }
            let (_, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
            let clean = check.is_clean();
            if !clean {
                dirty += 1;
                eprintln!(
                    "--- {} under {}:\n{}",
                    spec.name,
                    protocol.label(),
                    check.summary()
                );
            }
            t.row(vec![
                spec.name.to_string(),
                protocol.label().to_string(),
                check.events.to_string(),
                check.reads.to_string(),
                check.writes.to_string(),
                check.barriers.to_string(),
                check.hb_edges.to_string(),
                check.races().to_string(),
                check.stale_reads().to_string(),
                check.invariant_violations().to_string(),
                if clean { "clean" } else { "FLAGGED" }.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    if dirty > 0 {
        eprintln!("{dirty} run(s) flagged violations");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Matrix, CliError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_protocol_label_parses() {
        let args =
            parse("--protocols lmw-i,bar-r,seq --apps sor --nprocs 2 --scale paper").unwrap();
        assert_eq!(
            args.protocols,
            [ProtocolKind::LmwI, ProtocolKind::BarR, ProtocolKind::Seq]
        );
        assert_eq!((args.apps, args.nprocs), (vec!["sor"], 2));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for line in [
            "--frobnicate 1",
            "--apps",
            "--apps nosuch",
            "--protocols bar-x",
            "--nprocs four",
            "--nprocs 0",
            "--nprocs 65535",
            "--scale huge",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
