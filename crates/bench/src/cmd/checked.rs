//! Checked-mode runner: every requested app × protocol under the full
//! dsm-check instrumentation (happens-before races, the LRC coherence
//! oracle, protocol invariants), summarized as one table row per run.
//!
//! ```text
//! dsm checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N] [--scale small|paper]
//! ```
//!
//! Defaults: all eight paper apps, the five unconditionally-sound protocols
//! (lmw-i, lmw-u, bar-i, bar-u, bar-s), 4 processes, small scale. Exits
//! nonzero if any run flags a violation, so CI can use it as a smoke gate.

use std::process::ExitCode;

use dsm_apps::Scale;
use dsm_check::checked_run;
use dsm_core::ProtocolKind;

use crate::cli::{CliError, Flags, Matrix};
use crate::harness::{cell_config, run_cells};

pub const USAGE: &str = "usage: dsm checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] \
                         [--nprocs N] [--scale small|paper]";

const SOUND: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

/// Parse the command line; the error is the one-line reason it is bad.
fn parse_args(flags: Flags) -> Result<Matrix, CliError> {
    Matrix::new(&SOUND, 4, Scale::Small).parse(flags)
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let args = parse_args(flags)?;
    let headers = vec![
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
    ];
    let (_, code) = run_cells(
        "checked",
        headers,
        &args.cells(),
        |&(spec, protocol), out| {
            let cfg = cell_config(&spec, protocol, args.nprocs, args.scale);
            let (_, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
            let clean = check.is_clean();
            if !clean {
                out.flagged.push((
                    format!("{}-{}", spec.name, protocol.label()),
                    format!(
                        "{} under {}:\n{}",
                        spec.name,
                        protocol.label(),
                        check.summary()
                    ),
                ));
            }
            out.rows.push(vec![
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
        },
    );
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Matrix, CliError> {
        parse_args(Flags::new(line.split_whitespace().map(String::from)))
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
