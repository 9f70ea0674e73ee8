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

use dsm_apps::{all_apps, app_by_name, Scale};
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

struct Args {
    apps: Vec<&'static str>,
    protocols: Vec<ProtocolKind>,
    nprocs: usize,
    scale: Scale,
}

/// Parse the command line; the error is the one-line reason it is bad.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        apps: all_apps().iter().map(|s| s.name).collect(),
        protocols: SOUND.to_vec(),
        nprocs: 4,
        scale: Scale::Small,
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--apps" => {
                args.apps = val()?
                    .split(',')
                    .map(|a| {
                        app_by_name(a)
                            .map(|spec| spec.name)
                            .ok_or_else(|| format!("unknown app {a:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--protocols" => {
                args.protocols = val()?
                    .split(',')
                    .map(|l| {
                        ProtocolKind::from_label(l).ok_or_else(|| format!("unknown protocol {l:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--nprocs" => {
                let val = val()?;
                // The checker stamps pids into 16 bits, one value reserved.
                args.nprocs = match val.parse() {
                    Ok(n) if (1..usize::from(u16::MAX)).contains(&n) => n,
                    _ => {
                        return Err(format!(
                            "--nprocs needs an integer in 1..65535, not {val:?}"
                        ))
                    }
                };
            }
            "--scale" => {
                args.scale = match val()?.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("checked: {why}\n{USAGE}");
        std::process::exit(2);
    });
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

    fn parse(line: &str) -> Result<Args, String> {
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
