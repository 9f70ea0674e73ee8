//! Static access-plan analysis report (`results/plan-small.txt`,
//! `results/plan-paper.txt`).
//!
//! Runs the dsm-plan analyzer over every registered application at one
//! scale: lowers each declarative plan to page-granularity footprints,
//! proves phase-level race freedom for both schedule shapes, computes the
//! static page-conflict groups, and predicts per-barrier update-flush
//! traffic and steady-state copysets for the exactly-planned apps under
//! lmw-u, bar-u, and overdrive. Output is deterministic `key=value`
//! lines; CI regenerates it and diffs against the committed copy.
//!
//! Exits nonzero if any app fails the race-freedom proof — the report is
//! also the gate.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};

use dsm_apps::all_apps;
use dsm_core::ProtocolKind;
use dsm_plan::{render_report, PlannedApp};

const NPROCS: usize = 8;

const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarS];

pub const USAGE: &str = "usage: dsm plan --scale <small|paper>";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let scale = flags.scale_only()?;
    let scale_label = scale.label();
    let mut apps: Vec<Box<dyn PlannedApp>> = all_apps()
        .iter()
        .map(|spec| spec.build_planned(scale))
        .collect();
    let header = format!(
        "Static access-plan analysis: race-freedom proofs, page-conflict groups,\n\
         and predicted update traffic per barrier (protocol simulators over the\n\
         lowered page footprints). scale={scale_label}"
    );
    let (report, ok) = render_report(&header, NPROCS, &mut apps, &PROTOCOLS);
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("plan: race-freedom proof FAILED (see race= lines above)");
        ExitCode::FAILURE
    })
}
