//! travel — time-travel over a committed violating schedule.
//!
//! ```text
//! dsm travel [--trace PATH]     (default results/repro/lmw-u-coverage-gap.trace)
//! ```
//!
//! Replays the saved choice trace step by step under the full `dsm-check`
//! oracles, snapshotting every step boundary with `dsm-snap`, then walks
//! the run *backward* by restoring each checkpoint in reverse order. One
//! line per step in each direction prints the structural state hash and
//! the check-event trace hash; the backward pass asserts every restored
//! hash matches its forward twin, and the run exits nonzero unless the
//! replayed schedule still produces the committed violation.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use crate::cli::{read_trace, trace_app, CliError, Flags};
use dsm_check::Checker;
use dsm_core::StepRun;
use dsm_explore::{config_for_trace, Bounds, ChoiceTrace, ExploreScheduler};
use dsm_sim::SharedScheduler;

pub const USAGE: &str = "usage: dsm travel [--trace PATH]";

/// The trace the command line names, read and parsed, and its path.
fn parse_args(mut flags: Flags) -> Result<(String, ChoiceTrace), CliError> {
    let mut path = "results/repro/lmw-u-coverage-gap.trace".to_string();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--trace" => path = flags.value()?,
            other => return Err(CliError::unknown_flag(other)),
        }
    }
    let trace = read_trace(&path)?;
    Ok((path, trace))
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let (path, trace) = parse_args(flags)?;
    let cfg = config_for_trace(&trace);
    println!(
        "time-travelling {}: {} under {} ({} procs, planted={}, {} choice points)",
        path,
        trace.app,
        trace.protocol.label(),
        trace.nprocs,
        trace.planted.label(),
        trace.choices.len(),
    );

    // Replay discipline (see dsm_explore::replay): forced prefix, no
    // pruning, choice log asserted against the trace afterwards.
    let bounds = Bounds {
        state_prune: false,
        ..trace.bounds
    };
    let prefix: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
    let sched = Rc::new(RefCell::new(ExploreScheduler::new(bounds, prefix, None)));
    let shared: SharedScheduler = Rc::<RefCell<ExploreScheduler>>::clone(&sched);
    let checker = Checker::new(&cfg);
    let mut app = trace_app(&trace.app, trace.iters_cap);
    let mut run = StepRun::new(
        app.as_mut(),
        cfg.clone(),
        Some(checker.sink()),
        Some(shared),
    );

    // Forward: snapshot every step boundary (step 0 = nothing executed).
    println!("\n== forward ==");
    let mut marks: Vec<(u64, u64, Vec<u8>)> = Vec::new();
    loop {
        let state = run.cluster().state_hash();
        let events = run.cluster().trace_hash();
        println!(
            "step {:>3}  state={state:016x}  trace={events:016x}",
            marks.len()
        );
        marks.push((state, events, dsm_snap::snapshot_run(&run, Some(&checker))));
        if !run.step() {
            break;
        }
    }
    let final_state = run.cluster().state_hash();
    println!(
        "step {:>3}  state={final_state:016x}  trace={:016x}  (end)",
        marks.len(),
        run.cluster().trace_hash()
    );
    assert_eq!(
        sched.borrow().log(),
        &trace.choices[..],
        "replayed choice points diverged from the trace"
    );
    let report = checker.report();
    println!(
        "\nfindings: races={} stale={} invariant={}",
        report.races(),
        report.stale_reads(),
        report.invariant_violations()
    );

    // Backward: restore each checkpoint newest-first; hashes must match
    // the forward pass bit for bit.
    println!("\n== backward ==");
    for (i, (state, events, bytes)) in marks.iter().enumerate().rev() {
        dsm_snap::restore_run(bytes, &mut run, Some(&checker));
        let got_state = run.cluster().state_hash();
        let got_events = run.cluster().trace_hash();
        println!("step {i:>3}  state={got_state:016x}  trace={got_events:016x}  (restored)");
        assert_eq!(got_state, *state, "backward step {i}: state hash mismatch");
        assert_eq!(
            got_events, *events,
            "backward step {i}: trace hash mismatch"
        );
    }
    println!("\nbackward walk matched the forward pass at every step");

    if report.is_clean() {
        eprintln!("replayed schedule no longer violates — the artifact is stale");
        return Ok(ExitCode::FAILURE);
    }
    println!("violation reproduced");
    Ok(ExitCode::SUCCESS)
}
