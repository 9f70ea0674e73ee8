//! Systematic schedule & fault-space exploration runner (dsm-explore).
//!
//! ```text
//! dsm explore [--apps a,b,..] [--protocols lmw-u,bar-u,..] [--nprocs N]
//!             [--iters-cap N] [--budget N] [--drop-points N] [--dup-points N]
//!             [--defers N] [--no-por] [--no-prune] [--por-factor] [--hunt]
//!             [--save-trace PATH] [--replay FILE]
//! ```
//!
//! Default mode explores every requested app × protocol cell up to a
//! per-protocol schedule budget, running each schedule under the full
//! `dsm-check` oracles, and exits nonzero on any violation. `--por-factor`
//! appends the partial-order-reduction measurement section and `--hunt`
//! the planted-bug regression section (the two extra sections of the
//! committed `results/explore-baseline.txt`). `--replay FILE` instead
//! re-executes a saved violating schedule, walks its step boundaries back
//! through snapshots, and exits nonzero unless it still violates.
//!
//! The independent app × protocol cells fan out over the `dsm --jobs N`
//! worker threads. Cells share nothing — each exploration owns its visited
//! set — and results are merged in the fixed cell order, so the output is
//! byte-identical at any job count.
//!
//! All output is deterministic (schedule counts, not wall-clock), so the
//! committed baselines can be `diff`ed byte-for-byte in CI.

use std::process::ExitCode;

use dsm_apps::{AppSpec, Scale};
use dsm_core::{PlantedBug, ProtocolKind, RunConfig};
use dsm_explore::{
    config_for_trace, explore, Bounds, ChoiceTrace, ExploreOpts, RegressApp, Replay,
};

use crate::cli::{read_trace, trace_app, CliError, Flags, Matrix};
use crate::harness::{run_cells, CellOut};

/// The six real protocols (seq has no inter-process choices to explore).
const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
];

/// Per-protocol schedule budgets: update protocols branch on every
/// droppable flush, so their fault space is far larger than the
/// invalidate protocols'.
fn default_budget(p: ProtocolKind) -> usize {
    match p {
        ProtocolKind::Seq => 8,
        ProtocolKind::LmwI => 64,
        ProtocolKind::LmwU => 256,
        ProtocolKind::BarI => 96,
        ProtocolKind::BarU | ProtocolKind::BarR => 192,
        ProtocolKind::BarS | ProtocolKind::BarM => 128,
    }
}

pub const USAGE: &str = "usage: dsm explore [--apps a,b,..] [--protocols lmw-u,bar-u,..] \
                         [--nprocs N] [--iters-cap N] [--budget N] [--drop-points N] \
                         [--dup-points N] [--defers N] [--no-por] [--no-prune] [--por-factor] \
                         [--hunt] [--save-trace PATH] [--replay FILE]";

struct Args {
    matrix: Matrix,
    iters_cap: usize,
    budget: Option<usize>,
    bounds: Bounds,
    por_factor: bool,
    hunt: bool,
    save_trace: Option<String>,
    replay: Option<ChoiceTrace>,
}

fn parse_args(mut flags: Flags) -> Result<Args, CliError> {
    let mut args = Args {
        matrix: Matrix::new(&PROTOCOLS, 2, Scale::Small),
        iters_cap: 2,
        budget: None,
        bounds: Bounds::default(),
        por_factor: false,
        hunt: false,
        save_trace: None,
        replay: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--no-por" => args.bounds.por = false,
            "--no-prune" => args.bounds.state_prune = false,
            "--por-factor" => args.por_factor = true,
            "--hunt" => args.hunt = true,
            "--iters-cap" => args.iters_cap = flags.parsed()?,
            "--budget" => args.budget = Some(flags.parsed()?),
            "--drop-points" => args.bounds.max_drop_points = flags.parsed()?,
            "--dup-points" => args.bounds.max_dup_points = flags.parsed()?,
            "--defers" => args.bounds.max_defers = flags.parsed()?,
            "--save-trace" => args.save_trace = Some(flags.value()?),
            "--replay" => args.replay = Some(read_trace(&flags.value()?)?),
            _ if args.matrix.take(&mut flags)? => {}
            other => return Err(CliError::unknown_flag(other)),
        }
    }
    Ok(args)
}

/// Explore one cell; pure function of the arguments, so cells can run on
/// any worker thread in any order.
fn run_cell(spec: &AppSpec, protocol: ProtocolKind, args: &Args, out: &mut CellOut) {
    let app = spec.name;
    let budget = args.budget.unwrap_or_else(|| default_budget(protocol));
    let cfg = RunConfig::with_nprocs(protocol, args.matrix.nprocs);
    let opts = ExploreOpts {
        max_schedules: budget,
        stop_on_violation: true,
        bounds: args.bounds,
        static_groups: None,
    };
    let rep = explore(|| trace_app(app, args.iters_cap), &cfg, &opts);
    if let Some(v) = &rep.violation {
        out.flagged.push((
            format!("{app}-{}", protocol.label()),
            format!(
                "{app} under {} (schedule {}):\n{}",
                protocol.label(),
                v.schedule_index,
                v.report.summary()
            ),
        ));
    }
    out.rows.push(vec![
        app.to_string(),
        protocol.label().to_string(),
        budget.to_string(),
        rep.schedules.to_string(),
        rep.completed.to_string(),
        rep.pruned.to_string(),
        rep.max_points.to_string(),
        if rep.frontier_exhausted {
            "done"
        } else {
            "budget"
        }
        .to_string(),
        if rep.violation.is_some() {
            "FLAGGED"
        } else {
            "clean"
        }
        .to_string(),
    ]);
}

/// Replay a saved schedule under the full oracles, snapshotting every step
/// boundary, then walk the checkpoints backward: each restored state and
/// trace hash must equal its forward twin. Fails unless the schedule still
/// violates, so a stale trace cannot pass.
fn replay_mode(trace: &ChoiceTrace) -> ExitCode {
    let cfg = config_for_trace(trace);
    println!(
        "replaying {} choice points: {} under {} ({} procs, planted={})",
        trace.choices.len(),
        trace.app,
        trace.protocol.label(),
        trace.nprocs,
        trace.planted.label(),
    );
    let mut app = trace_app(&trace.app, trace.iters_cap);
    let mut walk = Replay::new(app.as_mut(), cfg, trace);

    // Forward: snapshot every step boundary (step 0 = nothing executed).
    println!("\n== forward ==");
    let mut marks: Vec<(u64, u64, Vec<u8>)> = Vec::new();
    let report = walk.forward(|i, at| {
        let state = at.run.cluster().state_hash();
        let events = at.run.cluster().trace_hash();
        println!("step {i:>3}  state={state:016x}  trace={events:016x}");
        marks.push((state, events, dsm_snap::snapshot_run(&at.run, Some(&at.checker))));
    });
    println!(
        "step {:>3}  state={:016x}  trace={:016x}  (end)",
        marks.len(),
        walk.run.cluster().state_hash(),
        walk.run.cluster().trace_hash()
    );
    println!(
        "\nraces={} stale={} invariant={}",
        report.races(),
        report.stale_reads(),
        report.invariant_violations()
    );
    print!("{}", report.summary());

    // Backward: restore each checkpoint newest-first; hashes must match
    // the forward pass bit for bit.
    println!("\n== backward ==");
    for (i, (state, events, bytes)) in marks.iter().enumerate().rev() {
        dsm_snap::restore_run(bytes, &mut walk.run, Some(&walk.checker));
        let got_state = walk.run.cluster().state_hash();
        let got_events = walk.run.cluster().trace_hash();
        println!("step {i:>3}  state={got_state:016x}  trace={got_events:016x}  (restored)");
        assert_eq!(got_state, *state, "backward step {i}: state hash mismatch");
        assert_eq!(
            got_events, *events,
            "backward step {i}: trace hash mismatch"
        );
    }
    println!("\nbackward walk matched the forward pass at every step");

    if report.is_clean() {
        eprintln!("replayed schedule no longer violates — the trace is stale");
        return ExitCode::FAILURE;
    }
    println!("violation reproduced");
    ExitCode::SUCCESS
}

/// The POR measurement: same bounded tree of the regression app, POR on
/// vs off, state pruning off in both arms so only the reduction differs.
fn por_factor_section(nprocs: usize) {
    println!("\n== partial-order reduction (regress, lmw-u, {nprocs} procs) ==\n");
    let cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, nprocs);
    let base = Bounds {
        state_prune: false,
        ..Bounds::default()
    };
    let on = explore(
        || Box::new(RegressApp::new()),
        &cfg,
        &ExploreOpts {
            max_schedules: 5000,
            stop_on_violation: false,
            bounds: Bounds { por: true, ..base },
            static_groups: None,
        },
    );
    let cap = 2000;
    let off = explore(
        || Box::new(RegressApp::new()),
        &cfg,
        &ExploreOpts {
            max_schedules: cap,
            stop_on_violation: false,
            bounds: Bounds { por: false, ..base },
            static_groups: None,
        },
    );
    println!(
        "por on : {} schedules (frontier exhausted: {})",
        on.schedules, on.frontier_exhausted
    );
    let off_count = if off.frontier_exhausted {
        format!("{} schedules", off.schedules)
    } else {
        format!(">= {} schedules (budget cap)", off.schedules)
    };
    println!("por off: {off_count}");
    #[allow(clippy::cast_precision_loss)]
    let factor = off.schedules as f64 / on.schedules.max(1) as f64;
    let cmp = if off.frontier_exhausted { "" } else { ">= " };
    println!("reduction factor: {cmp}{factor:.1}x");
    assert!(
        factor >= 10.0,
        "POR reduction fell below the 10x acceptance bar"
    );
}

/// The planted-bug regression: systematic exploration must find the
/// lmw-u coverage-gap bug in well under 1000 schedules.
fn hunt_section(save_trace: Option<&str>) -> Result<bool, CliError> {
    println!("\n== planted-bug hunt (regress, lmw-u, 2 procs, lmw-u-coverage-gap) ==\n");
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, 2);
    cfg.planted = PlantedBug::LmwUCoverageGap;
    let opts = ExploreOpts {
        max_schedules: 1000,
        stop_on_violation: true,
        bounds: Bounds::default(),
        static_groups: None,
    };
    let rep = explore(|| Box::new(RegressApp::new()), &cfg, &opts);
    let Some(v) = rep.violation else {
        println!("NOT FOUND within {} schedules", rep.schedules);
        return Ok(false);
    };
    println!(
        "violation found at schedule {} ({} choice points, {} stale reads)",
        v.schedule_index,
        v.choices.len(),
        v.report.stale_reads()
    );
    if let Some(path) = save_trace {
        let trace = ChoiceTrace {
            app: "regress".to_string(),
            protocol: cfg.protocol,
            nprocs: 2,
            iters_cap: 0,
            planted: cfg.planted,
            bounds: opts.bounds,
            choices: v.choices,
        };
        std::fs::write(path, trace.to_text())
            .map_err(|e| CliError(format!("cannot write trace {path:?}: {e}")))?;
        println!("replayable trace saved to {path}");
    }
    Ok(true)
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let args = parse_args(flags)?;
    if let Some(trace) = &args.replay {
        return Ok(replay_mode(trace));
    }

    println!("== bounded schedule/fault-space exploration ==");
    // The dup-points knob is printed only when enabled so the committed
    // dup-free baselines keep their exact config line.
    let dups = if args.bounds.max_dup_points > 0 {
        format!(" dup-points={}", args.bounds.max_dup_points)
    } else {
        String::new()
    };
    println!(
        "config: nprocs={} iters-cap={} drop-points={}{dups} defers={} por={} prune={}",
        args.matrix.nprocs,
        args.iters_cap,
        args.bounds.max_drop_points,
        args.bounds.max_defers,
        if args.bounds.por { "on" } else { "off" },
        if args.bounds.state_prune { "on" } else { "off" },
    );
    println!();

    let headers = vec![
        "app",
        "protocol",
        "budget",
        "schedules",
        "checked",
        "pruned",
        "max pts",
        "frontier",
        "verdict",
    ];
    let (_, code) = run_cells(
        "explore",
        headers,
        &args.matrix.cells(),
        |(spec, protocol), out| run_cell(spec, *protocol, &args, out),
    );

    if args.por_factor {
        por_factor_section(args.matrix.nprocs);
    }
    if args.hunt && !hunt_section(args.save_trace.as_deref())? {
        eprintln!("planted-bug hunt failed to find the violation");
        return Ok(ExitCode::FAILURE);
    }
    Ok(code)
}
