//! The run matrix and the cell driver: execute independent runs — the
//! (application × protocol) matrix with its sequential baselines, or a
//! report's list of oracle-checked cells — in parallel across host threads.
//!
//! Parallelism is capped at the host's available parallelism: a full
//! matrix is dozens of runs, and one thread per run just thrashes the
//! scheduler (and the memory bus — every run owns page-sized buffers).
//! A shared atomic cursor over the item list keeps the workers busy
//! without any per-run thread spawn beyond the cap. Items share nothing
//! and results come back in item order, so a report rendered from them is
//! byte-identical at any thread count.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dsm_apps::{all_apps, AppSpec, Scale};
use dsm_core::{run_app, ProtocolKind, RegionTable, RunConfig, RunReport};
use dsm_plan::{analyze, build_schedule, prove_regions};
use dsm_sim::Time;

use crate::table::TextTable;

/// `dsm --jobs N`: the worker-thread count, 0 for the host's parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The `--jobs` value in force, if one was given.
pub fn jobs() -> Option<usize> {
    match JOBS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Run `worker` over `items` on `--jobs` threads (at most, and by default,
/// the host's parallelism), preserving item order in the results. The
/// work queue is an atomic cursor: each worker claims the next unclaimed
/// index until none remain.
pub fn run_capped<T: Sync, R: Send>(items: &[T], worker: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = jobs().map_or(avail, |j| j.min(avail)).min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = worker(&items[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("worker ran"))
        .collect()
}

/// One planned run.
#[derive(Clone)]
pub struct RunPlan {
    pub app: &'static str,
    pub protocol: ProtocolKind,
    pub scale: Scale,
    pub nprocs: usize,
    /// Configuration tweak applied after defaults (ablations).
    pub tweak: Option<fn(&mut RunConfig)>,
}

impl RunPlan {
    pub fn new(app: &'static str, protocol: ProtocolKind, scale: Scale, nprocs: usize) -> RunPlan {
        RunPlan {
            app,
            protocol,
            scale,
            nprocs,
            tweak: None,
        }
    }

    fn config(&self) -> RunConfig {
        let mut cfg = RunConfig::with_nprocs(self.protocol, self.nprocs);
        if let Some(t) = self.tweak {
            t(&mut cfg);
        }
        cfg
    }
}

/// One completed run.
pub struct Outcome {
    pub plan: RunPlan,
    pub report: RunReport,
}

impl Outcome {
    pub fn speedup(&self) -> f64 {
        self.report.speedup().unwrap_or(f64::NAN)
    }
}

/// Execute one plan (plus its sequential baseline when `baseline` is set).
pub fn run_one(plan: &RunPlan, baseline: Option<Time>) -> Outcome {
    let spec = dsm_apps::app_by_name(plan.app).unwrap_or_else(|| panic!("no app {}", plan.app));
    let mut app = spec.build(plan.scale);
    let mut report = run_app(app.as_mut(), plan.config());
    if let Some(seq) = baseline {
        report = report.with_baseline(seq);
    }
    Outcome {
        plan: plan.clone(),
        report,
    }
}

/// Run the sequential baseline for `spec` at `scale` and return its
/// measured time and checksum.
pub fn run_baseline(
    spec: &AppSpec,
    scale: Scale,
    tweak: Option<fn(&mut RunConfig)>,
) -> (Time, f64) {
    let mut app = spec.build(scale);
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::Seq, 1);
    if let Some(t) = tweak {
        t(&mut cfg);
        cfg.protocol = ProtocolKind::Seq;
        cfg.sim.nprocs = 1;
    }
    let report = run_app(app.as_mut(), cfg);
    (report.elapsed, report.checksum)
}

/// Execute every (app × protocol) combination, sharing one sequential
/// baseline per application, in parallel across host threads. Also checks
/// every run's checksum against the baseline — a protocol bug fails loudly
/// here, not as a quietly wrong table.
pub fn run_matrix(
    apps: &[&'static str],
    protocols: &[ProtocolKind],
    scale: Scale,
    nprocs: usize,
) -> Vec<Outcome> {
    let specs: Vec<AppSpec> = all_apps()
        .into_iter()
        .filter(|a| apps.contains(&a.name))
        .collect();

    // Baselines in parallel (capped).
    let baselines: BTreeMap<&'static str, (Time, f64)> =
        run_capped(&specs, |spec| (spec.name, run_baseline(spec, scale, None)))
            .into_iter()
            .collect();

    // The matrix in parallel (capped).
    let mut plans = Vec::new();
    for app in apps {
        for &p in protocols {
            plans.push(RunPlan::new(app, p, scale, nprocs));
        }
    }
    let outcomes: Vec<Outcome> = run_capped(&plans, |plan| {
        let (seq, _) = baselines[plan.app];
        run_one(plan, Some(seq))
    });

    for o in &outcomes {
        let (_, expected) = baselines[o.plan.app];
        assert_eq!(
            o.report.checksum,
            expected,
            "{} under {} diverged from sequential",
            o.plan.app,
            o.plan.protocol.label()
        );
    }
    outcomes
}

/// Find the outcome for (app, protocol) in a matrix result.
pub fn find<'a>(outcomes: &'a [Outcome], app: &str, protocol: ProtocolKind) -> &'a Outcome {
    outcomes
        .iter()
        .find(|o| o.plan.app == app && o.plan.protocol == protocol)
        .unwrap_or_else(|| panic!("missing outcome {app}/{}", protocol.label()))
}

/// Prove the `bar-r` region table for one (app, nprocs, scale) cell,
/// exactly as the `regions` report does.
fn region_table(spec: &AppSpec, nprocs: usize, scale: Scale) -> RegionTable {
    let mut probe = spec.build_planned(scale);
    let an = analyze(probe.as_mut(), nprocs);
    let sched = build_schedule(&an.plan, ProtocolKind::BarR, an.iters);
    prove_regions(&an.plan, &an.layout, &sched)
}

/// The run configuration of one oracle cell: `bar-r` runs with the app's
/// proven region table installed (without one it is bar-u), so the checked
/// reports exercise the twin-free capture, clipped pushes and elision.
pub fn cell_config(
    spec: &AppSpec,
    protocol: ProtocolKind,
    nprocs: usize,
    scale: Scale,
) -> RunConfig {
    let mut cfg = RunConfig::with_nprocs(protocol, nprocs);
    if protocol.is_region() {
        cfg.regions = Some(Arc::new(region_table(spec, nprocs, scale)));
    }
    cfg
}

/// What one cell of a checked report hands back to the merge.
#[derive(Default)]
pub struct CellOut {
    /// The cell's rendered table rows.
    pub rows: Vec<Vec<String>>,
    /// `(cell name, report)` for every violation the cell found.
    pub flagged: Vec<(String, String)>,
}

/// The one cell driver: fan `cells` out over the worker threads, each
/// rendering its own rows, then merge in cell order — print the table,
/// and send every violation to stderr and to
/// `results/repro/<cmd>-<cell>.txt`. Returns what the workers returned, and
/// the exit status: failure if any cell flagged.
pub fn run_cells<C: Sync, X: Send>(
    cmd: &str,
    headers: Vec<&str>,
    cells: &[C],
    worker: impl Fn(&C, &mut CellOut) -> X + Sync,
) -> (Vec<X>, ExitCode) {
    let outs = run_capped(cells, |cell| {
        let mut out = CellOut::default();
        let extra = worker(cell, &mut out);
        (out, extra)
    });
    let mut table = TextTable::new(headers);
    let mut dirty: Vec<String> = Vec::new();
    let mut extras = Vec::with_capacity(outs.len());
    for (out, extra) in outs {
        for (name, report) in out.flagged {
            let path = format!("results/repro/{cmd}-{name}.txt");
            let _ = std::fs::create_dir_all("results/repro");
            if std::fs::write(&path, &report).is_ok() {
                eprintln!("--- {name}: violation report written to {path}");
            }
            eprintln!("{report}");
            dirty.push(name);
        }
        for row in out.rows {
            table.row(row);
        }
        extras.push(extra);
    }
    print!("{}", table.render());
    if dirty.is_empty() {
        return (extras, ExitCode::SUCCESS);
    }
    eprintln!(
        "{} {cmd} cell(s) flagged: {}",
        dirty.len(),
        dirty.join(", ")
    );
    (extras, ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_runs_and_verifies() {
        let outcomes = run_matrix(
            &["sor"],
            &[ProtocolKind::LmwI, ProtocolKind::BarU],
            Scale::Small,
            4,
        );
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            // Small instances are sync-bound; real speedup expectations are
            // checked at paper scale by the fig2/fig4 harnesses and their
            // bench smoke tests.
            assert!(o.speedup().is_finite());
            assert!(o.speedup() > 0.05, "sor speedup {}", o.speedup());
        }
        let bu = find(&outcomes, "sor", ProtocolKind::BarU);
        assert_eq!(bu.report.stats.remote_misses, 0);
    }
}
