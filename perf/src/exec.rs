//! Set-up, the pass executor and the per-job failure rule.
//!
//! Everything is closed-loop, one client, one thread: jobs run
//! back-to-back through library calls (`run_app`, `checked_run`,
//! `StepRun`, `explore`, `snapshot_run`/`restore_run`), never through
//! `run_matrix`'s thread fan-out — the numbers must measure the program,
//! not the host's scheduler.
//!
//! A job **fails** only on self-consistent checks: checksum ≠ the
//! sequential reference computed in set-up, checker report not clean,
//! restored state hash ≠ captured hash, explore cell not clean / planted
//! bug not found, or a pass that disagrees with the warm-up pass on a
//! deterministic quantity. No simulated number is pinned.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dsm_check::{checked_run, CheckReport, Checker};
use dsm_core::{
    run_app, run_app_checked, CheckEvent, CheckSink, ProtocolKind, RunConfig, RunReport, StepRun,
};
use dsm_explore::{explore, ExploreOpts, ExploreReport};

use crate::jobs::{AccessKey, AppRef, Job, JobKind, Wire, Workload};
use crate::meter::{JobTime, Meter, Probe};
use crate::metrics::{median, MetricSet, END_TO_END};

fn leaf<P: Probe, R>(p: &mut P, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = p.enter(name);
    let r = f();
    p.exit(id);
    r
}

/// Counts application reads and writes — the work unit of the run
/// workloads — and ignores every other check event.
struct AccessCounter(Rc<Cell<u64>>);

impl CheckSink for AccessCounter {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        if matches!(ev, CheckEvent::Read { .. } | CheckEvent::Write { .. }) {
            self.0.set(self.0.get() + 1);
        }
    }
}

/// Run `job`'s app under `cfg` with an [`AccessCounter`] installed.
fn counted_run(job: &Job, cfg: RunConfig) -> (RunReport, u64) {
    let count = Rc::new(Cell::new(0u64));
    let sink = AccessCounter(Rc::clone(&count));
    let report = run_app_checked(job.build_app().as_mut(), cfg, Box::new(sink));
    (report, count.get())
}

/// Snapshots a [`JobKind::SnapWalk`] wrote (and restored).
#[derive(Clone, Copy, Default, Debug)]
pub struct SnapTally {
    pub count: u64,
    pub bytes: u64,
}

/// What one job produced.
pub struct Outcome {
    /// `None` on success; otherwise which self-consistent check failed.
    pub failure: Option<String>,
    /// Fixed work of the job, in the workload's unit.
    pub work: f64,
    /// `RunReport.elapsed`, virtual ns (0 for exploration cells).
    pub sim_elapsed_ns: u64,
    /// Host seconds the job took, set by the pass.
    pub time: JobTime,
    pub run: Option<RunReport>,
    pub check: Option<CheckReport>,
    pub explore: Option<ExploreReport>,
    pub snap: SnapTally,
}

/// One pass over the job list.
pub struct Pass {
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    /// Host seconds the jobs took, as the clock read (raw) and scaled to
    /// the reference clock speed (normalised).
    pub fn time(&self) -> JobTime {
        JobTime {
            raw_s: self.outcomes.iter().map(|o| o.time.raw_s).sum(),
            norm_s: self.outcomes.iter().map(|o| o.time.norm_s).sum(),
        }
    }

    pub fn work(&self) -> f64 {
        self.outcomes.iter().map(|o| o.work).sum()
    }

    pub fn sim_elapsed_ns(&self) -> u64 {
        self.outcomes.iter().map(|o| o.sim_elapsed_ns).sum()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failure.is_some()).count()
    }

    /// Mark jobs whose deterministic outputs differ from `reference`'s
    /// (normally the warm-up pass) as failed: the simulator promises
    /// bit-identical reruns, so a drift is a wrong answer.
    pub fn check_against(&mut self, reference: &Pass) {
        for (o, r) in self.outcomes.iter_mut().zip(&reference.outcomes) {
            if o.failure.is_none() && (o.sim_elapsed_ns != r.sim_elapsed_ns || o.work != r.work) {
                o.failure = Some(format!(
                    "rerun drifted: sim {} ns / work {} vs {} ns / {}",
                    o.sim_elapsed_ns, o.work, r.sim_elapsed_ns, r.work
                ));
            }
        }
    }
}

/// A workload with its inputs generated: the job list, the sequential
/// reference checksums and the per-job access counts.
pub struct Prepared {
    pub workload: &'static Workload,
    pub seed: u64,
    pub jobs: Vec<Job>,
    /// Sequential checksum per registry `(app, scale)`.
    references: BTreeMap<(&'static str, &'static str), f64>,
    accesses: BTreeMap<AccessKey, u64>,
}

impl Prepared {
    /// Generate the workload's inputs from `seed`. Untimed by the passes,
    /// reported as `setup_s`; `p` is ticked between runs.
    ///
    /// * one sequential run per registry app gives the reference checksum
    ///   every run of that app must reproduce;
    /// * one counting-sink run per distinct access stream gives the
    ///   simulated access count `work_per_s` divides by;
    /// * every exploration cell's app is probed once on the default
    ///   schedule, and all protocols of an app must agree on its checksum
    ///   before the explorer is timed on it.
    ///
    /// Panics if the inputs themselves are inconsistent — that is a broken
    /// checkout, not a benchmark result.
    pub fn new<P: Probe>(workload: &'static Workload, seed: u64, p: &mut P) -> Prepared {
        let jobs = workload.jobs();
        let mut references = BTreeMap::new();
        let mut accesses = BTreeMap::new();
        let mut probes: BTreeMap<&'static str, f64> = BTreeMap::new();
        for job in &jobs {
            if let (Some(key), AppRef::Registry(app, scale)) = (job.access_key(), job.app) {
                let seq_key = AccessKey {
                    nprocs: 1,
                    native_reductions: true,
                    ..key
                };
                references.entry((app, key.scale_label)).or_insert_with(|| {
                    let seq = Job::run(app, scale, ProtocolKind::Seq, 1, Wire::TwoSided);
                    let (report, count) = counted_run(&seq, seq.config(seed));
                    accesses.insert(seq_key, count);
                    report.checksum
                });
                accesses.entry(key).or_insert_with(|| {
                    // Any member of the reduction family on the clean wire
                    // issues the same application accesses.
                    let family = if key.native_reductions {
                        ProtocolKind::BarI
                    } else {
                        ProtocolKind::LmwI
                    };
                    let rep = Job::run(app, scale, family, key.nprocs, Wire::TwoSided);
                    counted_run(&rep, rep.config(seed)).1
                });
            } else if matches!(job.kind, JobKind::Explore { .. }) {
                let mut cfg = job.config(seed);
                // The planted bug needs a dropped flush to show; the
                // default schedule drops none, so the probe stays valid.
                cfg.planted = dsm_core::PlantedBug::None;
                let checksum = run_app(job.build_app().as_mut(), cfg).checksum;
                let first = *probes.entry(job.app_name()).or_insert(checksum);
                assert!(
                    first == checksum,
                    "{}: default-schedule checksum {checksum} disagrees with {first}",
                    job.name
                );
            }
            p.tick();
        }
        Prepared {
            workload,
            seed,
            jobs,
            references,
            accesses,
        }
    }

    /// Simulated accesses of `job` (0 for exploration cells).
    pub fn accesses_of(&self, job: &Job) -> u64 {
        job.access_key().map_or(0, |k| self.accesses[&k])
    }

    /// One pass over the job list. With a [`Meter`] this is the timed
    /// pass: no spans, library entry points. With a [`crate::span::Tracer`] every job
    /// gets a `job` span parenting one span per call into a layer.
    pub fn run_pass<P: Probe>(&self, p: &mut P) -> Pass {
        let outcomes = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let id = p.enter_job(i);
                let mut outcome = self.exec(job, p);
                outcome.time = p.exit_job(id);
                outcome
            })
            .collect();
        Pass { outcomes }
    }

    fn config<P: Probe>(&self, job: &Job, p: &mut P) -> RunConfig {
        let mut cfg = job.config(self.seed);
        if job.needs_regions() {
            cfg.regions = Some(leaf(p, "plan.regions", || job.prove_regions()));
        }
        cfg
    }

    fn exec<P: Probe>(&self, job: &Job, p: &mut P) -> Outcome {
        let cfg = self.config(job, p);
        match job.kind {
            JobKind::Run | JobKind::Checked => {
                let checked = job.kind == JobKind::Checked;
                let (run, check) = if P::TRACED {
                    drive(job, cfg, checked, p)
                } else if checked {
                    let (run, check) = checked_run(job.build_app().as_mut(), cfg);
                    (run, Some(check))
                } else {
                    (run_app(job.build_app().as_mut(), cfg), None)
                };
                self.run_outcome(job, run, check, SnapTally::default(), None)
            }
            JobKind::SnapWalk => {
                let (run, check, snap, mismatches) = snap_walk(job, &cfg, p);
                let hash_failure = (mismatches > 0)
                    .then(|| format!("{mismatches} restored state hashes differ from capture"));
                self.run_outcome(job, run, Some(check), snap, hash_failure)
            }
            JobKind::Explore {
                max_schedules,
                bounds,
                stop_on_violation,
                expect_violation,
            } => {
                let opts = ExploreOpts {
                    max_schedules,
                    bounds,
                    stop_on_violation,
                    static_groups: None,
                };
                let cell = p.enter("explore.cell");
                let rep = explore(|| leaf(p, "apps.build", || job.build_app()), &cfg, &opts);
                p.exit(cell);
                let failure = match (&rep.violation, expect_violation) {
                    (None, true) => Some(format!(
                        "planted {} not found in {} schedules",
                        job.planted.label(),
                        rep.schedules
                    )),
                    (Some(v), false) => Some(format!(
                        "cell not clean at schedule {}: {}",
                        v.schedule_index,
                        v.report.summary().lines().next().unwrap_or("")
                    )),
                    _ => None,
                };
                Outcome {
                    failure,
                    work: rep.schedules as f64,
                    sim_elapsed_ns: 0,
                    time: JobTime::default(),
                    run: None,
                    check: None,
                    explore: Some(rep),
                    snap: SnapTally::default(),
                }
            }
        }
    }

    fn run_outcome(
        &self,
        job: &Job,
        run: RunReport,
        check: Option<CheckReport>,
        snap: SnapTally,
        earlier: Option<String>,
    ) -> Outcome {
        let key = job.access_key().expect("run jobs are registry apps");
        let reference = self.references[&(key.app, key.scale_label)];
        let failure = earlier
            .or_else(|| {
                (run.checksum != reference)
                    .then(|| format!("checksum {} != sequential {reference}", run.checksum))
            })
            .or_else(|| {
                check.as_ref().filter(|c| !c.is_clean()).map(|c| {
                    format!(
                        "check report not clean: races={} stale={} invariant={}",
                        c.races(),
                        c.stale_reads(),
                        c.invariant_violations()
                    )
                })
            });
        let work = if job.kind == JobKind::SnapWalk {
            // Written once and restored once.
            2.0 * snap.bytes as f64 / 1e6
        } else {
            self.accesses[&key] as f64
        };
        Outcome {
            failure,
            work,
            sim_elapsed_ns: run.elapsed.as_ns(),
            time: JobTime::default(),
            run: Some(run),
            check,
            explore: None,
            snap,
        }
    }
}

/// The traced twin of `run_app`/`checked_run`: the same three calls the
/// library makes, with a span around each.
fn drive<P: Probe>(
    job: &Job,
    cfg: RunConfig,
    checked: bool,
    p: &mut P,
) -> (RunReport, Option<CheckReport>) {
    let checker = checked.then(|| Checker::new(&cfg));
    let mut app = leaf(p, "apps.build", || job.build_app());
    let sink = checker.as_ref().map(Checker::sink);
    let mut run = leaf(p, "core.setup", || {
        StepRun::new(app.as_mut(), cfg, sink, None)
    });
    while leaf(p, "core.step", || run.step()) {}
    let report = leaf(p, "core.finish", || run.finish());
    (report, checker.map(|c| c.report()))
}

/// Hash → snapshot → restore → hash at every step boundary, one snapshot
/// alive at a time. Returns the run, the check report, the snapshot tally
/// and how many boundaries restored to a different state hash.
fn snap_walk<P: Probe>(
    job: &Job,
    cfg: &RunConfig,
    p: &mut P,
) -> (RunReport, CheckReport, SnapTally, usize) {
    let checker = Checker::new(cfg);
    let mut app = leaf(p, "apps.build", || job.build_app());
    let mut run = leaf(p, "core.setup", || {
        StepRun::new(app.as_mut(), cfg.clone(), Some(checker.sink()), None)
    });
    let mut snap = SnapTally::default();
    let mut mismatches = 0usize;
    loop {
        let captured = leaf(p, "core.state_hash", || run.cluster().state_hash());
        let bytes = leaf(p, "snap.write", || {
            dsm_snap::snapshot_run(&run, Some(&checker))
        });
        leaf(p, "snap.read", || {
            dsm_snap::restore_run(&bytes, &mut run, Some(&checker));
        });
        let restored = leaf(p, "core.state_hash", || run.cluster().state_hash());
        snap.count += 1;
        snap.bytes += bytes.len() as u64;
        mismatches += usize::from(captured != restored);
        drop(bytes);
        p.tick();
        if !leaf(p, "core.step", || run.step()) {
            break;
        }
    }
    let report = leaf(p, "core.finish", || run.finish());
    (report, checker.report(), snap, mismatches)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up repeats whose median is `setup_s`.
const SETUPS: usize = 3;
/// Timed passes never fewer than this, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Everything the timed run of one workload measured.
pub struct Timed {
    pub prepared: Prepared,
    pub warmup: Pass,
    /// The timed passes, warm-up excluded.
    pub passes: Vec<Pass>,
    /// Each set-up repeat, raw and normalised.
    pub setups: Vec<JobTime>,
    /// Mean calibration slice over the whole run, in seconds.
    pub mean_slice_s: f64,
}

/// The timed run: set-up `SETUPS` times (the median is `setup_s`), one
/// warm-up pass, then timed passes until `seconds` of them have been
/// measured (and at least `MIN_PASSES`).
pub fn timed_run(workload: &'static Workload, seed: u64, seconds: f64) -> Timed {
    let mut meter = Meter::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        meter.mark();
        let from = meter.totals();
        prepared = Some(Prepared::new(workload, seed, &mut meter));
        meter.mark();
        setups.push(meter.totals().since(from));
    }
    let prepared = prepared.expect("SETUPS > 0");
    let warmup = prepared.run_pass(&mut meter);
    let mut passes = Vec::new();
    let mut measured = 0.0;
    while passes.len() < MIN_PASSES || measured < seconds {
        let mut pass = prepared.run_pass(&mut meter);
        pass.check_against(&warmup);
        measured += pass.time().raw_s;
        passes.push(pass);
    }
    Timed {
        prepared,
        warmup,
        passes,
        setups,
        mean_slice_s: meter.mean_slice_s(),
    }
}

impl Timed {
    /// Jobs executed and jobs failed, warm-up included.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let all = std::iter::once(&self.warmup).chain(&self.passes);
        all.fold((0, 0), |(a, f), p| (a + p.outcomes.len(), f + p.failed()))
    }

    /// Clock-normalised seconds of one pass: per job the median over the
    /// timed passes, summed over the job list. The per-job median sheds a
    /// burst that hits one execution of one job, which a median over whole
    /// passes cannot when every pass catches some burst.
    pub fn wall_s(&self) -> f64 {
        (0..self.prepared.jobs.len())
            .map(|j| {
                let samples: Vec<f64> = self
                    .passes
                    .iter()
                    .map(|p| p.outcomes[j].time.norm_s)
                    .collect();
                median(&samples)
            })
            .sum()
    }

    /// Every end-to-end metric.
    pub fn metrics(&self) -> MetricSet {
        let setups: Vec<f64> = self.setups.iter().map(|t| t.norm_s).collect();
        end_to_end(self.warmup.work(), self.wall_s(), &setups)
    }
}

/// The end-to-end metric set from its ingredients.
pub fn end_to_end(work: f64, wall_s: f64, setups_s: &[f64]) -> MetricSet {
    let mut m = MetricSet::new(&END_TO_END);
    m.set("wall_s", wall_s);
    m.set("work_per_s", work / wall_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("setup_s", median(setups_s));
    m
}
