//! The traced run: one pass under spans, the probes beside it, and the
//! per-layer table they add up to (layer = crate).
//!
//! Counts come from the library's own reports (`RunStats`, `NetStats`,
//! `CheckReport`, `ExploreReport`) and repeat bit for bit; times are host
//! time from spans recorded around the public calls, scaled per job to
//! the reference clock like the timed run's (the Chrome trace keeps the
//! raw times). What cannot be
//! spanned from outside — the checker runs inside `core.step`, the
//! explorer snapshots inside `explore()` — is measured by difference
//! (the same jobs re-run unchecked) or on a replica (a walk of each
//! cell's default schedule making the calls the explorer makes).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dsm_apps::app_by_name;
use dsm_check::Checker;
use dsm_core::{run_app, ProtocolKind, StepRun};
use dsm_explore::ExploreScheduler;
use dsm_net::MsgKind;
use dsm_sim::SharedScheduler;

use crate::exec::{Pass, Prepared};
use crate::jobs::{AppRef, Job, JobKind, Wire};
use crate::meter::{Meter, SpanProbe};
use crate::metrics::{MetricSet, PER_LAYER};
use crate::probes;
use crate::span::{Span, Tracer};

/// Heap counters a counting `GlobalAlloc` feeds. The allocator itself
/// (the package's only `unsafe impl`) lives in the `perf-trace` bin; this
/// is the safe half, so the library stays `forbid(unsafe_code)`.
pub struct AllocCounters {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A reading of [`AllocCounters`].
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_bytes: u64,
}

impl AllocCounters {
    pub const fn new() -> AllocCounters {
        AllocCounters {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: the counters are statistics that publish no
    // other data, and the benchmark is single-threaded.
    pub fn on_alloc(&self, size: usize) {
        let size = size as u64;
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// Zero the running totals and restart the peak at the live heap.
    fn restart(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn read(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
        }
    }
}

impl Default for AllocCounters {
    fn default() -> AllocCounters {
        AllocCounters::new()
    }
}

/// Everything the traced run produced.
pub struct Traced {
    pub layers: MetricSet,
    pub tracer: Tracer,
    /// The traced pass.
    pub pass: Pass,
    /// The untraced pass run just before it.
    pub reference: Pass,
}

/// Run `f` as one metered segment and add its normalised time to `acc`.
fn timed<R>(meter: &mut Meter, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let (r, t) = meter.time(f);
    *acc += t.norm_s;
    r
}

/// Add the raw host seconds `f` takes to `acc` (for calls too short to
/// put a calibration slice around; the caller scales the total).
fn raw_timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// Run a probe that reports raw per-call times and return its result
/// with the factor that scales them to the reference clock.
fn scaled<R>(meter: &mut Meter, f: impl FnOnce() -> R) -> (R, f64) {
    let (r, t) = meter.time(f);
    (r, ratio(t.norm_s, t.raw_s))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The protocols `dsm_plan::measure` models (`bar-m` diffs span overdrive
/// phases; `bar-r` is validated by the regions cross-check instead).
const MODELED: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

/// Run the traced pass of `prepared` and derive every per-layer metric.
///
/// Two untraced passes run first: one warms the process up, the second
/// is the denominator of `trace.overhead_ratio`. `alloc` is the counting
/// allocator's counters when the binary installed one.
pub fn traced_run(prepared: &Prepared, alloc: Option<&AllocCounters>) -> Traced {
    let mut meter = Meter::new();
    prepared.run_pass(&mut meter);
    let reference = prepared.run_pass(&mut meter);

    let mut probe = SpanProbe::default();
    if let Some(a) = alloc {
        a.restart();
    }
    let mut pass = prepared.run_pass(&mut probe);
    let heap = alloc.map_or_else(AllocStats::default, AllocCounters::read);
    pass.check_against(&reference);
    let tracer = probe.tracer;
    // Clock-normalised times of the probes and re-runs beside the pass.
    let mut aux = meter;

    let mut m = MetricSet::new(&PER_LAYER);
    let jobs = &prepared.jobs;
    // Normalised ÷ raw time of each job: what its spans are scaled by.
    let scale: Vec<f64> = pass
        .outcomes
        .iter()
        .map(|o| ratio(o.time.norm_s, o.time.raw_s))
        .collect();
    // Normalised seconds and call count of the in-pass spans `pred` picks.
    let spans = |pred: &dyn Fn(&Span) -> bool| {
        let picked = tracer.spans().iter().filter(|s| pred(s));
        picked.fold((0.0, 0u64), |(secs, calls), s| {
            let job = s.job.expect("every span of the pass belongs to a job");
            (secs + s.dur_ns() as f64 / 1e9 * scale[job], calls + 1)
        })
    };
    let layer = |name: &str| spans(&|s| s.name == name);
    let job_wall = |i: usize| pass.outcomes[i].time.norm_s;

    m.set("fail_ratio", ratio(pass.failed() as f64, jobs.len() as f64));
    m.set("sim_elapsed_ms", pass.sim_elapsed_ns() as f64 / 1e6);

    // ---- harness ---------------------------------------------------------
    // The pass is the sum of its job spans (the meter's slices sit between
    // them, as in the timed run); a job span's self time is the harness.
    let own = tracer.self_ns();
    let harness_s: f64 = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "job")
        .map(|(s, &ns)| ns as f64 / 1e9 * scale[s.job.expect("job span")])
        .sum();
    let pass_s = pass.time().norm_s;
    m.set("harness.self_s", harness_s);
    m.set("harness.attributed_share", 1.0 - ratio(harness_s, pass_s));
    m.set(
        "trace.overhead_ratio",
        ratio(pass_s, reference.time().norm_s),
    );
    m.set("alloc.count", heap.allocs as f64);
    m.set("alloc.bytes", heap.bytes as f64);
    m.set("alloc.peak_bytes", heap.peak_bytes as f64);

    // ---- dsm-apps / dsm-core: spans ---------------------------------------
    let (step_s, steps) = layer("core.step");
    let accesses: u64 = jobs.iter().map(|j| prepared.accesses_of(j)).sum();
    m.set("apps.build_s", layer("apps.build").0);
    m.set("apps.accesses", accesses as f64);
    m.set("core.setup_s", layer("core.setup").0);
    m.set("core.step_s", step_s);
    m.set("core.finish_s", layer("core.finish").0);
    m.set("core.steps", steps as f64);
    m.set("core.ns_per_access", ratio(step_s * 1e9, accesses as f64));

    // Sequential floor: the app kernels alone, one null-protocol run per
    // registry app, summed over the jobs that run that app.
    let mut seq_cache: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
    let mut seq_s = 0.0;
    for job in jobs {
        if let (Some(key), AppRef::Registry(app, scale)) = (job.access_key(), job.app) {
            seq_s += *seq_cache.entry((app, key.scale_label)).or_insert_with(|| {
                let seq = Job::run(app, scale, ProtocolKind::Seq, 1, Wire::TwoSided);
                let mut s = 0.0;
                timed(&mut aux, &mut s, || {
                    run_app(seq.build_app().as_mut(), seq.config(prepared.seed))
                });
                s
            });
        }
    }
    m.set("apps.seq_s", seq_s);
    m.set("apps.kernel_share", ratio(seq_s, step_s));
    m.set(
        "core.stack_s",
        if step_s > 0.0 { step_s - seq_s } else { 0.0 },
    );

    // ---- counts from the library's own reports ----------------------------
    let mut net_msgs = [0u64; 3];
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| *sums.entry(name).or_insert(0.0) += v;
    let mut max_points = 0usize;
    for (job, o) in jobs.iter().zip(&pass.outcomes) {
        if let Some(r) = &o.run {
            let s = &r.stats;
            add("core.barriers", s.barriers as f64);
            add("core.segvs", s.segvs as f64);
            add("core.mprotects", s.mprotects as f64);
            add("core.remote_misses", s.remote_misses as f64);
            add("core.local_faults", s.local_faults as f64);
            add("core.gc_events", s.gc_events as f64);
            add("core.migrations", s.migrations as f64);
            add("core.update_inserts", s.update_inserts as f64);
            add("core.region_twin_skips", s.region_twin_skips as f64);
            add("core.region_elided_pushes", s.region_elided_pushes as f64);
            add("vm.twins", s.twins as f64);
            add("vm.diffs_created", s.diffs_created as f64);
            add("vm.empty_diffs", s.empty_diffs as f64);
            add("net.msgs", s.net.total_msgs() as f64);
            add("net.payload_kb", s.net.data_kbytes());
            add(
                "net.update_flush_msgs",
                s.net.msgs_of(MsgKind::UpdateFlush) as f64,
            );
            add("net.retransmits", s.net.retransmits as f64);
            add("net.flushes_dropped", s.net.flushes_dropped as f64);
            add("net.dups_suppressed", s.net.dups_suppressed as f64);
            net_msgs[job.wire as usize] += s.net.total_msgs();
            let vt = r.total_breakdown();
            add("sim.vt_app_ms", vt.app.as_ms_f64());
            add("sim.vt_os_ms", vt.os.as_ms_f64());
            add("sim.vt_sigio_ms", vt.sigio.as_ms_f64());
            add("sim.vt_wait_ms", vt.wait.as_ms_f64());
        }
        if let Some(c) = &o.check {
            add("check.events", c.events as f64);
            add("check.reads", c.reads as f64);
            add("check.writes", c.writes as f64);
            add("check.words_shadowed", c.words_shadowed as f64);
            add("check.hb_edges", c.hb_edges as f64);
            add(
                "check.violations",
                c.violations.len() as f64 + c.dropped_violations as f64,
            );
        }
        if let Some(e) = &o.explore {
            add("explore.cells", 1.0);
            add("explore.schedules", e.schedules as f64);
            add("explore.completed", e.completed as f64);
            add("explore.pruned", e.pruned as f64);
            max_points = max_points.max(e.max_points);
        }
        add("snap.count", o.snap.count as f64);
        add("snap.bytes", o.snap.bytes as f64);
    }
    for (name, v) in &sums {
        m.set(name, *v);
    }
    let sum = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    m.set(
        "vm.empty_diff_ratio",
        ratio(sum("vm.empty_diffs"), sum("vm.diffs_created")),
    );

    // ---- dsm-net: sub-walls per wire personality, then direct probes ------
    for wire in Wire::ALL {
        let wall: f64 = (0..jobs.len())
            .filter(|&i| jobs[i].wire == wire && pass.outcomes[i].run.is_some())
            .map(job_wall)
            .sum();
        m.set(&format!("net.wall_s.{}", wire.label()), wall);
        m.set(
            &format!("net.us_per_msg.{}", wire.label()),
            ratio(wall * 1e6, net_msgs[wire as usize] as f64),
        );
        let (ns, k) = scaled(&mut aux, || probes::fetch_ns(wire, prepared.seed));
        m.set(&format!("net.fetch_ns.{}", wire.label()), ns * k);
        // A lossy push is the two-sided one plus draws; it has no probe of
        // its own.
        if wire != Wire::Lossy {
            let (ns, k) = scaled(&mut aux, || probes::push_update_ns(wire, prepared.seed));
            m.set(&format!("net.push_update_ns.{}", wire.label()), ns * k);
        }
    }
    let (vm, k) = scaled(&mut aux, probes::vm_probes);
    m.set("vm.twin_ns", vm.twin_ns * k);
    m.set("vm.diff_sparse_ns", vm.diff_sparse_ns * k);
    m.set("vm.diff_dense_ns", vm.diff_dense_ns * k);
    m.set("vm.apply_ns", vm.apply_ns * k);

    // ---- dsm-check: the same jobs re-run without the checker --------------
    let mut check_run_s = 0.0;
    let mut unchecked_s = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        if pass.outcomes[i].check.is_none() {
            continue;
        }
        check_run_s += spans(&|s| {
            s.job == Some(i) && matches!(s.name, "core.setup" | "core.step" | "core.finish")
        })
        .0;
        let mut cfg = job.config(prepared.seed);
        if job.needs_regions() {
            cfg.regions = Some(job.prove_regions());
        }
        let mut app = job.build_app();
        timed(&mut aux, &mut unchecked_s, || run_app(app.as_mut(), cfg));
    }
    let events = sum("check.events");
    m.set("check.run_s", check_run_s);
    m.set("check.unchecked_s", unchecked_s);
    m.set("check.overhead_ratio", ratio(check_run_s, unchecked_s));
    m.set(
        "check.ns_per_event",
        ratio((check_run_s - unchecked_s).max(0.0) * 1e9, events),
    );

    // ---- dsm-explore -------------------------------------------------------
    let (cell_s, _) = layer("explore.cell");
    let schedules = sum("explore.schedules");
    m.set(
        "explore.prune_ratio",
        ratio(sum("explore.pruned"), schedules),
    );
    m.set("explore.max_points", max_points as f64);
    m.set("explore.us_per_schedule", ratio(cell_s * 1e6, schedules));
    let cell_max = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "explore.cell")
        .map(|s| s.dur_ns() as f64 / 1e9 * scale[s.job.expect("in a job")])
        .fold(0.0, f64::max);
    m.set("explore.cell_s.max", cell_max);
    let schedules_of = |suffix: &str| {
        jobs.iter()
            .zip(&pass.outcomes)
            .find(|(j, _)| j.name.ends_with(suffix))
            .and_then(|(_, o)| o.explore.as_ref())
            .map_or(0.0, |e| e.schedules as f64)
    };
    m.set(
        "explore.por_factor",
        ratio(schedules_of("/por-off"), schedules_of("/por-on")),
    );
    let hunt = jobs.iter().zip(&pass.outcomes).find_map(|(j, o)| {
        let planted = matches!(
            j.kind,
            JobKind::Explore {
                expect_violation: true,
                ..
            }
        );
        o.explore.as_ref().filter(|_| planted)?.violation.as_ref()
    });
    m.set(
        "explore.hunt_schedule_index",
        hunt.map_or(0.0, |v| v.schedule_index as f64),
    );

    // ---- dsm-snap / state hash ---------------------------------------------
    let (write_s, _) = layer("snap.write");
    let (read_s, _) = layer("snap.read");
    let (mut hash_s, mut hash_calls) = layer("core.state_hash");
    let mb = sum("snap.bytes") / 1e6;
    m.set("snap.write_s", write_s);
    m.set("snap.read_s", read_s);
    m.set("snap.write_mb_per_s", ratio(mb, write_s));
    m.set("snap.read_mb_per_s", ratio(mb, read_s));
    let bare_bytes: u64 = jobs
        .iter()
        .filter(|j| j.kind == JobKind::SnapWalk)
        .map(|j| replica_walk(j, prepared.seed, false).bytes)
        .sum();
    let with_checker = sum("snap.bytes");
    m.set(
        "snap.check_share",
        ratio(with_checker - bare_bytes as f64, with_checker),
    );
    let mut small = Replica::default();
    for job in jobs
        .iter()
        .filter(|j| matches!(j.kind, JobKind::Explore { .. }))
    {
        let (walk, k) = scaled(&mut aux, || replica_walk(job, prepared.seed, true));
        small.add(&walk, k);
    }
    hash_s += small.hash_s;
    hash_calls += small.hash_calls;
    m.set("core.state_hash_s", hash_s);
    m.set("core.state_hash_calls", hash_calls as f64);
    m.set(
        "snap.small_bytes",
        ratio(small.bytes as f64, small.count as f64).round(),
    );
    m.set(
        "snap.small_write_us",
        ratio(small.write_s * 1e6, small.count as f64),
    );
    m.set(
        "snap.small_read_us",
        ratio(small.read_s * 1e6, small.count as f64),
    );

    // ---- dsm-plan -----------------------------------------------------------
    let (regions_s, regions_calls) = layer("plan.regions");
    m.set("plan.regions_s", regions_s);
    m.set("plan.regions_calls", regions_calls as f64);
    let mut measure_s = 0.0;
    let mut modeled_run_s = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        let AppRef::Registry(app, scale) = job.app else {
            continue;
        };
        if job.kind != JobKind::Run
            || job.wire != Wire::TwoSided
            || !MODELED.contains(&job.protocol)
        {
            continue;
        }
        let mut planned = app_by_name(app).expect("registry app").build_planned(scale);
        if !planned.plan().exact {
            continue;
        }
        timed(&mut aux, &mut measure_s, || {
            dsm_plan::measure(planned.as_mut(), job.protocol, job.nprocs)
        });
        modeled_run_s += job_wall(i);
    }
    m.set("plan.measure_s", measure_s);
    m.set("plan.predict_speedup", ratio(modeled_run_s, measure_s));

    Traced {
        layers: m,
        tracer,
        pass,
        reference,
    }
}

/// What a replica walk measured.
#[derive(Default)]
struct Replica {
    count: u64,
    bytes: u64,
    write_s: f64,
    read_s: f64,
    hash_s: f64,
    hash_calls: u64,
}

impl Replica {
    /// Fold in `o`, its raw times scaled by `k`.
    fn add(&mut self, o: &Replica, k: f64) {
        self.count += o.count;
        self.bytes += o.bytes;
        self.write_s += o.write_s * k;
        self.read_s += o.read_s * k;
        self.hash_s += o.hash_s * k;
        self.hash_calls += o.hash_calls;
    }
}

/// Walk `job`'s app once outside the pass, snapshotting every step
/// boundary. With `as_explorer` the walk is what `explore()` does on a
/// cell's default schedule — checker attached, an `ExploreScheduler` with
/// an empty prefix, hash + snapshot + restore per boundary; without, it
/// only sizes checker-less snapshots of the plain run.
fn replica_walk(job: &Job, seed: u64, as_explorer: bool) -> Replica {
    let mut cfg = job.config(seed);
    if job.needs_regions() {
        cfg.regions = Some(job.prove_regions());
    }
    let checker = as_explorer.then(|| Checker::new(&cfg));
    let sched = as_explorer.then(|| {
        let bounds = match job.kind {
            JobKind::Explore { bounds, .. } => bounds,
            _ => dsm_explore::Bounds::default(),
        };
        let s: SharedScheduler = Rc::new(RefCell::new(ExploreScheduler::new(
            bounds,
            Vec::new(),
            None,
        )));
        s
    });
    let mut app = job.build_app();
    let sink = checker.as_ref().map(Checker::sink);
    let mut run = StepRun::new(app.as_mut(), cfg, sink, sched);
    let mut r = Replica::default();
    loop {
        if as_explorer {
            raw_timed(&mut r.hash_s, || run.cluster().state_hash());
            r.hash_calls += 1;
        }
        let bytes = raw_timed(&mut r.write_s, || {
            dsm_snap::snapshot_run(&run, checker.as_ref())
        });
        if as_explorer {
            raw_timed(&mut r.read_s, || {
                dsm_snap::restore_run(&bytes, &mut run, checker.as_ref());
            });
        }
        r.count += 1;
        r.bytes += bytes.len() as u64;
        if !run.step() {
            break;
        }
    }
    r
}
