//! The five workloads and their fixed job lists.
//!
//! A job is one closed-loop library call sequence (a run, a checked run,
//! an exploration cell, a snapshot walk). Job lists are a pure function
//! of the workload; `--seed` only sets `RunConfig.sim.seed` on every job,
//! so the library under test receives nothing but the resulting configs.
//! Job *names* are pinned in `perf/expected/jobs-<workload>.txt`; no
//! simulated number is pinned anywhere under `perf/`.

use std::sync::Arc;

use dsm_apps::{app_by_name, AppSpec, Scale};
use dsm_core::{DsmApp, PlantedBug, ProtocolKind, RegionTable, RunConfig};
use dsm_explore::{Bounds, CappedApp, RegressApp};
use dsm_plan::{analyze, build_schedule, prove_regions};
use dsm_sim::{FaultProfile, TransportKind};

/// Which way `dsm-net` carries the job's data traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wire {
    /// Two-sided wire, no faults: the paper's environment.
    TwoSided,
    /// Two-sided wire under `FaultProfile::burst_loss` (acks, timeouts,
    /// retransmission, droppable flushes actually dropped).
    Lossy,
    /// One-sided RDMA-style backend.
    OneSided,
}

impl Wire {
    pub const ALL: [Wire; 3] = [Wire::TwoSided, Wire::Lossy, Wire::OneSided];

    pub fn label(self) -> &'static str {
        match self {
            Wire::TwoSided => "two-sided",
            Wire::Lossy => "lossy",
            Wire::OneSided => "one-sided",
        }
    }
}

/// What a job does with its application.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum JobKind {
    /// `run_app`; fails if the checksum differs from the sequential
    /// reference.
    Run,
    /// `checked_run`; additionally fails unless the check report is clean.
    Checked,
    /// `dsm_explore::explore`; fails if a cell is not clean, or — with
    /// `expect_violation` — if the planted bug is not found.
    Explore {
        max_schedules: usize,
        bounds: Bounds,
        stop_on_violation: bool,
        expect_violation: bool,
    },
    /// `StepRun` under the checker; at every step boundary
    /// hash → snapshot → restore → hash, which must match; one snapshot
    /// alive at a time.
    SnapWalk,
}

/// Which application a job instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppRef {
    /// A registry app at its full iteration count.
    Registry(&'static str, Scale),
    /// A registry app at small scale, iteration-capped for exploration.
    Capped(&'static str, usize),
    /// The exploration regression app.
    Regress,
}

/// One job of a workload's list.
#[derive(Clone, Debug)]
pub struct Job {
    /// `app/protocol/personality`, unique within the workload.
    pub name: String,
    pub app: AppRef,
    pub protocol: ProtocolKind,
    pub nprocs: usize,
    pub wire: Wire,
    pub planted: PlantedBug,
    pub kind: JobKind,
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn spec(name: &str) -> AppSpec {
    app_by_name(name).unwrap_or_else(|| panic!("no app {name:?} in the registry"))
}

impl Job {
    /// A plain `run_app` job of a registry app.
    pub fn run(
        app: &'static str,
        scale: Scale,
        protocol: ProtocolKind,
        nprocs: usize,
        wire: Wire,
    ) -> Job {
        Job {
            name: format!("{app}/{}/{}", protocol.label(), wire.label()),
            app: AppRef::Registry(app, scale),
            protocol,
            nprocs,
            wire,
            planted: PlantedBug::None,
            kind: JobKind::Run,
        }
    }

    /// Registry name of the app, `"regress"` for the regression app.
    pub fn app_name(&self) -> &'static str {
        match self.app {
            AppRef::Registry(name, _) | AppRef::Capped(name, _) => name,
            AppRef::Regress => "regress",
        }
    }

    /// A fresh application instance.
    pub fn build_app(&self) -> Box<dyn DsmApp> {
        match self.app {
            AppRef::Registry(name, scale) => spec(name).build(scale),
            AppRef::Capped(name, cap) => {
                Box::new(CappedApp::new(spec(name).build(Scale::Small), cap))
            }
            AppRef::Regress => Box::new(RegressApp::new()),
        }
    }

    /// The job's configuration under `seed`, without a region table.
    pub fn config(&self, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::with_nprocs(self.protocol, self.nprocs);
        cfg.sim.seed = seed;
        cfg.planted = self.planted;
        match self.wire {
            Wire::TwoSided => {}
            Wire::Lossy => cfg.sim.fault = FaultProfile::burst_loss(),
            Wire::OneSided => cfg.sim.transport = TransportKind::OneSided,
        }
        cfg
    }

    /// True if the job must prove and install a region table first (bar-r
    /// without one is exactly bar-u).
    pub fn needs_regions(&self) -> bool {
        self.protocol.is_region() && matches!(self.app, AppRef::Registry(..))
    }

    /// Prove the job's region table, exactly as the shipped `regions`,
    /// `transport` and `campaign` bins do.
    pub fn prove_regions(&self) -> Arc<RegionTable> {
        let AppRef::Registry(name, scale) = self.app else {
            panic!("{}: only registry apps carry access plans", self.name);
        };
        let mut probe = spec(name).build_planned(scale);
        let an = analyze(probe.as_mut(), self.nprocs);
        let sched = build_schedule(&an.plan, ProtocolKind::BarR, an.iters);
        Arc::new(prove_regions(&an.plan, &an.layout, &sched))
    }

    /// Key under which set-up stores the job's simulated access count.
    /// The application's access stream depends on the app, its size, the
    /// process count and whether reductions are native or emulated through
    /// shared memory (the lmw family) — not on the wire or on which
    /// member of a family runs. `None` for exploration cells.
    pub fn access_key(&self) -> Option<AccessKey> {
        let AppRef::Registry(app, scale) = self.app else {
            return None;
        };
        Some(AccessKey {
            app,
            scale_label: scale_label(scale),
            nprocs: self.nprocs,
            native_reductions: self.protocol.native_reductions(),
        })
    }
}

/// See [`Job::access_key`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct AccessKey {
    pub app: &'static str,
    pub scale_label: &'static str,
    pub nprocs: usize,
    pub native_reductions: bool,
}

/// One benchmark workload: a name, the reason it exists, and its job list.
pub struct Workload {
    pub name: &'static str,
    /// One line, also recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    jobs: fn() -> Vec<Job>,
}

impl Workload {
    pub fn jobs(&self) -> Vec<Job> {
        (self.jobs)()
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "matrix-paper",
        why: "Kernel-bound: paper-scale Table 1 / Fig 2 job set; app kernels and the access path dominate, so it is the bypass workload for protocol, net, check and snap changes",
        work_unit: "accesses",
        jobs: matrix_paper,
    },
    Workload {
        name: "proto-n64",
        why: "Protocol-bound: small apps on 64 nodes over three wire personalities; dsm-core proto/barrier, dsm-vm twin/diff, spilled copysets and dsm-net dispatch are the pass",
        work_unit: "accesses",
        jobs: proto_n64,
    },
    Workload {
        name: "checked-paper",
        why: "Checker-bound: paper-scale checked runs, where dsm-check shadow, race and oracle work is most of the pass; every transport, scale and campaign cell pays this cost",
        work_unit: "accesses",
        jobs: checked_paper,
    },
    Workload {
        name: "explore-budget",
        why: "Explorer-bound: the explore bin's budget cells plus the POR pair and the planted-bug hunt; scheduler, visited-set hashing, small snapshots and many tiny checked runs",
        work_unit: "schedules",
        jobs: explore_budget,
    },
    Workload {
        name: "snap-roundtrip",
        why: "Bulk-codec-bound: paper-scale snapshot write and restore at every step boundary with checker state; the MB/s regime of dsm-snap, drive::snap and drive::hash",
        work_unit: "snapshot-MB",
        jobs: snap_roundtrip,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const ALL_APPS: [&str; 8] = [
    "barnes", "expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat",
];

/// The seven real protocols, in the shipped bins' house order.
const ALL_PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
    ProtocolKind::BarR,
];

/// Table 1 / Figure 2: 8 apps × the base four protocols at N=8, plus the
/// 8 sequential baselines the speedups divide by.
fn matrix_paper() -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in ALL_APPS {
        let mut seq = Job::run(app, Scale::Paper, ProtocolKind::Seq, 1, Wire::TwoSided);
        seq.name = format!("{app}/seq/{}", Wire::TwoSided.label());
        jobs.push(seq);
        for protocol in ProtocolKind::BASE_FOUR {
            jobs.push(Job::run(app, Scale::Paper, protocol, 8, Wire::TwoSided));
        }
    }
    jobs
}

/// Lossy cells leave out bar-m (no fault-independent answer promised) and
/// bar-s (sor/bar-s returns a wrong checksum on lossy wires at this size:
/// a correctness bug recorded in the README, not timed here).
const LOSSY_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarR,
];

/// 7 apps (barnes at N=64 is its kernel again) × 7 protocols × the two
/// clean personalities, plus 5 protocols on the lossy wire.
fn proto_n64() -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in ALL_APPS.into_iter().filter(|a| *a != "barnes") {
        for protocol in ALL_PROTOCOLS {
            for wire in [Wire::TwoSided, Wire::OneSided] {
                jobs.push(Job::run(app, Scale::Small, protocol, 64, wire));
            }
        }
        for protocol in LOSSY_PROTOCOLS {
            jobs.push(Job::run(app, Scale::Small, protocol, 64, Wire::Lossy));
        }
    }
    jobs
}

fn checked_paper() -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in ["jacobi", "shallow", "sor", "tomcat"] {
        for protocol in [
            ProtocolKind::LmwI,
            ProtocolKind::LmwU,
            ProtocolKind::BarU,
            ProtocolKind::BarR,
        ] {
            let mut job = Job::run(app, Scale::Paper, protocol, 8, Wire::TwoSided);
            job.kind = JobKind::Checked;
            jobs.push(job);
        }
    }
    jobs
}

/// The `explore` bin's per-protocol schedule budgets.
fn explore_budget_of(p: ProtocolKind) -> usize {
    match p {
        ProtocolKind::Seq => 8,
        ProtocolKind::LmwI => 64,
        ProtocolKind::LmwU => 256,
        ProtocolKind::BarI => 96,
        ProtocolKind::BarU | ProtocolKind::BarR => 192,
        ProtocolKind::BarS | ProtocolKind::BarM => 128,
    }
}

/// The `explore` bin's defaults: N=2, iteration cap 2.
const EXPLORE_NPROCS: usize = 2;
const EXPLORE_ITERS_CAP: usize = 2;

fn explore_budget() -> Vec<Job> {
    let explore_job = |name: String, app: AppRef, kind: JobKind| Job {
        name,
        app,
        protocol: ProtocolKind::LmwU,
        nprocs: EXPLORE_NPROCS,
        wire: Wire::TwoSided,
        planted: PlantedBug::None,
        kind,
    };
    let mut jobs = Vec::new();
    // barnes is left out: its cells are most of the shipped budget run and
    // that time is the capped barnes kernel, not the explorer.
    for app in ["expl", "jacobi", "sor", "tomcat", "shallow"] {
        for protocol in [
            ProtocolKind::LmwI,
            ProtocolKind::LmwU,
            ProtocolKind::BarI,
            ProtocolKind::BarU,
            ProtocolKind::BarS,
            ProtocolKind::BarM,
        ] {
            let mut job = explore_job(
                format!("{app}/{}/budget", protocol.label()),
                AppRef::Capped(app, EXPLORE_ITERS_CAP),
                JobKind::Explore {
                    max_schedules: explore_budget_of(protocol),
                    bounds: Bounds::default(),
                    stop_on_violation: true,
                    expect_violation: false,
                },
            );
            job.protocol = protocol;
            jobs.push(job);
        }
    }
    // The bin's --por-factor pair: same bounded tree, POR on vs off, state
    // pruning off in both arms so only the reduction differs.
    let unpruned = Bounds {
        state_prune: false,
        ..Bounds::default()
    };
    for (label, por, max_schedules) in [("por-on", true, 5000), ("por-off", false, 2000)] {
        jobs.push(explore_job(
            format!("regress/lmw-u/{label}"),
            AppRef::Regress,
            JobKind::Explore {
                max_schedules,
                bounds: Bounds { por, ..unpruned },
                stop_on_violation: false,
                expect_violation: false,
            },
        ));
    }
    // The bin's --hunt: exploration must find the planted coverage gap.
    let mut hunt = explore_job(
        "regress/lmw-u/hunt".to_string(),
        AppRef::Regress,
        JobKind::Explore {
            max_schedules: 1000,
            bounds: Bounds::default(),
            stop_on_violation: true,
            expect_violation: true,
        },
    );
    hunt.planted = PlantedBug::LmwUCoverageGap;
    jobs.push(hunt);
    jobs
}

fn snap_roundtrip() -> Vec<Job> {
    let mut jobs = Vec::new();
    for app in ["jacobi", "sor", "tomcat"] {
        for protocol in [ProtocolKind::LmwU, ProtocolKind::BarU] {
            let mut job = Job::run(app, Scale::Paper, protocol, 8, Wire::TwoSided);
            job.name = format!("{app}/{}/walk", protocol.label());
            job.kind = JobKind::SnapWalk;
            jobs.push(job);
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_are_unique_and_well_formed() {
        for w in &WORKLOADS {
            let jobs = w.jobs();
            let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{}: duplicate job name", w.name);
            for n in names {
                assert_eq!(n.split('/').count(), 3, "{n}");
            }
        }
    }

    #[test]
    fn job_list_sizes_match_the_issue() {
        let len = |n: &str| workload(n).unwrap().jobs().len();
        assert_eq!(len("matrix-paper"), 8 * 4 + 8);
        assert_eq!(len("proto-n64"), 7 * (7 * 2 + 5));
        assert_eq!(len("checked-paper"), 16);
        assert_eq!(len("explore-budget"), 5 * 6 + 2 + 1);
        assert_eq!(len("snap-roundtrip"), 6);
    }
}
