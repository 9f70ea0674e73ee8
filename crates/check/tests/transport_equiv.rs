//! Transport equivalence: the backend moves the messages, it must never
//! change the answer. For a sample of apps, every protocol (bar-r with its
//! proven region table) runs on both transport personalities under every
//! interesting fault profile; the two runs must produce the same checksum
//! and both must come out oracle-clean.
//!
//! The second half is the negative control: a planted bug that skips the
//! one-sided eager diff seal (while still posting the write notice) must be
//! flagged as stale reads by the checker on the one-sided backend — and
//! must be invisible on the two-sided wire, where the serve-time handler
//! seals lazily and the skipped eager seal is dead code.

use std::sync::Arc;

use dsm_apps::{app_by_name, AppSpec, Scale};
use dsm_check::checked_run;
use dsm_core::{
    CheckCtx, DsmApp, ExecCtx, PhaseEnd, PlantedBug, ProtocolKind, RegionTable, RunConfig,
    SetupCtx, SharedArray,
};
use dsm_plan::{analyze, build_schedule, prove_regions};
use dsm_sim::fault::FaultProfile;
use dsm_sim::transport::TransportKind;

const NPROCS: usize = 4;

/// Prove the region table for one (app, nprocs) cell, exactly as the
/// `regions` report bin does.
fn region_table(spec: &AppSpec) -> RegionTable {
    let mut probe = spec.build_planned(Scale::Small);
    let an = analyze(probe.as_mut(), NPROCS);
    let sched = build_schedule(&an.plan, ProtocolKind::BarR, an.iters);
    prove_regions(&an.plan, &an.layout, &sched)
}

/// Both backends, same cell: equal checksums, both clean.
#[test]
fn one_sided_matches_two_sided_across_protocols_and_faults() {
    let profiles: [(&str, FaultProfile); 3] = [
        ("none", FaultProfile::none()),
        ("iid-loss", FaultProfile::iid_loss()),
        ("dup-reorder", FaultProfile::dup_reorder()),
    ];
    std::thread::scope(|scope| {
        for app in ["jacobi", "fft"] {
            let spec = app_by_name(app).unwrap();
            let profiles = &profiles;
            scope.spawn(move || {
                for protocol in ProtocolKind::REAL_SEVEN {
                    let regions = protocol.is_region().then(|| Arc::new(region_table(&spec)));
                    for (label, profile) in profiles {
                        let mut checksums = Vec::new();
                        for backend in [TransportKind::TwoSided, TransportKind::OneSided] {
                            let mut cfg = RunConfig::with_nprocs(protocol, NPROCS);
                            cfg.regions.clone_from(&regions);
                            cfg.sim.fault = profile.clone();
                            cfg.sim.transport = backend;
                            let (run, check) = checked_run(spec.build(Scale::Small).as_mut(), cfg);
                            assert!(
                                check.is_clean(),
                                "{app} under {} ({label}, {}) flagged:\n{}",
                                protocol.label(),
                                backend.label(),
                                check.summary()
                            );
                            checksums.push(run.checksum);
                        }
                        assert_eq!(
                            checksums[0],
                            checksums[1],
                            "{app} under {} ({label}): backend changed the answer",
                            protocol.label()
                        );
                    }
                }
            });
        }
    });
}

/// Minimal stale-read probe (2 processes, one shared page): pid 1 writes a
/// word, pid 0 reads it the next epoch. On the one-sided backend the read
/// is a remote fetch of the writer's *sealed* segments — exactly the state
/// the planted bug leaves unsealed — so the fetched copy misses the write
/// and the coherence oracle flags a stale read. The reads are deliberately
/// soft (no value asserts) so the run completes and reports.
struct StaleProbe {
    a: Option<SharedArray<f64>>,
}

impl DsmApp for StaleProbe {
    fn name(&self) -> &'static str {
        "stale-probe"
    }

    fn phases(&self) -> usize {
        1
    }

    fn iters(&self) -> usize {
        4
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        assert_eq!(s.nprocs(), 2, "the probe is a 2-process app");
        let a = s.alloc_array::<f64>("a", 16);
        for i in 0..16 {
            s.init(a, i, 0.0);
        }
        self.a = Some(a);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, _site: usize) -> PhaseEnd {
        let a = self.a.expect("setup ran");
        match (ctx.pid(), iter) {
            (1, 0) => a.set(ctx, 0, 1.0),
            (0, 1) => {
                let _ = a.get(ctx, 0);
            }
            (1, 2) => a.set(ctx, 1, 2.0),
            (0, 3) => {
                let _ = a.get(ctx, 1);
            }
            _ => {}
        }
        PhaseEnd::Barrier
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        let a = self.a.expect("setup ran");
        (0..16).map(|i| c.read(a, i)).sum()
    }
}

/// The planted stale-read bug — skip the eager pre-barrier seal, keep the
/// notice — is exactly the incoherence the one-sided oracle exists to
/// catch: a remote read lands on a page whose noticed epoch was never made
/// fetchable.
#[test]
fn planted_stale_read_is_caught_on_one_sided() {
    for protocol in [ProtocolKind::LmwI, ProtocolKind::LmwU] {
        let mut cfg = RunConfig::with_nprocs(protocol, 2);
        cfg.planted = PlantedBug::OneSidedStaleRead;
        cfg.sim.transport = TransportKind::OneSided;
        let (_, check) = checked_run(&mut StaleProbe { a: None }, cfg);
        assert!(
            !check.is_clean(),
            "planted one-sided stale read went undetected under {}",
            protocol.label()
        );
        assert!(
            check.stale_reads() > 0,
            "planted bug under {} flagged, but not as stale reads:\n{}",
            protocol.label(),
            check.summary()
        );
    }
}

/// Without the plant, the probe is clean on both backends — the finding
/// above is the seal skip, not an artifact of the probe itself.
#[test]
fn probe_is_clean_without_the_plant() {
    for protocol in [ProtocolKind::LmwI, ProtocolKind::LmwU] {
        for backend in [TransportKind::TwoSided, TransportKind::OneSided] {
            let mut cfg = RunConfig::with_nprocs(protocol, 2);
            cfg.sim.transport = backend;
            let (_, check) = checked_run(&mut StaleProbe { a: None }, cfg);
            assert!(
                check.is_clean(),
                "unplanted probe under {} ({}) flagged:\n{}",
                protocol.label(),
                backend.label(),
                check.summary()
            );
        }
    }
}

/// The same plant on the two-sided wire is dead code: serve-time sealing
/// makes every fetch coherent, so the run stays clean.
#[test]
fn planted_stale_read_is_invisible_on_two_sided() {
    for protocol in [ProtocolKind::LmwI, ProtocolKind::LmwU] {
        let mut cfg = RunConfig::with_nprocs(protocol, 2);
        cfg.planted = PlantedBug::OneSidedStaleRead;
        cfg.sim.transport = TransportKind::TwoSided;
        let (_, check) = checked_run(&mut StaleProbe { a: None }, cfg);
        assert!(
            check.is_clean(),
            "two-sided wire must be untouched by the one-sided plant; {} flagged:\n{}",
            protocol.label(),
            check.summary()
        );
    }
}
