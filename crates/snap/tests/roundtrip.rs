//! Round-trip property: snapshot → restore → identical continuation.
//!
//! For every protocol and a mix of fault profiles, a run snapshotted at an
//! arbitrary step boundary and restored into a freshly set-up cluster must
//! (a) reproduce the `state_hash` at the snapshot point, (b) emit a
//! bit-identical check-event trace while finishing, and (c) end with the
//! same state hash, run report, and checker report as the run that never
//! stopped.

use std::cell::Cell;
use std::rc::Rc;

use dsm_check::Checker;
use dsm_core::{
    CheckCtx, CheckEvent, CheckSink, DsmApp, ExecCtx, PhaseEnd, ProtocolKind, ReduceOp, RunConfig,
    SetupCtx, SharedArray, StepRun,
};
use dsm_sim::prop::{check, Gen};
use dsm_sim::{FaultProfile, State, TransportKind};
use dsm_snap::{restore_run, snapshot_run};

/// All protocols a snapshot must survive (Seq has no cluster run).
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarR,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
];

/// A small app exercising every snapshot facet: multi-page shared writes
/// and reads (frames, twins, diffs, protocol tables), a reduction phase
/// (reduce scratch memory), and private mutable state outside the segment
/// (the recorded reduction history).
struct MiniApp {
    a: Option<SharedArray<f64>>,
    iters: usize,
    history: Vec<f64>,
}

impl MiniApp {
    fn new(iters: usize) -> MiniApp {
        MiniApp {
            a: None,
            iters,
            history: Vec::new(),
        }
    }
}

impl DsmApp for MiniApp {
    fn name(&self) -> &'static str {
        "mini"
    }

    fn phases(&self) -> usize {
        2
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let a = s.alloc_array::<f64>("a", 96);
        for i in 0..96 {
            s.init(a, i, i as f64);
        }
        self.a = Some(a);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
        let a = self.a.expect("setup ran");
        let pid = ctx.pid();
        let n = ctx.nprocs();
        if site == 0 {
            // Disjoint per-pid bands: write a value derived from what
            // the previous owner left there.
            for i in (pid..96).step_by(n) {
                let v = a.get(ctx, i);
                a.set(ctx, i, v + (pid + 1) as f64 + iter as f64 * 0.5);
            }
            PhaseEnd::Barrier
        } else {
            if pid == 0 {
                if let Some(&r) = ctx.reduction().first() {
                    self.history.push(r);
                }
            }
            let mut sum = 0.0;
            for i in (pid..96).step_by(n) {
                sum += a.get(ctx, i);
            }
            PhaseEnd::Reduce(ReduceOp::Sum, vec![sum])
        }
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        let a = self.a.expect("setup ran");
        let mut sum = 0.0;
        for i in 0..96 {
            sum += c.read(a, i);
        }
        sum + self.history.iter().sum::<f64>()
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        self.history.encode(w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        self.history.decode(r)
    }
}

/// Tee sink: folds the `Debug` rendering of every event into a running
/// FNV-1a hash, then forwards to the real checker sink. Installed from the
/// snapshot point on, it digests exactly the post-snapshot event trace.
struct FoldSink {
    inner: Box<dyn CheckSink>,
    hash: Rc<Cell<u64>>,
}

impl CheckSink for FoldSink {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        let mut h = self.hash.get();
        for b in format!("{ev:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.hash.set(h);
        self.inner.on_event(ev);
    }
}

/// Swap the cluster's sink for a folding tee; returns the trace-hash cell.
fn install_tee<A: DsmApp + ?Sized>(run: &mut StepRun<'_, A>) -> Rc<Cell<u64>> {
    let hash = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325));
    let inner = run
        .cluster_mut()
        .take_check_sink()
        .expect("checker sink installed");
    run.cluster_mut().install_check_sink(Box::new(FoldSink {
        inner,
        hash: Rc::clone(&hash),
    }));
    hash
}

/// The property: run to step `k`, snapshot, restore into a fresh setup,
/// and require an observationally identical finish.
fn round_trip(cfg: &RunConfig, iters: usize, k: usize) {
    // Run A: the uninterrupted reference.
    let checker_a = Checker::new(cfg);
    let mut app_a = MiniApp::new(iters);
    let mut run_a = StepRun::new(&mut app_a, cfg.clone(), Some(checker_a.sink()), None);
    let mut taken = 0;
    while taken < k && run_a.step() {
        taken += 1;
    }
    let bytes = snapshot_run(&run_a, Some(&checker_a));
    let hash_at_snap = run_a.cluster().state_hash();
    let trace_a = install_tee(&mut run_a);
    while run_a.step() {}
    let final_hash_a = run_a.cluster().state_hash();
    let report_a = run_a.finish();
    let check_a = checker_a.report();

    // Run B: fresh setup, restore, finish.
    let checker_b = Checker::new(cfg);
    let mut app_b = MiniApp::new(iters);
    let mut run_b = StepRun::new(&mut app_b, cfg.clone(), Some(checker_b.sink()), None);
    restore_run(&bytes, &mut run_b, Some(&checker_b));
    assert_eq!(
        run_b.cluster().state_hash(),
        hash_at_snap,
        "restored state hash differs from the snapshot point"
    );
    let again = snapshot_run(&run_b, Some(&checker_b));
    assert_eq!(
        bytes, again,
        "re-snapshot after restore is not byte-identical"
    );
    let trace_b = install_tee(&mut run_b);
    while run_b.step() {}
    assert_eq!(
        run_b.cluster().state_hash(),
        final_hash_a,
        "final state hash diverged after restore"
    );
    assert_eq!(
        trace_a.get(),
        trace_b.get(),
        "post-snapshot check-event traces differ"
    );
    let report_b = run_b.finish();
    let check_b = checker_b.report();
    assert_eq!(report_a.checksum.to_bits(), report_b.checksum.to_bits());
    assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
    assert_eq!(format!("{check_a:?}"), format!("{check_b:?}"));
}

fn fault_profile(g: &mut Gen) -> FaultProfile {
    let mut f = FaultProfile::default();
    if g.chance(0.5) {
        return f; // zero-fault half of the space
    }
    f.loss = g.f64_in(0.0, 0.2);
    f.duplicate = g.f64_in(0.0, 0.15);
    f.reorder = g.f64_in(0.0, 0.2);
    if g.chance(0.3) {
        f.burst_start = g.f64_in(0.0, 0.05);
        f.burst_len = g.range(1, 4) as u32;
    }
    f
}

#[test]
fn prop_snapshot_round_trip_all_protocols() {
    // Every protocol appears at least twice across the case stream; fault
    // and zero-fault profiles are interleaved by the generator.
    check("snapshot-round-trip", 21, |g| {
        let proto = PROTOCOLS[g.below(PROTOCOLS.len())];
        let nprocs = g.range(2, 5);
        let iters = g.range(3, 7);
        let mut cfg = RunConfig::with_nprocs(proto, nprocs);
        cfg.sim.seed = g.u64();
        cfg.sim.fault = fault_profile(g);
        // Steps are phases()*iters; snapshot anywhere inside the run.
        let k = g.range(1, 2 * iters);
        round_trip(&cfg, iters, k);
    });
}

#[test]
fn snapshot_round_trip_every_protocol_on_both_backends() {
    // The full protocol x transport matrix, checker attached, cut at an
    // early and a late step: `round_trip` demands encode -> decode ->
    // encode byte-identical and `state_hash` equal across the restore.
    for proto in PROTOCOLS {
        for transport in [TransportKind::TwoSided, TransportKind::OneSided] {
            let mut cfg = RunConfig::with_nprocs(proto, 3);
            cfg.sim.transport = transport;
            for k in [2, 7] {
                round_trip(&cfg, 5, k);
            }
        }
    }
}

#[test]
fn snapshot_round_trip_lossy_profile_pinned() {
    // A deterministic lossy case, so the fault path is exercised even if
    // the generator stream ever changes.
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, 3);
    cfg.sim.seed = 0x00DE_C0DE;
    cfg.sim.fault = FaultProfile {
        loss: 0.15,
        duplicate: 0.1,
        reorder: 0.1,
        ..FaultProfile::default()
    };
    for k in [1, 4, 9] {
        round_trip(&cfg, 5, k);
    }
}

/// How many readers' stored updates are handles to a diff some writer
/// also keeps as a segment — storage the snapshot will write once per
/// holder and the restore will give each holder its own copy of.
fn aliased_updates(run: &StepRun<'_, MiniApp>) -> usize {
    let cl = run.cluster();
    let kept = |w: u16, diff: &dsm_vm::Diff| {
        let segs = cl.proc(usize::from(w)).lmw.segments.values().flatten();
        segs.into_iter().any(|s| s.diff.shares_storage_with(diff))
    };
    (0..cl.nprocs())
        .flat_map(|pid| cl.proc(pid).lmw.pending_updates.values().flatten())
        .filter(|(w, _, _, diff)| kept(*w, diff))
        .count()
}

#[test]
fn snapshot_round_trip_where_stored_updates_alias_segments() {
    // lmw-u, four processes writing disjoint words of one page: after the
    // barrier that ends a write phase, each writer's newest segment is
    // also sitting, unapplied, in the other three's update stores — one
    // diff, four handles. Find such a boundary, show the restore hands
    // every holder a diff of its own, and require that nothing downstream
    // can tell (`round_trip`: hashes, trace, reports all equal).
    let cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, 4);
    let iters = 5;
    let at = |k: usize| {
        let mut app = MiniApp::new(iters);
        let mut run = StepRun::new(&mut app, cfg.clone(), None, None);
        (0..k).for_each(|_| assert!(run.step()));
        let aliased = aliased_updates(&run);
        let bytes = snapshot_run(&run, None);
        let mut fresh = MiniApp::new(iters);
        let mut restored = StepRun::new(&mut fresh, cfg.clone(), None, None);
        restore_run(&bytes, &mut restored, None);
        assert_eq!(aliased_updates(&restored), 0, "decode re-created aliasing");
        aliased
    };
    let k = (1..2 * iters).find(|&k| at(k) >= 2);
    let k = k.expect("some boundary holds a diff two readers and its writer share");
    round_trip(&cfg, iters, k);
}
