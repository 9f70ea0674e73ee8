//! Overdrive semantics under divergence (the paper's §5.2 caveat):
//! bar-s traps unanticipated writes (and can revert or abort); bar-m
//! silently misses wrong-epoch writes to pre-enabled pages — "bar-m is
//! therefore not guaranteed to maintain consistency." And under faults:
//! a wire that loses and duplicates update flushes may slow the update
//! family down, never change its answer.

use rdsm::core::{
    run_app, CheckCtx, DivergencePolicy, DsmApp, ExecCtx, PhaseEnd, ProtocolKind, RunConfig,
    SetupCtx, SharedGrid2,
};

/// A two-phase app over a fixed 4-row layout (row r owned by process
/// `r % nprocs`, so the computed function is independent of the process
/// count): stable write sets, except that at `rogue_iter` process 0
/// writes its phase-0 row during phase 1 — in a slot that phase 0 never
/// touches. Later epochs read that slot, so a missed propagation changes
/// the final result.
struct Diverge {
    /// grid a: row r written by its owner in phase 0 (slot 0 = f(iter);
    /// slot 1 is only written by the divergent access).
    a: Option<SharedGrid2<f64>>,
    /// grid b: row r accumulates what its owner read from the next row.
    b: Option<SharedGrid2<f64>>,
    rogue_iter: Option<usize>,
    iters: usize,
    cols: usize,
}

/// Fixed logical row count, independent of the cluster size.
const ROWS: usize = 4;

impl Diverge {
    fn new(rogue_iter: Option<usize>, iters: usize) -> Diverge {
        Diverge {
            a: None,
            b: None,
            rogue_iter,
            iters,
            cols: 16,
        }
    }
}

impl DsmApp for Diverge {
    fn name(&self) -> &'static str {
        "diverge"
    }

    fn phases(&self) -> usize {
        2
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let a = s.alloc_grid::<f64>("dv_a", ROWS, self.cols);
        let b = s.alloc_grid::<f64>("dv_b", ROWS, self.cols);
        for r in 0..ROWS {
            s.init_row(a, r, &vec![0.0; self.cols]);
            s.init_row(b, r, &vec![0.0; self.cols]);
        }
        self.a = Some(a);
        self.b = Some(b);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
        let (a, b) = (self.a.unwrap(), self.b.unwrap());
        let p = ctx.pid();
        let n = ctx.nprocs();
        if site == 0 {
            for r in (0..ROWS).filter(|r| r % n == p) {
                // Read the next row's slot 1 from the previous epoch
                // (only ever written by the divergent access, so a
                // missed propagation is observable here), then update
                // this row. Word-disjoint from the concurrent slot-0
                // writes: race-free.
                let q = (r + 1) % ROWS;
                let v1 = a.get(ctx, q, 1);
                let acc = b.get(ctx, r, 0);
                b.set(ctx, r, 0, acc + (iter + 1) as f64 + 2.0 * v1);
                a.set(ctx, r, 0, (iter * 10 + r) as f64);
                ctx.work_flops(8);
            }
        } else {
            // Phase 1 normally writes nothing at all.
            ctx.work_flops(4);
            if self.rogue_iter == Some(iter) && p == 0 {
                // The unanticipated write: page a[0] belongs to phase
                // 0's write set, not phase 1's.
                a.set(ctx, 0, 1, 999.0);
            }
        }
        PhaseEnd::Barrier
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        let (a, b) = (self.a.unwrap(), self.b.unwrap());
        let mut acc = 0.0;
        for p in 0..a.rows() {
            acc += c.read_grid(a, p, 0) + 3.0 * c.read_grid(a, p, 1) + 7.0 * c.read_grid(b, p, 0);
        }
        acc
    }
}

fn cfg(protocol: ProtocolKind, policy: DivergencePolicy, validate: bool) -> RunConfig {
    let mut cfg = RunConfig::with_nprocs(protocol, 4);
    cfg.overdrive.policy = policy;
    cfg.overdrive.validate = validate;
    cfg
}

#[test]
fn stable_app_engages_overdrive_cleanly() {
    for protocol in [ProtocolKind::BarS, ProtocolKind::BarM] {
        let r = run_app(
            &mut Diverge::new(None, 8),
            cfg(protocol, DivergencePolicy::Abort, false),
        );
        assert_eq!(r.stats.segvs, 0, "{}", protocol.label());
        assert_eq!(r.stats.overdrive_unanticipated, 0);
    }
}

#[test]
fn bar_s_traps_divergence_and_reverts_correctly() {
    let seq = run_app(
        &mut Diverge::new(Some(5), 8),
        RunConfig::with_nprocs(ProtocolKind::Seq, 1),
    );
    let r = run_app(
        &mut Diverge::new(Some(5), 8),
        cfg(ProtocolKind::BarS, DivergencePolicy::Revert, false),
    );
    assert!(r.stats.overdrive_unanticipated > 0, "the write must trap");
    assert_eq!(r.stats.overdrive_reversions, 1, "one cluster reversion");
    assert_eq!(
        r.checksum, seq.checksum,
        "bar-s with Revert must stay correct"
    );
}

#[test]
#[should_panic(expected = "overdrive divergence")]
fn bar_s_abort_policy_complains_loudly_and_exits() {
    let _ = run_app(
        &mut Diverge::new(Some(5), 8),
        cfg(ProtocolKind::BarS, DivergencePolicy::Abort, false),
    );
}

#[test]
fn bar_m_misses_wrong_epoch_writes_silently() {
    // The same diverging program: the write goes to a pre-enabled page in
    // the wrong epoch, so no trap fires, nothing is flushed, and the final
    // result silently differs from the sequential run.
    let seq = run_app(
        &mut Diverge::new(Some(5), 8),
        RunConfig::with_nprocs(ProtocolKind::Seq, 1),
    );
    let r = run_app(
        &mut Diverge::new(Some(5), 8),
        cfg(ProtocolKind::BarM, DivergencePolicy::Abort, true),
    );
    assert_eq!(
        r.stats.overdrive_unanticipated, 0,
        "bar-m must NOT trap the wrong-epoch write (that is the hazard)"
    );
    assert!(
        r.stats.consistency_violations > 0,
        "the validate-mode checker must observe the missed write"
    );
    assert_ne!(
        r.checksum, seq.checksum,
        "bar-m's result must differ — it is not guaranteed to maintain consistency"
    );
}

#[test]
fn bar_m_traps_writes_outside_the_enabled_union() {
    /// Diverges by writing a page bar-m never pre-enabled (process 0
    /// writes a dedicated never-written page).
    struct OutsideUnion {
        inner: Diverge,
        extra: Option<SharedGrid2<f64>>,
    }
    impl DsmApp for OutsideUnion {
        fn name(&self) -> &'static str {
            "outside-union"
        }
        fn phases(&self) -> usize {
            self.inner.phases()
        }
        fn iters(&self) -> usize {
            self.inner.iters()
        }
        fn setup(&mut self, s: &mut SetupCtx<'_>) {
            self.inner.setup(s);
            let extra = s.alloc_grid::<f64>("dv_extra", 1, 8);
            s.init_row(extra, 0, &[0.0; 8]);
            self.extra = Some(extra);
        }
        fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
            let end = self.inner.phase(ctx, iter, site);
            if iter == 5 && site == 1 && ctx.pid() == 0 {
                self.extra.unwrap().set(ctx, 0, 0, 42.0);
            }
            end
        }
        fn check(&self, c: &CheckCtx<'_>) -> f64 {
            self.inner.check(c) + c.read_grid(self.extra.unwrap(), 0, 0)
        }
    }

    let seq = run_app(
        &mut OutsideUnion {
            inner: Diverge::new(None, 8),
            extra: None,
        },
        RunConfig::with_nprocs(ProtocolKind::Seq, 1),
    );
    let r = run_app(
        &mut OutsideUnion {
            inner: Diverge::new(None, 8),
            extra: None,
        },
        cfg(ProtocolKind::BarM, DivergencePolicy::Revert, false),
    );
    assert!(
        r.stats.overdrive_unanticipated > 0,
        "a write outside the union is still protected and must trap"
    );
    assert_eq!(r.checksum, seq.checksum, "revert keeps bar-m correct here");
}

#[test]
fn barnes_never_runs_trap_free() {
    use rdsm::apps::{barnes::Barnes, Scale};
    let r = run_app(
        &mut Barnes::new(Scale::Small),
        cfg(ProtocolKind::BarS, DivergencePolicy::Revert, false),
    );
    assert!(
        r.stats.segvs > 0,
        "barnes' dynamic sharing must keep write-trapping alive"
    );
}

#[test]
fn lossy_wires_never_change_the_answer_at_64_nodes() {
    use rdsm::apps::{app_by_name, Scale};
    use rdsm::check::checked_run;
    use rdsm::sim::FaultProfile;
    // Overdrive must not twin or write-enable a copy the last barrier
    // invalidated (sor/bar-s, jacobi/bar-m), and a consumer must not take
    // one writer's duplicate for another's lost flush (barnes/bar-u).
    let lossy = [FaultProfile::iid_loss(), FaultProfile::dup_reorder()];
    let cells = [
        ("sor", ProtocolKind::BarS, &lossy[..]),
        ("jacobi", ProtocolKind::BarM, &lossy[..]),
        (
            "barnes",
            ProtocolKind::BarU,
            &[FaultProfile::loss_dup()][..],
        ),
    ];
    std::thread::scope(|scope| {
        for (app, protocol, profiles) in cells {
            scope.spawn(move || {
                let spec = app_by_name(app).unwrap();
                let run = |fault: &FaultProfile| {
                    let mut cfg = RunConfig::with_nprocs(protocol, 64);
                    cfg.sim.fault = fault.clone();
                    checked_run(spec.build(Scale::Small).as_mut(), cfg)
                };
                let (base, _) = run(&FaultProfile::none());
                for fault in profiles {
                    let (r, check) = run(fault);
                    let cell = format!("{app} under {} with {fault:?}", protocol.label());
                    assert_eq!(r.checksum, base.checksum, "{cell}");
                    assert!(check.is_clean(), "{cell}:\n{}", check.summary());
                }
            });
        }
    });
}
