//! Protocol-mechanics unit tests, driven through the public API on tiny
//! clusters: lazy diff creation, forced sealing, version indices, copyset
//! growth, empty-diff suppression, and overdrive engagement timing.

use dsm_core::proto::bar::{Delivery, DeliveryKind};
use dsm_core::proto::CopySet;
use dsm_core::{
    Cluster, PageCert, PageClass, ProtocolKind, ReaderLoads, RegionTable, RunConfig, SharedArray,
    WriterRegions,
};
use dsm_vm::Diff;

fn cluster(protocol: ProtocolKind, nprocs: usize) -> (Cluster, SharedArray<f64>) {
    let mut cl = Cluster::new(RunConfig::with_nprocs(protocol, nprocs));
    let arr = {
        let mut s = cl.setup_ctx();
        let arr = s.alloc_array::<f64>("a", 8);
        s.init(arr, 0, 1.0);
        arr
    };
    cl.distribute();
    (cl, arr)
}

// ---------------------------------------------------------------------
// Lazy diff creation (homeless protocols)
// ---------------------------------------------------------------------

#[test]
fn lmw_defers_diffs_until_requested() {
    // A writer with no readers must never pay for a diff — the twin just
    // keeps accumulating ("diffs are created ... lazily").
    let (mut cl, arr) = cluster(ProtocolKind::LmwI, 2);
    for e in 0..5 {
        let mut ctx = cl.exec_ctx(0);
        arr.set(&mut ctx, 0, e as f64);
        cl.barrier_app(None);
    }
    assert_eq!(cl.stats().diffs_created, 0, "no reader, no diff");
    // The first read forces exactly one seal, covering all five intervals.
    {
        let mut ctx = cl.exec_ctx(1);
        assert_eq!(arr.get(&mut ctx, 0), 4.0);
    }
    assert_eq!(cl.stats().diffs_created, 1, "one combined segment");
    assert_eq!(cl.stats().remote_misses, 1);
}

#[test]
fn foreign_writes_force_sealing() {
    // Two processes write disjoint words of the same page in alternate
    // epochs: each foreign notice seals the other's accumulation, so the
    // diff count tracks the interval count even without reads.
    let (mut cl, arr) = cluster(ProtocolKind::LmwI, 2);
    for e in 0..4 {
        let pid = e % 2;
        let mut ctx = cl.exec_ctx(pid);
        arr.set(&mut ctx, pid, e as f64);
        cl.barrier_app(None);
    }
    // Epochs 1..4 alternate writers; the write in epoch k forces a seal of
    // the other side's (single-epoch) accumulation at the barrier, except
    // the final epoch which stays pending.
    assert!(
        cl.stats().diffs_created >= 3,
        "alternating writers must seal per interval, got {}",
        cl.stats().diffs_created
    );
}

#[test]
fn lmw_u_suppresses_empty_diffs_for_copyset_pages() {
    // Once a consumer is in the writer's copyset, the page is sealed at
    // every barrier; a same-value rewrite seals to an empty diff, which
    // emits no notice and no flush — the consumer's copy stays valid.
    let (mut cl, arr) = cluster(ProtocolKind::LmwU, 2);
    {
        let mut ctx = cl.exec_ctx(0);
        arr.set(&mut ctx, 0, 2.0);
    }
    cl.barrier_app(None);
    {
        // Joins p0's copyset by requesting the diff.
        let mut ctx = cl.exec_ctx(1);
        assert_eq!(arr.get(&mut ctx, 0), 2.0);
    }
    cl.barrier_app(None);
    let before = cl.stats();
    {
        let mut ctx = cl.exec_ctx(0);
        arr.set(&mut ctx, 0, 2.0); // same value
    }
    cl.barrier_app(None);
    {
        let mut ctx = cl.exec_ctx(1);
        assert_eq!(arr.get(&mut ctx, 0), 2.0);
    }
    let after = cl.stats();
    assert!(after.empty_diffs > before.empty_diffs, "the seal was empty");
    assert_eq!(
        after.remote_misses, before.remote_misses,
        "unchanged content must not move"
    );
    assert_eq!(
        after.net.msgs_of(dsm_net::MsgKind::UpdateFlush),
        before.net.msgs_of(dsm_net::MsgKind::UpdateFlush),
        "no flush for an empty diff"
    );
}

// ---------------------------------------------------------------------
// Home-based mechanics
// ---------------------------------------------------------------------

#[test]
fn bar_consumer_joins_copyset_after_one_miss() {
    // bar-u: a consumer may take one transient miss while the home's
    // copyset (and hence its twin decision) warms up; after that every
    // iteration is served by update pushes.
    let (mut cl, arr) = cluster(ProtocolKind::BarU, 2);
    for e in 0..6 {
        {
            let mut ctx = cl.exec_ctx(0);
            arr.set(&mut ctx, 0, e as f64);
        }
        cl.barrier_app(None);
        {
            let mut ctx = cl.exec_ctx(1);
            assert_eq!(arr.get(&mut ctx, 0), e as f64, "read after barrier {e}");
        }
    }
    let warmup_misses = cl.stats().remote_misses;
    assert!(warmup_misses <= 2, "at most the warm-up transient");
    for e in 6..12 {
        {
            let mut ctx = cl.exec_ctx(0);
            arr.set(&mut ctx, 0, e as f64);
        }
        cl.barrier_app(None);
        {
            let mut ctx = cl.exec_ctx(1);
            assert_eq!(arr.get(&mut ctx, 0), e as f64);
        }
    }
    assert_eq!(
        cl.stats().remote_misses,
        warmup_misses,
        "steady state is miss-free"
    );
    assert!(cl.stats().net.msgs_of(dsm_net::MsgKind::UpdateFlush) >= 5);
}

#[test]
fn bar_i_consumer_refaults_every_iteration() {
    let (mut cl, arr) = cluster(ProtocolKind::BarI, 2);
    for e in 0..6 {
        {
            let mut ctx = cl.exec_ctx(0);
            arr.set(&mut ctx, 0, e as f64);
        }
        cl.barrier_app(None);
        {
            let mut ctx = cl.exec_ctx(1);
            assert_eq!(arr.get(&mut ctx, 0), e as f64);
        }
    }
    assert!(
        cl.stats().remote_misses >= 5,
        "bar-i must re-fetch after every invalidation, got {}",
        cl.stats().remote_misses
    );
    assert_eq!(cl.stats().net.msgs_of(dsm_net::MsgKind::UpdateFlush), 0);
}

#[test]
fn home_writes_need_no_diffs_or_flushes() {
    // After migration the sole writer is the home: bar-i's steady state
    // for it is version bumps only.
    let (mut cl, arr) = cluster(ProtocolKind::BarI, 2);
    for e in 0..6 {
        let mut ctx = cl.exec_ctx(1); // non-initial-home writer
        arr.set(&mut ctx, 0, e as f64);
        cl.barrier_app(None);
    }
    let stats = cl.stats();
    assert_eq!(stats.migrations, 1);
    // Only the pre-migration epoch needed a diff flush to the old home.
    assert_eq!(
        stats.net.msgs_of(dsm_net::MsgKind::DiffFlushHome),
        1,
        "the home effect eliminates steady-state flushes"
    );
}

#[test]
fn a_duplicate_never_stands_in_for_a_lost_flush() {
    // p1 and p2 write disjoint words of one page that p3 caches. The wire
    // delivers p1's push twice and loses p2's: two messages for two
    // version bumps, so a consumer that counts calls its copy current
    // with p2's word stale. One that compares writer names invalidates.
    struct DupOneLoseOther;
    impl dsm_sim::Scheduler for DupOneLoseOther {
        fn flush_drop(&mut self, src: usize, _dst: usize, _prob: f64) -> bool {
            src == 2
        }
        fn flush_duplicate(&mut self, src: usize, _dst: usize, _prob: f64) -> bool {
            src == 1
        }
    }
    let mut cl = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarU, 4));
    cl.install_scheduler(std::rc::Rc::new(std::cell::RefCell::new(DupOneLoseOther)));
    let arr = cl.setup_ctx().alloc_array::<f64>("a", 8);
    cl.distribute();
    for pid in 1..4 {
        arr.get(&mut cl.exec_ctx(pid), 0); // everyone caches the page
    }
    arr.set(&mut cl.exec_ctx(1), 1, 10.0);
    arr.set(&mut cl.exec_ctx(2), 2, 20.0);
    cl.barrier_app(None);
    let misses = cl.stats().remote_misses;
    assert_eq!(arr.get(&mut cl.exec_ctx(3), 2), 20.0, "p2's lost word");
    assert_eq!(arr.get(&mut cl.exec_ctx(3), 1), 10.0);
    assert_eq!(
        cl.stats().remote_misses,
        misses + 1,
        "p3's copy must have ended the barrier invalid and been re-fetched"
    );
}

// ---------------------------------------------------------------------
// One sealed diff, many handles
// ---------------------------------------------------------------------

/// A wire that delivers every push to p2 twice.
struct DupToP2;
impl dsm_sim::Scheduler for DupToP2 {
    fn flush_drop(&mut self, _src: usize, _dst: usize, _prob: f64) -> bool {
        false
    }
    fn flush_duplicate(&mut self, _src: usize, dst: usize, _prob: f64) -> bool {
        dst == 2
    }
}

/// p0 homes the page, p1 writes it, p2..p5 cache it; the wire duplicates
/// p1's push to p2. Runs up to the point where p1 is about to publish.
fn one_writer_four_readers(cfg: RunConfig) -> (Cluster, SharedArray<f64>) {
    let mut cl = Cluster::new(cfg);
    cl.install_scheduler(std::rc::Rc::new(std::cell::RefCell::new(DupToP2)));
    let arr = cl.setup_ctx().alloc_array::<f64>("a", 8);
    cl.distribute();
    if cl.config().protocol.is_lmw() {
        // A homeless writer learns its copyset from the first fetches.
        arr.set(&mut cl.exec_ctx(1), 1, 1.0);
        cl.barrier_app(None);
    }
    for pid in 2..6 {
        arr.get(&mut cl.exec_ctx(pid), 1);
    }
    cl.barrier_app(None);
    arr.set(&mut cl.exec_ctx(1), 1, 10.0);
    arr.set(&mut cl.exec_ctx(1), 2, 20.0);
    (cl, arr)
}

/// Everything queued for `pids`, in pid order.
fn queued(cl: &Cluster, pids: std::ops::Range<usize>) -> Vec<&Delivery<Diff>> {
    pids.flat_map(|pid| &cl.proc(pid).inbox).collect()
}

#[test]
fn publish_queues_handles_to_the_one_sealed_diff() {
    // bar-u: the home flush, four updates and the duplicate are six
    // deliveries of one diff.
    let (mut cl, _) = one_writer_four_readers(RunConfig::with_nprocs(ProtocolKind::BarU, 6));
    cl.bar_pre_barrier(1, true);
    let all = queued(&cl, 0..6);
    let kinds: Vec<_> = all.iter().map(|d| d.kind).collect();
    let mut want = vec![DeliveryKind::Update; 6];
    want[0] = DeliveryKind::Home;
    assert_eq!(kinds, want, "home flush, p2 twice, p3, p4, p5");
    assert!(all
        .iter()
        .all(|d| d.writer == 1 && d.diff.payload_bytes() == 16));
    assert!(all.iter().all(|d| d.diff.shares_storage_with(&all[0].diff)));

    // lmw-u: no home; the four flushes and the duplicate alias the segment
    // the writer keeps for later fetches.
    let (mut cl, _) = one_writer_four_readers(RunConfig::with_nprocs(ProtocolKind::LmwU, 6));
    cl.lmw_pre_barrier(1, &mut Vec::new());
    let all = queued(&cl, 0..6);
    assert_eq!(all.len(), 5, "p2 twice, p3, p4, p5");
    let kept = &cl.proc(1).lmw.segments[&0].last().expect("sealed").diff;
    assert_eq!(kept.payload_bytes(), 16);
    assert!(all.iter().all(|d| d.diff.shares_storage_with(kept)));
}

#[test]
fn bar_r_aliases_an_unclipped_push_and_copies_a_clipped_one() {
    // p1 is the page's only writer (words 1 and 2). p2 provably loads both,
    // so its push is the full delta; p3 loads only word 1, so its push is a
    // smaller diff of its own; p4 and p5 load neither and get nothing.
    let cert = PageCert {
        page: 0,
        class: PageClass::Exclusive,
        writers: vec![WriterRegions {
            writer: 1,
            spans: vec![(8, 24)],
            readers: CopySet::from_iter([2, 3]),
        }],
        loads: vec![
            ReaderLoads {
                reader: 2,
                spans: vec![(0, 64)],
            },
            ReaderLoads {
                reader: 3,
                spans: vec![(8, 16)],
            },
        ],
    };
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::BarR, 6);
    cfg.regions = Some(std::sync::Arc::new(RegionTable::new(vec![cert])));
    let (mut cl, _) = one_writer_four_readers(cfg);
    cl.bar_pre_barrier(1, true);
    let home = &cl.proc(0).inbox[0].diff;
    assert_eq!(home.payload_bytes(), 16);
    let to_p2 = queued(&cl, 2..3);
    assert_eq!(to_p2.len(), 2, "the duplicate");
    assert!(to_p2.iter().all(|d| d.diff.shares_storage_with(home)));
    let to_p3 = &cl.proc(3).inbox[0].diff;
    assert_eq!(to_p3.payload_bytes(), 8);
    assert!(!to_p3.shares_storage_with(home));
    assert!(queued(&cl, 4..6).is_empty(), "elided");
}

// ---------------------------------------------------------------------
// Overdrive engagement timing
// ---------------------------------------------------------------------

/// Write slot `1024 * k` for each listed k — 1024 f64 = one 8 KB page, so
/// distinct ks touch distinct pages (write sets are page-granular).
fn run_epochs(cl: &mut Cluster, arr: SharedArray<f64>, writes: &[&[usize]]) {
    for (e, pages) in writes.iter().enumerate() {
        for &k in *pages {
            let mut ctx = cl.exec_ctx(0);
            arr.set(&mut ctx, 1024 * k, e as f64 + k as f64);
        }
        cl.barrier_app(None);
    }
}

#[test]
fn overdrive_engages_after_two_identical_iterations() {
    let mut cl = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarS, 2));
    let arr = {
        let mut s = cl.setup_ctx();
        s.alloc_array::<f64>("a", 4096)
    };
    cl.set_phases_per_iter(1);
    cl.distribute();
    run_epochs(&mut cl, arr, &[&[0]]);
    assert!(!cl.overdrive_engaged(), "one observation is not stability");
    run_epochs(&mut cl, arr, &[&[0]]);
    assert!(
        cl.overdrive_engaged(),
        "two identical iterations must engage"
    );
}

#[test]
fn overdrive_waits_out_unstable_prefixes() {
    let mut cl = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarS, 2));
    let arr = {
        let mut s = cl.setup_ctx();
        s.alloc_array::<f64>("a", 4096)
    };
    cl.set_phases_per_iter(1);
    cl.distribute();
    // Different page-level write sets for three iterations, then stable.
    run_epochs(&mut cl, arr, &[&[0], &[1], &[2]]);
    assert!(!cl.overdrive_engaged());
    run_epochs(&mut cl, arr, &[&[2]]);
    assert!(
        cl.overdrive_engaged(),
        "stability after instability engages"
    );
}

#[test]
fn overdrive_predictions_cover_exactly_the_write_set() {
    // Once engaged, steady state has zero segvs and the diff count keeps
    // tracking the (predicted) write set with no empties.
    let mut cl = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarS, 2));
    let arr = {
        let mut s = cl.setup_ctx();
        s.alloc_array::<f64>("a", 8)
    };
    cl.set_phases_per_iter(1);
    cl.distribute();
    for e in 0..8 {
        let mut ctx = cl.exec_ctx(0);
        arr.set(&mut ctx, 0, e as f64);
        cl.barrier_app(None);
    }
    assert!(cl.overdrive_engaged());
    let segvs_at_steady = cl.stats().segvs;
    for e in 8..12 {
        let mut ctx = cl.exec_ctx(0);
        arr.set(&mut ctx, 0, e as f64);
        cl.barrier_app(None);
    }
    assert_eq!(cl.stats().segvs, segvs_at_steady, "no traps in overdrive");
    assert_eq!(cl.stats().overdrive_zero_diffs, 0, "predictions are exact");
}
