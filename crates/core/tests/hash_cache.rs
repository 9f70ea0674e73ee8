//! Cache-coherence proof for the explorer's structural hash, and the
//! equality semantics the `State` declarations pin for it.
//!
//! `Cluster::state_hash` folds revision-cached per-frame hashes;
//! `Cluster::state_hash_uncached` recomputes every frame from scratch.
//! They must agree at *every* observation point of *any* execution — a
//! single missed revision bump on any frame mutation path (write, fetch,
//! diff application, protection change, twin lifecycle) makes them
//! diverge. Random race-free barrier programs across all protocols give
//! the mutation paths good coverage, including GC and overdrive twins.

use dsm_sim::prop::{check, Gen};
use dsm_sim::{SnapWriter, Sparse, State, StateHasher};
use dsm_vm::{PageId, PageStore};

use dsm_core::proto::CopySet;
use dsm_core::{Cluster, ProtocolKind, RunConfig, SharedArray};

const NPROCS: usize = 3;
const NPAGES: usize = 3;
const PAGE_WORDS: usize = 1024; // 8 KB of f64
const LANE: usize = PAGE_WORDS / NPROCS;

fn assert_coherent(cluster: &Cluster, at: &str, protocol: ProtocolKind) {
    assert_eq!(
        cluster.state_hash(),
        cluster.state_hash_uncached(),
        "cached frame hash went stale {at} under {}",
        protocol.label()
    );
}

fn run_program(g: &mut Gen, cfg: &RunConfig) {
    let protocol = cfg.protocol;
    let epochs = g.range(3, 7);
    // A race-free program: each process writes only its own page lane.
    let program: Vec<Vec<Vec<(usize, usize, f64)>>> = g.vec_of(epochs, |g| {
        g.vec_of(NPROCS, |g| {
            let n = g.below(5);
            g.vec_of(n, |g| {
                (
                    g.below(NPAGES),
                    g.below(LANE),
                    (g.range(0, 2000) as f64 - 1000.0) * 0.5,
                )
            })
        })
    });

    let mut cluster = Cluster::new(cfg.clone());
    let pages: Vec<SharedArray<f64>> = {
        let mut s = cluster.setup_ctx();
        (0..NPAGES)
            .map(|i| s.alloc_array::<f64>(&format!("pg{i}"), PAGE_WORDS))
            .collect()
    };
    cluster.set_phases_per_iter(1);
    cluster.distribute();
    assert_coherent(&cluster, "after distribute", protocol);

    for epoch in &program {
        for (pid, writes) in epoch.iter().enumerate() {
            let mut ctx = cluster.exec_ctx(pid);
            for &(page, idx, value) in writes {
                let word = pid * LANE + idx;
                pages[page].set(&mut ctx, word, value);
                let _ = pages[page].get(&mut ctx, word);
            }
        }
        assert_coherent(&cluster, "mid-epoch", protocol);
        cluster.barrier_app(None);
        assert_coherent(&cluster, "after barrier", protocol);
    }
}

#[test]
fn cached_hash_equals_uncached_hash() {
    check("cached_hash_equals_uncached_hash", 24, |g| {
        for protocol in [
            ProtocolKind::LmwI,
            ProtocolKind::LmwU,
            ProtocolKind::BarI,
            ProtocolKind::BarU,
            ProtocolKind::BarS,
            ProtocolKind::BarM,
        ] {
            let mut cfg = RunConfig::with_nprocs(protocol, NPROCS);
            cfg.warmup_iters = 0;
            run_program(g, &cfg);
        }
    });
}

/// Same property with GC forced aggressively: the stop-the-world sweep
/// mutates frames through validation and full fetches.
#[test]
fn cached_hash_survives_gc() {
    check("cached_hash_survives_gc", 12, |g| {
        for protocol in [ProtocolKind::LmwI, ProtocolKind::LmwU] {
            let mut cfg = RunConfig::with_nprocs(protocol, NPROCS);
            cfg.warmup_iters = 0;
            cfg.gc_diff_threshold = 2;
            run_program(g, &cfg);
        }
    });
}

// ----------------------------------------------------------------------
// Equality semantics. Hash *values* are free to change; which states hash
// equal is not — the explorer's visited set, and so the schedule and
// pruned columns of `results/explore-baseline.txt`, depend on it. Each
// test builds two values the explorer must not tell apart, on the very
// types the cluster's declaration uses for the fields in question, and
// checks that the snapshot still does tell them apart where restore must
// be byte-exact.
// ----------------------------------------------------------------------

fn hash<T: State>(v: &T) -> u64 {
    let mut h = StateHasher::new();
    v.fold(&mut h);
    h.finish()
}

fn bytes<T: State>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// `Cluster::copysets` / `iter_writers`: lookups materialize empty sets
/// lazily, so an absent entry and an empty one are the same state.
#[test]
fn absent_copyset_entry_hashes_as_empty_set() {
    let mut a: Sparse<u32, CopySet> = Sparse::default();
    let mut b: Sparse<u32, CopySet> = Sparse::default();
    a.insert(3, CopySet::single(1));
    b.insert(3, CopySet::single(1));
    b.entry(7).or_default();
    assert_eq!(hash(&a), hash(&b));
    assert_ne!(bytes(&a), bytes(&b), "the snapshot keeps the empty entry");
    b.entry(7).or_default().insert(2);
    assert_ne!(hash(&a), hash(&b));
}

/// `Cluster::iter_write_counts`: a zero count is no count.
#[test]
fn zero_write_count_hashes_as_absent() {
    let mut a: Sparse<(u32, u16), u32> = Sparse::default();
    let mut b: Sparse<(u32, u16), u32> = Sparse::default();
    a.insert((4, 0), 2);
    b.insert((4, 0), 2);
    b.insert((4, 1), 0);
    assert_eq!(hash(&a), hash(&b));
    assert_ne!(bytes(&a), bytes(&b));
    b.insert((4, 1), 1);
    assert_ne!(hash(&a), hash(&b));
}

/// Dirty ranges are observable only while twin-free tracking is armed
/// (they *are* the next delta); under a twin they merely steer the diff
/// scan. The coarse flag is never observable: a cover and an exact record
/// of the same spans capture the same bytes.
#[test]
fn dirty_ranges_hash_only_while_tracking_and_never_their_precision() {
    let store = |prepare: &dyn Fn(&mut dsm_vm::Frame)| {
        let mut s = PageStore::new(8192);
        s.ensure_pages(1);
        prepare(s.frame_mut(PageId(0)));
        s
    };
    let word = 9u64.to_le_bytes();
    let zero = 0u64.to_le_bytes();

    // Under a twin: an extra recorded range (a silent store) changes
    // neither contents nor hash.
    let a = store(&|f| {
        f.make_twin();
        f.write_at(0, &word);
    });
    let b = store(&|f| {
        f.make_twin();
        f.write_at(0, &word);
        f.write_at(4096, &zero);
    });
    assert_eq!(hash(&a), hash(&b));
    assert_ne!(bytes(&a), bytes(&b), "the snapshot keeps the ranges");

    // Tracking: the same two histories now differ.
    let a = store(&|f| {
        f.arm_dirty_tracking();
        f.write_at(0, &word);
    });
    let b = store(&|f| {
        f.arm_dirty_tracking();
        f.write_at(0, &word);
        f.write_at(4096, &zero);
    });
    assert_ne!(hash(&a), hash(&b));

    // Tracking, one range too many: the coarse cover merges the leftmost
    // one-word gap; an exact record that also (silently) stored to the gap
    // word has the same spans without the flag.
    let scattered = |f: &mut dsm_vm::Frame| {
        for i in 0..=dsm_vm::DirtyRanges::MAX_RANGES {
            f.write_at(i * 16, &word);
        }
    };
    let a = store(&|f| {
        f.arm_dirty_tracking();
        scattered(f);
    });
    let b = store(&|f| {
        f.arm_dirty_tracking();
        f.write_at(8, &zero);
        scattered(f);
    });
    let (fa, fb) = (a.frame(PageId(0)).unwrap(), b.frame(PageId(0)).unwrap());
    assert!(fa.dirty_ranges().is_coarse() && !fb.dirty_ranges().is_coarse());
    assert_eq!(
        fa.dirty_ranges().iter().collect::<Vec<_>>(),
        fb.dirty_ranges().iter().collect::<Vec<_>>()
    );
    assert_eq!(hash(&a), hash(&b));
    assert_ne!(bytes(&a), bytes(&b), "the snapshot keeps the flag");
}

/// Virtual time never steers control flow: the same program under a
/// costlier machine, measured over a different window, ends in a state
/// with different clocks, `RunStats` and `NetStats` — and the same hash.
#[test]
fn clusters_differing_only_in_timing_hash_equal() {
    let run = |slow: bool| {
        let mut cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, NPROCS);
        if slow {
            cfg.sim.costs.mprotect_ns *= 3;
            cfg.sim.costs.segv_ns += 1_000;
        }
        let mut cluster = Cluster::new(cfg);
        let page = cluster.setup_ctx().alloc_array::<f64>("pg", PAGE_WORDS);
        cluster.set_phases_per_iter(1);
        cluster.distribute();
        for epoch in 0..4 {
            if slow && epoch == 2 {
                cluster.start_measurement();
            }
            for pid in 0..NPROCS {
                let mut ctx = cluster.exec_ctx(pid);
                page.set(&mut ctx, pid * LANE + epoch, epoch as f64 + 0.5);
                if epoch > 0 {
                    // The neighbour's previous-epoch word: race-free.
                    let _ = page.get(&mut ctx, ((pid + 1) % NPROCS) * LANE + epoch - 1);
                }
            }
            cluster.barrier_app(None);
        }
        cluster
    };
    let (fast, slow) = (run(false), run(true));
    let (rf, rs) = (fast.report("t", 0.0), slow.report("t", 0.0));
    assert_ne!(rf.elapsed, rs.elapsed, "the clocks did diverge");
    assert_ne!(rf.stats.segvs, rs.stats.segvs, "so did the stats windows");
    assert_ne!(rf.stats.net, rs.stats.net);
    assert_eq!(fast.state_hash(), slow.state_hash());
    assert_eq!(fast.state_hash_uncached(), slow.state_hash_uncached());
}
