//! The in-memory cluster checkpoint (`Cluster::save` / `Cluster::load`)
//! against the snapshot codec it stands in for: a load must put back
//! exactly what `Cluster::snapshot` would have encoded at save, whatever
//! the cluster held before, and must share every page nothing wrote.

use dsm_sim::prop::{check, Gen};
use dsm_sim::SnapWriter;

use dsm_core::{Cluster, ClusterSave, ProtocolKind, RunConfig, SharedArray};

const NPROCS: usize = 3;
const NPAGES: usize = 3;
const PAGE_WORDS: usize = 1024; // 8 KB of f64
const LANE: usize = PAGE_WORDS / NPROCS;

/// A distributed cluster over `NPAGES` one-page arrays.
fn cluster(cfg: &RunConfig) -> (Cluster, Vec<SharedArray<f64>>) {
    let mut cluster = Cluster::new(cfg.clone());
    let pages: Vec<SharedArray<f64>> = {
        let mut s = cluster.setup_ctx();
        (0..NPAGES)
            .map(|i| s.alloc_array::<f64>(&format!("pg{i}"), PAGE_WORDS))
            .collect()
    };
    cluster.set_phases_per_iter(1);
    cluster.distribute();
    (cluster, pages)
}

/// One random race-free epoch: each process writes only its own lane.
fn epoch(g: &mut Gen, cluster: &mut Cluster, pages: &[SharedArray<f64>]) {
    for pid in 0..NPROCS {
        let mut ctx = cluster.exec_ctx(pid);
        for _ in 0..g.below(5) {
            let word = pid * LANE + g.below(LANE);
            let value = (g.range(0, 2000) as f64 - 1000.0) * 0.5;
            pages[g.below(NPAGES)].set(&mut ctx, word, value);
        }
    }
    cluster.barrier_app(None);
}

fn snapshot(cluster: &Cluster) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cluster.snapshot(&mut w);
    w.into_bytes()
}

fn configs() -> Vec<RunConfig> {
    let protocols = [
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarI,
        ProtocolKind::BarU,
        ProtocolKind::BarS,
        ProtocolKind::BarM,
    ];
    protocols
        .into_iter()
        .map(|p| {
            let mut cfg = RunConfig::with_nprocs(p, NPROCS);
            cfg.warmup_iters = 0;
            cfg.gc_diff_threshold = 3;
            // Lost flushes draw from the scheduler's stream, so its state
            // is part of what a load must restore.
            cfg.sim.flush_drop_prob = if p.is_update() { 0.3 } else { 0.0 };
            cfg
        })
        .collect()
}

/// Saving again with no step in between shares every resident page with
/// the parent capture; a step that writes copies only what it wrote.
#[test]
fn a_save_with_no_step_since_the_parent_shares_every_page() {
    check("cluster_save_shares_pages", 8, |g| {
        for cfg in configs() {
            let (mut cl, pages) = cluster(&cfg);
            for _ in 0..g.range(1, 4) {
                epoch(g, &mut cl, &pages);
            }
            let first = cl.save(None);
            let second = cl.save(Some(&first));
            assert_eq!(second.unshared_pages(&first), 0, "{}", cfg.protocol.label());
            cl.load(&first);
            let third = cl.save(Some(&first));
            assert_eq!(third.unshared_pages(&first), 0, "a load copies no page");
        }
    });
}

/// A load into a cluster that ran ahead and into a freshly set-up one
/// both re-encode to the snapshot bytes taken at save, hash the same, and
/// serve their carried frame-hash memos correctly; and the loaded
/// cluster runs on exactly as the saved one did.
#[test]
fn load_into_a_cluster_that_ran_ahead_equals_load_into_a_fresh_one() {
    check("cluster_load_is_history_free", 8, |g| {
        for cfg in configs() {
            let label = cfg.protocol.label();
            let (mut cl, pages) = cluster(&cfg);
            let mut saves: Vec<(ClusterSave, Vec<u8>, u64)> = Vec::new();
            for _ in 0..g.range(2, 6) {
                epoch(g, &mut cl, &pages);
                if g.chance(0.5) {
                    let _ = cl.state_hash(); // leave some frame memos current
                }
                let save = cl.save(saves.last().map(|(s, _, _)| s));
                saves.push((save, snapshot(&cl), cl.state_hash_uncached()));
            }
            let (mut fresh, _) = cluster(&cfg);
            for (save, bytes, hash) in saves.iter().rev() {
                for target in [&mut cl, &mut fresh] {
                    target.load(save);
                    assert!(snapshot(target) == *bytes, "{label}: load re-encodes");
                    assert_eq!(target.state_hash(), *hash, "{label}: cached hash");
                    assert_eq!(target.state_hash_uncached(), *hash, "{label}");
                }
            }
            // Both continue identically from the oldest capture.
            let seed = g.u64();
            for target in [&mut cl, &mut fresh] {
                epoch(&mut Gen::new(seed), target, &pages);
            }
            assert!(snapshot(&cl) == snapshot(&fresh), "{label}: runs on alike");
        }
    });
}
