//! Property-based protocol fuzzing: random race-free barrier programs must
//! produce identical memory under every protocol, with every read
//! satisfying the LRC oracle (a reader sees exactly the state as of the
//! last barrier, plus its own in-epoch writes).
//!
//! Race freedom is guaranteed structurally: each page is divided into
//! per-process lanes and a process writes only its own lanes (any process
//! may read anything).

use dsm_sim::prop::{check, Gen};

use dsm_core::{Cluster, ProtocolKind, RunConfig, SharedArray};

const NPROCS: usize = 3;
const NPAGES: usize = 4;
const PAGE_WORDS: usize = 1024; // 8 KB of f64
const LANE: usize = PAGE_WORDS / NPROCS;

/// One write: process `pid` writes `value` at slot `idx` of its lane on
/// `page`.
#[derive(Clone, Debug)]
struct W {
    page: usize,
    idx: usize,
    value: f64,
}

/// One epoch of a random program: per-process writes and reads.
#[derive(Clone, Debug)]
struct Epoch {
    writes: Vec<Vec<W>>,             // per pid
    reads: Vec<Vec<(usize, usize)>>, // per pid: (page, absolute word index)
}

fn gen_epoch(g: &mut Gen) -> Epoch {
    let writes = g.vec_of(NPROCS, |g| {
        let n = g.below(5);
        g.vec_of(n, |g| W {
            page: g.below(NPAGES),
            idx: g.below(LANE),
            value: (g.range(0, 2000) as f64 - 1000.0) * 0.5,
        })
    });
    let reads = g.vec_of(NPROCS, |g| {
        let n = g.below(6);
        g.vec_of(n, |g| (g.below(NPAGES), g.below(PAGE_WORDS)))
    });
    Epoch { writes, reads }
}

fn gen_program(g: &mut Gen) -> Vec<Epoch> {
    let len = g.range(3, 8);
    g.vec_of(len, gen_epoch)
}

/// The LRC oracle: `committed` is the state as of the last barrier;
/// `pending[pid]` the process's own in-epoch writes.
struct Oracle {
    committed: Vec<Vec<f64>>,
    pending: Vec<Vec<(usize, usize, f64)>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            committed: vec![vec![0.0; PAGE_WORDS]; NPAGES],
            pending: vec![Vec::new(); NPROCS],
        }
    }

    fn write(&mut self, pid: usize, page: usize, word: usize, v: f64) {
        self.pending[pid].push((page, word, v));
    }

    fn read(&self, pid: usize, page: usize, word: usize) -> f64 {
        self.pending[pid]
            .iter()
            .rev()
            .find(|(p, w, _)| *p == page && *w == word)
            .map_or(self.committed[page][word], |(_, _, v)| *v)
    }

    /// True if reading `(page, word)` from `pid` this epoch would race with
    /// another process's same-epoch write. The paper's programs are
    /// race-free; under LRC a racy read may legally return either value,
    /// so the fuzzer skips asserting those.
    fn read_races(&self, pid: usize, page: usize, word: usize) -> bool {
        self.pending
            .iter()
            .enumerate()
            .any(|(q, pend)| q != pid && pend.iter().any(|(p, w, _)| *p == page && *w == word))
    }

    fn barrier(&mut self) {
        for pend in &mut self.pending {
            for (p, w, v) in pend.drain(..) {
                self.committed[p][w] = v;
            }
        }
    }
}

/// Run `program` under `protocol`, checking every read against the oracle;
/// return the final memory image.
fn run(program: &[Epoch], mut cfg: RunConfig) -> Vec<Vec<f64>> {
    let mut cluster = Cluster::new(cfg.clone());
    let pages: Vec<SharedArray<f64>> = {
        let mut s = cluster.setup_ctx();
        (0..NPAGES)
            .map(|i| s.alloc_array::<f64>(&format!("pg{i}"), PAGE_WORDS))
            .collect()
    };
    cluster.set_phases_per_iter(1);
    cluster.distribute();
    cfg.warmup_iters = 0;

    let mut oracle = Oracle::new();
    for epoch in program {
        for pid in 0..NPROCS {
            let mut ctx = cluster.exec_ctx(pid);
            for w in &epoch.writes[pid] {
                let word = pid * LANE + w.idx;
                pages[w.page].set(&mut ctx, word, w.value);
                oracle.write(pid, w.page, word, w.value);
            }
            for &(page, word) in &epoch.reads[pid] {
                let got = pages[page].get(&mut ctx, word);
                if oracle.read_races(pid, page, word) {
                    continue;
                }
                let want = oracle.read(pid, page, word);
                assert_eq!(
                    got,
                    want,
                    "LRC violation: p{pid} read {page}:{word} under {}",
                    cfg.protocol.label()
                );
            }
        }
        cluster.barrier_app(None);
        oracle.barrier();
    }

    let c = cluster.check_ctx();
    let mut image = Vec::with_capacity(NPAGES);
    for arr in &pages {
        let mut buf = vec![0.0f64; PAGE_WORDS];
        c.read_range(*arr, 0, &mut buf);
        image.push(buf);
    }
    // Final snapshot must match the oracle exactly.
    for (p, page) in image.iter().enumerate() {
        for (w, v) in page.iter().enumerate() {
            assert_eq!(
                *v,
                oracle.committed[p][w],
                "final state mismatch at {p}:{w} under {}",
                cfg.protocol.label()
            );
        }
    }
    image
}

fn base_cfg(protocol: ProtocolKind) -> RunConfig {
    let mut cfg = RunConfig::with_nprocs(protocol, NPROCS);
    cfg.warmup_iters = 0;
    cfg
}

/// All protocols (except bar-m, which is *documented* as unsound for
/// non-repeating patterns) satisfy the LRC oracle — every read and the
/// final image are asserted inside `run` — and agree with each other.
#[test]
fn random_programs_agree() {
    check("random_programs_agree", 48, |g| {
        let program = gen_program(g);
        let mut images = Vec::new();
        for protocol in [
            ProtocolKind::LmwI,
            ProtocolKind::LmwU,
            ProtocolKind::BarI,
            ProtocolKind::BarU,
            ProtocolKind::BarS,
        ] {
            images.push(run(&program, base_cfg(protocol)));
        }
        for pair in images.windows(2) {
            assert_eq!(&pair[0], &pair[1]);
        }
    });
}

/// The transport backend moves the messages, it must never change the
/// answer: the same random program on the one-sided RDMA backend satisfies
/// the per-read LRC oracle and produces the same final image as the
/// two-sided wire, under every protocol.
#[test]
fn one_sided_backend_agrees() {
    check("one_sided_backend_agrees", 48, |g| {
        let program = gen_program(g);
        for protocol in [
            ProtocolKind::LmwI,
            ProtocolKind::LmwU,
            ProtocolKind::BarI,
            ProtocolKind::BarU,
            ProtocolKind::BarS,
        ] {
            let two = run(&program, base_cfg(protocol));
            let mut cfg = base_cfg(protocol);
            cfg.sim.transport = dsm_sim::transport::TransportKind::OneSided;
            let one = run(&program, cfg); // oracle asserted inside
            assert_eq!(two, one, "backends disagree under {}", protocol.label());
        }
    });
}

/// With GC forced aggressively, the homeless protocols stay correct.
#[test]
fn random_programs_survive_gc() {
    check("random_programs_survive_gc", 48, |g| {
        let program = gen_program(g);
        for protocol in [ProtocolKind::LmwI, ProtocolKind::LmwU] {
            let mut cfg = base_cfg(protocol);
            cfg.gc_diff_threshold = 2;
            let _ = run(&program, cfg); // oracle asserted inside
        }
    });
}

/// With flush loss, lmw-u stays correct (flushes are an optimization).
#[test]
fn random_programs_survive_flush_loss() {
    check("random_programs_survive_flush_loss", 48, |g| {
        let program = gen_program(g);
        let drop = g.f64_in(0.0, 1.0);
        let mut cfg = base_cfg(ProtocolKind::LmwU);
        cfg.sim.flush_drop_prob = drop;
        let _ = run(&program, cfg); // oracle asserted inside
    });
}

/// Programs whose per-process write sets repeat every epoch are safe
/// for bar-m too (values vary, pages do not).
#[test]
fn repeating_programs_are_safe_for_bar_m() {
    check("repeating_programs_are_safe_for_bar_m", 48, |g| {
        let epoch0 = gen_epoch(g);
        let repeats = g.range(4, 9);
        let salt = g.range(0, 200) as i32 - 100;
        // Repeat the same write/read structure with varying values.
        let program: Vec<Epoch> = (0..repeats)
            .map(|k| {
                let mut e = epoch0.clone();
                for ws in &mut e.writes {
                    for w in ws.iter_mut() {
                        w.value += (k as i32 * salt) as f64;
                    }
                }
                e
            })
            .collect();
        for protocol in [ProtocolKind::BarS, ProtocolKind::BarM] {
            let _ = run(&program, base_cfg(protocol)); // oracle asserted inside
        }
    });
}
