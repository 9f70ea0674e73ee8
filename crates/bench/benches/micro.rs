//! Microbenchmarks of the substrate primitives: diffs, twins, page stores,
//! copysets, the deterministic RNG, the FFT kernel, and the checker's
//! per-access and per-barrier paths.

use dsm_bench::quick::{BatchSize, Criterion, Throughput};
use dsm_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use dsm_apps::fft_math::fft_inplace;
use dsm_check::oracle::OracleState;
use dsm_check::Checker;
use dsm_core::{CheckEvent, Cluster, ProtocolKind, RunConfig, SharedArray};
use dsm_sim::DetRng;
use dsm_vm::{BufPool, Diff, Frame, PageBuf, PageId, PageStore, Protection};

const PAGE: usize = 8192;

fn random_page(rng: &mut DetRng) -> PageBuf {
    let mut p = PageBuf::zeroed(PAGE);
    for w in p.typed_mut::<u64>(0..PAGE) {
        *w = rng.next_u64();
    }
    p
}

/// A page pair differing in `runs` contiguous 64-byte regions.
fn page_pair(runs: usize) -> (PageBuf, PageBuf) {
    let mut rng = DetRng::new(42);
    let twin = random_page(&mut rng);
    let mut cur = twin.clone();
    for i in 0..runs {
        let start = (i * PAGE / runs.max(1)) & !7;
        for b in &mut cur.bytes_mut()[start..start + 64] {
            *b ^= 0x5A;
        }
    }
    (twin, cur)
}

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    g.throughput(Throughput::Bytes(PAGE as u64));
    for runs in [0usize, 4, 32, 128] {
        let (twin, cur) = page_pair(runs);
        g.bench_function(format!("between/{runs}_runs"), |b| {
            b.iter(|| Diff::between(PageId(0), black_box(&twin), black_box(&cur)));
        });
        let diff = Diff::between(PageId(0), &twin, &cur);
        g.bench_function(format!("apply/{runs}_runs"), |b| {
            b.iter_batched(
                || twin.clone(),
                |mut target| diff.apply_to(&mut target),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

/// Dirty-range tracked diffing: a twinned frame is written in `runs`
/// sparse spots (or densely), then diffed. The tracked path scans only
/// the recorded dirty ranges; the full scan walks the whole page. The
/// gap between the two is the win `Frame::diff_against_twin` buys the
/// barrier paths of every protocol.
fn bench_ranged_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("ranged_diff");
    g.throughput(Throughput::Bytes(PAGE as u64));
    for (label, writes) in [("sparse_4", 4usize), ("dense_128", 128)] {
        let mut frame = Frame::new(PAGE);
        let mut rng = DetRng::new(9);
        frame.fill_from(&random_page(&mut rng));
        frame.make_twin();
        for i in 0..writes {
            let at = (i * PAGE / writes) & !7;
            frame.write_at(at, &[0xA5u8; 8]);
        }
        g.bench_function(format!("tracked/{label}"), |b| {
            b.iter(|| black_box(&frame).diff_against_twin(PageId(0)));
        });
        g.bench_function(format!("full_scan/{label}"), |b| {
            let twin = frame.twin().expect("twinned");
            b.iter(|| Diff::between(PageId(0), black_box(twin), black_box(frame.data())));
        });
        g.bench_function(format!("tracked_pooled/{label}"), |b| {
            let mut pool = BufPool::new();
            b.iter(|| {
                let d = black_box(&frame).diff_against_twin_in(PageId(0), &mut pool);
                pool.put_diff(d);
            });
        });
    }
    g.finish();
}

/// Structural state hashing with the per-frame cache: a clean re-hash hits
/// every cache, a sparse one re-walks a single mutated frame, and the
/// uncached variant re-walks everything (the explorer's old cost model).
fn bench_state_hash(c: &mut Criterion) {
    const WORDS: usize = 4096;
    let mut cluster = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarU, 4));
    let arr: SharedArray<f64> = {
        let mut s = cluster.setup_ctx();
        s.alloc_array::<f64>("bench", WORDS)
    };
    cluster.set_phases_per_iter(1);
    cluster.distribute();
    // Fault every page in, then settle at a barrier.
    for pid in 0..4 {
        let mut ctx = cluster.exec_ctx(pid);
        for w in (pid * WORDS / 4)..((pid + 1) * WORDS / 4) {
            arr.set(&mut ctx, w, w as f64);
        }
    }
    cluster.barrier_app(None);
    let mut g = c.benchmark_group("state_hash");
    g.bench_function("cached_clean", |b| {
        b.iter(|| black_box(&cluster).state_hash());
    });
    g.bench_function("cached_sparse", |b| {
        let mut i = 0u64;
        b.iter(|| {
            {
                let mut ctx = cluster.exec_ctx(0);
                arr.set(&mut ctx, 0, i as f64);
                i += 1;
            }
            black_box(&cluster).state_hash()
        });
    });
    g.bench_function("uncached_dense", |b| {
        b.iter(|| black_box(&cluster).state_hash_uncached());
    });
    g.finish();
}

fn bench_twin(c: &mut Criterion) {
    let mut rng = DetRng::new(7);
    let page = random_page(&mut rng);
    c.bench_function("twin/copy_8k", |b| {
        b.iter_batched(
            || PageBuf::zeroed(PAGE),
            |mut t| t.copy_from(black_box(&page)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_page_store(c: &mut Criterion) {
    let mut store = PageStore::new(PAGE);
    store.ensure_pages(1024);
    for i in 0..1024 {
        store.set_protection(PageId(i), Protection::Read);
    }
    c.bench_function("page_store/check_1k", |b| {
        b.iter(|| {
            let mut faults = 0usize;
            for i in 0..1024u32 {
                if store.check(PageId(i), i % 2 == 0).is_some() {
                    faults += 1;
                }
            }
            black_box(faults)
        });
    });
}

fn bench_copyset(c: &mut Criterion) {
    use dsm_core::proto::copyset::CopySet;
    c.bench_function("copyset/build_iter", |b| {
        b.iter(|| {
            let mut s = CopySet::EMPTY;
            for pid in (0..64).step_by(3) {
                s.insert(pid);
            }
            black_box(s.others(3).sum::<usize>())
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64_x1000", |b| {
        let mut rng = DetRng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        });
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_kernel");
    for n in [64usize, 256, 1024] {
        let mut rng = DetRng::new(5);
        let re: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
        let im: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
        g.bench_function(format!("fft_{n}"), |b| {
            b.iter_batched(
                || (re.clone(), im.clone()),
                |(mut r, mut i)| fft_inplace(&mut r, &mut i, false),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

/// The checker's primitives at the access size the paper-scale stencil
/// apps use (a 4 KB row, half an 8 KB page), through the same sink the
/// cluster feeds. An epoch's first touch needs a barrier before it, and
/// the runner cannot keep one out of the timed region, so those
/// iterations include a barrier release: empty for the reads, folding the
/// previous iteration's row for the writes. `overlay_write` is the part
/// of `barrier/fold_half_page` that is not the fold.
fn bench_checker(c: &mut Criterion) {
    const ROW: usize = 4096;
    let cfg = RunConfig::with_nprocs(ProtocolKind::BarU, 4);
    let mut rng = DetRng::new(11);
    let (a, b) = (random_page(&mut rng), random_page(&mut rng));
    let (a, b) = (&a.bytes()[..ROW], &b.bytes()[..ROW]);
    let release = || CheckEvent::BarrierRelease { epoch: 1 };
    let read = |data| CheckEvent::Read {
        pid: 1,
        addr: 0,
        data,
    };
    let write = |data| CheckEvent::Write {
        pid: 0,
        addr: 0,
        data,
    };
    let mut g = c.benchmark_group("checker");
    g.throughput(Throughput::Bytes(ROW as u64));

    let checker = Checker::new(&cfg);
    let mut sink = checker.sink();
    sink.on_event(CheckEvent::ImageWrite { addr: 0, data: a });
    g.bench_function("row_read/first_touch", |bch| {
        bch.iter(|| {
            sink.on_event(release());
            sink.on_event(read(a));
        });
    });
    g.bench_function("row_read/repeat", |bch| {
        bch.iter(|| sink.on_event(read(a)));
    });
    let mut flip = false;
    g.bench_function("row_write/changing", |bch| {
        bch.iter(|| {
            flip = !flip;
            sink.on_event(release());
            sink.on_event(write(if flip { b } else { a }));
        });
    });
    g.bench_function("row_write/silent", |bch| {
        bch.iter(|| {
            sink.on_event(release());
            sink.on_event(write(a));
        });
    });
    assert!(checker.report().is_clean());

    let mut oracle = OracleState::new(4, cfg.sim.page_size);
    g.bench_function("overlay_write", |bch| {
        bch.iter(|| oracle.on_write(0, 0, black_box(a)));
    });
    g.bench_function("barrier/fold_half_page", |bch| {
        bch.iter(|| {
            oracle.on_write(0, 0, black_box(a));
            oracle.barrier_release();
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_diff,
    bench_ranged_diff,
    bench_state_hash,
    bench_twin,
    bench_page_store,
    bench_copyset,
    bench_rng,
    bench_fft,
    bench_checker
);
criterion_main!(benches);
