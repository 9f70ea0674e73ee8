//! A minimal, dependency-free micro-benchmark runner with a
//! criterion-compatible calling convention.
//!
//! The workspace builds offline, so the bench targets cannot pull in an
//! external harness; this module reimplements the small API surface the
//! bench files use (`Criterion`, `benchmark_group`, `bench_function`,
//! `Bencher::iter` / `iter_batched`, `Throughput`, plus the
//! `criterion_group!` / `criterion_main!` macros). Timing is a simple
//! adaptive loop: iterations double until a sample exceeds the target
//! measurement window, and the mean ns/iter of the final sample is
//! reported. Good enough for regression eyeballing; not a statistics
//! engine.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How the workload size is declared for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing hint for `iter_batched`; accepted for API compatibility,
/// the adaptive loop sizes batches itself.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
}

/// Top-level handle passed to every bench function.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function(&mut self, name: impl AsRef<str>, f: impl FnMut(&mut Bencher)) {
        run_one("", name.as_ref(), None, f);
    }
}

/// A named benchmark group (prefixes its members' names).
pub struct BenchGroup {
    name: String,
    throughput: Option<Throughput>,
}

impl BenchGroup {
    /// Declare per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function(&mut self, name: impl AsRef<str>, f: impl FnMut(&mut Bencher)) {
        run_one(&self.name, name.as_ref(), self.throughput, f);
    }

    /// End the group (no-op; exists for criterion compatibility).
    pub fn finish(&mut self) {}
}

/// Measurement handle: the closure calls exactly one of `iter` /
/// `iter_batched`, which runs the adaptive timing loop and records the
/// final sample.
pub struct Bencher {
    total: Duration,
    iters: u64,
}

/// Target measurement window per benchmark. Overridable via the
/// `DSM_BENCH_MS` environment variable for quick smoke runs.
fn target_window() -> Duration {
    let ms = std::env::var("DSM_BENCH_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(100);
    Duration::from_millis(ms.max(1))
}

impl Bencher {
    /// Time `f`, excluding nothing: the routine is the whole iteration.
    /// Named after the criterion-style convention (`b.iter(...)`), not the
    /// `Iterator` protocol.
    #[allow(clippy::iter_not_returning_iterator)]
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..2 {
            black_box(f());
        }
        let target = target_window();
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= target || iters >= 1 << 22 {
                self.total = dt;
                self.iters = iters;
                return;
            }
            iters *= 4;
        }
    }

    /// Time `routine` over inputs produced by `setup`; setup cost is kept
    /// outside the timed region by pre-building each batch.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        for _ in 0..2 {
            black_box(routine(setup()));
        }
        let target = target_window();
        let mut iters: u64 = 1;
        loop {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let dt = t0.elapsed();
            if dt >= target || iters >= 1 << 22 {
                self.total = dt;
                self.iters = iters;
                return;
            }
            iters *= 4;
        }
    }
}

fn run_one(
    group: &str,
    name: &str,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    let full = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    if b.iters == 0 {
        println!("bench {full:<40} (no measurement)");
        return;
    }
    let ns = b.total.as_nanos() as f64 / b.iters as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            let mbps = n as f64 / 1e6 / (ns / 1e9);
            format!("  {mbps:10.1} MB/s")
        }
        None => String::new(),
    };
    println!(
        "bench {full:<40} {ns:12.1} ns/iter  ({} iters){rate}",
        b.iters
    );
}

/// Criterion-compatible group declaration: defines a function that runs
/// each listed bench function against a shared [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::quick::Criterion::default();
            $($f(&mut c);)+
        }
    };
}

/// Criterion-compatible entry point: runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
