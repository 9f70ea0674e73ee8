//! Execution, setup, and verification contexts, plus the typed accessors
//! on the shared-memory handles.

use dsm_sim::{Category, Time};
use dsm_vm::{as_bytes, as_bytes_mut, Pod};

use crate::drive::cluster::Cluster;
use crate::mem::grid::page_friendly_stride;
use crate::mem::{SharedArray, SharedGrid2, SharedScalar, SharedSegment};

/// A process's view of the cluster during a phase body.
///
/// Every access through an `ExecCtx` runs the protection-check → fault →
/// protocol-service path of a real DSM; application compute is charged
/// explicitly via [`ExecCtx::work_flops`].
pub struct ExecCtx<'a> {
    pub(crate) cl: &'a mut Cluster,
    pub(crate) pid: usize,
}

impl ExecCtx<'_> {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Cluster size.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.cl.nprocs()
    }

    /// Charge `n` flops of application compute at the configured flop rate.
    pub fn work_flops(&mut self, n: u64) {
        let t = self.cl.cfg.sim.costs.flops(n);
        self.cl.charge(self.pid, Category::App, t);
    }

    /// Charge raw application compute time.
    pub fn work_ns(&mut self, ns: u64) {
        self.cl.charge(self.pid, Category::App, Time::from_ns(ns));
    }

    /// Result vector of the most recent reduction barrier.
    pub fn reduction(&self) -> &[f64] {
        &self.cl.last_reduction
    }
}

impl<T: Pod> SharedArray<T> {
    /// Read element `i`.
    pub fn get(&self, ctx: &mut ExecCtx<'_>, i: usize) -> T {
        ctx.cl.read_scalar(ctx.pid, self.addr_of(i))
    }

    /// Write element `i`.
    pub fn set(&self, ctx: &mut ExecCtx<'_>, i: usize, v: T) {
        ctx.cl.write_scalar(ctx.pid, self.addr_of(i), v);
    }

    /// Read `out.len()` elements starting at `start` into `out`.
    pub fn read_into(&self, ctx: &mut ExecCtx<'_>, start: usize, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        assert!(start + out.len() <= self.len(), "range out of bounds");
        ctx.cl
            .read_bytes(ctx.pid, self.addr_of(start), as_bytes_mut(out));
    }

    /// Write `src` starting at element `start`.
    pub fn write_from(&self, ctx: &mut ExecCtx<'_>, start: usize, src: &[T]) {
        if src.is_empty() {
            return;
        }
        assert!(start + src.len() <= self.len(), "range out of bounds");
        ctx.cl
            .write_bytes(ctx.pid, self.addr_of(start), as_bytes(src));
    }
}

impl<T: Pod> SharedGrid2<T> {
    /// Read element `(r, c)`.
    pub fn get(&self, ctx: &mut ExecCtx<'_>, r: usize, c: usize) -> T {
        ctx.cl.read_scalar(ctx.pid, self.addr_of(r, c))
    }

    /// Write element `(r, c)`.
    pub fn set(&self, ctx: &mut ExecCtx<'_>, r: usize, c: usize, v: T) {
        ctx.cl.write_scalar(ctx.pid, self.addr_of(r, c), v);
    }

    /// Read row `r` (its `cols()` used elements) into `out`.
    pub fn read_row_into(&self, ctx: &mut ExecCtx<'_>, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.cols(), "row buffer size mismatch");
        ctx.cl
            .read_bytes(ctx.pid, self.row_addr(r), as_bytes_mut(out));
    }

    /// Read `out.len()` elements of row `r` starting at column `c0`
    /// (partial-row reads keep page traffic partitioned for transpose-style
    /// access patterns).
    pub fn read_cols_into(&self, ctx: &mut ExecCtx<'_>, r: usize, c0: usize, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        assert!(c0 + out.len() <= self.cols(), "column range out of bounds");
        ctx.cl
            .read_bytes(ctx.pid, self.addr_of(r, c0), as_bytes_mut(out));
    }

    /// Overwrite row `r` from `src`.
    pub fn write_row(&self, ctx: &mut ExecCtx<'_>, r: usize, src: &[T]) {
        assert_eq!(src.len(), self.cols(), "row buffer size mismatch");
        ctx.cl.write_bytes(ctx.pid, self.row_addr(r), as_bytes(src));
    }

    /// Read-modify-write of row `r` through `scratch` (a `cols()`-sized
    /// caller-provided buffer, avoiding per-call allocation).
    pub fn update_row(
        &self,
        ctx: &mut ExecCtx<'_>,
        r: usize,
        scratch: &mut [T],
        f: impl FnOnce(&mut [T]),
    ) {
        self.read_row_into(ctx, r, scratch);
        f(scratch);
        self.write_row(ctx, r, scratch);
    }
}

impl<T: Pod> SharedScalar<T> {
    /// Read the value.
    pub fn get(&self, ctx: &mut ExecCtx<'_>) -> T {
        self.arr.get(ctx, 0)
    }

    /// Write the value.
    pub fn set(&self, ctx: &mut ExecCtx<'_>, v: T) {
        self.arr.set(ctx, 0, v);
    }
}

/// Allocation and initialization context, live before the run starts.
///
/// Initial contents are written to the golden image; at
/// [`Cluster::distribute`] every process logically receives a valid copy
/// (the paper excludes startup distribution from measurement).
pub struct SetupCtx<'a> {
    pub(crate) cl: &'a mut Cluster,
}

impl SetupCtx<'_> {
    /// Cluster size (for sizing decompositions).
    pub fn nprocs(&self) -> usize {
        self.cl.nprocs()
    }

    /// Page granularity.
    pub fn page_size(&self) -> usize {
        self.cl.page_size()
    }

    /// The segment allocation table so far.
    pub fn segment(&self) -> &SharedSegment {
        &self.cl.seg
    }

    /// Reserve segment space and extend the golden image over it.
    fn alloc(&mut self, name: &str, bytes: usize) -> usize {
        let base = self.cl.alloc(name, bytes);
        self.cl.image.grow(self.cl.seg.npages());
        base
    }

    /// Allocate a shared 1-D array (page-aligned).
    pub fn alloc_array<T: Pod>(&mut self, name: &str, len: usize) -> SharedArray<T> {
        let base = self.alloc(name, len * core::mem::size_of::<T>());
        SharedArray::from_raw(base, len)
    }

    /// Allocate a shared 2-D grid with a page-friendly row stride.
    pub fn alloc_grid<T: Pod>(&mut self, name: &str, rows: usize, cols: usize) -> SharedGrid2<T> {
        let stride = page_friendly_stride::<T>(cols, self.cl.page_size());
        let bytes = rows * stride * core::mem::size_of::<T>();
        let base = self.alloc(name, bytes);
        SharedGrid2::from_raw(base, rows, cols, stride)
    }

    /// Allocate a shared scalar on its own page.
    pub fn alloc_scalar<T: Pod>(&mut self, name: &str) -> SharedScalar<T> {
        SharedScalar::new(self.alloc_array(name, 1))
    }

    /// Initialize one array element.
    pub fn init<T: Pod>(&mut self, a: SharedArray<T>, i: usize, v: T) {
        self.cl
            .write_image_bytes(a.addr_of(i), as_bytes(core::slice::from_ref(&v)));
    }

    /// Initialize a contiguous array range.
    pub fn init_range<T: Pod>(&mut self, a: SharedArray<T>, start: usize, src: &[T]) {
        assert!(start + src.len() <= a.len());
        self.cl.write_image_bytes(a.addr_of(start), as_bytes(src));
    }

    /// Initialize one grid element.
    pub fn init_grid<T: Pod>(&mut self, g: SharedGrid2<T>, r: usize, c: usize, v: T) {
        self.cl
            .write_image_bytes(g.addr_of(r, c), as_bytes(core::slice::from_ref(&v)));
    }

    /// Initialize a whole grid row.
    pub fn init_row<T: Pod>(&mut self, g: SharedGrid2<T>, r: usize, src: &[T]) {
        assert_eq!(src.len(), g.cols());
        self.cl.write_image_bytes(g.row_addr(r), as_bytes(src));
    }

    /// Initialize a shared scalar.
    pub fn init_scalar<T: Pod>(&mut self, s: SharedScalar<T>, v: T) {
        self.init(s.as_array(), 0, v);
    }
}

/// Post-run verification context: uncharged snapshot reads of the globally
/// current shared state.
pub struct CheckCtx<'a> {
    pub(crate) cl: &'a Cluster,
}

impl CheckCtx<'_> {
    /// Read one array element from the global snapshot.
    pub fn read<T: Pod>(&self, a: SharedArray<T>, i: usize) -> T {
        let mut v = T::default();
        self.cl
            .snapshot_bytes(a.addr_of(i), as_bytes_mut(core::slice::from_mut(&mut v)));
        v
    }

    /// Read one grid element from the global snapshot.
    pub fn read_grid<T: Pod>(&self, g: SharedGrid2<T>, r: usize, c: usize) -> T {
        let mut v = T::default();
        self.cl
            .snapshot_bytes(g.addr_of(r, c), as_bytes_mut(core::slice::from_mut(&mut v)));
        v
    }

    /// Read a whole grid row from the global snapshot.
    pub fn read_row<T: Pod>(&self, g: SharedGrid2<T>, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), g.cols());
        self.cl.snapshot_bytes(g.row_addr(r), as_bytes_mut(out));
    }

    /// Read a contiguous array range from the global snapshot.
    pub fn read_range<T: Pod>(&self, a: SharedArray<T>, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= a.len());
        self.cl.snapshot_bytes(a.addr_of(start), as_bytes_mut(out));
    }

    /// Order-stable checksum of a full grid (used as the cross-protocol
    /// correctness fingerprint).
    pub fn grid_checksum(&self, g: SharedGrid2<f64>) -> f64 {
        let mut row = vec![0.0f64; g.cols()];
        let mut acc = 0.0f64;
        for r in 0..g.rows() {
            self.read_row(g, r, &mut row);
            for (c, &v) in row.iter().enumerate() {
                acc += v * (1.0 + ((r * 31 + c * 7) % 97) as f64 * 1e-4);
            }
        }
        acc
    }
}
