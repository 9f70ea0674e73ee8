//! Two-dimensional shared grids with page-friendly row strides.
//!
//! Rows are padded so that a row never straddles a page boundary unless it
//! occupies whole pages, which gives the stencil applications the same
//! page-access pattern the paper's array-sliced codes have: a block-row
//! decomposition touches a clean band of pages, and neighbour rows shared
//! across a band boundary occupy a bounded number of pages.

use core::marker::PhantomData;

use dsm_vm::Pod;

/// A handle to a row-major 2-D shared grid of `T`.
#[derive(Debug)]
pub struct SharedGrid2<T: Pod> {
    base: usize,
    rows: usize,
    cols: usize,
    /// Row stride in elements (>= cols).
    stride: usize,
    _t: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound them on `T: Clone/Copy`, and the
// PhantomData makes that unnecessary.
#[allow(clippy::expl_impl_clone_on_copy)]
impl<T: Pod> Clone for SharedGrid2<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for SharedGrid2<T> {}

/// Pick a stride (in elements) such that rows never straddle page
/// boundaries: either a power-of-two number of rows fits exactly in a page,
/// or a row occupies a whole number of pages.
///
/// Public so that static tooling (`dsm-plan`) can reproduce the exact
/// address layout [`SetupCtx::alloc_grid`](crate::drive::ctx::SetupCtx)
/// produces without allocating anything.
pub fn page_friendly_stride<T: Pod>(cols: usize, page_size: usize) -> usize {
    let esize = core::mem::size_of::<T>();
    let row_bytes = cols * esize;
    let padded = row_bytes.next_power_of_two();
    let stride_bytes = if padded <= page_size {
        padded
    } else {
        row_bytes.div_ceil(page_size) * page_size
    };
    debug_assert!(stride_bytes % esize == 0);
    stride_bytes / esize
}

impl<T: Pod> SharedGrid2<T> {
    pub(crate) fn from_raw(base: usize, rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols);
        assert!(
            base.is_multiple_of(core::mem::align_of::<T>()),
            "misaligned grid base"
        );
        SharedGrid2 {
            base,
            rows,
            cols,
            stride,
            _t: PhantomData,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row stride in elements.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Base byte address.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Total reserved bytes including padding.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.rows * self.stride * core::mem::size_of::<T>()
    }

    /// Byte address of element `(r, c)`.
    #[inline]
    pub fn addr_of(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        self.base + (r * self.stride + c) * core::mem::size_of::<T>()
    }

    /// Byte address of the start of row `r`.
    #[inline]
    pub fn row_addr(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        self.base + r * self.stride * core::mem::size_of::<T>()
    }

    /// Byte length of the *used* part of a row.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.cols * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_pads_to_power_of_two_within_page() {
        // 100 f64 = 800 B -> padded to 1024 B = 128 elements.
        assert_eq!(page_friendly_stride::<f64>(100, 8192), 128);
        // 512 f64 = 4096 B: exactly half a page.
        assert_eq!(page_friendly_stride::<f64>(512, 8192), 512);
        // 1024 f64 = 8192 B: exactly one page.
        assert_eq!(page_friendly_stride::<f64>(1024, 8192), 1024);
    }

    #[test]
    fn stride_rounds_to_whole_pages_when_large() {
        // 1500 f64 = 12000 B -> 2 pages = 16384 B = 2048 elements.
        assert_eq!(page_friendly_stride::<f64>(1500, 8192), 2048);
    }

    #[test]
    fn rows_never_straddle_pages() {
        for cols in [5usize, 63, 100, 512, 1000, 1024, 1500, 3000] {
            let stride = page_friendly_stride::<f64>(cols, 8192);
            let row_bytes = cols * 8;
            let stride_bytes = stride * 8;
            for r in 0..64 {
                let start = r * stride_bytes;
                let end = start + row_bytes - 1;
                if stride_bytes <= 8192 {
                    assert_eq!(start / 8192, end / 8192, "row {r} straddles (cols={cols})");
                } else {
                    assert_eq!(start % 8192, 0, "multi-page row must start page-aligned");
                }
            }
        }
    }

    #[test]
    fn addressing_uses_stride() {
        let g = SharedGrid2::<f64>::from_raw(8192, 4, 3, 128);
        assert_eq!(g.addr_of(0, 0), 8192);
        assert_eq!(g.addr_of(1, 0), 8192 + 128 * 8);
        assert_eq!(g.addr_of(1, 2), 8192 + 128 * 8 + 16);
        assert_eq!(g.row_addr(2), 8192 + 2 * 128 * 8);
        assert_eq!(g.row_bytes(), 24);
        assert_eq!(g.byte_len(), 4 * 128 * 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_bounds_checked() {
        let g = SharedGrid2::<f64>::from_raw(0, 4, 3, 128);
        let _ = g.addr_of(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        let g = SharedGrid2::<f64>::from_raw(0, 4, 3, 128);
        let _ = g.row_addr(4);
    }
}
