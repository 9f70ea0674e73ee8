//! Aligned page buffers and the audited byte↔scalar slice casts.
//!
//! This module contains the only `unsafe` code in the workspace. Page data
//! is stored in 8-byte-aligned buffers so that rows of `f64`/`u64` data can
//! be exposed to application kernels as zero-copy slices — the same way a
//! real DSM application computes directly on faulted-in pages.

use core::fmt;

/// Marker for plain-old-data scalar types that may be reinterpreted from
/// page bytes.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding, no invalid bit patterns,
/// and an alignment that divides 8 (the page buffer alignment).
pub unsafe trait Pod: Copy + PartialEq + fmt::Debug + Default + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// Reinterpret an 8-byte-aligned byte slice as a slice of `T`.
///
/// Panics if `bytes` is not aligned for `T` or its length is not a multiple
/// of `size_of::<T>()`.
pub fn cast_slice<T: Pod>(bytes: &[u8]) -> &[T] {
    let size = core::mem::size_of::<T>();
    assert!(
        size > 0 && bytes.len().is_multiple_of(size),
        "length not a multiple of element size"
    );
    assert!(
        (bytes.as_ptr() as usize).is_multiple_of(core::mem::align_of::<T>()),
        "misaligned cast"
    );
    // SAFETY: alignment and length verified above; `T: Pod` guarantees all
    // bit patterns are valid and there is no padding.
    unsafe { core::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) }
}

/// Mutable version of [`cast_slice`].
pub fn cast_slice_mut<T: Pod>(bytes: &mut [u8]) -> &mut [T] {
    let size = core::mem::size_of::<T>();
    assert!(
        size > 0 && bytes.len().is_multiple_of(size),
        "length not a multiple of element size"
    );
    assert!(
        (bytes.as_ptr() as usize).is_multiple_of(core::mem::align_of::<T>()),
        "misaligned cast"
    );
    // SAFETY: as in `cast_slice`; exclusive borrow guarantees uniqueness.
    unsafe { core::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<T>(), bytes.len() / size) }
}

/// View a typed slice as raw bytes (for copying into page frames).
pub fn as_bytes<T: Pod>(xs: &[T]) -> &[u8] {
    // SAFETY: Pod types have no padding and all bit patterns valid; u8 has
    // alignment 1, so any source alignment is acceptable.
    unsafe { core::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), core::mem::size_of_val(xs)) }
}

/// Mutable version of [`as_bytes`] (for copying out of page frames).
pub fn as_bytes_mut<T: Pod>(xs: &mut [T]) -> &mut [u8] {
    let len = core::mem::size_of_val(xs);
    // SAFETY: as in `as_bytes`; exclusive borrow guarantees uniqueness, and
    // any byte pattern written is a valid `T` because `T: Pod`.
    unsafe { core::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<u8>(), len) }
}

/// One page worth of 8-byte-aligned bytes.
///
/// Backed by a `Box<[u64]>` so the allocation is always 8-byte aligned;
/// exposed as bytes (for diffs) or as scalar slices (for kernels).
#[derive(Clone, PartialEq)]
pub struct PageBuf {
    words: Box<[u64]>,
}

impl PageBuf {
    /// A zeroed buffer of `page_size` bytes. `page_size` must be a multiple
    /// of 8.
    pub fn zeroed(page_size: usize) -> Self {
        assert!(
            page_size.is_multiple_of(8),
            "page size must be a multiple of 8"
        );
        PageBuf {
            words: vec![0u64; page_size / 8].into_boxed_slice(),
        }
    }

    /// Size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() * 8
    }

    /// True if the buffer has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The page contents as bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: u64 -> u8 reinterpretation is always valid; the length is
        // exactly the allocation size.
        unsafe { core::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len()) }
    }

    /// The page contents as mutable bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len();
        // SAFETY: as in `bytes`; exclusive borrow guarantees uniqueness.
        unsafe { core::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), len) }
    }

    /// A sub-range of the page as a typed slice.
    ///
    /// `byte_range` must be aligned to `T` and sized to a whole number of
    /// elements.
    pub fn typed<T: Pod>(&self, byte_range: core::ops::Range<usize>) -> &[T] {
        cast_slice(&self.bytes()[byte_range])
    }

    /// Mutable version of [`PageBuf::typed`].
    pub fn typed_mut<T: Pod>(&mut self, byte_range: core::ops::Range<usize>) -> &mut [T] {
        cast_slice_mut(&mut self.bytes_mut()[byte_range])
    }

    /// Copy the full contents of `src` into this buffer (sizes must match).
    pub fn copy_from(&mut self, src: &PageBuf) {
        assert_eq!(self.len(), src.len(), "page size mismatch");
        self.words.copy_from_slice(&src.words);
    }

    /// Copy the word-aligned byte span `[lo, hi)` of `src` into the same
    /// span of this buffer.
    #[inline]
    pub fn copy_span_from(&mut self, src: &PageBuf, lo: usize, hi: usize) {
        debug_assert!(
            lo.is_multiple_of(8) && hi.is_multiple_of(8),
            "unaligned span"
        );
        self.words[lo / 8..hi / 8].copy_from_slice(&src.words[lo / 8..hi / 8]);
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_right_size_and_content() {
        let b = PageBuf::zeroed(8192);
        assert_eq!(b.len(), 8192);
        assert!(b.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_size_rejected() {
        PageBuf::zeroed(100);
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut b = PageBuf::zeroed(64);
        b.bytes_mut()[5] = 0xAB;
        b.bytes_mut()[63] = 0xCD;
        assert_eq!(b.bytes()[5], 0xAB);
        assert_eq!(b.bytes()[63], 0xCD);
    }

    #[test]
    fn typed_view_f64() {
        let mut b = PageBuf::zeroed(64);
        b.typed_mut::<f64>(0..64)[3] = 2.5;
        assert_eq!(b.typed::<f64>(0..64)[3], 2.5);
        assert_eq!(b.typed::<f64>(24..32)[0], 2.5);
    }

    #[test]
    fn typed_view_u32_subrange() {
        let mut b = PageBuf::zeroed(32);
        let xs = b.typed_mut::<u32>(8..24);
        xs[0] = 7;
        xs[3] = 9;
        assert_eq!(b.typed::<u32>(8..24), &[7, 0, 0, 9]);
    }

    #[test]
    fn copy_from_copies_everything() {
        let mut a = PageBuf::zeroed(64);
        let mut b = PageBuf::zeroed(64);
        a.bytes_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u8);
        b.copy_from(&a);
        assert_eq!(a.bytes(), b.bytes());
        // Independent after copy.
        b.bytes_mut()[0] = 99;
        assert_ne!(a.bytes()[0], b.bytes()[0]);
        let mut c = PageBuf::zeroed(64);
        c.copy_span_from(&a, 8, 24);
        assert_eq!(&c.bytes()[8..24], &a.bytes()[8..24]);
        assert!(c.bytes()[..8]
            .iter()
            .chain(&c.bytes()[24..])
            .all(|&x| x == 0));
    }

    #[test]
    fn as_bytes_roundtrip() {
        let mut xs = [1.5f64, -2.25, 0.0];
        let b = as_bytes(&xs);
        assert_eq!(b.len(), 24);
        let copy: Vec<u8> = b.to_vec();
        as_bytes_mut(&mut xs).copy_from_slice(&copy);
        assert_eq!(xs, [1.5, -2.25, 0.0]);
        as_bytes_mut(&mut xs)[0..8].copy_from_slice(&7.5f64.to_ne_bytes());
        assert_eq!(xs[0], 7.5);
    }

    #[test]
    fn cast_slice_roundtrips() {
        let mut b = PageBuf::zeroed(24);
        cast_slice_mut::<u64>(b.bytes_mut()).copy_from_slice(&[1, 2, 3]);
        assert_eq!(cast_slice::<u64>(b.bytes()), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length not a multiple")]
    fn cast_slice_bad_length() {
        let b = PageBuf::zeroed(16);
        let _ = cast_slice::<u64>(&b.bytes()[0..12]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn cast_slice_misaligned() {
        let b = PageBuf::zeroed(32);
        let _ = cast_slice::<u64>(&b.bytes()[4..28]);
    }
}
