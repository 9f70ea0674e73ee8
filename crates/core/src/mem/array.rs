//! One-dimensional shared arrays.

use core::marker::PhantomData;

use dsm_sim::{SnapError, SnapReader, SnapWriter, State, StateHasher};
use dsm_vm::Pod;

/// A handle to a contiguous shared array of `T`.
///
/// Handles are plain `Copy` descriptors — all state lives in the cluster.
/// Element and range accessors take an [`crate::drive::ctx::ExecCtx`] and go
/// through the full protection-check/fault path.
#[derive(Debug)]
pub struct SharedArray<T: Pod> {
    base: usize,
    len: usize,
    _t: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound them on `T: Clone/Copy`, and the
// PhantomData makes that unnecessary.
#[allow(clippy::expl_impl_clone_on_copy)]
impl<T: Pod> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for SharedArray<T> {}

/// A descriptor only: the element data lives in segment pages and is
/// snapshotted and hashed with the frames that hold it.
impl<T: Pod> State for SharedArray<T> {
    fn encode(&self, w: &mut SnapWriter) {
        let SharedArray { base, len, _t: _ } = self;
        base.encode(w);
        len.encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let SharedArray { base, len, _t: _ } = self;
        base.decode(r)?;
        len.decode(r)?;
        if base.is_multiple_of(core::mem::align_of::<T>()) {
            Ok(())
        } else {
            r.bad_tag("array alignment", *base as u64)
        }
    }

    fn fold(&self, h: &mut StateHasher) {
        let SharedArray { base, len, _t: _ } = self;
        base.fold(h);
        len.fold(h);
    }
}

impl<T: Pod> Default for SharedArray<T> {
    fn default() -> Self {
        SharedArray::from_raw(0, 0)
    }
}

impl<T: Pod> SharedArray<T> {
    /// Construct from a base byte address (must be `T`-aligned) and length.
    pub(crate) fn from_raw(base: usize, len: usize) -> Self {
        assert!(
            base.is_multiple_of(core::mem::align_of::<T>()),
            "misaligned array base"
        );
        SharedArray {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base byte address in the shared segment.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Byte address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> usize {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * core::mem::size_of::<T>()
    }

    /// Byte size of the whole array.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_strided_by_element_size() {
        let a = SharedArray::<f64>::from_raw(8192, 100);
        assert_eq!(a.addr_of(0), 8192);
        assert_eq!(a.addr_of(3), 8192 + 24);
        assert_eq!(a.byte_len(), 800);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_addr_panics() {
        let a = SharedArray::<u32>::from_raw(0, 4);
        let _ = a.addr_of(4);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_base_rejected() {
        let _ = SharedArray::<f64>::from_raw(4, 1);
    }

    #[test]
    fn handles_are_copy() {
        let a = SharedArray::<f64>::from_raw(0, 8);
        let b = a;
        assert_eq!(a.base(), b.base());
    }
}
