//! Page-granular allocation within the shared segment.
//!
//! Every allocation starts on a fresh page: distinct arrays never share a
//! page, mirroring how a DSM runtime lays out a shared segment so that
//! false sharing happens *within* arrays (where the protocols must handle
//! it) and not *between* unrelated objects.

use dsm_vm::PageId;

/// The shared address-space map: a bump allocator over pages.
#[derive(Clone, Debug)]
pub struct SharedSegment {
    page_size: usize,
    next_page: usize,
    allocs: Vec<Alloc>,
}

/// One named allocation, for diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Alloc {
    pub name: String,
    pub base: usize,
    pub bytes: usize,
}

// The allocation map grows mid-run (reduction scratch), so it is state;
// the page size is construction-time configuration.
dsm_sim::impl_state!(SharedSegment {
    config: page_size;
    state: next_page, allocs;
});
dsm_sim::impl_state!(Alloc { state: name, base, bytes; });

impl SharedSegment {
    pub fn new(page_size: usize) -> SharedSegment {
        assert!(page_size.is_power_of_two());
        SharedSegment {
            page_size,
            next_page: 0,
            allocs: Vec::new(),
        }
    }

    /// Reserve `bytes` bytes starting on a fresh page; returns the base
    /// byte address.
    pub fn alloc(&mut self, name: &str, bytes: usize) -> usize {
        assert!(bytes > 0, "zero-sized shared allocation");
        let base = self.next_page * self.page_size;
        let pages = bytes.div_ceil(self.page_size);
        self.next_page += pages;
        self.allocs.push(Alloc {
            name: name.to_string(),
            base,
            bytes,
        });
        base
    }

    /// Total pages in the segment so far.
    pub fn npages(&self) -> usize {
        self.next_page
    }

    /// Total reserved bytes (page-rounded).
    pub fn reserved_bytes(&self) -> usize {
        self.next_page * self.page_size
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The allocation table.
    pub fn allocs(&self) -> &[Alloc] {
        &self.allocs
    }

    /// The page containing byte address `addr`.
    pub fn page_of(&self, addr: usize) -> PageId {
        PageId::containing(addr, self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_start_on_fresh_pages() {
        let mut s = SharedSegment::new(8192);
        let a = s.alloc("a", 100);
        let b = s.alloc("b", 8192);
        let c = s.alloc("c", 8193);
        let d = s.alloc("d", 10);
        assert_eq!(a, 0);
        assert_eq!(b, 8192); // "a" padded to one full page
        assert_eq!(c, 2 * 8192);
        assert_eq!(d, 4 * 8192); // "c" took two pages
        assert_eq!(s.npages(), 5);
        assert_eq!(s.reserved_bytes(), 5 * 8192);
    }

    #[test]
    fn alloc_table_records_names() {
        let mut s = SharedSegment::new(4096);
        s.alloc("grid", 4096 * 3);
        assert_eq!(s.allocs().len(), 1);
        assert_eq!(s.allocs()[0].name, "grid");
        assert_eq!(s.allocs()[0].bytes, 4096 * 3);
    }

    #[test]
    fn page_of_uses_page_size() {
        let mut s = SharedSegment::new(4096);
        s.alloc("x", 4096 * 2);
        assert_eq!(s.page_of(0).index(), 0);
        assert_eq!(s.page_of(4095).index(), 0);
        assert_eq!(s.page_of(4096).index(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_rejected() {
        SharedSegment::new(4096).alloc("z", 0);
    }
}
