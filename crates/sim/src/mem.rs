//! Backing byte storage for simulated memory regions.
//!
//! [`PagedMem`] holds the *contents* of a memory region (untrusted RAM,
//! or an enclave's swap area) in a two-level table. The top level has
//! one slot per leaf of `LEAF_PAGES` pages (4 MiB of address space);
//! a leaf holds one `RwLock` per page, so concurrent threads touching
//! different pages do not serialize, and each page's 4 KiB chunk sits
//! behind its lock. Leaves and chunks appear on the first write into
//! their range: a read of memory never written returns zeros and a
//! zero fill of it does nothing, so the host footprint follows the
//! bytes a run writes, not the size of the region.
//!
//! A chunk also goes away again: [`PagedMem::release`] and a zero fill
//! of a whole page drop the page back to reading zeros, and its 4 KiB
//! buffer goes into a free pool that the next first write of any page
//! draws from. So the footprint follows the bytes in use rather than
//! every byte ever written, and the buffers are reused instead of being
//! returned to the host allocator and asked for again. A byte ring in
//! this memory (a socket's staging ring, a cross-enclave channel) gives
//! back what its reader has consumed through
//! [`PagedMem::release_ring`], the one rule both follow. This layer moves
//! bytes only; cycle accounting happens in the access layers that call
//! it.

use std::ops::Range;
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};

use crate::costs::PAGE_SIZE;

/// Pages per leaf of the table.
const LEAF_PAGES: usize = 1024;

/// One page's contents.
type Page = Box<[u8; PAGE_SIZE]>;

/// One page's lock and, once written, its contents.
type Chunk = RwLock<Option<Page>>;

/// Lazily allocated, lock-sharded byte storage.
pub struct PagedMem {
    leaves: Vec<OnceLock<Box<[Chunk]>>>,
    /// Buffers of released pages, handed out again by first writes.
    pool: Mutex<Vec<Page>>,
    size: usize,
}

/// Splits `[addr, addr + len)` into per-page pieces: the page, the
/// offset within it, and the piece's range within the caller's buffer.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        (off < len).then(|| {
            let cur = addr as usize + off;
            let in_page = cur % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(len - off);
            off += n;
            (cur / PAGE_SIZE, in_page, off - n..off)
        })
    })
}

impl PagedMem {
    /// Creates a zero-initialized region of `size` bytes (rounded up to
    /// whole pages). Nothing but the top level is allocated: leaves and
    /// chunks materialize on first write.
    #[must_use]
    pub fn new(size: usize) -> Self {
        let pages = size.div_ceil(PAGE_SIZE);
        let mut leaves = Vec::with_capacity(pages.div_ceil(LEAF_PAGES));
        leaves.resize_with(pages.div_ceil(LEAF_PAGES), OnceLock::new);
        Self {
            leaves,
            pool: Mutex::new(Vec::new()),
            size: pages * PAGE_SIZE,
        }
    }

    /// Region size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of leaves allocated so far (diagnostics): one per
    /// `LEAF_PAGES`-page range that has been written.
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.get().is_some()).count()
    }

    /// Number of pages in `[addr, addr + len)` that hold contents
    /// (diagnostics): written since they were last released.
    #[must_use]
    pub fn resident_pages(&self, addr: u64, len: usize) -> usize {
        self.check(addr, len);
        let first = addr as usize / PAGE_SIZE;
        (first..(addr as usize + len).div_ceil(PAGE_SIZE))
            .filter(|&page| self.chunk(page).is_some_and(|c| c.read().is_some()))
            .count()
    }

    fn check(&self, addr: u64, len: usize) {
        let end = addr
            .checked_add(len as u64)
            .unwrap_or_else(|| panic!("simulated access overflows: {addr:#x}+{len}"));
        assert!(
            end <= self.size as u64,
            "simulated segfault: [{addr:#x}, {end:#x}) beyond region of {} bytes",
            self.size
        );
    }

    /// Page `page`'s chunk, or `None` while its leaf was never written.
    fn chunk(&self, page: usize) -> Option<&Chunk> {
        self.leaves[page / LEAF_PAGES]
            .get()
            .map(|leaf| &leaf[page % LEAF_PAGES])
    }

    /// Page `page`'s chunk, allocating its leaf on first use.
    fn chunk_or_init(&self, page: usize) -> &Chunk {
        let i = page / LEAF_PAGES;
        let leaf = self.leaves[i].get_or_init(|| {
            let pages = (self.size / PAGE_SIZE - i * LEAF_PAGES).min(LEAF_PAGES);
            (0..pages).map(|_| RwLock::new(None)).collect()
        });
        &leaf[page % LEAF_PAGES]
    }

    /// A zeroed page buffer for a first write: one from the pool, or a
    /// new one while the pool is empty.
    fn fresh_page(&self) -> Page {
        let pooled = self.pool.lock().pop();
        match pooled {
            Some(mut data) => {
                data.fill(0);
                data
            }
            None => Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Drops page `page`'s contents, if any, into the pool.
    fn drop_page(&self, page: usize) {
        let data = self.chunk(page).and_then(|c| c.write().take());
        if let Some(data) = data {
            self.pool.lock().push(data);
        }
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access (a simulation bug, analogous to a
    /// segfault).
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        self.check(addr, buf.len());
        for (page, in_page, r) in pieces(addr, buf.len()) {
            let dst = &mut buf[r];
            let guard = self.chunk(page).map(RwLock::read);
            match guard.as_ref().and_then(|g| g.as_deref()) {
                Some(data) => dst.copy_from_slice(&data[in_page..in_page + dst.len()]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn write(&self, addr: u64, buf: &[u8]) {
        self.check(addr, buf.len());
        for (page, in_page, r) in pieces(addr, buf.len()) {
            let mut guard = self.chunk_or_init(page).write();
            let data = guard.get_or_insert_with(|| self.fresh_page());
            data[in_page..in_page + r.len()].copy_from_slice(&buf[r]);
        }
    }

    /// Fills `[addr, addr+len)` with `byte`.
    pub fn fill(&self, addr: u64, len: usize, byte: u8) {
        self.check(addr, len);
        for (page, in_page, r) in pieces(addr, len) {
            let n = r.len();
            if byte != 0 {
                let mut guard = self.chunk_or_init(page).write();
                let data = guard.get_or_insert_with(|| self.fresh_page());
                data[in_page..in_page + n].fill(byte);
            } else if n == PAGE_SIZE {
                // A zero fill allocates nothing: a whole page is
                // released, and a part of a page never written is zero
                // already.
                self.drop_page(page);
            } else if let Some(chunk) = self.chunk(page) {
                if let Some(data) = chunk.write().as_mut() {
                    data[in_page..in_page + n].fill(0);
                }
            }
        }
    }

    /// Releases every whole page within `[addr, addr + len)`: each
    /// reads zeros from now on, and its buffer goes to the pool. The
    /// bytes of a page only partly inside the range are kept.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn release(&self, addr: u64, len: usize) {
        self.check(addr, len);
        let first = (addr as usize).div_ceil(PAGE_SIZE);
        let end = (addr as usize + len) / PAGE_SIZE;
        for page in first..end {
            self.drop_page(page);
        }
    }

    /// Releases what a ring buffer's reader has consumed. The ring is
    /// `[base, base + cap)` and counts positions in bytes moved through
    /// it since it was created, so position `p` lives at
    /// `base + p % cap`. `tail` is the oldest position still to be read,
    /// `head` the writer's next one (`tail <= head <= tail + cap`), and
    /// `released` the position earlier calls have released up to; the
    /// call advances it.
    ///
    /// Every whole page that holds only positions in
    /// `[max(released, head - cap), tail)` is released: bytes that have
    /// been read and that the writer has not come round to again, so the
    /// page the writer is in keeps what it holds. The page `tail` is in
    /// is released by a later call, once the tail has left it.
    ///
    /// # Panics
    /// Panics when `tail > head` or the ring lies outside the region.
    pub fn release_ring(&self, base: u64, cap: usize, released: &mut u64, tail: u64, head: u64) {
        assert!(tail <= head, "a ring's reader is ahead of its writer");
        let cap = cap as u64;
        let from = (*released).max(head.saturating_sub(cap));
        if from < tail {
            // At most one lap, on either side of the wrap point.
            let (a, b) = (from % cap, from % cap + (tail - from));
            self.release(base + a, (b.min(cap) - a) as usize);
            self.release(base, b.saturating_sub(cap) as usize);
        }
        // The position the tail's page starts at, or the lap's first
        // if that page starts before the ring.
        let in_page = ((base + tail % cap) % PAGE_SIZE as u64).min(tail % cap);
        *released = (*released).max(tail - in_page);
    }

    /// Reads a little-endian `u64` at `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = PagedMem::new(8192);
        let mut buf = [0xffu8; 16];
        m.read(100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let m = PagedMem::new(3 * PAGE_SIZE);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        m.write(3000, &data); // spans pages 0..=1 and into 2
        let mut out = vec![0u8; data.len()];
        m.read(3000, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn fill_and_whole_page_zero() {
        let m = PagedMem::new(2 * PAGE_SIZE);
        m.fill(0, 2 * PAGE_SIZE, 0xab);
        let mut b = [0u8; 4];
        m.read(PAGE_SIZE as u64, &mut b);
        assert_eq!(b, [0xab; 4]);
        m.fill(0, PAGE_SIZE, 0);
        m.read(0, &mut b);
        assert_eq!(b, [0; 4]);
        m.read(PAGE_SIZE as u64, &mut b);
        assert_eq!(b, [0xab; 4]);
    }

    #[test]
    fn u64_helpers() {
        let m = PagedMem::new(PAGE_SIZE);
        m.write_u64(40, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(40), 0xdead_beef_cafe_f00d);
    }

    #[test]
    #[should_panic(expected = "simulated segfault")]
    fn out_of_bounds_read_panics() {
        let m = PagedMem::new(PAGE_SIZE);
        let mut b = [0u8; 8];
        m.read(PAGE_SIZE as u64 - 4, &mut b);
    }

    #[test]
    fn size_rounds_up() {
        let m = PagedMem::new(PAGE_SIZE + 1);
        assert_eq!(m.size(), 2 * PAGE_SIZE);
    }

    #[test]
    fn unwritten_ranges_allocate_no_leaf() {
        let m = PagedMem::new(3 * LEAF_PAGES * PAGE_SIZE);
        let mut buf = vec![0xffu8; 3 * PAGE_SIZE];
        m.read(PAGE_SIZE as u64 / 2, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(m.read_u64(8), 0);
        m.fill(100, 200, 0); // partial zero fill
        m.fill(PAGE_SIZE as u64, 2 * PAGE_SIZE, 0); // whole pages
        m.fill((LEAF_PAGES * PAGE_SIZE) as u64 - 10, 20, 0); // across leaves
        assert_eq!(m.leaves(), 0);
        m.write_u64((2 * LEAF_PAGES * PAGE_SIZE) as u64, 1);
        assert_eq!(m.leaves(), 1);
    }

    #[test]
    fn write_spanning_two_leaves_reads_back() {
        let m = PagedMem::new(2 * LEAF_PAGES * PAGE_SIZE);
        let data: Vec<u8> = (0..3 * PAGE_SIZE as u32).map(|i| (i % 253) as u8).collect();
        let addr = (LEAF_PAGES * PAGE_SIZE - PAGE_SIZE - 100) as u64;
        m.write(addr, &data);
        assert_eq!(m.leaves(), 2);
        let mut out = vec![0u8; data.len() + 200];
        m.read(addr - 100, &mut out);
        assert_eq!(&out[..100], &[0u8; 100]);
        assert_eq!(&out[100..100 + data.len()], &data[..]);
        assert_eq!(&out[100 + data.len()..], &[0u8; 100]);
    }

    #[test]
    fn a_short_last_leaf_holds_only_the_region() {
        let m = PagedMem::new(LEAF_PAGES * PAGE_SIZE + 3 * PAGE_SIZE);
        let end = m.size() as u64;
        m.write_u64(end - 8, 7);
        assert_eq!(m.read_u64(end - 8), 7);
        assert_eq!(m.leaves(), 1);
    }

    #[test]
    fn concurrent_disjoint_pages() {
        use std::sync::Arc;
        let m = Arc::new(PagedMem::new(64 * PAGE_SIZE));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let addr = t * 8 * PAGE_SIZE as u64;
                let data = vec![t as u8 + 1; PAGE_SIZE * 2];
                for _ in 0..50 {
                    m.write(addr, &data);
                    let mut out = vec![0u8; data.len()];
                    m.read(addr, &mut out);
                    assert_eq!(out, data);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
