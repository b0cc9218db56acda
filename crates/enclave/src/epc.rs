//! The EPC frame pool — the physical pages of processor-reserved
//! memory that all enclaves share.
//!
//! Frame *contents* and *ownership* live together under a per-frame
//! `RwLock`, which gives the access path a simple TOCTOU-free protocol:
//! translate, lock the frame, re-check ownership, copy. The driver takes
//! the write lock for eviction/loading, so a page can never be read
//! while it is being swapped.
//!
//! A frame's contents appear when it is first written, or when the
//! driver loads a page into it (ELDU), and are dropped again when the
//! driver evicts the page (EWB), supplies the frame as a zero page or
//! tears its enclave down. A frame without contents reads as zeros, so
//! the host memory the pool takes follows the pages a run writes, not
//! the size of the EPC.

use std::ops::{Deref, DerefMut};

use parking_lot::RwLock;

use eleos_sim::costs::{EPC_BASE, PAGE_SIZE};

/// Index of a frame within the pool.
pub type FrameIdx = u32;

/// What every frame without contents reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// The contents of one frame: `None` until the frame is first written.
///
/// It dereferences to the page's bytes: a shared borrow of a frame
/// without contents sees zeros, and a mutable borrow (a write) gives
/// the frame its contents.
#[derive(Default)]
pub struct FrameData(Option<Box<[u8; PAGE_SIZE]>>);

impl FrameData {
    /// Whether the frame holds contents of its own.
    #[must_use]
    pub fn is_present(&self) -> bool {
        self.0.is_some()
    }

    /// Takes the contents out, leaving the frame without any.
    pub fn take(&mut self) -> Option<Box<[u8; PAGE_SIZE]>> {
        self.0.take()
    }

    /// Drops the contents: the frame reads as zeros again.
    pub fn clear(&mut self) {
        self.0 = None;
    }
}

impl From<Box<[u8; PAGE_SIZE]>> for FrameData {
    fn from(page: Box<[u8; PAGE_SIZE]>) -> Self {
        Self(Some(page))
    }
}

impl Deref for FrameData {
    type Target = [u8; PAGE_SIZE];

    fn deref(&self) -> &Self::Target {
        self.0.as_deref().unwrap_or(&ZERO_PAGE)
    }
}

impl DerefMut for FrameData {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
}

/// Ownership record + contents of one frame.
pub struct FrameInner {
    /// Owning `(enclave id, linear page number)` when mapped.
    pub owner: Option<(u32, u64)>,
    /// Page contents, allocated on first write.
    pub data: FrameData,
}

/// One 4 KiB EPC frame.
pub struct Frame {
    /// Guarded ownership + contents.
    pub inner: RwLock<FrameInner>,
}

/// The machine-wide EPC.
pub struct EpcPool {
    frames: Vec<Frame>,
}

impl EpcPool {
    /// Creates a pool of `n` unowned frames without contents: each
    /// reads as zeros until it is first written.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "EPC must have at least one frame");
        let mut frames = Vec::with_capacity(n);
        frames.resize_with(n, || Frame {
            inner: RwLock::new(FrameInner {
                owner: None,
                data: FrameData::default(),
            }),
        });
        Self { frames }
    }

    /// Number of frames.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Returns frame `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn frame(&self, idx: FrameIdx) -> &Frame {
        &self.frames[idx as usize]
    }

    /// Simulated physical address of the first byte of frame `idx`.
    #[must_use]
    pub fn paddr(idx: FrameIdx) -> u64 {
        EPC_BASE + idx as u64 * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_start_unowned_and_read_as_zeros() {
        let pool = EpcPool::new(4);
        assert_eq!(pool.frame_count(), 4);
        let g = pool.frame(3).inner.read();
        assert_eq!(g.owner, None);
        assert!(!g.data.is_present());
        assert!(g.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn a_write_gives_a_frame_contents_and_clear_drops_them() {
        let pool = EpcPool::new(2);
        let mut g = pool.frame(1).inner.write();
        g.data[7] = 0x5a;
        assert!(g.data.is_present());
        assert_eq!(g.data[7], 0x5a);
        let page = g.data.take().expect("contents");
        assert_eq!(page[7], 0x5a);
        assert!(!g.data.is_present());
        g.data = page.into();
        g.data.clear();
        assert!(!g.data.is_present());
        assert_eq!(g.data[7], 0);
    }

    #[test]
    fn paddr_is_in_epc_domain() {
        use eleos_sim::costs::{domain_of, Domain};
        assert_eq!(domain_of(EpcPool::paddr(0)), Domain::Epc);
        assert_eq!(EpcPool::paddr(2) - EpcPool::paddr(1), PAGE_SIZE as u64);
    }

    #[test]
    fn ownership_can_be_claimed() {
        let pool = EpcPool::new(2);
        {
            let mut g = pool.frame(0).inner.write();
            g.owner = Some((7, 42));
            g.data[0] = 0xaa;
        }
        let g = pool.frame(0).inner.read();
        assert_eq!(g.owner, Some((7, 42)));
        assert_eq!(g.data[0], 0xaa);
    }
}
