//! The SUVM runtime: exit-less, application-level secure paging inside
//! the enclave (Eleos §3.2).
//!
//! SUVM layers a second level of virtual memory on top of the enclave:
//!
//! - a **page cache** (*EPC++*) carved out of enclave-linear memory —
//!   so the SGX driver can still evict its frames under PRM pressure,
//!   which is exactly the multi-enclave hazard §3.3 coordinates around;
//! - a **backing store** in untrusted memory, holding each evicted
//!   page as AES-GCM-sealed sub-page images, allocated by a
//!   memsys5-style buddy allocator;
//! - the **page table** in enclave memory, one entry per page for its
//!   frame and its seal state alike (see [`crate::table`]);
//! - a software fault path that runs *entirely inside the enclave*: no
//!   EEXIT, no kernel, no IPIs.
//!
//! The two paper optimizations impossible under hardware paging are
//! here: clean pages skip write-back on eviction, and direct sub-page
//! access bypasses the page cache for accesses without reuse (§3.2.4)
//! — chosen per access by [`span::Access::Adaptive`] where the paper
//! chose per workload.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::{OpenJob, SealJob, Sealer};
use eleos_enclave::enclave::Enclave;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::config::SuvmConfig;
use crate::table::{Entry, NO_PAGE};

use self::policy::ClockHand;
use self::store::SealedBuddyStore;

/// Per-EPC++-frame metadata.
pub(crate) struct FrameMeta {
    /// Backing-store page currently cached, or [`NO_PAGE`].
    pub page: AtomicU64,
    /// Number of linked spointers (and in-flight raw operations)
    /// pinning the frame (§3.2.2).
    pub pinned: AtomicU32,
    /// Whether the cached copy diverged from the sealed copy.
    pub dirty: AtomicBool,
}

/// A SUVM virtual address (an offset into the instance's secure space).
pub type Sva = u64;

/// The Secure User-managed Virtual Memory runtime for one enclave.
pub struct Suvm {
    cfg: SuvmConfig,
    machine: Arc<SgxMachine>,
    enclave: Arc<Enclave>,
    /// Enclave-linear base of the EPC++ frame pool.
    epcpp_base: u64,
    frames: Vec<FrameMeta>,
    free: Mutex<Vec<u32>>,
    /// Ballooning limit: only frames `0..limit` are usable (§3.3).
    limit: AtomicUsize,
    /// Victim selection under [`SuvmConfig::policy`].
    hand: ClockHand,
    /// Sealed page images + the page table (see [`store`]).
    store: SealedBuddyStore,
    /// The cipher every backing-store seal/open flows through: the
    /// per-application key of §3.2.3.
    sealer: AesGcm128,
    nonce_ctr: AtomicU64,
    /// The read-miss clock [`span::Access::Adaptive`] measures reuse
    /// distance on: ticks once per adaptive read that missed EPC++ on
    /// a page it could bypass to.
    read_misses: AtomicU64,
    /// Major faults this instance served ([`Self::major_faults`]).
    pub(super) major_faults: AtomicU64,
}

impl Suvm {
    /// Creates a SUVM instance for the enclave bound to `ctx`.
    ///
    /// Allocates the EPC++ pool from enclave-linear memory and the
    /// backing store from untrusted memory. `ctx` may be outside the
    /// enclave; no secure memory is touched yet.
    #[must_use]
    pub fn new(ctx: &ThreadCtx, cfg: SuvmConfig) -> Arc<Self> {
        cfg.validate();
        let enclave = Arc::clone(
            ctx.enclave()
                .expect("SUVM requires an enclave-bound thread"),
        );
        let machine = Arc::clone(&ctx.machine);
        let epcpp_base = enclave.alloc(cfg.epcpp_bytes.next_power_of_two());
        assert_eq!(
            epcpp_base % cfg.page_size as u64,
            0,
            "EPC++ pool must be page aligned"
        );
        let n = cfg.frames();
        let mut frames = Vec::with_capacity(n);
        frames.resize_with(n, || FrameMeta {
            page: AtomicU64::new(NO_PAGE),
            pinned: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
        });
        // Random per-application key stored in the EPC (§3.2.3);
        // deterministic here for reproducible simulations.
        let mut key = [0u8; 16];
        key[..4].copy_from_slice(&enclave.id.to_le_bytes());
        key[4..12].copy_from_slice(b"suvm-key");
        Arc::new(Self {
            hand: ClockHand::new(cfg.policy, n),
            store: SealedBuddyStore::new(&machine, cfg.backing_bytes, cfg.page_size),
            free: Mutex::new((0..n as u32).rev().collect()),
            limit: AtomicUsize::new(n),
            sealer: AesGcm128::new(&key),
            nonce_ctr: AtomicU64::new(1),
            read_misses: AtomicU64::new(0),
            major_faults: AtomicU64::new(0),
            frames,
            epcpp_base,
            machine,
            enclave,
            cfg,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SuvmConfig {
        &self.cfg
    }

    /// The enclave this instance serves.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Current EPC++ capacity in frames (after ballooning).
    #[must_use]
    pub fn frame_limit(&self) -> usize {
        self.limit.load(Ordering::Acquire)
    }

    /// The enclave-linear span of the EPC++ frame pool — useful to
    /// experiments needing a plain resident enclave region of the same
    /// physical pages (e.g. the Fig 8 spointer-overhead baseline).
    #[must_use]
    pub fn epcpp_span(&self) -> (u64, usize) {
        (self.epcpp_base, self.frames.len() * self.cfg.page_size)
    }

    /// Number of pages currently cached in EPC++.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.page.load(Ordering::Acquire) != NO_PAGE)
            .count()
    }

    /// Major faults this instance served (the machine-wide
    /// `suvm_major_faults` mixes every instance together).
    #[must_use]
    pub fn major_faults(&self) -> u64 {
        self.major_faults.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Allocation (§3.2.3).
    // ------------------------------------------------------------------

    /// Allocates `len` bytes of secure virtual memory.
    ///
    /// # Panics
    /// Panics when the backing store is exhausted; use
    /// [`Self::try_malloc`] for fallible allocation.
    pub fn malloc(&self, len: usize) -> Sva {
        self.try_malloc(len).expect("SUVM backing store exhausted")
    }

    /// Fallible [`Self::malloc`].
    pub fn try_malloc(&self, len: usize) -> Result<Sva, eleos_sim::alloc::AllocError> {
        self.store.alloc(len)
    }

    /// Frees an allocation, decommitting any fully covered pages.
    ///
    /// # Panics
    /// Panics when `sva` is not a live allocation.
    pub fn free(&self, sva: Sva) {
        let size = self
            .store
            .free(sva)
            .expect("suvm_free of non-allocated address");
        // Decommit whole pages covered by the block: drop cached frames
        // (if unpinned), forget seal state and release the sealed bytes,
        // so the space is really reclaimed.
        let ps = self.cfg.page_size as u64;
        let first = sva.div_ceil(ps);
        let last = (sva + size) / ps;
        for page in first..last {
            self.store.seals.stable(page, |e| {
                let frame = e
                    .frame
                    .take_if(|&mut f| self.frames[f as usize].pinned.load(Ordering::Acquire) == 0);
                if let Some(frame) = frame {
                    self.vacate(frame);
                }
                *e = Entry {
                    frame: e.frame,
                    ..Default::default()
                };
            });
        }
        let bytes = (last.saturating_sub(first) * ps) as usize;
        self.machine
            .untrusted
            .release(self.store.addr_of(first, 0), bytes);
    }

    // ------------------------------------------------------------------
    // Address helpers.
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn page_of(&self, sva: Sva) -> u64 {
        sva / self.cfg.page_size as u64
    }

    #[inline]
    pub(crate) fn epcpp_vaddr(&self, frame: u32, in_page: usize) -> u64 {
        self.epcpp_base + frame as u64 * self.cfg.page_size as u64 + in_page as u64
    }

    /// Draws the next seal nonce: a per-instance counter, scoped by
    /// the enclave id.
    fn next_nonce(&self) -> [u8; 12] {
        let v = self.nonce_ctr.fetch_add(1, Ordering::Relaxed);
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&v.to_le_bytes());
        n[8..].copy_from_slice(&self.enclave.id.to_le_bytes());
        n
    }

    fn aad(page: u64, sub: u32) -> [u8; 12] {
        let mut aad = [0u8; 12];
        aad[..8].copy_from_slice(&page.to_le_bytes());
        aad[8..].copy_from_slice(&sub.to_le_bytes());
        aad
    }

    fn push_free(&self, frame: u32) {
        if (frame as usize) < self.limit.load(Ordering::Acquire) {
            self.free.lock().push(frame);
        }
    }

    /// Checks the invariants between the page table, the frame
    /// metadata, the free list and the backing store. Intended for
    /// tests at quiescent points (no concurrent mutators):
    ///
    /// - a frame caches a page exactly when that page's entry names the
    ///   frame;
    /// - a resident dirty page has no sealed copy, and its backing range
    ///   holds no bytes;
    /// - a page with no frame has a sealed copy at an even version;
    /// - no free frame caches a page, and none is free twice.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn check_consistency(&self) {
        let ps = self.cfg.page_size;
        for (frame, meta) in self.frames.iter().enumerate() {
            let page = meta.page.load(Ordering::Acquire);
            if page == NO_PAGE {
                continue;
            }
            let dirty = meta.dirty.load(Ordering::Acquire);
            self.store.seals.with(page, |e| {
                assert_eq!(
                    e.frame,
                    Some(frame as u32),
                    "frame {frame} claims page {page} but the page table disagrees"
                );
                assert!(
                    !dirty || e.copy.is_none(),
                    "dirty page {page} keeps its stale sealed copy"
                );
            });
            // The copy's release frees whole untrusted pages only.
            if dirty && ps.is_multiple_of(eleos_sim::costs::PAGE_SIZE) {
                assert_eq!(
                    self.machine
                        .untrusted
                        .resident_pages(self.store.addr_of(page, 0), ps),
                    0,
                    "dirty page {page} still holds backing bytes"
                );
            }
        }
        self.store.seals.for_each(|page, e| match e.frame {
            Some(frame) => assert_eq!(
                self.frames[frame as usize].page.load(Ordering::Acquire),
                page,
                "page {page} names frame {frame}, which caches another page"
            ),
            None => assert!(
                e.copy.is_some() && e.version.is_multiple_of(2),
                "page {page} is neither resident nor sealed (version {})",
                e.version
            ),
        });
        let free = self.free.lock();
        let mut seen = std::collections::HashSet::new();
        for &f in free.iter() {
            assert!(seen.insert(f), "frame {f} is on the free list twice");
            assert_eq!(
                self.frames[f as usize].page.load(Ordering::Acquire),
                NO_PAGE,
                "free frame {f} is still mapped"
            );
        }
    }
}

mod balloon;
mod bulk;
mod direct;
mod fault;
mod policy;
pub mod span;
mod store;
mod writeback;

#[cfg(test)]
mod tests;
