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
//! - the **inverse page table** and **crypto-metadata table** in
//!   enclave memory (see [`crate::table`]);
//! - a software fault path that runs *entirely inside the enclave*: no
//!   EEXIT, no kernel, no IPIs.
//!
//! The two paper optimizations impossible under hardware paging are
//! here: clean pages skip write-back on eviction, and direct sub-page
//! access bypasses the page cache for accesses without reuse (§3.2.4)
//! — chosen per access by [`span::Access::Adaptive`] where the paper
//! chose per workload.

use std::collections::VecDeque;
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
use crate::table::{InversePt, SealState, NO_PAGE};

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
    /// Whether the frame sits on the write-back queue (batched mode).
    /// Only flipped under the page's bucket lock, so a pin rescuing
    /// the frame and a drain claiming it cannot both win.
    pub queued: AtomicBool,
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
    pt: InversePt,
    /// Victim selection under [`SuvmConfig::policy`].
    hand: ClockHand,
    /// Sealed page images + crypto table (see [`store`]).
    store: SealedBuddyStore,
    /// Detached-but-not-yet-sealed victims awaiting a batched drain
    /// (`(frame, page)`; see [`writeback`]).
    wb: Mutex<VecDeque<(u32, u64)>>,
    /// The cipher every backing-store seal/open flows through: the
    /// per-application key of §3.2.3.
    sealer: AesGcm128,
    nonce_ctr: AtomicU64,
    /// The read-miss clock [`span::Access::Adaptive`] measures reuse
    /// distance on: ticks once per adaptive read that missed EPC++ on
    /// a page it could bypass to.
    read_misses: AtomicU64,
    /// Per-instance counters (machine-wide stats aggregate across all
    /// SUVM instances; multi-enclave experiments need them apart).
    pub(super) local: LocalStats,
}

/// Per-instance SUVM counters.
#[derive(Debug, Default)]
pub struct LocalStats {
    /// Major faults served by this instance.
    pub major_faults: AtomicU64,
    /// Evictions performed by this instance.
    pub evictions: AtomicU64,
    /// Evictions that skipped the write-back (clean pages).
    pub clean_skips: AtomicU64,
}

/// A plain snapshot of [`LocalStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSnapshot {
    /// Major faults.
    pub major_faults: u64,
    /// Evictions.
    pub evictions: u64,
    /// Clean-page elisions.
    pub clean_skips: u64,
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
            queued: AtomicBool::new(false),
        });
        // Random per-application key stored in the EPC (§3.2.3);
        // deterministic here for reproducible simulations.
        let mut key = [0u8; 16];
        key[..4].copy_from_slice(&enclave.id.to_le_bytes());
        key[4..12].copy_from_slice(b"suvm-key");
        Arc::new(Self {
            pt: InversePt::new(n * 2),
            hand: ClockHand::new(cfg.policy, n),
            store: SealedBuddyStore::new(&machine, cfg.backing_bytes, cfg.page_size),
            wb: Mutex::new(VecDeque::new()),
            free: Mutex::new((0..n as u32).rev().collect()),
            limit: AtomicUsize::new(n),
            sealer: AesGcm128::new(&key),
            nonce_ctr: AtomicU64::new(1),
            read_misses: AtomicU64::new(0),
            local: LocalStats::default(),
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
        self.pt.len()
    }

    /// Number of pages with seal metadata (diagnostics).
    #[must_use]
    pub fn debug_seal_entries(&self) -> usize {
        self.store.seals.live_entries()
    }

    /// Detached victims waiting for a batched write-back drain.
    #[must_use]
    pub fn writeback_queue_len(&self) -> usize {
        self.wb.lock().len()
    }

    /// This instance's fault/eviction counters (machine-wide stats mix
    /// all instances together).
    #[must_use]
    pub fn local_stats(&self) -> LocalSnapshot {
        LocalSnapshot {
            major_faults: self.local.major_faults.load(Ordering::Relaxed),
            evictions: self.local.evictions.load(Ordering::Relaxed),
            clean_skips: self.local.clean_skips.load(Ordering::Relaxed),
        }
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
        // (if unpinned) and forget seal state, so the space is really
        // reclaimed.
        let ps = self.cfg.page_size as u64;
        let first = sva.div_ceil(ps);
        let last = (sva + size) / ps;
        for page in first..last {
            self.pt.with_bucket(page, |b| {
                if let Some(idx) = b.iter().position(|(p, _)| *p == page) {
                    let frame = b[idx].1;
                    if self.frames[frame as usize].pinned.load(Ordering::Acquire) == 0 {
                        b.swap_remove(idx);
                        self.vacate(frame);
                    }
                }
            });
            self.store.seals.clear(page);
        }
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

    /// Checks the structural invariants between the inverse page
    /// table, the frame metadata, the free list and the write-back
    /// queue. Intended for tests at quiescent points (no concurrent
    /// mutators).
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn check_consistency(&self) {
        let mut mapped = 0usize;
        for (frame, meta) in self.frames.iter().enumerate() {
            let page = meta.page.load(Ordering::Acquire);
            if page == NO_PAGE {
                assert!(
                    !meta.queued.load(Ordering::Acquire),
                    "unmapped frame {frame} sits on the write-back queue"
                );
                continue;
            }
            mapped += 1;
            assert_eq!(
                self.pt.lookup(page),
                Some(frame as u32),
                "frame {frame} claims page {page} but the inverse PT disagrees"
            );
        }
        assert_eq!(
            self.pt.len(),
            mapped,
            "inverse PT holds entries no frame claims"
        );
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
        for &(frame, page) in self.wb.lock().iter() {
            // Stale entries (rescued or decommitted since detach) are
            // legal — drains skip them — but a *live* entry must point
            // at a still-mapped, genuinely queued frame.
            if self.frames[frame as usize].queued.load(Ordering::Acquire) {
                assert_eq!(
                    self.frames[frame as usize].page.load(Ordering::Acquire),
                    page,
                    "queued frame {frame} no longer holds page {page}"
                );
            }
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
