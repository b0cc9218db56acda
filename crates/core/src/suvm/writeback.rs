//! How a frame leaves EPC++ — the one release path, [`Suvm::vacate`],
//! [`Suvm::retire`] and [`Suvm::park`] (`docs/suvm-paging.md` maps its
//! callers) — and batched asynchronous write-back (`wb_batch > 0`).
//!
//! Inline eviction pays the full seal on the serving core, on every
//! fault that needs a frame. In batched mode the fault path only
//! *detaches* victims: clean pages are freed outright (the §3.2.4
//! elision), dirty ones are flagged `queued` and parked — still mapped
//! — on a FIFO write-back queue. The swapper drains the queue off the
//! serving core in batches; the whole drain is charged as **one**
//! batch via `ThreadCtx::charge_crypto` — the same
//! amortization contract the wire pipeline uses (the first seal op pays
//! the full `crypto_fixed` setup, follow-ons a quarter; no private
//! amortization lives here), where an inline eviction is one batch per
//! page. When the free pool runs dry before the swapper gets there,
//! [`Suvm::drain_writeback`] doubles as the synchronous fallback.
//!
//! ## Queue entry lifecycle
//!
//! A queue entry `(frame, page)` is a *hint*, not ownership. The drain
//! re-validates under the page's bucket lock: the mapping must still be
//! `(page, frame)`, the frame unpinned, and `queued.swap(false)` must
//! return `true`. Any pin in between rescues the frame —
//! [`Suvm::try_pin`] clears `queued` under the same bucket lock — so a
//! successful swap proves no access (hence no write) happened since
//! detach and the drain's seal captures the right bytes. Entries
//! invalidated by a rescue, a `free()` decommit, a balloon resize or an
//! inline `evict_one` simply fail validation and are skipped.

use super::*;

impl Suvm {
    /// Returns an unmapped `frame` to the pool: no page, no flags, no
    /// reference bit, on the free list.
    pub(super) fn vacate(&self, frame: u32) {
        let meta = &self.frames[frame as usize];
        meta.page.store(NO_PAGE, Ordering::Release);
        meta.dirty.store(false, Ordering::Release);
        meta.queued.store(false, Ordering::Release);
        self.hand.forget(frame);
        self.push_free(frame);
    }

    /// Finishes the eviction of `page` from `frame` once a claim has
    /// unmapped it: seals it out (`seal`, the claim having begun the
    /// seal write) or drops it clean, vacates the frame and counts the
    /// eviction. Returns the seal lengths for the caller to charge.
    pub(super) fn retire(
        &self,
        ctx: &mut ThreadCtx,
        frame: u32,
        page: u64,
        seal: bool,
    ) -> Vec<usize> {
        let lens = if seal {
            self.seal_page_raw(ctx, page, frame)
        } else {
            // Clean page with a valid sealed copy: discard without the
            // write-back (§3.2.4). SGX's EWB cannot do this.
            Stats::bump(&self.machine.stats.suvm_clean_skips);
            self.local.clean_skips.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        };
        self.vacate(frame);
        Stats::bump(&self.machine.stats.suvm_evictions);
        self.local.evictions.fetch_add(1, Ordering::Relaxed);
        self.machine.trace.record(
            ctx.now(),
            eleos_sim::trace::Event::SuvmEvict {
                page,
                clean_skip: !seal,
            },
        );
        lens
    }

    /// Scans for up to `max` victims on the fault path, freeing clean
    /// ones immediately and parking dirty ones on the write-back
    /// queue. Returns `(freed, queued)`.
    pub(super) fn detach_victims(&self, ctx: &mut ThreadCtx, max: usize) -> (usize, usize) {
        debug_assert!(max > 0, "a detach pass takes at least one victim");
        let (mut freed, mut queued) = (0usize, 0usize);
        self.scan_victims(true, |frame, page| {
            // Clean pages short-circuit: same unmap-and-discard as
            // inline eviction, no queue round-trip.
            let clean = !self.frames[frame as usize].dirty.load(Ordering::Acquire)
                && self.cfg.clean_skip
                && self.store.seals.has_copy(page);
            if clean {
                freed += usize::from(self.try_evict_frame(ctx, frame, page));
            } else {
                queued += usize::from(self.park(frame, page));
            }
            freed + queued >= max
        });
        (freed, queued)
    }

    /// Parks dirty `frame` on the write-back queue, still holding
    /// `page`: a reader hitting the page before the drain rescues it
    /// instead of re-faulting. Returns `false`, parking nothing, when
    /// the mapping changed, the frame is pinned or it is parked
    /// already. The flag flips under the bucket lock, so a concurrent
    /// rescue cannot race it.
    fn park(&self, frame: u32, page: u64) -> bool {
        let meta = &self.frames[frame as usize];
        let parked = self.pt.with_bucket(page, |b| {
            b.iter().any(|(p, f)| *p == page && *f == frame)
                && meta.pinned.load(Ordering::Acquire) == 0
                && !meta.queued.swap(true, Ordering::AcqRel)
        });
        if parked {
            let depth = {
                let mut wb = self.wb.lock();
                wb.push_back((frame, page));
                wb.len() as u64
            };
            Stats::bump(&self.machine.stats.suvm_wb_queued);
            Stats::peak(&self.machine.stats.suvm_wb_queue_peak, depth);
        }
        parked
    }

    /// Drains up to `max` queued victims in one batch, sealing each
    /// still-valid entry and freeing its frame. Returns the number of
    /// pages sealed.
    ///
    /// Called by the swapper (off the serving core) and, as the
    /// synchronous fallback, by the fault path when the free pool is
    /// empty. The GCM key schedule is set up once per batch: the first
    /// sealed page pays the full `crypto_fixed`, follow-on pages a
    /// quarter.
    pub fn drain_writeback(&self, ctx: &mut ThreadCtx, max: usize) -> usize {
        let batch: Vec<(u32, u64)> = {
            let mut wb = self.wb.lock();
            let take = wb.len().min(max.max(1));
            wb.drain(..take).collect()
        };
        if batch.is_empty() {
            return 0;
        }
        let mut sealed = 0usize;
        let mut seal_lens: Vec<usize> = Vec::new();
        for (frame, page) in batch {
            let meta = &self.frames[frame as usize];
            let claimed = self.pt.with_bucket(page, |b| {
                let Some(idx) = b.iter().position(|(p, f)| *p == page && *f == frame) else {
                    return false;
                };
                if meta.pinned.load(Ordering::Acquire) > 0 {
                    return false;
                }
                if !meta.queued.swap(false, Ordering::AcqRel) {
                    // Rescued (and possibly re-parked later — that
                    // newer entry is still in the queue).
                    return false;
                }
                // As in `try_evict_frame`: the seal write is taken
                // before the page leaves the table. If a write-through
                // holds it the frame stays mapped, dirty and unparked,
                // like a rescued one.
                if !self.store.seals.try_begin_write(page) {
                    return false;
                }
                b.swap_remove(idx);
                true
            });
            if claimed {
                seal_lens.extend(self.retire(ctx, frame, page, true));
                sealed += 1;
            }
        }
        // One amortized charge for the whole drain: the batch leader
        // pays the full setup, follow-ons a quarter.
        ctx.charge_crypto(&self.sealer, seal_lens);
        if sealed > 0 {
            Stats::bump(&self.machine.stats.suvm_wb_batches);
            Stats::add(&self.machine.stats.suvm_wb_pages, sealed as u64);
        }
        sealed
    }

    /// Quiesces the instance at a fence: parks every dirty resident
    /// page on the write-back queue and drains the queue to the sealed
    /// backing store. On return every page's authoritative copy lives
    /// sealed in the backing store (the cache is cold — quiesce is a
    /// snapshot fence, not a hot-path operation) and a state capture
    /// reading through the store sees all writes. Returns the number
    /// of pages sealed.
    ///
    /// # Panics
    /// Panics when a dirty frame is still pinned — a fence means no
    /// in-flight mutators, so a live pin is an orchestration bug.
    pub fn quiesce(&self, ctx: &mut ThreadCtx) -> usize {
        for (idx, meta) in self.frames.iter().enumerate() {
            let frame = idx as u32;
            let page = meta.page.load(Ordering::Acquire);
            if page == NO_PAGE || !meta.dirty.load(Ordering::Acquire) {
                continue;
            }
            assert_eq!(
                meta.pinned.load(Ordering::Acquire),
                0,
                "quiesce at a fence found a pinned dirty frame {frame} (page {page})"
            );
            self.park(frame, page);
        }
        let mut sealed = 0;
        loop {
            let depth = self.wb.lock().len();
            if depth == 0 {
                return sealed;
            }
            sealed += self.drain_writeback(ctx, depth);
        }
    }
}
