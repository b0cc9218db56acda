//! How a frame leaves EPC++ — the one release path: a claim unmaps the
//! page under its table lock ([`Suvm::claim`]), [`Suvm::retire`] seals
//! it out or drops it clean, and [`Suvm::vacate`] returns the frame to
//! the pool (`docs/suvm-paging.md` maps its callers) — and the fence
//! that sends every dirty page home, [`Suvm::quiesce`].

use super::*;

impl Suvm {
    /// Returns an unmapped `frame` to the pool: no page, clean, no
    /// reference bit, on the free list.
    pub(super) fn vacate(&self, frame: u32) {
        let meta = &self.frames[frame as usize];
        meta.page.store(NO_PAGE, Ordering::Release);
        meta.dirty.store(false, Ordering::Release);
        self.hand.forget(frame);
        self.push_free(frame);
    }

    /// Unmaps `page` from unpinned `frame` under the page's table
    /// lock. Returns whether the page must be sealed out, or `None`,
    /// unmapping nothing, when the mapping changed or the frame is
    /// pinned.
    pub(super) fn claim(&self, frame: u32, page: u64) -> Option<bool> {
        let meta = &self.frames[frame as usize];
        self.store.seals.with(page, |e| {
            if e.frame != Some(frame) || meta.pinned.load(Ordering::Acquire) > 0 {
                return None;
            }
            // Unpinned under the page's lock: nobody is writing the
            // frame, so its dirty flag is final. A clean page with a
            // valid sealed copy is dropped without the write-back.
            let seal =
                meta.dirty.load(Ordering::Acquire) || e.copy.is_none() || !self.cfg.clean_skip;
            // A page that will be sealed takes its odd seal version as
            // it leaves the table: whoever misses on it from here on
            // waits out the seal and reads the new image, never the one
            // this eviction is about to replace. A resident page's
            // version is even: no seal runs while it has a frame.
            if seal {
                debug_assert!(
                    e.version.is_multiple_of(2),
                    "a resident page is being sealed"
                );
                e.version += 1;
            }
            e.frame = None;
            Some(seal)
        })
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
            Vec::new()
        };
        self.vacate(frame);
        Stats::bump(&self.machine.stats.suvm_evictions);
        self.machine.trace.record(
            ctx.now(),
            eleos_sim::trace::Event::SuvmEvict {
                page,
                clean_skip: !seal,
            },
        );
        lens
    }

    /// Quiesces the instance at a fence: claims every dirty resident
    /// frame, in frame order, as an eviction claims its victim, and
    /// seals each page out. The seals are billed as **one** crypto
    /// batch and counted in `suvm_wb_pages`. On return every page's
    /// authoritative copy lives sealed in the backing store — the dirty
    /// pages have left EPC++, the clean ones stay — so a state capture
    /// reading through the store sees all writes. Returns the number of
    /// pages sealed.
    ///
    /// # Panics
    /// Panics when a dirty frame is still pinned — a fence means no
    /// in-flight mutators, so a live pin is an orchestration bug.
    pub fn quiesce(&self, ctx: &mut ThreadCtx) -> usize {
        let mut sealed = 0usize;
        let mut seal_lens: Vec<usize> = Vec::new();
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
            if let Some(seal) = self.claim(frame, page) {
                seal_lens.extend(self.retire(ctx, frame, page, seal));
                sealed += 1;
            }
        }
        ctx.charge_crypto(&self.sealer, seal_lens);
        Stats::add(&self.machine.stats.suvm_wb_pages, sealed as u64);
        sealed
    }
}
