//! SUVM fault handling and eviction (split from the main module).
use super::*;

impl Suvm {
    // ------------------------------------------------------------------
    // Fault handling (§3.2.2): all in-enclave, no exits.
    // ------------------------------------------------------------------

    /// Looks up `page`, faulting it in if needed, and pins it. Returns
    /// `(frame, was_resident)`.
    pub(crate) fn fault_in_and_pin(&self, ctx: &mut ThreadCtx, page: u64) -> (u32, bool) {
        assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
        ctx.compute(self.machine.cfg.costs.suvm_lookup);
        match self.try_pin(page) {
            Some(frame) => (frame, true),
            None => self.fault_in(ctx, page),
        }
    }

    /// The major fault behind a lookup that missed: acquires a frame,
    /// loads `page` into it, publishes and pins it. Returns like
    /// [`Self::fault_in_and_pin`].
    pub(super) fn fault_in(&self, ctx: &mut ThreadCtx, page: u64) -> (u32, bool) {
        Stats::bump(&self.machine.stats.suvm_major_faults);
        self.major_faults.fetch_add(1, Ordering::Relaxed);
        self.charge_metadata_pressure(ctx);
        self.machine.trace.record(
            ctx.now(),
            eleos_sim::trace::Event::SuvmFault {
                core: ctx.core.id,
                page,
            },
        );
        loop {
            let frame = self.acquire_frame(ctx);
            if let Some(version) = self.load_page_in(ctx, page, frame) {
                if self.publish(page, version, frame) {
                    return (frame, false);
                }
            }
            // Lost to a re-seal of the page, or to another fault-in of
            // it: recycle the frame and pin the winner's, or load again.
            self.push_free(frame);
            if let Some(frame) = self.try_pin(page) {
                return (frame, true);
            }
        }
    }

    /// Makes `frame`, loaded with `page`'s image at seal `version`, the
    /// page's frame, pinned once. It does so only while the page has no
    /// frame and `version` still stands: a write-through takes the odd
    /// version under the same lock, so one that began after the load
    /// holds a newer image than `frame`. Returns whether it published.
    pub(super) fn publish(&self, page: u64, version: u64, frame: u32) -> bool {
        self.store.seals.with(page, |e| {
            if e.frame.is_some() || e.version != version {
                return false;
            }
            e.frame = Some(frame);
            let meta = &self.frames[frame as usize];
            meta.page.store(page, Ordering::Release);
            meta.pinned.store(1, Ordering::Release);
            meta.dirty.store(false, Ordering::Release);
            self.hand.touch(frame);
            true
        })
    }

    /// The §4.1/§4.2 effect: SUVM metadata lives in EPC and is paged
    /// by the hardware when it outgrows the enclave's headroom. Each
    /// fault touches ~2 metadata entries at random; the expected
    /// hardware-fault cost of those touches is charged here.
    fn charge_metadata_pressure(&self, ctx: &mut ThreadCtx) {
        // ~44 B per sealed page (nonce, tag, version, hash slot) plus
        // 16 B per EPC++ frame mapping.
        let meta = self.store.seals.live_entries() * 44 + self.frames.len() * 16;
        let headroom = self.cfg.headroom_bytes.max(1);
        if meta <= headroom {
            return;
        }
        let miss_p = 1.0 - headroom as f64 / meta as f64;
        let costs = &self.machine.cfg.costs;
        let per_fault = (costs.exit_roundtrip()
            + costs.hw_fault_dispatch
            + (costs.hw_evict_page + costs.hw_load_page) / 2) as f64;
        ctx.compute((miss_p * 2.0 * per_fault) as u64);
    }

    /// Pins `page`'s frame if resident. Pin 0→1 only happens under the
    /// page's table lock, which is what makes eviction's
    /// "unpinned ⇒ evictable" check race-free.
    pub(super) fn try_pin(&self, page: u64) -> Option<u32> {
        self.store
            .seals
            .with(page, |e| e.frame.map(|f| self.pin(f)))
    }

    /// Pins `frame`, found as its page's frame under the page's table
    /// lock, and counts the hit.
    pub(super) fn pin(&self, frame: u32) -> u32 {
        self.frames[frame as usize]
            .pinned
            .fetch_add(1, Ordering::AcqRel);
        Stats::bump(&self.machine.stats.suvm_hits);
        self.hand.touch(frame);
        frame
    }

    /// Unpins a frame previously pinned by [`Self::fault_in_and_pin`].
    pub(crate) fn unpin(&self, frame: u32) {
        let old = self.frames[frame as usize]
            .pinned
            .fetch_sub(1, Ordering::AcqRel);
        debug_assert!(old > 0, "unpin of unpinned frame");
    }

    /// Marks a pinned frame dirty (write access). On its clean → dirty
    /// transition the page's sealed copy, if it has one, is stale: the
    /// next eviction overwrites it unread. So the copy is dropped and its
    /// backing bytes go back to the untrusted memory's pool; the entry
    /// keeps its version and its read-miss stamps.
    pub(crate) fn mark_dirty(&self, frame: u32) {
        let meta = &self.frames[frame as usize];
        if meta.dirty.load(Ordering::Acquire) || meta.dirty.swap(true, Ordering::AcqRel) {
            return;
        }
        // Pinned by the caller: the page cannot change under us.
        let page = meta.page.load(Ordering::Acquire);
        if self.store.seals.with(page, |e| e.copy.take()).is_some() {
            self.machine
                .untrusted
                .release(self.store.addr_of(page, 0), self.cfg.page_size);
        }
    }

    pub(super) fn acquire_frame(&self, ctx: &mut ThreadCtx) -> u32 {
        loop {
            if let Some(f) = self.free.lock().pop() {
                if (f as usize) < self.limit.load(Ordering::Acquire) {
                    return f;
                }
                continue; // Ballooned away; drop it.
            }
            assert!(
                self.evict_one(ctx),
                "EPC++ exhausted: every frame is pinned (too many live linked spointers)"
            );
        }
    }

    /// Evicts one page per the configured [`crate::EvictPolicy`],
    /// sealing it out inline if dirty. Scans *all* frames (including
    /// ballooned-away ones, so a shrink eventually drains stragglers).
    /// Returns `false` if nothing was evictable.
    ///
    /// Part of the expert tuning surface (§3): experiments use it to
    /// drain EPC++ deterministically.
    pub fn evict_one(&self, ctx: &mut ThreadCtx) -> bool {
        self.scan_victims(|frame, page| self.try_evict_frame(ctx, frame, page))
    }

    /// The bounded victim scan: advances the hand up to `2n + 1` times,
    /// skips pinned and empty frames, honors CLOCK's second chance on
    /// the first lap only — a full fruitless revolution must still
    /// evict — and hands each surviving `(frame, page)` to `take` until
    /// it returns `true`. Returns whether `take` ended the scan.
    fn scan_victims(&self, mut take: impl FnMut(u32, u64) -> bool) -> bool {
        let n = self.frames.len();
        for step in 0..2 * n + 1 {
            let idx = self.hand.advance();
            let meta = &self.frames[idx];
            if meta.pinned.load(Ordering::Acquire) > 0 {
                continue;
            }
            let page = meta.page.load(Ordering::Acquire);
            if page == NO_PAGE {
                continue;
            }
            if step < n && self.hand.spare(idx as u32) {
                continue;
            }
            if take(idx as u32, page) {
                return true;
            }
        }
        false
    }

    /// Unmaps `page` from `frame` and seals it out (or drops it when
    /// clean). Returns `false` if the mapping changed or is pinned.
    pub(super) fn try_evict_frame(&self, ctx: &mut ThreadCtx, frame: u32, page: u64) -> bool {
        let Some(seal) = self.claim(frame, page) else {
            return false;
        };
        // An inline eviction seals its page's units as one batch (in a
        // serve round, as more of the round's SUVM batch).
        let lens = self.retire(ctx, frame, page, seal);
        ctx.charge_crypto(&self.sealer, lens);
        true
    }

    /// Seals `frame`'s contents into the backing store as `page` and
    /// returns the byte length of each seal operation performed (one
    /// per sub-page).
    ///
    /// This is the *functional* half of an eviction: no crypto cycles
    /// are charged here. Callers feed the returned lengths to
    /// [`ThreadCtx::charge_crypto`] — an inline eviction as
    /// one batch for its page, a quiesce as one batch across all the
    /// pages it sealed.
    ///
    /// The seal version brackets the (ciphertext, metadata) update so
    /// concurrent readers never mistake a torn pair for tampering. The
    /// caller took the odd version when it unmapped the page
    /// ([`Self::claim`]); this commits it.
    pub(super) fn seal_page_raw(&self, ctx: &mut ThreadCtx, page: u64, frame: u32) -> Vec<usize> {
        let ps = self.cfg.page_size;
        let mut buf = vec![0u8; ps];
        ctx.read_enclave_raw(self.epcpp_vaddr(frame, 0), &mut buf);
        let sp = self.cfg.sub_page_size;
        let aads: Vec<[u8; 12]> = (0..ps / sp).map(|s| Self::aad(page, s as u32)).collect();
        let mut jobs: Vec<SealJob<'_>> = buf
            .chunks_mut(sp)
            .zip(&aads)
            .map(|(data, aad)| SealJob {
                nonce: self.next_nonce(),
                aad,
                data,
            })
            .collect();
        let tags = self.sealer.seal_batch(&mut jobs);
        let meta: Box<[_]> = jobs.iter().map(|j| j.nonce).zip(tags).collect();
        drop(jobs);
        let lens = vec![sp; meta.len()];
        ctx.write_untrusted_raw(self.store.addr_of(page, 0), &buf);
        self.store.seals.commit(page, meta);
        Stats::add(&self.machine.stats.sealed_bytes, ps as u64);
        lens
    }

    /// Loads `page` into `frame` (not yet visible in the page table):
    /// its sealed copy, or zeros when it has none. Returns the seal
    /// version the image was loaded at, or `None` when the unseal raced
    /// a re-seal of the page or the loss of its copy, and the fault must
    /// be retried.
    ///
    /// # Panics
    /// Panics when the sealed copy fails authentication at a version
    /// that still stands — genuine tampering with untrusted memory.
    pub(super) fn load_page_in(&self, ctx: &mut ThreadCtx, page: u64, frame: u32) -> Option<u64> {
        let ps = self.cfg.page_size;
        let (version, copy) = self
            .store
            .seals
            .stable(page, |e| (e.version, e.copy.clone()));
        let Some(meta) = copy else {
            let zeros = vec![0u8; ps];
            ctx.write_enclave_raw(self.epcpp_vaddr(frame, 0), &zeros);
            // Fast zero-fill: ~32 bytes/cycle.
            ctx.compute(ps as u64 / 32);
            return Some(version);
        };
        let sp = self.cfg.sub_page_size;
        let mut buf = vec![0u8; ps];
        ctx.read_untrusted_raw(self.store.addr_of(page, 0), &mut buf);
        let aads: Vec<[u8; 12]> = (0..meta.len()).map(|s| Self::aad(page, s as u32)).collect();
        let mut jobs: Vec<OpenJob<'_>> = buf
            .chunks_mut(sp)
            .zip(meta.iter().zip(&aads))
            .map(|(data, (&(nonce, tag), aad))| OpenJob {
                nonce,
                aad,
                data,
                tag,
            })
            .collect();
        if self.sealer.open_batch(&mut jobs).is_err() {
            if !self.store.seals.sealed_at(page, version) {
                return None;
            }
            panic!("SUVM sub-page failed authentication: backing store tampered");
        }
        drop(jobs);
        ctx.charge_crypto(&self.sealer, vec![sp; meta.len()]);
        ctx.write_enclave_raw(self.epcpp_vaddr(frame, 0), &buf);
        Stats::add(&self.machine.stats.sealed_bytes, ps as u64);
        Some(version)
    }
}
