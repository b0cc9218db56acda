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
        self.local.major_faults.fetch_add(1, Ordering::Relaxed);
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
            if !self.load_page_in(ctx, page, frame) {
                // Raced a concurrent re-seal of this page; retry.
                self.push_free(frame);
                if let Some(frame) = self.try_pin(page) {
                    return (frame, true);
                }
                continue;
            }
            // Publish, unless somebody beat us to it.
            let won = self.pt.with_bucket(page, |b| {
                if b.iter().any(|(p, _)| *p == page) {
                    return false;
                }
                let meta = &self.frames[frame as usize];
                debug_assert!(
                    !meta.queued.load(Ordering::Acquire),
                    "free frame still on the write-back queue"
                );
                meta.page.store(page, Ordering::Release);
                meta.pinned.store(1, Ordering::Release);
                meta.dirty.store(false, Ordering::Release);
                self.hand.touch(frame);
                b.push((page, frame));
                true
            });
            if won {
                return (frame, false);
            }
            // Lost the race: recycle our frame and pin the winner's.
            self.push_free(frame);
            if let Some(frame) = self.try_pin(page) {
                return (frame, true);
            }
            // The winner's frame was evicted already; try again.
        }
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
    /// page's bucket lock, which is what makes eviction's
    /// "unpinned ⇒ evictable" check race-free.
    ///
    /// A pin also *rescues* a frame parked on the write-back queue:
    /// clearing `queued` here (under the same bucket lock the drain
    /// validates under) guarantees a drain never seals a frame that
    /// was re-pinned — and possibly re-written — after detach.
    pub(super) fn try_pin(&self, page: u64) -> Option<u32> {
        self.pt.with_bucket(page, |b| {
            b.iter().find(|(p, _)| *p == page).map(|&(_, frame)| {
                let meta = &self.frames[frame as usize];
                meta.pinned.fetch_add(1, Ordering::AcqRel);
                if meta.queued.swap(false, Ordering::AcqRel) {
                    Stats::bump(&self.machine.stats.suvm_wb_rescues);
                }
                Stats::bump(&self.machine.stats.suvm_hits);
                self.hand.touch(frame);
                frame
            })
        })
    }

    /// Unpins a frame previously pinned by [`Self::fault_in_and_pin`].
    pub(crate) fn unpin(&self, frame: u32) {
        let old = self.frames[frame as usize]
            .pinned
            .fetch_sub(1, Ordering::AcqRel);
        debug_assert!(old > 0, "unpin of unpinned frame");
    }

    /// Marks a pinned frame dirty (write access).
    pub(crate) fn mark_dirty(&self, frame: u32) {
        self.frames[frame as usize]
            .dirty
            .store(true, Ordering::Release);
    }

    fn acquire_frame(&self, ctx: &mut ThreadCtx) -> u32 {
        loop {
            if let Some(f) = self.free.lock().pop() {
                if (f as usize) < self.limit.load(Ordering::Acquire) {
                    return f;
                }
                continue; // Ballooned away; drop it.
            }
            if self.cfg.wb_batch > 0 {
                // Batched mode: detaching is cheap on this path —
                // clean victims are freed outright, dirty ones only
                // parked on the write-back queue. When detaching frees
                // nothing the queue holds everything evictable, so
                // fall back to a synchronous batched drain.
                let (freed, _queued) = self.detach_victims(ctx, self.cfg.wb_batch);
                if freed > 0 {
                    continue;
                }
                if self.drain_writeback(ctx, self.cfg.wb_batch) > 0 {
                    continue;
                }
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
    /// drain EPC++ deterministically. Under batched write-back this is
    /// the deterministic drain tool — it happily evicts queued frames
    /// too (the stale queue entry is skipped at drain time).
    pub fn evict_one(&self, ctx: &mut ThreadCtx) -> bool {
        self.scan_victims(false, |frame, page| self.try_evict_frame(ctx, frame, page))
    }

    /// The bounded victim scan: advances the hand up to `2n + 1` times,
    /// skips pinned and empty frames (and, with `skip_queued`, frames
    /// already parked on the write-back queue), honors CLOCK's second
    /// chance on the first lap only — a full fruitless revolution must
    /// still evict — and hands each surviving `(frame, page)` to `take`
    /// until it returns `true`. Returns whether `take` ended the scan.
    pub(super) fn scan_victims(
        &self,
        skip_queued: bool,
        mut take: impl FnMut(u32, u64) -> bool,
    ) -> bool {
        let n = self.frames.len();
        for step in 0..2 * n + 1 {
            let idx = self.hand.advance();
            let meta = &self.frames[idx];
            if meta.pinned.load(Ordering::Acquire) > 0
                || (skip_queued && meta.queued.load(Ordering::Acquire))
            {
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
        let meta = &self.frames[frame as usize];
        let mut seal = false;
        let unmapped = self.pt.with_bucket(page, |b| {
            let Some(idx) = b.iter().position(|(p, f)| *p == page && *f == frame) else {
                return false;
            };
            if meta.pinned.load(Ordering::Acquire) > 0 {
                return false;
            }
            // Unpinned under the bucket lock: nobody is writing the
            // frame, so its dirty flag is final. A clean page with a
            // valid sealed copy is dropped without the write-back.
            seal = meta.dirty.load(Ordering::Acquire)
                || !self.store.seals.has_copy(page)
                || !self.cfg.clean_skip;
            // A page that will be sealed takes its seal write *before*
            // it leaves the table: whoever misses on it from here on
            // waits out the odd version and reads the new image, never
            // the one this eviction is about to replace. No spinning
            // under the bucket lock — if a write-through holds the
            // seal, this victim is passed over.
            if seal && !self.store.seals.try_begin_write(page) {
                return false;
            }
            b.swap_remove(idx);
            true
        });
        if !unmapped {
            return false;
        }
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
    /// one batch for its page, the write-back drain as one batch
    /// across all the pages it sealed.
    ///
    /// The crypto-metadata seqlock brackets the (ciphertext, metadata)
    /// update so concurrent readers never mistake a torn pair for
    /// tampering. The caller began the write (`try_begin_write`) when
    /// it unmapped the page; this commits it.
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
        let state = SealState::SubPages { meta };
        ctx.write_untrusted_raw(self.store.addr_of(page, 0), &buf);
        self.store.seals.commit_write(page, state);
        Stats::add(&self.machine.stats.sealed_bytes, ps as u64);
        lens
    }

    /// Loads `page` into `frame` (not yet visible in the page table).
    /// Returns `false` when the unseal raced a concurrent re-seal of
    /// the same page and must be retried.
    ///
    /// # Panics
    /// Panics when the sealed copy fails authentication at a *stable*
    /// metadata version — genuine tampering with untrusted memory.
    fn load_page_in(&self, ctx: &mut ThreadCtx, page: u64, frame: u32) -> bool {
        let ps = self.cfg.page_size;
        let (version, state) = self.store.seals.read(page);
        match state {
            SealState::Fresh => {
                let zeros = vec![0u8; ps];
                ctx.write_enclave_raw(self.epcpp_vaddr(frame, 0), &zeros);
                // Fast zero-fill: ~32 bytes/cycle.
                ctx.compute(ps as u64 / 32);
                true
            }
            SealState::SubPages { meta } => {
                let sp = self.cfg.sub_page_size;
                let mut buf = vec![0u8; ps];
                ctx.read_untrusted_raw(self.store.addr_of(page, 0), &mut buf);
                let aads: Vec<[u8; 12]> =
                    (0..meta.len()).map(|s| Self::aad(page, s as u32)).collect();
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
                    if !self.store.seals.check(page, version) {
                        return false;
                    }
                    panic!("SUVM sub-page failed authentication: backing store tampered");
                }
                drop(jobs);
                ctx.charge_crypto(&self.sealer, vec![sp; meta.len()]);
                ctx.write_enclave_raw(self.epcpp_vaddr(frame, 0), &buf);
                Stats::add(&self.machine.stats.sealed_bytes, ps as u64);
                true
            }
        }
    }
}
