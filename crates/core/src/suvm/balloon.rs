//! EPC++ resizing and the ballooning swapper tick (§3.3).
use super::*;

impl Suvm {
    // ------------------------------------------------------------------
    // Ballooning / swapper (§3.3).
    // ------------------------------------------------------------------

    /// Resizes EPC++ to `new_frames`, evicting pages cached in frames
    /// beyond the new limit. Growing is immediate.
    pub fn resize(&self, ctx: &mut ThreadCtx, new_frames: usize) {
        let new = new_frames.clamp(2, self.frames.len());
        let old = self.limit.load(Ordering::Acquire);
        if new == old {
            return;
        }
        if new > old {
            self.limit.store(new, Ordering::Release);
            let mut free = self.free.lock();
            for f in old..new {
                if self.frames[f].page.load(Ordering::Acquire) == NO_PAGE {
                    free.push(f as u32);
                }
            }
            return;
        }
        // Shrink: publish the limit first so the frames stop being
        // handed out, then drain them.
        self.limit.store(new, Ordering::Release);
        self.free.lock().retain(|&f| (f as usize) < new);
        for f in new..old {
            let meta = &self.frames[f];
            for _ in 0..1000 {
                let page = meta.page.load(Ordering::Acquire);
                if page == NO_PAGE {
                    break;
                }
                if self.try_evict_frame(ctx, f as u32, page) {
                    // try_evict_frame pushed it to the free list, but
                    // push_free filtered it out (>= limit): done.
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// The free-frame count the swapper maintains: the configured
    /// watermark, clamped to half the current pool (as `SgxDriver`
    /// clamps its own) so a ballooned-down or small EPC++ is never
    /// emptied to refill it.
    pub(super) fn free_target(&self) -> usize {
        self.cfg.free_watermark.min(self.frame_limit() / 2)
    }

    /// One swapper pass (§3.2.3 cases 2 and 3): applies the driver's
    /// ballooning target, then refills the free pool to the watermark.
    pub fn swapper_tick(&self, ctx: &mut ThreadCtx) {
        assert!(ctx.in_enclave(), "the swapper enters the enclave");
        // Ballooning: size EPC++ to our PRM share minus headroom.
        let share_frames_4k = self.machine.driver.available_epc();
        let share_bytes = share_frames_4k * eleos_sim::costs::PAGE_SIZE;
        let budget = share_bytes.saturating_sub(self.cfg.headroom_bytes);
        let target = (budget / self.cfg.page_size).clamp(2, self.frames.len());
        self.resize(ctx, target);
        let want = self.free_target();
        while self.free.lock().len() < want {
            if !self.evict_one(ctx) {
                break;
            }
        }
    }
}
