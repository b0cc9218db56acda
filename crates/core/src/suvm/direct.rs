//! Direct sub-page backing-store access (§3.2.4).
use super::span::Access;
use super::*;
use eleos_enclave::thread::CryptoBatch;

impl Suvm {
    // ------------------------------------------------------------------
    // Direct sub-page access (§3.2.4).
    // ------------------------------------------------------------------

    /// Reads `[sva, sva+buf.len())` directly from the backing store at
    /// sub-page granularity, bypassing EPC++ for non-resident pages —
    /// a one-shot [`Access::Direct`] cursor.
    pub fn read_direct(&self, ctx: &mut ThreadCtx, sva: Sva, buf: &mut [u8]) {
        self.span(sva, Access::Direct).read(ctx, buf);
    }

    /// Writes by residency — what [`Access::Direct`] and
    /// [`Access::Adaptive`] both mean for a write. A resident page is
    /// written in EPC++; a page sealed as sub-pages is written through
    /// to the backing store (read-modify-write of each touched
    /// sub-page, resealed with a fresh nonce); a page with no such
    /// copy is faulted in and written there, like [`Self::write`]. The
    /// call's opens and re-seals are billed as one crypto batch (in a
    /// serve round, as the round's SUVM batch). A
    /// write never counts as reuse of its page: a store overwriting a
    /// record reads its key first, and would promote every cold page.
    pub fn write_direct(&self, ctx: &mut ThreadCtx, sva: Sva, data: &[u8]) {
        assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
        let ps = self.cfg.page_size;
        let sp = self.cfg.sub_page_size;
        let (mut off, mut batch) = (0usize, CryptoBatch::default());
        while off < data.len() {
            let addr = sva + off as u64;
            let page = self.page_of(addr);
            let in_page = (addr % ps as u64) as usize;
            let n = (ps - in_page).min(data.len() - off);
            ctx.compute(self.machine.cfg.costs.suvm_lookup);
            let cached = match self.try_pin(page) {
                None if !self.bypasses(page, Access::Direct) => Some(self.fault_in(ctx, page).0),
                pinned => pinned,
            };
            if let Some(frame) = cached {
                ctx.write_enclave(self.epcpp_vaddr(frame, in_page), &data[off..off + n]);
                self.mark_dirty(frame);
                self.unpin(frame);
                off += n;
                continue;
            }
            // Exclusive writer for this page's sealed image from here
            // to the commit.
            self.store.seals.begin_write(page);
            let SealState::SubPages { mut meta } = self.store.seals.get_unchecked(page) else {
                // Decommitted since the residency check: start over.
                self.store.seals.commit_write(page, SealState::Fresh);
                continue;
            };
            Stats::bump(&self.machine.stats.suvm_direct_accesses);
            let mut scratch = vec![0u8; sp];
            for s in in_page / sp..=(in_page + n - 1) / sp {
                let (nonce, tag) = meta[s];
                let aad = Self::aad(page, s as u32);
                ctx.read_untrusted(self.store.addr_of(page, s * sp), &mut scratch);
                self.sealer
                    .open(&nonce, &aad, &mut scratch, &tag)
                    .expect("SUVM sub-page failed authentication");
                let lo = in_page.max(s * sp);
                let hi = (in_page + n).min((s + 1) * sp);
                scratch[lo - s * sp..hi - s * sp]
                    .copy_from_slice(&data[off + (lo - in_page)..off + (hi - in_page)]);
                let new_nonce = self.next_nonce();
                let new_tag = self.sealer.seal(&new_nonce, &aad, &mut scratch);
                ctx.write_untrusted(self.store.addr_of(page, s * sp), &scratch);
                meta[s] = (new_nonce, new_tag);
                ctx.charge_crypto_in(&mut batch, &self.sealer, [sp, sp]);
                Stats::add(&self.machine.stats.sealed_bytes, 2 * sp as u64);
            }
            self.store
                .seals
                .commit_write(page, SealState::SubPages { meta });
            off += n;
        }
    }
}
