//! Direct sub-page backing-store access (§3.2.4).
use super::*;

impl Suvm {
    // ------------------------------------------------------------------
    // Direct sub-page access (§3.2.4).
    // ------------------------------------------------------------------

    /// Reads `[sva, sva+buf.len())` directly from the backing store at
    /// sub-page granularity, bypassing EPC++ for non-resident pages
    /// (resident pages are read from the cache for consistency).
    ///
    /// Only useful when the instance seals sub-pages
    /// ([`SuvmConfig::seal_sub_pages`]); whole-page-sealed data falls
    /// back to unsealing the full page.
    pub fn read_direct(&self, ctx: &mut ThreadCtx, sva: Sva, buf: &mut [u8]) {
        self.span(sva, true).read(ctx, buf);
    }

    /// Writes directly to the backing store at sub-page granularity
    /// (read-modify-write of each touched sub-page, resealed with a
    /// fresh nonce). Resident pages are written in EPC++ instead.
    pub fn write_direct(&self, ctx: &mut ThreadCtx, sva: Sva, data: &[u8]) {
        assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
        let ps = self.cfg.page_size;
        let sp = self.cfg.sub_page_size;
        let costs_crypto_fixed = self.machine.cfg.costs.crypto_fixed;
        let cpb = self.machine.cfg.costs.crypto_cpb;
        let mut off = 0usize;
        while off < data.len() {
            let addr = sva + off as u64;
            let page = self.page_of(addr);
            let in_page = (addr % ps as u64) as usize;
            let n = (ps - in_page).min(data.len() - off);
            ctx.compute(self.machine.cfg.costs.suvm_lookup);
            if let Some(frame) = self.try_pin(page) {
                ctx.write_enclave(self.epcpp_vaddr(frame, in_page), &data[off..off + n]);
                self.mark_dirty(frame);
                self.unpin(frame);
                off += n;
                continue;
            }
            Stats::bump(&self.machine.stats.suvm_direct_accesses);
            // Exclusive writer for this page's sealed image from here
            // to the commit.
            self.store.seals.begin_write(page);
            // Bring the page's seal state to sub-page form.
            let mut meta = match self.store.seals.get_unchecked(page) {
                SealState::SubPages { meta } => meta.into_vec(),
                SealState::Fresh => {
                    // Materialize a zero page as sealed sub-pages.
                    let mut zeros = vec![0u8; ps];
                    let mut meta = Vec::with_capacity(ps / sp);
                    for s in 0..ps / sp {
                        let nonce = self.next_nonce();
                        let tag = self.sealer.seal(
                            &nonce,
                            &Self::aad(page, s as u32),
                            &mut zeros[s * sp..(s + 1) * sp],
                        );
                        meta.push((nonce, tag));
                    }
                    ctx.write_untrusted_raw(self.store.addr_of(page, 0), &zeros);
                    meta
                }
                SealState::Page { nonce, tag } => {
                    // Re-seal the whole page as sub-pages first.
                    let mut buf = vec![0u8; ps];
                    ctx.read_untrusted_raw(self.store.addr_of(page, 0), &mut buf);
                    self.sealer
                        .open(&nonce, &Self::aad(page, u32::MAX), &mut buf, &tag)
                        .expect("SUVM page failed authentication");
                    ctx.compute(self.machine.cfg.costs.crypto(ps));
                    let mut meta = Vec::with_capacity(ps / sp);
                    for s in 0..ps / sp {
                        let nonce = self.next_nonce();
                        let tag = self.sealer.seal(
                            &nonce,
                            &Self::aad(page, s as u32),
                            &mut buf[s * sp..(s + 1) * sp],
                        );
                        meta.push((nonce, tag));
                    }
                    ctx.write_untrusted_raw(self.store.addr_of(page, 0), &buf);
                    ctx.compute(self.machine.cfg.costs.crypto(ps));
                    meta
                }
            };
            let first_sub = in_page / sp;
            let last_sub = (in_page + n - 1) / sp;
            let mut scratch = vec![0u8; sp];
            for s in first_sub..=last_sub {
                let (nonce, tag) = meta[s];
                ctx.read_untrusted(self.store.addr_of(page, s * sp), &mut scratch);
                self.sealer
                    .open(&nonce, &Self::aad(page, s as u32), &mut scratch, &tag)
                    .expect("SUVM sub-page failed authentication");
                let lo = in_page.max(s * sp);
                let hi = (in_page + n).min((s + 1) * sp);
                scratch[lo - s * sp..hi - s * sp]
                    .copy_from_slice(&data[off + (lo - in_page)..off + (hi - in_page)]);
                let new_nonce = self.next_nonce();
                let new_tag =
                    self.sealer
                        .seal(&new_nonce, &Self::aad(page, s as u32), &mut scratch);
                ctx.write_untrusted(self.store.addr_of(page, s * sp), &scratch);
                meta[s] = (new_nonce, new_tag);
                ctx.compute(2 * (costs_crypto_fixed + (cpb * sp as f64) as u64));
            }
            self.store.seals.commit_write(
                page,
                SealState::SubPages {
                    meta: meta.into_boxed_slice(),
                },
            );
            off += n;
        }
    }
}
