//! A pinned read cursor over a contiguous secure span, and the rule
//! that decides how it reaches a page that is not in EPC++.
use super::*;

/// How an access reaches a page that is not resident in EPC++. A
/// resident page is always served from EPC++ (it may be newer than its
/// sealed copy), and a page the backing store holds no copy of in
/// units smaller than a page — never evicted, or `sub_page_size ==
/// page_size` — is always faulted in: there is nothing to bypass to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Fault the page into EPC++ — the paper's page-cache row.
    Cached,
    /// Bypass EPC++: unseal (or, writing, re-seal) only the sub-pages
    /// the bytes span — the paper's direct-access row (§3.2.4).
    Direct,
    /// Choose per access. A write goes through like
    /// [`Access::Direct`]; so does a read, unless the page's previous
    /// read miss was fewer than `frame_limit() / (page_size /
    /// sub_page_size)` read misses ago. A fault costs about as much as
    /// bypassing every sub-page of the page, so only a page re-read
    /// within that window repays being cached, and is faulted in.
    Adaptive,
}

/// The translation a cursor currently holds.
enum Held {
    Nothing,
    /// `page` is cached in `frame`, pinned by the cursor.
    Frame {
        page: u64,
        frame: u32,
    },
    /// `page` was not cached when the cursor reached it and the access
    /// bypasses EPC++: its bytes come from the backing store. `unit`
    /// is the sub-page whose plaintext the cursor still holds.
    Sealed {
        page: u64,
        unit: Option<usize>,
    },
}

/// A sequential reader over `[sva, ..)` that translates **once per
/// page**: the first access to a page pays `suvm_lookup` (plus the
/// fault, if any) and pins the frame; every further [`Self::read`]
/// through the same pin pays `spointer_linked`, like a linked
/// spointer (§3.2.2). On a page its [`Access`] bypasses EPC++ for, the
/// cursor unseals each sub-page at most once. The pin is dropped when
/// the cursor moves to another page or goes out of scope.
///
/// The span must not be written while a cursor over it is open.
pub struct SpanCursor<'a> {
    suvm: &'a Suvm,
    pos: Sva,
    access: Access,
    held: Held,
    /// Plaintext of the sub-page named by [`Held::Sealed`].
    plain: Vec<u8>,
}

impl Suvm {
    /// Opens a read cursor at `sva` that reaches non-resident pages
    /// by `access`.
    #[must_use]
    pub fn span(&self, sva: Sva, access: Access) -> SpanCursor<'_> {
        SpanCursor {
            suvm: self,
            pos: sva,
            access,
            held: Held::Nothing,
            plain: Vec::new(),
        }
    }

    /// Whether an `access` that missed EPC++ on `page` is served from
    /// the backing store instead of faulting the page in. Only reads
    /// ask with [`Access::Adaptive`]: asking stamps the page and ticks
    /// the read-miss clock.
    pub(super) fn bypasses(&self, page: u64, access: Access) -> bool {
        let n_subs = self.cfg.page_size / self.cfg.sub_page_size;
        if access == Access::Cached || n_subs == 1 || !self.store.seals.has_copy(page) {
            return false;
        }
        if access == Access::Direct {
            return true;
        }
        let now = self.read_misses.fetch_add(1, Ordering::Relaxed) + 1;
        let last = self.store.seals.stamp_miss(page, now);
        // (A racing miss may have stamped a later reading: distance 0.)
        last == 0 || now.saturating_sub(last) >= (self.frame_limit() / n_subs) as u64
    }
}

impl SpanCursor<'_> {
    /// Reads the next `buf.len()` bytes of the span and advances.
    pub fn read(&mut self, ctx: &mut ThreadCtx, buf: &mut [u8]) {
        let ps = self.suvm.cfg.page_size;
        let mut off = 0usize;
        while off < buf.len() {
            let page = self.suvm.page_of(self.pos);
            let in_page = (self.pos % ps as u64) as usize;
            let n = (ps - in_page).min(buf.len() - off);
            let out = &mut buf[off..off + n];
            self.translate(ctx, page);
            match self.held {
                Held::Frame { frame, .. } => {
                    ctx.read_enclave(self.suvm.epcpp_vaddr(frame, in_page), out);
                }
                Held::Sealed { .. } => self.read_sealed(ctx, page, in_page, out),
                Held::Nothing => unreachable!("translate always holds a page"),
            }
            self.pos += n as u64;
            off += n;
        }
    }

    /// Makes `page` the held translation.
    fn translate(&mut self, ctx: &mut ThreadCtx, page: u64) {
        let s = self.suvm;
        match self.held {
            Held::Frame { page: p, .. } | Held::Sealed { page: p, .. } if p == page => {
                ctx.compute(s.machine.cfg.costs.spointer_linked);
                return;
            }
            _ => self.release(),
        }
        assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
        ctx.compute(s.machine.cfg.costs.suvm_lookup);
        self.held = match s.try_pin(page) {
            Some(frame) => Held::Frame { page, frame },
            None if s.bypasses(page, self.access) => {
                Stats::bump(&s.machine.stats.suvm_direct_accesses);
                Held::Sealed { page, unit: None }
            }
            None => {
                let (frame, _) = s.fault_in(ctx, page);
                Held::Frame { page, frame }
            }
        };
    }

    fn release(&mut self) {
        if let Held::Frame { frame, .. } = std::mem::replace(&mut self.held, Held::Nothing) {
            self.suvm.unpin(frame);
        }
    }

    /// Copies `out.len()` bytes at `in_page` of the non-resident
    /// `page` out of the backing store, unsealing only the sub-pages
    /// the cursor does not already hold in plaintext.
    fn read_sealed(&mut self, ctx: &mut ThreadCtx, page: u64, in_page: usize, out: &mut [u8]) {
        let s = self.suvm;
        let sp = s.cfg.sub_page_size;
        let end = in_page + out.len();
        let Held::Sealed { unit: mut held, .. } = self.held else {
            unreachable!("read_sealed on a cached page")
        };
        'retry: loop {
            let (version, state) = s.store.seals.read(page);
            match state {
                // Decommitted since the cursor got here.
                SealState::Fresh => out.fill(0),
                SealState::SubPages { meta } => {
                    for sub in in_page / sp..=(end - 1) / sp {
                        if held != Some(sub) {
                            self.plain.resize(sp, 0);
                            ctx.read_untrusted(s.store.addr_of(page, sub * sp), &mut self.plain);
                            let (nonce, tag) = &meta[sub];
                            let aad = Suvm::aad(page, sub as u32);
                            if s.sealer.open(nonce, &aad, &mut self.plain, tag).is_err() {
                                held = None;
                                if !s.store.seals.check(page, version) {
                                    continue 'retry; // torn by a concurrent re-seal
                                }
                                panic!("SUVM sub-page failed authentication");
                            }
                            ctx.charge_crypto_batch([sp], false);
                            Stats::add(&s.machine.stats.sealed_bytes, sp as u64);
                            held = Some(sub);
                        }
                        let lo = in_page.max(sub * sp);
                        let hi = end.min((sub + 1) * sp);
                        out[lo - in_page..hi - in_page]
                            .copy_from_slice(&self.plain[lo - sub * sp..hi - sub * sp]);
                    }
                }
            }
            break;
        }
        self.held = Held::Sealed { page, unit: held };
    }
}

impl Drop for SpanCursor<'_> {
    fn drop(&mut self) {
        self.release();
    }
}
