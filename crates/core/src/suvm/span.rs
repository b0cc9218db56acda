//! A pinned read cursor over a contiguous secure span.
use super::*;

/// Index of the sealed unit covering a whole page (the `sub` value
/// whole-page seals authenticate under).
const WHOLE_PAGE: u32 = u32::MAX;

/// The translation a cursor currently holds.
enum Held {
    Nothing,
    /// `page` is cached in `frame`, pinned by the cursor.
    Frame {
        page: u64,
        frame: u32,
    },
    /// `page` was not cached when a direct cursor reached it: its
    /// bytes come from the backing store. `unit` is the sealed unit
    /// (sub-page index, or [`WHOLE_PAGE`]) whose plaintext the cursor
    /// still holds.
    Sealed {
        page: u64,
        unit: Option<u32>,
    },
}

/// A sequential reader over `[sva, ..)` that translates **once per
/// page**: the first access to a page pays `suvm_lookup` (plus the
/// fault, if any) and pins the frame; every further [`Self::read`]
/// through the same pin pays `spointer_linked`, like a linked
/// spointer (§3.2.2). A *direct* cursor (§3.2.4) bypasses EPC++ for
/// non-resident pages and unseals each sub-page at most once. The pin
/// is dropped when the cursor moves to another page or goes out of
/// scope.
///
/// The span must not be written while a cursor over it is open.
pub struct SpanCursor<'a> {
    suvm: &'a Suvm,
    pos: Sva,
    direct: bool,
    held: Held,
    /// Plaintext of the sealed unit named by [`Held::Sealed`].
    plain: Vec<u8>,
}

impl Suvm {
    /// Opens a read cursor at `sva`; `direct` selects sub-page
    /// backing-store access for non-resident pages.
    #[must_use]
    pub fn span(&self, sva: Sva, direct: bool) -> SpanCursor<'_> {
        SpanCursor {
            suvm: self,
            pos: sva,
            direct,
            held: Held::Nothing,
            plain: Vec::new(),
        }
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
        let costs = &self.suvm.machine.cfg.costs;
        match self.held {
            Held::Frame { page: p, .. } | Held::Sealed { page: p, .. } if p == page => {
                ctx.compute(costs.spointer_linked);
                return;
            }
            _ => self.release(),
        }
        self.held = if self.direct {
            assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
            ctx.compute(costs.suvm_lookup);
            // Consistency: a resident page may be newer than its sealed
            // copy — serve it from the cache.
            match self.suvm.try_pin(page) {
                Some(frame) => Held::Frame { page, frame },
                None => {
                    Stats::bump(&self.suvm.machine.stats.suvm_direct_accesses);
                    Held::Sealed { page, unit: None }
                }
            }
        } else {
            let (frame, _) = self.suvm.fault_in_and_pin(ctx, page);
            Held::Frame { page, frame }
        };
    }

    fn release(&mut self) {
        if let Held::Frame { frame, .. } = std::mem::replace(&mut self.held, Held::Nothing) {
            self.suvm.unpin(frame);
        }
    }

    /// Copies `out.len()` bytes at `in_page` of the non-resident
    /// `page` out of the backing store, unsealing only the units the
    /// cursor does not already hold in plaintext.
    fn read_sealed(&mut self, ctx: &mut ThreadCtx, page: u64, in_page: usize, out: &mut [u8]) {
        let s = self.suvm;
        let ps = s.cfg.page_size;
        let sp = s.cfg.sub_page_size;
        let costs = &s.machine.cfg.costs;
        let mut held = match self.held {
            Held::Sealed { unit, .. } => unit,
            _ => unreachable!("read_sealed on a cached page"),
        };
        'retry: loop {
            let (version, state) = s.store.seals.read(page);
            match state {
                SealState::Fresh => out.fill(0),
                SealState::SubPages { meta } => {
                    let end = in_page + out.len();
                    for sub in in_page / sp..=(end - 1) / sp {
                        if held != Some(sub as u32) {
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
                            ctx.compute(costs.crypto_fixed + (costs.crypto_cpb * sp as f64) as u64);
                            held = Some(sub as u32);
                        }
                        let lo = in_page.max(sub * sp);
                        let hi = end.min((sub + 1) * sp);
                        out[lo - in_page..hi - in_page]
                            .copy_from_slice(&self.plain[lo - sub * sp..hi - sub * sp]);
                    }
                }
                SealState::Page { nonce, tag } => {
                    // Fallback: whole-page unseal (costs a full page of
                    // crypto — the point of sealing sub-pages is to
                    // avoid this).
                    if held != Some(WHOLE_PAGE) {
                        self.plain.resize(ps, 0);
                        ctx.read_untrusted(s.store.addr_of(page, 0), &mut self.plain);
                        let aad = Suvm::aad(page, WHOLE_PAGE);
                        if s.sealer.open(&nonce, &aad, &mut self.plain, &tag).is_err() {
                            held = None;
                            if !s.store.seals.check(page, version) {
                                continue 'retry;
                            }
                            panic!("SUVM page failed authentication");
                        }
                        ctx.compute(costs.crypto(ps));
                        held = Some(WHOLE_PAGE);
                    }
                    out.copy_from_slice(&self.plain[in_page..in_page + out.len()]);
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
