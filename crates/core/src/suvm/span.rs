//! A pinned cursor over a contiguous secure span, and the rule that
//! decides how it reaches a page that is not in EPC++.
use super::*;
use eleos_crypto::gcm::{Nonce, Tag};
use eleos_enclave::thread::CryptoBatch;

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
    /// [`Access::Direct`]; so does a read, unless the mean of the
    /// page's last two gaps between read misses is under the window
    /// `W = frame_limit() / (page_size / sub_page_size)` read misses,
    /// that is, unless the read miss two before this one was fewer
    /// than `2·W` read misses ago. A fault costs about as much as
    /// bypassing every sub-page of the page, so only a page re-read at
    /// least once per window repays being cached, and is faulted in;
    /// judging that rate from two gaps (LRU-2) rather than one keeps a
    /// single short gap, which uniform access draws by chance, from
    /// promoting a cold page.
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
    /// names the sub-page whose plaintext the cursor still holds and
    /// the page's seal version that plaintext belongs to.
    Sealed {
        page: u64,
        unit: Option<(usize, u64)>,
    },
}

/// A sequential reader and writer over `[sva, ..)` that translates
/// **once per page**: the first access to a page pays `suvm_lookup`
/// (plus the fault, if any) and pins the frame; every further
/// [`Self::read`] or [`Self::write`] through the same pin pays
/// `spointer_linked`, like a linked spointer (§3.2.2), and a write
/// through it goes straight to the frame. On a page its [`Access`]
/// bypasses EPC++ for, the cursor unseals each sub-page at most once
/// per seal version, and a write re-seals only the sub-pages it
/// touches, reusing the plaintext of the one the cursor holds while
/// nobody else has re-sealed the page (§3.2.4). Its opens and seals
/// are billed as one crypto batch — outside a serve round the
/// cursor's own, inside one the round's SUVM batch. The pin is dropped
/// when the cursor moves to another page or goes out of scope.
///
/// A write that starts on a page the cursor does not hold is what a
/// one-shot write is, crypto batch included: [`Access::Cached`] faults
/// the page in, [`Access::Direct`] and [`Access::Adaptive`] write
/// through by residency without counting the write as reuse (see
/// [`Suvm::write_direct`]).
///
/// The span must not be written while a cursor over it is open,
/// except through that cursor. A bypassed sub-page another writer
/// re-seals meanwhile is opened again: its plaintext is reused only at
/// the seal version it was opened or written at. A page another writer
/// faults in and writes meanwhile has no sealed copy left: the cursor
/// translates again and reads it from its frame.
pub struct SpanCursor<'a> {
    suvm: &'a Suvm,
    pos: Sva,
    access: Access,
    held: Held,
    /// Plaintext of the sub-page named by [`Held::Sealed`].
    plain: Vec<u8>,
    /// The cursor's crypto batch: its opens and seals span its reads
    /// and writes.
    batch: CryptoBatch,
}

impl Suvm {
    /// Opens a cursor at `sva` that reaches non-resident pages by
    /// `access`.
    #[must_use]
    pub fn span(&self, sva: Sva, access: Access) -> SpanCursor<'_> {
        SpanCursor {
            suvm: self,
            pos: sva,
            access,
            held: Held::Nothing,
            plain: Vec::new(),
            batch: CryptoBatch::default(),
        }
    }

    /// Whether an `access` that missed EPC++ on `page` is served from
    /// the backing store instead of faulting the page in. Only reads
    /// ask with [`Access::Adaptive`]: asking stamps the page and ticks
    /// the read-miss clock; a write asks with [`Access::Direct`].
    pub(super) fn bypasses(&self, page: u64, access: Access) -> bool {
        let n_subs = self.cfg.page_size / self.cfg.sub_page_size;
        if access == Access::Cached || n_subs == 1 {
            return false;
        }
        let window = 2 * (self.frame_limit() / n_subs) as u64;
        self.store.seals.with(page, |e| {
            if e.copy.is_none() {
                return false;
            }
            if access == Access::Direct {
                return true;
            }
            let now = self.read_misses.fetch_add(1, Ordering::Relaxed) + 1;
            // Reuse is judged from the last two gaps (LRU-2): their mean
            // is under the window when this miss is fewer than two
            // windows after the one two misses back. (A racing miss may
            // have stamped a later reading: distance 0.)
            let second = e.misses[1];
            e.misses = [now, e.misses[0]];
            second == 0 || now.saturating_sub(second) >= window
        })
    }
}

impl SpanCursor<'_> {
    /// Moves the cursor to `sva`. The held translation stays: an
    /// access that lands on its page again pays `spointer_linked`.
    pub fn seek(&mut self, sva: Sva) {
        self.pos = sva;
    }

    /// Reads the next `buf.len()` bytes of the span and advances.
    pub fn read(&mut self, ctx: &mut ThreadCtx, buf: &mut [u8]) {
        let ps = self.suvm.cfg.page_size;
        let mut off = 0usize;
        while off < buf.len() {
            let page = self.suvm.page_of(self.pos);
            let in_page = (self.pos % ps as u64) as usize;
            let n = (ps - in_page).min(buf.len() - off);
            let out = &mut buf[off..off + n];
            self.translate(ctx, page, self.access);
            match self.held {
                Held::Frame { frame, .. } => {
                    ctx.read_enclave(self.suvm.epcpp_vaddr(frame, in_page), out);
                }
                Held::Sealed { .. } => {
                    if !self.read_sealed(ctx, page, in_page, out) {
                        self.release();
                        continue;
                    }
                }
                Held::Nothing => unreachable!("translate always holds a page"),
            }
            self.pos += n as u64;
            off += n;
        }
    }

    /// Writes `data` at the cursor's position and advances.
    pub fn write(&mut self, ctx: &mut ThreadCtx, data: &[u8]) {
        let ps = self.suvm.cfg.page_size;
        // A write is never reuse of its page: a store overwriting a
        // record reads its key first, and would promote every cold
        // page.
        let access = match self.access {
            Access::Cached => Access::Cached,
            Access::Direct | Access::Adaptive => Access::Direct,
        };
        // A write that starts off the held page is a one-shot write,
        // billed as a crypto batch of its own.
        if !self.holds(self.suvm.page_of(self.pos)) {
            self.batch = CryptoBatch::default();
        }
        let mut off = 0usize;
        while off < data.len() {
            let page = self.suvm.page_of(self.pos);
            let in_page = (self.pos % ps as u64) as usize;
            let n = (ps - in_page).min(data.len() - off);
            let src = &data[off..off + n];
            self.translate(ctx, page, access);
            if let Held::Sealed { .. } = self.held {
                if !self.write_sealed(ctx, page, in_page, src) {
                    self.release();
                    continue;
                }
            }
            if let Held::Frame { frame, .. } = self.held {
                ctx.write_enclave(self.suvm.epcpp_vaddr(frame, in_page), src);
                self.suvm.mark_dirty(frame);
            }
            self.pos += n as u64;
            off += n;
        }
    }

    fn holds(&self, page: u64) -> bool {
        match self.held {
            Held::Frame { page: p, .. } | Held::Sealed { page: p, .. } => p == page,
            Held::Nothing => false,
        }
    }

    /// Makes `page` the held translation, reaching it by `access` if
    /// the cursor does not hold it already.
    fn translate(&mut self, ctx: &mut ThreadCtx, page: u64, access: Access) {
        let s = self.suvm;
        if self.holds(page) {
            ctx.compute(s.machine.cfg.costs.spointer_linked);
            return;
        }
        self.release();
        assert!(ctx.in_enclave(), "SUVM runs inside the enclave");
        ctx.compute(s.machine.cfg.costs.suvm_lookup);
        self.held = match s.try_pin(page) {
            Some(frame) => Held::Frame { page, frame },
            None if s.bypasses(page, access) => {
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
    /// the cursor does not already hold in plaintext at the page's
    /// current seal version. Returns `false` when the page has no
    /// sealed copy any more (faulted in and written, or decommitted) or
    /// was re-sealed under the read: the caller translates again.
    fn read_sealed(
        &mut self,
        ctx: &mut ThreadCtx,
        page: u64,
        in_page: usize,
        out: &mut [u8],
    ) -> bool {
        let s = self.suvm;
        let sp = s.cfg.sub_page_size;
        let end = in_page + out.len();
        let Held::Sealed { unit: mut held, .. } = self.held else {
            unreachable!("read_sealed on a cached page")
        };
        // Every unit is read at the first one's version.
        let mut at = None;
        for sub in in_page / sp..=(end - 1) / sp {
            let sealed = s
                .store
                .seals
                .stable(page, |e| Some((e.version, e.copy.as_ref()?[sub])));
            let Some((version, unit)) = sealed else {
                return false;
            };
            if at.is_some_and(|v| v != version) {
                return false;
            }
            at = Some(version);
            if held != Some((sub, version)) {
                if !self.open_unit(ctx, page, sub, &unit) {
                    if !s.store.seals.sealed_at(page, version) {
                        return false;
                    }
                    panic!("SUVM sub-page failed authentication");
                }
                ctx.charge_crypto_in(&mut self.batch, &s.sealer, [sp]);
                Stats::add(&s.machine.stats.sealed_bytes, sp as u64);
                held = Some((sub, version));
            }
            let (lo, hi) = (in_page.max(sub * sp), end.min((sub + 1) * sp));
            out[lo - in_page..hi - in_page]
                .copy_from_slice(&self.plain[lo - sub * sp..hi - sub * sp]);
        }
        self.held = Held::Sealed { page, unit: held };
        true
    }

    /// Reads sub-page `sub` of `page` out of the backing store into the
    /// cursor's plaintext and opens it under `meta`; `false` if it
    /// fails authentication.
    fn open_unit(
        &mut self,
        ctx: &mut ThreadCtx,
        page: u64,
        sub: usize,
        meta: &(Nonce, Tag),
    ) -> bool {
        let s = self.suvm;
        let sp = s.cfg.sub_page_size;
        self.plain.resize(sp, 0);
        ctx.read_untrusted(s.store.addr_of(page, sub * sp), &mut self.plain);
        let (nonce, tag) = meta;
        s.sealer
            .open(nonce, &Suvm::aad(page, sub as u32), &mut self.plain, tag)
            .is_ok()
    }

    /// Writes `data` at `in_page` of the non-resident `page` through
    /// to the backing store: a read-modify-write of each touched
    /// sub-page, re-sealed with a fresh nonce. The sub-page the cursor
    /// holds is not opened again if nobody re-sealed the page since.
    /// Returns `false`, writing nothing, when the page has no sealed
    /// copy any more: the caller translates again. A page faulted in
    /// since the translation is written in EPC++ instead, as the held
    /// frame.
    fn write_sealed(
        &mut self,
        ctx: &mut ThreadCtx,
        page: u64,
        in_page: usize,
        data: &[u8],
    ) -> bool {
        let s = self.suvm;
        let sp = s.cfg.sub_page_size;
        let end = in_page + data.len();
        let Held::Sealed { unit: held, .. } = self.held else {
            unreachable!("write_sealed on a cached page")
        };
        // One probe under the page's lock: a resident page is pinned; a
        // sealed one takes the odd seal version, which makes this the
        // page's one writer until the commit and keeps a fault-in that
        // loaded the older image from publishing it.
        let begun = s.store.seals.stable(page, |e| match (e.frame, &e.copy) {
            (Some(frame), _) => Err(Some(s.pin(frame))),
            (None, Some(copy)) => {
                e.version += 1;
                Ok((e.version, copy.clone()))
            }
            (None, None) => Err(None),
        });
        let (version, mut meta) = match begun {
            Ok(begun) => begun,
            Err(Some(frame)) => {
                self.held = Held::Frame { page, frame };
                return true;
            }
            Err(None) => return false,
        };
        // The held plaintext is current only if the page's last commit
        // was the one it was read or written at.
        let mut held = held.filter(|&(_, v)| v + 1 == version);
        for sub in in_page / sp..=(end - 1) / sp {
            let open = held.is_none_or(|(unit, _)| unit != sub);
            if open && !self.open_unit(ctx, page, sub, &meta[sub]) {
                // No re-seal can tear a unit under the odd version: this
                // is tampering.
                panic!("SUVM sub-page failed authentication");
            }
            let lo = in_page.max(sub * sp);
            let hi = end.min((sub + 1) * sp);
            self.plain[lo - sub * sp..hi - sub * sp]
                .copy_from_slice(&data[lo - in_page..hi - in_page]);
            let nonce = s.next_nonce();
            let mut sealed = self.plain.clone();
            let tag = s
                .sealer
                .seal(&nonce, &Suvm::aad(page, sub as u32), &mut sealed);
            ctx.write_untrusted(s.store.addr_of(page, sub * sp), &sealed);
            meta[sub] = (nonce, tag);
            let msgs = if open { 2 } else { 1 };
            ctx.charge_crypto_in(&mut self.batch, &s.sealer, vec![sp; msgs]);
            Stats::add(&s.machine.stats.sealed_bytes, (msgs * sp) as u64);
            held = Some((sub, version + 1));
        }
        s.store.seals.commit(page, meta);
        self.held = Held::Sealed { page, unit: held };
        true
    }
}

impl Drop for SpanCursor<'_> {
    fn drop(&mut self) {
        self.release();
    }
}
