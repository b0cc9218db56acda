//! SUVM bulk memory operations (suvm_memcpy and friends).
use super::span::Access;
use super::*;

impl Suvm {
    // ------------------------------------------------------------------
    // Bulk operations (suvm_memcpy-style, §3.2.3).
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `sva` (unlinked access: one
    /// page-table lookup per page touched) — a one-shot
    /// [`SpanCursor`](super::span::SpanCursor).
    pub fn read(&self, ctx: &mut ThreadCtx, sva: Sva, buf: &mut [u8]) {
        self.span(sva, Access::Cached).read(ctx, buf);
    }

    /// Writes `data` starting at `sva`, faulting the touched pages in
    /// and marking them dirty — a one-shot [`Access::Cached`] cursor.
    pub fn write(&self, ctx: &mut ThreadCtx, sva: Sva, data: &[u8]) {
        self.span(sva, Access::Cached).write(ctx, data);
    }

    /// Prefetches `[sva, sva+len)` into EPC++ (up to the cache size),
    /// so subsequent accesses start warm — the §6.1.2 microbenchmarks
    /// pre-fault their arrays this way.
    pub fn prefetch(&self, ctx: &mut ThreadCtx, sva: Sva, len: usize) {
        let first = self.page_of(sva);
        let last = self.page_of(sva + len.saturating_sub(1) as u64);
        let budget = self.frame_limit() - self.free_target();
        for (i, page) in (first..=last).enumerate() {
            if i >= budget {
                break;
            }
            let (frame, _) = self.fault_in_and_pin(ctx, page);
            self.unpin(frame);
        }
    }

    /// `suvm_memset`: fills `[sva, sva+len)` with `byte`.
    pub fn memset(&self, ctx: &mut ThreadCtx, sva: Sva, len: usize, byte: u8) {
        let chunk = vec![byte; self.cfg.page_size];
        let mut off = 0usize;
        while off < len {
            let n = (len - off).min(self.cfg.page_size);
            self.write(ctx, sva + off as u64, &chunk[..n]);
            off += n;
        }
    }

    /// `suvm_memcmp`: compares `[a, a+len)` with `[b, b+len)`.
    #[must_use]
    pub fn memcmp(&self, ctx: &mut ThreadCtx, a: Sva, b: Sva, len: usize) -> core::cmp::Ordering {
        let ps = self.cfg.page_size;
        let mut off = 0usize;
        let mut ab = vec![0u8; ps];
        let mut bb = vec![0u8; ps];
        while off < len {
            let n = (len - off).min(ps);
            self.read(ctx, a + off as u64, &mut ab[..n]);
            self.read(ctx, b + off as u64, &mut bb[..n]);
            match ab[..n].cmp(&bb[..n]) {
                core::cmp::Ordering::Equal => off += n,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// `suvm_memcpy` within the secure space.
    pub fn memcpy(&self, ctx: &mut ThreadCtx, dst: Sva, src: Sva, len: usize) {
        let ps = self.cfg.page_size;
        let mut buf = vec![0u8; ps];
        let mut off = 0usize;
        while off < len {
            let n = (len - off).min(ps);
            self.read(ctx, src + off as u64, &mut buf[..n]);
            self.write(ctx, dst + off as u64, &buf[..n]);
            off += n;
        }
    }
}
