//! Direct sub-page backing-store access (§3.2.4).
use super::span::Access;
use super::*;

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
    /// [`Access::Adaptive`] both mean for a write — as a one-shot
    /// [`Access::Direct`] cursor. A resident page is written in EPC++;
    /// a page sealed as sub-pages is written through to the backing
    /// store (read-modify-write of each touched sub-page, resealed with
    /// a fresh nonce); a page with no such copy is faulted in and
    /// written there, like [`Self::write`]. The call's opens and
    /// re-seals are billed as one crypto batch (in a serve round, as
    /// the round's SUVM batch). A write never counts as reuse of its
    /// page: a store overwriting a record reads its key first, and
    /// would promote every cold page.
    pub fn write_direct(&self, ctx: &mut ThreadCtx, sva: Sva, data: &[u8]) {
        self.span(sva, Access::Direct).write(ctx, data);
    }
}
