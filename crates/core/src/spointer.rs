//! Secure active pointers — *spointers* (Eleos §3.2.2).
//!
//! A spointer encapsulates SUVM's software address translation: the
//! first access to a page *links* the spointer (caches the EPC++ frame
//! and pins the page); subsequent accesses through the linked spointer
//! skip the page-table lookup entirely — "the page table lookup is
//! performed once per page". Moving a spointer across a page boundary,
//! cloning it, or dropping it *unlinks* it (unpinning the page), which
//! is what keeps the pinned-page population small (§3.2.2's two rules).
//!
//! Rust cannot overload `*p` against simulated memory, so access goes
//! through `get`/`set` — which is also precisely what the paper needs
//! for dirty tracking ("a user should access spointers via get/set
//! macros", §3.2.4).

use std::cell::Cell;
use std::sync::Arc;

use eleos_enclave::thread::ThreadCtx;

use crate::suvm::{Suvm, Sva};

/// Fixed-size plain-old-data types that can live in SUVM memory.
///
/// # Examples
///
/// ```
/// use eleos_core::spointer::Plain;
/// let mut b = [0u8; 8];
/// 42u64.write_to(&mut b);
/// assert_eq!(u64::read_from(&b), 42);
/// ```
pub trait Plain: Copy {
    /// Size of the value in bytes.
    const SIZE: usize;
    /// Serializes into `buf` (little endian).
    fn write_to(self, buf: &mut [u8]);
    /// Deserializes from `buf`.
    fn read_from(buf: &[u8]) -> Self;
}

macro_rules! impl_plain {
    ($($t:ty),+) => {$(
        impl Plain for $t {
            const SIZE: usize = core::mem::size_of::<$t>();
            fn write_to(self, buf: &mut [u8]) {
                buf[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf[..Self::SIZE].try_into().unwrap())
            }
        }
    )+};
}

impl_plain!(u8, u16, u32, u64, u128, i8, i16, i32, i64, usize);

impl Plain for f32 {
    const SIZE: usize = 4;
    fn write_to(self, buf: &mut [u8]) {
        buf[..4].copy_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        f32::from_le_bytes(buf[..4].try_into().unwrap())
    }
}

impl Plain for f64 {
    const SIZE: usize = 8;
    fn write_to(self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf[..8].try_into().unwrap())
    }
}

#[derive(Clone, Copy)]
struct Link {
    page: u64,
    frame: u32,
}

/// A typed secure active pointer into SUVM memory.
pub struct SPtr<T: Plain> {
    suvm: Arc<Suvm>,
    sva: Sva,
    link: Cell<Option<Link>>,
    _marker: core::marker::PhantomData<T>,
}

impl<T: Plain> SPtr<T> {
    /// Creates an (unlinked) spointer at `sva` — typically the result
    /// of [`Suvm::malloc`].
    #[must_use]
    pub fn new(suvm: &Arc<Suvm>, sva: Sva) -> Self {
        Self {
            suvm: Arc::clone(suvm),
            sva,
            link: Cell::new(None),
            _marker: core::marker::PhantomData,
        }
    }

    /// The SUVM virtual address this spointer designates.
    #[must_use]
    pub fn sva(&self) -> Sva {
        self.sva
    }

    /// Whether the spointer currently caches a translation.
    #[must_use]
    pub fn is_linked(&self) -> bool {
        self.link.get().is_some()
    }

    fn page(&self) -> u64 {
        self.suvm.page_of(self.sva)
    }

    fn value_fits_in_page(&self) -> bool {
        let ps = self.suvm.config().page_size as u64;
        (self.sva % ps) + T::SIZE as u64 <= ps
    }

    /// Ensures the spointer is linked to its page; returns the frame.
    fn link_now(&self, ctx: &mut ThreadCtx) -> u32 {
        let page = self.page();
        if let Some(l) = self.link.get() {
            if l.page == page {
                ctx.compute(ctx.machine.cfg.costs.spointer_linked);
                return l.frame;
            }
            self.unlink();
        }
        ctx.compute(ctx.machine.cfg.costs.spointer_link);
        let (frame, was_resident) = self.suvm.fault_in_and_pin(ctx, page);
        if was_resident {
            // Resident but unlinked: a *minor* fault (§3.2.2).
            eleos_sim::stats::Stats::bump(&ctx.machine.stats.suvm_minor_faults);
        }
        self.link.set(Some(Link { page, frame }));
        frame
    }

    /// Explicitly drops the cached translation, unpinning the page.
    pub fn unlink(&self) {
        if let Some(l) = self.link.take() {
            self.suvm.unpin(l.frame);
        }
    }

    /// Reads the pointee.
    #[must_use]
    pub fn get(&self, ctx: &mut ThreadCtx) -> T {
        let mut buf = [0u8; 16];
        assert!(T::SIZE <= buf.len());
        if self.value_fits_in_page() {
            let frame = self.link_now(ctx);
            let in_page = (self.sva % self.suvm.config().page_size as u64) as usize;
            ctx.read_enclave(self.suvm.epcpp_vaddr(frame, in_page), &mut buf[..T::SIZE]);
        } else {
            // Straddles a page boundary: fall back to the unlinked path.
            self.suvm.read(ctx, self.sva, &mut buf[..T::SIZE]);
        }
        T::read_from(&buf[..T::SIZE])
    }

    /// Writes the pointee, marking the page dirty.
    pub fn set(&self, ctx: &mut ThreadCtx, v: T) {
        let mut buf = [0u8; 16];
        assert!(T::SIZE <= buf.len());
        v.write_to(&mut buf[..T::SIZE]);
        if self.value_fits_in_page() {
            let frame = self.link_now(ctx);
            let in_page = (self.sva % self.suvm.config().page_size as u64) as usize;
            ctx.write_enclave(self.suvm.epcpp_vaddr(frame, in_page), &buf[..T::SIZE]);
            self.suvm.mark_dirty(frame);
        } else {
            self.suvm.write(ctx, self.sva, &buf[..T::SIZE]);
        }
    }

    /// Advances the spointer by `count` elements, unlinking it if the
    /// move crosses the linked page's boundary.
    pub fn add(&mut self, count: u64) {
        self.sva += count * T::SIZE as u64;
        self.maybe_unlink_after_move();
    }

    /// Moves the spointer back by `count` elements.
    pub fn sub(&mut self, count: u64) {
        self.sva -= count * T::SIZE as u64;
        self.maybe_unlink_after_move();
    }

    fn maybe_unlink_after_move(&self) {
        if let Some(l) = self.link.get() {
            if l.page != self.page() {
                self.unlink();
            }
        }
    }

    /// Returns an *unlinked* spointer `count` elements further (the
    /// paper's rule: assignment/derivation never copies a link).
    #[must_use]
    pub fn offset(&self, count: u64) -> SPtr<T> {
        SPtr::new(&self.suvm, self.sva + count * T::SIZE as u64)
    }

    /// Reinterprets the address as a different element type (unlinked).
    #[must_use]
    pub fn cast<U: Plain>(&self) -> SPtr<U> {
        SPtr::new(&self.suvm, self.sva)
    }

    /// Reads `buf.len()` bytes at the spointer through the *linked*
    /// fast path (one translation per page, §3.2.2). The span must not
    /// cross the page boundary.
    pub fn get_bytes(&self, ctx: &mut ThreadCtx, buf: &mut [u8]) {
        let ps = self.suvm.config().page_size as u64;
        assert!(
            (self.sva % ps) + buf.len() as u64 <= ps,
            "linked access must stay within the page"
        );
        let frame = self.link_now(ctx);
        let in_page = (self.sva % ps) as usize;
        ctx.read_enclave(self.suvm.epcpp_vaddr(frame, in_page), buf);
    }

    /// Writes through the linked fast path (same page-span rule as
    /// [`Self::get_bytes`]), marking the page dirty.
    pub fn set_bytes(&self, ctx: &mut ThreadCtx, data: &[u8]) {
        let ps = self.suvm.config().page_size as u64;
        assert!(
            (self.sva % ps) + data.len() as u64 <= ps,
            "linked access must stay within the page"
        );
        let frame = self.link_now(ctx);
        let in_page = (self.sva % ps) as usize;
        ctx.write_enclave(self.suvm.epcpp_vaddr(frame, in_page), data);
        self.suvm.mark_dirty(frame);
    }
}

impl<T: Plain> Clone for SPtr<T> {
    /// Cloning yields an unlinked spointer (paper rule 1: "when
    /// assigning a linked spointer to another spointer, the new
    /// spointer is initialized unlinked").
    fn clone(&self) -> Self {
        SPtr::new(&self.suvm, self.sva)
    }
}

impl<T: Plain> Drop for SPtr<T> {
    /// Dropping unlinks (paper rule 2), unpinning the page.
    fn drop(&mut self) {
        self.unlink();
    }
}

impl<T: Plain> core::fmt::Debug for SPtr<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SPtr({:#x}{})",
            self.sva,
            if self.is_linked() { ", linked" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuvmConfig;
    use crate::suvm::Suvm;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn rig() -> (Arc<Suvm>, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(4));
        let e = m.driver.create_enclave(&m, 4 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t0, SuvmConfig::tiny());
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (s, t)
    }

    #[test]
    fn plain_floats_and_wide_ints_roundtrip() {
        let (s, mut t) = rig();
        let sva = s.malloc(64);
        let pf: SPtr<f64> = SPtr::new(&s, sva);
        pf.set(&mut t, -1234.5678);
        assert_eq!(pf.get(&mut t), -1234.5678);
        let pf32: SPtr<f32> = SPtr::new(&s, sva + 8);
        pf32.set(&mut t, 0.25);
        assert_eq!(pf32.get(&mut t), 0.25);
        let pw: SPtr<u128> = SPtr::new(&s, sva + 16);
        pw.set(&mut t, u128::MAX - 7);
        assert_eq!(pw.get(&mut t), u128::MAX - 7);
        t.exit();
    }

    #[test]
    fn cast_reinterprets_bytes() {
        let (s, mut t) = rig();
        let sva = s.malloc(16);
        let p64: SPtr<u64> = SPtr::new(&s, sva);
        p64.set(&mut t, 0x0102_0304_0506_0708);
        let p8: SPtr<u8> = p64.cast();
        assert!(!p8.is_linked(), "cast yields an unlinked spointer");
        assert_eq!(p8.get(&mut t), 0x08, "little endian low byte");
        t.exit();
    }

    #[test]
    fn value_straddling_pages_uses_slow_path() {
        let (s, mut t) = rig();
        let sva = s.malloc(2 * 4096);
        // A u64 placed 4 bytes before a page boundary.
        let p: SPtr<u64> = SPtr::new(&s, sva + 4092);
        p.set(&mut t, 0xfeed_face_cafe_beef);
        assert_eq!(p.get(&mut t), 0xfeed_face_cafe_beef);
        assert!(!p.is_linked(), "straddling values never link");
        t.exit();
    }

    #[test]
    fn explicit_unlink_unpins() {
        let (s, mut t) = rig();
        let sva = s.malloc(4096);
        let p: SPtr<u64> = SPtr::new(&s, sva);
        p.set(&mut t, 5);
        assert!(p.is_linked());
        p.unlink();
        assert!(!p.is_linked());
        // With every spointer unlinked, the page must be evictable.
        while s.evict_one(&mut t) {}
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(p.get(&mut t), 5, "refaults transparently");
        t.exit();
    }

    #[test]
    fn prefetch_populates_up_to_the_cache() {
        let (s, mut t) = rig(); // 16 frames, watermark 2
        let sva = s.malloc(64 * 4096);
        s.prefetch(&mut t, sva, 64 * 4096);
        let resident = s.resident_pages();
        assert!(resident > 0);
        assert!(
            resident <= 16,
            "prefetch must not wrap the cache: {resident}"
        );
        t.exit();
    }

    #[test]
    fn debug_format_mentions_link_state() {
        let (s, mut t) = rig();
        let p: SPtr<u64> = SPtr::new(&s, s.malloc(8));
        assert!(!format!("{p:?}").contains("linked"));
        p.set(&mut t, 1);
        assert!(format!("{p:?}").contains("linked"));
        t.exit();
    }
}
