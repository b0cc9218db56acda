//! SUVM's in-enclave page table (§4.1).
//!
//! The paper keeps two hash tables "with fine-grained locking, using
//! separate spin-locks for each bucket": the inverse page table
//! (backing-store page → EPC++ frame) and the crypto-metadata table
//! (page → nonce and MAC of its sealed copy). Here they are one sharded
//! table, [`PageTable`], whose [`Entry`] holds all of a page's state:
//! its frame, its seal version, its sealed copy and its read-miss
//! stamps. A page's residency and its seal state therefore change
//! together under one shard lock, and no transition needs a protocol
//! that spans two tables. The lock structure is the host's business:
//! a lookup is billed the paper's `suvm_lookup` at its call site,
//! whatever the layout behind it. Like the paper's prototype, SUVM
//! does not evict its own metadata (§4.2).
//!
//! The version is a per-page **seqlock** over the pair (sealed copy,
//! ciphertext in the untrusted backing store): a seal takes the version
//! to odd, rewrites the ciphertext, then commits the new nonces and tags
//! at the next even version. A reader that opened ciphertext against a
//! torn pair finds the page no longer sealed at the version it read,
//! and reads again; only a failing tag at a version that still stands
//! is evidence of tampering. No seal runs while the page has a frame,
//! so a resident page's version is even.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use eleos_crypto::gcm::{Nonce, Tag};
use parking_lot::Mutex;

/// Sentinel: no page.
pub const NO_PAGE: u64 = u64::MAX;

/// One page's state.
#[derive(Default)]
pub struct Entry {
    /// The EPC++ frame caching the page, if it is resident.
    pub frame: Option<u32>,
    /// The seqlock version: odd while a seal of the page is under way,
    /// 0 until its first seal begins.
    pub version: u64,
    /// The backing store's copy: each sealed unit's `(nonce, tag)`, in
    /// order, one unit per sub-page. `None` on a page that was never
    /// sealed, which zero-fills, and on a resident page written since
    /// its last seal, whose next eviction overwrites the copy unread:
    /// so the copy was dropped and its bytes released.
    pub copy: Option<Box<[(Nonce, Tag)]>>,
    /// The owner's read-miss clock at the page's last two read misses,
    /// latest first (0 = none yet).
    pub misses: [u64; 2],
}

impl Entry {
    /// Whether the entry holds nothing a lookup could find: no frame
    /// and no seal version. Such an entry is not stored.
    fn is_vacant(&self) -> bool {
        self.frame.is_none() && self.version == 0
    }
}

/// The page table: sharded `page -> Entry`.
pub struct PageTable {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    mask: usize,
    /// Entries with a seal version ([`Self::live_entries`]).
    sealed: AtomicUsize,
}

impl PageTable {
    /// Creates a table with `shards` lock shards (rounded to 2^n).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(8);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Mutex::new(HashMap::new()));
        Self {
            shards: v,
            mask: n - 1,
            sealed: AtomicUsize::new(0),
        }
    }

    /// Number of pages with a seal version: sealed, or being sealed,
    /// at least once since they were last decommitted. A page that is
    /// resident but was never sealed does not count.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.sealed.load(Ordering::Relaxed)
    }

    fn shard(&self, page: u64) -> &Mutex<HashMap<u64, Entry>> {
        // Fibonacci hashing spreads sequential page numbers.
        let h = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize;
        &self.shards[h & self.mask]
    }

    /// Runs `f` on `page`'s entry under its shard's lock, at whatever
    /// version, and returns what `f` returns. A page with no entry is
    /// handed a vacant one, kept only if `f` gives it a frame or a
    /// version; an entry `f` leaves vacant is dropped.
    pub fn with<R>(&self, page: u64, f: impl FnOnce(&mut Entry) -> R) -> R {
        let mut shard = self.shard(page).lock();
        let mut vacant = Entry::default();
        let stored = shard.get_mut(&page);
        let was_stored = stored.is_some();
        let e = stored.unwrap_or(&mut vacant);
        let was_sealed = e.version > 0;
        let r = f(e);
        match (was_sealed, e.version > 0) {
            (false, true) => self.sealed.fetch_add(1, Ordering::Relaxed),
            (true, false) => self.sealed.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
        let is_vacant = e.is_vacant();
        if was_stored && is_vacant {
            shard.remove(&page);
        } else if !was_stored && !is_vacant {
            shard.insert(page, vacant);
        }
        r
    }

    /// [`Self::with`] at a stable version: waits out a seal under way.
    pub fn stable<R>(&self, page: u64, mut f: impl FnMut(&mut Entry) -> R) -> R {
        loop {
            if let Some(r) = self.with(page, |e| e.version.is_multiple_of(2).then(|| f(e))) {
                return r;
            }
            std::hint::spin_loop();
        }
    }

    /// Commits the seal under way on `page`: `copy` becomes its sealed
    /// copy at the next (even) version.
    pub fn commit(&self, page: u64, copy: Box<[(Nonce, Tag)]>) {
        self.with(page, |e| {
            debug_assert!(!e.version.is_multiple_of(2), "commit without a seal");
            e.version += 1;
            e.copy = Some(copy);
        });
    }

    /// Whether `page` still holds a sealed copy at `version`: what a
    /// reader whose unseal failed asks before it calls that tampering.
    #[must_use]
    pub fn sealed_at(&self, page: u64, version: u64) -> bool {
        self.with(page, |e| e.version == version && e.copy.is_some())
    }

    /// Whether the backing store holds a sealed copy of `page`.
    #[must_use]
    pub fn has_copy(&self, page: u64) -> bool {
        self.with(page, |e| e.copy.is_some())
    }

    /// `page`'s sealed copy at a stable version, if it has one.
    #[must_use]
    pub fn get(&self, page: u64) -> Option<Box<[(Nonce, Tag)]>> {
        self.stable(page, |e| e.copy.clone())
    }

    /// Calls `f` on every stored entry, one shard at a time
    /// (diagnostics: a caller that wants a consistent view runs it at a
    /// quiescent point).
    pub fn for_each(&self, mut f: impl FnMut(u64, &Entry)) {
        for shard in &self.shards {
            for (&page, e) in shard.lock().iter() {
                f(page, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(t: &PageTable, page: u64, copy: Box<[(Nonce, Tag)]>) {
        t.stable(page, |e| e.version += 1);
        t.commit(page, copy);
    }

    #[test]
    fn an_entry_is_no_larger_than_the_crypto_entry_it_replaced() {
        // "No copy" is the box's one niche: 16 B, where the three-state
        // seal enum took 24 B.
        assert_eq!(std::mem::size_of::<Option<Box<[(Nonce, Tag)]>>>(), 16);
        // The crypto table's entry was (version, seal enum, stamps):
        // 8 + 24 + 16 B. The frame fits in what that enum wasted.
        assert!(std::mem::size_of::<Entry>() <= 48);
    }

    #[test]
    fn only_a_frame_or_a_seal_version_keeps_an_entry() {
        let t = PageTable::new(8);
        t.with(5, |e| e.misses = [1, 0]);
        assert_eq!(
            t.with(5, |e| e.misses),
            [0, 0],
            "a vacant entry is not kept"
        );
        t.with(5, |e| e.frame = Some(2));
        t.with(21, |e| e.frame = Some(3));
        assert_eq!(t.with(5, |e| e.frame), Some(2));
        assert_eq!(t.with(21, |e| e.frame), Some(3));
        assert_eq!(t.live_entries(), 0, "a resident page was never sealed");
        assert!(!t.has_copy(5));
        t.with(5, |e| e.frame = None);
        let mut left = Vec::new();
        t.for_each(|page, e| left.push((page, e.frame)));
        assert_eq!(left, [(21, Some(3))]);
    }

    #[test]
    fn seals_count_and_commit_at_even_versions() {
        let t = PageTable::new(8);
        assert!(t.get(9).is_none());
        t.stable(9, |e| e.version += 1);
        assert_eq!(t.live_entries(), 1, "a seal under way counts");
        assert!(!t.sealed_at(9, 0));
        t.commit(9, Box::new([([1; 12], [2; 16])]));
        assert_eq!(*t.get(9).expect("sealed"), [([1; 12], [2; 16])]);
        assert!(t.sealed_at(9, 2));
        // Dropping the copy leaves the version, but not the seal.
        t.with(9, |e| e.copy = None);
        assert!(!t.sealed_at(9, 2));
        assert_eq!(t.live_entries(), 1);
        // A decommit forgets the page.
        t.stable(9, |e| *e = Entry::default());
        assert_eq!(t.live_entries(), 0);
        assert!(t.get(9).is_none());
    }

    #[test]
    fn miss_stamps_live_and_die_with_the_entry() {
        let t = PageTable::new(8);
        let stamp = |now| {
            t.with(4, |e| {
                let last = e.misses;
                e.misses = [now, last[0]];
                last
            })
        };
        assert_eq!(stamp(7), [0, 0], "no entry, nothing to stamp");
        assert_eq!(stamp(8), [0, 0]);
        seal(&t, 4, Box::new([]));
        assert_eq!(stamp(9), [0, 0], "first miss of a sealed page");
        assert_eq!(stamp(12), [9, 0]);
        assert_eq!(stamp(15), [12, 9], "the stamps shift");
        // A re-seal keeps both stamps; a decommit forgets both.
        seal(&t, 4, Box::new([]));
        assert_eq!(stamp(16), [15, 12]);
        t.stable(4, |e| *e = Entry::default());
        assert_eq!(stamp(17), [0, 0]);
    }

    #[test]
    fn stable_readers_never_see_a_seal_under_way() {
        use std::sync::Arc;
        let t = Arc::new(PageTable::new(8));
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    seal(&t, 1, Box::new([([(i % 251) as u8; 12], [0; 16])]));
                }
            })
        };
        for _ in 0..2000 {
            assert!(t.stable(1, |e| e.version).is_multiple_of(2));
        }
        writer.join().unwrap();
        assert_eq!(t.stable(1, |e| e.version), 4000);
    }

    #[test]
    fn concurrent_entries_on_shared_shards() {
        use std::sync::Arc;
        let t = Arc::new(PageTable::new(8));
        let mut handles = Vec::new();
        for k in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let page = k * 1000 + i;
                    t.with(page, |e| e.frame = Some(page as u32));
                    assert_eq!(t.with(page, |e| e.frame), Some(page as u32));
                    t.with(page, |e| e.frame = None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut left = 0;
        t.for_each(|_, _| left += 1);
        assert_eq!(left, 0);
    }
}
