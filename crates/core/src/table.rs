//! SUVM's in-enclave page tables (§4.1).
//!
//! Two tables, both hash tables "with fine-grained locking, using
//! separate spin-locks for each bucket", pre-allocated large to ease
//! contention:
//!
//! - the **inverse page table** ([`InversePt`]): backing-store page →
//!   EPC++ frame;
//! - the **crypto-metadata table** ([`CryptoTable`]): backing-store
//!   page → nonce + HMAC of each sealed unit of its copy, and when
//!   the page's last two reads missed EPC++.
//!
//! Both conceptually live in EPC; like the paper's prototype, SUVM does
//! not evict its own metadata (§4.2).

use eleos_crypto::gcm::{Nonce, Tag};
use parking_lot::Mutex;

/// Sentinel: no page.
pub const NO_PAGE: u64 = u64::MAX;

/// A guarded bucket of `(page, frame)` pairs.
type Bucket = Mutex<Vec<(u64, u32)>>;

/// The inverse page table.
pub struct InversePt {
    buckets: Vec<Bucket>,
    mask: usize,
}

impl InversePt {
    /// Creates a table with at least `min_buckets` buckets.
    #[must_use]
    pub fn new(min_buckets: usize) -> Self {
        let n = min_buckets.next_power_of_two().max(16);
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || Mutex::new(Vec::new()));
        Self {
            buckets,
            mask: n - 1,
        }
    }

    fn bucket(&self, page: u64) -> &Bucket {
        // Fibonacci hashing spreads sequential page numbers.
        let h = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize;
        &self.buckets[h & self.mask]
    }

    /// Runs `f` with the bucket of `page` locked. `f` gets the bucket
    /// contents and may mutate them.
    pub fn with_bucket<R>(&self, page: u64, f: impl FnOnce(&mut Vec<(u64, u32)>) -> R) -> R {
        f(&mut self.bucket(page).lock())
    }

    /// Looks up the frame of `page` (no side effects).
    #[must_use]
    pub fn lookup(&self, page: u64) -> Option<u32> {
        self.bucket(page)
            .lock()
            .iter()
            .find(|(p, _)| *p == page)
            .map(|&(_, f)| f)
    }

    /// Inserts a mapping; the page must not be mapped.
    pub fn insert(&self, page: u64, frame: u32) {
        let mut b = self.bucket(page).lock();
        debug_assert!(b.iter().all(|(p, _)| *p != page));
        b.push((page, frame));
    }

    /// Removes a mapping, returning its frame.
    pub fn remove(&self, page: u64) -> Option<u32> {
        let mut b = self.bucket(page).lock();
        let idx = b.iter().position(|(p, _)| *p == page)?;
        Some(b.swap_remove(idx).1)
    }

    /// Number of live mappings (diagnostics; takes every lock).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().len()).sum()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a page's bytes exist in the backing store.
#[derive(Clone)]
pub enum SealState {
    /// Never evicted: the backing store holds nothing; a fault
    /// zero-fills.
    Fresh,
    /// Sealed as independently authenticated units of the store's
    /// sub-page size — one unit when that is the page size.
    SubPages {
        /// Per-unit `(nonce, tag)` in order.
        meta: Box<[(Nonce, Tag)]>,
    },
    /// Sealed once, but the page is resident and has been written
    /// since: its next eviction overwrites the sealed copy unread, so
    /// the copy was dropped and its bytes released. The page stays
    /// resident and dirty until that eviction seals it again.
    NoCopy,
}

impl SealState {
    /// Whether the backing store holds a valid sealed copy.
    #[must_use]
    pub fn has_copy(&self) -> bool {
        matches!(self, SealState::SubPages { .. })
    }
}

/// What [`CryptoTable::read_unit`] finds of one unit of a page.
pub(crate) enum Unit {
    /// The page is [`SealState::Fresh`].
    Fresh,
    /// The page is [`SealState::NoCopy`].
    NoCopy,
    /// The page is sealed; the unit's nonce and tag.
    Sealed(Nonce, Tag),
}

/// One page's entry: seqlock version, seal state, and the readings of
/// the owner's read-miss clock at the page's last two read misses,
/// latest first (0 = none yet).
type Entry = (u64, SealState, [u64; 2]);

/// The crypto-metadata table: sharded `page -> Entry`.
///
/// The version implements a per-page **seqlock** over the pair
/// (metadata, sealed bytes in the untrusted backing store): sealing a
/// page bumps the version to odd, rewrites the ciphertext, then
/// commits the new nonce/tag and bumps to even. A concurrent reader
/// that unseals with a torn (meta, ciphertext) pair sees either an odd
/// version or a version change, and retries — only a *stable* version
/// with a failing tag is evidence of tampering.
pub struct CryptoTable {
    shards: Vec<Mutex<std::collections::HashMap<u64, Entry>>>,
    mask: usize,
    live: std::sync::atomic::AtomicUsize,
}

impl CryptoTable {
    /// Creates a table with `shards` lock shards (rounded to 2^n).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(8);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Mutex::new(std::collections::HashMap::new()));
        Self {
            shards: v,
            mask: n - 1,
            live: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of pages with recorded seal metadata.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn shard(&self, page: u64) -> &Mutex<std::collections::HashMap<u64, Entry>> {
        let h = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize;
        &self.shards[h & self.mask]
    }

    /// Returns `(version, state)` of `page`, spinning past in-progress
    /// writes (odd versions). Unknown pages read as `(0, Fresh)`.
    #[must_use]
    pub fn read(&self, page: u64) -> (u64, SealState) {
        self.read_with(page, SealState::clone)
    }

    /// [`Self::read`] of one unit, `sub`: its nonce and tag are copied
    /// out, and nothing of the page's metadata is cloned.
    pub(crate) fn read_unit(&self, page: u64, sub: usize) -> (u64, Unit) {
        self.read_with(page, |state| match state {
            SealState::Fresh => Unit::Fresh,
            SealState::NoCopy => Unit::NoCopy,
            SealState::SubPages { meta } => Unit::Sealed(meta[sub].0, meta[sub].1),
        })
    }

    /// Applies `f` to `page`'s state at a stable version, under the
    /// shard's lock, and returns the version with `f`'s result.
    fn read_with<R>(&self, page: u64, f: impl FnOnce(&SealState) -> R) -> (u64, R) {
        loop {
            {
                let g = self.shard(page).lock();
                match g.get(&page) {
                    None => return (0, f(&SealState::Fresh)),
                    Some((v, state, _)) if v.is_multiple_of(2) => return (*v, f(state)),
                    _ => {}
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Whether the backing store holds a sealed copy of `page`.
    pub(crate) fn has_copy(&self, page: u64) -> bool {
        let g = self.shard(page).lock();
        g.get(&page).is_some_and(|e| e.1.has_copy())
    }

    /// Returns the seal state of `page` (`Fresh` if unknown).
    #[must_use]
    pub fn get(&self, page: u64) -> SealState {
        self.read(page).1
    }

    /// Whether `page`'s version is still `v`.
    #[must_use]
    pub fn check(&self, page: u64, v: u64) -> bool {
        let g = self.shard(page).lock();
        match g.get(&page) {
            None => v == 0,
            Some((cur, ..)) => *cur == v,
        }
    }

    /// Starts a (re-)seal of `page`: bumps the version to odd and
    /// returns it. Spins if another writer is in progress.
    pub fn begin_write(&self, page: u64) -> u64 {
        loop {
            if let Some(version) = self.try_begin_write(page) {
                return version;
            }
            std::hint::spin_loop();
        }
    }

    /// [`Self::begin_write`] without the wait: `None`, and nothing
    /// done, when another writer is in progress. For a caller that
    /// holds a lock it must not spin under.
    #[must_use]
    pub(crate) fn try_begin_write(&self, page: u64) -> Option<u64> {
        let mut g = self.shard(page).lock();
        let mut inserted = false;
        let e = g.entry(page).or_insert_with(|| {
            inserted = true;
            (0, SealState::Fresh, [0; 2])
        });
        if inserted {
            self.live.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        if !e.0.is_multiple_of(2) {
            return None;
        }
        e.0 += 1;
        Some(e.0)
    }

    /// Drops `page`'s sealed copy once its resident frame has been
    /// written: a stable [`SealState::SubPages`] entry becomes
    /// [`SealState::NoCopy`] two versions on, so a reader that loaded
    /// the copy's version sees it change and retries. The miss stamps
    /// and the entry stay, so [`Self::live_entries`] does not move.
    /// Waits out a writer in progress. Returns whether a copy was
    /// dropped: the caller then releases its bytes.
    pub(crate) fn drop_copy(&self, page: u64) -> bool {
        loop {
            {
                let mut g = self.shard(page).lock();
                match g.get_mut(&page) {
                    Some((v, state @ SealState::SubPages { .. }, _)) if v.is_multiple_of(2) => {
                        *v += 2;
                        *state = SealState::NoCopy;
                        return true;
                    }
                    Some((v, ..)) if !v.is_multiple_of(2) => {}
                    _ => return false,
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Commits a seal started by [`Self::begin_write`].
    pub fn commit_write(&self, page: u64, state: SealState) {
        let mut g = self.shard(page).lock();
        let e = g.get_mut(&page).expect("commit without begin");
        debug_assert_eq!(e.0 % 2, 1, "commit without begin");
        e.0 += 1;
        e.1 = state;
    }

    /// Reads the state without waiting for version stability — only
    /// valid for the thread that currently holds the write (between
    /// [`Self::begin_write`] and [`Self::commit_write`]).
    #[must_use]
    pub fn get_unchecked(&self, page: u64) -> SealState {
        self.shard(page)
            .lock()
            .get(&page)
            .map(|(_, s, _)| s.clone())
            .unwrap_or(SealState::Fresh)
    }

    /// Stamps `page` as having missed on a read at miss-clock `now`
    /// and returns its previous two stamps, latest first (0 where it
    /// has none, or no entry). The stamp two back shifts out.
    pub(crate) fn stamp_miss(&self, page: u64, now: u64) -> [u64; 2] {
        let mut g = self.shard(page).lock();
        g.get_mut(&page).map_or([0; 2], |e| {
            let last = e.2;
            e.2 = [now, last[0]];
            last
        })
    }

    /// Forgets `page` (decommit), waiting out any in-flight writer.
    pub fn clear(&self, page: u64) {
        loop {
            {
                let mut g = self.shard(page).lock();
                match g.get(&page) {
                    None => return,
                    Some((v, ..)) if v % 2 == 0 => {
                        g.remove(&page);
                        self.live.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                        return;
                    }
                    _ => {}
                }
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let pt = InversePt::new(16);
        assert_eq!(pt.lookup(5), None);
        pt.insert(5, 2);
        pt.insert(5 + 16, 3); // likely same bucket family, different page
        assert_eq!(pt.lookup(5), Some(2));
        assert_eq!(pt.lookup(21), Some(3));
        assert_eq!(pt.remove(5), Some(2));
        assert_eq!(pt.lookup(5), None);
        assert_eq!(pt.remove(5), None);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn with_bucket_mutation() {
        let pt = InversePt::new(16);
        pt.insert(7, 1);
        let found = pt.with_bucket(7, |b| b.iter().any(|(p, _)| *p == 7));
        assert!(found);
    }

    #[test]
    fn many_pages_no_collision_errors() {
        let pt = InversePt::new(64);
        for p in 0..1000u64 {
            pt.insert(p, p as u32);
        }
        assert_eq!(pt.len(), 1000);
        for p in 0..1000u64 {
            assert_eq!(pt.lookup(p), Some(p as u32), "page {p}");
        }
    }

    #[test]
    fn crypto_table_states() {
        let ct = CryptoTable::new(8);
        assert!(!ct.get(9).has_copy());
        ct.begin_write(9);
        ct.commit_write(
            9,
            SealState::SubPages {
                meta: Box::new([([1; 12], [2; 16])]),
            },
        );
        assert!(ct.get(9).has_copy());
        match ct.get(9) {
            SealState::SubPages { meta } => assert_eq!(*meta, [([1; 12], [2; 16])]),
            _ => panic!("wrong state"),
        }
        ct.clear(9);
        assert!(!ct.get(9).has_copy());
    }

    #[test]
    fn miss_stamps_live_and_die_with_the_entry() {
        let ct = CryptoTable::new(8);
        assert_eq!(ct.stamp_miss(4, 7), [0, 0], "no entry, nothing to stamp");
        assert_eq!(ct.stamp_miss(4, 8), [0, 0]);
        ct.begin_write(4);
        ct.commit_write(4, SealState::SubPages { meta: Box::new([]) });
        assert_eq!(ct.stamp_miss(4, 9), [0, 0], "first miss of a sealed page");
        assert_eq!(ct.stamp_miss(4, 12), [9, 0]);
        assert_eq!(ct.stamp_miss(4, 15), [12, 9], "the stamps shift");
        // A re-seal keeps both stamps; a decommit forgets both.
        ct.begin_write(4);
        ct.commit_write(4, SealState::SubPages { meta: Box::new([]) });
        assert_eq!(ct.stamp_miss(4, 16), [15, 12]);
        ct.clear(4);
        assert_eq!(ct.stamp_miss(4, 17), [0, 0]);
    }

    #[test]
    fn crypto_table_seqlock_versions() {
        let ct = CryptoTable::new(8);
        let (v0, _) = ct.read(5);
        assert_eq!(v0, 0);
        assert!(ct.check(5, 0));
        ct.begin_write(5);
        // In-flight write: the stable version is gone.
        assert!(!ct.check(5, 0));
        ct.commit_write(
            5,
            SealState::SubPages {
                meta: Box::new([([0; 12], [0; 16])]),
            },
        );
        let (v1, s) = ct.read(5);
        assert_eq!(v1, 2);
        assert!(s.has_copy());
        assert!(ct.check(5, 2));
        assert!(!ct.check(5, 0));
    }

    #[test]
    fn crypto_table_concurrent_read_write() {
        use std::sync::Arc;
        let ct = Arc::new(CryptoTable::new(8));
        let writer = {
            let ct = Arc::clone(&ct);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    ct.begin_write(1);
                    ct.commit_write(
                        1,
                        SealState::SubPages {
                            meta: Box::new([([(i % 251) as u8; 12], [0; 16])]),
                        },
                    );
                }
            })
        };
        // Readers must only ever observe even versions.
        for _ in 0..2000 {
            let (v, _) = ct.read(1);
            assert_eq!(v % 2, 0);
        }
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_bucket_access() {
        use std::sync::Arc;
        let pt = Arc::new(InversePt::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pt = Arc::clone(&pt);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let page = t * 1000 + i;
                    pt.insert(page, page as u32);
                    assert_eq!(pt.lookup(page), Some(page as u32));
                    assert_eq!(pt.remove(page), Some(page as u32));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pt.is_empty());
    }
}
