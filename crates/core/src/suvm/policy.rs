//! Pluggable EPC++ eviction policies.
//!
//! §3.2.2: "user code has full control over the spointer's page table,
//! page size, and eviction policy" — this module is that control
//! surface. [`EvictionPolicy`] separates victim *selection* from the
//! fault/eviction machinery in `suvm/fault.rs`: the runtime asks the
//! policy for candidates and reports insertions/accesses/removals; the
//! runtime alone decides pin-safety and performs the unmap/seal.
//!
//! Policies keep their own per-frame state (reference bits, stamps,
//! classes) in plain atomics sized at construction, so the hot paths
//! stay lock-free; CLOCK and FIFO share a hand under a mutex exactly
//! like the pre-refactor implementation, keeping single-threaded victim
//! sequences bit-identical to the old hard-coded path.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;

use crate::config::EvictPolicy;

/// Replacement class of a resident frame, for per-class statistics.
///
/// Single-class policies report everything as `Probation`; the
/// pin-aware SLRU promotes re-pinned frames to `Protected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimClass {
    /// Recently inserted, not yet proven hot.
    Probation,
    /// Re-accessed since insertion; evicted only after demotion.
    Protected,
}

/// Victim selection for the EPC++ frame pool.
///
/// The caller ([`super::Suvm`]) drives a bounded scan: it requests
/// [`Self::next_candidate`] up to `2n + 1` times, skips pinned and
/// empty frames itself, honors [`Self::second_chance`] only on the
/// first lap (`step < n`) so a full fruitless revolution still
/// evicts, and performs the actual unmap/seal.
pub trait EvictionPolicy: Send + Sync {
    /// Short label for stats and experiment output.
    fn name(&self) -> &'static str;

    /// A page was installed into `frame`.
    fn on_insert(&self, frame: u32);

    /// `frame` was touched (pinned) while resident.
    fn on_access(&self, frame: u32);

    /// `frame` was unmapped (evicted or decommitted).
    fn on_remove(&self, frame: u32);

    /// The frame index to consider at scan step `step` of `n` frames.
    fn next_candidate(&self, step: usize, n: usize) -> usize;

    /// Whether `frame` should be spared this pass (first lap only).
    /// May consume state (e.g. clear a reference bit or demote a
    /// class) so a later pass succeeds.
    fn second_chance(&self, frame: u32) -> bool {
        let _ = frame;
        false
    }

    /// The frame's current replacement class (statistics only).
    fn class_of(&self, frame: u32) -> VictimClass {
        let _ = frame;
        VictimClass::Probation
    }

    /// The current protected-class capacity, for policies that bound
    /// (and possibly tune) it. `None` for policies without a cap.
    fn protected_cap(&self) -> Option<usize> {
        None
    }
}

/// Builds the policy object configured by [`EvictPolicy`] for a pool
/// of `n` frames.
pub(crate) fn build_policy(policy: EvictPolicy, n: usize) -> Box<dyn EvictionPolicy> {
    match policy {
        EvictPolicy::Clock => Box::new(ClockPolicy::new(n)),
        EvictPolicy::Fifo => Box::new(FifoPolicy::default()),
        EvictPolicy::Random(seed) => Box::new(RandomPolicy::new(seed)),
        EvictPolicy::LruApprox(seed) => Box::new(LruApproxPolicy::new(n, seed)),
        EvictPolicy::Slru => Box::new(SlruPolicy::new(n)),
        EvictPolicy::SlruTuned => Box::new(TunedSlruPolicy::new(n)),
    }
}

// The pre-refactor Random walk: one multiply + xor-shift. Kept
// bit-exact so seeded experiments reproduce across the refactor.
#[inline]
fn splitmix_weak(x: u64) -> u64 {
    let mut x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x
}

// Full splitmix64 finalizer for the LRU sampler, whose quality depends
// on the low bits being well distributed.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Second-chance CLOCK (the default, and the paper's choice).
struct ClockPolicy {
    hand: Mutex<usize>,
    referenced: Vec<AtomicBool>,
}

impl ClockPolicy {
    fn new(n: usize) -> Self {
        let mut referenced = Vec::with_capacity(n);
        referenced.resize_with(n, || AtomicBool::new(false));
        Self {
            hand: Mutex::new(0),
            referenced,
        }
    }
}

impl EvictionPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_insert(&self, frame: u32) {
        self.referenced[frame as usize].store(true, Ordering::Release);
    }

    fn on_access(&self, frame: u32) {
        self.referenced[frame as usize].store(true, Ordering::Release);
    }

    fn on_remove(&self, frame: u32) {
        self.referenced[frame as usize].store(false, Ordering::Release);
    }

    fn next_candidate(&self, _step: usize, n: usize) -> usize {
        let mut hand = self.hand.lock();
        let idx = *hand % n;
        *hand = (*hand + 1) % n;
        idx
    }

    fn second_chance(&self, frame: u32) -> bool {
        self.referenced[frame as usize].swap(false, Ordering::AcqRel)
    }
}

/// FIFO: evict in residence order, ignoring reuse (what the opaque SGX
/// driver effectively does).
#[derive(Default)]
struct FifoPolicy {
    hand: Mutex<usize>,
}

impl EvictionPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_insert(&self, _frame: u32) {}
    fn on_access(&self, _frame: u32) {}
    fn on_remove(&self, _frame: u32) {}

    fn next_candidate(&self, _step: usize, n: usize) -> usize {
        let mut hand = self.hand.lock();
        let idx = *hand % n;
        *hand = (*hand + 1) % n;
        idx
    }
}

/// Deterministic pseudo-random victim selection (the adversarial
/// baseline).
struct RandomPolicy {
    seed: u64,
    ctr: AtomicU64,
}

impl RandomPolicy {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            ctr: AtomicU64::new(0),
        }
    }
}

impl EvictionPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn on_insert(&self, _frame: u32) {}
    fn on_access(&self, _frame: u32) {}
    fn on_remove(&self, _frame: u32) {}

    fn next_candidate(&self, step: usize, n: usize) -> usize {
        // Past one full lap of random draws, degrade to a linear sweep
        // so an eviction scan is guaranteed to visit every frame —
        // random draws alone can miss the single evictable frame for
        // all 2n+1 steps and fail a scan that should succeed.
        if step >= n {
            return step % n;
        }
        // Splitmix walk over a shared counter, matching the
        // pre-refactor sequence (counter starts at 1).
        let c = self.ctr.fetch_add(1, Ordering::Relaxed) + 1;
        (splitmix_weak(c.wrapping_add(self.seed)) as usize) % n
    }
}

/// How many frames [`LruApproxPolicy`] samples per candidate request.
const LRU_SAMPLE: usize = 8;

/// Sampled LRU: stamp frames on insert/access with a logical clock and
/// evict the oldest of a small random sample — Redis-style
/// approximation, O(1) per access with no global list.
struct LruApproxPolicy {
    seed: u64,
    tick: AtomicU64,
    ctr: AtomicU64,
    stamps: Vec<AtomicU64>,
}

impl LruApproxPolicy {
    fn new(n: usize, seed: u64) -> Self {
        let mut stamps = Vec::with_capacity(n);
        stamps.resize_with(n, || AtomicU64::new(u64::MAX));
        Self {
            seed,
            tick: AtomicU64::new(0),
            ctr: AtomicU64::new(0),
            stamps,
        }
    }

    fn stamp(&self, frame: u32) {
        let t = self.tick.fetch_add(1, Ordering::Relaxed);
        self.stamps[frame as usize].store(t, Ordering::Relaxed);
    }
}

impl EvictionPolicy for LruApproxPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&self, frame: u32) {
        self.stamp(frame);
    }

    fn on_access(&self, frame: u32) {
        self.stamp(frame);
    }

    fn on_remove(&self, frame: u32) {
        // MAX keeps empty frames out of future samples.
        self.stamps[frame as usize].store(u64::MAX, Ordering::Relaxed);
    }

    fn next_candidate(&self, step: usize, n: usize) -> usize {
        if step >= n {
            // Deterministic sweep fallback guarantees the bounded scan
            // terminates even if sampling keeps hitting unusable
            // frames.
            return step % n;
        }
        let mut best = 0usize;
        let mut best_stamp = u64::MAX;
        for _ in 0..LRU_SAMPLE.min(n) {
            let c = self.ctr.fetch_add(1, Ordering::Relaxed);
            let idx = (splitmix64(c.wrapping_add(self.seed)) as usize) % n;
            let s = self.stamps[idx].load(Ordering::Relaxed);
            if s <= best_stamp {
                best_stamp = s;
                best = idx;
            }
        }
        best
    }
}

/// Pin-aware segmented LRU: frames enter on probation; a re-pin after
/// insertion (a linked spointer or any repeat access) promotes them to
/// a protected class that the sweep demotes instead of evicting —
/// working-set pages survive one extra revolution even after their
/// pins drop.
struct SlruPolicy {
    hand: Mutex<usize>,
    class: Vec<AtomicU8>,
    referenced: Vec<AtomicBool>,
}

const CLASS_PROBATION: u8 = 0;
const CLASS_PROTECTED: u8 = 1;

impl SlruPolicy {
    fn new(n: usize) -> Self {
        let mut class = Vec::with_capacity(n);
        class.resize_with(n, || AtomicU8::new(CLASS_PROBATION));
        let mut referenced = Vec::with_capacity(n);
        referenced.resize_with(n, || AtomicBool::new(false));
        Self {
            hand: Mutex::new(0),
            class,
            referenced,
        }
    }
}

impl EvictionPolicy for SlruPolicy {
    fn name(&self) -> &'static str {
        "slru"
    }

    fn on_insert(&self, frame: u32) {
        self.class[frame as usize].store(CLASS_PROBATION, Ordering::Release);
        self.referenced[frame as usize].store(true, Ordering::Release);
    }

    fn on_access(&self, frame: u32) {
        self.referenced[frame as usize].store(true, Ordering::Release);
        self.class[frame as usize].store(CLASS_PROTECTED, Ordering::Release);
    }

    fn on_remove(&self, frame: u32) {
        self.class[frame as usize].store(CLASS_PROBATION, Ordering::Release);
        self.referenced[frame as usize].store(false, Ordering::Release);
    }

    fn next_candidate(&self, _step: usize, n: usize) -> usize {
        let mut hand = self.hand.lock();
        let idx = *hand % n;
        *hand = (*hand + 1) % n;
        idx
    }

    fn second_chance(&self, frame: u32) -> bool {
        let i = frame as usize;
        if self.class[i].swap(CLASS_PROBATION, Ordering::AcqRel) == CLASS_PROTECTED {
            // Demote instead of evicting; the bit buys one more lap.
            self.referenced[i].store(false, Ordering::Release);
            return true;
        }
        self.referenced[i].swap(false, Ordering::AcqRel)
    }

    fn class_of(&self, frame: u32) -> VictimClass {
        if self.class[frame as usize].load(Ordering::Acquire) == CLASS_PROTECTED {
            VictimClass::Protected
        } else {
            VictimClass::Probation
        }
    }
}

/// Accesses between self-tuning windows of [`TunedSlruPolicy`].
const TUNE_WINDOW: u64 = 256;

/// SLRU with a *bounded, self-tuning* protected class. The plain
/// [`SlruPolicy`] promotes every re-accessed frame, so a scan-heavy
/// phase can flood the protected class and starve the working set.
/// This variant caps promotions at a protected capacity and retunes
/// the cap from per-class hit feedback every [`TUNE_WINDOW`] accesses:
///
/// - probation earning most of the hits (`2 * probation_hits >
///   total_hits`) means hot frames are stuck below the cap — grow it
///   by `n/8` (up to `7n/8`);
/// - protected dominating (`total_hits > 3 * probation_hits`) means
///   the class already holds the working set and is hoarding frames —
///   shrink by `n/8` (down to `n/8`).
///
/// This is the same hit/eviction feedback loop the storage tier's
/// slab rebalancer runs, applied to paging frames.
struct TunedSlruPolicy {
    hand: Mutex<usize>,
    n: usize,
    class: Vec<AtomicU8>,
    referenced: Vec<AtomicBool>,
    cap: AtomicU64,
    protected: AtomicU64,
    hits_probation: AtomicU64,
    hits_total: AtomicU64,
}

impl TunedSlruPolicy {
    fn new(n: usize) -> Self {
        let mut class = Vec::with_capacity(n);
        class.resize_with(n, || AtomicU8::new(CLASS_PROBATION));
        let mut referenced = Vec::with_capacity(n);
        referenced.resize_with(n, || AtomicBool::new(false));
        Self {
            hand: Mutex::new(0),
            n,
            class,
            referenced,
            cap: AtomicU64::new((n / 2).max(1) as u64),
            protected: AtomicU64::new(0),
            hits_probation: AtomicU64::new(0),
            hits_total: AtomicU64::new(0),
        }
    }

    fn step(&self) -> u64 {
        (self.n / 8).max(1) as u64
    }

    fn retune(&self) {
        let hp = self.hits_probation.swap(0, Ordering::Relaxed);
        let ht = self.hits_total.swap(0, Ordering::Relaxed);
        let cap = self.cap.load(Ordering::Relaxed);
        let lo = self.step();
        let hi = ((self.n * 7) / 8).max(1) as u64;
        if 2 * hp > ht {
            self.cap
                .store((cap + self.step()).min(hi), Ordering::Relaxed);
        } else if ht > 3 * hp {
            self.cap
                .store(cap.saturating_sub(self.step()).max(lo), Ordering::Relaxed);
        }
    }
}

impl EvictionPolicy for TunedSlruPolicy {
    fn name(&self) -> &'static str {
        "slru-tuned"
    }

    fn on_insert(&self, frame: u32) {
        self.class[frame as usize].store(CLASS_PROBATION, Ordering::Release);
        self.referenced[frame as usize].store(true, Ordering::Release);
    }

    fn on_access(&self, frame: u32) {
        let i = frame as usize;
        self.referenced[i].store(true, Ordering::Release);
        let ht = self.hits_total.fetch_add(1, Ordering::Relaxed) + 1;
        if self.class[i].load(Ordering::Acquire) == CLASS_PROTECTED {
            // Already protected: a pure protected-class hit.
        } else {
            self.hits_probation.fetch_add(1, Ordering::Relaxed);
            // Promote only while the protected class has room.
            if self.protected.load(Ordering::Relaxed) < self.cap.load(Ordering::Relaxed)
                && self.class[i].swap(CLASS_PROTECTED, Ordering::AcqRel) == CLASS_PROBATION
            {
                self.protected.fetch_add(1, Ordering::Relaxed);
            }
        }
        if ht.is_multiple_of(TUNE_WINDOW) {
            self.retune();
        }
    }

    fn on_remove(&self, frame: u32) {
        let i = frame as usize;
        if self.class[i].swap(CLASS_PROBATION, Ordering::AcqRel) == CLASS_PROTECTED {
            self.protected.fetch_sub(1, Ordering::Relaxed);
        }
        self.referenced[i].store(false, Ordering::Release);
    }

    fn next_candidate(&self, _step: usize, n: usize) -> usize {
        let mut hand = self.hand.lock();
        let idx = *hand % n;
        *hand = (*hand + 1) % n;
        idx
    }

    fn second_chance(&self, frame: u32) -> bool {
        let i = frame as usize;
        if self.class[i].swap(CLASS_PROBATION, Ordering::AcqRel) == CLASS_PROTECTED {
            self.protected.fetch_sub(1, Ordering::Relaxed);
            self.referenced[i].store(false, Ordering::Release);
            return true;
        }
        self.referenced[i].swap(false, Ordering::AcqRel)
    }

    fn class_of(&self, frame: u32) -> VictimClass {
        if self.class[frame as usize].load(Ordering::Acquire) == CLASS_PROTECTED {
            VictimClass::Protected
        } else {
            VictimClass::Probation
        }
    }

    fn protected_cap(&self) -> Option<usize> {
        Some(self.cap.load(Ordering::Relaxed) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_matches_pre_refactor_hand_sequence() {
        let p = build_policy(EvictPolicy::Clock, 4);
        let seq: Vec<usize> = (0..6).map(|s| p.next_candidate(s, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
        p.on_insert(2);
        assert!(p.second_chance(2), "referenced frame gets a pass");
        assert!(!p.second_chance(2), "the pass clears the bit");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = build_policy(EvictPolicy::Random(7), 16);
        let b = build_policy(EvictPolicy::Random(7), 16);
        for s in 0..32 {
            assert_eq!(a.next_candidate(s, 16), b.next_candidate(s, 16));
        }
        assert!(!a.second_chance(3), "random never spares");
    }

    #[test]
    fn lru_sampling_prefers_older_stamps() {
        let p = build_policy(EvictPolicy::LruApprox(1), 8);
        for f in 0..8u32 {
            p.on_insert(f);
        }
        // Touch everything except frame 3; the old stamp must win the
        // sample often enough to appear as a candidate.
        for f in (0..8u32).filter(|&f| f != 3) {
            p.on_access(f);
            p.on_access(f);
        }
        let picked = (0..8).map(|s| p.next_candidate(s, 8)).any(|c| c == 3);
        assert!(picked, "stale frame must be sampled as a victim");
        // Fallback sweep covers every frame.
        assert_eq!(p.next_candidate(8, 8), 0);
        assert_eq!(p.next_candidate(11, 8), 3);
    }

    #[test]
    fn tuned_slru_caps_promotions() {
        let p = build_policy(EvictPolicy::SlruTuned, 16);
        assert_eq!(p.protected_cap(), Some(8), "cap starts at n/2");
        for f in 0..16u32 {
            p.on_insert(f);
        }
        // Promote up to the cap...
        for f in 0..8u32 {
            p.on_access(f);
            assert_eq!(p.class_of(f), VictimClass::Protected);
        }
        // ...after which re-accessed frames stay on probation.
        p.on_access(9);
        assert_eq!(p.class_of(9), VictimClass::Probation);
        // A demotion frees a slot, so the next access promotes again.
        assert!(
            p.second_chance(0),
            "protected frame is demoted, not evicted"
        );
        p.on_access(9);
        assert_eq!(p.class_of(9), VictimClass::Protected);
    }

    #[test]
    fn tuned_slru_grows_cap_on_probation_hits() {
        let p = build_policy(EvictPolicy::SlruTuned, 16);
        for f in 0..16u32 {
            p.on_insert(f);
        }
        // Fill the protected class, then hammer the *other* frames:
        // every hit lands on probation (the cap blocks promotion), so
        // the feedback loop must conclude the cap is too small.
        for f in 0..8u32 {
            p.on_access(f);
        }
        for i in 0..512u32 {
            p.on_access(8 + (i % 8));
        }
        assert!(
            p.protected_cap().unwrap() > 8,
            "cap must grow, got {:?}",
            p.protected_cap()
        );
    }

    #[test]
    fn tuned_slru_shrinks_cap_when_protected_dominates() {
        let p = build_policy(EvictPolicy::SlruTuned, 16);
        for f in 0..16u32 {
            p.on_insert(f);
        }
        for f in 0..8u32 {
            p.on_access(f);
        }
        // Every subsequent hit lands on already-protected frames: the
        // class holds the whole working set and should give frames
        // back.
        for i in 0..512u32 {
            p.on_access(i % 8);
        }
        assert!(
            p.protected_cap().unwrap() < 8,
            "cap must shrink, got {:?}",
            p.protected_cap()
        );
        // The floor holds.
        for i in 0..4096u32 {
            p.on_access(i % 8);
        }
        assert!(p.protected_cap().unwrap() >= 2, "cap floor is n/8");
    }

    #[test]
    fn slru_promotes_and_demotes() {
        let p = build_policy(EvictPolicy::Slru, 4);
        p.on_insert(1);
        assert_eq!(p.class_of(1), VictimClass::Probation);
        p.on_access(1);
        assert_eq!(p.class_of(1), VictimClass::Protected);
        // First pass demotes, second spends the reference bit, third
        // evicts.
        assert!(p.second_chance(1));
        assert_eq!(p.class_of(1), VictimClass::Probation);
        assert!(!p.second_chance(1));
        p.on_remove(1);
        assert_eq!(p.class_of(1), VictimClass::Probation);
    }
}
