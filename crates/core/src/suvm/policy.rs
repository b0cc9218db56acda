//! EPC++ eviction policies.
//!
//! §3.2.2: "user code has full control over the spointer's page table,
//! page size, and eviction policy" — this module is that control
//! surface. [`EvictionPolicy`] separates victim *selection* from the
//! fault/eviction machinery in `suvm/fault.rs`: the runtime asks the
//! policy for candidates and reports insertions/accesses/removals; the
//! runtime alone decides pin-safety and performs the unmap/seal.
//!
//! Two policies ship: second-chance CLOCK (the default) and FIFO (what
//! the opaque SGX driver effectively does, and the paper's ablation
//! axis). Both sweep one hand under a mutex; CLOCK's reference bits are
//! plain atomics sized at construction, so the access path stays
//! lock-free.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::config::EvictPolicy;

/// Victim selection for the EPC++ frame pool.
///
/// The caller ([`super::Suvm`]) drives a bounded scan: it requests
/// [`Self::next_candidate`] up to `2n + 1` times, skips pinned and
/// empty frames itself, honors [`Self::second_chance`] only on the
/// first lap (`step < n`) so a full fruitless revolution still
/// evicts, and performs the actual unmap/seal.
pub trait EvictionPolicy: Send + Sync {
    /// A page was installed into `frame`.
    fn on_insert(&self, frame: u32);

    /// `frame` was touched (pinned) while resident.
    fn on_access(&self, frame: u32);

    /// `frame` was unmapped (evicted or decommitted).
    fn on_remove(&self, frame: u32);

    /// The frame index to consider at scan step `step` of `n` frames.
    fn next_candidate(&self, step: usize, n: usize) -> usize;

    /// Whether `frame` should be spared this pass (first lap only).
    /// May consume state (e.g. clear a reference bit) so a later pass
    /// succeeds.
    fn second_chance(&self, frame: u32) -> bool {
        let _ = frame;
        false
    }
}

/// Builds the policy object configured by [`EvictPolicy`] for a pool
/// of `n` frames.
pub(crate) fn build_policy(policy: EvictPolicy, n: usize) -> Box<dyn EvictionPolicy> {
    match policy {
        EvictPolicy::Clock => Box::new(ClockPolicy::new(n)),
        EvictPolicy::Fifo => Box::new(FifoPolicy::default()),
    }
}

/// Returns the frame under the hand and advances it one step.
fn sweep(hand: &Mutex<usize>, n: usize) -> usize {
    let mut hand = hand.lock();
    let idx = *hand % n;
    *hand = (*hand + 1) % n;
    idx
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
        sweep(&self.hand, n)
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
    fn on_insert(&self, _frame: u32) {}
    fn on_access(&self, _frame: u32) {}
    fn on_remove(&self, _frame: u32) {}

    fn next_candidate(&self, _step: usize, n: usize) -> usize {
        sweep(&self.hand, n)
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
    fn fifo_evicts_in_insertion_order_and_spares_nothing() {
        let p = build_policy(EvictPolicy::Fifo, 4);
        for f in 0..4 {
            p.on_insert(f);
        }
        // Frames fill in index order, so the hand's sweep is insertion
        // order; a touch in between buys frame 0 nothing.
        p.on_access(0);
        assert!(!p.second_chance(0), "FIFO ignores reuse");
        let seq: Vec<usize> = (0..6).map(|s| p.next_candidate(s, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
    }
}
