//! The EPC++ victim hand.
//!
//! §3.2.2: "user code has full control over the spointer's page table,
//! page size, and eviction policy" — [`crate::EvictPolicy`] is that
//! control. Both policies are one hand sweeping the frame pool under a
//! mutex: CLOCK spares a referenced frame once per lap, FIFO (what the
//! opaque SGX driver effectively does) is the same hand with no second
//! chance. The reference bits are plain atomics sized at construction,
//! so the access path stays lock-free. The hand only proposes frames;
//! `Suvm::scan_victims` decides pin-safety and the release path does
//! the unmap and seal.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::config::EvictPolicy;

/// One CLOCK hand plus one reference bit per frame.
pub(super) struct ClockHand {
    /// Whether a referenced frame is spared (CLOCK) or not (FIFO).
    second_chance: bool,
    hand: Mutex<usize>,
    referenced: Vec<AtomicBool>,
}

impl ClockHand {
    /// A hand over `n` frames, starting at frame 0.
    pub(super) fn new(policy: EvictPolicy, n: usize) -> Self {
        let mut referenced = Vec::with_capacity(n);
        referenced.resize_with(n, || AtomicBool::new(false));
        Self {
            second_chance: policy == EvictPolicy::Clock,
            hand: Mutex::new(0),
            referenced,
        }
    }

    /// `frame` was filled or pinned.
    pub(super) fn touch(&self, frame: u32) {
        self.referenced[frame as usize].store(true, Ordering::Release);
    }

    /// `frame` was vacated.
    pub(super) fn forget(&self, frame: u32) {
        self.referenced[frame as usize].store(false, Ordering::Release);
    }

    /// Returns the frame under the hand and advances it one step.
    pub(super) fn advance(&self) -> usize {
        let mut hand = self.hand.lock();
        let idx = *hand;
        *hand = (idx + 1) % self.referenced.len();
        idx
    }

    /// Whether `frame` is spared this pass. Under CLOCK this consumes
    /// its reference bit, so the next pass takes it; FIFO spares
    /// nothing.
    pub(super) fn spare(&self, frame: u32) -> bool {
        self.second_chance && self.referenced[frame as usize].swap(false, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_sweeps_in_frame_order_and_spares_once() {
        let h = ClockHand::new(EvictPolicy::Clock, 4);
        let seq: Vec<usize> = (0..6).map(|_| h.advance()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
        h.touch(2);
        assert!(h.spare(2), "referenced frame gets a pass");
        assert!(!h.spare(2), "the pass clears the bit");
        h.touch(3);
        h.forget(3);
        assert!(!h.spare(3), "a vacated frame has no reference");
    }

    #[test]
    fn fifo_evicts_in_insertion_order_and_spares_nothing() {
        let h = ClockHand::new(EvictPolicy::Fifo, 4);
        for f in 0..4 {
            h.touch(f);
        }
        // Frames fill in index order, so the hand's sweep is insertion
        // order; a touch in between buys frame 0 nothing.
        h.touch(0);
        assert!(!h.spare(0), "FIFO ignores reuse");
        let seq: Vec<usize> = (0..6).map(|_| h.advance()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
    }
}
