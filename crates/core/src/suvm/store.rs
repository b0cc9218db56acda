//! The sealed backing store for SUVM.
//!
//! §3.2.3 puts the sealed page images in untrusted memory managed by a
//! memsys5-style buddy allocator, with the crypto metadata (nonce, tag,
//! version) in an in-enclave table. [`SealedBuddyStore`] is that
//! layout — one untrusted region, one buddy allocator behind one mutex,
//! one page table, which also records where each page is resident — so
//! [`super::Suvm`] only deals in secure virtual addresses: offsets into
//! the store's one contiguous space.

use std::sync::Arc;

use parking_lot::Mutex;

use eleos_enclave::machine::SgxMachine;
use eleos_sim::alloc::{AllocError, BuddyAllocator};

use crate::table::PageTable;

/// Where sealed page images live and how their space is managed.
pub(super) struct SealedBuddyStore {
    base: u64,
    alloc: Mutex<BuddyAllocator>,
    /// The page table: each page's frame and seal state.
    pub(super) seals: PageTable,
    page_size: u64,
}

impl SealedBuddyStore {
    pub(super) fn new(machine: &Arc<SgxMachine>, backing_bytes: usize, page_size: usize) -> Self {
        Self {
            base: machine.alloc_untrusted(backing_bytes),
            alloc: Mutex::new(BuddyAllocator::new(backing_bytes as u64, 16)),
            seals: PageTable::new(64),
            page_size: page_size as u64,
        }
    }

    /// Allocates `len` bytes of secure virtual space.
    pub(super) fn alloc(&self, len: usize) -> Result<u64, AllocError> {
        self.alloc.lock().alloc(len)
    }

    /// Frees the allocation at `sva`, returning its block size.
    pub(super) fn free(&self, sva: u64) -> Result<u64, AllocError> {
        self.alloc.lock().free(sva)
    }

    /// Untrusted address of byte `in_page` of `page`'s sealed image.
    pub(super) fn addr_of(&self, page: u64, in_page: usize) -> u64 {
        self.base + page * self.page_size + in_page as u64
    }
}
