//! A per-core TLB model.
//!
//! SGX flushes the TLB on every enclave exit (synchronous or AEX), which
//! is one of the two indirect costs the paper quantifies (§2.2.1,
//! Fig 2b): pointer-chasing workloads re-walk the page tables after
//! every exit. The TLB is owned by its core's thread — the driver never
//! touches it directly; shootdowns arrive as interrupts via
//! [`crate::clock::CoreClock::post_interrupt`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fully associative, LRU-replaced translation cache.
///
/// A lookup is one hash probe, and so is an eviction: the entries are
/// threaded on a recency list whose tail is always the exact least
/// recently used one.
#[derive(Debug)]
pub struct Tlb {
    /// `(asid, vpn)` → slot in `nodes`.
    map: HashMap<(u32, u64), u32, BuildHasherDefault<KeyHasher>>,
    /// Slab of entries; a flushed entry's slot goes on `free`.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Most recently used entry, or [`NIL`].
    head: u32,
    /// Least recently used entry — the next victim — or [`NIL`].
    tail: u32,
    capacity: usize,
}

/// One cached translation, linked MRU → LRU through `next`.
#[derive(Debug, Clone, Copy)]
struct Node {
    asid: u32,
    vpn: u64,
    prev: u32,
    next: u32,
}

/// No slot: the end of the recency list.
const NIL: u32 = u32::MAX;

/// A multiply-rotate hash (the `FxHash` step) over the `(asid, vpn)`
/// words: a few cycles instead of SipHash's keyed rounds, which a TLB
/// nobody can feed adversarial keys has no use for.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Default number of entries (Skylake L2 STLB order of magnitude is
/// 1536; we default lower so flush effects show at microbench scale
/// while remaining configurable).
pub const DEFAULT_TLB_ENTRIES: usize = 512;

impl Default for Tlb {
    fn default() -> Self {
        Self::new(DEFAULT_TLB_ENTRIES)
    }
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity < NIL as usize);
        Self {
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Looks up `(asid, vpn)`; on a miss the translation is inserted
    /// (the page walk is assumed to succeed — residency faults are
    /// raised by the page-table layer before the walk completes).
    /// Returns `true` on a hit.
    pub fn access(&mut self, asid: u32, vpn: u64) -> bool {
        if let Some(&slot) = self.map.get(&(asid, vpn)) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        let node = Node {
            asid,
            vpn,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.map.len() == self.capacity {
            let victim = self.tail;
            let old = self.nodes[victim as usize];
            self.map.remove(&(old.asid, old.vpn));
            self.unlink(victim);
            self.nodes[victim as usize] = node;
            victim
        } else if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.push_front(slot);
        self.map.insert((asid, vpn), slot);
        false
    }

    /// Checks membership without altering LRU state.
    #[must_use]
    pub fn contains(&self, asid: u32, vpn: u64) -> bool {
        self.map.contains_key(&(asid, vpn))
    }

    /// Drops everything (enclave exit, AEX).
    pub fn flush(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Drops one translation (single-page shootdown).
    pub fn flush_page(&mut self, asid: u32, vpn: u64) {
        if let Some(slot) = self.map.remove(&(asid, vpn)) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Drops all translations of one address space — what `EEXIT`/AEX do
    /// to the enclave's mappings while untrusted mappings survive.
    pub fn flush_asid(&mut self, asid: u32) {
        let mut slot = self.head;
        while slot != NIL {
            let node = self.nodes[slot as usize];
            if node.asid == asid {
                self.map.remove(&(node.asid, node.vpn));
                self.unlink(slot);
                self.free.push(slot);
            }
            slot = node.next;
        }
    }

    /// Current number of cached translations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the TLB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Makes `slot` the most recently used entry.
    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert!(!t.access(1, 100));
        assert!(t.access(1, 100));
        assert!(!t.access(2, 100), "asid must disambiguate");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0, 1);
        t.access(0, 2);
        t.access(0, 1); // refresh 1; LRU is now 2
        t.access(0, 3); // evicts 2
        assert!(t.contains(0, 1));
        assert!(!t.contains(0, 2));
        assert!(t.contains(0, 3));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(8);
        t.access(0, 1);
        t.access(0, 2);
        t.flush();
        assert!(t.is_empty());
        assert!(!t.access(0, 1), "post-flush access misses");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut t = Tlb::new(8);
        t.access(1, 10);
        t.access(2, 20);
        t.access(1, 30);
        t.flush_asid(1);
        assert!(!t.contains(1, 10));
        assert!(!t.contains(1, 30));
        assert!(t.contains(2, 20));
    }

    #[test]
    fn flush_single_page() {
        let mut t = Tlb::new(8);
        t.access(7, 1);
        t.access(7, 2);
        t.flush_page(7, 1);
        assert!(!t.contains(7, 1));
        assert!(t.contains(7, 2));
        assert_eq!(t.len(), 1);
    }
}
