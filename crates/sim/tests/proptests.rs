//! Property-based tests for the machine-model substrate.

use eleos_sim::alloc::BuddyAllocator;
use eleos_sim::costs::{AccessKind, PAGE_SIZE};
use eleos_sim::llc::{CacheCtx, Llc, LlcConfig};
use eleos_sim::mem::PagedMem;
use eleos_sim::tlb::Tlb;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The `Vec`-scan TLB that [`Tlb`] replaced (PR 26), kept verbatim bar
/// its unread counters: the oracle its O(1) successor must match step
/// for step. The minimum tick is the least recently used entry because
/// ticks are unique.
struct RefTlb {
    /// `(asid, vpn, tick)` triples.
    entries: Vec<(u32, u64, u64)>,
    capacity: usize,
    tick: u64,
}

impl RefTlb {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
        }
    }

    fn access(&mut self, asid: u32, vpn: u64) -> bool {
        self.tick += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(a, v, _)| *a == asid && *v == vpn)
        {
            e.2 = self.tick;
            return true;
        }
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .expect("non-empty");
            self.entries.swap_remove(idx);
        }
        self.entries.push((asid, vpn, self.tick));
        false
    }

    fn contains(&self, asid: u32, vpn: u64) -> bool {
        self.entries.iter().any(|(a, v, _)| *a == asid && *v == vpn)
    }

    fn flush(&mut self) {
        self.entries.clear();
    }

    fn flush_page(&mut self, asid: u32, vpn: u64) {
        self.entries.retain(|(a, v, _)| !(*a == asid && *v == vpn));
    }

    fn flush_asid(&mut self, asid: u32) {
        self.entries.retain(|(a, _, _)| *a != asid);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum TlbOp {
    Access(u32, u64),
    Contains(u32, u64),
    Flush,
    FlushPage(u32, u64),
    FlushAsid(u32),
}

/// Mostly accesses, so that small TLBs fill and evict between flushes.
fn tlb_op() -> impl Strategy<Value = TlbOp> {
    (0u32..100, 0u32..4, 0u64..24).prop_map(|(pick, asid, vpn)| match pick {
        0..=69 => TlbOp::Access(asid, vpn),
        70..=79 => TlbOp::Contains(asid, vpn),
        80..=91 => TlbOp::FlushPage(asid, vpn),
        92..=97 => TlbOp::FlushAsid(asid),
        _ => TlbOp::Flush,
    })
}

/// Applies `op` to both TLBs; they must return the same and then hold
/// the same translations (same length, every oracle entry present).
fn step_both(t: &mut Tlb, r: &mut RefTlb, op: TlbOp) {
    let (got, want) = match op {
        TlbOp::Access(a, v) => (Some(t.access(a, v)), Some(r.access(a, v))),
        TlbOp::Contains(a, v) => (Some(t.contains(a, v)), Some(r.contains(a, v))),
        TlbOp::Flush => {
            t.flush();
            r.flush();
            (None, None)
        }
        TlbOp::FlushPage(a, v) => {
            t.flush_page(a, v);
            r.flush_page(a, v);
            (None, None)
        }
        TlbOp::FlushAsid(a) => {
            t.flush_asid(a);
            r.flush_asid(a);
            (None, None)
        }
    };
    assert_eq!(got, want, "{op:?}");
    assert_eq!(t.len(), r.len(), "{op:?}");
    for &(a, v, _) in &r.entries {
        assert!(t.contains(a, v), "({a}, {v}) missing after {op:?}");
    }
}

/// A `kvs-paging`-shaped trace at the default 512 entries: a hot
/// handful of enclave pages, a cold stream of enclave pages that
/// overflows the TLB, untrusted (ASID 0) buffers that survive exits, a
/// single-page shootdown now and then, and an exit every 64 steps.
#[test]
fn tlb_matches_the_scan_on_a_kvs_paging_trace() {
    let mut t = Tlb::new(512);
    let mut r = RefTlb::new(512);
    let mut rng = StdRng::seed_from_u64(26);
    let mut cold = 1_000u64;
    for step in 1..=20_000u32 {
        let op = match rng.random_range(0u32..100) {
            0..=54 => TlbOp::Access(1, rng.random_range(0u64..8)),
            55..=84 => {
                cold += 1;
                TlbOp::Access(1, cold)
            }
            85..=96 => TlbOp::Access(0, rng.random_range(0u64..2_048)),
            _ => TlbOp::FlushPage(1, cold - rng.random_range(0u64..600)),
        };
        step_both(&mut t, &mut r, op);
        if step % 64 == 0 {
            step_both(&mut t, &mut r, TlbOp::FlushAsid(1));
        }
    }
}

/// One step of a [`PagedMem`] script.
#[derive(Debug, Clone)]
enum MemOp {
    Write(u64, Vec<u8>),
    Fill(u64, usize, u8),
    Release(u64, usize),
    Read(u64, usize),
}

/// Pages in the [`PagedMem`] scripts.
const MEM_PAGES: usize = 6;

/// A span of a `MEM_PAGES`-page region, half of them whole pages give
/// or take a few bytes, so fills and releases drop pages as often as
/// not.
fn mem_span() -> impl Strategy<Value = (u64, usize)> {
    let size = MEM_PAGES * PAGE_SIZE;
    (
        any::<bool>(),
        0..size,
        1..=2 * PAGE_SIZE,
        1..=3usize,
        -64isize..=64,
    )
        .prop_map(move |(aligned, addr, len, pages, skew)| {
            let (addr, len) = if aligned {
                let page = addr / PAGE_SIZE * PAGE_SIZE;
                (page.saturating_add_signed(skew), pages * PAGE_SIZE)
            } else {
                (addr, len)
            };
            let addr = addr.min(size - 1);
            (addr as u64, len.min(size - addr))
        })
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    (0..9u8, mem_span(), any::<u8>()).prop_map(|(kind, (addr, len), byte)| match kind {
        0..=2 => MemOp::Write(
            addr,
            (0..len).map(|i| byte.wrapping_add(i as u8) | 1).collect(),
        ),
        3 => MemOp::Fill(addr, len, byte),
        4 => MemOp::Fill(addr, len, 0),
        5 | 6 => MemOp::Release(addr, len),
        _ => MemOp::Read(addr, len),
    })
}

proptest! {
    /// Live buddy allocations never overlap and never exceed capacity,
    /// under an arbitrary interleaving of allocs and frees.
    #[test]
    fn buddy_no_overlap(ops in prop::collection::vec((any::<bool>(), 1usize..600), 1..120)) {
        let mut a = BuddyAllocator::new(8192, 16);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (is_alloc, len) in ops {
            if is_alloc || live.is_empty() {
                if let Ok(off) = a.alloc(len) {
                    let size = a.size_of(off).unwrap();
                    prop_assert!(off + size <= a.capacity());
                    for &(o, s) in &live {
                        prop_assert!(off + size <= o || o + s <= off,
                                     "overlap: [{off},+{size}) vs [{o},+{s})");
                    }
                    live.push((off, size));
                }
            } else {
                let idx = len % live.len();
                let (off, size) = live.swap_remove(idx);
                prop_assert_eq!(a.free(off).unwrap(), size);
            }
        }
        prop_assert_eq!(a.live_allocations(), live.len());
    }

    /// Freeing everything restores a fully coalesced region.
    #[test]
    fn buddy_full_coalesce(lens in prop::collection::vec(1usize..700, 1..60)) {
        let mut a = BuddyAllocator::new(16384, 16);
        let offs: Vec<u64> = lens.iter().filter_map(|&l| a.alloc(l).ok()).collect();
        for off in offs {
            a.free(off).unwrap();
        }
        prop_assert_eq!(a.used(), 0);
        prop_assert_eq!(a.alloc(16384).unwrap(), 0);
    }

    /// PagedMem read-after-write returns what was written, even with
    /// overlapping writes (last write wins).
    #[test]
    fn pagedmem_last_write_wins(writes in prop::collection::vec(
        (0u64..(3 * PAGE_SIZE as u64), prop::collection::vec(any::<u8>(), 1..300)), 1..20)) {
        let m = PagedMem::new(4 * PAGE_SIZE);
        let mut shadow = vec![0u8; 4 * PAGE_SIZE];
        for (addr, data) in &writes {
            let addr = (*addr).min((4 * PAGE_SIZE - data.len()) as u64);
            m.write(addr, data);
            shadow[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        }
        let mut out = vec![0u8; 4 * PAGE_SIZE];
        m.read(0, &mut out);
        prop_assert_eq!(out, shadow);
    }

    /// Writes, fills, zero fills, releases and reads in any order read
    /// back what a flat byte array holds, and a page holds contents
    /// exactly when it was written or filled with a non-zero byte since
    /// a release or a whole-page zero fill last dropped it. Dropped
    /// buffers are reused, so a stale byte of one would show here.
    #[test]
    fn pagedmem_matches_a_flat_array(ops in prop::collection::vec(mem_op(), 1..60)) {
        let m = PagedMem::new(MEM_PAGES * PAGE_SIZE);
        let mut shadow = vec![0u8; MEM_PAGES * PAGE_SIZE];
        let mut held = [false; MEM_PAGES];
        let pages = |addr: u64, len: usize| addr as usize / PAGE_SIZE..(addr as usize + len).div_ceil(PAGE_SIZE);
        let whole = |addr: u64, len: usize| (addr as usize).div_ceil(PAGE_SIZE)..(addr as usize + len) / PAGE_SIZE;
        for op in ops {
            match op {
                MemOp::Write(addr, data) => {
                    m.write(addr, &data);
                    shadow[addr as usize..addr as usize + data.len()].copy_from_slice(&data);
                    pages(addr, data.len()).for_each(|p| held[p] = true);
                }
                MemOp::Fill(addr, len, byte) => {
                    m.fill(addr, len, byte);
                    shadow[addr as usize..addr as usize + len].fill(byte);
                    if byte == 0 {
                        whole(addr, len).for_each(|p| held[p] = false);
                    } else {
                        pages(addr, len).for_each(|p| held[p] = true);
                    }
                }
                MemOp::Release(addr, len) => {
                    m.release(addr, len);
                    for p in whole(addr, len) {
                        shadow[p * PAGE_SIZE..(p + 1) * PAGE_SIZE].fill(0);
                        held[p] = false;
                    }
                }
                MemOp::Read(addr, len) => {
                    let mut out = vec![0xa5; len];
                    m.read(addr, &mut out);
                    prop_assert_eq!(&out[..], &shadow[addr as usize..addr as usize + len]);
                }
            }
            for (p, &h) in held.iter().enumerate() {
                prop_assert_eq!(m.resident_pages((p * PAGE_SIZE) as u64, PAGE_SIZE), usize::from(h));
            }
        }
        let mut out = vec![0xa5; MEM_PAGES * PAGE_SIZE];
        m.read(0, &mut out);
        prop_assert_eq!(out, shadow);
    }

    /// Immediately re-accessing any line after an access always hits.
    #[test]
    fn llc_immediate_reaccess_hits(addrs in prop::collection::vec(0u64..(1 << 22), 1..200)) {
        let mut c = Llc::new(&LlcConfig { size: 64 << 10, ways: 4 });
        for addr in addrs {
            c.access_line(CacheCtx::Other, addr, AccessKind::Read);
            let again = c.access_line(CacheCtx::Other, addr, AccessKind::Read);
            prop_assert!(again.hit);
        }
    }

    /// A working set that fits within one context's partition never
    /// misses after the first pass, regardless of other-context traffic.
    #[test]
    fn llc_partition_protects_working_set(noise in prop::collection::vec(0u64..(1 << 24), 0..400)) {
        let mut c = Llc::new(&LlcConfig { size: 64 << 10, ways: 8 });
        c.set_partition(CacheCtx::Enclave, 0b0000_1111);
        c.set_partition(CacheCtx::Rpc, 0b1111_0000);
        // Enclave working set: 2 lines per set in a 4-way slice.
        let sets = c.sets() as u64;
        let ws: Vec<u64> = (0..2 * sets).map(|i| i * 64).collect();
        for &a in &ws {
            c.access_line(CacheCtx::Enclave, a, AccessKind::Write);
        }
        for a in noise {
            c.access_line(CacheCtx::Rpc, a, AccessKind::Write);
        }
        for &a in &ws {
            prop_assert!(c.access_line(CacheCtx::Enclave, a, AccessKind::Read).hit);
        }
    }

    /// The TLB never exceeds its capacity and a flush empties it.
    #[test]
    fn tlb_capacity_and_flush(vpns in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut t = Tlb::new(64);
        for &v in &vpns {
            t.access(1, v);
            prop_assert!(t.len() <= 64);
            prop_assert!(t.contains(1, v), "just-inserted entry present");
        }
        t.flush();
        prop_assert!(t.is_empty());
    }

    /// The O(1) TLB and the scan it replaced agree on every return value
    /// and every key's membership under any interleaving of lookups,
    /// evictions at capacity, selective flushes and slot reuse.
    #[test]
    fn tlb_matches_the_scan_it_replaced(cap in 1usize..=16, ops in prop::collection::vec(tlb_op(), 1..400)) {
        let mut t = Tlb::new(cap);
        let mut r = RefTlb::new(cap);
        for op in ops {
            step_both(&mut t, &mut r, op);
            for asid in 0..4 {
                for vpn in 0..24 {
                    prop_assert_eq!(t.contains(asid, vpn), r.contains(asid, vpn));
                }
            }
        }
    }
}
