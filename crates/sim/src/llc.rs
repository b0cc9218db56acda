//! A set-associative last-level-cache model with CAT way partitioning.
//!
//! The LLC is the lever behind three of the paper's observations:
//!
//! - syscall I/O buffers pollute the LLC and slow the enclave (§2.2.1,
//!   Fig 2a) — modelled by running RPC/syscall buffer traffic through
//!   the same shared cache;
//! - LLC misses to EPC are 5.6–9.5x more expensive than to untrusted
//!   memory (Table 1) — the *classification* (hit/miss, target domain,
//!   sequential/random) happens here, the *cycle charge* in
//!   [`crate::costs::CostModel::miss_cost`];
//! - Intel CAT can fence the RPC worker into a slice of the ways
//!   (§3.1) — modelled by per-context way masks.
//!
//! The MEE integrity tree's LLC footprint (the paper speculates it
//! shrinks the effective LLC for enclaves, §2.2.1) is modelled by
//! inserting one synthetic tree line per EPC miss.

use crate::costs::{domain_of, AccessKind, Domain, LINE};

/// Base address of the synthetic MEE integrity-tree region.
pub const MEE_BASE: u64 = 0x80_0000_0000;

/// Cache-context classes for CAT partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCtx {
    /// Enclave application threads.
    Enclave,
    /// Eleos RPC worker threads.
    Rpc,
    /// Everything else (host OS, untrusted app code).
    Other,
}

impl CacheCtx {
    fn idx(self) -> usize {
        match self {
            CacheCtx::Enclave => 0,
            CacheCtx::Rpc => 1,
            CacheCtx::Other => 2,
        }
    }
}

/// Outcome of a single line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOutcome {
    /// Whether the line hit in the LLC.
    pub hit: bool,
    /// Target domain of the access.
    pub domain: Domain,
    /// Whether a dirty line had to be written back to make room.
    pub writeback: Option<Domain>,
}

/// Configuration for [`Llc`].
#[derive(Debug, Clone)]
pub struct LlcConfig {
    /// Total capacity in bytes (default 8 MiB — i7-6700).
    pub size: usize,
    /// Associativity (default 16 ways).
    pub ways: usize,
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self {
            size: 8 << 20,
            ways: 16,
        }
    }
}

/// The set-associative cache model. Not internally synchronized; the
/// machine wraps it in a mutex.
pub struct Llc {
    ways: usize,
    sets: usize,
    /// `sets * ways` tags; tag = line address (paddr / 64).
    tags: Vec<u64>,
    /// Per-way flags, parallel to `tags`.
    flags: Vec<u8>,
    /// LRU ticks, parallel to `tags`.
    lru: Vec<u64>,
    /// Allowed-way bitmasks per [`CacheCtx`] class.
    way_masks: [u64; 3],
    tick: u64,
}

const F_VALID: u8 = 1;
const F_DIRTY: u8 = 2;

impl Llc {
    /// Builds an empty cache; all contexts may use all ways.
    #[must_use]
    pub fn new(cfg: &LlcConfig) -> Self {
        assert!(cfg.ways >= 1 && cfg.ways <= 64, "1..=64 ways supported");
        let sets = cfg.size / (LINE * cfg.ways);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = sets * cfg.ways;
        let all = if cfg.ways == 64 {
            u64::MAX
        } else {
            (1u64 << cfg.ways) - 1
        };
        Self {
            ways: cfg.ways,
            sets,
            tags: vec![0; n],
            flags: vec![0; n],
            lru: vec![0; n],
            way_masks: [all; 3],
            tick: 0,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Restricts `ctx` to the ways set in `mask` (CAT-style). Panics if
    /// the mask selects no way or ways beyond the associativity.
    pub fn set_partition(&mut self, ctx: CacheCtx, mask: u64) {
        let all = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        assert!(mask & all != 0, "partition must contain at least one way");
        assert_eq!(mask & !all, 0, "partition exceeds associativity");
        self.way_masks[ctx.idx()] = mask & all;
    }

    /// Applies the paper's Eleos split: 75% of ways to the enclave, 25%
    /// to the RPC workers (§3.1); `Other` keeps full access.
    pub fn partition_eleos(&mut self) {
        let rpc_ways = (self.ways / 4).max(1);
        let enclave_ways = self.ways - rpc_ways;
        let enclave_mask = (1u64 << enclave_ways) - 1;
        let rpc_mask = ((1u64 << rpc_ways) - 1) << enclave_ways;
        self.set_partition(CacheCtx::Enclave, enclave_mask);
        self.set_partition(CacheCtx::Rpc, rpc_mask);
    }

    /// Removes any partitioning.
    pub fn partition_none(&mut self) {
        let all = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        self.way_masks = [all; 3];
    }

    /// Accesses one cache line containing `paddr`.
    pub fn access_line(&mut self, ctx: CacheCtx, paddr: u64, kind: AccessKind) -> LineOutcome {
        let domain = domain_of(paddr);
        let outcome = self.touch(ctx, paddr, kind);
        // An EPC miss drags MEE integrity-tree metadata through the LLC,
        // shrinking the cache available to the application. Tree lines
        // are private to the MEE; we insert them in the `Other` context
        // footprint (read-only, so no extra write-backs).
        if !outcome.hit && domain == Domain::Epc && paddr < MEE_BASE {
            let tree_line = MEE_BASE + (paddr >> 9 << 6);
            let _ = self.touch(ctx, tree_line, AccessKind::Read);
        }
        outcome
    }

    fn touch(&mut self, ctx: CacheCtx, paddr: u64, kind: AccessKind) -> LineOutcome {
        let domain = domain_of(paddr);
        let line = paddr / LINE as u64;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.tick += 1;

        // Hit path: any way, regardless of partition (CAT restricts
        // *fills*, not lookups).
        for w in 0..self.ways {
            let i = base + w;
            if self.flags[i] & F_VALID != 0 && self.tags[i] == line {
                self.lru[i] = self.tick;
                if kind == AccessKind::Write {
                    self.flags[i] |= F_DIRTY;
                }
                return LineOutcome {
                    hit: true,
                    domain,
                    writeback: None,
                };
            }
        }

        // Miss: fill into the LRU way among those allowed for `ctx`.
        let mask = self.way_masks[ctx.idx()];
        let mut victim = None;
        let mut victim_tick = u64::MAX;
        for w in 0..self.ways {
            if mask & (1 << w) == 0 {
                continue;
            }
            let i = base + w;
            if self.flags[i] & F_VALID == 0 {
                victim = Some(i);
                break;
            }
            if self.lru[i] < victim_tick {
                victim_tick = self.lru[i];
                victim = Some(i);
            }
        }
        let i = victim.expect("partition always contains at least one way");
        let mut writeback = None;
        if self.flags[i] & (F_VALID | F_DIRTY) == (F_VALID | F_DIRTY) {
            writeback = Some(domain_of(self.tags[i] * LINE as u64));
        }
        self.tags[i] = line;
        self.flags[i] = F_VALID
            | if kind == AccessKind::Write {
                F_DIRTY
            } else {
                0
            };
        self.lru[i] = self.tick;
        LineOutcome {
            hit: false,
            domain,
            writeback,
        }
    }

    /// Invalidates every line overlapping `[paddr, paddr+len)` — used
    /// when the driver evicts an EPC page, since the frame's next
    /// contents are unrelated.
    pub fn invalidate_range(&mut self, paddr: u64, len: usize) {
        let first = paddr / LINE as u64;
        let last = (paddr + len as u64 - 1) / LINE as u64;
        for line in first..=last {
            let set = (line as usize) & (self.sets - 1);
            let base = set * self.ways;
            for w in 0..self.ways {
                let i = base + w;
                if self.flags[i] & F_VALID != 0 && self.tags[i] == line {
                    self.flags[i] = 0;
                }
            }
        }
    }

    /// Drops all contents (between experiment phases).
    pub fn clear(&mut self) {
        self.flags.fill(0);
        self.lru.fill(0);
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 64 sets * 4 ways * 64 B = 16 KiB.
        Llc::new(&LlcConfig {
            size: 16 << 10,
            ways: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let out = c.access_line(CacheCtx::Enclave, 0x1000, AccessKind::Read);
        assert!(!out.hit);
        let out = c.access_line(CacheCtx::Enclave, 0x1008, AccessKind::Read);
        assert!(out.hit, "same line must hit");
        let out = c.access_line(CacheCtx::Enclave, 0x1040, AccessKind::Read);
        assert!(!out.hit, "next line misses");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // 4-way set 0: lines at stride sets*64 = 4096.
        let stride = 64 * 64;
        for i in 0..4u64 {
            assert!(
                !c.access_line(CacheCtx::Other, i * stride, AccessKind::Read)
                    .hit
            );
        }
        for i in 0..4u64 {
            assert!(
                c.access_line(CacheCtx::Other, i * stride, AccessKind::Read)
                    .hit
            );
        }
        // Fifth line evicts the LRU (line 0).
        assert!(
            !c.access_line(CacheCtx::Other, 4 * stride, AccessKind::Read)
                .hit
        );
        assert!(!c.access_line(CacheCtx::Other, 0, AccessKind::Read).hit);
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = small();
        let stride = 64 * 64;
        for i in 0..4u64 {
            c.access_line(CacheCtx::Other, i * stride, AccessKind::Write);
        }
        let out = c.access_line(CacheCtx::Other, 4 * stride, AccessKind::Read);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(Domain::Untrusted));
    }

    #[test]
    fn partition_isolates_fills() {
        let mut c = small();
        c.set_partition(CacheCtx::Rpc, 0b0001);
        c.set_partition(CacheCtx::Enclave, 0b1110);
        let stride = 64 * 64;
        // Enclave fills three lines into its 3 ways.
        for i in 0..3u64 {
            c.access_line(CacheCtx::Enclave, i * stride, AccessKind::Read);
        }
        // RPC streams many lines through its single way...
        for i in 10..30u64 {
            c.access_line(CacheCtx::Rpc, i * stride, AccessKind::Read);
        }
        // ...without evicting the enclave's lines.
        for i in 0..3u64 {
            assert!(
                c.access_line(CacheCtx::Enclave, i * stride, AccessKind::Read)
                    .hit,
                "enclave line {i} was evicted through the partition"
            );
        }
    }

    #[test]
    fn unpartitioned_rpc_traffic_evicts_enclave_lines() {
        let mut c = small();
        let stride = 64 * 64;
        for i in 0..4u64 {
            c.access_line(CacheCtx::Enclave, i * stride, AccessKind::Read);
        }
        for i in 10..30u64 {
            c.access_line(CacheCtx::Rpc, i * stride, AccessKind::Read);
        }
        let hits = (0..4u64)
            .filter(|i| {
                c.access_line(CacheCtx::Enclave, i * stride, AccessKind::Read)
                    .hit
            })
            .count();
        assert_eq!(hits, 0, "shared cache must show pollution");
    }

    #[test]
    fn epc_miss_inserts_tree_line() {
        use crate::costs::EPC_BASE;
        let mut c = small();
        c.access_line(CacheCtx::Enclave, EPC_BASE, AccessKind::Read);
        // The synthetic tree line for EPC_BASE occupies its set; a
        // subsequent direct access to it must hit.
        let tree = MEE_BASE + (EPC_BASE >> 9 << 6);
        assert!(c.access_line(CacheCtx::Enclave, tree, AccessKind::Read).hit);
    }

    #[test]
    fn invalidate_range_clears_lines() {
        let mut c = small();
        c.access_line(CacheCtx::Other, 0x2000, AccessKind::Write);
        c.access_line(CacheCtx::Other, 0x2040, AccessKind::Write);
        c.invalidate_range(0x2000, 128);
        assert!(!c.access_line(CacheCtx::Other, 0x2000, AccessKind::Read).hit);
        assert!(!c.access_line(CacheCtx::Other, 0x2040, AccessKind::Read).hit);
    }

    #[test]
    fn eleos_partition_shape() {
        let mut c = Llc::new(&LlcConfig::default());
        c.partition_eleos();
        // 16 ways: enclave gets 12, RPC 4, disjoint.
        assert_eq!(c.way_masks[CacheCtx::Enclave.idx()].count_ones(), 12);
        assert_eq!(c.way_masks[CacheCtx::Rpc.idx()].count_ones(), 4);
        assert_eq!(
            c.way_masks[CacheCtx::Enclave.idx()] & c.way_masks[CacheCtx::Rpc.idx()],
            0
        );
        c.partition_none();
        assert_eq!(c.way_masks[CacheCtx::Enclave.idx()].count_ones(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_partition_rejected() {
        let mut c = small();
        c.set_partition(CacheCtx::Rpc, 0);
    }
}
