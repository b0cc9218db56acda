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
//!
//! # Per-set state
//!
//! A set is one tag word per way and a few words of metadata:
//!
//! - a tag word holds the resident line's address (`paddr / 64`) or
//!   `EMPTY`, which no line address reaches, so validity lives in the
//!   tag itself and a tag compare is exact for every geometry;
//! - a valid mask and a dirty mask, bit `w` for way `w`;
//! - one fingerprint byte per way, a hash of the line's bits above the
//!   set index: a lookup compares the 8 bytes of a word at once and
//!   reads only the tag words whose fingerprint matches;
//! - the recency order: the set's way numbers, one byte each, from most
//!   to least recently used.
//!
//! A hit moves its way to the front of the order. A fill takes the
//! first empty allowed way in way order, else the allowed way nearest
//! the back of the order — the least recently used, exactly as a
//! minimum over per-way timestamps would pick it — and moves it to the
//! front. Byte lists pack eight to a `u64`, so at 16 ways a set's
//! metadata is six words.
//!
//! Callers move data a span at a time, so [`Llc::walk`] touches lines
//! `first..=last` in one pass (each EPC miss followed by its tree line)
//! and, when given the cost model, prices each line as it goes.
//! [`Llc::access_line`] is the one-line case of the same step.

use crate::costs::{domain_of, AccessKind, CostModel, Domain, LINE};

/// Base address of the synthetic MEE integrity-tree region.
pub const MEE_BASE: u64 = 0x80_0000_0000;

/// Tag word of an empty way. Line addresses are `paddr / 64`, so none
/// reaches it.
const EMPTY: u64 = u64::MAX;

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

/// What one [`Llc::walk`] did, summed over its lines (tree lines are
/// not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Walk {
    /// Lines that hit.
    pub hits: u64,
    /// Lines that missed.
    pub misses: u64,
    /// Lines that missed to EPC.
    pub misses_epc: u64,
    /// Dirty lines written back to make room.
    pub writebacks: u64,
    /// The span's cycle cost; 0 unless the walk was priced.
    pub cycles: u64,
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
    /// `log2(sets)`: a line's bits above it tell the lines of a set
    /// apart.
    set_bits: u32,
    /// Words per set of each byte list: `ways.div_ceil(8)`.
    words: usize,
    /// `8 * words` tag words per set: a line address or [`EMPTY`] (the
    /// padding past the last way stays empty).
    tags: Vec<u64>,
    /// `META + 2 * words` words per set: its valid mask, its dirty mask,
    /// one fingerprint byte per way, then its ways from most to least
    /// recently used, one byte each. Bytes pack eight to a word, low
    /// byte first; order bytes past the last way are `0xff`.
    meta: Vec<u64>,
    /// Allowed-way bitmasks per [`CacheCtx`] class.
    way_masks: [u64; 3],
}

impl Llc {
    /// Builds an empty cache; all contexts may use all ways.
    #[must_use]
    pub fn new(cfg: &LlcConfig) -> Self {
        assert!(cfg.ways >= 1 && cfg.ways <= 64, "1..=64 ways supported");
        let sets = cfg.size / (LINE * cfg.ways);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let words = cfg.ways.div_ceil(8);
        let all = if cfg.ways == 64 {
            u64::MAX
        } else {
            (1u64 << cfg.ways) - 1
        };
        Self {
            ways: cfg.ways,
            sets,
            set_bits: sets.trailing_zeros(),
            words,
            tags: vec![EMPTY; sets * 8 * words],
            meta: (0..sets).flat_map(|_| empty_meta(cfg.ways)).collect(),
            way_masks: [all; 3],
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
        let mask = self.way_masks[ctx.idx()];
        self.step(mask, paddr / LINE as u64, kind == AccessKind::Write)
    }

    /// Touches every line overlapping `[paddr, paddr+len)` in address
    /// order, exactly as one [`Self::access_line`] per line would, and
    /// sums what happened.
    ///
    /// With `price = Some((costs, seq_line))` each line is also charged:
    /// L1/L2 plus an LLC hit, or a miss at [`CostModel::miss_cost`] —
    /// sequential when it follows the caller's stream `seq_line`, which
    /// every miss advances; every miss after the span's first at
    /// `mlp_factor` (memory-level parallelism) — plus half a sequential
    /// DRAM write per dirty line written back.
    #[inline]
    pub fn walk(
        &mut self,
        ctx: CacheCtx,
        paddr: u64,
        len: usize,
        kind: AccessKind,
        mut price: Option<(&CostModel, &mut u64)>,
    ) -> Walk {
        let mut walk = Walk::default();
        if len == 0 {
            return walk;
        }
        let first = paddr / LINE as u64;
        let last = (paddr + len as u64 - 1) / LINE as u64;
        let mask = self.way_masks[ctx.idx()];
        let write = kind == AccessKind::Write;
        for line in first..=last {
            let out = self.step(mask, line, write);
            if let Some((c, seq_line)) = price.as_mut() {
                walk.cycles += c.l12_access;
                if out.hit {
                    walk.cycles += c.llc_hit;
                } else {
                    let sequential = line == seq_line.wrapping_add(1) || line == **seq_line;
                    let mut miss = c.miss_cost(out.domain, kind, sequential);
                    if walk.misses > 0 {
                        // Later misses of the same bulk span overlap
                        // (memory-level parallelism).
                        miss = (miss as f64 * c.mlp_factor) as u64;
                    }
                    walk.cycles += miss;
                    if let Some(wb) = out.writeback {
                        // Write-back of a dirty line: DRAM write, with
                        // the MEE encryption premium for EPC lines.
                        walk.cycles += c.miss_cost(wb, AccessKind::Write, true) / 2;
                    }
                    **seq_line = line;
                }
            }
            if out.hit {
                walk.hits += 1;
            } else {
                walk.misses += 1;
                walk.misses_epc += u64::from(out.domain == Domain::Epc);
                walk.writebacks += u64::from(out.writeback.is_some());
            }
        }
        walk
    }

    /// One line: the access itself, then, on an EPC miss, the MEE tree
    /// line that covers it. Tree lines are private to the MEE and
    /// read-only (no extra write-backs); they fill through the caller's
    /// way mask.
    #[inline]
    fn step(&mut self, mask: u64, line: u64, write: bool) -> LineOutcome {
        let paddr = line * LINE as u64;
        let domain = domain_of(paddr);
        let (hit, writeback) = self.touch(mask, line, write);
        if !hit && domain == Domain::Epc && paddr < MEE_BASE {
            let _ = self.touch(mask, (MEE_BASE + (paddr >> 9 << 6)) / LINE as u64, false);
        }
        LineOutcome {
            hit,
            domain,
            writeback,
        }
    }

    /// Looks `line` up in its set and fills it on a miss; returns
    /// whether it hit and, on a miss, the domain of a dirty victim.
    #[inline(always)]
    fn touch(&mut self, mask: u64, line: u64, write: bool) -> (bool, Option<Domain>) {
        let (ways, words, fp) = (self.ways, self.words, self.fingerprint(line));
        let (tags, meta) = self.set(line);
        let (masks, lists) = meta.split_at_mut(META);
        let (fps, order) = lists.split_at_mut(words);

        // Hit path: any way, regardless of partition (CAT restricts
        // *fills*, not lookups). A line touched again before its set
        // sees another is the most recent already: its way is first in
        // the order and stays there.
        let mru = byte(order, 0) as usize;
        let hit = if tags[mru] == line {
            Some(mru)
        } else {
            let w = lookup(tags, fps, fp, line);
            if let Some(w) = w {
                promote(order, find(order, w as u64));
            }
            w
        };
        if let Some(w) = hit {
            if write {
                masks[DIRTY] |= 1 << w;
            }
            return (true, None);
        }

        // Miss: the first empty allowed way, else the allowed way used
        // least recently.
        let free = !masks[VALID] & mask;
        let at = if free == 0 {
            (0..ways)
                .rev()
                .find(|&at| mask >> byte(order, at) & 1 != 0)
                .expect("partition always contains at least one way")
        } else {
            find(order, u64::from(free.trailing_zeros()))
        };
        let victim = byte(order, at) as usize;
        let bit = 1u64 << victim;
        let writeback = (masks[DIRTY] & bit != 0).then(|| domain_of(tags[victim] * LINE as u64));
        tags[victim] = line;
        let shift = 8 * (victim % 8);
        fps[victim / 8] = fps[victim / 8] & !(0xff << shift) | fp << shift;
        masks[VALID] |= bit;
        if write {
            masks[DIRTY] |= bit;
        } else {
            masks[DIRTY] &= !bit;
        }
        promote(order, at);
        (false, writeback)
    }

    /// The fingerprint byte of `line`: the top byte of a multiplicative
    /// hash of its bits above the set index.
    #[inline(always)]
    fn fingerprint(&self, line: u64) -> u64 {
        (line >> self.set_bits).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56
    }

    /// The tag words and the metadata words of `line`'s set.
    #[inline(always)]
    fn set(&mut self, line: u64) -> (&mut [u64], &mut [u64]) {
        let set = (line as usize) & (self.sets - 1);
        let (tags, meta) = (8 * self.words, META + 2 * self.words);
        (
            &mut self.tags[set * tags..][..tags],
            &mut self.meta[set * meta..][..meta],
        )
    }

    /// Invalidates every line overlapping `[paddr, paddr+len)` — used
    /// when the driver evicts an EPC page, since the frame's next
    /// contents are unrelated.
    pub fn invalidate_range(&mut self, paddr: u64, len: usize) {
        let first = paddr / LINE as u64;
        let last = (paddr + len as u64 - 1) / LINE as u64;
        for line in first..=last {
            let (words, fp) = (self.words, self.fingerprint(line));
            let (tags, meta) = self.set(line);
            if let Some(w) = lookup(tags, &meta[META..META + words], fp, line) {
                tags[w] = EMPTY;
                meta[VALID] &= !(1 << w);
                meta[DIRTY] &= !(1 << w);
            }
        }
    }

    /// Drops all contents (between experiment phases).
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        for set in self.meta.chunks_mut(META + 2 * self.words) {
            set[..META].fill(0);
        }
    }
}

/// A set's metadata words before its byte lists: the valid mask, then
/// the dirty mask.
const META: usize = 2;
const VALID: usize = 0;
const DIRTY: usize = 1;
/// One in every byte of a word.
const BYTES: u64 = 0x0101_0101_0101_0101;
/// The low seven bits of every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// An empty set's metadata: nothing valid or dirty, zero fingerprints,
/// the ways in way order.
fn empty_meta(ways: usize) -> impl Iterator<Item = u64> {
    let words = ways.div_ceil(8);
    let order = (0..words).map(move |i| {
        (0..8).fold(0, |word, b| {
            let way = i * 8 + b;
            let byte = if way < ways { way as u64 } else { 0xff };
            word | byte << (8 * b)
        })
    });
    [0; META]
        .into_iter()
        .chain((0..words).map(|_| 0))
        .chain(order)
}

/// Byte `at` of a byte-packed list.
#[inline(always)]
fn byte(list: &[u64], at: usize) -> u64 {
    list[at / 8] >> (8 * (at % 8)) & 0xff
}

/// The high bit of every zero byte of `x` (no carries between bytes).
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The way of a set holding `line`: only a way whose fingerprint byte
/// is `fp` can, and its tag word says whether it does.
#[inline(always)]
fn lookup(tags: &[u64], fps: &[u64], fp: u64, line: u64) -> Option<usize> {
    for (i, &word) in fps.iter().enumerate() {
        let mut candidates = zero_bytes(word ^ (fp * BYTES));
        while candidates != 0 {
            let w = i * 8 + candidates.trailing_zeros() as usize / 8;
            if tags[w] == line {
                return Some(w);
            }
            candidates &= candidates - 1;
        }
    }
    None
}

/// The recency position of `way` in a set's order.
#[inline(always)]
fn find(order: &[u64], way: u64) -> usize {
    for (i, &word) in order.iter().enumerate() {
        let zero = zero_bytes(word ^ (way * BYTES));
        if zero != 0 {
            return i * 8 + zero.trailing_zeros() as usize / 8;
        }
    }
    unreachable!("every way is in its set's order")
}

/// Moves the way at recency position `at` to the front; the ways before
/// it move back one.
#[inline(always)]
fn promote(order: &mut [u64], at: usize) {
    let (last, b) = (at / 8, at % 8);
    let mut carry = byte(order, at);
    for word in &mut order[..last] {
        let out = *word >> 56;
        *word = *word << 8 | carry;
        carry = out;
    }
    // Bytes `0..=b` of the last word shift up; the rest stay.
    let moved = if b == 7 {
        u64::MAX
    } else {
        (1 << (8 * (b + 1))) - 1
    };
    let word = order[last];
    order[last] = (word & !moved) | ((word << 8 | carry) & moved);
}

#[cfg(test)]
mod oracle;

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
