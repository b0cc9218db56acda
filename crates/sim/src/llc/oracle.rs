//! The per-line LLC that [`Llc::walk`] replaced, kept as the oracle
//! the span walk must match line for line: its `Llc` and the pricing
//! loop of `SgxMachine::charge_mem`, verbatim bar names and the stats
//! and locking around them.

use proptest::prelude::*;

use super::{
    byte, find, CacheCtx, LineOutcome, Llc, LlcConfig, Walk, DIRTY, EMPTY, MEE_BASE, META, VALID,
};
use crate::costs::{domain_of, AccessKind, CostModel, Domain, EPC_BASE, LINE, PAGE_SIZE};

struct PerLineLlc {
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

impl PerLineLlc {
    fn new(cfg: &LlcConfig) -> Self {
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

    fn set_partition(&mut self, ctx: CacheCtx, mask: u64) {
        let all = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        assert!(mask & all != 0, "partition must contain at least one way");
        assert_eq!(mask & !all, 0, "partition exceeds associativity");
        self.way_masks[ctx.idx()] = mask & all;
    }

    fn partition_eleos(&mut self) {
        let rpc_ways = (self.ways / 4).max(1);
        let enclave_ways = self.ways - rpc_ways;
        let enclave_mask = (1u64 << enclave_ways) - 1;
        let rpc_mask = ((1u64 << rpc_ways) - 1) << enclave_ways;
        self.set_partition(CacheCtx::Enclave, enclave_mask);
        self.set_partition(CacheCtx::Rpc, rpc_mask);
    }

    fn access_line(&mut self, ctx: CacheCtx, paddr: u64, kind: AccessKind) -> LineOutcome {
        let domain = domain_of(paddr);
        let outcome = self.touch(ctx, paddr, kind);
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

    fn invalidate_range(&mut self, paddr: u64, len: usize) {
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

    fn clear(&mut self) {
        self.flags.fill(0);
        self.lru.fill(0);
        self.tick = 0;
    }

    /// The span as one `access_line` per line, with `charge_mem`'s
    /// pricing when `price` is given, and every line's outcome.
    fn per_line(
        &mut self,
        cctx: CacheCtx,
        paddr: u64,
        len: usize,
        kind: AccessKind,
        price: Option<(&CostModel, &mut u64)>,
    ) -> (Vec<LineOutcome>, Walk) {
        let mut outcomes = Vec::new();
        let mut walk = Walk::default();
        if len == 0 {
            return (outcomes, walk);
        }
        let first = paddr / LINE as u64;
        let last = (paddr + len as u64 - 1) / LINE as u64;
        let mut price = price;
        for line in first..=last {
            let out = self.access_line(cctx, line * LINE as u64, kind);
            outcomes.push(out);
            if let Some((c, seq_line)) = price.as_mut() {
                walk.cycles += c.l12_access;
                if out.hit {
                    walk.cycles += c.llc_hit;
                } else {
                    let sequential = line == seq_line.wrapping_add(1) || line == **seq_line;
                    let mut miss = c.miss_cost(out.domain, kind, sequential);
                    if walk.misses > 0 {
                        miss = (miss as f64 * c.mlp_factor) as u64;
                    }
                    walk.cycles += miss;
                    if let Some(wb) = out.writeback {
                        walk.cycles += c.miss_cost(wb, AccessKind::Write, true) / 2;
                    }
                    **seq_line = line;
                }
            }
            if out.hit {
                walk.hits += 1;
            } else {
                walk.misses += 1;
                if out.domain == Domain::Epc {
                    walk.misses_epc += 1;
                }
                if out.writeback.is_some() {
                    walk.writebacks += 1;
                }
            }
        }
        (outcomes, walk)
    }

    /// Each set's valid ways from most to least recently used, as
    /// `(way, line, dirty)`.
    fn resident(&self) -> Vec<Vec<(usize, u64, bool)>> {
        (0..self.sets)
            .map(|set| {
                let base = set * self.ways;
                let mut ways: Vec<usize> = (0..self.ways)
                    .filter(|w| self.flags[base + w] & F_VALID != 0)
                    .collect();
                ways.sort_by_key(|w| std::cmp::Reverse(self.lru[base + w]));
                ways.iter()
                    .map(|&w| (w, self.tags[base + w], self.flags[base + w] & F_DIRTY != 0))
                    .collect()
            })
            .collect()
    }
}

impl Llc {
    /// [`PerLineLlc::resident`] of this model, after checking that the
    /// valid mask is the non-empty tags, a valid way's fingerprint is
    /// its line's, only valid ways are dirty and each set's order holds
    /// each way once, padded with `0xff`.
    fn resident(&self) -> Vec<Vec<(usize, u64, bool)>> {
        let (ways, words) = (self.ways, self.words);
        (0..self.sets)
            .map(|set| {
                let tags = &self.tags[set * 8 * words..][..8 * words];
                let meta = &self.meta[set * (META + 2 * words)..][..META + 2 * words];
                let (valid, dirty) = (meta[VALID], meta[DIRTY]);
                let (fps, order) = meta[META..].split_at(words);
                let bytes: Vec<u64> = (0..8 * words).map(|at| byte(order, at)).collect();
                let mut seen = 0u128;
                for w in 0..ways {
                    assert_eq!(valid >> w & 1 == 1, tags[w] != EMPTY);
                    if tags[w] != EMPTY {
                        assert_eq!(byte(fps, w), self.fingerprint(tags[w]));
                    }
                    assert_eq!(find(order, bytes[w]), w);
                    seen |= 1 << bytes[w];
                }
                assert!(tags[ways..].iter().all(|&t| t == EMPTY));
                assert_eq!(dirty & !valid, 0, "set {set}: a dirty way is empty");
                assert_eq!(seen, (1u128 << ways) - 1, "set {set}: {bytes:?}");
                assert!(
                    bytes[ways..].iter().all(|&b| b == 0xff),
                    "set {set}: {bytes:?}"
                );
                bytes[..ways]
                    .iter()
                    .map(|&w| w as usize)
                    .filter(|&w| valid >> w & 1 == 1)
                    .map(|w| (w, tags[w], dirty >> w & 1 == 1))
                    .collect()
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Line(CacheCtx, AccessKind, u64),
    Span(CacheCtx, AccessKind, u64, usize, bool),
    Invalidate(u64, usize),
    Clear,
}

/// A trace step from raw draws. Addresses fall in untrusted memory, in
/// EPC, or on the MEE tree lines that cover that EPC window, each a
/// small window so that lines come back; spans reach three pages.
fn op((pick, ctx, write, region, off, len): (u8, u8, bool, u8, u64, usize)) -> Op {
    const WINDOW: u64 = 48 << 10;
    let ctx = [CacheCtx::Enclave, CacheCtx::Rpc, CacheCtx::Other][usize::from(ctx % 3)];
    let kind = if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    let a = match region % 3 {
        0 => off % WINDOW,
        1 => EPC_BASE + off % WINDOW,
        _ => MEE_BASE + (EPC_BASE >> 3) + off % (WINDOW / 8),
    };
    match pick % 18 {
        0..=7 => Op::Line(ctx, kind, a),
        8..=15 => Op::Span(ctx, kind, a, len % (3 * PAGE_SIZE), off & 1 == 1),
        16 => Op::Invalidate(a, 1 + len % (2 * PAGE_SIZE)),
        _ => Op::Clear,
    }
}

const SETS: [usize; 5] = [1, 2, 4, 16, 64];
const WAYS: [usize; 10] = [1, 2, 3, 4, 7, 8, 12, 16, 33, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The span walk and the one-line step match the per-line model
    /// outcome for outcome, cycle for cycle and way for way.
    #[test]
    fn span_walk_matches_the_per_line_model(
        (sets, ways, part, m_enclave, m_rpc) in
            (0..SETS.len(), 0..WAYS.len(), 0u8..3, any::<u64>(), any::<u64>()),
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<bool>(), any::<u8>(), any::<u64>(), any::<usize>()),
            1..120,
        ),
    ) {
        // Partition 0 is none, 1 the Eleos split, 2 the drawn enclave
        // and RPC masks (trimmed to the ways; empty means all).
        let (sets, ways) = (SETS[sets], WAYS[ways]);
        let cfg = LlcConfig { size: sets * ways * LINE, ways };
        let mut new = Llc::new(&cfg);
        let mut old = PerLineLlc::new(&cfg);
        let all = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
        match part {
            1 if ways >= 2 => {
                new.partition_eleos();
                old.partition_eleos();
            }
            2 => {
                for (ctx, m) in [(CacheCtx::Enclave, m_enclave), (CacheCtx::Rpc, m_rpc)] {
                    let m = if m & all == 0 { all } else { m & all };
                    new.set_partition(ctx, m);
                    old.set_partition(ctx, m);
                }
            }
            _ => {}
        }
        let costs = CostModel::default();
        let (mut seq_new, mut seq_old) = (u64::MAX - 1, u64::MAX - 1);
        for raw in ops {
            match op(raw) {
                Op::Line(ctx, kind, a) => {
                    prop_assert_eq!(new.access_line(ctx, a, kind), old.access_line(ctx, a, kind));
                }
                Op::Span(ctx, kind, a, n, priced) => {
                    let (outcomes, want) =
                        old.per_line(ctx, a, n, kind, priced.then_some((&costs, &mut seq_old)));
                    let mut one = Llc {
                        tags: new.tags.clone(),
                        meta: new.meta.clone(),
                        ..new
                    };
                    let lines: Vec<LineOutcome> = (a / LINE as u64..)
                        .take(outcomes.len())
                        .map(|l| one.access_line(ctx, l * LINE as u64, kind))
                        .collect();
                    prop_assert_eq!(lines, outcomes);
                    let got = new.walk(ctx, a, n, kind, priced.then_some((&costs, &mut seq_new)));
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(seq_new, seq_old);
                    prop_assert_eq!(one.resident(), new.resident());
                }
                Op::Invalidate(a, n) => {
                    new.invalidate_range(a, n);
                    old.invalidate_range(a, n);
                }
                Op::Clear => {
                    new.clear();
                    old.clear();
                }
            }
            prop_assert_eq!(new.resident(), old.resident());
        }
    }
}
