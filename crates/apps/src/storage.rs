//! Pluggable storage engines behind the KVS front-end.
//!
//! The seed's KVS hard-wired memcached's static slab classes; this
//! module is the production storage tier grown on top of it, behind
//! one [`StorageEngine`] seam:
//!
//! - [`SlabEngine`] — the original slab/LRU store, now with an
//!   optional **slab rebalancer**: per-class hit/eviction windows
//!   decide, at sub-batch fences only, when to reassign a whole 1 MiB
//!   slab from a cold class to a starved ("calcified") one, relocating
//!   the donor slab's live items to sibling slabs first (memcached's
//!   slab automover).
//! - [`SegmentEngine`] — a TTL-centric append-only segment store
//!   (Pelikan Segcache's design): items append into per-TTL-bucket
//!   segments, whole segments whose every item has expired are
//!   reclaimed in O(segment), and memory pressure is relieved by
//!   *merge-based eviction* — compact a bucket's oldest segments,
//!   keeping the most-requested survivors.
//!
//! Both engines keep the paper's §5.1 split: hash-chain/LRU/expiry
//! metadata lives in the clear metadata space; keys, values and their
//! sizes live in the secure data space, every access charged through
//! [`DataSpace`]. An engine's maintenance is two calls.
//! [`StorageEngine::fence`], which the serving path makes between
//! batches — never mid-batch, reusing the fence discipline of shard
//! rebalance and fleet failover — only counts the fence.
//! [`StorageEngine::maintenance_tick`] does the byte-work:
//! rebalance moves and window decay, segment expiry and the merges
//! that keep a reserve of free segments. An engine does not know which
//! core calls its tick: [`Kvs::fence`](crate::kvs::Kvs::fence) calls
//! it inline and charges the cycles to `maint_stall_cycles`, or — the
//! Eleos move of taking stall-inducing work off the serving threads —
//! a maintenance plane calls it from a core of its own, and the stall
//! disappears from the serving cores.

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::index::{Found, HashIndex, NIL};
use crate::slab::{SlabPool, SLAB_BYTES};
use crate::space::DataSpace;

// Index-node fields both engines keep at the same offsets. The index
// owns the chain link and the hash word in bytes 0..12 and the write
// stamp in bytes 40..48 (see `crate::index`); every field here is clear
// metadata.
const N_EXPIRY: u64 = 12;

// Slab-engine node fields.
const M_LRU_PREV: u64 = 16;
const M_LRU_NEXT: u64 = 24;
/// The record's address in the low 56 bits, its slab class in the top
/// byte.
const M_KV: u64 = 32;
const KV_ADDR_BITS: u32 = 56;

// Segment-engine node fields (no LRU links — segment eviction is
// merge-based, not LRU-based; bytes 36..40 are spare).
const S_ITEM: u64 = 16;
const S_SEG: u64 = 24;
const S_FREQ: u64 = 28;
const S_FLAGS: u64 = 32;

// Segment-record roles (`S_FLAGS`): ordinary records, the chained
// pieces of a value too large for one segment, and the head record
// holding the spill descriptor.
const FLAG_PLAIN: u32 = 0;
const FLAG_PART: u32 = 1;
const FLAG_HEAD: u32 = 2;

/// Sanity marker in a spill head's 16-byte descriptor ("SPLL").
const SPILL_MAGIC: u32 = 0x5350_4C4C;

/// Free segments the maintenance tick tries to keep on hand so the
/// set-path allocator almost never reclaims inline.
const SEG_FREE_RESERVE: usize = 2;

/// The derived key of spill part `i` of `key`: a reserved `0xFF`
/// prefix keeps part keys out of the client namespace.
fn spill_part_key(key: &[u8], i: u32) -> Vec<u8> {
    let mut pk = Vec::with_capacity(key.len() + 5);
    pk.push(0xFF);
    pk.extend_from_slice(key);
    pk.extend_from_slice(&i.to_le_bytes());
    pk
}

/// Simulated wall-clock seconds on the calling core.
pub(crate) fn now_secs(ctx: &ThreadCtx) -> u32 {
    (ctx.now() as f64 / eleos_sim::costs::CPU_HZ) as u32
}

// --- Secure records -------------------------------------------------

/// Bytes of `klen u32 ‖ vlen u32` in front of every record's key and
/// value.
const RECORD_HEADER: usize = 8;

fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(value);
    rec
}

fn header_lens(header: &[u8]) -> (usize, usize) {
    let klen = u32::from_le_bytes(header[..4].try_into().expect("klen"));
    let vlen = u32::from_le_bytes(header[4..8].try_into().expect("vlen"));
    (klen as usize, vlen as usize)
}

/// The engines' full key comparison. Reads the record at `addr`
/// through one pinned span and returns its value if the record is
/// `key`'s (empty unless `want_value`); another key's record is given
/// up on after its header, or after its key when the lengths agree.
fn read_if_key(
    space: &DataSpace,
    ctx: &mut ThreadCtx,
    addr: u64,
    key: &[u8],
    want_value: bool,
) -> Option<Vec<u8>> {
    let mut header = [0u8; RECORD_HEADER];
    let mut tail = space.read_record(ctx, addr, &mut header, |h| {
        let (klen, vlen) = header_lens(h);
        (klen == key.len()).then_some(klen + if want_value { vlen } else { 0 })
    })?;
    if tail[..key.len()] != *key {
        return None;
    }
    tail.drain(..key.len());
    Some(tail)
}

/// One record read back whole.
struct Record {
    key: Vec<u8>,
    /// Empty when the value was not asked for.
    value: Vec<u8>,
    /// Bytes the record occupies, value included.
    len: usize,
}

/// Reads the record at `addr` through one pinned span.
fn read_record(space: &DataSpace, ctx: &mut ThreadCtx, addr: u64, want_value: bool) -> Record {
    let mut header = [0u8; RECORD_HEADER];
    let (mut klen, mut len) = (0, 0);
    let mut key = space
        .read_record(ctx, addr, &mut header, |h| {
            let (k, v) = header_lens(h);
            (klen, len) = (k, RECORD_HEADER + k + v);
            Some(k + if want_value { v } else { 0 })
        })
        .expect("the whole record was asked for");
    let value = key.split_off(klen);
    Record { key, value, len }
}

/// Which storage engine a server runs, with its tuning.
#[derive(Debug, Clone)]
pub enum EngineConfig {
    /// The memcached slab/LRU engine; `rebalance: None` is bit- and
    /// cycle-identical to the seed's store.
    Slab {
        /// Slab rebalancer tuning; `None` disables it entirely.
        rebalance: Option<RebalanceConfig>,
    },
    /// The TTL-bucketed append-only segment engine.
    Segment(SegmentConfig),
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::Slab { rebalance: None }
    }
}

impl EngineConfig {
    /// Short label used in experiment headers and JSON output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EngineConfig::Slab { rebalance: None } => "slab",
            EngineConfig::Slab { rebalance: Some(_) } => "slab-rebal",
            EngineConfig::Segment(_) => "segment",
        }
    }
}

/// Slab rebalancer tuning.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Attempt moves every this many fences (1 = every fence).
    pub fence_period: u32,
    /// A class is *starved* when its free chunks drop below
    /// `chunks_per_slab / starve_frac` (minimum 1).
    pub starve_frac: usize,
    /// Upper bound on whole-slab moves per eligible fence.
    pub max_moves_per_fence: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            fence_period: 1,
            starve_frac: 8,
            max_moves_per_fence: 1,
        }
    }
}

/// Segment-store tuning.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Bytes per append-only segment.
    pub segment_bytes: usize,
    /// Upper TTL bound (seconds) of each TTL bucket; one extra bucket
    /// catches longer-lived and never-expiring items. Must be
    /// ascending.
    pub ttl_bounds: Vec<u32>,
    /// Sealed segments compacted per merge pass (survivors are ranked
    /// by request frequency and repacked into one segment fewer).
    pub merge_segments: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 128 << 10,
            ttl_bounds: vec![16, 256, 4096],
            merge_segments: 4,
        }
    }
}

/// One storage engine behind the KVS front-end.
///
/// The item callback `StorageEngine::for_each_since` feeds:
/// `(key, value, version, expiry)`.
pub type ItemVisitor<'a> = dyn FnMut(&[u8], &[u8], u64, u32) + 'a;

/// `expiry` is an absolute deadline in simulated seconds (0 = never);
/// `version` is the caller's write stamp (the fleet tier's fence-epoch
/// interval) used for last-writer-wins restore merges.
pub trait StorageEngine: Send {
    /// Short label for stats and experiment output.
    fn label(&self) -> &'static str;

    /// One-time index initialization (zeroes the bucket heads).
    fn init(&self, ctx: &mut ThreadCtx);

    /// Inserts or replaces `key`. Returns `false`, leaving the store
    /// untouched, for a record the engine could never hold however
    /// much it evicted.
    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool;

    /// Looks `key` up. Expired items are lazily deleted and read as
    /// misses.
    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>>;

    /// Deletes `key`; returns whether it existed.
    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool;

    /// The write stamp of `key`'s current copy, if indexed (expiry is
    /// *not* checked — restore merges compare stamps even on items
    /// about to lapse).
    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64>;

    /// Number of indexed items.
    fn len(&self) -> u64;

    /// Whether no items are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted under memory pressure so far.
    fn evictions(&self) -> u64;

    /// Items dropped because their TTL deadline passed.
    fn expired(&self) -> u64;

    /// Bytes of secure pool acquired from the data space.
    fn pool_bytes(&self) -> u64;

    /// Sub-batch fence hook: counts the fence towards the next due
    /// [`Self::maintenance_tick`]. Never called mid-batch, and never
    /// moves a byte — that is the tick.
    fn fence(&mut self);

    /// Visits every live, unexpired item stamped `>= base` (index
    /// order) with `(key, value, version, expiry)`; `base = 0` visits
    /// them all. The stamp is clear metadata, so an item below `base`
    /// costs no record read, and the index skips unread every line of
    /// bucket heads that holds nothing stamped `>= base`.
    fn for_each_since(&self, ctx: &mut ThreadCtx, base: u64, f: &mut ItemVisitor);

    /// Engine-specific metadata for the snapshot's `storage-meta`
    /// section (layout parameters a restore-side can sanity-check).
    fn meta_blob(&self) -> Vec<u8>;

    /// One pass of maintenance byte-work, charged to whichever core
    /// `ctx` runs on: the serving core when [`Kvs::fence`] calls it
    /// inline, the maintenance plane's when that calls it instead.
    /// Returns whether any work ran.
    ///
    /// [`Kvs::fence`]: crate::kvs::Kvs::fence
    fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool;
}

/// Builds the configured engine over the given spaces.
#[must_use]
pub fn build_engine(
    cfg: &EngineConfig,
    meta_space: DataSpace,
    data_space: DataSpace,
    mem_limit: u64,
    buckets: u64,
) -> Box<dyn StorageEngine> {
    match cfg {
        EngineConfig::Slab { rebalance } => Box::new(SlabEngine::new(
            meta_space,
            data_space,
            mem_limit,
            buckets,
            rebalance.clone(),
        )),
        EngineConfig::Segment(seg) => Box::new(SegmentEngine::new(
            meta_space,
            data_space,
            mem_limit,
            buckets,
            seg.clone(),
        )),
    }
}

// ====================================================================
// Slab engine
// ====================================================================

/// Per-class feedback window (host-side bookkeeping only — reading it
/// costs no simulated cycles).
#[derive(Debug, Default, Clone, Copy)]
struct ClassWindow {
    sets: u64,
    hits: u64,
    evictions: u64,
}

/// The memcached slab/LRU engine (the seed's store) with an optional
/// fence-time slab rebalancer.
pub struct SlabEngine {
    index: HashIndex,
    meta_space: DataSpace,
    slab: SlabPool,
    lru_head: u64,
    lru_tail: u64,
    items: u64,
    evictions: u64,
    expired: u64,
    rebalance: Option<RebalanceConfig>,
    /// Decaying per-class demand windows (only maintained when the
    /// rebalancer is on).
    window: Vec<ClassWindow>,
    /// Fences since the last maintenance pass.
    fences: u32,
}

/// What the slab engine's key comparison learned about a node.
struct SlabHit {
    kv: u64,
    class: usize,
    /// Empty unless the lookup asked for it.
    value: Vec<u8>,
}

fn pack_kv(kv: u64, class: usize) -> u64 {
    assert!(kv >> KV_ADDR_BITS == 0 && class < 256, "kv word overflow");
    kv | (class as u64) << KV_ADDR_BITS
}

fn unpack_kv(word: u64) -> (u64, usize) {
    (
        word & ((1 << KV_ADDR_BITS) - 1),
        (word >> KV_ADDR_BITS) as usize,
    )
}

impl SlabEngine {
    fn new(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        rebalance: Option<RebalanceConfig>,
    ) -> Self {
        let slab = SlabPool::new(data_space, mem_limit);
        let n = slab.class_count();
        Self {
            index: HashIndex::new(meta_space.clone(), buckets, mem_limit),
            meta_space,
            slab,
            lru_head: NIL,
            lru_tail: NIL,
            items: 0,
            evictions: 0,
            expired: 0,
            rebalance,
            window: vec![ClassWindow::default(); n],
            fences: 0,
        }
    }

    /// Looks `key` (hashing to `word`) up. Only a node storing `word`
    /// has its record read.
    fn find(
        &self,
        ctx: &mut ThreadCtx,
        word: u32,
        key: &[u8],
        want_value: bool,
    ) -> Option<Found<SlabHit>> {
        self.index.find(ctx, word, |ctx, node| {
            let (kv, class) = unpack_kv(self.meta_space.read_u64(ctx, node + M_KV));
            let value = read_if_key(self.slab.space(), ctx, kv, key, want_value)?;
            Some(SlabHit { kv, class, value })
        })
    }

    fn lru_unlink(&mut self, ctx: &mut ThreadCtx, node: u64) {
        let prev = self.meta_space.read_u64(ctx, node + M_LRU_PREV);
        let next = self.meta_space.read_u64(ctx, node + M_LRU_NEXT);
        if prev != NIL {
            self.meta_space.write_u64(ctx, prev + M_LRU_NEXT, next);
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.meta_space.write_u64(ctx, next + M_LRU_PREV, prev);
        } else {
            self.lru_tail = prev;
        }
    }

    fn lru_push_front(&mut self, ctx: &mut ThreadCtx, node: u64) {
        self.meta_space.write_u64(ctx, node + M_LRU_PREV, NIL);
        self.meta_space
            .write_u64(ctx, node + M_LRU_NEXT, self.lru_head);
        if self.lru_head != NIL {
            self.meta_space
                .write_u64(ctx, self.lru_head + M_LRU_PREV, node);
        }
        self.lru_head = node;
        if self.lru_tail == NIL {
            self.lru_tail = node;
        }
    }

    /// Drops the item [`Self::find`] returned: off its chain, off the
    /// LRU, its chunk back to its class.
    fn drop_found(&mut self, ctx: &mut ThreadCtx, word: u32, found: &Found<SlabHit>) {
        self.lru_unlink(ctx, found.node);
        self.index.remove(ctx, word, found.node, found.prev);
        self.slab.free(found.hit.class, found.hit.kv);
        self.items -= 1;
    }

    /// Removes the LRU tail item to reclaim a chunk. The victim is
    /// unlinked by node identity: its record is never read.
    fn evict_one(&mut self, ctx: &mut ThreadCtx) -> bool {
        let victim = self.lru_tail;
        if victim == NIL {
            return false;
        }
        let (kv, class) = unpack_kv(self.meta_space.read_u64(ctx, victim + M_KV));
        self.lru_unlink(ctx, victim);
        self.index.remove_node(ctx, victim);
        self.slab.free(class, kv);
        self.items -= 1;
        self.evictions += 1;
        if self.rebalance.is_some() {
            self.window[class].evictions += 1;
        }
        true
    }

    /// Host-side accounting of a set/hit against the class serving
    /// `record_len` (no simulated reads — `class_of` is pure).
    fn note(&mut self, record_len: usize, hit: bool) {
        if self.rebalance.is_none() {
            return;
        }
        if let Some(c) = self.slab.class_of(record_len) {
            if hit {
                self.window[c].hits += 1;
            } else {
                self.window[c].sets += 1;
            }
        }
    }

    // --- The rebalancer -------------------------------------------

    /// Whether class `c` is starved: demand in the current window and
    /// fewer free chunks than a fraction of one slab's worth.
    fn starved(&self, c: usize) -> bool {
        let cfg = self.rebalance.as_ref().expect("rebalancer on");
        let threshold = (self.slab.chunks_per_slab(c) / cfg.starve_frac).max(1);
        let w = &self.window[c];
        (w.sets + w.evictions) > 0 && self.slab.free_chunks(c) < threshold
    }

    /// Picks `(donor_class, slab_base)` able to give a whole slab to
    /// `needy`: the donor must be able to absorb the victim slab's
    /// live items into its *other* free chunks. Prefers the donor with
    /// the least window demand, then the emptiest slab.
    fn pick_donor(&self, needy: usize) -> Option<(usize, u64)> {
        let mut best: Option<(u64, usize, usize, u64)> = None; // (demand, live, class, base)
        for d in 0..self.slab.class_count() {
            if d == needy || self.starved(d) {
                continue;
            }
            let w = &self.window[d];
            let demand = w.sets + w.evictions + w.hits;
            for base in self.slab.slabs_in(d) {
                let free_in = self.slab.free_chunks_in_slab(d, base);
                let live = self.slab.chunks_per_slab(d) - free_in;
                // Survivors must fit in the donor's remaining free
                // chunks outside this slab.
                if live > self.slab.free_chunks(d) - free_in {
                    continue;
                }
                let cand = (demand, live, d, base);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        best.map(|(_, _, d, base)| (d, base))
    }

    /// Relocates every live item of class `donor` inside the moving
    /// slab to sibling chunks, updating its metadata pointer. Returns
    /// the number relocated.
    fn relocate_out(&mut self, ctx: &mut ThreadCtx, donor: usize, base: u64) -> u64 {
        let end = base + SLAB_BYTES as u64;
        let mut moved = 0u64;
        let (meta, slab) = (&self.meta_space, &mut self.slab);
        self.index.for_each_node(ctx, 0, |ctx, node| {
            let (kv, class) = unpack_kv(meta.read_u64(ctx, node + M_KV));
            if class == donor && kv >= base && kv < end {
                let dst = slab
                    .alloc_in_class(donor)
                    .expect("donor guaranteed spare chunks");
                let rec = read_record(slab.space(), ctx, kv, true);
                slab.space()
                    .write(ctx, dst, &encode_record(&rec.key, &rec.value));
                meta.write_u64(ctx, node + M_KV, pack_kv(dst, class));
                slab.retire_chunk();
                moved += 1;
            }
        });
        moved
    }

    /// One rebalance attempt: find the most-starved class and a donor
    /// slab, and move it. Returns whether a move ran.
    fn try_rebalance(&mut self, ctx: &mut ThreadCtx) -> bool {
        let needy = (0..self.slab.class_count())
            .filter(|&c| self.starved(c))
            .max_by_key(|&c| (self.window[c].evictions, self.window[c].sets));
        let Some(needy) = needy else {
            return false;
        };
        let Some((donor, base)) = self.pick_donor(needy) else {
            return false;
        };
        self.move_slab(ctx, donor, base, needy);
        true
    }

    /// Reassigns class `donor`'s slab at `base` to class `needy`.
    fn move_slab(&mut self, ctx: &mut ThreadCtx, donor: usize, base: u64, needy: usize) {
        // Order matters: strip the old class's free chunks *first* so
        // it can never hand out a chunk inside the departing slab
        // (the no-stranded-chunk invariant), then relocate survivors,
        // then re-carve under the new class.
        self.slab.remove_slab_free_chunks(donor, base);
        let moved = self.relocate_out(ctx, donor, base);
        self.slab.adopt_slab(needy, base);
        ctx.compute(ctx.machine.cfg.costs.slab_move);
        Stats::bump(&ctx.machine.stats.slab_moves);
        Stats::add(&ctx.machine.stats.slab_items_relocated, moved);
    }

    /// Exponential decay keeps the windows tracking *recent* demand,
    /// so a long-cold class eventually looks like a donor. Runs after
    /// the tick's moves so the rebalancer always acts on pre-decay
    /// demand.
    fn decay_windows(&mut self) {
        for w in &mut self.window {
            w.sets /= 2;
            w.hits /= 2;
            w.evictions /= 2;
        }
    }
}

impl StorageEngine for SlabEngine {
    fn label(&self) -> &'static str {
        if self.rebalance.is_some() {
            "slab-rebal"
        } else {
            "slab"
        }
    }

    fn init(&self, ctx: &mut ThreadCtx) {
        self.index.init(ctx);
    }

    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool {
        let record_len = RECORD_HEADER + key.len() + value.len();
        // No class holds it, so no amount of eviction would make room.
        let Some(class) = self.slab.class_of(record_len) else {
            return false;
        };
        self.note(record_len, false);
        let word = self.index.word(key);
        let record = encode_record(key, value);
        let found = self.find(ctx, word, key, false);
        if let Some(found) = &found {
            if self.slab.chunk_size(found.hit.class) >= record_len {
                // Overwrite in place.
                self.slab.space().write(ctx, found.hit.kv, &record);
                self.meta_space
                    .write_u32(ctx, found.node + N_EXPIRY, expiry);
                self.index.set_version(ctx, word, found.node, version);
                self.lru_unlink(ctx, found.node);
                self.lru_push_front(ctx, found.node);
                return true;
            }
        }
        // The record needs a chunk of its own class. A class that owns
        // no slab and cannot carve one gains nothing from eviction —
        // victims free chunks of *their* classes, never a page — so
        // refuse like the oversize SET, before anything is dropped.
        if !self.slab.can_serve(class) {
            return false;
        }
        if let Some(found) = &found {
            // Wrong class: drop and reinsert.
            self.drop_found(ctx, word, found);
        }
        // Allocate, evicting LRU victims while the pool is full. Not
        // input-reachable: the class owns a slab here, and each of its
        // chunks is free or a live item on the LRU, so one comes free
        // before the LRU empties.
        let (class, kv) = loop {
            match self.slab.alloc(record_len) {
                Some(x) => break x,
                None => {
                    assert!(self.evict_one(ctx), "pool exhausted and LRU empty");
                }
            }
        };
        self.slab.space().write(ctx, kv, &record);
        let node = self.index.insert(ctx, word);
        self.meta_space
            .write_u64(ctx, node + M_KV, pack_kv(kv, class));
        self.meta_space.write_u32(ctx, node + N_EXPIRY, expiry);
        self.index.set_version(ctx, word, node, version);
        self.lru_push_front(ctx, node);
        self.items += 1;
        true
    }

    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let word = self.index.word(key);
        let found = self.find(ctx, word, key, true)?;
        let expiry = self.meta_space.read_u32(ctx, found.node + N_EXPIRY);
        if expiry != 0 && now_secs(ctx) >= expiry {
            self.drop_found(ctx, word, &found);
            self.expired += 1;
            Stats::bump(&ctx.machine.stats.expired_items);
            return None;
        }
        self.lru_unlink(ctx, found.node);
        self.lru_push_front(ctx, found.node);
        let value = found.hit.value;
        self.note(RECORD_HEADER + key.len() + value.len(), true);
        Some(value)
    }

    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        let word = self.index.word(key);
        let Some(found) = self.find(ctx, word, key, false) else {
            return false;
        };
        self.drop_found(ctx, word, &found);
        true
    }

    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64> {
        let found = self.find(ctx, self.index.word(key), key, false)?;
        Some(self.index.version(ctx, found.node))
    }

    fn len(&self) -> u64 {
        self.items
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn expired(&self) -> u64 {
        self.expired
    }

    fn pool_bytes(&self) -> u64 {
        self.slab.slab_bytes
    }

    fn fence(&mut self) {
        // Rebalancer off: no tick will ever be due.
        if self.rebalance.is_some() {
            self.fences += 1;
        }
    }

    fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        let Some(cfg) = self.rebalance.clone() else {
            return false;
        };
        // Due once `fence_period` fences have passed since the last
        // pass — whoever calls the tick, however it aligns to fences.
        if self.fences < cfg.fence_period {
            return false;
        }
        self.fences = 0;
        let mut did = false;
        for _ in 0..cfg.max_moves_per_fence {
            if !self.try_rebalance(ctx) {
                break;
            }
            did = true;
        }
        self.decay_windows();
        did
    }

    fn for_each_since(&self, ctx: &mut ThreadCtx, base: u64, f: &mut ItemVisitor) {
        let now = now_secs(ctx);
        self.index.for_each_node(ctx, base, |ctx, node| {
            let version = self.index.version(ctx, node);
            if version < base {
                return;
            }
            let expiry = self.meta_space.read_u32(ctx, node + N_EXPIRY);
            if expiry != 0 && now >= expiry {
                return;
            }
            let (kv, _) = unpack_kv(self.meta_space.read_u64(ctx, node + M_KV));
            let rec = read_record(self.slab.space(), ctx, kv, true);
            f(&rec.key, &rec.value, version, expiry);
        });
    }

    fn meta_blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&self.slab.slab_bytes.to_le_bytes());
        blob.extend_from_slice(&(self.slab.class_count() as u32).to_le_bytes());
        blob
    }
}

// ====================================================================
// Segment engine
// ====================================================================

/// Host-side descriptor of one append-only segment.
#[derive(Debug, Clone)]
struct Segment {
    base: u64,
    /// Append offset (bytes written so far).
    write: usize,
    /// Records appended (live + dead).
    appended: u64,
    /// Records still referenced by the index.
    live: u64,
    /// Latest expiry deadline among appended items (only meaningful
    /// while `all_ttl`).
    max_expiry: u32,
    /// Whether *every* appended item carries a TTL — only then can the
    /// whole segment be reclaimed by deadline alone.
    all_ttl: bool,
    sealed: bool,
}

impl Segment {
    fn fresh(base: u64) -> Self {
        Self {
            base,
            write: 0,
            appended: 0,
            live: 0,
            max_expiry: 0,
            all_ttl: true,
            sealed: false,
        }
    }
}

/// Per-TTL-bucket state: the open segment plus the sealed chain
/// (oldest first).
#[derive(Debug, Default, Clone)]
struct TtlBucket {
    active: Option<usize>,
    chain: Vec<usize>,
}

/// The TTL-bucketed append-only segment store (Pelikan Segcache's
/// design): no LRU, no per-item free lists — items append, whole
/// segments expire, and merge passes compact the oldest sealed
/// segments of a bucket under memory pressure.
pub struct SegmentEngine {
    index: HashIndex,
    meta_space: DataSpace,
    data_space: DataSpace,
    cfg: SegmentConfig,
    mem_limit: u64,
    segments: Vec<Segment>,
    free_segs: Vec<usize>,
    ttl: Vec<TtlBucket>,
    items: u64,
    evictions: u64,
    expired: u64,
    /// Indexed nodes that are spill *parts* (excluded from `len`).
    spill_parts: u64,
}

/// What the segment engine's key comparison learned about a node.
struct SegmentHit {
    item: u64,
    /// Empty unless the lookup asked for it.
    value: Vec<u8>,
}

impl SegmentEngine {
    fn new(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        cfg: SegmentConfig,
    ) -> Self {
        assert!(
            cfg.ttl_bounds.windows(2).all(|w| w[0] < w[1]),
            "ttl_bounds must ascend"
        );
        assert!(
            mem_limit as usize >= (cfg.ttl_bounds.len() + 2) * cfg.segment_bytes,
            "mem_limit too small for one segment per TTL bucket"
        );
        let n_ttl = cfg.ttl_bounds.len() + 1;
        Self {
            index: HashIndex::new(meta_space.clone(), buckets, mem_limit),
            meta_space,
            data_space,
            cfg,
            mem_limit,
            segments: Vec::new(),
            free_segs: Vec::new(),
            ttl: vec![TtlBucket::default(); n_ttl],
            items: 0,
            evictions: 0,
            expired: 0,
            spill_parts: 0,
        }
    }

    /// Looks `key` (hashing to `word`) up, returning its record's
    /// address and — if asked for — value. Only a node storing `word`
    /// has its record read.
    fn find(
        &self,
        ctx: &mut ThreadCtx,
        word: u32,
        key: &[u8],
        want_value: bool,
    ) -> Option<Found<SegmentHit>> {
        self.index.find(ctx, word, |ctx, node| {
            let item = self.meta_space.read_u64(ctx, node + S_ITEM);
            let value = read_if_key(&self.data_space, ctx, item, key, want_value)?;
            Some(SegmentHit { item, value })
        })
    }

    /// The node still pointing at the record at `item`, whose key
    /// hashes to `word`, if any (a newer set may live elsewhere). No
    /// record is read — safe while a merge is rewriting segments.
    fn find_item(&self, ctx: &mut ThreadCtx, word: u32, item: u64) -> Option<Found<()>> {
        self.index.find(ctx, word, |ctx, node| {
            (self.meta_space.read_u64(ctx, node + S_ITEM) == item).then_some(())
        })
    }

    /// The TTL bucket an item with `expiry` belongs to *now*.
    fn ttl_bucket_of(&self, ctx: &ThreadCtx, expiry: u32) -> usize {
        if expiry == 0 {
            return self.cfg.ttl_bounds.len();
        }
        let remaining = expiry.saturating_sub(now_secs(ctx));
        self.cfg
            .ttl_bounds
            .iter()
            .position(|&b| remaining <= b)
            .unwrap_or(self.cfg.ttl_bounds.len())
    }

    /// Acquires a fresh (empty, unsealed) segment, reclaiming under
    /// memory pressure.
    fn alloc_segment(&mut self, ctx: &mut ThreadCtx) -> usize {
        loop {
            if let Some(id) = self.free_segs.pop() {
                let base = self.segments[id].base;
                self.segments[id] = Segment::fresh(base);
                return id;
            }
            let next_bytes = ((self.segments.len() + 1) * self.cfg.segment_bytes) as u64;
            if next_bytes <= self.mem_limit {
                let base = self.data_space.alloc(self.cfg.segment_bytes);
                self.segments.push(Segment::fresh(base));
                return self.segments.len() - 1;
            }
            // Inline reclamation stalls the set that triggered it; the
            // tick's free-segment reserve makes this path rare.
            let t0 = ctx.now();
            self.reclaim(ctx);
            Stats::add(&ctx.machine.stats.maint_stall_cycles, ctx.now() - t0);
        }
    }

    /// Appends `(key, value)` into TTL bucket `tb`, returning
    /// `(segment_id, item_addr)`.
    fn append(
        &mut self,
        ctx: &mut ThreadCtx,
        tb: usize,
        key: &[u8],
        value: &[u8],
        expiry: u32,
    ) -> (usize, u64) {
        let record_len = RECORD_HEADER + key.len() + value.len();
        assert!(
            record_len <= self.cfg.segment_bytes,
            "record larger than a segment"
        );
        let need_new = match self.ttl[tb].active {
            Some(id) => self.segments[id].write + record_len > self.cfg.segment_bytes,
            None => true,
        };
        if need_new {
            if let Some(old) = self.ttl[tb].active.take() {
                self.segments[old].sealed = true;
                self.ttl[tb].chain.push(old);
            }
            let id = self.alloc_segment(ctx);
            self.ttl[tb].active = Some(id);
        }
        let id = self.ttl[tb].active.expect("active segment");
        let seg = &mut self.segments[id];
        let item = seg.base + seg.write as u64;
        seg.write += record_len;
        seg.appended += 1;
        seg.live += 1;
        if expiry == 0 {
            seg.all_ttl = false;
        } else {
            seg.max_expiry = seg.max_expiry.max(expiry);
        }
        self.data_space.write(ctx, item, &encode_record(key, value));
        (id, item)
    }

    /// Drops the index's reference into `seg` (the record bytes stay
    /// until the segment is expired or merged away).
    fn dead_mark(&mut self, seg: usize) {
        self.segments[seg].live -= 1;
    }

    /// Unlinks and frees the index node of an expired item.
    fn drop_expired(&mut self, ctx: &mut ThreadCtx, word: u32, node: u64, prev: u64, seg: usize) {
        if self.meta_space.read_u32(ctx, node + S_FLAGS) == FLAG_PART {
            self.spill_parts -= 1;
        }
        self.index.remove(ctx, word, node, prev);
        self.dead_mark(seg);
        self.items -= 1;
        self.expired += 1;
        Stats::bump(&ctx.machine.stats.expired_items);
    }

    /// Reclaims whole segments whose every item has expired. An active
    /// segment past its deadline is sealed first so it qualifies too.
    /// Returns the number of segments recycled.
    fn expire_segments(&mut self, ctx: &mut ThreadCtx) -> usize {
        let now = now_secs(ctx);
        let mut reclaimed = 0usize;
        for tb in 0..self.ttl.len() {
            if let Some(id) = self.ttl[tb].active {
                let s = &self.segments[id];
                if s.appended > 0 && s.all_ttl && s.max_expiry <= now {
                    self.ttl[tb].active = None;
                    self.segments[id].sealed = true;
                    self.ttl[tb].chain.push(id);
                }
            }
        }
        for tb in 0..self.ttl.len() {
            let victims: Vec<usize> = self.ttl[tb]
                .chain
                .iter()
                .copied()
                .filter(|&id| self.segments[id].all_ttl && self.segments[id].max_expiry <= now)
                .collect();
            for id in victims {
                self.retire_segment(ctx, id, true);
                self.ttl[tb].chain.retain(|&s| s != id);
                self.free_segs.push(id);
                reclaimed += 1;
                Stats::bump(&ctx.machine.stats.seg_expired_segments);
            }
        }
        reclaimed
    }

    /// Walks `seg`'s records and unlinks every index entry still
    /// pointing into it. `expiring` classifies the drops as expiry
    /// (whole-segment deadline) rather than eviction.
    fn retire_segment(&mut self, ctx: &mut ThreadCtx, seg: usize, expiring: bool) {
        let base = self.segments[seg].base;
        let end = self.segments[seg].write;
        let mut off = 0usize;
        while off < end {
            let item = base + off as u64;
            let rec = read_record(&self.data_space, ctx, item, false);
            let word = self.index.word(&rec.key);
            if let Some(Found { node, prev, .. }) = self.find_item(ctx, word, item) {
                if self.meta_space.read_u32(ctx, node + S_FLAGS) == FLAG_PART {
                    self.spill_parts -= 1;
                }
                self.index.remove(ctx, word, node, prev);
                self.items -= 1;
                if expiring {
                    self.expired += 1;
                    Stats::bump(&ctx.machine.stats.expired_items);
                } else {
                    self.evictions += 1;
                }
            }
            off += rec.len;
        }
        self.segments[seg].live = 0;
    }

    /// Merge-based eviction: compact the longest sealed chain's oldest
    /// segments, keep the most-requested survivors in one segment
    /// fewer, evict the overflow.
    fn merge(&mut self, ctx: &mut ThreadCtx) {
        // Choose the TTL bucket with the most sealed segments; seal
        // active segments first if nothing is sealed anywhere.
        let pick = |this: &Self| -> Option<usize> {
            (0..this.ttl.len())
                .filter(|&tb| !this.ttl[tb].chain.is_empty())
                .max_by_key(|&tb| this.ttl[tb].chain.len())
        };
        let tb = match pick(self) {
            Some(tb) => tb,
            None => {
                for tb in 0..self.ttl.len() {
                    if let Some(id) = self.ttl[tb].active.take() {
                        self.segments[id].sealed = true;
                        self.ttl[tb].chain.push(id);
                    }
                }
                pick(self).expect("segment pool exhausted with no sealed segments")
            }
        };
        let take = self.cfg.merge_segments.min(self.ttl[tb].chain.len()).max(1);
        let victims: Vec<usize> = self.ttl[tb].chain.drain(..take).collect();
        let now = now_secs(ctx);

        // Collect the live, unexpired survivors with their index state.
        struct Survivor {
            key: Vec<u8>,
            value: Vec<u8>,
            node: u64,
            expiry: u32,
            freq: u32,
            flags: u32,
        }
        let mut survivors: Vec<Survivor> = Vec::new();
        for &seg in &victims {
            let base = self.segments[seg].base;
            let end = self.segments[seg].write;
            let mut off = 0usize;
            while off < end {
                let item = base + off as u64;
                let Record { key, value, len } = read_record(&self.data_space, ctx, item, true);
                let word = self.index.word(&key);
                if let Some(Found { node, prev, .. }) = self.find_item(ctx, word, item) {
                    let expiry = self.meta_space.read_u32(ctx, node + N_EXPIRY);
                    if expiry != 0 && now >= expiry {
                        self.drop_expired(ctx, word, node, prev, seg);
                    } else {
                        let freq = self.meta_space.read_u32(ctx, node + S_FREQ);
                        let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
                        survivors.push(Survivor {
                            key,
                            value,
                            node,
                            expiry,
                            freq,
                            flags,
                        });
                    }
                }
                off += len;
            }
            self.segments[seg].live = 0;
        }

        // Repack the most-requested survivors directly into at most
        // `take - 1` of the reclaimed segments (NOT through the append
        // path — appending could recurse into another merge and
        // invalidate the survivor list). Whatever doesn't fit is
        // evicted, so the merge always nets at least one free segment.
        survivors.sort_by_key(|s| std::cmp::Reverse(s.freq));
        let mut spare = victims;
        let max_targets = take.saturating_sub(1);
        let mut repacked: Vec<usize> = Vec::new();
        let mut cur: Option<usize> = None;
        for s in survivors {
            let len = RECORD_HEADER + s.key.len() + s.value.len();
            let mut fits =
                cur.is_some_and(|id| self.segments[id].write + len <= self.cfg.segment_bytes);
            if !fits && repacked.len() < max_targets {
                let id = spare.pop().expect("victim segment spare");
                self.segments[id] = Segment::fresh(self.segments[id].base);
                self.segments[id].sealed = true;
                repacked.push(id);
                cur = Some(id);
                fits = true;
            }
            if !fits {
                // Evicted by the merge: unlink its index entry. By
                // node address, not key lookup — pending survivors
                // still point into victim regions the repack is
                // overwriting, so key comparison would read clobbered
                // bytes.
                if s.flags == FLAG_PART {
                    self.spill_parts -= 1;
                }
                self.index.remove_node(ctx, s.node);
                self.items -= 1;
                self.evictions += 1;
                continue;
            }
            let id = cur.expect("open repack target");
            let seg = &mut self.segments[id];
            let item = seg.base + seg.write as u64;
            seg.write += len;
            seg.appended += 1;
            seg.live += 1;
            if s.expiry == 0 {
                seg.all_ttl = false;
            } else {
                seg.max_expiry = seg.max_expiry.max(s.expiry);
            }
            self.data_space
                .write(ctx, item, &encode_record(&s.key, &s.value));
            self.meta_space.write_u64(ctx, s.node + S_ITEM, item);
            self.meta_space.write_u32(ctx, s.node + S_SEG, id as u32);
        }
        // Repacked segments rejoin the head of the chain (they hold
        // the bucket's oldest surviving items); untouched victims are
        // free for reuse.
        for (i, id) in repacked.iter().enumerate() {
            self.ttl[tb].chain.insert(i, *id);
        }
        self.free_segs.extend(spare);
        ctx.compute(ctx.machine.cfg.costs.seg_merge);
        Stats::bump(&ctx.machine.stats.seg_merges);
    }

    /// Relieves memory pressure: whole-segment expiry first (free),
    /// merge-based eviction otherwise.
    fn reclaim(&mut self, ctx: &mut ThreadCtx) {
        if self.expire_segments(ctx) > 0 {
            return;
        }
        self.merge(ctx);
    }

    // --- Spill chaining (values larger than one segment) ----------

    /// The plain single-record insert/overwrite path (the pre-spill
    /// `set`), parameterized by the record's role flag.
    fn insert_or_update(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
        flags: u32,
    ) {
        let tb = self.ttl_bucket_of(ctx, expiry);
        let (seg, item) = self.append(ctx, tb, key, value, expiry);
        // Look the key up *after* appending: the append may have run a
        // merge that relocated (or evicted) the previous copy, so any
        // earlier index probe would be stale.
        let word = self.index.word(key);
        let node = match self.find(ctx, word, key, false) {
            Some(found) => {
                let old_seg = self.meta_space.read_u32(ctx, found.node + S_SEG) as usize;
                self.dead_mark(old_seg);
                found.node
            }
            None => {
                let node = self.index.insert(ctx, word);
                self.meta_space.write_u32(ctx, node + S_FREQ, 0);
                self.items += 1;
                if flags == FLAG_PART {
                    self.spill_parts += 1;
                }
                node
            }
        };
        self.meta_space.write_u64(ctx, node + S_ITEM, item);
        self.meta_space.write_u32(ctx, node + S_SEG, seg as u32);
        self.meta_space.write_u32(ctx, node + N_EXPIRY, expiry);
        self.meta_space.write_u32(ctx, node + S_FLAGS, flags);
        self.index.set_version(ctx, word, node, version);
    }

    /// Stores a value too large for one segment: the value is split
    /// into parts under reserved derived keys, each appended like any
    /// record, and the client-visible key maps to a 16-byte descriptor
    /// (`total_len u64 ‖ nparts u32 ‖ magic u32`). Returns `false`,
    /// before touching anything, for a value the pool cannot hold.
    fn set_spill(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool {
        // Every part fills a segment of its own, next to the open
        // segment each TTL bucket may hold: a spill that does not fit
        // would only evict its own earlier parts, and everything else
        // on the way.
        let Some(part_cap) = self
            .cfg
            .segment_bytes
            .checked_sub(RECORD_HEADER + key.len() + 5)
            .filter(|&c| c > 0)
        else {
            return false;
        };
        let nparts = value.len().div_ceil(part_cap);
        if ((nparts + self.ttl.len()) * self.cfg.segment_bytes) as u64 > self.mem_limit {
            return false;
        }
        self.drop_spill_parts_of(ctx, key);
        for (i, chunk) in value.chunks(part_cap).enumerate() {
            let pk = spill_part_key(key, i as u32);
            self.insert_or_update(ctx, &pk, chunk, expiry, version, FLAG_PART);
        }
        let mut desc = Vec::with_capacity(16);
        desc.extend_from_slice(&(value.len() as u64).to_le_bytes());
        desc.extend_from_slice(&(nparts as u32).to_le_bytes());
        desc.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
        self.insert_or_update(ctx, key, &desc, expiry, version, FLAG_HEAD);
        true
    }

    /// Parses a spill head's value: `(total_len, nparts)`.
    fn spill_desc(desc: &[u8]) -> (u64, u32) {
        let total = u64::from_le_bytes(desc[..8].try_into().expect("desc"));
        let nparts = u32::from_le_bytes(desc[8..12].try_into().expect("desc"));
        let magic = u32::from_le_bytes(desc[12..16].try_into().expect("desc"));
        assert_eq!(magic, SPILL_MAGIC, "corrupt spill descriptor");
        (total, nparts)
    }

    /// Deletes the parts of the spill whose head record is at `item`
    /// (the head itself is left for the caller to overwrite or remove).
    fn drop_spill_parts(&mut self, ctx: &mut ThreadCtx, key: &[u8], item: u64) {
        let desc = read_record(&self.data_space, ctx, item, true).value;
        for i in 0..Self::spill_desc(&desc).1 {
            self.delete(ctx, &spill_part_key(key, i));
        }
    }

    /// If `key` currently maps to a spill head, deletes its parts.
    fn drop_spill_parts_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) {
        let Some(found) = self.find(ctx, self.index.word(key), key, false) else {
            return;
        };
        if self.meta_space.read_u32(ctx, found.node + S_FLAGS) == FLAG_HEAD {
            self.drop_spill_parts(ctx, key, found.hit.item);
        }
    }

    /// Reassembles a spill from its parts. A missing part (evicted by
    /// a merge under pressure) makes the whole spill unreadable: the
    /// remnants are deleted and the read misses.
    fn read_spill(&mut self, ctx: &mut ThreadCtx, key: &[u8], desc: &[u8]) -> Option<Vec<u8>> {
        let (total, nparts) = Self::spill_desc(desc);
        let mut out = Vec::with_capacity(total as usize);
        for i in 0..nparts {
            match self.get(ctx, &spill_part_key(key, i)) {
                Some(chunk) => out.extend_from_slice(&chunk),
                None => {
                    self.delete(ctx, key);
                    return None;
                }
            }
        }
        debug_assert_eq!(out.len() as u64, total, "spill reassembly length");
        Some(out)
    }

    /// Read-only spill reassembly from the head's descriptor bytes
    /// (for `for_each_since`, which cannot take `&mut self`). Returns
    /// `None` when a part is missing (broken spill).
    fn reassemble_spill(&self, ctx: &mut ThreadCtx, key: &[u8], desc: &[u8]) -> Option<Vec<u8>> {
        let (total, nparts) = Self::spill_desc(desc);
        let mut out = Vec::with_capacity(total as usize);
        for i in 0..nparts {
            let pk = spill_part_key(key, i);
            let part = self.find(ctx, self.index.word(&pk), &pk, true)?;
            out.extend_from_slice(&part.hit.value);
        }
        Some(out)
    }
}

impl StorageEngine for SegmentEngine {
    fn label(&self) -> &'static str {
        "segment"
    }

    fn init(&self, ctx: &mut ThreadCtx) {
        self.index.init(ctx);
    }

    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool {
        if RECORD_HEADER + key.len() + value.len() > self.cfg.segment_bytes {
            return self.set_spill(ctx, key, value, expiry, version);
        }
        // A plain set over a spill head must take the old parts along.
        self.drop_spill_parts_of(ctx, key);
        self.insert_or_update(ctx, key, value, expiry, version, FLAG_PLAIN);
        true
    }

    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let word = self.index.word(key);
        let Found { node, prev, hit } = self.find(ctx, word, key, true)?;
        let expiry = self.meta_space.read_u32(ctx, node + N_EXPIRY);
        if expiry != 0 && now_secs(ctx) >= expiry {
            let seg = self.meta_space.read_u32(ctx, node + S_SEG) as usize;
            self.drop_expired(ctx, word, node, prev, seg);
            return None;
        }
        let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
        let freq = self.meta_space.read_u32(ctx, node + S_FREQ);
        self.meta_space
            .write_u32(ctx, node + S_FREQ, freq.saturating_add(1));
        if flags == FLAG_HEAD {
            return self.read_spill(ctx, key, &hit.value);
        }
        Some(hit.value)
    }

    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        let word = self.index.word(key);
        let Some(Found { node, prev, hit }) = self.find(ctx, word, key, false) else {
            return false;
        };
        let seg = self.meta_space.read_u32(ctx, node + S_SEG) as usize;
        match self.meta_space.read_u32(ctx, node + S_FLAGS) {
            FLAG_HEAD => {
                // Parts first. One may share the head's chain and
                // leave `prev` stale, so the head goes by identity.
                self.drop_spill_parts(ctx, key, hit.item);
                self.index.remove_node(ctx, node);
            }
            flags => {
                if flags == FLAG_PART {
                    self.spill_parts -= 1;
                }
                self.index.remove(ctx, word, node, prev);
            }
        }
        self.dead_mark(seg);
        self.items -= 1;
        true
    }

    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64> {
        let found = self.find(ctx, self.index.word(key), key, false)?;
        Some(self.index.version(ctx, found.node))
    }

    fn len(&self) -> u64 {
        self.items - self.spill_parts
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn expired(&self) -> u64 {
        self.expired
    }

    fn pool_bytes(&self) -> u64 {
        (self.segments.len() * self.cfg.segment_bytes) as u64
    }

    // Segment maintenance is due at every tick, so there is no fence
    // to count.
    fn fence(&mut self) {}

    fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        // Proactive whole-segment expiry: the host-side deadline check
        // costs nothing, the reclamation does simulated work.
        let mut did = self.expire_segments(ctx) > 0;
        // Merge proactively to keep a reserve of free segments, so the
        // set-path allocator almost never reclaims inline. Only
        // buckets with at least two sealed segments are compacted —
        // merging a lone segment would evict everything in it.
        loop {
            let grown =
                ((self.segments.len() + 1) * self.cfg.segment_bytes) as u64 > self.mem_limit;
            let mergeable = self.ttl.iter().any(|b| b.chain.len() >= 2);
            if !grown || self.free_segs.len() >= SEG_FREE_RESERVE || !mergeable {
                break;
            }
            let before = self.free_segs.len();
            self.merge(ctx);
            Stats::bump(&ctx.machine.stats.bg_merges);
            did = true;
            if self.free_segs.len() <= before {
                break;
            }
        }
        did
    }

    fn for_each_since(&self, ctx: &mut ThreadCtx, base: u64, f: &mut ItemVisitor) {
        let now = now_secs(ctx);
        self.index.for_each_node(ctx, base, |ctx, node| {
            let version = self.index.version(ctx, node);
            if version < base {
                return;
            }
            let expiry = self.meta_space.read_u32(ctx, node + N_EXPIRY);
            let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
            // Spill parts are an encoding detail: heads are visited
            // with their reassembled value, so snapshots stay
            // engine-neutral.
            if flags == FLAG_PART || (expiry != 0 && now >= expiry) {
                return;
            }
            let item = self.meta_space.read_u64(ctx, node + S_ITEM);
            let rec = read_record(&self.data_space, ctx, item, true);
            if flags != FLAG_HEAD {
                f(&rec.key, &rec.value, version, expiry);
            } else if let Some(full) = self.reassemble_spill(ctx, &rec.key, &rec.value) {
                // A broken spill chain is skipped entirely.
                f(&rec.key, &full, version, expiry);
            }
        });
    }

    fn meta_blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&(self.cfg.segment_bytes as u64).to_le_bytes());
        blob.extend_from_slice(&(self.cfg.ttl_bounds.len() as u32).to_le_bytes());
        for &b in &self.cfg.ttl_bounds {
            blob.extend_from_slice(&b.to_le_bytes());
        }
        blob.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        blob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn rig() -> (Arc<SgxMachine>, ThreadCtx, DataSpace) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let space = DataSpace::Untrusted(Arc::clone(&m));
        (m, t, space)
    }

    fn slab_engine(limit: u64, rebalance: Option<RebalanceConfig>) -> (SlabEngine, ThreadCtx) {
        let (_m, mut t, space) = rig();
        let eng = SlabEngine::new(space.clone(), space, limit, 1024, rebalance);
        eng.init(&mut t);
        (eng, t)
    }

    fn segment_engine(limit: u64) -> (SegmentEngine, ThreadCtx) {
        let (_m, mut t, space) = rig();
        let eng = SegmentEngine::new(space.clone(), space, limit, 1024, SegmentConfig::default());
        eng.init(&mut t);
        (eng, t)
    }

    /// What `Kvs::fence` does with no maintenance plane: count, then
    /// the byte-work inline on the same thread.
    fn fence_and_tick(eng: &mut dyn StorageEngine, t: &mut ThreadCtx) {
        eng.fence();
        eng.maintenance_tick(t);
    }

    #[test]
    fn engine_labels() {
        assert_eq!(EngineConfig::default().label(), "slab");
        assert_eq!(
            EngineConfig::Slab {
                rebalance: Some(RebalanceConfig::default())
            }
            .label(),
            "slab-rebal"
        );
        assert_eq!(
            EngineConfig::Segment(SegmentConfig::default()).label(),
            "segment"
        );
    }

    #[test]
    fn segment_set_get_delete() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        eng.set(&mut t, b"hello", b"world", 0, 1);
        assert_eq!(eng.get(&mut t, b"hello").unwrap(), b"world");
        assert_eq!(eng.get(&mut t, b"missing"), None);
        eng.set(&mut t, b"hello", b"again", 0, 2);
        assert_eq!(eng.get(&mut t, b"hello").unwrap(), b"again");
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.version_of(&mut t, b"hello"), Some(2));
        assert!(eng.delete(&mut t, b"hello"));
        assert!(!eng.delete(&mut t, b"hello"));
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn segment_survives_many_keys_and_merges() {
        let (mut eng, mut t) = segment_engine(1 << 20); // tight: merges must run
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        for i in 0..6000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 200 + (i as usize % 200)];
            eng.set(&mut t, key.as_bytes(), &value, 0, 1);
        }
        assert!(eng.evictions() > 0, "tight pool must evict");
        let d = m.stats.snapshot();
        assert!(d.seg_merges > 0, "eviction must be merge-based");
        // Recent keys survive with correct bytes.
        let mut present = 0;
        for i in 5900..6000u32 {
            let key = format!("key-{i:05}");
            if let Some(v) = eng.get(&mut t, key.as_bytes()) {
                assert_eq!(v, vec![(i % 251) as u8; 200 + (i as usize % 200)]);
                present += 1;
            }
        }
        assert!(present > 50, "most recent keys should survive a merge");
        assert!(eng.pool_bytes() <= 1 << 20, "memory limit respected");
        t.exit();
    }

    #[test]
    fn segment_merge_keeps_hot_items() {
        let (mut eng, mut t) = segment_engine(1 << 20);
        // Insert a hot key, touch it a lot, then overflow the pool.
        eng.set(&mut t, b"hot", &[1u8; 200], 0, 1);
        for _ in 0..50 {
            assert!(eng.get(&mut t, b"hot").is_some());
        }
        for i in 0..5000u32 {
            eng.set(&mut t, format!("cold-{i}").as_bytes(), &[0u8; 300], 0, 1);
        }
        assert!(eng.evictions() > 0);
        assert!(
            eng.get(&mut t, b"hot").is_some(),
            "frequency-ranked merge must keep the hot item"
        );
        t.exit();
    }

    #[test]
    fn segment_whole_segment_expiry() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        // Everything in one short-TTL bucket.
        for i in 0..200u32 {
            eng.set(&mut t, format!("eph-{i}").as_bytes(), &[9u8; 800], 5, 1);
        }
        let pool_before = eng.pool_bytes();
        assert!(pool_before >= 128 << 10);
        // Cross the deadline; the tick reclaims sealed segments whole.
        t.compute(8 * 3_400_000_000);
        fence_and_tick(&mut eng, &mut t);
        let d = m.stats.snapshot();
        assert!(d.seg_expired_segments > 0, "whole segments must expire");
        assert!(d.expired_items > 0);
        // All lapsed: gets all miss (the active segment expires lazily).
        for i in (0..200u32).step_by(13) {
            assert_eq!(eng.get(&mut t, format!("eph-{i}").as_bytes()), None);
        }
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn rebalancer_moves_slabs_to_starved_class() {
        // 4 MiB pool, phase A fills small items, phase B needs big
        // chunks: without moves the small class calcifies the pool.
        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        for i in 0..20_000u32 {
            eng.set(&mut t, format!("a-{i}").as_bytes(), &[1u8; 100], 0, 1);
        }
        // Phase B: large values; deletes drain phase A.
        for i in 0..20_000u32 {
            eng.delete(&mut t, format!("a-{i}").as_bytes());
        }
        for i in 0..2_000u32 {
            eng.set(&mut t, format!("b-{i}").as_bytes(), &[2u8; 1200], 0, 1);
            if i % 64 == 0 {
                fence_and_tick(&mut eng, &mut t);
            }
        }
        fence_and_tick(&mut eng, &mut t);
        let d = m.stats.snapshot();
        assert!(d.slab_moves > 0, "the rebalancer must move slabs");
        // Everything in phase B's recent window still reads correctly.
        for i in 1_500..2_000u32 {
            if let Some(v) = eng.get(&mut t, format!("b-{i}").as_bytes()) {
                assert_eq!(v, vec![2u8; 1200]);
            }
        }
        t.exit();
    }

    #[test]
    fn segment_spills_values_larger_than_a_segment() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        // 300 KiB value vs 128 KiB segments: must chain across spills.
        let big: Vec<u8> = (0..300 << 10).map(|i: u32| (i % 241) as u8).collect();
        eng.set(&mut t, b"big", &big, 0, 1);
        assert_eq!(eng.len(), 1, "spill parts are an encoding detail");
        assert_eq!(eng.get(&mut t, b"big").unwrap(), big);
        assert_eq!(eng.version_of(&mut t, b"big"), Some(1));
        // Overwrite with a different large value, then shrink to small.
        let big2: Vec<u8> = (0..200 << 10).map(|i: u32| (i % 13) as u8).collect();
        eng.set(&mut t, b"big", &big2, 0, 2);
        assert_eq!(eng.get(&mut t, b"big").unwrap(), big2);
        assert_eq!(eng.len(), 1);
        eng.set(&mut t, b"big", b"small", 0, 3);
        assert_eq!(eng.get(&mut t, b"big").unwrap(), b"small");
        assert_eq!(eng.len(), 1);
        // Spills re-grow and delete cleanly, parts included.
        eng.set(&mut t, b"big", &big, 0, 4);
        assert!(eng.delete(&mut t, b"big"));
        assert!(eng.get(&mut t, b"big").is_none());
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn segment_spill_round_trips_through_for_each() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        let big: Vec<u8> = (0..160 << 10).map(|i: u32| (i % 239) as u8).collect();
        eng.set(&mut t, b"wide", &big, 0, 5);
        eng.set(&mut t, b"narrow", b"v", 0, 6);
        let mut seen: Vec<(Vec<u8>, Vec<u8>, u64)> = Vec::new();
        eng.for_each_since(&mut t, 0, &mut |k: &[u8], v: &[u8], ver, _| {
            seen.push((k.to_vec(), v.to_vec(), ver));
        });
        seen.sort();
        assert_eq!(seen.len(), 2, "spill parts must not be visited");
        assert_eq!(seen[0], (b"narrow".to_vec(), b"v".to_vec(), 6));
        assert_eq!(seen[1].0, b"wide".to_vec());
        assert_eq!(seen[1].1, big, "heads are visited reassembled");
        assert_eq!(seen[1].2, 5);
        t.exit();
    }

    /// Calcify on small items, delete three in four, shift to large
    /// ones; `fence` runs every 64 sets.
    fn shifting_load(
        eng: &mut SlabEngine,
        t: &mut ThreadCtx,
        fence: fn(&mut SlabEngine, &mut ThreadCtx),
    ) {
        for i in 0..20_000u32 {
            eng.set(t, format!("a-{i}").as_bytes(), &[1u8; 100], 0, 1);
        }
        for i in (0..20_000u32).filter(|i| i % 4 != 0) {
            eng.delete(t, format!("a-{i}").as_bytes());
        }
        for i in 0..2_000u32 {
            eng.set(t, format!("b-{i}").as_bytes(), &[2u8; 1200], 0, 1);
            if i % 64 == 0 {
                fence(eng, t);
            }
        }
    }

    /// Half the sets carry a 5 s TTL, simulated time advances 0.1 s per
    /// fence, and the pool never fills, so whole-segment expiry is the
    /// only reclamation.
    fn ttl_load(
        eng: &mut SegmentEngine,
        t: &mut ThreadCtx,
        fence: fn(&mut SegmentEngine, &mut ThreadCtx),
    ) {
        for i in 0..6000u32 {
            let ttl = if i % 2 == 0 { 5 } else { 0 };
            let value = vec![(i % 251) as u8; 200 + (i as usize % 200)];
            eng.set(t, format!("key-{i:05}").as_bytes(), &value, ttl, 1);
            if i % 64 == 0 {
                t.compute(340_000_000);
                fence(eng, t);
            }
        }
    }

    #[test]
    fn a_tick_is_due_however_it_aligns_to_the_fence_period() {
        // 32 fences at period 5: a plane's tick lands off a multiple of
        // the period, and must still run the pass those fences earned.
        let cfg = RebalanceConfig {
            fence_period: 5,
            ..RebalanceConfig::default()
        };
        let (mut eng, mut t) = slab_engine(4 << 20, Some(cfg));
        shifting_load(&mut eng, &mut t, |eng, _| eng.fence());
        assert!(eng.maintenance_tick(&mut t), "32 fences passed: due");
        for _ in 0..4 {
            eng.fence();
            assert!(!eng.maintenance_tick(&mut t), "under a period since");
        }
        t.exit();
    }

    #[test]
    fn a_fence_moves_no_bytes_and_fence_plus_tick_is_the_old_synchronous_fence() {
        // The counts the fence-synchronous engines produced on these
        // loads before `fence` and `maintenance_tick` were split.
        const SYNC_SLAB_MOVES: u64 = 2;
        const SYNC_ITEMS_RELOCATED: u64 = 2816;
        const SYNC_EXPIRED_ITEMS: u64 = 2977;
        const SYNC_EXPIRED_SEGMENTS: u64 = 48;

        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        shifting_load(&mut eng, &mut t, |eng, _| eng.fence());
        assert_eq!(m.stats.snapshot().slab_moves, 0, "a fence moves no slab");
        assert!(
            eng.maintenance_tick(&mut t),
            "the tick finds the starved class"
        );
        assert!(m.stats.snapshot().slab_moves > 0);
        t.exit();

        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        shifting_load(&mut eng, &mut t, |eng, t| fence_and_tick(eng, t));
        let d = m.stats.snapshot();
        assert_eq!(d.slab_moves, SYNC_SLAB_MOVES);
        assert_eq!(d.slab_items_relocated, SYNC_ITEMS_RELOCATED);
        assert_eq!(d.maint_stall_cycles, 0, "an engine does not know who pays");
        t.exit();

        let (mut eng, mut t) = segment_engine(8 << 20);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        ttl_load(&mut eng, &mut t, |eng, _| eng.fence());
        let d = m.stats.snapshot();
        assert_eq!(
            (d.seg_expired_segments, d.expired_items, d.seg_merges),
            (0, 0, 0),
            "a fence expires and merges nothing"
        );
        t.exit();

        let (mut eng, mut t) = segment_engine(8 << 20);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        ttl_load(&mut eng, &mut t, |eng, t| fence_and_tick(eng, t));
        let d = m.stats.snapshot();
        assert_eq!(d.expired_items, SYNC_EXPIRED_ITEMS);
        assert_eq!(d.seg_expired_segments, SYNC_EXPIRED_SEGMENTS);
        t.exit();
    }

    #[test]
    fn segment_tick_merges_to_keep_a_free_reserve() {
        let (mut eng, mut t) = segment_engine(1 << 20);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        for i in 0..6000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 200 + (i as usize % 200)];
            eng.set(&mut t, key.as_bytes(), &value, 0, 1);
            if i % 64 == 0 {
                fence_and_tick(&mut eng, &mut t);
            }
        }
        let d = m.stats.snapshot();
        assert!(d.bg_merges > 0, "the tick must merge proactively");
        // Recent keys survive with correct bytes despite the
        // compaction.
        let mut present = 0;
        for i in 5900..6000u32 {
            let key = format!("key-{i:05}");
            if let Some(v) = eng.get(&mut t, key.as_bytes()) {
                assert_eq!(v, vec![(i % 251) as u8; 200 + (i as usize % 200)]);
                present += 1;
            }
        }
        assert!(present > 50, "recent keys should survive the tick's merges");
        t.exit();
    }

    #[test]
    fn rebalancer_off_fence_is_free() {
        let (mut eng, mut t) = slab_engine(4 << 20, None);
        eng.set(&mut t, b"k", b"v", 0, 1);
        let before = t.now();
        fence_and_tick(&mut eng, &mut t);
        assert_eq!(t.now(), before, "disabled rebalancer must charge nothing");
        t.exit();
    }

    #[test]
    fn relocated_items_read_back_exactly() {
        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        // Live small items that will be relocated when their slabs
        // donate to the large class.
        for i in 0..500u32 {
            eng.set(&mut t, format!("keep-{i}").as_bytes(), &[7u8; 120], 0, 1);
        }
        for i in 0..2_500u32 {
            eng.set(&mut t, format!("fill-{i}").as_bytes(), &[3u8; 1200], 0, 1);
            if i % 64 == 0 {
                fence_and_tick(&mut eng, &mut t);
            }
        }
        // Any keep-* item still indexed must read back exactly.
        for i in 0..500u32 {
            if let Some(v) = eng.get(&mut t, format!("keep-{i}").as_bytes()) {
                assert_eq!(v, vec![7u8; 120]);
            }
        }
        t.exit();
    }

    // --- One index, keyed in-node hashes, pinned record reads --------

    use std::collections::HashMap;

    use eleos_core::{Suvm, SuvmConfig};
    use proptest::prelude::*;

    /// Either engine, with the private maintenance entry points the
    /// tests drive directly.
    enum Eng {
        Slab(SlabEngine),
        Segment(SegmentEngine),
    }

    impl Eng {
        fn build(
            segment: bool,
            meta: DataSpace,
            data: DataSpace,
            limit: u64,
            buckets: u64,
        ) -> Self {
            if segment {
                let cfg = SegmentConfig::default();
                Eng::Segment(SegmentEngine::new(meta, data, limit, buckets, cfg))
            } else {
                let rebalance = Some(RebalanceConfig::default());
                Eng::Slab(SlabEngine::new(meta, data, limit, buckets, rebalance))
            }
        }

        fn api(&mut self) -> &mut dyn StorageEngine {
            match self {
                Eng::Slab(e) => e,
                Eng::Segment(e) => e,
            }
        }

        fn index(&mut self) -> &mut HashIndex {
            match self {
                Eng::Slab(e) => &mut e.index,
                Eng::Segment(e) => &mut e.index,
            }
        }

        /// Memory-pressure eviction: the LRU tail, or a merge pass.
        fn evict(&mut self, ctx: &mut ThreadCtx) {
            match self {
                Eng::Slab(e) => {
                    e.evict_one(ctx);
                }
                Eng::Segment(e) => {
                    if e.ttl
                        .iter()
                        .any(|b| b.active.is_some() || !b.chain.is_empty())
                    {
                        e.merge(ctx);
                    }
                }
            }
        }

        /// Moves live records: a slab handed to class `needy`, or a
        /// merge pass repacking survivors.
        fn relocate(&mut self, ctx: &mut ThreadCtx, needy_len: usize) {
            match self {
                Eng::Slab(e) => {
                    let needy = e.slab.class_of(needy_len).expect("class");
                    if let Some((donor, base)) = e.pick_donor(needy) {
                        e.move_slab(ctx, donor, base, needy);
                    }
                }
                Eng::Segment(_) => self.evict(ctx),
            }
        }

        /// Address of `key`'s record, looked up the way a GET does.
        fn record_addr(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> u64 {
            match self {
                Eng::Slab(e) => {
                    let word = e.index.word(key);
                    e.find(ctx, word, key, false).expect("stored").hit.kv
                }
                Eng::Segment(e) => {
                    let word = e.index.word(key);
                    e.find(ctx, word, key, false).expect("stored").hit.item
                }
            }
        }
    }

    /// Machine, entered thread, clear metadata space and — given a
    /// sub-page size to seal in — a SUVM data space over a 16-frame
    /// EPC++: 4096 is whole-page seals (every miss faults), 1024 lets
    /// cold reads and writes bypass EPC++.
    fn spaces(paging: Option<usize>) -> (ThreadCtx, DataSpace, DataSpace, Option<Arc<Suvm>>) {
        let (m, t, meta) = rig();
        let suvm = paging.map(|sub_page_size| {
            Suvm::new(
                &t,
                SuvmConfig {
                    sub_page_size,
                    backing_bytes: 64 << 20,
                    ..SuvmConfig::tiny()
                },
            )
        });
        let data = match &suvm {
            Some(s) => DataSpace::suvm(s),
            None => DataSpace::Untrusted(m),
        };
        (t, meta, data, suvm)
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Set { k: usize, vlen: usize },
        Get { k: usize },
        Delete { k: usize },
        Evict,
        Relocate,
        Fence,
    }

    /// Same-length keys (only the bytes tell them apart) next to keys
    /// of other lengths.
    fn test_key(k: usize) -> Vec<u8> {
        if k % 4 == 3 {
            format!("k{k}").into_bytes()
        } else {
            format!("key-{k:02}").into_bytes()
        }
    }

    fn test_value(k: usize, stamp: u64, vlen: usize) -> Vec<u8> {
        (0..vlen)
            .map(|i| (i as u64 + 31 * k as u64 + 7 * stamp) as u8)
            .collect()
    }

    /// Value lengths landing in four slab classes; the largest is two
    /// chunks to a slab (so slab moves relocate live records) and
    /// spills across three segments.
    const VLENS: [usize; 4] = [24, 300, 2_000, 380_000];

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest has no weighted oneof: duplicates
        // approximate a 4:3:2:1:1:1 mix.
        let set = || (0usize..16, 0usize..4).prop_map(|(k, v)| Op::Set { k, vlen: VLENS[v] });
        let get = || (0usize..16).prop_map(|k| Op::Get { k });
        let delete = || (0usize..16).prop_map(|k| Op::Delete { k });
        prop_oneof![
            set(),
            set(),
            set(),
            set(),
            get(),
            get(),
            get(),
            delete(),
            delete(),
            Just(Op::Evict),
            Just(Op::Relocate),
            Just(Op::Fence),
        ]
    }

    /// Runs `ops` with every key forced onto one bucket and one stored
    /// word, so the engine's full key comparison alone decides every
    /// lookup, and checks every reply against a `HashMap`. Evictions
    /// are the engine's choice: after any op that evicted, the shadow
    /// drops exactly the keys the engine no longer serves.
    fn check_collisions(segment: bool, paging: Option<usize>, ops: &[Op]) {
        let (mut t, meta, data, _suvm) = spaces(paging);
        let mut eng = Eng::build(segment, meta, data, 32 << 20, 64);
        eng.api().init(&mut t);
        eng.index().collide_all();
        let mut shadow: HashMap<usize, Vec<u8>> = HashMap::new();
        for (stamp, op) in ops.iter().enumerate() {
            let stamp = stamp as u64;
            let evicted = eng.api().evictions();
            match *op {
                Op::Set { k, vlen } => {
                    let value = test_value(k, stamp, vlen);
                    assert!(eng.api().set(&mut t, &test_key(k), &value, 0, stamp));
                    shadow.insert(k, value);
                }
                Op::Get { k } => {
                    let got = eng.api().get(&mut t, &test_key(k));
                    assert_eq!(got.as_ref(), shadow.get(&k), "GET {k} at op {stamp}");
                }
                Op::Delete { k } => {
                    let existed = eng.api().delete(&mut t, &test_key(k));
                    assert_eq!(existed, shadow.remove(&k).is_some(), "DELETE {k}");
                }
                Op::Evict => eng.evict(&mut t),
                Op::Relocate => eng.relocate(&mut t, VLENS[2]),
                Op::Fence => fence_and_tick(eng.api(), &mut t),
            }
            if eng.api().evictions() != evicted {
                // By GET: a spill that lost a part reads as a miss.
                shadow.retain(|&k, _| eng.api().get(&mut t, &test_key(k)).is_some());
            }
            assert_eq!(eng.api().len(), shadow.len() as u64, "after {op:?}");
        }
        // Everything left reads back exactly, by lookup and by scan.
        for (&k, value) in &shadow {
            assert_eq!(eng.api().get(&mut t, &test_key(k)).as_ref(), Some(value));
        }
        let mut seen = 0;
        eng.api()
            .for_each_since(&mut t, 0, &mut |key, value, _, _| {
                let k = (0..16).find(|&k| test_key(k) == key).expect("a test key");
                assert_eq!(Some(&value.to_vec()), shadow.get(&k));
                seen += 1;
            });
        assert_eq!(seen, shadow.len());
        t.exit();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn full_key_comparison_decides_under_forced_collisions(
            ops in proptest::collection::vec(op_strategy(), 30..70),
        ) {
            for segment in [false, true] {
                for paging in [None, Some(4096), Some(1024)] {
                    check_collisions(segment, paging, &ops);
                }
            }
        }
    }

    #[test]
    fn relocation_under_forced_collisions_moves_live_records() {
        // Non-vacuity for the property above: three big records take
        // two slabs; with one deleted, the emptier slab's survivor has
        // somewhere to go and the move relocates it.
        let (mut t, meta, data, _suvm) = spaces(Some(4096));
        let m = Arc::clone(&t.machine);
        let mut eng = Eng::build(false, meta, data, 32 << 20, 64);
        eng.api().init(&mut t);
        eng.index().collide_all();
        for k in 0..3 {
            let value = test_value(k, 0, VLENS[3]);
            assert!(eng.api().set(&mut t, &test_key(k), &value, 0, 0));
        }
        assert!(eng.api().delete(&mut t, &test_key(0)));
        m.reset_counters();
        eng.relocate(&mut t, VLENS[2]);
        assert_eq!(m.stats.snapshot().slab_items_relocated, 1);
        for k in 1..3 {
            let got = eng.api().get(&mut t, &test_key(k));
            assert_eq!(got, Some(test_value(k, 0, VLENS[3])));
        }
        t.exit();
    }

    /// Pages of the 4 KiB-paged secure space `[addr, addr + len)` spans.
    fn pages_spanned(addr: u64, len: usize) -> u64 {
        (addr + len as u64 - 1) / 4096 - addr / 4096 + 1
    }

    /// SUVM page-table lookups so far (each ends in a hit or a fault).
    fn lookups(m: &SgxMachine) -> u64 {
        let s = m.stats.snapshot();
        s.suvm_major_faults + s.suvm_hits
    }

    fn secure_touches_are_the_requests_own(segment: bool) {
        let (mut t, meta, data, suvm) = spaces(Some(4096));
        let suvm = suvm.expect("paging rig");
        let m = Arc::clone(&t.machine);
        // 64 items over 16 buckets: every chain holds ~4 strangers.
        let mut eng = Eng::build(segment, meta, data, 32 << 20, 16);
        eng.api().init(&mut t);
        let value_of = |k: usize| test_value(k, 1, if k.is_multiple_of(8) { 5_000 } else { 100 });
        for k in 0..64 {
            assert!(eng.api().set(&mut t, &test_key(k), &value_of(k), 0, 0));
        }
        let record_len = |k: usize| RECORD_HEADER + test_key(k).len() + value_of(k).len();
        let go_cold = |t: &mut ThreadCtx| while suvm.evict_one(t) {};
        let faults = || m.stats.snapshot().suvm_major_faults;

        // A GET hit faults exactly the pages its own record spans.
        for k in [0, 5, 8, 63] {
            let pages = pages_spanned(eng.record_addr(&mut t, &test_key(k)), record_len(k));
            go_cold(&mut t);
            let before = faults();
            assert_eq!(eng.api().get(&mut t, &test_key(k)), Some(value_of(k)));
            assert_eq!(faults() - before, pages, "GET hit of key {k}");
        }

        // A GET miss walks a chain of strangers in clear metadata only.
        go_cold(&mut t);
        let before = faults();
        for k in 100..140 {
            assert_eq!(eng.api().get(&mut t, &test_key(k)), None);
        }
        assert_eq!(faults() - before, 0, "GET misses touched secure memory");

        // So does evicting an LRU victim the caller holds by address.
        if let Eng::Slab(e) = &mut eng {
            let before = (faults(), e.evictions);
            assert!(e.evict_one(&mut t));
            assert_eq!((faults(), e.evictions), (before.0, before.1 + 1));
        }

        // A delta scan reads the records stamped >= base and no other.
        let fresh = [3usize, 8, 21, 40, 55];
        for &k in &fresh {
            assert!(eng.api().set(&mut t, &test_key(k), &value_of(k), 0, 7));
        }
        let pages: u64 = fresh
            .iter()
            .map(|&k| pages_spanned(eng.record_addr(&mut t, &test_key(k)), record_len(k)))
            .sum();
        go_cold(&mut t);
        let before = lookups(&m);
        let mut seen = Vec::new();
        eng.api()
            .for_each_since(&mut t, 7, &mut |key, _, version, _| {
                assert_eq!(version, 7);
                seen.push(key.to_vec());
            });
        seen.sort();
        let mut want: Vec<Vec<u8>> = fresh.iter().map(|&k| test_key(k)).collect();
        want.sort();
        assert_eq!(seen, want);
        assert_eq!(
            lookups(&m) - before,
            pages,
            "one translation per page of each fresh record, none for the rest"
        );
        t.exit();
    }

    #[test]
    fn slab_touches_only_the_requests_own_secure_pages() {
        secure_touches_are_the_requests_own(false);
    }

    #[test]
    fn segment_touches_only_the_requests_own_secure_pages() {
        secure_touches_are_the_requests_own(true);
    }

    /// The same accounting where a page leaves EPC++ as four 1 KiB
    /// sub-pages: a request for a cold record pays for the sub-pages
    /// the record spans and faults nothing in, unless the record was
    /// read a moment ago.
    fn cold_records_bypass_the_page_cache(segment: bool) {
        let (mut t, meta, data, suvm) = spaces(Some(1024));
        let suvm = suvm.expect("paging rig");
        let m = Arc::clone(&t.machine);
        let mut eng = Eng::build(segment, meta, data.clone(), 32 << 20, 16);
        eng.api().init(&mut t);
        let value_of =
            |k: usize, stamp: u64| test_value(k, stamp, if k == 8 { 5_000 } else { 100 });
        for k in 0..64 {
            assert!(eng.api().set(&mut t, &test_key(k), &value_of(k, 1), 0, 0));
        }
        // "Cold" is evicted and not read for a while: eight pages of
        // the same space, read four at a time, push every earlier
        // read miss out of the 16 / 4-miss reuse window.
        let other = data.alloc(8 * 4096);
        data.write(&mut t, other, &[1u8; 8 * 4096]);
        let mut next = 0;
        let mut go_cold = |t: &mut ThreadCtx| {
            while suvm.evict_one(t) {}
            for _ in 0..4 {
                data.read(t, other + next % 8 * 4096, &mut [0u8; 8]);
                next += 1;
            }
            assert_eq!(suvm.resident_pages(), 0);
        };
        // (major faults, sub-pages unsealed or re-sealed) so far.
        let touched = || {
            let s = m.stats.snapshot();
            (s.suvm_major_faults, s.sealed_bytes / 1024)
        };
        let since = |before: (u64, u64)| (touched().0 - before.0, touched().1 - before.1);

        for k in [5, 8] {
            let addr = eng.record_addr(&mut t, &test_key(k));
            let len = RECORD_HEADER + test_key(k).len() + value_of(k, 1).len();
            let pages = pages_spanned(addr, len);
            let subs = (addr + len as u64 - 1) / 1024 - addr / 1024 + 1;
            go_cold(&mut t);
            // Cold: no fault, one unseal per sub-page of the record.
            let before = touched();
            assert_eq!(eng.api().get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (0, subs), "cold GET of key {k}");
            assert_eq!(suvm.resident_pages(), 0);
            // Again at once: the record's pages are worth caching (a
            // fault unseals all four sub-pages of a page) ...
            let before = touched();
            assert_eq!(eng.api().get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (pages, 4 * pages), "second GET of key {k}");
            // ... and the third GET is a hit.
            let before = touched();
            assert_eq!(eng.api().get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (0, 0), "third GET of key {k}");
        }

        // A cold overwrite is written through: the new record faults
        // nothing in and stays out of EPC++, its value there to read.
        // (The segment engine looks an overwritten key up twice — for
        // a spill head, and again once the append may have merged —
        // so to SUVM the old record's page is one just re-read.)
        go_cold(&mut t);
        let before = touched();
        assert!(eng.api().set(&mut t, &test_key(5), &value_of(5, 2), 0, 0));
        let old_page = u64::from(segment);
        assert_eq!(since(before).0, old_page, "cold SET faulted");
        assert!(since(before).1 > 4 * old_page, "cold SET sealed nothing");
        assert_eq!(suvm.resident_pages() as u64, old_page);
        assert_eq!(eng.api().get(&mut t, &test_key(5)), Some(value_of(5, 2)));

        // A record landing on never-sealed pages has no sealed copy to
        // write through to: it goes through EPC++ like any write did.
        go_cold(&mut t);
        let big = test_value(99, 1, 40_000);
        let before = touched();
        assert!(eng.api().set(&mut t, &test_key(99), &big, 0, 0));
        assert!(since(before).0 >= pages_spanned(0, big.len()) - 1);
        assert!(suvm.resident_pages() > 0);
        assert_eq!(eng.api().get(&mut t, &test_key(99)), Some(big));
        t.exit();
    }

    #[test]
    fn slab_cold_records_bypass_the_page_cache() {
        cold_records_bypass_the_page_cache(false);
    }

    #[test]
    fn segment_cold_records_bypass_the_page_cache() {
        cold_records_bypass_the_page_cache(true);
    }

    #[test]
    fn oversize_set_fails_and_leaves_the_store_untouched() {
        // Slab: a record no class can hold used to evict every item
        // looking for room, then panic on the empty LRU.
        let (mut eng, mut t) = slab_engine(4 << 20, None);
        for i in 0..50u32 {
            assert!(eng.set(&mut t, format!("k{i}").as_bytes(), &[i as u8; 100], 0, 1));
        }
        let huge = vec![7u8; SLAB_BYTES];
        assert!(!eng.set(&mut t, b"huge", &huge, 0, 2));
        assert!(!eng.set(&mut t, b"k7", &huge, 0, 2), "nor over a live key");
        assert_eq!((eng.len(), eng.evictions()), (50, 0));
        assert_eq!(eng.get(&mut t, b"k7").unwrap(), [7u8; 100]);
        assert_eq!(eng.version_of(&mut t, b"k7"), Some(1));
        assert_eq!(eng.get(&mut t, b"huge"), None);
        t.exit();

        // Segment: a spill the pool cannot hold used to evict its own
        // earlier parts, and everything else on the way.
        let (mut eng, mut t) = segment_engine(1 << 20);
        for i in 0..50u32 {
            assert!(eng.set(&mut t, format!("k{i}").as_bytes(), &[i as u8; 100], 0, 1));
        }
        let huge = vec![7u8; 2 << 20];
        assert!(!eng.set(&mut t, b"huge", &huge, 0, 2));
        assert!(!eng.set(&mut t, b"k7", &huge, 0, 2));
        let long_key = vec![b'x'; 128 << 10];
        assert!(
            !eng.set(&mut t, &long_key, b"v", 0, 2),
            "key too long to spill"
        );
        assert_eq!((eng.len(), eng.evictions()), (50, 0));
        assert_eq!(eng.get(&mut t, b"k7").unwrap(), [7u8; 100]);
        assert_eq!(eng.get(&mut t, b"huge"), None);
        t.exit();
    }
}
