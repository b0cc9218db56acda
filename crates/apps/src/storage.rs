//! The storage engine behind the KVS front-end.
//!
//! The seed's KVS hard-wired memcached's static slab classes; this
//! module is that store grown into the production storage tier:
//! [`SlabEngine`] is the slab/LRU store with an optional **slab
//! rebalancer** — per-class hit/eviction windows decide, at sub-batch
//! fences only, when to reassign a whole 1 MiB slab from a cold class
//! to a starved ("calcified") one, relocating the donor slab's live
//! items to sibling slabs first (memcached's slab automover).
//!
//! The engine keeps the paper's §5.1 split: hash-chain/LRU/expiry
//! metadata lives in the clear metadata space; keys, values and their
//! sizes live in the secure data space, every access charged through
//! [`DataSpace`]. Its maintenance is two calls. [`SlabEngine::fence`],
//! which the serving path makes between batches — never mid-batch,
//! reusing the fence discipline of shard rebalance and fleet failover —
//! only counts the fence. [`SlabEngine::maintenance_tick`] does the
//! byte-work: rebalance moves and window decay. The engine does not
//! know which core calls its tick: [`Kvs::fence`](crate::kvs::Kvs::fence)
//! calls it inline and charges the cycles to `maint_stall_cycles`, or —
//! the Eleos move of taking stall-inducing work off the serving threads
//! — a maintenance plane calls it from a core of its own, and the stall
//! disappears from the serving cores.
//!
//! Eviction is memcached 1.5's second chance on one global LRU. A hit
//! does not move its item: it writes at most one bit, the *referenced*
//! bit of the node's record word, and only when that bit is clear. The
//! tail pull in `evict_one` relinks a referenced tail to the head with
//! its bit cleared and evicts the first unreferenced one, looking at
//! no more than `TAIL_TRIES` tails per eviction.

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::index::{Found, HashIndex, NIL};
use crate::slab::{SlabPool, SLAB_BYTES};
use crate::space::{Cursor, DataSpace};

// Index-node fields. The index owns the chain link and the hash word
// in bytes 0..12 and the write stamp in bytes 40..48 (see
// `crate::index`); every field here is clear metadata.
const N_EXPIRY: u64 = 12;
const M_LRU_PREV: u64 = 16;
const M_LRU_NEXT: u64 = 24;
/// The record's address in the low 56 bits, its slab class in bits
/// 56..63 and the referenced bit in bit 63.
const M_KV: u64 = 32;
const KV_ADDR_BITS: u32 = 56;
/// Set by a hit on an item, cleared when the tail pull relinks it.
const KV_REFERENCED: u64 = 1 << 63;
/// Referenced tails `evict_one` relinks before it evicts the next tail
/// regardless (memcached's tail search bound).
const TAIL_TRIES: usize = 5;

/// The rebalancer attempts moves every this many fences.
const FENCE_PERIOD: u32 = 1;
/// A class is *starved* when its free chunks drop below
/// `chunks_per_slab / STARVE_FRAC` (minimum 1).
const STARVE_FRAC: usize = 8;
/// Upper bound on whole-slab moves per due tick.
const MAX_MOVES_PER_FENCE: usize = 1;

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

/// The engine's full key comparison. Reads the record under `cur`
/// and returns its value if the record is `key`'s (empty unless
/// `want_value`); another key's record is given up on after its
/// header, or after its key when the lengths agree.
fn read_if_key(
    cur: &mut Cursor<'_>,
    ctx: &mut ThreadCtx,
    key: &[u8],
    want_value: bool,
) -> Option<Vec<u8>> {
    let mut header = [0u8; RECORD_HEADER];
    cur.read(ctx, &mut header);
    let (klen, vlen) = header_lens(&header);
    if klen != key.len() {
        return None;
    }
    let mut tail = vec![0u8; klen + if want_value { vlen } else { 0 }];
    cur.read(ctx, &mut tail);
    if tail[..key.len()] != *key {
        return None;
    }
    tail.drain(..key.len());
    Some(tail)
}

/// Reads the record at `addr` through one cursor: its key and value.
fn read_record(space: &DataSpace, ctx: &mut ThreadCtx, addr: u64) -> (Vec<u8>, Vec<u8>) {
    let mut cur = space.cursor(addr);
    let mut header = [0u8; RECORD_HEADER];
    cur.read(ctx, &mut header);
    let (klen, vlen) = header_lens(&header);
    let mut key = vec![0u8; klen + vlen];
    cur.read(ctx, &mut key);
    let value = key.split_off(klen);
    (key, value)
}

/// What a lookup does with the record of the key it matched, through
/// the cursor that read the key.
#[derive(Clone, Copy)]
enum OnHit<'r> {
    /// Nothing more: the key was all the caller needed.
    Check,
    /// Read the value.
    Read,
    /// Overwrite the record with this one, if the item's chunk holds
    /// it.
    Write(&'r [u8]),
}

// --- The engine -----------------------------------------------------

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
///
/// Every `expiry` is an absolute deadline in simulated seconds (0 =
/// never); every `version` is the caller's write stamp (the fleet
/// tier's fence-epoch interval) used for last-writer-wins restore
/// merges.
pub struct SlabEngine {
    index: HashIndex,
    meta_space: DataSpace,
    slab: SlabPool,
    lru_head: u64,
    lru_tail: u64,
    items: u64,
    evictions: u64,
    expired: u64,
    rebalance: bool,
    /// Decaying per-class demand windows (only maintained when the
    /// rebalancer is on).
    window: Vec<ClassWindow>,
    /// Fences since the last maintenance pass.
    fences: u32,
}

/// What the engine's key comparison learned about a node.
struct SlabHit {
    kv: u64,
    class: usize,
    referenced: bool,
    /// Empty unless the lookup read it.
    value: Vec<u8>,
    /// Whether the lookup overwrote the record.
    written: bool,
}

fn pack_kv(kv: u64, class: usize) -> u64 {
    assert!(kv >> KV_ADDR_BITS == 0 && class < 128, "kv word overflow");
    kv | (class as u64) << KV_ADDR_BITS
}

/// The record address and slab class of a record word, without its
/// referenced bit.
fn unpack_kv(word: u64) -> (u64, usize) {
    (
        word & ((1 << KV_ADDR_BITS) - 1),
        ((word & !KV_REFERENCED) >> KV_ADDR_BITS) as usize,
    )
}

impl SlabEngine {
    /// An engine with a `mem_limit`-byte value pool in `data_space` and
    /// `buckets` chains in `meta_space`; `rebalance` turns the slab
    /// rebalancer on. Off, the store is bit- and cycle-identical to the
    /// seed's.
    #[must_use]
    pub fn new(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        rebalance: bool,
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

    /// One-time index initialization (zeroes the bucket heads).
    pub fn init(&self, ctx: &mut ThreadCtx) {
        self.index.init(ctx);
    }

    /// Inserts or replaces `key`. Returns `false`, leaving the store
    /// untouched, for a record the engine could never hold however
    /// much it evicted.
    pub fn set(
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
        // A record its item's chunk holds is overwritten in place, by
        // the cursor that checked the key.
        let found = self.find(ctx, word, key, OnHit::Write(&record));
        if let Some(found) = &found {
            if found.hit.written {
                self.meta_space
                    .write_u32(ctx, found.node + N_EXPIRY, expiry);
                self.index.set_version(ctx, word, found.node, version);
                self.mark(ctx, found);
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

    /// Looks `key` up. Expired items are lazily deleted and read as
    /// misses.
    pub fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let word = self.index.word(key);
        let found = self.find(ctx, word, key, OnHit::Read)?;
        let expiry = self.meta_space.read_u32(ctx, found.node + N_EXPIRY);
        if expiry != 0 && now_secs(ctx) >= expiry {
            self.drop_found(ctx, word, &found);
            self.expired += 1;
            return None;
        }
        self.mark(ctx, &found);
        let value = found.hit.value;
        self.note(RECORD_HEADER + key.len() + value.len(), true);
        Some(value)
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        let word = self.index.word(key);
        let Some(found) = self.find(ctx, word, key, OnHit::Check) else {
            return false;
        };
        self.drop_found(ctx, word, &found);
        true
    }

    /// The write stamp of `key`'s current copy, if indexed (expiry is
    /// *not* checked — restore merges compare stamps even on items
    /// about to lapse).
    pub fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64> {
        let found = self.find(ctx, self.index.word(key), key, OnHit::Check)?;
        Some(self.index.version(ctx, found.node))
    }

    /// Number of indexed items.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.items
    }

    /// Whether no items are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Items evicted under memory pressure so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Items dropped because their TTL deadline passed.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Bytes of secure pool acquired from the data space.
    #[must_use]
    pub fn pool_bytes(&self) -> u64 {
        self.slab.slab_bytes
    }

    /// Sub-batch fence hook: counts the fence towards the next due
    /// [`Self::maintenance_tick`]. Never called mid-batch, and never
    /// moves a byte — that is the tick.
    pub fn fence(&mut self) {
        // Rebalancer off: no tick will ever be due.
        if self.rebalance {
            self.fences += 1;
        }
    }

    /// One pass of maintenance byte-work — rebalance moves, then window
    /// decay — charged to whichever core `ctx` runs on: the serving
    /// core when [`Kvs::fence`] calls it inline, the maintenance
    /// plane's when that calls it instead. Returns whether any work
    /// ran.
    ///
    /// [`Kvs::fence`]: crate::kvs::Kvs::fence
    pub fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        // Due once `FENCE_PERIOD` fences have passed since the last
        // pass — whoever calls the tick, however it aligns to fences.
        if !self.rebalance || self.fences < FENCE_PERIOD {
            return false;
        }
        self.fences = 0;
        let mut did = false;
        for _ in 0..MAX_MOVES_PER_FENCE {
            if !self.try_rebalance(ctx) {
                break;
            }
            did = true;
        }
        self.decay_windows();
        did
    }

    /// Visits every live, unexpired item stamped `>= base` (index
    /// order) with `(key, value, version, expiry)`; `base = 0` visits
    /// them all. The stamp is clear metadata, so an item below `base`
    /// costs no record read, and the index skips unread every line of
    /// bucket heads that holds nothing stamped `>= base`.
    pub fn for_each_since(
        &self,
        ctx: &mut ThreadCtx,
        base: u64,
        mut f: impl FnMut(&[u8], &[u8], u64, u32),
    ) {
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
            let (key, value) = read_record(self.slab.space(), ctx, kv);
            f(&key, &value, version, expiry);
        });
    }

    /// Looks `key` (hashing to `word`) up and does `on_hit` to its
    /// record. Only a node storing `word` has its record read.
    fn find(
        &self,
        ctx: &mut ThreadCtx,
        word: u32,
        key: &[u8],
        on_hit: OnHit<'_>,
    ) -> Option<Found<SlabHit>> {
        self.index.find(ctx, word, |ctx, node| {
            let kv_word = self.meta_space.read_u64(ctx, node + M_KV);
            let (kv, class) = unpack_kv(kv_word);
            let mut cur = self.slab.space().cursor(kv);
            let value = read_if_key(&mut cur, ctx, key, matches!(on_hit, OnHit::Read))?;
            let written = match on_hit {
                OnHit::Write(record) if self.slab.chunk_size(class) >= record.len() => {
                    cur.seek(kv);
                    cur.write(ctx, record);
                    true
                }
                _ => false,
            };
            Some(SlabHit {
                kv,
                class,
                referenced: kv_word & KV_REFERENCED != 0,
                value,
                written,
            })
        })
    }

    /// Sets the referenced bit of the item [`Self::find`] returned,
    /// unless it is set already: a hit writes one word or none.
    fn mark(&self, ctx: &mut ThreadCtx, found: &Found<SlabHit>) {
        if !found.hit.referenced {
            let kv_word = pack_kv(found.hit.kv, found.hit.class) | KV_REFERENCED;
            self.meta_space.write_u64(ctx, found.node + M_KV, kv_word);
        }
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

    /// Removes an LRU tail item to reclaim a chunk. Up to
    /// `TAIL_TRIES` referenced tails get a second chance first — bit
    /// cleared, relinked to the head — and the next tail goes whatever
    /// its bit. The victim is unlinked by node identity: its record is
    /// never read.
    fn evict_one(&mut self, ctx: &mut ThreadCtx) -> bool {
        let mut tries = 0;
        let (victim, kv_word) = loop {
            let tail = self.lru_tail;
            if tail == NIL {
                return false;
            }
            let kv_word = self.meta_space.read_u64(ctx, tail + M_KV);
            if kv_word & KV_REFERENCED == 0 || tries == TAIL_TRIES {
                break (tail, kv_word);
            }
            tries += 1;
            self.meta_space
                .write_u64(ctx, tail + M_KV, kv_word & !KV_REFERENCED);
            self.lru_unlink(ctx, tail);
            self.lru_push_front(ctx, tail);
        };
        let (kv, class) = unpack_kv(kv_word);
        self.lru_unlink(ctx, victim);
        self.index.remove_node(ctx, victim);
        self.slab.free(class, kv);
        self.items -= 1;
        self.evictions += 1;
        if self.rebalance {
            self.window[class].evictions += 1;
        }
        true
    }

    /// Host-side accounting of a set/hit against the class serving
    /// `record_len` (no simulated reads — `class_of` is pure).
    fn note(&mut self, record_len: usize, hit: bool) {
        if !self.rebalance {
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
        let threshold = (self.slab.chunks_per_slab(c) / STARVE_FRAC).max(1);
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
            let kv_word = meta.read_u64(ctx, node + M_KV);
            let (kv, class) = unpack_kv(kv_word);
            if class == donor && kv >= base && kv < end {
                let dst = slab
                    .alloc_in_class(donor)
                    .expect("donor guaranteed spare chunks");
                let (key, value) = read_record(slab.space(), ctx, kv);
                slab.space().write(ctx, dst, &encode_record(&key, &value));
                let moved_word = pack_kv(dst, class) | (kv_word & KV_REFERENCED);
                meta.write_u64(ctx, node + M_KV, moved_word);
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

    fn slab_engine(limit: u64, rebalance: bool) -> (SlabEngine, ThreadCtx) {
        let (_m, mut t, space) = rig();
        let eng = SlabEngine::new(space.clone(), space, limit, 1024, rebalance);
        eng.init(&mut t);
        (eng, t)
    }

    /// What `Kvs::fence` does with no maintenance plane: count, then
    /// the byte-work inline on the same thread.
    fn fence_and_tick(eng: &mut SlabEngine, t: &mut ThreadCtx) {
        eng.fence();
        eng.maintenance_tick(t);
    }

    #[test]
    fn rebalancer_moves_slabs_to_starved_class() {
        // 4 MiB pool, phase A fills small items, phase B needs big
        // chunks: without moves the small class calcifies the pool.
        let (mut eng, mut t) = slab_engine(4 << 20, true);
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

    #[test]
    fn a_tick_is_due_however_it_aligns_to_the_fence_period() {
        // 32 fences and no tick: a plane's tick lands long after the
        // fences, and must still run the pass they earned — once.
        let (mut eng, mut t) = slab_engine(4 << 20, true);
        shifting_load(&mut eng, &mut t, |eng, _| eng.fence());
        assert!(eng.maintenance_tick(&mut t), "32 fences passed: due");
        assert!(!eng.maintenance_tick(&mut t), "no fence since: not due");
        t.exit();
    }

    #[test]
    fn a_fence_moves_no_bytes_and_fence_plus_tick_is_the_old_synchronous_fence() {
        // The counts the fence-synchronous engine produced on this load
        // before `fence` and `maintenance_tick` were split.
        const SYNC_SLAB_MOVES: u64 = 2;
        const SYNC_ITEMS_RELOCATED: u64 = 2816;

        let (mut eng, mut t) = slab_engine(4 << 20, true);
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

        let (mut eng, mut t) = slab_engine(4 << 20, true);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        shifting_load(&mut eng, &mut t, fence_and_tick);
        let d = m.stats.snapshot();
        assert_eq!(d.slab_moves, SYNC_SLAB_MOVES);
        assert_eq!(d.slab_items_relocated, SYNC_ITEMS_RELOCATED);
        assert_eq!(d.maint_stall_cycles, 0, "an engine does not know who pays");
        t.exit();
    }

    #[test]
    fn rebalancer_off_fence_is_free() {
        let (mut eng, mut t) = slab_engine(4 << 20, false);
        eng.set(&mut t, b"k", b"v", 0, 1);
        let before = t.now();
        fence_and_tick(&mut eng, &mut t);
        assert_eq!(t.now(), before, "disabled rebalancer must charge nothing");
        t.exit();
    }

    #[test]
    fn relocated_items_read_back_exactly() {
        let (mut eng, mut t) = slab_engine(4 << 20, true);
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

    /// Hands a slab to the class of `needy_len` records, relocating
    /// the donor slab's live records.
    fn relocate(eng: &mut SlabEngine, ctx: &mut ThreadCtx, needy_len: usize) {
        let needy = eng.slab.class_of(needy_len).expect("class");
        if let Some((donor, base)) = eng.pick_donor(needy) {
            eng.move_slab(ctx, donor, base, needy);
        }
    }

    /// Address of `key`'s record, looked up the way a GET does.
    fn record_addr(eng: &SlabEngine, ctx: &mut ThreadCtx, key: &[u8]) -> u64 {
        let word = eng.index.word(key);
        eng.find(ctx, word, key, OnHit::Check)
            .expect("stored")
            .hit
            .kv
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
    /// chunks to a slab, so slab moves relocate live records.
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
    fn check_collisions(paging: Option<usize>, ops: &[Op]) {
        let (mut t, meta, data, _suvm) = spaces(paging);
        let mut eng = SlabEngine::new(meta, data, 32 << 20, 64, true);
        eng.init(&mut t);
        eng.index.collide_all();
        let mut shadow: HashMap<usize, Vec<u8>> = HashMap::new();
        for (stamp, op) in ops.iter().enumerate() {
            let stamp = stamp as u64;
            let evicted = eng.evictions();
            match *op {
                Op::Set { k, vlen } => {
                    let value = test_value(k, stamp, vlen);
                    assert!(eng.set(&mut t, &test_key(k), &value, 0, stamp));
                    shadow.insert(k, value);
                }
                Op::Get { k } => {
                    let got = eng.get(&mut t, &test_key(k));
                    assert_eq!(got.as_ref(), shadow.get(&k), "GET {k} at op {stamp}");
                }
                Op::Delete { k } => {
                    let existed = eng.delete(&mut t, &test_key(k));
                    assert_eq!(existed, shadow.remove(&k).is_some(), "DELETE {k}");
                }
                Op::Evict => {
                    eng.evict_one(&mut t);
                }
                Op::Relocate => relocate(&mut eng, &mut t, VLENS[2]),
                Op::Fence => fence_and_tick(&mut eng, &mut t),
            }
            if eng.evictions() != evicted {
                shadow.retain(|&k, _| eng.get(&mut t, &test_key(k)).is_some());
            }
            assert_eq!(eng.len(), shadow.len() as u64, "after {op:?}");
        }
        // Everything left reads back exactly, by lookup and by scan.
        for (&k, value) in &shadow {
            assert_eq!(eng.get(&mut t, &test_key(k)).as_ref(), Some(value));
        }
        let mut seen = 0;
        eng.for_each_since(&mut t, 0, |key, value, _, _| {
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
            for paging in [None, Some(4096), Some(1024)] {
                check_collisions(paging, &ops);
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
        let mut eng = SlabEngine::new(meta, data, 32 << 20, 64, true);
        eng.init(&mut t);
        eng.index.collide_all();
        for k in 0..3 {
            let value = test_value(k, 0, VLENS[3]);
            assert!(eng.set(&mut t, &test_key(k), &value, 0, 0));
        }
        assert!(eng.delete(&mut t, &test_key(0)));
        m.reset_counters();
        relocate(&mut eng, &mut t, VLENS[2]);
        assert_eq!(m.stats.snapshot().slab_items_relocated, 1);
        for k in 1..3 {
            let got = eng.get(&mut t, &test_key(k));
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

    #[test]
    fn slab_touches_only_the_requests_own_secure_pages() {
        let (mut t, meta, data, suvm) = spaces(Some(4096));
        let suvm = suvm.expect("paging rig");
        let m = Arc::clone(&t.machine);
        // 64 items over 16 buckets: every chain holds ~4 strangers.
        let mut eng = SlabEngine::new(meta, data, 32 << 20, 16, true);
        eng.init(&mut t);
        let value_of = |k: usize| test_value(k, 1, if k.is_multiple_of(8) { 5_000 } else { 100 });
        for k in 0..64 {
            assert!(eng.set(&mut t, &test_key(k), &value_of(k), 0, 0));
        }
        let record_len = |k: usize| RECORD_HEADER + test_key(k).len() + value_of(k).len();
        let go_cold = |t: &mut ThreadCtx| while suvm.evict_one(t) {};
        let faults = || m.stats.snapshot().suvm_major_faults;

        // A GET hit faults exactly the pages its own record spans.
        for k in [0, 5, 8, 63] {
            let pages = pages_spanned(record_addr(&eng, &mut t, &test_key(k)), record_len(k));
            go_cold(&mut t);
            let before = faults();
            assert_eq!(eng.get(&mut t, &test_key(k)), Some(value_of(k)));
            assert_eq!(faults() - before, pages, "GET hit of key {k}");
        }

        // A GET miss walks a chain of strangers in clear metadata only.
        go_cold(&mut t);
        let before = faults();
        for k in 100..140 {
            assert_eq!(eng.get(&mut t, &test_key(k)), None);
        }
        assert_eq!(faults() - before, 0, "GET misses touched secure memory");

        // So does evicting an LRU victim the caller holds by address.
        let before = (faults(), eng.evictions);
        assert!(eng.evict_one(&mut t));
        assert_eq!((faults(), eng.evictions), (before.0, before.1 + 1));

        // A delta scan reads the records stamped >= base and no other.
        let fresh = [3usize, 8, 21, 40, 55];
        for &k in &fresh {
            assert!(eng.set(&mut t, &test_key(k), &value_of(k), 0, 7));
        }
        let pages: u64 = fresh
            .iter()
            .map(|&k| pages_spanned(record_addr(&eng, &mut t, &test_key(k)), record_len(k)))
            .sum();
        go_cold(&mut t);
        let before = lookups(&m);
        let mut seen = Vec::new();
        eng.for_each_since(&mut t, 7, |key, _, version, _| {
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

    /// The same accounting where a page leaves EPC++ as four 1 KiB
    /// sub-pages: a request for a cold record pays for the sub-pages
    /// the record spans and faults nothing in, unless the record was
    /// read twice a moment ago.
    #[test]
    fn slab_cold_records_bypass_the_page_cache() {
        let (mut t, meta, data, suvm) = spaces(Some(1024));
        let suvm = suvm.expect("paging rig");
        let m = Arc::clone(&t.machine);
        let mut eng = SlabEngine::new(meta, data.clone(), 32 << 20, 16, true);
        eng.init(&mut t);
        let value_of =
            |k: usize, stamp: u64| test_value(k, stamp, if k == 8 { 5_000 } else { 100 });
        for k in 0..64 {
            assert!(eng.set(&mut t, &test_key(k), &value_of(k, 1), 0, 0));
        }
        // "Cold" is evicted and not read for a while: eight pages of
        // the same space, each read once, push every earlier read miss
        // out of the reuse window of two gaps of 16 / 4 misses.
        let other = data.alloc(8 * 4096);
        data.write(&mut t, other, &[1u8; 8 * 4096]);
        let mut next = 0;
        let mut go_cold = |t: &mut ThreadCtx| {
            while suvm.evict_one(t) {}
            for _ in 0..8 {
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
            let addr = record_addr(&eng, &mut t, &test_key(k));
            let len = RECORD_HEADER + test_key(k).len() + value_of(k, 1).len();
            let pages = pages_spanned(addr, len);
            let subs = (addr + len as u64 - 1) / 1024 - addr / 1024 + 1;
            go_cold(&mut t);
            // Cold: no fault, one unseal per sub-page of the record.
            let before = touched();
            assert_eq!(eng.get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (0, subs), "cold GET of key {k}");
            assert_eq!(suvm.resident_pages(), 0);
            // Again at once: one short gap is no rate yet ...
            let before = touched();
            assert_eq!(eng.get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (0, subs), "second GET of key {k}");
            assert_eq!(suvm.resident_pages(), 0);
            // ... two are: the record's pages are worth caching (a
            // fault unseals all four sub-pages of a page) ...
            let before = touched();
            assert_eq!(eng.get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (pages, 4 * pages), "third GET of key {k}");
            // ... and the fourth GET is a hit.
            let before = touched();
            assert_eq!(eng.get(&mut t, &test_key(k)), Some(value_of(k, 1)));
            assert_eq!(since(before), (0, 0), "fourth GET of key {k}");
        }

        // A cold overwrite is written through: the new record faults
        // nothing in and stays out of EPC++, its value there to read.
        go_cold(&mut t);
        let before = touched();
        assert!(eng.set(&mut t, &test_key(5), &value_of(5, 2), 0, 0));
        assert_eq!(since(before).0, 0, "cold SET faulted");
        assert!(since(before).1 > 0, "cold SET sealed nothing");
        assert_eq!(suvm.resident_pages(), 0);
        assert_eq!(eng.get(&mut t, &test_key(5)), Some(value_of(5, 2)));

        // A record landing on never-sealed pages has no sealed copy to
        // write through to: it goes through EPC++ like any write did.
        go_cold(&mut t);
        let big = test_value(99, 1, 40_000);
        let before = touched();
        assert!(eng.set(&mut t, &test_key(99), &big, 0, 0));
        assert!(since(before).0 >= pages_spanned(0, big.len()) - 1);
        assert!(suvm.resident_pages() > 0);
        assert_eq!(eng.get(&mut t, &test_key(99)), Some(big));
        t.exit();
    }

    /// The LRU from tail to head: each item's key and referenced bit,
    /// read without marking anything.
    fn lru_from_tail(eng: &SlabEngine, t: &mut ThreadCtx) -> Vec<(Vec<u8>, bool)> {
        let mut items = Vec::new();
        let mut node = eng.lru_tail;
        while node != NIL {
            let kv_word = eng.meta_space.read_u64(t, node + M_KV);
            let (key, _) = read_record(eng.slab.space(), t, unpack_kv(kv_word).0);
            items.push((key, kv_word & KV_REFERENCED != 0));
            node = eng.meta_space.read_u64(t, node + M_LRU_PREV);
        }
        items
    }

    fn lru(items: &[(&[u8], bool)]) -> Vec<(Vec<u8>, bool)> {
        items.iter().map(|&(k, r)| (k.to_vec(), r)).collect()
    }

    #[test]
    fn a_read_item_outlives_an_unread_one_at_the_next_eviction() {
        let (mut eng, mut t) = slab_engine(4 << 20, false);
        for key in [b"old", b"mid", b"new"] {
            assert!(eng.set(&mut t, key, b"v", 0, 1));
        }
        // A hit marks the tail where it stands.
        assert_eq!(eng.get(&mut t, b"old").as_deref(), Some(&b"v"[..]));
        let marked = lru(&[(b"old", true), (b"mid", false), (b"new", false)]);
        assert_eq!(lru_from_tail(&eng, &mut t), marked);
        // The read tail gets its second chance; the oldest unread goes.
        assert!(eng.evict_one(&mut t));
        assert_eq!(
            lru_from_tail(&eng, &mut t),
            lru(&[(b"new", false), (b"old", false)])
        );
        // An in-place SET marks its item too, and does not move it.
        assert!(eng.set(&mut t, b"new", b"w", 0, 2));
        assert_eq!(
            lru_from_tail(&eng, &mut t),
            lru(&[(b"new", true), (b"old", false)])
        );
        // "new" gets its chance now; "old", its chance spent, goes.
        assert!(eng.evict_one(&mut t));
        assert_eq!(lru_from_tail(&eng, &mut t), lru(&[(b"new", false)]));
        assert_eq!((eng.len(), eng.evictions()), (1, 2));
        assert_eq!(eng.get(&mut t, b"mid"), None);
        assert_eq!(eng.get(&mut t, b"old"), None);
        assert_eq!(eng.get(&mut t, b"new").as_deref(), Some(&b"w"[..]));
        t.exit();
    }

    #[test]
    fn a_referenced_tail_run_longer_than_tail_tries_still_frees_a_chunk() {
        let (mut eng, mut t) = slab_engine(4 << 20, false);
        let keys: Vec<Vec<u8>> = (0..TAIL_TRIES + 3)
            .map(|i| format!("k{i}").into_bytes())
            .collect();
        for key in &keys {
            assert!(eng.set(&mut t, key, b"v", 0, 1));
            assert!(eng.get(&mut t, key).is_some());
        }
        let class = eng.slab.class_of(RECORD_HEADER + 3).expect("class");
        let free = eng.slab.free_chunks(class);
        assert!(eng.evict_one(&mut t));
        assert_eq!(eng.slab.free_chunks(class), free + 1);
        assert_eq!((eng.len(), eng.evictions()), (keys.len() as u64 - 1, 1));
        // `TAIL_TRIES` tails relinked with their bits cleared, the next
        // one evicted although it was read, the rest not touched.
        let (relinked, rest) = keys.split_at(TAIL_TRIES);
        let want: Vec<(Vec<u8>, bool)> = rest[1..]
            .iter()
            .map(|k| (k.clone(), true))
            .chain(relinked.iter().map(|k| (k.clone(), false)))
            .collect();
        assert_eq!(lru_from_tail(&eng, &mut t), want);
        assert_eq!(eng.get(&mut t, &rest[0]), None);
        t.exit();
    }

    #[test]
    fn oversize_set_fails_and_leaves_the_store_untouched() {
        // A record no class can hold used to evict every item looking
        // for room, then panic on the empty LRU.
        let (mut eng, mut t) = slab_engine(4 << 20, false);
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
    }
}
