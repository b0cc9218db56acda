//! A memcached-style key-value store (paper §5.1).
//!
//! The port mirrors the paper's 75-line memcached modification: the
//! original slab allocator keeps managing the pool, but the pool's
//! *location* is a [`DataSpace`]; item **metadata** (hash-chain and LRU
//! pointers, slab class) is security-insensitive and lives in a clear
//! metadata space, while the **keys, values and their sizes** live in
//! the secure data space (SUVM in the Eleos configuration).
//!
//! The store itself is a thin protocol/snapshot front-end over the
//! [`SlabEngine`] (see [`crate::storage`]): the seed's slab/LRU store,
//! with the fence-time slab rebalancer when built by
//! [`Kvs::with_rebalancer`]. Engine byte-work (slab moves) is one
//! function, [`Kvs::maintenance_tick`]: by default [`Kvs::fence`] —
//! which the batch handlers invoke at sub-batch boundaries — runs it
//! inline on the serving core and charges it to `maint_stall_cycles`;
//! after [`Kvs::set_background`] the fence only counts itself and a
//! maintenance plane calls the tick from a core of its own.
//!
//! The *version* is a caller-managed write stamp (the fleet tier sets
//! it to its fence-epoch interval): every `set` stamps the item, and
//! [`Kvs::try_restore`] merges last-writer-wins on it, so a snapshot
//! re-imported after bouncing through another replica can never clobber
//! a fresher value (see `fleet_io`'s fence protocol).

use eleos_core::{Snapshot, SnapshotBuilder, SnapshotError};
use eleos_crypto::Sealer;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::io::ServerIo;
use crate::space::DataSpace;
use crate::storage::{now_secs, SlabEngine};

/// Per-operation parsing/hashing compute, in cycles.
const OP_CYCLES: u64 = 120;

/// Name of the item-log section in a portable [`Snapshot`].
const KVS_SECTION: &str = "kvs-items";

/// Name of the engine-metadata section in a portable [`Snapshot`]:
/// `label_len u8 || label || item_count u64 || engine blob`. Carried so
/// a restore side can cross-check the item log against the sealing
/// engine's view (and log which engine produced it).
const STORAGE_META_SECTION: &str = "storage-meta";

/// The key-value store: protocol parsing, write-stamping and
/// snapshot/restore over the [`SlabEngine`].
pub struct Kvs {
    engine: SlabEngine,
    version: u64,
    /// Whether someone else calls [`Kvs::maintenance_tick`]; when not,
    /// [`Kvs::fence`] does.
    background: bool,
}

impl Kvs {
    /// Creates a store with a `mem_limit`-byte value pool in
    /// `data_space` and chains/heads in `meta_space`, with no
    /// rebalancer — byte- and cycle-identical to the seed's store.
    #[must_use]
    pub fn new(meta_space: DataSpace, data_space: DataSpace, mem_limit: u64, buckets: u64) -> Self {
        Self::build(meta_space, data_space, mem_limit, buckets, false)
    }

    /// [`Self::new`] with the slab rebalancer: at fences, whole slabs
    /// move from cold size classes to starved ones.
    #[must_use]
    pub fn with_rebalancer(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
    ) -> Self {
        Self::build(meta_space, data_space, mem_limit, buckets, true)
    }

    fn build(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        rebalance: bool,
    ) -> Self {
        Self {
            engine: SlabEngine::new(meta_space, data_space, mem_limit, buckets, rebalance),
            version: 0,
            background: false,
        }
    }

    /// Sets the write stamp every subsequent `set` records on its
    /// item. The fleet tier advances this to its fence
    /// epoch after every fence, which is what makes the versioned
    /// restore merge ([`Self::try_restore`]) last-writer-wins across
    /// arbitrary kill/respawn schedules: two stores only ever hold the
    /// same stamp for a key when they hold the same value.
    pub fn set_write_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Zeroes the bucket heads.
    pub fn init(&self, ctx: &mut ThreadCtx) {
        self.engine.init(ctx);
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.engine.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engine.len() == 0
    }

    /// Items evicted under memory pressure so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.engine.evictions()
    }

    /// Items dropped because their TTL deadline passed.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.engine.expired()
    }

    /// Bytes of secure pool acquired from the data space.
    #[must_use]
    pub fn pool_bytes(&self) -> u64 {
        self.engine.pool_bytes()
    }

    /// Inserts or replaces `key` with `value` (no expiry). Returns
    /// `false`, leaving the store untouched, when the record is larger
    /// than the engine can ever hold.
    pub fn set(&mut self, ctx: &mut ThreadCtx, key: &[u8], value: &[u8]) -> bool {
        self.set_with_ttl(ctx, key, value, 0)
    }

    /// Inserts or replaces `key` with `value`, expiring after
    /// `ttl_secs` of simulated time (0 = never) — memcached's
    /// `exptime` semantics with lazy expiration. Fails like
    /// [`Self::set`].
    pub fn set_with_ttl(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        ttl_secs: u32,
    ) -> bool {
        ctx.compute(OP_CYCLES);
        let expiry = if ttl_secs == 0 {
            0
        } else {
            now_secs(ctx).saturating_add(ttl_secs)
        };
        self.engine.set(ctx, key, value, expiry, self.version)
    }

    /// Looks `key` up. Expired items are lazily deleted and read as
    /// misses (memcached semantics).
    pub fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        ctx.compute(OP_CYCLES);
        self.engine.get(ctx, key)
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        ctx.compute(OP_CYCLES);
        self.engine.delete(ctx, key)
    }

    /// Sub-batch fence: counts the fence for the engine and — unless a
    /// maintenance plane has taken the job over
    /// ([`Self::set_background`]) — runs the engine byte-work inline,
    /// timing it into `maint_stall_cycles`. The batch handlers call it
    /// after every non-empty batch; serving loops that bypass them
    /// must call it between batches themselves.
    pub fn fence(&mut self, ctx: &mut ThreadCtx) {
        self.engine.fence();
        if !self.background {
            let t0 = ctx.now();
            self.engine.maintenance_tick(ctx);
            Stats::add(&ctx.machine.stats.maint_stall_cycles, ctx.now() - t0);
        }
    }

    /// Declares who calls [`Self::maintenance_tick`]: [`Self::fence`],
    /// on the serving core (`false`, the default), or a maintenance
    /// plane on a core of its own (`true`). Same byte-work either way.
    pub fn set_background(&mut self, on: bool) {
        self.background = on;
    }

    /// One pass of engine byte-work (slab moves and window decay),
    /// charged to `ctx`'s core. Returns whether any work ran.
    pub fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        self.engine.maintenance_tick(ctx)
    }

    /// Visits every live, unexpired item (index order) with
    /// `(key, value)`.
    pub fn for_each_item(&self, ctx: &mut ThreadCtx, mut f: impl FnMut(&[u8], &[u8])) {
        self.engine
            .for_each_since(ctx, 0, |key, value, _version, _expiry| f(key, value));
    }

    /// Merges a parsed item log: last-writer-wins on the per-item
    /// write stamp. An absent key is inserted (keeping the log's
    /// stamp); a present key is overwritten only when the log's stamp
    /// is strictly newer — a store only ever carries a *stale* copy of
    /// a key it no longer serves at a stamp strictly below the current
    /// owner's, so equality means equal bytes and skipping is safe.
    /// Items whose expiry deadline already passed are dropped on the
    /// floor. Returns the number applied.
    fn apply_items(&mut self, ctx: &mut ThreadCtx, items: &[LoggedItem<'_>]) -> u64 {
        let mut applied = 0u64;
        let now = now_secs(ctx);
        for &LoggedItem {
            key,
            value,
            version,
            expiry,
        } in items
        {
            if expiry != 0 && now >= expiry {
                continue;
            }
            if let Some(stored) = self.engine.version_of(ctx, key) {
                if stored >= version {
                    continue;
                }
            }
            ctx.compute(OP_CYCLES);
            applied += u64::from(self.engine.set(ctx, key, value, expiry, version));
        }
        applied
    }

    /// Encodes the live, unexpired items whose write stamp is
    /// `>= base` as the snapshot plaintext: `count u64 || (klen u32,
    /// vlen u32, version u64, expiry u32, key, value)*` in index
    /// order. `base = 0` is the whole store; a larger base is the
    /// delta log of an incremental snapshot, and the engine filters on
    /// the clear stamp before it reads a record. Absolute expiry
    /// deadlines travel with the items, so a restore preserves each
    /// item's remaining TTL.
    fn encode_items_since(&self, ctx: &mut ThreadCtx, base: u64) -> Vec<u8> {
        let mut plain = vec![0u8; 8];
        let mut count = 0u64;
        self.engine
            .for_each_since(ctx, base, |key, value, version, expiry| {
                plain.extend_from_slice(&(key.len() as u32).to_le_bytes());
                plain.extend_from_slice(&(value.len() as u32).to_le_bytes());
                plain.extend_from_slice(&version.to_le_bytes());
                plain.extend_from_slice(&expiry.to_le_bytes());
                plain.extend_from_slice(key);
                plain.extend_from_slice(value);
                count += 1;
            });
        plain[..8].copy_from_slice(&count.to_le_bytes());
        plain
    }

    /// The only way state leaves a store: captures the live items
    /// written at stamp `>= base` as the `"kvs-items"` section of a
    /// portable [`Snapshot`] (plus a `"storage-meta"` section), sealed
    /// through the shared [`Sealer`] seam. `base = 0` is the whole
    /// store (a host-file warm restart is
    /// `snapshot_since(.., 0).to_bytes()`); a receiver holding
    /// everything below a larger `base` catches up from the delta
    /// alone. `domain`/`epoch` scope the nonces (see
    /// [`SnapshotBuilder::new`]); the fleet passes the sealing
    /// enclave's id and its transfer epoch. Publishes the item count as
    /// `snapshot_delta_items`.
    ///
    /// Callers whose data space is SUVM-backed should
    /// [`quiesce`](eleos_core::Suvm::quiesce) it first — this runs at a
    /// fence, and a fence means dirty pages are sealed home.
    #[must_use]
    pub fn snapshot_since(
        &self,
        ctx: &mut ThreadCtx,
        sealer: &dyn Sealer,
        domain: u32,
        epoch: u64,
        base: u64,
    ) -> Snapshot {
        let items = self.encode_items_since(ctx, base);
        let count = u64::from_le_bytes(items[..8].try_into().expect("count"));
        ctx.compute(count * ctx.machine.cfg.costs.snapshot_delta_item);
        Stats::add(&ctx.machine.stats.snapshot_delta_items, count);
        let label = self.engine.label().as_bytes();
        let blob = self.engine.meta_blob();
        let meta = [&[label.len() as u8], label, &count.to_le_bytes(), &blob].concat();
        SnapshotBuilder::new(domain, epoch)
            .section(KVS_SECTION, items)
            .section(STORAGE_META_SECTION, meta)
            .seal(ctx, sealer)
    }

    /// The only way state enters a store: merges a [`Snapshot`] from
    /// [`Self::snapshot_since`] (possibly sealed by a different enclave
    /// — that is what the shared key is for — or a store with the other
    /// rebalancer setting: the item log is layout-neutral),
    /// last-writer-wins on the per-item write stamp, so a stale copy
    /// re-imported after bouncing through another replica never
    /// clobbers a fresher value. Returns the number of items applied
    /// (inserted or overwritten).
    ///
    /// # Errors
    /// A section is missing or fails authentication, the item log does
    /// not parse, or the `"storage-meta"` item count disagrees with
    /// it. Everything is checked before the first item is applied: a
    /// refused snapshot leaves the store untouched.
    pub fn try_restore(
        &mut self,
        ctx: &mut ThreadCtx,
        sealer: &dyn Sealer,
        snap: &Snapshot,
    ) -> Result<u64, SnapshotError> {
        let plain = snap.open(ctx, sealer, KVS_SECTION)?;
        let items = parse_items(&plain).ok_or(SnapshotError("malformed item log"))?;
        let meta = snap.open(ctx, sealer, STORAGE_META_SECTION)?;
        let declared = meta
            .split_first()
            .and_then(|(&label_len, rest)| rest.get(usize::from(label_len)..))
            .and_then(|rest| rest.first_chunk::<8>())
            .map(|count| u64::from_le_bytes(*count));
        if declared != Some(items.len() as u64) {
            return Err(SnapshotError("storage-meta item count disagrees"));
        }
        Ok(self.apply_items(ctx, &items))
    }

    /// [`Self::try_restore`], panicking on `Err`. Kept **only** because
    /// the frozen e2e probe `core.snapshot_item` (`bench/src/probes.rs`)
    /// calls it; the next benchmark PR should move the probe and delete
    /// this. Nothing that reads bytes from untrusted memory may call it.
    ///
    /// # Panics
    /// Panics where [`Self::try_restore`] returns an error.
    pub fn restore(&mut self, ctx: &mut ThreadCtx, sealer: &dyn Sealer, snap: &Snapshot) -> u64 {
        self.try_restore(ctx, sealer, snap)
            .expect("restore of a snapshot from a trusted source")
    }

    /// Serves up to one sub-batch per shard as one pipelined batch
    /// ([`ServerIo::serve`] over [`Self::process`]): receives posted
    /// together, lookups run back-to-back, responses batch-encrypted and
    /// sent together — on one worker shard by shard, as each shard's
    /// run lands — all in one serve round, which bills each key's crypto
    /// (the wire's, SUVM's) as one batch. The batch boundary is a
    /// storage fence, after the round. Returns the number of requests
    /// handled.
    pub fn handle_batch(&mut self, ctx: &mut ThreadCtx, io: &ServerIo) -> usize {
        let served = io.serve(ctx, |ctx, plain| self.process(ctx, plain));
        if served > 0 {
            self.fence(ctx);
        }
        served
    }

    /// [`Self::handle_batch`] over a shard subset: reaps only the
    /// `active` shards (a fleet replica's owned slice of the shared
    /// socket set), serves, sends and fences. It never reaps ahead
    /// ([`ServerIo::serve_on`]). Returns the number of requests handled.
    pub fn handle_batch_on(
        &mut self,
        ctx: &mut ThreadCtx,
        io: &ServerIo,
        active: &[usize],
    ) -> usize {
        let served = io.serve_on(ctx, active, |ctx, plain| self.process(ctx, plain));
        if served > 0 {
            self.fence(ctx);
        }
        served
    }

    /// Executes one decrypted binary-protocol request, returning the
    /// response plaintext — the closure a serve loop
    /// ([`ServerIo::serve`], [`ServerIo::serve_one`]) runs per request.
    ///
    /// Request plaintext: `[op u8][key_len u16][val_len u32][key][value]`
    /// with op 0 = GET, 1 = SET, 2 = SET-with-TTL (a `ttl u32` in
    /// seconds follows `val_len`, shifting the key to offset 11).
    /// Response: GET → `[1][val_len][value]` or `[0]`; SET and
    /// SET-with-TTL → `[1]`, or `[0]` for a record too large to ever
    /// store. The body comes from a client, attested but not trusted:
    /// one that does not parse is answered [`MALFORMED_REPLY`] and
    /// counted in `malformed_requests`, and the server keeps serving.
    pub fn process(&mut self, ctx: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
        match Request::parse(plain) {
            Some(Request::Get { key }) => match self.get(ctx, key) {
                Some(value) => {
                    let mut resp = Vec::with_capacity(5 + value.len());
                    resp.push(1u8);
                    resp.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    resp.extend_from_slice(&value);
                    resp
                }
                None => vec![0u8],
            },
            Some(Request::Set { key, value, ttl }) => {
                vec![u8::from(self.set_with_ttl(ctx, key, value, ttl))]
            }
            None => {
                Stats::bump(&ctx.machine.stats.malformed_requests);
                vec![MALFORMED_REPLY]
            }
        }
    }
}

/// One entry of a snapshot's item log, borrowed from its plaintext.
#[derive(Clone, Copy)]
struct LoggedItem<'a> {
    key: &'a [u8],
    value: &'a [u8],
    version: u64,
    expiry: u32,
}

/// Parses `count u64 || (klen u32, vlen u32, version u64, expiry u32,
/// key, value)*`; `None` when an entry runs past the log, the count
/// disagrees with it, or bytes are left over.
fn parse_items(plain: &[u8]) -> Option<Vec<LoggedItem<'_>>> {
    let (count, mut rest) = plain.split_first_chunk::<8>()?;
    // Grown per parsed entry, never sized by `count`.
    let mut items = Vec::new();
    for _ in 0..u64::from_le_bytes(*count) {
        let (klen, r) = rest.split_first_chunk::<4>()?;
        let (vlen, r) = r.split_first_chunk::<4>()?;
        let (version, r) = r.split_first_chunk::<8>()?;
        let (expiry, r) = r.split_first_chunk::<4>()?;
        let (key, r) = r.split_at_checked(u32::from_le_bytes(*klen) as usize)?;
        let (value, r) = r.split_at_checked(u32::from_le_bytes(*vlen) as usize)?;
        items.push(LoggedItem {
            key,
            value,
            version: u64::from_le_bytes(*version),
            expiry: u32::from_le_bytes(*expiry),
        });
        rest = r;
    }
    rest.is_empty().then_some(items)
}

/// The one-byte reply to a request that does not parse.
pub const MALFORMED_REPLY: u8 = 0xFF;

/// A binary-protocol request, borrowed from its decrypted body.
enum Request<'a> {
    Get {
        key: &'a [u8],
    },
    /// `ttl = 0` never expires.
    Set {
        key: &'a [u8],
        value: &'a [u8],
        ttl: u32,
    },
}

impl<'a> Request<'a> {
    /// Parses `[op u8][key_len u16][val_len u32]` + body; `None` for
    /// a truncated header, an unknown opcode, or lengths that run past
    /// the body.
    fn parse(plain: &'a [u8]) -> Option<Self> {
        let (&op, rest) = plain.split_first()?;
        let (klen, rest) = rest.split_first_chunk::<2>()?;
        let (vlen, rest) = rest.split_first_chunk::<4>()?;
        let klen = usize::from(u16::from_le_bytes(*klen));
        let vlen = u32::from_le_bytes(*vlen) as usize;
        let (ttl, rest) = match op {
            0 | 1 => (0, rest),
            2 => {
                let (ttl, rest) = rest.split_first_chunk::<4>()?;
                (u32::from_le_bytes(*ttl), rest)
            }
            _ => return None,
        };
        let (key, rest) = rest.split_at_checked(klen)?;
        if op == 0 {
            return Some(Request::Get { key });
        }
        let value = rest.get(..vlen)?;
        Some(Request::Set { key, value, ttl })
    }
}

/// Builds a GET request plaintext.
#[must_use]
pub fn build_get(key: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(7 + key.len());
    p.push(0u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes());
    p.extend_from_slice(key);
    p
}

/// Builds a SET request plaintext.
#[must_use]
pub fn build_set(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(7 + key.len() + value.len());
    p.push(1u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&(value.len() as u32).to_le_bytes());
    p.extend_from_slice(key);
    p.extend_from_slice(value);
    p
}

/// Builds a SET-with-TTL request plaintext (`ttl_secs = 0` never
/// expires — same convention as [`Kvs::set_with_ttl`]).
#[must_use]
pub fn build_set_ttl(key: &[u8], value: &[u8], ttl_secs: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(11 + key.len() + value.len());
    p.push(2u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&(value.len() as u32).to_le_bytes());
    p.extend_from_slice(&ttl_secs.to_le_bytes());
    p.extend_from_slice(key);
    p.extend_from_slice(value);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_core::{Suvm, SuvmConfig};
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn untrusted_kvs(limit: u64) -> (Kvs, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let kvs = Kvs::new(space.clone(), space, limit, 1024);
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (kvs, t)
    }

    #[test]
    fn set_get_delete() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set(&mut t, b"hello", b"world");
        assert_eq!(kvs.get(&mut t, b"hello").unwrap(), b"world");
        assert_eq!(kvs.get(&mut t, b"missing"), None);
        kvs.set(&mut t, b"hello", b"again");
        assert_eq!(kvs.get(&mut t, b"hello").unwrap(), b"again");
        assert_eq!(kvs.len(), 1);
        assert!(kvs.delete(&mut t, b"hello"));
        assert!(!kvs.delete(&mut t, b"hello"));
        assert!(kvs.is_empty());
        t.exit();
    }

    #[test]
    fn many_keys_survive_collisions() {
        let (mut kvs, mut t) = untrusted_kvs(32 << 20);
        kvs.init(&mut t);
        for i in 0..2000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 100 + (i as usize % 300)];
            kvs.set(&mut t, key.as_bytes(), &value);
        }
        for i in 0..2000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 100 + (i as usize % 300)];
            assert_eq!(kvs.get(&mut t, key.as_bytes()).unwrap(), value, "{key}");
        }
        t.exit();
    }

    #[test]
    fn lru_evicts_coldest_under_memory_pressure() {
        // Limit = 2 slabs; 1 KiB values -> eviction must kick in.
        let (mut kvs, mut t) = untrusted_kvs(2 << 20);
        kvs.init(&mut t);
        let value = vec![7u8; 1024];
        for i in 0..4000u32 {
            kvs.set(&mut t, format!("k{i}").as_bytes(), &value);
        }
        assert!(kvs.evictions() > 0, "LRU must have evicted");
        // The most recent keys are present; the oldest are gone.
        assert!(kvs.get(&mut t, b"k3999").is_some());
        assert!(kvs.get(&mut t, b"k0").is_none());
        t.exit();
    }

    #[test]
    fn value_resize_moves_class() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set(&mut t, b"k", &[1u8; 64]);
        kvs.set(&mut t, b"k", &vec![2u8; 8000]);
        assert_eq!(kvs.get(&mut t, b"k").unwrap(), vec![2u8; 8000]);
        assert_eq!(kvs.len(), 1);
        t.exit();
    }

    #[test]
    fn suvm_backed_kvs_with_clear_metadata() {
        // The paper's split: metadata clear, kv pairs in SUVM.
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 16 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let suvm = Suvm::new(
            &t0,
            SuvmConfig {
                epcpp_bytes: 1 << 20,
                backing_bytes: 16 << 20,
                ..SuvmConfig::tiny()
            },
        );
        let mut kvs = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::suvm(&suvm),
            8 << 20,
            1024,
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        kvs.init(&mut t);
        // Working set (8 MiB) >> EPC++ (1 MiB): SUVM pages for us.
        for i in 0..1500u32 {
            kvs.set(
                &mut t,
                format!("key-{i}").as_bytes(),
                &vec![(i % 250) as u8; 4096],
            );
        }
        for i in (0..1500u32).step_by(97) {
            assert_eq!(
                kvs.get(&mut t, format!("key-{i}").as_bytes()).unwrap(),
                vec![(i % 250) as u8; 4096]
            );
        }
        let s = m.stats.snapshot();
        assert!(s.suvm_evictions > 0, "SUVM must have paged");
        assert_eq!(s.enclave_exits, 0, "no exits during pure KVS ops");
        t.exit();
    }

    #[test]
    fn ttl_expiry_is_lazy_and_correct() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        // ~2 simulated seconds of TTL; the clock only moves when we
        // charge cycles.
        kvs.set_with_ttl(&mut t, b"ephemeral", b"soon gone", 2);
        kvs.set(&mut t, b"durable", b"stays");
        assert_eq!(kvs.get(&mut t, b"ephemeral").unwrap(), b"soon gone");
        // Advance simulated time past the deadline (3.4e9 cycles/sec).
        t.compute(3 * 3_400_000_000);
        assert_eq!(kvs.get(&mut t, b"ephemeral"), None, "expired");
        assert_eq!(kvs.len(), 1, "lazy delete reclaimed the item");
        assert_eq!(kvs.expired(), 1);
        assert_eq!(kvs.get(&mut t, b"durable").unwrap(), b"stays");
        // Re-inserting after expiry works.
        kvs.set(&mut t, b"ephemeral", b"back");
        assert_eq!(kvs.get(&mut t, b"ephemeral").unwrap(), b"back");
        t.exit();
    }

    #[test]
    fn snapshot_restores_across_rebalancer_settings() {
        // Seal from a static store, restore into a rebalancing one: the
        // item log is layout-neutral, whatever `storage-meta` labels.
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"short", b"lived", 300);
        kvs.set(&mut t, b"forever", b"kept");
        let sealer = AesGcm128::new(&[0x44u8; 16]);
        let snap = kvs.snapshot_since(&mut t, &sealer, 9, 1, 0);
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut rebal = Kvs::with_rebalancer(space.clone(), space, 8 << 20, 1024);
        rebal.init(&mut t);
        assert_eq!(rebal.restore(&mut t, &sealer, &snap), 2);
        assert_eq!(rebal.get(&mut t, b"short").unwrap(), b"lived");
        assert_eq!(rebal.get(&mut t, b"forever").unwrap(), b"kept");
        t.exit();
    }

    #[test]
    fn portable_snapshot_restores_into_a_different_store() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..150u32 {
            kvs.set(
                &mut t,
                format!("item-{i}").as_bytes(),
                &vec![(i % 200) as u8; 32 + i as usize],
            );
        }
        let sealer = AesGcm128::new(&[0x33u8; 16]);
        let snap = kvs.snapshot_since(&mut t, &sealer, 7, 42, 0);
        assert_eq!(snap.epoch(), 42);
        // Round-trip through the byte form a cross-enclave channel
        // would carry; the payload is ciphertext end-to-end.
        let bytes = snap.to_bytes();
        assert!(!bytes.windows(6).any(|w| w == b"item-1"));
        let reread = Snapshot::from_bytes(&bytes).unwrap();

        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs2 = Kvs::new(space.clone(), space, 8 << 20, 1024);
        kvs2.init(&mut t);
        assert_eq!(kvs2.restore(&mut t, &sealer, &reread), 150);
        for i in (0..150u32).step_by(17) {
            assert_eq!(
                kvs2.get(&mut t, format!("item-{i}").as_bytes()).unwrap(),
                vec![(i % 200) as u8; 32 + i as usize]
            );
        }
        // Restore merges on top of existing state — the failover heir
        // keeps its own items, and a re-import of the same snapshot
        // applies nothing (every entry is stale-or-equal by stamp).
        kvs2.set(&mut t, b"heir-own", b"survives");
        assert_eq!(kvs2.restore(&mut t, &sealer, &reread), 0);
        assert_eq!(kvs2.get(&mut t, b"heir-own").unwrap(), b"survives");
        assert_eq!(kvs2.len(), 151);
        t.exit();
    }

    #[test]
    fn snapshot_roundtrip_via_host_fs() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..200u32 {
            kvs.set(
                &mut t,
                format!("snap-{i}").as_bytes(),
                &vec![i as u8; 64 + i as usize],
            );
        }
        let sealer = AesGcm128::new(&[0x51u8; 16]);
        let blob = kvs.snapshot_since(&mut t, &sealer, 7, 1, 0).to_bytes();
        // The snapshot is sealed: no key material visible.
        assert!(!blob.windows(6).any(|w| w == b"snap-1"));

        // Write it to the host filesystem through the syscall layer
        // and read it back (as a warm-restarting server would).
        let m = Arc::clone(&t.machine);
        let mut ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.fs.open(&mut ut, "/var/kvs.snapshot");
        let staging = m.alloc_untrusted(blob.len().next_power_of_two());
        ut.write_untrusted(staging, &blob);
        assert_eq!(
            m.fs.write(&mut ut, fd, staging, blob.len()).unwrap(),
            blob.len()
        );
        m.fs.seek(&mut ut, fd, 0).unwrap();
        let n = m.fs.read(&mut ut, fd, staging, blob.len()).unwrap();
        assert_eq!(n, blob.len());
        let mut reread = vec![0u8; n];
        ut.read_untrusted(staging, &mut reread);

        // A fresh store restores everything.
        let fresh = || {
            let space = DataSpace::Untrusted(Arc::clone(&m));
            Kvs::new(space.clone(), space, 8 << 20, 1024)
        };
        let mut kvs2 = fresh();
        kvs2.init(&mut t);
        let snap = Snapshot::from_bytes(&reread).unwrap();
        assert_eq!(kvs2.try_restore(&mut t, &sealer, &snap), Ok(200));
        for i in (0..200u32).step_by(23) {
            assert_eq!(
                kvs2.get(&mut t, format!("snap-{i}").as_bytes()).unwrap(),
                vec![i as u8; 64 + i as usize]
            );
        }

        // A tampered file is refused, and nothing of it is applied.
        let mut bad = reread.clone();
        *bad.last_mut().unwrap() ^= 1;
        let mut kvs3 = fresh();
        kvs3.init(&mut t);
        let snap = Snapshot::from_bytes(&bad).unwrap();
        assert_eq!(
            kvs3.try_restore(&mut t, &sealer, &snap),
            Err(SnapshotError("section failed authentication"))
        );
        assert!(kvs3.is_empty(), "a refused snapshot applies nothing");
        t.exit();
    }

    #[test]
    fn mis_assembled_snapshots_are_refused_whole() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        let sealer = AesGcm128::new(&[0x52u8; 16]);
        let restore = |kvs: &mut Kvs, t: &mut ThreadCtx, b: SnapshotBuilder| {
            let snap = b.seal(t, &sealer);
            kvs.try_restore(t, &sealer, &snap).map_err(|e| e.0)
        };
        // One good entry followed by one whose value runs past the log.
        let mut log = 2u64.to_le_bytes().to_vec();
        for vlen in [1u32, 900] {
            log.extend_from_slice(&1u32.to_le_bytes());
            log.extend_from_slice(&vlen.to_le_bytes());
            log.extend_from_slice(&[0u8; 12]);
            log.extend_from_slice(b"kv");
        }
        let b = SnapshotBuilder::new(1, 1).section(KVS_SECTION, log);
        assert_eq!(restore(&mut kvs, &mut t, b), Err("malformed item log"));
        let b = SnapshotBuilder::new(1, 2).section("other", vec![]);
        assert_eq!(restore(&mut kvs, &mut t, b), Err("no such section"));
        // A well-formed empty log whose meta section declares one item,
        // and one whose meta section is cut short.
        for (epoch, meta) in [
            (3, [&[0u8][..], &1u64.to_le_bytes()].concat()),
            (4, vec![9]),
        ] {
            let b = SnapshotBuilder::new(1, epoch)
                .section(KVS_SECTION, 0u64.to_le_bytes().to_vec())
                .section(STORAGE_META_SECTION, meta);
            assert_eq!(
                restore(&mut kvs, &mut t, b),
                Err("storage-meta item count disagrees")
            );
        }
        assert!(kvs.is_empty(), "the good leading entry was not applied");
        t.exit();
    }

    #[test]
    fn snapshot_preserves_remaining_ttl() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"ttl-10", b"v", 10);
        kvs.set(&mut t, b"no-ttl", b"w");
        let sealer = AesGcm128::new(&[0x66u8; 16]);
        let snap = kvs.snapshot_since(&mut t, &sealer, 1, 1, 0);

        // Restore 4 simulated seconds later: 6 seconds remain.
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs2 = Kvs::new(space.clone(), space, 8 << 20, 1024);
        kvs2.init(&mut t);
        t.compute(4 * 3_400_000_000);
        assert_eq!(kvs2.restore(&mut t, &sealer, &snap), 2);
        assert_eq!(kvs2.get(&mut t, b"ttl-10").unwrap(), b"v");
        // Past the original deadline the item is gone, proving the
        // absolute expiry (not a fresh TTL) was restored.
        t.compute(7 * 3_400_000_000);
        assert_eq!(kvs2.get(&mut t, b"ttl-10"), None, "deadline preserved");
        assert_eq!(kvs2.get(&mut t, b"no-ttl").unwrap(), b"w");

        // A snapshot restored *after* the deadline drops the item
        // entirely instead of resurrecting it.
        let mut kvs3 = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::Untrusted(Arc::clone(&m)),
            8 << 20,
            1024,
        );
        kvs3.init(&mut t);
        assert_eq!(kvs3.restore(&mut t, &sealer, &snap), 1, "expired dropped");
        assert_eq!(kvs3.len(), 1);
        t.exit();
    }

    #[test]
    fn a_read_items_expiry_round_trips_bare() {
        // A hit sets the eviction rule's referenced bit in the item's
        // node; no expiry a scan yields or a snapshot carries shows it.
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        t.compute(5 * 3_400_000_000);
        let now = now_secs(&t);
        kvs.set_with_ttl(&mut t, b"ttl-0", b"a", 0);
        kvs.set_with_ttl(&mut t, b"ttl-2", b"b", 2);
        // A wire TTL of u32::MAX saturates to the last second there is.
        let set = build_set_ttl(b"ttl-max", b"c", u32::MAX);
        assert_eq!(kvs.process(&mut t, &set), [1u8]);
        let want = [
            (b"ttl-0".to_vec(), 0),
            (b"ttl-2".to_vec(), now + 2),
            (b"ttl-max".to_vec(), u32::MAX),
        ];
        for (key, _) in &want {
            assert!(kvs.get(&mut t, key).is_some(), "{key:?} is live");
        }
        let expiries = |kvs: &Kvs, t: &mut ThreadCtx| {
            let mut seen = Vec::new();
            kvs.engine
                .for_each_since(t, 0, |key, _, _, expiry| seen.push((key.to_vec(), expiry)));
            seen.sort();
            seen
        };
        assert_eq!(expiries(&kvs, &mut t), want);

        let sealer = AesGcm128::new(&[0x35u8; 16]);
        let snap = kvs.snapshot_since(&mut t, &sealer, 1, 1, 0);
        let plain = snap
            .open(&mut t, &sealer, KVS_SECTION)
            .expect("sealed here");
        let mut carried: Vec<_> = parse_items(&plain)
            .expect("item log")
            .iter()
            .map(|item| (item.key.to_vec(), item.expiry))
            .collect();
        carried.sort();
        assert_eq!(carried, want);
        let space = DataSpace::Untrusted(Arc::clone(&t.machine));
        let mut copy = Kvs::new(space.clone(), space, 8 << 20, 1024);
        copy.init(&mut t);
        assert_eq!(copy.try_restore(&mut t, &sealer, &snap).expect("honest"), 3);
        assert_eq!(expiries(&copy, &mut t), want);
        t.exit();
    }

    #[test]
    fn for_each_item_skips_expired() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"gone-soon", b"x", 2);
        kvs.set(&mut t, b"stays", b"y");
        let mut seen = Vec::new();
        kvs.for_each_item(&mut t, |k, _| seen.push(k.to_vec()));
        assert_eq!(seen.len(), 2);
        t.compute(3 * 3_400_000_000);
        seen.clear();
        kvs.for_each_item(&mut t, |k, _| seen.push(k.to_vec()));
        assert_eq!(seen, vec![b"stays".to_vec()], "expired item visited");
        t.exit();
    }

    #[test]
    fn protocol_requests() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        let m = Arc::clone(&t.machine);
        let wire = Arc::new(crate::wire::Session::established([3u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            crate::io::IoPath::Ocall,
            Arc::clone(&wire),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_set(b"alpha", b"beta")));
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"alpha")));
        assert!(io.serve_one(&mut t, |c, p| kvs.process(c, p)));
        assert!(io.serve_one(&mut t, |c, p| kvs.process(c, p)));
        assert!(
            !io.serve_one(&mut t, |c, p| kvs.process(c, p)),
            "queue drained"
        );
        // SET ack then GET hit.
        assert_eq!(wire.decrypt(&m.host.pop_response(fd).unwrap()), &[1u8]);
        let get_resp = wire.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(get_resp[0], 1);
        assert_eq!(&get_resp[5..], b"beta");
        t.exit();
    }

    #[test]
    fn oversize_set_is_refused_on_the_wire() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        assert!(kvs.set(&mut t, b"k", b"small"));
        // Header + key + 1 MiB is past the largest slab class.
        let huge = vec![1u8; 1 << 20];
        assert_eq!(kvs.process(&mut t, &build_set(b"k", &huge)), [0u8]);
        assert_eq!(kvs.process(&mut t, &build_set_ttl(b"new", &huge, 9)), [0u8]);
        assert_eq!(kvs.get(&mut t, b"k").unwrap(), b"small");
        assert_eq!((kvs.len(), kvs.evictions()), (1, 0));
        assert_eq!(t.machine.stats.snapshot().malformed_requests, 0);
        t.exit();
    }

    #[test]
    fn protocol_set_with_ttl_expires_client_visible() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        let m = Arc::clone(&t.machine);
        let wire = Arc::new(crate::wire::Session::established([3u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            crate::io::IoPath::Ocall,
            Arc::clone(&wire),
        );
        m.host.push_request(
            &t,
            fd,
            &wire.encrypt(&build_set_ttl(b"session", b"token", 5)),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"session")));
        assert!(io.serve_one(&mut t, |c, p| kvs.process(c, p)));
        assert!(io.serve_one(&mut t, |c, p| kvs.process(c, p)));
        assert_eq!(wire.decrypt(&m.host.pop_response(fd).unwrap()), &[1u8]);
        let hit = wire.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(hit[0], 1);
        assert_eq!(&hit[5..], b"token");
        // Past the deadline the same GET misses.
        t.compute(6 * 3_400_000_000);
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"session")));
        assert!(io.serve_one(&mut t, |c, p| kvs.process(c, p)));
        assert_eq!(
            wire.decrypt(&m.host.pop_response(fd).unwrap()),
            &[0u8],
            "TTL'd item must expire"
        );
        t.exit();
    }

    #[test]
    fn incremental_snapshot_carries_only_the_delta() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..40u32 {
            kvs.set(&mut t, format!("base-{i}").as_bytes(), &[i as u8; 24]);
        }
        // Everything so far is stamp 0; open interval 2 for the
        // writes the delta must capture.
        kvs.set_write_version(2);
        kvs.set(&mut t, b"fresh-a", b"one");
        kvs.set(&mut t, b"base-7", b"rewritten");
        let sealer = AesGcm128::new(&[0x77u8; 16]);
        let delta = kvs.snapshot_since(&mut t, &sealer, 3, 5, 2);
        assert_eq!(delta.epoch(), 5);

        // A receiver already holding the base catches up from the
        // delta alone.
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut peer = Kvs::new(space.clone(), space, 8 << 20, 1024);
        peer.init(&mut t);
        for i in 0..40u32 {
            peer.set(&mut t, format!("base-{i}").as_bytes(), &[i as u8; 24]);
        }
        assert_eq!(peer.restore(&mut t, &sealer, &delta), 2, "delta items only");
        assert_eq!(peer.get(&mut t, b"fresh-a").unwrap(), b"one");
        assert_eq!(peer.get(&mut t, b"base-7").unwrap(), b"rewritten");
        assert_eq!(peer.len(), 41);
        assert_eq!(m.stats.snapshot().snapshot_delta_items, 2);

        // base = 0 degenerates to a full snapshot.
        let full = kvs.snapshot_since(&mut t, &sealer, 3, 6, 0);
        let space2 = DataSpace::Untrusted(Arc::clone(&m));
        let mut fresh = Kvs::new(space2.clone(), space2, 8 << 20, 1024);
        fresh.init(&mut t);
        assert_eq!(fresh.restore(&mut t, &sealer, &full), 41);
        t.exit();
    }
}
