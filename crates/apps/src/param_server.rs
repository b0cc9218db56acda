//! The parameter server from the paper's motivation study (§2).
//!
//! "Parameter servers are commonly used in distributed machine learning
//! systems to store shared model parameters … Each worker issues
//! in-place updates." The server is a hash table of 8-byte keys to
//! 8-byte values living in a [`DataSpace`]; clients send encrypted
//! batches of `(key, delta)` updates.
//!
//! Two table layouts are provided because Fig 2b contrasts them: **open
//! addressing** (linear probing — no pointer chasing, insensitive to
//! TLB flushes) and **chaining** (a pointer dereference per node —
//! every enclave exit's TLB flush costs a page walk per hop).

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::kvs::MALFORMED_REPLY;
use crate::space::DataSpace;

/// Hash-table layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Linear probing in a flat slot array.
    OpenAddressing,
    /// Bucket heads + singly linked nodes.
    Chaining,
}

const SLOT_BYTES: u64 = 16; // key, value
const NODE_BYTES: usize = 24; // key, value, next

/// Cost of hashing + request-parsing arithmetic per key, charged as
/// pure compute.
const HASH_CYCLES: u64 = 30;

/// SplitMix64 — the table hash.
#[must_use]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The parameter server.
pub struct ParamServer {
    space: DataSpace,
    kind: TableKind,
    buckets: u64,
    /// Open addressing: the slot array. Chaining: the head array.
    table: u64,
    entries: u64,
}

impl ParamServer {
    /// Creates a server sized for `capacity` entries (the table is
    /// allocated at 2x capacity for open addressing, like the paper's
    /// fixed-size KVS).
    #[must_use]
    pub fn new(space: DataSpace, kind: TableKind, capacity: u64) -> Self {
        let buckets = (capacity * 2).next_power_of_two();
        let table = match kind {
            TableKind::OpenAddressing => space.alloc((buckets * SLOT_BYTES) as usize),
            TableKind::Chaining => space.alloc((buckets * 8) as usize),
        };
        Self {
            space,
            kind,
            buckets,
            table,
            entries: 0,
        }
    }

    /// The number of live entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate bytes of parameter data (what "server data size"
    /// means in Fig 1).
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        match self.kind {
            TableKind::OpenAddressing => self.buckets * SLOT_BYTES,
            TableKind::Chaining => self.buckets * 8 + self.entries * NODE_BYTES as u64,
        }
    }

    /// Zeroes the table (required before first use for open
    /// addressing, where key 0 marks an empty slot).
    pub fn init(&self, ctx: &mut ThreadCtx) {
        let len = match self.kind {
            TableKind::OpenAddressing => self.buckets * SLOT_BYTES,
            TableKind::Chaining => self.buckets * 8,
        };
        let zeros = vec![0u8; 4096];
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(4096);
            self.space.write(ctx, self.table + off, &zeros[..n]);
            off += n as u64;
        }
    }

    /// Inserts or updates `key` by adding `delta` (keys must be
    /// nonzero). Returns the new value, or `None` — leaving the table
    /// untouched — for a new key once the table holds the `capacity` it
    /// was sized for (half its buckets, in both layouts): which keys a
    /// request names is the client's choice, so a full table refuses,
    /// it does not panic or grow.
    pub fn update(&mut self, ctx: &mut ThreadCtx, key: u64, delta: u64) -> Option<u64> {
        // Not input-reachable: `Request::parse` refuses an update of
        // key 0, and every other caller picks its own keys.
        assert_ne!(key, 0, "key 0 is the empty-slot marker");
        let full = self.entries * 2 >= self.buckets;
        ctx.compute(HASH_CYCLES);
        let h = hash64(key) & (self.buckets - 1);
        // The probe walk, the value read and the write go through one
        // cursor: on SUVM, one translation per page they touch.
        match self.kind {
            TableKind::OpenAddressing => {
                let mut cur = self.space.cursor(self.table + h * SLOT_BYTES);
                let mut slot = h;
                loop {
                    let addr = self.table + slot * SLOT_BYTES;
                    cur.seek(addr);
                    let k = cur.read_u64(ctx);
                    if k == key {
                        let v = cur.read_u64(ctx).wrapping_add(delta);
                        cur.seek(addr + 8);
                        cur.write_u64(ctx, v);
                        return Some(v);
                    }
                    if k == 0 {
                        if full {
                            return None;
                        }
                        cur.seek(addr);
                        cur.write_u64(ctx, key);
                        cur.write_u64(ctx, delta);
                        self.entries += 1;
                        return Some(delta);
                    }
                    slot = (slot + 1) & (self.buckets - 1);
                }
            }
            TableKind::Chaining => {
                let head_addr = self.table + h * 8;
                let mut cur = self.space.cursor(head_addr);
                let mut node = cur.read_u64(ctx);
                while node != 0 {
                    cur.seek(node);
                    let k = cur.read_u64(ctx);
                    if k == key {
                        let v = cur.read_u64(ctx).wrapping_add(delta);
                        cur.seek(node + 8);
                        cur.write_u64(ctx, v);
                        return Some(v);
                    }
                    cur.seek(node + 16);
                    node = cur.read_u64(ctx);
                }
                if full {
                    return None;
                }
                // Insert at head. Internal invariant, not input: the
                // head array was allocated first, so no later node of
                // this space sits at address 0 (the list terminator).
                let new = self.space.alloc(NODE_BYTES);
                assert_ne!(new, 0, "node at null address");
                cur.seek(new);
                cur.write_u64(ctx, key);
                cur.write_u64(ctx, delta);
                cur.seek(head_addr);
                let old_head = cur.read_u64(ctx);
                cur.seek(new + 16);
                cur.write_u64(ctx, old_head);
                cur.seek(head_addr);
                cur.write_u64(ctx, new);
                self.entries += 1;
                Some(delta)
            }
        }
    }

    /// Reads `key`'s value.
    #[must_use]
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.compute(HASH_CYCLES);
        let h = hash64(key) & (self.buckets - 1);
        match self.kind {
            TableKind::OpenAddressing => {
                let mut cur = self.space.cursor(self.table + h * SLOT_BYTES);
                let mut slot = h;
                loop {
                    cur.seek(self.table + slot * SLOT_BYTES);
                    let k = cur.read_u64(ctx);
                    if k == key {
                        return Some(cur.read_u64(ctx));
                    }
                    if k == 0 {
                        return None;
                    }
                    slot = (slot + 1) & (self.buckets - 1);
                }
            }
            TableKind::Chaining => {
                let mut cur = self.space.cursor(self.table + h * 8);
                let mut node = cur.read_u64(ctx);
                while node != 0 {
                    cur.seek(node);
                    if cur.read_u64(ctx) == key {
                        return Some(cur.read_u64(ctx));
                    }
                    cur.seek(node + 16);
                    node = cur.read_u64(ctx);
                }
                None
            }
        }
    }

    /// Populates keys `1..=n` with value = key.
    ///
    /// # Panics
    /// Panics when `n` (the operator's, not a client's) overruns the
    /// table's capacity.
    pub fn populate(&mut self, ctx: &mut ThreadCtx, n: u64) {
        for key in 1..=n {
            self.update(ctx, key, key)
                .expect("parameter table over capacity");
        }
    }

    /// Bulk population for open addressing: computes the final table
    /// image natively and streams it in sequentially — the moral
    /// equivalent of loading a snapshot, avoiding one random page
    /// fault per inserted key during experiment setup.
    ///
    /// # Panics
    /// Panics for chaining tables (whose nodes must be heap-allocated
    /// one by one) or when the table would exceed half full.
    pub fn populate_bulk(&mut self, ctx: &mut ThreadCtx, n: u64) {
        assert_eq!(
            self.kind,
            TableKind::OpenAddressing,
            "bulk load is open-addressing only"
        );
        assert!(n * 2 <= self.buckets, "parameter table over capacity");
        assert!(self.entries == 0, "bulk load into a fresh table");
        let mut shadow = vec![0u8; (self.buckets * SLOT_BYTES) as usize];
        for key in 1..=n {
            let mut slot = hash64(key) & (self.buckets - 1);
            loop {
                let off = (slot * SLOT_BYTES) as usize;
                let k = u64::from_le_bytes(shadow[off..off + 8].try_into().expect("slot"));
                if k == 0 {
                    shadow[off..off + 8].copy_from_slice(&key.to_le_bytes());
                    shadow[off + 8..off + 16].copy_from_slice(&key.to_le_bytes());
                    break;
                }
                slot = (slot + 1) & (self.buckets - 1);
            }
        }
        for (i, chunk) in shadow.chunks(64 << 10).enumerate() {
            self.space
                .write(ctx, self.table + (i * (64 << 10)) as u64, chunk);
        }
        self.entries = n;
    }

    /// Executes one decrypted request, returning the response
    /// plaintext — the closure a serve loop
    /// ([`ServerIo::serve`](crate::io::ServerIo::serve)) runs per
    /// request. (The paper's "in-enclave execution time", Figs 2 and
    /// 6, is the serving thread's clock across this call.)
    ///
    /// Update request ([`build_update_request`]): `[count u32][(key
    /// u64, delta u64) × count]` → ack `[applied u32]`, the number of
    /// pairs applied: `count`, unless new keys overran the table
    /// ([`Self::update`]), which also counts one `malformed_requests`.
    /// Read request ("retrieves their values", §2,
    /// [`build_read_request`]): `[1u8][count u32][key u64 × count]` →
    /// `[value u64 × count]` (missing keys read as 0).
    ///
    /// The body comes from a client, attested but not trusted: anything
    /// else — and an update of key 0, the table's empty-slot marker —
    /// is answered [`MALFORMED_REPLY`] and counted in
    /// `malformed_requests`, and the server keeps serving.
    pub fn process(&mut self, ctx: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
        match Request::parse(plain) {
            Some(Request::Update(pairs)) => {
                let applied = pairs
                    .chunks_exact(2)
                    .filter(|pair| self.update(ctx, pair[0], pair[1]).is_some())
                    .count();
                if applied < pairs.len() / 2 {
                    Stats::bump(&ctx.machine.stats.malformed_requests);
                }
                (applied as u32).to_le_bytes().to_vec()
            }
            Some(Request::Read(keys)) => keys
                .iter()
                .flat_map(|&key| self.get(ctx, key).unwrap_or(0).to_le_bytes())
                .collect(),
            None => {
                Stats::bump(&ctx.machine.stats.malformed_requests);
                vec![MALFORMED_REPLY]
            }
        }
    }
}

/// A parameter-server request, decoded from its decrypted body.
enum Request {
    /// `key, delta, key, delta, …`; no key is 0 (the empty-slot
    /// marker).
    Update(Vec<u64>),
    Read(Vec<u64>),
}

impl Request {
    /// Parses an update, `[count u32]` + `count` key-delta pairs, or a
    /// read, `[1u8][count u32]` + `count` keys; `None` for an empty or
    /// truncated body, an unknown opcode, a count that disagrees with
    /// the bytes that follow it, or an update of key 0.
    fn parse(plain: &[u8]) -> Option<Self> {
        // An update is 4 + 16 * count bytes, a read 5 + 8 * count: only
        // an update's length is 4 (mod 16).
        let (op, body) = if plain.len() % 16 == 4 {
            (None, plain)
        } else {
            let (&op, body) = plain.split_first()?;
            (Some(op), body)
        };
        let (count, items) = body.split_first_chunk::<4>()?;
        let count = u32::from_le_bytes(*count) as usize;
        let (words, ragged) = items.as_chunks::<8>();
        if !ragged.is_empty() {
            return None;
        }
        let words: Vec<u64> = words.iter().map(|w| u64::from_le_bytes(*w)).collect();
        match op {
            None if words.len() == count.checked_mul(2)? => words
                .iter()
                .step_by(2)
                .all(|&key| key != 0)
                .then_some(Request::Update(words)),
            Some(1) if words.len() == count => Some(Request::Read(words)),
            _ => None,
        }
    }
}

/// Builds an update request plaintext of `keys_and_deltas`.
#[must_use]
pub fn build_update_request(keys_and_deltas: &[(u64, u64)]) -> Vec<u8> {
    let mut plain = Vec::with_capacity(4 + keys_and_deltas.len() * 16);
    plain.extend_from_slice(&(keys_and_deltas.len() as u32).to_le_bytes());
    for &(k, d) in keys_and_deltas {
        plain.extend_from_slice(&k.to_le_bytes());
        plain.extend_from_slice(&d.to_le_bytes());
    }
    plain
}

/// Builds a value-read request plaintext.
#[must_use]
pub fn build_read_request(keys: &[u64]) -> Vec<u8> {
    let mut plain = Vec::with_capacity(5 + keys.len() * 8);
    plain.push(1u8);
    plain.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for k in keys {
        plain.extend_from_slice(&k.to_le_bytes());
    }
    plain
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn harness() -> (Arc<SgxMachine>, DataSpace, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 8 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (Arc::clone(&m), DataSpace::Enclave(e), t)
    }

    #[test]
    fn open_addressing_update_get() {
        let (_m, space, mut t) = harness();
        let mut ps = ParamServer::new(space, TableKind::OpenAddressing, 1000);
        ps.init(&mut t);
        assert!(ps.is_empty());
        assert_eq!(ps.update(&mut t, 42, 10), Some(10));
        assert_eq!(ps.update(&mut t, 42, 5), Some(15));
        assert_eq!(ps.get(&mut t, 42), Some(15));
        assert_eq!(ps.get(&mut t, 43), None);
        assert_eq!(ps.len(), 1);
        t.exit();
    }

    #[test]
    fn chaining_update_get() {
        let (_m, space, mut t) = harness();
        let mut ps = ParamServer::new(space, TableKind::Chaining, 1000);
        ps.init(&mut t);
        for k in 1..=500u64 {
            ps.update(&mut t, k, k * 2);
        }
        for k in 1..=500u64 {
            assert_eq!(ps.get(&mut t, k), Some(k * 2), "key {k}");
        }
        assert_eq!(ps.get(&mut t, 501), None);
        t.exit();
    }

    #[test]
    fn collisions_resolved_in_both_layouts() {
        let (_m, space, mut t) = harness();
        for kind in [TableKind::OpenAddressing, TableKind::Chaining] {
            // Tiny table: plenty of collisions.
            let mut ps = ParamServer::new(space.clone(), kind, 16);
            ps.init(&mut t);
            for k in 1..=10u64 {
                ps.update(&mut t, k, k);
            }
            for k in 1..=10u64 {
                assert_eq!(ps.get(&mut t, k), Some(k), "{kind:?} key {k}");
            }
        }
        t.exit();
    }

    #[test]
    fn populate_sets_identity_values() {
        let (_m, space, mut t) = harness();
        let mut ps = ParamServer::new(space, TableKind::OpenAddressing, 256);
        ps.init(&mut t);
        ps.populate(&mut t, 100);
        assert_eq!(ps.len(), 100);
        assert_eq!(ps.get(&mut t, 77), Some(77));
        t.exit();
    }

    #[test]
    fn request_roundtrip() {
        let plain = build_update_request(&[(1, 2), (3, 4)]);
        assert_eq!(plain.len(), 4 + 32);
        assert_eq!(u32::from_le_bytes(plain[..4].try_into().unwrap()), 2);
    }

    #[test]
    fn update_and_read_through_the_wire() {
        use crate::io::{IoPath, ServerIoConfig};
        use crate::wire::Session;
        use std::sync::Arc;
        let (_m2, space, mut t) = harness();
        let m = Arc::clone(&t.machine);
        let mut ps = ParamServer::new(space, TableKind::OpenAddressing, 1000);
        ps.init(&mut t);
        let wire = Arc::new(Session::established([4u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            IoPath::Ocall,
            Arc::clone(&wire),
        );

        // Two updates then a read of three keys (one missing).
        m.host.push_request(
            &t,
            fd,
            &wire.encrypt(&build_update_request(&[(10, 5), (20, 7)])),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_update_request(&[(10, 1)])));
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_read_request(&[10, 20, 30])));
        for _ in 0..3 {
            assert!(io.serve_one(&mut t, |c, p| ps.process(c, p)));
        }
        let _ = m.host.pop_response(fd);
        let _ = m.host.pop_response(fd);
        let resp = wire.decrypt(&m.host.pop_response(fd).expect("read response"));
        assert_eq!(resp.len(), 24);
        let v = |i: usize| u64::from_le_bytes(resp[i * 8..(i + 1) * 8].try_into().unwrap());
        assert_eq!(v(0), 6);
        assert_eq!(v(1), 7);
        assert_eq!(v(2), 0, "missing key reads as zero");
        t.exit();
    }
}
