//! The one hash index both storage engines chain their items on.
//!
//! Eleos §5.1 keeps memcached's hash chains in *clear* memory so that
//! walking them never pays for secure paging — but a chain step that
//! has to read the candidate's key out of the secure data space pays
//! anyway, once per stranger. `HashIndex` therefore keeps 32 bits of
//! a **keyed** hash of each item's key in its clear node: the walk
//! compares that word and asks the engine to look at the record only
//! when it matches, and unlinking a node the caller holds by address
//! (LRU eviction, merge overflow) finds the bucket from the stored word
//! and walks by node identity. A miss, a stranger in the chain and an
//! evicted victim touch zero secure bytes.
//!
//! On the SUVM rigs the node is host-visible, which is why the hash is
//! a PRF ([`siphash24`]) under a per-store secret held in enclave
//! memory: an unkeyed tag would hand the host an offline dictionary
//! test for keys (hash a guess, look for the word) and hand clients a
//! recipe for flooding one chain. What the word does leak — which
//! items share a key hash — the bucket position leaks already.
//!
//! The index also owns each node's **write stamp** (`N_VERSION`: the
//! fleet write interval the item was last stored at). The engines
//! read and write it only through `HashIndex::version` and
//! `HashIndex::set_version`. Besides the charged write into the node,
//! `set_version` raises a host-side **line stamp**, one per 64-byte
//! line of bucket heads (8 buckets). The invariant: a line stamp is
//! `>=` every version ever stored in a node of its buckets. A walk
//! bounded `since` a version (`HashIndex::for_each_node`, a delta
//! round) therefore skips a line stamped below it without reading its
//! heads, since no node there can hold a version the round would keep.
//! Like `free`, the line stamps are index bookkeeping and cost no
//! simulated cycle; a walk from `since = 0` reads every line.

use eleos_enclave::thread::ThreadCtx;

use crate::param_server::hash64;
use crate::space::DataSpace;

/// Size of an index node. The index owns [`N_NEXT`], [`N_HASH`] and
/// [`N_VERSION`]; the rest is the engine's.
const META_BYTES: usize = 48;
/// Chain link (`u64`).
const N_NEXT: u64 = 0;
/// The low 32 bits of the keyed hash of the item's key (`u32`), next
/// to the link so a chain step over a stranger reads one cache line.
const N_HASH: u64 = 8;
/// The item's write stamp (`u64`), behind the engine's fields.
const N_VERSION: u64 = 40;

/// Bucket heads per 64-byte line: the buckets one line stamp covers.
const HEADS_PER_LINE: u64 = 8;

/// Null node pointer.
pub(crate) const NIL: u64 = 0;

/// Nodes carved per metadata-space allocation.
const BLOCK_BYTES: usize = 64 << 10;

/// SipHash-2-4 of `data` under the 128-bit `key` (Aumasson &
/// Bernstein): a PRF, so without the key the output says nothing
/// about the input.
#[must_use]
pub fn siphash24(key: (u64, u64), data: &[u8]) -> u64 {
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    fn absorb(v: &mut [u64; 4], m: u64) {
        v[3] ^= m;
        round(v);
        round(v);
        v[0] ^= m;
    }
    let mut v = [
        key.0 ^ 0x736f_6d65_7073_6575,
        key.1 ^ 0x646f_7261_6e64_6f6d,
        key.0 ^ 0x6c79_6765_6e65_7261,
        key.1 ^ 0x7465_6462_7974_6573,
    ];
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        absorb(&mut v, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let mut last = (data.len() as u64) << 56;
    for (i, &b) in words.remainder().iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    absorb(&mut v, last);
    v[2] ^= 0xff;
    for _ in 0..4 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// A chain position returned by [`HashIndex::find`].
pub(crate) struct Found<T> {
    pub node: u64,
    /// The node before it in the chain ([`NIL`] at the head).
    pub prev: u64,
    /// What the engine's probe returned for the node.
    pub hit: T,
}

/// Bucket heads, chained nodes and the hash secret of one store, all
/// but the secret in the clear metadata space.
pub(crate) struct HashIndex {
    meta: DataSpace,
    heads: u64,
    buckets: u64,
    free: Vec<u64>,
    secret: (u64, u64),
    /// All ones, except in the tests that force every key onto one
    /// bucket and one stored word.
    word_mask: u32,
    /// Per line of [`HEADS_PER_LINE`] bucket heads, the largest version
    /// ever stored in a node of those buckets (host-side, uncharged).
    stamps: Vec<u64>,
}

impl HashIndex {
    /// An index of `buckets` (rounded up to a power of two) chains in
    /// `meta`. The secret is a pure function of the construction
    /// inputs — where the heads landed and `salt` — standing in for a
    /// random key drawn inside the enclave (as SUVM's sealing key
    /// does): two stores whose heads share a (host-visible) heap get
    /// different secrets, and rebuilding the same rig reproduces the
    /// same cycles.
    pub(crate) fn new(meta: DataSpace, buckets: u64, salt: u64) -> Self {
        let buckets = buckets.next_power_of_two();
        assert!(buckets <= 1 << 32, "the stored word names the bucket");
        let heads = meta.alloc((buckets * 8) as usize);
        let k0 = hash64(heads ^ salt.rotate_left(32));
        Self {
            meta,
            heads,
            buckets,
            free: Vec::new(),
            secret: (k0, hash64(k0 ^ buckets)),
            word_mask: u32::MAX,
            stamps: vec![0; buckets.div_ceil(HEADS_PER_LINE) as usize],
        }
    }

    /// Zeroes the bucket heads.
    pub(crate) fn init(&self, ctx: &mut ThreadCtx) {
        let zeros = vec![0u8; 4096];
        let len = self.buckets * 8;
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(4096);
            self.meta.write(ctx, self.heads + off, &zeros[..n]);
            off += n as u64;
        }
    }

    /// The word stored for `key`: 32 bits of its keyed hash. Its low
    /// bits name the bucket. Computed inside the store's per-operation
    /// compute charge.
    pub(crate) fn word(&self, key: &[u8]) -> u32 {
        siphash24(self.secret, key) as u32 & self.word_mask
    }

    fn bucket_of(&self, word: u32) -> u64 {
        u64::from(word) & (self.buckets - 1)
    }

    fn head_of(&self, word: u32) -> u64 {
        self.heads + self.bucket_of(word) * 8
    }

    /// Walks `word`'s chain. Nodes storing a different word are
    /// stepped over in clear metadata; on equality `probe` decides
    /// (the engine's full key comparison, or a node-field test) and
    /// the first `Some` ends the walk.
    pub(crate) fn find<T>(
        &self,
        ctx: &mut ThreadCtx,
        word: u32,
        mut probe: impl FnMut(&mut ThreadCtx, u64) -> Option<T>,
    ) -> Option<Found<T>> {
        let mut prev = NIL;
        let mut node = self.meta.read_u64(ctx, self.head_of(word));
        while node != NIL {
            if self.meta.read_u32(ctx, node + N_HASH) == word {
                if let Some(hit) = probe(ctx, node) {
                    return Some(Found { node, prev, hit });
                }
            }
            prev = node;
            node = self.meta.read_u64(ctx, node + N_NEXT);
        }
        None
    }

    /// Allocates a node and links it at the head of `word`'s chain.
    /// The engine fills in its own fields.
    pub(crate) fn insert(&mut self, ctx: &mut ThreadCtx, word: u32) -> u64 {
        let node = self.alloc_node();
        let head = self.head_of(word);
        let first = self.meta.read_u64(ctx, head);
        self.meta.write_u64(ctx, node + N_NEXT, first);
        self.meta.write_u32(ctx, node + N_HASH, word);
        self.meta.write_u64(ctx, head, node);
        node
    }

    /// Unlinks and frees `node`, found by [`Self::find`] after `prev`
    /// on `word`'s chain.
    pub(crate) fn remove(&mut self, ctx: &mut ThreadCtx, word: u32, node: u64, prev: u64) {
        let next = self.meta.read_u64(ctx, node + N_NEXT);
        let link = if prev == NIL {
            self.head_of(word)
        } else {
            prev + N_NEXT
        };
        self.meta.write_u64(ctx, link, next);
        self.free.push(node);
    }

    /// Unlinks and frees a node the caller holds by address: the
    /// bucket comes from the stored word and the walk compares node
    /// addresses, so no record is read.
    pub(crate) fn remove_node(&mut self, ctx: &mut ThreadCtx, node: u64) {
        let word = self.meta.read_u32(ctx, node + N_HASH);
        let mut prev = NIL;
        let mut cur = self.meta.read_u64(ctx, self.head_of(word));
        while cur != node {
            assert_ne!(cur, NIL, "node must be chained");
            prev = cur;
            cur = self.meta.read_u64(ctx, cur + N_NEXT);
        }
        self.remove(ctx, word, node, prev);
    }

    /// Stores `version` as the write stamp of `node`, chained on
    /// `word`'s bucket, and raises that bucket's line stamp to cover it.
    pub(crate) fn set_version(&mut self, ctx: &mut ThreadCtx, word: u32, node: u64, version: u64) {
        self.meta.write_u64(ctx, node + N_VERSION, version);
        let line = (self.bucket_of(word) / HEADS_PER_LINE) as usize;
        self.stamps[line] = self.stamps[line].max(version);
    }

    /// The write stamp [`Self::set_version`] last stored in `node`.
    pub(crate) fn version(&self, ctx: &mut ThreadCtx, node: u64) -> u64 {
        self.meta.read_u64(ctx, node + N_VERSION)
    }

    /// Visits, in bucket order, every node of every line of bucket
    /// heads whose stamp is `>= since` — a superset of the nodes
    /// stamped `>= since`, in the order the full walk (`since = 0`)
    /// visits them. A line below `since` costs nothing. `f` must not
    /// unlink.
    pub(crate) fn for_each_node(
        &self,
        ctx: &mut ThreadCtx,
        since: u64,
        mut f: impl FnMut(&mut ThreadCtx, u64),
    ) {
        for (line, &stamp) in (0..).zip(&self.stamps) {
            if stamp < since {
                continue;
            }
            let first = line * HEADS_PER_LINE;
            for b in first..(first + HEADS_PER_LINE).min(self.buckets) {
                let mut node = self.meta.read_u64(ctx, self.heads + b * 8);
                while node != NIL {
                    f(ctx, node);
                    node = self.meta.read_u64(ctx, node + N_NEXT);
                }
            }
        }
    }

    fn alloc_node(&mut self) -> u64 {
        if let Some(node) = self.free.pop() {
            return node;
        }
        let base = self.meta.alloc(BLOCK_BYTES);
        for i in (0..BLOCK_BYTES / META_BYTES).rev() {
            let node = base + (i * META_BYTES) as u64;
            // Address 0 is the NIL marker, never a node.
            if node != NIL {
                self.free.push(node);
            }
        }
        self.free.pop().expect("block has more than one node")
    }

    /// Forces every key onto one bucket and one stored word, so only
    /// the engines' full key comparison tells items apart.
    #[cfg(test)]
    pub(crate) fn collide_all(&mut self) {
        self.word_mask = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn rig(buckets: u64) -> (HashIndex, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let index = HashIndex::new(DataSpace::Untrusted(Arc::clone(&m)), buckets, 7);
        index.init(&mut t);
        (index, t)
    }

    #[test]
    fn siphash24_reference_vector() {
        // The SipHash paper's Appendix A vector.
        let key = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let input: Vec<u8> = (0..15).collect();
        assert_eq!(siphash24(key, &input), 0xa129_ca61_49be_45e5);
        // One byte past a whole word, and the empty input, hit the
        // other two padding shapes.
        assert_ne!(siphash24(key, &input[..9]), siphash24(key, &input[..8]));
        assert_ne!(siphash24(key, b""), siphash24((0, 0), b""));
    }

    #[test]
    fn different_secrets_store_different_words() {
        let (a, mut t) = rig(64);
        let b = HashIndex::new(DataSpace::Untrusted(Arc::clone(&t.machine)), 64, 7);
        b.init(&mut t);
        assert_ne!(a.secret, b.secret, "two stores of one machine");
        let differing = (0..64u32)
            .filter(|i| a.word(&i.to_le_bytes()) != b.word(&i.to_le_bytes()))
            .count();
        assert_eq!(differing, 64);
        // The same construction on a fresh machine reproduces the
        // secret (the bench requires cycle-identical rebuilds).
        let (a2, _t2) = rig(64);
        assert_eq!(a.secret, a2.secret);
        t.exit();
    }

    #[test]
    fn find_steps_over_strangers_without_probing() {
        let (mut index, mut t) = rig(1);
        let words = [5u32, 9, 5, 1];
        let nodes: Vec<u64> = words.iter().map(|&w| index.insert(&mut t, w)).collect();
        // Chain order is newest first: 1, 5, 9, 5.
        let mut probed = Vec::new();
        let found = index
            .find(&mut t, 5, |_, n| {
                probed.push(n);
                (n == nodes[0]).then_some("oldest")
            })
            .expect("chained");
        assert_eq!(probed, [nodes[2], nodes[0]], "only equal words are probed");
        assert_eq!(
            (found.node, found.prev, found.hit),
            (nodes[0], nodes[1], "oldest")
        );
        assert!(index.find(&mut t, 7, |_, _| Some(())).is_none());

        // Remove mid-chain by position, the head by identity.
        index.remove(&mut t, 5, found.node, found.prev);
        index.remove_node(&mut t, nodes[3]);
        let mut left = Vec::new();
        index.for_each_node(&mut t, 0, |_, n| left.push(n));
        assert_eq!(left, [nodes[2], nodes[1]]);
        // Freed nodes are reused before a new block is carved.
        assert_eq!(index.insert(&mut t, 3), nodes[3]);
        t.exit();
    }

    #[test]
    fn a_bounded_walk_skips_lines_stamped_below_it() {
        // 64 buckets: line 0 holds buckets 0..8, line 2 buckets 16..24.
        let (mut index, mut t) = rig(64);
        let mut stored = |word: u32, version: u64| {
            let node = index.insert(&mut t, word);
            index.set_version(&mut t, word, node, version);
            node
        };
        let old = stored(3, 1);
        let new = stored(17, 5);
        // An older stamp (a restore merge's) leaves line 2 at 5.
        let merged = stored(20, 2);
        let walk = |t: &mut ThreadCtx, since: u64| {
            let mut seen = Vec::new();
            index.for_each_node(t, since, |_, n| seen.push(n));
            seen
        };
        assert_eq!(walk(&mut t, 0), [old, new, merged]);
        assert_eq!(
            walk(&mut t, 2),
            [new, merged],
            "line 0 skipped, line 2 whole"
        );
        assert_eq!(walk(&mut t, 5), [new, merged]);
        let t0 = t.now();
        assert!(walk(&mut t, 6).is_empty());
        assert_eq!(t.now(), t0, "a line below `since` is not read");
        t.exit();
    }
}
