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

use eleos_enclave::thread::ThreadCtx;

use crate::param_server::hash64;
use crate::space::DataSpace;

/// Size of an index node. The index owns [`N_NEXT`] and [`N_HASH`];
/// the rest is the engine's.
const META_BYTES: usize = 48;
/// Chain link (`u64`).
const N_NEXT: u64 = 0;
/// The low 32 bits of the keyed hash of the item's key (`u32`), next
/// to the link so a chain step over a stranger reads one cache line.
const N_HASH: u64 = 8;

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

    fn head_of(&self, word: u32) -> u64 {
        self.heads + (u64::from(word) & (self.buckets - 1)) * 8
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

    /// Visits every node in bucket order. `f` must not unlink.
    pub(crate) fn for_each_node(
        &self,
        ctx: &mut ThreadCtx,
        mut f: impl FnMut(&mut ThreadCtx, u64),
    ) {
        for b in 0..self.buckets {
            let mut node = self.meta.read_u64(ctx, self.heads + b * 8);
            while node != NIL {
                f(ctx, node);
                node = self.meta.read_u64(ctx, node + N_NEXT);
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
        index.for_each_node(&mut t, |_, n| left.push(n));
        assert_eq!(left, [nodes[2], nodes[1]]);
        // Freed nodes are reused before a new block is carved.
        assert_eq!(index.insert(&mut t, 3), nodes[3]);
        t.exit();
    }
}
