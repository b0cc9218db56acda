//! GHASH — the universal hash over GF(2^128) used by GCM (SP 800-38D).
//!
//! Blocks are interpreted with bit 0 as the most significant bit of the
//! first byte, per the GCM specification. Multiplication by the fixed
//! hash subkey `H` is carry-less-multiply hardware over precomputed
//! powers of `H` when the host has it, and otherwise table-driven (16
//! tables of 256 precomputed products, one per byte position — 64 KiB
//! per key, built only on that path).

use crate::hw;

/// The GCM reduction constant: x^128 + x^7 + x^2 + x + 1, reflected
/// into the top byte.
const R: u128 = 0xe1 << 120;

/// Multiplies two elements of GF(2^128) in GCM's bit order (reference
/// implementation; table construction and tests use it).
#[must_use]
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// A precomputed GHASH key: whatever per-key state multiplying by `H`
/// needs on the path this host runs.
pub struct GhashKey(KeyImpl);

enum KeyImpl {
    /// `H^1 ..= H^8` for the carry-less-multiply kernel.
    Hw(hw::GhashPowers),
    /// For each byte position `i` and byte value `b`, the product
    /// `(b << 8·(15−i)) · H`.
    Table(Box<[[u128; 256]; 16]>),
}

impl GhashKey {
    /// Precomputes the per-key state for subkey `h`.
    #[must_use]
    pub fn new(h: &[u8; 16]) -> Self {
        match hw::GhashPowers::new(h) {
            Some(powers) => Self(KeyImpl::Hw(powers)),
            None => Self::portable(h),
        }
    }

    /// The table path, whatever the host has: the only path without
    /// the hardware, and the reference the kernel is tested against.
    fn portable(h: &[u8; 16]) -> Self {
        let h = u128::from_be_bytes(*h);
        let mut table = Box::new([[0u128; 256]; 16]);
        for pos in 0..16 {
            let shift = 8 * (15 - pos);
            // Fill powers-of-two entries with the reference multiply,
            // then complete by linearity (XOR).
            for bit in 0..8 {
                let b = 1usize << bit;
                table[pos][b] = gf128_mul((b as u128) << shift, h);
            }
            for b in 1..256usize {
                if !b.is_power_of_two() {
                    let hi = 1 << (usize::BITS - 1 - b.leading_zeros());
                    table[pos][b] = table[pos][hi] ^ table[pos][b - hi];
                }
            }
        }
        Self(KeyImpl::Table(table))
    }

    /// This subkey on every path the host can run, named: the table
    /// path always (first), the hardware path when the CPU has it.
    #[cfg(test)]
    pub(crate) fn paths(h: &[u8; 16]) -> Vec<(&'static str, Self)> {
        let mut paths = vec![("table", Self::portable(h))];
        if let Some(powers) = hw::GhashPowers::new(h) {
            paths.push(("hardware", Self(KeyImpl::Hw(powers))));
        }
        paths
    }

    /// Multiplies `z` by `H`.
    #[must_use]
    pub fn mul(&self, z: u128) -> u128 {
        self.absorb(0, &[z.to_be_bytes()])
    }

    /// Absorbs whole blocks: `acc = (acc ^ block) · H` for each.
    fn absorb(&self, acc: u128, blocks: &[[u8; 16]]) -> u128 {
        match &self.0 {
            KeyImpl::Hw(powers) => powers.absorb(acc, blocks),
            KeyImpl::Table(table) => blocks.iter().fold(acc, |acc, block| {
                table_mul(table, acc ^ u128::from_be_bytes(*block))
            }),
        }
    }
}

fn table_mul(table: &[[u128; 256]; 16], z: u128) -> u128 {
    let mut acc = 0u128;
    for (row, &b) in table.iter().zip(z.to_be_bytes().iter()) {
        acc ^= row[b as usize];
    }
    acc
}

/// Incremental GHASH state keyed by a precomputed [`GhashKey`].
pub struct Ghash<'k> {
    key: &'k GhashKey,
    acc: u128,
}

impl<'k> Ghash<'k> {
    /// Starts a GHASH computation.
    #[must_use]
    pub fn new(key: &'k GhashKey) -> Self {
        Self { key, acc: 0 }
    }

    /// Absorbs `data`, zero-padding the final partial block.
    pub fn update_padded(&mut self, data: &[u8]) {
        let (blocks, rem) = data.as_chunks::<16>();
        self.acc = self.key.absorb(self.acc, blocks);
        if !rem.is_empty() {
            let mut block = [0u8; 16];
            block[..rem.len()].copy_from_slice(rem);
            self.acc = self.key.absorb(self.acc, &[block]);
        }
    }

    /// Absorbs the standard GCM length block: `len(aad) || len(ct)` in
    /// bits, each as a 64-bit big-endian integer.
    pub fn update_lengths(&mut self, aad_bytes: u64, ct_bytes: u64) {
        let block = ((aad_bytes as u128 * 8) << 64) | (ct_bytes as u128 * 8);
        self.acc = self.key.mul(self.acc ^ block);
    }

    /// Returns the current hash value.
    #[must_use]
    pub fn finalize(&self) -> [u8; 16] {
        self.acc.to_be_bytes()
    }
}

/// One-shot GHASH over the GCM layout (padded AAD, padded ciphertext,
/// length block).
#[must_use]
pub fn ghash(key: &GhashKey, aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let mut g = Ghash::new(key);
    g.update_padded(aad);
    g.update_padded(ct);
    g.update_lengths(aad.len() as u64, ct.len() as u64);
    g.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity() {
        // The multiplicative identity in GCM bit order is the block
        // 0x80000...0 (bit 0 set).
        let one = 1u128 << 127;
        let x = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128;
        assert_eq!(gf128_mul(x, one), x);
        assert_eq!(gf128_mul(one, x), x);
    }

    #[test]
    fn mul_zero_annihilates() {
        let x = 0xdead_beef_u128;
        assert_eq!(gf128_mul(x, 0), 0);
        assert_eq!(gf128_mul(0, x), 0);
    }

    #[test]
    fn mul_commutes() {
        let a = 0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100u128;
        let b = 0xfedc_ba98_7654_3210_0123_4567_89ab_cdefu128;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }

    #[test]
    fn mul_distributes_over_xor() {
        let a = 0x1111_2222_3333_4444_5555_6666_7777_8888u128;
        let b = 0x9999_aaaa_bbbb_cccc_dddd_eeee_ffff_0000u128;
        let c = 0x0246_8ace_1357_9bdf_fdb9_7531_eca8_6420u128;
        assert_eq!(gf128_mul(a, b ^ c), gf128_mul(a, b) ^ gf128_mul(a, c));
    }

    #[test]
    fn table_mul_matches_reference() {
        let h_bytes = [0x42u8; 16];
        let h = u128::from_be_bytes(h_bytes);
        for (path, key) in GhashKey::paths(&h_bytes) {
            for z in [
                0u128,
                1,
                1 << 127,
                0xdead_beef_cafe_f00d,
                u128::MAX,
                0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978,
            ] {
                assert_eq!(key.mul(z), gf128_mul(z, h), "{path}: z = {z:#x}");
            }
        }
    }

    /// GHASH over an empty message with any key is zero (only the
    /// length block of zeros is absorbed).
    #[test]
    fn ghash_empty_is_zero() {
        let key = GhashKey::new(&[0x42u8; 16]);
        assert_eq!(ghash(&key, &[], &[]), [0u8; 16]);
    }

    /// GCM spec test case 2's GHASH step: H = AES_0(0),
    /// C = AES-CTR of a zero block; GHASH(H, {}, C) must equal the
    /// documented pre-tag value `f38cbb1ad69223dcc3457ae5b6b0f885`.
    #[test]
    fn ghash_gcm_test_case_2() {
        use crate::aes::Aes;
        let aes = Aes::new_128(&[0u8; 16]);
        let h = aes.encrypt(&[0u8; 16]);
        // J0 = IV || 0^31 || 1 with IV = 0^96; first CTR block is inc32(J0).
        let mut ctr_block = [0u8; 16];
        ctr_block[15] = 2;
        let c = aes.encrypt(&ctr_block);
        for (path, key) in GhashKey::paths(&h) {
            let s = ghash(&key, &[], &c);
            let expect: [u8; 16] = [
                0xf3, 0x8c, 0xbb, 0x1a, 0xd6, 0x92, 0x23, 0xdc, 0xc3, 0x45, 0x7a, 0xe5, 0xb6, 0xb0,
                0xf8, 0x85,
            ];
            assert_eq!(s, expect, "{path}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = GhashKey::new(&[7u8; 16]);
        let aad = b"associated data";
        let ct = b"ciphertext bytes spanning multiple blocks of ghash input!";
        let oneshot = ghash(&key, aad, ct);
        let mut g = Ghash::new(&key);
        g.update_padded(aad);
        g.update_padded(ct);
        g.update_lengths(aad.len() as u64, ct.len() as u64);
        assert_eq!(g.finalize(), oneshot);
    }
}
