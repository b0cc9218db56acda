//! The AES block cipher (FIPS-197), with 128- and 256-bit keys.
//!
//! The S-box and its inverse are derived at compile time from the GF(2^8)
//! multiplicative inverse plus the affine transform, rather than being
//! transcribed as 256 literals; the FIPS-197 test vectors below pin the
//! result. Block encryption runs on AES-NI when the host has it (see
//! the crate docs, "Which code runs"); key expansion and decryption are
//! always the code in this file.

use crate::hw;

/// The AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// A 16-byte AES block.
pub type Block = [u8; BLOCK_SIZE];

/// Multiplies two elements of GF(2^8) modulo the AES polynomial x^8 + x^4
/// + x^3 + x + 1 (0x11b).
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// Computes the multiplicative inverse in GF(2^8) (0 maps to 0), via
/// Fermat: `a^254 == a^-1` in GF(2^8).
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 computed by square-and-multiply over the 8-bit exponent.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp != 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        sbox[i] = affine(gf_inv(i as u8));
        i += 1;
    }
    sbox
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// The AES substitution box.
pub const SBOX: [u8; 256] = build_sbox();
/// The inverse AES substitution box.
pub const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

const fn build_rcon() -> [u8; 15] {
    let mut rcon = [0u8; 15];
    let mut v = 1u8;
    let mut i = 0usize;
    while i < 15 {
        rcon[i] = v;
        v = gf_mul(v, 2);
        i += 1;
    }
    rcon
}

const RCON: [u8; 15] = build_rcon();

/// Builds the round-transform lookup table `Te0`:
/// `Te0[x] = [2·S(x), S(x), S(x), 3·S(x)]` packed big-endian. The other
/// three tables are byte rotations of this one.
const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        let s2 = gf_mul(s, 2);
        let s3 = gf_mul(s, 3);
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = build_te0();

fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// An expanded AES key schedule.
///
/// Supports the two key sizes the Eleos runtime needs: 128-bit (request
/// encryption, page sealing) and 256-bit (available for callers wanting
/// the larger margin).
#[derive(Clone)]
pub struct Aes {
    /// Round keys, as words in big-endian column order; `4 * (rounds+1)`.
    round_keys: Vec<u32>,
    rounds: usize,
    /// The same schedule repacked for AES-NI; `None` when the host has
    /// no hardware path, and then the table code below encrypts.
    hw: Option<hw::AesKeys>,
}

impl Aes {
    /// Expands a 128-bit key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 4, 10)
    }

    /// Expands a 256-bit key.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 8, 14)
    }

    /// Number of rounds for this key size (10 or 14).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn expand(key: &[u8], nk: usize, rounds: usize) -> Self {
        let total = 4 * (rounds + 1);
        let mut w = Vec::with_capacity(total);
        for i in 0..nk {
            w.push(u32::from_be_bytes([
                key[4 * i],
                key[4 * i + 1],
                key[4 * i + 2],
                key[4 * i + 3],
            ]));
        }
        for i in nk..total {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / nk - 1] as u32) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w.push(w[i - nk] ^ temp);
        }
        Self {
            hw: hw::AesKeys::new(&w),
            round_keys: w,
            rounds,
        }
    }

    /// The hardware key schedule, when this key runs on the hardware
    /// path.
    pub(crate) fn hw(&self) -> Option<&hw::AesKeys> {
        self.hw.as_ref()
    }

    /// This key on every path the host can run, named: the table path
    /// always (first), the hardware path when the CPU has it — so a
    /// test that loops over them skips the hardware case where
    /// detection says no.
    #[cfg(test)]
    pub(crate) fn paths(self) -> Vec<(&'static str, Self)> {
        let table = Self {
            hw: None,
            ..self.clone()
        };
        let mut paths = vec![("table", table)];
        if self.hw.is_some() {
            paths.push(("hardware", self));
        }
        paths
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for c in 0..4 {
            let k = self.round_keys[4 * round + c].to_be_bytes();
            for r in 0..4 {
                state[4 * c + r] ^= k[r];
            }
        }
    }

    /// Encrypts a single block in place.
    ///
    /// The portable path is the classic four-T-table formulation (here
    /// one table plus rotations, trading a shade of speed for table
    /// footprint).
    pub fn encrypt_block(&self, block: &mut Block) {
        if let Some(hw) = &self.hw {
            return hw.encrypt_block(block);
        }
        let rk = &self.round_keys;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[3];
        #[inline(always)]
        fn round_word(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            TE0[(a >> 24) as usize]
                ^ TE0[((b >> 16) & 0xff) as usize].rotate_right(8)
                ^ TE0[((c >> 8) & 0xff) as usize].rotate_right(16)
                ^ TE0[(d & 0xff) as usize].rotate_right(24)
                ^ k
        }
        for round in 1..self.rounds {
            let k = &rk[4 * round..4 * round + 4];
            let t0 = round_word(s0, s1, s2, s3, k[0]);
            let t1 = round_word(s1, s2, s3, s0, k[1]);
            let t2 = round_word(s2, s3, s0, s1, k[2]);
            let t3 = round_word(s3, s0, s1, s2, k[3]);
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        #[inline(always)]
        fn final_word(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            (((SBOX[(a >> 24) as usize] as u32) << 24)
                | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(d & 0xff) as usize] as u32))
                ^ k
        }
        let k = &rk[4 * self.rounds..4 * self.rounds + 4];
        let o0 = final_word(s0, s1, s2, s3, k[0]);
        let o1 = final_word(s1, s2, s3, s0, k[1]);
        let o2 = final_word(s2, s3, s0, s1, k[2]);
        let o3 = final_word(s3, s0, s1, s2, k[3]);
        block[0..4].copy_from_slice(&o0.to_be_bytes());
        block[4..8].copy_from_slice(&o1.to_be_bytes());
        block[8..12].copy_from_slice(&o2.to_be_bytes());
        block[12..16].copy_from_slice(&o3.to_be_bytes());
    }

    /// Decrypts a single block in place.
    pub fn decrypt_block(&self, block: &mut Block) {
        let state = block;
        self.add_round_key(state, self.rounds);
        for round in (1..self.rounds).rev() {
            inv_shift_rows(state);
            inv_sub_bytes(state);
            self.add_round_key(state, round);
            inv_mix_columns(state);
        }
        inv_shift_rows(state);
        inv_sub_bytes(state);
        self.add_round_key(state, 0);
    }

    /// Encrypts a block, returning the ciphertext without mutating the
    /// input.
    #[must_use]
    pub fn encrypt(&self, block: &Block) -> Block {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: state[4*c + r] is row r, column c (column-major, as in
// FIPS-197's byte ordering of the input block).

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] =
            gf_mul(col[0], 0x0e) ^ gf_mul(col[1], 0x0b) ^ gf_mul(col[2], 0x0d) ^ gf_mul(col[3], 9);
        state[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 0x0e) ^ gf_mul(col[2], 0x0b) ^ gf_mul(col[3], 0x0d);
        state[4 * c + 2] =
            gf_mul(col[0], 0x0d) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 0x0e) ^ gf_mul(col[3], 0x0b);
        state[4 * c + 3] =
            gf_mul(col[0], 0x0b) ^ gf_mul(col[1], 0x0d) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_matches_fips197_corners() {
        // Known entries from the FIPS-197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..256 {
            assert_eq!(INV_SBOX[SBOX[i] as usize] as usize, i);
        }
    }

    /// FIPS-197 Appendix B / C.1: AES-128.
    #[test]
    fn aes128_fips197_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: Block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let plain = block;
        for (path, aes) in Aes::new_128(&key).paths() {
            aes.encrypt_block(&mut block);
            let expect: Block = [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32,
            ];
            assert_eq!(block, expect, "{path}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain, "{path}");
        }
    }

    /// FIPS-197 Appendix C.1: AES-128 with the 00..0f key.
    #[test]
    fn aes128_fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: Block = core::array::from_fn(|i| (i as u8) * 0x11);
        for (path, aes) in Aes::new_128(&key).paths() {
            let expect: Block = [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ];
            assert_eq!(aes.encrypt(&plain), expect, "{path}");
        }
    }

    /// FIPS-197 Appendix C.3: AES-256.
    #[test]
    fn aes256_fips197_appendix_c3() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let plain: Block = core::array::from_fn(|i| (i as u8) * 0x11);
        for (path, aes) in Aes::new_256(&key).paths() {
            let mut block = plain;
            aes.encrypt_block(&mut block);
            let expect: Block = [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89,
            ];
            assert_eq!(block, expect, "{path}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain, "{path}");
        }
    }

    #[test]
    fn round_counts() {
        assert_eq!(Aes::new_128(&[0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256(&[0; 32]).rounds(), 14);
    }

    #[test]
    fn gf_mul_known_products() {
        // From the FIPS-197 examples: {57} x {83} = {c1}.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    fn gf_inv_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }
}
