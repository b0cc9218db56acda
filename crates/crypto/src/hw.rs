//! Hardware kernels: AES-NI block encrypt, an 8-block interleaved
//! AES-CTR stream and CLMUL GHASH, for hosts that have them.
//!
//! This is the only module of the workspace that contains `unsafe`
//! (`scripts/ci.sh` enforces it). Every intrinsic lives here; the rest
//! of the crate sees two types, [`AesKeys`] and [`GhashPowers`], whose
//! constructors return `None` unless the running CPU reports AES-NI,
//! PCLMULQDQ and SSSE3. A value of either type is therefore the proof
//! that the `#[target_feature]` functions behind its (safe) methods may
//! be called: the fields are private and nothing else constructs one.
//! On a target other than x86-64 both types are uninhabited, so the
//! arms that take one are statically dead and the table code in
//! [`crate::aes`] / [`crate::ghash`] is the only path.
//!
//! Which path ran is invisible to the simulation: it changes host time
//! only, never a byte of output or a charged cycle.

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use portable_only::{AesKeys, GhashPowers};
#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{AesKeys, GhashPowers};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::aes::Block;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128,
        _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_set_epi8, _mm_setzero_si128,
        _mm_shuffle_epi8, _mm_slli_epi64, _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Blocks per interleaved CTR stride and per aggregated GHASH
    /// reduction.
    const STRIDE: usize = 8;

    /// True when the CPU has every instruction the kernels use. The
    /// macro caches its answer, so asking per key costs one load.
    fn detected() -> bool {
        is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
    }

    #[inline(always)]
    fn load(block: &Block) -> __m128i {
        // SAFETY: `block` is a reference to exactly 16 readable bytes,
        // `loadu` has no alignment requirement, and SSE2 is part of the
        // x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(block: &mut Block, v: __m128i) {
        // SAFETY: `block` is an exclusive reference to exactly 16
        // writable bytes, `storeu` has no alignment requirement, and
        // SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
    }

    /// The shuffle mask that reverses the 16 bytes of a register: a
    /// block read this way holds, as a little-endian integer, the
    /// `u128::from_be_bytes` value the table code works with.
    #[target_feature(enable = "sse2")]
    fn byte_reverse_mask() -> __m128i {
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
    }

    /// An AES key schedule in the layout `aesenc` consumes.
    #[derive(Clone)]
    pub(crate) struct AesKeys {
        /// Round keys `0..=rounds`; the rest is unused.
        rk: [__m128i; 15],
        rounds: usize,
    }

    impl AesKeys {
        /// Repacks an expanded key schedule (big-endian column words,
        /// `4 * (rounds + 1)` of them) for the hardware path, or
        /// returns `None` when the CPU lacks it.
        pub(crate) fn new(round_keys: &[u32]) -> Option<Self> {
            if !detected() {
                return None;
            }
            let rounds = round_keys.len() / 4 - 1;
            let rk = core::array::from_fn(|round| {
                let mut bytes = [0u8; 16];
                let words = round_keys.iter().skip(4 * round);
                for (b, w) in bytes.chunks_exact_mut(4).zip(words) {
                    b.copy_from_slice(&w.to_be_bytes());
                }
                load(&bytes)
            });
            Some(Self { rk, rounds })
        }

        /// Encrypts one block in place.
        pub(crate) fn encrypt_block(&self, block: &mut Block) {
            // SAFETY: `self` exists only because `AesKeys::new` saw
            // `is_x86_feature_detected!("aes")` return true.
            let out = unsafe { encrypt1(self, load(block)) };
            store(block, out);
        }

        /// XORs the AES-CTR keystream starting at `counter` into
        /// `data`; the low 32 bits of the counter wrap as `inc32` does.
        pub(crate) fn ctr_xor(&self, counter: &Block, data: &mut [u8]) {
            // SAFETY: `self` exists only because `AesKeys::new` saw
            // `is_x86_feature_detected!` return true for both "aes"
            // and "ssse3".
            unsafe { ctr_xor(self, counter, data) }
        }
    }

    #[target_feature(enable = "aes")]
    fn encrypt1(keys: &AesKeys, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, keys.rk[0]);
        for k in &keys.rk[1..keys.rounds] {
            s = _mm_aesenc_si128(s, *k);
        }
        _mm_aesenclast_si128(s, keys.rk[keys.rounds])
    }

    #[target_feature(enable = "aes,ssse3")]
    fn ctr_xor(keys: &AesKeys, counter: &Block, data: &mut [u8]) {
        let swap = byte_reverse_mask();
        let one = _mm_set_epi32(0, 0, 0, 1);
        // Byte-reversed, the counter's big-endian low word is the low
        // 32-bit lane: a lane add increments it and carries nowhere.
        let mut ctr = _mm_shuffle_epi8(load(counter), swap);
        let (blocks, tail) = data.as_chunks_mut::<16>();
        let mut strides = blocks.chunks_exact_mut(STRIDE);
        for stride in &mut strides {
            let mut ks = [_mm_setzero_si128(); STRIDE];
            for k in &mut ks {
                *k = _mm_xor_si128(_mm_shuffle_epi8(ctr, swap), keys.rk[0]);
                ctr = _mm_add_epi32(ctr, one);
            }
            for rk in &keys.rk[1..keys.rounds] {
                for k in &mut ks {
                    *k = _mm_aesenc_si128(*k, *rk);
                }
            }
            for (k, block) in ks.iter().zip(stride) {
                let k = _mm_aesenclast_si128(*k, keys.rk[keys.rounds]);
                store(block, _mm_xor_si128(load(block), k));
            }
        }
        for block in strides.into_remainder() {
            let k = encrypt1(keys, _mm_shuffle_epi8(ctr, swap));
            ctr = _mm_add_epi32(ctr, one);
            store(block, _mm_xor_si128(load(block), k));
        }
        if !tail.is_empty() {
            let mut ks = [0u8; 16];
            store(&mut ks, encrypt1(keys, _mm_shuffle_epi8(ctr, swap)));
            for (b, k) in tail.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    /// `H^1 ..= H^8` for one hash subkey, byte-reversed: the state the
    /// cost model's `crypto_fixed` calls "the GHASH table".
    #[derive(Clone)]
    pub(crate) struct GhashPowers {
        /// `h[i]` is `H^(i+1)`.
        h: [__m128i; STRIDE],
    }

    impl GhashPowers {
        /// Precomputes the powers of subkey `h`, or returns `None`
        /// when the CPU lacks the hardware path.
        pub(crate) fn new(h: &Block) -> Option<Self> {
            if !detected() {
                return None;
            }
            // SAFETY: `detected()` just saw
            // `is_x86_feature_detected!` return true for both
            // "pclmulqdq" and "ssse3".
            Some(unsafe { powers(h) })
        }

        /// Absorbs whole 16-byte blocks into the running hash `acc`:
        /// `acc = (acc ^ block) · H` for each, in GCM's bit order.
        pub(crate) fn absorb(&self, acc: u128, blocks: &[Block]) -> u128 {
            // SAFETY: `self` exists only because `GhashPowers::new` saw
            // `is_x86_feature_detected!` return true for both
            // "pclmulqdq" and "ssse3".
            unsafe { absorb(self, acc, blocks) }
        }
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn powers(h: &Block) -> GhashPowers {
        let h1 = _mm_shuffle_epi8(load(h), byte_reverse_mask());
        let mut p = GhashPowers { h: [h1; STRIDE] };
        for i in 1..STRIDE {
            let (lo, hi) = clmul_wide(p.h[i - 1], h1);
            p.h[i] = reduce(lo, hi);
        }
        p
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(key: &GhashPowers, acc: u128, blocks: &[Block]) -> u128 {
        let swap = byte_reverse_mask();
        let mut y = load(&acc.to_le_bytes());
        // One reduction per group of up to eight blocks:
        // (y ^ x1)·H^n ^ x2·H^(n-1) ^ … ^ xn·H.
        for group in blocks.chunks(STRIDE) {
            let mut lo = _mm_setzero_si128();
            let mut hi = _mm_setzero_si128();
            for (block, h) in group.iter().zip(key.h[..group.len()].iter().rev()) {
                let x = _mm_xor_si128(_mm_shuffle_epi8(load(block), swap), y);
                y = _mm_setzero_si128();
                let (l, h) = clmul_wide(x, *h);
                lo = _mm_xor_si128(lo, l);
                hi = _mm_xor_si128(hi, h);
            }
            y = reduce(lo, hi);
        }
        let mut out = [0u8; 16];
        store(&mut out, y);
        u128::from_le_bytes(out)
    }

    /// The 255-bit carry-less product of two 128-bit values, as
    /// `(low, high)` halves.
    #[target_feature(enable = "pclmulqdq")]
    fn clmul_wide(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
        let lo = _mm_clmulepi64_si128(a, b, 0x00);
        let hi = _mm_clmulepi64_si128(a, b, 0x11);
        let mid = _mm_xor_si128(
            _mm_clmulepi64_si128(a, b, 0x10),
            _mm_clmulepi64_si128(a, b, 0x01),
        );
        (
            _mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
            _mm_xor_si128(hi, _mm_srli_si128(mid, 8)),
        )
    }

    /// Reduces a (sum of) carry-less product(s) of byte-reversed GCM
    /// values to the byte-reversed GCM product.
    ///
    /// GCM numbers bits from the other end, so the carry-less product
    /// of two byte-reversed operands is the wanted 256-bit value
    /// shifted right by one; after the shift the *low* half holds the
    /// terms x^128 … x^255, folded into the high half with
    /// x^128 = 1 + x + x^2 + x^7 (a multiplication by x being a right
    /// shift in this order).
    #[target_feature(enable = "sse2")]
    fn reduce(lo: __m128i, hi: __m128i) -> __m128i {
        // 256-bit left shift by one across four 64-bit lanes.
        let carry_lo = _mm_srli_epi64(lo, 63);
        let carry_hi = _mm_srli_epi64(hi, 63);
        let lo = _mm_or_si128(_mm_slli_epi64(lo, 1), _mm_slli_si128(carry_lo, 8));
        let hi = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi64(hi, 1), _mm_slli_si128(carry_hi, 8)),
            _mm_srli_si128(carry_lo, 8),
        );
        // `t`: the bits of `lo` that the three right shifts below push
        // across a 64-bit lane boundary (low lane: out of the bottom,
        // to be folded once more; high lane: into the low lane).
        let t = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi64(lo, 63), _mm_slli_epi64(lo, 62)),
            _mm_slli_epi64(lo, 57),
        );
        let x = _mm_xor_si128(lo, _mm_slli_si128(t, 8));
        let folded = _mm_xor_si128(
            _mm_xor_si128(x, _mm_srli_epi64(x, 1)),
            _mm_xor_si128(_mm_srli_epi64(x, 2), _mm_srli_epi64(x, 7)),
        );
        _mm_xor_si128(_mm_xor_si128(hi, folded), _mm_srli_si128(t, 8))
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod portable_only {
    use crate::aes::Block;

    /// Uninhabited: this target has no hardware path.
    #[derive(Clone)]
    pub(crate) enum AesKeys {}

    impl AesKeys {
        pub(crate) fn new(_round_keys: &[u32]) -> Option<Self> {
            None
        }

        pub(crate) fn encrypt_block(&self, _block: &mut Block) {
            match *self {}
        }

        pub(crate) fn ctr_xor(&self, _counter: &Block, _data: &mut [u8]) {
            match *self {}
        }
    }

    /// Uninhabited: this target has no hardware path.
    #[derive(Clone)]
    pub(crate) enum GhashPowers {}

    impl GhashPowers {
        pub(crate) fn new(_h: &Block) -> Option<Self> {
            None
        }

        pub(crate) fn absorb(&self, _acc: u128, _blocks: &[Block]) -> u128 {
            match *self {}
        }
    }
}
