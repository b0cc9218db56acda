//! Three implementations, one answer: the hardware kernels, the table
//! code and a bitwise reference (`gf128_mul`, one `encrypt` + `inc32`
//! per block) agree on every ciphertext byte and every tag, so sealed
//! data is interchangeable between hosts.
//!
//! Each cipher's `paths` lists the table path and, when the CPU has it,
//! the hardware path; on a host without it these tests still compare
//! the table code with the reference and the hardware cases drop out.

use crate::aes::{Aes, Block};
use crate::ctr::{ctr_xor, inc32, Ctr128};
use crate::gcm::{AesGcm128, AesGcm256, Nonce, Tag};
use crate::ghash::{gf128_mul, ghash, GhashKey};
use crate::Sealer;
use proptest::prelude::*;

/// A key of either size, carried as 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Key {
    bytes: [u8; 32],
    wide: bool,
}

impl Key {
    fn short(&self) -> [u8; 16] {
        self.bytes[..16].try_into().unwrap()
    }

    fn aes(&self) -> Aes {
        if self.wide {
            Aes::new_256(&self.bytes)
        } else {
            Aes::new_128(&self.short())
        }
    }

    fn sealers(&self) -> Vec<(&'static str, Box<dyn Sealer>)> {
        fn boxed<S: Sealer + 'static>(
            paths: Vec<(&'static str, S)>,
        ) -> Vec<(&'static str, Box<dyn Sealer>)> {
            let paths = paths.into_iter();
            paths.map(|(p, s)| (p, Box::new(s) as _)).collect()
        }
        if self.wide {
            boxed(AesGcm256::paths(&self.bytes))
        } else {
            boxed(AesGcm128::paths(&self.short()))
        }
    }
}

/// `aes` on the table path (listed first): what the references run on.
fn table(aes: Aes) -> Aes {
    aes.paths().swap_remove(0).1
}

fn keys() -> impl Strategy<Value = Key> {
    (prop::array::uniform32(any::<u8>()), any::<bool>())
        .prop_map(|(bytes, wide)| Key { bytes, wide })
}

/// Lengths 0 ..= 4 096 plus the tails either side of a block, a stride
/// and a sub-page.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=4096,
        Just(15),
        Just(17),
        Just(127),
        Just(129),
        Just(1023),
        Just(1025),
        Just(4096),
    ]
}

/// `len` bytes that differ per case without drawing each one.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// CTR by the book: one block encrypt and one `inc32` per block.
fn reference_ctr(aes: &Aes, counter: &Block, data: &mut [u8]) {
    let mut counter = *counter;
    for chunk in data.chunks_mut(16) {
        for (b, k) in chunk.iter_mut().zip(aes.encrypt(&counter)) {
            *b ^= k;
        }
        inc32(&mut counter);
    }
}

/// GHASH by the book: one bitwise field multiply per block.
fn reference_ghash(h: &Block, aad: &[u8], ct: &[u8]) -> Block {
    let h = u128::from_be_bytes(*h);
    let mut acc = 0u128;
    for part in [aad, ct] {
        for chunk in part.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = gf128_mul(acc ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf128_mul(acc ^ lengths, h).to_be_bytes()
}

/// GCM by the book, over the table block cipher.
fn reference_seal(aes: &Aes, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> Tag {
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;
    let mut first = j0;
    inc32(&mut first);
    reference_ctr(aes, &first, data);
    let mut tag = reference_ghash(&aes.encrypt(&[0u8; 16]), aad, data);
    for (t, k) in tag.iter_mut().zip(aes.encrypt(&j0)) {
        *t ^= k;
    }
    tag
}

proptest! {
    /// Ciphertext and tag: hardware == table == reference; what one
    /// path sealed the other opens; and a flipped ciphertext, AAD,
    /// nonce or tag bit is refused by every path with the buffer left
    /// as ciphertext.
    #[test]
    fn gcm_paths_agree_with_the_reference(
        key in keys(),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..41),
        len in lengths(),
        seed in any::<u64>(),
    ) {
        let plain = fill(seed, len);
        let mut sealed = plain.clone();
        let tag = reference_seal(&table(key.aes()), &nonce, &aad, &mut sealed);
        let flip = seed as usize;
        for (path, gcm) in key.sealers() {
            let mut buf = plain.clone();
            prop_assert_eq!(gcm.seal(&nonce, &aad, &mut buf), tag, "{} tag", path);
            prop_assert_eq!(&buf, &sealed, "{} ciphertext", path);

            // Every path opens the reference's bytes, so each opens the
            // other's.
            prop_assert!(gcm.open(&nonce, &aad, &mut buf, &tag).is_ok(), "{}", path);
            prop_assert_eq!(&buf, &plain, "{} plaintext", path);

            let mut bad_nonce = nonce;
            bad_nonce[flip % 12] ^= 1 << (flip % 8);
            let mut bad_tag = tag;
            bad_tag[flip % 16] ^= 1 << (flip % 8);
            let mut bad_aad = aad.clone();
            bad_aad.push(0);
            let mut bad_ct = sealed.clone();
            if let Some(byte) = bad_ct.get_mut(flip % len.max(1)) {
                *byte ^= 1 << (flip % 8);
            }
            let forgeries = [
                (&bad_nonce, &aad, &sealed, &tag),
                (&nonce, &aad, &sealed, &bad_tag),
                (&nonce, &bad_aad, &sealed, &tag),
                (&nonce, &aad, &bad_ct, &tag),
            ];
            for (i, (nonce, aad, ct, tag)) in forgeries.into_iter().enumerate() {
                if len == 0 && i == 3 {
                    continue; // no ciphertext bit to flip
                }
                let mut buf = ct.clone();
                prop_assert!(gcm.open(nonce, aad, &mut buf, tag).is_err(), "{} forgery {}", path, i);
                prop_assert_eq!(&buf, ct, "{} forgery {} left as ciphertext", path, i);
            }
        }
    }

    /// The wire cipher: every path's keystream is the reference's.
    #[test]
    fn ctr_paths_agree_with_the_reference(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        len in lengths(),
        seed in any::<u64>(),
    ) {
        let plain = fill(seed, len);
        let mut counter = [0u8; 16];
        counter[..12].copy_from_slice(&nonce);
        counter[15] = 1;
        let mut expect = plain.clone();
        reference_ctr(&table(Aes::new_128(&key)), &counter, &mut expect);
        for (path, ctr) in Ctr128::paths(&key) {
            let mut buf = plain.clone();
            ctr.apply(&nonce, &mut buf);
            prop_assert_eq!(&buf, &expect, "{}", path);
        }
    }

    /// One block: `aesenc` on the repacked schedule is the table cipher.
    #[test]
    fn block_encrypt_paths_agree(key in keys(), block in prop::array::uniform16(any::<u8>())) {
        let expect = table(key.aes()).encrypt(&block);
        for (path, aes) in key.aes().paths() {
            prop_assert_eq!(aes.encrypt(&block), expect, "{}", path);
        }
    }
}

/// The low 32 counter bits wrap inside one 8-block stride, and the 96
/// bits above them never see a carry.
#[test]
fn counter_wraps_inside_a_stride_like_inc32() {
    for high in [[0xffu8; 12], [0u8; 12], *b"eleos nonce!"] {
        let mut counter = [0u8; 16];
        counter[..12].copy_from_slice(&high);
        counter[12..].copy_from_slice(&0xffff_fffa_u32.to_be_bytes());
        // Two strides and a bit: the wrap is at block 6 of the first.
        let plain = fill(7, 16 * 19 + 5);
        for aes in [Aes::new_128(&[0x3c; 16]), Aes::new_256(&[0xc3; 32])] {
            let mut expect = plain.clone();
            reference_ctr(&table(aes.clone()), &counter, &mut expect);
            for (path, aes) in aes.paths() {
                let mut buf = plain.clone();
                ctr_xor(&aes, &counter, &mut buf);
                assert_eq!(buf, expect, "{path}, high bits {high:02x?}");
            }
        }
    }
}

/// A length that ends mid-stride *and* mid-block, for every such
/// block count around two strides.
#[test]
fn a_stream_may_end_mid_stride_and_mid_block() {
    let aes = Aes::new_128(&[0x5a; 16]);
    let counter = [9u8; 16];
    for blocks in 0..=17 {
        for tail in [0, 1, 15] {
            let plain = fill(blocks as u64 * 16 + tail as u64, blocks * 16 + tail);
            let mut expect = plain.clone();
            reference_ctr(&table(aes.clone()), &counter, &mut expect);
            for (path, aes) in aes.clone().paths() {
                let mut buf = plain.clone();
                ctr_xor(&aes, &counter, &mut buf);
                assert_eq!(buf, expect, "{path}: {blocks} blocks + {tail} bytes");
            }
        }
    }
}

/// GHASH either side of the aggregation width (8), with and without a
/// padded tail and AAD.
#[test]
fn ghash_block_counts_either_side_of_the_aggregation_width() {
    let h = [0x9du8; 16];
    for blocks in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 256] {
        for (tail, aad_len) in [(0, 0), (0, 20), (11, 0), (11, 40)] {
            let ct = fill(blocks as u64 + 1, blocks * 16 + tail);
            let aad = fill(aad_len as u64 + 3, aad_len);
            let expect = reference_ghash(&h, &aad, &ct);
            for (path, key) in GhashKey::paths(&h) {
                assert_eq!(
                    ghash(&key, &aad, &ct),
                    expect,
                    "{path}: {blocks} blocks + {tail} bytes, {aad_len} AAD bytes"
                );
            }
        }
    }
}

/// The table path is always listed; the hardware path exactly when the
/// public constructors select it.
#[test]
fn paths_list_what_the_constructors_select() {
    let selected = Aes::new_128(&[0; 16]).hw().is_some();
    let listed: Vec<_> = AesGcm128::paths(&[0; 16]).iter().map(|(p, _)| *p).collect();
    if selected {
        assert_eq!(listed, ["table", "hardware"]);
    } else {
        eprintln!("no AES-NI / PCLMULQDQ / SSSE3 on this host: hardware cases skipped");
        assert_eq!(listed, ["table"]);
    }
}
