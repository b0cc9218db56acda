//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! SUVM seals evicted pages with AES-GCM using a random per-page nonce
//! and a random per-application key kept in the EPC (§3.2.3). The nonce
//! and tag are stored in the in-enclave crypto-metadata page table, which
//! is what gives evicted pages privacy, integrity *and freshness*: an
//! attacker replaying an older sealed page presents a tag that no longer
//! matches the nonce recorded for the page.

use crate::aes::{Aes, Block};
use crate::ctr::{ctr_xor, inc32};
use crate::ghash::{Ghash, GhashKey};
use crate::sealer::{fresh_key_id, BatchAuthError, OpenJob, SealJob, Sealer};
use crate::{ct_eq, AuthError};

/// The GCM authentication tag length used throughout Eleos (full 128-bit
/// tags, like the SGX `EWB` metadata).
pub const TAG_LEN: usize = 16;
/// The GCM nonce length (96-bit fast path of SP 800-38D).
pub const NONCE_LEN: usize = 12;

/// An authentication tag.
pub type Tag = [u8; TAG_LEN];
/// A 96-bit GCM nonce.
pub type Nonce = [u8; NONCE_LEN];

/// AES-GCM with a 128-bit key.
pub struct AesGcm128 {
    aes: Aes,
    h: GhashKey,
    id: u64,
}

/// AES-GCM with a 256-bit key.
pub struct AesGcm256 {
    aes: Aes,
    h: GhashKey,
    id: u64,
}

fn j0(nonce: &Nonce) -> Block {
    let mut block = [0u8; 16];
    block[..NONCE_LEN].copy_from_slice(nonce);
    block[15] = 1;
    block
}

fn seal_impl(aes: &Aes, h: &GhashKey, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> Tag {
    let j0 = j0(nonce);
    let mut ctr = j0;
    inc32(&mut ctr);
    ctr_xor(aes, &ctr, data);
    let mut g = Ghash::new(h);
    g.update_padded(aad);
    g.update_padded(data);
    g.update_lengths(aad.len() as u64, data.len() as u64);
    let mut tag = g.finalize();
    let ek_j0 = aes.encrypt(&j0);
    for (t, k) in tag.iter_mut().zip(ek_j0.iter()) {
        *t ^= k;
    }
    tag
}

fn open_impl(
    aes: &Aes,
    h: &GhashKey,
    nonce: &Nonce,
    aad: &[u8],
    data: &mut [u8],
    tag: &Tag,
) -> Result<(), AuthError> {
    let j0 = j0(nonce);
    let mut g = Ghash::new(h);
    g.update_padded(aad);
    g.update_padded(data);
    g.update_lengths(aad.len() as u64, data.len() as u64);
    let mut expect = g.finalize();
    let ek_j0 = aes.encrypt(&j0);
    for (t, k) in expect.iter_mut().zip(ek_j0.iter()) {
        *t ^= k;
    }
    if !ct_eq(&expect, tag) {
        return Err(AuthError);
    }
    let mut ctr = j0;
    inc32(&mut ctr);
    ctr_xor(aes, &ctr, data);
    Ok(())
}

macro_rules! impl_gcm {
    ($name:ident, $ctor:ident, $keylen:expr, $label:expr) => {
        impl $name {
            /// Creates a GCM instance, precomputing the AES key
            /// schedule and the GHASH key — powers of `H` or the
            /// 64 KiB table, by the path the host runs (the state a
            /// batch [`Sealer::setup`] amortizes).
            #[must_use]
            pub fn new(key: &[u8; $keylen]) -> Self {
                let aes = Aes::$ctor(key);
                let h = GhashKey::new(&aes.encrypt(&[0u8; 16]));
                Self {
                    aes,
                    h,
                    id: fresh_key_id(),
                }
            }

            /// This key on every path the host can run: the block
            /// cipher's and the hash key's lists pair up (see
            /// [`Aes::paths`]).
            #[cfg(test)]
            pub(crate) fn paths(key: &[u8; $keylen]) -> Vec<(&'static str, Self)> {
                let aes = Aes::$ctor(key).paths();
                let h = GhashKey::paths(&aes[0].1.encrypt(&[0u8; 16]));
                assert_eq!(aes.len(), h.len(), "one detection decides both");
                let paths = aes.into_iter().zip(h);
                paths
                    .map(|((path, aes), (_, h))| {
                        let id = fresh_key_id();
                        (path, Self { aes, h, id })
                    })
                    .collect()
            }
        }

        impl Sealer for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn key_id(&self) -> u64 {
                self.id
            }

            fn seal_batch(&self, jobs: &mut [SealJob<'_>]) -> Vec<Tag> {
                self.setup();
                jobs.iter_mut()
                    .map(|j| self.seal(&j.nonce, j.aad, j.data))
                    .collect()
            }

            fn open_batch(&self, jobs: &mut [OpenJob<'_>]) -> Result<(), BatchAuthError> {
                self.setup();
                for (index, j) in jobs.iter_mut().enumerate() {
                    self.open(&j.nonce, j.aad, j.data, &j.tag)
                        .map_err(|AuthError| BatchAuthError { index })?;
                }
                Ok(())
            }

            fn seal(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> Tag {
                seal_impl(&self.aes, &self.h, nonce, aad, data)
            }

            fn open(
                &self,
                nonce: &Nonce,
                aad: &[u8],
                data: &mut [u8],
                tag: &Tag,
            ) -> Result<(), AuthError> {
                open_impl(&self.aes, &self.h, nonce, aad, data, tag)
            }
        }
    };
}

impl_gcm!(AesGcm128, new_128, 16, "aes128-gcm");
impl_gcm!(AesGcm256, new_256, 32, "aes256-gcm");

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// GCM spec test case 1: empty everything, zero key/IV.
    #[test]
    fn gcm_test_case_1() {
        for (path, gcm) in AesGcm128::paths(&[0u8; 16]) {
            let mut data = [0u8; 0];
            let tag = gcm.seal(&[0u8; 12], &[], &mut data);
            assert_eq!(
                tag.to_vec(),
                hex("58e2fccefa7e3061367f1d57a4e7455a"),
                "{path}"
            );
        }
    }

    /// GCM spec test case 2: one zero block of plaintext.
    #[test]
    fn gcm_test_case_2() {
        for (path, gcm) in AesGcm128::paths(&[0u8; 16]) {
            let mut data = [0u8; 16];
            let tag = gcm.seal(&[0u8; 12], &[], &mut data);
            assert_eq!(
                data.to_vec(),
                hex("0388dace60b6a392f328c2b971b2fe78"),
                "{path}"
            );
            assert_eq!(
                tag.to_vec(),
                hex("ab6e47d42cec13bdf53a67b21257bddf"),
                "{path}"
            );
        }
    }

    /// GCM spec test case 3: 4 blocks of plaintext, no AAD.
    #[test]
    fn gcm_test_case_3() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: Nonce = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let plain = hex("d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b391aafd255");
        for (path, gcm) in AesGcm128::paths(&key) {
            let mut data = plain.clone();
            let tag = gcm.seal(&nonce, &[], &mut data);
            assert_eq!(
                data,
                hex("42831ec2217774244b7221b784d0d49c\
                     e3aa212f2c02a4e035c17e2329aca12e\
                     21d514b25466931c7d8f6a5aac84aa05\
                     1ba30b396a0aac973d58e091473f5985"),
                "{path}"
            );
            assert_eq!(
                tag.to_vec(),
                hex("4d5c2af327cd64a62cf35abd2ba6fab4"),
                "{path}"
            );
        }
    }

    /// GCM spec test case 4: AAD and a truncated final block.
    #[test]
    fn gcm_test_case_4() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: Nonce = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let plain = hex("d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b39");
        for (path, gcm) in AesGcm128::paths(&key) {
            let mut data = plain.clone();
            let tag = gcm.seal(&nonce, &aad, &mut data);
            assert_eq!(
                data,
                hex("42831ec2217774244b7221b784d0d49c\
                     e3aa212f2c02a4e035c17e2329aca12e\
                     21d514b25466931c7d8f6a5aac84aa05\
                     1ba30b396a0aac973d58e091"),
                "{path}"
            );
            assert_eq!(
                tag.to_vec(),
                hex("5bc94fbc3221a5db94fae95ae7121a47"),
                "{path}"
            );
        }
    }

    #[test]
    fn roundtrip_and_tamper_detection() {
        let gcm = AesGcm128::new(&[0x55u8; 16]);
        let nonce = [0xaau8; 12];
        let aad = b"page 7";
        let plain: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut buf = plain.clone();
        let tag = gcm.seal(&nonce, aad, &mut buf);
        assert_ne!(buf, plain);

        // Flipping one ciphertext bit must fail authentication.
        let mut tampered = buf.clone();
        tampered[100] ^= 1;
        assert_eq!(gcm.open(&nonce, aad, &mut tampered, &tag), Err(AuthError));

        // Wrong AAD must fail.
        let mut wrong_aad = buf.clone();
        assert_eq!(
            gcm.open(&nonce, b"page 8", &mut wrong_aad, &tag),
            Err(AuthError)
        );

        // Wrong nonce must fail (freshness: a replayed old page carries a
        // tag for a different recorded nonce).
        let mut wrong_nonce = buf.clone();
        assert_eq!(
            gcm.open(&[0xabu8; 12], aad, &mut wrong_nonce, &tag),
            Err(AuthError)
        );

        // The genuine triple decrypts back to the plaintext.
        gcm.open(&nonce, aad, &mut buf, &tag).unwrap();
        assert_eq!(buf, plain);
    }

    #[test]
    fn gcm256_roundtrip() {
        let gcm = AesGcm256::new(&[0x11u8; 32]);
        let nonce = [1u8; 12];
        let mut buf = b"sub-page granular sealed data".to_vec();
        let tag = gcm.seal(&nonce, &[], &mut buf);
        gcm.open(&nonce, &[], &mut buf, &tag).unwrap();
        assert_eq!(buf, b"sub-page granular sealed data");
    }

    #[test]
    fn empty_plaintext_with_aad() {
        let gcm = AesGcm128::new(&[3u8; 16]);
        let nonce = [4u8; 12];
        let mut empty = [0u8; 0];
        let tag = gcm.seal(&nonce, b"header only", &mut empty);
        assert!(gcm.open(&nonce, b"header only", &mut empty, &tag).is_ok());
        assert!(gcm.open(&nonce, b"header onlx", &mut empty, &tag).is_err());
    }
}
