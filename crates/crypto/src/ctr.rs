//! CTR-mode encryption (NIST SP 800-38A).
//!
//! Eleos encrypts client requests/responses with AES in CTR mode using a
//! randomized 128-bit key (§5). CTR is also the keystream generator
//! inside [`crate::gcm`].

use crate::aes::{Aes, Block, BLOCK_SIZE};
use crate::gcm::{Nonce, Tag};
use crate::sealer::{fresh_key_id, BatchAuthError, OpenJob, SealJob, Sealer, ZERO_TAG};
use crate::AuthError;

/// Applies the AES-CTR keystream to `data` in place.
///
/// `counter_block` is the initial 128-bit counter; the low 32 bits are
/// incremented (big-endian, wrapping) per block, matching the GCM
/// `inc32` convention so this routine is reusable by GCM.
///
/// CTR is an involution: applying it twice with the same parameters
/// restores the plaintext.
pub fn ctr_xor(aes: &Aes, counter_block: &Block, data: &mut [u8]) {
    if let Some(hw) = aes.hw() {
        return hw.ctr_xor(counter_block, data);
    }
    let mut counter = *counter_block;
    for chunk in data.chunks_mut(BLOCK_SIZE) {
        let keystream = aes.encrypt(&counter);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
        inc32(&mut counter);
    }
}

/// Increments the last 32 bits of a counter block (big-endian, wrapping).
pub fn inc32(block: &mut Block) {
    let mut ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

/// A convenience stateless CTR cipher bound to one key.
///
/// The nonce is spread over the first 12 bytes of the counter block and
/// the remaining 4 bytes count blocks, so a (key, nonce) pair must not
/// be reused for different messages — the Eleos runtime derives a fresh
/// random nonce per request and per evicted page.
#[derive(Clone)]
pub struct Ctr128 {
    aes: Aes,
    id: u64,
}

impl Ctr128 {
    /// Creates a CTR cipher from a 128-bit key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self {
            aes: Aes::new_128(key),
            id: fresh_key_id(),
        }
    }

    /// This key on every path the host can run (see [`Aes::paths`]).
    #[cfg(test)]
    pub(crate) fn paths(key: &[u8; 16]) -> Vec<(&'static str, Self)> {
        let paths = Aes::new_128(key).paths().into_iter();
        paths
            .map(|(path, aes)| {
                let id = fresh_key_id();
                (path, Self { aes, id })
            })
            .collect()
    }

    /// Encrypts or decrypts `data` in place under `nonce`.
    pub fn apply(&self, nonce: &[u8; 12], data: &mut [u8]) {
        let mut counter = [0u8; BLOCK_SIZE];
        counter[..12].copy_from_slice(nonce);
        counter[15] = 1;
        ctr_xor(&self.aes, &counter, data);
    }
}

/// The *unauthenticated* sealer behind the §5 wire protocol: CTR has
/// no tag, so `seal_batch` returns [`ZERO_TAG`]s, `open_batch` never
/// fails, and `aad` is ignored. Callers that need integrity must use a
/// GCM sealer instead.
impl Sealer for Ctr128 {
    fn name(&self) -> &'static str {
        "aes128-ctr"
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
        for j in jobs.iter_mut() {
            self.apply(&j.nonce, j.data);
        }
        Ok(())
    }

    fn seal(&self, nonce: &Nonce, _aad: &[u8], data: &mut [u8]) -> Tag {
        self.apply(nonce, data);
        ZERO_TAG
    }

    /// CTR is an involution: the same keystream pass decrypts.
    fn open(
        &self,
        nonce: &Nonce,
        _aad: &[u8],
        data: &mut [u8],
        _tag: &Tag,
    ) -> Result<(), AuthError> {
        self.apply(nonce, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST SP 800-38A F.5.1: CTR-AES128.Encrypt.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let counter: Block = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let plain: Vec<u8> = vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, // block 1
            0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
            0x8e, 0x51, // block 2
        ];
        for (path, aes) in Aes::new_128(&key).paths() {
            let mut data = plain.clone();
            ctr_xor(&aes, &counter, &mut data);
            let expect: Vec<u8> = vec![
                0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
                0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b,
                0xb9, 0xff, 0xfd, 0xff,
            ];
            assert_eq!(data, expect, "{path}");
        }
    }

    #[test]
    fn ctr_is_an_involution() {
        let c = Ctr128::new(&[9u8; 16]);
        let nonce = [3u8; 12];
        let mut data = (0..100u8).collect::<Vec<_>>();
        let orig = data.clone();
        c.apply(&nonce, &mut data);
        assert_ne!(data, orig);
        c.apply(&nonce, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let c = Ctr128::new(&[9u8; 16]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        c.apply(&[1u8; 12], &mut a);
        c.apply(&[2u8; 12], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn inc32_wraps_only_low_word() {
        let mut block = [0xffu8; 16];
        inc32(&mut block);
        assert_eq!(&block[..12], &[0xff; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn partial_block_tail() {
        let c = Ctr128::new(&[1u8; 16]);
        let nonce = [0u8; 12];
        let mut data = vec![0xa5u8; 17];
        let orig = data.clone();
        c.apply(&nonce, &mut data);
        c.apply(&nonce, &mut data);
        assert_eq!(data, orig);
    }
}
