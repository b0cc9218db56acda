//! Cryptographic primitives for the Eleos reproduction, written here
//! from the specifications.
//!
//! The paper seals every page evicted from the SUVM page cache (EPC++)
//! with AES-GCM — "just like the `EWB` SGX instruction" (§3.2.3) — and
//! encrypts client requests with AES-CTR (§5). No crypto crates are
//! available offline, so this crate implements:
//!
//! - [`aes`]: AES-128 and AES-256 block ciphers (FIPS-197),
//! - [`ctr`]: CTR mode (NIST SP 800-38A),
//! - [`mod@derive`]: per-epoch session-key derivation (one-block AES MAC),
//! - [`ghash`]: the GHASH universal hash over GF(2^128),
//! - [`gcm`]: AES-GCM authenticated encryption (NIST SP 800-38D),
//! - [`sealer`]: the [`Sealer`] batch contract every cipher implements.
//!
//! All sealing goes through the [`Sealer`] trait: single-message
//! `seal`/`open` are batches of one (the ciphers here implement them
//! directly and allocate nothing), and the batch entry points
//! (`seal_batch`/`open_batch`) are what the SUVM write-back drain and
//! the server request pipeline use to amortize the per-key setup across
//! a scatter-gather batch.
//!
//! Functional behaviour is real — tampered ciphertexts genuinely fail
//! authentication, which the SUVM integrity tests rely on.
//!
//! # Which code runs
//!
//! Three primitives — block encrypt, the CTR keystream and the GHASH
//! block loop — have two implementations. On an x86-64 host whose CPU
//! reports AES-NI, PCLMULQDQ and SSSE3 they are the hardware kernels of
//! the private `hw` module (`aesenc` on the same key schedule, an
//! 8-block interleaved counter stream, carry-less multiplies over
//! precomputed powers of `H`); anywhere else they are the table code in
//! [`aes`] and [`ghash`], which is also the oracle the kernels are
//! tested against. The choice is made once per key, at construction,
//! from what the CPU reports; nothing selects it from outside, and the
//! two produce identical bytes, so sealed data is interchangeable.
//!
//! The *simulated* cost of sealing does not depend on which ran: the
//! simulator charges AES-NI-rate cycles from its cost model
//! (`eleos_sim::costs`), and callers bill them, never this crate. The
//! kernels only shorten the host time a run takes.
//!
//! # Examples
//!
//! ```
//! use eleos_crypto::gcm::AesGcm128;
//! use eleos_crypto::Sealer;
//!
//! let key = [7u8; 16];
//! let gcm = AesGcm128::new(&key);
//! let nonce = [1u8; 12];
//! let mut buf = b"secret page contents".to_vec();
//! let tag = gcm.seal(&nonce, b"page#42", &mut buf);
//! assert!(gcm.open(&nonce, b"page#42", &mut buf, &tag).is_ok());
//! assert_eq!(&buf, b"secret page contents");
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aes;
pub mod ctr;
pub mod derive;
pub mod gcm;
pub mod ghash;
#[allow(unsafe_code)]
mod hw;
pub mod sealer;

#[cfg(test)]
mod equivalence;

pub use derive::derive_key;
pub use sealer::{BatchAuthError, OpenJob, SealJob, Sealer};

/// Error returned when an authenticated decryption fails its tag check.
///
/// SUVM treats this as evidence of tampering with (or replay of) a page
/// in the untrusted backing store and refuses to page the data in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "authentication tag mismatch")
    }
}

impl std::error::Error for AuthError {}

/// Compares two byte slices in constant time (with respect to content).
///
/// Used for authentication-tag checks so that the comparison itself does
/// not leak how many leading tag bytes matched.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"xbc", b"abc"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abc", b""));
    }

    #[test]
    fn auth_error_displays() {
        assert_eq!(AuthError.to_string(), "authentication tag mismatch");
    }
}
