//! The batched sealing contract shared by the wire codec and SUVM.
//!
//! Both consumers of this crate seal *batches*: the SUVM swapper drains
//! a write-back queue of dirty pages, and the server reap path decrypts
//! a whole sorted batch of requests in one pass. Doing that well means
//! paying the per-operation setup — AES key schedule in registers,
//! GHASH table hot in L1 — once per batch instead of once per message.
//! [`Sealer`] is where that contract lives: [`Sealer::setup`] is the
//! amortization point, [`Sealer::seal_batch`] / [`Sealer::open_batch`]
//! are the scatter-gather entry points, and the single-message
//! [`Sealer::seal`] / [`Sealer::open`] are batches of one (the ciphers
//! of this crate implement them directly and loop over them in the
//! batch entry points, so one message allocates nothing).
//!
//! A batched seal is byte-for-byte identical to sealing each message
//! alone — every job carries its own nonce, AAD and tag. The win is
//! purely in the setup cost, which the simulator charges as the full
//! `crypto_fixed` for the first message of a batch and a quarter of it
//! for follow-ons (`CostModel::crypto_batched` in `eleos-sim`, the same
//! model SUVM bills each page, bypass cursor, write-through and
//! write-back drain by).

use crate::gcm::{Nonce, Tag, TAG_LEN};
use crate::AuthError;

/// One message of a scatter-gather seal batch.
///
/// `data` is encrypted in place; the tag (over `aad || ciphertext` for
/// authenticated sealers) is returned by [`Sealer::seal_batch`].
pub struct SealJob<'a> {
    /// Per-message nonce; a (key, nonce) pair must never repeat.
    pub nonce: Nonce,
    /// Additional authenticated data (ignored by unauthenticated
    /// sealers).
    pub aad: &'a [u8],
    /// Plaintext in, ciphertext out.
    pub data: &'a mut [u8],
}

/// One message of a scatter-gather open batch.
pub struct OpenJob<'a> {
    /// The nonce the message was sealed under.
    pub nonce: Nonce,
    /// Additional authenticated data (ignored by unauthenticated
    /// sealers).
    pub aad: &'a [u8],
    /// Ciphertext in, plaintext out.
    pub data: &'a mut [u8],
    /// The tag to verify (ignored by unauthenticated sealers).
    pub tag: Tag,
}

/// Authentication failure of one message within an open batch.
///
/// Jobs *before* `index` were verified and decrypted in place; the
/// failing job and everything after it are left as ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAuthError {
    /// Position of the first job that failed its tag check.
    pub index: usize,
}

impl core::fmt::Display for BatchAuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "authentication tag mismatch at batch index {}",
            self.index
        )
    }
}

impl std::error::Error for BatchAuthError {}

impl From<BatchAuthError> for AuthError {
    fn from(_: BatchAuthError) -> Self {
        AuthError
    }
}

/// A cipher that seals and opens scatter-gather batches under one
/// amortized setup.
pub trait Sealer: Send + Sync {
    /// Short label for stats and experiment output.
    fn name(&self) -> &'static str;

    /// The per-batch amortization point: (re-)establishes whatever
    /// per-key state sealing needs — key schedule, GHASH table.
    ///
    /// The implementations here precompute that state in their
    /// constructors, so this is a no-op *functionally*; it exists so
    /// the cost contract has a name. Batch entry points conceptually
    /// run `setup()` once and then stream messages, which is why the
    /// cost model bills the first message of a batch the full
    /// `crypto_fixed` and follow-ons a quarter of it.
    fn setup(&self) {}

    /// Seals every job in place and returns one tag per job.
    fn seal_batch(&self, jobs: &mut [SealJob<'_>]) -> Vec<Tag>;

    /// Verifies and decrypts every job in place, stopping at the first
    /// authentication failure.
    ///
    /// On `Err`, jobs before the failing index hold plaintext, the
    /// rest still hold ciphertext; callers must not use the failing
    /// job's buffer.
    fn open_batch(&self, jobs: &mut [OpenJob<'_>]) -> Result<(), BatchAuthError>;

    /// Seals a single message: a batch of one. An implementor that
    /// overrides this to spare the batch's `Vec` must return what a
    /// batch of one returns.
    fn seal(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> Tag {
        let mut jobs = [SealJob {
            nonce: *nonce,
            aad,
            data,
        }];
        self.seal_batch(&mut jobs)
            .pop()
            .expect("a batch of one yields one tag")
    }

    /// Verifies and decrypts a single message: a batch of one.
    ///
    /// On failure `data` is left as the (unauthenticated) ciphertext
    /// and [`AuthError`] is returned; callers must not use the buffer
    /// contents in that case.
    fn open(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8], tag: &Tag) -> Result<(), AuthError> {
        let mut jobs = [OpenJob {
            nonce: *nonce,
            aad,
            data,
            tag: *tag,
        }];
        self.open_batch(&mut jobs).map_err(AuthError::from)
    }
}

/// A tag of all zeroes, returned per job by unauthenticated sealers
/// (CTR mode has no tag; the wire protocol carries none).
pub const ZERO_TAG: Tag = [0u8; TAG_LEN];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::Ctr128;
    use crate::gcm::AesGcm128;

    #[test]
    fn batch_auth_error_reports_index() {
        let e = BatchAuthError { index: 3 };
        assert_eq!(
            e.to_string(),
            "authentication tag mismatch at batch index 3"
        );
        assert_eq!(AuthError::from(e), AuthError);
    }

    #[test]
    fn empty_batches_are_noops() {
        let gcm = AesGcm128::new(&[1u8; 16]);
        assert!(gcm.seal_batch(&mut []).is_empty());
        assert!(gcm.open_batch(&mut []).is_ok());
        let ctr = Ctr128::new(&[1u8; 16]);
        assert!(ctr.seal_batch(&mut []).is_empty());
        assert!(ctr.open_batch(&mut []).is_ok());
    }

    #[test]
    fn open_batch_stops_at_first_bad_tag() {
        let gcm = AesGcm128::new(&[7u8; 16]);
        let mut a = b"first".to_vec();
        let mut b = b"second".to_vec();
        let mut c = b"third".to_vec();
        let tags: Vec<Tag> = [(&mut a, 0u8), (&mut b, 1), (&mut c, 2)]
            .into_iter()
            .map(|(buf, i)| gcm.seal(&[i; 12], &[], buf))
            .collect();
        let sealed_c = c.clone();
        let mut jobs = [
            OpenJob {
                nonce: [0u8; 12],
                aad: &[],
                data: &mut a,
                tag: tags[0],
            },
            OpenJob {
                nonce: [1u8; 12],
                aad: &[],
                data: &mut b,
                tag: [0u8; 16], // corrupted
            },
            OpenJob {
                nonce: [2u8; 12],
                aad: &[],
                data: &mut c,
                tag: tags[2],
            },
        ];
        assert_eq!(gcm.open_batch(&mut jobs), Err(BatchAuthError { index: 1 }));
        assert_eq!(a, b"first", "job before the failure is plaintext");
        assert_eq!(c, sealed_c, "job after the failure stays ciphertext");
    }

    #[test]
    fn sealer_names() {
        assert_eq!(Sealer::name(&AesGcm128::new(&[0u8; 16])), "aes128-gcm");
        assert_eq!(Sealer::name(&Ctr128::new(&[0u8; 16])), "aes128-ctr");
    }
}
