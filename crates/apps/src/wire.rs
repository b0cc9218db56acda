//! Wire sessions: attestation handshake, epoch key rotation, and
//! on-the-wire request encryption (paper §5).
//!
//! All three evaluation servers "decrypt/encrypt each request/response
//! from within the enclave using AES-NI hardware acceleration in CTR
//! mode with a randomized 128-bit key". The wire format is
//! `nonce (12) || ciphertext`; the CTR pass is performed for real (the
//! tests check confidentiality end to end) and its cycle cost is
//! charged at AES-NI rates through the cost model.
//!
//! # Session lifecycle
//!
//! A [`Session`] replaces the old static-key `Wire` and walks an
//! explicit state machine:
//!
//! ```text
//! Handshake --verify(evidence)--> Established(epoch)
//!      Established(e) --begin_rekey--> Rekeying{from: e, to: e+1}
//!      Rekeying --old epoch drained--> Established(e+1)
//!      any state --revoke--> Revoked (terminal)
//! ```
//!
//! - **Handshake**: the enclave produces attestation *evidence* — an
//!   `EREPORT`-style report, modeled as an AES-GCM MAC under the
//!   session master key over the enclave identity and a fresh session
//!   nonce — and the client verifies it ([`Session::verify`]) before
//!   sending any data message. Replayed nonces and evidence over the
//!   wrong identity are rejected (`auth_failures`).
//! - **Rotation**: traffic keys are *derived per epoch* from the
//!   master through the sealer seam ([`eleos_crypto::derive_key`]),
//!   and rotation is double-buffered: [`Session::begin_rekey`] makes
//!   epoch `e+1` current while keeping epoch `e` in the buffer, so
//!   in-flight reaps sealed under the old epoch keep draining while
//!   new arrivals seal under the new one — no serving-path stall. The
//!   open path retires the label once a reap contains no old-epoch
//!   messages; the old *key* dies only when the next rotation
//!   overwrites its buffer slot.
//! - **Revocation**: [`Session::revoke`] is terminal — every queued or
//!   future message on the session is dropped and counted, never
//!   served.
//!
//! Each message's epoch tag rides in the nonce prefix (bytes 8..12,
//! little-endian), so the wire format and message sizes are unchanged
//! and epoch 0 frames exactly like the pre-session codec.
//!
//! # One seal path, one open path
//!
//! The serving path works in *batches*:
//! [`Session::decrypt_batch_in_enclave`] opens a whole sorted reap in
//! one pass under one snapshot of the session's state and keys, and
//! [`Session::encrypt_batch_in_enclave`] seals a send's responses in
//! one [`Sealer::seal_batch`] pass per group the send streams (one
//! group for a send under 8 KiB). The cipher setup is charged once per
//! batch under the current epoch's key — the leader pays the full
//! `crypto_fixed`, follow-ons a quarter (`CostModel::crypto_batched`,
//! the same contract the SUVM write-back drain uses), and a serve round
//! is one batch from its reap to its send
//! (`docs/crypto-pipeline.md`) — which is where the batched crypto
//! pipeline's cycles/op win comes from on a single serving core. The client-side [`Session::encrypt`]/
//! [`Session::decrypt`] helpers are uncharged batches of one over the
//! same two paths; there are no other entry points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use eleos_crypto::ctr::Ctr128;
use eleos_crypto::gcm::{AesGcm128, Tag};
use eleos_crypto::{ct_eq, derive_key, AuthError, BatchAuthError, OpenJob, SealJob, Sealer};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

/// Length of the nonce prefix on every message.
pub const NONCE_LEN: usize = 12;

/// Byte offset of the little-endian epoch tag inside the nonce.
pub const EPOCH_OFFSET: usize = 8;

/// Domain-separation label for wire traffic keys under the master.
const WIRE_LABEL: &[u8; 4] = b"wire";

/// Where a [`Session`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Keys exist but no data may flow until the attestation evidence
    /// verifies.
    Handshake,
    /// Serving normally under the given key epoch.
    Established(u32),
    /// A rotation is in flight: new arrivals seal under `to`, reaps
    /// sealed under `from` are still draining.
    Rekeying {
        /// The epoch being retired.
        from: u32,
        /// The epoch now current.
        to: u32,
    },
    /// Terminal: every message is dropped, the shard slot is dead.
    Revoked,
}

/// A wire session shared by the load generator ("clients") and the
/// server: master key, attested identity, lifecycle state, and the
/// double-buffered epoch traffic keys.
pub struct Session {
    master: [u8; 16],
    identity: [u8; 16],
    state: Mutex<SessionState>,
    /// Double-buffered epoch keys, `[current, previous]`. Opens accept
    /// either epoch; seals always use the current one. Shared, so an
    /// [`OpenGate`] holds them without copying a key schedule.
    keys: RwLock<[(u32, Arc<Ctr128>); 2]>,
    counter: AtomicU64,
    /// Highest handshake nonce ever accepted (replay floor).
    last_nonce: AtomicU64,
}

impl Session {
    fn with_state(master: [u8; 16], identity: [u8; 16], state: SessionState) -> Self {
        let k0 = Arc::new(Ctr128::new(&derive_key(&master, WIRE_LABEL, 0)));
        Self {
            master,
            identity,
            state: Mutex::new(state),
            keys: RwLock::new([(0, k0.clone()), (0, k0)]),
            counter: AtomicU64::new(1),
            last_nonce: AtomicU64::new(0),
        }
    }

    /// Creates a session awaiting its attestation handshake: the
    /// serving enclave's `identity` must be proven to the client
    /// ([`Session::evidence`]/[`Session::verify`]) before any data
    /// message flows.
    #[must_use]
    pub fn handshake(master: [u8; 16], identity: [u8; 16]) -> Self {
        Self::with_state(master, identity, SessionState::Handshake)
    }

    /// Creates a pre-shared session, already established at epoch 0 —
    /// the shortcut for tests and closed-world benches where the
    /// handshake is out of scope.
    #[must_use]
    pub fn established(master: [u8; 16]) -> Self {
        Self::with_state(master, [0u8; 16], SessionState::Established(0))
    }

    /// The enclave identity this session attests.
    #[must_use]
    pub fn identity(&self) -> [u8; 16] {
        self.identity
    }

    /// The current lifecycle state.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn state(&self) -> SessionState {
        *self.state.lock().expect("session state poisoned")
    }

    /// The current (sealing) key epoch.
    ///
    /// # Panics
    /// Panics if the key lock is poisoned.
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.keys.read().expect("session keys poisoned")[0].0
    }

    /// A fresh handshake nonce: one past the highest ever accepted, so
    /// an honest handshake always clears the replay floor.
    #[must_use]
    pub fn fresh_nonce(&self) -> u64 {
        self.last_nonce.load(Ordering::Relaxed) + 1
    }

    /// The attestation report over `(identity, nonce)`: an AES-GCM MAC
    /// under the master key, standing in for the `EREPORT` MAC a real
    /// enclave would produce. Charges the handshake cost to `ctx` (the
    /// enclave side pays it, once per session — never per request).
    #[must_use]
    pub fn evidence(&self, ctx: &mut ThreadCtx, nonce: u64) -> [u8; 16] {
        ctx.compute(ctx.machine.cfg.costs.session_handshake);
        Self::report_mac(&self.master, &self.identity, nonce)
    }

    fn report_mac(master: &[u8; 16], identity: &[u8; 16], nonce: u64) -> Tag {
        let gcm = AesGcm128::new(master);
        let mut n = [0u8; NONCE_LEN];
        n[..8].copy_from_slice(&nonce.to_le_bytes());
        gcm.seal(&n, identity, &mut [])
    }

    /// Client side of the handshake: checks `report` is a fresh MAC
    /// over the `identity` the client expects, in constant time.
    /// Success establishes the session at epoch 0 and raises the
    /// replay floor; any failure — stale nonce or wrong identity — is
    /// counted as an auth failure and leaves the session unusable.
    ///
    /// # Errors
    /// [`AuthError`] when the nonce does not clear the replay floor or
    /// the report does not match the expected identity.
    pub fn verify(
        &self,
        ctx: &mut ThreadCtx,
        identity: &[u8; 16],
        nonce: u64,
        report: &[u8; 16],
    ) -> Result<(), AuthError> {
        let expected = Self::report_mac(&self.master, identity, nonce);
        let fresh = nonce > self.last_nonce.load(Ordering::Relaxed);
        if !(ct_eq(&expected, report) && fresh) {
            Stats::bump(&ctx.machine.stats.auth_failures);
            return Err(AuthError);
        }
        self.last_nonce.store(nonce, Ordering::Relaxed);
        *self.state.lock().expect("session state poisoned") = SessionState::Established(0);
        Stats::bump(&ctx.machine.stats.session_handshakes);
        Ok(())
    }

    /// Starts a key rotation: derives the next epoch's traffic key
    /// through the sealer seam and makes it current, keeping the old
    /// epoch in the buffer so in-flight reaps keep draining — the
    /// serving path never stalls. Charges the derivation to `ctx`.
    ///
    /// # Panics
    /// Panics unless the session is `Established` (a still-draining
    /// rotation must [`finish_rekey`](Self::finish_rekey) first).
    pub fn begin_rekey(&self, ctx: &mut ThreadCtx) {
        let mut st = self.state.lock().expect("session state poisoned");
        let from = match *st {
            SessionState::Established(e) => e,
            other => panic!("begin_rekey on a session in {other:?}"),
        };
        let to = from + 1;
        let next = Arc::new(Ctr128::new(&derive_key(&self.master, WIRE_LABEL, to)));
        {
            let mut keys = self.keys.write().expect("session keys poisoned");
            let current = keys[0].clone();
            *keys = [(to, next), current];
        }
        *st = SessionState::Rekeying { from, to };
        drop(st);
        ctx.compute(ctx.machine.cfg.costs.session_rekey);
        Stats::bump(&ctx.machine.stats.rekeys);
    }

    /// Retires a rotation's *label*: `Rekeying{to} -> Established(to)`.
    /// A no-op in any other state. The old epoch's key stays in the
    /// buffer (opens still accept it) until the next rotation
    /// overwrites its slot — which is what makes partial drains across
    /// replicas safe.
    pub fn finish_rekey(&self) {
        let mut st = self.state.lock().expect("session state poisoned");
        if let SessionState::Rekeying { to, .. } = *st {
            *st = SessionState::Established(to);
        }
    }

    /// Revokes the session (terminal): every queued or future message
    /// is dropped and counted instead of served.
    pub fn revoke(&self, ctx: &ThreadCtx) {
        *self.state.lock().expect("session state poisoned") = SessionState::Revoked;
        Stats::bump(&ctx.machine.stats.revocations);
    }

    fn epoch_of(nonce: &[u8; NONCE_LEN]) -> u32 {
        u32::from_le_bytes(nonce[EPOCH_OFFSET..].try_into().expect("4-byte epoch tag"))
    }

    /// What the open path accepts right now, and the keys it opens
    /// with ([`OpenGate`]).
    pub(crate) fn open_gate(&self) -> OpenGate {
        // The state lock first, as `begin_rekey` takes them, so the
        // state and the keys are one snapshot.
        let state = self.state.lock().expect("session state poisoned");
        OpenGate {
            state: *state,
            keys: self.keys.read().expect("session keys poisoned").clone(),
        }
    }

    /// [`Self::finish_rekey`], unless the session has left `seen`
    /// since: an open judged by an older gate must not retire a
    /// rotation it never saw.
    fn finish_rekey_seen(&self, seen: SessionState) {
        let mut st = self.state.lock().expect("session state poisoned");
        if let (true, SessionState::Rekeying { to, .. }) = (*st == seen, seen) {
            *st = SessionState::Established(to);
        }
    }

    /// The traffic key for `epoch`, when it is still in the double
    /// buffer.
    fn ctr_for(&self, epoch: u32) -> Option<Arc<Ctr128>> {
        self.keys
            .read()
            .expect("session keys poisoned")
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, ctr)| ctr.clone())
    }

    /// Bytes [`Self::seal_raw`] frames a `plain_len`-byte plaintext
    /// into: the nonce, then the ciphertext (CTR adds no tag).
    pub(crate) const fn sealed_len(plain_len: usize) -> usize {
        NONCE_LEN + plain_len
    }

    /// The one seal path: frames each plaintext as
    /// `nonce(counter, epoch) || ciphertext` under the current epoch
    /// and seals the whole batch in one [`Sealer::seal_batch`] pass.
    ///
    /// # Panics
    /// Panics when the session has not completed its handshake or has
    /// been revoked.
    fn seal_raw(&self, plains: &[&[u8]]) -> Vec<Vec<u8>> {
        match self.state() {
            SessionState::Handshake => {
                panic!("sealed before the handshake established the session")
            }
            SessionState::Revoked => panic!("sealed on a revoked session"),
            SessionState::Established(_) | SessionState::Rekeying { .. } => {}
        }
        let epoch = self.epoch();
        let mut msgs: Vec<Vec<u8>> = plains
            .iter()
            .map(|p| {
                let n = self.counter.fetch_add(1, Ordering::Relaxed);
                let mut msg = Vec::with_capacity(Self::sealed_len(p.len()));
                msg.extend_from_slice(&n.to_le_bytes());
                msg.extend_from_slice(&epoch.to_le_bytes());
                msg.extend_from_slice(p);
                msg
            })
            .collect();
        let mut jobs: Vec<SealJob<'_>> = msgs
            .iter_mut()
            .map(|m| {
                let (nonce, body) = m.split_at_mut(NONCE_LEN);
                SealJob {
                    nonce: (&*nonce).try_into().expect("nonce prefix"),
                    aad: &[],
                    data: body,
                }
            })
            .collect();
        let _zero_tags = self.seal_batch(&mut jobs);
        drop(jobs);
        msgs
    }

    /// [`Self::open_under`] the session as it is now.
    fn open_raw(&self, msgs: &[&[u8]]) -> (Vec<Vec<u8>>, Vec<usize>) {
        self.open_under(&self.open_gate(), msgs)
    }

    /// The one open path: decrypts every message whose epoch tag is in
    /// `gate`'s key buffer in one [`OpenGate::open_batch`] pass under
    /// the gate's keys, and *drops* the rest — frames too short to
    /// carry the nonce prefix included; a gate read off a revoked
    /// session drops everything. Returns the accepted plaintexts (reap
    /// order preserved) and the positions in `msgs` of the dropped
    /// frames, ascending. Once a nonempty reap carries no old-epoch
    /// messages, the rotation the gate saw in flight is retired.
    ///
    /// # Panics
    /// Panics when the gate was read before the handshake completed.
    fn open_under(&self, gate: &OpenGate, msgs: &[&[u8]]) -> (Vec<Vec<u8>>, Vec<usize>) {
        if msgs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        // Not input-reachable: servers are built over an established
        // session, and no frame can move a session back to Handshake.
        assert!(
            gate.state != SessionState::Handshake,
            "opened before the handshake established the session"
        );
        let rekeying_from = match gate.state {
            SessionState::Rekeying { from, .. } => Some(from),
            _ => None,
        };
        let mut dropped: Vec<usize> = Vec::new();
        let mut old_in_flight = false;
        let mut nonces: Vec<[u8; NONCE_LEN]> = Vec::with_capacity(msgs.len());
        let mut plains: Vec<Vec<u8>> = Vec::with_capacity(msgs.len());
        for (at, m) in msgs.iter().enumerate() {
            let Some((nonce, body)) = gate.split(m) else {
                dropped.push(at);
                continue;
            };
            old_in_flight |= rekeying_from == Some(Self::epoch_of(nonce));
            nonces.push(*nonce);
            plains.push(body.to_vec());
        }
        let mut jobs: Vec<OpenJob<'_>> = nonces
            .iter()
            .zip(plains.iter_mut())
            .map(|(nonce, p)| OpenJob {
                nonce: *nonce,
                aad: &[],
                data: p.as_mut_slice(),
                tag: [0u8; 16],
            })
            .collect();
        // Not input-reachable: every job's epoch was found in the
        // gate's keys above, and CTR carries no tag a frame could fail.
        gate.open_batch(&mut jobs)
            .expect("CTR wire decrypt is unauthenticated");
        drop(jobs);
        if rekeying_from.is_some() && !old_in_flight && !plains.is_empty() {
            self.finish_rekey_seen(gate.state);
        }
        (plains, dropped)
    }

    /// Client side: encrypts `plain` into a wire message under the
    /// current epoch. Runs outside the measured cores, so no cycles
    /// are charged.
    ///
    /// # Panics
    /// Panics when the session is not established.
    #[must_use]
    pub fn encrypt(&self, plain: &[u8]) -> Vec<u8> {
        self.seal_raw(&[plain])
            .pop()
            .expect("a batch of one yields one message")
    }

    /// Client side: decrypts a response.
    ///
    /// # Panics
    /// Panics when the message was dropped — sealed under an epoch no
    /// longer in the key buffer, or the session was revoked.
    #[must_use]
    pub fn decrypt(&self, msg: &[u8]) -> Vec<u8> {
        let (mut plains, dropped) = self.open_raw(&[msg]);
        assert!(
            dropped.is_empty(),
            "response dropped: epoch outside the key buffer or session revoked"
        );
        plains.pop().expect("a batch of one yields one message")
    }

    /// Server side: decrypts a sorted batch of wire messages in one
    /// [`Sealer::open_batch`] pass, charging `ctx` per accepted
    /// message under the current epoch's key: as one crypto batch when
    /// `amortize` is set (in a serve round, as the round's wire batch),
    /// otherwise each message as a batch of its own (the flag stays
    /// only because `bench/`'s probes pass it). Messages the session
    /// refuses — shorter than the nonce prefix, unknown epoch, or any
    /// message on a revoked session — are dropped and counted into
    /// `auth_failures`, never served and never charged.
    ///
    /// # Panics
    /// Panics when the session has not completed its handshake.
    #[must_use]
    pub fn decrypt_batch_in_enclave(
        &self,
        ctx: &mut ThreadCtx,
        msgs: &[&[u8]],
        amortize: bool,
    ) -> Vec<Vec<u8>> {
        if msgs.is_empty() {
            return Vec::new();
        }
        let gate = self.open_gate();
        let plains = self.open_reporting_drops(ctx, &gate, msgs);
        if amortize {
            ctx.charge_crypto(gate.current(), plains.iter().map(Vec::len));
        } else {
            for p in &plains {
                ctx.charge_crypto(gate.current(), [p.len()]);
            }
        }
        plains
    }

    /// [`Self::decrypt_batch_in_enclave`] for a reap that already
    /// billed its decrypts frame by frame as it read them (one
    /// [`OpenGate::plain_len`] per frame): the same one open pass and
    /// `auth_failures` count, judged by the `gate` the bill used, and
    /// no charge. A rotation another thread begins in between cannot
    /// make the two disagree on a frame.
    pub(crate) fn open_reporting_drops(
        &self,
        ctx: &ThreadCtx,
        gate: &OpenGate,
        msgs: &[&[u8]],
    ) -> Vec<Vec<u8>> {
        let (plains, dropped) = self.open_under(gate, msgs);
        if !dropped.is_empty() {
            Stats::add(&ctx.machine.stats.auth_failures, dropped.len() as u64);
        }
        plains
    }

    /// Server side: encrypts a batch of responses in one
    /// [`Sealer::seal_batch`] pass under the current epoch, charging
    /// `ctx` per message as one crypto batch under the epoch's key — in
    /// a serve round, as the next messages of the round's wire batch.
    #[must_use]
    pub fn encrypt_batch_in_enclave(&self, ctx: &mut ThreadCtx, plains: &[&[u8]]) -> Vec<Vec<u8>> {
        if plains.is_empty() {
            return Vec::new();
        }
        let key = self.keys.read().expect("session keys poisoned")[0]
            .1
            .clone();
        ctx.charge_crypto(&*key, plains.iter().map(|p| p.len()));
        self.seal_raw(plains)
    }
}

/// The open path's acceptance rule and keys, read off a [`Session`]
/// once: a frame is opened when it carries a whole nonce prefix whose
/// epoch tag names a key in the gate's buffer, and the session was not
/// revoked when the gate was read. Everything else is dropped and
/// counted, never served or charged. The open pass judges and decrypts
/// each frame by it, and a streamed reap bills its frames by the same
/// gate it later opens them under — so a rotation that overwrites a
/// key after the gate was read changes neither what the reap billed
/// nor what it opens.
pub(crate) struct OpenGate {
    state: SessionState,
    /// The double-buffered epoch keys, `[current, previous]`.
    keys: [(u32, Arc<Ctr128>); 2],
}

impl OpenGate {
    /// The current epoch's key: the key a reap's decrypts are billed
    /// under.
    pub(crate) fn current(&self) -> &Ctr128 {
        &self.keys[0].1
    }

    /// The key for `epoch`, when it is in the gate's buffer.
    fn key(&self, epoch: u32) -> Option<&Ctr128> {
        self.keys
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, ctr)| &**ctr)
    }

    /// `frame`'s nonce and ciphertext, when the open path accepts it.
    fn split<'a>(&self, frame: &'a [u8]) -> Option<(&'a [u8; NONCE_LEN], &'a [u8])> {
        frame.split_first_chunk::<NONCE_LEN>().filter(|(nonce, _)| {
            self.state != SessionState::Revoked && self.key(Session::epoch_of(nonce)).is_some()
        })
    }

    /// The plaintext length the open path would decrypt `frame` to —
    /// what its decrypt is billed for — or `None` when it drops it.
    pub(crate) fn plain_len(&self, frame: &[u8]) -> Option<usize> {
        self.split(frame).map(|(_, body)| body.len())
    }

    /// Opens each job under the gate's key for the epoch its nonce
    /// tag names; a job whose epoch is not in the buffer fails.
    fn open_batch(&self, jobs: &mut [OpenJob<'_>]) -> Result<(), BatchAuthError> {
        for (index, job) in jobs.iter_mut().enumerate() {
            let Some(ctr) = self.key(Session::epoch_of(&job.nonce)) else {
                return Err(BatchAuthError { index });
            };
            ctr.open(&job.nonce, job.aad, job.data, &job.tag)
                .map_err(|_| BatchAuthError { index })?;
        }
        Ok(())
    }
}

/// The wire codec *is* a sealer: each job is dispatched to the epoch
/// key its nonce tag names, so both key epochs of an in-flight
/// rotation open correctly in one batch. Unauthenticated (§5 wire
/// crypto carries no tag); SUVM page sealing uses the GCM sealers for
/// integrity instead.
impl Sealer for Session {
    fn name(&self) -> &'static str {
        "wire-ctr"
    }

    /// The current epoch's key: a rotation starts a new batch.
    fn key_id(&self) -> u64 {
        self.keys.read().expect("session keys poisoned")[0]
            .1
            .key_id()
    }

    fn seal_batch(&self, jobs: &mut [SealJob<'_>]) -> Vec<Tag> {
        jobs.iter_mut()
            .map(|job| {
                let ctr = self
                    .ctr_for(Self::epoch_of(&job.nonce))
                    .expect("sealing under an epoch outside the session key buffer");
                ctr.seal(&job.nonce, job.aad, job.data)
            })
            .collect()
    }

    fn open_batch(&self, jobs: &mut [OpenJob<'_>]) -> Result<(), BatchAuthError> {
        self.open_gate().open_batch(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    #[test]
    fn roundtrip_and_confidentiality() {
        let s = Session::established([9u8; 16]);
        let msg = s.encrypt(b"top secret request");
        assert!(!msg.windows(10).any(|w| w == b"top secret"));
        assert_eq!(s.decrypt(&msg), b"top secret request");
    }

    #[test]
    fn nonces_differ_between_messages() {
        let s = Session::established([9u8; 16]);
        let a = s.encrypt(b"same plaintext");
        let b = s.encrypt(b"same plaintext");
        assert_ne!(a, b, "same plaintext must not repeat on the wire");
    }

    #[test]
    fn enclave_side_charges_cycles() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([1u8; 16]);
        let msg = s.encrypt(&vec![5u8; 4096]);
        let c0 = t.now();
        let plain = s
            .decrypt_batch_in_enclave(&mut t, &[&msg], false)
            .pop()
            .expect("a batch of one yields one message");
        assert!(t.now() - c0 >= m.cfg.costs.crypto(4096));
        assert_eq!(plain, vec![5u8; 4096]);
        t.exit();
    }

    #[test]
    fn batched_decrypt_matches_per_message() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([3u8; 16]);
        let plains: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 40 + i as usize]).collect();
        let msgs: Vec<Vec<u8>> = plains.iter().map(|p| s.encrypt(p)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let out = s.decrypt_batch_in_enclave(&mut t, &refs, true);
        assert_eq!(out, plains);
        t.exit();
    }

    #[test]
    fn amortized_batch_charges_less_and_counts_stats() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([7u8; 16]);
        let msgs: Vec<Vec<u8>> = (0..8).map(|_| s.encrypt(&[0xabu8; 64])).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();

        let s0 = m.stats.snapshot();
        let c0 = t.now();
        let _ = s.decrypt_batch_in_enclave(&mut t, &refs, false);
        let per_msg = t.now() - c0;

        let c1 = t.now();
        let _ = s.decrypt_batch_in_enclave(&mut t, &refs, true);
        let amortized = t.now() - c1;
        let d = m.stats.snapshot() - s0;

        // 8 messages: per-message is 8 batches of one, each paying the
        // full setup; amortized is one batch, 1 full + 7 quarters.
        let full = m.cfg.costs.crypto_fixed;
        assert_eq!(per_msg - amortized, 7 * (full - full / 4));
        assert_eq!(d.crypto_batches, 8 + 1);
        assert_eq!(d.crypto_msgs, 16);
        assert_eq!(d.crypto_setup_cycles, 8 * full + full + 7 * (full / 4));
        t.exit();
    }

    #[test]
    fn batched_encrypt_decrypts_on_the_client() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([5u8; 16]);
        let plains: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i ^ 0x5a; 33]).collect();
        let refs: Vec<&[u8]> = plains.iter().map(Vec::as_slice).collect();
        let msgs = s.encrypt_batch_in_enclave(&mut t, &refs);
        assert_eq!(msgs.len(), plains.len());
        for (msg, plain) in msgs.iter().zip(plains.iter()) {
            assert!(!msg[NONCE_LEN..].windows(8).any(|w| w == &plain[..8]));
            assert_eq!(&s.decrypt(msg), plain);
        }
        t.exit();
    }

    #[test]
    fn a_batch_sealed_in_groups_is_one_batch() {
        // Six replies sealed whole, or as groups of two and four in one
        // serve round: the same bytes, cycles and crypto stats.
        let seal = |ends: &[usize]| {
            let m = SgxMachine::new(MachineConfig::tiny());
            let e = m.driver.create_enclave(&m, 1 << 20);
            let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let s = Session::established([5u8; 16]);
            let plains: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 40 + usize::from(i)]).collect();
            let refs: Vec<&[u8]> = plains.iter().map(Vec::as_slice).collect();
            let c0 = t.now();
            let mut msgs = Vec::new();
            let mut start = 0;
            t.open_round();
            for &end in ends {
                msgs.extend(s.encrypt_batch_in_enclave(&mut t, &refs[start..end]));
                start = end;
            }
            t.close_round();
            let d = m.stats.snapshot();
            let cost = (
                t.now() - c0,
                d.crypto_batches,
                d.crypto_msgs,
                d.crypto_setup_cycles,
            );
            t.exit();
            (msgs, cost)
        };
        let whole = seal(&[6]);
        assert_eq!(seal(&[2, 6]), whole);
        let full = MachineConfig::tiny().costs.crypto_fixed;
        let (_, batches, msgs, setup) = whole.1;
        assert_eq!((batches, msgs, setup), (1, 6, full + 5 * (full / 4)));
    }

    #[test]
    fn handshake_establishes_the_session() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut ut = eleos_enclave::thread::ThreadCtx::untrusted(&m, 0);
        let s = Session::handshake([0x11u8; 16], [0x22u8; 16]);
        assert_eq!(s.state(), SessionState::Handshake);
        let nonce = s.fresh_nonce();
        let c0 = ut.now();
        let report = s.evidence(&mut ut, nonce);
        assert!(ut.now() - c0 >= m.cfg.costs.session_handshake);
        s.verify(&mut ut, &s.identity(), nonce, &report)
            .expect("honest evidence must verify");
        assert_eq!(s.state(), SessionState::Established(0));
        let st = m.stats.snapshot();
        assert_eq!(st.session_handshakes, 1);
        assert_eq!(st.auth_failures, 0);
    }

    #[test]
    #[should_panic(expected = "before the handshake established")]
    fn unestablished_session_refuses_to_seal() {
        let s = Session::handshake([0x11u8; 16], [0x22u8; 16]);
        let _ = s.encrypt(b"too early");
    }

    #[test]
    fn epoch_tag_rides_the_nonce() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut ut = eleos_enclave::thread::ThreadCtx::untrusted(&m, 0);
        let s = Session::established([4u8; 16]);
        let before = s.encrypt(b"epoch zero");
        assert_eq!(&before[EPOCH_OFFSET..NONCE_LEN], &0u32.to_le_bytes());
        s.begin_rekey(&mut ut);
        let after = s.encrypt(b"epoch one");
        assert_eq!(&after[EPOCH_OFFSET..NONCE_LEN], &1u32.to_le_bytes());
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn rekey_drains_the_old_epoch_without_a_stall() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([6u8; 16]);
        let in_flight = s.encrypt(b"sealed under the old epoch");
        s.begin_rekey(&mut t);
        assert_eq!(s.state(), SessionState::Rekeying { from: 0, to: 1 });
        let fresh = s.encrypt(b"sealed under the new epoch");
        // A mixed reap opens both epochs in one pass and keeps the
        // rotation draining (an old-epoch message was present).
        let out = s.decrypt_batch_in_enclave(&mut t, &[&in_flight[..], &fresh[..]], true);
        assert_eq!(out[0], b"sealed under the old epoch");
        assert_eq!(out[1], b"sealed under the new epoch");
        assert_eq!(s.state(), SessionState::Rekeying { from: 0, to: 1 });
        // The first reap with no old-epoch traffic retires the label.
        let later = s.encrypt(b"post-drain");
        let _ = s.decrypt_batch_in_enclave(&mut t, &[&later[..]], true);
        assert_eq!(s.state(), SessionState::Established(1));
        let st = m.stats.snapshot();
        assert_eq!(st.rekeys, 1);
        assert_eq!(st.auth_failures, 0);
        t.exit();
    }

    /// A rotation frees the key it pushes out of the double buffer, and
    /// a later epoch's key may be allocated where that one lived: a
    /// batch that told keys apart by address would bill it as the dead
    /// key's follow-on. Inside one serve round, every new epoch key's
    /// first seal pays the full `crypto_fixed`, however many rotations
    /// the round spans.
    #[test]
    fn a_rekey_inside_a_serve_round_starts_a_new_crypto_batch() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([7u8; 16]);
        let full = m.cfg.costs.crypto_fixed;
        let seal_setup = |t: &mut eleos_enclave::thread::ThreadCtx| {
            let s0 = m.stats.snapshot().crypto_setup_cycles;
            let _ = s.encrypt_batch_in_enclave(t, &[b"reply"]);
            m.stats.snapshot().crypto_setup_cycles - s0
        };
        t.open_round();
        assert_eq!(seal_setup(&mut t), full, "epoch 0's first seal");
        assert_eq!(seal_setup(&mut t), full / 4, "a follow-on seal");
        for epoch in 1..=8 {
            s.begin_rekey(&mut t);
            s.finish_rekey();
            assert_eq!(seal_setup(&mut t), full, "epoch {epoch}'s first seal");
            assert_eq!(seal_setup(&mut t), full / 4, "a follow-on seal");
        }
        t.close_round();
        t.exit();
    }

    #[test]
    fn expired_epoch_messages_are_dropped_and_counted() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s = Session::established([8u8; 16]);
        let stale = s.encrypt(b"epoch 0 straggler");
        s.begin_rekey(&mut t);
        s.finish_rekey();
        s.begin_rekey(&mut t);
        // Two rotations later epoch 0 has left the double buffer: the
        // straggler is dropped, the fresh message still opens.
        let fresh = s.encrypt(b"epoch 2");
        let out = s.decrypt_batch_in_enclave(&mut t, &[&stale[..], &fresh[..]], true);
        assert_eq!(out, vec![b"epoch 2".to_vec()]);
        assert_eq!(m.stats.snapshot().auth_failures, 1);
        t.exit();
    }

    #[test]
    fn an_open_under_an_older_gate_opens_what_that_gate_accepts() {
        // A streamed reap bills by a gate, then another thread rotates
        // the session before the reap opens: the open still takes
        // exactly the frames the gate accepts, under the gate's keys,
        // and retires no rotation the gate never saw.
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut ut = eleos_enclave::thread::ThreadCtx::untrusted(&m, 0);
        let s = Session::established([5u8; 16]);
        let e0 = s.encrypt(b"under epoch 0");
        s.begin_rekey(&mut ut);
        let e1 = s.encrypt(b"under epoch 1");
        let gate = s.open_gate();
        s.finish_rekey();
        s.begin_rekey(&mut ut);
        let e2 = s.encrypt(b"under epoch 2");
        let frames = [&e0[..], &e1[..], &e2[..]];
        let billed: Vec<Option<usize>> = frames.iter().map(|f| gate.plain_len(f)).collect();
        assert_eq!(billed, [Some(13), Some(13), None]);
        let (plains, dropped) = s.open_under(&gate, &frames[1..]);
        assert_eq!(plains, [b"under epoch 1".to_vec()]);
        assert_eq!(dropped, [1]);
        assert_eq!(
            s.state(),
            SessionState::Rekeying { from: 1, to: 2 },
            "a reap without epoch-0 frames retires only the 0 -> 1 rotation"
        );
        let (plains, dropped) = s.open_under(&gate, &frames);
        assert_eq!(
            plains,
            [b"under epoch 0".to_vec(), b"under epoch 1".to_vec()]
        );
        assert_eq!(dropped, [2]);
        // The session as it is now judges epoch 0 and 2 the other way.
        assert_eq!(s.open_raw(&frames).1, [0]);
    }
}
