//! Inter-enclave shared secure memory — the extension sketched in the
//! paper's conclusions (§8): "Eleos might be extended to provide new
//! services, i.e., inter-enclave shared memory, which are not
//! currently supported in SGX."
//!
//! A [`SharedRegion`] is a sealed store in untrusted memory readable
//! and writable by *every* enclave holding its [`SharedToken`]. The
//! token stands for the result of local attestation plus a secure
//! channel: a shared sealing key and a shared view of the
//! crypto-metadata (nonce + tag per page) and of the per-page seqlock.
//! With the metadata root shared between the trusted parties, the
//! region has the same privacy/integrity/freshness guarantees as SUVM's
//! backing store — an untrusted-memory adversary can neither read,
//! modify, nor replay pages undetected.
//!
//! Access is direct-mode (unseal per access, like §3.2.4's sub-page
//! path but at page granularity): no per-enclave page cache means no
//! cross-enclave coherence protocol is needed — writes are globally
//! visible at their seqlock commit.

use std::sync::Arc;

use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::enclave::Enclave;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::{CryptoBatch, ThreadCtx};
use eleos_sim::alloc::BuddyAllocator;
use eleos_sim::stats::Stats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::table::PageTable;

/// The shared sealed store.
///
/// # Examples
///
/// ```
/// use eleos_core::shared::SharedRegion;
/// use eleos_enclave::machine::{MachineConfig, SgxMachine};
/// use eleos_enclave::thread::ThreadCtx;
///
/// let m = SgxMachine::new(MachineConfig::tiny());
/// let producer = m.driver.create_enclave(&m, 1 << 20);
/// let consumer = m.driver.create_enclave(&m, 1 << 20);
/// let region = SharedRegion::establish(&m, 1 << 20, [9; 16]);
///
/// let tok_p = region.join(&producer);
/// let tok_c = region.join(&consumer);
/// let mut tp = ThreadCtx::for_enclave(&m, &producer, 0);
/// let mut tc = ThreadCtx::for_enclave(&m, &consumer, 1);
/// tp.enter();
/// tc.enter();
/// let buf = tok_p.alloc(4096);
/// tok_p.write(&mut tp, buf, b"cross-enclave message");
/// let mut got = [0u8; 21];
/// tok_c.read(&mut tc, buf, &mut got);
/// assert_eq!(&got, b"cross-enclave message");
/// tp.exit();
/// tc.exit();
/// ```
pub struct SharedRegion {
    machine: Arc<SgxMachine>,
    bs_base: u64,
    page_size: usize,
    gcm: AesGcm128,
    /// Seal state only: a region caches no page, so no entry has a
    /// frame.
    seals: PageTable,
    alloc: Mutex<BuddyAllocator>,
    nonce_ctr: AtomicU64,
}

/// One enclave's capability to use a [`SharedRegion`].
///
/// Obtained from [`SharedRegion::join`]; conceptually the outcome of
/// local attestation between the region creator and the joining
/// enclave.
pub struct SharedToken {
    region: Arc<SharedRegion>,
    enclave_id: u32,
}

impl SharedRegion {
    /// Establishes a region of `bytes` (power of two) with `key` as
    /// the attestation-derived shared sealing key.
    #[must_use]
    pub fn establish(machine: &Arc<SgxMachine>, bytes: usize, key: [u8; 16]) -> Arc<Self> {
        assert!(
            bytes.is_power_of_two(),
            "region size must be a power of two"
        );
        let page_size = 4096;
        Arc::new(Self {
            bs_base: machine.alloc_untrusted(bytes),
            machine: Arc::clone(machine),
            page_size,
            gcm: AesGcm128::new(&key),
            seals: PageTable::new(32),
            alloc: Mutex::new(BuddyAllocator::new(bytes as u64, 16)),
            nonce_ctr: AtomicU64::new(1),
        })
    }

    /// Grants `enclave` access (models the attestation handshake).
    #[must_use]
    pub fn join(self: &Arc<Self>, enclave: &Arc<Enclave>) -> SharedToken {
        SharedToken {
            region: Arc::clone(self),
            enclave_id: enclave.id,
        }
    }

    fn next_nonce(&self) -> [u8; 12] {
        let v = self.nonce_ctr.fetch_add(1, Ordering::Relaxed);
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&v.to_le_bytes());
        n[8..].copy_from_slice(b"shrd");
        n
    }

    fn aad(page: u64) -> [u8; 12] {
        let mut aad = [0u8; 12];
        aad[..8].copy_from_slice(&page.to_le_bytes());
        aad[8..].copy_from_slice(b"shpg");
        aad
    }
}

impl SharedToken {
    /// The id of the enclave holding this token.
    #[must_use]
    pub fn enclave_id(&self) -> u32 {
        self.enclave_id
    }

    fn check(&self, ctx: &ThreadCtx) {
        assert!(ctx.in_enclave(), "shared region access from untrusted mode");
        let e = ctx.enclave().expect("enclave-bound thread");
        assert_eq!(
            e.id, self.enclave_id,
            "token presented by the wrong enclave"
        );
    }

    /// Allocates `len` bytes in the shared region.
    #[must_use]
    pub fn alloc(&self, len: usize) -> u64 {
        self.region
            .alloc
            .lock()
            .alloc(len)
            .expect("shared region exhausted")
    }

    /// Frees a shared allocation.
    pub fn free(&self, addr: u64) {
        self.region
            .alloc
            .lock()
            .free(addr)
            .expect("bad shared free");
    }

    /// Reads `buf.len()` bytes at `addr`, unsealing the covering pages
    /// with torn-write retry (seqlock). The unseals are billed as one
    /// crypto batch (in a serve round, as the round's batch for the
    /// region's key).
    pub fn read(&self, ctx: &mut ThreadCtx, addr: u64, buf: &mut [u8]) {
        self.check(ctx);
        let r = &self.region;
        let ps = r.page_size;
        let (mut off, mut batch) = (0usize, CryptoBatch::default());
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur / ps as u64;
            let in_page = (cur % ps as u64) as usize;
            let n = (ps - in_page).min(buf.len() - off);
            loop {
                // Shared regions seal whole pages: one unit.
                let (version, unit) = r
                    .seals
                    .stable(page, |e| (e.version, e.copy.as_ref().map(|m| m[0])));
                let Some((nonce, tag)) = unit else {
                    buf[off..off + n].fill(0);
                    break;
                };
                let mut scratch = vec![0u8; ps];
                ctx.read_untrusted(r.bs_base + page * ps as u64, &mut scratch);
                if r.gcm
                    .open(&nonce, &SharedRegion::aad(page), &mut scratch, &tag)
                    .is_err()
                {
                    if !r.seals.sealed_at(page, version) {
                        continue; // torn by a concurrent writer
                    }
                    panic!("shared page failed authentication: untrusted memory tampered");
                }
                ctx.charge_crypto_in(&mut batch, &r.gcm, [ps]);
                buf[off..off + n].copy_from_slice(&scratch[in_page..in_page + n]);
                break;
            }
            off += n;
        }
    }

    /// Writes `data` at `addr` (read-modify-write of the covering
    /// pages, resealed with fresh nonces; writers serialize per page).
    /// The opens and re-seals are billed as one crypto batch (in a
    /// serve round, as the round's batch for the region's key).
    pub fn write(&self, ctx: &mut ThreadCtx, addr: u64, data: &[u8]) {
        self.check(ctx);
        let r = &self.region;
        let ps = r.page_size;
        let (mut off, mut batch) = (0usize, CryptoBatch::default());
        while off < data.len() {
            let cur = addr + off as u64;
            let page = cur / ps as u64;
            let in_page = (cur % ps as u64) as usize;
            let n = (ps - in_page).min(data.len() - off);
            // The odd version makes this the page's one writer.
            let copy = r.seals.stable(page, |e| {
                e.version += 1;
                e.copy.clone()
            });
            let mut scratch = vec![0u8; ps];
            if let Some(meta) = copy {
                let (nonce, tag) = &meta[0];
                ctx.read_untrusted(r.bs_base + page * ps as u64, &mut scratch);
                r.gcm
                    .open(nonce, &SharedRegion::aad(page), &mut scratch, tag)
                    .expect("shared page failed authentication");
                ctx.charge_crypto_in(&mut batch, &r.gcm, [ps]);
            }
            scratch[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            let nonce = r.next_nonce();
            let tag = r.gcm.seal(&nonce, &SharedRegion::aad(page), &mut scratch);
            ctx.charge_crypto_in(&mut batch, &r.gcm, [ps]);
            ctx.write_untrusted(r.bs_base + page * ps as u64, &scratch);
            r.seals.commit(page, Box::new([(nonce, tag)]));
            Stats::add(&r.machine.stats.sealed_bytes, ps as u64);
            off += n;
        }
    }

    /// Atomically reads a little-endian `u64` (convenience for
    /// flags/indices in producer-consumer protocols).
    #[must_use]
    pub fn read_u64(&self, ctx: &mut ThreadCtx, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(ctx, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, ctx: &mut ThreadCtx, addr: u64, v: u64) {
        self.write(ctx, addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::MachineConfig;

    fn rig() -> (
        Arc<SgxMachine>,
        Arc<Enclave>,
        Arc<Enclave>,
        Arc<SharedRegion>,
    ) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e1 = m.driver.create_enclave(&m, 4 << 20);
        let e2 = m.driver.create_enclave(&m, 4 << 20);
        let region = SharedRegion::establish(&m, 4 << 20, [0x33; 16]);
        (m, e1, e2, region)
    }

    #[test]
    fn two_enclaves_exchange_data() {
        let (m, e1, e2, region) = rig();
        let tok1 = region.join(&e1);
        let tok2 = region.join(&e2);
        let mut t1 = ThreadCtx::for_enclave(&m, &e1, 0);
        let mut t2 = ThreadCtx::for_enclave(&m, &e2, 1);
        t1.enter();
        t2.enter();
        let buf = tok1.alloc(64 << 10);
        t1_to_t2(&tok1, &tok2, &mut t1, &mut t2, buf);
        t1.exit();
        t2.exit();
    }

    fn t1_to_t2(
        tok1: &SharedToken,
        tok2: &SharedToken,
        t1: &mut ThreadCtx,
        t2: &mut ThreadCtx,
        buf: u64,
    ) {
        tok1.write(t1, buf + 5000, b"message from enclave one");
        let mut got = [0u8; 24];
        tok2.read(t2, buf + 5000, &mut got);
        assert_eq!(&got, b"message from enclave one");
        // And back.
        tok2.write(t2, buf + 5000, b"reply from enclave two!!");
        tok1.read(t1, buf + 5000, &mut got);
        assert_eq!(&got, b"reply from enclave two!!");
    }

    #[test]
    fn shared_plaintext_stays_sealed() {
        let (m, e1, _e2, region) = rig();
        let tok = region.join(&e1);
        let mut t = ThreadCtx::for_enclave(&m, &e1, 0);
        t.enter();
        let buf = tok.alloc(4096);
        let secret = b"SHARED-REGION-SECRET-MARKER!";
        tok.write(&mut t, buf, secret);
        // Scan a window of untrusted memory around the region.
        let mut raw = vec![0u8; 8 << 20];
        m.untrusted.read(0, &mut raw);
        assert!(
            !raw.windows(secret.len()).any(|w| w == secret),
            "shared-region plaintext visible in untrusted memory"
        );
        t.exit();
    }

    #[test]
    fn shared_tamper_detected() {
        let (m, e1, e2, region) = rig();
        let tok1 = region.join(&e1);
        let tok2 = region.join(&e2);
        let mut t1 = ThreadCtx::for_enclave(&m, &e1, 0);
        t1.enter();
        let buf = tok1.alloc(4096);
        tok1.write(&mut t1, buf, &[9u8; 256]);
        t1.exit();
        // Flip one byte everywhere plausible.
        for addr in (0..(6 << 20u64)).step_by(997) {
            let mut b = [0u8; 1];
            m.untrusted.read(addr, &mut b);
            if b[0] != 0 {
                m.untrusted.write(addr, &[b[0] ^ 1]);
            }
        }
        let mut t2 = ThreadCtx::for_enclave(&m, &e2, 1);
        t2.enter();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b = [0u8; 256];
            tok2.read(&mut t2, buf, &mut b);
            b
        }));
        match result {
            Err(_) => {} // authentication failure: detected
            Ok(b) => assert_eq!(b, [9u8; 256], "silent corruption"),
        }
    }

    #[test]
    fn concurrent_producer_consumer() {
        let (m, e1, e2, region) = rig();
        let tok1 = region.join(&e1);
        let tok2 = region.join(&e2);
        // Slot protocol: [seq u64][payload 64B] per slot, 16 slots.
        let base = tok1.alloc(16 * 128);
        let producer = {
            let m = Arc::clone(&m);
            let e1 = Arc::clone(&e1);
            std::thread::spawn(move || {
                let mut t = ThreadCtx::for_enclave(&m, &e1, 0);
                t.enter();
                for i in 1..=64u64 {
                    let slot = base + (i % 16) * 128;
                    tok1.write(&mut t, slot + 8, &[(i % 251) as u8; 64]);
                    tok1.write_u64(&mut t, slot, i);
                }
                t.exit();
            })
        };
        let consumer = {
            let m = Arc::clone(&m);
            let e2 = Arc::clone(&e2);
            std::thread::spawn(move || {
                let mut t = ThreadCtx::for_enclave(&m, &e2, 1);
                t.enter();
                // Wait for the final item and check its payload.
                loop {
                    let slot = base; // item 64 lands in slot 64 % 16 == 0
                    if tok2.read_u64(&mut t, slot) == 64 {
                        let mut payload = [0u8; 64];
                        tok2.read(&mut t, slot + 8, &mut payload);
                        assert_eq!(payload, [64u8; 64]);
                        break;
                    }
                    std::hint::spin_loop();
                }
                t.exit();
            })
        };
        producer.join().expect("producer");
        consumer.join().expect("consumer");
    }

    #[test]
    #[should_panic(expected = "wrong enclave")]
    fn token_bound_to_its_enclave() {
        let (m, e1, e2, region) = rig();
        let tok1 = region.join(&e1);
        let mut t2 = ThreadCtx::for_enclave(&m, &e2, 0);
        t2.enter();
        let mut b = [0u8; 8];
        tok1.read(&mut t2, 0, &mut b);
    }
}
