//! Exit-less cross-enclave channels for replication traffic.
//!
//! Two enclaves on the same machine cannot share EPC pages (each
//! enclave's linear space is its own), but they *can* both touch
//! untrusted memory without exiting — the same property the RPC ring
//! exploits, with an enclave on **both** ends instead of a host worker
//! on one. An [`EnclaveChannel`] is a bounded byte ring in untrusted
//! memory plus a host-side descriptor queue: the sender stages a
//! message with charged `write_untrusted` traffic and pays the
//! incremental `rpc_post` descriptor handoff per [`CHUNK_BYTES`]
//! chunk; the receiver reaps it with charged `read_untrusted` traffic.
//! No OCALL, no EEXIT, no host round-trip anywhere.
//!
//! The channel itself is **not** a confidentiality boundary — its
//! backing store is plain untrusted memory. Callers must only send
//! bytes that are already sealed end-to-end (the fleet tier sends
//! `eleos_core::snapshot` blobs whose sections are AES-GCM
//! ciphertext under a key both replicas share); the
//! channel moves ciphertext, exactly like the paper's sealed swap
//! moves ciphertext through the untrusted page cache.
//!
//! Flow control is deliberately fail-fast: replication traffic is
//! fence-paced (snapshot out, restore in, continue), so a full ring
//! means the fleet orchestration is broken, not that the sender
//! should wait.
//!
//! A receive releases the ring pages it has finished with: once it has
//! copied its message out, every whole page between the last release
//! and the oldest staged byte, bar the page the writer is in, goes back
//! to [`eleos_sim::mem::PagedMem`]'s pool (by
//! [`release_ring`](eleos_sim::mem::PagedMem::release_ring), the rule
//! the host's socket rings follow too). So the host memory a channel
//! holds follows the bytes staged in it, not its capacity; received
//! bytes read as zeros. The LLC and TLB models see only addresses, so
//! no simulated cycle moves.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

/// Descriptor granularity: one `rpc_post` charge per started chunk,
/// mirroring the RPC ring's slot-sized handoffs.
pub const CHUNK_BYTES: usize = 4096;

/// Why [`EnclaveChannel::recv_chunked`] refused a transfer. The ring
/// is untrusted memory, so a hostile host can force a refusal — it is
/// an expected outcome, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError(pub &'static str);

/// One staged message: `kind` discriminates payload types (the fleet
/// uses it for rekey announcements vs. state-transfer frames),
/// `at`/`len` locate the payload in the ring (`at` on
/// [`Inner::head`]'s scale).
struct Msg {
    kind: u8,
    at: u64,
    len: usize,
}

struct Inner {
    /// Bytes staged since the channel opened: the next message starts
    /// at ring offset `head % cap`.
    head: u64,
    /// Ring position up to which received pages have been released.
    released: u64,
    msgs: VecDeque<Msg>,
}

impl Inner {
    /// The oldest staged byte's ring position, or the writer's when
    /// nothing is staged.
    fn tail(&self) -> u64 {
        self.msgs.front().map_or(self.head, |m| m.at)
    }
}

/// A bounded exit-less byte channel between enclaves on one machine.
///
/// Multiple-producer, multiple-consumer in the host sense (the cursor
/// state is lock-protected), FIFO per channel. Clone the [`Arc`] to
/// hand both ends out.
pub struct EnclaveChannel {
    machine: Arc<SgxMachine>,
    /// Base of the staging ring in simulated untrusted memory.
    buf: u64,
    cap: usize,
    inner: Mutex<Inner>,
}

impl EnclaveChannel {
    /// Allocates a channel with a `cap`-byte untrusted staging ring.
    ///
    /// # Panics
    /// Panics when `cap` is zero.
    #[must_use]
    pub fn new(machine: &Arc<SgxMachine>, cap: usize) -> Arc<Self> {
        assert!(cap > 0, "a zero-capacity channel can never carry a message");
        let buf = machine.alloc_untrusted(cap);
        Arc::new(Self {
            machine: Arc::clone(machine),
            buf,
            cap,
            inner: Mutex::new(Inner {
                head: 0,
                released: 0,
                msgs: VecDeque::new(),
            }),
        })
    }

    /// Messages currently staged and unreceived.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner.lock().msgs.len()
    }

    /// Stages `bytes` into the ring without leaving the enclave.
    ///
    /// Charges the sender the untrusted-memory write traffic plus one
    /// `rpc_post` per started [`CHUNK_BYTES`] chunk (the descriptor
    /// handoffs). Empty messages are legal (a pure `kind` signal) and
    /// cost one descriptor.
    ///
    /// # Panics
    /// Panics when called from untrusted mode (the host has no
    /// business on an enclave-to-enclave channel) or when the message
    /// does not fit next to what is already staged — replication is
    /// fence-paced, so overflow is an orchestration bug.
    pub fn send(&self, ctx: &mut ThreadCtx, kind: u8, bytes: &[u8]) {
        assert!(
            ctx.in_enclave(),
            "cross-enclave channels are for trusted code on both ends"
        );
        let mut inner = self.inner.lock();
        let used = (inner.head - inner.tail()) as usize;
        assert!(
            used + bytes.len() <= self.cap,
            "cross-enclave channel full: {} staged + {} new > {} capacity",
            used,
            bytes.len(),
            self.cap
        );
        let head = inner.head;
        let at = (head % self.cap as u64) as usize;
        // Stage the payload, splitting at the ring's wrap point; the
        // write itself is charged untrusted-memory traffic.
        let first = (self.cap - at).min(bytes.len());
        if first > 0 {
            ctx.write_untrusted(self.buf + at as u64, &bytes[..first]);
        }
        if first < bytes.len() {
            ctx.write_untrusted(self.buf, &bytes[first..]);
        }
        // One descriptor handoff per started chunk (at least one, so a
        // bare signal still synchronizes).
        let chunks = bytes.len().div_ceil(CHUNK_BYTES).max(1);
        ctx.compute(self.machine.cfg.costs.rpc_post * chunks as u64);
        inner.msgs.push_back(Msg {
            kind,
            at: head,
            len: bytes.len(),
        });
        inner.head = head + bytes.len() as u64;
        Stats::bump(&self.machine.stats.xchan_msgs);
        Stats::add(&self.machine.stats.xchan_bytes, bytes.len() as u64);
    }

    /// Reaps the oldest staged message, if any, without leaving the
    /// enclave. Charges the receiver the untrusted-memory read
    /// traffic, then releases the ring pages received since the last
    /// release.
    ///
    /// # Panics
    /// Panics when called from untrusted mode.
    pub fn recv(&self, ctx: &mut ThreadCtx) -> Option<(u8, Vec<u8>)> {
        self.recv_if(ctx, |_| true)
    }

    /// [`Self::recv`], but only when the oldest message's kind
    /// satisfies `want` (checked and popped under one lock).
    fn recv_if(&self, ctx: &mut ThreadCtx, want: impl Fn(u8) -> bool) -> Option<(u8, Vec<u8>)> {
        // The caller's own mode, not channel bytes: not input-reachable.
        assert!(
            ctx.in_enclave(),
            "cross-enclave channels are for trusted code on both ends"
        );
        let mut inner = self.inner.lock();
        if !want(inner.msgs.front()?.kind) {
            return None;
        }
        let msg = inner.msgs.pop_front()?;
        let at = (msg.at % self.cap as u64) as usize;
        let mut bytes = vec![0u8; msg.len];
        let first = (self.cap - at).min(msg.len);
        if first > 0 {
            ctx.read_untrusted(self.buf + at as u64, &mut bytes[..first]);
        }
        if first < msg.len {
            ctx.read_untrusted(self.buf, &mut bytes[first..]);
        }
        let (tail, head) = (inner.tail(), inner.head);
        self.machine
            .untrusted
            .release_ring(self.buf, self.cap, &mut inner.released, tail, head);
        Some((msg.kind, bytes))
    }

    /// Stages `payload` as a bounded chunked transfer: one `begin_kind`
    /// descriptor message carrying `header` plus the transfer geometry,
    /// then `ceil(len / chunk_bytes)` `chunk_kind` messages. Every
    /// fleet state transfer (delta round, failover, rejoin) travels
    /// this way, described to the ring `chunk_bytes` at a time. Each
    /// chunk pays the usual staged-traffic charges plus the fixed
    /// `maint_chunk` descriptor bookkeeping, and bumps `maint_chunks`.
    ///
    /// Returns the number of chunks staged (zero-length payloads stage
    /// a single empty chunk so the receiver's framing stays uniform).
    ///
    /// # Panics
    /// Panics under the same conditions as [`EnclaveChannel::send`],
    /// or when `chunk_bytes` is zero.
    pub fn send_chunked(
        &self,
        ctx: &mut ThreadCtx,
        begin_kind: u8,
        chunk_kind: u8,
        header: &[u8],
        payload: &[u8],
        chunk_bytes: usize,
    ) -> u32 {
        assert!(
            chunk_bytes > 0,
            "chunked transfers need a positive chunk size"
        );
        let nchunks = payload.len().div_ceil(chunk_bytes).max(1);
        let mut begin = Vec::with_capacity(header.len() + 16);
        begin.extend_from_slice(&(header.len() as u32).to_le_bytes());
        begin.extend_from_slice(header);
        begin.extend_from_slice(&(nchunks as u32).to_le_bytes());
        begin.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.send(ctx, begin_kind, &begin);
        for i in 0..nchunks {
            let end = payload.len().min((i + 1) * chunk_bytes);
            self.send(ctx, chunk_kind, &payload[i * chunk_bytes..end]);
            ctx.compute(self.machine.cfg.costs.maint_chunk);
            Stats::bump(&self.machine.stats.maint_chunks);
        }
        nchunks as u32
    }

    /// Reaps one chunked transfer staged with
    /// [`EnclaveChannel::send_chunked`], reassembling the payload.
    /// Returns the `(header, payload)` pair.
    ///
    /// The descriptor and the chunks sat in untrusted memory, so
    /// nothing in them is believed: the payload grows only by bytes
    /// actually reaped (never sized by the descriptor's `total`), and
    /// every chunk up to the next descriptor is consumed whatever the
    /// descriptor claimed, so a refused transfer cannot leave a tail
    /// for the next receive to misread.
    ///
    /// # Errors
    /// The ring is empty, the front message is not a `begin_kind`
    /// descriptor, the descriptor is truncated, or the chunks reaped
    /// disagree with the count and length it announced.
    pub fn recv_chunked(
        &self,
        ctx: &mut ThreadCtx,
        begin_kind: u8,
        chunk_kind: u8,
    ) -> Result<(Vec<u8>, Vec<u8>), FrameError> {
        let (kind, begin) = self.recv(ctx).ok_or(FrameError("no transfer staged"))?;
        let mut payload = Vec::new();
        let mut chunks = 0u32;
        while let Some((_, chunk)) = self.recv_if(ctx, |k| k == chunk_kind) {
            payload.extend_from_slice(&chunk);
            ctx.compute(self.machine.cfg.costs.maint_chunk);
            chunks += 1;
        }
        if kind != begin_kind {
            return Err(FrameError("expected a chunked-transfer descriptor"));
        }
        let (header, nchunks, total) =
            parse_begin(&begin).ok_or(FrameError("truncated chunked-transfer descriptor"))?;
        if chunks != nchunks || payload.len() as u64 != total {
            return Err(FrameError("chunks disagree with their descriptor"));
        }
        Ok((header.to_vec(), payload))
    }
}

/// Splits a chunked-transfer descriptor
/// (`hdr_len u32 ‖ hdr ‖ nchunks u32 ‖ total u64`) into
/// `(header, nchunks, total)`; `None` when it is truncated or overlong.
fn parse_begin(begin: &[u8]) -> Option<(&[u8], u32, u64)> {
    let (hlen, rest) = begin.split_first_chunk::<4>()?;
    let (header, rest) = rest.split_at_checked(u32::from_le_bytes(*hlen) as usize)?;
    let (nchunks, rest) = rest.split_first_chunk::<4>()?;
    let total: [u8; 8] = rest.try_into().ok()?;
    Some((
        header,
        u32::from_le_bytes(*nchunks),
        u64::from_le_bytes(total),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::MachineConfig;
    use eleos_sim::costs::PAGE_SIZE;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rig() -> (Arc<SgxMachine>, ThreadCtx, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let a = m.driver.create_enclave(&m, 64 * 4096);
        let b = m.driver.create_enclave(&m, 64 * 4096);
        let mut ta = ThreadCtx::for_enclave(&m, &a, 0);
        let mut tb = ThreadCtx::for_enclave(&m, &b, 1);
        ta.enter();
        tb.enter();
        (m, ta, tb)
    }

    #[test]
    fn round_trips_bytes_in_fifo_order() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 64 << 10);
        ch.send(&mut ta, 1, b"sealed snapshot bytes");
        ch.send(&mut ta, 2, b"epoch 7");
        assert_eq!(ch.pending(), 2);
        assert_eq!(
            ch.recv(&mut tb),
            Some((1, b"sealed snapshot bytes".to_vec()))
        );
        assert_eq!(ch.recv(&mut tb), Some((2, b"epoch 7".to_vec())));
        assert_eq!(ch.recv(&mut tb), None);
        let s = m.stats.snapshot();
        assert_eq!(s.xchan_msgs, 2);
        assert_eq!(s.xchan_bytes, 21 + 7);
    }

    #[test]
    fn transfer_is_exitless() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 64 << 10);
        let s0 = m.stats.snapshot();
        let blob = vec![0xa5u8; 20 << 10]; // several chunks
        ch.send(&mut ta, 3, &blob);
        assert_eq!(ch.recv(&mut tb).expect("staged").1, blob);
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.enclave_exits, 0, "channel traffic must be exit-less");
        assert_eq!(d.ocalls, 0);
        assert_eq!(d.xchan_bytes, 20 << 10);
    }

    #[test]
    fn wraps_around_the_ring_boundary() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 1024);
        // Advance the cursor near the end, drain, then send a message
        // that must split across the wrap point.
        ch.send(&mut ta, 0, &[1u8; 900]);
        assert_eq!(ch.recv(&mut tb).expect("staged").1.len(), 900);
        let msg: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        ch.send(&mut ta, 0, &msg);
        assert_eq!(ch.recv(&mut tb), Some((0, msg)));
    }

    /// Message `i`'s bytes: `len` of them, unlike any other message's.
    fn message(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7 + j / 251) as u8).collect()
    }

    #[test]
    fn ring_pages_held_follow_the_bytes_staged() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 32 << 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut staged = VecDeque::new();
        let (mut sent, mut received, mut bytes) = (0usize, 0usize, 0usize);
        while received < 3_000 {
            // Bursts of up to 12 messages of up to 5 000 B, some empty,
            // some across a page or the wrap point.
            for _ in 0..rng.random_range(0..12) {
                let len = rng.random_range(0..=5_000);
                if staged.iter().sum::<usize>() + len > ch.cap {
                    break;
                }
                ch.send(&mut ta, sent as u8, &message(sent, len));
                staged.push_back(len);
                (sent, bytes) = (sent + 1, bytes + len);
            }
            while ch.pending() > rng.random_range(0..6) {
                let len = staged.pop_front().expect("staged");
                let got = ch.recv(&mut tb).expect("staged");
                assert_eq!(got, (received as u8, message(received, len)));
                received += 1;
                let live: usize = staged.iter().sum();
                let pages = m.untrusted.resident_pages(ch.buf, ch.cap);
                assert!(
                    pages <= live.div_ceil(PAGE_SIZE) + 2,
                    "{pages} pages held for {live} staged bytes"
                );
            }
        }
        assert!(bytes > 100 * ch.cap, "the ring wraps many times over");
    }

    #[test]
    fn empty_message_is_a_pure_signal() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 1024);
        let before = ta.now();
        ch.send(&mut ta, 9, &[]);
        assert!(ta.now() > before, "even a bare signal pays its descriptor");
        assert_eq!(ch.recv(&mut tb), Some((9, Vec::new())));
        assert_eq!(m.stats.snapshot().xchan_bytes, 0);
    }

    #[test]
    fn chunked_transfers_bound_the_ring_and_reassemble() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 8 << 10);
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let n = ch.send_chunked(&mut ta, 4, 5, b"hdr", &payload, 2048);
        assert_eq!(n, 3);
        assert_eq!(m.stats.snapshot().maint_chunks, 3);
        let (hdr, got) = ch.recv_chunked(&mut tb, 4, 5).unwrap();
        assert_eq!(hdr, b"hdr");
        assert_eq!(got, payload);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn chunked_transfer_of_an_empty_payload_round_trips() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 1024);
        let n = ch.send_chunked(&mut ta, 4, 5, b"epoch", &[], 256);
        assert_eq!(n, 1);
        let (hdr, got) = ch.recv_chunked(&mut tb, 4, 5).unwrap();
        assert_eq!(hdr, b"epoch");
        assert!(got.is_empty());
    }

    #[test]
    fn hostile_chunk_framing_is_refused_and_the_next_transfer_survives() {
        let (m, mut ta, mut tb) = rig();
        let ch = EnclaveChannel::new(&m, 16 << 10);
        let mut host = ThreadCtx::untrusted(&m, 2);
        let payload = [0x5au8; 3000];
        // A descriptor is `hdr_len u32 ‖ hdr ‖ nchunks u32 ‖ total u64`
        // at the transfer's first ring byte; the host rewrites one
        // field of it while it rests there.
        let lies: [(u64, u32); 3] = [
            (0, u32::MAX), // header runs past the descriptor
            (7, 9),        // more chunks announced than staged
            (11, 2999),    // a total the chunks do not add up to
        ];
        let mut at = 0u64;
        for (field, lie) in lies {
            ch.send_chunked(&mut ta, 4, 5, b"hdr", &payload, 1024);
            host.write_untrusted(ch.buf + at + field, &lie.to_le_bytes());
            assert!(ch.recv_chunked(&mut tb, 4, 5).is_err(), "field {field}");
            assert_eq!(ch.pending(), 0, "the refused transfer's chunks are gone");
            at += 19 + 3000;
        }
        // A stray message where a descriptor belongs takes the chunks
        // behind it along.
        ch.send(&mut ta, 9, b"stray");
        ch.send(&mut ta, 5, b"orphan chunk");
        assert_eq!(
            ch.recv_chunked(&mut tb, 4, 5),
            Err(FrameError("expected a chunked-transfer descriptor"))
        );
        assert_eq!(ch.pending(), 0);
        // And an honest transfer behind all that still round-trips.
        ch.send_chunked(&mut ta, 4, 5, b"hdr", &payload, 1024);
        let (hdr, got) = ch.recv_chunked(&mut tb, 4, 5).unwrap();
        assert_eq!(
            (hdr.as_slice(), got.as_slice()),
            (&b"hdr"[..], &payload[..])
        );
        assert_eq!(
            ch.recv_chunked(&mut tb, 4, 5),
            Err(FrameError("no transfer staged"))
        );
    }

    #[test]
    #[should_panic(expected = "cross-enclave channel full")]
    fn overflow_fails_fast() {
        let (m, mut ta, _tb) = rig();
        let ch = EnclaveChannel::new(&m, 256);
        ch.send(&mut ta, 0, &[0u8; 200]);
        ch.send(&mut ta, 0, &[0u8; 100]);
    }

    #[test]
    #[should_panic(expected = "for trusted code on both ends")]
    fn rejects_untrusted_senders() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let ch = EnclaveChannel::new(&m, 256);
        let mut t = ThreadCtx::untrusted(&m, 0);
        ch.send(&mut t, 0, b"nope");
    }
}
